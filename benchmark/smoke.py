#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload named in BENCHMARK.json, and the two the program
runs that BENCHMARK.json does not track (UNTRACKED), for one second,
untraced (--trace 0) and traced (--trace 1), and asserts that

* the program exits 0 and its last stdout line is the result object
  with exactly the keys correct/attempted/failed/metrics;
* every output check passed (correct, failed == 0, attempted >= 1);
* the metrics are exactly the end_to_end (resp. per_layer) names of
  BENCHMARK.json, each a finite number with the unit listed there;
* the human-readable part names every metric it reports.

It also checks that an unknown workload is refused with a non-zero exit
and no result line.

Run from the repository root:

    python3 benchmark/smoke.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Workloads the program runs but BENCHMARK.json leaves out, because their
# run-to-run spread exceeded the bounds on the reference host (see
# README.md). Their output checks and metric names are still held here.
UNTRACKED = ["fwd-caida1", "exec-caida1"]


def run(args, timeout=900):
    return subprocess.run(
        SPEC["command"] + args,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def check(workload, trace, failures):
    key = "per_layer" if trace else "end_to_end"
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        failures.append(f"{where}: last line is not JSON ({e})")
        return
    if set(result) != RESULT_KEYS:
        failures.append(f"{where}: result keys {sorted(result)}")
        return
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        failures.append(f"{where}: output checks failed: {lines[-1][:300]}\n{proc.stdout[-3000:]}")
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        failures.append(f"{where}: missing {missing}, unexpected {extra}")
    text = "\n".join(lines[:-1])
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            failures.append(f"{where}: {name} has unit {m.get('unit')!r}, BENCHMARK.json says {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{where}: {name} is not a finite number: {value!r}")
        if name not in text:
            failures.append(f"{where}: {name} is not in the human-readable output")
    print(f"ok   {where}: {len(got)} metrics, {result['attempted']} checked runs")


def main():
    failures = []
    for name in [w["name"] for w in SPEC["workloads"]] + UNTRACKED:
        for trace in (0, 1):
            check(name, trace, failures)
    bad = run(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip():
        failures.append("an unknown workload was not refused")
    else:
        print("ok   unknown workload refused")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
