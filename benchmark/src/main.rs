//! `laps-benchmark` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <fwd-caida1|exec-caida1|laps-t5|sweep-fig7> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds` seconds
//! untraced and prints the end-to-end metrics; with `--trace 1` it runs
//! the workload untraced and then traced, times each layer's public
//! functions on the workload's inputs, writes the span log under
//! `benchmark/out/` and prints the per-layer metrics. Either way every
//! run's output is checked, and the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `benchmark/README.md` for the metric definitions.

mod layers;
mod stats;
mod trace;
mod workload;

use layers::{classify_s, time_layers, LayerInputs};
use npfarm::benchdiff::HostFingerprint;
use npsim::{ArrivalPlan, ScheduledPacket, SimReport};
use stats::{digest, peak_rss_mib, percentile, percentile_of_counts, Summary};
use std::fmt::Write as _;
use std::time::Instant;
use trace::{clock_read_ns, SimProbe, Span, Tracer};
use workload::{
    cells_of, check_exec, check_report, exec_run, farm_run, Cell, ExecRun, FarmRun, Kind, Policies,
    POOL_THREADS,
};

/// Repetitions measured even when `--seconds` is shorter than one.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Output-check accounting: runs (or sweep cells) attempted and failed.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for m in failures {
                if self.messages.len() < 20 {
                    self.messages.push(m);
                }
            }
        }
    }
}

/// One untraced repetition's measurements (or a sum of several).
#[derive(Debug, Clone, Copy, Default)]
struct Rep {
    /// Construction before the first packet.
    setup_s: f64,
    /// The interval `pps` is taken over.
    timed_s: f64,
    /// The whole repetition.
    wall_s: f64,
    /// Summed wall time of its cells (the sweep's cells run in parallel).
    cell_s: f64,
    packets: u64,
    cells: u64,
}

impl Rep {
    /// One simulation: set-up, then the timed run.
    fn single(setup_s: f64, run_s: f64, packets: u64) -> Rep {
        Rep {
            setup_s,
            timed_s: run_s,
            wall_s: setup_s + run_s,
            cell_s: setup_s + run_s,
            packets,
            cells: 1,
        }
    }
}

impl std::ops::AddAssign for Rep {
    fn add_assign(&mut self, r: Rep) {
        self.setup_s += r.setup_s;
        self.timed_s += r.timed_s;
        self.wall_s += r.wall_s;
        self.cell_s += r.cell_s;
        self.packets += r.packets;
        self.cells += r.cells;
    }
}

/// The workload's inputs, reference results and check ledger.
struct Bench {
    kind: Kind,
    cells: Vec<Cell>,
    policies: Policies,
    /// Reference digest and offered packets of each cell's detsim run.
    digests: Vec<u64>,
    offered: Vec<u64>,
    /// `exec-caida1`: reference digest of the npexec report.
    exec_digest: Option<u64>,
    ledger: Ledger,
    /// Simulated-metric reports (detsim, probe run) and probe samples.
    sim_reports: Vec<SimReport>,
    probe: SimProbe,
    exec_report: Option<SimReport>,
}

impl Bench {
    fn new(kind: Kind, seed: u64) -> Bench {
        Bench {
            kind,
            cells: cells_of(kind, seed),
            policies: Policies::new(),
            digests: Vec::new(),
            offered: Vec::new(),
            exec_digest: None,
            ledger: Ledger::default(),
            sim_reports: Vec::new(),
            probe: SimProbe::new(),
            exec_report: None,
        }
    }

    /// Warm-up pass and reference results: the detsim reports fix the
    /// digests every later run must reproduce (for `exec-caida1`, they
    /// are its detsim twin's, and a warm-up npexec run fixes its own).
    fn prepare(&mut self) {
        let warm = farm_run(&self.policies, &self.cells, None);
        for (c, cell) in warm.cells.iter().zip(&self.cells) {
            self.ledger
                .record(check_report(&cell.label, &c.report, None));
            self.digests.push(digest(&c.report));
            self.offered.push(c.report.offered);
        }
        if self.kind == Kind::Exec {
            let warm = exec_run(&self.cells[0]);
            self.ledger.record(self.exec_failures(&warm));
            self.exec_digest = Some(digest(&warm.report));
            self.exec_report = Some(warm.report);
        }
    }

    /// A detsim pass with the latency probe on the bus, for the
    /// simulated metrics; it must reproduce the reference digests. Its
    /// samples are held until the process ends, so it runs after any
    /// memory measurement.
    fn probe(&mut self) {
        for (i, cell) in self.cells.iter().enumerate() {
            let (report, probe) = self.policies.run_probed(cell);
            let label = format!("{} (probed)", cell.label);
            self.ledger
                .record(check_report(&label, &report, self.digests.get(i).copied()));
            self.probe.merge(&probe);
            self.sim_reports.push(report);
        }
    }

    fn exec_failures(&self, run: &ExecRun) -> Vec<String> {
        let label = format!("{} (npexec)", self.cells[0].label);
        let mut bad = check_report(&label, &run.report, self.exec_digest);
        bad.extend(check_exec(&label, &run.report, self.offered[0]));
        bad
    }

    /// One checked, untraced repetition.
    fn rep(&mut self) -> Rep {
        match self.kind {
            Kind::Fwd | Kind::Laps => {
                let cell = &self.cells[0];
                let run = self.policies.run(cell);
                let failures =
                    check_report(&cell.label, &run.report, self.digests.first().copied());
                self.ledger.record(failures);
                Rep::single(run.setup_s, run.run_s, run.report.offered)
            }
            Kind::Exec => {
                let run = exec_run(&self.cells[0]);
                let failures = self.exec_failures(&run);
                self.ledger.record(failures);
                Rep::single(run.setup_s, run.run_s, run.report.offered)
            }
            Kind::Sweep => {
                let run = farm_run(&self.policies, &self.cells, None);
                self.check_farm(&run);
                Rep {
                    setup_s: run.cells.iter().map(|c| c.setup_s).sum(),
                    timed_s: run.wall_s,
                    wall_s: run.wall_s,
                    cell_s: run.cells.iter().map(|c| c.wall_s).sum(),
                    packets: run.cells.iter().map(|c| c.report.offered).sum(),
                    cells: run.cells.len() as u64,
                }
            }
        }
    }

    fn check_farm(&mut self, run: &FarmRun) {
        for (i, (c, cell)) in run.cells.iter().zip(&self.cells).enumerate() {
            let failures = check_report(&cell.label, &c.report, self.digests.get(i).copied());
            self.ledger.record(failures);
        }
    }
}

/// Run `step` until `seconds` have passed (and at least `MIN_REPS` times).
fn repeat_for<T>(seconds: f64, mut step: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        out.push(step());
    }
    out
}

/// Seconds of consecutive repetitions that make one throughput sample.
const BLOCK_S: f64 = 2.0;

/// Fold consecutive repetitions into blocks of at least `BLOCK_S`
/// seconds; a short tail joins the last block.
fn blocks_of(reps: &[Rep]) -> Vec<Rep> {
    let mut blocks: Vec<Rep> = Vec::new();
    let mut open = Rep::default();
    for &r in reps {
        open += r;
        if open.wall_s >= BLOCK_S {
            blocks.push(std::mem::take(&mut open));
        }
    }
    match blocks.last_mut() {
        Some(last) => *last += open,
        None => blocks.push(open),
    }
    blocks
}

/// A metric as printed: name, unit, value.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The simulated metrics of the detsim runs: drops, reordering,
/// cold starts, and exact latency percentiles from the probe.
fn sim_metrics(bench: &Bench) -> Vec<Metric> {
    let sum =
        |f: fn(&SimReport) -> u64| -> f64 { bench.sim_reports.iter().map(f).sum::<u64>() as f64 };
    let offered = sum(|r| r.offered).max(1.0);
    let processed = sum(|r| r.processed).max(1.0);
    let mut lat = bench.probe.latencies_ns.clone();
    lat.sort_unstable();
    vec![
        metric("npsim.drop_pct", "%", 100.0 * sum(|r| r.dropped) / offered),
        metric(
            "npsim.ooo_pct",
            "%",
            100.0 * sum(|r| r.out_of_order) / processed,
        ),
        metric(
            "npsim.cold_pct",
            "%",
            100.0 * sum(|r| r.cold_starts) / processed,
        ),
        metric(
            "npsim.latency_p50_us",
            "sim_us",
            percentile(&lat, 50.0) as f64 / 1e3,
        ),
        metric(
            "npsim.latency_p99_us",
            "sim_us",
            percentile(&lat, 99.0) as f64 / 1e3,
        ),
        metric("npsim.latency_samples", "count", lat.len() as f64),
        metric(
            "npsim.queue_depth_p99",
            "count",
            percentile_of_counts(&bench.probe.depth_counts, 99.0) as f64,
        ),
        metric(
            "laps.migration_events",
            "count",
            sum(|r| r.migration_events),
        ),
        metric(
            "laps.migrated_packets",
            "count",
            sum(|r| r.migrated_packets),
        ),
        metric(
            "laps.core_reallocations",
            "count",
            sum(|r| r.core_reallocations),
        ),
    ]
}

fn print_result(ledger: &Ledger, metrics: &[Metric]) {
    let mut correct = ledger.failed == 0;
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("metric {} is not a finite number", m.name);
            correct = false;
            0.0
        };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ledger.attempted, ledger.failed
    );
}

fn print_checks(bench: &Bench) {
    let l = &bench.ledger;
    println!(
        "checks: {} attempted, {} failed, ops_failed_pct {:.3} %",
        l.attempted,
        l.failed,
        100.0 * l.failed as f64 / l.attempted.max(1) as f64
    );
    for m in &l.messages {
        println!("  FAILED {m}");
    }
}

fn end_to_end(args: &Args) -> Result<(), String> {
    let mut bench = Bench::new(args.kind, args.seed);
    bench.prepare();
    let reps = repeat_for(args.seconds, || bench.rep());
    let rss = peak_rss_mib();
    bench.probe();

    // The host's speed drifts over seconds, so a single repetition is a
    // noisy sample. Throughput is reported as work over time for the
    // whole run; the spread printed beside it is that of blocks of
    // consecutive repetitions lasting at least BLOCK_S each.
    let total = |f: fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    let pps_run = total(|r| r.packets as f64) / total(|r| r.timed_s);
    let cells_run = total(|r| r.cells as f64) / total(|r| r.wall_s);
    let blocks = blocks_of(&reps);
    let pps = Summary::of(
        &blocks
            .iter()
            .map(|b| b.packets as f64 / b.timed_s)
            .collect::<Vec<_>>(),
    );
    let cells = Summary::of(
        &blocks
            .iter()
            .map(|b| b.cells as f64 / b.wall_s)
            .collect::<Vec<_>>(),
    );
    let setup = Summary::of(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());

    println!(
        "workload {} seed {} ({} repetitions in {} blocks of >= {BLOCK_S} s)",
        args.kind.name(),
        args.seed,
        reps.len(),
        blocks.len()
    );
    println!("host: {}", HostFingerprint::detect().describe());
    let line = |name: &str, unit: &str, value: f64, what: &str, s: Summary| {
        println!(
            "  {name:<14} {value:>14.6e} {unit:<8} {what}  [median {:.6e}, q1 {:.6e}, q3 {:.6e}, n {}, spread {:.2} %]",
            s.median,
            s.q1,
            s.q3,
            s.n,
            100.0 * s.spread()
        );
    };
    line("pps", "pkt/s", pps_run, "run rate  ", pps);
    line("cells_per_s", "cells/s", cells_run, "run rate  ", cells);
    line("setup_s", "s", setup.median, "median    ", setup);
    println!("  {:<14} {rss:>14.3} MiB      (VmHWM)", "peak_rss_mib");
    println!("simulated (deterministic per seed):");
    if let Some(r) = &bench.exec_report {
        println!(
            "  npexec: offered {} processed {} dropped {} out_of_order {} (latency is not simulated on threads; the detsim twin's follows)",
            r.offered, r.processed, r.dropped, r.out_of_order
        );
    }
    for m in sim_metrics(&bench) {
        println!("  {:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print_checks(&bench);
    print_result(
        &bench.ledger,
        &[
            metric("pps", "pkt/s", pps_run),
            metric("cells_per_s", "cells/s", cells_run),
            metric("setup_s", "s", setup.median),
            metric("peak_rss_mib", "MiB", rss),
        ],
    );
    Ok(())
}

/// The npexec breakdown of one traced pass over `cells`: per cell,
/// `ThreadedBackend::new` then `ThreadedBackend::run`, with a child
/// span for its thread scope. `run` builds and classifies the arrival
/// plan itself; those two steps are timed after the pass, outside it,
/// by calling `ArrivalPlan::from_config` and `bucket_of` on the same
/// cells, whose plans are returned.
#[derive(Debug, Default, Clone, Copy)]
struct ExecPass {
    plan_gen_s: f64,
    classify_s: f64,
    run_s: f64,
    threads_s: f64,
    delivered: u64,
    max_hold_depth: usize,
    handshakes_begun: u64,
    wall_s: f64,
}

fn exec_pass(
    tracer: &mut Tracer,
    cells: &[Cell],
    root: &'static str,
) -> (ExecPass, Vec<ExecRun>, Vec<ArrivalPlan>) {
    let mut pass = ExecPass::default();
    let mut runs = Vec::new();
    let pass_id = tracer.open(root, None);
    for cell in cells {
        let run = exec_run(cell);
        let run_end = tracer.now_ns();
        let s = |secs: f64| (secs * 1e9) as u64;
        // Place the spans from the repetition's own clock reads: the
        // run, with the thread scope at its end.
        let exec_id = tracer.spans.len();
        tracer.spans.push(Span {
            name: "npexec.run",
            parent: Some(pass_id),
            start_ns: run_end - s(run.run_s),
            end_ns: run_end,
            weight: 1,
        });
        tracer.spans.push(Span {
            name: "npexec.threads",
            parent: Some(exec_id),
            start_ns: run_end - s(run.stats.wall_secs),
            end_ns: run_end,
            weight: 1,
        });
        pass.run_s += run.run_s;
        pass.threads_s += run.stats.wall_secs;
        pass.delivered += run.report.processed;
        pass.max_hold_depth = pass.max_hold_depth.max(run.stats.max_hold_depth);
        pass.handshakes_begun += run.stats.handshakes.begun;
        runs.push(run);
    }
    tracer.close(pass_id);
    pass.wall_s = tracer.spans[pass_id].duration_ns() as f64 * 1e-9;
    // npexec's automatic group count: eight flow groups per worker.
    let groups = 8 * workload::exec_config().workers;
    let mut plans = Vec::new();
    for cell in cells {
        let id = tracer.open("npsim.plan_gen", None);
        let plan = ArrivalPlan::from_config(&cell.cfg, &cell.sources);
        tracer.close(id);
        pass.plan_gen_s += tracer.spans[id].duration_ns() as f64 * 1e-9;
        let id = tracer.open("nphash.classify", None);
        pass.classify_s += classify_s(&plan, groups);
        tracer.close(id);
        plans.push(plan);
    }
    (pass, runs, plans)
}

fn per_layer(args: &Args) -> Result<(), String> {
    let mut bench = Bench::new(args.kind, args.seed);
    bench.prepare();
    let timer_ns = clock_read_ns();
    let mut tracer = Tracer::new();

    // The cells whose detsim runs give the npsim/laps/npfarm layers:
    // the workload's own, or for exec-caida1 its detsim twin.
    let detsim_cells = bench.cells.clone();
    let exec_cells: Vec<Cell> = bench.cells.iter().take(24).cloned().collect();

    bench.probe();
    let traced_detsim = |bench: &mut Bench, tracer: &mut Tracer| -> FarmRun {
        let rep_id = tracer.open("npfarm.sweep", None);
        let run = farm_run(&bench.policies, &detsim_cells, Some(tracer.epoch()));
        for c in &run.cells {
            tracer.adopt(&c.trace, Some(rep_id));
        }
        tracer.close(rep_id);
        // Traced reports must match the untraced reference bit for bit
        // (for exec-caida1 the reference is the detsim twin's report).
        for (i, (c, cell)) in run.cells.iter().zip(&detsim_cells).enumerate() {
            let label = format!("{} (traced)", cell.label);
            let failures = check_report(&label, &c.report, bench.digests.get(i).copied());
            bench.ledger.record(failures);
        }
        run
    };
    // Untraced and traced repetitions of the workload itself, taken in
    // turn so that both sample the same host conditions. A unit is one
    // run, or one cell of the sweep.
    let mut untraced = Rep::default();
    let mut untraced_walls: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut farm_runs: Vec<FarmRun> = Vec::new();
    let mut exec_passes: Vec<ExecPass> = Vec::new();
    let mut plans: Vec<ArrivalPlan> = Vec::new();
    let start = Instant::now();
    while traced_walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = bench.rep();
        untraced += rep;
        untraced_walls.push(rep.wall_s);
        if bench.kind == Kind::Exec {
            let (pass, runs, pass_plans) = exec_pass(&mut tracer, &bench.cells, "npexec.rep");
            for run in &runs {
                let failures = bench.exec_failures(run);
                bench.ledger.record(failures);
            }
            plans = pass_plans;
            traced_walls.push(pass.wall_s);
            exec_passes.push(pass);
        } else {
            let run = traced_detsim(&mut bench, &mut tracer);
            traced_walls.push(run.wall_s);
            farm_runs.push(run);
        }
    }
    if bench.kind == Kind::Exec {
        // The npsim, laps and npfarm layers of exec-caida1 are those of
        // its detsim twin, the run its output check compares against.
        for _ in 0..2 {
            farm_runs.push(traced_detsim(&mut bench, &mut tracer));
        }
    }
    let untraced_unit = untraced.cell_s / untraced.cells.max(1) as f64;

    // Per-call timings and, for the detsim workloads, one npexec pass
    // over the workload's own cells.
    if bench.kind != Kind::Exec {
        let mut suite_tracer = Tracer::with_epoch(tracer.epoch());
        let (pass, runs, pass_plans) =
            exec_pass(&mut suite_tracer, &exec_cells, "npexec.layer_pass");
        for ((run, cell), &offered) in runs.iter().zip(&exec_cells).zip(&bench.offered) {
            let label = format!("{} (npexec)", cell.label);
            let mut failures = check_report(&label, &run.report, None);
            failures.extend(check_exec(&label, &run.report, offered));
            bench.ledger.record(failures);
        }
        tracer.adopt(&suite_tracer.spans, None);
        exec_passes.push(pass);
        plans = pass_plans;
    }
    let plan_refs: Vec<&ArrivalPlan> = plans.iter().collect();
    let plan_mib = plans
        .iter()
        .map(|p| {
            (p.packets.len() * std::mem::size_of::<ScheduledPacket>()) as f64 / (1u64 << 20) as f64
        })
        .fold(0.0, f64::max);
    let flow_slots: usize = plans.iter().map(|p| p.flow_count).sum();
    let inputs = LayerInputs::from_plans(&plan_refs);
    drop(plan_refs);
    drop(plans);
    let lt = time_layers(&inputs, &bench.cells);

    // Span totals → per-layer metrics.
    let totals = tracer.totals(timer_ns);
    let get = |name: &str| totals.iter().find(|t| t.name == name).copied();
    let total = |name: &str| get(name).map_or(0.0, |t| t.total_ns);
    let self_of = |name: &str| get(name).map_or(0.0, |t| t.self_ns);
    let calls = |name: &str| get(name).map_or(0.0, |t| t.calls);
    let farm_cells = || farm_runs.iter().flat_map(|r| r.cells.iter());
    let offered: f64 = farm_cells().map(|c| c.report.offered as f64).sum();
    let events: f64 = farm_cells().map(|c| c.report.events as f64).sum();
    let n_farm = farm_runs.len().max(1) as f64;
    let per_call = |name: &str| total(name) / calls(name).max(1.0);

    // Closure: the self times of every span inside a repetition unit
    // (a cell, or an npexec repetition) against the untraced wall time
    // of the same number of units.
    let (unit_spans, n_units): (&[&str], f64) = if bench.kind == Kind::Exec {
        (
            &["npexec.rep", "npexec.run", "npexec.threads"],
            calls("npexec.rep"),
        )
    } else {
        (
            &[
                "npfarm.cell",
                "npsim.engine_new",
                "npsim.run",
                "laps.schedule",
                "laps.on_drop",
            ],
            calls("npfarm.cell"),
        )
    };
    let closure_self: f64 = unit_spans.iter().map(|n| self_of(n)).sum::<f64>() * 1e-9;
    let closure_pct = 100.0 * closure_self / (n_units * untraced_unit).max(1e-12);
    let overhead_pct =
        100.0 * (Summary::of(&traced_walls).median / Summary::of(&untraced_walls).median - 1.0);

    let cell_walls: Vec<f64> = farm_cells().map(|c| c.wall_s).collect();
    let cell_setup: f64 = farm_cells().map(|c| c.setup_s).sum();
    let pool_capacity: f64 = farm_runs
        .iter()
        .map(|r| r.wall_s * POOL_THREADS.min(r.cells.len()) as f64)
        .sum();
    let mut sorted_walls = cell_walls.clone();
    sorted_walls.sort_by(f64::total_cmp);
    let cell_sum: f64 = cell_walls.iter().sum();

    let n_exec = exec_passes.len().max(1) as f64;
    let exec_mean = |f: fn(&ExecPass) -> f64| exec_passes.iter().map(f).sum::<f64>() / n_exec;
    let threads_s = exec_mean(|p| p.threads_s);
    let delivered = exec_mean(|p| p.delivered as f64);

    let mut metrics = vec![
        metric(
            "npsim.engine_new_s",
            "s",
            total("npsim.engine_new") * 1e-9 / n_farm,
        ),
        metric("npsim.run_s", "s", total("npsim.run") * 1e-9 / n_farm),
        metric("npsim.events_per_pkt", "count", events / offered.max(1.0)),
        metric(
            "npsim.ns_per_event",
            "ns",
            total("npsim.run") / events.max(1.0),
        ),
        metric(
            "npsim.self_ns_per_pkt",
            "ns",
            self_of("npsim.run") / offered.max(1.0),
        ),
        metric("npsim.closure_pct", "%", closure_pct),
        metric("npsim.trace_overhead_pct", "%", overhead_pct),
        metric("npsim.plan_gen_s", "s", exec_mean(|p| p.plan_gen_s)),
        metric("npsim.plan_mib", "MiB", plan_mib),
    ];
    metrics.extend(sim_metrics(&bench));
    metrics.extend([
        metric("laps.schedule_ns", "ns", per_call("laps.schedule")),
        metric(
            "laps.schedule_share_pct",
            "%",
            100.0 * total("laps.schedule") / total("npsim.run").max(1.0),
        ),
        metric("laps.on_drop_ns", "ns", per_call("laps.on_drop")),
        metric("laps.spsc_push_pop_ns", "ns", lt.spsc_push_pop_ns),
        metric("laps.handshake_ns", "ns", lt.handshake_ns),
        metric("npafd.update_ns", "ns", lt.afd_update_ns),
        metric("npafd.afc_hit_pct", "%", lt.afc_hit_pct),
        metric("nphash.crc16_batch_ns", "ns", lt.crc16_batch_ns),
        metric("nphash.lookup_batch_ns", "ns", lt.lookup_batch_ns),
        metric("nphash.classify_s", "s", exec_mean(|p| p.classify_s)),
        metric("nphash.intern_ns", "ns", lt.intern_ns),
        metric("nphash.flow_slots", "count", flow_slots as f64),
        metric(
            "nptrace.generator_new_ms.caida",
            "ms",
            lt.generator_new_ms_caida,
        ),
        metric(
            "nptrace.generator_new_ms.auckland",
            "ms",
            lt.generator_new_ms_auckland,
        ),
        metric("nptrace.next_packet_ns", "ns", lt.next_packet_ns),
        metric("nptraffic.delay_ns", "ns", lt.delay_ns),
        metric("nptraffic.rate_at_ns", "ns", lt.rate_at_ns),
        metric("detsim.push_pop_ns", "ns", lt.push_pop_ns),
        metric("npexec.threads_s", "s", threads_s),
        metric(
            "npexec.threads_pps",
            "pkt/s",
            delivered / threads_s.max(1e-12),
        ),
        metric(
            "npexec.unattributed_s",
            "s",
            exec_mean(|p| p.run_s - p.threads_s - p.plan_gen_s - p.classify_s),
        ),
        metric(
            "npexec.max_hold_depth",
            "count",
            exec_passes
                .iter()
                .map(|p| p.max_hold_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        metric(
            "npexec.handshakes_begun",
            "count",
            exec_mean(|p| p.handshakes_begun as f64),
        ),
        metric("npfarm.cell_s_p50", "s", Summary::of(&cell_walls).median),
        metric(
            "npfarm.cell_s_max",
            "s",
            sorted_walls.last().copied().unwrap_or(0.0),
        ),
        metric(
            "npfarm.pool_efficiency",
            "ratio",
            cell_sum / pool_capacity.max(1e-12),
        ),
        metric(
            "npfarm.setup_share_pct",
            "%",
            100.0 * cell_setup / cell_sum.max(1e-12),
        ),
    ]);

    // The span log, then the human-readable breakdown.
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("spans-{}-seed{}.csv", args.kind.name(), args.seed));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_csv(timer_ns)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!(
        "workload {} seed {} traced: {} untraced and {} traced repetitions, {} spans -> {}",
        args.kind.name(),
        args.seed,
        untraced_walls.len(),
        traced_walls.len(),
        tracer.spans.len(),
        path.display()
    );
    println!("host: {}", HostFingerprint::detect().describe());
    println!(
        "clock read: {timer_ns:.1} ns; per-packet spans sampled 1 in {}",
        trace::SAMPLE_EVERY
    );
    println!(
        "  {:<26} {:>12} {:>12} {:>14}",
        "span", "total ms", "self ms", "calls (est.)"
    );
    for t in &totals {
        println!(
            "  {:<26} {:>12.3} {:>12.3} {:>14.0}",
            t.name,
            t.total_ns * 1e-6,
            t.self_ns * 1e-6,
            t.calls
        );
    }
    println!(
        "  closure {closure_pct:.2} % of the untraced unit time ({:.6} s per unit); tracing overhead {overhead_pct:.2} %",
        untraced_unit
    );
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print_checks(&bench);
    print_result(&bench.ledger, &metrics);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("laps-benchmark: {e}");
            eprintln!(
                "usage: laps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    if let Err(e) = outcome {
        eprintln!("laps-benchmark: {e}");
        std::process::exit(1);
    }
}
