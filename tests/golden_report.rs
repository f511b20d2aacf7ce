//! Golden-report equivalence: two `SimReport`s captured from the
//! pre-refactor monolithic engine (`lapsim --json` output, verbatim)
//! must keep reproducing byte-for-byte. This is the refactor's safety
//! net — the staged pipeline, the probe bus, and the scheduler registry
//! all sit on the path these fixtures exercise, and none of them may
//! move a single byte of the report.
//!
//! Two more fixtures pin the paths the two run loops share handler code
//! on, so a handler regression cannot hide behind scalar ≡ batched: a
//! fault-plan run (scalar loop: crash, heal, throttle, stall, flood,
//! drop-head) and a batched SCR run with priced sync, an egress
//! restoration buffer, and a control-plane slow path. Both were captured
//! as `render(&report)` of the builders below before the handlers were
//! merged; regenerate them the same way, and only after an intentional
//! semantic change.
//!
//! To regenerate after an *intentional* semantic change (and only then):
//!
//! ```sh
//! cargo run --release -p laps-experiments --bin lapsim -- \
//!     --scenario T1 --scheduler laps --seed 42 --json \
//!     > tests/fixtures/golden_t1_laps.json
//! cargo run --release -p laps-experiments --bin lapsim -- \
//!     --scheduler fcfs --seed 7 --json \
//!     > tests/fixtures/golden_caida1_fcfs.json
//! ```

use laps_repro::prelude::*;

/// The `lapsim` default engine configuration the fixtures were captured
/// under (16 cores, queue 32, 200 ms at scale 100, compressed seasons).
fn lapsim_builder(seed: u64) -> SimBuilder {
    SimBuilder::new()
        .cores(16)
        .duration(SimTime::from_millis(200))
        .scale(100.0)
        .seed(seed)
        .configure(|cfg| {
            cfg.queue_capacity = 32;
            cfg.period_compression = 50.0;
            cfg.rate_update_interval = SimTime::from_millis(10);
        })
}

/// Pretty JSON plus the trailing newline `lapsim --json` prints.
fn render(report: &SimReport) -> String {
    let mut s = serde_json::to_string_pretty(report).expect("report serializes");
    s.push('\n');
    s
}

#[test]
fn t1_laps_report_matches_pre_refactor_fixture() {
    let report = lapsim_builder(42)
        .scenario(Scenario::by_id(1).expect("T1 exists"))
        .run_named("laps")
        .expect("builtin policy");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_t1_laps.json"),
        "T1/laps report drifted from the pre-refactor engine"
    );
}

#[test]
fn caida1_fcfs_report_matches_pre_refactor_fixture() {
    let report = lapsim_builder(7)
        .constant_source(ServiceKind::IpForward, TracePreset::Caida(1), 8.0)
        .run_named("fcfs")
        .expect("builtin policy");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_caida1_fcfs.json"),
        "caida1/fcfs report drifted from the pre-refactor engine"
    );
}

#[test]
fn probes_leave_the_golden_report_untouched() {
    // The full probe stack rides along and the report still matches the
    // fixture byte-for-byte: observation must never perturb the run.
    let (report, probes) = lapsim_builder(42)
        .scenario(Scenario::by_id(1).expect("T1 exists"))
        .probe(MetricsProbe::new())
        .probe(UtilizationProbe::new(SimTime::from_millis(10)))
        .probe(EventLogProbe::new())
        .run_named_full("laps")
        .expect("builtin policy");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_t1_laps.json"),
        "attaching probes changed the report"
    );
    let metrics = probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
        .expect("metrics probe");
    let migrations = metrics
        .counters()
        .iter()
        .find(|(n, _)| *n == "migrations")
        .map(|(_, v)| *v);
    assert_eq!(migrations, Some(report.migration_events));
}

/// T1 under LAPS with a fault plan touching every action kind, under
/// drop-head. Fault plans run on the scalar loop. The single stall sits
/// on a core that never crashes.
fn faulted_t1_laps() -> SimBuilder {
    let ms = SimTime::from_millis;
    lapsim_builder(11)
        .scenario(Scenario::by_id(1).expect("T1 exists"))
        .faults(
            FaultPlan::new()
                .throttle(ms(20), 5, 3.0)
                .flood(ms(30), ms(70), 0, 2.0)
                .crash(ms(40), 0)
                .stall(ms(60), 7, ms(15))
                .heal(ms(90), 0)
                .throttle(ms(120), 5, 1.0),
        )
        .drop_policy(DropPolicy::DropHead)
}

/// T3 under `scr-sync4` on the batched loop, with the SCR sync model
/// priced, an egress restoration buffer, and a 5 % control-plane slow
/// path.
fn scr_sync4_restored_t3() -> SimBuilder {
    lapsim_builder(5)
        .scenario(Scenario::by_id(3).expect("T3 exists"))
        .configure(|cfg| {
            cfg.delay.sync_cost_us = 0.5;
            cfg.restoration = Some(SimTime::from_millis(1));
            cfg.control_plane_fraction = 0.05;
        })
}

#[test]
fn fault_plan_report_matches_fixture() {
    let report = faulted_t1_laps().run_named("laps").expect("builtin policy");
    assert!(report.faults.is_some(), "the fault machinery ran");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_t1_laps_faults.json"),
        "faulted T1/laps report drifted"
    );
}

#[test]
fn scr_sync_restoration_report_matches_fixture() {
    let report = scr_sync4_restored_t3()
        .run_named("scr-sync4")
        .expect("builtin policy");
    assert!(report.sync.is_some(), "the SCR sync model ran");
    assert!(report.restoration.is_some(), "the restoration buffer ran");
    assert!(report.slow_path > 0, "the classifier diverted packets");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_t3_scr_sync4.json"),
        "T3/scr-sync4 report drifted"
    );
}
