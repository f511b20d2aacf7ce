//! The batched burst-of-32 run loop is an *execution* optimization, not
//! a semantic one: for every scheduling policy and any source mix, its
//! report must be byte-for-byte the scalar loop's report. Both loops
//! call the same event handlers; they differ in how the next event is
//! found (heap pop vs. three-way merge) and in when arrival gaps and
//! headers are drawn (at fire time vs. a lookahead ring). The batched
//! loop allocates the heap's insertion sequence at exactly the scalar
//! push points, so the `(time, seq)` total order — and with it every
//! reorder count, migration, drop, and latency stat — is identical.
//! This is the contract that lets `ExecutionMode::Batched` be the
//! default.

use laps_repro::npsim::ExecutionMode;
use laps_repro::prelude::*;
use proptest::prelude::*;

/// Every builtin policy, registry order. The SCR family rides with a
/// non-zero `sync_cost_us` (set in [`run`]), so the byte-identity grid
/// covers the sync-surcharge path too — replica bookkeeping and debt
/// stamping must happen at the same point in both loops.
const POLICIES: [&str; 13] = [
    "round-robin",
    "fcfs",
    "static",
    "afs",
    "adaptive",
    "topk-afd",
    "topk-oracle",
    "laps",
    "laps-park",
    "scr-rr",
    "scr-p2c",
    "scr-sync4",
    "scr-sync16",
];

#[allow(clippy::too_many_arguments)] // flat scenario knobs; a config struct would just restate them
fn run(
    policy: &str,
    execution: ExecutionMode,
    preset: u8,
    seed: u64,
    duration_ms: u64,
    scale: f64,
    n_sources: usize,
) -> String {
    let sources: Vec<SourceConfig> = (0..n_sources)
        .map(|i| SourceConfig {
            service: ServiceKind::ALL[i % ServiceKind::ALL.len()],
            trace: TracePreset::Caida(1 + ((preset as usize + i) % 6) as u8),
            rate: RateSpec::Constant(8.0 / n_sources as f64),
        })
        .collect();
    let report = SimBuilder::new()
        .cores(8)
        .duration(SimTime::from_millis(duration_ms))
        .scale(scale)
        .seed(seed)
        .configure(|cfg| {
            cfg.execution = execution;
            // Price the SCR sync model so the scr-* policies exercise it;
            // dormant for every policy without a sync_policy().
            cfg.delay.sync_cost_us = 0.5;
        })
        .sources(sources)
        .run_named(policy)
        .expect("builtin policy");
    serde_json::to_string(&report).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random policy, preset, seed, horizon, scale, and source fan-in:
    /// the batched report is byte-identical to scalar.
    #[test]
    fn batched_report_is_byte_identical_to_scalar(
        policy_i in 0usize..POLICIES.len(),
        preset in 1u8..7,
        seed in 0u64..1_000,
        duration_ms in 1u64..6,
        scale_i in 1u32..41,
        n_sources in 1usize..4,
    ) {
        let policy = POLICIES[policy_i];
        let scale = scale_i as f64;
        let scalar = run(policy, ExecutionMode::Scalar, preset, seed, duration_ms, scale, n_sources);
        let batched = run(policy, ExecutionMode::Batched, preset, seed, duration_ms, scale, n_sources);
        prop_assert_eq!(scalar, batched, "policy={}", policy);
    }
}

/// Every builtin policy pinned explicitly at the default burst (the
/// proptest above samples; this leaves no policy uncovered).
#[test]
fn every_policy_matches_at_default_burst() {
    for policy in POLICIES {
        let scalar = run(policy, ExecutionMode::Scalar, 2, 7, 3, 10.0, 2);
        let batched = run(policy, ExecutionMode::Batched, 2, 7, 3, 10.0, 2);
        assert_eq!(scalar, batched, "policy={policy}");
    }
}

/// Source exhaustion: a horizon short enough that every source's stream
/// ends mid-burst forces partial refills and drained-buffer handling
/// (the final refill draws the horizon-crossing gap exactly as the
/// scalar loop does, then never touches the source again).
#[test]
fn partial_bursts_at_source_exhaustion() {
    for n_sources in [1usize, 3] {
        // ~8 packets/ms shared across sources over 1 ms: a handful of
        // arrivals per source, nowhere near a full burst of 32.
        let scalar = run("fcfs", ExecutionMode::Scalar, 1, 99, 1, 40.0, n_sources);
        let batched = run("fcfs", ExecutionMode::Batched, 1, 99, 1, 40.0, n_sources);
        assert_eq!(scalar, batched, "n_sources={n_sources}");
    }
}
