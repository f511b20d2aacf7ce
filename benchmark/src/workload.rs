//! The four workloads, their inputs and one repetition of each.
//!
//! A repetition is the unit every end-to-end number is measured over:
//! one engine run for `fwd-caida1` and `laps-t5`, one
//! `ThreadedBackend::run` for `exec-caida1`, and one pass of the Fig. 7
//! grid through npfarm for `sweep-fig7`.

use crate::stats::digest;
use crate::trace::{Sampled, SimProbe, Span};
use laps::prelude::*;
use laps_experiments::Fidelity;
use npexec::{ExecStats, NpexecConfig, ThreadedBackend};
use npfarm::{Farm, KeyFields, Sweep};
use npsim::{ExecBackend, ProbeStack};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fwd,
    Exec,
    Laps,
    Sweep,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Fwd, Kind::Exec, Kind::Laps, Kind::Sweep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fwd => "fwd-caida1",
            Kind::Exec => "exec-caida1",
            Kind::Laps => "laps-t5",
            Kind::Sweep => "sweep-fig7",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Simulated horizon of the forwarding workloads: 2.4M packets at 24 Mpps.
const FWD_MS: u64 = 100;
/// Simulated horizon of the T5 workload (about 0.9M packets).
const LAPS_MS: u64 = 200;
/// Seeds per pass of the Fig. 7 grid (24 cells each).
pub const SWEEP_SEEDS: u64 = 2;
/// Threads of the sweep's npfarm pool, and of every farm run here.
pub const POOL_THREADS: usize = 2;
/// Worker threads of the npexec backend (its dispatcher runs on the
/// calling thread, so the workload uses two threads).
const EXEC_WORKERS: usize = 1;

/// The scheduling policy of a cell.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    Fcfs,
    Laps,
    /// A builtin registry policy, boxed exactly as `SimBuilder::run_named`
    /// boxes it.
    Named(&'static str),
}

/// One simulation: configuration, traffic and policy.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub cfg: EngineConfig,
    pub sources: Vec<SourceConfig>,
    pub policy: Policy,
}

/// `fwd-caida1` (and the traffic of `exec-caida1`): one IpForward source
/// on the caida1 preset at a constant 24 Mpps, 16 cores, scale 1, FCFS.
pub fn fwd_cell(seed: u64) -> Cell {
    Cell {
        label: format!("fwd-caida1/seed{seed}"),
        cfg: EngineConfig {
            n_cores: 16,
            duration: SimTime::from_millis(FWD_MS),
            scale: 1.0,
            seed,
            ..EngineConfig::default()
        },
        sources: vec![SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Caida(1),
            rate: RateSpec::Constant(24.0),
        }],
        policy: Policy::Fcfs,
    }
}

/// `laps-t5`: Table VI scenario T5 (Set 2 overload, group G1, four
/// services, Holt-Winters rates) at scale 1 under LAPS with its AFD.
/// Seasonal periods are divided by 1000 so the longest (200 s) turns
/// over once in the 200 ms horizon; rates are re-sampled every 1 ms.
pub fn laps_cell(seed: u64) -> Cell {
    let scenario = Scenario::by_id(5).expect("Table VI defines T5");
    Cell {
        label: format!("laps-t5/seed{seed}"),
        cfg: EngineConfig {
            n_cores: 16,
            duration: SimTime::from_millis(LAPS_MS),
            scale: 1.0,
            period_compression: 1000.0,
            rate_update_interval: SimTime::from_millis(1),
            seed,
            ..EngineConfig::default()
        },
        sources: scenario_sources(scenario),
        policy: Policy::Laps,
    }
}

/// `sweep-fig7`: the 24-cell Fig. 7 grid (T1–T8 × fcfs/afs/laps) at the
/// quick profile, for `SWEEP_SEEDS` consecutive seeds from `seed`.
pub fn sweep_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for s in seed..seed + SWEEP_SEEDS {
        for scenario in Scenario::all() {
            for name in ["fcfs", "afs", "laps"] {
                cells.push(Cell {
                    label: format!("{}/{name}/seed{s}", scenario.name()),
                    cfg: Fidelity::Quick.engine_config(s),
                    sources: scenario_sources(scenario),
                    policy: Policy::Named(name),
                });
            }
        }
    }
    cells
}

/// The cells a workload simulates. `exec-caida1` executes the
/// forwarding cell on threads; its detsim twin is the output check.
pub fn cells_of(kind: Kind, seed: u64) -> Vec<Cell> {
    match kind {
        Kind::Fwd | Kind::Exec => vec![fwd_cell(seed)],
        Kind::Laps => vec![laps_cell(seed)],
        Kind::Sweep => sweep_cells(seed),
    }
}

/// One engine run: its set-up and run times, and its report.
#[derive(Debug)]
pub struct CellRun {
    pub setup_s: f64,
    pub run_s: f64,
    pub report: SimReport,
}

/// Build the scheduler, then the engine (set-up), then run it.
fn engine_run<S: Scheduler>(cell: &Cell, scheduler: impl FnOnce() -> S) -> CellRun {
    let t0 = Instant::now();
    let engine = Engine::new(cell.cfg.clone(), &cell.sources, scheduler());
    let t1 = Instant::now();
    let report = engine.run();
    let t2 = Instant::now();
    CellRun {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        report,
    }
}

/// The same run with spans around `Engine::new` and `Engine::run` and
/// the scheduler behind the sampling wrapper.
fn engine_run_traced<S: Scheduler>(
    cell: &Cell,
    epoch: Instant,
    scheduler: impl FnOnce() -> S,
) -> (CellRun, Vec<Span>) {
    let stamp = || epoch.elapsed().as_nanos() as u64;
    let t0 = stamp();
    let engine = Engine::new(
        cell.cfg.clone(),
        &cell.sources,
        Sampled::new(scheduler(), epoch),
    );
    let t1 = stamp();
    let (report, sampled) = engine.run_returning_scheduler();
    let t2 = stamp();
    let mut spans = vec![
        Span {
            name: "npsim.engine_new",
            parent: None,
            start_ns: t0,
            end_ns: t1,
            weight: 1,
        },
        Span {
            name: "npsim.run",
            parent: None,
            start_ns: t1,
            end_ns: t2,
            weight: 1,
        },
    ];
    spans.extend(sampled.spans.iter().map(|s| Span {
        parent: Some(1),
        ..*s
    }));
    let run = CellRun {
        setup_s: (t1 - t0) as f64 * 1e-9,
        run_s: (t2 - t1) as f64 * 1e-9,
        report,
    };
    (run, spans)
}

fn probed_run<S: Scheduler>(cell: &Cell, scheduler: S) -> (SimReport, SimProbe) {
    let probes: ProbeStack = vec![Box::new(SimProbe::new())];
    let (report, _s, probes) =
        Engine::with_probe_stack(cell.cfg.clone(), &cell.sources, scheduler, probes).run_full();
    let mut out = SimProbe::new();
    if let Some(p) = probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<SimProbe>())
    {
        out.merge(p);
    }
    (report, out)
}

/// Builds policies by name; one per process.
#[derive(Debug)]
pub struct Policies {
    registry: SchedulerRegistry,
}

impl Policies {
    pub fn new() -> Policies {
        Policies {
            registry: SchedulerRegistry::builtin(),
        }
    }

    fn named(&self, name: &str, cfg: &EngineConfig) -> Box<dyn Scheduler> {
        self.registry
            .build(name, cfg)
            .unwrap_or_else(|| panic!("{name} is a builtin policy"))
    }

    /// Run a cell untraced.
    pub fn run(&self, cell: &Cell) -> CellRun {
        match cell.policy {
            Policy::Fcfs => engine_run(cell, Fcfs::new),
            Policy::Laps => engine_run(cell, || Laps::new(laps_config_for(&cell.cfg))),
            Policy::Named(n) => engine_run(cell, || self.named(n, &cell.cfg)),
        }
    }

    /// Run a cell with spans (their parents index the returned vector).
    pub fn run_traced(&self, cell: &Cell, epoch: Instant) -> (CellRun, Vec<Span>) {
        match cell.policy {
            Policy::Fcfs => engine_run_traced(cell, epoch, Fcfs::new),
            Policy::Laps => {
                engine_run_traced(cell, epoch, || Laps::new(laps_config_for(&cell.cfg)))
            }
            Policy::Named(n) => engine_run_traced(cell, epoch, || self.named(n, &cell.cfg)),
        }
    }

    /// Run a cell with the simulated-latency probe on the bus.
    pub fn run_probed(&self, cell: &Cell) -> (SimReport, SimProbe) {
        match cell.policy {
            Policy::Fcfs => probed_run(cell, Fcfs::new()),
            Policy::Laps => probed_run(cell, Laps::new(laps_config_for(&cell.cfg))),
            Policy::Named(n) => probed_run(cell, self.named(n, &cell.cfg)),
        }
    }
}

/// Cells run through npfarm: a measurement sweep (never cached), whose
/// per-cell set-up times and spans come back through `side`.
struct FarmCells<'a> {
    cells: &'a [Cell],
    policies: &'a Policies,
    trace_epoch: Option<Instant>,
    side: Mutex<Vec<(f64, Vec<Span>)>>,
}

impl Sweep for FarmCells<'_> {
    type Cell = usize;
    type Out = SimReport;

    fn name(&self) -> &'static str {
        "benchmark"
    }

    fn cells(&self) -> Vec<usize> {
        (0..self.cells.len()).collect()
    }

    fn cell_fields(&self, &i: &usize) -> KeyFields {
        KeyFields::new().push("cell", &self.cells[i].label)
    }

    fn run_cell(&self, &i: &usize) -> SimReport {
        let cell = &self.cells[i];
        let (run, trace) = match self.trace_epoch {
            Some(epoch) => {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                let (run, inner) = self.policies.run_traced(cell, epoch);
                let root = Span {
                    name: "npfarm.cell",
                    parent: None,
                    start_ns,
                    end_ns: epoch.elapsed().as_nanos() as u64,
                    weight: 1,
                };
                let mut spans = vec![root];
                spans.extend(inner.iter().map(|s| Span {
                    parent: Some(s.parent.map_or(0, |p| p + 1)),
                    ..*s
                }));
                (run, spans)
            }
            None => (self.policies.run(cell), Vec::new()),
        };
        self.side
            .lock()
            .expect("no cell panics while holding the lock")[i] = (run.setup_s, trace);
        run.report
    }

    fn cacheable(&self) -> bool {
        false
    }
}

/// One farm pass over `cells`.
#[derive(Debug)]
pub struct FarmRun {
    pub wall_s: f64,
    pub cells: Vec<FarmCell>,
}

/// One cell of a farm pass, as npfarm timed it.
#[derive(Debug)]
pub struct FarmCell {
    pub report: SimReport,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Spans of a traced pass; parents index this vector.
    pub trace: Vec<Span>,
}

/// Run `cells` on npfarm's pool (`POOL_THREADS`, cache off), optionally
/// with spans.
pub fn farm_run(policies: &Policies, cells: &[Cell], trace_epoch: Option<Instant>) -> FarmRun {
    let mut farm = Farm::new(PathBuf::from("unused-cache")).with_jobs(POOL_THREADS);
    farm.no_cache = true;
    farm.quiet = true;
    let spec = FarmCells {
        cells,
        policies,
        trace_epoch,
        side: Mutex::new((0..cells.len()).map(|_| (0.0, Vec::new())).collect()),
    };
    let t0 = Instant::now();
    let outcome = farm.sweep(&spec);
    let wall_s = t0.elapsed().as_secs_f64();
    let side = spec
        .side
        .into_inner()
        .expect("no cell panics while holding the lock");
    let cells = outcome
        .cells
        .into_iter()
        .zip(side)
        .map(|(c, (setup_s, trace))| FarmCell {
            report: c.result.expect("measurement sweeps run every cell"),
            setup_s,
            wall_s: c.wall_ms / 1e3,
            trace,
        })
        .collect();
    FarmRun { wall_s, cells }
}

/// The npexec configuration of `exec-caida1`.
pub fn exec_config() -> NpexecConfig {
    NpexecConfig {
        workers: EXEC_WORKERS,
        ..NpexecConfig::default()
    }
}

/// `ThreadedBackend::new` calls timed together for one set-up sample:
/// a single call takes nanoseconds, below what one pair of clock reads
/// resolves.
const EXEC_SETUP_BATCH: u32 = 1000;

/// One `exec-caida1` repetition. Set-up is `ThreadedBackend::new`, the
/// mean over a batch of `EXEC_SETUP_BATCH` calls; `run_s` times the
/// whole `ThreadedBackend::run`, which builds the arrival plan,
/// classifies it and runs the threads.
#[derive(Debug)]
pub struct ExecRun {
    pub setup_s: f64,
    pub run_s: f64,
    pub report: SimReport,
    pub stats: ExecStats,
}

pub fn exec_run(cell: &Cell) -> ExecRun {
    let t0 = Instant::now();
    for _ in 0..EXEC_SETUP_BATCH {
        black_box(ThreadedBackend::new(black_box(exec_config())));
    }
    let setup_s = t0.elapsed().as_secs_f64() / f64::from(EXEC_SETUP_BATCH);
    let mut backend = ThreadedBackend::new(exec_config());
    let t1 = Instant::now();
    let (report, _probes) =
        backend.run(&cell.cfg, &cell.sources, Box::new(Fcfs::new()), Vec::new());
    let t2 = Instant::now();
    let stats = backend
        .last_stats()
        .cloned()
        .expect("a finished run leaves its stats");
    ExecRun {
        setup_s,
        run_s: (t2 - t1).as_secs_f64(),
        report,
        stats,
    }
}

/// Output checks on one report; returns the failures found.
pub fn check_report(label: &str, report: &SimReport, expect_digest: Option<u64>) -> Vec<String> {
    let mut bad = Vec::new();
    if report.offered != report.processed + report.dropped {
        bad.push(format!(
            "{label}: offered {} != processed {} + dropped {}",
            report.offered, report.processed, report.dropped
        ));
    }
    if let Some(d) = expect_digest {
        let got = digest(report);
        if got != d {
            bad.push(format!(
                "{label}: report digest {got:016x} differs from the reference {d:016x}"
            ));
        }
    }
    bad
}

/// The npexec checks under the default backpressure policy: nothing
/// dropped, nothing reordered, and the same offered stream as detsim.
pub fn check_exec(label: &str, report: &SimReport, detsim_offered: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if report.processed != report.offered || report.dropped != 0 {
        bad.push(format!(
            "{label}: npexec processed {} of {} offered ({} dropped) under backpressure",
            report.processed, report.offered, report.dropped
        ));
    }
    if report.out_of_order != 0 {
        bad.push(format!(
            "{label}: npexec delivered {} packets out of order",
            report.out_of_order
        ));
    }
    if report.offered != detsim_offered {
        bad.push(format!(
            "{label}: npexec offered {} but detsim offered {detsim_offered}",
            report.offered
        ));
    }
    bad
}
