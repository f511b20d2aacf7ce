//! The simulation engine (Fig. 6): packet generator → scheduler → per-core
//! queues → processing → departure.
//!
//! Semantics, matching §IV:
//!
//! * Each core has a bounded input queue (32 descriptors); a packet
//!   dispatched to a full queue is **dropped**.
//! * Processing delay follows Eq. 3: `T_proc` (per service and size) plus
//!   the 0.8 µs flow-migration penalty when the flow's previous packet
//!   used a different core, plus the 10 µs cold-cache penalty when the
//!   core's previous packet belonged to a different service.
//! * Reordering is measured at departure against per-flow arrival
//!   sequence numbers.
//! * Arrivals follow per-source Poisson processes whose rate is refreshed
//!   from the source's rate law every `rate_update_interval`.
//!
//! After the horizon, arrivals stop and the queues drain, so every offered
//! packet is finally either dropped or processed — an invariant the tests
//! assert.
//!
//! # Pipeline architecture
//!
//! The engine is a thin orchestrator over four stages:
//!
//! * **ingest** — traffic sources, arrival-gap draws, the flow interner,
//!   and frame-manager admission (slow-path classifier, packet IDs).
//! * **dispatch** — the scheduling policy, per-flow state (sequence
//!   numbers, last core), and the incrementally maintained
//!   [`QueueInfo`](crate::QueueInfo) view.
//! * **service** — per-core bounded queues, the Eq. 3 delay model,
//!   busy-time accounting.
//! * **record** — the observability-bus terminal: the order tracker, the
//!   optional restoration buffer, the always-on report probe, and any
//!   attached dynamic [`Probe`](crate::Probe)s.
//!
//! Stages communicate through typed [`SimEvent`]s published to the
//! record stage. With no probes attached (`P = ()`) the publishing
//! compiles down to the direct counter updates of the pre-pipeline
//! engine — the zero-probe fast path — and runs produce byte-identical
//! [`SimReport`]s either way (pinned by the golden-report fixture test).

mod batch;
mod dispatch;
mod ingest;
mod pending;
pub(crate) mod plan;
mod record;
mod service;

pub use plan::{ArrivalPlan, ScheduledPacket};

use crate::event::SimEvent;
use crate::fault::{DropPolicy, FaultAction, FaultPlan, FaultStats};
use crate::packet::PacketDesc;
use crate::probe::{ProbeHost, ProbeStack, ReportProbe};
use crate::report::{SimReport, SyncStats};
use crate::restore::RestorationBuffer;
use crate::sched::{RepairOutcome, SchedEvent, Scheduler};
use crate::source::SourceConfig;
use detsim::{EventQueue, SeedSequence, SimTime};

use dispatch::DispatchStage;
use ingest::{Admission, IngestStage};
use pending::{Ev, Pending};
use record::RecordStage;
use service::{EnqueueOutcome, ServiceStage};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of data-plane cores (paper: 16).
    pub n_cores: usize,
    /// Per-core input-queue capacity in descriptors (paper: 32).
    pub queue_capacity: usize,
    /// Simulated horizon; arrivals stop here and queues drain.
    pub duration: SimTime,
    /// Rate/time scale factor `F` (see DESIGN.md). 1.0 = paper-exact.
    pub scale: f64,
    /// Root seed; all internal streams derive from it.
    pub seed: u64,
    /// How often each source re-samples its rate law.
    pub rate_update_interval: SimTime,
    /// Queue depth at which a core counts as "congested" for the
    /// surplus-core eligibility signal (`QueueInfo::last_congested`).
    pub congestion_watermark: usize,
    /// Divide Holt-Winters seasonal periods by this factor so short runs
    /// still see seasonal variation (1.0 = periods as published).
    pub period_compression: f64,
    /// Penalty model; its `scale` field is overridden by `scale` above.
    pub delay: nptraffic::DelayModel,
    /// Enable an egress order-restoration buffer with this timeout (the
    /// §VI alternative to order preservation). `None` = packets depart
    /// the instant processing finishes (the paper's model).
    pub restoration: Option<SimTime>,
    /// Fraction of arriving packets the frame-manager classifier marks
    /// as *control plane* (§II / Fig. 1): they take the slow path through
    /// the general-purpose cores and never reach the data-plane
    /// scheduler. The paper studies data-plane scheduling, so 0 by
    /// default.
    pub control_plane_fraction: f64,
    /// Deterministic fault script (crashes, heals, throttles, stalls,
    /// floods), delivered through the event queue. Empty by default:
    /// the fault machinery stays dormant and runs are byte-identical to
    /// the fault-free engine.
    pub faults: FaultPlan,
    /// What to do with an arrival at a full per-core queue (default:
    /// drop-tail, the paper's model).
    pub drop_policy: DropPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_cores: 16,
            queue_capacity: 32,
            duration: SimTime::from_secs(1),
            scale: 50.0,
            seed: 1,
            rate_update_interval: SimTime::from_millis(100),
            congestion_watermark: 2,
            period_compression: 1.0,
            delay: nptraffic::DelayModel::default(),
            restoration: None,
            control_plane_fraction: 0.0,
            faults: FaultPlan::new(),
            drop_policy: DropPolicy::default(),
        }
    }
}

/// The simulation engine, generic over the scheduling policy `S` and the
/// probe host `P` (default `()`: no probes, the zero-cost fast path).
pub struct Engine<S: Scheduler, P: ProbeHost = ()> {
    cfg: EngineConfig,
    ingest: IngestStage,
    dispatch: DispatchStage<S>,
    service: ServiceStage,
    record: RecordStage<P>,
    /// Reusable drain buffer for the scheduler's [`SchedEvent`] feed
    /// (taken/restored around the drain to avoid aliasing the stages).
    sched_ev_buf: Vec<SchedEvent>,
    /// Whether any fault machinery is configured (non-empty plan or a
    /// non-default drop policy). Guards the per-packet dead-core check
    /// so the fault-free hot path is untouched.
    faults_enabled: bool,
    /// Fault-path counters; folded into the report when
    /// `faults_enabled`.
    fstats: FaultStats,
    /// Whether the SCR sync-cost model runs: the policy opted in
    /// (`Scheduler::sync_policy`) *and* the delay model prices it
    /// (`sync_cost_us > 0`). Guards every replica-set touch, so non-SCR
    /// runs — and SCR runs priced at zero — pay nothing.
    sync_enabled: bool,
    /// Per-stale-replica surcharge in nanoseconds (pre-scaled), cached
    /// from the delay model.
    sync_cost_ns: u64,
    /// The policy's consolidation period (`0` = never).
    sync_every: u32,
    /// SCR accounting; folded into the report when `sync_enabled`.
    sync_stats: SyncStats,
}

impl<S: Scheduler, P: ProbeHost> std::fmt::Debug for Engine<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scheduler", &self.dispatch.name())
            .field("n_cores", &self.service.n_cores())
            .field("n_sources", &self.ingest.n_sources())
            .field("next_packet_id", &self.ingest.next_packet_id())
            .finish_non_exhaustive()
    }
}

impl<S: Scheduler> Engine<S> {
    /// Build an engine over `sources`, scheduled by `scheduler`, with no
    /// probes attached (the zero-probe fast path).
    ///
    /// # Panics
    /// Panics on a zero-core configuration or an empty source list.
    pub fn new(cfg: EngineConfig, sources: &[SourceConfig], scheduler: S) -> Self {
        Engine::with_probes(cfg, sources, scheduler, ())
    }
}

impl<S: Scheduler> Engine<S, ProbeStack> {
    /// Build an engine with a dynamic probe stack attached to the
    /// observability bus. Probes see every published [`SimEvent`] and
    /// are handed back by [`Engine::run_full`].
    pub fn with_probe_stack(
        cfg: EngineConfig,
        sources: &[SourceConfig],
        scheduler: S,
        probes: ProbeStack,
    ) -> Self {
        Engine::with_probes(cfg, sources, scheduler, probes)
    }
}

impl<S: Scheduler, P: ProbeHost> Engine<S, P> {
    /// Build an engine with an arbitrary probe host.
    ///
    /// # Panics
    /// Panics on a zero-core configuration or an empty source list.
    pub fn with_probes(
        cfg: EngineConfig,
        sources: &[SourceConfig],
        mut scheduler: S,
        probes: P,
    ) -> Self {
        assert!(cfg.n_cores > 0, "need at least one core");
        assert!(!sources.is_empty(), "need at least one traffic source");
        assert!(cfg.scale > 0.0, "scale must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.control_plane_fraction),
            "control-plane fraction must be in [0, 1)"
        );
        if let Err(e) = cfg.faults.validate(cfg.n_cores, sources.len()) {
            panic!("invalid fault plan: {e}");
        }
        let seq = SeedSequence::new(cfg.seed);
        let mut delay = cfg.delay;
        delay.scale = cfg.scale;
        let ingest = IngestStage::new(
            &seq,
            sources,
            cfg.period_compression,
            cfg.scale,
            cfg.control_plane_fraction,
        );
        let service = ServiceStage::new(
            cfg.n_cores,
            cfg.queue_capacity,
            delay,
            cfg.congestion_watermark,
            cfg.drop_policy,
        );
        let infos = (0..cfg.n_cores)
            .filter_map(|i| service.snapshot(i))
            .collect();
        let report = ReportProbe::new(scheduler.name(), cfg.duration, cfg.scale);
        let restoration = cfg.restoration.map(RestorationBuffer::new);
        // Policies with a park/wake side channel only buffer events when
        // someone is listening.
        scheduler.set_event_feed(P::ACTIVE);
        let faults_enabled = !cfg.faults.is_empty() || cfg.drop_policy != DropPolicy::DropTail;
        // The SCR sync model engages only when the policy asks for it
        // AND the delay model prices it; priced at zero, an SCR run is
        // byte-identical to the same decisions without the model.
        let sync_policy = scheduler.sync_policy();
        let sync_enabled = sync_policy.is_some() && delay.sync_cost_us > 0.0;
        let sync_cost_ns = SimTime::from_micros_f64(delay.sync_delay_us(1)).as_nanos();
        let sync_every = sync_policy.map_or(0, |p| p.sync_every);
        let mut dispatch = DispatchStage::new(scheduler, infos);
        if sync_enabled {
            dispatch.enable_sync();
        }
        Engine {
            ingest,
            dispatch,
            service,
            record: RecordStage::new(report, restoration, probes),
            sched_ev_buf: Vec::new(),
            faults_enabled,
            fstats: FaultStats::default(),
            sync_enabled,
            sync_cost_ns,
            sync_every,
            sync_stats: SyncStats::default(),
            cfg,
        }
    }

    /// Republish the scheduler's buffered park/wake transitions on the
    /// bus. Only reached when probes are attached.
    fn drain_sched_events(&mut self, now: SimTime) {
        let mut buf = std::mem::take(&mut self.sched_ev_buf);
        self.dispatch.drain_events_into(&mut buf);
        for ev in buf.drain(..) {
            let sim_ev = match ev {
                SchedEvent::CoreParked { core } => SimEvent::CoreParked { core },
                SchedEvent::CoreUnparked { core } => SimEvent::CoreUnparked { core },
            };
            self.record.publish(now, &sim_ev);
        }
        self.sched_ev_buf = buf;
    }

    /// Resync core `i`'s scheduler-view entry after mutating it. Every
    /// event touches exactly one core, so this keeps the view coherent at
    /// one entry write per event instead of an `n_cores` rebuild.
    #[inline]
    fn sync_info(&mut self, i: usize) {
        if let Some(info) = self.service.snapshot(i) {
            self.dispatch.set_info(i, info);
        }
    }

    /// SCR sync charge, half one of two: stamp the stale-replica
    /// service-time surcharge on `pkt` for a dispatch to `target`.
    /// Read-only on the replica set — a packet the queue then
    /// drop-tails never ran on the core, so it must not dirty the
    /// flow's replica state or show up in the sync totals; those happen
    /// in [`Engine::commit_sync`] once the packet is accepted. Only
    /// called when `sync_enabled`.
    #[inline]
    fn stamp_sync(&mut self, pkt: &mut PacketDesc, target: usize) {
        let stale = self.dispatch.sync_stale(pkt.slot, target);
        if stale > 0 {
            let debt = self.sync_cost_ns.saturating_mul(u64::from(stale));
            pkt.sync_debt_ns = u32::try_from(debt).unwrap_or(u32::MAX);
        }
    }

    /// SCR sync charge, half two: the packet made it into a queue —
    /// record the replica touch (and any consolidation) and account the
    /// surcharge stamped by [`Engine::stamp_sync`].
    #[inline]
    fn commit_sync(&mut self, slot: nphash::FlowSlot, target: usize, debt_ns: u32) {
        let (_, consolidated) = self.dispatch.sync_touch(slot, target, self.sync_every);
        if debt_ns > 0 {
            self.sync_stats.sync_packets += 1;
            self.sync_stats.sync_extra_ns += u64::from(debt_ns);
        }
        if consolidated {
            self.sync_stats.consolidations += 1;
        }
    }

    /// Pull the next queued packet into service on `core`, publishing
    /// `ServiceStart` and arming the finish timer.
    fn start_processing<Q: Pending>(&mut self, core: usize, now: SimTime, q: &mut Q) {
        if let Some(started) = self.service.start_processing(core, now) {
            let generation = self.service.generation(core);
            q.park_finish(core, now + started.duration, generation);
            if Q::PREFETCH {
                // The departure will read the order tracker's line for
                // this flow one service time from now; start the fill.
                self.record.prefetch_departure(started.slot);
            }
            self.record.publish(
                now,
                &SimEvent::ServiceStart {
                    core,
                    service: started.service,
                    cold: started.cold,
                    migrated: started.migrated,
                    duration: started.duration,
                },
            );
        }
    }

    /// Park the next arrival from `src` if it lands in the horizon, and
    /// prefetch its flow-table line when the pending set knows its flow.
    fn next_arrival<Q: Pending>(&mut self, src: usize, now: SimTime, q: &mut Q) {
        if let Some(slot) = q.park_arrival(&mut self.ingest, src, now, self.cfg.duration) {
            self.dispatch.prefetch_flow(slot);
        }
    }

    fn on_arrival<Q: Pending>(&mut self, src: usize, now: SimTime, q: &mut Q) {
        let header = match q.admit(&mut self.ingest, src) {
            Admission::Missing => return,
            Admission::SlowPath { service } => {
                self.record
                    .publish(now, &SimEvent::DivertedSlowPath { service });
                self.next_arrival(src, now, q);
                return;
            }
            Admission::FastPath(h) => h,
        };
        self.dispatch.grow_flows(self.ingest.flow_count());
        let flow_seq = self.dispatch.next_seq(header.slot);
        let mut pkt = PacketDesc {
            id: header.id,
            flow: header.flow,
            slot: header.slot,
            service: header.service,
            size: header.size,
            arrival: now,
            flow_seq,
            migrated: false,
            sync_debt_ns: 0,
        };
        self.record.publish(
            now,
            &SimEvent::PacketArrived {
                id: pkt.id,
                slot: pkt.slot,
                service: pkt.service,
                size: pkt.size,
            },
        );

        // Ask the policy for a target core, then republish any park/wake
        // transitions the decision triggered.
        let mut target = self.dispatch.choose_core(&pkt, now, self.cfg.n_cores);
        if P::ACTIVE {
            self.drain_sched_events(now);
        }

        // Degradation path: a policy that did not (or could not) repair
        // after a crash may still pick the dead core; redirect the
        // arrival to the least-backlogged live core, or drop it when
        // none is left. Guarded by `faults_enabled` so the fault-free
        // hot path pays nothing.
        if self.faults_enabled && !self.service.is_up(target) {
            match self.service.shortest_up_queue() {
                Some(alt) => {
                    self.fstats.redirects += 1;
                    target = alt;
                }
                None => {
                    self.fstats.fault_drops += 1;
                    self.record.publish(
                        now,
                        &SimEvent::Dropped {
                            id: pkt.id,
                            slot: pkt.slot,
                            service: pkt.service,
                            core: target,
                        },
                    );
                    self.record.note_drop_gap(pkt.slot, pkt.flow_seq, now);
                    self.sync_info(target);
                    self.next_arrival(src, now, q);
                    return;
                }
            }
        }

        // SCR sync model: charge for every other core holding the
        // flow's state since its last consolidation. Guarded like the
        // fault path, so non-SCR runs pay nothing here. The replica
        // touch itself commits below, only if the queue accepts.
        if self.sync_enabled {
            self.stamp_sync(&mut pkt, target);
        }

        let prev_core = self.dispatch.last_core(pkt.slot);
        let migrated = matches!(prev_core, Some(c) if c != target);
        pkt.migrated = migrated;
        let outcome = self.service.enqueue(target, pkt, now);
        if let EnqueueOutcome::HeadDropped { evicted, .. } = outcome {
            // Drop-head: the eviction is accounted before the arrival's
            // own dispatch events, preserving causal order on the bus.
            self.fstats.head_drops += 1;
            self.record.publish(
                now,
                &SimEvent::Dropped {
                    id: evicted.id,
                    slot: evicted.slot,
                    service: evicted.service,
                    core: target,
                },
            );
            self.dispatch.on_drop(&evicted, target);
            self.record
                .note_drop_gap(evicted.slot, evicted.flow_seq, now);
        }
        match outcome {
            EnqueueOutcome::Dropped => {
                self.record.publish(
                    now,
                    &SimEvent::Dropped {
                        id: pkt.id,
                        slot: pkt.slot,
                        service: pkt.service,
                        core: target,
                    },
                );
                self.dispatch.on_drop(&pkt, target);
                self.record.note_drop_gap(pkt.slot, pkt.flow_seq, now);
            }
            EnqueueOutcome::Enqueued(len)
            | EnqueueOutcome::HeadDropped { len, .. }
            | EnqueueOutcome::Staged(len) => {
                if let EnqueueOutcome::Staged(_) = outcome {
                    self.fstats.backpressured += 1;
                }
                if self.sync_enabled {
                    self.commit_sync(pkt.slot, target, pkt.sync_debt_ns);
                }
                if P::ACTIVE {
                    self.record.publish(
                        now,
                        &SimEvent::Dispatched {
                            id: pkt.id,
                            slot: pkt.slot,
                            service: pkt.service,
                            core: target,
                            queue_len: len,
                            migrated,
                        },
                    );
                }
                if migrated {
                    if let Some(from) = prev_core {
                        self.record.publish(
                            now,
                            &SimEvent::Migration {
                                slot: pkt.slot,
                                from,
                                to: target,
                            },
                        );
                    }
                }
                self.dispatch.set_last_core(pkt.slot, target);
                self.start_processing(target, now, q);
            }
        }
        // The only core this arrival touched; bring its view entry up to
        // date for the next schedule() call.
        self.sync_info(target);

        // Schedule the next arrival from this source, if still within the
        // horizon.
        self.next_arrival(src, now, q);
    }

    fn on_finish<Q: Pending>(&mut self, core: usize, generation: u32, now: SimTime, q: &mut Q) {
        // A crash between arming and firing bumps the core's finish
        // generation: the packet this event was armed for has already
        // been accounted as a fault drop, so the stale event is simply
        // discarded.
        if self.faults_enabled && generation != self.service.generation(core) {
            return;
        }
        // A finish event always carries the packet placed by
        // start_processing; a missing one means the event queue and core
        // state disagree — flag it in debug, skip it in release.
        let Some(pkt) = self.service.take_current(core) else {
            debug_assert!(
                false,
                "finish event without packet in service on core {core}"
            );
            return;
        };
        if P::ACTIVE {
            self.record.publish(
                now,
                &SimEvent::ServiceEnd {
                    core,
                    service: pkt.service,
                },
            );
        }
        self.record.departure(pkt, now);
        self.start_processing(core, now, q);
        self.sync_info(core);
    }

    /// Apply the fault-plan entry at `idx` (scalar loop only).
    fn on_fault(&mut self, idx: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let Some(&(_, action)) = self.cfg.faults.get(idx) else {
            debug_assert!(false, "fault event for unknown plan entry {idx}");
            return;
        };
        self.fstats.injected += 1;
        match action {
            FaultAction::Crash { core } => {
                if !self.service.is_up(core) {
                    return; // already down: nothing to kill
                }
                let lost = self.service.crash(core, now);
                self.fstats.crashes += 1;
                for pkt in lost {
                    // Crash losses are real drops for conservation and
                    // reorder-gap purposes, but not congestion feedback
                    // (`on_drop`): the queue was not full, the core died.
                    self.fstats.fault_drops += 1;
                    self.record.publish(
                        now,
                        &SimEvent::Dropped {
                            id: pkt.id,
                            slot: pkt.slot,
                            service: pkt.service,
                            core,
                        },
                    );
                    self.record.note_drop_gap(pkt.slot, pkt.flow_seq, now);
                }
                self.record.publish(now, &SimEvent::CoreCrashed { core });
                match self.dispatch.on_core_down(core) {
                    RepairOutcome::Repaired => self.fstats.repairs += 1,
                    RepairOutcome::Unrepaired => self.fstats.unrepaired += 1,
                }
                self.sync_info(core);
            }
            FaultAction::Heal { core } => {
                if !self.service.heal(core, now) {
                    return; // already up: nothing to revive
                }
                self.fstats.heals += 1;
                self.record.publish(now, &SimEvent::CoreHealed { core });
                match self.dispatch.on_core_up(core) {
                    RepairOutcome::Repaired => self.fstats.repairs += 1,
                    RepairOutcome::Unrepaired => self.fstats.unrepaired += 1,
                }
                self.start_processing(core, now, q);
                self.sync_info(core);
            }
            FaultAction::Throttle { core, factor } => {
                self.service.set_speed(core, factor);
            }
            FaultAction::Stall { core, duration } => {
                if self.service.is_up(core) {
                    self.service.stall(core, now + duration);
                    q.push(now + duration, Ev::StallEnd(core));
                }
            }
            FaultAction::Flood { source, factor } => {
                self.ingest.set_flood(source, factor);
            }
            FaultAction::FloodEnd { source } => {
                self.ingest.set_flood(source, 1.0);
            }
        }
    }

    /// A transient stall ended: resume service on `core`, unless an
    /// overlapping stall holds it longer.
    fn on_stall_end(&mut self, core: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.service.resume(core, now) {
            self.start_processing(core, now, q);
            self.sync_info(core);
        }
    }

    fn on_rate_update<Q: Pending>(&mut self, now: SimTime, q: &mut Q) {
        self.ingest.refresh_rates(now);
        if P::ACTIVE {
            self.record.publish(now, &SimEvent::EpochTick);
        }
        let next = now + self.cfg.rate_update_interval;
        if next <= self.cfg.duration {
            q.park_rate_update(next);
        }
    }

    /// Runtime invariant checks, compiled in with `--features invariants`
    /// (debug builds of the `invariants` feature; zero cost otherwise).
    ///
    /// Checked at every event dispatch:
    /// 1. **Packet conservation** — every offered packet is either
    ///    processed, dropped, queued, in service, or waiting in the
    ///    restoration buffer: `offered == processed + dropped + in_flight`.
    /// 2. **Monotone virtual time** — the event clock never runs
    ///    backwards.
    #[cfg(feature = "invariants")]
    fn check_invariants(&self, now: SimTime, previous: SimTime) {
        assert!(
            now >= previous,
            "virtual time ran backwards: {previous:?} -> {now:?}"
        );
        let queued = self.service.queued_total();
        let in_service = self.service.in_service_total();
        let buffered = self.record.restoration_occupancy();
        let report = self.record.report_ref();
        let accounted = report.processed + report.dropped + queued + in_service + buffered;
        assert_eq!(
            report.offered, accounted,
            "packet conservation violated at t={now:?}: offered {} != processed {} + dropped {} \
             + queued {queued} + in-service {in_service} + restoration-buffered {buffered}",
            report.offered, report.processed, report.dropped
        );
        // 3. **View coherence** — the incrementally maintained scheduler
        //    view matches a from-scratch rebuild of the core state.
        for (i, info) in self.dispatch.infos().iter().enumerate() {
            let fresh = self.service.snapshot(i);
            assert!(
                fresh.is_some_and(|f| {
                    info.len == f.len
                        && info.capacity == f.capacity
                        && info.busy == f.busy
                        && info.idle_since == f.idle_since
                        && info.last_congested == f.last_congested
                        && info.up == f.up
                }),
                "scheduler view out of sync with core {i} at t={now:?}"
            );
        }
    }

    /// Run to completion (horizon + drain) and return the report.
    pub fn run(self) -> SimReport {
        self.run_full().0
    }

    /// Like [`Engine::run`], but also hands back the scheduler so callers
    /// can read policy-internal statistics (e.g. LAPS park/wake counts).
    pub fn run_returning_scheduler(self) -> (SimReport, S) {
        let (report, scheduler, _probes) = self.run_full();
        (report, scheduler)
    }

    /// Run to completion under the scalar reference loop, whatever the
    /// configuration, and return the report.
    ///
    /// [`Engine::run`] picks the batched loop whenever no fault machinery
    /// is configured; both loops produce byte-identical reports (pinned
    /// by the workspace `batch_equivalence` test, which compares this
    /// method against [`Engine::run`]). See DESIGN.md "Batched execution".
    pub fn run_reference(mut self) -> SimReport {
        let last_t = self.run_scalar();
        self.finish(last_t).0
    }

    /// Run to completion and hand back the report, the scheduler, and
    /// the probe host (with everything the probes accumulated).
    pub fn run_full(mut self) -> (SimReport, S, P) {
        let last_t = if self.batch_eligible() {
            self.run_batched()
        } else {
            self.run_scalar()
        };
        self.finish(last_t)
    }

    /// The scalar run loop: one heap pop per event. The reference
    /// implementation, and the only loop supporting fault plans.
    /// Returns the time of the last event.
    fn run_scalar(&mut self) -> SimTime {
        let mut events: EventQueue<Ev> = EventQueue::with_capacity(1024);
        // Prime arrivals and the rate-update ticker.
        for (i, gap) in self.ingest.prime_gaps() {
            if gap <= self.cfg.duration {
                events.push(gap, Ev::Arrival(i));
            }
        }
        if self.cfg.rate_update_interval <= self.cfg.duration {
            events.park_rate_update(self.cfg.rate_update_interval);
        }
        // Prime the fault plan: one event per entry, in plan order, so
        // same-instant entries fire in insertion order (the queue breaks
        // time ties by insertion sequence). Entries beyond the horizon
        // still fire — a heal may legitimately land during the drain.
        for i in 0..self.cfg.faults.len() {
            if let Some(&(at, _)) = self.cfg.faults.get(i) {
                events.push(at, Ev::Fault(i));
            }
        }

        let mut last_t = SimTime::ZERO;
        while let Some((t, ev)) = events.pop() {
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
            last_t = t;
            self.record.note_loop_event();
            match ev {
                Ev::Arrival(src) => self.on_arrival(src, t, &mut events),
                Ev::Finish(core, generation) => self.on_finish(core, generation, t, &mut events),
                Ev::RateUpdate => self.on_rate_update(t, &mut events),
                Ev::Fault(idx) => self.on_fault(idx, t, &mut events),
                Ev::StallEnd(core) => self.on_stall_end(core, t, &mut events),
            }
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
        }
        last_t
    }

    /// The epilogue shared by both loops: drain, account, finalize.
    fn finish(mut self, last_t: SimTime) -> (SimReport, S, P) {
        self.record.set_end_time(last_t.max(self.cfg.duration));

        // Anything still waiting in the restoration buffer departs at the
        // final instant.
        self.record.drain_restoration(self.cfg.duration);
        let reallocs = self.dispatch.core_reallocations();
        let busy = self.service.busy_ns();
        let faults = self
            .faults_enabled
            .then(|| std::mem::take(&mut self.fstats));
        let (mut report, probes) = self.record.finalize(reallocs, busy, faults);
        if self.sync_enabled {
            report.sync = Some(std::mem::take(&mut self.sync_stats));
        }
        (report, self.dispatch.into_scheduler(), probes)
    }

    /// Borrow the scheduler (e.g. to inspect detector state post-run in
    /// tests that drive the engine manually).
    pub fn scheduler(&self) -> &S {
        self.dispatch.scheduler_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{EventLogProbe, MetricsProbe, UtilizationProbe};
    use crate::sched::{JoinShortestQueue, RoundRobin, SystemView};
    use crate::source::RateSpec;
    use nptrace::TracePreset;
    use nptraffic::ServiceKind;

    fn one_source(rate_mpps: f64) -> Vec<SourceConfig> {
        vec![SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Auckland(1),
            rate: RateSpec::Constant(rate_mpps),
        }]
    }

    fn quick_cfg(n_cores: usize, duration_ms: u64) -> EngineConfig {
        EngineConfig {
            n_cores,
            duration: SimTime::from_millis(duration_ms),
            scale: 1.0,
            seed: 42,
            ..EngineConfig::default()
        }
    }

    /// A test policy pinning each flow to `crc16 % n` — ideal flow
    /// locality, no migration ever.
    struct PinByHash;
    impl Scheduler for PinByHash {
        fn name(&self) -> &str {
            "pin-by-hash"
        }
        fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
            (nphash::crc16_ccitt(&pkt.flow.to_bytes()) as usize) % view.n_cores()
        }
    }

    /// A pathological policy that bounces every packet of every flow
    /// between cores 0 and 1.
    struct PingPong(usize);
    impl Scheduler for PingPong {
        fn name(&self) -> &str {
            "ping-pong"
        }
        fn schedule(&mut self, _p: &PacketDesc, _v: &SystemView<'_>) -> usize {
            self.0 ^= 1;
            self.0
        }
    }

    #[test]
    fn conservation_after_drain() {
        // Overloaded single core: 1 Mpps offered into 2 Mpps... IP fwd
        // takes 0.5µs ⇒ capacity exactly 2 Mpps; offer 4 Mpps to force
        // drops.
        let report =
            Engine::new(quick_cfg(1, 20), &one_source(4.0), JoinShortestQueue::new()).run();
        assert!(report.offered > 0);
        assert!(report.dropped > 0, "overload must drop");
        assert_eq!(
            report.offered,
            report.accounted(),
            "drain accounts for every packet"
        );
    }

    #[test]
    fn underload_single_core_no_drops() {
        let report =
            Engine::new(quick_cfg(1, 20), &one_source(1.0), JoinShortestQueue::new()).run();
        assert_eq!(report.dropped, 0, "0.5 load should not drop");
        assert_eq!(report.offered, report.processed);
    }

    #[test]
    fn flow_pinning_preserves_order() {
        let report = Engine::new(quick_cfg(4, 50), &one_source(6.0), PinByHash).run();
        assert!(report.processed > 1_000);
        assert_eq!(report.out_of_order, 0, "pinned flows can never reorder");
        assert_eq!(report.migration_events, 0);
        assert_eq!(report.migrated_packets, 0);
    }

    #[test]
    fn ping_pong_migrates_and_reorders() {
        let report = Engine::new(quick_cfg(2, 50), &one_source(3.0), PingPong(0)).run();
        assert!(report.migration_events > 0);
        assert!(report.migrated_packets > 0);
        assert!(
            report.out_of_order > 0,
            "alternating cores must reorder some flows (ooo={})",
            report.out_of_order
        );
    }

    #[test]
    fn cold_cache_counted_on_service_switches() {
        // Two services sharing one core via JSQ: every alternation pays.
        let sources = vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: RateSpec::Constant(0.02),
            },
            SourceConfig {
                service: ServiceKind::MalwareScan,
                trace: TracePreset::Auckland(2),
                rate: RateSpec::Constant(0.02),
            },
        ];
        let report = Engine::new(quick_cfg(1, 100), &sources, JoinShortestQueue::new()).run();
        assert!(report.processed > 100);
        assert!(
            report.cold_fraction() > 0.2,
            "alternating services on one core should run cold often (got {})",
            report.cold_fraction()
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let r = Engine::new(quick_cfg(4, 30), &one_source(5.0), JoinShortestQueue::new()).run();
            (
                r.offered,
                r.dropped,
                r.processed,
                r.out_of_order,
                r.migration_events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeds_change_the_run() {
        let mut cfg = quick_cfg(4, 30);
        let a = Engine::new(cfg.clone(), &one_source(5.0), JoinShortestQueue::new()).run();
        cfg.seed = 43;
        let b = Engine::new(cfg, &one_source(5.0), JoinShortestQueue::new()).run();
        assert_ne!(a.offered, b.offered);
    }

    #[test]
    fn round_robin_on_idle_cores_keeps_order_by_luck_of_uniform_service() {
        // RR over 2 cores at trivial load: each packet finishes before the
        // next arrives, so even RR cannot reorder.
        let report = Engine::new(quick_cfg(2, 20), &one_source(0.01), RoundRobin::new()).run();
        assert_eq!(report.out_of_order, 0);
        assert!(report.migration_events > 0, "RR still migrates flows");
    }

    #[test]
    fn offered_scales_with_rate_and_duration() {
        let r1 = Engine::new(quick_cfg(4, 20), &one_source(1.0), JoinShortestQueue::new()).run();
        let r2 = Engine::new(quick_cfg(4, 40), &one_source(1.0), JoinShortestQueue::new()).run();
        // 1 Mpps for 20 ms ≈ 20k packets.
        assert!(
            (r1.offered as f64 - 20_000.0).abs() < 2_000.0,
            "offered {}",
            r1.offered
        );
        let ratio = r2.offered as f64 / r1.offered as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn scale_preserves_offered_load_shape() {
        // Same experiment at scale 1 and scale 10: offered count drops by
        // 10x but drop *fraction* stays in the same band.
        let mk = |scale: f64| EngineConfig {
            n_cores: 2,
            duration: SimTime::from_millis(200),
            scale,
            seed: 7,
            ..EngineConfig::default()
        };
        let a = Engine::new(mk(1.0), &one_source(6.0), JoinShortestQueue::new()).run();
        let b = Engine::new(mk(10.0), &one_source(6.0), JoinShortestQueue::new()).run();
        let cnt_ratio = a.offered as f64 / b.offered as f64;
        assert!((cnt_ratio - 10.0).abs() < 2.0, "count ratio {cnt_ratio}");
        assert!(
            (a.drop_fraction() - b.drop_fraction()).abs() < 0.1,
            "drop fractions diverged: {} vs {}",
            a.drop_fraction(),
            b.drop_fraction()
        );
    }

    #[test]
    fn restoration_eliminates_reordering() {
        // The ping-pong policy reorders heavily; with an egress
        // restoration buffer the stream leaves in order, at the cost of
        // buffer occupancy and wait time.
        let mut cfg = quick_cfg(2, 10);
        cfg.restoration = Some(SimTime::from_millis(5));
        let with = Engine::new(cfg, &one_source(3.0), PingPong(0)).run();
        let without = Engine::new(quick_cfg(2, 10), &one_source(3.0), PingPong(0)).run();
        assert!(without.out_of_order > 0);
        assert_eq!(with.out_of_order, 0, "restoration must re-sequence");
        let stats = with.restoration.expect("stats recorded");
        assert!(stats.buffered > 0, "some packets must have waited");
        assert!(stats.peak_occupancy > 0);
        assert_eq!(
            with.offered,
            with.dropped + with.processed,
            "conservation holds"
        );
    }

    #[test]
    fn restoration_with_drops_does_not_deadlock() {
        // Overload a single core so drops punch holes in the sequence
        // space; the gap notifications keep the buffer draining.
        let mut cfg = quick_cfg(2, 8);
        cfg.restoration = Some(SimTime::from_millis(2));
        let r = Engine::new(cfg, &one_source(6.0), PingPong(0)).run();
        assert!(r.dropped > 0);
        assert_eq!(r.offered, r.dropped + r.processed);
        assert!(r.restoration.is_some());
    }

    #[test]
    fn control_plane_classifier_diverts_expected_fraction() {
        let mut cfg = quick_cfg(2, 40);
        cfg.control_plane_fraction = 0.1;
        let r = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
        let total = r.offered + r.slow_path;
        let frac = r.slow_path as f64 / total as f64;
        assert!((frac - 0.1).abs() < 0.02, "slow-path fraction {frac}");
        // Data-plane accounting is unaffected.
        assert_eq!(r.offered, r.dropped + r.processed);
        // Default config diverts nothing.
        let r0 = Engine::new(quick_cfg(2, 40), &one_source(1.0), JoinShortestQueue::new()).run();
        assert_eq!(r0.slow_path, 0);
    }

    #[test]
    fn busy_time_tracks_load() {
        // Flow pinning: no migration penalties, so busy time is exactly
        // offered work: 2 Mpps x 0.5 µs = 1 core-equivalent over 4 cores.
        let r = Engine::new(quick_cfg(4, 20), &one_source(2.0), PinByHash).run();
        assert_eq!(r.core_busy_ns.len(), 4);
        let u = r.mean_utilization();
        assert!((u - 0.25).abs() < 0.05, "mean utilization {u}");
        assert_eq!(r.active_cores(0.02), 4, "hash spreads flows over all cores");
        assert_eq!(r.active_cores(2.0), 0);
    }

    #[test]
    fn per_service_breakdown_sums_to_totals() {
        let sources = vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: RateSpec::Constant(2.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Auckland(2),
                rate: RateSpec::Constant(0.5),
            },
        ];
        let r = Engine::new(quick_cfg(4, 30), &sources, JoinShortestQueue::new()).run();
        let off: u64 = r.per_service.iter().map(|s| s.offered).sum();
        let drop: u64 = r.per_service.iter().map(|s| s.dropped).sum();
        let proc: u64 = r.per_service.iter().map(|s| s.processed).sum();
        assert_eq!(off, r.offered);
        assert_eq!(drop, r.dropped);
        assert_eq!(proc, r.processed);
    }

    #[test]
    fn probes_do_not_change_the_report() {
        // The bus contract: attaching any probe set leaves the report
        // byte-identical to the zero-probe run.
        let bare = Engine::new(quick_cfg(2, 30), &one_source(3.0), PingPong(0)).run();
        let probes: ProbeStack = vec![
            Box::new(MetricsProbe::new()),
            Box::new(UtilizationProbe::new(SimTime::from_millis(1))),
            Box::new(EventLogProbe::new()),
        ];
        let (probed, _sched, _probes) =
            Engine::with_probe_stack(quick_cfg(2, 30), &one_source(3.0), PingPong(0), probes)
                .run_full();
        let a = serde_json::to_string(&bare).expect("bare report serializes");
        let b = serde_json::to_string(&probed).expect("probed report serializes");
        assert_eq!(a, b, "probes must be invisible to the report");
    }

    #[test]
    fn metrics_probe_agrees_with_report() {
        let probes: ProbeStack = vec![Box::new(MetricsProbe::new())];
        let (report, _sched, probes) =
            Engine::with_probe_stack(quick_cfg(2, 30), &one_source(4.0), PingPong(0), probes)
                .run_full();
        let metrics = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe comes back");
        let counters = metrics.counters();
        let by_name = |n: &str| {
            counters
                .iter()
                .find(|(name, _)| *name == n)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(by_name("arrivals"), report.offered);
        assert_eq!(by_name("drops"), report.dropped);
        assert_eq!(by_name("departures"), report.processed);
        assert_eq!(by_name("migrations"), report.migration_events);
        assert_eq!(by_name("cold_starts"), report.cold_starts);
        assert_eq!(by_name("reorders"), report.out_of_order);
        assert_eq!(
            by_name("dispatched") + by_name("drops"),
            report.offered,
            "every offered packet is dispatched or dropped"
        );
    }

    #[test]
    fn crash_conserves_packets_and_counts_losses() {
        // Two cores at 0.75 load, one dies mid-run: its in-flight and
        // queued packets become fault drops, the survivor overloads, and
        // the drain still accounts for every offered packet.
        let mut cfg = quick_cfg(2, 20);
        cfg.faults = FaultPlan::new().crash(SimTime::from_millis(5), 0);
        let r = Engine::new(cfg, &one_source(3.0), JoinShortestQueue::new()).run();
        assert_eq!(r.offered, r.accounted(), "conservation across a crash");
        let f = r.faults.as_ref().expect("fault machinery was active");
        assert_eq!(f.crashes, 1);
        assert_eq!(f.injected, 1);
        assert!(f.fault_drops > 0, "the dead core held packets");
        assert!(r.dropped >= f.fault_drops);
    }

    #[test]
    fn heal_restores_capacity() {
        let crash_at = SimTime::from_millis(4);
        let heal_at = SimTime::from_millis(8);
        let mut down = quick_cfg(2, 30);
        down.faults = FaultPlan::new().crash(crash_at, 0);
        let mut healed = quick_cfg(2, 30);
        healed.faults = FaultPlan::new().crash(crash_at, 0).heal(heal_at, 0);
        let a = Engine::new(down, &one_source(3.0), JoinShortestQueue::new()).run();
        let b = Engine::new(healed, &one_source(3.0), JoinShortestQueue::new()).run();
        let fb = b.faults.as_ref().expect("stats present");
        assert_eq!(fb.heals, 1);
        assert_eq!(a.offered, a.accounted());
        assert_eq!(b.offered, b.accounted());
        assert!(
            b.processed > a.processed,
            "a healed core must recover throughput ({} vs {})",
            b.processed,
            a.processed
        );
        assert!(b.dropped < a.dropped);
    }

    #[test]
    fn unrepaired_policy_degrades_via_redirects() {
        // PinByHash has no repair hook: after the crash it keeps hashing
        // onto the dead core and the engine redirects those arrivals.
        let mut cfg = quick_cfg(4, 20);
        cfg.faults = FaultPlan::new().crash(SimTime::from_millis(5), 1);
        let r = Engine::new(cfg, &one_source(2.0), PinByHash).run();
        let f = r.faults.as_ref().expect("stats present");
        assert_eq!(f.unrepaired, 1, "PinByHash honestly cannot repair");
        assert_eq!(f.repairs, 0);
        assert!(f.redirects > 0, "hashed-to-dead arrivals get redirected");
        assert_eq!(r.offered, r.accounted());
    }

    #[test]
    fn last_core_crash_drops_all_subsequent_arrivals() {
        let mut cfg = quick_cfg(1, 10);
        cfg.faults = FaultPlan::new().crash(SimTime::from_millis(2), 0);
        let r = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
        let f = r.faults.as_ref().expect("stats present");
        assert!(f.fault_drops > 0);
        assert_eq!(f.redirects, 0, "nowhere to redirect to");
        assert_eq!(r.offered, r.accounted());
        // Roughly 2 of 10 ms of service happened; the rest was dropped.
        assert!(r.dropped > r.processed);
    }

    #[test]
    fn throttle_degrades_and_restores_throughput() {
        // 1.5 Mpps into one 2 Mpps core: clean at full speed; a 4x
        // throttle cuts capacity to 0.5 Mpps and forces drops.
        let base = Engine::new(quick_cfg(1, 20), &one_source(1.5), JoinShortestQueue::new()).run();
        assert_eq!(base.dropped, 0);
        let mut cfg = quick_cfg(1, 20);
        cfg.faults = FaultPlan::new()
            .throttle(SimTime::from_millis(2), 0, 4.0)
            .throttle(SimTime::from_millis(12), 0, 1.0);
        let r = Engine::new(cfg, &one_source(1.5), JoinShortestQueue::new()).run();
        assert!(r.dropped > 0, "a throttled core must fall behind");
        assert_eq!(r.offered, r.accounted());
        assert_eq!(r.faults.as_ref().map(|f| f.injected), Some(2));
    }

    #[test]
    fn transient_stall_backs_up_the_queue() {
        let mut cfg = quick_cfg(1, 10);
        cfg.faults = FaultPlan::new().stall(SimTime::from_millis(2), 0, SimTime::from_millis(5));
        let r = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
        assert!(r.dropped > 0, "5 ms of arrivals into a 32-slot queue");
        assert_eq!(r.offered, r.accounted());
        let base = Engine::new(quick_cfg(1, 10), &one_source(1.0), JoinShortestQueue::new()).run();
        assert_eq!(base.dropped, 0, "same load without the stall is clean");
    }

    #[test]
    fn overlapping_stalls_hold_until_the_latest_end() {
        // [2, 7) and [3, 13) on one core stall it over [2, 13): the
        // first stall's end must not resume the core early.
        let ms = SimTime::from_millis;
        let run = |faults: FaultPlan| {
            let mut cfg = quick_cfg(1, 20);
            cfg.faults = faults;
            Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run()
        };
        let overlapping = run(FaultPlan::new()
            .stall(ms(2), 0, ms(5))
            .stall(ms(3), 0, ms(10)));
        let single = run(FaultPlan::new().stall(ms(2), 0, ms(11)));
        assert!(single.dropped > 0);
        assert_eq!(overlapping.dropped, single.dropped);
        assert_eq!(overlapping.offered, overlapping.accounted());
    }

    #[test]
    fn flood_raises_offered_load() {
        let base = Engine::new(quick_cfg(2, 10), &one_source(1.0), JoinShortestQueue::new()).run();
        let mut cfg = quick_cfg(2, 10);
        cfg.faults =
            FaultPlan::new().flood(SimTime::from_millis(2), SimTime::from_millis(8), 0, 3.0);
        let r = Engine::new(cfg, &one_source(1.0), JoinShortestQueue::new()).run();
        assert!(
            r.offered as f64 > base.offered as f64 * 1.5,
            "3x flood over 6 of 10 ms should raise offered load well above \
             baseline ({} vs {})",
            r.offered,
            base.offered
        );
        assert_eq!(r.offered, r.accounted());
    }

    #[test]
    fn drop_head_evicts_oldest_instead_of_arrival() {
        let mut cfg = quick_cfg(1, 20);
        cfg.drop_policy = DropPolicy::DropHead;
        let r = Engine::new(cfg, &one_source(4.0), JoinShortestQueue::new()).run();
        let f = r.faults.as_ref().expect("non-default policy records stats");
        assert!(f.head_drops > 0);
        assert_eq!(
            f.head_drops, r.dropped,
            "under drop-head every drop is an eviction"
        );
        assert_eq!(r.offered, r.accounted());
    }

    #[test]
    fn backpressure_stages_overflow_and_still_conserves() {
        let mut bp_cfg = quick_cfg(1, 20);
        bp_cfg.drop_policy = DropPolicy::Backpressure;
        let tail = Engine::new(quick_cfg(1, 20), &one_source(4.0), JoinShortestQueue::new()).run();
        let r = Engine::new(bp_cfg, &one_source(4.0), JoinShortestQueue::new()).run();
        let f = r.faults.as_ref().expect("stats present");
        assert!(f.backpressured > 0, "overflow packets must stage");
        assert!(r.dropped > 0, "staging is bounded too");
        assert!(
            r.dropped < tail.dropped,
            "staging absorbs part of the burst ({} vs {})",
            r.dropped,
            tail.dropped
        );
        assert_eq!(r.offered, r.accounted());
    }

    #[test]
    fn fault_free_report_omits_fault_stats() {
        let r = Engine::new(quick_cfg(2, 10), &one_source(1.0), JoinShortestQueue::new()).run();
        assert!(r.faults.is_none(), "no plan, default policy: dormant");
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(
            !json.contains("\"faults\""),
            "fault-free reports keep the pre-fault wire format"
        );
    }

    #[test]
    fn fault_runs_replay_deterministically() {
        let run = || {
            let mut cfg = quick_cfg(4, 20);
            cfg.faults = FaultPlan::new()
                .crash(SimTime::from_millis(3), 2)
                .heal(SimTime::from_millis(9), 2)
                .throttle(SimTime::from_millis(5), 0, 2.0)
                .stall(SimTime::from_millis(7), 1, SimTime::from_millis(1));
            let r = Engine::new(cfg, &one_source(4.0), JoinShortestQueue::new()).run();
            serde_json::to_string(&r).expect("serializes")
        };
        assert_eq!(run(), run(), "same plan + seed → byte-identical report");
    }

    #[test]
    fn fault_probe_sees_crash_heal_and_recovery() {
        let mut cfg = quick_cfg(2, 20);
        cfg.faults = FaultPlan::new()
            .crash(SimTime::from_millis(4), 0)
            .heal(SimTime::from_millis(8), 0);
        let probes: ProbeStack = vec![
            Box::new(crate::fault::FaultProbe::new()),
            Box::new(MetricsProbe::new()),
        ];
        let (report, _sched, probes) =
            Engine::with_probe_stack(cfg, &one_source(3.0), JoinShortestQueue::new(), probes)
                .run_full();
        let fp = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<crate::fault::FaultProbe>())
            .expect("fault probe comes back");
        assert_eq!(fp.recoveries().len(), 1);
        let rec = fp.recoveries()[0];
        assert_eq!(rec.core, 0);
        assert_eq!(rec.downtime(), Some(SimTime::from_millis(4)));
        let recovery = rec.recovery_time().expect("core served again after heal");
        assert!(recovery >= SimTime::from_millis(4));
        let metrics = probes
            .get(1)
            .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
            .expect("metrics probe comes back");
        let by_name = |n: &str| {
            metrics
                .counters()
                .iter()
                .find(|(name, _)| *name == n)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(by_name("core_crashes"), 1);
        assert_eq!(by_name("core_heals"), 1);
        assert_eq!(report.faults.as_ref().map(|f| f.crashes), Some(1));
    }

    #[test]
    fn utilization_probe_matches_busy_time() {
        let probes: ProbeStack = vec![Box::new(UtilizationProbe::new(SimTime::from_millis(1)))];
        let (report, _sched, probes) =
            Engine::with_probe_stack(quick_cfg(4, 20), &one_source(2.0), PinByHash, probes)
                .run_full();
        let util = probes
            .first()
            .and_then(|p| p.as_any().downcast_ref::<UtilizationProbe>())
            .expect("utilization probe comes back");
        let bucket_ns = util.bucket_width().as_nanos() as f64;
        for (core, &busy) in report.core_busy_ns.iter().enumerate() {
            let probe_busy: f64 = util
                .timeline(core)
                .iter()
                .map(|frac| frac * bucket_ns)
                .sum();
            assert!(
                (probe_busy - busy as f64).abs() < 1.0,
                "core {core}: probe {probe_busy} vs report {busy}"
            );
        }
    }
}
