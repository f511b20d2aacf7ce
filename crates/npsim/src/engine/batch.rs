//! The batched run loop: burst-of-32 execution with byte-identical
//! semantics.
//!
//! The scalar loop pays a binary-heap push+pop round trip per event and
//! draws each arrival's RNG exactly when it fires. The batched loop
//! restructures *execution only*:
//!
//! * **Arrival lookahead** — each source pre-draws up to a burst of
//!   arrivals (gap + header) into an [`ArrivalBuf`](super::ingest);
//!   shared-state work (interning, classification, packet IDs) stays at
//!   processing time.
//! * **Heap-free merge** — the pending-event set is tiny and structured:
//!   at most one finish per core, one head arrival per source, one rate
//!   update. A linear scan for the minimum `(time, seq)` replaces the
//!   heap entirely — one event-queue op per *burst refill* instead of a
//!   push+pop per event.
//! * **Seq emulation** — the scalar engine's tie-break is the heap's
//!   insertion sequence. The batched loop allocates from its own counter
//!   at exactly the scalar push points (prime order, finish-before-next-
//!   arrival inside an arrival, rate reschedule), so the `(time, seq)`
//!   total order — and therefore every report byte — is identical.
//!
//! # Why lookahead is legal
//!
//! A source's gap draws and its rate-refresh noise draws share one
//! private RNG stream, so a gap may be drawn early **iff** the scalar
//! engine would also draw it before the next refresh. The refill loop
//! enforces `cursor < barrier` (barrier = next pending rate-update
//! time, strict, ties deferred); the first draw of a refill is exempt
//! because refills only happen at the exact simulation point where the
//! scalar engine performs that same draw. Header draws come from the
//! trace generator's separate stream and are unconditionally safe to
//! pre-draw. Everything order-sensitive across sources — interner,
//! classifier RNG, packet IDs, scheduler state — runs at processing
//! time, in merged event order.
//!
//! The event handlers themselves are shared with the scalar loop (see
//! [`Pending`]); this module supplies only the merge and the batched
//! pending set. Fault plans and non-drop-tail policies fall back to the
//! scalar loop (checked by [`Engine::batch_eligible`]); the
//! `batch_equivalence` workspace test pins byte-identical reports across
//! both loops for every registered policy.

use super::ingest::{Admission, IngestStage};
use super::pending::Pending;
use super::{Engine, ExecutionMode};
use crate::probe::ProbeHost;
use crate::sched::Scheduler;
use detsim::SimTime;
use nphash::FlowSlot;

/// The batched loop's pending-event set: the explicit, bounded
/// replacement for the scalar loop's heap.
///
/// The merge keeps **incremental minima** over the two slot families so
/// the steady-state winner pick is three comparisons, not an
/// `n_cores + n_sources` sweep: arming a finish (or re-heading a
/// source) only compares against the cached minimum, and a full family
/// rescan happens only when the cached minimum itself is consumed.
#[derive(Debug)]
pub(super) struct BatchState {
    /// Per-core pending finish as one `(completion time, emulated seq)`
    /// key, time in the high 64 bits (`u128::MAX` = none), so the rescan
    /// is a branch-light min over plain integers.
    finish: Vec<u128>,
    /// Cached minimum over `finish`: `(time, seq, core)`.
    finish_min: Option<(SimTime, u64, u32)>,
    /// Cached minimum over the per-source head arrivals:
    /// `(time, seq, src)`.
    arrival_min: Option<(SimTime, u64, u32)>,
    /// The single pending rate update, if any.
    rate: Option<(SimTime, u64)>,
    /// Emulated heap insertion counter (the scalar tie-break).
    next_seq: u64,
}

impl BatchState {
    fn new(n_cores: usize) -> Self {
        BatchState {
            finish: vec![u128::MAX; n_cores],
            finish_min: None,
            arrival_min: None,
            rate: None,
            next_seq: 0,
        }
    }

    /// Allocate the next emulated heap sequence number. Call sites must
    /// correspond 1:1, in order, with scalar-loop heap pushes.
    #[inline]
    fn alloc(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Time of the next pending rate update (`MAX` when none): the
    /// arrival-lookahead barrier.
    #[inline]
    fn barrier(&self) -> SimTime {
        self.rate.map_or(SimTime::MAX, |(t, _)| t)
    }

    /// Arm core `core`'s finish slot and fold it into the cached min.
    #[inline]
    fn arm_finish(&mut self, core: usize, at: SimTime, seq: u64) {
        if let Some(slot) = self.finish.get_mut(core) {
            debug_assert!(*slot == u128::MAX, "core {core} double-armed");
            *slot = (u128::from(at.as_nanos()) << 64) | u128::from(seq);
        }
        if self
            .finish_min
            .is_none_or(|(bt, bs, _)| (at, seq) < (bt, bs))
        {
            self.finish_min = Some((at, seq, core as u32));
        }
    }

    /// Consume the fired finish (always the cached minimum) and rescan
    /// the family for the new minimum.
    #[inline]
    fn consume_finish(&mut self, core: usize) {
        if let Some(slot) = self.finish.get_mut(core) {
            *slot = u128::MAX;
        }
        let mut best = (u128::MAX, 0);
        for (c, &key) in self.finish.iter().enumerate() {
            if key < best.0 {
                best = (key, c);
            }
        }
        self.finish_min = (best.0 != u128::MAX).then(|| {
            let t = SimTime::from_nanos((best.0 >> 64) as u64);
            (t, best.0 as u64, best.1 as u32)
        });
    }
}

/// The batched pending set: arrivals come from the ingest stage's
/// lookahead rings (refilled at exactly the scalar draw points), finishes
/// and the rate tick land in their slots with an emulated seq.
impl Pending for BatchState {
    const PREFETCH: bool = true;

    fn admit(&mut self, ingest: &mut IngestStage, src: usize) -> Admission {
        match ingest.batch_pop(src) {
            Some(rec) => ingest.admit_record(src, rec),
            None => {
                debug_assert!(false, "arrival winner without a buffered record");
                Admission::Missing
            }
        }
    }

    /// Refill `src`'s lookahead if drained (this IS the scalar gap-draw
    /// position), stamp the new head's seq, and hand back its flow slot
    /// for the flow-table prefetch.
    fn park_arrival(
        &mut self,
        ingest: &mut IngestStage,
        src: usize,
        _now: SimTime,
        horizon: SimTime,
    ) -> Option<FlowSlot> {
        if ingest.batch_needs_refill(src) {
            ingest.batch_refill(src, self.barrier(), horizon);
        }
        if !ingest.batch_has_head(src) {
            return None;
        }
        let seq = self.alloc();
        ingest.batch_set_head_seq(src, seq);
        let flow = ingest.batch_peek_flow(src, 0)?;
        ingest.cached_slot(src, flow)
    }

    fn park_finish(&mut self, core: usize, at: SimTime, _generation: u32) {
        let seq = self.alloc();
        self.arm_finish(core, at, seq);
    }

    fn park_rate_update(&mut self, at: SimTime) {
        let seq = self.alloc();
        self.rate = Some((at, seq));
    }
}

/// The merge scan's winner.
#[derive(Debug, Clone, Copy)]
enum Win {
    Arrival(usize),
    Finish(usize),
    Rate,
}

impl<S: Scheduler, P: ProbeHost> Engine<S, P> {
    /// Whether this configuration runs under the batched loop. Fault
    /// machinery (crash generations, stalls, floods, head-drop/staging)
    /// keeps the scalar loop.
    pub(super) fn batch_eligible(&self) -> bool {
        self.cfg.execution == ExecutionMode::Batched && !self.faults_enabled
    }

    /// The batched run loop. Returns the time of the last dispatched
    /// event (the scalar loop's `last_t`), for the shared epilogue.
    pub(super) fn run_batched(&mut self) -> SimTime {
        debug_assert!(self.batch_eligible());
        self.ingest.batch_init();
        let n_sources = self.ingest.n_sources();
        let horizon = self.cfg.duration;
        let mut st = BatchState::new(self.cfg.n_cores);

        // Prime, mirroring the scalar loop's seq allocation order: every
        // source's first gap (source order, seq only for arrivals inside
        // the horizon), then the rate-update ticker. The prime barrier is
        // the first rate update — none is pending yet, but the first
        // refresh the scalar engine performs is at `rate_update_interval`.
        let barrier0 = if self.cfg.rate_update_interval <= horizon {
            self.cfg.rate_update_interval
        } else {
            SimTime::MAX
        };
        for src in 0..n_sources {
            self.ingest.batch_refill(src, barrier0, horizon);
        }
        for src in 0..n_sources {
            if self.ingest.batch_has_head(src) {
                let seq = st.alloc();
                self.ingest.batch_set_head_seq(src, seq);
            }
        }
        if self.cfg.rate_update_interval <= horizon {
            st.park_rate_update(self.cfg.rate_update_interval);
        }
        self.rescan_arrivals(&mut st);

        let mut last_t = SimTime::ZERO;
        loop {
            // Winner pick: minimum (time, seq) across the rate slot and
            // the two cached family minima — the exact total order the
            // scalar heap would pop in, in three comparisons.
            let mut best: Option<(SimTime, u64, Win)> = st.rate.map(|(t, s)| (t, s, Win::Rate));
            if let Some((t, s, core)) = st.finish_min {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, Win::Finish(core as usize)));
                }
            }
            if let Some((t, s, src)) = st.arrival_min {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, Win::Arrival(src as usize)));
                }
            }
            let Some((t, _seq, win)) = best else {
                break;
            };
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
            last_t = t;
            self.record.note_loop_event();
            match win {
                Win::Arrival(src) => {
                    self.on_arrival(src, t, &mut st);
                    // The fired head was the arrival minimum; re-derive
                    // it from the (possibly refilled) heads.
                    self.rescan_arrivals(&mut st);
                }
                Win::Finish(core) => {
                    st.consume_finish(core);
                    let generation = self.service.generation(core);
                    self.on_finish(core, generation, t, &mut st);
                }
                Win::Rate => {
                    st.rate = None;
                    self.on_rate_update(t, &mut st);
                }
            }
            #[cfg(feature = "invariants")]
            self.check_invariants(t, last_t);
        }
        last_t
    }

    /// Recompute the cached arrival minimum from the SoA head mirrors:
    /// a flat `(time, seq)` sweep over `n_sources × 16` contiguous bytes
    /// (drained sources carry `SimTime::MAX` and can never win because
    /// buffered arrivals are capped at the horizon).
    fn rescan_arrivals(&self, st: &mut BatchState) {
        let (times, seqs) = self.ingest.arrival_heads();
        let mut best: Option<(SimTime, u64, u32)> = None;
        for (src, (&t, &s)) in times.iter().zip(seqs.iter()).enumerate() {
            if t == SimTime::MAX {
                continue;
            }
            if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                best = Some((t, s, src as u32));
            }
        }
        st.arrival_min = best;
    }
}
