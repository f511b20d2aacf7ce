//! The pending-event set: where a run loop parks the arrivals, service
//! completions and rate ticks it has scheduled but not yet fired.
//!
//! The engine's event handlers are written once, generic over
//! [`Pending`]; the two run loops differ only in the implementation they
//! hand in. The scalar reference loop parks events in a
//! `detsim::EventQueue<Ev>` heap and draws each arrival's gap and header
//! when the arrival fires (this module). The batched loop parks them in
//! `BatchState` slots and the ingest stage's per-source lookahead rings
//! (`batch.rs`). Every `park_*` call is one `(time, seq)` allocation in
//! both, made from the same handler call points, so both loops fire
//! events in the same total order.

use detsim::{EventQueue, SimTime};
use nphash::FlowSlot;

use super::ingest::{Admission, IngestStage};

#[derive(Debug, Clone, Copy)]
pub(super) enum Ev {
    Arrival(usize),
    /// A core's service completion. Carries the core's finish
    /// generation at arming time: a crash bumps the generation, so the
    /// dead core's in-flight finish event is recognized as stale and
    /// discarded instead of completing a dropped packet.
    Finish(usize, u32),
    RateUpdate,
    /// The fault-plan entry at this index fires.
    Fault(usize),
    /// A transient stall on this core ends.
    StallEnd(usize),
}

/// A run loop's pending-event set, as seen by the event handlers.
pub(super) trait Pending {
    /// Whether the handlers issue lookahead prefetches (the order-tracker
    /// line of a packet entering service). Only worth it where the merge
    /// leaves the memory system idle time to fill them.
    const PREFETCH: bool;

    /// Take the record of `src`'s arrival firing now and admit it.
    fn admit(&mut self, ingest: &mut IngestStage, src: usize) -> Admission;

    /// Park `src`'s next arrival after the one firing at `now`, if it
    /// lands within `horizon`. Returns the parked arrival's flow slot
    /// when it is already known, so its flow-table line can be
    /// prefetched.
    fn park_arrival(
        &mut self,
        ingest: &mut IngestStage,
        src: usize,
        now: SimTime,
        horizon: SimTime,
    ) -> Option<FlowSlot>;

    /// Park `core`'s service completion at `at`, armed under the core's
    /// finish `generation`.
    fn park_finish(&mut self, core: usize, at: SimTime, generation: u32);

    /// Park the next rate-law refresh at `at`.
    fn park_rate_update(&mut self, at: SimTime);
}

/// The scalar loop's pending set: one heap, arrivals drawn at fire time.
impl Pending for EventQueue<Ev> {
    const PREFETCH: bool = false;

    fn admit(&mut self, ingest: &mut IngestStage, src: usize) -> Admission {
        ingest.admit(src)
    }

    fn park_arrival(
        &mut self,
        ingest: &mut IngestStage,
        src: usize,
        now: SimTime,
        horizon: SimTime,
    ) -> Option<FlowSlot> {
        let next = now + ingest.next_gap(src)?;
        if next <= horizon {
            self.push(next, Ev::Arrival(src));
        }
        None
    }

    fn park_finish(&mut self, core: usize, at: SimTime, generation: u32) {
        self.push(at, Ev::Finish(core, generation));
    }

    fn park_rate_update(&mut self, at: SimTime) {
        self.push(at, Ev::RateUpdate);
    }
}
