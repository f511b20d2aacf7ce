//! Spans, the sampled scheduler wrapper and the simulated-latency probe.
//!
//! Every span is recorded from benchmark code around a call into one
//! layer's public API; nothing inside the program is instrumented.
//! Spans stay in memory and are written out once, at the end of the
//! traced run.

use detsim::SimTime;
use npsim::{
    PacketDesc, Probe, RepairOutcome, SchedEvent, Scheduler, SimEvent, SyncPolicy, SystemView,
};
use std::any::Any;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `weight` is how many calls the span stands for:
/// 1 for an ordinary span, the sampling period for a sampled per-packet
/// span (its duration times `weight` estimates the calls it represents).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub weight: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log sharing one epoch across threads.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// A log on another thread that merges into this one's timeline.
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            weight: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Append `spans`, whose parents index into `spans` itself; the
    /// roots among them become children of `parent`.
    pub fn adopt(&mut self, spans: &[Span], parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            ..*s
        }));
    }

    /// Estimated total and self time per span name, in nanoseconds,
    /// with the estimated call count. Sampled spans are scaled by their
    /// weight after `timer_ns` (the cost of the two clock reads a span
    /// adds) is taken off each sample.
    pub fn totals(&self, timer_ns: f64) -> Vec<NameTotal> {
        let est = |s: &Span| -> f64 {
            let d = s.duration_ns() as f64;
            if s.weight > 1 {
                (d - timer_ns).max(0.0) * f64::from(s.weight)
            } else {
                d
            }
        };
        let mut child_sum = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(c) = child_sum.get_mut(p) {
                    *c += est(s);
                }
            }
        }
        let mut out: Vec<NameTotal> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_sum) {
            let total = est(s);
            let slot = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(NameTotal {
                        name: s.name,
                        total_ns: 0.0,
                        self_ns: 0.0,
                        calls: 0.0,
                    });
                    out.len() - 1
                }
            };
            let t = &mut out[slot];
            t.total_ns += total;
            t.self_ns += (total - children).max(0.0);
            t.calls += f64::from(s.weight);
        }
        out
    }

    /// The span log as CSV (`id,parent,name,start_ns,end_ns,weight`).
    pub fn to_csv(&self, timer_ns: f64) -> String {
        let mut text =
            format!("# clock-read cost {timer_ns:.1} ns\nid,parent,name,start_ns,end_ns,weight\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i},{parent},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, s.weight
            );
        }
        text
    }
}

/// Per-name aggregate of a span log.
#[derive(Debug, Clone, Copy)]
pub struct NameTotal {
    pub name: &'static str,
    pub total_ns: f64,
    pub self_ns: f64,
    pub calls: f64,
}

/// Median cost of one span's pair of clock reads, in nanoseconds.
pub fn clock_read_ns() -> f64 {
    let mut d: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

/// Sampling period of the per-packet spans: a prime, so the sample
/// does not lock onto any power-of-two periodicity of the dispatch
/// pattern.
pub const SAMPLE_EVERY: u64 = 61;

/// A [`Scheduler`] that delegates every trait method to `inner` and
/// times one call in [`SAMPLE_EVERY`] of the per-packet methods
/// (`schedule`, `on_drop`). The report is unchanged: the wrapper only
/// reads the clock.
#[derive(Debug)]
pub struct Sampled<S> {
    inner: S,
    epoch: Instant,
    schedule_calls: u64,
    drop_calls: u64,
    pub spans: Vec<Span>,
}

impl<S> Sampled<S> {
    pub fn new(inner: S, epoch: Instant) -> Sampled<S> {
        Sampled {
            inner,
            epoch,
            schedule_calls: 0,
            drop_calls: 0,
            spans: Vec::new(),
        }
    }

    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl<S: Scheduler> Scheduler for Sampled<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, pkt: &PacketDesc, view: &SystemView<'_>) -> usize {
        self.schedule_calls += 1;
        if !self.schedule_calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.schedule(pkt, view);
        }
        let start_ns = self.stamp();
        let core = self.inner.schedule(pkt, view);
        let end_ns = self.stamp();
        self.spans.push(Span {
            name: "laps.schedule",
            parent: None,
            start_ns,
            end_ns,
            weight: SAMPLE_EVERY as u32,
        });
        core
    }

    fn on_drop(&mut self, pkt: &PacketDesc, core: usize) {
        self.drop_calls += 1;
        if !self.drop_calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.on_drop(pkt, core);
        }
        let start_ns = self.stamp();
        self.inner.on_drop(pkt, core);
        let end_ns = self.stamp();
        self.spans.push(Span {
            name: "laps.on_drop",
            parent: None,
            start_ns,
            end_ns,
            weight: SAMPLE_EVERY as u32,
        });
    }

    fn core_reallocations(&self) -> u64 {
        self.inner.core_reallocations()
    }

    fn set_event_feed(&mut self, enabled: bool) {
        self.inner.set_event_feed(enabled)
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(SchedEvent)) {
        self.inner.drain_events(sink)
    }

    fn on_core_down(&mut self, core: usize) -> RepairOutcome {
        self.inner.on_core_down(core)
    }

    fn on_core_up(&mut self, core: usize) -> RepairOutcome {
        self.inner.on_core_up(core)
    }

    fn sync_policy(&self) -> Option<SyncPolicy> {
        self.inner.sync_policy()
    }
}

/// Largest queue occupancy the depth histogram keeps apart; deeper
/// dispatches fold into the last bucket (the paper's queues hold 32).
const MAX_DEPTH: usize = 256;

/// Exact simulated latency and dispatch queue depth, from the public
/// probe bus. The report's latency histogram has power-of-two buckets,
/// too coarse to show a change; this keeps every departure's latency.
#[derive(Debug, Default)]
pub struct SimProbe {
    pub latencies_ns: Vec<u64>,
    pub depth_counts: Vec<u64>,
}

impl SimProbe {
    pub fn new() -> SimProbe {
        SimProbe {
            latencies_ns: Vec::new(),
            depth_counts: vec![0; MAX_DEPTH + 1],
        }
    }

    /// Fold another run's samples into this one.
    pub fn merge(&mut self, other: &SimProbe) {
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        for (a, b) in self.depth_counts.iter_mut().zip(&other.depth_counts) {
            *a += b;
        }
    }
}

impl Probe for SimProbe {
    fn name(&self) -> &'static str {
        "benchmark-sim"
    }

    fn on_event(&mut self, _now: SimTime, ev: &SimEvent) {
        match *ev {
            SimEvent::Departure { latency_ns, .. } => self.latencies_ns.push(latency_ns),
            SimEvent::Dispatched { queue_len, .. } => {
                if let Some(c) = self.depth_counts.get_mut(queue_len.min(MAX_DEPTH)) {
                    *c += 1;
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
