//! Per-call timings of each layer's public functions, on the inputs of
//! the workload being traced (its arrival plans, flows and sources).

use crate::workload::Cell;
use detsim::EventQueue;
use laps::{laps_config_for, GroupBoard};
use npafd::Afd;
use nphash::{FlowId, FlowInterner, FlowSlot, MapTable};
use npsim::ArrivalPlan;
use nptrace::TracePreset;
use nptraffic::ServiceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Packets drawn from the workload's plans for the per-call timings.
const SAMPLE_PACKETS: usize = 1 << 20;
/// Timed passes per function; the median pass is kept.
const PASSES: usize = 5;

/// The workload-derived inputs of the per-call timings.
#[derive(Debug)]
pub struct LayerInputs {
    pub flows: Vec<FlowId>,
    pub slots: Vec<FlowSlot>,
    pub services: Vec<ServiceKind>,
    pub sizes: Vec<u16>,
}

impl LayerInputs {
    /// Take up to `SAMPLE_PACKETS` packets, spread evenly over `plans`.
    pub fn from_plans(plans: &[&ArrivalPlan]) -> LayerInputs {
        let per_plan = SAMPLE_PACKETS / plans.len().max(1);
        let mut inputs = LayerInputs {
            flows: Vec::new(),
            slots: Vec::new(),
            services: Vec::new(),
            sizes: Vec::new(),
        };
        for plan in plans {
            for p in plan.packets.iter().take(per_plan) {
                inputs.flows.push(p.flow);
                inputs.slots.push(p.slot);
                inputs.services.push(p.service);
                inputs.sizes.push(p.size);
            }
        }
        inputs
    }
}

/// Median over `PASSES` of the nanoseconds per operation of `pass`,
/// which performs `ops` operations and returns a value to keep alive.
fn per_op_ns(ops: usize, mut pass: impl FnMut() -> u64) -> f64 {
    let mut t: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            black_box(pass());
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Per-call timings, one field per per-layer metric they feed.
#[derive(Debug, Default)]
pub struct LayerTimings {
    pub crc16_batch_ns: f64,
    pub lookup_batch_ns: f64,
    pub intern_ns: f64,
    pub afd_update_ns: f64,
    pub afc_hit_pct: f64,
    pub spsc_push_pop_ns: f64,
    pub handshake_ns: f64,
    pub push_pop_ns: f64,
    pub generator_new_ms_caida: f64,
    pub generator_new_ms_auckland: f64,
    pub next_packet_ns: f64,
    pub delay_ns: f64,
    pub rate_at_ns: f64,
}

pub fn time_layers(inputs: &LayerInputs, cells: &[Cell]) -> LayerTimings {
    let n = inputs.flows.len();
    let mut t = LayerTimings::default();
    let first = &cells[0];

    // nphash: the paper's hash → map table step, batched as the
    // scheduler does it, and flow interning.
    let keys: Vec<[u8; 13]> = inputs.flows.iter().map(|f| f.to_bytes()).collect();
    let mut hashes = vec![0u16; n];
    t.crc16_batch_ns = per_op_ns(n, || {
        nphash::crc16_ccitt_batch(black_box(&keys), &mut hashes);
        u64::from(hashes[n / 2])
    });
    let table = MapTable::new((0..first.cfg.n_cores).collect::<Vec<usize>>());
    let mut owners = vec![0usize; n];
    t.lookup_batch_ns = per_op_ns(n, || {
        table.lookup_batch(black_box(&inputs.flows), &mut owners);
        owners[n / 2] as u64
    });
    t.intern_ns = per_op_ns(n, || {
        let mut interner = FlowInterner::new();
        let mut acc = 0u64;
        for &f in &inputs.flows {
            acc = acc.wrapping_add(u64::from(interner.intern(f).raw()));
        }
        acc
    });

    // npafd: one detector access per packet, configured as LAPS
    // configures it; the AFC hit share over the whole stream.
    let afd_cfg = laps_config_for(&first.cfg).afd;
    t.afd_update_ns = per_op_ns(n, || {
        let mut afd: Afd<FlowSlot> = Afd::new(afd_cfg);
        for &s in &inputs.slots {
            black_box(afd.access(s));
        }
        afd.stats().afc_hits
    });
    let mut afd: Afd<FlowSlot> = Afd::new(afd_cfg);
    for &s in &inputs.slots {
        afd.access(s);
    }
    let st = afd.stats();
    t.afc_hit_pct = 100.0 * st.afc_hits as f64 / st.sampled.max(1) as f64;

    // laps: the npexec ring (a burst of pushes then pops, single
    // threaded) and one migration handshake mark → release.
    const BURST: usize = 256;
    let (mut tx, mut rx) = laps::spsc::ring(1024);
    t.spsc_push_pop_ns = per_op_ns(n, || {
        let mut acc = 0u64;
        for chunk in inputs.slots.chunks(BURST) {
            for s in chunk {
                let _ = tx.try_push(laps::Desc::Packet(u64::from(s.raw())));
            }
            while let Some(d) = rx.try_pop() {
                if let laps::Desc::Packet(v) = d {
                    acc = acc.wrapping_add(v);
                }
            }
        }
        acc
    });
    let board = GroupBoard::new(8 * first.cfg.n_cores);
    let groups = board.groups();
    t.handshake_ns = per_op_ns(n, || {
        for (i, s) in inputs.slots.iter().enumerate() {
            let g = (s.raw() as usize ^ i) % groups;
            board.begin(g);
            board.release(g);
        }
        board.total_released()
    });

    // detsim: push + pop at the engine's pending-set size (one finish
    // slot per core, one arrival per source, the rate tick).
    let pending = first.cfg.n_cores + first.sources.len() + 1;
    t.push_pop_ns = per_op_ns(n, || {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(pending * 2);
        for i in 0..pending {
            q.push(detsim::SimTime::from_nanos(i as u64), i as u32);
        }
        let mut acc = 0u64;
        for &size in &inputs.sizes {
            if let Some((at, v)) = q.pop() {
                acc = acc.wrapping_add(u64::from(v));
                q.push(at + detsim::SimTime::from_nanos(u64::from(size)), v);
            }
        }
        acc
    });

    // nptrace: generator construction per preset family, and header
    // draws from the workload's own presets.
    let gen_ms = |preset: TracePreset| {
        per_op_ns(1, || {
            let g = preset.generator(0);
            g.flow_space()
        }) * 1e-6
    };
    t.generator_new_ms_caida = gen_ms(TracePreset::Caida(1));
    t.generator_new_ms_auckland = gen_ms(TracePreset::Auckland(1));
    let mut presets: Vec<TracePreset> = Vec::new();
    for p in cells.iter().flat_map(|c| c.sources.iter().map(|s| s.trace)) {
        if !presets.contains(&p) {
            presets.push(p);
        }
    }
    let per_preset = n / presets.len().max(1);
    let mut gens: Vec<_> = presets.iter().map(|p| p.generator(0)).collect();
    t.next_packet_ns = per_op_ns(per_preset * gens.len(), || {
        let mut acc = 0u64;
        for g in gens.iter_mut() {
            for _ in 0..per_preset {
                let p = g.next_packet();
                acc = acc.wrapping_add(u64::from(p.flow) + u64::from(p.size));
            }
        }
        acc
    });

    // nptraffic: the penalty-aware delay model on the workload's
    // packets, and each source's rate law over its horizon.
    let mut delay = first.cfg.delay;
    delay.scale = first.cfg.scale;
    t.delay_ns = per_op_ns(n, || {
        let mut acc = 0u64;
        for (i, (&svc, &size)) in inputs.services.iter().zip(&inputs.sizes).enumerate() {
            let d = delay.processing_delay_us(svc, size, i % 7 == 0, i % 11 == 0);
            acc = acc.wrapping_add(d.to_bits());
        }
        acc
    });
    let rates: Vec<(npsim::RateSpec, u64)> = cells
        .iter()
        .flat_map(|c| {
            let horizon = c.cfg.duration.as_nanos().max(1);
            c.sources.iter().map(move |s| (s.rate, horizon))
        })
        .collect();
    let per_rate = n / rates.len().max(1);
    let mut rng = StdRng::seed_from_u64(first.cfg.seed);
    t.rate_at_ns = per_op_ns(per_rate * rates.len(), || {
        let mut acc = 0u64;
        for (rate, horizon) in &rates {
            for i in 0..per_rate as u64 {
                let at = detsim::SimTime::from_nanos(i * horizon / per_rate.max(1) as u64);
                acc = acc.wrapping_add(rate.rate_at(at, &mut rng).to_bits());
            }
        }
        acc
    });
    t
}

/// Classify every packet of `plan` to its flow group with
/// `MapTable::bucket_of`, as `ThreadedBackend::run` does before its
/// threads start; returns the seconds taken.
pub fn classify_s(plan: &ArrivalPlan, groups: usize) -> f64 {
    let table = MapTable::new((0..groups).collect::<Vec<usize>>());
    let start = Instant::now();
    let mut group_of = Vec::with_capacity(plan.packets.len());
    for p in &plan.packets {
        group_of.push(u64::from(table.bucket_of(p.flow)));
    }
    black_box(&group_of);
    start.elapsed().as_secs_f64()
}
