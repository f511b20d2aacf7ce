//! Named trace presets standing in for the paper's Tables I and II.
//!
//! The real datasets are access-gated (CAIDA) or archival (Auckland-II),
//! so each preset is a synthetic configuration tuned to the published
//! characteristics the scheduler actually observes:
//!
//! * **CAIDA** (OC-192 backbone, 1 min): very many concurrent flows
//!   (tens of thousands), *many* high-rate flows ("Caida traces generally
//!   have a large number of high data rate flows"), near-Zipf(1.05–1.15)
//!   popularity, short bursts (high multiplexing).
//! * **Auckland-II** (university edge, 1 h): an order of magnitude fewer
//!   concurrent flows, milder tail, longer per-flow bursts, smaller
//!   packets.
//!
//! Distinct presets of a family differ by seed and mild parameter jitter,
//! like distinct capture windows of the same link.

use crate::gen::{TraceConfig, TraceGenerator, TraceTables};
use crate::packet::Trace;
use crate::sizes::SizeModel;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Each named preset's generator tables, built on first use: slots
/// `0..6` hold `caida1..6`, slots `6..14` hold `auck1..8`.
static PRESET_TABLES: [OnceLock<Arc<TraceTables>>; 14] = [const { OnceLock::new() }; 14];

/// The fourteen named traces used across the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TracePreset {
    /// CAIDA-like backbone capture `n` ∈ 1..=6 (Tables I and V).
    Caida(u8),
    /// Auckland-II-like edge capture `n` ∈ 1..=8 (Table II).
    Auckland(u8),
}

impl TracePreset {
    /// All CAIDA presets.
    pub fn all_caida() -> Vec<TracePreset> {
        (1..=6).map(TracePreset::Caida).collect()
    }

    /// All Auckland presets.
    pub fn all_auckland() -> Vec<TracePreset> {
        (1..=8).map(TracePreset::Auckland).collect()
    }

    /// The preset's display name (`caida1`, `auck3`, …).
    pub fn name(&self) -> String {
        match self {
            TracePreset::Caida(n) => format!("caida{n}"),
            TracePreset::Auckland(n) => format!("auck{n}"),
        }
    }

    /// Parse a preset name.
    pub fn parse(name: &str) -> Option<TracePreset> {
        if let Some(n) = name.strip_prefix("caida") {
            let n: u8 = n.parse().ok()?;
            (1..=6).contains(&n).then_some(TracePreset::Caida(n))
        } else if let Some(n) = name.strip_prefix("auck") {
            let n: u8 = n.parse().ok()?;
            (1..=8).contains(&n).then_some(TracePreset::Auckland(n))
        } else {
            None
        }
    }

    /// Deterministic generation seed for this preset.
    pub fn seed(&self) -> u64 {
        match self {
            TracePreset::Caida(n) => 0x000C_A1DA_0000 + *n as u64,
            TracePreset::Auckland(n) => 0xA0CC_0000 + *n as u64,
        }
    }

    /// The generator configuration, sized to `n_packets`.
    pub fn config(&self, n_packets: usize) -> TraceConfig {
        match *self {
            TracePreset::Caida(n) => {
                let i = n as u64;
                TraceConfig {
                    name: self.name(),
                    flow_space: 0xCA + i,
                    // Tens of thousands of concurrent flows; slight
                    // variation across capture windows.
                    n_flows: 40_000 + (i as u32 % 3) * 10_000,
                    // Near-Zipf(1.1) tail with a flattened head: the top
                    // flow carries ~2 % of traffic (many comparably heavy
                    // flows — the CAIDA regime of Fig. 8).
                    zipf_exponent: 1.05 + 0.02 * (i as f64 % 3.0),
                    head_offset: 8.0,
                    n_packets,
                    // Backbone: high multiplexing → short bursts; mice
                    // live ~25 packets before the connection ends.
                    mean_burst: 3.0,
                    // OC-192 backbone: many flows in flight at once.
                    concurrency: 64,
                    mouse_lifetime: 25.0,
                    size_model: SizeModel {
                        heavy_large_prob: 0.75,
                        mouse_small_prob: 0.5,
                        heavy_rank_cutoff: 256,
                    },
                }
            }
            TracePreset::Auckland(n) => {
                let i = n as u64;
                TraceConfig {
                    name: self.name(),
                    flow_space: 0xA0 + i,
                    // Edge link: far fewer concurrent flows.
                    n_flows: 4_000 + (i as u32 % 4) * 1_000,
                    // Steeper tail: the few elephants dominate harder,
                    // so a small annex cache already finds them (Fig 8a);
                    // head still capped below half a core of load.
                    zipf_exponent: 1.2 + 0.05 * (i as f64 % 2.0),
                    head_offset: 12.0,
                    n_packets,
                    // Lower multiplexing → longer bursts; edge-link mice
                    // live longer than backbone mice.
                    mean_burst: 6.0,
                    // Edge link: less multiplexing than the backbone.
                    concurrency: 16,
                    mouse_lifetime: 60.0,
                    size_model: SizeModel {
                        heavy_large_prob: 0.6,
                        mouse_small_prob: 0.65,
                        heavy_rank_cutoff: 64,
                    },
                }
            }
        }
    }

    /// Materialize the preset as a trace of `n_packets` packets.
    pub fn generate(&self, n_packets: usize) -> Trace {
        TraceGenerator::new(self.config(n_packets), self.seed()).generate()
    }

    /// A streaming generator for this preset (for long simulations).
    ///
    /// Its packet stream is the one `TraceGenerator::new(self.config(n),
    /// self.seed())` yields, but the Zipf table, the per-rank size
    /// profiles and the post-profile RNG state are built once per process
    /// and shared by every generator of the preset; each call gets fresh
    /// per-run state (flow map, active bursts, an RNG clone). Sharing is
    /// sound because those tables depend only on the preset: its own
    /// fixed seed and its flow-count, Zipf and size parameters, never on
    /// `n_packets` or an engine seed. The memo holds at most the 14 named
    /// presets' tables, about 13 bytes per rank over 344k ranks (~4.5 MB),
    /// whatever the number or length of runs.
    pub fn generator(&self, n_packets: usize) -> TraceGenerator {
        let config = self.config(n_packets);
        match self.table_slot().and_then(|i| PRESET_TABLES.get(i)) {
            Some(slot) => {
                let tables =
                    slot.get_or_init(|| Arc::new(TraceTables::build(&config, self.seed())));
                TraceGenerator::from_tables(config, Arc::clone(tables))
            }
            // A variant outside the 14 named traces is built unshared.
            None => TraceGenerator::new(config, self.seed()),
        }
    }

    /// This preset's slot in [`PRESET_TABLES`].
    fn table_slot(&self) -> Option<usize> {
        match *self {
            TracePreset::Caida(n @ 1..=6) => Some(usize::from(n) - 1),
            TracePreset::Auckland(n @ 1..=8) => Some(usize::from(n) + 5),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketRecord;

    #[test]
    fn names_roundtrip() {
        for p in TracePreset::all_caida()
            .into_iter()
            .chain(TracePreset::all_auckland())
        {
            assert_eq!(TracePreset::parse(&p.name()), Some(p));
        }
        assert_eq!(TracePreset::parse("caida7"), None);
        assert_eq!(TracePreset::parse("auck9"), None);
        assert_eq!(TracePreset::parse("bogus"), None);
    }

    #[test]
    fn caida_has_more_flows_than_auckland() {
        let c = TracePreset::Caida(1).generate(50_000);
        let a = TracePreset::Auckland(1).generate(50_000);
        assert!(c.analyze().active_flows() > 2 * a.analyze().active_flows());
    }

    #[test]
    fn presets_are_deterministic_and_distinct() {
        let a1 = TracePreset::Caida(1).generate(10_000);
        let a2 = TracePreset::Caida(1).generate(10_000);
        let b = TracePreset::Caida(2).generate(10_000);
        assert_eq!(a1.packets, a2.packets);
        assert_ne!(a1.packets, b.packets);
        // Different flow_space → disjoint flow IDs.
        assert_ne!(a1.flow_id_of(0), b.flow_id_of(0));
    }

    fn all_presets() -> impl Iterator<Item = TracePreset> {
        TracePreset::all_caida()
            .into_iter()
            .chain(TracePreset::all_auckland())
    }

    #[test]
    fn shared_tables_replay_a_fresh_generator() {
        // 200k packets reach mouse churn and every burst path, and the
        // first draws test the hand-off of the post-profile RNG state.
        const N: usize = 200_000;
        for p in all_presets() {
            let mut shared = p.generator(N);
            let mut fresh = TraceGenerator::new(p.config(N), p.seed());
            for i in 0..N {
                assert_eq!(
                    shared.next_packet(),
                    fresh.next_packet(),
                    "{p:?} packet {i}"
                );
            }
            assert_eq!(shared.emitted(), N);
            assert_eq!(fresh.emitted(), N);
        }
    }

    #[test]
    fn generators_of_one_preset_share_tables_but_not_state() {
        for p in all_presets() {
            let mut a = p.generator(0);
            let mut b = p.generator(0);
            assert!(a.shares_tables_with(&b), "{p:?}");
            let mut reference = TraceGenerator::new(p.config(0), p.seed());
            let expected: Vec<PacketRecord> = (0..5_000).map(|_| reference.next_packet()).collect();
            // Drawing from `a` first must not move `b`'s stream.
            let from_a: Vec<PacketRecord> = (0..5_000).map(|_| a.next_packet()).collect();
            let from_b: Vec<PacketRecord> = (0..5_000).map(|_| b.next_packet()).collect();
            assert_eq!(from_a, expected, "{p:?}");
            assert_eq!(from_b, expected, "{p:?}");
        }
        assert!(!TracePreset::Caida(1)
            .generator(0)
            .shares_tables_with(&TracePreset::Caida(2).generator(0)));
    }

    #[test]
    fn unnamed_variant_builds_unshared() {
        let p = TracePreset::Caida(9);
        let mut a = p.generator(0);
        let mut fresh = TraceGenerator::new(p.config(0), p.seed());
        assert!(!a.shares_tables_with(&p.generator(0)));
        for _ in 0..1_000 {
            assert_eq!(a.next_packet(), fresh.next_packet());
        }
    }

    #[test]
    fn heavy_tail_shape_matches_fig2() {
        // Fig 2: rank-size roughly linear in log-log, i.e. size(rank)
        // drops by orders of magnitude over the first decades of rank.
        let t = TracePreset::Caida(1).generate(200_000);
        let rs = t.analyze().rank_size();
        // With the flattened head, rank 1 is ~10-20x rank 100 and far
        // above rank 1000 — orders of magnitude over the decades.
        assert!(rs[0] > 5 * rs[99], "rank1={} rank100={}", rs[0], rs[99]);
        assert!(rs[0] > 50 * rs[999], "rank1={} rank1000={}", rs[0], rs[999]);
        // And the top flow stays a realistic share of total traffic.
        let share = rs[0] as f64 / t.len() as f64;
        assert!(share < 0.05, "top flow share {share}");
        assert!(share > 0.005, "top flow share {share}");
    }
}
