//! Pins the AFD, as LAPS configures it, on a real packet stream.
//!
//! The golden reports cover LAPS only on T1 and T3, and there the
//! detector's decisions reach the report only through migrations. This
//! test replays 200k packets of named trace presets straight through
//! `Afd<FlowSlot>` with `LapsConfig::default().afd` and compares the
//! detector's statistics, its aggressive set and a digest of the whole
//! annex against constants. Any change to the caches' eviction order
//! shows up here, with the preset that exposed it.

use laps::LapsConfig;
use npafd::{Afd, AfdStats};
use nphash::{FlowInterner, FlowSlot};
use nptrace::TracePreset;

const PACKETS: usize = 200_000;

struct Pinned {
    preset: &'static str,
    stats: [u64; 7],
    aggressive: [u32; 16],
    annex_len: usize,
    annex_digest: u64,
}

fn stats_array(s: &AfdStats) -> [u64; 7] {
    [
        s.offered,
        s.sampled,
        s.afc_hits,
        s.annex_hits,
        s.misses,
        s.promotions,
        s.invalidations,
    ]
}

/// FNV-1a over the annex's `(slot, count)` pairs in descending-count
/// order: one number for the whole resident set and its counters.
fn digest(entries: &[(FlowSlot, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(slot, count) in entries {
        for word in [u64::from(slot.raw()), count] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn replay(preset: &str) -> Afd<FlowSlot> {
    let trace = TracePreset::parse(preset)
        .expect("named preset")
        .generate(PACKETS);
    let mut interner = FlowInterner::new();
    let mut afd: Afd<FlowSlot> = Afd::new(LapsConfig::default().afd);
    for (flow, _) in trace.iter_ids() {
        afd.access(interner.intern(flow));
    }
    afd
}

#[test]
fn afd_matches_pinned_state_on_named_presets() {
    let pinned = [
        Pinned {
            preset: "caida1",
            stats: [200_000, 200_000, 32_251, 55_875, 111_874, 52_818, 0],
            aggressive: [
                121, 79, 73, 68, 90, 3, 229, 8, 25, 17, 192, 238, 265, 119, 6, 145,
            ],
            annex_len: 512,
            annex_digest: 0x4ca8_cf63_4949_82b0,
        },
        Pinned {
            preset: "auck1",
            stats: [200_000, 200_000, 57_186, 88_408, 54_406, 77_780, 0],
            aggressive: [
                14, 24, 65, 31, 8, 51, 103, 26, 1, 21, 81, 20, 78, 12, 4, 107,
            ],
            annex_len: 512,
            annex_digest: 0x24cf_cb86_7c7e_cedd,
        },
    ];
    for p in &pinned {
        let afd = replay(p.preset);
        let aggressive: Vec<u32> = afd.aggressive_flows().iter().map(|s| s.raw()).collect();
        let annex = afd.annex().flows_by_count();
        assert_eq!(stats_array(afd.stats()), p.stats, "{} stats", p.preset);
        assert_eq!(aggressive, p.aggressive, "{} aggressive set", p.preset);
        assert_eq!(annex.len(), p.annex_len, "{} annex occupancy", p.preset);
        assert_eq!(digest(&annex), p.annex_digest, "{} annex digest", p.preset);
    }
}
