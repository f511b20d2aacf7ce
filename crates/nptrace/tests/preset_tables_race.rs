//! Two threads racing on the first `generator` call for one preset both
//! get the stream a from-scratch generator yields.
//!
//! This file is its own test binary, and no other test in it touches a
//! preset, so the race below really is on the first build of that
//! preset's shared tables in the process.

use nptrace::{PacketRecord, TraceGenerator, TracePreset};
use std::sync::Barrier;

fn draw(mut g: TraceGenerator, n: usize) -> Vec<PacketRecord> {
    (0..n).map(|_| g.next_packet()).collect()
}

#[test]
fn racing_first_calls_both_get_the_serial_stream() {
    const N: usize = 20_000;
    let preset = TracePreset::Caida(3);
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let race = || {
            start.wait();
            draw(preset.generator(N), N)
        };
        let a = s.spawn(race);
        let b = s.spawn(race);
        (
            a.join().expect("first racer panicked"),
            b.join().expect("second racer panicked"),
        )
    });
    let serial = draw(TraceGenerator::new(preset.config(N), preset.seed()), N);
    assert_eq!(a, serial);
    assert_eq!(b, serial);
}
