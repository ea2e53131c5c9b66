//! Pins the pcap bytes the simulator writes to a digest over a seeded
//! corpus of capture windows and fault plans.
//!
//! Each window is a simulated gateway capture rendered as frames
//! (`capture_to_frames`). Its clean stream (`write_pcap`) and the corrupted
//! streams of ten seeded fault plans (`FaultPlan::corrupt`) fold into one
//! `FxHasher` digest, each stream as its length and then its bytes. These
//! are the two byte sources of the benchmark's capture windows: clean
//! windows are `write_pcap` bytes, faulty ones `corrupt` bytes.
//!
//! The constant was recorded while the simulator still wrote pcap bytes
//! with a private copy of the global and record header encoders. A change
//! to either header, the timestamp split or any fault's rewrite moves the
//! digest.
//!
//! The plans cover all eight fault kinds, and one window opens 0.4 µs
//! before a whole second, so its first ARP frame and the gateway's pings of
//! device 0 have microseconds that round up to the next second.

use behaviot_flows::{classify_frame, FrameClass};
use behaviot_intern::FxHasher;
use behaviot_sim::gen::{capture_to_frames, GenOptions, TrafficGenerator};
use behaviot_sim::{write_pcap, Catalog, Fault, FaultPlan};
use std::hash::Hasher;

/// `(generator seed, window start)`; every window is 900 s long.
const WINDOWS: [(u64, f64); 4] = [
    (0xD16E_0001, 3600.0),
    (0xD16E_0002, 86_400.0 + 1800.0),
    (0xD16E_0003, 7200.0 - 4e-7),
    (0xD16E_0004, 1.7e9),
];
const WINDOW_S: f64 = 900.0;
const PLANS_PER_WINDOW: u64 = 10;
const EXPECTED: u64 = 0x6879_84a9_ec20_bb4c;

/// Index of a fault's kind, for the coverage check.
fn kind(f: &Fault) -> usize {
    match f {
        Fault::Drop { .. } => 0,
        Fault::Duplicate { .. } => 1,
        Fault::TruncateFrame { .. } => 2,
        Fault::CorruptFrameByte { .. } => 3,
        Fault::BadRecordLength { .. } => 4,
        Fault::ReorderWindow { .. } => 5,
        Fault::ClockJumpBack { .. } => 6,
        Fault::MidStreamEof { .. } => 7,
    }
}

/// Whether `ts`'s microseconds round up to a whole second when a record
/// header splits it into seconds and microseconds.
fn rounds_up(ts: f64) -> bool {
    ((ts - ts.floor()) * 1e6).round() >= 1e6
}

fn fold(h: &mut FxHasher, bytes: &[u8]) {
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
}

#[test]
fn capture_bytes_match_recorded_digest() {
    let catalog = Catalog::standard();
    let mut h = FxHasher::default();
    let mut kinds = [0usize; 8];
    let mut plans = 0;
    let mut rounded_up = 0;
    for (seed, start) in WINDOWS {
        let cap = TrafficGenerator::new(&catalog, seed).generate(
            start,
            start + WINDOW_S,
            &[],
            &GenOptions::default(),
        );
        let records = capture_to_frames(&cap, &catalog);
        rounded_up += records.iter().filter(|r| rounds_up(r.ts)).count();
        fold(&mut h, &write_pcap(&records));

        let mask: Vec<bool> = records
            .iter()
            .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
            .collect();
        for i in 0..PLANS_PER_WINDOW {
            let faults = 4 + 2 * i as usize;
            let plan = FaultPlan::generate(seed ^ (i << 40), &records, &mask, faults);
            for f in &plan.faults {
                kinds[kind(f)] += 1;
            }
            fold(&mut h, &plan.corrupt(&records));
            plans += 1;
        }
    }
    assert!(plans >= 40, "{plans} plans");
    assert!(
        kinds.iter().all(|&k| k > 0),
        "fault kinds placed: {kinds:?}"
    );
    assert!(rounded_up > 0, "no timestamp rounds up to the next second");
    assert_eq!(h.finish(), EXPECTED, "digest {:#018x}", h.finish());
}
