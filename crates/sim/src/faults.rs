//! Deterministic chaos: seeded fault injection for simulated captures.
//!
//! A [`FaultPlan`] rewrites a clean, serialized capture into a corrupted
//! byte stream exhibiting the pathologies real gateway captures suffer —
//! truncated records, mangled length fields, drops, duplicates, bounded
//! reordering, backwards clock jumps, mid-stream EOF — *and* carries the
//! ground truth of what a tolerant ingest must still recover:
//!
//! * [`FaultPlan::surviving`] — exactly which original records a correct
//!   lossy ingest yields,
//! * [`FaultPlan::expected`] — the per-category [`IngestReport`] counters
//!   the run must produce.
//!
//! That ground truth is what turns chaos into a *differential test*: the
//! pipeline over the corrupted stream must equal the pipeline over the
//! clean stream restricted to the surviving records, byte-identically, and
//! the report must match the plan. Fault placement is seeded and
//! deterministic; the same seed always builds the same corruption.
//!
//! Faults keep a minimum spacing of a few records between each other so
//! their ground-truth effects compose independently (e.g. a resync scan
//! never runs into the next fault's mangled bytes, and a reorder window's
//! boundaries are clean records).

use behaviot_net::pcap::{self, PcapRecord};
use behaviot_net::IngestReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How far backwards (seconds) [`Fault::ClockJumpBack`] shifts timestamps.
/// Large enough to trip any sane skew gate (tolerance ≈ 30 s), small
/// enough that shifted records stay plausible at the pcap-header level.
pub const CLOCK_JUMP_DELTA: f64 = 300.0;

/// Minimum index distance kept free around every fault's record span.
const SPACING: usize = 3;

/// The `incl_len` a [`Fault::BadRecordLength`] writes: far past the pcap
/// snaplen, so no reader takes it for a record header.
const MANGLED_INCL_LEN: u32 = 0x4000_0000;

/// One injected corruption, keyed by original record index.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Record silently removed from the stream (capture loss).
    Drop {
        /// Original index of the removed record.
        record: usize,
    },
    /// Record emitted twice back-to-back (port-mirror duplication).
    Duplicate {
        /// Original index of the duplicated record.
        record: usize,
    },
    /// Record's frame cut short snaplen-style: the header keeps the true
    /// original length but `incl_len` (and the data) shrink to `keep`
    /// bytes. The frame fails checksum validation downstream.
    TruncateFrame {
        /// Original index of the truncated record.
        record: usize,
        /// Bytes of frame data kept (≥ 14, so the record header itself
        /// stays plausible and the Ethernet header parses).
        keep: usize,
    },
    /// One frame byte flipped past the Ethernet header — the frame parses
    /// structurally but fails its IPv4/TCP/UDP checksum.
    CorruptFrameByte {
        /// Original index of the corrupted record.
        record: usize,
        /// Byte offset within the frame that gets XOR-flipped.
        offset: usize,
    },
    /// The record header's `incl_len` field mangled to an implausible
    /// value; a recovering reader must resynchronize on the next record.
    BadRecordLength {
        /// Original index of the mangled record.
        record: usize,
    },
    /// A contiguous window of records emitted in permuted order (bounded
    /// capture reordering). All records survive.
    ReorderWindow {
        /// Index of the first record in the window.
        start: usize,
        /// Permutation applied to the window (`perm[j]` = which
        /// window-relative record is emitted at position `j`).
        perm: Vec<usize>,
    },
    /// A run of records stamped [`CLOCK_JUMP_DELTA`] seconds in the past
    /// (NTP step during capture). A skew-gated ingest drops the run.
    ClockJumpBack {
        /// Index of the first record in the run.
        start: usize,
        /// Number of affected records.
        run: usize,
    },
    /// The byte stream ends in the middle of this record; everything from
    /// it onwards is lost.
    MidStreamEof {
        /// Original index of the record the stream dies inside.
        record: usize,
        /// Bytes of the record's serialized form (header + data) kept.
        keep: usize,
    },
}

impl Fault {
    /// The inclusive span of original record indices this fault touches.
    pub fn span(&self) -> (usize, usize) {
        match *self {
            Fault::Drop { record }
            | Fault::Duplicate { record }
            | Fault::TruncateFrame { record, .. }
            | Fault::CorruptFrameByte { record, .. }
            | Fault::BadRecordLength { record }
            | Fault::MidStreamEof { record, .. } => (record, record),
            Fault::ReorderWindow { start, ref perm } => (start, start + perm.len() - 1),
            Fault::ClockJumpBack { start, run } => (start, start + run - 1),
        }
    }
}

/// The stream-level [`IngestReport`] counters a plan's corruption must
/// produce. (Byte-level counters like
/// `resync_skipped_bytes` and downstream `clamped_events` are not part of
/// the ground truth — they depend on frame sizes and model state.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpectedCounts {
    /// Implausible record headers ([`Fault::BadRecordLength`]).
    pub bad_record_headers: u64,
    /// Successful resynchronizations (one per bad header here).
    pub resyncs: u64,
    /// Mid-stream EOFs ([`Fault::MidStreamEof`]).
    pub truncated_tail: u64,
    /// Checksum-broken frames ([`Fault::TruncateFrame`],
    /// [`Fault::CorruptFrameByte`]).
    pub corrupt_frames: u64,
    /// Exact duplicates ([`Fault::Duplicate`]).
    pub duplicates: u64,
    /// Records dropped by the skew gate ([`Fault::ClockJumpBack`]).
    pub clock_skew_drops: u64,
    /// Accepted out-of-order records (descents inside
    /// [`Fault::ReorderWindow`] permutations).
    pub reordered: u64,
}

impl ExpectedCounts {
    /// Does an actual ingest report carry exactly these stream-level
    /// counters?
    pub fn matches(&self, r: &IngestReport) -> bool {
        self.bad_record_headers == r.bad_record_headers
            && self.resyncs == r.resyncs
            && self.truncated_tail == r.truncated_tail
            && self.corrupt_frames == r.corrupt_frames
            && self.duplicates == r.duplicates
            && self.clock_skew_drops == r.clock_skew_drops
            && self.reordered == r.reordered
    }
}

/// A seeded, reproducible corruption of a clean capture, together with the
/// ground truth a tolerant ingest must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// The injected faults, in placement order.
    pub faults: Vec<Fault>,
    /// Stream-level report counters the corrupted run must produce.
    pub expected: ExpectedCounts,
    surviving: Vec<bool>,
}

impl FaultPlan {
    /// Build a plan over `records` (the clean capture, chronologically
    /// ordered) aiming for `n_faults` injected faults. Placement respects
    /// eligibility (frame-corrupting faults only target parseable flow
    /// frames; clock jumps need room below them; at most one mid-stream
    /// EOF, near the end) and spacing, so fewer than `n_faults` may fit on
    /// small captures.
    ///
    /// `is_flow[i]` must say whether record `i` parses as an IPv4 TCP/UDP
    /// flow frame on the clean capture (e.g. via
    /// `behaviot_flows::classify_frame`) — corrupting a non-flow frame
    /// (ARP/ICMP) would be invisible to flow-level accounting.
    pub fn generate(seed: u64, records: &[PcapRecord], is_flow: &[bool], n_faults: usize) -> Self {
        assert_eq!(records.len(), is_flow.len(), "is_flow must cover records");
        let n = records.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5F17_u64);
        let mut blocked = vec![false; n];
        let mut faults: Vec<Fault> = Vec::new();

        let reserve = |blocked: &mut Vec<bool>, a: usize, b: usize| -> bool {
            if blocked[a..=b].iter().any(|&x| x) {
                return false;
            }
            let lo = a.saturating_sub(SPACING);
            let hi = (b + SPACING).min(n - 1);
            for x in &mut blocked[lo..=hi] {
                *x = true;
            }
            true
        };

        // At most one mid-stream EOF, placed first so every other fault
        // can stay safely below the cut.
        let mut budget = n_faults;
        let mut limit = n; // faults must span indices strictly below this
        if n >= 64 && budget > 0 && rng.gen_range(0u32..2) == 1 {
            let lo = n * 7 / 8;
            let record = rng.gen_range(lo..n - 1);
            let rec_len = 16 + records[record].data.len();
            let keep = rng.gen_range(1..rec_len);
            if reserve(&mut blocked, record, record) {
                faults.push(Fault::MidStreamEof { record, keep });
                limit = record.saturating_sub(SPACING + 1);
                budget -= 1;
            }
        }

        'outer: while budget > 0 {
            // Try a bounded number of placements before giving up on this
            // fault slot (small captures may simply be full).
            for _ in 0..200 {
                let kind = rng.gen_range(0u32..7);
                let placed = match kind {
                    0 => {
                        let i = rng.gen_range(0..limit);
                        reserve(&mut blocked, i, i).then_some(Fault::Drop { record: i })
                    }
                    1 => {
                        let i = rng.gen_range(0..limit);
                        reserve(&mut blocked, i, i).then_some(Fault::Duplicate { record: i })
                    }
                    2 => {
                        let i = rng.gen_range(0..limit);
                        let len = records[i].data.len();
                        if !is_flow[i] || len < 15 {
                            continue;
                        }
                        reserve(&mut blocked, i, i).then(|| Fault::TruncateFrame {
                            record: i,
                            keep: rng.gen_range(14..len),
                        })
                    }
                    3 => {
                        let i = rng.gen_range(0..limit);
                        let len = records[i].data.len();
                        if !is_flow[i] || len < 15 {
                            continue;
                        }
                        reserve(&mut blocked, i, i).then(|| Fault::CorruptFrameByte {
                            record: i,
                            offset: rng.gen_range(14..len),
                        })
                    }
                    4 => {
                        if limit < 4 {
                            continue;
                        }
                        // Needs two clean records after it for the
                        // recovering reader's chain validation.
                        let i = rng.gen_range(1..limit.min(n - 2) - 1);
                        reserve(&mut blocked, i, i).then_some(Fault::BadRecordLength { record: i })
                    }
                    5 => {
                        let len = rng.gen_range(3..=5usize);
                        if limit < len + 2 {
                            continue;
                        }
                        let start = rng.gen_range(1..limit - len);
                        // Strictly increasing boundaries and distinct
                        // timestamps inside the window, with a span small
                        // enough that reordering stays below any skew
                        // tolerance.
                        let w: Vec<f64> = (0..len).map(|j| records[start + j].ts).collect();
                        let strictly_inc = records[start - 1].ts < w[0]
                            && w.windows(2).all(|p| p[0] < p[1])
                            && w[len - 1] < records[start + len].ts;
                        if !strictly_inc || w[len - 1] - w[0] >= 15.0 {
                            continue;
                        }
                        if !reserve(&mut blocked, start, start + len - 1) {
                            continue;
                        }
                        let mut perm: Vec<usize> = (0..len).collect();
                        // Fisher-Yates, re-drawn until non-identity.
                        loop {
                            for j in (1..len).rev() {
                                let k = rng.gen_range(0..=j);
                                perm.swap(j, k);
                            }
                            if perm.iter().enumerate().any(|(j, &p)| j != p) {
                                break;
                            }
                        }
                        Some(Fault::ReorderWindow { start, perm })
                    }
                    _ => {
                        let run = rng.gen_range(2..=6usize);
                        if limit < run + 2 {
                            continue;
                        }
                        let start = rng.gen_range(1..limit - run);
                        // Shifted timestamps must stay positive, land well
                        // below the gate's high-water mark, and must not
                        // drag past it either.
                        let anchor = records[start - 1].ts;
                        let ok = (0..run).all(|j| {
                            let t = records[start + j].ts;
                            t >= CLOCK_JUMP_DELTA + 10.0 && t <= anchor + 200.0
                        });
                        if !ok {
                            continue;
                        }
                        reserve(&mut blocked, start, start + run - 1)
                            .then_some(Fault::ClockJumpBack { start, run })
                    }
                };
                if let Some(f) = placed {
                    faults.push(f);
                    budget -= 1;
                    continue 'outer;
                }
            }
            break; // capture is saturated
        }

        // Ground truth: survivors and expected counters.
        let mut surviving = vec![true; n];
        let mut expected = ExpectedCounts::default();
        for f in &faults {
            match f {
                Fault::Drop { record } => surviving[*record] = false,
                Fault::Duplicate { .. } => expected.duplicates += 1,
                Fault::TruncateFrame { record, .. } | Fault::CorruptFrameByte { record, .. } => {
                    surviving[*record] = false;
                    expected.corrupt_frames += 1;
                }
                Fault::BadRecordLength { record } => {
                    surviving[*record] = false;
                    expected.bad_record_headers += 1;
                    expected.resyncs += 1;
                }
                Fault::ReorderWindow { start, perm } => {
                    let desc = perm
                        .windows(2)
                        .filter(|p| records[start + p[1]].ts < records[start + p[0]].ts)
                        .count();
                    expected.reordered += desc as u64;
                }
                Fault::ClockJumpBack { start, run } => {
                    for s in &mut surviving[*start..start + run] {
                        *s = false;
                    }
                    expected.clock_skew_drops += *run as u64;
                }
                Fault::MidStreamEof { record, .. } => {
                    for s in &mut surviving[*record..] {
                        *s = false;
                    }
                    expected.truncated_tail += 1;
                }
            }
        }

        FaultPlan {
            seed,
            faults,
            expected,
            surviving,
        }
    }

    /// Which original records a correct lossy ingest still yields.
    pub fn surviving(&self) -> &[bool] {
        &self.surviving
    }

    /// The clean capture restricted to surviving records — the reference
    /// side of the differential test.
    pub fn surviving_records(&self, records: &[PcapRecord]) -> Vec<PcapRecord> {
        records
            .iter()
            .zip(&self.surviving)
            .filter(|(_, &s)| s)
            .map(|(r, _)| r.clone())
            .collect()
    }

    /// Serialize the capture with every fault applied: the corrupted byte
    /// stream a tolerant ingest must survive.
    pub fn corrupt(&self, records: &[PcapRecord]) -> Vec<u8> {
        let n = records.len();
        // Per-record modifiers (fault spans are disjoint by construction).
        #[derive(Clone, Copy)]
        enum Modifier {
            None,
            Drop,
            Duplicate,
            Truncate(usize),
            FlipByte(usize),
            BadLength,
            Eof(usize),
        }
        let mut modifier = vec![Modifier::None; n];
        let mut ts_shift = vec![0.0f64; n];
        let mut order: Vec<usize> = (0..n).collect();
        for f in &self.faults {
            match f {
                Fault::Drop { record } => modifier[*record] = Modifier::Drop,
                Fault::Duplicate { record } => modifier[*record] = Modifier::Duplicate,
                Fault::TruncateFrame { record, keep } => {
                    modifier[*record] = Modifier::Truncate(*keep)
                }
                Fault::CorruptFrameByte { record, offset } => {
                    modifier[*record] = Modifier::FlipByte(*offset)
                }
                Fault::BadRecordLength { record } => modifier[*record] = Modifier::BadLength,
                Fault::MidStreamEof { record, keep } => modifier[*record] = Modifier::Eof(*keep),
                Fault::ReorderWindow { start, perm } => {
                    let orig: Vec<usize> = order[*start..start + perm.len()].to_vec();
                    for (j, &p) in perm.iter().enumerate() {
                        order[start + j] = orig[p];
                    }
                }
                Fault::ClockJumpBack { start, run } => {
                    for t in &mut ts_shift[*start..start + run] {
                        *t = -CLOCK_JUMP_DELTA;
                    }
                }
            }
        }

        let mut out = pcap::global_header().to_vec();
        for &i in &order {
            let ts = records[i].ts + ts_shift[i];
            let data = &records[i].data;
            let len = data.len() as u32;
            let header = pcap::record_header(ts, len, len);
            match modifier[i] {
                Modifier::None => {
                    out.extend_from_slice(&header);
                    out.extend_from_slice(data);
                }
                Modifier::Drop => {}
                Modifier::Duplicate => {
                    for _ in 0..2 {
                        out.extend_from_slice(&header);
                        out.extend_from_slice(data);
                    }
                }
                Modifier::Truncate(keep) => {
                    out.extend_from_slice(&pcap::record_header(ts, keep as u32, len));
                    out.extend_from_slice(&data[..keep]);
                }
                Modifier::FlipByte(offset) => {
                    out.extend_from_slice(&header);
                    let at = out.len() + offset;
                    out.extend_from_slice(data);
                    out[at] ^= 0xff;
                }
                Modifier::BadLength => {
                    // The frame bytes follow the mangled header as they
                    // would have on disk.
                    out.extend_from_slice(&pcap::record_header(ts, MANGLED_INCL_LEN, len));
                    out.extend_from_slice(data);
                }
                Modifier::Eof(keep) => {
                    out.extend(header.iter().chain(data).take(keep));
                    return out;
                }
            }
        }
        out
    }
}

/// Serialize records into a clean pcap byte stream (the reference side of
/// the differential test) through the header encoders
/// [`behaviot_net::pcap::PcapWriter`] uses, so the bytes are the writer's.
/// A timestamp the writer refuses is written with saturated seconds
/// instead ([`behaviot_net::pcap::record_header`]).
pub fn write_pcap(records: &[PcapRecord]) -> Vec<u8> {
    let mut out = pcap::global_header().to_vec();
    for r in records {
        let len = r.data.len() as u32;
        out.extend_from_slice(&pcap::record_header(r.ts, len, len));
        out.extend_from_slice(&r.data);
    }
    out
}

/// Apply one deterministic byte-level mutation to an arbitrary buffer —
/// the corruption primitive the model-store contract tests reuse. `kind`
/// selects the mutation family (`kind % 3`): 0 XOR-flips the byte at
/// `pos % len` (`value | 1` guarantees the byte actually changes), 1
/// inserts `value` at `pos % (len + 1)`, 2 truncates the buffer to
/// `pos % len` bytes. An empty buffer maps every kind to an insert so the
/// mutation is never a no-op.
pub fn mutate_bytes(buf: &mut Vec<u8>, kind: u8, pos: usize, value: u8) {
    if buf.is_empty() {
        buf.push(value);
        return;
    }
    match kind % 3 {
        0 => {
            let i = pos % buf.len();
            buf[i] ^= value | 1;
        }
        1 => {
            let i = pos % (buf.len() + 1);
            buf.insert(i, value);
        }
        _ => {
            let i = pos % buf.len();
            buf.truncate(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::gen::{capture_to_frames, GenOptions, TrafficGenerator};
    use behaviot_flows::{classify_frame, FrameClass};
    use behaviot_net::pcap::PcapWriter;

    fn sim_records() -> Vec<PcapRecord> {
        let catalog = Catalog::standard();
        let g = TrafficGenerator::new(&catalog, 0xFA17);
        let cap = g.generate(0.0, 900.0, &[], &GenOptions::default());
        capture_to_frames(&cap, &catalog)
    }

    fn flow_mask(records: &[PcapRecord]) -> Vec<bool> {
        records
            .iter()
            .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
            .collect()
    }

    #[test]
    fn mutate_bytes_always_changes_buffer() {
        for kind in 0..6u8 {
            for pos in [0usize, 1, 7, 100] {
                for value in [0u8, 1, 0x80, 0xFF] {
                    let orig: Vec<u8> = (0..13).collect();
                    let mut buf = orig.clone();
                    mutate_bytes(&mut buf, kind, pos, value);
                    assert_ne!(buf, orig, "kind={kind} pos={pos} value={value}");
                }
            }
        }
        let mut empty = Vec::new();
        mutate_bytes(&mut empty, 2, 0, 9);
        assert_eq!(empty, vec![9]);
    }

    #[test]
    fn write_pcap_matches_pcap_writer() {
        let records = sim_records();
        let slice = &records[..records.len().min(64)];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in slice {
            w.write_record(r).unwrap();
        }
        assert_eq!(write_pcap(slice), w.finish().unwrap());
    }

    #[test]
    fn same_seed_same_plan() {
        let records = sim_records();
        let mask = flow_mask(&records);
        let a = FaultPlan::generate(42, &records, &mask, 16);
        let b = FaultPlan::generate(42, &records, &mask, 16);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &records, &mask, 16);
        assert_ne!(a.faults, c.faults);
        assert_eq!(a.corrupt(&records), b.corrupt(&records));
    }

    #[test]
    fn plans_place_requested_faults_with_spacing() {
        let records = sim_records();
        let mask = flow_mask(&records);
        let plan = FaultPlan::generate(7, &records, &mask, 16);
        assert!(
            plan.faults.len() >= 12,
            "only {} of 16 faults fit on {} records",
            plan.faults.len(),
            records.len()
        );
        // Spans are pairwise separated by at least SPACING records.
        let mut spans: Vec<(usize, usize)> = plan.faults.iter().map(Fault::span).collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(
                w[1].0 > w[0].1 + SPACING,
                "faults too close: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn zero_faults_is_identity() {
        let records = sim_records();
        let mask = flow_mask(&records);
        let plan = FaultPlan::generate(1, &records, &mask, 0);
        assert!(plan.faults.is_empty());
        assert_eq!(plan.expected, ExpectedCounts::default());
        assert!(plan.surviving().iter().all(|&s| s));
        assert_eq!(plan.corrupt(&records), write_pcap(&records));
    }

    #[test]
    fn corrupted_stream_ingests_to_ground_truth() {
        use behaviot_flows::ingest::{ingest_pcap_bytes, IngestOptions};
        let records = sim_records();
        let mask = flow_mask(&records);
        let plan = FaultPlan::generate(5, &records, &mask, 12);
        assert!(!plan.faults.is_empty());

        let corrupted = ingest_pcap_bytes(&plan.corrupt(&records), &IngestOptions::default())
            .expect("lossy ingest must not error");
        assert!(
            plan.expected.matches(&corrupted.report),
            "expected {:?}\nactual {}",
            plan.expected,
            corrupted.report
        );

        let reference = ingest_pcap_bytes(
            &write_pcap(&plan.surviving_records(&records)),
            &IngestOptions::default(),
        )
        .expect("reference ingest must not error");
        assert!(reference.report.is_clean());
        assert_eq!(corrupted.packets, reference.packets);
    }
}
