//! Input generation. Everything here runs before and outside every timed
//! region: the simulator builds captures from the seed, renders them to
//! pcap bytes, and cuts them into one-hour windows. The program under test
//! only ever receives the bytes.

use behaviot_flows::{classify_frame, FrameClass};
use behaviot_net::pcap::PcapRecord;
use behaviot_sim::gen::capture_to_frames;
use behaviot_sim::{
    self as sim, Capture, Catalog, ExpectedCounts, Fault, FaultPlan, IncidentScript,
    UncontrolledConfig,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Window length of served days: captures are handed over one hour at a
/// time, the way a gateway rotates its capture files.
pub const WINDOW_S: f64 = 3600.0;

/// Window length of the lab captures. Half an hour gives a training run 87
/// windows, so that the p90 over two measuring processes' window times has
/// more than ten samples beyond it.
pub const LAB_WINDOW_S: f64 = 1800.0;

/// Lab-capture sizes for training: half an idle day, four activity sweeps
/// over every device, one day of routines.
pub const IDLE_DAYS: f64 = 0.5;
pub const ACTIVITY_REPS: usize = 4;
pub const ROUTINE_DAYS: usize = 1;

/// Seed of the lab captures the serving workloads' models are trained on.
/// The deployment is fixed, so that a serving run's cost varies with the
/// served days (drawn from `--seed`), not with the shape of its models.
pub const DEPLOYMENT_SEED: u64 = 1;

/// `train_lab` trains on the lab captures of `--seed` modulo this many lab
/// seeds, every one of which trains and saves without error.
const LAB_SEEDS: u64 = 64;

/// Lab seeds below [`LAB_SEEDS`] that cannot be trained: their activity
/// sweeps give a forest a split threshold halfway between two adjacent
/// floats, which rounds onto the larger, so one child leaf holds no sample
/// and its probability is NaN; `ModelStore::save` refuses it. Each is
/// replaced by the next seed.
const UNTRAINABLE_LAB_SEEDS: [u64; 1] = [60];

/// The lab seed `train_lab` generates its captures from for `seed`.
pub fn lab_seed(seed: u64) -> u64 {
    let mut lab = seed % LAB_SEEDS;
    while UNTRAINABLE_LAB_SEEDS.contains(&lab) {
        lab = (lab + 1) % LAB_SEEDS;
    }
    lab
}

/// Simulated days replayed per serving pass (24 windows each).
pub const SERVE_DAYS: usize = 3;

/// Faults injected into each window on `serve_faulty`.
pub const FAULTS_PER_WINDOW: usize = 16;

/// Further plans drawn for a window whose first plan leaves a resync
/// ambiguous (see [`ambiguous_resync`]).
const MAX_REDRAWS: u64 = 32;

/// The eight fault kinds a `FaultPlan` can place.
pub const FAULT_KINDS: usize = 8;

/// One hour of capture as pcap bytes.
pub struct Window {
    /// Simulated day index (serving) or capture index (training).
    pub day: usize,
    /// Window bounds in capture time.
    pub start: f64,
    pub end: f64,
    /// The pcap byte stream handed to the program.
    pub bytes: Vec<u8>,
    /// Stream-level ingest counters the window's corruption must produce
    /// (`Some` only on corrupted windows).
    pub expected: Option<ExpectedCounts>,
}

/// Which lab capture a training window belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LabCapture {
    Idle,
    Activity,
    Routine,
}

/// The labeled lab captures `train_lab` trains on.
pub struct LabInputs {
    /// Windows of all three captures, each tagged with its capture.
    pub windows: Vec<(LabCapture, Window)>,
    /// The activity capture's ground truth (packets dropped), for
    /// `label_flows`.
    pub activity_truth: Capture,
    /// Device display names of the testbed.
    pub names: HashMap<Ipv4Addr, String>,
}

/// The uncontrolled days a monitor serves.
pub struct ServeInputs {
    /// `SERVE_DAYS × 24` windows, chronological.
    pub windows: Vec<Window>,
    /// The incident script the days were generated with.
    pub incidents: IncidentScript,
    /// Distinct fault kinds placed across all windows (0 when clean).
    pub fault_kinds: usize,
}

/// Device display names by address.
pub fn device_names(catalog: &Catalog) -> HashMap<Ipv4Addr, String> {
    (0..catalog.devices.len())
        .map(|i| (catalog.device_ip(i), catalog.devices[i].name.clone()))
        .collect()
}

/// Cut a chronologically ordered record stream covering `[start, end)`
/// into windows of `len` seconds, rendering each with `render`.
fn windowed(
    records: &[PcapRecord],
    day: usize,
    (start, end): (f64, f64),
    len: f64,
    mut render: impl FnMut(&[PcapRecord]) -> (Vec<u8>, Option<ExpectedCounts>),
) -> Vec<Window> {
    let mut out = Vec::new();
    let mut lo = 0usize;
    let mut w_start = start;
    while w_start < end {
        let w_end = (w_start + len).min(end);
        let hi = lo + records[lo..].partition_point(|r| r.ts < w_end);
        let (bytes, expected) = render(&records[lo..hi]);
        out.push(Window {
            day,
            start: w_start,
            end: w_end,
            bytes,
            expected,
        });
        lo = hi;
        w_start = w_end;
    }
    out
}

fn clean(records: &[PcapRecord]) -> (Vec<u8>, Option<ExpectedCounts>) {
    (sim::write_pcap(records), None)
}

/// Generate the labeled idle, activity and routine captures.
pub fn lab(catalog: &Catalog, seed: u64) -> LabInputs {
    let idle = sim::idle_dataset(catalog, seed, IDLE_DAYS);
    let mut activity = sim::activity_dataset(catalog, seed + 1, ACTIVITY_REPS);
    let routine = sim::routine_dataset(catalog, seed + 2, ROUTINE_DAYS);
    let mut windows = Vec::new();
    for (i, (kind, cap)) in [
        (LabCapture::Idle, &idle),
        (LabCapture::Activity, &activity),
        (LabCapture::Routine, &routine),
    ]
    .into_iter()
    .enumerate()
    {
        let frames = capture_to_frames(cap, catalog);
        windows.extend(
            windowed(&frames, i, (cap.start, cap.end), LAB_WINDOW_S, clean)
                .into_iter()
                .map(|w| (kind, w)),
        );
    }
    activity.packets = Vec::new();
    LabInputs {
        windows,
        activity_truth: activity,
        names: device_names(catalog),
    }
}

/// Generate `days` uncontrolled days (scripted for a `script_days`
/// horizon) as hourly windows, corrupting each window with its own seeded
/// [`FaultPlan`] when `faulty`.
///
/// A window's plan depends on the seed, the day and the hour alone. A plan
/// is drawn again (with the next attempt number in its seed) only when its
/// corrupted bytes fail [`ambiguous_resync`], a rule on the bytes and the
/// pcap format, so the library under test never chooses its own inputs.
pub fn serve(
    catalog: &Catalog,
    seed: u64,
    days: usize,
    script_days: usize,
    faulty: bool,
) -> Result<ServeInputs, String> {
    let incidents = IncidentScript::paper_like_scaled(catalog, script_days);
    let cfg = UncontrolledConfig {
        incidents: incidents.clone(),
        ..Default::default()
    };
    let mut windows = Vec::new();
    let mut kinds = [false; FAULT_KINDS];
    let mut redraws = 0u64;
    let mut unplaceable = None;
    for day in 0..days {
        let cap = sim::uncontrolled_day(catalog, seed + 9, day, &cfg);
        let frames = capture_to_frames(&cap, catalog);
        let mut hour = 0u64;
        windows.extend(windowed(
            &frames,
            day,
            (cap.start, cap.end),
            WINDOW_S,
            |records| {
                hour += 1;
                if !faulty {
                    return clean(records);
                }
                let mask: Vec<bool> = records
                    .iter()
                    .map(|r| matches!(classify_frame(r.ts, &r.data), FrameClass::Flow(_)))
                    .collect();
                let mut attempt = 0u64;
                let (plan, bytes) = loop {
                    let plan_seed = seed ^ ((day as u64) << 32) ^ hour ^ (attempt << 48);
                    let plan = FaultPlan::generate(plan_seed, records, &mask, FAULTS_PER_WINDOW);
                    let bytes = plan.corrupt(records);
                    if !ambiguous_resync(&bytes) {
                        break (plan, bytes);
                    }
                    if attempt == MAX_REDRAWS {
                        unplaceable = Some((day, hour));
                        break (plan, bytes);
                    }
                    attempt += 1;
                };
                redraws += attempt;
                for f in &plan.faults {
                    kinds[fault_kind(f)] = true;
                }
                (bytes, Some(plan.expected))
            },
        ));
    }
    if let Some((day, hour)) = unplaceable {
        return Err(format!(
            "day {day} hour {hour}: no fault plan without an ambiguous resync in {} draws",
            MAX_REDRAWS + 1
        ));
    }
    if redraws > 0 {
        eprintln!("{redraws} fault plans drawn again: their resync was ambiguous");
    }
    Ok(ServeInputs {
        windows,
        incidents,
        fault_kinds: kinds.iter().filter(|&&k| k).count(),
    })
}

/// The `incl_len` a [`behaviot_sim::Fault::BadRecordLength`] writes.
const MANGLED_INCL_LEN: u32 = 0x4000_0000;

fn le32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes"))
}

/// Whether the 16 bytes at `at` pass the field checks of a classic pcap
/// record header as a recovering reader applies them: microseconds below
/// one second, a captured length between an Ethernet header and the
/// 65535-byte snaplen, and an original length at least that and at most
/// 256 KiB.
fn header_fields_plausible(b: &[u8], at: usize) -> bool {
    let (usec, incl, orig) = (le32(b, at + 4), le32(b, at + 8), le32(b, at + 12));
    usec < 1_000_000 && (14..=65_535).contains(&incl) && orig >= incl && orig <= 1 << 18
}

/// Whether a recovering reader could resynchronize somewhere other than on
/// the next true record after a mangled record header in the pcap stream
/// `b`.
///
/// A plan's ground truth assumes every resync lands on the next true
/// record. A scan that starts inside the mangled record can instead land on
/// bytes of its frame that read as a plausible header followed by another
/// plausible header, and then count drops the plan does not predict. This
/// rule flags every such position: field plausibility of the candidate and
/// of the header after it (or a stream end right behind it). It leaves out
/// the timestamp window a reader adds, so it flags a superset of the
/// positions a reader accepts.
pub fn ambiguous_resync(b: &[u8]) -> bool {
    let mut p = 24;
    while p + 16 <= b.len() {
        let (incl, orig) = (le32(b, p + 8), le32(b, p + 12));
        if incl != MANGLED_INCL_LEN {
            p += 16 + incl as usize;
            continue;
        }
        // The mangled header keeps the true length in `orig`.
        let next = p + 16 + orig as usize;
        for q in p + 1..next.min(b.len()) {
            if q + 16 > b.len() || !header_fields_plausible(b, q) {
                continue;
            }
            let end = q + 16 + le32(b, q + 8) as usize;
            if end <= b.len() && (b.len() - end < 16 || header_fields_plausible(b, end)) {
                return true;
            }
        }
        p = next;
    }
    false
}

fn fault_kind(f: &Fault) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A pcap record: header fields, then `data`.
    fn record(out: &mut Vec<u8>, incl: u32, orig: u32, data: &[u8]) {
        for v in [1_000u32, 0, incl, orig] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(data);
    }

    /// A stream of four 60-byte records, the second with a mangled length
    /// and `frame` as its bytes.
    fn stream(frame: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; 24];
        let filler = [0xffu8; 60];
        record(&mut out, 60, 60, &filler);
        record(&mut out, MANGLED_INCL_LEN, 60, frame);
        record(&mut out, 60, 60, &filler);
        record(&mut out, 60, 60, &filler);
        out
    }

    #[test]
    fn lab_seeds_stay_in_the_checked_range_and_skip_untrainable_ones() {
        assert_eq!(lab_seed(5), 5);
        assert_eq!(lab_seed(60), 61);
        assert_eq!(lab_seed(69), 5);
        assert_eq!(lab_seed(u64::MAX), 63);
        for seed in 0..3 * LAB_SEEDS {
            let lab = lab_seed(seed);
            assert!(lab < LAB_SEEDS && !UNTRAINABLE_LAB_SEEDS.contains(&lab));
        }
    }

    #[test]
    fn a_frame_without_header_lookalikes_resyncs_unambiguously() {
        assert!(!ambiguous_resync(&stream(&[0xff; 60])));
    }

    #[test]
    fn a_header_lookalike_chained_to_another_is_ambiguous() {
        let mut frame = vec![0xffu8; 8];
        record(&mut frame, 14, 14, &[0xff; 14]);
        record(&mut frame, 20, 20, &[]);
        frame.resize(60, 0xff);
        assert!(ambiguous_resync(&stream(&frame)));
    }

    #[test]
    fn a_lone_lookalike_is_not_ambiguous() {
        // The record after the lookalike does not start with a plausible
        // header, so a reader's chain validation rejects it.
        let mut frame = vec![0xffu8; 8];
        record(&mut frame, 14, 14, &[0xff; 14]);
        frame.resize(60, 0xff);
        assert!(!ambiguous_resync(&stream(&frame)));
    }

    #[test]
    fn streams_without_mangled_headers_or_cut_short_pass() {
        let clean = stream(&[0xff; 60]);
        let mut unmangled = clean.clone();
        unmangled[24 + 76 + 8..24 + 76 + 12].copy_from_slice(&60u32.to_le_bytes());
        assert!(!ambiguous_resync(&unmangled));
        assert!(!ambiguous_resync(&clean[..24 + 76 + 30]));
        assert!(!ambiguous_resync(&clean[..10]));
    }
}
