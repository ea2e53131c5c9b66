//! Ingest accounting: what a lossy-tolerant run ignored, and why.
//!
//! Real gateway captures are hostile — truncated records, mangled headers,
//! duplicated and reordered packets, clock steps. The ingest path (the
//! pcap scan of [`crate::pcap::PcapScan`] and `behaviot_flows::ingest`)
//! never aborts on such input; instead every skipped byte and dropped
//! record is counted here, per category, with the first few occurrences
//! kept as samples for diagnosis. A clean capture must produce an all-zero
//! report — recovery is required to be invisible when nothing is wrong.

use std::fmt;

/// Number of anomaly samples retained per report (first-N policy).
pub const MAX_SAMPLES: usize = 8;

/// Registry metric names mirroring [`IngestReport::counters`], in the same
/// stable order. [`IngestReport::emit_metrics`] publishes under these names.
pub const METRIC_NAMES: [&str; 9] = [
    "ingest.bad_record_headers",
    "ingest.resyncs",
    "ingest.resync_skipped_bytes",
    "ingest.truncated_tail",
    "ingest.corrupt_frames",
    "ingest.duplicates",
    "ingest.clock_skew_drops",
    "ingest.reordered",
    "ingest.clamped_events",
];

/// The anomaly categories the ingest path distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestCategory {
    /// A pcap record header failed plausibility checks (mangled length or
    /// timestamp fields) and a resynchronization scan was started.
    BadRecordHeader,
    /// A resynchronization scan found the next plausible record header.
    Resync,
    /// The byte stream ended in the middle of a record (mid-stream EOF).
    TruncatedTail,
    /// An IPv4 TCP/UDP frame failed structural or checksum validation.
    CorruptFrame,
    /// A record was an exact duplicate of a recently seen record.
    Duplicate,
    /// A record's timestamp was far behind the stream high-water mark
    /// (backwards clock jump) and the record was dropped.
    ClockSkew,
    /// A record arrived out of timestamp order but within tolerance; it was
    /// accepted (informational — nothing was dropped).
    Reordered,
    /// The event-inference stage clamped a non-finite or negative flow
    /// duration instead of panicking.
    ClampedEvent,
}

impl IngestCategory {
    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            IngestCategory::BadRecordHeader => "bad_record_header",
            IngestCategory::Resync => "resync",
            IngestCategory::TruncatedTail => "truncated_tail",
            IngestCategory::CorruptFrame => "corrupt_frame",
            IngestCategory::Duplicate => "duplicate",
            IngestCategory::ClockSkew => "clock_skew",
            IngestCategory::Reordered => "reordered",
            IngestCategory::ClampedEvent => "clamped_event",
        }
    }
}

/// One retained anomaly occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestSample {
    /// Category of the anomaly.
    pub category: IngestCategory,
    /// Index of the record (or event) at which it was observed, counting
    /// records as the reader yielded them.
    pub index: u64,
    /// Timestamp associated with the anomaly, when one exists.
    pub ts: f64,
    /// Human-readable detail.
    pub detail: &'static str,
}

/// Per-category drop/resync/clamp counters plus first-N samples.
///
/// Threaded from `net` (pcap recovery) through `flows` (frame
/// classification, dedup, clock-skew gate) to `core` (duration clamping)
/// and surfaced by the harness/bench binaries, so every run reports exactly
/// what it ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Implausible pcap record headers (each starts a resync scan).
    pub bad_record_headers: u64,
    /// Successful resynchronizations onto a plausible record header.
    pub resyncs: u64,
    /// Bytes skipped by resynchronization scans.
    pub resync_skipped_bytes: u64,
    /// Streams that ended mid-record.
    pub truncated_tail: u64,
    /// IPv4 TCP/UDP frames that failed structural/checksum validation.
    pub corrupt_frames: u64,
    /// Exact duplicate records dropped.
    pub duplicates: u64,
    /// Records dropped by the backwards-clock-skew gate.
    pub clock_skew_drops: u64,
    /// Records accepted despite arriving out of timestamp order.
    pub reordered: u64,
    /// Flow durations clamped by the event-inference stage.
    pub clamped_events: u64,
    /// First-N anomaly samples across all categories.
    pub samples: Vec<IngestSample>,
}

impl IngestReport {
    /// A fresh all-zero report.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing at all was ignored, dropped, clamped, or even
    /// reordered — the required outcome on clean input.
    pub fn is_clean(&self) -> bool {
        self.bad_record_headers == 0
            && self.resyncs == 0
            && self.resync_skipped_bytes == 0
            && self.truncated_tail == 0
            && self.corrupt_frames == 0
            && self.duplicates == 0
            && self.clock_skew_drops == 0
            && self.reordered == 0
            && self.clamped_events == 0
    }

    /// Number of records that were lost to corruption (categories that drop
    /// data; `reordered` and `clamped_events` do not lose records).
    pub fn dropped_records(&self) -> u64 {
        self.bad_record_headers
            + self.truncated_tail
            + self.corrupt_frames
            + self.duplicates
            + self.clock_skew_drops
    }

    /// Fraction of records lost, given the total number of records the
    /// stream was expected to carry (yielded + dropped).
    pub fn drop_frac(&self, records_total: u64) -> f64 {
        if records_total == 0 {
            0.0
        } else {
            self.dropped_records() as f64 / records_total as f64
        }
    }

    /// Record one anomaly, keeping the first [`MAX_SAMPLES`] as samples.
    pub fn note(&mut self, category: IngestCategory, index: u64, ts: f64, detail: &'static str) {
        match category {
            IngestCategory::BadRecordHeader => self.bad_record_headers += 1,
            IngestCategory::Resync => self.resyncs += 1,
            IngestCategory::TruncatedTail => self.truncated_tail += 1,
            IngestCategory::CorruptFrame => self.corrupt_frames += 1,
            IngestCategory::Duplicate => self.duplicates += 1,
            IngestCategory::ClockSkew => self.clock_skew_drops += 1,
            IngestCategory::Reordered => self.reordered += 1,
            IngestCategory::ClampedEvent => self.clamped_events += 1,
        }
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(IngestSample {
                category,
                index,
                ts,
                detail,
            });
        }
    }

    /// Fold another report into this one (samples keep the first-N policy).
    pub fn merge(&mut self, other: &IngestReport) {
        self.bad_record_headers += other.bad_record_headers;
        self.resyncs += other.resyncs;
        self.resync_skipped_bytes += other.resync_skipped_bytes;
        self.truncated_tail += other.truncated_tail;
        self.corrupt_frames += other.corrupt_frames;
        self.duplicates += other.duplicates;
        self.clock_skew_drops += other.clock_skew_drops;
        self.reordered += other.reordered;
        self.clamped_events += other.clamped_events;
        for s in &other.samples {
            if self.samples.len() >= MAX_SAMPLES {
                break;
            }
            self.samples.push(s.clone());
        }
    }

    /// Publish this report's counters into the global metrics registry as
    /// `ingest.*` counters (see [`METRIC_NAMES`]).
    ///
    /// The per-packet ingest loop accumulates into the report locally and
    /// calls this once per run, so the hot path never touches the registry.
    /// All nine counters are registered even when zero, keeping snapshot
    /// shape stable across clean and dirty runs.
    pub fn emit_metrics(&self) {
        let r = behaviot_obs::metrics();
        for (name, (_, v)) in METRIC_NAMES.iter().zip(self.counters()) {
            r.counter(name).add(v);
        }
    }

    /// One-line drop summary, e.g. `dropped 3 (0.125%)`, shared by the
    /// harness and chaos printouts.
    pub fn drop_summary(&self, records_total: u64) -> String {
        format!(
            "dropped {} ({:.3}%)",
            self.dropped_records(),
            self.drop_frac(records_total) * 100.0
        )
    }

    /// The category counters as `(label, count)` pairs, in a stable order
    /// (used by reports and by counter-equality assertions in tests).
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("bad_record_headers", self.bad_record_headers),
            ("resyncs", self.resyncs),
            ("resync_skipped_bytes", self.resync_skipped_bytes),
            ("truncated_tail", self.truncated_tail),
            ("corrupt_frames", self.corrupt_frames),
            ("duplicates", self.duplicates),
            ("clock_skew_drops", self.clock_skew_drops),
            ("reordered", self.reordered),
            ("clamped_events", self.clamped_events),
        ]
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "ingest: clean (nothing ignored)");
        }
        write!(f, "ingest:")?;
        for (label, n) in self.counters() {
            if n > 0 {
                write!(f, " {label}={n}")?;
            }
        }
        for s in &self.samples {
            write!(
                f,
                "\n  sample [{}] record {} ts {:.6}: {}",
                s.category.label(),
                s.index,
                s.ts,
                s.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_is_clean() {
        let r = IngestReport::new();
        assert!(r.is_clean());
        assert_eq!(r.dropped_records(), 0);
        assert_eq!(r.drop_frac(100), 0.0);
        assert_eq!(r.to_string(), "ingest: clean (nothing ignored)");
    }

    #[test]
    fn note_counts_and_samples() {
        let mut r = IngestReport::new();
        for i in 0..20 {
            r.note(IngestCategory::CorruptFrame, i, i as f64, "checksum");
        }
        r.note(IngestCategory::Reordered, 21, 21.0, "late");
        assert_eq!(r.corrupt_frames, 20);
        assert_eq!(r.reordered, 1);
        assert_eq!(r.samples.len(), MAX_SAMPLES);
        assert!(!r.is_clean());
        // reordered does not count as a drop
        assert_eq!(r.dropped_records(), 20);
        assert!((r.drop_frac(40) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_counters() {
        let mut a = IngestReport::new();
        a.note(IngestCategory::Duplicate, 0, 0.0, "dup");
        let mut b = IngestReport::new();
        b.note(IngestCategory::ClockSkew, 1, 1.0, "skew");
        b.resync_skipped_bytes = 7;
        a.merge(&b);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.clock_skew_drops, 1);
        assert_eq!(a.resync_skipped_bytes, 7);
        assert_eq!(a.samples.len(), 2);
    }

    #[test]
    fn emit_metrics_publishes_every_counter() {
        // One test fn (not several) because it exercises the process-global
        // registry; parallel sibling tests must not touch `ingest.*`.
        let mut r = IngestReport::new();
        r.note(IngestCategory::Duplicate, 2, 2.0, "dup");
        r.note(IngestCategory::Reordered, 3, 3.0, "late");
        r.resync_skipped_bytes = 11;
        behaviot_obs::metrics().reset();
        r.emit_metrics();
        let snap = behaviot_obs::metrics().snapshot();
        // All nine names registered, even zero ones, each with its value.
        for (name, (_, v)) in METRIC_NAMES.iter().zip(r.counters()) {
            assert_eq!(snap.counter(name), Some(v), "{name}");
        }
        assert_eq!(snap.counter("ingest.duplicates"), Some(1));
        assert_eq!(snap.counter("ingest.resync_skipped_bytes"), Some(11));
    }

    #[test]
    fn drop_summary_formats() {
        let mut r = IngestReport::new();
        r.note(IngestCategory::CorruptFrame, 0, 0.0, "checksum");
        assert_eq!(r.drop_summary(800), "dropped 1 (0.125%)");
    }

    #[test]
    fn display_lists_nonzero_counters() {
        let mut r = IngestReport::new();
        r.note(IngestCategory::BadRecordHeader, 3, 9.5, "len field mangled");
        let s = r.to_string();
        assert!(s.contains("bad_record_headers=1"));
        assert!(s.contains("record 3"));
        assert!(!s.contains("duplicates="));
    }
}
