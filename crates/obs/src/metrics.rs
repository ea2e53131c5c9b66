//! Deterministic metrics registry: sharded counters, gauges, and
//! log-bucketed histograms.
//!
//! # Determinism contract
//!
//! A metric snapshot taken after a pipeline run must be **byte-identical**
//! under `Parallelism::Off`, `Fixed(N)`, and `Auto`. Two rules make that
//! hold:
//!
//! 1. **Only order-independent updates.** Counters and histograms are sums
//!    of integer increments; bucket counts, value sums, and min/max are all
//!    commutative, so the total is the same no matter which worker recorded
//!    which share. No metric records wall-clock time or scheduling
//!    artifacts (which worker ran what, how many workers ran).
//! 2. **Deterministic aggregation order.** Sharded storage is merged in
//!    shard-index order and snapshots list metrics in name order (mirroring
//!    `behaviot-par`'s input-order join), so even representation-level
//!    choices (which bucket lines appear, in what order) cannot drift.
//!
//! There is one metric class: every registered metric obeys both rules and
//! appears in every snapshot. Recording is always on.
//!
//! # Hot-path cost
//!
//! A counter increment is one relaxed `fetch_add` on a cache-line-padded
//! shard chosen per thread, so unrelated workers do not contend. Per-packet
//! loops still should not touch the registry at all: they accumulate
//! locally (e.g. in `IngestReport`) and publish totals once per run.
//!
//! # Poisoned locks
//!
//! The registry lock guards only the name → handle map, which no panic can
//! leave half-updated, so a lock poisoned by a panicking thread is used as
//! is: a panic elsewhere never takes the metrics down with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// Number of shards per counter. Threads are dealt shard indices
/// round-robin, so up to this many workers increment without sharing a
/// cache line.
const N_SHARDS: usize = 16;

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `i ≥ 1`
/// holds values in `[2^(i−1), 2^i)`.
const N_BUCKETS: usize = 65;

/// One cache-line-padded atomic cell, so per-thread shards of the same
/// counter do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

fn thread_shard() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) as usize % N_SHARDS;
            s.set(v);
        }
        v
    })
}

/// A monotonically increasing sum of `u64` increments. Cheap to clone
/// (shared handle); increments from any thread land on a per-thread shard.
#[derive(Debug, Clone)]
pub struct Counter(Arc<[PaddedU64; N_SHARDS]>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total, merging shards in shard-index order.
    pub fn value(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in self.0.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins signed value (sizes, devices per health state).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed histogram of `u64` values. Bucket 0 counts exact zeros;
/// bucket `i ≥ 1` counts values in `[2^(i−1), 2^i)`. All updates
/// (bucket counts, sum, min, max) are commutative, so parallel recording
/// aggregates deterministically.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Bucket index of a value: 0 for 0, else `64 − leading_zeros(v)`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive-exclusive bounds `[lo, hi)` of bucket `i` (`hi` saturates at
/// `u64::MAX` for the top bucket).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { 1u64 << i };
        (lo, hi)
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Snapshot of the histogram state.
    pub fn value(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                let (lo, hi) = bucket_bounds(i);
                buckets.push((lo, hi, c));
                count += c;
            }
        }
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.0.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.0.max.load(Ordering::Relaxed)),
            buckets,
        }
    }

    /// p50/p95/p99 of the current state (`None` while empty). Shorthand
    /// for `self.value().summary()`.
    pub fn summary(&self) -> Option<HistogramSummary> {
        self.value().summary()
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.sum.store(0, Ordering::Relaxed);
        self.0.min.store(u64::MAX, Ordering::Relaxed);
        self.0.max.store(0, Ordering::Relaxed);
    }
}

/// Aggregated histogram state as reported in snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (`None` when empty).
    pub min: Option<u64>,
    /// Largest recorded value (`None` when empty).
    pub max: Option<u64>,
    /// Non-empty buckets as `(lo, hi_exclusive, count)`, ascending.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// The p50/p95/p99 view of a histogram — what reporting surfaces
/// (`fleet-health`, the snapshot differ) print instead of raw buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Median upper-bound estimate.
    pub p50: u64,
    /// 95th-percentile upper-bound estimate.
    pub p95: u64,
    /// 99th-percentile upper-bound estimate.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0 < q ≤ 1`): the
    /// inclusive upper bound of the first bucket whose cumulative count
    /// reaches rank `⌈q·count⌉`, clamped to the observed maximum. Exact
    /// when every value in that bucket equals its bound (e.g. all-zero
    /// recordings); otherwise conservative by at most the bucket width —
    /// the inherent resolution of log2 buckets. `None` when the histogram
    /// is empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(_, hi, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let bound = hi - 1;
                return Some(self.max.map_or(bound, |mx| bound.min(mx)));
            }
        }
        self.max
    }

    /// p50/p95/p99 in one call; `None` when the histogram is empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        Some(HistogramSummary {
            p50: self.quantile(0.50)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
        })
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time, name-ordered view of the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Counter total by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Gauge value by name, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// Histogram state by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }

    /// Render the snapshot as JSON Lines: one `{"metric": ...}` object per
    /// line, in name order. The rendering is byte-deterministic (integer
    /// values only, stable ordering), which is what the parallel-snapshot
    /// equality tests compare.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            out.push_str("{\"metric\":");
            crate::json::write_str(&mut out, name);
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{}",
                        h.count, h.sum
                    );
                    match (h.min, h.max) {
                        (Some(mn), Some(mx)) => {
                            let _ = write!(out, ",\"min\":{mn},\"max\":{mx}");
                        }
                        _ => out.push_str(",\"min\":null,\"max\":null"),
                    }
                    out.push_str(",\"buckets\":[");
                    for (i, (lo, hi, c)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{lo},{hi},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// The registry: named metrics with deterministic snapshot semantics.
///
/// A process-global instance is available through
/// [`crate::metrics()`]; unit tests may build private registries.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<&'static str, Metric>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to the name → handle map. No panic can leave the map
    /// half-updated, so a poisoned lock is used as is.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<&'static str, Metric>> {
        self.metrics.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, name: &'static str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.read().get(name) {
            return m.clone();
        }
        let mut map = self.metrics.write().unwrap_or_else(PoisonError::into_inner);
        map.entry(name).or_insert_with(make).clone()
    }

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        match self.register(name, || Metric::Counter(Counter(Default::default()))) {
            Metric::Counter(c) => c,
            m => panic!("metric {name:?} already registered as {}", m.kind()),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge(Default::default()))) {
            Metric::Gauge(g) => g,
            m => panic!("metric {name:?} already registered as {}", m.kind()),
        }
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self.register(name, || {
            Metric::Histogram(Histogram(Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h,
            m => panic!("metric {name:?} already registered as {}", m.kind()),
        }
    }

    /// Zero every registered metric, keeping registrations (and shared
    /// handles) valid. Used by tests that compare per-run snapshots.
    pub fn reset(&self) {
        for m in self.read().values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Every registered metric, in name order. Byte-identical (via
    /// [`MetricsSnapshot::to_jsonl`]) across thread policies.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self
            .read()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.value()),
                };
                (name.to_string(), v)
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let r = MetricsRegistry::new();
        let c = r.counter("t.counter");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        assert_eq!(r.snapshot().counter("t.counter"), Some(4000));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.h");
        for v in [0u64, 1, 1, 3, 4, 7, 1000] {
            h.record(v);
        }
        let s = h.value();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1016);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(1000));
        // 0 -> [0,1); 1,1 -> [1,2); 3 -> [2,4); 4,7 -> [4,8); 1000 -> [512,1024)
        assert_eq!(
            s.buckets,
            vec![(0, 1, 1), (1, 2, 2), (2, 4, 1), (4, 8, 2), (512, 1024, 1)]
        );
    }

    #[test]
    fn quantile_summary_tracks_bucket_bounds() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.q");
        assert_eq!(h.summary(), None);
        // 90 small values in [4,8), 9 in [64,128), 1 at 1000.
        for _ in 0..90 {
            h.record(5);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(1000);
        let s = h.value();
        assert_eq!(s.quantile(0.50), Some(7)); // bucket [4,8) upper bound
        assert_eq!(s.quantile(0.95), Some(127)); // bucket [64,128)
        assert_eq!(s.quantile(1.0), Some(1000)); // clamped to observed max
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.5), None);
        let sum = h.summary().unwrap();
        assert_eq!((sum.p50, sum.p95, sum.p99), (7, 127, 127));
        // All-zero recordings: the estimate is exact.
        let z = r.histogram("t.z");
        z.record(0);
        z.record(0);
        assert_eq!(z.summary().unwrap().p99, 0);
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("z.last").add(3);
        r.counter("a.first").add(1);
        r.gauge("m.gauge").set(-7);
        let h = r.histogram("m.hist");
        h.record(5);
        let jsonl = r.snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"metric\":\"a.first\""));
        assert!(lines[3].starts_with("{\"metric\":\"z.last\""));
        assert_eq!(
            lines[1],
            "{\"metric\":\"m.gauge\",\"type\":\"gauge\",\"value\":-7}"
        );
        assert_eq!(
            lines[2],
            "{\"metric\":\"m.hist\",\"type\":\"histogram\",\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"buckets\":[[4,8,1]]}"
        );
        // Taking the snapshot twice renders identically.
        assert_eq!(jsonl, r.snapshot().to_jsonl());
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = MetricsRegistry::new();
        let c = r.counter("t.c");
        c.add(9);
        r.reset();
        assert_eq!(c.value(), 0);
        c.add(2);
        assert_eq!(r.snapshot().counter("t.c"), Some(2));
    }

    #[test]
    fn poisoned_lock_still_serves() {
        let r = MetricsRegistry::new();
        let before = r.counter("t.before");
        let poisoned = std::panic::catch_unwind(|| {
            let _guard = r.metrics.write().unwrap();
            panic!("poison the registry lock");
        });
        assert!(poisoned.is_err() && r.metrics.is_poisoned());
        let after = r.counter("t.after");
        before.add(2);
        after.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("t.before"), Some(2));
        assert_eq!(snap.counter("t.after"), Some(1));
        r.reset();
        assert_eq!(r.snapshot().counter("t.before"), Some(0));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("t.x");
        let _ = r.gauge("t.x");
    }
}
