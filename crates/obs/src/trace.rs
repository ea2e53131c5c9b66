//! Span tracing: scoped guards with monotonic timing and a Chrome Trace
//! Event Format exporter.
//!
//! Spans measure *where time goes* — pcap ingest, flow assembly, model
//! training — and are explicitly **outside** the determinism contract:
//! durations come from a wall clock and vary run to run. Anything that must
//! be reproducible belongs in the metrics registry instead (see
//! [`crate::metrics`]). Tests that assert on exporter bytes swap the
//! tracer's clock for a [`crate::VirtualClock`].
//!
//! The API is guard-based: [`Tracer::span`] (or the [`crate::span!`] macro)
//! returns a [`SpanGuard`] that records a completed span when dropped. When
//! tracing is disabled the guard is inert and costs one relaxed atomic load
//! to create.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::clock::{Clock, MonotonicClock};

/// A span field value. Integers dominate (counts, sizes); strings carry
/// labels like device names.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (diagnostics only — never feeds deterministic output).
    F64(f64),
    /// Owned string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name, e.g. `"ingest.pcap"`.
    pub name: &'static str,
    /// Recording thread (small per-process ordinal, not an OS tid).
    pub tid: u64,
    /// Start time in clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached `(key, value)` fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|t| {
        let mut v = t.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

/// Collects completed spans from all threads. A process-global instance is
/// available through [`crate::tracer`].
pub struct Tracer {
    enabled: AtomicBool,
    clock: RwLock<Arc<dyn Clock>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("spans", &self.spans().len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer on a [`MonotonicClock`]. Tracing is opt-in
    /// (`--trace` / `BEHAVIOT_TRACE`), unlike metrics, which always record.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            clock: RwLock::new(Arc::new(MonotonicClock::new())),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is span recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Replace the time source (tests install a [`crate::VirtualClock`]).
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *self.clock.write().unwrap_or_else(PoisonError::into_inner) = clock;
    }

    /// Read the clock. Swapping an `Arc` cannot be left half-done, so a
    /// poisoned lock is used as is.
    fn now_ns(&self) -> u64 {
        self.clock
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .now_ns()
    }

    /// The span buffer. A panic cannot leave the `Vec` half-updated, so a
    /// poisoned lock is used as is.
    fn spans(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span. The returned guard records on drop; inert (and nearly
    /// free) when tracing is disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_with(name, Vec::new())
    }

    /// Open a span with initial fields. Prefer the [`crate::span!`] macro,
    /// which skips field construction entirely when tracing is off.
    pub fn span_with(
        &self,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard::inactive();
        }
        let start_ns = self.now_ns();
        SpanGuard {
            tracer: Some(self),
            name,
            start_ns,
            fields,
        }
    }

    /// Take all recorded spans, leaving the buffer empty.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans())
    }

    /// Discard all recorded spans.
    pub fn clear(&self) {
        self.spans().clear();
    }

    fn finish(&self, name: &'static str, start_ns: u64, fields: Vec<(&'static str, FieldValue)>) {
        let end_ns = self.now_ns();
        let rec = SpanRecord {
            name,
            tid: thread_ordinal(),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            fields,
        };
        self.spans().push(rec);
    }

    /// Render all recorded spans (without draining them) as a Chrome Trace
    /// Event Format JSON array of complete (`"ph":"X"`) events, loadable in
    /// Perfetto / `chrome://tracing`. Timestamps are microseconds with
    /// nanosecond precision kept as three decimals.
    pub fn export_chrome(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            crate::json::write_str(&mut out, s.name);
            out.push_str(",\"cat\":\"behaviot\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&s.tid.to_string());
            out.push_str(",\"ts\":");
            write_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            write_us(&mut out, s.dur_ns);
            out.push_str(",\"args\":{");
            for (j, (k, v)) in s.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                crate::json::write_str(&mut out, k);
                out.push(':');
                match v {
                    FieldValue::U64(n) => out.push_str(&n.to_string()),
                    FieldValue::I64(n) => out.push_str(&n.to_string()),
                    FieldValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
                    FieldValue::F64(_) => out.push_str("null"),
                    FieldValue::Str(s) => crate::json::write_str(&mut out, s),
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Microseconds with 3 decimal places (nanosecond precision), e.g.
/// `1234` ns → `1.234`.
fn write_us(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1000).to_string());
    out.push('.');
    out.push_str(&format!("{:03}", ns % 1000));
}

/// Guard for an open span; records the completed span when dropped.
#[must_use = "a span guard measures the scope it lives in"]
pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl<'t> SpanGuard<'t> {
    /// A guard that records nothing (tracing disabled).
    pub fn inactive() -> Self {
        Self {
            tracer: None,
            name: "",
            start_ns: 0,
            fields: Vec::new(),
        }
    }

    /// Attach a field to the span (no-op when inactive).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.tracer.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.finish(self.name, self.start_ns, std::mem::take(&mut self.fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let mut g = t.span("x");
            g.record("k", 1u64);
        }
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn spans_record_fields_and_durations() {
        let t = Tracer::new();
        let clock = Arc::new(VirtualClock::new(1_000));
        t.set_clock(clock.clone());
        t.set_enabled(true);
        {
            let mut g = t.span_with("stage", vec![("items", FieldValue::U64(5))]);
            clock.advance(2_500);
            g.record("label", "dev");
        }
        let spans = t.take_spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.name, "stage");
        assert_eq!(s.start_ns, 1_000);
        assert_eq!(s.dur_ns, 2_500);
        assert_eq!(s.fields.len(), 2);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let t = Tracer::new();
        let clock = Arc::new(VirtualClock::new(0));
        t.set_clock(clock.clone());
        t.set_enabled(true);
        {
            let _g = t.span_with("a", vec![("n", FieldValue::U64(3))]);
            clock.advance(1_234);
        }
        {
            let _g = t.span("b");
            clock.advance(500);
        }
        let json = t.export_chrome();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1.234"));
        assert!(json.contains("\"n\":3"));
        // Balanced braces/brackets (cheap structural sanity check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn write_us_pads_nanos() {
        let mut s = String::new();
        write_us(&mut s, 1_002_003);
        assert_eq!(s, "1002.003");
        s.clear();
        write_us(&mut s, 7);
        assert_eq!(s, "0.007");
    }
}
