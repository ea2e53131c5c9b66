//! `behaviot-obs`: deterministic tracing spans + metrics registry for the
//! BehavIoT pipeline.
//!
//! Std-only (no external dependencies, per the workspace's vendored-shims
//! policy). Two complementary facilities with sharply different contracts:
//!
//! - **Metrics** ([`metrics()`], [`MetricsRegistry`]): counters, gauges and
//!   log-bucketed histograms whose snapshots are **byte-identical** under
//!   `Parallelism::Off/Fixed(N)/Auto`. Deterministic by construction —
//!   integer-only values, commutative updates, name-ordered snapshots.
//!   The registry always records; it has no on/off switch.
//! - **Spans** ([`tracer()`], [`Tracer`], [`span!`]): scoped wall-clock
//!   timing of pipeline stages, exported as Chrome Trace Event Format for
//!   Perfetto. Timing is inherently nondeterministic, so spans are opt-in
//!   (`--trace` / `BEHAVIOT_TRACE`) and never feed reproducible output.
//!
//! On top of the metrics registry sit the fleet-observability surfaces:
//! the [`ledger`] module (append-only deviation audit ledger sinks; see
//! DESIGN.md §15) and the [`openmetrics`] module (Prometheus/OpenMetrics
//! text exposition). Both inherit the metrics determinism contract.
//!
//! See `DESIGN.md` §10 for the span model and the deterministic-aggregation
//! rule.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod json;
pub mod ledger;
pub mod metrics;
pub mod openmetrics;
mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use ledger::{FileSink, LedgerSink, MemorySink, NullSink};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use trace::{FieldValue, SpanGuard, SpanRecord, Tracer};

use std::sync::OnceLock;

/// The process-global metrics registry. Pipeline stages register named
/// metrics here; harness binaries snapshot it after a run.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-global tracer. Disabled until a binary opts in via
/// `--trace`, `BEHAVIOT_TRACE`, or [`Tracer::set_enabled`].
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Open a scoped span on the global tracer:
///
/// ```
/// let items = 42usize;
/// {
///     let mut _span = behaviot_obs::span!("stage.name", items = items);
///     // ... work ...
///     _span.record("outputs", 7u64);
/// } // span recorded here (if tracing is enabled)
/// ```
///
/// Field values are anything with `Into<FieldValue>` (unsigned/signed
/// integers, `f64`, strings). When tracing is disabled the expansion costs
/// one relaxed atomic load and builds no fields.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let __tracer = $crate::tracer();
        if __tracer.enabled() {
            __tracer.span_with(
                $name,
                ::std::vec![$((::core::stringify!($k), $crate::FieldValue::from($v))),*],
            )
        } else {
            $crate::SpanGuard::inactive()
        }
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_compiles_with_and_without_fields() {
        // Global tracer is disabled by default: guards must be inert.
        {
            let _g = span!("test.plain");
        }
        {
            let mut g = span!("test.fields", count = 3usize, label = "x");
            g.record("more", 1u64);
        }
        assert!(crate::tracer().take_spans().is_empty());
    }

    #[test]
    fn global_registry_is_shared() {
        let c1 = crate::metrics().counter("lib.test.counter");
        let c2 = crate::metrics().counter("lib.test.counter");
        c1.add(2);
        c2.add(3);
        assert_eq!(c1.value(), 5);
    }
}
