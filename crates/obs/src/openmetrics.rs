//! OpenMetrics / Prometheus text-exposition rendering over
//! [`MetricsSnapshot`], plus the snapshot differ behind windowed rates.
//!
//! The renderer maps the registry's dotted names onto the exposition
//! grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every invalid character becomes
//! `_`, counters gain the mandatory `_total` sample suffix, and the
//! log2-bucketed histograms become cumulative `le`-labelled bucket series.
//! Our buckets are half-open `[lo, hi)` over integers while `le` is an
//! inclusive bound, so a bucket with exclusive upper bound `hi` exposes as
//! `le="hi-1"`; the top bucket (and the mandatory catch-all) is
//! `le="+Inf"`. The output is name-ordered like the snapshot itself, so it
//! inherits the byte-determinism contract — rendering the same snapshot
//! twice, or snapshots from runs under different thread policies, yields
//! identical bytes. Linted end-to-end by the `openmetrics-lint` step of
//! `scripts/verify.sh`.

use crate::metrics::{MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

/// Sanitize a registry metric name for the exposition format: invalid
/// characters become `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render a snapshot as an OpenMetrics text exposition, terminated by the
/// mandatory `# EOF` line.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.entries {
        let name = sanitize_name(name);
        match value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name}_total {c}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {g}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cum = 0u64;
                for &(_, hi, c) in &h.buckets {
                    cum += c;
                    if hi == u64::MAX {
                        // Top bucket: its inclusive bound is the catch-all.
                        continue;
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", hi - 1);
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// The change in one metric between two snapshots of the same registry.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricDelta {
    /// Counter increments over the window.
    Counter(u64),
    /// Gauge value at the later snapshot, and the signed change.
    Gauge {
        /// Value in the later snapshot.
        value: i64,
        /// `later - earlier` (0 when the gauge is new).
        change: i64,
    },
    /// Histogram recordings over the window: `(count, sum)` deltas.
    Histogram {
        /// Values recorded during the window.
        count: u64,
        /// Sum of values recorded during the window.
        sum: u64,
    },
}

/// A name-ordered diff of two snapshots of the same registry — the
/// windowed view behind rate reporting (`fleet-health`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiff {
    /// `(name, delta)` pairs sorted by name; metrics absent from the later
    /// snapshot are dropped, metrics new in it diff against zero.
    pub entries: Vec<(String, MetricDelta)>,
}

impl SnapshotDiff {
    /// Diff `later` against `earlier` (both from the same registry;
    /// counters and histograms are monotone, so deltas saturate at zero if
    /// the registry was reset in between).
    pub fn between(earlier: &MetricsSnapshot, later: &MetricsSnapshot) -> Self {
        let entries = later
            .entries
            .iter()
            .map(|(name, after)| {
                let before = earlier
                    .entries
                    .iter()
                    .find_map(|(n, v)| (n == name).then_some(v));
                let delta = match (after, before) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricDelta::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Counter(a), _) => MetricDelta::Counter(*a),
                    (MetricValue::Gauge(a), Some(MetricValue::Gauge(b))) => MetricDelta::Gauge {
                        value: *a,
                        change: a - b,
                    },
                    (MetricValue::Gauge(a), _) => MetricDelta::Gauge {
                        value: *a,
                        change: 0,
                    },
                    (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                        MetricDelta::Histogram {
                            count: a.count.saturating_sub(b.count),
                            sum: a.sum.saturating_sub(b.sum),
                        }
                    }
                    (MetricValue::Histogram(a), _) => MetricDelta::Histogram {
                        count: a.count,
                        sum: a.sum,
                    },
                };
                (name.clone(), delta)
            })
            .collect();
        Self { entries }
    }

    /// Counter increments for `name` over the window, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, d)| match d {
            MetricDelta::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Counter rate (increments per second) for `name` over a window of
    /// `window_s` seconds.
    pub fn rate(&self, name: &str, window_s: f64) -> Option<f64> {
        if window_s <= 0.0 {
            return None;
        }
        self.counter(name).map(|c| c as f64 / window_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("monitor.deviations"), "monitor_deviations");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x2"), "ok_name:x2");
    }

    #[test]
    fn renders_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("m.count").add(3);
        r.gauge("m.gauge").set(-7);
        let h = r.histogram("m.hist");
        h.record(0);
        h.record(3);
        h.record(3);
        h.record(5);
        let text = render(&r.snapshot());
        let want = "\
# TYPE m_count counter
m_count_total 3
# TYPE m_gauge gauge
m_gauge -7
# TYPE m_hist histogram
m_hist_bucket{le=\"0\"} 1
m_hist_bucket{le=\"3\"} 3
m_hist_bucket{le=\"7\"} 4
m_hist_bucket{le=\"+Inf\"} 4
m_hist_sum 11
m_hist_count 4
# EOF
";
        assert_eq!(text, want);
        // Rendering the same snapshot twice is byte-identical.
        assert_eq!(text, render(&r.snapshot()));
    }

    #[test]
    fn diff_computes_windowed_deltas() {
        let r = MetricsRegistry::new();
        let c = r.counter("d.count");
        let g = r.gauge("d.gauge");
        let h = r.histogram("d.hist");
        c.add(10);
        g.set(4);
        h.record(8);
        let before = r.snapshot();
        c.add(5);
        g.set(1);
        h.record(8);
        h.record(16);
        let after = r.snapshot();
        let diff = SnapshotDiff::between(&before, &after);
        assert_eq!(diff.counter("d.count"), Some(5));
        assert_eq!(diff.rate("d.count", 10.0), Some(0.5));
        assert_eq!(
            diff.entries
                .iter()
                .find(|(n, _)| n == "d.gauge")
                .map(|(_, d)| d.clone()),
            Some(MetricDelta::Gauge {
                value: 1,
                change: -3
            })
        );
        assert_eq!(
            diff.entries
                .iter()
                .find(|(n, _)| n == "d.hist")
                .map(|(_, d)| d.clone()),
            Some(MetricDelta::Histogram { count: 2, sum: 24 })
        );
    }

    #[test]
    fn diff_against_empty_uses_raw_values() {
        let r = MetricsRegistry::new();
        r.counter("n.count").add(7);
        let diff = SnapshotDiff::between(&MetricsSnapshot { entries: vec![] }, &r.snapshot());
        assert_eq!(diff.counter("n.count"), Some(7));
        assert_eq!(diff.rate("n.count", 0.0), None);
    }
}
