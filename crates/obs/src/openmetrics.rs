//! OpenMetrics / Prometheus text-exposition rendering over
//! [`MetricsSnapshot`].
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
}
