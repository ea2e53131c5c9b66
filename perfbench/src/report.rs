//! Metric definitions, the per-layer derivation from a span fold, and the
//! result line.

use crate::fold::{Profile, UNOWNED};
use behaviot_obs::{MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("window_p50_ms", "ms"),
    ("window_p90_ms", "ms"),
    ("records_per_s", "records/s"),
    ("peak_rss_growth_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. All of them come from
/// the workload's own traced pass or run; a layer that pass does not use
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.read_s", "s"),
    ("net.records", "count"),
    ("net.resyncs", "count"),
    ("net.resync_skipped_bytes", "bytes"),
    ("flows.ingest_s", "s"),
    ("flows.ingest_dropped_frac", "fraction"),
    ("flows.assemble_s", "s"),
    ("flows.bursts", "count"),
    ("flows.bursts_per_s", "1/s"),
    ("events.infer_s", "s"),
    ("events.flows", "count"),
    ("events.periodic_frac", "fraction"),
    ("forest.predictions", "count"),
    ("cluster.predict_calls", "count"),
    ("monitor.self_s", "s"),
    ("monitor.traces", "count"),
    ("monitor.deviations", "count"),
    ("monitor.incident_recall", "fraction"),
    ("ledger.records", "count"),
    ("ledger.bytes", "bytes"),
    ("ledger.nonquiet_window_frac", "fraction"),
    ("health.transitions", "count"),
    ("store.save_s", "s"),
    ("store.snapshot_bytes", "bytes"),
    ("store.load_s", "s"),
    ("store.checkpoint_s", "s"),
    ("store.checkpoint_rewritten_frac", "fraction"),
    ("periodic.train_s", "s"),
    ("periodic.train_self_s", "s"),
    ("periodic.groups", "count"),
    ("periodic.models", "count"),
    ("periodic.model_yield", "fraction"),
    ("dsp.period_detect_s", "s"),
    ("dsp.series", "count"),
    ("forest.fit_s", "s"),
    ("forest.trees", "count"),
    ("system.pfsm_s", "s"),
    ("pfsm.states", "count"),
    ("pfsm.splits", "count"),
    ("sim.gen_s", "s"),
    ("sim.label_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("ops_failed_frac", "fraction"),
];

/// Counter totals and histogram sample counts, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn of(snapshot: &MetricsSnapshot) -> Self {
        Counters(
            snapshot
                .entries
                .iter()
                .filter_map(|(name, v)| match v {
                    MetricValue::Counter(c) => Some((name.clone(), *c)),
                    MetricValue::Histogram(h) => Some((name.clone(), h.count)),
                    MetricValue::Gauge(_) => None,
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Quantities of a traced stretch of work that no span or counter holds.
#[derive(Debug, Clone, Default)]
pub struct Tallies {
    pub net_records: u64,
    pub net_resyncs: u64,
    pub net_resync_skipped_bytes: u64,
    pub ingest_records: u64,
    pub ingest_dropped: u64,
    pub bursts: u64,
    pub windows: u64,
    pub nonquiet_windows: u64,
    pub ledger_bytes: u64,
    pub snapshot_bytes: u64,
    pub incidents: u64,
    pub incidents_covered: u64,
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const NS: f64 = 1e-9;

/// Per-layer values of one traced stretch of work.
pub fn layer_values(p: &Profile, c: &Counters, t: &Tallies) -> BTreeMap<&'static str, f64> {
    let secs = |name: &str| p.inclusive_of(name) as f64 * NS;
    let count = |name: &str| c.get(name) as f64;
    let net_read = secs("call.net_read");
    let assemble = secs("call.assemble_flows");
    let infer_in_monitor =
        p.inclusive_under("call.process_window_audited", "events.infer") as f64 * NS;
    let events = count("events.user") + count("events.periodic") + count("events.aperiodic");
    let written = count("store.artifacts_written");
    let reused = count("store.artifacts_reused");
    BTreeMap::from([
        ("net.read_s", net_read),
        ("net.records", t.net_records as f64),
        ("net.resyncs", t.net_resyncs as f64),
        (
            "net.resync_skipped_bytes",
            t.net_resync_skipped_bytes as f64,
        ),
        (
            "flows.ingest_s",
            (secs("call.ingest_pcap_bytes") - net_read).max(0.0),
        ),
        (
            "flows.ingest_dropped_frac",
            ratio(t.ingest_dropped as f64, t.ingest_records as f64),
        ),
        ("flows.assemble_s", assemble),
        ("flows.bursts", t.bursts as f64),
        ("flows.bursts_per_s", ratio(t.bursts as f64, assemble)),
        ("events.infer_s", secs("events.infer")),
        ("events.flows", events),
        (
            "events.periodic_frac",
            ratio(count("events.periodic"), events),
        ),
        ("forest.predictions", count("forest.predictions")),
        ("cluster.predict_calls", count("cluster.predict")),
        (
            "monitor.self_s",
            (secs("call.process_window_audited") - infer_in_monitor).max(0.0),
        ),
        ("monitor.traces", count("monitor.traces")),
        ("monitor.deviations", count("monitor.deviations")),
        (
            "monitor.incident_recall",
            ratio(t.incidents_covered as f64, t.incidents as f64),
        ),
        ("ledger.records", count("monitor.ledger_records")),
        ("ledger.bytes", t.ledger_bytes as f64),
        (
            "ledger.nonquiet_window_frac",
            ratio(t.nonquiet_windows as f64, t.windows as f64),
        ),
        ("health.transitions", count("fleet.transitions")),
        ("store.save_s", secs("call.save")),
        ("store.snapshot_bytes", t.snapshot_bytes as f64),
        ("store.load_s", secs("call.load")),
        ("store.checkpoint_s", secs("call.checkpoint")),
        (
            "store.checkpoint_rewritten_frac",
            // A full save writes every artifact too; only checkpoints count.
            if secs("call.checkpoint") > 0.0 {
                ratio(written, written + reused)
            } else {
                0.0
            },
        ),
        ("periodic.train_s", secs("periodic.train")),
        (
            "periodic.train_self_s",
            p.self_of("periodic.train") as f64 * NS,
        ),
        ("periodic.groups", count("periodic.groups")),
        ("periodic.models", count("periodic.models")),
        (
            "periodic.model_yield",
            ratio(count("periodic.models"), count("periodic.groups")),
        ),
        ("dsp.period_detect_s", secs("dsp.period_detect")),
        ("dsp.series", count("dsp.period_detections")),
        ("forest.fit_s", secs("forest.fit")),
        ("forest.trees", count("forest.trees")),
        ("system.pfsm_s", secs("system.pfsm")),
        ("pfsm.states", count("pfsm.states")),
        ("pfsm.splits", count("pfsm.splits")),
    ])
}

/// Largest share of a traced region's wall the fold may leave to no layer:
/// past it, the benchmark's spans no longer cover the work or the fold is
/// broken.
pub const UNATTRIBUTED_CAP: f64 = 0.05;

/// Share of a traced region's wall that no layer owns: time outside every
/// span plus the self time of the benchmark's own `op.*` spans.
pub fn unattributed_frac(region: &Profile, wall_ns: u64) -> f64 {
    let glue: u64 = region
        .rows
        .iter()
        .filter(|(path, _)| {
            path.as_str() == UNOWNED
                || path
                    .rsplit('/')
                    .next()
                    .is_some_and(|l| l.starts_with("op."))
        })
        .map(|(_, r)| r.self_ns)
        .sum();
    ratio(glue as f64, wall_ns as f64)
}

/// Add the rows that guard the fold of a traced region (`trace.*`), and
/// check it: the self times must add up to the wall, and no more than
/// [`UNATTRIBUTED_CAP`] of it may be left to no layer.
pub fn fold_rows(
    m: &mut BTreeMap<&'static str, f64>,
    region: &Profile,
    wall_ns: u64,
    overhead_frac: f64,
    problems: &mut Vec<String>,
) {
    let unattributed = unattributed_frac(region, wall_ns);
    let excess = ratio(
        region.self_total_ns().abs_diff(wall_ns) as f64,
        wall_ns as f64,
    );
    if excess > UNATTRIBUTED_CAP {
        problems.push(format!(
            "the traced self times differ from the traced wall by {excess:.4} of it"
        ));
    }
    if unattributed > UNATTRIBUTED_CAP {
        problems.push(format!(
            "{unattributed:.4} of the traced wall belongs to no layer (cap {UNATTRIBUTED_CAP})"
        ));
    }
    m.insert("trace.overhead_frac", overhead_frac);
    m.insert("trace.unattributed_frac", unattributed);
}

/// A finished run: what was attempted, what failed, which output checks
/// failed, and the metrics of the mode it ran in.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: every metric of the mode, by name with its unit.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::Span;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().copied().chain(PER_LAYER.iter().copied());
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn glue_is_unowned_wall_plus_op_self_time() {
        let span = |name, start_ns, end_ns| Span {
            name,
            tid: 1,
            start_ns,
            dur_ns: end_ns - start_ns,
        };
        let spans = [span("call.x", 10, 60), span("op.window", 0, 80)];
        let p = Profile::fold_region(&spans, 100);
        // 20 ns outside `op.window`, 30 ns inside it but outside `call.x`.
        assert!((unattributed_frac(&p, 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fold_rows_flag_unowned_wall_and_spans_past_it() {
        let span = |name, start_ns, end_ns| Span {
            name,
            tid: 1,
            start_ns,
            dur_ns: end_ns - start_ns,
        };
        let check = |spans: &[Span], wall_ns| {
            let mut m = BTreeMap::new();
            let mut problems = Vec::new();
            let p = Profile::fold_region(spans, wall_ns);
            fold_rows(&mut m, &p, wall_ns, 0.01, &mut problems);
            assert_eq!(m["trace.overhead_frac"], 0.01);
            problems.len()
        };
        assert_eq!(check(&[span("call.x", 0, 98)], 100), 0);
        // 10% of the wall outside every span.
        assert_eq!(check(&[span("call.x", 0, 90)], 100), 1);
        // Spans that outlast the region: its clock or the fold is broken.
        assert_eq!(check(&[span("call.x", 0, 120)], 100), 1);
    }

    #[test]
    fn json_lists_every_metric_of_the_mode() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            o.metrics.insert(name, 1.25);
        }
        let line = o.json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(o.json(true).is_err(), "per-layer metrics are missing");
        o.metrics.insert("setup_s", f64::NAN);
        assert!(o.json(false).is_err());
    }
}
