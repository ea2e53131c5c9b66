//! Per-artifact render/parse pairs.
//!
//! Every artifact is pipe-separated text built on [`crate::format`]. Each
//! `render_*` is the exact inverse of its `parse_*`: save→load→save is
//! byte-identical (pinned by the round-trip proptests), and every parse
//! failure is a typed [`StoreError`] naming the artifact and line — a
//! corrupted snapshot never panics and never half-loads.

use crate::format::{escape, fmt_f64, parse_f64, unescape};
use crate::StoreError;
use behaviot::{
    HealthConfig, HealthExport, HealthState, MonitorConfig, MonitorState, PeriodicModel,
    PeriodicTrainConfig, SystemModel, SystemModelConfig, N_FEATURES,
};
use behaviot_cluster::{DbscanModel, Standardizer};
use behaviot_forest::{DecisionTree, NodeSpec, RandomForest};
use behaviot_intern::{FxHashSet, Symbol};
use behaviot_net::Proto;
use std::collections::HashMap;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// shared helpers

fn non_finite(artifact: &str) -> StoreError {
    StoreError::NonFinite {
        artifact: artifact.to_string(),
    }
}

fn bad(artifact: &str, line: usize, reason: impl Into<String>) -> StoreError {
    StoreError::BadRecord {
        artifact: artifact.to_string(),
        line,
        reason: reason.into(),
    }
}

/// Render a finite float or fail with [`StoreError::NonFinite`].
fn ff(artifact: &str, v: f64) -> Result<String, StoreError> {
    fmt_f64(v).ok_or_else(|| non_finite(artifact))
}

fn pf(artifact: &str, line: usize, s: &str, what: &str) -> Result<f64, StoreError> {
    parse_f64(s).ok_or_else(|| bad(artifact, line, format!("bad {what}")))
}

fn pu(artifact: &str, line: usize, s: &str, what: &str) -> Result<usize, StoreError> {
    s.parse()
        .map_err(|_| bad(artifact, line, format!("bad {what}")))
}

fn pu32(artifact: &str, line: usize, s: &str, what: &str) -> Result<u32, StoreError> {
    s.parse()
        .map_err(|_| bad(artifact, line, format!("bad {what}")))
}

fn pip(artifact: &str, line: usize, s: &str) -> Result<Ipv4Addr, StoreError> {
    s.parse()
        .map_err(|_| bad(artifact, line, "bad IPv4 address"))
}

fn pstr(artifact: &str, line: usize, s: &str) -> Result<String, StoreError> {
    unescape(s).ok_or_else(|| bad(artifact, line, "bad escape sequence"))
}

fn pproto(artifact: &str, line: usize, s: &str) -> Result<Proto, StoreError> {
    match s {
        "TCP" => Ok(Proto::Tcp),
        "UDP" => Ok(Proto::Udp),
        _ => Err(bad(artifact, line, "bad protocol")),
    }
}

/// Comma-joined canonical floats (empty slice renders as the empty string).
fn render_f64_list(artifact: &str, vals: &[f64]) -> Result<String, StoreError> {
    let parts: Result<Vec<String>, StoreError> = vals.iter().map(|&v| ff(artifact, v)).collect();
    Ok(parts?.join(","))
}

fn parse_f64_list(
    artifact: &str,
    line: usize,
    s: &str,
    what: &str,
) -> Result<Vec<f64>, StoreError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|p| pf(artifact, line, p, what)).collect()
}

/// The fields of `s` split at `sep` when there are exactly `N` of them:
/// `s.split(sep).collect::<Vec<_>>()` plus a length check, without the
/// `Vec`.
fn split_exact<const N: usize>(s: &str, sep: char) -> Option<[&str; N]> {
    let mut fields = [""; N];
    let mut it = s.split(sep);
    for f in &mut fields {
        *f = it.next()?;
    }
    it.next().is_none().then_some(fields)
}

/// The record kind: everything before the line's first `|`.
fn record_kind(line: &str) -> &str {
    line.split_once('|').map_or(line, |(kind, _)| kind)
}

/// Refuse to render a model of a feature width other than
/// [`N_FEATURES`]: every load refuses it, so the snapshot would never
/// restore.
fn check_width(artifact: &str, width: usize) -> Result<(), StoreError> {
    if width == N_FEATURES {
        Ok(())
    } else {
        Err(StoreError::BadWidth {
            artifact: artifact.to_string(),
            width,
        })
    }
}

// ---------------------------------------------------------------------------
// periodic.cfg — training configuration + coverage

/// Render the periodic training configuration plus coverage fraction.
pub(crate) fn render_periodic_cfg(
    artifact: &str,
    cfg: &PeriodicTrainConfig,
    coverage: f64,
) -> Result<String, StoreError> {
    let d = &cfg.detector;
    Ok(format!(
        "train|{}|{}|{}|{}|{}\ndetector|{}|{}|{}|{}|{}|{}|{}\ncoverage|{}\n",
        ff(artifact, cfg.timer_tolerance)?,
        cfg.max_missed,
        ff(artifact, cfg.dbscan_eps)?,
        cfg.dbscan_min_pts,
        cfg.dbscan_max_train,
        d.min_events,
        d.max_bins,
        ff(artifact, d.power_sigma)?,
        ff(artifact, d.acf_threshold)?,
        d.max_candidates,
        ff(artifact, d.merge_tolerance)?,
        ff(artifact, d.min_cycles)?,
        ff(artifact, coverage)?,
    ))
}

/// Parse [`render_periodic_cfg`]'s output.
pub(crate) fn parse_periodic_cfg(
    artifact: &str,
    content: &str,
) -> Result<(PeriodicTrainConfig, f64), StoreError> {
    let lines: Vec<&str> = content.lines().collect();
    if lines.len() != 3 {
        return Err(bad(artifact, lines.len(), "expected exactly 3 lines"));
    }
    let t: Vec<&str> = lines[0].split('|').collect();
    if t.len() != 6 || t[0] != "train" {
        return Err(bad(artifact, 1, "bad train line"));
    }
    let d: Vec<&str> = lines[1].split('|').collect();
    if d.len() != 8 || d[0] != "detector" {
        return Err(bad(artifact, 2, "bad detector line"));
    }
    let c: Vec<&str> = lines[2].split('|').collect();
    if c.len() != 2 || c[0] != "coverage" {
        return Err(bad(artifact, 3, "bad coverage line"));
    }
    let mut cfg = PeriodicTrainConfig {
        timer_tolerance: pf(artifact, 1, t[1], "timer tolerance")?,
        max_missed: pu32(artifact, 1, t[2], "max missed")?,
        dbscan_eps: pf(artifact, 1, t[3], "dbscan eps")?,
        dbscan_min_pts: pu(artifact, 1, t[4], "dbscan min pts")?,
        dbscan_max_train: pu(artifact, 1, t[5], "dbscan max train")?,
        ..Default::default()
    };
    cfg.detector.min_events = pu(artifact, 2, d[1], "min events")?;
    cfg.detector.max_bins = pu(artifact, 2, d[2], "max bins")?;
    cfg.detector.power_sigma = pf(artifact, 2, d[3], "power sigma")?;
    cfg.detector.acf_threshold = pf(artifact, 2, d[4], "acf threshold")?;
    cfg.detector.max_candidates = pu(artifact, 2, d[5], "max candidates")?;
    cfg.detector.merge_tolerance = pf(artifact, 2, d[6], "merge tolerance")?;
    cfg.detector.min_cycles = pf(artifact, 2, d[7], "min cycles")?;
    let coverage = pf(artifact, 3, c[1], "coverage")?;
    Ok((cfg, coverage))
}

// ---------------------------------------------------------------------------
// periodic@<device> — one device's periodic models

/// Render one device's periodic models (pre-sorted by destination/proto).
pub(crate) fn render_periodic_device(
    artifact: &str,
    models: &[&PeriodicModel],
) -> Result<String, StoreError> {
    let mut out = String::new();
    for m in models {
        check_width(artifact, m.cluster().dim())?;
        out.push_str(&format!(
            "model|{}|{}|{}\n",
            escape(m.destination.as_str()),
            m.proto,
            m.n_train
        ));
        let periods: Result<Vec<String>, StoreError> =
            m.periods.iter().map(|&p| ff(artifact, p)).collect();
        out.push_str(&format!("periods|{}\n", periods?.join("|")));
        let (means, stds) = m.standardizer().params();
        out.push_str(&format!(
            "std|{}|{}\n",
            render_f64_list(artifact, means)?,
            render_f64_list(artifact, stds)?
        ));
        let c = m.cluster();
        out.push_str(&format!("cluster|{}|{}\n", ff(artifact, c.eps())?, c.dim()));
        let offsets: Vec<String> = c.label_offsets().iter().map(ToString::to_string).collect();
        out.push_str(&format!("offsets|{}\n", offsets.join("|")));
        let dim = c.dim();
        for (i, &orig) in c.core_orig().iter().enumerate() {
            let row = &c.cores()[i * dim..(i + 1) * dim];
            out.push_str(&format!(
                "core|{orig}|{}\n",
                render_f64_list(artifact, row)?
            ));
        }
    }
    Ok(out)
}

/// Accumulator for one in-flight `model|` group during device parsing.
struct PendingPeriodic {
    line: usize,
    dest: Symbol,
    proto: Proto,
    n_train: usize,
    periods: Option<Vec<f64>>,
    std: Option<(Vec<f64>, Vec<f64>)>,
    cluster: Option<(f64, usize)>,
    offsets: Option<Vec<usize>>,
    /// The flat core matrix, `N_FEATURES` values per `core|` row.
    cores: Vec<f64>,
    core_orig: Vec<u32>,
}

impl PendingPeriodic {
    /// Append one `core|` row's coordinates to the flat core matrix,
    /// refusing a row that is not `N_FEATURES` wide.
    fn push_core(
        &mut self,
        artifact: &str,
        line: usize,
        orig: &str,
        row: &str,
    ) -> Result<(), StoreError> {
        self.core_orig
            .push(pu32(artifact, line, orig, "core origin")?);
        let start = self.cores.len();
        if !row.is_empty() {
            for v in row.split(',') {
                self.cores.push(pf(artifact, line, v, "core coordinate")?);
            }
        }
        if self.cores.len() - start != N_FEATURES {
            return Err(bad(artifact, line, "core row dimension mismatch"));
        }
        Ok(())
    }

    fn finish(self, artifact: &str, device: Ipv4Addr) -> Result<PeriodicModel, StoreError> {
        let line = self.line;
        let err = move |reason: &str| bad(artifact, line, reason.to_string());
        let periods = self.periods.ok_or_else(|| err("missing periods line"))?;
        let (means, stds) = self.std.ok_or_else(|| err("missing std line"))?;
        let (eps, dim) = self.cluster.ok_or_else(|| err("missing cluster line"))?;
        if dim != N_FEATURES {
            return Err(err("cluster dimension is not the flow feature count"));
        }
        let offsets = self.offsets.ok_or_else(|| err("missing offsets line"))?;
        let standardizer = Standardizer::from_params(means, stds).map_err(err)?;
        let cluster =
            DbscanModel::from_parts(eps, dim, self.cores, self.core_orig, offsets).map_err(err)?;
        PeriodicModel::from_parts(
            device,
            self.dest,
            self.proto,
            periods,
            self.n_train,
            standardizer,
            cluster,
        )
        .map_err(err)
    }
}

/// Parse [`render_periodic_device`]'s output back into models for `device`.
pub(crate) fn parse_periodic_device(
    artifact: &str,
    device: Ipv4Addr,
    content: &str,
) -> Result<Vec<PeriodicModel>, StoreError> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<(Symbol, Proto)> = FxHashSet::default();
    let mut pending: Option<PendingPeriodic> = None;
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        match record_kind(line) {
            "model" => {
                if let Some(p) = pending.take() {
                    out.push(p.finish(artifact, device)?);
                }
                let [_, dest, proto, n_train] =
                    split_exact(line, '|').ok_or_else(|| bad(artifact, ln, "bad model line"))?;
                let dest = Symbol::intern(&pstr(artifact, ln, dest)?);
                let proto = pproto(artifact, ln, proto)?;
                if !seen.insert((dest, proto)) {
                    return Err(StoreError::Duplicate {
                        artifact: artifact.to_string(),
                        key: format!("{dest}|{proto}"),
                    });
                }
                pending = Some(PendingPeriodic {
                    line: ln,
                    dest,
                    proto,
                    n_train: pu(artifact, ln, n_train, "n_train")?,
                    periods: None,
                    std: None,
                    cluster: None,
                    offsets: None,
                    cores: Vec::new(),
                    core_orig: Vec::new(),
                });
            }
            kind @ ("periods" | "std" | "cluster" | "offsets" | "core") => {
                let p = pending
                    .as_mut()
                    .ok_or_else(|| bad(artifact, ln, "record before model line"))?;
                match kind {
                    "periods" => {
                        let vals: Result<Vec<f64>, StoreError> = line
                            .split('|')
                            .skip(1)
                            .map(|s| pf(artifact, ln, s, "period"))
                            .collect();
                        p.periods = Some(vals?);
                    }
                    "std" => {
                        let [_, means, stds] = split_exact(line, '|')
                            .ok_or_else(|| bad(artifact, ln, "bad std line"))?;
                        p.std = Some((
                            parse_f64_list(artifact, ln, means, "mean")?,
                            parse_f64_list(artifact, ln, stds, "std dev")?,
                        ));
                    }
                    "cluster" => {
                        let [_, eps, dim] = split_exact(line, '|')
                            .ok_or_else(|| bad(artifact, ln, "bad cluster line"))?;
                        p.cluster =
                            Some((pf(artifact, ln, eps, "eps")?, pu(artifact, ln, dim, "dim")?));
                    }
                    "offsets" => {
                        let vals: Result<Vec<usize>, StoreError> = line
                            .split('|')
                            .skip(1)
                            .map(|s| pu(artifact, ln, s, "offset"))
                            .collect();
                        p.offsets = Some(vals?);
                    }
                    _ => {
                        let [_, orig, row] = split_exact(line, '|')
                            .ok_or_else(|| bad(artifact, ln, "bad core line"))?;
                        p.push_core(artifact, ln, orig, row)?;
                    }
                }
            }
            _ => return Err(bad(artifact, ln, "unknown record kind")),
        }
    }
    if let Some(p) = pending.take() {
        out.push(p.finish(artifact, device)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// user.cfg — classification threshold

/// Render the user-action classification configuration.
pub(crate) fn render_user_cfg(artifact: &str, confidence: f64) -> Result<String, StoreError> {
    Ok(format!("confidence|{}\n", ff(artifact, confidence)?))
}

/// Parse [`render_user_cfg`]'s output.
pub(crate) fn parse_user_cfg(artifact: &str, content: &str) -> Result<f64, StoreError> {
    let lines: Vec<&str> = content.lines().collect();
    if lines.len() != 1 {
        return Err(bad(artifact, lines.len(), "expected exactly 1 line"));
    }
    let f: Vec<&str> = lines[0].split('|').collect();
    if f.len() != 2 || f[0] != "confidence" {
        return Err(bad(artifact, 1, "bad confidence line"));
    }
    pf(artifact, 1, f[1], "confidence threshold")
}

// ---------------------------------------------------------------------------
// user@<device> — one device's per-activity forests

fn render_node(artifact: &str, node: &NodeSpec) -> Result<String, StoreError> {
    Ok(match *node {
        NodeSpec::Leaf { prob } => format!("L:{}", ff(artifact, prob)?),
        NodeSpec::Split {
            feature,
            threshold,
            left,
            right,
        } => format!("S:{feature}:{}:{left}:{right}", ff(artifact, threshold)?),
    })
}

fn parse_node(artifact: &str, line: usize, s: &str) -> Result<NodeSpec, StoreError> {
    if let Some(["L", prob]) = split_exact(s, ':') {
        return Ok(NodeSpec::Leaf {
            prob: pf(artifact, line, prob, "leaf probability")?,
        });
    }
    if let Some(["S", feature, threshold, left, right]) = split_exact(s, ':') {
        return Ok(NodeSpec::Split {
            feature: pu(artifact, line, feature, "split feature")?,
            threshold: pf(artifact, line, threshold, "split threshold")?,
            left: pu(artifact, line, left, "left child")?,
            right: pu(artifact, line, right, "right child")?,
        });
    }
    Err(bad(artifact, line, "bad node encoding"))
}

/// Render one device's `(activity, forest)` list, preserving order (the
/// classifier's first-wins tie-break makes order behavioral).
pub(crate) fn render_user_device(
    artifact: &str,
    list: &[(Symbol, RandomForest)],
) -> Result<String, StoreError> {
    let mut out = String::new();
    for (act, forest) in list {
        for tree in forest.trees() {
            check_width(artifact, tree.n_features())?;
        }
        let oob = match forest.oob_score() {
            Some(s) => ff(artifact, s)?,
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "activity|{}|{}|{}\n",
            escape(act.as_str()),
            forest.n_trees(),
            oob
        ));
        for tree in forest.trees() {
            let nodes: Result<Vec<String>, StoreError> = tree
                .export_nodes()
                .iter()
                .map(|n| render_node(artifact, n))
                .collect();
            out.push_str(&format!(
                "tree|{}|{}\n",
                tree.n_features(),
                nodes?.join("|")
            ));
        }
    }
    Ok(out)
}

/// One in-flight `activity|` group during device parsing.
struct PendingForest {
    act: Symbol,
    n_trees: usize,
    oob: Option<f64>,
    trees: Vec<DecisionTree>,
    line: usize,
}

/// Parse [`render_user_device`]'s output.
pub(crate) fn parse_user_device(
    artifact: &str,
    content: &str,
) -> Result<Vec<(Symbol, RandomForest)>, StoreError> {
    let mut out: Vec<(Symbol, RandomForest)> = Vec::new();
    let mut seen: FxHashSet<Symbol> = FxHashSet::default();
    let mut pending: Option<PendingForest> = None;
    let finish =
        |p: PendingForest, out: &mut Vec<(Symbol, RandomForest)>| -> Result<(), StoreError> {
            if p.trees.len() != p.n_trees {
                return Err(bad(artifact, p.line, "tree count mismatch"));
            }
            let forest = RandomForest::from_trees(p.trees, p.oob)
                .map_err(|e| bad(artifact, p.line, e.to_string()))?;
            out.push((p.act, forest));
            Ok(())
        };
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        match record_kind(line) {
            "activity" => {
                if let Some(p) = pending.take() {
                    finish(p, &mut out)?;
                }
                let [_, act, n_trees, oob] =
                    split_exact(line, '|').ok_or_else(|| bad(artifact, ln, "bad activity line"))?;
                let act = Symbol::intern(&pstr(artifact, ln, act)?);
                if !seen.insert(act) {
                    return Err(StoreError::Duplicate {
                        artifact: artifact.to_string(),
                        key: act.as_str().to_string(),
                    });
                }
                let n_trees = pu(artifact, ln, n_trees, "tree count")?;
                let oob = if oob == "-" {
                    None
                } else {
                    Some(pf(artifact, ln, oob, "oob score")?)
                };
                pending = Some(PendingForest {
                    act,
                    n_trees,
                    oob,
                    trees: Vec::new(),
                    line: ln,
                });
            }
            "tree" => {
                let p = pending
                    .as_mut()
                    .ok_or_else(|| bad(artifact, ln, "tree before activity line"))?;
                let mut fields = line.splitn(3, '|').skip(1);
                let (Some(n_features), Some(nodes)) = (fields.next(), fields.next()) else {
                    return Err(bad(artifact, ln, "bad tree line"));
                };
                let n_features = pu(artifact, ln, n_features, "feature count")?;
                if n_features != N_FEATURES {
                    return Err(bad(
                        artifact,
                        ln,
                        "tree feature count is not the flow feature count",
                    ));
                }
                let nodes: Result<Vec<NodeSpec>, StoreError> = nodes
                    .split('|')
                    .map(|s| parse_node(artifact, ln, s))
                    .collect();
                let tree = DecisionTree::from_nodes(nodes?, n_features)
                    .map_err(|e| bad(artifact, ln, e.to_string()))?;
                p.trees.push(tree);
            }
            _ => return Err(bad(artifact, ln, "unknown record kind")),
        }
    }
    if let Some(p) = pending.take() {
        finish(p, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// names — device display names

/// Render device display names, sorted by address.
pub(crate) fn render_names(names: &HashMap<Ipv4Addr, String>) -> String {
    let mut entries: Vec<(&Ipv4Addr, &String)> = names.iter().collect();
    entries.sort_by_key(|(ip, _)| **ip);
    let mut out = String::new();
    for (ip, name) in entries {
        out.push_str(&format!("name|{ip}|{}\n", escape(name)));
    }
    out
}

/// Parse [`render_names`]'s output.
pub(crate) fn parse_names(
    artifact: &str,
    content: &str,
) -> Result<HashMap<Ipv4Addr, String>, StoreError> {
    let mut out = HashMap::new();
    for (i, line) in content.lines().enumerate() {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != 3 || fields[0] != "name" {
            return Err(bad(artifact, ln, "bad name line"));
        }
        let ip = pip(artifact, ln, fields[1])?;
        if out.contains_key(&ip) {
            return Err(StoreError::Duplicate {
                artifact: artifact.to_string(),
                key: ip.to_string(),
            });
        }
        out.insert(ip, pstr(artifact, ln, fields[2])?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// system — configuration + training traces (PFSM re-inferred on load)

/// Render the system model as its configuration plus training traces. The
/// PFSM itself is *not* persisted: [`SystemModel::from_traces`] is
/// deterministic, so config + traces rebuild it bit-identically, and the
/// artifact stays human-readable.
pub(crate) fn render_system(artifact: &str, model: &SystemModel) -> Result<String, StoreError> {
    let cfg = model.config();
    let mut out = format!(
        "cfg|{}\npfsm|{}|{}|{}\n",
        ff(artifact, cfg.trace_gap)?,
        u8::from(cfg.pfsm.refine),
        cfg.pfsm.max_splits,
        ff(artifact, cfg.pfsm.smoothing_alpha)?,
    );
    for trace in model.log.labeled_traces() {
        let labels: Vec<String> = trace.iter().map(|l| escape(l)).collect();
        out.push_str(&format!("trace|{}\n", labels.join("|")));
    }
    Ok(out)
}

/// Parse [`render_system`]'s output and re-infer the model.
pub(crate) fn parse_system(artifact: &str, content: &str) -> Result<SystemModel, StoreError> {
    let mut lines = content.lines().enumerate();
    let (_, cfg_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 1, "missing cfg line"))?;
    let c: Vec<&str> = cfg_line.split('|').collect();
    if c.len() != 2 || c[0] != "cfg" {
        return Err(bad(artifact, 1, "bad cfg line"));
    }
    let (_, pfsm_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 2, "missing pfsm line"))?;
    let p: Vec<&str> = pfsm_line.split('|').collect();
    if p.len() != 4 || p[0] != "pfsm" {
        return Err(bad(artifact, 2, "bad pfsm line"));
    }
    let mut cfg = SystemModelConfig {
        trace_gap: pf(artifact, 1, c[1], "trace gap")?,
        ..Default::default()
    };
    cfg.pfsm.refine = match p[1] {
        "0" => false,
        "1" => true,
        _ => return Err(bad(artifact, 2, "bad refine flag")),
    };
    cfg.pfsm.max_splits = pu(artifact, 2, p[2], "max splits")?;
    cfg.pfsm.smoothing_alpha = pf(artifact, 2, p[3], "smoothing alpha")?;
    let mut traces: Vec<Vec<String>> = Vec::new();
    for (i, line) in lines {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields[0] != "trace" {
            return Err(bad(artifact, ln, "unknown record kind"));
        }
        let labels: Result<Vec<String>, StoreError> =
            fields[1..].iter().map(|s| pstr(artifact, ln, s)).collect();
        traces.push(labels?);
    }
    Ok(SystemModel::from_traces(&traces, &cfg))
}

// ---------------------------------------------------------------------------
// monitor — streaming monitor configuration + cross-window state

/// Render the monitor configuration and exported streaming state.
pub(crate) fn render_monitor(
    artifact: &str,
    cfg: &MonitorConfig,
    state: &MonitorState,
) -> Result<String, StoreError> {
    let mut out = format!(
        "cfg|{}|{}|{}|{}|{}|{}\n",
        ff(artifact, cfg.periodic_threshold)?,
        ff(artifact, cfg.short_sigma)?,
        ff(artifact, cfg.long_confidence)?,
        cfg.long_min_n,
        ff(artifact, cfg.long_min_count_diff)?,
        ff(artifact, cfg.trace_gap)?,
    );
    out.push_str(&format!("windows|{}\n", state.windows));
    for ((ip, dest, proto), ts) in &state.last_seen {
        out.push_str(&format!(
            "timer|{ip}|{}|{proto}|{}\n",
            escape(dest.as_str()),
            ff(artifact, *ts)?
        ));
    }
    for ip in &state.absence_flagged {
        out.push_str(&format!("absent|{ip}\n"));
    }
    for (from, to) in &state.long_flagged {
        out.push_str(&format!(
            "long|{}|{}\n",
            escape(from.as_str()),
            escape(to.as_str())
        ));
    }
    Ok(out)
}

/// Parse [`render_monitor`]'s output.
pub(crate) fn parse_monitor(
    artifact: &str,
    content: &str,
) -> Result<(MonitorConfig, MonitorState), StoreError> {
    let mut lines = content.lines().enumerate();
    let (_, cfg_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 1, "missing cfg line"))?;
    let c: Vec<&str> = cfg_line.split('|').collect();
    if c.len() != 7 || c[0] != "cfg" {
        return Err(bad(artifact, 1, "bad cfg line"));
    }
    let cfg = MonitorConfig {
        periodic_threshold: pf(artifact, 1, c[1], "periodic threshold")?,
        short_sigma: pf(artifact, 1, c[2], "short sigma")?,
        long_confidence: pf(artifact, 1, c[3], "long confidence")?,
        long_min_n: pu(artifact, 1, c[4], "long min n")?,
        long_min_count_diff: pf(artifact, 1, c[5], "long min count diff")?,
        trace_gap: pf(artifact, 1, c[6], "trace gap")?,
    };
    let mut state = MonitorState::default();
    // Duplicate keys are a hard error, matching every other artifact:
    // `Monitor::restore` collects these records into maps/sets, so
    // last-wins would silently mask a corrupted or hand-edited snapshot.
    let mut seen_timers: FxHashSet<(Ipv4Addr, Symbol, Proto)> = FxHashSet::default();
    let mut seen_absent: FxHashSet<Ipv4Addr> = FxHashSet::default();
    let mut seen_long: FxHashSet<(Symbol, Symbol)> = FxHashSet::default();
    let mut seen_windows = false;
    let dup = |key: String| StoreError::Duplicate {
        artifact: artifact.to_string(),
        key,
    };
    for (i, line) in lines {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        match fields[0] {
            // Ledger window counter; absent in pre-PR-10 snapshots, which
            // restart sequence numbering at 0.
            "windows" if fields.len() == 2 => {
                if seen_windows {
                    return Err(dup("windows".to_string()));
                }
                seen_windows = true;
                state.windows = fields[1]
                    .parse()
                    .map_err(|_| bad(artifact, ln, "bad window count"))?;
            }
            "timer" if fields.len() == 5 => {
                let ip = pip(artifact, ln, fields[1])?;
                let dest = Symbol::intern(&pstr(artifact, ln, fields[2])?);
                let proto = pproto(artifact, ln, fields[3])?;
                let ts = pf(artifact, ln, fields[4], "timer timestamp")?;
                if !seen_timers.insert((ip, dest, proto)) {
                    return Err(dup(format!("timer|{ip}|{dest}|{proto}")));
                }
                state.last_seen.push(((ip, dest, proto), ts));
            }
            "absent" if fields.len() == 2 => {
                let ip = pip(artifact, ln, fields[1])?;
                if !seen_absent.insert(ip) {
                    return Err(dup(format!("absent|{ip}")));
                }
                state.absence_flagged.push(ip);
            }
            "long" if fields.len() == 3 => {
                let from = Symbol::intern(&pstr(artifact, ln, fields[1])?);
                let to = Symbol::intern(&pstr(artifact, ln, fields[2])?);
                if !seen_long.insert((from, to)) {
                    return Err(dup(format!("long|{from}|{to}")));
                }
                state.long_flagged.push((from, to));
            }
            _ => return Err(bad(artifact, ln, "unknown record kind")),
        }
    }
    Ok((cfg, state))
}

// ---------------------------------------------------------------------------
// health — fleet health registry checkpoint

/// Render the health registry export: the hysteresis config plus one
/// `dev|` row per registered device, already in device-name order.
pub(crate) fn render_health(artifact: &str, export: &HealthExport) -> Result<String, StoreError> {
    let c = &export.cfg;
    let mut out = format!(
        "cfg|{}|{}|{}\n",
        ff(artifact, c.degrade_drop_frac)?,
        c.recover_after,
        c.stale_after,
    );
    for (device, state, clean_streak, silent_windows) in &export.records {
        out.push_str(&format!(
            "dev|{}|{}|{clean_streak}|{silent_windows}\n",
            escape(device.as_str()),
            state.label(),
        ));
    }
    Ok(out)
}

/// Parse [`render_health`]'s output.
pub(crate) fn parse_health(artifact: &str, content: &str) -> Result<HealthExport, StoreError> {
    let mut lines = content.lines().enumerate();
    let (_, cfg_line) = lines
        .next()
        .ok_or_else(|| bad(artifact, 1, "missing cfg line"))?;
    let c: Vec<&str> = cfg_line.split('|').collect();
    if c.len() != 4 || c[0] != "cfg" {
        return Err(bad(artifact, 1, "bad cfg line"));
    }
    let cfg = HealthConfig {
        degrade_drop_frac: pf(artifact, 1, c[1], "degrade drop fraction")?,
        recover_after: pu32(artifact, 1, c[2], "recover after")?,
        stale_after: pu32(artifact, 1, c[3], "stale after")?,
    };
    let mut records = Vec::new();
    let mut seen: FxHashSet<Symbol> = FxHashSet::default();
    for (i, line) in lines {
        let ln = i + 1;
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != 5 || fields[0] != "dev" {
            return Err(bad(artifact, ln, "unknown record kind"));
        }
        let device = Symbol::intern(&pstr(artifact, ln, fields[1])?);
        let state =
            HealthState::parse(fields[2]).ok_or_else(|| bad(artifact, ln, "bad health state"))?;
        let clean_streak = pu32(artifact, ln, fields[3], "clean streak")?;
        let silent_windows = pu32(artifact, ln, fields[4], "silent windows")?;
        if !seen.insert(device) {
            return Err(StoreError::Duplicate {
                artifact: artifact.to_string(),
                key: format!("dev|{device}"),
            });
        }
        records.push((device, state, clean_streak, silent_windows));
    }
    Ok(HealthExport { cfg, records })
}
