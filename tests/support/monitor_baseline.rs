//! `Monitor::process_window` exactly as it stood before the symbol-native
//! rewrite, driving the original String pipeline. The String helpers it
//! used (`traces_from_events`, `known_devices`, `long_term_deviations`)
//! have since been removed from the library, so their original bodies are
//! kept here verbatim — every per-window allocation (event `Vec`s, one
//! `String` per user event, the per-window `known_devices` set, two Viterbi
//! passes per trace, String-labeled long-term rows) is faithfully
//! reproduced.
//!
//! This is the one copy. `tests/monitor_parity.rs` includes it with
//! `#[path]` and checks the live [`behaviot::Monitor`] against it byte for
//! byte, so parity is judged against the real predecessor rather than a
//! reimplementation. The predecessor's six-field `Deviation` record is
//! kept here too; the live stream is projected onto it for comparison.

use behaviot::deviation::{long_term_threshold, periodic_metric_multi};
use behaviot::event::InferredEvent;
use behaviot::periodic::GroupKey;
use behaviot::{BehavIoT, DeviationKind, MonitorConfig, SystemModel};
use behaviot_dsp::stats;
use behaviot_flows::FlowRecord;
use behaviot_intern::{FxHashMap, FxHashSet, Symbol};
use behaviot_pfsm::model::{StateId, FINAL, INITIAL};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The predecessor's `behaviot::Deviation`, verbatim: the report strings
/// were its fields. Parity reads them through the derived `Debug`, which
/// dead-code analysis does not count.
#[allow(dead_code)]
#[derive(Debug, Clone)]
pub struct Deviation {
    pub ts: f64,
    pub kind: DeviationKind,
    pub score: f64,
    pub threshold: f64,
    pub subject: String,
    pub detail: String,
}

/// The removed `behaviot::system::traces_from_events`, verbatim: one
/// `String` label per user event, split into traces at `trace_gap`.
fn traces_from_events(
    events: &[InferredEvent],
    names: &HashMap<Ipv4Addr, String>,
    trace_gap: f64,
) -> Vec<Vec<String>> {
    let mut user: Vec<(f64, String)> = events
        .iter()
        .filter_map(|e| e.pfsm_label(names).map(|l| (e.ts, l)))
        .collect();
    user.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN event time"));
    let mut traces: Vec<Vec<String>> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (ts, label) in user {
        if !cur.is_empty() && ts - last_ts > trace_gap {
            traces.push(std::mem::take(&mut cur));
        }
        cur.push(label);
        last_ts = ts;
    }
    if !cur.is_empty() {
        traces.push(cur);
    }
    traces
}

/// The removed `SystemModel::known_devices`, verbatim: a fresh
/// `HashSet<String>` of the vocabulary's device prefixes per call.
fn known_devices(system: &SystemModel) -> std::collections::HashSet<String> {
    (0..system.log.vocab.len() as u32)
        .map(|i| {
            let name = system.log.vocab.name(behaviot_pfsm::EventId(i));
            name.split(':').next().unwrap_or(name).to_string()
        })
        .collect()
}

/// The removed `behaviot::deviation::LongTermResult`.
struct LongTermResult {
    from: String,
    to: String,
    model_p: f64,
    observed_p: f64,
    n: usize,
    z: f64,
}

fn state_label(model: &SystemModel, s: StateId) -> String {
    if s == INITIAL {
        "INITIAL".to_string()
    } else if s == FINAL {
        "FINAL".to_string()
    } else {
        match model.pfsm.event_of(s) {
            Some(ev) => model.log.vocab.name(ev).to_string(),
            None => format!("s{}", s.0),
        }
    }
}

/// The removed `behaviot::deviation::long_term_deviations`, verbatim:
/// fresh std maps per window, `String` labels per result.
fn long_term_deviations(model: &SystemModel, traces: &[Vec<String>]) -> Vec<LongTermResult> {
    let mut counts: HashMap<(StateId, StateId), usize> = HashMap::new();
    let mut out_totals: HashMap<StateId, usize> = HashMap::new();
    for trace in traces {
        if trace.is_empty() {
            continue;
        }
        let resolved = model.log.resolve(trace);
        let score = model.pfsm.score(&resolved);
        let mut prev: Option<StateId> = Some(INITIAL);
        for state in score.path.iter().chain(std::iter::once(&Some(FINAL))) {
            if let (Some(a), Some(b)) = (prev, state) {
                *counts.entry((a, *b)).or_insert(0) += 1;
                *out_totals.entry(a).or_insert(0) += 1;
            }
            prev = *state;
        }
    }
    let mut results = Vec::new();
    for (&from, &n) in &out_totals {
        let mut dests: std::collections::HashSet<StateId> = counts
            .keys()
            .filter(|(a, _)| *a == from)
            .map(|(_, b)| *b)
            .collect();
        for (f, t, _, _) in model.pfsm.transitions() {
            if f == from {
                dests.insert(t);
            }
        }
        for to in dests {
            let observed = counts.get(&(from, to)).copied().unwrap_or(0);
            let p = observed as f64 / n as f64;
            let p0 = model.pfsm.transition_prob(from, to);
            let z = stats::binomial_z(p, p0, n).abs();
            results.push(LongTermResult {
                from: state_label(model, from),
                to: state_label(model, to),
                model_p: p0,
                observed_p: p,
                n,
                z,
            });
        }
    }
    results.sort_by(|a, b| {
        b.z.partial_cmp(&a.z)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (&a.from, &a.to).cmp(&(&b.from, &b.to)))
    });
    results
}

pub struct BaselineMonitor {
    models: BehavIoT,
    system: SystemModel,
    cfg: MonitorConfig,
    last_seen: FxHashMap<GroupKey, f64>,
    absence_flagged: FxHashSet<Ipv4Addr>,
    long_flagged: FxHashSet<(Symbol, Symbol)>,
}

impl BaselineMonitor {
    pub fn new(models: BehavIoT, system: SystemModel, cfg: MonitorConfig) -> Self {
        Self {
            models,
            system,
            cfg,
            last_seen: FxHashMap::default(),
            absence_flagged: FxHashSet::default(),
            long_flagged: FxHashSet::default(),
        }
    }

    fn device_label(&self, ip: Ipv4Addr) -> String {
        self.models
            .names
            .get(&ip)
            .cloned()
            .unwrap_or_else(|| ip.to_string())
    }

    pub fn process_window(
        &mut self,
        flows: &[FlowRecord],
        window_start: f64,
        window_end: f64,
    ) -> Vec<Deviation> {
        let events = self.models.infer_events(flows);
        let mut out = Vec::new();

        let mut worst_gap: FxHashMap<Ipv4Addr, (f64, f64, Symbol)> = FxHashMap::default();
        let mut worst_absent: FxHashMap<Ipv4Addr, (f64, Symbol)> = FxHashMap::default();
        for e in &events {
            let key: GroupKey = (e.device, e.destination, e.proto);
            let Some(model) = self.models.periodic.get(&key) else {
                continue;
            };
            self.absence_flagged.remove(&e.device);
            if let Some(prev) = self.last_seen.insert(key, e.ts) {
                let gap = e.ts - prev;
                let score = periodic_metric_multi(
                    gap,
                    &model.periods,
                    self.models.periodic.config().max_missed,
                );
                if score > self.cfg.periodic_threshold {
                    let entry = worst_gap
                        .entry(e.device)
                        .or_insert((0.0, e.ts, e.destination));
                    if score > entry.0 {
                        *entry = (score, e.ts, e.destination);
                    }
                }
            }
        }
        for model in self.models.periodic.iter() {
            let key: GroupKey = (model.device, model.destination, model.proto);
            let Some(&last) = self.last_seen.get(&key) else {
                continue;
            };
            let elapsed = window_end - last;
            let score = periodic_metric_multi(
                elapsed,
                &model.periods,
                self.models.periodic.config().max_missed,
            );
            if elapsed > model.period()
                && score > self.cfg.periodic_threshold
                && !self.absence_flagged.contains(&model.device)
            {
                let entry = worst_absent
                    .entry(model.device)
                    .or_insert((0.0, model.destination));
                if score > entry.0 {
                    *entry = (score, model.destination);
                }
            }
        }
        for device in worst_absent.keys() {
            self.absence_flagged.insert(*device);
        }
        for (device, (score, ts, dest)) in worst_gap {
            out.push(Deviation {
                ts,
                kind: DeviationKind::PeriodicTiming,
                score,
                threshold: self.cfg.periodic_threshold,
                subject: self.device_label(device),
                detail: format!("periodic traffic to {dest} arrived off schedule"),
            });
        }
        let devices_with_models: std::collections::HashSet<Ipv4Addr> =
            self.models.periodic.iter().map(|m| m.device).collect();
        if worst_absent.len() >= 5 && worst_absent.len() * 10 >= devices_with_models.len() * 8 {
            let worst = worst_absent
                .values()
                .map(|(s, _)| *s)
                .fold(f64::NEG_INFINITY, f64::max);
            out.push(Deviation {
                ts: window_end,
                kind: DeviationKind::PeriodicTiming,
                score: worst,
                threshold: self.cfg.periodic_threshold,
                subject: format!("{} devices", worst_absent.len()),
                detail: "periodic traffic overdue across the testbed (network outage)".to_string(),
            });
        } else {
            for (device, (score, dest)) in worst_absent {
                out.push(Deviation {
                    ts: window_end,
                    kind: DeviationKind::PeriodicTiming,
                    score,
                    threshold: self.cfg.periodic_threshold,
                    subject: self.device_label(device),
                    detail: format!("periodic traffic to {dest} is overdue (possible outage)"),
                });
            }
        }

        let known = known_devices(&self.system);
        let traces: Vec<Vec<String>> =
            traces_from_events(&events, &self.models.names, self.cfg.trace_gap)
                .into_iter()
                .map(|t| {
                    t.into_iter()
                        .filter(|label| label.split(':').next().is_some_and(|d| known.contains(d)))
                        .collect::<Vec<_>>()
                })
                .filter(|t: &Vec<String>| !t.is_empty())
                .collect();
        let st_threshold = self.system.short_term_threshold(self.cfg.short_sigma);
        for t in &traces {
            let score = self.system.short_term_metric(t);
            if score > st_threshold {
                out.push(Deviation {
                    ts: window_start,
                    kind: DeviationKind::ShortTerm,
                    score,
                    threshold: st_threshold,
                    subject: t.join(" -> "),
                    detail: "user-event trace is improbable under the system model".to_string(),
                });
            }
        }

        let crit = long_term_threshold(self.cfg.long_confidence);
        let mut still_deviating: FxHashSet<(Symbol, Symbol)> = FxHashSet::default();
        for r in long_term_deviations(&self.system, &traces) {
            if r.n < self.cfg.long_min_n {
                continue;
            }
            let count_diff = (r.observed_p - r.model_p).abs() * r.n as f64;
            if r.z > crit && count_diff >= self.cfg.long_min_count_diff {
                let key = (Symbol::intern(&r.from), Symbol::intern(&r.to));
                still_deviating.insert(key);
                if self.long_flagged.contains(&key) {
                    continue;
                }
                out.push(Deviation {
                    ts: window_start,
                    kind: DeviationKind::LongTerm,
                    score: r.z,
                    threshold: crit,
                    subject: format!("{} -> {}", r.from, r.to),
                    detail: format!(
                        "transition frequency {:.2} deviates from modeled {:.2} over {} departures",
                        r.observed_p, r.model_p, r.n
                    ),
                });
            }
        }
        self.long_flagged = still_deviating;
        out
    }
}
