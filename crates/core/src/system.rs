//! System behavior modeling (§4.2): user events → event traces → PFSM.

use crate::event::InferredEvent;
use behaviot_intern::{FxHashSet, Symbol};
use behaviot_pfsm::model::StateId;
use behaviot_pfsm::{EventId, Pfsm, PfsmConfig, TraceLog};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Configuration of the system model.
#[derive(Debug, Clone)]
pub struct SystemModelConfig {
    /// Consecutive user events further apart than this (seconds) start a
    /// new trace (1 minute in the paper, like prior work \[33, 66, 76\]).
    pub trace_gap: f64,
    /// PFSM inference settings.
    pub pfsm: PfsmConfig,
}

impl Default for SystemModelConfig {
    fn default() -> Self {
        Self {
            trace_gap: 60.0,
            pfsm: PfsmConfig::default(),
        }
    }
}

/// The inferred system behavior model: the PFSM plus the statistics of the
/// training traces needed by the deviation metrics.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// The probabilistic state machine.
    pub pfsm: Pfsm,
    /// The training log (owns the event vocabulary).
    pub log: TraceLog,
    /// Mean of the short-term metric over training traces.
    pub train_score_mean: f64,
    /// Standard deviation of the short-term metric over training traces.
    pub train_score_std: f64,
    cfg: SystemModelConfig,
    /// Device of each vocabulary event, indexed by [`EventId`].
    event_devices: Vec<Symbol>,
    /// Devices covered by the vocabulary, cached at construction.
    known: FxHashSet<Symbol>,
}

/// Split chronologically ordered user events into traces of PFSM labels at
/// gaps larger than `trace_gap`. Non-user events are ignored. Each label is
/// an interned [`Symbol`] — one render per first-seen `(device, activity)`
/// pair process-wide instead of one `String` per event.
///
/// Events are ordered by [`f64::total_cmp`] of their times, so a NaN time
/// sorts to one end (after every number unless its sign bit is set). A
/// gap to or from a NaN time never splits a trace, so such an event joins
/// the trace it sorts into.
pub fn traces_from_events_syms(
    events: &[InferredEvent],
    names: &HashMap<Ipv4Addr, String>,
    trace_gap: f64,
) -> Vec<Vec<Symbol>> {
    let mut user: Vec<(f64, Symbol)> = events
        .iter()
        .filter_map(|e| e.pfsm_label_sym(names).map(|l| (e.ts, l)))
        .collect();
    user.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut traces: Vec<Vec<Symbol>> = Vec::new();
    let mut cur: Vec<Symbol> = Vec::new();
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

impl SystemModel {
    /// Build the system model from the user events of an observation
    /// period.
    pub fn build(
        events: &[InferredEvent],
        names: &HashMap<Ipv4Addr, String>,
        cfg: &SystemModelConfig,
    ) -> Self {
        let traces = traces_from_events_syms(events, names, cfg.trace_gap);
        Self::from_traces(&traces, cfg)
    }

    /// Build directly from label traces — `String` or [`Symbol`] labels
    /// alike (used by evaluation code that perturbs traces).
    pub fn from_traces<S: AsRef<str>>(traces: &[Vec<S>], cfg: &SystemModelConfig) -> Self {
        let mut span = behaviot_obs::span!("system.pfsm", traces = traces.len());
        behaviot_obs::metrics()
            .counter("system.traces")
            .add(traces.len() as u64);
        let mut log = TraceLog::new();
        for t in traces {
            log.push_trace(t);
        }
        let pfsm = Pfsm::infer(&log, &cfg.pfsm);
        span.record("states", pfsm.n_states());
        // Short-term metric statistics over the training traces.
        let scores: Vec<f64> = traces
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| short_term_of(&pfsm, &log, t))
            .collect();
        let mean = behaviot_dsp::stats::mean(&scores);
        let std = behaviot_dsp::stats::std_dev(&scores);
        // The one place a `device:activity` label is split: the monitor's
        // trace filter and transition attribution both read this table.
        let event_devices: Vec<Symbol> = (0..log.vocab.len() as u32)
            .map(|i| {
                let name = log.vocab.name(EventId(i));
                Symbol::intern(name.split(':').next().unwrap_or(name))
            })
            .collect();
        let known = event_devices.iter().copied().collect();
        SystemModel {
            pfsm,
            log,
            train_score_mean: mean,
            train_score_std: std,
            cfg: cfg.clone(),
            event_devices,
            known,
        }
    }

    /// The short-term deviation metric of a trace (`String` or [`Symbol`]
    /// labels): `A_T = 1 − log10(P_T)` where `P_T` is the (smoothed)
    /// probability of the trace under the PFSM. `A_T = 1` means "as
    /// expected".
    pub fn short_term_metric<S: AsRef<str>>(&self, trace: &[S]) -> f64 {
        short_term_of(&self.pfsm, &self.log, trace)
    }

    /// The §5.3 significance threshold: `μ + nσ` over the training traces
    /// (`n = 3` in the paper).
    pub fn short_term_threshold(&self, n_sigma: f64) -> f64 {
        self.train_score_mean + n_sigma * self.train_score_std
    }

    /// Does the PFSM accept a trace (`String` or [`Symbol`] labels) without
    /// smoothing (only transitions observed in training)?
    pub fn accepts<S: AsRef<str>>(&self, trace: &[S]) -> bool {
        let resolved = self.log.resolve(trace);
        self.pfsm.accepts(&resolved)
    }

    /// Configured trace gap.
    pub fn trace_gap(&self) -> f64 {
        self.cfg.trace_gap
    }

    /// The full configuration the model was inferred with (serialization
    /// surface: persisting the config + training traces is enough to
    /// rebuild the model bit-identically via [`SystemModel::from_traces`]).
    pub fn config(&self) -> &SystemModelConfig {
        &self.cfg
    }

    /// The devices the system model covers (the prefix before `:` of every
    /// vocabulary label), as interned symbols cached at construction.
    /// Events from other devices cannot be judged by this model and are
    /// excluded from monitoring traces; membership is a 4-byte probe, no
    /// per-call allocation.
    pub fn known_device_syms(&self) -> &FxHashSet<Symbol> {
        &self.known
    }

    /// The device of the event a PFSM state abstracts (the label prefix
    /// before `:`), `None` for INITIAL and FINAL.
    pub(crate) fn state_device(&self, s: StateId) -> Option<Symbol> {
        self.pfsm
            .event_of(s)
            .map(|ev| self.event_devices[ev.0 as usize])
    }
}

fn short_term_of<S: AsRef<str>>(pfsm: &Pfsm, log: &TraceLog, trace: &[S]) -> f64 {
    let resolved = log.resolve(trace);
    1.0 - pfsm.score(&resolved).log10_prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use behaviot_net::Proto;

    fn user_event(ts: f64, dev_last_octet: u8, activity: &str) -> InferredEvent {
        InferredEvent {
            ts,
            device: Ipv4Addr::new(192, 168, 1, dev_last_octet),
            destination: "d".into(),
            proto: Proto::Tcp,
            kind: EventKind::User {
                activity: activity.into(),
                confidence: 1.0,
            },
        }
    }

    fn names() -> HashMap<Ipv4Addr, String> {
        let mut m = HashMap::new();
        m.insert(Ipv4Addr::new(192, 168, 1, 10), "cam".to_string());
        m.insert(Ipv4Addr::new(192, 168, 1, 11), "bulb".to_string());
        m
    }

    fn rendered(traces: &[Vec<Symbol>]) -> Vec<Vec<&'static str>> {
        traces
            .iter()
            .map(|t| t.iter().map(|s| s.as_str()).collect())
            .collect()
    }

    #[test]
    fn trace_segmentation_at_gap() {
        let events = vec![
            user_event(0.0, 10, "motion"),
            user_event(5.0, 11, "on"),
            user_event(100.0, 10, "motion"), // 95 s gap -> new trace
            user_event(103.0, 11, "on"),
        ];
        let traces = traces_from_events_syms(&events, &names(), 60.0);
        assert_eq!(
            rendered(&traces),
            vec![vec!["cam:motion", "bulb:on"], vec!["cam:motion", "bulb:on"]]
        );
    }

    #[test]
    fn non_user_events_excluded() {
        let mut events = vec![user_event(0.0, 10, "motion")];
        events.push(InferredEvent {
            ts: 1.0,
            device: Ipv4Addr::new(192, 168, 1, 10),
            destination: "d".into(),
            proto: Proto::Tcp,
            kind: EventKind::Aperiodic,
        });
        let traces = traces_from_events_syms(&events, &names(), 60.0);
        assert_eq!(rendered(&traces), vec![vec!["cam:motion"]]);
    }

    #[test]
    fn model_accepts_training_and_scores_unseen_higher() {
        let traces: Vec<Vec<String>> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec!["cam:motion".into(), "bulb:on".into()]
                } else {
                    vec!["spot:voice".into(), "bulb:on".into(), "bulb:off".into()]
                }
            })
            .collect();
        let m = SystemModel::from_traces(&traces, &SystemModelConfig::default());
        assert!(m.accepts(&["cam:motion", "bulb:on"]));
        let seen = m.short_term_metric(&["cam:motion", "bulb:on"]);
        let unseen = m.short_term_metric(&["bulb:off", "ghost:event", "cam:motion"]);
        assert!(unseen > seen, "{unseen} vs {seen}");
        assert!(seen >= 1.0);
        let thr = m.short_term_threshold(3.0);
        assert!(unseen > thr, "unseen {unseen} thr {thr}");
        assert!(seen <= thr, "seen {seen} thr {thr}");
    }

    #[test]
    fn empty_events_empty_model() {
        let m = SystemModel::build(&[], &names(), &SystemModelConfig::default());
        assert_eq!(m.pfsm.n_states(), 2);
        assert_eq!(m.train_score_mean, 0.0);
    }

    #[test]
    fn unsorted_events_are_ordered() {
        let events = vec![user_event(50.0, 11, "on"), user_event(0.0, 10, "motion")];
        let traces = traces_from_events_syms(&events, &names(), 60.0);
        assert_eq!(rendered(&traces), vec![vec!["cam:motion", "bulb:on"]]);
    }

    #[test]
    fn nan_event_time_sorts_last_and_joins_the_last_trace() {
        let events = vec![
            user_event(f64::NAN, 11, "off"),
            user_event(0.0, 10, "motion"),
            user_event(100.0, 11, "on"), // 100 s gap -> new trace
        ];
        let traces = traces_from_events_syms(&events, &names(), 60.0);
        assert_eq!(
            rendered(&traces),
            vec![vec!["cam:motion"], vec!["bulb:on", "bulb:off"]]
        );
        let m = SystemModel::build(&events, &names(), &SystemModelConfig::default());
        assert!(m.accepts(&["bulb:on", "bulb:off"]));
    }

    #[test]
    fn known_device_syms_covers_vocabulary_prefixes() {
        let traces: Vec<Vec<String>> = (0..10)
            .map(|_| vec!["cam:motion".into(), "bulb:on".into()])
            .collect();
        let m = SystemModel::from_traces(&traces, &SystemModelConfig::default());
        let mut cached: Vec<&str> = m.known_device_syms().iter().map(|s| s.as_str()).collect();
        cached.sort_unstable();
        assert_eq!(cached, ["bulb", "cam"]);
        assert!(m.known_device_syms().contains(&Symbol::intern("cam")));
        assert!(!m.known_device_syms().contains(&Symbol::intern("ghost")));
        // INITIAL and FINAL abstract no event, so they name no device.
        for s in 0..m.pfsm.n_states() as u32 {
            let s = StateId(s);
            let label = m.pfsm.event_of(s).map(|ev| m.log.vocab.name(ev));
            let device = label.map(|l| l.split(':').next().unwrap_or(l));
            assert_eq!(m.state_device(s).map(|d| d.as_str()), device);
        }
    }
}
