//! The three deviation metrics of §4.3 and their §5.3 significance
//! thresholds.

use crate::system::SystemModel;
use behaviot_dsp::stats;
use behaviot_intern::{FxHashMap, FxHashSet, Symbol};
use behaviot_pfsm::model::{StateId, FINAL, INITIAL};

/// The paper's empirically chosen periodic-event threshold: the knee of the
/// zoomed CDF in Fig. 4a, `ln(|5T − T|/T + 1) = ln 5 ≈ 1.61` (an event
/// arriving five periods late).
pub const PERIODIC_THRESHOLD: f64 = 1.61;

/// The periodic-event deviation metric
/// `Mp = ln(|T0 − T| / T + 1) ∈ [0, ∞)`, where `T0` is the elapsed time
/// measured by the count-up timer and `T` the modeled period.
///
/// Events arriving exactly on schedule score 0. If multiple periods exist,
/// callers should take the minimum over periods (the event only needs to
/// satisfy one pattern).
pub fn periodic_metric(elapsed: f64, period: f64) -> f64 {
    assert!(period > 0.0, "period must be positive");
    ((elapsed - period).abs() / period + 1.0).ln()
}

/// Minimum `Mp` over a model's periods — an event is as deviant as its
/// best-matching pattern. Gaps spanning `k` periods (missed observations
/// up to `max_missed`) count from the nearest multiple.
pub fn periodic_metric_multi(elapsed: f64, periods: &[f64], max_missed: u32) -> f64 {
    periods
        .iter()
        .flat_map(|&t| {
            (1..=max_missed.max(1)).map(move |k| {
                // deviation relative to k-th multiple, but normalized by T
                // (the paper normalizes by the period itself)
                ((elapsed - k as f64 * t).abs() / t + 1.0).ln()
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// [`periodic_metric_multi`] plus the best-matching period: returns
/// `(score, period)` where `period` is the modeled period whose (possibly
/// multiple-spanning) schedule the elapsed time matched best — the timer
/// the audit ledger names as evidence. The score is computed over the same
/// candidates in the same order, so it is bit-identical to
/// [`periodic_metric_multi`]; ties keep the first-seen period. Empty
/// period lists (which trained models never produce) return
/// `(f64::INFINITY, 0.0)`.
pub fn periodic_metric_multi_explain(elapsed: f64, periods: &[f64], max_missed: u32) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut best_period = 0.0;
    for &t in periods {
        for k in 1..=max_missed.max(1) {
            let score = ((elapsed - k as f64 * t).abs() / t + 1.0).ln();
            if score < best {
                best = score;
                best_period = t;
            }
        }
    }
    (best, best_period)
}

/// The label of a PFSM state as an interned [`Symbol`]: no per-call
/// allocation for INITIAL/FINAL/vocabulary states (the anonymous-state
/// fallback renders once per state process-wide).
fn state_label_sym(model: &SystemModel, s: StateId) -> Symbol {
    if s == INITIAL {
        Symbol::intern("INITIAL")
    } else if s == FINAL {
        Symbol::intern("FINAL")
    } else {
        match model.pfsm.event_of(s) {
            Some(ev) => model.log.vocab.symbol(ev),
            None => Symbol::intern(&format!("s{}", s.0)),
        }
    }
}

/// One long-term deviation test result with interned state labels: an
/// observed transition frequency checked against the model's transition
/// probability with a one-proportion z-test (Binomial approximation). The
/// label text is `"INITIAL"`/`"FINAL"`/the vocabulary event name.
#[derive(Debug, Clone, Copy)]
pub struct LongTermDeviation {
    /// Source state label ("INITIAL" for the start state).
    pub from: Symbol,
    /// Destination state label ("FINAL" for the end state).
    pub to: Symbol,
    /// Device of the source state's event (`None` for INITIAL).
    pub from_device: Option<Symbol>,
    /// Device of the destination state's event (`None` for FINAL).
    pub to_device: Option<Symbol>,
    /// Transition probability in the model (`p0`).
    pub model_p: f64,
    /// Observed transition probability in the new window (`p`).
    pub observed_p: f64,
    /// Number of departures from the source state in the window (`n`).
    pub n: usize,
    /// The metric `Z = |z|`; infinite when the model's variance is zero
    /// (e.g. a transition the model has never seen).
    pub z: f64,
}

/// Reusable transition-counting state for the long-term metric: a monitor
/// evaluating the metric every window feeds Viterbi paths into one
/// accumulator and reuses its maps and result buffer instead of building
/// fresh ones per window.
///
/// The result order is deterministic: the final sort on `(z desc, from,
/// to)` is total ([`Symbol`] ordering is string ordering, and `(from, to)`
/// pairs are unique), so the pre-sort map iteration order is immaterial —
/// a z-only sort would leave tied results (e.g. several `z = inf`)
/// nondeterministically arranged, breaking replay invariance
/// (tests/store_replay.rs).
#[derive(Debug, Default)]
pub struct LongTermAccumulator {
    counts: FxHashMap<(StateId, StateId), usize>,
    out_totals: FxHashMap<StateId, usize>,
    dests: Vec<StateId>,
    seen_dests: FxHashSet<StateId>,
    results: Vec<LongTermDeviation>,
}

impl LongTermAccumulator {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the counted window in place, keeping map/buffer capacity.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.out_totals.clear();
        self.results.clear();
    }

    /// Count the transitions of one trace's Viterbi state path (as produced
    /// by `Pfsm::score`/`score_into`), including the INITIAL entry and
    /// FINAL exit. Unknown events (`None` states) break the chain:
    /// transitions into/out of them are skipped (the short-term metric owns
    /// new-event detection). Empty paths are ignored, matching the
    /// empty-trace skip of the batch API.
    pub fn observe_path(&mut self, path: &[Option<StateId>]) {
        if path.is_empty() {
            return;
        }
        let mut prev: Option<StateId> = Some(INITIAL);
        for state in path.iter().chain(std::iter::once(&Some(FINAL))) {
            if let (Some(a), Some(b)) = (prev, state) {
                *self.counts.entry((a, *b)).or_insert(0) += 1;
                *self.out_totals.entry(a).or_insert(0) += 1;
            }
            prev = *state;
        }
    }

    /// Run the z-tests over the counted window: for each observed source
    /// state, test every destination that is observed or that the model
    /// expects. Results are sorted `(z desc, from, to)` and borrowed from
    /// the accumulator (reused on the next [`Self::reset`]).
    pub fn finalize(&mut self, model: &SystemModel) -> &[LongTermDeviation] {
        self.results.clear();
        for (&from, &n) in &self.out_totals {
            self.dests.clear();
            self.seen_dests.clear();
            for &(a, b) in self.counts.keys() {
                if a == from && self.seen_dests.insert(b) {
                    self.dests.push(b);
                }
            }
            for (f, t, _, _) in model.pfsm.transitions() {
                if f == from && self.seen_dests.insert(t) {
                    self.dests.push(t);
                }
            }
            for &to in &self.dests {
                let observed = self.counts.get(&(from, to)).copied().unwrap_or(0);
                let p = observed as f64 / n as f64;
                let p0 = model.pfsm.transition_prob(from, to);
                let z = stats::binomial_z(p, p0, n).abs();
                self.results.push(LongTermDeviation {
                    from: state_label_sym(model, from),
                    to: state_label_sym(model, to),
                    from_device: model.state_device(from),
                    to_device: model.state_device(to),
                    model_p: p0,
                    observed_p: p,
                    n,
                    z,
                });
            }
        }
        // Unstable sort (no merge-buffer allocation): the comparator is a
        // total order over the unique (from, to) pairs, so ties cannot be
        // reordered and the result order is fully determined.
        self.results.sort_unstable_by(|a, b| {
            b.z.partial_cmp(&a.z)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.from, a.to).cmp(&(b.from, b.to)))
        });
        &self.results
    }
}

/// Evaluate the long-term deviation metric over a window of traces: map
/// each trace onto the PFSM (Viterbi), count state transitions, and z-test
/// each against the model (§4.3). Results cover every `(from, to)` pair
/// that is observed in the window or predicted by the model from an
/// observed source state. Accepts `String` or [`Symbol`] traces. Batch
/// convenience over [`LongTermAccumulator`]; streaming callers should hold
/// their own accumulator (and scratch) and reuse them.
pub fn long_term_deviations_syms<S: AsRef<str>>(
    model: &SystemModel,
    traces: &[Vec<S>],
) -> Vec<LongTermDeviation> {
    let mut acc = LongTermAccumulator::new();
    for trace in traces {
        if trace.is_empty() {
            continue;
        }
        let resolved = model.log.resolve(trace);
        let score = model.pfsm.score(&resolved);
        acc.observe_path(&score.path);
    }
    acc.finalize(model).to_vec()
}

/// The long-term significance threshold: the two-sided critical z-value for
/// a confidence level (95 % in the paper → 1.96).
pub fn long_term_threshold(confidence: f64) -> f64 {
    stats::z_critical(confidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModelConfig;

    #[test]
    fn periodic_metric_values() {
        assert_eq!(periodic_metric(100.0, 100.0), 0.0);
        // T0 = 5T -> ln 5 = 1.609... (the paper's threshold)
        assert!((periodic_metric(500.0, 100.0) - 5.0f64.ln()).abs() < 1e-9);
        // Early events deviate too.
        assert!(periodic_metric(10.0, 100.0) > 0.0);
        // Monotone in |T0 - T|.
        assert!(periodic_metric(300.0, 100.0) < periodic_metric(400.0, 100.0));
    }

    #[test]
    fn periodic_metric_multi_takes_best_pattern() {
        let periods = [60.0, 3600.0];
        assert!(periodic_metric_multi(3600.0, &periods, 1) < 1e-9);
        assert!(periodic_metric_multi(60.0, &periods, 1) < 1e-9);
        // Bridging a missed occurrence: 120 s with T=60 and max_missed 2.
        assert!(periodic_metric_multi(120.0, &[60.0], 2) < 1e-9);
        assert!(periodic_metric_multi(120.0, &[60.0], 1) > 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        periodic_metric(1.0, 0.0);
    }

    #[test]
    fn explain_matches_multi_and_names_the_period() {
        let periods = [60.0, 3600.0];
        for elapsed in [30.0, 60.0, 150.0, 3500.0, 9000.0] {
            for max_missed in [1u32, 2, 5] {
                let (score, period) = periodic_metric_multi_explain(elapsed, &periods, max_missed);
                let want = periodic_metric_multi(elapsed, &periods, max_missed);
                assert_eq!(score.to_bits(), want.to_bits(), "elapsed {elapsed}");
                assert!(periods.contains(&period));
            }
        }
        let (s, p) = periodic_metric_multi_explain(3600.0, &periods, 1);
        assert!(s < 1e-9);
        assert_eq!(p, 3600.0);
        assert_eq!(
            periodic_metric_multi_explain(10.0, &[], 3),
            (f64::INFINITY, 0.0)
        );
    }

    fn simple_model() -> SystemModel {
        let traces: Vec<Vec<String>> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    vec!["a".into(), "b".into()]
                } else {
                    vec!["a".into(), "c".into()]
                }
            })
            .collect();
        SystemModel::from_traces(&traces, &SystemModelConfig::default())
    }

    #[test]
    fn long_term_no_deviation_for_matching_window() {
        let m = simple_model();
        // Window with the same 1/3 : 2/3 mix.
        let window: Vec<Vec<String>> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    vec!["a".into(), "b".into()]
                } else {
                    vec!["a".into(), "c".into()]
                }
            })
            .collect();
        let res = long_term_deviations_syms(&m, &window);
        let crit = long_term_threshold(0.95);
        assert!(res.iter().all(|r| r.z <= crit), "{res:#?}");
    }

    #[test]
    fn long_term_flags_frequency_shift() {
        let m = simple_model();
        // Window where a->b suddenly dominates (like a misactivating
        // speaker: same states, wrong frequencies).
        let window: Vec<Vec<String>> = (0..30).map(|_| vec!["a".into(), "b".into()]).collect();
        let res = long_term_deviations_syms(&m, &window);
        let crit = long_term_threshold(0.95);
        let flagged: Vec<_> = res.iter().filter(|r| r.z > crit).collect();
        assert!(!flagged.is_empty());
        assert!(flagged
            .iter()
            .any(|r| r.from.as_str() == "a" && r.to.as_str() == "b"));
    }

    #[test]
    fn long_term_infinite_for_novel_transition() {
        let m = simple_model();
        let window: Vec<Vec<String>> = (0..10).map(|_| vec!["b".into(), "a".into()]).collect();
        let res = long_term_deviations_syms(&m, &window);
        assert!(res.iter().any(|r| r.z.is_infinite()));
    }

    #[test]
    fn result_order_is_total_and_deterministic() {
        let m = simple_model();
        // A window mixing matching, shifted, and novel transitions — plus
        // an unknown event and an empty trace.
        let mut window: Vec<Vec<String>> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    vec!["a".into(), "b".into()]
                } else {
                    vec!["a".into(), "c".into()]
                }
            })
            .collect();
        window.push(vec!["b".into(), "a".into()]);
        window.push(vec!["a".into(), "ghost".into(), "b".into()]);
        window.push(vec![]);
        let first = long_term_deviations_syms(&m, &window);
        for _ in 0..5 {
            let again = long_term_deviations_syms(&m, &window);
            assert_eq!(first.len(), again.len());
            for (o, n) in first.iter().zip(&again) {
                assert_eq!(o.from, n.from);
                assert_eq!(o.to, n.to);
                assert_eq!(o.z.to_bits(), n.z.to_bits());
            }
        }
        // (z desc, from, to) holds over the whole result set.
        for w in first.windows(2) {
            assert!(
                w[0].z > w[1].z
                    || (w[0].z == w[1].z && (w[0].from, w[0].to) < (w[1].from, w[1].to)),
                "{:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn threshold_values() {
        assert!((long_term_threshold(0.95) - 1.96).abs() < 0.01);
        assert!((PERIODIC_THRESHOLD - 5.0f64.ln()).abs() < 0.01);
    }

    #[test]
    fn empty_window() {
        let m = simple_model();
        assert!(long_term_deviations_syms::<String>(&m, &[]).is_empty());
    }
}
