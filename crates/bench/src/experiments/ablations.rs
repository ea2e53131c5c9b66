//! Ablations of the design choices DESIGN.md calls out: the DBSCAN second
//! stage of periodic labeling, additive smoothing of trace probabilities,
//! PFSM vs sequence-graph generalization, and the burst/trace gap
//! thresholds.

use crate::prep::{time_folds, Prepared};
use crate::report::{pct, table};
use behaviot::periodic::{GroupKey, PeriodicModelSet, PeriodicTimers, PeriodicTrainConfig};
use behaviot::system::{SystemModel, SystemModelConfig};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_intern::Symbol;
use behaviot_pfsm::{PfsmConfig, SeqGraph, TraceLog};
use behaviot_sim::{self as sim, TruthLabel};
use std::collections::HashMap;

/// Run all ablations and render one report.
pub fn exp_ablations(p: &Prepared) -> String {
    let mut out = String::from("== Ablations ==\n\n");
    out.push_str(&timer_vs_dbscan(p));
    out.push('\n');
    out.push_str(&smoothing(p));
    out.push('\n');
    out.push_str(&pfsm_vs_seqgraph(p));
    out.push('\n');
    out.push_str(&burst_gap(p));
    out.push('\n');
    out.push_str(&trace_gap(p));
    out
}

/// §4.1 argues pure timers lose accuracy to non-deterministic timing; the
/// DBSCAN stage recovers it. The timer-only verdict runs the classifier's
/// count-up timer alone: per group, the gap since the group's previous
/// flow must match a model period.
fn timer_vs_dbscan(p: &Prepared) -> String {
    let folds = time_folds(&p.idle, 2);
    let train_flows: Vec<_> = folds[0].iter().map(|l| l.flow.clone()).collect();
    let models = PeriodicModelSet::train(&train_flows, &PeriodicTrainConfig::default());
    let mut timers = PeriodicTimers::new();
    let mut last_seen: HashMap<GroupKey, f64> = HashMap::new();
    let (mut truth, mut full, mut timer_only) = (0usize, 0usize, 0usize);
    for l in &folds[1] {
        let f = &l.flow;
        let is_periodic = timers.classify(&models, f);
        let (destination, proto) = f.group_key();
        let key = (f.device, destination, proto);
        let timer_hit = models.get(&key).is_some_and(|m| {
            let last = last_seen.insert(key, f.start);
            last.is_some_and(|last| m.timer_matches(f.start - last, models.config()))
        });
        if matches!(l.label, Some(TruthLabel::Periodic(..))) {
            truth += 1;
            full += usize::from(is_periodic);
            timer_only += usize::from(timer_hit);
        }
    }
    let frac = |ok: usize| ok as f64 / truth.max(1) as f64;
    format!(
        "[periodic labeling] timer-only accuracy {}  vs  timer+DBSCAN {}\n(the second stage recovers flows displaced by congestion/loss)\n",
        pct(frac(timer_only)),
        pct(frac(full))
    )
}

/// §4.3 footnote 3: without additive smoothing, any unseen transition
/// collapses the trace probability to zero and the metric saturates.
fn smoothing(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    let cut = (traces.len() * 7 / 10).max(1);
    let (train, test) = traces.split_at(cut);
    let smoothed = SystemModel::from_traces(train, &SystemModelConfig::default());
    let unsmoothed = SystemModel::from_traces(
        train,
        &SystemModelConfig {
            pfsm: PfsmConfig {
                smoothing_alpha: 0.0,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Perturb test traces with one unseen event.
    let mut saturated = 0usize;
    let mut finite = 0usize;
    let mut total = 0usize;
    for t in test {
        let mut t2 = t.clone();
        t2.insert(t2.len() / 2, Symbol::intern("ghost-device:event"));
        total += 1;
        if smoothed.short_term_metric(&t2) < 200.0 {
            finite += 1;
        }
        if unsmoothed.short_term_metric(&t2) > 200.0 {
            saturated += 1;
        }
    }
    format!(
        "[smoothing] with alpha=0.1: {finite}/{total} perturbed traces keep informative scores; with alpha=0: {saturated}/{total} saturate (score collapses, ranking impossible)\n",
    )
}

/// Fig 3 companion: generalization, not just size.
fn pfsm_vs_seqgraph(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    let cut = (traces.len() * 7 / 10).max(1);
    let (train, test) = traces.split_at(cut);
    let mut log = TraceLog::new();
    for t in train {
        log.push_trace(t);
    }
    let refined = behaviot_pfsm::Pfsm::infer(&log, &PfsmConfig::default());
    let coarse = behaviot_pfsm::Pfsm::infer(
        &log,
        &PfsmConfig {
            refine: false,
            ..Default::default()
        },
    );
    let seq = SeqGraph::build(&log);
    let acc = |accept: &dyn Fn(&[Option<behaviot_pfsm::EventId>]) -> bool| {
        test.iter().filter(|t| accept(&log.resolve(t))).count()
    };
    let refined_ok = acc(&|t| refined.accepts(t));
    let coarse_ok = acc(&|t| coarse.accepts(t));
    let seq_ok = acc(&|t| seq.accepts(t));
    format!(
        "[system model] held-out trace acceptance over {} traces:\n  sequence graph {seq_ok} (memorization) <= refined PFSM {refined_ok} <= unrefined PFSM {coarse_ok} (most generative)\n  sizes (nodes/edges): seq {}/{}  refined {}/{}  unrefined {}/{}\n",
        test.len(),
        seq.n_nodes(),
        seq.n_edges(),
        refined.n_states(),
        refined.n_transitions(),
        coarse.n_states(),
        coarse.n_transitions()
    )
}

/// Sensitivity of flow counts to the 1 s burst threshold.
fn burst_gap(p: &Prepared) -> String {
    let cap = sim::idle_dataset(&p.catalog, p.scale.seed, 0.05);
    let mut rows = Vec::new();
    for gap in [0.01, 0.05, 1.0, 30.0, 120.0] {
        let flows = assemble_flows(
            &cap.packets,
            &cap.domains,
            &FlowConfig {
                burst_gap: gap,
                ..Default::default()
            },
        );
        rows.push(vec![format!("{gap}"), flows.len().to_string()]);
    }
    format!(
        "[burst gap sensitivity]\n{}",
        table(&["burst_gap_s", "flow_bursts"], &rows)
    )
}

/// Sensitivity of trace counts to the 60 s trace threshold.
fn trace_gap(p: &Prepared) -> String {
    let mut rows = Vec::new();
    for gap in [15.0, 30.0, 60.0, 120.0, 300.0] {
        let traces = p.routine_traces(gap);
        let events: usize = traces.iter().map(Vec::len).sum();
        let avg = if traces.is_empty() {
            0.0
        } else {
            events as f64 / traces.len() as f64
        };
        rows.push(vec![
            format!("{gap}"),
            traces.len().to_string(),
            format!("{avg:.1}"),
        ]);
    }
    format!(
        "[trace gap sensitivity]\n{}",
        table(&["trace_gap_s", "traces", "events_per_trace"], &rows)
    )
}
