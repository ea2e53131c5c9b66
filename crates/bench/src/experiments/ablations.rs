//! Ablations of the design choices DESIGN.md calls out: the DBSCAN second
//! stage of periodic labeling, additive smoothing of trace probabilities,
//! PFSM vs sequence-graph generalization, and the burst/trace gap
//! thresholds.

use crate::prep::{time_folds, Prepared};
use crate::report::{pct, table};
use behaviot::periodic::{PeriodicModelSet, PeriodicTimers, PeriodicTrainConfig};
use behaviot::system::{traces_from_events_syms, SystemModel, SystemModelConfig};
use behaviot_flows::{assemble_flows, FlowConfig};
use behaviot_intern::Symbol;
use behaviot_pfsm::{PfsmConfig, SeqGraph, TraceLog};
use behaviot_sim::{self as sim, TruthLabel};

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
/// DBSCAN stage recovers it.
fn timer_vs_dbscan(p: &Prepared) -> String {
    let folds = time_folds(&p.idle, 2);
    let train_flows: Vec<_> = folds[0].iter().map(|l| l.flow.clone()).collect();
    let models = PeriodicModelSet::train(&train_flows, &PeriodicTrainConfig::default());
    let eval = |timer_only: bool| -> f64 {
        let mut timers = PeriodicTimers::new();
        let mut truth = 0usize;
        let mut ok = 0usize;
        for l in &folds[1] {
            let is_periodic = timers.classify(&models, &l.flow, timer_only);
            if matches!(l.label, Some(TruthLabel::Periodic(..))) {
                truth += 1;
                if is_periodic {
                    ok += 1;
                }
            }
        }
        ok as f64 / truth.max(1) as f64
    };
    let full = eval(false);
    let timer_only = eval(true);
    format!(
        "[periodic labeling] timer-only accuracy {}  vs  timer+DBSCAN {}\n(the second stage recovers flows displaced by congestion/loss)\n",
        pct(timer_only),
        pct(full)
    )
}

/// §4.3 footnote 3: without additive smoothing, any unseen transition
/// collapses the trace probability to zero and the metric saturates.
fn smoothing(p: &Prepared) -> String {
    let traces = routine_traces(p, 60.0);
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
    let traces = routine_traces(p, 60.0);
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
        let traces = routine_traces(p, gap);
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

fn routine_traces(p: &Prepared, gap: f64) -> Vec<Vec<Symbol>> {
    let flows: Vec<_> = p.routine.iter().map(|l| l.flow.clone()).collect();
    let events = p.models.infer_events(&flows);
    traces_from_events_syms(&events, &p.names, gap)
}
