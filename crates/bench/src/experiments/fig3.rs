//! Figure 3 (model complexity: PFSM vs event-sequence graph as devices are
//! added) and the §5.2 PFSM-property checks.

use crate::prep::Prepared;
use crate::report::table;
use behaviot_intern::Symbol;
use behaviot_pfsm::{Pfsm, PfsmConfig, SeqGraph, TraceLog};

/// Regenerate Figure 3 as a table of model sizes vs device count.
pub fn fig3(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    let routine_order: Vec<String> = p
        .catalog
        .routine_device_indices()
        .iter()
        .map(|&i| p.catalog.devices[i].name.clone())
        .collect();

    let mut rows = Vec::new();
    for k in (2..=routine_order.len()).step_by(2) {
        let allowed: Vec<&str> = routine_order[..k].iter().map(String::as_str).collect();
        // Keep only events of the first k devices; drop traces that end up
        // empty.
        let filtered: Vec<Vec<Symbol>> = traces
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|label| {
                        allowed
                            .iter()
                            .any(|d| label.as_str().starts_with(&format!("{d}:")))
                    })
                    .copied()
                    .collect::<Vec<_>>()
            })
            .filter(|t: &Vec<Symbol>| !t.is_empty())
            .collect();
        let mut log = TraceLog::new();
        for t in &filtered {
            log.push_trace(t);
        }
        let events_total = log.event_count();
        let pfsm = Pfsm::infer(&log, &PfsmConfig::default());
        let seq = SeqGraph::build(&log);
        rows.push(vec![
            k.to_string(),
            filtered.len().to_string(),
            events_total.to_string(),
            pfsm.n_states().to_string(),
            pfsm.n_transitions().to_string(),
            seq.n_nodes().to_string(),
            seq.n_edges().to_string(),
        ]);
    }
    let mut out = String::from(
        "== Figure 3: model complexity vs number of devices ==\n(paper at 18 devices: PFSM 35 nodes / 211 edges vs sequence graph 710 / 910)\n\n",
    );
    out.push_str(&table(
        &[
            "devices",
            "traces",
            "events",
            "pfsm_nodes",
            "pfsm_edges",
            "seq_nodes",
            "seq_edges",
        ],
        &rows,
    ));
    out
}

/// §5.2 PFSM properties: all training traces accepted; unseen similar
/// traces accepted.
pub fn exp_pfsm_props(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    if traces.len() < 10 {
        return "== §5.2 PFSM properties ==\n(not enough traces)\n".to_string();
    }
    // 70/30 split.
    let cut = traces.len() * 7 / 10;
    let (train, held) = traces.split_at(cut);
    let mut log = TraceLog::new();
    for t in train {
        log.push_trace(t);
    }
    let pfsm = Pfsm::infer(&log, &PfsmConfig::default());

    let accepted_train = train
        .iter()
        .filter(|t| pfsm.accepts(&log.resolve(t)))
        .count();
    let accepted_held = held
        .iter()
        .filter(|t| pfsm.accepts(&log.resolve(t)))
        .count();
    let unseen: Vec<&Vec<Symbol>> = held.iter().filter(|t| !train.contains(t)).collect();
    let accepted_unseen = unseen
        .iter()
        .filter(|t| pfsm.accepts(&log.resolve(t)))
        .count();

    let mut out = String::from("== §5.2 PFSM properties ==\n");
    out.push_str(&crate::report::paper_vs_measured(&[
        (
            "training traces accepted",
            "100%",
            format!(
                "{accepted_train}/{} ({})",
                train.len(),
                crate::report::pct(accepted_train as f64 / train.len() as f64)
            ),
        ),
        (
            "held-out traces accepted",
            "present (similar traces accepted)",
            format!(
                "{accepted_held}/{} ({})",
                held.len(),
                crate::report::pct(accepted_held as f64 / held.len().max(1) as f64)
            ),
        ),
        (
            "of which never-seen-verbatim accepted",
            "present (combinations/permutations)",
            format!(
                "{accepted_unseen}/{} ({})",
                unseen.len(),
                crate::report::pct(accepted_unseen as f64 / unseen.len().max(1) as f64)
            ),
        ),
        ("PFSM states", "-", pfsm.n_states().to_string()),
        ("PFSM transitions", "-", pfsm.n_transitions().to_string()),
        ("refinement splits", "-", pfsm.n_splits().to_string()),
    ]));
    out
}
