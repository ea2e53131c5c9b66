//! Figure 4: CDFs of the three deviation metrics under controlled
//! perturbations, with 5-fold cross-validation as in §5.3.

use crate::prep::{time_folds, Prepared};
use crate::report::cdf_series;
use behaviot::deviation::{long_term_deviations_syms, PERIODIC_THRESHOLD};
use behaviot::periodic::{PeriodicModelSet, PeriodicTrainConfig};
use behaviot::system::{SystemModel, SystemModelConfig};
use behaviot_dsp::Ecdf;
use behaviot_intern::Symbol;
use behaviot_sim::LabeledFlow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Periodic-event metric samples of one partition, given trained models:
/// per traffic group, each inter-event gap scores 0 when the timer matches
/// and `Mp` otherwise (§4.3).
fn periodic_metric_samples(models: &PeriodicModelSet, flows: &[LabeledFlow]) -> Vec<f64> {
    let mut last: HashMap<behaviot::periodic::GroupKey, f64> = HashMap::new();
    let mut samples = Vec::new();
    let cfg = models.config();
    for l in flows {
        let (dest, proto) = l.flow.group_key();
        let key = (l.flow.device, dest, proto);
        let Some(model) = models.get(&key) else {
            continue;
        };
        if let Some(prev) = last.insert(key, l.flow.start) {
            let gap = l.flow.start - prev;
            let score = if model.timer_matches(gap, cfg) {
                0.0
            } else {
                behaviot::deviation::periodic_metric_multi(gap, &model.periods, 1)
            };
            samples.push(score);
        }
    }
    samples
}

/// Figure 4a: CDFs of the periodic-event metric on idle train/test folds.
pub fn fig4a(p: &Prepared) -> String {
    let folds = time_folds(&p.idle, 5);
    let mut train_samples = Vec::new();
    let mut test_samples = Vec::new();
    for i in 0..folds.len() {
        let train: Vec<LabeledFlow> = folds
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, f)| f.iter().cloned())
            .collect();
        let flows: Vec<_> = train.iter().map(|l| l.flow.clone()).collect();
        let models = PeriodicModelSet::train(&flows, &PeriodicTrainConfig::default());
        train_samples.extend(periodic_metric_samples(&models, &train));
        test_samples.extend(periodic_metric_samples(&models, &folds[i]));
    }
    let zero_frac = train_samples.iter().filter(|&&x| x == 0.0).count() as f64
        / train_samples.len().max(1) as f64;
    // The paper zooms the CDF onto the deviating tail before reading the
    // knee: compute it over the nonzero samples.
    let tail: Vec<f64> = test_samples.iter().copied().filter(|&x| x > 0.0).collect();
    let knee = Ecdf::new(tail).knee(0.0);

    let mut out = String::from("== Figure 4a: periodic-event deviation metric CDFs ==\n");
    out.push_str(&crate::report::paper_vs_measured(&[
        (
            "train flows with zero deviation",
            ">99%",
            crate::report::pct(zero_frac),
        ),
        (
            "knee of zoomed CDF (threshold)",
            "1.61",
            knee.map(|k| format!("{k:.2}"))
                .unwrap_or_else(|| "n/a (all zero)".to_string()),
        ),
        (
            "threshold used downstream",
            "1.61",
            format!("{PERIODIC_THRESHOLD:.2}"),
        ),
    ]));
    out.push('\n');
    out.push_str(&cdf_series("idle training folds", &train_samples, 20));
    out.push_str(&cdf_series("idle testing folds", &test_samples, 20));
    out
}

/// Figure 4b: short-term metric CDFs with 1..5 injected unseen-transition
/// events per trace.
pub fn fig4b(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    let folds = time_folds(&traces, 5);
    let mut baseline_train: Vec<f64> = Vec::new();
    let mut baseline_test: Vec<f64> = Vec::new();
    let mut perturbed: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut rng = StdRng::seed_from_u64(0x000F_164B);

    for i in 0..folds.len() {
        let train: Vec<Vec<Symbol>> = folds
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, f)| f.iter().cloned())
            .collect();
        if train.is_empty() || folds[i].is_empty() {
            continue;
        }
        let model = SystemModel::from_traces(&train, &SystemModelConfig::default());
        // Vocabulary of labels for injection (symbols sort by their
        // resolved strings, so the order matches the old String vocab).
        let vocab: Vec<Symbol> = {
            let mut v: Vec<Symbol> = train.iter().flatten().copied().collect();
            v.sort();
            v.dedup();
            v
        };
        baseline_train.extend(train.iter().map(|t| model.short_term_metric(t)));
        baseline_test.extend(folds[i].iter().map(|t| model.short_term_metric(t)));
        for k in 1..=5usize {
            for t in &folds[i] {
                let mut t2 = t.clone();
                for _ in 0..k {
                    let ev = vocab[rng.gen_range(0..vocab.len())];
                    let pos = rng.gen_range(0..=t2.len());
                    t2.insert(pos, ev);
                }
                perturbed[k - 1].push(model.short_term_metric(&t2));
            }
        }
    }

    let mean = behaviot_dsp::stats::mean(&baseline_test);
    let mut out = String::from("== Figure 4b: short-term deviation metric CDFs ==\n");
    out.push_str(
        "(paper: distributions shift right as 1..5 unseen-transition events are injected)\n\n",
    );
    out.push_str(&format!("baseline test mean A_T = {mean:.2}\n"));
    for (k, sample) in perturbed.iter().enumerate() {
        out.push_str(&format!(
            "inject {}: mean A_T = {:.2}\n",
            k + 1,
            behaviot_dsp::stats::mean(sample)
        ));
    }
    out.push('\n');
    out.push_str(&cdf_series("routine training", &baseline_train, 10));
    out.push_str(&cdf_series("routine testing", &baseline_test, 10));
    for (k, sample) in perturbed.iter().enumerate() {
        out.push_str(&cdf_series(
            &format!("testing + {} injected", k + 1),
            sample,
            10,
        ));
    }
    out
}

/// Figure 4c: long-term metric CDFs with 1..5× duplicated traces.
pub fn fig4c(p: &Prepared) -> String {
    let traces = p.routine_traces(60.0);
    let folds = time_folds(&traces, 5);
    let mut baseline: Vec<f64> = Vec::new();
    let mut duplicated: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut rng = StdRng::seed_from_u64(0x000F_164C);

    let clamp = |z: f64| if z.is_finite() { z } else { 50.0 };
    for i in 0..folds.len() {
        let train: Vec<Vec<Symbol>> = folds
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, f)| f.iter().cloned())
            .collect();
        if train.is_empty() || folds[i].is_empty() {
            continue;
        }
        let model = SystemModel::from_traces(&train, &SystemModelConfig::default());
        baseline.extend(
            long_term_deviations_syms(&model, &folds[i])
                .iter()
                .map(|r| clamp(r.z)),
        );
        for k in 1..=5usize {
            // Duplicate a sampled quarter of the test traces k extra times
            // (simulating user-event sequences becoming more frequent).
            let mut window = folds[i].clone();
            let n_dup = (folds[i].len() / 4).max(1);
            for _ in 0..n_dup {
                let t = folds[i][rng.gen_range(0..folds[i].len())].clone();
                for _ in 0..k {
                    window.push(t.clone());
                }
            }
            duplicated[k - 1].extend(
                long_term_deviations_syms(&model, &window)
                    .iter()
                    .map(|r| clamp(r.z)),
            );
        }
    }

    let crit = behaviot::deviation::long_term_threshold(0.95);
    let mut out = String::from("== Figure 4c: long-term deviation metric CDFs ==\n");
    out.push_str("(paper: distributions shift right as duplication increases)\n\n");
    let beyond = |s: &[f64]| s.iter().filter(|&&z| z > crit).count() as f64 / s.len().max(1) as f64;
    out.push_str(&format!(
        "baseline: mean |z| = {:.2}, beyond 95% CI = {}\n",
        behaviot_dsp::stats::mean(&baseline),
        crate::report::pct(beyond(&baseline))
    ));
    for (k, sample) in duplicated.iter().enumerate() {
        out.push_str(&format!(
            "duplicate x{}: mean |z| = {:.2}, beyond 95% CI = {}\n",
            k + 1,
            behaviot_dsp::stats::mean(sample),
            crate::report::pct(beyond(sample))
        ));
    }
    out.push('\n');
    out.push_str(&cdf_series("baseline transitions", &baseline, 10));
    for (k, sample) in duplicated.iter().enumerate() {
        out.push_str(&cdf_series(&format!("duplicate x{}", k + 1), sample, 10));
    }
    out
}
