//! The early-exit forest walk against the full mean it short-cuts.
//!
//! `RandomForest::predict_proba_reaching(s, bound)` may return `None` only
//! when `predict_proba(s) < bound`, and whatever it returns as `Some(q)` is
//! bit-identical to `predict_proba(s)`. Checked on fitted forests and on
//! hand-built ones with leaves of exactly 0 and 1, an empty forest and one
//! whose mean is exactly 0.7, against bounds at and one ulp either side of
//! the mean, the serving threshold 0.7, both ends of `[0, 1]`, values
//! outside it and NaN.

use behaviot_forest::{DecisionTree, NodeSpec, RandomForest, RandomForestConfig};
use behaviot_par::Parallelism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check(forest: &RandomForest, sample: &[f64]) {
    let p = forest.predict_proba(sample);
    let bounds = [
        p,
        p.next_up(),
        p.next_down(),
        0.7,
        0.0,
        1.0,
        -0.25,
        1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for bound in bounds {
        match forest.predict_proba_reaching(sample, bound) {
            Some(q) => assert_eq!(q.to_bits(), p.to_bits(), "bound {bound}: {q} vs {p}"),
            None => assert!(p < bound, "stopped below {bound}, but the mean is {p}"),
        }
    }
}

fn leaf(prob: f64) -> DecisionTree {
    DecisionTree::from_nodes(vec![NodeSpec::Leaf { prob }], 1).unwrap()
}

/// `x[0] <= threshold` reaches `lo`, anything else `hi`.
fn stump(threshold: f64, lo: f64, hi: f64) -> DecisionTree {
    let nodes = vec![
        NodeSpec::Split {
            feature: 0,
            threshold,
            left: 1,
            right: 2,
        },
        NodeSpec::Leaf { prob: lo },
        NodeSpec::Leaf { prob: hi },
    ];
    DecisionTree::from_nodes(nodes, 1).unwrap()
}

/// A leaf probability: often exactly 0 or 1, sometimes 0.7, else any.
fn prob(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5) {
        0 => 0.0,
        1 => 1.0,
        2 => 0.7,
        _ => rng.gen_range(0.0..1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fitted_forests_agree(seed in any::<u64>(), n in 4usize..48, trees in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rng.gen_range(1..4);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dims).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let y: Vec<bool> = x.iter().map(|r| r[0] + rng.gen_range(-1.0..1.0) > 0.0).collect();
        let cfg = RandomForestConfig {
            n_trees: trees,
            seed,
            parallelism: Parallelism::Off,
            ..Default::default()
        };
        let forest = RandomForest::fit(&x, &y, &cfg);
        for row in &x {
            check(&forest, row);
        }
        for _ in 0..8 {
            let probe: Vec<f64> = (0..dims).map(|_| rng.gen_range(-3.0..3.0)).collect();
            check(&forest, &probe);
        }
    }

    #[test]
    fn hand_built_forests_agree(seed in any::<u64>(), trees in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let forest: Vec<DecisionTree> = (0..trees)
            .map(|_| {
                if rng.gen_range(0..2) == 0 {
                    leaf(prob(&mut rng))
                } else {
                    let (lo, hi) = (prob(&mut rng), prob(&mut rng));
                    stump(rng.gen_range(-1.0..1.0), lo, hi)
                }
            })
            .collect();
        let forest = RandomForest::from_trees(forest, None).unwrap();
        for _ in 0..8 {
            check(&forest, &[rng.gen_range(-1.5..1.5)]);
        }
    }
}

#[test]
fn empty_forest_is_zero_for_every_bound() {
    let forest = RandomForest::from_trees(Vec::new(), None).unwrap();
    assert_eq!(forest.predict_proba(&[0.0]).to_bits(), 0.0f64.to_bits());
    for bound in [0.0, 0.7, 2.0, f64::INFINITY, f64::NAN] {
        assert_eq!(forest.predict_proba_reaching(&[0.0], bound), Some(0.0));
    }
    check(&forest, &[0.0]);
}

#[test]
fn mean_exactly_at_the_threshold_is_reached() {
    // Seven trees at 1 and three at 0 average to exactly 0.7, whatever
    // their order; with the zeros first the walk runs closest to the bound.
    let orders: [&[f64]; 3] = [
        &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        &[1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
    ];
    for probs in orders {
        let forest =
            RandomForest::from_trees(probs.iter().map(|&p| leaf(p)).collect(), None).unwrap();
        assert_eq!(forest.predict_proba(&[0.0]), 0.7);
        assert_eq!(forest.predict_proba_reaching(&[0.0], 0.7), Some(0.7));
        check(&forest, &[0.0]);
    }
}

#[test]
fn trees_past_the_exit_are_never_walked() {
    // Four zero trees leave 6 of 10 reachable, under 0.7 · 10, so the walk
    // stops there. The six trees after them expect two features and would
    // panic on this one-feature sample if they were walked.
    let two_features = DecisionTree::from_nodes(vec![NodeSpec::Leaf { prob: 1.0 }], 2).unwrap();
    let mut trees: Vec<DecisionTree> = (0..4).map(|_| leaf(0.0)).collect();
    trees.extend((0..6).map(|_| two_features.clone()));
    let forest = RandomForest::from_trees(trees, None).unwrap();
    assert_eq!(forest.predict_proba_reaching(&[0.0], 0.7), None);
}
