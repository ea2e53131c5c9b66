//! Bagged random forests over the CART trees of [`crate::tree`].

use crate::tree::{DecisionTree, MaxFeatures, TreeConfig};
use behaviot_par::{par_map, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (feature subsampling defaults to sqrt).
    pub tree: TreeConfig,
    /// RNG seed; the same seed and data always produce the same forest.
    pub seed: u64,
    /// Thread policy for training trees (`auto`/`off`/fixed). Per-seed
    /// results are identical under every setting.
    pub parallelism: Parallelism,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                ..Default::default()
            },
            seed: 0,
            parallelism: Parallelism::Auto,
        }
    }
}

/// A fitted random forest for binary classification. Its confidence is the
/// mean of the trees' leaf probabilities ([`RandomForest::predict_proba`]);
/// a caller that only needs to know whether that mean reaches a bound can
/// stop walking trees once it cannot
/// ([`RandomForest::predict_proba_reaching`]).
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    oob_score: Option<f64>,
}

impl RandomForest {
    /// Fit on row-major samples with boolean labels. Each tree is trained on
    /// a bootstrap sample (with replacement); out-of-bag accuracy is
    /// computed when every sample is left out by at least one tree.
    ///
    /// Panics on empty or ragged input (same contract as
    /// [`DecisionTree::fit`]).
    pub fn fit(x: &[Vec<f64>], y: &[bool], cfg: &RandomForestConfig) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let _span = behaviot_obs::span!("forest.fit", samples = x.len(), trees = cfg.n_trees);
        let m = behaviot_obs::metrics();
        m.counter("forest.fits").inc();
        m.counter("forest.trees").add(cfg.n_trees as u64);
        let n = x.len();

        // Pre-draw bootstrap index sets deterministically so parallel and
        // serial training produce identical forests.
        let mut seeder = StdRng::seed_from_u64(cfg.seed);
        let jobs: Vec<(u64, Vec<usize>)> = (0..cfg.n_trees)
            .map(|_| {
                let tree_seed: u64 = seeder.gen();
                let mut boot_rng = StdRng::seed_from_u64(tree_seed ^ 0x9e37);
                let idx: Vec<usize> = (0..n).map(|_| boot_rng.gen_range(0..n)).collect();
                (tree_seed, idx)
            })
            .collect();

        let train_one = |(tree_seed, idx): &(u64, Vec<usize>)| -> (DecisionTree, Vec<bool>) {
            let bx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<bool> = idx.iter().map(|&i| y[i]).collect();
            let mut rng = StdRng::seed_from_u64(*tree_seed);
            let tree = DecisionTree::fit(&bx, &by, &cfg.tree, &mut rng);
            let mut in_bag = vec![false; n];
            for &i in idx {
                in_bag[i] = true;
            }
            (tree, in_bag)
        };

        // Trees are independent given their pre-drawn seeds, so the
        // parallel map joins them back in job order and parallel
        // training is byte-identical to serial.
        let results: Vec<(DecisionTree, Vec<bool>)> = par_map(cfg.parallelism, &jobs, train_one);

        // Out-of-bag score: majority vote over the trees that did not see
        // each sample.
        let mut oob_votes = vec![(0usize, 0usize); n]; // (positive, total)
        for (tree, in_bag) in &results {
            for i in 0..n {
                if !in_bag[i] {
                    let v = &mut oob_votes[i];
                    if tree.predict(&x[i]) {
                        v.0 += 1;
                    }
                    v.1 += 1;
                }
            }
        }
        let scored: Vec<(usize, bool)> = oob_votes
            .iter()
            .enumerate()
            .filter(|(_, v)| v.1 > 0)
            .map(|(i, v)| (i, v.0 * 2 >= v.1))
            .collect();
        let oob_score = if scored.is_empty() {
            None
        } else {
            let correct = scored.iter().filter(|&&(i, pred)| pred == y[i]).count();
            Some(correct as f64 / scored.len() as f64)
        };

        RandomForest {
            trees: results.into_iter().map(|(t, _)| t).collect(),
            oob_score,
        }
    }

    /// Mean positive probability over the trees (0 for an empty forest).
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        // No partial sum falls below −∞, so this walk never stops early.
        self.predict_proba_reaching(sample, f64::NEG_INFINITY)
            .unwrap_or(0.0)
    }

    /// [`Self::predict_proba`], or `None` as soon as the mean provably
    /// falls below `bound`.
    ///
    /// The trees are summed in order. After each one, the walk stops if
    /// the running sum plus one per tree not yet walked is still below
    /// `bound · n` by more than a rounding margin of `1e-9 · n`: every leaf
    /// probability lies in `[0, 1]` (`fit` only produces `pos / total`, and
    /// [`DecisionTree::from_nodes`] rejects anything else), so the
    /// remaining trees cannot lift the mean to `bound`. A walk that does
    /// not stop sums every tree in the same order as `predict_proba`, so
    /// `Some(p)` is bit-identical to it. `None` implies
    /// `predict_proba(sample) < bound`; a NaN bound never stops the walk.
    pub fn predict_proba_reaching(&self, sample: &[f64], bound: f64) -> Option<f64> {
        if self.trees.is_empty() {
            return Some(0.0);
        }
        let n = self.trees.len() as f64;
        let floor = bound * n - 1e-9 * n;
        let mut left = n;
        // `-0.0` is the identity `Iterator::sum` starts from.
        let mut sum = -0.0;
        for tree in &self.trees {
            sum += tree.predict_proba(sample);
            left -= 1.0;
            if sum + left < floor {
                return None;
            }
        }
        Some(sum / n)
    }

    /// [`Self::predict_proba`] over many samples at once, fanned out over
    /// worker threads. Output order matches input order exactly.
    pub fn predict_proba_batch<S: AsRef<[f64]> + Sync>(
        &self,
        samples: &[S],
        par: Parallelism,
    ) -> Vec<f64> {
        behaviot_obs::metrics()
            .counter("forest.predictions")
            .add(samples.len() as u64);
        par_map(par, samples, |s| self.predict_proba(s.as_ref()))
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, sample: &[f64]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Out-of-bag accuracy estimate, if computable.
    pub fn oob_score(&self) -> Option<f64> {
        self.oob_score
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees (the serialization surface used by the model
    /// store).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Rebuild a forest from previously exported trees and out-of-bag
    /// score. Tree-level validation happens in
    /// [`DecisionTree::from_nodes`]; this only rejects a non-finite score.
    pub fn from_trees(
        trees: Vec<DecisionTree>,
        oob_score: Option<f64>,
    ) -> Result<Self, &'static str> {
        if oob_score.is_some_and(|s| !s.is_finite()) {
            return Err("non-finite oob score");
        }
        Ok(Self { trees, oob_score })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two noisy Gaussian-ish blobs.
    fn dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let (cx, cy) = if pos { (2.0, 2.0) } else { (-2.0, -2.0) };
            x.push(vec![
                cx + rng.gen_range(-1.5..1.5),
                cy + rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.0..1.0), // irrelevant feature
            ]);
            y.push(pos);
        }
        (x, y)
    }

    #[test]
    fn forest_learns_blobs() {
        let (x, y) = dataset(200, 1);
        let f = RandomForest::fit(&x, &y, &RandomForestConfig::default());
        let (tx, ty) = dataset(100, 2);
        let correct = tx
            .iter()
            .zip(&ty)
            .filter(|(xi, &yi)| f.predict(xi) == yi)
            .count();
        assert!(correct >= 95, "accuracy {correct}/100");
        assert!(f.oob_score().unwrap() > 0.9);
    }

    #[test]
    fn deterministic_for_seed() {
        let (x, y) = dataset(80, 3);
        let cfg = RandomForestConfig {
            n_trees: 10,
            seed: 7,
            ..Default::default()
        };
        let f1 = RandomForest::fit(&x, &y, &cfg);
        let f2 = RandomForest::fit(&x, &y, &cfg);
        let probe = vec![0.5, -0.5, 0.0];
        assert_eq!(f1.predict_proba(&probe), f2.predict_proba(&probe));
    }

    #[test]
    fn parallel_equals_serial() {
        let (x, y) = dataset(80, 4);
        let base = RandomForestConfig {
            n_trees: 8,
            seed: 9,
            ..Default::default()
        };
        let fs = RandomForest::fit(
            &x,
            &y,
            &RandomForestConfig {
                parallelism: Parallelism::Off,
                ..base
            },
        );
        for par in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(5),
            Parallelism::Auto,
        ] {
            let fp = RandomForest::fit(
                &x,
                &y,
                &RandomForestConfig {
                    parallelism: par,
                    ..base
                },
            );
            let probes: Vec<Vec<f64>> = (0..20)
                .map(|i| vec![i as f64 / 5.0 - 2.0, 1.0, 0.0])
                .collect();
            let pp = fp.predict_proba_batch(&probes, par);
            let ps: Vec<f64> = probes.iter().map(|p| fs.predict_proba(p)).collect();
            assert_eq!(pp, ps, "{par}");
        }
    }

    #[test]
    fn proba_bounds() {
        let (x, y) = dataset(60, 5);
        let f = RandomForest::fit(&x, &y, &RandomForestConfig::default());
        for xi in &x {
            let p = f.predict_proba(xi);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn single_class_training() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![true, true, true];
        let f = RandomForest::fit(
            &x,
            &y,
            &RandomForestConfig {
                n_trees: 5,
                ..Default::default()
            },
        );
        assert!(f.predict(&[1.5]));
        assert_eq!(f.predict_proba(&[1.5]), 1.0);
    }

    #[test]
    fn trees_export_roundtrip() {
        let (x, y) = dataset(80, 6);
        let f = RandomForest::fit(
            &x,
            &y,
            &RandomForestConfig {
                n_trees: 6,
                seed: 11,
                ..Default::default()
            },
        );
        let rebuilt = RandomForest::from_trees(f.trees().to_vec(), f.oob_score()).unwrap();
        assert_eq!(rebuilt.n_trees(), f.n_trees());
        assert_eq!(rebuilt.oob_score(), f.oob_score());
        for xi in &x {
            assert_eq!(
                rebuilt.predict_proba(xi).to_bits(),
                f.predict_proba(xi).to_bits()
            );
        }
        assert!(RandomForest::from_trees(vec![], Some(f64::NAN)).is_err());
    }

    #[test]
    fn small_sample_does_not_panic() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![false, true];
        let f = RandomForest::fit(
            &x,
            &y,
            &RandomForestConfig {
                n_trees: 3,
                ..Default::default()
            },
        );
        let _ = f.predict(&[0.5]);
        assert_eq!(f.n_trees(), 3);
    }
}
