//! CART decision trees for binary classification with Gini impurity.

use rand::seq::SliceRandom;
use rand::Rng;

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// `sqrt(n_features)` (the random-forest default).
    Sqrt,
    /// All features (plain CART).
    All,
    /// An explicit count (clamped to the number of features).
    Count(usize),
}

impl MaxFeatures {
    fn resolve(self, n_features: usize) -> usize {
        match self {
            MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
            MaxFeatures::All => n_features,
            MaxFeatures::Count(c) => c.clamp(1, n_features),
        }
        .max(1)
        .min(n_features)
    }
}

/// Decision tree hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Each child must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Feature subsampling per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Fraction of positive training samples in the leaf.
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the `x[feature] <= threshold` child.
        left: usize,
        /// Index of the `x[feature] > threshold` child.
        right: usize,
    },
}

/// Serializable view of one tree node — the export/import surface used by
/// the model store. Indexes refer to the tree's flat node arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeSpec {
    /// Terminal node carrying the positive-class probability.
    Leaf {
        /// Fraction of positive training samples in the leaf.
        prob: f64,
    },
    /// Internal split on `feature <= threshold`.
    Split {
        /// Feature index tested at this node.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the `<= threshold` child.
        left: usize,
        /// Arena index of the `> threshold` child.
        right: usize,
    },
}

/// A fitted binary-classification decision tree. Stored as a flat node
/// arena; prediction walks from node 0.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

impl DecisionTree {
    /// Fit a tree on row-major samples `x` with boolean labels `y`.
    /// `rng` drives feature subsampling (pass a seeded RNG for determinism).
    ///
    /// Panics if `x` and `y` lengths differ, if `x` is empty, or if rows
    /// have inconsistent dimensions.
    pub fn fit<R: Rng>(x: &[Vec<f64>], y: &[bool], cfg: &TreeConfig, rng: &mut R) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let n_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == n_features),
            "ragged feature matrix"
        );
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features,
        };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.build(x, y, idx, 0, cfg, rng);
        tree
    }

    fn build<R: Rng>(
        &mut self,
        x: &[Vec<f64>],
        y: &[bool],
        idx: Vec<usize>,
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> usize {
        let pos = idx.iter().filter(|&&i| y[i]).count();
        let total = idx.len();
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                prob: pos as f64 / total as f64,
            });
            nodes.len() - 1
        };
        if depth >= cfg.max_depth || total < cfg.min_samples_split || pos == 0 || pos == total {
            return make_leaf(&mut self.nodes);
        }

        // Feature subsample. Like scikit-learn, `max_features` bounds the
        // number of features *with a valid split* we examine: if a drawn
        // feature is constant on this node (common in sparse flow-feature
        // vectors), we keep drawing, so a node only becomes a leaf when no
        // feature anywhere can split it.
        let k = cfg.max_features.resolve(self.n_features);
        let mut feats: Vec<usize> = (0..self.n_features).collect();
        feats.shuffle(rng);

        let parent_gini = gini(pos, total);
        let mut best: Option<(f64, usize, f64)> = None; // (impurity decrease, feature, threshold)
        let mut valid_examined = 0usize;
        let mut order: Vec<usize> = Vec::with_capacity(total);
        for &f in &feats {
            if valid_examined >= k {
                break;
            }
            order.clear();
            order.extend_from_slice(&idx);
            order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("NaN feature"));
            // Scan split points between distinct consecutive values.
            let mut left_pos = 0usize;
            let mut feature_usable = false;
            for i in 0..total - 1 {
                if y[order[i]] {
                    left_pos += 1;
                }
                let left_n = i + 1;
                let right_n = total - left_n;
                if x[order[i]][f] == x[order[i + 1]][f] {
                    continue;
                }
                if left_n < cfg.min_samples_leaf || right_n < cfg.min_samples_leaf {
                    continue;
                }
                feature_usable = true;
                let right_pos = pos - left_pos;
                let w_gini = (left_n as f64 * gini(left_pos, left_n)
                    + right_n as f64 * gini(right_pos, right_n))
                    / total as f64;
                // Zero-gain splits are allowed (as in scikit-learn): XOR-like
                // structure has no single informative split, but splitting
                // anyway lets deeper levels separate the classes. max_depth
                // bounds the recursion.
                let decrease = parent_gini - w_gini;
                if best.is_none_or(|(bd, _, _)| decrease > bd) {
                    let (lo, hi) = (x[order[i]][f], x[order[i + 1]][f]);
                    // The midpoint of adjacent floats can round onto `hi`
                    // (and an overflowing sum is infinite). A threshold
                    // there sends the `hi` side left too: not the split
                    // that was scored, and an empty child is a 0/0 leaf.
                    // `lo` always separates the two sides.
                    let mid = 0.5 * (lo + hi);
                    let threshold = if (lo..hi).contains(&mid) { mid } else { lo };
                    best = Some((decrease, f, threshold));
                }
            }
            if feature_usable {
                valid_examined += 1;
            }
        }

        let Some((_, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        // Reserve our slot first so children land after us.
        self.nodes.push(Node::Leaf { prob: 0.0 });
        let me = self.nodes.len() - 1;
        let left = self.build(x, y, left_idx, depth + 1, cfg, rng);
        let right = self.build(x, y, right_idx, depth + 1, cfg, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Probability that `sample` is positive, from the training distribution
    /// of the reached leaf. Panics on dimension mismatch.
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        assert_eq!(sample.len(), self.n_features, "dimension mismatch");
        // Root is the *first node pushed by the outermost build call*: for a
        // split root we pushed the placeholder first, so it is index 0; a
        // leaf root is also index 0.
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if sample[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, sample: &[f64]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Number of nodes (for size diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Expected feature-vector dimension.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The node arena as serializable specs (root is index 0).
    pub fn export_nodes(&self) -> Vec<NodeSpec> {
        self.nodes
            .iter()
            .map(|n| match *n {
                Node::Leaf { prob } => NodeSpec::Leaf { prob },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => NodeSpec::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect()
    }

    /// Rebuild a tree from exported nodes.
    ///
    /// Validates the builder's structural invariants so a corrupted
    /// snapshot can never produce a tree whose `predict_proba` indexes out
    /// of bounds or cycles forever: every split's children must point
    /// *forward* in the arena (`build` pushes children after their parent's
    /// reserved slot), probabilities must be finite in `[0, 1]`, and
    /// thresholds finite. Never panics.
    pub fn from_nodes(nodes: Vec<NodeSpec>, n_features: usize) -> Result<Self, &'static str> {
        if nodes.is_empty() {
            return Err("empty node arena");
        }
        let n = nodes.len();
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                NodeSpec::Leaf { prob } => {
                    if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
                        return Err("leaf probability outside [0, 1]");
                    }
                }
                NodeSpec::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if feature >= n_features {
                        return Err("split feature out of range");
                    }
                    if !threshold.is_finite() {
                        return Err("non-finite split threshold");
                    }
                    // Forward-pointing children guarantee both bounds and
                    // termination of the prediction walk.
                    if left <= i || right <= i || left >= n || right >= n {
                        return Err("split child index out of order");
                    }
                }
            }
        }
        let nodes = nodes
            .into_iter()
            .map(|n| match n {
                NodeSpec::Leaf { prob } => Node::Leaf { prob },
                NodeSpec::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect();
        Ok(Self { nodes, n_features })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn separable_data_perfect_fit() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(t.predict(xi), yi);
        }
    }

    #[test]
    fn xor_needs_depth() {
        // XOR over two features: depth-1 cannot fit, depth>=2 can.
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![false, true, true, false];
        let shallow = DecisionTree::fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 1,
                ..Default::default()
            },
            &mut rng(),
        );
        let errs = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| shallow.predict(xi) != yi)
            .count();
        assert!(errs > 0);
        let deep = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(deep.predict(xi), yi);
        }
    }

    #[test]
    fn pure_node_is_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![true, true, true];
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_proba(&[9.0]), 1.0);
    }

    #[test]
    fn split_between_adjacent_floats_separates_both_sides() {
        let lo = 1.0 + f64::EPSILON;
        let hi = lo.next_up();
        // Overflowing midpoint: the sum of two large values is infinite.
        let (big_lo, big_hi) = (1.5e308, 1.7e308);
        assert_eq!(0.5 * (lo + hi), hi, "midpoint must round onto hi");
        assert_eq!(0.5 * (big_lo + big_hi), f64::INFINITY);
        for (lo, hi) in [(lo, hi), (big_lo, big_hi)] {
            let x = vec![vec![lo], vec![hi]];
            let y = vec![false, true];
            let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
            assert_eq!(t.predict_proba(&[lo]), 0.0);
            assert_eq!(t.predict_proba(&[hi]), 1.0);
            for node in t.export_nodes() {
                match node {
                    NodeSpec::Leaf { prob } => assert!(prob.is_finite(), "NaN leaf"),
                    NodeSpec::Split { threshold, .. } => assert!(threshold.is_finite()),
                }
            }
        }
    }

    #[test]
    fn constant_features_leaf() {
        let x = vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]];
        let y = vec![true, false, true, false];
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        assert_eq!(t.n_nodes(), 1);
        assert!((t.predict_proba(&[5.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let mut y = vec![false; 10];
        y[9] = true; // one positive at the extreme
        let t = DecisionTree::fit(
            &x,
            &y,
            &TreeConfig {
                min_samples_leaf: 3,
                ..Default::default()
            },
            &mut rng(),
        );
        // Any split leaves >= 3 on each side, so the positive can never be
        // isolated: no leaf is pure positive.
        for i in 0..10 {
            assert!(t.predict_proba(&[i as f64]) < 1.0);
        }
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini(0, 10), 0.0);
        assert_eq!(gini(10, 10), 0.0);
        assert!((gini(5, 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        DecisionTree::fit(&[], &[], &TreeConfig::default(), &mut rng());
    }

    #[test]
    fn node_export_import_roundtrip() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let t = DecisionTree::fit(&x, &y, &TreeConfig::default(), &mut rng());
        let rebuilt = DecisionTree::from_nodes(t.export_nodes(), t.n_features()).unwrap();
        assert_eq!(rebuilt.n_nodes(), t.n_nodes());
        for xi in &x {
            assert_eq!(
                rebuilt.predict_proba(xi).to_bits(),
                t.predict_proba(xi).to_bits()
            );
        }
    }

    #[test]
    fn from_nodes_rejects_corruption() {
        let leaf = |p| NodeSpec::Leaf { prob: p };
        let split = |f, th, l, r| NodeSpec::Split {
            feature: f,
            threshold: th,
            left: l,
            right: r,
        };
        assert!(DecisionTree::from_nodes(vec![], 2).is_err());
        assert!(DecisionTree::from_nodes(vec![leaf(1.5)], 2).is_err());
        assert!(DecisionTree::from_nodes(vec![leaf(f64::NAN)], 2).is_err());
        // Child pointing at itself / backwards / out of bounds.
        assert!(DecisionTree::from_nodes(vec![split(0, 1.0, 0, 1), leaf(0.5)], 2).is_err());
        assert!(DecisionTree::from_nodes(vec![split(0, 1.0, 1, 5), leaf(0.5)], 2).is_err());
        assert!(
            DecisionTree::from_nodes(vec![leaf(0.5), split(0, 1.0, 0, 0), leaf(0.5)], 2).is_err()
        );
        // Bad feature index / threshold.
        assert!(
            DecisionTree::from_nodes(vec![split(7, 1.0, 1, 2), leaf(0.0), leaf(1.0)], 2).is_err()
        );
        assert!(DecisionTree::from_nodes(
            vec![split(0, f64::INFINITY, 1, 2), leaf(0.0), leaf(1.0)],
            2
        )
        .is_err());
        // A well-formed arena is accepted.
        let ok = DecisionTree::from_nodes(vec![split(0, 1.0, 1, 2), leaf(0.0), leaf(1.0)], 2);
        assert_eq!(ok.unwrap().predict_proba(&[2.0, 0.0]), 1.0);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::Sqrt.resolve(21), 5);
        assert_eq!(MaxFeatures::All.resolve(21), 21);
        assert_eq!(MaxFeatures::Count(100).resolve(21), 21);
        assert_eq!(MaxFeatures::Count(0).resolve(21), 1);
    }
}
