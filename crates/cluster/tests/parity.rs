//! Old-vs-new parity: the flat-matrix / grid-indexed clustering core must be
//! **byte-identical** to the pre-rewrite implementation.
//!
//! The [`baseline`] module is a faithful vendored copy of the crate as it
//! stood before the flat-matrix rewrite: `Vec<Vec<f64>>` points, O(n)
//! full-scan neighbor queries recomputed at every use, first-match-wins
//! predict. Each property generates a point set (mixed dimensions, eps,
//! min_pts, with duplicate and colinear points made likely by snapping
//! coordinates to a coarse lattice), runs both implementations, and asserts:
//!
//! * standardizer parameters transform points to bitwise-equal values,
//! * DBSCAN labels are exactly equal (same cluster ids, same noise),
//! * cluster count and core-point count are equal,
//! * `predict` returns the same label (including distance ties, which the
//!   lattice snapping makes common) and `matches` agrees with
//!   `predict(..).is_some()` for every training point and for off-training
//!   probe points.
//!
//! The whole comparison also runs inside `behaviot_par::par_map` under
//! `Parallelism::Off` and `Parallelism::Fixed(2)` — the way `train_group`
//! invokes this code — pinning that worker-thread context changes nothing.

use behaviot_cluster::{Dbscan, FeatureMatrix, Standardizer, NOISE};
use behaviot_par::{par_map, Parallelism};
use proptest::prelude::*;

mod baseline;

/// Deterministic point-set generator: `n` points of dimension `dim`, with
/// coordinates snapped to a lattice of step `1/4` in `[-2, 2]` (duplicates
/// and exact distance ties are therefore common), plus every 7th point made
/// colinear along the first axis.
fn lattice_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            if i % 7 == 3 {
                // Colinear run: points on the x-axis at lattice spacing.
                let mut p = vec![0.0; dim];
                p[0] = (i % 16) as f64 * 0.25;
                p
            } else {
                (0..dim)
                    .map(|_| ((next() * 16.0).floor() - 8.0) * 0.25)
                    .collect()
            }
        })
        .collect()
}

/// Probe points for predict parity: every training point plus lattice
/// offsets around the data range (on-boundary, off-cluster, far away).
fn probes(points: &[Vec<f64>], dim: usize) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = points.to_vec();
    for k in 0..24 {
        let mut p = vec![0.0; dim];
        for (d, slot) in p.iter_mut().enumerate() {
            *slot = ((k + d) % 19) as f64 * 0.25 - 2.0;
        }
        out.push(p);
    }
    out.push(vec![1e3; dim]); // far outside every cluster
    out
}

/// Run the full second stage (standardize + DBSCAN fit + predict) through
/// both implementations and assert byte-identical behavior.
fn assert_parity(points: &[Vec<f64>], eps: f64, min_pts: usize) {
    let dim = points.first().map_or(0, |p| p.len());

    // Baseline pipeline.
    let (old_std_points, old_labels, old_model) = match baseline::Standardizer::fit(points) {
        Some(s) => {
            let t = s.transform_all(points);
            let (labels, model) = baseline::Dbscan { eps, min_pts }.fit(&t);
            (t, labels, model)
        }
        None => {
            let (labels, model) = baseline::Dbscan { eps, min_pts }.fit(&[]);
            (Vec::new(), labels, model)
        }
    };

    // Flat-matrix pipeline.
    let mut matrix = FeatureMatrix::from_rows(points);
    if let Some(s) = Standardizer::fit_matrix(&matrix) {
        s.transform_matrix(&mut matrix);
    }
    let (new_labels, new_model) = Dbscan { eps, min_pts }.fit_matrix(&matrix);

    // Standardized values are bitwise equal.
    for (i, old_row) in old_std_points.iter().enumerate() {
        for (d, (&o, &n)) in old_row.iter().zip(matrix.row(i)).enumerate() {
            assert_eq!(
                o.to_bits(),
                n.to_bits(),
                "standardized value diverged at point {i} dim {d}"
            );
        }
    }

    // Labels byte-identical, structure equal.
    assert_eq!(
        new_labels, old_labels,
        "labels diverged (eps={eps}, min_pts={min_pts})"
    );
    assert_eq!(new_model.n_clusters(), old_model.n_clusters());
    assert_eq!(new_model.n_core_points(), old_model.n_core_points());
    assert_eq!(
        new_labels.iter().filter(|&&l| l == NOISE).count(),
        old_labels.iter().filter(|&&l| l == baseline::NOISE).count()
    );

    // Predict parity on training points and probes (standardized space).
    let probe_set = probes(&old_std_points, dim);
    for (k, p) in probe_set.iter().enumerate() {
        let old = old_model.predict(p);
        let new = new_model.predict(p);
        assert_eq!(new, old, "predict diverged on probe {k}");
        assert_eq!(
            new_model.matches(p),
            old.is_some(),
            "matches diverged on probe {k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// New labels and predictions equal the vendored baseline across mixed
    /// dimensions, radii, and densities — and the comparison behaves
    /// identically when run from `behaviot-par` worker threads under
    /// `Parallelism::Off` and `Parallelism::Fixed(2)`, the two policies the
    /// training pipeline pins in its own determinism gates.
    #[test]
    fn flat_matrix_core_matches_baseline(
        n in 0usize..140,
        dim in 1usize..6,
        eps_q in 1usize..12,
        min_pts in 1usize..8,
        seed in 1u64..1_000_000,
    ) {
        let eps = eps_q as f64 * 0.25;
        let points = lattice_points(n, dim, seed);
        for par in [Parallelism::Off, Parallelism::Fixed(2)] {
            let jobs = [(points.clone(), eps, min_pts), (points.clone(), eps, min_pts)];
            let done = par_map(par, &jobs, |(pts, eps, min_pts)| {
                assert_parity(pts, *eps, *min_pts);
                true
            });
            prop_assert!(done.into_iter().all(|d| d));
        }
    }

    /// Dedicated duplicate-heavy generator: many exact copies, tiny eps —
    /// the regime where zero distances, self-neighbors, and predict ties
    /// are the norm rather than the exception.
    #[test]
    fn duplicates_and_ties_match_baseline(
        n_uniq in 1usize..12,
        copies in 1usize..10,
        dim in 1usize..5,
        min_pts in 1usize..9,
        seed in 1u64..1_000_000,
    ) {
        let uniq = lattice_points(n_uniq, dim, seed);
        let mut points = Vec::with_capacity(n_uniq * copies);
        for p in &uniq {
            for _ in 0..copies {
                points.push(p.clone());
            }
        }
        assert_parity(&points, 0.25, min_pts);
        assert_parity(&points, 0.0, min_pts); // eps 0: duplicates only
    }
}

#[test]
fn colinear_chain_matches_baseline() {
    // A pure line at lattice spacing, eps exactly the spacing: boundary
    // distances are exact, so any index-order drift would flip labels.
    for n in [0usize, 1, 2, 5, 30, 77] {
        let points: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.25, 0.0]).collect();
        for min_pts in [1usize, 2, 3, 5] {
            assert_parity(&points, 0.25, min_pts);
        }
    }
}

#[test]
fn high_dim_21_features_match_baseline() {
    // The pipeline's real shape: 21-dimensional flow features.
    let points = lattice_points(90, 21, 42);
    for eps in [0.5, 1.0, 2.5] {
        for min_pts in [2usize, 4, 8] {
            assert_parity(&points, eps, min_pts);
        }
    }
}
