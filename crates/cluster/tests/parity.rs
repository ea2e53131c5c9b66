//! Old-vs-new parity: the flat-matrix / grid-indexed clustering core must
//! serve exactly as the pre-rewrite implementation did.
//!
//! The [`baseline`] module is a faithful vendored copy of the crate as it
//! stood before the flat-matrix rewrite: `Vec<Vec<f64>>` points, O(n)
//! full-scan neighbor queries recomputed at every use, first-match-wins
//! predict. Each property generates a point set (mixed dimensions, eps,
//! min_pts, with duplicate and colinear points made likely by snapping
//! coordinates to a coarse lattice), runs both implementations, and asserts:
//!
//! * standardizer parameters transform points to bitwise-equal values,
//! * the stored cores are the baseline's core rows, in the baseline's
//!   (training) order, minus later bitwise copies — the baseline keeps
//!   every copy — every training point whose value is stored is one of
//!   the baseline's core points, and the model is empty exactly when the
//!   baseline finds no cluster,
//! * `matches` agrees with the baseline's `predict(..).is_some()` for every
//!   training point and for off-training probe points (distance ties,
//!   which the lattice snapping makes common, included).
//!
//! The live model numbers no clusters, so cluster labels and the
//! baseline's `predict` labels have nothing to be compared with.
//!
//! The whole comparison also runs inside `behaviot_par::par_map` under
//! `Parallelism::Off` and `Parallelism::Fixed(2)` — the way `train_group`
//! invokes this code — pinning that worker-thread context changes nothing.

use behaviot_cluster::{Dbscan, FeatureMatrix, Standardizer};
use behaviot_par::{par_map, Parallelism};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Probe points for verdict parity: every training point plus lattice
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

/// Run the full second stage (standardize + DBSCAN fit + verdicts) through
/// both implementations and assert identical behavior.
fn assert_parity(points: &[Vec<f64>], eps: f64, min_pts: usize) {
    // Baseline standardization.
    let old_std_points = match baseline::Standardizer::fit(points) {
        Some(s) => s.transform_all(points),
        None => Vec::new(),
    };

    // Flat-matrix standardization.
    let mut matrix = FeatureMatrix::from_rows(points);
    if let Some(s) = Standardizer::fit_matrix(&matrix) {
        s.transform_matrix(&mut matrix);
    }

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

    assert_fit_parity(&old_std_points, &matrix, eps, min_pts, &[]);
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Fit DBSCAN through both implementations — the baseline on `old_points`,
/// the flat core on `new_points`, the same values — and assert equal
/// distinct cores in training order and equal verdicts on every probe (the
/// training points, the default lattice probes and `extra_probes`).
fn assert_fit_parity(
    old_points: &[Vec<f64>],
    new_points: &FeatureMatrix,
    eps: f64,
    min_pts: usize,
    extra_probes: &[Vec<f64>],
) {
    let dim = new_points.dim();
    let (_, old_model) = baseline::Dbscan { eps, min_pts }.fit(old_points);
    let new_model = Dbscan { eps, min_pts }.fit_matrix(new_points);

    // Stored cores: the baseline's core rows in its order, each value at
    // its first copy only.
    let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
    let want: Vec<Vec<u64>> = old_model
        .cores()
        .map(|(_, row)| bits(row))
        .filter(|row| seen.insert(row.clone()))
        .collect();
    let got: Vec<Vec<u64>> = (0..new_model.n_core_points())
        .map(|r| bits(&new_model.cores()[r * dim..(r + 1) * dim]))
        .collect();
    assert_eq!(
        got, want,
        "distinct cores diverged (eps={eps}, min_pts={min_pts})"
    );
    // Every core copy the baseline keeps is a training point whose value
    // the model stores, and every cluster has a core point.
    let copies = (0..new_points.n_rows())
        .filter(|&i| seen.contains(&bits(new_points.row(i))))
        .count();
    assert_eq!(copies, old_model.n_core_points());
    assert_eq!(new_model.n_core_points() == 0, old_model.n_clusters() == 0);

    // Verdict parity on training points and probes (standardized space).
    let mut probe_set = probes(old_points, dim);
    probe_set.extend_from_slice(extra_probes);
    for (k, p) in probe_set.iter().enumerate() {
        assert_eq!(
            new_model.matches(p),
            old_model.predict(p).is_some(),
            "matches diverged on probe {k}"
        );
    }
}

/// Duplicate-heavy point set: `copies.len()` distinct rows, row `k` with
/// first coordinate `k` and lattice values elsewhere, repeated `copies[k]`
/// times and shuffled by `seed`. With `signed_zero`, one more value equals
/// row 0 except for `-0.0` in place of its leading `0.0`: a bitwise-distinct
/// row at distance 0. Returns the points and the distinct rows.
fn copies_shuffled(
    copies: &[usize],
    dim: usize,
    signed_zero: bool,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut distinct = lattice_points(copies.len(), dim, seed);
    for (k, row) in distinct.iter_mut().enumerate() {
        row[0] = k as f64;
    }
    let mut counts = copies.to_vec();
    if signed_zero {
        let mut twin = distinct[0].clone();
        twin[0] = -0.0;
        distinct.push(twin);
        counts.push(copies[0]);
    }
    let mut points: Vec<Vec<f64>> = distinct
        .iter()
        .zip(&counts)
        .flat_map(|(row, &c)| std::iter::repeat_n(row.clone(), c))
        .collect();
    let mut state = seed | 1;
    for i in (1..points.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        points.swap(i, (state % (i as u64 + 1)) as usize);
    }
    (points, distinct)
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// New cores and verdicts equal the vendored baseline across mixed
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
    /// the regime where zero distances, self-neighbors, and distance ties
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Few values, many copies: 2–5 distinct rows with up to 200 shuffled
    /// copies each — the shape of a trained traffic group. Fitted unscaled
    /// (lattice coordinates keep every distance exact) at three radii:
    /// eps 0 (only copies are neighbors), a radius that keeps the closest
    /// values apart yet reaches their midpoint (probed, so a distance tie
    /// across two clusters is exact), and one that merges every value into
    /// one cluster.
    #[test]
    fn few_values_many_copies_match_baseline(
        copies in proptest::collection::vec(1usize..201, 2..6),
        dim in 1usize..5,
        min_pts in 1usize..40,
        signed_zero in any::<bool>(),
        seed in 1u64..1_000_000,
    ) {
        let (points, distinct) = copies_shuffled(&copies, dim, signed_zero, seed);
        let matrix = FeatureMatrix::from_rows(&points);
        let mut midpoints: Vec<Vec<f64>> = Vec::new();
        let (mut closest, mut farthest) = (f64::INFINITY, 0.0f64);
        for (a, p) in distinct.iter().enumerate() {
            for q in &distinct[a + 1..] {
                midpoints.push(p.iter().zip(q).map(|(x, y)| (x + y) / 2.0).collect());
                let d = dist_sq(p, q);
                if d > 0.0 {
                    closest = closest.min(d);
                }
                farthest = farthest.max(d);
            }
        }
        for eps in [0.0, 0.75 * closest.sqrt(), farthest.sqrt() + 1.0] {
            assert_fit_parity(&points, &matrix, eps, min_pts, &midpoints);
        }
    }
}

#[test]
fn cross_cluster_tie_matches_baseline() {
    // Two values one apart, 60 shuffled copies each, eps 0.75: two
    // clusters of one stored row each, tied exactly at the midpoint.
    let (points, _) = copies_shuffled(&[60, 60], 1, false, 99);
    let matrix = FeatureMatrix::from_rows(&points);
    let model = Dbscan {
        eps: 0.75,
        min_pts: 4,
    }
    .fit_matrix(&matrix);
    assert_eq!(model.n_core_points(), 2);
    assert!(model.matches(&[0.5]));
    assert_fit_parity(&points, &matrix, 0.75, 4, &[vec![0.5]]);
}

#[test]
fn colinear_chain_matches_baseline() {
    // A pure line at lattice spacing, eps exactly the spacing: boundary
    // distances are exact, so a dropped or extra neighbor would flip a
    // core point.
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
