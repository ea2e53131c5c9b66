//! DBSCAN clustering substrate for BehavIoT.
//!
//! §4.1 of the paper labels periodic traffic in two steps: a count-up timer
//! for flows whose period matches cleanly, then **DBSCAN** over flow
//! features for the remainder, with clusters trained on idle traffic. DBSCAN
//! is used because the number of clusters is unknown a priori.
//!
//! We provide:
//! * [`FeatureMatrix`] — the flat row-major point container every API here
//!   operates on (one contiguous `Vec<f64>` plus a dimension, so a training
//!   set is a single allocation instead of n boxed rows),
//! * [`Standardizer`] — per-feature z-score normalization fitted on training
//!   data (distances in DBSCAN are meaningless across raw feature scales),
//! * [`Dbscan`] — the density test of DBSCAN (Ester et al., KDD'96):
//!   which training points are core points, found in one pass over a
//!   uniform grid index with eps-sized bins, so each point's neighbor count
//!   touches candidate cells instead of scanning all n points,
//! * [`DbscanModel`] — the fitted core set, each distinct core value once,
//!   which answers the one question the pipeline asks of a future flow:
//!   does it lie within `eps` of a core point, i.e. inside one of the
//!   trained clusters ([`DbscanModel::matches`], which returns at the first
//!   in-eps core point).
//!
//! The pipeline never asks *which* cluster a flow joins, so the fit numbers
//! no clusters: a point joins some cluster exactly when it lies within
//! `eps` of a core point, and every core point belongs to a cluster.
//!
//! Every rewrite here is pinned to the pre-flat implementation (vendored in
//! `tests/baseline/mod.rs`, checked by `tests/parity.rs`): standardized
//! values are bitwise equal, the stored cores are the baseline's core rows
//! in its order minus later bitwise copies, and [`DbscanModel::matches`]
//! agrees with the baseline's cluster assignment on every probe. Neighbor
//! *sets* are unchanged by the grid (bin width = eps, so any pair within
//! eps differs by at most one cell per binned dimension).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

// ---------------------------------------------------------------------------
// FeatureMatrix
// ---------------------------------------------------------------------------

/// A flat row-major matrix of feature vectors: `n_rows` points of dimension
/// `dim` stored in one contiguous `Vec<f64>`.
///
/// This is the SoA-friendly currency of the clustering layer: training a
/// group allocates one buffer instead of one `Vec` per flow, rows are
/// cache-adjacent for the distance kernels, and scratch reuse (via
/// [`Self::clear`]) makes repeated fits allocation-free once capacity has
/// grown.
#[derive(Debug, Clone, Default)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    dim: usize,
    n_rows: usize,
}

impl FeatureMatrix {
    /// Empty matrix of the given dimension.
    pub fn new(dim: usize) -> Self {
        Self {
            data: Vec::new(),
            dim,
            n_rows: 0,
        }
    }

    /// Empty matrix with capacity for `rows` rows of dimension `dim`.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        Self {
            data: Vec::with_capacity(dim * rows),
            dim,
            n_rows: 0,
        }
    }

    /// Build from row vectors. All rows must share a dimension (the first
    /// row's length; empty input yields a 0-dimensional empty matrix).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, |r| r.len());
        let mut m = Self::with_capacity(dim, rows.len());
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Append one row.
    ///
    /// # Panics
    /// When `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "inconsistent dimensions");
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Number of rows (points).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Is the matrix empty (no rows)?
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterate over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// The backing flat slice (`n_rows * dim` values, row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Drop all rows, keep capacity and dimension.
    pub fn clear(&mut self) {
        self.data.clear();
        self.n_rows = 0;
    }

    /// Drop all rows and change the dimension, keeping capacity.
    pub fn reset(&mut self, dim: usize) {
        self.data.clear();
        self.dim = dim;
        self.n_rows = 0;
    }
}

// ---------------------------------------------------------------------------
// Standardizer
// ---------------------------------------------------------------------------

/// Per-feature standardization (zero mean, unit variance) fitted on a
/// training matrix.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit on a flat matrix. Returns `None` for an empty matrix.
    ///
    /// Accumulation order (row-major, per-dimension accumulators) is
    /// identical to the historical `&[Vec<f64>]` implementation, so fitted
    /// parameters are bitwise unchanged.
    pub fn fit_matrix(m: &FeatureMatrix) -> Option<Self> {
        if m.is_empty() {
            return None;
        }
        let dim = m.dim();
        let n = m.n_rows() as f64;
        let mut means = vec![0.0; dim];
        for row in m.iter() {
            for (acc, &x) in means.iter_mut().zip(row) {
                *acc += x;
            }
        }
        for acc in means.iter_mut() {
            *acc /= n;
        }
        let mut stds = vec![0.0; dim];
        for row in m.iter() {
            for ((s, &mean), &x) in stds.iter_mut().zip(&means).zip(row) {
                *s += (x - mean) * (x - mean);
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: leave centered values at zero
            }
        }
        Some(Self { means, stds })
    }

    /// Fitted dimension.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// The fitted parameters as `(means, stds)` slices — the serialization
    /// surface used by the model store.
    pub fn params(&self) -> (&[f64], &[f64]) {
        (&self.means, &self.stds)
    }

    /// Rebuild a standardizer from previously exported parameters.
    ///
    /// Validates the invariants [`Self::fit_matrix`] guarantees: equal
    /// lengths, finite means, and finite strictly-positive stds. Returns a
    /// static reason on violation (loaders turn it into their own error
    /// type) — never panics.
    pub fn from_params(means: Vec<f64>, stds: Vec<f64>) -> Result<Self, &'static str> {
        if means.len() != stds.len() {
            return Err("means/stds length mismatch");
        }
        if means.iter().any(|m| !m.is_finite()) {
            return Err("non-finite mean");
        }
        if stds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err("non-positive or non-finite std");
        }
        Ok(Self { means, stds })
    }

    /// Transform one point into a caller-provided scratch buffer (cleared
    /// first). Allocation-free once the buffer's capacity has grown — this
    /// is the per-flow monitor-path API.
    pub fn transform_into(&self, point: &[f64], out: &mut Vec<f64>) {
        assert_eq!(point.len(), self.means.len(), "dimension mismatch");
        out.clear();
        out.extend(
            point
                .iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(&x, (&m, &s))| (x - m) / s),
        );
    }

    /// Standardize every row of a matrix in place.
    pub fn transform_matrix(&self, m: &mut FeatureMatrix) {
        assert_eq!(m.dim(), self.means.len(), "dimension mismatch");
        for i in 0..m.n_rows() {
            for ((x, &mean), &s) in m.row_mut(i).iter_mut().zip(&self.means).zip(&self.stds) {
                *x = (*x - mean) / s;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Distance kernels
// ---------------------------------------------------------------------------

/// Is the squared Euclidean distance between `a` and `b` at most `eps_sq`?
/// Early-exits as soon as the running sum exceeds `eps_sq` — the verdict is
/// identical to the full sum because the summands are non-negative (a
/// partial sum above the bound can only grow), and a NaN summand fails both
/// the partial and the full comparison.
#[inline]
fn within_eps_sq(a: &[f64], b: &[f64], eps_sq: f64) -> bool {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
        // Negated on purpose: a NaN partial sum must bail out too, and
        // `acc > eps_sq` is false for NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(acc <= eps_sq) {
            return false;
        }
    }
    true
}

/// Are two rows bitwise equal? `-0.0` and `0.0` differ here, and so do NaN
/// payloads, unlike under `==`.
#[inline]
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------------
// Uniform grid index
// ---------------------------------------------------------------------------

/// Cheap multiply-xor hasher for grid-cell keys. The cell map is never
/// iterated, and the fit only counts and tests each point's candidates, so
/// hasher choice cannot affect the model — this exists purely because
/// SipHash is measurable on the per-point candidate lookups.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_i64(&mut self, i: i64) {
        self.0 = (self.0 ^ i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
}

const GRID_DIMS: usize = 3;

/// Uniform grid over (at most) the first [`GRID_DIMS`] feature dimensions,
/// with bin width `eps`.
///
/// Correctness: if `||a - b|| <= eps` then `|a[d] - b[d]| <= eps` for every
/// dimension, so the cell coordinates of `a` and `b` differ by at most one
/// per binned dimension — every true neighbor of a point lives in one of
/// the 3^g adjacent cells, and the exact distance test filters the rest.
/// Non-finite coordinates degrade gracefully: float→int casts saturate, so
/// affected points collapse into shared edge cells (a superset of
/// candidates, never a miss), and the distance test rejects them exactly as
/// the full scan did.
struct GridIndex {
    cells: HashMap<[i64; GRID_DIMS], Vec<u32>, BuildHasherDefault<CellHasher>>,
    mins: [f64; GRID_DIMS],
    inv_eps: f64,
    gdims: usize,
}

impl GridIndex {
    fn build(m: &FeatureMatrix, eps: f64) -> Self {
        // Degenerate eps (zero, negative, non-finite) cannot define a bin
        // width: bin nothing, i.e. every point lands in one cell and
        // neighbor queries scan all points — exactly the old full scan.
        let gdims = if eps.is_finite() && eps > 0.0 {
            m.dim().min(GRID_DIMS)
        } else {
            0
        };
        let mut mins = [0.0; GRID_DIMS];
        for (d, slot) in mins.iter_mut().enumerate().take(gdims) {
            *slot = m.iter().map(|r| r[d]).fold(f64::INFINITY, f64::min);
        }
        let mut idx = Self {
            cells: HashMap::default(),
            mins,
            inv_eps: if gdims > 0 { 1.0 / eps } else { 0.0 },
            gdims,
        };
        for i in 0..m.n_rows() {
            let key = idx.cell_of(m.row(i));
            idx.cells.entry(key).or_default().push(i as u32);
        }
        idx
    }

    fn cell_of(&self, p: &[f64]) -> [i64; GRID_DIMS] {
        let mut key = [0i64; GRID_DIMS];
        for d in 0..self.gdims {
            // Saturating cast: non-finite coordinates pin to the i64 edges
            // instead of panicking; see the type-level comment.
            key[d] = ((p[d] - self.mins[d]) * self.inv_eps).floor() as i64;
        }
        key
    }

    /// Visit every point index in the cells adjacent to `key` (including
    /// `key` itself), in an arbitrary order.
    fn for_each_candidate(&self, key: [i64; GRID_DIMS], mut f: impl FnMut(u32)) {
        let span = |d: usize| -> [i64; 2] {
            if d < self.gdims {
                [key[d].saturating_sub(1), key[d].saturating_add(1)]
            } else {
                [0, 0]
            }
        };
        let [x0, x1] = span(0);
        let [y0, y1] = span(1);
        let [z0, z1] = span(2);
        for x in x0..=x1 {
            for y in y0..=y1 {
                for z in z0..=z1 {
                    if let Some(pts) = self.cells.get(&[x, y, z]) {
                        for &j in pts {
                            f(j);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy)]
pub struct Dbscan {
    /// Neighborhood radius (Euclidean, on standardized features).
    pub eps: f64,
    /// Minimum neighborhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Dbscan {
    /// Fit the core set of a flat matrix: every row with at least
    /// `min_pts` rows within `eps` (itself included) is a core point, and
    /// the model keeps each distinct core value once, in first-seen
    /// training order.
    ///
    /// One grid pass counts each row's in-eps candidates and notes whether
    /// an earlier bitwise copy (`f64::to_bits`, so `-0.0` and `0.0` stay
    /// distinct) is among them. A copy lies at distance 0, so every
    /// earlier copy of a row is among its in-eps candidates, and a copy has
    /// the same neighborhood, so it is a core point exactly when the row
    /// is. (A row holding a NaN or an infinity lies within `eps` of
    /// nothing, so its copies are not merged.) No cluster labels are
    /// needed: every core point belongs to a
    /// cluster, and [`DbscanModel::matches`] asks only whether a point lies
    /// within `eps` of some core point.
    pub fn fit_matrix(&self, m: &FeatureMatrix) -> DbscanModel {
        assert!(
            m.n_rows() <= u32::MAX as usize,
            "too many points for u32 indices"
        );
        let eps_sq = self.eps * self.eps;
        let grid = GridIndex::build(m, self.eps);
        let mut cores: Vec<f64> = Vec::new();
        for i in 0..m.n_rows() {
            let pi = m.row(i);
            let mut degree = 0usize;
            let mut copy_before = false;
            grid.for_each_candidate(grid.cell_of(pi), |j| {
                let pj = m.row(j as usize);
                if within_eps_sq(pi, pj, eps_sq) {
                    degree += 1;
                    copy_before = copy_before || ((j as usize) < i && bits_eq(pj, pi));
                }
            });
            if degree >= self.min_pts && !copy_before {
                cores.extend_from_slice(pi);
            }
        }
        DbscanModel {
            eps: self.eps,
            dim: m.dim(),
            cores,
        }
    }
}

// ---------------------------------------------------------------------------
// DbscanModel
// ---------------------------------------------------------------------------

/// A fitted DBSCAN model: the core points of the training set, one flat
/// row-major matrix. A point belongs to a trained cluster when it lies
/// within `eps` of one of them ([`Self::matches`]).
///
/// A model from [`Dbscan::fit_matrix`] holds each distinct core value once,
/// in first-seen training order, so the per-flow scan touches distinct
/// points only. A model rebuilt by [`Self::from_parts`] may hold copies and
/// matches exactly as its deduplicated form.
#[derive(Debug, Clone)]
pub struct DbscanModel {
    eps: f64,
    dim: usize,
    cores: Vec<f64>,
}

impl DbscanModel {
    /// Number of stored core rows. After [`Dbscan::fit_matrix`] this is
    /// the number of distinct core values, not the number of training
    /// points that are core points. A 0-dimensional model stores no rows.
    pub fn n_core_points(&self) -> usize {
        self.cores.len().checked_div(self.dim).unwrap_or(0)
    }

    fn core_row(&self, r: usize) -> &[f64] {
        &self.cores[r * self.dim..(r + 1) * self.dim]
    }

    /// Neighborhood radius the model was fitted with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Feature dimension of the core points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The flat core-point matrix (`n_core_points() * dim` values,
    /// row-major).
    pub fn cores(&self) -> &[f64] {
        &self.cores
    }

    /// Rebuild a model from previously exported parts, validating what
    /// [`Dbscan::fit_matrix`] guarantees so a corrupted snapshot can never
    /// produce a model that indexes out of bounds. Repeated rows are
    /// accepted. Never panics.
    pub fn from_parts(eps: f64, dim: usize, cores: Vec<f64>) -> Result<Self, &'static str> {
        if !eps.is_finite() || eps < 0.0 {
            return Err("bad eps");
        }
        // `is_multiple_of(0)` holds only for 0: a 0-dimensional model
        // has no values.
        if !cores.len().is_multiple_of(dim) {
            return Err("core matrix is not a whole number of rows");
        }
        if cores.iter().any(|c| !c.is_finite()) {
            return Err("non-finite core coordinate");
        }
        Ok(Self { eps, dim, cores })
    }

    /// Does the point lie within `eps` of any core point? Returns at the
    /// first hit — the per-flow monitor-path check, allocation-free.
    pub fn matches(&self, point: &[f64]) -> bool {
        let eps_sq = self.eps * self.eps;
        (0..self.n_core_points()).any(|r| within_eps_sq(self.core_row(r), point, eps_sq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| vec![cx + spread * next(), cy + spread * next()])
            .collect()
    }

    fn fit(eps: f64, min_pts: usize, points: &[Vec<f64>]) -> DbscanModel {
        Dbscan { eps, min_pts }.fit_matrix(&FeatureMatrix::from_rows(points))
    }

    fn standardizer(points: &[Vec<f64>]) -> Option<Standardizer> {
        Standardizer::fit_matrix(&FeatureMatrix::from_rows(points))
    }

    fn core_rows(model: &DbscanModel) -> Vec<Vec<f64>> {
        (0..model.n_core_points())
            .map(|r| model.core_row(r).to_vec())
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut pts = blob(0.0, 0.0, 50, 0.5, 3);
        pts.extend(blob(10.0, 10.0, 50, 0.5, 7));
        let model = fit(1.0, 4, &pts);
        // Every point of both blobs lies in a cluster; the gap between
        // them does not.
        assert!(pts.iter().all(|p| model.matches(p)));
        assert!(!model.matches(&[5.0, 5.0]));
    }

    #[test]
    fn outlier_is_noise() {
        let mut pts = blob(0.0, 0.0, 40, 0.4, 11);
        pts.push(vec![100.0, -50.0]);
        let model = fit(1.0, 4, &pts);
        assert!(!core_rows(&model).contains(&vec![100.0, -50.0]));
        assert!(!model.matches(&[100.0, -50.0]));
    }

    #[test]
    fn matches_near_and_rejects_far() {
        let pts = blob(5.0, 5.0, 60, 0.5, 13);
        let model = fit(1.0, 4, &pts);
        assert!(model.matches(&[5.1, 4.9]));
        assert!(!model.matches(&[50.0, 50.0]));
    }

    #[test]
    fn min_pts_larger_than_data_all_noise() {
        let pts = blob(0.0, 0.0, 5, 0.2, 17);
        let model = fit(0.5, 10, &pts);
        assert_eq!(model.n_core_points(), 0);
        assert!(!model.matches(&[0.0, 0.0]));
    }

    #[test]
    fn chain_is_density_connected() {
        // A line of points spaced 0.5 apart with eps 0.6: each interior
        // point is a core point, and the two ends lie within eps of one.
        let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.5, 0.0]).collect();
        let model = fit(0.6, 3, &pts);
        assert_eq!(core_rows(&model), pts[1..29].to_vec());
        assert!(pts.iter().all(|p| model.matches(p)));
        assert!(!model.matches(&[15.2, 0.0]));
    }

    #[test]
    fn empty_input() {
        let model = fit(1.0, 3, &[]);
        assert_eq!(model.n_core_points(), 0);
        assert!(!model.matches(&[]));
    }

    #[test]
    fn duplicate_points_cluster_together() {
        // 10 exact copies of one point + far noise: duplicates are mutual
        // zero-distance neighbors, so each is a core point.
        let mut pts: Vec<Vec<f64>> = (0..10).map(|_| vec![1.0, 2.0, 3.0]).collect();
        pts.push(vec![500.0, 500.0, 500.0]);
        let model = fit(0.5, 4, &pts);
        // Ten core copies, one stored row.
        assert_eq!(core_rows(&model), vec![vec![1.0, 2.0, 3.0]]);
        assert!(!model.matches(&[500.0, 500.0, 500.0]));
    }

    #[test]
    fn copies_are_bitwise() {
        // `-0.0 == 0.0`, but the two rows differ bitwise: both are kept.
        let mut pts: Vec<Vec<f64>> = (0..3).map(|_| vec![0.0, 1.0]).collect();
        pts.extend((0..3).map(|_| vec![-0.0, 1.0]));
        let model = fit(0.5, 4, &pts);
        let bits: Vec<u64> = model.cores().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = [0.0, 1.0, -0.0, 1.0]
            .iter()
            .map(|x: &f64| x.to_bits())
            .collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn degenerate_eps_matches_brute_force() {
        // eps = 0: only exact duplicates are neighbors (distance 0 <= 0).
        let pts = vec![
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
        ];
        let model = fit(0.0, 3, &pts);
        assert_eq!(core_rows(&model), vec![vec![1.0, 1.0]]);
        assert!(model.matches(&[1.0, 1.0]));
        assert!(!model.matches(&[2.0, 2.0]));
    }

    #[test]
    fn feature_matrix_roundtrip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let collected: Vec<Vec<f64>> = m.iter().map(|r| r.to_vec()).collect();
        assert_eq!(collected, rows);
        let mut m = m;
        m.clear();
        assert!(m.is_empty());
        m.push_row(&[9.0, 9.0]);
        assert_eq!(m.n_rows(), 1);
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let pts = vec![vec![10.0, 100.0], vec![20.0, 200.0], vec![30.0, 300.0]];
        let s = standardizer(&pts).unwrap();
        let mut m = FeatureMatrix::from_rows(&pts);
        s.transform_matrix(&mut m);
        for d in 0..2 {
            let col: Vec<f64> = m.iter().map(|p| p[d]).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardizer_transform_into_matches_transform_matrix() {
        let pts = vec![vec![10.0, 100.0], vec![20.0, 200.0], vec![30.0, 300.0]];
        let s = standardizer(&pts).unwrap();
        let mut scratch = Vec::new();
        s.transform_into(&[15.0, 150.0], &mut scratch);
        let mut m = FeatureMatrix::from_rows(&[vec![15.0, 150.0]]);
        s.transform_matrix(&mut m);
        assert_eq!(scratch, m.row(0));
    }

    #[test]
    fn standardizer_constant_feature() {
        let pts = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let s = standardizer(&pts).unwrap();
        let mut t = Vec::new();
        s.transform_into(&[5.0, 2.0], &mut t);
        assert_eq!(t[0], 0.0);
    }

    #[test]
    fn standardizer_empty() {
        assert!(standardizer(&[]).is_none());
        assert!(Standardizer::fit_matrix(&FeatureMatrix::new(4)).is_none());
    }

    #[test]
    fn standardization_makes_scales_comparable() {
        // Same structure, but one feature is 1000x the scale of the other;
        // without standardization DBSCAN on eps=1 sees one smear.
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![i as f64 * 0.01, 5000.0]);
        }
        let mut m = FeatureMatrix::from_rows(&pts);
        let s = Standardizer::fit_matrix(&m).unwrap();
        s.transform_matrix(&mut m);
        let model = Dbscan {
            eps: 0.5,
            min_pts: 3,
        }
        .fit_matrix(&m);
        // Two lines one standardized unit either side of the middle: every
        // point is in a cluster, the middle is in none.
        assert!(m.iter().all(|p| model.matches(p)));
        let mut middle = Vec::new();
        s.transform_into(&[0.1, 2500.0], &mut middle);
        assert!(!model.matches(&middle));
    }

    #[test]
    fn model_parts_roundtrip_and_reject_corruption() {
        let pts = blob(0.0, 0.0, 40, 0.5, 21);
        let model = fit(1.0, 4, &pts);
        let rebuilt =
            DbscanModel::from_parts(model.eps(), model.dim(), model.cores().to_vec()).unwrap();
        for p in &pts {
            assert_eq!(rebuilt.matches(p), model.matches(p));
        }
        // Structural corruption is rejected, never panics.
        assert!(DbscanModel::from_parts(f64::NAN, 2, vec![]).is_err());
        assert!(DbscanModel::from_parts(-1.0, 2, vec![]).is_err());
        assert!(DbscanModel::from_parts(1.0, 2, vec![0.0]).is_err());
        assert!(DbscanModel::from_parts(1.0, 0, vec![0.0]).is_err());
        assert!(DbscanModel::from_parts(1.0, 1, vec![f64::NAN]).is_err());
        assert!(DbscanModel::from_parts(1.0, 0, vec![]).is_ok());

        let s = standardizer(&pts).unwrap();
        let (means, stds) = s.params();
        let s2 = Standardizer::from_params(means.to_vec(), stds.to_vec()).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        s.transform_into(&pts[0], &mut a);
        s2.transform_into(&pts[0], &mut b);
        assert_eq!(a, b);
        assert!(Standardizer::from_params(vec![0.0], vec![1.0, 1.0]).is_err());
        assert!(Standardizer::from_params(vec![f64::INFINITY], vec![1.0]).is_err());
        assert!(Standardizer::from_params(vec![0.0], vec![0.0]).is_err());
    }

    #[test]
    fn cores_keep_first_seen_training_order() {
        // Two isolated triples of duplicate points interleaved: the model
        // stores one row of each, in the order each value first appears.
        let pts = vec![
            vec![10.0, 0.0],
            vec![0.0, 0.0],
            vec![10.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![10.0, 0.0],
        ];
        let model = fit(6.0, 3, &pts);
        assert_eq!(core_rows(&model), vec![vec![10.0, 0.0], vec![0.0, 0.0]]);
        assert!(model.matches(&[5.0, 0.0]));
    }
}
