//! The clustering core exactly as it was before the flat-matrix rewrite:
//! `Vec<Vec<f64>>` points, O(n) full-scan neighbor queries recomputed at
//! every use (up to three times per point), an allocating transform, and
//! first-match-wins predict. Kept allocation-for-allocation faithful.
//!
//! This is the one copy. `tests/parity.rs` checks the live crate against
//! it byte for byte.

pub const NOISE: i32 = -1;

pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    pub fn fit(points: &[Vec<f64>]) -> Option<Self> {
        let dim = points.first()?.len();
        let n = points.len() as f64;
        let mut means = vec![0.0; dim];
        for p in points {
            assert_eq!(p.len(), dim, "inconsistent dimensions");
            for (m, &x) in means.iter_mut().zip(p) {
                *m += x;
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for p in points {
            for ((s, &m), &x) in stds.iter_mut().zip(&means).zip(p) {
                *s += (x - m) * (x - m);
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Some(Self { means, stds })
    }

    pub fn transform(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.means.len(), "dimension mismatch");
        point
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect()
    }

    pub fn transform_all(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        points.iter().map(|p| self.transform(p)).collect()
    }
}

#[derive(Clone, Copy)]
pub struct Dbscan {
    pub eps: f64,
    pub min_pts: usize,
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl Dbscan {
    pub fn fit(&self, points: &[Vec<f64>]) -> (Vec<i32>, DbscanModel) {
        let n = points.len();
        let eps_sq = self.eps * self.eps;
        let mut labels = vec![NOISE; n];
        let mut visited = vec![false; n];
        let mut cluster = 0i32;

        let neighbors = |i: usize| -> Vec<usize> {
            (0..n)
                .filter(|&j| dist_sq(&points[i], &points[j]) <= eps_sq)
                .collect()
        };

        for i in 0..n {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            let nbrs = neighbors(i);
            if nbrs.len() < self.min_pts {
                continue;
            }
            labels[i] = cluster;
            let mut queue: Vec<usize> = nbrs;
            let mut qi = 0;
            while qi < queue.len() {
                let j = queue[qi];
                qi += 1;
                if labels[j] == NOISE {
                    labels[j] = cluster;
                }
                if visited[j] {
                    continue;
                }
                visited[j] = true;
                labels[j] = cluster;
                let jn = neighbors(j);
                if jn.len() >= self.min_pts {
                    queue.extend(jn);
                }
            }
            cluster += 1;
        }

        let mut core_points = Vec::new();
        let mut core_labels = Vec::new();
        for i in 0..n {
            if labels[i] == NOISE {
                continue;
            }
            if neighbors(i).len() >= self.min_pts {
                core_points.push(points[i].clone());
                core_labels.push(labels[i]);
            }
        }
        (
            labels,
            DbscanModel {
                eps: self.eps,
                core_points,
                core_labels,
                n_clusters: cluster as usize,
            },
        )
    }
}

pub struct DbscanModel {
    eps: f64,
    core_points: Vec<Vec<f64>>,
    core_labels: Vec<i32>,
    n_clusters: usize,
}

impl DbscanModel {
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    pub fn n_core_points(&self) -> usize {
        self.core_points.len()
    }

    /// Every stored core point with its label, in training order (an
    /// accessor for the parity checks; it changes no behavior).
    pub fn cores(&self) -> impl Iterator<Item = (i32, &[f64])> {
        self.core_labels
            .iter()
            .copied()
            .zip(self.core_points.iter().map(Vec::as_slice))
    }

    pub fn predict(&self, point: &[f64]) -> Option<i32> {
        let eps_sq = self.eps * self.eps;
        let mut best: Option<(f64, i32)> = None;
        for (cp, &lab) in self.core_points.iter().zip(&self.core_labels) {
            let d = dist_sq(cp, point);
            if d <= eps_sq && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, lab));
            }
        }
        best.map(|(_, lab)| lab)
    }
}
