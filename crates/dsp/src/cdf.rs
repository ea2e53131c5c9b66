//! Empirical CDFs, knee detection, and additive smoothing.
//!
//! These support the deviation-metric thresholds of §5.3: the
//! periodic-event threshold is chosen at the knee of the metric's CDF, the
//! short-term threshold is `μ + nσ`, and the long-term threshold is a
//! confidence interval. Additive smoothing (footnote 3 of §4.3) keeps trace
//! probabilities non-zero for transitions missing from the training log.

use crate::stats;

/// Empirical cumulative distribution function over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (NaNs are rejected with a panic; deviation scores
    /// are always finite by construction).
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(sample.iter().all(|x| !x.is_nan()), "NaN in ECDF sample");
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self { sorted: sample }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Is the sample empty?
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile (inverse CDF) for `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        stats::percentile(&self.sorted, q.clamp(0.0, 1.0) * 100.0)
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluate the CDF over a uniform grid of `n` points spanning the
    /// sample range. Returns `(x, F(x))` pairs — the series plotted in
    /// Fig. 4 of the paper.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        if hi <= lo {
            return vec![(lo, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Knee of the CDF: the x-value maximizing the distance from the chord
    /// joining the curve's endpoints (the "kneedle" criterion). The paper
    /// picks the periodic-deviation threshold (1.61) at the knee of the
    /// zoomed CDF in Fig. 4a.
    ///
    /// `zoom_min_q` restricts the search to the upper tail (e.g. `0.9` to
    /// zoom on the last decile, which is what "zoomed CDF" means there).
    /// Returns `None` for degenerate samples.
    pub fn knee(&self, zoom_min_q: f64) -> Option<f64> {
        if self.sorted.len() < 3 {
            return None;
        }
        let start = ((zoom_min_q.clamp(0.0, 1.0) * self.sorted.len() as f64) as usize)
            .min(self.sorted.len() - 2);
        let xs = &self.sorted[start..];
        let n = xs.len();
        if n < 3 || xs[n - 1] <= xs[0] {
            return None;
        }
        // Normalized curve points (x_i, i/n); chord from first to last.
        let x0 = xs[0];
        let x1 = xs[n - 1];
        let mut best = (0usize, f64::MIN);
        for (i, &x) in xs.iter().enumerate() {
            let xn = (x - x0) / (x1 - x0);
            let yn = i as f64 / (n - 1) as f64;
            // Distance above the diagonal y = x (chord in normalized space).
            let d = yn - xn;
            if d > best.1 {
                best = (i, d);
            }
        }
        Some(xs[best.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_eval_basic() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_quantile() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(1.0), 50.0);
        assert_eq!(e.quantile(0.5), 30.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let mut prev = -1.0;
        for i in 0..100 {
            let v = e.eval(i as f64 / 10.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn ecdf_curve_spans_range() {
        let e = Ecdf::new(vec![0.0, 1.0, 2.0, 3.0]);
        let c = e.curve(10);
        assert_eq!(c.len(), 10);
        assert_eq!(c[0].0, 0.0);
        assert_eq!(c[9].0, 3.0);
        assert_eq!(c[9].1, 1.0);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert_eq!(e.eval(1.0), 0.0);
        assert!(e.curve(5).is_empty());
        assert!(e.knee(0.0).is_none());
    }

    #[test]
    fn knee_of_elbowed_distribution() {
        // Mostly small values with a long sparse tail: knee should land
        // near the end of the dense mass, well below the tail max.
        let mut sample: Vec<f64> = (0..900).map(|i| i as f64 / 900.0).collect();
        sample.extend((0..100).map(|i| 1.0 + i as f64 * 0.5));
        let e = Ecdf::new(sample);
        let knee = e.knee(0.0).unwrap();
        assert!(knee < 10.0, "knee {knee}");
        assert!(knee >= 0.5, "knee {knee}");
    }

    #[test]
    fn knee_degenerate_constant() {
        let e = Ecdf::new(vec![2.0; 50]);
        assert!(e.knee(0.0).is_none());
    }
}
