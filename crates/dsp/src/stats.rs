//! Descriptive statistics (mean, variance, median, percentiles) and the
//! normal and binomial helpers behind the deviation thresholds of §5.3.

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns `0.0` for slices with fewer than two points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of a mutable slice, reordering it in place — the allocation-free
/// primitive behind [`median`] for hot loops that own scratch buffers.
/// Returns `0.0` for an empty slice.
///
/// Uses `O(n)` quickselect rather than a full sort: only the order statistic
/// matters, and every caller in the workspace treats the slice as scratch
/// afterwards. Selection picks the exact same order statistics a sort would,
/// so the returned value is bit-identical to the previous sort-based
/// implementation.
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len();
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in median input");
    let (_, &mut upper, _) = xs.select_nth_unstable_by(n / 2, cmp);
    if n % 2 == 1 {
        upper
    } else {
        // The lower middle is the maximum of the left partition.
        let lower = xs[..n / 2]
            .iter()
            .copied()
            .reduce(f64::max)
            .expect("non-empty by n >= 2");
        0.5 * (lower + upper)
    }
}

/// Median of a slice (selects on a copy). Returns `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    median_in_place(&mut v)
}

/// Percentile via linear interpolation between closest ranks.
/// `p` is in `[0, 100]`. Returns `0.0` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// One-proportion z-statistic for the long-term deviation metric of §4.3:
/// `z = (p − p0) / sqrt(p0(1−p0)/n)`, where `p` is the observed transition
/// probability over `n` new observations and `p0` the modeled probability.
///
/// Degenerate baselines (`p0` of 0 or 1, or `n == 0`) have zero binomial
/// variance; we treat any observed difference there as infinitely
/// significant and an exact match as zero.
pub fn binomial_z(p: f64, p0: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let var = p0 * (1.0 - p0) / n as f64;
    if var <= 0.0 {
        return if (p - p0).abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (p - p0) / var.sqrt()
}

/// Two-sided critical z-value for a confidence level (e.g. `0.95 → 1.96`).
///
/// Implemented with the Acklam inverse-normal-CDF approximation (relative
/// error < 1.15e-9), which is more than enough for thresholding.
pub fn z_critical(confidence: f64) -> f64 {
    let confidence = confidence.clamp(0.0, 0.999_999);
    let p = 1.0 - (1.0 - confidence) / 2.0;
    inverse_normal_cdf(p)
}

/// Inverse standard-normal CDF (Acklam's approximation).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard normal CDF (via `erf` approximation, Abramowitz & Stegun 7.1.26).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (max absolute error 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    #[test]
    fn mean_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!(close(mean(&xs), 2.5, 1e-12));
        assert!(close(median(&xs), 2.5, 1e-12));
        assert!(close(median(&[5.0, 1.0, 3.0]), 3.0, 1e-12));
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn variance_matches_manual() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(close(variance(&xs), 4.0, 1e-12));
        assert!(close(std_dev(&xs), 2.0, 1e-12));
    }

    #[test]
    fn constant_slice_degenerate() {
        let xs = [3.0; 10];
        assert_eq!(variance(&xs), 0.0);
        assert_eq!(std_dev(&xs), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!(close(percentile(&xs, 0.0), 10.0, 1e-12));
        assert!(close(percentile(&xs, 100.0), 40.0, 1e-12));
        assert!(close(percentile(&xs, 50.0), 25.0, 1e-12));
    }

    #[test]
    fn binomial_z_matches_formula() {
        // p = 0.5 observed over n=100 vs p0 = 0.4: z = 0.1/sqrt(0.24/100)
        let z = binomial_z(0.5, 0.4, 100);
        assert!(close(z, 0.1 / (0.24f64 / 100.0).sqrt(), 1e-12));
        assert_eq!(binomial_z(0.5, 0.4, 0), 0.0);
        assert_eq!(binomial_z(1.0, 1.0, 10), 0.0);
        assert!(binomial_z(0.5, 1.0, 10).is_infinite());
    }

    #[test]
    fn z_critical_standard_values() {
        assert!(close(z_critical(0.95), 1.959964, 1e-4));
        assert!(close(z_critical(0.99), 2.575829, 1e-4));
        assert!(close(z_critical(0.90), 1.644854, 1e-4));
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!(close(normal_cdf(0.0), 0.5, 1e-7));
        assert!(close(normal_cdf(1.96), 0.975, 1e-3));
        assert!(close(normal_cdf(-1.96), 0.025, 1e-3));
    }

    #[test]
    fn inverse_normal_roundtrip() {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = inverse_normal_cdf(p);
            assert!(close(normal_cdf(x), p, 1e-3), "p={p}");
        }
    }
}
