//! Autocorrelation, used to validate candidate periods extracted from the
//! periodogram (§4.1 of the paper, following Vlachos et al. \[71\]).

use crate::fft::{next_pow2, Complex, FftScratch};

/// Normalized autocorrelation computed via FFT in `O(N log N)`, appended to
/// `out` after clearing it. `scratch` provides the transform buffer so
/// repeated calls allocate nothing once warmed up.
///
/// `acf\[0\]` is `1.0` by construction; a constant signal yields all-zero lags
/// (its variance is zero, so correlation is undefined and reported as 0).
/// Produces lags `0..max_lag` (clamped to the signal length):
/// `acf[k] = sum_t (x_t - m)(x_{t+k} - m) / sum_t (x_t - m)²`.
///
/// # Kernel notes
///
/// Both transforms run through the real-input FFT: the centered signal is
/// real, and so is its power spectrum `|X|²`. For a real sequence `P`, the
/// inverse and the forward transform of `P` have bitwise-identical real
/// parts (conjugating the twiddles only negates imaginary parts, and
/// negation is exact), so the inverse transform is a second forward `rfft`
/// — each half the work of the complex transforms the previous
/// implementation used. The inverse transform's `1/N` pass is dropped
/// entirely: `N` is a power of two, so it scales numerator and denominator
/// of the `acf` ratio exactly and cancels without changing a single output
/// bit (the zero-variance guard's threshold is rescaled by `N` to match).
pub fn autocorrelation_into(
    signal: &[f64],
    max_lag: usize,
    scratch: &mut FftScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    let n = signal.len();
    if n == 0 {
        return;
    }
    let max_lag = max_lag.min(n);
    let m = crate::stats::mean(signal);
    // Zero-pad to 2N to make the circular convolution linear.
    let size = next_pow2(2 * n);
    let buf = scratch.zeroed(size);
    for (i, &x) in signal.iter().enumerate() {
        buf[i] = Complex::real(x - m);
    }
    scratch.run_rfft();
    for v in scratch.buf_mut().iter_mut() {
        let p = v.norm_sq();
        *v = Complex::real(p);
    }
    scratch.run_rfft();
    let buf = scratch.buf_mut();
    // Without the inverse transform's 1/N, every coefficient is scaled by
    // `size`; the ratio is unaffected, the guard threshold scales along.
    let denom = buf[0].re;
    if denom <= 1e-12 * size as f64 {
        out.resize(max_lag, 0.0);
        return;
    }
    if max_lag > 0 {
        // acf[0] = denom/denom: emit the exact 1.0 and keep the normalize
        // loop branch-free over the remaining lags.
        out.push(1.0);
        out.extend(buf[1..max_lag].iter().map(|c| c.re / denom));
    }
}

/// Allocating convenience wrapper around [`autocorrelation_into`].
pub fn autocorrelation(signal: &[f64], max_lag: usize) -> Vec<f64> {
    let mut scratch = FftScratch::new();
    let mut out = Vec::new();
    autocorrelation_into(signal, max_lag, &mut scratch, &mut out);
    out
}

/// Returns `true` if `acf` has a local maximum at `lag` (within a window of
/// `half_window` on each side) — i.e. the candidate lag sits on a hill of the
/// autocorrelation, not on a slope. This is the validation step of \[71\]:
/// spectral leakage produces spurious periodogram peaks whose ACF
/// neighborhood is monotonic rather than peaked.
pub fn is_acf_hill(acf: &[f64], lag: usize, half_window: usize) -> bool {
    if lag == 0 || lag >= acf.len() {
        return false;
    }
    let lo = lag.saturating_sub(half_window).max(1);
    let hi = (lag + half_window).min(acf.len() - 1);
    let center = acf[lag];
    // The candidate must be the maximum of its window...
    if acf[lo..=hi].iter().any(|&v| v > center + 1e-12) {
        return false;
    }
    // ...and strictly above the window edges (a flat plateau is not a hill).
    let left_edge = acf[lo];
    let right_edge = acf[hi];
    center > left_edge - 1e-12 && center >= right_edge && center > 0.0
}

/// Find the lag of the highest ACF value in `[min_lag, max_lag)`, refining a
/// candidate lag to the true local peak. Returns `None` if the range is
/// empty.
pub fn refine_peak(acf: &[f64], min_lag: usize, max_lag: usize) -> Option<usize> {
    let hi = max_lag.min(acf.len());
    if min_lag >= hi {
        return None;
    }
    (min_lag..hi).max_by(|&a, &b| acf[a].partial_cmp(&acf[b]).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn impulse_train(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % period == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn acf_lag0_is_one() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let acf = autocorrelation(&xs, 10);
        assert_eq!(acf[0], 1.0);
    }

    #[test]
    fn acf_periodic_signal_peaks_at_period() {
        let xs = impulse_train(1000, 25);
        let acf = autocorrelation(&xs, 200);
        // Multiples of the period should have high ACF.
        assert!(acf[25] > 0.9);
        assert!(acf[50] > 0.9);
        // Non-multiples should be near the negative baseline.
        assert!(acf[13] < 0.1);
        assert!(is_acf_hill(&acf, 25, 3));
        assert!(!is_acf_hill(&acf, 13, 3));
    }

    #[test]
    fn acf_matches_naive() {
        let xs: Vec<f64> = (0..64).map(|i| ((i * 7) % 11) as f64).collect();
        let m = crate::stats::mean(&xs);
        let c: Vec<f64> = xs.iter().map(|x| x - m).collect();
        let denom: f64 = c.iter().map(|x| x * x).sum();
        let acf = autocorrelation(&xs, 20);
        for k in 0..20 {
            let naive: f64 = (0..64 - k).map(|t| c[t] * c[t + k]).sum::<f64>() / denom;
            assert!((acf[k] - naive).abs() < 1e-9, "lag {k}");
        }
    }

    #[test]
    fn constant_signal_zero_acf() {
        let acf = autocorrelation(&[7.0; 50], 10);
        assert!(acf.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn empty_signal() {
        assert!(autocorrelation(&[], 10).is_empty());
    }

    #[test]
    fn max_lag_zero_is_empty() {
        let xs: Vec<f64> = (0..32).map(|i| (i as f64 * 0.9).cos()).collect();
        assert!(autocorrelation(&xs, 0).is_empty());
    }

    #[test]
    fn refine_peak_finds_max() {
        let xs = impulse_train(500, 40);
        let acf = autocorrelation(&xs, 100);
        // Search around a slightly-off candidate.
        let peak = refine_peak(&acf, 35, 46).unwrap();
        assert_eq!(peak, 40);
        assert_eq!(refine_peak(&acf, 90, 90), None);
    }

    #[test]
    fn hill_rejects_lag_zero_and_out_of_range() {
        let acf = vec![1.0, 0.5, 0.2];
        assert!(!is_acf_hill(&acf, 0, 2));
        assert!(!is_acf_hill(&acf, 5, 2));
    }

    #[test]
    fn random_permutation_has_no_strong_acf_hill() {
        // Pseudo-random aperiodic signal: no lag should have ACF near 1.
        let mut state = 0x853c49e6748fea9bu64;
        let xs: Vec<f64> = (0..1000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 97) as f64
            })
            .collect();
        let acf = autocorrelation(&xs, 300);
        let max_off = acf[5..].iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_off < 0.5, "max off-peak acf {max_off}");
    }
}
