//! Order statistics for reported timings.

/// Samples a reported percentile needs strictly above it: a tail figure
/// resting on fewer observations is one slow outlier away from a
/// different number.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty, which the result line refuses.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-percentile (`0 < p < 1`): the `⌈p·n⌉`-th smallest
/// sample. Refuses when fewer than [`MIN_BEYOND`] samples lie beyond that
/// rank, so a p90 needs at least 100 samples.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("percentile {p} outside (0, 1)"));
    }
    let n = xs.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; {MIN_BEYOND} are needed",
            p * 100.0
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Per-unit best (least) time over repetitions of the same work.
///
/// Other tenants of a shared host only ever add time to a unit, and they
/// come and go within seconds, so the least of a unit's repetitions
/// estimates its cost on an undisturbed core. A median over a run instead
/// moves with the share of the run they happened to be busy.
#[derive(Debug, Default)]
pub struct Best(pub Vec<f64>);

impl Best {
    /// Fold in one repetition's time for each unit, in unit order.
    pub fn add(&mut self, rep: &[f64]) {
        if self.0.is_empty() {
            self.0 = rep.to_vec();
            return;
        }
        assert_eq!(self.0.len(), rep.len(), "repetitions differ in their units");
        for (best, &x) in self.0.iter_mut().zip(rep) {
            *best = best.min(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_keeps_each_units_least_time() {
        let mut b = Best::default();
        b.add(&[3.0, 1.0, 2.0]);
        b.add(&[2.5, 4.0, 2.0]);
        b.add(&[9.0, 0.5, 7.0]);
        assert_eq!(b.0, vec![2.5, 0.5, 2.0]);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples above it.
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        let err = percentile(&xs[..99], 0.9).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&[], 0.9).is_err());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(10.0));
        assert!(percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        let xs = vec![1.0; 1000];
        assert!(percentile(&xs, 0.0).is_err());
        assert!(percentile(&xs, 1.0).is_err());
    }
}
