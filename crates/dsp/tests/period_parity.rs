//! Old-vs-new parity for period detection: the rewritten kernels (real-input
//! FFT over twiddle tables, in-place sorts, scratch reuse) must tell the same
//! story as the pre-rewrite [`baseline`] on every input below.
//!
//! * The 64 Ki-sample periodogram agrees bin for bin within 1e-7 relative.
//!   Not the golden test's 1e-9: the baseline's repeated twiddle
//!   multiplication accumulates O(N) ulps, and at 64 Ki points that error
//!   (on the baseline's side) exceeds 1e-9 in near-cancelling bins.
//! * `detect_periods` finds the same number of periods on every series, each
//!   period within 1e-9 relative and each `acf_score` within 1e-9.
//!
//! Two corpora feed the detector. The exact series are whole multiples of
//! their period, so every gap equals the period and refinement against the
//! inter-event gaps cannot move a result. The noisy series add ±5 % jitter
//! and n/3 uniformly random extra events, so refinement picks a median gap
//! the coarse ACF peak does not give.

use behaviot_dsp::{detect_periods, fft::periodogram_into, FftScratch, PeriodConfig};

mod baseline;

/// Deterministic LCG, identical to the one the period.rs unit tests use.
struct Lcg(u64);
impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Period and event count of series `s` of both corpora.
fn shape(s: usize) -> (f64, usize) {
    (30.0 + (s % 9) as f64 * 40.0, 400 + (s % 5) * 150)
}

/// 64 event-timestamp series, each an exact multiple of its period.
fn exact_series() -> Vec<Vec<f64>> {
    (0..64)
        .map(|s| {
            let (period, n) = shape(s);
            (0..n).map(|k| k as f64 * period).collect()
        })
        .collect()
}

/// The same 64 shapes with every event jittered by up to ±5 % of the period,
/// plus n/3 extra events uniform over the series' span.
fn noisy_series() -> Vec<Vec<f64>> {
    (0..64)
        .map(|s| {
            let (period, n) = shape(s);
            let mut rng = Lcg(0x5EED ^ s as u64);
            let span = n as f64 * period;
            let mut ts: Vec<f64> = (0..n)
                .map(|k| k as f64 * period + (rng.next_f64() - 0.5) * 0.1 * period)
                .collect();
            ts.extend((0..n / 3).map(|_| rng.next_f64() * span));
            ts
        })
        .collect()
}

fn assert_periods_agree(corpus: &str, series: &[Vec<f64>], cfg: &PeriodConfig) -> usize {
    let mut detected = 0;
    for (i, ts) in series.iter().enumerate() {
        let new = detect_periods(ts, cfg);
        let old = baseline::detect_periods(ts, cfg);
        assert_eq!(
            new.len(),
            old.len(),
            "{corpus} series {i}: period count diverged"
        );
        for (n, o) in new.iter().zip(&old) {
            assert!(
                (n.period - o.0).abs() / o.0.max(1e-12) <= 1e-9,
                "{corpus} series {i}: period diverged: live {} baseline {}",
                n.period,
                o.0
            );
            assert!(
                (n.acf_score - o.1).abs() <= 1e-9,
                "{corpus} series {i}: acf score diverged: live {} baseline {}",
                n.acf_score,
                o.1
            );
        }
        detected += usize::from(!new.is_empty());
    }
    detected
}

#[test]
fn periodogram_64k_matches_baseline() {
    let signal: Vec<f64> = (0..65536).map(|i| ((i % 97) as f64).sin()).collect();
    let mut scratch = FftScratch::new();
    let mut live = Vec::new();
    periodogram_into(&signal, &mut scratch, &mut live);
    let mut buf = Vec::new();
    let mut old = Vec::new();
    baseline::periodogram_into(&signal, &mut buf, &mut old);
    assert_eq!(live.len(), old.len(), "periodogram bin count diverged");
    for (k, (&f, &s)) in live.iter().zip(&old).enumerate() {
        let scale = f.abs().max(s.abs()).max(1e-15);
        assert!(
            (f - s).abs() / scale <= 1e-7,
            "periodogram bin {k} diverged: live {f:e} baseline {s:e}"
        );
    }
}

#[test]
fn exact_series_periods_match_baseline() {
    let detected = assert_periods_agree("exact", &exact_series(), &PeriodConfig::default());
    assert_eq!(detected, 64, "every exact series is periodic");
}

#[test]
fn noisy_series_periods_match_baseline() {
    let detected = assert_periods_agree("noisy", &noisy_series(), &PeriodConfig::default());
    // The corpus must stay informative: most series still detect a period.
    assert!(
        detected >= 48,
        "only {detected} of 64 noisy series detect a period"
    );
}
