//! Unsupervised period detection (§4.1 of the paper).
//!
//! Given the timestamps at which flows of one traffic group (same
//! destination domain + protocol) were observed, we
//!
//! 1. bin the timestamps into an occurrence-count signal,
//! 2. extract *candidate* periods from periodogram peaks (DFT step),
//! 3. *validate* each candidate on the autocorrelation function: the
//!    candidate lag must sit on an ACF hill with a significant correlation
//!    score (autocorrelation step, following Vlachos et al. \[71\]),
//! 4. refine the validated period against the raw inter-event gaps.
//!
//! Sequences where no candidate survives validation are classified as
//! aperiodic. The paper reports 100% accuracy of this procedure on 100
//! periodic / 100 permuted / 100 noisy synthetic sequences; the same
//! experiment is reproduced in `behaviot-bench --bin exp_periodicity` and in
//! this module's tests.
//!
//! # Steady-state allocation contract
//!
//! [`PeriodDetector`] owns every intermediate buffer of the pipeline; after
//! warm-up, [`PeriodDetector::detect_into`] performs **zero heap
//! allocations** (pinned by `crates/dsp/tests/alloc_steady_state.rs`). The
//! sorts on the hot path are `sort_unstable` (stable `sort_by` allocates a
//! merge buffer) with explicit tie-breaks where stable order was observable,
//! and the candidate merge runs in place over scratch vectors.

use crate::autocorr::{autocorrelation_into, is_acf_hill, refine_peak};
use crate::fft::{periodogram_into, FftScratch};
use crate::stats;
use std::sync::OnceLock;

/// Tunable parameters of the period detector. `Default` matches the values
/// used throughout the reproduction.
#[derive(Debug, Clone)]
pub struct PeriodConfig {
    /// Minimum number of events required to attempt detection.
    pub min_events: usize,
    /// Upper bound on the number of signal bins (controls FFT size).
    pub max_bins: usize,
    /// Candidate periodogram peaks must exceed `mean + power_sigma * std`.
    pub power_sigma: f64,
    /// Minimum autocorrelation score at the candidate lag for validation.
    pub acf_threshold: f64,
    /// Maximum number of periodogram candidates examined.
    pub max_candidates: usize,
    /// Two validated periods within this relative tolerance are merged.
    pub merge_tolerance: f64,
    /// Minimum number of full cycles the observation window must contain.
    pub min_cycles: f64,
}

impl Default for PeriodConfig {
    fn default() -> Self {
        Self {
            min_events: 8,
            max_bins: 1 << 19,
            power_sigma: 4.0,
            acf_threshold: 0.3,
            max_candidates: 50,
            merge_tolerance: 0.1,
            min_cycles: 3.0,
        }
    }
}

/// A validated period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedPeriod {
    /// Period in the same unit as the input timestamps (seconds throughout
    /// BehavIoT).
    pub period: f64,
    /// Autocorrelation score at the period lag (validation strength, ≤ 1).
    pub acf_score: f64,
    /// Periodogram power of the originating candidate (for ranking).
    pub power: f64,
}

/// Cached metric handles: the registry resolves names through a locked map,
/// which is measurable (and allocates on first insert) — look the handles up
/// once instead of per detection.
struct DspMetrics {
    detections: behaviot_obs::Counter,
    series_len: behaviot_obs::Histogram,
}

fn dsp_metrics() -> &'static DspMetrics {
    static M: OnceLock<DspMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = behaviot_obs::metrics();
        DspMetrics {
            detections: r.counter("dsp.period_detections"),
            series_len: r.histogram("dsp.series_len"),
        }
    })
}

/// Reusable period-detection state: configuration plus every intermediate
/// buffer of the pipeline (sorted timestamps, gaps, binned signal,
/// periodogram, ACF, candidate/validated scratch, FFT scratch + twiddle
/// tables). One detector per worker thread turns the per-group hot path —
/// the dominant cost of `PeriodicModelSet::train` — into an allocation-free
/// loop after warm-up.
#[derive(Debug)]
pub struct PeriodDetector {
    cfg: PeriodConfig,
    fft: FftScratch,
    ts: Vec<f64>,
    gaps: Vec<f64>,
    signal: Vec<f64>,
    power: Vec<f64>,
    acf: Vec<f64>,
    matching: Vec<f64>,
    candidates: Vec<(usize, f64)>,
    validated: Vec<DetectedPeriod>,
}

impl PeriodDetector {
    /// Build a detector; buffers grow lazily to the largest group seen.
    pub fn new(cfg: PeriodConfig) -> Self {
        Self {
            cfg,
            fft: FftScratch::new(),
            ts: Vec::new(),
            gaps: Vec::new(),
            signal: Vec::new(),
            power: Vec::new(),
            acf: Vec::new(),
            matching: Vec::new(),
            candidates: Vec::new(),
            validated: Vec::new(),
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &PeriodConfig {
        &self.cfg
    }

    /// Detect the periods of an event-timestamp sequence. Returns validated
    /// periods sorted by descending ACF score; an empty vector means the
    /// sequence is aperiodic (or too short to tell).
    ///
    /// Timestamps need not be sorted; they are sorted internally (into a
    /// scratch buffer — the input is untouched).
    pub fn detect(&mut self, timestamps: &[f64]) -> Vec<DetectedPeriod> {
        let mut out = Vec::new();
        self.detect_into(timestamps, &mut out);
        out
    }

    /// Allocation-free core of [`PeriodDetector::detect`]: results are
    /// appended to `out` after clearing it, so a caller that reuses both the
    /// detector and `out` performs zero steady-state heap allocations.
    pub fn detect_into(&mut self, timestamps: &[f64], out: &mut Vec<DetectedPeriod>) {
        let _span = behaviot_obs::span!("dsp.period_detect", events = timestamps.len());
        let m = dsp_metrics();
        m.detections.inc();
        m.series_len.record(timestamps.len() as u64);
        out.clear();
        let cfg = &self.cfg;
        if timestamps.len() < cfg.min_events {
            return;
        }
        self.ts.clear();
        self.ts.extend_from_slice(timestamps);
        let ts = &mut self.ts;
        // Unstable sort: equal f64 keys are indistinguishable, and the
        // stable sort would allocate a merge buffer on every call.
        ts.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN timestamp"));
        let span = ts[ts.len() - 1] - ts[0];
        if span <= 0.0 {
            return;
        }

        // --- Binning -------------------------------------------------------
        self.gaps.clear();
        self.gaps.extend(ts.windows(2).map(|w| w[1] - w[0]));
        let gaps = &self.gaps;
        self.matching.clear();
        self.matching.extend_from_slice(gaps);
        let median_gap = stats::median_in_place(&mut self.matching).max(1e-9);
        // Resolution: fine enough to resolve the typical gap, coarse enough
        // to bound the FFT size and to absorb timing jitter (a few % of the
        // period) into a single bin so the ACF peak stays sharp.
        let dt = (median_gap / 8.0).max(span / cfg.max_bins as f64);
        let n_bins = (span / dt).ceil() as usize + 1;
        self.signal.clear();
        self.signal.resize(n_bins, 0.0);
        for &t in ts.iter() {
            // Keep the division: hoisting a reciprocal would round bin
            // indices differently and could move an event across a bin edge.
            let idx = (((t - ts[0]) / dt) as usize).min(n_bins - 1);
            self.signal[idx] += 1.0;
        }

        // --- DFT candidate extraction ---------------------------------------
        periodogram_into(&self.signal, &mut self.fft, &mut self.power);
        let power = &self.power;
        if power.len() < 4 {
            return;
        }
        let n_pad = (power.len() - 1) * 2;
        let p_mean = stats::mean(&power[1..]);
        let p_std = stats::std_dev(&power[1..]);
        let threshold = p_mean + cfg.power_sigma * p_std;

        self.candidates.clear();
        self.candidates.extend(
            power
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(k, &p)| {
                    if p <= threshold {
                        return false;
                    }
                    let period = n_pad as f64 * dt / k as f64;
                    // Must observe enough full cycles and more than 2 bins/period.
                    span / period >= cfg.min_cycles && period >= 2.0 * dt
                })
                .map(|(k, &p)| (k, p)),
        );
        // Descending power with the bin index as tie-break: identical to the
        // previous stable sort (candidates arrive in ascending-bin order),
        // without the merge-buffer allocation.
        self.candidates
            .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        self.candidates.truncate(cfg.max_candidates);
        if self.candidates.is_empty() {
            return;
        }

        // --- ACF validation --------------------------------------------------
        let max_lag = (n_bins / 2).max(2);
        autocorrelation_into(&self.signal, max_lag, &mut self.fft, &mut self.acf);
        let acf = &self.acf;
        self.validated.clear();
        for &(k, pw) in &self.candidates {
            let period = n_pad as f64 * dt / k as f64;
            let lag = (period / dt).round() as usize;
            if lag < 2 || lag >= acf.len() {
                continue;
            }
            // Refine the candidate lag to the nearby ACF peak (spectral bins
            // are coarse for long periods).
            let lo = ((lag as f64 * 0.8) as usize).max(1);
            let hi = ((lag as f64 * 1.2).ceil() as usize + 1).min(acf.len());
            let Some(peak) = refine_peak(acf, lo, hi) else {
                continue;
            };
            let half_window = (peak / 10).max(2);
            if acf[peak] < cfg.acf_threshold || !is_acf_hill(acf, peak, half_window) {
                continue;
            }
            let refined = refine_against_gaps(gaps, peak as f64 * dt, &mut self.matching);
            self.validated.push(DetectedPeriod {
                period: refined,
                acf_score: acf[peak],
                power: pw,
            });
        }

        merge_validated_in_place(&mut self.validated, cfg.merge_tolerance);
        out.extend_from_slice(&self.validated);
    }
}

/// Detect the periods of one event-timestamp sequence. Allocating
/// convenience wrapper around [`PeriodDetector::detect`]; batch callers
/// should hold a detector to reuse its buffers.
pub fn detect_periods(timestamps: &[f64], cfg: &PeriodConfig) -> Vec<DetectedPeriod> {
    PeriodDetector::new(cfg.clone()).detect(timestamps)
}

/// Refine a coarse (bin-resolution) period against the raw inter-event gaps:
/// the median of gaps within ±30% of the coarse period. For clean timer
/// traffic this recovers the period to sub-second precision. Falls back to
/// the coarse value if too few gaps match (e.g. interleaved noise).
fn refine_against_gaps(gaps: &[f64], coarse: f64, matching: &mut Vec<f64>) -> f64 {
    matching.clear();
    matching.extend(
        gaps.iter()
            .copied()
            .filter(|&g| g >= 0.7 * coarse && g <= 1.3 * coarse),
    );
    if matching.len() >= 3 && matching.len() * 4 >= gaps.len() {
        stats::median_in_place(matching)
    } else {
        coarse
    }
}

/// Stable insertion sort — the candidate set is bounded by
/// `max_candidates` (50 by default), where insertion sort is both fastest
/// and allocation-free, unlike the stdlib's stable `sort_by`.
fn insertion_sort_by(
    v: &mut [DetectedPeriod],
    less: impl Fn(&DetectedPeriod, &DetectedPeriod) -> bool,
) {
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && less(&v[j], &v[j - 1]) {
            v.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Merge near-duplicate validated periods (keep strongest) and drop
/// multiples of a stronger shorter period (2T, 3T ACF hills of the same
/// process), entirely in place. Result sorted by descending ACF score.
fn merge_validated_in_place(periods: &mut Vec<DetectedPeriod>, tol: f64) {
    insertion_sort_by(periods, |a, b| a.acf_score > b.acf_score);
    // First pass: dedup near-equal periods (strongest wins), compacting the
    // kept prefix in place.
    let mut kept = 0;
    for i in 0..periods.len() {
        let p = periods[i];
        if periods[..kept]
            .iter()
            .any(|k| rel_close(k.period, p.period, tol))
        {
            continue;
        }
        periods[kept] = p;
        kept += 1;
    }
    periods.truncate(kept);
    // Second pass: drop integer multiples of a kept shorter period. Scanning
    // in ascending period order means every potential base is already in the
    // accepted prefix when its multiples are examined.
    insertion_sort_by(periods, |a, b| a.period < b.period);
    let mut kept = 0;
    for i in 0..periods.len() {
        let p = periods[i];
        let is_multiple = periods[..kept].iter().any(|base| {
            let ratio = p.period / base.period;
            let nearest = ratio.round();
            nearest >= 2.0 && (ratio - nearest).abs() / nearest < tol
        });
        if !is_multiple {
            periods[kept] = p;
            kept += 1;
        }
    }
    periods.truncate(kept);
    insertion_sort_by(periods, |a, b| a.acf_score > b.acf_score);
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() / a.max(b).max(1e-12) < tol
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so tests don't need `rand`.
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

    fn periodic_events(period: f64, span: f64, jitter: f64, seed: u64) -> Vec<f64> {
        let mut rng = Lcg(seed);
        let mut ts = Vec::new();
        let mut t = 0.0;
        while t < span {
            ts.push(t + jitter * (rng.next_f64() - 0.5));
            t += period;
        }
        ts
    }

    fn random_events(n: usize, span: f64, seed: u64) -> Vec<f64> {
        let mut rng = Lcg(seed);
        let mut ts: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts
    }

    #[test]
    fn detects_clean_period() {
        let ts = periodic_events(236.0, 3600.0 * 24.0, 0.0, 1);
        let out = detect_periods(&ts, &PeriodConfig::default());
        assert!(!out.is_empty(), "no period found");
        assert!(
            (out[0].period - 236.0).abs() < 5.0,
            "found {} expected 236",
            out[0].period
        );
    }

    #[test]
    fn detects_period_with_jitter() {
        let ts = periodic_events(60.0, 3600.0 * 12.0, 6.0, 7);
        let out = detect_periods(&ts, &PeriodConfig::default());
        assert!(!out.is_empty());
        assert!(
            (out[0].period - 60.0).abs() < 3.0,
            "found {}",
            out[0].period
        );
    }

    #[test]
    fn rejects_random_sequence() {
        for seed in 0..5 {
            let ts = random_events(600, 3600.0 * 10.0, 1000 + seed);
            let out = detect_periods(&ts, &PeriodConfig::default());
            assert!(out.is_empty(), "seed {seed} spurious {:?}", out);
        }
    }

    #[test]
    fn detects_period_buried_in_noise() {
        // Periodic + uniform background noise at ~50% of the event count.
        let mut ts = periodic_events(120.0, 3600.0 * 24.0, 2.0, 3);
        let n_noise = ts.len() / 2;
        ts.extend(random_events(n_noise, 3600.0 * 24.0, 42));
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let out = detect_periods(&ts, &PeriodConfig::default());
        assert!(!out.is_empty(), "period lost in noise");
        assert!(
            (out[0].period - 120.0).abs() < 6.0,
            "found {}",
            out[0].period
        );
    }

    #[test]
    fn too_few_events() {
        let ts = [0.0, 10.0, 20.0];
        assert!(detect_periods(&ts, &PeriodConfig::default()).is_empty());
    }

    #[test]
    fn zero_span() {
        let ts = [5.0; 20];
        assert!(detect_periods(&ts, &PeriodConfig::default()).is_empty());
    }

    #[test]
    fn long_period_over_days() {
        // NTP-style hourly sync over 5 days.
        let ts = periodic_events(3603.0, 5.0 * 86400.0, 10.0, 11);
        let out = detect_periods(&ts, &PeriodConfig::default());
        assert!(!out.is_empty());
        assert!(
            (out[0].period - 3603.0).abs() < 120.0,
            "found {}",
            out[0].period
        );
    }

    #[test]
    fn two_interleaved_periods() {
        let mut ts = periodic_events(60.0, 86400.0, 1.0, 5);
        ts.extend(periodic_events(300.0, 86400.0, 1.0, 6));
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let out = detect_periods(&ts, &PeriodConfig::default());
        // The dominant 60s component must be found; the 300s one is a
        // multiple of 60 and may legitimately be merged away.
        assert!(out.iter().any(|p| (p.period - 60.0).abs() < 3.0), "{out:?}");
    }

    #[test]
    fn detector_reuse_matches_fresh() {
        // One detector across many heterogeneous inputs must give the same
        // answers as a fresh detector per input (buffer reuse is inert).
        let cfg = PeriodConfig::default();
        let inputs: Vec<Vec<f64>> = vec![
            periodic_events(236.0, 3600.0 * 24.0, 0.0, 1),
            random_events(600, 3600.0 * 10.0, 1001),
            periodic_events(60.0, 3600.0 * 12.0, 6.0, 7),
            vec![0.0, 10.0, 20.0],
            vec![5.0; 20],
            periodic_events(3603.0, 5.0 * 86400.0, 10.0, 11),
        ];
        let mut shared = PeriodDetector::new(cfg.clone());
        for ts in &inputs {
            assert_eq!(shared.detect(ts), detect_periods(ts, &cfg));
        }
    }

    #[test]
    fn detect_into_matches_detect() {
        // The zero-allocation entry point and the allocating wrapper must
        // agree, including `out` being reused (and cleared) across calls.
        let cfg = PeriodConfig::default();
        let mut det = PeriodDetector::new(cfg.clone());
        let mut out = Vec::new();
        for seed in 0..4u64 {
            let ts = periodic_events(40.0 + 11.0 * seed as f64, 86400.0, 1.0, seed);
            det.detect_into(&ts, &mut out);
            assert_eq!(out, detect_periods(&ts, &cfg));
        }
        // An aperiodic input after a periodic one must leave `out` empty.
        let noise = random_events(500, 3600.0 * 8.0, 99);
        det.detect_into(&noise, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_drops_multiples() {
        let mut periods = vec![
            DetectedPeriod {
                period: 60.0,
                acf_score: 0.9,
                power: 10.0,
            },
            DetectedPeriod {
                period: 120.5,
                acf_score: 0.8,
                power: 5.0,
            },
            DetectedPeriod {
                period: 61.0,
                acf_score: 0.7,
                power: 4.0,
            },
            DetectedPeriod {
                period: 95.0,
                acf_score: 0.6,
                power: 3.0,
            },
        ];
        merge_validated_in_place(&mut periods, 0.1);
        let vals: Vec<f64> = periods.iter().map(|p| p.period).collect();
        assert!(vals.contains(&60.0));
        assert!(vals.contains(&95.0));
        assert_eq!(periods.len(), 2, "{vals:?}");
    }

    #[test]
    fn merge_keeps_strongest_of_near_equals_regardless_of_order() {
        // Ties and near-duplicates: the higher ACF score must win, and the
        // result must be sorted by descending score.
        let mut periods = vec![
            DetectedPeriod {
                period: 100.0,
                acf_score: 0.5,
                power: 1.0,
            },
            DetectedPeriod {
                period: 102.0,
                acf_score: 0.9,
                power: 2.0,
            },
            DetectedPeriod {
                period: 250.0,
                acf_score: 0.7,
                power: 3.0,
            },
        ];
        merge_validated_in_place(&mut periods, 0.1);
        assert_eq!(periods.len(), 2);
        assert_eq!(periods[0].period, 102.0);
        assert_eq!(periods[1].period, 250.0);
    }

    #[test]
    fn paper_synthetic_experiment_small() {
        // Scaled-down version of the §5.1 synthetic check: 20 periodic,
        // 20 shuffled (aperiodic), 20 noisy periodic. Must be 100% correct.
        let cfg = PeriodConfig::default();
        let mut correct = 0;
        let total = 60;
        for i in 0..20u64 {
            let period = 30.0 + 37.0 * i as f64;
            let span = (period * 120.0).max(43200.0);
            let ts = periodic_events(period, span, period * 0.02, i);
            let out = detect_periods(&ts, &cfg);
            if out
                .first()
                .is_some_and(|p| (p.period - period).abs() / period < 0.05)
            {
                correct += 1;
            }
            // Aperiodic control with the same event count and span.
            let rnd = random_events(ts.len(), span, 900 + i);
            if detect_periods(&rnd, &cfg).is_empty() {
                correct += 1;
            }
            // Noisy periodic.
            let mut noisy = ts.clone();
            noisy.extend(random_events(ts.len() / 3, span, 1800 + i));
            noisy.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let out = detect_periods(&noisy, &cfg);
            if out
                .iter()
                .any(|p| (p.period - period).abs() / period < 0.05)
            {
                correct += 1;
            }
        }
        assert_eq!(correct, total, "synthetic accuracy {correct}/{total}");
    }
}
