//! The DSP kernels exactly as they were before the real-input-FFT rewrite:
//! a per-call twiddle recurrence (`w *= wlen`), a complex FFT in both
//! directions for the autocorrelation, and allocating stable sorts in the
//! period detector. Kept allocation-for-allocation faithful.
//!
//! This is the one copy. `tests/period_parity.rs` checks the live
//! periodogram and `detect_periods` against it.

#[derive(Clone, Copy, Default)]
pub struct C {
    pub re: f64,
    pub im: f64,
}

impl C {
    fn mul(self, o: C) -> C {
        C {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Pre-rewrite FFT: bit reversal, then butterflies with the twiddle
/// carried through a repeated complex multiplication (`w *= wlen`).
fn fft_dir(buf: &mut [C], inverse: bool) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = 2.0 * std::f64::consts::PI / len as f64 * if inverse { 1.0 } else { -1.0 };
        let wlen = C {
            re: ang.cos(),
            im: ang.sin(),
        };
        let mut base = 0;
        while base < n {
            let mut w = C { re: 1.0, im: 0.0 };
            for k in 0..len / 2 {
                let u = buf[base + k];
                let v = buf[base + k + len / 2].mul(w);
                buf[base + k] = C {
                    re: u.re + v.re,
                    im: u.im + v.im,
                };
                buf[base + k + len / 2] = C {
                    re: u.re - v.re,
                    im: u.im - v.im,
                };
                w = w.mul(wlen);
            }
            base += len;
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in buf.iter_mut() {
            v.re *= inv;
            v.im *= inv;
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pre-rewrite sort-based median.
fn median_in_place(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

pub fn periodogram_into(signal: &[f64], buf: &mut Vec<C>, out: &mut Vec<f64>) {
    out.clear();
    if signal.is_empty() {
        return;
    }
    let m = mean(signal);
    let n = next_pow2(signal.len());
    buf.clear();
    buf.resize(n, C::default());
    for (i, &x) in signal.iter().enumerate() {
        buf[i] = C { re: x - m, im: 0.0 };
    }
    fft_dir(buf, false);
    out.extend(
        buf[..n / 2 + 1]
            .iter()
            .map(|c| (c.re * c.re + c.im * c.im) / n as f64),
    );
}

fn autocorrelation_into(signal: &[f64], max_lag: usize, buf: &mut Vec<C>, out: &mut Vec<f64>) {
    out.clear();
    let n = signal.len();
    if n == 0 {
        return;
    }
    let max_lag = max_lag.min(n);
    let m = mean(signal);
    let size = next_pow2(2 * n);
    buf.clear();
    buf.resize(size, C::default());
    for (i, &x) in signal.iter().enumerate() {
        buf[i] = C { re: x - m, im: 0.0 };
    }
    fft_dir(buf, false);
    for v in buf.iter_mut() {
        *v = C {
            re: v.re * v.re + v.im * v.im,
            im: 0.0,
        };
    }
    fft_dir(buf, true);
    let denom = buf[0].re;
    if denom <= 1e-12 {
        out.resize(max_lag, 0.0);
        return;
    }
    out.extend((0..max_lag).map(|k| buf[k].re / denom));
}

/// Pre-rewrite period detection: same decision procedure as
/// `behaviot_dsp::PeriodDetector`, with the old kernels and the old
/// per-call allocation profile (fresh vectors, stable sorts).
pub fn detect_periods(
    timestamps: &[f64],
    cfg: &behaviot_dsp::PeriodConfig,
) -> Vec<(f64, f64, f64)> {
    if timestamps.len() < cfg.min_events {
        return Vec::new();
    }
    let mut ts = timestamps.to_vec();
    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let span = ts[ts.len() - 1] - ts[0];
    if span <= 0.0 {
        return Vec::new();
    }
    let gaps: Vec<f64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
    let median_gap = median_in_place(&mut gaps.clone()).max(1e-9);
    let dt = (median_gap / 8.0).max(span / cfg.max_bins as f64);
    let n_bins = (span / dt).ceil() as usize + 1;
    let mut signal = vec![0.0; n_bins];
    for &t in &ts {
        let idx = (((t - ts[0]) / dt) as usize).min(n_bins - 1);
        signal[idx] += 1.0;
    }
    let mut buf = Vec::new();
    let mut power = Vec::new();
    periodogram_into(&signal, &mut buf, &mut power);
    if power.len() < 4 {
        return Vec::new();
    }
    let n_pad = (power.len() - 1) * 2;
    let threshold = mean(&power[1..]) + cfg.power_sigma * std_dev(&power[1..]);
    let mut candidates: Vec<(usize, f64)> = power
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(k, &p)| {
            if p <= threshold {
                return false;
            }
            let period = n_pad as f64 * dt / k as f64;
            span / period >= cfg.min_cycles && period >= 2.0 * dt
        })
        .map(|(k, &p)| (k, p))
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    candidates.truncate(cfg.max_candidates);
    if candidates.is_empty() {
        return Vec::new();
    }
    let max_lag = (n_bins / 2).max(2);
    let mut acf = Vec::new();
    autocorrelation_into(&signal, max_lag, &mut buf, &mut acf);
    let mut validated: Vec<(f64, f64, f64)> = Vec::new();
    for (k, pw) in candidates {
        let period = n_pad as f64 * dt / k as f64;
        let lag = (period / dt).round() as usize;
        if lag < 2 || lag >= acf.len() {
            continue;
        }
        let lo = ((lag as f64 * 0.8) as usize).max(1);
        let hi = ((lag as f64 * 1.2).ceil() as usize + 1).min(acf.len());
        let Some(peak) = behaviot_dsp::autocorr::refine_peak(&acf, lo, hi) else {
            continue;
        };
        let half_window = (peak / 10).max(2);
        if acf[peak] < cfg.acf_threshold
            || !behaviot_dsp::autocorr::is_acf_hill(&acf, peak, half_window)
        {
            continue;
        }
        let coarse = peak as f64 * dt;
        let mut matching: Vec<f64> = gaps
            .iter()
            .copied()
            .filter(|&g| g >= 0.7 * coarse && g <= 1.3 * coarse)
            .collect();
        let refined = if matching.len() >= 3 && matching.len() * 4 >= gaps.len() {
            median_in_place(&mut matching)
        } else {
            coarse
        };
        validated.push((refined, acf[peak], pw));
    }
    // Old merge: stable sorts over freshly allocated vectors.
    validated.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let mut kept: Vec<(f64, f64, f64)> = Vec::new();
    for p in validated {
        if kept
            .iter()
            .any(|k| (k.0 - p.0).abs() / k.0.max(p.0).max(1e-12) < cfg.merge_tolerance)
        {
            continue;
        }
        kept.push(p);
    }
    let mut by_period = kept.clone();
    by_period.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut final_set: Vec<(f64, f64, f64)> = Vec::new();
    for p in by_period {
        let is_multiple = final_set.iter().any(|base| {
            let ratio = p.0 / base.0;
            let nearest = ratio.round();
            nearest >= 2.0 && (ratio - nearest).abs() / nearest < cfg.merge_tolerance
        });
        if !is_multiple {
            final_set.push(p);
        }
    }
    final_set.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    final_set
}
