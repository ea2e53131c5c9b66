//! Golden parity for `periodogram_into` against the pre-change (PR 6) FFT.
//!
//! The golden file `tests/golden/periodogram_prechange.txt` stores the exact
//! f64 bit patterns the periodogram produced *before* the real-input FFT and
//! twiddle-table rewrite, over a fixed corpus of deterministic signals. The
//! rewrite is allowed to change results only in the last few ulps (twiddle
//! factors are now computed from a symmetric table instead of a repeated
//! multiplication chain, which is slightly *more* accurate); what must never
//! change is anything period detection can observe:
//!
//! * every bin agrees with the pre-change value to 1e-9 relative error,
//! * the peak bin (argmax) is identical,
//! * the set of candidate bins above the `mean + 4σ` detection threshold is
//!   identical, with the threshold computed per-implementation exactly the
//!   way `PeriodDetector::detect` computes it.
//!
//! Regenerate (only when intentionally re-blessing, never for a kernel
//! change): `cargo test -p behaviot-dsp --test periodogram_parity --release
//! -- --ignored regenerate`.

use behaviot_dsp::fft::periodogram;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Deterministic LCG, identical to the one period.rs tests use.
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

/// The fixed corpus: names must stay stable, they key the golden file.
/// Mixed power-of-two and ragged lengths exercise both the exact-size and
/// the zero-padded transform paths.
fn corpus() -> Vec<(&'static str, Vec<f64>)> {
    let mut cases: Vec<(&'static str, Vec<f64>)> = Vec::new();

    cases.push((
        "impulse_train_1000_p25",
        (0..1000)
            .map(|i| if i % 25 == 0 { 1.0 } else { 0.0 })
            .collect(),
    ));
    cases.push((
        "sine_256_f8",
        (0..256)
            .map(|i| (2.0 * std::f64::consts::PI * 8.0 * i as f64 / 256.0).sin())
            .collect(),
    ));
    {
        let mut rng = Lcg(0xD5);
        cases.push((
            "sine_plus_noise_4096",
            (0..4096)
                .map(|i| {
                    (2.0 * std::f64::consts::PI * 31.0 * i as f64 / 4096.0).sin()
                        + 0.5 * (rng.next_f64() - 0.5)
                })
                .collect(),
        ));
    }
    {
        let mut rng = Lcg(0xBEE);
        cases.push(("noise_777", (0..777).map(|_| rng.next_f64()).collect()));
    }
    cases.push((
        "two_tone_2048",
        (0..2048)
            .map(|i| {
                let t = i as f64;
                (2.0 * std::f64::consts::PI * 13.0 * t / 2048.0).sin()
                    + 0.7 * (2.0 * std::f64::consts::PI * 57.0 * t / 2048.0).cos()
            })
            .collect(),
    ));
    cases.push(("constant_128", vec![5.0; 128]));
    cases.push(("tiny_5", vec![1.0, 0.0, 2.0, 0.0, 3.0]));
    {
        // Binned-occurrence-style signal, like detect() feeds the kernel.
        let mut rng = Lcg(0x5EED);
        let mut sig = vec![0.0f64; 3000];
        let mut t = 0.0f64;
        while t < 2990.0 {
            let idx = t as usize;
            sig[idx] += 1.0;
            t += 37.0 + 2.0 * (rng.next_f64() - 0.5);
        }
        cases.push(("binned_occurrences_3000", sig));
    }
    cases
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/periodogram_prechange.txt")
}

fn render(cases: &[(&'static str, Vec<f64>)]) -> String {
    let mut out = String::new();
    for (name, sig) in cases {
        let p = periodogram(sig);
        let _ = writeln!(out, "case {name} {}", p.len());
        for v in &p {
            let _ = writeln!(out, "{:016x}", v.to_bits());
        }
    }
    out
}

/// The candidate set `PeriodDetector::detect` extracts: bins (skipping DC)
/// whose power exceeds `mean + 4σ` of the non-DC bins. Computed with the
/// same `stats` helpers detect() uses so the comparison is exact.
fn candidate_set(p: &[f64]) -> Vec<usize> {
    if p.len() < 2 {
        return Vec::new();
    }
    let mean = behaviot_dsp::stats::mean(&p[1..]);
    let sd = behaviot_dsp::stats::std_dev(&p[1..]);
    let threshold = mean + 4.0 * sd;
    p.iter()
        .enumerate()
        .skip(1)
        .filter(|&(_, &v)| v > threshold)
        .map(|(k, _)| k)
        .collect()
}

fn argmax(p: &[f64]) -> Option<usize> {
    if p.is_empty() {
        return None;
    }
    (0..p.len()).max_by(|&a, &b| p[a].total_cmp(&p[b]))
}

#[test]
fn periodogram_matches_prechange_golden() {
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden missing; run the ignored `regenerate` test to create it");
    let mut lines = golden.lines();
    for (name, sig) in corpus() {
        let header = lines
            .next()
            .unwrap_or_else(|| panic!("golden truncated at {name}"));
        let mut parts = header.split_whitespace();
        assert_eq!(parts.next(), Some("case"));
        assert_eq!(parts.next(), Some(name), "golden case order changed");
        let n: usize = parts.next().unwrap().parse().unwrap();
        let old: Vec<f64> = (0..n)
            .map(|_| {
                let bits = u64::from_str_radix(lines.next().expect("golden truncated"), 16)
                    .expect("bad hex in golden");
                f64::from_bits(bits)
            })
            .collect();

        let new = periodogram(&sig);
        assert_eq!(new.len(), old.len(), "{name}: bin count changed");

        // Per-bin agreement to 1e-9 relative (floor 1e-15 absolute for
        // bins that are exact zeros / cancellation residue).
        for (k, (&o, &v)) in old.iter().zip(&new).enumerate() {
            let scale = o.abs().max(v.abs()).max(1e-15);
            assert!(
                (o - v).abs() / scale <= 1e-9,
                "{name}: bin {k} drifted: old {o:e} new {v:e}"
            );
        }

        // Identical peak selection.
        assert_eq!(argmax(&old), argmax(&new), "{name}: peak bin moved");

        // Identical candidate set above the detection threshold, each side
        // computed from its own values (a marginal bin flipping across the
        // threshold would show up here).
        assert_eq!(
            candidate_set(&old),
            candidate_set(&new),
            "{name}: candidate set changed"
        );
    }
    assert_eq!(lines.next(), None, "golden has trailing cases");
}

/// Writes the golden from the *current* implementation. Only for blessing a
/// new baseline; ignored by default.
#[test]
#[ignore]
fn regenerate() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render(&corpus())).unwrap();
    eprintln!("wrote {}", path.display());
}
