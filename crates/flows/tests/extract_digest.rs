//! Pins the 21 Table 8 features to a digest over a seeded corpus of bursts.
//!
//! Every burst of the corpus goes through one [`extract_with`] call with a
//! shared [`FeatureScratch`], and the bits of each feature fold into one
//! `FxHasher` digest (a NaN folds as one fixed pattern: the sign and payload
//! of a NaN that arithmetic makes differ between CPU families).
//!
//! The constant was recorded on the kernel that computed each statistic in
//! passes of its own through `behaviot_dsp::stats` (mean, variance,
//! skewness and kurtosis each re-deriving the mean, medians by
//! quickselect). A change to any feature's arithmetic, its summation order
//! or the order statistics behind the medians moves the digest.
//!
//! The corpus holds empty, one- and two-packet bursts and long bursts of 100
//! to 300 packets (no benchmark burst is longer than 16), constant and
//! repeated sizes, equal timestamps, constant gaps, `-0.0` and `+0.0`
//! timestamps, and NaN and ±∞ timestamps anywhere in a burst. Finite
//! timestamps are in the order `assemble_flows` hands over: ascending under
//! `f64::total_cmp`, so a `-0.0` stamp comes before a `+0.0` one.

use behaviot_flows::features::{extract_with, FeatureScratch, PacketView};
use behaviot_intern::FxHasher;
use std::hash::Hasher;

const SEED: u64 = 0x7AB1_E8F3_A7E5;
const N_BURSTS: usize = 6000;
const EXPECTED: u64 = 0x7a44_10a5_c803_1988;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one corpus burst exercised, for the coverage checks.
#[derive(Default)]
struct Coverage {
    lens: [usize; 3],
    long: usize,
    constant_sizes: usize,
    equal_stamps: usize,
    signed_zeros: usize,
    non_finite: usize,
}

fn random_burst(rng: &mut XorShift, cov: &mut Coverage) -> Vec<PacketView> {
    let n = match rng.range(0, 19) {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => rng.range(100, 300),
        _ => rng.range(3, 24),
    } as usize;
    // Sizes: one value, a few repeated values, or any value at all.
    let menu = [60, 60, 52, 1500, 0, 590, 60];
    let size_mode = rng.range(0, 3);
    let constant = rng.range(0, u64::from(u32::MAX)) as u32;
    let size = |rng: &mut XorShift| match size_mode {
        0 => constant,
        1 => menu[rng.range(0, menu.len() as u64 - 1) as usize],
        2 => rng.range(40, 1500) as u32,
        _ => rng.next() as u32,
    };
    // Gaps: equal timestamps, one constant gap, or random gaps with zeros
    // among them.
    let gap_mode = rng.range(0, 3);
    let fixed = [0.25, 0.5, 1.0, 0.1, 1e-6][rng.range(0, 4) as usize];
    let gap = |rng: &mut XorShift| match gap_mode {
        0 => 0.0,
        1 => fixed,
        2 if rng.range(0, 3) == 0 => 0.0,
        2 => rng.unit() * 2.0,
        _ => rng.unit().powi(4) * 30.0,
    };
    // Starts: at -0.0 (held for a few packets, then +0.0 by adding a zero
    // gap), at +0.0, at a negative time, at an epoch time, or anywhere.
    let mut ts = match rng.range(0, 4) {
        0 => -0.0,
        1 => 0.0,
        2 => -(rng.range(1, 4000) as f64) * 0.25,
        3 => 1.7e9 + rng.unit() * 1e6,
        _ => rng.unit() * 1e5,
    };
    let negative_zeros = if ts == 0.0 && ts.is_sign_negative() {
        rng.range(1, 4) as usize
    } else {
        0
    };
    let mut burst = Vec::with_capacity(n);
    for i in 0..n {
        burst.push(PacketView {
            ts,
            bytes: size(rng),
            outbound: rng.range(0, 1) == 0,
            remote_is_local: rng.range(0, 2) == 0,
        });
        if i + 1 >= negative_zeros {
            ts += gap(rng);
        }
    }
    // Non-finite stamps anywhere: every gap they touch leaves the timing
    // features.
    if n > 0 && rng.range(0, 5) == 0 {
        for _ in 0..rng.range(1, 3) {
            let at = rng.range(0, n as u64 - 1) as usize;
            burst[at].ts =
                [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.range(0, 3) as usize];
        }
    }

    if let Some(c) = cov.lens.get_mut(n) {
        *c += 1;
    }
    cov.long += usize::from(n >= 100);
    cov.constant_sizes += usize::from(n >= 3 && burst.iter().all(|p| p.bytes == burst[0].bytes));
    cov.equal_stamps += usize::from(burst.windows(2).any(|w| w[0].ts == w[1].ts));
    cov.signed_zeros += usize::from(
        burst.iter().any(|p| p.ts == 0.0 && p.ts.is_sign_negative())
            && burst.iter().any(|p| p.ts == 0.0 && p.ts.is_sign_positive()),
    );
    cov.non_finite += usize::from(burst.iter().any(|p| !p.ts.is_finite()));
    burst
}

#[test]
fn features_match_recorded_digest() {
    let mut rng = XorShift(SEED);
    let mut cov = Coverage::default();
    let mut scratch = FeatureScratch::new();
    let mut h = FxHasher::default();
    for _ in 0..N_BURSTS {
        let burst = random_burst(&mut rng, &mut cov);
        h.write_u64(burst.len() as u64);
        for x in extract_with(&burst, &mut scratch) {
            h.write_u64(if x.is_nan() { f64::NAN } else { x }.to_bits());
        }
    }
    assert!(
        cov.lens.iter().all(|&c| c > 0),
        "lengths 0/1/2: {:?}",
        cov.lens
    );
    assert!(cov.long > 0, "no burst of 100 packets or more");
    assert!(cov.constant_sizes > 0, "no burst of one size");
    assert!(cov.equal_stamps > 0, "no burst with equal timestamps");
    assert!(cov.signed_zeros > 0, "no burst with -0.0 and +0.0 stamps");
    assert!(cov.non_finite > 0, "no burst with a non-finite stamp");
    assert_eq!(h.finish(), EXPECTED, "digest {:#018x}", h.finish());
}
