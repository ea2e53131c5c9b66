//! Minimal in-tree stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this shim provides
//! exactly the API surface the workspace uses: `StdRng::seed_from_u64`,
//! `Rng::gen`, `Rng::gen_range` (half-open and inclusive integer/float
//! ranges), `Rng::gen_bool`, and `SliceRandom::shuffle`.
//!
//! `StdRng` is xoshiro256++ seeded through SplitMix64 — a different stream
//! than upstream `rand`'s ChaCha12, but the workspace only relies on
//! *determinism for a fixed seed* and statistical quality, never on the
//! exact upstream byte stream.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from a generator's raw bits
/// (the shim's equivalent of `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// A range a uniform value can be drawn from (`a..b` / `a..=b`).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics on empty ranges.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_range_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

/// Unbiased uniform draw from `[0, span)` via Lemire's multiply-shift with
/// rejection. `span` must be nonzero.
#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(span as u128);
        let lo = m as u64;
        if lo >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
        // Biased low region: redraw.
    }
}

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u: $t = Standard::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let u: $t = Standard::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of `T` (full integer range, `[0, 1)` for floats).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform value from a range.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        let u: f64 = Standard::sample(self);
        u < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding procedure for
            // xoshiro: guarantees a nonzero state for every seed.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffle in place, deterministically for a deterministic `rng`.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = r.gen_range(0..=5u32);
            assert!(y <= 5);
            let z = r.gen_range(-0.5..0.5f64);
            assert!((-0.5..0.5).contains(&z));
            let w = r.gen_range(-10..10i32);
            assert!((-10..10).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = StdRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn choose_and_bool() {
        let mut r = StdRng::seed_from_u64(3);
        let v = [1, 2, 3];
        assert!(v.contains(v.as_slice().choose(&mut r).unwrap()));
        let empty: [i32; 0] = [];
        assert!(empty.as_slice().choose(&mut r).is_none());
        let heads = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&heads), "{heads}");
    }
}
