//! Radix-2 Cooley–Tukey FFT, real-input FFT and periodogram.
//!
//! The paper's period inference (§4.1) extracts candidate periods from the
//! discrete Fourier transform of the event-occurrence signal. We implement
//! an in-place iterative radix-2 FFT; inputs are zero-padded to the next
//! power of two by the callers that need it.
//!
//! # Kernel design (PR 6)
//!
//! The transform is built for throughput without giving up bit-exact
//! determinism:
//!
//! * **Twiddle tables instead of a recurrence.** The classic inner loop
//!   updates the twiddle with `w *= wlen`, a serial dependency chain of one
//!   complex multiply per butterfly that stalls every iteration. We
//!   precompute the twiddles once per transform size into a flat per-stage
//!   table (`stages[len/2 - 1 ..][k] = e^{-2πik/len}`), so the butterfly
//!   loop has no loop-carried dependency and auto-vectorizes.
//! * **Symmetric table construction.** The master table satisfies
//!   `tw[n/2 - j] == -conj(tw[j])` *bitwise* (the second quarter is filled
//!   by exact negation of the first, never by a second `cos`/`sin` call).
//!   Negation is exact in IEEE-754 and distributes over rounded products
//!   and sums, so conjugate symmetry of the spectrum of a real input holds
//!   bitwise at every butterfly stage — which is what makes [`rfft`]
//!   possible.
//! * **Real-input FFT ([`rfft`]).** For real input the intermediate blocks
//!   of the decimation-in-time recursion are conjugate-symmetric, so only
//!   the first half of each block's butterflies carries information; the
//!   rest is an exact mirror. `rfft` computes `len/4 + 1` butterflies per
//!   block instead of `len/2` and conjugate-copies the remainder — half the
//!   floating-point work of [`fft`] — and, by the symmetry argument above,
//!   its output is **bitwise identical** to running the full complex
//!   [`fft`] on the same real input (pinned by a proptest). This is the
//!   same 2× saving as the textbook "pack N reals into an N/2 complex
//!   transform" trick, but unlike packing it does not introduce a
//!   differently-rounded post-processing pass, so determinism contracts and
//!   golden parity survive.
//! * **Scratch arena.** [`FftScratch`] owns the transform buffer *and* the
//!   twiddle tables; both grow to the largest size seen and never shrink,
//!   so the period-detection hot loop performs zero steady-state heap
//!   allocations (see `crates/dsp/tests/alloc_steady_state.rs`).

/// Minimal complex number (we avoid external deps; only the operations used
/// by the FFT are provided).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    #[inline]
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Squared magnitude `re² + im²`. Hot paths compare or accumulate this
    /// directly; [`Complex::abs`] (a square root on top) exists only for
    /// reporting convenience and is deliberately unused in the kernels.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    #[inline]
    fn mul(self, o: Self) -> Self {
        Self {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    #[inline]
    fn add(self, o: Self) -> Self {
        Self {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    #[inline]
    fn sub(self, o: Self) -> Self {
        Self {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

/// Next power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Fill `master` with `tw[j] = e^{-2πij/n}` for `j = 0..=n/2`, constructed
/// so that `tw[n/2 - j] == -conj(tw[j])` holds **bitwise**: the entries past
/// `n/4` are exact negations of mirrored first-quarter entries, and the
/// axis values (`j = 0, n/4, n/2`) are written as exact constants. `n` must
/// be a power of two ≥ 2.
fn fill_master(master: &mut Vec<Complex>, n: usize) {
    debug_assert!(n.is_power_of_two() && n >= 2);
    master.clear();
    master.resize(n / 2 + 1, Complex::default());
    master[0] = Complex::new(1.0, 0.0);
    master[n / 2] = Complex::new(-1.0, 0.0);
    if n >= 4 {
        master[n / 4] = Complex::new(0.0, -1.0);
    }
    for j in 1..n / 4 {
        let ang = -2.0 * std::f64::consts::PI * j as f64 / n as f64;
        let (cos, sin) = (ang.cos(), ang.sin());
        master[j] = Complex::new(cos, sin);
        master[n / 2 - j] = Complex::new(-cos, sin); // -conj, exact
    }
}

/// Flatten the master table into contiguous per-stage segments: the stage
/// with butterfly span `len` reads `stages[len/2 - 1 .. len - 1]`, where
/// entry `k` is `e^{-2πik/len}` (i.e. `master[k · n/len]`). Contiguous
/// segments give the butterfly loop unit-stride twiddle loads. Total size is
/// `n - 1`. The segment contents depend only on `len`, not on `n`, so a
/// table built for a larger transform serves every smaller one unchanged.
fn fill_stages(stages: &mut Vec<Complex>, master: &[Complex], n: usize) {
    stages.clear();
    stages.resize(n - 1, Complex::default());
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stride = n / len;
        for k in 0..half {
            stages[half - 1 + k] = master[k * stride];
        }
        len <<= 1;
    }
}

/// In-place bit-reversal permutation.
fn bit_reverse(buf: &mut [Complex]) {
    let n = buf.len();
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
}

/// All butterfly passes over a bit-reversed buffer. `stages` must cover
/// `buf.len()`.
fn fft_stages(buf: &mut [Complex], stages: &[Complex]) {
    let n = buf.len();
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let tw = &stages[half - 1..half - 1 + half];
        let mut base = 0;
        while base < n {
            let (a, b) = buf[base..base + len].split_at_mut(half);
            for k in 0..half {
                let w = tw[k];
                let u = a[k];
                let v = b[k].mul(w);
                a[k] = u.add(v);
                b[k] = u.sub(v);
            }
            base += len;
        }
        len <<= 1;
    }
}

/// Butterfly passes specialized for **real** input (imaginary parts all
/// zero). Every intermediate block of the decimation-in-time recursion is
/// then conjugate-symmetric, so per block only butterflies `k = 0..=len/4`
/// are computed; the remaining entries are exact conjugate mirrors:
/// `out[len - j] = conj(out[j])`. Because the twiddle table satisfies
/// `tw[half - k] == -conj(tw[k])` bitwise (see [`fill_master`]) and IEEE
/// negation distributes exactly over rounded complex products and sums, the
/// mirrored entries are bitwise identical to the ones the full complex
/// butterfly loop would have produced.
fn rfft_stages(buf: &mut [Complex], stages: &[Complex]) {
    let n = buf.len();
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let quarter = half / 2;
        let tw = &stages[half - 1..half - 1 + half];
        let mut base = 0;
        while base < n {
            let (a, b) = buf[base..base + len].split_at_mut(half);
            for k in 0..=quarter.min(half - 1) {
                let w = tw[k];
                let u = a[k];
                let v = b[k].mul(w);
                a[k] = u.add(v);
                b[k] = u.sub(v);
            }
            // Mirror the redundant half: out[j] = conj(out[len - j]).
            // First-half gaps read the freshly computed upper outputs...
            for j in quarter + 1..half {
                a[j] = b[half - j].conj();
            }
            // ...and second-half gaps read the freshly computed lower ones.
            for j in quarter + 1..half {
                b[j] = a[half - j].conj();
            }
            base += len;
        }
        len <<= 1;
    }
}

/// Build throwaway twiddle tables for the standalone entry points. The hot
/// paths go through [`FftScratch`], which caches these across calls.
fn local_tables(n: usize) -> Vec<Complex> {
    let mut master = Vec::new();
    let mut stages = Vec::new();
    fill_master(&mut master, n);
    fill_stages(&mut stages, &master, n);
    stages
}

/// In-place forward FFT. Panics if `buf.len()` is not a power of two.
pub fn fft(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    let stages = local_tables(n);
    bit_reverse(buf);
    fft_stages(buf, &stages);
}

/// In-place forward FFT of a **real** signal: `buf` must hold the samples in
/// the real parts with all imaginary parts zero. Produces the same full
/// complex spectrum as [`fft`] — bitwise identical output — at roughly half
/// the floating-point cost by exploiting conjugate symmetry. Panics if
/// `buf.len()` is not a power of two.
pub fn rfft(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    debug_assert!(
        buf.iter().all(|c| c.im == 0.0),
        "rfft input must be purely real"
    );
    if n <= 1 {
        return;
    }
    let stages = local_tables(n);
    bit_reverse(buf);
    rfft_stages(buf, &stages);
}

/// Reusable FFT working memory: the transform buffer plus the cached twiddle
/// tables (master + flattened per-stage segments). The period-detection hot
/// loop runs one periodogram and one autocorrelation per `(device, group)`
/// signal; holding a scratch per worker thread removes every per-call heap
/// allocation *and* every per-call `cos`/`sin` from that path. A scratch
/// grows to the largest transform it has seen and never shrinks; because the
/// per-stage twiddle segments depend only on the stage span, a table grown
/// for a larger transform serves smaller ones bit-identically.
#[derive(Debug, Default)]
pub struct FftScratch {
    buf: Vec<Complex>,
    master: Vec<Complex>,
    stages: Vec<Complex>,
    tw_n: usize,
}

impl FftScratch {
    /// An empty scratch; buffers are grown lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the twiddle tables to cover transforms of size `n` (a power of
    /// two). No-op once warmed up.
    fn ensure_twiddles(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two());
        if n > self.tw_n {
            fill_master(&mut self.master, n);
            fill_stages(&mut self.stages, &self.master, n);
            self.tw_n = n;
        }
    }

    /// Borrow the complex buffer resized to `n` slots, zero-initialized,
    /// with twiddle tables ready for a size-`n` transform.
    pub(crate) fn zeroed(&mut self, n: usize) -> &mut [Complex] {
        self.ensure_twiddles(next_pow2(n));
        self.buf.clear();
        self.buf.resize(n, Complex::default());
        &mut self.buf
    }

    /// The current transform buffer.
    pub(crate) fn buf_mut(&mut self) -> &mut [Complex] {
        &mut self.buf
    }

    /// Run the real-input FFT over the scratch buffer (must have been set up
    /// via [`FftScratch::zeroed`] with purely real contents).
    pub(crate) fn run_rfft(&mut self) {
        debug_assert!(self.buf.len() <= 1 || self.tw_n >= self.buf.len());
        if self.buf.len() <= 1 {
            return;
        }
        bit_reverse(&mut self.buf);
        rfft_stages(&mut self.buf, &self.stages);
    }
}

/// Periodogram of a real signal: power spectral density estimate at the
/// `N/2 + 1` non-negative frequencies, where `N` is the padded length.
///
/// The signal is mean-removed (so the DC bin reflects only residual padding
/// effects) and zero-padded to the next power of two. Powers are
/// `|X_k|² / N`, appended to `out` after clearing it; `scratch` provides the
/// transform buffer so repeated calls allocate nothing once warmed up. The
/// transform runs through [`rfft`] (half the work of a complex FFT), and the
/// magnitude + normalization pass is fused into the single output sweep.
pub fn periodogram_into(signal: &[f64], scratch: &mut FftScratch, out: &mut Vec<f64>) {
    out.clear();
    if signal.is_empty() {
        return;
    }
    let m = crate::stats::mean(signal);
    let n = next_pow2(signal.len());
    let buf = scratch.zeroed(n);
    for (i, &x) in signal.iter().enumerate() {
        buf[i] = Complex::real(x - m);
    }
    scratch.run_rfft();
    // N is a power of two: multiplying by the exact reciprocal is bitwise
    // identical to dividing by N, without a divider in the loop.
    let inv_n = 1.0 / n as f64;
    out.extend(
        scratch.buf_mut()[..n / 2 + 1]
            .iter()
            .map(|c| c.norm_sq() * inv_n),
    );
}

/// Allocating convenience wrapper around [`periodogram_into`].
pub fn periodogram(signal: &[f64]) -> Vec<f64> {
    let mut scratch = FftScratch::new();
    let mut out = Vec::new();
    periodogram_into(signal, &mut scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    /// Naive O(N²) DFT for cross-checking.
    fn dft_naive(xs: &[Complex]) -> Vec<Complex> {
        let n = xs.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (j, x) in xs.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc = acc.add(x.mul(Complex::new(ang.cos(), ang.sin())));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let xs: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut fast = xs.clone();
        fft(&mut fast);
        let slow = dft_naive(&xs);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!(close(a.re, b.re, 1e-9) && close(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn fft_len_one_identity() {
        let mut buf = vec![Complex::new(2.5, -1.0)];
        fft(&mut buf);
        assert_eq!(buf[0], Complex::new(2.5, -1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex::default(); 6];
        fft(&mut buf);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rfft_rejects_non_pow2() {
        let mut buf = vec![Complex::default(); 12];
        rfft(&mut buf);
    }

    #[test]
    fn twiddle_table_is_exactly_symmetric() {
        for n in [2usize, 4, 8, 64, 1024] {
            let mut master = Vec::new();
            fill_master(&mut master, n);
            assert_eq!(master.len(), n / 2 + 1);
            for j in 0..=n / 2 {
                // tw[n/2 - j] == -conj(tw[j]): identical imaginary bits,
                // negated real part (value-compared so the self-paired axis
                // point, where re is ±0, passes).
                let a = master[n / 2 - j];
                let b = master[j];
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} j={j}");
                assert_eq!(a.re, -b.re, "n={n} j={j}");
            }
            // Unit magnitude to a few ulps.
            for (j, w) in master.iter().enumerate() {
                assert!(close(w.norm_sq(), 1.0, 1e-12), "n={n} j={j}");
            }
        }
    }

    #[test]
    fn rfft_equals_fft_on_structured_real_inputs() {
        // Structured signals (zero padding, impulse trains, constants)
        // exercise exact-zero intermediates where only the numeric value —
        // not the sign of zero — is pinned; compare with `==` (which treats
        // ±0 as equal) rather than on bits. The bit-level pin for generic
        // inputs lives in tests/rfft_proptests.rs.
        let mut cases: Vec<Vec<f64>> = vec![
            vec![0.0; 64],
            vec![3.0; 128],
            (0..256)
                .map(|i| if i % 25 == 0 { 1.0 } else { 0.0 })
                .collect(),
            (0..32)
                .map(|i| i as f64)
                .chain((0..96).map(|_| 0.0))
                .collect(),
        ];
        // A couple of dense generic signals too.
        cases.push((0..512).map(|i| ((i * 37) % 101) as f64 - 50.0).collect());
        for (ci, sig) in cases.iter().enumerate() {
            let mut a: Vec<Complex> = sig.iter().map(|&x| Complex::real(x)).collect();
            let mut b = a.clone();
            fft(&mut a);
            rfft(&mut b);
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    x.re == y.re && x.im == y.im,
                    "case {ci} bin {k}: fft {x:?} rfft {y:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_rfft_matches_standalone_after_growth() {
        // A scratch warmed on a large transform must produce bit-identical
        // results for smaller ones (per-stage twiddles are size-invariant).
        let sig: Vec<f64> = (0..128).map(|i| ((i * 13) % 29) as f64 - 14.0).collect();
        let mut big = FftScratch::new();
        let mut small_out = Vec::new();
        let mut big_out = Vec::new();
        // Warm on 4096, then transform 128.
        periodogram_into(&vec![1.0; 4000], &mut big, &mut big_out);
        periodogram_into(&sig, &mut big, &mut big_out);
        periodogram_into(&sig, &mut FftScratch::new(), &mut small_out);
        assert_eq!(big_out.len(), small_out.len());
        for (a, b) in big_out.iter().zip(&small_out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn periodogram_peak_at_signal_frequency() {
        // Pure sinusoid with 8 cycles across 256 samples -> peak at bin 8.
        let n = 256;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 8.0 * i as f64 / n as f64).sin())
            .collect();
        let p = periodogram(&signal);
        let peak = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 8);
    }

    #[test]
    fn periodogram_of_constant_is_flat_zero() {
        let p = periodogram(&[5.0; 128]);
        assert!(p.iter().all(|&x| x < 1e-18));
    }

    #[test]
    fn periodogram_empty() {
        assert!(periodogram(&[]).is_empty());
    }

    #[test]
    fn parseval_energy_conservation() {
        let xs: Vec<f64> = (0..128).map(|i| ((i * i) % 13) as f64 - 6.0).collect();
        let m = crate::stats::mean(&xs);
        let centered: Vec<f64> = xs.iter().map(|x| x - m).collect();
        let time_energy: f64 = centered.iter().map(|x| x * x).sum();
        let mut buf: Vec<Complex> = centered.iter().map(|&x| Complex::real(x)).collect();
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sq()).sum::<f64>() / buf.len() as f64;
        assert!(close(time_energy, freq_energy, 1e-6));
    }
}
