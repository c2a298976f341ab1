//! Discrete Fourier transforms.
//!
//! The paper (§2.2) computes, for a timeseries `a_m` of `n` samples,
//!
//! ```text
//! α_k = Σ_{m=0}^{n-1} a_m · e^{-2πi·m·k/n}
//! ```
//!
//! Availability timeseries have awkward lengths — 11-minute rounds give
//! 1833 samples for a two-week survey and 4582 for a 35-day adaptive run
//! (the prime 4451 once trimmed to whole days) — so a radix-2 transform
//! alone is not enough. This module provides:
//!
//! * [`fft`] / [`ifft`]: arbitrary-length transforms. Powers of two run the
//!   iterative radix-2 Cooley–Tukey kernel directly; other lengths go through
//!   Bluestein's chirp-z algorithm (power-of-two FFTs under the hood).
//! * [`fft_real`]: real-valued input, taking the packed half-length path for
//!   even lengths and, for odd ones, a Bluestein convolution that delivers
//!   bins `0..=n/2` only (the rest is their mirror).
//! * [`dft_naive`]: the O(n²) definition, kept as an oracle for tests.
//!
//! All three transparently use the global plan cache
//! ([`crate::plan::plan_for`]): the first transform of a given length plans
//! it (bit-reversal permutation, direct-`cis` twiddle tables, pre-FFT'd
//! Bluestein filter), and every later call — from any thread — reuses those
//! tables. Steady-state, allocation-free transforms are available on
//! [`FftPlan`][crate::plan::FftPlan] directly. The unplanned seed kernels
//! survive in `sleepwatch-testkit` as the differential tests' reference.

use crate::complex::Complex;
use crate::plan::plan_for;
use std::f64::consts::PI;

/// Returns `true` when `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// Forward DFT of arbitrary length (unnormalized, matching the paper's
/// definition of `α_k`), via the shared plan for `input.len()`.
///
/// Returns an empty vector for empty input.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    if input.is_empty() {
        return Vec::new();
    }
    plan_for(input.len()).fft(input)
}

/// Inverse DFT of arbitrary length, normalized by `1/n`, so that
/// `ifft(&fft(x)) == x` up to rounding. Plan-cached like [`fft`].
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    if input.is_empty() {
        return Vec::new();
    }
    plan_for(input.len()).ifft(input)
}

/// Forward DFT of a real-valued series. Even lengths run through the packed
/// `n/2`-point transform (about half the work); all lengths reuse cached
/// plans.
pub fn fft_real(input: &[f64]) -> Vec<Complex> {
    if input.is_empty() {
        return Vec::new();
    }
    plan_for(input.len()).fft_real(input)
}

/// The O(n²) DFT straight from the definition. Used as the correctness
/// oracle in tests and for tiny inputs where setup cost dominates.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (m, &x) in input.iter().enumerate() {
            let ang = -2.0 * PI * (m as f64) * (k as f64) / n as f64;
            acc += x * Complex::cis(ang);
        }
        *slot = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn assert_spectra_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(approx(x, y, tol), "bin {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        assert!(fft_real(&[]).is_empty());
    }

    #[test]
    fn single_sample_is_identity() {
        let x = [Complex::new(3.0, -1.0)];
        assert_eq!(fft(&x), x.to_vec());
        let inv = ifft(&x);
        assert!(approx(inv[0], x[0], 1e-12));
    }

    #[test]
    fn dc_component_is_sum() {
        let x: Vec<Complex> = (0..8).map(|i| Complex::from_re(i as f64)).collect();
        let spec = fft(&x);
        assert!(approx(spec[0], Complex::from_re(28.0), 1e-9));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        for z in fft(&x) {
            assert!(approx(z, Complex::ONE, 1e-10));
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|m| Complex::from_re((2.0 * PI * k0 as f64 * m as f64 / n as f64).cos()))
            .collect();
        let spec = fft(&x);
        // Real cosine splits evenly between bins k0 and n-k0, amplitude n/2.
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-8);
        assert!((spec[n - k0].abs() - n as f64 / 2.0).abs() < 1e-8);
        for (k, z) in spec.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(z.abs() < 1e-7, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        let x: Vec<Complex> =
            (0..32).map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos())).collect();
        assert_spectra_close(&fft(&x), &dft_naive(&x), 1e-8);
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        for n in [2usize, 3, 5, 7, 12, 30, 33, 100, 131, 257] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64).sqrt().fract()))
                .collect();
            assert_spectra_close(&fft(&x), &dft_naive(&x), 1e-7 * n as f64);
        }
    }

    /// Planned Bluestein twiddle precision at the paper's survey lengths:
    /// table-driven twiddles must stay within 1e-9 *relative* error of the
    /// O(n²) definition. The seed's recurrence-generated twiddles drifted
    /// harder than this at these lengths.
    #[test]
    fn survey_lengths_match_naive_to_1e9_relative() {
        for n in [1833usize, 4582] {
            let x: Vec<Complex> = (0..n)
                .map(|i| {
                    Complex::new(
                        (2.0 * PI * 14.0 * i as f64 / n as f64).sin() + 0.5,
                        (i as f64 * 0.017).cos() * 0.25,
                    )
                })
                .collect();
            let fast = fft(&x);
            let slow = dft_naive(&x);
            // Relative to the spectrum's energy scale: ‖x‖₁ bounds |α_k|.
            let scale: f64 = x.iter().map(|z| z.abs()).sum();
            let worst = fast.iter().zip(&slow).map(|(a, b)| (*a - *b).abs()).fold(0.0f64, f64::max);
            assert!(
                worst <= 1e-9 * scale,
                "n = {n}: worst abs error {worst:.3e} exceeds 1e-9 × {scale:.3e}"
            );
        }
    }

    #[test]
    fn real_survey_lengths_match_naive_to_1e9_relative() {
        for n in [1833usize, 4582] {
            let xs: Vec<f64> =
                (0..n).map(|i| (2.0 * PI * 14.0 * i as f64 / n as f64).sin() + 0.5).collect();
            let fast = fft_real(&xs);
            let slow = dft_naive(&xs.iter().map(|&x| Complex::from_re(x)).collect::<Vec<_>>());
            let scale: f64 = xs.iter().map(|x| x.abs()).sum();
            let worst = fast.iter().zip(&slow).map(|(a, b)| (*a - *b).abs()).fold(0.0f64, f64::max);
            assert!(
                worst <= 1e-9 * scale,
                "n = {n}: worst abs error {worst:.3e} exceeds 1e-9 × {scale:.3e}"
            );
        }
    }

    #[test]
    fn roundtrip_power_of_two() {
        let x: Vec<Complex> =
            (0..128).map(|i| Complex::new((i % 7) as f64, -((i % 5) as f64))).collect();
        let back = ifft(&fft(&x));
        assert_spectra_close(&x, &back, 1e-9);
    }

    #[test]
    fn roundtrip_arbitrary_length() {
        for n in [3usize, 10, 97, 131, 1833] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.11).cos(), (i as f64 * 0.07).sin()))
                .collect();
            let back = ifft(&fft(&x));
            assert_spectra_close(&x, &back, 1e-8);
        }
    }

    #[test]
    fn linearity() {
        let n = 48;
        let a: Vec<Complex> = (0..n).map(|i| Complex::from_re((i as f64).sin())).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::from_re((i as f64 * 0.5).cos())).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(2.0)).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..n {
            assert!(approx(fsum[k], fa[k] + fb[k].scale(2.0), 1e-8));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 250; // non-power-of-two: exercises Bluestein
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::from_re(((i * i) % 17) as f64 / 17.0)).collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn real_input_has_conjugate_symmetry() {
        // 60 exercises the packed even path, 61 the odd fallback.
        for n in [60usize, 61] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin() + 0.3).collect();
            let spec = fft_real(&x);
            for k in 1..n {
                assert!(approx(spec[k], spec[n - k].conj(), 1e-8));
            }
        }
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(12));
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(8), 8);
    }
}
