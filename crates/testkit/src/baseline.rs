//! The unplanned reference FFT kernels (the pre-plan implementation).
//!
//! These are the seed's transforms, kept verbatim as the reference oracle
//! the planned path in [`sleepwatch_spectral::FftPlan`] is property-tested
//! against. Every call pays full setup: [`fft_bluestein`] rebuilds its chirp
//! table and re-FFTs the convolution filter, and [`fft_radix2_in_place`]
//! regenerates twiddles with the error-accumulating `w *= wlen` recurrence.
//! Production code calls [`sleepwatch_spectral::fft::fft`] and friends,
//! which plan and cache.

use sleepwatch_spectral::fft::{is_power_of_two, next_power_of_two};
use sleepwatch_spectral::Complex;
use std::f64::consts::PI;

/// In-place iterative radix-2 Cooley–Tukey FFT with recurrence-generated
/// twiddles (`w *= wlen`), exactly as the seed shipped it.
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
pub fn fft_radix2_in_place(buf: &mut [Complex], invert: bool) {
    let n = buf.len();
    assert!(is_power_of_two(n), "radix-2 FFT requires power-of-two length, got {n}");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
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

    // Butterfly passes.
    let sign = if invert { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::cis(ang);
        let half = len / 2;
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..half {
                let u = buf[i + k];
                let v = buf[i + k + half] * w;
                buf[i + k] = u + v;
                buf[i + k + half] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Bluestein's algorithm with per-call chirp and filter setup (three
/// power-of-two FFTs every invocation).
pub fn fft_bluestein(input: &[Complex], invert: bool) -> Vec<Complex> {
    let n = input.len();
    let m = next_power_of_two(2 * n - 1);
    let sign = if invert { 1.0 } else { -1.0 };

    // Chirp w_j = e^{sign·πi·j²/n}, computed with j² reduced mod 2n to keep
    // the angle argument small (j² overflows and loses precision for large j).
    let chirp: Vec<Complex> = (0..n)
        .map(|j| {
            let jsq = (j as u64 * j as u64) % (2 * n as u64);
            Complex::cis(sign * PI * jsq as f64 / n as f64)
        })
        .collect();

    // With chirp c_j = e^{sign·πi·j²/n}:
    //   α_k = c_k · Σ_m (a_m · c_m) · conj(c_{k−m})
    let mut a = vec![Complex::ZERO; m];
    for (j, &x) in input.iter().enumerate() {
        a[j] = x * chirp[j];
    }

    let mut b = vec![Complex::ZERO; m];
    b[0] = chirp[0].conj();
    for j in 1..n {
        b[j] = chirp[j].conj();
        b[m - j] = chirp[j].conj();
    }

    fft_radix2_in_place(&mut a, false);
    fft_radix2_in_place(&mut b, false);
    for j in 0..m {
        a[j] *= b[j];
    }
    fft_radix2_in_place(&mut a, true);
    let scale = 1.0 / m as f64;

    (0..n).map(|k| a[k].scale(scale) * chirp[k]).collect()
}

/// Unplanned forward DFT of arbitrary length (unnormalized).
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    match input.len() {
        0 => Vec::new(),
        n if is_power_of_two(n) => {
            let mut buf = input.to_vec();
            fft_radix2_in_place(&mut buf, false);
            buf
        }
        _ => fft_bluestein(input, false),
    }
}

/// Unplanned inverse DFT of arbitrary length, normalized by `1/n`.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = if is_power_of_two(n) {
        let mut buf = input.to_vec();
        fft_radix2_in_place(&mut buf, true);
        buf
    } else {
        fft_bluestein(input, true)
    };
    let scale = 1.0 / n as f64;
    for z in &mut out {
        *z = z.scale(scale);
    }
    out
}

/// Unplanned forward DFT of a real-valued series (widens to complex; no
/// packing).
pub fn fft_real(input: &[f64]) -> Vec<Complex> {
    let buf: Vec<Complex> = input.iter().map(|&x| Complex::from_re(x)).collect();
    fft(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_agrees_with_planned_path() {
        for n in [2usize, 3, 16, 100, 131, 257, 1024] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64).sqrt().fract()))
                .collect();
            let a = fft(&x);
            let b = sleepwatch_spectral::fft(&x);
            for (i, (&p, &q)) in a.iter().zip(&b).enumerate() {
                assert!((p - q).abs() < 1e-7 * n as f64, "bin {i}: {p:?} vs {q:?}");
            }
        }
    }
}
