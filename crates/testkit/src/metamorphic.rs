//! Metamorphic helpers: known input transformations with provable effects
//! on pipeline output (phase shifts under rotation, invariance under
//! scaling and permutation).

use std::f64::consts::{PI, TAU};

/// Rotates a series left by `k`: output sample `i` is input sample
/// `(i + k) mod n` — the series "starts `k` samples later".
pub fn rotate_left(series: &[f64], k: usize) -> Vec<f64> {
    if series.is_empty() {
        return Vec::new();
    }
    let k = k % series.len();
    let mut out = Vec::with_capacity(series.len());
    out.extend_from_slice(&series[k..]);
    out.extend_from_slice(&series[..k]);
    out
}

/// Wraps an angle into `(-π, π]`.
pub fn wrap_phase(mut d: f64) -> f64 {
    while d > PI {
        d -= TAU;
    }
    while d <= -PI {
        d += TAU;
    }
    d
}

/// The exact DFT phase shift of bin `bin` when an `n`-sample series is
/// rotated left by `k`: `x'(t) = x(t + k)` multiplies coefficient `X_b`
/// by `e^{+i·2π·b·k/n}`, advancing its angle by `2π·b·k/n`.
pub fn expected_phase_advance(n: usize, bin: usize, k: usize) -> f64 {
    wrap_phase(TAU * (bin as f64) * (k as f64) / n as f64)
}

/// Asserts two phases agree modulo 2π within `tol` radians.
pub fn assert_phase_eq(a: f64, b: f64, tol: f64, context: &str) {
    let d = wrap_phase(a - b);
    assert!(d.abs() <= tol, "{context}: phases {a:.4} and {b:.4} differ by {d:.4} rad");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_round_trips() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(rotate_left(&rotate_left(&s, 2), 3), s);
        assert_eq!(rotate_left(&s, 0), s);
        assert_eq!(rotate_left(&s, 5), s);
        assert_eq!(rotate_left(&s, 2), vec![3.0, 4.0, 5.0, 1.0, 2.0]);
    }

    #[test]
    fn wrapping_stays_in_range() {
        for d in [-10.0, -PI, 0.0, 3.0, PI, 9.0] {
            let w = wrap_phase(d);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12, "{d} → {w}");
            // Wrapping preserves the angle modulo 2π.
            assert!(((w - d) / TAU - ((w - d) / TAU).round()).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_advance_on_dft_of_cosine() {
        // x(t) = cos(2π·b·t/n) has phase 0 at bin b; rotating left by k
        // must advance the measured phase by exactly 2π·b·k/n.
        let (n, b, k) = (240usize, 10usize, 7usize);
        let x: Vec<f64> = (0..n).map(|t| (TAU * b as f64 * t as f64 / n as f64).cos()).collect();
        let phase_at = |s: &[f64]| {
            let c = crate::baseline::fft_real(s)[b];
            c.im.atan2(c.re)
        };
        let advanced = phase_at(&rotate_left(&x, k));
        assert_phase_eq(advanced, phase_at(&x) + expected_phase_advance(n, b, k), 1e-9, "cosine");
    }
}
