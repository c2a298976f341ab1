//! Goertzel's algorithm: evaluating a single DFT bin in O(n).
//!
//! World-scale screening only ever needs a handful of bins — the daily
//! fundamental `k = N_d`, its neighbour `N_d + 1`, and the harmonics —
//! while a full FFT computes all `n`. Goertzel evaluates one coefficient
//! with one pass and two state variables, which makes a cheap
//! "is this block worth a full spectrum?" pre-filter possible.
//!
//! The result matches [`crate::fft::fft`]'s unnormalized convention:
//! `α_k = Σ a_m e^{−2πi·m·k/n}`.

use crate::complex::Complex;
use std::f64::consts::PI;

/// Evaluates the single DFT coefficient `α_k` of `series`.
///
/// # Panics
/// Panics if the series is empty or `k >= n`.
pub fn goertzel(series: &[f64], k: usize) -> Complex {
    let n = series.len();
    assert!(n > 0, "empty series");
    assert!(k < n, "bin {k} out of range for n = {n}");
    let mut state = Goertzel::new(k, n);
    for &x in series {
        state.step(x);
    }
    state.finish()
}

/// The running state of one bin's Goertzel recurrence, so several bins
/// (and other accumulators) can share one pass over a series.
struct Goertzel {
    w: f64,
    coeff: f64,
    s_prev: f64,
    s_prev2: f64,
}

impl Goertzel {
    /// Bin `k` of an `n`-sample series, before its first sample.
    fn new(k: usize, n: usize) -> Goertzel {
        let w = 2.0 * PI * k as f64 / n as f64;
        Goertzel { w, coeff: 2.0 * w.cos(), s_prev: 0.0, s_prev2: 0.0 }
    }

    #[inline]
    fn step(&mut self, x: f64) {
        let s = x + self.coeff * self.s_prev - self.s_prev2;
        self.s_prev2 = self.s_prev;
        self.s_prev = s;
    }

    fn finish(&self) -> Complex {
        // α_k = e^{iω}·s_prev − s_prev2 lands exactly on the e^{−2πi·mk/n}
        // convention (ω·n = 2πk makes the trailing rotation vanish).
        let (sin_w, cos_w) = (self.w.sin(), self.w.cos());
        Complex::new(cos_w * self.s_prev - self.s_prev2, sin_w * self.s_prev)
    }
}

/// Quick diurnal-energy screen: the ratio of the daily-bin amplitude
/// (max over `k = N_d, N_d + 1`) to the series' RMS deviation. Blocks with
/// a ratio below a threshold cannot be strictly diurnal, letting a caller
/// skip the full spectrum. Returns 0 for series too short to carry a daily
/// bin.
///
/// Two passes: the sum and both bins' recurrences share the first, the
/// deviation (which needs the mean) takes the second. Each accumulator
/// keeps the operation sequence it would have alone, so the ratio is
/// bit-for-bit the four-pass formula's.
pub fn diurnal_energy_ratio(series: &[f64], sample_period: f64) -> f64 {
    let n = series.len();
    if n < 4 {
        return 0.0;
    }
    let nd = ((n as f64 * sample_period) / 86_400.0).round().max(1.0) as usize;
    if nd + 1 >= n / 2 {
        return 0.0;
    }
    let (mut at_nd, mut at_next) = (Goertzel::new(nd, n), Goertzel::new(nd + 1, n));
    let mut sum = 0.0;
    for &x in series {
        sum += x;
        at_nd.step(x);
        at_next.step(x);
    }
    let mean = sum / n as f64;
    let dev: f64 = series.iter().map(|&x| (x - mean) * (x - mean)).sum();
    // ≈ Σ_k≠0 |α_k|² scale, Parseval. Constant series accumulate only
    // rounding dust; treat it as zero AC energy rather than dividing by it.
    let total_ac = dev.sqrt() * (n as f64).sqrt();
    if total_ac <= 1e-9 * n as f64 * (mean.abs() + 1.0) {
        return 0.0;
    }
    let daily = at_nd.finish().abs().max(at_next.finish().abs());
    daily / total_ac * (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_real;

    fn tone(n: usize, cycles: f64, amp: f64, offset: f64, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| offset + amp * (2.0 * PI * cycles * i as f64 / n as f64 + phase).cos())
            .collect()
    }

    #[test]
    fn matches_fft_on_pure_tone() {
        let n = 1_833;
        let series = tone(n, 14.0, 0.3, 0.5, 0.7);
        let full = fft_real(&series);
        for k in [0usize, 1, 13, 14, 15, 28, 100] {
            let g = goertzel(&series, k);
            assert!((g - full[k]).abs() < 1e-6 * n as f64, "bin {k}: {g:?} vs {:?}", full[k]);
        }
    }

    #[test]
    fn matches_fft_on_noise() {
        let n = 500;
        let series: Vec<f64> =
            (0..n).map(|i| ((i as f64 * 12.9898).sin() * 43_758.545_3).fract()).collect();
        let full = fft_real(&series);
        for (k, &expected) in full.iter().enumerate().take(n / 2) {
            let g = goertzel(&series, k);
            assert!((g - expected).abs() < 1e-7 * n as f64, "bin {k}");
        }
    }

    /// Amplitude `|α_k|` via Goertzel: the four-pass screen's bin measure.
    fn goertzel_amplitude(series: &[f64], k: usize) -> f64 {
        goertzel(series, k).abs()
    }

    #[test]
    fn amplitude_of_known_tone() {
        let n = 1_024;
        let series = tone(n, 16.0, 0.4, 0.0, 0.0);
        assert!((goertzel_amplitude(&series, 16) - n as f64 * 0.2).abs() < 1e-6);
    }

    #[test]
    fn dc_bin_is_the_sum() {
        let series = vec![0.25; 200];
        let g = goertzel(&series, 0);
        assert!((g.re - 50.0).abs() < 1e-9);
        assert!(g.im.abs() < 1e-9);
    }

    #[test]
    fn energy_ratio_separates_diurnal_from_flat() {
        let n = 1_833; // 14 days at 660 s
        let diurnal = tone(n, 14.0, 0.3, 0.5, 0.0);
        let noisy_flat: Vec<f64> = (0..n)
            .map(|i| 0.5 + 0.1 * (((i as f64 * 78.233).sin() * 43_758.545_3).fract() - 0.5))
            .collect();
        let rd = diurnal_energy_ratio(&diurnal, 660.0);
        let rf = diurnal_energy_ratio(&noisy_flat, 660.0);
        assert!(rd > 5.0 * rf, "diurnal {rd} vs flat {rf}");
    }

    #[test]
    fn energy_ratio_degenerate_inputs() {
        assert_eq!(diurnal_energy_ratio(&[], 660.0), 0.0);
        assert_eq!(diurnal_energy_ratio(&[1.0, 1.0], 660.0), 0.0);
        assert_eq!(diurnal_energy_ratio(&vec![0.7; 2_000], 660.0), 0.0);
    }

    /// The four-pass screen the two-pass one replaced: mean, deviation,
    /// then each bin's own recurrence.
    fn four_pass_ratio(series: &[f64], sample_period: f64) -> f64 {
        let n = series.len();
        if n < 4 {
            return 0.0;
        }
        let nd = ((n as f64 * sample_period) / 86_400.0).round().max(1.0) as usize;
        if nd + 1 >= n / 2 {
            return 0.0;
        }
        let mean = series.iter().sum::<f64>() / n as f64;
        let dev: f64 = series.iter().map(|&x| (x - mean) * (x - mean)).sum();
        let total_ac = dev.sqrt() * (n as f64).sqrt();
        if total_ac <= 1e-9 * n as f64 * (mean.abs() + 1.0) {
            return 0.0;
        }
        let daily = goertzel_amplitude(series, nd).max(goertzel_amplitude(series, nd + 1));
        daily / total_ac * (n as f64).sqrt()
    }

    #[test]
    fn two_pass_screen_is_bit_identical_to_four_passes() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut series_set: Vec<Vec<f64>> = Vec::new();
        for n in [0usize, 1, 2, 3, 4, 5, 7, 131, 524, 654, 1_702, 1_833] {
            series_set.push((0..n).map(|_| uniform()).collect());
            series_set.push((0..n).map(|_| 1e6 * (uniform() - 0.5)).collect());
            series_set.push(tone(n, (n as f64 / 131.0).round(), 0.3, 0.5, uniform()));
            series_set.push(vec![0.7; n]);
            series_set.push(vec![0.0; n]);
            series_set.push(vec![-0.0; n]);
        }
        for series in &series_set {
            for period in [660.0, 300.0, 86_400.0, 1.0] {
                let (got, want) =
                    (diurnal_energy_ratio(series, period), four_pass_ratio(series, period));
                assert_eq!(got.to_bits(), want.to_bits(), "n = {}, period {period}", series.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bin() {
        let _ = goertzel(&[1.0, 2.0, 3.0], 3);
    }
}
