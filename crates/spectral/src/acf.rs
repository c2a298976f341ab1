//! Autocorrelation-based periodicity detection — a time-domain second
//! opinion on the FFT classifier.
//!
//! A diurnal series correlates strongly with itself shifted by one day.
//! The ACF detector computes the normalized autocorrelation at the one-day
//! lag and compares it against the strongest correlation at non-daily,
//! non-harmonic lags — structurally the same dominance idea as §2.2's
//! strict rule, but in the time domain, where it is naturally robust to
//! day-to-day amplitude variation. Used as a cross-check and in the
//! `ablate-acf` comparison.
//!
//! Two evaluation paths are provided: [`autocorrelation`] computes one lag
//! directly in `O(n)`, while [`autocorrelation_all`] computes *every* lag at
//! once via Wiener–Khinchin — `|FFT(x − μ)|²` inverse-transformed, zero-padded
//! to kill circular wrap-around — in `O(n log n)` through the shared
//! [plan cache](crate::plan::plan_for). The detector scans many competitor
//! lags, so it uses the FFT path.

use crate::complex::Complex;
use crate::plan::plan_for;

/// Normalized autocorrelation of `series` at integer `lag` samples
/// (`r ∈ [−1, 1]`; 0 for degenerate inputs or lags beyond the series).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    let n = series.len();
    if lag == 0 {
        return 1.0;
    }
    if lag >= n || n < 3 {
        return 0.0;
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|&x| (x - mean) * (x - mean)).sum();
    if var <= 1e-18 * n as f64 * (mean * mean + 1.0) {
        return 0.0;
    }
    let mut cov = 0.0;
    for i in 0..n - lag {
        cov += (series[i] - mean) * (series[i + lag] - mean);
    }
    cov / var
}

/// Normalized autocorrelation at every lag `0..n`, matching
/// [`autocorrelation`] lag-by-lag but in one `O(n log n)` pass.
///
/// Wiener–Khinchin: the linear (not circular) autocovariance of the
/// mean-centered series is the inverse DFT of its power spectrum once the
/// series is zero-padded to at least `2n` samples — padding to the next
/// power of two keeps both transforms on the cheap radix-2 path and reuses
/// plans from the global cache. Degenerate inputs (constant series, fewer
/// than 3 samples) return all-zero tails like the direct path.
pub(crate) fn autocorrelation_all(series: &[f64]) -> Vec<f64> {
    let n = series.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = vec![0.0; n];
    out[0] = 1.0;
    if n < 3 {
        return out;
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|&x| (x - mean) * (x - mean)).sum();
    if var <= 1e-18 * n as f64 * (mean * mean + 1.0) {
        return out;
    }

    // Pad to ≥ 2n so the circular convolution of the padded series equals
    // the linear autocovariance for all lags 0..n.
    let m = (2 * n).next_power_of_two();
    let plan = plan_for(m);
    let mut buf: Vec<Complex> = Vec::with_capacity(m);
    buf.extend(series.iter().map(|&x| Complex::from_re(x - mean)));
    buf.resize(m, Complex::ZERO);
    let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    plan.process_with_scratch(&mut buf, &mut scratch);
    for z in &mut buf {
        *z = Complex::from_re(z.norm_sqr());
    }
    plan.inverse_with_scratch(&mut buf, &mut scratch);
    for (r, z) in out.iter_mut().zip(&buf) {
        *r = z.re / var;
    }
    out[0] = 1.0;
    out
}

/// Result of the ACF daily-periodicity test.
#[derive(Debug, Clone, Copy)]
pub struct AcfReport {
    /// Autocorrelation at the one-day lag.
    pub r_day: f64,
    /// Strongest autocorrelation at a competitor lag (non-daily,
    /// non-harmonic, beyond the smoothing-induced short-lag bulge).
    pub r_competitor: f64,
    /// Competitor's lag in samples.
    pub competitor_lag: usize,
    /// The verdict: daily correlation dominant and strong.
    pub diurnal: bool,
}

/// Required dominance of the daily lag over the best competitor.
const DOMINANCE: f64 = 1.5;

/// Sampling period, seconds: one 11-minute round.
const SAMPLE_PERIOD: f64 = crate::ROUND_SECONDS;

/// Minimum `r` at the daily lag.
const MIN_R_DAY: f64 = 0.3;

/// Runs the ACF daily test.
///
/// All scanned lags come from one `autocorrelation_all` pass (FFT-based,
/// plan-cached) rather than a direct `O(n)` evaluation per lag.
pub fn acf_diurnal(series: &[f64]) -> AcfReport {
    let lag_day = (86_400.0 / SAMPLE_PERIOD).round() as usize;
    let all = autocorrelation_all(series);
    let at = |lag: usize| all.get(lag).copied().unwrap_or(0.0);
    let r_day = at(lag_day);

    // Competitors: lags from a quarter day up to just under a day, plus
    // the day-and-a-half lag — away from 1d and 2d harmonics and from the
    // EWMA smoothing bulge at short lags.
    let mut r_competitor = 0.0;
    let mut competitor_lag = 0;
    let candidates = (lag_day / 4..=(lag_day * 7) / 8)
        .step_by((lag_day / 16).max(1))
        .chain(std::iter::once((lag_day * 3) / 2));
    for lag in candidates {
        let r = at(lag);
        if r > r_competitor {
            r_competitor = r;
            competitor_lag = lag;
        }
    }
    let diurnal = r_day >= MIN_R_DAY && r_day >= DOMINANCE * r_competitor.max(0.0);
    AcfReport { r_day, r_competitor, competitor_lag, diurnal }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RPD: f64 = 86_400.0 / 660.0;

    fn daily(days: usize, duty: f64, noise: f64) -> Vec<f64> {
        let n = (days as f64 * RPD) as usize;
        (0..n)
            .map(|i| {
                let frac = (i as f64 / RPD).fract();
                let base = if frac < duty { 0.8 } else { 0.2 };
                base + noise * (((i as f64 * 12.9898).sin() * 43_758.545_3).fract() - 0.5)
            })
            .collect()
    }

    #[test]
    fn acf_lag_zero_is_one() {
        assert_eq!(autocorrelation(&[1.0, 2.0, 3.0], 0), 1.0);
    }

    #[test]
    fn fft_acf_matches_direct_at_every_lag() {
        let xs = daily(7, 0.4, 0.15);
        let all = autocorrelation_all(&xs);
        assert_eq!(all.len(), xs.len());
        for lag in (0..xs.len()).step_by(37) {
            let direct = autocorrelation(&xs, lag);
            assert!(
                (all[lag] - direct).abs() < 1e-9,
                "lag {lag}: fft {} vs direct {direct}",
                all[lag]
            );
        }
    }

    #[test]
    fn fft_acf_degenerate_inputs() {
        assert!(autocorrelation_all(&[]).is_empty());
        assert_eq!(autocorrelation_all(&[2.0]), vec![1.0]);
        let flat = autocorrelation_all(&[0.7; 50]);
        assert_eq!(flat[0], 1.0);
        assert!(flat[1..].iter().all(|&r| r == 0.0));
    }

    #[test]
    fn acf_bounds_and_degenerates() {
        let xs = daily(7, 0.4, 0.1);
        for lag in [1usize, 10, 131, 500] {
            let r = autocorrelation(&xs, lag);
            assert!((-1.0..=1.0).contains(&r), "lag {lag}: {r}");
        }
        assert_eq!(autocorrelation(&xs, 10_000), 0.0);
        assert_eq!(autocorrelation(&[0.5; 100], 10), 0.0);
        assert_eq!(autocorrelation(&[1.0], 1), 0.0);
    }

    #[test]
    fn daily_series_has_high_daylag_correlation() {
        let xs = daily(14, 0.4, 0.05);
        let r = autocorrelation(&xs, 131);
        assert!(r > 0.8, "r(1d) = {r}");
        // Half-day lag anticorrelates for a 40% duty square wave.
        let r_half = autocorrelation(&xs, 65);
        assert!(r_half < 0.2, "r(12h) = {r_half}");
    }

    #[test]
    fn detector_accepts_diurnal_rejects_flat_and_noise() {
        assert!(acf_diurnal(&daily(14, 0.4, 0.1)).diurnal);
        assert!(!acf_diurnal(&vec![0.6; 1_833]).diurnal);
        let noise: Vec<f64> =
            (0..1_833).map(|i| ((i as f64 * 78.233).sin() * 43_758.545_3).fract()).collect();
        assert!(!acf_diurnal(&noise).diurnal);
    }

    #[test]
    fn detector_rejects_other_periods() {
        // 9-hour cycle: daily lag shows weak correlation, competitor lags
        // (e.g. 9h ≈ 49 samples... within the scanned band via 3/4-day
        // multiples) dominate.
        let n = (14.0 * RPD) as usize;
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * 660.0 / 3_600.0; // hours
                0.5 + 0.3 * (2.0 * std::f64::consts::PI * t / 9.0).sin()
            })
            .collect();
        let rep = acf_diurnal(&xs);
        assert!(!rep.diurnal, "9h cycle misread as daily: {rep:?}");
    }

    #[test]
    fn acf_robust_to_amplitude_variation() {
        // Days alternate strong/weak amplitude: frequency-domain energy
        // spreads, but the day-lag correlation stays high.
        let n = (14.0 * RPD) as usize;
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let day = (i as f64 / RPD) as usize;
                let amp = if day % 2 == 0 { 0.35 } else { 0.15 };
                let frac = (i as f64 / RPD).fract();
                0.5 + if frac < 0.4 { amp } else { -amp }
            })
            .collect();
        let rep = acf_diurnal(&xs);
        assert!(rep.r_day > 0.5, "r_day {}", rep.r_day);
        assert!(rep.diurnal);
    }
}
