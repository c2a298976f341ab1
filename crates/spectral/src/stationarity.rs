//! Stationarity screening for availability timeseries (§2.2, "Data
//! appropriateness").
//!
//! FFT over non-stationary data distorts the analysis of periodic behaviour.
//! The paper verifies stationarity with a linear fit of `A` over the
//! observation, calling a block stationary when the slope is equivalent to
//! less than one address change per day (out of the 256 addresses of a /24).
//!
//! Those figures are the paper's and fixed here too: series are sampled
//! once per 11-minute round (`ROUND_SECONDS`), a slope unit is
//! `BLOCK_SIZE` (256) addresses, and a block is stationary below
//! `MAX_ADDRESSES_PER_DAY` (1.0) addresses/day of drift.

use crate::periodogram::{DAY_SECONDS, ROUND_SECONDS};

/// Result of the linear-trend test on one availability series.
#[derive(Debug, Clone, Copy)]
pub struct TrendReport {
    /// OLS slope in availability units per sample.
    pub slope_per_sample: f64,
    /// OLS intercept (availability at sample 0).
    pub intercept: f64,
    /// Slope converted to *addresses per day* assuming a /24
    /// (`slope · samples_per_day · 256`).
    pub addresses_per_day: f64,
    /// `|addresses_per_day| < threshold` (paper threshold: 1.0).
    pub stationary: bool,
}

/// Ordinary least-squares fit of `series[i] ~ intercept + slope·i`.
///
/// Returns `(slope, intercept)`. Series with fewer than two points get a
/// zero slope and the single value (or 0) as intercept.
pub fn linear_fit(series: &[f64]) -> (f64, f64) {
    let n = series.len();
    if n < 2 {
        return (0.0, series.first().copied().unwrap_or(0.0));
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = series.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (i, &y) in series.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxy += dx * (y - mean_y);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (slope, mean_y - slope * mean_x)
}

/// Number of addresses a slope unit corresponds to (paper: a /24, 256).
const BLOCK_SIZE: f64 = 256.0;
/// Maximum absolute drift, in addresses/day, that still counts as
/// stationary (paper: 1.0).
const MAX_ADDRESSES_PER_DAY: f64 = 1.0;

/// Runs the paper's stationarity screen on an availability series sampled
/// once per round.
pub fn trend_default(series: &[f64]) -> TrendReport {
    let (slope, intercept) = linear_fit(series);
    let samples_per_day = DAY_SECONDS / ROUND_SECONDS;
    let addresses_per_day = slope * samples_per_day * BLOCK_SIZE;
    TrendReport {
        slope_per_sample: slope,
        intercept,
        addresses_per_day,
        stationary: addresses_per_day.abs() < MAX_ADDRESSES_PER_DAY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RPD: f64 = DAY_SECONDS / ROUND_SECONDS; // ~130.9 samples/day

    #[test]
    fn fit_recovers_exact_line() {
        let series: Vec<f64> = (0..100).map(|i| 0.3 + 0.001 * i as f64).collect();
        let (slope, intercept) = linear_fit(&series);
        assert!((slope - 0.001).abs() < 1e-12);
        assert!((intercept - 0.3).abs() < 1e-10);
    }

    #[test]
    fn fit_of_constant_is_flat() {
        let (slope, intercept) = linear_fit(&[0.42; 50]);
        assert_eq!(slope, 0.0);
        assert!((intercept - 0.42).abs() < 1e-12);
    }

    #[test]
    fn fit_handles_degenerate_inputs() {
        assert_eq!(linear_fit(&[]), (0.0, 0.0));
        assert_eq!(linear_fit(&[0.7]), (0.0, 0.7));
    }

    #[test]
    fn flat_block_is_stationary() {
        let n = (14.0 * RPD) as usize;
        let r = trend_default(&vec![0.6; n]);
        assert!(r.stationary);
        assert!(r.addresses_per_day.abs() < 1e-9);
    }

    #[test]
    fn diurnal_but_balanced_block_is_stationary() {
        // A daily oscillation with no net drift must pass.
        let n = (14.0 * RPD) as usize;
        let series: Vec<f64> = (0..n)
            .map(|i| 0.5 + 0.3 * (2.0 * std::f64::consts::PI * i as f64 / RPD).sin())
            .collect();
        let r = trend_default(&series);
        assert!(r.stationary, "addresses/day = {}", r.addresses_per_day);
    }

    #[test]
    fn drifting_block_fails() {
        // Gain of 5 addresses/day on a /24: slope = 5/256 per day.
        let n = (14.0 * RPD) as usize;
        let per_sample = 5.0 / 256.0 / RPD;
        let series: Vec<f64> = (0..n).map(|i| 0.2 + per_sample * i as f64).collect();
        let r = trend_default(&series);
        assert!(!r.stationary);
        assert!((r.addresses_per_day - 5.0).abs() < 0.05);
    }

    #[test]
    fn threshold_boundary() {
        // Pins the 11-minute sample period, the /24 and the 1.0 cut by
        // value: up to 0.99 addr/day passes; from 1.01 addr/day it fails.
        let n = (14.0 * RPD) as usize;
        let mk = |apd: f64| -> Vec<f64> {
            let per_sample = apd / 256.0 / RPD;
            (0..n).map(|i| 0.4 + per_sample * i as f64).collect()
        };
        for (apd, stationary) in [(0.5, true), (0.99, true), (1.01, false), (2.0, false)] {
            let r = trend_default(&mk(apd));
            assert!((r.addresses_per_day - apd).abs() < 1e-9, "{apd}: {}", r.addresses_per_day);
            assert_eq!(r.stationary, stationary, "{apd} addresses/day");
        }
    }
}
