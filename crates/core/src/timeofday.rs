//! Phase-to-time-of-day calibration.
//!
//! The paper ties phase to longitude and leaves "calibrating phase with
//! local time of day" as future work (§5.2). Because our series are trimmed
//! to start at midnight UTC (§2.2), the calibration is closed-form: the
//! daily component of a series starting at midnight peaks at UTC hour
//! `(−φ/2π)·24 mod 24`, and the local peak hour follows from longitude at
//! 15° per hour.

use std::f64::consts::TAU;

/// UTC hour (0–24) at which the daily component peaks, for a phase `φ`
/// measured on a series that starts at midnight UTC.
///
/// Derivation: a pure daily cosine peaking at round `m₀` contributes
/// `α_{N_d} ∝ e^{−2πi·m₀·N_d/n}`, so `φ = −2π·m₀/r` with `r = n/N_d`
/// rounds per day, giving `m₀/r = −φ/2π` of a day.
pub fn peak_utc_hour(phase: f64) -> f64 {
    ((-phase / TAU) * 24.0).rem_euclid(24.0)
}

/// Local solar hour of the daily peak, given phase and longitude
/// (degrees east).
pub fn peak_local_hour(phase: f64, lon_deg: f64) -> f64 {
    (peak_utc_hour(phase) + lon_deg / 15.0).rem_euclid(24.0)
}

/// Inverse of [`peak_utc_hour`]: the phase a block peaking at `utc_hour`
/// will show. The tests build their expectations with it.
#[cfg(test)]
fn phase_for_peak_utc_hour(utc_hour: f64) -> f64 {
    let mut phase = -(utc_hour / 24.0) * TAU;
    while phase <= -std::f64::consts::PI {
        phase += TAU;
    }
    while phase > std::f64::consts::PI {
        phase -= TAU;
    }
    phase
}

/// Classifies a local peak hour into a coarse activity pattern, a
/// convenience for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityPattern {
    /// Peak between 06:00 and 12:00 local.
    Morning,
    /// Peak between 12:00 and 18:00 local.
    Afternoon,
    /// Peak between 18:00 and 24:00 local.
    Evening,
    /// Peak between 00:00 and 06:00 local.
    Night,
}

/// Buckets a local hour into an [`ActivityPattern`].
pub fn activity_pattern(local_hour: f64) -> ActivityPattern {
    match local_hour.rem_euclid(24.0) {
        h if h < 6.0 => ActivityPattern::Night,
        h if h < 12.0 => ActivityPattern::Morning,
        h if h < 18.0 => ActivityPattern::Afternoon,
        _ => ActivityPattern::Evening,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze_block, AnalysisConfig};
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    #[test]
    fn roundtrip_phase_and_hour() {
        for h in [0.0, 3.5, 8.0, 12.0, 17.25, 23.9] {
            let phase = phase_for_peak_utc_hour(h);
            assert!((-std::f64::consts::PI..=std::f64::consts::PI).contains(&phase));
            let back = peak_utc_hour(phase);
            assert!((back - h).abs() < 1e-9 || (back - h).abs() > 23.9, "h={h}, back={back}");
        }
    }

    #[test]
    fn local_hour_shifts_with_longitude() {
        let phase = phase_for_peak_utc_hour(12.0);
        assert!((peak_local_hour(phase, 0.0) - 12.0).abs() < 1e-9);
        assert!((peak_local_hour(phase, 90.0) - 18.0).abs() < 1e-9);
        assert!((peak_local_hour(phase, -90.0) - 6.0).abs() < 1e-9);
        // Wraps around midnight.
        let late = peak_local_hour(phase_for_peak_utc_hour(22.0), 45.0);
        assert!((late - 1.0).abs() < 1e-9, "got {late}");
    }

    #[test]
    fn measured_block_peaks_during_its_working_day() {
        // Block at UTC+8 active 08:00–18:00 local → peak near 13:00 local.
        let block = BlockSpec::bare(
            1,
            321,
            BlockProfile {
                n_stable: 20,
                n_diurnal: 180,
                stable_avail: 0.9,
                diurnal_avail: 0.9,
                onset_hours: 8.0,
                onset_spread: 1.0,
                duration_hours: 10.0,
                duration_spread: 0.5,
                sigma_start: 0.3,
                sigma_duration: 0.3,
                utc_offset_hours: 8.0,
            },
        );
        // Start at midnight UTC so the calibration assumption holds.
        let analysis = analyze_block(&block, &AnalysisConfig::over_days(0, 14.0));
        let phase = analysis.diurnal.phase.expect("diurnal block");
        let local = peak_local_hour(phase, 8.0 * 15.0);
        assert!(
            (10.0..17.0).contains(&local),
            "peak should fall in the working day, got {local:.1}h local"
        );
        assert_eq!(activity_pattern(local), ActivityPattern::Afternoon);
    }

    #[test]
    fn pattern_buckets() {
        assert_eq!(activity_pattern(2.0), ActivityPattern::Night);
        assert_eq!(activity_pattern(8.0), ActivityPattern::Morning);
        assert_eq!(activity_pattern(13.0), ActivityPattern::Afternoon);
        assert_eq!(activity_pattern(20.0), ActivityPattern::Evening);
        assert_eq!(activity_pattern(24.5), ActivityPattern::Night);
        assert_eq!(activity_pattern(-1.0), ActivityPattern::Evening);
    }
}
