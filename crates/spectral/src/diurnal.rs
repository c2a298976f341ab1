//! Diurnal-block classification from amplitude spectra (§2.2).
//!
//! Diurnal activity appears as strength at one cycle per day. For an
//! experiment spanning `N_d` days the fundamental lies in bin `k = N_d`; to
//! account for noise and imperfect day alignment the paper also considers
//! `k = N_d + 1`.
//!
//! * **Strictly diurnal**: the strongest frequency is the fundamental, its
//!   strength is at least *twice* the next strongest non-harmonic frequency,
//!   and greater than all harmonics.
//! * **Relaxed diurnal**: the strongest frequency is the fundamental or its
//!   first harmonic, with no 2× requirement.
//!
//! Phase (when the daily period occurs relative to measurement start) is the
//! angle of the fundamental coefficient and is only meaningful for diurnal
//! blocks — for non-diurnal blocks it is effectively random.

use crate::periodogram::{skip_bound, Spectrum};

/// Classification outcome for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiurnalClass {
    /// Meets the strict test: dominant, ≥2× competitors, above harmonics.
    Strict,
    /// Strongest frequency is the fundamental or first harmonic, but the
    /// strict margins are not met.
    Relaxed,
    /// No dominant daily periodicity.
    NonDiurnal,
}

impl DiurnalClass {
    /// `true` for strict diurnal blocks.
    pub fn is_strict(self) -> bool {
        self == DiurnalClass::Strict
    }

    /// `true` for strict *or* relaxed diurnal blocks (the paper's set `e`).
    pub fn is_diurnal(self) -> bool {
        self != DiurnalClass::NonDiurnal
    }
}

/// Tunable margins of the classifier. [`DiurnalConfig::default`] matches the
/// paper exactly.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalConfig {
    /// Required ratio of the fundamental over the next strongest
    /// non-harmonic frequency for the strict test (paper: 2.0).
    pub strict_ratio: f64,
    /// Bin tolerance when matching the fundamental and harmonics
    /// (paper: the fundamental is searched at `N_d` and `N_d + 1`).
    pub bin_tolerance: usize,
    /// Minimum observation span in days for classification to be attempted.
    /// The paper requires "two or more weeks"; shorter series return
    /// [`DiurnalClass::NonDiurnal`] with `too_short` flagged. Controlled
    /// simulations may lower this.
    pub min_days: f64,
}

impl Default for DiurnalConfig {
    fn default() -> Self {
        DiurnalConfig { strict_ratio: 2.0, bin_tolerance: 1, min_days: 2.0 }
    }
}

/// Everything the classifier derived from one spectrum.
#[derive(Debug, Clone)]
pub struct DiurnalReport {
    /// Classification under the configured margins.
    pub class: DiurnalClass,
    /// The fundamental (1 cycle/day) bin actually used: the stronger of
    /// `N_d` and `N_d + 1`.
    pub fundamental_bin: usize,
    /// Amplitude of the fundamental.
    pub fundamental_amp: f64,
    /// Strongest non-harmonic competitor `(bin, amplitude)`, if any bin
    /// outside the fundamental/harmonic families exists.
    pub strongest_competitor: Option<(usize, f64)>,
    /// Strongest harmonic `(bin, amplitude)`, if the spectrum reaches the
    /// first harmonic.
    pub strongest_harmonic: Option<(usize, f64)>,
    /// Phase of the fundamental coefficient in `(-π, π]`. `Some` only for
    /// diurnal (strict or relaxed) blocks.
    pub phase: Option<f64>,
    /// The series was too short for a meaningful test.
    pub too_short: bool,
}

impl DiurnalReport {
    /// Ratio of fundamental amplitude to the strongest non-harmonic
    /// competitor (∞ when there is no competitor).
    pub fn dominance_ratio(&self) -> f64 {
        match self.strongest_competitor {
            Some((_, amp)) if amp > 0.0 => self.fundamental_amp / amp,
            _ => f64::INFINITY,
        }
    }
}

/// `true` when bin `k` lies within `tol` of `m·base` for some `m ≥ 2`
/// (i.e. `k` is a harmonic of the daily fundamental). The classifier walks
/// the same families without a division ([`Family`]); this is its
/// reference.
#[cfg(test)]
fn is_harmonic(k: usize, base: usize, tol: usize) -> bool {
    if base == 0 {
        return false;
    }
    let m = (k + tol) / base;
    m >= 2 && k.abs_diff(m * base) <= tol
}

/// `true` when bin `k` lies within the fundamental family
/// (`N_d - tol ..= N_d + 1 + tol`, clamped at 1).
#[cfg(test)]
fn is_fundamental(k: usize, base: usize, tol: usize) -> bool {
    let lo = base.saturating_sub(tol).max(1);
    let hi = base + 1 + tol;
    (lo..=hi).contains(&k)
}

/// Which family a bin belongs to: the fundamental's (`N_d − tol ..=
/// N_d + 1 + tol`, clamped at 1), a harmonic's (within `tol` of `m·N_d`
/// for some `m ≥ 2`), or neither — a competitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Fundamental,
    Harmonic,
    Competitor,
}

/// Assigns [`Family`]s to bins `1, 2, 3, …` in order, without a division
/// per bin: it keeps the smallest harmonic centre `m·base` whose window
/// has not yet been passed. A bin is harmonic exactly when that centre is
/// within `tol` of it.
struct FamilyWalk {
    base: usize,
    tol: usize,
    fund: std::ops::RangeInclusive<usize>,
    next_harmonic: usize,
}

impl FamilyWalk {
    /// The walk for daily bin `base ≥ 1`.
    fn new(base: usize, tol: usize) -> FamilyWalk {
        debug_assert!(base >= 1, "the daily bin is at least 1");
        let fund = base.saturating_sub(tol).max(1)..=base.saturating_add(1).saturating_add(tol);
        FamilyWalk { base, tol, fund, next_harmonic: base.saturating_mul(2) }
    }

    /// The family of bin `k`; bins must come in increasing order.
    fn family(&mut self, k: usize) -> Family {
        while self.next_harmonic.saturating_add(self.tol) < k {
            self.next_harmonic += self.base;
        }
        if self.fund.contains(&k) {
            Family::Fundamental
        } else if k.saturating_add(self.tol) >= self.next_harmonic {
            Family::Harmonic
        } else {
            Family::Competitor
        }
    }
}

/// Classifies one block's availability spectrum.
///
/// One sweep over bins `1..=n/2` keeps three running maxima (overall,
/// harmonic, competitor). A bin takes its `hypot` only when its squared
/// magnitude could reach a maximum it is compared against
/// (`periodogram::skip_bound`); every maximum and every reported amplitude
/// is still an exact `hypot`, so the report is the one a `hypot` per bin
/// gives.
pub fn classify(spectrum: &Spectrum, cfg: &DiurnalConfig) -> DiurnalReport {
    let base = spectrum.diurnal_bin();
    let nyq = spectrum.nyquist_bin();
    let tol = cfg.bin_tolerance;

    // Fundamental = the stronger of bins N_d and N_d + 1 (§2.2).
    let (fund_bin, fund_amp) = if base < nyq && base >= 1 {
        let a = spectrum.amplitude(base);
        let b = spectrum.amplitude(base + 1);
        if b > a {
            (base + 1, b)
        } else {
            (base, a)
        }
    } else if base <= nyq && base >= 1 {
        (base, spectrum.amplitude(base))
    } else {
        // Spectrum doesn't even reach one cycle/day: nothing to test.
        return DiurnalReport {
            class: DiurnalClass::NonDiurnal,
            fundamental_bin: base,
            fundamental_amp: 0.0,
            strongest_competitor: None,
            strongest_harmonic: None,
            phase: None,
            too_short: true,
        };
    };

    let too_short = spectrum.span_days() < cfg.min_days;

    let mut strongest_competitor: Option<(usize, f64)> = None;
    let mut strongest_harmonic: Option<(usize, f64)> = None;
    let mut global_max: (usize, f64) = (fund_bin, fund_amp);
    // Squared-magnitude bounds below which a bin cannot move the maxima
    // its family is compared against; an empty family bounds nothing.
    let mut global_bound = skip_bound(fund_amp);
    let (mut harmonic_bound, mut competitor_bound) = (f64::NEG_INFINITY, f64::NEG_INFINITY);

    let mut walk = FamilyWalk::new(base, tol);
    for (k, c) in spectrum.half_coeffs() {
        let family = walk.family(k);
        let bound = match family {
            Family::Fundamental => global_bound,
            Family::Harmonic => global_bound.min(harmonic_bound),
            Family::Competitor => global_bound.min(competitor_bound),
        };
        if c.norm_sqr() < bound {
            continue;
        }
        let amp = c.abs();
        if amp > global_max.1 {
            global_max = (k, amp);
            global_bound = skip_bound(amp);
        }
        let (strongest, family_bound) = match family {
            Family::Fundamental => continue,
            Family::Harmonic => (&mut strongest_harmonic, &mut harmonic_bound),
            Family::Competitor => (&mut strongest_competitor, &mut competitor_bound),
        };
        if strongest.map_or(true, |(_, a)| amp > a) {
            *strongest = Some((k, amp));
            *family_bound = skip_bound(amp);
        }
    }

    let first_harmonic_family =
        |k: usize| k.abs_diff(2 * base) <= tol || k.abs_diff(2 * (base + 1)) <= tol;

    let class = if too_short {
        DiurnalClass::NonDiurnal
    } else {
        let peak_at_fundamental = walk.fund.contains(&global_max.0);
        let beats_competitor =
            strongest_competitor.map(|(_, a)| fund_amp >= cfg.strict_ratio * a).unwrap_or(true);
        let beats_harmonics = strongest_harmonic.map(|(_, a)| fund_amp > a).unwrap_or(true);
        if peak_at_fundamental && beats_competitor && beats_harmonics {
            DiurnalClass::Strict
        } else if peak_at_fundamental || first_harmonic_family(global_max.0) {
            DiurnalClass::Relaxed
        } else {
            DiurnalClass::NonDiurnal
        }
    };

    let phase = class.is_diurnal().then(|| spectrum.phase(fund_bin));

    DiurnalReport {
        class,
        fundamental_bin: fund_bin,
        fundamental_amp: fund_amp,
        strongest_competitor,
        strongest_harmonic,
        phase,
        too_short,
    }
}

/// Convenience: classify a raw availability series sampled at the standard
/// 11-minute round, with default margins.
pub fn classify_series(series: &[f64]) -> DiurnalReport {
    classify(&Spectrum::compute_rounds(series), &DiurnalConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Rounds per day at the 11-minute cadence (truncated).
    const RPD: f64 = 86_400.0 / 660.0;

    fn daily_square_wave(days: usize, duty: f64, noise: f64) -> Vec<f64> {
        let n = (days as f64 * RPD).round() as usize;
        (0..n)
            .map(|i| {
                let day_frac = (i as f64 / RPD).fract();
                let base = if day_frac < duty { 0.8 } else { 0.2 };
                // Deterministic pseudo-noise so the test is reproducible.
                let jitter = ((i as f64 * 12.9898).sin() * 43_758.547).fract() - 0.5;
                base + noise * jitter
            })
            .collect()
    }

    fn flat_series(days: usize, level: f64) -> Vec<f64> {
        let n = (days as f64 * RPD).round() as usize;
        vec![level; n]
    }

    #[test]
    fn clean_daily_pattern_is_strict() {
        let r = classify_series(&daily_square_wave(14, 0.4, 0.0));
        assert_eq!(r.class, DiurnalClass::Strict);
        assert!(r.phase.is_some());
        assert!(!r.too_short);
        assert!((13..=15).contains(&r.fundamental_bin), "bin {}", r.fundamental_bin);
    }

    #[test]
    fn noisy_daily_pattern_is_still_detected() {
        let r = classify_series(&daily_square_wave(14, 0.4, 0.2));
        assert!(r.class.is_diurnal());
    }

    #[test]
    fn flat_block_is_non_diurnal() {
        let r = classify_series(&flat_series(14, 0.7));
        assert_eq!(r.class, DiurnalClass::NonDiurnal);
        assert!(r.phase.is_none());
    }

    #[test]
    fn pure_noise_is_non_diurnal() {
        let n = (14.0 * RPD) as usize;
        let series: Vec<f64> =
            (0..n).map(|i| ((i as f64 * 78.233).sin() * 43_758.547).fract()).collect();
        let r = classify_series(&series);
        assert_eq!(r.class, DiurnalClass::NonDiurnal);
    }

    #[test]
    fn non_daily_periodicity_is_rejected() {
        // A 5.5-hour cycle (the prober-restart artifact): strongest bin is at
        // ~4.36 cycles/day, not the fundamental — must not classify diurnal.
        let days = 14;
        let n = (days as f64 * RPD).round() as usize;
        let series: Vec<f64> = (0..n)
            .map(|i| 0.5 + 0.3 * (2.0 * PI * i as f64 * 660.0 / (5.5 * 3600.0)).sin())
            .collect();
        let r = classify_series(&series);
        assert_eq!(r.class, DiurnalClass::NonDiurnal);
    }

    #[test]
    fn strong_first_harmonic_is_relaxed() {
        // Energy at 2 cycles/day only (e.g. two activity bursts per day):
        // the strict test fails but the relaxed test accepts.
        let days = 14;
        let n = (days as f64 * RPD).round() as usize;
        let series: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / RPD;
                0.5 + 0.25 * (2.0 * PI * 2.0 * t).sin() + 0.05 * (2.0 * PI * t).sin()
            })
            .collect();
        let r = classify_series(&series);
        assert_eq!(r.class, DiurnalClass::Relaxed);
    }

    #[test]
    fn strict_requires_double_margin() {
        // Fundamental present but a competitor at 3.37 cycles/day with more
        // than half its amplitude: strict must fail, relaxed must hold.
        let days = 14;
        let n = (days as f64 * RPD).round() as usize;
        let series: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / RPD;
                0.5 + 0.2 * (2.0 * PI * t).sin() + 0.15 * (2.0 * PI * 3.37 * t).sin()
            })
            .collect();
        let r = classify_series(&series);
        assert_eq!(r.class, DiurnalClass::Relaxed);
        assert!(r.dominance_ratio() < 2.0);
    }

    #[test]
    fn short_series_flagged() {
        let r = classify_series(&daily_square_wave(1, 0.4, 0.0));
        assert!(r.too_short);
        assert_eq!(r.class, DiurnalClass::NonDiurnal);
    }

    #[test]
    fn phase_tracks_onset_time() {
        // Two identical diurnal blocks, the second shifted by 6 hours: the
        // phase difference should be ~π/2 (a quarter day).
        let days = 14;
        let n = (days as f64 * RPD).round() as usize;
        let mk = |shift_h: f64| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let t = i as f64 / RPD - shift_h / 24.0;
                    0.5 + 0.3 * (2.0 * PI * t).cos()
                })
                .collect()
        };
        let p0 = classify_series(&mk(0.0)).phase.unwrap();
        let p6 = classify_series(&mk(6.0)).phase.unwrap();
        let mut diff = p0 - p6;
        while diff > PI {
            diff -= 2.0 * PI;
        }
        while diff < -PI {
            diff += 2.0 * PI;
        }
        assert!((diff.abs() - PI / 2.0).abs() < 0.1, "phase diff {diff}");
    }

    #[test]
    fn harmonic_detection_helper() {
        assert!(is_harmonic(28, 14, 1)); // 2nd harmonic
        assert!(is_harmonic(29, 14, 1)); // within tolerance
        assert!(is_harmonic(42, 14, 1)); // 3rd harmonic
        assert!(!is_harmonic(14, 14, 1)); // the fundamental itself
        assert!(!is_harmonic(20, 14, 1));
        assert!(!is_harmonic(5, 0, 1));
    }

    #[test]
    fn fundamental_family_helper() {
        assert!(is_fundamental(14, 14, 1));
        assert!(is_fundamental(15, 14, 1));
        assert!(is_fundamental(13, 14, 1));
        assert!(is_fundamental(16, 14, 1)); // N_d + 1 + tol
        assert!(!is_fundamental(17, 14, 1));
        assert!(!is_fundamental(11, 14, 1));
    }

    #[test]
    fn family_walk_matches_the_division_helpers() {
        for base in 1..40 {
            for tol in 0..5 {
                let mut walk = FamilyWalk::new(base, tol);
                for k in 1..400 {
                    let want = if is_fundamental(k, base, tol) {
                        Family::Fundamental
                    } else if is_harmonic(k, base, tol) {
                        Family::Harmonic
                    } else {
                        Family::Competitor
                    };
                    assert_eq!(walk.family(k), want, "bin {k}, base {base}, tol {tol}");
                }
            }
        }
    }

    #[test]
    fn classification_sets_report_fields() {
        let r = classify_series(&daily_square_wave(14, 0.35, 0.05));
        assert!(r.fundamental_amp > 0.0);
        assert!(r.strongest_competitor.is_some());
        assert!(r.strongest_harmonic.is_some());
        assert!(r.dominance_ratio() >= 1.0);
    }
}
