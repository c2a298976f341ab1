//! Lomb–Scargle periodogram: spectral analysis of *unevenly* sampled data.
//!
//! The paper makes its series even before the FFT — extrapolating missing
//! rounds and deduplicating (§2.2) — because "spectral analysis typically
//! requires an evenly sampled timeseries". Lomb–Scargle is the standard
//! alternative that needs no such repair: it least-squares-fits sinusoids
//! at each trial frequency directly to the observed `(t, x)` pairs, so
//! prober restarts and missing rounds simply contribute nothing.
//!
//! Included for the `ablate-gaps` comparison (clean+FFT vs Lomb–Scargle on
//! gappy data) and as a library feature for users whose collection is less
//! regular than Trinocular's.
//!
//! The evaluation is a rotor-recurrence sweep: each sample carries a complex
//! phasor `e^{iωt}` that advances across the uniform frequency grid by one
//! complex multiply (`e^{iΔω·t}`) per step instead of a `sin_cos` per sample
//! per frequency, and the four Lomb–Scargle sums plus the orthogonalizing
//! phase `τ` are recovered analytically from the phasor sums. Phasors are
//! re-synchronized against exact `sin_cos` every few dozen frequencies so
//! the recurrence cannot drift — the same discipline the planned FFT applies
//! to its twiddles.

use std::f64::consts::PI;

/// Re-synchronize rotors against exact `sin_cos` every this many grid steps.
/// One rotor multiply loses ~1 ulp; 32 steps keeps accumulated phase error
/// far below any power difference the classifier could notice, at a ~3%
/// trig overhead.
const ROTOR_RESYNC_INTERVAL: usize = 32;

/// The normalized Lomb–Scargle power at one angular frequency `ω`, from the
/// phasor sums of that frequency:
///
/// ```text
/// P(ω) = 1/(2σ²) · [ (Σ (x−x̄)cos ω(t−τ))² / Σ cos² ω(t−τ)
///                  + (Σ (x−x̄)sin ω(t−τ))² / Σ sin² ω(t−τ) ]
/// ```
///
/// Inputs: `c, s` = `Σ d·cos ωt`, `Σ d·sin ωt`; `c2, s2` = `Σ cos 2ωt`,
/// `Σ sin 2ωt`; `n` samples; variance `var`. The classic phase shift `τ`
/// (from `tan 2ωτ = s2/c2`) is applied analytically: writing
/// `h = √(c2² + s2²)`, the rotated squared-basis sums collapse to
/// `Σ cos² ω(t−τ) = n/2 + h/2` and `Σ sin² ω(t−τ) = n/2 − h/2`, and the
/// data sums rotate by the half-angle `(cos ωτ, sin ωτ)`.
fn power_from_sums(c: f64, s: f64, c2: f64, s2: f64, n: usize, var: f64) -> f64 {
    let h = c2.hypot(s2);
    // Half-angle of 2ωτ = atan2(s2, c2): since 2ωτ ∈ (−π, π], cos ωτ ≥ 0.
    let (cos_tau, sin_tau) = if h > 0.0 {
        let cos2t = c2 / h;
        let sin2t = s2 / h;
        let ct = ((1.0 + cos2t) / 2.0).max(0.0).sqrt();
        let st = ((1.0 - cos2t) / 2.0).max(0.0).sqrt().copysign(sin2t);
        (ct, st)
    } else {
        (1.0, 0.0)
    };
    let cs = c * cos_tau + s * sin_tau;
    let sn = s * cos_tau - c * sin_tau;
    let cc = n as f64 / 2.0 + h / 2.0;
    let ss = n as f64 / 2.0 - h / 2.0;
    if var <= 0.0 || cc <= 0.0 || ss <= 0.0 {
        return 0.0;
    }
    (cs * cs / cc + sn * sn / ss) / (2.0 * var)
}

/// Reference evaluation at one frequency with direct per-sample `sin_cos` —
/// the pre-rotor implementation, kept as the differential-test oracle.
#[cfg(test)]
fn power_at_direct(times: &[f64], values: &[f64], mean: f64, var: f64, omega: f64) -> f64 {
    let (mut s2, mut c2) = (0.0, 0.0);
    for &t in times {
        let (s, c) = (2.0 * omega * t).sin_cos();
        s2 += s;
        c2 += c;
    }
    let tau = s2.atan2(c2) / (2.0 * omega);
    let (mut cs, mut cc, mut ss, mut sn) = (0.0, 0.0, 0.0, 0.0);
    for (&t, &x) in times.iter().zip(values) {
        let (s, c) = (omega * (t - tau)).sin_cos();
        let d = x - mean;
        cs += d * c;
        sn += d * s;
        cc += c * c;
        ss += s * s;
    }
    if var <= 0.0 || cc <= 0.0 || ss <= 0.0 {
        return 0.0;
    }
    (cs * cs / cc + sn * sn / ss) / (2.0 * var)
}

/// A computed Lomb–Scargle periodogram.
#[derive(Debug, Clone)]
pub struct LombScargle {
    /// Trial frequencies, cycles per day.
    pub freqs_cpd: Vec<f64>,
    /// Normalized power at each trial frequency.
    pub power: Vec<f64>,
}

impl LombScargle {
    /// Computes the periodogram of irregular samples `(time_seconds,
    /// value)` over trial frequencies from `min_cpd` to `max_cpd` in
    /// `n_freqs` steps.
    ///
    /// Returns an empty periodogram for fewer than 3 samples or a
    /// zero-variance series.
    pub fn compute(
        samples: &[(f64, f64)],
        min_cpd: f64,
        max_cpd: f64,
        n_freqs: usize,
    ) -> LombScargle {
        assert!(min_cpd > 0.0 && max_cpd > min_cpd && n_freqs >= 2, "bad frequency grid");
        if samples.len() < 3 {
            return LombScargle { freqs_cpd: Vec::new(), power: Vec::new() };
        }
        let times: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let values: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        // Constant series carry only rounding dust; call them powerless.
        if var <= 1e-18 * (mean * mean + 1.0) {
            return LombScargle { freqs_cpd: Vec::new(), power: Vec::new() };
        }

        // Rotor sweep: z_i = e^{iω t_i} advances by r_i = e^{iΔω t_i} per
        // grid step. All four Lomb–Scargle sums come from z_i alone — the
        // 2ωt terms via the double angle (cos 2ωt = c²−s², sin 2ωt = 2sc) —
        // so the hot loop is one complex multiply and a handful of FMAs per
        // sample instead of two `sin_cos` calls.
        let step_cpd = (max_cpd - min_cpd) / (n_freqs - 1) as f64;
        let d_omega = 2.0 * PI * step_cpd / 86_400.0;
        let devs: Vec<f64> = values.iter().map(|&x| x - mean).collect();
        let rotors: Vec<(f64, f64)> = times
            .iter()
            .map(|&t| {
                let (s, c) = (d_omega * t).sin_cos();
                (c, s)
            })
            .collect();
        let mut phasors: Vec<(f64, f64)> = Vec::with_capacity(times.len());

        let mut freqs_cpd = Vec::with_capacity(n_freqs);
        let mut power = Vec::with_capacity(n_freqs);
        for i in 0..n_freqs {
            let cpd = min_cpd + step_cpd * i as f64;
            if i % ROTOR_RESYNC_INTERVAL == 0 {
                // Exact phases: kills accumulated rotor rounding.
                let omega = 2.0 * PI * cpd / 86_400.0;
                phasors.clear();
                phasors.extend(times.iter().map(|&t| {
                    let (s, c) = (omega * t).sin_cos();
                    (c, s)
                }));
            }
            let (mut c_sum, mut s_sum, mut c2_sum, mut s2_sum) = (0.0, 0.0, 0.0, 0.0);
            for (&(c, s), &d) in phasors.iter().zip(&devs) {
                c_sum += d * c;
                s_sum += d * s;
                c2_sum += c * c - s * s;
                s2_sum += 2.0 * s * c;
            }
            freqs_cpd.push(cpd);
            power.push(power_from_sums(c_sum, s_sum, c2_sum, s2_sum, devs.len(), var));
            for (z, &(rc, rs)) in phasors.iter_mut().zip(&rotors) {
                *z = (z.0 * rc - z.1 * rs, z.0 * rs + z.1 * rc);
            }
        }
        LombScargle { freqs_cpd, power }
    }

    /// The frequency (cycles/day) with maximal power, if any.
    pub(crate) fn peak_cpd(&self) -> Option<f64> {
        let (i, _) = self
            .power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        Some(self.freqs_cpd[i])
    }

    /// Power at the trial frequency nearest `cpd` (0 for an empty
    /// periodogram).
    pub(crate) fn power_near(&self, cpd: f64) -> f64 {
        self.freqs_cpd
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1 - cpd)
                    .abs()
                    .partial_cmp(&(b.1 - cpd).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| self.power[i])
            .unwrap_or(0.0)
    }

    /// A simple diurnal test in the spirit of §2.2's strict rule: the peak
    /// lies within `tol_cpd` of one cycle/day and carries at least `ratio`
    /// times the median power.
    pub fn is_diurnal(&self, tol_cpd: f64, ratio: f64) -> bool {
        let Some(peak) = self.peak_cpd() else { return false };
        if (peak - 1.0).abs() > tol_cpd {
            return false;
        }
        let mut sorted = self.power.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = sorted[sorted.len() / 2];
        self.power_near(1.0) >= ratio * median.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regular daily samples with a fraction dropped (keyed, reproducible).
    fn gappy_daily(days: usize, drop_every: usize) -> Vec<(f64, f64)> {
        let rounds = days * 131;
        (0..rounds)
            .filter(|r| drop_every == 0 || r % drop_every != 3)
            .map(|r| {
                let t = r as f64 * 660.0;
                let day_frac = (t / 86_400.0).fract();
                let v = if day_frac < 0.4 { 0.8 } else { 0.2 };
                (t, v)
            })
            .collect()
    }

    #[test]
    fn finds_daily_peak_on_clean_data() {
        let ls = LombScargle::compute(&gappy_daily(14, 0), 0.2, 6.0, 300);
        let peak = ls.peak_cpd().unwrap();
        assert!((peak - 1.0).abs() < 0.05, "peak at {peak} cpd");
        assert!(ls.is_diurnal(0.1, 5.0));
    }

    #[test]
    fn tolerates_heavy_gaps() {
        // Drop a quarter of the samples: no cleaning, straight in.
        let ls = LombScargle::compute(&gappy_daily(14, 4), 0.2, 6.0, 300);
        let peak = ls.peak_cpd().unwrap();
        assert!((peak - 1.0).abs() < 0.05, "peak at {peak} cpd with 25% missing");
    }

    #[test]
    fn finds_non_daily_periods() {
        // 8-hour cycle → 3 cycles/day.
        let samples: Vec<(f64, f64)> = (0..14 * 131)
            .map(|r| {
                let t = r as f64 * 660.0;
                (t, (2.0 * PI * 3.0 * t / 86_400.0).sin())
            })
            .collect();
        let ls = LombScargle::compute(&samples, 0.2, 6.0, 400);
        let peak = ls.peak_cpd().unwrap();
        assert!((peak - 3.0).abs() < 0.05, "peak at {peak} cpd");
        assert!(!ls.is_diurnal(0.1, 5.0));
    }

    #[test]
    fn flat_series_has_no_peak() {
        let samples: Vec<(f64, f64)> = (0..500).map(|r| (r as f64 * 660.0, 0.6)).collect();
        let ls = LombScargle::compute(&samples, 0.2, 6.0, 100);
        assert!(ls.peak_cpd().is_none());
        assert!(!ls.is_diurnal(0.1, 2.0));
    }

    #[test]
    fn noise_is_not_diurnal() {
        let samples: Vec<(f64, f64)> = (0..14 * 131)
            .map(|r| {
                let t = r as f64 * 660.0;
                let v = ((r as f64 * 78.233).sin() * 43_758.545_3).fract();
                (t, v)
            })
            .collect();
        let ls = LombScargle::compute(&samples, 0.2, 6.0, 300);
        assert!(!ls.is_diurnal(0.05, 20.0));
    }

    #[test]
    fn tiny_input_is_empty() {
        let ls = LombScargle::compute(&[(0.0, 1.0), (660.0, 0.5)], 0.2, 6.0, 50);
        assert!(ls.freqs_cpd.is_empty());
    }

    #[test]
    #[should_panic(expected = "bad frequency grid")]
    fn rejects_bad_grid() {
        let _ = LombScargle::compute(&[(0.0, 1.0)], 2.0, 1.0, 50);
    }

    #[test]
    fn rotor_sweep_matches_direct_evaluation() {
        // 301 frequencies crosses several resync boundaries; the gappy
        // series exercises irregular times.
        let samples = gappy_daily(14, 4);
        let (min_cpd, max_cpd, n_freqs) = (0.2, 6.0, 301);
        let ls = LombScargle::compute(&samples, min_cpd, max_cpd, n_freqs);
        let times: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let values: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        for (i, (&cpd, &p)) in ls.freqs_cpd.iter().zip(&ls.power).enumerate() {
            let omega = 2.0 * PI * cpd / 86_400.0;
            let reference = power_at_direct(&times, &values, mean, var, omega);
            assert!(
                (p - reference).abs() <= 1e-9 * reference.max(1.0),
                "freq {i} ({cpd} cpd): rotor {p} vs direct {reference}"
            );
        }
    }

    #[test]
    fn power_near_picks_closest_bin() {
        let ls = LombScargle::compute(&gappy_daily(7, 0), 0.5, 2.0, 4);
        // Grid = 0.5, 1.0, 1.5, 2.0; querying 1.1 must read the 1.0 bin.
        let direct = ls.power[1];
        assert_eq!(ls.power_near(1.1), direct);
    }
}
