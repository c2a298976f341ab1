//! Amplitude spectra of availability timeseries.
//!
//! Wraps the raw DFT output with the bookkeeping the paper's diurnal
//! analysis needs: mapping bins to physical frequency (the sampling period is
//! one probing round, 660 s), finding the strongest non-DC component, and
//! restricting attention to the first half of the spectrum (the input is
//! real, so the upper half is redundant).

use crate::complex::Complex;
use crate::fft::fft_real;
use crate::plan::FftPlan;

/// Default sampling period: one Trinocular round of 11 minutes (§2.2).
pub const ROUND_SECONDS: f64 = 660.0;

/// Seconds per day, used to express bins in cycles/day.
pub(crate) const DAY_SECONDS: f64 = 86_400.0;

/// The amplitude spectrum of a real-valued, evenly sampled timeseries.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Complex DFT coefficients `α_0 .. α_{n-1}` (full, unnormalized).
    coeffs: Vec<Complex>,
    /// Sampling period in seconds.
    sample_period: f64,
}

impl Spectrum {
    /// Computes the spectrum of `series` sampled every `sample_period`
    /// seconds.
    ///
    /// # Panics
    /// Panics if `sample_period` is not strictly positive.
    pub fn compute(series: &[f64], sample_period: f64) -> Self {
        assert!(sample_period > 0.0, "sample period must be positive");
        Spectrum { coeffs: fft_real(series), sample_period }
    }

    /// Computes the spectrum assuming the paper's 11-minute rounds.
    pub fn compute_rounds(series: &[f64]) -> Self {
        Self::compute(series, ROUND_SECONDS)
    }

    /// Computes the spectrum through an explicit [`FftPlan`]: the
    /// allocating reference the scratch path is pinned against.
    ///
    /// # Panics
    /// Panics if `plan.len() != series.len()` or `sample_period <= 0`.
    #[cfg(test)]
    fn compute_with_plan(series: &[f64], sample_period: f64, plan: &FftPlan) -> Self {
        assert!(sample_period > 0.0, "sample period must be positive");
        assert_eq!(plan.len(), series.len(), "plan length mismatch");
        Spectrum { coeffs: plan.fft_real(series), sample_period }
    }

    /// Number of input samples `n`.
    pub(crate) fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Bytes reserved for the coefficient buffer, capacity not length.
    pub(crate) fn coeff_capacity_bytes(&self) -> usize {
        self.coeffs.capacity() * std::mem::size_of::<Complex>()
    }

    /// Total observation span in days.
    pub fn span_days(&self) -> f64 {
        self.len() as f64 * self.sample_period / DAY_SECONDS
    }

    /// Amplitude `|α_k|` at bin `k`.
    pub fn amplitude(&self, k: usize) -> f64 {
        self.coeffs[k].abs()
    }

    /// Phase `arg(α_k)` at bin `k`, in `(-π, π]`.
    pub fn phase(&self, k: usize) -> f64 {
        self.coeffs[k].arg()
    }

    /// Frequency of bin `k` in hertz: `k / (R·n)` (§2.2).
    pub(crate) fn freq_hz(&self, k: usize) -> f64 {
        k as f64 / (self.sample_period * self.len() as f64)
    }

    /// Frequency of bin `k` in cycles per day.
    pub fn cycles_per_day(&self, k: usize) -> f64 {
        self.freq_hz(k) * DAY_SECONDS
    }

    /// Index of the last non-redundant bin for real input (`n/2`).
    pub fn nyquist_bin(&self) -> usize {
        self.len() / 2
    }

    /// Amplitudes of bins `1..=n/2` (DC excluded), as `(bin, amplitude)`.
    pub fn half_amplitudes(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (1..=self.nyquist_bin()).map(move |k| (k, self.amplitude(k)))
    }

    /// The bin in `1..=n/2` with the largest amplitude, or `None` for series
    /// shorter than 2 samples. Of equal maxima the last wins, and a NaN
    /// amplitude displaces whatever came before it. Only a bin that could
    /// still win pays for its `hypot`.
    pub fn strongest_bin(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let mut bound = f64::NEG_INFINITY;
        for (k, c) in self.half_coeffs() {
            if c.norm_sqr() < bound {
                continue;
            }
            let amp = c.abs();
            if !best.is_some_and(|(_, top)| top > amp) {
                best = Some((k, amp));
                bound = skip_bound(amp);
            }
        }
        best.map(|(k, _)| k)
    }

    /// Coefficients of bins `1..=n/2` (DC excluded), as `(bin, α_k)`.
    pub(crate) fn half_coeffs(&self) -> impl Iterator<Item = (usize, Complex)> + '_ {
        let half = self.coeffs.get(1..=self.nyquist_bin()).unwrap_or(&[]);
        half.iter().enumerate().map(|(i, &c)| (i + 1, c))
    }

    /// The bin whose frequency is nearest to one cycle per day. For a series
    /// spanning `N_d` whole days this is `N_d`.
    pub fn diurnal_bin(&self) -> usize {
        let exact = self.len() as f64 * self.sample_period / DAY_SECONDS;
        exact.round().max(1.0) as usize
    }
}

/// The squared-magnitude bound below which a bin provably cannot reach
/// amplitude `max`: a coefficient `c` with `c.norm_sqr() < skip_bound(max)`
/// has `c.abs() < max`, so its `hypot` cannot change a running maximum.
///
/// `hypot` is within 1 ulp of the exact `|c|` and `re² + im²` within about
/// 1.5 ulp of `|c|²`, while the bound sits a relative `1e-9` below `max²`
/// — nine orders of magnitude of headroom. Squares stay normal while `max`
/// is in `[1e-100, 1e100]`; a component whose square underflows is far
/// below such a `max`, and one whose square overflows (or a NaN) never
/// compares below. Any other `max` — NaN, ±∞, zero, subnormal, huge —
/// returns `−∞`, which nothing compares below: those bins take the exact
/// path.
pub(crate) fn skip_bound(max: f64) -> f64 {
    if (1e-100..=1e100).contains(&max) {
        max * max * (1.0 - 1e-9)
    } else {
        f64::NEG_INFINITY
    }
}

/// Reusable spectrum workspace: an owned [`Spectrum`] whose coefficient
/// buffer plus the plan's Bluestein scratch are recycled across blocks.
/// Grow-only — a steady stream of same-length series computes spectra with
/// zero heap allocations after the first.
#[derive(Debug)]
pub struct SpectrumScratch {
    spectrum: Spectrum,
    fft_scratch: Vec<Complex>,
}

impl Default for SpectrumScratch {
    fn default() -> Self {
        SpectrumScratch::new()
    }
}

impl SpectrumScratch {
    /// An empty workspace; the first
    /// [`compute_with_plan`](Self::compute_with_plan) sizes it.
    pub fn new() -> Self {
        SpectrumScratch {
            spectrum: Spectrum { coeffs: Vec::new(), sample_period: ROUND_SECONDS },
            fft_scratch: Vec::new(),
        }
    }

    /// [`Spectrum::compute`] through an explicit [`FftPlan`], into the
    /// reused buffers. Returns a borrow of the freshly computed spectrum, valid until the next call;
    /// coefficients are bit-identical to the allocating path.
    ///
    /// # Panics
    /// Panics if `plan.len() != series.len()` or `sample_period <= 0`.
    pub fn compute_with_plan(
        &mut self,
        series: &[f64],
        sample_period: f64,
        plan: &FftPlan,
    ) -> &Spectrum {
        assert!(sample_period > 0.0, "sample period must be positive");
        assert_eq!(plan.len(), series.len(), "plan length mismatch");
        // `real_with_scratch` wants exact lengths and writes every one of
        // the `n` coefficients (each sample at lengths 0 and 1; `k` and
        // `k + n/2` for `k < n/2` at even ones; `0`, `k` and `n − k` for
        // `k ≤ n/2` at odd ones), so the buffer is sized, not cleared:
        // what a longer transform left in it is overwritten.
        self.spectrum.coeffs.resize(plan.len(), Complex::ZERO);
        self.fft_scratch.clear();
        self.fft_scratch.resize(plan.real_scratch_len(), Complex::ZERO);
        plan.real_with_scratch(series, &mut self.spectrum.coeffs, &mut self.fft_scratch);
        self.spectrum.sample_period = sample_period;
        &self.spectrum
    }

    /// Prepares the workspace for an externally computed transform of
    /// length `n`: sizes the coefficient buffer to `n` without clearing
    /// it (as [`compute_with_plan`](Self::compute_with_plan) hands it to
    /// the scalar kernel), sets the sample period, and returns the buffer
    /// for the caller to fill — every slot, since it may hold a longer
    /// transform's coefficients. The batched-FFT world path writes one
    /// lane of [`FftPlan::real_batch_with_scratch`], which writes all
    /// `n`, straight into it.
    ///
    /// # Panics
    /// Panics if `sample_period <= 0`.
    pub fn prepare_coeffs(&mut self, n: usize, sample_period: f64) -> &mut [Complex] {
        assert!(sample_period > 0.0, "sample period must be positive");
        self.spectrum.coeffs.resize(n, Complex::ZERO);
        self.spectrum.sample_period = sample_period;
        &mut self.spectrum.coeffs
    }

    /// The most recently computed spectrum.
    pub fn spectrum(&self) -> &Spectrum {
        &self.spectrum
    }

    /// Bytes currently reserved, capacity not length.
    pub fn footprint_bytes(&self) -> usize {
        self.spectrum.coeff_capacity_bytes()
            + self.fft_scratch.capacity() * std::mem::size_of::<Complex>()
    }

    /// Test-only: fill the workspace with garbage that a correct
    /// [`compute_with_plan`](Self::compute_with_plan) must overwrite.
    #[doc(hidden)]
    pub fn poison(&mut self, seed: u64) {
        self.spectrum.coeffs.clear();
        self.spectrum.coeffs.extend((0..61u64).map(|i| Complex::new(f64::NAN, (seed ^ i) as f64)));
        self.spectrum.sample_period = 1.0 + seed as f64;
        self.fft_scratch.clear();
        self.fft_scratch.extend((0..37u64).map(|i| Complex::new((seed + i) as f64, f64::NAN)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// A clean sinusoid with `cycles` full periods across `n` samples.
    fn tone(n: usize, cycles: f64, amp: f64, offset: f64) -> Vec<f64> {
        (0..n).map(|i| offset + amp * (2.0 * PI * cycles * i as f64 / n as f64).sin()).collect()
    }

    #[test]
    fn frequencies_follow_paper_formula() {
        // 14 days of 11-minute rounds, trimmed to whole days: n = 1833.
        let n = 1833;
        let s = Spectrum::compute_rounds(&vec![0.0; n]);
        // k = N_d should be ~1 cycle/day.
        let k = s.diurnal_bin();
        assert_eq!(k, 14);
        let cpd = s.cycles_per_day(k);
        assert!((cpd - 1.0).abs() < 0.01, "got {cpd} cycles/day");
        assert!((s.freq_hz(k) - 14.0 / (660.0 * 1833.0)).abs() < 1e-15);
    }

    #[test]
    fn span_days_of_35_day_run() {
        let n = (35.0 * DAY_SECONDS / ROUND_SECONDS).round() as usize; // 4582
        let s = Spectrum::compute_rounds(&vec![0.5; n]);
        assert!((s.span_days() - 35.0).abs() < 0.01);
        assert_eq!(s.diurnal_bin(), 35);
    }

    #[test]
    fn scratch_spectrum_is_bit_identical() {
        let n = 1833; // odd-composite → Bluestein path exercises fft_scratch
        let series = tone(n, 14.0, 0.3, 0.5);
        let plan = crate::plan::plan_for(n);
        let want = Spectrum::compute_with_plan(&series, ROUND_SECONDS, &plan);
        let mut scratch = SpectrumScratch::new();
        scratch.poison(42);
        let got = scratch.compute_with_plan(&series, ROUND_SECONDS, &plan);
        assert_eq!(got.len(), want.len());
        for k in 0..n {
            assert_eq!(got.coeffs[k].re.to_bits(), want.coeffs[k].re.to_bits(), "bin {k} re");
            assert_eq!(got.coeffs[k].im.to_bits(), want.coeffs[k].im.to_bits(), "bin {k} im");
        }
        assert_eq!(scratch.spectrum().strongest_bin(), Some(14));
        assert!(scratch.footprint_bytes() > 0);
    }

    /// Sizing without clearing is safe: after a longer transform left NaN
    /// in every coefficient, a shorter scalar or batched transform (tiny,
    /// even and odd lengths) leaves none, and its spectrum is bit for bit
    /// the one a fresh workspace computes.
    #[test]
    fn shorter_transforms_overwrite_stale_coefficients() {
        let bits = |s: &Spectrum| -> Vec<(u64, u64)> {
            s.coeffs.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let stale = |scratch: &mut SpectrumScratch| {
            scratch.poison(7);
            assert!(scratch.spectrum().len() > 60);
        };
        let mut batch = crate::BatchRealScratch::new();
        for n in [0, 1, 2, 3, 4, 5, 8, 9, 17, 24, 31, 32, 45, 60] {
            let series = tone(n, 2.0, 0.3, 0.5);
            let plan = crate::plan::plan_for(n);
            let want =
                bits(SpectrumScratch::new().compute_with_plan(&series, ROUND_SECONDS, &plan));

            let mut scratch = SpectrumScratch::new();
            stale(&mut scratch);
            let got = scratch.compute_with_plan(&series, ROUND_SECONDS, &plan);
            assert!(got.coeffs.iter().all(|c| !c.re.is_nan() && !c.im.is_nan()), "scalar n={n}");
            assert_eq!(bits(got), want, "scalar n={n}");

            if n == 0 {
                continue;
            }
            stale(&mut scratch);
            let out = scratch.prepare_coeffs(n, ROUND_SECONDS);
            plan.real_batch_with_scratch(&[&series], &mut [out], &mut batch);
            let got = scratch.spectrum();
            assert!(got.coeffs.iter().all(|c| !c.re.is_nan() && !c.im.is_nan()), "batched n={n}");
            assert_eq!(bits(got), want, "batched n={n}");
        }
    }

    #[test]
    fn strongest_bin_finds_planted_tone() {
        let n = 1833;
        let series = tone(n, 14.0, 0.3, 0.5);
        let s = Spectrum::compute_rounds(&series);
        assert_eq!(s.strongest_bin(), Some(14));
    }

    #[test]
    fn dc_is_excluded_from_strongest() {
        // Large offset, small tone: bin 0 dominates in raw amplitude but must
        // not be reported.
        let n = 512;
        let series = tone(n, 10.0, 0.01, 100.0);
        let s = Spectrum::compute(&series, 1.0);
        assert_eq!(s.strongest_bin(), Some(10));
    }

    /// The two-`hypot`-per-comparison expression `strongest_bin` replaced.
    fn strongest_bin_by_max_by(s: &Spectrum) -> Option<usize> {
        (1..=s.nyquist_bin()).max_by(|&a, &b| {
            s.amplitude(a).partial_cmp(&s.amplitude(b)).unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    #[test]
    fn strongest_bin_keeps_the_tie_and_nan_rules() {
        let spectrum = |amps: &[f64]| {
            // Bins 1..=n/2 of an even-length spectrum carry `amps`.
            let mut coeffs = vec![Complex::ZERO; 2 * amps.len()];
            for (k, &a) in amps.iter().enumerate() {
                coeffs[k + 1] = Complex::new(a, 0.0);
            }
            Spectrum { coeffs, sample_period: 1.0 }
        };
        let nan = f64::NAN;
        let cases: [(&[f64], usize); 6] = [
            (&[1.0, 5.0, 2.0, 5.0, 3.0], 4), // equal peaks: the later bin
            (&[0.0, 0.0, 0.0], 3),
            (&[1.0, nan, 0.5], 3), // NaN displaces, and is displaced
            (&[1.0, nan, 2.0, 0.5], 3),
            (&[3.0, 1.0, nan], 3),
            (&[nan, 1.0], 2),
        ];
        for (amps, want) in cases {
            let s = spectrum(amps);
            assert_eq!(s.strongest_bin(), Some(want), "{amps:?}");
            assert_eq!(s.strongest_bin(), strongest_bin_by_max_by(&s), "{amps:?}");
        }
        // And on a real spectrum with noise-level ties nowhere near exact.
        let s = Spectrum::compute_rounds(&tone(1833, 14.0, 0.3, 0.5));
        assert_eq!(s.strongest_bin(), strongest_bin_by_max_by(&s));
    }

    /// Where `max²` is subnormal, `re² + im²` can fall below
    /// `max²·(1 − 1e-9)` for a coefficient whose `hypot` equals `max`: the
    /// skip bound must not apply there, or a tie is lost.
    #[test]
    fn strongest_bin_keeps_ties_whose_squares_are_subnormal() {
        let first = Complex::new(6.757_028_009_001_981_4e-161, 1.019_676_070_812_916_7e-160);
        let tie = Complex::new(1.003_621_953_836_899_6e-161, 1.219_114_840_476_731_7e-160);
        assert_eq!(first.abs(), tie.abs(), "the two bins tie");
        assert!(tie.norm_sqr() < first.abs() * first.abs() * (1.0 - 1e-9));
        let s =
            Spectrum { coeffs: vec![Complex::ZERO, first, tie, Complex::ZERO], sample_period: 1.0 };
        assert_eq!(s.strongest_bin(), Some(2), "of equal maxima the last wins");
        assert_eq!(s.strongest_bin(), strongest_bin_by_max_by(&s));
    }

    #[test]
    fn strongest_bin_none_for_tiny_series() {
        let s = Spectrum::compute(&[1.0], 1.0);
        assert_eq!(s.strongest_bin(), None);
        assert!(!s.coeffs.is_empty());
        let e = Spectrum::compute(&[], 1.0);
        assert!(e.coeffs.is_empty());
    }

    #[test]
    fn amplitude_of_planted_tone() {
        let n = 1024;
        let amp = 0.4;
        let series = tone(n, 16.0, amp, 0.0);
        let s = Spectrum::compute(&series, 1.0);
        // A real sinusoid of amplitude A contributes n·A/2 to its bin.
        assert!((s.amplitude(16) - n as f64 * amp / 2.0).abs() < 1e-6);
    }

    #[test]
    fn phase_of_planted_cosine() {
        let n = 1024;
        let series: Vec<f64> =
            (0..n).map(|i| (2.0 * PI * 8.0 * i as f64 / n as f64).cos()).collect();
        let s = Spectrum::compute(&series, 1.0);
        // cos has zero phase in this DFT convention.
        assert!(s.phase(8).abs() < 1e-9);
    }

    #[test]
    fn phase_shift_moves_linearly() {
        let n = 1024;
        let shift = PI / 3.0;
        let series: Vec<f64> =
            (0..n).map(|i| (2.0 * PI * 8.0 * i as f64 / n as f64 - shift).cos()).collect();
        let s = Spectrum::compute(&series, 1.0);
        assert!((s.phase(8) + shift).abs() < 1e-9);
    }

    #[test]
    fn half_amplitudes_covers_expected_range() {
        let s = Spectrum::compute(&vec![0.25; 100], 1.0);
        let bins: Vec<usize> = s.half_amplitudes().map(|(k, _)| k).collect();
        assert_eq!(bins.first(), Some(&1));
        assert_eq!(bins.last(), Some(&50));
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn rejects_nonpositive_period() {
        let _ = Spectrum::compute(&[1.0, 2.0], 0.0);
    }

    #[test]
    fn explicit_plan_matches_cached_path() {
        let n = 1833;
        let series = tone(n, 14.0, 0.3, 0.5);
        let plan = crate::plan::plan_for(n);
        let a = Spectrum::compute_rounds(&series);
        let b = Spectrum::compute_with_plan(&series, ROUND_SECONDS, &plan);
        for k in 0..n {
            assert!((a.coeffs[k] - b.coeffs[k]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "plan length mismatch")]
    fn explicit_plan_rejects_wrong_length() {
        let plan = crate::plan::plan_for(8);
        let _ = Spectrum::compute_with_plan(&[1.0; 9], 1.0, &plan);
    }
}
