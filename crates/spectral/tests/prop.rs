//! Property-based tests for the spectral crate: FFT algebraic identities
//! over arbitrary inputs and classifier invariants.

use proptest::prelude::*;
use sleepwatch_spectral::{
    autocorrelation, classify, dft_naive, fft, fft_real, goertzel, ifft, plan_for, Complex,
    DiurnalConfig, LombScargle, Spectrum,
};

fn complex_vec(max_len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(re, im)| Complex::new(re, im)),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrips_any_length(xs in complex_vec(300)) {
        let back = ifft(&fft(&xs));
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fft_matches_naive_dft(xs in complex_vec(96)) {
        let fast = fft(&xs);
        let slow = dft_naive(&xs);
        let scale = xs.iter().map(|z| z.abs()).fold(1.0, f64::max) * xs.len() as f64;
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-9 * scale, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn parseval_holds(xs in complex_vec(200)) {
        let n = xs.len() as f64;
        let time: f64 = xs.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = fft(&xs).iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
        prop_assert!((time - freq).abs() <= 1e-7 * time.max(1.0));
    }

    #[test]
    fn fft_is_linear(
        xs in complex_vec(64),
        k in -5.0f64..5.0,
    ) {
        let scaled: Vec<Complex> = xs.iter().map(|&z| z.scale(k)).collect();
        let fa = fft(&xs);
        let fb = fft(&scaled);
        let bound = xs.iter().map(|z| z.abs()).fold(1.0, f64::max) * xs.len() as f64;
        for (a, b) in fa.iter().zip(&fb) {
            prop_assert!((a.scale(k) - *b).abs() < 1e-9 * bound.max(1.0) * (k.abs() + 1.0));
        }
    }

    #[test]
    fn real_input_spectrum_is_conjugate_symmetric(
        xs in prop::collection::vec(-10.0f64..10.0, 2..200)
    ) {
        let spec = sleepwatch_spectral::fft_real(&xs);
        let n = xs.len();
        let bound = 1e-8 * n as f64 * 10.0;
        for k in 1..n {
            prop_assert!((spec[k] - spec[n - k].conj()).abs() < bound);
        }
    }

    #[test]
    fn classifier_never_panics_and_is_consistent(
        xs in prop::collection::vec(0.0f64..1.0, 10..400)
    ) {
        let spectrum = Spectrum::compute_rounds(&xs);
        let report = classify(&spectrum, &DiurnalConfig::default());
        // Phase is present iff diurnal.
        prop_assert_eq!(report.phase.is_some(), report.class.is_diurnal());
        // Dominance ratio is positive.
        prop_assert!(report.dominance_ratio() >= 0.0);
    }

    #[test]
    fn trend_slope_bounded_by_value_range(
        xs in prop::collection::vec(0.0f64..1.0, 2..500)
    ) {
        let (slope, intercept) = sleepwatch_spectral::linear_fit(&xs);
        // A series confined to [0,1] cannot have |slope| > 1 per sample.
        prop_assert!(slope.abs() <= 1.0);
        prop_assert!(intercept.is_finite());
    }

    #[test]
    fn goertzel_matches_fft_at_any_bin(
        xs in prop::collection::vec(-5.0f64..5.0, 4..200),
        k_frac in 0.0f64..1.0,
    ) {
        let n = xs.len();
        let k = ((n - 1) as f64 * k_frac) as usize;
        let g = goertzel(&xs, k);
        let full = fft_real(&xs)[k];
        let bound = 1e-7 * n as f64 * 5.0;
        prop_assert!((g - full).abs() < bound, "bin {k}: {g:?} vs {full:?}");
    }

    #[test]
    fn autocorrelation_is_bounded(
        xs in prop::collection::vec(-10.0f64..10.0, 3..300),
        lag in 0usize..400,
    ) {
        let r = autocorrelation(&xs, lag);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
    }

    #[test]
    fn lomb_scargle_power_is_nonnegative(
        vals in prop::collection::vec(0.0f64..1.0, 3..150),
    ) {
        let samples: Vec<(f64, f64)> =
            vals.iter().enumerate().map(|(i, &v)| (i as f64 * 660.0, v)).collect();
        let ls = LombScargle::compute(&samples, 0.2, 6.0, 50);
        for (i, &p) in ls.power.iter().enumerate() {
            prop_assert!(p >= -1e-9, "negative power at {i}: {p}");
            prop_assert!(p.is_finite());
        }
    }
}

// The cache hands every caller one shared plan per length. (Planned vs
// unplanned kernels are compared beside the reference kernels, in
// `sleepwatch-testkit`'s `tests/oracles.rs`.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_cache_returns_one_arc_per_length(n in 1usize..=4096) {
        let a = plan_for(n);
        let b = plan_for(n);
        prop_assert!(std::sync::Arc::ptr_eq(&a, &b), "length {n} planned twice");
        prop_assert_eq!(a.len(), n);
    }
}

// The classifier and `strongest_bin` take `hypot` only where it can change
// the answer. The references are their bodies from before that: one
// `hypot` per bin, the bin families by division.
mod reference {
    use sleepwatch_spectral::{DiurnalClass, DiurnalConfig, DiurnalReport, Spectrum};

    fn is_harmonic(k: usize, base: usize, tol: usize) -> bool {
        if base == 0 {
            return false;
        }
        let m = (k + tol) / base;
        m >= 2 && k.abs_diff(m * base) <= tol
    }

    fn is_fundamental(k: usize, base: usize, tol: usize) -> bool {
        let lo = base.saturating_sub(tol).max(1);
        let hi = base + 1 + tol;
        (lo..=hi).contains(&k)
    }

    pub fn classify(spectrum: &Spectrum, cfg: &DiurnalConfig) -> DiurnalReport {
        let base = spectrum.diurnal_bin();
        let nyq = spectrum.nyquist_bin();
        let tol = cfg.bin_tolerance;
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
        for (k, amp) in spectrum.half_amplitudes() {
            if amp > global_max.1 {
                global_max = (k, amp);
            }
            if is_fundamental(k, base, tol) {
                continue;
            }
            if is_harmonic(k, base, tol) {
                if strongest_harmonic.map_or(true, |(_, a)| amp > a) {
                    strongest_harmonic = Some((k, amp));
                }
            } else if strongest_competitor.map_or(true, |(_, a)| amp > a) {
                strongest_competitor = Some((k, amp));
            }
        }
        let first_harmonic_family =
            |k: usize| k.abs_diff(2 * base) <= tol || k.abs_diff(2 * (base + 1)) <= tol;
        let class = if too_short {
            DiurnalClass::NonDiurnal
        } else {
            let peak_at_fundamental = is_fundamental(global_max.0, base, tol);
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

    pub fn strongest_bin(spectrum: &Spectrum) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (k, amp) in spectrum.half_amplitudes() {
            if !best.is_some_and(|(_, top)| top > amp) {
                best = Some((k, amp));
            }
        }
        best.map(|(k, _)| k)
    }
}

/// A report as bits, so NaN amplitudes and phases compare equal to
/// themselves.
fn report_bits(r: &sleepwatch_spectral::DiurnalReport) -> impl PartialEq + std::fmt::Debug {
    let pair = |p: Option<(usize, f64)>| p.map(|(k, a)| (k, a.to_bits()));
    (
        r.class,
        r.fundamental_bin,
        r.fundamental_amp.to_bits(),
        pair(r.strongest_competitor),
        pair(r.strongest_harmonic),
        r.phase.map(f64::to_bits),
        r.too_short,
    )
}

/// Components the lazy sweep must get right: exact ties, signed zeros,
/// infinities, NaN, subnormals, squares that underflow or overflow, and
/// the edges of the range where its bound applies.
const SPECIAL: [f64; 24] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    3.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    1e-310,
    f64::MIN_POSITIVE,
    1e-160,
    1e-100,
    1.000_000_000_1e-100,
    1e100,
    0.999_999_999_9e100,
    1e150,
    -1e150,
    1.000_000_1e150,
    1e155,
    f64::MAX,
    1.0 + f64::EPSILON,
    1.0 - f64::EPSILON / 2.0,
];

/// `n` coefficients from `seed`: mostly noise at a random scale, some
/// special components, and repeats of earlier coefficients (exactly, or
/// with the same magnitude by sign flip or swap), so maxima tie.
fn coefficients(n: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let scale = [1e-120, 1e-3, 1.0, 1e3, 1e120, 1e150][(next() % 6) as usize];
    let mut coeffs: Vec<Complex> = Vec::with_capacity(n);
    for k in 0..n {
        let pick = next() % 16;
        let uniform = |bits: u64| ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale;
        let c = match pick {
            0 => Complex::new(SPECIAL[(next() % 24) as usize], SPECIAL[(next() % 24) as usize]),
            1 => Complex::new(SPECIAL[(next() % 24) as usize], uniform(next())),
            2 | 3 if k > 0 => {
                let c = coeffs[(next() % k as u64) as usize];
                match next() % 3 {
                    0 => c,
                    1 => Complex::new(-c.re, c.im),
                    _ => Complex::new(c.im, c.re),
                }
            }
            _ => Complex::new(uniform(next()), uniform(next())),
        };
        coeffs.push(c);
    }
    coeffs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lazy_sweep_matches_a_hypot_per_bin(
        n in 2usize..=5_000,
        seed in any::<u64>(),
        placement in 0usize..5,
        tol in 0usize..4,
        ratio in 0usize..3,
        short_allowed in any::<bool>(),
    ) {
        // The daily bin at the Nyquist edge (below, on, past it), anywhere
        // inside, or where 11-minute rounds put it.
        let nyq = n / 2;
        let base = match placement {
            0 => nyq.saturating_sub(1).max(1),
            1 => nyq.max(1),
            2 => nyq + 1,
            3 => 1 + (seed as usize >> 7) % nyq.max(1),
            _ => 0,
        };
        let period = if base == 0 { 660.0 } else { 86_400.0 * base as f64 / n as f64 };
        let mut scratch = sleepwatch_spectral::SpectrumScratch::new();
        scratch.prepare_coeffs(n, period).copy_from_slice(&coefficients(n, seed));
        let spectrum = scratch.spectrum();
        let strict_ratio = [2.0, 1.0, 0.5][ratio];
        let min_days = if short_allowed { 0.0 } else { 2.0 };
        let cfg = DiurnalConfig { strict_ratio, bin_tolerance: tol, min_days };
        prop_assert_eq!(
            report_bits(&classify(spectrum, &cfg)),
            report_bits(&reference::classify(spectrum, &cfg))
        );
        prop_assert_eq!(spectrum.strongest_bin(), reference::strongest_bin(spectrum));
    }
}

// The odd-length real transform convolves for bins 0..=n/2 only, at
// `(n + n/2).next_power_of_two()` points, and mirrors the rest.

/// Every odd length to 301, then both sides of each `2^p/1.5` boundary
/// (at 683 and 2731 `n + n/2` is the power of two itself, so the filter's
/// front and back tap runs touch) plus the lengths surveys produce.
fn odd_lengths() -> impl Iterator<Item = usize> {
    (3..=301).step_by(2).chain([393, 683, 685, 1365, 1367, 1833, 2731, 2733, 4451, 5461, 5463])
}

fn real_series(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.6 + (i as f64 * 0.37).sin() + 0.25 * (i as f64 * 1.9).cos()).collect()
}

fn widened(xs: &[f64]) -> Vec<Complex> {
    xs.iter().map(|&x| Complex::from_re(x)).collect()
}

#[test]
fn odd_real_lower_half_matches_complex_transform() {
    for n in odd_lengths() {
        let xs = real_series(n);
        let real = fft_real(&xs);
        assert_eq!(real.len(), n);
        let tol = 1e-9 * n as f64;
        let full = fft(&widened(&xs));
        for k in 0..=n / 2 {
            assert!(
                (real[k] - full[k]).abs() <= tol,
                "n={n} bin {k}: {:?} vs {:?}",
                real[k],
                full[k]
            );
        }
        if n <= 301 {
            let naive = dft_naive(&widened(&xs));
            for k in 0..=n / 2 {
                assert!((real[k] - naive[k]).abs() <= tol, "n={n} bin {k} vs naive");
            }
        }
    }
}

#[test]
fn odd_real_upper_half_is_the_exact_mirror() {
    for n in odd_lengths() {
        let real = fft_real(&real_series(n));
        for k in 1..=n / 2 {
            let (lo, hi) = (real[k].conj(), real[n - k]);
            assert_eq!(
                (hi.re.to_bits(), hi.im.to_bits()),
                (lo.re.to_bits(), lo.im.to_bits()),
                "n={n} bin {}",
                n - k
            );
        }
    }
}

/// Where the real convolution is as long as the complex one the plan runs
/// it on the complex path's own tables, so the lower half is the complex
/// transform's to the bit.
#[test]
fn odd_real_lower_half_is_bitwise_complex_where_convolutions_coincide() {
    for n in [393usize, 1833] {
        let plan = plan_for(n);
        assert_eq!(plan.real_scratch_len(), plan.scratch_len(), "n={n}");
        let xs = real_series(n);
        let real = plan.fft_real(&xs);
        let full = plan.fft(&widened(&xs));
        for k in 0..=n / 2 {
            assert_eq!(
                (real[k].re.to_bits(), real[k].im.to_bits()),
                (full[k].re.to_bits(), full[k].im.to_bits()),
                "n={n} bin {k}"
            );
        }
    }
}
