//! Probability distributions and the special functions behind them.
//!
//! ANOVA p-values need the F distribution, whose CDF is a regularized
//! incomplete beta function; everything here is implemented from scratch
//! (Lanczos log-gamma, Lentz continued fractions) to double precision.

use std::f64::consts::PI;

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 over the positive reals; uses the reflection formula
/// for `x < 0.5`.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx)
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Defined for `a, b > 0` and `x ∈ [0, 1]`; values outside are clamped to
/// the boundary results.
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "inc_beta requires a, b > 0 (got a={a}, b={b})");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the continued fraction directly where it converges fast, the
    // symmetry relation otherwise.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// CDF of the F distribution with `(d1, d2)` degrees of freedom.
pub fn f_cdf(x: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0, "degrees of freedom must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    inc_beta(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
}

/// Survival function `P(F > x)` — the p-value of an observed F statistic.
///
/// Computed via the complementary incomplete beta directly (not `1 − cdf`)
/// so tiny p-values keep full relative precision.
pub fn f_sf(x: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0, "degrees of freedom must be positive");
    if x <= 0.0 {
        return 1.0;
    }
    inc_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n−1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (i, &f) in facts.iter().enumerate() {
            assert!(close(ln_gamma((i + 1) as f64), f64::ln(f), 1e-12), "n={}", i + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        assert!(close(ln_gamma(0.5), (PI.sqrt()).ln(), 1e-12));
        // Γ(3/2) = √π/2
        assert!(close(ln_gamma(1.5), (PI.sqrt() / 2.0).ln(), 1e-12));
    }

    #[test]
    fn inc_beta_boundaries_and_symmetry() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 1.0, 0.9)] {
            let lhs = inc_beta(a, b, x);
            let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
            assert!(close(lhs, rhs, 1e-12), "a={a} b={b} x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1, 1) = x
        for &x in &[0.1, 0.25, 0.5, 0.99] {
            assert!(close(inc_beta(1.0, 1.0, x), x, 1e-12));
        }
    }

    #[test]
    fn inc_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.25}(2,2) = x²(3−2x) = 0.15625
        assert!(close(inc_beta(2.0, 2.0, 0.5), 0.5, 1e-12));
        assert!(close(inc_beta(2.0, 2.0, 0.25), 0.15625, 1e-12));
    }

    #[test]
    fn f_cdf_reference_values() {
        // F(1,1) has closed form (2/π)·atan(√x); at x = 1 that is 0.5.
        assert!(close(f_cdf(1.0, 1.0, 1.0), 0.5, 1e-10));
        assert!(close(f_cdf(3.0, 1.0, 1.0), 2.0 / PI * 3.0_f64.sqrt().atan(), 1e-10));
        // F(2, d2) has closed form 1 − (1 + 2x/d2)^{−d2/2}.
        let exact = |x: f64, d2: f64| 1.0 - (1.0 + 2.0 * x / d2).powf(-d2 / 2.0);
        assert!(close(f_cdf(4.0, 2.0, 10.0), exact(4.0, 10.0), 1e-10));
        assert!(close(f_cdf(0.3, 2.0, 6.0), exact(0.3, 6.0), 1e-10));
    }

    #[test]
    fn f_cdf_reciprocal_symmetry() {
        // P(F_{d1,d2} ≤ x) = P(F_{d2,d1} ≥ 1/x)
        for &(x, d1, d2) in &[(0.5, 5.0, 5.0), (2.0, 3.0, 7.0), (0.25, 10.0, 2.0)] {
            let lhs = f_cdf(x, d1, d2);
            let rhs = f_sf(1.0 / x, d2, d1);
            assert!(close(lhs, rhs, 1e-11), "x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn f_sf_complements_cdf() {
        for &(x, d1, d2) in &[(0.7, 3.0, 12.0), (2.5, 1.0, 30.0), (10.0, 4.0, 4.0)] {
            let s = f_sf(x, d1, d2) + f_cdf(x, d1, d2);
            assert!(close(s, 1.0, 1e-12));
        }
    }

    #[test]
    fn f_sf_small_pvalues_reference() {
        // R: 1 - pf(50, 1, 20) = 8.11457e-07 (approx)
        let p = f_sf(50.0, 1.0, 20.0);
        assert!(p > 5e-7 && p < 1.2e-6, "p = {p}");
        // Extreme statistic gives a tiny but positive p-value.
        let tiny = f_sf(1000.0, 2.0, 50.0);
        assert!(tiny > 0.0 && tiny < 1e-20);
    }

    #[test]
    fn f_distribution_edges() {
        assert_eq!(f_cdf(0.0, 3.0, 3.0), 0.0);
        assert_eq!(f_cdf(-1.0, 3.0, 3.0), 0.0);
        assert_eq!(f_sf(0.0, 3.0, 3.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "requires a, b > 0")]
    fn inc_beta_rejects_bad_shape() {
        let _ = inc_beta(0.0, 1.0, 0.5);
    }
}

/// Wilson score interval for a binomial proportion: the `(lo, hi)` range
/// for the true fraction given `successes` of `n` trials at confidence
/// `z` standard deviations (1.96 ≈ 95 %).
///
/// Well-behaved at the extremes (`p̂ = 0` or `1`) where the naive normal
/// interval collapses — exactly where the paper's country league table
/// lives (US at 0.002 with hundreds of thousands of blocks; Armenia at
/// 0.63 with a thousand).
pub fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod wilson_tests {
    use super::wilson_interval;

    #[test]
    fn interval_contains_point_estimate() {
        for &(s, n) in &[(0u64, 50u64), (1, 50), (25, 50), (49, 50), (50, 50)] {
            let (lo, hi) = wilson_interval(s, n, 1.96);
            let p = s as f64 / n as f64;
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "{s}/{n}: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn zero_successes_still_has_width() {
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.01 && hi < 0.06, "hi = {hi}");
    }

    #[test]
    fn width_shrinks_with_n() {
        let w = |n| {
            let (lo, hi) = wilson_interval(n / 2, n, 1.96);
            hi - lo
        };
        assert!(w(10_000) < w(100) / 5.0);
    }

    #[test]
    fn reference_value() {
        // Wilson 95% for 8/20: R binom::binom.wilson → [0.2188, 0.6134]
        let (lo, hi) = wilson_interval(8, 20, 1.96);
        assert!((lo - 0.2188).abs() < 0.002, "lo {lo}");
        assert!((hi - 0.6134).abs() < 0.002, "hi {hi}");
    }

    #[test]
    fn empty_sample_is_vacuous() {
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }
}
