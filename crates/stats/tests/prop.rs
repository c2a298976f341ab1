//! Property-based tests for the statistics crate.

use proptest::prelude::*;
use sleepwatch_stats::{
    anova, f_cdf, f_sf, inc_beta, linfit, mean, pearson, quantile, variance, Term,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pearson_is_bounded(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..200)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_within_range(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    #[test]
    fn variance_is_nonnegative(xs in prop::collection::vec(-1e4f64..1e4, 2..100)) {
        prop_assert!(variance(&xs).unwrap() >= 0.0);
    }

    #[test]
    fn mean_lies_between_extremes(xs in prop::collection::vec(-1e4f64..1e4, 1..100)) {
        let m = mean(&xs).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    #[test]
    fn inc_beta_is_a_cdf(a in 0.1f64..50.0, b in 0.1f64..50.0, x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let va = inc_beta(a, b, lo);
        let vb = inc_beta(a, b, hi);
        prop_assert!((0.0..=1.0).contains(&va));
        prop_assert!((0.0..=1.0).contains(&vb));
        prop_assert!(va <= vb + 1e-9, "monotone: I({lo})={va} > I({hi})={vb}");
    }

    #[test]
    fn f_cdf_and_sf_sum_to_one(x in 0.0f64..100.0, d1 in 0.5f64..60.0, d2 in 0.5f64..60.0) {
        let s = f_cdf(x, d1, d2) + f_sf(x, d1, d2);
        prop_assert!((s - 1.0).abs() < 1e-9, "sum {s}");
    }

    #[test]
    fn linfit_residuals_beat_flat_model(
        pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..100)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(fit) = linfit(&xs, &ys) {
            let my = ys.iter().sum::<f64>() / ys.len() as f64;
            let rss_fit: f64 =
                xs.iter().zip(&ys).map(|(&x, &y)| (y - fit.predict(x)).powi(2)).sum();
            let rss_flat: f64 = ys.iter().map(|&y| (y - my).powi(2)).sum();
            prop_assert!(rss_fit <= rss_flat + 1e-6 * rss_flat.max(1.0));
        }
    }

    #[test]
    fn anova_decomposition_sums_to_total(
        ys in prop::collection::vec(-10.0f64..10.0, 8..60),
        slope in -3.0f64..3.0,
    ) {
        let n = ys.len();
        let x1: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 + slope).collect();
        let t = anova(&ys, &[Term::continuous("a", &x1), Term::continuous("b", &x2)]);
        if let Ok(t) = t {
            let ss_terms: f64 = t.rows.iter().map(|r| r.sum_sq).sum();
            prop_assert!(
                (ss_terms + t.ss_residual - t.ss_total).abs() < 1e-6 * t.ss_total.max(1.0),
                "{} + {} vs {}", ss_terms, t.ss_residual, t.ss_total
            );
            for r in &t.rows {
                prop_assert!(r.sum_sq >= -1e-9);
                if !r.p.is_nan() {
                    prop_assert!((0.0..=1.0).contains(&r.p));
                }
            }
        }
    }
}
