//! Property-based tests for the availability estimators and cleaning.

use proptest::prelude::*;
use sleepwatch_availability::{
    bucket_rounds, clean_series, fill_gaps, midnight_trim, AvailabilityEstimator,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn estimates_stay_probabilities(
        initial in 0.0f64..1.0,
        rounds in prop::collection::vec((0u32..=15, 0u32..=15), 1..300),
    ) {
        let mut est = AvailabilityEstimator::with_default_config(initial);
        for (a, b) in rounds {
            let (p, t) = if a <= b { (a, b) } else { (b, a) };
            let e = est.observe(p, t);
            prop_assert!((0.0..=1.0).contains(&e.a_short), "Âs = {}", e.a_short);
            prop_assert!((0.0..=1.0).contains(&e.a_long), "Âl = {}", e.a_long);
            prop_assert!(e.a_operational <= e.a_long.max(0.1) + 1e-12);
            prop_assert!(e.a_operational >= 0.1 - 1e-12, "floor violated");
        }
    }

    #[test]
    fn all_positive_rounds_drive_estimates_up(
        initial in 0.0f64..0.5,
        n in 50usize..300,
    ) {
        let mut est = AvailabilityEstimator::with_default_config(initial);
        for _ in 0..n {
            est.observe(1, 1);
        }
        prop_assert!(est.a_short() > 0.9, "Âs = {}", est.a_short());
    }

    #[test]
    fn all_negative_rounds_drive_estimates_down(
        initial in 0.5f64..1.0,
        n in 100usize..400,
    ) {
        let mut est = AvailabilityEstimator::with_default_config(initial);
        for _ in 0..n {
            est.observe(0, 5);
        }
        prop_assert!(est.a_short() < 0.1, "Âs = {}", est.a_short());
    }

    #[test]
    fn fill_gaps_preserves_observed_values(
        sparse in prop::collection::vec(prop::option::of(0.0f64..1.0), 1..200),
    ) {
        let (dense, filled) = fill_gaps(&sparse);
        prop_assert_eq!(dense.len(), sparse.len());
        let gaps = sparse.iter().filter(|v| v.is_none()).count();
        prop_assert_eq!(filled, gaps);
        for (d, s) in dense.iter().zip(&sparse) {
            if let Some(v) = s {
                prop_assert_eq!(d, v);
            }
        }
        // Every filled value equals some observed value (or 0 if none).
        let observed: Vec<f64> = sparse.iter().flatten().copied().collect();
        for d in &dense {
            prop_assert!(observed.contains(d) || (observed.is_empty() && *d == 0.0));
        }
    }

    #[test]
    fn bucketing_never_exceeds_bounds(
        obs in prop::collection::vec((0u64..500, 0.0f64..1.0), 0..300),
        n in 1usize..400,
    ) {
        let b = bucket_rounds(&obs, n);
        prop_assert_eq!(b.len(), n);
    }

    #[test]
    fn midnight_trim_is_within_series_and_day_aligned(
        start in 0u64..2_000_000_000,
        len in 1usize..6_000,
    ) {
        let r = midnight_trim(start, len, 660);
        prop_assert!(r.end <= len);
        prop_assert!(r.start <= r.end);
        if !r.is_empty() {
            let t0 = start + r.start as u64 * 660;
            // First kept sample lands within one round after a midnight.
            prop_assert!(t0 % 86_400 < 660, "{}", t0 % 86_400);
            // The kept span covers at least one whole day.
            prop_assert!(r.len() as u64 * 660 >= 86_400 - 660);
        }
    }

    // --- uncovered edges: empty / all-missing input ---

    #[test]
    fn empty_observations_clean_to_all_interpolated_zeros(
        n in 1usize..4_000,
        start in 0u64..2_000_000_000,
    ) {
        // No observation at all: every round is interpolated (fill
        // fraction 1) and the series is the zero fill, trimmed.
        let (series, fill) = clean_series(&[], n, start, 660);
        prop_assert_eq!(fill, 1.0);
        prop_assert!(series.iter().all(|&v| v == 0.0));
        prop_assert_eq!(series.len(), midnight_trim(start, n, 660).len());
    }

    #[test]
    fn zero_rounds_is_a_clean_empty_series(start in 0u64..2_000_000_000) {
        // Degenerate request: nothing to clean, and no division by the
        // zero round count.
        let (series, fill) = clean_series(&[(0, 0.5)], 0, start, 660);
        prop_assert!(series.is_empty());
        prop_assert_eq!(fill, 0.0);
    }

    #[test]
    fn all_out_of_range_observations_act_as_missing(
        n in 1usize..500,
        extra in 0u64..1_000,
        v in 0.0f64..1.0,
    ) {
        // Every observation beyond the round horizon is dropped, leaving
        // an effectively all-missing series.
        let obs = [(n as u64 + extra, v)];
        let b = bucket_rounds(&obs, n);
        prop_assert!(b.iter().all(Option::is_none));
        let (dense, filled) = fill_gaps(&b);
        prop_assert_eq!(filled, n);
        prop_assert!(dense.iter().all(|&x| x == 0.0));
    }

    // --- uncovered edges: duplicate timestamps at the series boundary ---

    #[test]
    fn duplicates_at_first_and_last_round_keep_latest(
        n in 2usize..400,
        early in 0.0f64..1.0,
        late in 0.0f64..1.0,
    ) {
        let last = n as u64 - 1;
        // Duplicates at both boundary rounds, plus one exactly past the
        // end (must be dropped, not wrapped or clamped into range).
        let obs = [(0u64, early), (0, late), (last, early), (last, late), (n as u64, 0.99)];
        let b = bucket_rounds(&obs, n);
        prop_assert_eq!(b[0], Some(late), "first round keeps input-latest duplicate");
        prop_assert_eq!(b[n - 1], Some(late), "last round keeps input-latest duplicate");
        prop_assert!(b[1..n - 1].iter().all(Option::is_none));
    }

    #[test]
    fn duplicate_heavy_streams_never_change_series_shape(
        n in 1usize..300,
        dups in 1usize..6,
        v in 0.0f64..1.0,
    ) {
        // Every round duplicated `dups` times: shape and fill fraction
        // must match the duplicate-free stream exactly.
        let mut obs = Vec::new();
        for r in 0..n as u64 {
            for d in 0..dups {
                obs.push((r, v * (d + 1) as f64 / dups as f64));
            }
        }
        let (series, fill) = clean_series(&obs, n, 0, 660);
        prop_assert_eq!(fill, 0.0, "duplicates must not count as gaps");
        prop_assert_eq!(series.len(), midnight_trim(0, n, 660).len());
        // The kept value is the last duplicate, i.e. the full `v`.
        prop_assert!(series.iter().all(|&x| (x - v).abs() < 1e-12));
    }

    // --- uncovered edges: run starting exactly at midnight ---

    #[test]
    fn midnight_aligned_start_keeps_the_first_sample(
        days in 1usize..40,
        extra in 0usize..131,
    ) {
        // 86 400 / 660 is not an integer (130.9 rounds/day), so a
        // midnight-aligned start must anchor the trim at index 0 rather
        // than skipping to the *next* midnight.
        let start = 1_353_024_000u64; // 2012-11-16 00:00:00 UTC
        prop_assert_eq!(start % 86_400, 0);
        let len = days * 131 + extra;
        let r = midnight_trim(start, len, 660);
        if !r.is_empty() {
            prop_assert_eq!(r.start, 0, "aligned start must not be trimmed away");
            // End lands strictly before the last midnight in range.
            let t_last = start + (r.end as u64 - 1) * 660;
            prop_assert!(86_400 - (t_last % 86_400) <= 660);
        } else {
            // Only when the series spans less than one full day.
            prop_assert!(len as u64 * 660 < 2 * 86_400);
        }
    }
}
