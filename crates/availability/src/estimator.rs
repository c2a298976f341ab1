//! The §2.1 availability estimators.
//!
//! Per block, each adaptive-probing round yields `p` positive responses of
//! `t` total probes. The estimators smooth these with exponentially
//! weighted moving averages, tracking the numerator and denominator
//! *separately* — applying EWMA to the ratio directly skews the estimate
//! (for the same reason normalized benchmark results need geometric means):
//!
//! ```text
//! p̂s = αs·p + (1−αs)·p̂s        t̂s = αs·t + (1−αs)·t̂s        Âs = p̂s/t̂s
//! ```
//!
//! with `αs = 0.1`; the long-term pair uses `αl = 0.01`. The *operational*
//! estimate must not exceed the true availability — Trinocular would emit
//! false outages otherwise — so it subtracts half the smoothed absolute
//! deviation and floors at 0.1:
//!
//! ```text
//! d̂l = αl·|Âl − p/t| + (1−αl)·d̂l        Âo = max(Âl − d̂l/2, 0.1)
//! ```
//!
//! The paper fixes all three, and so does this module: `ALPHA_SHORT`
//! (αs = 0.1), `ALPHA_LONG` (αl = 0.01) and `MIN_OPERATIONAL` (0.1) are
//! private constants, not options.
//!
//! [`DirectEwmaEstimator`] implements the variation the paper's `A12w`
//! dataset used (EWMA directly on `p/t`), which consistently over-estimates
//! — kept for the ablation experiment.

/// Short-term gain `αs` (paper: 0.1).
const ALPHA_SHORT: f64 = 0.1;
/// Long-term gain `αl` (paper: 0.01).
const ALPHA_LONG: f64 = 0.01;
/// Floor on the operational estimate (paper: 0.1 — smaller values make
/// Trinocular probe excessively).
const MIN_OPERATIONAL: f64 = 0.1;

/// The three estimates after a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimates {
    /// Short-term `Âs` — noisy, fast; drives diurnal detection.
    pub a_short: f64,
    /// Long-term `Âl`.
    pub a_long: f64,
    /// Conservative operational `Âo ≤ Âl`; drives Trinocular's belief.
    pub a_operational: f64,
}

/// Paper-faithful availability estimator for one block.
#[derive(Debug, Clone)]
pub struct AvailabilityEstimator {
    p_short: f64,
    t_short: f64,
    p_long: f64,
    t_long: f64,
    deviation: f64,
}

impl AvailabilityEstimator {
    /// Starts from a historical availability estimate (`initial_a`), which
    /// may be significantly stale (§2.1.1); the estimator must converge
    /// away from it. The gains and floor are the paper's, fixed.
    pub fn with_default_config(initial_a: f64) -> Self {
        let a0 = initial_a.clamp(0.0, 1.0);
        AvailabilityEstimator { p_short: a0, t_short: 1.0, p_long: a0, t_long: 1.0, deviation: 0.0 }
    }

    /// Ingests one round of `positives` of `total` probes and returns the
    /// updated estimates. Rounds with zero probes leave state untouched.
    pub fn observe(&mut self, positives: u32, total: u32) -> Estimates {
        debug_assert!(positives <= total, "p = {positives} > t = {total}");
        if total == 0 {
            return self.estimates();
        }
        let p = positives as f64;
        let t = total as f64;
        let (als, all) = (ALPHA_SHORT, ALPHA_LONG);

        self.p_short = als * p + (1.0 - als) * self.p_short;
        self.t_short = als * t + (1.0 - als) * self.t_short;
        self.p_long = all * p + (1.0 - all) * self.p_long;
        self.t_long = all * t + (1.0 - all) * self.t_long;

        let a_long = self.p_long / self.t_long;
        self.deviation = all * (a_long - p / t).abs() + (1.0 - all) * self.deviation;
        self.estimates()
    }

    /// The current estimates without observing anything.
    pub(crate) fn estimates(&self) -> Estimates {
        let a_long = self.p_long / self.t_long;
        Estimates {
            a_short: self.p_short / self.t_short,
            a_long,
            a_operational: (a_long - self.deviation / 2.0).max(MIN_OPERATIONAL),
        }
    }

    /// Short-term `Âs`.
    pub fn a_short(&self) -> f64 {
        self.p_short / self.t_short
    }

    /// Long-term `Âl`.
    pub fn a_long(&self) -> f64 {
        self.p_long / self.t_long
    }

    /// Operational `Âo`.
    pub fn a_operational(&self) -> f64 {
        self.estimates().a_operational
    }
}

/// The `A12w`-era variation: EWMA applied directly to the per-round ratio
/// `p/t`. Because adaptive probing stops on the first positive, single-probe
/// all-positive rounds (ratio 1.0) carry the same weight as long
/// mostly-negative rounds, so this estimator systematically over-estimates.
#[derive(Debug, Clone)]
pub struct DirectEwmaEstimator {
    alpha: f64,
    a: f64,
}

impl DirectEwmaEstimator {
    /// Starts from a historical estimate, with gain `alpha`.
    pub fn new(initial_a: f64, alpha: f64) -> Self {
        DirectEwmaEstimator { alpha, a: initial_a.clamp(0.0, 1.0) }
    }

    /// Ingests one round; returns the updated estimate.
    pub fn observe(&mut self, positives: u32, total: u32) -> f64 {
        if total > 0 {
            let ratio = positives as f64 / total as f64;
            self.a = self.alpha * ratio + (1.0 - self.alpha) * self.a;
        }
        self.a
    }

    /// The current estimate.
    pub fn a(&self) -> f64 {
        self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates adaptive probing of a block with true availability `a`:
    /// probe addresses until one answers or `max` probes are spent (the
    /// positive-response bias the paper corrects for).
    fn adaptive_round(a: f64, max: u32, state: &mut u64) -> (u32, u32) {
        let mut t = 0;
        for _ in 0..max {
            t += 1;
            // xorshift for cheap reproducible draws
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            let u = (*state >> 11) as f64 / (1u64 << 53) as f64;
            if u < a {
                return (1, t);
            }
        }
        (0, t)
    }

    #[test]
    fn converges_to_constant_availability() {
        let mut est = AvailabilityEstimator::with_default_config(0.9);
        let mut rng = 42u64;
        let truth = 0.35;
        for _ in 0..3_000 {
            let (p, t) = adaptive_round(truth, 15, &mut rng);
            est.observe(p, t);
        }
        let e = est.estimates();
        assert!((e.a_short - truth).abs() < 0.10, "Âs = {}", e.a_short);
        assert!((e.a_long - truth).abs() < 0.05, "Âl = {}", e.a_long);
    }

    #[test]
    fn operational_stays_below_long_term() {
        let mut est = AvailabilityEstimator::with_default_config(0.5);
        let mut rng = 7u64;
        for _ in 0..2_000 {
            let (p, t) = adaptive_round(0.6, 15, &mut rng);
            let e = est.observe(p, t);
            assert!(e.a_operational <= e.a_long + 1e-12);
        }
    }

    #[test]
    fn operational_rarely_exceeds_truth_once_converged() {
        // The design goal: Âo under-estimates (paper: 94 % of rounds).
        let truth = 0.55;
        let mut est = AvailabilityEstimator::with_default_config(truth);
        let mut rng = 99u64;
        let mut over = 0;
        let mut total = 0;
        for i in 0..5_000 {
            let (p, t) = adaptive_round(truth, 15, &mut rng);
            let e = est.observe(p, t);
            if i > 500 {
                total += 1;
                if e.a_operational > truth {
                    over += 1;
                }
            }
        }
        let frac_over = over as f64 / total as f64;
        assert!(frac_over < 0.10, "Âo exceeded truth {:.1}% of rounds", frac_over * 100.0);
    }

    #[test]
    fn operational_floor_applies() {
        let mut est = AvailabilityEstimator::with_default_config(0.05);
        for _ in 0..100 {
            let e = est.observe(0, 15);
            assert!(e.a_operational >= 0.1);
        }
    }

    #[test]
    fn stale_initialization_decays() {
        // Start way off (0.9) against a truth of 0.2; the short-term
        // estimate must cross below 0.4 within ~50 rounds (gain 0.1).
        let mut est = AvailabilityEstimator::with_default_config(0.9);
        let mut rng = 5u64;
        let mut crossed_at = None;
        for i in 0..400 {
            let (p, t) = adaptive_round(0.2, 15, &mut rng);
            let e = est.observe(p, t);
            if e.a_short < 0.4 && crossed_at.is_none() {
                crossed_at = Some(i);
            }
        }
        assert!(crossed_at.expect("must converge") < 60);
    }

    #[test]
    fn short_term_reacts_faster_than_long_term() {
        let mut est = AvailabilityEstimator::with_default_config(0.8);
        // Healthy block: single positive probe per round.
        for _ in 0..500 {
            est.observe(1, 1);
        }
        // Sudden drop to zero availability (full 15-probe rounds).
        for _ in 0..30 {
            est.observe(0, 15);
        }
        let e = est.estimates();
        assert!(e.a_short < 0.05, "Âs should collapse, got {}", e.a_short);
        // Âl lags well behind — note the count-EWMA moves faster downward
        // than a ratio EWMA would, because failing rounds carry 15× the
        // probe weight of healthy ones.
        assert!(e.a_long > 3.0 * e.a_short, "Âl should lag Âs: {} vs {}", e.a_long, e.a_short);
        assert!(e.a_long > 0.1, "Âl lag floor, got {}", e.a_long);
    }

    #[test]
    fn zero_probe_rounds_are_ignored() {
        let mut est = AvailabilityEstimator::with_default_config(0.5);
        let before = est.estimates();
        let after = est.observe(0, 0);
        assert_eq!(before, after);
    }

    #[test]
    fn ratio_tracking_beats_direct_ewma_under_adaptive_bias() {
        // The §2.1.2 claim: direct EWMA of the ratio over-estimates under
        // stop-on-first-positive probing; separate (p, t) tracking doesn't.
        let truth = 0.3;
        let mut paper = AvailabilityEstimator::with_default_config(truth);
        let mut direct = DirectEwmaEstimator::new(truth, 0.1);
        let mut rng = 2024u64;
        let mut paper_sum = 0.0;
        let mut direct_sum = 0.0;
        let mut n = 0.0;
        for i in 0..8_000 {
            let (p, t) = adaptive_round(truth, 15, &mut rng);
            let e = paper.observe(p, t);
            let d = direct.observe(p, t);
            if i > 1_000 {
                paper_sum += e.a_short;
                direct_sum += d;
                n += 1.0;
            }
        }
        let paper_mean = paper_sum / n;
        let direct_mean = direct_sum / n;
        assert!(
            direct_mean > truth + 0.05,
            "direct EWMA should over-estimate: {direct_mean} vs {truth}"
        );
        assert!(
            (paper_mean - truth).abs() < 0.05,
            "ratio tracking should be unbiased: {paper_mean} vs {truth}"
        );
        assert!(direct_mean > paper_mean);
    }

    #[test]
    fn estimates_accessors_agree() {
        let mut est = AvailabilityEstimator::with_default_config(0.5);
        est.observe(3, 5);
        let e = est.estimates();
        assert_eq!(e.a_short, est.a_short());
        assert_eq!(e.a_long, est.a_long());
        assert_eq!(e.a_operational, est.a_operational());
    }

    #[test]
    fn one_observe_is_exactly_the_paper_gain_update() {
        // Pins αs = 0.1 and αl = 0.01 by value: from A = 0.5 (p̂ = 0.5,
        // t̂ = 1), one round of 3/5 moves each pair by exactly its gain.
        let mut est = AvailabilityEstimator::with_default_config(0.5);
        let e = est.observe(3, 5);
        let a_short = (0.1 * 3.0 + (1.0 - 0.1) * 0.5) / (0.1 * 5.0 + (1.0 - 0.1) * 1.0);
        let a_long = (0.01 * 3.0 + (1.0 - 0.01) * 0.5) / (0.01 * 5.0 + (1.0 - 0.01) * 1.0);
        assert_eq!(e.a_short, a_short);
        assert_eq!(e.a_long, a_long);
    }
}
