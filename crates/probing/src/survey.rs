//! Full-enumeration surveys (the paper's ground-truth datasets, §2.5).
//!
//! An Internet survey probes *every* address of each block every 11 minutes
//! for about two weeks. With complete data, block availability needs no
//! estimation: `A(t)` is simply the fraction of ever-responding addresses
//! that answered in round `t`. The validation experiments (§3) compare the
//! adaptive estimators against these measurements.

use crate::faults::{burst_loses_response, BurstWindow, FaultPlan};
use sleepwatch_simnet::{BlockSpec, ProbeMemo, ROUND_SECONDS};

/// Result of surveying one block.
#[derive(Debug, Clone)]
pub struct SurveyResult {
    /// The surveyed block's id.
    pub block_id: u64,
    /// Number of rounds surveyed.
    pub rounds: u64,
    /// Responders per round (count of addresses answering).
    pub responders: Vec<u32>,
    /// Which addresses responded at least once (index = last octet).
    pub ever_responded: [bool; 256],
    /// Total probes sent (256 × rounds).
    pub total_probes: u64,
}

impl SurveyResult {
    /// `|E(b)|` as measured: addresses that responded at least once.
    pub fn ever_count(&self) -> usize {
        self.ever_responded.iter().filter(|&&b| b).count()
    }

    /// The survey's availability series `A(t) = responders(t) / |E(b)|`
    /// (all zeros when nothing ever responded).
    pub fn availability_series(&self) -> Vec<f64> {
        let e = self.ever_count();
        if e == 0 {
            return vec![0.0; self.responders.len()];
        }
        self.responders.iter().map(|&r| r as f64 / e as f64).collect()
    }

    /// Mean availability over the whole survey.
    pub fn mean_availability(&self) -> f64 {
        let s = self.availability_series();
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }
}

/// Surveys `block` for `rounds` rounds starting at `start_time`.
pub fn survey_block(block: &BlockSpec, start_time: u64, rounds: u64) -> SurveyResult {
    survey_block_with_faults(block, start_time, rounds, &FaultPlan::none())
}

/// [`survey_block`] under an injected fault regime. Surveys see the
/// collection-side faults — correlated loss bursts, vantage blackouts
/// (rounds recorded with zero responders) and truncation; prober-specific
/// mechanisms (restarts, walk churn, record corruption) don't apply to
/// full enumeration and are ignored. The empty plan takes the identical
/// code path and draws nothing extra.
pub fn survey_block_with_faults(
    block: &BlockSpec,
    start_time: u64,
    rounds: u64,
    plan: &FaultPlan,
) -> SurveyResult {
    let mut responders = Vec::with_capacity(rounds as usize);
    let mut ever = [false; 256];
    // Probing all 256 is the survey's definition, but inactive addresses
    // can never respond in this world — skipping them changes no output,
    // only wall-clock. Keep the full-space accounting for the probe budget.
    let active = block.ever_active_addrs();
    // Every address is probed 131 times a day; draw its schedule once.
    let mut memo = ProbeMemo::new(block);
    let mut surveyed = 0u64;
    let mut bursts = BurstWindow::UNDRAWN;
    let loss_key = plan.loss_key(block.id);
    for r in 0..rounds {
        if plan.truncates_at(r) {
            break;
        }
        surveyed += 1;
        let time = start_time + r * ROUND_SECONDS;
        if plan.blacked_out(r) {
            // Probes were sent but every response vanished with the
            // vantage: the round books as fully silent.
            responders.push(0);
            continue;
        }
        let loss = bursts.advance(plan, block.id, r);
        let mut count = 0u32;
        for &addr in &active {
            if memo.probe(block, addr, time) && !burst_loses_response(loss_key, loss, addr, time) {
                count += 1;
                ever[addr as usize] = true;
            }
        }
        responders.push(count);
    }
    // Surveys account separately from adaptive probing so the
    // `probing.probes_sent == Σ BlockRun::total_probes` invariant stays
    // exact for the analysis pipeline.
    sleepwatch_obs::global().probing.survey_probes.add(256 * surveyed);
    SurveyResult {
        block_id: block.id,
        rounds: surveyed,
        responders,
        ever_responded: ever,
        total_probes: 256 * surveyed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    #[test]
    fn survey_of_always_on_block() {
        let b = BlockSpec::bare(1, 9, BlockProfile::always_on(42, 1.0));
        let s = survey_block(&b, 0, 100);
        assert_eq!(s.ever_count(), 42);
        assert!(s.availability_series().iter().all(|&a| a == 1.0));
        assert_eq!(s.total_probes, 25_600);
    }

    #[test]
    fn lossy_block_availability_near_truth() {
        let b = BlockSpec::bare(2, 9, BlockProfile::always_on(200, 0.735));
        let s = survey_block(&b, 0, 500);
        let truth = b.true_availability(0);
        assert!(
            (s.mean_availability() - truth).abs() < 0.02,
            "survey {} vs truth {}",
            s.mean_availability(),
            truth
        );
        // With 500 rounds at A≈0.7, every active address responds sometime.
        assert_eq!(s.ever_count(), 200);
    }

    #[test]
    fn diurnal_block_shows_daily_swing() {
        let b = BlockSpec::bare(
            3,
            9,
            BlockProfile {
                n_stable: 50,
                n_diurnal: 100,
                stable_avail: 1.0,
                diurnal_avail: 1.0,
                onset_hours: 0.0,
                onset_spread: 0.0,
                duration_hours: 8.0,
                duration_spread: 0.0,
                sigma_start: 0.0,
                sigma_duration: 0.0,
                utc_offset_hours: 0.0,
            },
        );
        let s = survey_block(&b, 0, 131 * 2);
        let series = s.availability_series();
        let hi = series.iter().cloned().fold(0.0, f64::max);
        let lo = series.iter().cloned().fold(1.0, f64::min);
        assert_eq!(hi, 1.0);
        assert!((lo - 50.0 / 150.0).abs() < 0.01);
    }

    #[test]
    fn empty_block_survey() {
        let b = BlockSpec::bare(4, 9, BlockProfile::always_on(0, 0.5));
        let s = survey_block(&b, 0, 10);
        assert_eq!(s.ever_count(), 0);
        assert!(s.availability_series().iter().all(|&a| a == 0.0));
        assert_eq!(s.mean_availability(), 0.0);
    }

    #[test]
    fn outage_visible_in_survey() {
        let mut b = BlockSpec::bare(5, 9, BlockProfile::always_on(100, 1.0));
        b.outage = Some((10 * 660, 20 * 660));
        let s = survey_block(&b, 0, 30);
        let series = s.availability_series();
        assert_eq!(series[5], 1.0);
        assert_eq!(series[15], 0.0);
        assert_eq!(series[25], 1.0);
    }

    #[test]
    fn surveys_are_deterministic() {
        let b = BlockSpec::bare(6, 9, BlockProfile::always_on(150, 0.4));
        let s1 = survey_block(&b, 0, 50);
        let s2 = survey_block(&b, 0, 50);
        assert_eq!(s1.responders, s2.responders);
    }
}
