//! Observation records produced by probing.

use crate::trinocular::{BlockState, OutageEvent};

/// One round's observation of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index since measurement start.
    pub round: u64,
    /// Probes sent this round (1–15).
    pub probes: u32,
    /// Positive responses received.
    pub positives: u32,
    /// Short-term availability estimate `Âs` after this round.
    pub a_short: f64,
    /// Long-term estimate `Âl`.
    pub a_long: f64,
    /// Operational estimate `Âo`.
    pub a_operational: f64,
    /// Reachability verdict.
    pub state: BlockState,
}

/// A complete adaptive-probing run over one block. Rounds lost to prober
/// restarts are simply absent from `records`; downstream cleaning
/// (`sleepwatch_availability::cleaning`) re-densifies.
#[derive(Debug, Clone)]
pub struct BlockRun {
    /// The probed block's id.
    pub block_id: u64,
    /// Nominal number of rounds attempted.
    pub rounds: u64,
    /// Per-round records, ascending by round, possibly with gaps.
    pub records: Vec<RoundRecord>,
    /// Outages detected during the run.
    pub outages: Vec<OutageEvent>,
    /// Total probes sent.
    pub total_probes: u64,
}

impl BlockRun {
    /// Assembles a run.
    pub fn new(
        block_id: u64,
        rounds: u64,
        records: Vec<RoundRecord>,
        outages: Vec<OutageEvent>,
        total_probes: u64,
    ) -> Self {
        debug_assert!(records.windows(2).all(|w| w[0].round < w[1].round));
        BlockRun { block_id, rounds, records, outages, total_probes }
    }

    /// `(round, Âs)` observation pairs, ready for
    /// `sleepwatch_availability::clean_series`.
    pub fn a_short_observations(&self) -> Vec<(u64, f64)> {
        self.records.iter().map(|r| (r.round, r.a_short)).collect()
    }

    /// `(round, Âo)` observation pairs.
    pub fn a_operational_observations(&self) -> Vec<(u64, f64)> {
        self.records.iter().map(|r| (r.round, r.a_operational)).collect()
    }

    /// Mean probes per round over observed rounds (0 when empty).
    pub fn mean_probes_per_round(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.records.iter().map(|r| r.probes as f64).sum::<f64>() / self.records.len() as f64
        }
    }

    /// Probes per hour implied by this run.
    pub fn probes_per_hour(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        let hours = self.rounds as f64 * 660.0 / 3_600.0;
        self.total_probes as f64 / hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u64, probes: u32, a: f64) -> RoundRecord {
        RoundRecord {
            round,
            probes,
            positives: 1,
            a_short: a,
            a_long: a,
            a_operational: a - 0.1,
            state: BlockState::Up,
        }
    }

    #[test]
    fn observation_extraction() {
        let run = BlockRun::new(7, 4, vec![rec(0, 1, 0.5), rec(2, 3, 0.6)], vec![], 4);
        assert_eq!(run.a_short_observations(), vec![(0, 0.5), (2, 0.6)]);
        assert_eq!(run.a_operational_observations(), vec![(0, 0.4), (2, 0.5)]);
    }

    #[test]
    fn rate_metrics() {
        let run = BlockRun::new(1, 100, vec![rec(0, 2, 0.5), rec(1, 4, 0.5)], vec![], 300);
        assert!((run.mean_probes_per_round() - 3.0).abs() < 1e-12);
        let hours = 100.0 * 660.0 / 3_600.0;
        assert!((run.probes_per_hour() - 300.0 / hours).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_well_behaved() {
        let run = BlockRun::new(1, 0, vec![], vec![], 0);
        assert_eq!(run.mean_probes_per_round(), 0.0);
        assert_eq!(run.probes_per_hour(), 0.0);
    }
}
