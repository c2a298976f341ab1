//! Multi-vantage merging (§3.3's three collection sites).
//!
//! The paper collects concurrently from Los Angeles (`w`), Colorado (`c`)
//! and Japan (`j`) and checks that diurnal conclusions agree. For *outage*
//! conclusions, multiple sites do more than validate: a block that looks
//! down from one site but fine from another is a routing problem near that
//! site, not an edge outage. This module merges per-site runs into a
//! consensus view.

use crate::record::BlockRun;
use crate::trinocular::BlockState;

/// Consensus reachability of one block in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergedState {
    /// At least one site reached the block: it is up (local problems at
    /// other sites notwithstanding).
    Up,
    /// Every reporting site believes it down: a genuine edge outage.
    Down,
    /// No site has an observation for this round, or all are unknown.
    Unknown,
}

/// A merged outage: rounds where *all* reporting sites agreed on down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedOutage {
    /// First consensus-down round.
    pub start_round: u64,
    /// First round no longer consensus-down (exclusive); `None` if the
    /// merge window ended while still down.
    pub end_round: Option<u64>,
}

/// Merges the per-round states of several sites' runs over `rounds` rounds.
///
/// Per round: `Up` if any site saw it up, `Down` if at least one site
/// reported and every reporting site saw it down, `Unknown` otherwise
/// (nobody reported, or only inconclusive verdicts).
pub fn merge_states(runs: &[&BlockRun], rounds: u64) -> Vec<MergedState> {
    // Dense per-site state tables.
    let tables: Vec<Vec<Option<BlockState>>> = runs
        .iter()
        .map(|run| {
            let mut t = vec![None; rounds as usize];
            for rec in &run.records {
                if (rec.round as usize) < t.len() {
                    t[rec.round as usize] = Some(rec.state);
                }
            }
            t
        })
        .collect();

    (0..rounds as usize)
        .map(|r| {
            let mut any_up = false;
            let mut any_down = false;
            let mut any_report = false;
            for t in &tables {
                match t[r] {
                    Some(BlockState::Up) => {
                        any_up = true;
                        any_report = true;
                    }
                    Some(BlockState::Down) => {
                        any_down = true;
                        any_report = true;
                    }
                    Some(BlockState::Unknown) => any_report = true,
                    None => {}
                }
            }
            if any_up {
                MergedState::Up
            } else if any_down && any_report {
                MergedState::Down
            } else {
                MergedState::Unknown
            }
        })
        .collect()
}

/// Extracts consensus outages from a merged state series. Unknown rounds
/// inside a down span do not end it (they carry no evidence either way).
pub fn merged_outages(states: &[MergedState]) -> Vec<MergedOutage> {
    let mut out: Vec<MergedOutage> = Vec::new();
    let mut open: Option<usize> = None;
    for (r, &s) in states.iter().enumerate() {
        match s {
            MergedState::Down => {
                if open.is_none() {
                    open = Some(r);
                }
            }
            MergedState::Up => {
                if let Some(start) = open.take() {
                    out.push(MergedOutage { start_round: start as u64, end_round: Some(r as u64) });
                }
            }
            MergedState::Unknown => {}
        }
    }
    if let Some(start) = open {
        out.push(MergedOutage { start_round: start as u64, end_round: None });
    }
    out
}

/// Fraction of rounds on which two sites' verdicts agree (both reported,
/// same state).
#[cfg(test)]
fn agreement(a: &BlockRun, b: &BlockRun, rounds: u64) -> f64 {
    let sa = merge_states(&[a], rounds);
    let sb = merge_states(&[b], rounds);
    let mut same = 0usize;
    let mut both = 0usize;
    for (x, y) in sa.iter().zip(&sb) {
        if *x != MergedState::Unknown && *y != MergedState::Unknown {
            both += 1;
            if x == y {
                same += 1;
            }
        }
    }
    if both == 0 {
        0.0
    } else {
        same as f64 / both as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RoundRecord;
    use crate::trinocular::{OutageEvent, TrinocularConfig, TrinocularProber};
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    fn run_with_states(states: &[(u64, BlockState)], rounds: u64) -> BlockRun {
        let records = states
            .iter()
            .map(|&(round, state)| RoundRecord {
                round,
                probes: 1,
                positives: (state == BlockState::Up) as u32,
                a_short: 0.5,
                a_long: 0.5,
                a_operational: 0.4,
                state,
            })
            .collect();
        BlockRun::new(1, rounds, records, Vec::<OutageEvent>::new(), states.len() as u64)
    }

    #[test]
    fn one_up_site_wins() {
        use BlockState::*;
        let a = run_with_states(&[(0, Down), (1, Down)], 2);
        let b = run_with_states(&[(0, Up), (1, Down)], 2);
        let merged = merge_states(&[&a, &b], 2);
        assert_eq!(merged, vec![MergedState::Up, MergedState::Down]);
    }

    #[test]
    fn missing_rounds_are_unknown() {
        use BlockState::*;
        let a = run_with_states(&[(1, Up)], 3);
        let merged = merge_states(&[&a], 3);
        assert_eq!(merged, vec![MergedState::Unknown, MergedState::Up, MergedState::Unknown]);
    }

    #[test]
    fn unknown_verdicts_do_not_make_outages() {
        use BlockState::*;
        let a = run_with_states(&[(0, Unknown), (1, Unknown)], 2);
        let merged = merge_states(&[&a], 2);
        assert!(merged.iter().all(|&s| s == MergedState::Unknown));
        assert!(merged_outages(&merged).is_empty());
    }

    #[test]
    fn outage_extraction_spans_unknown_gaps() {
        use MergedState::*;
        let states = [Up, Down, Unknown, Down, Up, Down];
        let outs = merged_outages(&states);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], MergedOutage { start_round: 1, end_round: Some(4) });
        assert_eq!(outs[1], MergedOutage { start_round: 5, end_round: None });
    }

    #[test]
    fn real_probers_from_two_sites_agree_on_a_real_outage() {
        let mut block = BlockSpec::bare(9, 1234, BlockProfile::always_on(120, 0.9));
        block.outage = Some((100 * 660, 140 * 660));
        let rounds = 300u64;
        // Site two probes 330 s later within each round.
        let mut p1 = TrinocularProber::new(&block, TrinocularConfig::default());
        let mut p2 = TrinocularProber::new(&block, TrinocularConfig::default());
        let r1 = p1.run(&block, 0, rounds);
        let r2 = p2.run(&block, 330, rounds);
        let merged = merge_states(&[&r1, &r2], rounds);
        let outs = merged_outages(&merged);
        assert_eq!(outs.len(), 1, "consensus outage: {outs:?}");
        assert!((100..=103).contains(&outs[0].start_round));
        assert!(agreement(&r1, &r2, rounds) > 0.95);
    }

    #[test]
    fn local_failure_at_one_site_is_not_a_consensus_outage() {
        use BlockState::*;
        // Site A loses its own uplink for rounds 5..10 (sees Down); site B
        // keeps seeing the block Up.
        let rounds = 15u64;
        let a_states: Vec<(u64, BlockState)> =
            (0..rounds).map(|r| (r, if (5..10).contains(&r) { Down } else { Up })).collect();
        let b_states: Vec<(u64, BlockState)> = (0..rounds).map(|r| (r, Up)).collect();
        let a = run_with_states(&a_states, rounds);
        let b = run_with_states(&b_states, rounds);
        let merged = merge_states(&[&a, &b], rounds);
        assert!(merged_outages(&merged).is_empty(), "local loss must be filtered");
    }
}
