//! Shared deterministic fixtures for the conformance and oracle suites.
//!
//! Everything here is keyed by fixed seeds, so every caller — any thread
//! count, any test ordering — reconstructs bit-identical inputs.

use std::collections::BTreeMap;

use sleepwatch_core::{
    analyze_world, dataset_rows, write_dataset_rows, AnalysisConfig, DatasetRow, WorldAnalysis,
};
use sleepwatch_probing::{Blackout, EChurn, FaultPlan, LossBurst, RoundEvent, TrinocularConfig};
use sleepwatch_simnet::{BlockProfile, BlockSpec, World, WorldConfig};

/// The small conformance world: 60 blocks, 4 days, fixed seed.
pub fn small_world() -> World {
    World::generate(WorldConfig { num_blocks: 60, seed: 21, span_days: 4.0, ..Default::default() })
}

/// Analysis configuration for [`small_world`], using the `A12w` prober so
/// the restart artifact path is under conformance coverage too.
pub fn small_world_cfg(world: &World) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
    cfg.trinocular = TrinocularConfig::a12w();
    cfg
}

/// Runs the full pipeline over [`small_world`] with `threads` workers and
/// serializes the result as the canonical TSV dataset.
pub fn world_dataset_tsv(threads: usize) -> String {
    let world = small_world();
    dataset_tsv(&analyze_world(&world, &small_world_cfg(&world), threads, None))
}

/// `rows` as the canonical TSV dataset.
pub fn rows_tsv(rows: &[DatasetRow]) -> String {
    let mut buf = Vec::new();
    write_dataset_rows(&mut buf, rows).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("dataset is ASCII")
}

/// An analysis as the canonical TSV dataset.
pub fn dataset_tsv(analysis: &WorldAnalysis) -> String {
    rows_tsv(&dataset_rows(analysis))
}

/// The conformance fault regime: several mechanisms at once (loss bursts,
/// a blackout, record corruption and mid-run churn), so the faulted golden
/// pins the determinism of the whole fault layer.
pub fn conformance_faults() -> FaultPlan {
    FaultPlan {
        seed: 0xFA_17,
        loss_burst: Some(LossBurst {
            epoch_rounds: 131,
            burst_chance: 0.5,
            max_len_rounds: 20,
            loss: 0.5,
        }),
        blackout: Some(Blackout { start_round: 140, len_rounds: 40 }),
        duplicate_rate: 0.03,
        reorder_rate: 0.03,
        churn: Some(EChurn { at_round: 300, fraction: 0.2 }),
        ..FaultPlan::none()
    }
}

/// Like [`world_dataset_tsv`] but with [`conformance_faults`] injected.
pub fn faulted_world_dataset_tsv(threads: usize) -> String {
    let world = small_world();
    let cfg = AnalysisConfig { faults: conformance_faults(), ..small_world_cfg(&world) };
    dataset_tsv(&analyze_world(&world, &cfg, threads, None))
}

/// A strongly diurnal block: 30 stable + 170 diurnal addresses with an
/// 8 am onset and 9 h of daily activity.
pub fn diurnal_block(id: u64, seed: u64) -> BlockSpec {
    BlockSpec::bare(
        id,
        seed,
        BlockProfile {
            n_stable: 30,
            n_diurnal: 170,
            stable_avail: 0.9,
            diurnal_avail: 0.85,
            onset_hours: 8.0,
            onset_spread: 2.0,
            duration_hours: 9.0,
            duration_spread: 1.0,
            sigma_start: 0.5,
            sigma_duration: 0.5,
            utc_offset_hours: 0.0,
        },
    )
}

/// An always-on block with no daily structure.
pub fn flat_block(id: u64, seed: u64) -> BlockSpec {
    BlockSpec::bare(id, seed, BlockProfile::always_on(120, 0.85))
}

/// Reorders `feed` the way a deployment probing every block every round
/// delivers it: event k of every block (in block-id order), then event
/// k + 1 of every block, and so on. Per-block order is kept; every block
/// stays open from the first round to its last.
pub fn round_major(feed: &[RoundEvent]) -> Vec<RoundEvent> {
    let mut streams: BTreeMap<u64, Vec<RoundEvent>> = BTreeMap::new();
    for &ev in feed {
        streams.entry(ev.block_id()).or_default().push(ev);
    }
    let longest = streams.values().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|k| streams.values().filter_map(move |s| s.get(k).copied())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_reproducible() {
        assert_eq!(world_dataset_tsv(2), world_dataset_tsv(2));
    }

    #[test]
    fn fixture_blocks_have_expected_shape() {
        let d = diurnal_block(1, 7);
        assert_eq!(d.ever_active_addrs().len(), 200);
        let f = flat_block(2, 7);
        assert_eq!(f.ever_active_addrs().len(), 120);
    }

    #[test]
    fn round_major_advances_every_block_together_in_its_own_order() {
        let ev = |block_id, round| RoundEvent::Round { block_id, round, a_short: 0.5 };
        let feed = [ev(2, 0), ev(2, 1), ev(1, 0), ev(2, 2), ev(1, 1)];
        assert_eq!(round_major(&feed), [ev(1, 0), ev(2, 0), ev(1, 1), ev(2, 1), ev(2, 2)]);
    }
}
