//! Counts what streaming ingest allocates per block and per round.
//!
//! A block's cost is isolated by difference: `ingest_direct` over the feed
//! of a 512-block world against the feed of a 256-block world, both
//! chunk-interleaved so either keeps at most one chunk of lanes open, and
//! both after a warm-up run that fills the FFT plan cache. What is left
//! per block is generating its spec, finishing its report and the live
//! detector's reclassifications; lanes are recycled through the shard's
//! free list, so opening one allocates nothing in the steady state, and a
//! round into an open lane allocates nothing at all.
//!
//! `ingest_direct` runs on the calling thread, so the counter is the
//! thread-local one.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_core::{ingest_direct, world_feed, AnalysisConfig, IngestConfig};
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::{WorldConfig, WorldSource};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// The world of `blocks` blocks over `days`, its config and its feed.
fn fixture(blocks: usize, days: f64) -> (WorldSource, AnalysisConfig, Vec<RoundEvent>) {
    let wcfg = WorldConfig { num_blocks: blocks, seed: 41, span_days: days, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    let source = WorldSource::new(wcfg);
    let (feed, quarantined) = world_feed(&source, &cfg, &IngestConfig::default());
    assert!(quarantined.is_empty());
    (source, cfg, feed)
}

/// Allocations of one `ingest_direct` run over `feed`.
fn run_allocations(source: &WorldSource, cfg: &AnalysisConfig, feed: &[RoundEvent]) -> usize {
    let before = allocations();
    let out = ingest_direct(source, cfg, feed.iter().copied());
    let allocated = allocations() - before;
    assert_eq!(out.reports.len(), source.len());
    allocated
}

/// Allocations of the 256 blocks a 512-block run has beyond a 256-block
/// run, at `days`.
fn extra_blocks(days: f64) -> usize {
    let (small, cfg, small_feed) = fixture(256, days);
    let (large, _, large_feed) = fixture(512, days);
    run_allocations(&small, &cfg, &small_feed); // warm-up
    let base = run_allocations(&small, &cfg, &small_feed);
    run_allocations(&large, &cfg, &large_feed) - base
}

#[test]
fn a_streamed_block_allocates_three_fewer_times_than_with_lanes_of_its_own() {
    // With a lane allocated per block and a detector ring copied on every
    // reclassification, the 256 extra blocks allocated 1 941 times at
    // 5 days (+7.58 per block, one reclassification) and 10 913 times at
    // 20 days (+42.6, thirteen).
    for (days, before) in [(5.0, 1_941), (20.0, 10_913)] {
        let extra = extra_blocks(days);
        eprintln!("{days} days: +{:.2} allocations per block", extra as f64 / 256.0);
        assert!(
            extra + 3 * 256 <= before,
            "{days} days: 256 blocks allocated {extra} times, not ≤ {before} − 3 × 256"
        );
    }
}

#[test]
fn a_round_into_an_open_lane_does_not_allocate() {
    // Five days is 654 rounds, the live window's length: no round below it
    // reclassifies, so only the lane itself could allocate.
    let (source, cfg, _) = fixture(1, 5.0);
    let rounds = |n: u32| -> Vec<RoundEvent> {
        (0..n).map(|round| RoundEvent::Round { block_id: 0, round, a_short: 0.5 }).collect()
    };
    let count = |feed: Vec<RoundEvent>| {
        let before = allocations();
        let out = ingest_direct(&source, &cfg, feed);
        assert_eq!(out.open_blocks, [0]);
        allocations() - before
    };
    count(rounds(1)); // warm-up
    let (one, many) = (count(rounds(1)), count(rounds(640)));
    assert_eq!(one, many, "639 rounds into an open lane allocated {} times", many - one);
}
