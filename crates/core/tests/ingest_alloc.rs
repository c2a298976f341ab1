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
//! thread-local one. The FFT counters are process-wide, so the tests take
//! turns.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_core::{ingest_direct, world_feed, AnalysisConfig, IngestConfig};
use sleepwatch_obs::Snapshot;
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::{WorldConfig, WorldSource};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

static GATE: Mutex<()> = Mutex::new(());

/// Serializes the tests of this file, so one's FFTs never land inside
/// another's counter delta.
fn lock() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    let _g = lock();
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
    let _g = lock();
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

/// `n` rounds of one block, diurnal enough that every live window passes
/// the screen and is transformed.
fn diurnal_rounds(n: u32) -> Vec<RoundEvent> {
    let per_day = 86_400.0 / 660.0;
    let a_short = |round: u32| if (f64::from(round) / per_day).fract() < 0.4 { 0.8 } else { 0.2 };
    (0..n).map(|round| RoundEvent::Round { block_id: 0, round, a_short: a_short(round) }).collect()
}

#[test]
fn a_steady_state_live_reclassification_does_not_allocate() {
    let _g = lock();
    // Twenty days is 2 618 rounds, so the live window is its default 1 833
    // and the lane's reserve holds every round fed here. A verdict falls
    // due every 65 rounds from round 1 833 on and is settled inline at the
    // next: one settled verdict against nine.
    let (source, cfg, _) = fixture(1, 20.0);
    let count = |feed: Vec<RoundEvent>| {
        let before = allocations();
        let out = ingest_direct(&source, &cfg, feed);
        assert_eq!(out.open_blocks, [0]);
        allocations() - before
    };
    count(diurnal_rounds(1_833 + 65 + 1)); // warm-up: the plan cache
    let (one, nine) =
        (count(diurnal_rounds(1_833 + 65 + 1)), count(diurnal_rounds(1_833 + 9 * 65 + 1)));
    assert_eq!(one, nine, "eight more live reclassifications allocated {} times", nine - one);
}

#[test]
fn an_ingest_run_makes_no_allocating_transform_and_one_lookup_per_transform() {
    let _g = lock();
    // Twenty days: live verdicts settle inline and, at each lane's finish,
    // in the batched group; blocks finish in groups of eight and one.
    let (source, cfg, feed) = fixture(9 * 8 + 1, 20.0);
    let before = Snapshot::capture(sleepwatch_obs::global());
    let out = ingest_direct(&source, &cfg, feed);
    let d = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    assert_eq!(out.reports.len(), source.len());
    assert!(out.stats.live_classifications > 0);
    assert_eq!(d.counter("fft.alloc_transforms"), 0, "an allocating transform ran");
    assert!(d.counter("fft.transforms") > 0);
    assert_eq!(
        d.counter("plan_cache.hits") + d.counter("plan_cache.misses"),
        d.counter("fft.transforms"),
        "one counted plan lookup per transform"
    );
}
