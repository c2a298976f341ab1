//! Proves the steady-state block pipeline is allocation-free.
//!
//! Extends the PR-1 spectral alloc test to the *whole* pipeline: after a
//! warm-up block sizes the `BlockScratch` arena, every further
//! `analyze_block_with_scratch` call — same or alternating same-length
//! blocks — performs zero heap allocations. Growth is permitted only when
//! the series length increases (longer observation span), after which the
//! steady state must be allocation-free again at the new size.
//!
//! The steady state holds under every fault preset as well as the
//! fault-free plan: gaps, duplicates and reorders send cleaning down its
//! sparse path and duplicates through the prober's spare record buffer,
//! and both are grow-only like the rest of the arena.
//!
//! The counter is thread-local so the harness's own threads cannot
//! perturb the counted window.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_core::{analyze_block_with_scratch, AnalysisConfig, BlockScratch};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::{BlockProfile, BlockSpec};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn diurnal_block(id: u64) -> BlockSpec {
    BlockSpec::bare(
        id,
        55,
        BlockProfile {
            n_stable: 40,
            n_diurnal: 160,
            stable_avail: 0.9,
            diurnal_avail: 0.9,
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

fn flat_block(id: u64) -> BlockSpec {
    BlockSpec::bare(id, 55, BlockProfile::always_on(120, 0.8))
}

#[test]
fn second_call_on_warm_scratch_does_not_allocate() {
    let cfg = AnalysisConfig::over_days(0, 3.0);
    let block = diurnal_block(1);
    let mut scratch = BlockScratch::new();
    // Warm-up: sizes the arena and populates the global FFT plan cache.
    let warm = analyze_block_with_scratch(&block, &cfg, &mut scratch);
    let before = allocations();
    let again = analyze_block_with_scratch(&block, &cfg, &mut scratch);
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "second warm call allocated {allocated} times");
    assert_eq!(again, warm, "warm call changed the result");
}

#[test]
fn alternating_same_length_blocks_stay_allocation_free() {
    // Different blocks, same observation span ⇒ same buffer sizes: the
    // worker steady state. Eight counted calls across two block shapes.
    let cfg = AnalysisConfig::over_days(0, 3.0);
    let blocks = [diurnal_block(2), flat_block(3)];
    let mut scratch = BlockScratch::new();
    for b in &blocks {
        analyze_block_with_scratch(b, &cfg, &mut scratch);
    }
    let before = allocations();
    for i in 0..8 {
        analyze_block_with_scratch(&blocks[i % 2], &cfg, &mut scratch);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "steady state allocated {allocated} times");
}

#[test]
fn growth_is_bounded_to_series_length_increases() {
    // A longer span may grow the arena (that's the grow-only contract) —
    // but after one warm-up at the new length the pipeline must be
    // allocation-free again.
    let short = AnalysisConfig::over_days(0, 3.0);
    let long = AnalysisConfig::over_days(0, 6.0);
    let block = diurnal_block(4);
    let mut scratch = BlockScratch::new();
    analyze_block_with_scratch(&block, &short, &mut scratch);
    let before_short = allocations();
    analyze_block_with_scratch(&block, &short, &mut scratch);
    assert_eq!(allocations() - before_short, 0);

    // Growth call: allowed to allocate (buffers resize to the new span).
    analyze_block_with_scratch(&block, &long, &mut scratch);
    let before_long = allocations();
    analyze_block_with_scratch(&block, &long, &mut scratch);
    let allocated = allocations() - before_long;
    assert_eq!(allocated, 0, "post-growth steady state allocated {allocated} times");

    // Shrinking back to the short span never allocates: capacity is kept.
    let before_back = allocations();
    analyze_block_with_scratch(&block, &short, &mut scratch);
    let allocated = allocations() - before_back;
    assert_eq!(allocated, 0, "shorter span on a grown arena allocated {allocated} times");
}

#[test]
fn steady_state_is_allocation_free_under_every_fault_preset() {
    // Alternating blocks on one arena, as a world worker runs them: after
    // two passes over both, eight more calls allocate nothing, whatever
    // the plan injects.
    let plans = std::iter::once(("none", FaultPlan::none())).chain(FaultPlan::presets(13));
    let blocks = [diurnal_block(5), flat_block(6)];
    for (name, plan) in plans {
        let mut cfg = AnalysisConfig::over_days(0, 3.0);
        cfg.faults = plan;
        let mut scratch = BlockScratch::new();
        for i in 0..4 {
            analyze_block_with_scratch(&blocks[i % 2], &cfg, &mut scratch);
        }
        let before = allocations();
        for i in 0..8 {
            analyze_block_with_scratch(&blocks[i % 2], &cfg, &mut scratch);
        }
        let allocated = allocations() - before;
        assert_eq!(allocated, 0, "{name}: steady state allocated {allocated} times");
    }
}
