//! Bounds the heap allocations a world run makes per block, on the batch
//! arenas every engine finishes its blocks in.
//!
//! Each worker owns one grow-only batch arena (a probe workspace, eight
//! lanes, the batched FFT's planes). Once the first group has sized it, a
//! further block allocates nothing in probe, clean, FFT, classify or
//! join; what is left is per chunk of 256 blocks (the chunk's id list, its
//! output list and the sink's share), about nine allocations a chunk.
//! That holds under the fault-free plan and under every preset: gaps,
//! duplicates and reorders are cleaned in the lane's own series, and
//! duplicates pass through the prober's grow-only spare record buffer.
//!
//! - A materialized `World` through `analyze_world` makes at most
//!   [`MATERIALIZED_PER_BLOCK`] allocations per extra block.
//! - A lazy `WorldSource` through `analyze_world_source` synthesizes each
//!   group's specs as it runs. A `BlockSpec` holds its one or two link
//!   classes inline, so synthesizing one allocates nothing, and the run
//!   is held to the same bound.
//!
//! Counted per extra block, as `feed_alloc` counts a feed: the
//! allocations of a 2 048-block run less those of a 512-block run, over
//! the 1 536 blocks between, so the fixed cost of a run cancels. One
//! thread, and the counter is thread-local, so the harness's own threads
//! cannot perturb the counted window.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_core::{analyze_world, analyze_world_source, AnalysisConfig};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::{World, WorldConfig, WorldSource};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Most allocations a materialized world run may make per extra block:
/// the per-chunk lists spread over 256 blocks read 0.035.
const MATERIALIZED_PER_BLOCK: f64 = 0.05;

const SMALL: usize = 512;
const LARGE: usize = 2_048;

fn world_cfg(blocks: usize) -> WorldConfig {
    WorldConfig { num_blocks: blocks, seed: 0xA110C, span_days: 5.0, ..Default::default() }
}

/// Every plan the pins run under: the fault-free plan and every preset.
fn plans() -> impl Iterator<Item = (&'static str, FaultPlan)> {
    std::iter::once(("none", FaultPlan::none())).chain(FaultPlan::presets(13))
}

fn analysis_cfg(plan: FaultPlan) -> AnalysisConfig {
    let wcfg = world_cfg(SMALL);
    AnalysisConfig { faults: plan, ..AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days) }
}

/// Allocations per block of `LARGE` over `SMALL`, where `count(blocks)`
/// is what one run over `blocks` blocks allocates. One warm-up run fills
/// the global FFT plan cache first.
fn per_extra_block(count: impl Fn(usize) -> usize) -> f64 {
    count(SMALL);
    let (small, large) = (count(SMALL), count(LARGE));
    large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64
}

#[test]
fn a_materialized_world_run_allocates_per_chunk_not_per_block() {
    let worlds = [SMALL, LARGE].map(|blocks| World::generate(world_cfg(blocks)));
    for (name, plan) in plans() {
        let cfg = analysis_cfg(plan);
        let per_block = per_extra_block(|blocks| {
            let world = worlds.iter().find(|w| w.blocks.len() == blocks).expect("a world");
            let before = allocations();
            let analysis = analyze_world(world, &cfg, 1, None);
            let counted = allocations() - before;
            assert!(analysis.quarantined.is_empty(), "{name}: quarantined blocks");
            counted
        });
        eprintln!("analyze_world, {name}: {per_block:.3} allocations per extra block");
        assert!(
            per_block <= MATERIALIZED_PER_BLOCK,
            "{name}: a materialized world run made {per_block:.3} allocations per extra block, \
             over {MATERIALIZED_PER_BLOCK}"
        );
    }
}

#[test]
fn a_lazy_world_run_allocates_per_chunk_not_per_block() {
    let sources = [SMALL, LARGE].map(|blocks| WorldSource::new(world_cfg(blocks)));
    let source_of = |blocks| sources.iter().find(|s| s.len() == blocks).expect("a source");
    // What synthesizing the specs costs alone, eight at a time as a
    // worker generates its groups.
    let per_spec = per_extra_block(|blocks| {
        let (source, mut specs) = (source_of(blocks), Vec::with_capacity(8));
        let before = allocations();
        for first in (0..blocks as u64).step_by(8) {
            source.generate_into(first..(first + 8).min(blocks as u64), &mut specs);
        }
        allocations() - before
    });
    eprintln!("generate_into: {per_spec:.3} allocations per extra spec");
    assert_eq!(per_spec, 0.0, "synthesizing a spec allocated");
    for (name, plan) in plans() {
        let cfg = analysis_cfg(plan);
        let per_block = per_extra_block(|blocks| {
            let before = allocations();
            let analysis = analyze_world_source(source_of(blocks), &cfg, 1, None);
            let counted = allocations() - before;
            assert!(analysis.quarantined.is_empty(), "{name}: quarantined blocks");
            counted
        });
        eprintln!("analyze_world_source, {name}: {per_block:.3} allocations per extra block");
        assert!(
            per_block <= MATERIALIZED_PER_BLOCK,
            "{name}: a lazy world run made {per_block:.3} allocations per extra block, over \
             {MATERIALIZED_PER_BLOCK}"
        );
    }
}
