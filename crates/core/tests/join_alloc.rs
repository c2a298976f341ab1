//! Counts what the per-block join allocates: a block's link label is
//! counted from its PTR template, and its features, like the report's,
//! are a `Copy` set — so the join allocates nothing, named block or not,
//! and a named block costs no allocation more than an unnamed one.
//!
//! The join runs on the world run's worker thread, so the counter is a
//! global atomic and this binary holds one test (the pattern of
//! `scratch_alloc.rs`, which counts per thread). The join's share is
//! isolated by difference: the same world with every block's link classes
//! removed probes, cleans and classifies identically (only the reverse-DNS
//! synthesis reads them) but names no address.

use counting_alloc::allocations;
use sleepwatch_core::{analyze_world, AnalysisConfig};
use sleepwatch_simnet::{PtrTemplate, World, WorldConfig};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Allocations made by one single-worker world run.
fn run_allocations(world: &World, cfg: &AnalysisConfig) -> usize {
    let before = allocations();
    let analysis = analyze_world(world, cfg, 1, None);
    let allocated = allocations() - before;
    assert_eq!(analysis.len(), world.blocks.len());
    allocated
}

/// The world of `wcfg` with every block unnamed.
fn unnamed(wcfg: &WorldConfig) -> World {
    let mut world = World::generate(wcfg.clone());
    for block in &mut world.blocks {
        block.links.clear();
    }
    world
}

#[test]
fn a_block_joins_without_allocating_named_or_not() {
    let wcfg = WorldConfig { num_blocks: 512, seed: 77, span_days: 2.0, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    let named = World::generate(wcfg.clone());
    let all_unnamed = unnamed(&wcfg);
    let mut half_unnamed = unnamed(&wcfg);
    half_unnamed.blocks.truncate(wcfg.num_blocks / 2);
    let named_blocks = named.blocks.iter().filter(|b| PtrTemplate::of(b).is_some()).count();
    assert!(named_blocks > 100, "only {named_blocks} named blocks");

    // Warm-up: the FFT plan cache and every lazily built table.
    run_allocations(&all_unnamed, &cfg);

    // Steady state of an unnamed block: the second half of the world
    // costs what the whole run costs beyond the first half.
    let base = run_allocations(&all_unnamed, &cfg);
    let per_unnamed =
        (base - run_allocations(&half_unnamed, &cfg)) as f64 / (wcfg.num_blocks / 2) as f64;
    assert!(per_unnamed <= 1.0, "an unnamed block allocated {per_unnamed:.2} times");

    // A named block on top of that: nothing, as its label needs no name.
    let extra = run_allocations(&named, &cfg).saturating_sub(base);
    let per_named = extra as f64 / named_blocks as f64;
    assert_eq!(extra, 0, "{named_blocks} named blocks allocated {extra} times more");
    eprintln!("per unnamed block {per_unnamed:.3}, per named block +{per_named:.3}");
}
