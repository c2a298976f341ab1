//! Pipeline throughput gate: the scratch-arena block pipeline
//! (`analyze_block_with_scratch`, the stages every world-run worker
//! executes) against the allocating per-block reference
//! (`analyze_block(..).summary()`), each as one single-thread loop
//! producing the same `BlockSummary`s over the same world.
//!
//! Not a Criterion bench: a pass/fail harness in the `BENCH_obs.json`
//! mould. It interleaves the two loops (A/B/A/B…) so drift lands on both
//! sides equally, takes medians, writes blocks/sec plus steady-state
//! allocations/block to `BENCH_pipeline.json` at the workspace root, and
//! fails if the scratch path allocates in steady state or loses
//! measurable throughput against the baseline it replaced.
//!
//! Run with `cargo bench -p sleepwatch-bench --bench pipeline_throughput`.
//! `PIPELINE_BENCH_ITERS` overrides the sample count for noisy machines.

use sleepwatch_core::{analyze_block, analyze_block_with_scratch, AnalysisConfig, BlockScratch};
use sleepwatch_probing::TrinocularConfig;
use sleepwatch_simnet::{World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Regression budget: the scratch path may be at most 2 % slower than the
/// fresh-path baseline (it should be faster; the slack absorbs machine
/// noise without letting a real regression through).
const MAX_SLOWDOWN: f64 = 1.02;

struct CountingAlloc;

std::thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs[xs.len() / 2]
}

/// One single-thread pass summarizing every block: through the grow-only
/// `arena` when given, through the allocating `analyze_block` otherwise.
fn pass(world: &World, cfg: &AnalysisConfig, arena: Option<&mut BlockScratch>) {
    match arena {
        Some(arena) => {
            for block in &world.blocks {
                black_box(analyze_block_with_scratch(block, cfg, arena));
            }
        }
        None => {
            for block in &world.blocks {
                black_box(analyze_block(block, cfg).summary());
            }
        }
    }
}

fn timed_pass(world: &World, cfg: &AnalysisConfig, arena: Option<&mut BlockScratch>) -> f64 {
    let start = Instant::now();
    pass(world, cfg, arena);
    start.elapsed().as_secs_f64()
}

/// Steady-state allocations per block of one pass. The caller has already
/// run a warm pass over every block, which sizes the arena to the world's
/// full diversity (grow-only contract — the largest walk, outage list and
/// series win).
fn allocs_per_block(world: &World, cfg: &AnalysisConfig, arena: Option<&mut BlockScratch>) -> f64 {
    let before = allocations();
    pass(world, cfg, arena);
    (allocations() - before) as f64 / world.blocks.len() as f64
}

fn main() {
    let iters: usize =
        std::env::var("PIPELINE_BENCH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(7);

    let world = World::generate(WorldConfig {
        num_blocks: 40,
        seed: 33,
        span_days: 3.0,
        ..Default::default()
    });
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
    cfg.trinocular = TrinocularConfig::a12w();

    // Warm both paths: arena, plan cache, allocator, page cache.
    let mut arena = BlockScratch::new();
    pass(&world, &cfg, Some(&mut arena));
    pass(&world, &cfg, None);

    let scratch_allocs = allocs_per_block(&world, &cfg, Some(&mut arena));
    let fresh_allocs = allocs_per_block(&world, &cfg, None);

    let mut scratch = Vec::with_capacity(iters);
    let mut fresh = Vec::with_capacity(iters);
    for _ in 0..iters {
        scratch.push(timed_pass(&world, &cfg, Some(&mut arena)));
        fresh.push(timed_pass(&world, &cfg, None));
    }

    let med_scratch = median(&mut scratch);
    let med_fresh = median(&mut fresh);
    let n = world.blocks.len() as f64;
    let bps_scratch = n / med_scratch;
    let bps_fresh = n / med_fresh;
    let speedup = med_fresh / med_scratch;

    let json = format!(
        "{{\n  \"bench\": \"pipeline_throughput\",\n  \"blocks\": {},\n  \"iters\": {},\n  \
         \"scratch_median_s\": {:.6},\n  \"fresh_median_s\": {:.6},\n  \
         \"scratch_blocks_per_s\": {:.2},\n  \"fresh_blocks_per_s\": {:.2},\n  \
         \"speedup_ratio\": {:.4},\n  \"scratch_allocs_per_block\": {:.2},\n  \
         \"fresh_allocs_per_block\": {:.2},\n  \"max_slowdown_ratio\": {:.2}\n}}\n",
        world.blocks.len(),
        iters,
        med_scratch,
        med_fresh,
        bps_scratch,
        bps_fresh,
        speedup,
        scratch_allocs,
        fresh_allocs,
        MAX_SLOWDOWN
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "pipeline_throughput: scratch {bps_scratch:.1} blocks/s vs fresh {bps_fresh:.1} \
         blocks/s (speedup {speedup:.3}×), {scratch_allocs:.2} vs {fresh_allocs:.2} \
         allocs/block"
    );

    assert_eq!(
        scratch_allocs, 0.0,
        "scratch path allocated {scratch_allocs:.2} times/block in steady state"
    );
    assert!(fresh_allocs > 0.0, "fresh path reported zero allocations — the counter is broken");
    assert!(
        med_scratch <= med_fresh * MAX_SLOWDOWN,
        "scratch path lost throughput: {med_scratch:.4}s vs fresh {med_fresh:.4}s \
         ({:.2}% over the {:.0}% budget, {iters} interleaved runs)",
        (med_scratch / med_fresh - 1.0) * 100.0,
        (MAX_SLOWDOWN - 1.0) * 100.0
    );
}
