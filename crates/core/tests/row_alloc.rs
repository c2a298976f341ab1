//! Pins what a dataset row costs the heap: nothing of its own. A `Copy`
//! `DatasetRow` makes turning reports into rows allocate the returned `Vec`
//! alone, and decoding a self-contained `SLPWBIN1` file allocate per frame
//! and per dictionary, never per row. The counter is thread-local (the
//! pattern of `scratch_alloc.rs`): both run on the test's own thread.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_core::{
    analyze_world, dataset_rows, decode_dataset, encode_dataset, AnalysisConfig, DatasetMode,
    DatasetRow, WorldAnalysis,
};
use sleepwatch_simnet::{World, WorldConfig};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn analysis() -> WorldAnalysis {
    let wcfg = WorldConfig { num_blocks: 120, seed: 29, span_days: 2.0, ..Default::default() };
    let world = World::generate(wcfg);
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
    analyze_world(&world, &cfg, 1, None)
}

#[test]
fn dataset_rows_allocates_its_vec_and_nothing_else() {
    let a = analysis();
    let located = a.reports.iter().filter(|r| r.location.is_some()).count();
    assert!(located > 60 && a.reports.iter().any(|r| !r.link_features.is_empty()));
    let before = allocations();
    let rows = dataset_rows(&a);
    let spent = allocations() - before;
    assert_eq!(rows.len(), a.reports.len());
    assert_eq!(spent, 1, "{} rows took {spent} allocations", rows.len());
}

#[test]
fn decoding_a_self_contained_file_allocates_per_frame_not_per_row() {
    let template = dataset_rows(&analysis());
    // `n` rows with ids `0..n`, cycling through the template's values.
    let rows = |n: usize| -> Vec<DatasetRow> {
        (0..n).map(|i| DatasetRow { block_id: i as u64, ..template[i % template.len()] }).collect()
    };
    let decode_cost = |n: usize| {
        let bytes = encode_dataset(&rows(n), DatasetMode::SelfContained).expect("encode");
        let before = allocations();
        let back = decode_dataset(&bytes, None).expect("decode");
        let spent = allocations() - before;
        assert_eq!(back, rows(n));
        spent
    };
    // Warm-up: whatever the first decode builds once per process.
    decode_cost(10);
    // Both sizes fit one frame, so their difference is what rows cost.
    let (small, large) = (decode_cost(2_000), decode_cost(4_000));
    assert!(large < small + 100, "2 000 more rows cost {} more allocations", large - small);
    eprintln!("decode: 2 000 rows {small} allocations, 4 000 rows {large}");
}
