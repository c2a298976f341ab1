//! Panic-quarantine conformance: a planted per-block panic must never
//! take down a world run. The panicking block is quarantined with a
//! diagnostic, every other block's output is untouched, and the outcome
//! is identical at every thread count.
//!
//! Panics are planted through `FaultPlan::poison_blocks`, a value each run
//! carries in its own config, so the tests share nothing and run in
//! parallel.

use sleepwatch_core::{analyze_world, analyze_world_resumable, AnalysisConfig};
use sleepwatch_simnet::World;
use sleepwatch_testkit::fixtures::dataset_tsv;
use sleepwatch_testkit::matrix::THREADS;
use sleepwatch_testkit::resilience::scratch_path;
use sleepwatch_testkit::{fixtures, goldens_dir};

/// The small conformance world and its config, with `blocks` poisoned.
fn poisoned_world(blocks: &'static [u64]) -> (World, AnalysisConfig) {
    let world = fixtures::small_world();
    let mut cfg = fixtures::small_world_cfg(&world);
    cfg.faults.poison_blocks = blocks;
    (world, cfg)
}

/// The recorded fault-free golden with the rows for `block_ids` removed —
/// what a run that quarantined exactly those blocks must serialize to.
fn golden_minus(block_ids: &[u64]) -> String {
    let golden = std::fs::read_to_string(goldens_dir().join("world_small.tsv"))
        .expect("recorded golden world_small.tsv");
    golden
        .lines()
        .filter(|line| {
            let id = line.split('\t').next().unwrap_or("");
            !block_ids.iter().any(|b| id == b.to_string())
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn planted_panic_is_quarantined_identically_at_every_thread_count() {
    let (world, cfg) = poisoned_world(&[17]);

    let mut outputs = Vec::new();
    for threads in THREADS {
        let analysis = analyze_world(&world, &cfg, threads, None);
        assert_eq!(
            analysis.quarantined.len(),
            1,
            "exactly one block should be quarantined at {threads} threads"
        );
        let q = &analysis.quarantined[0];
        assert_eq!(q.block_id, 17);
        assert!(
            q.diagnostic.contains("planted panic"),
            "diagnostic should carry the panic message, got {:?}",
            q.diagnostic
        );
        assert_eq!(analysis.reports.len(), world.blocks.len() - 1);
        assert!(analysis.reports.iter().all(|r| r.summary.block_id != 17));
        outputs.push(dataset_tsv(&analysis));
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "quarantined runs diverged across thread counts"
    );

    // Conformance against the recorded golden: the surviving rows are
    // byte-for-byte the fault-free golden minus the quarantined block.
    assert_eq!(outputs[0], golden_minus(&[17]));
}

#[test]
fn multiple_planted_panics_quarantine_each_block() {
    let (world, cfg) = poisoned_world(&[3, 41]);

    let analysis = analyze_world(&world, &cfg, 4, None);
    let mut ids: Vec<u64> = analysis.quarantined.iter().map(|q| q.block_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![3, 41]);
    assert_eq!(analysis.reports.len(), world.blocks.len() - 2);
    assert_eq!(dataset_tsv(&analysis), golden_minus(&[3, 41]));
}

/// Quarantined blocks are deliberately *not* journaled: once the cause of
/// the panic is fixed, resuming from the same journal re-analyzes exactly
/// the quarantined blocks and heals the output back to the recorded
/// golden, byte for byte.
#[test]
fn quarantined_blocks_heal_on_resume() {
    let (world, poisoned) = poisoned_world(&[5]);
    let journal = scratch_path("heal");

    let crashed =
        analyze_world_resumable(&world, &poisoned, 4, &journal, None).expect("quarantined run");
    assert_eq!(crashed.quarantined.len(), 1);
    assert_eq!(crashed.quarantined[0].block_id, 5);
    assert_eq!(dataset_tsv(&crashed), golden_minus(&[5]));

    // Poison gone: the "bug" is fixed. Resume from the same journal —
    // the poison list is no part of the run identity the journal checks.
    let cfg = fixtures::small_world_cfg(&world);
    let healed = analyze_world_resumable(&world, &cfg, 4, &journal, None).expect("healed run");
    assert!(healed.quarantined.is_empty());
    let golden = std::fs::read_to_string(goldens_dir().join("world_small.tsv"))
        .expect("recorded golden world_small.tsv");
    assert_eq!(dataset_tsv(&healed), golden);
}
