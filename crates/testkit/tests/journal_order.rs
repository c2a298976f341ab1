//! A world run's checkpoint journal is a function of the run, not of its
//! schedule: the calling thread appends each chunk's reports in block
//! order, so a fresh journal is byte-identical at every thread count, a
//! quarantined block included.

use sleepwatch_core::{analyze_world_resumable, AnalysisConfig};
use sleepwatch_simnet::{World, WorldConfig};
use sleepwatch_testkit::resilience::scratch_path;

/// Blocks per chunk of the world run.
const CHUNK: usize = 256;
/// Four full chunks and part of a fifth.
const BLOCKS: usize = 4 * CHUNK + 77;
/// The block whose analysis panics.
const POISONED: u64 = 300;

#[test]
fn fresh_journals_are_identical_at_every_thread_count() {
    let world = World::generate(WorldConfig {
        num_blocks: BLOCKS,
        seed: 0x0_5DE5,
        span_days: 1.25,
        ..Default::default()
    });
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, 1.25);
    cfg.faults.poison_blocks = &[POISONED];
    let journal_at = |threads: usize| {
        let path = scratch_path(&format!("order-{threads}"));
        let run = analyze_world_resumable(&world, &cfg, threads, &path, None).expect("fresh run");
        let ids: Vec<u64> = run.quarantined.iter().map(|q| q.block_id).collect();
        assert_eq!(ids, [POISONED], "{threads} threads");
        assert_eq!(run.len(), BLOCKS - 1, "{threads} threads");
        let bytes = std::fs::read(&path).expect("read the journal");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let one = journal_at(1);
    for threads in [4, 8] {
        assert!(journal_at(threads) == one, "the journal at {threads} threads differs from 1");
    }
}
