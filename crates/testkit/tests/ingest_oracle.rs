//! World-scale differential oracle for the sharded streaming ingest
//! engine.
//!
//! The single-block batch≡online exact-agreement test
//! (`testkit/tests/oracles.rs`) scaled to a whole world: fault-free and
//! under every named `FaultPlan` preset the world is streamed through
//! `core::ingest` at 1, 4 and 8 shards (each with a different event
//! interleaving), and every per-block verdict — class, phase, the full
//! joined report — must agree *exactly* with the batch pipeline
//! (`analyze_block` / `analyze_world`) on the same rounds.
//! Kill-and-resume from a severed mid-stream checkpoint journal must heal
//! to the same verdict set, and the ingest journal is interchangeable
//! with the batch one.
//!
//! Scale: [`WORLD`]'s blocks, fewer in a debug build so tier-1 runs
//! stay tractable while release runs cover the full world.

use sleepwatch_core::feed::with_feed_workers;
use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::{
    analyze_block, analyze_world_resumable, ingest_world, ingest_world_resumable, IngestConfig,
};
use sleepwatch_probing::TrinocularProber;
use sleepwatch_testkit::matrix::{fault, fault_plans, OracleWorld, FAULTS, THREADS};
use sleepwatch_testkit::oracles::{assert_batch_online_agree, clean_checked};
use sleepwatch_testkit::resilience::scratch_path;

/// The span is long enough (≈229 rounds) to cover every named fault
/// preset, including the blackout window ending at round 225 — the
/// calibration the resilience suite established.
const WORLD: OracleWorld = OracleWorld {
    seed: 0x001A_6E57,
    blocks: if cfg!(debug_assertions) { 400 } else { 5_000 },
    days: 1.75,
};

/// The oracle body: at every shard count (each with its own arrival
/// order), the streamed world must reproduce the batch analysis
/// element for element — verdicts, phases, and the whole joined report.
fn world_differential(name: &str) {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(name));
    let batch = WORLD.batch(name);
    assert!(batch.quarantined.is_empty(), "{name}: reference run quarantined blocks");
    for (i, shards) in THREADS.into_iter().enumerate() {
        let icfg = IngestConfig {
            shards,
            // A different seed per shard count: every configuration sees
            // a genuinely different interleaving of the same streams.
            interleave_seed: 0xD150_12DE ^ ((i as u64) << 8),
            ..Default::default()
        };
        let streamed = ingest_world(&source, &cfg, &icfg);
        assert!(streamed.quarantined.is_empty(), "{name}@{shards}: quarantines");
        assert_eq!(
            streamed.reports.len(),
            batch.reports.len(),
            "{name}@{shards}: block count diverged"
        );
        for (s, b) in streamed.reports.iter().zip(&batch.reports) {
            assert_eq!(
                s.summary.block_id, b.summary.block_id,
                "{name}@{shards}: report order diverged"
            );
            assert_eq!(
                s.summary.class, b.summary.class,
                "{name}@{shards}: class diverged on block {}",
                b.summary.block_id
            );
            assert_eq!(
                s.summary.phase, b.summary.phase,
                "{name}@{shards}: phase diverged on block {}",
                b.summary.block_id
            );
            assert_eq!(
                format!("{s:?}"),
                format!("{b:?}"),
                "{name}@{shards}: joined report diverged on block {}",
                b.summary.block_id
            );
        }
        assert_eq!(streamed.stats.blocks, batch.reports.len(), "{name}@{shards}: stats.blocks");
        assert!(streamed.stats.rounds_routed > 0, "{name}@{shards}: no rounds routed");
    }

    // Spot-check the per-block anchor directly: a handful of streamed
    // summaries against scalar `analyze_block` on the same config.
    let stride = (batch.reports.len() / 7).max(1);
    for report in batch.reports.iter().step_by(stride) {
        let block = source.generate_block(report.summary.block_id);
        let scalar = analyze_block(&block, &cfg);
        assert_eq!(
            report.summary,
            scalar.summary(),
            "{name}: analyze_block disagrees on block {}",
            block.id
        );
    }
}

sleepwatch_testkit::fault_tests!(world_differential);

/// The original exact-agreement pin at world scale: for a sweep of
/// blocks, the full-window `OnlineDetector` must agree with the batch
/// spectral classifier on that block's *actual* cleaned (faulted)
/// series — the detector-level half of the streaming story.
#[test]
fn online_detector_agrees_with_batch_across_the_world() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault("loss-light"));
    // Every 5th block keeps the sweep broad but the suite fast; the
    // engine-level oracle above already covers all blocks.
    for id in (0..source.len() as u64).step_by(5) {
        let block = source.generate_block(id);
        let mut prober = TrinocularProber::new(&block, cfg.trinocular);
        let run = prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults);
        let (series, _fill) = clean_checked(&run, cfg.rounds as usize, cfg.start_time);
        assert_batch_online_agree(&series, &cfg.diurnal, &format!("block {id}"));
    }
}

/// The order a deployment feeds: every block, every round. Each block's
/// lane stays open for the whole run, where the chunked feeds above keep
/// at most one chunk open, and the reports are still the batch run's,
/// under every preset at 1, 4 and 8 shards.
#[test]
fn round_major_feed_matches_batch_under_every_preset() {
    let blocks = if cfg!(debug_assertions) { 128 } else { 512 };
    let round_major = OracleWorld { blocks, days: 5.0, ..WORLD };
    let source = round_major.source();
    for name in FAULTS {
        let cfg = round_major.cfg(fault(name));
        let batch = round_major.batch(name);
        let (feed, quarantined) =
            sleepwatch_core::world_feed(&source, &cfg, &IngestConfig::default());
        assert!(quarantined.is_empty(), "{name}: feed quarantines");
        let feed = sleepwatch_testkit::fixtures::round_major(&feed);
        for shards in THREADS {
            let icfg = IngestConfig { shards, ..Default::default() };
            let streamed =
                sleepwatch_core::ingest_events(&source, &cfg, &icfg, feed.iter().copied());
            assert!(streamed.quarantined.is_empty(), "{name}@{shards}: quarantines");
            assert!(streamed.open_blocks.is_empty(), "{name}@{shards}: blocks left open");
            assert_eq!(streamed.reports.len(), batch.reports.len(), "{name}@{shards}: blocks");
            for (s, b) in streamed.reports.iter().zip(&batch.reports) {
                assert_eq!(
                    format!("{s:?}"),
                    format!("{b:?}"),
                    "{name}@{shards}: round-major report diverged on block {}",
                    b.summary.block_id
                );
            }
        }
    }
}

/// The live detectors' totals on a 20-day world, pinned per preset: at
/// 20 days every block reclassifies about a dozen times, so the window
/// each reclassification reads is the tail of a longer history. Columns
/// are `live_strict`, `live_classifications` and `rounds_routed`.
#[test]
fn live_detector_totals_are_pinned_on_a_twenty_day_world() {
    const PINS: [(&str, u64, u64, u64); 8] = [
        ("none", 36, 3186, 670_208),
        ("loss-light", 36, 3172, 670_208),
        ("loss-heavy", 35, 3297, 670_208),
        ("blackout", 36, 2921, 653_568),
        ("restart-storm", 35, 2729, 650_642),
        ("truncated", 0, 0, 335_360),
        ("dup-reorder", 18, 3587, 703_626),
        ("churn", 36, 3123, 670_208),
    ];
    let world = OracleWorld { seed: 41, blocks: 256, days: 20.0 };
    let source = world.source();
    for ((name, plan), (pin_name, strict, classifications, rounds)) in
        fault_plans(5).into_iter().zip(PINS)
    {
        assert_eq!(name, pin_name);
        let cfg = world.cfg(plan);
        let out = ingest_world(&source, &cfg, &IngestConfig { shards: 2, ..Default::default() });
        let s = out.stats;
        assert_eq!(
            (s.live_strict, s.live_classifications, s.rounds_routed),
            (strict, classifications, rounds),
            "{name}: live_strict / live_classifications / rounds_routed"
        );
    }
}

/// Kill-and-resume heals to the same verdict set: a reference streamed
/// run, a journal severed mid-stream (at a record boundary *and* inside
/// a record), and resumes at different shard counts must all agree —
/// with each other and with batch analysis.
#[test]
fn killed_and_resumed_ingest_heals_to_the_same_verdicts() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault("dup-reorder"));
    let icfg = |shards: usize| IngestConfig { shards, ..Default::default() };

    let journal = scratch_path("ingest-resume-ref");
    let reference =
        ingest_world_resumable(&source, &cfg, &icfg(8), &journal).expect("reference run");
    assert_eq!(reference.stats.replayed, 0);
    assert!(reference.stats.checkpoints > 0, "no durable checkpoint reached");
    let want: Vec<String> = reference.reports.iter().map(|r| format!("{r:?}")).collect();

    let bytes = std::fs::read(&journal).expect("read journal");
    let boundaries = record_boundaries(&bytes);
    assert!(boundaries.len() > 2, "journal too short to sever");
    // Sever at a record boundary and mid-record: both must resume; the
    // torn record costs only itself.
    let at_boundary = boundaries[boundaries.len() / 2];
    let mid_record = at_boundary + 7;
    for (tag, cut, shards) in
        [("boundary", at_boundary, 1usize), ("mid-record", mid_record, 4usize)]
    {
        let severed = scratch_path(&format!("ingest-resume-{tag}"));
        std::fs::write(&severed, &bytes[..cut.min(bytes.len())]).expect("write severed copy");
        let resumed =
            ingest_world_resumable(&source, &cfg, &icfg(shards), &severed).expect("resumed run");
        assert!(resumed.stats.replayed > 0, "{tag}: nothing replayed from the journal");
        assert!(
            resumed.stats.replayed < resumed.stats.blocks,
            "{tag}: everything replayed — the kill was not mid-stream"
        );
        let got: Vec<String> = resumed.reports.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(want, got, "{tag}: resumed verdict set diverged");
        let _ = std::fs::remove_file(&severed);
    }
    let _ = std::fs::remove_file(&journal);
}

/// The feed's worker count changes nothing: `ingest_world` fed by one
/// probing worker and by four reproduces the batch analysis, report for
/// report.
#[test]
fn ingest_world_matches_batch_at_one_and_four_feed_threads() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault("restart-storm"));
    let want: Vec<String> =
        WORLD.batch("restart-storm").reports.iter().map(|r| format!("{r:?}")).collect();
    for threads in [1, 4] {
        let streamed =
            with_feed_workers(threads, || ingest_world(&source, &cfg, &IngestConfig::default()));
        assert!(streamed.quarantined.is_empty(), "{threads} feed threads: quarantines");
        let got: Vec<String> = streamed.reports.iter().map(|r| format!("{r:?}")).collect();
        assert!(got == want, "{threads} feed threads: reports diverged from batch");
    }
}

/// Kill-and-resume with four feed workers: a resumed feed's chunks are
/// runs of 256 blocks the journal did not replay, probed four at a time,
/// and the verdicts heal to the uninterrupted run's and the batch run's.
#[test]
fn killed_and_resumed_ingest_heals_at_four_feed_threads() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault("loss-heavy"));
    let icfg = IngestConfig { shards: 2, ..Default::default() };
    let want: Vec<String> =
        WORLD.batch("loss-heavy").reports.iter().map(|r| format!("{r:?}")).collect();

    let journal = scratch_path("ingest-resume-feed-threads");
    let resumable =
        || with_feed_workers(4, || ingest_world_resumable(&source, &cfg, &icfg, &journal));
    let reference = resumable().expect("reference run");
    let got: Vec<String> = reference.reports.iter().map(|r| format!("{r:?}")).collect();
    assert!(got == want, "uninterrupted run diverged from batch");

    let bytes = std::fs::read(&journal).expect("read journal");
    let cut = record_boundaries(&bytes)[reference.reports.len() / 3];
    std::fs::write(&journal, &bytes[..cut]).expect("sever the journal");
    let resumed = resumable().expect("resumed run");
    assert!(resumed.stats.replayed > 0, "nothing replayed from the journal");
    assert!(resumed.stats.replayed < resumed.stats.blocks, "everything replayed");
    let got: Vec<String> = resumed.reports.iter().map(|r| format!("{r:?}")).collect();
    assert!(got == want, "resumed verdict set diverged");
    let _ = std::fs::remove_file(&journal);
}

/// The ingest journal speaks the batch journal's format: a run killed
/// under `analyze_world_resumable` can be finished by the streaming
/// engine (and vice versa) with identical verdicts.
#[test]
fn batch_and_ingest_checkpoints_are_interchangeable() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault("loss-light"));
    let world = WORLD.world();
    let batch = WORLD.batch("loss-light");

    // Batch writes, ingest finishes.
    let journal = scratch_path("ingest-cross-batch");
    analyze_world_resumable(&world, &cfg, 8, &journal, None).expect("batch journaled run");
    let bytes = std::fs::read(&journal).expect("read journal");
    let cut = record_boundaries(&bytes)[batch.reports.len() / 3];
    std::fs::write(&journal, &bytes[..cut]).expect("sever");
    let finished = ingest_world_resumable(&source, &cfg, &IngestConfig::default(), &journal)
        .expect("ingest resume of batch journal");
    assert!(finished.stats.replayed > 0);
    for (s, b) in finished.reports.iter().zip(&batch.reports) {
        assert_eq!(format!("{s:?}"), format!("{b:?}"), "ingest finish of batch journal");
    }

    // Ingest writes, batch finishes.
    let bytes = std::fs::read(&journal).expect("read finished journal");
    let cut = record_boundaries(&bytes)[batch.reports.len() / 2];
    std::fs::write(&journal, &bytes[..cut]).expect("sever again");
    let batch_finished =
        analyze_world_resumable(&world, &cfg, 4, &journal, None).expect("batch resume");
    for (s, b) in batch_finished.reports.iter().zip(&batch.reports) {
        assert_eq!(format!("{s:?}"), format!("{b:?}"), "batch finish of ingest journal");
    }
    let _ = std::fs::remove_file(&journal);
}
