//! World-scale differential oracle for the sharded streaming ingest
//! engine.
//!
//! The single-block batch≡online exact-agreement test
//! (`testkit/tests/oracles.rs`) scaled to a whole world: for every named
//! [`FaultPlan`] preset the world is streamed through `core::ingest` at
//! 1, 4 and 8 shards (each with a different event interleaving), and
//! every per-block verdict — class, phase, the full joined report — must
//! agree *exactly* with the batch pipeline (`analyze_block` /
//! `analyze_world`) on the same rounds. Kill-and-resume from a severed
//! mid-stream checkpoint journal must heal to the same verdict set, and
//! the ingest journal is interchangeable with the batch one.
//!
//! Scale: `INGEST_ORACLE_BLOCKS` blocks when set (CI runs 5000); the
//! default keeps debug tier-1 runs tractable while release runs cover
//! the full world.

use sleepwatch_core::ingest::with_feed_workers;
use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::{
    analyze_block, analyze_world, analyze_world_resumable, ingest_world, ingest_world_resumable,
    AnalysisConfig, IngestConfig, WorldAnalysis,
};
use sleepwatch_probing::{FaultPlan, TrinocularProber};
use sleepwatch_simnet::{World, WorldConfig, WorldSource};
use sleepwatch_testkit::oracles::{assert_batch_online_agree, clean_checked};
use sleepwatch_testkit::resilience::scratch_path;

const PRESET_SEED: u64 = 0xFA_17;
const SHARDS: [usize; 3] = [1, 4, 8];
const ORACLE_SEED: u64 = 0x001A_6E57;
/// Long enough (≈229 rounds) to cover every named fault preset,
/// including the blackout window ending at round 225 — the calibration
/// the resilience suite established.
const ORACLE_DAYS: f64 = 1.75;

fn oracle_blocks() -> usize {
    std::env::var("INGEST_ORACLE_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 400 } else { 5_000 })
}

fn preset(name: &str) -> FaultPlan {
    FaultPlan::presets(PRESET_SEED)
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no preset named {name}"))
        .1
}

fn oracle_world_cfg() -> WorldConfig {
    WorldConfig {
        num_blocks: oracle_blocks(),
        seed: ORACLE_SEED,
        span_days: ORACLE_DAYS,
        ..Default::default()
    }
}

fn oracle_source() -> WorldSource {
    WorldSource::new(oracle_world_cfg())
}

fn oracle_cfg(plan: FaultPlan) -> AnalysisConfig {
    let wcfg = oracle_world_cfg();
    AnalysisConfig { faults: plan, ..AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days) }
}

fn batch_reference(cfg: &AnalysisConfig) -> WorldAnalysis {
    let world = World::generate(oracle_world_cfg());
    analyze_world(&world, cfg, 8, None)
}

/// The oracle body: at every shard count (each with its own arrival
/// order), the streamed world must reproduce the batch analysis
/// element for element — verdicts, phases, and the whole joined report.
fn world_differential(name: &str) {
    let source = oracle_source();
    let cfg = oracle_cfg(preset(name));
    let batch = batch_reference(&cfg);
    assert!(batch.quarantined.is_empty(), "{name}: reference run quarantined blocks");
    for (i, shards) in SHARDS.into_iter().enumerate() {
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

#[test]
fn world_differential_loss_light() {
    world_differential("loss-light");
}

#[test]
fn world_differential_loss_heavy() {
    world_differential("loss-heavy");
}

#[test]
fn world_differential_blackout() {
    world_differential("blackout");
}

#[test]
fn world_differential_restart_storm() {
    world_differential("restart-storm");
}

#[test]
fn world_differential_truncated() {
    world_differential("truncated");
}

#[test]
fn world_differential_dup_reorder() {
    world_differential("dup-reorder");
}

#[test]
fn world_differential_churn() {
    world_differential("churn");
}

/// The original exact-agreement pin at world scale: for a sweep of
/// blocks, the full-window `OnlineDetector` must agree with the batch
/// spectral classifier on that block's *actual* cleaned (faulted)
/// series — the detector-level half of the streaming story.
#[test]
fn online_detector_agrees_with_batch_across_the_world() {
    let source = oracle_source();
    let cfg = oracle_cfg(preset("loss-light"));
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
    let wcfg =
        WorldConfig { num_blocks: blocks, seed: ORACLE_SEED, span_days: 5.0, ..Default::default() };
    let source = WorldSource::new(wcfg.clone());
    let world = World::generate(wcfg.clone());
    let mut plans = vec![("none", FaultPlan::none())];
    plans.extend(FaultPlan::presets(PRESET_SEED));
    for (name, plan) in plans {
        let cfg = AnalysisConfig {
            faults: plan,
            ..AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days)
        };
        let batch = analyze_world(&world, &cfg, 8, None);
        let (feed, quarantined) =
            sleepwatch_core::world_feed(&source, &cfg, &IngestConfig::default());
        assert!(quarantined.is_empty(), "{name}: feed quarantines");
        let feed = sleepwatch_testkit::fixtures::round_major(&feed);
        for shards in SHARDS {
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
    let wcfg = WorldConfig { num_blocks: 256, seed: 41, span_days: 20.0, ..Default::default() };
    let source = WorldSource::new(wcfg.clone());
    let mut plans = vec![("none", FaultPlan::none())];
    plans.extend(FaultPlan::presets(5));
    for ((name, plan), (pin_name, strict, classifications, rounds)) in plans.into_iter().zip(PINS) {
        assert_eq!(name, pin_name);
        let cfg = AnalysisConfig {
            faults: plan,
            ..AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days)
        };
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
    let source = oracle_source();
    let cfg = oracle_cfg(preset("dup-reorder"));
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
    let source = oracle_source();
    let cfg = oracle_cfg(preset("restart-storm"));
    let want: Vec<String> =
        batch_reference(&cfg).reports.iter().map(|r| format!("{r:?}")).collect();
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
    let source = oracle_source();
    let cfg = oracle_cfg(preset("loss-heavy"));
    let icfg = IngestConfig { shards: 2, ..Default::default() };
    let want: Vec<String> =
        batch_reference(&cfg).reports.iter().map(|r| format!("{r:?}")).collect();

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
    let source = oracle_source();
    let cfg = oracle_cfg(preset("loss-light"));
    let world = World::generate(oracle_world_cfg());
    let batch = analyze_world(&world, &cfg, 8, None);

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
