//! Property-based tests for the streaming ingest engine: shard routing
//! is a pure function of the block id (so verdicts cannot depend on the
//! shard count), and any arrival order that preserves per-block emission
//! order yields byte-identical outcomes.

use proptest::prelude::*;
use sleepwatch_core::{ingest_direct, ingest_events, AnalysisConfig, IngestConfig, IngestOutcome};
use sleepwatch_probing::{interleave, replay_run, FaultPlan, RoundEvent, TrinocularProber};
use sleepwatch_simnet::{shard_of, WorldConfig, WorldSource};
use std::sync::OnceLock;

const FIXTURE_SEED: u64 = 0x0051_E57A;

fn world_cfg() -> WorldConfig {
    WorldConfig { num_blocks: 12, seed: FIXTURE_SEED, span_days: 1.0, ..Default::default() }
}

fn source() -> &'static WorldSource {
    static SOURCE: OnceLock<WorldSource> = OnceLock::new();
    SOURCE.get_or_init(|| WorldSource::new(world_cfg()))
}

fn cfg() -> &'static AnalysisConfig {
    static CFG: OnceLock<AnalysisConfig> = OnceLock::new();
    CFG.get_or_init(|| {
        let w = world_cfg();
        AnalysisConfig {
            // Duplicates and reordering make per-block order the only
            // invariant left — the hardest feed for the engine.
            faults: FaultPlan::dup_reorder(FIXTURE_SEED),
            ..AnalysisConfig::over_days(w.start_time, w.span_days)
        }
    })
}

/// One event stream per block, probed exactly as the batch pipeline
/// would, shared by every proptest case.
fn streams() -> &'static Vec<Vec<RoundEvent>> {
    static STREAMS: OnceLock<Vec<Vec<RoundEvent>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let (src, cfg) = (source(), cfg());
        (0..src.len() as u64)
            .map(|id| {
                let block = src.generate_block(id);
                let mut prober = TrinocularProber::new(&block, cfg.trinocular);
                replay_run(&prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults))
            })
            .collect()
    })
}

/// The queue-less single-lane reference every engine run must match.
fn reference() -> &'static Vec<String> {
    static REFERENCE: OnceLock<Vec<String>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let feed: Vec<RoundEvent> = streams().iter().flatten().copied().collect();
        let out = ingest_direct(source(), cfg(), feed);
        assert!(out.quarantined.is_empty());
        assert_eq!(out.reports.len(), source().len());
        out.reports.iter().map(|r| format!("{r:?}")).collect()
    })
}

fn assert_matches_reference(out: &IngestOutcome, context: &str) {
    assert!(out.quarantined.is_empty(), "{context}: quarantines");
    let got: Vec<String> = out.reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(&got, reference(), "{context}: verdicts diverged from the direct reference");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `shard_of` is pure and in range: the same id maps to the same
    /// shard on every call, independent of everything else.
    #[test]
    fn shard_routing_is_a_pure_in_range_function(id in any::<u64>(), shards in 1usize..=16) {
        let first = shard_of(id, shards);
        prop_assert!(first < shards, "shard {first} out of range for {shards}");
        prop_assert_eq!(first, shard_of(id, shards), "routing is not a pure function");
    }

    /// Verdicts are independent of the shard count: because routing is a
    /// pure function of the block id, every event of a block lands on one
    /// shard, and 1..=8 shards all reproduce the direct reference.
    #[test]
    fn verdicts_are_independent_of_shard_count(
        shards in 1usize..=8,
        batch_events in 1usize..=64,
    ) {
        let icfg = IngestConfig { shards, batch_events, ..Default::default() };
        let feed: Vec<RoundEvent> = streams().iter().flatten().copied().collect();
        let out = ingest_events(source(), cfg(), &icfg, feed);
        assert_matches_reference(&out, &format!("{shards} shards, batch {batch_events}"));
    }

    /// Any per-block-order-preserving interleaving yields identical
    /// outcomes: arbitrary seeds drive the cross-stream shuffle, tiny
    /// queue capacities and batches force backpressure stalls, and the
    /// verdicts never move. A queue holds whole batches, never more events
    /// than its capacity or one batch, whichever is larger.
    #[test]
    fn any_order_preserving_interleaving_agrees(
        seed in any::<u64>(),
        capacity in 16usize..=512,
        batch_events in 1usize..=64,
    ) {
        let icfg =
            IngestConfig { shards: 4, queue_capacity: capacity, batch_events, ..Default::default() };
        let feed = interleave(streams().clone(), seed);
        let out = ingest_events(source(), cfg(), &icfg, feed);
        prop_assert!(
            out.stats.queue_high_water <= capacity.max(batch_events),
            "queue grew past its bound: {} > max({capacity}, {batch_events})",
            out.stats.queue_high_water,
        );
        let context = format!("interleave seed {seed:#x}, capacity {capacity}, batch {batch_events}");
        assert_matches_reference(&out, &context);
    }
}
