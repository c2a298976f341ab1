//! Metrics-invariant conformance: the observability layer's counters must
//! agree exactly with ground truth derivable from the pipeline's outputs
//! and the public `FaultPlan` API — under the fault-free run and under
//! every named fault preset.
//!
//! Every test serializes on [`lock`] because the global registry is
//! process-wide; activity is isolated with snapshot deltas around the
//! measured call.

use sleepwatch_core::feed::with_feed_workers;
use sleepwatch_core::journal::{open_resume, record_boundaries, JournalHeader};
use sleepwatch_core::serve::index::Filter;
use sleepwatch_core::serve::{load_rows, serve_streams, LruOutcome};
use sleepwatch_core::{
    analyze_block, analyze_world, analyze_world_resumable, analyze_world_source, dataset_rows,
    decode_dataset, encode_dataset, feed_identity, ingest_source, ingest_world,
    ingest_world_resumable, run_identity, world_feed, AnalysisConfig, DatasetMode, IngestConfig,
    ServeState, WorldFeed,
};
use sleepwatch_obs::Snapshot;
use sleepwatch_probing::transport::{
    serve_feed, write_feed, BackoffConfig, Endpoint, FeedConfig, FeedEvents, TcpConfig,
    TcpEventSource,
};
use sleepwatch_probing::{FaultPlan, TrinocularProber};
use sleepwatch_simnet::{World, WorldConfig, WorldSource};
use sleepwatch_testkit::chaos::{ChaosPlan, ChaosProxy, Harm};
use sleepwatch_testkit::fixtures;
use sleepwatch_testkit::matrix::THREADS;
use sleepwatch_testkit::resilience::scratch_path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes metric-asserting tests (a poisoned lock is fine: the global
/// registry carries no invariant between tests, deltas isolate each one).
fn lock() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the global registry guaranteed enabled, restoring the
/// enabled default afterwards.
fn with_metrics<T>(f: impl FnOnce() -> T) -> T {
    sleepwatch_obs::set_global_enabled(true);
    let out = f();
    sleepwatch_obs::set_global_enabled(true);
    out
}

/// Delta of global-registry activity across `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let before = Snapshot::capture(sleepwatch_obs::global());
    let out = f();
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    (out, delta)
}

/// Ground-truth fault tallies recomputed through the public [`FaultPlan`]
/// API only — the same per-round queries the prober makes, in the same
/// order, with none of the prober's private randomness.
#[derive(Debug, Default, PartialEq, Eq)]
struct ExpectedFaults {
    loss_bursts: u64,
    blackouts: u64,
    blackout_rounds: u64,
    storm_restarts: u64,
    truncations: u64,
    truncated_rounds: u64,
    cfg_restarts: u64,
    churn_events: u64,
}

fn expected_faults(
    plan: &FaultPlan,
    block_id: u64,
    rounds: u64,
    cfg_restart_interval: Option<u64>,
) -> ExpectedFaults {
    let mut e = ExpectedFaults::default();
    let mut in_blackout = false;
    let mut in_burst = false;
    for r in 0..rounds {
        if plan.truncates_at(r) {
            e.truncations += 1;
            e.truncated_rounds += rounds - r;
            break;
        }
        if plan.churn_at(r).is_some() {
            e.churn_events += 1;
        }
        if plan.blacked_out(r) {
            if !in_blackout {
                e.blackouts += 1;
                in_blackout = true;
            }
            e.blackout_rounds += 1;
            continue;
        }
        in_blackout = false;
        if plan.storm_restart_at(block_id, r).is_some() {
            e.storm_restarts += 1;
        }
        if plan.loss_at(block_id, r) > 0.0 {
            if !in_burst {
                e.loss_bursts += 1;
            }
            in_burst = true;
        } else {
            in_burst = false;
        }
        if cfg_restart_interval.is_some_and(|k| r > 0 && r % k == 0) {
            e.cfg_restarts += 1;
        }
    }
    e
}

/// Expected duplicate/reorder injections: replay each block's record
/// stream under a mangle-free copy of the plan (record-stream corruption
/// is the final step, so the pre-mangle stream is identical), then apply
/// the real plan's `mangle_records` and take its own accounting. Run with
/// metrics disabled so the replay leaves no trace in the registry.
fn expected_mangles(world: &World, cfg: &AnalysisConfig, plan: &FaultPlan) -> (u64, u64) {
    let mut unmangled = *plan;
    unmangled.duplicate_rate = 0.0;
    unmangled.reorder_rate = 0.0;
    sleepwatch_obs::set_global_enabled(false);
    let mut dups = 0u64;
    let mut swaps = 0u64;
    for block in &world.blocks {
        let mut prober = TrinocularProber::new(block, cfg.trinocular);
        let run = prober.run_with_faults(block, cfg.start_time, cfg.rounds, &unmangled);
        let mut records = run.records.clone();
        let (d, s) = plan.mangle_records(block.id, &mut records);
        dups += d;
        swaps += s;
    }
    sleepwatch_obs::set_global_enabled(true);
    (dups, swaps)
}

/// The fault-free world run: every counter the pipeline owns agrees with
/// ground truth computable from its outputs.
#[test]
fn world_run_counters_match_ground_truth() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let cfg = fixtures::small_world_cfg(&world);
        let (analysis, d) = measure(|| analyze_world(&world, &cfg, 2, None));
        let n = world.blocks.len() as u64;

        assert_eq!(d.counter("pipeline.blocks_analyzed"), n);
        assert_eq!(d.counter("world.runs"), 1);
        assert_eq!(d.counter("world.blocks_total"), n);
        assert_eq!(d.counter("probing.runs"), n);
        assert_eq!(d.counter("probing.eb_refreshes"), n, "one E(b) walk per prober");

        let ground_truth_probes: u64 =
            analysis.reports.iter().map(|r| r.summary.total_probes).sum();
        assert_eq!(d.counter("probing.probes_sent"), ground_truth_probes);

        assert_eq!(d.counter("cleaning.series_cleaned"), n);
        let fill = d.histogram("cleaning.fill_fraction").expect("fill histogram captured");
        assert_eq!(fill.count, n, "one fill-fraction sample per block");

        // Plan-cache conservation: every counted transform went through
        // exactly one counted cache lookup.
        assert_eq!(
            d.counter("plan_cache.hits") + d.counter("plan_cache.misses"),
            d.counter("fft.transforms"),
            "hits + misses must equal FFT transforms"
        );
        assert_eq!(d.counter("plan_cache.prewarms"), 1, "analyze_world prewarms once");
        // A world run transforms every analyzed block through the 8-lane
        // batch kernel, never one series at a time.
        assert_eq!(d.counter("spectral.batched_series"), n, "every block's FFT is batched");

        // Every block was geolocated (hit or miss) and link-classified.
        assert_eq!(d.counter("geo.locate_hits") + d.counter("geo.locate_misses"), n);
        assert_eq!(d.counter("linktype.blocks_classified"), n);

        // Worker accounting: per-thread work sums to the world, nothing
        // overflowed the table.
        let workers = d.length_counts("world.worker_blocks");
        let (pairs, overflow) = d.lengths.get("world.worker_blocks").expect("worker table");
        assert_eq!(*overflow, 0);
        assert_eq!(pairs, workers);
        assert_eq!(workers.iter().map(|&(_, c)| c).sum::<u64>(), n);
        assert!(workers.iter().all(|&(w, _)| w < 2), "worker ids are 0..threads");

        // No faults were configured, so no fault counter may move.
        for key in [
            "faults.loss_bursts",
            "faults.lost_probes",
            "faults.blackouts",
            "faults.blackout_rounds",
            "faults.storm_restarts",
            "faults.storm_lost_rounds",
            "faults.truncations",
            "faults.truncated_rounds",
            "faults.duplicates",
            "faults.reorders",
        ] {
            assert_eq!(d.counter(key), 0, "{key} moved on a fault-free run");
        }

        // Stage timers: one sample per block for each per-block stage, one
        // for the whole run. `Âs` is estimated inside the prober, so
        // `stage.estimate` records nothing.
        for stage in ["stage.probe", "stage.clean", "stage.fft", "stage.classify"] {
            assert_eq!(d.histogram(stage).map(|h| h.count), Some(n), "{stage} sample count");
        }
        assert_eq!(d.histogram("stage.estimate").map(|h| h.count), Some(0));
        assert_eq!(d.histogram("stage.total").map(|h| h.count), Some(1));
        assert_eq!(d.histogram("stage.join").map(|h| h.count), Some(1));
    });
}

/// Under every named fault preset (plus the combined conformance regime),
/// the fault-event counters equal the counts independently recomputed from
/// the public `FaultPlan` API.
#[test]
fn fault_counters_match_plan_under_every_preset() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let base_cfg = fixtures::small_world_cfg(&world);
        let mut regimes = FaultPlan::presets(23);
        regimes.push(("conformance", fixtures::conformance_faults()));

        for (name, plan) in regimes {
            let mut cfg = base_cfg;
            cfg.faults = plan;
            let (_, d) = measure(|| analyze_world(&world, &cfg, 2, None));

            let mut want = ExpectedFaults::default();
            for block in &world.blocks {
                let e = expected_faults(
                    &plan,
                    block.id,
                    cfg.rounds,
                    cfg.trinocular.restart_interval_rounds,
                );
                want.loss_bursts += e.loss_bursts;
                want.blackouts += e.blackouts;
                want.blackout_rounds += e.blackout_rounds;
                want.storm_restarts += e.storm_restarts;
                want.truncations += e.truncations;
                want.truncated_rounds += e.truncated_rounds;
                want.cfg_restarts += e.cfg_restarts;
                want.churn_events += e.churn_events;
            }

            assert_eq!(d.counter("faults.loss_bursts"), want.loss_bursts, "{name}");
            assert_eq!(d.counter("faults.blackouts"), want.blackouts, "{name}");
            assert_eq!(d.counter("faults.blackout_rounds"), want.blackout_rounds, "{name}");
            assert_eq!(d.counter("faults.storm_restarts"), want.storm_restarts, "{name}");
            assert_eq!(d.counter("faults.truncations"), want.truncations, "{name}");
            assert_eq!(d.counter("faults.truncated_rounds"), want.truncated_rounds, "{name}");
            assert_eq!(d.counter("faults.cfg_restarts"), want.cfg_restarts, "{name}");
            // One refresh per prober construction plus one per churn event.
            assert_eq!(
                d.counter("probing.eb_refreshes"),
                world.blocks.len() as u64 + want.churn_events,
                "{name}"
            );

            // Storm-lost rounds depend on the prober's private restart
            // draw; they are bounded by the storms that landed.
            assert!(
                d.counter("faults.storm_lost_rounds") <= want.storm_restarts,
                "{name}: more storm-lost rounds than storms"
            );
            if want.loss_bursts > 0 {
                assert!(
                    d.counter("faults.lost_probes") > 0,
                    "{name}: bursts fired but no probe was ever lost"
                );
            } else {
                assert_eq!(d.counter("faults.lost_probes"), 0, "{name}");
            }

            // Record-stream corruption: exact, via the plan's own
            // accounting replayed on the pre-mangle record streams.
            let (dups, swaps) = expected_mangles(&world, &cfg, &plan);
            assert_eq!(d.counter("faults.duplicates"), dups, "{name}");
            assert_eq!(d.counter("faults.reorders"), swaps, "{name}");

            // The structural invariants hold under faults too.
            assert_eq!(d.counter("pipeline.blocks_analyzed"), world.blocks.len() as u64, "{name}");
            assert_eq!(
                d.counter("plan_cache.hits") + d.counter("plan_cache.misses"),
                d.counter("fft.transforms"),
                "{name}: plan-cache conservation broke"
            );
        }
    });
}

/// Scratch-arena accounting: every analyzed block is classified as either
/// a reuse or a grow, worker batches never reallocate, and the peak-arena
/// gauge reports a real footprint.
#[test]
fn scratch_counters_match_run_shape() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let cfg = fixtures::small_world_cfg(&world);
        let n = world.blocks.len() as u64;

        // World run: worker-local arenas warm up once, then every block
        // is a reuse.
        let (_, d) = measure(|| analyze_world(&world, &cfg, 2, None));
        assert_eq!(
            d.counter("pipeline.scratch_reuses") + d.counter("pipeline.scratch_grows"),
            n,
            "every block must be classified as reuse or grow"
        );
        assert!(d.counter("pipeline.scratch_grows") >= 1, "warm-up must register as a grow");
        assert!(d.counter("pipeline.scratch_reuses") > 0, "steady state must register reuses");
        assert_eq!(d.counter("world.batch_grows"), 0, "worker batches must never reallocate");
        assert!(d.counter("world.peak_block_bytes") > 0, "peak arena gauge must be populated");

        // `analyze_block` allocates a fresh arena per block: all grows.
        let (_, d) = measure(|| {
            for block in &world.blocks {
                analyze_block(block, &cfg);
            }
        });
        assert_eq!(d.counter("pipeline.scratch_grows"), n);
        assert_eq!(d.counter("pipeline.scratch_reuses"), 0);
    });
}

/// Quarantine accounting: every panicking block bumps
/// `resilience.blocks_quarantined` exactly once per run, and the
/// survivors are still all counted as analyzed.
#[test]
fn quarantine_counter_matches_quarantined_blocks() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let mut cfg = fixtures::small_world_cfg(&world);
        cfg.faults.poison_blocks = &[3, 17, 41];
        let n = world.blocks.len() as u64;
        for threads in THREADS {
            let (analysis, d) = measure(|| analyze_world(&world, &cfg, threads, None));
            assert_eq!(analysis.quarantined.len(), 3);
            assert_eq!(d.counter("resilience.blocks_quarantined"), 3, "{threads} threads");
            assert_eq!(d.counter("pipeline.blocks_analyzed"), n - 3, "{threads} threads");
        }
    });
}

/// The per-block join is timed once per report an engine emits, in both
/// engines; a quarantined block never reaches it.
#[test]
fn label_stage_samples_once_per_emitted_report() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let mut cfg = fixtures::small_world_cfg(&world);
        cfg.faults.poison_blocks = &[3, 17];
        let (analysis, d) = measure(|| analyze_world(&world, &cfg, 2, None));
        assert_eq!(analysis.quarantined.len(), 2);
        let reports = analysis.reports.len() as u64;
        assert_eq!(d.histogram("stage.label").map(|h| h.count), Some(reports), "world run");

        let (source, mut cfg) = stream_world();
        cfg.faults.poison_blocks = &[5];
        let icfg = IngestConfig { shards: 2, ..Default::default() };
        let (out, d) = measure(|| ingest_world(&source, &cfg, &icfg));
        assert_eq!(out.quarantined.len(), 1);
        let reports = out.reports.len() as u64;
        assert_eq!(d.histogram("stage.label").map(|h| h.count), Some(reports), "ingest");
        let finalize = d.histogram("stage.ingest.finalize").map(|h| h.count);
        assert_eq!(finalize, Some(reports), "ingest finalize");
    });
}

/// The disabled registry records nothing — and the analysis output is
/// byte-identical with metrics on, off, and across thread counts.
#[test]
fn disabled_metrics_are_inert_and_output_invariant() {
    let _g = lock();
    let enabled = with_metrics(|| fixtures::world_dataset_tsv(2));

    sleepwatch_obs::set_global_enabled(false);
    let before = Snapshot::capture(sleepwatch_obs::global());
    let disabled_t1 = fixtures::world_dataset_tsv(1);
    let disabled_t4 = fixtures::world_dataset_tsv(4);
    let after = Snapshot::capture(sleepwatch_obs::global());
    sleepwatch_obs::set_global_enabled(true);

    assert_eq!(enabled, disabled_t1, "metrics state leaked into the dataset");
    assert_eq!(disabled_t1, disabled_t4, "thread count leaked into the dataset");

    let d = after.delta(&before);
    assert!(d.counters.values().all(|&v| v == 0), "disabled registry moved: {:?}", d.counters);
    assert!(d.histograms.values().all(|h| h.count == 0));
    assert!(d.lengths.values().all(|(pairs, of)| pairs.is_empty() && *of == 0));
}

/// Survey probes account separately from adaptive probes, keeping the
/// `probes_sent == Σ total_probes` ground-truth equality exact.
#[test]
fn survey_probes_are_counted_separately() {
    let _g = lock();
    with_metrics(|| {
        let block = fixtures::diurnal_block(3, 17);
        let (result, d) = measure(|| sleepwatch_probing::survey_block(&block, 0, 40));
        assert_eq!(d.counter("probing.survey_probes"), result.total_probes);
        assert_eq!(result.total_probes, 256 * result.rounds);
        assert_eq!(d.counter("probing.probes_sent"), 0, "surveys must not count as adaptive");
    });
}

// ---------------------------------------------------------------------
// What is counted twice: ingest, transport and serve keep a local stats
// struct next to the global counters; the two must never disagree.
// ---------------------------------------------------------------------

/// A short lazy world for the streaming tests: 24 blocks, 1.25 days.
fn stream_world() -> (WorldSource, AnalysisConfig) {
    let wcfg = WorldConfig { num_blocks: 24, seed: 21, span_days: 1.25, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    (WorldSource::new(wcfg), cfg)
}

/// Asserts the `ingest.*` delta equals the run's own `IngestStats`.
fn assert_ingest_counters(d: &Snapshot, stats: &sleepwatch_core::IngestStats) {
    assert_eq!(d.counter("ingest.rounds_routed"), stats.rounds_routed);
    assert_eq!(d.counter("ingest.backpressure_stalls"), stats.backpressure_stalls);
    assert_eq!(d.counter("ingest.checkpoints"), stats.checkpoints);
    assert_eq!(d.counter("ingest.blocks_finished"), (stats.blocks - stats.replayed) as u64);
    // One finalize sample per streamed report: replayed blocks are never
    // finalized, quarantined ones never reported.
    let finalize = d.histogram("stage.ingest.finalize").map_or(0, |h| h.count);
    assert_eq!(finalize, (stats.blocks - stats.replayed) as u64);
    // A gauge is the process's high-water mark, not this run's.
    assert!(d.counter("ingest.queue_high_water") >= stats.queue_high_water as u64);
}

/// `IngestStats` is flushed into `ingest.*` once, at the end of the run.
#[test]
fn ingest_counters_match_ingest_stats() {
    let _g = lock();
    with_metrics(|| {
        let (source, cfg) = stream_world();
        // A queue far smaller than the feed, so the feeder really stalls.
        let icfg =
            IngestConfig { shards: 2, queue_capacity: 64, batch_events: 16, ..Default::default() };
        let (out, d) = measure(|| ingest_world(&source, &cfg, &icfg));
        assert_eq!(out.stats.blocks, source.len());
        assert_eq!(out.stats.rounds_routed, source.len() as u64 * cfg.rounds);
        assert!(out.stats.queue_high_water > 0);
        assert_ingest_counters(&d, &out.stats);

        // A worker records a queue wait only for a pop that waited for its
        // batch: at most one per batch the router filled, ⌈events/16⌉ for
        // each shard's share of the feed.
        let (feed, _) = world_feed(&source, &cfg, &icfg);
        let mut per_shard = vec![0usize; icfg.shards];
        for ev in &feed {
            per_shard[sleepwatch_simnet::shard_of(ev.block_id(), icfg.shards)] += 1;
        }
        let batches: usize = per_shard.iter().map(|n| n.div_ceil(icfg.batch_events)).sum();
        assert_eq!(d.counter("ingest.batches_sent"), batches as u64);
        let waits = d.histogram("stage.ingest.queue_wait").map_or(0, |h| h.count);
        assert!(waits <= batches as u64, "{waits} waiting pops for {batches} batches");
    });
}

/// One `stage.ingest.apply` sample per event batch a shard applies, so
/// per `ingest.batches_sent`, at one shard and at two.
#[test]
fn apply_samples_once_per_batch_sent() {
    let _g = lock();
    with_metrics(|| {
        let (source, cfg) = stream_world();
        for shards in [1, 2] {
            let icfg =
                IngestConfig { shards, queue_capacity: 64, batch_events: 16, ..Default::default() };
            let (_, d) = measure(|| ingest_world(&source, &cfg, &icfg));
            let samples = d.histogram("stage.ingest.apply").map_or(0, |h| h.count);
            assert!(samples > 0, "{shards} shards: no batch applied");
            assert_eq!(samples, d.counter("ingest.batches_sent"), "{shards} shards");
        }
    });
}

/// One finalize sample per streamed report: none for a block replayed
/// from the journal, none for one quarantined on its shard.
#[test]
fn finalize_samples_skip_replayed_and_quarantined_blocks() {
    let _g = lock();
    with_metrics(|| {
        let (source, cfg) = stream_world();
        let icfg = IngestConfig { shards: 2, ..Default::default() };
        // Fed from a clean probe, so the planted panic goes off on the
        // shard, inside a finalizing group, not at feed time.
        let (feed, _) = world_feed(&source, &cfg, &icfg);
        let mut poisoned = cfg;
        poisoned.faults.poison_blocks = &[5];
        let (out, d) = measure(|| {
            sleepwatch_core::ingest_events(&source, &poisoned, &icfg, feed.iter().copied())
        });
        assert_eq!(out.quarantined.len(), 1);
        assert_ingest_counters(&d, &out.stats);

        let journal = scratch_path("metrics-ingest-journal");
        let (out, d) = measure(|| ingest_world_resumable(&source, &cfg, &icfg, &journal).unwrap());
        assert_eq!(out.stats.replayed, 0);
        assert_ingest_counters(&d, &out.stats);

        let bytes = std::fs::read(&journal).expect("read journal");
        let kept = source.len() / 3;
        std::fs::write(&journal, &bytes[..record_boundaries(&bytes)[kept]]).expect("cut journal");
        let (out, d) = measure(|| ingest_world_resumable(&source, &cfg, &icfg, &journal).unwrap());
        assert_eq!((out.stats.blocks, out.stats.replayed), (source.len(), kept));
        assert_ingest_counters(&d, &out.stats);
        let _ = std::fs::remove_file(&journal);
    });
}

/// The largest set of blocks open at once on any one shard, walking `feed`
/// per `shard_of`: each shard applies its events in feed order.
fn most_open_on_a_shard(feed: &[sleepwatch_probing::RoundEvent], shards: usize) -> usize {
    use sleepwatch_probing::RoundEvent;
    let mut open = vec![std::collections::HashSet::new(); shards];
    let mut most = 0;
    for ev in feed {
        let shard = &mut open[sleepwatch_simnet::shard_of(ev.block_id(), shards)];
        match *ev {
            RoundEvent::Round { block_id, .. } => {
                shard.insert(block_id);
                most = most.max(shard.len());
            }
            RoundEvent::Finish { block_id, .. } => {
                shard.remove(&block_id);
            }
        }
    }
    most
}

/// `ingest.open_lanes` is the most blocks open at once on one shard, and
/// `ingest.lane_bytes` stays within 8 B per round plus a constant per open
/// lane — on the chunked feed, and on the round-major one, where every
/// block of the fullest shard is open at once.
#[test]
fn lane_gauges_match_the_feed_and_hold_eight_bytes_per_round() {
    let _g = lock();
    with_metrics(|| {
        let (source, cfg) = stream_world();
        let icfg = IngestConfig { shards: 2, ..Default::default() };
        let (chunked, quarantined) = world_feed(&source, &cfg, &icfg);
        assert!(quarantined.is_empty());
        let round_major = fixtures::round_major(&chunked);
        let fullest_shard = (0..icfg.shards)
            .map(|k| {
                let on_k = |&id: &u64| sleepwatch_simnet::shard_of(id, icfg.shards) == k;
                (0..source.len() as u64).filter(on_k).count()
            })
            .max()
            .expect("at least one shard");
        assert_eq!(most_open_on_a_shard(&round_major, icfg.shards), fullest_shard);

        for (tag, feed) in [("chunked", chunked), ("round-major", round_major)] {
            let (out, d) = measure(|| {
                sleepwatch_core::ingest_events(&source, &cfg, &icfg, feed.iter().copied())
            });
            let s = out.stats;
            assert_eq!(s.blocks, source.len(), "{tag}");
            assert_eq!(s.open_lanes, most_open_on_a_shard(&feed, icfg.shards), "{tag}");
            // A gauge is the process's high-water mark, not this run's.
            assert!(d.counter("ingest.open_lanes") >= s.open_lanes as u64, "{tag}");
            assert!(d.counter("ingest.lane_bytes") >= s.lane_bytes as u64, "{tag}");
            let bound = s.open_lanes * (8 * cfg.rounds as usize + 256);
            assert!(
                s.lane_bytes > 0 && s.lane_bytes <= bound,
                "{tag}: {} lane bytes over {} open lanes of {} rounds",
                s.lane_bytes,
                s.open_lanes,
                cfg.rounds
            );
        }
    });
}

/// A self-generated feed probes each chunk of 256 blocks once per pass
/// over it: `world_feed` once; a `WorldFeed` written to a file once; and a
/// `RESUME(s)` — the runs a feed server sends from `s` — every chunk on a
/// fresh feed, which does not know where its chunks start, but only the
/// chunk holding `s` and the chunks after it on a feed sent once.
#[test]
fn feed_chunks_count_each_pass_over_the_world() {
    let _g = lock();
    with_metrics(|| {
        let wcfg = WorldConfig { num_blocks: 600, seed: 21, span_days: 1.0, ..Default::default() };
        let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
        let source = WorldSource::new(wcfg);
        let icfg = IngestConfig::default();
        let (blocks, chunks) = (source.len() as u64, source.len().div_ceil(256) as u64);

        let ((events, _), d) = measure(|| world_feed(&source, &cfg, &icfg));
        assert_eq!(d.counter("ingest.feed_chunks"), chunks);
        let total = events.len() as u64;

        let identity = feed_identity(&source, &cfg);
        let sent_once = WorldFeed::new(&source, &cfg, &icfg);
        let ((), d) = measure(|| {
            write_feed(&mut std::io::sink(), &sent_once, &identity, 256).expect("write into a sink")
        });
        assert_eq!(d.counter("ingest.feed_chunks"), chunks);
        assert_eq!(d.counter("simnet.blocks_generated"), blocks);

        for chunk in 0..chunks {
            let first_block = 256 * chunk;
            let from = events.iter().filter(|ev| ev.block_id() < first_block).count() as u64 + 1;
            let fresh = WorldFeed::new(&source, &cfg, &icfg);
            let probed =
                [(&fresh, chunks, blocks), (&sent_once, chunks - chunk, blocks - first_block)];
            for (feed, want_chunks, want_blocks) in probed {
                let tag = format!("RESUME({from}) on a feed probing {want_chunks} chunks");
                let (sent, d) = measure(|| {
                    let mut sent = 0;
                    let runs = feed.runs_from(from, 256, |run| {
                        sent += run.len() as u64;
                        Ok::<(), ()>(())
                    });
                    runs.map(|end| (sent, end))
                });
                assert_eq!(sent, Ok((total - from, total)), "{tag}");
                assert_eq!(d.counter("ingest.feed_chunks"), want_chunks, "{tag}");
                assert_eq!(d.counter("simnet.blocks_generated"), want_blocks, "{tag}");
            }
        }
    });
}

/// A feed's workers time the blocks they probe, and the block that
/// completes a chunk records the chunk's total: one `stage.ingest.feed_probe`
/// sample per `ingest.feed_chunks` count on every kind of pass — collected,
/// written, resumed, cut short by a failed send, ingested — at
/// one worker and at three. Each block a feed generates is one `stage.probe`
/// sample; an ingest's finalization generates them again but does not
/// probe. The feed is the same with metrics off.
#[test]
fn feed_probe_samples_once_per_probed_chunk() {
    let _g = lock();
    with_metrics(|| {
        let wcfg = WorldConfig { num_blocks: 600, seed: 21, span_days: 1.0, ..Default::default() };
        let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
        let source = WorldSource::new(wcfg);
        let identity = feed_identity(&source, &cfg);
        let samples_match = |tag: &str, d: &Snapshot, probed: u64| {
            let samples = d.histogram("stage.ingest.feed_probe").map_or(0, |h| h.count);
            assert!(samples > 0, "{tag}: no chunk probed");
            assert_eq!(samples, d.counter("ingest.feed_chunks"), "{tag}");
            let probes = d.histogram("stage.probe").map_or(0, |h| h.count);
            assert_eq!(probes, probed, "{tag}: stage.probe samples");
        };
        let generated = |d: &Snapshot| d.counter("simnet.blocks_generated");
        let icfg = IngestConfig { shards: 2, ..Default::default() };
        for threads in [1, 3] {
            with_feed_workers(threads, || {
                let ((events, _), d) = measure(|| world_feed(&source, &cfg, &icfg));
                samples_match(&format!("world_feed, {threads} threads"), &d, generated(&d));

                let feed = WorldFeed::new(&source, &cfg, &icfg);
                let ((), d) = measure(|| {
                    write_feed(&mut std::io::sink(), &feed, &identity, 256)
                        .expect("write into a sink")
                });
                samples_match(&format!("written, {threads} threads"), &d, generated(&d));

                let from = events.iter().filter(|ev| ev.block_id() < 300).count() as u64;
                let (_, d) = measure(|| feed.runs_from(from, 256, |_| Ok::<(), ()>(())));
                samples_match(&format!("RESUME({from}), {threads} threads"), &d, generated(&d));
                let (sent, d) = measure(|| feed.runs_from(0, 256, |_| Err(())));
                assert_eq!(sent, Err(()));
                samples_match(&format!("failed send, {threads} threads"), &d, generated(&d));

                let (_, d) = measure(|| ingest_world(&source, &cfg, &icfg));
                let tag = format!("ingest_world, {threads} threads");
                samples_match(&tag, &d, source.len() as u64);

                sleepwatch_obs::set_global_enabled(false);
                let (unmetered, _) = world_feed(&source, &cfg, &icfg);
                sleepwatch_obs::set_global_enabled(true);
                assert!(unmetered == events, "metrics state leaked into the feed");
            });
        }
    });
}

/// Each chunk the one chunk pool runs records one `stage.chunk_tail`
/// sample: one per `world.source_chunks` in a lazy-source world run and
/// one per `ingest.feed_chunks` in a feed, at one thread and at three. A
/// one-thread world run has no other thread to wait for, so its tail is
/// exactly zero (a feed's calling thread works beside its workers).
#[test]
fn chunk_tail_samples_once_per_chunk() {
    let _g = lock();
    with_metrics(|| {
        let wcfg = WorldConfig { num_blocks: 600, seed: 21, span_days: 3.0, ..Default::default() };
        let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
        let source = WorldSource::new(wcfg);
        let chunks = source.len().div_ceil(256) as u64;
        let tails = |tag: &str, d: &Snapshot, counter: &str, alone: bool| {
            let h = d.histogram("stage.chunk_tail").expect("chunk tail histogram");
            assert_eq!(d.counter(counter), chunks, "{tag}: {counter}");
            assert_eq!(h.count, d.counter(counter), "{tag}: samples");
            if alone {
                assert_eq!(h.sum_micros, 0, "{tag}: one thread waits for no other");
            }
        };
        let icfg = IngestConfig::default();
        for threads in [1, 3] {
            let (_, d) = measure(|| analyze_world_source(&source, &cfg, threads, None));
            tails(
                &format!("world run, {threads} threads"),
                &d,
                "world.source_chunks",
                threads == 1,
            );
            with_feed_workers(threads, || {
                let (_, d) = measure(|| world_feed(&source, &cfg, &icfg));
                tails(&format!("feed, {threads} workers"), &d, "ingest.feed_chunks", false);
            });
        }
    });
}

/// One session cut mid-frame and resumed: every `transport.*` counter is
/// bumped side by side with the source's `TransportStats`.
#[test]
fn transport_counters_match_transport_stats_across_a_sever() {
    let _g = lock();
    with_metrics(|| {
        let (source, cfg) = stream_world();
        let icfg = IngestConfig { shards: 2, ..Default::default() };
        let (events, quarantined) = world_feed(&source, &cfg, &icfg);
        assert!(quarantined.is_empty());
        let identity = feed_identity(&source, &cfg);

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind feed server");
        let addr = listener.local_addr().expect("feed addr").to_string();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let server = {
            let stop = stop.clone();
            let mut fcfg = FeedConfig::new(identity);
            fcfg.frame_events = 64;
            std::thread::spawn(move || {
                let endpoint = Endpoint::Accept(listener);
                serve_feed(&endpoint, &events, &fcfg, &BackoffConfig::default(), &stop)
            })
        };
        let plan = ChaosPlan {
            harm: Some(Harm::SeverMidFrame),
            base: 2,
            max_harms: 1,
            ..ChaosPlan::none(0xC4A05)
        };
        let proxy = ChaosProxy::spawn(&addr, plan).expect("spawn chaos proxy");
        let mut tcfg = TcpConfig::new(identity);
        tcfg.backoff = BackoffConfig { base_ms: 5, max_ms: 100, attempts: 10, seed: 1 };
        let mut es = TcpEventSource::dial(proxy.addr().to_string(), tcfg);

        let (out, d) = measure(|| ingest_source(&source, &cfg, &icfg, &mut es));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(proxy.harms(), 1, "the proxy must have cut the session once");
        proxy.shutdown();
        server.join().expect("feed server thread").expect("feed server");

        assert!(out.complete(), "resume must heal the sever: {:?}", out.error);
        let t = out.transport;
        assert!(t.reconnects >= 1 && t.backoff_ms > 0, "no reconnect was recorded: {t:?}");
        assert_eq!(d.counter("transport.frames"), t.frames);
        assert_eq!(d.counter("transport.reconnects"), t.reconnects);
        assert_eq!(d.counter("transport.skipped_corrupt"), t.skipped_corrupt);
        assert_eq!(d.counter("transport.backoff_ms"), t.backoff_ms);
        assert_eq!(d.counter("transport.heartbeats_missed"), t.heartbeats_missed);
        assert_eq!(d.histogram("stage.transport.reconnect").map_or(0, |h| h.count), t.reconnects);
        let decoded = d.histogram("stage.transport.decode").map_or(0, |h| h.count);
        assert_eq!(decoded, d.counter("transport.frames"), "one decode sample per frame");
        assert_ingest_counters(&d, &out.outcome.stats);
    });
}

/// One scripted connection — reads, a 404, a single-key query, ad-hoc
/// queries across two dimensions past the LRU's capacity, then a
/// malformed request: `serve.*` equals the connection's `ConnStats`, and
/// the LRU counters equal the outcomes a twin state reports for the same
/// filters. Each build and each LRU miss records one stopwatch sample;
/// block reads, direct answers and hits record none.
#[test]
fn serve_counters_match_conn_stats_and_lru_outcomes() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let analysis = analyze_world(&world, &fixtures::small_world_cfg(&world), 2, None);
        let rows = dataset_rows(&analysis);
        let ((state, twin), d) =
            measure(|| (ServeState::build(rows.clone(), 8), ServeState::build(rows, 8)));
        let built = d.histogram("stage.serve.index_build").map_or(0, |h| h.count);
        assert_eq!(built, 2, "one index-build sample per ServeState::build");

        // Twenty distinct filters into eight slots, then the first again.
        let asns: Vec<u32> = (1..=20).chain([1]).collect();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut script = String::from(
            "GET /v1/summary HTTP/1.1\r\n\r\nGET /v1/nope HTTP/1.1\r\n\r\n\
             GET /v1/query?as=1 HTTP/1.1\r\n\r\n",
        );
        for asn in asns {
            script += &format!("GET /v1/query?as={asn}&link=dsl HTTP/1.1\r\n\r\n");
            let filter = Filter { asn: Some(asn), link: Some("dsl".into()), ..Filter::default() };
            match twin.query(&filter).1 {
                Some(LruOutcome::Hit) => hits += 1,
                Some(LruOutcome::Miss { evicted }) => {
                    misses += 1;
                    evictions += u64::from(evicted);
                }
                None => panic!("a filter across two dimensions went past the LRU"),
            }
        }
        script += "BOGUS\r\n\r\n";
        assert!(evictions > 0, "the script must overflow the LRU");

        let mut wire = Vec::new();
        let (conn, d) = measure(|| serve_streams(script.as_bytes(), &mut wire, &state));
        assert_eq!(conn.requests, 24);
        assert_eq!(conn.bad_requests, 1);
        assert_eq!(d.counter("serve.requests"), conn.requests);
        assert_eq!(
            d.counter("serve.responses_ok") + d.counter("serve.responses_err"),
            conn.responses
        );
        assert_eq!(d.counter("serve.responses_err"), 2, "the 404 and the 400");
        assert_eq!(d.counter("serve.bad_requests"), conn.bad_requests);
        assert_eq!(d.counter("serve.read_timeouts"), conn.timeouts);
        assert_eq!(d.counter("serve.write_errors"), conn.write_errors);
        assert_eq!(d.counter("serve.bytes_out"), conn.bytes_out);
        assert_eq!(conn.bytes_out, wire.len() as u64);
        assert_eq!(d.counter("serve.query_direct"), 1);
        assert_eq!(d.counter("serve.lru_hits"), hits);
        assert_eq!(d.counter("serve.lru_misses"), misses);
        assert_eq!(d.counter("serve.lru_evictions"), evictions);
        assert_eq!(d.counter("serve.connections"), 0, "counted per accepted socket only");
        // Only a miss folds an answer, so only a miss runs a stopwatch.
        let folded = d.histogram("stage.serve.query_miss").map_or(0, |h| h.count);
        assert_eq!(folded, misses, "one query-miss sample per serve.lru_misses");
        assert_eq!(d.histogram("stage.serve.index_build").map_or(0, |h| h.count), 0);

        // A block read and an LRU hit (as=20 is among the eight cached).
        let id = state.rows()[0].block_id;
        let script = format!(
            "GET /v1/block/{id} HTTP/1.1\r\n\r\nGET /v1/query?link=dsl&as=20 HTTP/1.1\r\n\r\n"
        );
        let (conn, d) = measure(|| serve_streams(script.as_bytes(), &mut Vec::new(), &state));
        assert_eq!((conn.requests, d.counter("serve.responses_ok")), (2, 2));
        assert_eq!(d.counter("serve.lru_hits"), 1);
        assert_eq!(d.histogram("stage.serve.query_miss").map_or(0, |h| h.count), 0);
    });
}

/// Every 2xx answer is counted by exactly one route: block reads, group
/// reads (the pre-rendered bodies), `/metrics` reads, direct query
/// answers, LRU hits and LRU misses sum to `serve.responses_ok` over a
/// script that uses every route, and refusals on each route count under
/// none of them.
#[test]
fn route_counters_partition_the_ok_responses() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let analysis = analyze_world(&world, &fixtures::small_world_cfg(&world), 2, None);
        let state = ServeState::build(dataset_rows(&analysis), 8);
        let rows = state.rows();
        let code = rows.iter().find_map(|r| r.country).expect("a located row");
        let keyword = rows.iter().find_map(|r| r.links.into_iter().next()).expect("a keyword");
        let (first, last) = (rows[0].block_id, rows[rows.len() - 1].block_id);
        let blocks = [format!("/v1/block/{first}"), format!("/v1/block/{last}")];
        let groups = [
            "/v1/summary".to_string(),
            "/v1/country".into(),
            "/v1/as".into(),
            "/v1/link".into(),
            "/v1/outages".into(),
            format!("/v1/country/{code}"),
            format!("/v1/as/{}", rows[0].asn),
            format!("/v1/link/{keyword}"),
        ];
        let direct = [format!("/v1/query?as={}", rows[0].asn), "/v1/query?stationary=true".into()];
        let folded = [format!("/v1/query?as={}&link={keyword}", rows[0].asn)];
        let refused = [
            format!("/v1/block/{}", last + 1),
            "/v1/block/x".into(),
            "/v1/country/ZZ".into(),
            "/v1/as/x".into(),
            "/v1/summary?x=1".into(),
            "/v1/query?bogus=1".into(),
            "/metrics?x=1".into(),
            "/v1/nope".into(),
        ];
        // Each ok target twice (the second folded query is an LRU hit),
        // the refusals after.
        let mut script = String::new();
        let ok = blocks.iter().chain(&groups).chain(&direct).chain(&folded);
        for target in ok.chain(["/metrics".into()].iter()) {
            script += &format!("GET {target} HTTP/1.1\r\n\r\nGET {target} HTTP/1.1\r\n\r\n");
        }
        for target in &refused {
            script += &format!("GET {target} HTTP/1.1\r\n\r\n");
        }
        script += "BOGUS\r\n\r\n";

        let (conn, d) = measure(|| serve_streams(script.as_bytes(), &mut Vec::new(), &state));
        let routed = |k: &str| d.counter(k);
        assert_eq!(routed("serve.block_reads"), 2 * blocks.len() as u64);
        assert_eq!(routed("serve.group_reads"), 2 * groups.len() as u64);
        assert_eq!(routed("serve.metrics_reads"), 2);
        assert_eq!(routed("serve.query_direct"), 2 * direct.len() as u64);
        assert_eq!(routed("serve.lru_misses"), folded.len() as u64);
        assert_eq!(routed("serve.lru_hits"), folded.len() as u64);
        assert_eq!(
            routed("serve.block_reads")
                + routed("serve.group_reads")
                + routed("serve.metrics_reads")
                + routed("serve.query_direct")
                + routed("serve.lru_hits")
                + routed("serve.lru_misses"),
            routed("serve.responses_ok"),
        );
        assert_eq!(routed("serve.responses_err"), refused.len() as u64 + 1, "and the 400");
        assert_eq!(conn.responses, routed("serve.responses_ok") + routed("serve.responses_err"));
    });
}

/// Each successful `load_rows` — of a dataset and of a journal — is one
/// `stage.serve.load` sample; a refused load (a foreign journal, a
/// missing file) records none.
#[test]
fn serve_load_samples_once_per_successful_load() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let cfg = fixtures::small_world_cfg(&world);
        let journal = scratch_path("metrics-serve-load");
        let analysis = analyze_world_resumable(&world, &cfg, 2, &journal, None).unwrap();
        let dataset = scratch_path("metrics-serve-load-bin");
        let bytes = encode_dataset(&dataset_rows(&analysis), DatasetMode::SelfContained).unwrap();
        std::fs::write(&dataset, bytes).expect("write dataset");
        let expect =
            JournalHeader::from_identity(&run_identity(world.cfg.seed, world.blocks.len(), &cfg));
        let samples = |d: &Snapshot| d.histogram("stage.serve.load").map_or(0, |h| h.count);

        let (loaded, d) =
            measure(|| [load_rows(&dataset, None, &expect), load_rows(&journal, None, &expect)]);
        for rows in loaded {
            assert_eq!(rows.expect("loads").len(), world.blocks.len());
        }
        assert_eq!(samples(&d), 2, "one sample per successful load");

        let foreign = JournalHeader { world_seed: expect.world_seed + 1, ..expect };
        let missing = scratch_path("metrics-serve-load-missing");
        let (refused, d) =
            measure(|| [load_rows(&journal, None, &foreign), load_rows(&missing, None, &expect)]);
        assert!(refused.iter().all(Result::is_err), "{refused:?}");
        assert_eq!(samples(&d), 0, "a refused load records none");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&dataset);
    });
}

/// The binary container's counters equal what was written and read back.
#[test]
fn format_counters_match_rows_written_and_read() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let analysis = analyze_world(&world, &fixtures::small_world_cfg(&world), 2, None);
        let rows = dataset_rows(&analysis);
        let n = rows.len() as u64;

        let (bytes, d) = measure(|| encode_dataset(&rows, DatasetMode::SelfContained).unwrap());
        assert_eq!(d.counter("format.datasets_encoded"), 1);
        assert_eq!(d.counter("format.records_encoded"), n);
        assert_eq!(d.counter("format.bytes_encoded"), bytes.len() as u64);
        assert!(d.counter("format.frames_encoded") >= 1);

        let (back, d) = measure(|| decode_dataset(&bytes, None).unwrap());
        assert_eq!(back.len() as u64, n);
        assert_eq!(d.counter("format.datasets_decoded"), 1);
        assert_eq!(d.counter("format.records_decoded"), n);
        assert_eq!(d.counter("format.decode_errors"), 0);

        let (torn, d) = measure(|| decode_dataset(&bytes[..bytes.len() - 1], None));
        assert!(torn.is_err());
        assert_eq!(d.counter("format.decode_errors"), 1);
        assert_eq!(d.counter("format.records_decoded"), 0);
    });
}

/// A run resumed from a torn journal: records replayed plus records
/// written equals the world, and the torn tail is the one discard.
#[test]
fn journal_counters_match_blocks_of_a_resumed_run() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let cfg = fixtures::small_world_cfg(&world);
        let n = world.blocks.len() as u64;
        let journal = scratch_path("metrics-journal");

        let (_, d) = measure(|| analyze_world_resumable(&world, &cfg, 2, &journal, None).unwrap());
        assert_eq!(d.counter("resilience.journal_records_written"), n);
        assert_eq!(d.counter("resilience.journal_records_replayed"), 0);
        assert_eq!(d.counter("resilience.journal_records_discarded"), 0);

        // Crash mid-record: keep `kept` whole records and half of the next.
        let bytes = std::fs::read(&journal).expect("read journal");
        let bounds = record_boundaries(&bytes);
        let kept = world.blocks.len() / 3;
        let cut = (bounds[kept] + bounds[kept + 1]) / 2;
        std::fs::write(&journal, &bytes[..cut]).expect("tear journal");

        let (resumed, d) =
            measure(|| analyze_world_resumable(&world, &cfg, 2, &journal, None).unwrap());
        assert_eq!(resumed.reports.len() as u64, n);
        assert_eq!(d.counter("resilience.journal_records_replayed"), kept as u64);
        assert_eq!(d.counter("resilience.journal_records_written"), n - kept as u64);
        assert_eq!(d.counter("resilience.journal_records_discarded"), 1);
        assert_eq!(d.counter("pipeline.blocks_analyzed"), n - kept as u64);
        let _ = std::fs::remove_file(&journal);
    });
}

/// Every record a checkpoint journal appends is one `stage.checkpoint`
/// sample, through both engines that journal (the world run and ingest),
/// fresh and resumed from a cut journal, under every named fault preset,
/// and through a direct `JournalWriter::append` caller.
#[test]
fn checkpoint_samples_once_per_journal_record_under_every_preset() {
    let _g = lock();
    with_metrics(|| {
        let world = fixtures::small_world();
        let (source, stream_cfg) = stream_world();
        let icfg = IngestConfig { shards: 2, ..Default::default() };
        let mut regimes = FaultPlan::presets(23);
        regimes.push(("conformance", fixtures::conformance_faults()));
        for (name, plan) in regimes {
            let mut cfg = fixtures::small_world_cfg(&world);
            cfg.faults = plan;
            let mut stream = stream_cfg;
            stream.faults = plan;
            let journal = scratch_path("metrics-checkpoint");
            let runs: [(&str, &dyn Fn() -> u64); 2] = [
                ("world run", &|| {
                    let run = analyze_world_resumable(&world, &cfg, 2, &journal, None);
                    run.unwrap().reports.len() as u64
                }),
                ("ingest", &|| {
                    let run = ingest_world_resumable(&source, &stream, &icfg, &journal);
                    run.unwrap().stats.blocks as u64
                }),
            ];
            for (engine, run) in runs {
                for pass in ["fresh", "resumed"] {
                    let (_, d) = measure(run);
                    let written = d.counter("resilience.journal_records_written");
                    let samples = d.histogram("stage.checkpoint").map_or(0, |h| h.count);
                    assert_eq!(samples, written, "{name}, {engine}, {pass}");
                    if pass == "fresh" {
                        assert!(written > 0, "{name}, {engine}: nothing journaled");
                        // Keep a third of the records for the resumed pass.
                        let bytes = std::fs::read(&journal).expect("read journal");
                        let bounds = record_boundaries(&bytes);
                        let cut = bounds[bounds.len() / 3];
                        std::fs::write(&journal, &bytes[..cut]).expect("cut journal");
                    }
                }
                let _ = std::fs::remove_file(&journal);
            }
        }
        // A run without a journal times nothing; a caller appending
        // through the writer directly samples once per record too.
        let cfg = fixtures::small_world_cfg(&world);
        let (analysis, d) = measure(|| analyze_world(&world, &cfg, 2, None));
        assert_eq!(d.histogram("stage.checkpoint").map_or(0, |h| h.count), 0);
        let journal = scratch_path("metrics-checkpoint-direct");
        let header = JournalHeader { world_seed: 1, num_blocks: 1, rounds: 1, start_time: 0 };
        let (_, d) = measure(|| {
            let (mut writer, _, _) = open_resume(&journal, &header).expect("open journal");
            for r in &analysis.reports {
                writer.append(r).expect("append");
            }
        });
        let written = d.counter("resilience.journal_records_written");
        assert!(written > 0, "direct: nothing journaled");
        assert_eq!(d.histogram("stage.checkpoint").map_or(0, |h| h.count), written, "direct");
        let _ = std::fs::remove_file(&journal);
    });
}
