//! The gates: ratios and exact counts taken inside one process, which no
//! `BENCHMARK.json` metric reports (throughput and latency are measured
//! by `benchmark/` and compared against the parent commit there).
//!
//! 1. **Observability overhead** — instrumented vs disabled world runs.
//! 2. **Batched FFT** — the 8-lane kernel vs the per-series loop at 131
//!    points (a 1-day span) and 4 451 (what a 35-day world run
//!    transforms after the midnight trim).
//! 3. **Bounded memory** — one lazy `WorldSource` run of 50 000 blocks ×
//!    35 days: per-worker arena under its ceiling, nothing quarantined.
//!    That every analyzed block's FFT is batched is asserted on a small
//!    world by `testkit/tests/metrics.rs`.
//! 4. **Compact format** — that run's rows as TSV and as a seed-joined
//!    `SLPWBIN1` container: size ratio and decode-to-stats speed. That
//!    decoded rows equal the TSV bytes is `binfmt_oracle`'s to assert.
//! 5. **Sever recovery** — one mid-stream cut through a `ChaosProxy`:
//!    the extra wall time stays within one backoff budget. That the cut
//!    reconnects and moves no verdict is asserted by the chaos oracle
//!    (`testkit/tests/transport_oracle.rs`).
//!
//! Every size and sample count is a constant, so CI and a laptop run the
//! same thing. Run with `cargo bench -p sleepwatch-bench --bench gates`;
//! the result lands in `BENCH_gates.json` at the workspace root and the
//! exit code is 1 when any gate failed.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sleepwatch_bench::Direction::{AtLeast, AtMost, Equal};
use sleepwatch_bench::{best, interleaved, median, median_ratio, secs, Report};
use sleepwatch_core::{
    analyze_world, analyze_world_source, dataset_rows, encode_dataset, feed_identity,
    ingest_source, read_dataset, world_feed, write_dataset_rows, AnalysisConfig, BinDataset,
    DatasetMode, DatasetStats, IngestConfig,
};
use sleepwatch_obs::Snapshot;
use sleepwatch_probing::transport::{
    serve_feed, BackoffConfig, Endpoint, FeedConfig, TcpConfig, TcpEventSource,
};
use sleepwatch_probing::{RoundEvent, TrinocularConfig};
use sleepwatch_simnet::{World, WorldConfig, WorldSource};
use sleepwatch_spectral::{plan_for, BatchRealScratch, Complex};
use sleepwatch_testkit::chaos::{ChaosPlan, ChaosProxy, Harm};

/// Interleaved pairs behind each median ratio. A pair is a few
/// milliseconds, and on a shared two-vCPU guest neighbouring pairs read
/// 5-10 % apart, so it takes hundreds to hold a 3 % bound.
const RATIO_PAIRS: usize = 401;
/// Samples behind each best-of-N timing.
const BEST_OF: usize = 7;

/// Instrumented world runs may cost at most 3 % over disabled ones.
const MAX_OBS_OVERHEAD: f64 = 1.03;
/// The 8-lane batched kernel must beat the one-at-a-time loop by at least
/// this factor at every length in [`GATED_FFT_LENGTHS`].
const BATCH_FFT_MIN_SPEEDUP: f64 = 1.5;
const GATED_FFT_LENGTHS: [usize; 2] = [131, 4451];
/// Scalar/batched pass pairs per length: about a second at either one.
const FFT_PAIR_POINTS: usize = 2_000_000;
/// Per-worker arena ceiling (probe workspace, lanes, batch FFT planes and
/// group specs): peak memory must not scale with the world.
const MAX_ARENA_BYTES: f64 = (64 * 1024 * 1024) as f64;
/// The TSV dataset must be at least this many times larger than the
/// seed-joined binary container.
const MIN_SIZE_RATIO: f64 = 10.0;
/// Binary decode-to-stats must be at least as fast as the TSV parse.
const MIN_DECODE_SPEEDUP: f64 = 1.0;

const RATIO_BLOCKS: usize = 40;
const RATIO_DAYS: f64 = 3.0;
const WORLD_BLOCKS: usize = 50_000;
const WORLD_DAYS: f64 = 35.0;
const SEVER_BLOCKS: usize = 600;
const SEVER_DAYS: f64 = 1.25;

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut report = Report::new("gates", threads);
    sleepwatch_obs::set_global_enabled(true);
    // The ratio gates go first: after the big world run has churned the
    // heap, whichever side runs second in a pair reads up to 1.6x slower.
    obs_gate(&mut report);
    fft_gate(&mut report);
    world_gates(&mut report, threads);
    sever_gate(&mut report);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gates.json");
    std::process::exit(report.finish(Path::new(out)));
}

/// Gate 1: one median ratio over one small A12w world.
fn obs_gate(report: &mut Report) {
    report.size("ratio_blocks", RATIO_BLOCKS as f64);
    report.size("ratio_days", RATIO_DAYS);
    let world = World::generate(WorldConfig {
        num_blocks: RATIO_BLOCKS,
        seed: 33,
        span_days: RATIO_DAYS,
        ..Default::default()
    });
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, RATIO_DAYS);
    cfg.trinocular = TrinocularConfig::a12w();

    // One thread: the world is a single 256-block chunk, so a second
    // worker would add only its spawn to the timing.
    let run = |enabled: bool| {
        sleepwatch_obs::set_global_enabled(enabled);
        secs(|| analyze_world(&world, &cfg, 1, None))
    };
    // Warm both paths: plan cache, allocator, page cache.
    run(true);
    run(false);
    let (on, off) = interleaved(RATIO_PAIRS, || run(true), || run(false));
    sleepwatch_obs::set_global_enabled(true);
    report.measure("obs.enabled_median_s", median(&on));
    report.measure("obs.disabled_median_s", median(&off));
    report.gate("obs.overhead_ratio", median_ratio(&on, &off), AtMost, MAX_OBS_OVERHEAD);
}

/// Gate 2: each pair times one scalar pass and one 8-lane pass over the
/// same eight series, back to back, so a frequency step hits both.
fn fft_gate(report: &mut Report) {
    for n in GATED_FFT_LENGTHS {
        let plan = plan_for(n);
        let series: Vec<Vec<f64>> = (0..8)
            .map(|l| (0..n).map(|j| ((l * 131 + j) as f64 * 0.113).sin() + 0.5).collect())
            .collect();
        let ins: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let mut scalar_outs = vec![vec![Complex::ZERO; plan.len()]; 8];
        let mut batched_outs = scalar_outs.clone();
        let mut out_refs: Vec<&mut [Complex]> =
            batched_outs.iter_mut().map(|o| o.as_mut_slice()).collect();
        let mut scratch = vec![Complex::ZERO; plan.real_scratch_len()];
        let mut batch = BatchRealScratch::new();

        let mut scalar_pass = || {
            secs(|| {
                for (s, out) in ins.iter().zip(scalar_outs.iter_mut()) {
                    plan.real_with_scratch(s, out, &mut scratch);
                }
            })
        };
        let mut batched_pass =
            || secs(|| plan.real_batch_with_scratch(&ins, &mut out_refs, &mut batch));
        // Warm both paths (plan twiddles, scratch capacity).
        scalar_pass();
        batched_pass();
        let (scalar, batched) = interleaved(FFT_PAIR_POINTS / n, scalar_pass, batched_pass);
        let per_series_ns = |xs: &[f64]| median(xs) * 1e9 / 8.0;
        report.measure(&format!("fft.n{n}_scalar_ns_per_series"), per_series_ns(&scalar));
        report.measure(&format!("fft.n{n}_lane8_ns_per_series"), per_series_ns(&batched));
        let speedup = median_ratio(&scalar, &batched);
        report.gate(&format!("fft.n{n}_lane8_speedup"), speedup, AtLeast, BATCH_FFT_MIN_SPEEDUP);
        std::hint::black_box((&scalar_outs, &batched_outs));
    }
}

/// Gates 3 and 4: one lazy paper-shaped world run, then its rows both ways.
fn world_gates(report: &mut Report, threads: usize) {
    report.size("world_blocks", WORLD_BLOCKS as f64);
    report.size("world_days", WORLD_DAYS);
    let source = WorldSource::new(WorldConfig {
        num_blocks: WORLD_BLOCKS,
        seed: 0xbe_9c4,
        span_days: WORLD_DAYS,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, WORLD_DAYS);
    let obs = sleepwatch_obs::global();
    let before = Snapshot::capture(obs);
    let analysis = analyze_world_source(&source, &cfg, threads, None);
    let d = Snapshot::capture(obs).delta(&before);

    // A process-lifetime high-water mark: the 3-day ratio world left its
    // own, smaller one, so "populated" means this run raised it.
    let peak = d.counter("world.peak_block_bytes");
    let raised = peak.saturating_sub(before.counter("world.peak_block_bytes"));
    report.gate("world.peak_block_bytes", peak as f64, AtMost, MAX_ARENA_BYTES);
    report.gate("world.peak_block_bytes_raised", raised as f64, AtLeast, 1.0);
    report.gate("world.quarantined", analysis.quarantined.len() as f64, Equal, 0.0);

    let rows = dataset_rows(&analysis);
    drop(analysis);
    let mut tsv = Vec::new();
    write_dataset_rows(&mut tsv, &rows).expect("serialize TSV");
    let bin = encode_dataset(&rows, DatasetMode::SeedJoined(source.cfg())).expect("encode bin");
    report.measure("format.tsv_bytes_per_row", tsv.len() as f64 / WORLD_BLOCKS as f64);
    report.measure("format.bin_bytes_per_row", bin.len() as f64 / WORLD_BLOCKS as f64);
    report.gate("format.size_ratio", tsv.len() as f64 / bin.len() as f64, AtLeast, MIN_SIZE_RATIO);

    // Decode-to-analysis: serialized bytes to a DatasetStats aggregate.
    let (tsv_s, bin_s) = interleaved(
        BEST_OF,
        || {
            secs(|| {
                let parsed = read_dataset(&tsv[..]).expect("parse TSV");
                std::hint::black_box(DatasetStats::from_rows(&parsed));
            })
        },
        || {
            secs(|| {
                let ds = BinDataset::parse(&bin, Some(source.cfg())).expect("parse bin");
                std::hint::black_box(DatasetStats::from_bin(&ds));
            })
        },
    );
    report.measure("format.tsv_decode_to_stats_s", best(&tsv_s));
    report.measure("format.bin_decode_to_stats_s", best(&bin_s));
    report.gate("format.decode_speedup", best(&tsv_s) / best(&bin_s), AtLeast, MIN_DECODE_SPEEDUP);
}

/// Serves `events` from a background thread (behind a chaos proxy when
/// `plan` is given) and ingests them over loopback TCP; returns the
/// client's wall seconds.
fn tcp_run(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &[RoundEvent],
    plan: Option<ChaosPlan>,
) -> f64 {
    let identity = feed_identity(source, cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed server");
    let addr = listener.local_addr().expect("feed addr").to_string();
    let (stop, fcfg) = (AtomicBool::new(false), FeedConfig::new(identity));
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let accept = Endpoint::Accept(listener);
            serve_feed(&accept, events, &fcfg, &BackoffConfig::default(), &stop)
        });
        let proxy = plan.map(|p| ChaosProxy::spawn(&addr, p).expect("spawn chaos proxy"));
        let dial = proxy.as_ref().map_or(addr.clone(), |p| p.addr().to_string());
        let start = Instant::now();
        let mut es = TcpEventSource::dial(dial, TcpConfig::new(identity));
        let complete = ingest_source(source, cfg, icfg, &mut es).complete();
        let wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        if let Some(p) = proxy {
            p.shutdown();
        }
        server.join().expect("feed server thread").expect("feed server");
        assert!(complete, "a timed ingest did not complete");
        wall
    })
}

/// Gate 5: the same pre-probed feed over clean loopback TCP and through a
/// proxy that cuts the connection once mid-stream, timed.
fn sever_gate(report: &mut Report) {
    report.size("sever_blocks", SEVER_BLOCKS as f64);
    report.size("sever_days", SEVER_DAYS);
    let source = WorldSource::new(WorldConfig {
        num_blocks: SEVER_BLOCKS,
        seed: 0x7_1A45,
        span_days: SEVER_DAYS,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, SEVER_DAYS);
    let icfg = IngestConfig { shards: 4, ..Default::default() };
    let (feed, _) = world_feed(&source, &cfg, &icfg);
    let plan = ChaosPlan {
        seed: 0xBE9C4,
        harm: Some(Harm::Sever),
        base: 40,
        growth: 0,
        max_harms: 1,
        dup_every: None,
        short_write: false,
    };
    let run = |plan| tcp_run(&source, &cfg, &icfg, &feed, plan);
    let (clean, severed) = interleaved(BEST_OF, || run(None), || run(Some(plan)));

    let budget_ms = TcpConfig::new(feed_identity(&source, &cfg)).backoff.budget_ms() as f64;
    let recovery_ms = ((best(&severed) - best(&clean)) * 1e3).max(0.0);
    report.measure("sever.clean_s", best(&clean));
    report.measure("sever.severed_s", best(&severed));
    report.gate("sever.recovery_ms", recovery_ms, AtMost, budget_ms);
}
