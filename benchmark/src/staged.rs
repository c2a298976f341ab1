//! The staged replay: the benchmark calls the layers one by one.
//!
//! A traced run ends with this single-threaded pass over a small world of
//! the workload's own shape (same seed, span and fault regime): each layer
//! is driven through its public functions in isolation and timed, so every
//! workload reports the same per-layer table and the numbers say which
//! layer a workload leans on. The serve layer is measured over the rows
//! the workload itself produced, because the cost of an LRU miss is a scan
//! of all of them.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use sleepwatch_availability::{clean_series_into, AvailabilityEstimator, CleanScratch};
use sleepwatch_core::binfmt::{decode_dataset, encode_dataset, DatasetMode};
use sleepwatch_core::export::write_dataset_rows_bin_file;
use sleepwatch_core::journal::open_resume;
use sleepwatch_core::serve::{route, serve_streams};
use sleepwatch_core::{
    analyze_world_source, dataset_rows, feed_identity, ingest_direct, ingest_events,
    ingest_source_resumable, load_rows, rows_from_journal_bytes, DatasetRow, IngestConfig,
    ServeState,
};
use sleepwatch_obs::{Snapshot, Stage};
use sleepwatch_probing::transport::{
    write_feed, EventSource, FeedConfig, FileSource, IterSource, TcpConfig, TcpEventSource,
};
use sleepwatch_probing::{
    interleave, replay_run, BlockRun, ProberScratch, RoundEvent, TrinocularProber,
};
use sleepwatch_simnet::{WorldConfig, WorldSource, ROUND_SECONDS};
use sleepwatch_spectral::{
    classify, trend_default, BatchRealScratch, Complex, FftPlan, SpectrumScratch, MAX_BATCH_LANES,
};

use crate::harness::{Metric, RunConfig};
use crate::stats;
use crate::workloads::serve::{spawn_server, Client, Mix};
use crate::workloads::stream::over_loopback;
use crate::workloads::{Inputs, Shape, ANALYSIS_THREADS, INGEST_SHARDS, LRU_CAPACITY};

/// Per-layer metrics and a printable table of where a block's time goes.
#[derive(Debug)]
pub struct Replay {
    /// Every staged per-layer metric.
    pub metrics: Vec<Metric>,
    /// Per-block layer table.
    pub table: String,
}

/// Sizes of the replay: blocks in the staged world (whole 256-block
/// chunks, so two workers can share them), blocks driven layer by layer,
/// and unpipelined round trips.
struct Sizes {
    world: usize,
    sample: usize,
    rtt_pairs: usize,
}

/// Events the wire layers' feed aims for.
const FEED_EVENTS: usize = 300_000;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median wall of five calls — for layer calls that finish in a
/// millisecond or less.
fn median_time<T>(mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..5).map(|_| time(|| black_box(f())).1).collect();
    stats::median(&walls)
}

struct Out(Vec<Metric>);

impl Out {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }
}

/// Runs the staged replay for `shape`; `rows` and `rows_world` are what
/// the workload's last repetition produced.
pub fn replay(
    shape: &Shape,
    run: &RunConfig,
    rows: Vec<DatasetRow>,
    rows_world: &WorldConfig,
) -> Replay {
    let sizes = if run.smoke {
        Sizes { world: 256, sample: 32, rtt_pairs: 1_000 }
    } else {
        Sizes { world: 1_024, sample: 256, rtt_pairs: 20_000 }
    };
    let staged = Shape { blocks: sizes.world, ..*shape };
    let inputs = Inputs::derive(&staged, run.seed);
    let mut out = Out(Vec::new());

    let (source, source_new_s) = time(|| WorldSource::new(inputs.wcfg.clone()));
    out.push("simnet.source_new_s", source_new_s, "s");

    let blocks = block_layers(&source, &inputs, &sizes, &mut out);
    let table = world_layers(&source, &inputs, &blocks, &mut out);
    wire_layers(&source, &inputs, &blocks.runs, run, &mut out);
    serve_layers(rows, rows_world, &inputs, &sizes, run, &mut out);
    Replay { metrics: out.0, table }
}

/// What the per-block pass leaves for the later sections.
struct BlockLayers {
    runs: Vec<BlockRun>,
    /// Seconds per block: generate, probe, clean, 8-lane FFT, classify.
    per_block_s: [f64; 5],
}

const LAYER_NAMES: [&str; 5] = [
    "simnet.generate",
    "probing.probe",
    "availability.clean",
    "spectral.fft_lane8",
    "spectral.classify",
];

/// simnet → probing → availability → spectral, one layer at a time over
/// the first `sample` blocks.
fn block_layers(
    source: &WorldSource,
    inputs: &Inputs,
    sizes: &Sizes,
    out: &mut Out,
) -> BlockLayers {
    let cfg = &inputs.cfg;
    let n = sizes.sample as f64;

    let (specs, generate_s) =
        time(|| (0..sizes.sample as u64).map(|id| source.generate_block(id)).collect::<Vec<_>>());
    out.push("simnet.generate_us_per_block", generate_s / n * 1e6, "us");

    // The scratch-reusing prober entry points: the path world runs take.
    let mut scratch = ProberScratch::new();
    let mut records = Vec::new();
    let mut probe_s = 0.0;
    let mut runs = Vec::with_capacity(specs.len());
    for b in &specs {
        let ((outages, total_probes), wall) = time(|| {
            let mut prober = TrinocularProber::new_reusing(b, cfg.trinocular, &mut scratch);
            prober.run_into_with_faults(b, cfg.start_time, cfg.rounds, &cfg.faults, &mut records);
            let totals = (prober.outages().to_vec(), prober.total_probes());
            prober.recycle(&mut scratch);
            totals
        });
        probe_s += wall;
        runs.push(BlockRun {
            block_id: b.id,
            rounds: cfg.rounds,
            records: records.clone(),
            outages,
            total_probes,
        });
    }
    let probes: u64 = runs.iter().map(|r| r.total_probes).sum();
    let recorded: usize = runs.iter().map(|r| r.records.len()).sum();
    let (sent, positive) = runs
        .iter()
        .flat_map(|r| &r.records)
        .fold((0u64, 0u64), |(s, p), r| (s + u64::from(r.probes), p + u64::from(r.positives)));
    out.push("probing.probe_us_per_block", probe_s / n * 1e6, "us");
    out.push("probing.probes_per_block", probes as f64 / n, "count");
    out.push("probing.ns_per_probe", probe_s / probes as f64 * 1e9, "ns");
    out.push("probing.positive_ratio", positive as f64 / sent.max(1) as f64, "ratio");
    out.push("probing.lost_round_share", 1.0 - recorded as f64 / (n * cfg.rounds as f64), "ratio");

    // The estimator runs inside the prober; replaying it over the recorded
    // counts shows how much of the probe time it is.
    let ((), estimate_s) = time(|| {
        for (spec, run) in specs.iter().zip(&runs) {
            let mut est = AvailabilityEstimator::with_default_config(spec.hist_avail);
            for r in &run.records {
                black_box(est.observe(r.positives, r.probes));
            }
        }
    });
    out.push("availability.estimate_ns_per_round", estimate_s / recorded.max(1) as f64 * 1e9, "ns");

    let observations: Vec<Vec<(u64, f64)>> =
        runs.iter().map(BlockRun::a_short_observations).collect();
    let mut clean = CleanScratch::new();
    let mut fills = 0.0;
    let (series, clean_s) = time(|| {
        observations
            .iter()
            .map(|obs| {
                let mut s = Vec::new();
                fills += clean_series_into(
                    obs,
                    cfg.rounds as usize,
                    cfg.start_time,
                    ROUND_SECONDS,
                    &mut clean,
                    &mut s,
                );
                s
            })
            .collect::<Vec<Vec<f64>>>()
    });
    out.push("availability.clean_us_per_block", clean_s / n * 1e6, "us");
    out.push("availability.fill_fraction_mean", fills / n, "ratio");

    let len = series[0].len();
    assert!(series.iter().all(|s| s.len() == len), "one run, one cleaned length");
    let (plan, plan_s) = time(|| FftPlan::new(len));
    out.push("spectral.fft_len", len as f64, "count");
    out.push("spectral.plan_build_us", plan_s * 1e6, "us");

    let mut coeffs: Vec<Vec<Complex>> = vec![vec![Complex::ZERO; len]; MAX_BATCH_LANES];
    let mut scratch = vec![Complex::ZERO; plan.real_scratch_len()];
    let ((), scalar_s) = time(|| {
        for s in &series {
            plan.real_with_scratch(s, &mut coeffs[0], &mut scratch);
        }
    });
    out.push("spectral.fft_scalar_us_per_series", scalar_s / n * 1e6, "us");

    let mut batch = BatchRealScratch::new();
    let ((), lane8_s) = time(|| {
        for group in series.chunks(MAX_BATCH_LANES) {
            let ins: Vec<&[f64]> = group.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<&mut [Complex]> =
                coeffs.iter_mut().take(group.len()).map(Vec::as_mut_slice).collect();
            plan.real_batch_with_scratch(&ins, &mut outs, &mut batch);
        }
    });
    black_box(&coeffs);
    out.push("spectral.fft_lane8_us_per_series", lane8_s / n * 1e6, "us");

    let mut spectrum = SpectrumScratch::new();
    let mut classify_s = 0.0;
    for s in &series {
        let sp = spectrum.compute_with_plan(s, sleepwatch_spectral::ROUND_SECONDS, &plan);
        let ((), wall) = time(|| {
            black_box(classify(sp, &cfg.diurnal));
            black_box(trend_default(s));
        });
        classify_s += wall;
    }
    out.push("spectral.classify_us_per_block", classify_s / n * 1e6, "us");

    let per_block_s = [generate_s, probe_s, clean_s, lane8_s, classify_s].map(|s| s / n);
    BlockLayers { runs, per_block_s }
}

/// worldrun (with the program's own stage timers as a cross-check), then
/// export and binfmt over the staged analysis. Returns the layer table.
fn world_layers(
    source: &WorldSource,
    inputs: &Inputs,
    blocks: &BlockLayers,
    out: &mut Out,
) -> String {
    let Inputs { wcfg, cfg, .. } = inputs;
    let n = source.len() as f64;

    let (_, wall_1t) = time(|| analyze_world_source(source, cfg, 1, None));
    let obs = sleepwatch_obs::global();
    let before = Snapshot::capture(obs);
    let (analysis, analyze_s) = time(|| analyze_world_source(source, cfg, ANALYSIS_THREADS, None));
    let delta = Snapshot::capture(obs).delta(&before);
    let capacity_s = ANALYSIS_THREADS as f64 * analyze_s;
    let staged_s: f64 = blocks.per_block_s.iter().sum::<f64>() * n;
    out.push("worldrun.analyze_s", analyze_s, "s");
    out.push("worldrun.speedup_2t", wall_1t / analyze_s, "ratio");
    out.push("worldrun.staged_share", staged_s / capacity_s, "ratio");
    out.push("worldrun.strict_diurnal", analysis.strict_fraction().0 as f64, "count");

    // Stage histograms record microseconds; `sum_micros` is that times 1e6.
    let stage_s = |s: Stage| delta.stage(s).map_or(0.0, |h| h.sum_micros as f64 / 1e12);
    let stages =
        [Stage::Probe, Stage::Estimate, Stage::Clean, Stage::Fft, Stage::Classify, Stage::Join];
    let stage_sum: f64 = stages.iter().map(|s| stage_s(*s)).sum();
    out.push("obs.stage_sum_share", stage_sum / capacity_s, "ratio");
    out.push("obs.probe_share", stage_s(Stage::Probe) / stage_sum.max(f64::MIN_POSITIVE), "ratio");
    out.push("obs.fft_share", stage_s(Stage::Fft) / stage_sum.max(f64::MIN_POSITIVE), "ratio");

    let rows = dataset_rows(&analysis);
    out.push("export.join_us_per_block", median_time(|| dataset_rows(&analysis)) / n * 1e6, "us");
    let encode =
        || encode_dataset(&rows, DatasetMode::SeedJoined(wcfg)).expect("encode staged rows");
    let bytes = encode();
    out.push("binfmt.encode_us_per_row", median_time(encode) / n * 1e6, "us");
    out.push("binfmt.bytes_per_row", bytes.len() as f64 / n, "B");
    out.push(
        "binfmt.decode_us_per_row",
        median_time(|| decode_dataset(&bytes, Some(wcfg)).expect("decode staged rows")) / n * 1e6,
        "us",
    );

    let staged_per_block: f64 = blocks.per_block_s.iter().sum();
    let mut table = format!(
        "staged layers, per block ({} blocks x {} days; the five sum to {:.1} us, \
         one-thread analyze_world_source takes {:.1} us/block):\n",
        source.len(),
        wcfg.span_days,
        staged_per_block * 1e6,
        wall_1t / n * 1e6,
    );
    let largest = (0..LAYER_NAMES.len())
        .max_by(|a, b| blocks.per_block_s[*a].total_cmp(&blocks.per_block_s[*b]))
        .expect("five layers");
    for (i, name) in LAYER_NAMES.iter().enumerate() {
        table.push_str(&format!(
            "  {:<24} {:>10.1} us {:>6.1}%{}\n",
            name,
            blocks.per_block_s[i] * 1e6,
            blocks.per_block_s[i] / staged_per_block * 100.0,
            if i == largest { "  <- largest layer" } else { "" },
        ));
    }
    table
}

/// transport, ingest and journal over the feed of the sampled blocks.
fn wire_layers(
    source: &WorldSource,
    inputs: &Inputs,
    runs: &[BlockRun],
    run: &RunConfig,
    out: &mut Out,
) {
    let Inputs { cfg, expect, .. } = inputs;
    let identity = feed_identity(source, cfg);
    // Enough of the sampled runs for a feed of about FEED_EVENTS events: the
    // live detectors make ingest cost grow faster than the span, and the
    // replay has to fit beside the timed repetitions.
    let take =
        (FEED_EVENTS / (cfg.rounds as usize + 1)).clamp(16, runs.len().max(16)).min(runs.len());
    let runs = &runs[..take];
    let feed = interleave(runs.iter().map(replay_run).collect(), inputs.wcfg.seed);
    let events = feed.len() as f64;
    let rounds = feed.iter().filter(|e| matches!(e, RoundEvent::Round { .. })).count() as f64;

    let mut wire = Vec::new();
    let ((), encode_s) = time(|| {
        write_feed(&mut wire, &feed, &identity, FeedConfig::new(identity).frame_events)
            .expect("encode into memory")
    });
    out.push("transport.encode_ns_per_event", encode_s / events * 1e9, "ns");
    out.push("transport.bytes_per_event", wire.len() as f64 / events, "B");
    let (decoded, decode_s) = time(|| {
        let mut file = FileSource::new(Cursor::new(&wire[..]), &identity, true).expect("own hello");
        drain(&mut file)
    });
    assert_eq!(decoded, feed.len() as u64, "the encoded feed decodes to every event");
    out.push("transport.decode_ns_per_event", decode_s / events * 1e9, "ns");

    // The wire alone: drained over loopback TCP with no engine behind it.
    let (drained, drain_s, wire_stats) = over_loopback(&feed, identity, |addr| {
        let mut tcp = TcpEventSource::dial(addr, TcpConfig::new(identity));
        let (n, wall) = time(|| drain(&mut tcp));
        (n, wall, tcp.stats())
    });
    assert_eq!(drained, feed.len() as u64, "loopback delivers every event");
    out.push("transport.tcp_drain_events_per_s", events / drain_s, "1/s");
    out.push("transport.frames", wire_stats.frames as f64, "count");
    out.push("transport.reconnects", wire_stats.reconnects as f64, "count");

    // The engine alone: in-memory feed, no wire.
    let (direct, direct_s) = time(|| ingest_direct(source, cfg, feed.iter().copied()));
    assert_eq!(direct.reports.len(), runs.len(), "direct ingest finalizes every fed block");
    let engine = |shards: usize| {
        let icfg = IngestConfig { shards, ..Default::default() };
        time(|| ingest_events(source, cfg, &icfg, feed.iter().copied()))
    };
    let (_, one_s) = engine(1);
    let (two, two_s) = engine(INGEST_SHARDS);
    out.push("ingest.direct_rounds_per_s", rounds / direct_s, "1/s");
    out.push("ingest.engine_1s_rounds_per_s", rounds / one_s, "1/s");
    out.push("ingest.engine_2s_rounds_per_s", rounds / two_s, "1/s");
    out.push("ingest.speedup_2s", one_s / two_s, "ratio");
    out.push("ingest.backpressure_stalls", two.stats.backpressure_stalls as f64, "count");
    out.push("ingest.queue_high_water", two.stats.queue_high_water as f64, "count");

    let path = run.scratch_dir.join("staged.journal");
    let icfg = IngestConfig { shards: INGEST_SHARDS, ..Default::default() };
    let journaled = ingest_source_resumable(
        source,
        cfg,
        &icfg,
        &mut IterSource::new(feed.iter().copied()),
        &path,
    )
    .expect("open a fresh journal inside the benchmark's out directory");
    out.push("ingest.checkpoints", journaled.outcome.stats.checkpoints as f64, "count");

    // The journal alone: append the engine's reports, then replay them.
    let reports = &journaled.outcome.reports;
    std::fs::remove_file(&path).expect("remove the engine's journal");
    let ((), append_s) = time(|| {
        let (mut writer, _, _) = open_resume(&path, expect).expect("open a fresh journal");
        for r in reports {
            writer.append(r).expect("append a report");
        }
        writer.sync().expect("sync the journal");
    });
    let bytes = std::fs::read(&path).expect("read the journal back");
    let records = reports.len().max(1) as f64;
    out.push("journal.append_us_per_record", append_s / records * 1e6, "us");
    out.push("journal.bytes_per_record", bytes.len() as f64 / records, "B");
    let replay_s =
        median_time(|| rows_from_journal_bytes(&bytes, expect).expect("replay the journal"));
    out.push("journal.replay_us_per_record", replay_s / records * 1e6, "us");
}

fn drain(source: &mut dyn EventSource) -> u64 {
    let mut n = 0u64;
    while let Some(ev) = source.next_event().expect("a clean feed") {
        black_box(ev);
        n += 1;
    }
    n
}

/// serve: load, index build, in-process routing by route class, the HTTP
/// codec over in-memory streams, and unpipelined loopback round trips.
fn serve_layers(
    rows: Vec<DatasetRow>,
    rows_world: &WorldConfig,
    inputs: &Inputs,
    sizes: &Sizes,
    run: &RunConfig,
    out: &mut Out,
) {
    let path = run.scratch_dir.join("staged.bin");
    let ((), write_s) = time(|| {
        write_dataset_rows_bin_file(&path, &rows, Some(rows_world))
            .expect("write the staged dataset inside the benchmark's out directory")
    });
    out.push("binfmt.write_s", write_s, "s");
    // A dataset file is checked against the world, not the journal header.
    let (loaded, load_s) =
        time(|| load_rows(&path, Some(rows_world), &inputs.expect).expect("load it back"));
    out.push("serve.load_s", load_s, "s");
    let (state, build_s) = time(|| ServeState::build(loaded, LRU_CAPACITY));
    out.push("serve.index_build_s", build_s, "s");

    let mix = Mix::build(&rows, run.seed);
    let class = |prefix: &str, asn: Option<bool>| -> Vec<&str> {
        mix.targets
            .iter()
            .map(String::as_str)
            .filter(|t| t.starts_with(prefix) && asn.map_or(true, |a| t.contains("?as=") == a))
            .collect()
    };
    let route_all = |state: &ServeState, targets: &[&str]| -> f64 {
        let ((), wall) = time(|| {
            for t in targets {
                let (status, _, body) = route(state, t);
                assert_eq!(status, 200, "{t} must be answered");
                black_box(body);
            }
        });
        wall / targets.len().max(1) as f64
    };
    let indexed = class("/v1/block/", None);
    let group: Vec<&str> = mix
        .targets
        .iter()
        .map(String::as_str)
        .filter(|t| !t.starts_with("/v1/block/") && !t.starts_with("/v1/query"))
        .collect();
    let hot = class("/v1/query", Some(false));
    let cold = class("/v1/query", Some(true));
    out.push("serve.route_indexed_ns", route_all(&state, &indexed) * 1e9, "ns");
    out.push("serve.route_group_ns", route_all(&state, &group) * 1e9, "ns");
    route_all(&state, &hot); // first pass fills the LRU
    out.push("serve.route_adhoc_hit_ns", route_all(&state, &hot) * 1e9, "ns");
    // With the LRU disabled every ad-hoc query is a miss: a scan of all rows.
    let uncached = ServeState::build(rows, 0);
    out.push("serve.route_adhoc_miss_us", route_all(&uncached, &cold) * 1e6, "us");
    drop(uncached);

    // The whole mix through the HTTP codec over in-memory streams, after a
    // pass that warms the LRU: hit ratio and bytes per response.
    let requests: Vec<u8> = mix.batches().concat();
    serve_streams(Cursor::new(&requests[..]), std::io::sink(), &state);
    let obs = sleepwatch_obs::global();
    let before = Snapshot::capture(obs);
    let conn = serve_streams(Cursor::new(&requests[..]), std::io::sink(), &state);
    let delta = Snapshot::capture(obs).delta(&before);
    assert_eq!(conn.responses, mix.targets.len() as u64, "every request of the mix is answered");
    let (hits, misses) = (delta.counter("serve.lru_hits"), delta.counter("serve.lru_misses"));
    out.push("serve.lru_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    out.push("serve.bytes_per_response", conn.bytes_out as f64 / conn.responses as f64, "B");

    // The codec's own cost: the indexed requests through `serve_streams`
    // minus routing the same targets directly. Indexed routes only — one
    // LRU miss costs more than ten thousand request parses — and the
    // median of five differences, since both terms are noisy.
    let indexed_requests: Vec<u8> =
        indexed.iter().flat_map(|t| format!("GET {t} HTTP/1.1\r\n\r\n").into_bytes()).collect();
    let mut codec_s: Vec<f64> = (0..5)
        .map(|_| {
            let (conn, streams_s) =
                time(|| serve_streams(Cursor::new(&indexed_requests[..]), std::io::sink(), &state));
            assert_eq!(conn.responses, indexed.len() as u64);
            streams_s / indexed.len() as f64 - route_all(&state, &indexed)
        })
        .collect();
    codec_s.sort_by(f64::total_cmp);
    out.push("serve.http_ns_per_request", codec_s[2] * 1e9, "ns");

    // Unpipelined request/response pairs over loopback, one at a time.
    let state = Arc::new(state);
    let server = spawn_server(&state);
    let mut client = Client::connect(server.addr());
    let mut rtt_us = Vec::with_capacity(sizes.rtt_pairs);
    for i in 0..sizes.rtt_pairs {
        let (target, want) =
            (&mix.targets[i % mix.targets.len()], &mix.expected[i % mix.targets.len()]);
        let ((status, ok), wall) = time(|| {
            let (status, body) = client.get(target);
            (status, body == want.as_bytes())
        });
        assert!(status == 200 && ok, "{target} answered wrongly during the latency pass");
        rtt_us.push(wall * 1e6);
    }
    drop(client);
    server.stop();
    out.push("serve.rtt_p50_us", stats::percentile(&rtt_us, 0.50), "us");
    out.push("serve.rtt_p99_us", stats::percentile(&rtt_us, 0.99), "us");
    out.push("serve.rtt_pairs", sizes.rtt_pairs as f64, "count");
}
