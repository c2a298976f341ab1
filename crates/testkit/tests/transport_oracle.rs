//! Chaos differential oracle for the `SLPWFEED` wire transport.
//!
//! The world-scale batch≡streamed agreement of `ingest_oracle.rs`, with
//! the feed pushed through a real loopback TCP connection and a
//! deterministic [`ChaosProxy`] in the middle: for every named
//! [`ChaosPlan`] preset — mid-frame severs, byte flips, stalls past the
//! heartbeat budget, short writes, duplicated and reordered frames,
//! reconnect storms — the ingested world must reproduce the batch
//! analysis *exactly*, at 1, 4 and 8 shards. Reconnect-and-resume makes
//! every harmful preset lossless; the oracle proves it verdict by
//! verdict, and counts that every harmful preset reconnected and that a
//! preset which neither harms nor duplicates did neither. The two sever
//! presets serve the lazy `WorldFeed` `sleepwatch feed` sends, so their
//! resumes land on a feed that learned its chunk ends while it sent.
//!
//! Alongside the sweep: kill-and-resume on both ends of the wire (a
//! half-served feed finalizes its complete blocks, journals them, and a
//! second session heals; a killed-and-restarted server, a fresh
//! `WorldFeed` that has learned nothing, is resumed mid-stream),
//! foreign-feed refusal, checkpoint interchangeability with
//! the batch pipeline across the transport, and the lossy file path's
//! graceful truncation handling.
//!
//! Scale: [`WORLD`]'s blocks, fewer in a debug build so tier-1 runs stay
//! tractable.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::{
    analyze_world_resumable, feed_identity, ingest_source, ingest_source_resumable, world_feed,
    AnalysisConfig, IngestConfig, TransportOutcome, WorldAnalysis, WorldFeed,
};
use sleepwatch_probing::transport::{
    encode_frame, encode_hello, serve_feed, session_chain, write_feed, BackoffConfig, Endpoint,
    FeedConfig, FeedEvents, FileSource, Frame, TcpConfig, TcpEventSource,
};
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::WorldSource;
use sleepwatch_testkit::chaos::{ChaosPlan, ChaosProxy};
use sleepwatch_testkit::matrix::{chaos, fault, OracleWorld, CHAOS_SEED, THREADS};
use sleepwatch_testkit::resilience::scratch_path;

const WORLD: OracleWorld = OracleWorld {
    seed: 0x7A45_1907,
    blocks: if cfg!(debug_assertions) { 120 } else { 1_200 },
    days: 1.25,
};

/// The fault preset every world here is probed under.
const FAULT: &str = "loss-light";

/// Client tuning for loopback chaos: short reads so stalls trip the
/// heartbeat budget quickly, fast backoff so storms stay cheap, and a
/// generous attempt budget (progress refills it anyway).
fn chaos_tcp_cfg(identity: sleepwatch_framing::RunIdentity) -> TcpConfig {
    let mut cfg = TcpConfig::new(identity);
    cfg.read_timeout = std::time::Duration::from_millis(50);
    cfg.heartbeat_budget = 3;
    cfg.backoff = BackoffConfig { base_ms: 5, max_ms: 100, attempts: 10, seed: CHAOS_SEED };
    cfg
}

/// Small frames so every preset's trigger lands well inside the stream.
fn chaos_feed_cfg(identity: sleepwatch_framing::RunIdentity) -> FeedConfig {
    let mut cfg = FeedConfig::new(identity);
    cfg.frame_events = 64;
    cfg.heartbeat_every = 8;
    cfg
}

/// Serves `feed` over a chaos proxy and ingests it; returns the outcome
/// and the proxy's accounting (connections, harms injected).
fn ingest_through_chaos<F: FeedEvents + Sync + ?Sized>(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    feed: &F,
    plan: ChaosPlan,
) -> (TransportOutcome, u64, u64) {
    let identity = feed_identity(source, cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed server");
    let addr = listener.local_addr().expect("feed addr").to_string();
    let stop = AtomicBool::new(false);
    let fcfg = chaos_feed_cfg(identity);
    thread::scope(|s| {
        let server = s.spawn(|| {
            let accept = Endpoint::Accept(listener);
            serve_feed(&accept, feed, &fcfg, &BackoffConfig::default(), &stop)
        });
        let proxy = ChaosProxy::spawn(&addr, plan).expect("spawn chaos proxy");
        let mut es = TcpEventSource::dial(proxy.addr().to_string(), chaos_tcp_cfg(identity));
        let out = ingest_source(source, cfg, icfg, &mut es);
        stop.store(true, Ordering::SeqCst);
        let connections = proxy.connections();
        let harms = proxy.harms();
        proxy.shutdown();
        server.join().expect("feed server thread").expect("feed server");
        (out, connections, harms)
    })
}

fn assert_matches_batch(tag: &str, out: &TransportOutcome, batch: &WorldAnalysis) {
    if let Some(e) = &out.error {
        panic!("{tag}: transport error: {e}");
    }
    assert!(out.transport.clean_end, "{tag}: feed did not end cleanly");
    assert!(
        out.outcome.open_blocks.is_empty(),
        "{tag}: blocks left open: {:?}",
        out.outcome.open_blocks
    );
    assert_eq!(out.outcome.reports.len(), batch.reports.len(), "{tag}: block count diverged");
    for (s, b) in out.outcome.reports.iter().zip(&batch.reports) {
        assert_eq!(
            format!("{s:?}"),
            format!("{b:?}"),
            "{tag}: joined report diverged on block {}",
            b.summary.block_id
        );
    }
}

/// The oracle body: under one chaos preset, at every shard count (each
/// with its own interleaving), the TCP-ingested world must reproduce the
/// batch analysis element for element.
fn chaos_differential(name: &str) {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let batch = WORLD.batch(FAULT);
    assert!(batch.quarantined.is_empty(), "{name}: reference run quarantined blocks");
    let plan = chaos(name);
    for (i, shards) in THREADS.into_iter().enumerate() {
        let icfg = IngestConfig {
            shards,
            interleave_seed: 0x7A45_12DE ^ ((i as u64) << 8),
            ..Default::default()
        };
        let tag = format!("{name}@{shards}");
        let (out, connections, harms) = if matches!(name, "sever-midframe" | "reconnect-storm") {
            let feed = WorldFeed::new(&source, &cfg, &icfg);
            let run = ingest_through_chaos(&source, &cfg, &icfg, &feed, plan);
            assert!(feed.quarantined().is_empty(), "{tag}: feed quarantines");
            run
        } else {
            let (events, quarantined) = world_feed(&source, &cfg, &icfg);
            assert!(quarantined.is_empty(), "{tag}: feed quarantines");
            ingest_through_chaos(&source, &cfg, &icfg, &events, plan)
        };
        assert_matches_batch(&tag, &out, batch);
        assert_eq!(out.outcome.stats.blocks, batch.reports.len(), "{tag}: stats.blocks");
        if plan.harm.is_some() {
            assert!(harms > 0, "{tag}: harmful preset injected nothing");
            assert!(
                out.transport.reconnects > 0 && connections > 1,
                "{tag}: harmful preset caused no reconnects \
                 (reconnects={}, connections={connections})",
                out.transport.reconnects
            );
        } else {
            assert_eq!(harms, 0, "{tag}: benign preset injected harm");
        }
        if plan.harm.is_none() && plan.dup_every.is_none() {
            let t = &out.transport;
            assert_eq!((t.reconnects, t.duplicates), (0, 0), "{tag}: benign preset");
        }
        if plan.dup_every.is_some() {
            assert!(out.transport.duplicates > 0, "{tag}: no duplicates observed");
        }
    }
}

sleepwatch_testkit::chaos_tests!(chaos_differential);

/// The order a deployment feeds — every block, every round, so every lane
/// is open for the whole run — over loopback through mid-frame severs:
/// the resumed sessions still reproduce the batch analysis at 1, 4 and 8
/// shards.
#[test]
fn round_major_feed_through_severs_matches_batch() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let batch = WORLD.batch(FAULT);
    let plan_name = "sever-midframe";
    let plan = chaos(plan_name);
    let (events, quarantined) = world_feed(&source, &cfg, &IngestConfig::default());
    assert!(quarantined.is_empty(), "feed quarantines");
    let events = sleepwatch_testkit::fixtures::round_major(&events);
    for shards in THREADS {
        let icfg = IngestConfig { shards, ..Default::default() };
        let (out, _, harms) = ingest_through_chaos(&source, &cfg, &icfg, &events[..], plan);
        let tag = format!("round-major {plan_name}@{shards}");
        assert!(harms > 0, "{tag}: no sever injected");
        assert_matches_batch(&tag, &out, batch);
    }
}

/// Serves `events` once over plain loopback TCP (no chaos) into a
/// resumable ingest journaling at `path`.
fn ingest_over_tcp_resumable(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &[RoundEvent],
    path: &std::path::Path,
) -> TransportOutcome {
    let identity = feed_identity(source, cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed server");
    let addr = listener.local_addr().expect("feed addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        let events = events.to_vec();
        let fcfg = chaos_feed_cfg(identity);
        thread::spawn(move || {
            serve_feed(
                &Endpoint::Accept(listener),
                &events,
                &fcfg,
                &BackoffConfig::default(),
                &stop,
            )
        })
    };
    let mut es = TcpEventSource::dial(addr, chaos_tcp_cfg(identity));
    let out = ingest_source_resumable(source, cfg, icfg, &mut es, path).expect("journaled ingest");
    stop.store(true, Ordering::SeqCst);
    server.join().expect("feed server thread").expect("feed server");
    out
}

/// Client-side kill-and-resume: a feed that dies halfway (clean end
/// marker, half the events — the peer finalized what it could and went
/// away) finalizes exactly the blocks whose streams completed, journals
/// them, and reports the rest degraded; a second session against the
/// full feed replays the journal and heals to the reference verdicts
/// without reprocessing.
#[test]
fn half_served_feed_degrades_then_resumes_losslessly() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let icfg = IngestConfig::default();
    let batch = WORLD.batch(FAULT);
    let (events, _) = world_feed(&source, &cfg, &icfg);
    let journal = scratch_path("transport-resume");

    // Cut the feed just after a third of the blocks finished: the dead
    // peer delivered complete streams for some blocks and torn ones for
    // the rest (finishes cluster near the tail of the interleaving, so a
    // naive halfway cut would complete nothing).
    let want_finished = batch.reports.len() / 3;
    let mut seen = 0usize;
    let cut = events
        .iter()
        .position(|e| {
            if matches!(e, sleepwatch_probing::RoundEvent::Finish { .. }) {
                seen += 1;
            }
            seen >= want_finished
        })
        .expect("feed has too few finish events")
        + 1;
    let half = &events[..cut];
    let first = ingest_over_tcp_resumable(&source, &cfg, &icfg, half, &journal);
    assert!(first.error.is_none(), "half feed errored: {:?}", first.error);
    assert!(
        !first.outcome.open_blocks.is_empty(),
        "half feed left nothing open — kill was not mid-stream"
    );
    assert!(first.outcome.reports.len() < batch.reports.len(), "half feed finalized everything");
    let want: HashMap<u64, String> =
        batch.reports.iter().map(|r| (r.summary.block_id, format!("{r:?}"))).collect();
    for s in &first.outcome.reports {
        assert_eq!(
            Some(&format!("{s:?}")),
            want.get(&s.summary.block_id),
            "degraded run diverged on a *completed* block {}",
            s.summary.block_id
        );
    }

    let second = ingest_over_tcp_resumable(&source, &cfg, &icfg, &events, &journal);
    assert!(second.outcome.stats.replayed > 0, "resume replayed nothing from the journal");
    assert_matches_batch("resumed", &second, batch);
    let _ = std::fs::remove_file(&journal);
}

/// Server-side kill-and-restart: the first server dies mid-stream after
/// K frames; the restarted server, a fresh `WorldFeed` that has learned
/// nothing of its chunks, honors the resume handshake and the client heals
/// to the full verdict set with exactly one reconnect.
#[test]
fn killed_server_is_resumed_mid_stream() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let icfg = IngestConfig::default();
    let batch = WORLD.batch(FAULT);
    let (events, _) = world_feed(&source, &cfg, &icfg);
    let identity = feed_identity(&source, &cfg);

    // The client listens; servers dial in. Server 1 is a hand-rolled
    // partial sender that dies after 5 frames; server 2 is the real
    // replaying feed.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind client");
    let addr = listener.local_addr().expect("client addr").to_string();
    let stop = AtomicBool::new(false);
    let out = thread::scope(|scope| {
        scope.spawn(|| {
            let chain = session_chain(&identity);
            let mut s = TcpStream::connect(&addr).expect("server 1 dial");
            s.write_all(&encode_hello(&identity)).expect("hello");
            let mut resume = [0u8; sleepwatch_framing::PRELUDE_LEN];
            s.read_exact(&mut resume).expect("resume answer");
            let mut out = Vec::new();
            for (i, chunk) in events.chunks(64).enumerate().take(5) {
                out.clear();
                let seq = (i * 64) as u64;
                encode_frame(&mut out, &Frame::Events { seq, events: chunk.to_vec() }, chain);
                s.write_all(&out).expect("partial frames");
            }
            drop(s); // killed mid-stream
            let restarted = WorldFeed::new(&source, &cfg, &icfg);
            serve_feed(
                &Endpoint::Dial(addr),
                &restarted,
                &chaos_feed_cfg(identity),
                &BackoffConfig { base_ms: 5, max_ms: 100, attempts: 20, seed: 1 },
                &stop,
            )
            .expect("restarted server");
        });
        let mut es = TcpEventSource::accept(listener, chaos_tcp_cfg(identity));
        let out = ingest_source(&source, &cfg, &icfg, &mut es);
        stop.store(true, Ordering::SeqCst);
        out
    });
    assert!(out.transport.reconnects >= 1, "no reconnect recorded");
    // The restarted feed resumes exactly where server 1 stopped: no
    // event arrives twice, and every event arrives once.
    assert_eq!(out.transport.duplicates, 0, "the resume re-sent events");
    assert_eq!(out.transport.events, events.len() as u64, "events delivered");
    assert_matches_batch("server-restart", &out, batch);
}

/// A feed carrying a different run identity is refused with a typed
/// error before any event crosses: the receiver's world stays empty.
#[test]
fn foreign_feed_is_refused_with_typed_error() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let (events, _) = world_feed(&source, &cfg, &IngestConfig::default());
    let identity = feed_identity(&source, &cfg);
    let mut foreign = identity;
    foreign.world_seed ^= 0xBAD;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        let fcfg = chaos_feed_cfg(identity);
        thread::spawn(move || {
            serve_feed(
                &Endpoint::Accept(listener),
                &events,
                &fcfg,
                &BackoffConfig::default(),
                &stop,
            )
        })
    };
    let mut cfg_foreign = chaos_tcp_cfg(foreign);
    cfg_foreign.backoff.attempts = 3;
    let mut es = TcpEventSource::dial(addr, cfg_foreign);
    let out = ingest_source(&source, &cfg, &IngestConfig::default(), &mut es);
    let err = out.error.expect("foreign feed accepted");
    assert!(err.is_foreign_feed(), "wrong error class: {err}");
    assert!(out.outcome.reports.is_empty(), "events crossed a refused handshake");
    stop.store(true, Ordering::SeqCst);
    server.join().expect("server thread").expect("server");
}

/// The transport-fed journal speaks the batch journal's format: a run
/// ingested over TCP can be severed and finished by
/// `analyze_world_resumable`, and a severed batch journal can be
/// finished over the wire — identical verdicts both ways.
#[test]
fn transport_and_batch_checkpoints_are_interchangeable() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let icfg = IngestConfig::default();
    let world = WORLD.world();
    let batch = WORLD.batch(FAULT);
    let (events, _) = world_feed(&source, &cfg, &icfg);

    // Transport writes, batch finishes.
    let journal = scratch_path("transport-cross");
    let full = ingest_over_tcp_resumable(&source, &cfg, &icfg, &events, &journal);
    assert!(full.complete(), "reference transport run incomplete");
    let bytes = std::fs::read(&journal).expect("read journal");
    let cut = record_boundaries(&bytes)[batch.reports.len() / 3];
    std::fs::write(&journal, &bytes[..cut]).expect("sever");
    let finished = analyze_world_resumable(&world, &cfg, 4, &journal, None).expect("batch resume");
    for (s, b) in finished.reports.iter().zip(&batch.reports) {
        assert_eq!(format!("{s:?}"), format!("{b:?}"), "batch finish of transport journal");
    }

    // Batch writes, transport finishes.
    let bytes = std::fs::read(&journal).expect("read finished journal");
    let cut = record_boundaries(&bytes)[batch.reports.len() / 2];
    std::fs::write(&journal, &bytes[..cut]).expect("sever again");
    let resumed = ingest_over_tcp_resumable(&source, &cfg, &icfg, &events, &journal);
    assert!(resumed.outcome.stats.replayed > 0, "transport resume replayed nothing");
    assert_matches_batch("transport finish of batch journal", &resumed, batch);
    let _ = std::fs::remove_file(&journal);
}

/// The file path: a feed written with `write_feed` round-trips through
/// `FileSource` to batch-identical verdicts, and a torn tail degrades
/// gracefully — the valid prefix is ingested, completed blocks finalize,
/// the rest are reported open.
#[test]
fn file_feed_matches_batch_and_torn_tail_degrades() {
    let source = WORLD.source();
    let cfg = WORLD.cfg(fault(FAULT));
    let icfg = IngestConfig::default();
    let batch = WORLD.batch(FAULT);
    let (events, _) = world_feed(&source, &cfg, &icfg);
    let identity = feed_identity(&source, &cfg);
    let mut bytes = Vec::new();
    write_feed(&mut bytes, &events, &identity, 64).expect("write feed");

    let mut fs = FileSource::new(&bytes[..], &identity, false).expect("open file feed");
    let out = ingest_source(&source, &cfg, &icfg, &mut fs);
    assert_matches_batch("file", &out, batch);

    let torn = &bytes[..bytes.len() - bytes.len() / 3];
    let mut fs = FileSource::new(torn, &identity, false).expect("open torn feed");
    let out = ingest_source(&source, &cfg, &icfg, &mut fs);
    assert!(out.error.is_none(), "lenient torn feed errored: {:?}", out.error);
    assert!(!out.transport.clean_end, "torn feed claimed a clean end");
    assert!(
        !out.outcome.open_blocks.is_empty() || out.outcome.reports.len() < batch.reports.len(),
        "torn feed lost nothing — the cut missed the stream"
    );
    let want: HashMap<u64, String> =
        batch.reports.iter().map(|r| (r.summary.block_id, format!("{r:?}"))).collect();
    for s in &out.outcome.reports {
        assert_eq!(
            Some(&format!("{s:?}")),
            want.get(&s.summary.block_id),
            "torn-feed completed block {} diverged",
            s.summary.block_id
        );
    }
}
