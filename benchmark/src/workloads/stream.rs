//! `stream_ingest`: the wire → ingest → journal → served-state chain.
//!
//! The world is probed once in set-up (`world_feed`). One repetition:
//! `serve_feed` on loopback (one feeder thread, one connection) →
//! `TcpEventSource::dial` → `ingest_source_resumable` (two shards, fresh
//! v2 journal) → `load_rows` from that journal → `ServeState::build`.
//! Closed loop: TCP flow control is the only pacing. The unit of work is a
//! `Round` event.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sleepwatch_core::{
    analyze_world_source, dataset_rows, feed_identity, ingest_source_resumable, load_rows,
    world_feed, DatasetRow, IngestConfig, RunIdentity, ServeState,
};
use sleepwatch_probing::transport::{
    serve_feed, BackoffConfig, Endpoint, FeedConfig, TcpConfig, TcpEventSource,
};
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::{WorldConfig, WorldSource};

use super::{debug_digest, Inputs, Shape, ANALYSIS_THREADS, INGEST_SHARDS, LRU_CAPACITY};
use crate::harness::{Check, RepOutcome, Timed, Workload, REP_SPAN};
use crate::trace::Tracer;

/// The streaming workload.
#[derive(Debug)]
pub struct Stream {
    shape: Shape,
    seed: u64,
}

impl Stream {
    /// The streaming workload of `shape`, inputs derived from `seed`.
    pub fn new(shape: Shape, seed: u64) -> Stream {
        Stream { shape, seed }
    }
}

/// The pre-probed feed and what each repetition made of it.
#[derive(Debug)]
pub struct StreamSystem {
    inputs: Inputs,
    source: WorldSource,
    icfg: IngestConfig,
    identity: RunIdentity,
    feed: Vec<RoundEvent>,
    rounds: u64,
    journal: PathBuf,
    /// Per repetition: digest of the ingested reports, digest of the rows
    /// loaded back from the journal.
    digests: Vec<(u64, u64)>,
    last: Option<ServeState>,
}

/// Serves `events` on a loopback listener from one feeder thread while
/// `client` runs against its address, then stops and joins the feeder.
pub(crate) fn over_loopback<T>(
    events: &[RoundEvent],
    identity: RunIdentity,
    client: impl FnOnce(String) -> T,
) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback feed listener");
    let addr = listener.local_addr().expect("feed listener address").to_string();
    let stop = AtomicBool::new(false);
    let fcfg = FeedConfig::new(identity);
    std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            serve_feed(&Endpoint::Accept(listener), events, &fcfg, &BackoffConfig::default(), &stop)
        });
        let out = client(addr);
        stop.store(true, Ordering::SeqCst);
        feeder.join().expect("feeder thread panicked").expect("feed server failed");
        out
    })
}

impl Workload for Stream {
    type System = StreamSystem;

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn setup(&self, dir: &Path) -> (StreamSystem, f64) {
        let inputs = Inputs::derive(&self.shape, self.seed);
        let source = WorldSource::new(inputs.wcfg.clone());
        let icfg = IngestConfig {
            shards: INGEST_SHARDS,
            interleave_seed: inputs.wcfg.seed ^ 0xFEED,
            ..Default::default()
        };
        let start = Instant::now();
        let (feed, quarantined) = world_feed(&source, &inputs.cfg, &icfg);
        let fixture_s = start.elapsed().as_secs_f64();
        assert!(quarantined.is_empty(), "probing the fixture quarantined {quarantined:?}");
        let rounds = feed.iter().filter(|e| matches!(e, RoundEvent::Round { .. })).count() as u64;
        let identity = feed_identity(&source, &inputs.cfg);
        let journal = dir.join(format!("{}.journal", self.shape.name));
        let sys = StreamSystem {
            inputs,
            source,
            icfg,
            identity,
            feed,
            rounds,
            journal,
            digests: Vec::new(),
            last: None,
        };
        (sys, fixture_s)
    }

    fn rep(&self, sys: &mut StreamSystem, t: &mut Tracer) -> RepOutcome {
        let Inputs { wcfg, cfg, expect } = &sys.inputs;
        let (source, icfg, identity, path) = (&sys.source, &sys.icfg, sys.identity, &sys.journal);
        sys.last = None;
        let _ = std::fs::remove_file(path); // every repetition journals from scratch

        let (out, state, wall_s, cpu_s) = over_loopback(&sys.feed, identity, |addr| {
            let root = t.enter(REP_SPAN);
            let timed = Timed::start();
            let mut wire = t.call("transport.TcpEventSource_dial", || {
                TcpEventSource::dial(addr, TcpConfig::new(identity))
            });
            let out = t
                .call("ingest.ingest_source_resumable", || {
                    ingest_source_resumable(source, cfg, icfg, &mut wire, path)
                })
                .expect("open a fresh journal inside the benchmark's out directory");
            let loaded = t
                .call("serve.load_rows", || load_rows(path, Some(wcfg), expect))
                .expect("load the journal written a moment ago");
            let state =
                t.call("serve.ServeState_build", || ServeState::build(loaded, LRU_CAPACITY));
            let (wall_s, cpu_s) = timed.stop();
            t.exit(root);
            (out, state, wall_s, cpu_s)
        });

        // Untimed: a complete transport outcome with no reconnect, every
        // block finalized and journaled.
        let blocks = self.shape.blocks as u64;
        let incomplete = !out.complete() || out.transport.reconnects != 0;
        let missing = blocks.saturating_sub(out.outcome.reports.len() as u64)
            + blocks.saturating_sub(state.rows().len() as u64);
        sys.digests.push((debug_digest(&out.outcome.reports), debug_digest(state.rows())));
        sys.last = Some(state);
        RepOutcome {
            wall_s,
            cpu_s,
            units: sys.rounds,
            checked: 2 * blocks,
            failed: if incomplete { 2 * blocks } else { missing },
        }
    }

    fn check(&self, sys: &StreamSystem) -> Check {
        // The reference: the batch pipeline over the same source. Ingested
        // reports must be Debug-identical to its reports, journal-loaded
        // rows to its dataset rows, on every repetition.
        let reference = analyze_world_source(&sys.source, &sys.inputs.cfg, ANALYSIS_THREADS, None);
        let want = (debug_digest(&reference.reports), debug_digest(&dataset_rows(&reference)));
        let bad = sys.digests.iter().map(|d| u64::from(d.0 != want.0) + u64::from(d.1 != want.1));
        Check { checked: 2 * sys.digests.len() as u64, failed: bad.sum() }
    }

    fn rows(&self, sys: &StreamSystem) -> (Vec<DatasetRow>, WorldConfig) {
        let state = sys.last.as_ref().expect("rows are read after a repetition");
        (state.rows().to_vec(), sys.inputs.wcfg.clone())
    }
}
