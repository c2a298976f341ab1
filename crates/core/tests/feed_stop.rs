//! A send whose callback fails stops the feed's workers: `runs_from`
//! returns the callback's error once every worker has joined, and no
//! worker probed a block past the chunk after the one being read, however
//! many workers there are.
//!
//! `ingest.feed_chunks` and `simnet.blocks_generated` are process-wide, so
//! this binary holds one test.

use std::time::Duration;

use sleepwatch_core::ingest::with_feed_workers;
use sleepwatch_core::{AnalysisConfig, IngestConfig, WorldFeed};
use sleepwatch_probing::transport::FeedEvents;
use sleepwatch_simnet::{WorldConfig, WorldSource};

/// Blocks per feed chunk.
const CHUNK: u64 = 256;

#[test]
fn a_failed_run_stops_the_workers_and_returns_its_error() {
    let wcfg =
        WorldConfig { num_blocks: 2_000, seed: 0x5709, span_days: 1.25, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    let source = WorldSource::new(wcfg);
    let feed = with_feed_workers(4, || WorldFeed::new(&source, &cfg, &IngestConfig::default()));
    let obs = sleepwatch_obs::global();
    let probed = || (obs.ingest.feed_chunks.get(), obs.simnet.blocks_generated.get());

    let before = probed();
    let mut runs = 0;
    let sent = feed.runs_from(0, 256, |_| {
        runs += 1;
        // Room for the workers to run as far ahead as they may.
        std::thread::sleep(Duration::from_millis(200));
        Err("the wire died")
    });
    assert_eq!(sent, Err("the wire died"));
    assert_eq!(runs, 1);
    let after = probed();
    let (chunks, blocks) = (after.0 - before.0, after.1 - before.1);
    assert!(chunks <= 2, "{chunks} chunks probed for a send that failed in the first");
    assert!(blocks <= 2 * CHUNK, "{blocks} blocks probed for a send that failed in the first");

    // Every worker has joined: nothing is probed after the return.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(probed(), after, "a worker outlived the send");
}
