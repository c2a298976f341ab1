//! Bounds what a self-generated feed holds, in heap bytes rather than in
//! what the OS reports.
//!
//! - `world_feed` holds the feed it returns plus one chunk's per-block
//!   streams: each chunk is interleaved as it is read, never copied whole
//!   into a second buffer.
//! - `write_feed` over a counted `WorldFeed` holds one chunk whatever the
//!   world's size: 2 048 blocks peak within one chunk's bytes of 256.
//!
//! Live bytes are process-wide, so this binary holds one test and measures
//! on its own thread with nothing else running.

use counting_alloc::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use sleepwatch_core::{feed_identity, world_feed, AnalysisConfig, IngestConfig, WorldFeed};
use sleepwatch_probing::transport::{write_feed, FeedConfig};
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::{WorldConfig, WorldSource};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Blocks per feed chunk.
const CHUNK: usize = 256;
/// What a chunk's blocks hold beside their streams while it is probed:
/// its block specs and one block's prober run.
const SLACK: usize = 1 << 20;

fn world(blocks: usize) -> (WorldSource, AnalysisConfig) {
    let wcfg =
        WorldConfig { num_blocks: blocks, seed: 0xA110C, span_days: 5.0, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    (WorldSource::new(wcfg), cfg)
}

/// Bytes of one full chunk's streams: a fault-free block sends one event
/// per round and its `Finish`.
fn chunk_bytes(cfg: &AnalysisConfig) -> usize {
    CHUNK * (cfg.rounds as usize + 1) * std::mem::size_of::<RoundEvent>()
}

/// Peak live heap bytes `f` adds over what was live before it.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live_bytes();
    reset_peak_live_bytes();
    let out = f();
    (out, peak_live_bytes() - base)
}

/// Peak of counting a `blocks`-block world's feed and writing it to a sink.
fn written_peak(blocks: usize) -> usize {
    let (source, cfg) = world(blocks);
    let identity = feed_identity(&source, &cfg);
    let ((), peak) = peak_of(|| {
        let feed = WorldFeed::new(&source, &cfg, &IngestConfig::default());
        assert!(feed.quarantined().is_empty());
        write_feed(&mut std::io::sink(), &feed, &identity, FeedConfig::new(identity).frame_events)
            .expect("write into a sink");
    });
    peak
}

#[test]
fn a_feed_holds_one_chunk_of_streams_at_a_time() {
    // Three full chunks: the feed reaches its final capacity in the second
    // (doubling from 262 144 to 524 288 events), so all that may sit on
    // top of it while the third is read is that chunk's streams.
    let (source, cfg) = world(3 * CHUNK);
    let ((feed, quarantined), peak) =
        peak_of(|| world_feed(&source, &cfg, &IngestConfig::default()));
    assert!(quarantined.is_empty());
    let held = feed.capacity() * std::mem::size_of::<RoundEvent>();
    let bound = held + chunk_bytes(&cfg) + SLACK;
    eprintln!("world_feed: peak {peak} B, feed {held} B, one chunk {} B", chunk_bytes(&cfg));
    assert!(peak <= bound, "world_feed peaked at {peak} B, over {held} B of feed + one chunk");

    let (small, large) = (written_peak(256), written_peak(2_048));
    eprintln!("write_feed over WorldFeed: peak {small} B at 256 blocks, {large} B at 2 048");
    assert!(
        large <= small + chunk_bytes(&cfg),
        "a 2 048-block feed peaked at {large} B, over one chunk above {small} B at 256 blocks"
    );
}
