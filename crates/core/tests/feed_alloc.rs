//! Bounds what a self-generated feed holds, in heap bytes rather than in
//! what the OS reports.
//!
//! - A pass over a feed holds at most two chunks of block series at 8 B
//!   per round, whatever its worker count: the chunk being read and the
//!   one being probed. `world_feed` holds the feed it returns plus those
//!   chunks. That is less than the one chunk of 24 B events a feed held
//!   when it probed on one thread.
//! - `write_feed` over a `WorldFeed` holds a fixed number of chunks
//!   whatever the world's size: 2 048 blocks peak within one chunk of 256,
//!   whose one chunk is all a pass over it can hold.
//! - A feed allocates per chunk, not per block: each worker probes a chunk
//!   through one scratch, so an extra block costs its spec and little else.
//!
//! All hold at 2 workers and at 4: only `SLACK` grows with the workers.
//!
//! Live bytes and allocations are process-wide, so this binary holds one
//! test and measures with nothing else running.

use counting_alloc::{allocations, live_bytes, peak_live_bytes, reset_peak_live_bytes};
use sleepwatch_core::feed::with_feed_workers;
use sleepwatch_core::{feed_identity, world_feed, AnalysisConfig, IngestConfig, WorldFeed};
use sleepwatch_probing::transport::{write_feed, FeedConfig};
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::{WorldConfig, WorldSource};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Blocks per feed chunk.
const CHUNK: usize = 256;
/// Chunks of series a pass holds at once.
const WINDOW: usize = 2;
/// What a pass holds beside its chunks' series: each worker's block spec
/// and scratch, and the chunks' stream lists.
const SLACK: usize = 1 << 20;
/// Most heap allocations a feed may make per block it probes: a fresh
/// prober and run per block made about 4.6, a worker's scratch under 2.
const ALLOCS_PER_BLOCK: f64 = 3.0;

fn world(blocks: usize) -> (WorldSource, AnalysisConfig) {
    let wcfg =
        WorldConfig { num_blocks: blocks, seed: 0xA110C, span_days: 5.0, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    (WorldSource::new(wcfg), cfg)
}

/// Bytes of one full chunk's series: a fault-free block holds one `Âs`
/// value per round.
fn chunk_bytes(cfg: &AnalysisConfig) -> usize {
    CHUNK * cfg.rounds as usize * std::mem::size_of::<f64>()
}

/// Bytes of one full chunk of events, one per round plus the `Finish`:
/// what a feed held in flight when it probed on one thread.
fn event_chunk_bytes(cfg: &AnalysisConfig) -> usize {
    CHUNK * (cfg.rounds as usize + 1) * std::mem::size_of::<RoundEvent>()
}

/// Peak live heap bytes `f` adds over what was live before it.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live_bytes();
    reset_peak_live_bytes();
    let out = f();
    (out, peak_live_bytes() - base)
}

/// Peak of counting a `blocks`-block world's feed and writing it to a
/// sink, probed by `threads` workers.
fn written_peak(blocks: usize, threads: usize) -> usize {
    let (source, cfg) = world(blocks);
    let identity = feed_identity(&source, &cfg);
    let ((), peak) = peak_of(|| {
        let feed =
            with_feed_workers(threads, || WorldFeed::new(&source, &cfg, &IngestConfig::default()));
        assert!(feed.quarantined().is_empty());
        write_feed(&mut std::io::sink(), &feed, &identity, FeedConfig::new(identity).frame_events)
            .expect("write into a sink");
    });
    peak
}

/// Allocations `world_feed` makes over a `blocks`-block world, probed by
/// `threads` workers.
fn feed_allocations(blocks: usize, threads: usize) -> usize {
    let (source, cfg) = world(blocks);
    let before = allocations();
    with_feed_workers(threads, || world_feed(&source, &cfg, &IngestConfig::default()));
    allocations() - before
}

#[test]
fn a_feed_holds_two_chunks_of_series_at_any_worker_count() {
    // Six full chunks: enough for four workers to run out of room while
    // the reader is still on the first.
    let (source, cfg) = world(6 * CHUNK);
    let in_flight = WINDOW * chunk_bytes(&cfg);
    assert!(
        in_flight <= event_chunk_bytes(&cfg),
        "two chunks of series ({in_flight} B) outweigh one chunk of events"
    );
    for threads in [2, 4] {
        let ((feed, quarantined), peak) = peak_of(|| {
            with_feed_workers(threads, || world_feed(&source, &cfg, &IngestConfig::default()))
        });
        assert!(quarantined.is_empty());
        let held = feed.capacity() * std::mem::size_of::<RoundEvent>();
        eprintln!(
            "world_feed at {threads} threads: peak {peak} B, feed {held} B, chunks {in_flight} B"
        );
        assert!(
            peak <= held + in_flight + SLACK,
            "world_feed at {threads} threads peaked at {peak} B, over {held} B of feed + \
             {WINDOW} chunks"
        );

        let (small, large) = (written_peak(256, threads), written_peak(2_048, threads));
        eprintln!(
            "write_feed over WorldFeed at {threads} threads: peak {small} B at 256 blocks, \
             {large} B at 2 048"
        );
        assert!(
            large <= small + chunk_bytes(&cfg) + SLACK,
            "at {threads} threads a 2 048-block feed peaked at {large} B, over one chunk above \
             {small} B at 256 blocks"
        );

        let extra = feed_allocations(2_048, threads) - feed_allocations(512, threads);
        let per_block = extra as f64 / (2_048 - 512) as f64;
        eprintln!("world_feed at {threads} threads: {per_block:.2} allocations per extra block");
        assert!(
            per_block <= ALLOCS_PER_BLOCK,
            "at {threads} threads a feed made {per_block:.2} allocations per extra block, over \
             {ALLOCS_PER_BLOCK}"
        );
    }
}
