//! Self-generated feeds: a world's probe rounds as the event stream
//! [`crate::ingest_source`] consumes and `sleepwatch feed` serves.
//!
//! A [`WorldFeed`] probes 256-block chunks through the world run's chunk
//! pool (`worldrun::each_chunk`): one worker per core and the calling
//! thread claim chunk `c`'s blocks eight at a time, while the calling
//! thread first interleaves chunk `c − 1` (keyed `interleave_seed + c`);
//! the join is the only wait. Workers probe through the world run's
//! `probe_into`, each on one probe workspace for the whole pass, and hold
//! each block as its lane would (8 B per round), so a feed holds two chunks
//! at any core count, never the world, and no event depends on the worker
//! count. A resume regenerates from the chunk that holds its sequence
//! number, once a pass has learned where that chunk starts.

use std::cell::Cell;
use std::convert::Infallible;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sleepwatch_obs::Stage;
use sleepwatch_probing::transport::FeedEvents;
use sleepwatch_probing::{record_rounds, Interleave, RoundEvent};
use sleepwatch_simnet::WorldSource;

use crate::analyze::{probe_into, AnalysisConfig, ProbeWorkspace};
use crate::ingest::{IngestConfig, Pool, RoundSeries};
use crate::worldrun::{each_chunk, quarantine_on_panic, Quarantine};
use sleepwatch_framing::RunIdentity;

/// A world's event feed, generated a chunk at a time: what
/// [`crate::ingest_world`] routes, what [`world_feed`] collects and what
/// `sleepwatch feed` sends. Chunk `c`'s events are a pure function of the
/// source, the config, the interleave seed and `c`.
///
/// A feed does not know its length until a pass reaches its end. Each pass
/// records, the first time it assembles a chunk, the chunk's cumulative
/// event count and its quarantines. A resume at sequence `s`
/// ([`FeedEvents`]) starts at the chunk that holds `s` if a pass has
/// recorded it, and otherwise at the first chunk none has, skipping the
/// events before `s`. So the probing and quarantine counters,
/// `ingest.feed_chunks` and `stage.ingest.feed_probe` count a chunk once
/// per pass over it. A send whose callback fails stops the workers at
/// their next group of blocks: the chunk they were probing ahead of the
/// failed one is cut short and neither counted nor recorded, though the
/// blocks they probed count in the probing counters.
pub struct WorldFeed<'a> {
    source: &'a WorldSource,
    cfg: &'a AnalysisConfig,
    interleave_seed: u64,
    workers: usize,
    /// Journal-replayed blocks, left out of the feed (by block id).
    skip: &'a [bool],
    /// What the passes so far have recorded.
    seen: Mutex<Seen>,
}

/// The chunks some pass over a [`WorldFeed`] has assembled, from the first.
#[derive(Default)]
struct Seen {
    /// `ends[c]`: events in chunks `0..=c`.
    ends: Vec<u64>,
    /// Blocks of those chunks quarantined by a probing panic.
    quarantined: Vec<Quarantine>,
}

thread_local! {
    /// Probing workers of the feeds built on this thread; `None`: one per
    /// core.
    static FEED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the feeds it builds on this thread probing on `workers`
/// threads instead of one per core. No feed byte depends on the count;
/// this exists so tests can show that.
#[doc(hidden)]
pub fn with_feed_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let outer = FEED_WORKERS.replace(Some(workers.max(1)));
    let out = f();
    FEED_WORKERS.set(outer);
    out
}

/// One probed block: its stream, or its quarantine.
type Probed = Result<BlockStream, Quarantine>;

/// One probed block of a chunk: its series and its `Finish` totals.
struct BlockStream {
    block_id: u64,
    series: RoundSeries,
    outages: u32,
    total_probes: u64,
}

/// A [`BlockStream`]'s events in emission order: one `Round` per value,
/// then the `Finish`. Dropped — once its last event is taken — it gives its
/// series back to the pass's workers.
struct BlockEvents<'p> {
    block: BlockStream,
    /// The next value to send; `values.len()` sends the `Finish`.
    at: usize,
    /// The run holding `at`.
    run: usize,
    spare: &'p Pool<RoundSeries>,
}

impl Drop for BlockEvents<'_> {
    fn drop(&mut self) {
        let mut series = std::mem::take(&mut self.block.series);
        series.clear();
        self.spare.give(series);
    }
}

impl Iterator for BlockEvents<'_> {
    type Item = RoundEvent;

    fn next(&mut self) -> Option<RoundEvent> {
        let BlockStream { block_id, ref series, outages, total_probes } = self.block;
        let at = self.at;
        if at > series.values.len() {
            return None;
        }
        self.at += 1;
        let Some(&a_short) = series.values.get(at) else {
            return Some(RoundEvent::Finish { block_id, outages, total_probes });
        };
        // Every round was pushed as a `u32`, and a run holds consecutive
        // pushed rounds, so this narrowing is exact.
        let round = series.round_at(at, &mut self.run) as u32;
        Some(RoundEvent::Round { block_id, round, a_short })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.block.series.values.len() + 1).saturating_sub(self.at);
        (left, Some(left))
    }
}

impl ExactSizeIterator for BlockEvents<'_> {}

impl<'a> WorldFeed<'a> {
    /// The feed of every block of `source`. Nothing is probed until it is
    /// sent.
    pub fn new(source: &'a WorldSource, cfg: &'a AnalysisConfig, icfg: &IngestConfig) -> Self {
        WorldFeed::skipping(source, cfg, icfg, &[])
    }

    /// The feed of every block `skip` does not mark: for reading from the
    /// start only.
    pub(crate) fn skipping(
        source: &'a WorldSource,
        cfg: &'a AnalysisConfig,
        icfg: &IngestConfig,
        skip: &'a [bool],
    ) -> Self {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        WorldFeed {
            source,
            cfg,
            interleave_seed: icfg.interleave_seed,
            workers: FEED_WORKERS.get().unwrap_or_else(cores),
            skip,
            seen: Mutex::default(),
        }
    }

    fn seen(&self) -> MutexGuard<'_, Seen> {
        self.seen.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks quarantined by a probing panic in the chunks a pass has
    /// assembled so far: they send no events.
    pub fn quarantined(&self) -> Vec<Quarantine> {
        self.seen().quarantined.clone()
    }

    /// Chunk `c`'s streams in block order, from its probed blocks in block
    /// order, counted in `ingest.feed_chunks`. The first pass to assemble
    /// `c` records its event count and quarantines; every chunk before it
    /// has been recorded already, since a pass starts at a recorded chunk or
    /// the first unrecorded one.
    fn assemble(&self, c: usize, blocks: Vec<(u64, Probed)>) -> Vec<BlockStream> {
        sleepwatch_obs::global().ingest.feed_chunks.incr();
        let mut seen = self.seen();
        let record = c == seen.ends.len();
        debug_assert!(c <= seen.ends.len(), "chunk {c} assembled before the chunks ahead of it");
        let mut end = seen.ends.last().copied().unwrap_or(0);
        let mut streams = Vec::with_capacity(blocks.len());
        for (_, probed) in blocks {
            match probed {
                Ok(stream) => {
                    end += stream.series.values.len() as u64 + 1;
                    streams.push(stream);
                }
                Err(q) if record => seen.quarantined.push(q),
                Err(_) => {}
            }
        }
        if record {
            seen.ends.push(end);
        }
        streams
    }

    /// Probes block `id` through `work` into a series from `spare`;
    /// quarantines it if its probing panics.
    fn probe_block(&self, id: u64, work: &mut ProbeWorkspace, spare: &Pool<RoundSeries>) -> Probed {
        let (cfg, block) = (self.cfg, self.source.generate_block(id));
        quarantine_on_panic(cfg, id, || {
            let (outages, total_probes) = probe_into(&block, cfg, work);
            let mut series = spare.take().unwrap_or_default();
            series.values.reserve_exact(work.records().len());
            for (round, a_short) in record_rounds(work.records()) {
                series.push(round, a_short);
            }
            BlockStream { block_id: id, series, outages, total_probes }
        })
    }

    /// Hands `each` the feed's events from the start of chunk `first` on,
    /// in feed order; stops at the first error `each` returns. Chunk `c` is
    /// the `c`-th run of 256 blocks `skip` does not mark, probed by
    /// [`each_chunk`] on the feed's workers, each through its own workspace,
    /// and interleaved on the calling thread. Only a feed of every block has
    /// its chunks at fixed block ids, so only it may start past chunk 0.
    fn each_event<E>(
        &self,
        first: usize,
        mut each: impl FnMut(RoundEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert!(first == 0 || self.skip.is_empty(), "chunks move with the skip mask");
        let spare = Pool::new();
        let mut works: Vec<_> = (0..=self.workers).map(|_| ProbeWorkspace::default()).collect();
        each_chunk(
            self.source.len(),
            self.skip,
            first,
            &mut works,
            Some(sleepwatch_obs::global().pipeline.stage(Stage::IngestFeedProbe)),
            |work, group, probed| {
                probed.extend(group.iter().map(|&id| (id, self.probe_block(id, work, &spare))));
            },
            |c, probed| {
                // A per-chunk keyed interleave: reproducible for a given
                // seed, different across chunks, adversarial to any order
                // assumption.
                let seed = self.interleave_seed.wrapping_add(c as u64);
                let spare = &spare;
                let streams = self.assemble(c, probed).into_iter();
                let streams = streams.map(|block| BlockEvents { block, at: 0, run: 0, spare });
                Interleave::new(streams, seed).try_for_each(&mut each)
            },
        )
    }

    /// Every event of the feed, in feed order, to `each`.
    pub(crate) fn for_each(&self, mut each: impl FnMut(RoundEvent)) {
        let all = self.each_event(0, |ev| {
            each(ev);
            Ok::<(), Infallible>(())
        });
        all.unwrap_or_else(|never| match never {})
    }
}

impl FeedEvents for WorldFeed<'_> {
    fn runs_from<E>(
        &self,
        from: u64,
        len: usize,
        mut run: impl FnMut(&[RoundEvent]) -> Result<(), E>,
    ) -> Result<u64, E> {
        // The recorded chunk holding event `from`, or the first unrecorded
        // one, and how many events of the pass come before `from`.
        let (chunk, mut into) = {
            let ends = &self.seen().ends;
            let chunk = ends.partition_point(|&end| end <= from);
            (chunk, from - chunk.checked_sub(1).map_or(0, |c| ends[c]))
        };
        let mut batch = Vec::with_capacity(len);
        self.each_event(chunk, |ev| {
            if into > 0 {
                into -= 1;
                return Ok(());
            }
            batch.push(ev);
            if batch.len() == len {
                run(&batch)?;
                batch.clear();
            }
            Ok(())
        })?;
        if !batch.is_empty() {
            run(&batch)?;
        }
        // The pass reached the end, so every chunk is recorded.
        Ok(self.seen().ends.last().copied().unwrap_or(0))
    }
}

/// Materializes the event feed [`crate::ingest_world`] would route — probes
/// every block and chunk-interleaves the streams with
/// `icfg.interleave_seed` — for replay over a transport (the chaos
/// oracle, the throughput bench). Returns the feed and any blocks
/// quarantined by probing panics. This is [`WorldFeed`] collected.
pub fn world_feed(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
) -> (Vec<RoundEvent>, Vec<Quarantine>) {
    let feed = WorldFeed::new(source, cfg, icfg);
    let mut all = Vec::new();
    feed.for_each(|ev| all.push(ev));
    (all, feed.quarantined())
}

/// The run identity a transport session carries for this source and
/// config — what both feed ends must agree on before events move.
pub fn feed_identity(source: &WorldSource, cfg: &AnalysisConfig) -> RunIdentity {
    crate::worldrun::run_identity(source.cfg().seed, source.len(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_simnet::WorldConfig;

    /// A send whose callback panics re-raises the panic once the workers
    /// have joined — including the ones waiting for room — instead of
    /// leaving them, and itself, waiting forever.
    #[test]
    fn a_panicking_send_panics_instead_of_hanging() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let wcfg = WorldConfig { num_blocks: 2_000, seed: 0xBEEF, ..Default::default() };
            let cfg = AnalysisConfig::over_days(wcfg.start_time, 1.25);
            let source = WorldSource::new(wcfg);
            let feed =
                with_feed_workers(4, || WorldFeed::new(&source, &cfg, &IngestConfig::default()));
            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                feed.runs_from(0, 256, |_| -> Result<(), ()> {
                    // Room for the workers to fill the window and wait.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    panic!("the reader died")
                })
            }));
            done.send(sent.is_err()).expect("the test is waiting");
        });
        let panicked = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(panicked, Ok(true), "the send hung or returned instead of panicking");
    }
}
