//! Sharded streaming ingest: live analysis of interleaved probe rounds.
//!
//! The batch pipeline ([`crate::analyze`], [`crate::worldrun`]) assumes a
//! block's whole run is in hand before analysis starts. A live deployment
//! sees the opposite: rounds for millions of blocks arrive *interleaved*,
//! and verdicts must be maintained while the stream is still flowing.
//! This module is that engine:
//!
//! * **Routing.** Every [`RoundEvent`] is routed
//!   `hash(block) → shard` ([`sleepwatch_simnet::shard_of`]) so one
//!   block's stream always lands on one worker, in order. Cross-block
//!   arrival order is irrelevant by construction — the equivalence
//!   proptests feed adversarial interleavings to prove it.
//! * **Backpressure.** Each shard consumes from a bounded queue; a feeder
//!   outrunning the workers blocks instead of buffering unboundedly, so
//!   peak queue memory is `(capacity + batch_events) × 24 B` per shard,
//!   and spent batch buffers recycle through a pool so the feeder
//!   rewrites the same cache-hot lines.
//! * **Self-generated feeds.** A [`WorldFeed`] interleaves 256-block
//!   chunks in order on the calling thread while one worker per core
//!   probes the next chunk's blocks, each held as its lane would hold it
//!   (8 B per round). A feed holds two chunks at any core count, never the
//!   world, and no event depends on the worker count. Counted once, it
//!   sends any suffix a resume asks for by regenerating from the chunk
//!   that holds it: what `sleepwatch feed` serves.
//! * **Lanes.** Each in-flight block ("lane") keeps its `Âs` values in
//!   arrival order plus a run list that is one entry unless rounds broke
//!   sequence (a `RoundSeries`, 8 B per round). Its [`OnlineDetector`] —
//!   the bounded-window monitoring verdict, available mid-stream — reads
//!   its window in place as the tail of those values and defers a verdict
//!   that falls due until the next one, or the lane's finish. Finished
//!   lanes' buffers go back to the shard's free list, so the steady state
//!   opens lanes without allocating.
//! * **Grouped, exact finalization.** A finished block waits in its
//!   shard's group, which flushes when it holds [`MAX_BATCH_LANES`]
//!   blocks, when the shard's queue is empty (rather than sleep on it),
//!   and when the stream ends. A flush settles the lanes' last live
//!   verdicts — one batched transform over the windows that pass the
//!   screen — and then runs the blocks through the world run's batched
//!   phases (`worldrun::run_batch`: clean, batched FFT, classify, geo
//!   join) over the observations the lanes accumulated, in one arena of
//!   the world worker's shape. The final verdict agrees with
//!   [`crate::analyze_block`] exactly: same class, same phase, same
//!   summary, under every fault preset and any shard count. The
//!   world-scale differential oracle in `testkit/tests/ingest_oracle.rs`
//!   pins this.
//! * **Checkpointing.** Completed blocks go through the same checkpoint
//!   policy into the same v2 journal as the batch path
//!   ([`crate::journal`]), in finish order as their group flushes; a
//!   killed ingest resumes by replaying finished blocks and re-streaming
//!   unfinished ones (up to seven finished but not yet flushed per
//!   shard among them), healing to the same verdict set.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sleepwatch_obs::Stage;
use sleepwatch_probing::stream::{record_rounds, Interleave, RoundEvent};
use sleepwatch_probing::transport::FeedEvents;
use sleepwatch_probing::TrinocularProber;
use sleepwatch_simnet::{shard_of, BlockSpec, WorldSource};
use sleepwatch_spectral::{Complex, SpectrumScratch, MAX_BATCH_LANES};

use crate::framing::RunIdentity;

use crate::analyze::{clean_observations_into, AnalysisConfig, ProbedBlock};
use crate::journal::{Checkpoint, JournalError};
use crate::streaming::{OnlineConfig, OnlineDetector};
use crate::worldrun::{
    is_replayed, plan_per_member, quarantine_on_panic, run_batch, BatchArena, Outcome, Quarantine,
    Resume, WorldBlockReport, CHUNK,
};

/// Engine shape: shard count, queue bounds, feed batching.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Worker shards (each owns a queue, a scratch arena and its lanes).
    pub shards: usize,
    /// Bound, in events, of each shard's queue — the backpressure knob
    /// and the peak-memory contract.
    pub queue_capacity: usize,
    /// Events per routed batch (amortizes queue locking).
    pub batch_events: usize,
    /// Seed for the deterministic chunk interleaving of self-generated
    /// feeds ([`ingest_world`]): different seeds exercise different
    /// arrival orders, same seed reproduces the same stream.
    pub interleave_seed: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 4,
            queue_capacity: 8_192,
            batch_events: 512,
            interleave_seed: 0x57A7_F00D,
        }
    }
}

/// Counters an ingest run reports (also mirrored into the global
/// `ingest.*` metrics). Routing and finalization counts are
/// deterministic; stall and high-water figures depend on scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Blocks finalized (journal-replayed blocks included).
    pub blocks: usize,
    /// Blocks replayed from the checkpoint journal instead of streamed.
    pub replayed: usize,
    /// Blocks quarantined by a panic during probing or finalization.
    pub quarantined: usize,
    /// Round events routed to shards.
    pub rounds_routed: u64,
    /// Feeder pushes that had to wait for queue room.
    pub backpressure_stalls: u64,
    /// Highest queued-event count observed on any single shard queue.
    pub queue_high_water: usize,
    /// Durable checkpoints reached (journal sync points).
    pub checkpoints: u64,
    /// Blocks whose *live* detector called strict-diurnal by stream end.
    pub live_strict: u64,
    /// Full FFT classifications the live detectors performed.
    pub live_classifications: u64,
    /// Most blocks open at once on any single shard.
    pub open_lanes: usize,
    /// Most heap bytes the open lanes of any single shard held at once.
    pub lane_bytes: usize,
}

/// What an ingest run produces: batch-identical per-block reports plus
/// run accounting.
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Per-block joined reports in block order — element-for-element what
    /// [`crate::analyze_world`] produces for the same world and config.
    pub reports: Vec<WorldBlockReport>,
    /// Blocks quarantined by a panic, in block order.
    pub quarantined: Vec<Quarantine>,
    /// Blocks whose stream was still open when the feed ended (rounds
    /// seen, no `Finish`): empty for a complete feed, the degraded set
    /// when a transport died past its budget.
    pub open_blocks: Vec<u64>,
    /// Run counters.
    pub stats: IngestStats,
}

/// Bounded MPSC queue of event batches with blocking backpressure.
///
/// Built on `std::sync::{Mutex, Condvar}`: the feeder blocks in
/// [`EventQueue::push`] while the queue is at capacity (counted in
/// events, not batches), and the shard worker blocks in
/// [`EventQueue::pop`] while it is empty and not yet closed. One
/// oversized batch is admitted into an *empty* queue rather than
/// deadlocking, so `batch_events > queue_capacity` degrades to
/// lock-step handoff instead of hanging.
struct EventQueue {
    state: std::sync::Mutex<QueueState>,
    room: std::sync::Condvar,
    ready: std::sync::Condvar,
    capacity: usize,
}

#[derive(Default)]
struct QueueState {
    batches: VecDeque<Vec<RoundEvent>>,
    events: usize,
    closed: bool,
    high_water: usize,
    stalls: u64,
}

impl EventQueue {
    fn new(capacity: usize) -> EventQueue {
        EventQueue {
            state: std::sync::Mutex::new(QueueState::default()),
            room: std::sync::Condvar::new(),
            ready: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, batch: Vec<RoundEvent>) {
        if batch.is_empty() {
            return;
        }
        let mut s = self.state.lock().expect("queue lock");
        if s.events + batch.len() > self.capacity && s.events > 0 {
            s.stalls += 1;
            while s.events + batch.len() > self.capacity && s.events > 0 {
                s = self.room.wait(s).expect("queue lock");
            }
        }
        s.events += batch.len();
        s.high_water = s.high_water.max(s.events);
        s.batches.push_back(batch);
        drop(s);
        self.ready.notify_one();
    }

    /// The next batch if one is queued, without waiting.
    fn try_pop(&self) -> Option<Vec<RoundEvent>> {
        let mut s = self.state.lock().expect("queue lock");
        let batch = s.batches.pop_front()?;
        s.events -= batch.len();
        drop(s);
        self.room.notify_one();
        Some(batch)
    }

    /// The next batch, waiting for one while the queue is open; `None`
    /// once it is closed and drained. A pop that had to wait for its batch
    /// records the wait as one `ingest.queue_wait` sample.
    fn pop(&self) -> Option<Vec<RoundEvent>> {
        let hist = sleepwatch_obs::global().pipeline.stage(Stage::IngestQueueWait);
        let mut waited_since: Option<Option<Instant>> = None;
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(batch) = s.batches.pop_front() {
                s.events -= batch.len();
                drop(s);
                self.room.notify_one();
                if let Some(t0) = waited_since.flatten() {
                    hist.record(t0.elapsed().as_secs_f64() * 1e6);
                }
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            waited_since.get_or_insert_with(|| hist.enabled().then(Instant::now));
            s = self.ready.wait(s).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// `(high_water, stalls)` after the run.
    fn pressure(&self) -> (usize, u64) {
        let s = self.state.lock().expect("queue lock");
        (s.high_water, s.stalls)
    }
}

/// Spent buffers handed back from the thread that used them up to the
/// threads that fill them. Two pools:
///
/// * batch buffers, from shard workers back to the feeder. Without it the
///   feeder allocates a fresh buffer per batch while workers free them, so
///   the feeder writes cold memory for the whole run;
/// * a feed pass's block series, from its reader back to its probing
///   workers. Without it each worker's malloc arena keeps its own high
///   water of the series it filled, above what the pass holds.
///
/// A pool never holds more than was in flight at once (a buffer is either
/// in use or in the pool), so it is bounded by backpressure.
struct Pool<T> {
    stack: parking_lot::Mutex<Vec<T>>,
}

impl<T> Pool<T> {
    fn new() -> Pool<T> {
        Pool { stack: parking_lot::Mutex::new(Vec::new()) }
    }

    /// A spent buffer, if one is waiting.
    fn take(&self) -> Option<T> {
        self.stack.lock().pop()
    }

    /// Hands back a spent buffer, cleared by the caller.
    fn give(&self, spent: T) {
        self.stack.lock().push(spent);
    }
}

/// Routes events into per-shard batch buffers and flushes them to the
/// bounded queues.
struct Router<'a> {
    queues: &'a [EventQueue],
    pool: &'a Pool<Vec<RoundEvent>>,
    buffers: Vec<Vec<RoundEvent>>,
    batch_events: usize,
    rounds_routed: u64,
}

impl<'a> Router<'a> {
    fn new(
        queues: &'a [EventQueue],
        pool: &'a Pool<Vec<RoundEvent>>,
        batch_events: usize,
    ) -> Router<'a> {
        let batch_events = batch_events.max(1);
        Router {
            queues,
            pool,
            buffers: queues.iter().map(|_| Vec::with_capacity(batch_events)).collect(),
            batch_events,
            rounds_routed: 0,
        }
    }

    fn route(&mut self, ev: RoundEvent) {
        if matches!(ev, RoundEvent::Round { .. }) {
            self.rounds_routed += 1;
        }
        // With one shard every block routes to it; skipping the hash
        // keeps the single-shard feeder off the per-event hot path.
        let shard =
            if self.queues.len() == 1 { 0 } else { shard_of(ev.block_id(), self.queues.len()) };
        let buf = &mut self.buffers[shard];
        buf.push(ev);
        if buf.len() >= self.batch_events {
            let empty = self.pool.take().unwrap_or_else(|| Vec::with_capacity(self.batch_events));
            let full = std::mem::replace(buf, empty);
            self.queues[shard].push(full);
        }
    }

    /// Flushes every partial batch and closes the queues.
    fn finish(mut self) -> u64 {
        for (shard, buf) in self.buffers.drain(..).enumerate() {
            self.queues[shard].push(buf);
        }
        for q in self.queues {
            q.close();
        }
        self.rounds_routed
    }
}

/// A block's `Âs` values in arrival order and the rounds they belong to:
/// how an ingest lane holds an open block and a feed chunk a probed one.
///
/// Rounds are kept as runs: `(start, first)` says `values[start..]`, up to
/// the next run, holds rounds `first, first + 1, …`. A run opens only where
/// a round is not its predecessor + 1 (a restart gap, a blackout, a
/// duplicate, a swap), so a series costs 8 B per round plus 16 B per break.
#[derive(Debug, Default)]
struct RoundSeries {
    values: Vec<f64>,
    runs: Vec<(usize, u64)>,
}

impl RoundSeries {
    /// Heap bytes the series' buffers hold.
    fn bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.runs.capacity() * std::mem::size_of::<(usize, u64)>()
    }

    /// Appends one round's value.
    fn push(&mut self, round: u32, value: f64) {
        let round = u64::from(round);
        let next =
            self.runs.last().map(|&(start, first)| first + (self.values.len() - start) as u64);
        if next != Some(round) {
            self.runs.push((self.values.len(), round));
        }
        self.values.push(value);
    }

    fn clear(&mut self) {
        self.values.clear();
        self.runs.clear();
    }

    /// The round of value `at`. `run` is the index of a run at or before
    /// the one holding `at`, and is moved to that run, so a walk in order
    /// reads each run once.
    fn round_at(&self, at: usize, run: &mut usize) -> u64 {
        while self.runs.get(*run + 1).is_some_and(|&(start, _)| start <= at) {
            *run += 1;
        }
        let (start, first) = self.runs[*run];
        first + (at - start) as u64
    }

    /// The `(round, Âs)` pairs in arrival order: what the batch pipeline
    /// collects from the same run.
    fn observations(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let mut run = 0;
        self.values.iter().enumerate().map(move |(at, &value)| (self.round_at(at, &mut run), value))
    }
}

/// One in-flight block on a shard: its series and the live detector, whose
/// window is the tail of the series' values.
struct Lane {
    series: RoundSeries,
    live: OnlineDetector,
}

impl Lane {
    /// Appends one round and feeds the live detector, which settles an
    /// earlier due verdict through `scratch` when a new one falls due;
    /// returns the bytes the lane grew by (0 unless a buffer was full).
    fn push(&mut self, round: u32, a_short: f64, scratch: &mut SpectrumScratch) -> usize {
        let before = self.series.bytes();
        self.series.push(round, a_short);
        self.live.push(&self.series.values, scratch);
        self.series.bytes() - before
    }
}

/// The live detector runs the default monitoring window, clamped to the
/// run length (a window longer than the run would never warm up *and*
/// never needs to).
fn live_config(cfg: &AnalysisConfig) -> OnlineConfig {
    let default = OnlineConfig::default();
    OnlineConfig {
        window_rounds: (cfg.rounds as usize).min(default.window_rounds).max(4),
        ..default
    }
}

/// A block whose `Finish` arrived, waiting for its group to flush: its
/// lane (`None` when no round came before the finish) and its run totals.
struct Finished {
    block_id: u64,
    lane: Option<Lane>,
    outages: u32,
    total_probes: u64,
}

/// Per-shard processing state, shared by the threaded worker and the
/// queue-less direct path so both run byte-identical per-event logic.
struct ShardState<'a> {
    source: &'a WorldSource,
    cfg: &'a AnalysisConfig,
    live_cfg: OnlineConfig,
    lanes: HashMap<u64, Lane>,
    /// Finished blocks not yet flushed, in finish order.
    finished: Vec<Finished>,
    /// The flushing group's specs, aligned with `finished`.
    specs: Vec<BlockSpec>,
    /// Finished lanes' series, cleared, for the next blocks to open.
    spare: Vec<RoundSeries>,
    arena: BatchArena,
    rounds: u64,
    live_strict: u64,
    live_classifications: u64,
    lane_bytes: usize,
    peak_lanes: usize,
    peak_lane_bytes: usize,
}

impl<'a> ShardState<'a> {
    fn new(source: &'a WorldSource, cfg: &'a AnalysisConfig, live_cfg: OnlineConfig) -> Self {
        ShardState {
            source,
            cfg,
            live_cfg,
            lanes: HashMap::new(),
            finished: Vec::with_capacity(MAX_BATCH_LANES),
            specs: Vec::with_capacity(MAX_BATCH_LANES),
            spare: Vec::new(),
            arena: BatchArena::new(),
            rounds: 0,
            live_strict: 0,
            live_classifications: 0,
            lane_bytes: 0,
            peak_lanes: 0,
            peak_lane_bytes: 0,
        }
    }

    /// Applies one event; `emit` receives each finalized block, in finish
    /// order, when its group flushes.
    fn apply(&mut self, ev: RoundEvent, emit: &mut impl FnMut(Outcome)) {
        match ev {
            RoundEvent::Round { block_id, round, a_short } => {
                let open = self.lanes.len();
                let lane = match self.lanes.entry(block_id) {
                    Entry::Occupied(lane) => lane.into_mut(),
                    Entry::Vacant(slot) => {
                        // A finished lane's buffers when there are any,
                        // holding the nominal run length either way, so
                        // no round into the lane reallocates.
                        let mut series = self.spare.pop().unwrap_or_default();
                        series.values.reserve(self.cfg.rounds as usize);
                        let lane = Lane { series, live: OnlineDetector::new(self.live_cfg) };
                        self.lane_bytes += lane.series.bytes();
                        self.peak_lanes = self.peak_lanes.max(open + 1);
                        slot.insert(lane)
                    }
                };
                // Between flushes the arena holds no block, so its first
                // lane's spectrum workspace serves inline live verdicts.
                let live_scratch = self.arena.lanes[0].spectrum_mut();
                self.lane_bytes += lane.push(round, a_short, live_scratch);
                self.peak_lane_bytes = self.peak_lane_bytes.max(self.lane_bytes);
                self.rounds += 1;
            }
            RoundEvent::Finish { block_id, outages, total_probes } => {
                // The lane closes now; its buffers wait with it for the
                // group to flush.
                let lane = self.lanes.remove(&block_id);
                self.lane_bytes -= lane.as_ref().map_or(0, |lane| lane.series.bytes());
                self.finished.push(Finished { block_id, lane, outages, total_probes });
                if self.finished.len() == MAX_BATCH_LANES {
                    self.flush(emit);
                }
            }
        }
    }

    /// Finalizes the finished blocks as one group: settles each lane's due
    /// live verdict (one batched transform over the windows that pass the
    /// screen) and reads the live totals, then runs the blocks through the
    /// world run's batched phases ([`run_batch`]), which emit them in
    /// finish order. The group's wall time, split evenly, is one
    /// `ingest.finalize` sample per report.
    fn flush(&mut self, emit: &mut impl FnMut(Outcome)) {
        let lanes = self.finished.len();
        if lanes == 0 {
            return;
        }
        let hist = sleepwatch_obs::global().pipeline.stage(Stage::IngestFinalize);
        let start = hist.enabled().then(Instant::now);
        self.settle_live();
        let (source, cfg) = (self.source, self.cfg);
        source.generate_into(self.finished.iter().map(|f| f.block_id), &mut self.specs);
        let (finished, specs) = (&self.finished, &self.specs);
        let mut reports = 0usize;
        run_batch(
            lanes,
            |l| &specs[l],
            |l, scratch| {
                let f = &finished[l];
                let observations = f.lane.iter().flat_map(|lane| lane.series.observations());
                let fill_fraction = clean_observations_into(observations, cfg, scratch);
                ProbedBlock { outages: f.outages, total_probes: f.total_probes, fill_fraction }
            },
            source.geodb(),
            cfg,
            &mut self.arena,
            &mut |_, outcome| {
                reports += usize::from(outcome.is_ok());
                emit(outcome);
            },
        );
        if let Some(t0) = start {
            let per_report = t0.elapsed().as_secs_f64() * 1e6 / reports.max(1) as f64;
            for _ in 0..reports {
                hist.record(per_report);
            }
        }
        for lane in self.finished.drain(..).filter_map(|f| f.lane) {
            let mut series = lane.series;
            series.clear();
            self.spare.push(series);
        }
    }

    /// Settles the due live verdicts of the finished lanes — screened one
    /// by one, the windows that pass transformed in one batch into the
    /// arena's spectrum workspaces — and adds the lanes' live verdicts to
    /// the shard's totals.
    fn settle_live(&mut self) {
        let mut windows: [(usize, Range<usize>); MAX_BATCH_LANES] = Default::default();
        let mut passed = 0;
        for (l, f) in self.finished.iter_mut().enumerate() {
            if let Some(lane) = &mut f.lane {
                if let Some(window) = lane.live.screen_due(&lane.series.values) {
                    windows[passed] = (l, window);
                    passed += 1;
                }
            }
        }
        if passed > 0 {
            let len = self.live_cfg.window_rounds;
            let plan = plan_per_member(len, passed);
            let mut ins: [&[f64]; MAX_BATCH_LANES] = [&[]; MAX_BATCH_LANES];
            let mut outs: [&mut [Complex]; MAX_BATCH_LANES] = Default::default();
            for ((k, (l, window)), scratch) in
                windows[..passed].iter().enumerate().zip(&mut self.arena.lanes)
            {
                let lane = self.finished[*l].lane.as_ref().expect("a screened lane");
                let values = &lane.series.values;
                ins[k] = &values[window.clone()];
                outs[k] = scratch.spectrum_mut().prepare_coeffs(len, self.live_cfg.sample_period);
            }
            plan.real_batch_with_scratch(&ins[..passed], &mut outs[..passed], &mut self.arena.fft);
            for ((l, _), scratch) in windows[..passed].iter().zip(&mut self.arena.lanes) {
                let lane = self.finished[*l].lane.as_mut().expect("a screened lane");
                lane.live.classify_due(scratch.spectrum_mut().spectrum());
            }
        }
        for live in self.finished.iter().filter_map(|f| f.lane.as_ref()).map(|lane| &lane.live) {
            self.live_strict += u64::from(live.class().is_strict());
            self.live_classifications += live.classifications();
        }
    }
}

impl IngestOutcome {
    /// Takes one finished block while the engine is still running.
    fn absorb(&mut self, outcome: Outcome) {
        match outcome {
            Ok(report) => self.reports.push(report),
            Err(q) => self.quarantined.push(q),
        }
    }

    /// Folds in a shard whose stream has ended and whose last group has
    /// flushed: the rounds it consumed, its live-detector totals, its lane
    /// peaks, and the lanes still open.
    fn retire(&mut self, state: ShardState<'_>) {
        debug_assert!(state.finished.is_empty(), "retired with a group unflushed");
        self.stats.rounds_routed += state.rounds;
        self.stats.live_strict += state.live_strict;
        self.stats.live_classifications += state.live_classifications;
        self.stats.open_lanes = self.stats.open_lanes.max(state.peak_lanes);
        self.stats.lane_bytes = self.stats.lane_bytes.max(state.peak_lane_bytes);
        self.open_blocks.extend(state.lanes.into_keys());
    }

    /// The sort-and-count tail of every engine: block order everywhere,
    /// block counts taken from what was collected.
    fn assemble(mut self) -> IngestOutcome {
        self.reports.sort_by_key(|r| r.summary.block_id);
        self.quarantined.sort_by_key(|q| q.block_id);
        self.open_blocks.sort_unstable();
        self.stats.blocks = self.reports.len();
        self.stats.quarantined = self.quarantined.len();
        self
    }
}

/// The engine core behind every queued `ingest_*` entry point: spawns
/// one worker per shard, runs `feed` on the calling thread — it routes
/// events, sees the mask of journal-replayed blocks, and reports the
/// blocks it had to quarantine before they produced any — then drains,
/// joins and assembles.
fn run_engine(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    resume: Resume,
    feed: impl FnOnce(&mut Router, &[bool], &mut Vec<Quarantine>),
) -> IngestOutcome {
    let live_cfg = live_config(cfg);
    let queues: Vec<EventQueue> =
        (0..icfg.shards.max(1)).map(|_| EventQueue::new(icfg.queue_capacity)).collect();
    let Resume { checkpoint, skip, replayed } = resume;
    let replayed_count = replayed.len();
    let shared: parking_lot::Mutex<(IngestOutcome, Checkpoint)> = parking_lot::Mutex::new((
        IngestOutcome { reports: replayed, ..Default::default() },
        checkpoint,
    ));

    let mut rounds_routed = 0u64;
    let mut quarantined_at_feed = Vec::new();
    let pool = Pool::new();
    crossbeam::thread::scope(|s| {
        for q in &queues {
            let shared = &shared;
            let pool = &pool;
            s.spawn(move |_| {
                let mut state = ShardState::new(source, cfg, live_cfg);
                let mut done: Vec<Outcome> = Vec::new();
                let publish = |done: &mut Vec<Outcome>| {
                    if !done.is_empty() {
                        let (out, checkpoint) = &mut *shared.lock();
                        for outcome in done.drain(..) {
                            if let Ok(report) = &outcome {
                                checkpoint.record(report);
                            }
                            out.absorb(outcome);
                        }
                    }
                };
                loop {
                    let mut batch = match q.try_pop() {
                        Some(batch) => batch,
                        None => {
                            // Nothing queued: finish the waiting group
                            // rather than sleep on it (at stream end too).
                            state.flush(&mut |outcome| done.push(outcome));
                            publish(&mut done);
                            match q.pop() {
                                Some(batch) => batch,
                                None => break,
                            }
                        }
                    };
                    for &ev in &batch {
                        state.apply(ev, &mut |outcome| done.push(outcome));
                    }
                    batch.clear();
                    pool.give(batch);
                    publish(&mut done);
                }
                shared.lock().0.retire(state);
            });
        }
        let mut router = Router::new(&queues, &pool, icfg.batch_events);
        feed(&mut router, &skip, &mut quarantined_at_feed);
        rounds_routed = router.finish();
    })
    .expect("ingest worker panicked");

    let (mut out, mut checkpoint) = shared.into_inner();
    // Feed-time quarantines (probing panics) join the shard-side ones; a
    // block quarantined there never produced an event for a shard.
    out.quarantined.append(&mut quarantined_at_feed);
    debug_assert_eq!(rounds_routed, out.stats.rounds_routed, "routed and consumed rounds disagree");
    out.stats.replayed = replayed_count;
    out.stats.checkpoints = checkpoint.finish();
    for (high_water, stalls) in queues.iter().map(EventQueue::pressure) {
        out.stats.queue_high_water = out.stats.queue_high_water.max(high_water);
        out.stats.backpressure_stalls += stalls;
    }
    let out = out.assemble();
    let obs = &sleepwatch_obs::global().ingest;
    obs.rounds_routed.add(out.stats.rounds_routed);
    obs.backpressure_stalls.add(out.stats.backpressure_stalls);
    obs.queue_high_water.raise(out.stats.queue_high_water as u64);
    obs.open_lanes.raise(out.stats.open_lanes as u64);
    obs.lane_bytes.raise(out.stats.lane_bytes as u64);
    obs.checkpoints.add(out.stats.checkpoints);
    obs.blocks_finished.add((out.stats.blocks - out.stats.replayed) as u64);
    out
}

/// A world's event feed, generated a chunk at a time: what
/// [`ingest_world`] routes, what [`world_feed`] collects and what
/// `sleepwatch feed` sends.
///
/// Blocks are interleaved 256 at a time — the batch path's chunk — keyed
/// by `interleave_seed + c` for chunk `c`, so a chunk's events are a pure
/// function of the source, the config, the seed and `c`. One worker per
/// core probes the blocks of the chunk after the one being read, each
/// held as its lane would hold it (8 B per round), while the calling
/// thread interleaves the chunks in order. A pass holds two chunks of
/// series at a time at any core count, never the world, and no event
/// depends on which worker probed which block.
///
/// [`WorldFeed::new`] probes the world once to count it: a hello carries
/// the total before the first event, and on a file every frame's CRC
/// chains on the hello. Its workers count events and keep no streams; it
/// keeps only each chunk's cumulative event count. Sending the feed
/// ([`FeedEvents`]) probes the chunks again, and a resume at sequence `s`
/// starts from the chunk that holds `s`, so the probing and quarantine
/// counters, `ingest.feed_chunks` and `stage.ingest.feed_probe` count a
/// chunk once per pass. A send whose callback fails stops the workers;
/// the chunk they were probing ahead of the failed one counts too if it
/// was finished, and its blocks count in the probing counters either way.
pub struct WorldFeed<'a> {
    source: &'a WorldSource,
    cfg: &'a AnalysisConfig,
    interleave_seed: u64,
    workers: usize,
    /// Journal-replayed blocks, left out of the feed (by block id).
    skip: &'a [bool],
    /// `ends[c]`: events in chunks `0..=c`. Empty unless counted.
    ends: Vec<u64>,
    /// Blocks quarantined by a probing panic while counting.
    quarantined: Vec<Quarantine>,
}

/// Chunks a feed pass holds at once, whatever its worker count: the one
/// its reader is interleaving and the one its workers are probing.
const FEED_WINDOW: usize = 2;

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

/// One probed chunk of a [`WorldFeed`]: its blocks' streams (none on a
/// counting pass), its event count, and the blocks whose probing panicked.
#[derive(Default)]
struct Chunk {
    streams: Vec<BlockStream>,
    events: u64,
    quarantined: Vec<Quarantine>,
}

/// One probed block: its stream (`None` on a counting pass) and its event
/// count, or its quarantine.
type Probed = Result<(Option<BlockStream>, u64), Quarantine>;

impl Chunk {
    /// The chunk of `blocks`, in chunk order.
    fn of(blocks: impl IntoIterator<Item = Probed>) -> Chunk {
        let mut chunk = Chunk::default();
        for probed in blocks {
            match probed {
                Ok((stream, events)) => {
                    chunk.events += events;
                    chunk.streams.extend(stream);
                }
                Err(q) => chunk.quarantined.push(q),
            }
        }
        chunk
    }
}

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

impl BlockStream {
    fn events(self, spare: &Pool<RoundSeries>) -> BlockEvents<'_> {
        BlockEvents { block: self, at: 0, run: 0, spare }
    }
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
    /// The feed of every block of `source`, counted: probes the world
    /// once, keeping each chunk's event count and the blocks whose probing
    /// panicked (they send no events).
    pub fn new(source: &'a WorldSource, cfg: &'a AnalysisConfig, icfg: &IngestConfig) -> Self {
        let mut feed = WorldFeed::lazy(source, cfg, icfg, &[]);
        let (mut total, mut ends, mut quarantined) = (0, Vec::new(), Vec::new());
        let counted = feed.each_chunk(0, None, |_, chunk| {
            total += chunk.events;
            ends.push(total);
            quarantined.extend(chunk.quarantined);
            Ok::<(), Infallible>(())
        });
        counted.unwrap_or_else(|never| match never {});
        feed.ends = ends;
        feed.quarantined = quarantined;
        feed
    }

    /// The feed of every block `skip` does not mark, uncounted: for
    /// reading from the start only.
    fn lazy(
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
            ends: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Blocks quarantined by a probing panic: they send no events.
    pub fn quarantined(&self) -> &[Quarantine] {
        &self.quarantined
    }

    /// Probes the chunks from `first` on, on the feed's workers, and hands
    /// each to `read` on the calling thread, in chunk order; stops at the
    /// first error `read` returns and returns it once every worker has
    /// joined. A sending pass passes the pool its reader gives spent series
    /// back to; a counting pass passes none and keeps no streams.
    ///
    /// Chunk `c` is the `c`-th run of 256 blocks `skip` does not mark, so
    /// its blocks are known before any probing. Workers claim blocks, in
    /// feed order, from one counter, and probe a block of chunk `c` only
    /// while `c` is within [`FEED_WINDOW`] of the chunk being read.
    fn each_chunk<E>(
        &self,
        first: usize,
        spare: Option<&Pool<RoundSeries>>,
        mut read: impl FnMut(u64, Chunk) -> Result<(), E>,
    ) -> Result<(), E> {
        let ids = |from: u64| {
            (from..self.source.len() as u64).filter(|&id| !is_replayed(self.skip, id as usize))
        };
        let starts: Vec<u64> = ids(0).step_by(CHUNK).collect();
        if first >= starts.len() {
            return Ok(());
        }
        let blocks = ids(0).count();
        let len_of = |c: usize| (blocks - c * CHUNK).min(CHUNK);
        let pipe = Pipe::new(first);
        let next = AtomicUsize::new(first * CHUNK);
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| {
                    let _stop = StopWhen(&pipe, std::thread::panicking);
                    // The ids of the chunk this worker last probed in.
                    let (mut held, mut chunk_ids) = (usize::MAX, Vec::with_capacity(CHUNK));
                    loop {
                        // Relaxed: the index publishes nothing; blocks
                        // pass through the pipe's mutex.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let (c, at) = (k / CHUNK, k % CHUNK);
                        if k >= blocks || !pipe.wait_for_room(c) {
                            break;
                        }
                        if held != c {
                            chunk_ids.clear();
                            chunk_ids.extend(ids(starts[c]).take(CHUNK));
                            held = c;
                        }
                        let hist = sleepwatch_obs::global().pipeline.stage(Stage::IngestFeedProbe);
                        let start = hist.enabled().then(Instant::now);
                        let probed = self.probe_block(chunk_ids[at], spare);
                        let us = start.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
                        pipe.land(c, at, len_of(c), probed, us);
                    }
                });
            }
            // Stops the workers however the reader leaves: done, failed
            // or unwinding.
            let _stop = StopWhen(&pipe, || true);
            for c in first..starts.len() {
                // `None`: a worker died outside the quarantine boundary;
                // the scope re-raises its panic.
                let Some(chunk) = pipe.take(c, len_of(c)) else { break };
                read(c as u64, chunk)?;
                pipe.advance(c + 1);
            }
            Ok(())
        })
    }

    /// Probes block `id`, counting its events and, on a sending pass,
    /// keeping its stream in a series from `spare`; quarantines it if its
    /// probing panics.
    fn probe_block(&self, id: u64, spare: Option<&Pool<RoundSeries>>) -> Probed {
        let (cfg, block) = (self.cfg, self.source.generate_block(id));
        quarantine_on_panic(cfg, id, || {
            let mut prober = TrinocularProber::new(&block, cfg.trinocular);
            let run = prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults);
            let mut series = spare.map(|spare| spare.take().unwrap_or_default());
            if let Some(series) = &mut series {
                series.values.reserve_exact(run.records.len());
            }
            let mut events = 1; // the `Finish`
            for (round, a_short) in record_rounds(&run.records) {
                events += 1;
                if let Some(series) = &mut series {
                    series.push(round, a_short);
                }
            }
            let (outages, total_probes) = (run.outages.len() as u32, run.total_probes);
            let stream =
                series.map(|series| BlockStream { block_id: id, series, outages, total_probes });
            (stream, events)
        })
    }

    /// Hands `each` the feed's events from the start of chunk `first` on,
    /// in feed order, and returns the blocks quarantined in those chunks;
    /// stops at the first error `each` returns. Only a feed of every block
    /// has its chunks at fixed block ids, so only it may start past chunk 0.
    fn each_event<E>(
        &self,
        first: usize,
        mut each: impl FnMut(RoundEvent) -> Result<(), E>,
    ) -> Result<Vec<Quarantine>, E> {
        debug_assert!(first == 0 || self.skip.is_empty(), "chunks move with the skip mask");
        let mut quarantined = Vec::new();
        let spare = Pool::new();
        self.each_chunk(first, Some(&spare), |c, chunk| {
            quarantined.extend(chunk.quarantined);
            // A per-chunk keyed interleave: reproducible for a given seed,
            // different across chunks, adversarial to any order assumption.
            let seed = self.interleave_seed.wrapping_add(c);
            let streams = chunk.streams.into_iter().map(|block| block.events(&spare));
            Interleave::new(streams, seed).try_for_each(&mut each)
        })?;
        Ok(quarantined)
    }

    /// Every event of the feed, in feed order, to `each`; returns the
    /// blocks quarantined on the way.
    fn for_each(&self, mut each: impl FnMut(RoundEvent)) -> Vec<Quarantine> {
        let all = self.each_event(0, |ev| {
            each(ev);
            Ok::<(), Infallible>(())
        });
        all.unwrap_or_else(|never| match never {})
    }
}

/// The hand-off between a feed pass's workers and its reader: chunk `c`'s
/// blocks land in slot `c % FEED_WINDOW` until the reader takes the whole
/// chunk, and a worker may probe a block of chunk `c` only while
/// `c < reading + FEED_WINDOW`.
struct Pipe {
    state: Mutex<PipeState>,
    /// Signalled when a chunk's last block lands or the pass stops.
    landed: Condvar,
    /// Signalled when the reader moves on or the pass stops.
    moved: Condvar,
}

struct PipeState {
    /// The chunk the reader is on.
    reading: usize,
    slots: [Slot; FEED_WINDOW],
    stop: bool,
}

/// One chunk's blocks as they land, by position in the chunk.
#[derive(Default)]
struct Slot {
    blocks: Vec<Option<Probed>>,
    landed: usize,
    /// Workers' time probing the landed blocks, in µs.
    probe_us: f64,
}

impl Pipe {
    fn new(first: usize) -> Pipe {
        Pipe {
            state: Mutex::new(PipeState { reading: first, slots: Default::default(), stop: false }),
            landed: Condvar::new(),
            moved: Condvar::new(),
        }
    }

    /// The state, even after a holder panicked: every update leaves it
    /// valid before anything that can panic.
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until a block of chunk `c` may be probed; `false` once the
    /// pass stopped.
    fn wait_for_room(&self, c: usize) -> bool {
        let mut s = self.lock();
        while !s.stop && c >= s.reading + FEED_WINDOW {
            s = self.moved.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        !s.stop
    }

    /// Lands block `at` of chunk `c`, which has `len` blocks. The block
    /// that completes the chunk counts it: one `ingest.feed_chunks` and
    /// one `stage.ingest.feed_probe` sample of its blocks' probing time.
    fn land(&self, c: usize, at: usize, len: usize, probed: Probed, us: f64) {
        let mut s = self.lock();
        let slot = &mut s.slots[c % FEED_WINDOW];
        if slot.blocks.len() < len {
            slot.blocks.resize_with(len, || None);
        }
        slot.blocks[at] = Some(probed);
        slot.landed += 1;
        slot.probe_us += us;
        let done = (slot.landed == len).then_some(slot.probe_us);
        drop(s);
        if let Some(us) = done {
            let obs = sleepwatch_obs::global();
            obs.ingest.feed_chunks.incr();
            obs.pipeline.stage(Stage::IngestFeedProbe).record(us);
            self.landed.notify_one();
        }
    }

    /// Chunk `c`, of `len` blocks, once every block landed; `None` if the
    /// pass stops first.
    fn take(&self, c: usize, len: usize) -> Option<Chunk> {
        let mut s = self.lock();
        loop {
            let slot = &mut s.slots[c % FEED_WINDOW];
            if slot.landed == len {
                let full = std::mem::take(slot);
                drop(s);
                return Some(Chunk::of(full.blocks.into_iter().flatten()));
            }
            if s.stop {
                return None;
            }
            s = self.landed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The reader has finished every chunk before `reading`.
    fn advance(&self, reading: usize) {
        self.lock().reading = reading;
        self.moved.notify_all();
    }

    fn stop(&self) {
        self.lock().stop = true;
        self.moved.notify_all();
        self.landed.notify_all();
    }
}

/// Stops a feed pass when dropped while its test holds: the reader's on
/// any exit, so no worker waits for room that will never come, and each
/// worker's on unwinding, so the reader never waits for a block no one
/// will land.
struct StopWhen<'p>(&'p Pipe, fn() -> bool);

impl Drop for StopWhen<'_> {
    fn drop(&mut self) {
        if (self.1)() {
            self.0.stop();
        }
    }
}

impl FeedEvents for WorldFeed<'_> {
    fn total(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    fn runs_from<E>(
        &self,
        from: u64,
        len: usize,
        mut run: impl FnMut(&[RoundEvent]) -> Result<(), E>,
    ) -> Result<(), E> {
        // The chunk holding event `from`, and how far into it `from` is.
        let chunk = self.ends.partition_point(|&end| end <= from);
        let mut into = from - chunk.checked_sub(1).map_or(0, |c| self.ends[c]);
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
        if batch.is_empty() {
            Ok(())
        } else {
            run(&batch)
        }
    }
}

/// Materializes the event feed [`ingest_world`] would route — probes
/// every block and chunk-interleaves the streams with
/// `icfg.interleave_seed` — for replay over a transport (the chaos
/// oracle, the throughput bench). Returns the feed and any blocks
/// quarantined by probing panics. This is [`WorldFeed`] collected, without
/// its counting pass.
pub fn world_feed(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
) -> (Vec<RoundEvent>, Vec<Quarantine>) {
    let mut all = Vec::new();
    let quarantined = WorldFeed::lazy(source, cfg, icfg, &[]).for_each(|ev| all.push(ev));
    (all, quarantined)
}

/// The run identity a transport session carries for this source and
/// config — what both feed ends must agree on before events move.
pub fn feed_identity(source: &WorldSource, cfg: &AnalysisConfig) -> RunIdentity {
    crate::worldrun::run_identity(source.cfg().seed, source.len(), cfg)
}

/// Streams a whole world through the engine: probes every block (faults
/// from `cfg.faults` included), interleaves the streams chunk by chunk,
/// and ingests them across `icfg.shards` workers. The reports are
/// element-for-element identical to [`crate::analyze_world`] on the same
/// world and config.
pub fn ingest_world(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
) -> IngestOutcome {
    ingest_generated(source, cfg, icfg, Resume::default())
}

/// The feeder both `ingest_world*` entry points share: probes and routes
/// every block `resume` has not already replayed.
fn ingest_generated(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    resume: Resume,
) -> IngestOutcome {
    run_engine(source, cfg, icfg, resume, |router, skip, quarantined_at_feed| {
        let feed = WorldFeed::lazy(source, cfg, icfg, skip);
        *quarantined_at_feed = feed.for_each(|ev| router.route(ev));
    })
}

/// [`ingest_world`] with a crash-safe checkpoint journal at `path` —
/// the same v2 journal format and resume semantics as
/// [`crate::analyze_world_resumable`]: finished blocks found in a valid
/// journal prefix are replayed instead of re-streamed; unfinished blocks
/// are streamed from the start. A resumed ingest heals to the same
/// verdict set as an uninterrupted one.
pub fn ingest_world_resumable(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    path: &Path,
) -> Result<IngestOutcome, JournalError> {
    let resume = Resume::open(path, source.cfg().seed, source.len(), cfg)?;
    Ok(ingest_generated(source, cfg, icfg, resume))
}

/// Ingests a caller-supplied event feed — the entry point equivalence
/// tests and benches use to replay *arbitrary* interleavings. Events for
/// one block must arrive in emission order (the transport invariant);
/// everything else is fair game.
pub fn ingest_events(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: impl IntoIterator<Item = RoundEvent>,
) -> IngestOutcome {
    run_engine(source, cfg, icfg, Resume::default(), |router, _, _| {
        for ev in events {
            router.route(ev);
        }
    })
}

/// The queue-less baseline: applies the same per-event logic on the
/// calling thread with no routing, no queues and no locking. This is the
/// "direct per-block push" the throughput bench compares the sharded
/// engine against, and a second differential anchor for the tests
/// (direct ≡ sharded ≡ batch).
pub fn ingest_direct(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    events: impl IntoIterator<Item = RoundEvent>,
) -> IngestOutcome {
    let mut state = ShardState::new(source, cfg, live_config(cfg));
    let mut out = IngestOutcome::default();
    for ev in events {
        state.apply(ev, &mut |outcome| out.absorb(outcome));
    }
    state.flush(&mut |outcome| out.absorb(outcome));
    out.retire(state);
    out.assemble()
}

/// What a transport-fed ingest produced: the engine outcome plus the
/// wire's accounting and — when the feed died — the graceful-degradation
/// report.
#[derive(Debug)]
pub struct TransportOutcome {
    /// The engine outcome. Blocks whose `Finish` arrived are finalized
    /// normally (batch-identical); `outcome.open_blocks` lists the
    /// degraded remainder.
    pub outcome: IngestOutcome,
    /// Transport-side counters (frames, reconnects, corruption,
    /// backoff).
    pub transport: sleepwatch_probing::transport::TransportStats,
    /// The terminal transport error, when the feed ended on one instead
    /// of a clean end-of-stream. Completed work is kept either way: the
    /// caller gets everything that finished plus a typed cause for what
    /// did not.
    pub error: Option<sleepwatch_probing::transport::TransportError>,
}

impl TransportOutcome {
    /// True when the stream ended cleanly with nothing left open.
    pub fn complete(&self) -> bool {
        self.error.is_none() && self.transport.clean_end && self.outcome.open_blocks.is_empty()
    }
}

/// Ingests a feed arriving through any
/// [`EventSource`](sleepwatch_probing::transport::EventSource) — the
/// wire-fed sibling of [`ingest_events`].
///
/// A terminal transport error (budget exhaustion, strict-mode corruption)
/// does not discard completed work: every block whose stream finished is
/// finalized batch-identically, the rest are reported in
/// `outcome.open_blocks`, and the error rides along typed.
pub fn ingest_source(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &mut dyn sleepwatch_probing::transport::EventSource,
) -> TransportOutcome {
    ingest_pulled(source, cfg, icfg, events, Resume::default())
}

/// The pull loop both `ingest_source*` entry points share: routes every
/// event of a block `resume` has not already replayed until the stream
/// ends or fails.
fn ingest_pulled(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &mut dyn sleepwatch_probing::transport::EventSource,
    resume: Resume,
) -> TransportOutcome {
    let mut error = None;
    let outcome = run_engine(source, cfg, icfg, resume, |router, skip, _| loop {
        match events.next_event() {
            Ok(Some(ev)) if is_replayed(skip, ev.block_id() as usize) => {}
            Ok(Some(ev)) => router.route(ev),
            Ok(None) => break,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    });
    TransportOutcome { outcome, transport: events.stats(), error }
}

/// [`ingest_source`] with the crash-safe checkpoint journal: blocks
/// already journaled at `path` are replayed from disk and their wire
/// events dropped on arrival — the client reprocesses nothing it has
/// durable verdicts for, so a kill on either end of the transport heals
/// (the peer re-serves, the resume handshake skips re-sent bytes, and
/// the journal skips re-analysis).
pub fn ingest_source_resumable(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &mut dyn sleepwatch_probing::transport::EventSource,
    path: &Path,
) -> Result<TransportOutcome, JournalError> {
    let resume = Resume::open(path, source.cfg().seed, source.len(), cfg)?;
    Ok(ingest_pulled(source, cfg, icfg, events, resume))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_block;
    use crate::worldrun::analyze_world;
    use sleepwatch_probing::stream::{interleave, replay_run};
    use sleepwatch_probing::FaultPlan;
    use sleepwatch_simnet::WorldConfig;

    fn tiny_source(blocks: usize) -> WorldSource {
        WorldSource::new(WorldConfig {
            num_blocks: blocks,
            seed: 0xBEEF,
            span_days: 4.0,
            ..Default::default()
        })
    }

    fn cfg_for(source: &WorldSource, days: f64, faults: FaultPlan) -> AnalysisConfig {
        AnalysisConfig { faults, ..AnalysisConfig::over_days(source.cfg().start_time, days) }
    }

    /// Engine reports must agree with the batch world run element for
    /// element — the unit-scale version of the world oracle.
    #[test]
    fn streamed_world_matches_batch_analysis() {
        let source = tiny_source(48);
        let cfg = cfg_for(&source, 3.0, FaultPlan::none());
        let world = WorldSource::new(source.cfg().clone()).into_world();
        let batch = analyze_world(&world, &cfg, 2, None);
        for shards in [1usize, 3] {
            let icfg = IngestConfig { shards, ..Default::default() };
            let streamed = ingest_world(&source, &cfg, &icfg);
            assert_eq!(streamed.reports.len(), batch.reports.len(), "{shards} shards");
            for (s, b) in streamed.reports.iter().zip(&batch.reports) {
                assert_eq!(format!("{s:?}"), format!("{b:?}"), "{shards} shards");
            }
            assert_eq!(streamed.stats.blocks, 48);
            assert!(streamed.stats.rounds_routed > 0);
        }
    }

    /// Truncation faults end streams early; the finalized verdict must
    /// still match batch analysis of the same truncated run.
    #[test]
    fn truncated_streams_agree_with_batch() {
        let source = tiny_source(6);
        let plan = FaultPlan { truncate_after: Some(200), ..FaultPlan::none() };
        let cfg = cfg_for(&source, 4.0, plan);
        let streamed = ingest_world(&source, &cfg, &IngestConfig::default());
        for report in &streamed.reports {
            let block = source.generate_block(report.summary.block_id);
            let batch = analyze_block(&block, &cfg);
            assert_eq!(report.summary, batch.summary(), "block {}", block.id);
        }
    }

    /// The direct (queue-less) path and the sharded engine are the same
    /// computation.
    #[test]
    fn direct_and_sharded_agree_on_a_replayed_feed() {
        let source = tiny_source(20);
        let cfg = cfg_for(&source, 2.0, FaultPlan::none());
        let mut streams = Vec::new();
        for id in 0..source.len() as u64 {
            let block = source.generate_block(id);
            let mut prober = TrinocularProber::new(&block, cfg.trinocular);
            let run = prober.run_with_faults(&block, cfg.start_time, cfg.rounds, &cfg.faults);
            streams.push(replay_run(&run));
        }
        let feed = interleave(streams, 99);
        let direct = ingest_direct(&source, &cfg, feed.iter().copied());
        let sharded =
            ingest_events(&source, &cfg, &IngestConfig { shards: 2, ..Default::default() }, feed);
        assert_eq!(direct.reports.len(), sharded.reports.len());
        for (d, s) in direct.reports.iter().zip(&sharded.reports) {
            assert_eq!(format!("{d:?}"), format!("{s:?}"));
        }
        assert_eq!(direct.stats.rounds_routed, sharded.stats.rounds_routed);
    }

    /// A planted panic quarantines one block; the rest of the stream
    /// survives, exactly like the batch path.
    #[test]
    fn planted_panic_quarantines_only_its_block() {
        let source = tiny_source(12);
        let cfg = cfg_for(&source, 2.0, FaultPlan { poison_blocks: &[7], ..FaultPlan::none() });
        let out = ingest_world(&source, &cfg, &IngestConfig { shards: 2, ..Default::default() });
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].block_id, 7);
        assert_eq!(out.reports.len(), 11);
        assert!(out.reports.iter().all(|r| r.summary.block_id != 7));
    }

    /// A send whose callback panics re-raises the panic once the workers
    /// have joined — including the ones waiting for room — instead of
    /// leaving them, and itself, waiting forever.
    #[test]
    fn a_panicking_send_panics_instead_of_hanging() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let source = tiny_source(2_000);
            let cfg = cfg_for(&source, 1.25, FaultPlan::none());
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

    /// Finished blocks flush in groups of eight, when a shard's queue runs
    /// dry and at stream end. With 1, 7, 8 and 9 finishes per shard, and a
    /// poisoned block among them, the poisoned block quarantines alone and
    /// every other block finalizes exactly as the batch run does.
    #[test]
    fn grouped_finalization_matches_batch_at_every_flush_boundary() {
        let source = tiny_source(48);
        let cfg = cfg_for(&source, 2.0, FaultPlan::none());
        let world = WorldSource::new(source.cfg().clone()).into_world();
        let streams: Vec<Vec<RoundEvent>> = world
            .blocks
            .iter()
            .map(|block| {
                let mut prober = TrinocularProber::new(block, cfg.trinocular);
                replay_run(&prober.run_with_faults(block, cfg.start_time, cfg.rounds, &cfg.faults))
            })
            .collect();
        for shards in [1usize, 2] {
            for per_shard in [1usize, 7, 8, 9] {
                let tag = format!("{shards} shards, {per_shard} finishes each");
                let mut picked: Vec<u64> = (0..shards)
                    .flat_map(|k| {
                        let on_k = move |id: &u64| shard_of(*id, shards) == k;
                        (0..world.blocks.len() as u64).filter(on_k).take(per_shard)
                    })
                    .collect();
                picked.sort_unstable();
                assert_eq!(picked.len(), shards * per_shard, "{tag}");
                let poisoned = picked[picked.len() / 2];
                let mut bad = cfg;
                bad.faults.poison_blocks = Box::leak(vec![poisoned].into_boxed_slice());
                let batch = analyze_world(&world, &bad, 2, None);
                let feed =
                    interleave(picked.iter().map(|&id| streams[id as usize].clone()).collect(), 5);
                let icfg = IngestConfig { shards, batch_events: 7, ..Default::default() };
                let sharded = ingest_events(&source, &bad, &icfg, feed.iter().copied());
                let direct = ingest_direct(&source, &bad, feed.iter().copied());
                for out in [direct, sharded] {
                    let quarantined: Vec<u64> =
                        out.quarantined.iter().map(|q| q.block_id).collect();
                    assert_eq!(quarantined, [poisoned], "{tag}");
                    assert_eq!(out.reports.len(), picked.len() - 1, "{tag}");
                    for report in &out.reports {
                        let id = report.summary.block_id;
                        let want = batch.reports.iter().find(|b| b.summary.block_id == id);
                        assert_eq!(format!("{report:?}"), format!("{:?}", want.unwrap()), "{tag}");
                    }
                }
            }
        }
    }

    /// Tiny queues force backpressure; the outcome is unchanged and the
    /// stall/high-water accounting reflects the squeeze.
    #[test]
    fn backpressure_does_not_change_verdicts() {
        let source = tiny_source(16);
        let cfg = cfg_for(&source, 2.0, FaultPlan::none());
        let roomy = ingest_world(&source, &cfg, &IngestConfig::default());
        let squeezed = ingest_world(
            &source,
            &cfg,
            &IngestConfig { queue_capacity: 64, batch_events: 16, ..Default::default() },
        );
        assert!(squeezed.stats.queue_high_water <= 64 + 16, "bound violated");
        assert_eq!(roomy.reports.len(), squeezed.reports.len());
        for (a, b) in roomy.reports.iter().zip(&squeezed.reports) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
