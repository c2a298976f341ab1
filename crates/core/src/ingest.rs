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
//!   proptests feed adversarial interleavings to prove it. A wire-fed
//!   ingest ([`ingest_source`]) pulls its source a frame at a time
//!   (`EventSource::next_run`) and routes the frame's events from the
//!   borrowed slice: one call per frame, not per event.
//! * **Backpressure.** Each shard consumes event batches (4 096 events by
//!   default) from a bounded `std::sync::mpsc::sync_channel` of
//!   `max(1, capacity / batch_events)` batches (8 by default); a feeder
//!   outrunning the workers blocks in `send` instead of buffering
//!   unboundedly, so a shard's queue holds at most
//!   `max(capacity, batch_events) × 24 B` (768 KiB by default). Batches
//!   this large spare a shard a sleep on an empty channel between small
//!   ones, at the price that a trickling feed's partial batch waits for a
//!   full one or the stream's end. Spent batch buffers recycle through a
//!   pool so the feeder rewrites the same cache-hot lines. The feeder
//!   owns the senders: however it leaves — done or unwinding — the
//!   channels close, and the shards drain them and retire.
//! * **Lanes.** Each in-flight block ("lane") keeps its `Âs` values in
//!   arrival order plus a run list that is one entry unless rounds broke
//!   sequence (a `RoundSeries`, 8 B per round). Its [`OnlineDetector`] —
//!   the bounded-window monitoring verdict, available mid-stream — reads
//!   its window in place as the tail of those values and defers a verdict
//!   that falls due until the next one, or the lane's finish. Finished
//!   lanes' buffers go back to the shard's free list, so the steady state
//!   opens lanes without allocating. A shard finds a block's lane in a map
//!   hashed by a splitmix64 finalizer under a secret per-shard key, not
//!   SipHash: one lookup per event, and ids from the wire still cannot be
//!   aimed at one bucket group.
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

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use sleepwatch_obs::Stage;
use sleepwatch_probing::RoundEvent;
use sleepwatch_simnet::{shard_of, BlockSpec, WorldSource};
use sleepwatch_spectral::{Complex, SpectrumScratch, MAX_BATCH_LANES};

use crate::analyze::{AnalysisConfig, ProbedBlock};
use crate::feed::WorldFeed;
use crate::journal::JournalError;
use crate::streaming::{OnlineConfig, OnlineDetector};
use crate::worldrun::{
    is_replayed, plan_per_member, run_batch, BatchArena, Outcome, Quarantine, Resume,
    WorldBlockReport,
};

/// Engine shape: shard count, queue bounds, feed batching.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Worker shards (each owns a queue, a scratch arena and its lanes).
    pub shards: usize,
    /// Bound, in events, of each shard's queue — the backpressure knob
    /// and the peak-memory contract. The queue holds whole batches, so the
    /// bound is `max(1, queue_capacity / batch_events)` batches: rounded
    /// down to a multiple of `batch_events`, and never below one batch.
    pub queue_capacity: usize,
    /// Events per routed batch (amortizes the hand-off to a shard).
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
            queue_capacity: 32_768,
            batch_events: 4_096,
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
    /// Feeder sends that found the queue full and waited for room.
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
pub(crate) struct Pool<T> {
    stack: Mutex<Vec<T>>,
}

impl<T> Pool<T> {
    pub(crate) fn new() -> Pool<T> {
        Pool { stack: Mutex::new(Vec::new()) }
    }

    /// A spent buffer, if one is waiting.
    pub(crate) fn take(&self) -> Option<T> {
        self.stack.lock().unwrap_or_else(PoisonError::into_inner).pop()
    }

    /// Hands back a spent buffer, cleared by the caller.
    pub(crate) fn give(&self, spent: T) {
        self.stack.lock().unwrap_or_else(PoisonError::into_inner).push(spent);
    }
}

/// Routes events into per-shard batch buffers and sends full ones down
/// the shards' bounded channels. It owns the senders, so dropping it —
/// the feed returned or unwound — closes every channel.
struct Router<'a> {
    shards: Vec<SyncSender<Vec<RoundEvent>>>,
    /// Events each shard's channel has accepted.
    sent: &'a [AtomicUsize],
    pool: &'a Pool<Vec<RoundEvent>>,
    buffers: Vec<Vec<RoundEvent>>,
    batch_events: usize,
    rounds_routed: u64,
    batches_sent: u64,
    stalls: u64,
}

impl Router<'_> {
    fn route(&mut self, ev: RoundEvent) {
        if matches!(ev, RoundEvent::Round { .. }) {
            self.rounds_routed += 1;
        }
        let shard = shard_of(ev.block_id(), self.shards.len());
        let buf = &mut self.buffers[shard];
        buf.push(ev);
        if buf.len() >= self.batch_events {
            let empty = self.pool.take().unwrap_or_else(|| Vec::with_capacity(self.batch_events));
            let full = std::mem::replace(buf, empty);
            self.send(shard, full);
        }
    }

    /// Sends `batch` to `shard`, counting a stall when its channel is full.
    /// A shard that died dropped its receiver, so the send fails instead of
    /// waiting, and the scope re-raises the shard's panic when it joins.
    fn send(&mut self, shard: usize, batch: Vec<RoundEvent>) {
        let len = batch.len();
        let accepted = match self.shards[shard].try_send(batch) {
            Ok(()) => true,
            Err(TrySendError::Full(batch)) => {
                self.stalls += 1;
                self.shards[shard].send(batch).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
        if accepted {
            // Relaxed: only the high-water statistic reads it (see the shard).
            self.sent[shard].fetch_add(len, Ordering::Relaxed);
            self.batches_sent += 1;
        }
    }

    /// Sends every partial batch and closes the channels; returns the
    /// rounds routed, the batches sent and the stalls.
    fn finish(mut self) -> (u64, u64, u64) {
        for (shard, buf) in std::mem::take(&mut self.buffers).into_iter().enumerate() {
            if !buf.is_empty() {
                self.send(shard, buf);
            }
        }
        (self.rounds_routed, self.batches_sent, self.stalls)
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
pub(crate) struct RoundSeries {
    pub(crate) values: Vec<f64>,
    runs: Vec<(usize, u64)>,
}

impl RoundSeries {
    /// Heap bytes the series' buffers hold.
    fn bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.runs.capacity() * std::mem::size_of::<(usize, u64)>()
    }

    /// Appends one round's value.
    pub(crate) fn push(&mut self, round: u32, value: f64) {
        let round = u64::from(round);
        let next =
            self.runs.last().map(|&(start, first)| first + (self.values.len() - start) as u64);
        if next != Some(round) {
            self.runs.push((self.values.len(), round));
        }
        self.values.push(value);
    }

    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.runs.clear();
    }

    /// The round of value `at`. `run` is the index of a run at or before
    /// the one holding `at`, and is moved to that run, so a walk in order
    /// reads each run once.
    pub(crate) fn round_at(&self, at: usize, run: &mut usize) -> u64 {
        while self.runs.get(*run + 1).is_some_and(|&(start, _)| start <= at) {
            *run += 1;
        }
        let (start, first) = self.runs[*run];
        first + (at - start) as u64
    }

    /// The `(round, Âs)` pairs in arrival order: what the batch pipeline
    /// reads from the same run's records.
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

/// The lane map's hasher: the splitmix64 finalizer of `block id ^ key`,
/// two multiply-xorshift rounds per lookup in place of SipHash.
/// Block ids come off the wire, so the key is secret, drawn per shard
/// from the standard library's randomly seeded [`RandomState`]: without
/// it a peer cannot pick ids that share a bucket group. Nothing reads the
/// map's order (open lanes are sorted before they are reported).
#[derive(Clone, Copy)]
struct LaneKey(u64);

impl LaneKey {
    fn new() -> Self {
        LaneKey(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for LaneKey {
    type Hasher = LaneHasher;

    fn build_hasher(&self) -> LaneHasher {
        LaneHasher(self.0)
    }
}

/// The running state of one [`LaneKey`] hash.
struct LaneHasher(u64);

impl Hasher for LaneHasher {
    /// Folds any bytes in, eight at a time; the map hashes `u64` ids
    /// through [`write_u64`](Hasher::write_u64) alone.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let mut z = self.0 ^ id;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-shard processing state, shared by the threaded worker and the
/// queue-less direct path so both run byte-identical per-event logic.
struct ShardState<'a> {
    source: &'a WorldSource,
    cfg: &'a AnalysisConfig,
    live_cfg: OnlineConfig,
    lanes: HashMap<u64, Lane, LaneKey>,
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
            lanes: HashMap::with_hasher(LaneKey::new()),
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
            |l, work, batch_lane| {
                let f = &finished[l];
                let pairs = f.lane.iter().flat_map(|lane| lane.series.observations());
                let fill_fraction = work.clean_into(pairs, cfg, batch_lane);
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
/// joins and assembles. A feed that panics closes the channels as it
/// unwinds, so the shards retire and the panic re-raises at the join.
fn run_engine(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    resume: Resume,
    feed: impl FnOnce(&mut Router, &[bool], &mut Vec<Quarantine>),
) -> IngestOutcome {
    let live_cfg = live_config(cfg);
    let batch_events = icfg.batch_events.max(1);
    let bound = (icfg.queue_capacity / batch_events).max(1);
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..icfg.shards.max(1)).map(|_| sync_channel::<Vec<RoundEvent>>(bound)).unzip();
    let sent: Vec<AtomicUsize> = senders.iter().map(|_| AtomicUsize::new(0)).collect();
    let Resume { checkpoint, skip, replayed } = resume;
    let replayed_count = replayed.len();
    let shared =
        Mutex::new((IngestOutcome { reports: replayed, ..Default::default() }, checkpoint));
    // Every update of the shared state completes before anything that can
    // panic, so a poisoned lock is taken as is.
    let lock = || shared.lock().unwrap_or_else(PoisonError::into_inner);

    let mut quarantined_at_feed = Vec::new();
    let pool = Pool::new();
    let (rounds_routed, batches_sent, stalls) = std::thread::scope(|s| {
        for (queue, sent) in receivers.into_iter().zip(&sent) {
            let (lock, pool) = (&lock, &pool);
            s.spawn(move || {
                let pipeline = &sleepwatch_obs::global().pipeline;
                let (wait, apply) =
                    (pipeline.stage(Stage::IngestQueueWait), pipeline.stage(Stage::IngestApply));
                let mut state = ShardState::new(source, cfg, live_cfg);
                let mut done: Vec<Outcome> = Vec::new();
                let publish = |done: &mut Vec<Outcome>| {
                    if !done.is_empty() {
                        let (out, checkpoint) = &mut *lock();
                        for outcome in done.drain(..) {
                            if let Ok(report) = &outcome {
                                checkpoint.record(report);
                            }
                            out.absorb(outcome);
                        }
                    }
                };
                let (mut taken, mut high_water) = (0usize, 0usize);
                loop {
                    // Events in the channel as the shard looks: the feeder
                    // counts a batch once the channel holds it, so this
                    // stays within the channel's bound. The batch taken
                    // was queued too, so the high water is at least it.
                    let queued = sent.load(Ordering::Relaxed).saturating_sub(taken);
                    let mut batch = match queue.try_recv() {
                        Ok(batch) => batch,
                        Err(_) => {
                            // Nothing queued: finish the waiting group
                            // rather than sleep on it (at stream end too).
                            state.flush(&mut |outcome| done.push(outcome));
                            publish(&mut done);
                            let start = wait.enabled().then(Instant::now);
                            // `Err`: every sender is gone and the channel
                            // is drained.
                            let Ok(batch) = queue.recv() else { break };
                            if let Some(t0) = start {
                                wait.record(t0.elapsed().as_secs_f64() * 1e6);
                            }
                            batch
                        }
                    };
                    high_water = high_water.max(queued.max(batch.len()));
                    taken += batch.len();
                    let start = apply.enabled().then(Instant::now);
                    for &ev in &batch {
                        state.apply(ev, &mut |outcome| done.push(outcome));
                    }
                    if let Some(t0) = start {
                        apply.record(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    batch.clear();
                    pool.give(batch);
                    publish(&mut done);
                }
                let (out, _) = &mut *lock();
                out.retire(state);
                out.stats.queue_high_water = out.stats.queue_high_water.max(high_water);
            });
        }
        let mut router = Router {
            buffers: senders.iter().map(|_| Vec::with_capacity(batch_events)).collect(),
            shards: senders,
            sent: &sent,
            pool: &pool,
            batch_events,
            rounds_routed: 0,
            batches_sent: 0,
            stalls: 0,
        };
        feed(&mut router, &skip, &mut quarantined_at_feed);
        router.finish()
    });

    let (mut out, mut checkpoint) = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    // Feed-time quarantines (probing panics) join the shard-side ones; a
    // block quarantined there never produced an event for a shard.
    out.quarantined.append(&mut quarantined_at_feed);
    debug_assert_eq!(rounds_routed, out.stats.rounds_routed, "routed and consumed rounds disagree");
    out.stats.replayed = replayed_count;
    out.stats.checkpoints = checkpoint.finish();
    out.stats.backpressure_stalls = stalls;
    let out = out.assemble();
    let obs = &sleepwatch_obs::global().ingest;
    obs.rounds_routed.add(out.stats.rounds_routed);
    obs.batches_sent.add(batches_sent);
    obs.backpressure_stalls.add(out.stats.backpressure_stalls);
    obs.queue_high_water.raise(out.stats.queue_high_water as u64);
    obs.open_lanes.raise(out.stats.open_lanes as u64);
    obs.lane_bytes.raise(out.stats.lane_bytes as u64);
    obs.checkpoints.add(out.stats.checkpoints);
    obs.blocks_finished.add((out.stats.blocks - out.stats.replayed) as u64);
    out
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
        let feed = WorldFeed::skipping(source, cfg, icfg, skip);
        feed.for_each(|ev| router.route(ev));
        *quarantined_at_feed = feed.quarantined();
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

/// The pull loop both `ingest_source*` entry points share: takes the
/// stream a frame at a time ([`next_run`]) and routes every event of a
/// block `resume` has not already replayed, until the stream ends or
/// fails.
///
/// [`next_run`]: sleepwatch_probing::transport::EventSource::next_run
fn ingest_pulled(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    icfg: &IngestConfig,
    events: &mut dyn sleepwatch_probing::transport::EventSource,
    resume: Resume,
) -> TransportOutcome {
    let mut error = None;
    let outcome = run_engine(source, cfg, icfg, resume, |router, skip, _| loop {
        match events.next_run() {
            Ok([]) => break,
            Ok(run) => {
                for &ev in run {
                    if !is_replayed(skip, ev.block_id() as usize) {
                        router.route(ev);
                    }
                }
            }
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
    use crate::feed::world_feed;
    use crate::worldrun::analyze_world;
    use sleepwatch_probing::transport::IterSource;
    use sleepwatch_probing::{interleave, replay_run, FaultPlan, TrinocularProber};
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

    /// A feed that panics half-way — an event iterator, or a transport
    /// source whose pull panics — closes the shards' channels as it
    /// unwinds: the shards drain and retire, and the panic re-raises at the
    /// join instead of leaving them, and the ingest, waiting forever.
    #[test]
    fn a_panicking_feed_panics_instead_of_hanging() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let source = tiny_source(24);
            let cfg = cfg_for(&source, 1.25, FaultPlan::none());
            let icfg = IngestConfig { shards: 2, ..Default::default() };
            let (feed, _) = world_feed(&source, &cfg, &icfg);
            let half = feed.len() / 2;
            let dying = || {
                feed.iter().enumerate().map(move |(i, &ev)| {
                    assert!(i < half, "the feed died");
                    ev
                })
            };
            let panics = |ingest: &mut dyn FnMut()| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(ingest)).is_err()
            };
            let events = panics(&mut || {
                ingest_events(&source, &cfg, &icfg, dying());
            });
            let pulled = panics(&mut || {
                ingest_source(&source, &cfg, &icfg, &mut IterSource::new(dying()));
            });
            done.send([events, pulled]).expect("the test is waiting");
        });
        let panicked = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(panicked, Ok([true, true]), "an ingest hung or returned instead of panicking");
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

    /// A lane key hashes a block id as the splitmix64 finalizer of
    /// `id ^ key`, keys differ between shards, and bytes of any length
    /// fold in eight at a time.
    #[test]
    fn lane_keys_hash_ids_through_a_keyed_finalizer() {
        let splitmix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (a, b) = (LaneKey::new(), LaneKey::new());
        assert_ne!(a.0, b.0, "two shards drew one key");
        for id in [0u64, 1, 7, 1 << 40, u64::MAX] {
            assert_eq!(a.hash_one(id), splitmix(id ^ a.0), "id {id}");
        }
        let mut h = a.build_hasher();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut want = a.build_hasher();
        want.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        want.write_u64(9);
        assert_eq!(h.finish(), want.finish());
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
