//! World-scale analysis: run the per-block pipeline over every block of a
//! synthetic world in parallel, and join results with geolocation, reverse
//! DNS link classification, allocation dates, and country economics.
//!
//! Paper scale: one chunk pool (`each_chunk`, shared with the
//! self-generated feed) runs the blocks in 256-block chunks, in order,
//! and its threads claim [`MAX_BATCH_LANES`]-block groups, read from a
//! materialized [`World`] or generated lazily from a [`WorldSource`] — the
//! 3.7M-block survey never holds more than O(threads × chunk) outcomes in
//! memory. A group's blocks are probed and cleaned into grow-only arenas,
//! then their same-length cleaned series go through one batched real FFT
//! ([`sleepwatch_spectral::FftPlan::real_batch_with_scratch`]) — bit-identical to
//! the per-series kernel, so every golden and differential suite holds
//! byte-for-byte. Aggregation can likewise stream into a compact
//! [`WorldRunStats`] instead of collecting per-block reports.
//!
//! Resilience: workers run each phase of each block inside the one panic
//! boundary (`quarantine_on_panic`), so one poisoned block is quarantined
//! (recorded in [`WorldAnalysis::quarantined`]) instead of aborting the
//! run, and the `*_resumable` entry points journal every completed block
//! to an append-only checkpoint file ([`crate::journal`]) so a killed
//! process resumes where it stopped with byte-identical output — without
//! regenerating already-journaled blocks. The streaming engine
//! ([`crate::ingest`]) finishes its blocks through the same batched phases
//! (`run_batch`), the same boundary and the same checkpoint policy.

use crate::analyze::{
    classify_probed, count_reuse, probe_clean_into, AnalysisConfig, BatchLane, BlockSummary,
    ProbeWorkspace, ProbedBlock,
};
use crate::journal::{self, Checkpoint, JournalError, JournalHeader};
use sleepwatch_geoecon::{by_code, GeoDatabase, Location, Region, YearMonth, COUNTRIES};
use sleepwatch_linktype::{feature_mask, BlockLabel, LinkSet};
use sleepwatch_obs::{Histogram, Stage, StageTimer};
use sleepwatch_simnet::{BlockSpec, PtrTemplate, World, WorldSource};
use sleepwatch_spectral::{plan_for, BatchRealScratch, Complex, FftPlan, MAX_BATCH_LANES};
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ids per chunk of [`each_chunk`]. Chunk composition is a pure function
/// of the ids left to run, so which thread claims a group never changes
/// what a chunk holds or the order its outputs are read in. Also each
/// thread's per-chunk output capacity, which keeps `world.batch_grows` at
/// zero.
pub(crate) const CHUNK: usize = 256;

/// One block's measurement, joined with every external data source the
/// paper correlates against.
#[derive(Debug, Clone, Copy)]
pub struct WorldBlockReport {
    /// Pipeline outcome.
    pub summary: BlockSummary,
    /// Geolocation (absent for the ~7 % the database cannot place).
    pub location: Option<Location>,
    /// UN-style region of the geolocated country.
    pub region: Option<Region>,
    /// Allocation date of the block's /8 (public registry data).
    pub alloc_date: YearMonth,
    /// Link features inferred from reverse DNS (kept keywords only).
    pub link_features: LinkSet,
    /// Origin AS.
    pub asn: u32,
    /// Ground-truth label carried along *for scoring only* — no aggregation
    /// below reads it.
    pub planted_diurnal: bool,
}

/// A block whose analysis panicked and was quarantined instead of
/// aborting the world run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Id of the poisoned block.
    pub block_id: u64,
    /// The panic message, for postmortem triage.
    pub diagnostic: String,
}

/// Outcome of one block's trip through an engine: its report, or — when
/// the pipeline panicked — the quarantine that excludes it from every
/// aggregation and reports it explicitly.
pub(crate) type Outcome = Result<WorldBlockReport, Quarantine>;

/// The analyzed world.
#[derive(Debug)]
pub struct WorldAnalysis {
    /// Per-block joined reports, in block order (quarantined blocks are
    /// absent — aggregations skip them by construction).
    pub reports: Vec<WorldBlockReport>,
    /// Blocks whose analysis panicked, in block order. Empty on healthy
    /// runs; deterministic across thread counts and schedules.
    pub quarantined: Vec<Quarantine>,
}

/// Streaming aggregate of a world run — everything the paper-scale survey
/// reports, in O(1) memory per run instead of O(blocks).
///
/// Produced by [`analyze_world_stats`]; `WorldAnalysis::stats` computes
/// the identical value from collected reports (the equivalence is a unit
/// test), so summary-level results never depend on which sink ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldRunStats {
    /// Blocks analyzed (quarantined blocks excluded).
    pub blocks: usize,
    /// Strictly diurnal blocks.
    pub strict: usize,
    /// Strict-or-relaxed diurnal blocks.
    pub diurnal: usize,
    /// Blocks passing the §2.2 stationarity screen.
    pub stationary: usize,
    /// Blocks the geolocation database could place.
    pub located: usize,
    /// Planted diurnal, detected strict.
    pub true_pos: usize,
    /// Not planted, detected strict.
    pub false_pos: usize,
    /// Planted, not detected strict.
    pub false_neg: usize,
    /// Not planted, not detected strict.
    pub true_neg: usize,
    /// Total detected outages across all blocks.
    pub outages: u64,
    /// Total probes spent across all blocks.
    pub total_probes: u64,
    /// Blocks whose analysis panicked, sorted by block id.
    pub quarantined: Vec<Quarantine>,
}

impl WorldRunStats {
    /// Folds one completed block report into the aggregate.
    pub(crate) fn absorb_report(&mut self, r: &WorldBlockReport) {
        self.blocks += 1;
        if r.summary.class.is_strict() {
            self.strict += 1;
        }
        if r.summary.class.is_diurnal() {
            self.diurnal += 1;
        }
        if r.summary.stationary {
            self.stationary += 1;
        }
        if r.location.is_some() {
            self.located += 1;
        }
        match (r.planted_diurnal, r.summary.class.is_strict()) {
            (true, true) => self.true_pos += 1,
            (false, true) => self.false_pos += 1,
            (true, false) => self.false_neg += 1,
            (false, false) => self.true_neg += 1,
        }
        self.outages += r.summary.outages as u64;
        self.total_probes += r.summary.total_probes;
    }

    /// Count and fraction of strictly diurnal blocks.
    pub fn strict_fraction(&self) -> (usize, f64) {
        (self.strict, self.strict as f64 / self.blocks.max(1) as f64)
    }

    /// Count and fraction of strict-or-relaxed diurnal blocks.
    pub(crate) fn diurnal_fraction(&self) -> (usize, f64) {
        (self.diurnal, self.diurnal as f64 / self.blocks.max(1) as f64)
    }

    /// Fraction of blocks passing the stationarity screen.
    pub(crate) fn stationary_fraction(&self) -> f64 {
        self.stationary as f64 / self.blocks.max(1) as f64
    }

    /// Detection quality against the planted labels:
    /// `(true_pos, false_pos, false_neg, true_neg)` using the strict class.
    pub(crate) fn confusion_vs_planted(&self) -> (usize, usize, usize, usize) {
        (self.true_pos, self.false_pos, self.false_neg, self.true_neg)
    }
}

/// Test-only failure injection: panics when `block_id` is one of the
/// run's planted `poison_blocks`. The list travels inside the run's own
/// [`AnalysisConfig`], so concurrent runs never see each other's plants;
/// outside tests it is empty and this is one length check.
fn fire_poison(cfg: &AnalysisConfig, block_id: u64) {
    if cfg.faults.poison_blocks.contains(&block_id) {
        panic!("planted panic for block {block_id}");
    }
}

/// Where a run's blocks come from: a materialized world, or a lazy
/// seed-keyed source that synthesizes each claimed group on demand.
#[derive(Clone, Copy)]
enum Feed<'a> {
    World(&'a World),
    Source(&'a WorldSource),
}

impl<'a> Feed<'a> {
    fn len(&self) -> usize {
        match self {
            Feed::World(w) => w.blocks.len(),
            Feed::Source(s) => s.len(),
        }
    }

    fn geodb(&self) -> &'a GeoDatabase {
        match self {
            Feed::World(w) => &w.geodb,
            Feed::Source(s) => s.geodb(),
        }
    }
}

/// Where outcomes go, in block order from the calling thread: per-block
/// collection into a [`WorldAnalysis`] or a streaming fold into
/// [`WorldRunStats`].
trait Sink {
    /// An empty sink for a world of `n` blocks.
    fn empty(n: usize) -> Self;
    /// Takes one block's outcome.
    fn put(&mut self, outcome: Outcome);
    /// Sorts what came in by block id once every block is in.
    fn finish(self) -> Self;
}

impl Sink for WorldAnalysis {
    fn empty(n: usize) -> Self {
        WorldAnalysis { reports: Vec::with_capacity(n), quarantined: Vec::new() }
    }

    fn put(&mut self, outcome: Outcome) {
        match outcome {
            Ok(r) => self.reports.push(r),
            Err(q) => self.quarantined.push(q),
        }
    }

    fn finish(mut self) -> WorldAnalysis {
        // Replayed reports come first, then the run's in block order.
        self.reports.sort_unstable_by_key(|r| r.summary.block_id);
        self.quarantined.sort_unstable_by_key(|q| q.block_id);
        self
    }
}

impl Sink for WorldRunStats {
    fn empty(_n: usize) -> Self {
        WorldRunStats::default()
    }

    fn put(&mut self, outcome: Outcome) {
        match outcome {
            Ok(r) => self.absorb_report(&r),
            Err(q) => self.quarantined.push(q),
        }
    }

    fn finish(mut self) -> WorldRunStats {
        self.quarantined.sort_by_key(|q| q.block_id);
        self
    }
}

/// The reverse-DNS link label of one block (§2.3.3), from its
/// [`PtrTemplate`] instead of its 256 rendered names. Every name of a
/// block is the template's head, the octet's digits and its tail, and no
/// keyword holds a digit, so every name has the one mask of head and
/// tail, counted once per named address. Equal to
/// [`sleepwatch_linktype::classify_block`] over the block's
/// [`ptr_name`](sleepwatch_simnet::ptr_name)s, which the tests hold it to.
pub fn block_label(block: &BlockSpec) -> BlockLabel {
    let mut label = BlockLabel::default();
    if let Some(template) = PtrTemplate::of(block) {
        let mask = feature_mask(template.head()) | feature_mask(template.tail());
        label.add_names(template.named_addresses(), mask);
    }
    label.finish()
}

/// Geo/reverse-DNS/registry join for one completed summary — the
/// world-independent second half of the per-block pipeline, timed as
/// [`Stage::Label`]. The link label is [`block_label`]: constant work per
/// block and no allocation.
pub(crate) fn join_block(
    geodb: &GeoDatabase,
    block: &BlockSpec,
    summary: BlockSummary,
) -> WorldBlockReport {
    let _t = StageTimer::start(sleepwatch_obs::global().pipeline.stage(Stage::Label));
    let country = &COUNTRIES[block.country_idx];
    let location = geodb.locate(block.id, country, block.lon, block.lat);
    // Lookup-or-`None`: an out-of-table country code degrades this one
    // block to region-less instead of panicking a worker.
    let region = location.and_then(|l| match by_code(l.country) {
        Some(c) => Some(c.region),
        None => {
            sleepwatch_obs::global().geo.unknown_countries.incr();
            None
        }
    });
    WorldBlockReport {
        summary,
        location,
        region,
        alloc_date: block.alloc_date,
        link_features: block_label(block).features.kept(),
        asn: block.asn,
        planted_diurnal: block.planted_diurnal,
    }
}

/// The finishing tail of a batch lane whose cleaned series and spectrum
/// sit in `lane`: classify (with the fill-fraction veto), summarize, and
/// join with the external data sources.
fn finish_block(
    geodb: &GeoDatabase,
    block: &BlockSpec,
    cfg: &AnalysisConfig,
    lane: &BatchLane,
    probed: ProbedBlock,
) -> WorldBlockReport {
    let (summary, _diurnal, _trend) = classify_probed(block, cfg, lane, probed);
    join_block(geodb, block, summary)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one panic boundary: runs `work` for block `block_id` and turns a
/// panic into that block's [`Quarantine`] (counted in
/// `resilience.blocks_quarantined`, the payload's message kept for
/// triage) instead of unwinding into the engine. A caller whose arena
/// `work` may have left half-written decides itself whether to replace it.
/// Planted panics ([`fire_poison`]) go off here, at the first boundary
/// their block enters.
pub(crate) fn quarantine_on_panic<T>(
    cfg: &AnalysisConfig,
    block_id: u64,
    work: impl FnOnce() -> T,
) -> Result<T, Quarantine> {
    catch_unwind(AssertUnwindSafe(|| {
        fire_poison(cfg, block_id);
        work()
    }))
    .map_err(|payload| {
        sleepwatch_obs::global().resilience.blocks_quarantined.incr();
        Quarantine { block_id, diagnostic: panic_message(payload) }
    })
}

/// The one schedule behind the world run and the self-generated feed.
///
/// The ids of `0..n` that `skip` does not mark go in chunks of [`CHUNK`],
/// in order, from chunk `first` on. Each chunk is one
/// `std::thread::scope`: one spawned thread per state after the first, and
/// the calling thread on the first, claim [`MAX_BATCH_LANES`]-id groups
/// from a chunk-local counter and `work` each group on their own state,
/// which lives across chunks, pushing `(id, output)` pairs. Inside chunk
/// `c`'s scope the calling thread first hands chunk `c − 1`'s outputs,
/// sorted by id, to `read`, then claims groups beside the workers. So at
/// most two chunks of outputs are held at once, and what `read` sees does
/// not depend on the thread count. Each chunk that runs to its end records
/// the summed time of its groups in `timer`, when one is given, and its
/// tail in [`Stage::ChunkTail`]: for each thread, how long before the last
/// of them it found no group left to claim, summed.
///
/// A failed `read` moves the counter past the chunk's end, so every thread
/// stops at its next claim; the cut chunk is dropped and the error returned
/// once all have joined. A panic re-raises at the chunk's join. `states`
/// must not be empty.
pub(crate) fn each_chunk<S: Send, T: Send, E>(
    n: usize,
    skip: &[bool],
    first: usize,
    states: &mut [S],
    timer: Option<&Histogram>,
    work: impl Fn(&mut S, &[u64], &mut Vec<(u64, T)>) + Sync,
    mut read: impl FnMut(usize, Vec<(u64, T)>) -> Result<(), E>,
) -> Result<(), E> {
    let timed = timer.is_some_and(Histogram::enabled);
    let tail = sleepwatch_obs::global().pipeline.stage(Stage::ChunkTail);
    let states_len = states.len();
    let (mine, theirs) = states.split_at_mut(1);
    let mut ids = (0..n as u64).filter(|&id| !is_replayed(skip, id as usize)).skip(first * CHUNK);
    // The chunk before `c`, run and waiting to be read.
    let mut ready = None;
    for c in first.. {
        let chunk: Vec<u64> = ids.by_ref().take(CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        let next = AtomicUsize::new(0);
        let opened = tail.enabled().then(Instant::now);
        // µs from the chunk's start to when a thread found no group left.
        let idle_from = || opened.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
        let claim = &|state: &mut S| {
            let (mut out, mut us) = (Vec::with_capacity(CHUNK), 0.0);
            // Relaxed: the index publishes nothing; outputs come back
            // through the join.
            while let Some(group) =
                chunk.chunks(MAX_BATCH_LANES).nth(next.fetch_add(1, Ordering::Relaxed))
            {
                let start = timed.then(Instant::now);
                work(state, group, &mut out);
                us += start.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
            }
            (out, us, idle_from())
        };
        let (mut outs, us, idle) = std::thread::scope(|s| {
            let workers: Vec<_> =
                theirs.iter_mut().map(|state| s.spawn(move || claim(state))).collect();
            let done = ready.take().map_or(Ok(()), |(c, outs)| read(c, outs));
            if done.is_err() {
                next.store(chunk.len(), Ordering::Relaxed);
            }
            let (mut outs, mut us, idle_at) = claim(&mut mine[0]);
            // Σ (last − idle_at) over threads = threads · last − Σ idle_at.
            let (mut last, mut idle_sum) = (idle_at, idle_at);
            for worker in workers {
                let (theirs, their_us, idle_at) =
                    worker.join().unwrap_or_else(|panic| resume_unwind(panic));
                outs.extend(theirs);
                us += their_us;
                last = last.max(idle_at);
                idle_sum += idle_at;
            }
            let idle = (states_len as f64 * last - idle_sum).max(0.0);
            done.map(|()| (outs, us, idle))
        })?;
        outs.sort_unstable_by_key(|&(id, _)| id);
        if let Some(timer) = timer {
            timer.record(us);
        }
        if opened.is_some() {
            tail.record(idle);
        }
        ready = Some((c, outs));
    }
    ready.map_or(Ok(()), |(c, outs)| read(c, outs))
}

/// Shared driver behind every `analyze_world*` entry point: feed × sink ×
/// where the run resumes from. [`each_chunk`] runs the blocks `resume`
/// did not replay (for lazy sources it generates nothing else) on
/// `threads` threads, the calling one included, and the calling thread
/// journals and sinks each chunk's outcomes in block order. Output depends
/// only on the blocks and config — not on feed kind, sink kind, thread
/// count, schedule, journal presence, or how much was replayed.
fn run_world<S: Sink>(
    feed: Feed<'_>,
    cfg: &AnalysisConfig,
    threads: usize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
    resume: Resume,
) -> S {
    let obs = sleepwatch_obs::global();
    let _total_timer = StageTimer::start(obs.pipeline.stage(Stage::Total));
    let n = feed.len();
    let Resume { mut checkpoint, skip, replayed } = resume;
    let base = replayed.len();
    let mut sink = S::empty(n);
    for report in replayed {
        sink.put(Ok(report));
    }
    obs.world.runs.incr();
    obs.world.blocks_total.add(n as u64);
    obs.world.max_world_blocks.raise(n as u64);
    // Pre-warm the FFT plan for the nominal series length so workers start
    // from a populated cache instead of racing to plan it. Cleaning's
    // midnight trim can shorten some series; those lengths are planned once
    // on first use through the same cache. (`prewarm`, not `plan_for`:
    // warmup is not a caller-visible lookup and must not skew the
    // hit/miss-vs-transform accounting.)
    sleepwatch_spectral::prewarm(cfg.rounds as usize);
    // Progress is strictly intermediate until the final (n, n) below, so a
    // fully replayed run goes straight to it.
    let report_progress = |done: usize| {
        if let Some(cb) = progress.filter(|_| 0 < done && done < n) {
            cb(done, n);
        }
    };
    // A resumed run starts its progress at what it replayed.
    report_progress(base);
    let geodb = feed.geodb();
    // Per thread: its batch arena, its group's generated specs (lazy feeds
    // only) and its block count. All grow-only — after warm-up a group
    // runs without allocating.
    let mut workers: Vec<_> =
        (0..threads.max(1)).map(|_| (BatchArena::new(), Vec::new(), 0u64)).collect();
    let mut done = base;
    let started = Instant::now();
    let run = each_chunk(
        n,
        &skip,
        0,
        &mut workers,
        None,
        |(arena, specs, blocks), group, out| {
            if let Feed::Source(src) = feed {
                src.generate_into(group.iter().copied(), specs);
            }
            let block = |l: usize| match feed {
                Feed::World(w) => &w.blocks[group[l] as usize],
                Feed::Source(_) => &specs[l],
            };
            let fill = |l, work: &mut _, lane: &mut _| probe_clean_into(block(l), cfg, work, lane);
            run_batch(group.len(), block, fill, geodb, cfg, arena, &mut |l, outcome| {
                if out.len() == out.capacity() {
                    obs.world.batch_grows.incr();
                }
                out.push((group[l], outcome));
            });
            *blocks += group.len() as u64;
        },
        |_, outcomes| {
            if let Feed::Source(_) = feed {
                obs.world.source_chunks.incr();
            }
            done += outcomes.len();
            for (_, outcome) in outcomes {
                if let Ok(report) = &outcome {
                    checkpoint.record(report);
                }
                sink.put(outcome);
            }
            report_progress(done);
            Ok::<(), Infallible>(())
        },
    );
    run.unwrap_or_else(|never| match never {});
    for (worker, (arena, specs, blocks)) in workers.iter().enumerate() {
        obs.world.worker_blocks.add(worker, *blocks);
        let held = arena.footprint_bytes() + specs.capacity() * std::mem::size_of::<BlockSpec>();
        obs.world.peak_block_bytes.raise(held as u64);
    }

    let analyzed = n - base;
    let secs = started.elapsed().as_secs_f64();
    if analyzed > 0 && secs > 0.0 {
        obs.world.blocks_per_sec.raise((analyzed as f64 / secs) as u64);
    }
    let out = {
        let _t = StageTimer::start(obs.pipeline.stage(Stage::Join));
        sink.finish()
    };
    checkpoint.finish();
    if let Some(cb) = progress {
        cb(n, n);
    }
    out
}

/// The arena a batch runs in: one probe workspace, [`MAX_BATCH_LANES`]
/// lanes and the lane-interleaved FFT workspace. The lanes are filled one
/// after another, so one workspace probes and cleans them all; a lane
/// keeps only what crosses the batched FFT, its cleaned series and its
/// spectrum. Grow-only; after warm-up a batch runs without allocating. A
/// world worker and an ingest shard each own one.
pub(crate) struct BatchArena {
    pub(crate) work: ProbeWorkspace,
    pub(crate) lanes: [BatchLane; MAX_BATCH_LANES],
    pub(crate) fft: BatchRealScratch,
}

impl BatchArena {
    pub(crate) fn new() -> BatchArena {
        BatchArena {
            work: ProbeWorkspace::default(),
            lanes: Default::default(),
            fft: BatchRealScratch::new(),
        }
    }

    /// Bytes reserved across every buffer, capacity not length.
    fn footprint_bytes(&self) -> usize {
        self.work.footprint_bytes()
            + self.lanes.iter().map(BatchLane::footprint_bytes).sum::<usize>()
            + self.fft.footprint_bytes()
    }

    /// Fills the probe workspace and every lane with garbage that a
    /// correct batch must overwrite or ignore.
    #[cfg(test)]
    fn poison(&mut self, seed: u64) {
        self.work.poison(seed);
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            lane.poison(seed ^ l as u64);
        }
    }
}

/// Finishes up to [`MAX_BATCH_LANES`] blocks together, the one way both
/// engines turn blocks into reports:
///
/// 1. `fill` leaves lane `l`'s cleaned series in the lane, working in the
///    arena's one probe workspace — the world run probes `block_of(l)`, an
///    ingest shard writes the observations it streamed for it;
/// 2. surviving lanes are grouped by cleaned length and each group takes
///    one batched real FFT (bit-identical to the scalar kernel);
/// 3. each lane is classified and joined, and `emit` receives it in lane
///    order.
///
/// Every phase runs each block inside [`quarantine_on_panic`], and a
/// batch transform that panics is redone lane by lane through the scalar
/// kernel, so one poisoned block quarantines alone, never its batch-mates.
pub(crate) fn run_batch<'b>(
    lanes: usize,
    block_of: impl Fn(usize) -> &'b BlockSpec,
    mut fill: impl FnMut(usize, &mut ProbeWorkspace, &mut BatchLane) -> ProbedBlock,
    geodb: &GeoDatabase,
    cfg: &AnalysisConfig,
    arena: &mut BatchArena,
    emit: &mut dyn FnMut(usize, Outcome),
) {
    let obs = sleepwatch_obs::global();
    let track = obs.pipeline.scratch_reuses.enabled();
    let BatchArena { work, lanes: scratches, fft } = arena;
    let mut probed: [Option<ProbedBlock>; MAX_BATCH_LANES] = [None; MAX_BATCH_LANES];
    let mut quarantined: [Option<Quarantine>; MAX_BATCH_LANES] = Default::default();
    // Per lane: its footprint before its block, and whether the workspace
    // grew while it filled the lane.
    let mut fp_before = [0usize; MAX_BATCH_LANES];
    let mut work_grew = [false; MAX_BATCH_LANES];

    // Phase 1: fill each lane with its block's cleaned series.
    for l in 0..lanes {
        let work_before = track.then(|| work.footprint_bytes());
        if track {
            fp_before[l] = scratches[l].footprint_bytes();
        }
        let scr = &mut scratches[l];
        match quarantine_on_panic(cfg, block_of(l).id, || fill(l, work, scr)) {
            Ok(p) => probed[l] = Some(p),
            Err(q) => quarantined[l] = Some(q),
        }
        work_grew[l] = work_before.is_some_and(|before| work.footprint_bytes() > before);
    }

    // Phase 2: group surviving lanes by cleaned-series length (fixed stack
    // tables — lanes ≤ MAX_BATCH_LANES) and FFT each group in one batched
    // pass.
    let mut glen = [0usize; MAX_BATCH_LANES];
    let mut gmem = [[0usize; MAX_BATCH_LANES]; MAX_BATCH_LANES];
    let mut gcnt = [0usize; MAX_BATCH_LANES];
    let mut ngroups = 0usize;
    for l in 0..lanes {
        if probed[l].is_none() {
            continue;
        }
        let len = scratches[l].series_len();
        let gi = match (0..ngroups).find(|&g| glen[g] == len) {
            Some(g) => g,
            None => {
                glen[ngroups] = len;
                ngroups += 1;
                ngroups - 1
            }
        };
        gmem[gi][gcnt[gi]] = l;
        gcnt[gi] += 1;
    }
    for g in 0..ngroups {
        let len = glen[g];
        let members = &gmem[g][..gcnt[g]];
        let plan = plan_per_member(len, members.len());
        let hist = obs.pipeline.stage(Stage::Fft);
        let timed = hist.enabled();
        let start = timed.then(std::time::Instant::now);
        let batch_ok = catch_unwind(AssertUnwindSafe(|| {
            // Fixed lane tables (members are ascending and unique), so a
            // group allocates nothing.
            let mut ins: [&[f64]; MAX_BATCH_LANES] = [&[]; MAX_BATCH_LANES];
            let mut outs: [&mut [Complex]; MAX_BATCH_LANES] = Default::default();
            let lanes_mut = scratches.iter_mut().enumerate().filter(|(l, _)| members.contains(l));
            for (k, (_, scr)) in lanes_mut.enumerate() {
                let (series, spec) = scr.series_and_spectrum();
                ins[k] = series;
                outs[k] = spec.prepare_coeffs(len, sleepwatch_spectral::ROUND_SECONDS);
            }
            let k = members.len();
            plan.real_batch_with_scratch(&ins[..k], &mut outs[..k], fft);
        }))
        .is_ok();
        if !batch_ok {
            // A poisoned lane must not sink its batch-mates: redo each lane
            // through the scalar kernel with its own quarantine boundary.
            // (The batch kernel validates before recording telemetry, so
            // the scalar redo keeps the lookup/transform ledger aligned up
            // to the quarantined lanes.)
            for &l in members {
                let scr = &mut scratches[l];
                if let Err(q) = quarantine_on_panic(cfg, block_of(l).id, || {
                    let (series, spec) = scr.series_and_spectrum();
                    spec.compute_with_plan(series, sleepwatch_spectral::ROUND_SECONDS, &plan);
                }) {
                    probed[l] = None;
                    quarantined[l] = Some(q);
                }
            }
        }
        if let Some(t0) = start {
            // The group's wall time split evenly keeps the per-block stage
            // histogram at one sample per block.
            let per_member = t0.elapsed().as_secs_f64() * 1e6 / members.len() as f64;
            for _ in members {
                hist.record(per_member);
            }
        }
    }

    // Phase 3: classify and join each lane, in lane order.
    for l in 0..lanes {
        if let Some(q) = quarantined[l].take() {
            emit(l, Err(q));
            continue;
        }
        let block = block_of(l);
        let p = probed[l].expect("lane survived phases 1–2");
        let outcome = quarantine_on_panic(cfg, block.id, || {
            finish_block(geodb, block, cfg, &scratches[l], p)
        });
        if track && outcome.is_ok() {
            count_reuse(work_grew[l] || scratches[l].footprint_bytes() > fp_before[l]);
        }
        emit(l, outcome);
    }
}

/// The plan for `len`, looked up once per batch member: the batched
/// kernel records one transform per lane, and the metrics suite pins
/// `plan_cache.hits + misses == fft.transforms`.
pub(crate) fn plan_per_member(len: usize, members: usize) -> Arc<FftPlan> {
    let mut plan = plan_for(len);
    for _ in 1..members {
        plan = plan_for(len);
    }
    plan
}

/// Analyzes every block of `world` with `cfg`, using `threads` worker
/// threads (1 = sequential). An optional `progress` callback receives the
/// number of completed blocks at coarse intervals.
///
/// Progress contract: the calling thread reports `done < n` after each
/// 256-block chunk, and after the last one exactly one final `(n, n)` —
/// guaranteed to be the last call, even for empty worlds.
pub fn analyze_world(
    world: &World,
    cfg: &AnalysisConfig,
    threads: usize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> WorldAnalysis {
    run_world::<WorldAnalysis>(Feed::World(world), cfg, threads, progress, Resume::default())
}

/// [`analyze_world`] over a lazy [`WorldSource`]: blocks are synthesized
/// eight at a time as threads claim them, so the run never holds the
/// whole world's specs. Byte-identical
/// to materializing the source and calling [`analyze_world`] (the source
/// is seed-keyed per block), at any thread count.
pub fn analyze_world_source(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    threads: usize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> WorldAnalysis {
    run_world::<WorldAnalysis>(Feed::Source(source), cfg, threads, progress, Resume::default())
}

/// Paper-scale entry point: lazy generation ([`WorldSource`]) and a
/// streaming [`WorldRunStats`] sink — O(1) memory in the number of blocks.
/// The aggregate equals `WorldAnalysis::stats` of the collected run
/// exactly.
pub fn analyze_world_stats(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    threads: usize,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> WorldRunStats {
    run_world::<WorldRunStats>(Feed::Source(source), cfg, threads, progress, Resume::default())
}

/// The run identity a resumable world run stamps into its journal (and
/// that seed-joined binary datasets share, with `rounds` zeroed): the
/// four fields that decide whether two on-disk artifacts came from the
/// same world and analysis configuration.
pub fn run_identity(
    seed: u64,
    num_blocks: usize,
    cfg: &AnalysisConfig,
) -> sleepwatch_framing::RunIdentity {
    sleepwatch_framing::RunIdentity {
        world_seed: seed,
        num_blocks: num_blocks as u64,
        rounds: cfg.rounds,
        start_time: cfg.start_time,
    }
}

/// Where an engine run starts from. The default is a fresh run: nothing
/// replayed, nothing journaled.
#[derive(Debug, Default)]
pub(crate) struct Resume {
    /// The checkpoint policy finished blocks are recorded through.
    pub(crate) checkpoint: Checkpoint,
    /// `skip[i]`: block `i` was replayed; read through [`is_replayed`].
    pub(crate) skip: Vec<bool>,
    /// The replayed reports, one per marked block.
    pub(crate) replayed: Vec<WorldBlockReport>,
}

impl Resume {
    /// The journal prefill of a resumable run: opens (or validates) the
    /// journal at `path` for the world of `n` blocks grown from `seed`.
    pub(crate) fn open(
        path: &Path,
        seed: u64,
        n: usize,
        cfg: &AnalysisConfig,
    ) -> Result<Resume, JournalError> {
        let header = JournalHeader::from_identity(&run_identity(seed, n, cfg));
        let (writer, recovered, _stats) = journal::open_resume(path, &header)?;
        let mut skip = vec![false; n];
        let mut replayed = Vec::with_capacity(recovered.len());
        for rep in recovered {
            let idx = rep.summary.block_id as usize;
            // Defensive: only trust records that name a real slot of this
            // world (generated worlds satisfy `blocks[i].id == i`), first
            // record wins.
            if idx < n && !skip[idx] {
                skip[idx] = true;
                replayed.push(rep);
            }
        }
        Ok(Resume { checkpoint: Checkpoint::new(writer), skip, replayed })
    }
}

/// Whether block `idx` was replayed from the journal (a fresh run's empty
/// mask marks nothing).
pub(crate) fn is_replayed(skip: &[bool], idx: usize) -> bool {
    skip.get(idx).copied().unwrap_or(false)
}

/// [`analyze_world`] with a crash-safe checkpoint journal at
/// `journal_path`: every completed block is appended to the journal
/// (fsync'd every `journal::SYNC_EVERY` records), and if the file
/// already holds a valid prefix for this exact run — same world seed,
/// block count, rounds and start time — those blocks are replayed instead
/// of recomputed. A truncated or bit-flipped tail costs only the damaged
/// suffix. The analysis is byte-identical to an uninterrupted
/// [`analyze_world`] at any thread count.
///
/// Errors only on IO failure or when the journal belongs to a different
/// run; corruption never errors.
pub fn analyze_world_resumable(
    world: &World,
    cfg: &AnalysisConfig,
    threads: usize,
    journal_path: &Path,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<WorldAnalysis, JournalError> {
    let resume = Resume::open(journal_path, world.cfg.seed, world.blocks.len(), cfg)?;
    Ok(run_world::<WorldAnalysis>(Feed::World(world), cfg, threads, progress, resume))
}

/// [`analyze_world_stats`] with the checkpoint journal: replayed blocks
/// fold straight into the aggregate, chunks whose blocks were all
/// replayed are never regenerated, and the result equals an
/// uninterrupted stats run exactly.
pub fn analyze_world_stats_resumable(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    threads: usize,
    journal_path: &Path,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<WorldRunStats, JournalError> {
    let resume = Resume::open(journal_path, source.cfg().seed, source.len(), cfg)?;
    Ok(run_world::<WorldRunStats>(Feed::Source(source), cfg, threads, progress, resume))
}

impl WorldAnalysis {
    /// Number of blocks analyzed (quarantined blocks excluded).
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` when no blocks were analyzed.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The streaming aggregate of this analysis — identical to what
    /// [`analyze_world_stats`] would have produced for the same run.
    pub(crate) fn stats(&self) -> WorldRunStats {
        let mut stats = WorldRunStats::default();
        for r in &self.reports {
            stats.absorb_report(r);
        }
        stats.quarantined = self.quarantined.clone();
        stats.quarantined.sort_by_key(|q| q.block_id);
        stats
    }

    /// Count and fraction of strictly diurnal blocks.
    pub fn strict_fraction(&self) -> (usize, f64) {
        self.stats().strict_fraction()
    }

    /// Count and fraction of strict-or-relaxed diurnal blocks.
    pub fn diurnal_fraction(&self) -> (usize, f64) {
        self.stats().diurnal_fraction()
    }

    /// Fraction of blocks passing the stationarity screen.
    pub fn stationary_fraction(&self) -> f64 {
        self.stats().stationary_fraction()
    }

    /// Detection quality against the planted labels:
    /// `(true_pos, false_pos, false_neg, true_neg)` using the strict class.
    pub fn confusion_vs_planted(&self) -> (usize, usize, usize, usize) {
        self.stats().confusion_vs_planted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sleepwatch_probing::FaultPlan;
    use sleepwatch_simnet::{BlockProfile, WorldConfig, A12W_START};
    use std::sync::Mutex;

    /// A parameterized block: diurnal mix and timezone vary per case.
    fn mixed_block(id: u64, seed: u64, n_diurnal: u16, offset_h: f64) -> BlockSpec {
        BlockSpec::bare(
            id,
            seed,
            BlockProfile {
                n_stable: 40,
                n_diurnal,
                stable_avail: 0.9,
                diurnal_avail: 0.85,
                onset_hours: 8.0,
                onset_spread: 2.0,
                duration_hours: 9.0,
                duration_spread: 1.0,
                sigma_start: 0.5,
                sigma_duration: 0.5,
                utc_offset_hours: offset_h,
            },
        )
    }

    /// `days` from `start` under fault plan `faults`: 0 none, 1
    /// `loss_heavy` (lossy, but every round keeps a record), 2 `blackout`
    /// (65 rounds with no record, which the clean fills in the lane).
    fn span_cfg(start: u64, days: f64, faults: u8) -> AnalysisConfig {
        let faults = match faults {
            1 => FaultPlan::loss_heavy(0xBAD),
            2 => FaultPlan::blackout(0xBAD),
            _ => FaultPlan::none(),
        };
        AnalysisConfig { faults, ..AnalysisConfig::over_days(start, days) }
    }

    /// One `run_batch` over `blocks` on `arena`, each outcome rendered
    /// through `Debug` so equality is bit-exact (`-0.0`, NaN payloads).
    fn batch_outcomes(
        blocks: &[BlockSpec],
        cfg: &AnalysisConfig,
        geodb: &GeoDatabase,
        arena: &mut BatchArena,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let fill =
            |l: usize, work: &mut _, lane: &mut _| probe_clean_into(&blocks[l], cfg, work, lane);
        run_batch(blocks.len(), |l| &blocks[l], fill, geodb, cfg, arena, &mut |_, outcome| {
            out.push(format!("{outcome:?}"))
        });
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A batch's outcomes do not depend on what its arena held: a
        /// fresh arena, a poisoned one and one left stale by a different
        /// group (other profiles, other span ⇒ other buffer lengths, all
        /// eight lanes used) give the same outcomes. Anything less would
        /// make a worker's arena reuse order-dependent.
        #[test]
        fn batch_outcomes_are_independent_of_arena_contents(
            seed in 1u64..500,
            lanes in 1usize..=MAX_BATCH_LANES,
            n_diurnal in 0u16..200,
            offset_h in -11i32..12,
            poison_seed in 0u64..u64::MAX,
            faults in 0u8..3,
            a12w in any::<bool>(),
        ) {
            let blocks: Vec<BlockSpec> = (0..lanes as u64)
                .map(|i| {
                    let mix = (n_diurnal + 57 * i as u16) % 201;
                    let offset = (offset_h + 5 * i as i32 + 11).rem_euclid(24) - 11;
                    mixed_block(i, seed.wrapping_add(i), mix, offset as f64)
                })
                .collect();
            // The poisoned probe memo carries window tags for both epochs.
            let start = if a12w { A12W_START } else { 0 };
            let cfg = span_cfg(start, 3.0, faults);
            let geodb = GeoDatabase::new(seed);

            let want = batch_outcomes(&blocks, &cfg, &geodb, &mut BatchArena::new());

            let mut poisoned = BatchArena::new();
            poisoned.poison(poison_seed);
            prop_assert_eq!(batch_outcomes(&blocks, &cfg, &geodb, &mut poisoned), want.clone());

            let others: Vec<BlockSpec> = (0..MAX_BATCH_LANES as u64)
                .map(|i| {
                    mixed_block(i, seed.wrapping_add(17 + i), 200 - n_diurnal, -offset_h as f64)
                })
                .collect();
            let mut stale = BatchArena::new();
            batch_outcomes(&others, &span_cfg(start, 4.0, 0), &geodb, &mut stale);
            prop_assert_eq!(batch_outcomes(&blocks, &cfg, &geodb, &mut stale), want);
        }
    }

    fn tiny_analysis() -> WorldAnalysis {
        let world = World::generate(WorldConfig {
            num_blocks: 60,
            seed: 21,
            span_days: 4.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        analyze_world(&world, &cfg, 2, None)
    }

    #[test]
    fn every_block_reported_in_order() {
        let a = tiny_analysis();
        assert_eq!(a.len(), 60);
        assert!(a.quarantined.is_empty());
        for (i, r) in a.reports.iter().enumerate() {
            assert_eq!(r.summary.block_id, i as u64);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let world = World::generate(WorldConfig {
            num_blocks: 24,
            seed: 5,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let seq = analyze_world(&world, &cfg, 1, None);
        let par = analyze_world(&world, &cfg, 4, None);
        for (a, b) in seq.reports.iter().zip(&par.reports) {
            assert_eq!(a.summary.class, b.summary.class);
            assert_eq!(a.summary.total_probes, b.summary.total_probes);
            assert_eq!(a.link_features, b.link_features);
        }
    }

    #[test]
    fn fixed_seed_world_classifies_deterministically() {
        // Two independent runs of the same fixed-seed 60-block world must
        // produce identical summaries — the planned FFT path may not perturb
        // classification across runs or thread schedules.
        let a = tiny_analysis();
        let b = tiny_analysis();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.summary.class, y.summary.class, "block {}", x.summary.block_id);
            assert_eq!(x.summary.phase, y.summary.phase);
            assert_eq!(x.summary.strongest_cpd, y.summary.strongest_cpd);
            assert_eq!(x.summary.total_probes, y.summary.total_probes);
        }
    }

    #[test]
    fn lazy_source_run_matches_materialized_world_run() {
        // The tentpole equivalence: pulling blocks lazily from a
        // WorldSource (chunked generation + batched FFTs) must be
        // byte-identical to materializing the world first.
        let cfg_w = WorldConfig { num_blocks: 70, seed: 33, span_days: 4.0, ..Default::default() };
        let world = World::generate(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        let from_world = analyze_world(&world, &cfg, 2, None);
        let source = WorldSource::new(cfg_w);
        let from_source = analyze_world_source(&source, &cfg, 3, None);
        assert_eq!(
            format!("{:?}", from_world.reports),
            format!("{:?}", from_source.reports),
            "lazy source run diverged from materialized run"
        );
        assert!(from_source.quarantined.is_empty());
    }

    #[test]
    fn stats_sink_matches_collected_analysis() {
        let cfg_w = WorldConfig { num_blocks: 60, seed: 21, span_days: 4.0, ..Default::default() };
        let source = WorldSource::new(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(source.cfg().start_time, 4.0);
        let stats = analyze_world_stats(&source, &cfg, 2, None);
        let collected = tiny_analysis(); // same world cfg as `source`
        assert_eq!(stats, collected.stats(), "streaming aggregate diverged from collected run");
        assert_eq!(stats.blocks, 60);
        let (_, sf) = stats.strict_fraction();
        assert!((0.0..=1.0).contains(&sf));
        let (tp, fp, fneg, tn) = stats.confusion_vs_planted();
        assert_eq!(tp + fp + fneg + tn, stats.blocks);
    }

    #[test]
    fn geolocation_coverage_near_ninety_three_percent() {
        let a = tiny_analysis();
        let located = a.reports.iter().filter(|r| r.location.is_some()).count();
        let frac = located as f64 / a.len() as f64;
        assert!(frac > 0.8 && frac <= 1.0, "coverage {frac}");
    }

    #[test]
    fn progress_callback_fires() {
        let world = World::generate(WorldConfig {
            num_blocks: 10,
            seed: 2,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let hits = AtomicUsize::new(0);
        let cb = |_d: usize, _n: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        analyze_world(&world, &cfg, 2, Some(&cb));
        assert!(hits.load(Ordering::Relaxed) >= 1, "final-progress callback expected");
    }

    #[test]
    fn progress_final_call_is_guaranteed_and_last() {
        // Regression: the final (n, n) invocation used to come from
        // whichever worker finished block n — a preempted worker could
        // deliver a stale intermediate count after it, and coarse-interval
        // reporting could skip it entirely. The contract now: exactly one
        // (n, n) call, strictly last.
        let world = World::generate(WorldConfig {
            num_blocks: 10,
            seed: 2,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let calls = Mutex::new(Vec::new());
        let cb = |d: usize, n: usize| calls.lock().unwrap().push((d, n));
        analyze_world(&world, &cfg, 3, Some(&cb));
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.last(), Some(&(10, 10)), "final call must be (n, n): {calls:?}");
        assert_eq!(
            calls.iter().filter(|&&c| c == (10, 10)).count(),
            1,
            "final call must fire exactly once: {calls:?}"
        );
    }

    #[test]
    fn progress_fires_for_empty_world() {
        let world = World::generate(WorldConfig {
            num_blocks: 0,
            seed: 2,
            span_days: 1.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 1.0);
        let calls = Mutex::new(Vec::new());
        let cb = |d: usize, n: usize| calls.lock().unwrap().push((d, n));
        analyze_world(&world, &cfg, 2, Some(&cb));
        assert_eq!(
            calls.into_inner().unwrap(),
            vec![(0, 0)],
            "empty worlds still get the final call"
        );
    }

    #[test]
    fn resumed_run_surfaces_replayed_progress_first() {
        // Satellite: a resumed run's first progress report is the replayed
        // base, not a jump straight to (n, n) — while the exactly-one-final
        // guarantee still holds.
        let world = World::generate(WorldConfig {
            num_blocks: 20,
            seed: 13,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let dir = std::env::temp_dir().join(format!("swresumeprog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.journal");
        let _ = std::fs::remove_file(&path);
        // First pass: block 7 panics, so the journal holds 19 of 20.
        let mut poisoned = cfg;
        poisoned.faults.poison_blocks = &[7];
        let first = analyze_world_resumable(&world, &poisoned, 2, &path, None).unwrap();
        assert_eq!(first.quarantined.len(), 1);
        // Resume: 19 replayed, 1 recomputed.
        let calls = Mutex::new(Vec::new());
        let cb = |d: usize, n: usize| calls.lock().unwrap().push((d, n));
        let resumed = analyze_world_resumable(&world, &cfg, 2, &path, Some(&cb)).unwrap();
        assert!(resumed.quarantined.is_empty());
        assert_eq!(resumed.len(), 20);
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.first(), Some(&(19, 20)), "replayed base must surface: {calls:?}");
        assert_eq!(calls.last(), Some(&(20, 20)));
        assert_eq!(calls.iter().filter(|&&c| c == (20, 20)).count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fractions_are_consistent() {
        let a = tiny_analysis();
        let (strict, sf) = a.strict_fraction();
        let (diurnal, df) = a.diurnal_fraction();
        assert!(diurnal >= strict);
        assert!(df >= sf);
        let (tp, fp, fneg, tn) = a.confusion_vs_planted();
        assert_eq!(tp + fp + fneg + tn, a.len());
    }

    #[test]
    fn resumable_without_prior_journal_matches_plain_run() {
        let world = World::generate(WorldConfig {
            num_blocks: 20,
            seed: 11,
            span_days: 3.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
        let dir = std::env::temp_dir().join(format!("swworldrun-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.journal");
        let _ = std::fs::remove_file(&path);
        let plain = analyze_world(&world, &cfg, 2, None);
        let resumable = analyze_world_resumable(&world, &cfg, 2, &path, None).unwrap();
        assert_eq!(format!("{:?}", plain.reports), format!("{:?}", resumable.reports));
        // And a second pass replays everything from the journal.
        let replayed = analyze_world_resumable(&world, &cfg, 2, &path, None).unwrap();
        assert_eq!(format!("{:?}", plain.reports), format!("{:?}", replayed.reports));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_resumable_matches_fresh_stats() {
        let cfg_w = WorldConfig { num_blocks: 30, seed: 17, span_days: 3.0, ..Default::default() };
        let source = WorldSource::new(cfg_w.clone());
        let cfg = AnalysisConfig::over_days(source.cfg().start_time, 3.0);
        let dir = std::env::temp_dir().join(format!("swstatsres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.journal");
        let _ = std::fs::remove_file(&path);
        let fresh = analyze_world_stats(&source, &cfg, 2, None);
        let journaled = analyze_world_stats_resumable(&source, &cfg, 2, &path, None).unwrap();
        assert_eq!(fresh, journaled);
        // Second pass: everything replays, nothing is regenerated.
        let replayed = analyze_world_stats_resumable(&source, &cfg, 2, &path, None).unwrap();
        assert_eq!(fresh, replayed);
        let _ = std::fs::remove_file(&path);
    }

    /// A failed `read` stores the claim counter past the chunk's end, so
    /// the chunk running beside it stops. With one state the calling
    /// thread works every group itself, after `read` returns, so the
    /// count does not depend on timing: chunk 0 is worked, chunk 1 is cut
    /// before its first group, and chunk 2 never starts.
    #[test]
    fn a_failed_read_stops_the_chunk_beside_it() {
        let worked = AtomicUsize::new(0);
        let result = each_chunk(
            3 * CHUNK,
            &[],
            0,
            &mut [()],
            None,
            |_, group, _: &mut Vec<(u64, ())>| {
                worked.fetch_add(group.len(), Ordering::Relaxed);
            },
            |c, _| if c == 0 { Err(c) } else { Ok(()) },
        );
        assert_eq!(result, Err(0));
        assert_eq!(worked.load(Ordering::Relaxed), CHUNK);
    }
}
