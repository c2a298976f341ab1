//! Trinocular-style adaptive probing (the substrate of §2.1).
//!
//! Reimplements the outage-detection prober of Quan et al., SIGCOMM 2013,
//! that the paper's estimators consume:
//!
//! * per block, a Bayesian belief `B(U)` that the block is up;
//! * probes drawn by walking the block's ever-active addresses `E(b)` in a
//!   pseudorandom order (the world model already scatters `E(b)` across the
//!   /24, so walking slots in sequence realizes the pseudorandom walk);
//! * likelihoods `P(response⁺ | up) = Â_o` (the conservative operational
//!   estimate — the reason §2.1 demands `Â_o` not exceed truth) and
//!   `P(response⁺ | down) = ε` (stray/spoofed responses);
//! * probing stops at the first conclusive belief (`≥ 0.9` either way), at
//!   most 15 probes per 11-minute round — which biases observations toward
//!   positive responses, the bias §2.1.2's separate (p, t) tracking
//!   corrects;
//! * beliefs are capped below 1 so the prober can always change its mind.
//!
//! The model's constants are fixed, as in the paper, not options:
//! `BELIEF_THRESHOLD` (0.9), `BELIEF_CAP` (0.99), `P_RESPONSE_DOWN` (ε =
//! 0.01), `P_UNREACH_UP` (0.005) and `P_UNREACH_DOWN` (0.5); the
//! estimator's gains live in `sleepwatch_availability::estimator`.
//! [`TrinocularConfig`] keeps only what experiments vary: the probe
//! budget, the `A12w` restart artifact and the transit loss rate.

use crate::faults::{BurstWindow, FaultPlan};
use crate::record::{BlockRun, RoundRecord};
use sleepwatch_availability::AvailabilityEstimator;
use sleepwatch_geoecon::rng::{KeyPrefix, KeyedRng};
use sleepwatch_simnet::{BlockSpec, ProbeMemo, ProbeOutcome, ROUND_SECONDS};

/// Reachability verdict for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Believed reachable.
    Up,
    /// Believed down (an outage if previously up).
    Down,
    /// Probing budget exhausted without a conclusive belief.
    Unknown,
}

/// Prober configuration; defaults are Trinocular's published parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrinocularConfig {
    /// Maximum probes per block per round (paper: 15).
    pub max_probes_per_round: u32,
    /// Prober restarts every this many rounds (`None` = never). The paper's
    /// `A12w` prober restarted every 5.5 hours = 30 rounds, producing the
    /// 4.3-cycles/day artifact of Fig. 10.
    pub restart_interval_rounds: Option<u64>,
    /// On a restart round, probability that a block's observation is lost
    /// entirely (its probe was in flight during the restart).
    pub restart_loss_chance: f64,
    /// On a restart round that is *not* lost, probability that one probe's
    /// response is dropped while the prober bounces (counted as an extra
    /// negative). This periodic dip is the source of the 4.3-cycles/day
    /// line in Fig. 10.
    pub restart_negative_chance: f64,
    /// Probability that a genuinely positive response is lost in transit
    /// (probe or reply dropped on the path). The estimators absorb this as
    /// a small multiplicative bias on measured availability, exactly as in
    /// live measurement.
    pub transit_loss_rate: f64,
}

impl Default for TrinocularConfig {
    fn default() -> Self {
        TrinocularConfig {
            max_probes_per_round: 15,
            restart_interval_rounds: None,
            restart_loss_chance: 0.25,
            restart_negative_chance: 0.7,
            transit_loss_rate: 0.01,
        }
    }
}

impl TrinocularConfig {
    /// The paper's `A12w` configuration: restarts every 5.5 hours.
    pub fn a12w() -> Self {
        TrinocularConfig { restart_interval_rounds: Some(30), ..Default::default() }
    }
}

/// An outage: consecutive rounds believed down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageEvent {
    /// First round believed down.
    pub start_round: u64,
    /// First round believed up again (exclusive end); `None` while ongoing.
    pub end_round: Option<u64>,
}

/// Adaptive prober for one block.
#[derive(Debug, Clone)]
pub struct TrinocularProber {
    cfg: TrinocularConfig,
    estimator: AvailabilityEstimator,
    belief_up: f64,
    state: BlockState,
    walk: Vec<u8>,
    cursor: usize,
    outages: Vec<OutageEvent>,
    /// The block's address schedules, drawn once (see [`ProbeMemo`]).
    memo: ProbeMemo,
    /// The buffer a duplicating fault plan builds the next record stream
    /// in (see [`FaultPlan::mangle_records_into`]); empty otherwise.
    spare_records: Vec<RoundRecord>,
    /// The `(seed, STREAM_TRANSIT, id)` head of the block's transit-loss
    /// keys.
    transit_key: KeyPrefix,
    total_probes: u64,
}

/// Reusable buffers for constructing probers without per-block heap
/// allocation (the steady-state world-run path).
///
/// [`TrinocularProber::new_reusing`] takes the buffers out of the scratch
/// (clearing any stale contents, and rebinding the probe memo to the new
/// block) and [`TrinocularProber::recycle`] puts
/// them back, capacities intact — grow-only across blocks. A default
/// (empty) scratch is always valid: the first block simply pays the
/// allocations the scratch exists to amortize.
#[derive(Debug, Default)]
pub struct ProberScratch {
    walk: Vec<u8>,
    outages: Vec<OutageEvent>,
    memo: ProbeMemo,
    spare_records: Vec<RoundRecord>,
}

impl ProberScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ProberScratch::default()
    }

    /// Heap bytes currently reserved by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        self.walk.capacity() * std::mem::size_of::<u8>()
            + self.outages.capacity() * std::mem::size_of::<OutageEvent>()
            + self.memo.footprint_bytes()
            + self.spare_records.capacity() * std::mem::size_of::<RoundRecord>()
    }

    /// Outages recorded by the most recently recycled prober. Wrappers
    /// that materialize a full [`BlockRun`] take them from here.
    pub fn take_outages(&mut self) -> Vec<OutageEvent> {
        std::mem::take(&mut self.outages)
    }

    /// Fills the buffers with garbage, for tests proving output
    /// independence from prior scratch contents.
    #[doc(hidden)]
    pub fn poison(&mut self, seed: u64) {
        self.walk.clear();
        self.walk.extend((0..97u64).map(|i| (seed.wrapping_mul(31).wrapping_add(i)) as u8));
        self.outages.clear();
        self.outages.push(OutageEvent { start_round: seed, end_round: None });
        self.memo.poison(seed);
        self.spare_records.clear();
        self.spare_records.extend((0..5u64).map(|i| RoundRecord {
            round: seed ^ i,
            probes: 99,
            positives: 100,
            a_short: f64::NAN,
            a_long: f64::NAN,
            a_operational: f64::NAN,
            state: BlockState::Unknown,
        }));
    }
}

/// Stream tag for the walk shuffle and restart-loss draws.
const STREAM_WALK: u64 = 0x77_616c6b; // "walk"
const STREAM_RESTART: u64 = 0x72_7374; // "rst"
const STREAM_TRANSIT: u64 = 0x74_726e; // "trn"

/// Belief threshold to conclude up/down (paper: 0.9).
const BELIEF_THRESHOLD: f64 = 0.9;
/// Beliefs are clamped to `[1 − cap, cap]` (paper: 0.99).
const BELIEF_CAP: f64 = 0.99;
/// `P(response⁺ | block down)`: stray responses (small, non-zero).
const P_RESPONSE_DOWN: f64 = 0.01;
/// `P(ICMP unreachable | block up)`: stray router errors on a healthy
/// path (small).
const P_UNREACH_UP: f64 = 0.005;
/// `P(ICMP unreachable | block down)`: a routed outage usually draws
/// explicit errors from upstream routers, making one unreachable far
/// stronger down-evidence than a timeout.
const P_UNREACH_DOWN: f64 = 0.5;

impl TrinocularProber {
    /// Creates a prober. The initial availability belief comes from the
    /// block's (possibly stale) historical estimate, exactly as the real
    /// system bootstraps from prior censuses.
    pub fn new(block: &BlockSpec, cfg: TrinocularConfig) -> Self {
        Self::with_targets(block, block.ever_active_addrs(), block.hist_avail, cfg)
    }

    /// [`new`](Self::new), reusing the buffers held by `scratch` instead
    /// of allocating: the walk is refilled in place from the block's
    /// ever-active set and any stale outages are cleared. Behaviour and
    /// output are byte-identical to [`new`](Self::new) — only the buffer
    /// provenance differs. Pair with [`recycle`](Self::recycle) to return
    /// the buffers after the run.
    pub fn new_reusing(
        block: &BlockSpec,
        cfg: TrinocularConfig,
        scratch: &mut ProberScratch,
    ) -> Self {
        let mut walk = std::mem::take(&mut scratch.walk);
        walk.clear();
        walk.extend((0..block.ever_active_count()).map(|s| block.slot_to_addr(s as u8)));
        let mut outages = std::mem::take(&mut scratch.outages);
        outages.clear();
        let mut memo = std::mem::take(&mut scratch.memo);
        memo.reset(block);
        let spare_records = std::mem::take(&mut scratch.spare_records);
        TrinocularProber {
            spare_records,
            ..Self::with_buffers(block, walk, outages, memo, block.hist_avail, cfg)
        }
    }

    /// Returns the prober's buffers to `scratch` for the next block,
    /// keeping their capacities. The recorded outages stay readable
    /// through [`ProberScratch::take_outages`] until the next
    /// [`new_reusing`](Self::new_reusing).
    pub fn recycle(self, scratch: &mut ProberScratch) {
        scratch.walk = self.walk;
        scratch.outages = self.outages;
        scratch.memo = self.memo;
        scratch.spare_records = self.spare_records;
    }

    /// Creates a prober bootstrapped from a census record — the real
    /// system's path: the walk covers only addresses the census
    /// *discovered*, and the initial availability belief is the census's
    /// historical estimate. Returns `None` when the block fails the
    /// analyzability policy (fewer than 15 discovered addresses —
    /// §3.2.4's "policy constraint").
    pub fn from_census(
        block: &BlockSpec,
        census: &crate::census::CensusRecord,
        cfg: TrinocularConfig,
    ) -> Option<Self> {
        if !census.analyzable() {
            return None;
        }
        Some(Self::with_targets(block, census.ever_active.clone(), census.hist_avail, cfg))
    }

    fn with_targets(
        block: &BlockSpec,
        walk: Vec<u8>,
        hist_avail: f64,
        cfg: TrinocularConfig,
    ) -> Self {
        Self::with_buffers(block, walk, Vec::new(), ProbeMemo::new(block), hist_avail, cfg)
    }

    fn with_buffers(
        block: &BlockSpec,
        mut walk: Vec<u8>,
        outages: Vec<OutageEvent>,
        memo: ProbeMemo,
        hist_avail: f64,
        cfg: TrinocularConfig,
    ) -> Self {
        debug_assert!(outages.is_empty(), "outage buffer must arrive cleared");
        // Pseudorandom walk order, fixed per block per prober instance.
        let mut rng = KeyedRng::from_parts(&[block.seed, STREAM_WALK, block.id]);
        for i in (1..walk.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            walk.swap(i, j);
        }
        // Building the E(b) walk is the initial refresh.
        sleepwatch_obs::global().probing.eb_refreshes.incr();
        TrinocularProber {
            cfg,
            estimator: AvailabilityEstimator::with_default_config(hist_avail),
            belief_up: 0.9, // blocks start presumed up, as in Trinocular
            state: BlockState::Up,
            walk,
            cursor: 0,
            outages,
            memo,
            spare_records: Vec::new(),
            transit_key: KeyPrefix::new(&[block.seed, STREAM_TRANSIT, block.id]),
            total_probes: 0,
        }
    }

    /// Outages recorded so far.
    pub fn outages(&self) -> &[OutageEvent] {
        &self.outages
    }

    /// Total probes sent.
    pub fn total_probes(&self) -> u64 {
        self.total_probes
    }

    /// Bayes update of `B(U)` for one probe outcome, using the three-way
    /// likelihood model: replies favour up, timeouts weakly favour down,
    /// explicit unreachable errors strongly favour down. `a` is the
    /// round's `Â_o`: the estimator moves only after the round's probes,
    /// so [`round_inner`](Self::round_inner) reads it once per round.
    fn update_belief(&mut self, a: f64, outcome: ProbeOutcome) {
        let (l_up, l_down) = match outcome {
            ProbeOutcome::Reply => (a, P_RESPONSE_DOWN),
            ProbeOutcome::Timeout => (
                (1.0 - a - P_UNREACH_UP).max(0.001),
                (1.0 - P_RESPONSE_DOWN - P_UNREACH_DOWN).max(0.001),
            ),
            ProbeOutcome::Unreachable => (P_UNREACH_UP, P_UNREACH_DOWN),
        };
        let num = l_up * self.belief_up;
        let den = num + l_down * (1.0 - self.belief_up);
        self.belief_up = if den > 0.0 { num / den } else { 0.5 };
        self.belief_up = self.belief_up.clamp(1.0 - BELIEF_CAP, BELIEF_CAP);
    }

    /// Runs one 11-minute round against `block` at absolute `time`,
    /// returning the round's record (or `None` when the block has no
    /// ever-active addresses to probe).
    pub fn round(&mut self, block: &BlockSpec, round: u64, time: u64) -> Option<RoundRecord> {
        self.round_inner(block, round, time, false, None, &mut 0)
    }

    fn round_inner(
        &mut self,
        block: &BlockSpec,
        round: u64,
        time: u64,
        restart_dropped_probe: bool,
        // Injected correlated loss: `(the block's loss key, loss rate)`
        // when a fault burst covers this round. `None` draws nothing — the
        // fault-free path is bit-identical to the pre-fault-layer code.
        burst_loss: Option<(KeyPrefix, f64)>,
        // Accumulates responses suppressed by the burst, for the metrics
        // flush at the end of the run.
        burst_lost: &mut u64,
    ) -> Option<RoundRecord> {
        if self.walk.is_empty() {
            return None;
        }
        let a = self.estimator.a_operational();
        let mut positives = 0u32;
        let mut probes = 0u32;
        if restart_dropped_probe {
            // The round's opening probe batch was in flight while the
            // prober bounced: the responses are lost and book as timeouts.
            for _ in 0..2 {
                probes += 1;
                self.total_probes += 1;
                self.update_belief(a, ProbeOutcome::Timeout);
            }
        }
        while probes < self.cfg.max_probes_per_round.min(self.walk.len() as u32) {
            let addr = self.walk[self.cursor];
            self.cursor = (self.cursor + 1) % self.walk.len();
            let mut outcome = self.memo.probe_outcome(block, addr, time);
            if outcome == ProbeOutcome::Reply && self.cfg.transit_loss_rate > 0.0 {
                // The reply can die on the path; keyed per (block, addr,
                // time) so replays stay exact.
                if self.transit_key.chance(self.cfg.transit_loss_rate, &[addr as u64, time]) {
                    outcome = ProbeOutcome::Timeout;
                }
            }
            if outcome == ProbeOutcome::Reply {
                if let Some((loss_key, rate)) = burst_loss {
                    if crate::faults::burst_loses_response(loss_key, rate, addr, time) {
                        outcome = ProbeOutcome::Timeout;
                        *burst_lost += 1;
                    }
                }
            }
            let positive = outcome.is_positive();
            probes += 1;
            self.total_probes += 1;
            self.update_belief(a, outcome);
            if positive {
                // "A few or even one positive response is usually sufficient
                // to terminate probing" (§2.1.1): a positive is near-decisive
                // evidence of up (ε ≪ A), so the round ends — the source of
                // the positive-response sampling bias.
                positives += 1;
                break;
            }
            // Negatives are weak evidence individually; keep probing until
            // the belief becomes conclusively down or the budget runs out.
            if self.belief_up <= 1.0 - BELIEF_THRESHOLD {
                break;
            }
        }

        let new_state = if self.belief_up >= BELIEF_THRESHOLD {
            BlockState::Up
        } else if self.belief_up <= 1.0 - BELIEF_THRESHOLD {
            BlockState::Down
        } else {
            BlockState::Unknown
        };

        // Outage bookkeeping: a new outage opens on entering Down; the
        // current outage closes on reaching Up again (recovery may pass
        // through Unknown rounds while belief climbs back).
        if new_state == BlockState::Down
            && self.state != BlockState::Down
            // Down -> Unknown -> Down is one continuing outage, not two:
            // only open a new event once the previous one has closed.
            && self.outages.last().map_or(true, |o| o.end_round.is_some())
        {
            self.outages.push(OutageEvent { start_round: round, end_round: None });
        }
        if new_state == BlockState::Up {
            if let Some(o) = self.outages.last_mut() {
                if o.end_round.is_none() {
                    o.end_round = Some(round);
                }
            }
        }
        self.state = new_state;

        let est = self.estimator.observe(positives, probes);
        Some(RoundRecord {
            round,
            probes,
            positives,
            a_short: est.a_short,
            a_long: est.a_long,
            a_operational: est.a_operational,
            state: new_state,
        })
    }

    /// Drives the prober over `rounds` consecutive rounds starting at
    /// `start_time`, applying the configured restart artifact: on restart
    /// rounds some blocks lose the round's observation entirely (a gap the
    /// §2.2 cleaning must extrapolate over).
    pub fn run(&mut self, block: &BlockSpec, start_time: u64, rounds: u64) -> BlockRun {
        self.run_with_faults(block, start_time, rounds, &FaultPlan::none())
    }

    /// [`run`](Self::run) under an injected fault regime. The empty plan
    /// ([`FaultPlan::none`]) takes the identical code path and draws no
    /// extra randomness, so its output is byte-identical to `run` — the
    /// golden suite pins this.
    pub fn run_with_faults(
        &mut self,
        block: &BlockSpec,
        start_time: u64,
        rounds: u64,
        plan: &FaultPlan,
    ) -> BlockRun {
        let mut records = Vec::new();
        self.run_into_with_faults(block, start_time, rounds, plan, &mut records);
        // `BlockRun::new`'s check, which duplicated or reordered streams
        // legitimately fail; downstream cleaning copes.
        debug_assert!(plan.mangles_order() || records.windows(2).all(|w| w[0].round < w[1].round));
        let outages = self.outages.clone();
        BlockRun { block_id: block.id, rounds, records, outages, total_probes: self.total_probes }
    }

    /// [`run_with_faults`](Self::run_with_faults), writing the round
    /// records into a caller-provided buffer instead of building an owned
    /// [`BlockRun`] — the zero-allocation steady-state path. `records` is
    /// cleared first and grows only when this run needs more capacity
    /// than any before it. Outages and the probe total stay readable via
    /// [`outages`](Self::outages) / [`total_probes`](Self::total_probes).
    pub fn run_into_with_faults(
        &mut self,
        block: &BlockSpec,
        start_time: u64,
        rounds: u64,
        plan: &FaultPlan,
        records: &mut Vec<RoundRecord>,
    ) {
        // Fault accounting is accumulated in locals and flushed once at
        // the end of the run: one shared-cache-line touch per run instead
        // of per round/probe keeps worker threads from contending.
        let probes_before = self.total_probes;
        let mut fc = FaultCounts::default();
        let mut in_blackout = false;
        let mut in_burst = false;
        let mut bursts = BurstWindow::UNDRAWN;
        let loss_key = plan.loss_key(block.id);
        records.clear();
        records.reserve(rounds as usize);
        for r in 0..rounds {
            if plan.truncates_at(r) {
                fc.truncations += 1;
                fc.truncated_rounds += rounds - r;
                break; // collection died; nothing more arrives
            }
            if let Some(churn) = plan.churn_at(r) {
                self.churn_walk(block, plan, churn.fraction);
            }
            if plan.blacked_out(r) {
                if !in_blackout {
                    fc.blackouts += 1;
                    in_blackout = true;
                }
                fc.blackout_rounds += 1;
                continue; // the vantage saw nothing this round
            }
            in_blackout = false;
            // Pure, keyed fault queries, evaluated (and counted) before
            // the private restart draw below: the metrics-invariant suite
            // recomputes the expected counts through the same public
            // `FaultPlan` API, independent of the prober's internal RNG.
            let storm = plan.storm_restart_at(block.id, r);
            if storm.is_some() {
                fc.storm_restarts += 1;
            }
            let burst_rate = bursts.advance(plan, block.id, r);
            if burst_rate > 0.0 {
                if !in_burst {
                    fc.loss_bursts += 1;
                }
                in_burst = true;
            } else {
                in_burst = false;
            }
            let time = start_time + r * ROUND_SECONDS;
            let restarting = self.cfg.restart_interval_rounds.is_some_and(|k| r > 0 && r % k == 0);
            let mut dropped_probe = false;
            if restarting {
                fc.cfg_restarts += 1;
                // The prober process bounces: belief survives on disk, but
                // this round's observation may be lost for this block, or a
                // probe already in flight loses its response.
                let mut rng = KeyedRng::from_parts(&[block.seed, STREAM_RESTART, block.id, r]);
                if rng.chance(self.cfg.restart_loss_chance) {
                    continue; // missing observation for this round
                }
                dropped_probe = rng.chance(self.cfg.restart_negative_chance);
            }
            if let Some((lost, dropped)) = storm {
                // An extra, unscheduled restart on top of the configured
                // cadence — same loss semantics.
                if lost {
                    fc.storm_lost_rounds += 1;
                    continue;
                }
                dropped_probe |= dropped;
            }
            let burst = if burst_rate > 0.0 { Some((loss_key, burst_rate)) } else { None };
            if let Some(rec) =
                self.round_inner(block, r, time, dropped_probe, burst, &mut fc.lost_probes)
            {
                records.push(rec);
            }
        }
        let (dups, swaps) = plan.mangle_records_into(block.id, records, &mut self.spare_records);
        fc.duplicates = dups;
        fc.reorders = swaps;
        self.flush_run_metrics(self.total_probes - probes_before, &fc);
    }

    /// Rewrites a keyed fraction of the walk with arbitrary octets,
    /// modelling mid-run `E(b)` churn (renumbering under stale census
    /// data). Replacement octets may be inactive addresses.
    fn churn_walk(&mut self, block: &BlockSpec, plan: &FaultPlan, fraction: f64) {
        if self.walk.is_empty() {
            return;
        }
        let n = ((self.walk.len() as f64 * fraction).round() as usize).min(self.walk.len());
        for draw in 0..n {
            let (slot, octet) = plan.churn_slot(block.id, draw as u64, self.walk.len());
            self.walk[slot] = octet;
        }
        let obs = sleepwatch_obs::global();
        obs.probing.eb_refreshes.incr();
        obs.probing.churned_slots.add(n as u64);
    }

    /// One-shot metrics flush for a completed run (see the batching note
    /// in [`run_with_faults`](Self::run_with_faults)).
    fn flush_run_metrics(&self, probes: u64, fc: &FaultCounts) {
        let obs = sleepwatch_obs::global();
        if !obs.probing.runs.enabled() {
            return;
        }
        obs.probing.runs.incr();
        obs.probing.probes_sent.add(probes);
        let f = &obs.faults;
        f.loss_bursts.add(fc.loss_bursts);
        f.lost_probes.add(fc.lost_probes);
        f.blackouts.add(fc.blackouts);
        f.blackout_rounds.add(fc.blackout_rounds);
        f.storm_restarts.add(fc.storm_restarts);
        f.storm_lost_rounds.add(fc.storm_lost_rounds);
        f.truncations.add(fc.truncations);
        f.truncated_rounds.add(fc.truncated_rounds);
        f.duplicates.add(fc.duplicates);
        f.reorders.add(fc.reorders);
        f.cfg_restarts.add(fc.cfg_restarts);
    }
}

/// Per-run fault tallies, accumulated locally and flushed once.
#[derive(Default)]
struct FaultCounts {
    loss_bursts: u64,
    lost_probes: u64,
    blackouts: u64,
    blackout_rounds: u64,
    storm_restarts: u64,
    storm_lost_rounds: u64,
    truncations: u64,
    truncated_rounds: u64,
    duplicates: u64,
    reorders: u64,
    cfg_restarts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    fn block_with_avail(id: u64, n: u16, avail: f64) -> BlockSpec {
        BlockSpec::bare(id, 1234, BlockProfile::always_on(n, avail))
    }

    #[test]
    fn healthy_block_needs_one_probe_per_round() {
        let b = block_with_avail(1, 100, 1.0);
        let cfg = TrinocularConfig { transit_loss_rate: 0.0, ..Default::default() };
        let mut p = TrinocularProber::new(&b, cfg);
        let mut total = 0;
        for r in 0..100 {
            let rec = p.round(&b, r, r * 660).unwrap();
            total += rec.probes;
            assert_eq!(rec.state, BlockState::Up);
        }
        assert_eq!(total, 100, "one positive probe should settle each round");
    }

    #[test]
    fn transit_loss_costs_occasional_extra_probes() {
        let b = block_with_avail(30, 100, 1.0);
        let cfg = TrinocularConfig { transit_loss_rate: 0.05, ..Default::default() };
        let mut p = TrinocularProber::new(&b, cfg);
        let rounds = 2_000u64;
        let mut total = 0u64;
        for r in 0..rounds {
            total += p.round(&b, r, r * 660).unwrap().probes as u64;
        }
        let mean = total as f64 / rounds as f64;
        // Geometric with p = 0.95: mean 1/0.95 ≈ 1.053 probes/round.
        assert!(mean > 1.02 && mean < 1.12, "mean probes {mean}");
    }

    #[test]
    fn probe_budget_stays_under_paper_bound() {
        // "<20 probes/hour per /24" holds for typical availability; the
        // paper's own A≈0.19 example needs ~5 probes/round (≈28/hour).
        let b = block_with_avail(2, 200, 0.6);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        let rounds = 131 * 7; // a week
        let mut probes = 0u64;
        for r in 0..rounds {
            probes += p.round(&b, r, r * 660).unwrap().probes as u64;
        }
        let hours = rounds as f64 * 660.0 / 3_600.0;
        let per_hour = probes as f64 / hours;
        assert!(per_hour < 20.0, "probes/hour = {per_hour}");
    }

    #[test]
    fn low_availability_block_costs_five_probes_per_round() {
        // Stop-on-first-positive over A≈0.19 is geometric with mean
        // (1 − 0.81¹⁵)/0.19 ≈ 5 — the paper reports 5.08 for this block.
        let b = block_with_avail(20, 245, 0.191);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        let rounds = 1_833u64;
        let mut probes = 0u64;
        for r in 0..rounds {
            probes += p.round(&b, r, r * 660).unwrap().probes as u64;
        }
        let mean = probes as f64 / rounds as f64;
        assert!((mean - 5.0).abs() < 0.6, "mean probes/round = {mean}");
    }

    #[test]
    fn outage_detected_and_bounded() {
        let mut b = block_with_avail(3, 100, 0.9);
        // Outage rounds 200..230.
        b.outage = Some((200 * 660, 230 * 660));
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        for r in 0..400 {
            p.round(&b, r, r * 660).unwrap();
        }
        let outs = p.outages();
        assert_eq!(outs.len(), 1, "exactly one outage: {outs:?}");
        let o = outs[0];
        assert!(o.start_round >= 200 && o.start_round <= 203, "start {}", o.start_round);
        let end = o.end_round.expect("recovered");
        assert!((230..=233).contains(&end), "end {end}");
    }

    #[test]
    fn no_false_outages_on_healthy_block() {
        let b = block_with_avail(4, 150, 0.7);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        for r in 0..131 * 14 {
            p.round(&b, r, r * 660);
        }
        assert!(p.outages().is_empty(), "false outages: {:?}", p.outages());
    }

    #[test]
    fn belief_is_capped() {
        let b = block_with_avail(5, 100, 1.0);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        for r in 0..50 {
            p.round(&b, r, r * 660);
        }
        assert!(p.belief_up <= 0.99);
        // And a down block pins at the other cap.
        let mut dead = block_with_avail(6, 100, 0.9);
        dead.outage = Some((0, u64::MAX));
        let mut pd = TrinocularProber::new(&dead, TrinocularConfig::default());
        for r in 0..50 {
            pd.round(&dead, r, r * 660);
        }
        assert!(pd.belief_up >= 0.01);
        assert_eq!(pd.state, BlockState::Down);
    }

    /// The likelihood table by value: from a known belief, one
    /// unreachable and one timeout land on Bayes' posterior with ε = 0.01,
    /// `P(unreachable | up)` = 0.005 and `P(unreachable | down)` = 0.5
    /// written out here, not read from the constants.
    #[test]
    fn unreachable_and_timeout_posteriors_are_the_closed_form() {
        let b = block_with_avail(11, 100, 0.8);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        let a = p.estimator.a_operational();
        assert!(a > 0.0 && a < 0.99, "A = {a}");
        let prior = 0.6;
        let posterior = |up: f64, down: f64| up * prior / (up * prior + down * (1.0 - prior));

        p.belief_up = prior;
        p.update_belief(a, ProbeOutcome::Unreachable);
        let want = posterior(0.005, 0.5);
        assert!((p.belief_up - want).abs() < 1e-12, "unreachable: {} vs {want}", p.belief_up);

        p.belief_up = prior;
        p.update_belief(a, ProbeOutcome::Timeout);
        let want = posterior(1.0 - a - 0.005, 1.0 - 0.01 - 0.5);
        assert!((p.belief_up - want).abs() < 1e-12, "timeout: {} vs {want}", p.belief_up);
    }

    /// Two consecutive rounds of timeouts land on the closed form, each
    /// with the `Â_o` of its own round: 15 timeouts against the estimate
    /// the census seeded, then 15 against the estimate round 1 left.
    #[test]
    fn each_round_updates_with_its_own_operational_estimate() {
        // Every octet of this block is inactive, so every probe times out.
        let b = BlockSpec::bare(14, 1234, BlockProfile::always_on(0, 0.5));
        let census = crate::census::CensusRecord {
            block_id: 14,
            ever_active: (0..20).collect(),
            response_counts: vec![1; 20],
            hist_avail: 0.6,
            passes: 1,
        };
        let mut p =
            TrinocularProber::from_census(&b, &census, TrinocularConfig::default()).unwrap();
        let timeouts = |mut belief: f64, a: f64| {
            for _ in 0..15 {
                let (up, down) = (1.0 - a - 0.005, 1.0 - 0.01 - 0.5);
                belief = (up * belief / (up * belief + down * (1.0 - belief))).clamp(0.01, 0.99);
            }
            belief
        };
        let mut belief = 0.9;
        for round in 0..2 {
            let a = p.estimator.a_operational();
            let rec = p.round(&b, round, round * 660).unwrap();
            assert_eq!((rec.probes, rec.positives), (15, 0), "round {round}");
            belief = timeouts(belief, a);
            let got = p.belief_up;
            assert!((got - belief).abs() < 1e-12, "round {round}: {got} vs {belief}");
        }
        assert!(p.estimator.a_operational() < 0.5, "round 1 must move Â_o");
    }

    #[test]
    fn empty_block_yields_no_record() {
        let b = block_with_avail(7, 0, 0.5);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        assert!(p.round(&b, 0, 0).is_none());
    }

    #[test]
    fn estimator_converges_through_prober() {
        let b = block_with_avail(8, 120, 0.4);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        for r in 0..4_000 {
            p.round(&b, r, r * 660);
        }
        let a = p.estimator.a_short();
        // Per-address jitter shifts the block's true mean slightly off 0.4.
        let truth = b.true_availability(0);
        assert!((a - truth).abs() < 0.1, "Âs {a} vs truth {truth}");
    }

    #[test]
    fn run_produces_dense_records_without_restarts() {
        let b = block_with_avail(9, 80, 0.8);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        let run = p.run(&b, 0, 500);
        assert_eq!(run.records.len(), 500);
        assert_eq!(run.rounds, 500);
    }

    #[test]
    fn restarts_drop_some_rounds() {
        let b = block_with_avail(10, 80, 0.8);
        let mut p = TrinocularProber::new(&b, TrinocularConfig::a12w());
        let rounds = 3_000;
        let run = p.run(&b, 0, rounds);
        let missing = rounds as usize - run.records.len();
        // 99 restart rounds × 50 % loss ≈ 50 missing.
        let expected = (rounds / 30) as f64 * 0.5;
        assert!(
            (missing as f64 - expected).abs() < expected * 0.6,
            "missing {missing}, expected ≈{expected}"
        );
        // Missing rounds are exactly at restart multiples.
        let kept: std::collections::HashSet<u64> = run.records.iter().map(|r| r.round).collect();
        for r in 0..rounds {
            if r % 30 != 0 || r == 0 {
                assert!(kept.contains(&r), "round {r} unexpectedly missing");
            }
        }
    }

    #[test]
    fn unreachable_errors_conclude_outages_quickly() {
        // During a routed outage most probes return explicit unreachable
        // errors, so the prober reaches a down verdict within a couple of
        // probes instead of grinding through 15 timeouts.
        let mut b = block_with_avail(40, 150, 0.9);
        b.outage = Some((100 * 660, 200 * 660));
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        for r in 0..100 {
            p.round(&b, r, r * 660);
        }
        let rec = p.round(&b, 100, 100 * 660).unwrap();
        assert!(rec.probes <= 6, "unreachables are decisive, used {}", rec.probes);
        assert_eq!(p.state, BlockState::Down);
        assert_eq!(p.outages().len(), 1);
    }

    #[test]
    fn blacked_out_rounds_are_lost() {
        let b = block_with_avail(53, 100, 0.9);
        let plan = FaultPlan {
            seed: 0xB1AC,
            blackout: Some(crate::faults::Blackout { start_round: 50, len_rounds: 30 }),
            ..FaultPlan::none()
        };
        let run = TrinocularProber::new(&b, TrinocularConfig::default())
            .run_with_faults(&b, 0, 120, &plan);
        // The vantage saw nothing: cleaning fills the gap downstream.
        assert!(run.records.iter().all(|r| !(50..80).contains(&r.round)));
        assert_eq!(run.records.len(), 90);
    }

    #[test]
    fn walk_order_varies_by_block() {
        let b1 = block_with_avail(11, 64, 0.9);
        let b2 = block_with_avail(12, 64, 0.9);
        let p1 = TrinocularProber::new(&b1, TrinocularConfig::default());
        let p2 = TrinocularProber::new(&b2, TrinocularConfig::default());
        assert_ne!(p1.walk, p2.walk);
    }

    #[test]
    fn diurnal_block_not_marked_as_outage_when_stable_core_exists() {
        // 50 always-on + 100 diurnal: nights look sparser but the block
        // stays reachable, so no outage should be recorded.
        let b = BlockSpec::bare(
            13,
            77,
            BlockProfile {
                n_stable: 50,
                n_diurnal: 100,
                stable_avail: 0.95,
                diurnal_avail: 0.95,
                onset_hours: 8.0,
                onset_spread: 1.0,
                duration_hours: 8.0,
                duration_spread: 0.0,
                sigma_start: 0.2,
                sigma_duration: 0.2,
                utc_offset_hours: 0.0,
            },
        );
        let mut p = TrinocularProber::new(&b, TrinocularConfig::default());
        for r in 0..131 * 7 {
            p.round(&b, r, r * 660);
        }
        assert!(p.outages().is_empty(), "diurnal nights misread as outages");
    }
}
