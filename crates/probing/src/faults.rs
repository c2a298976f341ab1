//! Deterministic measurement-fault injection.
//!
//! Real probing infrastructure fails in structured ways: upstream links
//! shed probes in correlated bursts, vantage points black out for hours,
//! prober processes restart off-schedule, collection is cut short, and
//! ingest pipelines duplicate or reorder observations. A [`FaultPlan`]
//! describes such a failure regime and is threaded through
//! [`TrinocularProber::run_with_faults`](crate::TrinocularProber::run_with_faults)
//! and [`survey_block_with_faults`](crate::survey_block_with_faults) so the
//! whole pipeline can be stress-tested against it.
//!
//! Two invariants make the plans usable as test infrastructure:
//!
//! * **Zero-cost default.** [`FaultPlan::none`] injects nothing and draws
//!   nothing: a run under the empty plan is byte-identical to a run on the
//!   fault-free code path (pinned by the golden suite).
//! * **Keyed determinism.** Every draw is keyed on
//!   `(plan seed, stream tag, block, round/address/time)` via the same
//!   splitmix64 machinery as the rest of the workspace, so injected faults
//!   are identical across thread counts and evaluation orders.

use crate::record::RoundRecord;
use sleepwatch_geoecon::rng::{chance_at, hash_parts, KeyPrefix};

/// Stream tags separating fault draws from all other keyed randomness.
const STREAM_BURST: u64 = 0x6662_7573; // "fbus"
const STREAM_STORM: u64 = 0x6673_746d; // "fstm"
const STREAM_CHURN: u64 = 0x6663_6872; // "fchr"
const STREAM_DUP: u64 = 0x6664_7570; // "fdup"
const STREAM_REORDER: u64 = 0x6672_6f72; // "fror"
/// Tag for per-probe burst-loss draws (see [`FaultPlan::loss_key`]).
const STREAM_LOSS: u64 = 0x666c_6f73; // "flos"

/// Correlated loss bursts: within each `epoch_rounds`-long epoch a block
/// may (keyed coin) suffer one burst window during which genuinely
/// positive responses are dropped with probability `loss`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBurst {
    /// Epoch length in rounds; each epoch independently draws one burst.
    pub epoch_rounds: u64,
    /// Probability that an epoch contains a burst.
    pub burst_chance: f64,
    /// Maximum burst length in rounds (actual length is keyed-uniform in
    /// `1..=max_len_rounds`).
    pub max_len_rounds: u64,
    /// Probability that a positive response is lost during the burst.
    pub loss: f64,
}

/// One epoch's loss-burst draw for one block
/// ([`FaultPlan::burst_window`]): it answers for the epoch's rounds
/// ([`rounds`](Self::rounds)) and drops positives with probability `loss`
/// in the `len` rounds from `start`. A burst may run past the epoch; those
/// rounds belong to the next epoch's draw, so the window never answers
/// for them. Fields stay private: [`advance`](Self::advance) trusts that
/// a window answers for exactly the epoch it was drawn for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindow {
    first: u64,
    end: u64,
    start: u64,
    /// 0 when the epoch drew no burst.
    len: u64,
    loss: f64,
}

impl BurstWindow {
    /// A window answering for no round: the first
    /// [`advance`](Self::advance) of a run draws.
    pub const UNDRAWN: BurstWindow = BurstWindow { first: 0, end: 0, start: 0, len: 0, loss: 0.0 };

    /// The rounds this draw answers for: its epoch, or every round of a
    /// plan without bursts.
    pub fn rounds(&self) -> std::ops::Range<u64> {
        self.first..self.end
    }

    /// Loss at `round`, a round of this window's epoch.
    pub fn loss_at(&self, round: u64) -> f64 {
        if round >= self.start && round - self.start < self.len {
            self.loss
        } else {
            0.0
        }
    }

    /// [`FaultPlan::loss_at`] for a per-round loop: redraws this window
    /// from `plan` only when `round` leaves the epoch it answers for, so a
    /// run pays the three keyed hashes once per epoch instead of once per
    /// round. Equal to `plan.loss_at(block_id, round)` for every round, in
    /// any order.
    pub fn advance(&mut self, plan: &FaultPlan, block_id: u64, round: u64) -> f64 {
        if !self.rounds().contains(&round) {
            *self = plan.burst_window(block_id, plan.burst_epoch(round));
        }
        self.loss_at(round)
    }
}

/// A vantage blackout: the prober records nothing at all for
/// `len_rounds` rounds starting at `start_round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// First blacked-out round.
    pub start_round: u64,
    /// Number of consecutive rounds lost.
    pub len_rounds: u64,
}

/// Extra, jitter-scheduled prober restarts on top of whatever the
/// [`TrinocularConfig`](crate::TrinocularConfig) already schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartStorm {
    /// Nominal rounds between extra restarts.
    pub interval_rounds: u64,
    /// Each restart lands keyed-uniformly up to this many rounds late
    /// (must be smaller than `interval_rounds`).
    pub jitter_rounds: u64,
    /// Probability the restart loses the round's observation entirely.
    pub loss_chance: f64,
    /// Probability a surviving restart round books in-flight probes as
    /// timeouts (the Fig. 10 artifact mechanism).
    pub dropped_probe_chance: f64,
}

/// Mid-run churn of the probed address set `E(b)`: at `at_round` a keyed
/// `fraction` of the walk's slots are overwritten with arbitrary last
/// octets — including addresses that never respond — modelling stale
/// census data meeting renumbered blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EChurn {
    /// Round at which the walk is rewritten.
    pub at_round: u64,
    /// Fraction of walk slots replaced (`0..=1`).
    pub fraction: f64,
}

/// A complete fault regime for one run. The default ([`FaultPlan::none`])
/// injects nothing; presets combine the individual mechanisms into
/// recognizable failure scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed keying every fault draw (independent of block/world seeds).
    pub seed: u64,
    /// Correlated response-loss bursts.
    pub loss_burst: Option<LossBurst>,
    /// Vantage blackout window.
    pub blackout: Option<Blackout>,
    /// Extra jittered prober restarts.
    pub restart_storm: Option<RestartStorm>,
    /// Stop collecting after this many rounds (truncated run).
    pub truncate_after: Option<u64>,
    /// Per-record probability of appending a stale duplicate
    /// `RoundRecord` under the same round number.
    pub duplicate_rate: f64,
    /// Per-position probability of swapping adjacent records.
    pub reorder_rate: f64,
    /// Mid-run churn of the probed address set.
    pub churn: Option<EChurn>,
    /// Test-only failure injection: analyzing any of these block ids
    /// panics, exercising per-block quarantine. Not a measurement fault —
    /// [`is_none`](Self::is_none) ignores it, no preset sets it, and it
    /// is no part of a run's identity.
    #[doc(hidden)]
    pub poison_blocks: &'static [u64],
}

impl FaultPlan {
    /// The empty plan: injects nothing, draws nothing, changes nothing.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss_burst: None,
            blackout: None,
            restart_storm: None,
            truncate_after: None,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            churn: None,
            poison_blocks: &[],
        }
    }

    /// True when the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.loss_burst.is_none()
            && self.blackout.is_none()
            && self.restart_storm.is_none()
            && self.truncate_after.is_none()
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.churn.is_none()
    }

    /// Preset: occasional short loss bursts (a flaky upstream).
    pub fn loss_light(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss_burst: Some(LossBurst {
                epoch_rounds: 131,
                burst_chance: 0.3,
                max_len_rounds: 12,
                loss: 0.3,
            }),
            ..Self::none()
        }
    }

    /// Preset: frequent long heavy bursts (a congested transit path).
    pub fn loss_heavy(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss_burst: Some(LossBurst {
                epoch_rounds: 131,
                burst_chance: 0.7,
                max_len_rounds: 40,
                loss: 0.8,
            }),
            ..Self::none()
        }
    }

    /// Preset: a half-day vantage blackout early in the second day.
    pub fn blackout(seed: u64) -> Self {
        FaultPlan {
            seed,
            blackout: Some(Blackout { start_round: 160, len_rounds: 65 }),
            ..Self::none()
        }
    }

    /// Preset: restarts every ~3 hours with jitter, most losing data.
    pub fn restart_storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            restart_storm: Some(RestartStorm {
                interval_rounds: 17,
                jitter_rounds: 5,
                loss_chance: 0.5,
                dropped_probe_chance: 0.8,
            }),
            ..Self::none()
        }
    }

    /// Preset: collection dies ten days in (of a nominal two weeks).
    pub fn truncated(seed: u64) -> Self {
        FaultPlan { seed, truncate_after: Some(1_310), ..Self::none() }
    }

    /// Preset: the ingest pipeline duplicates and reorders records.
    pub fn dup_reorder(seed: u64) -> Self {
        FaultPlan { seed, duplicate_rate: 0.05, reorder_rate: 0.05, ..Self::none() }
    }

    /// Preset: a third of `E(b)` churns away mid-run.
    pub fn churn(seed: u64) -> Self {
        FaultPlan { seed, churn: Some(EChurn { at_round: 500, fraction: 0.3 }), ..Self::none() }
    }

    /// Every named preset, for exhaustive oracle sweeps.
    pub fn presets(seed: u64) -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("loss-light", Self::loss_light(seed)),
            ("loss-heavy", Self::loss_heavy(seed)),
            ("blackout", Self::blackout(seed)),
            ("restart-storm", Self::restart_storm(seed)),
            ("truncated", Self::truncated(seed)),
            ("dup-reorder", Self::dup_reorder(seed)),
            ("churn", Self::churn(seed)),
        ]
    }

    /// True when collection has been cut off at or before `round`.
    pub fn truncates_at(&self, round: u64) -> bool {
        self.truncate_after.is_some_and(|t| round >= t)
    }

    /// True when `round` falls inside the blackout window.
    pub fn blacked_out(&self, round: u64) -> bool {
        self.blackout
            .is_some_and(|b| round >= b.start_round && round < b.start_round + b.len_rounds)
    }

    /// The loss burst `block_id` draws in `epoch` — the one place the burst
    /// rule lives. Bursts are keyed per `(plan, block, epoch)`, so a burst
    /// hits every probe of the affected rounds — correlated loss, not
    /// i.i.d. thinning. A plan without bursts (or with `epoch_rounds == 0`)
    /// answers with one quiet window covering every round.
    pub fn burst_window(&self, block_id: u64, epoch: u64) -> BurstWindow {
        let quiet = BurstWindow { first: 0, end: u64::MAX, start: 0, len: 0, loss: 0.0 };
        let Some(b) = self.loss_burst.filter(|b| b.epoch_rounds > 0) else { return quiet };
        let first = epoch.saturating_mul(b.epoch_rounds);
        let no_burst = BurstWindow { first, end: first.saturating_add(b.epoch_rounds), ..quiet };
        if !chance_at(b.burst_chance, &[self.seed, STREAM_BURST, block_id, epoch]) {
            return no_burst;
        }
        let len = 1 + hash_parts(&[self.seed, STREAM_BURST ^ 1, block_id, epoch])
            % b.max_len_rounds.max(1);
        let span = b.epoch_rounds.saturating_sub(len).max(1);
        let start = first
            .saturating_add(hash_parts(&[self.seed, STREAM_BURST ^ 2, block_id, epoch]) % span);
        BurstWindow { start, len, loss: b.loss, ..no_burst }
    }

    /// The `(plan seed, STREAM_LOSS, block)` head of `block_id`'s per-probe
    /// burst-loss keys, for [`burst_loses_response`]; a run draws it once.
    pub(crate) fn loss_key(&self, block_id: u64) -> KeyPrefix {
        KeyPrefix::new(&[self.seed, STREAM_LOSS, block_id])
    }

    /// The epoch `round` falls in (0 when the plan has no epochs).
    fn burst_epoch(&self, round: u64) -> u64 {
        match self.loss_burst {
            Some(b) if b.epoch_rounds > 0 => round / b.epoch_rounds,
            _ => 0,
        }
    }

    /// Extra response-loss probability at `round` for `block_id` (0.0
    /// outside any burst): the round's [`burst_window`](Self::burst_window),
    /// drawn for this one query. Per-round loops keep the window instead
    /// ([`BurstWindow::advance`]).
    pub fn loss_at(&self, block_id: u64, round: u64) -> f64 {
        self.burst_window(block_id, self.burst_epoch(round)).loss_at(round)
    }

    /// If a storm restart lands on `round`, returns `(observation lost,
    /// in-flight probes dropped)`.
    pub fn storm_restart_at(&self, block_id: u64, round: u64) -> Option<(bool, bool)> {
        let s = self.restart_storm?;
        if s.interval_rounds == 0 || round == 0 {
            return None;
        }
        // Occurrence i lands at i·interval + jitter(i); jitter < interval,
        // so only the two nearest occurrence indices can match `round`.
        let hi = round / s.interval_rounds;
        let lo = round.saturating_sub(s.jitter_rounds) / s.interval_rounds;
        for i in lo..=hi {
            if i == 0 {
                continue;
            }
            let jitter = if s.jitter_rounds == 0 {
                0
            } else {
                hash_parts(&[self.seed, STREAM_STORM, block_id, i]) % (s.jitter_rounds + 1)
            };
            if i * s.interval_rounds + jitter == round {
                let lost = chance_at(s.loss_chance, &[self.seed, STREAM_STORM ^ 1, block_id, i]);
                let dropped =
                    chance_at(s.dropped_probe_chance, &[self.seed, STREAM_STORM ^ 2, block_id, i]);
                return Some((lost, dropped));
            }
        }
        None
    }

    /// If the walk churns at `round`, returns the churn parameters.
    pub fn churn_at(&self, round: u64) -> Option<EChurn> {
        self.churn.filter(|c| c.at_round == round)
    }

    /// Keyed draw for one churned walk slot: `(slot index, new octet)`.
    pub(crate) fn churn_slot(&self, block_id: u64, draw: u64, walk_len: usize) -> (usize, u8) {
        let slot = hash_parts(&[self.seed, STREAM_CHURN, block_id, draw]) % walk_len as u64;
        let octet = hash_parts(&[self.seed, STREAM_CHURN ^ 1, block_id, draw]) % 256;
        (slot as usize, octet as u8)
    }

    /// Applies record-stream corruption: stale duplicates (a copy of the
    /// previous record re-emitted under the current round number, after
    /// the genuine record so last-write-wins ingest keeps the stale one)
    /// and adjacent-pair reorders. Keyed per `(plan, block, round)`.
    ///
    /// Returns `(duplicates appended, pairs swapped)` so callers (and the
    /// metrics layer) can account for the injected corruption without
    /// re-deriving the keyed draws.
    pub fn mangle_records(&self, block_id: u64, records: &mut Vec<RoundRecord>) -> (u64, u64) {
        self.mangle_records_into(block_id, records, &mut Vec::new())
    }

    /// [`mangle_records`](Self::mangle_records) reusing `spare`'s capacity:
    /// a duplicating plan builds the new stream in `spare` and swaps it in,
    /// so `spare` ends up holding the old stream's buffer. Grow-only across
    /// blocks: once both buffers have held a block's stream, a run of
    /// same-length blocks mangles without allocating. Same draws, in the
    /// same order, same records.
    pub(crate) fn mangle_records_into(
        &self,
        block_id: u64,
        records: &mut Vec<RoundRecord>,
        spare: &mut Vec<RoundRecord>,
    ) -> (u64, u64) {
        if self.duplicate_rate <= 0.0 && self.reorder_rate <= 0.0 {
            return (0, 0);
        }
        let mut dups = 0u64;
        let mut swaps = 0u64;
        if self.duplicate_rate > 0.0 {
            spare.clear();
            spare.reserve(records.len() + records.len() / 8);
            for i in 0..records.len() {
                spare.push(records[i]);
                if i > 0
                    && chance_at(
                        self.duplicate_rate,
                        &[self.seed, STREAM_DUP, block_id, records[i].round],
                    )
                {
                    let mut stale = records[i - 1];
                    stale.round = records[i].round;
                    spare.push(stale);
                    dups += 1;
                }
            }
            std::mem::swap(records, spare);
        }
        if self.reorder_rate > 0.0 {
            let mut i = 0;
            while i + 1 < records.len() {
                if chance_at(
                    self.reorder_rate,
                    &[self.seed, STREAM_REORDER, block_id, records[i].round],
                ) {
                    records.swap(i, i + 1);
                    swaps += 1;
                    i += 2; // a swapped pair is not swapped again
                } else {
                    i += 1;
                }
            }
        }
        (dups, swaps)
    }

    /// True when this plan can emit records out of strict round order
    /// (duplicates share a round number; reorders invert pairs).
    pub fn mangles_order(&self) -> bool {
        self.duplicate_rate > 0.0 || self.reorder_rate > 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-probe burst-loss decision shared by the adaptive prober and the
/// survey path: drops a genuinely positive response with probability
/// `rate`, keyed on `(plan seed, block, addr, time)` — `loss_key` is the
/// block's [`FaultPlan::loss_key`].
pub(crate) fn burst_loses_response(loss_key: KeyPrefix, rate: f64, addr: u8, time: u64) -> bool {
    rate > 0.0 && loss_key.chance(rate, &[addr as u64, time])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RoundRecord;
    use crate::trinocular::BlockState;

    fn rec(round: u64, a: f64) -> RoundRecord {
        RoundRecord {
            round,
            probes: 1,
            positives: 1,
            a_short: a,
            a_long: a,
            a_operational: a,
            state: BlockState::Up,
        }
    }

    #[test]
    fn none_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for r in 0..5_000 {
            assert_eq!(p.loss_at(3, r), 0.0);
            assert!(!p.blacked_out(r));
            assert!(!p.truncates_at(r));
            assert!(p.storm_restart_at(3, r).is_none());
            assert!(p.churn_at(r).is_none());
        }
        let mut records: Vec<RoundRecord> = (0..50).map(|r| rec(r, 0.5)).collect();
        let before = records.clone();
        p.mangle_records(3, &mut records);
        assert_eq!(records, before);
    }

    #[test]
    fn presets_are_distinct_and_nonempty() {
        let ps = FaultPlan::presets(9);
        assert!(ps.len() >= 5, "need at least five presets");
        for (name, p) in &ps {
            assert!(!p.is_none(), "{name} injects nothing");
        }
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                assert_ne!(ps[i].1, ps[j].1, "{} == {}", ps[i].0, ps[j].0);
            }
        }
    }

    #[test]
    fn loss_bursts_are_correlated_windows() {
        let p = FaultPlan::loss_heavy(4);
        let lossy: Vec<u64> = (0..2_000).filter(|&r| p.loss_at(1, r) > 0.0).collect();
        assert!(!lossy.is_empty(), "heavy preset never fired in 2000 rounds");
        // Lossy rounds form contiguous runs (bursts), not isolated points.
        let mut runs = Vec::new();
        let mut len = 1u64;
        for w in lossy.windows(2) {
            if w[1] == w[0] + 1 {
                len += 1;
            } else {
                runs.push(len);
                len = 1;
            }
        }
        runs.push(len);
        assert!(runs.iter().any(|&l| l > 1), "no multi-round burst in {runs:?}");
        let b = p.loss_burst.unwrap();
        assert!(runs.iter().all(|&l| l <= b.max_len_rounds), "burst too long: {runs:?}");
    }

    #[test]
    fn loss_bursts_depend_on_block_and_seed() {
        let p = FaultPlan::loss_heavy(4);
        let profile = |plan: &FaultPlan, blk: u64| -> Vec<bool> {
            (0..2_000).map(|r| plan.loss_at(blk, r) > 0.0).collect()
        };
        assert_ne!(profile(&p, 1), profile(&p, 2), "blocks share a burst schedule");
        assert_ne!(
            profile(&p, 1),
            profile(&FaultPlan::loss_heavy(5), 1),
            "seeds share a burst schedule"
        );
        assert_eq!(profile(&p, 1), profile(&p, 1), "schedule must be deterministic");
    }

    #[test]
    fn blackout_covers_exactly_its_window() {
        let p = FaultPlan::blackout(1);
        let b = p.blackout.unwrap();
        assert!(!p.blacked_out(b.start_round - 1));
        assert!(p.blacked_out(b.start_round));
        assert!(p.blacked_out(b.start_round + b.len_rounds - 1));
        assert!(!p.blacked_out(b.start_round + b.len_rounds));
    }

    #[test]
    fn storm_restarts_land_once_per_interval_with_jitter() {
        let p = FaultPlan::restart_storm(7);
        let s = p.restart_storm.unwrap();
        let hits: Vec<u64> = (0..1_000).filter(|&r| p.storm_restart_at(2, r).is_some()).collect();
        // Every interval from the first onwards produces exactly one hit.
        let expected = (1_000 - s.jitter_rounds) / s.interval_rounds;
        assert!(
            hits.len() as u64 >= expected - 1 && hits.len() as u64 <= expected + 1,
            "{} hits, expected ≈{expected}",
            hits.len()
        );
        for w in hits.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                gap >= s.interval_rounds - s.jitter_rounds
                    && gap <= s.interval_rounds + s.jitter_rounds,
                "gap {gap} outside jitter envelope"
            );
        }
    }

    #[test]
    fn truncation_is_a_threshold() {
        let p = FaultPlan::truncated(1);
        let t = p.truncate_after.unwrap();
        assert!(!p.truncates_at(t - 1));
        assert!(p.truncates_at(t));
        assert!(p.truncates_at(t + 1_000));
    }

    #[test]
    fn mangling_duplicates_and_reorders_deterministically() {
        let p = FaultPlan::dup_reorder(11);
        let mk = || -> Vec<RoundRecord> { (0..400).map(|r| rec(r, 0.5)).collect() };
        let mut a = mk();
        let mut b = mk();
        p.mangle_records(6, &mut a);
        p.mangle_records(6, &mut b);
        assert_eq!(a, b, "mangling must be deterministic");
        assert!(a.len() > 400, "no duplicates injected");
        assert!(a.windows(2).any(|w| w[0].round > w[1].round), "no reordering injected");
        // Different block id ⇒ different corruption.
        let mut c = mk();
        p.mangle_records(7, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn duplicates_are_stale_copies_after_the_genuine_record() {
        let p = FaultPlan { duplicate_rate: 1.0, ..FaultPlan::none() };
        let mut r: Vec<RoundRecord> = (0..4).map(|i| rec(i, i as f64 / 10.0)).collect();
        p.mangle_records(1, &mut r);
        // Every record after the first is followed by its predecessor's
        // values under its own round number.
        assert_eq!(r.len(), 7);
        assert_eq!(r[1].round, 1);
        assert_eq!(r[2].round, 1);
        assert_eq!(r[2].a_short, r[0].a_short, "duplicate must carry stale values");
    }
}
