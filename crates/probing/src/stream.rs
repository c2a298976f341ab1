//! Round-stream adapter: replays prober output as an event feed.
//!
//! The batch pipeline hands a whole [`BlockRun`] to analysis at once. A
//! live deployment instead sees a *stream*: rounds for many blocks
//! arriving interleaved, with faults (duplicates, reordering, truncation)
//! already baked into each block's record sequence by the prober. This
//! module is the bridge — it flattens prober output into
//! [`RoundEvent`]s and deterministically interleaves many blocks'
//! streams so ingest tests can replay any arrival order they like while
//! preserving the one invariant real transports give us: **per-block
//! order**. Events for one block arrive in emission order; events for
//! different blocks may be shuffled arbitrarily.

use crate::record::{BlockRun, RoundRecord};
use sleepwatch_geoecon::rng::hash_parts;

/// Stream tag for interleaving draws.
const STREAM_INTERLEAVE: u64 = 0x696e_746c; // "intl"

/// One element of a live ingest feed.
///
/// Deliberately lean (24 bytes): queue memory is bounded by
/// `capacity × size_of::<RoundEvent>()`, and a materialized feed is
/// `events × size_of::<RoundEvent>()`, so the event carries exactly what
/// downstream analysis consumes — the batch pipeline only ever reads
/// `(round, a_short)` from a record, plus the run-level outage and probe
/// totals delivered by the terminal [`RoundEvent::Finish`]. The tag shares
/// a word with `round` (or `outages`); the wire keeps 8 bytes for the
/// round either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundEvent {
    /// One probing round's short-term availability estimate.
    Round {
        /// The probed block.
        block_id: u64,
        /// Round index within the run (may repeat or regress under
        /// dup/reorder faults, exactly as the prober emitted it).
        round: u32,
        /// The round's `Âs` estimate.
        a_short: f64,
    },
    /// End of a block's run, carrying the run-level totals.
    Finish {
        /// The probed block.
        block_id: u64,
        /// Outages the prober detected during the run.
        outages: u32,
        /// Total probes the prober sent.
        total_probes: u64,
    },
}

const _: () = assert!(std::mem::size_of::<RoundEvent>() == 24);

impl RoundEvent {
    /// The block this event belongs to.
    #[inline]
    pub fn block_id(&self) -> u64 {
        match *self {
            RoundEvent::Round { block_id, .. } | RoundEvent::Finish { block_id, .. } => block_id,
        }
    }
}

/// Flattens one block's records into its event stream: one
/// [`RoundEvent::Round`] per record in emission order, then the terminal
/// [`RoundEvent::Finish`].
pub fn record_events(
    block_id: u64,
    records: &[RoundRecord],
    outages: u32,
    total_probes: u64,
) -> Vec<RoundEvent> {
    let mut out = Vec::with_capacity(records.len() + 1);
    out.extend(record_rounds(records).map(|(round, a_short)| RoundEvent::Round {
        block_id,
        round,
        a_short,
    }));
    out.push(RoundEvent::Finish { block_id, outages, total_probes });
    out
}

/// The `(round, Âs)` pair each record sends, in emission order: what a
/// block's [`RoundEvent::Round`]s carry.
pub fn record_rounds(records: &[RoundRecord]) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
    records.iter().map(|r| {
        // The one place a round narrows. A record's round is below its
        // run's round count, and no run the pipeline analyzes is longer
        // than the FFT planner's `MAX_PLAN_LEN` = 2^30 rounds, which
        // `sleepwatch_spectral` const-asserts below the `u32` limit (the
        // CLI refuses longer spans up front).
        let round = u32::try_from(r.round).expect("a plannable run has fewer than 2^32 rounds");
        (round, r.a_short)
    })
}

/// Replays a completed [`BlockRun`] as its event stream.
pub fn replay_run(run: &BlockRun) -> Vec<RoundEvent> {
    record_events(run.block_id, &run.records, run.outages.len() as u32, run.total_probes)
}

/// Merges many per-block streams into one feed, preserving each stream's
/// internal order while shuffling across streams: [`Interleave`],
/// collected.
pub fn interleave(streams: Vec<Vec<RoundEvent>>, seed: u64) -> Vec<RoundEvent> {
    Interleave::new(streams, seed).collect()
}

/// The merge behind [`interleave`], one event at a time, so a consumer
/// can take a feed as it is merged instead of holding it twice.
///
/// The merge is a keyed deterministic walk — at every step a splitmix
/// draw over `(seed, step)` picks which live stream advances — so a
/// given `(streams, seed)` always produces the same interleaving, and
/// different seeds exercise genuinely different arrival orders. This is
/// the adversarial input generator for the ingest equivalence oracle:
/// correctness must not depend on which interleaving the transport
/// happened to deliver. A stream is any exact-size iterator of events:
/// the walk reads only how many each has left, so the order depends on
/// the streams' lengths and the seed, never on how a stream stores its
/// events. A stream is dropped as soon as its last event is taken.
#[derive(Debug)]
pub struct Interleave<S = std::vec::IntoIter<RoundEvent>> {
    /// The streams with events left, in the order the walk indexes them.
    alive: Vec<S>,
    seed: u64,
    step: u64,
    left: usize,
}

impl<S: ExactSizeIterator<Item = RoundEvent>> Interleave<S> {
    /// The walk over `streams` keyed by `seed`.
    pub fn new<I>(streams: I, seed: u64) -> Interleave<S>
    where
        I: IntoIterator,
        I::Item: IntoIterator<IntoIter = S>,
    {
        let alive: Vec<S> =
            streams.into_iter().map(IntoIterator::into_iter).filter(|s| s.len() > 0).collect();
        let left = alive.iter().map(ExactSizeIterator::len).sum();
        Interleave { alive, seed, step: 0, left }
    }
}

impl<S: ExactSizeIterator<Item = RoundEvent>> Iterator for Interleave<S> {
    type Item = RoundEvent;

    fn next(&mut self) -> Option<RoundEvent> {
        if self.alive.is_empty() {
            return None;
        }
        let draw = hash_parts(&[self.seed, STREAM_INTERLEAVE, self.step]);
        let pick = (draw % self.alive.len() as u64) as usize;
        let stream = &mut self.alive[pick];
        let ev = stream.next()?;
        if stream.len() == 0 {
            self.alive.swap_remove(pick);
        }
        self.step += 1;
        self.left -= 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<S: ExactSizeIterator<Item = RoundEvent>> ExactSizeIterator for Interleave<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trinocular::{TrinocularConfig, TrinocularProber};
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    fn run_of(id: u64, rounds: u64) -> BlockRun {
        let block = BlockSpec::bare(id, 64 + id, BlockProfile::always_on(64, 0.9));
        let mut prober = TrinocularProber::new(&block, TrinocularConfig::default());
        prober.run(&block, 0, rounds)
    }

    #[test]
    fn replay_preserves_record_order_and_totals() {
        let run = run_of(3, 50);
        let events = replay_run(&run);
        assert_eq!(events.len(), run.records.len() + 1);
        for (ev, rec) in events.iter().zip(&run.records) {
            assert_eq!(
                *ev,
                RoundEvent::Round { block_id: 3, round: rec.round as u32, a_short: rec.a_short }
            );
        }
        assert_eq!(
            *events.last().unwrap(),
            RoundEvent::Finish {
                block_id: 3,
                outages: run.outages.len() as u32,
                total_probes: run.total_probes
            }
        );
    }

    #[test]
    fn interleave_is_an_order_preserving_permutation() {
        let streams: Vec<Vec<RoundEvent>> = (0..5).map(|id| replay_run(&run_of(id, 40))).collect();
        let merged = interleave(streams.clone(), 0xFEED);
        assert_eq!(merged.len(), streams.iter().map(Vec::len).sum::<usize>());
        // Splitting the merged feed back out by block reproduces every
        // stream exactly: per-block order survived the shuffle.
        for (id, want) in streams.iter().enumerate() {
            let got: Vec<RoundEvent> =
                merged.iter().copied().filter(|e| e.block_id() == id as u64).collect();
            assert_eq!(&got, want, "block {id} stream mangled");
        }
    }

    #[test]
    fn interleave_is_seed_deterministic_and_seed_sensitive() {
        let streams: Vec<Vec<RoundEvent>> = (0..4).map(|id| replay_run(&run_of(id, 30))).collect();
        let a = interleave(streams.clone(), 1);
        assert_eq!(a, interleave(streams.clone(), 1), "same seed, same order");
        assert_ne!(a, interleave(streams, 2), "different seed, different order");
    }

    #[test]
    fn interleave_handles_empty_streams() {
        assert!(interleave(Vec::new(), 7).is_empty());
        let streams = vec![Vec::new(), replay_run(&run_of(1, 10)), Vec::new()];
        let merged = interleave(streams.clone(), 7);
        assert_eq!(merged, streams[1]);
    }

    #[test]
    fn interleave_reports_exactly_what_is_left() {
        let streams: Vec<Vec<RoundEvent>> = (0..3).map(|id| replay_run(&run_of(id, 20))).collect();
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut merge = Interleave::new(streams, 5);
        for left in (0..total).rev() {
            assert!(merge.next().is_some());
            assert_eq!(merge.len(), left);
        }
        assert_eq!(merge.next(), None);
    }
}
