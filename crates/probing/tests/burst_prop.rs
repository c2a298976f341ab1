//! The per-epoch loss-burst window against the per-round rule.

use proptest::prelude::*;
use sleepwatch_geoecon::rng::{chance_at, hash_parts};
use sleepwatch_probing::{BurstWindow, FaultPlan, LossBurst};

/// `faults`' stream tag for burst draws.
const STREAM_BURST: u64 = 0x6662_7573;

/// The burst rule as one self-contained per-round query: three keyed
/// draws for the round's epoch, then a containment test.
fn reference_loss(plan: &FaultPlan, block_id: u64, round: u64) -> f64 {
    let Some(b) = plan.loss_burst else { return 0.0 };
    if b.epoch_rounds == 0 {
        return 0.0;
    }
    let epoch = round / b.epoch_rounds;
    if !chance_at(b.burst_chance, &[plan.seed, STREAM_BURST, block_id, epoch]) {
        return 0.0;
    }
    let len =
        1 + hash_parts(&[plan.seed, STREAM_BURST ^ 1, block_id, epoch]) % b.max_len_rounds.max(1);
    let span = b.epoch_rounds.saturating_sub(len).max(1);
    let start =
        epoch * b.epoch_rounds + hash_parts(&[plan.seed, STREAM_BURST ^ 2, block_id, epoch]) % span;
    if round >= start && round < start + len {
        b.loss
    } else {
        0.0
    }
}

/// Any burst shape, with the edge cases drawn often: epochs of 0 and 1
/// rounds, and bursts as long as or longer than their epoch (which would
/// spill into the next one).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u64..6, 2u64..300, 0.0f64..=1.0, 0u64..4, 0u64..400, 0.0f64..=1.0).prop_map(
        |(seed, shape, epoch, burst_chance, len_shape, len, loss)| {
            let epoch_rounds = match shape {
                0 => 0,
                1 => 1,
                _ => epoch,
            };
            let max_len_rounds = match len_shape {
                0 => 0,
                1 => epoch_rounds,
                2 => epoch_rounds + len,
                _ => len,
            };
            let burst = LossBurst { epoch_rounds, burst_chance, max_len_rounds, loss };
            FaultPlan { seed, loss_burst: Some(burst), ..FaultPlan::none() }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn window_answers_every_round_as_loss_at_does(
        plan in arb_plan(),
        block_id in any::<u64>(),
        first in 0u64..100_000,
        rounds in 0u64..1_500,
    ) {
        let mut window = BurstWindow::UNDRAWN;
        for r in first..first + rounds {
            let want = reference_loss(&plan, block_id, r);
            prop_assert_eq!(plan.loss_at(block_id, r).to_bits(), want.to_bits(), "round {}", r);
            let got = window.advance(&plan, block_id, r);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "round {} via {:?}", r, window);
            prop_assert!(window.rounds().contains(&r));
        }
    }

    #[test]
    fn window_answers_rounds_in_any_order(
        plan in arb_plan(),
        block_id in any::<u64>(),
        rounds in prop::collection::vec(0u64..5_000, 0..200),
    ) {
        let mut window = BurstWindow::UNDRAWN;
        for r in rounds {
            let want = reference_loss(&plan, block_id, r);
            prop_assert_eq!(window.advance(&plan, block_id, r).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn a_window_covers_exactly_its_epoch(plan in arb_plan(), block_id in any::<u64>(), epoch in 0u64..1_000) {
        let w = plan.burst_window(block_id, epoch);
        let e = plan.loss_burst.map_or(0, |b| b.epoch_rounds);
        let rounds = if e == 0 { 0..u64::MAX } else { epoch * e..(epoch + 1) * e };
        prop_assert_eq!(w.rounds(), rounds.clone());
        for r in rounds.take(1_000) {
            prop_assert_eq!(w.loss_at(r).to_bits(), reference_loss(&plan, block_id, r).to_bits());
        }
    }
}

#[test]
fn the_empty_plan_draws_one_quiet_window_for_the_whole_run() {
    let plan = FaultPlan::none();
    let mut window = BurstWindow::UNDRAWN;
    assert_eq!(window.advance(&plan, 7, 0), 0.0);
    let drawn = window;
    for r in 1..10_000 {
        assert_eq!(window.advance(&plan, 7, r), 0.0);
    }
    assert_eq!(window, drawn, "the quiet window is never redrawn");
}
