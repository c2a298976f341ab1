//! Poisoned-scratch properties: `analyze_block_with_scratch` output must
//! be independent of whatever the arena held before the call — NaN-filled
//! buffers, garbage lengths, or genuine stale state left by analyzing a
//! *different* block. Anything less would make worker-local scratch reuse
//! order-dependent and break the differential equivalence guarantees.

use proptest::prelude::*;
use sleepwatch_core::{analyze_block, analyze_block_with_scratch, AnalysisConfig, BlockScratch};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::{BlockProfile, BlockSpec, A12W_START};

/// A parameterized block: diurnal mix and timezone vary per case.
fn block(id: u64, seed: u64, n_diurnal: u16, offset_h: f64) -> BlockSpec {
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

fn cfg(start_time: u64, days: f64, faulted: bool) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::over_days(start_time, days);
    if faulted {
        cfg.faults = FaultPlan::loss_heavy(0xBAD);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fresh scratch, poisoned scratch and a scratch still warm from a
    /// *different* block all produce the same summary — which also
    /// matches the allocating `analyze_block` wrapper.
    #[test]
    fn output_is_independent_of_scratch_contents(
        seed in 1u64..500,
        n_diurnal in 0u16..200,
        offset_h in -11i32..12,
        poison_seed in 0u64..u64::MAX,
        faulted in any::<bool>(),
        a12w in any::<bool>(),
    ) {
        let b = block(1, seed, n_diurnal, offset_h as f64);
        // The poisoned probe memo carries window tags for both epochs.
        let start = if a12w { A12W_START } else { 0 };
        let acfg = cfg(start, 3.0, faulted);

        let mut fresh = BlockScratch::new();
        let want = analyze_block_with_scratch(&b, &acfg, &mut fresh);

        let mut poisoned = BlockScratch::new();
        poisoned.poison(poison_seed);
        prop_assert_eq!(analyze_block_with_scratch(&b, &acfg, &mut poisoned), want);

        // Stale state from a genuinely different block (other profile,
        // other span ⇒ other buffer lengths).
        let mut stale = BlockScratch::new();
        let other = block(2, seed.wrapping_add(17), 200 - n_diurnal, -(offset_h as f64));
        analyze_block_with_scratch(&other, &cfg(start, 4.0, false), &mut stale);
        prop_assert_eq!(analyze_block_with_scratch(&b, &acfg, &mut stale), want);

        // And the allocating wrapper agrees with all of the above.
        prop_assert_eq!(analyze_block(&b, &acfg).summary(), want);
    }

    /// Repeated reuse of one arena over a shuffled block sequence matches
    /// a fresh arena per block, case by case.
    #[test]
    fn reuse_across_a_block_sequence_matches_fresh(
        seed in 1u64..500,
        n_blocks in 2usize..6,
    ) {
        let blocks: Vec<BlockSpec> = (0..n_blocks as u64)
            .map(|i| block(i, seed.wrapping_add(i), (i as u16 * 57) % 201, (i as f64 * 5.0) - 10.0))
            .collect();
        let acfg = cfg(0, 3.0, false);
        let mut reused = BlockScratch::new();
        for b in &blocks {
            let mut fresh = BlockScratch::new();
            prop_assert_eq!(
                analyze_block_with_scratch(b, &acfg, &mut reused),
                analyze_block_with_scratch(b, &acfg, &mut fresh),
                "block {} diverged under reuse", b.id
            );
        }
    }
}
