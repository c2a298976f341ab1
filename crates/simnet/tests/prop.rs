//! Property-based tests for the synthetic world: determinism, permutation
//! bijectivity, and behavioural invariants over arbitrary parameters.

use proptest::prelude::*;
use sleepwatch_simnet::{
    AddrKey, AddressBehavior, BlockProfile, BlockSpec, LeaseParams, ProbeMemo, A12W_START,
};

fn arb_profile() -> impl Strategy<Value = BlockProfile> {
    (
        0u16..=128,     // n_stable
        0u16..=128,     // n_diurnal
        0.05f64..=1.0,  // stable_avail
        0.05f64..=1.0,  // diurnal_avail
        0.0f64..24.0,   // onset
        0.0f64..12.0,   // onset_spread
        1.0f64..16.0,   // duration
        0.0f64..4.0,    // sigma_start
        -12.0f64..12.0, // utc offset
    )
        .prop_map(|(ns, nd, sa, da, onset, spread, dur, ss, tz)| BlockProfile {
            n_stable: ns,
            n_diurnal: nd,
            stable_avail: sa,
            diurnal_avail: da,
            onset_hours: onset,
            onset_spread: spread,
            duration_hours: dur,
            duration_spread: 1.0,
            sigma_start: ss,
            sigma_duration: 0.5,
            utc_offset_hours: tz,
        })
}

/// A block exercising every input the probe functions read: per-day noise
/// on or off, any timezone, lease sweeps, an outage, weekend scaling,
/// drift and a non-identity address permutation.
fn arb_block() -> impl Strategy<Value = BlockSpec> {
    let noise = (prop::option::of(0.05f64..4.0), prop::option::of(0.05f64..4.0), -11i32..=12);
    // One block in four is a lease sweep; the rest draw daily windows.
    let lease = (0u8..4, 2.0f64..30.0, 0.1f64..1.0);
    let extras = (
        prop::option::of((0u64..(8 * 86_400), 0u64..(2 * 86_400))), // outage start, length
        prop::option::of(0.3f64..1.0),                              // weekend scale
        prop::option::of(-5.0f64..5.0),                             // drift
        0u8..=255,                                                  // perm offset
        0u8..=127,                                                  // perm step / 2
    );
    (arb_profile(), noise, lease, extras, 0u64..1000, any::<bool>()).prop_map(
        |(mut profile, (ss, sd, tz), lease, (outage, weekend, drift, off, step), seed, a12w)| {
            profile.sigma_start = ss.unwrap_or(0.0);
            profile.sigma_duration = sd.unwrap_or(0.0);
            profile.utc_offset_hours = tz as f64;
            let epoch = if a12w { A12W_START } else { 0 };
            let mut b = BlockSpec::bare(seed ^ 0xB10C, seed, profile);
            let (pick, period_hours, duty) = lease;
            b.lease = (pick == 0).then_some(LeaseParams { period_hours, duty });
            b.outage = outage.map(|(s, len)| (epoch + s, epoch + s + len));
            b.weekend_scale = weekend.unwrap_or(1.0);
            b.drift_addr_per_day = drift.unwrap_or(0.0);
            b.drift_ref = epoch;
            b.perm_offset = off;
            b.perm_step = step * 2 + 1;
            b
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn address_permutation_is_always_a_bijection(
        offset in 0u8..=255,
        step_half in 0u8..=127,
    ) {
        let mut b = BlockSpec::bare(1, 1, BlockProfile::always_on(10, 0.5));
        b.perm_offset = offset;
        b.perm_step = step_half * 2 + 1;
        let mut seen = [false; 256];
        for slot in 0..=255u8 {
            let a = b.slot_to_addr(slot);
            prop_assert!(!seen[a as usize]);
            seen[a as usize] = true;
            prop_assert_eq!(b.addr_to_slot(a), slot);
        }
    }

    #[test]
    fn class_counts_match_profile(profile in arb_profile(), seed in 0u64..1000) {
        let b = BlockSpec::bare(3, seed, profile);
        let mut stable = 0u16;
        let mut diurnal = 0u16;
        for addr in 0..=255u8 {
            match b.behavior_of(addr) {
                AddressBehavior::On { .. } => stable += 1,
                AddressBehavior::Diurnal { .. } | AddressBehavior::Periodic { .. } => diurnal += 1,
                AddressBehavior::Inactive => {}
            }
        }
        prop_assert_eq!(stable, profile.n_stable);
        prop_assert_eq!(diurnal, profile.n_diurnal);
    }

    #[test]
    fn availability_is_a_probability(
        profile in arb_profile(),
        seed in 0u64..1000,
        time in 0u64..(40 * 86_400),
    ) {
        let b = BlockSpec::bare(4, seed, profile);
        let a = b.true_availability(time);
        prop_assert!((0.0..=1.0).contains(&a), "A = {a}");
        let active = b.active_count(time);
        prop_assert!(active <= b.ever_active_count());
    }

    #[test]
    fn probing_is_deterministic(
        profile in arb_profile(),
        seed in 0u64..1000,
        addr in 0u8..=255,
        time in 0u64..(40 * 86_400),
    ) {
        let b = BlockSpec::bare(5, seed, profile);
        prop_assert_eq!(b.probe(addr, time), b.probe(addr, time));
    }

    #[test]
    fn drift_keeps_probabilities_clamped(
        drift in -50.0f64..50.0,
        time in 0u64..(40 * 86_400),
    ) {
        let mut b = BlockSpec::bare(6, 9, BlockProfile::always_on(100, 0.5));
        b.drift_addr_per_day = drift;
        let p = b.response_probability(b.slot_to_addr(0), time);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn diurnal_duty_cycle_tracks_duration(
        dur in 2.0f64..20.0,
        onset in 0.0f64..24.0,
    ) {
        let key = AddrKey { seed: 1, block: 2, addr: 3 };
        let b = AddressBehavior::Diurnal {
            onset_hours: onset,
            duration_hours: dur,
            sigma_start: 0.0,
            sigma_duration: 0.0,
            avail: 1.0,
            utc_offset_hours: 0.0,
        };
        let rounds = 131 * 40;
        let up = (0..rounds).filter(|&r| b.is_up(key, r * 660)).count();
        let duty = up as f64 / rounds as f64;
        prop_assert!((duty - dur / 24.0).abs() < 0.02, "duty {duty} for {dur}h");
    }

    #[test]
    fn inactive_addresses_never_respond(
        seed in 0u64..1000,
        time in 0u64..(40 * 86_400),
    ) {
        let b = BlockSpec::bare(8, seed, BlockProfile::always_on(100, 1.0));
        // Slots ≥ 100 are inactive.
        let addr = b.slot_to_addr(200);
        prop_assert!(!b.probe(addr, time));
    }
    /// One memo driven through an arbitrary time sequence — ascending by
    /// rounds, repeated instants, backwards jumps, ±3-day jumps — answers
    /// every octet exactly as the memo-less functions do at every step.
    #[test]
    fn memo_matches_direct_on_any_time_sequence(
        block in arb_block(),
        steps in prop::collection::vec((0u8..7, 1u64..=40), 30..90),
    ) {
        // Far enough in that backwards jumps have room.
        let mut time = block.drift_ref + 4 * 86_400;
        let mut memo = ProbeMemo::new(&block);
        for (kind, n) in steps {
            time = match kind {
                0..=2 => time + n * 660,
                3 => time,
                4 => time.saturating_sub(n * 5 * 660),
                5 => time + 3 * 86_400,
                _ => time.saturating_sub(3 * 86_400),
            };
            for addr in 0..=255u8 {
                prop_assert_eq!(
                    memo.probe_outcome(&block, addr, time),
                    block.probe_outcome(addr, time),
                    "probe_outcome, addr {} at {}", addr, time
                );
                prop_assert_eq!(
                    memo.probe(&block, addr, time),
                    block.probe(addr, time),
                    "probe, addr {} at {}", addr, time
                );
            }
        }
    }
}
