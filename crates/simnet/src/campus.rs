//! A campus network in the style of §3.2.4's USC ground-truth study.
//!
//! The paper validates its diurnal detection against operator knowledge of
//! one university: a few hundred /24s with very different management —
//! heavily overprovisioned wireless pools ("one wireless address for every
//! student … around ten live addresses at any time"), centrally managed
//! dynamic pools, general-use building networks (some hiding decentralized
//! 16-address dynamic pockets), and server space. This module generates
//! such a campus with known per-block roles so experiments can score
//! true/false positives and the policy-exclusion false negatives.

use crate::block::{BlockProfile, BlockSpec, LinkClass, Links};
use sleepwatch_geoecon::rng::KeyedRng;

/// Ground-truth role of a campus block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampusUse {
    /// Overprovisioned wireless pool: many addresses seen over months, ~10
    /// live at any instant.
    Wireless,
    /// Centrally managed dynamic pool: strongly diurnal.
    Dynamic,
    /// General building use: mostly always-on desktops/printers.
    GeneralUse,
    /// General use with a decentralized pocket of 16 dynamic addresses.
    GeneralWithPocket,
    /// Server/datacenter space: dense and always on.
    Server,
}

impl CampusUse {
    /// Whether the role is *expected* to behave diurnally (the operator's
    /// prior — the paper found general-use blocks surprising them).
    pub(crate) fn expected_diurnal(self) -> bool {
        matches!(self, CampusUse::Wireless | CampusUse::Dynamic)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CampusUse::Wireless => "wireless",
            CampusUse::Dynamic => "dynamic",
            CampusUse::GeneralUse => "general",
            CampusUse::GeneralWithPocket => "general+pocket",
            CampusUse::Server => "server",
        }
    }
}

/// Overprovisioned wireless blocks (USC: 142).
const WIRELESS_BLOCKS: usize = 142;
/// Dynamic pools (USC DNS labels 32 blocks dynamic).
const DYNAMIC_BLOCKS: usize = 32;
/// General-use blocks without pockets.
const GENERAL_BLOCKS: usize = 240;
/// General-use blocks with a 16-address dynamic pocket.
const GENERAL_WITH_POCKET_BLOCKS: usize = 40;
/// Server blocks.
const SERVER_BLOCKS: usize = 60;
/// Campus timezone (USC: UTC−8 ≈ −7.9 h from longitude).
const UTC_OFFSET_HOURS: f64 = -8.0;

/// Builds the campus, its behaviour streams keyed by `seed`: `(block,
/// role)` pairs with sequential ids, in the USC composition of §3.2.4.
pub fn generate_campus(seed: u64) -> Vec<(BlockSpec, CampusUse)> {
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut push = |role: CampusUse, n: usize, out: &mut Vec<(BlockSpec, CampusUse)>| {
        for _ in 0..n {
            let mut rng = KeyedRng::from_parts(&[seed, 0x6361_6d70, id]);
            let profile = match role {
                CampusUse::Wireless => BlockProfile {
                    // Hundreds of addresses used over months, each up for
                    // about an hour a day scattered across the whole day:
                    // ~10 live at once.
                    n_stable: 2,
                    n_diurnal: 180 + rng.below(60) as u16,
                    stable_avail: 0.95,
                    diurnal_avail: 0.9,
                    onset_hours: 7.0,
                    onset_spread: 13.0,
                    duration_hours: 1.0 + rng.next_f64() * 0.6,
                    duration_spread: 0.5,
                    sigma_start: 1.0,
                    sigma_duration: 0.4,
                    utc_offset_hours: UTC_OFFSET_HOURS,
                },
                CampusUse::Dynamic => BlockProfile {
                    n_stable: 5 + rng.below(10) as u16,
                    n_diurnal: 120 + rng.below(100) as u16,
                    stable_avail: 0.9,
                    diurnal_avail: 0.85,
                    onset_hours: 8.0 + rng.normal() * 0.7,
                    onset_spread: 2.5,
                    duration_hours: 9.0 + rng.next_f64() * 3.0,
                    duration_spread: 2.0,
                    sigma_start: 0.7,
                    sigma_duration: 0.8,
                    utc_offset_hours: UTC_OFFSET_HOURS,
                },
                CampusUse::GeneralUse => BlockProfile {
                    utc_offset_hours: UTC_OFFSET_HOURS,
                    ..BlockProfile::always_on(
                        60 + rng.below(120) as u16,
                        0.55 + rng.next_f64() * 0.4,
                    )
                },
                CampusUse::GeneralWithPocket => BlockProfile {
                    // The §3.2.4 surprise: a 16-address dynamic range inside
                    // an otherwise general-use block.
                    n_stable: 50 + rng.below(80) as u16,
                    n_diurnal: 16,
                    stable_avail: 0.6 + rng.next_f64() * 0.3,
                    diurnal_avail: 0.85,
                    onset_hours: 8.5,
                    onset_spread: 2.0,
                    duration_hours: 9.0,
                    duration_spread: 1.0,
                    sigma_start: 0.5,
                    sigma_duration: 0.5,
                    utc_offset_hours: UTC_OFFSET_HOURS,
                },
                CampusUse::Server => BlockProfile {
                    utc_offset_hours: UTC_OFFSET_HOURS,
                    ..BlockProfile::always_on(
                        40 + rng.below(160) as u16,
                        0.9 + rng.next_f64() * 0.09,
                    )
                },
            };
            let mut b = BlockSpec::bare(id, seed, profile);
            // Pocket blocks are predominantly always-on, so the planted
            // ground-truth label follows the operator's expectation.
            b.planted_diurnal = role.expected_diurnal();
            b.perm_offset = rng.below(256) as u8;
            b.perm_step = (rng.below(128) as u8) * 2 + 1;
            b.links = match role {
                CampusUse::Wireless => Links::from([LinkClass::Dhcp]),
                CampusUse::Dynamic => Links::from([LinkClass::Dynamic]),
                CampusUse::Server => Links::from([LinkClass::Server]),
                _ => Links::from([LinkClass::Static]),
            };
            out.push((b, role));
            id += 1;
        }
    };
    push(CampusUse::Wireless, WIRELESS_BLOCKS, &mut out);
    push(CampusUse::Dynamic, DYNAMIC_BLOCKS, &mut out);
    push(CampusUse::GeneralUse, GENERAL_BLOCKS, &mut out);
    push(CampusUse::GeneralWithPocket, GENERAL_WITH_POCKET_BLOCKS, &mut out);
    push(CampusUse::Server, SERVER_BLOCKS, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "USC".
    const SEED: u64 = 0x0055_5343;

    #[test]
    fn composition_matches_config() {
        let campus = generate_campus(SEED);
        let count = |role: CampusUse| campus.iter().filter(|(_, r)| *r == role).count();
        assert_eq!(count(CampusUse::Wireless), 142);
        assert_eq!(count(CampusUse::Dynamic), 32);
        assert_eq!(count(CampusUse::GeneralUse), 240);
        assert_eq!(count(CampusUse::GeneralWithPocket), 40);
        assert_eq!(count(CampusUse::Server), 60);
        assert_eq!(campus.len(), 514);
    }

    #[test]
    fn wireless_blocks_are_sparse_at_any_instant() {
        let campus = generate_campus(SEED);
        let (b, _) = campus.iter().find(|(_, r)| *r == CampusUse::Wireless).unwrap();
        // Count live addresses at several times of day.
        let mut total = 0usize;
        let samples = 24;
        for h in 0..samples {
            total += b.active_count(h * 3_600);
        }
        let mean_live = total as f64 / samples as f64;
        assert!(
            (3.0..25.0).contains(&mean_live),
            "overprovisioned wireless should hold ~10 live, got {mean_live}"
        );
        assert!(b.ever_active_count() > 150, "many addresses used over months");
    }

    #[test]
    fn dynamic_blocks_swing_daily() {
        let campus = generate_campus(SEED);
        let (b, _) = campus.iter().find(|(_, r)| *r == CampusUse::Dynamic).unwrap();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for h in 0..24u64 {
            let a = b.true_availability(h * 3_600);
            lo = lo.min(a);
            hi = hi.max(a);
        }
        assert!(hi - lo > 0.3, "dynamic pool must swing: {lo}..{hi}");
    }

    #[test]
    fn server_blocks_are_flat_and_dense() {
        let campus = generate_campus(SEED);
        let (b, _) = campus.iter().find(|(_, r)| *r == CampusUse::Server).unwrap();
        let a0 = b.true_availability(3 * 3_600);
        let a12 = b.true_availability(15 * 3_600);
        assert!((a0 - a12).abs() < 0.02, "servers don't sleep");
        assert!(a0 > 0.85);
    }

    #[test]
    fn roles_expectations() {
        assert!(CampusUse::Wireless.expected_diurnal());
        assert!(CampusUse::Dynamic.expected_diurnal());
        assert!(!CampusUse::GeneralUse.expected_diurnal());
        assert!(!CampusUse::Server.expected_diurnal());
        assert_eq!(CampusUse::GeneralWithPocket.label(), "general+pocket");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_campus(SEED);
        let b = generate_campus(SEED);
        for ((ba, ra), (bb, rb)) in a.iter().zip(&b) {
            assert_eq!(ra, rb);
            assert_eq!(ba.profile.n_diurnal, bb.profile.n_diurnal);
            assert_eq!(ba.perm_offset, bb.perm_offset);
        }
    }
}
