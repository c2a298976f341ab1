//! Fixtures and helpers for the crash-safety suites: the kill-and-resume
//! journal oracle and the panic-quarantine conformance tests.
//!
//! Everything is keyed by fixed seeds (bit-identical at any thread count),
//! and scratch files carry the process id plus a global counter so
//! concurrently running tests never collide.

use crate::matrix::OracleWorld;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The kill-and-resume world: 500 blocks (the kill-and-resume acceptance
/// floor), fixed seed, and a span short enough to keep the suite fast but
/// long enough (≈ 229 rounds) to cover every named fault preset,
/// including the blackout window ending at round 225.
pub const RESILIENCE: OracleWorld = OracleWorld { seed: 0x00C0_FFEE, blocks: 500, days: 1.75 };

/// A collision-free scratch file path for journal tests. The parent
/// directory exists on return; the file itself does not.
pub fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("sleepwatch-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{tag}-{n}.journal"));
    let _ = std::fs::remove_file(&path);
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_probing::FaultPlan;

    #[test]
    fn resilience_world_is_reproducible_and_big_enough() {
        let a = RESILIENCE.world();
        let b = RESILIENCE.world();
        assert_eq!(a.blocks.len(), RESILIENCE.blocks);
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.cfg.seed, b.cfg.seed);
    }

    #[test]
    fn scratch_paths_never_collide() {
        let a = scratch_path("unit");
        let b = scratch_path("unit");
        assert_ne!(a, b);
    }

    #[test]
    fn cfg_covers_the_blackout_preset() {
        let plan = FaultPlan::blackout(1);
        let cfg = RESILIENCE.cfg(plan);
        let b = plan.blackout.expect("preset has a blackout");
        assert!(
            cfg.rounds > b.start_round + b.len_rounds,
            "span too short: {} rounds vs blackout ending at {}",
            cfg.rounds,
            b.start_round + b.len_rounds
        );
    }
}
