//! Census-based bootstrap: how Trinocular learns which addresses to probe.
//!
//! The real system does not know a block's ever-active set a priori — it
//! builds `E(b)` and the historical availability estimate from years of
//! low-rate full-space censuses (§2.5, ref. \[10\]). This module simulates that
//! history: a configurable number of full passes over the /24 spread across
//! a historical window, recording which addresses ever answered and how
//! often.
//!
//! Using a census record (instead of the block spec's ground truth) gives
//! the prober the real system's blind spots: very sparsely used addresses
//! — like USC's heavily overprovisioned wireless pools in §3.2.4 — may
//! never answer during the census and are then invisible to adaptive
//! probing. Blocks whose discovered `E(b)` is below the policy threshold
//! are excluded from probing entirely, exactly the "policy constraint" the
//! paper blames for its wireless false negatives.

use sleepwatch_simnet::BlockSpec;

/// Census parameters.
#[derive(Debug, Clone, Copy)]
pub struct CensusConfig {
    /// Number of full passes over the block.
    pub passes: u32,
    /// Minimum responses across the census for an address to count as
    /// ever-active. 1 = literally ever responded; higher values model the
    /// recent-activity screen that excludes one-off responders (needed to
    /// reproduce §3.2.4's exclusion of USC's overprovisioned wireless).
    pub min_responses: u32,
}

impl Default for CensusConfig {
    fn default() -> Self {
        // A couple of years of quarterly censuses, like the real archive.
        CensusConfig { passes: 8, min_responses: 1 }
    }
}

/// Trinocular's analyzability policy: blocks with fewer discovered
/// ever-active addresses than this are not probed (paper: 15).
const MIN_EVER_ACTIVE: usize = 15;

/// What the census learned about one block.
#[derive(Debug, Clone)]
pub struct CensusRecord {
    /// The block's id.
    pub block_id: u64,
    /// Addresses that answered at least once, ascending.
    pub ever_active: Vec<u8>,
    /// Per-discovered-address response counts (parallel to `ever_active`).
    pub response_counts: Vec<u32>,
    /// Historical availability estimate: responses / (discovered × passes).
    pub hist_avail: f64,
    /// Passes performed.
    pub passes: u32,
}

impl CensusRecord {
    /// Number of discovered ever-active addresses.
    pub fn discovered(&self) -> usize {
        self.ever_active.len()
    }

    /// Whether the block meets the probing policy.
    pub(crate) fn analyzable(&self) -> bool {
        self.discovered() >= MIN_EVER_ACTIVE
    }
}

/// Historical window the passes are spread over, in days, ending at the
/// census's `end_time`.
const WINDOW_DAYS: f64 = 730.0;

/// Runs a census of `block`: `cfg.passes` full sweeps spread uniformly over
/// the window ending at `end_time`.
pub fn run_census(block: &BlockSpec, end_time: u64, cfg: &CensusConfig) -> CensusRecord {
    let window = (WINDOW_DAYS * 86_400.0) as u64;
    let start = end_time.saturating_sub(window);
    let step = if cfg.passes > 1 { window / (cfg.passes as u64 - 1).max(1) } else { 0 };

    let mut counts = [0u32; 256];
    for pass in 0..cfg.passes {
        // Sweeps hit addresses a few seconds apart; model each pass at a
        // single instant plus a per-address skew of one round.
        let t = start + pass as u64 * step;
        for addr in 0..=255u8 {
            if block.probe(addr, t + addr as u64) {
                counts[addr as usize] += 1;
            }
        }
    }

    let mut ever_active = Vec::new();
    let mut response_counts = Vec::new();
    for (addr, &count) in counts.iter().enumerate() {
        if count >= cfg.min_responses.max(1) {
            ever_active.push(addr as u8);
            response_counts.push(count);
        }
    }
    let total: u32 = response_counts.iter().sum();
    let hist_avail = if ever_active.is_empty() {
        0.0
    } else {
        total as f64 / (ever_active.len() as u32 * cfg.passes) as f64
    };
    CensusRecord {
        block_id: block.id,
        ever_active,
        response_counts,
        hist_avail,
        passes: cfg.passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    fn block(n: u16, avail: f64) -> BlockSpec {
        BlockSpec::bare(1, 77, BlockProfile::always_on(n, avail))
    }

    #[test]
    fn census_discovers_reliable_addresses() {
        let b = block(100, 1.0);
        let c = run_census(&b, 1_000_000_000, &CensusConfig::default());
        assert_eq!(c.discovered(), 100);
        assert!((c.hist_avail - 1.0).abs() < 1e-9);
        assert!(c.analyzable());
    }

    #[test]
    fn census_misses_rarely_responding_addresses() {
        // avail 0.1 over 8 passes: each address responds with
        // P = 1 − 0.9⁸ ≈ 0.57, so a noticeable share stays undiscovered.
        let b = block(200, 0.1);
        let c = run_census(&b, 1_000_000_000, &CensusConfig::default());
        assert!(c.discovered() < 190, "discovered {}", c.discovered());
        assert!(c.discovered() > 60, "discovered {}", c.discovered());
    }

    #[test]
    fn sparse_blocks_fail_the_policy() {
        let b = block(8, 0.9);
        let c = run_census(&b, 1_000_000_000, &CensusConfig::default());
        assert!(!c.analyzable(), "8 < 15 must be excluded");
    }

    #[test]
    fn empty_block_census() {
        let b = block(0, 0.5);
        let c = run_census(&b, 1_000_000_000, &CensusConfig::default());
        assert_eq!(c.discovered(), 0);
        assert_eq!(c.hist_avail, 0.0);
    }

    #[test]
    fn hist_avail_tracks_true_availability() {
        let b = block(150, 0.6);
        let cfg = CensusConfig { passes: 40, ..Default::default() };
        let c = run_census(&b, 1_000_000_000, &cfg);
        let truth = b.true_availability(1_000_000_000);
        assert!((c.hist_avail - truth).abs() < 0.08, "hist {} vs truth {}", c.hist_avail, truth);
    }

    #[test]
    fn diurnal_addresses_discovered_when_census_hits_their_day() {
        let b = BlockSpec::bare(
            2,
            5,
            BlockProfile {
                n_stable: 20,
                n_diurnal: 100,
                stable_avail: 1.0,
                diurnal_avail: 1.0,
                onset_hours: 8.0,
                onset_spread: 1.0,
                duration_hours: 10.0,
                duration_spread: 0.0,
                sigma_start: 0.0,
                sigma_duration: 0.0,
                utc_offset_hours: 0.0,
            },
        );
        // Many passes: some land inside the daily window.
        let cfg = CensusConfig { passes: 16, ..Default::default() };
        let c = run_census(&b, 1_000_000_000, &cfg);
        assert!(c.discovered() > 100, "stable + most diurnal: {}", c.discovered());
        // Diurnal addresses respond in fewer passes than the stable ones.
        assert!(c.hist_avail < 0.9, "hist {}", c.hist_avail);
    }

    #[test]
    fn census_is_deterministic() {
        let b = block(120, 0.4);
        let cfg = CensusConfig::default();
        let c1 = run_census(&b, 123_456_789, &cfg);
        let c2 = run_census(&b, 123_456_789, &cfg);
        assert_eq!(c1.ever_active, c2.ever_active);
        assert_eq!(c1.response_counts, c2.response_counts);
    }
}
