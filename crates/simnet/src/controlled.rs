//! The controlled simulation blocks of §3.2.2.
//!
//! "We simulate one /24 block (256 addresses) … In that block, 50 addresses
//! are stable and always responding, and `n_d = 100` addresses are diurnal,
//! and the remaining addresses are not active. Diurnal addresses are
//! responsive for 8 hours and down for 16 hours each day. Each diurnal
//! address `i` turns on at a certain time during the day, the phase `φ_i`",
//! with `φ_i ~ U[0, Φ]` and per-day Gaussian noise `σ_s` on the start and
//! `σ_d` on the duration.

use crate::block::{BlockProfile, BlockSpec};

/// Parameters of one controlled experiment, named as in the paper.
#[derive(Debug, Clone, Copy)]
pub struct ControlledConfig {
    /// Number of stable, always-responding addresses (paper: 50).
    pub n_stable: u16,
    /// Number of diurnal addresses `n_d` (paper default: 100).
    pub n_diurnal: u16,
    /// Maximum phase `Φ`: per-address onsets are uniform in `[0, Φ]` hours.
    pub phi_hours: f64,
    /// Per-day start-time noise `σ_s`, hours.
    pub sigma_start: f64,
    /// Per-day duration noise `σ_d`, hours.
    pub sigma_duration: f64,
}

impl Default for ControlledConfig {
    fn default() -> Self {
        ControlledConfig {
            n_stable: 50,
            n_diurnal: 100,
            phi_hours: 0.0,
            sigma_start: 0.0,
            sigma_duration: 0.0,
        }
    }
}

/// Up-time per day of a diurnal address, hours (paper: 8).
const UP_HOURS: f64 = 8.0;

impl ControlledConfig {
    /// Builds the controlled block. `seed` drives the once-per-experiment
    /// phase draws and the per-day noise; `id` separates repeated
    /// experiments within a batch.
    pub fn build(&self, seed: u64, id: u64) -> BlockSpec {
        assert!(
            self.n_stable as u32 + self.n_diurnal as u32 <= 256,
            "a /24 holds at most 256 addresses"
        );
        let profile = BlockProfile {
            n_stable: self.n_stable,
            n_diurnal: self.n_diurnal,
            stable_avail: 1.0,
            diurnal_avail: 1.0,
            onset_hours: 0.0,
            onset_spread: self.phi_hours,
            duration_hours: UP_HOURS,
            duration_spread: 0.0,
            sigma_start: self.sigma_start,
            sigma_duration: self.sigma_duration,
            utc_offset_hours: 0.0,
        };
        let mut b = BlockSpec::bare(id, seed, profile);
        // The paper's controlled block is majority-diurnal by design.
        b.planted_diurnal = true;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::AddrKey;

    #[test]
    fn default_matches_paper() {
        let c = ControlledConfig::default();
        assert_eq!(c.n_stable, 50);
        assert_eq!(c.n_diurnal, 100);
        assert_eq!(c.build(1, 0).profile.duration_hours, 8.0);
    }

    #[test]
    fn noiseless_block_has_sharp_daily_square_wave() {
        let b = ControlledConfig::default().build(1, 0);
        // Exactly 150 ever-active; all diurnal share onset 0 with 8h up.
        assert_eq!(b.ever_active_count(), 150);
        let midnight_plus_1h = 3_600;
        let a_up = b.true_availability(midnight_plus_1h);
        assert!((a_up - 1.0).abs() < 1e-9, "all up in window, got {a_up}");
        let a_down = b.true_availability(12 * 3_600);
        assert!((a_down - 50.0 / 150.0).abs() < 1e-9, "only stable at midday, got {a_down}");
    }

    #[test]
    fn phase_spread_draws_once_per_address() {
        let cfg = ControlledConfig { phi_hours: 12.0, ..Default::default() };
        let b = cfg.build(7, 0);
        // Onsets vary across addresses but are stable across queries.
        let addrs = b.ever_active_addrs();
        let diurnal_addr = addrs[60]; // beyond the 50 stable slots
        let b1 = b.behavior_of(diurnal_addr);
        assert_eq!(b1, b.behavior_of(diurnal_addr));
        // With Φ=12 the availability at any instant is strictly between the
        // extremes (addresses are de-phased).
        let a = b.true_availability(6 * 3_600);
        assert!(a > 50.0 / 150.0 + 0.05 && a < 0.95, "de-phased A = {a}");
    }

    #[test]
    fn experiments_differ_by_id_when_randomized() {
        let cfg = ControlledConfig { phi_hours: 8.0, ..Default::default() };
        let b0 = cfg.build(3, 0);
        let b1 = cfg.build(3, 1);
        let a0 = b0.true_availability(4 * 3_600);
        let a1 = b1.true_availability(4 * 3_600);
        assert_ne!(a0, a1, "different experiment ids draw different phases");
    }

    #[test]
    fn duration_noise_perturbs_days_independently() {
        let cfg = ControlledConfig { sigma_duration: 2.0, ..Default::default() };
        let b = cfg.build(5, 0);
        let addr = b.ever_active_addrs()[70];
        let key = AddrKey { seed: b.seed, block: b.id, addr };
        let beh = b.behavior_of(addr);
        // Probe right after the nominal 8-hour edge on many days: noise
        // makes some days long (still up) and some short (already down).
        let t_edge = (8.0 * 3_600.0 + 600.0) as u64;
        let ups = (0..120u64).filter(|d| beh.is_up(key, d * 86_400 + t_edge)).count();
        assert!(ups > 10 && ups < 110, "edge up-count {ups}");
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn rejects_oversized_population() {
        let cfg = ControlledConfig { n_stable: 200, n_diurnal: 100, ..Default::default() };
        let _ = cfg.build(1, 0);
    }
}
