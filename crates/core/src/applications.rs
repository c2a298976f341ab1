//! The §5.6 applications: using diurnal knowledge to calibrate other
//! measurements and to size the active Internet.
//!
//! A fast full-IPv4 snapshot (ZMap-style, "tens of minutes") measures each
//! block at one arbitrary time of day. For non-diurnal blocks that snapshot
//! is representative; for diurnal blocks it can land anywhere between the
//! nightly trough and the daily peak. Knowing which blocks are diurnal —
//! and their daily amplitude — turns one snapshot into a calibrated range,
//! and summing availabilities estimates the active, public address
//! population the way the paper's census line of work does.

use crate::worldrun::WorldAnalysis;
use sleepwatch_spectral::DiurnalClass;

/// Address-population estimate derived from a world analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeEstimate {
    /// Expected active addresses at a random instant (mean availability ×
    /// 256 per block, summed).
    pub mean_active: f64,
    /// Lower bound: every diurnal block caught at its trough.
    pub trough_active: f64,
    /// Upper bound: every diurnal block caught at its peak.
    pub peak_active: f64,
    /// Blocks contributing.
    pub blocks: usize,
    /// Of which diurnal (strict or relaxed).
    pub diurnal_blocks: usize,
}

impl SizeEstimate {
    /// The swing a one-shot snapshot can miss, in addresses.
    pub fn snapshot_uncertainty(&self) -> f64 {
        self.peak_active - self.trough_active
    }

    /// Relative uncertainty of a one-shot snapshot vs the mean.
    pub fn relative_uncertainty(&self) -> f64 {
        if self.mean_active > 0.0 {
            self.snapshot_uncertainty() / self.mean_active
        } else {
            0.0
        }
    }
}

/// Assumed peak-to-trough swing of a diurnal block's availability, as a
/// fraction of its mean. The paper's diurnal examples swing by roughly
/// half their mean; blocks classified relaxed swing less.
const STRICT_SWING: f64 = 0.5;
const RELAXED_SWING: f64 = 0.25;

/// Estimates the active address population and the snapshot error bars.
pub fn estimate_size(analysis: &WorldAnalysis) -> SizeEstimate {
    let mut mean = 0.0;
    let mut lo = 0.0;
    let mut hi = 0.0;
    let mut diurnal = 0usize;
    for r in &analysis.reports {
        let base = r.summary.mean_a * 256.0;
        mean += base;
        let swing = match r.summary.class {
            DiurnalClass::Strict => {
                diurnal += 1;
                STRICT_SWING
            }
            DiurnalClass::Relaxed => {
                diurnal += 1;
                RELAXED_SWING
            }
            DiurnalClass::NonDiurnal => 0.0,
        };
        lo += base * (1.0 - swing);
        hi += base * (1.0 + swing);
    }
    SizeEstimate {
        mean_active: mean,
        trough_active: lo,
        peak_active: hi,
        blocks: analysis.len(),
        diurnal_blocks: diurnal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalysisConfig;
    use crate::worldrun::analyze_world;
    use sleepwatch_simnet::{World, WorldConfig};

    fn analysis() -> WorldAnalysis {
        let world = World::generate(WorldConfig {
            num_blocks: 150,
            seed: 55,
            span_days: 5.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 5.0);
        analyze_world(&world, &cfg, 2, None)
    }

    #[test]
    fn size_estimate_orders_bounds() {
        let a = analysis();
        let e = estimate_size(&a);
        assert!(e.trough_active <= e.mean_active);
        assert!(e.mean_active <= e.peak_active);
        assert!(e.mean_active > 0.0);
        assert_eq!(e.blocks, 150);
        assert!(e.diurnal_blocks <= e.blocks);
        assert!(e.snapshot_uncertainty() >= 0.0);
        assert!(e.relative_uncertainty() < 1.0);
    }

    #[test]
    fn uncertainty_grows_with_diurnal_share() {
        // A China-heavy world has more diurnal blocks than a US-only one.
        let mk = |codes: Vec<&'static str>| {
            let world = World::generate(WorldConfig {
                num_blocks: 200,
                seed: 77,
                span_days: 5.0,
                country_filter: Some(codes),
                ..Default::default()
            });
            let cfg = AnalysisConfig::over_days(world.cfg.start_time, 5.0);
            estimate_size(&analyze_world(&world, &cfg, 2, None))
        };
        let us = mk(vec!["US"]);
        let cn = mk(vec!["CN", "AM", "GE"]);
        assert!(
            cn.relative_uncertainty() > us.relative_uncertainty(),
            "diurnal world must be harder to snapshot: {} vs {}",
            cn.relative_uncertainty(),
            us.relative_uncertainty()
        );
    }
}
