//! The oracle matrix: the one list of cells every differential suite runs.
//!
//! A cell is one fault preset (or chaos preset) at every count in
//! [`THREADS`]. A suite writes its oracle once, as a body function taking
//! the preset's name, and expands one `#[test]` per preset with
//! [`fault_tests!`](crate::fault_tests) or
//! [`chaos_tests!`](crate::chaos_tests), named `body::preset`
//! (`tsv_differential::loss_light`). Its world is an [`OracleWorld`],
//! whose batch reference under each preset is computed once per test
//! process however many tests compare against it. A new preset is one
//! line in one of those two macros (the guard test below fails until it
//! is); a new oracle is one `fault_tests!(body)` line in its suite.

use std::sync::{Mutex, OnceLock};

use sleepwatch_core::{analyze_world, AnalysisConfig, WorldAnalysis};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::{World, WorldConfig, WorldSource};

use crate::chaos::ChaosPlan;

/// The thread and shard counts every oracle cell runs at.
pub const THREADS: [usize; 3] = [1, 4, 8];

/// The seed every oracle suite draws the [`FaultPlan::presets`] with.
pub const PRESET_SEED: u64 = 0xFA_17;

/// The seed the chaos suite draws the [`ChaosPlan::presets`] with.
pub const CHAOS_SEED: u64 = 0xC4A05;

/// `fault_tests!(body)` expands one `#[test]` per fault preset, `"none"`
/// first and then [`FaultPlan::presets`] in its order, in a module named
/// after `body`, each calling `body(name)`. `fault_tests!()` is the
/// names, [`FAULTS`].
#[macro_export]
macro_rules! fault_tests {
    ($($body:ident)?) => {
        $crate::cells! { $($body)?;
            none "none", loss_light "loss-light", loss_heavy "loss-heavy", blackout "blackout",
            restart_storm "restart-storm", truncated "truncated", dup_reorder "dup-reorder",
            churn "churn"
        }
    };
}

/// [`fault_tests!`](crate::fault_tests) over the [`ChaosPlan::presets`]
/// instead; `chaos_tests!()` is [`CHAOS`].
#[macro_export]
macro_rules! chaos_tests {
    ($($body:ident)?) => {
        $crate::cells! { $($body)?;
            none "none", sever_midframe "sever-midframe", byte_flip "byte-flip", stall "stall",
            short_write "short-write", dup_frame "dup-frame", reorder_frame "reorder-frame",
            reconnect_storm "reconnect-storm"
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! cells {
    (; $($test:ident $name:literal),*) => {
        [$($name),*]
    };
    ($body:ident; $($test:ident $name:literal),*) => {
        mod $body {
            $(
                #[test]
                fn $test() {
                    super::$body($name);
                }
            )*
        }
    };
}

/// The fault presets every oracle suite runs.
pub const FAULTS: [&str; 8] = crate::fault_tests!();

/// The chaos presets the transport suite runs.
pub const CHAOS: [&str; 8] = crate::chaos_tests!();

/// `"none"` and every [`FaultPlan::presets`] plan drawn with `seed`, in
/// [`FAULTS`] order.
pub fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let mut plans = vec![("none", FaultPlan::none())];
    plans.extend(FaultPlan::presets(seed));
    plans
}

/// The fault plan a name in [`FAULTS`] names, drawn with [`PRESET_SEED`].
/// Panics on any other name.
pub fn fault(name: &str) -> FaultPlan {
    named(fault_plans(PRESET_SEED), name)
}

/// The chaos plan a name in [`CHAOS`] names, drawn with [`CHAOS_SEED`].
/// Panics on any other name.
pub fn chaos(name: &str) -> ChaosPlan {
    named(ChaosPlan::presets(CHAOS_SEED), name)
}

fn named<P>(plans: Vec<(&str, P)>, name: &str) -> P {
    plans
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no preset named {name}"))
        .1
}

/// A differential suite's world: its seed, block count and span in days.
#[derive(Clone, Copy, PartialEq)]
pub struct OracleWorld {
    /// World seed.
    pub seed: u64,
    /// Block count.
    pub blocks: usize,
    /// Observation span, days.
    pub days: f64,
}

impl OracleWorld {
    /// The world's configuration.
    pub fn world_cfg(&self) -> WorldConfig {
        WorldConfig {
            num_blocks: self.blocks,
            seed: self.seed,
            span_days: self.days,
            ..Default::default()
        }
    }

    /// The lazy world, which generates each block on demand.
    pub fn source(&self) -> WorldSource {
        WorldSource::new(self.world_cfg())
    }

    /// The world with every block generated.
    pub fn world(&self) -> World {
        World::generate(self.world_cfg())
    }

    /// The analysis of the whole span under `plan`.
    pub fn cfg(&self, plan: FaultPlan) -> AnalysisConfig {
        let wcfg = self.world_cfg();
        AnalysisConfig {
            faults: plan,
            ..AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days)
        }
    }

    /// The batch analysis at eight threads under the fault preset `name`
    /// ([`fault`]): the reference the streamed, transported and served
    /// worlds are held to. Computed once per process for each world and
    /// name; the tests that ask for it concurrently wait for one run.
    pub fn batch(&self, name: &str) -> &'static WorldAnalysis {
        type Memo = Vec<(OracleWorld, String, &'static OnceLock<WorldAnalysis>)>;
        static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
        let cell = {
            let mut memo = MEMO.lock().expect("no thread panics while holding the memo");
            match memo.iter().find(|(world, n, _)| world == self && n == name) {
                Some(&(_, _, cell)) => cell,
                None => {
                    let cell: &'static OnceLock<WorldAnalysis> = Box::leak(Box::default());
                    memo.push((*self, name.to_string(), cell));
                    cell
                }
            }
        };
        cell.get_or_init(|| analyze_world(&self.world(), &self.cfg(fault(name)), 8, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A preset added to `FaultPlan::presets` or `ChaosPlan::presets` but
    /// not to the cell lists would be skipped by every suite.
    #[test]
    fn cells_are_every_preset_in_order() {
        let faults: Vec<&str> = fault_plans(1).into_iter().map(|(n, _)| n).collect();
        assert_eq!(FAULTS[..], faults[..], "the fault cells are not \"none\" + FaultPlan::presets");
        let chaos: Vec<&str> = ChaosPlan::presets(1).into_iter().map(|(n, _)| n).collect();
        assert_eq!(CHAOS[..], chaos[..], "the chaos cells are not ChaosPlan::presets");
    }

    #[test]
    fn batch_reference_is_computed_once_per_world_and_name() {
        let w = OracleWorld { seed: 3, blocks: 8, days: 2.0 };
        let a = w.batch("none");
        assert!(std::ptr::eq(a, w.batch("none")));
        assert!(!std::ptr::eq(a, w.batch("churn")));
        let other = OracleWorld { blocks: 9, ..w };
        assert_eq!(other.batch("none").reports.len(), 9);
    }
}
