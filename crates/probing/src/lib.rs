//! Adaptive probing substrate for sleepwatch.
//!
//! Two collection modes, mirroring the paper's two dataset families (§2.5):
//!
//! * [`TrinocularProber`]: the outage-detection prober of Quan et al. (SIGCOMM
//!   2013) — Bayesian belief per block, pseudorandom walk over the
//!   ever-active addresses, at most 15 probes per 11-minute round, stop at
//!   the first conclusive belief. Its `(positives, total)` counts feed the
//!   §2.1 availability estimators; its 5.5-hour restart schedule reproduces
//!   the Fig. 10 probing artifact.
//! * [`survey_block`]: full enumeration of every address every round — the
//!   ground-truth datasets the validation section compares against.
//!
//! [`BlockRun`] and [`RoundRecord`] hold what both produce, and a
//! [`FaultPlan`] injects deterministic measurement failures (loss bursts, blackouts,
//! restart storms, truncation, record corruption, address churn) into
//! either mode for stress testing.
//!
//! # Example
//!
//! ```
//! use sleepwatch_probing::{TrinocularConfig, TrinocularProber};
//! use sleepwatch_simnet::{BlockProfile, BlockSpec};
//!
//! let block = BlockSpec::bare(1, 42, BlockProfile::always_on(64, 0.9));
//! let mut prober = TrinocularProber::new(&block, TrinocularConfig::default());
//! let run = prober.run(&block, 0, 200);
//! assert_eq!(run.records.len(), 200);
//! assert!(run.probes_per_hour() < 20.0, "within the paper's probe budget");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod census;
mod faults;
mod multisite;
mod record;
mod stream;
mod survey;
pub mod transport;
mod trinocular;

pub use census::{run_census, CensusConfig, CensusRecord};
pub use faults::{Blackout, BurstWindow, EChurn, FaultPlan, LossBurst, RestartStorm};
pub use multisite::{merge_states, merged_outages, MergedOutage, MergedState};
pub use record::{BlockRun, RoundRecord};
pub use stream::{interleave, record_rounds, replay_run, Interleave, RoundEvent};
pub use survey::{survey_block, survey_block_with_faults, SurveyResult};
pub use trinocular::{BlockState, OutageEvent, ProberScratch, TrinocularConfig, TrinocularProber};
