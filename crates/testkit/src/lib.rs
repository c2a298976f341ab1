//! Test harness for the sleepwatch pipeline.
//!
//! Three layers, each usable from any crate's test suite:
//!
//! * [`golden`] — byte-for-byte conformance against recorded reports under
//!   `tests/goldens/`, with an `UPDATE_GOLDENS=1` regeneration path;
//! * [`fixtures`] — deterministic worlds and blocks shared by the suites;
//! * [`matrix`] — the cells every differential suite runs: the fault and
//!   chaos preset names, the thread counts, the suites' worlds and their
//!   batch references, and the macros that expand one test per preset;
//! * [`oracles`] — differential cross-checks of independent
//!   implementations of the same quantity (batch vs streaming
//!   classification, planned vs baseline FFT kernels, survey truth vs
//!   adaptive confusion), runnable under every
//!   [`FaultPlan`](sleepwatch_probing::FaultPlan) preset;
//! * [`baseline`] — the unplanned seed FFT kernels, the reference the
//!   planned transforms are held to;
//! * [`metamorphic`] — input transformations with provable output effects
//!   (rotation ⇒ exact phase advance, scaling/permutation ⇒ invariance);
//! * [`resilience`] — fixtures for the kill-and-resume journal oracle and
//!   the panic-quarantine conformance suites;
//! * [`chaos`] — a deterministic frame-aware TCP proxy injecting wire
//!   faults (mid-frame severs, byte flips, stalls, duplicate/reordered
//!   frames, reconnect storms) between a `SLPWFEED` server and client;
//! * [`httpclient`] — a tiny std-only HTTP client (with its own response
//!   parser) for the query-service oracle, chaos and e2e suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod fixtures;
pub mod golden;
pub mod httpclient;
pub mod matrix;
pub mod metamorphic;
pub mod oracles;
pub mod resilience;

pub use golden::{assert_golden, goldens_dir};
