//! A deterministic synthetic Internet for diurnal-network research.
//!
//! The IMC 2014 paper measures the live IPv4 edge; this crate replaces it
//! with a reproducible world whose ground truth is known exactly:
//!
//! * [`AddressBehavior`]: per-address models — always-on, diurnal (onset,
//!   duration, per-day `σ_s`/`σ_d` noise, §3.2.2), inactive — as pure
//!   functions of `(seed, block, address, time)`;
//! * [`BlockSpec`]: compact /24 specs that derive any address's behaviour in
//!   O(1), with injected outages and ground-truth availability, plus
//!   [`ProbeMemo`], which lets a prober that revisits a block's addresses
//!   for weeks draw each address's schedule once (same answers, byte for
//!   byte);
//! * [`World`]: a calibrated population of blocks across ~55 countries,
//!   planting the paper's country fractions, phase/longitude structure,
//!   allocation-age gradient and link-technology correlations;
//! * [`ControlledConfig`]: the §3.2.2 controlled blocks (50 stable + `n_d`
//!   diurnal addresses) behind Figs. 7–9;
//! * [`ptr_name`]: PTR-name synthesis feeding the link-type classifier;
//! * [`evolution`]: the Fig. 11 long-term propensity curve.
//!
//! # Example
//!
//! ```
//! use sleepwatch_simnet::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig { num_blocks: 50, seed: 7, ..Default::default() });
//! let block = &world.blocks[0];
//! // Probe address .1 at the first round — deterministic, replayable.
//! let t = world.round_time(0);
//! let first = block.probe(1, t);
//! assert_eq!(first, block.probe(1, t));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod behavior;
mod block;
mod campus;
mod controlled;
pub mod evolution;
mod rdns;
mod world;

pub use behavior::{AddrKey, AddressBehavior};
pub use block::{BlockProfile, BlockSpec, LeaseParams, LinkClass, Links, ProbeMemo, ProbeOutcome};
pub use campus::{generate_campus, CampusUse};
pub use controlled::ControlledConfig;
pub use rdns::{ptr_name, PtrTemplate};
pub use world::{shard_of, World, WorldConfig, WorldSource, A12W_START, ROUND_SECONDS, S51W_START};
