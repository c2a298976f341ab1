//! # sleepwatch
//!
//! Detecting when — and where — the Internet sleeps.
//!
//! `sleepwatch` is a full reimplementation of the measurement system behind
//! *"When the Internet Sleeps: Correlating Diurnal Networks With External
//! Factors"* (Quan, Heidemann, Pradkin — ACM IMC 2014): low-rate adaptive
//! probing of /24 blocks, short-timescale availability estimation, spectral
//! (FFT) detection of diurnal usage and its phase, and correlation of
//! diurnalness with geography, address-allocation history, economics
//! (ANOVA) and access-link technology.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! namespace. Use the crates directly for finer dependency control.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`spectral`] | `sleepwatch-spectral` | FFT, periodograms, diurnal classifier, phase, stationarity |
//! | [`stats`] | `sleepwatch-stats` | correlation, regression, ANOVA, distributions, histograms |
//! | [`geoecon`] | `sleepwatch-geoecon` | countries, geolocation, /8 registry, AS→org mapping |
//! | [`simnet`] | `sleepwatch-simnet` | the deterministic synthetic Internet |
//! | [`linktype`] | `sleepwatch-linktype` | reverse-DNS link-technology classification |
//! | [`availability`] | `sleepwatch-availability` | the §2.1 estimators and timeseries cleaning |
//! | [`probing`] | `sleepwatch-probing` | Trinocular adaptive probing and full surveys |
//! | [`obs`] | `sleepwatch-obs` | zero-overhead-when-off metrics, stage timers, run reports |
//! | [`core`] | `sleepwatch-core` | the end-to-end pipeline and aggregations |
//! | [`framing`] | `sleepwatch-framing` | the shared binary prelude, CRC32, bit and Rice codecs |
//!
//! # Quickstart
//!
//! ```
//! use sleepwatch::core::{analyze_block, AnalysisConfig};
//! use sleepwatch::simnet::{BlockProfile, BlockSpec};
//!
//! // A /24 with 40 always-on and 160 diurnal addresses (9 h/day).
//! let block = BlockSpec::bare(0, 42, BlockProfile {
//!     n_stable: 40,
//!     n_diurnal: 160,
//!     stable_avail: 0.9,
//!     diurnal_avail: 0.9,
//!     onset_hours: 8.0,
//!     onset_spread: 2.0,
//!     duration_hours: 9.0,
//!     duration_spread: 1.0,
//!     sigma_start: 0.5,
//!     sigma_duration: 0.5,
//!     utc_offset_hours: 0.0,
//! });
//!
//! // Probe it for two weeks at 11-minute rounds and classify.
//! let analysis = analyze_block(&block, &AnalysisConfig::over_days(0, 14.0));
//! assert!(analysis.diurnal.class.is_diurnal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sleepwatch_availability as availability;
pub use sleepwatch_core as core;
pub use sleepwatch_framing as framing;
pub use sleepwatch_geoecon as geoecon;
pub use sleepwatch_linktype as linktype;
pub use sleepwatch_obs as obs;
pub use sleepwatch_probing as probing;
pub use sleepwatch_simnet as simnet;
pub use sleepwatch_spectral as spectral;
pub use sleepwatch_stats as stats;
