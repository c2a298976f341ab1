//! Spectral analysis for diurnal-network detection.
//!
//! This crate implements the signal-processing half of *"When the Internet
//! Sleeps: Correlating Diurnal Networks With External Factors"* (Quan,
//! Heidemann, Pradkin — IMC 2014), §2.2:
//!
//! * a from-scratch [FFT](mod@fft) (iterative radix-2 Cooley–Tukey, plus
//!   Bluestein's algorithm so the awkward series lengths produced by
//!   11-minute probing rounds transform exactly, not padded), backed by a
//!   global cache of immutable [plans](FftPlan) so per-length setup work —
//!   bit-reversal tables, twiddles, the pre-transformed Bluestein filter —
//!   is paid once per process instead of once per transform;
//! * [amplitude spectra](Spectrum) with the paper's bin→frequency mapping
//!   (`k / (R·n)` Hz for sampling period `R`);
//! * the strict / relaxed [diurnal classifier](classify) and per-block
//!   [phase](DiurnalReport::phase) extraction;
//! * the linear-trend [stationarity screen](trend_default).
//!
//! # Example
//!
//! ```
//! use sleepwatch_spectral::{classify_series, DiurnalClass};
//!
//! // 14 days of availability sampled every 11 minutes, active 9 hours/day.
//! let rounds_per_day = 86_400.0 / 660.0;
//! let n = (14.0 * rounds_per_day) as usize;
//! let series: Vec<f64> = (0..n)
//!     .map(|i| {
//!         let day_frac = (i as f64 / rounds_per_day).fract();
//!         if day_frac < 9.0 / 24.0 { 0.8 } else { 0.2 }
//!     })
//!     .collect();
//!
//! let report = classify_series(&series);
//! assert_eq!(report.class, DiurnalClass::Strict);
//! assert!(report.phase.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod acf;
mod complex;
mod diurnal;
pub mod fft;
mod goertzel;
mod lombscargle;
mod periodogram;
mod plan;
mod stationarity;

pub use acf::{acf_diurnal, autocorrelation, AcfReport};
pub use complex::Complex;
pub use diurnal::{classify, classify_series, DiurnalClass, DiurnalConfig, DiurnalReport};
pub use fft::{dft_naive, fft, fft_real, ifft};
pub use goertzel::{diurnal_energy_ratio, goertzel};
pub use lombscargle::LombScargle;
pub use periodogram::{Spectrum, SpectrumScratch, ROUND_SECONDS};
pub use plan::{plan_for, prewarm, BatchRealScratch, FftPlan, MAX_BATCH_LANES, MAX_PLAN_LEN};
pub use stationarity::{linear_fit, trend_default, TrendReport};
