//! Block-availability estimation from sparse probe observations.
//!
//! Implements §2.1 of the IMC 2014 paper: per-round EWMA estimators of
//! block availability — the fast, noisy `Âs` that feeds diurnal detection;
//! the slow `Âl`; and the deliberately conservative operational `Âo` that
//! adaptive probing consumes — plus the §2.2 timeseries cleaning
//! (duplicate resolution, gap extrapolation, midnight-UTC trimming) that
//! prepares `Âs` series for the FFT.
//!
//! # Example
//!
//! ```
//! use sleepwatch_availability::AvailabilityEstimator;
//!
//! let mut est = AvailabilityEstimator::with_default_config(0.5);
//! // Three rounds of adaptive probing: (positives, total probes).
//! est.observe(1, 1);
//! est.observe(1, 3);
//! let e = est.observe(0, 15);
//! assert!(e.a_short < e.a_long, "short-term estimate reacts to the bad round first");
//! assert!(e.a_operational <= e.a_long);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cleaning;
mod estimator;

pub use cleaning::{
    bucket_rounds, clean_series, clean_series_into, fill_gaps, midnight_trim, CleanScratch,
};
pub use estimator::{AvailabilityEstimator, DirectEwmaEstimator, Estimates};
