//! Statistics for the sleepwatch measurement pipeline.
//!
//! Implements, from scratch, everything the IMC 2014 paper's analysis needs:
//!
//! * [descriptive statistics](descriptive) (means, variances, quantiles);
//! * correlation ([`pearson`], [`spearman`]) and simple regression
//!   ([`linfit`]) for the paper's reported
//!   coefficients (Âs vs A, phase vs longitude, diurnal fraction vs GDP);
//! * probability distributions: the regularized incomplete beta
//!   ([`inc_beta`]) and the F distribution ([`f_sf`]) for ANOVA p-values,
//!   and the Wilson score interval;
//! * multiple linear regression with alias detection, the engine under
//!   ANOVA;
//! * [sequential (Type-I) ANOVA](anova()) matching R's `aov` (§2.4, Table 5);
//! * histograms and CDFs ([`Histogram`]), [density grids](DensityGrid)
//!   and [binned quartiles](binned_quartiles)
//!   backing Figs. 4–5, 10, 12–14.
//!
//! # Example: Table-5-style factor screening
//!
//! ```
//! use sleepwatch_stats::{anova_pair, anova_single};
//!
//! // Country-level observations: diurnal fraction vs two covariates.
//! let diurnal = [0.63, 0.55, 0.50, 0.40, 0.34, 0.22, 0.18, 0.16, 0.01, 0.002];
//! let gdp = [5.9, 6.0, 9.3, 14.1, 18.4, 3.9, 12.1, 5.1, 41.0, 50.7];
//! let elec = [1.7, 2.0, 3.5, 5.0, 3.0, 0.7, 2.5, 0.8, 7.0, 12.1];
//!
//! let single = anova_single(&diurnal, "gdp", &gdp).unwrap();
//! assert!(single.p < 0.05, "GDP correlates with diurnalness");
//!
//! let table = anova_pair(&diurnal, "gdp", &gdp, "elec", &elec).unwrap();
//! assert!(table.row("gdp:elec").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod anova;
mod corr;
pub mod descriptive;
mod dist;
mod histogram;
mod ols;

pub use anova::{anova, anova_pair, anova_single, AnovaError, AnovaRow, AnovaTable, Term};
pub use corr::{linfit, pearson, spearman, LinFit};
pub use descriptive::{mean, quantile, variance};
pub use dist::{f_cdf, f_sf, inc_beta, wilson_interval};
pub use histogram::{binned_quartiles, BinnedQuartiles, DensityGrid, Histogram};
pub use ols::OlsError;
