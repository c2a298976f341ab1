//! Geography, economics, and registry substrates for sleepwatch.
//!
//! The IMC 2014 paper correlates diurnal network behaviour with external
//! factors taken from third-party databases. This crate provides faithful,
//! self-contained stand-ins for each (see DESIGN.md §1 for the substitution
//! argument):
//!
//! * [`COUNTRIES`]: 108 real countries with the CIA World Factbook figures the
//!   paper cites (per-capita GDP, electricity consumption, Internet users
//!   per host), region grouping ([`Region`], matching Table 4), geography,
//!   and the *planted* diurnal propensity that world synthesis uses and the
//!   measurement pipeline must recover;
//! * [`GeoDatabase`]: a MaxMind-like lookup with 40 km error, 93 % coverage,
//!   and country-centroid fallback (the Fig. 12 anomaly);
//! * [`AllocationRegistry`]: an IANA-style /8 registry with a realistic RIR timeline
//!   (legacy ARIN early, APNIC/LACNIC late, exhaustion 2011-02) for the
//!   Fig. 15 allocation-age analysis;
//! * [`AsOrgMapper`]: Team-Cymru-style AS records and the paper's string-based
//!   AS→organization clustering;
//! * [`rng`]: the keyed splitmix64 streams that make the whole synthetic
//!   world deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod allocation;
mod asmap;
mod country;
mod geolocate;
mod region;
pub mod rng;

pub use allocation::{AllocationRegistry, ParseYearMonthError, Rir, Slash8, YearMonth};
pub use asmap::{AsOrgMapper, AsRecord, OrgCluster};
pub use country::{by_code, planted_world_diurnal_fraction, Country, COUNTRIES};
pub use geolocate::{GeoConfig, GeoDatabase, Location};
pub use region::Region;
