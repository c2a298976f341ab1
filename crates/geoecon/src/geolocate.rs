//! Block geolocation with a MaxMind-like error model (§2.3.1).
//!
//! The paper uses MaxMind's free city database: claimed accuracy ~40 km,
//! city-level success for ~93 % of blocks, and a known failure mode where
//! country-only entries are placed at the country's geographic centroid
//! (visible in Fig. 12 as false clusters in the middle of Brazil, Russia and
//! Australia). This module reproduces those properties on top of the
//! synthetic world's true locations.

use crate::country::Country;
use crate::rng::KeyedRng;

/// Kilometres per degree of latitude (and of longitude at the equator).
const KM_PER_DEGREE: f64 = 111.32;

/// A geolocated block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// Longitude, degrees east.
    pub lon: f64,
    /// Latitude, degrees north.
    pub lat: f64,
    /// ISO code of the country the database reports (country-level
    /// attribution is far more reliable than city-level in real databases,
    /// and is always correct here).
    pub country: &'static str,
    /// `true` when the database only knew the country and returned its
    /// centroid (the Fig. 12 anomaly).
    pub centroid_fallback: bool,
}

/// Error-model parameters. Defaults reproduce the paper's description of
/// MaxMind.
#[derive(Debug, Clone, Copy)]
pub struct GeoConfig {
    /// Fraction of blocks the database can locate at all (paper: 93 %).
    pub coverage: f64,
    /// 1-σ positional error in kilometres for city-level entries
    /// (paper: "claimed accuracy is 40 km").
    pub error_km: f64,
    /// Fraction of *located* blocks that fall back to the country centroid.
    pub centroid_fraction: f64,
}

impl Default for GeoConfig {
    fn default() -> Self {
        GeoConfig { coverage: 0.93, error_km: 40.0, centroid_fraction: 0.08 }
    }
}

/// The synthetic geolocation database.
#[derive(Debug, Clone)]
pub struct GeoDatabase {
    seed: u64,
    cfg: GeoConfig,
}

/// Key-stream discriminators for the database's random draws.
const STREAM_COVERAGE: u64 = 0x6765_6f31; // "geo1"
const STREAM_ERROR: u64 = 0x6765_6f32; // "geo2"

impl GeoDatabase {
    /// Creates a database with the default (paper-faithful) error model.
    pub fn new(seed: u64) -> Self {
        GeoDatabase { seed, cfg: GeoConfig::default() }
    }

    /// Creates a database with explicit error-model parameters.
    pub fn with_config(seed: u64, cfg: GeoConfig) -> Self {
        GeoDatabase { seed, cfg }
    }

    /// Looks up block `block_id`, whose true position is
    /// `(true_lon, true_lat)` in `country`.
    ///
    /// Returns `None` for the uncovered fraction; otherwise a noisy
    /// city-level position or the country centroid.
    pub fn locate(
        &self,
        block_id: u64,
        country: &Country,
        true_lon: f64,
        true_lat: f64,
    ) -> Option<Location> {
        let mut cov = KeyedRng::from_parts(&[self.seed, STREAM_COVERAGE, block_id]);
        if !cov.chance(self.cfg.coverage) {
            sleepwatch_obs::global().geo.locate_misses.incr();
            return None;
        }
        sleepwatch_obs::global().geo.locate_hits.incr();
        if cov.chance(self.cfg.centroid_fraction) {
            return Some(Location {
                lon: country.lon,
                lat: country.lat,
                country: country.code,
                centroid_fallback: true,
            });
        }
        let mut err = KeyedRng::from_parts(&[self.seed, STREAM_ERROR, block_id]);
        let sigma_deg = self.cfg.error_km / KM_PER_DEGREE;
        // Longitude degrees shrink with latitude; scale the error up so the
        // km-level accuracy stays isotropic.
        let lat_rad = true_lat.to_radians();
        let lon_scale = 1.0 / lat_rad.cos().max(0.2);
        let lat = (true_lat + err.normal() * sigma_deg).clamp(-90.0, 90.0);
        let mut lon = true_lon + err.normal() * sigma_deg * lon_scale;
        // Wrap longitude into [-180, 180).
        lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        Some(Location { lon, lat, country: country.code, centroid_fallback: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country::by_code;

    #[test]
    fn coverage_fraction_respected() {
        let db = GeoDatabase::new(1);
        let cn = by_code("CN").unwrap();
        let n = 20_000;
        let located = (0..n).filter(|&b| db.locate(b, cn, cn.lon, cn.lat).is_some()).count();
        let frac = located as f64 / n as f64;
        assert!((frac - 0.93).abs() < 0.01, "coverage {frac}");
    }

    #[test]
    fn lookups_are_deterministic() {
        let db = GeoDatabase::new(7);
        let br = by_code("BR").unwrap();
        let a = db.locate(123, br, -46.6, -23.5);
        let b = db.locate(123, br, -46.6, -23.5);
        assert_eq!(a, b);
    }

    #[test]
    fn error_is_tens_of_km_not_thousands() {
        let db = GeoDatabase::new(3);
        let de = by_code("DE").unwrap();
        let mut errs = Vec::new();
        for b in 0..5_000u64 {
            if let Some(loc) = db.locate(b, de, 10.0, 51.0) {
                if loc.centroid_fallback {
                    continue;
                }
                let dlat = (loc.lat - 51.0) * KM_PER_DEGREE;
                let dlon = (loc.lon - 10.0) * KM_PER_DEGREE * 51.0_f64.to_radians().cos();
                errs.push((dlat * dlat + dlon * dlon).sqrt());
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        // Mean of a 2-D Gaussian radius with σ = 40 km is σ·√(π/2) ≈ 50 km.
        assert!(mean > 30.0 && mean < 75.0, "mean error {mean} km");
        assert!(errs.iter().all(|&e| e < 400.0), "no wild outliers");
    }

    #[test]
    fn centroid_fallback_present_and_marked() {
        let db = GeoDatabase::new(11);
        let ru = by_code("RU").unwrap();
        let mut fallbacks = 0;
        let mut located = 0;
        for b in 0..10_000u64 {
            if let Some(loc) = db.locate(b, ru, 37.6, 55.7) {
                located += 1;
                if loc.centroid_fallback {
                    fallbacks += 1;
                    assert_eq!(loc.lon, ru.lon);
                    assert_eq!(loc.lat, ru.lat);
                }
            }
        }
        let frac = fallbacks as f64 / located as f64;
        assert!((frac - 0.08).abs() < 0.02, "fallback fraction {frac}");
    }

    #[test]
    fn longitude_wraps_at_antimeridian() {
        let db = GeoDatabase::with_config(
            5,
            GeoConfig { coverage: 1.0, error_km: 500.0, centroid_fraction: 0.0 },
        );
        let nz = by_code("NZ").unwrap();
        for b in 0..2_000u64 {
            let loc = db.locate(b, nz, 179.9, -40.0).unwrap();
            assert!((-180.0..180.0).contains(&loc.lon), "lon {}", loc.lon);
            assert!((-90.0..=90.0).contains(&loc.lat));
        }
    }

    #[test]
    fn zero_coverage_locates_nothing() {
        let db = GeoDatabase::with_config(
            9,
            GeoConfig { coverage: 0.0, error_km: 40.0, centroid_fraction: 0.0 },
        );
        let us = by_code("US").unwrap();
        assert!((0..100u64).all(|b| db.locate(b, us, -95.0, 38.0).is_none()));
    }
}
