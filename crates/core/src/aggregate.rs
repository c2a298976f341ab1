//! Aggregations over a world analysis: the country league table (Table 3),
//! region table (Table 4), link-technology fractions (Fig. 17), allocation
//! histogram (Fig. 15), phase/longitude pairs (Fig. 14), world grids
//! (Figs. 12–13), and the ANOVA factor table (Table 5).
//!
//! Everything here reads only *measured* quantities (diurnal class from the
//! pipeline, location from the geolocation database, link features from
//! reverse DNS, dates from the public registry) — never the planted labels.

use crate::analyze::unroll_phase;
use crate::worldrun::WorldAnalysis;
use sleepwatch_geoecon::{by_code, Country, Region, YearMonth};
use sleepwatch_linktype::LinkFeature;
use sleepwatch_stats::{anova_pair, anova_single, pearson, AnovaError, DensityGrid};
use std::collections::BTreeMap;

/// Per-country aggregation (one row of Table 3 plus the ANOVA covariates).
#[derive(Debug, Clone)]
pub struct CountryStat {
    /// ISO code.
    pub code: &'static str,
    /// Region.
    pub region: Region,
    /// Geolocated blocks observed.
    pub blocks: usize,
    /// Strictly diurnal blocks.
    pub diurnal: usize,
    /// Strict-or-relaxed diurnal blocks.
    pub relaxed: usize,
    /// Fraction strictly diurnal.
    pub frac_diurnal: f64,
    /// Per-capita GDP (US$).
    pub gdp: f64,
    /// Electricity consumption per capita (kWh/yr).
    pub electricity: f64,
    /// Internet users per host.
    pub users_per_host: f64,
    /// Age in years of the country's *earliest* observed block allocation.
    pub age_first_alloc: f64,
    /// Mean age in years of observed block allocations.
    pub age_mean_alloc: f64,
}

/// Reference date for allocation ages (the paper's measurement year).
pub(crate) const AGE_REFERENCE: YearMonth = YearMonth { year: 2013, month: 5 };

impl WorldAnalysis {
    /// Country statistics over geolocated blocks, countries with at least
    /// `min_blocks`, sorted by descending diurnal fraction (Table 3's
    /// layout).
    pub fn country_stats(&self, min_blocks: usize) -> Vec<CountryStat> {
        #[derive(Default)]
        struct Acc {
            blocks: usize,
            diurnal: usize,
            relaxed: usize,
            first: Option<i64>,
            month_sum: i64,
        }
        let mut map: BTreeMap<&'static str, Acc> = BTreeMap::new();
        for r in &self.reports {
            let Some(loc) = r.location else { continue };
            let a = map.entry(loc.country).or_default();
            a.blocks += 1;
            if r.summary.class.is_strict() {
                a.diurnal += 1;
            }
            if r.summary.class.is_diurnal() {
                a.relaxed += 1;
            }
            let m = r.alloc_date.months_since_epoch();
            a.first = Some(a.first.map_or(m, |f| f.min(m)));
            a.month_sum += m;
        }
        let mut out: Vec<CountryStat> = map
            .into_iter()
            .filter(|(_, a)| a.blocks >= min_blocks)
            .map(|(code, a)| {
                let c: &Country = by_code(code).expect("codes come from the table");
                let ref_m = AGE_REFERENCE.months_since_epoch() as f64;
                CountryStat {
                    code,
                    region: c.region,
                    blocks: a.blocks,
                    diurnal: a.diurnal,
                    relaxed: a.relaxed,
                    frac_diurnal: a.diurnal as f64 / a.blocks as f64,
                    gdp: c.gdp_per_capita,
                    electricity: c.electricity_kwh,
                    users_per_host: c.users_per_host,
                    age_first_alloc: (ref_m - a.first.unwrap_or(0) as f64) / 12.0,
                    age_mean_alloc: (ref_m - a.month_sum as f64 / a.blocks as f64) / 12.0,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.frac_diurnal.partial_cmp(&a.frac_diurnal).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Region table (Table 4): `(region, blocks, fraction strictly diurnal)`,
    /// ascending by fraction like the paper.
    pub fn region_stats(&self) -> Vec<(Region, usize, f64)> {
        let mut blocks: BTreeMap<Region, (usize, usize)> = BTreeMap::new();
        for r in &self.reports {
            let Some(region) = r.region else { continue };
            let e = blocks.entry(region).or_default();
            e.0 += 1;
            if r.summary.class.is_strict() {
                e.1 += 1;
            }
        }
        let mut out: Vec<(Region, usize, f64)> = blocks
            .into_iter()
            .map(|(region, (n, d))| (region, n, d as f64 / n.max(1) as f64))
            .collect();
        out.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Fig. 17: for each kept link keyword, `(feature, blocks carrying it,
    /// fraction strictly diurnal)`.
    pub fn link_stats(&self) -> Vec<(LinkFeature, usize, f64)> {
        LinkFeature::KEPT
            .iter()
            .map(|&f| {
                let with: Vec<_> =
                    self.reports.iter().filter(|r| r.link_features.contains(f)).collect();
                let d = with.iter().filter(|r| r.summary.class.is_strict()).count();
                (f, with.len(), d as f64 / with.len().max(1) as f64)
            })
            .collect()
    }

    /// Fraction of blocks with at least one (kept) link feature.
    pub fn link_coverage(&self) -> f64 {
        let n = self.reports.iter().filter(|r| !r.link_features.is_empty()).count();
        n as f64 / self.len().max(1) as f64
    }

    /// Fig. 15: per allocation month, `(month, blocks, fraction strictly
    /// diurnal)`, ascending by month.
    pub fn allocation_histogram(&self) -> Vec<(YearMonth, usize, f64)> {
        let mut map: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
        for r in &self.reports {
            let e = map.entry(r.alloc_date.months_since_epoch()).or_default();
            e.0 += 1;
            if r.summary.class.is_strict() {
                e.1 += 1;
            }
        }
        map.into_iter()
            .map(|(m, (n, d))| {
                (YearMonth::from_months_since_epoch(m), n, d as f64 / n.max(1) as f64)
            })
            .collect()
    }

    /// Fig. 14: `(longitude, unrolled phase)` pairs for geolocated diurnal
    /// blocks — strict only, or strict-plus-relaxed.
    pub fn phase_longitude_pairs(&self, include_relaxed: bool) -> Vec<(f64, f64)> {
        self.reports
            .iter()
            .filter(|r| {
                if include_relaxed {
                    r.summary.class.is_diurnal()
                } else {
                    r.summary.class.is_strict()
                }
            })
            .filter_map(|r| {
                let loc = r.location?;
                let phase = r.summary.phase?;
                Some((loc.lon, unroll_phase(phase, loc.lon)))
            })
            .collect()
    }

    /// Correlation coefficient of unrolled phase against longitude (the
    /// paper reports 0.835 strict / 0.763 relaxed).
    pub fn phase_longitude_correlation(&self, include_relaxed: bool) -> Option<f64> {
        let pairs = self.phase_longitude_pairs(include_relaxed);
        let lons: Vec<f64> = pairs.iter().map(|p| p.0.to_radians()).collect();
        let phases: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        pearson(&lons, &phases)
    }

    /// Fig. 14c: binning phase into `bins` over `[-π, π)`, the mean and
    /// standard deviation of longitude per bin (relaxed-diurnal blocks).
    pub fn phase_longitude_predictor(&self, bins: usize) -> Vec<(f64, f64, f64, usize)> {
        use std::f64::consts::PI;
        let mut groups: Vec<Vec<f64>> = vec![Vec::new(); bins];
        for r in &self.reports {
            let (Some(loc), Some(phase)) = (r.location, r.summary.phase) else { continue };
            if !r.summary.class.is_diurnal() {
                continue;
            }
            let idx = (((phase + PI) / (2.0 * PI)) * bins as f64) as usize;
            groups[idx.min(bins - 1)].push(loc.lon);
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(i, g)| {
                let center = -PI + (i as f64 + 0.5) * 2.0 * PI / bins as f64;
                let n = g.len();
                let mean = g.iter().sum::<f64>() / n as f64;
                let var = g.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
                (center, mean, var.sqrt(), n)
            })
            .collect()
    }

    /// Figs. 12–13: 2°×2° world grids of observable blocks and of strictly
    /// diurnal blocks.
    pub fn world_grids(&self, cell_degrees: f64) -> (DensityGrid, DensityGrid) {
        let nx = (360.0 / cell_degrees) as usize;
        let ny = (180.0 / cell_degrees) as usize;
        let mut all = DensityGrid::new(-180.0, 180.0, nx, -90.0, 90.0, ny);
        let mut diurnal = DensityGrid::new(-180.0, 180.0, nx, -90.0, 90.0, ny);
        for r in &self.reports {
            let Some(loc) = r.location else { continue };
            all.add(loc.lon, loc.lat);
            if r.summary.class.is_strict() {
                diurnal.add(loc.lon, loc.lat);
            }
        }
        (all, diurnal)
    }

    /// Table 5: the full one- and two-factor ANOVA over country-level
    /// observations. Returns `(factor names, single-factor p-values,
    /// pairwise-interaction p-values [i][j])`.
    pub fn anova_factors(&self, min_blocks: usize) -> AnovaFactors {
        let stats = self.country_stats(min_blocks);
        let y: Vec<f64> = stats.iter().map(|s| s.frac_diurnal).collect();
        let factors: Vec<(&'static str, Vec<f64>)> = vec![
            ("gdp", stats.iter().map(|s| s.gdp).collect()),
            ("users_per_host", stats.iter().map(|s| s.users_per_host).collect()),
            ("electricity", stats.iter().map(|s| s.electricity).collect()),
            ("age_first", stats.iter().map(|s| s.age_first_alloc).collect()),
            ("age_mean", stats.iter().map(|s| s.age_mean_alloc).collect()),
        ];
        AnovaFactors { y, factors, countries: stats.len() }
    }
}

/// Per-organization aggregation (the §2.3.2 future-work analysis: compare
/// behaviour across ASes of the same organization).
#[derive(Debug, Clone)]
pub struct OrgStat {
    /// Cluster key (the dominant name token).
    pub org: String,
    /// ASes of this organization observed with blocks.
    pub asns: Vec<u32>,
    /// Blocks attributed to the organization.
    pub blocks: usize,
    /// Fraction strictly diurnal.
    pub frac_diurnal: f64,
}

impl WorldAnalysis {
    /// Groups blocks by organization via the AS→org mapper and reports the
    /// diurnal fraction per organization (≥ `min_blocks` blocks), sorted
    /// descending by fraction.
    pub fn organization_stats(
        &self,
        mapper: &sleepwatch_geoecon::AsOrgMapper,
        min_blocks: usize,
    ) -> Vec<OrgStat> {
        let mut by_org: BTreeMap<String, (Vec<u32>, usize, usize)> = BTreeMap::new();
        for r in &self.reports {
            let Some(cluster) = mapper.cluster_of(r.asn) else { continue };
            let e =
                by_org.entry(cluster.key.clone()).or_insert_with(|| (cluster.asns.clone(), 0, 0));
            e.1 += 1;
            if r.summary.class.is_strict() {
                e.2 += 1;
            }
        }
        let mut out: Vec<OrgStat> = by_org
            .into_iter()
            .filter(|(_, (_, n, _))| *n >= min_blocks)
            .map(|(org, (asns, n, d))| OrgStat {
                org,
                asns,
                blocks: n,
                frac_diurnal: d as f64 / n as f64,
            })
            .collect();
        out.sort_by(|a, b| {
            b.frac_diurnal.partial_cmp(&a.frac_diurnal).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

/// The country-level factor table feeding Table 5.
#[derive(Debug, Clone)]
pub struct AnovaFactors {
    /// Outcome: fraction of diurnal blocks per country.
    pub y: Vec<f64>,
    /// Named covariates.
    pub factors: Vec<(&'static str, Vec<f64>)>,
    /// Number of countries (observations).
    pub countries: usize,
}

impl AnovaFactors {
    /// Single-factor p-value (diagonal of Table 5).
    pub fn single_p(&self, i: usize) -> Result<f64, AnovaError> {
        anova_single(&self.y, self.factors[i].0, &self.factors[i].1).map(|row| row.p)
    }

    /// Pairwise-combination p-value (off-diagonal of Table 5): the
    /// sequential p of the interaction term in `y ~ a * b`, matching R's
    /// `aov` output the paper used.
    pub fn pair_p(&self, i: usize, j: usize) -> Result<f64, AnovaError> {
        let (na, a) = &self.factors[i];
        let (nb, b) = &self.factors[j];
        let table = anova_pair(&self.y, na, a, nb, b)?;
        Ok(table.row(&format!("{na}:{nb}")).map(|r| r.p).unwrap_or(f64::NAN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalysisConfig;
    use crate::worldrun::analyze_world;
    use sleepwatch_simnet::{World, WorldConfig};

    fn analysis() -> WorldAnalysis {
        let world = World::generate(WorldConfig {
            num_blocks: 400,
            seed: 77,
            span_days: 4.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        analyze_world(&world, &cfg, 2, None)
    }

    #[test]
    fn country_stats_have_valid_rows() {
        let a = analysis();
        let stats = a.country_stats(5);
        assert!(!stats.is_empty());
        for s in &stats {
            assert!(s.blocks >= 5);
            assert!(s.diurnal <= s.relaxed, "strict ⊆ relaxed");
            assert!((0.0..=1.0).contains(&s.frac_diurnal));
            assert!(s.age_first_alloc >= s.age_mean_alloc, "first alloc is oldest");
        }
        // Sorted descending.
        assert!(stats.windows(2).all(|w| w[0].frac_diurnal >= w[1].frac_diurnal));
    }

    #[test]
    fn region_stats_sorted_ascending() {
        let a = analysis();
        let rs = a.region_stats();
        assert!(!rs.is_empty());
        assert!(rs.windows(2).all(|w| w[0].2 <= w[1].2));
        let total: usize = rs.iter().map(|r| r.1).sum();
        let located = a.reports.iter().filter(|r| r.location.is_some()).count();
        assert_eq!(total, located);
    }

    #[test]
    fn link_stats_cover_kept_features() {
        let a = analysis();
        let ls = a.link_stats();
        assert_eq!(ls.len(), 9);
        assert!(a.link_coverage() > 0.2, "coverage {}", a.link_coverage());
    }

    #[test]
    fn allocation_histogram_ordered() {
        let a = analysis();
        let h = a.allocation_histogram();
        assert!(!h.is_empty());
        assert!(h.windows(2).all(|w| w[0].0 <= w[1].0));
        let total: usize = h.iter().map(|x| x.1).sum();
        assert_eq!(total, a.len());
    }

    #[test]
    fn grids_count_located_blocks() {
        let a = analysis();
        let (all, diurnal) = a.world_grids(2.0);
        let located = a.reports.iter().filter(|r| r.location.is_some()).count() as u64;
        assert_eq!(all.total() + all.dropped(), located);
        assert!(diurnal.total() <= all.total());
    }

    #[test]
    fn anova_factors_shape() {
        let a = analysis();
        let f = a.anova_factors(3);
        assert_eq!(f.factors.len(), 5);
        assert_eq!(f.y.len(), f.countries);
        for (_, xs) in &f.factors {
            assert_eq!(xs.len(), f.countries);
        }
        if f.countries > 8 {
            let p = f.single_p(0).unwrap();
            assert!((0.0..=1.0).contains(&p));
            let pp = f.pair_p(2, 4).unwrap();
            assert!(pp.is_nan() || (0.0..=1.0).contains(&pp));
        }
    }

    #[test]
    fn phase_pairs_only_for_diurnal_blocks() {
        let a = analysis();
        let strict = a.phase_longitude_pairs(false);
        let relaxed = a.phase_longitude_pairs(true);
        assert!(relaxed.len() >= strict.len());
        let (strict_count, _) = a.strict_fraction();
        assert!(strict.len() <= strict_count);
    }

    #[test]
    fn predictor_bins_are_within_ranges() {
        use std::f64::consts::PI;
        let a = analysis();
        for (center, mean_lon, sd, n) in a.phase_longitude_predictor(20) {
            assert!((-PI..=PI).contains(&center));
            assert!((-180.0..=180.0).contains(&mean_lon));
            assert!(sd >= 0.0);
            assert!(n > 0);
        }
    }
}
