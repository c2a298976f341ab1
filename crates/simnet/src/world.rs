//! World synthesis: a calibrated population of /24 blocks.
//!
//! The generator plants the structure the paper measured — country-level
//! diurnal fractions (Tables 3/4), phase tied to longitude (§5.2), newer
//! allocations more diurnal (§5.3), link technologies correlated with
//! diurnalness (§5.5) — and nothing downstream may read the planted labels;
//! the probing + spectral pipeline has to rediscover them.

use crate::block::{BlockProfile, BlockSpec, LinkClass, Links};
use sleepwatch_geoecon::rng::{hash_parts, KeyedRng};
use sleepwatch_geoecon::{
    AllocationRegistry, AsRecord, Country, GeoDatabase, Rir, YearMonth, COUNTRIES,
};

/// Start of the paper's `A12w` adaptive dataset: 2013-04-24 17:18 UTC.
pub const A12W_START: u64 = 1_366_823_880;

/// Start of Survey `S51w`: 2012-11-16 00:00 UTC.
pub const S51W_START: u64 = 1_353_024_000;

/// One probing round: 11 minutes.
pub const ROUND_SECONDS: u64 = 660;

/// Configuration of a synthetic world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; all structure and behaviour derive from it.
    pub seed: u64,
    /// Number of /24 blocks to synthesize.
    pub num_blocks: usize,
    /// Measurement epoch (unix seconds); outages are planted inside
    /// `[start_time, start_time + span_days]`.
    pub start_time: u64,
    /// Nominal observation span, days (for outage placement only).
    pub span_days: f64,
    /// Multiplier on every country's diurnal propensity (the Fig. 11
    /// long-term evolution knob). 1.0 = the paper's 2013 world.
    pub propensity_scale: f64,
    /// Restrict generation to these country codes (`None` = whole world).
    pub country_filter: Option<Vec<&'static str>>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1,
            num_blocks: 10_000,
            start_time: A12W_START,
            span_days: 35.0,
            propensity_scale: 1.0,
            country_filter: None,
        }
    }
}

/// A fully synthesized world.
#[derive(Debug)]
pub struct World {
    /// The configuration it was built from.
    pub cfg: WorldConfig,
    /// All blocks.
    pub blocks: Vec<BlockSpec>,
    /// The /8 allocation registry.
    pub registry: AllocationRegistry,
    /// The geolocation database (with its error model).
    pub geodb: GeoDatabase,
    /// WHOIS-style AS records for every AS in use.
    pub as_records: Vec<AsRecord>,
}

/// Stream tags for world-generation draws.
const STREAM_BLOCK: u64 = 0x626c_6f6b; // "blok"
const STREAM_OUTAGE: u64 = 0x6f75_7467; // "outg"
const STREAM_SHARD: u64 = 0x7368_7264; // "shrd"

/// Fraction of blocks suffering one injected outage during the span.
const OUTAGE_FRACTION: f64 = 0.04;

/// Routes a block id to one of `shards` ingest shards.
///
/// A pure keyed hash: the mapping depends only on `(block_id, shards)` —
/// never on arrival order, world configuration or thread count — which is
/// what lets any process rebuild a shard's membership from the id alone.
#[inline]
pub fn shard_of(block_id: u64, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard required");
    (hash_parts(&[STREAM_SHARD, block_id]) % shards as u64) as usize
}

/// Per-country AS inventory: `(asn, ISP display name)` pairs.
fn synthesize_ases(countries: &[&'static Country]) -> (Vec<AsRecord>, Vec<Vec<u32>>) {
    const SUFFIXES: [&str; 6] =
        ["Telecom", "Cable", "Online", "DSL Networks", "Broadband", "Datacom"];
    let mut records = Vec::new();
    let mut per_country = Vec::with_capacity(countries.len());
    let mut next_asn = 1_000u32;
    for c in countries {
        // Bigger address populations get more ISPs (2–10).
        let n_isps = (2 + (c.block_weight / 60_000.0) as usize).min(10);
        let mut asns = Vec::new();
        for i in 0..n_isps {
            let isp = format!("{} {}", c.name.replace(' ', ""), SUFFIXES[i % SUFFIXES.len()]);
            // Registry-style tag leading with the organization, like
            // "CHINANET-BACKBONE China Telecom": the org token must come
            // first so string clustering groups the ISP's ASes together.
            let tag = isp.replace(' ', "").to_ascii_uppercase();
            // Larger ISPs register several ASes, exercising org clustering.
            let n_as = 1 + (i % 3);
            for j in 0..n_as {
                let asn = next_asn;
                next_asn += 1;
                records.push(AsRecord {
                    asn,
                    name: format!("{tag}-{asn} {isp} {}", ["", "II", "III"][j]),
                });
                asns.push(asn);
            }
        }
        per_country.push(asns);
    }
    (records, per_country)
}

/// Link-class mixes: `(class, weight)`; one table for diurnal blocks, one
/// for always-on blocks. Calibrated so the measured per-keyword fractions
/// land near Fig. 17 (dynamic most diurnal at ~19 %, dsl ~11 %, dialup
/// barely diurnal despite expectations).
const DIURNAL_LINK_MIX: [(LinkClass, f64); 9] = [
    (LinkClass::Dynamic, 0.30),
    (LinkClass::Dsl, 0.22),
    (LinkClass::Dhcp, 0.14),
    (LinkClass::Ppp, 0.10),
    (LinkClass::Residential, 0.08),
    (LinkClass::Cable, 0.08),
    (LinkClass::Static, 0.05),
    (LinkClass::Dialup, 0.01),
    (LinkClass::Server, 0.01),
];
const ALWAYSON_LINK_MIX: [(LinkClass, f64); 9] = [
    (LinkClass::Static, 0.20),
    (LinkClass::Dsl, 0.20),
    (LinkClass::Cable, 0.18),
    (LinkClass::Dynamic, 0.17),
    (LinkClass::Dhcp, 0.09),
    (LinkClass::Server, 0.07),
    (LinkClass::Residential, 0.06),
    (LinkClass::Dialup, 0.04),
    (LinkClass::Ppp, 0.04),
];

fn weighted_pick<T: Copy>(rng: &mut KeyedRng, table: &[(T, f64)]) -> T {
    let total: f64 = table.iter().map(|&(_, w)| w).sum();
    let mut x = rng.next_f64() * total;
    for &(v, w) in table {
        x -= w;
        if x <= 0.0 {
            return v;
        }
    }
    table.last().expect("non-empty table").0
}

/// A lazy, seed-keyed block generator: the shared world structure
/// (country tables, allocation registry, geo database, AS inventory)
/// without the `Vec<BlockSpec>`.
///
/// Every block's randomness is keyed by `(seed, stream, id)` alone, so any
/// block — and therefore any id-range shard — can be synthesized
/// independently, in any order, on any worker, and is bit-identical to the
/// block [`World::generate`] would have produced at that index. Paper-scale
/// runs (3.7M blocks) pull chunks from a `WorldSource` instead of
/// materializing ~1 GB of specs up front, bounding peak memory at
/// O(workers × chunk).
#[derive(Debug)]
pub struct WorldSource {
    cfg: WorldConfig,
    countries: Vec<&'static Country>,
    /// Cumulative sampling weights, aligned with `countries`.
    cumulative: Vec<f64>,
    /// Per-country AS inventories, aligned with `countries`.
    country_asns: Vec<Vec<u32>>,
    registry: AllocationRegistry,
    geodb: GeoDatabase,
    as_records: Vec<AsRecord>,
    exhaustion: YearMonth,
    span_seconds: u64,
}

impl WorldSource {
    /// Builds the shared structure for `cfg` without generating any block.
    /// Deterministic in `cfg`.
    pub fn new(cfg: WorldConfig) -> WorldSource {
        let countries: Vec<&'static Country> = match &cfg.country_filter {
            Some(codes) => COUNTRIES.iter().filter(|c| codes.contains(&c.code)).collect(),
            None => COUNTRIES.iter().collect(),
        };
        assert!(!countries.is_empty(), "country filter excluded every country");

        let registry = AllocationRegistry::synthesize(cfg.seed);
        let geodb = GeoDatabase::new(cfg.seed);
        let (as_records, country_asns) = synthesize_ases(&countries);

        // Cumulative weights for country sampling.
        let total_w: f64 = countries.iter().map(|c| c.block_weight).sum();
        let mut cumulative = Vec::with_capacity(countries.len());
        let mut acc = 0.0;
        for c in &countries {
            acc += c.block_weight / total_w;
            cumulative.push(acc);
        }

        let span_seconds = (cfg.span_days * 86_400.0) as u64;
        let exhaustion = registry.exhaustion();
        WorldSource {
            cfg,
            countries,
            cumulative,
            country_asns,
            registry,
            geodb,
            as_records,
            exhaustion,
            span_seconds,
        }
    }

    /// The configuration this source serves.
    pub fn cfg(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Number of blocks in the world (`cfg.num_blocks`).
    pub fn len(&self) -> usize {
        self.cfg.num_blocks
    }

    /// `true` for a zero-block world.
    pub fn is_empty(&self) -> bool {
        self.cfg.num_blocks == 0
    }

    /// The geolocation database shared by every block.
    pub fn geodb(&self) -> &GeoDatabase {
        &self.geodb
    }

    /// Synthesizes block `id`. Bit-identical to `World::generate`'s block
    /// at the same index regardless of which other blocks were generated.
    pub fn generate_block(&self, id: u64) -> BlockSpec {
        let spec = self.synthesize(id);
        sleepwatch_obs::global().simnet.blocks_generated.incr();
        spec
    }

    /// Synthesizes the given ids into `out` (cleared first), in order.
    /// One counter update for the whole shard keeps telemetry out of the
    /// per-block path.
    pub fn generate_into(&self, ids: impl IntoIterator<Item = u64>, out: &mut Vec<BlockSpec>) {
        out.clear();
        out.extend(ids.into_iter().map(|id| self.synthesize(id)));
        sleepwatch_obs::global().simnet.blocks_generated.add(out.len() as u64);
    }

    /// Materializes every block, consuming the source.
    pub fn into_world(self) -> World {
        let blocks: Vec<BlockSpec> =
            (0..self.cfg.num_blocks as u64).map(|id| self.synthesize(id)).collect();
        let obs = sleepwatch_obs::global();
        obs.simnet.worlds_generated.incr();
        obs.simnet.blocks_generated.add(blocks.len() as u64);
        World {
            cfg: self.cfg,
            blocks,
            registry: self.registry,
            geodb: self.geodb,
            as_records: self.as_records,
        }
    }

    /// The uncounted per-block generator; all public entry points funnel
    /// here so they stay bit-identical.
    fn synthesize(&self, id: u64) -> BlockSpec {
        let cfg = &self.cfg;
        let mut rng = KeyedRng::from_parts(&[cfg.seed, STREAM_BLOCK, id]);

        // 1. Country.
        let u = rng.next_f64();
        let ci = self.cumulative.iter().position(|&c| u <= c).unwrap_or(self.countries.len() - 1);
        let country = self.countries[ci];
        let country_idx = COUNTRIES
            .iter()
            .position(|c| c.code == country.code)
            .expect("filtered from the same table");

        // 2. Planted diurnal label.
        let propensity = (country.diurnal_propensity * cfg.propensity_scale).min(0.95);
        let diurnal = rng.chance(propensity);

        // 3. True position.
        let lon = (country.lon + rng.normal() * country.lon_spread).clamp(-179.9, 179.9);
        let lat = (country.lat + rng.normal() * country.lat_spread).clamp(-85.0, 85.0);

        // 4. Allocation: diurnal blocks skew toward late /8s (§5.3).
        let rir = Rir::for_region(country.region);
        let first = YearMonth::new(country.first_alloc_year, 1);
        let window = self.exhaustion.months_between(first).max(1) as f64;
        let frac = if diurnal {
            rng.next_f64().powf(0.45) // late-skewed
        } else {
            rng.next_f64().powf(1.6) // early-skewed
        };
        let target =
            YearMonth::from_months_since_epoch(first.months_since_epoch() + (frac * window) as i64);
        let prefix8 = pick_prefix_near(&self.registry, rir, target, cfg.seed ^ id);
        let alloc_date = self.registry.date_of(prefix8).expect("picked from registry");

        // 5. AS.
        let asns = &self.country_asns[ci];
        let asn = asns[rng.below(asns.len() as u64) as usize];

        // 6. Link classes: 1 primary, sometimes a secondary.
        let mix: &[(LinkClass, f64)] = if diurnal { &DIURNAL_LINK_MIX } else { &ALWAYSON_LINK_MIX };
        let mut links = Links::from([weighted_pick(&mut rng, mix)]);
        if rng.chance(0.25) {
            let second = weighted_pick(&mut rng, mix);
            if second != links[0] {
                links.push(second);
            }
        }

        // 7. Address population.
        let profile = if diurnal {
            let e = 32 + rng.below(225) as u16; // 32..=256
            let n_stable = ((e as f64) * rng.range(0.05, 0.30)) as u16;
            BlockProfile {
                n_stable,
                n_diurnal: e - n_stable,
                stable_avail: rng.range(0.6, 0.95),
                diurnal_avail: rng.range(0.55, 0.95),
                // Business-day usage: on in the local morning.
                onset_hours: 7.5 + rng.normal() * 1.2,
                onset_spread: rng.range(0.5, 3.5),
                duration_hours: rng.range(8.0, 14.0),
                duration_spread: rng.range(0.5, 3.0),
                sigma_start: rng.range(0.2, 1.2),
                sigma_duration: rng.range(0.2, 1.5),
                utc_offset_hours: country.utc_offset_hours(),
            }
        } else {
            // Archetypes from §3.1.1: sparse/high-A, dense/low-A,
            // and a broad middle; a few also carry a *minority* of
            // diurnal addresses (decentralized dynamic pockets, as
            // found at USC).
            let arch = rng.next_f64();
            let (e, avail) = if arch < 0.30 {
                (16 + rng.below(48) as u16, rng.range(0.55, 0.95))
            } else if arch < 0.50 {
                (180 + rng.below(77) as u16, rng.range(0.10, 0.45))
            } else {
                (64 + rng.below(116) as u16, rng.range(0.30, 0.90))
            };
            let minority_diurnal =
                if rng.chance(0.15) { ((e as f64) * rng.range(0.02, 0.10)) as u16 } else { 0 };
            BlockProfile {
                n_stable: e - minority_diurnal,
                n_diurnal: minority_diurnal,
                stable_avail: avail,
                diurnal_avail: avail,
                onset_hours: 7.5 + rng.normal() * 1.5,
                onset_spread: rng.range(0.5, 3.0),
                duration_hours: rng.range(8.0, 12.0),
                duration_spread: 1.0,
                sigma_start: 0.5,
                sigma_duration: 0.5,
                utc_offset_hours: country.utc_offset_hours(),
            }
        };

        // 8. Slow availability drift: a quarter of blocks renumber
        //    or grow over the observation window; the paper finds
        //    ~80 % of blocks drift less than 1 address/day.
        let drift_addr_per_day = if rng.chance(0.25) {
            let mag = rng.range(0.3, 3.5);
            if rng.chance(0.5) {
                mag
            } else {
                -mag
            }
        } else {
            0.0
        };

        // 9. Outage injection.
        let mut og = KeyedRng::from_parts(&[cfg.seed, STREAM_OUTAGE, id]);
        let outage = if og.chance(OUTAGE_FRACTION) && self.span_seconds > 0 {
            let dur = (3_600.0 * og.range(1.0, 24.0)) as u64;
            let start = cfg.start_time + og.below(self.span_seconds.saturating_sub(dur).max(1));
            Some((start, start + dur))
        } else {
            None
        };

        // 10. Stale historical estimate for estimator startup.
        let duty = (profile.duration_hours / 24.0).min(1.0);
        let e_cnt = profile.ever_active() as f64;
        let long_run = if e_cnt > 0.0 {
            (profile.n_stable as f64 * profile.stable_avail
                + profile.n_diurnal as f64 * profile.diurnal_avail * duty)
                / e_cnt
        } else {
            0.0
        };
        let hist_avail = if rng.chance(0.8) {
            (long_run + rng.range(-0.08, 0.08)).clamp(0.1, 1.0)
        } else {
            rng.range(0.1, 1.0) // badly stale, as in Fig. 1's start
        };

        // 11. Address permutation (scatter slots over the /24).
        let perm_offset = rng.below(256) as u8;
        let perm_step = (rng.below(128) as u8) * 2 + 1;

        BlockSpec {
            id,
            seed: cfg.seed,
            country_idx,
            asn,
            prefix8,
            alloc_date,
            lon,
            lat,
            links,
            profile,
            outage,
            lease: None,
            // Mild weekend quieting for a third of always-on
            // enterprise-ish blocks; homes don't sleep weekends.
            weekend_scale: if !diurnal && rng.chance(0.2) { rng.range(0.8, 0.97) } else { 1.0 },
            drift_addr_per_day,
            drift_ref: cfg.start_time,
            hist_avail,
            planted_diurnal: diurnal,
            perm_offset,
            perm_step,
        }
    }
}

/// Picks the /8 whose allocation date is nearest `target` within `rir`
/// (small keyed tie-jitter so one date doesn't absorb everything).
fn pick_prefix_near(registry: &AllocationRegistry, rir: Rir, target: YearMonth, key: u64) -> u8 {
    let mut rng = KeyedRng::from_parts(&[0x6e65_6172, key]);
    let jitter = rng.below(7) as i64 - 3;
    registry
        .entries()
        .iter()
        .filter(|e| e.rir == rir)
        .min_by_key(|e| (e.date.months_between(target) + jitter).abs())
        .map(|e| e.prefix)
        .unwrap_or(1)
}

impl World {
    /// Synthesizes a world from `cfg`. Deterministic in `cfg`, and
    /// equivalent to materializing every block of
    /// [`WorldSource::new(cfg)`](WorldSource::new).
    pub fn generate(cfg: WorldConfig) -> World {
        WorldSource::new(cfg).into_world()
    }

    /// The country of a block.
    #[cfg(test)]
    fn country_of(&self, block: &BlockSpec) -> &'static Country {
        &COUNTRIES[block.country_idx]
    }

    /// Absolute time of round `r`.
    pub fn round_time(&self, round: u64) -> u64 {
        self.cfg.start_time + round * ROUND_SECONDS
    }

    /// Number of rounds in `days`.
    pub fn rounds_in_days(days: f64) -> usize {
        (days * 86_400.0 / ROUND_SECONDS as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldConfig { num_blocks: 2_000, seed: 11, ..WorldConfig::default() })
    }

    #[test]
    fn shard_routing_partitions_the_id_space() {
        // Every id lands in exactly one shard, the mapping is stable, and
        // no shard is starved on a realistic id range.
        for shards in [1usize, 4, 8] {
            let mut per_shard = vec![0u64; shards];
            for id in 0..4_096u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "routing must be pure");
                per_shard[s] += 1;
            }
            for (s, &n) in per_shard.iter().enumerate() {
                assert!(n > 0, "shard {s}/{shards} got no blocks");
            }
        }
    }

    #[test]
    fn shards_cover_the_world_disjointly() {
        let src = WorldSource::new(WorldConfig { num_blocks: 500, seed: 9, ..Default::default() });
        let shards = 4;
        let mut seen = vec![false; src.len()];
        for shard in 0..shards {
            for id in (0..src.len() as u64).filter(|&id| shard_of(id, shards) == shard) {
                assert!(!seen[id as usize], "block {id} owned by two shards");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "a block belongs to no shard");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig { num_blocks: 100, seed: 5, ..Default::default() });
        let b = World::generate(WorldConfig { num_blocks: 100, seed: 5, ..Default::default() });
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.prefix8, y.prefix8);
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.planted_diurnal, y.planted_diurnal);
            assert_eq!(x.profile.ever_active(), y.profile.ever_active());
        }
    }

    #[test]
    fn source_shards_match_materialized_world_exactly() {
        let cfg = WorldConfig { num_blocks: 300, seed: 5, ..Default::default() };
        let world = World::generate(cfg.clone());
        let source = WorldSource::new(cfg);
        // Single blocks, in arbitrary order.
        for &id in &[299u64, 0, 137, 42] {
            assert_eq!(source.generate_block(id), world.blocks[id as usize]);
        }
        // A mid-world shard, generated independently.
        let mut shard = Vec::new();
        source.generate_into(100..200, &mut shard);
        assert_eq!(shard.as_slice(), &world.blocks[100..200]);
    }

    #[test]
    fn seeds_change_the_world() {
        let a = World::generate(WorldConfig { num_blocks: 200, seed: 1, ..Default::default() });
        let b = World::generate(WorldConfig { num_blocks: 200, seed: 2, ..Default::default() });
        let same = a
            .blocks
            .iter()
            .zip(&b.blocks)
            .filter(|(x, y)| x.planted_diurnal == y.planted_diurnal && x.asn == y.asn)
            .count();
        assert!(same < 150, "{same} of 200 identical across seeds");
    }

    #[test]
    fn planted_diurnal_fraction_matches_calibration() {
        let w = small_world();
        let diurnal = w.blocks.iter().filter(|b| b.planted_diurnal).count();
        let frac = diurnal as f64 / w.blocks.len() as f64;
        let planted = sleepwatch_geoecon::planted_world_diurnal_fraction();
        assert!((frac - planted).abs() < 0.03, "measured {frac}, planted {planted}");
    }

    #[test]
    fn us_blocks_rarely_diurnal_cn_often() {
        let w = World::generate(WorldConfig { num_blocks: 6_000, seed: 3, ..Default::default() });
        let frac_in = |code: &str| {
            let blocks: Vec<_> = w.blocks.iter().filter(|b| w.country_of(b).code == code).collect();
            let d = blocks.iter().filter(|b| b.planted_diurnal).count();
            (d as f64 / blocks.len().max(1) as f64, blocks.len())
        };
        let (us, us_n) = frac_in("US");
        let (cn, cn_n) = frac_in("CN");
        assert!(us_n > 500, "US should dominate block counts, got {us_n}");
        assert!(cn_n > 300, "CN second, got {cn_n}");
        assert!(us < 0.02, "US fraction {us}");
        assert!((cn - 0.498).abs() < 0.08, "CN fraction {cn}");
    }

    #[test]
    fn diurnal_blocks_allocated_later_on_average() {
        let w = small_world();
        let mean_month = |diurnal: bool| {
            let xs: Vec<i64> = w
                .blocks
                .iter()
                .filter(|b| b.planted_diurnal == diurnal)
                .map(|b| b.alloc_date.months_since_epoch())
                .collect();
            xs.iter().sum::<i64>() as f64 / xs.len() as f64
        };
        assert!(
            mean_month(true) > mean_month(false) + 12.0,
            "diurnal blocks must sit in newer space: {} vs {}",
            mean_month(true),
            mean_month(false)
        );
    }

    #[test]
    fn prefixes_respect_rir_of_country() {
        let w = small_world();
        for b in w.blocks.iter().take(300) {
            let c = w.country_of(b);
            let rir = Rir::for_region(c.region);
            assert_eq!(w.registry.get(b.prefix8).unwrap().rir, rir, "block {}", b.id);
        }
    }

    #[test]
    fn dynamic_links_skew_diurnal() {
        let w = small_world();
        let frac_diurnal = |class: LinkClass| {
            let with: Vec<_> = w.blocks.iter().filter(|b| b.links.contains(&class)).collect();
            with.iter().filter(|b| b.planted_diurnal).count() as f64 / with.len().max(1) as f64
        };
        assert!(frac_diurnal(LinkClass::Dynamic) > frac_diurnal(LinkClass::Static));
        assert!(frac_diurnal(LinkClass::Dynamic) > frac_diurnal(LinkClass::Dialup));
    }

    #[test]
    fn outage_fraction_respected() {
        let w = small_world();
        let with = w.blocks.iter().filter(|b| b.outage.is_some()).count();
        let frac = with as f64 / w.blocks.len() as f64;
        assert!((frac - 0.04).abs() < 0.015, "outage fraction {frac}");
        for b in w.blocks.iter().filter(|b| b.outage.is_some()) {
            let (s, e) = b.outage.unwrap();
            assert!(s >= w.cfg.start_time);
            assert!(e > s);
        }
    }

    #[test]
    fn country_filter_restricts_world() {
        let w = World::generate(WorldConfig {
            num_blocks: 300,
            seed: 9,
            country_filter: Some(vec!["JP", "BR"]),
            ..Default::default()
        });
        for b in &w.blocks {
            let code = w.country_of(b).code;
            assert!(code == "JP" || code == "BR", "unexpected {code}");
        }
    }

    #[test]
    fn propensity_scale_shifts_fraction() {
        let base =
            World::generate(WorldConfig { num_blocks: 3_000, seed: 4, ..Default::default() });
        let scaled = World::generate(WorldConfig {
            num_blocks: 3_000,
            seed: 4,
            propensity_scale: 0.5,
            ..Default::default()
        });
        let f = |w: &World| {
            w.blocks.iter().filter(|b| b.planted_diurnal).count() as f64 / w.blocks.len() as f64
        };
        assert!(f(&scaled) < 0.7 * f(&base), "{} vs {}", f(&scaled), f(&base));
    }

    #[test]
    fn as_records_cluster_by_isp() {
        let w = small_world();
        assert!(!w.as_records.is_empty());
        // Every block's ASN exists in the record set.
        let asns: std::collections::HashSet<u32> = w.as_records.iter().map(|r| r.asn).collect();
        for b in w.blocks.iter().take(200) {
            assert!(asns.contains(&b.asn));
        }
    }

    #[test]
    fn rounds_helper() {
        assert_eq!(World::rounds_in_days(35.0), 4582);
        assert_eq!(World::rounds_in_days(14.0), 1833);
    }

    #[test]
    fn true_series_reflects_diurnality() {
        let w = small_world();
        let idx = w.blocks.iter().position(|b| b.planted_diurnal).expect("some diurnal block");
        let series: Vec<f64> =
            (0..131 * 3).map(|r| w.blocks[idx].true_availability(w.round_time(r))).collect();
        let hi = series.iter().cloned().fold(0.0, f64::max);
        let lo = series.iter().cloned().fold(1.0, f64::min);
        assert!(hi - lo > 0.2, "diurnal block should swing: {lo}..{hi}");
    }
}
