//! Immutable aggregate indexes and their JSON renderings.
//!
//! Everything here is computed once at load time from the decoded
//! [`DatasetRow`]s and then only read: the per-key group bodies, the
//! list bodies, the summary and the outage histogram are fully rendered
//! strings, and a per-block lookup answers `/v1/block/{id}` by binary
//! search over the id-sorted rows. Worker threads share the state behind
//! an `Arc` and never take a lock on these paths — the only mutable
//! structure is the [`ShardedLru`] in front of
//! ad-hoc `/v1/query` folds.
//!
//! Number formatting mirrors the canonical TSV dataset (6 decimals, 4
//! for `strongest_cpd`), so every served float is exactly the dataset's
//! rendering of the same value. The batch-differential oracle
//! (`testkit/tests/serve_oracle.rs`) re-renders all of these bodies from
//! an index-free fold and compares byte-for-byte.

use std::collections::{BTreeMap, HashMap};

use super::lru::{LruOutcome, ShardedLru};
use crate::export::DatasetRow;
use sleepwatch_obs::json_str;
use sleepwatch_spectral::DiurnalClass;

/// Counts behind one aggregation key (a country, an AS, a link type, or
/// a whole filtered view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCounts {
    /// Blocks in the group.
    pub blocks: u64,
    /// Strictly diurnal blocks.
    pub strict: u64,
    /// Strict or relaxed diurnal blocks.
    pub diurnal: u64,
    /// Blocks passing the stationarity screen.
    pub stationary: u64,
}

impl GroupCounts {
    /// Folds one row into the counts.
    pub fn absorb(&mut self, row: &DatasetRow) {
        self.blocks += 1;
        if row.class == DiurnalClass::Strict {
            self.strict += 1;
        }
        if row.class != DiurnalClass::NonDiurnal {
            self.diurnal += 1;
        }
        if row.stationary {
            self.stationary += 1;
        }
    }
}

/// `x/y` with the canonical 6-decimal rendering, `0.000000` when empty.
pub fn frac(x: u64, y: u64) -> String {
    if y == 0 {
        return "0.000000".to_string();
    }
    format!("{:.6}", x as f64 / y as f64)
}

fn group_fields(c: &GroupCounts) -> String {
    format!(
        "\"blocks\":{},\"strict\":{},\"diurnal\":{},\"strict_fraction\":{},\"diurnal_fraction\":{}",
        c.blocks,
        c.strict,
        c.diurnal,
        frac(c.strict, c.blocks),
        frac(c.diurnal, c.blocks),
    )
}

/// The `/v1/country/{code}` body.
pub fn country_body(code: &str, c: &GroupCounts) -> String {
    format!("{{\"country\":{},{}}}", json_str(code), group_fields(c))
}

/// The `/v1/as/{asn}` body.
pub fn as_body(asn: u32, c: &GroupCounts) -> String {
    format!("{{\"asn\":{asn},{}}}", group_fields(c))
}

/// The `/v1/link/{keyword}` body.
pub fn link_body(keyword: &str, c: &GroupCounts) -> String {
    format!("{{\"link\":{},{}}}", json_str(keyword), group_fields(c))
}

/// The `/v1/block/{id}` body for one row.
pub fn block_body(r: &DatasetRow) -> String {
    let class = match r.class {
        DiurnalClass::Strict => "d",
        DiurnalClass::Relaxed => "r",
        DiurnalClass::NonDiurnal => "n",
    };
    let phase = r.phase.map(|p| format!("{p:.6}")).unwrap_or_else(|| "null".into());
    let country = r.country.as_deref().map(json_str).unwrap_or_else(|| "null".into());
    let links: Vec<String> = r.links.iter().map(|l| json_str(l)).collect();
    format!(
        "{{\"block\":{},\"class\":\"{class}\",\"phase\":{phase},\"mean_a\":{:.6},\
         \"strongest_cpd\":{:.4},\"stationary\":{},\"outages\":{},\"probes\":{},\
         \"country\":{country},\"asn\":{},\"links\":[{}]}}",
        r.block_id,
        r.mean_a,
        r.strongest_cpd,
        r.stationary,
        r.outages,
        r.probes,
        r.asn,
        links.join(","),
    )
}

/// The `/v1/summary` body.
pub fn summary_body(rows: &[DatasetRow]) -> String {
    let mut c = GroupCounts::default();
    let mut located = 0u64;
    for r in rows {
        c.absorb(r);
        if r.country.is_some() {
            located += 1;
        }
    }
    format!(
        "{{\"blocks\":{},\"strict\":{},\"diurnal\":{},\"stationary\":{},\"located\":{located},\
         \"strict_fraction\":{},\"diurnal_fraction\":{}}}",
        c.blocks,
        c.strict,
        c.diurnal,
        c.stationary,
        frac(c.strict, c.blocks),
        frac(c.diurnal, c.blocks),
    )
}

/// The `/v1/outages` body: the outage-window series as a histogram of
/// blocks by outage count, ascending.
pub fn outages_body(rows: &[DatasetRow]) -> String {
    let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut with = 0u64;
    for r in rows {
        *hist.entry(r.outages).or_insert(0) += 1;
        total += u64::from(r.outages);
        if r.outages > 0 {
            with += 1;
        }
    }
    let buckets: Vec<String> =
        hist.iter().map(|(k, n)| format!("{{\"outages\":{k},\"blocks\":{n}}}")).collect();
    format!(
        "{{\"blocks\":{},\"blocks_with_outages\":{with},\"total_outages\":{total},\
         \"histogram\":[{}]}}",
        rows.len(),
        buckets.join(","),
    )
}

/// An ad-hoc cross-dimension filter, as parsed from `/v1/query`'s query
/// string. `None` dimensions match everything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Filter {
    /// Country code, exact match.
    pub country: Option<String>,
    /// Origin AS.
    pub asn: Option<u32>,
    /// Link-type keyword; a row matches when it carries the keyword.
    pub link: Option<String>,
    /// Stationarity verdict.
    pub stationary: Option<bool>,
}

impl Filter {
    /// True when the row passes every present dimension.
    pub fn matches(&self, r: &DatasetRow) -> bool {
        if let Some(c) = &self.country {
            if r.country.as_deref() != Some(c.as_str()) {
                return false;
            }
        }
        if let Some(a) = self.asn {
            if r.asn != a {
                return false;
            }
        }
        if let Some(l) = &self.link {
            if !r.links.iter().any(|k| k == l) {
                return false;
            }
        }
        if let Some(s) = self.stationary {
            if r.stationary != s {
                return false;
            }
        }
        true
    }

    /// Canonical cache key: present dimensions in fixed order, so
    /// equivalent filters share one LRU entry.
    pub fn cache_key(&self) -> String {
        let mut parts = Vec::new();
        if let Some(c) = &self.country {
            parts.push(format!("country={c}"));
        }
        if let Some(a) = self.asn {
            parts.push(format!("as={a}"));
        }
        if let Some(l) = &self.link {
            parts.push(format!("link={l}"));
        }
        if let Some(s) = self.stationary {
            parts.push(format!("stationary={s}"));
        }
        parts.join("&")
    }

    /// The echoed `"filter"` object for the response body.
    fn echo(&self) -> String {
        let mut parts = Vec::new();
        if let Some(c) = &self.country {
            parts.push(format!("\"country\":{}", json_str(c)));
        }
        if let Some(a) = self.asn {
            parts.push(format!("\"asn\":{a}"));
        }
        if let Some(l) = &self.link {
            parts.push(format!("\"link\":{}", json_str(l)));
        }
        if let Some(s) = self.stationary {
            parts.push(format!("\"stationary\":{s}"));
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// The `/v1/query` body: a straight fold of `filter` over `rows`.
pub fn query_body(rows: &[DatasetRow], filter: &Filter) -> String {
    let mut c = GroupCounts::default();
    for r in rows.iter().filter(|r| filter.matches(r)) {
        c.absorb(r);
    }
    format!(
        "{{\"filter\":{},\"blocks\":{},\"strict\":{},\"diurnal\":{},\"stationary\":{},\
         \"strict_fraction\":{}}}",
        filter.echo(),
        c.blocks,
        c.strict,
        c.diurnal,
        c.stationary,
        frac(c.strict, c.blocks),
    )
}

/// The immutable serving state: id-sorted rows, fully rendered list and
/// summary bodies, per-key group bodies, and the `/v1/query` LRU.
#[derive(Debug)]
pub struct ServeState {
    rows: Vec<DatasetRow>,
    summary: String,
    countries: String,
    ases: String,
    links: String,
    outages: String,
    by_country: HashMap<String, String>,
    by_asn: HashMap<u32, String>,
    by_link: HashMap<String, String>,
    lru: ShardedLru,
}

impl ServeState {
    /// Builds every index from `rows` (sorted by block id internally).
    /// `lru_capacity` bounds the ad-hoc query cache; zero disables it.
    pub fn build(mut rows: Vec<DatasetRow>, lru_capacity: usize) -> ServeState {
        rows.sort_by_key(|r| r.block_id);
        let mut by_country: BTreeMap<String, GroupCounts> = BTreeMap::new();
        let mut by_asn: BTreeMap<u32, GroupCounts> = BTreeMap::new();
        let mut by_link: BTreeMap<String, GroupCounts> = BTreeMap::new();
        for r in &rows {
            if let Some(c) = &r.country {
                by_country.entry(c.clone()).or_default().absorb(r);
            }
            by_asn.entry(r.asn).or_default().absorb(r);
            for l in &r.links {
                by_link.entry(l.clone()).or_default().absorb(r);
            }
        }
        let countries: Vec<String> = by_country.iter().map(|(k, c)| country_body(k, c)).collect();
        let ases: Vec<String> = by_asn.iter().map(|(k, c)| as_body(*k, c)).collect();
        let links: Vec<String> = by_link.iter().map(|(k, c)| link_body(k, c)).collect();
        ServeState {
            summary: summary_body(&rows),
            countries: format!("{{\"countries\":[{}]}}", countries.join(",")),
            ases: format!("{{\"ases\":[{}]}}", ases.join(",")),
            links: format!("{{\"links\":[{}]}}", links.join(",")),
            outages: outages_body(&rows),
            by_country: by_country.iter().map(|(k, c)| (k.clone(), country_body(k, c))).collect(),
            by_asn: by_asn.iter().map(|(k, c)| (*k, as_body(*k, c))).collect(),
            by_link: by_link.iter().map(|(k, c)| (k.clone(), link_body(k, c))).collect(),
            lru: ShardedLru::new(lru_capacity),
            rows,
        }
    }

    /// The id-sorted rows the indexes were built from.
    pub fn rows(&self) -> &[DatasetRow] {
        &self.rows
    }

    /// The `/v1/summary` body.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// The `/v1/country` list body.
    pub fn countries(&self) -> &str {
        &self.countries
    }

    /// The `/v1/as` list body.
    pub fn ases(&self) -> &str {
        &self.ases
    }

    /// The `/v1/link` list body.
    pub fn links(&self) -> &str {
        &self.links
    }

    /// The `/v1/outages` body.
    pub fn outages(&self) -> &str {
        &self.outages
    }

    /// The `/v1/country/{code}` body, if the country is present.
    pub fn country(&self, code: &str) -> Option<&str> {
        self.by_country.get(code).map(String::as_str)
    }

    /// The `/v1/as/{asn}` body, if the AS is present.
    pub fn asn(&self, asn: u32) -> Option<&str> {
        self.by_asn.get(&asn).map(String::as_str)
    }

    /// The `/v1/link/{keyword}` body, if the keyword is present.
    pub fn link(&self, keyword: &str) -> Option<&str> {
        self.by_link.get(keyword).map(String::as_str)
    }

    /// The `/v1/block/{id}` body: binary search over the sorted rows,
    /// rendered on demand (worlds are large; responses are not).
    pub fn block(&self, id: u64) -> Option<String> {
        let i = self.rows.binary_search_by_key(&id, |r| r.block_id).ok()?;
        Some(block_body(&self.rows[i]))
    }

    /// The `/v1/query` body for `filter`, served from the LRU when
    /// cached, folded over the rows otherwise.
    pub fn query(&self, filter: &Filter) -> (String, LruOutcome) {
        self.lru.get_or_insert_with(&filter.cache_key(), || query_body(&self.rows, filter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, country: Option<&str>, asn: u32, links: &[&str]) -> DatasetRow {
        DatasetRow {
            block_id: id,
            class: if id % 2 == 0 { DiurnalClass::Strict } else { DiurnalClass::NonDiurnal },
            phase: (id % 2 == 0).then_some(1.25),
            mean_a: 0.5,
            strongest_cpd: 1.0,
            stationary: true,
            outages: (id % 3) as u32,
            probes: 100 + id,
            lon: country.map(|_| 10.0),
            lat: country.map(|_| 20.0),
            country: country.map(String::from),
            centroid: false,
            alloc: "1994-05".into(),
            asn,
            links: links.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn state() -> ServeState {
        ServeState::build(
            vec![
                row(2, Some("US"), 7, &["adsl"]),
                row(1, Some("US"), 7, &["cable", "adsl"]),
                row(3, Some("DE"), 9, &[]),
                row(4, None, 9, &["cable"]),
            ],
            8,
        )
    }

    #[test]
    fn rows_are_sorted_and_lookup_works() {
        let s = state();
        let ids: Vec<u64> = s.rows().iter().map(|r| r.block_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert!(s.block(3).unwrap().starts_with("{\"block\":3,"));
        assert!(s.block(99).is_none());
    }

    #[test]
    fn group_bodies_agree_with_list_bodies() {
        let s = state();
        for code in ["US", "DE"] {
            let one = s.country(code).unwrap();
            assert!(s.countries().contains(one), "{code} body missing from list");
        }
        assert!(s.country("FR").is_none());
        assert!(s.countries().starts_with("{\"countries\":["));
        let us = s.country("US").unwrap();
        assert!(us.contains("\"blocks\":2") && us.contains("\"strict\":1"));
        assert!(us.contains("\"strict_fraction\":0.500000"));
    }

    #[test]
    fn summary_counts_located_blocks() {
        let s = state();
        assert!(s.summary().contains("\"blocks\":4"));
        assert!(s.summary().contains("\"located\":3"));
    }

    #[test]
    fn filters_compose_and_cache() {
        let s = state();
        let f =
            Filter { country: Some("US".into()), link: Some("adsl".into()), ..Filter::default() };
        let (body, out) = s.query(&f);
        assert_eq!(out, LruOutcome::Miss { evicted: false });
        assert!(body.contains("\"blocks\":2"), "{body}");
        let (again, out) = s.query(&f);
        assert_eq!(out, LruOutcome::Hit);
        assert_eq!(body, again);
        assert_eq!(body, query_body(s.rows(), &f));
    }

    #[test]
    fn outage_histogram_sums() {
        let s = state();
        // Outages are id % 3: blocks 1,2,3,4 → 1,2,0,1.
        let b = s.outages();
        assert!(b.contains("\"total_outages\":4"), "{b}");
        assert!(b.contains("\"blocks_with_outages\":3"), "{b}");
        assert!(b.contains("{\"outages\":0,\"blocks\":1}"), "{b}");
    }
}
