//! Immutable aggregate indexes and their JSON renderings.
//!
//! Everything here is computed once at load time from the decoded
//! [`DatasetRow`]s and then only read: the per-key group bodies, the
//! list bodies, the summary and the outage histogram are fully rendered
//! strings; `/v1/block/{id}` finds its row by offset in a sorted id
//! column and renders it with one [`write_block_body`] — a single pass of appends into a stack
//! buffer, handed to the caller's `String` whole; an ad-hoc
//! `/v1/query` naming at most one of country, AS and link is answered
//! from that key's counts split by stationarity, kept at build time, and
//! only a filter naming two or more goes through the [`ShardedLru`],
//! whose misses fold over the shortest posting list (row indices per
//! country, AS and link keyword) the filter names instead of over the
//! table. Worker threads share the state behind an `Arc` and never take
//! a lock on these paths — the only mutable structure is the LRU.
//!
//! Number formatting mirrors the canonical TSV dataset (6 decimals, 4
//! for `strongest_cpd`), so every served float is exactly the dataset's
//! rendering of the same value: [`push_fixed`] is `format!`'s `{:.N}`
//! by exact arithmetic, without the formatter, for every value a dataset
//! holds but exact ties (negative phases included). The batch-differential
//! oracle (`testkit/tests/serve_oracle.rs`) re-renders all of these
//! bodies from an index-free fold and compares byte-for-byte.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::Hash;

use super::lru::{LruOutcome, ShardedLru};
use crate::export::DatasetRow;
use sleepwatch_obs::{push_json_str, Stage, StageTimer};
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

    /// The counts of two disjoint row sets together.
    fn plus(self, other: GroupCounts) -> GroupCounts {
        GroupCounts {
            blocks: self.blocks + other.blocks,
            strict: self.strict + other.strict,
            diurnal: self.diurnal + other.diurnal,
            stationary: self.stationary + other.stationary,
        }
    }
}

/// Counts of a row set's non-stationary and stationary rows, in that
/// order: indexed by a `stationary` value.
type Split = [GroupCounts; 2];

/// Scratch for one rendered number, which ends at [`DIGITS_END`]: the
/// second half is slack, so that a fixed 32-byte copy from the number's
/// first byte stays in bounds.
type Digits = [u8; 64];

/// Where a number in [`Digits`] ends.
const DIGITS_END: usize = 32;

/// Powers of ten up to the largest scale [`fixed_digits`] answers.
const POW10: [u64; 10] =
    [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// `00` to `99`, two bytes each.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes `n` in decimal so that it ends before `end`, two digits a step
/// and zero-padded to at least `width` digits; returns where it starts.
fn pad_digits(buf: &mut Digits, mut end: usize, mut n: u64, width: usize) -> usize {
    let stop = end - width;
    while n >= 100 {
        let p = (n % 100) as usize * 2;
        n /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[p..p + 2]);
    }
    if n >= 10 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[n as usize * 2..n as usize * 2 + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    while end > stop {
        end -= 1;
        buf[end] = b'0';
    }
    end
}

/// Writes `n` in decimal with a point before its last `decimals` digits
/// (none for zero, at most 9), zero-padded so that a digit precedes the
/// point — `(1234, 2)` is `12.34`, `(5, 2)` is `0.05`, `(5, 0)` is `5` —
/// ending at [`DIGITS_END`], and returns where the text starts. Every
/// number a body carries is written here.
fn scaled_digits(buf: &mut Digits, n: u64, decimals: usize) -> usize {
    if decimals == 0 {
        return pad_digits(buf, DIGITS_END, n, 1);
    }
    let scale = POW10[decimals];
    let point = pad_digits(buf, DIGITS_END, n % scale, decimals) - 1;
    buf[point] = b'.';
    pad_digits(buf, point, n / scale, 1)
}

/// Appends `n` in decimal, as `{n}` renders it.
fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0; 64];
    let i = scaled_digits(&mut buf, n, 0);
    out.push_str(std::str::from_utf8(&buf[i..DIGITS_END]).expect("ascii digits"));
}

/// [`push_u64`] onto bytes.
pub(crate) fn extend_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0; 64];
    let i = scaled_digits(&mut buf, n, 0);
    out.extend_from_slice(&buf[i..DIGITS_END]);
}

/// Writes `v` rounded to `decimals` places into `buf`, as `{:.N}`
/// renders it, and returns where the text starts — or `None`
/// where only the standard formatter decides: an exact tie, NaN, an
/// infinity, |v| from 1e9, more than 9 decimals.
///
/// A magnitude below 1e9 is `m / 2^shift` exactly, so `|v| * 10^decimals`
/// is the u128 `m * 10^decimals` shifted right, and the bits shifted out
/// say on which side of one half the remainder lies; above and below one
/// half the digits are forced. `{:.N}` prints the sign and then rounds
/// the magnitude, so a negative value is its magnitude's digits behind
/// `-` — `-0.0` and values that round to zero included.
fn fixed_digits(buf: &mut Digits, v: f64, decimals: usize) -> Option<usize> {
    let magnitude = v.abs();
    if magnitude.is_nan() || magnitude >= 1e9 || decimals >= POW10.len() {
        return None;
    }
    let bits = magnitude.to_bits();
    let exp = (bits >> 52) as u32;
    let frac = bits & ((1 << 52) - 1);
    let (m, shift) = if exp == 0 { (frac, 1074) } else { (frac | 1 << 52, 1075 - exp) };
    // m < 2^53 and the scale < 2^30; |v| < 2^30 puts shift at 23 or more.
    let p = u128::from(m) * u128::from(POW10[decimals]);
    let (q, side) = if shift >= 100 {
        (0, Ordering::Less)
    } else {
        (p >> shift, (p & ((1 << shift) - 1)).cmp(&(1 << (shift - 1))))
    };
    if side == Ordering::Equal {
        return None;
    }
    // At most 9 + 1 + 9 digits and the point, and the sign: 20 of 32.
    let mut i = scaled_digits(buf, q as u64 + u64::from(side == Ordering::Greater), decimals);
    if v.is_sign_negative() {
        i -= 1;
        buf[i] = b'-';
    }
    Some(i)
}

/// Appends `v` with `decimals` digits after the point: byte for byte
/// `format!("{v:.decimals$}")`. Every finite value below 1e9 in
/// magnitude, negative or not, is written by `fixed_digits` without
/// the formatter (three of these were most of a block body's cost); only
/// exact ties, NaN, infinities, |v| from 1e9 and more than 9 decimals
/// reach `core::fmt`, so no rounding rule is spelled twice.
pub fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    let mut buf = [0; 64];
    match fixed_digits(&mut buf, v, decimals) {
        Some(i) => out.push_str(std::str::from_utf8(&buf[i..DIGITS_END]).expect("ascii digits")),
        None => {
            let _ = write!(out, "{v:.decimals$}");
        }
    }
}

/// Appends `label` (punctuation included) and the count after it.
fn push_count(out: &mut String, label: &str, n: u64) {
    out.push_str(label);
    push_u64(out, n);
}

/// Appends `label` and `x/y` in the canonical 6-decimal rendering,
/// `0.000000` when empty.
fn push_frac(out: &mut String, label: &str, x: u64, y: u64) {
    out.push_str(label);
    if y == 0 {
        out.push_str("0.000000");
    } else {
        push_fixed(out, x as f64 / y as f64, 6);
    }
}

/// Appends the three counts every aggregate body carries, `blocks`
/// behind `open`.
fn push_counts(out: &mut String, open: &str, c: &GroupCounts) {
    push_count(out, open, c.blocks);
    push_count(out, ",\"strict\":", c.strict);
    push_count(out, ",\"diurnal\":", c.diurnal);
}

/// Closes a group body opened with its key: the counts and both
/// fractions.
fn close_group_body(mut out: String, c: &GroupCounts) -> String {
    push_counts(&mut out, ",\"blocks\":", c);
    push_frac(&mut out, ",\"strict_fraction\":", c.strict, c.blocks);
    push_frac(&mut out, ",\"diurnal_fraction\":", c.diurnal, c.blocks);
    out.push('}');
    out
}

/// The `/v1/country/{code}` body.
pub fn country_body(code: &str, c: &GroupCounts) -> String {
    let mut out = String::from("{\"country\":");
    push_json_str(&mut out, code);
    close_group_body(out, c)
}

/// The `/v1/as/{asn}` body.
pub fn as_body(asn: u32, c: &GroupCounts) -> String {
    let mut out = String::new();
    push_count(&mut out, "{\"asn\":", asn.into());
    close_group_body(out, c)
}

/// The `/v1/link/{keyword}` body.
pub fn link_body(keyword: &str, c: &GroupCounts) -> String {
    let mut out = String::from("{\"link\":");
    push_json_str(&mut out, keyword);
    close_group_body(out, c)
}

/// Room a body buffer starts with: block, group and query bodies run to
/// about 200 bytes, so only a list body or `/metrics` outgrows it. Kept
/// tight because callers of [`block_body`] hold on to what it returns.
pub(crate) const BODY_ROOM: usize = 256;

/// Stack room for one block body: about 240 bytes of keys and numbers
/// at their widest, plus the country and the link keywords.
const BLOCK_ROOM: usize = 512;

/// A block body assembled in a stack buffer and handed to its `String`
/// whole, so that a body costs one UTF-8 check instead of one per
/// number. Only ASCII is staged; anything else, and anything that does
/// not fit, is appended to the `String` after a flush.
struct Staged<'a> {
    out: &'a mut String,
    buf: [u8; BLOCK_ROOM],
    len: usize,
}

// The appends are forced inline, so that each literal's copy has a
// constant length: left as calls, the staged writer measured slower than
// appending each field to the `String`.
impl Staged<'_> {
    /// Moves what is staged to the `String`, which is returned for a
    /// fallback writer to append to.
    fn flush(&mut self) -> &mut String {
        self.out.push_str(std::str::from_utf8(&self.buf[..self.len]).expect("staged ascii"));
        self.len = 0;
        self.out
    }

    /// Stages the ASCII bytes `b`.
    #[inline(always)]
    fn bytes(&mut self, b: &[u8]) {
        if b.len() > BLOCK_ROOM - self.len {
            self.flush().push_str(std::str::from_utf8(b).expect("ascii"));
            return;
        }
        self.buf[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
    }

    /// Stages the number that starts at `digits[i]`, by a copy of fixed
    /// length: the bytes after it are overwritten by what comes next.
    #[inline(always)]
    fn number(&mut self, digits: &Digits, i: usize) {
        if DIGITS_END > BLOCK_ROOM - self.len {
            self.flush();
        }
        self.buf[self.len..self.len + DIGITS_END].copy_from_slice(&digits[i..i + DIGITS_END]);
        self.len += DIGITS_END - i;
    }

    #[inline(always)]
    fn u64(&mut self, n: u64) {
        let mut digits = [0; 64];
        let i = scaled_digits(&mut digits, n, 0);
        self.number(&digits, i);
    }

    /// [`push_fixed`], staged where [`fixed_digits`] decides it.
    #[inline(always)]
    fn fixed(&mut self, v: f64, decimals: usize) {
        let mut digits = [0; 64];
        match fixed_digits(&mut digits, v, decimals) {
            Some(i) => self.number(&digits, i),
            None => push_fixed(self.flush(), v, decimals),
        }
    }

    /// A JSON string: staged as it is when it is ASCII letters and
    /// digits (country codes, link keywords), escaped otherwise.
    fn json_str(&mut self, s: &str) {
        if s.bytes().all(|b| b.is_ascii_alphanumeric()) {
            self.bytes(b"\"");
            self.bytes(s.as_bytes());
            self.bytes(b"\"");
        } else {
            push_json_str(self.flush(), s);
        }
    }
}

/// Appends the `/v1/block/{id}` body for one row, in one pass over a
/// stack buffer.
pub fn write_block_body(out: &mut String, r: &DatasetRow) {
    let mut s = Staged { out, buf: [0; BLOCK_ROOM], len: 0 };
    s.bytes(b"{\"block\":");
    s.u64(r.block_id);
    s.bytes(match r.class {
        DiurnalClass::Strict => b",\"class\":\"d\",\"phase\":",
        DiurnalClass::Relaxed => b",\"class\":\"r\",\"phase\":",
        DiurnalClass::NonDiurnal => b",\"class\":\"n\",\"phase\":",
    });
    match r.phase {
        Some(p) => s.fixed(p, 6),
        None => s.bytes(b"null"),
    }
    s.bytes(b",\"mean_a\":");
    s.fixed(r.mean_a, 6);
    s.bytes(b",\"strongest_cpd\":");
    s.fixed(r.strongest_cpd, 4);
    s.bytes(if r.stationary { b",\"stationary\":true" } else { b",\"stationary\":false" });
    s.bytes(b",\"outages\":");
    s.u64(r.outages.into());
    s.bytes(b",\"probes\":");
    s.u64(r.probes);
    s.bytes(b",\"country\":");
    match r.country {
        Some(c) => s.json_str(c),
        None => s.bytes(b"null"),
    }
    s.bytes(b",\"asn\":");
    s.u64(r.asn.into());
    s.bytes(b",\"links\":[");
    for (i, l) in r.links.into_iter().enumerate() {
        if i > 0 {
            s.bytes(b",");
        }
        s.json_str(l);
    }
    s.bytes(b"]}");
    s.flush();
}

/// The `/v1/block/{id}` body for one row.
pub fn block_body(r: &DatasetRow) -> String {
    let mut out = String::with_capacity(BODY_ROOM);
    write_block_body(&mut out, r);
    out
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
    let mut out = String::new();
    push_counts(&mut out, "{\"blocks\":", &c);
    push_count(&mut out, ",\"stationary\":", c.stationary);
    push_count(&mut out, ",\"located\":", located);
    push_frac(&mut out, ",\"strict_fraction\":", c.strict, c.blocks);
    push_frac(&mut out, ",\"diurnal_fraction\":", c.diurnal, c.blocks);
    out.push('}');
    out
}

/// The `/v1/outages` body: the outage-window series as a histogram of
/// blocks by outage count, ascending.
fn outages_body(rows: &[DatasetRow]) -> String {
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
    /// The same filter over borrowed strings.
    pub(crate) fn as_ref(&self) -> FilterRef<'_> {
        FilterRef {
            country: self.country.as_deref(),
            asn: self.asn,
            link: self.link.as_deref(),
            stationary: self.stationary,
        }
    }

    /// True when the row passes every present dimension.
    pub(crate) fn matches(&self, r: &DatasetRow) -> bool {
        self.as_ref().matches(r)
    }
}

/// A [`Filter`] borrowing its strings — what the request path parses a
/// query string into, so that a filter costs no allocation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FilterRef<'a> {
    pub(crate) country: Option<&'a str>,
    pub(crate) asn: Option<u32>,
    pub(crate) link: Option<&'a str>,
    pub(crate) stationary: Option<bool>,
}

impl FilterRef<'_> {
    fn matches(&self, r: &DatasetRow) -> bool {
        self.country.map_or(true, |c| r.country == Some(c))
            && self.asn.map_or(true, |a| r.asn == a)
            && self.link.map_or(true, |l| r.links.into_iter().any(|k| k == l))
            && self.stationary.map_or(true, |s| r.stationary == s)
    }

    /// Replaces `key` with the canonical cache key: present dimensions in
    /// fixed order, so equivalent filters share one LRU entry.
    fn cache_key_into(&self, key: &mut String) {
        key.clear();
        if let Some(c) = self.country {
            push_term(key, 0, '&', "country=");
            key.push_str(c);
        }
        if let Some(a) = self.asn {
            push_term(key, 0, '&', "as=");
            push_u64(key, a.into());
        }
        if let Some(l) = self.link {
            push_term(key, 0, '&', "link=");
            key.push_str(l);
        }
        if let Some(s) = self.stationary {
            push_term(key, 0, '&', if s { "stationary=true" } else { "stationary=false" });
        }
    }

    /// Appends the `/v1/query` body: the echoed filter, then the counts
    /// of the rows it matched.
    fn write_body(&self, out: &mut String, c: &GroupCounts) {
        out.push_str("{\"filter\":{");
        let open = out.len();
        if let Some(c) = self.country {
            push_term(out, open, ',', "\"country\":");
            push_json_str(out, c);
        }
        if let Some(a) = self.asn {
            push_term(out, open, ',', "\"asn\":");
            push_u64(out, a.into());
        }
        if let Some(l) = self.link {
            push_term(out, open, ',', "\"link\":");
            push_json_str(out, l);
        }
        if let Some(s) = self.stationary {
            let term = if s { "\"stationary\":true" } else { "\"stationary\":false" };
            push_term(out, open, ',', term);
        }
        push_counts(out, "},\"blocks\":", c);
        push_count(out, ",\"stationary\":", c.stationary);
        push_frac(out, ",\"strict_fraction\":", c.strict, c.blocks);
        out.push('}');
    }
}

/// Starts one more term of a list whose first term sits at `from`:
/// `sep` unless this is that first term, then `label`.
fn push_term(out: &mut String, from: usize, sep: char, label: &str) {
    if out.len() > from {
        out.push(sep);
    }
    out.push_str(label);
}

/// The `/v1/query` body: a straight fold of `filter` over `rows`.
pub fn query_body(rows: &[DatasetRow], filter: &Filter) -> String {
    let mut c = GroupCounts::default();
    for r in rows.iter().filter(|r| filter.matches(r)) {
        c.absorb(r);
    }
    let mut out = String::new();
    filter.as_ref().write_body(&mut out, &c);
    out
}

/// One key of one dimension: its rendered body, its counts split by
/// stationarity (the answer to every `/v1/query` that names this key
/// alone), and its posting list — the indices into the sorted rows that
/// carry the key, ascending, each row once.
#[derive(Debug)]
struct Group {
    body: String,
    split: Split,
    rows: Vec<u32>,
}

/// A dimension while it is being rolled up, its keys kept in the order
/// the list body wants.
type Rollup<K> = BTreeMap<K, (Split, Vec<u32>)>;

/// Counts `r` under one key and posts its index `i` there (a row holds
/// each key at most once).
fn roll(group: &mut (Split, Vec<u32>), r: &DatasetRow, i: u32) {
    group.0[usize::from(r.stationary)].absorb(r);
    group.1.push(i);
}

/// Renders a rolled-up dimension: each key's body once, shared between
/// the `{"name":[…]}` list body and the per-key map.
fn render<K: Copy + Hash + Eq>(
    name: &str,
    rollup: Rollup<K>,
    body: impl Fn(K, &GroupCounts) -> String,
) -> (String, HashMap<K, Group>) {
    let mut list = format!("{{\"{name}\":[");
    let open = list.len();
    let mut map = HashMap::with_capacity(rollup.len());
    for (key, (split @ [moving, still], rows)) in rollup {
        let body = body(key, &moving.plus(still));
        push_term(&mut list, open, ',', &body);
        map.insert(key, Group { body, split, rows });
    }
    list.push_str("]}");
    (list, map)
}

/// The immutable serving state: id-sorted rows and their id column,
/// fully rendered list and summary bodies, per-key group bodies with
/// their stationarity splits and posting lists, and the LRU of the
/// `/v1/query` filters that cross dimensions.
#[derive(Debug)]
pub struct ServeState {
    rows: Vec<DatasetRow>,
    ids: Vec<u64>,
    summary: String,
    countries: String,
    ases: String,
    links: String,
    outages: String,
    by_country: HashMap<&'static str, Group>,
    by_asn: HashMap<u32, Group>,
    by_link: HashMap<&'static str, Group>,
    /// Counts of the non-stationary and of the stationary rows: the
    /// answers to the three filters that name no keyed dimension.
    by_stationary: Split,
    lru: ShardedLru,
}

impl ServeState {
    /// Builds every index from `rows` (sorted by block id internally).
    /// `lru_capacity` bounds the cache of ad-hoc queries that cross
    /// dimensions; zero disables it.
    ///
    /// # Panics
    /// Past `u32::MAX` rows, the width of a posting-list entry — 256
    /// times the /24 blocks IPv4 has.
    pub fn build(mut rows: Vec<DatasetRow>, lru_capacity: usize) -> ServeState {
        assert!(u32::try_from(rows.len()).is_ok(), "posting lists index rows with 32 bits");
        let _t = StageTimer::start(sleepwatch_obs::global().pipeline.stage(Stage::ServeIndexBuild));
        rows.sort_by_key(|r| r.block_id);
        let mut countries: Rollup<&'static str> = BTreeMap::new();
        let mut ases: Rollup<u32> = BTreeMap::new();
        let mut links: Rollup<&'static str> = BTreeMap::new();
        let mut by_stationary = Split::default();
        for (i, r) in rows.iter().enumerate() {
            let i = i as u32;
            by_stationary[usize::from(r.stationary)].absorb(r);
            if let Some(c) = r.country {
                roll(countries.entry(c).or_default(), r, i);
            }
            roll(ases.entry(r.asn).or_default(), r, i);
            for l in &r.links {
                roll(links.entry(l).or_default(), r, i);
            }
        }
        let (countries, by_country) = render("countries", countries, country_body);
        let (ases, by_asn) = render("ases", ases, as_body);
        let (links, by_link) = render("links", links, link_body);
        ServeState {
            ids: rows.iter().map(|r| r.block_id).collect(),
            summary: summary_body(&rows),
            countries,
            ases,
            links,
            outages: outages_body(&rows),
            by_country,
            by_asn,
            by_link,
            by_stationary,
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
        self.by_country.get(code).map(|g| g.body.as_str())
    }

    /// The `/v1/as/{asn}` body, if the AS is present.
    pub fn asn(&self, asn: u32) -> Option<&str> {
        self.by_asn.get(&asn).map(|g| g.body.as_str())
    }

    /// The `/v1/link/{keyword}` body, if the keyword is present.
    pub fn link(&self, keyword: &str) -> Option<&str> {
        self.by_link.get(keyword).map(|g| g.body.as_str())
    }

    /// The row of block `id`. Ids are sorted and distinct, so block `id`
    /// can only sit at `id − ids[0]` or before it; in a world without
    /// gaps it sits there, and one look finds it. Only when that slot
    /// holds another id (a quarantined or filtered block left a gap, or
    /// the id is past the end) is the id column binary searched, eight
    /// bytes a step where the rows themselves are a cache line or two.
    pub(crate) fn row(&self, id: u64) -> Option<&DatasetRow> {
        let first = *self.ids.first()?;
        let slot = usize::try_from(id.checked_sub(first)?).unwrap_or(usize::MAX);
        if self.ids.get(slot) == Some(&id) {
            return Some(&self.rows[slot]);
        }
        self.ids.binary_search(&id).ok().map(|i| &self.rows[i])
    }

    /// The `/v1/block/{id}` body, rendered on demand (worlds are large;
    /// responses are not).
    pub fn block(&self, id: u64) -> Option<String> {
        self.row(id).map(block_body)
    }

    /// The `/v1/query` body for `filter`, and what the LRU did: `None`
    /// for a filter naming at most one keyed dimension, which is looked
    /// up, not cached; a hit or a fold from the posting lists otherwise.
    pub fn query(&self, filter: &Filter) -> (String, Option<LruOutcome>) {
        let (mut key, mut body) = (String::new(), String::new());
        let outcome = self.query_into(&filter.as_ref(), &mut key, &mut body);
        (body, outcome)
    }

    /// [`query`](Self::query) appending to `body`; `key` is scratch for
    /// the cache key, which only a filter that crosses dimensions needs.
    pub(crate) fn query_into(
        &self,
        filter: &FilterRef<'_>,
        key: &mut String,
        body: &mut String,
    ) -> Option<LruOutcome> {
        if let Some(c) = self.lookup(filter) {
            filter.write_body(body, &c);
            return None;
        }
        filter.cache_key_into(key);
        Some(self.lru.get_or_insert_into(key, body, |out| {
            let _t =
                StageTimer::start(sleepwatch_obs::global().pipeline.stage(Stage::ServeQueryMiss));
            filter.write_body(out, &self.fold(filter));
        }))
    }

    /// The counts behind a filter that names at most one of country, AS
    /// and link: that key's stationarity split (the whole row set's for
    /// none, zeros for a key the world lacks), one half of it or both.
    /// `None` for a filter naming two or more, whose rows must be folded.
    fn lookup(&self, filter: &FilterRef<'_>) -> Option<GroupCounts> {
        let split = |group: Option<&Group>| group.map_or(Split::default(), |g| g.split);
        let [moving, still] = match (filter.country, filter.asn, filter.link) {
            (None, None, None) => self.by_stationary,
            (Some(c), None, None) => split(self.by_country.get(c)),
            (None, Some(a), None) => split(self.by_asn.get(&a)),
            (None, None, Some(l)) => split(self.by_link.get(l)),
            _ => return None,
        };
        Some(match filter.stationary {
            Some(true) => still,
            Some(false) => moving,
            None => moving.plus(still),
        })
    }

    /// Counts the rows a filter naming two or more keyed dimensions
    /// matches without visiting the others: the shortest of their posting
    /// lists holds every candidate, and a key the world lacks matches
    /// nothing.
    fn fold(&self, filter: &FilterRef<'_>) -> GroupCounts {
        let named = [
            filter.country.map(|c| self.by_country.get(c)),
            filter.asn.map(|a| self.by_asn.get(&a)),
            filter.link.map(|l| self.by_link.get(l)),
        ];
        let mut shortest: &[u32] = &[];
        for (n, group) in named.into_iter().flatten().enumerate() {
            let Some(group) = group else { return GroupCounts::default() };
            if n == 0 || group.rows.len() < shortest.len() {
                shortest = &group.rows;
            }
        }
        let mut c = GroupCounts::default();
        for r in shortest.iter().map(|&i| &self.rows[i as usize]) {
            if filter.matches(r) {
                c.absorb(r);
            }
        }
        c
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use sleepwatch_linktype::LinkFeature;

    /// A row whose class, phase, outages and probes follow its id.
    pub(in crate::serve) fn row(
        id: u64,
        country: Option<&'static str>,
        asn: u32,
        links: &[LinkFeature],
    ) -> DatasetRow {
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
            country,
            centroid: false,
            alloc: sleepwatch_geoecon::YearMonth::new(1994, 5),
            asn,
            links: links.iter().copied().collect(),
        }
    }

    fn state() -> ServeState {
        ServeState::build(
            vec![
                row(2, Some("US"), 7, &[LinkFeature::Dsl]),
                row(1, Some("US"), 7, &[LinkFeature::Cable, LinkFeature::Dsl]),
                row(3, Some("DE"), 9, &[]),
                row(4, None, 9, &[LinkFeature::Cable]),
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

    /// A row is found by offset in a world without gaps and by search in
    /// one with them; an id outside the column finds none.
    #[test]
    fn rows_are_found_with_and_without_gaps() {
        for ids in [vec![5, 6, 7, 8], vec![5, 7, 8, 11]] {
            let s = ServeState::build(ids.iter().map(|&id| row(id, None, 1, &[])).collect(), 8);
            for id in (0..=12).chain([u64::MAX]) {
                let want = ids.contains(&id).then_some(id);
                assert_eq!(s.row(id).map(|r| r.block_id), want, "{id} in {ids:?}");
            }
        }
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
            Filter { country: Some("US".into()), link: Some("dsl".into()), ..Filter::default() };
        let (body, out) = s.query(&f);
        assert_eq!(out, Some(LruOutcome::Miss { evicted: false }));
        assert!(body.contains("\"blocks\":2"), "{body}");
        let (again, out) = s.query(&f);
        assert_eq!(out, Some(LruOutcome::Hit));
        assert_eq!(body, again);
        assert_eq!(body, query_body(s.rows(), &f));
        // One key, or none, is a lookup: answered and never cached.
        for f in [
            Filter::default(),
            Filter { country: Some("US".into()), ..Filter::default() },
            Filter { asn: Some(9), stationary: Some(true), ..Filter::default() },
            Filter { link: Some("fiber".into()), ..Filter::default() },
        ] {
            let (body, out) = s.query(&f);
            assert_eq!(out, None, "{f:?}");
            assert_eq!(body, query_body(s.rows(), &f));
        }
        assert_eq!(s.lru.len(), 1);
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
