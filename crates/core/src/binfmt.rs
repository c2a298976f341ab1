//! Compact, versioned, memory-mappable binary container for world
//! datasets — the binary sibling of the TSV format in [`crate::export`].
//!
//! A TSV dataset row costs ~77 bytes. The A12w-scale worlds from PR 6
//! (millions of blocks) turn that into a multi-gigabyte wall between the
//! analysis and anything that wants to read it back. This container gets
//! the same rows to ≈7 bytes each by combining, per 4096-row frame:
//!
//! * **delta-coded block ids** (sorted ids, gap-1 in a per-frame width);
//! * **dictionary coding** for the repetitive columns — country codes,
//!   allocation dates, link-feature masks and the strongest-cpd values
//!   all draw from small global tables, frequency-sorted so Rice-coded
//!   indices spend under a bit on the common entries;
//! * **quantized floats**: values that survive a bit-exact
//!   quantize/dequantize roundtrip at the TSV print precision are stored
//!   as narrow integer deltas, with a per-value raw escape for the rest
//!   (`-0.0`, `NaN`, doubles that double-round);
//! * **frame-of-reference** coding for probes and AS numbers.
//!
//! Two container modes share the layout:
//!
//! * **self-contained** (`mode 0`): every column is stored; the file
//!   decodes with no outside context (this is what `convert` produces
//!   from a foreign TSV);
//! * **seed-joined** (`mode 1`): the columns that are pure functions of
//!   the world seed — longitude, latitude, country, centroid flag,
//!   allocation date, origin AS — are *not stored at all* (only the
//!   one-bit located flag survives, so aggregates skip regeneration) and
//!   are re-derived at decode from the [`WorldConfig`] the caller supplies,
//!   the same trick BIP-152 compact blocks play with transactions the
//!   peer already holds. The encoder verifies bit-exact derivability of
//!   every elided value before committing to this mode.
//!
//! Integrity reuses the journal's framing discipline via
//! [`sleepwatch_framing`]: the shared 64-byte prelude (magic, version,
//! endianness tag, run identity, record count, header CRC), a
//! CRC-guarded dictionary section, and a CRC32 per frame chained over
//! the header CRC, the dictionary CRC *and the frame index*, so a frame
//! spliced from a file with a different prelude or different
//! dictionaries — or reordered within this one — fails its checksum
//! even when the frame itself is intact. Decoding is total: [`BinDataset::parse`]
//! validates every frame up front and any malformed input yields a typed
//! [`DecodeError`], never a panic and never silently wrong rows.

use crate::export::DatasetRow;
use sleepwatch_framing::{
    check_identity, crc32, put_string_table, read_string_table, rice_best_k, rice_get, rice_put,
    BitReader, BitWriter, Crc32, DecodeError, Prelude, RunIdentity, RICE_MAX,
};
use sleepwatch_geoecon::{by_code, YearMonth, COUNTRIES};
use sleepwatch_linktype::{LinkFeature, LinkSet};
use sleepwatch_simnet::{WorldConfig, WorldSource};
use sleepwatch_spectral::DiurnalClass;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::io::Write;

/// Dataset container magic: `SLPWBIN1` as a little-endian u64.
pub const DATASET_MAGIC: u64 = u64::from_le_bytes(*b"SLPWBIN1");
/// Dataset container version this build reads and writes.
pub const DATASET_VERSION: u16 = 1;
/// Prelude `kind` byte for dataset containers.
pub const KIND_DATASET: u8 = 0;
/// Mode byte: every column stored in the file.
pub(crate) const MODE_SELF: u8 = 0;
/// Mode byte: seed-derivable columns elided and regenerated at decode.
pub(crate) const MODE_SEED_JOINED: u8 = 1;
/// Frame magic: `BFRM` as a little-endian u32.
pub(crate) const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"BFRM");
/// Rows per frame (the last frame may hold fewer).
pub(crate) const MAX_FRAME_ROWS: usize = 4096;
/// Frame header length: magic u32 | count u32 | payload_len u32 | first_id u64.
pub(crate) const FRAME_HEADER_LEN: usize = 20;

/// Quantization scale for 6-decimal TSV columns (phase, mean_a, lon, lat).
const SCALE6: f64 = 1e6;

// ---------------------------------------------------------------------------
// Encode errors
// ---------------------------------------------------------------------------

/// Why a row set cannot be encoded into the compact container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Block ids are not strictly increasing at this row index.
    Unsorted {
        /// Row index whose id does not exceed its predecessor's.
        index: usize,
    },
    /// A row field does not fit the container (a country outside the
    /// table, lon/lat on an unlocated row, …).
    Unrepresentable {
        /// Block the row describes.
        block_id: u64,
        /// Field that cannot be stored.
        field: &'static str,
    },
    /// Seed-joined mode was requested but a field is not bit-exactly
    /// derivable from the supplied world configuration.
    NotDerivable {
        /// Block the row describes.
        block_id: u64,
        /// Field whose stored value disagrees with the derived one.
        field: &'static str,
    },
    /// A dictionary outgrew its index space.
    TooMany {
        /// What overflowed.
        what: &'static str,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Unsorted { index } => {
                write!(f, "rows not sorted by block id at index {index}")
            }
            EncodeError::Unrepresentable { block_id, field } => {
                write!(f, "block {block_id}: field {field} cannot be stored")
            }
            EncodeError::NotDerivable { block_id, field } => {
                write!(f, "block {block_id}: field {field} is not derivable from the world seed")
            }
            EncodeError::TooMany { what } => write!(f, "too many distinct {what}"),
        }
    }
}

impl std::error::Error for EncodeError {}

// ---------------------------------------------------------------------------
// Float canonicalization
// ---------------------------------------------------------------------------

/// Rounds `x` to `decimals` (at most 190) fractional digits exactly the
/// way the TSV writer prints it, by formatting and re-parsing. Non-finite
/// values are returned unchanged.
pub(crate) fn canon(x: f64, decimals: usize) -> f64 {
    // Printed on the stack, so canonicalizing a row allocates nothing: a
    // finite double at 190 decimals fits in 512 bytes.
    let mut buf = [0u8; 512];
    let mut rest = &mut buf[..];
    if !x.is_finite() || write!(rest, "{x:.decimals$}").is_err() {
        return x;
    }
    let len = 512 - rest.len();
    std::str::from_utf8(&buf[..len]).ok().and_then(|s| s.parse().ok()).unwrap_or(x)
}

/// `x` as an integer multiple of `1/scale`, if the roundtrip
/// `n / scale` reproduces `x` bit-for-bit. `None` means the value needs
/// the raw-bits escape (non-finite, out of range, `-0.0`, or a double
/// that does not survive the quantization).
fn quantize(x: f64, scale: f64) -> Option<i64> {
    if !x.is_finite() {
        return None;
    }
    let n = (x * scale).round();
    if n.abs() > 9.0e15 {
        return None;
    }
    let q = n as i64;
    if (q as f64 / scale).to_bits() == x.to_bits() {
        Some(q)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Column codecs
// ---------------------------------------------------------------------------

/// Writes a quantized-float column: `min i64 | width u7`, then per value
/// either a `0` tag and a width-bit delta, or a `1` tag and the raw 64
/// bits.
fn put_scaled(w: &mut BitWriter, values: impl Iterator<Item = f64>, scale: f64) {
    let values: Vec<(f64, Option<i64>)> = values.map(|x| (x, quantize(x, scale))).collect();
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for q in values.iter().filter_map(|v| v.1) {
        min = min.min(q);
        max = max.max(q);
    }
    let (min, width) = if min > max {
        (0i64, 0u32)
    } else {
        let span = (max - min) as u64;
        (min, u64::BITS - span.leading_zeros())
    };
    w.put(min as u64, 64);
    w.put(width as u64, 7);
    for &(x, q) in &values {
        match q {
            Some(q) => {
                w.put_bit(false);
                w.put((q - min) as u64, width);
            }
            None => {
                w.put_bit(true);
                w.put(x.to_bits(), 64);
            }
        }
    }
}

/// Reads values written by [`put_scaled`] into `out`, one per target.
fn get_scaled<'x>(
    r: &mut BitReader<'_>,
    scale: f64,
    out: impl Iterator<Item = &'x mut f64>,
) -> Option<()> {
    let min = r.get(64)? as i64;
    let width = r.get(7)? as u32;
    if width > 63 {
        return None;
    }
    for x in out {
        *x = if r.get_bit()? {
            f64::from_bits(r.get(64)?)
        } else {
            min.checked_add(r.get(width)? as i64)? as f64 / scale
        };
    }
    Some(())
}

/// Writes a frame-of-reference integer column: `min u64 | width u7`,
/// then width-bit offsets from the minimum.
fn put_for(w: &mut BitWriter, values: impl Iterator<Item = u64>) {
    let values: Vec<u64> = values.collect();
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let width = u64::BITS - (max - min).leading_zeros();
    w.put(min, 64);
    w.put(width as u64, 7);
    for v in values {
        w.put(v - min, width);
    }
}

/// Reads `n` values written by [`put_for`] into `out`, replacing its
/// contents.
fn get_for(r: &mut BitReader<'_>, n: usize, out: &mut Vec<u64>) -> Option<()> {
    out.clear();
    let min = r.get(64)?;
    let width = r.get(7)? as u32;
    if width > 64 {
        return None;
    }
    for _ in 0..n {
        out.push(min.checked_add(r.get(width)?)?);
    }
    Some(())
}

/// Writes a Rice-coded column: the exact-argmin parameter in 5 bits,
/// then every value. Values must be ≤ [`RICE_MAX`].
fn put_rice_col(w: &mut BitWriter, values: impl Iterator<Item = u64>) {
    let values: Vec<u64> = values.collect();
    debug_assert!(values.iter().all(|&v| v <= RICE_MAX));
    let (k, _) = rice_best_k(values.iter().copied());
    w.put(k as u64, 5);
    for v in values {
        rice_put(w, v, k);
    }
}

/// Reads `n` values written by [`put_rice_col`] into `out`, replacing its
/// contents.
fn get_rice_col(r: &mut BitReader<'_>, n: usize, out: &mut Vec<u64>) -> Option<()> {
    out.clear();
    let k = r.get(5)? as u32;
    if k > 24 {
        return None;
    }
    for _ in 0..n {
        out.push(rice_get(r, k)?);
    }
    Some(())
}

// ---------------------------------------------------------------------------
// Class codes and frame checksums
// ---------------------------------------------------------------------------

/// A class's code in a dataset frame and a journal record.
pub(crate) fn class_code(c: DiurnalClass) -> u64 {
    match c {
        DiurnalClass::Strict => 0,
        DiurnalClass::Relaxed => 1,
        DiurnalClass::NonDiurnal => 2,
    }
}

pub(crate) fn class_from_code(code: u64) -> Option<DiurnalClass> {
    match code {
        0 => Some(DiurnalClass::Strict),
        1 => Some(DiurnalClass::Relaxed),
        2 => Some(DiurnalClass::NonDiurnal),
        _ => None,
    }
}

/// A frame's CRC32, chained over the prelude's and the dictionary's
/// checksums (`chain`) and the frame's index.
fn frame_crc(chain: [u32; 2], frame_index: usize, header: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&chain[0].to_le_bytes());
    crc.update(&chain[1].to_le_bytes());
    crc.update(&(frame_index as u64).to_le_bytes());
    crc.update(header);
    crc.update(payload);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// How a dataset is encoded: with every column stored, or with the
/// seed-derivable columns elided against a world configuration.
#[derive(Debug, Clone, Copy)]
pub enum DatasetMode<'w> {
    /// Store every column; the file decodes with no outside context.
    SelfContained,
    /// Elide lon/lat/country/centroid/alloc/asn and re-derive them at
    /// decode from this world configuration. The encoder verifies every
    /// elided value is bit-exactly derivable first.
    SeedJoined(&'w WorldConfig),
}

/// The run identity a dataset written against `cfg` carries (rounds is
/// not a dataset property and is pinned to zero).
pub fn dataset_identity(cfg: &WorldConfig) -> RunIdentity {
    RunIdentity {
        world_seed: cfg.seed,
        num_blocks: cfg.num_blocks as u64,
        rounds: 0,
        start_time: cfg.start_time,
    }
}

/// `row` with the columns a seed-joined file elides — location,
/// allocation date, AS — as the seed derives them, TSV-canonicalized.
fn derive(source: &WorldSource, row: DatasetRow) -> DatasetRow {
    let spec = source.generate_block(row.block_id);
    let country = &COUNTRIES[spec.country_idx];
    let location = source.geodb().locate(row.block_id, country, spec.lon, spec.lat);
    DatasetRow {
        lon: location.map(|l| canon(l.lon, 6)),
        lat: location.map(|l| canon(l.lat, 6)),
        country: location.map(|l| l.country),
        centroid: location.is_some_and(|l| l.centroid_fallback),
        alloc: spec.alloc_date,
        asn: spec.asn,
        ..row
    }
}

/// Checks that every elided column of `row` is bit-exactly reproduced by
/// [`derive`], so seed-joined decode cannot silently differ from the row
/// that was encoded.
fn verify_derivable(source: &WorldSource, row: &DatasetRow) -> Result<(), EncodeError> {
    let fail = |field| EncodeError::NotDerivable { block_id: row.block_id, field };
    if row.block_id >= source.cfg().num_blocks as u64 {
        return Err(fail("block_id"));
    }
    let d = derive(source, *row);
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let agree = [
        ("country", d.country == row.country),
        ("lon", bits(d.lon) == bits(row.lon)),
        ("lat", bits(d.lat) == bits(row.lat)),
        ("centroid", d.centroid == row.centroid),
        ("alloc", d.alloc == row.alloc),
        ("asn", d.asn == row.asn),
    ];
    match agree.iter().find(|(_, same)| !same) {
        Some(&(field, _)) => Err(fail(field)),
        None => Ok(()),
    }
}

/// Distinct values sorted by descending frequency (ascending `key` as the
/// tiebreak, for deterministic output), with an index map back.
fn freq_sorted<T: Hash + Eq + Copy, K: Ord>(
    counts: &HashMap<T, u64>,
    key: impl Fn(T) -> K,
) -> (Vec<T>, HashMap<T, u64>) {
    let mut entries: Vec<(T, u64)> = counts.iter().map(|(&k, &c)| (k, c)).collect();
    entries.sort_by_cached_key(|&(v, c)| (Reverse(c), key(v)));
    let values: Vec<T> = entries.into_iter().map(|(k, _)| k).collect();
    let index = values.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
    (values, index)
}

/// Encodes `rows` (strictly increasing by block id) into a compact
/// binary dataset. Self-contained files carry [`RunIdentity::default`];
/// seed-joined files carry [`dataset_identity`] of their configuration.
pub fn encode_dataset(rows: &[DatasetRow], mode: DatasetMode<'_>) -> Result<Vec<u8>, EncodeError> {
    for (i, pair) in rows.windows(2).enumerate() {
        if pair[1].block_id <= pair[0].block_id {
            return Err(EncodeError::Unsorted { index: i + 1 });
        }
    }
    for row in rows {
        let located = row.country.is_some();
        let coherent = if located {
            row.lon.is_some() && row.lat.is_some()
        } else {
            row.lon.is_none() && row.lat.is_none() && !row.centroid
        };
        if !coherent {
            return Err(EncodeError::Unrepresentable { block_id: row.block_id, field: "location" });
        }
        if row.country.is_some_and(|c| by_code(c).is_none()) {
            return Err(EncodeError::Unrepresentable { block_id: row.block_id, field: "country" });
        }
    }

    let (mode_byte, identity) = match mode {
        DatasetMode::SelfContained => (MODE_SELF, RunIdentity::default()),
        DatasetMode::SeedJoined(cfg) => {
            let source = WorldSource::new(cfg.clone());
            for row in rows {
                verify_derivable(&source, row)?;
            }
            (MODE_SEED_JOINED, dataset_identity(cfg))
        }
    };

    // Global dictionaries, frequency-sorted for cheap Rice indices.
    let mut mask_counts: HashMap<LinkSet, u64> = HashMap::new();
    let mut cpd_counts: HashMap<u64, u64> = HashMap::new();
    let mut country_counts: HashMap<&str, u64> = HashMap::new();
    let mut alloc_counts: HashMap<YearMonth, u64> = HashMap::new();
    for row in rows {
        *mask_counts.entry(row.links).or_insert(0) += 1;
        *cpd_counts.entry(row.strongest_cpd.to_bits()).or_insert(0) += 1;
        if mode_byte == MODE_SELF {
            if let Some(c) = row.country {
                *country_counts.entry(c).or_insert(0) += 1;
            }
            *alloc_counts.entry(row.alloc).or_insert(0) += 1;
        }
    }
    let (mask_dict, mask_idx) = freq_sorted(&mask_counts, |m| m);
    let (cpd_dict, cpd_idx) = freq_sorted(&cpd_counts, |c| c);
    let (country_dict, country_idx) = freq_sorted(&country_counts, |c| c);
    // Ties break on the text the dictionary stores.
    let (alloc_dict, alloc_idx) = freq_sorted(&alloc_counts, |a| a.to_string());
    if alloc_dict.len() > u16::MAX as usize {
        return Err(EncodeError::TooMany { what: "allocation dates" });
    }
    if cpd_dict.len() > u32::MAX as usize {
        return Err(EncodeError::TooMany { what: "cpd values" });
    }

    let prelude = Prelude {
        magic: DATASET_MAGIC,
        version: DATASET_VERSION,
        kind: KIND_DATASET,
        mode: mode_byte,
        identity,
        record_count: rows.len() as u64,
    };
    let header_crc = prelude.header_crc();
    let mut out = prelude.encode().to_vec();

    // Dictionary section: `len u32 | payload | crc32`.
    let mut dict = Vec::new();
    put_string_table(&mut dict, country_dict.iter().copied());
    let alloc_text: Vec<String> = alloc_dict.iter().map(YearMonth::to_string).collect();
    put_string_table(&mut dict, alloc_text.iter().map(String::as_str));
    put_string_table(&mut dict, LinkFeature::ALL.iter().map(|f| f.keyword()));
    dict.extend_from_slice(&(mask_dict.len() as u32).to_le_bytes());
    for &m in &mask_dict {
        dict.extend_from_slice(&m.bits().to_le_bytes());
    }
    dict.extend_from_slice(&(cpd_dict.len() as u32).to_le_bytes());
    for &c in &cpd_dict {
        dict.extend_from_slice(&c.to_le_bytes());
    }
    let dict_crc = crc32(&dict);
    out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    out.extend_from_slice(&dict_crc.to_le_bytes());
    out.extend_from_slice(&dict);

    // Frames.
    for (frame_index, chunk) in rows.chunks(MAX_FRAME_ROWS).enumerate() {
        let mut w = BitWriter::new();

        let gaps: Vec<u64> = chunk.windows(2).map(|p| p[1].block_id - p[0].block_id - 1).collect();
        let width = gaps.iter().copied().max().map_or(0, |m| u64::BITS - m.leading_zeros());
        w.put(width as u64, 7);
        for &g in &gaps {
            w.put(g, width);
        }
        for row in chunk {
            w.put(class_code(row.class), 2);
            w.put_bit(row.stationary);
            w.put_bit(row.phase.is_some());
        }
        put_scaled(&mut w, chunk.iter().map(|r| r.mean_a), SCALE6);
        put_rice_col(&mut w, chunk.iter().map(|r| cpd_idx[&r.strongest_cpd.to_bits()]));
        put_rice_col(&mut w, chunk.iter().map(|r| u64::from(r.outages)));
        put_for(&mut w, chunk.iter().map(|r| r.probes));
        put_rice_col(&mut w, chunk.iter().map(|r| mask_idx[&r.links]));
        put_scaled(&mut w, chunk.iter().filter_map(|r| r.phase), SCALE6);
        // The located flag is stored in both modes: it lets a seed-joined
        // reader aggregate [`DatasetStats`] without regenerating a single
        // block. One bit per row; derivability is still verified above.
        for row in chunk {
            w.put_bit(row.country.is_some());
        }

        if mode_byte == MODE_SELF {
            // Coherence was checked above: a located row has both
            // coordinates, an unlocated one neither.
            let located = || chunk.iter().filter(|r| r.country.is_some());
            for row in located() {
                w.put_bit(row.centroid);
            }
            put_scaled(&mut w, located().filter_map(|r| r.lon), SCALE6);
            put_scaled(&mut w, located().filter_map(|r| r.lat), SCALE6);
            put_rice_col(&mut w, chunk.iter().filter_map(|r| r.country).map(|c| country_idx[c]));
            put_rice_col(&mut w, chunk.iter().map(|r| alloc_idx[&r.alloc]));
            put_for(&mut w, chunk.iter().map(|r| u64::from(r.asn)));
        }

        let payload = w.into_bytes();
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[12..20].copy_from_slice(&chunk[0].block_id.to_le_bytes());
        let crc = frame_crc([header_crc, dict_crc], frame_index, &header, &payload);
        out.extend_from_slice(&header);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    let obs = sleepwatch_obs::global();
    obs.format.datasets_encoded.incr();
    obs.format.bytes_encoded.add(out.len() as u64);
    obs.format.records_encoded.add(rows.len() as u64);
    obs.format.frames_encoded.add(rows.len().div_ceil(MAX_FRAME_ROWS) as u64);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Everything before the frames: the prelude, the dictionaries (resolved
/// against this build's tables) and their checksum, the world a
/// seed-joined file derives its elided columns from, and where the frames
/// start.
struct Shell {
    prelude: Prelude,
    countries: Vec<&'static str>,
    allocs: Vec<YearMonth>,
    masks: Vec<LinkSet>,
    cpds: Vec<f64>,
    dict_crc: u32,
    source: Option<WorldSource>,
    frames_at: usize,
}

impl Shell {
    /// A decoded row as the file means it: a seed-joined file's elided
    /// columns derived from the world.
    fn complete(&self, row: DatasetRow) -> DatasetRow {
        self.source.as_ref().map_or(row, |source| derive(source, row))
    }
}

/// What a row holds before its frame's columns are decoded into it.
const BLANK: DatasetRow = DatasetRow {
    block_id: 0,
    class: DiurnalClass::NonDiurnal,
    phase: None,
    mean_a: 0.0,
    strongest_cpd: 0.0,
    stationary: false,
    outages: 0,
    probes: 0,
    lon: None,
    lat: None,
    country: None,
    centroid: false,
    alloc: YearMonth { year: 0, month: 1 },
    asn: 0,
    links: LinkSet::from_bits(0),
};

/// A parsed, fully validated compact dataset over a borrowed byte slice
/// (e.g. a memory map). Construction decodes every frame once — after
/// [`parse`](BinDataset::parse) succeeds, the whole file is known good
/// and the row accessors cannot fail structurally.
pub struct BinDataset<'a> {
    bytes: &'a [u8],
    shell: Shell,
    stats: DatasetStats,
}

impl fmt::Debug for BinDataset<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinDataset")
            .field("mode", &self.shell.prelude.mode)
            .field("records", &self.shell.prelude.record_count)
            .finish()
    }
}

/// Parses the prelude, mode and dictionary section. A country code
/// outside [`COUNTRIES`] or an allocation date that is not canonical
/// `YYYY-MM` is refused here, behind a valid checksum or not: no row can
/// name what this build's tables cannot hold.
fn parse_shell(bytes: &[u8], world: Option<&WorldConfig>) -> Result<Shell, DecodeError> {
    let prelude = Prelude::decode(bytes)?;
    prelude.require(DATASET_MAGIC, DATASET_VERSION, KIND_DATASET)?;
    let source = match prelude.mode {
        MODE_SELF => None,
        MODE_SEED_JOINED => {
            let cfg = world.ok_or(DecodeError::WorldRequired)?;
            check_identity(&dataset_identity(cfg), &prelude.identity)?;
            Some(WorldSource::new(cfg.clone()))
        }
        other => return Err(DecodeError::BadMode { found: other }),
    };
    let corrupt = |detail| DecodeError::DictCorrupt { detail };
    let need = |n: usize| {
        if bytes.len() < n {
            Err(DecodeError::Truncated { need: n, have: bytes.len() })
        } else {
            Ok(())
        }
    };
    need(sleepwatch_framing::PRELUDE_LEN + 8)?;
    let mut pos = sleepwatch_framing::PRELUDE_LEN;
    let le_u32 = |pos: usize| {
        u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
    };
    let dict_len = le_u32(pos) as usize;
    let dict_crc = le_u32(pos + 4);
    pos += 8;
    need(pos + dict_len)?;
    let dict_bytes = &bytes[pos..pos + dict_len];
    if crc32(dict_bytes) != dict_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let frames_at = pos + dict_len;
    let mut dpos = 0usize;
    let countries = read_string_table(dict_bytes, &mut dpos)?
        .into_iter()
        .map(|c| by_code(c).map(|c| c.code).ok_or(corrupt("unknown country code")))
        .collect::<Result<Vec<_>, _>>()?;
    let allocs = read_string_table(dict_bytes, &mut dpos)?
        .into_iter()
        .map(|a| a.parse().map_err(|_| corrupt("allocation date not canonical YYYY-MM")))
        .collect::<Result<Vec<_>, _>>()?;
    let link_table = read_string_table(dict_bytes, &mut dpos)?;
    if !link_table.iter().copied().eq(LinkFeature::ALL.iter().map(|f| f.keyword())) {
        return Err(DecodeError::DictMismatch { table: "link" });
    }
    if prelude.mode == MODE_SEED_JOINED && (!countries.is_empty() || !allocs.is_empty()) {
        return Err(corrupt("seed-joined file carries stored-column tables"));
    }
    let take = |dpos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
        let end = dpos.checked_add(n).ok_or(corrupt("length overflow"))?;
        let slice = dict_bytes.get(*dpos..end).ok_or(corrupt("dictionary truncated"))?;
        *dpos = end;
        Ok(slice)
    };
    // A table of `n` fixed-width entries: `n u32`, then the entries.
    let mut table = |width: usize| {
        let n = take(&mut dpos, 4)?;
        take(&mut dpos, width * u32::from_le_bytes([n[0], n[1], n[2], n[3]]) as usize)
    };
    let masks = table(2)?.chunks_exact(2);
    let masks = masks.map(|b| LinkSet::from_bits(u16::from_le_bytes([b[0], b[1]]))).collect();
    let cpds = table(8)?.chunks_exact(8);
    let cpds = cpds.map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))));
    let cpds = cpds.collect();
    if dpos != dict_len {
        return Err(corrupt("trailing dictionary bytes"));
    }
    Ok(Shell { prelude, countries, allocs, masks, cpds, dict_crc, source, frames_at })
}

/// Decodes the frames that follow `shell`, one at a time into one reused
/// buffer of rows, handing each frame's rows (elided columns not yet
/// derived) to `each`, until the declared record count. The error is the
/// one that stopped the walk, or bytes after the final frame.
fn walk_frames(
    bytes: &[u8],
    shell: &Shell,
    mut each: impl FnMut(&[DatasetRow]),
) -> Result<(), DecodeError> {
    let (mut rows, mut staged) = (Vec::new(), Vec::new());
    let (mut pos, mut decoded, mut idx) = (shell.frames_at, 0u64, 0usize);
    while decoded < shell.prelude.record_count {
        pos = decode_frame(bytes, shell, (decoded, idx, pos), &mut rows, &mut staged)?;
        each(&rows);
        decoded += rows.len() as u64;
        idx += 1;
    }
    if pos != bytes.len() {
        return Err(DecodeError::FrameCorrupt {
            frame: idx,
            detail: "trailing bytes after final frame",
        });
    }
    Ok(())
}

/// Validates the header and checksum of frame `frame_index` at `pos`,
/// after `decoded` rows, and bit-decodes its columns into `rows`,
/// validating every field; returns where the next frame starts. `rows`
/// held the previous frame, whose last id enforces file-wide id
/// monotonicity; `staged` holds one integer column at a time. A located
/// row's location holds placeholders until its stored columns fill them
/// or, in a seed-joined file, [`Shell::complete`] derives them.
fn decode_frame(
    bytes: &[u8],
    shell: &Shell,
    (decoded, frame_index, pos): (u64, usize, usize),
    rows: &mut Vec<DatasetRow>,
    staged: &mut Vec<u64>,
) -> Result<usize, DecodeError> {
    let record_count = shell.prelude.record_count;
    let torn = DecodeError::TornTail { valid_records: decoded, expected_records: record_count };
    let frame = |detail| DecodeError::FrameCorrupt { frame: frame_index, detail };
    if bytes.len() - pos < FRAME_HEADER_LEN + 4 {
        return Err(torn);
    }
    let header = &bytes[pos..pos + FRAME_HEADER_LEN];
    let le_u32 =
        |o: usize| u32::from_le_bytes([header[o], header[o + 1], header[o + 2], header[o + 3]]);
    if le_u32(0) != FRAME_MAGIC {
        return Err(frame("bad frame magic"));
    }
    let count = le_u32(4) as usize;
    if count == 0 || count > MAX_FRAME_ROWS {
        return Err(frame("row count out of range"));
    }
    if decoded + count as u64 > record_count {
        return Err(frame("record count overflow"));
    }
    let payload_len = le_u32(8) as usize;
    let first_id = u64::from_le_bytes(header[12..20].try_into().expect("20-byte header"));
    let end = pos + FRAME_HEADER_LEN + payload_len + 4;
    if end > bytes.len() {
        return Err(torn);
    }
    let payload = &bytes[pos + FRAME_HEADER_LEN..end - 4];
    let crc = frame_crc([shell.prelude.header_crc(), shell.dict_crc], frame_index, header, payload);
    let stored = u32::from_le_bytes(bytes[end - 4..end].try_into().expect("bounds checked"));
    if crc != stored {
        return Err(frame("checksum mismatch"));
    }

    let seed_joined = shell.source.is_some();
    if rows.last().is_some_and(|last| first_id <= last.block_id) {
        return Err(frame("block ids not increasing across frames"));
    }
    rows.clear();
    let mut r = BitReader::new(payload);

    let width = r.get(7).ok_or(frame("ids truncated"))? as u32;
    if width > 64 {
        return Err(frame("gap width out of range"));
    }
    let mut id = first_id;
    rows.push(DatasetRow { block_id: id, ..BLANK });
    for _ in 1..count {
        let gap = r.get(width).ok_or(frame("ids truncated"))?;
        id =
            gap.checked_add(1).and_then(|g| id.checked_add(g)).ok_or(frame("block id overflow"))?;
        rows.push(DatasetRow { block_id: id, ..BLANK });
    }
    if seed_joined && id >= shell.prelude.identity.num_blocks {
        return Err(frame("block id outside the world"));
    }
    for row in rows.iter_mut() {
        let code = r.get(2).ok_or(frame("flags truncated"))?;
        row.class = class_from_code(code).ok_or(frame("bad class code"))?;
        row.stationary = r.get_bit().ok_or(frame("flags truncated"))?;
        row.phase = r.get_bit().ok_or(frame("flags truncated"))?.then_some(0.0);
    }
    get_scaled(&mut r, SCALE6, rows.iter_mut().map(|x| &mut x.mean_a))
        .ok_or(frame("mean_a column damaged"))?;
    get_rice_col(&mut r, count, staged).ok_or(frame("cpd column damaged"))?;
    for (row, &i) in rows.iter_mut().zip(staged.iter()) {
        row.strongest_cpd = *shell.cpds.get(i as usize).ok_or(frame("cpd index out of range"))?;
    }
    get_rice_col(&mut r, count, staged).ok_or(frame("outage column damaged"))?;
    for (row, &o) in rows.iter_mut().zip(staged.iter()) {
        row.outages = u32::try_from(o).map_err(|_| frame("outage count out of range"))?;
    }
    get_for(&mut r, count, staged).ok_or(frame("probe column damaged"))?;
    for (row, &p) in rows.iter_mut().zip(staged.iter()) {
        row.probes = p;
    }
    get_rice_col(&mut r, count, staged).ok_or(frame("link column damaged"))?;
    for (row, &i) in rows.iter_mut().zip(staged.iter()) {
        row.links = *shell.masks.get(i as usize).ok_or(frame("link index out of range"))?;
    }
    get_scaled(&mut r, SCALE6, rows.iter_mut().filter_map(|x| x.phase.as_mut()))
        .ok_or(frame("phase column damaged"))?;
    for row in rows.iter_mut() {
        let located = r.get_bit().ok_or(frame("located column damaged"))?;
        let placeholder = located.then_some(0.0);
        (row.lon, row.lat, row.country) = (placeholder, placeholder, located.then_some(""));
    }

    if !seed_joined {
        for row in rows.iter_mut().filter(|x| x.country.is_some()) {
            row.centroid = r.get_bit().ok_or(frame("centroid column damaged"))?;
        }
        get_scaled(&mut r, SCALE6, rows.iter_mut().filter_map(|x| x.lon.as_mut()))
            .ok_or(frame("lon column damaged"))?;
        get_scaled(&mut r, SCALE6, rows.iter_mut().filter_map(|x| x.lat.as_mut()))
            .ok_or(frame("lat column damaged"))?;
        let located = rows.iter().filter(|x| x.country.is_some()).count();
        get_rice_col(&mut r, located, staged).ok_or(frame("country column damaged"))?;
        for (row, &i) in rows.iter_mut().filter(|x| x.country.is_some()).zip(staged.iter()) {
            row.country =
                Some(*shell.countries.get(i as usize).ok_or(frame("country index out of range"))?);
        }
        get_rice_col(&mut r, count, staged).ok_or(frame("alloc column damaged"))?;
        for (row, &i) in rows.iter_mut().zip(staged.iter()) {
            row.alloc = *shell.allocs.get(i as usize).ok_or(frame("alloc index out of range"))?;
        }
        get_for(&mut r, count, staged).ok_or(frame("asn column damaged"))?;
        for (row, &a) in rows.iter_mut().zip(staged.iter()) {
            row.asn = u32::try_from(a).map_err(|_| frame("asn out of range"))?;
        }
    }
    if r.bytes_consumed() != payload.len() {
        return Err(frame("payload length mismatch"));
    }
    Ok(end)
}

impl<'a> BinDataset<'a> {
    /// Parses and *fully validates* `bytes`: prelude, dictionary section
    /// and every frame (checksums, column shapes, id monotonicity, bit
    /// counts, declared record count). Seed-joined files additionally
    /// require `world`, whose identity must match the file's.
    pub fn parse(bytes: &'a [u8], world: Option<&WorldConfig>) -> Result<Self, DecodeError> {
        let r = Self::parse_inner(bytes, world);
        let obs = sleepwatch_obs::global();
        match &r {
            Ok(ds) => {
                obs.format.datasets_decoded.incr();
                obs.format.records_decoded.add(ds.record_count());
            }
            Err(_) => obs.format.decode_errors.incr(),
        }
        r
    }

    fn parse_inner(bytes: &'a [u8], world: Option<&WorldConfig>) -> Result<Self, DecodeError> {
        let shell = parse_shell(bytes, world)?;
        // The validation pass decodes every column this aggregate needs,
        // so the stats ride along for free.
        let mut stats = DatasetStats::default();
        walk_frames(bytes, &shell, |rows| rows.iter().for_each(|r| stats.accumulate(r)))?;
        Ok(BinDataset { bytes, shell, stats })
    }

    /// Rows the file declares (and parse verified).
    pub(crate) fn record_count(&self) -> u64 {
        self.shell.prelude.record_count
    }

    /// Decodes every row, in block-id order, reusing one frame of scratch
    /// for the whole pass. Structural errors cannot occur after
    /// [`parse`](BinDataset::parse), but the signature keeps them typed.
    pub(crate) fn to_rows(&self) -> Result<Vec<DatasetRow>, DecodeError> {
        let mut rows = Vec::with_capacity(self.record_count() as usize);
        let shell = &self.shell;
        walk_frames(self.bytes, shell, |frame| {
            rows.extend(frame.iter().map(|&r| shell.complete(r)))
        })?;
        Ok(rows)
    }
}

/// Parses and fully decodes a compact dataset into owned rows.
pub fn decode_dataset(
    bytes: &[u8],
    world: Option<&WorldConfig>,
) -> Result<Vec<DatasetRow>, DecodeError> {
    BinDataset::parse(bytes, world)?.to_rows()
}

/// Best-effort decode of a possibly damaged file: every intact leading
/// frame is returned, together with the error that stopped the walk (or
/// `None` for a clean file). A damaged prelude or dictionary yields no
/// rows — nothing after them can be trusted.
pub fn decode_prefix(
    bytes: &[u8],
    world: Option<&WorldConfig>,
) -> (Vec<DatasetRow>, Option<DecodeError>) {
    let mut rows = Vec::new();
    let walked = parse_shell(bytes, world).and_then(|shell| {
        walk_frames(bytes, &shell, |frame| rows.extend(frame.iter().map(|&r| shell.complete(r))))
    });
    if walked.is_err() {
        sleepwatch_obs::global().format.decode_errors.incr();
    }
    (rows, walked.err())
}

// ---------------------------------------------------------------------------
// Streaming aggregation
// ---------------------------------------------------------------------------

/// A small aggregate computed in one pass over a dataset — the
/// decode-to-analysis workload the format bench gates on, and a cheap
/// cross-check that two read paths saw identical rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DatasetStats {
    /// Rows aggregated.
    pub rows: u64,
    /// Strictly diurnal rows.
    pub strict: u64,
    /// Relaxed-diurnal rows.
    pub relaxed: u64,
    /// Rows with a geolocation.
    pub located: u64,
    /// Total outages.
    pub outages: u64,
    /// Total probes.
    pub total_probes: u64,
    /// Sum of mean `Âs` (summed in row order, so bitwise comparable).
    pub mean_a_sum: f64,
}

impl DatasetStats {
    /// Folds one row into the aggregate.
    fn accumulate(&mut self, r: &DatasetRow) {
        self.rows += 1;
        match r.class {
            DiurnalClass::Strict => self.strict += 1,
            DiurnalClass::Relaxed => self.relaxed += 1,
            DiurnalClass::NonDiurnal => {}
        }
        self.located += r.country.is_some() as u64;
        self.outages += r.outages as u64;
        self.total_probes += r.probes;
        self.mean_a_sum += r.mean_a;
    }

    /// Aggregates owned rows (the TSV read path).
    pub fn from_rows(rows: &[DatasetRow]) -> Self {
        let mut s = Self::default();
        rows.iter().for_each(|r| s.accumulate(r));
        s
    }

    /// Aggregates a parsed binary dataset without materializing rows.
    ///
    /// This is free: [`BinDataset::parse`] folds the aggregate while it
    /// validates the frames, and the stored per-row located flag means a
    /// seed-joined file never has to regenerate a block to answer it.
    pub fn from_bin(ds: &BinDataset<'_>) -> Self {
        ds.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{dataset_rows, read_dataset, write_dataset, write_dataset_rows};
    use crate::worldrun::{analyze_world, WorldAnalysis};
    use crate::AnalysisConfig;
    use sleepwatch_simnet::World;

    fn fixture_cfg() -> WorldConfig {
        WorldConfig { num_blocks: 80, seed: 17, span_days: 4.0, ..Default::default() }
    }

    fn analysis() -> WorldAnalysis {
        let world = World::generate(fixture_cfg());
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        analyze_world(&world, &cfg, 2, None)
    }

    fn tsv_of(a: &WorldAnalysis) -> Vec<u8> {
        let mut out = Vec::new();
        write_dataset(&mut out, a).unwrap();
        out
    }

    #[test]
    fn quantize_is_bit_exact_or_none() {
        assert_eq!(quantize(0.123456, SCALE6), Some(123_456));
        assert_eq!(quantize(-41.25, SCALE6), Some(-41_250_000));
        assert_eq!(quantize(0.0, SCALE6), Some(0));
        // -0.0 dequantizes to +0.0 — different bits, must escape.
        assert_eq!(quantize(-0.0, SCALE6), None);
        assert_eq!(quantize(f64::NAN, SCALE6), None);
        assert_eq!(quantize(f64::INFINITY, SCALE6), None);
        assert_eq!(quantize(1.0e17, SCALE6), None);
        // Values printed at 6 decimals always survive quantization.
        for x in [0.1, 1.0 / 3.0, 123.456_789_012, -7.9, 179.999_999_4] {
            let c = canon(x, 6);
            assert!(quantize(c, SCALE6).is_some(), "canon({x}) not quantizable");
        }
    }

    #[test]
    fn scaled_column_roundtrips_with_escapes() {
        let values = [0.5, -0.0, 1.25, f64::NAN, 0.000001, -3.0, f64::INFINITY];
        let mut w = BitWriter::new();
        put_scaled(&mut w, values.iter().copied(), SCALE6);
        let bytes = w.into_bytes();
        let mut out = [0.0; 7];
        get_scaled(&mut BitReader::new(&bytes), SCALE6, out.iter_mut()).unwrap();
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn self_contained_roundtrips_and_matches_tsv() {
        let a = analysis();
        let rows = dataset_rows(&a);
        let bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        let ds = BinDataset::parse(&bin, None).unwrap();
        assert_eq!(ds.shell.prelude.mode, MODE_SELF);
        assert_eq!(ds.record_count(), rows.len() as u64);
        let back = ds.to_rows().unwrap();
        assert_eq!(back, rows);
        // Byte-identical TSV through the binary roundtrip.
        let mut via_bin = Vec::new();
        write_dataset_rows(&mut via_bin, &back).unwrap();
        assert_eq!(via_bin, tsv_of(&a));
        // Deterministic bytes.
        assert_eq!(bin, encode_dataset(&rows, DatasetMode::SelfContained).unwrap());
    }

    #[test]
    fn seed_joined_roundtrips_matches_tsv_and_is_smaller() {
        let a = analysis();
        let cfg = fixture_cfg();
        let rows = dataset_rows(&a);
        let self_bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        let seed_bin = encode_dataset(&rows, DatasetMode::SeedJoined(&cfg)).unwrap();
        assert!(seed_bin.len() < self_bin.len());
        let ds = BinDataset::parse(&seed_bin, Some(&cfg)).unwrap();
        assert_eq!(ds.shell.prelude.mode, MODE_SEED_JOINED);
        assert_eq!(ds.shell.prelude.identity, dataset_identity(&cfg));
        let mut via_bin = Vec::new();
        write_dataset_rows(&mut via_bin, &ds.to_rows().unwrap()).unwrap();
        assert_eq!(via_bin, tsv_of(&a));
        // The TSV the binary reproduces also parses back to the same rows.
        let parsed = read_dataset(&via_bin[..]).unwrap();
        assert_eq!(parsed, rows);
        // Size sanity: far below TSV even at 80 rows.
        assert!(seed_bin.len() * 3 < via_bin.len(), "{} vs {}", seed_bin.len(), via_bin.len());
    }

    #[test]
    fn seed_joined_requires_and_checks_the_world() {
        let cfg = fixture_cfg();
        let rows = dataset_rows(&analysis());
        let bin = encode_dataset(&rows, DatasetMode::SeedJoined(&cfg)).unwrap();
        assert_eq!(BinDataset::parse(&bin, None).err(), Some(DecodeError::WorldRequired));
        let wrong = WorldConfig { seed: 18, ..cfg.clone() };
        assert!(matches!(
            BinDataset::parse(&bin, Some(&wrong)),
            Err(DecodeError::IdentityMismatch {
                field: sleepwatch_framing::IdentityField::WorldSeed,
                ..
            })
        ));
        // A self-contained file ignores the config entirely.
        let self_bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        assert!(BinDataset::parse(&self_bin, Some(&wrong)).is_ok());
    }

    #[test]
    fn seed_joined_rejects_non_derivable_rows() {
        let cfg = fixture_cfg();
        let mut rows = dataset_rows(&analysis());
        rows[3].asn ^= 1;
        assert!(matches!(
            encode_dataset(&rows, DatasetMode::SeedJoined(&cfg)),
            Err(EncodeError::NotDerivable { field: "asn", .. })
        ));
    }

    #[test]
    fn encode_rejects_malformed_rows() {
        let rows = dataset_rows(&analysis());
        let mut unsorted = rows.clone();
        unsorted.swap(0, 1);
        assert!(matches!(
            encode_dataset(&unsorted, DatasetMode::SelfContained),
            Err(EncodeError::Unsorted { index: 1 })
        ));
        // A country is stored only if the table holds it.
        let mut foreign = rows.clone();
        let located = foreign.iter().position(|r| r.country.is_some()).expect("a located row");
        foreign[located].country = Some("ZZ");
        assert!(matches!(
            encode_dataset(&foreign, DatasetMode::SelfContained),
            Err(EncodeError::Unrepresentable { field: "country", .. })
        ));
        let mut orphan_lon = rows;
        orphan_lon[0].country = None;
        orphan_lon[0].lon = Some(1.0);
        orphan_lon[0].lat = None;
        assert!(matches!(
            encode_dataset(&orphan_lon, DatasetMode::SelfContained),
            Err(EncodeError::Unrepresentable { field: "location", .. })
        ));
    }

    #[test]
    fn truncation_heals_to_the_frame_prefix() {
        let rows = dataset_rows(&analysis());
        let bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        // Sever inside the (single) frame's payload: strict parse fails
        // typed, prefix decode yields no rows but no panic.
        let cut = &bin[..bin.len() - 7];
        assert!(BinDataset::parse(cut, None).is_err());
        let (prefix, err) = decode_prefix(cut, None);
        assert!(prefix.is_empty());
        assert!(err.is_some());
        // Multi-frame file: first frame survives a tail cut.
        let many: Vec<DatasetRow> = (0..MAX_FRAME_ROWS as u64 + 10)
            .map(|i| DatasetRow { block_id: i, ..rows[0] })
            .collect();
        let bin = encode_dataset(&many, DatasetMode::SelfContained).unwrap();
        let cut = &bin[..bin.len() - 5];
        let (prefix, err) = decode_prefix(cut, None);
        assert_eq!(prefix.len(), MAX_FRAME_ROWS);
        assert!(matches!(
            err,
            Some(DecodeError::TornTail { .. }) | Some(DecodeError::FrameCorrupt { .. })
        ));
        assert_eq!(prefix, many[..MAX_FRAME_ROWS].to_vec());
    }

    #[test]
    fn trailing_garbage_and_splices_are_rejected() {
        let rows = dataset_rows(&analysis());
        let bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        let mut padded = bin.clone();
        padded.extend_from_slice(b"junk");
        assert!(matches!(
            BinDataset::parse(&padded, None),
            Err(DecodeError::FrameCorrupt { detail: "trailing bytes after final frame", .. })
        ));
        // A frame from a file with a different prelude fails its chained
        // checksum even though the frame itself is intact.
        let other = encode_dataset(&rows[..rows.len() - 1], DatasetMode::SelfContained).unwrap();
        let mut spliced = bin[..shell_end(&bin)].to_vec();
        spliced.extend_from_slice(&other[shell_end(&other)..]);
        assert!(matches!(
            BinDataset::parse(&spliced, None),
            Err(DecodeError::FrameCorrupt { detail: "checksum mismatch", .. })
        ));
    }

    #[test]
    fn reordered_frames_fail_the_position_chain() {
        // Two full frames of identical-shape rows; swapping the frame
        // byte ranges leaves each frame self-consistent but moves it to
        // the wrong index, which the chained frame-index CRC catches.
        let template = dataset_rows(&analysis());
        let many: Vec<DatasetRow> = (0..2 * MAX_FRAME_ROWS as u64)
            .map(|i| DatasetRow { block_id: i, ..template[0] })
            .collect();
        let bin = encode_dataset(&many, DatasetMode::SelfContained).unwrap();
        let shell = shell_end(&bin);
        let f0_payload = u32::from_le_bytes(bin[shell + 8..shell + 12].try_into().unwrap());
        let f0_end = shell + FRAME_HEADER_LEN + f0_payload as usize + 4;
        let mut swapped = bin[..shell].to_vec();
        swapped.extend_from_slice(&bin[f0_end..]);
        swapped.extend_from_slice(&bin[shell..f0_end]);
        assert!(matches!(
            BinDataset::parse(&swapped, None),
            Err(DecodeError::FrameCorrupt { frame: 0, detail: "checksum mismatch" })
        ));
    }

    /// Byte offset where the frame area starts.
    fn shell_end(bytes: &[u8]) -> usize {
        let dict_len = u32::from_le_bytes(
            bytes[sleepwatch_framing::PRELUDE_LEN..sleepwatch_framing::PRELUDE_LEN + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        sleepwatch_framing::PRELUDE_LEN + 8 + dict_len
    }

    #[test]
    fn every_byte_flip_is_detected_or_harmless() {
        let rows = dataset_rows(&analysis());
        let bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        for i in 0..bin.len() {
            let mut bad = bin.clone();
            bad[i] ^= 0x10;
            match BinDataset::parse(&bad, None) {
                Err(_) => {}
                Ok(ds) => {
                    // CRC32 catches every single-bit error; a whole-nibble
                    // flip slipping through all three checksums would be a
                    // bug.
                    panic!("flip at byte {i} decoded {} rows", ds.record_count());
                }
            }
        }
    }

    #[test]
    fn stats_agree_between_row_and_streaming_paths() {
        let rows = dataset_rows(&analysis());
        let want = DatasetStats::from_rows(&rows);
        let bin = encode_dataset(&rows, DatasetMode::SelfContained).unwrap();
        let ds = BinDataset::parse(&bin, None).unwrap();
        assert_eq!(DatasetStats::from_bin(&ds), want);
        // The seed-joined file answers the same aggregate without ever
        // touching the world generator: the stats fold during parse.
        let cfg = fixture_cfg();
        let bin = encode_dataset(&rows, DatasetMode::SeedJoined(&cfg)).unwrap();
        let ds = BinDataset::parse(&bin, Some(&cfg)).unwrap();
        assert_eq!(DatasetStats::from_bin(&ds), want);
    }
}
