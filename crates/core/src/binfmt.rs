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
//! [`crate::framing`]: the shared 64-byte prelude (magic, version,
//! endianness tag, run identity, record count, header CRC), a
//! CRC-guarded dictionary section, and a CRC32 per frame chained over
//! the header CRC, the dictionary CRC *and the frame index*, so a frame
//! spliced from a file with a different prelude or different
//! dictionaries — or reordered within this one — fails its checksum
//! even when the frame itself is intact. Decoding is total: [`BinDataset::parse`]
//! validates every frame up front and any malformed input yields a typed
//! [`DecodeError`], never a panic and never silently wrong rows.

use crate::export::DatasetRow;
use crate::framing::{
    check_identity, crc32, put_string_table, read_string_table, rice_best_k, rice_get, rice_put,
    BitReader, BitWriter, Crc32, DecodeError, Prelude, RunIdentity, RICE_MAX,
};
use sleepwatch_geoecon::allocation::YearMonth;
use sleepwatch_geoecon::country::COUNTRIES;
use sleepwatch_linktype::LinkFeature;
use sleepwatch_simnet::{WorldConfig, WorldSource};
use sleepwatch_spectral::DiurnalClass;
use std::collections::HashMap;
use std::fmt;

/// Dataset container magic: `SLPWBIN1` as a little-endian u64.
pub const DATASET_MAGIC: u64 = u64::from_le_bytes(*b"SLPWBIN1");
/// Dataset container version this build reads and writes.
pub const DATASET_VERSION: u16 = 1;
/// Prelude `kind` byte for dataset containers.
pub const KIND_DATASET: u8 = 0;
/// Mode byte: every column stored in the file.
pub const MODE_SELF: u8 = 0;
/// Mode byte: seed-derivable columns elided and regenerated at decode.
pub const MODE_SEED_JOINED: u8 = 1;
/// Frame magic: `BFRM` as a little-endian u32.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"BFRM");
/// Rows per frame (the last frame may hold fewer).
pub const MAX_FRAME_ROWS: usize = 4096;
/// Frame header length: magic u32 | count u32 | payload_len u32 | first_id u64.
pub const FRAME_HEADER_LEN: usize = 20;

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
    /// A row field does not fit the container (unknown link keyword,
    /// oversized string, lon/lat on an unlocated row, …).
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

/// Rounds `x` to `decimals` fractional digits exactly the way the TSV
/// writer prints it, by formatting and re-parsing. Non-finite values are
/// returned unchanged.
pub fn canon(x: f64, decimals: usize) -> f64 {
    if !x.is_finite() {
        return x;
    }
    format!("{x:.decimals$}").parse().unwrap_or(x)
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
fn put_scaled(w: &mut BitWriter, values: &[f64], scale: f64) {
    let qs: Vec<Option<i64>> = values.iter().map(|&x| quantize(x, scale)).collect();
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for &q in qs.iter().flatten() {
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
    for (&x, &q) in values.iter().zip(&qs) {
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

/// Reads `n` values written by [`put_scaled`] into `out`.
fn get_scaled(r: &mut BitReader<'_>, n: usize, scale: f64, out: &mut Vec<f64>) -> Option<()> {
    let min = r.get(64)? as i64;
    let width = r.get(7)? as u32;
    if width > 63 {
        return None;
    }
    for _ in 0..n {
        if r.get_bit()? {
            out.push(f64::from_bits(r.get(64)?));
        } else {
            let q = min.checked_add(r.get(width)? as i64)?;
            out.push(q as f64 / scale);
        }
    }
    Some(())
}

/// Writes a frame-of-reference integer column: `min u64 | width u7`,
/// then width-bit offsets from the minimum.
fn put_for(w: &mut BitWriter, values: &[u64]) {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let width = u64::BITS - (max - min).leading_zeros();
    w.put(min, 64);
    w.put(width as u64, 7);
    for &v in values {
        w.put(v - min, width);
    }
}

/// Reads `n` values written by [`put_for`] into `out`.
fn get_for(r: &mut BitReader<'_>, n: usize, out: &mut Vec<u64>) -> Option<()> {
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
fn put_rice_col(w: &mut BitWriter, values: &[u64]) {
    debug_assert!(values.iter().all(|&v| v <= RICE_MAX));
    let (k, _) = rice_best_k(values.iter().copied());
    w.put(k as u64, 5);
    for &v in values {
        rice_put(w, v, k);
    }
}

/// Reads `n` values written by [`put_rice_col`] into `out`.
fn get_rice_col(r: &mut BitReader<'_>, n: usize, out: &mut Vec<u64>) -> Option<()> {
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
// Link masks and class codes
// ---------------------------------------------------------------------------

/// The keywords a link mask expands to, in [`LinkFeature::ALL`] order.
fn mask_keywords(mask: u16) -> impl Iterator<Item = &'static str> {
    LinkFeature::ALL
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1 << i) != 0)
        .map(|(_, f)| f.keyword())
}

/// Compresses a row's link keywords into a [`LinkFeature::ALL`] bitmask,
/// verifying the mask expands back to exactly the stored list (order and
/// multiplicity included) so decode reproduces the TSV byte-for-byte.
fn link_mask(row: &DatasetRow) -> Result<u16, EncodeError> {
    let err = EncodeError::Unrepresentable { block_id: row.block_id, field: "links" };
    let mut mask = 0u16;
    for kw in &row.links {
        let pos =
            LinkFeature::ALL.iter().position(|f| f.keyword() == kw).ok_or_else(|| err.clone())?;
        mask |= 1 << pos;
    }
    let echoes = mask_keywords(mask).eq(row.links.iter().map(|s| s.as_str()));
    if echoes {
        Ok(mask)
    } else {
        Err(err)
    }
}

fn class_code(c: DiurnalClass) -> u64 {
    match c {
        DiurnalClass::Strict => 0,
        DiurnalClass::Relaxed => 1,
        DiurnalClass::NonDiurnal => 2,
    }
}

fn class_from_code(code: u64) -> Option<DiurnalClass> {
    match code {
        0 => Some(DiurnalClass::Strict),
        1 => Some(DiurnalClass::Relaxed),
        2 => Some(DiurnalClass::NonDiurnal),
        _ => None,
    }
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

/// What the seed derives for one block: the TSV-canonicalized location
/// columns plus registry data.
struct Derived {
    location: Option<(f64, f64, &'static str, bool)>,
    alloc: YearMonth,
    asn: u32,
}

fn derive(source: &WorldSource, id: u64) -> Derived {
    let spec = source.generate_block(id);
    let country = &COUNTRIES[spec.country_idx];
    let location = source
        .geodb()
        .locate(id, country, spec.lon, spec.lat)
        .map(|l| (canon(l.lon, 6), canon(l.lat, 6), l.country, l.centroid_fallback));
    Derived { location, alloc: spec.alloc_date, asn: spec.asn }
}

/// Checks that every elided column of `row` is bit-exactly reproduced by
/// [`derive`], so seed-joined decode cannot silently differ from the row
/// that was encoded.
fn verify_derivable(source: &WorldSource, row: &DatasetRow) -> Result<(), EncodeError> {
    let fail = |field| EncodeError::NotDerivable { block_id: row.block_id, field };
    if row.block_id >= source.cfg().num_blocks as u64 {
        return Err(fail("block_id"));
    }
    let d = derive(source, row.block_id);
    match (&d.location, &row.country) {
        (Some((lon, lat, country, centroid)), Some(row_country)) => {
            if row_country != country {
                return Err(fail("country"));
            }
            if row.lon.map(f64::to_bits) != Some(lon.to_bits()) {
                return Err(fail("lon"));
            }
            if row.lat.map(f64::to_bits) != Some(lat.to_bits()) {
                return Err(fail("lat"));
            }
            if row.centroid != *centroid {
                return Err(fail("centroid"));
            }
        }
        (None, None) => {}
        _ => return Err(fail("country")),
    }
    if row.alloc != d.alloc.to_string() {
        return Err(fail("alloc"));
    }
    if row.asn != d.asn {
        return Err(fail("asn"));
    }
    Ok(())
}

/// Distinct values sorted by descending frequency (ascending value as
/// the tiebreak, for deterministic output), with an index map back.
fn freq_sorted<T: Ord + std::hash::Hash + Copy>(
    counts: &HashMap<T, u64>,
) -> (Vec<T>, HashMap<T, u64>) {
    let mut entries: Vec<(T, u64)> = counts.iter().map(|(&k, &c)| (k, c)).collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let values: Vec<T> = entries.into_iter().map(|(k, _)| k).collect();
    let index = values.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
    (values, index)
}

/// String-dictionary variant of [`freq_sorted`].
fn freq_sorted_str<'a>(counts: &HashMap<&'a str, u64>) -> (Vec<&'a str>, HashMap<&'a str, u64>) {
    let mut entries: Vec<(&str, u64)> = counts.iter().map(|(&k, &c)| (k, c)).collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let values: Vec<&str> = entries.into_iter().map(|(k, _)| k).collect();
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
        let long = |s: &str| s.len() > u8::MAX as usize;
        if row.country.as_deref().is_some_and(long) {
            return Err(EncodeError::Unrepresentable { block_id: row.block_id, field: "country" });
        }
        if long(&row.alloc) {
            return Err(EncodeError::Unrepresentable { block_id: row.block_id, field: "alloc" });
        }
    }
    let masks: Vec<u16> = rows.iter().map(link_mask).collect::<Result<_, _>>()?;

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
    let mut mask_counts: HashMap<u16, u64> = HashMap::new();
    let mut cpd_counts: HashMap<u64, u64> = HashMap::new();
    let mut country_counts: HashMap<&str, u64> = HashMap::new();
    let mut alloc_counts: HashMap<&str, u64> = HashMap::new();
    for (row, &mask) in rows.iter().zip(&masks) {
        *mask_counts.entry(mask).or_insert(0) += 1;
        *cpd_counts.entry(row.strongest_cpd.to_bits()).or_insert(0) += 1;
        if mode_byte == MODE_SELF {
            if let Some(c) = row.country.as_deref() {
                *country_counts.entry(c).or_insert(0) += 1;
            }
            *alloc_counts.entry(row.alloc.as_str()).or_insert(0) += 1;
        }
    }
    let (mask_dict, mask_idx) = freq_sorted(&mask_counts);
    let (cpd_dict, cpd_idx) = freq_sorted(&cpd_counts);
    let (country_dict, country_idx) = freq_sorted_str(&country_counts);
    let (alloc_dict, alloc_idx) = freq_sorted_str(&alloc_counts);
    if country_dict.len() > u16::MAX as usize {
        return Err(EncodeError::TooMany { what: "countries" });
    }
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
    put_string_table(&mut dict, alloc_dict.iter().copied());
    put_string_table(&mut dict, LinkFeature::ALL.iter().map(|f| f.keyword()));
    dict.extend_from_slice(&(mask_dict.len() as u32).to_le_bytes());
    for &m in &mask_dict {
        dict.extend_from_slice(&m.to_le_bytes());
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
    let mut frame_count = 0u64;
    for (frame_index, chunk) in rows.chunks(MAX_FRAME_ROWS).enumerate() {
        let lo = frame_index * MAX_FRAME_ROWS;
        let chunk_masks = &masks[lo..lo + chunk.len()];
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
        let col: Vec<f64> = chunk.iter().map(|r| r.mean_a).collect();
        put_scaled(&mut w, &col, SCALE6);
        let col: Vec<u64> = chunk.iter().map(|r| cpd_idx[&r.strongest_cpd.to_bits()]).collect();
        put_rice_col(&mut w, &col);
        let col: Vec<u64> = chunk.iter().map(|r| r.outages as u64).collect();
        put_rice_col(&mut w, &col);
        let col: Vec<u64> = chunk.iter().map(|r| r.probes).collect();
        put_for(&mut w, &col);
        let col: Vec<u64> = chunk_masks.iter().map(|m| mask_idx[m]).collect();
        put_rice_col(&mut w, &col);
        let col: Vec<f64> = chunk.iter().filter_map(|r| r.phase).collect();
        put_scaled(&mut w, &col, SCALE6);
        // The located flag is stored in both modes: it lets a seed-joined
        // reader aggregate [`DatasetStats`] without regenerating a single
        // block. One bit per row; derivability is still verified above.
        for row in chunk {
            w.put_bit(row.country.is_some());
        }

        if mode_byte == MODE_SELF {
            let located: Vec<&DatasetRow> = chunk.iter().filter(|r| r.country.is_some()).collect();
            for row in &located {
                w.put_bit(row.centroid);
            }
            let col: Vec<f64> = located.iter().map(|r| r.lon.expect("checked located")).collect();
            put_scaled(&mut w, &col, SCALE6);
            let col: Vec<f64> = located.iter().map(|r| r.lat.expect("checked located")).collect();
            put_scaled(&mut w, &col, SCALE6);
            let col: Vec<u64> = located
                .iter()
                .map(|r| country_idx[r.country.as_deref().expect("checked located")])
                .collect();
            put_rice_col(&mut w, &col);
            let col: Vec<u64> = chunk.iter().map(|r| alloc_idx[r.alloc.as_str()]).collect();
            put_rice_col(&mut w, &col);
            let col: Vec<u64> = chunk.iter().map(|r| r.asn as u64).collect();
            put_for(&mut w, &col);
        }

        let payload = w.into_bytes();
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[12..20].copy_from_slice(&chunk[0].block_id.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&header_crc.to_le_bytes());
        crc.update(&dict_crc.to_le_bytes());
        crc.update(&(frame_index as u64).to_le_bytes());
        crc.update(&header);
        crc.update(&payload);
        out.extend_from_slice(&header);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        frame_count += 1;
    }

    let obs = sleepwatch_obs::global();
    obs.format.datasets_encoded.incr();
    obs.format.bytes_encoded.add(out.len() as u64);
    obs.format.records_encoded.add(rows.len() as u64);
    obs.format.frames_encoded.add(frame_count);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One decoded row, borrowing its strings from the file (or the static
/// tables, in seed-joined mode) — nothing is copied until
/// [`BinRow::to_row`].
#[derive(Debug, Clone, PartialEq)]
pub struct BinRow<'a> {
    /// Block id.
    pub block_id: u64,
    /// Measured diurnal class.
    pub class: DiurnalClass,
    /// Phase of the daily component (diurnal blocks only).
    pub phase: Option<f64>,
    /// Mean `Âs`.
    pub mean_a: f64,
    /// Strongest spectral component, cycles/day.
    pub strongest_cpd: f64,
    /// Stationarity screen result.
    pub stationary: bool,
    /// Outages detected.
    pub outages: u32,
    /// Probes spent.
    pub probes: u64,
    /// Geolocated longitude (if located).
    pub lon: Option<f64>,
    /// Geolocated latitude.
    pub lat: Option<f64>,
    /// Country code, borrowed (if located).
    pub country: Option<&'a str>,
    /// Country-centroid fallback flag.
    pub centroid: bool,
    /// /8 allocation date.
    pub alloc: AllocDate<'a>,
    /// Origin AS.
    pub asn: u32,
    /// Kept link features as a [`LinkFeature::ALL`] bitmask.
    pub link_mask: u16,
}

/// An allocation date as the container holds it: borrowed text
/// (self-contained files) or a parsed year-month (seed-joined files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocDate<'a> {
    /// Verbatim `YYYY-MM` text from the file's dictionary.
    Text(&'a str),
    /// Derived from the world seed.
    Date(YearMonth),
}

impl fmt::Display for AllocDate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocDate::Text(s) => f.write_str(s),
            AllocDate::Date(ym) => write!(f, "{ym}"),
        }
    }
}

impl BinRow<'_> {
    /// The row's link keywords, in [`LinkFeature::ALL`] order.
    pub fn links(&self) -> impl Iterator<Item = &'static str> {
        mask_keywords(self.link_mask)
    }

    /// Materializes an owned [`DatasetRow`].
    pub fn to_row(&self) -> DatasetRow {
        DatasetRow {
            block_id: self.block_id,
            class: self.class,
            phase: self.phase,
            mean_a: self.mean_a,
            strongest_cpd: self.strongest_cpd,
            stationary: self.stationary,
            outages: self.outages,
            probes: self.probes,
            lon: self.lon,
            lat: self.lat,
            country: self.country.map(str::to_owned),
            centroid: self.centroid,
            alloc: self.alloc.to_string(),
            asn: self.asn,
            links: self.links().map(str::to_owned).collect(),
        }
    }
}

/// The file's dictionaries, borrowed from the mapped bytes.
struct Dicts<'a> {
    countries: Vec<&'a str>,
    allocs: Vec<&'a str>,
    masks: Vec<u16>,
    cpds: Vec<f64>,
}

/// Location and byte range of one validated frame.
struct FrameMeta {
    count: usize,
    first_id: u64,
    payload: std::ops::Range<usize>,
}

/// Per-frame decoded columns, reused across frames so steady-state
/// decoding allocates nothing.
#[derive(Default)]
struct FrameScratch {
    ids: Vec<u64>,
    class: Vec<DiurnalClass>,
    stationary: Vec<bool>,
    has_phase: Vec<bool>,
    mean_a: Vec<f64>,
    cpd: Vec<f64>,
    outages: Vec<u64>,
    probes: Vec<u64>,
    masks: Vec<u16>,
    phase: Vec<f64>,
    located: Vec<bool>,
    centroid: Vec<bool>,
    lon: Vec<f64>,
    lat: Vec<f64>,
    country: Vec<u64>,
    alloc: Vec<u64>,
    asn: Vec<u64>,
    /// Staging buffer for dictionary-index columns before remapping.
    idx: Vec<u64>,
}

impl FrameScratch {
    fn clear(&mut self) {
        let FrameScratch {
            ids,
            class,
            stationary,
            has_phase,
            mean_a,
            cpd,
            outages,
            probes,
            masks,
            phase,
            located,
            centroid,
            lon,
            lat,
            country,
            alloc,
            asn,
            idx,
        } = self;
        ids.clear();
        class.clear();
        stationary.clear();
        has_phase.clear();
        mean_a.clear();
        cpd.clear();
        outages.clear();
        probes.clear();
        masks.clear();
        phase.clear();
        located.clear();
        centroid.clear();
        lon.clear();
        lat.clear();
        country.clear();
        alloc.clear();
        asn.clear();
        idx.clear();
    }
}

/// A parsed, fully validated compact dataset over a borrowed byte slice
/// (e.g. a memory map). Construction decodes every frame once — after
/// [`parse`](BinDataset::parse) succeeds, the whole file is known good
/// and the row accessors cannot fail structurally.
pub struct BinDataset<'a> {
    bytes: &'a [u8],
    prelude: Prelude,
    dicts: Dicts<'a>,
    source: Option<WorldSource>,
    frames: Vec<FrameMeta>,
    stats: DatasetStats,
}

impl fmt::Debug for BinDataset<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinDataset")
            .field("mode", &self.prelude.mode)
            .field("records", &self.prelude.record_count)
            .field("frames", &self.frames.len())
            .finish()
    }
}

/// Parses the prelude, mode and dictionary section, returning the byte
/// offset where frames start.
fn parse_shell<'a>(
    bytes: &'a [u8],
    world: Option<&WorldConfig>,
) -> Result<(Prelude, Dicts<'a>, Option<WorldSource>, u32, usize), DecodeError> {
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
    need(crate::framing::PRELUDE_LEN + 8)?;
    let mut pos = crate::framing::PRELUDE_LEN;
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
    let countries = read_string_table(dict_bytes, &mut dpos)?;
    let allocs = read_string_table(dict_bytes, &mut dpos)?;
    let link_table = read_string_table(dict_bytes, &mut dpos)?;
    if !link_table.iter().copied().eq(LinkFeature::ALL.iter().map(|f| f.keyword())) {
        return Err(DecodeError::DictMismatch { table: "link" });
    }
    if prelude.mode == MODE_SEED_JOINED && (!countries.is_empty() || !allocs.is_empty()) {
        return Err(corrupt("seed-joined file carries stored-column tables"));
    }
    let take = |dpos: &mut usize, n: usize| -> Result<&'a [u8], DecodeError> {
        let end = dpos.checked_add(n).ok_or(corrupt("length overflow"))?;
        let slice = dict_bytes.get(*dpos..end).ok_or(corrupt("dictionary truncated"))?;
        *dpos = end;
        Ok(slice)
    };
    let n = take(&mut dpos, 4)?;
    let mask_count = u32::from_le_bytes([n[0], n[1], n[2], n[3]]) as usize;
    let mut masks = Vec::with_capacity(mask_count.min(1 << 16));
    for _ in 0..mask_count {
        let b = take(&mut dpos, 2)?;
        masks.push(u16::from_le_bytes([b[0], b[1]]));
    }
    let n = take(&mut dpos, 4)?;
    let cpd_count = u32::from_le_bytes([n[0], n[1], n[2], n[3]]) as usize;
    let mut cpds = Vec::with_capacity(cpd_count.min(1 << 16));
    for _ in 0..cpd_count {
        let b = take(&mut dpos, 8)?;
        cpds.push(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])));
    }
    if dpos != dict_len {
        return Err(corrupt("trailing dictionary bytes"));
    }
    Ok((prelude, Dicts { countries, allocs, masks, cpds }, source, dict_crc, frames_at))
}

/// Validates the header and checksum of the frame at `pos`, returning
/// `(count, first_id, payload_range, next_pos)`.
fn frame_at(
    bytes: &[u8],
    header_crc: u32,
    dict_crc: u32,
    record_count: u64,
    decoded: u64,
    frame_index: usize,
    pos: usize,
) -> Result<(usize, u64, std::ops::Range<usize>, usize), DecodeError> {
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
    let payload = pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + payload_len;
    let mut crc = Crc32::new();
    crc.update(&header_crc.to_le_bytes());
    crc.update(&dict_crc.to_le_bytes());
    crc.update(&(frame_index as u64).to_le_bytes());
    crc.update(header);
    crc.update(&bytes[payload.clone()]);
    let stored = u32::from_le_bytes(bytes[end - 4..end].try_into().expect("bounds checked"));
    if crc.finish() != stored {
        return Err(frame("checksum mismatch"));
    }
    Ok((count, first_id, payload, end))
}

/// Bit-decodes one frame's columns into `s`, validating every field.
/// `prev_last` is the last block id of the previous frame, enforcing
/// file-wide id monotonicity.
#[allow(clippy::too_many_arguments)]
fn decode_frame(
    dicts: &Dicts<'_>,
    seed_joined: bool,
    num_blocks: u64,
    frame_index: usize,
    count: usize,
    first_id: u64,
    payload: &[u8],
    prev_last: Option<u64>,
    s: &mut FrameScratch,
) -> Result<(), DecodeError> {
    let frame = |detail| DecodeError::FrameCorrupt { frame: frame_index, detail };
    s.clear();
    let mut r = BitReader::new(payload);

    let width = r.get(7).ok_or(frame("ids truncated"))? as u32;
    if width > 64 {
        return Err(frame("gap width out of range"));
    }
    let mut id = first_id;
    if prev_last.is_some_and(|last| first_id <= last) {
        return Err(frame("block ids not increasing across frames"));
    }
    s.ids.push(id);
    for _ in 1..count {
        let gap = r.get(width).ok_or(frame("ids truncated"))?;
        id =
            gap.checked_add(1).and_then(|g| id.checked_add(g)).ok_or(frame("block id overflow"))?;
        s.ids.push(id);
    }
    if seed_joined && id >= num_blocks {
        return Err(frame("block id outside the world"));
    }
    for _ in 0..count {
        let code = r.get(2).ok_or(frame("flags truncated"))?;
        s.class.push(class_from_code(code).ok_or(frame("bad class code"))?);
        s.stationary.push(r.get_bit().ok_or(frame("flags truncated"))?);
        s.has_phase.push(r.get_bit().ok_or(frame("flags truncated"))?);
    }
    get_scaled(&mut r, count, SCALE6, &mut s.mean_a).ok_or(frame("mean_a column damaged"))?;
    get_rice_col(&mut r, count, &mut s.idx).ok_or(frame("cpd column damaged"))?;
    for &idx in &s.idx {
        let v = *dicts.cpds.get(idx as usize).ok_or(frame("cpd index out of range"))?;
        s.cpd.push(v);
    }
    get_rice_col(&mut r, count, &mut s.outages).ok_or(frame("outage column damaged"))?;
    for &o in &s.outages {
        if o > u32::MAX as u64 {
            return Err(frame("outage count out of range"));
        }
    }
    get_for(&mut r, count, &mut s.probes).ok_or(frame("probe column damaged"))?;
    s.idx.clear();
    get_rice_col(&mut r, count, &mut s.idx).ok_or(frame("link column damaged"))?;
    for &idx in &s.idx {
        let m = *dicts.masks.get(idx as usize).ok_or(frame("link index out of range"))?;
        s.masks.push(m);
    }
    let phases = s.has_phase.iter().filter(|&&p| p).count();
    get_scaled(&mut r, phases, SCALE6, &mut s.phase).ok_or(frame("phase column damaged"))?;
    for _ in 0..count {
        s.located.push(r.get_bit().ok_or(frame("located column damaged"))?);
    }

    if !seed_joined {
        let located = s.located.iter().filter(|&&l| l).count();
        for _ in 0..located {
            s.centroid.push(r.get_bit().ok_or(frame("centroid column damaged"))?);
        }
        get_scaled(&mut r, located, SCALE6, &mut s.lon).ok_or(frame("lon column damaged"))?;
        get_scaled(&mut r, located, SCALE6, &mut s.lat).ok_or(frame("lat column damaged"))?;
        get_rice_col(&mut r, located, &mut s.country).ok_or(frame("country column damaged"))?;
        for &idx in &s.country {
            if idx as usize >= dicts.countries.len() {
                return Err(frame("country index out of range"));
            }
        }
        get_rice_col(&mut r, count, &mut s.alloc).ok_or(frame("alloc column damaged"))?;
        for &idx in &s.alloc {
            if idx as usize >= dicts.allocs.len() {
                return Err(frame("alloc index out of range"));
            }
        }
        get_for(&mut r, count, &mut s.asn).ok_or(frame("asn column damaged"))?;
        for &a in &s.asn {
            if a > u32::MAX as u64 {
                return Err(frame("asn out of range"));
            }
        }
    }
    if r.bytes_consumed() != payload.len() {
        return Err(frame("payload length mismatch"));
    }
    Ok(())
}

/// Emits every row of the decoded frame in `s` to `f`.
fn emit_rows<'a>(
    dicts: &Dicts<'a>,
    source: Option<&WorldSource>,
    s: &FrameScratch,
    f: &mut impl FnMut(&BinRow<'_>),
) {
    let mut phase_i = 0usize;
    let mut loc_i = 0usize;
    for i in 0..s.ids.len() {
        let phase = if s.has_phase[i] {
            phase_i += 1;
            Some(s.phase[phase_i - 1])
        } else {
            None
        };
        let row = if let Some(source) = source {
            let d = derive(source, s.ids[i]);
            let (lon, lat, country, centroid) = match d.location {
                Some((lon, lat, country, centroid)) => {
                    (Some(lon), Some(lat), Some(country), centroid)
                }
                None => (None, None, None, false),
            };
            BinRow {
                block_id: s.ids[i],
                class: s.class[i],
                phase,
                mean_a: s.mean_a[i],
                strongest_cpd: s.cpd[i],
                stationary: s.stationary[i],
                outages: s.outages[i] as u32,
                probes: s.probes[i],
                lon,
                lat,
                country,
                centroid,
                alloc: AllocDate::Date(d.alloc),
                asn: d.asn,
                link_mask: s.masks[i],
            }
        } else {
            let located = s.located[i];
            let (lon, lat, country, centroid) = if located {
                loc_i += 1;
                let j = loc_i - 1;
                (
                    Some(s.lon[j]),
                    Some(s.lat[j]),
                    Some(dicts.countries[s.country[j] as usize]),
                    s.centroid[j],
                )
            } else {
                (None, None, None, false)
            };
            BinRow {
                block_id: s.ids[i],
                class: s.class[i],
                phase,
                mean_a: s.mean_a[i],
                strongest_cpd: s.cpd[i],
                stationary: s.stationary[i],
                outages: s.outages[i] as u32,
                probes: s.probes[i],
                lon,
                lat,
                country,
                centroid,
                alloc: AllocDate::Text(dicts.allocs[s.alloc[i] as usize]),
                asn: s.asn[i] as u32,
                link_mask: s.masks[i],
            }
        };
        f(&row);
    }
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
                obs.format.records_decoded.add(ds.prelude.record_count);
            }
            Err(_) => obs.format.decode_errors.incr(),
        }
        r
    }

    fn parse_inner(bytes: &'a [u8], world: Option<&WorldConfig>) -> Result<Self, DecodeError> {
        let (prelude, dicts, source, dict_crc, mut pos) = parse_shell(bytes, world)?;
        let header_crc = prelude.header_crc();
        let mut frames = Vec::new();
        let mut decoded = 0u64;
        let mut prev_last: Option<u64> = None;
        let mut scratch = FrameScratch::default();
        let mut stats = DatasetStats::default();
        while decoded < prelude.record_count {
            let idx = frames.len();
            let (count, first_id, payload, next) =
                frame_at(bytes, header_crc, dict_crc, prelude.record_count, decoded, idx, pos)?;
            decode_frame(
                &dicts,
                source.is_some(),
                prelude.identity.num_blocks,
                idx,
                count,
                first_id,
                &bytes[payload.clone()],
                prev_last,
                &mut scratch,
            )?;
            prev_last = scratch.ids.last().copied();
            // The validation pass already decoded every column this
            // aggregate needs, so the stats ride along for free.
            for i in 0..count {
                stats.accumulate(
                    scratch.class[i],
                    scratch.located[i],
                    scratch.outages[i] as u32,
                    scratch.probes[i],
                    scratch.mean_a[i],
                );
            }
            frames.push(FrameMeta { count, first_id, payload });
            decoded += count as u64;
            pos = next;
        }
        if pos != bytes.len() {
            return Err(DecodeError::FrameCorrupt {
                frame: frames.len(),
                detail: "trailing bytes after final frame",
            });
        }
        Ok(BinDataset { bytes, prelude, dicts, source, frames, stats })
    }

    /// Rows the file declares (and parse verified).
    pub fn record_count(&self) -> u64 {
        self.prelude.record_count
    }

    /// The run identity the file carries.
    pub fn identity(&self) -> RunIdentity {
        self.prelude.identity
    }

    /// The container mode byte ([`MODE_SELF`] or [`MODE_SEED_JOINED`]).
    pub fn mode(&self) -> u8 {
        self.prelude.mode
    }

    /// Streams every row to `f` in block-id order, reusing one frame of
    /// scratch for the whole pass — no per-row allocation, strings
    /// borrowed from the file. Structural errors cannot occur after
    /// [`parse`](BinDataset::parse), but the signature keeps them typed.
    pub fn for_each_row(&self, mut f: impl FnMut(&BinRow<'_>)) -> Result<(), DecodeError> {
        let mut scratch = FrameScratch::default();
        let mut prev_last: Option<u64> = None;
        for (idx, meta) in self.frames.iter().enumerate() {
            decode_frame(
                &self.dicts,
                self.source.is_some(),
                self.prelude.identity.num_blocks,
                idx,
                meta.count,
                meta.first_id,
                &self.bytes[meta.payload.clone()],
                prev_last,
                &mut scratch,
            )?;
            prev_last = scratch.ids.last().copied();
            emit_rows(&self.dicts, self.source.as_ref(), &scratch, &mut f);
        }
        Ok(())
    }

    /// Materializes every row as an owned [`DatasetRow`].
    pub fn to_rows(&self) -> Result<Vec<DatasetRow>, DecodeError> {
        let mut rows = Vec::with_capacity(self.prelude.record_count as usize);
        self.for_each_row(|r| rows.push(r.to_row()))?;
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
    let (prelude, dicts, source, dict_crc, mut pos) = match parse_shell(bytes, world) {
        Ok(shell) => shell,
        Err(e) => {
            sleepwatch_obs::global().format.decode_errors.incr();
            return (Vec::new(), Some(e));
        }
    };
    let header_crc = prelude.header_crc();
    let mut rows = Vec::new();
    let mut decoded = 0u64;
    let mut prev_last: Option<u64> = None;
    let mut scratch = FrameScratch::default();
    let mut idx = 0usize;
    while decoded < prelude.record_count {
        let step = frame_at(bytes, header_crc, dict_crc, prelude.record_count, decoded, idx, pos)
            .and_then(|(count, first_id, payload, next)| {
                decode_frame(
                    &dicts,
                    source.is_some(),
                    prelude.identity.num_blocks,
                    idx,
                    count,
                    first_id,
                    &bytes[payload],
                    prev_last,
                    &mut scratch,
                )?;
                Ok((count, next))
            });
        match step {
            Ok((count, next)) => {
                prev_last = scratch.ids.last().copied();
                emit_rows(&dicts, source.as_ref(), &scratch, &mut |r| rows.push(r.to_row()));
                decoded += count as u64;
                pos = next;
                idx += 1;
            }
            Err(e) => {
                sleepwatch_obs::global().format.decode_errors.incr();
                return (rows, Some(e));
            }
        }
    }
    if pos != bytes.len() {
        sleepwatch_obs::global().format.decode_errors.incr();
        let e =
            DecodeError::FrameCorrupt { frame: idx, detail: "trailing bytes after final frame" };
        return (rows, Some(e));
    }
    (rows, None)
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
    /// Folds one row's fields into the aggregate.
    pub fn accumulate(
        &mut self,
        class: DiurnalClass,
        located: bool,
        outages: u32,
        probes: u64,
        mean_a: f64,
    ) {
        self.rows += 1;
        match class {
            DiurnalClass::Strict => self.strict += 1,
            DiurnalClass::Relaxed => self.relaxed += 1,
            DiurnalClass::NonDiurnal => {}
        }
        self.located += located as u64;
        self.outages += outages as u64;
        self.total_probes += probes;
        self.mean_a_sum += mean_a;
    }

    /// Aggregates owned rows (the TSV read path).
    pub fn from_rows(rows: &[DatasetRow]) -> Self {
        let mut s = Self::default();
        for r in rows {
            s.accumulate(r.class, r.country.is_some(), r.outages, r.probes, r.mean_a);
        }
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
        put_scaled(&mut w, &values, SCALE6);
        let bytes = w.into_bytes();
        let mut out = Vec::new();
        get_scaled(&mut BitReader::new(&bytes), values.len(), SCALE6, &mut out).unwrap();
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
        assert_eq!(ds.mode(), MODE_SELF);
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
        assert_eq!(ds.mode(), MODE_SEED_JOINED);
        assert_eq!(ds.identity(), dataset_identity(&cfg));
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
                field: crate::framing::IdentityField::WorldSeed,
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
        let mut bad_links = rows.clone();
        bad_links[0].links = vec!["not-a-keyword".into()];
        assert!(matches!(
            encode_dataset(&bad_links, DatasetMode::SelfContained),
            Err(EncodeError::Unrepresentable { field: "links", .. })
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
            .map(|i| DatasetRow { block_id: i, ..rows[0].clone() })
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
            .map(|i| DatasetRow { block_id: i, ..template[0].clone() })
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
            bytes[crate::framing::PRELUDE_LEN..crate::framing::PRELUDE_LEN + 4].try_into().unwrap(),
        ) as usize;
        crate::framing::PRELUDE_LEN + 8 + dict_len
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
