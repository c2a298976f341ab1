//! Checkpoint journal for world runs: a crash-safe, append-only WAL of
//! completed [`WorldBlockReport`]s.
//!
//! The paper's `A12w` collection ran for 35 days and visibly survived
//! prober restarts; a reproduction at that scale needs the same property.
//! [`crate::analyze_world_resumable`] appends every finished block to a
//! journal file and, on restart, replays it to skip work already done —
//! the resumed run's output is byte-identical to an uninterrupted one.
//!
//! # Format
//!
//! One codec, `SLPWJNL2` (all little-endian, every frame closed by a CRC32
//! over its body): the shared 64-byte [`sleepwatch_framing::Prelude`] plus an
//! embedded dictionary section (country codes and link-class keywords, the
//! same tables [`crate::binfmt`] uses), followed by variable-width records
//! that drop absent fields (phase, location) instead of zero-filling them.
//!
//! ```text
//! header:            prelude (64 B) | dict_len u32 | dict payload | crc32 u32
//! record (41–67 B):  flags u8 | class+region u8 | block_id u32 |
//!                    strongest_cpd f64 | mean_a f64 | probes u32 |
//!                    outages u16 | asn u32 | alloc_year u16 | alloc_month u8 |
//!                    link_mask u16 | [phase f64] |
//!                    [lon f64 | lat f64 | country_idx u16] | crc32 u32
//! ```
//!
//! Floats are raw IEEE-754 bit patterns, so replay reproduces every value
//! exactly. Decoding is *total*: any input — truncated, bit-flipped,
//! garbage — yields `None` rather than a panic, and replay keeps only the
//! longest valid prefix, discarding the damaged suffix. Header validation
//! is shared with [`crate::binfmt`] through [`sleepwatch_framing`]: foreign
//! identities, byte-swapped files and other versions each surface as one
//! consistent [`DecodeError`] kind. Any other member of the `SLPWJNL`
//! magic family (an `SLPWJNL1` or `SLPWJNL3` file, say) is refused with
//! [`DecodeError::UnsupportedVersion`] and left untouched on disk
//! (`sniff_journal`). Appends are batched to the OS and `fsync`'d every
//! `SYNC_EVERY` records and on [`JournalWriter::sync`], bounding how
//! much work a crash can lose.

use crate::binfmt::{class_code, class_from_code};
use crate::worldrun::WorldBlockReport;
use sleepwatch_framing::{check_identity, crc32, sniff_magic, DecodeError, Prelude, RunIdentity};
use sleepwatch_geoecon::{Location, Region, YearMonth, COUNTRIES};
use sleepwatch_linktype::{LinkFeature, LinkSet};
use sleepwatch_obs::Stage;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

/// Records between `fsync` calls (a crash loses at most this many
/// appended-but-unsynced records; replay re-analyzes them).
pub(crate) const SYNC_EVERY: u32 = 64;
/// The one journal format version this build reads and writes.
pub const JOURNAL_VERSION: u16 = 2;

const FILE_MAGIC: u64 = 0x534C_5057_4A4E_4C32; // "SLPWJNL2"
/// The journal magic family: everything but the trailing version digit.
const MAGIC_FAMILY_MASK: u64 = !0xFF;
/// `kind` byte journals carry in the shared prelude.
const KIND_JOURNAL: u8 = 1;

const FLAG_PHASE: u16 = 0x01;
const FLAG_STATIONARY: u16 = 0x02;
const FLAG_LOCATED: u16 = 0x04;
const FLAG_CENTROID: u16 = 0x08;
const FLAG_PLANTED: u16 = 0x10;
const FLAG_REGION: u16 = 0x20;
const FLAG_ALL: u16 = 0x3F;

/// Fixed leading portion of a record, before the optional fields.
const RECORD_V2_FIXED: usize = 37;
/// Smallest possible record (fixed part + CRC).
const RECORD_V2_MIN: usize = RECORD_V2_FIXED + 4;

/// Identity of the run a journal belongs to. Replay refuses to resume
/// from a journal whose header names a different world or analysis
/// configuration — resuming across runs would silently mix datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Seed of the generated world.
    pub world_seed: u64,
    /// Number of blocks in the world.
    pub num_blocks: u64,
    /// Analysis rounds per block.
    pub rounds: u64,
    /// Absolute start time of the observation.
    pub start_time: u64,
}

impl JournalHeader {
    /// The shared-framing view of this header.
    pub(crate) fn identity(&self) -> RunIdentity {
        RunIdentity {
            world_seed: self.world_seed,
            num_blocks: self.num_blocks,
            rounds: self.rounds,
            start_time: self.start_time,
        }
    }

    /// Rebuilds a header from its shared-framing view.
    pub fn from_identity(id: &RunIdentity) -> Self {
        JournalHeader {
            world_seed: id.world_seed,
            num_blocks: id.num_blocks,
            rounds: id.rounds,
            start_time: id.start_time,
        }
    }
}

/// Errors from opening or resuming a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The file holds a valid journal for a *different* run.
    HeaderMismatch {
        /// Header the caller's run would write.
        expected: JournalHeader,
        /// Header found in the file.
        found: JournalHeader,
        /// The first field that disagreed, as the shared decode error.
        mismatch: DecodeError,
    },
    /// The file is a journal this build cannot continue: byte-swapped,
    /// another format version, or carrying an incompatible dictionary.
    Incompatible(DecodeError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::HeaderMismatch { expected, found, .. } => write!(
                f,
                "journal belongs to a different run (found {found:?}, expected {expected:?})"
            ),
            JournalError::Incompatible(e) => write!(f, "incompatible journal: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// The dictionary payload every journal embeds: the country-code table
/// and the link-class keyword table, in their compiled order. Shared with
/// the compact dataset container so both formats resolve indices through
/// the same tables.
fn static_dict_payload() -> Vec<u8> {
    let mut payload = Vec::new();
    sleepwatch_framing::put_string_table(&mut payload, COUNTRIES.iter().map(|c| c.code));
    sleepwatch_framing::put_string_table(
        &mut payload,
        LinkFeature::ALL.iter().map(|f| f.keyword()),
    );
    payload
}

/// Encodes the header: the shared prelude plus the embedded dictionary
/// section.
pub fn encode_header_v2(h: &JournalHeader) -> Vec<u8> {
    let prelude = Prelude {
        magic: FILE_MAGIC,
        version: JOURNAL_VERSION,
        kind: KIND_JOURNAL,
        mode: 0,
        identity: h.identity(),
        // Journals are append-only; their record count is implied by file
        // length, so the prelude's count stays 0.
        record_count: 0,
    };
    let mut out = prelude.encode().to_vec();
    let payload = static_dict_payload();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Parses and fully validates a header, returning the run identity and
/// the header's byte length.
pub fn decode_header_v2(bytes: &[u8]) -> Result<(JournalHeader, usize), DecodeError> {
    let prelude = Prelude::decode(bytes)?;
    prelude.require(FILE_MAGIC, JOURNAL_VERSION, KIND_JOURNAL)?;
    if prelude.mode != 0 {
        return Err(DecodeError::BadMode { found: prelude.mode });
    }
    let rest = &bytes[sleepwatch_framing::PRELUDE_LEN..];
    if rest.len() < 4 {
        return Err(DecodeError::DictCorrupt { detail: "dictionary length missing" });
    }
    let len = le_u32(&rest[0..4]) as usize;
    let Some(payload) = rest.get(4..4 + len) else {
        return Err(DecodeError::DictCorrupt { detail: "dictionary truncated" });
    };
    let Some(crc) = rest.get(4 + len..4 + len + 4) else {
        return Err(DecodeError::DictCorrupt { detail: "dictionary checksum missing" });
    };
    if crc32(payload) != le_u32(crc) {
        return Err(DecodeError::DictCorrupt { detail: "dictionary checksum mismatch" });
    }
    if payload != static_dict_payload().as_slice() {
        return Err(DecodeError::DictMismatch { table: "journal" });
    }
    let header_len = sleepwatch_framing::PRELUDE_LEN + 4 + len + 4;
    Ok((JournalHeader::from_identity(&prelude.identity), header_len))
}

/// Byte length of the record a report with these optional fields
/// occupies.
fn record_v2_len(has_phase: bool, located: bool) -> usize {
    RECORD_V2_MIN + if has_phase { 8 } else { 0 } + if located { 18 } else { 0 }
}

/// Encodes one completed block as a record. `None` when the report
/// does not fit the frame (block id or probe count beyond 32 bits,
/// outages beyond 16, or a country absent from the table) — such blocks
/// are simply not journaled and are re-analyzed on resume.
pub fn encode_record_v2(r: &WorldBlockReport) -> Option<Vec<u8>> {
    let id = u32::try_from(r.summary.block_id).ok()?;
    let probes = u32::try_from(r.summary.total_probes).ok()?;
    let outages = u16::try_from(r.summary.outages).ok()?;
    let mut flags = 0u16;
    let mut cr = class_code(r.summary.class) as u8;
    if let Some(region) = r.region {
        flags |= FLAG_REGION;
        cr |= (Region::ALL.iter().position(|&x| x == region)? as u8) << 2;
    }
    if r.summary.stationary {
        flags |= FLAG_STATIONARY;
    }
    if r.planted_diurnal {
        flags |= FLAG_PLANTED;
    }
    if r.summary.phase.is_some() {
        flags |= FLAG_PHASE;
    }
    let country_idx = match r.location {
        Some(loc) => {
            flags |= FLAG_LOCATED;
            if loc.centroid_fallback {
                flags |= FLAG_CENTROID;
            }
            Some(u16::try_from(COUNTRIES.iter().position(|c| c.code == loc.country)?).ok()?)
        }
        None => None,
    };
    let mut buf =
        Vec::with_capacity(record_v2_len(r.summary.phase.is_some(), r.location.is_some()));
    buf.push(flags as u8);
    buf.push(cr);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&r.summary.strongest_cpd.to_bits().to_le_bytes());
    buf.extend_from_slice(&r.summary.mean_a.to_bits().to_le_bytes());
    buf.extend_from_slice(&probes.to_le_bytes());
    buf.extend_from_slice(&outages.to_le_bytes());
    buf.extend_from_slice(&r.asn.to_le_bytes());
    buf.extend_from_slice(&r.alloc_date.year.to_le_bytes());
    buf.push(r.alloc_date.month);
    buf.extend_from_slice(&r.link_features.bits().to_le_bytes());
    debug_assert_eq!(buf.len(), RECORD_V2_FIXED);
    if let Some(phase) = r.summary.phase {
        buf.extend_from_slice(&phase.to_bits().to_le_bytes());
    }
    if let Some(loc) = r.location {
        buf.extend_from_slice(&loc.lon.to_bits().to_le_bytes());
        buf.extend_from_slice(&loc.lat.to_bits().to_le_bytes());
        buf.extend_from_slice(&country_idx.expect("set with location").to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Some(buf)
}

/// Decodes one record from the front of `bytes`, returning the report
/// and the frame's byte length. Total: `None` on any damage, truncation
/// or cross-field inconsistency.
pub fn decode_record_v2(bytes: &[u8]) -> Option<(WorldBlockReport, usize)> {
    if bytes.len() < RECORD_V2_MIN {
        return None;
    }
    let flags = bytes[0] as u16;
    if flags & !FLAG_ALL != 0 {
        return None;
    }
    let len = record_v2_len(flags & FLAG_PHASE != 0, flags & FLAG_LOCATED != 0);
    if bytes.len() < len {
        return None;
    }
    let b = &bytes[..len];
    if crc32(&b[..len - 4]) != le_u32(&b[len - 4..]) {
        return None;
    }
    let cr = b[1];
    if cr >> 6 != 0 {
        return None;
    }
    let class = class_from_code(u64::from(cr & 0x3))?;
    let region_idx = (cr >> 2) & 0xF;
    let region = if flags & FLAG_REGION != 0 {
        Some(*Region::ALL.get(region_idx as usize)?)
    } else {
        if region_idx != 0 {
            return None;
        }
        None
    };
    if flags & FLAG_CENTROID != 0 && flags & FLAG_LOCATED == 0 {
        return None;
    }
    let month = b[34];
    if !(1..=12).contains(&month) {
        return None;
    }
    let mut at = RECORD_V2_FIXED;
    let phase = if flags & FLAG_PHASE != 0 {
        let v = f64::from_bits(le_u64(&b[at..at + 8]));
        at += 8;
        Some(v)
    } else {
        None
    };
    let location = if flags & FLAG_LOCATED != 0 {
        let lon = f64::from_bits(le_u64(&b[at..at + 8]));
        let lat = f64::from_bits(le_u64(&b[at + 8..at + 16]));
        let idx = le_u16(&b[at + 16..at + 18]) as usize;
        Some(Location {
            lon,
            lat,
            country: COUNTRIES.get(idx)?.code,
            centroid_fallback: flags & FLAG_CENTROID != 0,
        })
    } else {
        None
    };
    let report = WorldBlockReport {
        summary: crate::analyze::BlockSummary {
            block_id: le_u32(&b[2..6]) as u64,
            class,
            phase,
            strongest_cpd: f64::from_bits(le_u64(&b[6..14])),
            mean_a: f64::from_bits(le_u64(&b[14..22])),
            stationary: flags & FLAG_STATIONARY != 0,
            outages: le_u16(&b[26..28]) as u32,
            total_probes: le_u32(&b[22..26]) as u64,
        },
        location,
        region,
        alloc_date: YearMonth::new(le_u16(&b[32..34]), month),
        link_features: LinkSet::from_bits(le_u16(&b[35..37])),
        asn: le_u32(&b[28..32]),
        planted_diurnal: flags & FLAG_PLANTED != 0,
    };
    Some((report, len))
}

/// Outcome of replaying a journal file's bytes.
#[derive(Debug)]
pub enum ReplayOutcome {
    /// No usable prefix (empty file, or damage starting in the header):
    /// the journal must be rewritten from scratch.
    Fresh {
        /// Whole-or-partial record frames dropped with the damage
        /// (counted in minimum-record units, so an upper bound).
        discarded: u64,
    },
    /// A valid prefix was recovered.
    Resumed {
        /// Every block report in the valid prefix, in append order.
        reports: Vec<WorldBlockReport>,
        /// Byte length of the valid prefix (header + intact records);
        /// the file should be truncated here before appending resumes.
        valid_len: u64,
        /// Damaged or partial trailing frames discarded.
        discarded: u64,
    },
    /// The header is intact but names a different run.
    HeaderMismatch {
        /// Header found in the file.
        found: JournalHeader,
    },
}

/// Whether a [`DecodeError`] means "a real file from an incompatible
/// writer" (refuse) rather than "corruption" (heal by rewriting).
fn is_incompatible(e: &DecodeError) -> bool {
    matches!(
        e,
        DecodeError::EndianMismatch
            | DecodeError::UnsupportedVersion { .. }
            | DecodeError::BadMagic { .. }
            | DecodeError::BadKind { .. }
            | DecodeError::BadMode { .. }
            | DecodeError::DictMismatch { .. }
    )
}

/// Replays journal `bytes` against the run identity `expect`. Total —
/// never panics, whatever the input. Returns `Err` only for files this
/// build must refuse (byte-swapped, another version, foreign dictionary);
/// corruption — a damaged prelude or dictionary — degrades to
/// [`ReplayOutcome::Fresh`]. Replay stops at the first damaged frame and
/// reports everything before it.
pub fn replay_bytes_v2(bytes: &[u8], expect: &JournalHeader) -> Result<ReplayOutcome, DecodeError> {
    let frames = |len: usize| len.div_ceil(RECORD_V2_MIN) as u64;
    if bytes.is_empty() {
        return Ok(ReplayOutcome::Fresh { discarded: 0 });
    }
    let (header, header_len) = match decode_header_v2(bytes) {
        Ok(h) => h,
        Err(e) if is_incompatible(&e) => return Err(e),
        Err(_) => return Ok(ReplayOutcome::Fresh { discarded: frames(bytes.len()) }),
    };
    if header != *expect {
        return Ok(ReplayOutcome::HeaderMismatch { found: header });
    }
    let mut reports = Vec::new();
    let mut offset = header_len;
    while let Some((r, len)) = decode_record_v2(&bytes[offset..]) {
        reports.push(r);
        offset += len;
    }
    Ok(ReplayOutcome::Resumed {
        reports,
        valid_len: offset as u64,
        discarded: frames(bytes.len() - offset),
    })
}

/// Classifies `bytes` by their leading magic — the one place the "is this
/// a journal this build reads" decision lives. `Ok(true)`: an `SLPWJNL2`
/// journal, replay it. `Ok(false)`: no journal at all (garbage, short or
/// empty). `Err`: a member of the journal magic family that must be
/// refused untouched — byte-swapped ([`DecodeError::EndianMismatch`]) or
/// carrying any other version digit ([`DecodeError::UnsupportedVersion`]).
pub(crate) fn sniff_journal(bytes: &[u8]) -> Result<bool, DecodeError> {
    const FAMILY: u64 = FILE_MAGIC & MAGIC_FAMILY_MASK;
    match sniff_magic(bytes) {
        Some(FILE_MAGIC) => Ok(true),
        Some(m) if m.swap_bytes() & MAGIC_FAMILY_MASK == FAMILY => Err(DecodeError::EndianMismatch),
        Some(m) if m & MAGIC_FAMILY_MASK == FAMILY => {
            let digit = (m & 0xFF) as u8;
            let found = if digit.is_ascii_digit() { (digit - b'0') as u16 } else { digit as u16 };
            Err(DecodeError::UnsupportedVersion { found, supported: JOURNAL_VERSION })
        }
        _ => Ok(false),
    }
}

/// Byte offsets of the record boundaries in a journal's valid prefix:
/// element 0 is the end of the header (start of the first record),
/// element `i + 1` the end of record `i`. Empty when the header is
/// unusable. Meant for tools and tests that need to sever or patch a
/// journal at precise frame boundaries without hard-coding a record
/// width.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let Ok((_, header_len)) = decode_header_v2(bytes) else {
        return Vec::new();
    };
    let mut out = vec![header_len];
    let mut offset = header_len;
    while let Some((_, len)) = decode_record_v2(&bytes[offset..]) {
        offset += len;
        out.push(offset);
    }
    out
}

/// Where a [`JournalWriter`] puts its bytes: the two calls it makes on a
/// [`File`], behind a trait so a test can substitute a sink that fails on
/// cue.
trait RecordSink: std::fmt::Debug + Send {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    fn sync_data(&mut self) -> io::Result<()>;
}

impl RecordSink for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// Append handle for a journal file positioned at the end of its valid
/// prefix. Records are `fsync`'d every `SYNC_EVERY` appends and on
/// [`sync`](Self::sync).
#[derive(Debug)]
pub struct JournalWriter {
    sink: Box<dyn RecordSink>,
    unsynced: u32,
}

impl JournalWriter {
    /// Appends one completed block. Returns `Ok(false)` when the report
    /// cannot be represented in the frame (the block is skipped, not
    /// corrupted — see [`encode_record_v2`]).
    /// Each appended record is one `stage.checkpoint` sample.
    pub fn append(&mut self, report: &WorldBlockReport) -> io::Result<bool> {
        let obs = sleepwatch_obs::global();
        let hist = obs.pipeline.stage(Stage::Checkpoint);
        let start = hist.enabled().then(Instant::now);
        let Some(frame) = encode_record_v2(report) else {
            return Ok(false);
        };
        self.sink.write_all(&frame)?;
        self.unsynced += 1;
        if self.unsynced >= SYNC_EVERY {
            self.sink.sync_data()?;
            self.unsynced = 0;
        }
        if let Some(t0) = start {
            hist.record(t0.elapsed().as_secs_f64() * 1e6);
        }
        obs.resilience.journal_records_written.incr();
        Ok(true)
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.sink.sync_data()
    }
}

/// One line on stderr per checkpoint fault.
fn diagnose(what: &str, e: &io::Error) {
    eprintln!("[journal] {what}: {e}");
    #[cfg(test)]
    tests::DIAGNOSTICS.with(|d| d.set(d.get() + 1));
}

/// The checkpoint policy of every engine that journals finished blocks:
/// append each report; on the first write error say so once and stop
/// journaling — a full disk degrades checkpointing, it never kills the
/// run — and sync once more at the end. Which lock it sits behind is the
/// engine's business. The default journals nothing.
#[derive(Debug, Default)]
pub(crate) struct Checkpoint {
    writer: Option<JournalWriter>,
    appended: u64,
}

impl Checkpoint {
    /// A policy journaling through `writer`.
    pub(crate) fn new(writer: JournalWriter) -> Checkpoint {
        Checkpoint { writer: Some(writer), appended: 0 }
    }

    /// Records one finished block; `true` when it was appended.
    pub(crate) fn record(&mut self, report: &WorldBlockReport) -> bool {
        let appended = match self.writer.as_mut().map(|w| w.append(report)) {
            None => false,
            Some(Ok(appended)) => appended,
            Some(Err(e)) => {
                diagnose("write failed, journaling disabled", &e);
                self.writer = None;
                false
            }
        };
        self.appended += u64::from(appended);
        appended
    }

    /// The final sync. Returns the durable checkpoints the run reached:
    /// one per [`SYNC_EVERY`] appended records, plus one when this sync
    /// succeeded.
    pub(crate) fn finish(&mut self) -> u64 {
        let reached = self.appended / u64::from(SYNC_EVERY);
        match self.writer.take().map(|mut w| w.sync()) {
            Some(Ok(())) => reached + 1,
            Some(Err(e)) => {
                diagnose("final sync failed", &e);
                reached
            }
            None => reached,
        }
    }
}

/// Replay statistics from [`open_resume`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records recovered from the journal.
    pub replayed: u64,
    /// Damaged or partial trailing frames discarded.
    pub discarded: u64,
}

/// Opens (or creates) the journal at `path` for the run identified by
/// `header`: replays any existing contents, truncates away a damaged
/// tail, and returns a writer positioned for appending plus the recovered
/// reports.
///
/// Errors only on IO failure, a well-formed header from a different run,
/// or a file this build must refuse outright (byte-swapped, another
/// format version, foreign dictionary) — a refused file is left
/// byte-for-byte as it was. Corruption never errors, it only shrinks the
/// prefix.
pub fn open_resume(
    path: &Path,
    header: &JournalHeader,
) -> Result<(JournalWriter, Vec<WorldBlockReport>, ReplayStats), JournalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let outcome = if sniff_journal(&bytes).map_err(JournalError::Incompatible)? {
        replay_bytes_v2(&bytes, header).map_err(JournalError::Incompatible)?
    } else {
        // Garbage (or a short/empty file): rewrite from scratch.
        ReplayOutcome::Fresh { discarded: bytes.len().div_ceil(RECORD_V2_MIN) as u64 }
    };
    let (reports, valid_len, discarded) = match outcome {
        ReplayOutcome::HeaderMismatch { found } => {
            let mismatch = check_identity(&header.identity(), &found.identity())
                .expect_err("mismatching headers must differ in an identity field");
            return Err(JournalError::HeaderMismatch { expected: *header, found, mismatch });
        }
        ReplayOutcome::Fresh { discarded } => (Vec::new(), 0u64, discarded),
        ReplayOutcome::Resumed { reports, valid_len, discarded } => (reports, valid_len, discarded),
    };
    let stats = ReplayStats { replayed: reports.len() as u64, discarded };
    let mut file =
        OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
    if valid_len == 0 {
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        Write::write_all(&mut file, &encode_header_v2(header))?;
    } else {
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
    }
    file.sync_data()?;
    let obs = sleepwatch_obs::global();
    obs.resilience.journal_records_replayed.add(stats.replayed);
    obs.resilience.journal_records_discarded.add(stats.discarded);
    Ok((JournalWriter { sink: Box::new(file), unsynced: 0 }, reports, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::BlockSummary;
    use sleepwatch_geoecon::by_code;
    use sleepwatch_spectral::DiurnalClass;

    fn sample_report(id: u64) -> WorldBlockReport {
        WorldBlockReport {
            summary: BlockSummary {
                block_id: id,
                class: DiurnalClass::Strict,
                phase: Some(1.25),
                strongest_cpd: 1.0,
                mean_a: 0.625,
                stationary: true,
                outages: 3,
                total_probes: 4_321,
            },
            location: Some(Location {
                lon: 103.8,
                lat: 1.35,
                country: by_code("SG").unwrap().code,
                centroid_fallback: false,
            }),
            region: Some(Region::ALL[4]),
            alloc_date: YearMonth::new(1998, 7),
            link_features: LinkSet::from_iter([LinkFeature::ALL[0], LinkFeature::ALL[9]]),
            asn: 64_500,
            planted_diurnal: true,
        }
    }

    fn header() -> JournalHeader {
        JournalHeader { world_seed: 21, num_blocks: 60, rounds: 523, start_time: 1_000 }
    }

    fn assert_roundtrip(r: &WorldBlockReport) {
        let frame = encode_record_v2(r).expect("encodable");
        let (back, len) = decode_record_v2(&frame).expect("decodable");
        assert_eq!(len, frame.len());
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
    }

    #[test]
    fn record_roundtrips_exactly() {
        assert_roundtrip(&sample_report(7));
        // Unlocated, region-less, featureless, phaseless.
        let mut r = sample_report(8);
        r.location = None;
        r.region = None;
        r.summary.phase = None;
        r.link_features = LinkSet::default();
        r.summary.stationary = false;
        r.planted_diurnal = false;
        assert_roundtrip(&r);
    }

    #[test]
    fn header_v2_roundtrips_and_rejects_damage() {
        let h = header();
        let buf = encode_header_v2(&h);
        let (back, len) = decode_header_v2(&buf).expect("own header decodes");
        assert_eq!(back, h);
        assert_eq!(len, buf.len());
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(decode_header_v2(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_v2_record_is_caught() {
        let mut minimal = sample_report(9);
        minimal.summary.phase = None;
        minimal.location = None;
        for r in [sample_report(3), minimal] {
            let frame = encode_record_v2(&r).unwrap();
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(decode_record_v2(&bad).is_none(), "bit flip {bit} undetected");
            }
        }
    }

    #[test]
    fn record_width_follows_the_optional_fields() {
        let full = encode_record_v2(&sample_report(1)).unwrap();
        assert_eq!(full.len(), RECORD_V2_MIN + 8 + 18, "phase and location present");
        let mut bare = sample_report(2);
        bare.summary.phase = None;
        bare.location = None;
        assert_eq!(encode_record_v2(&bare).unwrap().len(), RECORD_V2_MIN);
    }

    #[test]
    fn replay_v2_keeps_valid_prefix_and_discards_damaged_tail() {
        let h = header();
        let mut bytes = encode_header_v2(&h);
        let rec_len = encode_record_v2(&sample_report(0)).unwrap().len();
        for id in 0..5 {
            bytes.extend_from_slice(&encode_record_v2(&sample_report(id)).unwrap());
        }
        let header_len = bytes.len() - 5 * rec_len;
        // Corrupt record 3 and truncate record 4 in half.
        bytes[header_len + 3 * rec_len + 10] ^= 0xFF;
        bytes.truncate(header_len + 4 * rec_len + rec_len / 2);
        match replay_bytes_v2(&bytes, &h).expect("compatible") {
            ReplayOutcome::Resumed { reports, valid_len, .. } => {
                assert_eq!(reports.len(), 3);
                assert_eq!(valid_len as usize, header_len + 3 * rec_len);
            }
            other => panic!("expected resume, got {other:?}"),
        }
        // Boundaries agree with the replay walk.
        let bounds = record_boundaries(&bytes);
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0], header_len);
        assert_eq!(bounds[3], header_len + 3 * rec_len);
    }

    #[test]
    fn replay_flags_foreign_headers() {
        let other = JournalHeader { world_seed: 99, ..header() };
        let bytes = encode_header_v2(&other);
        assert!(matches!(
            replay_bytes_v2(&bytes, &header()).expect("compatible"),
            ReplayOutcome::HeaderMismatch { found } if found == other
        ));
    }

    #[test]
    fn replay_of_empty_or_damaged_headers_is_fresh() {
        assert!(matches!(
            replay_bytes_v2(&[], &header()),
            Ok(ReplayOutcome::Fresh { discarded: 0 })
        ));
        // A flipped identity byte fails the prelude CRC: corruption, not a
        // refusal, so the journal is rewritten.
        let mut damaged = encode_header_v2(&header());
        damaged[20] ^= 0x01;
        assert!(matches!(
            replay_bytes_v2(&damaged, &header()),
            Ok(ReplayOutcome::Fresh { discarded }) if discarded > 0
        ));
    }

    thread_local! {
        /// Checkpoint diagnostics printed on this test's thread.
        pub(super) static DIAGNOSTICS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A sink that keeps every byte that reaches it and fails on cue: a
    /// `write_all` crossing `write_budget` lands torn at the budget, and
    /// `sync_data` fails once `syncs_left` is spent.
    #[derive(Debug)]
    struct FaultySink {
        bytes: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        write_budget: usize,
        syncs_left: u32,
    }

    impl RecordSink for FaultySink {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            let mut bytes = self.bytes.lock().unwrap();
            let room = self.write_budget.saturating_sub(bytes.len());
            bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            if buf.len() > room {
                return Err(io::Error::other("no space left on device"));
            }
            Ok(())
        }

        fn sync_data(&mut self) -> io::Result<()> {
            match self.syncs_left.checked_sub(1) {
                Some(left) => self.syncs_left = left,
                None => return Err(io::Error::other("fsync failed")),
            }
            Ok(())
        }
    }

    /// What one faulted checkpoint run did, for the three write-fault tests.
    struct Faulted {
        /// Ids `Checkpoint::record` reported as appended, in order.
        acknowledged: Vec<u64>,
        /// Ids the sink's bytes replay to, in order.
        replayed: Vec<u64>,
        checkpoints: u64,
        diagnostics: u32,
    }

    /// Drives the checkpoint policy over `offered` reports (ids `0..offered`)
    /// into a sink that accepts `write_budget` record bytes and `syncs`
    /// syncs, finishes, offers one more report, and replays what reached
    /// the sink.
    fn checkpoint_through_faults(offered: u64, write_budget: usize, syncs: u32) -> Faulted {
        let h = header();
        let bytes = std::sync::Arc::new(std::sync::Mutex::new(encode_header_v2(&h)));
        let sink = FaultySink {
            bytes: bytes.clone(),
            write_budget: bytes.lock().unwrap().len() + write_budget,
            syncs_left: syncs,
        };
        DIAGNOSTICS.with(|d| d.set(0));
        let mut checkpoint = Checkpoint::new(JournalWriter { sink: Box::new(sink), unsynced: 0 });
        let acknowledged: Vec<u64> =
            (0..offered).filter(|&id| checkpoint.record(&sample_report(id))).collect();
        let checkpoints = checkpoint.finish();
        // Nothing is journaled past the final sync, whether it succeeded or not.
        assert!(!checkpoint.record(&sample_report(offered)));
        let bytes = bytes.lock().unwrap();
        let replayed = match replay_bytes_v2(&bytes, &h).expect("compatible") {
            ReplayOutcome::Resumed { reports, .. } => reports,
            other => panic!("expected resume, got {other:?}"),
        };
        for r in &replayed {
            let offered = sample_report(r.summary.block_id);
            assert_eq!(format!("{r:?}"), format!("{offered:?}"), "a record was misread");
        }
        Faulted {
            acknowledged,
            replayed: replayed.iter().map(|r| r.summary.block_id).collect(),
            checkpoints,
            diagnostics: DIAGNOSTICS.with(|d| d.get()),
        }
    }

    #[test]
    fn a_write_torn_mid_record_stops_journaling_once() {
        let rec_len = encode_record_v2(&sample_report(0)).unwrap().len();
        // Ten whole records fit; the eleventh tears 17 bytes in.
        let run = checkpoint_through_faults(20, 10 * rec_len + 17, u32::MAX);
        assert_eq!(run.acknowledged, (0..10).collect::<Vec<u64>>(), "later records not appended");
        assert_eq!(run.replayed, run.acknowledged, "the torn tail is discarded");
        assert_eq!(run.diagnostics, 1);
        assert_eq!(run.checkpoints, 0, "a stopped journal reaches no final checkpoint");
    }

    #[test]
    fn a_failed_periodic_sync_stops_journaling_once() {
        let n = u64::from(SYNC_EVERY);
        let run = checkpoint_through_faults(2 * n, usize::MAX / 2, 0);
        // The record whose sync failed is not acknowledged, though its
        // bytes reached the sink whole; nothing after it is written.
        assert_eq!(run.acknowledged, (0..n - 1).collect::<Vec<u64>>());
        assert_eq!(run.replayed, (0..n).collect::<Vec<u64>>());
        assert_eq!(run.diagnostics, 1);
        assert_eq!(run.checkpoints, 0);
    }

    #[test]
    fn a_failed_final_sync_is_reported_once_and_not_counted() {
        let n = u64::from(SYNC_EVERY) + 6;
        let run = checkpoint_through_faults(n, usize::MAX / 2, 1);
        assert_eq!(run.acknowledged, (0..n).collect::<Vec<u64>>());
        assert_eq!(run.replayed, run.acknowledged);
        assert_eq!(run.diagnostics, 1);
        assert_eq!(run.checkpoints, 1, "the periodic sync counts, the failed final one does not");
    }

    #[test]
    fn open_resume_creates_replays_and_truncates() {
        let dir = std::env::temp_dir().join(format!("swjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.journal");
        let _ = std::fs::remove_file(&path);
        let h = header();
        {
            let (mut w, reports, stats) = open_resume(&path, &h).unwrap();
            assert!(reports.is_empty());
            assert_eq!(stats, ReplayStats::default());
            for id in 0..4 {
                assert!(w.append(&sample_report(id)).unwrap());
            }
            w.sync().unwrap();
        }
        // Sever mid-record and resume.
        let full = std::fs::read(&path).unwrap();
        let bounds = record_boundaries(&full);
        assert_eq!(bounds.len(), 5, "header + 4 records");
        assert_eq!(*bounds.last().unwrap(), full.len());
        let cut = bounds[3] + (bounds[4] - bounds[3]) / 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_w, reports, stats) = open_resume(&path, &h).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(stats.replayed, 3);
        assert!(stats.discarded >= 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bounds[3] as u64);
        // A different run must refuse the file.
        let foreign = JournalHeader { rounds: 1, ..h };
        assert!(matches!(open_resume(&path, &foreign), Err(JournalError::HeaderMismatch { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_resume_refuses_v1_files() {
        let dir = std::env::temp_dir().join(format!("swjournal-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.journal");
        // A version-1 magic ahead of arbitrary bytes.
        let mut bytes = ((FILE_MAGIC & MAGIC_FAMILY_MASK) | b'1' as u64).to_le_bytes().to_vec();
        bytes.extend((0..124u8).map(|i| i.wrapping_mul(37)));
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            open_resume(&path, &header()),
            Err(JournalError::Incompatible(DecodeError::UnsupportedVersion {
                found: 1,
                supported: JOURNAL_VERSION
            }))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused journal is never rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_resume_refuses_incompatible_files() {
        let dir = std::env::temp_dir().join(format!("swjournal-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let h = header();
        // Byte-swapped magic: a big-endian writer.
        let swapped = dir.join("swapped.journal");
        let mut bytes = encode_header_v2(&h);
        bytes[0..8].reverse();
        std::fs::write(&swapped, &bytes).unwrap();
        assert!(matches!(
            open_resume(&swapped, &h),
            Err(JournalError::Incompatible(DecodeError::EndianMismatch))
        ));
        // Future version digit in the magic family.
        let future = dir.join("future.journal");
        let magic3 = (FILE_MAGIC & MAGIC_FAMILY_MASK) | b'3' as u64;
        let mut bytes = magic3.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&future, &bytes).unwrap();
        assert!(matches!(
            open_resume(&future, &h),
            Err(JournalError::Incompatible(DecodeError::UnsupportedVersion {
                found: 3,
                supported: JOURNAL_VERSION
            }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
