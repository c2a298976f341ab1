//! Shared binary-framing primitives for the on-disk and wire formats.
//!
//! Every versioned byte format in the workspace — the checkpoint
//! journal (`sleepwatch_core::journal`), the compact dataset container
//! (`sleepwatch_core::binfmt`), and the `SLPWFEED` wire transport
//! (`sleepwatch_probing::transport`) — is built from the same small
//! toolbox:
//!
//! * the CRC32 (IEEE 802.3) used to close every frame, incremental so a
//!   frame checksum can be chained to the file it belongs to, and sliced
//!   eight bytes per step (eight compile-time tables, safe Rust), on four
//!   independent chains for inputs of 512 B or more, because every wire,
//!   journal and dataset byte passes through it on both the writing and
//!   the reading side;
//! * a 64-byte little-endian *prelude* (magic, version, endianness tag,
//!   kind/mode, run identity, record count, header CRC) shared by every
//!   versioned header, so one validator produces one consistent
//!   [`DecodeError`] for magic/version/endianness/identity mismatches
//!   no matter which format hit them;
//! * LSB-first bit packing plus Rice/Golomb coding with a bounded escape,
//!   used by the compact container's columnar frames.
//!
//! Decoding here is *total*: every reader returns a typed error (or
//! `None` at the bit level) on any malformed input, never panics, and
//! never reads past the supplied slice.
//!
//! This crate sits at the bottom of the dependency stack (std only) so
//! the probing-layer transport and the core-layer persistence formats
//! can share one prelude and one error taxonomy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt;

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

// CRC32 (IEEE 802.3, reflected polynomial 0xEDB8_8320), sliced eight
// bytes at a time; tables built at compile time. `CRC_TABLES[0]` is the
// classic byte-at-a-time table; `CRC_TABLES[k][i]` is the CRC state
// after byte `i` followed by `k` zero bytes, so eight look-ups that do
// not depend on each other advance the state by eight bytes.
//
// One chain is latency-bound: each step's look-ups wait on the state the
// previous step produced. An input of 512 B or more is therefore cut into
// four quarters of `q` bytes (a multiple of eight) and a tail of fewer
// than 32, and the quarters run as four chains in one loop, the first
// from the current state and the other three from zero. The CRC is linear
// over GF(2), so appending `q` bytes to a state multiplies it by
// `x^(8q) mod P` and adds the CRC of those bytes from zero; the four
// states fold as `((a·X ⊕ b)·X ⊕ c)·X ⊕ d` with `X = x^(8q) mod P` (the
// identity behind zlib's `crc32_combine`), and the tail finishes on one
// chain. Below 512 B the fold's fixed cost outweighs the overlap.
const CRC_POLY: u32 = 0xEDB8_8320;

static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Smallest quarter, in bytes, worth four chains and a fold: inputs of
/// 512 B or more.
const FOUR_CHAIN_MIN_QUARTER: usize = 128;

/// `a·b mod P` over GF(2), both in the reflected representation (bit 31
/// is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let (mut a, mut product) = (a, 0u32);
    while a != 0 {
        product ^= b & ((a as i32) >> 31) as u32;
        a <<= 1;
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
    }
    product
}

/// `X2N[k] = x^(2^k) mod P`, reflected. 64 entries cover any `x^(8n)` a
/// slice length can ask for.
static X2N: [u32; 64] = {
    let mut table = [0u32; 64];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 64 {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8n) mod P`, reflected: the operator that appends `n` zero bytes to
/// a CRC state.
fn x8n(n: usize) -> u32 {
    let (mut n, mut k, mut x) = (n, 3, 1u32 << 31);
    while n != 0 {
        if n & 1 != 0 {
            x = mul_mod_p(X2N[k], x);
        }
        n >>= 1;
        k += 1;
    }
    x
}

/// Advances `state` over the eight bytes of `w`.
#[inline(always)]
fn crc_step8(state: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][(lo >> 8 & 0xFF) as usize]
        ^ t[5][(lo >> 16 & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][(hi >> 8 & 0xFF) as usize]
        ^ t[1][(hi >> 16 & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Advances `state` over `bytes` on one chain: eight bytes per step, then
/// a byte at a time.
fn crc_one_chain(mut state: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        state = crc_step8(state, w);
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Incremental CRC32 (IEEE): feed any number of slices, then
/// [`finish`](Crc32::finish). `Crc32::new().update(b).finish()` equals
/// [`crc32`]`(b)` exactly.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum: on four chains folded into one
    /// when `bytes` holds 512 B or more, on one chain otherwise.
    pub fn update(&mut self, bytes: &[u8]) {
        let q = (bytes.len() / 4) & !7;
        if q < FOUR_CHAIN_MIN_QUARTER {
            self.state = crc_one_chain(self.state, bytes);
            return;
        }
        let (a, rest) = bytes.split_at(q);
        let (b, rest) = rest.split_at(q);
        let (c, rest) = rest.split_at(q);
        let (d, tail) = rest.split_at(q);
        let (mut sa, mut sb, mut sc, mut sd) = (self.state, 0, 0, 0);
        let quarters = a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8));
        for (((wa, wb), wc), wd) in quarters.zip(d.chunks_exact(8)) {
            sa = crc_step8(sa, wa);
            sb = crc_step8(sb, wb);
            sc = crc_step8(sc, wc);
            sd = crc_step8(sd, wd);
        }
        let x = x8n(q);
        let folded = mul_mod_p(x, mul_mod_p(x, mul_mod_p(x, sa) ^ sb) ^ sc) ^ sd;
        self.state = crc_one_chain(folded, tail);
    }

    /// The checksum over everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// Which run-identity field disagreed between a file and the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentityField {
    /// Seed of the generated world.
    WorldSeed,
    /// Number of blocks in the world.
    NumBlocks,
    /// Analysis rounds per block.
    Rounds,
    /// Absolute start time of the observation.
    StartTime,
}

impl IdentityField {
    /// Stable lowercase name, for messages and tests.
    pub fn name(self) -> &'static str {
        match self {
            IdentityField::WorldSeed => "world_seed",
            IdentityField::NumBlocks => "num_blocks",
            IdentityField::Rounds => "rounds",
            IdentityField::StartTime => "start_time",
        }
    }
}

/// One error type for every way a binary header, dictionary or frame can
/// be unusable — shared by the journal and the compact dataset
/// container so each mismatch kind surfaces identically everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before the structure it claims to hold.
    Truncated {
        /// Bytes the structure needs.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading magic is not one of ours.
    BadMagic {
        /// The eight bytes found, as a little-endian integer.
        found: u64,
    },
    /// The magic (or the explicit endianness tag) matches ours
    /// byte-reversed: the file was written by a big-endian encoder.
    EndianMismatch,
    /// A well-formed header from a future (or unknown) format version.
    UnsupportedVersion {
        /// Version the file declares.
        found: u16,
        /// Version this build reads.
        supported: u16,
    },
    /// The header names a different payload kind (e.g. a journal where a
    /// dataset was expected).
    BadKind {
        /// Kind byte found.
        found: u8,
    },
    /// The header names an unknown container mode.
    BadMode {
        /// Mode byte found.
        found: u8,
    },
    /// The header checksum does not match its contents.
    HeaderCrc,
    /// The header is intact but names a different run.
    IdentityMismatch {
        /// First field (in declaration order) that disagreed.
        field: IdentityField,
        /// Value the caller expected.
        expected: u64,
        /// Value the file holds.
        found: u64,
    },
    /// A dictionary section failed validation.
    DictCorrupt {
        /// What was malformed.
        detail: &'static str,
    },
    /// The file's embedded dictionary disagrees with the tables this
    /// build was compiled with.
    DictMismatch {
        /// Which table disagreed.
        table: &'static str,
    },
    /// A record frame failed validation.
    FrameCorrupt {
        /// Zero-based frame index.
        frame: usize,
        /// What was malformed.
        detail: &'static str,
    },
    /// The container is seed-joined (its geo/registry columns are
    /// re-derived from the world seed) but the caller supplied no world
    /// configuration to derive them from.
    WorldRequired,
    /// The file ends inside a frame (a torn write) or holds trailing
    /// bytes past the declared record count.
    TornTail {
        /// Records recovered before the damage.
        valid_records: u64,
        /// Records the header declared.
        expected_records: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            DecodeError::BadMagic { found } => write!(f, "unrecognized magic {found:#018x}"),
            DecodeError::EndianMismatch => {
                write!(f, "byte-swapped header: written by a big-endian encoder")
            }
            DecodeError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads {supported})")
            }
            DecodeError::BadKind { found } => write!(f, "unexpected payload kind {found}"),
            DecodeError::BadMode { found } => write!(f, "unknown container mode {found}"),
            DecodeError::HeaderCrc => write!(f, "header checksum mismatch"),
            DecodeError::IdentityMismatch { field, expected, found } => {
                write!(
                    f,
                    "file belongs to a different run: {} is {found}, expected {expected}",
                    field.name()
                )
            }
            DecodeError::DictCorrupt { detail } => write!(f, "dictionary section: {detail}"),
            DecodeError::DictMismatch { table } => {
                write!(f, "embedded {table} dictionary disagrees with this build")
            }
            DecodeError::FrameCorrupt { frame, detail } => {
                write!(f, "frame {frame}: {detail}")
            }
            DecodeError::WorldRequired => {
                write!(f, "seed-joined container needs a world configuration to decode")
            }
            DecodeError::TornTail { valid_records, expected_records } => {
                write!(
                    f,
                    "torn tail: {valid_records} of {expected_records} declared records intact"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Run identity and the shared prelude
// ---------------------------------------------------------------------------

/// The run a file belongs to: the four fields the journal pins. Two
/// files with equal identities were produced by the same world and
/// analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunIdentity {
    /// Seed of the generated world.
    pub world_seed: u64,
    /// Number of blocks in the world.
    pub num_blocks: u64,
    /// Analysis rounds per block (0 where not applicable).
    pub rounds: u64,
    /// Absolute start time of the observation.
    pub start_time: u64,
}

/// Compares two run identities field by field, reporting the first
/// mismatch (in declaration order) as a typed [`DecodeError`].
pub fn check_identity(expected: &RunIdentity, found: &RunIdentity) -> Result<(), DecodeError> {
    let fields = [
        (IdentityField::WorldSeed, expected.world_seed, found.world_seed),
        (IdentityField::NumBlocks, expected.num_blocks, found.num_blocks),
        (IdentityField::Rounds, expected.rounds, found.rounds),
        (IdentityField::StartTime, expected.start_time, found.start_time),
    ];
    for (field, want, got) in fields {
        if want != got {
            return Err(DecodeError::IdentityMismatch { field, expected: want, found: got });
        }
    }
    Ok(())
}

/// Explicit little-endian tag written into every prelude. A big-endian
/// writer would store these two bytes swapped, which decodes as
/// [`DecodeError::EndianMismatch`].
pub(crate) const ENDIAN_TAG: u16 = 0xFEFF;

/// Byte length of the shared prelude.
pub const PRELUDE_LEN: usize = 64;

/// The fixed 64-byte header prelude every versioned format starts with:
///
/// ```text
/// magic u64 | version u16 | endian u16 (0xFEFF) | kind u8 | mode u8 |
/// reserved u16 (0) | world_seed u64 | num_blocks u64 | rounds u64 |
/// start_time u64 | record_count u64 | crc32 u32 | reserved u32 (0)
/// ```
///
/// The CRC covers the first 56 bytes; the trailing reserved word must be
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prelude {
    /// Format magic (eight ASCII bytes as a little-endian integer).
    pub magic: u64,
    /// Format version.
    pub version: u16,
    /// Payload kind (format-specific).
    pub kind: u8,
    /// Container mode (format-specific; 0 where unused).
    pub mode: u8,
    /// Identity of the run that produced the file.
    pub identity: RunIdentity,
    /// Records the file declares (0 for append-only journals, whose
    /// record count is implied by their length).
    pub record_count: u64,
}

impl Prelude {
    /// Serializes the prelude, computing its CRC.
    pub fn encode(&self) -> [u8; PRELUDE_LEN] {
        let mut buf = [0u8; PRELUDE_LEN];
        buf[0..8].copy_from_slice(&self.magic.to_le_bytes());
        buf[8..10].copy_from_slice(&self.version.to_le_bytes());
        buf[10..12].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
        buf[12] = self.kind;
        buf[13] = self.mode;
        // buf[14..16] reserved, zero.
        buf[16..24].copy_from_slice(&self.identity.world_seed.to_le_bytes());
        buf[24..32].copy_from_slice(&self.identity.num_blocks.to_le_bytes());
        buf[32..40].copy_from_slice(&self.identity.rounds.to_le_bytes());
        buf[40..48].copy_from_slice(&self.identity.start_time.to_le_bytes());
        buf[48..56].copy_from_slice(&self.record_count.to_le_bytes());
        let crc = crc32(&buf[0..56]);
        buf[56..60].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// CRC the encoded prelude carries (chained into every frame CRC so
    /// frames cannot be spliced between files).
    pub fn header_crc(&self) -> u32 {
        let buf = self.encode();
        u32::from_le_bytes([buf[56], buf[57], buf[58], buf[59]])
    }

    /// Parses and structurally validates a prelude: length, endianness
    /// tag, CRC, reserved bytes. Magic/version/kind are *not* interpreted
    /// here — call [`Prelude::require`] next with the caller's
    /// expectations, so unknown magic is reported before any other field
    /// is trusted.
    pub fn decode(bytes: &[u8]) -> Result<Prelude, DecodeError> {
        if bytes.len() < PRELUDE_LEN {
            return Err(DecodeError::Truncated { need: PRELUDE_LEN, have: bytes.len() });
        }
        let b = &bytes[..PRELUDE_LEN];
        let le_u16 = |o: usize| u16::from_le_bytes([b[o], b[o + 1]]);
        let le_u32 = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        let le_u64 = |o: usize| {
            u64::from_le_bytes([
                b[o],
                b[o + 1],
                b[o + 2],
                b[o + 3],
                b[o + 4],
                b[o + 5],
                b[o + 6],
                b[o + 7],
            ])
        };
        if crc32(&b[0..56]) != le_u32(56) {
            return Err(DecodeError::HeaderCrc);
        }
        let endian = le_u16(10);
        if endian == ENDIAN_TAG.swap_bytes() {
            return Err(DecodeError::EndianMismatch);
        }
        if endian != ENDIAN_TAG || le_u16(14) != 0 || le_u32(60) != 0 {
            return Err(DecodeError::HeaderCrc);
        }
        Ok(Prelude {
            magic: le_u64(0),
            version: le_u16(8),
            kind: b[12],
            mode: b[13],
            identity: RunIdentity {
                world_seed: le_u64(16),
                num_blocks: le_u64(24),
                rounds: le_u64(32),
                start_time: le_u64(40),
            },
            record_count: le_u64(48),
        })
    }

    /// Checks magic, version and kind against the caller's format. A
    /// byte-reversed magic is reported as [`DecodeError::EndianMismatch`]
    /// rather than garbage.
    pub fn require(&self, magic: u64, version: u16, kind: u8) -> Result<(), DecodeError> {
        if self.magic != magic {
            if self.magic == magic.swap_bytes() {
                return Err(DecodeError::EndianMismatch);
            }
            return Err(DecodeError::BadMagic { found: self.magic });
        }
        if self.version != version {
            return Err(DecodeError::UnsupportedVersion {
                found: self.version,
                supported: version,
            });
        }
        if self.kind != kind {
            return Err(DecodeError::BadKind { found: self.kind });
        }
        Ok(())
    }
}

/// Sniffs the leading magic of `bytes` (little-endian u64), if present.
pub fn sniff_magic(bytes: &[u8]) -> Option<u64> {
    let first: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(first))
}

// ---------------------------------------------------------------------------
// Bit-level IO
// ---------------------------------------------------------------------------

/// LSB-first bit accumulator over a growable byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the last byte of `buf` (0 = byte-aligned).
    fill: u32,
}

impl BitWriter {
    /// Starts an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `bits` bits of `value`, LSB first.
    pub fn put(&mut self, mut value: u64, mut bits: u32) {
        debug_assert!(bits <= 64);
        debug_assert!(bits == 64 || value >> bits == 0, "value wider than field");
        while bits > 0 {
            if self.fill == 0 {
                self.buf.push(0);
            }
            let take = (8 - self.fill).min(bits);
            let chunk = (value & ((1u64 << take) - 1)) as u8;
            *self.buf.last_mut().expect("pushed above") |= chunk << self.fill;
            self.fill = (self.fill + take) % 8;
            value >>= take;
            bits -= take;
        }
    }

    /// Appends one bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put(bit as u64, 1);
    }

    /// Pads with zero bits to the next byte boundary.
    pub(crate) fn align(&mut self) {
        self.fill = 0;
    }

    /// Finishes the stream (zero-padding the last byte) and returns it.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align();
        self.buf
    }
}

/// LSB-first bit reader over a byte slice. Bounded: reads past the end
/// return `None` and leave the reader unusable for further progress.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `bits` bits, LSB first. `None` past the end of input.
    pub fn get(&mut self, bits: u32) -> Option<u64> {
        debug_assert!(bits <= 64);
        if bits as usize > self.bytes.len() * 8 - self.pos {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < bits {
            let byte = self.bytes[self.pos / 8];
            let off = (self.pos % 8) as u32;
            let take = (8 - off).min(bits - got);
            let chunk = ((byte >> off) as u64) & ((1u64 << take) - 1);
            out |= chunk << got;
            got += take;
            self.pos += take as usize;
        }
        Some(out)
    }

    /// Reads one bit.
    pub fn get_bit(&mut self) -> Option<bool> {
        self.get(1).map(|b| b != 0)
    }

    /// Bytes fully or partially consumed so far.
    pub fn bytes_consumed(&self) -> usize {
        self.pos.div_ceil(8)
    }
}

// ---------------------------------------------------------------------------
// Rice coding
// ---------------------------------------------------------------------------

/// Quotient at which Rice coding escapes to a fixed-width raw value,
/// bounding how many unary bits a (possibly corrupt) stream can make the
/// decoder consume.
pub(crate) const RICE_ESC_Q: u64 = 16;
/// Width of the escaped raw value. Every Rice-coded quantity in our
/// formats (dictionary indices, outage counts) fits 40 bits.
pub(crate) const RICE_RAW_BITS: u32 = 40;
/// Largest value Rice coding accepts.
pub const RICE_MAX: u64 = (1 << RICE_RAW_BITS) - 1;

/// Bits `rice_put` would spend on `v` with parameter `k`.
pub(crate) fn rice_cost(v: u64, k: u32) -> u64 {
    let q = v >> k;
    if q < RICE_ESC_Q {
        q + 1 + k as u64
    } else {
        RICE_ESC_Q + RICE_RAW_BITS as u64
    }
}

/// Appends `v` Rice-coded with parameter `k`. `v` must be ≤ [`RICE_MAX`].
pub fn rice_put(w: &mut BitWriter, v: u64, k: u32) {
    debug_assert!(v <= RICE_MAX);
    let q = v >> k;
    if q < RICE_ESC_Q {
        // q one-bits, a zero, then the k low bits.
        for _ in 0..q {
            w.put_bit(true);
        }
        w.put_bit(false);
        w.put(v & ((1u64 << k) - 1), k);
    } else {
        // RICE_ESC_Q one-bits (no terminator), then the raw value.
        for _ in 0..RICE_ESC_Q {
            w.put_bit(true);
        }
        w.put(v, RICE_RAW_BITS);
    }
}

/// Reads one Rice-coded value with parameter `k`. Total: bounded unary
/// scan, `None` on exhausted input.
pub fn rice_get(r: &mut BitReader<'_>, k: u32) -> Option<u64> {
    let mut q = 0u64;
    while q < RICE_ESC_Q {
        if !r.get_bit()? {
            let low = r.get(k)?;
            return Some((q << k) | low);
        }
        q += 1;
    }
    r.get(RICE_RAW_BITS)
}

/// The `k` minimizing total Rice cost over `values` (searched over
/// `0..=24`), together with that cost in bits.
pub fn rice_best_k(values: impl Iterator<Item = u64> + Clone) -> (u32, u64) {
    let mut best = (0u32, u64::MAX);
    for k in 0..=24 {
        let cost: u64 = values.clone().map(|v| rice_cost(v, k)).sum();
        if cost < best.1 {
            best = (k, cost);
        }
    }
    best
}

// ---------------------------------------------------------------------------
// String tables
// ---------------------------------------------------------------------------

/// Appends a string table: `count u16`, then per entry `len u8` + UTF-8
/// bytes. Entries must number ≤ 65535 and each fit 255 bytes.
pub fn put_string_table<'a>(out: &mut Vec<u8>, entries: impl Iterator<Item = &'a str>) {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    let mut count: u16 = 0;
    for s in entries {
        let bytes = s.as_bytes();
        assert!(bytes.len() <= u8::MAX as usize, "string table entry too long");
        out.push(bytes.len() as u8);
        out.extend_from_slice(bytes);
        count = count.checked_add(1).expect("string table too large");
    }
    out[at..at + 2].copy_from_slice(&count.to_le_bytes());
}

/// Reads a string table written by [`put_string_table`], borrowing every
/// entry from `bytes` (zero-copy). `pos` advances past the table.
pub fn read_string_table<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
) -> Result<Vec<&'a str>, DecodeError> {
    let corrupt = |detail| DecodeError::DictCorrupt { detail };
    let take = |pos: &mut usize, n: usize| -> Result<&'a [u8], DecodeError> {
        let end = pos.checked_add(n).ok_or(corrupt("length overflow"))?;
        let slice = bytes.get(*pos..end).ok_or(corrupt("string table truncated"))?;
        *pos = end;
        Ok(slice)
    };
    let count = take(pos, 2)?;
    let count = u16::from_le_bytes([count[0], count[1]]) as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = take(pos, 1)?[0] as usize;
        let raw = take(pos, len)?;
        entries.push(std::str::from_utf8(raw).map_err(|_| corrupt("non-UTF-8 entry"))?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        let mut inc = Crc32::new();
        inc.update(&data[..100]);
        inc.update(&data[100..]);
        assert_eq!(inc.finish(), crc32(&data));
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: one bit at a time, no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc_known_answers() {
        // The check value every CRC-32/ISO-HDLC catalogue lists.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn crc_matches_the_bitwise_definition_at_every_offset_length_and_split() {
        let mut x = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..216)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect();
        for start in 0..=8 {
            for len in 0..=200 {
                let bytes = &data[start..start + len];
                let want = crc32_bitwise(bytes);
                assert_eq!(crc32(bytes), want, "one-shot, start {start} len {len}");
                for cut in 0..=len {
                    let mut inc = Crc32::new();
                    inc.update(&bytes[..cut]);
                    inc.update(&bytes[cut..]);
                    assert_eq!(inc.finish(), want, "start {start} len {len} split at {cut}");
                }
            }
        }
    }

    /// Lengths on both sides of the four-chain threshold (512 B) and far
    /// past it, at every alignment, one-shot and split so that one half of
    /// an `update` pair straddles the threshold: a wrong fold shows here,
    /// not only in byte goldens.
    #[test]
    fn crc_four_chain_fold_matches_the_bitwise_definition() {
        let mut x = 0x2545_F491u32;
        let data: Vec<u8> = (0..65_537 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 7) as u8
            })
            .collect();
        let lengths = (500..=530).chain([4_095, 4_096, 4_097, 6_433, 65_537]);
        for len in lengths {
            for start in 0..=8 {
                let bytes = &data[start..start + len];
                let want = crc32_bitwise(bytes);
                assert_eq!(crc32(bytes), want, "one-shot, start {start} len {len}");
                for cut in [0, 1, len / 3, len - 1, len] {
                    let mut inc = Crc32::new();
                    inc.update(&bytes[..cut]);
                    inc.update(&bytes[cut..]);
                    assert_eq!(inc.finish(), want, "start {start} len {len} split at {cut}");
                }
            }
        }
    }

    #[test]
    fn bits_roundtrip_across_boundaries() {
        let mut w = BitWriter::new();
        let fields: [(u64, u32); 7] =
            [(1, 1), (0b1011, 4), (0xFFFF_FFFF, 32), (0, 7), (u64::MAX, 64), (5, 3), (1, 1)];
        for (v, n) in fields {
            w.put(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, n) in fields {
            assert_eq!(r.get(n), Some(v), "{n}-bit field");
        }
    }

    #[test]
    fn bit_reader_is_bounded() {
        let bytes = [0xFFu8; 2];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(16), Some(0xFFFF));
        assert_eq!(r.get(1), None);
        assert_eq!(BitReader::new(&[]).get(1), None);
    }

    #[test]
    fn rice_roundtrips_all_parameter_ranges() {
        let values = [0u64, 1, 2, 7, 63, 64, 1000, 65_535, RICE_MAX];
        for k in [0u32, 1, 3, 8, 16, 24] {
            let mut w = BitWriter::new();
            for &v in &values {
                rice_put(&mut w, v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(rice_get(&mut r, k), Some(v), "k={k} v={v}");
            }
        }
    }

    #[test]
    fn rice_escape_bounds_unary_scans() {
        // A stream of all one-bits must terminate within the escape
        // budget rather than scanning forever (or panicking). 56 bits =
        // exactly 16 unary + 40 raw.
        let ones = vec![0xFFu8; 7];
        let mut r = BitReader::new(&ones);
        assert_eq!(rice_get(&mut r, 0), Some((1 << RICE_RAW_BITS) - 1));
        // Nothing left → the next read fails instead of scanning on.
        assert_eq!(rice_get(&mut r, 0), None);
        // And a short all-ones stream fails outright, no panic.
        assert_eq!(rice_get(&mut BitReader::new(&[0xFF; 4]), 0), None);
    }

    #[test]
    fn rice_best_k_is_exact_argmin() {
        let values = [0u64, 1, 1, 2, 3, 40, 41, 42];
        let (k, cost) = rice_best_k(values.iter().copied());
        for other in 0..=24u32 {
            let c: u64 = values.iter().map(|&v| rice_cost(v, other)).sum();
            assert!(cost <= c, "k={k} beaten by k={other}");
        }
    }

    #[test]
    fn prelude_roundtrips_and_validates() {
        let p = Prelude {
            magic: 0x1122_3344_5566_7788,
            version: 3,
            kind: 1,
            mode: 0,
            identity: RunIdentity { world_seed: 9, num_blocks: 50, rounds: 131, start_time: 77 },
            record_count: 42,
        };
        let buf = p.encode();
        assert_eq!(Prelude::decode(&buf), Ok(p));
        assert_eq!(
            Prelude::decode(&buf[..10]),
            Err(DecodeError::Truncated { need: PRELUDE_LEN, have: 10 })
        );
        for i in 0..PRELUDE_LEN {
            let mut bad = buf;
            bad[i] ^= 0x41;
            assert!(Prelude::decode(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn prelude_flags_byte_swapped_headers() {
        let p = Prelude {
            magic: 0x4242,
            version: 1,
            kind: 0,
            mode: 0,
            identity: RunIdentity::default(),
            record_count: 0,
        };
        // Simulate a big-endian writer: every multi-byte field reversed.
        let mut buf = [0u8; PRELUDE_LEN];
        buf[0..8].copy_from_slice(&p.magic.to_be_bytes());
        buf[8..10].copy_from_slice(&p.version.to_be_bytes());
        buf[10..12].copy_from_slice(&ENDIAN_TAG.to_be_bytes());
        let crc = crc32(&buf[0..56]);
        buf[56..60].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Prelude::decode(&buf), Err(DecodeError::EndianMismatch));
        // And the magic-level detection, for formats whose prelude parsed.
        let ok = Prelude::decode(&p.encode()).unwrap();
        assert_eq!(
            Prelude { magic: p.magic.swap_bytes(), ..ok }.require(p.magic, 1, 0),
            Err(DecodeError::EndianMismatch)
        );
    }

    #[test]
    fn require_reports_each_mismatch_kind() {
        let p = Prelude {
            magic: 77,
            version: 2,
            kind: 1,
            mode: 0,
            identity: RunIdentity::default(),
            record_count: 0,
        };
        assert_eq!(p.require(78, 2, 1), Err(DecodeError::BadMagic { found: 77 }));
        assert_eq!(
            p.require(77, 3, 1),
            Err(DecodeError::UnsupportedVersion { found: 2, supported: 3 })
        );
        assert_eq!(p.require(77, 2, 0), Err(DecodeError::BadKind { found: 1 }));
        assert_eq!(p.require(77, 2, 1), Ok(()));
    }

    #[test]
    fn string_tables_roundtrip_borrowed_and_reject_damage() {
        let mut out = vec![0xEE]; // leading byte the table must skip
        put_string_table(&mut out, ["", "ab", "ÅÄÖ", "dsl"].into_iter());
        let mut pos = 1;
        let back = read_string_table(&out, &mut pos).unwrap();
        assert_eq!(back, ["", "ab", "ÅÄÖ", "dsl"]);
        assert_eq!(pos, out.len());
        // Truncation at every length is a typed error, never a panic.
        for cut in 0..out.len() {
            let mut pos = 1;
            match read_string_table(&out[..cut], &mut pos) {
                Ok(_) => panic!("truncated table at {cut} decoded"),
                Err(DecodeError::DictCorrupt { .. }) => {}
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        // Invalid UTF-8 is rejected.
        let mut bad = Vec::new();
        put_string_table(&mut bad, ["ok"].into_iter());
        bad[3] = 0xFF;
        let mut pos = 0;
        assert!(matches!(read_string_table(&bad, &mut pos), Err(DecodeError::DictCorrupt { .. })));
    }

    #[test]
    fn identity_mismatch_names_the_field() {
        let a = RunIdentity { world_seed: 1, num_blocks: 2, rounds: 3, start_time: 4 };
        assert_eq!(check_identity(&a, &a), Ok(()));
        let cases = [
            (RunIdentity { world_seed: 9, ..a }, IdentityField::WorldSeed),
            (RunIdentity { num_blocks: 9, ..a }, IdentityField::NumBlocks),
            (RunIdentity { rounds: 9, ..a }, IdentityField::Rounds),
            (RunIdentity { start_time: 9, ..a }, IdentityField::StartTime),
        ];
        for (found, field) in cases {
            match check_identity(&a, &found) {
                Err(DecodeError::IdentityMismatch { field: got, .. }) => assert_eq!(got, field),
                other => panic!("expected IdentityMismatch({field:?}), got {other:?}"),
            }
        }
    }
}
