//! `SLPWFEED`: the fault-tolerant wire transport for [`RoundEvent`]
//! streams.
//!
//! The streaming engine (`sleepwatch_core::ingest`) consumes an event
//! feed; this module puts that feed on a wire that can be cut, corrupted
//! and slowed at any byte. The format reuses the workspace-wide framing
//! toolbox ([`sleepwatch_framing`]):
//!
//! * **Handshake.** The sender opens with the shared 64-byte
//!   [`Prelude`] (magic `SLPWFEED`, version, run identity) and no length:
//!   like Trinocular's stream, a feed need not know where it ends. The
//!   receiver answers with the same prelude shape carrying the sequence
//!   number it wants to resume from. A peer from a foreign run or on
//!   another wire version is refused with a typed
//!   [`DecodeError::IdentityMismatch`] or [`DecodeError::UnsupportedVersion`]
//!   before any event moves, and never retried.
//! * **Frames.** Everything after the handshake is length-prefixed
//!   frames — events (sequence-numbered), heartbeats, and a terminal
//!   end-of-stream marker carrying the event count — each closed by a
//!   CRC32 chained to [`session_chain`], the hello's header CRC. That is a
//!   function of the run identity alone, so frames cannot be spliced
//!   between runs, and a file's frames are byte for byte a fresh TCP
//!   session's. Decoding is total: damage is detected, never trusted.
//! * **Robustness.** The TCP client retries with seed-keyed jittered
//!   exponential backoff, resumes from its last applied sequence after
//!   every reconnect (nothing is lost, duplicates are dropped), treats
//!   any frame damage as a poisoned connection, counts and skips
//!   corruption in lenient mode (refuses in `strict`), and bounds
//!   in-flight memory to one frame — when the consumer stalls the
//!   client stops reading and TCP flow control pushes back on the
//!   sender.
//! * **One pass per stage.** One frame loop writes for both senders
//!   ([`write_feed`] and [`serve_connection`]): it encodes each frame in
//!   place, from the borrowed event chunk into a reused buffer: length
//!   slot reserved, one fixed-size record per event, the body checksummed
//!   where it lies, the length back-patched. One frame reader reads for
//!   both sources: straight into its receive buffer, it validates a frame
//!   there (length bounds, completeness, chained CRC, kind — in that
//!   order, nothing in the body trusted before its CRC matches) and
//!   parses its events once, into a reused batch the consumer drains by
//!   cursor. Neither side allocates per frame in steady state
//!   (`tests/transport_alloc.rs`).
//!
//! Both sources implement [`EventSource`], the one trait the ingest
//! feeder needs, over that one reader and one sequence cursor; each keeps
//! only its policy for damage, gaps and the stream's end (a file skips
//! and counts, a socket reconnects and resumes) in one `pull` that reads
//! frames until events are pending. The consumer takes up to a count of
//! them as one borrowed slice ([`EventSource::next_run_up_to`]): the rest
//! of the frame, as ingest takes it ([`EventSource::next_run`]), or one
//! at a time ([`EventSource::next_event`]). The chaos oracle in
//! `sleepwatch-testkit` proves that verdicts ingested through this wire
//! under severs, flips, stalls, duplicated and reordered frames are
//! Debug-identical to batch analysis.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sleepwatch_framing::{check_identity, Crc32, DecodeError, Prelude, RunIdentity, PRELUDE_LEN};
use sleepwatch_geoecon::rng::hash_parts;

use crate::stream::RoundEvent;

// ---------------------------------------------------------------------------
// Wire constants
// ---------------------------------------------------------------------------

/// Feed magic: `SLPWFEED` as a little-endian u64.
pub(crate) const FEED_MAGIC: u64 = u64::from_le_bytes(*b"SLPWFEED");
/// Wire format version this build speaks.
pub(crate) const FEED_VERSION: u16 = 2;
/// Prelude `kind` byte for transport handshakes.
pub(crate) const FEED_KIND: u8 = b'T';
/// Prelude `mode`: sender's opening hello (`record_count` 0: a feed
/// announces no length).
pub(crate) const MODE_HELLO: u8 = 0;
/// Prelude `mode`: receiver's resume answer (`record_count` = resume-from
/// sequence).
pub(crate) const MODE_RESUME: u8 = 1;

/// Frame kind: a batch of sequence-numbered events.
pub(crate) const FRAME_EVENTS: u8 = 1;
/// Frame kind: liveness heartbeat carrying the sender's next sequence.
pub(crate) const FRAME_HEARTBEAT: u8 = 2;
/// Frame kind: end of stream, carrying the sequence number after the last
/// event (the feed's event count), whatever the receiver resumed from.
pub(crate) const FRAME_END: u8 = 3;

/// Hard cap on a frame's declared body length: bounds in-flight memory
/// and turns corrupt length fields into detected damage instead of an
/// allocation.
pub(crate) const MAX_FRAME_LEN: usize = 1 << 20;
/// Smallest legal frame body: kind + sequence + CRC.
const MIN_FRAME_LEN: usize = 1 + 8 + 4;
/// Cap on events per encoded frame (keeps frames well under
/// [`MAX_FRAME_LEN`]).
pub(crate) const MAX_FRAME_EVENTS: usize = 4096;

// ---------------------------------------------------------------------------
// Errors and stats
// ---------------------------------------------------------------------------

/// Everything that can go terminally wrong on a transport.
///
/// Recoverable trouble (a severed connection, a damaged frame in lenient
/// mode) is handled inside the sources; what escapes is typed.
#[derive(Debug)]
pub enum TransportError {
    /// An I/O error the source could not retry past.
    Io(io::Error),
    /// The session handshake was unusable — including
    /// [`DecodeError::IdentityMismatch`], the typed refusal of a feed
    /// from a foreign run.
    Handshake(DecodeError),
    /// A damaged frame under `strict` mode (lenient mode counts and
    /// recovers instead).
    Corrupt {
        /// Frames accepted before the damage.
        frame: u64,
        /// What was malformed.
        detail: String,
    },
    /// The reconnect budget ran out without progress.
    Exhausted {
        /// Connection attempts made since the last applied frame.
        attempts: u32,
        /// Total backoff slept over those attempts, in milliseconds.
        waited_ms: u64,
        /// The last underlying failure.
        cause: String,
    },
}

impl TransportError {
    /// True when this error is a refusal no retry can heal: a feed from a
    /// foreign run, or a peer on another wire version. The prelude's CRC is
    /// checked before its version, so the version is the peer's, not noise.
    pub fn is_foreign_feed(&self) -> bool {
        matches!(
            self,
            TransportError::Handshake(
                DecodeError::IdentityMismatch { .. } | DecodeError::UnsupportedVersion { .. }
            )
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Handshake(e) => write!(f, "transport handshake refused: {e}"),
            TransportError::Corrupt { frame, detail } => {
                write!(f, "corrupt frame after {frame} good frames (strict mode): {detail}")
            }
            TransportError::Exhausted { attempts, waited_ms, cause } => write!(
                f,
                "connection budget exhausted after {attempts} attempts \
                 ({waited_ms} ms of backoff); last error: {cause}"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Transport-side accounting, mirrored into the global `transport.*`
/// metrics as it accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted (events, heartbeats, end markers).
    pub frames: u64,
    /// Events delivered to the consumer.
    pub events: u64,
    /// Events received again after a resume and dropped.
    pub duplicates: u64,
    /// Connections re-established after the first.
    pub reconnects: u64,
    /// Damaged frames skipped (lenient mode).
    pub skipped_corrupt: u64,
    /// Events irrecoverably lost to skipped damage (file sources only;
    /// TCP re-fetches via resume instead).
    pub lost_events: u64,
    /// Total reconnect backoff slept, in milliseconds.
    pub backoff_ms: u64,
    /// Read timeouts while waiting for the peer.
    pub heartbeats_missed: u64,
    /// True once the terminal end-of-stream frame was consumed; a feed
    /// that ends without it is degraded.
    pub clean_end: bool,
}

// ---------------------------------------------------------------------------
// Handshake codec
// ---------------------------------------------------------------------------

/// A handshake prelude of `mode` carrying `record_count`.
fn handshake(identity: &RunIdentity, mode: u8, record_count: u64) -> [u8; PRELUDE_LEN] {
    let (magic, version, kind, identity) = (FEED_MAGIC, FEED_VERSION, FEED_KIND, *identity);
    Prelude { magic, version, kind, mode, identity, record_count }.encode()
}

/// Encodes the sender's opening hello: the run identity, and no length.
pub fn encode_hello(identity: &RunIdentity) -> [u8; PRELUDE_LEN] {
    handshake(identity, MODE_HELLO, 0)
}

/// Encodes the receiver's resume answer.
pub fn encode_resume(identity: &RunIdentity, resume_from: u64) -> [u8; PRELUDE_LEN] {
    handshake(identity, MODE_RESUME, resume_from)
}

/// The CRC chain seed of every frame of a run's feed: its hello's header
/// CRC. The hello carries the identity alone, so a file and every TCP
/// session of one run chain alike, frames cannot be spliced between runs,
/// and no hello bytes need remembering across reconnects.
pub fn session_chain(identity: &RunIdentity) -> u32 {
    get_u32(&encode_hello(identity), 56)
}

/// Reads a handshake prelude off `r` and validates it: structure,
/// magic/version/kind, `want_mode`, and run identity; a stream that ends
/// inside it is a truncated handshake. Returns the prelude, whose
/// `record_count` carries a resume answer's sequence.
fn read_handshake(
    r: &mut impl Read,
    expected: &RunIdentity,
    want_mode: u8,
) -> Result<Prelude, TransportError> {
    let mut bytes = [0u8; PRELUDE_LEN];
    r.read_exact(&mut bytes).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => {
            TransportError::Handshake(DecodeError::Truncated { need: PRELUDE_LEN, have: 0 })
        }
        _ => TransportError::Io(e),
    })?;
    let p = Prelude::decode(&bytes).map_err(TransportError::Handshake)?;
    p.require(FEED_MAGIC, FEED_VERSION, FEED_KIND).map_err(TransportError::Handshake)?;
    if p.mode != want_mode {
        return Err(TransportError::Handshake(DecodeError::BadMode { found: p.mode }));
    }
    check_identity(expected, &p.identity).map_err(TransportError::Handshake)?;
    Ok(p)
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of events; `seq` numbers the first one, the rest follow
    /// consecutively.
    Events {
        /// Sequence number of `events[0]`.
        seq: u64,
        /// The batch, in stream order.
        events: Vec<RoundEvent>,
    },
    /// Liveness marker carrying the sender's next sequence number.
    Heartbeat {
        /// The sequence the sender will emit next.
        next_seq: u64,
    },
    /// End of stream carrying the total event count.
    End {
        /// Total events the stream held.
        total: u64,
    },
}

/// What [`decode_frame`] found at the head of a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameDecode {
    /// A valid frame and the bytes it consumed.
    Frame {
        /// The decoded frame.
        frame: Frame,
        /// Bytes consumed from the buffer, length prefix included.
        consumed: usize,
    },
    /// The buffer holds an incomplete frame; `need` total bytes would
    /// complete it.
    NeedMore {
        /// Bytes (from the buffer start) required for the next decode.
        need: usize,
    },
    /// The head of the buffer is damaged. When the declared length was
    /// plausible, `skip` tells a file reader how far to jump to try the
    /// next frame; `None` means the stream is unframeable from here.
    Damaged {
        /// Bytes to skip to resynchronise, when the length was usable.
        skip: Option<usize>,
        /// What was malformed.
        detail: &'static str,
    },
}

/// Wire size of a `Round` record: tag, block id, round, `a_short` bits.
const ROUND_RECORD_LEN: usize = 1 + 8 + 8 + 8;
/// Wire size of a `Finish` record: tag, block id, outages, total probes.
const FINISH_RECORD_LEN: usize = 1 + 8 + 4 + 8;

/// Appends one tagged fixed-size record — the only place the record
/// layout is written ([`Batch::parse`] is the only place it is read).
fn put_event(out: &mut Vec<u8>, ev: &RoundEvent) {
    match *ev {
        RoundEvent::Round { block_id, round, a_short } => {
            let mut rec = [0u8; ROUND_RECORD_LEN];
            rec[1..9].copy_from_slice(&block_id.to_le_bytes());
            rec[9..17].copy_from_slice(&u64::from(round).to_le_bytes());
            rec[17..25].copy_from_slice(&a_short.to_bits().to_le_bytes());
            out.extend_from_slice(&rec);
        }
        RoundEvent::Finish { block_id, outages, total_probes } => {
            let mut rec = [0u8; FINISH_RECORD_LEN];
            rec[0] = 1;
            rec[1..9].copy_from_slice(&block_id.to_le_bytes());
            rec[9..13].copy_from_slice(&outages.to_le_bytes());
            rec[13..21].copy_from_slice(&total_probes.to_le_bytes());
            out.extend_from_slice(&rec);
        }
    }
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked"))
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked"))
}

/// The frame checksum: CRC32 over the session chain value, then the body.
fn frame_crc(chain: u32, body: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&chain.to_le_bytes());
    crc.update(body);
    crc.finish()
}

/// Opens a frame in `out`: a length slot [`close_frame`] fills in, the
/// kind and the sequence word. Returns where the frame starts.
fn open_frame(out: &mut Vec<u8>, kind: u8, seq: u64) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    at
}

/// Closes the frame opened at `at`: checksums the body where it lies,
/// appends the CRC and back-patches the length prefix.
fn close_frame(out: &mut Vec<u8>, at: usize, chain: u32) {
    let crc = frame_crc(chain, &out[at + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = out.len() - at - 4;
    debug_assert!(len <= MAX_FRAME_LEN);
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends an events frame built straight from the borrowed `events`.
fn encode_events(out: &mut Vec<u8>, seq: u64, events: &[RoundEvent], chain: u32) {
    assert!(events.len() <= MAX_FRAME_EVENTS, "frame too large");
    let at = open_frame(out, FRAME_EVENTS, seq);
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for ev in events {
        put_event(out, ev);
    }
    close_frame(out, at, chain);
}

/// Encodes one frame into `out`, chaining its CRC to `chain` (the
/// session's handshake header CRC).
pub fn encode_frame(out: &mut Vec<u8>, frame: &Frame, chain: u32) {
    let (kind, seq) = match frame {
        Frame::Events { seq, events } => return encode_events(out, *seq, events, chain),
        Frame::Heartbeat { next_seq } => (FRAME_HEARTBEAT, *next_seq),
        Frame::End { total } => (FRAME_END, *total),
    };
    let at = open_frame(out, kind, seq);
    close_frame(out, at, chain);
}

/// The events of the last decoded frame and how many of them the
/// consumer has taken: the receivers' one reused parse target.
#[derive(Default)]
struct Batch {
    events: Vec<RoundEvent>,
    next: usize,
}

impl Batch {
    /// True while events remain to be handed out.
    fn has_rest(&self) -> bool {
        self.next < self.events.len()
    }

    /// Marks the first `n` events as already taken (resume duplicates).
    fn skip(&mut self, n: usize) {
        self.next = n.min(self.events.len());
    }

    /// Replaces the batch with the events of `payload` (count-prefixed
    /// tagged records). On any malformation returns `false` and leaves
    /// the batch empty.
    fn parse(&mut self, payload: &[u8]) -> bool {
        self.events.clear();
        self.next = 0;
        let ok = self.parse_records(payload).is_some();
        if !ok {
            self.events.clear();
        }
        ok
    }

    fn parse_records(&mut self, payload: &[u8]) -> Option<()> {
        if payload.len() < 4 {
            return None;
        }
        let count = get_u32(payload, 0) as usize;
        if count > MAX_FRAME_EVENTS {
            return None;
        }
        self.events.reserve(count);
        let mut rest = &payload[4..];
        for _ in 0..count {
            let event = match *rest.first()? {
                0 => {
                    let rec = rest.get(..ROUND_RECORD_LEN)?;
                    rest = &rest[ROUND_RECORD_LEN..];
                    RoundEvent::Round {
                        block_id: get_u64(rec, 1),
                        // No encoder writes a round past `u32::MAX`: one
                        // that arrives is a malformed record.
                        round: u32::try_from(get_u64(rec, 9)).ok()?,
                        a_short: f64::from_bits(get_u64(rec, 17)),
                    }
                }
                1 => {
                    let rec = rest.get(..FINISH_RECORD_LEN)?;
                    rest = &rest[FINISH_RECORD_LEN..];
                    RoundEvent::Finish {
                        block_id: get_u64(rec, 1),
                        outages: get_u32(rec, 9),
                        total_probes: get_u64(rec, 13),
                    }
                }
                _ => return None,
            };
            self.events.push(event);
        }
        // Trailing bytes: the frame lied about its count.
        rest.is_empty().then_some(())
    }
}

/// [`decode_frame`] for a receiver that reuses its batch: the events of
/// an `Events` frame are left in `batch` and the returned frame's own
/// `events` stays empty. Nothing in the body is read before its
/// checksum matches.
fn decode_frame_into(buf: &[u8], chain: u32, batch: &mut Batch) -> FrameDecode {
    if buf.len() < 4 {
        return FrameDecode::NeedMore { need: 4 };
    }
    let len = get_u32(buf, 0) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return FrameDecode::Damaged { skip: None, detail: "implausible frame length" };
    }
    if buf.len() < 4 + len {
        return FrameDecode::NeedMore { need: 4 + len };
    }
    let body = &buf[4..len];
    if frame_crc(chain, body) != get_u32(buf, len) {
        return FrameDecode::Damaged { skip: Some(4 + len), detail: "frame crc mismatch" };
    }
    let kind = body[0];
    let seq = get_u64(body, 1);
    let payload = &body[9..];
    let frame = match kind {
        FRAME_EVENTS => {
            if !batch.parse(payload) {
                return FrameDecode::Damaged { skip: Some(4 + len), detail: "malformed events" };
            }
            Frame::Events { seq, events: Vec::new() }
        }
        FRAME_HEARTBEAT if payload.is_empty() => Frame::Heartbeat { next_seq: seq },
        FRAME_END if payload.is_empty() => Frame::End { total: seq },
        _ => return FrameDecode::Damaged { skip: Some(4 + len), detail: "unknown frame kind" },
    };
    FrameDecode::Frame { frame, consumed: 4 + len }
}

/// Decodes the frame at the head of `buf`. Total: any malformed input is
/// reported as [`FrameDecode::Damaged`] or [`FrameDecode::NeedMore`],
/// never trusted, never panics, never reads past the slice.
pub fn decode_frame(buf: &[u8], chain: u32) -> FrameDecode {
    let mut batch = Batch::default();
    let mut decoded = decode_frame_into(buf, chain, &mut batch);
    if let FrameDecode::Frame { frame: Frame::Events { events, .. }, .. } = &mut decoded {
        *events = batch.events;
    }
    decoded
}

// ---------------------------------------------------------------------------
// The EventSource trait
// ---------------------------------------------------------------------------

/// A blocking, pull-based source of [`RoundEvent`]s — the one interface
/// the ingest feeder consumes. Pull-based is the backpressure story:
/// while the consumer is not pulling, a socket-backed source is not
/// reading, and TCP flow control pushes back on the sender with no
/// unbounded buffering anywhere.
///
/// One pull, [`next_run_up_to`](EventSource::next_run_up_to), and two
/// shapes of it that deliver the same events, frames and accounting and
/// may be mixed: ingest takes a frame at a time with
/// [`next_run`](EventSource::next_run), so it pays one call per frame
/// rather than per event; [`next_event`](EventSource::next_event) is for
/// consumers that want one event at a time.
pub trait EventSource {
    /// Up to `max` (≥ 1) of the current frame's events not yet taken, now
    /// taken, blocking to pull frames as needed when none are left. An
    /// empty run is end of stream.
    fn next_run_up_to(&mut self, max: usize) -> Result<&[RoundEvent], TransportError>;

    /// Transport accounting so far.
    fn stats(&self) -> TransportStats;

    /// The events of the current frame not yet taken, all now taken. An
    /// empty run is end of stream.
    fn next_run(&mut self) -> Result<&[RoundEvent], TransportError> {
        self.next_run_up_to(usize::MAX)
    }

    /// The next event, blocking as needed. `Ok(None)` is end of stream.
    fn next_event(&mut self) -> Result<Option<RoundEvent>, TransportError> {
        Ok(self.next_run_up_to(1)?.first().copied())
    }
}

/// Adapts an in-memory iterator to [`EventSource`] — the zero-transport
/// baseline benches compare the wire against. Its runs are up to
/// `MAX_FRAME_EVENTS` events, collected into one reused buffer.
pub struct IterSource<I> {
    iter: I,
    run: Vec<RoundEvent>,
    stats: TransportStats,
}

impl<I: Iterator<Item = RoundEvent>> IterSource<I> {
    /// Wraps an iterator.
    pub fn new(iter: I) -> Self {
        let stats = TransportStats { clean_end: true, ..Default::default() };
        IterSource { iter, run: Vec::new(), stats }
    }
}

impl<I: Iterator<Item = RoundEvent>> EventSource for IterSource<I> {
    fn next_run_up_to(&mut self, max: usize) -> Result<&[RoundEvent], TransportError> {
        self.run.clear();
        self.run.extend(self.iter.by_ref().take(max.min(MAX_FRAME_EVENTS)));
        self.stats.events += self.run.len() as u64;
        Ok(&self.run)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// The one frame reader both sources share
// ---------------------------------------------------------------------------

/// What a receiver has taken so far, across every stream it reads (a TCP
/// source keeps it through reconnects).
#[derive(Default)]
struct Cursor {
    /// The sequence number of the next event not yet applied.
    next_seq: u64,
    /// The events of the last frame decoded, drained by the consumer.
    pending: Batch,
    stats: TransportStats,
    done: bool,
}

impl Cursor {
    /// Up to `max` of the pending frame's events, taken and counted as
    /// delivered.
    fn take_run(&mut self, max: usize) -> &[RoundEvent] {
        let from = self.pending.next;
        self.pending.next += max.min(self.pending.events.len() - from);
        let run = &self.pending.events[from..self.pending.next];
        self.stats.events += run.len() as u64;
        run
    }

    /// Applies the events frame at `seq`, now in `pending`: drops the
    /// already-seen prefix (resume duplicates) and advances past the rest.
    /// A frame that starts past the cursor is dropped whole, and the
    /// number of events missing before it is returned; 0 means applied.
    fn apply(&mut self, seq: u64) -> u64 {
        let count = self.pending.events.len() as u64;
        if seq > self.next_seq {
            self.pending.skip(count as usize);
            return seq - self.next_seq;
        }
        let dupes = count.min(self.next_seq - seq);
        self.pending.skip(dupes as usize);
        self.stats.duplicates += dupes;
        // Saturating: a checksummed frame may still carry any sequence word.
        self.next_seq = seq.saturating_add(count).max(self.next_seq);
        0
    }
}

/// Initial receive-buffer size: about twenty default frames per read.
const RECV_BUF_LEN: usize = 128 << 10;

/// The bytes a source has read but not yet decoded. Reads land directly
/// in the tail; the unread remainder (always less than one frame) moves
/// to the front only when the tail cannot hold the rest of that frame.
struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    fn new() -> Self {
        RecvBuf { buf: vec![0; RECV_BUF_LEN], start: 0, end: 0 }
    }

    fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.end);
    }

    /// One `read` into the tail, after making room for a frame of `need`
    /// bytes (at most `4 + MAX_FRAME_LEN`, [`decode_frame`] bounds it).
    fn fill<R: Read>(&mut self, r: &mut R, need: usize) -> io::Result<usize> {
        debug_assert!(self.unread().len() < need);
        if self.start == self.end || self.buf.len() - self.start < need {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// Why a [`FrameReader`] returned no frame.
enum Stop {
    /// Damage at the head of the buffer, left there; `skip` is
    /// [`FrameDecode::Damaged`]'s.
    Damaged { skip: Option<usize>, detail: &'static str },
    /// The stream ended; `torn` when it ended inside a frame.
    End { torn: bool },
    /// A read failed.
    Io(io::Error),
}

/// Reads one stream's frames: the one decode loop of both sources.
struct FrameReader<R> {
    r: R,
    rx: RecvBuf,
    chain: u32,
    /// Read timeouts since a read last returned bytes (counted by the
    /// caller, which alone knows a timeout from another error).
    misses: u32,
}

impl<R: Read> FrameReader<R> {
    fn new(r: R, chain: u32) -> Self {
        FrameReader { r, rx: RecvBuf::new(), chain, misses: 0 }
    }

    /// Reads until a frame decodes, consumes and counts it, and returns
    /// it; an events frame's events are left in `cur.pending`, not yet
    /// applied. The decode of each frame is one `transport.decode` sample.
    fn next(&mut self, cur: &mut Cursor) -> Result<Frame, Stop> {
        let hist = sleepwatch_obs::global().pipeline.stage(sleepwatch_obs::Stage::TransportDecode);
        loop {
            let start = hist.enabled().then(Instant::now);
            match decode_frame_into(self.rx.unread(), self.chain, &mut cur.pending) {
                FrameDecode::NeedMore { need } => match self.rx.fill(&mut self.r, need) {
                    Ok(0) => return Err(Stop::End { torn: !self.rx.unread().is_empty() }),
                    Ok(_) => self.misses = 0,
                    Err(e) => return Err(Stop::Io(e)),
                },
                FrameDecode::Damaged { skip, detail } => {
                    return Err(Stop::Damaged { skip, detail })
                }
                FrameDecode::Frame { frame, consumed } => {
                    if let Some(t0) = start {
                        hist.record(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    self.rx.consume(consumed);
                    cur.stats.frames += 1;
                    obs().frames.incr();
                    return Ok(frame);
                }
            }
        }
    }
}

fn obs() -> &'static sleepwatch_obs::TransportMetrics {
    &sleepwatch_obs::global().transport
}

// ---------------------------------------------------------------------------
// What a sender sends
// ---------------------------------------------------------------------------

/// A feed a sender can put on the wire: its events from any sequence
/// number on, in frame-sized runs. A feed need not know its length before
/// it is sent; it learns where it ends by getting there.
///
/// An in-memory feed is a slice of events; `sleepwatch_core`'s `WorldFeed`
/// regenerates a world's feed a chunk at a time instead of holding it.
pub trait FeedEvents {
    /// Hands `run` the events from sequence number `from` to the end, in
    /// order, as consecutive runs of `len` events (the last may be
    /// shorter), and stops at the first error `run` returns. Nothing is
    /// handed out when `from` is at or past the end. Returns the sequence
    /// number after the feed's last event — its event count — wherever
    /// `from` was.
    fn runs_from<E>(
        &self,
        from: u64,
        len: usize,
        run: impl FnMut(&[RoundEvent]) -> Result<(), E>,
    ) -> Result<u64, E>;
}

impl FeedEvents for [RoundEvent] {
    fn runs_from<E>(
        &self,
        from: u64,
        len: usize,
        run: impl FnMut(&[RoundEvent]) -> Result<(), E>,
    ) -> Result<u64, E> {
        let from = usize::try_from(from).map_or(self.len(), |from| from.min(self.len()));
        self[from..].chunks(len).try_for_each(run)?;
        Ok(self.len() as u64)
    }
}

impl FeedEvents for Vec<RoundEvent> {
    fn runs_from<E>(
        &self,
        from: u64,
        len: usize,
        run: impl FnMut(&[RoundEvent]) -> Result<(), E>,
    ) -> Result<u64, E> {
        self.as_slice().runs_from(from, len, run)
    }
}

/// Writes `events` from sequence number `from` on as frames of
/// `frame_events` events, a heartbeat after every `heartbeat_every`-th
/// frame (0: none), then the end marker, and flushes: the one frame loop
/// of both senders.
fn send_frames<W: Write, F: FeedEvents + ?Sized>(
    w: &mut W,
    events: &F,
    from: u64,
    frame_events: usize,
    heartbeat_every: u64,
    chain: u32,
) -> io::Result<()> {
    let frame_events = frame_events.clamp(1, MAX_FRAME_EVENTS);
    let mut out = Vec::with_capacity(frame_events * 32 + 64);
    let mut seq = from;
    let mut frames = 0u64;
    let end = events.runs_from(from, frame_events, |batch| {
        out.clear();
        encode_events(&mut out, seq, batch, chain);
        seq += batch.len() as u64;
        frames += 1;
        if heartbeat_every > 0 && frames % heartbeat_every == 0 {
            encode_frame(&mut out, &Frame::Heartbeat { next_seq: seq }, chain);
        }
        w.write_all(&out)
    })?;
    out.clear();
    encode_frame(&mut out, &Frame::End { total: end }, chain);
    w.write_all(&out)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// File / pipe source
// ---------------------------------------------------------------------------

/// Serializes a whole feed (hello, event frames, end marker) — the file
/// the [`FileSource`] reads and `sleepwatch feed --to-file` writes.
pub fn write_feed<W: Write, F: FeedEvents + ?Sized>(
    w: &mut W,
    events: &F,
    identity: &RunIdentity,
    frame_events: usize,
) -> io::Result<()> {
    w.write_all(&encode_hello(identity))?;
    send_frames(w, events, 0, frame_events, 0, session_chain(identity))
}

/// Reads a feed from a file or pipe.
///
/// Lenient mode skips damaged frames (counting them, and counting the
/// events lost to the skip), heals a torn tail to the valid prefix, and
/// resynchronises on sequence gaps; `strict` refuses the first damage
/// with a typed error. A file cannot be re-asked for lost bytes, so the
/// skip-and-count here is genuinely lossy — the TCP source instead
/// reconnects and resumes, losing nothing.
pub struct FileSource<R> {
    reader: FrameReader<R>,
    cur: Cursor,
    strict: bool,
}

impl<R: Read> FileSource<R> {
    /// Reads and validates the hello handshake; a foreign identity is
    /// refused before any event is decoded.
    pub fn new(mut r: R, expected: &RunIdentity, strict: bool) -> Result<Self, TransportError> {
        read_handshake(&mut r, expected, MODE_HELLO)?;
        let reader = FrameReader::new(r, session_chain(expected));
        Ok(FileSource { reader, cur: Cursor::default(), strict })
    }

    fn corrupt(&mut self, detail: &'static str) -> Result<(), TransportError> {
        self.cur.stats.skipped_corrupt += 1;
        obs().skipped_corrupt.incr();
        if self.strict {
            return Err(self.refuse(detail.to_string()));
        }
        Ok(())
    }

    /// Ends the feed with a strict refusal.
    fn refuse(&mut self, detail: String) -> TransportError {
        self.cur.done = true;
        TransportError::Corrupt { frame: self.cur.stats.frames, detail }
    }

    /// Pulls frames until events are pending, applying this source's
    /// policy to each; `Ok(false)` once the feed has ended.
    fn pull(&mut self) -> Result<bool, TransportError> {
        while !self.cur.pending.has_rest() {
            if self.cur.done {
                return Ok(false);
            }
            match self.reader.next(&mut self.cur) {
                Ok(Frame::Events { seq, .. }) => {
                    if seq > self.cur.next_seq {
                        // A file cannot be re-read past a skip: account
                        // the loss and resync forward.
                        let missing = seq - self.cur.next_seq;
                        if self.strict {
                            return Err(self.refuse(format!("sequence gap of {missing} events")));
                        }
                        self.cur.stats.lost_events += missing;
                        self.cur.next_seq = seq;
                    }
                    self.cur.apply(seq);
                }
                Ok(Frame::Heartbeat { .. }) => {}
                Ok(Frame::End { total }) => {
                    if total > self.cur.next_seq {
                        let missing = total - self.cur.next_seq;
                        if self.strict {
                            return Err(self.refuse(format!("stream ended {missing} events short")));
                        }
                        self.cur.stats.lost_events += missing;
                    } else {
                        self.cur.stats.clean_end = true;
                    }
                    self.cur.done = true;
                }
                Err(Stop::Damaged { skip, detail }) => {
                    self.corrupt(detail)?;
                    match skip {
                        Some(n) => self.reader.rx.consume(n),
                        // The length field itself is untrustworthy: the
                        // rest of the stream is unframeable.
                        None => self.cur.done = true,
                    }
                }
                Err(Stop::End { torn }) => {
                    // Torn tail: heal to the valid prefix (or refuse).
                    if torn {
                        self.corrupt("torn trailing frame")?;
                    }
                    self.cur.done = true;
                }
                Err(Stop::Io(e)) => return Err(e.into()),
            }
        }
        Ok(true)
    }
}

impl<R: Read> EventSource for FileSource<R> {
    fn next_run_up_to(&mut self, max: usize) -> Result<&[RoundEvent], TransportError> {
        if !self.cur.pending.has_rest() && !self.pull()? {
            return Ok(&[]);
        }
        Ok(self.cur.take_run(max))
    }

    fn stats(&self) -> TransportStats {
        self.cur.stats
    }
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Seed-keyed exponential backoff with jitter for reconnect attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First-retry delay, milliseconds.
    pub base_ms: u64,
    /// Cap on any single delay, milliseconds.
    pub max_ms: u64,
    /// Consecutive attempts without progress before giving up.
    pub attempts: u32,
    /// Jitter seed: the same seed replays the same delays.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig { base_ms: 25, max_ms: 800, attempts: 8, seed: 0x5EED_BACC }
    }
}

impl BackoffConfig {
    /// The delay before retry `attempt` (0-based): exponential, capped,
    /// with deterministic jitter in the upper half of the window.
    pub(crate) fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(16)).min(self.max_ms.max(1));
        let jitter = hash_parts(&[self.seed, 0x6A17_7E12, u64::from(attempt)]);
        exp / 2 + jitter % (exp / 2 + 1)
    }

    /// Worst-case total sleep across the whole attempt budget — the
    /// "one backoff budget" the recovery bench gates against.
    pub fn budget_ms(&self) -> u64 {
        (0..self.attempts)
            .map(|a| self.base_ms.saturating_mul(1u64 << a.min(16)).min(self.max_ms.max(1)))
            .sum()
    }
}

/// A backoff budget being spent: failures since the last progress, the
/// backoff slept over them, and the latest failure's cause. Both ends of
/// the feed retry through it.
#[derive(Debug, Default)]
struct Retry {
    failures: u32,
    waited_ms: u64,
    last_error: String,
}

impl Retry {
    /// Counts one failure.
    fn fail(&mut self, cause: String) {
        self.failures += 1;
        self.last_error = cause;
    }

    /// The step before each attempt: `Exhausted` once `backoff.attempts`
    /// failures ran in a row, otherwise sleeps the delay they call for
    /// and returns it (0 before a first attempt). Retry `n` (0-based)
    /// follows `n + 1` failures.
    fn pause(&mut self, backoff: &BackoffConfig) -> Result<u64, TransportError> {
        if self.failures >= backoff.attempts {
            return Err(TransportError::Exhausted {
                attempts: self.failures,
                waited_ms: self.waited_ms,
                cause: std::mem::take(&mut self.last_error),
            });
        }
        if self.failures == 0 {
            return Ok(0);
        }
        let delay = backoff.delay_ms(self.failures - 1);
        std::thread::sleep(Duration::from_millis(delay));
        self.waited_ms += delay;
        Ok(delay)
    }

    /// Progress refills the budget.
    fn reset(&mut self) {
        self.failures = 0;
        self.waited_ms = 0;
    }
}

// ---------------------------------------------------------------------------
// TCP source
// ---------------------------------------------------------------------------

/// Where a TCP endpoint gets its peer: dial out, or accept on a bound
/// listener. Both sides of the feed support both, so either process can
/// be the one that listens.
pub enum Endpoint {
    /// Connect to this address.
    Dial(String),
    /// Accept connections on this listener.
    Accept(TcpListener),
}

impl Endpoint {
    /// One connection attempt, bounded by `wait`.
    fn open(&self, wait: Duration) -> io::Result<TcpStream> {
        match self {
            Endpoint::Dial(addr) => TcpStream::connect(addr.as_str()),
            Endpoint::Accept(listener) => {
                listener.set_nonblocking(true)?;
                let deadline = Instant::now() + wait;
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false)?;
                            return Ok(stream);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            if Instant::now() >= deadline {
                                return Err(io::Error::new(
                                    io::ErrorKind::TimedOut,
                                    "no peer connected within the accept window",
                                ));
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
}

/// Tuning for the TCP client.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Run identity both handshake directions are validated against.
    pub identity: RunIdentity,
    /// Per-read timeout; each expiry counts one missed heartbeat.
    pub read_timeout: Duration,
    /// Consecutive missed heartbeats tolerated before the connection is
    /// declared dead and rebuilt.
    pub heartbeat_budget: u32,
    /// Reconnect backoff and attempt budget.
    pub backoff: BackoffConfig,
    /// Refuse damaged frames instead of reconnecting past them.
    pub strict: bool,
}

impl TcpConfig {
    /// Defaults around an identity: 500 ms reads, 4 missed heartbeats,
    /// default backoff, lenient.
    pub fn new(identity: RunIdentity) -> Self {
        TcpConfig {
            identity,
            read_timeout: Duration::from_millis(500),
            heartbeat_budget: 4,
            backoff: BackoffConfig::default(),
            strict: false,
        }
    }
}

/// Receives a feed over TCP with reconnect-and-resume.
///
/// Every accepted frame advances a sequence cursor; after any sever,
/// timeout past budget, damage or gap, the connection is dropped and the
/// next handshake asks the sender to resume from the cursor — so chaos
/// on the wire costs retries, never events. The attempt budget is
/// charged per stretch of no progress and refilled by every applied
/// frame.
pub struct TcpEventSource {
    endpoint: Endpoint,
    cfg: TcpConfig,
    /// The connection in use; a reconnect replaces it and keeps `cur`.
    reader: Option<FrameReader<TcpStream>>,
    cur: Cursor,
    connected_once: bool,
    retry: Retry,
    /// When the last connection was dropped, while reconnects are timed.
    dropped_at: Option<Instant>,
}

impl TcpEventSource {
    /// A client that dials `addr`.
    pub fn dial(addr: impl Into<String>, cfg: TcpConfig) -> Self {
        TcpEventSource::over(Endpoint::Dial(addr.into()), cfg)
    }

    /// A client that accepts its peer on `listener`.
    pub fn accept(listener: TcpListener, cfg: TcpConfig) -> Self {
        TcpEventSource::over(Endpoint::Accept(listener), cfg)
    }

    fn over(endpoint: Endpoint, cfg: TcpConfig) -> Self {
        TcpEventSource {
            endpoint,
            cfg,
            reader: None,
            cur: Cursor::default(),
            connected_once: false,
            retry: Retry::default(),
            dropped_at: None,
        }
    }

    /// One connect + handshake attempt.
    fn connect_once(&self) -> Result<FrameReader<TcpStream>, TransportError> {
        let mut stream = self.endpoint.open(self.cfg.read_timeout)?;
        stream.set_read_timeout(Some(self.cfg.read_timeout))?;
        stream.set_nodelay(true)?;
        read_handshake(&mut stream, &self.cfg.identity, MODE_HELLO)?;
        stream.write_all(&encode_resume(&self.cfg.identity, self.cur.next_seq))?;
        stream.flush()?;
        Ok(FrameReader::new(stream, session_chain(&self.cfg.identity)))
    }

    /// Establishes a connection, burning backoff budget on failures.
    /// Only a foreign identity or version is instantly fatal — everything
    /// else (refused dials, torn handshakes, flipped handshake bytes) is
    /// retried until the budget runs dry.
    fn ensure_conn(&mut self) -> Result<(), TransportError> {
        while self.reader.is_none() {
            // A dropped connection is a failure, as `poison` counts it.
            let delay = self.retry.pause(&self.cfg.backoff)?;
            self.cur.stats.backoff_ms += delay;
            obs().backoff_ms.add(delay);
            match self.connect_once() {
                Ok(reader) => {
                    if self.connected_once {
                        self.cur.stats.reconnects += 1;
                        obs().reconnects.incr();
                    }
                    if let Some(at) = self.dropped_at.take() {
                        reconnect_hist().record(at.elapsed().as_secs_f64() * 1e6);
                    }
                    self.connected_once = true;
                    self.reader = Some(reader);
                }
                Err(e) if e.is_foreign_feed() => return Err(e),
                Err(e) => self.retry.fail(e.to_string()),
            }
        }
        Ok(())
    }

    /// Applied progress refills the attempt budget: a storm of severs
    /// that each let *some* frames through can run arbitrarily long.
    fn progress(&mut self) {
        self.retry.reset();
    }

    /// Drops the connection, charging the attempt budget; the next
    /// handshake resumes from the cursor.
    fn poison(&mut self, cause: String) {
        self.reader = None;
        self.retry.fail(cause);
        self.dropped_at = reconnect_hist().enabled().then(Instant::now);
    }

    /// On a socket any damage poisons the connection, counted once, and
    /// `strict` refuses it: resume re-fetches everything after the cursor,
    /// so skipping would only risk trusting a lying length.
    fn corrupt(&mut self, detail: &'static str) -> Result<(), TransportError> {
        self.poison(format!("corrupt frame: {detail}"));
        self.cur.stats.skipped_corrupt += 1;
        obs().skipped_corrupt.incr();
        if self.cfg.strict {
            let frame = self.cur.stats.frames;
            return Err(TransportError::Corrupt { frame, detail: detail.to_string() });
        }
        Ok(())
    }

    /// Pulls frames until events are pending, reconnecting and resuming
    /// as this source's policy says; `Ok(false)` once the feed has ended.
    fn pull(&mut self) -> Result<bool, TransportError> {
        while !self.cur.pending.has_rest() {
            if self.cur.done {
                return Ok(false);
            }
            self.ensure_conn()?;
            let reader = self.reader.as_mut().expect("ensure_conn connected");
            match reader.next(&mut self.cur) {
                Ok(Frame::Events { seq, .. }) => {
                    if self.cur.apply(seq) == 0 {
                        self.progress();
                    } else {
                        // Reordered past the cursor: the missing frame
                        // may never come; resume fixes it.
                        self.corrupt("sequence gap")?;
                    }
                }
                Ok(Frame::Heartbeat { next_seq }) if next_seq > self.cur.next_seq => {
                    self.corrupt("heartbeat ahead of cursor")?;
                }
                Ok(Frame::End { total }) if total > self.cur.next_seq => {
                    self.corrupt("end marker ahead of cursor")?;
                }
                Ok(Frame::Heartbeat { .. }) => self.progress(),
                Ok(Frame::End { .. }) => {
                    self.cur.stats.clean_end = true;
                    self.cur.done = true;
                    self.progress();
                }
                Err(Stop::Damaged { detail, .. }) => self.corrupt(detail)?,
                Err(Stop::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    reader.misses += 1;
                    self.cur.stats.heartbeats_missed += 1;
                    obs().heartbeats_missed.incr();
                    if reader.misses > self.cfg.heartbeat_budget {
                        let budget = self.cfg.heartbeat_budget;
                        self.poison(format!("peer silent past {budget} missed heartbeats"));
                    }
                }
                Err(Stop::End { .. }) => self.poison("peer closed mid-stream".into()),
                Err(Stop::Io(e)) => self.poison(e.to_string()),
            }
        }
        Ok(true)
    }
}

/// The time from a dropped connection to the next completed handshake.
fn reconnect_hist() -> &'static sleepwatch_obs::Histogram {
    sleepwatch_obs::global().pipeline.stage(sleepwatch_obs::Stage::TransportReconnect)
}

impl EventSource for TcpEventSource {
    fn next_run_up_to(&mut self, max: usize) -> Result<&[RoundEvent], TransportError> {
        if !self.cur.pending.has_rest() && !self.pull()? {
            return Ok(&[]);
        }
        Ok(self.cur.take_run(max))
    }

    fn stats(&self) -> TransportStats {
        self.cur.stats
    }
}

// ---------------------------------------------------------------------------
// Feed server (the sender)
// ---------------------------------------------------------------------------

/// Tuning for the sending side.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Run identity carried in the hello and demanded of the receiver's
    /// resume answer.
    pub identity: RunIdentity,
    /// Events per frame.
    pub frame_events: usize,
    /// A heartbeat every this many event frames.
    pub heartbeat_every: u64,
}

impl FeedConfig {
    /// Defaults around an identity.
    pub fn new(identity: RunIdentity) -> Self {
        FeedConfig { identity, frame_events: 256, heartbeat_every: 32 }
    }
}

/// Read timeout while waiting for the receiver's resume answer.
const RESUME_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Serves one connection: hello out, resume answer in (foreign receivers
/// refused), then frames from the requested sequence, heartbeats
/// interleaved, end marker last. `Ok(())` means the full stream
/// including the end marker was written and flushed.
pub fn serve_connection<F: FeedEvents + ?Sized>(
    stream: &mut TcpStream,
    events: &F,
    cfg: &FeedConfig,
) -> Result<(), TransportError> {
    stream.set_read_timeout(Some(RESUME_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(&encode_hello(&cfg.identity))?;
    stream.flush()?;
    let answer = read_handshake(stream, &cfg.identity, MODE_RESUME)?;
    let chain = session_chain(&cfg.identity);
    send_frames(stream, events, answer.record_count, cfg.frame_events, cfg.heartbeat_every, chain)?;
    Ok(())
}

/// Runs a replaying feed server until `stop` is raised (accept mode) or
/// the stream is delivered end-to-end once (dial mode). Returns
/// connections served.
///
/// Accept mode keeps serving fresh connections — a client that lost its
/// socket reconnects and resumes — and treats per-connection failures as
/// that client's problem. Dial mode retries with the backoff budget and
/// stops after the first complete delivery.
pub fn serve_feed<F: FeedEvents + ?Sized>(
    endpoint: &Endpoint,
    events: &F,
    cfg: &FeedConfig,
    backoff: &BackoffConfig,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<u32, TransportError> {
    use std::sync::atomic::Ordering;
    let mut served = 0u32;
    let mut retry = Retry::default();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(served);
        }
        retry.pause(backoff)?;
        // A one-nap accept window (Dial ignores it), so an accepting
        // server reads `stop` at every nap.
        match endpoint.open(Duration::from_millis(2)) {
            Ok(mut stream) => match serve_connection(&mut stream, events, cfg) {
                Ok(()) => {
                    served += 1;
                    retry.reset();
                    if matches!(endpoint, Endpoint::Dial(_)) {
                        return Ok(served);
                    }
                }
                Err(e) if e.is_foreign_feed() => return Err(e),
                Err(e) => {
                    // The receiver will reconnect and resume; in accept
                    // mode this costs nothing but the connection.
                    if matches!(endpoint, Endpoint::Dial(_)) {
                        retry.fail(e.to_string());
                    } else {
                        retry.last_error = e.to_string();
                    }
                }
            },
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                // Accept window expired with no client: not a failure,
                // just poll `stop` again.
                if matches!(endpoint, Endpoint::Dial(_)) {
                    retry.fail(e.to_string());
                }
            }
            Err(e) => retry.fail(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn ident() -> RunIdentity {
        RunIdentity { world_seed: 7, num_blocks: 3, rounds: 40, start_time: 1_000 }
    }

    fn sample_events(n: u64) -> Vec<RoundEvent> {
        let mut out: Vec<RoundEvent> = (0..n)
            .map(|i| RoundEvent::Round {
                block_id: i % 3,
                round: i as u32,
                a_short: i as f64 / n as f64,
            })
            .collect();
        out.push(RoundEvent::Finish { block_id: 0, outages: 2, total_probes: 99 });
        out
    }

    #[test]
    fn frame_roundtrip_exact() {
        let events = sample_events(10);
        for frame in [
            Frame::Events { seq: 5, events: events.clone() },
            Frame::Heartbeat { next_seq: 17 },
            Frame::End { total: 11 },
        ] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, &frame, 0xDEAD_BEEF);
            match decode_frame(&buf, 0xDEAD_BEEF) {
                FrameDecode::Frame { frame: got, consumed } => {
                    assert_eq!(got, frame);
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    /// The wire layout, byte for byte. The literals were produced by the
    /// encoder as it stood before frames were built in place, and before
    /// an event's round narrowed to `u32`, so a pass means "unchanged on
    /// the wire", not "round-trips with itself".
    #[test]
    fn wire_layout_is_pinned_byte_for_byte() {
        let chain = 0xDEAD_BEEF;
        let events = Frame::Events {
            seq: 5,
            events: vec![
                RoundEvent::Round {
                    block_id: 0x0102_0304_0506_0708,
                    round: 0x1516_1718,
                    a_short: 0.75,
                },
                RoundEvent::Finish {
                    block_id: 3,
                    outages: 0x2122_2324,
                    total_probes: 0x3132_3334_3536_3738,
                },
            ],
        };
        #[rustfmt::skip]
        let events_bytes: [u8; 67] = [
            0x3f, 0x00, 0x00, 0x00,                         // body length 63
            0x01,                                           // kind: events
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 5
            0x02, 0x00, 0x00, 0x00,                         // count 2
            0x00,                                           // tag: round (25 bytes)
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // block_id
            0x18, 0x17, 0x16, 0x15, 0x00, 0x00, 0x00, 0x00, // round
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, // a_short 0.75
            0x01,                                           // tag: finish (21 bytes)
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // block_id
            0x24, 0x23, 0x22, 0x21,                         // outages
            0x38, 0x37, 0x36, 0x35, 0x34, 0x33, 0x32, 0x31, // total_probes
            0x23, 0xed, 0x0f, 0x53,                         // crc32(chain ‖ body)
        ];
        #[rustfmt::skip]
        let heartbeat_bytes: [u8; 17] = [
            0x0d, 0x00, 0x00, 0x00,                         // body length 13
            0x02,                                           // kind: heartbeat
            0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // next_seq 17
            0x82, 0xb7, 0x94, 0xfe,
        ];
        #[rustfmt::skip]
        let end_bytes: [u8; 17] = [
            0x0d, 0x00, 0x00, 0x00,                         // body length 13
            0x03,                                           // kind: end
            0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // total 11
            0x22, 0x8e, 0x94, 0x04,
        ];
        let cases: [(Frame, &[u8]); 3] = [
            (events, &events_bytes),
            (Frame::Heartbeat { next_seq: 17 }, &heartbeat_bytes),
            (Frame::End { total: 11 }, &end_bytes),
        ];
        let mut stream = Vec::new();
        for (frame, want) in &cases {
            let mut buf = Vec::new();
            encode_frame(&mut buf, frame, chain);
            assert_eq!(buf, *want, "{frame:?}");
            // Appending to a non-empty buffer back-patches the right slot.
            encode_frame(&mut stream, frame, chain);
        }
        assert_eq!(stream, [&events_bytes[..], &heartbeat_bytes, &end_bytes].concat());
    }

    #[test]
    fn write_feed_is_hello_then_owned_chunks_then_end() {
        let events = sample_events(9_000);
        for frame_events in [1, 7, 256, 4096] {
            let chain = session_chain(&ident());
            let mut want = encode_hello(&ident()).to_vec();
            let mut seq = 0;
            for chunk in events.chunks(frame_events) {
                encode_frame(&mut want, &Frame::Events { seq, events: chunk.to_vec() }, chain);
                seq += chunk.len() as u64;
            }
            encode_frame(&mut want, &Frame::End { total: seq }, chain);
            let mut got = Vec::new();
            write_feed(&mut got, &events, &ident(), frame_events).unwrap();
            assert!(got == want, "frame_events {frame_events}");
        }
    }

    #[test]
    fn frame_crc_is_chained_to_the_session() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &Frame::Heartbeat { next_seq: 1 }, 1);
        assert!(
            matches!(decode_frame(&buf, 2), FrameDecode::Damaged { .. }),
            "a frame from another session must not decode"
        );
    }

    #[test]
    fn handshake_refuses_foreign_identity() {
        let mut other = ident();
        other.world_seed ^= 1;
        let err = read_handshake(&mut &encode_hello(&ident())[..], &other, MODE_HELLO).unwrap_err();
        assert!(matches!(err, TransportError::Handshake(DecodeError::IdentityMismatch { .. })));
    }

    #[test]
    fn file_source_roundtrip_and_torn_tail() {
        let events = sample_events(500);
        let mut bytes = Vec::new();
        write_feed(&mut bytes, &events, &ident(), 64).unwrap();

        let mut src = FileSource::new(&bytes[..], &ident(), true).unwrap();
        let mut got = Vec::new();
        while let Some(ev) = src.next_event().unwrap() {
            got.push(ev);
        }
        assert_eq!(got, events);
        assert!(src.stats().clean_end);

        // Torn tail heals to a valid prefix in lenient mode (the cut
        // lands inside the last events frame, past the End marker's
        // length and the final frame's checksum).
        let torn = &bytes[..bytes.len() - 100];
        let mut src = FileSource::new(torn, &ident(), false).unwrap();
        let mut got = Vec::new();
        while let Some(ev) = src.next_event().unwrap() {
            got.push(ev);
        }
        assert!(!got.is_empty() && got.len() < events.len());
        assert_eq!(got[..], events[..got.len()]);
        assert!(!src.stats().clean_end);
    }

    /// Hands out its bytes in a repeating pattern of read sizes.
    struct Dribble<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.sizes[self.turn % self.sizes.len()].min(buf.len()).min(self.bytes.len());
            self.turn += 1;
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn receive_buffer_wraps_and_grows_without_losing_a_byte() {
        // A feed several times the receive buffer, so the unread tail
        // wraps to the front many times at offsets the read pattern picks.
        let events = sample_events(30_000);
        for frame_events in [256, MAX_FRAME_EVENTS] {
            let mut bytes = Vec::new();
            write_feed(&mut bytes, &events, &ident(), frame_events).unwrap();
            assert!(bytes.len() > 5 * RECV_BUF_LEN);
            for sizes in [&[usize::MAX][..], &[1, 5, 4_096, 70_000], &[6_413], &[3]] {
                let reader = Dribble { bytes: &bytes, sizes, turn: 0 };
                let mut src = FileSource::new(reader, &ident(), true).unwrap();
                let mut got = Vec::new();
                while let Some(ev) = src.next_event().unwrap() {
                    got.push(ev);
                }
                assert!(got == events, "frame_events {frame_events}, reads of {sizes:?}");
                assert!(src.stats().clean_end);
            }
        }

        // A checksummed frame larger than the buffer (of no known kind, as
        // the encoder never makes one this big): the buffer grows to hold
        // it, the reader skips it, and the frames after it still decode.
        let chain = session_chain(&ident());
        let (head, tail) = events.split_at(1_000);
        let mut bytes = encode_hello(&ident()).to_vec();
        encode_frame(&mut bytes, &Frame::Events { seq: 0, events: head.to_vec() }, chain);
        let mut body = vec![0xAB; 3 * RECV_BUF_LEN];
        body[0] = 9;
        bytes.extend_from_slice(&(body.len() as u32 + 4).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&frame_crc(chain, &body).to_le_bytes());
        for (i, chunk) in tail.chunks(MAX_FRAME_EVENTS).enumerate() {
            let seq = (1_000 + i * MAX_FRAME_EVENTS) as u64;
            encode_frame(&mut bytes, &Frame::Events { seq, events: chunk.to_vec() }, chain);
        }
        encode_frame(&mut bytes, &Frame::End { total: events.len() as u64 }, chain);
        let reader = Dribble { bytes: &bytes, sizes: &[50_000, 7], turn: 0 };
        let mut src = FileSource::new(reader, &ident(), false).unwrap();
        let mut got = Vec::new();
        while let Some(ev) = src.next_event().unwrap() {
            got.push(ev);
        }
        assert!(got == events);
        let stats = src.stats();
        assert_eq!((stats.skipped_corrupt, stats.lost_events, stats.clean_end), (1, 0, true));
    }

    #[test]
    fn a_sequence_word_near_the_top_of_the_range_is_data_not_a_panic() {
        let events = sample_events(2);
        let chain = session_chain(&ident());
        let mut bytes = encode_hello(&ident()).to_vec();
        encode_frame(
            &mut bytes,
            &Frame::Events { seq: u64::MAX - 1, events: events.clone() },
            chain,
        );
        let mut src = FileSource::new(&bytes[..], &ident(), false).unwrap();
        let mut got = Vec::new();
        while let Some(ev) = src.next_event().unwrap() {
            got.push(ev);
        }
        assert_eq!(got, events);
        assert_eq!(src.stats().lost_events, u64::MAX - 1);
    }

    /// A CRC-valid events frame of one `Round` record whose round word is
    /// `round`: well-formed in every other byte.
    fn frame_with_round(seq: u64, round: u64, chain: u32) -> Vec<u8> {
        let mut out = Vec::new();
        let at = open_frame(&mut out, FRAME_EVENTS, seq);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(0);
        out.extend_from_slice(&7u64.to_le_bytes());
        out.extend_from_slice(&round.to_le_bytes());
        out.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        close_frame(&mut out, at, chain);
        out
    }

    /// A three-event feed whose second frame the tests below damage (the
    /// file test into a round of `u32::MAX + 1`).
    fn three_events() -> Vec<RoundEvent> {
        let ev = |round| RoundEvent::Round { block_id: 7, round, a_short: 0.5 };
        vec![ev(0), ev(1), ev(u32::MAX)]
    }

    #[test]
    fn a_round_past_u32_is_a_malformed_record() {
        let top = frame_with_round(4, u64::from(u32::MAX), 9);
        let want = RoundEvent::Round { block_id: 7, round: u32::MAX, a_short: 0.5 };
        match decode_frame(&top, 9) {
            FrameDecode::Frame { frame: Frame::Events { seq: 4, events }, .. } => {
                assert_eq!(events, [want]);
            }
            other => panic!("the largest round did not decode: {other:?}"),
        }
        let past = frame_with_round(4, u64::from(u32::MAX) + 1, 9);
        assert_eq!(
            decode_frame(&past, 9),
            FrameDecode::Damaged { skip: Some(past.len()), detail: "malformed events" }
        );
    }

    #[test]
    fn file_source_skips_or_refuses_a_round_past_u32() {
        let events = three_events();
        let chain = session_chain(&ident());
        let mut bytes = encode_hello(&ident()).to_vec();
        encode_frame(&mut bytes, &Frame::Events { seq: 0, events: vec![events[0]] }, chain);
        bytes.extend_from_slice(&frame_with_round(1, u64::from(u32::MAX) + 1, chain));
        encode_frame(&mut bytes, &Frame::Events { seq: 2, events: vec![events[2]] }, chain);
        encode_frame(&mut bytes, &Frame::End { total: 3 }, chain);

        let mut src = FileSource::new(&bytes[..], &ident(), false).unwrap();
        let mut got = Vec::new();
        while let Some(ev) = src.next_event().unwrap() {
            got.push(ev);
        }
        assert_eq!(got, [events[0], events[2]]);
        let stats = src.stats();
        assert_eq!((stats.skipped_corrupt, stats.lost_events, stats.clean_end), (1, 1, true));

        let mut src = FileSource::new(&bytes[..], &ident(), true).unwrap();
        assert_eq!(src.next_event().unwrap(), Some(events[0]));
        match src.next_event() {
            Err(TransportError::Corrupt { frame: 1, detail }) => {
                assert_eq!(detail, "malformed events");
            }
            other => panic!("strict mode took a round past u32: {other:?}"),
        }
    }

    /// How a second session is served: handed the accepted stream.
    type Session<'a> = &'a (dyn Fn(&mut TcpStream) + Sync);

    /// Runs `client` against a server whose first session sends `first`
    /// after the handshake and hangs up, and whose second session, if
    /// any, `second` serves.
    fn scripted_sessions<T>(
        first: &[u8],
        second: Option<Session<'_>>,
        cfg: TcpConfig,
        client: impl FnOnce(&mut TcpEventSource) -> T,
    ) -> T {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut source = TcpEventSource::dial(addr.to_string(), cfg);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut s, _) = listener.accept().unwrap();
                s.write_all(&encode_hello(&ident())).unwrap();
                s.read_exact(&mut [0u8; PRELUDE_LEN]).unwrap();
                s.write_all(first).unwrap();
                drop(s);
                if let Some(serve) = second {
                    serve(&mut listener.accept().unwrap().0);
                }
            });
            client(&mut source)
        })
    }

    /// Runs `client` against a server whose first session sends one good
    /// frame and then `damage`, and whose second session (when `resumed`)
    /// serves the whole feed. Returns the events taken, how the client
    /// ended, and its stats.
    fn first_session_damaged(
        damage: &[u8],
        resumed: bool,
        cfg: TcpConfig,
    ) -> (Vec<RoundEvent>, Result<Option<RoundEvent>, TransportError>, TransportStats) {
        let events = three_events();
        let mut first = Vec::new();
        let chain = session_chain(&ident());
        encode_frame(&mut first, &Frame::Events { seq: 0, events: vec![events[0]] }, chain);
        first.extend_from_slice(damage);
        let serve = |s: &mut TcpStream| {
            serve_connection(s, &events, &FeedConfig::new(ident())).unwrap();
        };
        scripted_sessions(&first, resumed.then_some(&serve), cfg, |client| {
            let mut got = Vec::new();
            let end = loop {
                match client.next_event() {
                    Ok(Some(ev)) => got.push(ev),
                    other => break other,
                }
            };
            (got, end, client.stats())
        })
    }

    /// What a strict TCP receiver reports for a damaged session: frames
    /// accepted and detail (`None`: no damage, both modes resume).
    type Refusal = Option<(u64, &'static str)>;

    /// The damage a first session can carry after one good frame of
    /// [`three_events`], and its [`Refusal`].
    fn first_session_damage() -> Vec<(&'static str, Vec<u8>, Refusal)> {
        let events = three_events();
        let chain = session_chain(&ident());
        let frame = |f: Frame| {
            let mut out = Vec::new();
            encode_frame(&mut out, &f, chain);
            out
        };
        let second = frame(Frame::Events { seq: 1, events: vec![events[1]] });
        let mut flipped = second.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        vec![
            (
                "round past u32",
                frame_with_round(1, u64::from(u32::MAX) + 1, chain),
                Some((1, "malformed events")),
            ),
            ("flipped crc", flipped, Some((1, "frame crc mismatch"))),
            (
                "events past the cursor",
                frame(Frame::Events { seq: 2, events: vec![events[2]] }),
                Some((2, "sequence gap")),
            ),
            (
                "heartbeat ahead",
                frame(Frame::Heartbeat { next_seq: 2 }),
                Some((2, "heartbeat ahead of cursor")),
            ),
            ("end ahead", frame(Frame::End { total: 3 }), Some((2, "end marker ahead of cursor"))),
            ("closed mid-frame", second[..second.len() / 2].to_vec(), None),
        ]
    }

    /// Every kind of damage a first session can carry poisons the
    /// connection once: lenient mode resumes past it and delivers the
    /// whole feed, strict mode refuses it with the frame count and detail.
    /// A session closed mid-frame is no damage: both modes resume.
    #[test]
    fn tcp_source_poisons_a_damaged_session_and_resumes_or_refuses() {
        let events = three_events();
        for (name, damage, refusal) in &first_session_damage() {
            for strict in [false, true] {
                let mut cfg = TcpConfig::new(ident());
                cfg.read_timeout = Duration::from_millis(200);
                cfg.strict = strict;
                let resumed = !strict || refusal.is_none();
                let (got, end, stats) = first_session_damaged(damage, resumed, cfg);
                let ctx = format!("{name}, strict {strict}");
                match (strict, refusal) {
                    (true, Some((frames, detail))) => {
                        assert_eq!(got, [events[0]], "{ctx}");
                        match end {
                            Err(TransportError::Corrupt { frame, detail: found }) => {
                                assert_eq!((frame, found.as_str()), (*frames, *detail), "{ctx}");
                            }
                            other => panic!("{ctx}: {other:?}"),
                        }
                        assert_eq!((stats.skipped_corrupt, stats.reconnects), (1, 0), "{ctx}");
                    }
                    _ => {
                        assert!(matches!(end, Ok(None)), "{ctx}: {end:?}");
                        assert_eq!(got, events, "{ctx}");
                        let corrupt = u64::from(refusal.is_some());
                        assert_eq!(
                            (stats.skipped_corrupt, stats.reconnects, stats.clean_end),
                            (corrupt, 1, true),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    /// Bytes that arrive reset the missed-heartbeat count even mid-frame:
    /// a frame dribbled in four pieces, each gap two read timeouts long,
    /// stays under a budget of three.
    #[test]
    fn tcp_source_resets_missed_heartbeats_on_any_bytes() {
        let events = sample_events(40);
        let chain = session_chain(&ident());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut cfg = TcpConfig::new(ident());
        cfg.read_timeout = Duration::from_millis(100);
        cfg.heartbeat_budget = 3;
        let mut client = TcpEventSource::dial(listener.local_addr().unwrap().to_string(), cfg);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut s, _) = listener.accept().unwrap();
                s.write_all(&encode_hello(&ident())).unwrap();
                s.read_exact(&mut [0u8; PRELUDE_LEN]).unwrap();
                let mut out = Vec::new();
                encode_frame(&mut out, &Frame::Events { seq: 0, events: events.clone() }, chain);
                for (i, piece) in out.chunks(out.len().div_ceil(4)).enumerate() {
                    if i > 0 {
                        std::thread::sleep(Duration::from_millis(300));
                    }
                    s.write_all(piece).unwrap();
                }
                out.clear();
                encode_frame(&mut out, &Frame::End { total: events.len() as u64 }, chain);
                s.write_all(&out).unwrap();
            });
            let mut got = Vec::new();
            while let Some(ev) = client.next_event().unwrap() {
                got.push(ev);
            }
            assert_eq!(got, events);
        });
        let stats = client.stats();
        assert!(stats.heartbeats_missed >= 4, "{stats:?}");
        assert_eq!((stats.reconnects, stats.clean_end), (0, true), "{stats:?}");
    }

    /// How a test drains a source: an event at a time, a frame at a time,
    /// or the two pulls taking turns.
    #[derive(Clone, Copy, Debug)]
    enum Pull {
        Events,
        Runs,
        Alternating,
    }

    /// What a drain saw: the events, the terminal error (its variant and
    /// detail, rendered), and the stats.
    type Drained = (Vec<RoundEvent>, Option<String>, TransportStats);

    /// Drains `src` with `pull` to the end of the stream or its first
    /// error.
    fn drain_by(src: &mut impl EventSource, pull: Pull) -> Drained {
        let mut got = Vec::new();
        let mut by_run = matches!(pull, Pull::Runs);
        let end = loop {
            let more = if by_run {
                src.next_run().map(|run| {
                    got.extend_from_slice(run);
                    !run.is_empty()
                })
            } else {
                src.next_event().map(|ev| {
                    got.extend(ev);
                    ev.is_some()
                })
            };
            match more {
                Ok(true) => by_run ^= matches!(pull, Pull::Alternating),
                Ok(false) => break None,
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        (got, end, src.stats())
    }

    /// `drain` run with runs, and with the pulls alternating, sees what it
    /// sees an event at a time. Returns that.
    fn pulls_agree(case: &str, mut drain: impl FnMut(Pull) -> Drained) -> Drained {
        let want = drain(Pull::Events);
        for pull in [Pull::Runs, Pull::Alternating] {
            assert_eq!(drain(pull), want, "{case}, {pull:?}");
        }
        want
    }

    #[test]
    fn file_source_runs_deliver_what_events_deliver() {
        let chain = session_chain(&ident());
        let many = sample_events(2_000);
        let mut feeds = Vec::new();
        for frame_events in [1, 64, MAX_FRAME_EVENTS] {
            let mut bytes = Vec::new();
            write_feed(&mut bytes, &many, &ident(), frame_events).unwrap();
            feeds.push((format!("clean, {frame_events} per frame"), bytes, many.len()));
        }
        // The TCP table's damage after one good frame, at the end of the
        // file or followed by the rest of the feed.
        let events = three_events();
        for (name, damage, _) in first_session_damage() {
            for rest in [false, true] {
                let mut bytes = encode_hello(&ident()).to_vec();
                encode_frame(&mut bytes, &Frame::Events { seq: 0, events: vec![events[0]] }, chain);
                bytes.extend_from_slice(&damage);
                if rest {
                    send_frames(&mut bytes, &events, 1, 2, 1, chain).unwrap();
                }
                feeds.push((format!("{name}, rest {rest}"), bytes, 0));
            }
        }
        for (case, bytes, clean_len) in &feeds {
            for strict in [false, true] {
                let case = format!("{case}, strict {strict}");
                let (got, end, stats) = pulls_agree(&case, |pull| {
                    drain_by(&mut FileSource::new(&bytes[..], &ident(), strict).unwrap(), pull)
                });
                if *clean_len > 0 {
                    assert_eq!(
                        (got.len(), end, stats.clean_end),
                        (*clean_len, None, true),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn tcp_source_runs_deliver_what_events_deliver() {
        let mut cfg = TcpConfig::new(ident());
        // Long enough that no scheduling stall counts a missed heartbeat.
        cfg.read_timeout = Duration::from_secs(2);
        let events = sample_events(2_000);
        let drained = pulls_agree("clean", |pull| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let mut client = TcpEventSource::dial(addr, cfg.clone());
            serving(listener, &events, || drain_by(&mut client, pull))
        });
        assert_eq!((drained.0.len(), drained.1, drained.2.clean_end), (events.len(), None, true));

        let three = three_events();
        let resume = |s: &mut TcpStream| {
            serve_connection(s, &three, &FeedConfig::new(ident())).unwrap();
        };
        for (name, damage, refusal) in &first_session_damage() {
            for strict in [false, true] {
                let mut first = Vec::new();
                let chain = session_chain(&ident());
                encode_frame(&mut first, &Frame::Events { seq: 0, events: vec![three[0]] }, chain);
                first.extend_from_slice(damage);
                let second = (!strict || refusal.is_none()).then_some(&resume);
                let cfg = TcpConfig { strict, ..cfg.clone() };
                pulls_agree(&format!("{name}, strict {strict}"), |pull| {
                    scripted_sessions(&first, second.map(|s| s as Session), cfg.clone(), |c| {
                        drain_by(c, pull)
                    })
                });
            }
        }

        // A second session that ignores the resume answer and re-sends the
        // feed from its start: the first 600 events arrive twice.
        let chain = session_chain(&ident());
        let mut first = Vec::new();
        send_frames(&mut first, &events[..600], 0, 64, 0, chain).unwrap();
        first.truncate(first.len() - 17); // the end marker
        let from_zero = |s: &mut TcpStream| {
            s.write_all(&encode_hello(&ident())).unwrap();
            s.read_exact(&mut [0u8; PRELUDE_LEN]).unwrap();
            send_frames(s, &events, 0, 64, 4, chain).unwrap();
        };
        let (got, end, stats) = pulls_agree("resent from zero", |pull| {
            scripted_sessions(&first, Some(&from_zero), cfg.clone(), |c| drain_by(c, pull))
        });
        assert_eq!((got, end), (events.clone(), None));
        assert_eq!((stats.duplicates, stats.reconnects, stats.clean_end), (600, 1, true));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let b = BackoffConfig::default();
        for a in 0..10 {
            let d = b.delay_ms(a);
            assert_eq!(d, b.delay_ms(a), "same seed, same delay");
            assert!(d <= b.max_ms, "delay {d} over cap");
        }
        assert!(b.budget_ms() >= b.base_ms);
        let other = BackoffConfig { seed: 1, ..b };
        assert!((0..8).any(|a| b.delay_ms(a) != other.delay_ms(a)), "jitter ignores seed");
    }

    /// Runs `client` while `serve_feed` serves `events` on `listener`, then
    /// stops the server, however `client` returns. A foreign receiver ends
    /// the server early, so its result is not asserted.
    fn serving<T>(listener: TcpListener, events: &[RoundEvent], client: impl FnOnce() -> T) -> T {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (accept, cfg) = (Endpoint::Accept(listener), FeedConfig::new(ident()));
                serve_feed(&accept, events, &cfg, &BackoffConfig::default(), &stop)
            });
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(client));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// An accepting server with no client returns within a nap or so of
    /// `stop` being raised.
    #[test]
    fn an_accepting_server_stops_within_one_nap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                let (accept, cfg) = (Endpoint::Accept(listener), FeedConfig::new(ident()));
                let served =
                    serve_feed(&accept, &sample_events(5), &cfg, &BackoffConfig::default(), &stop);
                (served, Instant::now())
            });
            // Long after the server's first nap.
            std::thread::sleep(Duration::from_millis(30));
            let raised = Instant::now();
            stop.store(true, Ordering::Relaxed);
            let (served, returned) = server.join().unwrap();
            assert_eq!(served.unwrap(), 0);
            let late = returned.duration_since(raised);
            assert!(late < Duration::from_millis(50), "returned {late:?} after stop");
        });
    }

    #[test]
    fn tcp_roundtrip_with_resume_after_server_restart() {
        let events = sample_events(2_000);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut cfg = TcpConfig::new(ident());
        cfg.read_timeout = Duration::from_millis(200);
        let mut client = TcpEventSource::dial(listener.local_addr().unwrap().to_string(), cfg);
        let mut got = Vec::new();
        serving(listener, &events, || {
            while let Some(ev) = client.next_event().unwrap() {
                got.push(ev);
            }
        });
        assert_eq!(got, events);
        assert!(client.stats().clean_end);
        assert_eq!(client.stats().events, events.len() as u64);
    }

    #[test]
    fn tcp_refuses_foreign_feed_with_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut foreign = ident();
        foreign.num_blocks += 1;
        let mut cfg = TcpConfig::new(foreign);
        cfg.read_timeout = Duration::from_millis(200);
        let mut client = TcpEventSource::dial(listener.local_addr().unwrap().to_string(), cfg);
        let err = serving(listener, &sample_events(50), || match client.next_event() {
            Ok(Some(_)) => panic!("foreign feed delivered events"),
            Ok(None) => panic!("foreign feed ended cleanly"),
            Err(e) => e,
        });
        assert!(err.is_foreign_feed(), "{err}");
    }

    /// A version-1 hello is refused on the first connection, with no
    /// backoff slept; so is a version-1 resume answer, which a sender
    /// dialing out does not retry either.
    #[test]
    fn a_peer_on_another_version_is_refused_at_once() {
        let v1 = |prelude: [u8; PRELUDE_LEN]| {
            Prelude { version: 1, ..Prelude::decode(&prelude).unwrap() }.encode()
        };
        let refused = |e: &TransportError| {
            let want = DecodeError::UnsupportedVersion { found: 1, supported: 2 };
            matches!(e, TransportError::Handshake(found) if *found == want)
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut s, _) = listener.accept().unwrap();
                s.write_all(&v1(encode_hello(&ident()))).unwrap();
                // Held open until the receiver hangs up.
                let _ = s.read(&mut [0u8; 1]);
            });
            let mut client = TcpEventSource::dial(addr.clone(), TcpConfig::new(ident()));
            let got = client.next_event();
            assert!(matches!(&got, Err(e) if refused(e)), "{got:?}");
            assert_eq!(client.stats().backoff_ms, 0);
        });

        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut s, _) = listener.accept().unwrap();
                s.read_exact(&mut [0u8; PRELUDE_LEN]).unwrap();
                s.write_all(&v1(encode_resume(&ident(), 0))).unwrap();
            });
            let (dial, cfg) = (Endpoint::Dial(addr), FeedConfig::new(ident()));
            let stop = AtomicBool::new(false);
            let sent = serve_feed(&dial, &sample_events(5), &cfg, &BackoffConfig::default(), &stop);
            assert!(matches!(&sent, Err(e) if refused(e)), "{sent:?}");
        });
    }

    #[test]
    fn exhausted_budget_is_a_typed_error() {
        // Nothing listens on this address (bound, never accepted, then
        // dropped): every dial fails and the budget drains.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut cfg = TcpConfig::new(ident());
        cfg.backoff = BackoffConfig { base_ms: 1, max_ms: 2, attempts: 3, seed: 9 };
        let mut client = TcpEventSource::dial(dead.to_string(), cfg);
        match client.next_event() {
            Err(TransportError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    /// The first retry waits `delay_ms(0)`, the step `base_ms` names, as
    /// `serve_feed`'s does: three failed dials sleep retries 0 and 1.
    #[test]
    fn the_first_retry_waits_the_first_step() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let backoff = BackoffConfig { base_ms: 4, max_ms: 64, attempts: 3, seed: 9 };
        let mut cfg = TcpConfig::new(ident());
        cfg.backoff = backoff;
        let mut client = TcpEventSource::dial(dead.to_string(), cfg);
        match client.next_event() {
            Err(TransportError::Exhausted { attempts, waited_ms, .. }) => {
                assert_eq!(attempts, 3);
                assert_eq!(waited_ms, backoff.delay_ms(0) + backoff.delay_ms(1));
                assert!(waited_ms <= backoff.budget_ms(), "{waited_ms} ms over the budget");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(client.stats().backoff_ms, backoff.delay_ms(0) + backoff.delay_ms(1));
    }
}
