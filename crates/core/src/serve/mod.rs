//! The query service: serve an analyzed world's aggregate views over
//! HTTP (ROADMAP item 1, the serving era).
//!
//! A loaded world — an `SLPWBIN1` dataset or a checkpoint journal — is
//! decoded once into canonical [`DatasetRow`]s, folded into immutable
//! indexes ([`ServeState`]), and served read-only from every worker
//! thread: the paper's headline aggregates (diurnal fraction by country,
//! AS and link type), per-block verdict+phase lookups, the outage-window
//! series, and ad-hoc filters: one key's are looked up, and those that
//! cross dimensions sit behind a Mutex-sharded LRU. The obs registry is
//! exposed at `GET /metrics`.
//!
//! The HTTP front end is hand-rolled over `std::net`, same discipline as
//! `probing::transport`: blocking sockets with read timeouts, bounded
//! request parsing ([`http`]), keep-alive and pipelining, no
//! dependencies. Workers share one nonblocking listener and poll a stop
//! flag, so a [`QueryServer`] shuts down cleanly mid-accept, and stopping
//! shuts the read half of every open connection, so an idle keep-alive
//! client does not hold the stop for its read timeout.
//!
//! Correctness is pinned by a batch-differential oracle
//! (`testkit/tests/serve_oracle.rs`): every served body is recomputed by
//! index-free straight-line folds over the same rows and compared
//! byte-for-byte — across fault presets, dataset modes, thread counts,
//! and dataset-vs-journal loading.

pub mod http;
pub mod index;
mod lru;

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::export::{dataset_rows, DatasetRow};
use crate::journal::{replay_bytes_v2, sniff_journal, JournalHeader, ReplayOutcome};
use crate::worldrun::WorldAnalysis;
use http::{is_timeout, push_error_body, RequestError};
use index::{write_block_body, FilterRef, BODY_ROOM};
use sleepwatch_framing::DecodeError;
use sleepwatch_obs::Stage;
use sleepwatch_simnet::WorldConfig;

pub use index::ServeState;
pub use lru::{LruOutcome, LruShard, ShardedLru};

/// Everything that can stop a world from being loaded for serving.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(io::Error),
    /// Bytes refused by a decoder: dataset corruption, a missing world
    /// for a seed-joined file, a foreign run's identity, or a journal of
    /// a format version this build does not read.
    Decode(DecodeError),
    /// The journal's header is intact but names a different run.
    ForeignJournal {
        /// Header found in the file.
        found: JournalHeader,
    },
    /// The source decoded cleanly but holds no block rows to serve.
    Empty,
    /// The file starts with neither a dataset nor a journal magic.
    UnknownFormat,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "could not read source: {e}"),
            LoadError::Decode(e) => write!(f, "could not decode source: {e}"),
            LoadError::ForeignJournal { found } => write!(
                f,
                "journal belongs to a different run (seed {}, {} blocks)",
                found.identity().world_seed,
                found.identity().num_blocks,
            ),
            LoadError::Empty => write!(f, "source holds no block rows to serve"),
            LoadError::UnknownFormat => {
                write!(f, "not an SLPWBIN1 dataset or SLPWJNL journal")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<DecodeError> for LoadError {
    fn from(e: DecodeError) -> Self {
        LoadError::Decode(e)
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Decodes dataset bytes into servable rows. Seed-joined files need the
/// producing `world`; foreign-run files are refused by the decoder.
pub fn rows_from_dataset_bytes(
    bytes: &[u8],
    world: Option<&WorldConfig>,
) -> Result<Vec<DatasetRow>, LoadError> {
    let rows = crate::binfmt::decode_dataset(bytes, world)?;
    if rows.is_empty() {
        return Err(LoadError::Empty);
    }
    Ok(rows)
}

/// Replays journal bytes into servable rows, refusing a journal from
/// any run but `expect`'s and — with `sniff_journal`'s typed version
/// or endianness error — any journal-family file this build does not
/// read. Replay tolerates a damaged tail like crash recovery does;
/// duplicate block records keep the first occurrence (the crash-resume
/// rule), and rows come out exactly as [`dataset_rows`] renders them —
/// so a journal-loaded server is byte-identical to a dataset-loaded one.
pub fn rows_from_journal_bytes(
    bytes: &[u8],
    expect: &JournalHeader,
) -> Result<Vec<DatasetRow>, LoadError> {
    if !sniff_journal(bytes)? {
        return Err(LoadError::UnknownFormat);
    }
    let mut reports = match replay_bytes_v2(bytes, expect)? {
        ReplayOutcome::Resumed { reports, .. } => reports,
        ReplayOutcome::Fresh { .. } => return Err(LoadError::Empty),
        ReplayOutcome::HeaderMismatch { found } => return Err(LoadError::ForeignJournal { found }),
    };
    let mut seen = HashSet::new();
    reports.retain(|r| seen.insert(r.summary.block_id));
    reports.sort_by_key(|r| r.summary.block_id);
    if reports.is_empty() {
        return Err(LoadError::Empty);
    }
    Ok(dataset_rows(&WorldAnalysis { reports, quarantined: Vec::new() }))
}

/// Loads servable rows from `path`, sniffing the format by magic: an
/// `SLPWBIN1` dataset (seed-joined files need `world`) or an `SLPWJNL2`
/// journal (checked against `expect`). Each successful load is one
/// `stage.serve.load` sample; a refused one records none.
pub fn load_rows(
    path: &Path,
    world: Option<&WorldConfig>,
    expect: &JournalHeader,
) -> Result<Vec<DatasetRow>, LoadError> {
    let hist = sleepwatch_obs::global().pipeline.stage(Stage::ServeLoad);
    let start = hist.enabled().then(Instant::now);
    let bytes = std::fs::read(path)?;
    let rows = match bytes.get(0..8) {
        Some(b) if *b == *b"SLPWBIN1" => rows_from_dataset_bytes(&bytes, world),
        _ => rows_from_journal_bytes(&bytes, expect),
    }?;
    if let Some(t0) = start {
        hist.record(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(rows)
}

/// Parses `/v1/query`'s query string into a filter borrowing from it.
/// Empty string → empty filter (matches everything). Unknown, duplicate
/// or malformed parameters are refused with the message for a 400 body.
fn parse_filter(query: &str) -> Result<FilterRef<'_>, String> {
    let mut f = FilterRef::default();
    if query.is_empty() {
        return Ok(f);
    }
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            return Err(format!("malformed query parameter {pair:?}"));
        };
        if v.is_empty() {
            return Err(format!("empty value for query parameter \"{k}\""));
        }
        match k {
            "country" => {
                if f.country.replace(v).is_some() {
                    return Err("duplicate query parameter \"country\"".into());
                }
            }
            "as" => {
                let n = v.parse().map_err(|_| format!("malformed AS number {v:?}"))?;
                if f.asn.replace(n).is_some() {
                    return Err("duplicate query parameter \"as\"".into());
                }
            }
            "link" => {
                if f.link.replace(v).is_some() {
                    return Err("duplicate query parameter \"link\"".into());
                }
            }
            "stationary" => {
                let b = match v {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    _ => return Err(format!("malformed stationary value {v:?}")),
                };
                if f.stationary.replace(b).is_some() {
                    return Err("duplicate query parameter \"stationary\"".into());
                }
            }
            _ => return Err(format!("unknown query parameter \"{k}\"")),
        }
    }
    Ok(f)
}

/// A refusal: status, reason phrase and the message for the error body.
type Refusal = (u16, &'static str, Cow<'static, str>);

fn bad_request(message: impl Into<Cow<'static, str>>) -> Refusal {
    (400, "Bad Request", message.into())
}

fn not_found(what: &'static str) -> Refusal {
    (404, "Not Found", what.into())
}

/// Routes one request target to `(status, reason, body)`. Pure apart
/// from LRU bookkeeping: same state + same target → same bytes, which is
/// what the differential oracle holds the server to.
pub fn route(state: &ServeState, target: &str) -> (u16, &'static str, String) {
    let (mut key, mut body) = (String::new(), String::with_capacity(BODY_ROOM));
    let (status, reason) = route_into(state, target, &mut key, &mut body);
    (status, reason, body)
}

/// [`route`] into a connection's scratch: the body is appended to
/// `body`, handed over empty, and `key` holds the cache key of an
/// ad-hoc query that crosses dimensions. Once the two have grown to fit,
/// only `/metrics`, an LRU miss and a refused query parameter's message
/// allocate.
fn route_into(
    state: &ServeState,
    target: &str,
    key: &mut String,
    body: &mut String,
) -> (u16, &'static str) {
    match answer(state, target, key, body) {
        Ok(()) => (200, "OK"),
        Err((status, reason, message)) => {
            push_error_body(body, &message);
            (status, reason)
        }
    }
}

/// Appends the 200 body `target` is owed to `body`, or refuses having
/// appended nothing.
fn answer(
    state: &ServeState,
    target: &str,
    key: &mut String,
    body: &mut String,
) -> Result<(), Refusal> {
    let obs = sleepwatch_obs::global();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if query.is_some() && path != "/v1/query" {
        return Err(bad_request("this route takes no query string"));
    }
    if let Some(id) = path.strip_prefix("/v1/block/") {
        let id = id.parse::<u64>().map_err(|_| bad_request("malformed block id"))?;
        let row = state.row(id).ok_or_else(|| not_found("unknown block"))?;
        write_block_body(body, row);
        obs.serve.block_reads.incr();
        return Ok(());
    }
    let rendered = match path {
        "/metrics" => {
            obs.serve.metrics_reads.incr();
            body.push_str(&sleepwatch_obs::Snapshot::capture(obs).to_json());
            return Ok(());
        }
        "/v1/query" => {
            let filter = parse_filter(query.unwrap_or("")).map_err(bad_request)?;
            match state.query_into(&filter, key, body) {
                None => obs.serve.query_direct.incr(),
                Some(LruOutcome::Hit) => obs.serve.lru_hits.incr(),
                Some(LruOutcome::Miss { evicted }) => {
                    obs.serve.lru_misses.incr();
                    if evicted {
                        obs.serve.lru_evictions.incr();
                    }
                }
            }
            return Ok(());
        }
        "/v1/summary" => state.summary(),
        "/v1/country" => state.countries(),
        "/v1/as" => state.ases(),
        "/v1/link" => state.links(),
        "/v1/outages" => state.outages(),
        _ => {
            if let Some(code) = path.strip_prefix("/v1/country/") {
                state.country(code).ok_or_else(|| not_found("unknown country"))?
            } else if let Some(asn) = path.strip_prefix("/v1/as/") {
                let asn = asn.parse::<u32>().map_err(|_| bad_request("malformed AS number"))?;
                state.asn(asn).ok_or_else(|| not_found("unknown as"))?
            } else if let Some(keyword) = path.strip_prefix("/v1/link/") {
                state.link(keyword).ok_or_else(|| not_found("unknown link"))?
            } else {
                return Err(not_found("no such route"));
            }
        }
    };
    obs.serve.group_reads.incr();
    body.push_str(rendered);
    Ok(())
}

/// Per-connection accounting, returned by [`serve_streams`] so tests
/// can assert exact counts without reading the global registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Requests parsed successfully.
    pub requests: u64,
    /// Responses fully written (including 4xx answers).
    pub responses: u64,
    /// Protocol violations (malformed/oversized/truncated requests).
    pub bad_requests: u64,
    /// Read timeouts waiting for a request.
    pub timeouts: u64,
    /// Connections lost while writing a response.
    pub write_errors: u64,
    /// Bytes put on the wire.
    pub bytes_out: u64,
}

/// Responses held back for one `write`: a pipelined batch of 64 block
/// reads (about 21 KiB of answers) leaves in one.
const WRITE_BUF: usize = 32 * 1024;

/// One connection's two halves and the rule that ties them: responses
/// collect in `out`, and `out` is written before any read of the stream
/// itself — the one place the connection can block, for up to the whole
/// read timeout — so a finished answer never waits behind a request that
/// has only half arrived. [`http::read_request_into`] reads through this
/// as a `BufRead` and needs to know none of it.
struct Conn<R, W> {
    r: BufReader<R>,
    w: W,
    out: Vec<u8>,
    /// Set by a failed [`flush`](Self::flush), which a reader sees only
    /// as an I/O error of its own.
    write_failed: bool,
}

impl<R: Read, W: Write> Conn<R, W> {
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let done = self.w.write_all(&self.out).and_then(|()| self.w.flush());
        self.out.clear();
        self.write_failed |= done.is_err();
        done
    }

    /// Queues one response behind those already held, writing those
    /// first when it would not fit beside them; returns its length.
    fn respond(
        &mut self,
        status: u16,
        reason: &str,
        body: &str,
        keep_alive: bool,
    ) -> io::Result<u64> {
        if self.out.len() + http::HEAD_ROOM + body.len() > WRITE_BUF {
            self.flush()?;
        }
        Ok(http::push_response(&mut self.out, status, reason, body, keep_alive))
    }
}

impl<R: Read, W: Write> Read for Conn<R, W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl<R: Read, W: Write> BufRead for Conn<R, W> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.r.buffer().is_empty() {
            self.flush()?;
        }
        self.r.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.r.consume(n);
    }
}

/// Serves one connection's request stream until it closes, errors or
/// times out. Generic over the transport so chaos tests can drive it
/// with hand-built readers and writers; `serve_connection` adapts a
/// `TcpStream`.
///
/// Keep-alive and pipelining are supported. Every buffer a request needs
/// is allocated here, once per connection: a request head is parsed in
/// one pass where the read buffer holds it, its body rendered into one
/// buffer and copied with its head into the byte write buffer, which
/// leaves when full or when the connection is about to wait for the peer
/// (see `Conn`) — so a pipelined batch costs one write syscall, and a
/// steady-state request no allocation.
pub fn serve_streams<R: Read, W: Write>(reader: R, writer: W, state: &ServeState) -> ConnStats {
    let obs = sleepwatch_obs::global();
    let mut conn = Conn {
        r: BufReader::new(reader),
        w: writer,
        out: Vec::with_capacity(WRITE_BUF),
        write_failed: false,
    };
    let mut line = Vec::with_capacity(http::MAX_REQUEST_LINE);
    let mut target = String::with_capacity(http::MAX_REQUEST_LINE);
    let mut key = String::new();
    let mut body = String::with_capacity(BODY_ROOM);
    let mut s = ConnStats::default();
    loop {
        body.clear();
        match http::read_request_into(&mut conn, &mut line, &mut target) {
            Ok(keep_alive) => {
                s.requests += 1;
                obs.serve.requests.incr();
                let (status, reason) = route_into(state, &target, &mut key, &mut body);
                match conn.respond(status, reason, &body, keep_alive) {
                    Ok(n) => {
                        s.responses += 1;
                        s.bytes_out += n;
                        obs.serve.bytes_out.add(n);
                        if status < 400 {
                            obs.serve.responses_ok.incr();
                        } else {
                            obs.serve.responses_err.incr();
                        }
                    }
                    Err(_) => {
                        s.write_errors += 1;
                        obs.serve.write_errors.incr();
                        return s;
                    }
                }
                if !keep_alive {
                    let _ = conn.flush();
                    return s;
                }
            }
            Err(_) if conn.write_failed => {
                s.write_errors += 1;
                obs.serve.write_errors.incr();
                return s;
            }
            Err(e) => {
                match &e {
                    RequestError::Closed => {}
                    RequestError::Io(io) if is_timeout(io) => {
                        s.timeouts += 1;
                        obs.serve.read_timeouts.incr();
                    }
                    RequestError::Io(_) => {}
                    _ => {
                        s.bad_requests += 1;
                        obs.serve.bad_requests.incr();
                    }
                }
                if let Some((status, reason, msg)) = http::status_for(&e) {
                    push_error_body(&mut body, msg);
                    if let Ok(n) = conn.respond(status, reason, &body, false) {
                        s.responses += 1;
                        s.bytes_out += n;
                        obs.serve.bytes_out.add(n);
                        obs.serve.responses_err.incr();
                    }
                }
                let _ = conn.flush();
                return s;
            }
        }
    }
}

/// Adapts one accepted `TcpStream` for [`serve_streams`]: blocking mode
/// with `read_timeout`, Nagle off (responses are small and latency is
/// gated), and a cloned handle for the write side.
pub(crate) fn serve_connection(
    stream: TcpStream,
    state: &ServeState,
    read_timeout: Duration,
) -> io::Result<ConnStats> {
    sleepwatch_obs::global().serve.connections.incr();
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let _ = stream.set_nodelay(true);
    let writer = stream.try_clone()?;
    Ok(serve_streams(stream, writer, state))
}

/// Tunables for a [`QueryServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads accepting and serving connections.
    pub threads: usize,
    /// How long a worker waits for (the rest of) a request before
    /// answering 408 and closing — the slowloris bound.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { threads: 4, read_timeout: Duration::from_secs(5) }
    }
}

/// Default capacity of the LRU of `/v1/query` filters that cross
/// dimensions (see [`ServeState::build`]).
pub const DEFAULT_LRU_CAPACITY: usize = 1024;

/// A running query service: `threads` workers sharing one nonblocking
/// listener and one immutable [`ServeState`]. Dropping without
/// [`stop`](Self::stop) detaches the workers; stopping joins them.
#[derive(Debug)]
pub struct QueryServer {
    addr: SocketAddr,
    control: Arc<Control>,
    workers: Vec<JoinHandle<()>>,
}

/// What the workers share with the handle that stops them.
#[derive(Debug)]
struct Control {
    stop: AtomicBool,
    /// A handle on each worker's open connection, by worker, through
    /// which a stop ends a read that would otherwise wait for the peer.
    open: Vec<Mutex<Option<TcpStream>>>,
}

/// A worker's connection slot, even after a holder panicked: a slot only
/// ever holds a whole handle or none.
fn slot(open: &Mutex<Option<TcpStream>>) -> MutexGuard<'_, Option<TcpStream>> {
    open.lock().unwrap_or_else(PoisonError::into_inner)
}

impl QueryServer {
    /// Starts serving `state` on `listener`.
    pub fn spawn(
        listener: TcpListener,
        state: Arc<ServeState>,
        cfg: &ServeConfig,
    ) -> io::Result<QueryServer> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let threads = cfg.threads.max(1);
        let control = Arc::new(Control {
            stop: AtomicBool::new(false),
            open: (0..threads).map(|_| Mutex::new(None)).collect(),
        });
        let workers = (0..threads)
            .map(|i| {
                let listener = Arc::clone(&listener);
                let state = Arc::clone(&state);
                let control = Arc::clone(&control);
                let timeout = cfg.read_timeout;
                thread::spawn(move || worker(&listener, &state, &control, i, timeout))
            })
            .collect();
        Ok(QueryServer { addr, control, workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every worker to stop, shuts the read half of each open
    /// connection and joins the workers. A connection answers the
    /// requests it has already received and closes, so an idle
    /// keep-alive client does not hold the stop for the read timeout.
    pub fn stop(self) {
        self.control.stop.store(true, Ordering::SeqCst);
        for open in &self.control.open {
            if let Some(stream) = slot(open).as_ref() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for h in self.workers {
            let _ = h.join();
        }
    }
}

/// One worker's accept loop: poll the shared nonblocking listener,
/// serve each accepted connection to completion, nap on `WouldBlock` so
/// the stop flag is observed promptly.
fn worker(
    listener: &TcpListener,
    state: &ServeState,
    control: &Control,
    i: usize,
    timeout: Duration,
) {
    while !control.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The handle is posted before the flag is read again: either
                // `stop` finds it in the slot, or this read sees the flag.
                *slot(&control.open[i]) = stream.try_clone().ok();
                if control.stop.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(Shutdown::Read);
                }
                let _ = serve_connection(stream, state, timeout);
                *slot(&control.open[i]) = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_micros(500));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::index::tests::row;
    use super::*;
    use sleepwatch_linktype::LinkFeature;

    fn state() -> ServeState {
        let country = |id| Some(if id < 3 { "US" } else { "DE" });
        ServeState::build(
            (0..6).map(|id| row(id, country(id), 5, &[LinkFeature::Dsl])).collect(),
            8,
        )
    }

    #[test]
    fn routes_answer_and_miss() {
        let s = state();
        assert_eq!(route(&s, "/v1/summary").0, 200);
        assert_eq!(route(&s, "/v1/country/US").0, 200);
        assert_eq!(route(&s, "/v1/country/FR").0, 404);
        assert_eq!(route(&s, "/v1/as/5").0, 200);
        assert_eq!(route(&s, "/v1/as/bogus").0, 400);
        assert_eq!(route(&s, "/v1/block/4").0, 200);
        assert_eq!(route(&s, "/v1/block/40").0, 404);
        assert_eq!(route(&s, "/v1/nope").0, 404);
        assert_eq!(route(&s, "/v1/summary?x=1").0, 400);
        assert_eq!(route(&s, "/metrics").0, 200);
    }

    #[test]
    fn query_filters_parse_strictly() {
        let s = state();
        assert_eq!(route(&s, "/v1/query").0, 200);
        assert_eq!(route(&s, "/v1/query?country=US&stationary=1").0, 200);
        assert_eq!(route(&s, "/v1/query?country=US&country=DE").0, 400);
        assert_eq!(route(&s, "/v1/query?as=x").0, 400);
        assert_eq!(route(&s, "/v1/query?bogus=1").0, 400);
        assert_eq!(route(&s, "/v1/query?country=").0, 400);
    }

    #[test]
    fn pipelined_requests_on_one_connection() {
        let s = state();
        let input =
            b"GET /v1/summary HTTP/1.1\r\n\r\nGET /v1/as/5 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut out = Vec::new();
        let stats = serve_streams(&input[..], &mut out, &s);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.responses, 2);
        assert_eq!(stats.bytes_out as usize, out.len());
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2);
    }

    #[test]
    fn garbage_after_a_request_gets_one_answer_then_400() {
        let s = state();
        let input = b"GET /v1/summary HTTP/1.1\r\n\r\n\x01\x02GARBAGE\r\n\r\n";
        let mut out = Vec::new();
        let stats = serve_streams(&input[..], &mut out, &s);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.bad_requests, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HTTP/1.1 200 OK"));
        assert!(text.contains("HTTP/1.1 400 Bad Request"));
    }

    #[test]
    fn dataset_and_journal_magics_are_distinguished() {
        let err = rows_from_journal_bytes(
            b"not a journal at all",
            &JournalHeader::from_identity(&sleepwatch_framing::RunIdentity {
                world_seed: 1,
                num_blocks: 1,
                rounds: 1,
                start_time: 0,
            }),
        );
        assert!(matches!(err, Err(LoadError::UnknownFormat)));
    }
}
