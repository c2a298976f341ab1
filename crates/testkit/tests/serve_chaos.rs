//! Chaos clients for the query service: misbehaving peers must be
//! answered (or dropped) with the exact [`ConnStats`] and `serve.*`
//! counters the design promises, while well-behaved clients on the same
//! server keep getting byte-correct answers throughout.
//!
//! Deterministic cases drive [`serve_streams`] directly with scripted
//! readers/writers so every counter is asserted *exactly*; the
//! wire-level cases run a live [`QueryServer`] and assert counter
//! deltas via [`Snapshot`]. A process-wide lock serializes the tests —
//! the obs registry is global, and exact-delta assertions must not race
//! with another test's increments.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sleepwatch_core::serve::serve_streams;
use sleepwatch_core::{DatasetRow, QueryServer, ServeConfig, ServeState};
use sleepwatch_geoecon::YearMonth;
use sleepwatch_linktype::{LinkFeature, LinkSet};
use sleepwatch_obs::Snapshot;
use sleepwatch_spectral::DiurnalClass;
use sleepwatch_testkit::httpclient::{read_response, HttpConnection};

/// Serializes every test in this binary: exact counter deltas on the
/// global registry cannot tolerate a concurrent test's increments.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn row(id: u64, country: &'static str, stationary: bool) -> DatasetRow {
    DatasetRow {
        block_id: id,
        class: if id % 2 == 0 { DiurnalClass::Strict } else { DiurnalClass::NonDiurnal },
        phase: (id % 2 == 0).then_some(0.25),
        mean_a: 0.5,
        strongest_cpd: 1.0,
        stationary,
        outages: (id % 3) as u32,
        probes: 100 + id,
        lon: Some(1.0),
        lat: Some(2.0),
        country: Some(country),
        centroid: false,
        alloc: YearMonth::new(2001, 5),
        asn: 1000 + (id % 2) as u32,
        links: LinkSet::from_iter([LinkFeature::Dsl]),
    }
}

fn state() -> Arc<ServeState> {
    let rows: Vec<DatasetRow> =
        (0..8).map(|i| row(i, if i < 5 { "US" } else { "DE" }, i % 2 == 0)).collect();
    Arc::new(ServeState::build(rows, 16))
}

fn summary_body(state: &ServeState) -> String {
    state.summary().to_string()
}

// ---------------------------------------------------------------------
// Deterministic in-process cases: scripted Read/Write halves, exact
// ConnStats and exact serve.* deltas.
// ---------------------------------------------------------------------

/// A writer that fails with `BrokenPipe` after `budget` accepted bytes —
/// a client that disconnected mid-response.
struct FailingWriter {
    budget: usize,
    accepted: Vec<u8>,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.accepted.len() + buf.len() > self.budget {
            return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer went away"));
        }
        self.accepted.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A reader that yields its script, then reports a timeout — a client
/// that sent something and stalled past the read deadline.
struct StallingReader {
    script: std::io::Cursor<Vec<u8>>,
    stalled: bool,
}

impl Read for StallingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.script.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        if self.stalled {
            return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "read timed out"));
        }
        Ok(0)
    }
}

#[test]
fn two_good_requests_then_garbage_count_exactly() {
    let _g = lock();
    let st = state();
    let input =
        b"GET /v1/summary HTTP/1.1\r\n\r\nGET /v1/country/US HTTP/1.1\r\n\r\nNOT-HTTP\r\n\r\n"
            .to_vec();
    let mut out = Vec::new();
    let before = Snapshot::capture(sleepwatch_obs::global());
    let stats = serve_streams(std::io::Cursor::new(input), &mut out, &st);
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);

    assert_eq!(stats.requests, 2, "two well-formed requests");
    assert_eq!(stats.responses, 3, "two answers plus the 400");
    assert_eq!(stats.bad_requests, 1, "the garbage line");
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.write_errors, 0);
    assert_eq!(stats.bytes_out, out.len() as u64, "bytes_out must equal bytes on the wire");

    assert_eq!(delta.counters["serve.requests"], 2);
    assert_eq!(delta.counters["serve.responses_ok"], 2);
    assert_eq!(delta.counters["serve.responses_err"], 1);
    assert_eq!(delta.counters["serve.bad_requests"], 1);
    assert_eq!(delta.counters["serve.read_timeouts"], 0);
    assert_eq!(delta.counters["serve.write_errors"], 0);
    assert_eq!(delta.counters["serve.bytes_out"], out.len() as u64);

    // The wire carries both answers, then the 400 that closes.
    let mut r = std::io::Cursor::new(out);
    let first = read_response(&mut r);
    assert_eq!((first.status, first.keep_alive), (200, true));
    assert_eq!(first.body, summary_body(&st));
    let second = read_response(&mut r);
    assert_eq!(second.status, 200);
    let third = read_response(&mut r);
    assert_eq!((third.status, third.keep_alive), (400, false));
    assert_eq!(third.body, "{\"error\":\"malformed request line\"}");
}

#[test]
fn mid_response_disconnect_counts_one_write_error() {
    let _g = lock();
    let st = state();
    let input = b"GET /v1/summary HTTP/1.1\r\n\r\n".to_vec();
    let before = Snapshot::capture(sleepwatch_obs::global());
    // Budget below the response size: the flush hits the broken pipe.
    let mut sink = FailingWriter { budget: 10, accepted: Vec::new() };
    let stats = serve_streams(std::io::Cursor::new(input), &mut sink, &st);
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);

    assert_eq!(stats.requests, 1);
    assert_eq!(stats.write_errors, 1, "exactly one write error, then the connection is dropped");
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.bad_requests, 0);
    assert_eq!(delta.counters["serve.write_errors"], 1);
    assert_eq!(delta.counters["serve.bad_requests"], 0);
}

#[test]
fn partial_request_then_stall_counts_one_timeout() {
    let _g = lock();
    let st = state();
    let reader =
        StallingReader { script: std::io::Cursor::new(b"GET /v1/sum".to_vec()), stalled: true };
    let mut out = Vec::new();
    let before = Snapshot::capture(sleepwatch_obs::global());
    let stats = serve_streams(reader, &mut out, &st);
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);

    assert_eq!(stats.timeouts, 1, "exactly one read timeout");
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.bad_requests, 0, "a stall is a timeout, not a protocol violation");
    assert_eq!(stats.responses, 1, "the 408 still goes out");
    assert_eq!(delta.counters["serve.read_timeouts"], 1);
    assert_eq!(delta.counters["serve.bad_requests"], 0);

    let resp = read_response(&mut std::io::Cursor::new(out));
    assert_eq!((resp.status, resp.keep_alive), (408, false));
    assert_eq!(resp.body, "{\"error\":\"timed out waiting for a request\"}");
}

#[test]
fn clean_eof_before_any_request_counts_nothing() {
    let _g = lock();
    let st = state();
    let mut out = Vec::new();
    let before = Snapshot::capture(sleepwatch_obs::global());
    let stats = serve_streams(std::io::Cursor::new(Vec::new()), &mut out, &st);
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    assert_eq!(stats, Default::default(), "a silent hang-up is not an error: {stats:?}");
    assert!(out.is_empty(), "nothing to answer");
    assert_eq!(delta.counters["serve.bad_requests"], 0);
    assert_eq!(delta.counters["serve.read_timeouts"], 0);
}

#[test]
fn oversized_request_line_is_a_bad_request_with_431() {
    let _g = lock();
    let st = state();
    let mut input = b"GET /".to_vec();
    input.extend(std::iter::repeat(b'a').take(4096));
    input.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let mut out = Vec::new();
    let stats = serve_streams(std::io::Cursor::new(input), &mut out, &st);
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.requests, 0);
    let resp = read_response(&mut std::io::Cursor::new(out));
    assert_eq!((resp.status, resp.keep_alive), (431, false));
}

/// A peer that sends its script one chunk per `read` and, before each,
/// notes what the server has put on the shared wire so far.
struct ChunkedPeer {
    chunks: VecDeque<Vec<u8>>,
    wire: Rc<RefCell<Vec<u8>>>,
    seen: Vec<Vec<u8>>,
}

impl Read for ChunkedPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.seen.push(self.wire.borrow().clone());
        let Some(chunk) = self.chunks.pop_front() else { return Ok(0) };
        buf[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

struct SharedWire(Rc<RefCell<Vec<u8>>>);

impl Write for SharedWire {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn finished_response_is_not_withheld_behind_a_partial_request() {
    let _g = lock();
    let st = state();
    let wire = Rc::new(RefCell::new(Vec::new()));
    // The second request arrives in two pieces: the read for its rest can
    // block for the whole read timeout, so the first answer must be on the
    // wire before it.
    let mut peer = ChunkedPeer {
        chunks: VecDeque::from([
            b"GET /v1/summary HTTP/1.1\r\n\r\nGET /v1/coun".to_vec(),
            b"try/US HTTP/1.1\r\n\r\n".to_vec(),
        ]),
        wire: wire.clone(),
        seen: Vec::new(),
    };
    let before = Snapshot::capture(sleepwatch_obs::global());
    let stats = serve_streams(&mut peer, SharedWire(wire.clone()), &st);
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    let wire = wire.borrow();

    assert_eq!(peer.seen.len(), 3, "two chunks and the EOF");
    assert!(peer.seen[0].is_empty(), "nothing to answer before the first byte");
    let mut first = std::io::Cursor::new(&peer.seen[1][..]);
    let resp = read_response(&mut first);
    assert_eq!((resp.status, resp.keep_alive), (200, true));
    assert_eq!(resp.body, summary_body(&st));
    assert_eq!(first.position() as usize, peer.seen[1].len(), "exactly the first response");
    assert_eq!(peer.seen[2], *wire, "the second follows before the next wait");
    let mut rest = std::io::Cursor::new(&wire[peer.seen[1].len()..]);
    assert_eq!(read_response(&mut rest).body, st.country("US").expect("US body"));

    let want = sleepwatch_core::ConnStats {
        requests: 2,
        responses: 2,
        bytes_out: wire.len() as u64,
        ..Default::default()
    };
    assert_eq!(stats, want);
    assert_eq!(delta.counters["serve.requests"], 2);
    assert_eq!(delta.counters["serve.responses_ok"], 2);
    assert_eq!(delta.counters["serve.bytes_out"], wire.len() as u64);
    assert_eq!(delta.counters["serve.write_errors"], 0);
}

// ---------------------------------------------------------------------
// Wire-level cases: a live server, real sockets, misbehaving peers
// concurrent with well-behaved ones.
// ---------------------------------------------------------------------

fn spawn_server(st: Arc<ServeState>, threads: usize, read_timeout_ms: u64) -> QueryServer {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServeConfig { threads, read_timeout: Duration::from_millis(read_timeout_ms) };
    QueryServer::spawn(listener, st, &cfg).expect("spawn server")
}

#[test]
fn stalled_socket_gets_408_and_the_connection_is_closed() {
    let _g = lock();
    let st = state();
    let server = spawn_server(st.clone(), 1, 150);
    let before = Snapshot::capture(sleepwatch_obs::global());

    let mut conn = HttpConnection::connect(server.addr());
    conn.writer().write_all(b"GET /v1/su").expect("partial write");
    // Stall past the server's 150ms deadline; it must answer 408.
    let resp = conn.get_response_only();
    assert_eq!((resp.status, resp.keep_alive), (408, false));
    assert_eq!(resp.body, "{\"error\":\"timed out waiting for a request\"}");

    // A fresh, well-behaved client is unaffected. `Connection: close`
    // keeps the counts exact: a lingering keep-alive connection would
    // time out too and count a second serve.read_timeouts.
    let ok = sleepwatch_testkit::httpclient::http_get(server.addr(), "/v1/summary");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, summary_body(&st));

    server.stop();
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    assert_eq!(delta.counters["serve.read_timeouts"], 1);
    assert_eq!(delta.counters["serve.connections"], 2);
}

/// `stop` returns while keep-alive clients sit idle on open connections,
/// one per worker: each worker blocked reading its client is woken by the
/// stop, not by its 30 s read timeout, counts no timeout, and closes the
/// connection.
#[test]
fn stop_is_bounded_with_idle_clients_attached() {
    let _g = lock();
    let st = state();
    let server = spawn_server(st.clone(), 2, 30_000);
    let mut conns: Vec<HttpConnection> =
        (0..2).map(|_| HttpConnection::connect(server.addr())).collect();
    // One answered request each: both connections are held by workers.
    for conn in &mut conns {
        assert_eq!(conn.get("/v1/summary").body, summary_body(&st));
    }
    let before = Snapshot::capture(sleepwatch_obs::global());
    let start = Instant::now();
    server.stop();
    let took = start.elapsed();
    let delta = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
    assert!(took < Duration::from_secs(2), "stop took {took:?} with idle clients attached");
    assert_eq!(delta.counters["serve.read_timeouts"], 0);
    for conn in &mut conns {
        let mut rest = Vec::new();
        let n = conn.reader().read_to_end(&mut rest).expect("read to EOF");
        assert_eq!(n, 0, "a stopped server closes its idle connections");
    }
}

#[test]
fn pipelined_garbage_gets_answers_then_a_400_then_eof() {
    let _g = lock();
    let st = state();
    let server = spawn_server(st.clone(), 1, 1_000);
    let mut conn = HttpConnection::connect(server.addr());
    conn.writer()
        .write_all(b"GET /v1/summary HTTP/1.1\r\n\r\nEHLO smtp.example\r\n\r\n")
        .expect("write batch");
    let first = conn.get_response_only();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, summary_body(&st));
    let second = conn.get_response_only();
    assert_eq!((second.status, second.keep_alive), (400, false));
    // After the 400 the server hangs up: the next read sees EOF.
    let mut leftover = Vec::new();
    let n = conn.reader().read_to_end(&mut leftover).expect("drain to EOF");
    assert_eq!(n, 0, "connection must be closed after a protocol error");
    server.stop();
}

#[test]
fn abrupt_disconnects_leave_concurrent_clients_byte_correct() {
    let _g = lock();
    let st = state();
    let server = spawn_server(st.clone(), 4, 200);
    let addr = server.addr();
    let want = summary_body(&st);
    let want_us = st.country("US").expect("US body").to_string();

    std::thread::scope(|s| {
        // Three flavors of misbehavior, repeatedly.
        for flavor in 0..3 {
            s.spawn(move || {
                for _ in 0..5 {
                    let mut conn = HttpConnection::connect(addr);
                    match flavor {
                        // Drop with nothing sent.
                        0 => {}
                        // Drop mid-request.
                        1 => {
                            let _ = conn.writer().write_all(b"GET /v1/sum");
                        }
                        // Send garbage, read the 400, drop.
                        _ => {
                            let _ = conn.writer().write_all(b"??\r\n\r\n");
                            let resp = conn.get_response_only();
                            assert_eq!(resp.status, 400);
                        }
                    }
                    drop(conn);
                }
            });
        }
        // Well-behaved clients interleave with the chaos and must see
        // exactly the indexed bytes every time.
        for _ in 0..2 {
            let (want, want_us) = (want.clone(), want_us.clone());
            s.spawn(move || {
                let mut conn = HttpConnection::connect(addr);
                for _ in 0..25 {
                    assert_eq!(conn.get("/v1/summary").body, want);
                    assert_eq!(conn.get("/v1/country/US").body, want_us);
                }
            });
        }
    });
    server.stop();
}
