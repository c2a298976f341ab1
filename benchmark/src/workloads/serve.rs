//! `serve_mixed`: the query service under a seeded mix of GETs.
//!
//! Fixture: a seed-joined dataset file of an analyzed world. Set-up:
//! `load_rows` + `ServeState::build` + `QueryServer::spawn` (one worker).
//! One repetition: a fixed number of GETs on one keep-alive connection,
//! written [`PIPELINE_DEPTH`] at a time, closed loop: at most
//! [`IN_FLIGHT_BATCHES`] batches are unanswered at any moment. The load
//! generator is one thread of this process. Every body is compared with
//! the answer computed without the index. The unit of work is a query.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sleepwatch_core::export::write_dataset_rows_bin_file;
use sleepwatch_core::serve::index::{
    as_body, block_body, country_body, link_body, query_body, summary_body, Filter, GroupCounts,
};
use sleepwatch_core::{
    analyze_world_source, dataset_rows, load_rows, DatasetRow, QueryServer, ServeConfig, ServeState,
};
use sleepwatch_simnet::{WorldConfig, WorldSource};

use super::{Inputs, Rng, Shape, ANALYSIS_THREADS, LRU_CAPACITY, SERVE_WORKERS, STREAM_MIX};
use crate::harness::{Check, RepOutcome, Timed, Workload, REP_SPAN};
use crate::procfs;
use crate::trace::Tracer;

/// Requests per pipelined write.
pub const PIPELINE_DEPTH: usize = 64;
/// Batches kept in flight: the next one is written as soon as the oldest
/// has been answered. With a single batch in flight client and server take
/// turns sleeping, and on this two-vCPU guest the wake-up of an idle vCPU
/// (tens of microseconds, twice per batch) then sets the rate and doubles
/// or halves it from run to run; with four the server always has requests
/// queued and the rate is the server's.
pub const IN_FLIGHT_BATCHES: usize = 4;
/// Entries of the seeded query table a repetition cycles through.
pub const MIX_ENTRIES: usize = 16_384;
/// Distinct ad-hoc filters that recur often enough to stay in the LRU.
const HOT_FILTERS: usize = 16;

/// The seeded query table: request targets with the bodies an index-free
/// fold over the rows gives for them.
#[derive(Debug)]
pub struct Mix {
    /// Request targets, in send order.
    pub targets: Vec<String>,
    /// Expected body of each target.
    pub expected: Vec<String>,
}

impl Mix {
    /// Draws [`MIX_ENTRIES`] targets over `rows`: 70 % `/v1/block/{id}`,
    /// 10 % group routes, 10 % ad-hoc queries over [`HOT_FILTERS`] filters
    /// that recur and so stay in the LRU, and 10 % ad-hoc `?as=N` (alone or
    /// with a `stationary` term) whose keys come round again only after
    /// every other one: far more distinct keys per cycle than the LRU
    /// holds, so each is a miss, an eviction and a scan of every row. Repeating keys drawn at random
    /// would leave the hit ratio to how many happened to be distinct — with
    /// an LRU cycled just above or below its capacity that is 0 or 1, and
    /// the cost of the workload would hang on the seed.
    pub fn build(rows: &[DatasetRow], seed: u64) -> Mix {
        let mut rng = Rng::new(seed, STREAM_MIX);
        let mut countries: BTreeMap<&str, GroupCounts> = BTreeMap::new();
        let mut ases: BTreeMap<u32, GroupCounts> = BTreeMap::new();
        let mut links: BTreeMap<&str, GroupCounts> = BTreeMap::new();
        for r in rows {
            if let Some(c) = &r.country {
                countries.entry(c).or_default().absorb(r);
            }
            ases.entry(r.asn).or_default().absorb(r);
            for l in &r.links {
                links.entry(l).or_default().absorb(r);
            }
        }
        let countries: Vec<(&str, GroupCounts)> = countries.into_iter().collect();
        let ases: Vec<(u32, GroupCounts)> = ases.into_iter().collect();
        let links: Vec<(&str, GroupCounts)> = links.into_iter().collect();

        let mut hot: Vec<(String, Filter)> = vec![
            ("stationary=true".into(), Filter { stationary: Some(true), ..Default::default() }),
            ("stationary=false".into(), Filter { stationary: Some(false), ..Default::default() }),
        ];
        for (c, _) in countries.iter().take((HOT_FILTERS - 2) / 2) {
            let f = Filter { country: Some(c.to_string()), ..Default::default() };
            hot.push((format!("country={c}"), f));
        }
        for (l, _) in links.iter().take(HOT_FILTERS - hot.len()) {
            hot.push((
                format!("link={l}"),
                Filter { link: Some(l.to_string()), ..Default::default() },
            ));
        }
        let hot: Vec<(String, String)> = hot
            .into_iter()
            .map(|(q, f)| (format!("/v1/query?{q}"), query_body(rows, &f)))
            .collect();

        let mut cold: Vec<(u32, Option<bool>)> = ases
            .iter()
            .flat_map(|(a, _)| [None, Some(true), Some(false)].map(|s| (*a, s)))
            .collect();
        for i in (1..cold.len()).rev() {
            cold.swap(i, rng.below(i + 1));
        }
        let mut cold = cold.into_iter().cycle();

        let mut mix = Mix { targets: Vec::new(), expected: Vec::new() };
        for _ in 0..MIX_ENTRIES {
            let (target, body) = match rng.below(10) {
                0..=6 => {
                    let r = &rows[rng.below(rows.len())];
                    (format!("/v1/block/{}", r.block_id), block_body(r))
                }
                7 => match rng.below(4) {
                    0 => ("/v1/summary".to_string(), summary_body(rows)),
                    1 if !countries.is_empty() => {
                        let (c, counts) = &countries[rng.below(countries.len())];
                        (format!("/v1/country/{c}"), country_body(c, counts))
                    }
                    2 if !links.is_empty() => {
                        let (l, counts) = &links[rng.below(links.len())];
                        (format!("/v1/link/{l}"), link_body(l, counts))
                    }
                    _ => {
                        let (a, counts) = &ases[rng.below(ases.len())];
                        (format!("/v1/as/{a}"), as_body(*a, counts))
                    }
                },
                8 => hot[rng.below(hot.len())].clone(),
                _ => {
                    let (asn, stationary) = cold.next().expect("rows have at least one AS");
                    let filter = Filter { asn: Some(asn), stationary, ..Default::default() };
                    let term = stationary.map_or(String::new(), |s| format!("&stationary={s}"));
                    (format!("/v1/query?as={asn}{term}"), query_body(rows, &filter))
                }
            };
            mix.targets.push(target);
            mix.expected.push(body);
        }
        mix
    }

    /// The table as pipelined request bytes, one buffer per batch of
    /// [`PIPELINE_DEPTH`].
    pub fn batches(&self) -> Vec<Vec<u8>> {
        self.targets
            .chunks(PIPELINE_DEPTH)
            .map(|chunk| {
                chunk
                    .iter()
                    .flat_map(|t| format!("GET {t} HTTP/1.1\r\n\r\n").into_bytes())
                    .collect()
            })
            .collect()
    }
}

/// One keep-alive connection of the load generator.
///
/// The socket is non-blocking and the client polls it without ever
/// sleeping. A client that blocks in `read` halts its vCPU between
/// batches; on this guest waking a halted vCPU costs anything from tens of
/// microseconds to milliseconds depending on what else the host runs, and
/// that latency — not the server — then sets the measured rate (two runs
/// of one commit and seed differed by 2x). Polling keeps the
/// generator runnable, so the server's own speed is what is measured.
/// Responses are parsed with the client's own code out of one buffer.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Longest the client polls for one response before giving up.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);

impl Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the query server");
        stream.set_nodelay(true).expect("set nodelay");
        stream.set_nonblocking(true).expect("set non-blocking");
        Client { stream, buf: vec![0; 256 << 10], start: 0, end: 0 }
    }

    /// Writes raw request bytes.
    pub fn send(&mut self, mut requests: &[u8]) {
        while !requests.is_empty() {
            match self.stream.write(requests) {
                Ok(n) => requests = &requests[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::hint::spin_loop();
                }
                Err(e) => panic!("send requests: {e}"),
            }
        }
    }

    /// Polls until at least one more byte is buffered.
    fn fill(&mut self, deadline: Instant) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => panic!("the server closed the connection mid-run"),
                Ok(n) => {
                    self.end += n;
                    return;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    assert!(Instant::now() < deadline, "no response within {RESPONSE_DEADLINE:?}");
                    std::hint::spin_loop();
                }
                Err(e) => panic!("read a response: {e}"),
            }
        }
    }

    /// Reads one response; returns its status and borrows its body.
    pub fn read_response(&mut self) -> (u16, &[u8]) {
        let deadline = Instant::now() + RESPONSE_DEADLINE;
        let head_len = loop {
            let pending = &self.buf[self.start..self.end];
            if let Some(i) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill(deadline);
        };
        let head = std::str::from_utf8(&self.buf[self.start..self.start + head_len])
            .expect("an ASCII response head");
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .expect("a numeric content-length");
        while self.end - self.start < head_len + length {
            self.fill(deadline);
        }
        let body = self.start + head_len;
        self.start = body + length;
        (status, &self.buf[body..body + length])
    }

    /// One unpipelined GET; returns status and body.
    pub fn get(&mut self, target: &str) -> (u16, &[u8]) {
        self.send(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes());
        self.read_response()
    }
}

/// Starts a query server over `state` on an ephemeral loopback port.
pub fn spawn_server(state: &Arc<ServeState>) -> QueryServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback query listener");
    let cfg = ServeConfig { threads: SERVE_WORKERS, read_timeout: Duration::from_secs(30) };
    QueryServer::spawn(listener, state.clone(), &cfg).expect("spawn the query server")
}

/// The serving workload.
#[derive(Debug)]
pub struct Serve {
    shape: Shape,
    seed: u64,
}

impl Serve {
    /// The serving workload of `shape`, inputs derived from `seed`.
    pub fn new(shape: Shape, seed: u64) -> Serve {
        Serve { shape, seed }
    }
}

/// A running server, its client and the query table.
#[derive(Debug)]
pub struct ServeSystem {
    inputs: Inputs,
    state: Arc<ServeState>,
    server: QueryServer,
    client: Client,
    mix: Mix,
    batches: Vec<Vec<u8>>,
}

impl Workload for Serve {
    type System = ServeSystem;

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn setup(&self, dir: &Path) -> (ServeSystem, f64) {
        let inputs = Inputs::derive(&self.shape, self.seed);
        let dataset = dir.join(format!("{}.bin", self.shape.name));

        // Fixture: the dataset file a batch run would have left behind,
        // and the query table with its index-free answers.
        let start = Instant::now();
        let source = WorldSource::new(inputs.wcfg.clone());
        let analysis = analyze_world_source(&source, &inputs.cfg, ANALYSIS_THREADS, None);
        assert!(analysis.quarantined.is_empty(), "fixture quarantined blocks");
        let rows = dataset_rows(&analysis);
        write_dataset_rows_bin_file(&dataset, &rows, Some(&inputs.wcfg))
            .expect("write the fixture dataset inside the benchmark's out directory");
        let mix = Mix::build(&rows, self.seed);
        let batches = mix.batches();
        drop((analysis, rows, source));
        let fixture_s = start.elapsed().as_secs_f64();

        // System set-up.
        let loaded = load_rows(&dataset, Some(&inputs.wcfg), &inputs.expect)
            .expect("load the fixture dataset");
        let state = Arc::new(ServeState::build(loaded, LRU_CAPACITY));
        let server = spawn_server(&state);
        let client = Client::connect(server.addr());
        (ServeSystem { inputs, state, server, client, mix, batches }, fixture_s)
    }

    fn rep(&self, sys: &mut ServeSystem, t: &mut Tracer) -> RepOutcome {
        let n_batches = self.shape.queries.div_ceil(PIPELINE_DEPTH);
        let mut failed = 0u64;
        let mut served = 0u64;
        let root = t.enter(REP_SPAN);
        let own_cpu = procfs::thread_cpu_s();
        let timed = Timed::start();
        for b in 0..IN_FLIGHT_BATCHES.min(n_batches) {
            sys.client.send(&sys.batches[b % sys.batches.len()]);
        }
        for b in 0..n_batches {
            let slot = b % sys.batches.len();
            let expected = &sys.mix.expected[slot * PIPELINE_DEPTH..];
            let open = t.enter("serve.pipelined_batch");
            for want in expected.iter().take(PIPELINE_DEPTH) {
                let (status, body) = sys.client.read_response();
                if status != 200 || body != want.as_bytes() {
                    failed += 1;
                }
                served += 1;
            }
            if b + IN_FLIGHT_BATCHES < n_batches {
                sys.client.send(&sys.batches[(b + IN_FLIGHT_BATCHES) % sys.batches.len()]);
            }
            t.exit(open);
        }
        let (wall_s, cpu_s) = timed.stop();
        // The polling generator is this thread; the system's CPU is the rest.
        let cpu_s = (cpu_s - (procfs::thread_cpu_s() - own_cpu)).max(0.0);
        t.exit(root);
        RepOutcome { wall_s, cpu_s, units: served, checked: served, failed }
    }

    fn check(&self, sys: &ServeSystem) -> Check {
        // The table's bodies were computed from the analysis; the served
        // state was decoded from the file. Cross-check the two row by row
        // through the index: every block's served body is its row's body.
        let rows = sys.state.rows();
        let bad =
            rows.iter().filter(|r| sys.state.block(r.block_id) != Some(block_body(r))).count();
        Check { checked: rows.len() as u64, failed: bad as u64 }
    }

    fn rows(&self, sys: &ServeSystem) -> (Vec<DatasetRow>, WorldConfig) {
        (sys.state.rows().to_vec(), sys.inputs.wcfg.clone())
    }

    fn teardown(&self, sys: ServeSystem) {
        drop(sys.client); // closes the connection so the worker returns to its accept loop
        sys.server.stop();
    }
}
