//! Batch-differential oracle for the query service.
//!
//! Every answer the server gives must equal, byte for byte, what
//! straight-line batch code computes from the same decoded rows — no
//! indexes, no cache, just folds written independently in this file.
//! The matrix: every `FaultPlan` preset (plus the fault-free world) ×
//! both `SLPWBIN1` dataset modes × 1/4/8 server threads, with the
//! multi-threaded configurations queried by concurrent clients. A world
//! loaded from a checkpoint journal (either record version, appended
//! out of order, with duplicates) must produce the same rows — and the
//! same served bytes — as the dataset-loaded one.
//!
//! Scale: [`WORLD`]'s blocks, fewer in a debug build so tier-1 runs
//! stay tractable while release runs cover the full world.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;

use sleepwatch_core::journal::open_resume;
use sleepwatch_core::serve::{
    rows_from_dataset_bytes, rows_from_journal_bytes, QueryServer, ServeConfig, ServeState,
};
use sleepwatch_core::{
    dataset_rows, encode_dataset, run_identity, DatasetMode, DatasetRow, JournalHeader,
};
use sleepwatch_spectral::DiurnalClass;
use sleepwatch_testkit::httpclient::HttpConnection;
use sleepwatch_testkit::matrix::{fault, OracleWorld, THREADS};
use sleepwatch_testkit::resilience::scratch_path;

/// The span covers every named fault preset, including the blackout
/// window (the calibration the ingest oracle uses).
const WORLD: OracleWorld = OracleWorld {
    seed: 0x5E12_7E01,
    blocks: if cfg!(debug_assertions) { 120 } else { 5_000 },
    days: 1.75,
};

/// The canonical rows for one preset, straight from the batch pipeline.
fn reference_rows(name: &str) -> Vec<DatasetRow> {
    let analysis = WORLD.batch(name);
    assert!(analysis.quarantined.is_empty(), "{name}: reference run quarantined blocks");
    dataset_rows(analysis)
}

// ---------------------------------------------------------------------
// The index-free recomputation: every body the server can produce,
// rendered by straight-line folds over the rows. Written independently
// of `core::serve::index` on purpose — agreement of two implementations
// is the oracle.
// ---------------------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct Counts {
    blocks: u64,
    strict: u64,
    diurnal: u64,
    stationary: u64,
}

fn fold<'a>(rows: impl Iterator<Item = &'a DatasetRow>) -> Counts {
    let mut c = Counts::default();
    for r in rows {
        c.blocks += 1;
        c.strict += u64::from(r.class == DiurnalClass::Strict);
        c.diurnal += u64::from(r.class != DiurnalClass::NonDiurnal);
        c.stationary += u64::from(r.stationary);
    }
    c
}

fn frac(x: u64, y: u64) -> String {
    if y == 0 {
        "0.000000".to_string()
    } else {
        format!("{:.6}", x as f64 / y as f64)
    }
}

fn group_tail(c: Counts) -> String {
    format!(
        "\"blocks\":{},\"strict\":{},\"diurnal\":{},\"strict_fraction\":{},\"diurnal_fraction\":{}",
        c.blocks,
        c.strict,
        c.diurnal,
        frac(c.strict, c.blocks),
        frac(c.diurnal, c.blocks),
    )
}

fn batch_summary(rows: &[DatasetRow]) -> String {
    let c = fold(rows.iter());
    let located = rows.iter().filter(|r| r.country.is_some()).count();
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

fn batch_country(rows: &[DatasetRow], code: &str) -> String {
    let c = fold(rows.iter().filter(|r| r.country == Some(code)));
    format!("{{\"country\":\"{code}\",{}}}", group_tail(c))
}

fn batch_as(rows: &[DatasetRow], asn: u32) -> String {
    let c = fold(rows.iter().filter(|r| r.asn == asn));
    format!("{{\"asn\":{asn},{}}}", group_tail(c))
}

fn batch_link(rows: &[DatasetRow], kw: &str) -> String {
    let c = fold(rows.iter().filter(|r| r.links.into_iter().any(|l| l == kw)));
    format!("{{\"link\":\"{kw}\",{}}}", group_tail(c))
}

fn batch_block(r: &DatasetRow) -> String {
    let class = match r.class {
        DiurnalClass::Strict => "d",
        DiurnalClass::Relaxed => "r",
        DiurnalClass::NonDiurnal => "n",
    };
    let phase = r.phase.map(|p| format!("{p:.6}")).unwrap_or_else(|| "null".into());
    let country = r.country.map(|c| format!("\"{c}\"")).unwrap_or_else(|| "null".into());
    let links: Vec<String> = r.links.into_iter().map(|l| format!("\"{l}\"")).collect();
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

fn batch_outages(rows: &[DatasetRow]) -> String {
    let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut total, mut with) = (0u64, 0u64);
    for r in rows {
        *hist.entry(r.outages).or_insert(0) += 1;
        total += u64::from(r.outages);
        with += u64::from(r.outages > 0);
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

/// One ad-hoc filter and its straight-fold answer.
fn batch_query(
    rows: &[DatasetRow],
    country: Option<&str>,
    asn: Option<u32>,
    link: Option<&str>,
    stationary: Option<bool>,
) -> String {
    let c = fold(rows.iter().filter(|r| {
        country.map_or(true, |c| r.country == Some(c))
            && asn.map_or(true, |a| r.asn == a)
            && link.map_or(true, |l| r.links.into_iter().any(|k| k == l))
            && stationary.map_or(true, |s| r.stationary == s)
    }));
    let mut echo = Vec::new();
    if let Some(cc) = country {
        echo.push(format!("\"country\":\"{cc}\""));
    }
    if let Some(a) = asn {
        echo.push(format!("\"asn\":{a}"));
    }
    if let Some(l) = link {
        echo.push(format!("\"link\":\"{l}\""));
    }
    if let Some(s) = stationary {
        echo.push(format!("\"stationary\":{s}"));
    }
    format!(
        "{{\"filter\":{{{}}},\"blocks\":{},\"strict\":{},\"diurnal\":{},\"stationary\":{},\
         \"strict_fraction\":{}}}",
        echo.join(","),
        c.blocks,
        c.strict,
        c.diurnal,
        c.stationary,
        frac(c.strict, c.blocks),
    )
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{msg}\"}}")
}

/// Builds the full query plan for `rows`: every key of every dimension,
/// randomized per-block lookups, ad-hoc filters, and the error paths —
/// each with the status and exact body the server owes.
fn query_plan(rows: &[DatasetRow]) -> Vec<(String, u16, String)> {
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|r| r.block_id);
    let rows = &sorted[..];
    let mut plan: Vec<(String, u16, String)> = Vec::new();
    let mut push = |p: String, s: u16, b: String| plan.push((p, s, b));

    push("/v1/summary".into(), 200, batch_summary(rows));
    push("/v1/outages".into(), 200, batch_outages(rows));

    let codes: Vec<String> = {
        let mut c: Vec<String> = rows.iter().filter_map(|r| r.country.map(String::from)).collect();
        c.sort();
        c.dedup();
        c
    };
    let country_list: Vec<String> = codes.iter().map(|c| batch_country(rows, c)).collect();
    push("/v1/country".into(), 200, format!("{{\"countries\":[{}]}}", country_list.join(",")));
    for c in &codes {
        push(format!("/v1/country/{c}"), 200, batch_country(rows, c));
    }
    push("/v1/country/ZZ".into(), 404, err_body("unknown country"));

    let asns: Vec<u32> = {
        let mut a: Vec<u32> = rows.iter().map(|r| r.asn).collect();
        a.sort_unstable();
        a.dedup();
        a
    };
    let as_list: Vec<String> = asns.iter().map(|&a| batch_as(rows, a)).collect();
    push("/v1/as".into(), 200, format!("{{\"ases\":[{}]}}", as_list.join(",")));
    for &a in &asns {
        push(format!("/v1/as/{a}"), 200, batch_as(rows, a));
    }
    let absent_as = asns.last().copied().unwrap_or(0) + 1;
    push(format!("/v1/as/{absent_as}"), 404, err_body("unknown as"));
    push("/v1/as/notanumber".into(), 400, err_body("malformed AS number"));

    let links: Vec<String> = {
        let mut l: Vec<String> =
            rows.iter().flat_map(|r| r.links.into_iter().map(String::from)).collect();
        l.sort();
        l.dedup();
        l
    };
    let link_list: Vec<String> = links.iter().map(|l| batch_link(rows, l)).collect();
    push("/v1/link".into(), 200, format!("{{\"links\":[{}]}}", link_list.join(",")));
    for l in &links {
        push(format!("/v1/link/{l}"), 200, batch_link(rows, l));
    }
    push("/v1/link/carrierpigeon".into(), 404, err_body("unknown link"));

    // Randomized per-block lookups: 32 rows picked by a seeded LCG.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..32 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = &rows[(x >> 33) as usize % rows.len()];
        push(format!("/v1/block/{}", r.block_id), 200, batch_block(r));
    }
    let absent_block = rows.last().map(|r| r.block_id).unwrap_or(0) + 1;
    push(format!("/v1/block/{absent_block}"), 404, err_body("unknown block"));
    push("/v1/block/abc".into(), 400, err_body("malformed block id"));

    // Ad-hoc cross-dimension filters (the LRU path), issued twice per
    // plan run so hits must serve the same bytes as misses.
    let mut filters: Vec<(String, String)> = Vec::new();
    filters.push(("/v1/query".into(), batch_query(rows, None, None, None, None)));
    for c in codes.iter().take(3) {
        filters
            .push((format!("/v1/query?country={c}"), batch_query(rows, Some(c), None, None, None)));
        if let Some(l) = links.first() {
            filters.push((
                format!("/v1/query?country={c}&link={l}"),
                batch_query(rows, Some(c), None, Some(l), None),
            ));
        }
    }
    if let Some(&a) = asns.first() {
        filters.push((
            format!("/v1/query?as={a}&stationary=true"),
            batch_query(rows, None, Some(a), None, Some(true)),
        ));
    }
    filters
        .push(("/v1/query?stationary=0".into(), batch_query(rows, None, None, None, Some(false))));
    for (p, b) in &filters {
        push(p.clone(), 200, b.clone());
    }
    for (p, b) in &filters {
        push(p.clone(), 200, b.clone());
    }
    push("/v1/query?bogus=1".into(), 400, err_body("unknown query parameter \\\"bogus\\\""));
    push(
        "/v1/query?country=US&country=US".into(),
        400,
        err_body("duplicate query parameter \\\"country\\\""),
    );

    push("/v1/nope".into(), 404, err_body("no such route"));
    push("/v1/summary?x=1".into(), 400, err_body("this route takes no query string"));
    plan
}

/// Runs the plan against a live server on one kept-alive connection.
fn run_plan(addr: std::net::SocketAddr, plan: &[(String, u16, String)], tag: &str) {
    let mut conn = HttpConnection::connect(addr);
    for (path, status, body) in plan {
        let resp = conn.get(path);
        assert_eq!(resp.status, *status, "{tag}: status diverged on {path}");
        assert_eq!(&resp.body, body, "{tag}: body diverged on {path}");
    }
}

/// Spins a server over `rows` at each thread count and holds every
/// served answer to the batch plan — concurrently when multi-threaded.
fn check_serving(rows: &[DatasetRow], plan: &[(String, u16, String)], tag: &str) {
    for threads in THREADS {
        let state = Arc::new(ServeState::build(rows.to_vec(), 64));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cfg = ServeConfig { threads, ..ServeConfig::default() };
        let server = QueryServer::spawn(listener, state, &cfg).expect("spawn server");
        let addr = server.addr();
        let tag = format!("{tag}@{threads}t");
        if threads == 1 {
            run_plan(addr, plan, &tag);
            // Pipelined batch: same bytes, one write.
            let mut conn = HttpConnection::connect(addr);
            let paths: Vec<&str> = plan.iter().take(24).map(|(p, _, _)| p.as_str()).collect();
            let got = conn.get_pipelined(&paths);
            for ((path, status, body), resp) in plan.iter().take(24).zip(got) {
                assert_eq!(resp.status, *status, "{tag} pipelined: status on {path}");
                assert_eq!(&resp.body, body, "{tag} pipelined: body on {path}");
            }
        } else {
            std::thread::scope(|s| {
                for c in 0..4 {
                    let tag = format!("{tag} client{c}");
                    s.spawn(move || run_plan(addr, plan, &tag));
                }
            });
        }
        // /metrics serves the live registry (not byte-stable; shape only).
        let mut conn = HttpConnection::connect(addr);
        let m = conn.get("/metrics");
        assert_eq!(m.status, 200, "{tag}: /metrics status");
        assert!(m.body.contains("\"serve.requests\":"), "{tag}: /metrics shape: {}", m.body);
        server.stop();
    }
}

/// The oracle body for one fault preset: encode both dataset modes,
/// decode each into servable rows, and hold every served answer to the
/// batch recomputation at every thread count.
fn serve_differential(name: &str) {
    let rows = reference_rows(name);
    let plan = query_plan(&rows);
    let wcfg = WORLD.world_cfg();
    for (mode_name, mode) in [
        ("self-contained", DatasetMode::SelfContained),
        ("seed-joined", DatasetMode::SeedJoined(&wcfg)),
    ] {
        let mut sorted = rows.clone();
        sorted.sort_by_key(|r| r.block_id);
        let bytes = encode_dataset(&sorted, mode).expect("encode dataset");
        let world = matches!(mode, DatasetMode::SeedJoined(_)).then_some(&wcfg);
        let decoded = rows_from_dataset_bytes(&bytes, world).expect("decode dataset");
        assert_eq!(decoded, sorted, "{name}/{mode_name}: decode changed the rows");
        check_serving(&decoded, &plan, &format!("{name}/{mode_name}"));
    }
}

sleepwatch_testkit::fault_tests!(serve_differential);

/// A journal-loaded world must serve exactly the bytes a dataset-loaded
/// one does: the journal is appended in reverse block order with
/// duplicated records (first occurrence wins on replay), and both
/// loaders' servers get the full query plan.
#[test]
fn journal_loaded_equals_dataset_loaded() {
    let name = "loss-light";
    let cfg = WORLD.cfg(fault(name));
    let analysis = WORLD.batch(name);
    assert!(analysis.quarantined.is_empty(), "reference run quarantined blocks");
    let rows = dataset_rows(analysis);

    let header = JournalHeader::from_identity(&run_identity(WORLD.seed, WORLD.blocks, &cfg));
    let path = scratch_path("serve-oracle");
    {
        let (mut writer, replayed, _) = open_resume(&path, &header).expect("open journal");
        assert!(replayed.is_empty(), "scratch journal must start empty");
        for r in analysis.reports.iter().rev() {
            assert!(writer.append(r).expect("append"), "report must fit the frame");
        }
        // Duplicates: replay keeps the first occurrence of each block.
        for r in analysis.reports.iter().take(3) {
            assert!(writer.append(r).expect("append dup"), "dup must fit the frame");
        }
        writer.sync().expect("sync journal");
    }
    let bytes = std::fs::read(&path).expect("read journal");
    let from_journal = rows_from_journal_bytes(&bytes, &header).expect("rows from journal");
    let mut sorted = rows.clone();
    sorted.sort_by_key(|r| r.block_id);
    assert_eq!(from_journal, sorted, "journal rows diverged from dataset rows");

    // Same bytes over HTTP from both loaders.
    let plan = query_plan(&rows);
    let bin = encode_dataset(&sorted, DatasetMode::SelfContained).expect("encode");
    let from_dataset = rows_from_dataset_bytes(&bin, None).expect("decode");
    for (tag, loaded) in [("dataset", from_dataset), ("journal", from_journal)] {
        let state = Arc::new(ServeState::build(loaded, 64));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server =
            QueryServer::spawn(listener, state, &ServeConfig::default()).expect("spawn server");
        run_plan(server.addr(), &plan, tag);
        server.stop();
    }
    let _ = std::fs::remove_file(&path);
}

/// A journal from a different run is refused, not served.
#[test]
fn foreign_journal_is_refused() {
    let cfg = WORLD.cfg(fault("none"));
    let ours = JournalHeader::from_identity(&run_identity(WORLD.seed, WORLD.blocks, &cfg));
    let theirs = JournalHeader::from_identity(&run_identity(WORLD.seed + 1, 7, &cfg));
    let path = scratch_path("serve-foreign");
    {
        let (mut w, _, _) = open_resume(&path, &theirs).expect("open journal");
        w.sync().expect("sync");
    }
    let bytes = std::fs::read(&path).expect("read journal");
    let err = rows_from_journal_bytes(&bytes, &ours);
    assert!(
        matches!(err, Err(sleepwatch_core::serve::LoadError::ForeignJournal { .. })),
        "foreign journal must be refused: {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}
