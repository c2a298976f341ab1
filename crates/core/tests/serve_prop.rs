//! Property-based tests for the query service's protocol and cache
//! layers: the request parser is total over arbitrary byte soup and its
//! limits actually bind, every JSON payload the routes can produce
//! round-trips through the response serializer (and is well-formed
//! JSON), and the sharded LRU honours its invariants — capacity never
//! exceeded, every lookup is exactly a hit or a miss, and evictions
//! strike the least-recently-used entry, pinned against a
//! model-checked reference. The request path's writers are held to the
//! formatter they replaced: `push_fixed` to `{:.N}` bit pattern for bit
//! pattern, `write_block_body` to a `format!` rendition kept here, and the
//! posting-list `query` to the index-free `query_body`.

use proptest::prelude::*;
use sleepwatch_core::serve::http::{
    error_body, read_request, write_response, RequestError, MAX_HEADERS, MAX_REQUEST_LINE,
};
use sleepwatch_core::serve::index::{push_fixed, query_body, write_block_body, Filter};
use sleepwatch_core::serve::{route, LruOutcome, LruShard, ShardedLru};
use sleepwatch_core::{analyze_world, dataset_rows, AnalysisConfig, DatasetRow, ServeState};
use sleepwatch_geoecon::YearMonth;
use sleepwatch_geoecon::COUNTRIES as TABLE;
use sleepwatch_linktype::{LinkFeature, LinkSet};
use sleepwatch_simnet::{World, WorldConfig};
use sleepwatch_spectral::DiurnalClass;
use std::io::BufReader;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// A small analyzed world: real rows exercise located and unlocated
/// blocks, every class, phases, and multi-keyword link lists.
fn state() -> &'static ServeState {
    static STATE: OnceLock<ServeState> = OnceLock::new();
    STATE.get_or_init(|| {
        let wcfg = WorldConfig { num_blocks: 48, seed: 11, span_days: 1.0, ..Default::default() };
        let world = World::generate(wcfg);
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
        let analysis = analyze_world(&world, &cfg, 2, None);
        assert!(analysis.quarantined.is_empty());
        ServeState::build(dataset_rows(&analysis), 32)
    })
}

/// One of every JSON payload type the service can put in a response
/// body: the group bodies, the list bodies, a block body, the outage
/// histogram, ad-hoc query results, the metrics dump, and error bodies.
fn payloads() -> &'static Vec<String> {
    static BODIES: OnceLock<Vec<String>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let st = state();
        let rows = st.rows();
        let mut bodies = vec![
            st.summary().to_string(),
            st.countries().to_string(),
            st.ases().to_string(),
            st.links().to_string(),
            st.outages().to_string(),
            route(st, "/metrics").2,
            error_body("unknown country"),
            error_body("unknown query parameter \"bogus\""),
        ];
        let code = rows.iter().find_map(|r| r.country).expect("a located row");
        bodies.push(st.country(code).expect("country body").to_string());
        bodies.push(st.asn(rows[0].asn).expect("as body").to_string());
        let kw = rows.iter().find_map(|r| r.links.into_iter().next()).expect("a link keyword");
        bodies.push(st.link(kw).expect("link body").to_string());
        bodies.push(st.block(rows[0].block_id).expect("block body"));
        for filter in [
            Filter::default(),
            Filter { country: Some(code.into()), ..Filter::default() },
            Filter { link: Some(kw.into()), stationary: Some(true), ..Filter::default() },
        ] {
            bodies.push(st.query(&filter).0);
        }
        bodies
    })
}

// ---------------------------------------------------------------------
// A strict little JSON syntax checker — every served body must be
// well-formed JSON, whatever the route or filter.
// ---------------------------------------------------------------------

struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Json<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit() || *c == b'.') {
            self.i += 1;
        }
        if self.i == start {
            Err(format!("empty number at byte {start}"))
        } else {
            Ok(())
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => self.i += 2,
                c if c < 0x20 => return Err(format!("raw control byte at {}", self.i)),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.value()?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object separator {other:?} at {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                other => return Err(format!("bad array separator {other:?} at {}", self.i)),
            }
        }
    }
}

fn assert_json(body: &str) {
    let mut p = Json { b: body.as_bytes(), i: 0 };
    p.value().unwrap_or_else(|e| panic!("not JSON: {e}\nbody: {body}"));
    p.ws();
    assert_eq!(p.i, body.len(), "trailing bytes after JSON value: {body}");
}

/// A minimal response parser for the round-trip property — independent
/// of the server's writer (testkit's client would be a dependency
/// cycle from core's test suite).
fn parse_response(bytes: &[u8]) -> (u16, bool, usize, String) {
    let text = std::str::from_utf8(bytes).expect("ascii response head");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    assert!(status_line.starts_with("HTTP/1.1 "), "{status_line}");
    let status: u16 = status_line[9..12].parse().expect("status code");
    let mut content_length = None;
    let mut keep_alive = None;
    for line in lines {
        let (name, value) = line.split_once(": ").expect("header");
        match name {
            "Content-Length" => content_length = Some(value.parse().expect("length")),
            "Connection" => keep_alive = Some(value == "keep-alive"),
            "Content-Type" => assert_eq!(value, "application/json"),
            other => panic!("unexpected header {other}"),
        }
    }
    (status, keep_alive.expect("Connection header"), content_length.expect("length"), body.into())
}

// ---------------------------------------------------------------------
// A reference LRU: exact recency order, no sharding, obviously correct.
// ---------------------------------------------------------------------

#[derive(Default)]
struct ModelLru {
    cap: usize,
    /// Most recent last.
    order: Vec<(String, String)>,
}

impl ModelLru {
    fn get(&mut self, key: &str) -> Option<String> {
        let i = self.order.iter().position(|(k, _)| k == key)?;
        let e = self.order.remove(i);
        let v = e.1.clone();
        self.order.push(e);
        Some(v)
    }

    fn insert(&mut self, key: &str, value: &str) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(i) = self.order.iter().position(|(k, _)| k == key) {
            self.order.remove(i);
            self.order.push((key.into(), value.into()));
            return false;
        }
        let evicted = self.order.len() >= self.cap;
        if evicted {
            self.order.remove(0);
        }
        self.order.push((key.into(), value.into()));
        evicted
    }

    fn oldest(&self) -> Option<&str> {
        self.order.first().map(|(k, _)| k.as_str())
    }
}

// ---------------------------------------------------------------------
// Generators and references for the writer ≡ formatter properties.
// ---------------------------------------------------------------------

/// Strings of everything the JSON escaper has a rule for, and of what it
/// must leave alone.
fn tricky_string() -> impl Strategy<Value = String> {
    const PALETTE: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '日', '😀',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// Doubles: arbitrary bit patterns, and the ranges served values live in
/// (fractions, small magnitudes, and either side of ±1e9).
fn any_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..4, 0.0f64..1.0).prop_map(|(bits, kind, unit)| match kind {
        0 => f64::from_bits(bits),
        1 => unit,
        2 => unit * 1e3,
        _ => unit * 4e9 - 2e9,
    })
}

/// Rows of any values the row type can hold: any country of the table or
/// none, any set of the sixteen link features.
fn any_row() -> impl Strategy<Value = DatasetRow> {
    (
        (any::<u64>(), 0usize..3, proptest::option::of(any_f64()), any_f64(), any_f64()),
        (any::<bool>(), any::<u32>(), any::<u64>(), any::<u32>()),
        (proptest::option::of(0..TABLE.len()), any::<u16>()),
    )
        .prop_map(|(spectral, counts, keys)| {
            let (block_id, class, phase, mean_a, strongest_cpd) = spectral;
            let (stationary, outages, probes, asn) = counts;
            let (country, links) = keys;
            DatasetRow {
                block_id,
                class: [DiurnalClass::Strict, DiurnalClass::Relaxed, DiurnalClass::NonDiurnal]
                    [class],
                phase,
                mean_a,
                strongest_cpd,
                stationary,
                outages,
                probes,
                lon: None,
                lat: None,
                country: country.map(|i| TABLE[i].code),
                centroid: false,
                alloc: YearMonth::new(2001, 5),
                asn,
                links: LinkSet::from_bits(links),
            }
        })
}

const COUNTRIES: [&str; 3] = ["US", "DE", "JP"];
const LINKS: [LinkFeature; 3] = [LinkFeature::Dsl, LinkFeature::Cable, LinkFeature::Wifi];

/// Arbitrary rows over a key space small enough for filters to meet:
/// three countries or none, six ASes, up to three link features.
fn small_world() -> impl Strategy<Value = Vec<DatasetRow>> {
    let keys = (0usize..4, 0u32..6, proptest::collection::vec(0usize..3, 0..4));
    proptest::collection::vec((any_row(), keys), 0..40).prop_map(|rows| {
        rows.into_iter()
            .map(|(row, (country, asn, links))| DatasetRow {
                country: COUNTRIES.get(country).copied(),
                asn,
                links: links.into_iter().map(|l| LINKS[l]).collect(),
                ..row
            })
            .collect()
    })
}

/// Filters over that key space and just past it: a country, two ASes and
/// a keyword that no row carries — the strings among them tricky, so the
/// `/v1/query` echo goes through the JSON escaper.
fn any_filter() -> impl Strategy<Value = Filter> {
    let pick = |keys: [&'static str; 3]| {
        (proptest::option::of(0usize..5), tricky_string())
            .prop_map(move |(i, absent)| i.map(|i| keys.get(i).map_or(absent, |k| k.to_string())))
    };
    (
        pick(COUNTRIES),
        proptest::option::of(0u32..8),
        pick(LINKS.map(LinkFeature::keyword)),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(country, asn, link, stationary)| Filter { country, asn, link, stationary })
}

/// The JSON escaper's rules, spelled a second time.
fn reference_json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// The `/v1/block/{id}` body as one `format!`.
fn reference_block_body(r: &DatasetRow) -> String {
    let class = match r.class {
        DiurnalClass::Strict => "d",
        DiurnalClass::Relaxed => "r",
        DiurnalClass::NonDiurnal => "n",
    };
    let phase = r.phase.map_or("null".to_string(), |p| format!("{p:.6}"));
    let country = r.country.map_or("null".to_string(), reference_json_str);
    let links: Vec<String> = r.links.into_iter().map(reference_json_str).collect();
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

fn assert_fixed_is_format(v: f64) {
    for decimals in [0, 4, 6, 9, 10] {
        let mut got = String::from("=");
        push_fixed(&mut got, v, decimals);
        assert_eq!(got, format!("={v:.decimals$}"), "{v:e} ({:#018x}) at {decimals}", v.to_bits());
    }
}

/// The seeded hard cases of `push_fixed`: exact ties and their
/// neighbours, carries into the integer part, the edges of the range it
/// answers itself, and the values the dataset decoder emits — each at
/// `-v` as well as at `v`, since `{:.N}` rounds the magnitude behind the
/// sign.
#[test]
fn push_fixed_hard_cases() {
    let with_neighbours = |v: f64| {
        for bits in [v.to_bits().wrapping_sub(1), v.to_bits(), v.to_bits() + 1] {
            assert_fixed_is_format(f64::from_bits(bits));
            assert_fixed_is_format(-f64::from_bits(bits));
        }
    };
    // Odd multiples of 1/128 and 1/32 are exact ties at 6 and 4 decimals.
    for k in (1..4000u32).step_by(2) {
        for base in [0.0, 7.0, 123_456.0, 999_999_936.0] {
            with_neighbours(base + f64::from(k) / 128.0);
            with_neighbours(base + f64::from(k) / 32.0);
        }
    }
    // Carries into the integer part, from both sides of the rounding point.
    for whole in [0.0, 1.0, 9.0, 99.0, 999_999.0, 999_999_998.0, 999_999_999.0] {
        for frac in [0.9999995, 0.99999949, 0.99999951, 0.99995, 0.999949, 0.999951, 0.5] {
            with_neighbours(whole + frac);
        }
    }
    for v in [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::EPSILON,
        5e-7,
        5e-5,
        1e9,
        1e15,
        1e300,
        f64::MAX,
        f64::INFINITY,
    ] {
        with_neighbours(v);
        assert_fixed_is_format(-v);
    }
    assert_fixed_is_format(f64::NAN);
    // What `SLPWBIN1` decodes a quantized column to: every q in a dense
    // range, then strides out to a million and into the negatives.
    for q in (0..100_000i64).chain((0..100_000).map(|k| k * 9_999_973)) {
        assert_fixed_is_format(q as f64 / 1e6);
        assert_fixed_is_format(-q as f64 / 1e6);
    }
    for q in (1..2_000i64).map(|k| k * -104_729) {
        assert_fixed_is_format(q as f64 / 1e6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `push_fixed` ≡ `format!("{v:.N}")` over arbitrary doubles.
    #[test]
    fn push_fixed_is_the_formatter(v in any_f64()) {
        assert_fixed_is_format(v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `write_block_body` appends exactly the `format!` rendition,
    /// whatever the row holds.
    #[test]
    fn block_writer_is_the_format_rendition(row in any_row()) {
        let mut got = String::from("kept");
        write_block_body(&mut got, &row);
        prop_assert_eq!(got, format!("kept{}", reference_block_body(&row)));
    }

    /// So does it for a country no table holds: one the JSON escaper must
    /// rewrite, or one longer than the stack buffer the body is staged in.
    #[test]
    fn block_writer_falls_back_for_strings_it_cannot_stage(
        row in any_row(),
        country in tricky_string(),
        repeat in 1usize..100,
    ) {
        let country: &'static str = Box::leak(country.repeat(repeat).into_boxed_str());
        let row = DatasetRow { country: Some(country), ..row };
        let mut got = String::from("kept");
        write_block_body(&mut got, &row);
        prop_assert_eq!(got, format!("kept{}", reference_block_body(&row)));
    }

    /// A query answered from a key's stationarity split, or from the
    /// posting lists, is the straight fold over the rows, cached or not,
    /// first asked or asked again; a filter naming at most one of
    /// country, AS and link never reaches the LRU, and one naming more
    /// always does.
    #[test]
    fn posting_list_query_is_the_row_fold(
        rows in small_world(),
        filters in proptest::collection::vec(any_filter(), 1..12),
        cached in any::<bool>(),
    ) {
        // Room for every filter in whichever shard its key lands, or none.
        let state = ServeState::build(rows, if cached { 128 } else { 0 });
        for filter in &filters {
            let keys = [filter.country.is_some(), filter.asn.is_some(), filter.link.is_some()];
            let folds = keys.into_iter().filter(|&k| k).count() >= 2;
            let want = query_body(state.rows(), filter);
            let (first, outcome) = state.query(filter);
            prop_assert_eq!(&first, &want, "{:?}", filter);
            assert_json(&first);
            prop_assert_eq!(outcome.is_some(), folds, "{:?}", filter);
            prop_assert!(cached || outcome.map_or(true, |o| o == LruOutcome::Miss { evicted: false }));
            let (again, outcome) = state.query(filter);
            prop_assert_eq!(&again, &want, "{:?} asked again", filter);
            prop_assert_eq!(outcome, folds.then_some(if cached { LruOutcome::Hit } else { LruOutcome::Miss { evicted: false } }));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `read_request` is total over arbitrary byte soup: a typed result,
    /// never a panic — and any accepted target starts with `/`.
    #[test]
    fn request_parser_is_total(bytes in proptest::collection::vec(0u8..=255, 0..4096)) {
        if let Ok(req) = read_request(&mut BufReader::new(&bytes[..])) {
            prop_assert!(req.target.starts_with('/'));
        }
    }

    /// So is the full stack: routing a parsed target (or the query
    /// parser behind `/v1/query`) answers every printable target with a
    /// status and a well-formed JSON body.
    #[test]
    fn routing_is_total(target in "/[ -~]{0,64}") {
        let (status, _reason, body) = route(state(), &target);
        prop_assert!((200..=505).contains(&status));
        assert_json(&body);
    }

    /// Any well-formed GET round-trips through the parser with its
    /// target intact, whatever padding and header noise surround it.
    #[test]
    fn well_formed_requests_parse(
        path in "/[a-z0-9/]{0,40}",
        close in any::<bool>(),
        noise in proptest::collection::vec(("[a-zA-Z-]{1,12}", "[ -9;-~]{0,24}"), 0..8),
    ) {
        let mut req = format!("GET {path} HTTP/1.1\r\n");
        for (name, value) in &noise {
            // Skip names that collide with semantic headers.
            if ["connection", "content-length", "transfer-encoding"]
                .contains(&name.to_ascii_lowercase().as_str())
            {
                continue;
            }
            req.push_str(&format!("{name}: {value}\r\n"));
        }
        if close {
            req.push_str("Connection: close\r\n");
        }
        req.push_str("\r\n");
        let parsed = read_request(&mut BufReader::new(req.as_bytes())).expect("well-formed");
        prop_assert_eq!(parsed.target, path);
        prop_assert_eq!(parsed.keep_alive, !close);
    }

    /// The request-line limit binds exactly: one byte over is refused.
    #[test]
    fn request_line_limit_binds(extra in 0usize..64) {
        // "GET " + target + " HTTP/1.1" must fit MAX_REQUEST_LINE.
        let fits = MAX_REQUEST_LINE - 14;
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(fits - 1 + extra));
        let got = read_request(&mut BufReader::new(long.as_bytes()));
        if extra == 0 {
            prop_assert!(got.is_ok(), "exactly at the limit must parse");
        } else {
            prop_assert!(
                matches!(got, Err(RequestError::LineTooLong)),
                "{} bytes over the limit must be refused", extra
            );
        }
    }

    /// The header-count limit binds, and announced bodies are refused
    /// whatever the declared length.
    #[test]
    fn header_and_body_limits_bind(over in 1usize..32, body_len in 1u64..1_000_000) {
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + over) {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        prop_assert!(matches!(
            read_request(&mut BufReader::new(many.as_bytes())),
            Err(RequestError::HeadersTooLarge)
        ));

        let with_body = format!("GET / HTTP/1.1\r\nContent-Length: {body_len}\r\n\r\n");
        prop_assert!(matches!(
            read_request(&mut BufReader::new(with_body.as_bytes())),
            Err(RequestError::HasBody)
        ));
    }

    /// Every JSON payload type the service serves survives the response
    /// serializer byte-for-byte: status, framing, connection token, and
    /// body all come back out, the accounted size matches the wire, and
    /// the body is well-formed JSON.
    #[test]
    fn responses_roundtrip_every_payload(
        which in 0usize..15,
        status_pick in 0usize..5,
        keep_alive in any::<bool>(),
    ) {
        let status = [200u16, 400, 404, 408, 431][status_pick];
        let bodies = payloads();
        prop_assert_eq!(bodies.len(), 15, "payload fixture must cover every type");
        let body = &bodies[which % bodies.len()];
        assert_json(body);
        let mut out = Vec::new();
        let n = write_response(&mut out, status, "X", body, keep_alive).expect("vec write");
        prop_assert_eq!(n as usize, out.len(), "accounted bytes must match the wire");
        let (got_status, got_ka, got_len, got_body) = parse_response(&out);
        prop_assert_eq!(got_status, status);
        prop_assert_eq!(got_ka, keep_alive);
        prop_assert_eq!(got_len, body.len());
        prop_assert_eq!(&got_body, body);
    }

    /// `json_str` output always embeds as a well-formed JSON string.
    #[test]
    fn escaped_strings_are_json(s in "[ -~]{0,64}") {
        assert_json(&format!("{{\"k\":{}}}", sleepwatch_obs::json_str(&s)));
    }

    /// Sharded LRU invariants under arbitrary workloads: the configured
    /// capacity is never exceeded, every lookup is exactly a hit or a
    /// miss, hits return the key's deterministic value, and an eviction
    /// is only ever reported by a miss on a full shard.
    #[test]
    fn sharded_lru_invariants(
        cap in 0usize..40,
        keys in proptest::collection::vec(0u32..24, 1..200),
    ) {
        let lru = ShardedLru::new(cap);
        prop_assert_eq!(lru.capacity(), cap, "capacity distributes exactly");
        let (mut hits, mut misses) = (0usize, 0usize);
        for (i, k) in keys.iter().enumerate() {
            let key = format!("key-{k}");
            let want = format!("value-{k}");
            let (got, outcome) = lru.get_or_insert_with(&key, || want.clone());
            prop_assert_eq!(got, want, "cached value diverged");
            match outcome {
                LruOutcome::Hit => hits += 1,
                LruOutcome::Miss { evicted } => {
                    misses += 1;
                    if evicted {
                        prop_assert_eq!(lru.len(), lru.len().min(cap), "eviction kept us at cap");
                    }
                }
            }
            prop_assert!(lru.len() <= cap, "capacity exceeded after {} lookups", i + 1);
            prop_assert_eq!(hits + misses, i + 1, "every lookup is a hit xor a miss");
        }
        prop_assert!(lru.is_empty() == (hits + misses == 0) || cap == 0 || !lru.is_empty());
    }

    /// One shard against the reference model: identical hit/miss
    /// results, identical eviction decisions, and the eviction candidate
    /// is always the model's least-recently-used key.
    #[test]
    fn shard_matches_reference_model(
        cap in 1usize..8,
        ops in proptest::collection::vec((any::<bool>(), 0u32..12), 1..200),
    ) {
        let mut shard = LruShard::new(cap);
        let mut model = ModelLru { cap, ..Default::default() };
        for (is_get, k) in ops {
            let key = format!("k{k}");
            if is_get {
                prop_assert_eq!(shard.get(&key), model.get(&key), "get({}) diverged", key);
            } else {
                let value = format!("v{k}");
                let evicted = shard.insert(key.clone(), value.clone());
                let model_evicted = model.insert(&key, &value);
                prop_assert_eq!(evicted, model_evicted, "eviction decision diverged on {}", key);
            }
            prop_assert_eq!(shard.len(), model.order.len());
            prop_assert!(shard.len() <= cap);
            prop_assert_eq!(
                shard.eviction_candidate(),
                model.oldest(),
                "eviction order diverged"
            );
        }
    }
}
