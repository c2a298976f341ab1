//! Proves the query service's steady state is allocation-free.
//!
//! One keep-alive connection through `serve_streams` over in-memory
//! streams, its requests fed in phases: a warm-up that sizes the
//! connection's buffers and fills the LRU, then the same mix again —
//! block reads, group bodies by key, list bodies, the summary, the outage
//! histogram, single-key queries and LRU hits — which must perform
//! **zero** heap allocations however many requests it holds. So must
//! ad-hoc queries naming one key each, asked for the first time: they are
//! looked up, never folded or cached. An LRU miss may allocate the key
//! and the body it inserts and nothing else; a refusal nothing beyond its
//! message.
//!
//! The counter is thread-local (the pattern of `scratch_alloc.rs`), and
//! the reader reads it at each phase boundary: `serve_streams` asks for
//! more bytes only once every request it holds has been answered.

use counting_alloc::thread_allocations as allocations;
use sleepwatch_core::serve::serve_streams;
use sleepwatch_core::{DatasetRow, ServeState};
use sleepwatch_geoecon::YearMonth;
use sleepwatch_linktype::{LinkFeature, LinkSet};
use sleepwatch_spectral::DiurnalClass;
use std::io::Read;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

fn row(id: u64) -> DatasetRow {
    let links: &[LinkFeature] = match id % 3 {
        0 => &[LinkFeature::Dsl],
        1 => &[LinkFeature::Dsl, LinkFeature::Cable],
        _ => &[],
    };
    DatasetRow {
        block_id: id * 7,
        class: [DiurnalClass::Strict, DiurnalClass::Relaxed, DiurnalClass::NonDiurnal]
            [(id % 3) as usize],
        phase: (id % 3 < 2).then_some(id as f64 * 0.37),
        mean_a: 0.01 * id as f64,
        strongest_cpd: 1.0 + id as f64 / 128.0,
        stationary: id % 2 == 0,
        outages: (id % 4) as u32,
        probes: 1000 + id,
        lon: Some(1.0),
        lat: Some(2.0),
        country: [Some("US"), Some("DE"), None][(id % 3) as usize],
        centroid: false,
        alloc: YearMonth::new(2001, 5),
        asn: 1000 + (id % 5) as u32,
        links: links.iter().copied().collect::<LinkSet>(),
    }
}

/// Feeds `serve_streams` one phase at a time, noting the allocation
/// count each time a phase has been used up.
struct PhasedReader {
    phases: Vec<Vec<u8>>,
    phase: usize,
    offset: usize,
    marks: Vec<usize>,
}

impl Read for PhasedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.offset == self.phases[self.phase].len() {
            self.marks.push(allocations());
            if self.phase + 1 == self.phases.len() {
                return Ok(0);
            }
            self.phase += 1;
            self.offset = 0;
        }
        let rest = &self.phases[self.phase][self.offset..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.offset += n;
        Ok(n)
    }
}

fn requests(targets: &[String], times: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for t in targets.iter().cycle().take(targets.len() * times) {
        out.extend_from_slice(format!("GET {t} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes());
    }
    out
}

#[test]
fn steady_state_requests_do_not_allocate() {
    let state = ServeState::build((0..64).map(row).collect(), 64);

    let mut mix: Vec<String> = (0..64).map(|id| format!("/v1/block/{}", id * 7)).collect();
    for fixed in ["/v1/summary", "/v1/outages", "/v1/country", "/v1/as", "/v1/link"] {
        mix.push(fixed.to_string());
    }
    for keyed in ["/v1/country/US", "/v1/country/DE", "/v1/as/1003", "/v1/link/cable"] {
        mix.push(keyed.to_string());
    }
    let hot = [
        "",
        "?stationary=true",
        "?country=US&stationary=true",
        "?link=cable&stationary=0",
        "?as=1002&link=dsl",
        "?link=dsl&country=DE&stationary=true&as=1001",
        "?country=FR",
    ];
    mix.extend(hot.iter().map(|q| format!("/v1/query{q}")));

    // Every AS with `stationary` absent, true and false, every country
    // and keyword, and keys the world lacks: none of them asked before.
    let mut single: Vec<String> = (1000..1005)
        .flat_map(|asn| {
            ["", "&stationary=true", "&stationary=false"].map(|s| format!("as={asn}{s}"))
        })
        .collect();
    single.extend(["country=US", "country=DE", "link=dsl", "link=cable"].map(String::from));
    single.extend(["as=77", "country=ZZ&stationary=false", "link=wifi"].map(String::from));
    let single: Vec<String> = single.iter().map(|q| format!("/v1/query?{q}")).collect();

    let cold: Vec<String> =
        (0..40).map(|i| format!("/v1/query?as={}&link=dsl", 2000 + i)).collect();
    let absent = ["/v1/block/5".to_string(), "/v1/country/FR".into(), "/v1/nope".into()];
    let malformed = ["/v1/block/x".to_string(), "/v1/as/-1".into(), "/v1/summary?x=1".into()];
    let refused = ["/v1/query?bogus=1".to_string(), "/v1/query?as=x".into()];

    // The steady phase is long enough to straddle the read buffer's
    // refills and to fill the write buffer several times.
    let phases = vec![
        requests(&mix, 1),
        requests(&mix, 12),
        requests(&single, 1),
        requests(&cold, 1),
        requests(&absent, 4),
        requests(&malformed, 4),
        requests(&refused, 4),
    ];
    let answered: usize = [mix.len() * 13, single.len(), cold.len(), 12, 12, 8].iter().sum();
    let mut reader = PhasedReader { phases, phase: 0, offset: 0, marks: Vec::with_capacity(8) };
    let stats = serve_streams(&mut reader, std::io::sink(), &state);
    assert_eq!(stats.requests as usize, answered);
    assert_eq!(stats.responses as usize, answered);
    assert_eq!((stats.bad_requests, stats.write_errors), (0, 0));

    let spent: Vec<usize> = reader.marks.windows(2).map(|w| w[1] - w[0]).collect();
    let [steady, looked_up, misses, not_found, bad_request, bad_parameter] = spent[..] else {
        panic!("one mark per phase: {:?}", reader.marks);
    };
    assert_eq!(steady, 0, "{} steady-state requests allocated {steady} times", mix.len() * 12);
    assert_eq!(
        looked_up,
        0,
        "{} first single-key queries allocated {looked_up} times",
        single.len()
    );
    assert!(misses <= 2 * cold.len(), "{} LRU misses allocated {misses} times", cold.len());
    assert_eq!(not_found, 0, "404s allocated {not_found} times");
    assert_eq!(bad_request, 0, "400s with fixed messages allocated {bad_request} times");
    assert!(bad_parameter <= 8, "8 refused parameters allocated {bad_parameter} times");
}
