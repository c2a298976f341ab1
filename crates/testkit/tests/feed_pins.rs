//! Pinned `SLPWFEED` bytes: what `sleepwatch feed` writes to a file, and
//! what a feed server sends a receiver that resumes mid-stream.
//!
//! Each pin is the length and FNV-1a digest of the bytes. They were
//! recorded once more when the wire went to version 2, whose hello
//! announces no event count and whose file and TCP frames chain alike on
//! that hello; the events they carry did not change, and every pinned file
//! decodes to exactly the collected feed. A pass means the wire is
//! unchanged for these worlds, not that the encoder agrees with itself. The
//! worlds cover the fault-free run and every named fault preset on one
//! chunk of blocks, and a world of two chunks whose resume points land in
//! either chunk.
//!
//! Every pin holds at 1 and 4 probing workers: a feed's bytes never depend
//! on how many threads probed it.
//!
//! `sleepwatch feed` does not hold the feed these pins collect: it sends a
//! `WorldFeed`, regenerated a chunk at a time. The last test holds its
//! bytes, on a file and from every resume point around each chunk
//! boundary, to the collected feed's, at 1, 2 and 8 workers.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use sleepwatch_core::feed::with_feed_workers;
use sleepwatch_core::{
    feed_identity, world_feed, AnalysisConfig, IngestConfig, Quarantine, RunIdentity, WorldFeed,
};
use sleepwatch_probing::transport::{
    encode_resume, serve_connection, write_feed, EventSource, FeedConfig, FeedEvents, FileSource,
};
use sleepwatch_probing::{FaultPlan, RoundEvent};
use sleepwatch_simnet::{WorldConfig, WorldSource};
use sleepwatch_testkit::matrix::fault_plans;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn world(blocks: usize, days: f64, faults: FaultPlan) -> (WorldSource, AnalysisConfig) {
    let wcfg = WorldConfig {
        num_blocks: blocks,
        seed: 0xFEED_5EED,
        span_days: days,
        ..Default::default()
    };
    let cfg = AnalysisConfig { faults, ..AnalysisConfig::over_days(wcfg.start_time, days) };
    (WorldSource::new(wcfg), cfg)
}

/// The bytes `write_feed` writes for `events`: the file `sleepwatch feed
/// --to-file` writes.
fn written<F: FeedEvents + ?Sized>(events: &F, identity: RunIdentity) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_feed(&mut bytes, events, &identity, FeedConfig::new(identity).frame_events)
        .expect("write into memory");
    bytes
}

/// Everything a feed server sends for `events` on one connection whose
/// receiver answers the hello with `RESUME(from)`.
fn served<F: FeedEvents + Sync + ?Sized>(events: &F, identity: RunIdentity, from: u64) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the receiver");
            serve_connection(&mut stream, events, &FeedConfig::new(identity)).expect("serve")
        });
        let mut stream = TcpStream::connect(addr).expect("dial the server");
        let mut bytes = vec![0u8; sleepwatch_framing::PRELUDE_LEN];
        stream.read_exact(&mut bytes).expect("hello");
        stream.write_all(&encode_resume(&identity, from)).expect("resume answer");
        stream.read_to_end(&mut bytes).expect("frames");
        server.join().expect("server thread");
        bytes
    })
}

/// Probing workers each pinned test runs its feeds at.
const PIN_THREADS: [usize; 2] = [1, 4];

/// The feed `world_feed` collects with `threads` probing workers.
fn collected(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    threads: usize,
) -> (Vec<RoundEvent>, Vec<Quarantine>) {
    with_feed_workers(threads, || world_feed(source, cfg, &IngestConfig::default()))
}

/// `(length, digest)` of the file `sleepwatch feed --to-file` writes,
/// once a strict reader has decoded it to exactly the collected events.
fn file_bytes(source: &WorldSource, cfg: &AnalysisConfig, threads: usize) -> (usize, u64) {
    let (events, quarantined) = collected(source, cfg, threads);
    assert!(quarantined.is_empty());
    let identity = feed_identity(source, cfg);
    let bytes = written(&events, identity);
    let mut file = FileSource::new(&bytes[..], &identity, true).expect("the file's own hello");
    let mut read = Vec::with_capacity(events.len());
    while let Some(ev) = file.next_event().expect("a strict read of the file") {
        read.push(ev);
    }
    assert!(read == events, "the file decodes to other events");
    assert!(file.stats().clean_end, "the file has no end marker");
    (bytes.len(), fnv1a(&bytes))
}

/// `(length, digest)` of everything a feed server sends on one connection
/// whose receiver answers the hello with `RESUME(from)`.
fn resumed_bytes(
    source: &WorldSource,
    cfg: &AnalysisConfig,
    from: u64,
    threads: usize,
) -> (usize, u64) {
    let (events, _) = collected(source, cfg, threads);
    let bytes = served(&events, feed_identity(source, cfg), from);
    (bytes.len(), fnv1a(&bytes))
}

/// 64 blocks under the fault-free run and every preset, over 3 days and
/// over 11, where the truncation (round 1 310) and churn (round 500)
/// presets first bite.
#[test]
fn feed_file_bytes_are_pinned_under_every_preset() {
    #[rustfmt::skip]
    let pins: [(&str, f64, usize, u64); 16] = [
        ("none",          3.0,    632_304, 13_097_496_900_637_509_728),
        ("loss-light",    3.0,    632_304,  9_042_487_242_336_012_602),
        ("loss-heavy",    3.0,    632_304,  6_018_811_965_594_365_405),
        ("blackout",      3.0,    527_968,  4_353_440_255_322_874_639),
        ("restart-storm", 3.0,    614_266, 12_054_508_618_493_962_660),
        ("truncated",     3.0,    632_304, 13_097_496_900_637_509_728),
        ("dup-reorder",   3.0,    664_159,     61_143_625_465_524_020),
        ("churn",         3.0,    632_304, 13_097_496_900_637_509_728),
        ("none",          11.0, 2_313_006, 17_168_690_307_169_151_116),
        ("loss-light",    11.0, 2_313_006, 10_814_896_472_665_638_442),
        ("loss-heavy",    11.0, 2_313_006, 12_338_823_035_720_759_131),
        ("blackout",      11.0, 2_208_649, 10_776_125_131_885_827_906),
        ("restart-storm", 11.0, 2_245_125, 12_272_956_586_767_481_434),
        ("truncated",     11.0, 2_104_313,  7_398_589_951_060_115_881),
        ("dup-reorder",   11.0, 2_428_859, 15_329_886_141_258_857_269),
        ("churn",         11.0, 2_313_006, 16_345_408_889_599_303_451),
    ];
    let regimes = fault_plans(5);
    for threads in PIN_THREADS {
        let mut got = Vec::new();
        for days in [3.0, 11.0] {
            for &(name, faults) in &regimes {
                let (source, cfg) = world(64, days, faults);
                let (len, digest) = file_bytes(&source, &cfg, threads);
                got.push((name, days, len, digest));
            }
        }
        assert_eq!(got, pins, "{threads} threads");
    }
}

#[test]
fn resumed_session_bytes_are_pinned() {
    let (source, cfg) = world(64, 3.0, FaultPlan::none());
    for threads in PIN_THREADS {
        let got = resumed_bytes(&source, &cfg, 37, threads);
        assert_eq!(got, (631_430, 2_505_915_392_005_319_239), "{threads} threads");
    }
}

/// 300 blocks are two chunks (256 + 44); the first holds 256 × 262
/// events, so `RESUME(70 001)` lands in the second and `RESUME(u64::MAX)`
/// past the end.
#[test]
fn two_chunk_feed_bytes_are_pinned_from_any_resume_point() {
    let (source, cfg) = world(300, 2.0, FaultPlan::loss_light(5));
    #[rustfmt::skip]
    let pins: [(u64, usize, u64); 4] = [
        (0,         1_978_023, 10_163_582_543_228_244_606),
        (37,        1_977_098, 15_926_915_262_016_162_170),
        (70_001,      223_132,    979_075_579_530_741_135),
        (u64::MAX,         81, 18_133_987_994_617_869_705),
    ];
    for threads in PIN_THREADS {
        let file = file_bytes(&source, &cfg, threads);
        assert_eq!(file, (1_977_870, 5_719_201_777_525_964_147), "file, {threads} threads");
        let got: Vec<(u64, usize, u64)> = pins
            .iter()
            .map(|&(from, ..)| {
                let (len, digest) = resumed_bytes(&source, &cfg, from, threads);
                (from, len, digest)
            })
            .collect();
        assert_eq!(got, pins, "{threads} threads");
    }
}

/// A `WorldFeed` sends the collected feed's bytes: the same frame
/// boundaries and end marker from any resume point — the first event of
/// every chunk, the one before it, and the end — whether it is fresh and
/// has learned nothing, or has been sent once and knows where its chunks
/// start; once sent, however often, it reports the same quarantines.
/// Three chunks, the last a partial one, under a fault-free run, a
/// record-mangling preset and planted probing panics, each probed by 1, 2
/// and 8 workers against a feed collected by one.
#[test]
fn a_world_feed_sends_the_collected_feed_bytes() {
    let poisoned = FaultPlan { poison_blocks: &[3, 300, 599], ..FaultPlan::loss_light(5) };
    for (name, faults) in [
        ("none", FaultPlan::none()),
        ("dup-reorder", FaultPlan::dup_reorder(5)),
        ("poisoned", poisoned),
    ] {
        let (source, cfg) = world(600, 1.25, faults);
        let identity = feed_identity(&source, &cfg);
        let (events, quarantined) = collected(&source, &cfg, 1);
        let chunk_starts = [256, 512].map(|first_block| {
            events.iter().filter(|ev| ev.block_id() < first_block).count() as u64
        });
        let total = events.len() as u64;
        let mut resumes = vec![0, 1, total - 1, total, u64::MAX];
        resumes.extend(chunk_starts.iter().flat_map(|&s| [s - 1, s]));
        let held: Vec<Vec<u8>> =
            resumes.iter().map(|&from| served(&events, identity, from)).collect();
        for threads in [1, 2, 8] {
            let tag = format!("{name}, {threads} threads");
            let by_threads = collected(&source, &cfg, threads);
            assert!(by_threads == (events.clone(), quarantined.clone()), "{tag}: collected feed");
            let fresh = || {
                with_feed_workers(threads, || {
                    WorldFeed::new(&source, &cfg, &IngestConfig::default())
                })
            };
            for (&from, held) in resumes.iter().zip(&held) {
                assert!(served(&fresh(), identity, from) == *held, "{tag}: fresh RESUME({from})");
            }
            let feed = fresh();
            assert!(written(&feed, identity) == written(&events, identity), "{tag}: file bytes");
            for (&from, held) in resumes.iter().zip(&held) {
                assert!(served(&feed, identity, from) == *held, "{tag}: sent, RESUME({from})");
            }
            assert_eq!(format!("{:?}", feed.quarantined()), format!("{quarantined:?}"), "{tag}");
        }
    }
}
