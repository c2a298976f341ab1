//! Pinned `SLPWFEED` bytes: what `sleepwatch feed` writes to a file, and
//! what a feed server sends a receiver that resumes mid-stream.
//!
//! Each pin is the length and FNV-1a digest of the bytes, recorded from the
//! encoder as it stood before the feed could be generated lazily. A pass
//! means the wire is unchanged for these worlds, not that the encoder
//! agrees with itself. The worlds cover the fault-free run and every named
//! fault preset on one chunk of blocks, and a world of two chunks whose
//! resume points land in either chunk.
//!
//! `sleepwatch feed` does not hold the feed these pins collect: it sends a
//! counted `WorldFeed`, regenerated a chunk at a time. The last test holds
//! its bytes, on a file and from every resume point around each chunk
//! boundary, to the collected feed's.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use sleepwatch_core::{
    feed_identity, world_feed, AnalysisConfig, IngestConfig, RunIdentity, WorldFeed,
};
use sleepwatch_probing::transport::{
    encode_resume, serve_connection, write_feed, FeedConfig, FeedEvents,
};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::{WorldConfig, WorldSource};

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
        let mut bytes = vec![0u8; sleepwatch_core::framing::PRELUDE_LEN];
        stream.read_exact(&mut bytes).expect("hello");
        stream.write_all(&encode_resume(&identity, from)).expect("resume answer");
        stream.read_to_end(&mut bytes).expect("frames");
        assert!(server.join().expect("server thread"), "the stream did not complete");
        bytes
    })
}

/// `(length, digest)` of the file `sleepwatch feed --to-file` writes.
fn file_bytes(source: &WorldSource, cfg: &AnalysisConfig) -> (usize, u64) {
    let (events, quarantined) = world_feed(source, cfg, &IngestConfig::default());
    assert!(quarantined.is_empty());
    let bytes = written(&events, feed_identity(source, cfg));
    (bytes.len(), fnv1a(&bytes))
}

/// `(length, digest)` of everything a feed server sends on one connection
/// whose receiver answers the hello with `RESUME(from)`.
fn resumed_bytes(source: &WorldSource, cfg: &AnalysisConfig, from: u64) -> (usize, u64) {
    let (events, _) = world_feed(source, cfg, &IngestConfig::default());
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
        ("none",          3.0,    632_304,  6_974_521_029_517_368_574),
        ("loss-light",    3.0,    632_304,    817_166_563_399_500_452),
        ("loss-heavy",    3.0,    632_304,  5_272_018_993_060_829_635),
        ("blackout",      3.0,    527_968, 17_628_779_217_465_491_799),
        ("restart-storm", 3.0,    614_266, 13_232_762_253_787_049_152),
        ("truncated",     3.0,    632_304,  6_974_521_029_517_368_574),
        ("dup-reorder",   3.0,    664_159,  8_372_619_362_644_230_741),
        ("churn",         3.0,    632_304,  6_974_521_029_517_368_574),
        ("none",          11.0, 2_313_006,  1_776_891_155_768_250_672),
        ("loss-light",    11.0, 2_313_006, 10_101_089_891_205_415_470),
        ("loss-heavy",    11.0, 2_313_006, 14_070_624_672_720_472_823),
        ("blackout",      11.0, 2_208_649,  8_916_812_501_694_532_735),
        ("restart-storm", 11.0, 2_245_125, 11_086_756_965_267_358_755),
        ("truncated",     11.0, 2_104_313,  4_781_631_842_265_999_358),
        ("dup-reorder",   11.0, 2_428_859,  8_451_883_079_244_556_718),
        ("churn",         11.0, 2_313_006, 14_668_219_070_354_150_559),
    ];
    let mut regimes = vec![("none", FaultPlan::none())];
    regimes.extend(FaultPlan::presets(5));
    let mut got = Vec::new();
    for days in [3.0, 11.0] {
        for &(name, faults) in &regimes {
            let (source, cfg) = world(64, days, faults);
            let (len, digest) = file_bytes(&source, &cfg);
            got.push((name, days, len, digest));
        }
    }
    assert_eq!(got, pins);
}

#[test]
fn resumed_session_bytes_are_pinned() {
    let (source, cfg) = world(64, 3.0, FaultPlan::none());
    assert_eq!(resumed_bytes(&source, &cfg, 37), (631_430, 11_586_121_595_741_388_153));
}

/// 300 blocks are two chunks (256 + 44); the first holds 256 × 262
/// events, so `RESUME(70 001)` lands in the second and `RESUME(u64::MAX)`
/// past the end.
#[test]
fn two_chunk_feed_bytes_are_pinned_from_any_resume_point() {
    let (source, cfg) = world(300, 2.0, FaultPlan::loss_light(5));
    assert_eq!(file_bytes(&source, &cfg), (1_977_870, 11_320_392_576_513_133_499), "file");
    #[rustfmt::skip]
    let pins: [(u64, usize, u64); 4] = [
        (0,         1_978_023, 17_253_717_541_669_531_091),
        (37,        1_977_098, 15_360_037_596_974_464_173),
        (70_001,      223_132,  9_663_233_497_465_235_668),
        (u64::MAX,         81,  2_307_784_271_765_712_086),
    ];
    let got: Vec<(u64, usize, u64)> = pins
        .iter()
        .map(|&(from, ..)| {
            let (len, digest) = resumed_bytes(&source, &cfg, from);
            (from, len, digest)
        })
        .collect();
    assert_eq!(got, pins);
}

/// A counted `WorldFeed` sends the collected feed's bytes: the same hello
/// total, the same frame boundaries, from any resume point — the first
/// event of every chunk, the one before it, and the end — and it reports
/// the same quarantines. Three chunks, the last a partial one, under a
/// fault-free run, a record-mangling preset and planted probing panics.
#[test]
fn a_counted_world_feed_sends_the_collected_feed_bytes() {
    let poisoned = FaultPlan { poison_blocks: &[3, 300, 599], ..FaultPlan::loss_light(5) };
    for (name, faults) in [
        ("none", FaultPlan::none()),
        ("dup-reorder", FaultPlan::dup_reorder(5)),
        ("poisoned", poisoned),
    ] {
        let (source, cfg) = world(600, 1.25, faults);
        let icfg = IngestConfig::default();
        let identity = feed_identity(&source, &cfg);
        let (events, quarantined) = world_feed(&source, &cfg, &icfg);
        let feed = WorldFeed::new(&source, &cfg, &icfg);
        assert_eq!(format!("{:?}", feed.quarantined()), format!("{quarantined:?}"), "{name}");
        assert_eq!(feed.total(), events.len() as u64, "{name}");
        assert!(written(&feed, identity) == written(&events, identity), "{name}: file bytes");

        let chunk_starts = [256, 512].map(|first_block| {
            events.iter().filter(|ev| ev.block_id() < first_block).count() as u64
        });
        let total = events.len() as u64;
        let mut resumes = vec![0, 1, total - 1, total, u64::MAX];
        resumes.extend(chunk_starts.iter().flat_map(|&s| [s - 1, s]));
        for from in resumes {
            let (lazy, held) = (served(&feed, identity, from), served(&events, identity, from));
            assert!(lazy == held, "{name}: RESUME({from}) bytes");
        }
    }
}
