//! Property-based tests for the checkpoint journal codec: decoding is
//! total (never panics, whatever the bytes), the CRC framing catches
//! every single-bit flip and single-byte corruption, and replay always
//! yields an intact prefix of the records actually written.

use proptest::prelude::*;
use sleepwatch_core::journal::{
    decode_header_v2, decode_record_v2, encode_header_v2, encode_record_v2, replay_bytes_v2,
    JournalHeader, ReplayOutcome,
};
use sleepwatch_core::{analyze_world, AnalysisConfig, WorldBlockReport};
use sleepwatch_framing::crc32;
use sleepwatch_simnet::{World, WorldConfig};
use std::sync::OnceLock;

/// A small analyzed world shared by every case: real reports exercise the
/// codec's full field range (located and unlocated blocks, every class,
/// records of every width).
fn reports() -> &'static Vec<WorldBlockReport> {
    static REPORTS: OnceLock<Vec<WorldBlockReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let world = World::generate(WorldConfig {
            num_blocks: 24,
            seed: 7,
            span_days: 1.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
        let analysis = analyze_world(&world, &cfg, 2, None);
        assert!(analysis.quarantined.is_empty());
        analysis.reports
    })
}

fn header() -> JournalHeader {
    JournalHeader { world_seed: 7, num_blocks: 24, rounds: 131, start_time: 0 }
}

/// Journal bytes holding the first `k` reports, plus the frame
/// boundaries: `bounds[0]` is the end of the header, `bounds[i + 1]` the
/// end of record `i` (records are variable-width).
fn journal_bytes(k: usize) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = encode_header_v2(&header());
    let mut bounds = vec![bytes.len()];
    for r in &reports()[..k] {
        bytes.extend_from_slice(&encode_record_v2(r).expect("table country"));
        bounds.push(bytes.len());
    }
    (bytes, bounds)
}

fn dbg(r: &WorldBlockReport) -> String {
    format!("{r:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode_record_v2` is total over arbitrary byte slices.
    #[test]
    fn decode_record_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..160)) {
        if let Some((_, len)) = decode_record_v2(&bytes) {
            prop_assert!(len <= bytes.len());
        }
    }

    /// `decode_header_v2` is total over arbitrary byte slices.
    #[test]
    fn decode_header_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let _ = decode_header_v2(&bytes);
    }

    /// `replay_bytes_v2` is total over arbitrary byte soup: garbage never
    /// resumes (a random 64-byte prefix does not spell a checksummed
    /// prelude), and a `Resumed` outcome never claims more bytes than the
    /// input holds.
    #[test]
    fn replay_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        if let Ok(ReplayOutcome::Resumed { valid_len, .. }) = replay_bytes_v2(&bytes, &header()) {
            prop_assert!(valid_len as usize <= bytes.len());
        }
    }

    /// Byte soup behind an intact header never panics either, and never
    /// shrinks the prefix below the header.
    #[test]
    fn replay_never_panics_on_a_garbage_tail(
        tail in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let (mut bytes, bounds) = journal_bytes(0);
        bytes.extend_from_slice(&tail);
        match replay_bytes_v2(&bytes, &header()) {
            Ok(ReplayOutcome::Resumed { valid_len, .. }) => {
                prop_assert!(valid_len as usize >= bounds[0]);
                prop_assert!(valid_len as usize <= bytes.len());
            }
            other => prop_assert!(false, "expected Resumed, got {:?}", other),
        }
    }

    /// Every record encodes and decodes back to itself, consuming exactly
    /// its own frame.
    #[test]
    fn record_roundtrip(idx in 0usize..24) {
        let original = &reports()[idx];
        let frame = encode_record_v2(original).expect("table country");
        let (back, len) = decode_record_v2(&frame).expect("own encoding decodes");
        prop_assert_eq!(len, frame.len());
        prop_assert_eq!(dbg(original), dbg(&back));
    }

    /// Any single-bit flip anywhere in a frame is caught by the CRC (or
    /// the validation layers underneath it).
    #[test]
    fn any_bit_flip_is_caught(idx in 0usize..24, bit_frac in 0.0f64..1.0) {
        let mut frame = encode_record_v2(&reports()[idx]).expect("table country");
        let bit = ((bit_frac * (frame.len() * 8) as f64) as usize).min(frame.len() * 8 - 1);
        frame[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_record_v2(&frame).is_none(), "flip of bit {} went undetected", bit);
    }

    /// Corrupting one byte of a journal discards exactly the frames from
    /// the damaged one onward: replay returns the intact prefix.
    #[test]
    fn replay_keeps_exactly_the_intact_prefix(
        k in 1usize..24,
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let (mut bytes, bounds) = journal_bytes(k);
        let body = bytes.len() - bounds[0];
        let pos = bounds[0] + ((pos_frac * body as f64) as usize).min(body - 1);
        bytes[pos] ^= xor;
        let damaged_frame = bounds[1..].iter().position(|&end| pos < end).expect("pos in body");
        match replay_bytes_v2(&bytes, &header()) {
            Ok(ReplayOutcome::Resumed { reports: got, valid_len, discarded }) => {
                prop_assert_eq!(got.len(), damaged_frame);
                prop_assert_eq!(valid_len as usize, bounds[damaged_frame]);
                prop_assert!(discarded as usize >= k - damaged_frame);
                for (g, want) in got.iter().zip(reports()) {
                    prop_assert_eq!(dbg(g), dbg(want));
                }
            }
            other => prop_assert!(false, "expected Resumed, got {:?}", other),
        }
    }

    /// Truncating a journal anywhere keeps only the complete frames
    /// before the cut.
    #[test]
    fn replay_of_truncation_keeps_complete_frames(k in 1usize..24, cut_frac in 0.0f64..1.0) {
        let (bytes, bounds) = journal_bytes(k);
        let cut = bounds[0] + ((cut_frac * (bytes.len() - bounds[0]) as f64) as usize);
        let complete = bounds[1..].iter().filter(|&&end| end <= cut).count();
        match replay_bytes_v2(&bytes[..cut], &header()) {
            Ok(ReplayOutcome::Resumed { reports: got, valid_len, .. }) => {
                prop_assert_eq!(got.len(), complete);
                prop_assert_eq!(valid_len as usize, bounds[complete]);
            }
            other => prop_assert!(false, "expected Resumed, got {:?}", other),
        }
    }

    /// The CRC itself detects any single-byte change in what it covers.
    #[test]
    fn crc_detects_single_byte_changes(pos in 0usize..80, xor in 1u8..=255) {
        let mut data = [0u8; 80];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37);
        }
        let clean = crc32(&data);
        data[pos] ^= xor;
        prop_assert_ne!(clean, crc32(&data));
    }
}
