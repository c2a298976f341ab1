//! Property-based tests for the compact binary dataset container:
//! decoding is total (never panics, whatever the bytes), corruption is
//! always surfaced as a typed error, and the damaged-file reader heals to
//! a valid prefix of the original rows — the binfmt mirror of the
//! journal codec's `journal_prop` suite. Totality covers well-formed
//! files too: a dictionary naming a country outside the table or a date
//! that is not canonical `YYYY-MM` is refused behind a valid checksum.

use proptest::prelude::*;
use sleepwatch_core::{
    analyze_world, dataset_rows, decode_dataset, decode_prefix, encode_dataset, AnalysisConfig,
    BinDataset, DatasetMode, DatasetRow, DecodeError,
};
use sleepwatch_framing::{crc32, PRELUDE_LEN};
use sleepwatch_geoecon::{by_code, YearMonth};
use sleepwatch_simnet::{World, WorldConfig};
use std::sync::OnceLock;

const BLOCKS: usize = 60;

fn world_cfg() -> WorldConfig {
    WorldConfig { num_blocks: BLOCKS, seed: 7, span_days: 1.0, ..Default::default() }
}

/// A small analyzed world shared by every case: real rows exercise the
/// full field range (located and unlocated blocks, every class, phases).
fn rows() -> &'static Vec<DatasetRow> {
    static ROWS: OnceLock<Vec<DatasetRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let world = World::generate(world_cfg());
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
        let analysis = analyze_world(&world, &cfg, 2, None);
        assert!(analysis.quarantined.is_empty());
        dataset_rows(&analysis)
    })
}

/// The fixture rows as one self-contained container (most properties
/// corrupt copies of this file).
fn container() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| encode_dataset(rows(), DatasetMode::SelfContained).expect("encode"))
}

fn dbg(r: &DatasetRow) -> String {
    format!("{r:?}")
}

/// The fixture container with the first entry of its country (`table` 0)
/// or allocation-date (`table` 1) string table overwritten by `text`, of
/// the entry's length, and the dictionary checksum rewritten to match.
fn with_dict_entry(table: usize, text: &str) -> Vec<u8> {
    let mut bytes = container().clone();
    let dict = PRELUDE_LEN + 8;
    let len = u32::from_le_bytes(bytes[PRELUDE_LEN..dict - 4].try_into().unwrap()) as usize;
    // Every country code is two bytes: the date table follows `countries`
    // entries of three (length byte and code).
    let countries = usize::from(u16::from_le_bytes([bytes[dict], bytes[dict + 1]]));
    let entry = if table == 0 { dict + 3 } else { dict + 2 + 3 * countries + 3 };
    assert_eq!(usize::from(bytes[entry - 1]), text.len(), "same-length entries only");
    bytes[entry..entry + text.len()].copy_from_slice(text.as_bytes());
    let crc = crc32(&bytes[dict..dict + len]);
    bytes[dict - 4..dict].copy_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `BinDataset::parse` is total over arbitrary byte soup, with and
    /// without a world in hand.
    #[test]
    fn parse_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        prop_assert!(BinDataset::parse(&bytes, None).is_err());
        prop_assert!(BinDataset::parse(&bytes, Some(&world_cfg())).is_err());
    }

    /// So is the healing reader: garbage yields no rows and a typed error.
    #[test]
    fn prefix_decode_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let (got, err) = decode_prefix(&bytes, None);
        prop_assert!(got.is_empty());
        prop_assert!(err.is_some());
    }

    /// Every slice of the fixture rows round-trips through both container
    /// modes, field for field.
    #[test]
    fn any_row_slice_roundtrips(start in 0usize..BLOCKS, len in 1usize..BLOCKS) {
        let end = (start + len).min(BLOCKS);
        let slice = &rows()[start..end];
        let cfg = world_cfg();
        for mode in [DatasetMode::SelfContained, DatasetMode::SeedJoined(&cfg)] {
            let world = matches!(mode, DatasetMode::SeedJoined(_)).then_some(&cfg);
            let bytes = encode_dataset(slice, mode).expect("fixture rows encode");
            let back = decode_dataset(&bytes, world).expect("own encoding decodes");
            prop_assert_eq!(back.len(), slice.len());
            for (got, want) in back.iter().zip(slice) {
                prop_assert_eq!(dbg(got), dbg(want));
            }
        }
    }

    /// Any single-byte corruption anywhere in the file is surfaced as a
    /// typed error, and the healing reader returns an intact prefix of
    /// the original rows — never garbage rows, never a panic.
    #[test]
    fn any_byte_corruption_errors_and_heals_to_a_prefix(
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = container().clone();
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= xor;
        prop_assert!(BinDataset::parse(&bytes, None).is_err(), "flip at {} undetected", pos);
        let (got, err) = decode_prefix(&bytes, None);
        prop_assert!(err.is_some());
        prop_assert!(got.len() <= rows().len());
        for (g, want) in got.iter().zip(rows()) {
            prop_assert_eq!(dbg(g), dbg(want));
        }
    }

    /// Truncation anywhere — a torn tail — fails the strict parser and
    /// heals to exactly the complete frames before the cut.
    #[test]
    fn any_truncation_heals_to_complete_frames(cut_frac in 0.0f64..1.0) {
        let bytes = container();
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        prop_assert!(BinDataset::parse(&bytes[..cut], None).is_err());
        let (got, err) = decode_prefix(&bytes[..cut], None);
        prop_assert!(err.is_some());
        for (g, want) in got.iter().zip(rows()) {
            prop_assert_eq!(dbg(g), dbg(want));
        }
    }

    /// Splicing a byte range from a *different* dataset (same world, one
    /// row fewer, so its prelude and chain key differ) into the fixture
    /// file either changes nothing or is detected — and the healing
    /// reader still only ever returns original rows.
    #[test]
    fn any_foreign_splice_is_detected(
        pos_frac in 0.0f64..1.0,
        len in 1usize..64,
    ) {
        let foreign =
            encode_dataset(&rows()[..BLOCKS - 1], DatasetMode::SelfContained).expect("encode");
        let mut bytes = container().clone();
        let max = bytes.len().min(foreign.len());
        let pos = ((pos_frac * max as f64) as usize).min(max - 1);
        let end = (pos + len).min(max);
        bytes[pos..end].copy_from_slice(&foreign[pos..end]);
        // If the two files agree on this range (shared magic/version,
        // coincidentally equal sections) there is nothing to detect.
        if bytes != *container() {
            prop_assert!(
                BinDataset::parse(&bytes, None).is_err(),
                "splice of {}..{} went undetected", pos, end
            );
            let (got, err) = decode_prefix(&bytes, None);
            prop_assert!(err.is_some());
            for (g, want) in got.iter().zip(rows()) {
                prop_assert_eq!(dbg(g), dbg(want));
            }
        }
    }

    /// A dictionary entry the tables cannot hold — an unknown country, a
    /// date like `2001-13`, `12001-5` or `2001-5 ` — is a typed dictionary
    /// error from both readers even behind a valid checksum: never a
    /// panic, never a row. An entry the tables do hold changes the
    /// dictionary the frames' checksums chain over, so only the original
    /// file decodes.
    #[test]
    fn dictionary_entries_outside_the_tables_are_refused(
        table in 0usize..2,
        code in "[A-Z]{2}|[ -~]{2}",
        date in "[0-9]{4}-[0-9]{2}|[0-9]{5}-[0-9]|[0-9]{4}-[0-9] |[ -~]{7}",
    ) {
        let text = if table == 0 { code } else { date };
        let bytes = with_dict_entry(table, &text);
        let held = if table == 0 {
            by_code(&text).is_some()
        } else {
            text.parse::<YearMonth>().is_ok()
        };
        let parsed = BinDataset::parse(&bytes, None);
        let (got, err) = decode_prefix(&bytes, None);
        if held {
            prop_assert_eq!(parsed.is_ok(), bytes == *container());
        } else {
            prop_assert!(matches!(parsed, Err(DecodeError::DictCorrupt { .. })), "{:?}", text);
            prop_assert!(got.is_empty());
            prop_assert!(matches!(err, Some(DecodeError::DictCorrupt { .. })));
        }
    }
}
