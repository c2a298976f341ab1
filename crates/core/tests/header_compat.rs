//! Cross-format header-compatibility regressions: the journal and the
//! compact dataset container share one prelude validator,
//! so every mismatch kind — wrong magic, byte-swapped file, future
//! version, wrong payload kind or mode, foreign run identity — must
//! surface as the *same* typed [`DecodeError`] from every format, with
//! the same `Display` text.

use sleepwatch_core::binfmt::{dataset_identity, DATASET_MAGIC, DATASET_VERSION, KIND_DATASET};
use sleepwatch_core::journal::{decode_header_v2, encode_header_v2, open_resume, JOURNAL_VERSION};
use sleepwatch_core::{
    analyze_world, dataset_rows, decode_dataset, encode_dataset, load_rows, AnalysisConfig,
    BinDataset, DatasetMode, DecodeError, IdentityField, JournalError, JournalHeader, LoadError,
};
use sleepwatch_framing::{crc32, Prelude, PRELUDE_LEN};
use sleepwatch_simnet::{World, WorldConfig};

// The journal magics read the ASCII big-endian (unlike the dataset
// magic), so on disk a v2 journal begins "2LNJWPLS".
const JOURNAL_MAGIC_V2: u64 = u64::from_be_bytes(*b"SLPWJNL2");

fn fixture_cfg() -> WorldConfig {
    WorldConfig { num_blocks: 40, seed: 21, span_days: 1.0, ..Default::default() }
}

/// A small encoded seed-joined dataset plus the world that produced it.
fn fixture() -> (WorldConfig, Vec<u8>) {
    let cfg = fixture_cfg();
    let world = World::generate(cfg.clone());
    let acfg = AnalysisConfig::over_days(world.cfg.start_time, world.cfg.span_days);
    let analysis = analyze_world(&world, &acfg, 2, None);
    let bytes = encode_dataset(&dataset_rows(&analysis), DatasetMode::SeedJoined(&world.cfg))
        .expect("fixture encode");
    (world.cfg.clone(), bytes)
}

/// Re-heads a dataset file with a prelude whose fields were tweaked by
/// `patch` — the CRC is recomputed, so only the *interpreted* fields
/// differ from a valid file.
fn rehead(bytes: &[u8], patch: impl FnOnce(&mut Prelude)) -> Vec<u8> {
    let mut prelude = Prelude::decode(bytes).expect("fixture prelude decodes");
    patch(&mut prelude);
    let mut out = prelude.encode().to_vec();
    out.extend_from_slice(&bytes[PRELUDE_LEN..]);
    out
}

/// Scratch path for the `open_resume` dispatch tests.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sleepwatch-headercompat-{tag}-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Identity mismatches: every field, same error from either format
// ---------------------------------------------------------------------------

/// Decoding a seed-joined dataset against a world that differs in any
/// identity field reports `IdentityMismatch` naming that field — and the
/// error value is exactly the one the journal would report for the same
/// disagreement, because both run through `check_identity`.
#[test]
fn dataset_identity_mismatch_names_each_field() {
    let (cfg, bytes) = fixture();
    type Tweak = fn(&mut WorldConfig);
    let cases: [(IdentityField, Tweak); 3] = [
        (IdentityField::WorldSeed, |c| c.seed += 1),
        (IdentityField::NumBlocks, |c| c.num_blocks += 1),
        (IdentityField::StartTime, |c| c.start_time += 3600),
    ];
    for (field, tweak) in cases {
        let mut other = cfg.clone();
        tweak(&mut other);
        let err = decode_dataset(&bytes, Some(&other)).expect_err("foreign world must be refused");
        let DecodeError::IdentityMismatch { field: got, .. } = err else {
            panic!("{}: expected IdentityMismatch, got {err:?}", field.name());
        };
        assert_eq!(got, field, "wrong field blamed");

        // The journal's resume-time identity check must produce the very
        // same error value for the same disagreement.
        let expect = JournalHeader::from_identity(&dataset_identity(&other));
        let found = JournalHeader::from_identity(&dataset_identity(&cfg));
        let path = scratch(&format!("idmatch-{}", field.name()));
        let _ = std::fs::remove_file(&path);
        drop(open_resume(&path, &found).expect("fresh journal"));
        let journal_err = open_resume(&path, &expect).expect_err("foreign journal must be refused");
        let JournalError::HeaderMismatch { mismatch, .. } = journal_err else {
            panic!("{}: expected HeaderMismatch, got {journal_err:?}", field.name());
        };
        assert_eq!(mismatch, err, "{}: journal and dataset errors diverged", field.name());
        assert!(mismatch.to_string().contains("different run"), "unexpected message: {mismatch}");
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// Prelude-level mismatches against the dataset container
// ---------------------------------------------------------------------------

#[test]
fn dataset_rejects_truncated_prelude() {
    let (cfg, bytes) = fixture();
    let err = BinDataset::parse(&bytes[..10], Some(&cfg)).expect_err("10 bytes is no header");
    assert_eq!(err, DecodeError::Truncated { need: PRELUDE_LEN, have: 10 });
}

#[test]
fn dataset_rejects_byte_swapped_magic_as_endianness() {
    let (cfg, bytes) = fixture();
    let swapped = rehead(&bytes, |p| p.magic = DATASET_MAGIC.swap_bytes());
    let err = BinDataset::parse(&swapped, Some(&cfg)).expect_err("big-endian file");
    assert_eq!(err, DecodeError::EndianMismatch);
}

#[test]
fn dataset_rejects_future_version() {
    let (cfg, bytes) = fixture();
    let future = rehead(&bytes, |p| p.version = DATASET_VERSION + 1);
    let err = BinDataset::parse(&future, Some(&cfg)).expect_err("future version");
    assert_eq!(
        err,
        DecodeError::UnsupportedVersion { found: DATASET_VERSION + 1, supported: DATASET_VERSION }
    );
}

#[test]
fn dataset_rejects_wrong_kind_and_mode() {
    let (cfg, bytes) = fixture();
    let wrong_kind = rehead(&bytes, |p| p.kind = KIND_DATASET + 9);
    assert_eq!(
        BinDataset::parse(&wrong_kind, Some(&cfg)).expect_err("wrong kind"),
        DecodeError::BadKind { found: KIND_DATASET + 9 }
    );
    let wrong_mode = rehead(&bytes, |p| p.mode = 7);
    assert_eq!(
        BinDataset::parse(&wrong_mode, Some(&cfg)).expect_err("wrong mode"),
        DecodeError::BadMode { found: 7 }
    );
}

/// Feeding each format's file to the *other* format's decoder reports
/// the foreign magic — never a crash, never a misparse.
#[test]
fn formats_reject_each_others_files_by_magic() {
    let (cfg, dataset) = fixture();
    let journal = encode_header_v2(&JournalHeader::from_identity(&dataset_identity(&cfg)));

    let err = BinDataset::parse(&journal, Some(&cfg)).expect_err("journal fed to dataset");
    assert_eq!(err, DecodeError::BadMagic { found: JOURNAL_MAGIC_V2 });

    let err = decode_header_v2(&dataset).expect_err("dataset fed to journal");
    assert_eq!(err, DecodeError::BadMagic { found: DATASET_MAGIC });
}

// ---------------------------------------------------------------------------
// The same mismatch kinds against the journal header
// ---------------------------------------------------------------------------

/// Patches one prelude field of an encoded journal header in place,
/// re-fixing the header CRC so only the interpreted field differs.
fn patch_journal_prelude(header: &[u8], patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut out = header.to_vec();
    patch(&mut out[..PRELUDE_LEN]);
    let crc = crc32(&out[..56]);
    out[56..60].copy_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn journal_v2_header_reports_the_same_mismatch_kinds() {
    let header = encode_header_v2(&JournalHeader {
        world_seed: 21,
        num_blocks: 40,
        rounds: 96,
        start_time: 1_234_567,
    });
    let (decoded, len) = decode_header_v2(&header).expect("own header decodes");
    assert_eq!(decoded.world_seed, 21);
    assert_eq!(len, header.len());

    assert_eq!(
        decode_header_v2(&header[..20]).expect_err("truncated"),
        DecodeError::Truncated { need: PRELUDE_LEN, have: 20 }
    );

    let swapped = patch_journal_prelude(&header, |p| {
        let m = JOURNAL_MAGIC_V2.swap_bytes();
        p[0..8].copy_from_slice(&m.to_le_bytes());
    });
    assert_eq!(decode_header_v2(&swapped).expect_err("swapped"), DecodeError::EndianMismatch);

    let future = patch_journal_prelude(&header, |p| {
        p[8..10].copy_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
    });
    assert_eq!(
        decode_header_v2(&future).expect_err("future version"),
        DecodeError::UnsupportedVersion { found: JOURNAL_VERSION + 1, supported: JOURNAL_VERSION }
    );

    let wrong_kind = patch_journal_prelude(&header, |p| p[12] = 9);
    assert_eq!(
        decode_header_v2(&wrong_kind).expect_err("wrong kind"),
        DecodeError::BadKind { found: 9 }
    );

    let wrong_mode = patch_journal_prelude(&header, |p| p[13] = 5);
    assert_eq!(
        decode_header_v2(&wrong_mode).expect_err("wrong mode"),
        DecodeError::BadMode { found: 5 }
    );

    // A flipped dictionary byte is dictionary corruption, not a panic
    // and not a silent accept.
    let mut dict_flip = header.clone();
    let last = dict_flip.len() - 5; // inside the dict payload, before its CRC
    dict_flip[last] ^= 0x40;
    assert!(matches!(
        decode_header_v2(&dict_flip).expect_err("flipped dict byte"),
        DecodeError::DictCorrupt { .. } | DecodeError::DictMismatch { .. }
    ));
}

// ---------------------------------------------------------------------------
// open_resume dispatch: refusals are typed, garbage is rewritten
// ---------------------------------------------------------------------------

#[test]
fn open_resume_refuses_foreign_and_future_journals_with_typed_errors() {
    let header = JournalHeader { world_seed: 1, num_blocks: 8, rounds: 96, start_time: 0 };

    // A future member of the journal magic family must be refused as a
    // version problem, not rewritten as garbage.
    let path = scratch("future");
    let mut future = (JOURNAL_MAGIC_V2 + 1).to_le_bytes().to_vec(); // "SLPWJNL3"
    future.extend_from_slice(b" pretend future journal");
    std::fs::write(&path, &future).expect("write");
    let err = open_resume(&path, &header).expect_err("future journal");
    let JournalError::Incompatible(inner) = err else {
        panic!("expected Incompatible, got {err:?}");
    };
    assert_eq!(inner, DecodeError::UnsupportedVersion { found: 3, supported: JOURNAL_VERSION });
    let _ = std::fs::remove_file(&path);

    // Byte-swapped magic (any version digit) is an endianness refusal. A
    // big-endian writer would emit the magic's ASCII in natural order.
    for magic in ["SLPWJNL1", "SLPWJNL2"] {
        let path = scratch(&format!("swapped-{}", &magic[7..]));
        let mut swapped = magic.as_bytes().to_vec();
        swapped.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &swapped).expect("write");
        let err = open_resume(&path, &header).expect_err("byte-swapped journal");
        assert!(
            matches!(err, JournalError::Incompatible(DecodeError::EndianMismatch)),
            "{magic}: got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    // Unrecognized bytes are not a refusal: the journal is rewritten
    // fresh (crash recovery must never wedge on a scribbled file).
    let path = scratch("garbage");
    std::fs::write(&path, b"not a journal at all").expect("write");
    let (writer, reports, _) = open_resume(&path, &header).expect("garbage is rewritten");
    assert!(reports.is_empty());
    drop(writer);
    let bytes = std::fs::read(&path).expect("rewritten journal");
    assert_eq!(bytes[..8], JOURNAL_MAGIC_V2.to_le_bytes(), "fresh journals are written as v2");
    let _ = std::fs::remove_file(&path);
}

/// A version-1 journal is a real file from a format this build no
/// longer reads: both consumers refuse it with the typed version error,
/// and neither rewrites, truncates or touches it.
#[test]
fn v1_journals_are_refused_untouched_by_resume_and_serve() {
    let header = JournalHeader { world_seed: 1, num_blocks: 8, rounds: 96, start_time: 0 };
    let path = scratch("v1");
    let mut v1 = (JOURNAL_MAGIC_V2 - 1).to_le_bytes().to_vec(); // "SLPWJNL1"
    assert_eq!(v1, *b"1LNJWPLS");
    v1.extend((0..124u8).map(|i| i.wrapping_mul(37)));
    std::fs::write(&path, &v1).expect("write");
    let unsupported = DecodeError::UnsupportedVersion { found: 1, supported: JOURNAL_VERSION };

    let err = open_resume(&path, &header).expect_err("v1 journal must not resume");
    let JournalError::Incompatible(inner) = err else {
        panic!("expected Incompatible, got {err:?}");
    };
    assert_eq!(inner, unsupported);
    assert_eq!(std::fs::read(&path).expect("still there"), v1, "open_resume touched the file");

    let err = load_rows(&path, None, &header).expect_err("v1 journal must not serve");
    let LoadError::Decode(inner) = err else {
        panic!("expected Decode, got {err:?}");
    };
    assert_eq!(inner, unsupported);
    assert_eq!(std::fs::read(&path).expect("still there"), v1, "load_rows touched the file");
    let _ = std::fs::remove_file(&path);
}
