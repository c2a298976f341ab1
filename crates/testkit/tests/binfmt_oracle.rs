//! TSV differential oracle for the compact binary dataset container.
//!
//! Fault-free and under every named [`FaultPlan`] preset, the 500-block
//! resilience world is analyzed at 1, 4 and 8 worker threads, and each analysis is
//! serialized three ways: the canonical TSV, the seed-joined binary
//! container and the self-contained one. The pin is byte-level and
//! total:
//!
//! * decoding either container and re-serializing as TSV must reproduce
//!   the directly written TSV **byte for byte** — every float, every
//!   dictionary string, every column, under every fault preset;
//! * the container bytes themselves must be deterministic: identical
//!   across thread counts and across repeated encodes;
//! * the same holds through the file layer (`write_dataset_bin_file`,
//!   then `decode_dataset` over the file's bytes) and through a
//!   kill-and-resume journal replay — a resumed run must emit the *same
//!   container bytes* as the uninterrupted one.

use sleepwatch_core::journal::record_boundaries;
use sleepwatch_core::{
    analyze_world, analyze_world_resumable, dataset_rows, decode_dataset, encode_dataset,
    DatasetMode,
};
use sleepwatch_probing::FaultPlan;
use sleepwatch_testkit::fixtures::{dataset_tsv, rows_tsv};
use sleepwatch_testkit::matrix::{fault, THREADS};
use sleepwatch_testkit::resilience::{scratch_path, RESILIENCE};

/// The oracle body: at each thread count, both container modes must
/// decode back to the byte-identical TSV, and all serializations must be
/// independent of the thread count that produced them.
fn tsv_differential(name: &str) {
    let world = RESILIENCE.world();
    let cfg = RESILIENCE.cfg(fault(name));
    let mut reference: Option<(String, Vec<u8>, Vec<u8>)> = None;
    for threads in THREADS {
        let analysis = analyze_world(&world, &cfg, threads, None);
        let tsv = dataset_tsv(&analysis);
        let rows = dataset_rows(&analysis);
        assert_eq!(rows.len(), RESILIENCE.blocks, "{name}@{threads}: rows missing");

        let joined = encode_dataset(&rows, DatasetMode::SeedJoined(&world.cfg))
            .unwrap_or_else(|e| panic!("{name}@{threads}: seed-joined encode: {e}"));
        let contained = encode_dataset(&rows, DatasetMode::SelfContained)
            .unwrap_or_else(|e| panic!("{name}@{threads}: self-contained encode: {e}"));
        for (mode, bytes, ctx) in
            [("seed-joined", &joined, Some(&world.cfg)), ("self-contained", &contained, None)]
        {
            let decoded = decode_dataset(bytes, ctx)
                .unwrap_or_else(|e| panic!("{name}@{threads}: {mode} decode: {e}"));
            assert_eq!(
                tsv,
                rows_tsv(&decoded),
                "{name}@{threads}: {mode} container did not round-trip the TSV byte-identically"
            );
        }

        match &reference {
            None => reference = Some((tsv, joined, contained)),
            Some((t, j, c)) => {
                assert_eq!(t, &tsv, "{name}@{threads}: TSV depends on thread count");
                assert_eq!(j, &joined, "{name}@{threads}: seed-joined bytes depend on threads");
                assert_eq!(
                    c, &contained,
                    "{name}@{threads}: self-contained bytes depend on threads"
                );
            }
        }
    }
}

sleepwatch_testkit::fault_tests!(tsv_differential);

/// The file layer preserves the oracle: a dataset written with
/// `write_dataset_bin_file` decodes back from the file's bytes into rows
/// whose TSV matches the direct serialization, and the binary file on
/// disk is smaller than the TSV it mirrors.
#[test]
fn file_layer_round_trips_and_shrinks() {
    let world = RESILIENCE.world();
    let cfg = RESILIENCE.cfg(FaultPlan::none());
    let analysis = analyze_world(&world, &cfg, 4, None);
    let want = dataset_tsv(&analysis);

    let tsv_path = scratch_path("binfmt-file-tsv");
    sleepwatch_core::write_dataset_file(&tsv_path, &analysis).expect("write TSV file");
    let bin_path = scratch_path("binfmt-file-bin");
    sleepwatch_core::write_dataset_bin_file(&bin_path, &analysis, Some(&world.cfg))
        .expect("write binary file");

    let tsv_len = std::fs::metadata(&tsv_path).expect("tsv metadata").len();
    let bin_len = std::fs::metadata(&bin_path).expect("bin metadata").len();
    assert!(bin_len < tsv_len / 4, "binary file {bin_len} B vs TSV {tsv_len} B: not compact");

    let bytes = std::fs::read(&bin_path).expect("read binary file");
    let rows = decode_dataset(&bytes, Some(&world.cfg)).expect("decode binary file");
    assert_eq!(want, rows_tsv(&rows), "file-layer round trip diverged");

    let _ = std::fs::remove_file(&tsv_path);
    let _ = std::fs::remove_file(&bin_path);
}

/// A run resumed from a severed checkpoint journal must serialize to the
/// same container bytes — and the same TSV — as the uninterrupted run:
/// the binary format composes with crash recovery.
#[test]
fn resumed_runs_emit_identical_container_bytes() {
    let world = RESILIENCE.world();
    let cfg = RESILIENCE.cfg(fault("dup-reorder"));
    let journal = scratch_path("binfmt-resume-ref");
    let reference =
        analyze_world_resumable(&world, &cfg, 8, &journal, None).expect("reference run");
    let want_tsv = dataset_tsv(&reference);
    let want_bin = encode_dataset(&dataset_rows(&reference), DatasetMode::SeedJoined(&world.cfg))
        .expect("reference encode");

    // Kill mid-run: keep half the records, resume at a different thread
    // count, and demand bit-identical serializations.
    let bytes = std::fs::read(&journal).expect("read journal");
    let cut = record_boundaries(&bytes)[RESILIENCE.blocks / 2];
    let severed = scratch_path("binfmt-resume-severed");
    std::fs::write(&severed, &bytes[..cut]).expect("write severed copy");
    let resumed = analyze_world_resumable(&world, &cfg, 4, &severed, None).expect("resumed run");

    assert_eq!(want_tsv, dataset_tsv(&resumed), "resumed TSV diverged");
    let resumed_bin = encode_dataset(&dataset_rows(&resumed), DatasetMode::SeedJoined(&world.cfg))
        .expect("resumed encode");
    assert_eq!(want_bin, resumed_bin, "resumed container bytes diverged");

    let decoded = decode_dataset(&resumed_bin, Some(&world.cfg)).expect("decode resumed");
    assert_eq!(want_tsv, rows_tsv(&decoded), "decoded resumed container diverged");
}
