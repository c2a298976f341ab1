//! Kill-and-resume differential oracle for the world-run checkpoint
//! journal.
//!
//! Fault-free and under every named [`FaultPlan`] preset we run the
//! 500-block resilience world once to completion through `analyze_world_resumable`, which
//! doubles as the reference output *and* produces a complete journal.
//! We then simulate two kinds of crash by truncating a copy of that
//! journal — at an exact record boundary, and mid-record (a torn write) —
//! and resume from each severed copy. The resumed analyses must serialize
//! to TSVs byte-identical to the uninterrupted run, at 1 and at 8 worker
//! threads.

use sleepwatch_core::analyze_world_resumable;
use sleepwatch_core::journal::record_boundaries;
use sleepwatch_probing::FaultPlan;
use sleepwatch_testkit::fixtures::dataset_tsv;
use sleepwatch_testkit::matrix::fault;
use sleepwatch_testkit::resilience::{scratch_path, RESILIENCE};
use std::path::Path;

/// Truncates a copy of `journal` to `len` bytes at a fresh scratch path.
fn severed_copy(journal: &Path, tag: &str, len: usize) -> std::path::PathBuf {
    let bytes = std::fs::read(journal).expect("read complete journal");
    assert!(len < bytes.len(), "sever point {len} is not inside the journal");
    let path = scratch_path(tag);
    std::fs::write(&path, &bytes[..len]).expect("write severed copy");
    path
}

/// The oracle body: reference run at 8 threads, then resume from a
/// record-boundary sever at 1 thread and a mid-record sever at 8 threads.
fn kill_and_resume(name: &str) {
    let world = RESILIENCE.world();
    let cfg = RESILIENCE.cfg(fault(name));
    let journal = scratch_path(&format!("{name}-ref"));

    let reference =
        analyze_world_resumable(&world, &cfg, 8, &journal, None).expect("reference run");
    assert!(reference.quarantined.is_empty(), "{name}: unexpected quarantines");
    let want = dataset_tsv(&reference);

    let bytes = std::fs::read(&journal).expect("read journal");
    let bounds = record_boundaries(&bytes);
    assert_eq!(
        bounds.len() - 1,
        RESILIENCE.blocks,
        "{name}: journal should hold one record per block"
    );
    assert_eq!(*bounds.last().unwrap(), bytes.len(), "{name}: trailing bytes in the journal");

    // Crash after a clean fsync: the tail ends exactly on a record boundary.
    let boundary = bounds[RESILIENCE.blocks / 2];
    let at_boundary = severed_copy(&journal, &format!("{name}-boundary"), boundary);
    let resumed =
        analyze_world_resumable(&world, &cfg, 1, &at_boundary, None).expect("boundary resume");
    assert!(resumed.quarantined.is_empty());
    assert_eq!(
        want,
        dataset_tsv(&resumed),
        "{name}: resume from record-boundary sever at 1 thread diverged"
    );

    // Torn write: the crash landed mid-record and left a damaged suffix.
    let mid_record = boundary + (bounds[RESILIENCE.blocks / 2 + 1] - boundary) / 2;
    let torn = severed_copy(&journal, &format!("{name}-torn"), mid_record);
    let resumed = analyze_world_resumable(&world, &cfg, 8, &torn, None).expect("torn resume");
    assert!(resumed.quarantined.is_empty());
    assert_eq!(
        want,
        dataset_tsv(&resumed),
        "{name}: resume from mid-record sever at 8 threads diverged"
    );
}

sleepwatch_testkit::fault_tests!(kill_and_resume);

/// A bit flip in the journal body (not just truncation) must also resume
/// to a byte-identical result: replay keeps the valid prefix and recomputes
/// everything from the first damaged record onward.
#[test]
fn bit_flipped_tail_resumes_identically() {
    let world = RESILIENCE.world();
    let cfg = RESILIENCE.cfg(FaultPlan::none());
    let journal = scratch_path("flip-ref");
    let reference =
        analyze_world_resumable(&world, &cfg, 8, &journal, None).expect("reference run");
    let want = dataset_tsv(&reference);

    let mut bytes = std::fs::read(&journal).expect("read journal");
    // 17 bytes into record 100 — inside every record's fixed prefix.
    let victim = record_boundaries(&bytes)[100] + 17;
    bytes[victim] ^= 0x40;
    let flipped = scratch_path("flip");
    std::fs::write(&flipped, &bytes).expect("write flipped copy");

    let resumed = analyze_world_resumable(&world, &cfg, 8, &flipped, None).expect("resume");
    assert!(resumed.quarantined.is_empty());
    assert_eq!(want, dataset_tsv(&resumed), "resume over a bit-flipped record diverged");
}

/// With no journal on disk at all, the resumable entry point must match
/// the plain `analyze_world` path byte for byte.
#[test]
fn resumable_matches_plain_run() {
    let world = RESILIENCE.world();
    let cfg = RESILIENCE.cfg(fault("blackout"));
    let plain = sleepwatch_core::analyze_world(&world, &cfg, 8, None);
    let journal = scratch_path("plain-vs-resumable");
    let resumable = analyze_world_resumable(&world, &cfg, 8, &journal, None).expect("run");
    assert_eq!(dataset_tsv(&plain), dataset_tsv(&resumable));
}
