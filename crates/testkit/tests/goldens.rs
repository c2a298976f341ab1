//! Golden-report conformance: the world-run dataset must reproduce
//! byte-for-byte against the recorded golden, at every thread count.

use sleepwatch_obs::{Registry, Snapshot};
use sleepwatch_testkit::matrix::THREADS;
use sleepwatch_testkit::{assert_golden, fixtures};
use std::fmt::Write as _;

/// `tsv` renders the same bytes at every count in [`THREADS`], and they
/// are the golden `name`.
fn assert_golden_at_every_thread_count(name: &str, tsv: fn(usize) -> String) {
    let reference = tsv(THREADS[0]);
    for t in &THREADS[1..] {
        assert_eq!(reference, tsv(*t), "{name} differs between {} and {t} threads", THREADS[0]);
    }
    assert_golden(name, &reference);
}

/// The canonical world-run TSV is byte-identical to the recorded golden
/// and identical across 1/4/8 worker threads.
#[test]
fn world_dataset_matches_golden_across_threads() {
    assert_golden_at_every_thread_count("world_small.tsv", fixtures::world_dataset_tsv);
}

/// The same world under the combined conformance fault regime: the fault
/// layer itself must be deterministic and thread-count independent, and
/// its output is pinned so fault-draw keying can never drift silently.
#[test]
fn faulted_world_dataset_matches_golden_across_threads() {
    assert_golden_at_every_thread_count(
        "world_small_faulted.tsv",
        fixtures::faulted_world_dataset_tsv,
    );
}

/// Faults must actually change the output — otherwise the faulted golden
/// pins nothing.
#[test]
fn conformance_faults_alter_the_dataset() {
    assert_ne!(fixtures::world_dataset_tsv(2), fixtures::faulted_world_dataset_tsv(2));
}

/// Observability inertness: with the metrics registry disabled the
/// pipeline must still reproduce the recorded goldens byte-for-byte (the
/// instrumentation is write-only and cannot steer behaviour). Toggling the
/// global registry is safe here — every test in this suite is
/// metrics-state independent by construction.
#[test]
fn goldens_hold_with_metrics_disabled() {
    sleepwatch_obs::set_global_enabled(false);
    let plain = fixtures::world_dataset_tsv(2);
    let faulted = fixtures::faulted_world_dataset_tsv(2);
    sleepwatch_obs::set_global_enabled(true);
    assert_golden("world_small.tsv", &plain);
    assert_golden("world_small_faulted.tsv", &faulted);
}

/// Every snapshot key, under the map that holds it and in the order
/// `Snapshot` holds them. A metric added to the obs table shows up here
/// as one reviewed golden line; a renamed or dropped key fails.
#[test]
fn snapshot_key_set_matches_golden() {
    let s = Snapshot::capture(Registry::disabled());
    let mut keys = String::new();
    for k in s.counters.keys() {
        let _ = writeln!(keys, "counter {k}");
    }
    for k in s.histograms.keys() {
        let _ = writeln!(keys, "hist {k}");
    }
    for k in s.lengths.keys() {
        let _ = writeln!(keys, "lengths {k}");
    }
    assert_golden("snapshot_keys.txt", &keys);
}
