//! Differential equivalence: the batched scratch-arena world pipeline
//! against the allocating per-block reference, `analyze_block`.
//!
//! The world run splits the per-block pipeline across micro-batch phases
//! (probe/clean into worker-local arenas, lane-batched FFT, classify and
//! join). That must be a pure performance structure: for every fault
//! preset, at every thread count, each report's summary must equal what a
//! plain loop over `analyze_block` computes — and the resumable-journal
//! path must agree too, whether the journal starts empty or replays a
//! completed run.

use sleepwatch_core::{analyze_block, analyze_world, analyze_world_resumable, AnalysisConfig};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::World;
use sleepwatch_testkit::fixtures::{conformance_faults, dataset_tsv, small_world, small_world_cfg};
use sleepwatch_testkit::matrix::{fault_plans, THREADS};
use sleepwatch_testkit::resilience::scratch_path;

/// Fault regimes under differential coverage: the fault-free default,
/// every named preset, and the combined conformance regime.
fn fault_regimes() -> Vec<(&'static str, FaultPlan)> {
    let mut regimes = fault_plans(0xD1FF);
    regimes.push(("conformance", conformance_faults()));
    regimes
}

/// The reference: one fresh-arena `analyze_block` per block, in a plain
/// loop. Rendered through `Debug` so the comparison is bit-exact
/// (`-0.0` vs `0.0`, NaN payloads) rather than `f64` equality.
fn reference_summaries(world: &World, cfg: &AnalysisConfig) -> Vec<String> {
    world.blocks.iter().map(|b| format!("{:?}", analyze_block(b, cfg).summary())).collect()
}

fn assert_matches_reference(
    analysis: &sleepwatch_core::WorldAnalysis,
    reference: &[String],
    context: &str,
) {
    assert!(analysis.quarantined.is_empty(), "{context}: unexpected quarantine");
    assert_eq!(analysis.reports.len(), reference.len(), "{context}: block count");
    for (report, want) in analysis.reports.iter().zip(reference) {
        assert_eq!(
            &format!("{:?}", report.summary),
            want,
            "{context}: block {} diverged from analyze_block",
            report.summary.block_id
        );
    }
}

#[test]
fn world_run_matches_analyze_block_under_every_fault_regime() {
    let world = small_world();
    for (name, plan) in fault_regimes() {
        let mut cfg = small_world_cfg(&world);
        cfg.faults = plan;
        let reference = reference_summaries(&world, &cfg);
        for threads in THREADS {
            let analysis = analyze_world(&world, &cfg, threads, None);
            assert_matches_reference(
                &analysis,
                &reference,
                &format!("regime {name}, {threads} threads"),
            );
        }
    }
}

#[test]
fn resumable_journal_path_matches_analyze_block() {
    let world = small_world();
    for (name, plan) in fault_regimes() {
        let mut cfg = small_world_cfg(&world);
        cfg.faults = plan;
        let reference = reference_summaries(&world, &cfg);
        // The join columns (location, registry, link classes) have no
        // per-block reference; the journal round trip must at least
        // reproduce the unjournaled run's dataset byte for byte.
        let plain = dataset_tsv(&analyze_world(&world, &cfg, 2, None));
        for threads in THREADS {
            let path = scratch_path(&format!("scratch-equiv-{name}-{threads}"));
            // First pass writes the journal from scratch…
            let first = analyze_world_resumable(&world, &cfg, threads, &path, None).unwrap();
            let context = format!("journaled run (regime {name}, {threads}t)");
            assert_matches_reference(&first, &reference, &context);
            assert_eq!(dataset_tsv(&first), plain, "{context}");
            // …and a second pass replays every block from it.
            let replayed = analyze_world_resumable(&world, &cfg, threads, &path, None).unwrap();
            let context = format!("journal replay (regime {name}, {threads}t)");
            assert_matches_reference(&replayed, &reference, &context);
            assert_eq!(dataset_tsv(&replayed), plain, "{context}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
