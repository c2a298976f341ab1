//! Differential-oracle suite: every oracle runs under every fault preset,
//! asserting graceful degradation — estimates stay probabilities, cleaning
//! never panics, verdicts agree across independent code paths, and recall
//! decays monotonically (no cliffs) as loss grows.

use proptest::prelude::*;
use sleepwatch_probing::{FaultPlan, LossBurst, TrinocularConfig};
use sleepwatch_simnet::ROUND_SECONDS;
use sleepwatch_spectral::{fft, fft_real, ifft, Complex, DiurnalConfig};
use sleepwatch_testkit::{baseline, fixtures, oracles};

/// Two weeks of rounds — the paper's observation span.
const ROUNDS: u64 = 1_833;

#[test]
fn fault_free_pipeline_meets_table1_floors() {
    // The paper reports 82 % precision / 91 % accuracy (Table 1); the
    // reproduction clears softer floors on a small 7-day world.
    let conf = oracles::confusion_under(&FaultPlan::none(), 2, 7.0);
    oracles::assert_confusion_floors(conf, 0.6, 0.8, "fault-free");
}

#[test]
fn every_preset_keeps_estimators_bounded_and_cleaning_total() {
    for (name, plan) in FaultPlan::presets(42) {
        // A diurnal and a flat block each, so both regimes are stressed.
        for block in [fixtures::diurnal_block(7, 70), fixtures::flat_block(8, 80)] {
            let run = oracles::run_under(&block, TrinocularConfig::a12w(), ROUNDS, &plan);
            oracles::assert_estimates_bounded(&run, name);
            let (series, fill) = oracles::clean_checked(&run, ROUNDS as usize, 0);
            assert!(series.len() <= ROUNDS as usize, "{name}: cleaned series longer than the run");
            assert!(fill <= 1.0, "{name}: fill {fill}");
        }
    }
}

#[test]
fn batch_and_online_verdicts_agree_under_every_preset() {
    let cfg = DiurnalConfig::default();
    for (name, plan) in FaultPlan::presets(17) {
        for (kind, block) in
            [("diurnal", fixtures::diurnal_block(3, 30)), ("flat", fixtures::flat_block(4, 40))]
        {
            let run = oracles::run_under(&block, TrinocularConfig::default(), ROUNDS, &plan);
            let (series, _) = oracles::clean_checked(&run, ROUNDS as usize, 0);
            if series.len() >= 4 {
                oracles::assert_batch_online_agree(&series, &cfg, &format!("{name}/{kind}"));
            }
        }
    }
}

#[test]
fn planned_fft_matches_baseline_kernels() {
    // Radix-2, Bluestein, and the post-trim lengths the pipeline really
    // produces (131 rounds/day × whole days).
    for n in [64usize, 131, 262, 523, 1_024, 1_702] {
        let input: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                0.5 + 0.3 * (t * 0.048).sin() + 0.1 * (t * 0.577).cos()
            })
            .collect();
        oracles::assert_planned_matches_baseline(&input, 1e-9);
    }
}

// Planned-path equivalence: the plan cache and scratch machinery must be
// observationally identical to the unplanned seed kernels at any length.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_and_unplanned_fft_agree_any_length(
        n in 1usize..=4096,
        seed in 0u64..1_000,
    ) {
        let xs: Vec<Complex> = (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(seed.wrapping_add(1)) as f64;
                Complex::new((t * 0.013).sin(), (t * 0.007).cos())
            })
            .collect();
        let planned = fft(&xs);
        let unplanned = baseline::fft(&xs);
        let scale = n as f64 * 2.0;
        for (k, (a, b)) in planned.iter().zip(&unplanned).enumerate() {
            prop_assert!((*a - *b).abs() < 1e-8 * scale, "bin {k}: {a:?} vs {b:?}");
        }

        let planned_inv = ifft(&xs);
        let unplanned_inv = baseline::ifft(&xs);
        for (k, (a, b)) in planned_inv.iter().zip(&unplanned_inv).enumerate() {
            prop_assert!((*a - *b).abs() < 1e-8 * scale, "inv bin {k}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn planned_and_unplanned_fft_real_agree_any_length(
        n in 1usize..=4096,
        seed in 0u64..1_000,
    ) {
        let xs: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed.wrapping_add(7)) as f64 * 0.011).sin())
            .collect();
        let planned = fft_real(&xs);
        let unplanned = baseline::fft_real(&xs);
        let scale = n as f64 * 2.0;
        for (k, (a, b)) in planned.iter().zip(&unplanned).enumerate() {
            prop_assert!((*a - *b).abs() < 1e-8 * scale, "bin {k}: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn diurnal_recall_degrades_monotonically_with_loss() {
    // Identical burst schedule (same seed, same windows), only the loss
    // severity grows: recall must decay without cliffs.
    let plan_with_loss = |loss: f64| FaultPlan {
        seed: 99,
        loss_burst: Some(LossBurst {
            epoch_rounds: 131,
            burst_chance: 0.6,
            max_len_rounds: 30,
            loss,
        }),
        ..FaultPlan::none()
    };
    let baseline = oracles::diurnal_recall_under(&FaultPlan::none(), 24, ROUNDS, "loss=none");
    assert!(baseline > 0.9, "fault-free recall only {baseline}");
    let mut prev = baseline;
    for loss in [0.2, 0.5, 0.8, 0.95] {
        let recall = oracles::diurnal_recall_under(&plan_with_loss(loss), 24, ROUNDS, "loss sweep");
        assert!(
            recall <= prev + 0.05,
            "recall rose from {prev} to {recall} as loss grew to {loss}"
        );
        assert!(recall >= prev - 0.5, "recall cliff: {prev} → {recall} at loss {loss}");
        prev = recall;
    }
}

#[test]
fn truncated_runs_shorten_but_never_break_the_pipeline() {
    let plan = FaultPlan::truncated(5);
    let cutoff = plan.truncate_after.unwrap();
    let block = fixtures::diurnal_block(11, 110);
    let run = oracles::run_under(&block, TrinocularConfig::default(), ROUNDS, &plan);
    assert!(run.records.len() as u64 <= cutoff, "records past the cutoff");
    oracles::assert_estimates_bounded(&run, "truncated");
    let (series, fill) = oracles::clean_checked(&run, ROUNDS as usize, 0);
    // Everything after the cutoff is interpolation; the fill fraction
    // must say so, so downstream classification can reject the tail.
    assert!(
        fill >= (ROUNDS - cutoff) as f64 / ROUNDS as f64 - 0.05,
        "fill {fill} hides the truncation"
    );
    assert!(!series.is_empty());
}

#[test]
fn blackout_rounds_are_missing_then_interpolated() {
    let plan = FaultPlan::blackout(5);
    let b = plan.blackout.unwrap();
    let block = fixtures::flat_block(12, 120);
    let run = oracles::run_under(&block, TrinocularConfig::default(), ROUNDS, &plan);
    for r in &run.records {
        assert!(
            r.round < b.start_round || r.round >= b.start_round + b.len_rounds,
            "round {} recorded inside the blackout",
            r.round
        );
    }
    let (_, fill) = oracles::clean_checked(&run, ROUNDS as usize, 0);
    assert!(fill > 0.0, "blackout produced nothing to interpolate");
}

#[test]
fn survey_truth_under_faults_stays_bounded() {
    use sleepwatch_probing::survey_block_with_faults;
    for (name, plan) in FaultPlan::presets(23) {
        let block = fixtures::diurnal_block(9, 90);
        let s = survey_block_with_faults(&block, 0, 400, &plan);
        let series = s.availability_series();
        assert!(series.len() as u64 <= 400, "{name}: too many rounds");
        for (i, v) in series.iter().enumerate() {
            assert!((0.0..=1.0).contains(v), "{name}: A({i}) = {v}");
        }
        assert_eq!(s.total_probes, 256 * s.rounds, "{name}: probe accounting");
    }
}

#[test]
fn restart_storm_artifact_is_visible_in_coverage() {
    // A storm must lose observations the fault-free run keeps.
    let block = fixtures::flat_block(14, 140);
    let clean = oracles::run_under(&block, TrinocularConfig::default(), ROUNDS, &FaultPlan::none());
    let stormy = oracles::run_under(
        &block,
        TrinocularConfig::default(),
        ROUNDS,
        &FaultPlan::restart_storm(3),
    );
    assert!(stormy.records.len() < clean.records.len(), "storm lost nothing");
    oracles::assert_estimates_bounded(&stormy, "restart-storm");
}

#[test]
fn churn_degrades_availability_but_not_validity() {
    // Replacing working addresses with dead ones lowers measured
    // availability after the churn point; estimates stay probabilities.
    let block = fixtures::flat_block(15, 150);
    let plan = FaultPlan::churn(7);
    let at = plan.churn.unwrap().at_round as usize;
    let run = oracles::run_under(&block, TrinocularConfig::default(), ROUNDS, &plan);
    oracles::assert_estimates_bounded(&run, "churn");
    let (series, _) = oracles::clean_checked(&run, ROUNDS as usize, 0);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    // The cleaned series is midnight-trimmed; translate the churn round
    // into post-trim coordinates conservatively by splitting well after it.
    let split = (at + 200).min(series.len());
    let (before, after) = series.split_at(split.min(series.len()));
    if !before.is_empty() && !after.is_empty() {
        assert!(
            mean(after) <= mean(before) + 0.05,
            "churned tail ({:.3}) should not beat the clean head ({:.3})",
            mean(after),
            mean(before)
        );
    }
}

#[test]
fn fault_free_run_with_faults_is_identical_to_run() {
    // The per-block differential twin of the golden suite's world check.
    let block = fixtures::diurnal_block(20, 200);
    let cfg = TrinocularConfig::a12w();
    let plain = {
        let mut p = sleepwatch_probing::TrinocularProber::new(&block, cfg);
        p.run(&block, ROUND_SECONDS, ROUNDS)
    };
    let mut p = sleepwatch_probing::TrinocularProber::new(&block, cfg);
    let faultless = p.run_with_faults(&block, ROUND_SECONDS, ROUNDS, &FaultPlan::none());
    assert_eq!(plain.records, faultless.records);
    assert_eq!(plain.total_probes, faultless.total_probes);
    assert_eq!(plain.outages, faultless.outages);
}
