//! Differential oracles: two independent implementations of the same
//! quantity, cross-checked. Each helper panics with context on violation,
//! so suites can call them directly and under every fault preset.

use crate::baseline;
use sleepwatch_availability::clean_series;
use sleepwatch_core::{analyze_series, OnlineConfig, OnlineDetector};
use sleepwatch_probing::{BlockRun, FaultPlan, TrinocularConfig, TrinocularProber};
use sleepwatch_simnet::{BlockSpec, ROUND_SECONDS};
use sleepwatch_spectral::{plan_for, Complex, DiurnalConfig, SpectrumScratch};

/// Runs the adaptive prober over `block` from time 0 under `plan`.
pub fn run_under(
    block: &BlockSpec,
    cfg: TrinocularConfig,
    rounds: u64,
    plan: &FaultPlan,
) -> BlockRun {
    let mut prober = TrinocularProber::new(block, cfg);
    prober.run_with_faults(block, 0, rounds, plan)
}

/// Graceful-degradation invariant: whatever faults were injected, every
/// estimate in the run is a probability and the probe accounting is sane.
pub fn assert_estimates_bounded(run: &BlockRun, context: &str) {
    for r in &run.records {
        for (name, v) in
            [("a_short", r.a_short), ("a_long", r.a_long), ("a_operational", r.a_operational)]
        {
            assert!(
                (0.0..=1.0).contains(&v),
                "{context}: round {} {name} = {v} escapes [0, 1]",
                r.round
            );
        }
        assert!(
            r.positives <= r.probes,
            "{context}: round {} has {} positives from {} probes",
            r.round,
            r.positives,
            r.probes
        );
    }
}

/// Cleaning totality: `clean_series` must accept any record stream —
/// gappy, duplicated, reordered, truncated — without panicking, and
/// return a bounded series and fill fraction.
pub fn clean_checked(run: &BlockRun, rounds: usize, start_time: u64) -> (Vec<f64>, f64) {
    let (series, fill) =
        clean_series(&run.a_short_observations(), rounds, start_time, ROUND_SECONDS);
    assert!((0.0..=1.0).contains(&fill), "fill fraction {fill} escapes [0, 1]");
    for (i, v) in series.iter().enumerate() {
        assert!((0.0..=1.0).contains(v), "cleaned sample {i} = {v} escapes [0, 1]");
    }
    (series, fill)
}

/// Differential oracle: the batch classifier and [`OnlineDetector`] are
/// independent code paths to the same verdict. Configured so the online
/// window is exactly the full series (one classification, no screen, no
/// hysteresis), the two must agree exactly.
pub fn assert_batch_online_agree(series: &[f64], cfg: &DiurnalConfig, context: &str) {
    assert!(series.len() >= 4, "{context}: series too short to compare ({})", series.len());
    let (batch, _) = analyze_series(series, cfg);
    let mut det = OnlineDetector::new(OnlineConfig {
        window_rounds: series.len(),
        reclassify_every: series.len(),
        screen_threshold: 0.0,
        sample_period: ROUND_SECONDS as f64,
        diurnal: *cfg,
        hysteresis: 1,
    });
    let mut scratch = SpectrumScratch::new();
    for end in 1..=series.len() {
        det.push(&series[..end], &mut scratch);
    }
    det.settle(series, &mut scratch);
    let online = det.class();
    assert_eq!(
        online, batch.class,
        "{context}: online verdict {online:?} != batch verdict {:?}",
        batch.class
    );
}

/// Differential oracle: the cached-plan FFT must match the seed baseline
/// kernels coefficient-for-coefficient on the same input (any length —
/// radix-2 and Bluestein paths both covered).
pub fn assert_planned_matches_baseline(input: &[f64], tol: f64) {
    let plan = plan_for(input.len());
    let planned = plan.fft_real(input);
    let baseline = baseline::fft_real(input);
    assert_eq!(planned.len(), baseline.len(), "n = {}: output length differs", input.len());
    let scale = input.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
    for (k, (p, b)) in planned.iter().zip(&baseline).enumerate() {
        let d = Complex { re: p.re - b.re, im: p.im - b.im };
        let err = (d.re * d.re + d.im * d.im).sqrt();
        assert!(
            err <= tol * scale,
            "n = {}: bin {k} differs by {err:.3e} (planned {p:?}, baseline {b:?})",
            input.len()
        );
    }
}

/// Fraction of `n_blocks` planted-diurnal fixture blocks still classified
/// diurnal after a `rounds`-round adaptive run under `plan`, with the
/// bounded-estimates and cleaning-totality invariants asserted on every
/// run along the way.
pub fn diurnal_recall_under(plan: &FaultPlan, n_blocks: u64, rounds: u64, context: &str) -> f64 {
    assert!(n_blocks > 0);
    let cfg = DiurnalConfig::default();
    let mut detected = 0u64;
    for id in 0..n_blocks {
        let block = crate::fixtures::diurnal_block(id, 1_000 + id);
        let run = run_under(&block, TrinocularConfig::default(), rounds, plan);
        assert_estimates_bounded(&run, context);
        let (series, _) = clean_checked(&run, rounds as usize, 0);
        if series.len() >= 4 {
            let (report, _) = analyze_series(&series, &cfg);
            if report.class.is_diurnal() {
                detected += 1;
            }
        }
    }
    detected as f64 / n_blocks as f64
}

/// Survey-truth vs adaptive-path confusion on [`crate::fixtures::small_world`]
/// scaled up to `days`, under `plan`. Returns `(tp, fp, fneg, tn)` against
/// the planted labels.
pub fn confusion_under(
    plan: &FaultPlan,
    threads: usize,
    days: f64,
) -> (usize, usize, usize, usize) {
    use sleepwatch_core::{analyze_world, AnalysisConfig};
    use sleepwatch_simnet::{World, WorldConfig};
    let world = World::generate(WorldConfig {
        num_blocks: 150,
        seed: 21,
        span_days: days,
        ..Default::default()
    });
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, days);
    cfg.faults = *plan;
    analyze_world(&world, &cfg, threads, None).confusion_vs_planted()
}

/// Table-1-style floors: precision and accuracy of a confusion matrix
/// must clear the given minima.
pub fn assert_confusion_floors(
    (tp, fp, fneg, tn): (usize, usize, usize, usize),
    min_precision: f64,
    min_accuracy: f64,
    context: &str,
) {
    let total = tp + fp + fneg + tn;
    assert!(total > 0, "{context}: empty confusion matrix");
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let accuracy = (tp + tn) as f64 / total as f64;
    assert!(
        precision >= min_precision,
        "{context}: precision {precision:.3} below floor {min_precision}"
    );
    assert!(
        accuracy >= min_accuracy,
        "{context}: accuracy {accuracy:.3} below floor {min_accuracy}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_vs_baseline_detects_no_drift_on_small_sizes() {
        for n in [4usize, 7, 16, 45] {
            let input: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 97.0).collect();
            assert_planned_matches_baseline(&input, 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "escapes [0, 1]")]
    fn bounded_oracle_rejects_bad_estimates() {
        use sleepwatch_probing::{BlockState, RoundRecord};
        let bad = RoundRecord {
            round: 0,
            probes: 1,
            positives: 1,
            a_short: 1.5,
            a_long: 0.5,
            a_operational: 0.5,
            state: BlockState::Up,
        };
        let run = BlockRun {
            block_id: 0,
            rounds: 1,
            records: vec![bad],
            outages: vec![],
            total_probes: 1,
        };
        assert_estimates_bounded(&run, "test");
    }
}
