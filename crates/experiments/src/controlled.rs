//! Figures 7–9: controlled-simulation sensitivity of diurnal detection
//! (§3.2.2), plus the strict-threshold ablation.
//!
//! One /24 with 50 stable and `n_d` diurnal addresses (8 h up / 16 h down)
//! is probed adaptively for four weeks; accuracy is the fraction of
//! experiments where the pipeline classifies the block strictly diurnal.
//! Each point runs `batches` batches of `per_batch` experiments and reports
//! median and quartiles across batches, like the paper's error bars.

use crate::common::{f, render_table, to_csv, Context, ExperimentOutput};
use sleepwatch_core::{analyze_block, AnalysisConfig};
use sleepwatch_simnet::ControlledConfig;
use sleepwatch_spectral::DiurnalClass;

/// Days of simulated observation (paper: 4 weeks).
const DAYS: f64 = 28.0;

/// Accuracy of one batch: fraction of `per_batch` controlled blocks
/// detected strictly diurnal.
fn batch_accuracy(
    cfg: &ControlledConfig,
    analysis: &AnalysisConfig,
    seed: u64,
    batch: u64,
    per_batch: u64,
) -> f64 {
    let mut hits = 0u64;
    for exp in 0..per_batch {
        let block = cfg.build(seed, batch * 1_000_003 + exp);
        let a = analyze_block(&block, analysis);
        if a.diurnal.class == DiurnalClass::Strict {
            hits += 1;
        }
    }
    hits as f64 / per_batch as f64
}

/// Runs one sweep: for each `(label, cfg)` point, batches × per-batch
/// accuracy, reporting `(label, q1, median, q3)`.
fn sweep(
    ctx: &Context,
    points: Vec<(f64, ControlledConfig)>,
    analysis: &AnalysisConfig,
) -> Vec<(f64, f64, f64, f64)> {
    let batches = ctx.opts.scaled(10, 3) as u64;
    let per_batch = ctx.opts.scaled(20, 5) as u64;
    points
        .into_iter()
        .map(|(x, cfg)| {
            let mut accs: Vec<f64> = (0..batches)
                .map(|b| {
                    batch_accuracy(&cfg, analysis, ctx.opts.seed ^ (x * 97.0) as u64, b, per_batch)
                })
                .collect();
            accs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let q = |p: f64| sleepwatch_stats::descriptive::quantile_sorted(&accs, p);
            (x, q(0.25), q(0.5), q(0.75))
        })
        .collect()
}

fn sweep_output(
    id: &'static str,
    title: &str,
    x_name: &str,
    results: Vec<(f64, f64, f64, f64)>,
) -> ExperimentOutput {
    let rows: Vec<Vec<String>> =
        results.iter().map(|&(x, q1, med, q3)| vec![f(x), f(q1), f(med), f(q3)]).collect();
    let mut report = render_table(title, &[x_name, "q1", "median acc", "q3"], &rows);
    let medians: Vec<f64> = results.iter().map(|r| r.2).collect();
    report.push_str(&format!("\naccuracy curve: {}\n", crate::plot::sparkline(&medians)));
    let headline = results.iter().map(|&(x, _, med, _)| (format!("acc@{x}"), f(med))).collect();
    let csv = to_csv(&[x_name, "q1", "median", "q3"], &rows);
    ExperimentOutput { id, report, headline, csv }
}

/// Fig. 7: accuracy vs the number of diurnal addresses `n_d`.
pub(crate) fn fig7(ctx: &Context) -> ExperimentOutput {
    let analysis = AnalysisConfig::over_days(0, DAYS);
    let points = [1u16, 2, 3, 5, 8, 10, 15, 20, 30, 50, 75, 100]
        .into_iter()
        .map(|nd| (nd as f64, ControlledConfig { n_diurnal: nd, ..Default::default() }))
        .collect();
    sweep_output(
        "fig7",
        "Fig. 7 — detection accuracy vs diurnal addresses n_d (Φ=σs=σd=0)",
        "n_d",
        sweep(ctx, points, &analysis),
    )
}

/// Fig. 8: accuracy vs maximum phase spread `Φ` (hours).
pub(crate) fn fig8(ctx: &Context) -> ExperimentOutput {
    let analysis = AnalysisConfig::over_days(0, DAYS);
    let points = (0..=12)
        .map(|i| {
            let phi = 2.0 * i as f64;
            (phi, ControlledConfig { phi_hours: phi, ..Default::default() })
        })
        .collect();
    sweep_output(
        "fig8",
        "Fig. 8 — detection accuracy vs max phase Φ hours (n_d=100, σs=σd=0)",
        "phi_h",
        sweep(ctx, points, &analysis),
    )
}

/// Fig. 9: accuracy vs duration noise `σ_d` (hours).
pub(crate) fn fig9(ctx: &Context) -> ExperimentOutput {
    let analysis = AnalysisConfig::over_days(0, DAYS);
    let points = (0..=12)
        .map(|i| {
            let sd = 2.0 * i as f64;
            (sd, ControlledConfig { sigma_duration: sd, ..Default::default() })
        })
        .collect();
    sweep_output(
        "fig9",
        "Fig. 9 — detection accuracy vs uptime-duration σ_d hours (n_d=100, Φ=σs=0)",
        "sigma_d_h",
        sweep(ctx, points, &analysis),
    )
}

/// Ablation: how the strict 2× dominance requirement trades detection of
/// noisy diurnal blocks against false positives on non-diurnal ones.
pub(crate) fn ablate_strict(ctx: &Context) -> ExperimentOutput {
    let ratios = [1.25, 1.5, 2.0, 3.0, 4.0];
    let per = ctx.opts.scaled(60, 15) as u64;
    let diurnal_cfg = ControlledConfig {
        phi_hours: 10.0,
        sigma_start: 1.0,
        sigma_duration: 1.0,
        ..Default::default()
    };
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for ratio in ratios {
        let mut analysis = AnalysisConfig::over_days(0, DAYS);
        analysis.diurnal.strict_ratio = ratio;
        // Detection on genuinely diurnal but noisy blocks.
        let det = batch_accuracy(&diurnal_cfg, &analysis, ctx.opts.seed ^ 0xab1, 0, per);
        // False positives on flat blocks with Bernoulli noise.
        let mut fp = 0u64;
        for exp in 0..per {
            let block = sleepwatch_simnet::BlockSpec::bare(
                exp,
                ctx.opts.seed ^ 0xab2,
                sleepwatch_simnet::BlockProfile::always_on(150, 0.6),
            );
            let a = analyze_block(&block, &analysis);
            if a.diurnal.class == DiurnalClass::Strict {
                fp += 1;
            }
        }
        let fp_rate = fp as f64 / per as f64;
        rows.push(vec![f(ratio), f(det), f(fp_rate)]);
        headline.push((format!("det@{ratio}"), f(det)));
        headline.push((format!("fp@{ratio}"), f(fp_rate)));
    }
    let report = render_table(
        "Ablation — strict dominance ratio: detection vs false positives",
        &["ratio", "detection (noisy diurnal)", "false-positive rate (flat)"],
        &rows,
    );
    let csv = to_csv(&["ratio", "detection", "false_positive_rate"], &rows);
    ExperimentOutput { id: "ablate-strict", report, headline, csv }
}
