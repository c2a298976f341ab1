//! Validate the lightweight estimators against full-survey ground truth.
//!
//! Generates a small survey world (every address probed every 11 minutes,
//! like the paper's `S51w`), runs the adaptive pipeline beside it, and
//! reports estimator quality and the diurnal-detection confusion matrix —
//! a miniature of the paper's §3.1–3.2 validation.
//!
//! Run with: `cargo run --release --example survey_validation [blocks]`

use sleepwatch::availability::clean_series;
use sleepwatch::core::analyze_series;
use sleepwatch::probing::{survey_block, TrinocularConfig, TrinocularProber};
use sleepwatch::simnet::{World, WorldConfig, ROUND_SECONDS, S51W_START};
use sleepwatch::spectral::DiurnalConfig;
use sleepwatch::stats::pearson;

fn main() {
    let blocks: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(150);
    let rounds = 1_833u64; // two weeks of 11-minute rounds

    let world = World::generate(WorldConfig {
        seed: 7,
        num_blocks: blocks,
        start_time: S51W_START,
        span_days: 14.0,
        ..Default::default()
    });
    println!("surveying {blocks} blocks × {rounds} rounds (this probes every address)…");

    let mut all_truth = Vec::new();
    let mut all_est = Vec::new();
    let mut confusion = [[0usize; 2]; 2];

    for block in &world.blocks {
        // Ground truth: the full survey.
        let survey = survey_block(block, world.cfg.start_time, rounds);
        let truth = survey.availability_series();

        // The lightweight path: adaptive probing + EWMA estimation.
        let mut prober = TrinocularProber::new(block, TrinocularConfig::default());
        let run = prober.run(block, world.cfg.start_time, rounds);
        let (a_s, _) = clean_series(
            &run.a_short_observations(),
            rounds as usize,
            world.cfg.start_time,
            ROUND_SECONDS,
        );

        let n = truth.len().min(a_s.len());
        // Subsample the correlation cloud to keep memory flat.
        for i in (0..n).step_by(5) {
            all_truth.push(truth[i]);
            all_est.push(a_s[i]);
        }

        let cfg = DiurnalConfig::default();
        let (truth_rep, _) = analyze_series(&truth[..n], &cfg);
        let (pred_rep, _) = analyze_series(&a_s[..n], &cfg);
        confusion[truth_rep.class.is_strict() as usize][pred_rep.class.is_strict() as usize] += 1;
    }

    let corr = pearson(&all_truth, &all_est).unwrap_or(0.0);
    let (tn, fp, fneg, tp) = (confusion[0][0], confusion[0][1], confusion[1][0], confusion[1][1]);
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let accuracy = (tp + tn) as f64 / blocks as f64;

    println!("\ncorrelation(Âs, A) over all rounds : {corr:.4}  (paper: 0.957)");
    println!("\ndiurnal confusion (truth × prediction):");
    println!("  d→d̂ {tp:>5}   d→n̂ {fneg:>5}");
    println!("  n→d̂ {fp:>5}   n→n̂ {tn:>5}");
    println!(
        "precision {:.1}%  accuracy {:.1}%  (paper: 82.5% / 91.0%)",
        100.0 * precision,
        100.0 * accuracy
    );
}
