//! Figures 4–5 and Table 1: estimator validation against full surveys.
//!
//! A survey world in the style of `S51w` (two weeks, every address every 11
//! minutes) provides ground-truth availability; the same blocks are probed
//! adaptively, and the estimates are compared per (block, round):
//!
//! * Fig. 4 — density and per-0.1-bin quartiles of `Âs` vs true `A`, with
//!   the overall correlation coefficient (paper: 0.957);
//! * Fig. 5 — the same for `Âo`, plus the fraction of rounds where
//!   `Âo ≤ A` (paper: ~94 %);
//! * Table 1 — the diurnal confusion matrix: diurnal-from-`A` (ground
//!   truth) vs diurnal-from-`Âs` (paper: precision 82.5 %, accuracy 91 %).

use crate::common::{f, render_table, to_csv, Context, ExperimentOutput};
use sleepwatch_availability::clean_series;
use sleepwatch_core::analyze_series;
use sleepwatch_probing::{survey_block, TrinocularConfig, TrinocularProber};
use sleepwatch_simnet::{World, WorldConfig, ROUND_SECONDS, S51W_START};
use sleepwatch_spectral::DiurnalConfig;
use sleepwatch_stats::{binned_quartiles, BinnedQuartiles, DensityGrid};

/// Streaming Pearson accumulator.
#[derive(Debug, Default, Clone)]
struct CorrAcc {
    n: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl CorrAcc {
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1.0;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    fn r(&self) -> f64 {
        let cov = self.sxy - self.sx * self.sy / self.n;
        let vx = self.sxx - self.sx * self.sx / self.n;
        let vy = self.syy - self.sy * self.sy / self.n;
        if vx <= 0.0 || vy <= 0.0 {
            0.0
        } else {
            cov / (vx * vy).sqrt()
        }
    }
}

/// The shared survey-vs-adaptive study behind Figs. 4–5 and Table 1.
#[derive(Debug)]
pub struct SurveyStudy {
    /// Blocks studied.
    pub blocks: usize,
    /// Correlation of `Âs` with `A` over all (block, round) points.
    pub corr_short: f64,
    /// Correlation of `Âo` with `A`.
    pub corr_oper: f64,
    /// Fraction of points with `Âo ≤ A` (after a per-block warm-up).
    pub under_fraction: f64,
    /// Density of (A, Âs).
    pub grid_short: DensityGrid,
    /// Density of (A, Âo).
    pub grid_oper: DensityGrid,
    /// Quartiles of `Âs` per 0.1-wide bin of `A`.
    pub quartiles_short: BinnedQuartiles,
    /// Quartiles of `Âo` per bin of `A`.
    pub quartiles_oper: BinnedQuartiles,
    /// Table 1 cells: (truth diurnal & predicted diurnal, truth n & pred d,
    /// truth d & pred n, truth n & pred n).
    pub confusion: (usize, usize, usize, usize),
}

impl SurveyStudy {
    /// Precision of diurnal prediction.
    pub fn precision(&self) -> f64 {
        let (tp, fp, _, _) = self.confusion;
        tp as f64 / (tp + fp).max(1) as f64
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let (tp, fp, fneg, tn) = self.confusion;
        (tp + tn) as f64 / (tp + fp + fneg + tn).max(1) as f64
    }

    /// Runs the study (expensive; cached on the [`Context`]).
    pub fn compute(ctx: &Context) -> SurveyStudy {
        let n_blocks = ctx.opts.scaled(600, 60);
        let world = World::generate(WorldConfig {
            seed: ctx.opts.seed ^ 0x5157_5343,
            num_blocks: n_blocks,
            start_time: S51W_START,
            span_days: 14.0,
            ..Default::default()
        });
        let rounds = 1_833u64;
        let reporter = sleepwatch_obs::Reporter::new("[survey]");
        reporter.note(&format!("{} blocks × {} rounds…", n_blocks, rounds));

        let mut corr_s = CorrAcc::default();
        let mut corr_o = CorrAcc::default();
        let mut grid_s = DensityGrid::new(0.0, 1.0001, 100, 0.0, 1.0001, 100);
        let mut grid_o = DensityGrid::new(0.0, 1.0001, 100, 0.0, 1.0001, 100);
        let mut pairs_s: Vec<(f64, f64)> = Vec::new();
        let mut pairs_o: Vec<(f64, f64)> = Vec::new();
        let mut under = 0usize;
        let mut under_total = 0usize;
        let mut confusion = (0usize, 0usize, 0usize, 0usize);
        let diurnal_cfg = DiurnalConfig::default();

        for (bi, block) in world.blocks.iter().enumerate() {
            let survey = survey_block(block, world.cfg.start_time, rounds);
            let truth = survey.availability_series();

            let mut prober = TrinocularProber::new(block, TrinocularConfig::default());
            let run = prober.run(block, world.cfg.start_time, rounds);
            let (a_s, _) = clean_series(
                &run.a_short_observations(),
                rounds as usize,
                world.cfg.start_time,
                ROUND_SECONDS,
            );
            let (a_o, _) = clean_series(
                &run.a_operational_observations(),
                rounds as usize,
                world.cfg.start_time,
                ROUND_SECONDS,
            );
            let n = truth.len().min(a_s.len()).min(a_o.len());
            let warm = 200.min(n / 4);
            // Subsample the scatter pairs to keep quartile memory bounded.
            for i in 0..n {
                corr_s.push(truth[i], a_s[i]);
                corr_o.push(truth[i], a_o[i]);
                grid_s.add(truth[i], a_s[i]);
                grid_o.add(truth[i], a_o[i]);
                if i % 7 == 0 {
                    pairs_s.push((truth[i], a_s[i]));
                    pairs_o.push((truth[i], a_o[i]));
                }
                if i >= warm {
                    under_total += 1;
                    if a_o[i] <= truth[i] + 1e-9 {
                        under += 1;
                    }
                }
            }

            // Table 1: diurnal from truth vs diurnal from Âs.
            let (truth_rep, _) = analyze_series(&truth[..n], &diurnal_cfg);
            let (pred_rep, _) = analyze_series(&a_s[..n], &diurnal_cfg);
            match (truth_rep.class.is_strict(), pred_rep.class.is_strict()) {
                (true, true) => confusion.0 += 1,
                (false, true) => confusion.1 += 1,
                (true, false) => confusion.2 += 1,
                (false, false) => confusion.3 += 1,
            }
            reporter.report(bi + 1, n_blocks);
        }

        SurveyStudy {
            blocks: n_blocks,
            corr_short: corr_s.r(),
            corr_oper: corr_o.r(),
            under_fraction: under as f64 / under_total.max(1) as f64,
            grid_short: grid_s,
            grid_oper: grid_o,
            quartiles_short: binned_quartiles(pairs_s, 0.0, 1.0001, 10),
            quartiles_oper: binned_quartiles(pairs_o, 0.0, 1.0001, 10),
            confusion,
        }
    }
}

fn quartile_rows(q: &BinnedQuartiles) -> Vec<Vec<String>> {
    q.bins
        .iter()
        .map(|&(center, n, q1, med, q3)| vec![f(center), n.to_string(), f(q1), f(med), f(q3)])
        .collect()
}

/// Fig. 4: `Âs` vs true `A`.
pub(crate) fn fig4(ctx: &Context) -> ExperimentOutput {
    let study = ctx.survey_study();
    let rows = quartile_rows(&study.quartiles_short);
    let mut report = render_table(
        "Fig. 4 — Âs vs true A: quartiles per 0.1 bin of A",
        &["A bin", "points", "q1(Âs)", "median(Âs)", "q3(Âs)"],
        &rows,
    );
    report.push_str(&format!(
        "\ncorrelation coefficient(A, Âs) = {:.5}   (paper: 0.95685)\n",
        study.corr_short
    ));
    let headline = vec![
        ("corr".to_string(), f(study.corr_short)),
        ("blocks".to_string(), study.blocks.to_string()),
    ];
    let csv = to_csv(&["a_bin_center", "points", "q1", "median", "q3"], &rows);
    ExperimentOutput { id: "fig4", report, headline, csv }
}

/// Fig. 5: `Âo` vs true `A`.
pub(crate) fn fig5(ctx: &Context) -> ExperimentOutput {
    let study = ctx.survey_study();
    let rows = quartile_rows(&study.quartiles_oper);
    let mut report = render_table(
        "Fig. 5 — Âo vs true A: quartiles per 0.1 bin of A",
        &["A bin", "points", "q1(Âo)", "median(Âo)", "q3(Âo)"],
        &rows,
    );
    report.push_str(&format!(
        "\nP(Âo ≤ A) = {:.3}   (paper: ~0.94)\ncorrelation(A, Âo) = {:.4}\n",
        study.under_fraction, study.corr_oper
    ));
    let headline = vec![
        ("under_fraction".to_string(), f(study.under_fraction)),
        ("corr".to_string(), f(study.corr_oper)),
    ];
    let csv = to_csv(&["a_bin_center", "points", "q1", "median", "q3"], &rows);
    ExperimentOutput { id: "fig5", report, headline, csv }
}

/// Table 1: diurnal detection from `Âs` vs ground truth from `A`.
pub(crate) fn table1(ctx: &Context) -> ExperimentOutput {
    let study = ctx.survey_study();
    let (tp, fp, fneg, tn) = study.confusion;
    let total = (tp + fp + fneg + tn).max(1);
    let pct = |x: usize| format!("{:.2}%", 100.0 * x as f64 / total as f64);
    let rows = vec![
        vec!["(correct) d".into(), "d̂".into(), tp.to_string(), pct(tp)],
        vec!["n".into(), "n̂".into(), tn.to_string(), pct(tn)],
        vec!["(error) d".into(), "n̂".into(), fneg.to_string(), pct(fneg)],
        vec!["n".into(), "d̂".into(), fp.to_string(), pct(fp)],
    ];
    let mut report = render_table(
        "Table 1 — diurnal validation: truth (A) vs predicted (Âs)",
        &["with A", "with Âs", "blocks", "share"],
        &rows,
    );
    report.push_str(&format!(
        "\nprecision: {:.2}%   accuracy: {:.2}%   (paper: 82.48% / 90.99%)\n",
        100.0 * study.precision(),
        100.0 * study.accuracy()
    ));
    let headline = vec![
        ("precision".to_string(), f(study.precision())),
        ("accuracy".to_string(), f(study.accuracy())),
        ("tp".to_string(), tp.to_string()),
        ("fp".to_string(), fp.to_string()),
        ("fn".to_string(), fneg.to_string()),
        ("tn".to_string(), tn.to_string()),
    ];
    let csv = to_csv(
        &["truth", "predicted", "blocks"],
        &[
            vec!["d".into(), "d".into(), tp.to_string()],
            vec!["n".into(), "n".into(), tn.to_string()],
            vec!["d".into(), "n".into(), fneg.to_string()],
            vec!["n".into(), "d".into(), fp.to_string()],
        ],
    );
    ExperimentOutput { id: "table1", report, headline, csv }
}
