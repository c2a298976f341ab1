//! Ablation experiments for the design choices DESIGN.md calls out:
//! the separate-(p,t) EWMA vs the legacy direct-ratio EWMA (§2.1.2's
//! note), and the Trinocular per-round probe budget (§3.2.4's policy
//! trade-off).

use crate::common::{f, render_table, to_csv, Context, ExperimentOutput};
use sleepwatch_availability::{clean_series, AvailabilityEstimator, DirectEwmaEstimator};
use sleepwatch_core::analyze_series;
use sleepwatch_probing::{TrinocularConfig, TrinocularProber};
use sleepwatch_simnet::{BlockProfile, BlockSpec, ROUND_SECONDS};
use sleepwatch_spectral::{acf_diurnal, DiurnalConfig, LombScargle};

/// Ablation: paper estimator vs direct-ratio EWMA under adaptive probing
/// bias, across true availability levels.
pub(crate) fn ablate_ewma(ctx: &Context) -> ExperimentOutput {
    let rounds = ctx.opts.scaled(4_000, 1_000) as u64;
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for truth_target in [0.15, 0.3, 0.5, 0.7, 0.9] {
        let block = BlockSpec::bare(
            (truth_target * 100.0) as u64,
            ctx.opts.seed ^ 0xE3A,
            BlockProfile::always_on(180, truth_target),
        );
        let truth = block.true_availability(0);
        let mut prober = TrinocularProber::new(&block, TrinocularConfig::default());
        let mut paper = AvailabilityEstimator::with_default_config(truth);
        let mut direct = DirectEwmaEstimator::new(truth, 0.1);
        let mut sum_paper = 0.0;
        let mut sum_direct = 0.0;
        let mut n = 0.0;
        for r in 0..rounds {
            if let Some(rec) = prober.round(&block, r, r * 660) {
                paper.observe(rec.positives, rec.probes);
                direct.observe(rec.positives, rec.probes);
                if r > rounds / 4 {
                    sum_paper += paper.a_short();
                    sum_direct += direct.a();
                    n += 1.0;
                }
            }
        }
        let bias_paper = sum_paper / n - truth;
        let bias_direct = sum_direct / n - truth;
        rows.push(vec![f(truth), f(bias_paper), f(bias_direct)]);
        headline.push((format!("paper_bias@{truth_target}"), f(bias_paper)));
        headline.push((format!("direct_bias@{truth_target}"), f(bias_direct)));
    }
    let mut report = render_table(
        "Ablation — estimator bias under stop-on-first-positive probing",
        &["true A", "bias: separate (p,t) EWMA", "bias: direct ratio EWMA"],
        &rows,
    );
    report.push_str("\n(§2.1.2: the direct variant consistently over-estimates)\n");
    let csv = to_csv(&["true_a", "bias_paper", "bias_direct"], &rows);
    ExperimentOutput { id: "ablate-ewma", report, headline, csv }
}

/// Ablation: probe budget per round vs estimator error and probing cost.
pub(crate) fn ablate_probes(ctx: &Context) -> ExperimentOutput {
    let rounds = ctx.opts.scaled(3_000, 800) as u64;
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for max_probes in [1u32, 2, 3, 5, 8, 15] {
        let block = BlockSpec::bare(
            max_probes as u64,
            ctx.opts.seed ^ 0xAB9,
            BlockProfile::always_on(150, 0.35),
        );
        let truth = block.true_availability(0);
        let cfg = TrinocularConfig { max_probes_per_round: max_probes, ..Default::default() };
        let mut prober = TrinocularProber::new(&block, cfg);
        let mut se = 0.0;
        let mut n = 0.0;
        for r in 0..rounds {
            if let Some(rec) = prober.round(&block, r, r * 660) {
                if r > rounds / 4 {
                    let err = rec.a_short - truth;
                    se += err * err;
                    n += 1.0;
                }
            }
        }
        let rmse = (se / n).sqrt();
        let pph = prober.total_probes() as f64 / (rounds as f64 * 660.0 / 3_600.0);
        let unknown_free = prober.outages().is_empty();
        rows.push(vec![
            max_probes.to_string(),
            f(rmse),
            f(pph),
            if unknown_free { "yes".into() } else { "no".into() },
        ]);
        headline.push((format!("rmse@{max_probes}"), f(rmse)));
        headline.push((format!("pph@{max_probes}"), f(pph)));
    }
    let mut report = render_table(
        "Ablation — probes/round budget: estimator error vs probing cost (A≈0.35)",
        &["max probes", "RMSE(Âs)", "probes/hour", "no false outage"],
        &rows,
    );
    report.push_str(
        "\n(§3.2.4: the 15-probe budget keeps cost <20 probes/hour while bounding error)\n",
    );
    let csv = to_csv(&["max_probes", "rmse", "probes_per_hour"], &rows);
    ExperimentOutput { id: "ablate-probes", report, headline, csv }
}

/// Ablation: the paper's clean-then-FFT pipeline vs a Lomb–Scargle
/// periodogram that consumes the gappy observations directly, as the
/// missing-data fraction grows.
pub(crate) fn ablate_gaps(ctx: &Context) -> ExperimentOutput {
    let per = ctx.opts.scaled(25, 8) as u64;
    let rounds = 917u64; // one week: a weaker signal exposes the contrast
    let diurnal_profile = BlockProfile {
        n_stable: 130,
        n_diurnal: 45,
        stable_avail: 0.9,
        diurnal_avail: 0.85,
        onset_hours: 8.0,
        onset_spread: 2.0,
        duration_hours: 9.0,
        duration_spread: 1.0,
        sigma_start: 0.5,
        sigma_duration: 0.5,
        utc_offset_hours: 0.0,
    };
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for loss in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let mut fft_hits = 0u64;
        let mut ls_hits = 0u64;
        for exp in 0..per {
            let block = BlockSpec::bare(exp, ctx.opts.seed ^ 0x6a95, diurnal_profile);
            // Heavy observation loss: every round is a restart candidate.
            let cfg = TrinocularConfig {
                restart_interval_rounds: Some(1),
                restart_loss_chance: loss,
                restart_negative_chance: 0.0,
                ..Default::default()
            };
            let mut prober = TrinocularProber::new(&block, cfg);
            let run = prober.run(&block, 0, rounds);

            // Paper path: clean to a dense series, FFT, strict test.
            let (series, _) =
                clean_series(&run.a_short_observations(), rounds as usize, 0, ROUND_SECONDS);
            let (rep, _) = analyze_series(&series, &DiurnalConfig::default());
            if rep.class.is_strict() {
                fft_hits += 1;
            }

            // Lomb–Scargle path: gappy observations, no repair.
            let samples: Vec<(f64, f64)> = run
                .records
                .iter()
                .map(|rec| (rec.round as f64 * ROUND_SECONDS as f64, rec.a_short))
                .collect();
            let ls = LombScargle::compute(&samples, 0.2, 6.0, 240);
            if ls.is_diurnal(0.08, 8.0) {
                ls_hits += 1;
            }
        }
        rows.push(vec![f(loss), f(fft_hits as f64 / per as f64), f(ls_hits as f64 / per as f64)]);
        headline.push((format!("fft@{loss}"), f(fft_hits as f64 / per as f64)));
        headline.push((format!("ls@{loss}"), f(ls_hits as f64 / per as f64)));
    }
    let mut report = render_table(
        "Ablation — missing observations: clean+FFT vs Lomb–Scargle detection",
        &["loss fraction", "clean+FFT strict", "Lomb–Scargle diurnal"],
        &rows,
    );
    report.push_str(
        "\n(§2.2 cleans because the FFT needs even sampling; Lomb–Scargle skips the\n\
         repair and degrades more gracefully under heavy loss)\n",
    );
    let csv = to_csv(&["loss", "fft_detect", "ls_detect"], &rows);
    ExperimentOutput { id: "ablate-gaps", report, headline, csv }
}

/// Ablation: the paper's frequency-domain strict rule vs a time-domain
/// autocorrelation detector, across signal quality and confounders.
pub(crate) fn ablate_acf(ctx: &Context) -> ExperimentOutput {
    use sleepwatch_core::analyze_block;
    use sleepwatch_core::AnalysisConfig;
    use sleepwatch_simnet::LeaseParams;

    let per = ctx.opts.scaled(30, 10) as u64;
    let cfg = AnalysisConfig::over_days(0, 14.0);

    // Scenario builders: (name, make block, is truly diurnal).
    type Maker = Box<dyn Fn(u64) -> BlockSpec>;
    let scenarios: Vec<(&str, Maker, bool)> = vec![
        (
            "clean diurnal",
            Box::new(|e| {
                BlockSpec::bare(
                    e,
                    0xACF1,
                    BlockProfile {
                        n_stable: 40,
                        n_diurnal: 160,
                        stable_avail: 0.9,
                        diurnal_avail: 0.85,
                        onset_hours: 8.0,
                        onset_spread: 2.0,
                        duration_hours: 9.0,
                        duration_spread: 1.0,
                        sigma_start: 0.5,
                        sigma_duration: 0.5,
                        utc_offset_hours: 0.0,
                    },
                )
            }),
            true,
        ),
        (
            "noisy minority diurnal",
            Box::new(|e| {
                BlockSpec::bare(
                    e,
                    0xACF2,
                    BlockProfile {
                        n_stable: 140,
                        n_diurnal: 50,
                        stable_avail: 0.7,
                        diurnal_avail: 0.8,
                        onset_hours: 8.0,
                        onset_spread: 3.0,
                        duration_hours: 9.0,
                        duration_spread: 2.0,
                        sigma_start: 1.0,
                        sigma_duration: 1.5,
                        utc_offset_hours: 0.0,
                    },
                )
            }),
            true,
        ),
        (
            "flat",
            Box::new(|e| BlockSpec::bare(e, 0xACF3, BlockProfile::always_on(150, 0.7))),
            false,
        ),
        (
            "8h lease cycle",
            Box::new(|e| {
                let mut b = BlockSpec::bare(
                    e,
                    0xACF4,
                    BlockProfile {
                        n_stable: 30,
                        n_diurnal: 170,
                        stable_avail: 0.85,
                        diurnal_avail: 0.85,
                        onset_hours: 0.0,
                        onset_spread: 0.0,
                        duration_hours: 0.0,
                        duration_spread: 0.0,
                        sigma_start: 0.0,
                        sigma_duration: 0.0,
                        utc_offset_hours: 0.0,
                    },
                );
                b.lease = Some(LeaseParams { period_hours: 8.0, duty: 0.55 });
                b
            }),
            false,
        ),
    ];

    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for (name, make, truly_diurnal) in &scenarios {
        let mut fft = 0u64;
        let mut acf = 0u64;
        for e in 0..per {
            let block = make(e);
            let analysis = analyze_block(&block, &cfg);
            if analysis.diurnal.class.is_strict() {
                fft += 1;
            }
            if acf_diurnal(&analysis.series).diurnal {
                acf += 1;
            }
        }
        rows.push(vec![
            name.to_string(),
            if *truly_diurnal { "yes" } else { "no" }.into(),
            f(fft as f64 / per as f64),
            f(acf as f64 / per as f64),
        ]);
        headline.push((format!("fft@{}", name.replace(' ', "_")), f(fft as f64 / per as f64)));
        headline.push((format!("acf@{}", name.replace(' ', "_")), f(acf as f64 / per as f64)));
    }
    let mut report = render_table(
        "Ablation — FFT strict rule vs time-domain ACF detector",
        &["scenario", "truly diurnal", "FFT detects", "ACF detects"],
        &rows,
    );
    report.push_str(
        "\n(both must accept real diurnal blocks and reject flat and non-daily\n\
         lease periodicity; disagreements mark each method's blind spots)\n",
    );
    let csv = to_csv(&["scenario", "truly_diurnal", "fft", "acf"], &rows);
    ExperimentOutput { id: "ablate-acf", report, headline, csv }
}

/// Ablation: §2.2 trims series to whole days "to reduce noise in FFT
/// analysis of diurnal frequencies". Quantify it: classify identical runs
/// with and without the midnight trim, across measurement start offsets.
pub(crate) fn ablate_trim(ctx: &Context) -> ExperimentOutput {
    use sleepwatch_availability::{bucket_rounds, fill_gaps, midnight_trim};
    use sleepwatch_core::analyze_series;

    let per = ctx.opts.scaled(25, 8) as u64;
    let rounds = 1_900u64; // a partial extra day past two weeks
    let profile = BlockProfile {
        n_stable: 120,
        n_diurnal: 60,
        stable_avail: 0.8,
        diurnal_avail: 0.85,
        onset_hours: 8.0,
        onset_spread: 2.0,
        duration_hours: 9.0,
        duration_spread: 1.0,
        sigma_start: 0.8,
        sigma_duration: 1.0,
        utc_offset_hours: 0.0,
    };
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    // Start mid-afternoon vs near midnight: partial edge days differ.
    for (label, start) in
        [("17:18 start", 62_280u64), ("23:50 start", 85_800u64), ("midnight start", 0u64)]
    {
        let mut trimmed_hits = 0u64;
        let mut raw_hits = 0u64;
        for exp in 0..per {
            let block = BlockSpec::bare(exp, ctx.opts.seed ^ 0x7219, profile);
            let mut prober = TrinocularProber::new(&block, TrinocularConfig::default());
            let run = prober.run(&block, start, rounds);
            let sparse = bucket_rounds(&run.a_short_observations(), rounds as usize);
            let (dense, _) = fill_gaps(&sparse);

            // Paper path: trim to whole days.
            let range = midnight_trim(start, rounds as usize, ROUND_SECONDS);
            let (rep_t, _) = analyze_series(&dense[range], &DiurnalConfig::default());
            if rep_t.class.is_strict() {
                trimmed_hits += 1;
            }
            // Untrimmed path: partial edge days stay in.
            let (rep_r, _) = analyze_series(&dense, &DiurnalConfig::default());
            if rep_r.class.is_strict() {
                raw_hits += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            f(trimmed_hits as f64 / per as f64),
            f(raw_hits as f64 / per as f64),
        ]);
        headline.push((
            format!("trim@{}", label.split(' ').next().unwrap_or(label)),
            f(trimmed_hits as f64 / per as f64),
        ));
        headline.push((
            format!("raw@{}", label.split(' ').next().unwrap_or(label)),
            f(raw_hits as f64 / per as f64),
        ));
    }
    let mut report = render_table(
        "Ablation — midnight trimming (§2.2) vs classifying the raw span",
        &["measurement start", "trimmed detection", "untrimmed detection"],
        &rows,
    );
    report.push_str(
        "\n(partial edge days smear energy out of the N_d bin; trimming to whole\n\
         days keeps the daily line sharp regardless of when collection began)\n",
    );
    let csv = to_csv(&["start", "trimmed", "raw"], &rows);
    ExperimentOutput { id: "ablate-trim", report, headline, csv }
}
