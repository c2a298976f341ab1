//! Beyond the paper's figures: the §3.2.4 campus ground-truth study and
//! the extensions the paper sketches (§2.3.2 per-organization analysis,
//! §5.2 phase→time-of-day, §5.6 applications, outage scoring).

use crate::common::{f, render_table, to_csv, Context, ExperimentOutput};
use sleepwatch_availability::clean_series;
use sleepwatch_core::{
    activity_pattern, analyze_series, estimate_size, peak_local_hour, write_dataset,
    ActivityPattern,
};
use sleepwatch_geoecon::AsOrgMapper;
use sleepwatch_probing::{run_census, CensusConfig, TrinocularConfig, TrinocularProber};
use sleepwatch_simnet::{generate_campus, ROUND_SECONDS};
use sleepwatch_spectral::{DiurnalClass, DiurnalConfig};
use std::collections::BTreeMap;

/// §3.2.4: the USC-style campus study — census bootstrap, policy
/// exclusions, and per-role detection outcomes.
pub(crate) fn usc(ctx: &Context) -> ExperimentOutput {
    let campus = generate_campus(ctx.opts.seed ^ 0x0055_5343);
    // Recent-activity screen: an address must answer at least twice across
    // the census to count toward E(b).
    let census_cfg = CensusConfig { min_responses: 2, ..Default::default() };
    let rounds = 4_582u64; // 35 days, like A12w
    let start = sleepwatch_simnet::A12W_START;

    #[derive(Default, Clone)]
    struct RoleAcc {
        total: usize,
        excluded: usize,
        strict: usize,
        relaxed: usize,
        non: usize,
    }
    let mut acc: BTreeMap<&'static str, RoleAcc> = BTreeMap::new();

    let reporter = sleepwatch_obs::Reporter::new("[usc]");
    reporter.note(&format!("{} campus blocks…", campus.len()));
    for (bi, (block, role)) in campus.iter().enumerate() {
        reporter.report(bi, campus.len());
        let a = acc.entry(role.label()).or_default();
        a.total += 1;
        let census = run_census(block, start, &census_cfg);
        let Some(mut prober) =
            TrinocularProber::from_census(block, &census, TrinocularConfig::a12w())
        else {
            a.excluded += 1;
            continue;
        };
        let run = prober.run(block, start, rounds);
        let (series, _) =
            clean_series(&run.a_short_observations(), rounds as usize, start, ROUND_SECONDS);
        let (report, _) = analyze_series(&series, &DiurnalConfig::default());
        match report.class {
            DiurnalClass::Strict => a.strict += 1,
            DiurnalClass::Relaxed => a.relaxed += 1,
            DiurnalClass::NonDiurnal => a.non += 1,
        }
    }
    reporter.report(campus.len(), campus.len());

    let rows: Vec<Vec<String>> = acc
        .iter()
        .map(|(role, a)| {
            vec![
                role.to_string(),
                a.total.to_string(),
                a.excluded.to_string(),
                a.strict.to_string(),
                a.relaxed.to_string(),
                a.non.to_string(),
            ]
        })
        .collect();
    let mut report = render_table(
        "USC-style campus study (§3.2.4): census policy + detection per role",
        &["role", "blocks", "excluded (<15 active)", "strict", "relaxed", "non-diurnal"],
        &rows,
    );
    let wireless = &acc["wireless"];
    let dynamic = &acc["dynamic"];
    let pocket = &acc["general+pocket"];
    report.push_str(&format!(
        "\npaper: 119 of 142 wireless excluded by policy; probed wireless rarely detected;\n\
         dynamic pools detected; pockets of 16 dynamic addresses surface as diurnal in\n\
         otherwise general-use blocks. Here: {}/{} wireless excluded; {}/{} probed dynamic\n\
         blocks detected (strict or relaxed); {}/{} pocket blocks detected.\n",
        wireless.excluded,
        wireless.total,
        dynamic.strict + dynamic.relaxed,
        dynamic.total - dynamic.excluded,
        pocket.strict + pocket.relaxed,
        pocket.total - pocket.excluded,
    ));
    let headline = vec![
        ("wireless_excluded".to_string(), wireless.excluded.to_string()),
        ("wireless_total".to_string(), wireless.total.to_string()),
        (
            "dynamic_detected_frac".to_string(),
            f((dynamic.strict + dynamic.relaxed) as f64
                / (dynamic.total - dynamic.excluded).max(1) as f64),
        ),
        (
            "pocket_detected_frac".to_string(),
            f((pocket.strict + pocket.relaxed) as f64
                / (pocket.total - pocket.excluded).max(1) as f64),
        ),
        ("server_strict".to_string(), acc["server"].strict.to_string()),
    ];
    let csv = to_csv(&["role", "blocks", "excluded", "strict", "relaxed", "non"], &rows);
    ExperimentOutput { id: "usc", report, headline, csv }
}

/// §2.3.2 extension: the organization league table.
pub(crate) fn ext_orgs(ctx: &Context) -> ExperimentOutput {
    let (world, analysis) = ctx.world_run();
    let mapper = AsOrgMapper::cluster(&world.as_records);
    let min_blocks = (analysis.len() / 500).max(5);
    let orgs = analysis.organization_stats(&mapper, min_blocks);
    let rows: Vec<Vec<String>> = orgs
        .iter()
        .take(25)
        .map(|o| {
            vec![o.org.clone(), o.asns.len().to_string(), o.blocks.to_string(), f(o.frac_diurnal)]
        })
        .collect();
    let report = render_table(
        "Extension — diurnal fraction per organization (AS→org clustering)",
        &["organization", "ASes", "blocks", "frac diurnal"],
        &rows,
    );
    let headline = vec![
        ("orgs".to_string(), orgs.len().to_string()),
        ("top_org".to_string(), orgs.first().map(|o| o.org.clone()).unwrap_or_default()),
    ];
    let csv = to_csv(&["organization", "ases", "blocks", "frac_diurnal"], &rows);
    ExperimentOutput { id: "ext-orgs", report, headline, csv }
}

/// §5.6 extension: sizing the active Internet with diurnal-aware error
/// bars.
pub(crate) fn ext_size(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let e = estimate_size(analysis);
    let rows = vec![
        vec!["blocks".into(), e.blocks.to_string()],
        vec!["diurnal blocks".into(), e.diurnal_blocks.to_string()],
        vec!["mean active addresses".into(), format!("{:.0}", e.mean_active)],
        vec!["trough (all diurnal asleep)".into(), format!("{:.0}", e.trough_active)],
        vec!["peak (all diurnal awake)".into(), format!("{:.0}", e.peak_active)],
        vec!["one-shot snapshot uncertainty".into(), format!("{:.0}", e.snapshot_uncertainty())],
        vec!["relative uncertainty".into(), f(e.relative_uncertainty())],
    ];
    let report = render_table(
        "Extension — active-address population with diurnal-aware bounds (§5.6)",
        &["metric", "value"],
        &rows,
    );
    let headline = vec![
        ("mean_active".to_string(), format!("{:.0}", e.mean_active)),
        ("relative_uncertainty".to_string(), f(e.relative_uncertainty())),
    ];
    let csv = to_csv(&["metric", "value"], &rows);
    ExperimentOutput { id: "ext-size", report, headline, csv }
}

/// §5.2 extension: calibrating phase to local time of day.
pub(crate) fn ext_timeofday(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let mut buckets: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut hours = Vec::new();
    for r in &analysis.reports {
        let (Some(loc), Some(phase)) = (r.location, r.summary.phase) else { continue };
        if !r.summary.class.is_strict() {
            continue;
        }
        let local = peak_local_hour(phase, loc.lon);
        hours.push(local);
        let label = match activity_pattern(local) {
            ActivityPattern::Morning => "morning (06–12)",
            ActivityPattern::Afternoon => "afternoon (12–18)",
            ActivityPattern::Evening => "evening (18–24)",
            ActivityPattern::Night => "night (00–06)",
        };
        *buckets.entry(label).or_default() += 1;
    }
    let total: usize = buckets.values().sum();
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|(label, n)| {
            vec![label.to_string(), n.to_string(), f(*n as f64 / total.max(1) as f64)]
        })
        .collect();
    let daytime = hours.iter().filter(|&&h| (7.0..20.0).contains(&h)).count() as f64
        / hours.len().max(1) as f64;
    let mut report = render_table(
        "Extension — local time of the daily activity peak (phase calibration)",
        &["local peak window", "blocks", "share"],
        &rows,
    );
    report.push_str(&format!(
        "\n{:.1}% of diurnal blocks peak between 07:00 and 20:00 local — \
         human working hours, as §5.2 anticipates.\n",
        100.0 * daytime
    ));
    let headline = vec![
        ("daytime_share".to_string(), f(daytime)),
        ("blocks".to_string(), hours.len().to_string()),
    ];
    let csv = to_csv(&["window", "blocks", "share"], &rows);
    ExperimentOutput { id: "ext-timeofday", report, headline, csv }
}

/// Outage scoring: injected ground truth vs single-site Trinocular and vs
/// the two-site consensus (§3.3's extra vantage points put to work — a
/// block down from one site but fine from another is a path problem, not
/// an edge outage).
pub(crate) fn ext_outages(ctx: &Context) -> ExperimentOutput {
    use sleepwatch_probing::{merge_states, merged_outages};
    use sleepwatch_simnet::{World, WorldConfig};

    let n_blocks = ctx.opts.scaled(1_500, 150);
    let rounds = 1_833u64; // two weeks
    let world = World::generate(WorldConfig {
        seed: ctx.opts.seed ^ 0x0074_A9E5,
        num_blocks: n_blocks,
        span_days: 14.0,
        ..Default::default()
    });
    let reporter = sleepwatch_obs::Reporter::new("[ext-outages]");
    reporter.note(&format!("{} blocks × 2 sites…", n_blocks));

    #[derive(Default)]
    struct Score {
        tp: usize,
        fneg: usize,
        fp: usize,
    }
    impl Score {
        fn add(&mut self, injected: bool, detected: bool) {
            match (injected, detected) {
                (true, true) => self.tp += 1,
                (true, false) => self.fneg += 1,
                (false, true) => self.fp += 1,
                (false, false) => {}
            }
        }
        fn recall(&self) -> f64 {
            self.tp as f64 / (self.tp + self.fneg).max(1) as f64
        }
        fn precision(&self) -> f64 {
            self.tp as f64 / (self.tp + self.fp).max(1) as f64
        }
    }

    let mut single = Score::default();
    let mut consensus = Score::default();
    let mut injected_total = 0usize;
    for (bi, block) in world.blocks.iter().enumerate() {
        reporter.report(bi, world.blocks.len());
        let injected = block.outage.is_some();
        injected_total += injected as usize;
        let mut p1 = TrinocularProber::new(block, TrinocularConfig::default());
        let mut p2 = TrinocularProber::new(block, TrinocularConfig::default());
        let r1 = p1.run(block, world.cfg.start_time, rounds);
        // Site two probes each round 330 s later.
        let r2 = p2.run(block, world.cfg.start_time + 330, rounds);
        single.add(injected, !r1.outages.is_empty());
        let merged = merge_states(&[&r1, &r2], rounds);
        consensus.add(injected, !merged_outages(&merged).is_empty());
    }
    reporter.report(world.blocks.len(), world.blocks.len());

    let rows = vec![
        vec!["blocks with injected outage".into(), injected_total.to_string()],
        vec!["single-site recall".into(), f(single.recall())],
        vec!["single-site precision".into(), f(single.precision())],
        vec!["single-site false alarms".into(), single.fp.to_string()],
        vec!["consensus recall".into(), f(consensus.recall())],
        vec!["consensus precision".into(), f(consensus.precision())],
        vec!["consensus false alarms".into(), consensus.fp.to_string()],
    ];
    let mut report = render_table(
        "Extension — outage detection: one vantage point vs two-site consensus",
        &["metric", "value"],
        &rows,
    );
    report.push_str(
        "\n(remaining false alarms sit on diurnal blocks, where both sites see the\n\
         same nightly silence — the failure mode that motivated the paper; only\n\
         diurnal-awareness, not more vantage points, removes those)\n",
    );
    let headline = vec![
        ("single_recall".to_string(), f(single.recall())),
        ("single_precision".to_string(), f(single.precision())),
        ("consensus_recall".to_string(), f(consensus.recall())),
        ("consensus_precision".to_string(), f(consensus.precision())),
    ];
    let csv = to_csv(&["metric", "value"], &rows);
    ExperimentOutput { id: "ext-outages", report, headline, csv }
}

/// Publishes the world run as a TSV dataset, like the paper's public data
/// releases (§2.5). The "CSV" output slot carries the dataset itself.
pub(crate) fn ext_dataset(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let mut buf = Vec::new();
    write_dataset(&mut buf, analysis).expect("writing to memory cannot fail");
    let tsv = String::from_utf8(buf).expect("dataset is ASCII");
    let preview: String = tsv.lines().take(6).collect::<Vec<_>>().join("\n");
    let report = format!(
        "== Extension — per-block dataset export (§2.5-style public data) ==\n\
         {} rows written; first lines:\n{}\n",
        analysis.len(),
        preview
    );
    let headline = vec![
        ("rows".to_string(), analysis.len().to_string()),
        ("bytes".to_string(), tsv.len().to_string()),
    ];
    ExperimentOutput { id: "ext-dataset", report, headline, csv: tsv }
}

/// Writes the compact binary twin of the `ext-dataset` TSV artifact:
/// `<dir>/ext-dataset.bin`, seed-joined against the shared world run so
/// the seed-derivable columns cost nothing on disk. Returns the path
/// written.
pub fn write_dataset_bin(
    ctx: &Context,
    dir: &std::path::Path,
) -> Result<std::path::PathBuf, sleepwatch_core::ExportError> {
    let (world, analysis) = ctx.world_run();
    let path = dir.join("ext-dataset.bin");
    sleepwatch_core::write_dataset_bin_file(&path, analysis, Some(&world.cfg))?;
    Ok(path)
}

/// Robustness extension: does the daily classifier survive weekly
/// (weekend) periodicity? Real blocks carry a 7-day component the paper's
/// strict test must not mistake for — or be masked by — the daily line.
pub(crate) fn ext_weekend(ctx: &Context) -> ExperimentOutput {
    use sleepwatch_core::{analyze_block, AnalysisConfig};
    use sleepwatch_simnet::{BlockProfile, BlockSpec};

    let per = ctx.opts.scaled(40, 10) as u64;
    let analysis_cfg = AnalysisConfig::over_days(0, 28.0);
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for scale in [1.0, 0.8, 0.6, 0.4] {
        let mut detected = 0u64;
        let mut flat_strict = 0u64;
        for exp in 0..per {
            // A diurnal block whose weekends are also quieter.
            let mut b = BlockSpec::bare(
                exp,
                ctx.opts.seed ^ 0xEE7,
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
            );
            b.weekend_scale = scale;
            if analyze_block(&b, &analysis_cfg).diurnal.class.is_strict() {
                detected += 1;
            }
            // A flat block with ONLY the weekly pattern: must not read as
            // (daily) diurnal.
            let mut flat = BlockSpec::bare(
                exp + 10_000,
                ctx.opts.seed ^ 0xEE8,
                BlockProfile::always_on(150, 0.85),
            );
            flat.weekend_scale = scale;
            if analyze_block(&flat, &analysis_cfg).diurnal.class.is_strict() {
                flat_strict += 1;
            }
        }
        rows.push(vec![
            f(scale),
            f(detected as f64 / per as f64),
            f(flat_strict as f64 / per as f64),
        ]);
        headline.push((format!("det@{scale}"), f(detected as f64 / per as f64)));
        headline.push((format!("weekly_fp@{scale}"), f(flat_strict as f64 / per as f64)));
    }
    let mut report = render_table(
        "Extension — weekly (weekend) periodicity vs the daily classifier",
        &["weekend scale", "diurnal still detected", "weekly-only misread as daily"],
        &rows,
    );
    report.push_str(
        "\n(a weekly line is a non-harmonic competitor to the daily bin; the 2x\n\
         strict margin must tolerate mild weekend quieting without false daily calls)\n",
    );
    let csv = to_csv(&["weekend_scale", "detected", "weekly_false_daily"], &rows);
    ExperimentOutput { id: "ext-weekend", report, headline, csv }
}

/// §4's lease-cycle periodicity: blocks swept by a DHCP pool of period `p`
/// show spectral peaks at `24/p` cycles/day. The classifier must keep them
/// out of the strict class unless `p` is a day (and the 12-hour case lands
/// in the relaxed class via the first harmonic, as the paper's definition
/// allows).
pub(crate) fn ext_lease(ctx: &Context) -> ExperimentOutput {
    use sleepwatch_core::{analyze_block, AnalysisConfig};
    use sleepwatch_simnet::{BlockProfile, BlockSpec, LeaseParams};
    use sleepwatch_spectral::Spectrum;

    let per = ctx.opts.scaled(30, 8) as u64;
    let cfg = AnalysisConfig::over_days(0, 28.0);
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for period_h in [6.0, 8.0, 12.0, 24.0, 48.0] {
        let mut strict = 0u64;
        let mut relaxed = 0u64;
        let mut peak_cpd_sum = 0.0;
        for exp in 0..per {
            let mut b = BlockSpec::bare(
                exp,
                ctx.opts.seed ^ 0x1ea5e ^ (period_h as u64) << 8,
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
            b.lease = Some(LeaseParams { period_hours: period_h, duty: 0.55 });
            let a = analyze_block(&b, &cfg);
            match a.diurnal.class {
                sleepwatch_spectral::DiurnalClass::Strict => strict += 1,
                sleepwatch_spectral::DiurnalClass::Relaxed => relaxed += 1,
                sleepwatch_spectral::DiurnalClass::NonDiurnal => {}
            }
            let spec = Spectrum::compute_rounds(&a.series);
            if let Some(k) = spec.strongest_bin() {
                peak_cpd_sum += spec.cycles_per_day(k);
            }
        }
        let mean_peak = peak_cpd_sum / per as f64;
        rows.push(vec![
            f(period_h),
            f(24.0 / period_h),
            f(mean_peak),
            f(strict as f64 / per as f64),
            f(relaxed as f64 / per as f64),
        ]);
        headline.push((format!("peak_cpd@{period_h}h"), f(mean_peak)));
        headline.push((format!("strict@{period_h}h"), f(strict as f64 / per as f64)));
    }
    let mut report = render_table(
        "Extension — DHCP lease-cycle periodicity (§4): peak location vs classification",
        &["lease period (h)", "expected cyc/day", "measured peak cyc/day", "strict", "relaxed"],
        &rows,
    );
    report.push_str(
        "\n(only the 24 h lease may be strict; 12 h lands at the first harmonic →\n\
         relaxed, per the paper's definition; others must stay non-diurnal)\n",
    );
    let csv = to_csv(&["period_h", "expected_cpd", "measured_cpd", "strict", "relaxed"], &rows);
    ExperimentOutput { id: "ext-lease", report, headline, csv }
}
