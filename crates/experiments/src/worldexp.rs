//! World-scale experiments: Figs. 10–17 and Tables 2–5, all derived from
//! the shared 35-day `A12w`-style world run (plus a second vantage point
//! for Table 2 and a survey series over time for Fig. 11).

use crate::common::{f, render_table, to_csv, Context, ExperimentOutput};
use sleepwatch_core::{analyze_world, AnalysisConfig, WorldAnalysis};
use sleepwatch_geoecon::by_code;
use sleepwatch_probing::TrinocularConfig;
use sleepwatch_simnet::evolution::{propensity_scale_at, survey_calendar};
use sleepwatch_simnet::{World, WorldConfig};
use sleepwatch_stats::{linfit, spearman, wilson_interval, Histogram};

/// Fig. 10: CDF of the strongest frequency per block.
pub(crate) fn fig10(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let mut hist = Histogram::new(0.0, 12.0, 120);
    hist.extend(analysis.reports.iter().map(|r| r.summary.strongest_cpd));

    let frac_in = |lo: f64, hi: f64| {
        analysis.reports.iter().filter(|r| (lo..hi).contains(&r.summary.strongest_cpd)).count()
            as f64
            / analysis.len() as f64
    };
    let daily = frac_in(0.9, 1.15);
    let artifact = frac_in(4.1, 4.6);
    let (strict_n, strict_f) = analysis.strict_fraction();
    let (either_n, either_f) = analysis.diurnal_fraction();

    let cdf = hist.cdf();
    let rows: Vec<Vec<String>> = cdf.iter().step_by(5).map(|&(x, c)| vec![f(x), f(c)]).collect();
    let mut report = render_table(
        "Fig. 10 — CDF of strongest frequency (cycles/day)",
        &["cycles/day ≤", "CDF"],
        &rows,
    );
    report.push_str(&format!(
        "\npeak at 1 cycle/day: {:.1}% of blocks (paper: ~25%)\n\
         restart artifact near 4.36 cyc/day: {:.1}% (paper: ~3%)\n\
         strictly diurnal: {} ({:.1}%; paper: 11%)   strict-or-relaxed: {} ({:.1}%; paper: 25%)\n\
         stationary blocks: {:.1}% (paper: 80.3%)\n",
        100.0 * daily,
        100.0 * artifact,
        strict_n,
        100.0 * strict_f,
        either_n,
        100.0 * either_f,
        100.0 * analysis.stationary_fraction(),
    ));
    let headline = vec![
        ("frac_daily_peak".to_string(), f(daily)),
        ("frac_artifact".to_string(), f(artifact)),
        ("strict_frac".to_string(), f(strict_f)),
        ("either_frac".to_string(), f(either_f)),
        ("stationary_frac".to_string(), f(analysis.stationary_fraction())),
    ];
    let csv_rows: Vec<Vec<String>> = cdf.iter().map(|&(x, c)| vec![f(x), f(c)]).collect();
    let csv = to_csv(&["cycles_per_day", "cdf"], &csv_rows);
    ExperimentOutput { id: "fig10", report, headline, csv }
}

/// Rough unix time of a year-month (month-level precision is all Fig. 11
/// needs).
fn ym_unix(ym: sleepwatch_geoecon::YearMonth) -> u64 {
    const EPOCH_1983: u64 = 410_227_200; // 1983-01-01 00:00 UTC
    EPOCH_1983 + ym.months_since_epoch() as u64 * 2_629_746
}

/// Fig. 11: fraction of diurnal blocks across the long-term survey archive.
pub(crate) fn fig11(ctx: &Context) -> ExperimentOutput {
    let n_blocks = ctx.opts.scaled(400, 50);
    let calendar = survey_calendar();
    let reporter = sleepwatch_obs::Reporter::new("[fig11]");
    reporter.note(&format!("{} surveys × {} blocks…", calendar.len(), n_blocks));
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, &(date, site)) in calendar.iter().enumerate() {
        let world = World::generate(WorldConfig {
            seed: ctx.opts.seed ^ (0x000F_1611_u64 + i as u64),
            num_blocks: n_blocks,
            start_time: ym_unix(date),
            span_days: 14.0,
            propensity_scale: propensity_scale_at(date),
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 14.0);
        let analysis = analyze_world(&world, &cfg, ctx.opts.threads, None);
        let (_, frac) = analysis.strict_fraction();
        rows.push(vec![date.to_string(), site.to_string(), f(frac)]);
        xs.push(date.months_since_epoch() as f64);
        ys.push(frac);
        reporter.report(i + 1, calendar.len());
    }
    // Decline after 2012?
    let m2012 = sleepwatch_geoecon::YearMonth::new(2012, 1).months_since_epoch() as f64;
    let late: Vec<usize> = (0..xs.len()).filter(|&i| xs[i] >= m2012).collect();
    let late_fit = linfit(
        &late.iter().map(|&i| xs[i]).collect::<Vec<_>>(),
        &late.iter().map(|&i| ys[i]).collect::<Vec<_>>(),
    );
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;

    let mut report = render_table(
        "Fig. 11 — fraction of diurnal blocks, long-term surveys 2009–2013",
        &["survey", "site", "frac diurnal"],
        &rows,
    );
    let late_slope = late_fit.map(|l| l.slope).unwrap_or(0.0);
    report.push_str(&format!(
        "\nmean fraction {:.3}; slope after 2012: {:+.5}/month (paper: marked decline)\n",
        mean, late_slope
    ));
    let headline =
        vec![("mean_frac".to_string(), f(mean)), ("post2012_slope".to_string(), f(late_slope))];
    let csv = to_csv(&["date", "site", "frac_diurnal"], &rows);
    ExperimentOutput { id: "fig11", report, headline, csv }
}

/// Renders a grid as an ASCII world map (lat rows top-down).
fn ascii_map(
    grid: &sleepwatch_stats::DensityGrid,
    normalize: Option<&sleepwatch_stats::DensityGrid>,
) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    for iy in (0..grid.ny()).rev() {
        for ix in 0..grid.nx() {
            let c = grid.count(ix, iy);
            let ch = match normalize {
                // Fraction mode: cell value / reference cell value.
                Some(base) => {
                    let b = base.count(ix, iy);
                    if b == 0 {
                        b' '
                    } else {
                        let frac = c as f64 / b as f64;
                        SHADES[((frac * (SHADES.len() - 1) as f64).round() as usize)
                            .min(SHADES.len() - 1)]
                    }
                }
                None => {
                    if c == 0 {
                        b' '
                    } else {
                        let max = grid.max_count().max(1);
                        let level = ((c as f64).ln_1p() / (max as f64).ln_1p()
                            * (SHADES.len() - 1) as f64)
                            .round() as usize;
                        SHADES[level.clamp(1, SHADES.len() - 1)]
                    }
                }
            };
            out.push(ch as char);
        }
        out.push('\n');
    }
    out
}

fn grid_csv(
    all: &sleepwatch_stats::DensityGrid,
    diurnal: &sleepwatch_stats::DensityGrid,
) -> String {
    let mut rows = Vec::new();
    for (ix, iy, c) in all.nonzero() {
        let d = diurnal.count(ix, iy);
        rows.push(vec![
            f(all.x_center(ix)),
            f(all.y_center(iy)),
            c.to_string(),
            d.to_string(),
            f(d as f64 / c as f64),
        ]);
    }
    to_csv(&["lon", "lat", "blocks", "diurnal", "frac_diurnal"], &rows)
}

/// Fig. 12: where the observable blocks are.
pub(crate) fn fig12(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let (all, diurnal) = analysis.world_grids(2.0);
    let (coarse_all, _) = analysis.world_grids(4.0);
    let located: u64 = all.total();
    let mut report = format!(
        "== Fig. 12 — observable blocks per grid cell (log shading) ==\n{}",
        ascii_map(&coarse_all, None)
    );
    report.push_str(&format!(
        "geolocated blocks: {} of {} ({:.1}%; paper: 93%)\n",
        located,
        analysis.len(),
        100.0 * located as f64 / analysis.len() as f64
    ));
    let headline = vec![
        ("located".to_string(), located.to_string()),
        ("coverage".to_string(), f(located as f64 / analysis.len() as f64)),
    ];
    let csv = grid_csv(&all, &diurnal);
    ExperimentOutput { id: "fig12", report, headline, csv }
}

/// Fig. 13: the percentage of blocks per cell that are diurnal.
pub(crate) fn fig13(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let (all, diurnal) = analysis.world_grids(2.0);
    let (coarse_all, coarse_diurnal) = analysis.world_grids(4.0);
    let mut report = format!(
        "== Fig. 13 — percent of observable blocks that are diurnal ==\n{}",
        ascii_map(&coarse_diurnal, Some(&coarse_all))
    );
    // Contrast line: US vs CN cells.
    let frac_for = |code: &str| {
        let c = by_code(code).unwrap();
        let mut blocks = 0u64;
        let mut d = 0u64;
        for (ix, iy, n) in all.nonzero() {
            let lon = all.x_center(ix);
            let lat = all.y_center(iy);
            if (lon - c.lon).abs() < c.lon_spread * 1.5 && (lat - c.lat).abs() < c.lat_spread * 1.5
            {
                blocks += n;
                d += diurnal.count(ix, iy);
            }
        }
        d as f64 / blocks.max(1) as f64
    };
    let us = frac_for("US");
    let cn = frac_for("CN");
    report.push_str(&format!(
        "diurnal share near US centroid: {:.3}; near CN centroid: {:.3} (paper: US≈0.002, CN≈0.5)\n",
        us, cn
    ));
    let headline = vec![("us_frac".to_string(), f(us)), ("cn_frac".to_string(), f(cn))];
    let csv = grid_csv(&all, &diurnal);
    ExperimentOutput { id: "fig13", report, headline, csv }
}

/// Fig. 14: phase vs longitude.
pub(crate) fn fig14(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let r_strict = analysis.phase_longitude_correlation(false).unwrap_or(0.0);
    let r_relaxed = analysis.phase_longitude_correlation(true).unwrap_or(0.0);
    let predictor = analysis.phase_longitude_predictor(25);

    let rows: Vec<Vec<String>> = predictor
        .iter()
        .map(|&(phase, mean_lon, sd, n)| vec![f(phase), f(mean_lon), f(sd), n.to_string()])
        .collect();
    let mut report = render_table(
        "Fig. 14c — longitude predictor from phase (relaxed diurnal blocks)",
        &["phase (rad)", "mean lon (°)", "σ lon (°)", "blocks"],
        &rows,
    );
    report.push_str(&format!(
        "\n(a) unrolled phase vs longitude, strict:  r = {:.3} (paper: 0.835)\n\
         (b) unrolled phase vs longitude, relaxed: r = {:.3} (paper: 0.763)\n",
        r_strict, r_relaxed
    ));
    let headline =
        vec![("r_strict".to_string(), f(r_strict)), ("r_relaxed".to_string(), f(r_relaxed))];
    // CSV: the raw (lon, unrolled phase) pairs, capped.
    let pairs = analysis.phase_longitude_pairs(true);
    let csv_rows: Vec<Vec<String>> =
        pairs.iter().take(50_000).map(|&(lon, ph)| vec![f(lon), f(ph)]).collect();
    let csv = to_csv(&["longitude", "unrolled_phase"], &csv_rows);
    ExperimentOutput { id: "fig14", report, headline, csv }
}

/// Fig. 15: diurnal fraction vs /8 allocation month.
pub(crate) fn fig15(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let hist = analysis.allocation_histogram();
    let min_blocks = (analysis.len() / 500).max(5);
    let pts: Vec<(f64, f64)> = hist
        .iter()
        .filter(|&&(_, n, _)| n >= min_blocks)
        .map(|&(ym, _, frac)| (ym.months_since_epoch() as f64, frac))
        .collect();
    let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
    let fit = linfit(&xs, &ys);
    let (slope_pct, r) = fit.map(|l| (l.slope * 100.0, l.r)).unwrap_or((0.0, 0.0));

    let rows: Vec<Vec<String>> = hist
        .iter()
        .filter(|&&(_, n, _)| n >= min_blocks)
        .map(|&(ym, n, frac)| vec![ym.to_string(), n.to_string(), f(frac)])
        .collect();
    let mut report = render_table(
        "Fig. 15 — percentage of diurnal blocks by /8 allocation month",
        &["alloc month", "blocks", "frac diurnal"],
        &rows,
    );
    report.push_str(&format!(
        "\nlinear fit: {:+.3} %/month, r = {:.3} (paper: +0.08 %/month, r = 0.609)\n",
        slope_pct, r
    ));
    let headline = vec![("slope_pct_per_month".to_string(), f(slope_pct)), ("r".to_string(), f(r))];
    let csv = to_csv(&["alloc_month", "blocks", "frac_diurnal"], &rows);
    ExperimentOutput { id: "fig15", report, headline, csv }
}

/// Fig. 16: country diurnal fraction vs per-capita GDP.
pub(crate) fn fig16(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let min_blocks = (analysis.len() / 2_000).max(5);
    let stats = analysis.country_stats(min_blocks);
    let xs: Vec<f64> = stats.iter().map(|s| s.gdp).collect();
    let ys: Vec<f64> = stats.iter().map(|s| s.frac_diurnal).collect();
    let fit = linfit(&xs, &ys);
    let r = fit.map(|l| l.r).unwrap_or(0.0);

    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| vec![s.code.to_string(), f(s.gdp), f(s.frac_diurnal), s.blocks.to_string()])
        .collect();
    let mut report = render_table(
        "Fig. 16 — diurnalness vs per-capita GDP (all countries)",
        &["country", "GDP (US$)", "frac diurnal", "blocks"],
        &rows,
    );
    let rho = spearman(&xs, &ys).unwrap_or(0.0);
    report.push_str(&format!(
        "\ncorrelation r = {:.3} (paper: −0.526); Spearman ρ = {:.3} (robustness check)\n",
        r, rho
    ));
    let headline = vec![
        ("r".to_string(), f(r)),
        ("spearman".to_string(), f(rho)),
        ("countries".to_string(), stats.len().to_string()),
    ];
    let csv = to_csv(&["country", "gdp", "frac_diurnal", "blocks"], &rows);
    ExperimentOutput { id: "fig16", report, headline, csv }
}

/// Fig. 17: diurnal fraction per access-link keyword.
pub(crate) fn fig17(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let stats = analysis.link_stats();
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|&(feat, n, frac)| vec![feat.keyword().to_string(), n.to_string(), f(frac)])
        .collect();
    let mut report = render_table(
        "Fig. 17 — fraction of diurnal blocks per access keyword",
        &["keyword", "blocks", "frac diurnal"],
        &rows,
    );
    report.push_str(&format!(
        "\nclassified blocks: {:.1}% (paper: 22.4% after keyword filtering)\n\
         (paper shape: dynamic ≈19% > dsl ≈11% >> dialup <3%)\n",
        100.0 * analysis.link_coverage()
    ));
    let get = |kw: &str| {
        stats.iter().find(|(ft, _, _)| ft.keyword() == kw).map(|&(_, _, fr)| fr).unwrap_or(0.0)
    };
    let headline = vec![
        ("dyn".to_string(), f(get("dyn"))),
        ("dsl".to_string(), f(get("dsl"))),
        ("dial".to_string(), f(get("dial"))),
        ("coverage".to_string(), f(analysis.link_coverage())),
    ];
    let csv = to_csv(&["keyword", "blocks", "frac_diurnal"], &rows);
    ExperimentOutput { id: "fig17", report, headline, csv }
}

/// Table 2: stability across measurement sites (a second vantage point
/// observes the same world, offset by half a round — different packet
/// timing, same Internet).
pub(crate) fn table2(ctx: &Context) -> ExperimentOutput {
    let (world, first) = ctx.world_run();
    let mut cfg = AnalysisConfig::over_days(world.cfg.start_time + 330, Context::WORLD_DAYS);
    cfg.trinocular = TrinocularConfig::a12w();
    sleepwatch_obs::Reporter::new("[table2]").note("second vantage point…");
    let second = analyze_world(world, &cfg, ctx.opts.threads, None);

    // Cross-tab with the paper's overlapping categories: d (strict),
    // e (strict or relaxed), N (neither).
    let in_cat = |a: &WorldAnalysis, i: usize, cat: u8| -> bool {
        let c = a.reports[i].summary.class;
        match cat {
            0 => c.is_strict(),
            1 => c.is_diurnal(),
            _ => !c.is_diurnal(),
        }
    };
    let names = ["d", "e", "N"];
    let mut rows = Vec::new();
    let mut cells = [[0usize; 3]; 3];
    for (wi, w_cat) in names.iter().enumerate() {
        let mut row = vec![w_cat.to_string()];
        for (ji, cell) in cells[wi].iter_mut().enumerate() {
            let n = (0..first.len())
                .filter(|&i| in_cat(first, i, wi as u8) && in_cat(&second, i, ji as u8))
                .count();
            *cell = n;
            row.push(n.to_string());
        }
        rows.push(row);
    }
    let d_w = cells[0][0] + cells[0][2]; // strict at w, split by j
    let d_total: usize = (0..first.len()).filter(|&i| in_cat(first, i, 0)).count();
    let agree_strict = cells[0][0] as f64 / d_total.max(1) as f64;
    let agree_either = cells[0][1] as f64 / d_total.max(1) as f64;
    let _ = d_w;

    let mut report = render_table(
        "Table 2 — cross-site agreement (rows: site w, cols: site j)",
        &["w \\ j", "d", "e", "N"],
        &rows,
    );
    report.push_str(&format!(
        "\nof site-w diurnal blocks: {:.1}% strict at j, {:.1}% strict-or-relaxed at j\n\
         (paper: 85% strict, 98.8% either)\n",
        100.0 * agree_strict,
        100.0 * agree_either
    ));
    let headline = vec![
        ("agree_strict".to_string(), f(agree_strict)),
        ("agree_either".to_string(), f(agree_either)),
    ];
    let csv = to_csv(&["w_cat", "j_d", "j_e", "j_N"], &rows);
    ExperimentOutput { id: "table2", report, headline, csv }
}

/// Table 3: top-20 countries by diurnal fraction, plus the United States.
pub(crate) fn table3(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let min_blocks = (analysis.len() / 2_000).max(5);
    let stats = analysis.country_stats(min_blocks);
    let row_of = |s: &sleepwatch_core::CountryStat| {
        let (lo, hi) = wilson_interval(s.diurnal as u64, s.blocks as u64, 1.96);
        vec![
            s.code.to_string(),
            s.region.name().to_string(),
            s.blocks.to_string(),
            f(s.frac_diurnal),
            format!("[{:.3}, {:.3}]", lo, hi),
            format!("{:.0}", s.gdp),
        ]
    };
    let mut rows: Vec<Vec<String>> = stats.iter().take(20).map(row_of).collect();
    if let Some(us) = stats.iter().find(|s| s.code == "US") {
        rows.push(row_of(us));
    }
    let report = render_table(
        "Table 3 — fraction of diurnal blocks, top 20 countries (+US)",
        &["country", "region", "blocks", "frac diurnal", "95% CI", "GDP (US$)"],
        &rows,
    );
    let top = stats.first();
    let headline = vec![
        ("top_country".to_string(), top.map(|s| s.code.to_string()).unwrap_or_default()),
        ("top_frac".to_string(), top.map(|s| f(s.frac_diurnal)).unwrap_or_default()),
        (
            "us_frac".to_string(),
            stats.iter().find(|s| s.code == "US").map(|s| f(s.frac_diurnal)).unwrap_or_default(),
        ),
    ];
    let csv = to_csv(&["country", "region", "blocks", "frac_diurnal", "gdp"], &rows);
    ExperimentOutput { id: "table3", report, headline, csv }
}

/// Table 4: diurnal fraction by region.
pub(crate) fn table4(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let stats = analysis.region_stats();
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|&(region, n, frac)| vec![region.name().to_string(), n.to_string(), f(frac)])
        .collect();
    let report = render_table(
        "Table 4 — fraction of diurnal blocks by region (ascending)",
        &["region", "blocks", "frac diurnal"],
        &rows,
    );
    let bottom = stats.first().map(|&(r, _, fr)| (r.name(), fr));
    let top = stats.last().map(|&(r, _, fr)| (r.name(), fr));
    let headline = vec![
        ("least_diurnal".to_string(), bottom.map(|(n, _)| n.to_string()).unwrap_or_default()),
        ("least_frac".to_string(), bottom.map(|(_, x)| f(x)).unwrap_or_default()),
        ("most_diurnal".to_string(), top.map(|(n, _)| n.to_string()).unwrap_or_default()),
        ("most_frac".to_string(), top.map(|(_, x)| f(x)).unwrap_or_default()),
    ];
    let csv = to_csv(&["region", "blocks", "frac_diurnal"], &rows);
    ExperimentOutput { id: "table4", report, headline, csv }
}

/// Table 5: ANOVA of diurnal fraction against five factors, single and
/// pairwise.
pub(crate) fn table5(ctx: &Context) -> ExperimentOutput {
    let (_, analysis) = ctx.world_run();
    let factors = analysis.anova_factors(5);
    let names: Vec<&str> = factors.factors.iter().map(|(n, _)| *n).collect();
    let k = names.len();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut headline = Vec::new();
    for i in 0..k {
        let mut row = vec![names[i].to_string()];
        for j in 0..k {
            let p = if i == j {
                factors.single_p(i).unwrap_or(f64::NAN)
            } else if i < j {
                factors.pair_p(i, j).unwrap_or(f64::NAN)
            } else {
                // Lower triangle mirrors the upper (interaction is
                // symmetric under our sequential ordering convention).
                factors.pair_p(j, i).unwrap_or(f64::NAN)
            };
            let mark = if p < 0.05 { "*" } else { "" };
            row.push(format!("{}{}", f(p), mark));
            csv_rows.push(vec![names[i].to_string(), names[j].to_string(), f(p)]);
            if i == j {
                headline.push((format!("p_{}", names[i]), f(p)));
            }
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("factor").chain(names.iter().copied()).collect();
    let mut report = render_table(
        "Table 5 — ANOVA p-values: diagonal = single factor, off-diagonal = interaction (* = p < 0.05)",
        &header,
        &rows,
    );
    report.push_str(&format!(
        "\ncountries: {} (paper found: gdp p=6.6e-8; electricity:age_mean p=1.5e-3; age_mean p=0.031)\n",
        factors.countries
    ));
    let csv = to_csv(&["factor_a", "factor_b", "p"], &csv_rows);
    ExperimentOutput { id: "table5", report, headline, csv }
}
