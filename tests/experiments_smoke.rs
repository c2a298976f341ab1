//! Smoke tests for the experiment harness: every table/figure generator
//! runs at a tiny scale and produces sane headline metrics.

use sleepwatch_experiments::{run, Context, Options, EXPERIMENTS};

fn tiny_ctx() -> Context {
    Context::new(Options {
        seed: 5,
        scale: 0.01,
        threads: 2,
        out_dir: None,
        journal: None,
        ..Default::default()
    })
}

#[test]
fn every_experiment_id_is_runnable() {
    // Shared context so the expensive world/survey runs happen once.
    let ctx = tiny_ctx();
    for (id, _) in EXPERIMENTS {
        let out = run(id, &ctx).unwrap_or_else(|| panic!("unknown id {id}"));
        assert_eq!(&out.id, id);
        assert!(!out.report.is_empty(), "{id}: empty report");
        assert!(!out.csv.is_empty(), "{id}: empty CSV");
        assert!(out.csv.lines().count() >= 2, "{id}: CSV has no data rows");
    }
}

#[test]
fn unknown_id_is_rejected() {
    let ctx = tiny_ctx();
    assert!(run("fig99", &ctx).is_none());
}

/// With `--format bin`, `ext-dataset` grows a binary twin: the seed-joined
/// container must land next to the TSV and decode back to byte-identical
/// TSV — the differential oracle, end to end through the harness.
#[test]
fn ext_dataset_binary_twin_matches_the_tsv() {
    use sleepwatch_experiments::{write_dataset_bin, DatasetFormat};

    let dir = std::env::temp_dir().join(format!("swtest-extbin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ctx = Context::new(Options {
        seed: 5,
        scale: 0.01,
        threads: 2,
        out_dir: Some(dir.clone()),
        journal: None,
        format: DatasetFormat::Bin,
    });
    let out = run("ext-dataset", &ctx).expect("ext-dataset runs");
    let bin_path = write_dataset_bin(&ctx, &dir).expect("binary twin written");
    assert_eq!(bin_path, dir.join("ext-dataset.bin"));

    let bytes = std::fs::read(&bin_path).expect("binary artifact exists");
    assert!(bytes.len() < out.csv.len() / 4, "binary twin should be far smaller than the TSV");
    let (world, _) = ctx.world_run();
    let rows = sleepwatch::core::decode_dataset(&bytes, Some(&world.cfg)).expect("decodes");
    let mut tsv = Vec::new();
    sleepwatch::core::write_dataset_rows(&mut tsv, &rows).expect("serialize");
    assert_eq!(tsv, out.csv.as_bytes(), "decoded binary diverged from the TSV artifact");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn world_metrics_are_in_range_at_small_scale() {
    let ctx = Context::new(Options {
        seed: 9,
        scale: 0.05,
        threads: 2,
        out_dir: None,
        journal: None,
        ..Default::default()
    });
    let out = run("fig10", &ctx).unwrap();
    let strict: f64 = out.metric("strict_frac").unwrap().parse().unwrap();
    assert!((0.02..0.35).contains(&strict), "strict fraction {strict}");
    let stationary: f64 = out.metric("stationary_frac").unwrap().parse().unwrap();
    assert!(stationary > 0.6, "stationary {stationary}");

    let t3 = run("table3", &ctx).unwrap();
    assert_eq!(t3.metric("top_country"), Some("CN"), "China tops the league table");

    let t4 = run("table4", &ctx).unwrap();
    let most = t4.metric("most_diurnal").unwrap();
    assert!(
        ["Eastern Asia", "Central Asia", "W. Asia", "South America", "Southern Asia"]
            .contains(&most),
        "most diurnal region {most}"
    );
}

#[test]
fn gdp_correlation_is_negative() {
    let ctx = Context::new(Options {
        seed: 9,
        scale: 0.05,
        threads: 2,
        out_dir: None,
        journal: None,
        ..Default::default()
    });
    let out = run("fig16", &ctx).unwrap();
    let r: f64 = out.metric("r").unwrap().parse().unwrap();
    assert!(r < -0.2, "GDP correlation should be clearly negative, got {r}");
}

/// Parse a headline metric as a float, failing with the id and key.
fn m(out: &sleepwatch_experiments::ExperimentOutput, key: &str) -> f64 {
    out.metric(key)
        .unwrap_or_else(|| panic!("{}: missing headline metric {key}", out.id))
        .parse()
        .unwrap_or_else(|e| panic!("{}: metric {key} is not a number: {e}", out.id))
}

fn frac(out: &sleepwatch_experiments::ExperimentOutput, key: &str) -> f64 {
    let v = m(out, key);
    assert!((0.0..=1.0).contains(&v), "{}: {key} = {v} is not a fraction", out.id);
    v
}

#[test]
fn extension_metrics_are_sane_at_small_scale() {
    let ctx = tiny_ctx();

    // usc: the census policy excludes most wireless, detects dynamic
    // pools and pockets, and never flags servers as strictly diurnal.
    let usc = run("usc", &ctx).unwrap();
    assert!(m(&usc, "wireless_excluded") <= m(&usc, "wireless_total"));
    assert!(frac(&usc, "dynamic_detected_frac") >= 0.8, "dynamic pools go undetected");
    assert!(frac(&usc, "pocket_detected_frac") >= 0.8, "dynamic pockets go undetected");
    assert_eq!(m(&usc, "server_strict"), 0.0, "a server block classified strictly diurnal");

    // ext-orgs: clustering yields at least one named organization.
    let orgs = run("ext-orgs", &ctx).unwrap();
    assert!(m(&orgs, "orgs") >= 1.0);
    assert!(!orgs.metric("top_org").unwrap().is_empty());

    // ext-size: diurnal-aware population estimate with a bounded
    // relative uncertainty.
    let size = run("ext-size", &ctx).unwrap();
    assert!(m(&size, "mean_active") > 0.0);
    let ru = m(&size, "relative_uncertainty");
    assert!(ru.is_finite() && (0.0..1.0).contains(&ru), "relative uncertainty {ru}");

    // ext-timeofday: peaks land in local working hours (§5.2).
    let tod = run("ext-timeofday", &ctx).unwrap();
    assert!(frac(&tod, "daytime_share") >= 0.5, "most peaks should be in daytime");
    assert!(m(&tod, "blocks") > 0.0);

    // ext-outages: consensus over vantages removes false positives, so
    // its precision can only match or beat a single site.
    let out = run("ext-outages", &ctx).unwrap();
    let single_p = frac(&out, "single_precision");
    frac(&out, "single_recall");
    frac(&out, "consensus_recall");
    assert!(frac(&out, "consensus_precision") >= single_p, "consensus precision below single-site");

    // ext-dataset: a non-empty TSV with at least one byte per row.
    let ds = run("ext-dataset", &ctx).unwrap();
    let rows = m(&ds, "rows");
    assert!(rows > 0.0);
    assert!(m(&ds, "bytes") > rows, "dataset rows can't be sub-byte");

    // ext-weekend: detection never improves as the weekend signal
    // weakens, and weekly dips alone rarely read as daily-diurnal.
    let wk = run("ext-weekend", &ctx).unwrap();
    assert!(frac(&wk, "det@1") >= frac(&wk, "det@0.4"));
    assert!(frac(&wk, "weekly_fp@1") <= 0.2, "weekly dips misread as daily diurnality");

    // ext-lease: only the 24 h lease period aliases into a diurnal
    // verdict; shorter cycles peak more often per day and stay unflagged.
    let lease = run("ext-lease", &ctx).unwrap();
    assert!(frac(&lease, "strict@24h") >= 0.9, "24 h leases should read as diurnal");
    assert!(frac(&lease, "strict@6h") <= 0.1);
    assert!(frac(&lease, "strict@8h") <= 0.1);
    let cpd6 = m(&lease, "peak_cpd@6h");
    assert!((3.5..=4.5).contains(&cpd6), "6 h lease should peak ~4×/day, got {cpd6}");
}

#[test]
fn ablation_metrics_are_sane_at_small_scale() {
    let ctx = tiny_ctx();

    // ablate-ewma: the paper's estimator is less biased than the direct
    // variant at every truth level (§2.1.2).
    let ewma = run("ablate-ewma", &ctx).unwrap();
    for t in ["0.15", "0.3", "0.5", "0.7", "0.9"] {
        let paper = m(&ewma, &format!("paper_bias@{t}")).abs();
        let direct = m(&ewma, &format!("direct_bias@{t}")).abs();
        assert!(paper <= direct + 1e-9, "paper bias {paper} exceeds direct bias {direct} at A={t}");
    }

    // ablate-strict: raising the dominance ratio trades detection for
    // false positives monotonically at the extremes.
    let strict = run("ablate-strict", &ctx).unwrap();
    assert!(frac(&strict, "det@1.25") >= frac(&strict, "det@4"));
    assert!(frac(&strict, "fp@1.25") >= frac(&strict, "fp@4"));
    assert!(frac(&strict, "fp@4") <= 0.05, "a strict ratio of 4 still false-positives");

    // ablate-probes: more probes per round buy accuracy at probe cost.
    let probes = run("ablate-probes", &ctx).unwrap();
    assert!(m(&probes, "rmse@1") >= m(&probes, "rmse@15"), "extra probes made RMSE worse");
    assert!(m(&probes, "pph@15") >= m(&probes, "pph@1"), "probe budget not spent");

    // ablate-gaps: FFT detection decays with loss; Lomb–Scargle, which
    // consumes the gappy series directly, never does worse.
    let gaps = run("ablate-gaps", &ctx).unwrap();
    assert!(frac(&gaps, "fft@0") >= 0.9, "clean-series FFT detection too low");
    let mut prev = f64::INFINITY;
    for loss in ["0", "0.25", "0.5", "0.75", "0.9"] {
        let fft = frac(&gaps, &format!("fft@{loss}"));
        assert!(fft <= prev + 1e-9, "FFT detection rose as loss grew to {loss}");
        prev = fft;
        assert!(
            frac(&gaps, &format!("ls@{loss}")) >= fft - 1e-9,
            "Lomb–Scargle fell below FFT at loss {loss}"
        );
    }

    // ablate-acf: both detectors reject flat blocks; FFT keeps finding
    // the minority-diurnal signal the ACF detector loses in noise.
    let acf = run("ablate-acf", &ctx).unwrap();
    assert!(frac(&acf, "fft@clean_diurnal") >= 0.9);
    assert!(frac(&acf, "fft@flat") <= 0.1);
    assert!(frac(&acf, "acf@flat") <= 0.1);
    assert!(
        frac(&acf, "fft@noisy_minority_diurnal") >= frac(&acf, "acf@noisy_minority_diurnal"),
        "ACF should not beat FFT on noisy minority-diurnal blocks"
    );

    // ablate-trim: midnight trimming never hurts detection, whatever
    // the measurement start time.
    let trim = run("ablate-trim", &ctx).unwrap();
    for start in ["17:18", "23:50", "midnight"] {
        assert!(
            frac(&trim, &format!("trim@{start}")) >= frac(&trim, &format!("raw@{start}")),
            "trimming lost detections for the {start} start"
        );
    }
}
