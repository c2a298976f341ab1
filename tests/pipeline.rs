//! Cross-crate integration tests: the full measurement pipeline from the
//! synthetic world down to aggregated, paper-shaped results.

use sleepwatch::core::{analyze_block, analyze_world, AnalysisConfig};
use sleepwatch::probing::{survey_block, TrinocularConfig, TrinocularProber};
use sleepwatch::simnet::{BlockProfile, BlockSpec, World, WorldConfig};
use sleepwatch::spectral::DiurnalClass;

fn diurnal_profile(offset: f64) -> BlockProfile {
    BlockProfile {
        n_stable: 30,
        n_diurnal: 170,
        stable_avail: 0.9,
        diurnal_avail: 0.85,
        onset_hours: 8.0,
        onset_spread: 2.0,
        duration_hours: 9.0,
        duration_spread: 1.0,
        sigma_start: 0.5,
        sigma_duration: 0.5,
        utc_offset_hours: offset,
    }
}

#[test]
fn survey_and_adaptive_paths_agree_on_diurnality() {
    let block = BlockSpec::bare(5, 99, diurnal_profile(0.0));
    let rounds = 1_833u64;

    // Ground truth via survey.
    let survey = survey_block(&block, 0, rounds);
    let truth = survey.availability_series();
    let (truth_rep, _) = sleepwatch::core::analyze_series(&truth, &Default::default());
    assert!(truth_rep.class.is_diurnal(), "survey path: {:?}", truth_rep.class);

    // Lightweight path via the pipeline.
    let analysis = analyze_block(&block, &AnalysisConfig::over_days(0, 14.0));
    assert!(analysis.diurnal.class.is_diurnal(), "adaptive path: {:?}", analysis.diurnal.class);

    // The adaptive path spends ~2 orders of magnitude fewer probes.
    assert!(analysis.run.total_probes * 20 < survey.total_probes);
}

#[test]
fn world_analysis_recovers_planted_country_gradient() {
    let world = World::generate(WorldConfig {
        num_blocks: 900,
        seed: 31,
        span_days: 7.0,
        country_filter: Some(vec!["US", "CN"]),
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, 7.0);
    let analysis = analyze_world(&world, &cfg, 2, None);

    let stats = analysis.country_stats(30);
    let us = stats.iter().find(|s| s.code == "US").expect("US present");
    let cn = stats.iter().find(|s| s.code == "CN").expect("CN present");
    assert!(
        cn.frac_diurnal > us.frac_diurnal + 0.2,
        "CN ({:.3}) must dwarf US ({:.3})",
        cn.frac_diurnal,
        us.frac_diurnal
    );
}

#[test]
fn detection_scores_well_against_planted_labels() {
    let world = World::generate(WorldConfig {
        num_blocks: 400,
        seed: 8,
        span_days: 7.0,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, 7.0);
    let analysis = analyze_world(&world, &cfg, 2, None);
    let (tp, fp, fneg, tn) = analysis.confusion_vs_planted();
    assert_eq!(tp + fp + fneg + tn, 400);
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let accuracy = (tp + tn) as f64 / 400.0;
    // The paper reports 82 % precision / 91 % accuracy on two-week data.
    assert!(precision > 0.6, "precision {precision}");
    assert!(accuracy > 0.8, "accuracy {accuracy}");
}

#[test]
fn phase_orders_blocks_by_timezone() {
    // Three identical blocks at UTC, UTC+8 (Asia) and UTC−8 (US west):
    // activity peaks 8 hours apart must yield distinct, ordered phases.
    let cfg = AnalysisConfig::over_days(0, 14.0);
    let phase_at = |offset: f64| {
        let mut block = BlockSpec::bare(77, 400, diurnal_profile(offset));
        block.perm_offset = 3;
        block.perm_step = 7;
        analyze_block(&block, &cfg).diurnal.phase.expect("diurnal phase")
    };
    let p_east = phase_at(8.0);
    let p_mid = phase_at(0.0);
    let p_west = phase_at(-8.0);
    // Eastern activity happens earlier in UTC; unrolled ordering holds up
    // to 2π wrap. Map all phases relative to p_mid into (−π, π].
    let rel = |p: f64| {
        let mut d = p - p_mid;
        while d > std::f64::consts::PI {
            d -= std::f64::consts::TAU;
        }
        while d < -std::f64::consts::PI {
            d += std::f64::consts::TAU;
        }
        d
    };
    assert!(rel(p_east) > 0.5, "east phase ahead: {}", rel(p_east));
    assert!(rel(p_west) < -0.5, "west phase behind: {}", rel(p_west));
}

#[test]
fn outage_injection_flows_to_summary() {
    let mut block = BlockSpec::bare(9, 123, BlockProfile::always_on(120, 0.9));
    block.outage = Some((500 * 660, 540 * 660));
    let mut prober = TrinocularProber::new(&block, TrinocularConfig::default());
    let run = prober.run(&block, 0, 1_000);
    assert_eq!(run.outages.len(), 1);
    let o = run.outages[0];
    assert!(o.start_round >= 500 && o.start_round < 505);
    assert!(o.end_round.is_some());
}

#[test]
fn deterministic_end_to_end() {
    let mk = || {
        let world = World::generate(WorldConfig {
            num_blocks: 50,
            seed: 2_024,
            span_days: 4.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        analyze_world(&world, &cfg, 3, None)
            .reports
            .iter()
            .map(|r| (r.summary.class, r.summary.total_probes, r.link_features))
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk(), "same seed ⇒ identical analysis, any thread count");
}

#[test]
fn non_diurnal_world_yields_low_fractions() {
    // A US/Germany/Japan-only world should be almost entirely always-on.
    let world = World::generate(WorldConfig {
        num_blocks: 300,
        seed: 77,
        span_days: 7.0,
        country_filter: Some(vec!["US", "DE", "JP"]),
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, 7.0);
    let analysis = analyze_world(&world, &cfg, 2, None);
    let (_, frac) = analysis.strict_fraction();
    assert!(frac < 0.05, "always-on world measured {frac}");
}

#[test]
fn strict_implies_relaxed_everywhere() {
    let world = World::generate(WorldConfig {
        num_blocks: 200,
        seed: 4,
        span_days: 5.0,
        ..Default::default()
    });
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, 5.0);
    let analysis = analyze_world(&world, &cfg, 2, None);
    for r in &analysis.reports {
        if r.summary.class == DiurnalClass::Strict {
            assert!(r.summary.class.is_diurnal());
            assert!(r.summary.phase.is_some());
        }
        if r.summary.class == DiurnalClass::NonDiurnal {
            assert!(r.summary.phase.is_none());
        }
    }
}
