//! Per-block analysis: probe → clean → FFT → classify.
//!
//! This is the paper's measurement pipeline for one /24: run Trinocular
//! over the observation window, track `Âs` (§2.1), clean the timeseries and
//! trim it to midnight UTC (§2.2), then classify diurnality and extract
//! phase from the spectrum (§2.2), with the stationarity screen alongside.

use sleepwatch_availability::{clean_series_into, CleanScratch};
use sleepwatch_obs::{Stage, StageTimer};
use sleepwatch_probing::{
    BlockRun, FaultPlan, ProberScratch, RoundRecord, TrinocularConfig, TrinocularProber,
};
use sleepwatch_simnet::{BlockSpec, ROUND_SECONDS};
use sleepwatch_spectral::{
    classify, plan_for, trend_default, DiurnalClass, DiurnalConfig, DiurnalReport, Spectrum,
    SpectrumScratch, TrendReport,
};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Prober parameters.
    pub trinocular: TrinocularConfig,
    /// Diurnal-classifier margins.
    pub diurnal: DiurnalConfig,
    /// Measurement start (unix seconds).
    pub start_time: u64,
    /// Rounds to observe.
    pub rounds: u64,
    /// Reject classification when more than this fraction of rounds had to
    /// be interpolated.
    pub max_fill_fraction: f64,
    /// Injected measurement faults ([`FaultPlan::none`] by default — the
    /// zero-cost path, byte-identical to a fault-free run).
    pub faults: FaultPlan,
}

impl AnalysisConfig {
    /// A configuration covering `days` from `start_time` with defaults
    /// otherwise.
    pub fn over_days(start_time: u64, days: f64) -> Self {
        AnalysisConfig {
            trinocular: TrinocularConfig::default(),
            diurnal: DiurnalConfig::default(),
            start_time,
            rounds: (days * 86_400.0 / ROUND_SECONDS as f64).round() as u64,
            max_fill_fraction: 0.25,
            faults: FaultPlan::none(),
        }
    }
}

/// Everything the pipeline produced for one block (full detail — see
/// [`BlockAnalysis::summary`] for the compact world-scale form).
#[derive(Debug, Clone)]
pub struct BlockAnalysis {
    /// The analyzed block's id.
    pub block_id: u64,
    /// The raw probing run.
    pub run: BlockRun,
    /// Cleaned, midnight-trimmed `Âs` series.
    pub series: Vec<f64>,
    /// Fraction of rounds interpolated during cleaning.
    pub fill_fraction: f64,
    /// Diurnal classification of the series.
    pub diurnal: DiurnalReport,
    /// Stationarity screen.
    pub trend: TrendReport,
    /// Mean of the cleaned series.
    pub mean_a_short: f64,
}

/// Compact per-block result for world-scale aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Block id.
    pub block_id: u64,
    /// Diurnal class.
    pub class: DiurnalClass,
    /// Phase of the daily component (diurnal blocks only).
    pub phase: Option<f64>,
    /// Frequency (cycles/day) of the strongest non-DC spectral component.
    pub strongest_cpd: f64,
    /// Mean `Âs` over the observation.
    pub mean_a: f64,
    /// Stationary per the §2.2 screen.
    pub stationary: bool,
    /// Number of detected outages.
    pub outages: u32,
    /// Total probes spent.
    pub total_probes: u64,
}

/// Classifies an availability series that is already dense and trimmed
/// (e.g. a survey's ground-truth `A(t)`).
pub fn analyze_series(series: &[f64], cfg: &DiurnalConfig) -> (DiurnalReport, TrendReport) {
    let spectrum = Spectrum::compute_rounds(series);
    (classify(&spectrum, cfg), trend_default(series))
}

/// The probe workspace: the buffers one block needs only while it is
/// probed and cleaned — prober walk and memo, round records and the
/// cleaning workspace. A batch arena holds one and probes its lanes
/// through it one after another; a feed worker, which only probes, holds
/// nothing else.
#[derive(Debug, Default)]
pub(crate) struct ProbeWorkspace {
    prober: ProberScratch,
    records: Vec<RoundRecord>,
    clean: CleanScratch,
}

impl ProbeWorkspace {
    /// Bytes reserved across the workspace's buffers, capacity not length.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.prober.footprint_bytes()
            + self.records.capacity() * std::mem::size_of::<RoundRecord>()
            + self.clean.footprint_bytes()
    }

    /// Fills every buffer with garbage that a correct pipeline must
    /// overwrite or ignore.
    #[cfg(test)]
    pub(crate) fn poison(&mut self, seed: u64) {
        self.prober.poison(seed);
        self.records.clear();
        self.clean.poison(seed);
    }

    /// The records of the block [`probe_into`] last probed.
    pub(crate) fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Stage Clean for `(round, Âs)` pairs collected elsewhere — an
    /// ingest lane's streamed series: [`clean_stage`] through this
    /// workspace, as [`probe_clean_into`] cleans its own records.
    pub(crate) fn clean_into(
        &mut self,
        pairs: impl IntoIterator<Item = (u64, f64)>,
        cfg: &AnalysisConfig,
        lane: &mut BatchLane,
    ) -> f64 {
        clean_stage(pairs, cfg, &mut self.clean, lane)
    }
}

/// One lane of a batch: what has to survive from a block's clean until
/// its classify — the cleaned series (the batched FFT's input) and the
/// spectrum workspace (its output).
#[derive(Debug, Default)]
pub(crate) struct BatchLane {
    series: Vec<f64>,
    spectrum: SpectrumScratch,
}

impl BatchLane {
    /// Bytes reserved across the lane's buffers, capacity not length.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.series.capacity() * std::mem::size_of::<f64>() + self.spectrum.footprint_bytes()
    }

    /// Fills every buffer with NaN and garbage lengths that a correct
    /// pipeline must overwrite or ignore.
    #[cfg(test)]
    pub(crate) fn poison(&mut self, seed: u64) {
        self.series.clear();
        self.series.extend((0..71u64).map(|i| f64::NAN + (seed ^ i) as f64));
        self.spectrum.poison(seed);
    }

    /// Length of the cleaned series in the lane (the grouping key of the
    /// batched world FFT).
    pub(crate) fn series_len(&self) -> usize {
        self.series.len()
    }

    /// Split borrow for the batched FFT: the cleaned series (kernel input)
    /// alongside the spectrum workspace (kernel output).
    pub(crate) fn series_and_spectrum(&mut self) -> (&[f64], &mut SpectrumScratch) {
        (&self.series, &mut self.spectrum)
    }

    /// The spectrum workspace alone: a shard borrows it for its live
    /// detectors' transforms while the lane holds no block.
    pub(crate) fn spectrum_mut(&mut self) -> &mut SpectrumScratch {
        &mut self.spectrum
    }

    /// Stage Fft, one series at a time: the spectrum of `self.series` into
    /// `self.spectrum`. Every block of a run produces the same post-trim
    /// length, so this hits the global plan cache after the first block —
    /// the FFT tables are built once per world, not once per /24.
    fn fft_stage(&mut self) {
        let obs = sleepwatch_obs::global();
        let _t = StageTimer::start(obs.pipeline.stage(Stage::Fft));
        let plan = plan_for(self.series.len());
        self.spectrum.compute_with_plan(&self.series, sleepwatch_spectral::ROUND_SECONDS, &plan);
    }
}

/// Counts one classified block as a reuse of its arena, or as a growth
/// when its lane or the probe workspace had to grow for it.
pub(crate) fn count_reuse(grew: bool) {
    let obs = sleepwatch_obs::global();
    if grew {
        obs.pipeline.scratch_grows.incr();
    } else {
        obs.pipeline.scratch_reuses.incr();
    }
}

/// Probe → clean results carried between the split phases of the batched
/// world path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbedBlock {
    pub outages: u32,
    pub total_probes: u64,
    pub fill_fraction: f64,
}

/// Stage Probe: one Trinocular run of `block` into `work`'s records, on
/// the workspace's reused prober buffers. Returns the outage count and
/// the probe total. Every block the pipeline probes — the world run's and
/// the feed's — is probed here.
pub(crate) fn probe_into(
    block: &BlockSpec,
    cfg: &AnalysisConfig,
    work: &mut ProbeWorkspace,
) -> (u32, u64) {
    let _t = StageTimer::start(sleepwatch_obs::global().pipeline.stage(Stage::Probe));
    let mut prober = TrinocularProber::new_reusing(block, cfg.trinocular, &mut work.prober);
    prober.run_into_with_faults(block, cfg.start_time, cfg.rounds, &cfg.faults, &mut work.records);
    let counts = (prober.outages().len() as u32, prober.total_probes());
    prober.recycle(&mut work.prober);
    counts
}

/// Stage Clean: the `(round, Âs)` pairs scattered by round, gap-filled
/// and midnight-trimmed in `lane`'s series. Returns the fraction
/// of samples interpolated.
fn clean_stage(
    pairs: impl IntoIterator<Item = (u64, f64)>,
    cfg: &AnalysisConfig,
    clean: &mut CleanScratch,
    lane: &mut BatchLane,
) -> f64 {
    let _t = StageTimer::start(sleepwatch_obs::global().pipeline.stage(Stage::Clean));
    let (n_rounds, start) = (cfg.rounds as usize, cfg.start_time);
    clean_series_into(pairs, n_rounds, start, ROUND_SECONDS, clean, &mut lane.series)
}

/// Stages Probe → Clean through `work`, leaving the cleaned series in
/// `lane` for the FFT phase. First half of the pipeline body; the batched
/// world path runs it per block, then FFTs same-length groups together
/// before finishing each block with [`classify_probed`]. An ingest shard
/// reaches the same lane state through [`ProbeWorkspace::clean_into`].
pub(crate) fn probe_clean_into(
    block: &BlockSpec,
    cfg: &AnalysisConfig,
    work: &mut ProbeWorkspace,
    lane: &mut BatchLane,
) -> ProbedBlock {
    let (outages, total_probes) = probe_into(block, cfg, work);
    let pairs = work.records.iter().map(|r| (r.round, r.a_short));
    let fill_fraction = clean_stage(pairs, cfg, &mut work.clean, lane);
    ProbedBlock { outages, total_probes, fill_fraction }
}

/// Stage Classify plus summary assembly. Expects `lane.spectrum` to hold
/// the spectrum of `lane.series` — either from the scalar FFT phase in
/// [`analyze_block`] or a lane of the batched world kernel
/// (bit-identical by construction).
pub(crate) fn classify_probed(
    block: &BlockSpec,
    cfg: &AnalysisConfig,
    lane: &BatchLane,
    probed: ProbedBlock,
) -> (BlockSummary, DiurnalReport, TrendReport) {
    let obs = sleepwatch_obs::global();
    let spectrum = lane.spectrum.spectrum();
    let (diurnal, trend, strongest_cpd) = {
        let _t = StageTimer::start(obs.pipeline.stage(Stage::Classify));
        let mut diurnal = classify(spectrum, &cfg.diurnal);
        if probed.fill_fraction > cfg.max_fill_fraction {
            // Too much interpolation to trust periodicity claims.
            diurnal.class = DiurnalClass::NonDiurnal;
            diurnal.phase = None;
            obs.pipeline.blocks_rejected.incr();
        }
        let strongest_cpd =
            spectrum.strongest_bin().map(|k| spectrum.cycles_per_day(k)).unwrap_or(0.0);
        (diurnal, trend_default(&lane.series), strongest_cpd)
    };
    let mean_a_short = if lane.series.is_empty() {
        0.0
    } else {
        lane.series.iter().sum::<f64>() / lane.series.len() as f64
    };
    obs.pipeline.blocks_analyzed.incr();
    let summary = BlockSummary {
        block_id: block.id,
        class: diurnal.class,
        phase: diurnal.phase,
        strongest_cpd,
        mean_a: mean_a_short,
        stationary: trend.stationary,
        outages: probed.outages,
        total_probes: probed.total_probes,
    };
    (summary, diurnal, trend)
}

/// Runs the full pipeline over one block: the allocating per-block
/// reference the batched world run is held to.
///
/// Each stage reports wall time into the [`sleepwatch_obs`] stage
/// histograms; on the disabled registry the timers never read the clock.
/// The stages run on a fresh probe workspace and lane, which are then
/// dismantled into the owned [`BlockAnalysis`].
pub fn analyze_block(block: &BlockSpec, cfg: &AnalysisConfig) -> BlockAnalysis {
    let (mut work, mut lane) = (ProbeWorkspace::default(), BatchLane::default());
    let probed = probe_clean_into(block, cfg, &mut work, &mut lane);
    lane.fft_stage();
    let (summary, diurnal, trend) = classify_probed(block, cfg, &lane, probed);
    // A fresh arena always grows.
    count_reuse(true);
    let ProbeWorkspace { mut prober, records, .. } = work;
    // `run_with_faults`'s run, checked as it checks it.
    debug_assert!(
        cfg.faults.mangles_order() || records.windows(2).all(|w| w[0].round < w[1].round)
    );
    let run = BlockRun {
        block_id: block.id,
        rounds: cfg.rounds,
        records,
        outages: prober.take_outages(),
        total_probes: summary.total_probes,
    };
    BlockAnalysis {
        block_id: block.id,
        run,
        series: lane.series,
        fill_fraction: probed.fill_fraction,
        diurnal,
        trend,
        mean_a_short: summary.mean_a,
    }
}

impl BlockAnalysis {
    /// Collapses to the compact summary.
    pub fn summary(&self) -> BlockSummary {
        let spectrum = Spectrum::compute_rounds(&self.series);
        let strongest_cpd =
            spectrum.strongest_bin().map(|k| spectrum.cycles_per_day(k)).unwrap_or(0.0);
        BlockSummary {
            block_id: self.block_id,
            class: self.diurnal.class,
            phase: self.diurnal.phase,
            strongest_cpd,
            mean_a: self.mean_a_short,
            stationary: self.trend.stationary,
            outages: self.run.outages.len() as u32,
            total_probes: self.run.total_probes,
        }
    }
}

/// Unrolls a phase (radians) into the window `[−π + L, π + L]` centred on a
/// longitude `lon_deg` (§5.2's trick for comparing two circular
/// quantities).
pub(crate) fn unroll_phase(phase: f64, lon_deg: f64) -> f64 {
    use std::f64::consts::TAU;
    let l = lon_deg.to_radians();
    let k = ((l - phase) / TAU).round();
    phase + k * TAU
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepwatch_simnet::{BlockProfile, BlockSpec};
    use std::f64::consts::PI;

    fn diurnal_block(id: u64, offset_h: f64) -> BlockSpec {
        BlockSpec::bare(
            id,
            55,
            BlockProfile {
                n_stable: 40,
                n_diurnal: 160,
                stable_avail: 0.9,
                diurnal_avail: 0.9,
                onset_hours: 8.0,
                onset_spread: 2.0,
                duration_hours: 9.0,
                duration_spread: 1.0,
                sigma_start: 0.5,
                sigma_duration: 0.5,
                utc_offset_hours: offset_h,
            },
        )
    }

    fn flat_block(id: u64) -> BlockSpec {
        BlockSpec::bare(id, 55, BlockProfile::always_on(120, 0.8))
    }

    #[test]
    fn pipeline_detects_diurnal_block() {
        let b = diurnal_block(1, 0.0);
        let cfg = AnalysisConfig::over_days(0, 14.0);
        let a = analyze_block(&b, &cfg);
        assert!(a.diurnal.class.is_diurnal(), "got {:?}", a.diurnal.class);
        assert!(a.diurnal.phase.is_some());
        assert!(a.trend.stationary);
        assert!(!a.series.is_empty());
    }

    #[test]
    fn pipeline_rejects_flat_block() {
        let b = flat_block(2);
        let cfg = AnalysisConfig::over_days(0, 14.0);
        let a = analyze_block(&b, &cfg);
        assert_eq!(a.diurnal.class, DiurnalClass::NonDiurnal);
        assert!((a.mean_a_short - 0.8).abs() < 0.1, "mean {}", a.mean_a_short);
    }

    #[test]
    fn summary_collapses_consistently() {
        let b = diurnal_block(3, 0.0);
        let cfg = AnalysisConfig::over_days(0, 14.0);
        let a = analyze_block(&b, &cfg);
        let s = a.summary();
        assert_eq!(s.class, a.diurnal.class);
        assert_eq!(s.block_id, 3);
        assert!((s.strongest_cpd - 1.0).abs() < 0.2, "strongest at {} cpd", s.strongest_cpd);
        assert!(s.total_probes > 0);
    }

    #[test]
    fn excessive_fill_disables_classification() {
        let b = diurnal_block(4, 0.0);
        let mut cfg = AnalysisConfig::over_days(0, 14.0);
        cfg.max_fill_fraction = 0.0; // anything interpolated → rejected
        cfg.trinocular.restart_interval_rounds = Some(30);
        cfg.trinocular.restart_loss_chance = 1.0;
        let a = analyze_block(&b, &cfg);
        assert!(a.fill_fraction > 0.0);
        assert_eq!(a.diurnal.class, DiurnalClass::NonDiurnal);
        assert!(a.diurnal.phase.is_none());
    }

    #[test]
    fn analyze_series_ground_truth_path() {
        let b = diurnal_block(5, 0.0);
        let series: Vec<f64> = (0..1_833u64).map(|r| b.true_availability(r * 660)).collect();
        let (report, trend) = analyze_series(&series, &DiurnalConfig::default());
        assert!(report.class.is_diurnal());
        assert!(trend.stationary);
    }

    #[test]
    fn phase_tracks_timezone() {
        // Same block shape at UTC+0 and UTC+6: phases differ by ~π/2.
        let cfg = AnalysisConfig::over_days(0, 14.0);
        let p0 = analyze_block(&diurnal_block(6, 0.0), &cfg).diurnal.phase.unwrap();
        let p6 = analyze_block(&diurnal_block(6, 6.0), &cfg).diurnal.phase.unwrap();
        let mut diff = p6 - p0;
        while diff > PI {
            diff -= 2.0 * PI;
        }
        while diff < -PI {
            diff += 2.0 * PI;
        }
        assert!((diff.abs() - PI / 2.0).abs() < 0.35, "Δphase = {diff}");
    }

    #[test]
    fn unroll_phase_lands_in_window() {
        for &(phase, lon) in
            &[(0.0, 0.0), (3.0, -170.0), (-3.0, 170.0), (1.5, 100.0), (-2.9, -120.0)]
        {
            let u = unroll_phase(phase, lon);
            let l = lon.to_radians();
            assert!(u >= l - PI - 1e-9 && u <= l + PI + 1e-9, "phase {phase} lon {lon} → {u}");
            // Unrolling preserves the angle modulo 2π.
            assert!(((u - phase) / (2.0 * PI)).fract().abs() < 1e-9);
        }
    }

    #[test]
    fn outage_block_counted_in_summary() {
        let mut b = flat_block(7);
        b.outage = Some((100 * 660, 150 * 660));
        let cfg = AnalysisConfig::over_days(0, 14.0);
        let a = analyze_block(&b, &cfg);
        assert_eq!(a.summary().outages, 1);
    }
}
