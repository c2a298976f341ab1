//! Online diurnal detection: classify as observations arrive.
//!
//! The batch pipeline ([`crate::analyze`]) stores a full series and runs
//! one FFT at the end. An operational monitor wants a verdict *while*
//! collecting — and at 3.7 M blocks it cannot afford a full spectrum per
//! block per round. [`OnlineDetector`] re-classifies the last
//! `window_rounds` `Âs` values on a coarse schedule, preceded by a cheap
//! Goertzel screen of the daily bin so obviously-flat blocks never pay for
//! a full FFT. It owns no samples: the caller keeps the history (an ingest
//! lane already holds it for the batch-identical finish) and the window is
//! read in place as that history's tail.
//!
//! A verdict that falls due is *deferred*: the detector records where its
//! window ends and computes nothing. The history is append-only, so that
//! window reads the same values later. The pending verdict is computed
//! first thing at the next due round, inline ([`OnlineDetector::settle`]),
//! or by whoever owns the history when it ends — an ingest shard settles
//! the last verdicts of up to eight finished lanes with one batched
//! transform. Either way it is one path (screen → planned FFT → classify
//! → hysteresis), verdicts apply in the order they fell due, and a verdict
//! the stream ends on is computed exactly once.

use std::ops::Range;

use sleepwatch_spectral::{
    classify, diurnal_energy_ratio, plan_for, DiurnalClass, DiurnalConfig, Spectrum,
    SpectrumScratch,
};

/// Configuration for [`OnlineDetector`].
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Sliding-window length in rounds (default: 14 days).
    pub window_rounds: usize,
    /// Re-classify every this many rounds once the window is full
    /// (default: half a day).
    pub reclassify_every: usize,
    /// Goertzel energy-ratio screen below which the full FFT is skipped
    /// and the block stays non-diurnal (0 disables the screen).
    pub screen_threshold: f64,
    /// Sampling period in seconds.
    pub sample_period: f64,
    /// Classifier margins.
    pub diurnal: DiurnalConfig,
    /// Number of consecutive identical raw verdicts required before the
    /// public classification changes (1 = report immediately). Smooths the
    /// flapping the loose relaxed class otherwise shows on noisy flat
    /// blocks.
    pub hysteresis: u32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window_rounds: 1_833,
            reclassify_every: 65,
            screen_threshold: 2.0,
            sample_period: 660.0,
            diurnal: DiurnalConfig::default(),
            hysteresis: 1,
        }
    }
}

/// Incremental diurnal detector over the sliding window of a caller-kept
/// `Âs` history.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    cfg: OnlineConfig,
    rounds_seen: u64,
    since_classify: usize,
    class: DiurnalClass,
    phase: Option<f64>,
    pending: Option<(DiurnalClass, u32)>,
    /// Where the window of a verdict that fell due and is not computed
    /// yet ends, as a history length.
    due_end: Option<usize>,
    classifications: u64,
    screens_skipped: u64,
}

impl OnlineDetector {
    /// Creates a detector.
    pub fn new(cfg: OnlineConfig) -> Self {
        assert!(cfg.window_rounds >= 4, "window too small to classify");
        OnlineDetector {
            rounds_seen: 0,
            since_classify: 0,
            class: DiurnalClass::NonDiurnal,
            phase: None,
            pending: None,
            due_end: None,
            classifications: 0,
            screens_skipped: 0,
            cfg,
        }
    }

    /// Takes one round: `history` is every `Âs` value so far, the newest
    /// (just appended by the caller) last, and only ever appended to.
    /// Returns the classification as of the verdicts computed so far.
    ///
    /// A reclassification that falls due is deferred: it settles the one
    /// before it (through `scratch`) and records where its own window ends.
    /// Call [`settle`](Self::settle) to compute it now.
    pub fn push(&mut self, history: &[f64], scratch: &mut SpectrumScratch) -> DiurnalClass {
        self.rounds_seen += 1;
        self.since_classify += 1;
        if history.len() >= self.cfg.window_rounds
            && self.since_classify >= self.cfg.reclassify_every
        {
            self.since_classify = 0;
            self.settle(history, scratch);
            self.due_end = Some(history.len());
        }
        self.class
    }

    /// Computes the deferred verdict, if one is due, inline: its window is
    /// screened, and a window that passes is transformed through the
    /// cached plan into `scratch` and classified. `history` is the one
    /// given to [`push`](Self::push), possibly longer since.
    pub fn settle(&mut self, history: &[f64], scratch: &mut SpectrumScratch) {
        if let Some(window) = self.screen_due(history) {
            let window = &history[window];
            let plan = plan_for(window.len());
            self.classify_due(scratch.compute_with_plan(window, self.cfg.sample_period, &plan));
        }
    }

    /// The first half of settling: screens the due verdict's window. A
    /// window the screen rejects settles here, as non-diurnal; one that
    /// passes is returned (as a range of `history`) for its spectrum,
    /// which [`classify_due`](Self::classify_due) takes. `None` when no
    /// verdict is due.
    pub(crate) fn screen_due(&mut self, history: &[f64]) -> Option<Range<usize>> {
        let end = self.due_end?;
        let window = end - self.cfg.window_rounds..end;
        if self.cfg.screen_threshold > 0.0
            && diurnal_energy_ratio(&history[window.clone()], self.cfg.sample_period)
                < self.cfg.screen_threshold
        {
            self.due_end = None;
            self.screens_skipped += 1;
            self.apply_verdict(DiurnalClass::NonDiurnal, None);
            return None;
        }
        Some(window)
    }

    /// The second half of settling: the due verdict from the spectrum of
    /// the window [`screen_due`](Self::screen_due) returned, sampled every
    /// `sample_period` seconds of this detector's config.
    pub(crate) fn classify_due(&mut self, spectrum: &Spectrum) {
        debug_assert!(self.due_end.is_some(), "no verdict is due");
        self.due_end = None;
        let report = classify(spectrum, &self.cfg.diurnal);
        self.classifications += 1;
        self.apply_verdict(report.class, report.phase);
    }

    /// Applies hysteresis: a change must repeat `hysteresis` times in a row
    /// before it becomes the public classification.
    fn apply_verdict(&mut self, raw_class: DiurnalClass, raw_phase: Option<f64>) {
        if raw_class == self.class {
            self.pending = None;
            self.phase = raw_phase.or(self.phase);
            return;
        }
        let needed = self.cfg.hysteresis.max(1);
        let count = match self.pending {
            Some((c, n)) if c == raw_class => n + 1,
            _ => 1,
        };
        if count >= needed {
            self.class = raw_class;
            self.phase = raw_phase;
            self.pending = None;
        } else {
            self.pending = Some((raw_class, count));
        }
    }

    /// The verdict as of the reclassifications computed so far (a due
    /// one waits for [`settle`](Self::settle) or the next due round).
    pub fn class(&self) -> DiurnalClass {
        self.class
    }

    /// Phase of the daily component, when diurnal.
    pub fn phase(&self) -> Option<f64> {
        self.phase
    }

    /// `true` once a full window of rounds has been pushed.
    #[cfg(test)]
    fn warmed_up(&self) -> bool {
        self.rounds_seen >= self.cfg.window_rounds as u64
    }

    /// Rounds ingested.
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Full FFT classifications computed (cost accounting).
    pub fn classifications(&self) -> u64 {
        self.classifications
    }

    /// Re-classifications avoided by the Goertzel screen.
    pub fn screens_skipped(&self) -> u64 {
        self.screens_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RPD: f64 = 86_400.0 / 660.0;

    fn diurnal_value(round: usize) -> f64 {
        let frac = (round as f64 / RPD).fract();
        if frac < 0.4 {
            0.8
        } else {
            0.2
        }
    }

    /// The caller's half of a push: append the newest value to the
    /// history, let the detector read it, and settle a verdict that fell
    /// due at once.
    fn feed(det: &mut OnlineDetector, history: &mut Vec<f64>, a_short: f64) -> DiurnalClass {
        let mut scratch = SpectrumScratch::new();
        history.push(a_short);
        det.push(history, &mut scratch);
        det.settle(history, &mut scratch);
        det.class()
    }

    fn small_cfg() -> OnlineConfig {
        OnlineConfig {
            window_rounds: (7.0 * RPD) as usize,
            reclassify_every: 50,
            ..Default::default()
        }
    }

    #[test]
    fn detects_diurnal_after_warmup() {
        let mut det = OnlineDetector::new(small_cfg());
        let mut history = Vec::new();
        let mut first_detection = None;
        for r in 0..(10.0 * RPD) as usize {
            let class = feed(&mut det, &mut history, diurnal_value(r));
            if class.is_strict() && first_detection.is_none() {
                first_detection = Some(r);
            }
        }
        let at = first_detection.expect("diurnal block detected");
        assert!(det.warmed_up());
        // Detection within one reclassify interval of window fill.
        assert!(at <= (7.0 * RPD) as usize + 51, "detected at {at}");
    }

    #[test]
    fn flat_stream_never_classifies_and_skips_ffts() {
        let mut det = OnlineDetector::new(small_cfg());
        let mut history = Vec::new();
        for r in 0..(10.0 * RPD) as usize {
            let noise = ((r as f64 * 12.9898).sin() * 43_758.545_3).fract() * 0.05;
            assert_eq!(feed(&mut det, &mut history, 0.6 + noise), DiurnalClass::NonDiurnal);
        }
        assert!(det.screens_skipped() > 0, "screen should fire");
        assert_eq!(det.classifications(), 0, "no full FFT needed for flat blocks");
    }

    #[test]
    fn behavior_change_flips_the_verdict() {
        // Diurnal for 10 days, then permanently flat: the verdict must
        // decay back to NonDiurnal once the window slides past the change.
        let mut det = OnlineDetector::new(small_cfg());
        let mut history = Vec::new();
        let change = (10.0 * RPD) as usize;
        for r in 0..change {
            feed(&mut det, &mut history, diurnal_value(r));
        }
        assert!(det.class().is_diurnal(), "diurnal before the change");
        for r in change..change + (9.0 * RPD) as usize {
            feed(&mut det, &mut history, 0.6 + 0.02 * ((r % 7) as f64));
        }
        assert_eq!(det.class(), DiurnalClass::NonDiurnal, "verdict follows behaviour");
    }

    #[test]
    fn no_verdict_before_warmup() {
        let mut det = OnlineDetector::new(small_cfg());
        let mut history = Vec::new();
        for r in 0..100 {
            assert_eq!(feed(&mut det, &mut history, diurnal_value(r)), DiurnalClass::NonDiurnal);
        }
        assert!(!det.warmed_up());
        assert_eq!(det.classifications(), 0);
    }

    #[test]
    fn screen_can_be_disabled() {
        let mut cfg = small_cfg();
        cfg.screen_threshold = 0.0;
        let mut det = OnlineDetector::new(cfg);
        let mut history = Vec::new();
        for _ in 0..(8.0 * RPD) as usize {
            feed(&mut det, &mut history, 0.5);
        }
        assert!(det.classifications() > 0, "without the screen every pass FFTs");
    }

    #[test]
    fn phase_is_available_when_diurnal() {
        let mut det = OnlineDetector::new(small_cfg());
        let mut history = Vec::new();
        for r in 0..(9.0 * RPD) as usize {
            feed(&mut det, &mut history, diurnal_value(r));
        }
        assert!(det.class().is_diurnal());
        assert!(det.phase().is_some());
    }

    #[test]
    fn hysteresis_suppresses_single_round_flaps() {
        // Raw verdicts: N, R, N, R, R, R — with hysteresis 2 the public
        // class only changes once the verdict repeats.
        let mut det = OnlineDetector::new(OnlineConfig {
            window_rounds: 8,
            hysteresis: 2,
            ..Default::default()
        });
        use DiurnalClass::*;
        det.apply_verdict(Relaxed, Some(0.1));
        assert_eq!(det.class(), NonDiurnal, "first flap suppressed");
        det.apply_verdict(NonDiurnal, None);
        det.apply_verdict(Relaxed, Some(0.1));
        assert_eq!(det.class(), NonDiurnal, "counter reset by the revert");
        det.apply_verdict(Relaxed, Some(0.2));
        assert_eq!(det.class(), Relaxed, "two in a row switch the verdict");
        assert_eq!(det.phase(), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "window too small")]
    fn rejects_tiny_window() {
        let _ = OnlineDetector::new(OnlineConfig { window_rounds: 2, ..Default::default() });
    }

    /// Feeds a raw-verdict sequence through the hysteresis filter and
    /// returns the rounds-between-flips of the public classification.
    fn flip_gaps(hysteresis: u32, raw: &[DiurnalClass]) -> Vec<usize> {
        let mut det = OnlineDetector::new(OnlineConfig {
            window_rounds: 8,
            hysteresis,
            ..Default::default()
        });
        let mut last_class = det.class();
        let mut last_flip = 0usize;
        let mut gaps = Vec::new();
        for (i, &c) in raw.iter().enumerate() {
            det.apply_verdict(c, None);
            if det.class() != last_class {
                gaps.push(i - last_flip);
                last_flip = i;
                last_class = det.class();
            }
        }
        gaps
    }

    #[test]
    fn verdicts_never_flap_faster_than_the_hysteresis_window() {
        use DiurnalClass::*;
        // A block flipping diurnal → flat → diurnal, with single-round
        // noise sprinkled in: adversarial input for the filter.
        let mut raw = Vec::new();
        raw.extend(std::iter::repeat(Strict).take(10));
        raw.push(NonDiurnal); // one-round dropout
        raw.extend(std::iter::repeat(Strict).take(5));
        raw.extend(std::iter::repeat(NonDiurnal).take(10));
        raw.push(Strict); // one-round blip
        raw.extend(std::iter::repeat(NonDiurnal).take(5));
        raw.extend(std::iter::repeat(Strict).take(10));
        for h in [2u32, 3, 5] {
            let gaps = flip_gaps(h, &raw);
            // After the first flip, consecutive public flips must be at
            // least the hysteresis window apart: a change needs h
            // consecutive identical raw verdicts to take effect.
            for &g in gaps.iter().skip(1) {
                assert!(g >= h as usize, "hysteresis {h}: public class flipped after {g} rounds");
            }
        }
    }

    #[test]
    fn single_round_flips_are_invisible_above_hysteresis_one() {
        use DiurnalClass::*;
        // Strictly alternating raw verdicts: with hysteresis ≥ 2 the
        // public class must never move at all.
        let raw: Vec<DiurnalClass> =
            (0..40).map(|i| if i % 2 == 0 { Strict } else { NonDiurnal }).collect();
        assert!(flip_gaps(2, &raw).is_empty(), "alternating verdicts leaked through");
        // With hysteresis 1 the same stream flaps constantly — the
        // difference is exactly what the filter is for.
        assert!(flip_gaps(1, &raw).len() > 10);
    }

    #[test]
    fn hysteresis_delays_but_does_not_lose_real_changes() {
        use DiurnalClass::*;
        let mut raw = Vec::new();
        raw.extend(std::iter::repeat(Strict).take(8));
        raw.extend(std::iter::repeat(NonDiurnal).take(8));
        raw.extend(std::iter::repeat(Strict).take(8));
        let mut det = OnlineDetector::new(OnlineConfig {
            window_rounds: 8,
            hysteresis: 3,
            ..Default::default()
        });
        let mut classes = Vec::new();
        for &c in &raw {
            det.apply_verdict(c, if c == Strict { Some(0.3) } else { None });
            classes.push(det.class());
        }
        // All three phases eventually surface...
        assert_eq!(classes[7], Strict);
        assert_eq!(classes[15], NonDiurnal);
        assert_eq!(classes[23], Strict);
        // ...each exactly hysteresis−1 verdicts late (the change lands on
        // the 3rd consecutive new verdict).
        assert_eq!(classes[8 + 1], Strict, "still old class one verdict in");
        assert_eq!(classes[8 + 2], NonDiurnal, "flips on the 3rd new verdict");
    }

    /// The detector before deferral: a due verdict is computed the moment
    /// it falls due, through the allocating, unplanned `Spectrum::compute`.
    fn push_inline(det: &mut OnlineDetector, history: &[f64]) {
        det.rounds_seen += 1;
        det.since_classify += 1;
        let window = det.cfg.window_rounds;
        if history.len() >= window && det.since_classify >= det.cfg.reclassify_every {
            det.since_classify = 0;
            let series = &history[history.len() - window..];
            if det.cfg.screen_threshold > 0.0
                && diurnal_energy_ratio(series, det.cfg.sample_period) < det.cfg.screen_threshold
            {
                det.screens_skipped += 1;
                det.apply_verdict(DiurnalClass::NonDiurnal, None);
            } else {
                let report =
                    classify(&Spectrum::compute(series, det.cfg.sample_period), &det.cfg.diurnal);
                det.classifications += 1;
                det.apply_verdict(report.class, report.phase);
            }
        }
    }

    /// What a detector reports, phase as bits.
    fn observed(det: &OnlineDetector) -> (DiurnalClass, Option<u64>, u64, u64) {
        (det.class(), det.phase().map(f64::to_bits), det.classifications(), det.screens_skipped())
    }

    /// A deferred detector, settled after any round, reports exactly what
    /// the inline one does after that round: same class, phase bits and
    /// cost counters, hysteresis applied in the same order.
    #[test]
    fn deferred_verdicts_match_inline_ones_after_every_round() {
        for window in [4usize, 50, 1_833] {
            // The window spans five days, so its daily bin is in range.
            let per_day = window as f64 / 5.0;
            let sample_period = 86_400.0 / per_day;
            let span = if window == 1_833 { window + 135 } else { 4 * window + 300 };
            // Diurnal, then flat noise, then diurnal again: verdicts flip.
            let series: Vec<f64> = (0..span)
                .map(|r| {
                    let noise = ((r as f64 * 12.9898).sin() * 43_758.545_3).fract() * 0.1;
                    let diurnal = if (r as f64 / per_day).fract() < 0.4 { 0.8 } else { 0.2 };
                    match 3 * r / span {
                        1 => 0.5 + noise,
                        _ => diurnal + noise,
                    }
                })
                .collect();
            for every in [1usize, 7, 65] {
                for hysteresis in [1u32, 2, 3] {
                    for screen_threshold in [2.0, 0.0] {
                        let cfg = OnlineConfig {
                            window_rounds: window,
                            reclassify_every: every,
                            screen_threshold,
                            sample_period,
                            hysteresis,
                            ..Default::default()
                        };
                        let tag = format!("window {window}, every {every}, hysteresis {hysteresis}, screen {screen_threshold}");
                        let (mut inline, mut deferred) =
                            (OnlineDetector::new(cfg), OnlineDetector::new(cfg));
                        let mut scratch = SpectrumScratch::new();
                        // Settling reads only the detector's state and the
                        // append-only history up to `due_end`, so a clone is
                        // settled again only when that state moved.
                        let mut settled = None;
                        for end in 1..=span {
                            let history = &series[..end];
                            push_inline(&mut inline, history);
                            deferred.push(history, &mut scratch);
                            let state = (deferred.due_end, observed(&deferred));
                            if settled.as_ref().map(|(s, _)| s) != Some(&state) {
                                let mut clone = deferred.clone();
                                clone.settle(history, &mut scratch);
                                settled = Some((state, observed(&clone)));
                            }
                            let now = settled.as_ref().map(|(_, o)| *o);
                            assert_eq!(now, Some(observed(&inline)), "{tag}, round {end}");
                        }
                        assert!(inline.classifications() + inline.screens_skipped() > 0, "{tag}");
                    }
                }
            }
        }
    }

    /// A due verdict is computed once: settling twice, or settling with
    /// nothing due, changes nothing.
    #[test]
    fn settling_computes_a_due_verdict_once() {
        let cfg = small_cfg();
        let mut det = OnlineDetector::new(cfg);
        let mut history = Vec::new();
        let mut scratch = SpectrumScratch::new();
        for r in 0..cfg.window_rounds {
            history.push(diurnal_value(r));
            det.push(&history, &mut scratch);
        }
        assert_eq!(
            observed(&det),
            (DiurnalClass::NonDiurnal, None, 0, 0),
            "deferred, not computed"
        );
        det.settle(&history, &mut scratch);
        let once = observed(&det);
        assert_eq!(once.2, 1, "one classification");
        assert!(once.0.is_strict());
        det.settle(&history, &mut scratch);
        assert_eq!(observed(&det), once);
    }

    #[test]
    fn end_to_end_flap_rate_is_bounded_on_flipping_input() {
        // Full detector path (window + reclassify + hysteresis): a block
        // that is diurnal for 10 days, flat for 10, diurnal for 10 again
        // must produce at most a handful of public transitions — never a
        // flap per reclassification.
        let cfg = OnlineConfig { hysteresis: 2, ..small_cfg() };
        let reclassify = cfg.reclassify_every;
        let mut det = OnlineDetector::new(cfg);
        let mut history = Vec::new();
        let phase_len = (10.0 * RPD) as usize;
        let mut flips = Vec::new();
        let mut last = det.class();
        for r in 0..3 * phase_len {
            let v = match r / phase_len {
                0 | 2 => diurnal_value(r),
                _ => 0.55,
            };
            feed(&mut det, &mut history, v);
            if det.class() != last {
                flips.push(r);
                last = det.class();
            }
        }
        assert!(
            (2..=6).contains(&flips.len()),
            "expected a few genuine transitions, saw {} at {flips:?}",
            flips.len()
        );
        // Consecutive flips are at least hysteresis reclassification
        // periods apart.
        for w in flips.windows(2) {
            assert!(
                w[1] - w[0] >= 2 * reclassify,
                "public flips {} and {} closer than the hysteresis window",
                w[0],
                w[1]
            );
        }
    }
}
