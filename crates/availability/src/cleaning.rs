//! Timeseries cleaning for spectral analysis (§2.2, "Data cleaning").
//!
//! Spectral analysis needs an evenly sampled series, but probing output is
//! not perfectly aligned with 11-minute rounds: about 5 % of rounds carry a
//! missing or duplicate observation. Like the paper (and the outage work it
//! builds on), this module:
//!
//! * keeps the *most recent* observation when a round has duplicates;
//! * extrapolates missing rounds from the previous estimate;
//! * trims the series to start and end near midnight UTC, tying phase to
//!   physical time and reducing FFT noise at diurnal frequencies.

/// Seconds per day.
const DAY_SECONDS: u64 = 86_400;

/// Buckets raw `(round, value)` observations into a dense per-round array.
/// Duplicate rounds: the later observation in input order wins (the paper
/// "trusts the most recent observation"). Rounds never observed are `None`.
/// Observations at `round >= n_rounds` are dropped.
pub fn bucket_rounds(obs: &[(u64, f64)], n_rounds: usize) -> Vec<Option<f64>> {
    let mut out = vec![None; n_rounds];
    for &(round, value) in obs {
        if (round as usize) < n_rounds {
            out[round as usize] = Some(value);
        }
    }
    out
}

/// Fills gaps by extrapolating from the previous observation. Leading gaps
/// take the first available value; an all-`None` series fills with 0.
///
/// Returns the dense series plus the number of filled samples (so callers
/// can reject series that were mostly interpolation).
pub fn fill_gaps(sparse: &[Option<f64>]) -> (Vec<f64>, usize) {
    let first = sparse.iter().flatten().copied().next().unwrap_or(0.0);
    let mut filled = 0usize;
    let mut last = first;
    let dense = sparse
        .iter()
        .map(|v| match v {
            Some(x) => {
                last = *x;
                *x
            }
            None => {
                filled += 1;
                last
            }
        })
        .collect();
    (dense, filled)
}

/// The sample-index range `[start, end)` that trims a series beginning at
/// `start_time` (unix seconds, sampled every `sample_seconds`) to whole
/// days: the first sample at or after the first midnight UTC, through the
/// last sample before the final midnight.
///
/// Returns an empty range when the series doesn't span a full day.
pub fn midnight_trim(start_time: u64, len: usize, sample_seconds: u64) -> std::ops::Range<usize> {
    assert!(sample_seconds > 0);
    let first_midnight = start_time.div_ceil(DAY_SECONDS) * DAY_SECONDS;
    let start_idx = (first_midnight - start_time).div_ceil(sample_seconds) as usize;
    if start_idx >= len {
        return 0..0;
    }
    let end_time = start_time + (len as u64 - 1) * sample_seconds;
    let last_midnight = (end_time / DAY_SECONDS) * DAY_SECONDS;
    if last_midnight <= first_midnight {
        return 0..0;
    }
    // Last sample strictly before the final midnight, end-exclusive.
    let end_idx = ((last_midnight - start_time - 1) / sample_seconds + 1) as usize;
    start_idx..end_idx.min(len)
}

/// One-call pipeline: bucket, fill, trim. Returns the cleaned series and
/// the fraction of samples that were interpolated.
pub fn clean_series(
    obs: &[(u64, f64)],
    n_rounds: usize,
    start_time: u64,
    sample_seconds: u64,
) -> (Vec<f64>, f64) {
    let mut scratch = CleanScratch::new();
    let mut out = Vec::new();
    let fill_frac =
        clean_series_into(obs, n_rounds, start_time, sample_seconds, &mut scratch, &mut out);
    (out, fill_frac)
}

/// Reusable workspace for [`clean_series_into`]. Grow-only: buffers are
/// cleared between blocks but keep their capacity, so a steady stream of
/// same-sized blocks cleans without touching the allocator.
#[derive(Debug, Default)]
pub struct CleanScratch {
    sparse: Vec<Option<f64>>,
}

impl CleanScratch {
    /// An empty workspace; the first use sizes it.
    pub fn new() -> Self {
        CleanScratch::default()
    }

    /// Bytes currently reserved, capacity not length.
    pub fn footprint_bytes(&self) -> usize {
        self.sparse.capacity() * std::mem::size_of::<Option<f64>>()
    }

    /// Test-only: fill the workspace with garbage that a correct
    /// [`clean_series_into`] must fully overwrite or ignore.
    #[doc(hidden)]
    pub fn poison(&mut self, seed: u64) {
        self.sparse.clear();
        self.sparse.extend((0..113u64).map(|i| {
            if i % 3 == 0 {
                None
            } else {
                Some(f64::NAN + seed as f64)
            }
        }));
    }
}

/// [`clean_series`] writing into caller-provided buffers — the
/// zero-allocation steady-state path. `out` is cleared and receives the
/// trimmed series; the return value is the fill fraction. Output is
/// byte-identical to [`clean_series`] regardless of prior scratch/`out`
/// contents.
///
/// Observations that are exactly rounds `0..n_rounds` in order — every
/// fault-free run, every ingest lane that streamed in order — take a
/// dense path: nothing to bucket and nothing to fill, so the series is
/// the trimmed slice of the values and the workspace is not touched. The
/// sparse path would give the same bits: every slot `Some`, none filled.
pub fn clean_series_into(
    obs: &[(u64, f64)],
    n_rounds: usize,
    start_time: u64,
    sample_seconds: u64,
    scratch: &mut CleanScratch,
    out: &mut Vec<f64>,
) -> f64 {
    let gapless =
        obs.len() == n_rounds && obs.iter().zip(0u64..).all(|(&(round, _), i)| round == i);
    clean_with(obs, n_rounds, start_time, sample_seconds, gapless, scratch, out)
}

/// [`clean_series_into`] with the path chosen by the caller: `gapless`
/// takes the dense path, which is only right for observations that are
/// exactly rounds `0..n_rounds` in order.
fn clean_with(
    obs: &[(u64, f64)],
    n_rounds: usize,
    start_time: u64,
    sample_seconds: u64,
    gapless: bool,
    scratch: &mut CleanScratch,
    out: &mut Vec<f64>,
) -> f64 {
    let range = midnight_trim(start_time, n_rounds, sample_seconds);
    out.clear();
    out.reserve(range.len());
    let filled = if gapless {
        out.extend(obs[range].iter().map(|&(_, value)| value));
        0
    } else {
        bucket_fill_trim(obs, n_rounds, range, &mut scratch.sparse, out)
    };
    let fill_frac = if n_rounds > 0 { filled as f64 / n_rounds as f64 } else { 0.0 };
    let obs_reg = sleepwatch_obs::global();
    if obs_reg.cleaning.series_cleaned.enabled() {
        obs_reg.cleaning.series_cleaned.incr();
        obs_reg.cleaning.samples_out.add(out.len() as u64);
        obs_reg.cleaning.samples_filled.add(filled as u64);
        obs_reg.cleaning.fill_fraction.record(fill_frac);
    }
    fill_frac
}

/// The sparse path of [`clean_series_into`]: buckets `obs` into `sparse`
/// (the latest observation of a round wins), then fills gaps and trims to
/// `range` into `out` in one walk. Returns the number of filled rounds,
/// counted over *all* rounds, exactly like `fill_gaps`.
fn bucket_fill_trim(
    obs: &[(u64, f64)],
    n_rounds: usize,
    range: std::ops::Range<usize>,
    sparse: &mut Vec<Option<f64>>,
    out: &mut Vec<f64>,
) -> usize {
    sparse.clear();
    sparse.resize(n_rounds, None);
    for &(round, value) in obs {
        if (round as usize) < n_rounds {
            sparse[round as usize] = Some(value);
        }
    }
    let first = sparse.iter().flatten().copied().next().unwrap_or(0.0);
    let mut filled = 0usize;
    let mut last = first;
    for (i, v) in sparse.iter().enumerate() {
        let dense = match v {
            Some(x) => {
                last = *x;
                *x
            }
            None => {
                filled += 1;
                last
            }
        };
        if range.contains(&i) {
            out.push(dense);
        }
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sleepwatch_obs::Snapshot;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that clean, so each one's `cleaning.*` delta
    /// is its own.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What one clean produced and recorded: the series' bits, the fill
    /// fraction's bits and the four `cleaning.*` deltas.
    type Cleaned = (Vec<u64>, u64, [u64; 3], Option<sleepwatch_obs::HistogramSnapshot>);

    fn cleaned(clean: impl FnOnce(&mut Vec<f64>) -> f64) -> Cleaned {
        let before = Snapshot::capture(sleepwatch_obs::global());
        let mut out = vec![f64::NAN; 3];
        let frac = clean(&mut out);
        let d = Snapshot::capture(sleepwatch_obs::global()).delta(&before);
        let counts = ["series_cleaned", "samples_out", "samples_filled"]
            .map(|k| d.counter(&format!("cleaning.{k}")));
        let hist = d.histogram("cleaning.fill_fraction").copied();
        (out.iter().map(|v| v.to_bits()).collect(), frac.to_bits(), counts, hist)
    }

    /// An observation list: rounds `0..n` in order with keyed values, then
    /// `mangle` applied — 0 keeps it gapless, 1 drops a round, 2
    /// duplicates one, 3 swaps an adjacent pair.
    fn observations(n: usize, mangle: u8, at: usize, salt: u64) -> Vec<(u64, f64)> {
        let mut obs: Vec<(u64, f64)> = (0..n as u64)
            .map(|r| (r, ((r ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / 2e15))
            .collect();
        if n > 1 {
            let at = at % (n - 1);
            match mangle {
                1 => {
                    obs.remove(at);
                }
                2 => obs.insert(at + 1, (obs[at].0, -1.0 - obs[at].1)),
                3 => obs.swap(at, at + 1),
                _ => {}
            }
        }
        obs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense path is the sparse path on gapless in-order input,
        /// and any other input gets the sparse path's result: same series
        /// bits, same fill fraction, same `cleaning.*` deltas.
        #[test]
        fn dense_clean_matches_sparse_clean(
            n in 0usize..700,
            short in any::<bool>(),
            mangle in 0u8..4,
            at in 0usize..700,
            salt in any::<u64>(),
            start in 0u64..200_000,
            a12w in any::<bool>(),
        ) {
            // One case in two of length 0–2, so the empty list comes up.
            let n = if short { n % 3 } else { n };
            let start = if a12w { 1_366_823_880 + start } else { start };
            let _g = lock();
            let obs = observations(n, mangle, at, salt);
            let mut scratch = CleanScratch::new();
            scratch.poison(salt);
            let sparse = cleaned(|out| clean_with(&obs, n, start, 660, false, &mut scratch, out));
            let got = cleaned(|out| clean_series_into(&obs, n, start, 660, &mut scratch, out));
            prop_assert_eq!(&got, &sparse);
            prop_assert_eq!(got.2[0], u64::from(sleepwatch_obs::global_enabled()));
        }
    }

    #[test]
    fn bucketing_places_and_drops() {
        let obs = [(0u64, 0.1), (2, 0.3), (9, 0.9), (100, 0.5)];
        let b = bucket_rounds(&obs, 10);
        assert_eq!(b[0], Some(0.1));
        assert_eq!(b[1], None);
        assert_eq!(b[2], Some(0.3));
        assert_eq!(b[9], Some(0.9));
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn duplicates_keep_most_recent() {
        let obs = [(3u64, 0.2), (3, 0.8)];
        let b = bucket_rounds(&obs, 5);
        assert_eq!(b[3], Some(0.8));
    }

    #[test]
    fn gaps_filled_from_previous() {
        let sparse = vec![Some(0.5), None, None, Some(0.9), None];
        let (dense, filled) = fill_gaps(&sparse);
        assert_eq!(dense, vec![0.5, 0.5, 0.5, 0.9, 0.9]);
        assert_eq!(filled, 3);
    }

    #[test]
    fn leading_gap_takes_first_value() {
        let sparse = vec![None, None, Some(0.4), Some(0.6)];
        let (dense, filled) = fill_gaps(&sparse);
        assert_eq!(dense, vec![0.4, 0.4, 0.4, 0.6]);
        assert_eq!(filled, 2);
    }

    #[test]
    fn empty_series_fills_zero() {
        let (dense, filled) = fill_gaps(&[None, None]);
        assert_eq!(dense, vec![0.0, 0.0]);
        assert_eq!(filled, 2);
    }

    #[test]
    fn midnight_trim_aligned_start() {
        // Start exactly at midnight, 3 days of 11-minute rounds.
        let start = 1_353_024_000; // 2012-11-16 00:00 UTC
        assert_eq!(start % DAY_SECONDS, 0);
        // 393 samples end at 392·660 = 258 720 s — just short of the day-3
        // midnight, so only two whole days survive the trim.
        let len = 3 * 131;
        let r = midnight_trim(start, len, 660);
        assert_eq!(r.start, 0, "already aligned");
        let expect_end = (2 * DAY_SECONDS - 1) / 660 + 1; // 262
        assert_eq!(r.end, expect_end as usize);
    }

    #[test]
    fn midnight_trim_unaligned_start() {
        // The A12w start: 2013-04-24 17:18 UTC.
        let start = 1_366_823_880u64;
        let len = 4_582; // 35 days
        let r = midnight_trim(start, len, 660);
        // First sample must land at or just after a midnight.
        let t0 = start + r.start as u64 * 660;
        assert!(t0 % DAY_SECONDS < 660, "start lands {} s after midnight", t0 % DAY_SECONDS);
        // Last sample strictly before a midnight.
        let t_last = start + (r.end as u64 - 1) * 660;
        assert!(DAY_SECONDS - (t_last % DAY_SECONDS) <= 660);
        // Roughly 34 whole days survive.
        let days = (r.len() as f64 * 660.0) / DAY_SECONDS as f64;
        assert!(days > 33.0 && days < 35.0, "{days} days kept");
    }

    #[test]
    fn midnight_trim_too_short_is_empty() {
        // 10 rounds ≈ 2 hours: spans no midnight pair.
        let r = midnight_trim(1_366_823_880, 10, 660);
        assert!(r.is_empty());
        // Exactly one midnight spanned but not two.
        let r = midnight_trim(86_000, 200, 660); // ~36 hours from 23:53
        assert!(r.is_empty() || r.len() * 660 >= DAY_SECONDS as usize);
    }

    #[test]
    fn clean_series_end_to_end() {
        let _g = lock();
        let start = 0u64; // midnight
        let n = 131 * 2 + 10; // just over 2 days
                              // Observe every round except a few, with one duplicate.
        let mut obs: Vec<(u64, f64)> = (0..n as u64).map(|r| (r, 0.5)).collect();
        obs.remove(50);
        obs.remove(90);
        obs.push((7, 0.9)); // later duplicate wins
        let (series, fill_frac) = clean_series(&obs, n, start, 660);
        assert!(!series.is_empty());
        assert!(fill_frac > 0.0 && fill_frac < 0.05);
        assert_eq!(series[7], 0.9);
        // Trimmed to whole days: ends right before day-2 midnight.
        let expect_len = (2 * DAY_SECONDS - 1) / 660 + 1;
        assert_eq!(series.len(), expect_len as usize);
    }

    #[test]
    fn clean_series_into_matches_allocating_path() {
        let _g = lock();
        let start = 1_366_823_880u64;
        let n = 131 * 5;
        let obs: Vec<(u64, f64)> =
            (0..n as u64).filter(|r| r % 17 != 4).map(|r| (r, (r as f64).sin())).collect();
        let (want, want_frac) = clean_series(&obs, n, start, 660);
        let mut scratch = CleanScratch::new();
        scratch.poison(99);
        let mut out = vec![f64::NAN; 7];
        let frac = clean_series_into(&obs, n, start, 660, &mut scratch, &mut out);
        assert_eq!(out, want);
        assert_eq!(frac.to_bits(), want_frac.to_bits());
        // Reuse on a different series also matches.
        let obs2: Vec<(u64, f64)> = (0..n as u64 / 2).map(|r| (r, 0.25)).collect();
        let (want2, _) = clean_series(&obs2, n / 2, start, 660);
        clean_series_into(&obs2, n / 2, start, 660, &mut scratch, &mut out);
        assert_eq!(out, want2);
    }

    #[test]
    fn clean_series_five_percent_gaps_like_paper() {
        let _g = lock();
        let start = 0u64;
        let n = 131 * 14;
        let obs: Vec<(u64, f64)> =
            (0..n as u64).filter(|r| r % 20 != 13).map(|r| (r, 0.4)).collect();
        let (series, fill_frac) = clean_series(&obs, n, start, 660);
        assert!((fill_frac - 0.05).abs() < 0.01, "fill fraction {fill_frac}");
        assert!(series.iter().all(|&v| v == 0.4));
    }
}
