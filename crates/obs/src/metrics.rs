//! Lock-free metric primitives: counters, monotonic gauges, fixed-bucket
//! histograms and a small per-length count table.
//!
//! Every primitive is `const`-constructible (so registries can live in
//! `static`s) and carries a plain `on: bool` captured at construction.
//! When `on` is `false` the recording methods return before touching any
//! atomic, which is what makes [`crate::Registry::disabled`] free on the
//! hot path. With the crate feature `off` that test is the constant
//! `false`, so the recording bodies are dead code the compiler drops.
//!
//! All atomics use `Relaxed` ordering: metrics are monotone accumulators
//! read at synchronisation points (end of run), never used for
//! inter-thread coordination.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of buckets in every [`Histogram`].
pub(crate) const BUCKETS: usize = 32;

/// Number of slots in a [`LengthCounts`] table.
pub(crate) const LENGTH_SLOTS: usize = 32;

// A `const` (not `static`) on purpose: it is the `[ZERO; N]` array
// initializer — each use site gets its own fresh atomic, never a shared
// one, which is exactly the interior-mutability hazard the lint guards
// against.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// A monotonically increasing event counter.
pub struct Counter {
    on: bool,
    v: AtomicU64,
}

impl Counter {
    /// Creates a counter that records only when `on` is true.
    pub(crate) const fn new(on: bool) -> Self {
        Counter { on, v: ZERO }
    }

    /// True when this counter records (i.e. it belongs to an enabled
    /// registry and the crate was not built with the `off` feature).
    #[inline]
    pub fn enabled(&self) -> bool {
        !cfg!(feature = "off") && self.on
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled() {
            self.v.fetch_add(n, Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

/// A gauge that only moves upward (`fetch_max`), e.g. high-water marks.
pub struct Gauge {
    on: bool,
    v: AtomicU64,
}

impl Gauge {
    /// Creates a gauge that records only when `on` is true.
    pub(crate) const fn new(on: bool) -> Self {
        Gauge { on, v: ZERO }
    }

    /// Raises the gauge to `v` if `v` exceeds the current value.
    #[inline]
    pub fn raise(&self, v: u64) {
        if !cfg!(feature = "off") && self.on {
            self.v.fetch_max(v, Relaxed);
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

/// Bucketing scheme for a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Buckets {
    /// 32 equal-width buckets spanning `[lo, hi]`; values outside the
    /// range clamp to the first/last bucket.
    Linear {
        /// Lower edge of the first bucket.
        lo: f64,
        /// Upper edge of the last bucket.
        hi: f64,
    },
    /// Power-of-two buckets for microsecond durations: bucket `i` holds
    /// values in `[2^(i-1), 2^i)` µs, so 32 buckets cover ~35 minutes.
    Log2Micros,
}

impl Buckets {
    /// Bucket index for `value` under this scheme.
    fn index(self, value: f64) -> usize {
        match self {
            Buckets::Linear { lo, hi } => {
                if hi <= lo || value.is_nan() || value <= lo {
                    return 0;
                }
                let frac = (value - lo) / (hi - lo);
                ((frac * BUCKETS as f64) as usize).min(BUCKETS - 1)
            }
            Buckets::Log2Micros => {
                let micros = if value < 1.0 { 0u64 } else { value as u64 };
                (64 - micros.leading_zeros() as usize).min(BUCKETS - 1)
            }
        }
    }

    /// Inclusive upper edge of bucket `i`, in the recorded unit.
    pub(crate) fn upper_edge(self, i: usize) -> f64 {
        match self {
            Buckets::Linear { lo, hi } => lo + (hi - lo) * (i as f64 + 1.0) / BUCKETS as f64,
            Buckets::Log2Micros => {
                if i == 0 {
                    0.0
                } else {
                    (1u64 << i.min(63)) as f64
                }
            }
        }
    }
}

/// A lock-free fixed-bucket histogram.
///
/// Tracks a total count, a fixed-point sum (micro-units: the recorded
/// value × 10⁶, rounded) and 32 bucket counts under the scheme chosen at
/// construction. Bucket increments and the sum are separate relaxed
/// atomics, so concurrent snapshots may observe a sum/count pair mid-update;
/// snapshots taken at quiescent points (as [`crate::Snapshot`] does) are exact.
pub struct Histogram {
    on: bool,
    scheme: Buckets,
    count: AtomicU64,
    /// Sum of recorded values in micro-units (value × 1e6).
    sum_micros: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// Creates a histogram with the given bucketing scheme.
    pub const fn new(on: bool, scheme: Buckets) -> Self {
        Histogram { on, scheme, count: ZERO, sum_micros: ZERO, buckets: [ZERO; BUCKETS] }
    }

    /// True when this histogram records.
    #[inline]
    pub fn enabled(&self) -> bool {
        !cfg!(feature = "off") && self.on
    }

    /// Records one observation of `value` (in the scheme's unit).
    #[inline]
    pub fn record(&self, value: f64) {
        if self.enabled() {
            let v = if value.is_finite() && value > 0.0 { value } else { 0.0 };
            self.count.fetch_add(1, Relaxed);
            self.sum_micros.fetch_add((v * 1e6).round() as u64, Relaxed);
            self.buckets[self.scheme.index(v)].fetch_add(1, Relaxed);
        }
    }

    /// Copies the current state out as plain integers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Relaxed);
        }
        HistogramSnapshot {
            scheme: self.scheme,
            count: self.count.load(Relaxed),
            sum_micros: self.sum_micros.load(Relaxed),
            buckets,
        }
    }
}

/// A plain-data copy of a [`Histogram`] at one point in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucketing scheme of the source histogram.
    pub scheme: Buckets,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values in micro-units (value × 1e6).
    pub sum_micros: u64,
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / 1e6 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1): the upper edge of the bucket
    /// holding the q-th observation. Returns 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.scheme.upper_edge(i);
            }
        }
        self.scheme.upper_edge(BUCKETS - 1)
    }

    /// Bucket-wise difference `self - earlier` (saturating).
    pub(crate) fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, dst) in buckets.iter_mut().enumerate() {
            *dst = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        HistogramSnapshot {
            scheme: self.scheme,
            count: self.count.saturating_sub(earlier.count),
            sum_micros: self.sum_micros.saturating_sub(earlier.sum_micros),
            buckets,
        }
    }
}

/// A small lock-free table counting events per integer key (e.g. FFT calls
/// per transform length, blocks analysed per worker thread).
///
/// Open addressing over `LENGTH_SLOTS` slots with CAS claim; keys that
/// do not fit land in an overflow counter so no event is ever dropped.
/// Key 0 is reserved internally (stored as `key + 1`).
pub struct LengthCounts {
    on: bool,
    keys: [AtomicU64; LENGTH_SLOTS],
    counts: [AtomicU64; LENGTH_SLOTS],
    overflow: AtomicU64,
}

impl LengthCounts {
    /// Creates a table that records only when `on` is true.
    pub(crate) const fn new(on: bool) -> Self {
        LengthCounts {
            on,
            keys: [ZERO; LENGTH_SLOTS],
            counts: [ZERO; LENGTH_SLOTS],
            overflow: ZERO,
        }
    }

    /// Adds `n` to the count for `key`.
    #[inline]
    pub fn add(&self, key: usize, n: u64) {
        if !cfg!(feature = "off") && self.on {
            self.add_slow(key as u64 + 1, n);
        }
    }

    /// Adds one to the count for `key`.
    #[inline]
    pub fn incr(&self, key: usize) {
        self.add(key, 1);
    }

    fn add_slow(&self, stored: u64, n: u64) {
        let start = (stored as usize).wrapping_mul(0x9E37_79B9) % LENGTH_SLOTS;
        for probe in 0..LENGTH_SLOTS {
            let i = (start + probe) % LENGTH_SLOTS;
            let k = self.keys[i].load(Relaxed);
            if k == stored {
                self.counts[i].fetch_add(n, Relaxed);
                return;
            }
            if k == 0 {
                match self.keys[i].compare_exchange(0, stored, Relaxed, Relaxed) {
                    Ok(_) => {
                        self.counts[i].fetch_add(n, Relaxed);
                        return;
                    }
                    Err(actual) if actual == stored => {
                        self.counts[i].fetch_add(n, Relaxed);
                        return;
                    }
                    Err(_) => continue,
                }
            }
        }
        self.overflow.fetch_add(n, Relaxed);
    }

    /// Copies the table out as `(key, count)` pairs sorted by key, plus
    /// the overflow count for keys that did not fit.
    pub fn snapshot(&self) -> (Vec<(usize, u64)>, u64) {
        let mut out = Vec::new();
        for (k, c) in self.keys.iter().zip(self.counts.iter()) {
            let key = k.load(Relaxed);
            if key != 0 {
                let n = c.load(Relaxed);
                if n != 0 {
                    out.push((key as usize - 1, n));
                }
            }
        }
        out.sort_unstable();
        (out, self.overflow.load(Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_respects_on_flag() {
        let on = Counter::new(true);
        let off = Counter::new(false);
        on.add(3);
        on.incr();
        off.add(3);
        off.incr();
        assert_eq!(on.get(), if cfg!(feature = "off") { 0 } else { 4 });
        assert_eq!(off.get(), 0);
    }

    #[test]
    fn gauge_is_monotonic() {
        let g = Gauge::new(true);
        g.raise(5);
        g.raise(2);
        if !cfg!(feature = "off") {
            assert_eq!(g.get(), 5);
            g.raise(9);
            assert_eq!(g.get(), 9);
        }
    }

    #[test]
    fn linear_buckets_cover_range() {
        let b = Buckets::Linear { lo: 0.0, hi: 1.0 };
        assert_eq!(b.index(-0.5), 0);
        assert_eq!(b.index(0.0), 0);
        assert_eq!(b.index(0.999), BUCKETS - 1);
        assert_eq!(b.index(2.0), BUCKETS - 1);
        // Monotone in the value.
        let mut last = 0;
        for i in 0..=100 {
            let idx = b.index(i as f64 / 100.0);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn log2_buckets_double() {
        let b = Buckets::Log2Micros;
        assert_eq!(b.index(0.0), 0);
        assert_eq!(b.index(1.0), 1);
        assert_eq!(b.index(2.0), 2);
        assert_eq!(b.index(3.0), 2);
        assert_eq!(b.index(1024.0), 11);
        assert_eq!(b.index(1e18), BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        if cfg!(feature = "off") {
            return;
        }
        let h = Histogram::new(true, Buckets::Linear { lo: 0.0, hi: 1.0 });
        for i in 0..100 {
            h.record(i as f64 / 100.0);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!((s.mean() - 0.495).abs() < 1e-6, "mean {}", s.mean());
        let med = s.quantile(0.5);
        assert!((0.4..=0.6).contains(&med), "median {med}");
        assert!(s.quantile(1.0) >= med);
    }

    #[test]
    fn histogram_delta_subtracts() {
        if cfg!(feature = "off") {
            return;
        }
        let h = Histogram::new(true, Buckets::Log2Micros);
        h.record(10.0);
        let early = h.snapshot();
        h.record(20.0);
        h.record(30.0);
        let d = h.snapshot().delta(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_micros, 50_000_000);
    }

    #[test]
    fn length_counts_accumulate_per_key() {
        if cfg!(feature = "off") {
            return;
        }
        let t = LengthCounts::new(true);
        t.incr(4582);
        t.incr(4582);
        t.add(0, 7);
        t.incr(512);
        let (pairs, overflow) = t.snapshot();
        assert_eq!(pairs, vec![(0, 7), (512, 1), (4582, 2)]);
        assert_eq!(overflow, 0);
    }

    #[test]
    fn length_counts_overflow_never_drops() {
        if cfg!(feature = "off") {
            return;
        }
        let t = LengthCounts::new(true);
        for key in 0..LENGTH_SLOTS * 2 {
            t.incr(key);
        }
        let (pairs, overflow) = t.snapshot();
        let total: u64 = pairs.iter().map(|&(_, n)| n).sum::<u64>() + overflow;
        assert_eq!(total, LENGTH_SLOTS as u64 * 2);
        assert!(overflow > 0);
    }

    #[test]
    fn disabled_table_records_nothing() {
        let t = LengthCounts::new(false);
        t.incr(3);
        let (pairs, overflow) = t.snapshot();
        assert!(pairs.is_empty());
        assert_eq!(overflow, 0);
    }
}
