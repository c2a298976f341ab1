//! Binned summaries: histograms, empirical CDFs, 2-D density grids, and
//! per-bin quartiles.
//!
//! These back the paper's visual analyses: the density plots comparing true
//! and estimated availability (Figs. 4–5, with quartiles per 0.1-wide bin of
//! true A), the strongest-frequency CDF (Fig. 10), the world grids
//! (Figs. 12–13), and the phase/longitude density (Fig. 14).

use crate::descriptive::quantile_sorted;

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Values below `lo` (kept separate, not silently dropped).
    pub underflow: u64,
    /// Values at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty range [{lo}, {hi})");
        Histogram { lo, hi, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Bin index a value would fall into, or `None` if out of range.
    pub(crate) fn bin_of(&self, x: f64) -> Option<usize> {
        if x < self.lo {
            return None;
        }
        let idx = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
        (idx < self.counts.len()).then_some(idx)
    }

    /// Adds one observation.
    pub(crate) fn add(&mut self, x: f64) {
        match self.bin_of(x) {
            Some(i) => self.counts[i] += 1,
            None if x < self.lo => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Total in-range count.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of in-range observations in bin `i` (0 when empty).
    pub fn fraction(&self, i: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.counts[i] as f64 / t as f64
        }
    }

    /// Empirical CDF evaluated at the right edge of each bin:
    /// `(right_edge, cumulative_fraction)` pairs.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let t = self.total().max(1) as f64;
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let mut acc = 0u64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                (self.lo + (i as f64 + 1.0) * w, acc as f64 / t)
            })
            .collect()
    }
}

/// A 2-D counting grid over `[x_lo, x_hi) × [y_lo, y_hi)` — the paper's
/// density plots and world maps.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    nx: usize,
    ny: usize,
    counts: Vec<u64>,
    dropped: u64,
}

impl DensityGrid {
    /// Creates an `nx × ny` grid over the given ranges.
    ///
    /// # Panics
    /// Panics on empty ranges or zero dimensions.
    pub fn new(x_lo: f64, x_hi: f64, nx: usize, y_lo: f64, y_hi: f64, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have positive dimensions");
        assert!(x_lo < x_hi && y_lo < y_hi, "grid ranges must be non-empty");
        DensityGrid { x_lo, x_hi, y_lo, y_hi, nx, ny, counts: vec![0; nx * ny], dropped: 0 }
    }

    /// Cell indices for a point, or `None` if outside the grid.
    pub(crate) fn cell_of(&self, x: f64, y: f64) -> Option<(usize, usize)> {
        if x < self.x_lo || y < self.y_lo {
            return None;
        }
        let ix = ((x - self.x_lo) / (self.x_hi - self.x_lo) * self.nx as f64) as usize;
        let iy = ((y - self.y_lo) / (self.y_hi - self.y_lo) * self.ny as f64) as usize;
        (ix < self.nx && iy < self.ny).then_some((ix, iy))
    }

    /// Adds one point; out-of-range points are counted in `dropped()`.
    pub fn add(&mut self, x: f64, y: f64) {
        match self.cell_of(x, y) {
            Some((ix, iy)) => self.counts[iy * self.nx + ix] += 1,
            None => self.dropped += 1,
        }
    }

    /// Count in cell `(ix, iy)`.
    pub fn count(&self, ix: usize, iy: usize) -> u64 {
        self.counts[iy * self.nx + ix]
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Points that fell outside the grid.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total points captured in the grid.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Maximum cell count (useful for normalizing a rendering).
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// X-center of column `ix`.
    pub fn x_center(&self, ix: usize) -> f64 {
        self.x_lo + (ix as f64 + 0.5) * (self.x_hi - self.x_lo) / self.nx as f64
    }

    /// Y-center of row `iy`.
    pub fn y_center(&self, iy: usize) -> f64 {
        self.y_lo + (iy as f64 + 0.5) * (self.y_hi - self.y_lo) / self.ny as f64
    }

    /// Iterates over non-empty cells as `(ix, iy, count)`.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.ny).flat_map(move |iy| {
            (0..self.nx).filter_map(move |ix| {
                let c = self.count(ix, iy);
                (c > 0).then_some((ix, iy, c))
            })
        })
    }
}

/// Quartile summary of `y` values grouped into fixed-width bins of `x` —
/// the white boxes overlaid on Figs. 4 and 5 (quartiles of estimated
/// availability per 0.1-wide bin of true availability).
#[derive(Debug, Clone)]
pub struct BinnedQuartiles {
    /// Per-bin summaries: `(bin_center, n, q1, median, q3)`; bins with no
    /// observations are omitted.
    pub bins: Vec<(f64, usize, f64, f64, f64)>,
}

/// Computes [`BinnedQuartiles`] of `y` grouped by `x` into `bins` bins over
/// `[lo, hi)`.
pub fn binned_quartiles(
    pairs: impl IntoIterator<Item = (f64, f64)>,
    lo: f64,
    hi: f64,
    bins: usize,
) -> BinnedQuartiles {
    assert!(bins > 0 && lo < hi);
    let mut groups: Vec<Vec<f64>> = vec![Vec::new(); bins];
    let width = (hi - lo) / bins as f64;
    for (x, y) in pairs {
        if x < lo {
            continue;
        }
        // Same binning form as Histogram::bin_of: scaling by the bin count
        // rather than dividing by the width avoids boundary values (0.3/0.1)
        // landing one bin low.
        let idx = ((x - lo) / (hi - lo) * bins as f64) as usize;
        if idx < bins {
            groups[idx].push(y);
        }
    }
    let bins_out = groups
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .map(|(i, mut g)| {
            g.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            (
                lo + (i as f64 + 0.5) * width,
                g.len(),
                quantile_sorted(&g, 0.25),
                quantile_sorted(&g, 0.5),
                quantile_sorted(&g, 0.75),
            )
        })
        .collect();
    BinnedQuartiles { bins: bins_out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_binning() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.extend([0.05, 0.15, 0.15, 0.95]);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-0.1);
        h.add(1.0); // right edge is exclusive
        h.add(5.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([1.0, 3.0, 3.5, 9.0]);
        assert!((h.fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_cdf_monotone_reaching_one() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        h.extend((0..100).map(|i| i as f64 / 100.0));
        let cdf = h.cdf();
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_placement_and_totals() {
        let mut g = DensityGrid::new(-180.0, 180.0, 180, -90.0, 90.0, 90);
        g.add(0.0, 0.0);
        g.add(-179.9, -89.9);
        g.add(179.9, 89.9);
        g.add(500.0, 0.0);
        assert_eq!(g.total(), 3);
        assert_eq!(g.dropped(), 1);
        assert_eq!(g.count(0, 0), 1);
        assert_eq!(g.count(179, 89), 1);
    }

    #[test]
    fn grid_centers() {
        let g = DensityGrid::new(0.0, 10.0, 10, 0.0, 4.0, 4);
        assert_eq!(g.x_center(0), 0.5);
        assert_eq!(g.y_center(3), 3.5);
    }

    #[test]
    fn grid_nonzero_iteration() {
        let mut g = DensityGrid::new(0.0, 2.0, 2, 0.0, 2.0, 2);
        g.add(0.5, 0.5);
        g.add(1.5, 1.5);
        g.add(1.5, 1.5);
        let cells: Vec<_> = g.nonzero().collect();
        assert_eq!(cells, vec![(0, 0, 1), (1, 1, 2)]);
        assert_eq!(g.max_count(), 2);
    }

    #[test]
    fn binned_quartiles_recovers_structure() {
        // y = x plus a symmetric spread: the median per bin tracks the bin
        // center.
        let pairs: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let x = (i % 100) as f64 / 100.0;
                let spread = ((i / 100) as f64 - 4.5) / 100.0;
                (x, x + spread)
            })
            .collect();
        let bq = binned_quartiles(pairs, 0.0, 1.0, 10);
        assert_eq!(bq.bins.len(), 10);
        for &(center, n, q1, med, q3) in &bq.bins {
            assert_eq!(n, 100);
            assert!((med - center).abs() < 0.06, "bin {center}: median {med}");
            assert!(q1 <= med && med <= q3);
        }
    }

    #[test]
    fn binned_quartiles_skips_empty_bins() {
        let pairs = vec![(0.05, 1.0), (0.95, 2.0)];
        let bq = binned_quartiles(pairs, 0.0, 1.0, 10);
        assert_eq!(bq.bins.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
