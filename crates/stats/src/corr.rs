//! Correlation and simple linear regression.
//!
//! The paper reports Pearson correlation coefficients throughout (Âs vs A:
//! 0.957; unrolled phase vs longitude: 0.835; diurnal fraction vs allocation
//! month: 0.609; vs GDP: −0.526) and fits straight lines for Figs. 15–16.

/// Pearson correlation coefficient. `None` when undefined (mismatched or
/// short input, or zero variance on either side).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Fractional ranks with ties sharing their average rank (the convention
/// Spearman correlation requires).
fn average_ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average 1-based rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation: Pearson correlation of the (tie-averaged)
/// ranks. Robust to monotone but non-linear relationships — a useful check
/// beside the paper's Pearson coefficients when covariates like GDP span
/// orders of magnitude.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&average_ranks(xs), &average_ranks(ys))
}

/// Result of a simple linear regression `y ~ a + b·x`.
#[derive(Debug, Clone, Copy)]
pub struct LinFit {
    /// Slope `b`.
    pub slope: f64,
    /// Intercept `a`.
    pub intercept: f64,
    /// Pearson correlation of x and y (0 when y has no variance).
    pub r: f64,
    /// Coefficient of determination `r²`.
    pub r2: f64,
    /// Number of points.
    pub n: usize,
}

impl LinFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Ordinary least squares fit of `y` on `x`. `None` when the fit is
/// undefined (fewer than 2 points, mismatched lengths, or constant `x`).
pub fn linfit(xs: &[f64], ys: &[f64]) -> Option<LinFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r = if syy > 0.0 { sxy / (sxx * syy).sqrt() } else { 0.0 };
    Some(LinFit { slope, intercept, r, r2: r * r, n: xs.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| -0.5 * x + 4.0).collect();
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_symmetric_data_near_zero() {
        // x symmetric around 0, y = x²: Pearson correlation is exactly 0.
        let xs: Vec<f64> = (-10..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x * x).collect();
        assert!(pearson(&xs, &ys).unwrap().abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(linfit(&[2.0, 2.0], &[1.0, 5.0]).is_none());
    }

    #[test]
    fn linfit_recovers_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.5 - 0.7 * x).collect();
        let f = linfit(&xs, &ys).unwrap();
        assert!((f.slope + 0.7).abs() < 1e-10);
        assert!((f.intercept - 2.5).abs() < 1e-10);
        assert!((f.r2 - 1.0).abs() < 1e-10);
        assert!((f.predict(10.0) - (2.5 - 7.0)).abs() < 1e-9);
    }

    #[test]
    fn linfit_with_noise_has_partial_r2() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x + if i % 2 == 0 { 20.0 } else { -20.0 })
            .collect();
        let f = linfit(&xs, &ys).unwrap();
        assert!((f.slope - 1.0).abs() < 0.05);
        assert!(f.r2 < 1.0 && f.r2 > 0.5);
    }

    #[test]
    fn linfit_flat_y_has_zero_r() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys = vec![5.0; 10];
        let f = linfit(&xs, &ys).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r, 0.0);
    }

    #[test]
    fn spearman_detects_monotone_nonlinear_relation() {
        // y = exp(x): Pearson < 1, Spearman exactly 1.
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x.exp()).collect();
        let p = pearson(&xs, &ys).unwrap();
        let s = spearman(&xs, &ys).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "spearman {s}");
        assert!(p < 0.95, "pearson {p}");
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        // Anti-monotone with ties.
        let zs = [30.0, 20.0, 20.0, 10.0];
        assert!((spearman(&xs, &zs).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_reference_value() {
        // Classic example: R cor(c(106,86,100,101,99,103,97,113,112,110),
        //                        c(7,0,27,50,28,29,20,12,6,17),
        //                        method="spearman") = -0.1757576
        let iq = [106.0, 86.0, 100.0, 101.0, 99.0, 103.0, 97.0, 113.0, 112.0, 110.0];
        let tv = [7.0, 0.0, 27.0, 50.0, 28.0, 29.0, 20.0, 12.0, 6.0, 17.0];
        let s = spearman(&iq, &tv).unwrap();
        assert!((s + 0.175_757_6).abs() < 1e-6, "spearman {s}");
    }

    #[test]
    fn spearman_degenerate_inputs() {
        assert!(spearman(&[1.0], &[2.0]).is_none());
        assert!(spearman(&[1.0, 2.0], &[3.0]).is_none());
        assert!(spearman(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn pearson_is_symmetric_and_scale_invariant() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r1 = pearson(&xs, &ys).unwrap();
        let r2 = pearson(&ys, &xs).unwrap();
        assert!((r1 - r2).abs() < 1e-15);
        let scaled: Vec<f64> = xs.iter().map(|&x| 100.0 * x - 7.0).collect();
        let r3 = pearson(&scaled, &ys).unwrap();
        assert!((r1 - r3).abs() < 1e-12);
    }
}
