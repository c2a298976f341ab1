//! Descriptive statistics: means, variances, quantiles.

/// Arithmetic mean. Returns `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Unbiased sample variance (divides by `n−1`). Returns `None` when fewer
/// than two values are supplied.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    Some(ss / (xs.len() - 1) as f64)
}

/// Quantile by linear interpolation between order statistics
/// (R type-7, the same convention the paper's R tooling defaults to).
///
/// `q` is clamped to `[0, 1]`. Returns `None` for empty input.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] on data that is already sorted ascending (no copy).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    debug_assert!(n > 0);
    let q = q.clamp(0.0, 1.0);
    let h = q * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[5.0]), Some(5.0));
    }

    #[test]
    fn variance_known_values() {
        // var of 2,4,4,4,5,5,7,9 = 32/7 (sample)
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn quantile_type7_matches_r() {
        // R: quantile(1:5, 0.25) == 2; quantile(1:4, 1/3) == 2
        let xs: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        assert!((quantile(&xs, 0.25).unwrap() - 2.0).abs() < 1e-12);
        let ys: Vec<f64> = (1..=4).map(|i| i as f64).collect();
        assert!((quantile(&ys, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_extremes_and_clamping() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(30.0));
        assert_eq!(quantile(&xs, -5.0), Some(10.0));
        assert_eq!(quantile(&xs, 7.0), Some(30.0));
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
    }
}
