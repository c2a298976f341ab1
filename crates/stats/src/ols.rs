//! Multiple linear regression by least squares.
//!
//! This is the engine under [`crate::anova`](mod@crate::anova): it fits `y ~ 1 + X` and
//! reports the residual sum of squares and effective rank. Columns are
//! standardized internally (centered and scaled) before solving the normal
//! equations, which keeps the system well conditioned for covariates of very
//! different magnitudes (per-capita GDP in the tens of thousands next to
//! fractions in `[0, 1]`) without changing any column space — so RSS and
//! rank, the quantities ANOVA consumes, are exact.

/// Result of a least-squares fit: what ANOVA consumes, plus the solution
/// itself for the tests that check it.
#[derive(Debug, Clone)]
pub(crate) struct Fit {
    /// Intercept in the original (unstandardized) coordinates.
    #[cfg(test)]
    intercept: f64,
    /// Coefficients per input column, original coordinates. Aliased
    /// (dropped) columns get 0.
    #[cfg(test)]
    coefficients: Vec<f64>,
    /// Residual sum of squares.
    pub(crate) rss: f64,
    /// Effective rank of the design matrix including the intercept.
    pub(crate) rank: usize,
}

/// Errors from the least-squares fit under [`anova`](crate::anova()).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlsError {
    /// No observations were supplied.
    Empty,
    /// A column's length differs from `y`'s.
    LengthMismatch {
        /// Index of the offending column.
        column: usize,
        /// Its length.
        got: usize,
        /// The expected length (`y.len()`).
        expected: usize,
    },
    /// The data contains NaN or infinity.
    NonFinite,
}

impl std::fmt::Display for OlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OlsError::Empty => write!(f, "no observations"),
            OlsError::LengthMismatch { column, got, expected } => {
                write!(f, "column {column} has {got} rows, expected {expected}")
            }
            OlsError::NonFinite => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for OlsError {}

/// Relative pivot threshold below which a column is treated as aliased.
const PIVOT_TOL: f64 = 1e-10;

/// Fits `y ~ intercept + columns` by least squares.
///
/// Aliased columns (constant, or linear combinations of earlier columns) are
/// detected and dropped; their coefficients are reported as 0 and the rank
/// reflects the reduction — exactly the bookkeeping sequential ANOVA needs.
pub(crate) fn fit(y: &[f64], columns: &[&[f64]]) -> Result<Fit, OlsError> {
    let n = y.len();
    if n == 0 {
        return Err(OlsError::Empty);
    }
    for (i, col) in columns.iter().enumerate() {
        if col.len() != n {
            return Err(OlsError::LengthMismatch { column: i, got: col.len(), expected: n });
        }
    }
    if !y.iter().all(|v| v.is_finite()) || !columns.iter().all(|c| c.iter().all(|v| v.is_finite()))
    {
        return Err(OlsError::NonFinite);
    }

    let p = columns.len();
    let y_mean = y.iter().sum::<f64>() / n as f64;

    // Standardize: z_j = (x_j − mean_j) / scale_j. Constant columns get
    // scale 0 and are marked aliased immediately.
    let mut means = vec![0.0; p];
    let mut scales = vec![0.0; p];
    let mut z: Vec<Vec<f64>> = Vec::with_capacity(p);
    for (j, col) in columns.iter().enumerate() {
        let m = col.iter().sum::<f64>() / n as f64;
        let ss: f64 = col.iter().map(|&x| (x - m) * (x - m)).sum();
        let s = ss.sqrt();
        means[j] = m;
        scales[j] = s;
        if s > 0.0 {
            z.push(col.iter().map(|&x| (x - m) / s).collect());
        } else {
            z.push(vec![0.0; n]);
        }
    }
    let yc: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();

    // Normal equations on the centered/standardized system: G β = b with
    // G = ZᵀZ, b = Zᵀ(y − ȳ). The intercept is handled by the centering.
    let mut g = vec![vec![0.0; p]; p];
    let mut b = vec![0.0; p];
    for j in 0..p {
        for k in j..p {
            let dot: f64 = z[j].iter().zip(&z[k]).map(|(&a, &c)| a * c).sum();
            g[j][k] = dot;
            g[k][j] = dot;
        }
        b[j] = z[j].iter().zip(&yc).map(|(&a, &c)| a * c).sum();
    }

    // Gauss–Jordan elimination with row pivoting and alias detection over
    // the non-constant columns. Standardized columns have unit norm, so an
    // absolute pivot tolerance is meaningful.
    let active: Vec<usize> = (0..p).filter(|&j| scales[j] > 0.0).collect();
    let m = active.len();
    let mut gm: Vec<Vec<f64>> =
        active.iter().map(|&j| active.iter().map(|&k| g[j][k]).collect()).collect();
    let mut bv: Vec<f64> = active.iter().map(|&j| b[j]).collect();
    let mut used_row = vec![false; m];
    let mut pivot_row_for_col: Vec<Option<usize>> = vec![None; m];
    let mut rank = 1; // the intercept
    for c in 0..m {
        let r = (0..m).filter(|&r| !used_row[r]).max_by(|&a, &b| {
            gm[a][c].abs().partial_cmp(&gm[b][c].abs()).unwrap_or(std::cmp::Ordering::Equal)
        });
        let Some(r) = r else { continue };
        if gm[r][c].abs() <= PIVOT_TOL {
            continue; // aliased column: skip, rank unchanged
        }
        used_row[r] = true;
        pivot_row_for_col[c] = Some(r);
        rank += 1;
        for r2 in 0..m {
            if r2 == r {
                continue;
            }
            let factor = gm[r2][c] / gm[r][c];
            if factor != 0.0 {
                // Rows r and r2 alias the same matrix; split borrows via a
                // temporary of the pivot row.
                let pivot_row = gm[r].clone();
                for (cell, &p) in gm[r2].iter_mut().zip(&pivot_row) {
                    *cell -= factor * p;
                }
                bv[r2] -= factor * bv[r];
            }
        }
    }
    let mut beta_z = vec![0.0; p];
    for c in 0..m {
        if let Some(r) = pivot_row_for_col[c] {
            beta_z[active[c]] = bv[r] / gm[r][c];
        }
    }

    // Back-transform coefficients and compute RSS in original space.
    let mut coefficients = vec![0.0; p];
    for j in 0..p {
        if scales[j] > 0.0 {
            coefficients[j] = beta_z[j] / scales[j];
        }
    }
    let intercept = y_mean - coefficients.iter().zip(&means).map(|(&b, &m)| b * m).sum::<f64>();

    let mut rss = 0.0;
    for i in 0..n {
        let mut pred = intercept;
        for (j, col) in columns.iter().enumerate() {
            pred += coefficients[j] * col[i];
        }
        let r = y[i] - pred;
        rss += r * r;
    }

    Ok(Fit {
        #[cfg(test)]
        intercept,
        #[cfg(test)]
        coefficients,
        rss,
        rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intercept_only_model() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let f = fit(&y, &[]).unwrap();
        assert!((f.intercept - 2.5).abs() < 1e-12);
        assert_eq!(f.rank, 1);
        // RSS = Σ(y − ȳ)² = 5
        assert!((f.rss - 5.0).abs() < 1e-12);
    }

    #[test]
    fn exact_line_two_covariates() {
        // y = 1 + 2a − 3b
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| ((i * 7) % 13) as f64).collect();
        let y: Vec<f64> = a.iter().zip(&b).map(|(&x, &z)| 1.0 + 2.0 * x - 3.0 * z).collect();
        let f = fit(&y, &[&a, &b]).unwrap();
        assert!((f.intercept - 1.0).abs() < 1e-8);
        assert!((f.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((f.coefficients[1] + 3.0).abs() < 1e-9);
        assert!(f.rss < 1e-12);
        assert_eq!(f.rank, 3);
    }

    #[test]
    fn badly_scaled_covariates() {
        // GDP-like magnitudes next to unit-scale variables.
        let gdp: Vec<f64> = (0..40).map(|i| 3_000.0 + 1_200.0 * i as f64).collect();
        let frac: Vec<f64> = (0..40).map(|i| (i % 5) as f64 / 5.0).collect();
        let y: Vec<f64> = gdp.iter().zip(&frac).map(|(&g, &f)| 0.4 - 1e-5 * g + 0.2 * f).collect();
        let f = fit(&y, &[&gdp, &frac]).unwrap();
        assert!((f.coefficients[0] + 1e-5).abs() < 1e-12);
        assert!((f.coefficients[1] - 0.2).abs() < 1e-9);
        assert!(f.rss < 1e-15);
    }

    #[test]
    fn duplicate_column_is_aliased() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v + 1.0).collect();
        let f = fit(&y, &[&x, &x]).unwrap();
        assert_eq!(f.rank, 2, "duplicate must not raise rank");
        assert!(f.rss < 1e-10);
    }

    #[test]
    fn linear_combination_is_aliased() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| (i * i) as f64).collect();
        let c: Vec<f64> = a.iter().zip(&b).map(|(&x, &z)| 2.0 * x - z).collect();
        let y: Vec<f64> = (0..20).map(|i| (i % 3) as f64).collect();
        let f = fit(&y, &[&a, &b, &c]).unwrap();
        assert_eq!(f.rank, 3, "third column is in the span of the first two");
    }

    #[test]
    fn constant_column_is_aliased_with_intercept() {
        let x = vec![7.0; 15];
        let y: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let f = fit(&y, &[&x]).unwrap();
        assert_eq!(f.rank, 1);
        assert_eq!(f.coefficients[0], 0.0);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(fit(&[], &[]), Err(OlsError::Empty)));
        let y = [1.0, 2.0];
        let short = [1.0];
        assert!(matches!(
            fit(&y, &[&short]),
            Err(OlsError::LengthMismatch { column: 0, got: 1, expected: 2 })
        ));
        let bad = [f64::NAN, 1.0];
        assert!(matches!(fit(&bad, &[]), Err(OlsError::NonFinite)));
    }

    #[test]
    fn rss_decreases_with_more_columns() {
        let x1: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin()).collect();
        let x2: Vec<f64> = (0..50).map(|i| (i as f64 * 0.11).cos()).collect();
        let y: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin() * 2.0 + (i % 4) as f64).collect();
        let r0 = fit(&y, &[]).unwrap().rss;
        let r1 = fit(&y, &[&x1]).unwrap().rss;
        let r2 = fit(&y, &[&x1, &x2]).unwrap().rss;
        assert!(r1 <= r0 + 1e-12);
        assert!(r2 <= r1 + 1e-12);
    }
}
