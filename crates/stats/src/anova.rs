//! Analysis of variance (§2.4).
//!
//! The paper quantifies which external factors correlate with diurnal
//! network use by running ANOVA (R's `aov`) over country-level observations:
//! per-capita GDP, Internet users per host, electricity consumption, and
//! block-allocation ages against the fraction of diurnal blocks (Table 5).
//!
//! This module reimplements the same machinery: a linear model with
//! *sequential* (Type-I) sums of squares — R's `aov` convention — where each
//! term's SS is the reduction in residual sum of squares when the term is
//! added after everything before it, and the F test compares the term's mean
//! square against the residual mean square of the full model.
//!
//! Terms can be continuous covariates (one column), interactions (their
//! elementwise product, the `a:b` rows in an R table), or categorical
//! factors (dummy-coded, first level dropped).

use crate::dist::f_sf;
use crate::ols::{fit, OlsError};

/// One model term: a named group of design-matrix columns.
#[derive(Debug, Clone)]
pub struct Term {
    /// Display name, e.g. `"gdp"` or `"elec:mean_age"`.
    pub name: String,
    /// The columns this term contributes.
    pub columns: Vec<Vec<f64>>,
}

impl Term {
    /// A continuous covariate: a single column.
    pub fn continuous(name: impl Into<String>, xs: &[f64]) -> Term {
        Term { name: name.into(), columns: vec![xs.to_vec()] }
    }

    /// A two-way interaction: the elementwise product of two covariates
    /// (R's `a:b`).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub(crate) fn interaction(name: impl Into<String>, a: &[f64], b: &[f64]) -> Term {
        assert_eq!(a.len(), b.len(), "interaction requires equal-length covariates");
        Term { name: name.into(), columns: vec![a.iter().zip(b).map(|(&x, &y)| x * y).collect()] }
    }

    /// A categorical factor, dummy-coded with the first-seen level as the
    /// reference (dropped) level, matching R's default treatment contrasts.
    /// The pipeline's factors are all continuous; the tests use this one
    /// to check a term of more than one column.
    #[cfg(test)]
    fn categorical<L: PartialEq + Clone>(name: impl Into<String>, labels: &[L]) -> Term {
        let mut levels: Vec<L> = Vec::new();
        for l in labels {
            if !levels.contains(l) {
                levels.push(l.clone());
            }
        }
        let columns = levels
            .iter()
            .skip(1)
            .map(|lvl| labels.iter().map(|l| if l == lvl { 1.0 } else { 0.0 }).collect())
            .collect();
        Term { name: name.into(), columns }
    }
}

/// One row of the ANOVA table.
#[derive(Debug, Clone)]
pub struct AnovaRow {
    /// Term name.
    pub name: String,
    /// Degrees of freedom actually contributed (0 when fully aliased).
    pub df: usize,
    /// Sequential sum of squares.
    pub sum_sq: f64,
    /// Mean square `sum_sq / df` (NaN when df = 0).
    pub mean_sq: f64,
    /// F statistic against the residual mean square (NaN when undefined).
    pub f: f64,
    /// p-value `P(F > f)` (NaN when undefined).
    pub p: f64,
}

/// A complete sequential ANOVA decomposition.
#[derive(Debug, Clone)]
pub struct AnovaTable {
    /// Per-term rows, in the order supplied.
    pub rows: Vec<AnovaRow>,
    /// Residual degrees of freedom.
    pub df_residual: usize,
    /// Residual sum of squares.
    pub ss_residual: f64,
    /// Total (corrected) sum of squares.
    pub ss_total: f64,
}

impl AnovaTable {
    /// Finds a row by term name.
    pub fn row(&self, name: &str) -> Option<&AnovaRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Errors from [`anova`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnovaError {
    /// The underlying least-squares fit failed.
    Ols(OlsError),
    /// The model consumed every degree of freedom: no residual to test
    /// against.
    NoResidualDf,
}

impl std::fmt::Display for AnovaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnovaError::Ols(e) => write!(f, "least-squares failure: {e}"),
            AnovaError::NoResidualDf => write!(f, "model saturates the data (no residual df)"),
        }
    }
}

impl std::error::Error for AnovaError {}

impl From<OlsError> for AnovaError {
    fn from(e: OlsError) -> Self {
        AnovaError::Ols(e)
    }
}

/// Runs a sequential (Type-I) ANOVA of `y` against `terms`, in order.
pub fn anova(y: &[f64], terms: &[Term]) -> Result<AnovaTable, AnovaError> {
    // Fit the nested sequence of models: intercept, +term1, +term1+term2, …
    let mut col_refs: Vec<&[f64]> = Vec::new();
    let base = fit(y, &col_refs)?;
    let ss_total = base.rss;
    let mut prev_rss = base.rss;
    let mut prev_rank = base.rank;

    let mut partial: Vec<(f64, usize)> = Vec::with_capacity(terms.len());
    for term in terms {
        for col in &term.columns {
            col_refs.push(col.as_slice());
        }
        let m = fit(y, &col_refs)?;
        let df = m.rank - prev_rank;
        let ss = (prev_rss - m.rss).max(0.0);
        partial.push((ss, df));
        prev_rss = m.rss;
        prev_rank = m.rank;
    }

    let n = y.len();
    let df_residual = n.saturating_sub(prev_rank);
    if df_residual == 0 {
        return Err(AnovaError::NoResidualDf);
    }
    let ss_residual = prev_rss;
    let ms_res = ss_residual / df_residual as f64;

    let rows = terms
        .iter()
        .zip(partial)
        .map(|(term, (ss, df))| {
            let (mean_sq, f, p) = if df > 0 && ms_res > 0.0 {
                let ms = ss / df as f64;
                let fstat = ms / ms_res;
                (ms, fstat, f_sf(fstat, df as f64, df_residual as f64))
            } else {
                (f64::NAN, f64::NAN, f64::NAN)
            };
            AnovaRow { name: term.name.clone(), df, sum_sq: ss, mean_sq, f, p }
        })
        .collect();

    Ok(AnovaTable { rows, df_residual, ss_residual, ss_total })
}

/// One-factor shortcut: p-value of a single continuous covariate.
pub fn anova_single(y: &[f64], name: &str, x: &[f64]) -> Result<AnovaRow, AnovaError> {
    let table = anova(y, &[Term::continuous(name, x)])?;
    Ok(table.rows.into_iter().next().expect("one term in, one row out"))
}

/// Two-factor shortcut matching R's `aov(y ~ a * b)`: returns the full table
/// with rows `a`, `b`, and the interaction `a:b`.
pub fn anova_pair(
    y: &[f64],
    name_a: &str,
    a: &[f64],
    name_b: &str,
    b: &[f64],
) -> Result<AnovaTable, AnovaError> {
    anova(
        y,
        &[
            Term::continuous(name_a, a),
            Term::continuous(name_b, b),
            Term::interaction(format!("{name_a}:{name_b}"), a, b),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-0.5, 0.5).
    fn noise(i: usize) -> f64 {
        ((i as f64 * 12.9898).sin() * 43_758.547).fract() - 0.5
    }

    #[test]
    fn strong_single_factor_has_tiny_p() {
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().enumerate().map(|(i, &v)| 2.0 * v + noise(i)).collect();
        let row = anova_single(&y, "x", &x).unwrap();
        assert_eq!(row.df, 1);
        assert!(row.p < 1e-20, "p = {}", row.p);
    }

    #[test]
    fn unrelated_factor_has_large_p() {
        let n = 80;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| noise(i * 31 + 5)).collect();
        let row = anova_single(&y, "x", &x).unwrap();
        assert!(row.p > 0.05, "p = {}", row.p);
    }

    #[test]
    fn matches_r_reference_single_factor() {
        // R:
        //   y <- c(1.2, 2.3, 2.9, 4.1, 5.2, 5.8, 7.1, 8.2)
        //   x <- 1:8
        //   summary(aov(y ~ x))
        //     x: Df=1, Sum Sq=40.809 (= Sxy²/Sxx = 41.4²/42), p << 0.001
        let y = [1.2, 2.3, 2.9, 4.1, 5.2, 5.8, 7.1, 8.2];
        let x: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let t = anova(&y, &[Term::continuous("x", &x)]).unwrap();
        let row = &t.rows[0];
        assert!((row.sum_sq - 41.4 * 41.4 / 42.0).abs() < 1e-9, "SS = {}", row.sum_sq);
        assert_eq!(t.df_residual, 6);
        // F = SS_reg / (RSS/6) ≈ 1279 with (1, 6) df → p ≈ 3e-8.
        assert!(row.p < 1e-7 && row.p > 1e-9, "p = {}", row.p);
    }

    #[test]
    fn sequential_ss_decomposes_total() {
        let n = 50;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 + a[i] * 0.5 - b[i] * 0.2 + noise(i) * 0.3).collect();
        let t = anova_pair(&y, "a", &a, "b", &b).unwrap();
        let ss_terms: f64 = t.rows.iter().map(|r| r.sum_sq).sum();
        assert!(
            (ss_terms + t.ss_residual - t.ss_total).abs() < 1e-8,
            "decomposition broken: {ss_terms} + {} != {}",
            t.ss_residual,
            t.ss_total
        );
    }

    #[test]
    fn interaction_detected_when_planted() {
        let n = 100;
        let a: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i / 10) % 10) as f64).collect();
        // y depends ONLY on the product a·b.
        let y: Vec<f64> = (0..n).map(|i| a[i] * b[i] + 0.1 * noise(i)).collect();
        let t = anova_pair(&y, "a", &a, "b", &b).unwrap();
        let inter = t.row("a:b").unwrap();
        assert!(inter.p < 1e-10, "interaction p = {}", inter.p);
    }

    #[test]
    fn no_interaction_when_effects_additive() {
        let n = 120;
        let a: Vec<f64> = (0..n).map(|i| (i % 8) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i / 8) % 5) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * a[i] - b[i] + noise(i)).collect();
        let t = anova_pair(&y, "a", &a, "b", &b).unwrap();
        assert!(t.row("a").unwrap().p < 1e-10);
        assert!(t.row("b").unwrap().p < 1e-10);
        assert!(t.row("a:b").unwrap().p > 0.01, "p = {}", t.row("a:b").unwrap().p);
    }

    #[test]
    fn categorical_factor_one_way() {
        // Classic one-way ANOVA with three clearly separated groups.
        let labels: Vec<&str> =
            ["g1"; 10].iter().chain(["g2"; 10].iter()).chain(["g3"; 10].iter()).copied().collect();
        let y: Vec<f64> = (0..30)
            .map(|i| match i / 10 {
                0 => 1.0 + 0.1 * noise(i),
                1 => 2.0 + 0.1 * noise(i),
                _ => 3.0 + 0.1 * noise(i),
            })
            .collect();
        let t = anova(&y, &[Term::categorical("group", &labels)]).unwrap();
        let row = &t.rows[0];
        assert_eq!(row.df, 2);
        assert_eq!(t.df_residual, 27);
        assert!(row.p < 1e-15);
    }

    #[test]
    fn aliased_term_gets_zero_df() {
        let n = 40;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..n).map(noise).collect();
        let t = anova(&y, &[Term::continuous("x", &x), Term::continuous("x_again", &x)]).unwrap();
        assert_eq!(t.rows[0].df, 1);
        assert_eq!(t.rows[1].df, 0);
        assert!(t.rows[1].p.is_nan());
    }

    #[test]
    fn saturated_model_errors() {
        let y = [1.0, 2.0];
        let x = [0.0, 1.0];
        let r = anova(&y, &[Term::continuous("x", &x)]);
        assert!(matches!(r, Err(AnovaError::NoResidualDf)));
    }

    #[test]
    fn order_matters_for_sequential_ss() {
        // Correlated covariates: the first term absorbs shared variance.
        let n = 60;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 5.0 * noise(i)).collect();
        let y: Vec<f64> = (0..n).map(|i| a[i] + noise(i)).collect();
        let t_ab = anova(&y, &[Term::continuous("a", &a), Term::continuous("b", &b)]).unwrap();
        let t_ba = anova(&y, &[Term::continuous("b", &b), Term::continuous("a", &a)]).unwrap();
        let ss_a_first = t_ab.row("a").unwrap().sum_sq;
        let ss_a_second = t_ba.row("a").unwrap().sum_sq;
        assert!(ss_a_first > ss_a_second, "{ss_a_first} vs {ss_a_second}");
    }
}
