//! Long-term evolution of diurnal behaviour (Fig. 11).
//!
//! The paper applies its detector to 63 surveys spanning late 2009 to 2013
//! and observes a roughly stable diurnal fraction with a marked decline
//! after 2012, which it attributes to dynamic addresses shifting toward
//! always-on use. This module supplies the scaling curve the world
//! generator uses to reproduce that trajectory: multiply every country's
//! propensity by [`propensity_scale_at`] for the survey's date.

use sleepwatch_geoecon::YearMonth;

/// Scale on country diurnal propensities at a given date, relative to the
/// paper's main 2013 dataset (`A12w`, scale 1.0).
///
/// Shape: slowly rising through 2010–2011 (growing dynamic addressing),
/// peaking at the start of 2012, then declining through 2013 (dynamic
/// pools turning always-on).
pub fn propensity_scale_at(date: YearMonth) -> f64 {
    let m = date.months_since_epoch() as f64;
    let m2010 = YearMonth::new(2010, 1).months_since_epoch() as f64;
    let m2012 = YearMonth::new(2012, 1).months_since_epoch() as f64;
    let m2014 = YearMonth::new(2014, 1).months_since_epoch() as f64;
    if m <= m2012 {
        // 1.15 at 2010-01 rising to the 1.30 peak at 2012-01.
        let f = ((m - m2010) / (m2012 - m2010)).clamp(-0.5, 1.0);
        1.15 + 0.15 * f
    } else {
        // Decline from the 1.30 peak toward 0.95 by 2014-01.
        let f = ((m - m2012) / (m2014 - m2012)).clamp(0.0, 1.5);
        1.30 - 0.35 * f
    }
}

/// The survey calendar for the Fig. 11 reproduction: one two-week survey
/// per quarter from 2009-12 through 2013-12, three vantage points as in the
/// paper (`w`, `c`, `j`), yielding 51 (date, site) samples standing in for
/// the paper's 63 surveys.
pub fn survey_calendar() -> Vec<(YearMonth, char)> {
    let mut out = Vec::new();
    let start = YearMonth::new(2009, 12).months_since_epoch();
    let end = YearMonth::new(2013, 12).months_since_epoch();
    let mut m = start;
    let mut site = 0usize;
    const SITES: [char; 3] = ['w', 'c', 'j'];
    while m <= end {
        out.push((YearMonth::from_months_since_epoch(m), SITES[site % 3]));
        // Stagger sites so each quarter-ish period has a survey, like the
        // real archive's interleaved collection points.
        site += 1;
        if site % 3 == 0 {
            m += 3;
        } else {
            m += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_around_a12w() {
        // A12w starts 2013-04; the curve should pass near 1.0 there so the
        // main dataset is unscaled.
        let s = propensity_scale_at(YearMonth::new(2013, 4));
        assert!((s - 1.0).abs() < 0.1, "scale at 2013-04: {s}");
    }

    #[test]
    fn peak_at_2012_then_decline() {
        let s2010 = propensity_scale_at(YearMonth::new(2010, 1));
        let s2012 = propensity_scale_at(YearMonth::new(2012, 1));
        let s2013 = propensity_scale_at(YearMonth::new(2013, 6));
        assert!(s2012 > s2010, "rising into 2012");
        assert!(s2013 < s2012, "declining after 2012");
        assert!(s2012 <= 1.35);
    }

    #[test]
    fn scale_is_continuous_at_the_peak() {
        let before = propensity_scale_at(YearMonth::new(2011, 12));
        let at = propensity_scale_at(YearMonth::new(2012, 1));
        let after = propensity_scale_at(YearMonth::new(2012, 2));
        assert!((at - before).abs() < 0.05);
        assert!((at - after).abs() < 0.05);
    }

    #[test]
    fn calendar_spans_the_archive() {
        let cal = survey_calendar();
        assert!(cal.len() >= 30, "got {} surveys", cal.len());
        assert_eq!(cal.first().unwrap().0, YearMonth::new(2009, 12));
        assert!(cal.last().unwrap().0 >= YearMonth::new(2013, 10));
        // All three sites appear.
        for site in ['w', 'c', 'j'] {
            assert!(cal.iter().any(|&(_, s)| s == site));
        }
        // Dates are non-decreasing.
        assert!(cal.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn scale_clamps_outside_modeled_window() {
        assert!(propensity_scale_at(YearMonth::new(2005, 1)) >= 1.0);
        let far = propensity_scale_at(YearMonth::new(2016, 1));
        assert!(far > 0.5 && far < 1.0);
    }
}
