//! IANA-style /8 allocation registry (§5.3).
//!
//! The paper correlates diurnal fractions with the date each /8 was
//! allocated to a regional registry (Fig. 15), finding newer allocations
//! more diurnal (+0.08 %/month). This module provides a synthetic registry
//! with the real timeline's essential shape: legacy ARIN-era blocks through
//! the 1980s–90s, RIPE from the early 90s, APNIC accelerating through the
//! 2000s, LACNIC from 1999 and AFRINIC from 2005, ending at IANA exhaustion
//! (February 2011).

use crate::region::Region;
use crate::rng::KeyedRng;

/// A calendar month, the registry's date granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct YearMonth {
    /// Calendar year.
    pub year: u16,
    /// Month, 1–12.
    pub month: u8,
}

impl YearMonth {
    /// Creates a year-month.
    ///
    /// # Panics
    /// Panics if `month` is not in 1–12.
    pub fn new(year: u16, month: u8) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        YearMonth { year, month }
    }

    /// Months elapsed since January 1983 (the registry epoch).
    pub fn months_since_epoch(self) -> i64 {
        (self.year as i64 - 1983) * 12 + (self.month as i64 - 1)
    }

    /// The inverse of [`YearMonth::months_since_epoch`].
    pub fn from_months_since_epoch(m: i64) -> Self {
        let year = 1983 + m.div_euclid(12);
        let month = m.rem_euclid(12) + 1;
        YearMonth::new(year as u16, month as u8)
    }

    /// Signed difference `self − other` in months.
    pub fn months_between(self, other: YearMonth) -> i64 {
        self.months_since_epoch() - other.months_since_epoch()
    }
}

impl std::fmt::Display for YearMonth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}

/// Why a string is not a year-month as [`YearMonth`] prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseYearMonthError;

impl std::fmt::Display for ParseYearMonthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("not a canonical YYYY-MM date")
    }
}

impl std::error::Error for ParseYearMonthError {}

/// Parses exactly what [`Display`](std::fmt::Display) prints, so
/// `2001-5`, `2001-13` or `+2001-05` is refused rather than read as some
/// other date.
impl std::str::FromStr for YearMonth {
    type Err = ParseYearMonthError;

    fn from_str(s: &str) -> Result<YearMonth, ParseYearMonthError> {
        let (year, month) = s.split_once('-').ok_or(ParseYearMonthError)?;
        let year = year.parse().map_err(|_| ParseYearMonthError)?;
        let month = month.parse().map_err(|_| ParseYearMonthError)?;
        let ym = YearMonth { year, month };
        if (1..=12).contains(&month) && ym.to_string() == s {
            Ok(ym)
        } else {
            Err(ParseYearMonthError)
        }
    }
}

/// Regional Internet registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Rir {
    Arin,
    RipeNcc,
    Apnic,
    Lacnic,
    Afrinic,
}

impl Rir {
    /// The registry serving a region.
    pub fn for_region(region: Region) -> Rir {
        use Region::*;
        match region {
            NorthernAmerica | Caribbean => Rir::Arin,
            WesternEurope | NorthernEurope | SouthernEurope | EasternEurope | WesternAsia
            | CentralAsia => Rir::RipeNcc,
            EasternAsia | SouthEasternAsia | SouthernAsia | Oceania => Rir::Apnic,
            SouthAmerica | CentralAmerica => Rir::Lacnic,
            NorthernAfrica | SouthernAfrica => Rir::Afrinic,
        }
    }
}

/// One /8 allocation.
#[derive(Debug, Clone, Copy)]
pub struct Slash8 {
    /// The first octet.
    pub prefix: u8,
    /// Receiving registry.
    pub rir: Rir,
    /// Allocation date.
    pub date: YearMonth,
}

/// The synthetic allocation registry.
#[derive(Debug, Clone)]
pub struct AllocationRegistry {
    entries: Vec<Slash8>,
    by_prefix: Vec<Option<usize>>,
}

/// Per-RIR allocation windows `(rir, first, last, share of /8s)`. The shares
/// loosely track the real registry; what matters for Fig. 15 is the
/// *ordering* — legacy ARIN early, APNIC/LACNIC late.
const RIR_WINDOWS: &[(Rir, YearMonth, YearMonth, f64)] = &[
    (Rir::Arin, YearMonth { year: 1983, month: 1 }, YearMonth { year: 2006, month: 12 }, 0.36),
    (Rir::RipeNcc, YearMonth { year: 1992, month: 5 }, YearMonth { year: 2010, month: 11 }, 0.26),
    (Rir::Apnic, YearMonth { year: 1994, month: 4 }, YearMonth { year: 2011, month: 2 }, 0.25),
    (Rir::Lacnic, YearMonth { year: 1999, month: 11 }, YearMonth { year: 2011, month: 2 }, 0.09),
    (Rir::Afrinic, YearMonth { year: 2005, month: 4 }, YearMonth { year: 2010, month: 11 }, 0.04),
];

impl AllocationRegistry {
    /// Builds the deterministic synthetic registry: 218 unicast /8s
    /// (prefixes 1–223, minus loopback and the private 10/8), with dates
    /// spread across each registry's window and allocation density rising
    /// toward exhaustion.
    pub fn synthesize(seed: u64) -> Self {
        let usable: Vec<u8> = (1u8..=223).filter(|&p| p != 10 && p != 127).collect();
        let total = usable.len();

        // Partition prefixes into RIR groups by share (largest remainder).
        let mut counts: Vec<usize> =
            RIR_WINDOWS.iter().map(|&(_, _, _, s)| (s * total as f64).floor() as usize).collect();
        let mut assigned: usize = counts.iter().sum();
        let n_groups = counts.len();
        let mut i = 0;
        while assigned < total {
            counts[i % n_groups] += 1;
            assigned += 1;
            i += 1;
        }

        let mut entries = Vec::with_capacity(total);
        let mut cursor = 0usize;
        for (w, &(rir, first, last, _)) in RIR_WINDOWS.iter().enumerate() {
            let n = counts[w];
            let span = last.months_between(first).max(1);
            for k in 0..n {
                let prefix = usable[cursor];
                cursor += 1;
                // Quadratic ramp: later months see denser allocation, like
                // the real runout. Jitter keeps dates from being perfectly
                // regular.
                let frac = ((k as f64 + 0.5) / n as f64).sqrt();
                let mut rng = KeyedRng::from_parts(&[seed, 0x616c_6c6f, prefix as u64]);
                let jitter = rng.range(-0.04, 0.04);
                let m = ((frac + jitter).clamp(0.0, 1.0) * span as f64) as i64;
                let date = YearMonth::from_months_since_epoch(first.months_since_epoch() + m);
                entries.push(Slash8 { prefix, rir, date });
            }
        }

        let mut by_prefix = vec![None; 256];
        for (i, e) in entries.iter().enumerate() {
            by_prefix[e.prefix as usize] = Some(i);
        }
        AllocationRegistry { entries, by_prefix }
    }

    /// All allocations, ordered by prefix group.
    pub fn entries(&self) -> &[Slash8] {
        &self.entries
    }

    /// Allocation record of a /8, or `None` for reserved space.
    pub fn get(&self, prefix: u8) -> Option<&Slash8> {
        self.by_prefix[prefix as usize].map(|i| &self.entries[i])
    }

    /// Allocation date of a /8.
    pub fn date_of(&self, prefix: u8) -> Option<YearMonth> {
        self.get(prefix).map(|e| e.date)
    }

    /// Picks a /8 for a block in `rir`, no earlier than `earliest`,
    /// deterministically from `key`. Falls back to the registry's latest
    /// prefix when nothing matches.
    pub fn pick_prefix(&self, rir: Rir, earliest: YearMonth, key: u64) -> u8 {
        let candidates: Vec<&Slash8> =
            self.entries.iter().filter(|e| e.rir == rir && e.date >= earliest).collect();
        let pool: Vec<&Slash8> = if candidates.is_empty() {
            let mut all: Vec<&Slash8> = self.entries.iter().filter(|e| e.rir == rir).collect();
            all.sort_by_key(|e| e.date);
            all.into_iter().rev().take(3).collect()
        } else {
            candidates
        };
        let mut rng = KeyedRng::from_parts(&[0x7069_636b, key]);
        pool[rng.below(pool.len() as u64) as usize].prefix
    }

    /// The final allocation date (IANA exhaustion in this model).
    pub fn exhaustion(&self) -> YearMonth {
        self.entries.iter().map(|e| e.date).max().expect("registry is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_month_arithmetic() {
        let a = YearMonth::new(1983, 1);
        assert_eq!(a.months_since_epoch(), 0);
        let b = YearMonth::new(1984, 3);
        assert_eq!(b.months_since_epoch(), 14);
        assert_eq!(b.months_between(a), 14);
        assert_eq!(YearMonth::from_months_since_epoch(14), b);
        assert_eq!(format!("{}", YearMonth::new(2011, 2)), "2011-02");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn year_month_rejects_bad_month() {
        let _ = YearMonth::new(2000, 13);
    }

    #[test]
    fn year_month_parses_exactly_its_display() {
        for (year, month) in [(0, 1), (1983, 1), (9999, 12), (10_000, 7), (u16::MAX, 9)] {
            let ym = YearMonth::new(year, month);
            assert_eq!(ym.to_string().parse::<YearMonth>(), Ok(ym));
        }
        let bad = "|-|2001|2001-|-05|2001-5|2001-005|2001-13|2001-00|201-05|02001-05|65536-01|\
                   +2001-05|2001-+5|2001-05-01|2001/05| 2001-05|２００１-05";
        for bad in bad.split('|') {
            assert_eq!(bad.parse::<YearMonth>(), Err(ParseYearMonthError), "{bad:?}");
        }
    }

    #[test]
    fn registry_covers_unicast_space() {
        let reg = AllocationRegistry::synthesize(1);
        assert_eq!(reg.entries().len(), 221); // 223 − {10, 127}
        assert!(reg.get(10).is_none(), "private space unallocated");
        assert!(reg.get(127).is_none(), "loopback unallocated");
        assert!(reg.get(0).is_none());
        assert!(reg.get(224).is_none(), "multicast unallocated");
        assert!(reg.get(8).is_some());
        assert!(reg.get(223).is_some());
    }

    #[test]
    fn dates_lie_in_rir_windows() {
        let reg = AllocationRegistry::synthesize(2);
        for e in reg.entries() {
            let (_, first, last, _) = RIR_WINDOWS.iter().find(|&&(r, _, _, _)| r == e.rir).unwrap();
            assert!(e.date >= *first && e.date <= *last, "{:?}", e);
        }
        assert!(reg.exhaustion() <= YearMonth::new(2011, 2));
    }

    #[test]
    fn arin_allocations_precede_lacnic_on_average() {
        let reg = AllocationRegistry::synthesize(3);
        let mean_month = |rir: Rir| {
            let months: Vec<i64> = reg
                .entries()
                .iter()
                .filter(|e| e.rir == rir)
                .map(|e| e.date.months_since_epoch())
                .collect();
            months.iter().sum::<i64>() as f64 / months.len() as f64
        };
        assert!(mean_month(Rir::Arin) < mean_month(Rir::RipeNcc));
        assert!(mean_month(Rir::RipeNcc) < mean_month(Rir::Lacnic));
        assert!(mean_month(Rir::Arin) < mean_month(Rir::Afrinic));
    }

    #[test]
    fn pick_prefix_respects_earliest_and_rir() {
        let reg = AllocationRegistry::synthesize(5);
        let earliest = YearMonth::new(2005, 1);
        for key in 0..500u64 {
            let p = reg.pick_prefix(Rir::Apnic, earliest, key);
            let e = reg.get(p).unwrap();
            assert_eq!(e.rir, Rir::Apnic);
            assert!(e.date >= earliest, "picked {} from {}", p, e.date);
        }
    }

    #[test]
    fn pick_prefix_falls_back_when_window_impossible() {
        let reg = AllocationRegistry::synthesize(6);
        // No allocation after 2050 exists; must still return an APNIC /8.
        let p = reg.pick_prefix(Rir::Apnic, YearMonth::new(2050, 1), 9);
        assert_eq!(reg.get(p).unwrap().rir, Rir::Apnic);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = AllocationRegistry::synthesize(42);
        let b = AllocationRegistry::synthesize(42);
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.date, y.date);
        }
    }

    #[test]
    fn region_to_rir_mapping() {
        assert_eq!(Rir::for_region(Region::NorthernAmerica), Rir::Arin);
        assert_eq!(Rir::for_region(Region::EasternAsia), Rir::Apnic);
        assert_eq!(Rir::for_region(Region::SouthAmerica), Rir::Lacnic);
        assert_eq!(Rir::for_region(Region::NorthernAfrica), Rir::Afrinic);
        assert_eq!(Rir::for_region(Region::EasternEurope), Rir::RipeNcc);
    }
}
