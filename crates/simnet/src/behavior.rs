//! Per-address behaviour models.
//!
//! Every address in the synthetic Internet is a pure function from
//! `(world seed, block, address, time)` to respond/not-respond. Diurnal
//! addresses follow the model the paper validates against in §3.2.2: an
//! address turns on once per day at a phase `φ`, stays up for a nominal
//! duration, and both onset and duration may carry per-day Gaussian noise
//! (`σ_s`, `σ_d`). Noise draws are keyed by `(…, day)`, so a day's schedule
//! is stable however often it is probed.

use sleepwatch_geoecon::rng::KeyedRng;

/// Seconds per day.
pub(crate) const DAY_SECONDS: u64 = 86_400;

/// Stream tags keeping the behaviour's independent random draws apart.
const STREAM_ONSET: u64 = 0x6f6e_7365; // "onse"
const STREAM_DURATION: u64 = 0x6475_7261; // "dura"

/// Identity of one address for keying random streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrKey {
    /// World seed.
    pub seed: u64,
    /// Block identifier.
    pub block: u64,
    /// Address within the block (0–255).
    pub addr: u8,
}

impl AddrKey {
    fn parts(&self, stream: u64, extra: u64) -> [u64; 5] {
        [self.seed, stream, self.block, self.addr as u64, extra]
    }
}

/// How one address behaves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressBehavior {
    /// Never responds; not part of the block's ever-active set.
    Inactive,
    /// Active around the clock, responding to any probe with probability
    /// `avail` (models hosts behind lossy links or with duty cycles shorter
    /// than a round).
    On {
        /// Response probability while up.
        avail: f64,
    },
    /// Cycles with an arbitrary period — the DHCP lease-pool effect §4
    /// describes: "if dynamic addresses are allocated for some period p,
    /// and given out sequentially across a region that spans multiple /24
    /// blocks, then those blocks will see usage that changes with period
    /// p". Unlike [`AddressBehavior::Diurnal`] the period need not be 24 h
    /// and carries no day-by-day noise.
    Periodic {
        /// Full cycle length, hours.
        period_hours: f64,
        /// Phase offset as a fraction of the period, `[0, 1)`.
        phase_frac: f64,
        /// Fraction of the period the address is up, `(0, 1]`.
        duty: f64,
        /// Response probability while up.
        avail: f64,
    },
    /// Up for part of each day.
    Diurnal {
        /// Nominal daily onset, hours of *local* time in `[0, 24)`.
        onset_hours: f64,
        /// Nominal up-time per day, hours.
        duration_hours: f64,
        /// Per-day Gaussian jitter of the onset, hours (paper's `σ_s`).
        sigma_start: f64,
        /// Per-day Gaussian jitter of the duration, hours (paper's `σ_d`).
        sigma_duration: f64,
        /// Response probability while up.
        avail: f64,
        /// Local-time offset from UTC, hours.
        utc_offset_hours: f64,
    },
}

impl AddressBehavior {
    /// Whether the address ever responds (membership in `E(b)`).
    #[cfg(test)]
    pub(crate) fn is_ever_active(&self) -> bool {
        !matches!(self, AddressBehavior::Inactive)
    }

    /// Whether the address is *up* (would answer with its `avail`
    /// probability) at `time` seconds since the epoch.
    pub fn is_up(&self, key: AddrKey, time: u64) -> bool {
        self.is_up_given(time, |day| self.daily_window(key, day))
    }

    /// [`is_up`](Self::is_up) with the realized `(onset, duration)` of a
    /// local day supplied by `window` — drawn on the spot by the public
    /// entry points, read from a [`ProbeMemo`](crate::ProbeMemo) by the
    /// memoised ones. One body, so both evaluate the same expression tree.
    pub(crate) fn is_up_given(&self, time: u64, mut window: impl FnMut(i64) -> (f64, f64)) -> bool {
        match *self {
            AddressBehavior::Inactive => false,
            AddressBehavior::On { .. } => true,
            AddressBehavior::Periodic { period_hours, phase_frac, duty, .. } => {
                let cycles = time as f64 / (period_hours * 3_600.0) + phase_frac;
                cycles.fract() < duty
            }
            AddressBehavior::Diurnal { utc_offset_hours, .. } => {
                // Work in local time so onsets align with human schedules.
                let local = time as f64 + utc_offset_hours * 3_600.0;
                let day = (local / DAY_SECONDS as f64).floor();
                let tod_h = (local - day * DAY_SECONDS as f64) / 3_600.0;

                // An up-period that starts late yesterday can cover early
                // today, so evaluate yesterday's window too.
                for d in [day - 1.0, day] {
                    let (start, dur) = window(d as i64);
                    let offset = (day - d) * 24.0; // 24 when looking at yesterday
                    let t = tod_h + offset;
                    if t >= start && t < start + dur {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// That local day's realized (onset, duration) in hours, with per-day
    /// noise. A function of `(key, day)` only; `(0, 0)` — never up — for
    /// anything but a diurnal address.
    pub(crate) fn daily_window(&self, key: AddrKey, day: i64) -> (f64, f64) {
        let AddressBehavior::Diurnal {
            onset_hours,
            duration_hours,
            sigma_start,
            sigma_duration,
            ..
        } = *self
        else {
            return (0.0, 0.0);
        };
        let day_u = day as u64;
        let start = if sigma_start > 0.0 {
            let mut rng = KeyedRng::from_parts(&key.parts(STREAM_ONSET, day_u));
            onset_hours + rng.normal() * sigma_start
        } else {
            onset_hours
        };
        let dur = if sigma_duration > 0.0 {
            let mut rng = KeyedRng::from_parts(&key.parts(STREAM_DURATION, day_u));
            (duration_hours + rng.normal() * sigma_duration).clamp(0.0, 24.0)
        } else {
            duration_hours
        };
        (start, dur)
    }

    /// Probability the address answers a probe at `time` (0, or its `avail`
    /// while up), over a caller-supplied window source (see
    /// [`is_up_given`](Self::is_up_given)). This is the ground-truth
    /// expectation the estimators chase.
    #[inline]
    pub(crate) fn response_probability_given(
        &self,
        time: u64,
        window: impl FnMut(i64) -> (f64, f64),
    ) -> f64 {
        match *self {
            AddressBehavior::Inactive => 0.0,
            AddressBehavior::On { avail } => avail,
            AddressBehavior::Periodic { avail, .. } | AddressBehavior::Diurnal { avail, .. } => {
                if self.is_up_given(time, window) {
                    avail
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: AddrKey = AddrKey { seed: 99, block: 5, addr: 17 };

    fn response_probability(b: &AddressBehavior, time: u64) -> f64 {
        b.response_probability_given(time, |day| b.daily_window(KEY, day))
    }

    #[test]
    fn periodic_behavior_cycles_at_its_period() {
        // 6-hour lease, half duty: up for 3 h, down for 3 h.
        let b =
            AddressBehavior::Periodic { period_hours: 6.0, phase_frac: 0.0, duty: 0.5, avail: 1.0 };
        assert!(b.is_up(KEY, 0));
        assert!(b.is_up(KEY, 2 * 3_600));
        assert!(!b.is_up(KEY, 4 * 3_600));
        assert!(b.is_up(KEY, 6 * 3_600));
        assert!(b.is_ever_active());
        // Duty over many cycles.
        let n = 10_000u64;
        let up = (0..n).filter(|&i| b.is_up(KEY, i * 660)).count();
        let frac = up as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "duty {frac}");
    }

    #[test]
    fn periodic_phase_shifts_window() {
        let b = AddressBehavior::Periodic {
            period_hours: 12.0,
            phase_frac: 0.5,
            duty: 0.25,
            avail: 1.0,
        };
        // phase 0.5 of a 12 h period → window covers hours 6..9.
        assert!(!b.is_up(KEY, 3_600));
        assert!(b.is_up(KEY, 7 * 3_600));
        assert!(!b.is_up(KEY, 10 * 3_600));
    }

    fn diurnal(onset: f64, dur: f64, ss: f64, sd: f64, offset: f64) -> AddressBehavior {
        AddressBehavior::Diurnal {
            onset_hours: onset,
            duration_hours: dur,
            sigma_start: ss,
            sigma_duration: sd,
            avail: 1.0,
            utc_offset_hours: offset,
        }
    }

    #[test]
    fn inactive_never_responds() {
        let b = AddressBehavior::Inactive;
        for t in (0..DAY_SECONDS).step_by(3_600) {
            assert_eq!(response_probability(&b, t), 0.0);
        }
        assert!(!b.is_ever_active());
    }

    #[test]
    fn always_on_full_availability() {
        let b = AddressBehavior::On { avail: 1.0 };
        for t in (0..DAY_SECONDS).step_by(660) {
            assert_eq!(response_probability(&b, t), 1.0);
        }
    }

    #[test]
    fn clean_diurnal_respects_window() {
        // Up 08:00–16:00 UTC, no noise.
        let b = diurnal(8.0, 8.0, 0.0, 0.0, 0.0);
        assert!(!b.is_up(KEY, 7 * 3_600));
        assert!(b.is_up(KEY, 8 * 3_600));
        assert!(b.is_up(KEY, 12 * 3_600));
        assert!(b.is_up(KEY, 15 * 3_600 + 3_599));
        assert!(!b.is_up(KEY, 16 * 3_600));
        assert!(!b.is_up(KEY, 23 * 3_600));
    }

    #[test]
    fn diurnal_duty_cycle_over_many_days() {
        let b = diurnal(9.0, 8.0, 0.0, 0.0, 0.0);
        let rounds = 28 * 131;
        let up = (0..rounds).filter(|&r| b.is_up(KEY, r * 660)).count();
        let frac = up as f64 / rounds as f64;
        assert!((frac - 8.0 / 24.0).abs() < 0.01, "duty {frac}");
    }

    #[test]
    fn timezone_shifts_window() {
        // Onset 08:00 local at UTC+8 → up at 00:00 UTC.
        let b = diurnal(8.0, 8.0, 0.0, 0.0, 8.0);
        assert!(b.is_up(KEY, 0));
        assert!(b.is_up(KEY, 7 * 3_600));
        assert!(!b.is_up(KEY, 9 * 3_600));
    }

    #[test]
    fn window_wrapping_past_midnight() {
        // Starts 20:00, 10 hours → covers 20:00–06:00 next day.
        let b = diurnal(20.0, 10.0, 0.0, 0.0, 0.0);
        assert!(b.is_up(KEY, 21 * 3_600));
        assert!(b.is_up(KEY, DAY_SECONDS + 3 * 3_600)); // 03:00 next day
        assert!(!b.is_up(KEY, DAY_SECONDS + 7 * 3_600));
    }

    #[test]
    fn onset_noise_moves_start_but_preserves_mean_duty() {
        let b = diurnal(10.0, 8.0, 1.5, 0.0, 0.0);
        let days = 200;
        let mut up_rounds = 0usize;
        let mut total = 0usize;
        for r in 0..days * 131 {
            total += 1;
            if b.is_up(KEY, r as u64 * 660) {
                up_rounds += 1;
            }
        }
        let frac = up_rounds as f64 / total as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.02, "duty with onset noise {frac}");
    }

    #[test]
    fn duration_noise_clamped_to_day() {
        // Huge σ_d: durations clamp to [0, 24] so is_up never panics and the
        // mean duty stays in range.
        let b = diurnal(6.0, 12.0, 0.0, 20.0, 0.0);
        let mut up = 0;
        let n = 131 * 100;
        for r in 0..n {
            if b.is_up(KEY, r * 660) {
                up += 1;
            }
        }
        let frac = up as f64 / n as f64;
        assert!(frac > 0.2 && frac < 0.8, "duty {frac}");
    }

    #[test]
    fn different_addresses_have_independent_noise() {
        let b = diurnal(9.0, 8.0, 2.0, 0.0, 0.0);
        let k1 = AddrKey { seed: 1, block: 2, addr: 3 };
        let k2 = AddrKey { seed: 1, block: 2, addr: 4 };
        // At the window edge, noise makes the two addresses disagree on
        // some days.
        let t_edge = 9 * 3_600;
        let disagreements = (0..200)
            .filter(|&d| {
                let t = d * DAY_SECONDS + t_edge;
                b.is_up(k1, t) != b.is_up(k2, t)
            })
            .count();
        assert!(disagreements > 10, "only {disagreements} disagreements");
    }

    #[test]
    fn response_probability_matches_is_up() {
        let b = diurnal(8.0, 8.0, 0.0, 0.0, 0.0);
        assert_eq!(response_probability(&b, 9 * 3_600), 1.0);
        assert_eq!(response_probability(&b, 20 * 3_600), 0.0);
    }
}
