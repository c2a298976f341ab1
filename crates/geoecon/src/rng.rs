//! Deterministic, stateless randomness for the synthetic world.
//!
//! Every stochastic choice in the simulation derives from splitmix64 hashes
//! of *semantic keys* — (seed, block, address, round, purpose) — rather than
//! from a shared mutable generator. That makes results independent of
//! evaluation order and thread count, and lets any address's behaviour at
//! any instant be recomputed in O(1) without materializing timelines.
//!
//! This lives in `geoecon` (the lowest crate with simulation randomness) so
//! the world generator and the geolocation error model share one stream
//! discipline.

/// One splitmix64 step: advances the state and returns the next value.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state of [`hash_parts`] after a key's leading parts.
///
/// A caller that draws many keys sharing a head — a block's probes, keyed
/// `(seed, stream, block, addr, time)` — stores the head's prefix once and
/// hashes only the rest per draw. `KeyPrefix::new(head).hash(rest)` equals
/// `hash_parts` of the whole key bit for bit: `hash_parts` is written over
/// this type, so the mixing rule exists once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPrefix {
    state: u64,
    acc: u64,
}

impl KeyPrefix {
    /// The prefix of the empty key.
    // π fractional bits: fixed salt.
    pub(crate) const EMPTY: KeyPrefix = KeyPrefix { state: 0x243F_6A88_85A3_08D3, acc: 0 };

    /// The prefix of a key whose leading parts are `head`.
    #[inline]
    pub fn new(head: &[u64]) -> Self {
        Self::EMPTY.then(head)
    }

    /// This prefix extended by `parts`.
    #[inline]
    fn then(mut self, parts: &[u64]) -> Self {
        for &p in parts {
            self.state ^= p;
            self.acc = splitmix64(&mut self.state) ^ self.acc.rotate_left(17);
        }
        self
    }

    /// The hash of the key this prefix starts, ending in `rest`.
    #[inline]
    pub fn hash(self, rest: &[u64]) -> u64 {
        let KeyPrefix { mut state, acc } = self.then(rest);
        // One extra scramble so short keys are well mixed too.
        state ^= acc;
        splitmix64(&mut state)
    }

    /// One uniform `[0, 1)` draw from the key ending in `rest`.
    #[inline]
    pub fn uniform(self, rest: &[u64]) -> f64 {
        unit_f64(self.hash(rest))
    }

    /// One Bernoulli draw with probability `p` from the key ending in `rest`.
    #[inline]
    pub fn chance(self, p: f64, rest: &[u64]) -> bool {
        self.uniform(rest) < p
    }
}

impl Default for KeyPrefix {
    /// `KeyPrefix::EMPTY`.
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Mixes a list of key parts into a single well-distributed 64-bit value.
#[inline]
pub fn hash_parts(parts: &[u64]) -> u64 {
    KeyPrefix::EMPTY.hash(parts)
}

/// The 53 high bits of `h` as a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A small deterministic generator seeded from semantic key parts.
#[derive(Debug, Clone)]
pub struct KeyedRng {
    state: u64,
}

impl KeyedRng {
    /// Creates a generator keyed by the given parts.
    #[inline]
    pub fn from_parts(parts: &[u64]) -> Self {
        KeyedRng { state: hash_parts(parts) }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift rejection-free mapping; bias is < 2⁻⁶⁴·n, which is
        // immaterial for simulation purposes.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE); // avoid ln(0)
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Convenience: one uniform `[0, 1)` draw from key parts.
#[inline]
pub fn uniform_at(parts: &[u64]) -> f64 {
    KeyPrefix::EMPTY.uniform(parts)
}

/// Convenience: one Bernoulli draw from key parts.
#[inline]
pub fn chance_at(p: f64, parts: &[u64]) -> bool {
    KeyPrefix::EMPTY.chance(p, parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_parts(&[1, 2, 3]), hash_parts(&[1, 2, 3]));
        assert_ne!(hash_parts(&[1, 2, 3]), hash_parts(&[1, 2, 4]));
        assert_ne!(hash_parts(&[1, 2, 3]), hash_parts(&[3, 2, 1]));
    }

    #[test]
    fn order_sensitivity_of_parts() {
        // (block=5, addr=1) must differ from (block=1, addr=5).
        assert_ne!(hash_parts(&[5, 1]), hash_parts(&[1, 5]));
    }

    #[test]
    fn empty_and_zero_keys_do_not_collide_trivially() {
        assert_ne!(hash_parts(&[]), hash_parts(&[0]));
        assert_ne!(hash_parts(&[0]), hash_parts(&[0, 0]));
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let mut rng = KeyedRng::from_parts(&[42]);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = KeyedRng::from_parts(&[7]);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = KeyedRng::from_parts(&[9]);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = KeyedRng::from_parts(&[1234]);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn stateless_helpers_match_keyed_semantics() {
        let u = uniform_at(&[3, 4, 5]);
        assert!((0.0..1.0).contains(&u));
        assert_eq!(uniform_at(&[3, 4, 5]), u);
        assert!(chance_at(1.0, &[1]));
        assert!(!chance_at(0.0, &[1]));
    }

    #[test]
    fn streams_are_independent_ish() {
        // Correlation between two differently-keyed streams should be tiny.
        let mut a = KeyedRng::from_parts(&[1, 0]);
        let mut b = KeyedRng::from_parts(&[1, 1]);
        let n = 5_000;
        let xs: Vec<f64> = (0..n).map(|_| a.next_f64()).collect();
        let ys: Vec<f64> = (0..n).map(|_| b.next_f64()).collect();
        let mx = xs.iter().sum::<f64>() / n as f64;
        let my = ys.iter().sum::<f64>() / n as f64;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for i in 0..n {
            sxy += (xs[i] - mx) * (ys[i] - my);
            sxx += (xs[i] - mx) * (xs[i] - mx);
            syy += (ys[i] - my) * (ys[i] - my);
        }
        let r = sxy / (sxx * syy).sqrt();
        assert!(r.abs() < 0.05, "cross-stream correlation {r}");
    }
}
