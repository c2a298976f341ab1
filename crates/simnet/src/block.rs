//! /24 blocks: compact specs that expand, on demand, into 256 per-address
//! behaviours.
//!
//! A [`BlockSpec`] does not store 256 [`AddressBehavior`]s — it stores a
//! [`BlockProfile`] (how many stable / diurnal / inactive addresses, and
//! their parameters) plus a per-block address permutation, and derives any
//! address's behaviour in O(1). That keeps a multi-hundred-thousand-block
//! world in a few tens of megabytes while remaining bit-for-bit
//! reproducible.
//!
//! Deriving is cheap once and wasteful 11 000 times: a 35-day probing run
//! asks about the same ≤ 256 addresses a few times a day, and each ask
//! re-derives the behaviour and re-draws two days' up-windows that only
//! depend on `(block, addr)` and `(block, addr, day)`. [`ProbeMemo`] keeps
//! those per block — ≈26 KB owned by whoever probes — and answers
//! [`ProbeMemo::probe`] / [`ProbeMemo::probe_outcome`] through the very
//! bodies behind [`BlockSpec::probe`] / [`BlockSpec::probe_outcome`]: one
//! expression tree, values either derived on the spot or read back.

use crate::behavior::{AddrKey, AddressBehavior};
use crate::world::A12W_START;
use sleepwatch_geoecon::rng::{KeyPrefix, KeyedRng};
use sleepwatch_geoecon::YearMonth;

/// Link technology classes a block can carry (the generator's side of
/// §2.3.3; the measurement side infers these back from reverse DNS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum LinkClass {
    Static,
    Dynamic,
    Dhcp,
    Ppp,
    Dsl,
    Dialup,
    Cable,
    Server,
    Residential,
}

impl LinkClass {
    /// All classes.
    pub const ALL: [LinkClass; 9] = [
        LinkClass::Static,
        LinkClass::Dynamic,
        LinkClass::Dhcp,
        LinkClass::Ppp,
        LinkClass::Dsl,
        LinkClass::Dialup,
        LinkClass::Cable,
        LinkClass::Server,
        LinkClass::Residential,
    ];

    /// The keyword this class plants into reverse DNS names — the same
    /// token §2.3.3's classifier searches for.
    pub fn keyword(self) -> &'static str {
        match self {
            LinkClass::Static => "sta",
            LinkClass::Dynamic => "dyn",
            LinkClass::Dhcp => "dhcp",
            LinkClass::Ppp => "ppp",
            LinkClass::Dsl => "dsl",
            LinkClass::Dialup => "dial",
            LinkClass::Cable => "cable",
            LinkClass::Server => "srv",
            LinkClass::Residential => "res",
        }
    }
}

/// A block's link classes in the order they were drawn — a primary and
/// at most one secondary — held inline, so that generating a spec
/// allocates nothing for them. Reads as a slice of classes.
#[derive(Clone, Copy)]
pub struct Links {
    slots: [LinkClass; 2],
    len: u8,
}

impl Links {
    /// No link class.
    pub const NONE: Links = Links { slots: [LinkClass::Static; 2], len: 0 };

    /// Appends `class`.
    ///
    /// # Panics
    /// When the block already has two classes.
    pub fn push(&mut self, class: LinkClass) {
        assert!(self.len < 2, "a block carries at most two link classes");
        self.slots[usize::from(self.len)] = class;
        self.len += 1;
    }

    /// Removes every class.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl std::ops::Deref for Links {
    type Target = [LinkClass];

    fn deref(&self) -> &[LinkClass] {
        &self.slots[..usize::from(self.len)]
    }
}

impl FromIterator<LinkClass> for Links {
    /// # Panics
    /// On more than two classes.
    fn from_iter<I: IntoIterator<Item = LinkClass>>(classes: I) -> Self {
        let mut links = Links::NONE;
        for class in classes {
            links.push(class);
        }
        links
    }
}

impl From<[LinkClass; 1]> for Links {
    fn from([class]: [LinkClass; 1]) -> Self {
        Links { slots: [class; 2], len: 1 }
    }
}

impl From<[LinkClass; 2]> for Links {
    fn from(slots: [LinkClass; 2]) -> Self {
        Links { slots, len: 2 }
    }
}

impl PartialEq for Links {
    fn eq(&self, other: &Links) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Links {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What one ICMP echo request elicited. Trinocular's belief update
/// distinguishes all three: a reply is strong up-evidence, a timeout is
/// weak down-evidence, and an ICMP *unreachable* error from an upstream
/// router is strong down-evidence (the router itself says the network is
/// gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// Echo reply received.
    Reply,
    /// No answer before the timeout.
    Timeout,
    /// ICMP destination/network unreachable from an intermediate router.
    Unreachable,
}

impl ProbeOutcome {
    /// `true` for [`ProbeOutcome::Reply`].
    pub fn is_positive(self) -> bool {
        self == ProbeOutcome::Reply
    }
}

/// Population parameters of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockProfile {
    /// Addresses that are up around the clock.
    pub n_stable: u16,
    /// Addresses with daily on/off cycles.
    pub n_diurnal: u16,
    /// Response probability of stable addresses.
    pub stable_avail: f64,
    /// Response probability of diurnal addresses while up.
    pub diurnal_avail: f64,
    /// Block-level mean daily onset, hours local time.
    pub onset_hours: f64,
    /// Per-address onset spread: address onsets are uniform in
    /// `[onset, onset + onset_spread)` (the paper's `Φ`).
    pub onset_spread: f64,
    /// Block-level nominal up-time, hours.
    pub duration_hours: f64,
    /// Per-address fixed duration spread (uniform, ± half of this).
    pub duration_spread: f64,
    /// Per-day onset jitter `σ_s`, hours.
    pub sigma_start: f64,
    /// Per-day duration jitter `σ_d`, hours.
    pub sigma_duration: f64,
    /// Local-time offset from UTC, hours.
    pub utc_offset_hours: f64,
}

impl BlockProfile {
    /// Number of ever-active addresses `|E(b)|`.
    pub(crate) fn ever_active(&self) -> u16 {
        self.n_stable + self.n_diurnal
    }

    /// A profile with only always-on addresses.
    pub fn always_on(n: u16, avail: f64) -> Self {
        BlockProfile {
            n_stable: n,
            n_diurnal: 0,
            stable_avail: avail,
            diurnal_avail: 0.0,
            onset_hours: 0.0,
            onset_spread: 0.0,
            duration_hours: 0.0,
            duration_spread: 0.0,
            sigma_start: 0.0,
            sigma_duration: 0.0,
            utc_offset_hours: 0.0,
        }
    }
}

/// Per-address parameter-jitter streams.
const STREAM_ADDR_ONSET: u64 = 0x6164_6f6e; // "adon"
const STREAM_ADDR_DUR: u64 = 0x6164_6475; // "addu"
const STREAM_ADDR_AVAIL: u64 = 0x6164_6176; // "adav"
const STREAM_PROBE: u64 = 0x7072_6f62; // "prob"
const STREAM_UNREACH: u64 = 0x756e_7263; // "unrc"
const STREAM_LEASE: u64 = 0x6c65_6173; // "leas"

/// Parameters of a DHCP-lease sweep (see [`BlockSpec::lease`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseParams {
    /// Sweep period `p`, hours.
    pub period_hours: f64,
    /// Fraction of each period this block's addresses are allocated.
    pub duty: f64,
}

/// `true` on Saturdays and Sundays UTC (the unix epoch was a Thursday).
pub(crate) fn is_weekend(time: u64) -> bool {
    let dow = (time / 86_400 + 4) % 7; // 0 = Sunday
    dow == 0 || dow == 6
}

/// Per-address availability jitter (±0.08). A base of exactly 1.0 means
/// "always responding" — the §3.2.2 controlled blocks depend on that — so
/// it is passed through unjittered.
fn jittered_avail(base: f64, block: &BlockSpec, addr: u8) -> f64 {
    if base >= 1.0 {
        return 1.0;
    }
    let mut rng = KeyedRng::from_parts(&[block.seed, STREAM_ADDR_AVAIL, block.id, addr as u64]);
    (base + rng.range(-0.08, 0.08)).clamp(0.02, 1.0)
}

/// One /24 block of the synthetic world.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Block index, unique in the world.
    pub id: u64,
    /// World seed (behaviour streams are keyed off it).
    pub seed: u64,
    /// Index into the country table.
    pub country_idx: usize,
    /// Origin AS.
    pub asn: u32,
    /// The /8 this block lives in.
    pub prefix8: u8,
    /// Allocation date of that /8.
    pub alloc_date: YearMonth,
    /// True longitude of the block's users.
    pub lon: f64,
    /// True latitude.
    pub lat: f64,
    /// Link technologies present (1–2 classes).
    pub links: Links,
    /// Address-population parameters.
    pub profile: BlockProfile,
    /// Optional outage: no address responds in `[start, end)` (seconds).
    pub outage: Option<(u64, u64)>,
    /// When set, the block's cycling addresses follow a DHCP-lease sweep of
    /// this period instead of human daily schedules (§4's non-24-hour
    /// periodicity). The diurnal slot population cycles together, phased by
    /// the block's position in the larger allocation pool.
    pub lease: Option<LeaseParams>,
    /// Weekend modulation: active addresses respond with probability scaled
    /// by this factor on Saturdays and Sundays (UTC). 1.0 = no weekend
    /// effect; enterprise networks sit nearer 0.6. Introduces the 7-day
    /// periodicity real blocks show, which the daily classifier must
    /// tolerate as a non-harmonic competitor.
    pub weekend_scale: f64,
    /// Slow availability drift in *addresses per day* (may be negative):
    /// every active address's response probability shifts by
    /// `drift/256` per day relative to `drift_ref`. Real blocks renumber
    /// and grow — the paper found only 80.3 % of survey blocks drift less
    /// than one address/day.
    pub drift_addr_per_day: f64,
    /// Reference time for the drift (usually the measurement start).
    pub drift_ref: u64,
    /// Stale "historical" availability estimate handed to the estimators as
    /// their starting point (deliberately imperfect, per §2.1.1).
    pub hist_avail: f64,
    /// Ground-truth label: was this block generated as diurnal? The
    /// measurement pipeline must never read this; experiments use it to
    /// score detection accuracy.
    pub planted_diurnal: bool,
    /// Offset of the slot→address permutation.
    pub perm_offset: u8,
    /// Odd step of the slot→address permutation.
    pub perm_step: u8,
}

impl BlockSpec {
    /// Creates a block with an identity address permutation and neutral
    /// metadata — enough for estimator / probing tests that don't need a
    /// full world.
    pub fn bare(id: u64, seed: u64, profile: BlockProfile) -> Self {
        BlockSpec {
            id,
            seed,
            country_idx: 0,
            asn: 0,
            prefix8: 1,
            alloc_date: YearMonth::new(1990, 1),
            lon: 0.0,
            lat: 0.0,
            links: Links::NONE,
            profile,
            outage: None,
            lease: None,
            weekend_scale: 1.0,
            drift_addr_per_day: 0.0,
            drift_ref: 0,
            hist_avail: 0.5,
            planted_diurnal: profile.n_diurnal > profile.n_stable,
            perm_offset: 0,
            perm_step: 1,
        }
    }

    /// Maps a logical slot (0..255; stable first, then diurnal, then
    /// inactive) to its physical address.
    pub fn slot_to_addr(&self, slot: u8) -> u8 {
        self.perm_offset.wrapping_add(slot.wrapping_mul(self.perm_step))
    }

    /// Inverse of [`BlockSpec::slot_to_addr`].
    pub fn addr_to_slot(&self, addr: u8) -> u8 {
        // perm_step is odd, hence invertible mod 256.
        let inv = Self::odd_inverse(self.perm_step);
        addr.wrapping_sub(self.perm_offset).wrapping_mul(inv)
    }

    /// Multiplicative inverse of an odd byte modulo 256 (Newton iteration).
    fn odd_inverse(step: u8) -> u8 {
        debug_assert!(step % 2 == 1, "permutation step must be odd");
        let mut inv: u8 = step; // correct mod 2³
        for _ in 0..3 {
            inv = inv.wrapping_mul(2u8.wrapping_sub(step.wrapping_mul(inv)));
        }
        inv
    }

    /// The behaviour of a physical address.
    pub fn behavior_of(&self, addr: u8) -> AddressBehavior {
        let slot = self.addr_to_slot(addr) as u16;
        let p = &self.profile;
        if slot < p.n_stable {
            AddressBehavior::On { avail: jittered_avail(p.stable_avail, self, addr) }
        } else if slot < p.n_stable + p.n_diurnal {
            if let Some(lease) = self.lease {
                // Lease sweep: the whole pool segment cycles together; the
                // block's phase in the regional pool is keyed, with a small
                // sequential skew across its addresses (sequential
                // hand-out).
                let mut ph = KeyedRng::from_parts(&[self.seed, STREAM_LEASE, self.id]);
                let base_phase = ph.next_f64();
                let skew = (slot - p.n_stable) as f64 / 256.0 * 0.1;
                return AddressBehavior::Periodic {
                    period_hours: lease.period_hours,
                    phase_frac: (base_phase + skew).fract(),
                    duty: lease.duty,
                    avail: jittered_avail(p.diurnal_avail, self, addr),
                };
            }
            let mut on =
                KeyedRng::from_parts(&[self.seed, STREAM_ADDR_ONSET, self.id, addr as u64]);
            let onset = p.onset_hours + on.next_f64() * p.onset_spread;
            let mut du = KeyedRng::from_parts(&[self.seed, STREAM_ADDR_DUR, self.id, addr as u64]);
            let duration = (p.duration_hours
                + du.range(-p.duration_spread / 2.0, p.duration_spread / 2.0))
            .clamp(0.5, 24.0);
            let avail = jittered_avail(p.diurnal_avail, self, addr);
            AddressBehavior::Diurnal {
                onset_hours: onset,
                duration_hours: duration,
                sigma_start: p.sigma_start,
                sigma_duration: p.sigma_duration,
                avail,
                utc_offset_hours: p.utc_offset_hours,
            }
        } else {
            AddressBehavior::Inactive
        }
    }

    /// Physical addresses of the ever-active set `E(b)`, in slot order.
    pub fn ever_active_addrs(&self) -> Vec<u8> {
        (0..self.profile.ever_active().min(256)).map(|s| self.slot_to_addr(s as u8)).collect()
    }

    /// `|E(b)|`.
    pub fn ever_active_count(&self) -> usize {
        self.profile.ever_active().min(256) as usize
    }

    /// `true` while the block is inside its injected outage window.
    pub(crate) fn in_outage(&self, time: u64) -> bool {
        matches!(self.outage, Some((s, e)) if time >= s && time < e)
    }

    /// Drift-adjusted probability that `addr` answers a probe at `time`
    /// (0 during outages).
    pub fn response_probability(&self, addr: u8, time: u64) -> f64 {
        self.response_probability_via(&mut Derived, addr, time)
    }

    fn response_probability_via(&self, source: &mut impl Schedules, addr: u8, time: u64) -> f64 {
        if self.in_outage(time) {
            return 0.0;
        }
        let key = AddrKey { seed: self.seed, block: self.id, addr };
        let behavior = source.behavior(self, addr);
        let mut p =
            behavior.response_probability_given(time, |day| source.window(&behavior, key, day));
        if p <= 0.0 {
            return 0.0;
        }
        if self.weekend_scale != 1.0 && is_weekend(time) {
            p *= self.weekend_scale;
        }
        if self.drift_addr_per_day != 0.0 {
            let days = (time as f64 - self.drift_ref as f64) / 86_400.0;
            p += self.drift_addr_per_day / 256.0 * days;
        }
        p.clamp(0.0, 1.0)
    }

    /// Samples one probe of `addr` at `time`. Deterministic in
    /// `(block, addr, time)`, so full runs replay exactly.
    pub fn probe(&self, addr: u8, time: u64) -> bool {
        self.probe_via(&mut Derived, addr, time)
    }

    /// The prefix every probe draw of this block shares.
    fn probe_key(&self) -> KeyPrefix {
        KeyPrefix::new(&[self.seed, STREAM_PROBE, self.id])
    }

    fn probe_via(&self, source: &mut impl Schedules, addr: u8, time: u64) -> bool {
        let p = self.response_probability_via(source, addr, time);
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            source.probe_key(self).uniform(&[addr as u64, time]) < p
        }
    }

    /// Fraction of non-answers during a routed outage that come back as
    /// explicit ICMP unreachable errors (the rest silently time out).
    const OUTAGE_UNREACHABLE_RATE: f64 = 0.7;

    /// Samples one probe with full ICMP semantics: replies, silent
    /// timeouts, and — during routed outages — explicit unreachable errors
    /// from upstream routers.
    pub fn probe_outcome(&self, addr: u8, time: u64) -> ProbeOutcome {
        self.probe_outcome_via(&mut Derived, addr, time)
    }

    fn probe_outcome_via(&self, source: &mut impl Schedules, addr: u8, time: u64) -> ProbeOutcome {
        if self.in_outage(time) {
            let unreachable = sleepwatch_geoecon::rng::chance_at(
                Self::OUTAGE_UNREACHABLE_RATE,
                &[self.seed, STREAM_UNREACH, self.id, addr as u64, time],
            );
            return if unreachable { ProbeOutcome::Unreachable } else { ProbeOutcome::Timeout };
        }
        if self.probe_via(source, addr, time) {
            ProbeOutcome::Reply
        } else {
            // A live block's unanswering addresses just drop the probe;
            // routers don't generate errors for hosts that are merely off.
            ProbeOutcome::Timeout
        }
    }

    /// Ground-truth availability at `time`: the mean response probability
    /// over `E(b)` (the quantity the paper measures from full surveys).
    pub fn true_availability(&self, time: u64) -> f64 {
        let e = self.ever_active_count();
        if e == 0 || self.in_outage(time) {
            return 0.0;
        }
        let mut sum = 0.0;
        for slot in 0..e {
            let addr = self.slot_to_addr(slot as u8);
            sum += self.response_probability(addr, time);
        }
        sum / e as f64
    }

    /// Number of addresses currently up.
    pub fn active_count(&self, time: u64) -> usize {
        if self.in_outage(time) {
            return 0;
        }
        (0..self.ever_active_count())
            .filter(|&slot| {
                let addr = self.slot_to_addr(slot as u8);
                let key = AddrKey { seed: self.seed, block: self.id, addr };
                self.behavior_of(addr).is_up(key, time)
            })
            .count()
    }
}

/// Where a probe evaluation reads an address's schedule from: its
/// [`AddressBehavior`] (a function of `(block, addr)`) and the realized
/// up-window of one local day (a function of `(block, addr, day)`). The
/// `*_via` bodies on [`BlockSpec`] are written once over this trait, so
/// the derive-on-the-spot and memoised callers evaluate one expression
/// tree on the same values.
trait Schedules {
    fn behavior(&mut self, block: &BlockSpec, addr: u8) -> AddressBehavior;
    fn window(&mut self, behavior: &AddressBehavior, key: AddrKey, day: i64) -> (f64, f64);
    /// The `(seed, STREAM_PROBE, id)` head of every probe draw's key.
    fn probe_key(&self, block: &BlockSpec) -> KeyPrefix;
}

/// Derives everything afresh on every call (the public `BlockSpec` API).
struct Derived;

impl Schedules for Derived {
    fn behavior(&mut self, block: &BlockSpec, addr: u8) -> AddressBehavior {
        block.behavior_of(addr)
    }

    fn window(&mut self, behavior: &AddressBehavior, key: AddrKey, day: i64) -> (f64, f64) {
        behavior.daily_window(key, day)
    }

    fn probe_key(&self, block: &BlockSpec) -> KeyPrefix {
        block.probe_key()
    }
}

/// One local day's realized up-window, tagged by its day number.
#[derive(Debug, Clone, Copy)]
struct DayWindow {
    day: i64,
    start: f64,
    dur: f64,
}

/// No probe time maps to this day (`u64::MAX` seconds is day ≈ 2·10¹⁴).
const NO_DAY: i64 = i64::MIN;

/// Memo state of one physical address.
#[derive(Debug, Clone, Copy)]
struct AddrMemo {
    behavior: Option<AddressBehavior>,
    /// Ring indexed by `day & 1`. A probe reads only its local `day − 1`
    /// and `day`, which land in different entries, and probe time is
    /// monotone within a run, so two entries hold everything a run
    /// re-reads. The tag makes any other access order a miss, not an error.
    windows: [DayWindow; 2],
}

impl AddrMemo {
    const EMPTY: AddrMemo =
        AddrMemo { behavior: None, windows: [DayWindow { day: NO_DAY, start: 0.0, dur: 0.0 }; 2] };
}

/// Per-block memo of what a probe re-derives but `time` does not change:
/// each address's behaviour and its two most recent daily windows, and
/// the block's probe-key prefix.
///
/// [`probe`](Self::probe) and [`probe_outcome`](Self::probe_outcome)
/// return exactly what the [`BlockSpec`] methods of the same name do —
/// they run the same bodies and only skip re-drawing values already
/// drawn — for any address (all 256 octets have an entry: a churned walk
/// may hold inactive ones) and any time sequence. ≈26 KB, allocated on the
/// first [`reset`](Self::reset) and reused from then on.
#[derive(Debug, Clone, Default)]
pub struct ProbeMemo {
    seed: u64,
    id: u64,
    probe_key: KeyPrefix,
    addrs: Vec<AddrMemo>,
}

impl ProbeMemo {
    /// A memo for `block`.
    pub fn new(block: &BlockSpec) -> Self {
        let mut memo = ProbeMemo::default();
        memo.reset(block);
        memo
    }

    /// Forgets everything and binds the memo to `block`. Must precede the
    /// first probe of a block, and follow any edit of the block's profile,
    /// lease or permutation.
    pub fn reset(&mut self, block: &BlockSpec) {
        self.seed = block.seed;
        self.id = block.id;
        self.probe_key = block.probe_key();
        self.addrs.clear();
        self.addrs.resize(256, AddrMemo::EMPTY);
    }

    /// Heap bytes currently reserved.
    pub fn footprint_bytes(&self) -> usize {
        self.addrs.capacity() * std::mem::size_of::<AddrMemo>()
    }

    /// [`BlockSpec::probe`] through the memo.
    #[inline]
    pub fn probe(&mut self, block: &BlockSpec, addr: u8, time: u64) -> bool {
        self.debug_check(block);
        block.probe_via(self, addr, time)
    }

    /// [`BlockSpec::probe_outcome`] through the memo.
    #[inline]
    pub fn probe_outcome(&mut self, block: &BlockSpec, addr: u8, time: u64) -> ProbeOutcome {
        self.debug_check(block);
        block.probe_outcome_via(self, addr, time)
    }

    fn debug_check(&self, block: &BlockSpec) {
        debug_assert!(
            self.addrs.len() == 256 && (self.seed, self.id) == (block.seed, block.id),
            "memo was reset for block ({}, {}), probed as ({}, {})",
            self.seed,
            self.id,
            block.seed,
            block.id
        );
    }

    /// Test-only: fills the memo with a *different* block's behaviours for
    /// every octet and always-up windows tagged with the day numbers a run
    /// starting at time 0 or at [`A12W_START`] reads first, so a prober that
    /// skipped [`reset`](Self::reset) would consume them.
    #[doc(hidden)]
    pub fn poison(&mut self, seed: u64) {
        let mut profile = BlockProfile::always_on(0, 0.5);
        profile.n_diurnal = 256;
        profile.diurnal_avail = 1.0;
        let other = BlockSpec::bare(seed ^ 0x5EED, seed, profile);
        self.reset(&other);
        for (addr, memo) in self.addrs.iter_mut().enumerate() {
            memo.behavior = Some(other.behavior_of(addr as u8));
            // Local days −1..=0 around the start (the offset decides which
            // is "today"), alternating between the two start times.
            let start = if addr & 1 == 0 { 0 } else { A12W_START };
            let day = (start / 86_400) as i64 - ((addr >> 1) & 1) as i64;
            for d in [day - 1, day] {
                memo.windows[(d & 1) as usize] = DayWindow { day: d, start: 0.0, dur: 48.0 };
            }
        }
    }
}

impl Schedules for ProbeMemo {
    fn behavior(&mut self, block: &BlockSpec, addr: u8) -> AddressBehavior {
        *self.addrs[addr as usize].behavior.get_or_insert_with(|| block.behavior_of(addr))
    }

    fn window(&mut self, behavior: &AddressBehavior, key: AddrKey, day: i64) -> (f64, f64) {
        let w = &mut self.addrs[key.addr as usize].windows[(day & 1) as usize];
        if w.day != day {
            let (start, dur) = behavior.daily_window(key, day);
            *w = DayWindow { day, start, dur };
        }
        (w.start, w.dur)
    }

    fn probe_key(&self, _block: &BlockSpec) -> KeyPrefix {
        self.probe_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal_profile() -> BlockProfile {
        BlockProfile {
            n_stable: 50,
            n_diurnal: 100,
            stable_avail: 0.9,
            diurnal_avail: 0.9,
            onset_hours: 8.0,
            onset_spread: 2.0,
            duration_hours: 8.0,
            duration_spread: 2.0,
            sigma_start: 0.5,
            sigma_duration: 0.5,
            utc_offset_hours: 0.0,
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut b = BlockSpec::bare(1, 2, BlockProfile::always_on(100, 0.8));
        b.perm_offset = 37;
        b.perm_step = 91; // odd
        let mut seen = [false; 256];
        for slot in 0..=255u8 {
            let a = b.slot_to_addr(slot);
            assert!(!seen[a as usize], "collision at {a}");
            seen[a as usize] = true;
            assert_eq!(b.addr_to_slot(a), slot, "roundtrip failed for slot {slot}");
        }
    }

    #[test]
    fn odd_inverse_is_correct_for_all_odd_bytes() {
        for step in (1..=255u8).step_by(2) {
            let inv = BlockSpec::odd_inverse(step);
            assert_eq!(step.wrapping_mul(inv), 1, "step {step}");
        }
    }

    #[test]
    fn slot_classes_partition_addresses() {
        let mut b = BlockSpec::bare(7, 3, diurnal_profile());
        b.perm_offset = 11;
        b.perm_step = 33;
        let mut stable = 0;
        let mut diurnal = 0;
        let mut inactive = 0;
        for addr in 0..=255u8 {
            match b.behavior_of(addr) {
                AddressBehavior::On { .. } => stable += 1,
                AddressBehavior::Diurnal { .. } | AddressBehavior::Periodic { .. } => diurnal += 1,
                AddressBehavior::Inactive => inactive += 1,
            }
        }
        assert_eq!(stable, 50);
        assert_eq!(diurnal, 100);
        assert_eq!(inactive, 106);
    }

    #[test]
    fn ever_active_set_is_consistent() {
        let b = BlockSpec::bare(9, 4, diurnal_profile());
        let e = b.ever_active_addrs();
        assert_eq!(e.len(), 150);
        for &a in &e {
            assert!(b.behavior_of(a).is_ever_active());
        }
    }

    #[test]
    fn true_availability_of_always_on_block() {
        let b = BlockSpec::bare(1, 5, BlockProfile::always_on(64, 0.7));
        let a = b.true_availability(12_345);
        // Per-address jitter is ±0.08 uniform; the mean should be close.
        assert!((a - 0.7).abs() < 0.05, "A = {a}");
        // Constant over time.
        assert_eq!(a, b.true_availability(999_999));
    }

    #[test]
    fn diurnal_block_availability_swings_daily() {
        let mut p = diurnal_profile();
        p.sigma_start = 0.0;
        p.sigma_duration = 0.0;
        p.onset_spread = 0.5;
        let b = BlockSpec::bare(2, 6, p);
        let day_a = b.true_availability(12 * 3_600); // mid-window
        let night_a = b.true_availability(22 * 3_600);
        assert!(day_a > 0.8, "day {day_a}");
        // At night only the 50 stable of 150 respond: ~0.3·0.9
        assert!((night_a - 50.0 / 150.0 * 0.9).abs() < 0.05, "night {night_a}");
    }

    #[test]
    fn outage_silences_block() {
        let mut b = BlockSpec::bare(3, 7, BlockProfile::always_on(100, 1.0));
        b.outage = Some((1_000, 2_000));
        assert!(b.probe(b.slot_to_addr(0), 500));
        assert!(!b.probe(b.slot_to_addr(0), 1_500));
        assert_eq!(b.true_availability(1_500), 0.0);
        assert_eq!(b.active_count(1_500), 0);
        assert!(b.true_availability(2_000) > 0.5);
    }

    #[test]
    fn active_count_matches_profile_midday() {
        let mut p = diurnal_profile();
        p.onset_spread = 0.0;
        p.sigma_start = 0.0;
        p.sigma_duration = 0.0;
        p.duration_spread = 0.0;
        let b = BlockSpec::bare(4, 8, p);
        // At 12:00 every diurnal address (08–16h) plus all stable are up.
        assert_eq!(b.active_count(12 * 3_600), 150);
        // At 20:00 only stable.
        assert_eq!(b.active_count(20 * 3_600), 50);
    }

    #[test]
    fn per_address_parameters_vary_but_deterministically() {
        let b = BlockSpec::bare(5, 9, diurnal_profile());
        let addrs = b.ever_active_addrs();
        let d1 = b.behavior_of(addrs[60]);
        let d2 = b.behavior_of(addrs[61]);
        assert_ne!(d1, d2, "addresses should differ in jittered parameters");
        assert_eq!(d1, b.behavior_of(addrs[60]), "derivation is deterministic");
    }

    #[test]
    fn lease_blocks_cycle_at_their_period() {
        let mut b = BlockSpec::bare(12, 44, diurnal_profile());
        b.lease = Some(LeaseParams { period_hours: 9.0, duty: 0.5 });
        // Availability oscillates with period 9 h, not 24 h: samples one
        // lease-period apart match far better than samples 12 h apart.
        let series: Vec<f64> = (0..131 * 14).map(|r| b.true_availability(r * 660)).collect();
        let lag = |hours: f64| -> f64 {
            let k = (hours * 3_600.0 / 660.0).round() as usize;
            let n = series.len() - k;
            let mut d = 0.0;
            for i in 0..n {
                d += (series[i] - series[i + k]).abs();
            }
            d / n as f64
        };
        assert!(
            lag(9.0) < lag(4.5) * 0.5,
            "period self-similarity: lag9 {} vs lag4.5 {}",
            lag(9.0),
            lag(4.5)
        );
    }

    #[test]
    fn weekend_scale_dampens_weekends_only() {
        let mut b = BlockSpec::bare(11, 3, BlockProfile::always_on(100, 1.0));
        b.weekend_scale = 0.5;
        // 1970-01-01 was a Thursday: day 2 = Saturday, day 3 = Sunday.
        let thursday = 12 * 3_600;
        let saturday = 2 * 86_400 + 12 * 3_600;
        let sunday = 3 * 86_400 + 12 * 3_600;
        let monday = 4 * 86_400 + 12 * 3_600;
        assert!((b.true_availability(thursday) - 1.0).abs() < 1e-9);
        assert!((b.true_availability(saturday) - 0.5).abs() < 1e-9);
        assert!((b.true_availability(sunday) - 0.5).abs() < 1e-9);
        assert!((b.true_availability(monday) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weekend_helper_days() {
        assert!(!is_weekend(0)); // Thursday
        assert!(!is_weekend(86_400)); // Friday
        assert!(is_weekend(2 * 86_400)); // Saturday
        assert!(is_weekend(3 * 86_400)); // Sunday
        assert!(!is_weekend(4 * 86_400)); // Monday
    }

    #[test]
    fn bare_block_planted_flag_follows_majority() {
        assert!(!BlockSpec::bare(1, 1, BlockProfile::always_on(100, 0.5)).planted_diurnal);
        assert!(BlockSpec::bare(1, 1, diurnal_profile()).planted_diurnal);
    }

    #[test]
    fn memo_stays_near_26_kb_and_allocates_once() {
        let b = BlockSpec::bare(1, 2, diurnal_profile());
        let mut memo = ProbeMemo::new(&b);
        let bytes = memo.footprint_bytes();
        assert!((20 << 10..28 << 10).contains(&bytes), "{bytes} bytes");
        memo.reset(&BlockSpec::bare(2, 2, diurnal_profile()));
        assert_eq!(memo.footprint_bytes(), bytes);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "memo was reset for block")]
    fn memo_refuses_a_block_it_was_not_reset_for() {
        let a = BlockSpec::bare(1, 2, diurnal_profile());
        let b = BlockSpec::bare(2, 2, diurnal_profile());
        ProbeMemo::new(&a).probe(&b, 0, 0);
    }
}
