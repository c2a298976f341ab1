//! Point-in-time copies of the registry, with delta arithmetic.
//!
//! A [`Snapshot`] flattens every metric into string-keyed maps
//! (`subsystem.metric`), which keeps report rendering and test assertions
//! independent of the registry's struct layout. Capture one before and one
//! after a run and subtract ([`Snapshot::delta`]) to isolate that run's
//! activity even when the process-global registry has seen earlier work.

use std::collections::BTreeMap;

use crate::metrics::HistogramSnapshot;
use crate::registry::Registry;
use crate::stage::Stage;

/// A [`crate::LengthCounts`] table flattened to sorted `(key, count)`
/// pairs plus the overflow count.
pub(crate) type LengthTable = (Vec<(usize, u64)>, u64);

/// A plain-data copy of every metric in a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter and gauge values, keyed `subsystem.metric`.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histogram states, keyed `subsystem.metric` (stage histograms are
    /// `stage.<name>`).
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
    /// Per-key count tables, keyed `subsystem.metric`.
    pub lengths: BTreeMap<&'static str, LengthTable>,
}

// `Snapshot::capture` is generated from the metric table in `registry.rs`,
// which knows every key; `Snapshot::to_json` renders next to `json_str`.
impl Snapshot {
    /// Counter value by key, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by key, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The wall-time histogram for `stage`, if present.
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.histograms.get(stage.key())
    }

    /// Per-key counts table by key; empty when absent.
    pub fn length_counts(&self, name: &str) -> &[(usize, u64)] {
        self.lengths.get(name).map(|(pairs, _)| pairs.as_slice()).unwrap_or(&[])
    }

    /// Element-wise `self - earlier` (saturating), for isolating one
    /// run's activity from process-lifetime totals. Monotonic gauges are
    /// carried over from `self` rather than subtracted.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (&k, &v) in &self.counters {
            // Gauges keep the high-water mark, not a difference.
            let base = if Registry::is_gauge(k) { 0 } else { earlier.counter(k) };
            out.counters.insert(k, v.saturating_sub(base));
        }
        for (&k, h) in &self.histograms {
            out.histograms.insert(k, earlier.histograms.get(k).map_or(*h, |e| h.delta(e)));
        }
        for (&k, (pairs, overflow)) in &self.lengths {
            let epairs = earlier.length_counts(k);
            let eoverflow = earlier.lengths.get(k).map_or(0, |t| t.1);
            let grown = pairs.iter().filter_map(|&(key, n)| {
                let base = epairs.iter().find(|e| e.0 == key).map_or(0, |e| e.1);
                (n > base).then(|| (key, n - base))
            });
            out.lengths.insert(k, (grown.collect(), overflow.saturating_sub(eoverflow)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_delta_isolate_activity() {
        if cfg!(feature = "off") {
            return;
        }
        let reg = Registry::with_state(true);
        reg.probing.probes_sent.add(10);
        reg.fft.by_length.add(64, 2);
        let before = Snapshot::capture(&reg);
        reg.probing.probes_sent.add(5);
        reg.fft.transforms.add(3);
        reg.fft.by_length.add(64, 1);
        reg.fft.by_length.add(128, 4);
        let d = Snapshot::capture(&reg).delta(&before);
        assert_eq!(d.counter("probing.probes_sent"), 5);
        assert_eq!(d.counter("fft.transforms"), 3);
        assert_eq!(d.counter("plan_cache.hits"), 0);
        assert_eq!(d.length_counts("fft.by_length"), &[(64, 1), (128, 4)]);
    }

    #[test]
    fn missing_keys_read_as_zero() {
        let s = Snapshot::default();
        assert_eq!(s.counter("nope.nothing"), 0);
        assert!(s.length_counts("nope.table").is_empty());
        assert!(s.histogram("nope.hist").is_none());
    }

    #[test]
    fn gauge_survives_delta() {
        if cfg!(feature = "off") {
            return;
        }
        let reg = Registry::with_state(true);
        reg.world.max_world_blocks.raise(60);
        reg.world.peak_block_bytes.raise(4096);
        reg.world.blocks_per_sec.raise(1700);
        reg.ingest.queue_high_water.raise(7);
        reg.world.blocks_total.add(60);
        let before = Snapshot::capture(&reg);
        reg.world.blocks_total.add(5);
        let d = Snapshot::capture(&reg).delta(&before);
        assert_eq!(d.counter("world.max_world_blocks"), 60);
        assert_eq!(d.counter("world.peak_block_bytes"), 4096);
        assert_eq!(d.counter("world.blocks_per_sec"), 1700);
        assert_eq!(d.counter("ingest.queue_high_water"), 7);
        assert_eq!(d.counter("world.blocks_total"), 5, "a plain counter must subtract");
    }
}
