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
pub type LengthTable = (Vec<(usize, u64)>, u64);

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

impl Snapshot {
    /// Captures the current state of `reg`.
    pub fn capture(reg: &Registry) -> Snapshot {
        let mut s = Snapshot::default();
        let c = &mut s.counters;
        c.insert("probing.probes_sent", reg.probing.probes_sent.get());
        c.insert("probing.survey_probes", reg.probing.survey_probes.get());
        c.insert("probing.runs", reg.probing.runs.get());
        c.insert("probing.eb_refreshes", reg.probing.eb_refreshes.get());
        c.insert("probing.churned_slots", reg.probing.churned_slots.get());
        let f = &reg.probing.faults;
        c.insert("faults.loss_bursts", f.loss_bursts.get());
        c.insert("faults.lost_probes", f.lost_probes.get());
        c.insert("faults.blackouts", f.blackouts.get());
        c.insert("faults.blackout_rounds", f.blackout_rounds.get());
        c.insert("faults.storm_restarts", f.storm_restarts.get());
        c.insert("faults.storm_lost_rounds", f.storm_lost_rounds.get());
        c.insert("faults.truncations", f.truncations.get());
        c.insert("faults.truncated_rounds", f.truncated_rounds.get());
        c.insert("faults.duplicates", f.duplicates.get());
        c.insert("faults.reorders", f.reorders.get());
        c.insert("faults.cfg_restarts", f.cfg_restarts.get());
        c.insert("cleaning.series_cleaned", reg.cleaning.series_cleaned.get());
        c.insert("cleaning.samples_out", reg.cleaning.samples_out.get());
        c.insert("cleaning.samples_filled", reg.cleaning.samples_filled.get());
        c.insert("plan_cache.hits", reg.plan_cache.hits.get());
        c.insert("plan_cache.misses", reg.plan_cache.misses.get());
        c.insert("plan_cache.inserts", reg.plan_cache.inserts.get());
        c.insert("plan_cache.prewarms", reg.plan_cache.prewarms.get());
        c.insert("fft.transforms", reg.fft.transforms.get());
        c.insert("fft.alloc_transforms", reg.fft.alloc_transforms.get());
        c.insert("spectral.batched_ffts", reg.spectral.batched_ffts.get());
        c.insert("spectral.batched_series", reg.spectral.batched_series.get());
        c.insert("pipeline.blocks_analyzed", reg.pipeline.blocks_analyzed.get());
        c.insert("pipeline.blocks_rejected", reg.pipeline.blocks_rejected.get());
        c.insert("pipeline.scratch_reuses", reg.pipeline.scratch_reuses.get());
        c.insert("pipeline.scratch_grows", reg.pipeline.scratch_grows.get());
        c.insert("world.runs", reg.world.runs.get());
        c.insert("world.blocks_total", reg.world.blocks_total.get());
        c.insert("world.max_world_blocks", reg.world.max_world_blocks.get());
        c.insert("world.peak_block_bytes", reg.world.peak_block_bytes.get());
        c.insert("world.batch_grows", reg.world.batch_grows.get());
        c.insert("world.source_chunks", reg.world.source_chunks.get());
        c.insert("world.blocks_per_sec", reg.world.blocks_per_sec.get());
        c.insert("simnet.worlds_generated", reg.simnet.worlds_generated.get());
        c.insert("simnet.blocks_generated", reg.simnet.blocks_generated.get());
        c.insert("geo.locate_hits", reg.geo.locate_hits.get());
        c.insert("geo.locate_misses", reg.geo.locate_misses.get());
        c.insert("geo.unknown_countries", reg.geo.unknown_countries.get());
        c.insert("linktype.blocks_classified", reg.linktype.blocks_classified.get());
        let r = &reg.resilience;
        c.insert("resilience.blocks_quarantined", r.blocks_quarantined.get());
        c.insert("resilience.journal_records_written", r.journal_records_written.get());
        c.insert("resilience.journal_records_replayed", r.journal_records_replayed.get());
        c.insert("resilience.journal_records_discarded", r.journal_records_discarded.get());
        let fm = &reg.format;
        c.insert("format.datasets_encoded", fm.datasets_encoded.get());
        c.insert("format.bytes_encoded", fm.bytes_encoded.get());
        c.insert("format.records_encoded", fm.records_encoded.get());
        c.insert("format.frames_encoded", fm.frames_encoded.get());
        c.insert("format.datasets_decoded", fm.datasets_decoded.get());
        c.insert("format.records_decoded", fm.records_decoded.get());
        c.insert("format.decode_errors", fm.decode_errors.get());
        let ing = &reg.ingest;
        c.insert("ingest.rounds_routed", ing.rounds_routed.get());
        c.insert("ingest.backpressure_stalls", ing.backpressure_stalls.get());
        c.insert("ingest.queue_high_water", ing.queue_high_water.get());
        c.insert("ingest.checkpoints", ing.checkpoints.get());
        c.insert("ingest.blocks_finished", ing.blocks_finished.get());
        let tr = &reg.transport;
        c.insert("transport.frames", tr.frames.get());
        c.insert("transport.reconnects", tr.reconnects.get());
        c.insert("transport.skipped_corrupt", tr.skipped_corrupt.get());
        c.insert("transport.backoff_ms", tr.backoff_ms.get());
        c.insert("transport.heartbeats_missed", tr.heartbeats_missed.get());
        let sv = &reg.serve;
        c.insert("serve.connections", sv.connections.get());
        c.insert("serve.requests", sv.requests.get());
        c.insert("serve.responses_ok", sv.responses_ok.get());
        c.insert("serve.responses_err", sv.responses_err.get());
        c.insert("serve.bad_requests", sv.bad_requests.get());
        c.insert("serve.read_timeouts", sv.read_timeouts.get());
        c.insert("serve.write_errors", sv.write_errors.get());
        c.insert("serve.lru_hits", sv.lru_hits.get());
        c.insert("serve.lru_misses", sv.lru_misses.get());
        c.insert("serve.lru_evictions", sv.lru_evictions.get());
        c.insert("serve.bytes_out", sv.bytes_out.get());

        s.histograms.insert("cleaning.fill_fraction", reg.cleaning.fill_fraction.snapshot());
        for stage in Stage::ALL {
            s.histograms.insert(stage_key(stage), reg.pipeline.stage(stage).snapshot());
        }

        s.lengths.insert("fft.by_length", reg.fft.by_length.snapshot());
        s.lengths.insert("world.worker_blocks", reg.world.worker_blocks.snapshot());
        s
    }

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
        self.histograms.get(stage_key(stage))
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
            let base = if matches!(
                k,
                "world.max_world_blocks"
                    | "world.peak_block_bytes"
                    | "world.blocks_per_sec"
                    | "ingest.queue_high_water"
            ) {
                0 // gauges: keep the high-water mark, not a difference
            } else {
                earlier.counter(k)
            };
            out.counters.insert(k, v.saturating_sub(base));
        }
        for (&k, h) in &self.histograms {
            let d = match earlier.histograms.get(k) {
                Some(e) => h.delta(e),
                None => *h,
            };
            out.histograms.insert(k, d);
        }
        for (&k, (pairs, overflow)) in &self.lengths {
            let empty = (Vec::new(), 0u64);
            let (epairs, eoverflow) = earlier.lengths.get(k).unwrap_or(&empty);
            let mut d: Vec<(usize, u64)> = Vec::new();
            for &(key, n) in pairs {
                let base =
                    epairs.iter().find(|&&(ek, _)| ek == key).map(|&(_, en)| en).unwrap_or(0);
                let diff = n.saturating_sub(base);
                if diff > 0 {
                    d.push((key, diff));
                }
            }
            out.lengths.insert(k, (d, overflow.saturating_sub(*eoverflow)));
        }
        out
    }
}

/// Stable snapshot key for a stage histogram.
pub fn stage_key(stage: Stage) -> &'static str {
    match stage {
        Stage::Probe => "stage.probe",
        Stage::Estimate => "stage.estimate",
        Stage::Clean => "stage.clean",
        Stage::Fft => "stage.fft",
        Stage::Classify => "stage.classify",
        Stage::Join => "stage.join",
        Stage::Total => "stage.total",
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
        let before = Snapshot::capture(&reg);
        let d = Snapshot::capture(&reg).delta(&before);
        assert_eq!(d.counter("world.max_world_blocks"), 60);
    }
}
