//! Pipeline stage taxonomy and the RAII stage timer.

use std::time::Instant;

use crate::metrics::{Buckets, Histogram};

/// The stage table: one row per stage — doc, variant, lowercase name —
/// from which the enum, [`Stage::COUNT`], [`Stage::ALL`], [`Stage::name`],
/// [`Stage::key`] and the registry's histogram array are all generated.
macro_rules! stages {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// The stages of the per-block analysis pipeline, plus orchestration
        /// stages measured at the world-run level.
        ///
        /// The numeric value indexes the stage-histogram array in
        /// [`crate::registry::PipelineMetrics`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Stage {
            $($(#[$doc])* $variant,)*
        }

        impl Stage {
            /// Number of stages (length of the per-stage histogram array).
            pub(crate) const COUNT: usize = [$($name),*].len();

            /// Every stage, in index order.
            pub(crate) const ALL: [Stage; Stage::COUNT] = [$(Stage::$variant),*];

            /// Stable snapshot key of this stage's histogram, `stage.<name>`.
            pub(crate) fn key(self) -> &'static str {
                match self { $(Stage::$variant => concat!("stage.", $name),)* }
            }

            /// One wall-time histogram (µs) per stage, in index order.
            pub(crate) const fn histograms(on: bool) -> [Histogram; Stage::COUNT] {
                // `$name` only drives the repetition: every stage gets the same histogram.
                [$({ let _ = $name; Histogram::new(on, Buckets::Log2Micros) }),*]
            }
        }
    };
}

stages! {
    /// Adaptive probing of one block, world run or feed (`core::analyze::probe_into`).
    Probe => "probe",
    /// Recorded by nothing: `Âs` is estimated inside the prober, under
    /// `Probe`. Kept only because the benchmark harness names it; ROADMAP
    /// item 1 removes it with the harness's staged replay.
    Estimate => "estimate",
    /// Availability series cleaning (scatter by round, gap fill, midnight trim).
    Clean => "clean",
    /// Spectral transform and periodogram summarisation.
    Fft => "fft",
    /// Diurnal classification and trend screening.
    Classify => "classify",
    /// The per-block join: geolocation, reverse-DNS link label, registry.
    Label => "label",
    /// Worker-result collection and report assembly in `analyze_world`.
    Join => "join",
    /// Idle time at the tail of one `worldrun::each_chunk` chunk (world
    /// run or self-generated feed): over the chunk's threads, the sum of
    /// how long each found the chunk's groups all claimed before the last
    /// one did. One sample per chunk run to its end.
    ChunkTail => "chunk_tail",
    /// Whole `analyze_world` call, end to end.
    Total => "total",
    /// An ingest shard finalizing a group of finished blocks (live
    /// verdicts, clean, batched FFT, classify, join), split evenly over the
    /// group's reports: one sample per streamed report.
    IngestFinalize => "ingest.finalize",
    /// An ingest shard waiting on its empty queue, one sample per pop that
    /// had to wait for its batch.
    IngestQueueWait => "ingest.queue_wait",
    /// An ingest shard applying one event batch from its queue (lane
    /// lookup, series push, live verdicts, and the finalization of any
    /// group the batch fills): one sample per `ingest.batches_sent`.
    IngestApply => "ingest.apply",
    /// A self-generated feed's workers probing one chunk (generate, probe,
    /// hold its streams): one sample per chunk, the summed time of its
    /// blocks, whichever workers probed them.
    IngestFeedProbe => "ingest.feed_probe",
    /// A TCP feed source reconnecting: one sample from the poison that
    /// dropped a connection to the next completed handshake, one per
    /// `transport.reconnects`.
    TransportReconnect => "transport.reconnect",
    /// A feed source decoding one frame: length checks, chained CRC and
    /// event parse, one sample per `transport.frames`.
    TransportDecode => "transport.decode",
    /// Appending one finished block to a checkpoint journal (encode,
    /// write, and the periodic sync), one sample per record appended:
    /// per `resilience.journal_records_written`.
    Checkpoint => "checkpoint",
    /// Loading a query service's rows from a dataset or journal file
    /// (`serve::load_rows`: read, sniff, decode or replay), one sample per
    /// successful load; a refused load records none.
    ServeLoad => "serve.load",
    /// Building a query service's indexes from its rows
    /// (`ServeState::build`), one sample per build.
    ServeIndexBuild => "serve.index_build",
    /// Folding an ad-hoc `/v1/query` answer the LRU did not hold, one
    /// sample per `serve.lru_misses`. Block reads and LRU hits run no timer.
    ServeQueryMiss => "serve.query_miss",
}

/// Measures the wall time of a scope and records it (in microseconds)
/// into a stage histogram on drop.
///
/// When the histogram is disabled the timer never calls `Instant::now`,
/// so a timed scope on the disabled path costs one branch.
pub struct StageTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl<'a> StageTimer<'a> {
    /// Starts timing a scope that reports into `hist`.
    #[inline]
    pub fn start(hist: &'a Histogram) -> Self {
        let start = if hist.enabled() { Some(Instant::now()) } else { None };
        StageTimer { hist, start }
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique() {
        let mut keys: Vec<_> = Stage::ALL.iter().map(|s| s.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i);
            assert!(stage.key().strip_prefix("stage.").is_some_and(|n| !n.is_empty()));
        }
    }

    #[test]
    fn timer_records_once_when_enabled() {
        let h = Histogram::new(true, Buckets::Log2Micros);
        {
            let _t = StageTimer::start(&h);
        }
        assert_eq!(h.snapshot().count, if cfg!(feature = "off") { 0 } else { 1 });
    }

    #[test]
    fn timer_is_silent_when_disabled() {
        let h = Histogram::new(false, Buckets::Log2Micros);
        {
            let _t = StageTimer::start(&h);
        }
        assert_eq!(h.snapshot().count, 0);
    }
}
