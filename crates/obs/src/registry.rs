//! The metric registry: one table, one row per metric.
//!
//! `metrics!` turns the table at the bottom of this file into the
//! `const`-constructible group structs, [`Registry`], its constructor,
//! [`Snapshot::capture`] with its `group.field` keys, and the gauge test
//! [`Snapshot::delta`] needs — so a metric is written once and cannot be
//! half-registered.
//!
//! Two registries exist for the whole process (see [`crate::global`]): an
//! enabled one and a disabled one. Instrumented code grabs a reference
//! once per run or per block (`let obs = sleepwatch_obs::global();`),
//! hoists it out of hot loops, and records through it; which registry the
//! reference points at decides — via each metric's construction-time
//! `on` flag — whether anything is written.

use crate::metrics::{Buckets, Counter, Gauge, Histogram, LengthCounts};
use crate::snapshot::Snapshot;
use crate::stage::Stage;

/// What a row's kind means: its field type (`type`), its `const`
/// constructor (`new`), its line in [`Snapshot::capture`] (`capture`) and
/// whether [`Snapshot::delta`] keeps it whole (`gauge`).
#[rustfmt::skip] // one line per rule: this is a lookup table
macro_rules! kind {
    (type counter) => { Counter };
    (type gauge) => { Gauge };
    (type histogram $scheme:tt) => { Histogram };
    (type lengths) => { LengthCounts };
    (type stages) => { [Histogram; Stage::COUNT] };
    (new $on:ident counter) => { Counter::new($on) };
    (new $on:ident gauge) => { Gauge::new($on) };
    (new $on:ident histogram($scheme:expr)) => { Histogram::new($on, $scheme) };
    (new $on:ident lengths) => { LengthCounts::new($on) };
    (new $on:ident stages) => { Stage::histograms($on) };
    (capture $s:ident $key:expr, $m:expr, counter) => { $s.counters.insert($key, $m.get()); };
    (capture $s:ident $key:expr, $m:expr, gauge) => { $s.counters.insert($key, $m.get()); };
    (capture $s:ident $key:expr, $m:expr, histogram $scheme:tt) => {
        $s.histograms.insert($key, $m.snapshot());
    };
    (capture $s:ident $key:expr, $m:expr, lengths) => { $s.lengths.insert($key, $m.snapshot()); };
    (capture $s:ident $key:expr, $m:expr, stages) => {
        for stage in Stage::ALL {
            $s.histograms.insert(stage.key(), $m[stage as usize].snapshot());
        }
    };
    (gauge gauge) => { true };
    (gauge $($other:tt)+) => { false };
}

/// A row's snapshot key, `group.field`.
macro_rules! key {
    ($group:ident.$field:ident) => {
        concat!(stringify!($group), ".", stringify!($field))
    };
}

/// The table: `group: GroupStruct { field: kind, … }`, docs included.
/// Kinds are `counter`, `gauge`, `histogram(scheme)`, `lengths` and
/// `stages` (the per-[`Stage`] histogram array, keyed `stage.<name>`).
macro_rules! metrics {
    ($(
        $(#[$gdoc:meta])*
        $group:ident: $Group:ident {
            $($(#[$doc:meta])* $field:ident: $kind:ident $(($($arg:tt)*))?,)*
        }
    )*) => {
        $(
            $(#[$gdoc])*
            pub struct $Group {
                $($(#[$doc])* pub $field: kind!(type $kind $(($($arg)*))?),)*
            }
        )*

        /// The full metric registry, one instance per enabled/disabled state.
        pub struct Registry {
            $($(#[$gdoc])* pub $group: $Group,)*
        }

        impl Registry {
            /// Builds a registry whose metrics record only when `on` is true.
            pub const fn with_state(on: bool) -> Self {
                Registry {
                    $($group: $Group {
                        $($field: kind!(new on $kind $(($($arg)*))?),)*
                    },)*
                }
            }

            /// True for the keys of gauges: high-water marks, which a
            /// delta carries over instead of subtracting.
            pub(crate) fn is_gauge(key: &str) -> bool {
                $($((kind!(gauge $kind $(($($arg)*))?) && key == key!($group.$field)) ||)*)* false
            }
        }

        impl Snapshot {
            /// Captures the current state of `reg`.
            pub fn capture(reg: &Registry) -> Snapshot {
                let mut s = Snapshot::default();
                $($(
                    kind!(capture s key!($group.$field), reg.$group.$field, $kind $(($($arg)*))?);
                )*)*
                s
            }
        }
    };
}

impl PipelineMetrics {
    /// The wall-time histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }
}

metrics! {
    /// Probing-side counters: Trinocular rounds and survey baselines.
    probing: ProbingMetrics {
        /// Individual probes sent by `TrinocularProber` runs (sum of
        /// per-run `total_probes`).
        probes_sent: counter,
        /// Probes sent by full-census survey scans (kept separate so
        /// `probes_sent` stays exactly Σ `BlockRun::total_probes`).
        survey_probes: counter,
        /// Completed prober runs.
        runs: counter,
        /// E(b) refreshes: initial ever-responsive walks built plus
        /// mid-run churn rebuilds.
        eb_refreshes: counter,
        /// Individual E(b) slots replaced by churn events. No equality: an
        /// event replaces a fraction of the prober's private E(b) walk.
        churned_slots: counter,
    }
    /// Counters for every fault kind a `FaultPlan` can inject; each event
    /// counter equals the count recomputed through the public plan API.
    faults: FaultMetrics {
        /// Correlated loss bursts that started.
        loss_bursts: counter,
        /// Probe responses suppressed by loss bursts. No equality: which
        /// probes a burst eats is the prober's private randomness.
        lost_probes: counter,
        /// Vantage blackouts entered.
        blackouts: counter,
        /// Rounds skipped entirely while blacked out.
        blackout_rounds: counter,
        /// Restart storms triggered by the fault plan.
        storm_restarts: counter,
        /// Rounds lost to restart storms. Bounded by `storm_restarts` only:
        /// the length of a restart is the prober's private draw.
        storm_lost_rounds: counter,
        /// Runs truncated early.
        truncations: counter,
        /// Rounds dropped by truncation.
        truncated_rounds: counter,
        /// Duplicate records appended by record mangling.
        duplicates: counter,
        /// Adjacent record swaps applied by record mangling.
        reorders: counter,
        /// Configured (non-fault) prober restarts observed during runs.
        cfg_restarts: counter,
    }
    /// Availability-cleaning counters and the per-series fill-fraction
    /// distribution.
    cleaning: CleaningMetrics {
        /// Series passed through `clean_series`.
        series_cleaned: counter,
        /// Output samples produced across all cleaned series.
        samples_out: counter,
        /// Output samples synthesised by gap filling.
        samples_filled: counter,
        /// Distribution of per-series fill fraction (filled / total), 0..1.
        fill_fraction: histogram(Buckets::Linear { lo: 0.0, hi: 1.0 }),
    }
    /// FFT plan-cache telemetry; `hits + misses == fft.transforms`.
    plan_cache: PlanCacheMetrics {
        /// Public `plan_for` lookups served from the cache.
        hits: counter,
        /// Public `plan_for` lookups that had to build a plan.
        misses: counter,
        /// Plans inserted into the cache (misses that won the insert race;
        /// no equality: the cache outlives a run, and losers insert nothing).
        inserts: counter,
        /// Explicit `prewarm` calls (uncounted as hits/misses).
        prewarms: counter,
    }
    /// FFT execution telemetry.
    fft: FftMetrics {
        /// Transforms executed through the public plan entry points.
        transforms: counter,
        /// The subset of `transforms` that went through an allocating
        /// wrapper instead of a caller-provided scratch buffer.
        alloc_transforms: counter,
        /// Transform counts keyed by input length.
        by_length: lengths,
    }
    /// Batched-spectral kernel telemetry (the structure-of-arrays real-FFT
    /// path used by paper-scale world runs).
    spectral: SpectralMetrics {
        /// Batched real-FFT kernel invocations (one per same-length group,
        /// regardless of lane count; no equality: the grouping depends on
        /// which blocks each worker's chunk holds).
        batched_ffts: counter,
        /// Series transformed through the batched kernel (sum of lane
        /// counts; also counted in `fft.transforms`). Equals
        /// `pipeline.blocks_analyzed` in a clean world run.
        batched_series: counter,
    }
    /// Per-block pipeline counters and stage wall-time histograms.
    pipeline: PipelineMetrics {
        /// Blocks fully analysed by `analyze_block`.
        blocks_analyzed: counter,
        /// Blocks rejected by the fill-fraction screen.
        blocks_rejected: counter,
        /// Scratch-path blocks whose `BlockScratch` arena was reused
        /// without growing (the steady state), judged by the arena's
        /// capacity footprint before and after the block.
        /// `scratch_reuses + scratch_grows == blocks_analyzed`.
        scratch_reuses: counter,
        /// Scratch-path blocks that grew the arena: warm-up, a longer
        /// series than any before, or every block of `analyze_block`,
        /// whose arena starts empty.
        scratch_grows: counter,
        /// Wall-time histograms in microseconds, one per [`Stage`], read
        /// through [`PipelineMetrics::stage`].
        stages: stages,
    }
    /// World-run orchestration counters.
    world: WorldMetrics {
        /// `analyze_world` invocations.
        runs: counter,
        /// Blocks submitted across all world runs.
        blocks_total: counter,
        /// Largest single world analysed (blocks).
        max_world_blocks: gauge,
        /// Largest per-worker `BlockScratch` arena footprint seen, in bytes
        /// (the experiments harness prints it to stderr).
        peak_block_bytes: gauge,
        /// Times a worker's local result batch had to grow its capacity.
        /// Pinned to 0: batches are pre-sized to one chunk (256) and
        /// flushed per chunk.
        batch_grows: counter,
        /// Chunks claimed from a lazy `WorldSource` that generated at least
        /// one block (fully-journaled chunks skip generation entirely).
        source_chunks: counter,
        /// End-to-end throughput of the fastest completed world run, in
        /// blocks per second (freshly analysed blocks / wall-clock, so no
        /// equality).
        blocks_per_sec: gauge,
        /// Blocks analysed per worker index, to see scheduling balance.
        worker_blocks: lengths,
    }
    /// Synthetic-world generation counters.
    simnet: SimnetMetrics {
        /// Worlds generated.
        worlds_generated: counter,
        /// Blocks generated across all worlds.
        blocks_generated: counter,
    }
    /// Geolocation / economic-join counters.
    geo: GeoMetrics {
        /// Block lookups that resolved to a country.
        locate_hits: counter,
        /// Block lookups with no geolocation entry.
        locate_misses: counter,
        /// Located blocks whose country code had no entry in the country
        /// table (the block degrades to country-less instead of panicking).
        unknown_countries: counter,
    }
    /// Link-type classification counters.
    linktype: LinktypeMetrics {
        /// Blocks classified by access-link type.
        blocks_classified: counter,
    }
    /// Crash-safety counters: panic quarantine and the checkpoint journal.
    resilience: ResilienceMetrics {
        /// Blocks whose analysis panicked and was quarantined instead of
        /// aborting the world run.
        blocks_quarantined: counter,
        /// Block records appended to a checkpoint journal.
        journal_records_written: counter,
        /// Block records recovered from a journal on resume.
        journal_records_replayed: counter,
        /// Damaged or partial trailing records discarded during replay.
        journal_records_discarded: counter,
    }
    /// Compact binary container counters: the dataset encode/decode paths
    /// of `core::binfmt`.
    format: FormatMetrics {
        /// Binary datasets encoded.
        datasets_encoded: counter,
        /// Total container bytes produced by encoding.
        bytes_encoded: counter,
        /// Rows encoded into containers.
        records_encoded: counter,
        /// Record frames written.
        frames_encoded: counter,
        /// Containers parsed and fully validated.
        datasets_decoded: counter,
        /// Rows made available by successful parses.
        records_decoded: counter,
        /// Parses rejected with a typed decode error (including the damaged
        /// tail of a prefix decode).
        decode_errors: counter,
    }
    /// Streaming ingest: sharded routing, bounded queues, checkpoints.
    /// Flushed from the run's `IngestStats` when it ends.
    ingest: IngestMetrics {
        /// Round events routed to shard queues.
        rounds_routed: counter,
        /// Feeder pushes that blocked on a full shard queue.
        backpressure_stalls: counter,
        /// Highest queued-event count observed on any shard queue.
        queue_high_water: gauge,
        /// Most blocks open at once on any one shard.
        open_lanes: gauge,
        /// Most heap bytes the open lanes of any one shard held at once.
        lane_bytes: gauge,
        /// Journal sync points reached (durable checkpoints).
        checkpoints: counter,
        /// Blocks whose stream completed and was finalized (journal
        /// replays excluded).
        blocks_finished: counter,
        /// Chunks of blocks a self-generated feed's workers finished
        /// probing; a feed that counts itself first, or serves a resume,
        /// probes a chunk again, and a chunk finished ahead of a failed
        /// send counts too.
        feed_chunks: counter,
    }
    /// Wire transport: the `SLPWFEED` sources feeding streaming ingest,
    /// bumped side by side with the source's `TransportStats`.
    transport: TransportMetrics {
        /// Frames accepted (events, heartbeats, end markers).
        frames: counter,
        /// Connections re-established after the first.
        reconnects: counter,
        /// Damaged frames detected and skipped (or refused in strict mode).
        skipped_corrupt: counter,
        /// Total reconnect backoff slept, in milliseconds.
        backoff_ms: counter,
        /// Read timeouts while waiting for the peer.
        heartbeats_missed: counter,
    }
    /// Query-service counters: the HTTP front end, its protocol-error
    /// taxonomy, and the ad-hoc-query LRU. The connection counters are
    /// bumped side by side with the connection's `ConnStats`.
    serve: ServeMetrics {
        /// Connections accepted.
        connections: counter,
        /// Requests parsed successfully.
        requests: counter,
        /// 2xx responses written.
        responses_ok: counter,
        /// 4xx/5xx responses written (routing misses and protocol errors).
        responses_err: counter,
        /// Protocol violations (malformed, oversized or truncated requests).
        bad_requests: counter,
        /// Read timeouts waiting for a request (the slowloris bound).
        read_timeouts: counter,
        /// Connections lost while writing a response.
        write_errors: counter,
        /// Ad-hoc query answers served from the LRU.
        lru_hits: counter,
        /// Ad-hoc queries folded over the rows (and cached).
        lru_misses: counter,
        /// LRU entries evicted to make room.
        lru_evictions: counter,
        /// Response bytes put on the wire.
        bytes_out: counter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_array_matches_stage_count() {
        let r = Registry::with_state(true);
        for stage in Stage::ALL {
            // Indexing must not panic for any stage.
            let _ = r.pipeline.stage(stage);
        }
    }

    #[test]
    fn gauge_kind_is_known_by_key() {
        assert!(Registry::is_gauge("world.peak_block_bytes"));
        assert!(Registry::is_gauge("ingest.queue_high_water"));
        assert!(!Registry::is_gauge("world.runs"));
        assert!(!Registry::is_gauge("stage.fft"));
    }
}
