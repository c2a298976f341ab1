//! The metric registry: one `const`-constructible struct per pipeline
//! subsystem, grouped under [`Registry`].
//!
//! Two registries exist for the whole process (see [`crate::global`]): an
//! enabled one and a disabled one. Instrumented code grabs a reference
//! once per run or per block (`let obs = sleepwatch_obs::global();`),
//! hoists it out of hot loops, and records through it; which registry the
//! reference points at decides — via each metric's construction-time
//! `on` flag — whether anything is written.

use crate::metrics::{Buckets, Counter, Gauge, Histogram, LengthCounts};
use crate::stage::Stage;

/// Probing-side counters: Trinocular rounds, survey baselines and the
/// deterministic fault layer.
pub struct ProbingMetrics {
    /// Individual probes sent by `TrinocularProber` runs (sum of
    /// per-run `total_probes`).
    pub probes_sent: Counter,
    /// Probes sent by full-census survey scans (kept separate so
    /// `probes_sent` stays exactly Σ `BlockRun::total_probes`).
    pub survey_probes: Counter,
    /// Completed prober runs.
    pub runs: Counter,
    /// E(b) refreshes: initial ever-responsive walks built plus
    /// mid-run churn rebuilds.
    pub eb_refreshes: Counter,
    /// Individual E(b) slots replaced by churn events.
    pub churned_slots: Counter,
    /// Fault-event counters, by kind.
    pub faults: FaultMetrics,
}

/// Counters for every fault kind a `FaultPlan` can inject.
pub struct FaultMetrics {
    /// Correlated loss bursts that started.
    pub loss_bursts: Counter,
    /// Probe responses suppressed by loss bursts.
    pub lost_probes: Counter,
    /// Vantage blackouts entered.
    pub blackouts: Counter,
    /// Rounds skipped entirely while blacked out.
    pub blackout_rounds: Counter,
    /// Restart storms triggered by the fault plan.
    pub storm_restarts: Counter,
    /// Rounds lost to restart storms.
    pub storm_lost_rounds: Counter,
    /// Runs truncated early.
    pub truncations: Counter,
    /// Rounds dropped by truncation.
    pub truncated_rounds: Counter,
    /// Duplicate records appended by record mangling.
    pub duplicates: Counter,
    /// Adjacent record swaps applied by record mangling.
    pub reorders: Counter,
    /// Configured (non-fault) prober restarts observed during runs.
    pub cfg_restarts: Counter,
}

/// Availability-cleaning counters and the per-series fill-fraction
/// distribution.
pub struct CleaningMetrics {
    /// Series passed through `clean_series`.
    pub series_cleaned: Counter,
    /// Output samples produced across all cleaned series.
    pub samples_out: Counter,
    /// Output samples synthesised by gap filling.
    pub samples_filled: Counter,
    /// Distribution of per-series fill fraction (filled / total), 0..1.
    pub fill_fraction: Histogram,
}

/// FFT plan-cache telemetry.
pub struct PlanCacheMetrics {
    /// Public `plan_for` lookups served from the cache.
    pub hits: Counter,
    /// Public `plan_for` lookups that had to build a plan.
    pub misses: Counter,
    /// Plans inserted into the cache (misses that won the insert race).
    pub inserts: Counter,
    /// Explicit `prewarm` calls (uncounted as hits/misses).
    pub prewarms: Counter,
}

/// FFT execution telemetry.
pub struct FftMetrics {
    /// Transforms executed through the public plan entry points.
    pub transforms: Counter,
    /// The subset of `transforms` that went through an allocating
    /// wrapper instead of a caller-provided scratch buffer.
    pub alloc_transforms: Counter,
    /// Transform counts keyed by input length.
    pub by_length: LengthCounts,
}

/// Batched-spectral kernel telemetry (the structure-of-arrays real-FFT
/// path used by paper-scale world runs).
pub struct SpectralMetrics {
    /// Batched real-FFT kernel invocations (one per same-length group,
    /// regardless of lane count).
    pub batched_ffts: Counter,
    /// Series transformed through the batched kernel (sum of lane counts;
    /// also counted in `fft.transforms`).
    pub batched_series: Counter,
}

/// Per-block pipeline counters and stage wall-time histograms.
pub struct PipelineMetrics {
    /// Blocks fully analysed by `analyze_block`.
    pub blocks_analyzed: Counter,
    /// Blocks rejected by the fill-fraction screen.
    pub blocks_rejected: Counter,
    /// Scratch-path blocks whose `BlockScratch` arena was reused without
    /// growing (the steady state).
    pub scratch_reuses: Counter,
    /// Scratch-path blocks that grew the arena (warm-up, or a longer
    /// series than any before).
    pub scratch_grows: Counter,
    /// Wall-time histograms, one per [`Stage`], in microseconds.
    stages: [Histogram; Stage::COUNT],
}

impl PipelineMetrics {
    /// The wall-time histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }
}

/// World-run orchestration counters.
pub struct WorldMetrics {
    /// `analyze_world` invocations.
    pub runs: Counter,
    /// Blocks submitted across all world runs.
    pub blocks_total: Counter,
    /// Largest single world analysed (blocks).
    pub max_world_blocks: Gauge,
    /// Largest per-worker `BlockScratch` arena seen, in bytes.
    pub peak_block_bytes: Gauge,
    /// Times a worker's local result batch had to grow its capacity
    /// (should stay 0: batches are pre-sized and flushed before full).
    pub batch_grows: Counter,
    /// Chunks claimed from a lazy `WorldSource` that generated at least
    /// one block (fully-journaled chunks skip generation entirely).
    pub source_chunks: Counter,
    /// End-to-end throughput of the largest completed world run, in
    /// blocks per second (freshly analysed blocks / wall-clock).
    pub blocks_per_sec: Gauge,
    /// Blocks analysed per worker index, to see scheduling balance.
    pub worker_blocks: LengthCounts,
}

/// Synthetic-world generation counters.
pub struct SimnetMetrics {
    /// Worlds generated.
    pub worlds_generated: Counter,
    /// Blocks generated across all worlds.
    pub blocks_generated: Counter,
}

/// Geolocation / economic-join counters.
pub struct GeoMetrics {
    /// Block lookups that resolved to a country.
    pub locate_hits: Counter,
    /// Block lookups with no geolocation entry.
    pub locate_misses: Counter,
    /// Located blocks whose country code had no entry in the country
    /// table (the block degrades to country-less instead of panicking).
    pub unknown_countries: Counter,
}

/// Link-type classification counters.
pub struct LinktypeMetrics {
    /// Blocks classified by access-link type.
    pub blocks_classified: Counter,
}

/// Crash-safety counters: panic quarantine and the checkpoint journal.
pub struct ResilienceMetrics {
    /// Blocks whose analysis panicked and was quarantined instead of
    /// aborting the world run.
    pub blocks_quarantined: Counter,
    /// Block records appended to a checkpoint journal.
    pub journal_records_written: Counter,
    /// Block records recovered from a journal on resume.
    pub journal_records_replayed: Counter,
    /// Damaged or partial trailing records discarded during replay.
    pub journal_records_discarded: Counter,
}

/// Compact binary container counters: the dataset encode/decode paths
/// of `core::binfmt`.
pub struct FormatMetrics {
    /// Binary datasets encoded.
    pub datasets_encoded: Counter,
    /// Total container bytes produced by encoding.
    pub bytes_encoded: Counter,
    /// Rows encoded into containers.
    pub records_encoded: Counter,
    /// Record frames written.
    pub frames_encoded: Counter,
    /// Containers parsed and fully validated.
    pub datasets_decoded: Counter,
    /// Rows made available by successful parses.
    pub records_decoded: Counter,
    /// Parses rejected with a typed decode error (including the damaged
    /// tail of a prefix decode).
    pub decode_errors: Counter,
}

/// Streaming ingest: sharded routing, bounded queues, checkpoints.
pub struct IngestMetrics {
    /// Round events routed to shard queues.
    pub rounds_routed: Counter,
    /// Feeder pushes that blocked on a full shard queue.
    pub backpressure_stalls: Counter,
    /// Highest queued-event count observed on any shard queue.
    pub queue_high_water: Gauge,
    /// Journal sync points reached (durable checkpoints).
    pub checkpoints: Counter,
    /// Blocks whose stream completed and was finalized.
    pub blocks_finished: Counter,
}

/// Wire transport: the `SLPWFEED` sources feeding streaming ingest.
pub struct TransportMetrics {
    /// Frames accepted (events, heartbeats, end markers).
    pub frames: Counter,
    /// Connections re-established after the first.
    pub reconnects: Counter,
    /// Damaged frames detected and skipped (or refused in strict mode).
    pub skipped_corrupt: Counter,
    /// Total reconnect backoff slept, in milliseconds.
    pub backoff_ms: Counter,
    /// Read timeouts while waiting for the peer.
    pub heartbeats_missed: Counter,
}

/// Query-service counters: the HTTP front end, its protocol-error
/// taxonomy, and the ad-hoc-query LRU.
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: Counter,
    /// Requests parsed successfully.
    pub requests: Counter,
    /// 2xx responses written.
    pub responses_ok: Counter,
    /// 4xx/5xx responses written (routing misses and protocol errors).
    pub responses_err: Counter,
    /// Protocol violations (malformed, oversized or truncated requests).
    pub bad_requests: Counter,
    /// Read timeouts waiting for a request (the slowloris bound).
    pub read_timeouts: Counter,
    /// Connections lost while writing a response.
    pub write_errors: Counter,
    /// Ad-hoc query answers served from the LRU.
    pub lru_hits: Counter,
    /// Ad-hoc queries folded over the rows (and cached).
    pub lru_misses: Counter,
    /// LRU entries evicted to make room.
    pub lru_evictions: Counter,
    /// Response bytes put on the wire.
    pub bytes_out: Counter,
}

/// The full metric registry, one instance per enabled/disabled state.
pub struct Registry {
    /// Probing subsystem.
    pub probing: ProbingMetrics,
    /// Availability cleaning subsystem.
    pub cleaning: CleaningMetrics,
    /// FFT plan cache.
    pub plan_cache: PlanCacheMetrics,
    /// FFT execution.
    pub fft: FftMetrics,
    /// Batched-spectral kernels.
    pub spectral: SpectralMetrics,
    /// Per-block analysis pipeline.
    pub pipeline: PipelineMetrics,
    /// World-run orchestration.
    pub world: WorldMetrics,
    /// Synthetic world generation.
    pub simnet: SimnetMetrics,
    /// Geolocation joins.
    pub geo: GeoMetrics,
    /// Link-type classification.
    pub linktype: LinktypeMetrics,
    /// Crash safety: quarantine and checkpoint journal.
    pub resilience: ResilienceMetrics,
    /// Compact binary dataset container.
    pub format: FormatMetrics,
    /// Streaming ingest engine.
    pub ingest: IngestMetrics,
    /// Wire transport sources.
    pub transport: TransportMetrics,
    /// Query service (`core::serve`).
    pub serve: ServeMetrics,
}

impl Registry {
    /// Builds a registry whose metrics record only when `on` is true.
    pub const fn with_state(on: bool) -> Self {
        const fn stage_hist(on: bool) -> Histogram {
            Histogram::new(on, Buckets::Log2Micros)
        }
        Registry {
            probing: ProbingMetrics {
                probes_sent: Counter::new(on),
                survey_probes: Counter::new(on),
                runs: Counter::new(on),
                eb_refreshes: Counter::new(on),
                churned_slots: Counter::new(on),
                faults: FaultMetrics {
                    loss_bursts: Counter::new(on),
                    lost_probes: Counter::new(on),
                    blackouts: Counter::new(on),
                    blackout_rounds: Counter::new(on),
                    storm_restarts: Counter::new(on),
                    storm_lost_rounds: Counter::new(on),
                    truncations: Counter::new(on),
                    truncated_rounds: Counter::new(on),
                    duplicates: Counter::new(on),
                    reorders: Counter::new(on),
                    cfg_restarts: Counter::new(on),
                },
            },
            cleaning: CleaningMetrics {
                series_cleaned: Counter::new(on),
                samples_out: Counter::new(on),
                samples_filled: Counter::new(on),
                fill_fraction: Histogram::new(on, Buckets::Linear { lo: 0.0, hi: 1.0 }),
            },
            plan_cache: PlanCacheMetrics {
                hits: Counter::new(on),
                misses: Counter::new(on),
                inserts: Counter::new(on),
                prewarms: Counter::new(on),
            },
            fft: FftMetrics {
                transforms: Counter::new(on),
                alloc_transforms: Counter::new(on),
                by_length: LengthCounts::new(on),
            },
            spectral: SpectralMetrics {
                batched_ffts: Counter::new(on),
                batched_series: Counter::new(on),
            },
            pipeline: PipelineMetrics {
                blocks_analyzed: Counter::new(on),
                blocks_rejected: Counter::new(on),
                scratch_reuses: Counter::new(on),
                scratch_grows: Counter::new(on),
                stages: [
                    stage_hist(on),
                    stage_hist(on),
                    stage_hist(on),
                    stage_hist(on),
                    stage_hist(on),
                    stage_hist(on),
                    stage_hist(on),
                ],
            },
            world: WorldMetrics {
                runs: Counter::new(on),
                blocks_total: Counter::new(on),
                max_world_blocks: Gauge::new(on),
                peak_block_bytes: Gauge::new(on),
                batch_grows: Counter::new(on),
                source_chunks: Counter::new(on),
                blocks_per_sec: Gauge::new(on),
                worker_blocks: LengthCounts::new(on),
            },
            simnet: SimnetMetrics {
                worlds_generated: Counter::new(on),
                blocks_generated: Counter::new(on),
            },
            geo: GeoMetrics {
                locate_hits: Counter::new(on),
                locate_misses: Counter::new(on),
                unknown_countries: Counter::new(on),
            },
            linktype: LinktypeMetrics { blocks_classified: Counter::new(on) },
            resilience: ResilienceMetrics {
                blocks_quarantined: Counter::new(on),
                journal_records_written: Counter::new(on),
                journal_records_replayed: Counter::new(on),
                journal_records_discarded: Counter::new(on),
            },
            format: FormatMetrics {
                datasets_encoded: Counter::new(on),
                bytes_encoded: Counter::new(on),
                records_encoded: Counter::new(on),
                frames_encoded: Counter::new(on),
                datasets_decoded: Counter::new(on),
                records_decoded: Counter::new(on),
                decode_errors: Counter::new(on),
            },
            ingest: IngestMetrics {
                rounds_routed: Counter::new(on),
                backpressure_stalls: Counter::new(on),
                queue_high_water: Gauge::new(on),
                checkpoints: Counter::new(on),
                blocks_finished: Counter::new(on),
            },
            transport: TransportMetrics {
                frames: Counter::new(on),
                reconnects: Counter::new(on),
                skipped_corrupt: Counter::new(on),
                backoff_ms: Counter::new(on),
                heartbeats_missed: Counter::new(on),
            },
            serve: ServeMetrics {
                connections: Counter::new(on),
                requests: Counter::new(on),
                responses_ok: Counter::new(on),
                responses_err: Counter::new(on),
                bad_requests: Counter::new(on),
                read_timeouts: Counter::new(on),
                write_errors: Counter::new(on),
                lru_hits: Counter::new(on),
                lru_misses: Counter::new(on),
                lru_evictions: Counter::new(on),
                bytes_out: Counter::new(on),
            },
        }
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
}
