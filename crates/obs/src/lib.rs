//! Lightweight, dependency-free observability for the sleepwatch pipeline.
//!
//! The paper's system ("When the Internet Sleeps", Quan, Heidemann,
//! Pradkin — IMC 2014) probed 3.7M /24 blocks continuously for 35 days;
//! at that scale a pipeline is debugged from its counters, not from
//! re-runs. This crate provides the primitives — atomic [counters],
//! monotonic [gauges], lock-free fixed-bucket [histograms], per-length
//! count tables and RAII [stage timers] — behind a process-global
//! [`Registry`] that the probing, cleaning, spectral and analysis crates
//! record into, plus [`RunReport`] rendering (TSV/JSON) and a
//! rate-limited progress [`Reporter`].
//!
//! [counters]: Counter
//! [gauges]: Gauge
//! [histograms]: Histogram
//! [stage timers]: StageTimer
//!
//! # Inertness
//!
//! Observability must never change results. Three layers guarantee it:
//!
//! 1. **Data flow**: metrics are write-only from the pipeline's point of
//!    view — no instrumented code ever reads a metric back into a
//!    computation, so outputs are byte-identical either way.
//! 2. **Runtime off-switch**: two registries exist, one enabled and one
//!    permanently disabled ([`Registry::disabled`]). Every metric carries
//!    a construction-time `on: bool`; on the disabled registry every
//!    record call is a single predictable branch — zero atomics touched.
//!    [`set_global_enabled`] flips which registry [`global`] returns.
//! 3. **Compile-time off-switch**: building with the crate feature `off`
//!    compiles the record bodies away entirely.
//!
//! # Usage pattern
//!
//! Hoist the registry handle out of hot loops and record through it:
//!
//! ```
//! let obs = sleepwatch_obs::global();
//! let mut sent = 0u64;
//! for _round in 0..100 {
//!     sent += 3; // ... do the work, accumulate locally ...
//! }
//! obs.probing.probes_sent.add(sent); // one atomic per run, not per probe
//! ```
//!
//! Time a scope with a [`StageTimer`]:
//!
//! ```
//! use sleepwatch_obs::{global, Stage, StageTimer};
//! let obs = global();
//! {
//!     let _t = StageTimer::start(obs.pipeline.stage(Stage::Fft));
//!     // ... transform ...
//! } // elapsed µs recorded on drop
//! ```
//!
//! To attribute activity to one run, capture a [`Snapshot`] before and
//! after and take the [`Snapshot::delta`]; wrap it in a [`RunReport`]
//! for rendering.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod metrics;
mod registry;
mod report;
mod snapshot;
mod stage;

pub use metrics::{Buckets, Counter, Gauge, Histogram, HistogramSnapshot, LengthCounts};
pub use registry::{
    CleaningMetrics, FaultMetrics, FftMetrics, FormatMetrics, GeoMetrics, IngestMetrics,
    LinktypeMetrics, PipelineMetrics, PlanCacheMetrics, ProbingMetrics, Registry,
    ResilienceMetrics, ServeMetrics, SimnetMetrics, SpectralMetrics, TransportMetrics,
    WorldMetrics,
};
pub use report::{json_str, push_json_str, Reporter, RunReport};
pub use snapshot::Snapshot;
pub use stage::{Stage, StageTimer};

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

static ENABLED_REG: Registry = Registry::with_state(true);
static DISABLED_REG: Registry = Registry::with_state(false);

/// When true, [`global`] hands out the disabled registry.
static USE_DISABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry. Enabled by default; flipped by
/// [`set_global_enabled`]. With the `off` feature this always returns
/// the disabled registry.
#[inline]
pub fn global() -> &'static Registry {
    if cfg!(feature = "off") || USE_DISABLED.load(Relaxed) {
        &DISABLED_REG
    } else {
        &ENABLED_REG
    }
}

/// Selects whether [`global`] returns the recording registry (`true`,
/// the default) or the inert one (`false`).
///
/// Callers that grabbed a handle before the flip keep recording into (or
/// skipping) the registry they captured; flip before starting a run.
pub fn set_global_enabled(enabled: bool) {
    USE_DISABLED.store(!enabled, Relaxed);
}

/// True when [`global`] currently returns the recording registry.
pub fn global_enabled() -> bool {
    !cfg!(feature = "off") && !USE_DISABLED.load(Relaxed)
}

impl Registry {
    /// The process-wide permanently-disabled registry: every record call
    /// is a no-op branch, every read returns zero.
    pub fn disabled() -> &'static Registry {
        &DISABLED_REG
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_records() {
        let reg = Registry::disabled();
        reg.probing.probes_sent.add(100);
        reg.pipeline.blocks_analyzed.incr();
        reg.cleaning.fill_fraction.record(0.5);
        reg.fft.by_length.incr(64);
        assert_eq!(reg.probing.probes_sent.get(), 0);
        assert_eq!(reg.pipeline.blocks_analyzed.get(), 0);
        assert_eq!(reg.cleaning.fill_fraction.snapshot().count, 0);
        assert!(reg.fft.by_length.snapshot().0.is_empty());
    }

    #[test]
    fn global_switch_selects_registry() {
        // Note: other tests in this binary also touch the global switch;
        // this test restores the default (enabled) before returning.
        set_global_enabled(false);
        assert!(std::ptr::eq(global(), Registry::disabled()));
        assert!(!global_enabled());
        set_global_enabled(true);
        if cfg!(feature = "off") {
            assert!(std::ptr::eq(global(), Registry::disabled()));
        } else {
            assert!(!std::ptr::eq(global(), Registry::disabled()));
            assert!(global_enabled());
        }
    }
}
