//! The four workloads: what each one runs, at what size, and why.

pub mod batch;
pub mod serve;
pub mod stream;

use sleepwatch_core::{run_identity, AnalysisConfig, JournalHeader};
use sleepwatch_probing::FaultPlan;
use sleepwatch_simnet::WorldConfig;

/// Worker threads for every world analysis (the box has two cores).
pub const ANALYSIS_THREADS: usize = 2;
/// Shards of the streaming ingest engine.
pub const INGEST_SHARDS: usize = 2;
/// Worker threads of the query server; the load generator is one more
/// thread in the same process.
pub const SERVE_WORKERS: usize = 1;
/// Capacity of the served `/v1/query` LRU.
pub const LRU_CAPACITY: usize = 256;

/// Fault regime of a workload's prober.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// `FaultPlan::none()`: the prober's fault queries are inert.
    None,
    /// `FaultPlan::loss_heavy(seed)`: per-probe fault queries are live.
    LossHeavy,
}

/// Size and regime of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of work `throughput_per_s` counts.
    pub unit: &'static str,
    /// Blocks in the synthetic world.
    pub blocks: usize,
    /// Observation span, days.
    pub days: f64,
    /// Fault regime.
    pub faults: Faults,
    /// GETs per repetition (`serve_mixed` only).
    pub queries: usize,
}

/// Workload names in run order.
pub const NAMES: [&str; 4] = ["batch_world", "batch_faulty_short", "stream_ingest", "serve_mixed"];

/// The shape of workload `name`, at full or smoke (≈1/20) size.
pub fn shape(name: &str, smoke: bool) -> Option<Shape> {
    let div = if smoke { 20 } else { 1 };
    let none = Faults::None;
    Some(match name {
        // 35 days = 4 582 rounds: the paper's span, even-length Bluestein
        // FFT; eight 256-block chunks for two workers.
        "batch_world" => Shape {
            name: "batch_world",
            unit: "blocks",
            blocks: 2_048 / div,
            days: 35.0,
            faults: none,
            queries: 0,
        },
        // Short series, many blocks, live fault queries: generate, join,
        // encode and load take a visible share next to probing.
        "batch_faulty_short" => Shape {
            name: "batch_faulty_short",
            unit: "blocks",
            blocks: 12_288 / div,
            days: 5.0,
            faults: Faults::LossHeavy,
            queries: 0,
        },
        // Probed once in set-up: the timed chain starts at the wire.
        "stream_ingest" => Shape {
            name: "stream_ingest",
            unit: "rounds",
            blocks: 1_536 / div,
            days: 14.0,
            faults: none,
            queries: 0,
        },
        // 5 000 rows keep the served state inside the core's own cache. At
        // 20 000 the LRU-miss scan walked ~4 MB per query and its cost
        // followed the neighbours' cache traffic: 26-95 us for the same scan,
        // 139 k-241 k queries/s for the same seed within ten minutes.
        "serve_mixed" => Shape {
            name: "serve_mixed",
            unit: "queries",
            blocks: 5_000 / div,
            days: 3.0,
            faults: none,
            queries: 512_000 / div,
        },
        _ => return None,
    })
}

/// Stream tags that keep the benchmark's own draws apart.
pub const STREAM_WORLD: u64 = 1;
/// Stream of the reference-sample draws.
pub const STREAM_SAMPLE: u64 = 2;
/// Stream of the query-mix draws.
pub const STREAM_MIX: u64 = 3;

/// splitmix64: the benchmark's own generator for seeds, samples and the
/// query mix. The program under test receives only what it produces.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by the run seed and a per-use stream tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything derived from a shape and the run seed that the program's
/// entry points take as arguments.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// World configuration (seed derived from the run seed).
    pub wcfg: WorldConfig,
    /// Analysis configuration over the shape's span and fault regime.
    pub cfg: AnalysisConfig,
    /// Identity header that journals and seed-joined datasets of this
    /// run are checked against.
    pub expect: JournalHeader,
}

impl Inputs {
    /// Derives the inputs for `shape` from the run seed.
    pub fn derive(shape: &Shape, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, STREAM_WORLD);
        let wcfg = WorldConfig {
            seed: rng.next_u64(),
            num_blocks: shape.blocks,
            span_days: shape.days,
            ..Default::default()
        };
        let mut cfg = AnalysisConfig::over_days(wcfg.start_time, shape.days);
        if shape.faults == Faults::LossHeavy {
            cfg.faults = FaultPlan::loss_heavy(rng.next_u64());
        }
        let expect = JournalHeader::from_identity(&run_identity(wcfg.seed, wcfg.num_blocks, &cfg));
        Inputs { wcfg, cfg, expect }
    }
}

/// FNV-1a over the `Debug` rendering of a sequence — the fingerprint two
/// sets of reports or rows are compared by (the benches' "Debug-identical"
/// rule) without keeping either set alive.
pub fn debug_digest<T: std::fmt::Debug>(items: &[T]) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for item in items {
        use std::fmt::Write;
        write!(h, "{item:?};").expect("hashing cannot fail");
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_shape_at_both_sizes() {
        for name in NAMES {
            let full = shape(name, false).expect("full shape");
            let smoke = shape(name, true).expect("smoke shape");
            assert_eq!(full.name, name);
            assert!(smoke.blocks * 19 <= full.blocks && smoke.blocks > 0);
        }
        assert!(shape("nope", false).is_none());
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let s = shape("batch_faulty_short", true).expect("shape");
        let (a, b) = (Inputs::derive(&s, 7), Inputs::derive(&s, 7));
        assert_eq!(a.wcfg.seed, b.wcfg.seed);
        assert_eq!(a.cfg.faults, b.cfg.faults);
        assert!(!a.cfg.faults.is_none());
        assert_ne!(a.wcfg.seed, Inputs::derive(&s, 8).wcfg.seed);
    }

    #[test]
    fn digest_tells_sequences_apart() {
        assert_eq!(debug_digest(&[1, 2, 3]), debug_digest(&[1, 2, 3]));
        assert_ne!(debug_digest(&[1, 2, 3]), debug_digest(&[1, 23]));
        assert_ne!(debug_digest(&[12, 3]), debug_digest(&[1, 23]));
    }
}
