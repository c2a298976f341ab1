//! `batch_world` and `batch_faulty_short`: the batch chain end to end.
//!
//! One repetition: `analyze_world_source` (two threads) → `dataset_rows`
//! → `write_dataset_rows_bin_file` (seed-joined `SLPWBIN1`) → `load_rows`
//! → `ServeState::build`. The unit of work is a block.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sleepwatch_core::export::write_dataset_rows_bin_file;
use sleepwatch_core::{
    analyze_block, analyze_world_source, dataset_rows, load_rows, DatasetRow, ServeState,
    WorldAnalysis,
};
use sleepwatch_simnet::{WorldConfig, WorldSource};

use super::{debug_digest, Inputs, Rng, Shape, ANALYSIS_THREADS, LRU_CAPACITY, STREAM_SAMPLE};
use crate::harness::{Check, RepOutcome, Timed, Workload, REP_SPAN};
use crate::trace::Tracer;

/// Blocks of the last repetition re-analyzed one by one as the reference.
const REFERENCE_SAMPLE: usize = 64;

/// A batch workload of some shape.
#[derive(Debug)]
pub struct Batch {
    shape: Shape,
    seed: u64,
}

impl Batch {
    /// The batch workload of `shape`, inputs derived from `seed`.
    pub fn new(shape: Shape, seed: u64) -> Batch {
        Batch { shape, seed }
    }
}

/// The lazy world and what the last repetition made of it.
#[derive(Debug)]
pub struct BatchSystem {
    inputs: Inputs,
    source: WorldSource,
    dataset: PathBuf,
    /// Digest of every repetition's reports; all must agree.
    report_digests: Vec<u64>,
    last: Option<(WorldAnalysis, ServeState)>,
}

impl Workload for Batch {
    type System = BatchSystem;

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn setup(&self, dir: &Path) -> (BatchSystem, f64) {
        let inputs = Inputs::derive(&self.shape, self.seed);
        let start = Instant::now();
        let source = WorldSource::new(inputs.wcfg.clone());
        let fixture_s = start.elapsed().as_secs_f64();
        let dataset = dir.join(format!("{}.bin", self.shape.name));
        (BatchSystem { inputs, source, dataset, report_digests: Vec::new(), last: None }, fixture_s)
    }

    fn rep(&self, sys: &mut BatchSystem, t: &mut Tracer) -> RepOutcome {
        let Inputs { wcfg, cfg, expect } = &sys.inputs;
        let (source, path) = (&sys.source, sys.dataset.as_path());
        sys.last = None; // the previous repetition's output is not part of this one's memory

        let root = t.enter(REP_SPAN);
        let timed = Timed::start();
        let analysis = t.call("worldrun.analyze_world_source", || {
            analyze_world_source(source, cfg, ANALYSIS_THREADS, None)
        });
        let rows = t.call("export.dataset_rows", || dataset_rows(&analysis));
        t.call("binfmt.write_dataset_rows_bin_file", || {
            write_dataset_rows_bin_file(path, &rows, Some(wcfg))
        })
        .expect("write the dataset inside the benchmark's out directory");
        let loaded = t
            .call("serve.load_rows", || load_rows(path, Some(wcfg), expect))
            .expect("load the dataset written a moment ago");
        let state = t.call("serve.ServeState_build", || ServeState::build(loaded, LRU_CAPACITY));
        let (wall_s, cpu_s) = timed.stop();
        t.exit(root);

        // Untimed: every block reported, none quarantined, and the rows
        // decoded back from the file equal the rows that were written.
        let blocks = self.shape.blocks as u64;
        let missing = blocks.saturating_sub(analysis.reports.len() as u64);
        let bad_rows = differing(&rows, state.rows());
        sys.report_digests.push(debug_digest(&analysis.reports));
        sys.last = Some((analysis, state));
        RepOutcome { wall_s, cpu_s, units: blocks, checked: 2 * blocks, failed: missing + bad_rows }
    }

    fn check(&self, sys: &BatchSystem) -> Check {
        let (analysis, _) = sys.last.as_ref().expect("check runs after a repetition");
        // Every repetition produced the same reports as the last one ...
        let last = *sys.report_digests.last().expect("at least one repetition");
        let strays = sys.report_digests.iter().filter(|d| **d != last).count() as u64;
        // ... and the last one's agree with the one-block-at-a-time
        // pipeline on a seeded sample.
        let mut rng = Rng::new(self.seed, STREAM_SAMPLE);
        let sample = REFERENCE_SAMPLE.min(analysis.reports.len());
        let mut bad = 0u64;
        for _ in 0..sample {
            let report = &analysis.reports[rng.below(analysis.reports.len())];
            let block = sys.source.generate_block(report.summary.block_id);
            if analyze_block(&block, &sys.inputs.cfg).summary() != report.summary {
                bad += 1;
            }
        }
        Check { checked: sample as u64 + sys.report_digests.len() as u64, failed: bad + strays }
    }

    fn rows(&self, sys: &BatchSystem) -> (Vec<DatasetRow>, WorldConfig) {
        let (_, state) = sys.last.as_ref().expect("rows are read after a repetition");
        (state.rows().to_vec(), sys.inputs.wcfg.clone())
    }
}

/// Positions at which two row sets differ, counting a length difference.
pub(crate) fn differing(a: &[DatasetRow], b: &[DatasetRow]) -> u64 {
    let unequal = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (unequal + a.len().abs_diff(b.len())) as u64
}
