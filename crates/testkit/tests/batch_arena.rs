//! The batch arena's size at the paper's span, in a binary of its own:
//! `world.peak_block_bytes` is the process's high water, so no other world
//! run may share the process.

use sleepwatch_core::{analyze_world_source, AnalysisConfig};
use sleepwatch_obs::Snapshot;
use sleepwatch_simnet::{WorldConfig, WorldSource};

/// A one-thread 64-block × 35-day world run holds one probe workspace and
/// eight lanes: its arena reads 2 161 200 B, and a 16 B-per-round copy of
/// the `(round, Âs)` pairs (73 KB) would cross the bound. It is at least
/// the eight lanes' cleaned series.
#[test]
fn batch_arena_holds_one_probe_workspace() {
    sleepwatch_obs::set_global_enabled(true);
    let wcfg = WorldConfig { num_blocks: 64, seed: 21, span_days: 35.0, ..Default::default() };
    let cfg = AnalysisConfig::over_days(wcfg.start_time, wcfg.span_days);
    analyze_world_source(&WorldSource::new(wcfg), &cfg, 1, None);
    let peak = Snapshot::capture(sleepwatch_obs::global()).counter("world.peak_block_bytes");
    assert!(peak <= 2_200_000, "one worker's arena peaked at {peak} B");
    let series = 8 * 4_451 * std::mem::size_of::<f64>() as u64;
    assert!(peak >= series, "peak {peak} B is less than eight cleaned series");
}
