//! End-to-end diurnal-network analysis: the pipeline of *"When the Internet
//! Sleeps"* (IMC 2014).
//!
//! * [`analyze_block`]: per-block pipeline — adaptive probing, §2.1 availability
//!   estimation, §2.2 cleaning + FFT classification + phase, the
//!   stationarity screen, and phase unrolling for the longitude comparison;
//! * [`analyze_world`]: the same pipeline over an entire synthetic world, in
//!   parallel, joined with geolocation, reverse-DNS link classes,
//!   allocation dates and country economics;
//! * [`WorldAnalysis`]: the paper's evaluation views — country league table,
//!   region table, link-technology fractions, allocation histogram,
//!   phase/longitude analysis, world grids, and the Table 5 ANOVA factors.
//!
//! # Example
//!
//! ```
//! use sleepwatch_core::{analyze_world, AnalysisConfig};
//! use sleepwatch_simnet::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig { num_blocks: 40, seed: 3, span_days: 3.0, ..Default::default() });
//! let cfg = AnalysisConfig::over_days(world.cfg.start_time, 3.0);
//! let analysis = analyze_world(&world, &cfg, 2, None);
//! let (strict, frac) = analysis.strict_fraction();
//! assert!(strict <= analysis.len());
//! assert!((0.0..=1.0).contains(&frac));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod aggregate;
mod analyze;
mod applications;
pub mod binfmt;
pub mod export;
pub mod feed;
mod ingest;
pub mod journal;
pub mod serve;
mod streaming;
mod timeofday;
mod worldrun;

pub use aggregate::{AnovaFactors, CountryStat, OrgStat};
pub use analyze::{analyze_block, analyze_series, AnalysisConfig, BlockAnalysis, BlockSummary};
pub use applications::{estimate_size, SizeEstimate};
pub use binfmt::{
    decode_dataset, decode_prefix, encode_dataset, BinDataset, DatasetMode, DatasetStats,
};
pub use export::{
    dataset_rows, read_dataset, write_dataset, write_dataset_bin_file, write_dataset_file,
    write_dataset_rows, DatasetRow, ExportError,
};
pub use feed::{feed_identity, world_feed, WorldFeed};
pub use ingest::{
    ingest_direct, ingest_events, ingest_source, ingest_source_resumable, ingest_world,
    ingest_world_resumable, IngestConfig, IngestOutcome, IngestStats, TransportOutcome,
};
pub use journal::{JournalError, JournalHeader};
pub use serve::{
    load_rows, rows_from_journal_bytes, ConnStats, LoadError, QueryServer, ServeConfig, ServeState,
};
pub use sleepwatch_framing::{DecodeError, IdentityField, RunIdentity};
pub use streaming::{OnlineConfig, OnlineDetector};
pub use timeofday::{activity_pattern, peak_local_hour, peak_utc_hour, ActivityPattern};
pub use worldrun::{
    analyze_world, analyze_world_resumable, analyze_world_source, analyze_world_stats,
    analyze_world_stats_resumable, block_label, run_identity, Quarantine, WorldAnalysis,
    WorldBlockReport, WorldRunStats,
};
