//! Shared infrastructure for the experiment harness: options, the cached
//! world run, table rendering and CSV output.

use sleepwatch_core::{analyze_world, analyze_world_resumable, AnalysisConfig, WorldAnalysis};
use sleepwatch_obs::{Reporter, RunReport, Snapshot};
use sleepwatch_probing::TrinocularConfig;
use sleepwatch_simnet::{World, WorldConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Output format for the `ext-dataset` artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DatasetFormat {
    /// TSV only (`results/ext-dataset.csv`), the paper's §2.5 shape.
    #[default]
    Tsv,
    /// TSV plus the compact seed-joined binary container
    /// (`results/ext-dataset.bin`).
    Bin,
}

/// Command-line options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Options {
    /// Master seed.
    pub seed: u64,
    /// Scale multiplier on default population sizes (1.0 = defaults
    /// documented in DESIGN.md; the paper's full 3.7 M-block scale would be
    /// roughly `--scale 370`).
    pub scale: f64,
    /// Worker threads for world-scale analysis.
    pub threads: usize,
    /// Directory for CSV outputs (`None` disables writing).
    pub out_dir: Option<PathBuf>,
    /// Directory for the world-run checkpoint journal (`None` disables
    /// journaling). With a journal, an interrupted world run resumes from
    /// its completed blocks instead of starting over.
    pub journal: Option<PathBuf>,
    /// Dataset artifact format for `ext-dataset`.
    pub format: DatasetFormat,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            scale: 1.0,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            out_dir: Some(PathBuf::from("results")),
            journal: None,
            format: DatasetFormat::default(),
        }
    }
}

impl Options {
    /// Scales a default count, with a floor.
    pub fn scaled(&self, default: usize, min: usize) -> usize {
        ((default as f64 * self.scale) as usize).max(min)
    }
}

/// Result of one experiment: a rendered report plus machine-readable rows.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Identifier (e.g. `fig14`, `table5`).
    pub id: &'static str,
    /// Human-readable report, printed to stdout.
    pub report: String,
    /// Headline `(metric, value)` pairs for EXPERIMENTS.md bookkeeping.
    pub headline: Vec<(String, String)>,
    /// CSV body (with header row) written to `results/<id>.csv`.
    pub csv: String,
}

impl ExperimentOutput {
    /// Fetches a headline metric by name.
    pub fn metric(&self, name: &str) -> Option<&str> {
        self.headline.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Execution context: options plus the lazily shared world run (several
/// figures and tables read the same 35-day analysis).
pub struct Context {
    /// Options in effect.
    pub opts: Options,
    world_run: OnceLock<(World, WorldAnalysis)>,
    world_report: OnceLock<RunReport>,
    survey_study: OnceLock<crate::validation::SurveyStudy>,
}

impl Context {
    /// Creates a context.
    pub fn new(opts: Options) -> Self {
        Context {
            opts,
            world_run: OnceLock::new(),
            world_report: OnceLock::new(),
            survey_study: OnceLock::new(),
        }
    }

    /// The shared survey-vs-adaptive study (Figs. 4–5, Table 1).
    pub fn survey_study(&self) -> &crate::validation::SurveyStudy {
        self.survey_study.get_or_init(|| crate::validation::SurveyStudy::compute(self))
    }

    /// Default block count of the main world run at scale 1.0.
    pub const WORLD_BLOCKS: usize = 10_000;

    /// Observation span of the main world run, days (the paper's `A12w`).
    pub const WORLD_DAYS: f64 = 35.0;

    /// The shared `A12w`-style world run: synthesized once, probed once
    /// with the restart-afflicted prober, analyzed once.
    pub fn world_run(&self) -> &(World, WorldAnalysis) {
        self.world_run.get_or_init(|| {
            let world = World::generate(WorldConfig {
                seed: self.opts.seed,
                num_blocks: self.opts.scaled(Self::WORLD_BLOCKS, 200),
                span_days: Self::WORLD_DAYS,
                ..Default::default()
            });
            let mut cfg = AnalysisConfig::over_days(world.cfg.start_time, Self::WORLD_DAYS);
            cfg.trinocular = TrinocularConfig::a12w();
            let reporter = Reporter::new("[world]");
            reporter.note(&format!(
                "analyzing {} blocks over {} days…",
                world.blocks.len(),
                Self::WORLD_DAYS
            ));
            let progress = |done: usize, total: usize| reporter.report(done, total);
            // The report isolates the run's metric activity: one snapshot
            // delta around whichever path below ends up analyzing.
            let obs = sleepwatch_obs::global();
            let before = Snapshot::capture(obs);
            let start = std::time::Instant::now();
            let plain = || analyze_world(&world, &cfg, self.opts.threads, Some(&progress));
            let analysis = match &self.opts.journal {
                Some(dir) => {
                    // One journal per (seed, size) pair: a different run
                    // must never resume from this file.
                    let path = dir.join(format!(
                        "world-s{}-b{}.journal",
                        world.cfg.seed,
                        world.blocks.len()
                    ));
                    let journaled = std::fs::create_dir_all(dir)
                        .map_err(|e| format!("journal dir {} unusable ({e})", dir.display()))
                        .and_then(|()| {
                            analyze_world_resumable(
                                &world,
                                &cfg,
                                self.opts.threads,
                                &path,
                                Some(&progress),
                            )
                            .map_err(|e| format!("journal {} unusable ({e})", path.display()))
                        });
                    journaled.unwrap_or_else(|why| {
                        reporter.note(&format!("{why}; running without checkpoints"));
                        plain()
                    })
                }
                None => plain(),
            };
            let report = RunReport {
                label: "world".to_string(),
                threads: self.opts.threads.max(1),
                wall_seconds: start.elapsed().as_secs_f64(),
                snapshot: Snapshot::capture(obs).delta(&before),
            };
            // Memory telemetry (stderr only — never part of any golden
            // artifact): the largest per-worker scratch arena of the run.
            let peak = report.snapshot.counter("world.peak_block_bytes");
            if peak > 0 {
                reporter.note(&format!("peak per-worker scratch arena: {} KiB", peak / 1024));
            }
            let _ = self.world_report.set(report);
            (world, analysis)
        })
    }

    /// The [`RunReport`] of the shared world run, if it has been computed.
    pub fn world_report(&self) -> Option<&RunReport> {
        self.world_run();
        self.world_report.get()
    }
}

/// Renders an aligned text table: `header` row then `rows`, all columns
/// left-padded to the widest cell.
pub(crate) fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Builds a CSV string from a header and rows (naive quoting: fields are
/// numeric or simple identifiers throughout this harness).
pub(crate) fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = header.join(",");
    s.push('\n');
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    s
}

/// Formats an f64 compactly for tables.
pub(crate) fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() < 0.001 {
        format!("{x:.2e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_applies_floor() {
        let opts = Options { scale: 0.001, ..Default::default() };
        assert_eq!(opts.scaled(10_000, 200), 200);
        let big = Options { scale: 2.0, ..Default::default() };
        assert_eq!(big.scaled(100, 10), 200);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "demo",
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "2.5".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("long-name"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_formatting() {
        let c = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "a,b\n1,2\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(12_345.6), "12346");
        assert_eq!(f(0.5), "0.5000");
        assert!(f(1e-9).contains('e'));
    }

    #[test]
    fn metric_lookup() {
        let o = ExperimentOutput {
            id: "x",
            report: String::new(),
            headline: vec![("r".into(), "0.9".into())],
            csv: String::new(),
        };
        assert_eq!(o.metric("r"), Some("0.9"));
        assert_eq!(o.metric("nope"), None);
    }
}
