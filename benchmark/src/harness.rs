//! The method every workload is measured by.
//!
//! A run is: set-up (fixture + system set-up + one discarded warm-up
//! repetition), repeated [`SETUP_REPEATS`] times so `setup_s` is a median;
//! then timed repetitions of a fixed amount of work until `--seconds` have
//! passed; then the reference checks. The reported throughput is the work
//! of one repetition over the **median** repetition wall. A traced run
//! sets up once, records spans on every other repetition (the untraced
//! ones give the tracing overhead) and adds the staged replay.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sleepwatch_core::DatasetRow;
use sleepwatch_simnet::WorldConfig;

use crate::procfs;
use crate::staged;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Shape;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Fewest timed repetitions of a full-size run, however short `--seconds`.
pub const MIN_REPS: usize = 4;
/// Timed repetitions of a `--smoke` run.
pub const SMOKE_REPS: usize = 2;
/// Name of the span that wraps one timed repetition.
pub const REP_SPAN: &str = "rep";

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the timed repetitions run, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// ≈1/20 size, two repetitions.
    pub smoke: bool,
    /// Directory that keeps the span dumps of traced runs.
    pub out_dir: PathBuf,
    /// Directory for datasets and journals; the caller removes it.
    pub scratch_dir: PathBuf,
}

/// Wall and CPU stopwatch around a timed section.
#[derive(Debug)]
pub struct Timed {
    start: Instant,
    cpu: f64,
}

impl Timed {
    /// Starts both clocks.
    pub fn start() -> Timed {
        Timed { cpu: procfs::cpu_s(), start: Instant::now() }
    }

    /// `(wall seconds, process CPU seconds)` since [`start`](Self::start).
    pub fn stop(self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        (wall, procfs::cpu_s() - self.cpu)
    }
}

/// What one repetition did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepOutcome {
    /// Wall of the timed section, seconds.
    pub wall_s: f64,
    /// Process CPU spent in the timed section, seconds.
    pub cpu_s: f64,
    /// Units of work done (the workload's `unit`).
    pub units: u64,
    /// Outputs checked (block reports, rows or responses).
    pub checked: u64,
    /// Checked outputs that were wrong or missing.
    pub failed: u64,
}

/// Result of the reference checks that run after the timed repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    /// Outputs compared against the reference.
    pub checked: u64,
    /// Outputs that differed.
    pub failed: u64,
}

/// One workload: how to set it up, what one repetition runs, and how its
/// outputs are checked.
pub trait Workload {
    /// The system under test plus the load generator's fixture.
    type System;

    /// Size and regime.
    fn shape(&self) -> &Shape;

    /// Builds the fixture and sets the system up. Returns the system and
    /// the seconds the load generator's own fixture took.
    fn setup(&self, dir: &Path) -> (Self::System, f64);

    /// Runs one repetition of the fixed work, recording spans around each
    /// call into the program.
    fn rep(&self, sys: &mut Self::System, tracer: &mut Tracer) -> RepOutcome;

    /// Compares the outputs of the repetitions against the reference.
    fn check(&self, sys: &Self::System) -> Check;

    /// The rows the last repetition produced (or serves) and the world
    /// they belong to, for the staged replay's serve layer.
    fn rows(&self, sys: &Self::System) -> (Vec<DatasetRow>, WorldConfig);

    /// Stops what `setup` started.
    fn teardown(&self, _sys: Self::System) {}
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Unit of `throughput_per_s`.
    pub unit: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Whether this was a smoke-size run.
    pub smoke: bool,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
    /// Walls of the timed repetitions, seconds, in order.
    pub rep_walls: Vec<f64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable tables (span totals, staged layers) of a traced run.
    pub tables: String,
}

/// Runs `w` by the method above.
pub fn run<W: Workload>(w: &W, cfg: &RunConfig) -> RunResult {
    let shape = *w.shape();
    let spin_before = procfs::spin_ms();
    let mut tracer = Tracer::new(false);

    // ---- Set-up, several times; the last system is the one measured.
    let setups = if cfg.trace || cfg.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_walls = Vec::with_capacity(setups);
    let mut fixture_walls = Vec::with_capacity(setups);
    let mut sys: Option<W::System> = None;
    for _ in 0..setups {
        if let Some(old) = sys.take() {
            w.teardown(old);
        }
        let start = Instant::now();
        let (mut s, fixture_s) = w.setup(&cfg.scratch_dir);
        w.rep(&mut s, &mut tracer); // warm-up, discarded
        setup_walls.push(start.elapsed().as_secs_f64());
        fixture_walls.push(fixture_s);
        sys = Some(s);
    }
    let mut sys = sys.expect("at least one set-up");

    // ---- Timed repetitions.
    let rss_at_first_rep = procfs::rss_mb();
    let mut reps: Vec<(RepOutcome, bool)> = Vec::new();
    let loop_start = Instant::now();
    loop {
        let done = if cfg.smoke {
            reps.len() >= SMOKE_REPS
        } else {
            reps.len() >= MIN_REPS && loop_start.elapsed().as_secs_f64() >= cfg.seconds
        };
        if done {
            break;
        }
        let traced = cfg.trace && reps.len() % 2 == 0;
        tracer.set_on(traced);
        tracer.set_rep(reps.len() as u32);
        reps.push((w.rep(&mut sys, &mut tracer), traced));
    }
    tracer.set_on(false);
    let peak_rss = procfs::peak_rss_mb();

    // ---- Reference checks, outside every timed section.
    let check = w.check(&sys);
    let attempted = reps.iter().map(|(r, _)| r.checked).sum::<u64>() + check.checked;
    let failed = reps.iter().map(|(r, _)| r.failed).sum::<u64>() + check.failed;

    let walls_of = |want_traced: bool| -> Vec<f64> {
        reps.iter().filter(|(_, t)| *t == want_traced).map(|(r, _)| r.wall_s).collect()
    };
    let untraced = walls_of(false);
    let units: u64 = reps.iter().map(|(r, _)| r.units).sum();
    let units_per_rep = reps[0].0.units as f64;
    let cpu: f64 = reps.iter().map(|(r, _)| r.cpu_s).sum();
    let wall: f64 = reps.iter().map(|(r, _)| r.wall_s).sum();

    let mut metrics = Vec::new();
    let mut tables = String::new();
    if cfg.trace {
        let (rows, wcfg) = w.rows(&sys);
        w.teardown(sys);
        let replay = staged::replay(&shape, cfg, rows, &wcfg);
        metrics.extend(replay.metrics);
        tables.push_str(&replay.table);
        let traced = walls_of(true);
        tables.push_str(&span_table(&tracer, traced.iter().sum()));

        metrics.push(Metric::new(
            "bench.trace_overhead",
            stats::median(&traced) / stats::median(&untraced),
            "ratio",
        ));
        metrics.push(Metric::new("bench.span_coverage", tracer.coverage(REP_SPAN), "ratio"));
        metrics.push(Metric::new("bench.fixture_s", stats::median(&fixture_walls), "s"));
        metrics.push(Metric::new("bench.rep_wall_s", stats::median(&untraced), "s"));
        metrics.push(Metric::new("proc.cpu_s", cpu, "s"));
        metrics.push(Metric::new("proc.cpu_per_wall", cpu / wall, "ratio"));
        metrics.push(Metric::new("proc.rss_growth_mb", peak_rss - rss_at_first_rep, "MiB"));
        metrics.push(Metric::new("host.spin_ms_before", spin_before, "ms"));
        metrics.push(Metric::new("host.spin_ms_after", procfs::spin_ms(), "ms"));
        let dump = cfg.out_dir.join(format!("spans-{}-seed{}.tsv", shape.name, cfg.seed));
        if let Err(e) = tracer.dump_tsv(&dump) {
            eprintln!("benchmark: could not write {}: {e}", dump.display());
        }
    } else {
        w.teardown(sys);
        metrics.push(Metric::new(
            "throughput_per_s",
            units_per_rep / stats::median(&untraced),
            "1/s",
        ));
        metrics.push(Metric::new("cpu_us_per_unit", cpu * 1e6 / units as f64, "us"));
        metrics.push(Metric::new("peak_rss_mb", peak_rss, "MiB"));
        metrics.push(Metric::new("setup_s", stats::median(&setup_walls), "s"));
    }

    RunResult {
        workload: shape.name,
        unit: shape.unit,
        seed: cfg.seed,
        trace: cfg.trace,
        smoke: cfg.smoke,
        attempted,
        failed,
        rep_walls: reps.iter().map(|(r, _)| r.wall_s).collect(),
        metrics,
        tables,
    }
}

/// The traced repetitions' spans as a table: calls, total, self time and
/// self time's share of the traced repetitions' wall.
fn span_table(tracer: &Tracer, traced_wall_s: f64) -> String {
    let mut out = String::from("spans of the traced repetitions (self = total - children):\n");
    out.push_str(&format!(
        "  {:<44} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total_ms", "self_ms", "share"
    ));
    for t in tracer.totals() {
        out.push_str(&format!(
            "  {:<44} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            t.name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e9 / traced_wall_s * 100.0,
        ));
    }
    out
}

impl RunResult {
    /// True when no checked output was wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`, every value with all its digits.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line for the results file: the contract object's members plus
    /// what identifies the run and the repetition walls behind the median.
    pub fn result_line(&self) -> String {
        let (q1, med, q3) = stats::quartiles(&self.rep_walls);
        let contract = self.contract_json();
        format!(
            "{{\"workload\": \"{}\", \"unit\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
             \"nproc\": {}, \"reps\": {}, \"rep_wall_s\": {{\"median\": {med}, \"q1\": {q1}, \
             \"q3\": {q3}, \"min\": {}, \"all\": {:?}}}, {}",
            self.workload,
            self.unit,
            self.seed,
            self.trace,
            self.smoke,
            std::thread::available_parallelism().map_or(1, |p| p.get()),
            self.rep_walls.len(),
            stats::min(&self.rep_walls),
            self.rep_walls,
            &contract[1..],
        )
    }

    /// Prints every metric by name with its unit, the traced run's tables,
    /// and the contract object as the last line.
    pub fn print(&self) {
        let (q1, med, q3) = stats::quartiles(&self.rep_walls);
        println!(
            "workload {} seed {} trace {}{}: {} repetitions, wall median {med:.4} s \
             (q1 {q1:.4}, q3 {q3:.4}, min {:.4}); {} outputs checked, {} failed",
            self.workload,
            self.seed,
            u8::from(self.trace),
            if self.smoke { " smoke" } else { "" },
            self.rep_walls.len(),
            stats::min(&self.rep_walls),
            self.attempted,
            self.failed,
        );
        print!("{}", self.tables);
        for m in &self.metrics {
            let unit = if m.name == "throughput_per_s" {
                format!("{}/s", self.unit)
            } else {
                m.unit.to_string()
            };
            println!("{:<40} {:>18.6} {unit}", m.name, m.value);
        }
        println!("{}", self.contract_json());
    }
}
