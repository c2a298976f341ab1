//! The `sleepwatch` command-line tool.
//!
//! ```text
//! sleepwatch analyze   [--blocks N] [--days D] [--seed S] [--threads T]
//!                      [--dataset FILE] [--format tsv|bin]
//!                      world-scale pipeline summary
//! sleepwatch convert   IN OUT [--format tsv|bin] [--blocks N] [--days D] [--seed S]
//!                      convert datasets between TSV and the compact
//!                      binary container (input format is sniffed)
//! sleepwatch block     [--diurnal|--flat] [--days D] [--seed S]
//!                      probe and classify a single /24
//! sleepwatch ingest    [--blocks N] [--days D] [--seed S] [--shards K]
//!                      [--journal FILE]
//!                      [--listen ADDR | --connect ADDR | --from-file FILE]
//!                      [--strict] [--read-timeout-ms T]
//!                      [--reconnect-attempts N] [--backoff-ms B]
//!                      stream a world through the sharded live-ingest
//!                      engine (checkpointing to FILE when given); with a
//!                      transport flag the events arrive over the
//!                      `SLPWFEED` wire instead of in-process
//! sleepwatch feed      [--blocks N] [--days D] [--seed S]
//!                      [--listen ADDR | --connect ADDR | --to-file FILE]
//!                      [--reconnect-attempts N] [--backoff-ms B]
//!                      serve the world's event feed to a remote ingest
//!                      (or write it to a file)
//! sleepwatch serve     --listen ADDR (--dataset FILE | --journal FILE)
//!                      [--blocks N] [--days D] [--seed S] [--threads T]
//!                      [--lru-capacity N] [--read-timeout-ms T]
//!                      serve an analyzed world's aggregate views as
//!                      JSON over HTTP (`GET /v1/...`, `GET /metrics`)
//! sleepwatch countries                     the embedded country table
//! sleepwatch info                          versions and configuration
//! ```
//!
//! A command takes the flags listed for it and refuses any other (the
//! `COMMANDS` table is what the parser and the usage text read). `--days`
//! must span two UTC midnights from the run's start, or the midnight trim
//! leaves nothing to analyse: about 1.3 days for a world (it starts at
//! 17:18 UTC), just over 1 for `block` (it starts on a midnight).
//!
//! Paper tables/figures live in the separate `experiments` binary
//! (`cargo run -p sleepwatch-experiments -- --list`).

use sleepwatch::availability::midnight_trim;
use sleepwatch::core::binfmt::DATASET_MAGIC;
use sleepwatch::core::framing::sniff_magic;
use sleepwatch::core::{
    analyze_block, analyze_world, decode_dataset, estimate_size, feed_identity, ingest_source,
    ingest_source_resumable, ingest_world, ingest_world_resumable, read_dataset,
    write_dataset_bin_file, write_dataset_file, write_dataset_rows, AnalysisConfig, IngestConfig,
    TransportOutcome, WorldFeed,
};
use sleepwatch::geoecon::country::COUNTRIES;
use sleepwatch::probing::transport::{
    serve_feed, write_feed, BackoffConfig, Endpoint, EventSource, FeedConfig, FeedEvents,
    FileSource, TcpConfig, TcpEventSource, TransportError,
};
use sleepwatch::simnet::{
    BlockProfile, BlockSpec, World, WorldConfig, WorldSource, A12W_START, ROUND_SECONDS,
};
use sleepwatch::spectral::MAX_PLAN_LEN;
use std::path::Path;
use std::process::ExitCode;

/// `println!` through the one stdout helper ([`write_stdout`]).
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// Writes one line to stdout (line-buffered). A reader that has gone away
/// (`sleepwatch … | head -2`) ends the process quietly with exit 0; any
/// other write error is reported and exits 1. `println!` would panic on
/// both.
fn write_stdout(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("sleepwatch: could not write to stdout: {e}");
        std::process::exit(1);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Tsv,
    Bin,
}

impl std::str::FromStr for Format {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "tsv" => Ok(Format::Tsv),
            "bin" => Ok(Format::Bin),
            _ => Err(()),
        }
    }
}

struct Args {
    blocks: usize,
    days: f64,
    seed: u64,
    threads: usize,
    shards: usize,
    dataset: Option<String>,
    journal: Option<String>,
    format: Option<Format>,
    diurnal: bool,
    listen: Option<String>,
    connect: Option<String>,
    from_file: Option<String>,
    to_file: Option<String>,
    strict: bool,
    lru_capacity: usize,
    read_timeout_ms: u64,
    reconnect_attempts: u32,
    backoff_ms: u64,
    positional: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            blocks: 2_000,
            days: 14.0,
            seed: 1,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            shards: 4,
            dataset: None,
            journal: None,
            format: None,
            diurnal: true,
            listen: None,
            connect: None,
            from_file: None,
            to_file: None,
            strict: false,
            lru_capacity: sleepwatch::core::serve::DEFAULT_LRU_CAPACITY,
            read_timeout_ms: 500,
            reconnect_attempts: 8,
            backoff_ms: 25,
            positional: Vec::new(),
        }
    }
}

impl Args {
    /// The synthetic world the `--seed/--blocks/--days` flags name.
    fn world_config(&self) -> WorldConfig {
        WorldConfig {
            seed: self.seed,
            num_blocks: self.blocks,
            span_days: self.days,
            ..Default::default()
        }
    }

    /// The reconnect schedule the `--backoff-ms/--reconnect-attempts`
    /// flags name.
    fn backoff(&self) -> BackoffConfig {
        BackoffConfig {
            base_ms: self.backoff_ms.max(1),
            attempts: self.reconnect_attempts,
            ..BackoffConfig::default()
        }
    }
}

/// One subcommand: its name, its usage — the arguments and flags its `run`
/// reads, which is also what the parser lets it take — and where its
/// observation starts (`--days` is checked against that).
struct Command {
    name: &'static str,
    usage: &'static str,
    start_time: u64,
    run: fn(&Args) -> ExitCode,
}

impl Command {
    /// Whether `flag` is one of the flags this command's usage names.
    fn reads(&self, flag: &str) -> bool {
        self.usage.split(|c: char| " []|()".contains(c)).any(|word| word == flag)
    }
}

/// Every subcommand. The parser refuses a flag its command's usage does
/// not name, and the usage text is these rows.
const COMMANDS: &[Command] = &[
    Command {
        name: "analyze",
        usage: "[--blocks N] [--days D] [--seed S] [--threads T] [--dataset FILE] \
                [--format tsv|bin]",
        start_time: A12W_START,
        run: cmd_analyze,
    },
    Command {
        name: "convert",
        usage: "IN OUT [--format tsv|bin] [--blocks N] [--days D] [--seed S]",
        start_time: A12W_START,
        run: cmd_convert,
    },
    Command {
        name: "block",
        usage: "[--diurnal|--flat] [--days D] [--seed S]",
        start_time: 0,
        run: cmd_block,
    },
    Command {
        name: "ingest",
        usage: "[--blocks N] [--days D] [--seed S] [--shards K] [--journal FILE] \
                [--listen ADDR | --connect ADDR | --from-file FILE] [--strict] \
                [--read-timeout-ms T] [--reconnect-attempts N] [--backoff-ms B]",
        start_time: A12W_START,
        run: cmd_ingest,
    },
    Command {
        name: "feed",
        usage: "[--blocks N] [--days D] [--seed S] \
                [--listen ADDR | --connect ADDR | --to-file FILE] \
                [--reconnect-attempts N] [--backoff-ms B]",
        start_time: A12W_START,
        run: cmd_feed,
    },
    Command {
        name: "serve",
        usage: "--listen ADDR (--dataset FILE | --journal FILE) [--blocks N] [--days D] \
                [--seed S] [--threads T] [--lru-capacity N] [--read-timeout-ms T]",
        start_time: A12W_START,
        run: cmd_serve,
    },
    Command { name: "countries", usage: "", start_time: 0, run: cmd_countries },
    Command { name: "info", usage: "", start_time: 0, run: cmd_info },
];

fn usage() -> ! {
    for (i, c) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        eprintln!("{}", format!("{lead} sleepwatch {} {}", c.name, c.usage).trim_end());
    }
    std::process::exit(2);
}

/// Rejects one flag's value with a cause naming the flag — so a typo in
/// `--read-timeout-ms abc` says which flag was malformed instead of
/// dumping the whole usage string.
fn bad_flag(flag: &str, why: &str) -> ! {
    eprintln!("sleepwatch: {flag}: {why}");
    std::process::exit(2);
}

/// Parses one flag's value, refusing missing or malformed input with a
/// per-flag error.
fn flag_value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else { bad_flag(flag, "missing value") };
    v.parse().unwrap_or_else(|_| bad_flag(flag, &format!("malformed value {v:?}")))
}

/// Longest `--days` accepted: ten years. The FFT planner takes far longer
/// spans than memory does — a million days passes its check and then
/// allocates until killed. Ten years is 479 k rounds per block and a
/// 1 Mi-point convolution per FFT lane; a one-thread run at the bound
/// peaks near 300 MiB.
const MAX_SPAN_DAYS: f64 = 3_660.0;

fn parse_args(cmd: &Command, mut it: impl Iterator<Item = String>) -> Args {
    let mut a = Args::default();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let known = flag.starts_with('-') && COMMANDS.iter().any(|c| c.reads(flag));
        if known && !cmd.reads(flag) {
            bad_flag(flag, &format!("not a flag of {}", cmd.name));
        }
        match flag {
            "--blocks" => {
                a.blocks = flag_value(flag, it.next());
                if a.blocks == 0 {
                    bad_flag(flag, "must be at least 1");
                }
            }
            "--days" => {
                a.days = flag_value(flag, it.next());
                // NaN and negative spans cast to zero rounds.
                let rounds = World::rounds_in_days(a.days);
                if !a.days.is_finite() || rounds == 0 {
                    bad_flag(flag, "must be a finite span of at least one probing round");
                }
                if rounds > MAX_PLAN_LEN {
                    bad_flag(flag, &format!("spans more than {MAX_PLAN_LEN} probing rounds"));
                }
                if a.days > MAX_SPAN_DAYS {
                    bad_flag(flag, &format!("spans more than {MAX_SPAN_DAYS} days"));
                }
                // Everything outside the first and last UTC midnight is
                // trimmed away; a span that crosses only one leaves an
                // empty series, which "analyses" to all-zero verdicts.
                if midnight_trim(cmd.start_time, rounds, ROUND_SECONDS).is_empty() {
                    bad_flag(flag, "must span two UTC midnights from the start of the run");
                }
            }
            "--seed" => a.seed = flag_value(flag, it.next()),
            "--threads" => {
                a.threads = flag_value(flag, it.next());
                if a.threads == 0 {
                    bad_flag(flag, "must be at least 1");
                }
            }
            "--shards" => {
                a.shards = flag_value(flag, it.next());
                if a.shards == 0 {
                    bad_flag(flag, "must be at least 1");
                }
            }
            "--dataset" => a.dataset = Some(flag_value(flag, it.next())),
            "--journal" => a.journal = Some(flag_value(flag, it.next())),
            "--format" => a.format = Some(flag_value(flag, it.next())),
            "--flat" => a.diurnal = false,
            "--diurnal" => a.diurnal = true,
            "--listen" => a.listen = Some(flag_value(flag, it.next())),
            "--connect" => a.connect = Some(flag_value(flag, it.next())),
            "--from-file" => a.from_file = Some(flag_value(flag, it.next())),
            "--to-file" => a.to_file = Some(flag_value(flag, it.next())),
            "--strict" => a.strict = true,
            "--lru-capacity" => a.lru_capacity = flag_value(flag, it.next()),
            "--read-timeout-ms" => {
                a.read_timeout_ms = flag_value(flag, it.next());
                if a.read_timeout_ms == 0 {
                    bad_flag(flag, "must be at least 1");
                }
            }
            "--reconnect-attempts" => {
                a.reconnect_attempts = flag_value(flag, it.next());
                if a.reconnect_attempts == 0 {
                    bad_flag(flag, "must be at least 1");
                }
            }
            "--backoff-ms" => a.backoff_ms = flag_value(flag, it.next()),
            other if !other.starts_with('-') => a.positional.push(arg),
            _ => usage(),
        }
    }
    a
}

fn cmd_analyze(a: &Args) -> ExitCode {
    let world = World::generate(a.world_config());
    let cfg = AnalysisConfig::over_days(world.cfg.start_time, a.days);
    if a.days < 14.0 {
        eprintln!(
            "note: the paper requires two or more weeks for trustworthy diurnal \
             classification; {} days will be noisy",
            a.days
        );
    }
    let reporter = sleepwatch::obs::Reporter::new("analyze");
    reporter.note(&format!("analyzing {} blocks over {} days…", a.blocks, a.days));
    let progress = |done: usize, total: usize| reporter.report(done, total);
    let analysis = analyze_world(&world, &cfg, a.threads, Some(&progress));

    let (strict, sf) = analysis.strict_fraction();
    let (either, ef) = analysis.diurnal_fraction();
    outln!("blocks analyzed     : {}", analysis.len());
    outln!("strictly diurnal    : {strict} ({:.1}%)", 100.0 * sf);
    outln!("strict or relaxed   : {either} ({:.1}%)", 100.0 * ef);
    outln!("stationary          : {:.1}%", 100.0 * analysis.stationary_fraction());

    outln!("\ntop countries by diurnal fraction (≥20 blocks):");
    for s in analysis.country_stats(20).iter().take(10) {
        outln!(
            "  {:<4}{:>7} blocks  {:>7.3}  (GDP ${:.0})",
            s.code,
            s.blocks,
            s.frac_diurnal,
            s.gdp
        );
    }

    let size = estimate_size(&analysis);
    outln!(
        "\nactive addresses: mean {:.0}, snapshot range [{:.0}, {:.0}] ({:.1}% swing)",
        size.mean_active,
        size.trough_active,
        size.peak_active,
        100.0 * size.relative_uncertainty()
    );

    if let Some(path) = &a.dataset {
        let format = a.format.unwrap_or(Format::Tsv);
        let written = match format {
            // Seed-joined: the reader re-derives geolocation and
            // allocation columns from the same world configuration.
            Format::Bin => write_dataset_bin_file(Path::new(path), &analysis, Some(&world.cfg)),
            Format::Tsv => write_dataset_file(Path::new(path), &analysis),
        };
        if let Err(e) = written {
            eprintln!("could not write dataset: {e}");
            return ExitCode::FAILURE;
        }
        match format {
            Format::Bin => outln!("\nbinary dataset written to {path} (seed-joined)"),
            Format::Tsv => outln!("\ndataset written to {path}"),
        }
    }
    ExitCode::SUCCESS
}

/// `sleepwatch convert IN OUT`: reads a dataset in either format (the
/// input is sniffed by magic, not extension) and rewrites it in the
/// other — or the one forced by `--format`, defaulting to the `OUT`
/// extension (`.bin` means binary). Binary output from this path is
/// always self-contained: a converted file must not depend on a world
/// seed the recipient may not have. Seed-joined *input* needs the
/// producing world's `--seed`/`--blocks` to re-derive its columns.
fn cmd_convert(a: &Args) -> ExitCode {
    let [input, output] = a.positional.as_slice() else { usage() };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("could not read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let is_bin = sniff_magic(&bytes) == Some(DATASET_MAGIC);
    let rows = if is_bin {
        match decode_dataset(&bytes, Some(&a.world_config())) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("could not decode {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match read_dataset(&bytes[..]) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("could not parse {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let to = a.format.unwrap_or(if output.ends_with(".bin") { Format::Bin } else { Format::Tsv });
    let result = match to {
        Format::Bin => {
            sleepwatch::core::export::write_dataset_rows_bin_file(Path::new(output), &rows, None)
                .map_err(|e| e.to_string())
        }
        Format::Tsv => std::fs::File::create(output)
            .and_then(|mut f| write_dataset_rows(&mut f, &rows))
            .map_err(|e| e.to_string()),
    };
    if let Err(e) = result {
        eprintln!("could not write {output}: {e}");
        return ExitCode::FAILURE;
    }
    outln!(
        "{} rows: {input} ({}) -> {output} ({})",
        rows.len(),
        if is_bin { "binary" } else { "tsv" },
        match to {
            Format::Bin => "binary, self-contained",
            Format::Tsv => "tsv",
        }
    );
    ExitCode::SUCCESS
}

fn cmd_block(a: &Args) -> ExitCode {
    let profile = if a.diurnal {
        BlockProfile {
            n_stable: 40,
            n_diurnal: 160,
            stable_avail: 0.9,
            diurnal_avail: 0.85,
            onset_hours: 8.0,
            onset_spread: 2.0,
            duration_hours: 9.0,
            duration_spread: 1.5,
            sigma_start: 0.5,
            sigma_duration: 0.5,
            utc_offset_hours: 0.0,
        }
    } else {
        BlockProfile::always_on(150, 0.8)
    };
    let block = BlockSpec::bare(0, a.seed, profile);
    // Starts at midnight UTC — the `start_time` of this command's row.
    let analysis = analyze_block(&block, &AnalysisConfig::over_days(0, a.days));
    outln!("class         : {:?}", analysis.diurnal.class);
    outln!("mean Âs       : {:.3}", analysis.mean_a_short);
    outln!("probes/hour   : {:.1}", analysis.run.probes_per_hour());
    outln!("dominance     : {:.2}", analysis.diurnal.dominance_ratio());
    if let Some(phase) = analysis.diurnal.phase {
        let peak = sleepwatch::core::peak_utc_hour(phase);
        outln!("phase         : {phase:.3} rad (daily peak ≈ {peak:.1}h UTC)");
    }
    outln!(
        "stationary    : {} ({:+.2} addr/day)",
        analysis.trend.stationary,
        analysis.trend.addresses_per_day
    );
    ExitCode::SUCCESS
}

/// Builds the wire event source the transport flags selected, if any.
/// At most one of `--listen`, `--connect`, `--from-file` may be given.
fn wire_source(
    a: &Args,
    identity: sleepwatch::core::framing::RunIdentity,
) -> Result<Option<Box<dyn EventSource>>, String> {
    let picked = [a.listen.is_some(), a.connect.is_some(), a.from_file.is_some()]
        .into_iter()
        .filter(|&b| b)
        .count();
    if picked > 1 {
        return Err("--listen, --connect and --from-file are mutually exclusive".into());
    }
    let mut cfg = TcpConfig::new(identity);
    cfg.read_timeout = std::time::Duration::from_millis(a.read_timeout_ms);
    cfg.backoff = a.backoff();
    cfg.strict = a.strict;
    if let Some(addr) = &a.connect {
        return Ok(Some(Box::new(TcpEventSource::dial(addr.clone(), cfg))));
    }
    if let Some(addr) = &a.listen {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("could not listen on {addr}: {e}"))?;
        eprintln!("waiting for a feed on {addr}…");
        return Ok(Some(Box::new(TcpEventSource::accept(listener, cfg))));
    }
    if let Some(path) = &a.from_file {
        let f = std::fs::File::open(path).map_err(|e| format!("could not open {path}: {e}"))?;
        let fs = FileSource::new(std::io::BufReader::new(f), &identity, a.strict)
            .map_err(|e| format!("could not read feed {path}: {e}"))?;
        return Ok(Some(Box::new(fs)));
    }
    Ok(None)
}

/// Renders a transport-fed ingest: the usual summary plus the wire's
/// accounting, a degradation report when the feed died early, and a
/// nonzero exit with a readable cause on any terminal transport error.
fn report_transport(a: &Args, out: TransportOutcome, secs: f64, shards: usize) -> ExitCode {
    print_ingest_summary(a, &out.outcome, secs, shards);
    let t = &out.transport;
    outln!("wire frames         : {}", t.frames);
    outln!("reconnects          : {}", t.reconnects);
    if t.duplicates > 0 {
        outln!("duplicate frames    : {}", t.duplicates);
    }
    if t.skipped_corrupt > 0 || t.lost_events > 0 {
        outln!("corrupt skipped     : {} frames, {} events lost", t.skipped_corrupt, t.lost_events);
    }
    if t.heartbeats_missed > 0 {
        outln!("heartbeats missed   : {}", t.heartbeats_missed);
    }
    if t.backoff_ms > 0 {
        outln!("backoff slept       : {} ms", t.backoff_ms);
    }
    if let Some(e) = &out.error {
        match e {
            TransportError::Exhausted { .. } => {
                eprintln!("sleepwatch: connection budget exhausted: {e}");
            }
            e if e.is_foreign_feed() => {
                eprintln!("sleepwatch: refused foreign feed: {e}");
            }
            _ => eprintln!("sleepwatch: transport failed: {e}"),
        }
        if !out.outcome.open_blocks.is_empty() {
            eprintln!(
                "sleepwatch: {} blocks degraded (streams never finished); \
                 completed verdicts above are final",
                out.outcome.open_blocks.len()
            );
        }
        return ExitCode::FAILURE;
    }
    if !out.transport.clean_end || !out.outcome.open_blocks.is_empty() {
        eprintln!(
            "sleepwatch: feed ended early; {} blocks degraded (streams never finished)",
            out.outcome.open_blocks.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `sleepwatch ingest`: streams a synthetic world through the sharded
/// live-ingest engine — probe rounds arrive interleaved, are routed
/// `hash(block) → shard` over bounded queues, and every finished block's
/// verdict is identical to what `sleepwatch analyze` computes in batch.
/// With `--listen`/`--connect`/`--from-file` the rounds arrive over the
/// `SLPWFEED` wire instead of being probed in-process.
fn cmd_ingest(a: &Args) -> ExitCode {
    let source = WorldSource::new(a.world_config());
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, a.days);
    let icfg = IngestConfig { shards: a.shards, ..Default::default() };
    let wire = match wire_source(a, feed_identity(&source, &cfg)) {
        Ok(w) => w,
        Err(msg) => {
            eprintln!("sleepwatch: {msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ingesting {} blocks over {} days across {} shards…", a.blocks, a.days, icfg.shards);
    let started = std::time::Instant::now();
    if let Some(mut es) = wire {
        let out = match &a.journal {
            Some(path) => {
                match ingest_source_resumable(&source, &cfg, &icfg, &mut *es, Path::new(path)) {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("could not open journal {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => ingest_source(&source, &cfg, &icfg, &mut *es),
        };
        return report_transport(a, out, started.elapsed().as_secs_f64(), icfg.shards);
    }
    let out = match &a.journal {
        Some(path) => match ingest_world_resumable(&source, &cfg, &icfg, Path::new(path)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("could not open journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ingest_world(&source, &cfg, &icfg),
    };
    print_ingest_summary(a, &out, started.elapsed().as_secs_f64(), icfg.shards);
    ExitCode::SUCCESS
}

/// The shared `ingest` summary block.
fn print_ingest_summary(a: &Args, out: &sleepwatch::core::IngestOutcome, secs: f64, shards: usize) {
    let s = &out.stats;
    let strict = out.reports.iter().filter(|r| r.summary.class.is_strict()).count();
    outln!("blocks finalized    : {}", s.blocks);
    if s.replayed > 0 {
        outln!("  from journal      : {}", s.replayed);
    }
    if s.quarantined > 0 {
        outln!("  quarantined       : {}", s.quarantined);
    }
    outln!(
        "strictly diurnal    : {strict} ({:.1}%)",
        100.0 * strict as f64 / s.blocks.max(1) as f64
    );
    outln!("live strict (stream): {}", s.live_strict);
    outln!("rounds routed       : {}", s.rounds_routed);
    outln!("queue high water    : {} events", s.queue_high_water);
    outln!("backpressure stalls : {}", s.backpressure_stalls);
    if a.journal.is_some() {
        outln!("checkpoints         : {}", s.checkpoints);
    }
    if secs > 0.0 {
        outln!(
            "throughput          : {:.0} rounds/s ({:.0} rounds/s/shard)",
            s.rounds_routed as f64 / secs,
            s.rounds_routed as f64 / secs / shards as f64
        );
    }
}

/// `sleepwatch feed`: serves a world's interleaved round stream over the
/// `SLPWFEED` wire — to a file, to a dialing consumer (`--listen`), or by
/// dialing a listening consumer (`--connect`). The world is probed once to
/// count its events, then again as it is sent, on every core, so memory
/// stays at two chunks whatever the world's size.
fn cmd_feed(a: &Args) -> ExitCode {
    let source = WorldSource::new(a.world_config());
    let cfg = AnalysisConfig::over_days(source.cfg().start_time, a.days);
    let icfg = IngestConfig::default();
    let identity = feed_identity(&source, &cfg);
    let picked = [a.listen.is_some(), a.connect.is_some(), a.to_file.is_some()]
        .into_iter()
        .filter(|&b| b)
        .count();
    if picked != 1 {
        eprintln!("sleepwatch: feed needs exactly one of --listen, --connect or --to-file");
        return ExitCode::FAILURE;
    }
    eprintln!("counting feed: {} blocks over {} days…", a.blocks, a.days);
    let feed = WorldFeed::new(&source, &cfg, &icfg);
    if !feed.quarantined().is_empty() {
        eprintln!("note: {} blocks quarantined at probe time", feed.quarantined().len());
    }
    let fcfg = FeedConfig::new(identity);
    if let Some(path) = &a.to_file {
        let write = std::fs::File::create(path)
            .and_then(|mut f| write_feed(&mut f, &feed, &identity, fcfg.frame_events));
        return match write {
            Ok(()) => {
                outln!("{} events written to {path}", feed.total());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sleepwatch: could not write feed {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let endpoint = if let Some(addr) = &a.listen {
        match std::net::TcpListener::bind(addr) {
            Ok(l) => {
                eprintln!("serving feed on {addr} (interrupt to stop)…");
                Endpoint::Accept(l)
            }
            Err(e) => {
                eprintln!("sleepwatch: could not listen on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Endpoint::Dial(a.connect.clone().expect("checked above"))
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    match serve_feed(&endpoint, &feed, &fcfg, &a.backoff(), &stop) {
        Ok(served) => {
            outln!("feed delivered over {served} connection(s)");
            ExitCode::SUCCESS
        }
        Err(e @ TransportError::Exhausted { .. }) => {
            eprintln!("sleepwatch: connection budget exhausted: {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sleepwatch: feed failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sleepwatch serve`: loads an analyzed world — an `SLPWBIN1` dataset
/// or a checkpoint journal, checked against this run's identity — and
/// serves its aggregate views as JSON over HTTP until interrupted.
fn cmd_serve(a: &Args) -> ExitCode {
    use sleepwatch::core::serve::{load_rows, QueryServer, ServeConfig, ServeState};
    use sleepwatch::core::{run_identity, JournalHeader};

    let Some(listen) = &a.listen else {
        eprintln!("sleepwatch: serve needs --listen ADDR");
        return ExitCode::FAILURE;
    };
    let path = match (&a.dataset, &a.journal) {
        (Some(d), None) => d,
        (None, Some(j)) => j,
        _ => {
            eprintln!("sleepwatch: serve needs exactly one of --dataset or --journal");
            return ExitCode::FAILURE;
        }
    };
    let wcfg = a.world_config();
    let cfg = AnalysisConfig::over_days(wcfg.start_time, a.days);
    let expect = JournalHeader::from_identity(&run_identity(a.seed, a.blocks, &cfg));
    let rows = match load_rows(Path::new(path), Some(&wcfg), &expect) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("sleepwatch: could not load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let blocks = rows.len();
    let state = std::sync::Arc::new(ServeState::build(rows, a.lru_capacity));
    let listener = match std::net::TcpListener::bind(listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sleepwatch: could not listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scfg = ServeConfig {
        threads: a.threads,
        read_timeout: std::time::Duration::from_millis(a.read_timeout_ms),
    };
    let server = match QueryServer::spawn(listener, state, &scfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sleepwatch: could not start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!("serving {blocks} blocks on http://{} ({} threads)", server.addr(), scfg.threads);
    loop {
        std::thread::park();
    }
}

fn cmd_countries(_: &Args) -> ExitCode {
    outln!("{:<5}{:<24}{:>10}{:>10}{:>8}  region", "code", "name", "GDP", "kWh/cap", "blocks");
    for c in COUNTRIES {
        outln!(
            "{:<5}{:<24}{:>10.0}{:>10.0}{:>8.0}  {}",
            c.code,
            c.name,
            c.gdp_per_capita,
            c.electricity_kwh,
            c.block_weight,
            c.region.name()
        );
    }
    outln!("\n{} countries modeled", COUNTRIES.len());
    ExitCode::SUCCESS
}

fn cmd_info(_: &Args) -> ExitCode {
    outln!("sleepwatch {}", env!("CARGO_PKG_VERSION"));
    outln!("reproduction of: Quan, Heidemann, Pradkin — 'When the Internet Sleeps' (IMC 2014)");
    outln!("round length   : 660 s (11 minutes)");
    outln!("countries      : {}", COUNTRIES.len());
    outln!("experiments    : run `cargo run -p sleepwatch-experiments -- --list`");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next().and_then(|name| COMMANDS.iter().find(|c| c.name == name)) else {
        usage()
    };
    (cmd.run)(&parse_args(cmd, args))
}
