//! CLI for regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [OPTIONS] <ID>...
//!   <ID>            fig1..fig17, table1..table5, ablate-ewma,
//!                   ablate-strict, ablate-probes, or `all`
//!   --seed <N>      world seed (default 1)
//!   --scale <X>     population scale multiplier (default 1.0)
//!   --threads <N>   worker threads (default: available parallelism)
//!   --out <DIR>     CSV output directory (default: results; `-` disables)
//!   --journal <DIR> checkpoint the shared world run to DIR and resume
//!                   from an earlier interrupted run's journal
//!   --format <F>    dataset artifact format: tsv (default) or bin, which
//!                   also writes `ext-dataset.bin` (compact seed-joined
//!                   binary) next to the TSV
//!   --list          print all experiment ids
//! ```

use sleepwatch_experiments::{
    run, write_dataset_bin, Context, DatasetFormat, Options, EXPERIMENTS,
};
use sleepwatch_obs::{RunReport, Snapshot};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--seed N] [--scale X] [--threads N] [--out DIR] [--journal DIR] \
         [--format tsv|bin] [--list] <ID|all>..."
    );
    std::process::exit(2);
}

/// Reports exactly which flag was malformed, then exits: `--seed x` and
/// `--threads x` must not fall into the same generic usage message.
fn bad_flag(flag: &str, value: Option<&str>) -> ! {
    match value {
        Some(v) => eprintln!("error: invalid value {v:?} for {flag}"),
        None => eprintln!("error: {flag} requires a value"),
    }
    std::process::exit(2);
}

/// Parses the value of `flag`, naming the flag in any error.
fn parse_flag<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
    let Some(raw) = args.next() else { bad_flag(flag, None) };
    match raw.parse() {
        Ok(v) => v,
        Err(_) => bad_flag(flag, Some(&raw)),
    }
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = parse_flag("--seed", &mut args),
            "--scale" => opts.scale = parse_flag("--scale", &mut args),
            "--threads" => opts.threads = parse_flag("--threads", &mut args),
            "--out" => {
                let Some(dir) = args.next() else { bad_flag("--out", None) };
                opts.out_dir = if dir == "-" { None } else { Some(dir.into()) };
            }
            "--journal" => {
                let Some(dir) = args.next() else { bad_flag("--journal", None) };
                opts.journal = Some(dir.into());
            }
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("tsv") => DatasetFormat::Tsv,
                    Some("bin") => DatasetFormat::Bin,
                    Some(v) => bad_flag("--format", Some(v)),
                    None => bad_flag("--format", None),
                }
            }
            "--list" => {
                for (id, _) in EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other}");
                usage();
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }

    let ctx = Context::new(opts);
    let mut failed = false;
    for id in &ids {
        let start = std::time::Instant::now();
        let before = Snapshot::capture(sleepwatch_obs::global());
        match run(id, &ctx) {
            Some(out) => {
                println!("{}", out.report);
                if !out.headline.is_empty() {
                    let parts: Vec<String> =
                        out.headline.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    println!("[{}] {}", out.id, parts.join("  "));
                }
                println!("[{}] done in {:.1?}\n", out.id, start.elapsed());
                if let Some(dir) = &ctx.opts.out_dir {
                    if let Err(e) = std::fs::create_dir_all(dir)
                        .and_then(|_| std::fs::write(dir.join(format!("{}.csv", out.id)), &out.csv))
                    {
                        eprintln!("[{}] could not write CSV: {e}", out.id);
                        failed = true;
                    }
                    if out.id == "ext-dataset" && ctx.opts.format == DatasetFormat::Bin {
                        match write_dataset_bin(&ctx, dir) {
                            Ok(path) => println!("[{}] binary dataset: {}", out.id, path.display()),
                            Err(e) => {
                                eprintln!("[{}] could not write binary dataset: {e}", out.id);
                                failed = true;
                            }
                        }
                    }
                    // Observability artifact: the run's metric activity
                    // (snapshot delta) next to its CSV. Shared-world cost
                    // lands in whichever experiment triggered the run.
                    let report = RunReport {
                        label: out.id.to_string(),
                        threads: ctx.opts.threads,
                        wall_seconds: start.elapsed().as_secs_f64(),
                        snapshot: Snapshot::capture(sleepwatch_obs::global()).delta(&before),
                    };
                    if let Err(e) =
                        std::fs::write(dir.join(format!("{}.report.tsv", out.id)), report.to_tsv())
                    {
                        eprintln!("[{}] could not write report: {e}", out.id);
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
