//! The sleepwatch end-to-end benchmark.
//!
//! Four workloads drive the program through its public functions only:
//! the batch chain at paper-scale shape and at a short, faulty shape, the
//! wire → ingest → journal chain, and the query service under a mixed
//! load. An untraced run reports four end-to-end metrics; a traced run
//! reports the per-layer table. See `README.md` beside this package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod json;
pub mod procfs;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{RunConfig, RunResult};
use workloads::{batch::Batch, serve::Serve, stream::Stream};

/// `run_seconds` of `BENCHMARK.json`: how long the timed repetitions run
/// when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  sleepwatch-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  sleepwatch-benchmark compare A.jsonl B.jsonl

Without --workload every workload runs, each in a child process of its own.
Workloads: batch_world, batch_faulty_short, stream_ingest, serve_mixed.";

/// The package directory: where `out/` lives and beside which
/// `BENCHMARK.json` sits. `cargo run` exports it; the compile-time value
/// covers a binary started by hand.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<RunResult> {
    let shape = workloads::shape(name, cfg.smoke)?;
    Some(match name {
        "stream_ingest" => harness::run(&Stream::new(shape, cfg.seed), cfg),
        "serve_mixed" => harness::run(&Serve::new(shape, cfg.seed), cfg),
        _ => harness::run(&Batch::new(shape, cfg.seed), cfg),
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if workloads::shape(w, false).is_none() {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(a)
}

/// Entry point behind `main`: `args` excludes the program name.
pub fn main_with_args(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("compare") {
        return compare_files(&args[1..]);
    }
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sleepwatch-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        Some(name) => run_here(name, &a),
        None => run_children(args),
    }
}

fn run_here(name: &str, a: &Args) -> ExitCode {
    let out_root = package_dir().join("out");
    // Scratch files of concurrent runs must not collide.
    let scratch = out_root.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("sleepwatch-benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunConfig {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        out_dir: out_root.clone(),
        scratch_dir: scratch.clone(),
    };
    let result = run_workload(name, &cfg).expect("workload name was validated");
    let _ = std::fs::remove_dir_all(&scratch);

    let results = a.out.clone().unwrap_or_else(|| out_root.join("results.jsonl"));
    if let Err(e) = append_line(&results, &result.result_line()) {
        eprintln!("sleepwatch-benchmark: cannot append to {}: {e}", results.display());
        return ExitCode::FAILURE;
    }
    result.print();
    ExitCode::SUCCESS
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// Runs every workload in a child process of its own, so peak memory is
/// per workload. Fails when a child fails or reports a wrong output.
fn run_children(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sleepwatch-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for name in workloads::NAMES {
        let child = Command::new(&exe).args(args).args(["--workload", name]).output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sleepwatch-benchmark: cannot start {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let correct = stdout
            .lines()
            .last()
            .and_then(|l| json::parse(l).ok())
            .is_some_and(|v| v.get("correct") == Some(&json::Value::Bool(true)));
        if !output.status.success() || !correct {
            eprintln!("sleepwatch-benchmark: {name} failed or reported a wrong output");
            all_correct = false;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("sleepwatch-benchmark: compare takes two result files\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = package_dir().join("../BENCHMARK.json");
    let rows = read(&spec.to_string_lossy())
        .and_then(|s| compare::bounds_from(&s))
        .and_then(|bounds| compare::compare(&read(a)?, &read(b)?, &bounds));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows.iter().any(|r| r.verdict == compare::Verdict::Regressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sleepwatch-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
