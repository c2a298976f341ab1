//! Smoke runs of the built binary against `BENCHMARK.json`: the result
//! object has the agreed shape, the metric names and units are exactly the
//! declared ones, nothing fails, and exact counts repeat for a seed.

use std::path::PathBuf;
use std::process::Command;

use sleepwatch_benchmark::json::{self, Value};
use sleepwatch_benchmark::workloads::NAMES;

fn spec() -> Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one table of the spec.
fn declared(table: &str) -> Vec<(String, String)> {
    let spec = spec();
    let rows = spec.get(table).and_then(Value::as_array).expect("table present");
    let mut declared: Vec<(String, String)> = rows
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect();
    declared.sort();
    declared
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sleepwatch-benchmark"))
}

/// Runs one smoke workload and returns the parsed last line of stdout.
fn smoke(workload: &str, seed: u64, trace: bool, tag: &str) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}.jsonl"));
    let run = bin()
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    assert!(run.status.success(), "{workload} exited with {:?}", run.status);
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let written = std::fs::read_to_string(&out).expect("result file written");
    json::parse(written.lines().last().expect("a result line in the file"))
        .expect("the result file holds JSON lines");
    json::parse(last).expect("the last line is the result object")
}

/// Asserts the result object's shape and returns `(name, unit, value)`.
fn metrics_of(result: &Value) -> Vec<(String, String, f64)> {
    let keys: Vec<&str> =
        result.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "failed_share must be 0");
    assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> =
                m.as_object().expect("metric object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit").to_string();
            (name.clone(), unit, value)
        })
        .collect()
}

/// Sorted `(name, unit)` pairs of a run's metrics.
fn names_of(metrics: &[(String, String, f64)]) -> Vec<(String, String)> {
    let mut names: Vec<_> = metrics.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    names.sort();
    names
}

#[test]
fn untraced_smoke_runs_report_exactly_the_end_to_end_metrics() {
    let want = declared("end_to_end");
    for name in NAMES {
        let got = metrics_of(&smoke(name, 3, false, &format!("e2e-{name}")));
        assert_eq!(names_of(&got), want, "{name}");
        for (metric, _, value) in &got {
            assert!(*value > 0.0 && value.is_finite(), "{name}/{metric} = {value} must never be 0");
        }
    }
}

#[test]
fn traced_smoke_runs_report_exactly_the_per_layer_metrics() {
    let want = declared("per_layer");
    for name in NAMES {
        let got = metrics_of(&smoke(name, 3, true, &format!("layers-{name}")));
        assert_eq!(names_of(&got), want, "{name}");
        assert!(got.iter().all(|(_, _, v)| v.is_finite()), "{name}");
        let value = |m: &str| got.iter().find(|(n, _, _)| n == m).expect("declared metric").2;
        assert_eq!(value("transport.reconnects"), 0.0, "{name}");
        assert!(value("bench.span_coverage") >= 0.95, "{name}: spans must cover the repetition");
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let exact = [
        "probing.probes_per_block",
        "worldrun.strict_diurnal",
        "transport.frames",
        "ingest.checkpoints",
    ];
    let pick = |r: &Value| -> Vec<f64> {
        let m = metrics_of(r);
        exact
            .iter()
            .map(|e| m.iter().find(|(n, _, _)| n == e).expect("declared metric").2)
            .collect()
    };
    let a = pick(&smoke("batch_faulty_short", 11, true, "exact-a"));
    let b = pick(&smoke("batch_faulty_short", 11, true, "exact-b"));
    assert_eq!(a, b);
    assert_ne!(
        a,
        pick(&smoke("batch_faulty_short", 12, true, "exact-c")),
        "another seed, another world"
    );
}

#[test]
fn compare_reads_two_result_files() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    smoke("serve_mixed", 5, false, "cmp-a");
    smoke("serve_mixed", 6, false, "cmp-b");
    let run = bin()
        .arg("compare")
        .args([dir.join("cmp-a.jsonl"), dir.join("cmp-b.jsonl")])
        .output()
        .expect("start compare");
    let table = String::from_utf8(run.stdout).expect("utf-8 table");
    for (metric, _) in declared("end_to_end") {
        assert!(table.contains(&metric), "{metric} missing from:\n{table}");
    }
    assert!(table.contains("serve_mixed"));
    // Smoke runs are far too short to be steady; only the exit code's
    // meaning is checked: 1 exactly when a row says `regressed`.
    assert_eq!(run.status.code(), Some(i32::from(table.contains("regressed"))));
    let bad = bin().args(["compare", "only-one"]).output().expect("start compare");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn bad_arguments_exit_2_and_name_the_flag() {
    for args in [&["--trace", "yes"][..], &["--workload", "nope"], &["--seed"], &["--frobnicate"]] {
        let run = bin().args(args).output().expect("start the benchmark");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains(args[0]), "{args:?}");
    }
}

/// The limits a `BENCHMARK.json` is refused for before a single run.
#[test]
fn the_spec_is_within_the_agreed_limits() {
    let spec = spec();
    let keys: Vec<&str> =
        spec.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    let mut seen = Vec::new();
    let mut unique = |n: &str| {
        assert!(!seen.contains(&n.to_string()), "{n} is used twice");
        seen.push(n.to_string());
    };

    let workloads = spec.get("workloads").and_then(Value::as_array).expect("workloads");
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(Value::as_str).expect("name")).collect();
    assert_eq!(names, NAMES);
    for w in workloads {
        assert_eq!(w.as_object().expect("object").len(), 2);
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        unique(w.get("name").and_then(Value::as_str).expect("name"));
    }

    let e2e = spec.get("end_to_end").and_then(Value::as_array).expect("end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(m.as_object().expect("object").len(), 4);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!((0.0..=0.25).contains(&bound));
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));

    let layers = spec.get("per_layer").and_then(Value::as_array).expect("per_layer");
    assert!((1..=128).contains(&layers.len()));
    for m in e2e.iter().chain(layers) {
        let name = m.get("name").and_then(Value::as_str).expect("name");
        assert!(name_ok(name), "{name}");
        unique(name);
        assert!(unit_ok(m.get("unit").and_then(Value::as_str).expect("unit")), "{name}");
        let better = m.get("better").and_then(Value::as_str).expect("better");
        assert!(better == "higher" || better == "lower", "{name}");
    }
    assert!(layers.iter().all(|m| m.as_object().expect("object").len() == 3));

    let seconds = spec.get("run_seconds").and_then(Value::as_f64).expect("run_seconds");
    assert_eq!(seconds, sleepwatch_benchmark::DEFAULT_SECONDS);
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths = spec.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths, [Value::Str("benchmark".into())]);
    let command = spec.get("command").and_then(Value::as_array).expect("command");
    assert!(command.len() <= 32);
    assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
}
