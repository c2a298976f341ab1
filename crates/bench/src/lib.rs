//! The gate harness: the pass/fail checks `BENCHMARK.json` cannot make.
//!
//! Throughput and latency live in `benchmark/`, which compares every
//! metric against the parent commit. What is left here are ratios and
//! exact counts taken inside one process. `benches/gates.rs` measures
//! them; this library is everything the measurements share: one
//! interleaved sampler with its two estimators, one gate record, one
//! result schema and one exit path. A run always writes its file, names every
//! failed gate on one line, and exits 1 if any failed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Wall seconds of one call to `f`.
pub fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// `n` samples of `a` and of `b`, taken alternately (A/B/A/B…) so drift —
/// frequency steps, scheduler, allocator state — lands on both sides.
/// Each closure returns the seconds it measured.
pub fn interleaved(
    n: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    (0..n).map(|_| (a(), b())).unzip()
}

/// Middle sample (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median of `a[i] / b[i]`: the estimator for two interleaved sides. Each
/// ratio is taken between neighbours in time, so slow drift cancels pair
/// by pair, and the median drops the pairs a burst landed in.
pub fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>())
}

/// Smallest sample: the estimator for "how fast can this go" on a shared
/// machine, where noise only ever adds time.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Which side of its bound a gated value must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `value <= bound`.
    AtMost,
    /// `value >= bound`.
    AtLeast,
    /// `value == bound` (exact counts).
    Equal,
}

impl Direction {
    fn symbol(self) -> &'static str {
        match self {
            Direction::AtMost => "<=",
            Direction::AtLeast => ">=",
            Direction::Equal => "==",
        }
    }
}

/// One pass/fail check: `value` held against `bound`; `pass` says whether
/// it is on the `direction` side (a NaN never is).
#[derive(Debug)]
struct Gate {
    name: String,
    value: f64,
    bound: f64,
    direction: Direction,
    pass: bool,
}

/// One run's sizes, measurements and gates, rendered as one JSON schema:
/// `bench`, `commit`, `cores`, `threads`, `size`, `measurements`,
/// `gates`, `pass`.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    threads: usize,
    size: Vec<(String, f64)>,
    measurements: Vec<(String, f64)>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report for the bench target `bench`, whose parallel
    /// sections use `threads` threads.
    pub fn new(bench: &'static str, threads: usize) -> Self {
        Report { bench, threads, size: Vec::new(), measurements: Vec::new(), gates: Vec::new() }
    }

    /// Records one fixed input size.
    pub fn size(&mut self, name: &str, value: f64) {
        self.size.push((name.to_string(), value));
    }

    /// Records an ungated number.
    pub fn measure(&mut self, name: &str, value: f64) {
        println!("{name} = {}", num(value));
        self.measurements.push((name.to_string(), value));
    }

    /// Holds `value` against `bound`.
    pub fn gate(&mut self, name: &str, value: f64, direction: Direction, bound: f64) {
        let pass = match direction {
            Direction::AtMost => value <= bound,
            Direction::AtLeast => value >= bound,
            Direction::Equal => value == bound,
        };
        let verdict = if pass { "ok" } else { "FAILED" };
        println!("gate {name}: {} {} {} {verdict}", num(value), direction.symbol(), num(bound));
        self.gates.push(Gate { name: name.to_string(), value, bound, direction, pass });
    }

    /// The result document. Names are plain identifiers, so nothing needs
    /// escaping; a non-finite number renders as `null`.
    fn render(&self, commit: &str, cores: usize) -> String {
        let object = |pairs: &[(String, f64)]| {
            let fields: Vec<String> =
                pairs.iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
            format!("{{{}}}", fields.join(", "))
        };
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "    {{\"name\": \"{}\", \"value\": {}, \"bound\": {}, \
                     \"direction\": \"{}\", \"pass\": {}}}",
                    g.name,
                    num(g.value),
                    num(g.bound),
                    g.direction.symbol(),
                    g.pass
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"commit\": \"{commit}\",\n  \"cores\": {cores},\n  \
             \"threads\": {},\n  \"size\": {},\n  \"measurements\": {},\n  \
             \"gates\": [\n{}\n  ],\n  \"pass\": {}\n}}\n",
            self.bench,
            self.threads,
            object(&self.size),
            object(&self.measurements),
            gates.join(",\n"),
            self.gates.iter().all(|g| g.pass)
        )
    }

    /// The one exit path: writes the document to `path`, prints one line
    /// per failed gate, and returns the process exit code — 0 when every
    /// gate passed, 1 otherwise (or when the file could not be written).
    pub fn finish(&self, path: &Path) -> i32 {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut code = 0;
        if let Err(e) = std::fs::write(path, self.render(&commit(), cores)) {
            eprintln!("{}: cannot write {}: {e}", self.bench, path.display());
            code = 1;
        }
        for g in self.gates.iter().filter(|g| !g.pass) {
            eprintln!(
                "{}: gate {} failed: {} is not {} {}",
                self.bench,
                g.name,
                num(g.value),
                g.direction.symbol(),
                num(g.bound)
            );
            code = 1;
        }
        code
    }
}

/// `git describe --always --dirty` of the working directory, or `unknown`.
fn commit() -> String {
    let out = std::process::Command::new("git").args(["describe", "--always", "--dirty"]).output();
    let text = out.ok().filter(|o| o.status.success()).map(|o| o.stdout).unwrap_or_default();
    let id: String = String::from_utf8_lossy(&text)
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '.'))
        .collect();
    if id.is_empty() {
        "unknown".into()
    } else {
        id
    }
}

/// A JSON number at six decimals, trailing zeros dropped.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", (v * 1e6).round() / 1e6)
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&str; 8] =
        ["bench", "commit", "cores", "threads", "size", "measurements", "gates", "pass"];

    /// Brackets balance outside strings, strings close, and every schema
    /// key appears exactly once at the top level.
    fn check_document(doc: &str) {
        let (mut stack, mut in_string) = (Vec::new(), false);
        for c in doc.chars() {
            match c {
                '"' => in_string = !in_string,
                '{' | '[' if !in_string => stack.push(c),
                '}' if !in_string => assert_eq!(stack.pop(), Some('{'), "unbalanced }}"),
                ']' if !in_string => assert_eq!(stack.pop(), Some('['), "unbalanced ]"),
                _ => {}
            }
        }
        assert!(stack.is_empty() && !in_string, "document does not close");
        for key in KEYS {
            let top_level = format!("\n  \"{key}\": ");
            assert_eq!(doc.matches(&top_level).count(), 1, "key {key}");
        }
    }

    fn report(ratio: f64) -> Report {
        let mut r = Report::new("selftest", 2);
        r.size("blocks", 40.0);
        r.measure("enabled_median_s", 0.0067);
        r.gate("ratio", ratio, Direction::AtMost, 1.03);
        r.gate("series", 40.0, Direction::Equal, 40.0);
        r
    }

    fn finish(r: &Report, tag: &str) -> (i32, String) {
        let path = std::env::temp_dir().join(format!("gates-{}-{tag}.json", std::process::id()));
        let code = r.finish(&path);
        let doc = std::fs::read_to_string(&path).expect("finish always writes the file");
        std::fs::remove_file(&path).expect("remove the test document");
        (code, doc)
    }

    #[test]
    fn a_failed_gate_is_written_marked_and_exits_nonzero() {
        let (code, doc) = finish(&report(1.07), "fail");
        assert_eq!(code, 1);
        check_document(&doc);
        let failed = "{\"name\": \"ratio\", \"value\": 1.07, \"bound\": 1.03, \
                      \"direction\": \"<=\", \"pass\": false}";
        assert!(doc.contains(failed), "{doc}");
        assert!(doc.contains("\"name\": \"series\", \"value\": 40, \"bound\": 40"), "{doc}");
        assert!(doc.contains("\n  \"pass\": false\n"), "{doc}");
    }

    #[test]
    fn a_passing_run_exits_zero() {
        let (code, doc) = finish(&report(1.01), "pass");
        assert_eq!(code, 0);
        check_document(&doc);
        assert!(doc.contains("\n  \"pass\": true\n"), "{doc}");
        assert!(!doc.contains("false"), "{doc}");
    }

    #[test]
    fn an_unwritable_path_exits_nonzero() {
        assert_eq!(report(1.01).finish(Path::new("/nonexistent-dir/gates.json")), 1);
    }

    #[test]
    fn gates_hold_their_side_and_nan_never_passes() {
        let mut r = Report::new("selftest", 1);
        r.gate("at_most", 1.03, Direction::AtMost, 1.03);
        r.gate("at_least", 1.49, Direction::AtLeast, 1.5);
        r.gate("equal", 49_999.0, Direction::Equal, 50_000.0);
        r.gate("nan", f64::NAN, Direction::AtMost, 1.0);
        let pass: Vec<bool> = r.gates.iter().map(|g| g.pass).collect();
        assert_eq!(pass, [true, false, false, false]);
        check_document(&r.render("abc1234-dirty", 2));
        assert!(r.render("x", 2).contains("\"name\": \"nan\", \"value\": null"));
    }

    #[test]
    fn median_and_best_on_odd_even_and_single_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        // Drift doubles both sides of the last pair; each ratio is unmoved.
        assert_eq!(median_ratio(&[2.0, 3.0, 8.0], &[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(best(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(best(&[4.0, 1.5, 3.0, 2.0]), 1.5);
        assert_eq!(best(&[7.0]), 7.0);
    }

    #[test]
    fn interleaved_alternates_the_two_sides() {
        let order = std::cell::RefCell::new(Vec::new());
        let side = |tag: char, v: f64| {
            let order = &order;
            move || {
                order.borrow_mut().push(tag);
                v
            }
        };
        let (a, b) = interleaved(3, side('a', 1.0), side('b', 2.0));
        assert_eq!((a, b), (vec![1.0; 3], vec![2.0; 3]));
        assert_eq!(order.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
    }
}
