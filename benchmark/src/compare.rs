//! `compare A B`: two sets of runs, one row per (workload, end-to-end
//! metric).
//!
//! Each file holds result lines as the benchmark appends them (one JSON
//! object per line). Runs are grouped by workload; per metric the tool
//! takes each set's median and quartiles over its runs, the ratio of the
//! medians with its base, and the bound from `BENCHMARK.json`:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — not regressed, but a set's own quartile spread is wider
//!   than the bound, so "unchanged" cannot be claimed;
//! * `ok` — otherwise.

use crate::json::{self, Value};
use crate::stats;

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spreads within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// A spread wider than the bound hides the answer.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `(q1, median, q3, runs)` of set A.
    pub a: (f64, f64, f64, usize),
    /// `(q1, median, q3, runs)` of set B.
    pub b: (f64, f64, f64, usize),
    /// B's median over A's median.
    pub ratio: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json` document.
pub fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let table = doc.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end table")?;
    table
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better =
                m.get("better").and_then(Value::as_str).ok_or("metric without a direction")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            Ok(Bound { name: name.to_string(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

/// `(workload, metric name, value)` of every result line in `text`. Lines
/// of traced runs carry no end-to-end metric and so never match a bound.
fn samples(text: &str) -> Result<Vec<(String, String, f64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload =
            v.get("workload").and_then(Value::as_str).ok_or("result without a workload")?;
        let metrics =
            v.get("metrics").and_then(Value::as_object).ok_or("result without metrics")?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).ok_or("metric without a value")?;
            out.push((workload.to_string(), name.clone(), value));
        }
    }
    Ok(out)
}

/// Compares two sets of result lines under `bounds`.
pub fn compare(a_text: &str, b_text: &str, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let (a, b) = (samples(a_text)?, samples(b_text)?);
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _, _) in &a {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        for bound in bounds {
            let pick = |set: &[(String, String, f64)]| -> Vec<f64> {
                set.iter().filter(|(sw, m, _)| sw == w && *m == bound.name).map(|s| s.2).collect()
            };
            let (va, vb) = (pick(&a), pick(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}/{}: missing from one of the sets", bound.name));
            }
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            let ratio = qb.1 / qa.1;
            let worse_by = if bound.higher_is_better { 1.0 - ratio } else { ratio - 1.0 };
            let verdict = if worse_by > bound.bound {
                Verdict::Regressed
            } else if stats::spread(&va) > bound.bound || stats::spread(&vb) > bound.bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: bound.name.clone(),
                a: (qa.0, qa.1, qa.2, va.len()),
                b: (qb.0, qb.1, qb.2, vb.len()),
                ratio,
                bound: bound.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<18} {:>36} {:>36} {:>14} {:>6}  verdict\n",
        "workload",
        "metric",
        "A median [q1, q3] (runs)",
        "B median [q1, q3] (runs)",
        "B/A",
        "bound"
    );
    for r in rows {
        let set =
            |s: (f64, f64, f64, usize)| format!("{:.4} [{:.4}, {:.4}] ({})", s.1, s.0, s.2, s.3);
        out.push_str(&format!(
            "{:<20} {:<18} {:>36} {:>36} {:>8.4} of A {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            set(r.a),
            set(r.b),
            r.ratio,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, thr: f64, rss: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": false, \"smoke\": false, \"metrics\": \
             {{\"throughput_per_s\": {{\"value\": {thr}, \"unit\": \"1/s\"}}, \
             \"peak_rss_mb\": {{\"value\": {rss}, \"unit\": \"MiB\"}}}}}}\n"
        )
    }

    fn bounds() -> Vec<Bound> {
        bounds_from(
            r#"{"end_to_end": [
                {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid table")
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a: String = [100.0, 101.0, 99.0, 100.5].iter().map(|t| line("w", *t, 20.0)).collect();
        // 5 % slower, 5 % more memory: inside both bounds.
        let b: String = [95.0, 96.0, 94.0, 95.5].iter().map(|t| line("w", *t, 21.0)).collect();
        let rows = compare(&a, &b, &bounds()).expect("comparable");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        assert!((rows[0].ratio - 0.9525 / 1.0025).abs() < 1e-3);

        // 20 % slower regresses throughput; 20 % less memory is fine.
        let b: String = [80.0, 81.0, 79.0, 80.5].iter().map(|t| line("w", *t, 16.0)).collect();
        let rows = compare(&a, &b, &bounds()).expect("comparable");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);

        // Same median, but B's quartiles are wider than the bound.
        let b: String = [70.0, 100.0, 101.0, 130.0].iter().map(|t| line("w", *t, 20.0)).collect();
        let rows = compare(&a, &b, &bounds()).expect("comparable");
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert!(render(&rows).contains("unresolved"));
    }

    #[test]
    fn traced_lines_are_left_out_and_gaps_are_errors() {
        let a = line("w", 100.0, 20.0)
            + "{\"workload\": \"w\", \"trace\": true, \"metrics\": {\"bench.span_coverage\": \
               {\"value\": 0.99, \"unit\": \"ratio\"}}}\n";
        let rows = compare(&a, &line("w", 100.0, 20.0), &bounds()).expect("comparable");
        assert_eq!(rows[0].a.3, 1);
        assert!(compare(&a, &line("other", 1.0, 1.0), &bounds()).is_err());
        assert!(compare("not json\n", &a, &bounds()).is_err());
    }
}
