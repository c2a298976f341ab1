//! Run reports (TSV/JSON artifacts) and the rate-limited progress
//! reporter that replaces scattered `eprintln!` progress lines.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use crate::snapshot::Snapshot;

/// A finished run's observability summary: a labelled [`Snapshot`] delta
/// plus wall-clock context, renderable as TSV or JSON.
///
/// Timings and counter values vary run to run, so reports are artifacts
/// for humans and dashboards — they are deliberately *not* golden-compared.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Human-readable run label (e.g. the experiment id).
    pub label: String,
    /// Worker threads used by the run (0 when not applicable).
    pub threads: usize,
    /// End-to-end wall time in seconds.
    pub wall_seconds: f64,
    /// Metric activity attributable to this run (a snapshot delta).
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Blocks analysed per wall-clock second, or 0 for instant runs.
    pub(crate) fn blocks_per_second(&self) -> f64 {
        let blocks = self.snapshot.counter("pipeline.blocks_analyzed") as f64;
        if self.wall_seconds > 0.0 {
            blocks / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Renders the report as TSV: `meta`, `counter`, `hist` and `length`
    /// record types, one per line, stably ordered.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# sleepwatch run report\t{}", self.label);
        let _ = writeln!(out, "meta\tthreads\t{}", self.threads);
        let _ = writeln!(out, "meta\twall_seconds\t{:.6}", self.wall_seconds);
        let _ = writeln!(out, "meta\tblocks_per_second\t{:.3}", self.blocks_per_second());
        for (k, v) in &self.snapshot.counters {
            let _ = writeln!(out, "counter\t{k}\t{v}");
        }
        let _ = writeln!(out, "# hist\tname\tcount\tmean\tp50\tp90\tp99");
        for (k, h) in &self.snapshot.histograms {
            let _ = writeln!(
                out,
                "hist\t{k}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99)
            );
        }
        for (k, (pairs, overflow)) in &self.snapshot.lengths {
            for &(key, n) in pairs {
                let _ = writeln!(out, "length\t{k}\t{key}\t{n}");
            }
            if *overflow > 0 {
                let _ = writeln!(out, "length\t{k}\toverflow\t{overflow}");
            }
        }
        out
    }
}

impl Snapshot {
    /// Renders every metric as one JSON object: `"counters"` first, then
    /// `"histograms"` (stage timers included, in the recorded unit) and
    /// `"lengths"`, each sorted by key. The one JSON form of a snapshot:
    /// `GET /metrics` serves it.
    pub fn to_json(&self) -> String {
        let sep = |i: usize| if i > 0 { "," } else { "" };
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", sep(i));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{k}\":{{\"count\":{},\"mean\":{:.3},\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3}}}",
                sep(i),
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99)
            );
        }
        out.push_str("},\"lengths\":{");
        for (i, (k, (pairs, overflow))) in self.lengths.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{{", sep(i));
            for &(key, n) in pairs {
                let _ = write!(out, "\"{key}\":{n},");
            }
            let _ = write!(out, "\"overflow\":{overflow}}}");
        }
        out.push_str("}}");
        out
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included — the
/// workspace's one JSON escaper (run reports here, every served body in
/// `sleepwatch_core::serve`). Runs of bytes that need no escape are
/// copied whole.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// [`push_json_str`] into a fresh string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// A rate-limited progress printer for long loops.
///
/// Threads call [`Reporter::report`] as often as they like; at most one
/// line per interval reaches the sink, plus exactly one final line when
/// `done == total`. Safe to share across worker threads (the interval
/// gate is a CAS, so racing reporters print once).
///
/// All output funnels through a single mutex-guarded writer (stderr by
/// default), so progress lines, notes and the final summary never
/// interleave mid-line.
pub struct Reporter {
    label: String,
    every_micros: u64,
    start: Instant,
    /// Micros-since-start of the last printed line, +1 (0 = never).
    last_print: AtomicU64,
    finished: AtomicBool,
    sink: std::sync::Mutex<Box<dyn std::io::Write + Send>>,
}

impl Reporter {
    /// Creates a reporter printing at most every 2 seconds.
    pub fn new(label: impl Into<String>) -> Self {
        Reporter::with_interval(label, Duration::from_secs(2))
    }

    /// Creates a reporter with a custom print interval.
    pub(crate) fn with_interval(label: impl Into<String>, every: Duration) -> Self {
        Reporter::with_sink(label, every, Box::new(std::io::stderr()))
    }

    /// Creates a reporter writing to an explicit sink instead of stderr —
    /// tests pin line atomicity through this.
    pub(crate) fn with_sink(
        label: impl Into<String>,
        every: Duration,
        sink: Box<dyn std::io::Write + Send>,
    ) -> Self {
        Reporter {
            label: label.into(),
            every_micros: every.as_micros() as u64,
            start: Instant::now(),
            last_print: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            sink: std::sync::Mutex::new(sink),
        }
    }

    /// Writes one whole line under the sink's lock, so it cannot
    /// interleave with a concurrent reporter call.
    fn emit(&self, line: String) {
        let mut w = self.sink.lock().expect("reporter sink poisoned");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }

    /// Reports progress `done` out of `total`. Prints when the interval
    /// has elapsed since the last line, and always (exactly once) when
    /// the run completes.
    pub fn report(&self, done: usize, total: usize) {
        if done >= total {
            if !self.finished.swap(true, Relaxed) {
                let secs = self.start.elapsed().as_secs_f64();
                self.emit(format!("{}: {done}/{total} done in {secs:.1}s", self.label));
            }
            return;
        }
        let now = self.start.elapsed().as_micros() as u64 + 1;
        let last = self.last_print.load(Relaxed);
        if now.saturating_sub(last) < self.every_micros {
            return;
        }
        if self.last_print.compare_exchange(last, now, Relaxed, Relaxed).is_ok() {
            let pct = if total > 0 { done as f64 * 100.0 / total as f64 } else { 0.0 };
            self.emit(format!("{}: {done}/{total} ({pct:.1}%)", self.label));
        }
    }

    /// Prints a one-off annotation line immediately (not rate-limited).
    pub fn note(&self, msg: &str) {
        self.emit(format!("{}: {msg}", self.label));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Buckets, Histogram};
    use crate::registry::Registry;

    fn sample_report() -> RunReport {
        let reg = Registry::with_state(true);
        reg.probing.probes_sent.add(1234);
        reg.pipeline.blocks_analyzed.add(60);
        reg.fft.by_length.add(524, 60);
        let h = Histogram::new(true, Buckets::Log2Micros);
        h.record(150.0);
        let mut snapshot = Snapshot::capture(&reg);
        snapshot.histograms.insert("stage.probe", h.snapshot());
        RunReport { label: "fig1".into(), threads: 2, wall_seconds: 0.5, snapshot }
    }

    #[test]
    fn tsv_has_meta_counters_and_stages() {
        let r = sample_report();
        let tsv = r.to_tsv();
        assert!(tsv.starts_with("# sleepwatch run report\tfig1\n"), "{tsv}");
        assert!(tsv.contains("meta\tthreads\t2"), "{tsv}");
        assert!(tsv.contains("meta\twall_seconds\t0.500000"), "{tsv}");
        if !cfg!(feature = "off") {
            assert!(tsv.contains("counter\tprobing.probes_sent\t1234"), "{tsv}");
            assert!(tsv.contains("meta\tblocks_per_second\t120.000"), "{tsv}");
            assert!(tsv.contains("length\tfft.by_length\t524\t60"), "{tsv}");
        }
        assert!(tsv.contains("hist\tstage.total\t"), "{tsv}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = sample_report();
        let j = r.snapshot.to_json();
        assert!(j.starts_with("{\"counters\":{") && j.ends_with('}'), "{j}");
        // Everything `to_tsv` prints is here too: every histogram, stage or not.
        assert!(j.contains("\"stage.probe\":{\"count\":"), "{j}");
        assert!(j.contains("\"cleaning.fill_fraction\":{\"count\":0,"), "{j}");
        assert!(j.contains("\"world.worker_blocks\":{\"overflow\":0}"), "{j}");
        // Balanced braces (no nesting surprises from the hand writer).
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes, "{j}");
    }

    #[test]
    fn json_str_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn reporter_prints_final_exactly_once() {
        let r = Reporter::with_interval("test", Duration::from_secs(3600));
        r.report(1, 10); // suppressed: interval not elapsed... or first print
        assert!(!r.finished.load(Relaxed));
        r.report(10, 10);
        assert!(r.finished.load(Relaxed));
        r.report(10, 10); // second final call must not re-print (swap gate)
        assert!(r.finished.load(Relaxed));
    }

    #[test]
    fn reporter_handles_zero_total() {
        let r = Reporter::new("empty");
        r.report(0, 0);
        assert!(r.finished.load(Relaxed));
    }

    /// Shared buffer sink that appends whatever the reporter writes.
    #[derive(Clone, Default)]
    struct BufSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for BufSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Under concurrent progress and note traffic every emitted line is
    /// whole (single writer, no interleaving) and the final line prints
    /// once.
    #[test]
    fn reporter_lines_are_whole_behind_one_writer() {
        let sink = BufSink::default();
        let r = std::sync::Arc::new(Reporter::with_sink(
            "ingest",
            Duration::from_secs(3600),
            Box::new(sink.clone()),
        ));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        r.report(t * 200 + i, 1_000_000);
                        r.note("reconnect: backing off");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        r.report(1_000_000, 1_000_000);

        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("reporter wrote valid utf-8");
        assert!(text.ends_with('\n'), "unterminated tail: {text:?}");
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines {
            assert!(line.starts_with("ingest: "), "torn or foreign line: {line:?}");
        }
        assert_eq!(lines.iter().filter(|l| l.ends_with(": reconnect: backing off")).count(), 800);
        assert_eq!(
            lines.iter().filter(|l| l.contains("done in")).count(),
            1,
            "final line must print exactly once"
        );
    }
}
