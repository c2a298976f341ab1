//! In-memory spans around the benchmark's calls into the program.
//!
//! The benchmark records a span (name, start, end, parent, repetition)
//! around every call it makes into a public function; nothing inside the
//! program is touched. Spans live in a `Vec` until the run ends and are
//! then dumped as TSV. A name's *self time* is its spans' duration minus
//! the part their direct children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `serve.load_rows`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time direct children cover.
    pub self_ns: u64,
}

/// Span recorder for the benchmark's main thread. Switched off, every
/// method returns at once without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only while switched on.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    /// Switches recording on or off (between repetitions).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the repetition id stamped on spans recorded from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, rep: self.rep });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`enter`](Self::enter). Spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let now = self.ns(Instant::now());
            assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = now;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time, in order of first appearance.
    pub fn totals(&self) -> Vec<SpanTotal> {
        totals(&self.spans)
    }

    /// Smallest share of a `root`-named span that its direct children
    /// cover, over all such spans (1.0 when there are none): the part of
    /// each repetition the trace accounts for.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut worst = 1.0f64;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == root) {
            let covered: u64 =
                self.spans.iter().filter(|c| c.parent == Some(i)).map(Span::dur_ns).sum();
            if s.dur_ns() > 0 {
                worst = worst.min(covered as f64 / s.dur_ns() as f64);
            }
        }
        worst
    }

    /// Writes every span as one TSV line.
    pub fn dump_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "#index\tname\tstart_ns\tend_ns\tparent\trep")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.rep)?;
        }
        w.flush()
    }
}

/// Per-name totals of `spans`: self time is duration minus the summed
/// duration of direct children, floored at zero.
pub fn totals(spans: &[Span]) -> Vec<SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: Vec<SpanTotal> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.calls += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += self_ns;
            }
            None => out.push(SpanTotal { name: s.name, calls: 1, total_ns: s.dur_ns(), self_ns }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("rep", 100, 160, None),
            span("a", 100, 150, Some(4)),
        ];
        let t = totals(&spans);
        let get = |n: &str| t.iter().find(|t| t.name == n).expect("name present").clone();
        assert_eq!(get("rep"), SpanTotal { name: "rep", calls: 2, total_ns: 160, self_ns: 30 });
        // grandchildren are charged to their parent, not to the root
        assert_eq!(get("a"), SpanTotal { name: "a", calls: 2, total_ns: 80, self_ns: 70 });
        assert_eq!(get("b").self_ns, 50);
        assert_eq!(get("a.inner").self_ns, 10);
        // self times sum to the roots' wall
        assert_eq!(t.iter().map(|t| t.self_ns).sum::<u64>(), 160);
    }

    #[test]
    fn overlong_children_floor_at_zero() {
        let spans = vec![span("rep", 0, 10, None), span("feeder", 0, 12, Some(0))];
        assert_eq!(totals(&spans)[0].self_ns, 0);
    }

    #[test]
    fn tracer_nests_and_reports_coverage() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let root = t.enter("rep");
        let v = t.call("leaf", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].rep, 3);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        let c = t.coverage("rep");
        assert!((0.0..=1.0).contains(&c));
        assert_eq!(t.coverage("absent"), 1.0);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.enter("rep");
        t.call("leaf", || ());
        t.exit(root);
        assert!(t.spans().is_empty());
    }
}
