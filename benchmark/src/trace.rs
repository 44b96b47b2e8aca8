//! Benchmark-side spans.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! the crates' public functions — nothing inside the program is
//! instrumented. They are kept in memory, written out once at exit in
//! Chrome trace-event format, and folded into per-name self times
//! (a span's duration minus the part its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. Disabled (the timed pass) it records nothing and
/// `begin`/`end` are one branch each.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder with room for `spans` spans before it has to
    /// allocate.
    pub fn with_capacity(enabled: bool, spans: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::with_capacity(spans),
            stack: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::with_capacity(false, 0)
    }

    /// Whether spans are being recorded (the traced pass).
    pub fn on(&self) -> bool {
        self.enabled
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let ix = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(ix);
        Open(Some(ix))
    }

    /// Closes the innermost open span, which must be `open`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a benchmark bug).
    pub fn end(&mut self, open: Open) {
        let Some(ix) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(ix), "spans must close innermost first");
        self.spans[ix].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Forgets the open spans of a repetition that died half-way (they
    /// stay in the record with zero length).
    pub fn abandon_open_spans(&mut self) {
        self.stack.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        // Not `sum()`: an empty float sum is -0.0, which prints as "-0".
        self.durations(name).iter().fold(0.0, |a, d| a + d)
    }
}

/// Self time per span: duration minus the time covered by direct
/// children. Children of one parent never overlap (spans nest strictly),
/// so covered time is the plain sum of child durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time (ns) and call count summed per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, one `tid` per
/// repetition, parent index in `args`.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (ix, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            if ix == 0 { "" } else { ",\n" },
            s.name,
            workload,
            s.rep,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            ix,
            parent,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100) ⊃ run [10,90) ⊃ {slice [20,40), slice [50,70)}
        let spans = vec![
            span("rep", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("slice", 20, 40, Some(1)),
            span("slice", 50, 70, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 20, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
        assert_eq!(
            self_time_by_name(&spans),
            vec![("run", 40, 1), ("slice", 40, 2), ("rep", 20, 1)]
        );
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::with_capacity(true, 8);
        t.set_rep(3);
        let a = t.begin("outer");
        let b = t.begin("inner");
        t.end(b);
        t.end(a);
        let c = t.begin("outer");
        t.end(c);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|x| x.rep == 3));
        assert_eq!(t.durations("outer").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let a = t.begin("x");
        t.end(a);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_ns("x"), 0.0);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let spans = vec![span("a", 0, 2_000, None), span("b", 500, 1_500, Some(0))];
        let doc = chrome_trace_json("w", &spans);
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"name\":\"b\",\"cat\":\"w\""));
        assert!(doc.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(doc.contains("\"parent\":0"));
        assert!(doc.starts_with("{\"traceEvents\":[") && doc.trim_end().ends_with("]}"));
    }
}
