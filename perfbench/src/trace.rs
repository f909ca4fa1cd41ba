//! In-memory spans recorded around the public calls into each layer.
//!
//! A span's name is `<layer>.<what>`, where the layer is one of the
//! repository's crates (`ceresz-core`, `huffman`, `ceresz-wse`,
//! `wse-verify`, `wse-sim`) or `bench` for the benchmark's own root spans.
//! Spans are kept in memory and written once, when the run ends. Their
//! times are CPU nanoseconds of the process, the clock every other time of
//! the benchmark is read from.

use std::fmt::Write as _;

use crate::calib::cpu_ns;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// CPU nanoseconds since the tracer started.
    pub start_ns: u64,
    /// CPU nanoseconds since the tracer started (equal to `start_ns` while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Units of work the call did (elements, bytes; 0 when not counted).
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }
}

/// Span recorder with an explicit stack of open spans.
pub struct Tracer {
    /// CPU-time clock reading when the tracer started.
    t0: u64,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: cpu_ns(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        cpu_ns() - self.t0
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, work: u64) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            work,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.dur_ns() as f64 * 1e-9
    }

    /// Time `f` as a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, work);
        let r = f();
        self.exit(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON (one object per span), for the trace file.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"work\": {}}}",
                if i == 0 { "" } else { "," },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.op,
                sp.work
            );
        }
        s.push_str("\n]");
        s
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children lie inside their parent and do not
/// overlap one another, so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for sp in spans {
        if let Some(p) = sp.parent {
            own[p] -= sp.dur_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = [
            span("bench.op", 0, 100, None),
            span("ceresz-wse.map", 10, 40, Some(0)),
            span("wse-sim.run", 15, 25, Some(1)),
            span("wse-verify.verify", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_nest_and_partition_their_root() {
        let mut tr = Tracer::new();
        tr.set_op(7);
        let root = tr.enter("bench.op", 0);
        tr.leaf("ceresz-core.quantize", 32, || std::hint::black_box(1 + 1));
        let mid = tr.enter("ceresz-core.stage.huffman.encode", 32);
        tr.leaf("huffman.encode", 32, || ());
        tr.exit(mid);
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[3].layer(), "huffman");
        assert_eq!(spans[2].layer(), "ceresz-core");
        let own = self_times(spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tr = Tracer::new();
        let a = tr.enter("bench.a", 0);
        let _b = tr.enter("bench.b", 0);
        tr.exit(a);
    }
}
