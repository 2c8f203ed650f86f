//! Spans kept in memory and written out when the benchmark ends.
//!
//! A span is a named interval at a layer boundary; spans of one operation
//! share its id, and a span names the span that caused it.  A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.  Every span is recorded from the benchmark's own files, around
//! calls into the crates' public functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// One thread's spans, on a clock shared by every recorder of the run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Self::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a span of `duration_ns` laid inside `parent` from
    /// `offset_ns` after the parent's start, and returns the offset after it.
    pub fn lay_inside(
        &mut self,
        name: &'static str,
        parent: usize,
        offset_ns: u64,
        duration_ns: u64,
    ) -> u64 {
        let Span { op, start_ns, .. } = self.spans[parent];
        self.spans.push(Span {
            name,
            op,
            start_ns: start_ns + offset_ns,
            end_ns: start_ns + offset_ns + duration_ns,
            parent: Some(parent),
        });
        offset_ns + duration_ns
    }

    /// Records `f` as one closed span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, op, parent);
        let value = f();
        self.close(span);
        value
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Time attributed to one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus what child spans covered.
    pub self_ns: u64,
}

/// Self time per span name.  The children of a span are clipped to it and
/// their union is subtracted once, so overlapping children (two threads, or
/// a child recorded twice) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let (start, end) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for &(start, end) in kids.iter() {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        let total = span.end_ns - span.start_ns;
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += total;
        layer.self_ns += total - covered;
    }
    layers
}

/// `trace.json`: the run's identity, the self-time table (from
/// [`self_times`]) and every span.
pub fn to_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    layers: &BTreeMap<&'static str, LayerTime>,
) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 80);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"layers\":{{"
    );
    for (i, (name, t)) in layers.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{comma}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{comma}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn child_coverage_is_subtracted_once() {
        let spans = [
            span("op", 0, 100, None),
            span("rtt", 10, 60, Some(0)),
            span("open", 70, 90, Some(0)),
            span("aead", 75, 80, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 100 - 50 - 20);
        assert_eq!(t["rtt"].self_ns, 50);
        // A grandchild reduces its parent's self time, not its grandparent's.
        assert_eq!(t["open"].self_ns, 15);
        assert_eq!(t["aead"].self_ns, 5);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times tile the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_handled() {
        let spans = [
            span("op", 100, 200, None),
            // Two children overlapping on [130, 150].
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)),
            // One nested entirely in another child's interval.
            span("c", 135, 140, Some(0)),
            // One overhanging the parent's end, one entirely outside it.
            span("d", 190, 250, Some(0)),
            span("e", 300, 400, Some(0)),
        ];
        let t = self_times(&spans);
        // Covered: [110, 170] and [190, 200].
        assert_eq!(t["op"].self_ns, 100 - 60 - 10);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["d"].total_ns, 60, "a child keeps its own duration");
    }

    #[test]
    fn same_name_spans_accumulate_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let root = a.open("op", 1, None);
        a.span("rtt", 1, Some(root), || ());
        a.close(root);
        let mut b = Recorder::new(origin);
        let root = b.open("op", 2, None);
        b.span("rtt", 2, Some(root), || ());
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].op, 2);
        let t = self_times(a.spans());
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["rtt"].count, 2);
        let json = to_json("w", 9, a.spans(), &t);
        assert!(json.contains("\"workload\":\"w\""));
        assert_eq!(json.matches("\"name\":\"rtt\"").count(), 2);
    }
}
