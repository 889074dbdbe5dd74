//! In-memory spans and the self-time arithmetic over them.
//!
//! A span records a name, start and end (ns since the tracer's origin),
//! the span that caused it, and the request it belongs to. Spans are
//! kept in memory and written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span; returns its value and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let span = self.begin(name, parent, request);
        let value = f();
        self.end(span);
        (value, span)
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: the span's duration minus its children's
/// durations, floored at zero. Children of a request-level span run
/// inside its interval, so this is the uncovered part of the interval;
/// layer children re-invoked on the same input after their parent are
/// accounted the same way, by duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_sums(spans))
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Sum of the durations of `parent`'s direct children, per parent.
pub fn child_sums(spans: &[Span]) -> Vec<u64> {
    let mut sums = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            sums[p] += s.dur_ns();
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("service.frame_parse", 0, 10, Some(0)),
            span("service.execute", 10, 90, Some(0)),
            span("session.open", 90, 150, Some(2)),
            span("core.fixpoint", 150, 170, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 20, 40, 20]);
        assert_eq!(child_sums(&spans), vec![90, 0, 60, 20, 0]);
    }

    #[test]
    fn children_longer_than_their_parent_floor_at_zero() {
        let spans = vec![
            span("service.execute", 0, 10, None),
            span("graph.from_text", 10, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn tracer_spans_nest_and_close() {
        let mut t = Tracer::new();
        let root = t.begin("request", None, 7);
        let ((), child) = t.time("service.render", Some(root), 7, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        t.end(root);
        let (r, c) = (&t.spans[root], &t.spans[child]);
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(c.parent, Some(root));
        assert_eq!(c.request, 7);
        assert!(self_times(&t.spans)[root] <= r.dur_ns());
    }
}
