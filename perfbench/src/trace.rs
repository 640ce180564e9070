//! In-memory spans recorded by the benchmark around its calls into the
//! system's layers, written out when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call: name, interval, the span that caused it and the
/// request it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer function called, e.g. `protocol.receive`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request (0: none).
    pub request: u64,
}

/// Collects spans; nothing is written until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Closes an open span now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, and their count.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1))
    }

    /// Total self time of the spans called `name`: each span's duration
    /// minus the part of it that its children's intervals cover.
    pub fn self_time(&self, name: &str) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let covered = covered(&mut children[i], s.start_ns, s.end_ns);
                (s.end_ns - s.start_ns) - covered
            })
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[from, to)`.
fn covered(intervals: &mut [(u64, u64)], from: u64, to: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = from;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(to));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let root = t.record("replay", 0, 100, None, 0);
        // Overlapping children cover 10..40 and 60..70: 40 ns.
        t.record("a", 10, 30, Some(root), 1);
        t.record("b", 20, 40, Some(root), 1);
        let c = t.record("c", 60, 70, Some(root), 2);
        // A grandchild does not count against the root.
        t.record("d", 61, 69, Some(c), 2);
        assert_eq!(t.self_time("replay"), 60);
        assert_eq!(t.self_time("c"), 2);
        assert_eq!(t.total("a"), (20, 1));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 5);
        assert!(text.starts_with("{\"id\":0,\"name\":\"replay\",\"start_ns\":0,\"end_ns\":100,\"parent\":null,\"request\":0}"));
    }
}
