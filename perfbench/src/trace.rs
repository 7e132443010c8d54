//! Spans recorded around the benchmark's calls into each layer.
//!
//! Each thread that calls into a layer owns a [`Tracer`]: a buffer
//! allocated once, before the traced phase, so recording a span is two
//! clock reads and a store. A full buffer drops further spans and counts
//! them. Spans are written out when the run ends, never during it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer, or [`SpanId::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span: the root of a tree, or a span that was dropped.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: SpanId,
    /// The operation the span served (shared by every span of one op).
    pub op: u64,
}

/// A preallocated span buffer owned by one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    /// A buffer for up to `cap` spans, timed from `epoch` (share one
    /// epoch between tracers so their spans line up).
    pub fn new(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes `id` now and returns its duration in nanoseconds (zero for
    /// a dropped span).
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        match self.spans.get_mut(id.0 as usize) {
            Some(s) => {
                s.end = now;
                now - s.start
            }
            None => 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != SpanId::NONE {
            children
                .entry(s.parent.0)
                .or_default()
                .push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids = children.remove(&(i as u32)).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time and span count per span name, over every named
/// tracer.
pub fn self_time_by_name(tracers: &[(String, Tracer)]) -> Vec<(&'static str, u64, u64)> {
    let mut by: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (_, t) in tracers {
        for (s, st) in t.spans().iter().zip(self_times(t.spans())) {
            let e = by.entry(s.name).or_default();
            e.0 += st;
            e.1 += 1;
        }
    }
    let mut v: Vec<_> = by.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    v.sort_unstable_by_key(|&(n, _, _)| n);
    v
}

/// Writes every span as one JSON object per line:
/// `{"thread", "id", "name", "start_ns", "end_ns", "parent", "op"}`,
/// with `parent` null at a root.
pub fn write_spans(path: &std::path::Path, tracers: &[(String, Tracer)]) -> std::io::Result<()> {
    let mut out = String::new();
    for (thread, t) in tracers {
        for (i, s) in t.spans().iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "null".to_string()
            } else {
                s.parent.0.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, SpanId::NONE),
            span(10, 30, SpanId(0)),
            span(50, 60, SpanId(0)),
            span(12, 20, SpanId(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(100, 200, SpanId::NONE),
            span(90, 150, SpanId(0)),
            span(120, 160, SpanId(0)),
            span(190, 250, SpanId(0)),
        ];
        // Covered: [100,160) and [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(Instant::now(), 1);
        let a = t.begin("a", SpanId::NONE, 1);
        let b = t.begin("b", a, 1);
        assert_eq!(b, SpanId::NONE);
        assert_eq!(t.end(b), 0);
        t.end(a);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
