//! Spans around the benchmark's calls into each layer's public API.
//!
//! A span records its layer, start, end, parent layer, thread and request
//! id. Spans go into per-thread buffers allocated before the timed phase;
//! a full buffer drops spans and counts them. A layer's self time is its
//! span time minus the part of it that its child spans cover.

use std::io::{self, Write};

/// Layers, by span name. Index = the `layer` byte of a [`Span`].
pub const LAYERS: &[&str] = &[
    "none",
    "serve.request",
    "loadgen.lag",
    "serve.dispatch",
    "serve.admit",
    "serve.ring.push",
    "serve.queue",
    "serve.ring.pop",
    "serve.steal",
    "serve.stash",
    "serve.execute",
    "structures.ordmap.get",
    "structures.ordmap.insert",
    "structures.ordmap.delete",
    "structures.ordmap.range",
    "serve.metrics.flush",
    "telemetry.flush",
    "core.segment",
    "structures.counter",
    "structures.stack",
];

pub const NONE: u8 = 0;
pub const REQUEST: u8 = 1;
pub const LAG: u8 = 2;
pub const DISPATCH: u8 = 3;
pub const ADMIT: u8 = 4;
pub const PUSH: u8 = 5;
pub const QUEUE: u8 = 6;
pub const POP: u8 = 7;
pub const STEAL: u8 = 8;
pub const STASH: u8 = 9;
pub const EXECUTE: u8 = 10;
pub const MAP_GET: u8 = 11;
pub const MAP_INSERT: u8 = 12;
pub const MAP_DELETE: u8 = 13;
pub const MAP_RANGE: u8 = 14;
pub const CELL_FLUSH: u8 = 15;
pub const TELE_FLUSH: u8 = 16;
pub const SEGMENT: u8 = 17;
pub const COUNTER: u8 = 18;
pub const STACK: u8 = 19;

/// Request id of a span that belongs to no single request.
pub const NO_REQ: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    pub req: u32,
    pub layer: u8,
    pub parent: u8,
    pub tid: u8,
}

impl Span {
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer. Recording is off unless the run is traced
/// and the current round was chosen for tracing.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    pub dropped: u64,
    pub on: bool,
    tid: u8,
}

impl SpanBuf {
    /// A buffer of `capacity` spans, its memory touched now so that no
    /// page fault lands in a timed phase.
    #[must_use]
    pub fn new(tid: u8, capacity: usize) -> Self {
        let blank = Span {
            start: 0,
            end: 0,
            req: NO_REQ,
            layer: NONE,
            parent: NONE,
            tid,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        SpanBuf {
            spans,
            dropped: 0,
            on: false,
            tid,
        }
    }

    #[inline]
    pub fn push(&mut self, layer: u8, parent: u8, req: u32, start: u64, end: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            start,
            end,
            req,
            layer,
            parent,
            tid: self.tid,
        });
    }

    #[must_use]
    pub fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Whether `c` is a child of `p`: its parent layer is `p`'s layer, and it
/// belongs to the same request (or, for spans of no request, was recorded
/// by the same thread).
fn is_child(p: &Span, c: &Span) -> bool {
    c.parent == p.layer && c.req == p.req && (p.req != NO_REQ || c.tid == p.tid)
}

/// Self time of every span, in input order: its duration minus the union
/// of its children's intervals clipped to it.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Spans of one request, or of one thread outside requests, sorted by
    // start with enclosing spans first; children start inside their
    // parent, so each parent scans forward only until its own end.
    let key = |s: &Span| {
        let group = if s.req == NO_REQ {
            u64::from(s.tid)
        } else {
            (1 << 32) | u64::from(s.req)
        };
        (group, s.start, u64::MAX - s.end)
    };
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by_key(|&i| key(&spans[i]));
    let mut out = vec![0; spans.len()];
    let mut cover: Vec<(u64, u64)> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let p = &spans[i];
        cover.clear();
        for &j in &order[pos + 1..] {
            let c = &spans[j];
            if key(c).0 != key(p).0 || c.start >= p.end {
                break;
            }
            if is_child(p, c) {
                cover.push((c.start.max(p.start), c.end.min(p.end)));
            }
        }
        let mut covered = 0;
        let mut reach = p.start;
        for &(s, e) in &cover {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        out[i] = p.dur() - covered;
    }
    out
}

/// Writes spans as tab-separated text, one span a line.
///
/// # Errors
///
/// Propagates write errors.
pub fn write_tsv(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "tid\treq\tlayer\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        let req = if s.req == NO_REQ {
            "-".to_string()
        } else {
            s.req.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.tid, req, LAYERS[s.layer as usize], LAYERS[s.parent as usize], s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: u8, parent: u8, req: u32, tid: u8, start: u64, end: u64) -> Span {
        Span {
            start,
            end,
            req,
            layer,
            parent,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(REQUEST, NONE, 7, 0, 0, 100),
            // Overlapping children count once; one overhangs the parent.
            span(ADMIT, REQUEST, 7, 0, 10, 20),
            span(PUSH, REQUEST, 7, 1, 15, 30),
            span(QUEUE, REQUEST, 7, 1, 90, 120),
            // Not children: another request, and a grandchild.
            span(ADMIT, REQUEST, 8, 0, 40, 60),
            span(MAP_GET, EXECUTE, 7, 0, 50, 55),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 20 - 10);
        assert_eq!(st[1], 10);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 20);
    }

    #[test]
    fn spans_outside_requests_nest_per_thread() {
        let spans = [
            span(SEGMENT, NONE, NO_REQ, 0, 0, 1000),
            span(COUNTER, SEGMENT, NO_REQ, 0, 100, 300),
            span(STACK, SEGMENT, NO_REQ, 0, 300, 600),
            // The other thread's batch is not this segment's child.
            span(COUNTER, SEGMENT, NO_REQ, 1, 600, 900),
            span(SEGMENT, NONE, NO_REQ, 1, 0, 1000),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 1000 - 500);
        assert_eq!(st[4], 1000 - 300);
        assert_eq!(st[1], 200);
    }

    #[test]
    fn buffers_drop_past_capacity_and_only_when_on() {
        let mut b = SpanBuf::new(0, 2);
        b.push(ADMIT, NONE, 1, 0, 1);
        assert!(b.spans().is_empty());
        b.on = true;
        for i in 0..3 {
            b.push(ADMIT, NONE, i, 0, 1);
        }
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.dropped, 1);
        assert_eq!(b.room(), 0);
    }
}
