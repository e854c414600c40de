//! Spans around the public calls a workload makes, recorded from the
//! benchmark's own files.  The timed run uses [`NoTrace`], which compiles to
//! nothing; the separate traced run uses [`SpanTrace`], keeps every span in
//! memory, and reduces them afterwards: a layer's self time is its span
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// What a span brackets.  `Op` is the root: one request/reply round trip (or
/// transfer + ack) from its first post to its last claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Op = 0,
    PostSend = 1,
    PostRecv = 2,
    Claim = 3,
    Wait = 4,
}

pub const KINDS: usize = 5;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::PostSend => "transport.post_send",
            Kind::PostRecv => "transport.post_recv",
            Kind::Claim => "transport.claim",
            Kind::Wait => "transport.wait",
        }
    }
}

/// Most operations a workload keeps in flight at once; open root spans are
/// indexed by `seq % WINDOW`.
pub const WINDOW: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequence number of the operation the span belongs to: the identifier
    /// every span of one request shares.
    pub op: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The hooks a workload calls.  Generic, so the untraced instantiation has
/// no residue in the timed loop.
pub trait Tracer {
    fn op_begin(&mut self, seq: u64);
    fn op_end(&mut self, seq: u64);
    fn span<R>(&mut self, seq: u64, kind: Kind, f: impl FnOnce() -> R) -> R;
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn op_begin(&mut self, _seq: u64) {}
    #[inline(always)]
    fn op_end(&mut self, _seq: u64) {}
    #[inline(always)]
    fn span<R>(&mut self, _seq: u64, _kind: Kind, f: impl FnOnce() -> R) -> R {
        f()
    }
}

pub struct SpanTrace {
    base: Instant,
    open: [u64; WINDOW],
    pub spans: Vec<Span>,
}

impl SpanTrace {
    /// Storage for `capacity` spans is reserved up front so recording does
    /// not allocate inside the traced loop.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanTrace {
            base: Instant::now(),
            open: [0; WINDOW],
            spans: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

impl Tracer for SpanTrace {
    #[inline]
    fn op_begin(&mut self, seq: u64) {
        self.open[(seq % WINDOW as u64) as usize] = self.now();
    }

    #[inline]
    fn op_end(&mut self, seq: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            op: seq,
            kind: Kind::Op,
            start_ns: self.open[(seq % WINDOW as u64) as usize],
            end_ns,
        });
    }

    #[inline]
    fn span<R>(&mut self, seq: u64, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now();
        let result = f();
        let end_ns = self.now();
        self.spans.push(Span {
            op: seq,
            kind,
            start_ns,
            end_ns,
        });
        result
    }
}

/// Self time per kind for every operation in `spans`, in ns:
/// `(op, [self time of Kind 0, 1, ...])`, ordered by `op`.
///
/// Spans are nested by containment inside one operation.  A child that
/// overlaps an earlier sibling, or pokes out of its parent, only counts for
/// the part of the parent's interval no earlier child already covered.
pub fn self_times(spans: &[Span]) -> Vec<(u64, [f64; KINDS])> {
    let mut sorted: Vec<Span> = spans.to_vec();
    sorted.sort_by_key(|s| (s.op, s.start_ns, std::cmp::Reverse(s.end_ns)));

    struct Open {
        kind: Kind,
        end_ns: u64,
        /// Children have covered the span's interval up to here.
        covered_to: u64,
        self_ns: u64,
    }

    let mut out: Vec<(u64, [f64; KINDS])> = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let close = |stack: &mut Vec<Open>, acc: &mut [f64; KINDS]| {
        let done = stack.pop().expect("close on an empty stack");
        acc[done.kind as usize] += done.self_ns as f64;
    };
    let mut i = 0;
    while i < sorted.len() {
        let op = sorted[i].op;
        let mut acc = [0.0; KINDS];
        while i < sorted.len() && sorted[i].op == op {
            let s = sorted[i];
            while stack.last().is_some_and(|top| top.end_ns <= s.start_ns) {
                close(&mut stack, &mut acc);
            }
            // Every open ancestor loses the part of `s` it has not already
            // lost to an earlier child.  For a properly nested `s` only the
            // innermost one does: the others were covered up to that
            // ancestor's end when it was opened.
            for ancestor in stack.iter_mut().rev() {
                let from = s.start_ns.max(ancestor.covered_to);
                let to = s.end_ns.min(ancestor.end_ns);
                if to > from {
                    ancestor.self_ns -= to - from;
                    ancestor.covered_to = to;
                }
            }
            stack.push(Open {
                kind: s.kind,
                end_ns: s.end_ns,
                covered_to: s.start_ns,
                self_ns: s.end_ns.saturating_sub(s.start_ns),
            });
            i += 1;
        }
        while !stack.is_empty() {
            close(&mut stack, &mut acc);
        }
        out.push((op, acc));
    }
    out
}

/// Writes `spans` as Chrome Trace Event JSON (`chrome://tracing`, Perfetto):
/// one complete ("X") event per span, one track per in-flight slot, the
/// operation's sequence number in `args.op`.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{}}}}}{comma}",
            s.kind.name(),
            s.start_ns as f64 / 1000.0,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
            s.op % WINDOW as u64,
            s.op,
        )?;
    }
    out.write_all(b"],\"displayTimeUnit\":\"ns\"}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // op [0,100) > post_send [10,60) > claim [20,30); wait [70,90).
        let spans = [
            span(1, Kind::Claim, 20, 30),
            span(1, Kind::Op, 0, 100),
            span(1, Kind::Wait, 70, 90),
            span(1, Kind::PostSend, 10, 60),
        ];
        let times = self_times(&spans);
        assert_eq!(times.len(), 1);
        let (op, t) = times[0];
        assert_eq!(op, 1);
        assert_eq!(t[Kind::Op as usize], 30.0);
        assert_eq!(t[Kind::PostSend as usize], 40.0);
        assert_eq!(t[Kind::Claim as usize], 10.0);
        assert_eq!(t[Kind::Wait as usize], 20.0);
        assert_eq!(t.iter().sum::<f64>(), 100.0, "self times tile the root");
    }

    #[test]
    fn overlapping_children_do_not_double_count() {
        // Two children overlap on [40,50): the parent loses [10,70) once.
        let spans = [
            span(2, Kind::Op, 0, 100),
            span(2, Kind::PostSend, 10, 50),
            span(2, Kind::PostRecv, 40, 70),
        ];
        let (_, t) = self_times(&spans)[0];
        assert_eq!(t[Kind::Op as usize], 40.0);
        // A child that pokes out of its parent only covers the inside part.
        let spans = [span(3, Kind::Op, 0, 50), span(3, Kind::Wait, 40, 80)];
        let (_, t) = self_times(&spans)[0];
        assert_eq!(t[Kind::Op as usize], 40.0);
        assert_eq!(t[Kind::Wait as usize], 40.0);
    }

    #[test]
    fn concurrent_operations_are_reduced_separately() {
        // Two in-flight operations whose spans interleave in time.
        let spans = [
            span(10, Kind::Op, 0, 100),
            span(11, Kind::Op, 5, 120),
            span(10, Kind::PostSend, 10, 20),
            span(11, Kind::PostSend, 20, 40),
            span(10, Kind::Claim, 90, 95),
        ];
        let times = self_times(&spans);
        assert_eq!(times.len(), 2);
        assert_eq!(times[0].0, 10);
        assert_eq!(times[0].1[Kind::Op as usize], 85.0);
        assert_eq!(times[1].0, 11);
        assert_eq!(times[1].1[Kind::Op as usize], 95.0);
        assert_eq!(times[1].1[Kind::PostSend as usize], 20.0);
    }

    #[test]
    fn span_trace_records_what_the_hooks_bracket() {
        let mut t = SpanTrace::with_capacity(8);
        t.op_begin(5);
        let got = t.span(5, Kind::PostSend, || 42);
        t.op_end(5);
        assert_eq!(got, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].kind, Kind::PostSend);
        assert_eq!(t.spans[1].kind, Kind::Op);
        assert!(t.spans[1].start_ns <= t.spans[0].start_ns);
        assert!(t.spans[1].end_ns >= t.spans[0].end_ns);
    }
}
