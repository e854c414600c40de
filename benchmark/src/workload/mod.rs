//! The four workloads and what they share: the step context (clock,
//! latency histogram, failure accounting, tracer), the claim-with-deadline
//! helper, and the O(1)/full payload check.
//!
//! Every workload is a closed loop driven by **one** thread.  A step posts
//! one operation and accounts for one — claimed, checked, timed — so a slow
//! system simply completes fewer steps.

pub mod chaos;
pub mod intranode;
pub mod reactor;

use crate::payload::{payload_matches, Check};
use crate::span::{Kind, Tracer};
use crate::stats::LatHist;
use bytes::Bytes;
use push_pull_messaging::core::{
    Completion, EndpointStats, HistogramSnapshot, OpId, ProcessId, ProtocolConfig, RawTransport,
    ReliabilityMode, Tag, TruncationPolicy,
};
use push_pull_messaging::sim::ChaosStats;
use push_pull_messaging::Endpoint;
use std::time::{Duration, Instant};

/// Tag of the request (or bulk transfer) leg.
pub const TAG_REQ: Tag = Tag(0x51);
/// Tag of the reply (or ack) leg.
pub const TAG_REP: Tag = Tag(0x52);

/// An operation not claimed within this long has failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(2);
/// A blocking wait is re-armed this often until [`OP_DEADLINE`]: the
/// blocking-wait path has a known lost wake-up (ROADMAP, "Carried forward"),
/// and a lost wake should cost one quantum and show up as a stall, not hang
/// the run until the deadline.
const WAIT_QUANTUM: Duration = Duration::from_millis(100);

/// The deliberately broken checks of `--self-test`: each must be caught.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTest {
    /// Flip one byte of the payload received by this operation.
    pub flip_payload_at: Option<u64>,
    /// Give this operation a deadline of zero.
    pub zero_deadline_at: Option<u64>,
}

/// What a step needs besides the workload itself.
pub struct StepCx<'a, T: Tracer> {
    pub tracer: &'a mut T,
    pub check: Check,
    pub self_test: SelfTest,
    /// All timestamps of a run are nanoseconds since this instant.
    pub clock: Instant,
    pub lat: &'a mut LatHist,
    /// Off during warm-up and audits: their latencies are not reported.
    pub record_latency: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Blocking waits that ran out a quantum without a completion.
    pub stalls: u64,
    /// Virtual-clock latencies, collected by the chaos workload in traced
    /// runs only (reading the virtual clock takes the router lock).
    pub virt_lat_us: Option<&'a mut Vec<u64>>,
}

impl<'a, T: Tracer> StepCx<'a, T> {
    pub fn new(tracer: &'a mut T, check: Check, clock: Instant, lat: &'a mut LatHist) -> Self {
        StepCx {
            tracer,
            check,
            self_test: SelfTest::default(),
            clock,
            lat,
            record_latency: true,
            attempted: 0,
            failed: 0,
            stalls: 0,
            virt_lat_us: None,
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Accounts for operation `seq`, started at `start_ns`: records its
    /// latency and counts it as failed when any check failed or it overran
    /// its deadline.  Returns the end timestamp.
    #[inline]
    pub fn finish_op(&mut self, seq: u64, start_ns: u64, ok: bool) -> u64 {
        let end_ns = self.now_ns();
        let lat_ns = end_ns.saturating_sub(start_ns);
        let deadline = if self.self_test.zero_deadline_at == Some(seq) {
            Duration::ZERO
        } else {
            OP_DEADLINE
        };
        self.attempted += 1;
        if !ok || lat_ns as u128 > deadline.as_nanos() {
            self.failed += 1;
        }
        if self.record_latency {
            self.lat.record(lat_ns);
        }
        end_ns
    }

    /// The receive half of the per-completion check: status, source, tag,
    /// length, and the payload under the context's [`Check`].
    #[inline]
    pub fn recv_ok(
        &self,
        seq: u64,
        done: &Completion,
        peer: ProcessId,
        tag: Tag,
        want: &Bytes,
    ) -> bool {
        done.status.is_ok()
            && done.peer == peer
            && done.tag == tag
            && done.len == want.len()
            && done
                .payload()
                .is_some_and(|got| self.payload_ok(seq, got, want))
    }

    fn payload_ok(&self, seq: u64, got: &[u8], want: &[u8]) -> bool {
        if self.self_test.flip_payload_at == Some(seq) && !got.is_empty() {
            let mut damaged = got.to_vec();
            damaged[got.len() / 8] ^= 0x10;
            return payload_matches(&damaged, want, self.check);
        }
        payload_matches(got, want, self.check)
    }
}

/// `true` when a send completion arrived and reports `len` bytes handed over.
#[inline]
pub fn send_ok(done: Option<Completion>, len: usize) -> bool {
    done.is_some_and(|d| d.status.is_ok() && d.len == len)
}

/// Claims the completion of `op`: a non-blocking take first (`Claim` span),
/// and only when that comes back empty a blocking wait under the operation
/// deadline (`Wait` span).  On the single-thread fabrics the take always
/// succeeds — the post routed everything on this thread.
#[inline]
pub fn claim<R: RawTransport, T: Tracer>(
    ep: &Endpoint<R>,
    op: OpId,
    seq: u64,
    cx: &mut StepCx<'_, T>,
) -> Option<Completion> {
    if let Some(done) = cx.tracer.span(seq, Kind::Claim, || ep.take_completion(op)) {
        return Some(done);
    }
    let stalls = &mut cx.stalls;
    cx.tracer.span(seq, Kind::Wait, || {
        let deadline = Instant::now() + OP_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            if let Some(done) = ep.wait(op, left.min(WAIT_QUANTUM)) {
                return Some(done);
            }
            *stalls += 1;
        }
    })
}

/// One pre-posted request/reply between `a` and `b`, every public call in a
/// span and every completion checked: both receives are posted, `a` sends
/// `request`, `b` claims it and answers with `reply`, `a` claims that, and
/// both send completions are claimed too (or the retention cap would evict
/// them).  Returns whether everything checked out.
#[inline]
pub fn pre_posted_round_trip<R: RawTransport, T: Tracer>(
    (a, a_id): (&Endpoint<R>, ProcessId),
    (b, b_id): (&Endpoint<R>, ProcessId),
    request: &Bytes,
    reply: &Bytes,
    seq: u64,
    cx: &mut StepCx<'_, T>,
) -> bool {
    let policy = TruncationPolicy::Error;
    let rb = cx.tracer.span(seq, Kind::PostRecv, || {
        b.post_recv(a_id, TAG_REQ, request.len(), policy)
    });
    let ra = cx.tracer.span(seq, Kind::PostRecv, || {
        a.post_recv(b_id, TAG_REP, reply.len(), policy)
    });
    let sa = cx.tracer.span(seq, Kind::PostSend, || {
        a.post_send(b_id, TAG_REQ, request.clone())
    });
    let (Ok(rb), Ok(ra), Ok(sa)) = (rb, ra, sa) else {
        return false;
    };
    let got = claim(b, OpId::Recv(rb), seq, cx);
    let mut ok = got.is_some_and(|d| cx.recv_ok(seq, &d, a_id, TAG_REQ, request));
    let sb = cx.tracer.span(seq, Kind::PostSend, || {
        b.post_send(a_id, TAG_REP, reply.clone())
    });
    let got = claim(a, OpId::Recv(ra), seq, cx);
    ok &= got.is_some_and(|d| cx.recv_ok(seq, &d, b_id, TAG_REP, reply));
    ok &= send_ok(claim(a, OpId::Send(sa), seq, cx), request.len());
    ok &= sb.is_ok_and(|sb| send_ok(claim(b, OpId::Send(sb), seq, cx), reply.len()));
    ok
}

/// Counters a workload exposes for the exit check and the per-layer report.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    /// `EndpointStats` merged over every endpoint of the workload.
    pub stats: EndpointStats,
    pub reactor: Option<ReactorCounters>,
    pub chaos: Option<ChaosStats>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorCounters {
    pub batches: u64,
    pub timers_fired: u64,
    /// Frames the loop thread fed to engines (data, duplicates, acks),
    /// summed over every channel.
    pub frames_received: u64,
    /// Ack frames sent, summed over every channel: on an all-eager workload
    /// the only frames the loop thread itself puts on the wire.
    pub acks_sent: u64,
    pub batch_lock_ns: HistogramSnapshot,
    pub user_lock_ns: HistogramSnapshot,
}

/// The message shape of a workload, for the probes that replay it straight
/// into a layer's public API.
#[derive(Debug, Clone)]
pub struct Shape {
    pub protocol: ProtocolConfig,
    /// Peers sit on different nodes: traffic is framed and goes through ARQ.
    pub internode: bool,
    pub reliability: ReliabilityMode,
    pub request_len: usize,
    pub reply_len: usize,
    /// The request is sent before its receive is posted.
    pub late_receive: bool,
    /// The request is received into a caller-owned `RecvBuf`.
    pub recv_into: bool,
}

/// One workload.  `setup` is everything a user pays before the first
/// message is through; `step` is the closed loop's body.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Steps `setup` itself runs, numbered from 0: the caller's first step
    /// is number `SETUP_STEPS`.
    const SETUP_STEPS: u64 = 1;
    /// Steps of warm-up before anything is timed.
    const WARMUP_STEPS: u64;
    /// Steps of each phase (untraced, then traced) of a traced run.
    const TRACE_STEPS: u64;

    /// Builds the cluster or reactor and its endpoints, registers peers,
    /// generates the seeded payload pools, and completes a first operation
    /// on every channel.
    fn setup(seed: u64) -> Self;

    /// Posts operation `seq`, completes and accounts for one operation (the
    /// same one, or the oldest in flight where the workload keeps a window),
    /// and returns the timestamp (ns since `cx.clock`) at which that ended.
    /// Steps are numbered consecutively.
    fn step<T: Tracer>(&mut self, seq: u64, cx: &mut StepCx<'_, T>) -> u64;

    /// Called once per second of the timed phase, outside the timed slices.
    /// A workload whose substrate carries a lifetime budget renews it here.
    fn renew(&mut self, _epoch: u64) {}

    fn counters(&self) -> LayerCounters;

    fn shape(&self) -> Shape;

    /// Payload bytes one operation moves (request + reply), for goodput.
    fn payload_bytes(&self) -> usize {
        let shape = self.shape();
        shape.request_len + shape.reply_len
    }
}

/// The first steps of a set-up (`0 .. SETUP_STEPS`), outside any accounting.
pub(crate) fn first_steps<W: Workload>(w: &mut W) {
    let mut lat = LatHist::new();
    let mut tracer = crate::span::NoTrace;
    let mut cx = StepCx::new(&mut tracer, Check::Full, Instant::now(), &mut lat);
    for seq in 0..W::SETUP_STEPS {
        w.step(seq, &mut cx);
    }
    assert_eq!(cx.failed, 0, "{}: a first operation failed", W::NAME);
}

#[cfg(test)]
mod tests {
    use super::chaos::ChaosSr;
    use super::intranode::{IntranodeBulkLate, IntranodeRr};
    use super::reactor::ReactorRr;
    use super::*;
    use crate::measure::{health_problems, run_steps};
    use crate::span::{self_times, NoTrace, SpanTrace, KINDS};

    /// Runs `steps` fully audited steps on a fresh instance.
    fn audited<W: Workload>(seed: u64, steps: u64, self_test: SelfTest) -> (u64, u64, W) {
        let mut w = W::setup(seed);
        let mut lat = LatHist::new();
        let mut tracer = NoTrace;
        let mut cx = StepCx::new(&mut tracer, Check::Full, Instant::now(), &mut lat);
        cx.self_test = self_test;
        let mut seq = W::SETUP_STEPS;
        run_steps(&mut w, &mut cx, &mut seq, steps);
        let (attempted, failed) = (cx.attempted, cx.failed);
        assert_eq!(lat.count(), attempted, "every operation records a latency");
        (attempted, failed, w)
    }

    fn completes_cleanly<W: Workload>(steps: u64) {
        let (attempted, failed, w) = audited::<W>(11, steps, SelfTest::default());
        assert_eq!(attempted, steps, "{}", W::NAME);
        assert_eq!(failed, 0, "{}", W::NAME);
        assert_eq!(health_problems(&w), Vec::<String>::new(), "{}", W::NAME);
        let stats = w.counters().stats;
        assert!(stats.recvs_completed >= 2 * attempted, "{}", W::NAME);
    }

    #[test]
    fn every_workload_completes_byte_checked_operations() {
        completes_cleanly::<IntranodeRr>(200);
        completes_cleanly::<IntranodeBulkLate>(50);
        completes_cleanly::<ReactorRr>(320);
        completes_cleanly::<ChaosSr>(30);
    }

    #[test]
    fn the_late_workload_takes_the_unexpected_path_and_the_early_one_does_not() {
        let (_, _, early) = audited::<IntranodeRr>(3, 50, SelfTest::default());
        assert_eq!(early.counters().stats.bytes_copied_staged, 0);
        let (ops, _, late) = audited::<IntranodeBulkLate>(3, 50, SelfTest::default());
        let stats = late.counters().stats;
        assert!(stats.bytes_copied_staged > 0, "pushed part was staged");
        assert!(stats.pull_requests_sent >= ops, "the remainder was pulled");
    }

    #[test]
    fn each_broken_check_of_the_self_test_fails_exactly_its_operation() {
        let flip = SelfTest {
            flip_payload_at: Some(7),
            zero_deadline_at: None,
        };
        assert_eq!(audited::<IntranodeRr>(1, 20, flip).1, 1);
        let deadline = SelfTest {
            flip_payload_at: None,
            zero_deadline_at: Some(9),
        };
        assert_eq!(audited::<IntranodeRr>(1, 20, deadline).1, 1);
        let both = SelfTest {
            flip_payload_at: Some(17),
            zero_deadline_at: Some(33),
        };
        assert_eq!(audited::<ReactorRr>(1, 64, both).1, 2);
        assert_eq!(audited::<IntranodeRr>(1, 20, SelfTest::default()).1, 0);
    }

    #[test]
    fn chaos_counts_repeat_for_a_seed_and_differ_for_another() {
        let counts = |seed: u64| {
            let (_, failed, w) = audited::<ChaosSr>(seed, 40, SelfTest::default());
            assert_eq!(failed, 0);
            let c = w.counters();
            let chaos = c
                .chaos
                .expect("the chaos workload reports fault-plane counters");
            (
                chaos.events,
                chaos.frames_dropped,
                chaos.frames_duplicated,
                c.stats.retransmits,
                c.stats.acks_received,
            )
        };
        let first = counts(5);
        assert_eq!(first, counts(5), "same seed, same fault plane, same counts");
        assert_ne!(first, counts(6), "another seed draws other faults");
        assert!(first.1 > 0 && first.3 > 0, "loss happened and was repaired");
    }

    #[test]
    fn a_renewed_fault_plane_keeps_the_run_s_counters() {
        let (_, _, mut w) = audited::<ChaosSr>(5, 20, SelfTest::default());
        let before = w.counters();
        w.renew(0);
        let after = w.counters();
        assert_eq!(after.stats.recvs_completed, before.stats.recvs_completed);
        assert_eq!(after.stats.retransmits, before.stats.retransmits);
        assert_eq!(
            after.chaos.map(|c| c.events),
            Some(0),
            "a fresh event budget"
        );
    }

    #[test]
    fn a_traced_operation_is_a_root_span_tiled_by_its_public_calls() {
        let mut w = IntranodeRr::setup(2);
        let mut lat = LatHist::new();
        let mut tracer = SpanTrace::with_capacity(64);
        let mut cx = StepCx::new(&mut tracer, Check::Stamp, Instant::now(), &mut lat);
        w.step(1, &mut cx);
        w.step(2, &mut cx);
        let kinds = |op: u64, kind: Kind| {
            tracer
                .spans
                .iter()
                .filter(|s| s.op == op && s.kind == kind)
                .count()
        };
        for op in [1, 2] {
            assert_eq!(kinds(op, Kind::Op), 1);
            assert_eq!(kinds(op, Kind::PostRecv), 2);
            assert_eq!(kinds(op, Kind::PostSend), 2);
            assert_eq!(kinds(op, Kind::Claim), 4);
            assert_eq!(kinds(op, Kind::Wait), 0, "the fabric routes on this thread");
        }
        let times = self_times(&tracer.spans);
        assert_eq!(times.len(), 2);
        for (op, per_kind) in times {
            let root = tracer
                .spans
                .iter()
                .find(|s| s.op == op && s.kind == Kind::Op)
                .unwrap();
            let total: f64 = per_kind.iter().sum();
            assert_eq!(total, (root.end_ns - root.start_ns) as f64);
            assert_eq!(per_kind.len(), KINDS);
        }
    }
}
