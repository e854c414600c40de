//! The two intranode workloads: two `HostEndpoint`s on one `HostCluster`
//! fabric, driven by one thread.  The fabric routes on the caller's thread,
//! so every post returns with its consequences already published and no
//! futex wake sits on the measured path.

use super::{
    claim, first_steps, pre_posted_round_trip, send_ok, LayerCounters, Shape, StepCx, Workload,
    TAG_REP, TAG_REQ,
};
use crate::payload::Pool;
use crate::span::{Kind, Tracer};
use push_pull_messaging::core::{
    OpId, ProcessId, ProtocolConfig, RecvBuf, ReliabilityMode, TruncationPolicy,
};
use push_pull_messaging::host::{HostCluster, HostEndpoint};
use push_pull_messaging::Endpoint;

const SMALL: usize = 64;
const BULK: usize = 64 * 1024;

struct Pair {
    a: Endpoint<HostEndpoint>,
    b: Endpoint<HostEndpoint>,
    a_id: ProcessId,
    b_id: ProcessId,
}

impl Pair {
    fn new() -> Pair {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = Endpoint::new(cluster.add_endpoint(0));
        let b = Endpoint::new(cluster.add_endpoint(1));
        Pair {
            a_id: a.local_id(),
            b_id: b.local_id(),
            a,
            b,
        }
    }

    fn counters(&self) -> LayerCounters {
        let mut stats = self.a.stats();
        stats.merge(&self.b.stats());
        LayerCounters {
            stats,
            ..LayerCounters::default()
        }
    }
}

/// `intranode_rr_64b`: 64 B request, 64 B reply, both receives pre-posted,
/// one operation outstanding.
pub struct IntranodeRr {
    pair: Pair,
    requests: Pool,
    replies: Pool,
}

impl Workload for IntranodeRr {
    const NAME: &'static str = "intranode_rr_64b";
    const WARMUP_STEPS: u64 = 50_000;
    const TRACE_STEPS: u64 = 100_000;

    fn setup(seed: u64) -> Self {
        let mut w = IntranodeRr {
            pair: Pair::new(),
            requests: Pool::new(seed, 1, 1024, SMALL),
            replies: Pool::new(seed, 2, 1024, SMALL),
        };
        first_steps(&mut w);
        w
    }

    #[inline]
    fn step<T: Tracer>(&mut self, seq: u64, cx: &mut StepCx<'_, T>) -> u64 {
        let Pair { a, b, a_id, b_id } = &self.pair;
        let request = self.requests.for_seq(seq);
        let reply = self.replies.for_seq(seq);
        let start_ns = cx.now_ns();
        cx.tracer.op_begin(seq);
        let ok = pre_posted_round_trip((a, *a_id), (b, *b_id), request, reply, seq, cx);
        cx.tracer.op_end(seq);
        cx.finish_op(seq, start_ns, ok)
    }

    fn counters(&self) -> LayerCounters {
        self.pair.counters()
    }

    fn shape(&self) -> Shape {
        Shape {
            protocol: ProtocolConfig::paper_intranode(),
            internode: false,
            reliability: ReliabilityMode::GoBackN,
            request_len: SMALL,
            reply_len: SMALL,
            late_receive: false,
            recv_into: false,
        }
    }
}

/// `intranode_bulk_64k_late`: a 64 KiB transfer posted **before** its
/// receive (paper fig. 6, late receiver) into a recycled caller buffer,
/// then a 64 B ack; one operation outstanding.
pub struct IntranodeBulkLate {
    pair: Pair,
    transfers: Pool,
    acks: Pool,
    /// The caller-owned receive buffer, handed back by every completion.
    buf: Option<RecvBuf>,
}

impl Workload for IntranodeBulkLate {
    const NAME: &'static str = "intranode_bulk_64k_late";
    const WARMUP_STEPS: u64 = 4_000;
    const TRACE_STEPS: u64 = 10_000;

    fn setup(seed: u64) -> Self {
        let mut w = IntranodeBulkLate {
            pair: Pair::new(),
            transfers: Pool::new(seed, 1, 32, BULK),
            acks: Pool::new(seed, 2, 32, SMALL),
            buf: Some(RecvBuf::with_capacity(BULK)),
        };
        first_steps(&mut w);
        w
    }

    #[inline]
    fn step<T: Tracer>(&mut self, seq: u64, cx: &mut StepCx<'_, T>) -> u64 {
        let Pair { a, b, a_id, b_id } = &self.pair;
        let transfer = self.transfers.for_seq(seq);
        let ack = self.acks.for_seq(seq);
        // A buffer lost to a failed operation is replaced, not waited for.
        let buf = self
            .buf
            .take()
            .unwrap_or_else(|| RecvBuf::with_capacity(BULK));
        let start_ns = cx.now_ns();
        cx.tracer.op_begin(seq);
        let policy = TruncationPolicy::Error;
        let posted = (|| {
            // Send first: the pushed part lands in the pushed buffer as an
            // unexpected message, and the late receive below pulls the rest.
            let sa = cx.tracer.span(seq, Kind::PostSend, || {
                a.post_send(*b_id, TAG_REQ, transfer.clone())
            });
            let rb = cx.tracer.span(seq, Kind::PostRecv, || {
                b.post_recv_into(*a_id, TAG_REQ, buf, policy)
            });
            let ra = cx.tracer.span(seq, Kind::PostRecv, || {
                a.post_recv(*b_id, TAG_REP, SMALL, policy)
            });
            Some((sa.ok()?, rb.ok()?, ra.ok()?))
        })();
        let mut ok = false;
        if let Some((sa, rb, ra)) = posted {
            if let Some(mut done) = claim(b, OpId::Recv(rb), seq, cx) {
                ok = cx.recv_ok(seq, &done, *a_id, TAG_REQ, transfer);
                self.buf = done.buf.take();
            }
            let sb = cx.tracer.span(seq, Kind::PostSend, || {
                b.post_send(*a_id, TAG_REP, ack.clone())
            });
            let got = claim(a, OpId::Recv(ra), seq, cx);
            ok &= got.is_some_and(|d| cx.recv_ok(seq, &d, *b_id, TAG_REP, ack));
            ok &= send_ok(claim(a, OpId::Send(sa), seq, cx), BULK);
            ok &= sb.is_ok_and(|sb| send_ok(claim(b, OpId::Send(sb), seq, cx), SMALL));
        }
        cx.tracer.op_end(seq);
        cx.finish_op(seq, start_ns, ok)
    }

    fn counters(&self) -> LayerCounters {
        self.pair.counters()
    }

    fn shape(&self) -> Shape {
        Shape {
            protocol: ProtocolConfig::paper_intranode(),
            internode: false,
            reliability: ReliabilityMode::GoBackN,
            request_len: BULK,
            reply_len: SMALL,
            late_receive: true,
            recv_into: true,
        }
    }
}
