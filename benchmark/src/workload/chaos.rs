//! `chaos_sr_64k_loss5`: the recovery path.  A 64 KiB request and a 64 B
//! reply between two `ChaosEndpoint`s on different nodes, selective repeat,
//! 5 % loss + 1 % duplication + 2 % reordering on the virtual clock — one
//! thread, zero syscalls, and every post drives the fault plane to
//! quiescence before it returns.

use super::{first_steps, pre_posted_round_trip, LayerCounters, Shape, StepCx, Workload};
use crate::payload::Pool;
use crate::span::Tracer;
use push_pull_messaging::core::{EndpointStats, ProcessId, ProtocolConfig, ReliabilityMode};
use push_pull_messaging::sim::{ChaosCluster, ChaosConfig, ChaosEndpoint};
use push_pull_messaging::Endpoint;

const BULK: usize = 64 * 1024;
const SMALL: usize = 64;

/// Event budget of one cluster: ten times what the longest life of one — the
/// traced run's 7 000 operations at ~215 events each — needs, and twenty
/// times a second's worth of the timed run, so a selective-repeat livelock
/// panics (and is caught as a failed operation) within seconds instead of
/// hanging the run.
const MAX_EVENTS: u64 = 15_000_000;

pub struct ChaosSr {
    seed: u64,
    net: Net,
    /// Endpoint counters of the fault planes already replaced, so the exit
    /// check covers the whole run.
    retired: EndpointStats,
    requests: Pool,
    replies: Pool,
}

/// One fault plane and its two endpoints.
struct Net {
    cluster: ChaosCluster,
    a: Endpoint<ChaosEndpoint>,
    b: Endpoint<ChaosEndpoint>,
    a_id: ProcessId,
    b_id: ProcessId,
}

impl Net {
    fn new(seed: u64) -> Net {
        let faults = ChaosConfig {
            drop_p: 0.05,
            duplicate_p: 0.01,
            reorder_p: 0.02,
            partition: None,
            max_events: MAX_EVENTS,
            ..ChaosConfig::new(seed)
        };
        let cluster = ChaosCluster::new(protocol(), faults);
        let a_id = ProcessId::new(0, 0);
        let b_id = ProcessId::new(1, 0);
        Net {
            a: Endpoint::new(cluster.add_endpoint(a_id)),
            b: Endpoint::new(cluster.add_endpoint(b_id)),
            cluster,
            a_id,
            b_id,
        }
    }
}

fn protocol() -> ProtocolConfig {
    ProtocolConfig::paper_internode().with_reliability(ReliabilityMode::SelectiveRepeat)
}

impl Workload for ChaosSr {
    const NAME: &'static str = "chaos_sr_64k_loss5";
    const WARMUP_STEPS: u64 = 1_000;
    const TRACE_STEPS: u64 = 3_000;

    fn setup(seed: u64) -> Self {
        let mut w = ChaosSr {
            seed,
            net: Net::new(seed),
            retired: EndpointStats::default(),
            requests: Pool::new(seed, 1, 32, BULK),
            replies: Pool::new(seed, 2, 32, SMALL),
        };
        first_steps(&mut w);
        w
    }

    /// A fresh fault plane (seeded with `--seed` + the second's number) and
    /// with it a fresh event budget, every second of the timed phase.
    fn renew(&mut self, epoch: u64) {
        self.retired = self.counters().stats;
        self.net = Net::new(self.seed.wrapping_add(epoch + 1));
    }

    #[inline]
    fn step<T: Tracer>(&mut self, seq: u64, cx: &mut StepCx<'_, T>) -> u64 {
        let Net {
            cluster,
            a,
            b,
            a_id,
            b_id,
        } = &self.net;
        let request = self.requests.for_seq(seq);
        let reply = self.replies.for_seq(seq);
        let virt_start_us = cx.virt_lat_us.is_some().then(|| cluster.now_us());
        let start_ns = cx.now_ns();
        cx.tracer.op_begin(seq);
        // The request's `post_send` returns once the transfer — drops, SACKs,
        // retransmissions and the timers between them — has run to quiescence.
        let ok = pre_posted_round_trip((a, *a_id), (b, *b_id), request, reply, seq, cx);
        cx.tracer.op_end(seq);
        let end_ns = cx.finish_op(seq, start_ns, ok);
        if let (Some(start_us), Some(out)) = (virt_start_us, cx.virt_lat_us.as_deref_mut()) {
            out.push(cluster.now_us().saturating_sub(start_us));
        }
        end_ns
    }

    fn counters(&self) -> LayerCounters {
        let mut stats = self.retired;
        stats.merge(&self.net.a.stats());
        stats.merge(&self.net.b.stats());
        LayerCounters {
            stats,
            reactor: None,
            chaos: Some(self.net.cluster.chaos_stats()),
        }
    }

    fn shape(&self) -> Shape {
        Shape {
            protocol: protocol(),
            internode: true,
            reliability: ReliabilityMode::SelectiveRepeat,
            request_len: BULK,
            reply_len: SMALL,
            late_receive: false,
            recv_into: false,
        }
    }
}
