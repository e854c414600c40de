//! `reactor_rr_64b_w16`: the full internode stack at the smallest packet.
//! One `Reactor` (one loop thread) hosts a server and two client endpoints
//! on 127.0.0.1 UDP; the driver thread plays both sides and keeps a sliding
//! window of 16 request/replies in flight, 8 per client, claiming through
//! the facade's blocking wait.  Traffic crosses the host loopback interface,
//! not a link.
//!
//! Two choices make it repeat on a shared two-CPU guest:
//!
//! * **Both threads run on one CPU** (the loop thread inherits the driver's
//!   one-CPU mask).  On a CPU each, every wake-up crosses CPUs and finds the
//!   other virtual CPU halted, so the host has to schedule it again: the
//!   workload then cost 28–40 us of CPU per operation instead of 10, and its
//!   throughput followed the host's load (38 k – 50 k op/s from one run to
//!   the next).  On one CPU a wake-up is a local context switch.
//! * **The window slides one operation per step** — finish the oldest, serve
//!   the one half a window back, post a new one — so whichever thread runs
//!   always has work queued.  Posting a whole window and then collecting all
//!   of it made the two threads take turns in a pattern that differed from
//!   run to run (60 k – 100 k op/s on one CPU).

use super::{
    claim, first_steps, send_ok, LayerCounters, ReactorCounters, Shape, StepCx, Workload, TAG_REP,
    TAG_REQ,
};
use crate::payload::Pool;
use crate::span::{Kind, Tracer, WINDOW};
use push_pull_messaging::core::{
    OpId, ProcessId, ProtocolConfig, RecvOp, ReliabilityMode, SendOp, TruncationPolicy,
};
use push_pull_messaging::host::{Reactor, ReactorEndpoint};
use push_pull_messaging::Endpoint;

const SMALL: usize = 64;
const CLIENTS: usize = 2;

/// Operations in flight: a request is served half a window after it was
/// posted, and its reply claimed half a window after that.
const IN_FLIGHT: u64 = WINDOW as u64;

/// Handles of one in-flight request/reply.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Sequence number of the operation in this slot.
    op: u64,
    start_ns: u64,
    server_recv: Option<RecvOp>,
    client_recv: Option<RecvOp>,
    client_send: Option<SendOp>,
    server_send: Option<SendOp>,
    ok: bool,
}

pub struct ReactorRr {
    server: Endpoint<ReactorEndpoint>,
    clients: [Endpoint<ReactorEndpoint>; CLIENTS],
    server_id: ProcessId,
    client_ids: [ProcessId; CLIENTS],
    requests: Pool,
    replies: Pool,
    /// Operation `op` lives in slot `op % IN_FLIGHT` from the step that posts
    /// it to the step, `IN_FLIGHT` operations later, that finishes it.
    slots: [Option<Slot>; IN_FLIGHT as usize],
    // Declared last: the loop thread must outlive its endpoints' traffic and
    // is joined when the workload is dropped.
    reactor: Reactor,
}

impl Workload for ReactorRr {
    const NAME: &'static str = "reactor_rr_64b_w16";
    /// Fills the window and finishes one operation of either client.
    const SETUP_STEPS: u64 = IN_FLIGHT + CLIENTS as u64;
    const WARMUP_STEPS: u64 = 24_000;
    const TRACE_STEPS: u64 = 40_000;

    fn setup(seed: u64) -> Self {
        let protocol = ProtocolConfig::paper_internode();
        // Inherits the driver's one-CPU mask: see the module comment.
        let reactor = Reactor::new().expect("spawn the reactor loop thread");
        let bind = |id: ProcessId| {
            reactor
                .add_endpoint(id, protocol.clone(), "127.0.0.1:0")
                .expect("bind a loopback UDP endpoint")
        };
        let server_id = ProcessId::new(0, 0);
        let client_ids = [ProcessId::new(1, 0), ProcessId::new(2, 0)];
        let server = bind(server_id);
        let clients = client_ids.map(bind);
        let server_addr = server.local_addr().expect("server socket address");
        for client in &clients {
            client.add_peer(server_id, server_addr);
            server.add_peer(
                client.id(),
                client.local_addr().expect("client socket address"),
            );
        }
        let mut w = ReactorRr {
            server: Endpoint::new(server),
            clients: clients.map(Endpoint::new),
            server_id,
            client_ids,
            requests: Pool::new(seed, 1, 1024, SMALL),
            replies: Pool::new(seed, 2, 1024, SMALL),
            slots: [None; IN_FLIGHT as usize],
            reactor,
        };
        first_steps(&mut w);
        w
    }

    fn step<T: Tracer>(&mut self, seq: u64, cx: &mut StepCx<'_, T>) -> u64 {
        let policy = TruncationPolicy::Error;
        // Operation `op` belongs to client `op % 2`, so the clients alternate
        // and each has IN_FLIGHT / 2 = 8 operations in flight.
        let client_of = |op: u64| (op % CLIENTS as u64) as usize;
        let slot_of = |op: u64| (op % IN_FLIGHT) as usize;

        // Finish the oldest operation: its reply and both send completions
        // (claimed too, or the retention cap would evict them and
        // `completions_evicted` must stay 0).
        let mut end_ns = None;
        if let Some(slot) = self.slots[slot_of(seq)].take() {
            let (op, c) = (slot.op, client_of(slot.op));
            let reply = slot
                .client_recv
                .and_then(|recv| claim(&self.clients[c], OpId::Recv(recv), op, cx));
            let mut ok = slot.ok
                && reply.is_some_and(|d| {
                    cx.recv_ok(op, &d, self.server_id, TAG_REP, self.replies.for_seq(op))
                });
            ok &= slot.client_send.is_some_and(|send| {
                send_ok(claim(&self.clients[c], OpId::Send(send), op, cx), SMALL)
            });
            ok &= slot
                .server_send
                .is_some_and(|send| send_ok(claim(&self.server, OpId::Send(send), op, cx), SMALL));
            cx.tracer.op_end(op);
            end_ns = Some(cx.finish_op(op, slot.start_ns, ok));
        }

        // Serve the operation half a window back: claim its request (same-tag
        // messages of one peer match in posting order) and answer it.
        let serve = seq.wrapping_sub(IN_FLIGHT / 2);
        if let Some(slot) = self.slots[slot_of(serve)]
            .as_mut()
            .filter(|slot| slot.op == serve)
        {
            let c = client_of(serve);
            let got = slot
                .server_recv
                .and_then(|recv| claim(&self.server, OpId::Recv(recv), serve, cx));
            slot.ok = got.is_some_and(|d| {
                cx.recv_ok(
                    serve,
                    &d,
                    self.client_ids[c],
                    TAG_REQ,
                    self.requests.for_seq(serve),
                )
            });
            slot.server_send = cx
                .tracer
                .span(serve, Kind::PostSend, || {
                    self.server.post_send(
                        self.client_ids[c],
                        TAG_REP,
                        self.replies.for_seq(serve).clone(),
                    )
                })
                .ok();
        }

        // Post operation `seq`: both receives, then the request.
        let c = client_of(seq);
        cx.tracer.op_begin(seq);
        let server_recv = cx
            .tracer
            .span(seq, Kind::PostRecv, || {
                self.server
                    .post_recv(self.client_ids[c], TAG_REQ, SMALL, policy)
            })
            .ok();
        let client_recv = cx
            .tracer
            .span(seq, Kind::PostRecv, || {
                self.clients[c].post_recv(self.server_id, TAG_REP, SMALL, policy)
            })
            .ok();
        let start_ns = cx.now_ns();
        let client_send = cx
            .tracer
            .span(seq, Kind::PostSend, || {
                self.clients[c].post_send(
                    self.server_id,
                    TAG_REQ,
                    self.requests.for_seq(seq).clone(),
                )
            })
            .ok();
        self.slots[slot_of(seq)] = Some(Slot {
            op: seq,
            start_ns,
            server_recv,
            client_recv,
            client_send,
            server_send: None,
            ok: false,
        });
        end_ns.unwrap_or_else(|| cx.now_ns())
    }

    fn counters(&self) -> LayerCounters {
        let mut stats = self.server.stats();
        for client in &self.clients {
            stats.merge(&client.stats());
        }
        let channels = self
            .clients
            .iter()
            .map(|client| (client, self.server_id))
            .chain(self.client_ids.iter().map(|id| (&self.server, *id)))
            .filter_map(|(ep, peer)| ep.raw().channel_stats(peer));
        let (mut frames_received, mut acks_sent) = (0, 0);
        for channel in channels {
            frames_received += channel.delivered + channel.discarded + channel.acks_received;
            acks_sent += channel.acks_sent;
        }
        let m = self.reactor.metrics();
        LayerCounters {
            stats,
            reactor: Some(ReactorCounters {
                batches: m.batches.get(),
                timers_fired: m.timers_fired.get(),
                frames_received,
                acks_sent,
                batch_lock_ns: m.batch_lock_ns.snapshot(),
                user_lock_ns: m.user_lock_ns.snapshot(),
            }),
            chaos: None,
        }
    }

    fn shape(&self) -> Shape {
        Shape {
            protocol: ProtocolConfig::paper_internode(),
            internode: true,
            reliability: ReliabilityMode::GoBackN,
            request_len: SMALL,
            reply_len: SMALL,
            late_receive: false,
            recv_into: false,
        }
    }
}
