//! Probes: a workload's message shape replayed straight into one layer's
//! public API, so a layer's cost can be told apart from the layers around
//! it without putting a single timer inside the program under test.
//!
//! A probe times either a block of calls between one pair of clock reads, or
//! — where calls of different layers interleave — each call on its own and
//! subtracts the measured cost of the clock pair.  Probe numbers are
//! per-layer diagnostics; no end-to-end metric uses them.

use crate::workload::Shape;
use bytes::Bytes;
use push_pull_messaging::core::queues::{PostedReceive, UnexpectedKey};
use push_pull_messaging::core::reliability::Frame;
use push_pull_messaging::core::{
    Action, ArqChannel, BufferQueue, Completion, CompletionMailbox, Endpoint, EngineBatch,
    GbnConfig, GbnEvent, MessageId, OpId, Packet, PacketBufPool, PacketHeader, PacketKind,
    ProcessId, PushPart, ReceiveQueue, RecvBuf, RecvOp, ShardedEngine, Status, Tag,
    TruncationPolicy,
};
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed block of a block probe.
const BLOCK: usize = 64;

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub mailbox_post_ns: f64,
    pub queue_take_ns: f64,
    pub recv_match_ns: f64,
    pub unexpected_enqueue_ns: f64,
    pub engine_post_send_ns: f64,
    pub engine_post_recv_ns: f64,
    pub engine_handle_packet_ns: f64,
    pub engine_packets_per_op: f64,
    /// The whole replayed operation on two bare engines, per operation.
    pub engine_cycle_ns: f64,
    pub completions_per_op: f64,
    pub sharded_overhead_ns: f64,
    pub wire_encode_64b_ns: f64,
    pub wire_decode_64b_ns: f64,
    pub wire_encode_1460b_ns: f64,
    pub wire_decode_1460b_ns: f64,
    pub wire_header_bytes_per_payload_byte: f64,
    pub reliability_send_ns: f64,
    pub reliability_on_frame_ns: f64,
    /// Data frames one operation puts on a lossless wire.
    pub data_frames_per_op: f64,
}

/// What [`Timed::time`] itself adds to a call, in ns: the same wrapper
/// around nothing, median of several rounds.
pub fn clock_pair_ns() -> f64 {
    let rounds: Vec<f64> = (0..15)
        .map(|_| {
            let mut empty = Timed::default();
            for _ in 0..2000 {
                empty.time(|| black_box(()));
            }
            empty.total_ns as f64 / empty.calls as f64
        })
        .collect();
    crate::stats::median(&rounds)
}

/// Median over `rounds` timed blocks of `BLOCK` calls of `f`, in ns per call.
fn block_ns(rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        for i in 0..BLOCK {
            f(i);
        }
        samples.push(start.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    crate::stats::median(&samples)
}

/// Accumulated per-call timings of one call class.
#[derive(Default)]
struct Timed {
    total_ns: u64,
    calls: u64,
}

impl Timed {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.total_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        result
    }

    fn per_call_ns(&self, clock_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.total_ns as f64 / self.calls as f64 - clock_ns).max(0.0)
    }
}

pub fn run(shape: &Shape, iterations: u64) -> Probes {
    let clock_ns = clock_pair_ns();
    let mut p = Probes::default();
    ops_probe(shape, &mut p);
    queue_probe(shape, &mut p);
    engine_probe(shape, iterations, clock_ns, &mut p);
    if shape.internode {
        wire_probe(shape, &mut p);
        reliability_probe(shape, iterations, clock_ns, &mut p);
    } else {
        p.sharded_overhead_ns = sharded_probe(shape);
    }
    p
}

/// `ops`: one completion published through the MPSC mailbox, then claimed by
/// handle — what every backend does once per completed operation.
fn ops_probe(shape: &Shape, p: &mut Probes) {
    let mailbox = CompletionMailbox::new(1);
    let payload = Bytes::from(vec![0x5Au8; shape.reply_len]);
    let peer = ProcessId::new(0, 1);
    let mut pending: Vec<Completion> = Vec::with_capacity(BLOCK);
    let mut scratch: Vec<Completion> = Vec::with_capacity(1);
    let mut post = Vec::new();
    let mut take = Vec::new();
    for _ in 0..200 {
        pending.extend((0..BLOCK).map(|i| Completion {
            op: OpId::Recv(RecvOp::from_raw(i as u32, 0)),
            peer,
            tag: Tag(1),
            len: payload.len(),
            status: Status::Ok,
            data: Some(payload.clone()),
            buf: None,
        }));
        let start = Instant::now();
        for completion in pending.drain(..) {
            scratch.push(completion);
            mailbox.post(0, &mut scratch);
        }
        post.push(start.elapsed().as_nanos() as f64 / BLOCK as f64);
        let start = Instant::now();
        for i in 0..BLOCK {
            let mut got = None;
            mailbox.with(&mut |queue| got = queue.take(OpId::Recv(RecvOp::from_raw(i as u32, 0))));
            black_box(got.expect("posted completion is claimable"));
        }
        take.push(start.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    p.mailbox_post_ns = crate::stats::median(&post);
    p.queue_take_ns = crate::stats::median(&take);
}

/// `queues`: register + match of a posted receive; and, for a late-receive
/// shape only, the unexpected-message enqueue + match.
fn queue_probe(shape: &Shape, p: &mut Probes) {
    let src = ProcessId::new(0, 0);
    let mut posted = ReceiveQueue::new();
    p.recv_match_ns = block_ns(400, |i| {
        posted.register(PostedReceive {
            op: RecvOp::from_raw(i as u32, 0),
            src,
            tag: Tag(7),
            capacity: shape.request_len,
            translated: false,
            policy: TruncationPolicy::Error,
        });
        black_box(posted.match_incoming(src, Tag(7)).expect("just registered"));
    });
    if shape.late_receive {
        let mut unexpected = BufferQueue::new();
        p.unexpected_enqueue_ns = block_ns(400, |i| {
            let key = UnexpectedKey {
                src,
                msg_id: MessageId(i as u64),
            };
            unexpected.insert(key, Tag(7));
            black_box(unexpected.match_posted(src, Tag(7)).expect("just inserted"));
        });
    }
}

/// Tallies of one engine-pair replay.
#[derive(Default)]
struct Replay {
    post_send: Timed,
    post_recv: Timed,
    handle: Timed,
    completions: u64,
    wire_bytes: u64,
    data_frames: u64,
}

fn deliver(src: ProcessId, action: Action, to: &mut Endpoint, r: &mut Replay) {
    match action {
        Action::Transmit { packet, .. } => r.handle.time(|| to.handle_packet(src, packet)),
        Action::TransmitFrame { frame, .. } => {
            r.wire_bytes += frame.wire_size() as u64;
            r.data_frames += u64::from(matches!(frame, Frame::Data { .. }));
            r.handle.time(|| to.handle_frame(src, frame));
        }
        // No loss here, so timers never matter; cost-model hints have no
        // substrate to charge.
        _ => {}
    }
}

fn relay(a: &mut Endpoint, b: &mut Endpoint, r: &mut Replay) {
    loop {
        let mut progressed = false;
        while let Some(action) = a.poll_action() {
            progressed = true;
            deliver(a.id(), action, b, r);
        }
        while let Some(action) = b.poll_action() {
            progressed = true;
            deliver(b.id(), action, a, r);
        }
        if !progressed {
            return;
        }
    }
}

/// `engine`: the workload's operation on two bare sans-I/O engines with a
/// hand relay — no backend shell, no locks, no mailbox.
fn engine_probe(shape: &Shape, iterations: u64, clock_ns: f64, p: &mut Probes) {
    let a_id = ProcessId::new(0, 0);
    let b_id = ProcessId::new(u32::from(shape.internode), 1);
    let mut a = Endpoint::new(a_id, shape.protocol.clone());
    let mut b = Endpoint::new(b_id, shape.protocol.clone());
    let request = Bytes::from(vec![0xA5u8; shape.request_len]);
    let reply = Bytes::from(vec![0x3Cu8; shape.reply_len]);
    let mut buf = Some(RecvBuf::with_capacity(shape.request_len));
    let mut r = Replay::default();
    let mut cycle_ns = 0u64;
    let warmup = iterations / 10 + 1;
    for i in 0..iterations + warmup {
        if i == warmup {
            r = Replay::default();
            cycle_ns = 0;
        }
        let start = Instant::now();
        if shape.late_receive {
            r.post_send
                .time(|| a.post_send(b_id, Tag(1), request.clone()))
                .expect("probe post_send");
            relay(&mut a, &mut b, &mut r);
        }
        r.post_recv
            .time(|| {
                if shape.recv_into {
                    let storage = buf.take().expect("receive buffer came back");
                    b.post_recv_into(a_id, Tag(1), storage, TruncationPolicy::Error)
                } else {
                    b.post_recv(a_id, Tag(1), shape.request_len)
                }
            })
            .expect("probe post_recv");
        r.post_recv
            .time(|| a.post_recv(b_id, Tag(2), shape.reply_len))
            .expect("probe post_recv");
        if !shape.late_receive {
            r.post_send
                .time(|| a.post_send(b_id, Tag(1), request.clone()))
                .expect("probe post_send");
        }
        relay(&mut a, &mut b, &mut r);
        r.post_send
            .time(|| b.post_send(a_id, Tag(2), reply.clone()))
            .expect("probe post_send");
        relay(&mut a, &mut b, &mut r);
        for engine in [&mut a, &mut b] {
            while let Some(mut done) = engine.poll_completion() {
                assert!(done.status.is_ok(), "probe operation failed: {done:?}");
                r.completions += 1;
                if let Some(storage) = done.buf.take() {
                    buf = Some(storage);
                }
            }
        }
        cycle_ns += start.elapsed().as_nanos() as u64;
    }
    let n = iterations as f64;
    let timed_calls = (r.post_send.calls + r.post_recv.calls + r.handle.calls) as f64;
    p.engine_post_send_ns = r.post_send.per_call_ns(clock_ns);
    p.engine_post_recv_ns = r.post_recv.per_call_ns(clock_ns);
    p.engine_handle_packet_ns = r.handle.per_call_ns(clock_ns);
    p.engine_packets_per_op = r.handle.calls as f64 / n;
    p.engine_cycle_ns = ((cycle_ns as f64 - timed_calls * clock_ns) / n).max(0.0);
    p.completions_per_op = r.completions as f64 / n;
    p.data_frames_per_op = r.data_frames as f64 / n;
    if shape.internode {
        let payload = (shape.request_len + shape.reply_len) as f64;
        p.wire_header_bytes_per_payload_byte = (r.wire_bytes as f64 / n - payload) / payload;
    }
}

/// `sharded`: what the one-shard `ShardedEngine` wrapper (shard lookup, lock,
/// hold-time sampling, batch drain) adds to one engine interaction, measured
/// on a post + cancel cycle that leaves no state behind.
fn sharded_probe(shape: &Shape) -> f64 {
    let id = ProcessId::new(0, 0);
    let peer = ProcessId::new(0, 1);
    let sharded = ShardedEngine::new(id, shape.protocol.clone(), 1);
    let mut batch = EngineBatch::new();
    let with_wrapper = block_ns(400, |_| {
        let op = sharded
            .post_recv_with(peer, Tag(9), 64, TruncationPolicy::Error, &mut batch)
            .expect("probe post_recv");
        black_box(sharded.cancel_recv(op, &mut batch));
        batch.actions.clear();
        batch.comps.clear();
    });
    let mut bare = Endpoint::new(id, shape.protocol.clone());
    let mut actions = Vec::new();
    let mut comps = Vec::new();
    let without = block_ns(400, |_| {
        let op = bare
            .post_recv_with(peer, Tag(9), 64, TruncationPolicy::Error)
            .expect("probe post_recv");
        bare.drain_actions_into(&mut actions);
        bare.drain_completions_into(&mut comps);
        black_box(bare.cancel(op));
        bare.drain_actions_into(&mut actions);
        bare.drain_completions_into(&mut comps);
        actions.clear();
        comps.clear();
    });
    // Two interactions per cycle.
    ((with_wrapper - without) / 2.0).max(0.0)
}

fn data_packet(payload_len: usize) -> Packet {
    let header = PacketHeader {
        kind: PacketKind::Push(PushPart::First),
        src: ProcessId::new(0, 0),
        dst: ProcessId::new(1, 0),
        msg_id: MessageId(42),
        tag: Tag(7),
        total_len: payload_len as u32,
        eager_len: payload_len as u32,
        offset: 0,
        payload_len: payload_len as u32,
    };
    Packet::new(header, Bytes::from(vec![0xA5u8; payload_len])).expect("consistent header")
}

/// `wire`: one data frame encoded into a pooled buffer and decoded back, at
/// the payload sizes the workload puts on the wire.
fn wire_probe(shape: &Shape, p: &mut Probes) {
    let codec = |payload_len: usize| {
        let frame = Frame::Data {
            seq: 7,
            packet: data_packet(payload_len),
        };
        let mut pool = PacketBufPool::new();
        let encode = block_ns(400, |_| {
            let mut buf = pool.acquire(frame.wire_size());
            frame.encode_into(&mut buf);
            black_box(buf.len());
            pool.release(buf);
        });
        let encoded = frame.encode();
        let decode = block_ns(400, |_| {
            black_box(Frame::decode(encoded.clone()).expect("own encoding decodes"));
        });
        (encode, decode)
    };
    (p.wire_encode_64b_ns, p.wire_decode_64b_ns) = codec(shape.reply_len.min(64));
    if shape.request_len > shape.protocol.max_payload {
        (p.wire_encode_1460b_ns, p.wire_decode_1460b_ns) = codec(shape.protocol.max_payload);
    }
}

/// `reliability`: the workload's frames through a bare `ArqChannel` pair on a
/// lossless wire — `send` on one side, `on_frame` for data and acks.
fn reliability_probe(shape: &Shape, iterations: u64, clock_ns: f64, p: &mut Probes) {
    let cfg = GbnConfig::default();
    let mut ends = [
        ArqChannel::new(shape.reliability, cfg),
        ArqChannel::new(shape.reliability, cfg),
    ];
    let max = shape.protocol.max_payload;
    let fragments = |len: usize| -> Vec<Packet> {
        (0..len.div_ceil(max))
            .map(|i| data_packet((len - i * max).min(max)))
            .collect()
    };
    let legs = [fragments(shape.request_len), fragments(shape.reply_len)];
    let (mut send, mut on_frame) = (Timed::default(), Timed::default());
    let mut out = Vec::new();
    let mut back = Vec::new();
    for _ in 0..iterations {
        for (from, packets) in legs.iter().enumerate() {
            for packet in packets {
                let packet = packet.clone();
                send.time(|| ends[from].send(packet, &mut out));
                // Data frames cross to the other end; the acks it answers
                // with cross back.  Deliveries and timers are dropped.
                for event in out.drain(..) {
                    if let GbnEvent::Transmit(frame) = event {
                        on_frame.time(|| ends[1 - from].on_frame(frame, &mut back));
                    }
                }
                for event in back.drain(..) {
                    if let GbnEvent::Transmit(frame) = event {
                        on_frame.time(|| ends[from].on_frame(frame, &mut out));
                    }
                }
                out.clear();
            }
        }
    }
    p.reliability_send_ns = send.per_call_ns(clock_ns);
    p.reliability_on_frame_ns = on_frame.per_call_ns(clock_ns);
}
