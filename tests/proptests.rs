//! Property-based tests on the protocol's core invariants, exercised through
//! the public API of the facade crate.

use bytes::Bytes;
use proptest::prelude::*;
use push_pull_messaging::core::queues::Assembly;
use push_pull_messaging::core::reliability::{Frame, GbnConfig, GbnEvent, GoBackN, MAX_SACK_WORDS};
use push_pull_messaging::core::wire::{Packet, PacketHeader, PacketKind, PushPart};
use push_pull_messaging::core::zbuf::pages_spanned;
use push_pull_messaging::core::{
    BtpPolicy, BtpSplit, Error, MessageId, OptFlags, ProtocolMode, TruncationPolicy, ANY_SOURCE,
    ANY_TAG, INTRANODE_PULL_CHUNK,
};
// The explicit import shadows the prelude's transport front-end: these
// properties drive the sans-I/O protocol engine by hand.
use push_pull_messaging::core::Endpoint;
use push_pull_messaging::prelude::*;

/// Relays packets and frames between two bare engines until neither has
/// anything left to say (timers are ignored: nothing is lost here), showing
/// every protocol packet `sender` emits — bare or framed — to `tap`.
fn relay(sender: &mut Endpoint, receiver: &mut Endpoint, tap: &mut dyn FnMut(&Packet)) {
    let (a, b) = (sender.id(), receiver.id());
    loop {
        let mut progressed = false;
        while let Some(action) = sender.poll_action() {
            progressed = true;
            match action {
                Action::Transmit { packet, .. } => {
                    tap(&packet);
                    receiver.handle_packet(a, packet);
                }
                Action::TransmitFrame { frame, .. } => {
                    if let Frame::Data { packet, .. } = &frame {
                        tap(packet);
                    }
                    receiver.handle_frame(a, frame);
                }
                _ => {}
            }
        }
        while let Some(action) = receiver.poll_action() {
            progressed = true;
            match action {
                Action::Transmit { packet, .. } => sender.handle_packet(b, packet),
                Action::TransmitFrame { frame, .. } => sender.handle_frame(b, frame),
                _ => {}
            }
        }
        if !progressed {
            break;
        }
    }
}

fn arb_mode() -> impl Strategy<Value = ProtocolMode> {
    prop_oneof![
        Just(ProtocolMode::PushZero),
        Just(ProtocolMode::PushPull),
        Just(ProtocolMode::PushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The BTP split always conserves the message length and never produces
    /// a negative-sized part, for any policy and message size.
    #[test]
    fn btp_split_conserves_length(
        mode in arb_mode(),
        btp1 in 0usize..4096,
        btp2 in 0usize..4096,
        overlap in any::<bool>(),
        len in 0usize..200_000,
    ) {
        let mut opts = OptFlags::full();
        opts.push_ack_overlap = overlap;
        let split = BtpSplit::plan(mode, BtpPolicy::split(btp1, btp2), opts, len);
        prop_assert_eq!(split.total(), len);
        prop_assert!(split.first_push <= len);
        prop_assert!(split.second_push_offset() + split.second_push <= len);
        prop_assert_eq!(split.pulled_offset() + split.pulled, len);
    }

    /// Wire round-trip: any packet that encodes must decode to itself.
    #[test]
    fn packet_roundtrip(
        kind in 0u8..5,
        msg_id in any::<u64>(),
        tag in any::<u32>(),
        total in 0u32..100_000,
        offset in 0u32..100_000,
        payload_len in 0usize..4096,
    ) {
        let kind = match kind {
            0 => PacketKind::Push(PushPart::First),
            1 => PacketKind::Push(PushPart::Second),
            2 => PacketKind::PullRequest,
            3 => PacketKind::PullData,
            _ => PacketKind::Control,
        };
        let payload_len = if kind == PacketKind::PullRequest { 0 } else { payload_len };
        let header = PacketHeader {
            kind,
            src: ProcessId::new(0, 1),
            dst: ProcessId::new(1, 0),
            msg_id: MessageId(msg_id),
            tag: Tag(tag),
            total_len: total,
            eager_len: total.min(760),
            offset,
            payload_len: payload_len as u32,
        };
        let pkt = Packet::new(header, Bytes::from(vec![0xA5u8; payload_len])).unwrap();
        let decoded = Packet::decode(pkt.encode()).unwrap();
        prop_assert_eq!(decoded, pkt);
    }

    /// Go-back-N frame round-trip.
    #[test]
    fn frame_roundtrip(seq in any::<u64>(), len in 0usize..2048) {
        let header = PacketHeader {
            kind: PacketKind::PullData,
            src: ProcessId::new(0, 0),
            dst: ProcessId::new(1, 0),
            msg_id: MessageId(9),
            tag: Tag(2),
            total_len: len as u32,
            eager_len: 0,
            offset: 0,
            payload_len: len as u32,
        };
        let frame = Frame::Data {
            seq,
            packet: Packet::new(header, Bytes::from(vec![1u8; len])).unwrap(),
        };
        prop_assert_eq!(Frame::decode(frame.encode()).unwrap(), frame);
    }

    /// SACK wire round-trip: any cumulative point and any bitmap encode to
    /// a frame that decodes back to itself (the encoding trims trailing
    /// all-zero words, so the identity holds on the full `[u64; 4]`).
    #[test]
    fn sack_frame_roundtrip(
        next_expected in any::<u64>(),
        w0 in any::<u64>(),
        w1 in any::<u64>(),
        w2 in any::<u64>(),
        w3 in any::<u64>(),
        zero_suffix in 0usize..5,
    ) {
        // Exercise both dense and sparse bitmaps: force a trailing run of
        // zero words so the trimmed short forms are hit as often as the
        // full-width one.
        let mut bitmap = [w0, w1, w2, w3];
        for w in bitmap.iter_mut().skip(4 - zero_suffix) {
            *w = 0;
        }
        let frame = Frame::Sack { next_expected, bitmap };
        let encoded = frame.encode();
        prop_assert_eq!(Frame::decode(encoded.clone()).unwrap(), frame);

        // Every strict prefix is rejected with the field-carrying
        // truncation error reporting exactly what was available — never a
        // panic, never a misdecode into a different frame.
        for cut in 0..encoded.len() {
            match Frame::decode(encoded.slice(..cut)) {
                Err(Error::TruncatedFrame { have }) => prop_assert_eq!(have, cut),
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
    }

    /// A SACK frame declaring more bitmap words than
    /// [`MAX_SACK_WORDS`](push_pull_messaging::core::reliability::MAX_SACK_WORDS)
    /// is rejected with the declared count, even when that many words are
    /// actually present on the wire.
    #[test]
    fn sack_too_wide_rejected(
        next_expected in any::<u64>(),
        words in (MAX_SACK_WORDS as u8 + 1)..u8::MAX,
    ) {
        let mut wire = Vec::with_capacity(10 + 8 * usize::from(words));
        wire.push(2u8); // SACK kind byte
        wire.extend_from_slice(&next_expected.to_be_bytes());
        wire.push(words);
        for i in 0..u64::from(words) {
            wire.extend_from_slice(&i.to_be_bytes());
        }
        match Frame::decode(Bytes::from(wire)) {
            Err(Error::SackTooWide { words: got }) => prop_assert_eq!(got, words),
            other => prop_assert!(false, "declared {} words, got {:?}", words, other),
        }
    }

    /// Go-back-N delivers every packet exactly once, in order, under any
    /// loss pattern (as long as losses eventually stop).
    #[test]
    fn go_back_n_exactly_once_under_loss(
        count in 1usize..30,
        loss_pattern in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let cfg = GbnConfig { window: 8, rto_us: 10, max_retries: 10_000 };
        let mut sender = GoBackN::new(cfg);
        let mut receiver = GoBackN::new(cfg);
        let mut events = Vec::new();
        for i in 0..count {
            let header = PacketHeader {
                kind: PacketKind::PullData,
                src: ProcessId::new(0, 0),
                dst: ProcessId::new(1, 0),
                msg_id: MessageId(i as u64),
                tag: Tag(0),
                total_len: 8,
                eager_len: 0,
                offset: 0,
                payload_len: 8,
            };
            sender.send(Packet::new(header, Bytes::from(vec![i as u8; 8])).unwrap(), &mut events);
        }
        let mut delivered: Vec<u64> = Vec::new();
        let mut drop_iter = loss_pattern.into_iter();
        let mut pending_timer = None;
        let mut steps = 0;
        while !sender.idle() {
            steps += 1;
            prop_assert!(steps < 10_000, "did not converge");
            let outgoing: Vec<GbnEvent> = std::mem::take(&mut events);
            let mut to_receiver = Vec::new();
            for e in outgoing {
                match e {
                    GbnEvent::Transmit(f) => {
                        let drop = matches!(f, Frame::Data { .. }) && drop_iter.next().unwrap_or(false);
                        if !drop {
                            to_receiver.push(f);
                        }
                    }
                    GbnEvent::SetTimer { generation, .. } => pending_timer = Some(generation),
                    GbnEvent::CancelTimer { .. } => pending_timer = None,
                    _ => {}
                }
            }
            let mut recv_events = Vec::new();
            for f in to_receiver {
                receiver.on_frame(f, &mut recv_events);
            }
            for e in recv_events {
                match e {
                    GbnEvent::Deliver(p) => delivered.push(p.header.msg_id.0),
                    GbnEvent::Transmit(f) => sender.on_frame(f, &mut events),
                    _ => {}
                }
            }
            if events.is_empty() && !sender.idle() {
                if let Some(generation) = pending_timer.take() {
                    sender.on_timeout(generation, &mut events);
                }
            }
        }
        prop_assert_eq!(delivered, (0..count as u64).collect::<Vec<_>>());
    }

    /// Message reassembly covers exactly the bytes written, regardless of
    /// fragment order, overlap, or duplication.
    #[test]
    fn assembly_tracks_coverage_exactly(
        total in 1usize..8192,
        fragments in proptest::collection::vec((0usize..8192, 1usize..2048), 1..24),
    ) {
        let mut assembly = Assembly::new(total);
        let mut covered = vec![false; total];
        for (offset, len) in fragments {
            let data = vec![0xCDu8; len];
            assembly.write_at(offset, &data);
            for c in covered.iter_mut().take((offset + len).min(total)).skip(offset) {
                *c = true;
            }
        }
        let expected = covered.iter().filter(|&&c| c).count();
        prop_assert_eq!(assembly.received(), expected);
        prop_assert_eq!(assembly.is_complete(), expected == total);
    }

    /// The page-span helper agrees with a brute-force page enumeration.
    #[test]
    fn pages_spanned_matches_bruteforce(addr in 0u64..1_000_000, len in 0usize..100_000) {
        let fast = pages_spanned(addr, len, 4096);
        let brute = if len == 0 {
            0
        } else {
            let first = addr / 4096;
            let last = (addr + len as u64 - 1) / 4096;
            (last - first + 1) as usize
        };
        prop_assert_eq!(fast, brute);
    }

    /// End-to-end engine property: for any mode, size, and posting order, the
    /// delivered bytes equal the sent bytes.
    #[test]
    fn engine_delivers_exact_bytes(
        mode in arb_mode(),
        len in 0usize..20_000,
        recv_first in any::<bool>(),
        seed in any::<u8>(),
    ) {
        let cfg = ProtocolConfig::paper_internode()
            .with_mode(mode)
            .with_pushed_buffer(256 * 1024);
        let a = ProcessId::new(0, 0);
        let b = ProcessId::new(1, 0);
        let mut sender = Endpoint::new(a, cfg.clone());
        let mut receiver = Endpoint::new(b, cfg);
        let data = Bytes::from((0..len).map(|i| (i as u8).wrapping_add(seed)).collect::<Vec<u8>>());

        if recv_first {
            receiver.post_recv(a, Tag(1), len).unwrap();
            sender.post_send(b, Tag(1), data.clone()).unwrap();
        } else {
            sender.post_send(b, Tag(1), data.clone()).unwrap();
            receiver.post_recv(a, Tag(1), len).unwrap();
        }

        relay(&mut sender, &mut receiver, &mut |_| {});
        let mut delivered = None;
        while let Some(c) = receiver.poll_completion() {
            if let (OpId::Recv(_), Status::Ok) = (&c.op, &c.status) {
                delivered = c.data.clone();
            }
        }
        prop_assert_eq!(delivered.expect("message delivered"), data);
    }

    /// The intranode pull phase moves the remainder in 64 KiB shared-memory
    /// packets; the same endpoints forced through the ARQ layer
    /// (`reliable_intranode = false`) still fragment it at `max_payload`.
    /// The receiver must not be able to tell the difference: for any
    /// length (well past 64 KiB), receive capacity, truncation policy,
    /// engine- or caller-owned buffer, and posting order, both paths
    /// complete the receive with the same status, length and bytes.
    #[test]
    fn shared_memory_pull_delivers_what_the_fragmented_pull_does(
        len in prop_oneof![0usize..5_000, 64_000usize..67_000, 67_000usize..200_000],
        capacity_pct in prop_oneof![Just(100usize), 0usize..100, 100usize..130],
        truncate in any::<bool>(),
        caller_buffer in any::<bool>(),
        recv_first in any::<bool>(),
        seed in any::<u8>(),
    ) {
        let capacity: usize = len * capacity_pct / 100usize;
        let policy = if truncate { TruncationPolicy::Truncate } else { TruncationPolicy::Error };
        let data = Bytes::from((0..len).map(|i| (i as u8).wrapping_add(seed)).collect::<Vec<u8>>());
        // One run: the receiver's completion as (status, len, bytes), and
        // the payload sizes of the PullData packets the sender emitted.
        let run = |shared_memory: bool| {
            let mut cfg = ProtocolConfig::paper_intranode();
            cfg.reliable_intranode = shared_memory;
            let (a, b) = (ProcessId::new(0, 0), ProcessId::new(0, 1));
            let mut sender = Endpoint::new(a, cfg.clone());
            let mut receiver = Endpoint::new(b, cfg);
            let post_recv = |receiver: &mut Endpoint| {
                if caller_buffer {
                    receiver.post_recv_into(a, Tag(1), RecvBuf::with_capacity(capacity), policy)
                } else {
                    receiver.post_recv_with(a, Tag(1), capacity, policy)
                }
                .unwrap()
            };
            let op = if recv_first {
                let op = post_recv(&mut receiver);
                sender.post_send(b, Tag(1), data.clone()).unwrap();
                op
            } else {
                sender.post_send(b, Tag(1), data.clone()).unwrap();
                post_recv(&mut receiver)
            };
            let mut pulled = Vec::new();
            relay(&mut sender, &mut receiver, &mut |packet| {
                if packet.header.kind == PacketKind::PullData {
                    pulled.push(packet.payload.len());
                }
            });
            let mut outcome = None;
            while let Some(c) = receiver.poll_completion() {
                if c.op == OpId::Recv(op) {
                    let bytes = match (&c.data, &c.buf) {
                        (Some(data), _) => data.to_vec(),
                        (None, Some(buf)) => buf.as_slice().to_vec(),
                        (None, None) => Vec::new(),
                    };
                    outcome = Some((c.status.clone(), c.len, bytes));
                }
            }
            (outcome.expect("receive completed"), pulled)
        };

        let (shared, shared_pulled) = run(true);
        let (fragmented, fragmented_pulled) = run(false);
        prop_assert_eq!(&shared, &fragmented);
        let (status, delivered_len, bytes) = shared;
        if capacity >= len {
            prop_assert_eq!(status, Status::Ok);
            prop_assert_eq!(delivered_len, len);
        } else if truncate {
            prop_assert_eq!(status, Status::Truncated { message_len: len });
            prop_assert_eq!(delivered_len, capacity);
        } else {
            prop_assert_eq!(status, Status::Error(Error::ReceiveTooSmall { posted: capacity, incoming: len }));
        }
        prop_assert_eq!(&bytes[..], &data[..delivered_len]);
        // Same bytes pulled either way, in ceil(n / 64 KiB) packets against
        // ceil(n / max_payload).
        let remainder: usize = shared_pulled.iter().sum();
        prop_assert_eq!(remainder, fragmented_pulled.iter().sum::<usize>());
        prop_assert_eq!(shared_pulled.len(), remainder.div_ceil(INTRANODE_PULL_CHUNK));
        prop_assert_eq!(fragmented_pulled.len(), remainder.div_ceil(1460));
    }
}

// ---------------------------------------------------------------------------
// PR-1 structures: the slab/bucket queues must behave exactly like the naive
// Vec / HashMap models they replaced, under arbitrary interleavings of
// post / match / cancel / complete.
// ---------------------------------------------------------------------------

mod models {
    use push_pull_messaging::core::queues::{PendingSend, PostedReceive};
    use push_pull_messaging::core::{MessageId, ProcessId, RecvOp, Tag};
    use std::collections::HashMap;

    /// The original receive queue: linear scan over a flat `Vec`.
    #[derive(Default)]
    pub struct ModelRecvQueue {
        posted: Vec<PostedReceive>,
    }

    impl ModelRecvQueue {
        pub fn register(&mut self, recv: PostedReceive) {
            self.posted.push(recv);
        }

        pub fn match_incoming(&mut self, src: ProcessId, tag: Tag) -> Option<PostedReceive> {
            let idx = self
                .posted
                .iter()
                .position(|r| r.src == src && r.tag == tag)?;
            Some(self.posted.remove(idx))
        }

        pub fn peek_match(&self, src: ProcessId, tag: Tag) -> Option<&PostedReceive> {
            self.posted.iter().find(|r| r.src == src && r.tag == tag)
        }

        pub fn cancel(&mut self, op: RecvOp) -> Option<PostedReceive> {
            let idx = self.posted.iter().position(|r| r.op == op)?;
            Some(self.posted.remove(idx))
        }

        pub fn len(&self) -> usize {
            self.posted.len()
        }
    }

    /// The original buffer queue: linear scan, dedup by key.
    #[derive(Default)]
    pub struct ModelBufferQueue {
        entries: Vec<(ProcessId, MessageId, Tag)>,
    }

    impl ModelBufferQueue {
        pub fn insert(&mut self, src: ProcessId, msg_id: MessageId, tag: Tag) {
            if !self
                .entries
                .iter()
                .any(|&(s, m, _)| s == src && m == msg_id)
            {
                self.entries.push((src, msg_id, tag));
            }
        }

        pub fn match_posted(&mut self, src: ProcessId, tag: Tag) -> Option<MessageId> {
            let idx = self
                .entries
                .iter()
                .position(|&(s, _, t)| s == src && t == tag)?;
            Some(self.entries.remove(idx).1)
        }

        pub fn remove(&mut self, src: ProcessId, msg_id: MessageId) -> bool {
            let before = self.entries.len();
            self.entries.retain(|&(s, m, _)| !(s == src && m == msg_id));
            before != self.entries.len()
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }
    }

    /// The original send queue: `HashMap` plus order `Vec` with `retain`.
    #[derive(Default)]
    pub struct ModelSendQueue {
        entries: HashMap<u64, PendingSend>,
        order: Vec<u64>,
    }

    impl ModelSendQueue {
        pub fn register(&mut self, send: PendingSend) {
            let key = send.msg_id.0;
            self.order.push(key);
            self.entries.insert(key, send);
        }

        pub fn get(&self, msg_id: MessageId) -> Option<&PendingSend> {
            self.entries.get(&msg_id.0)
        }

        pub fn remove(&mut self, msg_id: MessageId) -> Option<PendingSend> {
            let removed = self.entries.remove(&msg_id.0);
            if removed.is_some() {
                self.order.retain(|&k| k != msg_id.0);
            }
            removed
        }

        pub fn iter_ids(&self) -> Vec<u64> {
            self.order
                .iter()
                .filter(|k| self.entries.contains_key(k))
                .copied()
                .collect()
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bucketed receive queue and the naive model agree on every
    /// register / match / peek / cancel interleaving.
    #[test]
    fn recv_queue_matches_naive_model(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u32..3), 1..80),
    ) {
        use push_pull_messaging::core::queues::{PostedReceive, ReceiveQueue};

        let srcs = [ProcessId::new(0, 0), ProcessId::new(0, 1), ProcessId::new(1, 0)];
        let mut real = ReceiveQueue::new();
        let mut model = models::ModelRecvQueue::default();
        let mut next_handle = 0u32;
        for (kind, src_sel, tag) in ops {
            let src = srcs[src_sel as usize];
            let tag = Tag(tag);
            match kind {
                0 | 3 => {
                    let recv = PostedReceive {
                        op: RecvOp::from_raw(next_handle, 0),
                        src,
                        tag,
                        capacity: 64,
                        translated: false,
                        policy: TruncationPolicy::Error,
                    };
                    next_handle += 1;
                    real.register(recv);
                    model.register(recv);
                }
                1 => {
                    prop_assert_eq!(real.match_incoming(src, tag), model.match_incoming(src, tag));
                }
                _ => {
                    // Cancel a pseudo-random previously issued handle (may
                    // already be matched/cancelled: both must agree).
                    if next_handle > 0 {
                        let h = RecvOp::from_raw(
                            (tag.0 * 7 + src_sel as u32) % next_handle,
                            0,
                        );
                        prop_assert_eq!(real.cancel(h), model.cancel(h));
                    }
                }
            }
            prop_assert_eq!(real.len(), model.len());
            for &s in &srcs {
                for t in 0..3 {
                    prop_assert_eq!(
                        real.peek_match(s, Tag(t)).copied(),
                        model.peek_match(s, Tag(t)).copied()
                    );
                }
            }
        }
    }

    /// The bucketed unexpected-message queue agrees with the naive model
    /// under insert / match / remove interleavings.  Tags are a function of
    /// the message id, as in the real protocol (a message never changes tag).
    #[test]
    fn buffer_queue_matches_naive_model(
        ops in proptest::collection::vec((0u8..3, 0u8..2, 0u64..12), 1..80),
    ) {
        use push_pull_messaging::core::queues::{BufferQueue, UnexpectedKey};
        use push_pull_messaging::core::MessageId;

        let srcs = [ProcessId::new(0, 0), ProcessId::new(1, 0)];
        let mut real = BufferQueue::new();
        let mut model = models::ModelBufferQueue::default();
        for (kind, src_sel, msg) in ops {
            let src = srcs[src_sel as usize];
            let msg_id = MessageId(msg);
            let tag = Tag((msg % 3) as u32);
            match kind {
                0 => {
                    real.insert(UnexpectedKey { src, msg_id }, tag);
                    model.insert(src, msg_id, tag);
                }
                1 => {
                    prop_assert_eq!(
                        real.match_posted(src, tag).map(|k| k.msg_id),
                        model.match_posted(src, tag)
                    );
                }
                _ => {
                    prop_assert_eq!(
                        real.remove_with_tag(UnexpectedKey { src, msg_id }, tag),
                        model.remove(src, msg_id)
                    );
                }
            }
            prop_assert_eq!(real.len(), model.len());
            prop_assert_eq!(real.is_empty(), model.len() == 0);
        }
    }

    /// The slab-indexed send queue agrees with the naive model, including
    /// registration-order iteration after arbitrary interior removals.
    #[test]
    fn send_queue_matches_naive_model(
        ops in proptest::collection::vec((0u8..3, 0u64..24), 1..80),
    ) {
        use push_pull_messaging::core::queues::{PendingSend, SendQueue};
        use push_pull_messaging::core::MessageId;

        let mut real = SendQueue::new();
        let mut model = models::ModelSendQueue::default();
        let mut next_id = 0u64;
        for (kind, sel) in ops {
            match kind {
                0 => {
                    let send = PendingSend {
                        op: SendOp::from_raw(next_id as u32, 0),
                        dst: ProcessId::new(1, 0),
                        tag: Tag(0),
                        msg_id: MessageId(next_id),
                        payload: push_pull_messaging::core::SendPayload::Single(Bytes::new()),
                        split: BtpSplit::plan(
                            ProtocolMode::PushPull,
                            BtpPolicy::INTERNODE_DEFAULT,
                            OptFlags::full(),
                            0,
                        ),
                        pull_served: false,
                        fully_transmitted: false,
                        translated: false,
                    };
                    next_id += 1;
                    real.register(send.clone());
                    model.register(send);
                }
                1 => {
                    let id = MessageId(sel);
                    prop_assert_eq!(
                        real.remove(id).map(|s| s.op),
                        model.remove(id).map(|s| s.op)
                    );
                }
                _ => {
                    let id = MessageId(sel);
                    prop_assert_eq!(real.get(id).map(|s| s.op), model.get(id).map(|s| s.op));
                }
            }
            prop_assert_eq!(real.len(), model.len());
            let real_order: Vec<u64> = real.iter().map(|s| s.msg_id.0).collect();
            prop_assert_eq!(real_order, model.iter_ids());
        }
    }

    /// End-to-end: the slab-indexed engine preserves MPI's per-(source, tag)
    /// FIFO matching for any mix of tags, sizes, and posting orders.
    #[test]
    fn slab_engine_preserves_fifo_matching(
        sizes in proptest::collection::vec(1usize..2000, 1..8),
        tag_sels in proptest::collection::vec(0u32..3, 1..8),
        recv_first in any::<bool>(),
    ) {
        let k = sizes.len().min(tag_sels.len());
        let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(1 << 20);
        let a = ProcessId::new(0, 0);
        let b = ProcessId::new(1, 0);
        let mut sender = Endpoint::new(a, cfg.clone());
        let mut receiver = Endpoint::new(b, cfg);

        // Message i carries a distinctive byte pattern.
        let payloads: Vec<Bytes> = (0..k)
            .map(|i| Bytes::from(vec![(i * 31 + 7) as u8; sizes[i]]))
            .collect();

        let post_sends = |sender: &mut Endpoint| {
            for i in 0..k {
                sender.post_send(b, Tag(tag_sels[i]), payloads[i].clone()).unwrap();
            }
        };
        let post_recvs = |receiver: &mut Endpoint| -> Vec<(u32, RecvOp)> {
            (0..k)
                .map(|i| {
                    let tag = tag_sels[i];
                    (tag, receiver.post_recv(a, Tag(tag), 4096).unwrap())
                })
                .collect()
        };

        let handles = if recv_first {
            let h = post_recvs(&mut receiver);
            post_sends(&mut sender);
            h
        } else {
            post_sends(&mut sender);
            post_recvs(&mut receiver)
        };

        // Relay until quiet.
        relay(&mut sender, &mut receiver, &mut |_| {});
        let mut delivered: Vec<(RecvOp, Bytes)> = Vec::new();
        while let Some(c) = receiver.poll_completion() {
            if let OpId::Recv(op) = c.op {
                prop_assert_eq!(&c.status, &Status::Ok);
                delivered.push((op, c.data.clone().expect("engine-buffered data")));
            }
        }
        prop_assert_eq!(delivered.len(), k, "every message delivered exactly once");

        // The j-th receive posted on tag t must hold the j-th message sent
        // on tag t (non-overtaking rule), for every interleaving.
        let mut sent_per_tag: std::collections::HashMap<u32, Vec<usize>> = Default::default();
        for (i, &tag) in tag_sels.iter().enumerate().take(k) {
            sent_per_tag.entry(tag).or_default().push(i);
        }
        let mut seen_per_tag: std::collections::HashMap<u32, usize> = Default::default();
        let by_handle: std::collections::HashMap<RecvOp, Bytes> =
            delivered.into_iter().collect();
        for (tag, handle) in handles {
            let j = *seen_per_tag.entry(tag).or_default();
            seen_per_tag.insert(tag, j + 1);
            let msg_idx = sent_per_tag[&tag][j];
            let got = by_handle.get(&handle).expect("handle completed");
            prop_assert_eq!(got, &payloads[msg_idx], "tag {} position {}", tag, j);
        }
    }

    /// Wildcard matching is FIFO-consistent with the naive linear-scan
    /// model: for any interleaving of exact and wildcard registrations with
    /// concrete incoming messages, the bucketed queue picks exactly the
    /// receive a front-to-back scan over posting order would pick.
    #[test]
    fn wildcard_matching_is_fifo_consistent_with_linear_scan(
        ops in proptest::collection::vec((0u8..2, 0u8..3, 0u8..3), 1..100),
    ) {
        use push_pull_messaging::core::queues::{PostedReceive, ReceiveQueue};

        let srcs = [ProcessId::new(0, 0), ProcessId::new(1, 0), ANY_SOURCE];
        let tags = [Tag(0), Tag(1), ANY_TAG];
        let concrete_srcs = [ProcessId::new(0, 0), ProcessId::new(1, 0)];
        let mut real = ReceiveQueue::new();
        // The naive model: posted receives in posting order, matched by a
        // front-to-back scan honouring wildcard selectors.
        let mut model: Vec<PostedReceive> = Vec::new();
        let mut next = 0u32;
        for (kind, src_sel, tag_sel) in ops {
            match kind {
                0 => {
                    let recv = PostedReceive {
                        op: RecvOp::from_raw(next, 0),
                        src: srcs[src_sel as usize],
                        tag: tags[tag_sel as usize],
                        capacity: 64,
                        translated: false,
                        policy: TruncationPolicy::Error,
                    };
                    next += 1;
                    real.register(recv);
                    model.push(recv);
                }
                _ => {
                    // An incoming message always has concrete source/tag.
                    let src = concrete_srcs[(src_sel % 2) as usize];
                    let tag = tags[(tag_sel % 2) as usize];
                    let model_hit = model
                        .iter()
                        .position(|r| {
                            (r.src.is_any_source() || r.src == src)
                                && (r.tag.is_any() || r.tag == tag)
                        })
                        .map(|i| model.remove(i));
                    let real_peek = real.peek_match(src, tag).copied();
                    let real_hit = real.match_incoming(src, tag);
                    prop_assert_eq!(real_peek, real_hit);
                    prop_assert_eq!(real_hit.map(|r| r.op), model_hit.map(|r| r.op));
                }
            }
            prop_assert_eq!(real.len(), model.len());
        }
    }

    /// Splitting a message into arbitrary segments and posting it with
    /// `post_send_vectored` delivers exactly the same bytes as the single
    /// contiguous send, for any mode and segmentation.
    #[test]
    fn vectored_send_equals_contiguous_send(
        mode in arb_mode(),
        cuts in proptest::collection::vec(0usize..10_000, 0..6),
        len in 0usize..10_000,
        seed in any::<u8>(),
    ) {
        let cfg = ProtocolConfig::paper_internode()
            .with_mode(mode)
            .with_pushed_buffer(256 * 1024);
        let a = ProcessId::new(0, 0);
        let b = ProcessId::new(1, 0);
        let mut sender = Endpoint::new(a, cfg.clone());
        let mut receiver = Endpoint::new(b, cfg);
        let data = Bytes::from(
            (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect::<Vec<u8>>(),
        );
        // Cut points define the segmentation (duplicates yield empty
        // segments, which must be legal).
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        bounds.push(0);
        bounds.push(len);
        bounds.sort_unstable();
        let segments: Vec<Bytes> = bounds
            .windows(2)
            .map(|w| data.slice(w[0]..w[1]))
            .collect();

        sender.post_send_vectored(b, Tag(1), &segments).unwrap();
        receiver.post_recv(a, Tag(1), len.max(1)).unwrap();
        for _ in 0..10_000 {
            let mut progressed = false;
            while let Some(action) = sender.poll_action() {
                progressed = true;
                if let Action::TransmitFrame { frame, .. } = action {
                    receiver.handle_frame(a, frame);
                }
            }
            while let Some(action) = receiver.poll_action() {
                progressed = true;
                if let Action::TransmitFrame { frame, .. } = action {
                    sender.handle_frame(b, frame);
                }
            }
            if !progressed {
                break;
            }
        }
        let mut delivered = None;
        while let Some(c) = receiver.poll_completion() {
            if let (OpId::Recv(_), Status::Ok) = (&c.op, &c.status) {
                delivered = c.data.clone();
            }
        }
        prop_assert_eq!(delivered.expect("vectored message delivered"), data);
    }

    /// The `EndpointConfig` completion-retention cap is honored per
    /// endpoint: after a flood of fire-and-forget eager sends, at most `cap`
    /// unclaimed completions remain drainable, operations a waiter
    /// registered for are never evicted, and every eviction is surfaced in
    /// `EndpointStats::completions_evicted`.
    #[test]
    fn endpoint_retention_cap_is_honored(
        cap in 1usize..24,
        extra in 0usize..48,
        waited in 0usize..6,
    ) {
        use push_pull_messaging::Endpoint as FrontEnd;
        let cluster = LoopbackCluster::new(
            ProtocolConfig::paper_intranode().with_pushed_buffer(512 * 1024),
        );
        let a = FrontEnd::with_config(
            cluster.add_endpoint(ProcessId::new(0, 0)),
            &EndpointConfig::new().completion_retention(cap),
        );
        let _b = cluster.add_endpoint(ProcessId::new(0, 1));
        let peer = ProcessId::new(0, 1);
        let payload = Bytes::from(vec![1u8; 8]); // fully eager under BTP=16

        // `waited` sends whose futures register interest up front: they are
        // spoken for and must survive any flood.
        let waited_futures: Vec<_> = (0..waited)
            .map(|_| a.send(peer, Tag(1), payload.clone()).unwrap())
            .collect();

        // The fire-and-forget flood: each eager send completes inside the
        // post, so the queue sees cap + extra unawaited completions.
        for _ in 0..cap + extra {
            a.post_send(peer, Tag(2), payload.clone()).unwrap();
        }

        let mut drained = Vec::new();
        a.drain_completions(&mut drained);
        prop_assert!(
            drained.len() <= cap,
            "cap {} but {} unclaimed fire-and-forget completions drained",
            cap,
            drained.len()
        );
        prop_assert!(drained.iter().all(|c| c.tag == Tag(2)), "drain must not steal awaited ops");
        // Eviction is observable, and accounts exactly for the overflow.
        let evicted = a.stats().completions_evicted;
        prop_assert_eq!(evicted as usize, cap + extra - drained.len());
        // Waiter-registered operations are never evicted: every future still
        // resolves.
        for fut in waited_futures {
            let done = block_on(fut);
            prop_assert_eq!(done.status, Status::Ok);
        }
    }

    /// Wildcard (`ANY_SOURCE`/`ANY_TAG`) matching against a **deep**
    /// unexpected-message backlog (1k+ buffered messages, the linear scan
    /// of ROADMAP PR-2, now an O(1) list-head peek) stays FIFO-consistent
    /// with the naive linear-scan model: every peek and claim picks the
    /// globally oldest matching message, whatever selector mix and claim
    /// order follow.  Reserved (collective-space) tags participate too:
    /// `ANY_TAG` never observes them, while naming them exactly (with a
    /// concrete or wildcard source) always works.
    #[test]
    fn wildcard_peek_consistent_at_deep_unexpected_backlog(
        depth in 1000usize..1500,
        ops in proptest::collection::vec((0u8..3, 0u8..4), 1..40),
    ) {
        use push_pull_messaging::core::queues::{BufferQueue, UnexpectedKey};
        use push_pull_messaging::core::COLLECTIVE_TAG_BIT;

        let srcs = [ProcessId::new(0, 0), ProcessId::new(1, 0)];
        let tags = [Tag(0), Tag(1), Tag(COLLECTIVE_TAG_BIT | 2)];
        let mut real = BufferQueue::new();
        let mut model: Vec<(ProcessId, MessageId, Tag)> = Vec::new();
        for i in 0..depth {
            let src = srcs[i % srcs.len()];
            let msg_id = MessageId(i as u64);
            let tag = tags[i % tags.len()];
            real.insert(UnexpectedKey { src, msg_id }, tag);
            model.push((src, msg_id, tag));
        }
        for (sel_src, sel_tag) in ops {
            let src = match sel_src {
                0 => srcs[0],
                1 => srcs[1],
                _ => ANY_SOURCE,
            };
            let tag = match sel_tag {
                0 => tags[0],
                1 => tags[1],
                2 => tags[2],
                _ => ANY_TAG,
            };
            let model_hit = model
                .iter()
                .position(|&(s, _, t)| {
                    (src.is_any_source() || s == src)
                        && if tag.is_any() {
                            // The wildcard never matches the reserved
                            // (collective) half of the tag space.
                            !t.is_reserved()
                        } else {
                            t == tag
                        }
                });
            let peeked = real.peek_unexpected(src, tag);
            prop_assert_eq!(
                peeked.map(|(k, t)| (k.src, k.msg_id, t)),
                model_hit.map(|i| model[i]),
                "peek at backlog {}",
                real.len()
            );
            // Claim what was peeked, as the engine does on a match.
            let claimed = real.match_posted(src, tag);
            prop_assert_eq!(
                claimed.map(|k| k.msg_id),
                model_hit.map(|i| model.remove(i).1)
            );
            prop_assert_eq!(real.len(), model.len());
        }
    }

    /// A cancelled `RecvOp` is never completed afterwards: its only
    /// completion is `Cancelled`, and every message it would have matched is
    /// delivered to surviving receives instead.
    #[test]
    fn cancelled_recv_op_is_never_completed(
        count in 1usize..6,
        cancel_mask in 0u8..32,
        sizes in proptest::collection::vec(1usize..4000, 6..7),
    ) {
        let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(1 << 20);
        let a = ProcessId::new(0, 0);
        let b = ProcessId::new(1, 0);
        let mut sender = Endpoint::new(a, cfg.clone());
        let mut receiver = Endpoint::new(b, cfg);

        let ops: Vec<RecvOp> = (0..count)
            .map(|_| receiver.post_recv(a, Tag(1), 4096).unwrap())
            .collect();
        let cancelled: Vec<RecvOp> = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| cancel_mask & (1 << i) != 0)
            .map(|(_, &op)| op)
            .collect();
        for &op in &cancelled {
            prop_assert!(receiver.cancel(op));
        }
        let survivors = count - cancelled.len();
        for size in sizes.iter().take(survivors) {
            sender.post_send(b, Tag(1), Bytes::from(vec![7u8; *size])).unwrap();
        }
        for _ in 0..10_000 {
            let mut progressed = false;
            while let Some(action) = sender.poll_action() {
                progressed = true;
                if let Action::TransmitFrame { frame, .. } = action {
                    receiver.handle_frame(a, frame);
                }
            }
            while let Some(action) = receiver.poll_action() {
                progressed = true;
                if let Action::TransmitFrame { frame, .. } = action {
                    sender.handle_frame(b, frame);
                }
            }
            if !progressed {
                break;
            }
        }
        let mut completed_ok = 0usize;
        while let Some(c) = receiver.poll_completion() {
            if let OpId::Recv(op) = c.op {
                if cancelled.contains(&op) {
                    prop_assert_eq!(
                        c.status,
                        Status::Cancelled,
                        "cancelled op may only report cancellation"
                    );
                } else {
                    prop_assert_eq!(c.status, Status::Ok);
                    completed_ok += 1;
                }
            }
        }
        prop_assert_eq!(completed_ok, survivors, "survivors all complete");
    }
}

/// Properties of the metrics plane ([`telemetry::LogHistogram`] /
/// [`telemetry::Counter`]): the histogram is lossless with respect to its
/// bucket bounds, merging is a bucketwise sum that never loses a sample,
/// and concurrent recorders never drop one either.
#[cfg(feature = "telemetry")]
mod telemetry_metrics {
    use super::*;
    use push_pull_messaging::core::telemetry::{
        bucket_bounds, bucket_of, Counter, HistogramSnapshot, LogHistogram, HIST_BUCKETS,
    };

    /// Samples spread across the full bucket range: a raw `u64` shifted
    /// right by a variable amount covers tiny and huge magnitudes alike.
    /// (The vendored proptest has no `prop_map`, so the shift is applied
    /// by [`widen`] inside the test body.)
    fn arb_samples() -> impl Strategy<Value = Vec<(u64, u32)>> {
        collection::vec((any::<u64>(), 0u32..64), 0..200)
    }

    fn widen(raw: Vec<(u64, u32)>) -> Vec<u64> {
        raw.into_iter().map(|(v, shift)| v >> shift).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Losslessness: every recorded sample is counted exactly once, in
        /// the one bucket whose inclusive bounds contain it.
        #[test]
        fn histogram_is_lossless_wrt_bucket_bounds(samples in arb_samples()) {
            let samples = widen(samples);
            let h = LogHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            let snap = h.snapshot();
            prop_assert_eq!(snap.count(), samples.len() as u64, "no sample lost or duplicated");
            for i in 0..HIST_BUCKETS {
                let (lo, hi) = bucket_bounds(i);
                let expected = samples.iter().filter(|&&s| lo <= s && s <= hi).count() as u64;
                prop_assert_eq!(
                    snap.buckets[i], expected,
                    "bucket {} [{}, {}] must hold exactly the samples in bounds", i, lo, hi
                );
                prop_assert!(snap.buckets[i] == 0 || (bucket_of(lo) == i && bucket_of(hi) == i));
            }
        }

        /// Merge is a bucketwise sum: counts add, no bucket ever decreases,
        /// and the quantile bound stays monotone in `q`.
        #[test]
        fn histogram_merge_is_monotone(xs in arb_samples(), ys in arb_samples()) {
            let (xs, ys) = (widen(xs), widen(ys));
            let a = LogHistogram::new();
            let b = LogHistogram::new();
            for &s in &xs {
                a.record(s);
            }
            for &s in &ys {
                b.record(s);
            }
            let before = a.snapshot();
            let mut merged = before;
            merged.merge(&b.snapshot());
            prop_assert_eq!(merged.count(), (xs.len() + ys.len()) as u64);
            for i in 0..HIST_BUCKETS {
                prop_assert!(merged.buckets[i] >= before.buckets[i], "merge never shrinks a bucket");
                prop_assert_eq!(merged.buckets[i], before.buckets[i] + b.snapshot().buckets[i]);
            }
            let mut prev = 0u64;
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let bound = merged.quantile_bound(q);
                prop_assert!(bound >= prev, "quantile bound monotone in q");
                prev = bound;
            }
            // Merging the empty histogram is the identity.
            let mut same = before;
            same.merge(&HistogramSnapshot::default());
            prop_assert_eq!(same, before);
        }

        /// Single-threaded `tick` hands out consecutive sampling tickets
        /// starting at the current count.
        #[test]
        fn counter_tick_is_a_fetch_add(start in 0u64..1000, n in 1u64..64) {
            let c = Counter::new();
            c.add(start);
            for i in 0..n {
                prop_assert_eq!(c.tick(), start + i);
            }
            prop_assert_eq!(c.get(), start + n);
        }
    }

    /// Concurrent recording never loses a sample: N threads hammer one
    /// histogram and one counter; the totals come out exact.  (The same
    /// property is model-checked exhaustively on a small schedule in
    /// `crates/core/tests/model_telemetry.rs`.)
    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let hist = std::sync::Arc::new(LogHistogram::new());
        let counter = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let hist = std::sync::Arc::clone(&hist);
                let counter = std::sync::Arc::clone(&counter);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        hist.record(t * PER_THREAD + i);
                        counter.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hist.snapshot().count(), THREADS * PER_THREAD);
        assert_eq!(counter.get(), THREADS * PER_THREAD);
    }
}
