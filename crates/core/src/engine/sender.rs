//! Sender-side half of the protocol engine: posting sends (the push phase)
//! and serving pull requests.

// ppmsg-lint: deny(hot_path_alloc) — steady-state engine path; pooled buffers only.

use super::{Action, Endpoint, InjectMode, TranslateCtx, INTRANODE_PULL_CHUNK};
use crate::btp::BtpSplit;
use crate::error::{Error, Result};
use crate::ops::{Completion, OpId, SendOp, Status};
use crate::queues::{chunk_segments, PendingSend, SendPayload};
use crate::types::{MessageId, ProcessId, Tag};
use crate::wire::{Packet, PacketHeader, PacketKind, PushPart};
use bytes::Bytes;

impl Endpoint {
    /// Posts a send of `data` to `dst` with user tag `tag`.
    ///
    /// This is the push phase of Fig. 1: the first `BTP(1)` bytes (plus the
    /// `BTP(2)` bytes overlapped with the acknowledgement, when enabled) are
    /// handed to the transport immediately and the remainder is registered in
    /// the send queue to be pulled by the receiver.
    ///
    /// Completion is reported through the completion queue
    /// ([`Endpoint::poll_completion`]) as a [`Completion`] carrying the
    /// returned [`SendOp`].
    pub fn post_send(&mut self, dst: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp> {
        self.post_send_segments(dst, tag, std::slice::from_ref(&data), |_| {
            SendPayload::Single(data.clone())
        })
    }

    /// Posts a vectored send: `segments` are concatenated into **one**
    /// message on the receive side, but are never coalesced on the wire —
    /// every packet's payload is a zero-copy slice of exactly one segment
    /// ([`SendPayload::for_each_chunk`]), so a scatter list of header and
    /// body buffers is pushed and pulled without a staging copy.  Empty
    /// segments are allowed and skipped; an empty list behaves like an empty
    /// [`Endpoint::post_send`].
    ///
    /// The push phase is emitted **directly from the borrowed segment
    /// list**: a fully-eager vectored send (everything fits the BTP push,
    /// the latency-critical small-scatter case) never materialises an owned
    /// payload and therefore never allocates, whatever the segment count.
    /// Only a send that registers a pull remainder pins the list, in one
    /// shared `Arc<[Bytes]>` allocation amortised against the multi-packet
    /// pull transfer it serves; serving the pull later clones only
    /// refcounts, like the single-buffer path.
    pub fn post_send_vectored(
        &mut self,
        dst: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<SendOp> {
        self.post_send_segments(dst, tag, segments, |segments| {
            SendPayload::Vectored(std::sync::Arc::from(segments))
        })
    }

    /// Shared posting body: pushes the eager part straight off the borrowed
    /// `segments`, and calls `pin` to build the owned [`SendPayload`] only
    /// when a pull remainder must outlive this call.
    fn post_send_segments(
        &mut self,
        dst: ProcessId,
        tag: Tag,
        segments: &[Bytes],
        pin: impl FnOnce(&[Bytes]) -> SendPayload,
    ) -> Result<SendOp> {
        if dst == self.id() {
            return Err(Error::SelfSend { process: dst });
        }
        let msg_id = self.alloc_msg_id();
        let (op_slot, op_generation) = self.send_ops.insert(msg_id);
        let op = SendOp::from_raw(op_slot, op_generation);
        let policy = self.btp_for(dst);
        let opts = self.config().opts;
        let mode = self.config().mode;
        let total_len = segments.iter().map(Bytes::len).sum();
        let split = BtpSplit::plan(mode, policy, opts, total_len);
        self.stats.sends_posted += 1;
        crate::telemetry::event(
            crate::telemetry::EventKind::OpPosted,
            op_slot | crate::telemetry::OP_SEND_BIT,
            tag.0,
            total_len as u64,
        );

        // §4.3 Address Translation Overhead Masking decides *when* the source
        // buffer's zero buffer is built relative to the first transmission.
        // Without masking the translation is on the critical path: it must
        // complete before the kernel transmission thread can read the user
        // buffer.  With masking the pushed bytes are injected from user space
        // (direct thread invocation) and the translation of the remainder is
        // scheduled after the transmissions have been initiated.
        let masking = opts.translation_masking;
        let zero_buffer = opts.zero_buffer;
        let inject = if masking {
            InjectMode::UserSpaceDirect
        } else {
            InjectMode::Kernel
        };

        // The source buffer's zero buffer is only needed when a remainder
        // will be pulled out of it by the kernel; eagerly pushed bytes are
        // copied to the NIC (or the peer's kernel queue) at injection time
        // and need no translation of their own.
        if zero_buffer && !masking && split.needs_pull() {
            self.emit_translate(TranslateCtx::SendSource, dst, msg_id, total_len);
        }

        // First push (may be zero-length for Push-Zero: it still announces
        // the message so the receiver can start the pull phase).  Pushes
        // larger than the maximum payload are fragmented; each fragment is an
        // independently deliverable push packet with its own offset.
        self.emit_push_packets(
            dst,
            tag,
            msg_id,
            total_len,
            split,
            PushPart::First,
            segments,
            inject,
        );

        // Second push, overlapped with the acknowledgement (§4.4).
        if split.second_push > 0 {
            self.emit_push_packets(
                dst,
                tag,
                msg_id,
                total_len,
                split,
                PushPart::Second,
                segments,
                inject,
            );
        }

        if zero_buffer && masking && split.needs_pull() {
            // Translation of the (remaining) message is now off the critical
            // path: the pushes are already in flight.
            self.emit_translate(TranslateCtx::SendSource, dst, msg_id, total_len);
        }

        if split.needs_pull() {
            // Register the send so the pull request can be served later
            // (arrow 1b.1 in Fig. 1) — the only case that needs an owned,
            // pinned payload.
            self.send_queue.register(PendingSend {
                op,
                dst,
                tag,
                msg_id,
                payload: pin(segments),
                split,
                pull_served: false,
                fully_transmitted: false,
                translated: zero_buffer,
            });
        } else {
            // Everything was pushed eagerly; the send is locally complete.
            self.complete_send(op, dst, tag, total_len);
        }
        Ok(op)
    }

    /// Cancels a posted send whose remainder has not been pulled yet.
    ///
    /// Returns `true` if the operation was cancelled: the send is removed
    /// from the send queue, its pinned [`Bytes`] payload is released, and a
    /// [`Status::Cancelled`] completion is queued — the operation can never
    /// complete afterwards.  Returns `false` for stale handles, sends that
    /// completed eagerly (everything pushed, nothing left to cancel), and
    /// sends whose pull request has already been served.
    ///
    /// The receiver is **not** notified: if it had already matched the
    /// message and issued its pull request, that receive keeps waiting for
    /// pulled data that will never arrive (the stale request is answered
    /// with a drop action).  A protocol-level NACK that fails the remote
    /// receive is future work; until then, cancel sends only when the peer
    /// is known not to have posted the matching receive (the exact situation
    /// — a pull that never arrives — this exists to reclaim).
    pub fn cancel_send(&mut self, op: SendOp) -> bool {
        let Some(&mut msg_id) = self.send_ops.get_mut(op.slot(), op.generation()) else {
            return false;
        };
        let Some(pending) = self.send_queue.get(msg_id) else {
            // Live operation without a queue entry cannot happen today (an
            // eager send completes inside `post_send`); guard anyway.
            return false;
        };
        if pending.pull_served {
            return false;
        }
        let pending = self
            .send_queue
            .remove(msg_id)
            .expect("pending send vanished during cancel");
        self.send_ops
            .remove(op.slot(), op.generation())
            .expect("cancelling send without live operation record");
        self.stats.sends_cancelled += 1;
        self.push_completion(Completion {
            op: OpId::Send(op),
            peer: pending.dst,
            tag: pending.tag,
            len: 0,
            status: Status::Cancelled,
            data: None,
            buf: None,
        });
        // `pending.payload` — the pinned payload — is dropped here,
        // reclaiming the caller's bytes.
        true
    }

    /// Retires a send operation and queues its completion.
    fn complete_send(&mut self, op: SendOp, peer: ProcessId, tag: Tag, bytes: usize) {
        self.send_ops
            .remove(op.slot(), op.generation())
            .expect("completing send without live operation record");
        self.stats.sends_completed += 1;
        self.push_completion(Completion {
            op: OpId::Send(op),
            peer,
            tag,
            len: bytes,
            status: Status::Ok,
            data: None,
            buf: None,
        });
    }

    /// Builds and submits the push packets of one part directly — no
    /// intermediate `Vec<Packet>` and no owned payload, keeping `post_send`
    /// and the fully-eager vectored path allocation-free.  Chunking is
    /// delegated to [`chunk_segments`]: a vectored payload's packets split
    /// at segment boundaries instead of coalescing.
    #[allow(clippy::too_many_arguments)] // mirrors the packet header fields
    fn emit_push_packets(
        &mut self,
        dst: ProcessId,
        tag: Tag,
        msg_id: MessageId,
        total_len: usize,
        split: BtpSplit,
        part: PushPart,
        segments: &[Bytes],
        inject: InjectMode,
    ) {
        let (start, len) = match part {
            PushPart::First => (0, split.first_push),
            PushPart::Second => (split.second_push_offset(), split.second_push),
        };
        let eager_len = (split.first_push + split.second_push) as u32;
        let max_payload = self.config().max_payload;
        chunk_segments(
            segments,
            start,
            start + len,
            max_payload,
            |offset, chunk| {
                let header = PacketHeader {
                    kind: PacketKind::Push(part),
                    src: self.id(),
                    dst,
                    msg_id,
                    tag,
                    total_len: total_len as u32,
                    eager_len,
                    offset: offset as u32,
                    payload_len: chunk.len() as u32,
                };
                let packet =
                    Packet::new(header, chunk).expect("push packet construction cannot fail");
                self.stats.bytes_pushed += packet.payload.len() as u64;
                self.submit_packet(dst, packet, inject);
            },
        );
    }

    fn emit_translate(
        &mut self,
        ctx: TranslateCtx,
        peer: ProcessId,
        msg_id: MessageId,
        bytes: usize,
    ) {
        self.stats.translations += 1;
        self.stats.bytes_translated += bytes as u64;
        self.push_action(Action::Translate {
            ctx,
            peer,
            msg_id,
            bytes,
        });
    }

    /// Serves a pull request arriving from `src` (the receiver of one of our
    /// registered sends): transmits the pulled remainder and completes the
    /// send.  An internode remainder is fragmented to the configured maximum
    /// payload (one wire frame each); an intranode remainder crosses shared
    /// memory, which has no MTU, so it travels in [`INTRANODE_PULL_CHUNK`]
    /// pieces — one packet for anything up to 64 KiB.
    pub(crate) fn serve_pull_request(&mut self, src: ProcessId, packet: &Packet) {
        let msg_id = packet.header.msg_id;
        let Some(pending) = self.send_queue.get_mut(msg_id) else {
            // Duplicate or stale request: the send already completed.
            self.push_action(Action::PacketDropped {
                peer: src,
                bytes: 0,
                reason: super::DropReason::UnknownMessage,
            });
            return;
        };
        if pending.pull_served {
            return;
        }
        pending.pull_served = true;
        let payload = pending.payload.clone();
        let split = pending.split;
        let op = pending.op;
        let tag = pending.tag;
        let dst = pending.dst;
        debug_assert_eq!(
            dst, src,
            "pull request must come from the send's destination"
        );

        let total_len = payload.len();
        let eager_len = split.first_push + split.second_push;
        let chunk_len = if self.bypasses_arq(dst) {
            INTRANODE_PULL_CHUNK
        } else {
            self.config().max_payload
        };
        self.stats.pull_requests_served += 1;

        // Transmit the remainder (arrow 1b.2 in Fig. 1).  The reception
        // handler at the receive party copies each packet straight into the
        // destination buffer using the registered zero buffer (arrow 2a).
        // The pull phase never has a zero-length range (`needs_pull` held),
        // so the announce-chunk special case of `for_each_chunk` cannot
        // trigger here.
        payload.for_each_chunk(
            split.pulled_offset(),
            total_len,
            chunk_len,
            |offset, chunk| {
                let header = PacketHeader {
                    kind: PacketKind::PullData,
                    src: self.id(),
                    dst,
                    msg_id,
                    tag,
                    total_len: total_len as u32,
                    eager_len: eager_len as u32,
                    offset: offset as u32,
                    payload_len: chunk.len() as u32,
                };
                let packet =
                    Packet::new(header, chunk).expect("pull data packet construction cannot fail");
                self.stats.bytes_pulled += packet.payload.len() as u64;
                // The pull phase is served by the kernel-side reception handler;
                // the data leaves through the kernel transmission path.
                self.submit_packet(dst, packet, InjectMode::Kernel);
            },
        );

        // The message is now fully handed to the transport.
        if let Some(pending) = self.send_queue.get_mut(msg_id) {
            pending.fully_transmitted = true;
        }
        self.send_queue.remove(msg_id);
        self.complete_send(op, dst, tag, total_len);
    }
}
