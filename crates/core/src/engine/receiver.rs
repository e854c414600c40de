//! Receiver-side half of the protocol engine: posting receives (engine- or
//! caller-buffered), handling arriving pushes and pulled data, issuing pull
//! requests, cancellation, and completion delivery.

// ppmsg-lint: deny(hot_path_alloc) — steady-state engine path; pooled buffers only.

use super::{
    Action, CopyKind, DropReason, Endpoint, IncomingMsg, InjectMode, MsgBody, RecvRec, TranslateCtx,
};
use crate::error::{Error, Result};
use crate::ops::{Completion, OpId, RecvBuf, RecvOp, Status, TruncationPolicy};
use crate::queues::{PostedReceive, UnexpectedKey};
use crate::telemetry::{self, drop_reason, EventKind};
use crate::types::{MessageId, ProcessId, Tag};
use crate::wire::{Packet, PacketHeader, PacketKind};
use bytes::Bytes;

impl Endpoint {
    /// Posts a receive for a message from `src` with tag `tag` into an
    /// engine-managed buffer of `capacity` bytes, with the default
    /// [`TruncationPolicy::Error`].
    ///
    /// `src` may be [`ANY_SOURCE`](crate::types::ANY_SOURCE) and `tag` may
    /// be [`ANY_TAG`](crate::types::ANY_TAG); wildcard receives match in the
    /// same global posting order an MPI implementation's linear scan would
    /// use.
    ///
    /// If the matching message (or part of it) has already arrived and is
    /// sitting in the pushed buffer, it is drained into the destination
    /// buffer immediately (the two-copy path); otherwise the receive is
    /// registered in the receive queue so arriving data can be copied
    /// straight to its destination (the one-copy path).  Either way, if the
    /// sender is withholding a remainder, the pull request is issued as soon
    /// as the message is known.
    ///
    /// Completion is reported through the completion queue
    /// ([`Endpoint::poll_completion`]) as a [`Completion`] carrying the
    /// returned [`RecvOp`]; the message bytes arrive in the completion's
    /// `data` field.
    pub fn post_recv(&mut self, src: ProcessId, tag: Tag, capacity: usize) -> Result<RecvOp> {
        self.post_recv_opts(src, tag, capacity, TruncationPolicy::Error, None)
    }

    /// [`Endpoint::post_recv`] with an explicit [`TruncationPolicy`].
    pub fn post_recv_with(
        &mut self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        self.post_recv_opts(src, tag, capacity, policy, None)
    }

    /// Posts a receive that reassembles the message **directly into the
    /// caller-owned buffer** `buf` — no engine-side assembly buffer and no
    /// owned-`Bytes` handoff, so even the multi-fragment pull path performs
    /// zero heap allocations in steady state.
    ///
    /// The buffer travels with the operation and is handed back in the
    /// [`Completion`]'s `buf` field (also on cancellation and failure), so
    /// one buffer can be recycled across receives indefinitely.
    pub fn post_recv_into(
        &mut self,
        src: ProcessId,
        tag: Tag,
        mut buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        let capacity = buf.capacity();
        // Clear any previous message view immediately: a recycled buffer
        // handed back unused (cancellation, failure) must read as empty,
        // not as the bytes of the message it carried last time.
        buf.begin(0);
        self.post_recv_opts(src, tag, capacity, policy, Some(buf))
    }

    fn post_recv_opts(
        &mut self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
        buf: Option<RecvBuf>,
    ) -> Result<RecvOp> {
        if src == self.id() {
            return Err(Error::SelfSend { process: src });
        }
        let (op_slot, op_generation) = self.recv_ops.insert(RecvRec {
            buf,
            capacity,
            policy,
        });
        let op = RecvOp::from_raw(op_slot, op_generation);
        self.stats.recvs_posted += 1;
        crate::telemetry::event(
            crate::telemetry::EventKind::OpPosted,
            op_slot,
            tag.0,
            capacity as u64,
        );
        let opts = self.config().opts;

        // Without translation masking, the destination buffer's zero buffer
        // is built up front, on the critical path of the receive operation.
        let mut translated = false;
        if opts.zero_buffer && !opts.translation_masking && capacity > 0 {
            self.stats.translations += 1;
            self.stats.bytes_translated += capacity as u64;
            self.push_action(Action::Translate {
                ctx: TranslateCtx::RecvDestination,
                peer: src,
                msg_id: MessageId(u64::MAX), // not yet known
                bytes: capacity,
            });
            translated = true;
        }

        // Check the buffer queue for an unexpected message that already
        // arrived (arrow 2b.2 in Fig. 1: drain the pushed buffer).  Peeking
        // first keeps arrival order intact when the receive turns out to be
        // too small and the message must stay queued.
        if let Some((key, msg_tag)) = self.buffer_queue.peek_unexpected(src, tag) {
            let slot = self
                .incoming_slot(key.src, key.msg_id)
                .expect("buffer queue entry without incoming state");
            let total = self.incoming.get(slot).unwrap().total_len;
            if total > capacity && policy == TruncationPolicy::Error {
                // The receive fails; the message is unharmed and stays
                // queued for the next adequate receive (the seed dropped its
                // partial state here, poisoning the message forever).
                self.fail_recv(op, key.src, msg_tag, capacity, total);
                return Ok(op);
            }
            self.buffer_queue.remove_with_tag(key, msg_tag);
            self.attach_to_incoming(key.src, slot, op, translated, capacity);
            self.try_complete(key.src, key.msg_id);
            return Ok(op);
        }

        // No data yet: register the receive so the reception handler can copy
        // arriving data straight to the destination buffer.
        self.recv_queue.register(PostedReceive {
            op,
            src,
            tag,
            capacity,
            translated,
            policy,
        });
        Ok(op)
    }

    /// Cancels a posted receive that has not yet matched a message.
    ///
    /// Returns `true` if the operation was cancelled, in which case a
    /// [`Status::Cancelled`] completion (carrying back any caller-owned
    /// buffer) is queued and the operation can never complete afterwards.
    /// Returns `false` when the handle is stale or the operation has already
    /// matched an arriving message — a matched receive is owed data that is
    /// possibly already in flight and must run to completion.
    pub fn cancel(&mut self, op: RecvOp) -> bool {
        let Some(posted) = self.recv_queue.cancel(op) else {
            return false;
        };
        let rec = self
            .recv_ops
            .remove(op.slot(), op.generation())
            .expect("queued receive without operation record");
        self.stats.recvs_cancelled += 1;
        self.push_completion(Completion {
            op: OpId::Recv(op),
            peer: posted.src,
            tag: posted.tag,
            len: 0,
            status: Status::Cancelled,
            data: None,
            buf: rec.buf,
        });
        true
    }

    /// Retires a receive with [`Error::ReceiveTooSmall`], handing back any
    /// caller-owned buffer.
    fn fail_recv(&mut self, op: RecvOp, peer: ProcessId, tag: Tag, posted: usize, incoming: usize) {
        let rec = self
            .recv_ops
            .remove(op.slot(), op.generation())
            .expect("failing receive without operation record");
        self.stats.recvs_failed += 1;
        self.push_completion(Completion {
            op: OpId::Recv(op),
            peer,
            tag,
            len: 0,
            status: Status::Error(Error::ReceiveTooSmall { posted, incoming }),
            data: None,
            buf: rec.buf,
        });
    }

    /// Binds a receive operation to the incoming message in `slot`: records
    /// the match, moves a caller-owned buffer into the message body (copying
    /// any already staged bytes into it), releases the message's pushed
    /// buffer reservation (the two-copy drain), and issues the pull request
    /// / deferred translation as needed.
    ///
    /// The caller is responsible for invoking [`Endpoint::try_complete`]
    /// afterwards (directly or at the end of packet processing).
    fn attach_to_incoming(
        &mut self,
        src: ProcessId,
        slot: u32,
        op: RecvOp,
        translated_at_post: bool,
        capacity: usize,
    ) {
        let (msg_id, total) = {
            let incoming = self.incoming.get_mut(slot).expect("attaching to live slot");
            incoming.matched = Some(op);
            (incoming.msg_id, incoming.total_len)
        };
        crate::telemetry::event(
            crate::telemetry::EventKind::OpMatched,
            op.slot(),
            0,
            total as u64,
        );

        // Caller-buffered receive: reassemble into the application's storage
        // from here on, first draining whatever was staged so far.
        let buf = self
            .recv_ops
            .get_mut(op.slot(), op.generation())
            .expect("matching receive without operation record")
            .buf
            .take();
        if let Some(mut buf) = buf {
            buf.begin(total);
            match std::mem::replace(
                &mut self.incoming.get_mut(slot).unwrap().body,
                MsgBody::Empty,
            ) {
                MsgBody::Empty => {}
                MsgBody::Direct(bytes) => {
                    buf.write_at(0, &bytes);
                }
                MsgBody::Assembling(assembly) => {
                    // Only genuinely received intervals may be marked
                    // covered in the caller buffer.
                    for &(start, end) in assembly.covered_intervals() {
                        buf.write_at(start, &assembly.as_slice()[start..end]);
                    }
                    self.release_assembly(assembly);
                }
                MsgBody::Caller(_) => unreachable!("message matched twice"),
            }
            self.incoming.get_mut(slot).unwrap().body = MsgBody::Caller(buf);
        }

        // Drain the pushed-buffer reservation: the second copy of the
        // two-copy path (pushed buffer → destination buffer).
        let (buffered, footprint) = {
            let incoming = self.incoming.get_mut(slot).unwrap();
            let pair = (
                incoming.pushed_buffer_bytes,
                incoming.pushed_buffer_footprint,
            );
            incoming.pushed_buffer_bytes = 0;
            incoming.pushed_buffer_footprint = 0;
            pair
        };
        if footprint > 0 {
            self.pushed_buffer.release(footprint);
            self.stats.bytes_copied_staged += buffered as u64;
            self.push_action(Action::Copy {
                kind: CopyKind::DrainPushedBuffer,
                peer: src,
                msg_id,
                bytes: buffered,
                least_loaded: false,
            });
            if !self.config().opts.zero_buffer {
                self.stats.bytes_copied_extra += buffered as u64;
                self.push_action(Action::Copy {
                    kind: CopyKind::StagingExtra,
                    peer: src,
                    msg_id,
                    bytes: buffered,
                    least_loaded: false,
                });
            }
        }

        // With masking the destination translation happens here, after the
        // (possible) pull request has been scheduled; without masking it
        // already happened at posting time.
        self.maybe_pull_and_translate(src, msg_id, translated_at_post, capacity);
    }

    /// Dispatches one protocol packet (already made reliable by the caller or
    /// by the go-back-N layer).
    ///
    /// A header that contradicts itself is dropped as
    /// [`DropReason::Malformed`] before it reaches any message state: an
    /// eager prefix longer than the message, or a payload ending past it,
    /// could never complete a message, so accepting one would wedge the
    /// receive it matched.
    pub(crate) fn process_packet(&mut self, src: ProcessId, packet: Packet) {
        let h = &packet.header;
        if h.eager_len > h.total_len
            || u64::from(h.offset) + u64::from(h.payload_len) > u64::from(h.total_len)
        {
            let bytes = packet.payload.len();
            telemetry::event(
                EventKind::PacketDropped,
                drop_reason::MALFORMED,
                bytes as u32,
                src.as_u64(),
            );
            self.push_action(Action::PacketDropped {
                peer: src,
                bytes,
                reason: DropReason::Malformed,
            });
            return;
        }
        match packet.header.kind {
            PacketKind::Push(_) | PacketKind::Control => self.handle_push(src, packet),
            PacketKind::PullData => self.handle_pull_data(src, packet),
            PacketKind::PullRequest => self.serve_pull_request(src, &packet),
        }
    }

    /// Records `payload` at `offset` in the message occupying `slot`.
    ///
    /// Caller-buffered messages write straight into the application's
    /// storage.  Otherwise, a payload covering the whole message in one
    /// packet is stored as a zero-copy [`MsgBody::Direct`] reference to the
    /// packet buffer; anything else goes through a pooled assembly buffer.
    fn record_payload(&mut self, slot: u32, offset: usize, payload: &Bytes) {
        if payload.is_empty() {
            return;
        }
        let total = self.incoming.get(slot).expect("live slot").total_len;
        let whole_message = offset == 0 && payload.len() == total;
        {
            let msg = self.incoming.get_mut(slot).unwrap();
            match &mut msg.body {
                MsgBody::Caller(buf) => {
                    buf.write_at(offset, payload);
                    return;
                }
                MsgBody::Empty if whole_message => {
                    msg.body = MsgBody::Direct(payload.clone());
                    return;
                }
                // Duplicate of an already complete single-packet message
                // (e.g. a go-back-N retransmission): idempotent.
                MsgBody::Direct(_) if whole_message => return,
                MsgBody::Assembling(assembly) => {
                    assembly.write_at(offset, payload);
                    return;
                }
                _ => {}
            }
        }
        // Transition Empty/Direct → Assembling through the pool.
        let mut assembly = self.acquire_assembly(total);
        let msg = self.incoming.get_mut(slot).unwrap();
        if let MsgBody::Direct(bytes) = &msg.body {
            assembly.write_at(0, bytes);
        }
        assembly.write_at(offset, payload);
        msg.body = MsgBody::Assembling(assembly);
    }

    fn handle_push(&mut self, src: ProcessId, packet: Packet) {
        let header = packet.header;
        let opts = self.config().opts;

        // Create (or look up) the reassembly state for this message.
        let slot = match self.incoming_slot(src, header.msg_id) {
            Some(slot) => slot,
            None => self.incoming_insert(
                src,
                IncomingMsg {
                    src,
                    msg_id: header.msg_id,
                    tag: header.tag,
                    total_len: header.total_len as usize,
                    eager_len: header.eager_len as usize,
                    body: MsgBody::Empty,
                    matched: None,
                    pull_requested: false,
                    pushed_buffer_bytes: 0,
                    pushed_buffer_footprint: 0,
                },
            ),
        };

        // Try to match a posted receive if this message is not matched yet.
        // A too-small receive under `TruncationPolicy::Error` is consumed
        // with an error completion and the message moves on to the next
        // posted receive — it is never dropped or poisoned.
        if self.incoming.get(slot).unwrap().matched.is_none() {
            let total = header.total_len as usize;
            while let Some(posted) = self.recv_queue.match_incoming(src, header.tag) {
                if total > posted.capacity && posted.policy == TruncationPolicy::Error {
                    self.fail_recv(posted.op, src, header.tag, posted.capacity, total);
                    continue;
                }
                self.attach_to_incoming(src, slot, posted.op, posted.translated, posted.capacity);
                break;
            }
        }

        let is_matched = self.incoming.get(slot).unwrap().matched.is_some();
        let bytes = packet.payload.len();

        if bytes > 0 {
            if is_matched {
                // One-copy path: reception handler copies straight into the
                // destination buffer using the registered zero buffer
                // (arrow 2a in Fig. 1).
                self.stats.bytes_copied_direct += bytes as u64;
                self.push_action(Action::Copy {
                    kind: CopyKind::PushDirect,
                    peer: src,
                    msg_id: header.msg_id,
                    bytes,
                    least_loaded: false,
                });
                if !opts.zero_buffer {
                    self.stats.bytes_copied_extra += bytes as u64;
                    self.push_action(Action::Copy {
                        kind: CopyKind::StagingExtra,
                        peer: src,
                        msg_id: header.msg_id,
                        bytes,
                        least_loaded: false,
                    });
                }
            } else {
                // Unexpected: stage in the pushed buffer (arrow 2b.1).  The
                // kernel stores the whole packet, header included.
                let footprint = bytes + crate::wire::MAX_HEADER_LEN;
                if !self.pushed_buffer.try_reserve(footprint) {
                    // No room: drop the fragment.  On internode channels the
                    // admission check in `handle_frame` normally prevents
                    // this; on intranode channels the data is simply lost and
                    // the caller is told.
                    self.stats.frames_dropped += 1;
                    self.stats.bytes_dropped += bytes as u64;
                    self.push_action(Action::PacketDropped {
                        peer: src,
                        bytes,
                        reason: DropReason::PushedBufferOverflow,
                    });
                    return;
                }
                let incoming = self.incoming.get_mut(slot).unwrap();
                incoming.pushed_buffer_bytes += bytes;
                incoming.pushed_buffer_footprint += footprint;
                self.stats.bytes_copied_staged += bytes as u64;
                self.push_action(Action::Copy {
                    kind: CopyKind::PushToPushedBuffer,
                    peer: src,
                    msg_id: header.msg_id,
                    bytes,
                    least_loaded: false,
                });
            }
        }

        // Record the payload (zero-copy for single-packet messages).
        self.record_payload(slot, header.offset as usize, &packet.payload);

        if !is_matched {
            // Remember the unexpected message so a later receive can find it.
            self.buffer_queue.insert(
                UnexpectedKey {
                    src,
                    msg_id: header.msg_id,
                },
                header.tag,
            );
            return;
        }

        // A pull may still be outstanding if the message was matched before
        // any push carrying `eager_len` arrived (`attach_to_incoming` already
        // issued it for the newly-matched case; this call is a no-op then).
        self.maybe_pull_and_translate(src, header.msg_id, true, 0);

        self.try_complete(src, header.msg_id);
    }

    fn handle_pull_data(&mut self, src: ProcessId, packet: Packet) {
        let header = packet.header;
        let opts = self.config().opts;
        let Some(slot) = self.incoming_slot(src, header.msg_id) else {
            self.push_action(Action::PacketDropped {
                peer: src,
                bytes: packet.payload.len(),
                reason: DropReason::UnknownMessage,
            });
            return;
        };
        let bytes = packet.payload.len();
        self.record_payload(slot, header.offset as usize, &packet.payload);
        let incoming = self.incoming.get(slot).unwrap();
        let msg_id = incoming.msg_id;
        let matched = incoming.matched.is_some();

        if bytes > 0 {
            if matched {
                // Pulled data goes straight to the destination buffer; §4.1
                // allows this copy to run on the least-loaded processor.
                self.stats.bytes_copied_direct += bytes as u64;
                let least_loaded = opts.parallel_pull;
                self.push_action(Action::Copy {
                    kind: CopyKind::PullDirect,
                    peer: src,
                    msg_id,
                    bytes,
                    least_loaded,
                });
                if !opts.zero_buffer {
                    self.stats.bytes_copied_extra += bytes as u64;
                    self.push_action(Action::Copy {
                        kind: CopyKind::StagingExtra,
                        peer: src,
                        msg_id,
                        bytes,
                        least_loaded: false,
                    });
                }
            } else {
                // A pull was requested, so a receive must have been matched;
                // this branch only happens for stray pull data (e.g. a
                // duplicate after completion recreated the state).
                let footprint = bytes + crate::wire::MAX_HEADER_LEN;
                if self.pushed_buffer.try_reserve(footprint) {
                    let incoming = self.incoming.get_mut(slot).unwrap();
                    incoming.pushed_buffer_bytes += bytes;
                    incoming.pushed_buffer_footprint += footprint;
                    self.stats.bytes_copied_staged += bytes as u64;
                    self.push_action(Action::Copy {
                        kind: CopyKind::PushToPushedBuffer,
                        peer: src,
                        msg_id,
                        bytes,
                        least_loaded: false,
                    });
                } else {
                    self.stats.frames_dropped += 1;
                    self.stats.bytes_dropped += bytes as u64;
                    self.push_action(Action::PacketDropped {
                        peer: src,
                        bytes,
                        reason: DropReason::PushedBufferOverflow,
                    });
                    return;
                }
            }
        }
        self.try_complete(src, header.msg_id);
    }

    /// Issues the pull request for the remainder of `msg_id` if one is needed
    /// and has not been sent yet, and (with translation masking) schedules
    /// the deferred destination-buffer translation right after it.
    fn maybe_pull_and_translate(
        &mut self,
        src: ProcessId,
        msg_id: MessageId,
        already_translated: bool,
        capacity: usize,
    ) {
        let opts = self.config().opts;
        let Some(slot) = self.incoming_slot(src, msg_id) else {
            return;
        };
        let incoming = self.incoming.get_mut(slot).unwrap();
        if incoming.matched.is_none() {
            return;
        }
        let total = incoming.total_len;
        let eager = incoming.eager_len;
        let tag = incoming.tag;
        let needs_pull = total > eager && !incoming.pull_requested;
        if needs_pull {
            incoming.pull_requested = true;
        }
        let translate_bytes = if !already_translated && opts.zero_buffer && opts.translation_masking
        {
            capacity.max(total)
        } else {
            0
        };

        if needs_pull {
            // The acknowledgement that doubles as the pull request
            // (arrows 3a/3b in Fig. 1).
            self.stats.pull_requests_sent += 1;
            let header = PacketHeader {
                kind: PacketKind::PullRequest,
                src: self.id(),
                dst: src,
                msg_id,
                tag,
                total_len: total as u32,
                eager_len: eager as u32,
                offset: eager as u32,
                payload_len: (total - eager) as u32,
            };
            let packet =
                Packet::new(header, Bytes::new()).expect("pull request construction cannot fail");
            self.submit_packet(src, packet, InjectMode::Kernel);
        }

        if translate_bytes > 0 {
            // §4.3: the destination translation is scheduled after the
            // network event (the pull request) so its cost is masked by the
            // wire latency of the pulled data.
            self.stats.translations += 1;
            self.stats.bytes_translated += translate_bytes as u64;
            self.push_action(Action::Translate {
                ctx: TranslateCtx::RecvDestination,
                peer: src,
                msg_id,
                bytes: translate_bytes,
            });
        }
    }

    /// Delivers the completed message for `msg_id` if every byte has arrived,
    /// retiring the receive operation and queueing its [`Completion`].
    pub(crate) fn try_complete(&mut self, src: ProcessId, msg_id: MessageId) {
        let Some(slot) = self.incoming_slot(src, msg_id) else {
            return;
        };
        {
            let incoming = self.incoming.get(slot).unwrap();
            if incoming.matched.is_none() || !incoming.is_complete() {
                return;
            }
        }
        let mut incoming = self.incoming_remove(src, slot).unwrap();
        let op = incoming.matched.unwrap();
        if incoming.pushed_buffer_footprint > 0 {
            // Data still accounted against the pushed buffer is released on
            // delivery (it was matched without an intervening drain action,
            // which only happens for messages completed entirely from the
            // pushed buffer).
            self.pushed_buffer.release(incoming.pushed_buffer_footprint);
        }
        self.buffer_queue
            .remove_with_tag(UnexpectedKey { src, msg_id }, incoming.tag);
        let rec = self
            .recv_ops
            .remove(op.slot(), op.generation())
            .expect("completed receive without operation record");
        let total = incoming.total_len;
        let truncated = total > rec.capacity;
        let (data, buf, len) = match std::mem::replace(&mut incoming.body, MsgBody::Empty) {
            MsgBody::Caller(caller_buf) => {
                let len = caller_buf.len();
                (None, Some(caller_buf), len)
            }
            body => {
                incoming.body = body;
                let bytes = self.take_body(&mut incoming);
                if truncated {
                    // Truncating delivery: hand over the prefix that fits.
                    (Some(bytes.slice(..rec.capacity)), None, rec.capacity)
                } else {
                    let len = bytes.len();
                    (Some(bytes), None, len)
                }
            }
        };
        self.stats.recvs_completed += 1;
        let status = if truncated {
            self.stats.recvs_truncated += 1;
            Status::Truncated { message_len: total }
        } else {
            Status::Ok
        };
        self.push_completion(Completion {
            op: OpId::Recv(op),
            peer: src,
            tag: incoming.tag,
            len,
            status,
            data,
            buf,
        });
    }
}
