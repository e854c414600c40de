//! The sans-I/O protocol engine.
//!
//! [`Endpoint`] is the per-process protocol state machine.  Backends call
//! [`Endpoint::post_send`] / [`Endpoint::post_recv`] /
//! [`Endpoint::post_recv_into`] on behalf of the application, feed arriving
//! traffic through [`Endpoint::handle_packet`] (intranode) or
//! [`Endpoint::handle_frame`] (internode, go-back-N framed), fire timers
//! through [`Endpoint::handle_timer`], and drain the resulting [`Action`]s
//! with [`Endpoint::poll_action`].
//!
//! The engine performs **no I/O and reads no clock**: every externally
//! visible effect is an [`Action`].  This is what lets the same protocol code
//! run both inside the discrete-event simulator (`ppmsg-sim`) and over real
//! sockets and shared memory (`ppmsg-host`).
//!
//! Operation **completions** do not travel through the action stream: they
//! land in a per-endpoint completion queue ([`Completion`]), drained in
//! batches with [`Endpoint::poll_completion`] /
//! [`Endpoint::drain_completions_into`].  Actions are the backend's
//! obligations (move these bytes, arm this timer); completions are the
//! application's results (this operation finished, with this status).

// ppmsg-lint: deny(hot_path_alloc) — steady-state engine path; pooled buffers only.

mod receiver;
mod sender;
#[cfg(test)]
mod tests;

use crate::btp::BtpPolicy;
use crate::config::ProtocolConfig;
use crate::index::{Slab, U64Index};
use crate::ops::{Completion, OpTable, RecvBuf, RecvOp, TruncationPolicy};
use crate::queues::{Assembly, BufferQueue, PushedBuffer, ReceiveQueue, SendQueue};
use crate::reliability::{ArqChannel, Frame, GbnEvent};
use crate::telemetry::{self, frame_kind, EventKind, OP_SEND_BIT};
use crate::types::{MessageId, ProcessId, Tag, TimerId};
use crate::wire::Packet;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How a packet is handed to the network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InjectMode {
    /// Copied into the NIC's outgoing buffer directly from user space via the
    /// mapped control registers ("direct thread invocation", §4.3).  No
    /// system call and no prior address translation are required.
    UserSpaceDirect,
    /// Handed to the kernel transmission thread, which requires the source
    /// buffer's zero buffer (physical scatter list) to have been built.
    Kernel,
}

/// Which buffer a [`Action::Translate`] request refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TranslateCtx {
    /// The source buffer of a send operation.
    SendSource,
    /// The destination buffer of a receive operation.
    RecvDestination,
}

/// The kind of data movement described by an [`Action::Copy`].
///
/// The distinction matters because the number of copies — one (zero buffer)
/// versus two (staged through the pushed buffer) — is exactly what the
/// paper's intranode evaluation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopyKind {
    /// Eagerly pushed data copied straight into the destination buffer
    /// (receive already posted): the one-copy path.
    PushDirect,
    /// Eagerly pushed data staged into the pinned pushed buffer because the
    /// receive has not been posted yet.
    PushToPushedBuffer,
    /// Data moved from the pushed buffer into the destination buffer once the
    /// receive is posted — the second copy of the two-copy path.
    DrainPushedBuffer,
    /// Pulled data copied straight into the destination buffer.  Eligible to
    /// run on the least-loaded processor (§4.1) when `least_loaded` is set on
    /// the action.
    PullDirect,
    /// The extra staging copy incurred when the cross-space zero buffer
    /// optimisation is disabled.
    StagingExtra,
}

/// Why an incoming frame or packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// The pushed buffer had no room for the unexpected data.  The sender's
    /// go-back-N logic will retransmit the frame later.
    PushedBufferOverflow,
    /// The packet referenced a message id this endpoint does not know.
    UnknownMessage,
    /// The packet was malformed.
    Malformed,
}

/// An externally visible effect requested by the engine.
#[derive(Debug, Clone)]
pub enum Action {
    /// Build the zero buffer (virtual→physical scatter list) for `bytes`
    /// bytes of a user buffer.  The backend charges the translation cost
    /// here; with translation masking this action is emitted *after* the
    /// network transmissions it would otherwise delay.
    Translate {
        /// Which buffer is being translated.
        ctx: TranslateCtx,
        /// The peer of the operation the buffer belongs to.
        peer: ProcessId,
        /// The message the buffer belongs to.
        msg_id: MessageId,
        /// Number of bytes to translate.
        bytes: usize,
    },
    /// Transmit a protocol packet to an **intranode** peer (through the
    /// kernel's shared queues; no go-back-N framing).
    Transmit {
        /// The destination process (same node).
        dst: ProcessId,
        /// The packet to deliver to the peer's `handle_packet`.
        packet: Packet,
        /// How the packet is injected into the transport.
        inject: InjectMode,
    },
    /// Transmit a go-back-N frame to an **internode** peer.
    TransmitFrame {
        /// The destination process (different node).
        dst: ProcessId,
        /// The frame to put on the wire.
        frame: Frame,
        /// How the frame is injected into the NIC.
        inject: InjectMode,
    },
    /// Account a data copy of `bytes` bytes.  The backend charges memory
    /// system cost here; the engine has already moved the bytes internally.
    Copy {
        /// What kind of copy this is (one-copy vs staged paths).
        kind: CopyKind,
        /// The peer the data came from / goes to.
        peer: ProcessId,
        /// The message involved.
        msg_id: MessageId,
        /// Number of bytes copied.
        bytes: usize,
        /// `true` when §4.1 allows this copy to run on the least-loaded
        /// processor of the node instead of the application's processor.
        least_loaded: bool,
    },
    /// Arm a retransmission timer: call `handle_timer(timer)` after
    /// `delay_us` microseconds unless it is cancelled first.
    SetTimer {
        /// The timer to arm.
        timer: TimerId,
        /// Delay in microseconds.
        delay_us: u64,
    },
    /// Cancel a previously armed timer.
    CancelTimer {
        /// The timer to cancel.
        timer: TimerId,
    },
    /// An incoming frame was dropped before reaching the protocol layer.
    PacketDropped {
        /// The peer that sent the frame.
        peer: ProcessId,
        /// Payload bytes lost (will be recovered by retransmission on
        /// internode channels).
        bytes: usize,
        /// Why the frame was dropped.
        reason: DropReason,
    },
    /// An internode channel exceeded its retry budget and was declared dead.
    ChannelFailed {
        /// The unreachable peer.
        peer: ProcessId,
    },
}

/// Counters maintained by an endpoint, used by the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Send operations posted.
    pub sends_posted: u64,
    /// Receive operations posted.
    pub recvs_posted: u64,
    /// Send operations completed.
    pub sends_completed: u64,
    /// Receive operations completed.
    pub recvs_completed: u64,
    /// Receive operations that completed with an error status (e.g. a
    /// too-small buffer under [`TruncationPolicy::Error`]).
    pub recvs_failed: u64,
    /// Receive operations cancelled before they matched a message.
    pub recvs_cancelled: u64,
    /// Send operations cancelled before their remainder was pulled.
    pub sends_cancelled: u64,
    /// Receive operations that completed truncated
    /// ([`TruncationPolicy::Truncate`]).
    pub recvs_truncated: u64,
    /// Bytes pushed eagerly (first + second pushes).
    pub bytes_pushed: u64,
    /// Bytes transferred in the pull phase.
    pub bytes_pulled: u64,
    /// Bytes copied straight to the destination buffer (one-copy path).
    pub bytes_copied_direct: u64,
    /// Bytes staged through the pushed buffer (two-copy path), counted once
    /// per staging copy.
    pub bytes_copied_staged: u64,
    /// Bytes of extra staging copies caused by disabling the zero buffer.
    pub bytes_copied_extra: u64,
    /// Address translation requests issued.
    pub translations: u64,
    /// Bytes covered by address translation requests.
    pub bytes_translated: u64,
    /// Pull requests sent.
    pub pull_requests_sent: u64,
    /// Pull requests served.
    pub pull_requests_served: u64,
    /// Frames dropped at the pushed-buffer admission check.
    pub frames_dropped: u64,
    /// Bytes dropped at the pushed-buffer admission check.
    pub bytes_dropped: u64,
    /// [`Action::PacketDropped`] events emitted, whatever the
    /// [`DropReason`] — pushed-buffer overflows, unknown-message references,
    /// and malformed traffic alike.  Counted by the engine itself, so every
    /// backend reports it without having to observe the action stream.
    ///
    /// Note: traffic addressed to a process the *router* does not know never
    /// reaches an engine, so it cannot appear here — the loopback and chaos
    /// clusters count it separately in their `unroutable_drops()` accessor.
    pub packets_dropped: u64,
    /// [`Action::ChannelFailed`] events emitted: internode channels that
    /// exhausted their retry budget.  Operations pending against the failed
    /// peer complete with [`Error::ChannelFailed`](crate::Error::ChannelFailed)
    /// at the same moment.  Deliberately induced failures (e.g. a permanent
    /// chaos partition) land here too — a failed channel is a clean outcome,
    /// distinct from both a wedge and an unroutable drop.
    pub channels_failed: u64,
    /// Data frames this endpoint's ARQ channels retransmitted, in either
    /// reliability mode.  Under go-back-N one timeout retransmits the whole
    /// in-flight window, so this grows in window-sized steps; under selective
    /// repeat each increment corresponds to one presumed-lost frame.
    pub retransmits: u64,
    /// Acknowledgement frames received across this endpoint's ARQ channels
    /// (cumulative acks and SACKs alike).
    pub acks_received: u64,
    /// Data frames received whose payload had already been accepted — a
    /// retransmission that crossed an in-flight ack, or a network duplicate.
    /// Summed across this endpoint's ARQ channels.
    pub duplicate_frames: u64,
    /// Retransmissions triggered by an RTO expiry, summed across this
    /// endpoint's ARQ channels (a subset of `retransmits`).
    pub rto_retransmits: u64,
    /// Retransmissions triggered by duplicate-SACK fast recovery, summed
    /// across this endpoint's ARQ channels (a subset of `retransmits`;
    /// always 0 under go-back-N).
    pub fast_retransmits: u64,
    /// Heap-allocation events attributable to the engine's data structures:
    /// arena growth, index rehashes, assembly/scratch pool misses, and
    /// action-queue growth.  After warm-up, a steady-state send/receive loop
    /// must keep this counter constant — the regression test in
    /// `tests/integration.rs` asserts exactly that.
    pub steady_allocs: u64,
    /// Completions silently evicted from the endpoint's backend
    /// [`CompletionQueue`](crate::CompletionQueue) because they were never
    /// claimed and aged past the retention cap.  The engine itself does not
    /// retain completions (this field stays `0` on a bare [`Endpoint`]);
    /// backends merge [`CompletionQueue::evicted`](crate::CompletionQueue::evicted)
    /// in when reporting stats, so a fire-and-forget workload losing results
    /// to the cap is observable instead of silent.
    pub completions_evicted: u64,
}

impl EndpointStats {
    /// Accumulates `other` into `self`, field by field.  A sharded engine
    /// ([`crate::sharded::ShardedEngine`]) reports one merged view over its
    /// shards; the exhaustive destructuring makes adding a counter without
    /// summing it a compile error.
    pub fn merge(&mut self, other: &EndpointStats) {
        let EndpointStats {
            sends_posted,
            recvs_posted,
            sends_completed,
            recvs_completed,
            recvs_failed,
            recvs_cancelled,
            sends_cancelled,
            recvs_truncated,
            bytes_pushed,
            bytes_pulled,
            bytes_copied_direct,
            bytes_copied_staged,
            bytes_copied_extra,
            translations,
            bytes_translated,
            pull_requests_sent,
            pull_requests_served,
            frames_dropped,
            bytes_dropped,
            packets_dropped,
            channels_failed,
            retransmits,
            acks_received,
            duplicate_frames,
            rto_retransmits,
            fast_retransmits,
            steady_allocs,
            completions_evicted,
        } = other;
        self.sends_posted += sends_posted;
        self.recvs_posted += recvs_posted;
        self.sends_completed += sends_completed;
        self.recvs_completed += recvs_completed;
        self.recvs_failed += recvs_failed;
        self.recvs_cancelled += recvs_cancelled;
        self.sends_cancelled += sends_cancelled;
        self.recvs_truncated += recvs_truncated;
        self.bytes_pushed += bytes_pushed;
        self.bytes_pulled += bytes_pulled;
        self.bytes_copied_direct += bytes_copied_direct;
        self.bytes_copied_staged += bytes_copied_staged;
        self.bytes_copied_extra += bytes_copied_extra;
        self.translations += translations;
        self.bytes_translated += bytes_translated;
        self.pull_requests_sent += pull_requests_sent;
        self.pull_requests_served += pull_requests_served;
        self.frames_dropped += frames_dropped;
        self.bytes_dropped += bytes_dropped;
        self.packets_dropped += packets_dropped;
        self.channels_failed += channels_failed;
        self.retransmits += retransmits;
        self.acks_received += acks_received;
        self.duplicate_frames += duplicate_frames;
        self.rto_retransmits += rto_retransmits;
        self.fast_retransmits += fast_retransmits;
        self.steady_allocs += steady_allocs;
        self.completions_evicted += completions_evicted;
    }
}

/// Payload storage of one incoming message.
///
/// Small fully-eager messages — the latency-critical regime the paper tunes
/// BTP for — arrive as a single packet and are delivered as a zero-copy
/// [`Bytes`] slice of that packet ([`MsgBody::Direct`]), touching neither the
/// heap nor the assembly pool.  Only genuinely fragmented messages pay for an
/// assembly buffer.
#[derive(Debug)]
pub(crate) enum MsgBody {
    /// No payload bytes recorded yet (e.g. only the zero-length Push-Zero
    /// announce has arrived).
    Empty,
    /// The whole message arrived in one packet; the payload is shared with
    /// the packet buffer, no copy and no allocation.
    Direct(Bytes),
    /// Multi-fragment reassembly through a pooled [`Assembly`] buffer.
    Assembling(Assembly),
    /// Reassembly directly into the caller-owned buffer of a
    /// [`Endpoint::post_recv_into`] operation: fragments land in the
    /// application's storage and the buffer is handed back in the
    /// completion — the engine never owns the message bytes.
    Caller(RecvBuf),
}

/// Reassembly state of one incoming message.
#[derive(Debug)]
pub(crate) struct IncomingMsg {
    #[allow(dead_code)] // kept for diagnostics and symmetry with the peer list
    pub(crate) src: ProcessId,
    pub(crate) msg_id: MessageId,
    pub(crate) tag: Tag,
    pub(crate) total_len: usize,
    pub(crate) eager_len: usize,
    pub(crate) body: MsgBody,
    /// The receive this message has been matched to, if any.
    pub(crate) matched: Option<RecvOp>,
    /// `true` once the pull request for the remainder has been sent.
    pub(crate) pull_requested: bool,
    /// Payload bytes of this message currently staged in the pushed buffer.
    pub(crate) pushed_buffer_bytes: usize,
    /// Bytes reserved in the pushed buffer for this message, including packet
    /// headers (what actually counts against the buffer's capacity).
    pub(crate) pushed_buffer_footprint: usize,
}

impl IncomingMsg {
    /// `true` once every byte of the message has been received.
    pub(crate) fn is_complete(&self) -> bool {
        match &self.body {
            MsgBody::Direct(_) => true,
            MsgBody::Assembling(a) => a.is_complete(),
            MsgBody::Caller(buf) => buf.is_complete(),
            MsgBody::Empty => self.total_len == 0,
        }
    }
}

/// Per-peer engine state, addressed by the dense index the peer interner
/// assigns on first contact.
#[derive(Debug)]
struct PeerState {
    id: ProcessId,
    /// ARQ channel for internode peers (lazily created; go-back-N or
    /// selective repeat per [`ProtocolConfig::reliability`]).
    channel: Option<ArqChannel>,
    /// Slots (into [`Endpoint::incoming`]) of this peer's in-flight incoming
    /// messages.  A handful at most, so a linear scan beats any index.
    incoming: Vec<u32>,
}

/// Payload bytes of one intranode `PullData` packet.  The pull phase of an
/// intranode transfer is a memory copy through the cross-space zero buffer,
/// and shared memory has no MTU: the pulled remainder moves in pieces this
/// large (each still a zero-copy slice of the sender's buffer), which bounds
/// how long one reception handler — one shard-lock hold on the host fabric —
/// copies before the next packet gets a turn.  Equal to the ceiling
/// [`ProtocolConfig::validate`] puts on `max_payload`, so no packet of
/// either path ever carries more.
pub const INTRANODE_PULL_CHUNK: usize = 64 * 1024;

/// How many scratch vectors / assembly shells the engine keeps pooled.
const SCRATCH_POOL_CAP: usize = 8;

/// Live state of one in-flight receive operation, slab-indexed by its
/// [`RecvOp`] handle.
#[derive(Debug)]
pub(crate) struct RecvRec {
    /// Caller-owned destination buffer of a [`Endpoint::post_recv_into`]
    /// receive; moved into the message body at match time and handed back in
    /// the completion.
    pub(crate) buf: Option<RecvBuf>,
    /// Capacity of the destination buffer in bytes.
    pub(crate) capacity: usize,
    /// What to do when the arriving message exceeds `capacity`.  Consulted
    /// through the matcher's [`PostedReceive`](crate::queues::PostedReceive)
    /// copy on the match path; kept here for diagnostics.
    #[allow(dead_code)]
    pub(crate) policy: TruncationPolicy,
}

/// Trace arguments for a frame event: `(sequence-or-ack-point, frame kind)`.
fn frame_trace_args(frame: &Frame) -> (u32, u32) {
    match frame {
        Frame::Data { seq, .. } => (*seq as u32, frame_kind::DATA),
        Frame::Ack { next_expected } => (*next_expected as u32, frame_kind::ACK),
        Frame::Sack { next_expected, .. } => (*next_expected as u32, frame_kind::SACK),
    }
}

/// The per-process Push-Pull Messaging protocol engine.
///
/// Steady-state hot-path operations (`post_send`, `post_recv`,
/// `post_recv_into`, `handle_packet`, `handle_frame`, completion draining)
/// are allocation-free: message and operation state lives in slab arenas
/// addressed by dense per-peer indices, matching uses `(source,
/// tag)`-bucketed O(1) lookups, and every transient buffer (action queue,
/// completion queue, go-back-N event scratch, assembly buffers) is pooled
/// and reused.  [`EndpointStats::steady_allocs`] counts the allocation
/// events so regressions are observable.
#[derive(Debug)]
pub struct Endpoint {
    id: ProcessId,
    config: ProtocolConfig,
    next_msg_id: u64,
    pub(crate) send_queue: SendQueue,
    pub(crate) recv_queue: ReceiveQueue,
    pub(crate) pushed_buffer: PushedBuffer,
    pub(crate) buffer_queue: BufferQueue,
    /// Arena of in-flight incoming messages; peers hold slot lists.
    pub(crate) incoming: Slab<IncomingMsg>,
    /// Peer interner: `ProcessId::as_u64()` → dense index into `peers`.
    peer_index: U64Index,
    peers: Vec<PeerState>,
    pub(crate) actions: VecDeque<Action>,
    /// Completed operations awaiting [`Endpoint::poll_completion`].
    pub(crate) completions: VecDeque<Completion>,
    /// Generation-checked table of in-flight send operations, each recording
    /// its message id so [`Endpoint::cancel_send`] can find the registered
    /// send without a scan.
    pub(crate) send_ops: OpTable<MessageId>,
    /// Generation-checked table of in-flight receive operations.
    pub(crate) recv_ops: OpTable<RecvRec>,
    pub(crate) stats: EndpointStats,
    /// Pool of reusable assembly buffers for fragmented messages.
    assembly_pool: Vec<Assembly>,
    /// Pool of reusable go-back-N event vectors (nested use during
    /// in-line delivery takes more than one).
    gbn_scratch: Vec<Vec<GbnEvent>>,
    /// Engine-local allocation events (pool misses, queue growth); merged
    /// with the per-structure counters in [`Endpoint::stats`].
    alloc_events: u64,
    /// Test hook: apply
    /// [`GoBackN::sabotage_skip_rearm`](crate::reliability::GoBackN::sabotage_skip_rearm)
    /// to every channel (see [`Endpoint::sabotage_skip_rearm`]).
    sabotage_skip_rearm: bool,
}

impl Endpoint {
    /// Creates an endpoint for process `id` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`ProtocolConfig::validate`] to check first when the configuration
    /// comes from user input.
    pub fn new(id: ProcessId, config: ProtocolConfig) -> Self {
        config
            .validate()
            .expect("invalid protocol configuration passed to Endpoint::new");
        let pushed_buffer = PushedBuffer::new(config.pushed_buffer_capacity);
        Endpoint {
            id,
            config,
            next_msg_id: 0,
            send_queue: SendQueue::new(),
            recv_queue: ReceiveQueue::new(),
            pushed_buffer,
            buffer_queue: BufferQueue::new(),
            incoming: Slab::new(),
            peer_index: U64Index::new(),
            peers: Vec::new(),
            actions: VecDeque::new(),
            completions: VecDeque::new(),
            send_ops: OpTable::new(),
            recv_ops: OpTable::new(),
            stats: EndpointStats::default(),
            assembly_pool: Vec::new(),
            gbn_scratch: Vec::new(),
            alloc_events: 0,
            sabotage_skip_rearm: false,
        }
    }

    /// The process this endpoint belongs to.
    #[inline]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The endpoint's configuration.
    #[inline]
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Replaces the pushed-buffer capacity at run time ("applications can
    /// dynamically change the size of the pushed buffer").
    pub fn resize_pushed_buffer(&mut self, capacity: usize) {
        self.config.pushed_buffer_capacity = capacity;
        self.pushed_buffer.resize(capacity);
    }

    /// A snapshot of this endpoint's statistics.
    pub fn stats(&self) -> EndpointStats {
        let mut stats = self.stats;
        stats.steady_allocs = self.alloc_events
            + self.send_queue.alloc_events()
            + self.recv_queue.alloc_events()
            + self.buffer_queue.alloc_events()
            + self.incoming.alloc_events()
            + self.peer_index.alloc_events()
            + self.send_ops.alloc_events()
            + self.recv_ops.alloc_events()
            + self
                .peers
                .iter()
                .filter_map(|p| p.channel.as_ref())
                .map(|c| c.alloc_events())
                .sum::<u64>();
        for channel in self.peers.iter().filter_map(|p| p.channel.as_ref()) {
            let c = channel.stats();
            stats.retransmits += c.retransmissions;
            stats.acks_received += c.acks_received;
            stats.duplicate_frames += c.duplicates;
            stats.rto_retransmits += c.rto_retransmits;
            stats.fast_retransmits += c.fast_retransmits;
        }
        stats
    }

    /// Statistics of the pushed buffer (occupancy, overflow events).
    #[inline]
    pub fn pushed_buffer_stats(&self) -> crate::queues::PushedBufferStats {
        self.pushed_buffer.stats()
    }

    /// ARQ statistics for the channel to `peer`, if one exists (the
    /// [`GbnStats`](crate::reliability::GbnStats) counters are shared by both
    /// reliability modes).
    pub fn channel_stats(&self, peer: ProcessId) -> Option<crate::reliability::GbnStats> {
        let slot = self.peer_index.get(peer.as_u64())?;
        self.peers[slot as usize]
            .channel
            .as_ref()
            .map(|c| c.stats())
    }

    /// Removes and returns the next pending action, if any.
    #[inline]
    pub fn poll_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// Drains every pending action into a vector (convenience for tests and
    /// simple backends; allocates — backends with a hot loop should use
    /// [`Endpoint::drain_actions_into`] or [`Endpoint::poll_action`]).
    pub fn drain_actions(&mut self) -> Vec<Action> {
        self.actions.drain(..).collect()
    }

    /// Appends every pending action to `out`, reusing its capacity.
    pub fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        out.extend(self.actions.drain(..));
    }

    /// Removes and returns the next pending completion, if any.
    ///
    /// Completions are produced in the order operations finish; draining
    /// them is how the application observes operation results (the action
    /// stream only carries backend obligations).
    #[inline]
    pub fn poll_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Appends every pending completion to `out`, reusing its capacity.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.completions.drain(..));
    }

    /// Number of completions waiting to be drained.
    #[inline]
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// `true` when the endpoint has no pending protocol work: no queued
    /// actions, no registered sends awaiting a pull, no posted receives, no
    /// partially assembled incoming messages and no unacknowledged frames.
    /// Undrained completions do not count — they are results waiting for the
    /// application, not work waiting for the protocol.
    pub fn idle(&self) -> bool {
        self.actions.is_empty()
            && self.send_queue.is_empty()
            && self.recv_queue.is_empty()
            && self.incoming.is_empty()
            && self
                .peers
                .iter()
                .all(|p| p.channel.as_ref().map(|c| c.idle()).unwrap_or(true))
    }

    /// The BTP policy that applies to messages exchanged with `peer`.
    pub fn btp_for(&self, peer: ProcessId) -> BtpPolicy {
        if self.id.same_node(&peer) {
            self.config.intranode_btp
        } else {
            self.config.internode_btp
        }
    }

    /// Handles a retransmission timer previously requested via
    /// [`Action::SetTimer`].
    pub fn handle_timer(&mut self, timer: TimerId) {
        let peer = timer.peer;
        telemetry::event(
            EventKind::TimerFire,
            timer.generation as u32,
            0,
            peer.as_u64(),
        );
        let mut events = self.take_scratch();
        if let Some(slot) = self.peer_index.get(peer.as_u64()) {
            if let Some(channel) = self.peers[slot as usize].channel.as_mut() {
                channel.on_timeout(timer.generation, &mut events);
            }
        }
        self.emit_gbn_outputs(peer, &mut events, InjectMode::Kernel);
        self.put_scratch(events);
    }

    /// Handles a go-back-N frame arriving from an internode peer.
    ///
    /// The pushed-buffer admission check happens *here*, before the frame
    /// reaches the ARQ receiver: a frame that would overflow the pushed
    /// buffer is dropped without acknowledgement, exactly as the paper's
    /// kernel drops packets it has nowhere to put, so the sender's go-back-N
    /// logic retransmits it later.
    pub fn handle_frame(&mut self, src: ProcessId, frame: Frame) {
        let (seq_arg, kind_arg) = frame_trace_args(&frame);
        telemetry::event(EventKind::FrameRx, seq_arg, kind_arg, src.as_u64());
        if let Frame::Data { packet, .. } = &frame {
            if self.would_overflow(src, packet) {
                let bytes = packet.payload.len();
                self.stats.frames_dropped += 1;
                self.stats.bytes_dropped += bytes as u64;
                // Record the rejection against the pushed buffer statistics
                // (the reservation is known to fail).
                let _ = self.pushed_buffer.try_reserve(bytes);
                self.push_action(Action::PacketDropped {
                    peer: src,
                    bytes,
                    reason: DropReason::PushedBufferOverflow,
                });
                return;
            }
        }
        let mut events = self.take_scratch();
        self.channel_mut(src).on_frame(frame, &mut events);
        self.emit_gbn_outputs(src, &mut events, InjectMode::Kernel);
        self.put_scratch(events);
    }

    /// Handles a raw protocol packet arriving from an intranode peer (or from
    /// a backend that provides its own reliable transport).
    pub fn handle_packet(&mut self, src: ProcessId, packet: Packet) {
        self.process_packet(src, packet);
    }

    // ------------------------------------------------------------------
    // Internals shared by the sender and receiver halves.
    // ------------------------------------------------------------------

    pub(crate) fn alloc_msg_id(&mut self) -> MessageId {
        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        id
    }

    pub(crate) fn push_completion(&mut self, completion: Completion) {
        let (slot, send_bit) = match completion.op {
            crate::ops::OpId::Send(op) => (op.slot(), OP_SEND_BIT),
            crate::ops::OpId::Recv(op) => (op.slot(), 0),
        };
        telemetry::event(
            EventKind::OpCompleted,
            slot | send_bit,
            (completion.status != crate::ops::Status::Ok) as u32,
            completion.len as u64,
        );
        if self.completions.len() == self.completions.capacity() {
            self.alloc_events += 1;
        }
        self.completions.push_back(completion);
    }

    /// Interns `peer`, returning its dense index (assigned on first
    /// contact and stable for the endpoint's lifetime).
    fn peer_slot(&mut self, peer: ProcessId) -> u32 {
        if let Some(slot) = self.peer_index.get(peer.as_u64()) {
            return slot;
        }
        let slot = self.peers.len() as u32;
        if self.peers.len() == self.peers.capacity() {
            self.alloc_events += 1;
        }
        self.peers.push(PeerState {
            id: peer,
            channel: None,
            incoming: Vec::new(),
        });
        self.peer_index.insert(peer.as_u64(), slot);
        slot
    }

    pub(crate) fn channel_mut(&mut self, peer: ProcessId) -> &mut ArqChannel {
        let cfg = self.config.gbn;
        let mode = self.config.reliability;
        let sabotage = self.sabotage_skip_rearm;
        let slot = self.peer_slot(peer);
        self.peers[slot as usize].channel.get_or_insert_with(|| {
            let mut channel = ArqChannel::new(mode, cfg);
            if sabotage {
                channel.sabotage_skip_rearm();
            }
            channel
        })
    }

    /// Finds the slot of the in-flight incoming message `(src, msg_id)`, if
    /// any.  Scans the source peer's (short) active list — no tuple hashing.
    pub(crate) fn incoming_slot(&self, src: ProcessId, msg_id: MessageId) -> Option<u32> {
        let peer = self.peer_index.get(src.as_u64())?;
        self.peers[peer as usize]
            .incoming
            .iter()
            .copied()
            .find(|&slot| {
                self.incoming
                    .get(slot)
                    .map(|m| m.msg_id == msg_id)
                    .unwrap_or(false)
            })
    }

    /// Registers a new incoming message, returning its slot.
    pub(crate) fn incoming_insert(&mut self, src: ProcessId, msg: IncomingMsg) -> u32 {
        let peer = self.peer_slot(src);
        let slot = self.incoming.insert(msg);
        let list = &mut self.peers[peer as usize].incoming;
        if list.len() == list.capacity() {
            self.alloc_events += 1;
        }
        list.push(slot);
        slot
    }

    /// Removes an incoming message by slot, unlinking it from its peer's
    /// active list.
    pub(crate) fn incoming_remove(&mut self, src: ProcessId, slot: u32) -> Option<IncomingMsg> {
        let msg = self.incoming.remove(slot)?;
        if let Some(peer) = self.peer_index.get(src.as_u64()) {
            let list = &mut self.peers[peer as usize].incoming;
            if let Some(pos) = list.iter().position(|&s| s == slot) {
                list.swap_remove(pos);
            }
        }
        Some(msg)
    }

    /// Takes the message bytes out of a completed incoming message,
    /// recycling its assembly buffer into the pool.  Caller-buffered bodies
    /// are extracted whole at completion and never reach this path.
    pub(crate) fn take_body(&mut self, msg: &mut IncomingMsg) -> Bytes {
        match std::mem::replace(&mut msg.body, MsgBody::Empty) {
            MsgBody::Direct(bytes) => bytes,
            MsgBody::Assembling(mut assembly) => {
                let bytes = assembly.take_bytes();
                self.release_assembly(assembly);
                bytes
            }
            MsgBody::Caller(_) => unreachable!("caller buffer extracted at completion"),
            MsgBody::Empty => Bytes::new(),
        }
    }

    /// Takes an assembly buffer from the pool (or allocates one on a miss).
    pub(crate) fn acquire_assembly(&mut self, total_len: usize) -> Assembly {
        match self.assembly_pool.pop() {
            Some(mut assembly) => {
                if assembly.reset(total_len) {
                    self.alloc_events += 1;
                }
                assembly
            }
            None => {
                self.alloc_events += 1;
                Assembly::new(total_len)
            }
        }
    }

    fn release_assembly(&mut self, assembly: Assembly) {
        if self.assembly_pool.len() < SCRATCH_POOL_CAP {
            if self.assembly_pool.len() == self.assembly_pool.capacity() {
                self.alloc_events += 1;
            }
            self.assembly_pool.push(assembly);
        }
    }

    fn take_scratch(&mut self) -> Vec<GbnEvent> {
        // A `Vec::new()` miss costs nothing now; its first growth is the
        // allocation, after which the vector lives in the pool.
        self.gbn_scratch.pop().unwrap_or_default()
    }

    fn put_scratch(&mut self, mut events: Vec<GbnEvent>) {
        debug_assert!(events.is_empty(), "scratch returned with pending events");
        events.clear();
        if self.gbn_scratch.len() < SCRATCH_POOL_CAP {
            if self.gbn_scratch.len() == self.gbn_scratch.capacity() {
                self.alloc_events += 1;
            }
            self.gbn_scratch.push(events);
        }
    }

    /// `true` when traffic to `peer` moves through shared memory as bare
    /// packets ([`Action::Transmit`]) rather than ARQ frames.
    pub(crate) fn bypasses_arq(&self, peer: ProcessId) -> bool {
        self.id.same_node(&peer) && self.config.reliable_intranode
    }

    /// Sends a protocol packet towards `dst`, choosing the intranode or
    /// internode path and wrapping in go-back-N frames as needed.
    pub(crate) fn submit_packet(&mut self, dst: ProcessId, packet: Packet, inject: InjectMode) {
        if self.bypasses_arq(dst) {
            self.push_action(Action::Transmit {
                dst,
                packet,
                inject,
            });
        } else {
            let mut events = self.take_scratch();
            self.channel_mut(dst).send(packet, &mut events);
            self.emit_gbn_outputs(dst, &mut events, inject);
            self.put_scratch(events);
        }
    }

    fn emit_gbn_outputs(
        &mut self,
        peer: ProcessId,
        events: &mut Vec<GbnEvent>,
        inject: InjectMode,
    ) {
        for event in events.drain(..) {
            match event {
                GbnEvent::Transmit(frame) => {
                    let (seq_arg, kind_arg) = frame_trace_args(&frame);
                    telemetry::event(EventKind::FrameTx, seq_arg, kind_arg, peer.as_u64());
                    self.push_action(Action::TransmitFrame {
                        dst: peer,
                        frame,
                        inject,
                    })
                }
                GbnEvent::Deliver(packet) => self.process_packet(peer, packet),
                GbnEvent::SetTimer {
                    generation,
                    delay_us,
                } => {
                    telemetry::event(
                        EventKind::TimerArm,
                        generation as u32,
                        delay_us as u32,
                        peer.as_u64(),
                    );
                    self.push_action(Action::SetTimer {
                        timer: TimerId { peer, generation },
                        delay_us,
                    })
                }
                GbnEvent::CancelTimer { generation } => self.push_action(Action::CancelTimer {
                    timer: TimerId { peer, generation },
                }),
                GbnEvent::ChannelFailed => {
                    telemetry::event(
                        EventKind::ChannelFail,
                        self.config.gbn.max_retries,
                        0,
                        peer.as_u64(),
                    );
                    self.push_action(Action::ChannelFailed { peer });
                    self.fail_peer(peer);
                }
            }
        }
    }

    /// Retires every operation pending against `peer` with
    /// [`Error::ChannelFailed`](crate::Error::ChannelFailed): registered
    /// sends awaiting a pull, partially received incoming messages, and
    /// exact-source posted receives naming the peer.  Wildcard receives stay
    /// posted — another peer can still satisfy them.
    ///
    /// Called when the go-back-N channel to `peer` exhausts its retries, so
    /// a dead peer produces clean error completions instead of operations
    /// that silently never finish.
    fn fail_peer(&mut self, peer: ProcessId) {
        use crate::ops::{OpId, Status};
        let error = crate::error::Error::ChannelFailed { peer };

        // Registered sends whose remainder the dead peer will never pull.
        let doomed_sends: Vec<MessageId> = self
            .send_queue
            .iter()
            .filter(|p| p.dst == peer)
            .map(|p| p.msg_id)
            .collect();
        for msg_id in doomed_sends {
            let pending = self
                .send_queue
                .remove(msg_id)
                .expect("doomed send vanished mid-failure");
            self.send_ops
                .remove(pending.op.slot(), pending.op.generation())
                .expect("pending send without live operation record");
            self.push_completion(Completion {
                op: OpId::Send(pending.op),
                peer,
                tag: pending.tag,
                len: 0,
                status: Status::Error(error.clone()),
                data: None,
                buf: None,
            });
        }

        // Partially received incoming messages from the peer: matched ones
        // fail their receive (handing back any caller buffer); unmatched
        // ones are discarded along with their buffer-queue entry and pushed
        // buffer reservation.
        let doomed_incoming: Vec<u32> = self
            .peer_index
            .get(peer.as_u64())
            .map(|slot| self.peers[slot as usize].incoming.clone())
            .unwrap_or_default();
        for slot in doomed_incoming {
            let Some(mut incoming) = self.incoming_remove(peer, slot) else {
                continue;
            };
            if incoming.pushed_buffer_footprint > 0 {
                self.pushed_buffer.release(incoming.pushed_buffer_footprint);
            }
            self.buffer_queue.remove_with_tag(
                crate::queues::UnexpectedKey {
                    src: peer,
                    msg_id: incoming.msg_id,
                },
                incoming.tag,
            );
            let Some(op) = incoming.matched else {
                continue;
            };
            self.recv_ops
                .remove(op.slot(), op.generation())
                .expect("matched receive without operation record");
            let buf = match std::mem::replace(&mut incoming.body, MsgBody::Empty) {
                MsgBody::Caller(caller_buf) => Some(caller_buf),
                MsgBody::Assembling(assembly) => {
                    self.release_assembly(assembly);
                    None
                }
                _ => None,
            };
            self.stats.recvs_failed += 1;
            self.push_completion(Completion {
                op: OpId::Recv(op),
                peer,
                tag: incoming.tag,
                len: 0,
                status: Status::Error(error.clone()),
                data: None,
                buf,
            });
        }

        // Posted receives naming the dead peer exactly can never match now.
        let doomed_recvs: Vec<crate::ops::RecvOp> = self
            .recv_queue
            .iter()
            .filter(|posted| posted.src == peer)
            .map(|posted| posted.op)
            .collect();
        for op in doomed_recvs {
            let posted = self
                .recv_queue
                .cancel(op)
                .expect("doomed receive vanished mid-failure");
            let rec = self
                .recv_ops
                .remove(op.slot(), op.generation())
                .expect("queued receive without operation record");
            self.stats.recvs_failed += 1;
            self.push_completion(Completion {
                op: OpId::Recv(op),
                peer,
                tag: posted.tag,
                len: 0,
                status: Status::Error(error.clone()),
                data: None,
                buf: rec.buf,
            });
        }
    }

    /// Visits every internode ARQ channel with its peer id — the hook
    /// harnesses use to distinguish a cleanly failed channel from a wedged
    /// one (unacknowledged frames, no timer pending, not failed), in either
    /// reliability mode.
    pub fn each_channel(&self, mut f: impl FnMut(ProcessId, &ArqChannel)) {
        for peer in &self.peers {
            if let Some(channel) = &peer.channel {
                f(peer.id, channel);
            }
        }
    }

    /// Applies the chaos harness's injected retransmission bug
    /// ([`GoBackN::sabotage_skip_rearm`](crate::reliability::GoBackN::sabotage_skip_rearm))
    /// to every current and future channel of this endpoint.  Never call
    /// outside tests.
    #[doc(hidden)]
    pub fn sabotage_skip_rearm(&mut self) {
        self.sabotage_skip_rearm = true;
        for peer in &mut self.peers {
            if let Some(channel) = peer.channel.as_mut() {
                channel.sabotage_skip_rearm();
            }
        }
    }

    /// `true` if accepting `packet` right now would require pushed-buffer
    /// space that is not available.
    fn would_overflow(&self, src: ProcessId, packet: &Packet) -> bool {
        use crate::wire::PacketKind;
        if packet.payload.is_empty() {
            return false;
        }
        match packet.header.kind {
            PacketKind::Push(_) | PacketKind::Control => {}
            // Pull data only flows after the receive was posted, so it is
            // always copied directly to the destination buffer.
            PacketKind::PullData | PacketKind::PullRequest => return false,
        }
        if let Some(slot) = self.incoming_slot(src, packet.header.msg_id) {
            if self
                .incoming
                .get(slot)
                .map(|m| m.matched.is_some())
                .unwrap_or(false)
            {
                return false;
            }
        } else if self.recv_queue.peek_match(src, packet.header.tag).is_some() {
            return false;
        }
        // The kernel stores the whole packet (header included) in the pushed
        // buffer, so the footprint is payload plus header.  A selective-
        // repeat receiver may also be holding out-of-order frames that were
        // admitted earlier but will only claim their pushed-buffer space when
        // the hole fills; count them now so that deferred drain can never
        // oversubscribe the buffer.
        let ring_bytes = self
            .peer_index
            .get(src.as_u64())
            .and_then(|slot| self.peers[slot as usize].channel.as_ref())
            .map(|c| c.buffered_bytes())
            .unwrap_or(0);
        packet.payload.len() + crate::wire::MAX_HEADER_LEN + ring_bytes > self.pushed_buffer.free()
    }

    pub(crate) fn push_action(&mut self, action: Action) {
        match &action {
            Action::PacketDropped { .. } => self.stats.packets_dropped += 1,
            Action::ChannelFailed { .. } => self.stats.channels_failed += 1,
            _ => {}
        }
        if self.actions.len() == self.actions.capacity() {
            self.alloc_events += 1;
        }
        self.actions.push_back(action);
    }
}
