//! Peer-sharded engine: independent peers progress under independent locks.
//!
//! A single [`Endpoint`] behind one mutex serializes *every* peer's traffic,
//! even though the protocol state of unrelated peers never interacts: the
//! send queue, receive matching, pushed buffer, and ARQ channel of peer A
//! are disjoint from peer B's.  [`ShardedEngine`] exploits that by running
//! `n` complete engine shards (each a full [`Endpoint`] with the same
//! process id) and routing every peer-directed interaction — posting,
//! packet/frame delivery, timer fires — to the shard that owns the peer.
//! Two threads driving traffic for different peers contend only when their
//! peers hash to the same shard.
//!
//! ## Shard assignment
//!
//! Peers are assigned round-robin in **first-contact order** through a dense
//! [`U64Index`] interner — the same structure the engine itself uses for its
//! peer table — so `k` active peers spread across `min(k, n)` shards
//! regardless of how their raw ids cluster.  Assignment is sticky for the
//! engine's lifetime: all state for a peer lives in exactly one shard.
//!
//! ## Handle remapping
//!
//! Each shard numbers its operation slots independently, so shard-local
//! handles would collide.  The sharded engine interleaves them:
//! `global_slot = local_slot * n + shard`.  Handles returned to callers and
//! the `op` fields of drained [`Completion`]s are globalized; incoming
//! handles (cancellation, completion claims) localize with the inverse map.
//! With `n = 1` the map is the identity, so an unsharded configuration has
//! byte-identical handle values to a bare [`Endpoint`].
//!
//! ## What does not shard
//!
//! An [`ANY_SOURCE`] receive could match traffic landing in *any* shard;
//! rather than serialize all shards to honor one wildcard, posting it on a
//! multi-shard engine returns [`Error::ShardedWildcard`].  `ANY_TAG` with a
//! concrete source is unaffected (tag wildcards stay within the source's
//! shard).

// ppmsg-lint: deny(hot_path_alloc) — steady-state engine path; pooled buffers only.

use crate::engine::{Action, Endpoint, EndpointStats};
use crate::error::{Error, Result};
use crate::index::U64Index;
use crate::ops::{Completion, OpId, RecvBuf, RecvOp, SendOp, TruncationPolicy};
use crate::reliability::Frame;
use crate::telemetry::{self, lock_ctx, Counter, EventKind, HistogramSnapshot, LogHistogram};
use crate::types::{ProcessId, Tag, TimerId, ANY_SOURCE};
use crate::wire::Packet;
use crate::ProtocolConfig;
use bytes::Bytes;
use ppmsg_check::sync::Mutex;
use std::sync::RwLock;

/// One engine-lock hold in this many is timed (two monotonic clock reads)
/// and fed to the shard's hold-time histogram; the rest pay only the
/// sampling tick.  Holds are short and numerous, so 1-in-64 converges fast
/// without taxing the hot path.
const LOCK_SAMPLE: u64 = 64;

/// Per-shard telemetry: an interaction counter doubling as the sampling
/// ticket, and the sampled lock-hold distribution.  Bumped while the shard
/// lock is held, so the counter never contends.
#[derive(Debug, Default)]
struct ShardTelemetry {
    calls: Counter,
    hold_ns: LogHistogram,
}

/// Lockdep classes for the shard locks, one per shard index so an inverted
/// cross-shard acquisition names both shards in the report.  Engines with
/// more shards than classes share the last class; same-class nesting is a
/// lockdep violation either way, which is exactly the invariant we want
/// (never hold two shard locks at once).
const SHARD_CLASSES: [&str; 8] = [
    "core.shard[0]",
    "core.shard[1]",
    "core.shard[2]",
    "core.shard[3]",
    "core.shard[4]",
    "core.shard[5]",
    "core.shard[6]",
    "core.shard[7]",
];

fn shard_class(index: usize) -> &'static str {
    SHARD_CLASSES[index.min(SHARD_CLASSES.len() - 1)]
}

/// Scratch buffers one sharded-engine interaction drains into: the actions
/// the backend must relay and the completions to publish (op handles already
/// globalized), plus the shard the interaction ran on — the producer index
/// for a multi-producer publication path
/// ([`CompletionMailbox::post`](crate::ops::CompletionMailbox::post)).
///
/// Reuse one batch across calls to keep the steady path allocation-free.
#[derive(Debug, Default)]
pub struct EngineBatch {
    /// Actions drained from the shard (transmissions, timers, copies).
    pub actions: Vec<Action>,
    /// Completions drained from the shard, handles globalized.
    pub comps: Vec<Completion>,
    /// Shard index the last interaction ran on.
    pub shard: usize,
}

impl EngineBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Round-robin peer→shard assignment, interned on first contact.
#[derive(Debug)]
struct ShardAssign {
    index: U64Index,
    next: u32,
}

/// A peer-sharded protocol engine: `n` [`Endpoint`] shards behind
/// independent locks, one owning each peer.  See the [module
/// docs](self) for the sharding model.
#[derive(Debug)]
pub struct ShardedEngine {
    id: ProcessId,
    shards: Box<[Mutex<Endpoint>]>,
    assign: RwLock<ShardAssign>,
    shard_telemetry: Box<[ShardTelemetry]>,
}

impl ShardedEngine {
    /// Builds `shards` engine shards for process `id`, each configured with
    /// `config`.  `shards` is clamped to at least 1.  Note that per-shard
    /// resources (pushed buffer, packet pools) are replicated per shard.
    pub fn new(id: ProcessId, config: ProtocolConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let engines = (0..shards)
            .map(|i| Mutex::new(shard_class(i), Endpoint::new(id, config.clone())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let shard_telemetry = (0..shards)
            .map(|_| ShardTelemetry::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedEngine {
            id,
            shards: engines,
            assign: RwLock::new(ShardAssign {
                index: U64Index::new(),
                next: 0,
            }),
            shard_telemetry,
        }
    }

    /// This engine's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `peer`, interning a round-robin assignment on first
    /// contact.  The read path is a shared-lock probe of the dense interner;
    /// only a peer's very first appearance takes the write lock.
    pub fn shard_of(&self, peer: ProcessId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let key = peer.as_u64();
        if let Ok(assign) = self.assign.read() {
            if let Some(shard) = assign.index.get(key) {
                return shard as usize;
            }
        }
        let mut assign = self
            .assign
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(shard) = assign.index.get(key) {
            return shard as usize;
        }
        let shard = assign.next % self.shards.len() as u32;
        assign.next = assign.next.wrapping_add(1);
        assign.index.insert(key, shard);
        shard as usize
    }

    /// The shard a send handle's operation lives in.
    pub fn send_shard(&self, op: SendOp) -> usize {
        op.slot() as usize % self.shards.len()
    }

    /// The shard a receive handle's operation lives in.
    pub fn recv_shard(&self, op: RecvOp) -> usize {
        op.slot() as usize % self.shards.len()
    }

    fn globalize_send(&self, op: SendOp, shard: usize) -> SendOp {
        let n = self.shards.len() as u32;
        SendOp::from_raw(op.slot() * n + shard as u32, op.generation())
    }

    fn globalize_recv(&self, op: RecvOp, shard: usize) -> RecvOp {
        let n = self.shards.len() as u32;
        RecvOp::from_raw(op.slot() * n + shard as u32, op.generation())
    }

    fn localize_send(&self, op: SendOp) -> SendOp {
        SendOp::from_raw(op.slot() / self.shards.len() as u32, op.generation())
    }

    fn localize_recv(&self, op: RecvOp) -> RecvOp {
        RecvOp::from_raw(op.slot() / self.shards.len() as u32, op.generation())
    }

    fn globalize_op(&self, op: OpId, shard: usize) -> OpId {
        match op {
            OpId::Send(s) => OpId::Send(self.globalize_send(s, shard)),
            OpId::Recv(r) => OpId::Recv(self.globalize_recv(r, shard)),
        }
    }

    /// Runs `f` on shard `shard`, draining the actions and completions the
    /// interaction produced into `out` (completion handles globalized,
    /// `out.shard` recorded).  This is the building block every
    /// peer-directed method uses; backends needing raw engine access (e.g.
    /// idle checks inside a poll loop) can call it directly.
    pub fn run_on_shard<R>(
        &self,
        shard: usize,
        out: &mut EngineBatch,
        f: impl FnOnce(&mut Endpoint) -> R,
    ) -> R {
        out.shard = shard;
        let first_new = out.comps.len();
        let result = {
            let mut engine = self.shards[shard].lock();
            // Sampled hold-time measurement: the ticket is taken under the
            // lock, so the counter never contends; 63 of 64 holds pay only
            // the tick.
            let shard_tel = &self.shard_telemetry[shard];
            let sampled = shard_tel.calls.tick().is_multiple_of(LOCK_SAMPLE);
            let t0 = if sampled {
                telemetry::clock::mono_ns()
            } else {
                0
            };
            let result = f(&mut engine);
            engine.drain_actions_into(&mut out.actions);
            engine.drain_completions_into(&mut out.comps);
            if sampled {
                let held = telemetry::clock::mono_ns().saturating_sub(t0);
                shard_tel.hold_ns.record(held);
                telemetry::event(EventKind::EngineLock, lock_ctx::SHARD, shard as u32, held);
            }
            result
        };
        if self.shards.len() > 1 {
            for completion in &mut out.comps[first_new..] {
                completion.op = self.globalize_op(completion.op, shard);
            }
        }
        result
    }

    /// Runs `f` on `peer`'s shard; see [`ShardedEngine::run_on_shard`].
    pub fn run_for_peer<R>(
        &self,
        peer: ProcessId,
        out: &mut EngineBatch,
        f: impl FnOnce(&mut Endpoint) -> R,
    ) -> R {
        self.run_on_shard(self.shard_of(peer), out, f)
    }

    /// Posts a send to `dst` on its shard; see [`Endpoint::post_send`].
    pub fn post_send(
        &self,
        dst: ProcessId,
        tag: Tag,
        data: Bytes,
        out: &mut EngineBatch,
    ) -> Result<SendOp> {
        let shard = self.shard_of(dst);
        self.run_on_shard(shard, out, |e| e.post_send(dst, tag, data))
            .map(|op| self.globalize_send(op, shard))
    }

    /// Posts a vectored send to `dst` on its shard; see
    /// [`Endpoint::post_send_vectored`].
    pub fn post_send_vectored(
        &self,
        dst: ProcessId,
        tag: Tag,
        segments: &[Bytes],
        out: &mut EngineBatch,
    ) -> Result<SendOp> {
        let shard = self.shard_of(dst);
        self.run_on_shard(shard, out, |e| e.post_send_vectored(dst, tag, segments))
            .map(|op| self.globalize_send(op, shard))
    }

    /// Posts an engine-buffered receive on `src`'s shard; see
    /// [`Endpoint::post_recv_with`].  [`ANY_SOURCE`] requires a single-shard
    /// engine ([`Error::ShardedWildcard`] otherwise); `ANY_TAG` with a
    /// concrete source is fine.
    pub fn post_recv_with(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
        out: &mut EngineBatch,
    ) -> Result<RecvOp> {
        let shard = self.wildcard_shard(src)?;
        self.run_on_shard(shard, out, |e| e.post_recv_with(src, tag, capacity, policy))
            .map(|op| self.globalize_recv(op, shard))
    }

    /// Posts a caller-buffered receive on `src`'s shard; see
    /// [`Endpoint::post_recv_into`] and the wildcard caveat on
    /// [`ShardedEngine::post_recv_with`].
    pub fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
        out: &mut EngineBatch,
    ) -> Result<RecvOp> {
        let shard = self.wildcard_shard(src)?;
        self.run_on_shard(shard, out, |e| e.post_recv_into(src, tag, buf, policy))
            .map(|op| self.globalize_recv(op, shard))
    }

    fn wildcard_shard(&self, src: ProcessId) -> Result<usize> {
        if src == ANY_SOURCE {
            if self.shards.len() > 1 {
                return Err(Error::ShardedWildcard {
                    shards: self.shards.len(),
                });
            }
            return Ok(0);
        }
        Ok(self.shard_of(src))
    }

    /// Cancels a still-unmatched receive; see [`Endpoint::cancel`].
    pub fn cancel_recv(&self, op: RecvOp, out: &mut EngineBatch) -> bool {
        let shard = self.recv_shard(op);
        let local = self.localize_recv(op);
        self.run_on_shard(shard, out, |e| e.cancel(local))
    }

    /// Cancels an unpulled send; see [`Endpoint::cancel_send`].
    pub fn cancel_send(&self, op: SendOp, out: &mut EngineBatch) -> bool {
        let shard = self.send_shard(op);
        let local = self.localize_send(op);
        self.run_on_shard(shard, out, |e| e.cancel_send(local))
    }

    /// Delivers a packet from `src` to its shard; see
    /// [`Endpoint::handle_packet`].
    pub fn handle_packet(&self, src: ProcessId, packet: Packet, out: &mut EngineBatch) {
        self.run_for_peer(src, out, |e| e.handle_packet(src, packet));
    }

    /// Delivers an ARQ frame from `src` to its shard; see
    /// [`Endpoint::handle_frame`].
    pub fn handle_frame(&self, src: ProcessId, frame: Frame, out: &mut EngineBatch) {
        self.run_for_peer(src, out, |e| e.handle_frame(src, frame));
    }

    /// Fires a timer on its peer's shard; see [`Endpoint::handle_timer`].
    /// Timer ids are peer-keyed, so a timer armed by a shard always fires
    /// back into the same shard.
    pub fn handle_timer(&self, timer: TimerId, out: &mut EngineBatch) {
        self.run_for_peer(timer.peer, out, |e| e.handle_timer(timer));
    }

    /// Merged statistics over every shard (see [`EndpointStats::merge`]).
    /// `completions_evicted` stays 0 here — backends merge their completion
    /// queue's counter in, exactly as with a bare engine.
    pub fn stats(&self) -> EndpointStats {
        let mut total = EndpointStats::default();
        for shard in self.shards.iter() {
            total.merge(&shard.lock().stats());
        }
        total
    }

    /// `true` when every shard is idle (see [`Endpoint::idle`]).
    pub fn idle(&self) -> bool {
        self.shards.iter().all(|shard| shard.lock().idle())
    }

    /// Merged distribution of **sampled** engine-lock hold times across all
    /// shards, in nanoseconds (1 hold in [`LOCK_SAMPLE`](self) is timed).
    /// Mergeable with other snapshots like
    /// [`EndpointStats::merge`](EndpointStats::merge).
    pub fn lock_hold_stats(&self) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for tel in self.shard_telemetry.iter() {
            total.merge(&tel.hold_ns.snapshot());
        }
        total
    }

    /// ARQ statistics of the channel to `peer`, if one exists; see
    /// [`Endpoint::channel_stats`].
    pub fn channel_stats(&self, peer: ProcessId) -> Option<crate::reliability::GbnStats> {
        self.shards[self.shard_of(peer)].lock().channel_stats(peer)
    }

    /// Visits every ARQ channel across all shards; see
    /// [`Endpoint::each_channel`].
    pub fn each_channel(&self, mut f: impl FnMut(ProcessId, &crate::reliability::ArqChannel)) {
        for shard in self.shards.iter() {
            shard.lock().each_channel(&mut f);
        }
    }

    /// Resizes every shard's pushed buffer to `capacity`; see
    /// [`Endpoint::resize_pushed_buffer`].  Capacity is per shard.
    pub fn resize_pushed_buffer(&self, capacity: usize) {
        for shard in self.shards.iter() {
            shard.lock().resize_pushed_buffer(capacity);
        }
    }

    /// Test-only hook: acquires two shard locks nested in the given order.
    /// Exists so the lockdep self-tests can prove the cycle detector has
    /// teeth against the *production* shard classes — nothing in the real
    /// engine ever holds two shard locks at once.
    #[doc(hidden)]
    pub fn __lockdep_lock_pair(&self, first: usize, second: usize) {
        let ga = self.shards[first].lock();
        let _gb = self.shards[second].lock();
        drop(ga);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ANY_TAG;
    use crate::ProtocolMode;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::paper_intranode().with_mode(ProtocolMode::PushPull)
    }

    fn pump(
        a: &ShardedEngine,
        b: &ShardedEngine,
        ba: &mut EngineBatch,
        bb: &mut EngineBatch,
        comps: &mut Vec<Completion>,
    ) {
        // Relay packets between two sharded engines until both are idle,
        // accumulating every completion either side produces.  `ba` only
        // ever holds traffic emitted by `a`, `bb` by `b`, so attribution of
        // relayed packets stays correct.
        loop {
            let acts_a: Vec<Action> = ba.actions.drain(..).collect();
            let acts_b: Vec<Action> = bb.actions.drain(..).collect();
            let mut progressed = false;
            for action in acts_a {
                if let Action::Transmit { packet, .. } = action {
                    progressed = true;
                    b.handle_packet(a.id(), packet, bb);
                }
            }
            for action in acts_b {
                if let Action::Transmit { packet, .. } = action {
                    progressed = true;
                    a.handle_packet(b.id(), packet, ba);
                }
            }
            comps.append(&mut ba.comps);
            comps.append(&mut bb.comps);
            if !progressed && ba.actions.is_empty() && bb.actions.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn round_robin_assignment_spreads_peers() {
        let e = ShardedEngine::new(ProcessId::new(0, 0), cfg(), 4);
        let shards: Vec<usize> = (1..9).map(|r| e.shard_of(ProcessId::new(0, r))).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Sticky: re-query returns the same assignment.
        assert_eq!(e.shard_of(ProcessId::new(0, 1)), 0);
    }

    #[test]
    fn handle_remap_is_identity_with_one_shard() {
        let e = ShardedEngine::new(ProcessId::new(0, 0), cfg(), 1);
        let op = SendOp::from_raw(7, 3);
        assert_eq!(e.globalize_send(op, 0), op);
        assert_eq!(e.localize_send(op), op);
    }

    #[test]
    fn handle_remap_round_trips() {
        let e = ShardedEngine::new(ProcessId::new(0, 0), cfg(), 4);
        for slot in 0..16u32 {
            for shard in 0..4usize {
                let local = RecvOp::from_raw(slot, 9);
                let global = e.globalize_recv(local, shard);
                assert_eq!(e.recv_shard(global), shard);
                assert_eq!(e.localize_recv(global), local);
            }
        }
    }

    #[test]
    fn wildcard_rejected_on_multi_shard() {
        let e = ShardedEngine::new(ProcessId::new(0, 0), cfg(), 2);
        let mut out = EngineBatch::new();
        let err = e
            .post_recv_with(ANY_SOURCE, ANY_TAG, 64, TruncationPolicy::Error, &mut out)
            .unwrap_err();
        assert_eq!(err, Error::ShardedWildcard { shards: 2 });
        // Tag wildcard with a concrete source is fine.
        assert!(e
            .post_recv_with(
                ProcessId::new(0, 1),
                ANY_TAG,
                64,
                TruncationPolicy::Error,
                &mut out
            )
            .is_ok());
    }

    #[test]
    fn sharded_transfer_and_merged_stats() {
        // Two sharded engines exchange a message; completions carry
        // globalized handles that localize back to the right shard.
        let a = ShardedEngine::new(ProcessId::new(0, 0), cfg(), 2);
        let b = ShardedEngine::new(ProcessId::new(0, 1), cfg(), 2);
        let mut ba = EngineBatch::new();
        let mut bb = EngineBatch::new();
        let mut comps: Vec<Completion> = Vec::new();
        let data = Bytes::from(vec![0xA5u8; 2048]);
        let recv = b
            .post_recv_with(a.id(), Tag(3), 2048, TruncationPolicy::Error, &mut bb)
            .unwrap();
        let send = a.post_send(b.id(), Tag(3), data.clone(), &mut ba).unwrap();
        pump(&a, &b, &mut ba, &mut bb, &mut comps);
        comps.append(&mut ba.comps);
        comps.append(&mut bb.comps);
        let got_send = comps.iter().any(|c| c.op == OpId::Send(send));
        let got_recv = comps
            .iter()
            .any(|c| c.op == OpId::Recv(recv) && c.data.as_deref() == Some(&data[..]));
        assert!(got_send, "send completion with globalized handle");
        assert!(got_recv, "recv completion with globalized handle and data");
        assert_eq!(a.stats().sends_completed, 1);
        assert_eq!(b.stats().recvs_completed, 1);
        assert!(a.idle() && b.idle());
    }
}
