//! Intranode fabric: threads within one OS process exchanging messages
//! through a shared in-memory "kernel agent", driving the same protocol
//! engine the simulator uses.
//!
//! Every member hosts a peer-sharded engine ([`ShardedEngine`]) behind
//! per-shard locks and publishes completions through a
//! [`CompletionMailbox`] with one producer per shard: threads exchanging
//! traffic with *different* peers of one endpoint run under different shard
//! locks, and a multi-shard publication with no parked waiter never touches
//! the shared completion lock at all.  The default is one shard per
//! endpoint, whose mailbox is one locked queue; opt in to more with
//! [`EndpointConfig::shards`](ppmsg_core::EndpointConfig::shards) or
//! [`HostCluster::add_endpoint_sharded`].

use bytes::Bytes;
use ppmsg_check::sync::Mutex;
use ppmsg_core::sharded::{EngineBatch, ShardedEngine};
use ppmsg_core::wire::Packet;
use ppmsg_core::{
    Action, CompletionMailbox, CompletionQueue, EndpointConfig, EndpointStats, ProcessId,
    ProtocolConfig, RawTransport, RecvBuf, RecvOp, Result, SendOp, Tag, TruncationPolicy,
};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

struct Member {
    /// The peer-sharded protocol engine: traffic for independent peers
    /// progresses under independent shard locks.
    engine: ShardedEngine,
    /// Completions published per shard through the mailbox; claims,
    /// polls, and waker registrations (async futures and the facade's
    /// blocking `wait` alike) go through its queue.
    done: CompletionMailbox,
}

impl Member {
    /// Publishes a drained batch (completions + shard attribution), waking
    /// every waiter registered for one of them.  Wakers are invoked after
    /// the mailbox's queue lock is released: a waker is arbitrary executor
    /// code and may poll (and so re-enter this endpoint) inline.
    fn publish(&self, batch: &mut EngineBatch) {
        self.done.post(batch.shard, &mut batch.comps);
    }
}

/// What one interaction with the fabric drains into: the engine batch and
/// the routing pass's queue of `(src, dst, packet)` hops.  Both are empty
/// between interactions; only their capacity is kept.
#[derive(Default)]
struct Scratch {
    batch: EngineBatch,
    work: VecDeque<(ProcessId, ProcessId, Packet)>,
}

/// Scratches a thread keeps between interactions: one in the common case,
/// more only while wakers re-enter the fabric (see [`Scratch::with`]).
const SCRATCH_POOL_CAP: usize = 4;

thread_local! {
    /// This thread's idle scratches.  A pool, not a single slot: `publish`
    /// runs wakers, and a waker may post on this very thread while the
    /// outer interaction still has its scratch checked out.
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

impl Scratch {
    /// Runs `f` with a scratch checked out of this thread's pool (a fresh
    /// one on a miss, or during thread teardown) and returns it afterwards,
    /// so a steady post → route → publish loop never allocates.  The pool
    /// is not borrowed while `f` runs: re-entrant calls check out their own.
    fn with<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut scratch = SCRATCH_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        let result = f(&mut scratch);
        debug_assert!(
            scratch.work.is_empty()
                && scratch.batch.actions.is_empty()
                && scratch.batch.comps.is_empty()
        );
        let _ = SCRATCH_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(scratch);
            }
        });
        result
    }
}

/// The shared state of one intranode fabric (one simulated "SMP node" worth
/// of processes living in this OS process).
struct Fabric {
    members: Mutex<Members>,
}

/// The fabric's membership table.
#[derive(Default)]
struct Members {
    joined: HashMap<u64, Arc<Member>>,
    /// Packets addressed to a rank of this node that has not joined yet, in
    /// arrival order.  As in the paper's shared-memory model, where a
    /// process's queues exist from node start, they are held for the rank
    /// and handed to it when it joins ([`Fabric::join`]).
    parked: HashMap<u64, Vec<(ProcessId, Packet)>>,
}

impl Fabric {
    /// Resolves `dst` for a packet from `src`, handing the packet back with
    /// the member — or, when `dst` has not joined, parking the packet for it
    /// under the same lock (so a concurrent join cannot slip between the
    /// miss and the park) and returning `None`.
    fn member_or_park(
        &self,
        src: ProcessId,
        dst: ProcessId,
        packet: Packet,
    ) -> Option<(Arc<Member>, Packet)> {
        #[cfg(test)]
        tests::MEMBER_LOOKUPS.with(|n| n.set(n.get() + 1));
        let mut members = self.members.lock();
        if let Some(member) = members.joined.get(&dst.as_u64()) {
            return Some((member.clone(), packet));
        }
        members
            .parked
            .entry(dst.as_u64())
            .or_default()
            .push((src, packet));
        None
    }

    /// Registers `member`, first delivering — in arrival order — every
    /// packet parked for its rank.  The member becomes visible to other
    /// routers only once nothing is parked for it, so no packet overtakes
    /// an earlier parked one.
    ///
    /// # Panics
    ///
    /// Panics if the rank already joined.
    fn join(&self, member: &Arc<Member>) {
        let id = member.engine.id();
        loop {
            let parked = {
                let mut members = self.members.lock();
                assert!(
                    !members.joined.contains_key(&id.as_u64()),
                    "endpoint {id} added twice"
                );
                match members.parked.remove(&id.as_u64()) {
                    Some(parked) => parked,
                    None => {
                        members.joined.insert(id.as_u64(), member.clone());
                        return;
                    }
                }
            };
            // Routing runs outside the members lock: replies it produces
            // look their destination up.
            Scratch::with(|scratch| {
                let hops = parked.into_iter().map(|(src, packet)| (src, id, packet));
                scratch.work.extend(hops);
                self.route(member, scratch);
            });
        }
    }

    /// Queues a member's outgoing packets; cost-model hints
    /// (translate/copy) and reliability plumbing have no user-space
    /// equivalent and are dropped.  Drains `actions`, leaving its capacity
    /// for reuse.
    fn queue_actions(
        src: ProcessId,
        actions: &mut Vec<Action>,
        work: &mut VecDeque<(ProcessId, ProcessId, Packet)>,
    ) {
        for action in actions.drain(..) {
            match action {
                Action::Transmit { dst, packet, .. } => {
                    work.push_back((src, dst, packet));
                }
                Action::TransmitFrame { .. } => {
                    unreachable!("intranode fabric never uses go-back-N frames")
                }
                Action::Translate { .. }
                | Action::Copy { .. }
                | Action::SetTimer { .. }
                | Action::CancelTimer { .. }
                | Action::PacketDropped { .. }
                | Action::ChannelFailed { .. } => {}
            }
        }
    }

    /// Routes the packets queued in `scratch.work` between members until no
    /// more traffic is generated.  This is the "kernel agent": it may run on
    /// any thread that produced traffic (the paper runs it on the
    /// least-loaded processor; here the OS scheduler decides).  Each hop
    /// locks only the shard owning the packet's source, so routers carrying
    /// different peers' traffic into one busy endpoint run concurrently —
    /// and none of them meets on the fabric-wide members lock: engines only
    /// ever answer the process that addressed them, so a pass bounces
    /// between `origin` (whose member the caller already holds) and one
    /// other party, looked up once and remembered while the destination
    /// does not change.  A packet for a rank that has not joined yet is
    /// parked for it ([`Fabric::member_or_park`]).
    fn route(&self, origin: &Member, scratch: &mut Scratch) {
        let Scratch { batch, work } = scratch;
        let origin_id = origin.engine.id();
        let mut other: Option<Arc<Member>> = None;
        while let Some((src, dst, mut packet)) = work.pop_front() {
            let member = if dst == origin_id {
                origin
            } else {
                if other.as_ref().map(|m| m.engine.id()) != Some(dst) {
                    let Some((member, hop)) = self.member_or_park(src, dst, packet) else {
                        continue;
                    };
                    other = Some(member);
                    packet = hop;
                }
                other.as_deref().expect("resolved above")
            };
            member.engine.handle_packet(src, packet, batch);
            member.publish(batch);
            Self::queue_actions(dst, &mut batch.actions, work);
        }
    }
}

/// A collection of intranode endpoints sharing one in-memory fabric.
#[derive(Clone)]
pub struct HostCluster {
    fabric: Arc<Fabric>,
    node: u32,
    protocol: ProtocolConfig,
}

impl HostCluster {
    /// Creates an empty intranode fabric for node `node`, with every endpoint
    /// using `protocol`.
    pub fn new(node: u32, protocol: ProtocolConfig) -> Self {
        HostCluster {
            fabric: Arc::new(Fabric {
                members: Mutex::new("host.fabric.members", Members::default()),
            }),
            node,
            protocol,
        }
    }

    /// Adds a process to the fabric and returns its endpoint handle.
    /// Packets sent to this rank before it joined are delivered to it, in
    /// order, before this returns.
    ///
    /// # Panics
    ///
    /// Panics if the local rank was already added.
    pub fn add_endpoint(&self, local_rank: u32) -> HostEndpoint {
        self.add_endpoint_with(local_rank, &EndpointConfig::new())
    }

    /// Adds a process whose engine state is partitioned across `shards`
    /// peer-keyed shards (see
    /// [`ShardedEngine`](ppmsg_core::sharded::ShardedEngine)): threads
    /// driving traffic with different peers of this endpoint stop contending
    /// on one engine lock.  Note that multi-shard endpoints reject
    /// `ANY_SOURCE` receives.
    ///
    /// # Panics
    ///
    /// Panics if the local rank was already added.
    pub fn add_endpoint_sharded(&self, local_rank: u32, shards: usize) -> HostEndpoint {
        self.add_endpoint_with(local_rank, &EndpointConfig::new().shards(shards))
    }

    /// Adds a process with per-endpoint configuration overrides: the
    /// completion-retention cap, go-back-N window, BTP eager threshold, and
    /// engine shard count from `config` replace the fabric-wide defaults
    /// for this endpoint only.
    ///
    /// Only the protocol-and-queue overrides (retention cap, window, eager
    /// threshold, shards) apply here; the config's default *truncation
    /// policy* is a front-end concern — wrap the returned endpoint in the
    /// facade's `Endpoint::with_config(raw, config)` to honor it.
    ///
    /// # Panics
    ///
    /// Panics if the local rank was already added or the resulting protocol
    /// configuration is invalid.
    pub fn add_endpoint_with(&self, local_rank: u32, config: &EndpointConfig) -> HostEndpoint {
        let id = ProcessId::new(self.node, local_rank);
        let protocol = config.apply_protocol(self.protocol.clone());
        let shards = config.shard_count();
        let mut done = CompletionQueue::new();
        config.apply_retention(&mut done);
        let member = Arc::new(Member {
            engine: ShardedEngine::new(id, protocol, shards),
            done: CompletionMailbox::with_queue(shards, done),
        });
        self.fabric.join(&member);
        HostEndpoint {
            fabric: self.fabric.clone(),
            member,
        }
    }
}

/// One process's handle onto the intranode fabric.
#[derive(Clone)]
pub struct HostEndpoint {
    fabric: Arc<Fabric>,
    member: Arc<Member>,
}

impl HostEndpoint {
    /// This endpoint's process id.
    pub fn id(&self) -> ProcessId {
        self.member.engine.id()
    }

    /// Number of engine shards this endpoint runs (1 unless configured).
    pub fn shard_count(&self) -> usize {
        self.member.engine.shard_count()
    }

    /// Runs one interaction with this endpoint's engine and settles it:
    /// publishes the completions it produced through the mailbox and routes
    /// its traffic through the fabric — or returns at once when it produced
    /// none (a receive posted before its message, a cancellation).
    fn interact<R>(&self, f: impl FnOnce(&ShardedEngine, &mut EngineBatch) -> R) -> R {
        // Latch one clock read for every event the interaction emits,
        // routing included.
        ppmsg_core::telemetry::clock::hold();
        Scratch::with(|scratch| {
            let result = f(&self.member.engine, &mut scratch.batch);
            self.member.publish(&mut scratch.batch);
            Fabric::queue_actions(self.id(), &mut scratch.batch.actions, &mut scratch.work);
            if !scratch.work.is_empty() {
                self.fabric.route(&self.member, scratch);
            }
            result
        })
    }

    /// Posts a send of `data` to `peer`, returning its operation handle.
    /// The transfer is initiated before this returns (the pushed part
    /// delivered and the remainder registered for pulling); the data is
    /// captured by reference count, so the caller may drop its handle
    /// immediately.
    pub fn post_send(&self, peer: ProcessId, tag: Tag, data: impl Into<Bytes>) -> Result<SendOp> {
        let data = data.into();
        self.interact(|engine, batch| engine.post_send(peer, tag, data, batch))
    }

    /// Posts a vectored send: `segments` arrive as one concatenated message
    /// but are never coalesced on the wire; see
    /// [`Endpoint::post_send_vectored`](ppmsg_core::Endpoint::post_send_vectored).
    pub fn post_send_vectored(
        &self,
        peer: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<SendOp> {
        self.interact(|engine, batch| engine.post_send_vectored(peer, tag, segments, batch))
    }

    /// Posts an engine-buffered receive.  `src` / `tag` may be the
    /// [`ANY_SOURCE`](ppmsg_core::ANY_SOURCE) /
    /// [`ANY_TAG`](ppmsg_core::ANY_TAG) wildcards — though `ANY_SOURCE`
    /// requires a single-shard endpoint (the default); see
    /// [`Error::ShardedWildcard`](ppmsg_core::Error::ShardedWildcard).
    pub fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        self.interact(|engine, batch| engine.post_recv_with(src, tag, capacity, policy, batch))
    }

    /// Posts a receive that reassembles directly into the caller-owned
    /// `buf`, handed back in the completion.
    pub fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        self.interact(|engine, batch| engine.post_recv_into(src, tag, buf, policy, batch))
    }

    /// Cancels a still-unmatched receive; see
    /// [`Endpoint::cancel`](ppmsg_core::Endpoint::cancel).
    pub fn cancel(&self, op: RecvOp) -> bool {
        self.interact(|engine, batch| engine.cancel_recv(op, batch))
    }

    /// Cancels a posted send whose remainder has not been pulled yet; see
    /// [`Endpoint::cancel_send`](ppmsg_core::Endpoint::cancel_send).
    pub fn cancel_send(&self, op: SendOp) -> bool {
        self.interact(|engine, batch| engine.cancel_send(op, batch))
    }

    /// Protocol statistics of this endpoint, merged over its shards and
    /// including the completion queue's eviction counter
    /// ([`EndpointStats::completions_evicted`]).
    pub fn stats(&self) -> EndpointStats {
        let mut stats = self.member.engine.stats();
        stats.completions_evicted = self.member.done.evicted();
        stats
    }
}

/// The intranode fabric's backend contract: the posting core delegates to
/// the engine behind the member lock, and completion access goes through the
/// `done` queue under its own lock (publication wakes registered wakers
/// after releasing it).
impl RawTransport for HostEndpoint {
    fn local_id(&self) -> ProcessId {
        self.id()
    }

    fn post_send(&self, peer: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp> {
        HostEndpoint::post_send(self, peer, tag, data)
    }

    fn post_send_vectored(&self, peer: ProcessId, tag: Tag, segments: &[Bytes]) -> Result<SendOp> {
        HostEndpoint::post_send_vectored(self, peer, tag, segments)
    }

    fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        HostEndpoint::post_recv(self, src, tag, capacity, policy)
    }

    fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        HostEndpoint::post_recv_into(self, src, tag, buf, policy)
    }

    fn cancel_recv(&self, op: RecvOp) -> bool {
        HostEndpoint::cancel(self, op)
    }

    fn cancel_send(&self, op: SendOp) -> bool {
        HostEndpoint::cancel_send(self, op)
    }

    fn with_completions(&self, f: &mut dyn FnMut(&mut CompletionQueue)) {
        self.member.done.with(f);
    }

    fn stats(&self) -> EndpointStats {
        HostEndpoint::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppmsg_core::{Completion, OpId, ProtocolMode, Status, ANY_SOURCE, ANY_TAG};
    use std::thread;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(5);

    thread_local! {
        /// Times this thread took the fabric-wide members lock to resolve a
        /// destination (bumped by [`Fabric::member`]).
        pub(super) static MEMBER_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// Test-local blocking wait over the `RawTransport` core (the real
    /// blocking front-end lives in the facade crate, which this crate
    /// cannot depend on): claim-poll with a short sleep.
    fn wait(ep: &HostEndpoint, op: OpId, timeout: Duration) -> Option<Completion> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(completion) = ep.take_completion(op) {
                return Some(completion);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn send(ep: &HostEndpoint, peer: ProcessId, tag: Tag, data: Bytes) -> SendOp {
        ep.post_send(peer, tag, data).expect("post_send failed")
    }

    fn recv(
        ep: &HostEndpoint,
        peer: ProcessId,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> Option<Bytes> {
        let op = ep
            .post_recv(peer, tag, max_len, TruncationPolicy::Error)
            .ok()?;
        let completion = wait(ep, OpId::Recv(op), timeout)?;
        match completion.status {
            Status::Ok | Status::Truncated { .. } => completion.data,
            Status::Cancelled | Status::Error(_) => None,
        }
    }

    #[test]
    fn two_thread_pingpong_all_modes() {
        for mode in [
            ProtocolMode::PushZero,
            ProtocolMode::PushPull,
            ProtocolMode::PushAll,
        ] {
            let cluster = HostCluster::new(
                0,
                ProtocolConfig::paper_intranode()
                    .with_mode(mode)
                    .with_pushed_buffer(64 * 1024),
            );
            let a = cluster.add_endpoint(0);
            let b = cluster.add_endpoint(1);
            let a_id = a.id();
            let b_id = b.id();
            let data = payload(8192);
            let expect = data.clone();

            let receiver = thread::spawn(move || {
                let got = recv(&b, a_id, Tag(5), 8192, T).expect("recv timed out");
                send(&b, a_id, Tag(6), got.clone());
                got
            });
            send(&a, b_id, Tag(5), data);
            let echoed = recv(&a, b_id, Tag(6), 8192, T).expect("echo timed out");
            let got = receiver.join().unwrap();
            assert_eq!(got, expect, "mode {mode:?}");
            assert_eq!(echoed, expect, "mode {mode:?}");
        }
    }

    #[test]
    fn late_receiver_is_still_correct() {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024),
        );
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let data = payload(4096);
        // Send before any receive is posted: data must wait in the pushed
        // buffer and be drained when the receive appears.
        let h = send(&a, b.id(), Tag(1), data.clone());
        let got = recv(&b, a.id(), Tag(1), 4096, T).expect("recv timed out");
        assert_eq!(got, data);
        assert!(wait(&a, OpId::Send(h), T).is_some());
        assert!(b.stats().bytes_copied_staged > 0);
    }

    #[test]
    fn early_receiver_is_one_copy() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let a_id = a.id();
        let b_id = b.id();
        let data = payload(4096);
        let expect = data.clone();
        let receiver = thread::spawn(move || recv(&b, a_id, Tag(2), 4096, T));
        // Give the receiver a moment to post.
        thread::sleep(Duration::from_millis(50));
        send(&a, b_id, Tag(2), data);
        assert_eq!(receiver.join().unwrap().unwrap(), expect);
    }

    #[test]
    fn many_messages_in_order() {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(256 * 1024),
        );
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let count = 50usize;
        for i in 0..count {
            send(&a, b.id(), Tag(9), payload(i * 37 + 1));
        }
        for i in 0..count {
            let got = recv(&b, a.id(), Tag(9), 64 * 1024, T).expect("recv timed out");
            assert_eq!(got.len(), i * 37 + 1);
        }
    }

    #[test]
    fn recv_timeout_returns_none() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let _b = cluster.add_endpoint(1);
        assert!(recv(
            &a,
            ProcessId::new(0, 1),
            Tag(1),
            64,
            Duration::from_millis(50)
        )
        .is_none());
    }

    #[test]
    fn wildcard_receive_and_recv_into() {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024),
        );
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let data = payload(4096);
        let wild = b
            .post_recv(ANY_SOURCE, ANY_TAG, 4096, TruncationPolicy::Error)
            .unwrap();
        send(&a, b.id(), Tag(77), data.clone());
        let done = wait(&b, OpId::Recv(wild), T).expect("wildcard completed");
        assert_eq!(done.peer, a.id());
        assert_eq!(done.tag, Tag(77));
        assert_eq!(done.data.unwrap(), data);

        let op = b
            .post_recv_into(
                a.id(),
                Tag(78),
                RecvBuf::with_capacity(4096),
                TruncationPolicy::Error,
            )
            .unwrap();
        send(&a, b.id(), Tag(78), data.clone());
        let done = wait(&b, OpId::Recv(op), T).expect("recv_into completed");
        assert_eq!(done.buf.unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn cancelled_receive_reports_cancellation() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let op = b
            .post_recv(a.id(), Tag(1), 64, TruncationPolicy::Error)
            .unwrap();
        assert!(b.cancel(op));
        let done = wait(&b, OpId::Recv(op), T).unwrap();
        assert_eq!(done.status, Status::Cancelled);
        assert!(!b.cancel(op), "stale handle must not cancel again");
    }

    #[test]
    fn routing_pass_resolves_the_other_party_once() {
        // A late-receiver 64 KiB transfer: the send's pass is one hop
        // (push), the receive's pass is three (pull request, pulled data in
        // one shared-memory packet, nothing back).  However many hops, a
        // two-endpoint pass takes the members lock at most once, and an
        // interaction without traffic never does.
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let lookups = || MEMBER_LOOKUPS.with(|n| n.replace(0));
        let data = payload(64 * 1024);
        lookups();

        let early = b
            .post_recv(a.id(), Tag(9), 64, TruncationPolicy::Error)
            .unwrap();
        assert_eq!(lookups(), 0, "a receive posted early produces no traffic");
        assert!(b.cancel(early));
        assert_eq!(lookups(), 0, "a cancellation produces no traffic");

        let h = send(&a, b.id(), Tag(1), data.clone());
        assert_eq!(lookups(), 1, "send pass");
        let op = b
            .post_recv_into(
                a.id(),
                Tag(1),
                RecvBuf::with_capacity(64 * 1024),
                TruncationPolicy::Error,
            )
            .unwrap();
        assert_eq!(lookups(), 1, "late-receive pass: request out, data back");
        let done = wait(&b, OpId::Recv(op), T).expect("recv_into completed");
        assert_eq!(done.buf.unwrap().as_slice(), &data[..]);
        assert!(wait(&a, OpId::Send(h), T).is_some());
        let (sent, received) = (a.stats(), b.stats());
        assert_eq!(sent.bytes_pulled, 64 * 1024 - 16);
        assert_eq!(received.pull_requests_sent, 1);

        // A packet for a process that has not joined yet is parked on the
        // miss path, then delivered once the rank joins.
        let early = send(&a, ProcessId::new(0, 7), Tag(2), payload(8));
        assert_eq!(lookups(), 1);
        let late = cluster.add_endpoint(7);
        assert_eq!(recv(&late, a.id(), Tag(2), 8, T), Some(payload(8)));
        assert!(wait(&a, OpId::Send(early), T).is_some());
    }

    #[test]
    fn message_posted_before_the_peer_joins_is_delivered() {
        // Several messages, each larger than the eager part, so delivery
        // after the join also runs the pull round trip; order is kept.
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let peer = ProcessId::new(0, 1);
        let sends: Vec<_> = (0..3)
            .map(|i| send(&a, peer, Tag(4), payload(4096 + i)))
            .collect();
        assert_eq!(cluster.fabric.members.lock().parked.len(), 1);

        let b = cluster.add_endpoint(1);
        assert!(cluster.fabric.members.lock().parked.is_empty());
        for i in 0..3 {
            assert_eq!(recv(&b, a.id(), Tag(4), 8192, T), Some(payload(4096 + i)));
        }
        for h in sends {
            assert!(wait(&a, OpId::Send(h), T).is_some());
        }
    }

    #[test]
    fn held_delivery_survives_later_receives() {
        // Engine-buffered deliveries recycle storage the caller dropped; one
        // the caller still holds must never be written by a later delivery.
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let message = |i: u8| Bytes::from(vec![i; 64]);
        let held = recv_after_send(&a, &b, message(0));
        for i in 1..=10 {
            assert_eq!(recv_after_send(&a, &b, message(i)), message(i));
        }
        assert_eq!(held, message(0));

        fn recv_after_send(a: &HostEndpoint, b: &HostEndpoint, data: Bytes) -> Bytes {
            let op = b
                .post_recv(a.id(), Tag(3), 64, TruncationPolicy::Error)
                .unwrap();
            send(a, b.id(), Tag(3), data);
            let done = wait(b, OpId::Recv(op), T).expect("recv completed");
            assert!(b.stats().pull_requests_sent > 0, "multi-fragment delivery");
            done.data.unwrap()
        }
    }

    #[test]
    fn waker_posting_from_publish_reenters_safely() {
        // A waker registered on `b` runs inside `publish`, in the middle of
        // `a`'s routing pass, and posts on the same thread: the nested
        // interaction must get a scratch of its own and leave the outer
        // pass's queue intact.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::task::{Wake, Waker};
        struct Reply {
            from: HostEndpoint,
            to: ProcessId,
            fired: AtomicBool,
        }
        impl Wake for Reply {
            fn wake(self: Arc<Self>) {
                if !self.fired.swap(true, Ordering::SeqCst) {
                    send(&self.from, self.to, Tag(6), payload(4096));
                }
            }
        }
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let echo = a
            .post_recv(b.id(), Tag(6), 4096, TruncationPolicy::Error)
            .unwrap();
        let op = b
            .post_recv(a.id(), Tag(5), 4096, TruncationPolicy::Error)
            .unwrap();
        let reply = Arc::new(Reply {
            from: b.clone(),
            to: a.id(),
            fired: AtomicBool::new(false),
        });
        let waker = Waker::from(reply.clone());
        assert!(b.poll_completion(OpId::Recv(op), &waker).is_none());
        send(&a, b.id(), Tag(5), payload(4096));
        assert!(reply.fired.load(Ordering::SeqCst), "waker ran inline");
        assert_eq!(
            wait(&b, OpId::Recv(op), T).unwrap().data.unwrap(),
            payload(4096)
        );
        assert_eq!(
            wait(&a, OpId::Recv(echo), T).unwrap().data.unwrap(),
            payload(4096)
        );
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_endpoint_rejected() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let _a = cluster.add_endpoint(0);
        let _b = cluster.add_endpoint(0);
    }

    #[test]
    fn sharded_endpoint_serves_many_peers() {
        // One 4-shard server, 8 client threads: each client sends a
        // distinct payload and receives a distinct echo.  Peers spread
        // round-robin over the shards, so concurrent clients exercise
        // different shard locks (on multi-core hardware, concurrently).
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(512 * 1024),
        );
        let server = cluster.add_endpoint_sharded(0, 4);
        assert_eq!(server.shard_count(), 4);
        let server_id = server.id();
        let clients: Vec<_> = (1..9)
            .map(|r| {
                let client = cluster.add_endpoint(r);
                thread::spawn(move || {
                    let data = payload(512 + r as usize * 37);
                    send(&client, server_id, Tag(r), data.clone());
                    let echoed =
                        recv(&client, server_id, Tag(100 + r), 64 * 1024, T).expect("echo");
                    assert_eq!(echoed, data);
                })
            })
            .collect();
        for r in 1..9u32 {
            let got = recv(&server, ProcessId::new(0, r), Tag(r), 64 * 1024, T)
                .expect("server recv timed out");
            send(&server, ProcessId::new(0, r), Tag(100 + r), got);
        }
        for handle in clients {
            handle.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.recvs_completed, 8);
        assert_eq!(stats.sends_completed, 8);
    }

    #[test]
    fn sharded_endpoint_rejects_wildcard_source() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let sharded = cluster.add_endpoint_sharded(0, 2);
        let _peer = cluster.add_endpoint(1);
        let err = sharded
            .post_recv(ANY_SOURCE, ANY_TAG, 64, TruncationPolicy::Error)
            .unwrap_err();
        assert_eq!(err, ppmsg_core::Error::ShardedWildcard { shards: 2 });
        // A concrete source with ANY_TAG stays legal.
        assert!(sharded
            .post_recv(ProcessId::new(0, 1), ANY_TAG, 64, TruncationPolicy::Error)
            .is_ok());
    }
}
