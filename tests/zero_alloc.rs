//! Regression test for the PR-1/PR-2 acceptance criteria: the steady-state
//! `post_send` → `handle_packet`/`handle_frame` → completion loop must
//! perform **zero heap allocations** — both for fully-eager single-packet
//! ping-pong and for the **multi-fragment pulled path** received through a
//! recycled caller-owned buffer (`post_recv_into`).
//!
//! Two independent detectors have to agree:
//!
//! 1. a counting `#[global_allocator]` observes the real allocator, counting
//!    only allocations made by the test thread itself (libtest's harness
//!    thread allocates concurrently under `cargo test -q`, which used to
//!    fail this test spuriously), and
//! 2. [`EndpointStats::steady_allocs`], the engine's own instrumentation of
//!    its arenas, index tables, operation slabs, pools, go-back-N queues,
//!    action queue, and completion queue.
//!
//! The fully-eager loop is the `lib.rs` doc-example ping-pong with a message
//! small enough to travel in one packet — the latency-critical regime the
//! paper tunes BTP for.  The pulled loop moves 4 KiB messages whose
//! remainder is fragmented and pulled; the seed allocated twice per delivery
//! there (assembly storage handoff + owned `Bytes`), which the caller-owned
//! receive buffer eliminates.

use bytes::Bytes;
// The explicit import shadows the prelude's transport front-end: the two
// synchronous loops drive the sans-I/O engine by hand.  The async loop uses
// the front-end (`prelude::Endpoint`) through an alias.
use push_pull_messaging::core::Endpoint;
use push_pull_messaging::prelude::Endpoint as FrontEnd;
use push_pull_messaging::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// `true` only on the thread whose allocations are being measured.
    /// libtest's harness thread allocates concurrently (e.g. its terse-mode
    /// progress reporting under `cargo test -q`), and those allocations must
    /// not be charged to the protocol hot path.  Const-initialised, so
    /// reading it from inside the allocator never itself allocates.
    static MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Counts an allocator hit if it happened on the measured thread.  The
/// `try_with` guards the TLS-teardown window at thread exit.
fn count_alloc() {
    if MEASURED_THREAD.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counting side effect touches no allocator
// state and itself performs no allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Relays actions between two endpoints until both are quiet.
fn relay(sender: &mut Endpoint, receiver: &mut Endpoint) {
    loop {
        let mut progressed = false;
        for _ in 0..2 {
            while let Some(action) = sender.poll_action() {
                progressed = true;
                match action {
                    Action::Transmit { packet, .. } => receiver.handle_packet(sender.id(), packet),
                    Action::TransmitFrame { frame, .. } => {
                        receiver.handle_frame(sender.id(), frame)
                    }
                    _ => {}
                }
            }
            std::mem::swap(sender, receiver);
        }
        if !progressed {
            break;
        }
    }
}

/// Drains both completion queues, dropping the results (dropping a
/// zero-copy `Bytes` delivery only decrements a reference count).
fn drain_completions(a: &mut Endpoint, b: &mut Endpoint) {
    while a.poll_completion().is_some() {}
    while b.poll_completion().is_some() {}
}

fn pingpong_round(a: &mut Endpoint, b: &mut Endpoint, data: &Bytes) {
    let size = data.len();
    b.post_recv(a.id(), Tag(1), size).unwrap();
    a.post_send(b.id(), Tag(1), data.clone()).unwrap();
    relay(a, b);
    a.post_recv(b.id(), Tag(2), size).unwrap();
    b.post_send(a.id(), Tag(2), data.clone()).unwrap();
    relay(b, a);
    drain_completions(a, b);
}

fn assert_steady_state_zero_alloc(cfg: ProtocolConfig, intranode: bool, size: usize, label: &str) {
    let a_id = ProcessId::new(0, 0);
    let b_id = if intranode {
        ProcessId::new(0, 1)
    } else {
        ProcessId::new(1, 0)
    };
    let mut a = Endpoint::new(a_id, cfg.clone());
    let mut b = Endpoint::new(b_id, cfg);
    // `size` must fit inside the path's BTP so each message travels as
    // exactly one fully-eager packet and is delivered as a zero-copy slice
    // of it.  (A pulled remainder delivered through `post_recv` is
    // reassembled in pooled storage recycled once the caller drops the
    // previous delivery — see the host-cluster loops below.)
    let data = Bytes::from(vec![0xEEu8; size]);

    // Warm-up: size every arena, index table, pool, and queue.
    for _ in 0..64 {
        pingpong_round(&mut a, &mut b, &data);
    }

    let engine_allocs_before = a.stats().steady_allocs + b.stats().steady_allocs;
    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);

    for _ in 0..1000 {
        pingpong_round(&mut a, &mut b, &data);
    }

    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;
    let engine_allocs = a.stats().steady_allocs + b.stats().steady_allocs - engine_allocs_before;

    assert_eq!(
        heap_allocs, 0,
        "{label}: steady-state loop hit the real allocator {heap_allocs} times over 1000 rounds"
    );
    assert_eq!(
        engine_allocs, 0,
        "{label}: EndpointStats::steady_allocs grew by {engine_allocs} over 1000 rounds"
    );
    assert_eq!(a.stats().sends_completed, 1064, "{label}: sends completed");
    assert_eq!(a.stats().recvs_completed, 1064, "{label}: recvs completed");
}

/// The multi-fragment pulled path through a recycled caller-owned buffer:
/// each 4 KiB message pushes 16 eager bytes and pulls the remaining 4080 in
/// three max-payload fragments reassembled directly into the `RecvBuf`.
fn assert_pull_path_zero_alloc_with_recv_into(label: &str) {
    let cfg = ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024);
    let size = 4096usize;
    let mut a = Endpoint::new(ProcessId::new(0, 0), cfg.clone());
    let mut b = Endpoint::new(ProcessId::new(0, 1), cfg);
    let data = Bytes::from(vec![0xABu8; size]);
    let mut recycled = Some(RecvBuf::with_capacity(size));

    let round = |a: &mut Endpoint, b: &mut Endpoint, recycled: &mut Option<RecvBuf>| {
        let buf = recycled.take().expect("buffer in flight");
        let op = b
            .post_recv_into(a.id(), Tag(1), buf, TruncationPolicy::Error)
            .unwrap();
        a.post_send(b.id(), Tag(1), data.clone()).unwrap();
        relay(a, b);
        while a.poll_completion().is_some() {}
        while let Some(completion) = b.poll_completion() {
            if completion.op == OpId::Recv(op) {
                assert!(matches!(completion.status, Status::Ok));
                let buf = completion.buf.expect("caller buffer handed back");
                assert_eq!(buf.len(), size);
                *recycled = Some(buf);
            }
        }
        assert!(recycled.is_some(), "pulled message did not complete");
    };

    // Warm-up.
    for _ in 0..64 {
        round(&mut a, &mut b, &mut recycled);
    }
    let engine_allocs_before = a.stats().steady_allocs + b.stats().steady_allocs;
    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);

    for _ in 0..1000 {
        round(&mut a, &mut b, &mut recycled);
    }

    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;
    let engine_allocs = a.stats().steady_allocs + b.stats().steady_allocs - engine_allocs_before;
    assert_eq!(
        heap_allocs, 0,
        "{label}: pulled recv_into loop hit the real allocator {heap_allocs} times over 1000 rounds"
    );
    assert_eq!(
        engine_allocs, 0,
        "{label}: EndpointStats::steady_allocs grew by {engine_allocs} over 1000 rounds"
    );
    assert!(
        b.stats().bytes_pulled == 0 && a.stats().bytes_pulled > 0,
        "{label}: transfers must actually use the pull path"
    );
}

/// The steady-state **async** ping-pong path: one task on [`block_on`]
/// drives fully-eager exchanges and recycled caller-buffered pulled
/// exchanges over the loopback cluster through the `Endpoint` front-end's
/// futures.  Posting, routing, completion storage (op-indexed slots + order
/// deque), future resolution, and a borrowed `peek_completions` pass per
/// round must all run allocation-free once warm; the async layer's only
/// steady costs are refcount bumps on the shared waker.
fn assert_async_pingpong_zero_alloc(label: &str) {
    /// One async round: a fully-eager exchange (engine-buffered receive)
    /// followed by a pulled exchange into the recycled caller buffer, then
    /// a borrowed drain pass over whatever is left unclaimed.
    async fn round(
        a: &FrontEnd<LoopbackEndpoint>,
        b: &FrontEnd<LoopbackEndpoint>,
        eager: &Bytes,
        pulled: &Bytes,
        buf: &mut Option<RecvBuf>,
    ) {
        let recv = b
            .recv(a.local_id(), Tag(1), 16, TruncationPolicy::Error)
            .unwrap();
        a.send(b.local_id(), Tag(1), eager.clone()).unwrap().await;
        let done = recv.await;
        assert!(matches!(done.status, Status::Ok));
        drop(done);
        let recv = b
            .recv_into(
                a.local_id(),
                Tag(2),
                buf.take().expect("buffer in flight"),
                TruncationPolicy::Error,
            )
            .unwrap();
        a.send(b.local_id(), Tag(2), pulled.clone()).unwrap().await;
        let done = recv.await;
        assert!(matches!(done.status, Status::Ok));
        *buf = Some(done.buf.expect("caller buffer handed back"));
        // Borrowed drain: inspecting completions in place is part of the
        // allocation-free steady state.
        b.peek_completions(|completion| {
            assert!(completion.status.is_ok());
            Claim::Keep
        });
    }

    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024));
    let a = FrontEnd::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let b = FrontEnd::new(cluster.add_endpoint(ProcessId::new(0, 1)));
    let eager = Bytes::from(vec![0xCDu8; 16]); // one fully-eager packet
    let pulled = Bytes::from(vec![0xEFu8; 4096]); // multi-fragment pull

    // Warm-up and measured phase inside a single block_on call, so the
    // executor's waker Arc is part of the warm state.
    let (heap_allocs, engine_allocs) = block_on(async {
        let mut buf = Some(RecvBuf::with_capacity(4096));
        for _ in 0..64 {
            round(&a, &b, &eager, &pulled, &mut buf).await;
        }
        let engine_before = a.stats().steady_allocs + b.stats().steady_allocs;
        let heap_before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..1000 {
            round(&a, &b, &eager, &pulled, &mut buf).await;
        }
        (
            ALLOCS.load(Ordering::Relaxed) - heap_before,
            a.stats().steady_allocs + b.stats().steady_allocs - engine_before,
        )
    });

    assert_eq!(
        heap_allocs, 0,
        "{label}: steady async loop hit the real allocator {heap_allocs} times over 1000 rounds"
    );
    assert_eq!(
        engine_allocs, 0,
        "{label}: EndpointStats::steady_allocs grew by {engine_allocs} over 1000 rounds"
    );
}

/// A small vectored send on the steady path: the push phase is chunked
/// straight off the caller's **borrowed** segment slice, so a fully-eager
/// vectored send never materialises an owned payload — no `Arc<[Bytes]>`
/// pin, no allocation at all — and the exchange into a recycled caller
/// buffer stays clean.
fn assert_small_vectored_send_zero_alloc(label: &str) {
    let cfg = ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024);
    let mut a = Endpoint::new(ProcessId::new(0, 0), cfg.clone());
    let mut b = Endpoint::new(ProcessId::new(0, 1), cfg);
    // 16 bytes in three segments: fully eager, three packets (chunks never
    // cross segment boundaries), reassembled into the caller buffer.
    let segments = [
        Bytes::from(vec![0x11u8; 6]),
        Bytes::from(vec![0x22u8; 4]),
        Bytes::from(vec![0x33u8; 6]),
    ];
    let total: usize = segments.iter().map(Bytes::len).sum();
    let mut recycled = Some(RecvBuf::with_capacity(total));

    let round = |a: &mut Endpoint, b: &mut Endpoint, recycled: &mut Option<RecvBuf>| {
        let buf = recycled.take().expect("buffer in flight");
        let op = b
            .post_recv_into(a.id(), Tag(1), buf, TruncationPolicy::Error)
            .unwrap();
        a.post_send_vectored(b.id(), Tag(1), &segments).unwrap();
        relay(a, b);
        while a.poll_completion().is_some() {}
        while let Some(completion) = b.poll_completion() {
            if completion.op == OpId::Recv(op) {
                assert!(matches!(completion.status, Status::Ok));
                let buf = completion.buf.expect("caller buffer handed back");
                assert_eq!(buf.len(), total);
                *recycled = Some(buf);
            }
        }
        assert!(recycled.is_some(), "vectored message did not complete");
    };

    for _ in 0..64 {
        round(&mut a, &mut b, &mut recycled);
    }
    let engine_allocs_before = a.stats().steady_allocs + b.stats().steady_allocs;
    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        round(&mut a, &mut b, &mut recycled);
    }
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;
    let engine_allocs = a.stats().steady_allocs + b.stats().steady_allocs - engine_allocs_before;
    assert_eq!(
        heap_allocs, 0,
        "{label}: small vectored send loop hit the real allocator {heap_allocs} times"
    );
    assert_eq!(engine_allocs, 0, "{label}: steady_allocs grew");
}

/// The production intranode backend, end to end: two `HostEndpoint`s on one
/// `HostCluster` fabric driven by one thread through the front-end, as the
/// standing benchmark drives them.  Posting, the fabric's routing passes
/// (thread-pooled batch and hop queue, no per-hop member lookup), mailbox
/// publication and claiming must all run allocation-free once warm, for
/// both a 64 B pre-posted round trip and a 64 KiB late-receiver transfer
/// (one shared-memory `PullData` packet) acknowledged with 64 B — every
/// receive into a recycled caller buffer.
fn assert_host_cluster_loops_zero_alloc(label: &str) {
    type Host = FrontEnd<HostEndpoint>;
    const SMALL: usize = 64;
    const BULK: usize = 64 * 1024;

    fn claim(ep: &Host, op: OpId) -> Completion {
        let done = ep
            .take_completion(op)
            .expect("published before the post returned");
        assert!(matches!(done.status, Status::Ok));
        done
    }

    /// `from` sends `data` to `to`, which receives it into `buf` — posted
    /// before the send (`late == false`) or after it — and hands it back.
    fn transfer(
        from: &Host,
        to: &Host,
        tag: Tag,
        data: &Bytes,
        buf: RecvBuf,
        late: bool,
    ) -> RecvBuf {
        let post_recv = |buf| {
            to.post_recv_into(from.local_id(), tag, buf, TruncationPolicy::Error)
                .unwrap()
        };
        let (send, recv) = if late {
            let send = from.post_send(to.local_id(), tag, data.clone()).unwrap();
            (send, post_recv(buf))
        } else {
            let recv = post_recv(buf);
            (
                from.post_send(to.local_id(), tag, data.clone()).unwrap(),
                recv,
            )
        };
        let buf = claim(to, OpId::Recv(recv))
            .buf
            .expect("caller buffer handed back");
        assert_eq!(buf.as_slice(), &data[..]);
        claim(from, OpId::Send(send));
        buf
    }

    let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
    let a = FrontEnd::new(cluster.add_endpoint(0));
    let b = FrontEnd::new(cluster.add_endpoint(1));
    let small = Bytes::from(vec![0x3Cu8; SMALL]);
    let bulk = Bytes::from((0..BULK).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let mut bufs = Some((
        RecvBuf::with_capacity(SMALL),
        RecvBuf::with_capacity(SMALL),
        RecvBuf::with_capacity(BULK),
    ));
    let mut round = || {
        let (request, reply, transfer_buf) = bufs.take().expect("buffers in flight");
        // 64 B request/reply, receives pre-posted.
        let request = transfer(&a, &b, Tag(1), &small, request, false);
        let reply = transfer(&b, &a, Tag(2), &small, reply, false);
        // 64 KiB sent before its receive is posted, then a 64 B ack.
        let transfer_buf = transfer(&a, &b, Tag(3), &bulk, transfer_buf, true);
        let reply = transfer(&b, &a, Tag(4), &small, reply, false);
        bufs = Some((request, reply, transfer_buf));
    };

    // Warm-up crosses the completion queues' order-deque compaction
    // threshold, as in the blocking-wait loop below.
    for _ in 0..200 {
        round();
    }
    let stats = || {
        let mut stats = a.stats();
        stats.merge(&b.stats());
        stats
    };
    let before = stats();
    let heap_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        round();
    }
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_before;
    let after = stats();
    assert_eq!(
        heap_allocs, 0,
        "{label}: 1000 rounds hit the real allocator {heap_allocs} times"
    );
    assert_eq!(
        after.steady_allocs, before.steady_allocs,
        "{label}: EndpointStats::steady_allocs grew"
    );
    assert_eq!(
        after.pull_requests_served - before.pull_requests_served,
        4000,
        "{label}: every transfer must use the pull path"
    );
    assert_eq!(after.completions_evicted, 0, "{label}: completions evicted");
}

/// The engine-buffered receive path on the production intranode fabric: a
/// 64 B pre-posted round trip through `post_recv` (no caller buffer), whose
/// remainder past the 16 B BTP is pulled and reassembled by the engine.  The
/// caller drops each delivered `Bytes` before the next round, so every
/// delivery reuses the storage — reference count included — of the one
/// before it.
fn assert_host_cluster_engine_buffered_zero_alloc(label: &str) {
    type Host = FrontEnd<HostEndpoint>;
    const SMALL: usize = 64;

    fn transfer(from: &Host, to: &Host, tag: Tag, data: &Bytes) {
        let recv = to
            .post_recv(from.local_id(), tag, SMALL, TruncationPolicy::Error)
            .unwrap();
        let send = from.post_send(to.local_id(), tag, data.clone()).unwrap();
        let done = to
            .take_completion(OpId::Recv(recv))
            .expect("published before the post returned");
        assert!(matches!(done.status, Status::Ok));
        assert_eq!(done.data.as_deref(), Some(&data[..]));
        assert!(from.take_completion(OpId::Send(send)).is_some());
    }

    let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
    let a = FrontEnd::new(cluster.add_endpoint(0));
    let b = FrontEnd::new(cluster.add_endpoint(1));
    let request = Bytes::from(vec![0x3Cu8; SMALL]);
    let reply = Bytes::from(vec![0xC3u8; SMALL]);
    let round = || {
        transfer(&a, &b, Tag(1), &request);
        transfer(&b, &a, Tag(2), &reply);
    };
    for _ in 0..200 {
        round();
    }
    let steady = || a.stats().steady_allocs + b.stats().steady_allocs;
    let (engine_before, heap_before) = (steady(), ALLOCS.load(Ordering::Relaxed));
    for _ in 0..1000 {
        round();
    }
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_before;
    assert_eq!(
        heap_allocs, 0,
        "{label}: 1000 rounds hit the real allocator {heap_allocs} times"
    );
    assert_eq!(
        steady(),
        engine_before,
        "{label}: EndpointStats::steady_allocs grew"
    );
    assert_eq!(
        a.stats().pull_requests_sent,
        1200,
        "{label}: pulled replies"
    );
}

/// The blocking front-end `wait` loop: with the thread-local parker cache,
/// a post + `Endpoint::wait` cycle performs no heap allocation (the old
/// code paid one `Arc` per `wait` call for its parking waker).
fn assert_blocking_wait_zero_alloc(label: &str) {
    use std::time::Duration;
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024));
    let a = FrontEnd::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let b = FrontEnd::new(cluster.add_endpoint(ProcessId::new(0, 1)));
    let data = Bytes::from(vec![0x5Au8; 16]);
    let timeout = Duration::from_secs(5);

    let round = |a: &FrontEnd<LoopbackEndpoint>, b: &FrontEnd<LoopbackEndpoint>| {
        let recv = b
            .post_recv(a.local_id(), Tag(1), 16, TruncationPolicy::Error)
            .unwrap();
        let send = a.post_send(b.local_id(), Tag(1), data.clone()).unwrap();
        assert!(b.wait(OpId::Recv(recv), timeout).is_some());
        assert!(a.wait(OpId::Send(send), timeout).is_some());
    };

    // Warm-up must cross the completion queues' order-deque compaction
    // threshold (one entry per round, compacted past 64) so the one-time
    // capacity doubling happens before measurement.
    for _ in 0..200 {
        round(&a, &b);
    }
    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        round(&a, &b);
    }
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;
    assert_eq!(
        heap_allocs, 0,
        "{label}: blocking wait loop hit the real allocator {heap_allocs} times over 1000 rounds"
    );
}

/// The steady-state **collective** inner loops: a 4-rank loopback group on
/// one `Driver` runs broadcast + all_reduce + barrier rounds; once warm,
/// the whole stack — tag derivation, tree posting, completion claiming,
/// future wake-ups, zero-copy eager forwarding — must not allocate.  The
/// combine operator hands back one of its inputs (a refcount move), as an
/// element-wise reduction over pre-owned buffers would.
fn assert_collective_loops_zero_alloc(label: &str) {
    use push_pull_messaging::coll::Group;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024));
    let ids: Vec<ProcessId> = (0..4).map(|r| ProcessId::new(0, r)).collect();
    let group = Group::new(6, ids.clone()).unwrap();
    // Heap-counter snapshots pushed by rank 0 between barriers; capacity
    // pre-reserved so the pushes themselves cannot allocate inside the
    // measured window.
    let marks: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(4)));
    let warm = Arc::new(AtomicBool::new(false));
    let mut driver = Driver::new();
    for &id in &ids {
        let member = group.bind(FrontEnd::new(cluster.add_endpoint(id))).unwrap();
        let marks = marks.clone();
        let warm = warm.clone();
        driver.spawn(async move {
            // ------------------------------------------------------------
            // Pre-size the engine's matching state: whether a collective
            // message arrives *unexpected* (before its receive is posted)
            // depends on interleaving phase, and each `(src, tag-slot)`
            // pair's first unexpected arrival creates a bucket in the
            // bounded unexpected-queue maps.  Push every pair through the
            // unexpected path once, deterministically, so nothing is left
            // to create later: sends first (reserved tags go through the
            // raw backend), then a point-to-point handshake that guarantees
            // every peer's sends have landed, then the claiming receives.
            // ------------------------------------------------------------
            use push_pull_messaging::core::{OpId as CoreOpId, COLLECTIVE_TAG_BIT};
            let me = member.rank();
            let n = member.group().size();
            let gid = member.group().id() as u32;
            let slot_tag = |s: u32| Tag(COLLECTIVE_TAG_BIT | gid << 8 | s);
            let slots =
                push_pull_messaging::coll::GroupMember::<LoopbackEndpoint>::SEQ_SLOTS as u32;
            let byte = Bytes::from(vec![0u8; 1]);
            let peers: Vec<ProcessId> = (0..n)
                .filter(|&r| r != me)
                .map(|r| member.group().members()[r])
                .collect();
            // Receive-queue buckets: register-and-cancel a receive per pair
            // (a receive that matches an already-buffered message instantly
            // never registers, so it would leave no bucket behind — in that
            // case repeat once against the now-empty pair).
            let mut consumed = vec![false; peers.len() * slots as usize];
            for (pi, &peer) in peers.iter().enumerate() {
                for s in 0..slots {
                    let op = member
                        .endpoint()
                        .raw()
                        .post_recv(peer, slot_tag(s), 1, TruncationPolicy::Error)
                        .unwrap();
                    if !member.endpoint().cancel(op) {
                        consumed[pi * slots as usize + s as usize] = true;
                        let op = member
                            .endpoint()
                            .raw()
                            .post_recv(peer, slot_tag(s), 1, TruncationPolicy::Error)
                            .unwrap();
                        assert!(member.endpoint().cancel(op), "one message per pair");
                    }
                }
            }
            for &peer in &peers {
                for s in 0..slots {
                    member
                        .endpoint()
                        .raw()
                        .post_send(peer, slot_tag(s), byte.clone())
                        .unwrap();
                }
                member
                    .endpoint()
                    .post_send(peer, Tag(999), byte.clone())
                    .unwrap();
            }
            for (pi, &peer) in peers.iter().enumerate() {
                let op = member
                    .endpoint()
                    .post_recv(peer, Tag(999), 1, TruncationPolicy::Error)
                    .unwrap();
                member.endpoint().future(CoreOpId::Recv(op)).await;
                for s in 0..slots {
                    if consumed[pi * slots as usize + s as usize] {
                        continue; // the bucket probe above already claimed it
                    }
                    let op = member
                        .endpoint()
                        .raw()
                        .post_recv(peer, slot_tag(s), 1, TruncationPolicy::Error)
                        .unwrap();
                    member.endpoint().future(CoreOpId::Recv(op)).await;
                }
            }
            // Retire the fire-and-forget pre-warm send completions.
            let mut scratch = Vec::new();
            member.endpoint().drain_completions(&mut scratch);
            drop(scratch);

            let mine = Bytes::from(vec![member.rank() as u8 + 1; 16]);
            let round = |data: Bytes| async {
                let got = member.broadcast(0, data, 16).await.unwrap();
                assert_eq!(got[0], 1);
                let max = member
                    .all_reduce(mine.clone(), |x, y| if x[0] >= y[0] { x } else { y })
                    .await
                    .unwrap();
                assert_eq!(max[0], 4);
                member.barrier().await.unwrap();
            };
            // Warm-up runs in 64-round blocks until one whole block stops
            // touching the allocator: whether a collective message arrives
            // *unexpected* (before its receive is posted) depends on the
            // interleaving phase, and each `(src, tag-slot)` pair's first
            // unexpected arrival creates its bucket in the bounded
            // unexpected-queue maps — convergence, not a fixed round count,
            // is the honest warm-up criterion.
            let mut blocks = 0;
            loop {
                let before = ALLOCS.load(Ordering::Relaxed);
                for _ in 0..64 {
                    round(if member.rank() == 0 {
                        mine.clone()
                    } else {
                        Bytes::new()
                    })
                    .await;
                }
                member.barrier().await.unwrap();
                if member.rank() == 0 {
                    warm.store(ALLOCS.load(Ordering::Relaxed) == before, Ordering::Relaxed);
                }
                member.barrier().await.unwrap();
                if warm.load(Ordering::Relaxed) {
                    break;
                }
                blocks += 1;
                assert!(
                    blocks < 64,
                    "collective loop never reached an allocation-free steady state"
                );
            }
            if member.rank() == 0 {
                marks.lock().unwrap().push(ALLOCS.load(Ordering::Relaxed));
            }
            member.barrier().await.unwrap();
            for _ in 0..1000 {
                round(if member.rank() == 0 {
                    mine.clone()
                } else {
                    Bytes::new()
                })
                .await;
            }
            member.barrier().await.unwrap();
            if member.rank() == 0 {
                marks.lock().unwrap().push(ALLOCS.load(Ordering::Relaxed));
            }
            // Keep every task alive until after the final mark: a sibling
            // retiring early would grow the driver's free-slot list inside
            // the measured window.
            member.barrier().await.unwrap();
        });
    }
    driver.run();
    assert_eq!(driver.live(), 0);
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len(), 2);
    assert_eq!(
        marks[1] - marks[0],
        0,
        "{label}: 1000 collective rounds hit the real allocator {} times",
        marks[1] - marks[0]
    );
}

#[test]
fn steady_state_loops_perform_zero_heap_allocations() {
    // Only this thread's allocations count; the libtest harness thread is
    // free to report progress however it likes.
    MEASURED_THREAD.with(|f| f.set(true));
    // The flight recorder stays ON for every measured loop below: the
    // telemetry plane's hot-path contract is that recording trace events
    // (ops, frames, timers) costs zero heap allocations once warm.  The
    // one-time per-thread ring registration is paid here, before any
    // measured window opens.
    #[cfg(feature = "telemetry")]
    {
        use push_pull_messaging::core::telemetry::recorder;
        assert!(
            recorder::enabled(),
            "flight recorder must be on while the allocation-free loops run"
        );
        recorder::touch_current_thread();
    }
    // Intranode: raw packets through the kernel queues (BTP = 16 bytes).
    assert_steady_state_zero_alloc(
        ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024),
        true,
        16,
        "intranode packets",
    );
    // Internode: go-back-N framed path, including ack and timer traffic
    // (BTP(1) = 80 bytes covers the 64-byte message in the first push).
    assert_steady_state_zero_alloc(
        ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024),
        false,
        64,
        "internode frames",
    );
    // Multi-fragment pulled messages into a recycled caller-owned buffer.
    assert_pull_path_zero_alloc_with_recv_into("intranode pulled recv_into");
    // The same traffic through the async front-end over the loopback
    // cluster: Endpoint front-end futures + CompletionQueue, still zero-alloc.
    assert_async_pingpong_zero_alloc("async loopback pingpong");
    // Fully-eager vectored sends chunk off the borrowed slice — no Arc pin.
    assert_small_vectored_send_zero_alloc("intranode small vectored send");
    // The production intranode fabric: pooled batches, lock-free routing.
    assert_host_cluster_loops_zero_alloc("host cluster intranode fabric");
    // Engine-buffered deliveries recycle the storage the caller dropped.
    assert_host_cluster_engine_buffered_zero_alloc("host cluster engine-buffered recv");
    // Blocking waits reuse the thread-local parker — no Arc per call.
    assert_blocking_wait_zero_alloc("loopback blocking wait");
    // Collective broadcast/all_reduce/barrier rounds on a 4-rank group.
    assert_collective_loops_zero_alloc("loopback collectives");
    // Prove the recorder was live the whole time, not compiled out or
    // disabled: the loops above must have left real events in this thread's
    // ring (ops posted/completed at minimum).
    #[cfg(feature = "telemetry")]
    {
        use push_pull_messaging::core::telemetry::{snapshot, EventKind};
        let snap = snapshot();
        assert!(
            snap.has_kind(EventKind::OpPosted) && snap.has_kind(EventKind::OpCompleted),
            "the measured loops recorded no trace events — the zero-alloc proof no longer \
             covers the flight recorder"
        );
    }
}
