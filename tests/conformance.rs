//! The backend conformance suite: every behavioural contract of the
//! transport front-end, written **once** as generic functions over
//! `Endpoint<T: RawTransport>` and instantiated per backend by the
//! `conformance_suite!` macro — replacing the copy-adapted per-backend
//! blocks the integration tests used to carry.
//!
//! Covered per backend (intranode fabric, sim-cluster loopback, and the
//! chaos router and UDP reactor, each of those two under both go-back-N
//! and selective repeat):
//! blocking round trips, wildcard matching, caller-owned buffers, recv and
//! send cancellation, both truncation policies (the PR-2 "too-small receive
//! poisons the message" regression), vectored sends, borrowed completion
//! peeking (`peek_completions`), batch draining, async overlap through the
//! `OpFuture` combinators, and the per-endpoint retention cap with its
//! `completions_evicted` stat.

use bytes::Bytes;
use push_pull_messaging::core::{Error, ANY_SOURCE, ANY_TAG};
use push_pull_messaging::prelude::*;
use std::time::Duration;

// Generous: the suite runs many test binaries in parallel (and CI runs the
// whole matrix), so a UDP retransmission path can be starved for seconds
// without anything being wrong.  Tests normally finish in milliseconds; the
// timeout only bounds genuine failures.
const TIMEOUT: Duration = Duration::from_secs(30);

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 7 % 256) as u8).collect::<Vec<u8>>())
}

/// The shared case bodies, generic over the backend.
mod cases {
    use super::*;

    /// Exact-match blocking round trip through the provided conveniences.
    pub fn blocking_roundtrip<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(4096);
        let recv = b
            .post_recv(a.local_id(), Tag(1), 4096, TruncationPolicy::Error)
            .unwrap();
        let sent = a
            .send_blocking(b.local_id(), Tag(1), data.clone(), TIMEOUT)
            .expect("send completed");
        assert_eq!(sent, 4096);
        let done = b.wait(OpId::Recv(recv), TIMEOUT).expect("recv completed");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.data.as_deref(), Some(&data[..]));
        assert_eq!(
            b.recv_blocking(a.local_id(), Tag(1), 16, Duration::from_millis(50)),
            None,
            "nothing further was sent"
        );
    }

    /// Wildcard receive reports the concrete source and tag.
    pub fn wildcard_receive<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(4096);
        let wild = b
            .post_recv(ANY_SOURCE, ANY_TAG, 4096, TruncationPolicy::Error)
            .unwrap();
        a.send_blocking(b.local_id(), Tag(42), data.clone(), TIMEOUT)
            .expect("wildcard send");
        let done = b.wait(OpId::Recv(wild), TIMEOUT).expect("wildcard recv");
        assert_eq!(done.peer, a.local_id());
        assert_eq!(done.tag, Tag(42));
        assert_eq!(done.data.as_deref(), Some(&data[..]));
    }

    /// Caller-owned buffer: the multi-fragment pull path lands in caller
    /// storage and the buffer comes back in the completion.
    pub fn recv_into_buffer<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(4096);
        let op = b
            .post_recv_into(
                a.local_id(),
                Tag(2),
                RecvBuf::with_capacity(4096),
                TruncationPolicy::Error,
            )
            .unwrap();
        a.send_blocking(b.local_id(), Tag(2), data.clone(), TIMEOUT)
            .expect("recv_into send");
        let done = b.wait(OpId::Recv(op), TIMEOUT).expect("recv_into recv");
        assert_eq!(done.status, Status::Ok);
        let buf = done.buf.expect("buffer handed back");
        assert_eq!(buf.as_slice(), &data[..]);
    }

    /// Cancellation: the op completes Cancelled, never with data, and the
    /// message posted afterwards goes to the replacement receive.
    pub fn cancel_recv<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(4096);
        let doomed = b
            .post_recv(a.local_id(), Tag(3), 4096, TruncationPolicy::Error)
            .unwrap();
        assert!(b.cancel(doomed), "pending recv must cancel");
        assert!(!b.cancel(doomed), "stale handle must not cancel");
        let done = b.wait(OpId::Recv(doomed), TIMEOUT).expect("cancellation");
        assert_eq!(done.status, Status::Cancelled);
        let replacement = b
            .post_recv(a.local_id(), Tag(3), 4096, TruncationPolicy::Error)
            .unwrap();
        a.send_blocking(b.local_id(), Tag(3), data.clone(), TIMEOUT)
            .expect("post-cancel send");
        let done = b
            .wait(OpId::Recv(replacement), TIMEOUT)
            .expect("replacement");
        assert_eq!(done.data.as_deref(), Some(&data[..]));
    }

    /// cancel_send: a send whose pull never comes is reclaimed with a
    /// Cancelled completion (the pushed buffer is far smaller than 256 KiB,
    /// so a remainder is always registered for pulling, and no receive is
    /// ever posted to pull it).
    pub fn cancel_send_unpulled<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let unpulled = a
            .post_send(b.local_id(), Tag(99), payload(256 * 1024))
            .unwrap();
        assert!(a.cancel_send(unpulled), "unpulled send must cancel");
        assert!(!a.cancel_send(unpulled), "stale handle");
        let done = block_on(a.future(OpId::Send(unpulled)));
        assert_eq!(done.status, Status::Cancelled);
    }

    /// Too-small receive with `TruncationPolicy::Error` completes with an
    /// error and the next adequate receive gets the full message (the PR-1
    /// "poisoned message" regression).
    pub fn truncation_error_policy<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(8192);
        a.post_send(b.local_id(), Tag(11), data.clone()).unwrap();
        let small = b
            .post_recv(a.local_id(), Tag(11), 64, TruncationPolicy::Error)
            .unwrap();
        let failed = b
            .wait(OpId::Recv(small), TIMEOUT)
            .expect("too-small receive never completed");
        assert!(
            matches!(
                failed.status,
                Status::Error(Error::ReceiveTooSmall {
                    posted: 64,
                    incoming: 8192
                })
            ),
            "unexpected status {:?}",
            failed.status
        );
        // The message is unharmed: an adequate receive obtains every byte,
        // including the eager prefix the seed used to discard.
        let ok = b
            .post_recv(a.local_id(), Tag(11), 8192, TruncationPolicy::Error)
            .unwrap();
        let done = b
            .wait(OpId::Recv(ok), TIMEOUT)
            .expect("adequate receive hung (poisoned message)");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.data.as_deref(), Some(&data[..]));
    }

    /// `TruncationPolicy::Truncate` completes with `Status::Truncated` and
    /// the prefix that fits, consuming the message.
    pub fn truncation_truncate_policy<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(8192);
        a.post_send(b.local_id(), Tag(12), data.clone()).unwrap();
        let op = b
            .post_recv(a.local_id(), Tag(12), 100, TruncationPolicy::Truncate)
            .unwrap();
        let done = b
            .wait(OpId::Recv(op), TIMEOUT)
            .expect("truncating receive never completed");
        assert_eq!(done.status, Status::Truncated { message_len: 8192 });
        assert_eq!(done.len, 100);
        assert_eq!(done.data.as_deref(), Some(&data[..100]));
    }

    /// A vectored send delivers the concatenation of its segments — blocking
    /// and async alike — including empty segments.
    pub fn vectored_send<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let segments = vec![
            payload(100),
            Bytes::new(),
            payload(3000).slice(7..2500),
            payload(13),
        ];
        let expected: Vec<u8> = segments.iter().flat_map(|s| s.iter().copied()).collect();
        let recv = b
            .post_recv(
                a.local_id(),
                Tag(21),
                expected.len(),
                TruncationPolicy::Error,
            )
            .unwrap();
        let send = a
            .post_send_vectored(b.local_id(), Tag(21), &segments)
            .unwrap();
        let done = b.wait(OpId::Recv(recv), TIMEOUT).expect("vectored recv");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.data.as_deref(), Some(&expected[..]));
        assert_eq!(
            a.wait(OpId::Send(send), TIMEOUT).map(|c| c.len),
            Some(expected.len())
        );

        // Async flavour, reassembled into a caller buffer.
        block_on(async {
            let recv = b
                .recv_into(
                    a.local_id(),
                    Tag(22),
                    RecvBuf::with_capacity(expected.len()),
                    TruncationPolicy::Error,
                )
                .unwrap();
            a.send_vectored(b.local_id(), Tag(22), &segments)
                .unwrap()
                .await;
            let done = recv.await;
            assert_eq!(done.status, Status::Ok);
            assert_eq!(done.buf.expect("buffer back").as_slice(), &expected[..]);
        });
    }

    /// The borrowed completion drain: a multi-fragment pulled receive is
    /// inspected — status, peer, full payload — **without** its `RecvBuf`
    /// leaving the queue, then claimed intact; fire-and-forget send results
    /// are retired in place with `Claim::Remove`.
    pub fn peek_completions_borrowed<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(8192); // several max-payload fragments, pulled
        let recv = b
            .post_recv_into(
                a.local_id(),
                Tag(31),
                RecvBuf::with_capacity(8192),
                TruncationPolicy::Error,
            )
            .unwrap();
        let send = a.post_send(b.local_id(), Tag(31), data.clone()).unwrap();
        // Wait on the *send* only: the receive completion must sit in b's
        // queue unawaited, where the peek can legally see it.
        assert!(a.wait(OpId::Send(send), TIMEOUT).is_some());

        // The UDP backend publishes b's completion from its reception
        // thread; poll the peek until it shows up (instant elsewhere).
        let deadline = std::time::Instant::now() + TIMEOUT;
        let mut seen = false;
        while !seen && std::time::Instant::now() < deadline {
            b.peek_completions(|completion| {
                if completion.op == OpId::Recv(recv) {
                    seen = true;
                    // Inspect in place: the payload is visible through the
                    // borrowed RecvBuf, data stays engine-free, nothing moves.
                    assert_eq!(completion.status, Status::Ok);
                    assert_eq!(completion.peer, a.local_id());
                    assert!(completion.data.is_none());
                    let buf = completion.buf.as_ref().expect("caller buffer present");
                    assert_eq!(buf.as_slice(), &data[..]);
                }
                Claim::Keep
            });
            if !seen {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert!(seen, "peek never observed the pulled receive");
        // Keep preserved it: the completion is still claimable, buffer intact.
        let done = b
            .take_completion(OpId::Recv(recv))
            .expect("kept completion still claimable");
        assert_eq!(done.buf.expect("buffer intact").as_slice(), &data[..]);

        // Claim::Remove retires fire-and-forget results in place.
        let fire = a.post_send(b.local_id(), Tag(33), payload(8)).unwrap();
        let deadline = std::time::Instant::now() + TIMEOUT;
        let mut removed = false;
        while !removed && std::time::Instant::now() < deadline {
            a.peek_completions(|completion| {
                if completion.op == OpId::Send(fire) {
                    removed = true;
                    Claim::Remove
                } else {
                    Claim::Keep
                }
            });
            if !removed {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert!(removed, "peek never observed the fire-and-forget send");
        assert!(
            a.take_completion(OpId::Send(fire)).is_none(),
            "removed completion must be gone"
        );
    }

    /// Batch draining returns results oldest-first and leaves nothing behind.
    pub fn drain_completions_batch<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(64);
        for tag in [41u32, 42, 43] {
            let recv = b
                .post_recv(a.local_id(), Tag(tag), 64, TruncationPolicy::Error)
                .unwrap();
            a.send_blocking(b.local_id(), Tag(tag), data.clone(), TIMEOUT)
                .expect("send");
            b.wait(OpId::Recv(recv), TIMEOUT).expect("recv");
        }
        let mut leftovers = Vec::new();
        b.drain_completions(&mut leftovers);
        assert!(
            leftovers.iter().all(|c| matches!(c.op, OpId::Send(_))),
            "no receive completions may linger after their waits"
        );
    }

    /// Overlapped async exchange: completions resolve by operation, not
    /// posting order, and a caller buffer is recycled across awaits.
    pub fn async_overlap<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        let data = payload(4096);
        let (one, two) = block_on(async {
            let first = b
                .recv(a.local_id(), Tag(51), 4096, TruncationPolicy::Error)
                .unwrap();
            let second = b
                .recv(ANY_SOURCE, ANY_TAG, 4096, TruncationPolicy::Error)
                .unwrap();
            let s1 = a.send(b.local_id(), Tag(51), data.clone()).unwrap();
            let s2 = a.send(b.local_id(), Tag(52), data.clone()).unwrap();
            let two = second.await;
            let one = first.await;
            s2.await;
            s1.await;
            (one, two)
        });
        assert_eq!(one.status, Status::Ok);
        assert_eq!(one.data.as_deref(), Some(&data[..]));
        assert_eq!(two.tag, Tag(52), "wildcard reports concrete tag");
        assert_eq!(two.data.as_deref(), Some(&data[..]));

        block_on(async {
            let mut buf = RecvBuf::with_capacity(4096);
            for round in 0..2 {
                let recv = b
                    .recv_into(a.local_id(), Tag(53), buf, TruncationPolicy::Error)
                    .unwrap();
                a.send(b.local_id(), Tag(53), data.clone()).unwrap().await;
                let done = recv.await;
                assert!(matches!(done.status, Status::Ok), "round {round}");
                buf = done.buf.expect("buffer handed back");
                assert_eq!(buf.as_slice(), &data[..], "round {round}");
            }
        });
    }

    /// The per-endpoint retention cap is live-applicable and its evictions
    /// are surfaced through `EndpointStats::completions_evicted`.
    pub fn retention_cap_and_evicted_stat<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
        a.apply_config(&EndpointConfig::new().completion_retention(4));
        let evicted_before = a.stats().completions_evicted;
        // 16 fire-and-forget eager sends: tiny messages are pushed whole, so
        // each send's completion is published *inside* `post_send`, on the
        // posting thread, on every backend — by the time the loop ends, all
        // 16 completions have passed through the queue deterministically and
        // all but the newest 4 have been evicted.  (Receives are posted up
        // front only to keep the messages from lingering as unexpected.)
        let receives: Vec<_> = (0..16)
            .map(|_| {
                b.post_recv(a.local_id(), Tag(61), 8, TruncationPolicy::Error)
                    .unwrap()
            })
            .collect();
        for _ in 0..16 {
            a.post_send(b.local_id(), Tag(61), payload(8)).unwrap();
        }
        let mut drained = Vec::new();
        a.drain_completions(&mut drained);
        let evicted = a.stats().completions_evicted - evicted_before;
        assert_eq!(drained.len(), 4, "cap 4 ⇒ exactly the newest 4 retained");
        assert_eq!(evicted, 12, "12 evictions surfaced in stats");
        for recv in receives {
            b.wait(OpId::Recv(recv), TIMEOUT).expect("recv completed");
        }
    }
}

mod setup {
    use super::*;

    pub fn intranode_pair() -> (Endpoint<HostEndpoint>, Endpoint<HostEndpoint>) {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(128 * 1024),
        );
        (
            Endpoint::new(cluster.add_endpoint(0)),
            Endpoint::new(cluster.add_endpoint(1)),
        )
    }

    pub fn loopback_pair() -> (Endpoint<LoopbackEndpoint>, Endpoint<LoopbackEndpoint>) {
        let cluster =
            LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024));
        (
            Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0))),
            Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0))),
        )
    }

    /// The chaos cluster at a fixed seed: every contract must also hold
    /// with drops, duplicates, reordering, delay jitter, and scheduled
    /// partitions between the two endpoints (`tests/chaos.rs` sweeps the
    /// same behaviours across many seeds).
    pub fn chaos_pair() -> (Endpoint<ChaosEndpoint>, Endpoint<ChaosEndpoint>) {
        chaos_pair_with(ReliabilityMode::GoBackN)
    }

    /// The chaos pair again with selective repeat driving every channel:
    /// SACK-based recovery must satisfy the identical contracts.
    pub fn chaos_sr_pair() -> (Endpoint<ChaosEndpoint>, Endpoint<ChaosEndpoint>) {
        chaos_pair_with(ReliabilityMode::SelectiveRepeat)
    }

    fn chaos_pair_with(
        mode: ReliabilityMode,
    ) -> (Endpoint<ChaosEndpoint>, Endpoint<ChaosEndpoint>) {
        let cluster = ChaosCluster::new(
            ProtocolConfig::paper_internode()
                .with_pushed_buffer(128 * 1024)
                .with_reliability(mode),
            ChaosConfig::new(0xC0FFEE),
        );
        (
            Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0))),
            Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0))),
        )
    }

    /// One reactor event loop shared by every reactor-backend case: the
    /// suite doubles as a many-endpoints-on-one-loop stress (each case
    /// adds a fresh pair, and dropped pairs must deregister cleanly).
    fn reactor() -> &'static Reactor {
        static REACTOR: std::sync::OnceLock<Reactor> = std::sync::OnceLock::new();
        REACTOR.get_or_init(|| Reactor::new().expect("spawn reactor"))
    }

    pub fn reactor_pair() -> (Endpoint<ReactorEndpoint>, Endpoint<ReactorEndpoint>) {
        reactor_pair_with(ReliabilityMode::GoBackN)
    }

    /// Selective repeat over the reactor: both halves of the PR-7
    /// subsystem (batched event loop + SACK reliability) under the full
    /// contract suite at once.
    pub fn reactor_sr_pair() -> (Endpoint<ReactorEndpoint>, Endpoint<ReactorEndpoint>) {
        reactor_pair_with(ReliabilityMode::SelectiveRepeat)
    }

    fn reactor_pair_with(
        mode: ReliabilityMode,
    ) -> (Endpoint<ReactorEndpoint>, Endpoint<ReactorEndpoint>) {
        let proto = ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024);
        let config = EndpointConfig::new().reliability(mode);
        let r = reactor();
        let a = r
            .add_endpoint_with(ProcessId::new(0, 0), proto.clone(), "127.0.0.1:0", &config)
            .unwrap();
        let b = r
            .add_endpoint_with(ProcessId::new(1, 0), proto, "127.0.0.1:0", &config)
            .unwrap();
        a.add_peer(b.id(), b.local_addr().unwrap());
        b.add_peer(a.id(), a.local_addr().unwrap());
        (Endpoint::new(a), Endpoint::new(b))
    }
}

/// Instantiates every conformance case as a `#[test]` for one backend.
/// Each test builds a fresh pair so the cases stay independent.
macro_rules! conformance_suite {
    ($backend:ident, $setup:path) => {
        mod $backend {
            use super::*;

            macro_rules! case {
                ($name:ident) => {
                    #[test]
                    fn $name() {
                        let (a, b) = $setup();
                        cases::$name(&a, &b);
                    }
                };
            }

            case!(blocking_roundtrip);
            case!(wildcard_receive);
            case!(recv_into_buffer);
            case!(cancel_recv);
            case!(cancel_send_unpulled);
            case!(truncation_error_policy);
            case!(truncation_truncate_policy);
            case!(vectored_send);
            case!(peek_completions_borrowed);
            case!(drain_completions_batch);
            case!(async_overlap);
            case!(retention_cap_and_evicted_stat);
        }
    };
}

conformance_suite!(intranode, setup::intranode_pair);
conformance_suite!(loopback, setup::loopback_pair);
conformance_suite!(chaos, setup::chaos_pair);
conformance_suite!(chaos_selective_repeat, setup::chaos_sr_pair);
conformance_suite!(reactor, setup::reactor_pair);
conformance_suite!(reactor_selective_repeat, setup::reactor_sr_pair);
