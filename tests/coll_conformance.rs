//! Conformance suite for the collectives subsystem: every behavioural
//! contract written **once** as generic case bodies over
//! `GroupMember<T: RawTransport>` and instantiated per backend (intranode
//! shared-memory fabric, UDP reactor, sim-cluster loopback) by the
//! `coll_conformance_suite!` macro — the same pattern the point-to-point
//! conformance tests use.
//!
//! Each case runs the group SPMD-style: one thread per rank, every rank
//! executing the same sequence of blocking collectives (the host backends'
//! natural mode; the deterministic single-threaded `Driver` mode is
//! exercised by the loopback-only tests at the bottom and by
//! `tests/coll_props.rs`).

use bytes::Bytes;
use push_pull_messaging::core::{Error, ANY_SOURCE, ANY_TAG, COLLECTIVE_TAG_BIT};
use push_pull_messaging::prelude::*;
use std::time::Duration;

/// Deterministic per-rank contribution.
fn contribution(rank: usize, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (rank * 37 + i * 11) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Associative, **non-commutative**, length-preserving combine: the payload
/// is a sequence of affine maps `x -> scale * x + shift` over `Z_256` (one
/// byte each), and combining composes them left-then-right.  Composition is
/// associative but not commutative, so a reduce that combined ranks out of
/// order would produce a different byte string.
fn affine_combine(a: Bytes, b: Bytes) -> Bytes {
    assert_eq!(a.len(), b.len(), "length-preserving contract");
    let mut out = Vec::with_capacity(a.len());
    let mut i = 0;
    while i + 1 < a.len() {
        let (a1, c1) = (a[i], a[i + 1]);
        let (a2, c2) = (b[i], b[i + 1]);
        out.push(a1.wrapping_mul(a2));
        out.push(a2.wrapping_mul(c1).wrapping_add(c2));
        i += 2;
    }
    if a.len() % 2 == 1 {
        // Odd trailing byte: compose as scale-only maps.
        out.push(a[a.len() - 1].wrapping_mul(b[b.len() - 1]));
    }
    Bytes::from(out)
}

/// The sequential rank-order left fold the tree reduction must equal.
fn fold_reference(n: usize, len: usize) -> Bytes {
    (0..n)
        .map(|r| contribution(r, len))
        .reduce(affine_combine)
        .expect("groups are non-empty")
}

/// Runs `f` as one thread per rank (SPMD).  A panic in any rank fails the
/// test through the scope join.
fn run<T: RawTransport + Send>(
    members: Vec<GroupMember<T>>,
    f: impl Fn(&GroupMember<T>) + Send + Sync,
) {
    std::thread::scope(|s| {
        let f = &f;
        for member in members {
            s.spawn(move || f(&member));
        }
    });
}

/// The shared case bodies, generic over the backend.
mod cases {
    use super::*;

    /// Broadcast delivers the root's payload to every rank, for every root.
    pub fn broadcast_all_roots<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            let n = m.group().size();
            for root in 0..n {
                let len = 64 + root * 17;
                let data = if m.rank() == root {
                    contribution(root, len)
                } else {
                    Bytes::new()
                };
                let got = m.broadcast_blocking(root, data, len).expect("broadcast");
                assert_eq!(got, contribution(root, len), "root {root}");
            }
        });
    }

    /// A payload far above the chunk size streams down the pipelined tree
    /// intact.
    pub fn broadcast_chunked_large<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        // Rebind under a small chunk size (group-uniform, like the member
        // order itself).
        let members: Vec<GroupMember<T>> = members
            .into_iter()
            .map(|m| {
                let group = m.group().with_chunk_size(1024);
                group.bind(m.into_endpoint()).unwrap()
            })
            .collect();
        run(members, |m| {
            let len = 16 * 1024 + 123; // 17 chunks, ragged tail
            let data = if m.rank() == 1 % m.group().size() {
                contribution(9, len)
            } else {
                Bytes::new()
            };
            let got = m
                .broadcast_blocking(1 % m.group().size(), data, len)
                .expect("chunked broadcast");
            assert_eq!(got, contribution(9, len));
        });
    }

    /// Reduce folds in rank order (non-commutative operator), to rank 0 and
    /// to a non-zero root; all_reduce delivers the fold everywhere.
    pub fn reduce_rank_ordered<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            let n = m.group().size();
            let len = 10;
            let expected = fold_reference(n, len);
            for root in [0, n - 1] {
                let got = m
                    .reduce_blocking(root, contribution(m.rank(), len), affine_combine)
                    .expect("reduce");
                if m.rank() == root {
                    assert_eq!(got.expect("root holds the fold"), expected, "root {root}");
                } else {
                    assert!(got.is_none(), "non-root rank got a result");
                }
            }
            let got = m
                .all_reduce_blocking(contribution(m.rank(), len), affine_combine)
                .expect("all_reduce");
            assert_eq!(got, expected);
        });
    }

    /// Scatter hands every rank its block; gather reassembles the original
    /// buffer in rank order — a full round trip through the vectored relay
    /// path, for root 0 and a non-zero root.
    pub fn gather_scatter_roundtrip<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            let n = m.group().size();
            let len = 96;
            let full: Bytes = Bytes::from(
                (0..n)
                    .flat_map(|r| contribution(r, len).to_vec())
                    .collect::<Vec<u8>>(),
            );
            for root in [0, 2 % n] {
                let data = if m.rank() == root {
                    full.clone()
                } else {
                    Bytes::new()
                };
                let mine = m.scatter_blocking(root, data, len).expect("scatter");
                assert_eq!(mine, contribution(m.rank(), len), "root {root}");
                let gathered = m.gather_blocking(root, mine).expect("gather");
                if m.rank() == root {
                    assert_eq!(gathered.expect("root gathers"), full, "root {root}");
                } else {
                    assert!(gathered.is_none());
                }
            }
        });
    }

    /// Every rank's personalized blocks reach exactly their addressee.
    pub fn all_to_all_exchange<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            let n = m.group().size();
            let len = 24;
            // Block for rank `to` from rank `from`: unique per pair.
            let block = |from: usize, to: usize| contribution(from * n + to, len);
            let blocks: Vec<Bytes> = (0..n).map(|to| block(m.rank(), to)).collect();
            let got = m.all_to_all_blocking(&blocks).expect("all_to_all");
            assert_eq!(got.len(), n);
            for (from, b) in got.iter().enumerate() {
                assert_eq!(*b, block(from, m.rank()), "from {from}");
            }
        });
    }

    /// Barriers complete for every rank, repeatedly, interleaved with other
    /// collectives (the ordering property itself is proven deterministically
    /// in `tests/coll_props.rs`).
    pub fn barrier_repeats<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            for round in 0..5u8 {
                m.barrier_blocking().expect("barrier");
                let got = m
                    .broadcast_blocking(
                        0,
                        if m.rank() == 0 {
                            Bytes::from(vec![round; 8])
                        } else {
                            Bytes::new()
                        },
                        8,
                    )
                    .expect("broadcast between barriers");
                assert_eq!(got, Bytes::from(vec![round; 8]));
            }
        });
    }

    /// A user wildcard receive posted *before* a collective neither steals
    /// collective traffic nor is consumed by it: the collective completes,
    /// and the wildcard then matches the next ordinary message.
    pub fn wildcard_does_not_steal<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            let n = m.group().size();
            let wild = (m.rank() != 0).then(|| {
                m.endpoint()
                    .post_recv(ANY_SOURCE, ANY_TAG, 4096, TruncationPolicy::Error)
                    .expect("wildcard recv")
            });
            // The broadcast sends reserved-tag messages to every rank; the
            // wildcard must not see them.
            let data = if m.rank() == 0 {
                contribution(0, 256)
            } else {
                Bytes::new()
            };
            let got = m.broadcast_blocking(0, data, 256).expect("broadcast");
            assert_eq!(got, contribution(0, 256));
            m.barrier_blocking().expect("barrier");
            if m.rank() == 0 {
                // Ordinary point-to-point traffic for every waiting wildcard.
                for to in 1..n {
                    let id = m.group().members()[to];
                    m.endpoint()
                        .send_blocking(id, Tag(5), contribution(to, 32), Duration::from_secs(30))
                        .expect("p2p send");
                }
            } else {
                let wild = wild.unwrap();
                let done = m
                    .endpoint()
                    .wait(OpId::Recv(wild), Duration::from_secs(30))
                    .expect("wildcard matched the p2p message");
                assert_eq!(done.status, Status::Ok);
                assert_eq!(done.tag, Tag(5), "wildcard saw a collective message");
                assert_eq!(done.data.as_deref(), Some(&contribution(m.rank(), 32)[..]));
            }
        });
    }

    /// Point-to-point traffic keeps flowing between collectives on the same
    /// endpoints.
    pub fn p2p_coexists_with_collectives<T: RawTransport + Send>(members: Vec<GroupMember<T>>) {
        run(members, |m| {
            let n = m.group().size();
            let next = m.group().members()[(m.rank() + 1) % n];
            let prev_rank = (m.rank() + n - 1) % n;
            m.barrier_blocking().expect("barrier in");
            let recv = m
                .endpoint()
                .post_recv(
                    m.group().members()[prev_rank],
                    Tag(77),
                    64,
                    TruncationPolicy::Error,
                )
                .expect("ring recv");
            m.endpoint()
                .send_blocking(
                    next,
                    Tag(77),
                    contribution(m.rank(), 64),
                    Duration::from_secs(30),
                )
                .expect("ring send");
            let done = m
                .endpoint()
                .wait(OpId::Recv(recv), Duration::from_secs(30))
                .expect("ring recv done");
            assert_eq!(done.data.as_deref(), Some(&contribution(prev_rank, 64)[..]));
            m.barrier_blocking().expect("barrier out");
        });
    }
}

mod setup {
    use super::*;

    pub fn intranode_group() -> Vec<GroupMember<HostEndpoint>> {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(512 * 1024),
        );
        let ids: Vec<ProcessId> = (0..4).map(|r| ProcessId::new(0, r)).collect();
        let group = Group::new(10, ids.clone()).unwrap();
        ids.iter()
            .map(|&id| {
                group
                    .bind(Endpoint::new(cluster.add_endpoint(id.local_rank)))
                    .unwrap()
            })
            .collect()
    }

    /// Four ranks on four nodes, every endpoint hosted by one reactor event
    /// loop shared by all the reactor cases (each case adds a fresh group;
    /// dropped groups must deregister cleanly).
    pub fn reactor_group() -> Vec<GroupMember<ReactorEndpoint>> {
        static REACTOR: std::sync::OnceLock<Reactor> = std::sync::OnceLock::new();
        let reactor = REACTOR.get_or_init(|| Reactor::new().expect("spawn reactor"));
        let proto = ProtocolConfig::paper_internode().with_pushed_buffer(512 * 1024);
        let endpoints: Vec<ReactorEndpoint> = (0..4)
            .map(|r| {
                reactor
                    .add_endpoint(ProcessId::new(r, 0), proto.clone(), "127.0.0.1:0")
                    .unwrap()
            })
            .collect();
        for a in &endpoints {
            for b in &endpoints {
                if a.id() != b.id() {
                    a.add_peer(b.id(), b.local_addr().unwrap());
                }
            }
        }
        let ids: Vec<ProcessId> = endpoints.iter().map(|e| e.id()).collect();
        let group = Group::new(11, ids).unwrap();
        endpoints
            .into_iter()
            .map(|e| group.bind(Endpoint::new(e)).unwrap())
            .collect()
    }

    /// Five ranks spread over three simulated nodes: the group mixes the
    /// intranode packet path and the internode go-back-N path inside single
    /// collectives.
    pub fn loopback_group() -> Vec<GroupMember<LoopbackEndpoint>> {
        let cluster =
            LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(512 * 1024));
        let ids: Vec<ProcessId> = (0..5u32).map(|r| ProcessId::new(r / 2, r % 2)).collect();
        let group = Group::new(12, ids.clone()).unwrap();
        ids.iter()
            .map(|&id| group.bind(Endpoint::new(cluster.add_endpoint(id))).unwrap())
            .collect()
    }
}

/// Instantiates every collective conformance case as a `#[test]` for one
/// backend; each test builds a fresh group so the cases stay independent.
macro_rules! coll_conformance_suite {
    ($backend:ident, $setup:path) => {
        mod $backend {
            use super::*;

            macro_rules! case {
                ($name:ident) => {
                    #[test]
                    fn $name() {
                        cases::$name($setup());
                    }
                };
            }

            case!(broadcast_all_roots);
            case!(broadcast_chunked_large);
            case!(reduce_rank_ordered);
            case!(gather_scatter_roundtrip);
            case!(all_to_all_exchange);
            case!(barrier_repeats);
            case!(wildcard_does_not_steal);
            case!(p2p_coexists_with_collectives);
        }
    };
}

coll_conformance_suite!(intranode, setup::intranode_group);
coll_conformance_suite!(reactor, setup::reactor_group);
coll_conformance_suite!(loopback, setup::loopback_group);

// ---------------------------------------------------------------------
// Non-SPMD contracts.
// ---------------------------------------------------------------------

/// The facade posting API refuses the reserved tag space, in every shape.
#[test]
fn reserved_tags_rejected_on_the_posting_api() {
    let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
    let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));
    let reserved = Tag(COLLECTIVE_TAG_BIT | 3);
    let data = Bytes::from(vec![1u8; 8]);
    assert!(matches!(
        a.post_send(b.local_id(), reserved, data.clone()),
        Err(Error::ReservedTag { .. })
    ));
    assert!(matches!(
        a.post_send_vectored(b.local_id(), reserved, std::slice::from_ref(&data)),
        Err(Error::ReservedTag { .. })
    ));
    assert!(matches!(
        b.post_recv(a.local_id(), reserved, 64, TruncationPolicy::Error),
        Err(Error::ReservedTag { .. })
    ));
    assert!(matches!(
        b.post_recv_into(
            a.local_id(),
            reserved,
            RecvBuf::with_capacity(64),
            TruncationPolicy::Error
        ),
        Err(Error::ReservedTag { .. })
    ));
    assert!(matches!(
        a.send(b.local_id(), reserved, data.clone()).err(),
        Some(Error::ReservedTag { .. })
    ));
    assert!(matches!(
        b.recv(a.local_id(), reserved, 64, TruncationPolicy::Error)
            .err(),
        Some(Error::ReservedTag { .. })
    ));
    // The wildcard selector itself stays usable.
    assert!(b
        .post_recv(ANY_SOURCE, ANY_TAG, 64, TruncationPolicy::Error)
        .is_ok());
}

/// Group misuse is reported, not deadlocked on: bad roots, non-members,
/// wrong-size roots.
#[test]
fn collective_misuse_is_reported() {
    let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
    let ids: Vec<ProcessId> = (0..2).map(|r| ProcessId::new(0, r)).collect();
    let group = Group::new(0, ids.clone()).unwrap();
    let outsider = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 9)));
    assert!(matches!(
        group.bind(outsider).err(),
        Some(Error::CollectiveMisuse { .. })
    ));
    let m = group
        .bind(Endpoint::new(cluster.add_endpoint(ids[0])))
        .unwrap();
    assert!(matches!(
        block_on(m.broadcast(7, Bytes::new(), 4)),
        Err(Error::CollectiveMisuse { .. })
    ));
    assert!(matches!(
        block_on(m.broadcast(0, Bytes::from(vec![1u8; 3]), 4)),
        Err(Error::CollectiveMisuse { .. })
    ));
    assert!(matches!(
        block_on(m.scatter(0, Bytes::from(vec![1u8; 3]), 4)),
        Err(Error::CollectiveMisuse { .. })
    ));
    assert!(matches!(
        block_on(m.all_to_all(&[Bytes::new(); 1])),
        Err(Error::CollectiveMisuse { .. })
    ));
}

/// Collectives run over type-erased backends too: a `Box<dyn RawTransport>`
/// group on one deterministic `Driver`.
#[test]
fn collectives_over_boxed_dyn_backends() {
    let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
    let ids: Vec<ProcessId> = (0..3).map(|r| ProcessId::new(0, r)).collect();
    let group = Group::new(42, ids.clone()).unwrap();
    let mut driver = Driver::new();
    for &id in &ids {
        let member = group
            .bind(Endpoint::new(cluster.add_endpoint(id)).boxed())
            .unwrap();
        driver.spawn(async move {
            let got = member
                .broadcast(
                    2,
                    if member.rank() == 2 {
                        contribution(2, 50)
                    } else {
                        Bytes::new()
                    },
                    50,
                )
                .await
                .unwrap();
            assert_eq!(got, contribution(2, 50));
            member.barrier().await.unwrap();
        });
    }
    driver.run();
    assert_eq!(driver.live(), 0);
}

/// A single-member group degenerates gracefully: every collective is a
/// local no-op returning the obvious value.
#[test]
fn singleton_group_collectives() {
    let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
    let id = ProcessId::new(0, 0);
    let group = Group::new(1, vec![id]).unwrap();
    let m = group.bind(Endpoint::new(cluster.add_endpoint(id))).unwrap();
    let data = contribution(0, 16);
    assert_eq!(
        block_on(m.broadcast(0, data.clone(), 16)).unwrap(),
        data.clone()
    );
    block_on(m.barrier()).unwrap();
    assert_eq!(
        block_on(m.reduce(0, data.clone(), affine_combine))
            .unwrap()
            .unwrap(),
        data.clone()
    );
    assert_eq!(
        block_on(m.all_reduce(data.clone(), affine_combine)).unwrap(),
        data.clone()
    );
    assert_eq!(
        block_on(m.gather(0, data.clone())).unwrap().unwrap(),
        data.clone()
    );
    assert_eq!(
        block_on(m.scatter(0, data.clone(), 16)).unwrap(),
        data.clone()
    );
    assert_eq!(
        block_on(m.all_to_all(std::slice::from_ref(&data))).unwrap(),
        vec![data]
    );
}
