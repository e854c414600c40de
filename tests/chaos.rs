//! The chaos sweeps: the conformance and collective behaviours re-executed
//! across many seeds of the deterministic fault plane
//! (`ppmsg_sim::chaos::ChaosCluster`) — drops, duplicates, reordering,
//! delay jitter, and scheduled partition-and-heal windows, all recoverable
//! through go-back-N retransmission on the virtual clock.
//!
//! Any failing seed is reported with replay instructions
//! (`ChaosConfig::new(seed)`); re-running a single seed reproduces the run
//! byte for byte.  Knobs:
//!
//! * `CHAOS_SEEDS=n` — number of seeds per sweep (CI uses 256; the local
//!   default totals 1100 across the two sweeps).
//! * `CHAOS_SEED_START=s` — first seed, for replaying one failure.
//! * `CHAOS_REPORT=path` — append rendered sweep reports to a file.
//!
//! The sweep has teeth: `sabotaged_retransmission_fails_the_sweep` disables
//! one timer re-arm in the go-back-N channel and asserts the sweep catches
//! it within the first few hundred seeds.

use bytes::Bytes;
use proptest::prelude::*;
use push_pull_messaging::coll::Group;
use push_pull_messaging::core::{Error, ANY_SOURCE, ANY_TAG};
use push_pull_messaging::prelude::*;
use push_pull_messaging::sim::chaos::{seed_start_from_env, seeds_from_env, sweep, TraceKind};
use push_pull_messaging::simnet::fault::{
    derive_seed, DelayModel, DuplicateModel, PartitionSchedule, ReorderModel,
};
use push_pull_messaging::simnet::loss::LossModel;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

/// Virtual-clock cluster: posts return with recovery already driven to
/// quiescence, so the timeout only bounds genuine failures.
const TIMEOUT: Duration = Duration::from_secs(30);

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 13 % 251) as u8).collect::<Vec<u8>>())
}

fn proto() -> ProtocolConfig {
    ProtocolConfig::paper_internode().with_pushed_buffer(1 << 20)
}

/// The same protocol with selective repeat driving every internode
/// channel: the sweeps must hold under SACK-based recovery too.
fn proto_sr() -> ProtocolConfig {
    proto().with_reliability(ReliabilityMode::SelectiveRepeat)
}

// ---------------------------------------------------------------------------
// Conformance sweep: point-to-point contracts under every fault type
// ---------------------------------------------------------------------------

/// One seed of the conformance sweep: a three-process cluster (two
/// processes sharing node 0, one on node 1) running the point-to-point
/// contracts — exact match, late receive, wildcard, caller buffers, both
/// truncation policies, vectored sends, and a same-tag ordering stress —
/// with sizes varied by the seed.
fn conformance_scenario(seed: u64) {
    conformance_scenario_with(seed, proto())
}

/// The conformance workload with selective-repeat channels.
fn conformance_scenario_sr(seed: u64) {
    conformance_scenario_with(seed, proto_sr())
}

fn conformance_scenario_with(seed: u64, protocol: ProtocolConfig) {
    let cluster = ChaosCluster::new(protocol, ChaosConfig::new(seed));
    let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));
    let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));

    // Exact-match internode round trip, size varied by seed (spanning the
    // eager threshold and multi-fragment pulls).
    let len = 512 + (seed % 7919) as usize;
    let data = payload(len);
    let recv = c
        .post_recv(a.local_id(), Tag(1), len, TruncationPolicy::Error)
        .unwrap();
    let send = a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
    let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("exact-match recv");
    assert_eq!(done.status, Status::Ok);
    assert_eq!(done.data.as_deref(), Some(&data[..]));
    assert!(a.wait(OpId::Send(send), TIMEOUT).is_some());

    // Late receive: the message arrives unexpected and is claimed afterwards.
    let late = payload(2048);
    b.post_send(c.local_id(), Tag(2), late.clone()).unwrap();
    let recv = c
        .post_recv(b.local_id(), Tag(2), 2048, TruncationPolicy::Error)
        .unwrap();
    let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("late recv");
    assert_eq!(done.data.as_deref(), Some(&late[..]));

    // Wildcard reports the concrete source and tag.
    let wild = c
        .post_recv(ANY_SOURCE, ANY_TAG, 1024, TruncationPolicy::Error)
        .unwrap();
    a.post_send(c.local_id(), Tag(42), payload(1024)).unwrap();
    let done = c.wait(OpId::Recv(wild), TIMEOUT).expect("wildcard recv");
    assert_eq!(done.peer, a.local_id());
    assert_eq!(done.tag, Tag(42));

    // Caller-owned buffer over the multi-fragment pull path.
    let big = payload(8192);
    let recv = a
        .post_recv_into(
            c.local_id(),
            Tag(3),
            RecvBuf::with_capacity(8192),
            TruncationPolicy::Error,
        )
        .unwrap();
    c.post_send(a.local_id(), Tag(3), big.clone()).unwrap();
    let done = a.wait(OpId::Recv(recv), TIMEOUT).expect("recv_into");
    assert_eq!(done.status, Status::Ok);
    assert_eq!(done.buf.expect("buffer back").as_slice(), &big[..]);

    // Truncation: the error policy leaves the message intact for the next
    // adequate receive; the truncate policy consumes it.
    a.post_send(c.local_id(), Tag(4), big.clone()).unwrap();
    let small = c
        .post_recv(a.local_id(), Tag(4), 64, TruncationPolicy::Error)
        .unwrap();
    let failed = c.wait(OpId::Recv(small), TIMEOUT).expect("too-small recv");
    assert!(matches!(
        failed.status,
        Status::Error(Error::ReceiveTooSmall { .. })
    ));
    let ok = c
        .post_recv(a.local_id(), Tag(4), 8192, TruncationPolicy::Error)
        .unwrap();
    let done = c.wait(OpId::Recv(ok), TIMEOUT).expect("adequate recv");
    assert_eq!(done.data.as_deref(), Some(&big[..]));
    b.post_send(c.local_id(), Tag(5), big.clone()).unwrap();
    let trunc = c
        .post_recv(b.local_id(), Tag(5), 100, TruncationPolicy::Truncate)
        .unwrap();
    let done = c.wait(OpId::Recv(trunc), TIMEOUT).expect("truncating recv");
    assert_eq!(done.status, Status::Truncated { message_len: 8192 });
    assert_eq!(done.data.as_deref(), Some(&big[..100]));

    // Vectored send delivers the concatenation of its segments.
    let segments = vec![payload(100), Bytes::new(), payload(3000).slice(7..2500)];
    let expected: Vec<u8> = segments.iter().flat_map(|s| s.iter().copied()).collect();
    let recv = c
        .post_recv(
            a.local_id(),
            Tag(6),
            expected.len(),
            TruncationPolicy::Error,
        )
        .unwrap();
    a.post_send_vectored(c.local_id(), Tag(6), &segments)
        .unwrap();
    let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("vectored recv");
    assert_eq!(done.data.as_deref(), Some(&expected[..]));

    // Same-tag ordering stress: matching order must survive reordering and
    // duplication on the wire (go-back-N re-serializes the link).
    let burst: Vec<Bytes> = (0..6)
        .map(|i| payload(256 + 617 * i + (seed % 257) as usize))
        .collect();
    for msg in &burst {
        a.post_send(c.local_id(), Tag(7), msg.clone()).unwrap();
    }
    for msg in &burst {
        let recv = c
            .post_recv(a.local_id(), Tag(7), msg.len(), TruncationPolicy::Error)
            .unwrap();
        let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("burst recv");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.data.as_deref(), Some(&msg[..]), "same-tag FIFO order");
    }

    // Intranode neighbours are outside the fault plane: a↔b still works and
    // completes over reliable shared memory.
    let recv = b
        .post_recv(a.local_id(), Tag(8), 4096, TruncationPolicy::Error)
        .unwrap();
    a.post_send(b.local_id(), Tag(8), payload(4096)).unwrap();
    assert!(b.wait(OpId::Recv(recv), TIMEOUT).is_some());
}

#[test]
fn conformance_sweep_across_seeds() {
    let start = seed_start_from_env(0);
    let n = seeds_from_env(700);
    sweep(start..start + n, conformance_scenario).assert_clean("conformance");
}

/// The full conformance sweep again with selective repeat on every
/// channel: SACK-bitmap recovery must survive the same drops, duplicates,
/// reordering, and partition-and-heal windows go-back-N does.
#[test]
fn conformance_sweep_across_seeds_selective_repeat() {
    let start = seed_start_from_env(0);
    let n = seeds_from_env(700);
    sweep(start..start + n, conformance_scenario_sr).assert_clean("conformance-sr");
}

// ---------------------------------------------------------------------------
// Collective sweep: tree collectives riding the same fault plane
// ---------------------------------------------------------------------------

/// A future that returns `Pending` (rescheduling itself) `n` times before
/// resolving, staggering rank arrival deterministically.
struct YieldN(usize);

impl Future for YieldN {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 == 0 {
            return Poll::Ready(());
        }
        self.0 -= 1;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Deterministic per-rank contribution, perturbed by the seed.
fn contribution(rank: usize, len: usize, seed: u64) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (rank * 37 + i * 11) as u8 ^ (seed as u8))
            .collect::<Vec<u8>>(),
    )
}

/// Associative, non-commutative, length-preserving combine (affine-map
/// composition over `Z_256`; see `tests/coll_conformance.rs`).
fn affine_combine(a: Bytes, b: Bytes) -> Bytes {
    assert_eq!(a.len(), b.len());
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
        out.push(a[a.len() - 1].wrapping_mul(b[b.len() - 1]));
    }
    Bytes::from(out)
}

/// Builds an `n`-rank group on a chaos cluster seeded with `seed`, spanning
/// several simulated nodes so internode links (and thus the fault plane)
/// carry collective traffic.
fn chaos_group(n: usize, id: u16, seed: u64) -> Vec<GroupMember<ChaosEndpoint>> {
    let cluster = ChaosCluster::new(proto(), ChaosConfig::new(seed));
    let ids: Vec<ProcessId> = (0..n)
        .map(|r| ProcessId::new((r / 3) as u32, (r % 3) as u32))
        .collect();
    let group = Group::new(id, ids.clone()).unwrap();
    ids.iter()
        .map(|&pid| {
            group
                .bind(Endpoint::new(cluster.add_endpoint(pid)))
                .unwrap()
        })
        .collect()
}

/// One seed of the collective sweep: `all_reduce` with a non-commutative
/// operator, a pipelined `broadcast`, and a `barrier`, with rank count,
/// payload size, root, and arrival stagger all varied by the seed.
fn collective_scenario(seed: u64) {
    let n = 4 + (seed % 4) as usize; // 4..=7 ranks over 2-3 nodes
    let len = 1 + (seed % 96) as usize;
    let root = (seed % n as u64) as usize;
    let members = chaos_group(n, 31, seed);
    let expected = (0..n)
        .map(|r| contribution(r, len, seed))
        .reduce(affine_combine)
        .unwrap();
    let bcast = contribution(root, len + 17, seed);

    let allreduce_results = Arc::new(Mutex::new(vec![None::<Bytes>; n]));
    let bcast_results = Arc::new(Mutex::new(vec![None::<Bytes>; n]));
    let mut driver = Driver::new();
    for member in members {
        let allreduce_results = allreduce_results.clone();
        let bcast_results = bcast_results.clone();
        let bcast = bcast.clone();
        driver.spawn(async move {
            let rank = member.rank();
            YieldN((seed as usize + rank * 3) % 7).await;
            let all = member
                .all_reduce(contribution(rank, len, seed), affine_combine)
                .await
                .expect("all_reduce");
            allreduce_results.lock().unwrap()[rank] = Some(all);
            let data = if rank == root { bcast } else { Bytes::new() };
            let got = member
                .broadcast(root, data, len + 17)
                .await
                .expect("broadcast");
            bcast_results.lock().unwrap()[rank] = Some(got);
            member.barrier().await.expect("barrier");
        });
    }
    driver.run();
    assert_eq!(driver.live(), 0, "all ranks completed");
    for got in allreduce_results.lock().unwrap().iter() {
        assert_eq!(got.as_ref().expect("rank finished"), &expected);
    }
    for got in bcast_results.lock().unwrap().iter() {
        assert_eq!(got.as_ref().expect("rank finished"), &bcast);
    }
}

#[test]
fn collective_sweep_across_seeds() {
    let start = seed_start_from_env(0);
    let n = seeds_from_env(400);
    sweep(start..start + n, collective_scenario).assert_clean("collectives");
}

// ---------------------------------------------------------------------------
// Replay, partitions, and the sweep's own teeth
// ---------------------------------------------------------------------------

/// The same seed replays the full conformance workload byte for byte: the
/// recorded event traces — timestamps, kinds, endpoints, and payload hashes
/// over the wire encodings — are identical across runs.
#[test]
fn same_seed_replays_byte_for_byte() {
    let run = |seed: u64| {
        let cluster = ChaosCluster::new(proto(), ChaosConfig::new(seed).with_trace());
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        let data = payload(20_000);
        let recv = c
            .post_recv(a.local_id(), Tag(1), 20_000, TruncationPolicy::Error)
            .unwrap();
        a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
        let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("recv");
        assert_eq!(done.data.as_deref(), Some(&data[..]));
        (cluster.trace_hash(), cluster.take_trace())
    };
    let (hash1, trace1) = run(2026);
    let (hash2, trace2) = run(2026);
    assert_eq!(hash1, hash2);
    assert_eq!(trace1, trace2, "same seed must replay identically");
    assert!(trace1.len() > 20, "the workload must generate real traffic");
    let (hash3, _) = run(2027);
    assert_ne!(hash1, hash3, "a different seed must steer differently");
}

/// A permanently partitioned peer produces a clean `ChannelFailed` error
/// completion on the sender — no hang — and the receiver's posted receive
/// can still be cancelled.
#[test]
fn permanent_partition_fails_cleanly() {
    let cluster = ChaosCluster::new(proto(), ChaosConfig::lossless(11));
    let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
    cluster.partition(a.local_id(), c.local_id());

    let recv = c
        .post_recv(a.local_id(), Tag(1), 64 * 1024, TruncationPolicy::Error)
        .unwrap();
    // Large enough to register for pulling: the pushed prefix never crosses
    // the partition, retries exhaust, and the pending send must fail.
    let send = a
        .post_send(c.local_id(), Tag(1), payload(64 * 1024))
        .unwrap();
    let done = a
        .wait(OpId::Send(send), TIMEOUT)
        .expect("send completed with an error instead of hanging");
    assert_eq!(
        done.status,
        Status::Error(Error::ChannelFailed { peer: c.local_id() })
    );
    assert_eq!(a.stats().channels_failed, 1);
    assert!(
        cluster.chaos_stats().partition_drops > 0,
        "the partition, not the engine, ate the frames"
    );

    // The receiver saw nothing; its receive is still pending and cancellable.
    assert!(c.cancel(recv), "unmatched receive cancels cleanly");
    let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("cancelled");
    assert_eq!(done.status, Status::Cancelled);

    // After healing, fresh traffic between the nodes flows again on a new
    // cluster-level route (the failed go-back-N channel stays dead, which
    // is the declared contract).
    cluster.heal(a.local_id(), c.local_id());
}

/// The wedge detector gives the sweep teeth: disabling a single timer
/// re-arm in the go-back-N channel (via the engine's sabotage hook) must be
/// caught within the first few hundred seeds, reported as seed-labeled
/// wedge panics.
#[test]
fn sabotaged_retransmission_fails_the_sweep() {
    let report = sweep(0..300, |seed| {
        let mut cfg = ChaosConfig::new(seed).with_drop(0.3).with_partition(None);
        cfg.sabotage_skip_rearm = true;
        let cluster = ChaosCluster::new(proto(), cfg);
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        let data = payload(6_000);
        let recv = c
            .post_recv(a.local_id(), Tag(1), 6_000, TruncationPolicy::Error)
            .unwrap();
        a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
        // With the re-arm disabled, any timeout whose retransmission is
        // lost again wedges the channel; the wedge check converts that
        // into a panic naming the seed.  Seeds lucky enough to dodge the
        // double loss still complete.
        if let Some(done) = c.take_completion(OpId::Recv(recv)) {
            assert_eq!(done.data.as_deref(), Some(&data[..]));
        }
    });
    assert_eq!(report.seeds_run, 300);
    assert!(
        !report.failures.is_empty(),
        "a disabled retransmission re-arm must be caught within 300 seeds"
    );
    assert!(
        report.failures.iter().any(|f| f.message.contains("wedged")),
        "failures must come from the wedge detector: {:?}",
        report.failures.first()
    );
    // Sanity: the same sabotage off → the same seeds pass.
    let clean = sweep(0..report.failures[0].seed + 1, |seed| {
        let cfg = ChaosConfig::new(seed).with_drop(0.3).with_partition(None);
        let cluster = ChaosCluster::new(proto(), cfg);
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        let data = payload(6_000);
        let recv = c
            .post_recv(a.local_id(), Tag(1), 6_000, TruncationPolicy::Error)
            .unwrap();
        a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
        let done = c.take_completion(OpId::Recv(recv)).expect("recovered");
        assert_eq!(done.data.as_deref(), Some(&data[..]));
    });
    assert!(
        clean.failures.is_empty(),
        "without sabotage the same seeds must pass: {:?}",
        clean.failures
    );
}

/// The wedge detector understands selective-repeat channels too: with the
/// single RTO timer's re-arm sabotaged, a seed that loses the
/// retransmission leaves unacked frames with no pending timer, and the
/// quiescence check must flag the channel — naming the mode — within the
/// first few hundred seeds.
#[test]
fn sabotaged_selective_repeat_fails_the_sweep() {
    let report = sweep(0..300, |seed| {
        let mut cfg = ChaosConfig::new(seed).with_drop(0.3).with_partition(None);
        cfg.sabotage_skip_rearm = true;
        let cluster = ChaosCluster::new(proto_sr(), cfg);
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        let data = payload(6_000);
        let recv = c
            .post_recv(a.local_id(), Tag(1), 6_000, TruncationPolicy::Error)
            .unwrap();
        a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
        if let Some(done) = c.take_completion(OpId::Recv(recv)) {
            assert_eq!(done.data.as_deref(), Some(&data[..]));
        }
    });
    assert_eq!(report.seeds_run, 300);
    assert!(
        !report.failures.is_empty(),
        "a disabled RTO re-arm must be caught within 300 seeds in SR mode"
    );
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.message.contains("wedged") && f.message.contains("selective-repeat")),
        "failures must come from the wedge detector and name the mode: {:?}",
        report.failures.first()
    );
}

// ---------------------------------------------------------------------------
// Proportionate recovery and live-only timers
// ---------------------------------------------------------------------------

/// The standing benchmark's fault mix: 5 % drop, 1 % duplication, 2 %
/// reordering, default jitter, no partitions.
fn benchmark_faults(seed: u64) -> ChaosConfig {
    ChaosConfig {
        drop_p: 0.05,
        duplicate_p: 0.01,
        reorder_p: 0.02,
        ..ChaosConfig::new(seed).with_partition(None)
    }
}

/// Selective repeat resends in proportion to what the network loses: over
/// 256 seeds of a 64 KiB transfer, retransmissions stay within 1.25x the
/// frames the fault plane dropped, and the receiving side sees at most two
/// duplicate frames per transfer (network duplicates included).
#[test]
fn selective_repeat_retransmits_in_proportion_to_loss() {
    const SEEDS: u64 = 256;
    const LEN: usize = 64 * 1024;
    let (mut retx, mut dropped, mut dups) = (0u64, 0u64, 0u64);
    for seed in 0..SEEDS {
        let cluster = ChaosCluster::new(proto_sr(), benchmark_faults(seed));
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        let data = payload(LEN);
        let recv = b
            .post_recv(a.local_id(), Tag(1), LEN, TruncationPolicy::Error)
            .unwrap();
        a.post_send(b.local_id(), Tag(1), data.clone()).unwrap();
        let done = b.wait(OpId::Recv(recv), TIMEOUT).expect("delivered");
        assert_eq!(done.data.as_deref(), Some(&data[..]), "seed {seed}");
        let (sa, sb) = (a.stats(), b.stats());
        retx += sa.retransmits + sb.retransmits;
        dups += sa.duplicate_frames + sb.duplicate_frames;
        dropped += cluster.chaos_stats().frames_dropped;
    }
    assert!(dropped > 0, "the fault plane must drop something");
    assert!(
        retx * 4 <= dropped * 5,
        "{retx} retransmissions for {dropped} dropped frames over {SEEDS} seeds"
    );
    assert!(
        dups <= 2 * SEEDS,
        "{dups} duplicate frames over {SEEDS} transfers"
    );
}

/// Runs `scenario` on a fresh thread named `name` and returns that thread's
/// flight-recorder events (each thread records into its own ring).
#[cfg(feature = "telemetry")]
fn recorded_on_own_thread(
    name: &str,
    scenario: impl FnOnce() + Send + 'static,
) -> Vec<push_pull_messaging::core::telemetry::Event> {
    use push_pull_messaging::core::telemetry::snapshot;
    std::thread::Builder::new()
        .name(name.into())
        .spawn(scenario)
        .unwrap()
        .join()
        .unwrap();
    let ring = snapshot()
        .rings
        .into_iter()
        .find(|ring| ring.name == name)
        .expect("the scenario recorded events");
    assert_eq!(ring.dropped, 0, "the ring must hold the whole run");
    ring.events
}

/// The chaos router dispatches only timers that are still armed: a lossy
/// run in either reliability mode fires real retransmission timeouts but
/// never hands a channel a superseded generation.
#[cfg(feature = "telemetry")]
#[test]
fn chaos_router_dispatches_only_live_timers() {
    use push_pull_messaging::core::telemetry::EventKind;
    for (mode, protocol) in [("gbn", proto()), ("sr", proto_sr())] {
        let events = recorded_on_own_thread(&format!("live-timers-{mode}"), move || {
            let cfg = ChaosConfig::new(5).with_drop(0.2).with_partition(None);
            let cluster = ChaosCluster::new(protocol, cfg);
            let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
            let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
            for i in 0..4 {
                let data = payload(6_000 + 1_000 * i);
                let recv = c
                    .post_recv(a.local_id(), Tag(1), data.len(), TruncationPolicy::Error)
                    .unwrap();
                a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
                let done = c.wait(OpId::Recv(recv), TIMEOUT).expect("recovered");
                assert_eq!(done.data.as_deref(), Some(&data[..]));
            }
            assert!(a.stats().rto_retransmits > 0, "timeouts must have fired");
        });
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        assert!(count(EventKind::TimerFire) > 0, "{mode}: no timer fired");
        assert_eq!(
            count(EventKind::TimerStale),
            0,
            "{mode}: stale timer dispatched"
        );
    }
}

/// A cancelled timer costs nothing: once the last ack cancels the
/// retransmission timer, the run ends at the virtual time of that last
/// frame instead of one retransmission timeout later.
#[test]
fn cancelled_timer_does_not_stretch_quiescence() {
    let protocol = proto();
    let rto_us = protocol.gbn.rto_us;
    let cluster = ChaosCluster::new(protocol, ChaosConfig::lossless(8).with_trace());
    let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
    let recv = c
        .post_recv(a.local_id(), Tag(1), 64, TruncationPolicy::Error)
        .unwrap();
    a.post_send(c.local_id(), Tag(1), payload(64)).unwrap();
    assert!(c.wait(OpId::Recv(recv), TIMEOUT).is_some());
    let trace = cluster.take_trace();
    let last = trace.last().expect("the send crossed the wire");
    assert_eq!(last.kind, TraceKind::Frame, "the run ends with the ack");
    assert!(
        trace.iter().all(|r| r.kind != TraceKind::Timer),
        "no timer fires on a lossless link"
    );
    assert_eq!(cluster.now_us(), last.at_us);
    assert!(cluster.now_us() < rto_us);
}

// ---------------------------------------------------------------------------
// Fault-model determinism (satellite: proptest over the simnet models)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every fault model replays an identical decision sequence for an
    /// identical seed, and (overwhelmingly) a different one for a different
    /// seed — the property the whole chaos harness rests on.
    #[test]
    fn fault_models_are_seed_deterministic(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        p_millis in 200u64..800,
    ) {
        // The vendored proptest has no `prop_assume`; nudge a colliding
        // pair apart instead (xor with a non-zero constant cannot be the
        // identity).
        let seed_b = if seed_a == seed_b { seed_b ^ 0xDEAD_BEEF } else { seed_b };
        let p = p_millis as f64 / 1000.0;

        type DecisionLog = (Vec<bool>, Vec<bool>, Vec<Option<u64>>, Vec<u64>, Vec<bool>);
        fn decisions(seed: u64, p: f64) -> DecisionLog {
            let mut loss = LossModel::bernoulli(p, derive_seed(seed, 1));
            let mut dup = DuplicateModel::new(p, derive_seed(seed, 2));
            let mut reorder = ReorderModel::new(p, 500, derive_seed(seed, 3));
            let mut delay = DelayModel::new(30, 700, derive_seed(seed, 4));
            let mut partition =
                PartitionSchedule::new(derive_seed(seed, 5), (50, 400), (20, 300));
            let mut drops = Vec::new();
            let mut dups = Vec::new();
            let mut holds = Vec::new();
            let mut delays = Vec::new();
            let mut blocked = Vec::new();
            for step in 0..256u64 {
                drops.push(loss.should_drop());
                dups.push(dup.should_duplicate());
                holds.push(reorder.hold_us());
                delays.push(delay.delay_us());
                blocked.push(partition.blocked(step * 37));
            }
            (drops, dups, holds, delays, blocked)
        }

        let first = decisions(seed_a, p);
        let second = decisions(seed_a, p);
        prop_assert_eq!(&first, &second, "identical seeds must replay identically");

        let other = decisions(seed_b, p);
        prop_assert_ne!(
            &first, &other,
            "256 decisions at p in [0.2, 0.8] colliding across seeds is a broken derivation"
        );
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder dump on failure (the PR-10 observability contract)
// ---------------------------------------------------------------------------

/// A failing seed must leave behind a replayable chrome://tracing dump whose
/// events span the channel, timer, and engine layers — the acceptance
/// criterion for the always-on flight recorder.  The sabotaged re-arm forces
/// a wedge within the first few hundred seeds; the wedge panic names the
/// dump file it wrote.
#[cfg(feature = "telemetry")]
#[test]
fn failed_seed_dumps_a_loadable_flight_recorder_trace() {
    let report = sweep(0..300, |seed| {
        let mut cfg = ChaosConfig::new(seed).with_drop(0.3).with_partition(None);
        cfg.sabotage_skip_rearm = true;
        let cluster = ChaosCluster::new(proto(), cfg);
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        let data = payload(6_000);
        let recv = c
            .post_recv(a.local_id(), Tag(1), 6_000, TruncationPolicy::Error)
            .unwrap();
        a.post_send(c.local_id(), Tag(1), data.clone()).unwrap();
        if let Some(done) = c.take_completion(OpId::Recv(recv)) {
            assert_eq!(done.data.as_deref(), Some(&data[..]));
        }
    });
    let failure = report
        .failures
        .iter()
        .find(|f| f.message.contains("wedged"))
        .expect("the sabotaged re-arm must wedge within 300 seeds");

    // The panic message names both the stalled channel's stats and the dump.
    assert!(
        failure.message.contains("stalled channel stats"),
        "wedge report must print the channel stats: {}",
        failure.message
    );
    let path = failure
        .message
        .split("flight recorder dump: ")
        .nth(1)
        .expect("wedge report must name its dump file")
        .trim();
    assert!(
        !path.starts_with("<failed"),
        "dump must have been written: {path}"
    );

    let json = std::fs::read_to_string(path).expect("dump file readable");
    // chrome://tracing / Perfetto load a JSON array of event records.
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces — structurally loadable"
    );
    // Events from all three instrumented layers made it into the dump:
    // the ARQ channel (frames on the wire), the retransmission timers,
    // and the protocol engine (operation lifecycle).
    for name in ["frame_tx", "timer_arm", "op_posted"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "dump must contain {name} events"
        );
    }
    let _ = std::fs::remove_file(path);
}
