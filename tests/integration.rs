//! Cross-crate integration tests: the protocol engine driven by the
//! simulator and by the host backend must agree on behaviour, heterogeneous
//! backends must be drivable behind one `Box<dyn RawTransport>` type, and
//! the simulated figures must keep the qualitative shapes the paper
//! reports.  (Per-backend behavioural conformance lives in
//! `tests/conformance.rs`, written once and instantiated per backend.)

use bytes::Bytes;
use ppmsg_sim::experiments::{
    bandwidth_sweep, early_late_test, fig3_intranode, fig4_internode, headline_numbers,
    EarlyLateVariant,
};
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

#[test]
fn host_and_sim_backends_both_deliver_all_modes() {
    for mode in [
        ProtocolMode::PushZero,
        ProtocolMode::PushPull,
        ProtocolMode::PushAll,
    ] {
        // Host backend, intranode fabric.
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode()
                .with_mode(mode)
                .with_pushed_buffer(128 * 1024),
        );
        let a = Endpoint::new(cluster.add_endpoint(0));
        let b = Endpoint::new(cluster.add_endpoint(1));
        let data = payload(10_000);
        a.post_send(b.local_id(), Tag(1), data.clone()).unwrap();
        assert_eq!(
            b.recv_blocking(a.local_id(), Tag(1), 10_000, TIMEOUT)
                .expect("host recv"),
            data,
            "host backend, mode {mode:?}"
        );

        // Simulated cluster, internode path.
        let protocol = ProtocolConfig::paper_internode()
            .with_mode(mode)
            .with_pushed_buffer(128 * 1024);
        let cfg = ClusterConfig::paper_testbed(protocol);
        let mut sim = SimCluster::new(cfg);
        let pa = ProcessId::new(0, 0);
        let pb = ProcessId::new(1, 0);
        sim.add_process(ProcessScript {
            process: pa,
            ops: vec![Op::Send {
                peer: pb,
                tag: Tag(1),
                len: 10_000,
            }],
        });
        sim.add_process(ProcessScript {
            process: pb,
            ops: vec![Op::Recv {
                peer: pa,
                tag: Tag(1),
                len: 10_000,
            }],
        });
        let report = sim.run();
        assert!(sim.all_finished(), "sim backend, mode {mode:?}");
        let stats = report.endpoint_stats[&pb];
        assert_eq!(stats.recvs_completed, 1, "sim backend, mode {mode:?}");
    }
}

/// One type-erased endpoint: any backend behind one concrete type.
type DynEndpoint = Endpoint<Box<dyn RawTransport>>;

/// A non-generic exchange over the type-erased front-end: this function
/// compiles against `Endpoint<Box<dyn RawTransport>>` only — no type
/// parameter, no monomorphisation per backend.
fn exchange_dyn(a: &DynEndpoint, b: &DynEndpoint, label: &str) {
    let data = payload(4096);
    let recv = b
        .post_recv(a.local_id(), Tag(5), 4096, TruncationPolicy::Error)
        .unwrap();
    a.send_blocking(b.local_id(), Tag(5), data.clone(), TIMEOUT)
        .unwrap_or_else(|| panic!("{label}: dyn send"));
    let done = b
        .wait(OpId::Recv(recv), TIMEOUT)
        .unwrap_or_else(|| panic!("{label}: dyn recv"));
    assert_eq!(done.status, Status::Ok, "{label}");
    assert_eq!(done.data.as_deref(), Some(&data[..]), "{label}");
    // The async combinators work unchanged through the erased type.
    let echoed = block_on(async {
        let recv = a
            .recv(b.local_id(), Tag(6), 4096, TruncationPolicy::Error)
            .unwrap();
        b.send(a.local_id(), Tag(6), data.clone()).unwrap().await;
        recv.await
    });
    assert_eq!(echoed.data.as_deref(), Some(&data[..]), "{label}");
}

/// `Box<dyn RawTransport>` is a first-class backend: endpoints of **two
/// different backends** (the intranode shared-memory fabric and the
/// sim-cluster loopback binding) live in one routing table behind one
/// concrete type and are driven by one non-generic function.
#[test]
fn dyn_raw_transport_routes_over_two_backends_behind_one_type() {
    let host = HostCluster::new(
        0,
        ProtocolConfig::paper_intranode().with_pushed_buffer(128 * 1024),
    );
    let loopback =
        LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024));

    // One table, two backends, one element type.
    let table: Vec<(&str, DynEndpoint, DynEndpoint)> = vec![
        (
            "host",
            Endpoint::new(host.add_endpoint(0)).boxed(),
            Endpoint::new(host.add_endpoint(1)).boxed(),
        ),
        (
            "loopback",
            Endpoint::new(loopback.add_endpoint(ProcessId::new(0, 0))).boxed(),
            Endpoint::new(loopback.add_endpoint(ProcessId::new(1, 0))).boxed(),
        ),
    ];
    for (label, a, b) in &table {
        exchange_dyn(a, b, label);
    }
}

/// N async receives posted interleaved (wildcard and exact) complete in
/// posting order on the deterministic loopback cluster, whatever order the
/// driver awaits them in.
#[test]
fn loopback_async_receives_complete_in_posting_order() {
    use push_pull_messaging::core::{ANY_SOURCE, ANY_TAG};
    use std::sync::{Arc as StdArc, Mutex};

    const N: usize = 16;
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_intranode().with_pushed_buffer(256 * 1024));
    let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));

    let order: StdArc<Mutex<Vec<usize>>> = StdArc::new(Mutex::new(Vec::new()));
    let mut driver = Driver::new();

    // One task per receive, spawned in posting order; every receive matches
    // every message (all wildcards on the same tag), so completion order is
    // exactly posting order.
    for _ in 0..N {
        let b = b.clone();
        let order = order.clone();
        driver.spawn(async move {
            let done = b
                .recv(ANY_SOURCE, ANY_TAG, 64, TruncationPolicy::Error)
                .unwrap()
                .await;
            assert_eq!(done.status, Status::Ok);
            // The sender encodes the message's sequence number in its first
            // byte; receive i must get message i.
            order.lock().unwrap().push(done.data.unwrap()[0] as usize);
        });
    }
    // Let every receive get posted (tasks run in spawn order), then send the
    // numbered messages.
    driver.run_until_stalled();
    {
        let a = a.clone();
        let b_id = b.local_id();
        driver.spawn(async move {
            for i in 0..N {
                a.send(b_id, Tag(1), Bytes::from(vec![i as u8; 8]))
                    .unwrap()
                    .await;
            }
        });
    }
    driver.run();
    assert_eq!(
        *order.lock().unwrap(),
        (0..N).collect::<Vec<_>>(),
        "interleaved async receives must complete in posting order"
    );
}

/// A long-lived driver spawning one task per exchange reuses retired task
/// slots (bounded by peak concurrency, not lifetime spawn count), and a
/// finished task's stale waker can never poke the task that reuses its slot.
#[test]
fn driver_reuses_task_slots_across_many_spawns() {
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024));
    let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
    let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));
    let mut driver = Driver::new();
    for i in 0..100u32 {
        let (a, b) = (a.clone(), b.clone());
        driver.spawn(async move {
            let recv = b
                .recv(a.local_id(), Tag(1), 64, TruncationPolicy::Error)
                .unwrap();
            a.send(b.local_id(), Tag(1), Bytes::from(vec![i as u8; 8]))
                .unwrap()
                .await;
            let done = recv.await;
            assert_eq!(done.data.unwrap()[0], i as u8);
        });
        driver.run();
        assert_eq!(driver.live(), 0, "round {i}");
    }
    assert_eq!(
        driver.slots(),
        1,
        "sequential spawn/run churn must reuse one slot"
    );
}

/// The paper's BTP boundaries over real sockets: a 1-byte message,
/// `BTP(1)` = 80 bytes, the whole pushed prefix of 760 bytes (80 + 680),
/// one full 1460-byte frame, and larger messages whose remainder is pulled.
#[test]
fn reactor_delivers_every_btp_boundary_length() {
    let reactor = Reactor::new().expect("spawn reactor");
    let proto = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let a = reactor
        .add_endpoint(ProcessId::new(0, 0), proto.clone(), "127.0.0.1:0")
        .unwrap();
    let b = reactor
        .add_endpoint(ProcessId::new(1, 0), proto, "127.0.0.1:0")
        .unwrap();
    a.add_peer(b.id(), b.local_addr().unwrap());
    b.add_peer(a.id(), a.local_addr().unwrap());
    let (a, b) = (Endpoint::new(a), Endpoint::new(b));
    for len in [1usize, 80, 760, 1460, 8192, 40_000] {
        let data = payload(len);
        a.post_send(b.local_id(), Tag(4), data.clone()).unwrap();
        assert_eq!(
            b.recv_blocking(a.local_id(), Tag(4), len, TIMEOUT).unwrap(),
            data,
            "len {len}"
        );
    }
}

/// Per-endpoint protocol overrides through a backend `*_with` constructor:
/// a `gbn_window` / `eager_threshold` override shapes one endpoint's engine
/// without touching its cluster siblings.
#[test]
fn endpoint_config_overrides_protocol_per_endpoint() {
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024));
    // `a` pushes everything below 2 KiB eagerly; `c` keeps the paper's
    // 80+680 split.
    let a = Endpoint::new(cluster.add_endpoint_with(
        ProcessId::new(0, 0),
        &EndpointConfig::new().eager_threshold(2048).gbn_window(4),
    ));
    let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
    let c = Endpoint::new(cluster.add_endpoint(ProcessId::new(2, 0)));

    let data = payload(1500);
    // From the eager endpoint: the whole 1500-byte message is pushed (no
    // pull phase), even though the cluster default would pull past 760.
    let recv = b
        .post_recv(a.local_id(), Tag(1), 1500, TruncationPolicy::Error)
        .unwrap();
    a.post_send(b.local_id(), Tag(1), data.clone()).unwrap();
    let done = b.wait(OpId::Recv(recv), TIMEOUT).expect("eager delivery");
    assert_eq!(done.data.as_deref(), Some(&data[..]));
    assert_eq!(a.stats().pull_requests_served, 0, "nothing to pull");

    // From the default endpoint the same message needs the pull phase.
    let recv = b
        .post_recv(c.local_id(), Tag(2), 1500, TruncationPolicy::Error)
        .unwrap();
    c.post_send(b.local_id(), Tag(2), data.clone()).unwrap();
    let done = b.wait(OpId::Recv(recv), TIMEOUT).expect("pulled delivery");
    assert_eq!(done.data.as_deref(), Some(&data[..]));
    assert_eq!(c.stats().pull_requests_served, 1, "default path pulls");
}

#[test]
fn figure3_intranode_latency_shapes() {
    let points = fig3_intranode(&[10, 1000, 4000, 8192], 15);
    // Latencies rise with size for every mechanism and stay within the
    // intranode regime (tens of microseconds, not milliseconds).
    for p in &points {
        for (label, v) in &p.series {
            assert!(*v > 0.0 && *v < 500.0, "{label} at {} B = {v}", p.size);
        }
    }
    let small = &points[0];
    let big = &points[3];
    for label in ["push-zero", "push-pull", "push-all"] {
        assert!(big.get(label).unwrap() > small.get(label).unwrap());
    }
    // Paper: the minimum latency for a 10-byte message is 7.5 us; ours must
    // be the same order of magnitude.
    assert!(small.get("push-pull").unwrap() < 30.0);
}

#[test]
fn figure4_optimisations_help_large_messages() {
    let points = fig4_internode(&[1400], 15);
    let p = &points[0];
    let no_opt = p.get("no optimization").unwrap();
    let mask = p.get("mask only").unwrap();
    let overlap = p.get("overlap only").unwrap();
    let full = p.get("full optimization").unwrap();
    assert!(mask <= no_opt, "masking must not hurt ({mask} vs {no_opt})");
    assert!(
        overlap <= no_opt,
        "overlapping must not hurt ({overlap} vs {no_opt})"
    );
    assert!(
        full <= mask && full <= overlap,
        "full optimisation must be best"
    );
    // Paper: overlapping hides the (larger) acknowledge latency, masking the
    // (smaller) translation overhead — so overlapping helps at least as much.
    assert!(
        overlap <= mask + 1.0,
        "overlap ({overlap}) should beat mask ({mask})"
    );
}

#[test]
fn figure6_late_receiver_collapse_and_recovery() {
    let late = early_late_test(EarlyLateVariant::Late, &[2048, 8192], 5);
    // Below the pushed-buffer size everything is comparable.
    let small = &late[0];
    assert!(
        small.get("push-all/late").unwrap() < small.get("push-pull/late").unwrap() * 1.5,
        "2 KiB fits the pushed buffer; push-all must not collapse yet"
    );
    // Beyond it, Push-All pays go-back-N recovery and collapses; Push-Pull
    // keeps working and beats Push-Zero.
    let big = &late[1];
    let push_all = big.get("push-all/late").unwrap();
    let push_pull = big.get("push-pull/late").unwrap();
    let push_zero = big.get("push-zero/late").unwrap();
    assert!(
        push_all > push_pull * 2.0,
        "push-all {push_all} vs push-pull {push_pull}"
    );
    assert!(
        push_pull <= push_zero * 1.05,
        "push-pull {push_pull} vs push-zero {push_zero}"
    );
}

#[test]
fn bandwidth_respects_physical_limits() {
    // Internode bandwidth can approach but never exceed the 12.5 MB/s wire.
    for p in bandwidth_sweep(false, &[8192, 32768], 15) {
        assert!(
            p.mb_per_s > 3.0 && p.mb_per_s < 12.5,
            "{} B -> {} MB/s",
            p.size,
            p.mb_per_s
        );
    }
    // Intranode bandwidth is memory-bound: far above the wire, below the bus.
    for p in bandwidth_sweep(true, &[4000, 8192], 15) {
        assert!(
            p.mb_per_s > 50.0 && p.mb_per_s < 533.0,
            "{} B -> {} MB/s",
            p.size,
            p.mb_per_s
        );
    }
}

#[test]
fn headline_numbers_reproduced_within_tolerance() {
    let h = headline_numbers(20);
    // Within a factor of ~2 of the paper on every headline metric.
    assert!(
        (3.0..16.0).contains(&h.intranode_latency_us),
        "{}",
        h.intranode_latency_us
    );
    assert!(
        (17.0..70.0).contains(&h.internode_latency_us),
        "{}",
        h.internode_latency_us
    );
    assert!(
        h.intranode_peak_bw_mb_s > 150.0,
        "{}",
        h.intranode_peak_bw_mb_s
    );
    assert!(
        (6.0..12.5).contains(&h.internode_peak_bw_mb_s),
        "{}",
        h.internode_peak_bw_mb_s
    );
    assert!(
        (6.0..26.0).contains(&h.translation_overhead_us),
        "{}",
        h.translation_overhead_us
    );
}
