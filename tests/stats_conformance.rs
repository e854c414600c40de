//! The stats-gap audit: one fixed workload, every backend, and a
//! field-by-field cross-comparison of the merged [`EndpointStats`] each
//! backend reports.
//!
//! The protocol engine owns every counter, so for the *same* workload the
//! deterministic counters must come out **identical** no matter which
//! backend carried the frames — a backend that forgets to merge a shard,
//! drops a stats path, or double-counts shows up here as a diff against its
//! peers rather than as a silently divergent dashboard.  Counters that
//! legitimately depend on wire behaviour (retransmissions, acks, duplicate
//! deliveries) are excluded from the equality check and held to invariants
//! instead.
//!
//! Both fingerprints destructure `EndpointStats` exhaustively: adding a
//! counter without classifying it as deterministic or wire-dependent is a
//! compile error, so the audit cannot silently fall out of date.

use bytes::Bytes;
use push_pull_messaging::core::EndpointStats;
use push_pull_messaging::prelude::*;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// 12 exchanges, alternating direction, two sizes: 512 B messages stay on
/// the eager push path, 64 KiB messages exercise push + pull.  Receives are
/// posted before their send and every pair is awaited before the next, so
/// the engine sees the identical operation sequence on every backend.
const EXCHANGES: usize = 12;

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 7 % 256) as u8).collect::<Vec<u8>>())
}

fn exchange_len(i: usize) -> usize {
    if i.is_multiple_of(3) {
        64 * 1024
    } else {
        512
    }
}

/// Runs the fixed workload on a fresh pair and returns the two endpoints'
/// stats merged into one view (direction alternates, so only the merged
/// totals are backend-comparable).
fn run_workload<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) -> EndpointStats {
    for i in 0..EXCHANGES {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
        let data = payload(exchange_len(i));
        let recv = dst
            .post_recv(
                src.local_id(),
                Tag(i as u32),
                data.len(),
                TruncationPolicy::Error,
            )
            .unwrap();
        let send = src
            .post_send(dst.local_id(), Tag(i as u32), data.clone())
            .unwrap();
        let done = dst.wait(OpId::Recv(recv), TIMEOUT).expect("recv completed");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.data.as_deref(), Some(&data[..]));
        src.wait(OpId::Send(send), TIMEOUT).expect("send completed");
    }
    let mut merged = a.stats();
    merged.merge(&b.stats());
    merged
}

/// Counters that must be bit-identical across every backend: they are
/// decided by the engine from the operation sequence alone.
fn op_fingerprint(s: &EndpointStats) -> Vec<(&'static str, u64)> {
    vec![
        ("sends_posted", s.sends_posted),
        ("recvs_posted", s.recvs_posted),
        ("sends_completed", s.sends_completed),
        ("recvs_completed", s.recvs_completed),
        ("recvs_failed", s.recvs_failed),
        ("recvs_cancelled", s.recvs_cancelled),
        ("sends_cancelled", s.sends_cancelled),
        ("recvs_truncated", s.recvs_truncated),
        ("frames_dropped", s.frames_dropped),
        ("bytes_dropped", s.bytes_dropped),
        ("packets_dropped", s.packets_dropped),
        ("channels_failed", s.channels_failed),
        ("completions_evicted", s.completions_evicted),
    ]
}

/// Counters decided by the engine *and* the BTP policy: identical across
/// the internode backends (which share `paper_internode`), but legitimately
/// different on the intranode fabric (16-byte BTP).
fn wire_fingerprint(s: &EndpointStats) -> Vec<(&'static str, u64)> {
    vec![
        ("bytes_pushed", s.bytes_pushed),
        ("bytes_pulled", s.bytes_pulled),
        ("bytes_copied_direct", s.bytes_copied_direct),
        ("bytes_copied_staged", s.bytes_copied_staged),
        ("bytes_copied_extra", s.bytes_copied_extra),
        ("translations", s.translations),
        ("bytes_translated", s.bytes_translated),
        ("pull_requests_sent", s.pull_requests_sent),
        ("pull_requests_served", s.pull_requests_served),
    ]
}

/// The exhaustive classification.  Every `EndpointStats` field must appear
/// in exactly one bucket; the destructuring makes omissions a compile error.
fn classify(s: &EndpointStats) {
    let EndpointStats {
        // op_fingerprint
        sends_posted: _,
        recvs_posted: _,
        sends_completed: _,
        recvs_completed: _,
        recvs_failed: _,
        recvs_cancelled: _,
        sends_cancelled: _,
        recvs_truncated: _,
        frames_dropped: _,
        bytes_dropped: _,
        packets_dropped: _,
        channels_failed: _,
        completions_evicted: _,
        // wire_fingerprint
        bytes_pushed: _,
        bytes_pulled: _,
        bytes_copied_direct: _,
        bytes_copied_staged: _,
        bytes_copied_extra: _,
        translations: _,
        bytes_translated: _,
        pull_requests_sent: _,
        pull_requests_served: _,
        // wire-dependent: invariant-checked, never equality-checked
        retransmits: _,
        acks_received: _,
        duplicate_frames: _,
        rto_retransmits: _,
        fast_retransmits: _,
        // allocation timing varies with warm-up state; audited elsewhere
        // (tests/zero_alloc.rs) rather than cross-backend
        steady_allocs: _,
    } = *s;
}

/// Invariants every backend must satisfy regardless of wire behaviour.
fn check_invariants(name: &str, s: &EndpointStats) {
    classify(s);
    let total_bytes: u64 = (0..EXCHANGES).map(|i| exchange_len(i) as u64).sum();
    assert_eq!(
        s.bytes_pushed + s.bytes_pulled,
        total_bytes,
        "{name}: every payload byte is pushed or pulled exactly once"
    );
    assert_eq!(
        s.pull_requests_sent, s.pull_requests_served,
        "{name}: merged view pairs every pull request with its service"
    );
    assert_eq!(
        s.rto_retransmits + s.fast_retransmits,
        s.retransmits,
        "{name}: every retransmission is attributed to RTO or fast recovery"
    );
    assert_eq!(s.sends_posted, EXCHANGES as u64, "{name}: sends posted");
    assert_eq!(s.recvs_posted, EXCHANGES as u64, "{name}: recvs posted");
    assert_eq!(
        s.sends_completed, EXCHANGES as u64,
        "{name}: sends completed"
    );
    assert_eq!(
        s.recvs_completed, EXCHANGES as u64,
        "{name}: recvs completed"
    );
}

struct BackendReport {
    name: &'static str,
    stats: EndpointStats,
    /// Whether frames crossed an ARQ channel (everything except the
    /// intranode fabric, whose transport is reliable shared memory).
    arq: bool,
}

fn collect_reports() -> Vec<BackendReport> {
    let mut reports = Vec::new();

    {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(128 * 1024),
        );
        let a = Endpoint::new(cluster.add_endpoint(0));
        let b = Endpoint::new(cluster.add_endpoint(1));
        reports.push(BackendReport {
            name: "intranode",
            stats: run_workload(&a, &b),
            arq: false,
        });
    }

    {
        let cluster =
            LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024));
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        reports.push(BackendReport {
            name: "loopback",
            stats: run_workload(&a, &b),
            arq: true,
        });
    }

    for (name, mode) in [
        ("chaos_gbn", ReliabilityMode::GoBackN),
        ("chaos_sr", ReliabilityMode::SelectiveRepeat),
    ] {
        let cluster = ChaosCluster::new(
            ProtocolConfig::paper_internode()
                .with_pushed_buffer(128 * 1024)
                .with_reliability(mode),
            ChaosConfig::new(0xC0FFEE),
        );
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(1, 0)));
        reports.push(BackendReport {
            name,
            stats: run_workload(&a, &b),
            arq: true,
        });
    }

    {
        let reactor = Reactor::new().expect("spawn reactor");
        let proto = ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024);
        let config = EndpointConfig::new();
        let a = reactor
            .add_endpoint_with(ProcessId::new(0, 0), proto.clone(), "127.0.0.1:0", &config)
            .unwrap();
        let b = reactor
            .add_endpoint_with(ProcessId::new(1, 0), proto, "127.0.0.1:0", &config)
            .unwrap();
        a.add_peer(b.id(), b.local_addr().unwrap());
        b.add_peer(a.id(), a.local_addr().unwrap());
        let (a, b) = (Endpoint::new(a), Endpoint::new(b));
        reports.push(BackendReport {
            name: "reactor",
            stats: run_workload(&a, &b),
            arq: true,
        });
    }

    reports
}

#[test]
fn backends_report_identical_deterministic_counters() {
    let reports = collect_reports();

    for report in &reports {
        check_invariants(report.name, &report.stats);
        if report.arq {
            assert!(
                report.stats.acks_received > 0,
                "{}: an ARQ backend must see acknowledgements",
                report.name
            );
        } else {
            assert_eq!(
                (report.stats.retransmits, report.stats.acks_received),
                (0, 0),
                "{}: a reliable fabric has no ARQ traffic to count",
                report.name
            );
        }
    }

    // Operation-level counters: identical across ALL backends.
    let baseline = op_fingerprint(&reports[0].stats);
    for report in &reports[1..] {
        assert_eq!(
            op_fingerprint(&report.stats),
            baseline,
            "{} diverges from {} on operation counters\n  {:?}\nvs\n  {:?}",
            report.name,
            reports[0].name,
            report.stats,
            reports[0].stats,
        );
    }

    // Wire-level counters: identical across the internode backends, which
    // run the same BTP policy over the same operation sequence.
    let internode: Vec<_> = reports.iter().filter(|r| r.name != "intranode").collect();
    let baseline = wire_fingerprint(&internode[0].stats);
    for report in &internode[1..] {
        assert_eq!(
            wire_fingerprint(&report.stats),
            baseline,
            "{} diverges from {} on wire counters\n  {:?}\nvs\n  {:?}",
            report.name,
            internode[0].name,
            report.stats,
            internode[0].stats,
        );
    }
}
