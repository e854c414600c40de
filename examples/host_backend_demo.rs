//! The real (non-simulated) backends: threads exchanging messages through the
//! shared-memory fabric, and through UDP loopback sockets driven by one
//! reactor event loop, using the same protocol engine the simulator drives.
//!
//! Run with: `cargo run --release --example host_backend_demo`

use bytes::Bytes;
use push_pull_messaging::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let timeout = Duration::from_secs(5);

    // --- intranode: two threads, one shared-memory fabric ----------------
    let cluster = HostCluster::new(
        0,
        ProtocolConfig::paper_intranode().with_pushed_buffer(256 * 1024),
    );
    let a = Endpoint::new(cluster.add_endpoint(0));
    let b = Endpoint::new(cluster.add_endpoint(1));
    let data = Bytes::from(vec![1u8; 65536]);
    let start = Instant::now();
    let iters = 2000;
    for _ in 0..iters {
        // Post the send, then receive: a large message only completes its
        // send once the receiver's pull has been served, so a blocking send
        // before the matching receive would deadlock.
        let s1 = a.post_send(b.local_id(), Tag(1), data.clone()).unwrap();
        let got = b
            .recv_blocking(a.local_id(), Tag(1), data.len(), timeout)
            .unwrap();
        let s2 = b.post_send(a.local_id(), Tag(2), got).unwrap();
        a.recv_blocking(b.local_id(), Tag(2), data.len(), timeout)
            .unwrap();
        a.wait(OpId::Send(s1), timeout).unwrap();
        b.wait(OpId::Send(s2), timeout).unwrap();
    }
    let elapsed = start.elapsed();
    let bytes = 2.0 * iters as f64 * data.len() as f64;
    println!(
        "intranode fabric: {iters} x 64 KiB round trips in {:.2?} ({:.0} MB/s)",
        elapsed,
        bytes / elapsed.as_secs_f64() / 1e6
    );

    // --- internode: UDP loopback, one reactor loop ------------------------
    let reactor = Reactor::new().unwrap();
    let proto = ProtocolConfig::paper_internode().with_pushed_buffer(256 * 1024);
    let ua = reactor
        .add_endpoint(ProcessId::new(0, 0), proto.clone(), "127.0.0.1:0")
        .unwrap();
    let ub = reactor
        .add_endpoint(ProcessId::new(1, 0), proto, "127.0.0.1:0")
        .unwrap();
    ua.add_peer(ub.id(), ub.local_addr().unwrap());
    ub.add_peer(ua.id(), ua.local_addr().unwrap());
    let (ua, ub) = (Endpoint::new(ua), Endpoint::new(ub));
    let data = Bytes::from(vec![2u8; 4096]);
    let start = Instant::now();
    let iters = 500;
    for _ in 0..iters {
        let s1 = ua.post_send(ub.local_id(), Tag(1), data.clone()).unwrap();
        let got = ub
            .recv_blocking(ua.local_id(), Tag(1), data.len(), timeout)
            .unwrap();
        let s2 = ub.post_send(ua.local_id(), Tag(2), got).unwrap();
        ua.recv_blocking(ub.local_id(), Tag(2), data.len(), timeout)
            .unwrap();
        ua.wait(OpId::Send(s1), timeout).unwrap();
        ub.wait(OpId::Send(s2), timeout).unwrap();
    }
    let elapsed = start.elapsed();
    println!(
        "udp reactor: {iters} x 4 KiB round trips in {:.2?} ({:.1} us/rtt)",
        elapsed,
        elapsed.as_micros() as f64 / iters as f64
    );
    println!("same protocol engine, real OS transports — see ppmsg-sim for the 1999 numbers");
}
