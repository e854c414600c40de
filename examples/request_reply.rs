//! Many-client request/reply server over the async front-end.
//!
//! One server endpoint keeps a full window of wildcard receives in flight —
//! one per expected request, all posted before any request arrives — while N
//! client tasks each send a burst of requests and await the replies.  The
//! whole exchange is scheduled by the [`Driver`], the shared progress
//! multiplexer: a single thread overlaps every receive, send, and reply
//! without ever blocking in `wait`.
//!
//! The same generic function runs on all three backends:
//!
//! * the deterministic sim-cluster loopback (same interleaving every run),
//! * the intranode shared-memory fabric (engines pumped on the posting
//!   thread),
//! * UDP sockets on one reactor (engines pumped by the reactor's event-loop
//!   thread; completions wake the driver).
//!
//! Run with: `cargo run --example request_reply`

use bytes::Bytes;
use push_pull_messaging::core::ANY_SOURCE;
use push_pull_messaging::prelude::*;
use std::sync::{Arc, Mutex};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 4;
const REQ_TAG: Tag = Tag(1);
const REPLY_TAG: Tag = Tag(2);

/// Builds the request payload client `id` sends as its `seq`-th request.
fn request(id: ProcessId, seq: usize) -> Bytes {
    Bytes::from(format!("client {id} request {seq}").into_bytes())
}

/// The reply is the request payload, uppercased — enough to prove the server
/// really saw it.
fn reply_for(request: &[u8]) -> Bytes {
    Bytes::from(request.to_ascii_uppercase())
}

/// Runs the request/reply exchange: `endpoints[0]` serves, the rest are
/// clients.  Returns the number of replies received, which the caller checks
/// against the expected total.  Generic over the backend through the
/// `Endpoint<T: RawTransport>` front-end — the same function also accepts
/// `Endpoint<Box<dyn RawTransport>>` for heterogeneous fleets.
fn run_request_reply<T: RawTransport + 'static>(endpoints: Vec<Endpoint<T>>, label: &str) -> usize {
    let total = (endpoints.len() - 1) * REQUESTS_PER_CLIENT;
    let replies = Arc::new(Mutex::new(0usize));
    let mut driver = Driver::new();

    let mut endpoints = endpoints.into_iter();
    let server = endpoints.next().expect("server endpoint");

    // The server overlaps `total` wildcard receives: every request slot is
    // posted before the first request arrives, so no client ever finds the
    // server without a matching receive, however the sends interleave.
    driver.spawn(async move {
        let pending: Vec<_> = (0..total)
            .map(|_| {
                server
                    .recv(ANY_SOURCE, REQ_TAG, 1024, TruncationPolicy::Error)
                    .expect("post server receive")
            })
            .collect();
        for fut in pending {
            let req = fut.await;
            assert_eq!(req.status, Status::Ok, "server receive failed");
            let body = req.data.as_deref().expect("request payload");
            let reply = reply_for(body);
            server
                .send(req.peer, REPLY_TAG, reply)
                .expect("post reply")
                .await;
        }
    });

    for client in endpoints {
        let replies = replies.clone();
        let server_id = ProcessId::new(0, 0);
        driver.spawn(async move {
            for seq in 0..REQUESTS_PER_CLIENT {
                let body = request(client.local_id(), seq);
                let expected = reply_for(&body);
                // Post the reply receive before the request goes out, then
                // overlap both: the send and the receive are in flight
                // together.
                let reply = client
                    .recv(server_id, REPLY_TAG, 1024, TruncationPolicy::Error)
                    .expect("post reply receive");
                client
                    .send(server_id, REQ_TAG, body)
                    .expect("post request")
                    .await;
                let got = reply.await;
                assert_eq!(got.status, Status::Ok, "reply receive failed");
                assert_eq!(got.data.as_deref(), Some(&expected[..]), "reply payload");
                *replies.lock().unwrap() += 1;
            }
        });
    }

    driver.run();
    let count = *replies.lock().unwrap();
    println!("{label}: {count}/{total} replies received");
    count
}

fn main() {
    let expected = CLIENTS * REQUESTS_PER_CLIENT;

    // Deterministic sim-cluster loopback: server on node 0, clients on their
    // own nodes (internode go-back-N path), zero latency, same interleaving
    // every run.
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024));
    let mut endpoints = vec![Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)))];
    for rank in 1..=CLIENTS as u32 {
        endpoints.push(Endpoint::new(cluster.add_endpoint(ProcessId::new(rank, 0))));
    }
    assert_eq!(run_request_reply(endpoints, "loopback"), expected);

    // Intranode shared-memory fabric: every endpoint is a thread-safe handle
    // onto one node's fabric; the driver still runs everything on one thread.
    let cluster = HostCluster::new(
        0,
        ProtocolConfig::paper_intranode().with_pushed_buffer(128 * 1024),
    );
    let mut endpoints = vec![Endpoint::new(cluster.add_endpoint(0))];
    for rank in 1..=CLIENTS as u32 {
        endpoints.push(Endpoint::new(cluster.add_endpoint(rank)));
    }
    assert_eq!(run_request_reply(endpoints, "intranode"), expected);

    // UDP reactor: real sockets on localhost, one event-loop thread pumping
    // every engine, completions waking the driver.
    let reactor = Reactor::new().expect("spawn reactor");
    let proto = ProtocolConfig::paper_internode().with_pushed_buffer(128 * 1024);
    let mut endpoints = Vec::new();
    for rank in 0..=CLIENTS as u32 {
        endpoints.push(Endpoint::new(
            reactor
                .add_endpoint(ProcessId::new(rank, 0), proto.clone(), "127.0.0.1:0")
                .expect("bind UDP endpoint"),
        ));
    }
    let addrs: Vec<_> = endpoints
        .iter()
        .map(|e| (e.local_id(), e.raw().local_addr().unwrap()))
        .collect();
    for endpoint in &endpoints {
        for (id, addr) in &addrs {
            if *id != endpoint.local_id() {
                endpoint.raw().add_peer(*id, *addr);
            }
        }
    }
    assert_eq!(run_request_reply(endpoints, "reactor"), expected);

    println!("request/reply completed on all three backends");
}
