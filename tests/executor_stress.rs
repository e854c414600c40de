//! Races the multi-core stack end to end: N producer threads post sends
//! while consumer tasks on an M-worker [`Pool`] await the matching
//! receives, over all three real backends (intranode shared memory — with a
//! sharded consumer engine — UDP sockets on one reactor loop, and the
//! loopback cluster).  Every message carries its `(producer, sequence)`
//! identity in its first bytes; the suite asserts **exactly-once**
//! completion: no identity lost, none delivered twice, every payload
//! intact.
//!
//! A deterministic proptest then checks the executors against each other:
//! for a random transfer script on loopback, work-stealing execution on the
//! `Pool` must produce the identical completion set as the single-threaded
//! `Driver` — scheduling may reorder completions but can never change them.
//!
//! Dimensions are environment-tunable so the ThreadSanitizer CI job (which
//! runs ~10-20x slower) can dial them down:
//! `STRESS_PRODUCERS` × `STRESS_MSGS` messages over `STRESS_WORKERS` pool
//! workers, `STRESS_CASES` proptest cases.

use bytes::Bytes;
use proptest::prelude::*;
use push_pull_messaging::executor::Pool;
use push_pull_messaging::prelude::*;
use push_pull_messaging::timer::timeout;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Generous per-await deadline: a lost completion fails the test with a
/// clear panic instead of hanging the suite.
const DEADLINE: Duration = Duration::from_secs(60);

fn env_dim(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn producers() -> usize {
    env_dim("STRESS_PRODUCERS", 4)
}

fn workers() -> usize {
    env_dim("STRESS_WORKERS", 4)
}

fn messages() -> usize {
    env_dim("STRESS_MSGS", 24)
}

/// The message for `(producer, seq)`: identity header + deterministic body
/// whose length cycles through the protocol's phases (pure first push,
/// push + pull remainder).
fn payload(producer: u32, seq: u32) -> Bytes {
    let len = 16 + ((producer as usize * 7 + seq as usize) % 5) * 3000;
    let mut data = vec![0u8; len];
    data[..4].copy_from_slice(&producer.to_le_bytes());
    data[4..8].copy_from_slice(&seq.to_le_bytes());
    for (i, byte) in data[8..].iter_mut().enumerate() {
        *byte = (producer as usize)
            .wrapping_mul(31)
            .wrapping_add(seq as usize)
            .wrapping_add(i) as u8;
    }
    Bytes::from(data)
}

fn decode_identity(data: &Bytes) -> (u32, u32) {
    let producer = u32::from_le_bytes(data[..4].try_into().unwrap());
    let seq = u32::from_le_bytes(data[4..8].try_into().unwrap());
    (producer, seq)
}

/// The core race: one producer thread per peer blocking-sends its message
/// stream while a pool task per peer awaits the receives; the delivered
/// identity set must be exactly `{(p, s) | p < producers, s < messages}`.
fn run_stress<C, P>(consumer: Endpoint<C>, peers: Vec<Endpoint<P>>)
where
    C: RawTransport + Send + Sync + 'static,
    P: RawTransport + Send + Sync + 'static,
{
    let msgs = messages();
    let consumer = Arc::new(consumer);
    let consumer_id = consumer.local_id();
    let delivered: Arc<Mutex<BTreeSet<(u32, u32)>>> = Arc::new(Mutex::new(BTreeSet::new()));

    let pool = Pool::new(workers());
    for (index, peer) in peers.iter().enumerate() {
        let producer = index as u32;
        let src = peer.local_id();
        let consumer = consumer.clone();
        let delivered = delivered.clone();
        pool.spawn(async move {
            for seq in 0..msgs as u32 {
                let recv = consumer
                    .recv(src, Tag(seq), 64 * 1024, TruncationPolicy::Error)
                    .expect("post recv");
                let completion = timeout(DEADLINE, recv)
                    .await
                    .expect("receive lost: deadline elapsed");
                assert_eq!(completion.status, Status::Ok);
                let data = completion.data.expect("engine-buffered data");
                assert_eq!(data, payload(producer, seq), "payload corrupted");
                let identity = decode_identity(&data);
                assert_eq!(identity, (producer, seq));
                let fresh = delivered.lock().unwrap().insert(identity);
                assert!(fresh, "duplicate completion for {identity:?}");
            }
        });
    }

    let senders: Vec<_> = peers
        .into_iter()
        .enumerate()
        .map(|(index, peer)| {
            let producer = index as u32;
            std::thread::spawn(move || {
                for seq in 0..msgs as u32 {
                    let sent =
                        peer.send_blocking(consumer_id, Tag(seq), payload(producer, seq), DEADLINE);
                    assert!(sent.is_some(), "send {producer}/{seq} lost");
                }
            })
        })
        .collect();

    for sender in senders {
        sender.join().unwrap();
    }
    pool.wait_idle();

    let delivered = delivered.lock().unwrap();
    assert_eq!(
        delivered.len(),
        producers() * msgs,
        "completions lost: got {} of {}",
        delivered.len(),
        producers() * msgs,
    );
}

#[test]
fn intranode_sharded_exactly_once() {
    let cluster = HostCluster::new(
        0,
        ProtocolConfig::paper_intranode().with_pushed_buffer(512 * 1024),
    );
    // The consumer shards its engine: concurrent producers land on
    // different shard locks, racing the remap/mailbox paths hardest.
    let consumer = cluster.add_endpoint_sharded(0, 4);
    let peers: Vec<_> = (1..=producers() as u32)
        .map(|rank| Endpoint::new(cluster.add_endpoint(rank)))
        .collect();
    let stats_handle = consumer.clone();
    run_stress(Endpoint::new(consumer), peers);
    let stats = stats_handle.stats();
    assert_eq!(stats.recvs_completed as usize, producers() * messages());
}

/// Fan-in over UDP sockets: the consumer and every producer are hosted by
/// one reactor event loop, so concurrent producer postings race the loop
/// thread's batched reception on the consumer's engine lock.
#[test]
fn reactor_exactly_once() {
    let reactor = Reactor::new().expect("spawn reactor");
    let proto = ProtocolConfig::paper_internode().with_pushed_buffer(512 * 1024);
    let consumer = reactor
        .add_endpoint(ProcessId::new(0, 0), proto.clone(), "127.0.0.1:0")
        .unwrap();
    let peers: Vec<_> = (1..=producers() as u32)
        .map(|rank| {
            let peer = reactor
                .add_endpoint(ProcessId::new(1, rank), proto.clone(), "127.0.0.1:0")
                .unwrap();
            consumer.add_peer(peer.id(), peer.local_addr().unwrap());
            peer.add_peer(consumer.id(), consumer.local_addr().unwrap());
            Endpoint::new(peer)
        })
        .collect();
    run_stress(Endpoint::new(consumer), peers);
}

#[test]
fn loopback_exactly_once() {
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(512 * 1024));
    let consumer = cluster.add_endpoint(ProcessId::new(0, 0));
    let peers: Vec<_> = (1..=producers() as u32)
        .map(|rank| Endpoint::new(cluster.add_endpoint(ProcessId::new(1, rank))))
        .collect();
    run_stress(Endpoint::new(consumer), peers);
    assert_eq!(cluster.unroutable_drops(), 0);
}

// ---------------------------------------------------------------------------
// Pool vs Driver: scheduling must not change the completion set
// ---------------------------------------------------------------------------

/// One transfer of a random script: which of the fixed pairs carries it and
/// how many bytes it moves (the tag is the script index, so every transfer
/// matches deterministically regardless of completion order).
#[derive(Debug, Clone)]
struct Transfer {
    pair: usize,
    len: usize,
}

const SCRIPT_PAIRS: usize = 3;

/// What a transfer's pair of completions must look like under *any*
/// executor: send and receive status plus the received bytes' checksum.
type CompletionRecord = (u32, &'static str, usize, u64);

fn checksum(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

fn script_payload(index: usize, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (index.wrapping_mul(131).wrapping_add(i)) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Builds a fresh loopback topology and the per-transfer tasks, returning
/// the spawn closures so each executor runs an identical workload.
#[allow(clippy::type_complexity)]
fn script_tasks(
    transfers: &[Transfer],
) -> (
    Arc<Mutex<BTreeSet<CompletionRecord>>>,
    Vec<std::pin::Pin<Box<dyn std::future::Future<Output = ()> + Send + 'static>>>,
) {
    let cluster =
        LoopbackCluster::new(ProtocolConfig::paper_internode().with_pushed_buffer(256 * 1024));
    let pairs: Vec<_> = (0..SCRIPT_PAIRS as u32)
        .map(|p| {
            (
                Arc::new(Endpoint::new(cluster.add_endpoint(ProcessId::new(0, p)))),
                Arc::new(Endpoint::new(cluster.add_endpoint(ProcessId::new(1, p)))),
            )
        })
        .collect();
    let records: Arc<Mutex<BTreeSet<CompletionRecord>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let mut tasks: Vec<std::pin::Pin<Box<dyn std::future::Future<Output = ()> + Send>>> =
        Vec::new();
    for (index, transfer) in transfers.iter().enumerate() {
        let (a, b) = pairs[transfer.pair].clone();
        let tag = Tag(index as u32);
        let len = transfer.len;
        let records_send = records.clone();
        let records_recv = records.clone();
        let (sender, receiver) = (a.clone(), b.clone());
        tasks.push(Box::pin(async move {
            let completion = sender
                .send(receiver.local_id(), tag, script_payload(index, len))
                .unwrap()
                .await;
            assert_eq!(completion.status, Status::Ok);
            records_send
                .lock()
                .unwrap()
                .insert((tag.0, "send", completion.len, 0));
        }));
        let (sender, receiver) = (a, b);
        tasks.push(Box::pin(async move {
            let completion = receiver
                .recv(sender.local_id(), tag, 64 * 1024, TruncationPolicy::Error)
                .unwrap()
                .await;
            assert_eq!(completion.status, Status::Ok);
            let data = completion.data.unwrap();
            records_recv
                .lock()
                .unwrap()
                .insert((tag.0, "recv", data.len(), checksum(&data)));
        }));
    }
    (records, tasks)
}

fn run_script_on_driver(transfers: &[Transfer]) -> BTreeSet<CompletionRecord> {
    let (records, tasks) = script_tasks(transfers);
    let mut driver = Driver::new();
    for task in tasks {
        driver.spawn(task);
    }
    driver.run();
    Arc::try_unwrap(records).unwrap().into_inner().unwrap()
}

fn run_script_on_pool(transfers: &[Transfer], pool_workers: usize) -> BTreeSet<CompletionRecord> {
    let (records, tasks) = script_tasks(transfers);
    let pool = Pool::new(pool_workers);
    for task in tasks {
        pool.spawn(task);
    }
    pool.wait_idle();
    drop(pool);
    Arc::try_unwrap(records).unwrap().into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_dim("STRESS_CASES", 16) as u32))]

    /// Work-stealing may interleave tasks arbitrarily, but the completion
    /// set — statuses, byte counts, payload checksums — must be exactly
    /// what the deterministic single-threaded `Driver` produces.
    #[test]
    fn pool_matches_driver_completion_set(
        raw in collection::vec((0usize..SCRIPT_PAIRS, 1usize..12_000), 1..24)
    ) {
        let transfers: Vec<Transfer> = raw
            .into_iter()
            .map(|(pair, len)| Transfer { pair, len })
            .collect();
        let reference = run_script_on_driver(&transfers);
        prop_assert_eq!(reference.len(), transfers.len() * 2);
        for pool_workers in [1, 4] {
            let raced = run_script_on_pool(&transfers, pool_workers);
            prop_assert_eq!(&raced, &reference);
        }
    }
}
