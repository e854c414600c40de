//! A deterministic, fault-injecting sibling of the loopback cluster.
//!
//! [`ChaosCluster`] routes the same protocol engines as
//! [`LoopbackCluster`](crate::loopback::LoopbackCluster), but every internode
//! frame crosses a **seeded fault plane**: per-link drop / duplicate /
//! reorder / delay decisions and partition-and-heal windows, all drawn from
//! RNG streams derived from one master seed ([`ChaosConfig::seed`]).  Unlike
//! the loopback router, the chaos router honors `SetTimer` / `CancelTimer`
//! through a **virtual clock**: timers become events on the same
//! deterministic event queue as frame deliveries, so go-back-N
//! retransmission actually fires and loss is recoverable — the queue is
//! drained to quiescence inside every post, fast-forwarding virtual time
//! through retransmission timeouts, which keeps the synchronous loopback
//! programming model intact.  Each channel's timer is one record, re-armed
//! and cancelled in place: only a timer that is still armed when its
//! deadline comes is dispatched, so quiescence arrives with the last frame,
//! not one retransmission timeout after it.
//!
//! Reproducibility is the point: the same seed replays the same event
//! sequence byte for byte ([`ChaosCluster::trace_hash`], and full
//! [`TraceRecord`]s with [`ChaosConfig::record_trace`]).  A run that stops
//! making progress is converted into a **seed-labeled panic** by two
//! detectors: an event budget ([`ChaosConfig::max_events`]) and a wedge check
//! at quiescence (a channel with unacknowledged frames, no pending timer,
//! and no declared failure can never recover).  The [`sweep`] runner executes
//! a scenario across many seeds, catches those panics, and reports every
//! failing seed with replay instructions.

use ppmsg_core::reliability::{Frame, GbnStats};
use ppmsg_core::telemetry;
use ppmsg_core::wire::Packet;
use ppmsg_core::{
    Action, Completion, CompletionQueue, Endpoint, EndpointConfig, EndpointStats, OpId, ProcessId,
    ProtocolConfig, RawTransport, RecvBuf, RecvOp, Result, SendOp, Tag, TimerId, TruncationPolicy,
    U64Index,
};
use simnet::fault::{
    derive_seed, DelayModel, DuplicateModel, FrameFate, LinkFaults, PartitionSchedule, ReorderModel,
};
use simnet::loss::LossModel;

use bytes::{Bytes, BytesMut};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::task::Waker;

/// Scheduled partition behaviour of the fault plane.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Probability that a given node pair has a partition schedule at all.
    pub pair_p: f64,
    /// Healthy-gap duration range in microseconds (inclusive).
    pub gap_us: (u64, u64),
    /// Blocked-window duration range in microseconds (inclusive).  Keep the
    /// upper bound well below `rto_us * max_retries` or scheduled partitions
    /// turn into channel failures.
    pub len_us: (u64, u64),
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            pair_p: 0.25,
            gap_us: (2_000, 100_000),
            len_us: (10_000, 120_000),
        }
    }
}

/// Configuration of one chaos run.  `seed` determines every fault decision;
/// everything else shapes the fault distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: all per-link RNG streams derive from it.
    pub seed: u64,
    /// Per-frame drop probability on internode links.
    pub drop_p: f64,
    /// Per-frame duplication probability on internode links.
    pub duplicate_p: f64,
    /// Per-frame reorder (hold-back) probability on internode links.
    pub reorder_p: f64,
    /// Maximum hold-back of a reordered frame, in microseconds.
    pub reorder_hold_us: u64,
    /// Base internode wire latency in microseconds.
    pub base_latency_us: u64,
    /// Uniform latency jitter added on top of the base, in microseconds.
    pub jitter_us: u64,
    /// Latency of intranode (shared-memory) packets, which cross no fault
    /// plane — shared memory does not lose data.
    pub intranode_latency_us: u64,
    /// Seeded partition-and-heal windows; `None` disables scheduled
    /// partitions (manual [`ChaosCluster::partition`] still works).
    pub partition: Option<PartitionConfig>,
    /// Event budget: a run consuming more events than this panics with the
    /// seed, converting livelock into a failing test instead of a timeout.
    pub max_events: u64,
    /// Record a full [`TraceRecord`] per event (for byte-for-byte replay
    /// assertions).  The rolling [`ChaosCluster::trace_hash`] is always kept.
    pub record_trace: bool,
    /// Injected retransmission bug for the harness's own regression test:
    /// every channel skips the timer re-arm after a timeout.  Never enable
    /// outside tests of the harness itself.
    pub sabotage_skip_rearm: bool,
}

impl ChaosConfig {
    /// All fault types enabled at moderate rates — the configuration the
    /// multi-seed sweeps run with.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_p: 0.08,
            duplicate_p: 0.05,
            reorder_p: 0.10,
            reorder_hold_us: 150,
            base_latency_us: 30,
            jitter_us: 40,
            intranode_latency_us: 1,
            partition: Some(PartitionConfig::default()),
            max_events: 200_000,
            record_trace: false,
            sabotage_skip_rearm: false,
        }
    }

    /// Faultless variant (still virtual-clocked): useful to isolate whether
    /// a failure needs faults at all.
    pub fn lossless(seed: u64) -> Self {
        ChaosConfig {
            drop_p: 0.0,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            jitter_us: 0,
            partition: None,
            ..ChaosConfig::new(seed)
        }
    }

    /// Sets the drop probability, consuming and returning the configuration.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Enables full trace recording, consuming and returning the
    /// configuration.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Replaces the partition behaviour, consuming and returning the
    /// configuration.
    pub fn with_partition(mut self, partition: Option<PartitionConfig>) -> Self {
        self.partition = partition;
        self
    }
}

/// What one trace entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An intranode protocol packet was delivered.
    Packet,
    /// An internode go-back-N frame was delivered.
    Frame,
    /// A retransmission timer fired.
    Timer,
}

/// One event of a recorded run: enough to compare two runs byte for byte
/// (the payload hash covers the full wire encoding of the packet or frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the event in microseconds.
    pub at_us: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Originating process (for timers: the process whose timer fired).
    pub src: ProcessId,
    /// Receiving process.
    pub dst: ProcessId,
    /// FNV-1a hash of the event payload: the encoded packet/frame bytes, or
    /// the timer generation.
    pub payload_hash: u64,
}

/// Counters of the fault plane itself (the per-endpoint protocol counters
/// live in [`EndpointStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Events dispatched from the virtual clock's queue.
    pub events: u64,
    /// Frames dropped by the loss model.
    pub frames_dropped: u64,
    /// Frames delivered twice by the duplication model.
    pub frames_duplicated: u64,
    /// Frames held back by the reorder model.
    pub frames_held: u64,
    /// Frames dropped because their node pair was partitioned.
    pub partition_drops: u64,
    /// Packets and frames addressed to a process that was never added.
    pub unroutable_drops: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// One FNV-1a step over a whole 64-bit word.  The rotate carries the high
/// bits (which a multiply alone only ever pushes upward) back into the low
/// ones; every step stays a bijection of the running hash, so two inputs
/// that differ in one word can never collide.
fn fnv_u64(hash: u64, value: u64) -> u64 {
    (hash.rotate_left(5) ^ value).wrapping_mul(FNV_PRIME)
}

/// Hashes a wire encoding in four independent lanes — it runs over every
/// dispatched frame, and one serial multiply chain per frame was most of a
/// lossy 64 KiB operation's wall time.  The length goes in first (the word
/// steps would otherwise not see where the buffer ends).  Each 32-byte block
/// then feeds one little-endian word to each lane, the lanes fold into the
/// hash in order, and the remaining words and tail bytes follow one at a
/// time.  Every lane step and every fold step is a bijection of its input
/// word, so a change to any one byte still changes the hash.
fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    let hash = fnv_u64(hash, bytes.len() as u64);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let (mut l0, mut l1, mut l2, mut l3) = (
        hash,
        hash.rotate_left(16),
        hash.rotate_left(32),
        hash.rotate_left(48),
    );
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        l0 = fnv_u64(l0, word(&block[..8]));
        l1 = fnv_u64(l1, word(&block[8..16]));
        l2 = fnv_u64(l2, word(&block[16..24]));
        l3 = fnv_u64(l3, word(&block[24..]));
    }
    let mut hash = [l0, l1, l2, l3].into_iter().fold(hash, fnv_u64);
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        hash = fnv_u64(hash, word(w));
    }
    words.remainder().iter().fold(hash, |h, &b| fnv_mix(h, b))
}

enum Ev {
    Packet {
        src: ProcessId,
        dst: ProcessId,
        packet: Packet,
    },
    Frame {
        src: ProcessId,
        dst: ProcessId,
        frame: Frame,
    },
    /// The retransmission timer of `dst`'s channel to `peer`; which
    /// generation it fires is decided when it is popped.
    Timer { dst: ProcessId, peer: ProcessId },
}

/// Heap entry ordered by `(at_us, seq)`; `seq` is the scheduling order, so
/// simultaneous events dispatch deterministically.
struct Pending {
    at_us: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

struct Proc {
    id: ProcessId,
    engine: Endpoint,
    done: CompletionQueue,
    /// One record per peer this endpoint has armed a timer for, created on
    /// first use (a cluster's endpoints talk to few peers, so a scan is
    /// enough).
    timers: Vec<ChannelTimer>,
}

/// The retransmission timer of one (endpoint, peer) channel.
struct ChannelTimer {
    peer: ProcessId,
    /// The armed timer as `(generation, deadline, scheduling order)`;
    /// `None` once cancelled or fired.
    live: Option<(u64, u64, u64)>,
    /// `(deadline, scheduling order)` of the one queue entry standing for
    /// this timer, if any.
    queued: Option<(u64, u64)>,
}

struct ChaosRouter {
    cfg: ChaosConfig,
    procs: Vec<Proc>,
    index: U64Index,
    /// Virtual clock in microseconds; advances to each event's timestamp.
    now_us: u64,
    /// Scheduling order tiebreaker for simultaneous events.
    next_seq: u64,
    queue: BinaryHeap<Reverse<Pending>>,
    /// Directed per-link fault models, created lazily from the master seed.
    links: HashMap<(u64, u64), LinkFaults>,
    /// Seeded partition schedules per unordered node pair (`None` when the
    /// pair drew no schedule).
    partitions: HashMap<(u32, u32), Option<PartitionSchedule>>,
    /// Manually partitioned node pairs ([`ChaosCluster::partition`]).
    manual_partitions: HashSet<(u32, u32)>,
    stats: ChaosStats,
    trace_hash: u64,
    trace: Vec<TraceRecord>,
    /// Scratch for trace hashing (frame/packet encodings).
    encode_scratch: BytesMut,
    actions: Vec<Action>,
    comps: Vec<Completion>,
    pending_wakes: Vec<Waker>,
}

impl ChaosRouter {
    fn idx(&self, id: ProcessId) -> Option<usize> {
        self.index.get(id.as_u64()).map(|i| i as usize)
    }

    fn schedule(&mut self, at_us: u64, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Pending { at_us, seq, ev }));
    }

    fn pair_key(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    /// `true` while the node pair of `src`/`dst` is partitioned (manually or
    /// by the seeded schedule) at the current virtual time.
    fn partitioned(&mut self, src: ProcessId, dst: ProcessId) -> bool {
        let key = Self::pair_key(src.node.0, dst.node.0);
        if self.manual_partitions.contains(&key) {
            return true;
        }
        let Some(partition_cfg) = self.cfg.partition.clone() else {
            return false;
        };
        let master = self.cfg.seed;
        let now = self.now_us;
        let schedule = self.partitions.entry(key).or_insert_with(|| {
            let pair_seed = derive_seed(
                derive_seed(master ^ 0x7061_7274_6974_696f, key.0 as u64),
                key.1 as u64,
            );
            // Uniform draw in [0, 1) from the pair's derived seed decides
            // whether this pair has a schedule at all.
            let draw = (derive_seed(pair_seed, 1) >> 11) as f64 / (1u64 << 53) as f64;
            (draw < partition_cfg.pair_p).then(|| {
                PartitionSchedule::new(
                    derive_seed(pair_seed, 2),
                    partition_cfg.gap_us,
                    partition_cfg.len_us,
                )
            })
        });
        schedule.as_mut().map(|s| s.blocked(now)).unwrap_or(false)
    }

    fn link(&mut self, src: ProcessId, dst: ProcessId) -> &mut LinkFaults {
        let key = (src.as_u64(), dst.as_u64());
        let cfg = &self.cfg;
        self.links.entry(key).or_insert_with(|| {
            let link_seed = derive_seed(derive_seed(cfg.seed, key.0), key.1);
            LinkFaults {
                loss: LossModel::bernoulli(cfg.drop_p, derive_seed(link_seed, 1)),
                duplicate: DuplicateModel::new(cfg.duplicate_p, derive_seed(link_seed, 2)),
                reorder: ReorderModel::new(
                    cfg.reorder_p,
                    cfg.reorder_hold_us,
                    derive_seed(link_seed, 3),
                ),
                delay: DelayModel::new(
                    cfg.base_latency_us,
                    cfg.jitter_us,
                    derive_seed(link_seed, 4),
                ),
            }
        })
    }

    /// Drains one engine's outputs, scheduling frame deliveries through the
    /// fault plane and timers on the virtual clock.
    fn collect(&mut self, idx: usize) {
        let mut actions = std::mem::take(&mut self.actions);
        let mut comps = std::mem::take(&mut self.comps);
        let id;
        let mut woken;
        {
            let proc = &mut self.procs[idx];
            id = proc.id;
            proc.engine.drain_actions_into(&mut actions);
            proc.engine.drain_completions_into(&mut comps);
            woken = proc.done.publish(&mut comps);
        }
        if !woken.is_empty() {
            self.pending_wakes.append(&mut woken);
            self.procs[idx].done.recycle_woken(woken);
        }
        self.comps = comps;
        for action in actions.drain(..) {
            match action {
                Action::Transmit { dst, packet, .. } => {
                    if self.idx(dst).is_none() {
                        self.stats.unroutable_drops += 1;
                        continue;
                    }
                    // Intranode shared memory is reliable: fixed latency, no
                    // fault plane.
                    let at = self.now_us + self.cfg.intranode_latency_us;
                    self.schedule(
                        at,
                        Ev::Packet {
                            src: id,
                            dst,
                            packet,
                        },
                    );
                }
                Action::TransmitFrame { dst, frame, .. } => {
                    if self.idx(dst).is_none() {
                        self.stats.unroutable_drops += 1;
                        continue;
                    }
                    if self.partitioned(id, dst) {
                        self.stats.partition_drops += 1;
                        continue;
                    }
                    match self.link(id, dst).decide() {
                        FrameFate::Dropped => self.stats.frames_dropped += 1,
                        FrameFate::Deliver {
                            delay_us,
                            duplicate_delay_us,
                        } => {
                            if delay_us > self.cfg.base_latency_us + self.cfg.jitter_us {
                                self.stats.frames_held += 1;
                            }
                            let at = self.now_us + delay_us;
                            if let Some(dup_delay) = duplicate_delay_us {
                                self.stats.frames_duplicated += 1;
                                let dup_at = self.now_us + dup_delay;
                                self.schedule(
                                    dup_at,
                                    Ev::Frame {
                                        src: id,
                                        dst,
                                        frame: frame.clone(),
                                    },
                                );
                            }
                            self.schedule(
                                at,
                                Ev::Frame {
                                    src: id,
                                    dst,
                                    frame,
                                },
                            );
                        }
                    }
                }
                Action::SetTimer { timer, delay_us } => self.arm_timer(idx, timer, delay_us),
                Action::CancelTimer { timer } => self.cancel_timer(idx, timer),
                // Cost-model hints have no substrate to charge, and
                // drop/failure notifications are already counted in the
                // engine's own stats.
                Action::Translate { .. }
                | Action::Copy { .. }
                | Action::PacketDropped { .. }
                | Action::ChannelFailed { .. } => {}
            }
        }
        self.actions = actions;
    }

    /// Arms (or re-arms) the timer of `procs[idx]`'s channel to
    /// `timer.peer`.  The queue holds at most one entry per channel timer: a
    /// re-arm to a later deadline only updates the record, and the entry
    /// moves itself there when it is popped (see [`Self::claim_timer`]).
    fn arm_timer(&mut self, idx: usize, timer: TimerId, delay_us: u64) {
        let at_us = self.now_us + delay_us;
        // Consumed even when nothing is queued now: the order a timer was
        // armed in is the order it fires in among simultaneous events.
        let seq = self.next_seq;
        self.next_seq += 1;
        let proc = &mut self.procs[idx];
        let dst = proc.id;
        let slot = match proc.timers.iter().position(|t| t.peer == timer.peer) {
            Some(i) => &mut proc.timers[i],
            None => {
                proc.timers.push(ChannelTimer {
                    peer: timer.peer,
                    live: None,
                    queued: None,
                });
                proc.timers.last_mut().expect("just pushed")
            }
        };
        slot.live = Some((timer.generation, at_us, seq));
        if slot.queued.is_some_and(|(queued_at, _)| queued_at <= at_us) {
            return;
        }
        slot.queued = Some((at_us, seq));
        self.queue.push(Reverse(Pending {
            at_us,
            seq,
            ev: Ev::Timer {
                dst,
                peer: timer.peer,
            },
        }));
    }

    /// Disarms the timer of `procs[idx]`'s channel to `timer.peer`.  Its
    /// queued entry, if any, stays put and is dropped when popped.
    fn cancel_timer(&mut self, idx: usize, timer: TimerId) {
        let timers = &mut self.procs[idx].timers;
        if let Some(slot) = timers.iter_mut().find(|t| t.peer == timer.peer) {
            if slot
                .live
                .is_some_and(|(generation, ..)| generation == timer.generation)
            {
                slot.live = None;
            }
        }
    }

    /// Decides what a popped timer entry is: the generation to fire when
    /// its timer is still armed for this deadline, or `None` when the entry
    /// is superseded (the timer was cancelled, or re-armed to a later
    /// deadline — the entry is then queued again at that deadline).  A
    /// stale generation was always a no-op in the engine, so the engine
    /// still sees every timer it would act on.
    fn claim_timer(
        &mut self,
        dst: ProcessId,
        peer: ProcessId,
        at_us: u64,
        seq: u64,
    ) -> Option<u64> {
        let d = self.idx(dst)?;
        let slot = self.procs[d].timers.iter_mut().find(|t| t.peer == peer)?;
        if slot.queued != Some((at_us, seq)) {
            return None;
        }
        slot.queued = None;
        let (generation, live_at, live_seq) = slot.live?;
        if live_at > at_us {
            slot.queued = Some((live_at, live_seq));
            self.queue.push(Reverse(Pending {
                at_us: live_at,
                seq: live_seq,
                ev: Ev::Timer { dst, peer },
            }));
            return None;
        }
        slot.live = None;
        Some(generation)
    }

    fn record(&mut self, kind: TraceKind, src: ProcessId, dst: ProcessId, payload_hash: u64) {
        let record = TraceRecord {
            at_us: self.now_us,
            kind,
            src,
            dst,
            payload_hash,
        };
        let mut h = self.trace_hash;
        h = fnv_u64(h, record.at_us);
        h = fnv_mix(h, kind as u8);
        h = fnv_u64(h, src.as_u64());
        h = fnv_u64(h, dst.as_u64());
        h = fnv_u64(h, payload_hash);
        self.trace_hash = h;
        if self.cfg.record_trace {
            self.trace.push(record);
        }
    }

    /// Dispatches queued events in virtual-time order until the queue is
    /// empty, then runs the wedge check.  Panics (seed-labeled) when the
    /// event budget is exceeded or a channel is wedged.
    fn run(&mut self) {
        while let Some(Reverse(pending)) = self.queue.pop() {
            // A superseded timer entry is not an event: it neither counts
            // nor moves the clock.
            let timer = match pending.ev {
                Ev::Timer { dst, peer } => {
                    match self.claim_timer(dst, peer, pending.at_us, pending.seq) {
                        Some(generation) => Some(TimerId { peer, generation }),
                        None => continue,
                    }
                }
                _ => None,
            };
            debug_assert!(pending.at_us >= self.now_us, "virtual time went backwards");
            self.now_us = pending.at_us;
            // Every trace event this dispatch emits is stamped with the
            // virtual clock, so a replayed seed produces identical traces.
            telemetry::clock::set_virtual_us(self.now_us);
            self.stats.events += 1;
            if self.stats.events > self.cfg.max_events {
                let trace = self.dump_failure_trace();
                panic!(
                    "chaos seed {}: exceeded the {}-event budget at t={}us — the run is not \
                     converging; replay with `ChaosConfig::new({})` (raise `max_events` only if \
                     the workload legitimately needs more); flight recorder dump: {}",
                    self.cfg.seed, self.cfg.max_events, self.now_us, self.cfg.seed, trace
                );
            }
            match pending.ev {
                Ev::Packet { src, dst, packet } => {
                    let mut scratch = std::mem::take(&mut self.encode_scratch);
                    scratch.clear();
                    packet.encode_into(&mut scratch);
                    let hash = fnv_bytes(FNV_OFFSET, &scratch);
                    self.encode_scratch = scratch;
                    self.record(TraceKind::Packet, src, dst, hash);
                    let d = self.idx(dst).expect("destination checked at schedule time");
                    self.procs[d].engine.handle_packet(src, packet);
                    self.collect(d);
                }
                Ev::Frame { src, dst, frame } => {
                    let mut scratch = std::mem::take(&mut self.encode_scratch);
                    scratch.clear();
                    frame.encode_into(&mut scratch);
                    let hash = fnv_bytes(FNV_OFFSET, &scratch);
                    self.encode_scratch = scratch;
                    self.record(TraceKind::Frame, src, dst, hash);
                    let d = self.idx(dst).expect("destination checked at schedule time");
                    self.procs[d].engine.handle_frame(src, frame);
                    self.collect(d);
                }
                Ev::Timer { dst, .. } => {
                    let timer = timer.expect("claimed above");
                    let hash = fnv_u64(FNV_OFFSET, timer.generation);
                    self.record(TraceKind::Timer, dst, dst, hash);
                    let d = self.idx(dst).expect("timer owner is registered");
                    self.procs[d].engine.handle_timer(timer);
                    self.collect(d);
                }
            }
        }
        self.wedge_check();
    }

    /// At quiescence (empty event queue — so no timer can fire), any channel
    /// still holding unacknowledged frames without having failed can never
    /// recover: its retransmission timer was lost.  That is a protocol bug
    /// (exactly what [`ChaosConfig::sabotage_skip_rearm`] injects), not a
    /// fault-plane outcome — fail the seed loudly.
    fn wedge_check(&self) {
        for proc in &self.procs {
            let mut wedged: Option<(ProcessId, &'static str, GbnStats)> = None;
            proc.engine.each_channel(|peer, channel| {
                if !channel.idle() && !channel.failed() && wedged.is_none() {
                    wedged = Some((peer, channel.mode().label(), channel.stats()));
                }
            });
            if let Some((peer, mode, stats)) = wedged {
                let trace = self.dump_failure_trace();
                panic!(
                    "chaos seed {}: endpoint {} wedged towards {} at t={}us — unacknowledged \
                     frames on a {} channel with no retransmission timer pending and no channel \
                     failure; replay with `ChaosConfig::new({})` (see README \"Chaos testing\"); \
                     stalled channel stats: {:?}; flight recorder dump: {}",
                    self.cfg.seed, proc.id, peer, self.now_us, mode, self.cfg.seed, stats, trace
                );
            }
        }
    }

    /// Writes the flight recorder's chrome://tracing dump for a failing
    /// seed — to `$CHAOS_TRACE_DIR` when set, the OS temp directory
    /// otherwise — and returns the path (or the error, best effort: the
    /// panic it decorates must fire regardless).
    fn dump_failure_trace(&self) -> String {
        let dir = std::env::var_os("CHAOS_TRACE_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let _ = std::fs::create_dir_all(&dir); // best effort; the write below reports any error
        let path = dir.join(format!("ppmsg-chaos-seed-{}.trace.json", self.cfg.seed));
        match telemetry::export::dump_chrome_trace(&path) {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("<failed to write {}: {e}>", path.display()),
        }
    }
}

/// A deterministic fault-injecting cluster of protocol endpoints sharing one
/// virtual-clocked router.  See the module documentation.
#[derive(Clone)]
pub struct ChaosCluster {
    router: Arc<Mutex<ChaosRouter>>,
    protocol: ProtocolConfig,
}

impl ChaosCluster {
    /// Creates an empty cluster; every endpoint uses `protocol` and every
    /// fault decision derives from `chaos.seed`.
    pub fn new(protocol: ProtocolConfig, chaos: ChaosConfig) -> Self {
        ChaosCluster {
            router: Arc::new(Mutex::new(ChaosRouter {
                cfg: chaos,
                procs: Vec::new(),
                index: U64Index::new(),
                now_us: 0,
                next_seq: 0,
                queue: BinaryHeap::new(),
                links: HashMap::new(),
                partitions: HashMap::new(),
                manual_partitions: HashSet::new(),
                stats: ChaosStats::default(),
                trace_hash: FNV_OFFSET,
                trace: Vec::new(),
                encode_scratch: BytesMut::new(),
                actions: Vec::new(),
                comps: Vec::new(),
                pending_wakes: Vec::new(),
            })),
            protocol,
        }
    }

    /// Adds a process to the cluster and returns its endpoint handle.
    ///
    /// # Panics
    ///
    /// Panics if the process was already added.
    pub fn add_endpoint(&self, id: ProcessId) -> ChaosEndpoint {
        self.add_endpoint_with(id, &EndpointConfig::new())
    }

    /// Adds a process with per-endpoint configuration overrides (same
    /// contract as
    /// [`LoopbackCluster::add_endpoint_with`](crate::loopback::LoopbackCluster::add_endpoint_with)).
    ///
    /// # Panics
    ///
    /// Panics if the process was already added or the resulting protocol
    /// configuration is invalid.
    pub fn add_endpoint_with(&self, id: ProcessId, config: &EndpointConfig) -> ChaosEndpoint {
        let mut router = self.router.lock().unwrap();
        assert!(
            router.index.get(id.as_u64()).is_none(),
            "endpoint {id} added twice"
        );
        let mut done = CompletionQueue::new();
        config.apply_retention(&mut done);
        let mut engine = Endpoint::new(id, config.apply_protocol(self.protocol.clone()));
        if router.cfg.sabotage_skip_rearm {
            engine.sabotage_skip_rearm();
        }
        let idx = router.procs.len() as u32;
        router.index.insert(id.as_u64(), idx);
        router.procs.push(Proc {
            id,
            engine,
            done,
            timers: Vec::new(),
        });
        ChaosEndpoint {
            router: self.router.clone(),
            id,
        }
    }

    /// Manually partitions the node pair of `a` and `b`: every internode
    /// frame between the two nodes is dropped, in both directions, until
    /// [`ChaosCluster::heal`].  Frames already in flight still deliver.
    pub fn partition(&self, a: ProcessId, b: ProcessId) {
        let key = ChaosRouter::pair_key(a.node.0, b.node.0);
        self.router.lock().unwrap().manual_partitions.insert(key);
    }

    /// Heals a manual partition created by [`ChaosCluster::partition`].
    pub fn heal(&self, a: ProcessId, b: ProcessId) {
        let key = ChaosRouter::pair_key(a.node.0, b.node.0);
        self.router.lock().unwrap().manual_partitions.remove(&key);
    }

    /// Counters of the fault plane: events dispatched, faults injected,
    /// unroutable traffic.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.router.lock().unwrap().stats
    }

    /// Rolling FNV-1a hash over every dispatched event (time, kind,
    /// endpoints, and the full wire encoding of the packet or frame).  Two
    /// runs of the same seed and workload must report the same hash.
    pub fn trace_hash(&self) -> u64 {
        self.router.lock().unwrap().trace_hash
    }

    /// Takes the recorded trace (empty unless [`ChaosConfig::record_trace`]
    /// was set).
    pub fn take_trace(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.router.lock().unwrap().trace)
    }

    /// The current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.router.lock().unwrap().now_us
    }
}

/// One process's handle onto a [`ChaosCluster`].  Every post drains the
/// virtual clock to quiescence before returning, so — like the loopback
/// cluster — anything that can complete has completed by the time a post
/// returns, go-back-N recovery included.
#[derive(Clone)]
pub struct ChaosEndpoint {
    router: Arc<Mutex<ChaosRouter>>,
    id: ProcessId,
}

impl ChaosEndpoint {
    /// This endpoint's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    fn with_engine<R>(&self, f: impl FnOnce(&mut Endpoint) -> R) -> R {
        let mut router = self.router.lock().unwrap();
        // The posting thread joins the router's virtual clock for the
        // duration of the interaction, so post-side trace events carry
        // deterministic timestamps too.
        telemetry::clock::set_virtual_us(router.now_us);
        let idx = router.idx(self.id).expect("endpoint registered");
        let result = f(&mut router.procs[idx].engine);
        router.collect(idx);
        router.run();
        let wakes = if router.pending_wakes.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut router.pending_wakes)
        };
        drop(router);
        // Hand the thread's trace clock back: the same test thread may go
        // on to drive a wall-clocked host backend.
        telemetry::clock::set_wall();
        ppmsg_core::ops::wake_all(wakes, |drained| {
            let mut router = self.router.lock().unwrap();
            if drained.capacity() > router.pending_wakes.capacity() {
                router.pending_wakes = drained;
            }
        });
        result
    }

    /// Posts a send; the transfer — retransmissions and all — is driven to
    /// quiescence through the fault plane before this returns.
    pub fn post_send(&self, peer: ProcessId, tag: Tag, data: impl Into<Bytes>) -> Result<SendOp> {
        let data = data.into();
        self.with_engine(|e| e.post_send(peer, tag, data))
    }

    /// Posts a vectored send; see
    /// [`Endpoint::post_send_vectored`](ppmsg_core::Endpoint::post_send_vectored).
    pub fn post_send_vectored(
        &self,
        peer: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<SendOp> {
        self.with_engine(|e| e.post_send_vectored(peer, tag, segments))
    }

    /// Posts an engine-buffered receive (wildcards allowed).
    pub fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        self.with_engine(|e| e.post_recv_with(src, tag, capacity, policy))
    }

    /// Posts a caller-buffered receive (wildcards allowed).
    pub fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        self.with_engine(|e| e.post_recv_into(src, tag, buf, policy))
    }

    /// Cancels a still-unmatched receive.
    pub fn cancel(&self, op: RecvOp) -> bool {
        self.with_engine(|e| e.cancel(op))
    }

    /// Cancels a posted send whose remainder has not been pulled yet.
    pub fn cancel_send(&self, op: SendOp) -> bool {
        self.with_engine(|e| e.cancel_send(op))
    }

    /// Takes the completion of `op` if the operation has finished.
    pub fn take_completion(&self, op: OpId) -> Option<Completion> {
        let mut router = self.router.lock().unwrap();
        let idx = router.idx(self.id).expect("endpoint registered");
        router.procs[idx].done.take(op)
    }

    /// Protocol statistics of this endpoint (including the new
    /// [`EndpointStats::packets_dropped`] / [`EndpointStats::channels_failed`]
    /// counters and the completion queue's eviction counter).
    pub fn stats(&self) -> EndpointStats {
        let router = self.router.lock().unwrap();
        let idx = router.idx(self.id).expect("endpoint registered");
        let mut stats = router.procs[idx].engine.stats();
        stats.completions_evicted = router.procs[idx].done.evicted();
        stats
    }
}

/// The chaos binding's backend contract, mirroring the loopback binding:
/// every post drives the virtual clock to quiescence synchronously.
impl RawTransport for ChaosEndpoint {
    fn local_id(&self) -> ProcessId {
        self.id()
    }

    fn post_send(&self, peer: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp> {
        ChaosEndpoint::post_send(self, peer, tag, data)
    }

    fn post_send_vectored(&self, peer: ProcessId, tag: Tag, segments: &[Bytes]) -> Result<SendOp> {
        ChaosEndpoint::post_send_vectored(self, peer, tag, segments)
    }

    fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        ChaosEndpoint::post_recv(self, src, tag, capacity, policy)
    }

    fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        ChaosEndpoint::post_recv_into(self, src, tag, buf, policy)
    }

    fn cancel_recv(&self, op: RecvOp) -> bool {
        ChaosEndpoint::cancel(self, op)
    }

    fn cancel_send(&self, op: SendOp) -> bool {
        ChaosEndpoint::cancel_send(self, op)
    }

    fn with_completions(&self, f: &mut dyn FnMut(&mut CompletionQueue)) {
        let mut router = self.router.lock().unwrap();
        let idx = router.idx(self.id).expect("endpoint registered");
        f(&mut router.procs[idx].done);
    }

    fn stats(&self) -> EndpointStats {
        ChaosEndpoint::stats(self)
    }
}

// ---------------------------------------------------------------------------
// Multi-seed sweep runner
// ---------------------------------------------------------------------------

/// One failing seed of a sweep.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The master seed that failed.
    pub seed: u64,
    /// The panic message of the failure.
    pub message: String,
}

/// Result of a [`sweep`]: how many seeds ran and which failed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Number of seeds executed.
    pub seeds_run: u64,
    /// Every failing seed, in seed order.
    pub failures: Vec<SeedFailure>,
}

impl ChaosReport {
    /// Renders the report with replay instructions for every failing seed.
    pub fn render(&self, suite: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos sweep `{suite}`: {} seeds, {} failing",
            self.seeds_run,
            self.failures.len()
        );
        for failure in &self.failures {
            let _ = writeln!(
                out,
                "  seed {} FAILED — replay with `ChaosConfig::new({})` (or run the suite with \
                 CHAOS_SEED_START={} CHAOS_SEEDS=1): {}",
                failure.seed, failure.seed, failure.seed, failure.message
            );
        }
        out
    }

    /// Appends the rendered report to the file named by the `CHAOS_REPORT`
    /// environment variable, when set (the CI chaos job uploads it as an
    /// artifact).  Errors writing the report are ignored — the report is
    /// advisory; the panic in [`ChaosReport::assert_clean`] is the gate.
    pub fn publish(&self, suite: &str) {
        if let Ok(path) = std::env::var("CHAOS_REPORT") {
            use std::io::Write as _;
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = file.write_all(self.render(suite).as_bytes());
            }
        }
    }

    /// Prints the report and panics if any seed failed.
    pub fn assert_clean(&self, suite: &str) {
        self.publish(suite);
        println!("{}", self.render(suite));
        assert!(
            self.failures.is_empty(),
            "chaos sweep `{suite}`: {} of {} seeds failed — failing seeds: {:?}",
            self.failures.len(),
            self.seeds_run,
            self.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
        );
    }
}

/// Number of seeds a sweep should run: the `CHAOS_SEEDS` environment
/// variable when set, else `default`.  The CI chaos job bounds sweeps with
/// `CHAOS_SEEDS=256`; full-size sweeps stay local.
pub fn seeds_from_env(default: u64) -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// First seed of a sweep: the `CHAOS_SEED_START` environment variable when
/// set, else `default` — the replay knob for a single failing seed.
pub fn seed_start_from_env(default: u64) -> u64 {
    std::env::var("CHAOS_SEED_START")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Runs `scenario` once per seed in `seeds`, catching seed-labeled panics
/// and collecting them into a [`ChaosReport`].  The default panic hook is
/// suppressed for the duration of the sweep so expected failures (e.g. the
/// harness's own sabotage regression test) do not spam stderr; the report
/// carries every message.
pub fn sweep(seeds: std::ops::Range<u64>, scenario: impl Fn(u64)) -> ChaosReport {
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct HookGuard(Option<PanicHook>);
    impl Drop for HookGuard {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                std::panic::set_hook(prev);
            }
        }
    }
    let guard = HookGuard(Some(std::panic::take_hook()));
    std::panic::set_hook(Box::new(|_| {}));

    let mut report = ChaosReport::default();
    for seed in seeds {
        report.seeds_run += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario(seed)));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            report.failures.push(SeedFailure { seed, message });
        }
    }
    drop(guard);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppmsg_core::{Status, ANY_SOURCE, ANY_TAG};

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    fn internode_pair(cfg: ChaosConfig) -> (ChaosCluster, ChaosEndpoint, ChaosEndpoint) {
        let cluster = ChaosCluster::new(
            ProtocolConfig::paper_internode().with_pushed_buffer(1 << 20),
            cfg,
        );
        let a = cluster.add_endpoint(ProcessId::new(0, 0));
        let b = cluster.add_endpoint(ProcessId::new(1, 0));
        (cluster, a, b)
    }

    #[test]
    fn transfer_survives_the_fault_plane() {
        let (cluster, a, b) = internode_pair(ChaosConfig::new(42));
        let data = payload(10_000);
        let recv = b
            .post_recv(a.id(), Tag(1), 10_000, TruncationPolicy::Error)
            .unwrap();
        let send = a.post_send(b.id(), Tag(1), data.clone()).unwrap();
        let done = b.take_completion(OpId::Recv(recv)).expect("delivered");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.data.unwrap(), data);
        assert!(a.take_completion(OpId::Send(send)).is_some());
        assert!(cluster.chaos_stats().events > 0);
    }

    #[test]
    fn retransmission_recovers_from_drops() {
        // Heavy loss, no partitions: recovery must come from timers firing
        // on the virtual clock.
        let cfg = ChaosConfig::new(7).with_drop(0.4).with_partition(None);
        let (cluster, a, b) = internode_pair(cfg);
        let data = payload(6_000);
        let recv = b
            .post_recv(a.id(), Tag(3), 6_000, TruncationPolicy::Error)
            .unwrap();
        a.post_send(b.id(), Tag(3), data.clone()).unwrap();
        let done = b.take_completion(OpId::Recv(recv)).expect("recovered");
        assert_eq!(done.data.unwrap(), data);
        let stats = cluster.chaos_stats();
        assert!(stats.frames_dropped > 0, "40% loss must drop something");
        let gbn = a.with_engine(|e| e.channel_stats(ProcessId::new(1, 0)).unwrap());
        assert!(gbn.retransmissions > 0, "recovery must use retransmission");
    }

    #[test]
    fn same_seed_produces_identical_traces() {
        let run = || {
            let (cluster, a, b) = internode_pair(ChaosConfig::new(99).with_trace());
            let recv = b
                .post_recv(ANY_SOURCE, ANY_TAG, 4096, TruncationPolicy::Error)
                .unwrap();
            a.post_send(b.id(), Tag(5), payload(4096)).unwrap();
            b.take_completion(OpId::Recv(recv)).expect("delivered");
            (cluster.trace_hash(), cluster.take_trace())
        };
        let (hash1, trace1) = run();
        let (hash2, trace2) = run();
        assert_eq!(hash1, hash2, "same seed must hash identically");
        assert_eq!(trace1, trace2, "same seed must replay byte for byte");
        assert!(!trace1.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let (cluster, a, b) = internode_pair(ChaosConfig::new(seed));
            let recv = b
                .post_recv(a.id(), Tag(5), 4096, TruncationPolicy::Error)
                .unwrap();
            a.post_send(b.id(), Tag(5), payload(4096)).unwrap();
            b.take_completion(OpId::Recv(recv)).expect("delivered");
            cluster.trace_hash()
        };
        assert_ne!(run(1), run(2), "seeds must actually steer the fault plane");
    }

    #[test]
    fn payload_hash_covers_every_byte_and_the_length() {
        // One max-payload frame: 187 whole words and a 4-byte tail.
        let frame: Vec<u8> = (0..1500).map(|i| (i * 31 % 251) as u8).collect();
        let clean = fnv_bytes(FNV_OFFSET, &frame);
        assert_eq!(clean, fnv_bytes(FNV_OFFSET, &frame), "deterministic");
        let mut flipped = frame.clone();
        for i in 0..frame.len() {
            flipped[i] ^= 0x01;
            assert_ne!(
                fnv_bytes(FNV_OFFSET, &flipped),
                clean,
                "low bit of byte {i}"
            );
            flipped[i] ^= 0x81;
            assert_ne!(
                fnv_bytes(FNV_OFFSET, &flipped),
                clean,
                "high bit of byte {i}"
            );
            flipped[i] ^= 0x80;
        }
        assert_eq!(flipped, frame);
        // Zero padding is not invisible: the length is part of the hash.
        let zeros = [0u8; 24];
        let hashes: Vec<u64> = (0..=24)
            .map(|n| fnv_bytes(FNV_OFFSET, &zeros[..n]))
            .collect();
        for (n, h) in hashes.iter().enumerate() {
            assert!(
                !hashes[..n].contains(h),
                "length {n} collides with a shorter one"
            );
        }
    }

    #[test]
    fn permanent_partition_fails_cleanly() {
        // Block the pair before any traffic: the sender must exhaust its
        // retries and complete the send with ChannelFailed — no hang.
        let cfg = ChaosConfig::lossless(3);
        let (cluster, a, b) = internode_pair(cfg);
        cluster.partition(a.id(), b.id());
        let send = a.post_send(b.id(), Tag(9), payload(50_000)).unwrap();
        let done = a
            .take_completion(OpId::Send(send))
            .expect("send must complete, not hang");
        assert_eq!(
            done.status,
            Status::Error(ppmsg_core::Error::ChannelFailed { peer: b.id() }),
        );
        let stats = a.stats();
        assert_eq!(stats.channels_failed, 1);
        assert!(cluster.chaos_stats().partition_drops > 0);
    }

    #[test]
    fn unroutable_traffic_is_counted_and_fails() {
        let cfg = ChaosConfig::lossless(4);
        let (cluster, a, _b) = internode_pair(cfg);
        let ghost = ProcessId::new(9, 0);
        // Large enough to register and await a pull (an eager send completes
        // `Ok` the moment it is handed to the transport).
        let send = a.post_send(ghost, Tag(1), payload(50_000)).unwrap();
        // The virtual clock runs the retry budget down: the send fails
        // cleanly instead of pending forever (contrast with loopback, which
        // can only count the misroute).
        let done = a.take_completion(OpId::Send(send)).expect("failed cleanly");
        assert!(matches!(done.status, Status::Error(_)));
        assert!(cluster.chaos_stats().unroutable_drops > 0);
    }

    #[test]
    fn sweep_reports_failing_seeds() {
        let report = sweep(0..10, |seed| {
            if seed == 3 || seed == 7 {
                panic!("chaos seed {seed}: injected test failure");
            }
        });
        assert_eq!(report.seeds_run, 10);
        let seeds: Vec<u64> = report.failures.iter().map(|f| f.seed).collect();
        assert_eq!(seeds, vec![3, 7]);
        assert!(report.render("unit").contains("seed 3 FAILED"));
    }
}
