//! Reliable delivery for the internode path: go-back-N and selective repeat.
//!
//! The paper's prototype runs directly on raw Fast Ethernet frames and
//! implements "the go-back-n reliable protocol" (citing Tanenbaum) to recover
//! from drops — most importantly the drops that happen when Push-All
//! overwhelms the finite pushed buffer at a late receiver (Fig. 6, right).
//!
//! [`GoBackN`] is a per-peer, sans-I/O ARQ channel: protocol packets go in,
//! [`GbnEvent`]s come out (frames to transmit, packets to deliver, timers to
//! arm).  The engine owns one channel per internode peer; intranode peers
//! bypass the ARQ entirely because shared memory does not lose data.
//!
//! [`SelectiveRepeat`] is the production-fan-in alternative
//! ([`ReliabilityMode::SelectiveRepeat`]): the receiver buffers out-of-order
//! frames and acknowledges them with a SACK bitmap ([`Frame::Sack`]), so a
//! single loss costs one retransmission instead of the whole window.  Both
//! channels speak the same [`GbnEvent`] interface and are dispatched through
//! [`ArqChannel`], so the engine, backends, and chaos harness treat them
//! uniformly.

// ppmsg-lint: deny(hot_path_alloc) — steady-state engine path; pooled buffers only.

use crate::error::{Error, Result};
use crate::telemetry::{self, EventKind};
use crate::wire::{Packet, MAX_HEADER_LEN};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which ARQ scheme an endpoint's internode channels run.
///
/// Selectable per endpoint via
/// [`EndpointConfig::reliability`](crate::EndpointConfig::reliability) or the
/// [`ProtocolConfig::reliability`](crate::ProtocolConfig) field; both modes
/// share the window / RTO / retry knobs of [`GbnConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReliabilityMode {
    /// The paper's scheme: cumulative acks, receiver discards out-of-order
    /// frames, a timeout retransmits the whole in-flight window.  Cheapest
    /// per-frame bookkeeping; pathological under loss on high-BDP links.
    #[default]
    GoBackN,
    /// SACK-bitmap acks with an out-of-order receive buffer: only frames
    /// actually missing are retransmitted — on a timeout (the oldest one), or
    /// as soon as a SACK acknowledges a frame sent after them.
    SelectiveRepeat,
}

impl ReliabilityMode {
    /// Human-readable label used in logs and wedge diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            ReliabilityMode::GoBackN => "go-back-N",
            ReliabilityMode::SelectiveRepeat => "selective-repeat",
        }
    }
}

/// Configuration of a go-back-N channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GbnConfig {
    /// Maximum number of unacknowledged data frames in flight.
    pub window: usize,
    /// Retransmission timeout in microseconds.  The paper's prototype uses a
    /// coarse kernel timer; 50 ms reproduces the ≈150 ms Push-All recovery
    /// time reported for 3072-byte messages in the late-receiver test.
    pub rto_us: u64,
    /// Give up after this many consecutive timeouts of the same frame.
    pub max_retries: u32,
}

impl Default for GbnConfig {
    fn default() -> Self {
        GbnConfig {
            window: 64,
            rto_us: 50_000,
            max_retries: 40,
        }
    }
}

/// Statistics maintained by a go-back-N channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GbnStats {
    /// Data frames handed to the wire (including retransmissions).
    pub frames_sent: u64,
    /// Data frames retransmitted after a timeout.
    pub retransmissions: u64,
    /// Retransmission timeouts that fired.
    pub timeouts: u64,
    /// In-order data frames delivered to the protocol.
    pub delivered: u64,
    /// Out-of-order or duplicate frames discarded by the receiver.
    pub discarded: u64,
    /// Acknowledgement frames sent.
    pub acks_sent: u64,
    /// Acknowledgement frames received ([`Frame::Ack`] or [`Frame::Sack`]).
    pub acks_received: u64,
    /// Data frames received whose payload had already been accepted (a
    /// retransmission that crossed an in-flight ack, or a network duplicate).
    /// A subset of `discarded` for go-back-N; counted separately for
    /// selective repeat, where out-of-order is buffered rather than dropped.
    pub duplicates: u64,
    /// Retransmissions triggered by an RTO expiry (a subset of
    /// `retransmissions`).
    pub rto_retransmits: u64,
    /// Retransmissions triggered by SACK evidence, without waiting for the
    /// timeout: a SACK acknowledged a frame sent in a later transmit round
    /// while this one stayed missing (a subset of `retransmissions`; always
    /// 0 for go-back-N, which has no SACK hole detection).
    pub fast_retransmits: u64,
}

/// Maximum number of 64-bit words in a [`Frame::Sack`] bitmap.
///
/// Four words describe the 256 sequence numbers after the cumulative point —
/// enough to cover any sane window without heap allocation.  Frames beyond
/// the bitmap horizon are simply not selectively acknowledged; the cumulative
/// field still guarantees correctness, the bitmap is an efficiency hint.
pub const MAX_SACK_WORDS: usize = 4;

/// A wire frame: a protocol packet wrapped with a sequence number, or a
/// cumulative acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A sequenced data frame carrying one protocol packet.
    Data {
        /// Sequence number of this frame on its channel.
        seq: u64,
        /// The protocol packet carried by the frame.
        packet: Packet,
    },
    /// A cumulative acknowledgement: every data frame with `seq < next_expected`
    /// has been received in order.
    Ack {
        /// The next sequence number the receiver expects.
        next_expected: u64,
    },
    /// A selective acknowledgement: cumulative point plus a bitmap of frames
    /// received beyond it.  Bit `i` of the bitmap (bit `i % 64` of word
    /// `i / 64`) set means frame `next_expected + 1 + i` has been received and
    /// buffered.  `next_expected` itself is by definition missing (otherwise
    /// the cumulative point would have advanced past it).  Trailing all-zero
    /// words are trimmed on the wire.
    Sack {
        /// The next sequence number the receiver expects in order.
        next_expected: u64,
        /// Received-frame bitmap covering `next_expected + 1 ..=
        /// next_expected + 64 * MAX_SACK_WORDS`.
        bitmap: [u64; MAX_SACK_WORDS],
    },
}

/// Number of trailing-zero-trimmed words a SACK bitmap encodes to.
fn sack_words(bitmap: &[u64; MAX_SACK_WORDS]) -> usize {
    bitmap
        .iter()
        .rposition(|w| *w != 0)
        .map(|i| i + 1)
        .unwrap_or(0)
}

impl Frame {
    /// Size of the frame on the wire (sequencing header plus packet bytes).
    pub fn wire_size(&self) -> usize {
        match self {
            Frame::Data { packet, .. } => 1 + 8 + packet.wire_size(),
            Frame::Ack { .. } => 1 + 8,
            Frame::Sack { bitmap, .. } => 1 + 8 + 1 + 8 * sack_words(bitmap),
        }
    }

    /// Serialises the frame into `buf` (appended after any existing
    /// contents) without intermediate allocations.  Use with a
    /// [`PacketBufPool`](crate::wire::PacketBufPool) buffer to keep the
    /// transmit path allocation-free.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.wire_size());
        match self {
            Frame::Data { seq, packet } => {
                buf.put_u8(0);
                buf.put_u64(*seq);
                packet.encode_into(buf);
            }
            Frame::Ack { next_expected } => {
                buf.put_u8(1);
                buf.put_u64(*next_expected);
            }
            Frame::Sack {
                next_expected,
                bitmap,
            } => {
                buf.put_u8(2);
                buf.put_u64(*next_expected);
                let words = sack_words(bitmap);
                buf.put_u8(words as u8);
                for w in &bitmap[..words] {
                    buf.put_u64(*w);
                }
            }
        }
    }

    /// Serialises the frame into a freshly allocated buffer.  Prefer
    /// [`Frame::encode_into`] on hot paths.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Parses a frame.
    pub fn decode(mut data: Bytes) -> Result<Self> {
        let have = data.remaining();
        if have < 9 {
            // Field-carrying error: the decode path runs per frame and must
            // not allocate just to reject garbage.
            return Err(Error::TruncatedFrame { have });
        }
        let kind = data.get_u8();
        let value = data.get_u64();
        match kind {
            0 => Ok(Frame::Data {
                seq: value,
                packet: Packet::decode(data)?,
            }),
            1 => Ok(Frame::Ack {
                next_expected: value,
            }),
            2 => {
                if data.remaining() < 1 {
                    return Err(Error::TruncatedFrame { have });
                }
                let words = data.get_u8();
                if usize::from(words) > MAX_SACK_WORDS {
                    return Err(Error::SackTooWide { words });
                }
                if data.remaining() < 8 * usize::from(words) {
                    return Err(Error::TruncatedFrame { have });
                }
                let mut bitmap = [0u64; MAX_SACK_WORDS];
                for w in bitmap.iter_mut().take(usize::from(words)) {
                    *w = data.get_u64();
                }
                Ok(Frame::Sack {
                    next_expected: value,
                    bitmap,
                })
            }
            other => Err(Error::UnknownFrameKind { byte: other }),
        }
    }
}

/// Output of the go-back-N state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GbnEvent {
    /// Transmit this frame on the wire.
    Transmit(Frame),
    /// Deliver this packet, received in order, to the protocol layer.
    Deliver(Packet),
    /// Arm (or re-arm) the retransmission timer.  A later
    /// [`GbnEvent::CancelTimer`] or a newer `SetTimer` for the same channel
    /// supersedes it; stale generations must be ignored by the caller.
    SetTimer {
        /// Generation used to recognise stale timers.
        generation: u64,
        /// Delay after which [`GoBackN::on_timeout`] should be called.
        delay_us: u64,
    },
    /// Cancel the retransmission timer of the given generation.
    CancelTimer {
        /// Generation of the timer being cancelled.
        generation: u64,
    },
    /// The channel has exceeded its retry budget; the peer is presumed dead.
    ChannelFailed,
}

/// A bidirectional go-back-N channel to one peer.
#[derive(Debug)]
pub struct GoBackN {
    cfg: GbnConfig,
    // --- sender side ---
    next_seq: u64,
    base: u64,
    in_flight: VecDeque<(u64, Packet)>,
    pending: VecDeque<Packet>,
    timer_generation: u64,
    timer_armed: bool,
    retries: u32,
    failed: bool,
    /// Test hook: when set, `on_timeout` retransmits but never re-arms the
    /// timer, wedging the channel if the retransmission is lost too.  Exists
    /// so the chaos harness can prove it catches a real retransmission bug.
    skip_rearm: bool,
    // --- receiver side ---
    next_expected: u64,
    stats: GbnStats,
    /// Heap allocations performed by the channel's queues after construction
    /// (growth beyond the window-sized initial capacity).  Folded into
    /// [`EndpointStats::steady_allocs`](crate::EndpointStats::steady_allocs).
    alloc_events: u64,
}

impl GoBackN {
    /// Creates a channel with the given configuration.  Both queues are
    /// pre-sized to the window from the configuration, so a channel that
    /// never backlogs past its window performs no queue allocation after
    /// this call.
    pub fn new(cfg: GbnConfig) -> Self {
        GoBackN {
            cfg,
            next_seq: 0,
            base: 0,
            in_flight: VecDeque::with_capacity(cfg.window),
            pending: VecDeque::with_capacity(cfg.window),
            timer_generation: 0,
            timer_armed: false,
            retries: 0,
            failed: false,
            skip_rearm: false,
            next_expected: 0,
            stats: GbnStats::default(),
            alloc_events: 0,
        }
    }

    /// Queues a protocol packet for reliable transmission.  Frames are
    /// emitted immediately while the window has room; the rest are sent as
    /// acknowledgements open the window.
    pub fn send(&mut self, packet: Packet, out: &mut Vec<GbnEvent>) {
        if self.pending.len() == self.pending.capacity() {
            self.alloc_events += 1;
        }
        self.pending.push_back(packet);
        self.pump(out);
    }

    /// Handles a frame arriving from the peer.
    pub fn on_frame(&mut self, frame: Frame, out: &mut Vec<GbnEvent>) {
        match frame {
            Frame::Data { seq, packet } => {
                if seq == self.next_expected {
                    self.next_expected += 1;
                    self.stats.delivered += 1;
                    out.push(GbnEvent::Deliver(packet));
                } else {
                    // Out of order: go-back-N receivers discard and re-ack.
                    self.stats.discarded += 1;
                    if seq < self.next_expected {
                        // Already accepted once: a retransmission that crossed
                        // an in-flight ack, or a network duplicate.
                        self.stats.duplicates += 1;
                    }
                }
                self.stats.acks_sent += 1;
                out.push(GbnEvent::Transmit(Frame::Ack {
                    next_expected: self.next_expected,
                }));
            }
            // A SACK from a selective-repeat peer degrades gracefully to its
            // cumulative field; the bitmap is meaningless to go-back-N.
            Frame::Ack { next_expected } | Frame::Sack { next_expected, .. } => {
                self.stats.acks_received += 1;
                if next_expected > self.base {
                    while self
                        .in_flight
                        .front()
                        .map(|(seq, _)| *seq < next_expected)
                        .unwrap_or(false)
                    {
                        self.in_flight.pop_front();
                    }
                    self.base = next_expected;
                    self.retries = 0;
                    self.manage_timer(out);
                }
                self.pump(out);
            }
        }
    }

    /// Handles a retransmission timer firing.  `generation` must be the one
    /// from the matching [`GbnEvent::SetTimer`]; stale generations are
    /// ignored.
    pub fn on_timeout(&mut self, generation: u64, out: &mut Vec<GbnEvent>) {
        if !self.timer_armed || generation != self.timer_generation || self.failed {
            if !self.failed {
                telemetry::event(EventKind::TimerStale, generation as u32, 0, 0);
            }
            return;
        }
        if self.in_flight.is_empty() {
            self.timer_armed = false;
            return;
        }
        self.stats.timeouts += 1;
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.failed = true;
            out.push(GbnEvent::ChannelFailed);
            return;
        }
        // Go-back-N: retransmit every unacknowledged frame.
        for (seq, packet) in self.in_flight.iter() {
            self.stats.frames_sent += 1;
            self.stats.retransmissions += 1;
            self.stats.rto_retransmits += 1;
            telemetry::event(EventKind::FrameRetransmit, *seq as u32, 0, 0);
            out.push(GbnEvent::Transmit(Frame::Data {
                seq: *seq,
                packet: packet.clone(),
            }));
        }
        self.timer_generation += 1;
        if self.skip_rearm {
            // Injected bug (see `sabotage_skip_rearm`): losing any frame of
            // the retransmitted window now wedges the channel for good.
            self.timer_armed = false;
            return;
        }
        self.timer_armed = true;
        out.push(GbnEvent::SetTimer {
            generation: self.timer_generation,
            delay_us: self.cfg.rto_us,
        });
    }

    /// Disables the retransmission-timer re-arm after a timeout — an
    /// intentionally injected reliability bug used by the chaos harness's
    /// "teeth" regression test.  Never enable outside tests.
    #[doc(hidden)]
    pub fn sabotage_skip_rearm(&mut self) {
        self.skip_rearm = true;
    }

    fn pump(&mut self, out: &mut Vec<GbnEvent>) {
        if self.failed {
            return;
        }
        let mut sent_any = false;
        while self.in_flight.len() < self.cfg.window {
            let Some(packet) = self.pending.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.in_flight.len() == self.in_flight.capacity() {
                self.alloc_events += 1;
            }
            self.in_flight.push_back((seq, packet.clone()));
            self.stats.frames_sent += 1;
            out.push(GbnEvent::Transmit(Frame::Data { seq, packet }));
            sent_any = true;
        }
        if sent_any {
            self.manage_timer(out);
        }
    }

    fn manage_timer(&mut self, out: &mut Vec<GbnEvent>) {
        if self.in_flight.is_empty() {
            if self.timer_armed {
                self.timer_armed = false;
                out.push(GbnEvent::CancelTimer {
                    generation: self.timer_generation,
                });
            }
        } else {
            self.timer_generation += 1;
            self.timer_armed = true;
            out.push(GbnEvent::SetTimer {
                generation: self.timer_generation,
                delay_us: self.cfg.rto_us,
            });
        }
    }

    /// Number of data frames currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of packets queued but not yet transmitted (window full).
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// `true` when every queued packet has been transmitted and acknowledged.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.pending.is_empty()
    }

    /// `true` once the channel has given up after too many retries.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// A snapshot of the channel statistics.
    pub fn stats(&self) -> GbnStats {
        self.stats
    }

    /// Number of heap allocations the channel's queues performed after
    /// construction (steady state within the window must not add any).
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// The configuration the channel was created with.
    pub fn config(&self) -> GbnConfig {
        self.cfg
    }
}

/// A sender-side in-flight frame of a selective-repeat channel.
#[derive(Debug)]
struct SrSlot {
    seq: u64,
    packet: Packet,
    /// Selectively acknowledged: held only until the cumulative point passes
    /// it, never retransmitted.
    acked: bool,
    /// The channel's transmit round when this frame last went out.
    round: u64,
}

/// A bidirectional selective-repeat channel to one peer.
///
/// Shares [`GbnConfig`] (window / RTO / retry budget) and the [`GbnEvent`]
/// output interface with [`GoBackN`], but differs in recovery behaviour:
///
/// - The receiver buffers out-of-order frames in a window-sized ring and
///   acknowledges with [`Frame::Sack`] (cumulative point + received bitmap).
/// - Loss is inferred RACK-style ("sent-after", RFC 8985) without a clock.
///   Every transmission is stamped with the channel's *round*, which
///   advances on every inbound frame and every handled timeout, so two
///   frames share a round unless the channel heard something between their
///   sends.  Once a SACK newly covers a frame of round `r`, every still-
///   unacknowledged frame of a round before `r` is lost and is resent at
///   once, stamped with the current round.  A hole therefore goes out at
///   most once per round trip, and frames reordered within one burst never
///   trigger a resend.
/// - A retransmission timeout resends only the **oldest unacknowledged**
///   frame, not the window.  When its SACK arrives, every older-round hole
///   goes out in that same call.
/// - Like [`GoBackN`] it keeps a single generation-checked channel timer
///   (the sans-I/O engine has no clock, so per-frame deadlines collapse onto
///   the oldest-unacked frame, TCP-RTO style).
///
/// The retry budget counts consecutive timeouts *without progress*: any
/// cumulative advance or newly sacked frame resets it.
#[derive(Debug)]
pub struct SelectiveRepeat {
    cfg: GbnConfig,
    // --- sender side ---
    next_seq: u64,
    base: u64,
    /// Contiguous `base..next_seq` frames; entries are only popped from the
    /// front when the cumulative point passes them, so index `seq - front.seq`
    /// addresses any slot directly.
    in_flight: VecDeque<SrSlot>,
    pending: VecDeque<Packet>,
    /// Transmit round: advances on every inbound frame and handled timeout.
    round: u64,
    /// Newest round of any frame a SACK has covered; unacknowledged frames
    /// of older rounds are lost.
    delivered_round: u64,
    timer_generation: u64,
    timer_armed: bool,
    retries: u32,
    failed: bool,
    /// Test hook mirroring [`GoBackN`]'s: `on_timeout` retransmits but never
    /// re-arms, wedging the channel if that retransmission is lost too.
    skip_rearm: bool,
    /// Pacing hook: when set, at most this many **new** frames are emitted
    /// per interaction; the remainder trickles out on subsequent acks and
    /// timer ticks.  Reactor backends use it to bound per-peer bursts when
    /// fanning out to thousands of peers.
    pace_burst: Option<usize>,
    // --- receiver side ---
    next_expected: u64,
    /// Out-of-order receive buffer: `ring[i]` holds the packet for sequence
    /// `next_expected + i`, `ring[0]` is always `None` (an in-order frame is
    /// delivered immediately).  Bounded by the window.
    ring: VecDeque<Option<Packet>>,
    /// Estimated bytes held in `ring` (payload + header bound per packet),
    /// reported to the engine's pushed-buffer admission check so buffered
    /// frames can never oversubscribe the pushed buffer when they drain.
    buffered_bytes: usize,
    stats: GbnStats,
    alloc_events: u64,
}

impl SelectiveRepeat {
    /// Creates a channel with the given configuration.  Queues and the
    /// receive ring are pre-sized to the window, so in-window traffic
    /// performs no queue allocation after this call.
    pub fn new(cfg: GbnConfig) -> Self {
        SelectiveRepeat {
            cfg,
            next_seq: 0,
            base: 0,
            in_flight: VecDeque::with_capacity(cfg.window),
            pending: VecDeque::with_capacity(cfg.window),
            round: 0,
            delivered_round: 0,
            timer_generation: 0,
            timer_armed: false,
            retries: 0,
            failed: false,
            skip_rearm: false,
            pace_burst: None,
            next_expected: 0,
            ring: VecDeque::with_capacity(cfg.window),
            buffered_bytes: 0,
            stats: GbnStats::default(),
            alloc_events: 0,
        }
    }

    /// Queues a protocol packet for reliable transmission.
    pub fn send(&mut self, packet: Packet, out: &mut Vec<GbnEvent>) {
        if self.pending.len() == self.pending.capacity() {
            self.alloc_events += 1;
        }
        self.pending.push_back(packet);
        self.pump(out);
    }

    /// Handles a frame arriving from the peer.
    pub fn on_frame(&mut self, frame: Frame, out: &mut Vec<GbnEvent>) {
        // Whatever this frame is, frames sent from here on went out after
        // the channel heard from its peer.
        self.round += 1;
        match frame {
            Frame::Data { seq, packet } => self.on_data(seq, packet, out),
            Frame::Sack {
                next_expected,
                bitmap,
            } => self.on_sack(next_expected, &bitmap, out),
            // A cumulative ack from a go-back-N peer: no bitmap information.
            Frame::Ack { next_expected } => self.on_sack(next_expected, &[0; MAX_SACK_WORDS], out),
        }
    }

    fn on_data(&mut self, seq: u64, packet: Packet, out: &mut Vec<GbnEvent>) {
        if seq < self.next_expected {
            // Already delivered: a retransmission whose SACK was lost.
            self.stats.discarded += 1;
            self.stats.duplicates += 1;
        } else {
            let idx = (seq - self.next_expected) as usize;
            if idx == 0 {
                self.stats.delivered += 1;
                self.next_expected += 1;
                out.push(GbnEvent::Deliver(packet));
                // Drop the ring slot of the frame just delivered (always
                // `None` — an in-order frame is never buffered) and drain the
                // run of buffered frames that is now in order.
                self.ring.pop_front();
                while matches!(self.ring.front(), Some(Some(_))) {
                    let p = self.ring.pop_front().flatten().expect("checked Some");
                    self.buffered_bytes = self
                        .buffered_bytes
                        .saturating_sub(p.payload.len() + MAX_HEADER_LEN);
                    self.stats.delivered += 1;
                    self.next_expected += 1;
                    out.push(GbnEvent::Deliver(p));
                }
            } else if idx < self.cfg.window {
                while self.ring.len() <= idx {
                    if self.ring.len() == self.ring.capacity() {
                        self.alloc_events += 1;
                    }
                    self.ring.push_back(None);
                }
                if self.ring[idx].is_some() {
                    self.stats.discarded += 1;
                    self.stats.duplicates += 1;
                } else {
                    self.buffered_bytes += packet.payload.len() + MAX_HEADER_LEN;
                    self.ring[idx] = Some(packet);
                }
            } else {
                // Beyond our window (peer configured with a larger one than
                // ours): not representable in the ring or the bitmap, so drop
                // and let the sender's timeout path recover.
                self.stats.discarded += 1;
            }
        }
        self.stats.acks_sent += 1;
        out.push(GbnEvent::Transmit(self.make_sack()));
    }

    fn make_sack(&self) -> Frame {
        let mut bitmap = [0u64; MAX_SACK_WORDS];
        // `ring[i]` (i >= 1) holds sequence `next_expected + i`, which the
        // wire format indexes as bit `i - 1`.
        for (i, slot) in self.ring.iter().enumerate().skip(1) {
            if slot.is_some() {
                let bit = i - 1;
                if bit < 64 * MAX_SACK_WORDS {
                    bitmap[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
        Frame::Sack {
            next_expected: self.next_expected,
            bitmap,
        }
    }

    fn on_sack(
        &mut self,
        next_expected: u64,
        bitmap: &[u64; MAX_SACK_WORDS],
        out: &mut Vec<GbnEvent>,
    ) {
        self.stats.acks_received += 1;
        let mut progress = false;
        let mut delivered_round = self.delivered_round;
        if next_expected > self.base {
            while let Some(slot) = self.in_flight.front() {
                if slot.seq >= next_expected {
                    break;
                }
                delivered_round = delivered_round.max(slot.round);
                self.in_flight.pop_front();
            }
            self.base = next_expected;
            progress = true;
        }
        // Mark selectively acknowledged frames, noting the newest round a
        // newly covered frame went out in.
        if let Some(front_seq) = self.in_flight.front().map(|s| s.seq) {
            for (word, &bitmap_word) in bitmap.iter().enumerate() {
                let mut bits = bitmap_word;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    let seq = next_expected + 1 + 64 * word as u64 + bit;
                    if seq < front_seq {
                        continue;
                    }
                    let idx = (seq - front_seq) as usize;
                    if let Some(slot) = self.in_flight.get_mut(idx) {
                        if !slot.acked {
                            slot.acked = true;
                            progress = true;
                            delivered_round = delivered_round.max(slot.round);
                        }
                    }
                }
            }
        }
        if progress {
            self.retries = 0;
        }
        // Sent-after loss detection: a frame sent in a later round has
        // arrived, so every unacked frame of an older round is lost.  A
        // resend is stamped with the current round, so it becomes a
        // candidate again only once something sent after it is delivered.
        if delivered_round > self.delivered_round {
            self.delivered_round = delivered_round;
            let mut hole_seen = false;
            for slot in self.in_flight.iter_mut() {
                if slot.acked || slot.round >= delivered_round {
                    continue;
                }
                if !hole_seen {
                    hole_seen = true;
                    let sacked_beyond: u32 = bitmap.iter().map(|w| w.count_ones()).sum();
                    telemetry::event(EventKind::SackHole, slot.seq as u32, sacked_beyond, 0);
                }
                slot.round = self.round;
                self.stats.frames_sent += 1;
                self.stats.retransmissions += 1;
                self.stats.fast_retransmits += 1;
                telemetry::event(EventKind::FrameRetransmit, slot.seq as u32, 1, 0);
                out.push(GbnEvent::Transmit(Frame::Data {
                    seq: slot.seq,
                    packet: slot.packet.clone(),
                }));
            }
        }
        if progress {
            self.manage_timer(out);
        }
        self.pump(out);
    }

    /// Handles the retransmission timer firing.  Stale generations are
    /// ignored.  Unlike go-back-N, only the **oldest unacknowledged** frame
    /// is resent; everything the receiver already holds stays put.
    pub fn on_timeout(&mut self, generation: u64, out: &mut Vec<GbnEvent>) {
        if !self.timer_armed || generation != self.timer_generation || self.failed {
            if !self.failed {
                telemetry::event(EventKind::TimerStale, generation as u32, 0, 0);
            }
            return;
        }
        if self.in_flight.is_empty() {
            self.timer_armed = false;
            return;
        }
        self.stats.timeouts += 1;
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.failed = true;
            out.push(GbnEvent::ChannelFailed);
            return;
        }
        self.round += 1;
        // The front slot is always unacked: the bitmap cannot cover the
        // cumulative point itself, so an acked front would already have been
        // popped by a cumulative advance.
        let slot = self.in_flight.front_mut().expect("non-empty checked above");
        slot.round = self.round;
        self.stats.frames_sent += 1;
        self.stats.retransmissions += 1;
        self.stats.rto_retransmits += 1;
        telemetry::event(EventKind::FrameRetransmit, slot.seq as u32, 0, 0);
        out.push(GbnEvent::Transmit(Frame::Data {
            seq: slot.seq,
            packet: slot.packet.clone(),
        }));
        self.timer_generation += 1;
        if self.skip_rearm {
            // Injected bug (see `sabotage_skip_rearm`): losing this one
            // retransmission now wedges the channel for good.
            self.timer_armed = false;
            return;
        }
        self.timer_armed = true;
        out.push(GbnEvent::SetTimer {
            generation: self.timer_generation,
            delay_us: self.cfg.rto_us,
        });
        // A pacing budget may have deferred fresh frames; the timer tick is
        // also their trickle opportunity.
        self.pump(out);
    }

    fn pump(&mut self, out: &mut Vec<GbnEvent>) {
        if self.failed {
            return;
        }
        let mut budget = self.pace_burst.unwrap_or(usize::MAX);
        let mut sent_any = false;
        while self.in_flight.len() < self.cfg.window && budget > 0 {
            let Some(packet) = self.pending.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.in_flight.len() == self.in_flight.capacity() {
                self.alloc_events += 1;
            }
            self.in_flight.push_back(SrSlot {
                seq,
                packet: packet.clone(),
                acked: false,
                round: self.round,
            });
            self.stats.frames_sent += 1;
            out.push(GbnEvent::Transmit(Frame::Data { seq, packet }));
            sent_any = true;
            budget -= 1;
        }
        if sent_any {
            self.manage_timer(out);
        }
    }

    fn manage_timer(&mut self, out: &mut Vec<GbnEvent>) {
        if self.in_flight.is_empty() {
            if self.timer_armed {
                self.timer_armed = false;
                out.push(GbnEvent::CancelTimer {
                    generation: self.timer_generation,
                });
            }
        } else {
            self.timer_generation += 1;
            self.timer_armed = true;
            out.push(GbnEvent::SetTimer {
                generation: self.timer_generation,
                delay_us: self.cfg.rto_us,
            });
        }
    }

    /// Pacing hook: bound the number of fresh frames emitted per interaction
    /// (`None` disables pacing).  Deferred frames flow on later acks and
    /// timer ticks, so progress is never lost — only smoothed.
    pub fn set_pace_burst(&mut self, burst: Option<usize>) {
        self.pace_burst = burst;
    }

    /// Disables the retransmission-timer re-arm after a timeout — the same
    /// injected bug as [`GoBackN::sabotage_skip_rearm`], used by the chaos
    /// harness to prove the wedge detector has teeth in SR mode too.
    #[doc(hidden)]
    pub fn sabotage_skip_rearm(&mut self) {
        self.skip_rearm = true;
    }

    /// Number of data frames currently awaiting a cumulative acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of packets queued but not yet transmitted.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// `true` when every queued packet has been transmitted and acknowledged.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.pending.is_empty()
    }

    /// `true` once the channel has given up after too many no-progress
    /// timeouts.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Estimated bytes buffered in the out-of-order receive ring.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// A snapshot of the channel statistics.
    pub fn stats(&self) -> GbnStats {
        self.stats
    }

    /// Number of heap allocations the channel's queues performed after
    /// construction.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// The configuration the channel was created with.
    pub fn config(&self) -> GbnConfig {
        self.cfg
    }
}

/// A per-peer ARQ channel in either reliability mode.
///
/// The engine stores one of these per internode peer and dispatches through
/// it uniformly; which variant gets constructed is decided by
/// [`ReliabilityMode`] in the endpoint's protocol configuration.
#[derive(Debug)]
pub enum ArqChannel {
    /// The paper's go-back-N channel.
    GoBackN(GoBackN),
    /// The selective-repeat channel.
    SelectiveRepeat(SelectiveRepeat),
}

impl ArqChannel {
    /// Creates a channel of the configured mode.
    pub fn new(mode: ReliabilityMode, cfg: GbnConfig) -> Self {
        match mode {
            ReliabilityMode::GoBackN => ArqChannel::GoBackN(GoBackN::new(cfg)),
            ReliabilityMode::SelectiveRepeat => {
                ArqChannel::SelectiveRepeat(SelectiveRepeat::new(cfg))
            }
        }
    }

    /// Which reliability mode this channel runs.
    pub fn mode(&self) -> ReliabilityMode {
        match self {
            ArqChannel::GoBackN(_) => ReliabilityMode::GoBackN,
            ArqChannel::SelectiveRepeat(_) => ReliabilityMode::SelectiveRepeat,
        }
    }

    /// Queues a protocol packet for reliable transmission.
    pub fn send(&mut self, packet: Packet, out: &mut Vec<GbnEvent>) {
        match self {
            ArqChannel::GoBackN(c) => c.send(packet, out),
            ArqChannel::SelectiveRepeat(c) => c.send(packet, out),
        }
    }

    /// Handles a frame arriving from the peer.
    pub fn on_frame(&mut self, frame: Frame, out: &mut Vec<GbnEvent>) {
        match self {
            ArqChannel::GoBackN(c) => c.on_frame(frame, out),
            ArqChannel::SelectiveRepeat(c) => c.on_frame(frame, out),
        }
    }

    /// Handles the retransmission timer firing (stale generations ignored).
    pub fn on_timeout(&mut self, generation: u64, out: &mut Vec<GbnEvent>) {
        match self {
            ArqChannel::GoBackN(c) => c.on_timeout(generation, out),
            ArqChannel::SelectiveRepeat(c) => c.on_timeout(generation, out),
        }
    }

    /// Number of data frames currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        match self {
            ArqChannel::GoBackN(c) => c.in_flight(),
            ArqChannel::SelectiveRepeat(c) => c.in_flight(),
        }
    }

    /// Number of packets queued but not yet transmitted.
    pub fn backlog(&self) -> usize {
        match self {
            ArqChannel::GoBackN(c) => c.backlog(),
            ArqChannel::SelectiveRepeat(c) => c.backlog(),
        }
    }

    /// `true` when every queued packet has been transmitted and acknowledged.
    pub fn idle(&self) -> bool {
        match self {
            ArqChannel::GoBackN(c) => c.idle(),
            ArqChannel::SelectiveRepeat(c) => c.idle(),
        }
    }

    /// `true` once the channel has given up after too many retries.
    pub fn failed(&self) -> bool {
        match self {
            ArqChannel::GoBackN(c) => c.failed(),
            ArqChannel::SelectiveRepeat(c) => c.failed(),
        }
    }

    /// Estimated bytes buffered in the out-of-order receive ring (always 0
    /// for go-back-N, which discards out-of-order frames).  The engine adds
    /// this to its pushed-buffer admission check so buffered frames can never
    /// oversubscribe the pushed buffer when the hole fills and they drain.
    pub fn buffered_bytes(&self) -> usize {
        match self {
            ArqChannel::GoBackN(_) => 0,
            ArqChannel::SelectiveRepeat(c) => c.buffered_bytes(),
        }
    }

    /// A snapshot of the channel statistics.
    pub fn stats(&self) -> GbnStats {
        match self {
            ArqChannel::GoBackN(c) => c.stats(),
            ArqChannel::SelectiveRepeat(c) => c.stats(),
        }
    }

    /// Number of heap allocations the channel's queues performed after
    /// construction.
    pub fn alloc_events(&self) -> u64 {
        match self {
            ArqChannel::GoBackN(c) => c.alloc_events(),
            ArqChannel::SelectiveRepeat(c) => c.alloc_events(),
        }
    }

    /// Disables the retransmission-timer re-arm after a timeout (chaos
    /// "teeth" hook; see [`GoBackN::sabotage_skip_rearm`]).
    #[doc(hidden)]
    pub fn sabotage_skip_rearm(&mut self) {
        match self {
            ArqChannel::GoBackN(c) => c.sabotage_skip_rearm(),
            ArqChannel::SelectiveRepeat(c) => c.sabotage_skip_rearm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MessageId, ProcessId, Tag};
    use crate::wire::{PacketHeader, PacketKind, PushPart};

    fn pkt(n: u64, len: usize) -> Packet {
        let header = PacketHeader {
            kind: PacketKind::Push(PushPart::First),
            src: ProcessId::new(0, 0),
            dst: ProcessId::new(1, 0),
            msg_id: MessageId(n),
            tag: Tag(0),
            total_len: len as u32,
            eager_len: len as u32,
            offset: 0,
            payload_len: len as u32,
        };
        Packet::new(header, Bytes::from(vec![n as u8; len])).unwrap()
    }

    fn transmit_frames(events: &[GbnEvent]) -> Vec<Frame> {
        events
            .iter()
            .filter_map(|e| match e {
                GbnEvent::Transmit(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }

    fn delivered(events: &[GbnEvent]) -> Vec<Packet> {
        events
            .iter()
            .filter_map(|e| match e {
                GbnEvent::Deliver(p) => Some(p.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::Data {
            seq: 99,
            packet: pkt(1, 128),
        };
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        let a = Frame::Ack { next_expected: 7 };
        assert_eq!(Frame::decode(a.encode()).unwrap(), a);
        assert!(Frame::decode(Bytes::from(vec![0u8; 3])).is_err());
    }

    #[test]
    fn lossless_transfer_delivers_in_order() {
        let cfg = GbnConfig::default();
        let mut sender = GoBackN::new(cfg);
        let mut receiver = GoBackN::new(cfg);

        let mut events = Vec::new();
        for i in 0..10 {
            sender.send(pkt(i, 64), &mut events);
        }
        let frames = transmit_frames(&events);
        assert_eq!(frames.len(), 10);

        let mut recv_events = Vec::new();
        for f in frames {
            receiver.on_frame(f, &mut recv_events);
        }
        let packets = delivered(&recv_events);
        assert_eq!(packets.len(), 10);
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.header.msg_id, MessageId(i as u64));
        }

        // Feed the acks back.
        let mut ack_events = Vec::new();
        for f in transmit_frames(&recv_events) {
            sender.on_frame(f, &mut ack_events);
        }
        assert!(sender.idle());
    }

    #[test]
    fn window_limits_in_flight() {
        let cfg = GbnConfig {
            window: 4,
            ..Default::default()
        };
        let mut sender = GoBackN::new(cfg);
        let mut events = Vec::new();
        for i in 0..10 {
            sender.send(pkt(i, 8), &mut events);
        }
        assert_eq!(transmit_frames(&events).len(), 4);
        assert_eq!(sender.in_flight(), 4);
        assert_eq!(sender.backlog(), 6);

        // Ack the first two; two more flow.
        let mut more = Vec::new();
        sender.on_frame(Frame::Ack { next_expected: 2 }, &mut more);
        assert_eq!(transmit_frames(&more).len(), 2);
        assert_eq!(sender.in_flight(), 4);
        assert_eq!(sender.backlog(), 4);
    }

    #[test]
    fn timeout_retransmits_all_in_flight() {
        let cfg = GbnConfig {
            window: 8,
            rto_us: 1000,
            max_retries: 3,
        };
        let mut sender = GoBackN::new(cfg);
        let mut events = Vec::new();
        for i in 0..3 {
            sender.send(pkt(i, 8), &mut events);
        }
        // Find the latest timer generation.
        let generation = events
            .iter()
            .filter_map(|e| match e {
                GbnEvent::SetTimer { generation, .. } => Some(*generation),
                _ => None,
            })
            .next_back()
            .unwrap();

        let mut timeout_events = Vec::new();
        sender.on_timeout(generation, &mut timeout_events);
        let frames = transmit_frames(&timeout_events);
        assert_eq!(frames.len(), 3);
        assert_eq!(sender.stats().retransmissions, 3);
        assert_eq!(sender.stats().timeouts, 1);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let cfg = GbnConfig::default();
        let mut sender = GoBackN::new(cfg);
        let mut events = Vec::new();
        sender.send(pkt(0, 8), &mut events);
        let mut out = Vec::new();
        sender.on_timeout(0, &mut out); // generation 0 was never issued (first is 1)
        assert!(out.is_empty() || !matches!(out[0], GbnEvent::Transmit(_)));
        assert_eq!(sender.stats().timeouts, 0);
    }

    #[test]
    fn receiver_discards_out_of_order_and_reacks() {
        let cfg = GbnConfig::default();
        let mut receiver = GoBackN::new(cfg);
        let mut out = Vec::new();
        // Frame 1 arrives before frame 0 (e.g. frame 0 was lost).
        receiver.on_frame(
            Frame::Data {
                seq: 1,
                packet: pkt(1, 8),
            },
            &mut out,
        );
        assert!(delivered(&out).is_empty());
        let frames = transmit_frames(&out);
        assert_eq!(frames, vec![Frame::Ack { next_expected: 0 }]);
        assert_eq!(receiver.stats().discarded, 1);

        // Now frame 0 arrives; it is delivered, but frame 1 must be resent.
        let mut out = Vec::new();
        receiver.on_frame(
            Frame::Data {
                seq: 0,
                packet: pkt(0, 8),
            },
            &mut out,
        );
        assert_eq!(delivered(&out).len(), 1);
        assert_eq!(transmit_frames(&out), vec![Frame::Ack { next_expected: 1 }]);
    }

    #[test]
    fn duplicate_delivery_never_happens() {
        let cfg = GbnConfig::default();
        let mut receiver = GoBackN::new(cfg);
        let mut out = Vec::new();
        let frame = Frame::Data {
            seq: 0,
            packet: pkt(0, 8),
        };
        receiver.on_frame(frame.clone(), &mut out);
        receiver.on_frame(frame, &mut out);
        assert_eq!(delivered(&out).len(), 1);
        assert_eq!(receiver.stats().discarded, 1);
    }

    #[test]
    fn loss_recovery_end_to_end() {
        // Drop every third data frame on the first attempt and check that
        // everything still arrives exactly once and in order.
        let cfg = GbnConfig {
            window: 4,
            rto_us: 100,
            max_retries: 20,
        };
        let mut sender = GoBackN::new(cfg);
        let mut receiver = GoBackN::new(cfg);
        let total = 12u64;

        let mut to_send: Vec<Packet> = (0..total).map(|i| pkt(i, 16)).collect();
        let mut delivered_ids: Vec<u64> = Vec::new();
        let mut drop_counter = 0u64;
        let mut pending_timer: Option<u64> = None;

        let mut wire: VecDeque<Frame> = VecDeque::new();
        let mut events = Vec::new();
        for p in to_send.drain(..) {
            sender.send(p, &mut events);
        }
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 10_000, "did not converge");
            // Process sender events.
            let drained: Vec<GbnEvent> = std::mem::take(&mut events);
            for e in drained {
                match e {
                    GbnEvent::Transmit(f) => {
                        if matches!(f, Frame::Data { .. }) {
                            drop_counter += 1;
                            if drop_counter.is_multiple_of(3) {
                                continue; // lost
                            }
                        }
                        wire.push_back(f);
                    }
                    GbnEvent::SetTimer { generation, .. } => pending_timer = Some(generation),
                    GbnEvent::CancelTimer { .. } => pending_timer = None,
                    _ => {}
                }
            }
            // Deliver wire frames to the receiver, responses back to sender.
            let mut recv_events = Vec::new();
            while let Some(f) = wire.pop_front() {
                receiver.on_frame(f, &mut recv_events);
            }
            for e in recv_events {
                match e {
                    GbnEvent::Deliver(p) => delivered_ids.push(p.header.msg_id.0),
                    GbnEvent::Transmit(f) => sender.on_frame(f, &mut events),
                    _ => {}
                }
            }
            if sender.idle() {
                break;
            }
            if events.is_empty() {
                // Nothing in flight made progress; fire the timer.
                if let Some(generation) = pending_timer.take() {
                    sender.on_timeout(generation, &mut events);
                }
            }
        }
        assert_eq!(delivered_ids, (0..total).collect::<Vec<_>>());
        assert!(sender.stats().retransmissions > 0);
    }

    #[test]
    fn window_sized_queues_never_allocate_within_window() {
        let cfg = GbnConfig {
            window: 8,
            ..Default::default()
        };
        let mut sender = GoBackN::new(cfg);
        let mut receiver = GoBackN::new(cfg);
        let mut events = Vec::new();
        let mut acks = Vec::new();
        for i in 0..1000u64 {
            sender.send(pkt(i, 16), &mut events);
            for e in events.drain(..) {
                if let GbnEvent::Transmit(f) = e {
                    receiver.on_frame(f, &mut acks);
                }
            }
            for e in acks.drain(..) {
                if let GbnEvent::Transmit(f) = e {
                    sender.on_frame(f, &mut events);
                }
            }
            events.clear();
        }
        assert!(sender.idle());
        assert_eq!(
            sender.alloc_events(),
            0,
            "in-window traffic must not grow the pre-sized queues"
        );
        assert_eq!(receiver.alloc_events(), 0);
    }

    #[test]
    fn backlog_past_window_is_counted_as_allocation() {
        let cfg = GbnConfig {
            window: 2,
            ..Default::default()
        };
        let mut sender = GoBackN::new(cfg);
        let mut events = Vec::new();
        for i in 0..8 {
            sender.send(pkt(i, 8), &mut events);
        }
        assert!(sender.backlog() > sender.config().window);
        assert!(
            sender.alloc_events() > 0,
            "growth events must be observable"
        );
    }

    #[test]
    fn channel_fails_after_max_retries() {
        let cfg = GbnConfig {
            window: 2,
            rto_us: 10,
            max_retries: 2,
        };
        let mut sender = GoBackN::new(cfg);
        let mut events = Vec::new();
        sender.send(pkt(0, 8), &mut events);
        let mut failed = false;
        for _ in 0..10 {
            let generation = events
                .iter()
                .filter_map(|e| match e {
                    GbnEvent::SetTimer { generation, .. } => Some(*generation),
                    _ => None,
                })
                .next_back();
            events.clear();
            if let Some(generation) = generation {
                sender.on_timeout(generation, &mut events);
            }
            if events.iter().any(|e| matches!(e, GbnEvent::ChannelFailed)) {
                failed = true;
                break;
            }
        }
        assert!(failed);
        assert!(sender.failed());
    }

    // --- selective repeat ---

    fn last_timer_generation(events: &[GbnEvent]) -> Option<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                GbnEvent::SetTimer { generation, .. } => Some(*generation),
                _ => None,
            })
            .next_back()
    }

    #[test]
    fn sack_frame_roundtrip() {
        let f = Frame::Sack {
            next_expected: 42,
            bitmap: [0b1011, 0, 1 << 63, 0],
        };
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        // All-zero bitmap encodes to the 10-byte short form.
        let empty = Frame::Sack {
            next_expected: 7,
            bitmap: [0; MAX_SACK_WORDS],
        };
        assert_eq!(empty.wire_size(), 10);
        assert_eq!(Frame::decode(empty.encode()).unwrap(), empty);
        // Word count beyond the maximum is rejected with the field value.
        let mut bogus = BytesMut::new();
        bogus.put_u8(2);
        bogus.put_u64(0);
        bogus.put_u8(9);
        match Frame::decode(bogus.freeze()) {
            Err(Error::SackTooWide { words: 9 }) => {}
            other => panic!("expected SackTooWide, got {other:?}"),
        }
        // Truncated bitmap is rejected with the byte count we actually had.
        let full = f.encode();
        let cut = full.slice(0..full.len() - 3);
        match Frame::decode(cut.clone()) {
            Err(Error::TruncatedFrame { have }) => assert_eq!(have, cut.len()),
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }
    }

    #[test]
    fn sr_lossless_transfer_delivers_in_order() {
        let cfg = GbnConfig::default();
        let mut sender = SelectiveRepeat::new(cfg);
        let mut receiver = SelectiveRepeat::new(cfg);

        let mut events = Vec::new();
        for i in 0..10 {
            sender.send(pkt(i, 64), &mut events);
        }
        let mut recv_events = Vec::new();
        for f in transmit_frames(&events) {
            receiver.on_frame(f, &mut recv_events);
        }
        let packets = delivered(&recv_events);
        assert_eq!(packets.len(), 10);
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.header.msg_id, MessageId(i as u64));
        }
        let mut ack_events = Vec::new();
        for f in transmit_frames(&recv_events) {
            sender.on_frame(f, &mut ack_events);
        }
        assert!(sender.idle());
        assert_eq!(sender.stats().retransmissions, 0);
    }

    #[test]
    fn sr_receiver_buffers_out_of_order_and_delivers_on_hole_fill() {
        let cfg = GbnConfig::default();
        let mut receiver = SelectiveRepeat::new(cfg);
        let mut out = Vec::new();
        // Frames 1 and 2 arrive before frame 0.
        receiver.on_frame(
            Frame::Data {
                seq: 1,
                packet: pkt(1, 8),
            },
            &mut out,
        );
        receiver.on_frame(
            Frame::Data {
                seq: 2,
                packet: pkt(2, 8),
            },
            &mut out,
        );
        assert!(delivered(&out).is_empty());
        assert!(receiver.buffered_bytes() > 0);
        // The SACK advertises the buffered frames: bits 0 and 1 past seq 0.
        let frames = transmit_frames(&out);
        assert_eq!(
            frames.last(),
            Some(&Frame::Sack {
                next_expected: 0,
                bitmap: [0b11, 0, 0, 0],
            })
        );

        // The hole fills: everything drains in order.
        let mut out = Vec::new();
        receiver.on_frame(
            Frame::Data {
                seq: 0,
                packet: pkt(0, 8),
            },
            &mut out,
        );
        let ids: Vec<u64> = delivered(&out).iter().map(|p| p.header.msg_id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(receiver.buffered_bytes(), 0);
        assert_eq!(
            transmit_frames(&out),
            vec![Frame::Sack {
                next_expected: 3,
                bitmap: [0; MAX_SACK_WORDS],
            }]
        );
        assert_eq!(receiver.stats().discarded, 0);
    }

    #[test]
    fn sr_timeout_retransmits_only_oldest_unacked() {
        let cfg = GbnConfig {
            window: 8,
            rto_us: 1000,
            max_retries: 10,
        };
        let mut sender = SelectiveRepeat::new(cfg);
        let mut events = Vec::new();
        for i in 0..5 {
            sender.send(pkt(i, 8), &mut events);
        }
        let generation = last_timer_generation(&events).unwrap();
        let mut timeout_events = Vec::new();
        sender.on_timeout(generation, &mut timeout_events);
        let frames = transmit_frames(&timeout_events);
        assert_eq!(frames.len(), 1, "SR must not resend the whole window");
        assert!(matches!(frames[0], Frame::Data { seq: 0, .. }));
        assert_eq!(sender.stats().retransmissions, 1);
    }

    /// A SACK from a receiver holding exactly `held` (and nothing in order
    /// beyond `next_expected`).
    fn sack_of(next_expected: u64, held: &[u64]) -> Frame {
        let mut bitmap = [0u64; MAX_SACK_WORDS];
        for &seq in held {
            let bit = (seq - next_expected - 1) as usize;
            bitmap[bit / 64] |= 1 << (bit % 64);
        }
        Frame::Sack {
            next_expected,
            bitmap,
        }
    }

    fn resent_seqs(events: &[GbnEvent]) -> Vec<u64> {
        transmit_frames(events)
            .iter()
            .filter_map(|f| match f {
                Frame::Data { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sr_one_round_burst_sacked_out_of_order_is_never_resent() {
        let cfg = GbnConfig::default();
        let mut sender = SelectiveRepeat::new(cfg);
        let mut receiver = SelectiveRepeat::new(cfg);
        let mut events = Vec::new();
        for i in 0..8 {
            sender.send(pkt(i, 8), &mut events);
        }
        // The whole burst arrives shuffled: every SACK but the last shows
        // holes below frames it vouches for.
        let frames = transmit_frames(&events);
        let mut acks = Vec::new();
        for i in [3, 1, 6, 0, 7, 5, 2, 4] {
            receiver.on_frame(frames[i].clone(), &mut acks);
        }
        let mut out = Vec::new();
        for f in transmit_frames(&acks) {
            sender.on_frame(f, &mut out);
        }
        assert!(resent_seqs(&out).is_empty(), "reordering is not loss");
        assert_eq!(sender.stats().retransmissions, 0);
        assert!(sender.idle());
    }

    #[test]
    fn sr_hole_resent_once_per_newer_round_delivered() {
        let cfg = GbnConfig::default();
        let mut sender = SelectiveRepeat::new(cfg);
        let mut out = Vec::new();
        sender.send(pkt(0, 8), &mut out);
        sender.send(pkt(1, 8), &mut out);
        out.clear();
        // Frame 1 arrives, 0 does not: same round, so no evidence yet.
        sender.on_frame(sack_of(0, &[1]), &mut out);
        assert!(resent_seqs(&out).is_empty());
        // Frame 2 goes out after the channel heard from its peer; once it is
        // delivered, frame 0 (an older round) is lost.
        sender.send(pkt(2, 8), &mut out);
        out.clear();
        sender.on_frame(sack_of(0, &[1, 2]), &mut out);
        assert_eq!(resent_seqs(&out), vec![0]);
        // Frame 3 goes out in the resend's round, so its delivery says
        // nothing about the resend; nor does the same evidence again.
        sender.send(pkt(3, 8), &mut out);
        out.clear();
        sender.on_frame(sack_of(0, &[1, 2, 3]), &mut out);
        sender.on_frame(sack_of(0, &[1, 2, 3]), &mut out);
        assert!(resent_seqs(&out).is_empty());
        assert_eq!(sender.stats().retransmissions, 1);
        // Frame 4 goes out in a newer round than the resend of 0; its
        // delivery is evidence the resend was lost too.
        sender.send(pkt(4, 8), &mut out);
        out.clear();
        sender.on_frame(sack_of(0, &[1, 2, 3, 4]), &mut out);
        assert_eq!(resent_seqs(&out), vec![0]);
        assert_eq!(sender.stats().retransmissions, 2);
        assert_eq!(sender.stats().fast_retransmits, 2);
        sender.on_frame(Frame::Ack { next_expected: 5 }, &mut out);
        assert!(sender.idle());
    }

    #[test]
    fn sr_sacked_rto_resend_releases_every_older_hole_at_once() {
        let cfg = GbnConfig {
            window: 8,
            rto_us: 1000,
            max_retries: 10,
        };
        let mut sender = SelectiveRepeat::new(cfg);
        let mut events = Vec::new();
        for i in 0..6 {
            sender.send(pkt(i, 8), &mut events);
        }
        // Frames 2 and 4 of the one-round burst arrive; 0, 1, 3, 5 do not.
        let mut out = Vec::new();
        sender.on_frame(sack_of(0, &[2, 4]), &mut out);
        assert!(resent_seqs(&out).is_empty(), "same round: no evidence");
        let generation = last_timer_generation(&out).expect("re-armed on progress");
        out.clear();
        sender.on_timeout(generation, &mut out);
        assert_eq!(resent_seqs(&out), vec![0], "the RTO resends the oldest");
        // The resend of 0 is delivered: every remaining hole of the older
        // round goes out in this one call.
        out.clear();
        sender.on_frame(sack_of(1, &[2, 4]), &mut out);
        assert_eq!(resent_seqs(&out), vec![1, 3, 5]);
        let stats = sender.stats();
        assert_eq!(stats.rto_retransmits, 1);
        assert_eq!(stats.fast_retransmits, 3);
    }

    #[test]
    fn sr_loss_recovery_end_to_end_resends_only_lost_frames() {
        // Same harness as `loss_recovery_end_to_end`, but with selective
        // repeat the retransmission count must stay close to the loss count
        // instead of multiplying by the window.
        let cfg = GbnConfig {
            window: 8,
            rto_us: 100,
            max_retries: 50,
        };
        let mut sender = SelectiveRepeat::new(cfg);
        let mut receiver = SelectiveRepeat::new(cfg);
        let total = 24u64;

        let mut delivered_ids: Vec<u64> = Vec::new();
        let mut drop_counter = 0u64;
        let mut pending_timer: Option<u64> = None;
        let mut wire: VecDeque<Frame> = VecDeque::new();
        let mut events = Vec::new();
        for i in 0..total {
            sender.send(pkt(i, 16), &mut events);
        }
        let mut losses = 0u64;
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 10_000, "did not converge");
            let drained: Vec<GbnEvent> = std::mem::take(&mut events);
            for e in drained {
                match e {
                    GbnEvent::Transmit(f) => {
                        if matches!(f, Frame::Data { .. }) {
                            drop_counter += 1;
                            if drop_counter.is_multiple_of(5) {
                                losses += 1;
                                continue; // lost
                            }
                        }
                        wire.push_back(f);
                    }
                    GbnEvent::SetTimer { generation, .. } => pending_timer = Some(generation),
                    GbnEvent::CancelTimer { .. } => pending_timer = None,
                    _ => {}
                }
            }
            let mut recv_events = Vec::new();
            while let Some(f) = wire.pop_front() {
                receiver.on_frame(f, &mut recv_events);
            }
            for e in recv_events {
                match e {
                    GbnEvent::Deliver(p) => delivered_ids.push(p.header.msg_id.0),
                    GbnEvent::Transmit(f) => sender.on_frame(f, &mut events),
                    _ => {}
                }
            }
            if sender.idle() {
                break;
            }
            if events.is_empty() {
                if let Some(generation) = pending_timer.take() {
                    sender.on_timeout(generation, &mut events);
                }
            }
        }
        assert_eq!(delivered_ids, (0..total).collect::<Vec<_>>());
        let retx = sender.stats().retransmissions;
        assert!(retx > 0);
        // Every retransmission corresponds to an actual loss (original or
        // retransmitted copy lost again) — never a whole-window resend.
        assert!(
            retx <= losses,
            "SR resent {retx} frames for {losses} losses"
        );
        assert_eq!(receiver.stats().duplicates, 0);
    }

    #[test]
    fn sr_channel_fails_after_no_progress_timeouts() {
        let cfg = GbnConfig {
            window: 2,
            rto_us: 10,
            max_retries: 2,
        };
        let mut sender = SelectiveRepeat::new(cfg);
        let mut events = Vec::new();
        sender.send(pkt(0, 8), &mut events);
        let mut failed = false;
        for _ in 0..10 {
            let generation = last_timer_generation(&events);
            events.clear();
            if let Some(generation) = generation {
                sender.on_timeout(generation, &mut events);
            }
            if events.iter().any(|e| matches!(e, GbnEvent::ChannelFailed)) {
                failed = true;
                break;
            }
        }
        assert!(failed);
        assert!(sender.failed());
    }

    #[test]
    fn sr_pacing_bounds_burst_and_still_drains() {
        let cfg = GbnConfig {
            window: 16,
            rto_us: 100,
            max_retries: 50,
        };
        let mut sender = SelectiveRepeat::new(cfg);
        sender.set_pace_burst(Some(2));
        let mut receiver = SelectiveRepeat::new(cfg);
        let mut events = Vec::new();
        for i in 0..10 {
            let before = transmit_frames(&events).len();
            sender.send(pkt(i, 8), &mut events);
            let after = transmit_frames(&events).len();
            assert!(after - before <= 2, "burst budget exceeded");
        }
        // Drive to quiescence through a lossless wire.
        let mut steps = 0;
        let mut pending_timer = None;
        loop {
            steps += 1;
            assert!(steps < 1000, "pacing starved the channel");
            let drained: Vec<GbnEvent> = std::mem::take(&mut events);
            let mut recv_events = Vec::new();
            for e in drained {
                match e {
                    GbnEvent::Transmit(f) => receiver.on_frame(f, &mut recv_events),
                    GbnEvent::SetTimer { generation, .. } => pending_timer = Some(generation),
                    GbnEvent::CancelTimer { .. } => pending_timer = None,
                    _ => {}
                }
            }
            for e in recv_events {
                if let GbnEvent::Transmit(f) = e {
                    sender.on_frame(f, &mut events);
                }
            }
            if sender.idle() {
                break;
            }
            if events.is_empty() {
                if let Some(generation) = pending_timer.take() {
                    sender.on_timeout(generation, &mut events);
                }
            }
        }
        assert_eq!(receiver.stats().delivered, 10);
    }

    #[test]
    fn sr_duplicate_data_is_counted_not_redelivered() {
        let cfg = GbnConfig::default();
        let mut receiver = SelectiveRepeat::new(cfg);
        let mut out = Vec::new();
        let frame = Frame::Data {
            seq: 0,
            packet: pkt(0, 8),
        };
        receiver.on_frame(frame.clone(), &mut out);
        receiver.on_frame(frame, &mut out);
        assert_eq!(delivered(&out).len(), 1);
        assert_eq!(receiver.stats().duplicates, 1);
        // A buffered out-of-order frame arriving twice is also a duplicate.
        let oo = Frame::Data {
            seq: 5,
            packet: pkt(5, 8),
        };
        receiver.on_frame(oo.clone(), &mut out);
        receiver.on_frame(oo, &mut out);
        assert_eq!(receiver.stats().duplicates, 2);
    }

    #[test]
    fn arq_channel_dispatches_both_modes() {
        for mode in [ReliabilityMode::GoBackN, ReliabilityMode::SelectiveRepeat] {
            let mut a = ArqChannel::new(mode, GbnConfig::default());
            let mut b = ArqChannel::new(mode, GbnConfig::default());
            assert_eq!(a.mode(), mode);
            let mut events = Vec::new();
            a.send(pkt(0, 32), &mut events);
            let mut recv_events = Vec::new();
            for f in transmit_frames(&events) {
                b.on_frame(f, &mut recv_events);
            }
            assert_eq!(delivered(&recv_events).len(), 1);
            let mut ack_events = Vec::new();
            for f in transmit_frames(&recv_events) {
                a.on_frame(f, &mut ack_events);
            }
            assert!(a.idle());
            assert_eq!(a.stats().acks_received, 1);
            assert_eq!(b.stats().delivered, 1);
        }
    }

    #[test]
    fn cross_mode_peers_still_converge_on_cumulative_acks() {
        // A GBN sender talking to an SR receiver (and vice versa) must still
        // make progress: SACKs degrade to their cumulative field.
        let mut gbn = ArqChannel::new(ReliabilityMode::GoBackN, GbnConfig::default());
        let mut sr = ArqChannel::new(ReliabilityMode::SelectiveRepeat, GbnConfig::default());
        let mut events = Vec::new();
        for i in 0..4 {
            gbn.send(pkt(i, 16), &mut events);
        }
        let mut recv_events = Vec::new();
        for f in transmit_frames(&events) {
            sr.on_frame(f, &mut recv_events);
        }
        assert_eq!(delivered(&recv_events).len(), 4);
        let mut ack_events = Vec::new();
        for f in transmit_frames(&recv_events) {
            gbn.on_frame(f, &mut ack_events);
        }
        assert!(gbn.idle());
    }
}
