//! The UDP backend: one event-loop thread drives every endpoint registered
//! with a [`Reactor`], so a process serving thousands of peers spends one
//! thread (and one `poll(2)` wait) in total rather than one reception
//! thread per endpoint.
//!
//! Three mechanisms keep that one thread cheap per datagram and per peer:
//!
//! * **Batched syscalls.** On Linux the reception path drains up to
//!   [`RECV_BATCH`] datagrams per `recvmmsg(2)` call and the transmission
//!   path coalesces the frames an engine interaction produces into
//!   `sendmmsg(2)` batches, amortising the per-syscall cost across the
//!   batch.  The workspace vendors no `libc`, so the module carries its own
//!   `extern "C"` declarations; platforms without the `mmsg` calls fall
//!   back to a portable nonblocking `recv_from` / `send_to` sweep with
//!   identical semantics.
//! * **One engine lock per batch.** Every datagram of a `recvmmsg` batch is
//!   fed to the protocol engine under a single lock acquisition, and the
//!   actions the batch produced are applied — and the send batch flushed —
//!   **before that lock is released**.  This preserves the ordering
//!   invariant documented on `EpShared::run_engine`: applying actions
//!   after unlock can interleave two interactions' `SetTimer` actions and
//!   wedge a transfer.
//! * **A hashed timer wheel.** Retransmission timers from every hosted
//!   endpoint land in one wheel with [`TICK_US`]-microsecond resolution.
//!   The wheel is *insert-only*: `CancelTimer` is ignored and superseded
//!   timers are left to fire, because every [`TimerId`] carries a
//!   generation and the ARQ channels treat a stale generation's timeout as
//!   a no-op (the chaos harness proves that property under a seeded fault
//!   plane).  Lazy cancellation keeps insertion O(1) with no per-peer scan:
//!   a flat timer list that retains-out the peer's old timer on every
//!   re-arm is exactly what stops scaling past a few hundred peers.
//!
//! Endpoints are added with [`Reactor::add_endpoint`]; the returned
//! [`ReactorEndpoint`] implements [`RawTransport`], so the facade's
//! blocking/async front-ends, the collectives layer, and the conformance
//! suite all run unchanged over it.

use bytes::{Bytes, BytesMut};
use ppmsg_check::sync::Mutex;
use ppmsg_core::reliability::Frame;
use ppmsg_core::telemetry::{self, lock_ctx, Counter, EventKind, LogHistogram};
use ppmsg_core::wire::PacketBufPool;
use ppmsg_core::{
    Action, Completion, CompletionMailbox, CompletionQueue, Endpoint, EndpointConfig,
    EndpointStats, ProcessId, ProtocolConfig, RawTransport, RecvBuf, RecvOp, Result, SendOp, Tag,
    TimerId, TruncationPolicy,
};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Datagrams drained per `recvmmsg` call (and per fallback sweep round).
const RECV_BATCH: usize = 16;
/// Frames coalesced per `sendmmsg` flush.
const SEND_BATCH: usize = 32;
/// Upper bound on a UDP datagram; each receive buffer is this large.
const DATAGRAM_MAX: usize = 65_536;
/// `recvmmsg` rounds per endpoint per loop pass, so one firehosing socket
/// cannot starve its neighbours or the timer wheel.
const MAX_BATCH_ROUNDS: usize = 4;
/// Timer wheel resolution.  Retransmission timeouts are milliseconds, so
/// half-millisecond ticks never meaningfully delay a deadline.
const TICK_US: u64 = 500;
/// Timer wheel slot count; deadlines further out than `WHEEL_SLOTS` ticks
/// simply survive extra cursor revolutions in their slot.
const WHEEL_SLOTS: usize = 256;
/// How long the event loop blocks waiting for readable sockets.
const POLL_TIMEOUT_MS: i32 = 2;
/// One user-thread engine interaction in this many is timed for the
/// lock-hold histogram / flight recorder (same cadence as the sharded
/// engine's sampling).
const LOCK_SAMPLE: u64 = 64;

// ---------------------------------------------------------------------------
// Batched-syscall bindings (Linux) — the workspace vendors no `libc`.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    //! Minimal hand-rolled bindings for `recvmmsg(2)`, `sendmmsg(2)` and
    //! `poll(2)`.  Struct layouts follow the 64-bit Linux ABI (glibc and
    //! musl agree on all fields these calls read on little-endian
    //! targets); only `AF_INET` peers are batched — other address families
    //! take the scalar `send_to` path.

    use super::{RECV_BATCH, SEND_BATCH};
    use bytes::BytesMut;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        /// Big-endian port.
        port: u16,
        /// Big-endian IPv4 address.
        addr: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    /// One entry of the event loop's `poll(2)` set.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const AF_INET: u16 = 2;

    extern "C" {
        fn recvmmsg(
            fd: i32,
            vec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut Timespec,
        ) -> i32;
        fn sendmmsg(fd: i32, vec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    impl SockAddrIn {
        fn from_v4(addr: &SocketAddrV4) -> SockAddrIn {
            SockAddrIn {
                family: AF_INET,
                port: addr.port().to_be(),
                addr: u32::from(*addr.ip()).to_be(),
                zero: [0; 8],
            }
        }

        fn to_addr(self) -> Option<SocketAddr> {
            if self.family != AF_INET {
                return None;
            }
            Some(SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::from(u32::from_be(self.addr)),
                u16::from_be(self.port),
            )))
        }
    }

    /// A `poll` set entry watching `socket` for readability.
    pub(super) fn pollfd_for(socket: &UdpSocket) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    impl PollFd {
        /// Whether the last [`poll_readable`] marked this socket readable.
        pub(super) fn readable(&self) -> bool {
            self.revents & POLLIN != 0
        }
    }

    /// Blocks up to `timeout_ms` for any watched socket to become
    /// readable; returns the number of ready sockets (0 on timeout).
    pub(super) fn poll_readable(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        if fds.is_empty() {
            return 0;
        }
        // SAFETY: `fds` is a live, exclusively borrowed slice of PollFd,
        // which is repr(C) and layout-compatible with the kernel's
        // `struct pollfd`; the pointer/length pair describes exactly that
        // allocation and `poll` writes only to the `revents` fields.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) }
    }

    /// Drains up to [`RECV_BATCH`] datagrams from a nonblocking socket in
    /// one `recvmmsg` call.  Fills `metas` with `(len, source)` per
    /// datagram (index-aligned with `bufs`; a non-IPv4 source decodes to
    /// `None` and is skipped by the caller).  Returns whether the batch
    /// came back full, i.e. more datagrams may be pending.
    pub(super) fn recv_batch(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        metas: &mut Vec<(usize, Option<SocketAddr>)>,
    ) -> bool {
        metas.clear();
        // SAFETY: SockAddrIn, IoVec, and MMsgHdr are repr(C) structs of
        // integers and raw pointers; the all-zeroes bit pattern is a valid
        // (if null) value for every field, and each entry is fully
        // initialized below before the kernel reads it.
        let mut names: [SockAddrIn; RECV_BATCH] = unsafe { std::mem::zeroed() };
        // SAFETY: as above — plain-old-data arrays, zero is a valid value.
        let mut iovs: [IoVec; RECV_BATCH] = unsafe { std::mem::zeroed() };
        // SAFETY: as above — plain-old-data arrays, zero is a valid value.
        let mut hdrs: [MMsgHdr; RECV_BATCH] = unsafe { std::mem::zeroed() };
        for (((hdr, iov), name), buf) in hdrs
            .iter_mut()
            .zip(iovs.iter_mut())
            .zip(names.iter_mut())
            .zip(bufs.iter_mut())
        {
            *iov = IoVec {
                base: buf.as_mut_ptr(),
                len: buf.len(),
            };
            hdr.hdr = MsgHdr {
                name: name as *mut SockAddrIn as *mut u8,
                namelen: std::mem::size_of::<SockAddrIn>() as u32,
                iov,
                iovlen: 1,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            };
        }
        // The socket is nonblocking, so a `-1` here is almost always
        // EAGAIN ("nothing to read") and is treated as an empty batch
        // either way — the loop re-polls and retransmission covers loss.
        //
        // SAFETY: `hdrs` holds RECV_BATCH fully initialized MMsgHdr
        // entries whose iov/name pointers reference `bufs`/`names`, both
        // alive and unaliased for the duration of the call; the fd is a
        // valid open socket borrowed from `socket`.
        let n = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                RECV_BATCH as u32,
                0,
                std::ptr::null_mut(),
            )
        };
        if n <= 0 {
            return false;
        }
        for (hdr, name) in hdrs.iter().zip(names.iter()).take(n as usize) {
            metas.push((hdr.len as usize, name.to_addr()));
        }
        n as usize == RECV_BATCH
    }

    /// Transmits every `(frame, destination)` pair, coalescing runs of
    /// IPv4 destinations into `sendmmsg` batches.  Errors (e.g.
    /// `ECONNREFUSED` on loopback) are ignored: a lost datagram is
    /// recovered by the ARQ layer.
    pub(super) fn send_batch(socket: &UdpSocket, frames: &[(BytesMut, SocketAddr)]) {
        let mut i = 0;
        while i < frames.len() {
            if !matches!(frames[i].1, SocketAddr::V4(_)) {
                let _ = socket.send_to(&frames[i].0, frames[i].1);
                i += 1;
                continue;
            }
            let mut end = i + 1;
            while end < frames.len()
                && end - i < SEND_BATCH
                && matches!(frames[end].1, SocketAddr::V4(_))
            {
                end += 1;
            }
            let run = &frames[i..end];
            // SAFETY: plain-old-data repr(C) arrays (integers and raw
            // pointers); all-zeroes is a valid value for every field, and
            // the first `run.len()` entries are initialized below.
            let mut names: [SockAddrIn; SEND_BATCH] = unsafe { std::mem::zeroed() };
            // SAFETY: as above — plain-old-data arrays, zero is valid.
            let mut iovs: [IoVec; SEND_BATCH] = unsafe { std::mem::zeroed() };
            // SAFETY: as above — plain-old-data arrays, zero is valid.
            let mut hdrs: [MMsgHdr; SEND_BATCH] = unsafe { std::mem::zeroed() };
            for (k, (buf, addr)) in run.iter().enumerate() {
                let SocketAddr::V4(v4) = addr else {
                    unreachable!("run contains only V4 destinations")
                };
                names[k] = SockAddrIn::from_v4(v4);
                iovs[k] = IoVec {
                    base: buf.as_ptr() as *mut u8,
                    len: buf.len(),
                };
                hdrs[k].hdr = MsgHdr {
                    name: &mut names[k] as *mut SockAddrIn as *mut u8,
                    namelen: std::mem::size_of::<SockAddrIn>() as u32,
                    iov: &mut iovs[k],
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                };
            }
            // SAFETY: the first `run.len()` hdrs entries are fully
            // initialized and their name/iov pointers reference `names`,
            // `iovs`, and the frame buffers in `run`, all alive across the
            // call; the fd is a valid open socket and the kernel only
            // reads the payloads.
            let sent =
                unsafe { sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), run.len() as u32, 0) };
            if sent <= 0 {
                // The kernel refused the whole batch (e.g. transient
                // ENOBUFS); fall back to best-effort scalar sends.
                for (buf, addr) in run {
                    let _ = socket.send_to(buf, *addr);
                }
                i = end;
            } else {
                i += sent as usize;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

struct WheelEntry {
    tick: u64,
    ep: Weak<EpShared>,
    timer: TimerId,
}

/// Hashed timer wheel shared by every endpoint a reactor hosts.
///
/// Insert-only: entries are never removed by cancellation, only when their
/// slot's cursor pass collects them.  A fired entry whose generation the
/// owning channel has since superseded is ignored by the engine, so lazy
/// cancellation costs one spurious `handle_timer` call instead of a scan.
struct TimerWheel {
    start: Instant,
    /// The next tick the cursor will collect (ticks are `TICK_US` long).
    next_tick: u64,
    slots: Vec<Vec<WheelEntry>>,
}

impl TimerWheel {
    fn new(start: Instant) -> TimerWheel {
        TimerWheel {
            start,
            next_tick: 0,
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_micros() as u64 / TICK_US
    }

    fn insert(&mut self, deadline: Instant, ep: Weak<EpShared>, timer: TimerId) {
        // Round the deadline *up* one tick so timers never fire early, and
        // clamp behind-the-cursor deadlines to the next collection pass.
        let tick = (self.tick_of(deadline) + 1).max(self.next_tick);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(WheelEntry { tick, ep, timer });
    }

    /// Collects every entry whose deadline has passed into `fired`,
    /// advancing the cursor to `now`.  Entries parked for a later
    /// revolution of the wheel stay in their slot.
    fn advance(&mut self, now: Instant, fired: &mut Vec<(Weak<EpShared>, TimerId)>) {
        let now_tick = self.tick_of(now);
        while self.next_tick <= now_tick {
            let cur = self.next_tick;
            let slot = &mut self.slots[(cur % WHEEL_SLOTS as u64) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].tick <= cur {
                    let entry = slot.swap_remove(i);
                    fired.push((entry.ep, entry.timer));
                } else {
                    i += 1;
                }
            }
            self.next_tick += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// Peer addressing in both directions: `by_addr` gives the reception path
/// O(1) source identification (a linear reverse scan of `by_id` per
/// datagram is another thing that stops scaling past a few hundred peers).
#[derive(Default)]
struct PeerTable {
    by_id: HashMap<u64, SocketAddr>,
    by_addr: HashMap<SocketAddr, ProcessId>,
}

/// Per-endpoint state shared between the reactor thread and user threads.
struct EpShared {
    id: ProcessId,
    engine: Mutex<Endpoint>,
    socket: UdpSocket,
    peers: Mutex<PeerTable>,
    /// Completions drained from the engine, op-indexed so claims are O(1),
    /// with the wakers of tasks awaiting them.  A one-producer mailbox: the
    /// reactor thread and user-thread postings publish straight into the
    /// queue under its lock.
    done: CompletionMailbox,
    /// Reusable frame-encode buffers.
    codec: Mutex<PacketBufPool>,
    /// The hosting reactor, for timer-wheel inserts from user threads.
    reactor: Weak<ReactorShared>,
    /// Self-reference handed to wheel entries.
    this: Weak<EpShared>,
    /// User-thread engine interactions; the count doubles as the sampling
    /// ticket for [`LOCK_SAMPLE`]d lock-hold measurements.
    user_calls: Counter,
}

/// The reactor's metrics plane: batch-size and lock-hold distributions plus
/// event-loop counters, recordable lock-free from the loop thread and
/// snapshot-able from any thread via [`Reactor::metrics`].  All fields are
/// zero-cost no-ops when the `telemetry` feature is off.
#[derive(Debug, Default)]
pub struct ReactorMetrics {
    /// Datagrams delivered to an engine per `recvmmsg` batch.
    pub recv_batch: LogHistogram,
    /// Frames flushed per batch (the `sendmmsg` coalescing payoff).
    pub send_batch: LogHistogram,
    /// Nanoseconds the engine lock was held per reception batch.
    pub batch_lock_ns: LogHistogram,
    /// Reception batches processed.
    pub batches: Counter,
    /// Timer-wheel entries fired (including stale generations the channels
    /// discard — compare with `EndpointStats` retransmit counts).
    pub timers_fired: Counter,
    /// Sampled user-thread engine lock holds, in nanoseconds
    /// (one interaction in `LOCK_SAMPLE` = 64 is measured).
    pub user_lock_ns: LogHistogram,
}

struct ReactorShared {
    endpoints: Mutex<Vec<Arc<EpShared>>>,
    /// Bumped on every add/remove; the event loop reloads its endpoint
    /// cache (and poll set) when it observes a change.
    epoch: AtomicU64,
    wheel: Mutex<TimerWheel>,
    shutdown: AtomicBool,
    metrics: ReactorMetrics,
}

/// Outgoing frames coalesced during one engine interaction, flushed in
/// production order before the engine lock is released.
struct SendBatch {
    frames: Vec<(BytesMut, SocketAddr)>,
    /// Frames flushed since the last [`SendBatch::take_sent`], for the
    /// per-batch telemetry record.
    sent: usize,
}

impl SendBatch {
    fn new() -> SendBatch {
        SendBatch {
            frames: Vec::with_capacity(SEND_BATCH),
            sent: 0,
        }
    }

    fn push(&mut self, ep: &EpShared, buf: BytesMut, addr: SocketAddr) {
        if self.frames.len() == SEND_BATCH {
            self.flush(ep);
        }
        self.frames.push((buf, addr));
    }

    /// Frames flushed since the last call, resetting the tally.
    fn take_sent(&mut self) -> usize {
        std::mem::take(&mut self.sent)
    }

    fn flush(&mut self, ep: &EpShared) {
        if self.frames.is_empty() {
            return;
        }
        self.sent += self.frames.len();
        #[cfg(target_os = "linux")]
        sys::send_batch(&ep.socket, &self.frames);
        #[cfg(not(target_os = "linux"))]
        for (buf, addr) in &self.frames {
            let _ = ep.socket.send_to(buf, *addr);
        }
        let mut codec = ep.codec.lock();
        for (buf, _) in self.frames.drain(..) {
            codec.release(buf);
        }
    }
}

impl EpShared {
    /// Publishes a batch of completions, waking every waiter registered
    /// for one of them.  Wakers run after the mailbox's queue lock is
    /// released: a waker is arbitrary executor code and may re-enter this
    /// endpoint.
    fn publish(&self, comps: &mut Vec<Completion>) {
        if comps.is_empty() {
            return;
        }
        self.done.post(0, comps);
    }

    /// Executes a batch of engine actions in production order.  With
    /// `batch` present (the reactor thread), frames are coalesced for a
    /// `sendmmsg` flush; without it (user-thread postings, timer fires),
    /// each frame goes out with a direct `send_to`.
    ///
    /// Timers go into the hosting reactor's wheel; `CancelTimer` is
    /// deliberately ignored (see the module docs — the wheel cancels
    /// lazily, relying on the channels' generation checks).
    fn apply_actions(&self, actions: &mut Vec<Action>, mut batch: Option<&mut SendBatch>) {
        for action in actions.drain(..) {
            match action {
                Action::TransmitFrame { dst, frame, .. } => {
                    let addr = self.peers.lock().by_id.get(&dst.as_u64()).copied();
                    if let Some(addr) = addr {
                        let buf = {
                            let mut codec = self.codec.lock();
                            let mut buf = codec.acquire(frame.wire_size());
                            frame.encode_into(&mut buf);
                            buf
                        };
                        match batch.as_deref_mut() {
                            Some(batch) => batch.push(self, buf, addr),
                            None => {
                                // Send errors are ignored: a lost datagram
                                // is recovered by the ARQ layer.
                                let _ = self.socket.send_to(&buf, addr);
                                self.codec.lock().release(buf);
                            }
                        }
                    }
                }
                Action::Transmit { dst, .. } => {
                    panic!("reactor endpoint asked to deliver intranode packet to {dst}")
                }
                Action::SetTimer { timer, delay_us } => {
                    if let Some(reactor) = self.reactor.upgrade() {
                        let deadline = Instant::now() + Duration::from_micros(delay_us);
                        reactor
                            .wheel
                            .lock()
                            .insert(deadline, self.this.clone(), timer);
                    }
                }
                Action::CancelTimer { .. } => {}
                Action::Translate { .. } | Action::Copy { .. } | Action::PacketDropped { .. } => {}
                Action::ChannelFailed { peer } => {
                    eprintln!("ppmsg-host/reactor: channel to {peer} failed (peer unreachable)");
                }
            }
        }
    }

    /// Runs one engine interaction, applying its actions **before
    /// releasing the engine lock**, then publishes completions; the
    /// caller's buffers are reused.
    ///
    /// Applying under the lock is load-bearing.  Engine interactions run
    /// on user threads and on the reactor thread (reception batches and
    /// timer fires), and the ARQ timer protocol (`SetTimer` re-arms with a
    /// bumped generation, `CancelTimer` revokes a specific generation) is
    /// only correct if each interaction's actions are applied in the order
    /// the engine produced them.  Applied after unlock into a store that
    /// keeps one timer per peer, a stale `SetTimer` overwrote a newer
    /// re-arm: the channel ignored the stale generation's timeout, no
    /// retransmission ever fired, and a single reordered or lost datagram
    /// wedged the transfer forever.  The insert-only wheel cannot be
    /// overwritten, but frames still leave in production order, which
    /// spares the receiver the discard and cumulative-ack recovery that
    /// overtaking sends force.
    fn run_engine<R>(
        &self,
        actions: &mut Vec<Action>,
        comps: &mut Vec<Completion>,
        f: impl FnOnce(&mut Endpoint) -> R,
    ) -> R {
        telemetry::clock::hold();
        let result = {
            let mut engine = self.engine.lock();
            // The ticket is taken under the lock, so it never contends;
            // one interaction in LOCK_SAMPLE pays for two clock reads.
            let sampled = self.user_calls.tick().is_multiple_of(LOCK_SAMPLE);
            let t0 = if sampled {
                telemetry::clock::mono_ns()
            } else {
                0
            };
            let result = f(&mut engine);
            engine.drain_actions_into(actions);
            engine.drain_completions_into(comps);
            self.apply_actions(actions, None);
            if sampled {
                let held = telemetry::clock::mono_ns().saturating_sub(t0);
                if let Some(reactor) = self.reactor.upgrade() {
                    reactor.metrics.user_lock_ns.record(held);
                }
                telemetry::event(EventKind::EngineLock, lock_ctx::REACTOR_USER, 0, held);
            }
            result
        };
        self.publish(comps);
        result
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// Reception scratch reused across batches: `RECV_BATCH` datagram buffers
/// plus the `(len, source)` metadata of the current batch.
struct Scratch {
    bufs: Vec<Vec<u8>>,
    metas: Vec<(usize, Option<SocketAddr>)>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            bufs: (0..RECV_BATCH).map(|_| vec![0u8; DATAGRAM_MAX]).collect(),
            metas: Vec::with_capacity(RECV_BATCH),
        }
    }
}

/// Reads one batch of datagrams into the scratch buffers, returning
/// whether the batch came back full (more may be pending).
#[cfg(target_os = "linux")]
fn fill_batch(socket: &UdpSocket, scratch: &mut Scratch) -> bool {
    sys::recv_batch(socket, &mut scratch.bufs, &mut scratch.metas)
}

/// Portable fallback: a nonblocking `recv_from` loop with the same batch
/// contract as the Linux `recvmmsg` path.
#[cfg(not(target_os = "linux"))]
fn fill_batch(socket: &UdpSocket, scratch: &mut Scratch) -> bool {
    scratch.metas.clear();
    for buf in scratch.bufs.iter_mut() {
        match socket.recv_from(buf) {
            Ok((n, from)) => scratch.metas.push((n, Some(from))),
            // WouldBlock ends the batch; other errors are treated the same
            // way (the ARQ layer recovers anything lost).
            Err(_) => break,
        }
    }
    scratch.metas.len() == RECV_BATCH
}

/// Feeds a full batch of datagrams to the endpoint's engine under **one**
/// lock acquisition, then applies the actions the batch produced — frames
/// coalesced into `sendmmsg` batches — before releasing the lock.
fn process_batch(
    ep: &EpShared,
    scratch: &mut Scratch,
    batch: &mut SendBatch,
    actions: &mut Vec<Action>,
    comps: &mut Vec<Completion>,
    metrics: &ReactorMetrics,
) {
    let received = scratch.metas.len();
    let t0 = telemetry::clock::mono_ns();
    {
        let mut engine = ep.engine.lock();
        {
            let peers = ep.peers.lock();
            for ((len, from), buf) in scratch.metas.iter().zip(scratch.bufs.iter()) {
                let Some(from) = from else { continue };
                let Some(peer) = peers.by_addr.get(from).copied() else {
                    continue;
                };
                if let Ok(frame) = Frame::decode(Bytes::copy_from_slice(&buf[..*len])) {
                    engine.handle_frame(peer, frame);
                }
            }
        }
        engine.drain_actions_into(actions);
        engine.drain_completions_into(comps);
        ep.apply_actions(actions, Some(batch));
        batch.flush(ep);
    }
    let held = telemetry::clock::mono_ns().saturating_sub(t0);
    let sent = batch.take_sent();
    metrics.batches.inc();
    metrics.recv_batch.record(received as u64);
    metrics.send_batch.record(sent as u64);
    metrics.batch_lock_ns.record(held);
    telemetry::event(EventKind::ReactorBatch, received as u32, sent as u32, held);
    ep.publish(comps);
}

/// Drains every pending datagram batch from one endpoint's socket (bounded
/// by [`MAX_BATCH_ROUNDS`]); returns whether anything was read.
fn drain_endpoint(
    ep: &EpShared,
    scratch: &mut Scratch,
    batch: &mut SendBatch,
    actions: &mut Vec<Action>,
    comps: &mut Vec<Completion>,
    metrics: &ReactorMetrics,
) -> bool {
    let mut any = false;
    for _ in 0..MAX_BATCH_ROUNDS {
        let full = fill_batch(&ep.socket, scratch);
        if scratch.metas.is_empty() {
            break;
        }
        any = true;
        process_batch(ep, scratch, batch, actions, comps, metrics);
        if !full {
            break;
        }
    }
    any
}

fn reactor_loop(shared: Arc<ReactorShared>) {
    let mut eps: Vec<Arc<EpShared>> = Vec::new();
    let mut seen_epoch = u64::MAX;
    let mut scratch = Scratch::new();
    let mut batch = SendBatch::new();
    let mut actions: Vec<Action> = Vec::new();
    let mut comps: Vec<Completion> = Vec::new();
    let mut fired: Vec<(Weak<EpShared>, TimerId)> = Vec::new();
    #[cfg(target_os = "linux")]
    let mut pollfds: Vec<sys::PollFd> = Vec::new();

    while !shared.shutdown.load(Ordering::Relaxed) {
        // One clock read stamps every trace event this loop pass emits.
        telemetry::clock::hold();
        let epoch = shared.epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            eps.clear();
            eps.extend(shared.endpoints.lock().iter().cloned());
            #[cfg(target_os = "linux")]
            {
                pollfds.clear();
                pollfds.extend(eps.iter().map(|ep| sys::pollfd_for(&ep.socket)));
            }
        }

        if eps.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        } else {
            #[cfg(target_os = "linux")]
            {
                if sys::poll_readable(&mut pollfds, POLL_TIMEOUT_MS) > 0 {
                    for (pfd, ep) in pollfds.iter().zip(eps.iter()) {
                        if pfd.readable() {
                            drain_endpoint(
                                ep,
                                &mut scratch,
                                &mut batch,
                                &mut actions,
                                &mut comps,
                                &shared.metrics,
                            );
                        }
                    }
                }
            }
            #[cfg(not(target_os = "linux"))]
            {
                let mut any = false;
                for ep in &eps {
                    any |= drain_endpoint(
                        ep,
                        &mut scratch,
                        &mut batch,
                        &mut actions,
                        &mut comps,
                        &shared.metrics,
                    );
                }
                if !any {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }

        fired.clear();
        shared.wheel.lock().advance(Instant::now(), &mut fired);
        shared.metrics.timers_fired.add(fired.len() as u64);
        for (ep, timer) in fired.drain(..) {
            if let Some(ep) = ep.upgrade() {
                ep.run_engine(&mut actions, &mut comps, |engine| {
                    engine.handle_timer(timer)
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A single-threaded event loop hosting many [`ReactorEndpoint`]s.
///
/// Dropping the reactor stops the event loop; endpoints that outlive it
/// keep accepting postings (user-thread interactions still run the engine)
/// but no longer receive datagrams or fire timers, so keep the reactor
/// alive as long as its endpoints are in use.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Starts a reactor with no endpoints; add them with
    /// [`Reactor::add_endpoint`].
    pub fn new() -> std::io::Result<Reactor> {
        let shared = Arc::new(ReactorShared {
            endpoints: Mutex::new("host.reactor.endpoints", Vec::new()),
            epoch: AtomicU64::new(0),
            wheel: Mutex::new("host.reactor.wheel", TimerWheel::new(Instant::now())),
            shutdown: AtomicBool::new(false),
            metrics: ReactorMetrics::default(),
        });
        let worker = shared.clone();
        let thread = std::thread::Builder::new()
            .name("ppmsg-reactor".into())
            .spawn(move || reactor_loop(worker))?;
        Ok(Reactor {
            shared,
            thread: Some(thread),
        })
    }

    /// Binds an endpoint for process `id` to `bind_addr` (use port 0 for
    /// an ephemeral port) and registers it with the event loop.
    pub fn add_endpoint(
        &self,
        id: ProcessId,
        protocol: ProtocolConfig,
        bind_addr: &str,
    ) -> std::io::Result<ReactorEndpoint> {
        self.add_endpoint_with(id, protocol, bind_addr, &EndpointConfig::new())
    }

    /// [`Reactor::add_endpoint`] with per-endpoint configuration
    /// overrides — completion retention, ARQ window, BTP eager threshold,
    /// and reliability mode ([`EndpointConfig::reliability`]) replace the
    /// protocol-wide defaults for this endpoint.
    pub fn add_endpoint_with(
        &self,
        id: ProcessId,
        protocol: ProtocolConfig,
        bind_addr: &str,
        config: &EndpointConfig,
    ) -> std::io::Result<ReactorEndpoint> {
        let protocol = config.apply_protocol(protocol);
        let mut done = CompletionQueue::new();
        config.apply_retention(&mut done);
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        let reactor = Arc::downgrade(&self.shared);
        let ep = Arc::new_cyclic(|this| EpShared {
            id,
            engine: Mutex::new("host.reactor.engine", Endpoint::new(id, protocol)),
            socket,
            peers: Mutex::new("host.reactor.peers", PeerTable::default()),
            done: CompletionMailbox::with_queue(1, done),
            codec: Mutex::new("host.reactor.codec", PacketBufPool::new()),
            reactor,
            this: this.clone(),
            user_calls: Counter::new(),
        });
        self.shared.endpoints.lock().push(ep.clone());
        self.shared.epoch.fetch_add(1, Ordering::Release);
        Ok(ReactorEndpoint { shared: ep })
    }

    /// The reactor's live metrics plane — batch-size / lock-hold histograms
    /// and event-loop counters, snapshot-able without stopping traffic.
    pub fn metrics(&self) -> &ReactorMetrics {
        &self.shared.metrics
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A Push-Pull Messaging endpoint hosted by a [`Reactor`].
///
/// Postings run the engine on the calling thread; reception and
/// retransmission timers are driven by the reactor's event loop, which
/// this endpoint shares with every other endpoint of its reactor.
/// Dropping the endpoint deregisters it from the event loop.
pub struct ReactorEndpoint {
    shared: Arc<EpShared>,
}

impl ReactorEndpoint {
    /// This endpoint's process id.
    pub fn id(&self) -> ProcessId {
        self.shared.id
    }

    /// The socket address this endpoint is bound to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.shared.socket.local_addr()
    }

    /// Registers the address of a peer process (both directions: id →
    /// address for transmission, address → id for reception).
    pub fn add_peer(&self, peer: ProcessId, addr: SocketAddr) {
        let mut peers = self.shared.peers.lock();
        peers.by_id.insert(peer.as_u64(), addr);
        peers.by_addr.insert(addr, peer);
    }

    /// Posts a send of `data` to `peer`, returning its operation handle.
    pub fn post_send(&self, peer: ProcessId, tag: Tag, data: impl Into<Bytes>) -> Result<SendOp> {
        let data = data.into();
        let mut actions = Vec::new();
        let mut comps = Vec::new();
        self.shared.run_engine(&mut actions, &mut comps, |engine| {
            engine.post_send(peer, tag, data)
        })
    }

    /// Posts a vectored send; see
    /// [`Endpoint::post_send_vectored`](ppmsg_core::Endpoint::post_send_vectored).
    pub fn post_send_vectored(
        &self,
        peer: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<SendOp> {
        let mut actions = Vec::new();
        let mut comps = Vec::new();
        self.shared.run_engine(&mut actions, &mut comps, |engine| {
            engine.post_send_vectored(peer, tag, segments)
        })
    }

    /// Posts an engine-buffered receive.  `src` / `tag` may be the
    /// [`ANY_SOURCE`](ppmsg_core::ANY_SOURCE) /
    /// [`ANY_TAG`](ppmsg_core::ANY_TAG) wildcards.
    pub fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        let mut actions = Vec::new();
        let mut comps = Vec::new();
        self.shared.run_engine(&mut actions, &mut comps, |engine| {
            engine.post_recv_with(src, tag, capacity, policy)
        })
    }

    /// Posts a receive that reassembles directly into the caller-owned
    /// `buf`, handed back in the completion.
    pub fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        let mut actions = Vec::new();
        let mut comps = Vec::new();
        self.shared.run_engine(&mut actions, &mut comps, |engine| {
            engine.post_recv_into(src, tag, buf, policy)
        })
    }

    /// Cancels a still-unmatched receive; see
    /// [`Endpoint::cancel`](ppmsg_core::Endpoint::cancel).
    pub fn cancel(&self, op: RecvOp) -> bool {
        let mut actions = Vec::new();
        let mut comps = Vec::new();
        self.shared
            .run_engine(&mut actions, &mut comps, |engine| engine.cancel(op))
    }

    /// Cancels a posted send whose remainder has not been pulled yet; see
    /// [`Endpoint::cancel_send`](ppmsg_core::Endpoint::cancel_send).
    pub fn cancel_send(&self, op: SendOp) -> bool {
        let mut actions = Vec::new();
        let mut comps = Vec::new();
        self.shared
            .run_engine(&mut actions, &mut comps, |engine| engine.cancel_send(op))
    }

    /// Protocol statistics of this endpoint, including the completion
    /// queue's eviction counter
    /// ([`EndpointStats::completions_evicted`]).
    pub fn stats(&self) -> EndpointStats {
        let mut stats = self.shared.engine.lock().stats();
        stats.completions_evicted = self.shared.done.evicted();
        stats
    }

    /// ARQ statistics for the channel to `peer`, if one exists; see
    /// [`Endpoint::channel_stats`](ppmsg_core::Endpoint::channel_stats).
    pub fn channel_stats(&self, peer: ProcessId) -> Option<ppmsg_core::reliability::GbnStats> {
        self.shared.engine.lock().channel_stats(peer)
    }
}

/// The reactor backend's contract: posting runs the engine on the
/// calling thread (the reactor thread publishes concurrent completions),
/// and completion access goes through the mailbox's queue under the same
/// lock publication takes, so check-and-register through
/// [`RawTransport::with_completions`] can never miss a concurrently
/// published completion.
impl RawTransport for ReactorEndpoint {
    fn local_id(&self) -> ProcessId {
        self.id()
    }

    fn post_send(&self, peer: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp> {
        ReactorEndpoint::post_send(self, peer, tag, data)
    }

    fn post_send_vectored(&self, peer: ProcessId, tag: Tag, segments: &[Bytes]) -> Result<SendOp> {
        ReactorEndpoint::post_send_vectored(self, peer, tag, segments)
    }

    fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        ReactorEndpoint::post_recv(self, src, tag, capacity, policy)
    }

    fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        ReactorEndpoint::post_recv_into(self, src, tag, buf, policy)
    }

    fn cancel_recv(&self, op: RecvOp) -> bool {
        ReactorEndpoint::cancel(self, op)
    }

    fn cancel_send(&self, op: SendOp) -> bool {
        ReactorEndpoint::cancel_send(self, op)
    }

    fn with_completions(&self, f: &mut dyn FnMut(&mut CompletionQueue)) {
        self.shared.done.with(f);
    }

    fn stats(&self) -> EndpointStats {
        ReactorEndpoint::stats(self)
    }
}

impl Drop for ReactorEndpoint {
    fn drop(&mut self) {
        if let Some(reactor) = self.shared.reactor.upgrade() {
            reactor
                .endpoints
                .lock()
                .retain(|ep| !Arc::ptr_eq(ep, &self.shared));
            reactor.epoch.fetch_add(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppmsg_core::{OpId, ProtocolMode, ReliabilityMode, Status, ANY_SOURCE};

    const T: Duration = Duration::from_secs(10);

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    fn wait(ep: &ReactorEndpoint, op: OpId, timeout: Duration) -> Option<Completion> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(completion) = ep.take_completion(op) {
                return Some(completion);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn send(ep: &ReactorEndpoint, peer: ProcessId, tag: Tag, data: Bytes) -> SendOp {
        ep.post_send(peer, tag, data).expect("post_send failed")
    }

    fn recv(
        ep: &ReactorEndpoint,
        peer: ProcessId,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> Option<Bytes> {
        let op = ep
            .post_recv(peer, tag, max_len, TruncationPolicy::Error)
            .ok()?;
        let completion = wait(ep, OpId::Recv(op), timeout)?;
        match completion.status {
            Status::Ok | Status::Truncated { .. } => completion.data,
            Status::Cancelled | Status::Error(_) => None,
        }
    }

    fn pair(
        reactor: &Reactor,
        protocol: ProtocolConfig,
        config: &EndpointConfig,
    ) -> (ReactorEndpoint, ReactorEndpoint) {
        let a = reactor
            .add_endpoint_with(
                ProcessId::new(0, 0),
                protocol.clone(),
                "127.0.0.1:0",
                config,
            )
            .unwrap();
        let b = reactor
            .add_endpoint_with(ProcessId::new(1, 0), protocol, "127.0.0.1:0", config)
            .unwrap();
        a.add_peer(b.id(), b.local_addr().unwrap());
        b.add_peer(a.id(), a.local_addr().unwrap());
        (a, b)
    }

    #[test]
    fn loopback_transfer_all_modes_and_reliabilities() {
        let reactor = Reactor::new().unwrap();
        for reliability in [ReliabilityMode::GoBackN, ReliabilityMode::SelectiveRepeat] {
            for mode in [
                ProtocolMode::PushZero,
                ProtocolMode::PushPull,
                ProtocolMode::PushAll,
            ] {
                let protocol = ProtocolConfig::paper_internode()
                    .with_mode(mode)
                    .with_pushed_buffer(64 * 1024);
                let config = EndpointConfig::new().reliability(reliability);
                let (a, b) = pair(&reactor, protocol, &config);
                let data = payload(8192);
                let h = send(&a, b.id(), Tag(3), data.clone());
                let got = recv(&b, a.id(), Tag(3), 8192, T).expect("recv timed out");
                assert_eq!(got, data, "mode {mode:?} reliability {reliability:?}");
                assert!(
                    wait(&a, OpId::Send(h), T).is_some(),
                    "mode {mode:?} reliability {reliability:?}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_pingpong() {
        let reactor = Reactor::new().unwrap();
        let (a, b) = pair(
            &reactor,
            ProtocolConfig::paper_internode(),
            &EndpointConfig::new(),
        );
        for i in 1..=10usize {
            let data = payload(i * 333);
            send(&a, b.id(), Tag(1), data.clone());
            let got = recv(&b, a.id(), Tag(1), 8192, T).unwrap();
            assert_eq!(got, data);
            send(&b, a.id(), Tag(2), got);
            let back = recv(&a, b.id(), Tag(2), 8192, T).unwrap();
            assert_eq!(back, data);
        }
        assert_eq!(a.stats().sends_completed, 10);
        assert_eq!(a.stats().recvs_completed, 10);
    }

    /// Push-All with a tiny pushed buffer: the eager frames overflow and
    /// are dropped; `reliability`'s retransmissions complete the transfer
    /// once the receive is posted.
    fn late_receiver_recovers(reliability: ReliabilityMode) {
        let reactor = Reactor::new().unwrap();
        let protocol = ProtocolConfig::paper_internode()
            .with_mode(ProtocolMode::PushAll)
            .with_pushed_buffer(4 * 1024);
        let config = EndpointConfig::new().reliability(reliability);
        let (a, b) = pair(&reactor, protocol, &config);
        let data = payload(16 * 1024);
        send(&a, b.id(), Tag(7), data.clone());
        std::thread::sleep(Duration::from_millis(120));
        let got = recv(&b, a.id(), Tag(7), 16 * 1024, T).expect("recv timed out");
        assert_eq!(got, data);
        assert!(b.stats().frames_dropped > 0, "expected pushed-buffer drops");
        assert!(a.stats().retransmits > 0, "expected retransmissions");
    }

    #[test]
    fn late_receiver_recovers_via_selective_repeat() {
        // Resends only what the SACKs reveal as missing.
        late_receiver_recovers(ReliabilityMode::SelectiveRepeat);
    }

    #[test]
    fn late_receiver_recovers_via_go_back_n() {
        // Resends the whole window behind the first hole.
        late_receiver_recovers(ReliabilityMode::GoBackN);
    }

    #[test]
    fn many_clients_one_server_endpoint() {
        // One reactor hosts the server and 32 clients: a smoke-scale
        // version of the many-peer workload the reactor exists for.
        let reactor = Reactor::new().unwrap();
        let protocol = ProtocolConfig::paper_internode().with_pushed_buffer(256 * 1024);
        let server = reactor
            .add_endpoint(ProcessId::new(0, 0), protocol.clone(), "127.0.0.1:0")
            .unwrap();
        let server_addr = server.local_addr().unwrap();
        let clients: Vec<ReactorEndpoint> = (0..32)
            .map(|i| {
                let c = reactor
                    .add_endpoint(ProcessId::new(1, i), protocol.clone(), "127.0.0.1:0")
                    .unwrap();
                c.add_peer(server.id(), server_addr);
                server.add_peer(c.id(), c.local_addr().unwrap());
                c
            })
            .collect();
        let recvs: Vec<RecvOp> = (0..32)
            .map(|_| {
                server
                    .post_recv(ANY_SOURCE, Tag(5), 4096, TruncationPolicy::Error)
                    .unwrap()
            })
            .collect();
        let sends: Vec<SendOp> = clients
            .iter()
            .map(|c| send(c, server.id(), Tag(5), payload(1024)))
            .collect();
        for op in recvs {
            let done = wait(&server, OpId::Recv(op), T).expect("server recv timed out");
            assert_eq!(done.status, Status::Ok);
            assert_eq!(done.data.unwrap(), payload(1024));
        }
        for (c, op) in clients.iter().zip(sends) {
            assert!(
                wait(c, OpId::Send(op), T).is_some(),
                "client send timed out"
            );
        }
        assert_eq!(server.stats().recvs_completed, 32);
    }

    #[test]
    fn recv_timeout_returns_none() {
        let reactor = Reactor::new().unwrap();
        let (a, b) = pair(
            &reactor,
            ProtocolConfig::paper_internode(),
            &EndpointConfig::new(),
        );
        assert!(recv(&a, b.id(), Tag(9), 64, Duration::from_millis(100)).is_none());
    }

    #[test]
    fn wildcard_recv_into_over_reactor() {
        let reactor = Reactor::new().unwrap();
        let (a, b) = pair(
            &reactor,
            ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024),
            &EndpointConfig::new(),
        );
        let data = payload(8192);
        let op = b
            .post_recv_into(
                ANY_SOURCE,
                Tag(4),
                RecvBuf::with_capacity(8192),
                TruncationPolicy::Error,
            )
            .unwrap();
        send(&a, b.id(), Tag(4), data.clone());
        let done = wait(&b, OpId::Recv(op), T).expect("recv timed out");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.peer, a.id());
        assert_eq!(done.buf.unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn dropping_an_endpoint_leaves_the_reactor_serving_others() {
        let reactor = Reactor::new().unwrap();
        let protocol = ProtocolConfig::paper_internode();
        let (a, b) = pair(&reactor, protocol.clone(), &EndpointConfig::new());
        let c = reactor
            .add_endpoint(ProcessId::new(2, 0), protocol, "127.0.0.1:0")
            .unwrap();
        drop(c);
        let data = payload(2048);
        send(&a, b.id(), Tag(1), data.clone());
        assert_eq!(recv(&b, a.id(), Tag(1), 2048, T).unwrap(), data);
    }

    #[test]
    fn timer_wheel_fires_in_deadline_order_and_parks_far_deadlines() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        let ep = Weak::new();
        let near = TimerId {
            peer: ProcessId::new(0, 1),
            generation: 1,
        };
        let far = TimerId {
            peer: ProcessId::new(0, 2),
            generation: 7,
        };
        // `far` lands in the same slot as `near` but a full revolution
        // later: WHEEL_SLOTS ticks further out.
        wheel.insert(start + Duration::from_micros(TICK_US), ep.clone(), near);
        wheel.insert(
            start + Duration::from_micros(TICK_US * (1 + WHEEL_SLOTS as u64)),
            ep.clone(),
            far,
        );
        let mut fired = Vec::new();
        wheel.advance(start + Duration::from_micros(TICK_US * 3), &mut fired);
        assert_eq!(
            fired.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![near],
            "far deadline must survive the first revolution"
        );
        fired.clear();
        wheel.advance(
            start + Duration::from_micros(TICK_US * (WHEEL_SLOTS as u64 + 3)),
            &mut fired,
        );
        assert_eq!(fired.iter().map(|(_, t)| *t).collect::<Vec<_>>(), vec![far]);
    }

    #[test]
    fn timer_wheel_clamps_past_deadlines_to_next_pass() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        let mut fired = Vec::new();
        wheel.advance(start + Duration::from_micros(TICK_US * 100), &mut fired);
        assert!(fired.is_empty());
        // A deadline behind the cursor still fires on the next advance.
        let timer = TimerId {
            peer: ProcessId::new(0, 1),
            generation: 3,
        };
        wheel.insert(start, Weak::new(), timer);
        wheel.advance(start + Duration::from_micros(TICK_US * 101), &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, timer);
    }
}
