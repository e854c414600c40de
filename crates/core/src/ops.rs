//! The operations layer: typed operation handles, completions, and
//! caller-owned receive buffers.
//!
//! [`Endpoint::post_send`](crate::Endpoint::post_send) and
//! [`Endpoint::post_recv`](crate::Endpoint::post_recv) return [`SendOp`] /
//! [`RecvOp`] handles backed by a generation-checked slab (`OpTable`), so
//! issuing an operation never allocates in steady state and a handle reused
//! after completion is detected instead of silently aliasing a newer
//! operation.  Completions are reported through a per-endpoint completion
//! queue ([`Completion`] records drained with
//! [`Endpoint::poll_completion`](crate::Endpoint::poll_completion)),
//! **separate** from the backend-facing [`Action`](crate::Action) stream:
//! backends route packets, applications consume completions.
//!
//! Receives additionally support:
//!
//! * **caller-owned buffers** ([`RecvBuf`], posted with
//!   [`Endpoint::post_recv_into`](crate::Endpoint::post_recv_into)): the
//!   engine reassembles pushed and pulled fragments directly into the
//!   caller's storage and hands the buffer back in the completion, making
//!   even the multi-fragment pull path allocation-free;
//! * **wildcard matching** ([`ANY_SOURCE`](crate::types::ANY_SOURCE) /
//!   [`ANY_TAG`](crate::types::ANY_TAG));
//! * **cancellation** ([`Endpoint::cancel`](crate::Endpoint::cancel)) and
//!   **truncation policies** ([`TruncationPolicy`]) for receives smaller
//!   than the arriving message.

use crate::error::Error;
use crate::queues::merge_interval;
use crate::types::{ProcessId, Tag};
use bytes::Bytes;
use ppmsg_check::sync::atomic::{AtomicUsize, Ordering};
use ppmsg_check::sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::task::Waker;

/// Handle of a posted send operation.
///
/// Identifies one in-flight send until its [`Completion`] is produced; the
/// pair `(slot, generation)` is generation-checked, so a handle held past
/// completion can never be confused with a newer operation that reuses the
/// same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SendOp {
    slot: u32,
    generation: u32,
}

/// Handle of a posted receive operation.
///
/// See [`SendOp`] for the generation-checking rationale.  A `RecvOp` can be
/// cancelled with [`Endpoint::cancel`](crate::Endpoint::cancel) while it is
/// still unmatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecvOp {
    slot: u32,
    generation: u32,
}

macro_rules! op_impl {
    ($ty:ident, $prefix:literal) => {
        impl $ty {
            /// Reconstructs a handle from its raw parts.  Intended for tests,
            /// benchmarks, and backends that index per-operation state by
            /// slot; handles used with an engine must originate from it.
            #[inline]
            pub fn from_raw(slot: u32, generation: u32) -> Self {
                Self { slot, generation }
            }

            /// The dense slab slot of this operation.  Slots are reused after
            /// completion, so a slot alone does not identify an operation —
            /// always pair it with [`Self::generation`].
            #[inline]
            pub fn slot(&self) -> u32 {
                self.slot
            }

            /// The generation the slot had when this operation was issued.
            #[inline]
            pub fn generation(&self) -> u32 {
                self.generation
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}.{}"), self.slot, self.generation)
            }
        }
    };
}

op_impl!(SendOp, "send");
op_impl!(RecvOp, "recv");

/// Either kind of operation handle, as carried by a [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpId {
    /// A send operation.
    Send(SendOp),
    /// A receive operation.
    Recv(RecvOp),
}

impl From<SendOp> for OpId {
    fn from(op: SendOp) -> Self {
        OpId::Send(op)
    }
}

impl From<RecvOp> for OpId {
    fn from(op: RecvOp) -> Self {
        OpId::Recv(op)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpId::Send(op) => op.fmt(f),
            OpId::Recv(op) => op.fmt(f),
        }
    }
}

/// What a posted receive does when the arriving message is larger than its
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TruncationPolicy {
    /// The receive completes with [`Status::Error`] carrying
    /// [`Error::ReceiveTooSmall`]; the message itself is **unharmed** and
    /// stays queued as unexpected, so the next adequate receive gets it in
    /// full.  (The seed dropped the message's partial state instead, which
    /// poisoned it: a later big-enough receive would hang forever waiting for
    /// the discarded eager prefix.)
    #[default]
    Error,
    /// The receive accepts the message and completes with
    /// [`Status::Truncated`], delivering the first `capacity` bytes; the
    /// remainder is discarded on delivery.
    Truncate,
}

/// Terminal status of an operation, as reported in its [`Completion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The operation completed normally.
    Ok,
    /// The receive completed but the message was larger than the posted
    /// buffer; only the first `capacity` bytes were delivered
    /// ([`TruncationPolicy::Truncate`]).
    Truncated {
        /// Full length of the message in bytes (the completion's `len` field
        /// holds the number of bytes actually delivered).
        message_len: usize,
    },
    /// The receive was cancelled before it matched a message.
    Cancelled,
    /// The operation failed.
    Error(Error),
}

impl Status {
    /// `true` for [`Status::Ok`].
    #[inline]
    pub fn is_ok(&self) -> bool {
        matches!(self, Status::Ok)
    }
}

/// One completed operation, drained from the endpoint's completion queue.
#[derive(Debug)]
pub struct Completion {
    /// The operation this completion belongs to.
    pub op: OpId,
    /// The remote process: destination for sends, message source for
    /// receives.  For a cancelled receive this echoes the posted selector
    /// (which may be [`ANY_SOURCE`](crate::types::ANY_SOURCE)).
    pub peer: ProcessId,
    /// The message tag (the posted selector for cancelled receives).
    pub tag: Tag,
    /// Bytes transferred: the message length for sends and complete
    /// receives, the delivered prefix for truncated receives, `0` for
    /// cancelled or failed operations.
    pub len: usize,
    /// How the operation ended.
    pub status: Status,
    /// The message bytes of an engine-buffered receive
    /// ([`Endpoint::post_recv`](crate::Endpoint::post_recv)).  `None` for
    /// sends and caller-buffered receives.
    pub data: Option<Bytes>,
    /// The caller-owned buffer of a
    /// [`post_recv_into`](crate::Endpoint::post_recv_into) receive, handed
    /// back for reuse (also on cancellation and failure).
    pub buf: Option<RecvBuf>,
}

impl Completion {
    /// The delivered message bytes of a receive completion, regardless of
    /// whether the receive was engine-buffered or caller-buffered.
    pub fn payload(&self) -> Option<&[u8]> {
        match (&self.data, &self.buf) {
            (Some(data), _) => Some(&data[..]),
            (None, Some(buf)) => Some(buf.as_slice()),
            (None, None) => None,
        }
    }
}

/// A caller-owned destination buffer for
/// [`post_recv_into`](crate::Endpoint::post_recv_into).
///
/// The engine reassembles the message's pushed and pulled fragments directly
/// into this storage — no engine-side assembly buffer, no owned-`Bytes`
/// handoff — and returns the buffer in the [`Completion`].  Reusing one
/// `RecvBuf` across receives makes the pull path allocation-free in steady
/// state.
///
/// A buffer smaller than the arriving message behaves according to the
/// posted [`TruncationPolicy`].
#[derive(Debug, Default)]
pub struct RecvBuf {
    /// Caller storage; `data.len()` is the capacity of the receive.
    data: Vec<u8>,
    /// Sorted, disjoint covered `[start, end)` intervals over the *message*
    /// range `[0, total)` (which may exceed the capacity when truncating).
    covered: Vec<(usize, usize)>,
    received: usize,
    total: usize,
}

impl RecvBuf {
    /// Creates a buffer able to receive messages of up to `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        RecvBuf {
            data: vec![0u8; capacity],
            covered: Vec::new(),
            received: 0,
            total: 0,
        }
    }

    /// Wraps caller storage; the vector's length is the receive capacity.
    pub fn from_vec(data: Vec<u8>) -> Self {
        RecvBuf {
            data,
            covered: Vec::new(),
            received: 0,
            total: 0,
        }
    }

    /// The receive capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Number of message bytes present after a completed receive
    /// (`min(message length, capacity)`).
    #[inline]
    pub fn len(&self) -> usize {
        self.total.min(self.data.len())
    }

    /// `true` when no message bytes are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The delivered message bytes (valid after the completion).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        let len = self.len();
        &self.data[..len]
    }

    /// Unwraps the underlying storage.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Re-initialises the buffer for a message of `total` bytes, keeping the
    /// interval list's capacity.
    pub(crate) fn begin(&mut self, total: usize) {
        self.covered.clear();
        self.received = 0;
        self.total = total;
    }

    /// Records a fragment at `offset` in the message, copying the bytes that
    /// fit below the capacity and counting coverage over the full message
    /// range.  Returns the number of newly covered message bytes.
    pub(crate) fn write_at(&mut self, offset: usize, fragment: &[u8]) -> usize {
        if offset >= self.total || fragment.is_empty() {
            return 0;
        }
        let end = (offset + fragment.len()).min(self.total);
        let copy_end = end.min(self.data.len());
        if offset < copy_end {
            self.data[offset..copy_end].copy_from_slice(&fragment[..copy_end - offset]);
        }
        let newly = merge_interval(&mut self.covered, offset, end);
        self.received += newly;
        newly
    }

    /// `true` once every byte of the message range has been received.
    pub(crate) fn is_complete(&self) -> bool {
        self.received == self.total
    }
}

/// A generation-checked slab of in-flight operations.
///
/// Issuing an operation pops a recycled slot (or grows the arena once, at
/// peak working-set size); completing it bumps the slot's generation so any
/// held handle goes stale.  Steady-state post/complete cycles never allocate;
/// growth is counted in [`OpTable::alloc_events`].
#[derive(Debug)]
pub(crate) struct OpTable<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
    alloc_events: u64,
}

impl<T> Default for OpTable<T> {
    fn default() -> Self {
        OpTable {
            slots: Vec::new(),
            free: Vec::new(),
            alloc_events: 0,
        }
    }
}

impl<T> OpTable<T> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, returning `(slot, generation)`.
    pub(crate) fn insert(&mut self, value: T) -> (u32, u32) {
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot as usize];
            debug_assert!(entry.1.is_none());
            entry.1 = Some(value);
            return (slot, entry.0);
        }
        if self.slots.len() == self.slots.capacity() {
            self.alloc_events += 1;
        }
        let slot = self.slots.len() as u32;
        self.slots.push((0, Some(value)));
        (slot, 0)
    }

    pub(crate) fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut T> {
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.0 != generation {
            return None;
        }
        entry.1.as_mut()
    }

    /// Removes the operation, bumping the slot generation so the handle goes
    /// stale, and recycles the slot.
    pub(crate) fn remove(&mut self, slot: u32, generation: u32) -> Option<T> {
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.0 != generation {
            return None;
        }
        let value = entry.1.take()?;
        entry.0 = entry.0.wrapping_add(1);
        if self.free.len() == self.free.capacity() {
            self.alloc_events += 1;
        }
        self.free.push(slot);
        Some(value)
    }

    /// Number of live operations.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of heap allocations this table has performed.
    pub(crate) fn alloc_events(&self) -> u64 {
        self.alloc_events
    }
}

/// One kind's waker slots: `slot → [(generation, waker)]`.
///
/// Storage is slot-indexed like the operation tables, but each slot holds a
/// (tiny) generation-keyed **list**, not a single latest-wins entry: the
/// operation tables recycle a slot the moment its operation retires, so a
/// waiter of an older, still-unclaimed completion and a waiter of the newer
/// operation that reused the slot must both keep their registrations — a
/// latest-wins slot silently dropped the older waiter's eviction exemption,
/// letting the retention cap evict an awaited completion into a
/// forever-pending future (caught by the retention proptest).  List
/// capacity is retained across take/re-register churn, so the steady path
/// stays allocation-free; every registration has a deterministic removal
/// (claim, future drop, or wait timeout), which bounds the lists by the
/// number of live waiters.
#[derive(Debug, Default)]
struct WakerSlots {
    slots: Vec<Vec<(u32, Registration)>>,
    registered: usize,
    alloc_events: u64,
}

/// One waiter registration: either a bare eviction-exemption *interest* (a
/// blocking path that re-checks on its own, or a future not yet polled) or
/// a real [`Waker`] to invoke on publication.
///
/// Interest used to be encoded as a registered `Waker::noop()` and detected
/// with `will_wake(Waker::noop())` — but the noop waker's vtable is
/// const-promoted **per crate**, so a noop registered through code
/// instantiated in one crate does not `will_wake`-match a `Waker::noop()`
/// conjured in another, and the detection silently failed across the crate
/// boundary.  An explicit variant cannot mis-compare.
#[derive(Debug)]
enum Registration {
    /// Eviction exemption only: nothing to wake on publication.
    Interest,
    /// A task's waker, invoked when the completion is published.
    Waker(Waker),
}

impl Registration {
    fn waker(&self) -> Option<&Waker> {
        match self {
            Registration::Interest => None,
            Registration::Waker(waker) => Some(waker),
        }
    }
}

impl WakerSlots {
    /// Finds the entry for `(slot, generation)`, creating storage up to
    /// `slot` on first touch.
    fn entry_mut(&mut self, slot: u32, generation: u32) -> Option<&mut Registration> {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            if idx >= self.slots.capacity() {
                self.alloc_events += 1;
            }
            self.slots.resize_with(idx + 1, Vec::new);
        }
        self.slots[idx]
            .iter_mut()
            .find(|(gen, _)| *gen == generation)
            .map(|(_, registration)| registration)
    }

    fn insert(&mut self, slot: u32, generation: u32, registration: Registration) {
        let entries = &mut self.slots[slot as usize];
        if entries.len() == entries.capacity() {
            self.alloc_events += 1;
        }
        entries.push((generation, registration));
        self.registered += 1;
    }

    fn register(&mut self, slot: u32, generation: u32, waker: &Waker) {
        match self.entry_mut(slot, generation) {
            // Re-registration for the same operation: latest waker wins, and
            // `will_wake` (same task on a spurious poll) skips the clone.
            Some(Registration::Waker(existing)) if existing.will_wake(waker) => {}
            Some(registration) => *registration = Registration::Waker(waker.clone()),
            None => self.insert(slot, generation, Registration::Waker(waker.clone())),
        }
    }

    /// Registers a bare interest, never downgrading a real waker.
    fn register_interest(&mut self, slot: u32, generation: u32) {
        if self.entry_mut(slot, generation).is_none() {
            self.insert(slot, generation, Registration::Interest);
        }
    }

    fn take(&mut self, slot: u32, generation: u32) -> Option<Registration> {
        let entries = self.slots.get_mut(slot as usize)?;
        let pos = entries.iter().position(|(gen, _)| *gen == generation)?;
        self.registered -= 1;
        // Wake order across operations is driven by completion publication;
        // within a slot, swap_remove is fine (and keeps the capacity).
        Some(entries.swap_remove(pos).1)
    }

    fn get(&self, slot: u32, generation: u32) -> Option<&Registration> {
        self.slots
            .get(slot as usize)?
            .iter()
            .find(|(gen, _)| *gen == generation)
            .map(|(_, registration)| registration)
    }
}

/// Async wakers of in-flight operations, keyed by op slot + generation.
///
/// Backends park a task's [`Waker`] here when the operation it awaits has not
/// completed yet, and take it back out (to wake) when the completion is
/// published.  Storage is slot-indexed like the operation tables themselves
/// (each slot holding a tiny generation-keyed list, so waiters of an old
/// unclaimed completion and of the newer operation reusing its slot
/// coexist); registering and taking are O(1) and allocation-free once the
/// table has grown to the endpoint's peak number of concurrent operations,
/// and the generation key makes a waker registered for a retired operation
/// unreachable — a slot reuse can never wake (or be woken by) a stale task.
#[derive(Debug, Default)]
pub struct WakerTable {
    send: WakerSlots,
    recv: WakerSlots,
}

impl WakerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `waker` to be taken when operation `op` completes,
    /// replacing any waker (or bare interest) previously registered for the
    /// same operation.  Steady-state re-registration (same op, same task)
    /// is free.
    pub fn register_waker(&mut self, op: OpId, waker: &Waker) {
        match op {
            OpId::Send(s) => self.send.register(s.slot(), s.generation(), waker),
            OpId::Recv(r) => self.recv.register(r.slot(), r.generation(), waker),
        }
    }

    /// Registers a bare eviction-exemption interest for `op` — no waker to
    /// invoke on publication.  A real waker already registered is left in
    /// place.
    pub fn register_interest(&mut self, op: OpId) {
        match op {
            OpId::Send(s) => self.send.register_interest(s.slot(), s.generation()),
            OpId::Recv(r) => self.recv.register_interest(r.slot(), r.generation()),
        }
    }

    /// Removes `op`'s registration, returning its waker if the registration
    /// carried one (`None` for bare interests and stale handles).
    pub fn take_waker(&mut self, op: OpId) -> Option<Waker> {
        let registration = match op {
            OpId::Send(s) => self.send.take(s.slot(), s.generation()),
            OpId::Recv(r) => self.recv.take(r.slot(), r.generation()),
        }?;
        match registration {
            Registration::Interest => None,
            Registration::Waker(waker) => Some(waker),
        }
    }

    /// The waker registered for `op`, if any, left in place (`None` for
    /// bare interests).
    pub fn get_waker(&self, op: OpId) -> Option<&Waker> {
        self.get(op).and_then(Registration::waker)
    }

    fn get(&self, op: OpId) -> Option<&Registration> {
        match op {
            OpId::Send(s) => self.send.get(s.slot(), s.generation()),
            OpId::Recv(r) => self.recv.get(r.slot(), r.generation()),
        }
    }

    /// `true` when any registration — real waker or bare interest — is held
    /// for `op`.
    pub fn has_registration(&self, op: OpId) -> bool {
        self.get(op).is_some()
    }

    /// Number of registrations currently held (wakers and bare interests,
    /// including any stale ones whose slot has not been reused yet).
    pub fn len(&self) -> usize {
        self.send.registered + self.recv.registered
    }

    /// `true` when no waker is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of heap allocations this table has performed.
    pub fn alloc_events(&self) -> u64 {
        self.send.alloc_events + self.recv.alloc_events
    }
}

/// One kind's completion slots: `slot → [(generation, completion)]`.
///
/// A slot usually holds at most one unclaimed completion, but the operation
/// tables recycle a slot the moment its operation retires, so a *newer*
/// operation on the same slot can complete while an older completion is
/// still unclaimed — each slot is therefore a (tiny) generation-keyed list,
/// whose capacity is retained across claims so steady-state churn stays
/// allocation-free.
#[derive(Debug, Default)]
struct CompletionSlots {
    slots: Vec<Vec<(u32, Completion)>>,
    alloc_events: u64,
}

impl CompletionSlots {
    fn insert(&mut self, slot: u32, generation: u32, completion: Completion) {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            if idx >= self.slots.capacity() {
                self.alloc_events += 1;
            }
            self.slots.resize_with(idx + 1, Vec::new);
        }
        let entries = &mut self.slots[idx];
        debug_assert!(
            entries.iter().all(|(gen, _)| *gen != generation),
            "duplicate completion for live operation"
        );
        if entries.len() == entries.capacity() {
            self.alloc_events += 1;
        }
        entries.push((generation, completion));
    }

    fn take(&mut self, slot: u32, generation: u32) -> Option<Completion> {
        let entries = self.slots.get_mut(slot as usize)?;
        let pos = entries.iter().position(|(gen, _)| *gen == generation)?;
        // Order across operations is tracked by the queue's `order` deque;
        // within a slot, swap_remove is fine.
        Some(entries.swap_remove(pos).1)
    }

    fn get(&self, slot: u32, generation: u32) -> Option<&Completion> {
        self.slots
            .get(slot as usize)?
            .iter()
            .find(|(gen, _)| *gen == generation)
            .map(|(_, completion)| completion)
    }

    fn contains(&self, slot: u32, generation: u32) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|entries| entries.iter().any(|(gen, _)| *gen == generation))
    }
}

/// Default number of unclaimed completions a [`CompletionQueue`] retains
/// before evicting the oldest.
pub const DEFAULT_COMPLETION_RETENTION: usize = 4096;

/// Outcome of one [`CompletionQueue::take_or_wait`] step.
#[derive(Debug)]
pub enum WaitPoll {
    /// The operation had finished; its completion was claimed.
    Ready(Completion),
    /// Not finished yet; the caller's waker is registered (replacing only a
    /// noop interest or the caller's own previous registration) and will be
    /// woken on publication.
    Registered,
    /// Another task's real waker is registered for this operation; nothing
    /// was claimed or changed.  The caller should yield and re-poll — the
    /// registered waiter has priority on the completion.
    Occupied,
}

/// What a [`CompletionQueue::peek_each`] inspector decides about one
/// completion it was shown by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Leave the completion queued (its drain position is preserved): a
    /// later [`CompletionQueue::take`], drain, or `wait` can still claim it
    /// and move its `Bytes`/[`RecvBuf`] out.  This is the telemetry path —
    /// look, count, never touch ownership.
    Keep,
    /// Consume the completion: it is removed from the queue and dropped
    /// (dropping releases any `Bytes` refcount or [`RecvBuf`] it carried).
    /// Use this to retire fire-and-forget results whose status has been
    /// inspected, without materialising them through a drain vector.
    Remove,
}

/// The backend-side completion queue of one endpoint: completed operations
/// indexed by their handle, plus the [`WakerTable`] of tasks awaiting them.
///
/// This replaces the linearly-scanned `done` vector the host backends used
/// to keep: claiming one operation's completion ([`CompletionQueue::take`])
/// is an O(1) slot probe instead of an O(n) scan-and-shift, so a
/// long-running endpoint with many unclaimed completions (fire-and-forget
/// sends) no longer degrades every `wait` — the retention scan that made
/// such endpoints O(n²) is gone.
///
/// Completions that are *never* claimed are evicted once more than the
/// retention cap ([`CompletionQueue::set_retention`], default
/// [`DEFAULT_COMPLETION_RETENTION`]) are outstanding, oldest first, so a
/// fire-and-forget workload cannot grow the queue without bound.  Claimed or
/// drained completions never count against the cap.
#[derive(Debug)]
pub struct CompletionQueue {
    send: CompletionSlots,
    recv: CompletionSlots,
    /// Insertion order for FIFO draining and oldest-first eviction.  Entries
    /// whose completion was already taken are stale and skipped (and the
    /// deque is compacted when stale entries dominate).
    order: VecDeque<OpId>,
    live: usize,
    retention: usize,
    evicted: u64,
    wakers: WakerTable,
    /// Recycled buffer for the wakers a `publish` batch collects, so the
    /// caller can wake them *after* releasing the lock guarding this queue
    /// without allocating per batch.
    wake_scratch: Vec<Waker>,
    alloc_events: u64,
}

impl Default for CompletionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CompletionQueue {
    /// Creates an empty queue with the default retention cap.
    pub fn new() -> Self {
        CompletionQueue {
            send: CompletionSlots::default(),
            recv: CompletionSlots::default(),
            order: VecDeque::new(),
            live: 0,
            retention: DEFAULT_COMPLETION_RETENTION,
            evicted: 0,
            wakers: WakerTable::new(),
            wake_scratch: Vec::new(),
            alloc_events: 0,
        }
    }

    /// Caps the number of unclaimed completions retained; the oldest are
    /// evicted (and counted in [`CompletionQueue::evicted`]) beyond it.
    pub fn set_retention(&mut self, retention: usize) {
        self.retention = retention.max(1);
        self.evict_over_cap();
    }

    /// Number of completions evicted because they were never claimed.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of completions currently waiting to be claimed.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no completion is waiting.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn is_live(&self, op: OpId) -> bool {
        match op {
            OpId::Send(s) => self.send.contains(s.slot(), s.generation()),
            OpId::Recv(r) => self.recv.contains(r.slot(), r.generation()),
        }
    }

    fn take_slot(&mut self, op: OpId) -> Option<Completion> {
        match op {
            OpId::Send(s) => self.send.take(s.slot(), s.generation()),
            OpId::Recv(r) => self.recv.take(r.slot(), r.generation()),
        }
    }

    /// Evicts oldest-first past the retention cap, **skipping any operation
    /// a waiter has registered for**: a registered waker marks the
    /// completion as spoken for (futures register from creation /
    /// first-`Pending` poll, blocking `wait`ers via
    /// [`CompletionQueue::register_interest`], and registrations persist
    /// until the completion is claimed), so eviction can never strand a
    /// waiter on an operation that completed.  Only completions nobody
    /// waits for — the fire-and-forget traffic the cap exists for — are
    /// dropped.  Exempt completions are bounded by the waker table (one
    /// registration per live waiter, each removed at claim, future drop, or
    /// wait timeout), so the queue stays bounded by
    /// `retention + concurrently awaited operations`.
    ///
    /// The loop only runs while evictable (non-exempt) entries are
    /// guaranteed to exist (`live > retention + registrations`), so the
    /// all-exempt steady state — a large async fan-out — costs O(1) per
    /// push instead of rescanning the deque.
    fn evict_over_cap(&mut self) {
        let mut scan = self.order.len();
        while self.live > self.retention + self.wakers.len() && scan > 0 {
            scan -= 1;
            let Some(op) = self.order.pop_front() else {
                break;
            };
            if !self.is_live(op) {
                continue; // stale entry: already claimed
            }
            if self.wakers.has_registration(op) {
                // Awaited: exempt, keep its drain position at the back.
                if self.order.len() == self.order.capacity() {
                    self.alloc_events += 1;
                }
                self.order.push_back(op);
                continue;
            }
            self.take_slot(op);
            self.live -= 1;
            self.evicted += 1;
        }
    }

    /// Marks `op` as waited-on without supplying a real waker: its
    /// completion (present or future) becomes exempt from retention
    /// eviction until claimed.  Blocking `wait` paths call this before
    /// parking on a condvar — they re-check on every publish, so they need
    /// the exemption, not a wake — and futures call it at creation so a
    /// completion cannot be evicted before their first poll.  A real waker
    /// already registered for the operation is left untouched, and the
    /// generation ordering in the waker table makes a stale handle's
    /// interest harmless to the slot's current occupant.
    pub fn register_interest(&mut self, op: OpId) {
        self.wakers.register_interest(op);
    }

    /// Drops a [`CompletionQueue::register_interest`] registration for `op`
    /// if one is still in place (a real waker registered by a future is left
    /// alone).  Blocking `wait` paths call this when they give up on a
    /// timeout, so an abandoned wait does not leave its completion exempt
    /// from eviction — and undrainable — forever.
    pub fn clear_interest(&mut self, op: OpId) {
        if matches!(self.wakers.get(op), Some(Registration::Interest)) {
            drop(self.wakers.take_waker(op));
        }
    }

    /// Drops **any** waker registered for `op` — noop interest or a real
    /// waker alike.  A future that abandons its await (is dropped before
    /// resolving) calls this so the operation's completion goes back to
    /// being ordinary fire-and-forget traffic: drainable through
    /// [`CompletionQueue::drain_into`] and evictable past the retention
    /// cap, instead of pinned for a waiter that no longer exists.
    pub fn deregister(&mut self, op: OpId) {
        drop(self.wakers.take_waker(op));
    }

    /// Stores one completion and returns a clone of the waker of the task
    /// awaiting it, if any.  The caller must `wake()` it **after releasing
    /// whatever lock guards this queue** — an arbitrary executor's waker may
    /// poll inline, which would re-enter the lock.  The registration itself
    /// stays in the table until the completion is claimed, keeping the
    /// operation exempt from retention eviction for the whole wake → poll →
    /// claim window.
    pub fn push(&mut self, completion: Completion) -> Option<Waker> {
        let op = completion.op;
        match op {
            OpId::Send(s) => self.send.insert(s.slot(), s.generation(), completion),
            OpId::Recv(r) => self.recv.insert(r.slot(), r.generation(), completion),
        }
        if self.order.len() == self.order.capacity() {
            self.alloc_events += 1;
        }
        self.order.push_back(op);
        self.live += 1;
        self.evict_over_cap();
        // A noop registration is an eviction exemption
        // ([`CompletionQueue::register_interest`]), not a waiter: waking it
        // would make every fire-and-forget completion pay the wake path.
        self.wakers.get_waker(op).cloned()
    }

    /// Stores a batch of completions, draining `comps` (its capacity is kept
    /// for reuse).  Returns the wakers of every task that awaited one of
    /// them; the caller must invoke them **after releasing the lock guarding
    /// this queue**, then hand the buffer back through
    /// [`CompletionQueue::recycle_woken`] so the steady path stays
    /// allocation-free.  An empty return means nothing to wake (and nothing
    /// to recycle).
    #[must_use = "returned wakers must be woken after the queue's lock is released"]
    pub fn publish(&mut self, comps: &mut Vec<Completion>) -> Vec<Waker> {
        let mut woken = std::mem::take(&mut self.wake_scratch);
        for completion in comps.drain(..) {
            if let Some(waker) = self.push(completion) {
                if woken.len() == woken.capacity() {
                    self.alloc_events += 1;
                }
                woken.push(waker);
            }
        }
        if woken.is_empty() {
            // Nothing to wake: keep the scratch (and its capacity) in place.
            self.wake_scratch = woken;
            return Vec::new();
        }
        woken
    }

    /// Returns a drained wake buffer from [`CompletionQueue::publish`] so
    /// its capacity is reused by the next batch.
    pub fn recycle_woken(&mut self, woken: Vec<Waker>) {
        debug_assert!(woken.is_empty(), "recycled wake buffer must be drained");
        if woken.capacity() > self.wake_scratch.capacity() {
            self.wake_scratch = woken;
        }
    }

    /// Claims the completion of `op`, if the operation has finished and its
    /// completion has not been claimed, drained, or evicted yet.  Any waker
    /// still registered for the operation is dropped — the await is over.
    pub fn take(&mut self, op: OpId) -> Option<Completion> {
        let completion = self.take_slot(op)?;
        drop(self.wakers.take_waker(op));
        self.live -= 1;
        // Taking leaves a stale entry in `order`.  With nothing left to
        // claim every entry is stale: forget them all at once (the entries
        // are `Copy`, so this is O(1)) — the uncontended claim never
        // compacts.  Otherwise compact once stale entries outnumber live
        // ones so the deque stays proportional to the live set (amortized
        // O(1) per take).
        if self.live == 0 {
            self.order.clear();
        } else if self.order.len() > 64 && self.order.len() >= 2 * self.live {
            let mut retained = std::mem::take(&mut self.order);
            retained.retain(|&op| self.is_live(op));
            self.order = retained;
        }
        Some(completion)
    }

    /// [`CompletionQueue::take`], registering `waker` to be woken when the
    /// operation completes if it has not yet.  Checking and registering are
    /// one atomic step from the caller's point of view (this method runs
    /// under the caller's lock), so a completion can never slip between a
    /// failed check and the registration — the lost-wakeup race of the
    /// check-then-register idiom cannot happen.
    pub fn take_or_register(&mut self, op: OpId, waker: &Waker) -> Option<Completion> {
        if let Some(completion) = self.take(op) {
            return Some(completion);
        }
        self.wakers.register_waker(op, waker);
        None
    }

    /// The polite variant of [`CompletionQueue::take_or_register`] for
    /// *secondary* waiters (a blocking wait racing a live future): it never
    /// claims a completion out from under — and never displaces the
    /// registration of — another task registered for `op`.  Any existing
    /// registration that is not this `waker`'s own — a future's real waker
    /// **or** its bare [`CompletionQueue::register_interest`] (only futures
    /// register interest) — leaves the operation untouched and returns
    /// [`WaitPoll::Occupied`], so the registered waiter keeps its wakeup,
    /// its eviction exemption, and its claim.
    pub fn take_or_wait(&mut self, op: OpId, waker: &Waker) -> WaitPoll {
        match self.wakers.get(op) {
            Some(Registration::Interest) => return WaitPoll::Occupied,
            Some(Registration::Waker(w)) if !w.will_wake(waker) => return WaitPoll::Occupied,
            _ => {}
        }
        if let Some(completion) = self.take(op) {
            return WaitPoll::Ready(completion);
        }
        self.wakers.register_waker(op, waker);
        WaitPoll::Registered
    }

    /// Withdraws a [`CompletionQueue::take_or_wait`] registration, touching
    /// nothing unless the registered waker is `waker` itself — an expiring
    /// blocking wait must not tear down a registration that meanwhile went
    /// to another task.
    pub fn deregister_waiter(&mut self, op: OpId, waker: &Waker) {
        if self
            .wakers
            .get_waker(op)
            .is_some_and(|w| w.will_wake(waker))
        {
            drop(self.wakers.take_waker(op));
        }
    }

    /// Appends every unclaimed, **unawaited** completion to `out`, oldest
    /// first, reusing `out`'s capacity.  A completion some waiter has
    /// registered for (a parked future or a blocking `wait`) is left in
    /// place — a concurrent drain loop must not steal a result out from
    /// under a task that would then pend forever.
    pub fn drain_into(&mut self, out: &mut Vec<Completion>) {
        for _ in 0..self.order.len() {
            let Some(op) = self.order.pop_front() else {
                break;
            };
            if !self.is_live(op) {
                continue; // stale entry: already claimed
            }
            if self.wakers.has_registration(op) {
                // Awaited: keep it (and its drain position) for the waiter.
                if self.order.len() == self.order.capacity() {
                    self.alloc_events += 1;
                }
                self.order.push_back(op);
                continue;
            }
            let completion = self.take_slot(op).expect("live entry has a completion");
            self.live -= 1;
            out.push(completion);
        }
    }

    /// Shows every unclaimed, **unawaited** completion to `f` by reference,
    /// oldest first — the borrowed counterpart of
    /// [`CompletionQueue::drain_into`]: nothing is moved, so a multi-fragment
    /// pulled receive can be inspected (status, peer, payload bytes) without
    /// its [`RecvBuf`] or `Bytes` ever leaving the queue.  `f` returns a
    /// [`Claim`] per completion: [`Claim::Keep`] preserves it (and its drain
    /// position), [`Claim::Remove`] consumes and drops it.
    ///
    /// Completions a waiter has registered for (a parked future or a
    /// blocking `wait`) are skipped entirely, exactly as in `drain_into` — an
    /// inspector must not observe, and can certainly not remove, a result
    /// that is spoken for.
    pub fn peek_each(&mut self, f: &mut dyn FnMut(&Completion) -> Claim) {
        for _ in 0..self.order.len() {
            let Some(op) = self.order.pop_front() else {
                break;
            };
            if !self.is_live(op) {
                continue; // stale entry: already claimed
            }
            if self.wakers.has_registration(op) {
                // Awaited: keep it (and its drain position) for the waiter.
                if self.order.len() == self.order.capacity() {
                    self.alloc_events += 1;
                }
                self.order.push_back(op);
                continue;
            }
            let completion = match op {
                OpId::Send(s) => self.send.get(s.slot(), s.generation()),
                OpId::Recv(r) => self.recv.get(r.slot(), r.generation()),
            }
            .expect("live entry has a completion");
            match f(completion) {
                Claim::Keep => {
                    if self.order.len() == self.order.capacity() {
                        self.alloc_events += 1;
                    }
                    self.order.push_back(op);
                }
                Claim::Remove => {
                    drop(self.take_slot(op));
                    self.live -= 1;
                }
            }
        }
    }

    /// Number of heap allocations this queue (including its waker table) has
    /// performed.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
            + self.send.alloc_events
            + self.recv.alloc_events
            + self.wakers.alloc_events()
    }

    /// Number of waiter registrations currently held — real wakers and bare
    /// eviction-exemption interests alike.  A multi-producer
    /// [`CompletionMailbox`] reads this after every queue access to decide
    /// whether a producer must take the publication lock at all.
    pub fn waiters(&self) -> usize {
        self.wakers.len()
    }
}

/// Invokes a [`CompletionQueue::publish`] wake batch **outside** the lock
/// that guards the queue, then hands the drained buffer to `recycle` (which
/// should briefly re-take the lock and call
/// [`CompletionQueue::recycle_woken`]).  Centralises the
/// publish → unlock → wake → recycle protocol all backends must follow: a
/// waker is arbitrary executor code and may legally poll — and so re-enter
/// the endpoint — inline.  No-op (and no lock retaken) for empty batches.
pub fn wake_all<F: FnOnce(Vec<Waker>)>(mut woken: Vec<Waker>, recycle: F) {
    if woken.is_empty() {
        return;
    }
    for waker in woken.drain(..) {
        waker.wake();
    }
    recycle(woken);
}

/// Fault-injection knobs for the model-check harnesses.  Each knob
/// deliberately reintroduces a historical bug class into the mailbox
/// handshake, which only multi-producer mailboxes run (harnesses must use
/// two producers or more); the `--cfg ppmsg_check` CI job asserts the model
/// checker catches every one within the preemption bound (teeth for the
/// teeth).
/// Compiled only under `--cfg ppmsg_check`; knobs are plain process-global
/// flags, so harnesses that flip them must serialize.
#[cfg(ppmsg_check)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Downgrade the two-flag `pending`/`waiters` handshake from `SeqCst` to
    /// `Relaxed`, and split the producer's `pending` bump into a plain
    /// load+store.  Under the model's store-buffer semantics both sides can
    /// then miss each other's flag — the classic Dekker reordering — and a
    /// consumer parks forever.
    pub static WEAK_FLAGS: AtomicBool = AtomicBool::new(false);
    /// Drop the consumer half of the handshake: `with` skips its post-unlock
    /// `pending` re-check, so a producer that loaded a stale zero `waiters`
    /// snapshot leaves a registered waker unserved.
    pub static SKIP_RECHECK: AtomicBool = AtomicBool::new(false);

    pub(super) fn weak_flags() -> bool {
        WEAK_FLAGS.load(Ordering::Relaxed)
    }

    pub(super) fn skip_recheck() -> bool {
        SKIP_RECHECK.load(Ordering::Relaxed)
    }

    /// Reset every knob (harnesses call this between variants).
    pub fn reset() {
        WEAK_FLAGS.store(false, Ordering::Relaxed);
        SKIP_RECHECK.store(false, Ordering::Relaxed);
    }
}

/// A [`CompletionQueue`] behind a publication path shaped by its producer
/// count.
///
/// **One producer** (every endpoint except a multi-shard
/// [`ShardedEngine`](crate::ShardedEngine)) means one locked queue: a
/// [`CompletionMailbox::post`] publishes straight into the queue under the
/// `inner` lock and wakes the readied waiters after unlocking, and
/// [`CompletionMailbox::with`] is that lock plus the caller's closure.  A
/// single producer never contends with another producer, so there is nothing
/// for an inbox to absorb and no handshake to run.
///
/// **Several producers** (the shards of a sharded engine, each completing
/// operations from its own routing threads) would otherwise serialize on
/// that one lock even when nobody waits, so publication is split in two:
///
/// * each producer appends its batch to its **own inbox** (one tiny lock per
///   producer, never contended across producers), and
/// * the shared queue is only locked to **sweep** the inboxes when a waiter
///   could be parked — publication with no registered waiter is a pure
///   inbox append, the fire-and-forget fast path.
///
/// There, [`CompletionMailbox::with`] sweeps pending inboxes into the queue
/// *before* running the caller's closure (a poll can never miss an
/// already-posted completion) and re-checks for a post-registration race
/// after releasing the lock.  The race is closed the classic two-flag way: a
/// producer advertises `pending` before loading `waiters`, a consumer
/// advertises `waiters` before re-loading `pending` (all `SeqCst`), so in
/// every interleaving at least one side observes the other and performs the
/// sweep-and-wake.
#[derive(Debug)]
pub struct CompletionMailbox {
    /// The inbox hand-off of a multi-producer mailbox; `None` for one
    /// producer, which publishes into the queue directly.
    handoff: Option<Handoff>,
    inner: Mutex<MailboxInner>,
}

/// Inboxes and the two-flag handshake of a multi-producer mailbox.
#[derive(Debug)]
struct Handoff {
    /// One inbox per producer (engine shard); a producer only ever locks its
    /// own.
    inboxes: Box<[Mutex<Vec<Completion>>]>,
    /// Completions posted to inboxes and not yet swept into the queue.
    pending: AtomicUsize,
    /// Snapshot of the queue's waiter-registration count, maintained by
    /// every queue access; producers skip the queue lock while it is zero.
    waiters: AtomicUsize,
}

#[derive(Debug)]
struct MailboxInner {
    queue: CompletionQueue,
    /// Sweep staging of a multi-producer mailbox: inbox batches are moved
    /// here (one memcpy per batch) and published in a single call, so one
    /// sweep produces one wake batch and the scratch capacities stabilise —
    /// the steady path allocates nothing.
    scratch: Vec<Completion>,
}

impl CompletionMailbox {
    /// A mailbox for `producers` producers in front of a fresh queue.
    pub fn new(producers: usize) -> Self {
        Self::with_queue(producers, CompletionQueue::new())
    }

    /// A mailbox for `producers` producers in front of `queue` (carrying the
    /// backend's retention configuration).  Only `producers > 1` builds
    /// inboxes.
    pub fn with_queue(producers: usize, queue: CompletionQueue) -> Self {
        let handoff = (producers > 1).then(|| Handoff {
            inboxes: (0..producers)
                .map(|_| Mutex::new("core.mailbox.inbox", Vec::new()))
                .collect(),
            pending: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
        });
        CompletionMailbox {
            handoff,
            inner: Mutex::new(
                "core.mailbox.inner",
                MailboxInner {
                    queue,
                    scratch: Vec::new(),
                },
            ),
        }
    }

    /// Number of producers this mailbox serves.
    pub fn producers(&self) -> usize {
        self.handoff.as_ref().map_or(1, |h| h.inboxes.len())
    }

    /// Publishes a batch from `producer`, draining `comps` (its capacity is
    /// kept for reuse), and wakes every waiter it readies after the queue
    /// lock is released.
    ///
    /// With one producer the batch goes straight into the queue.  With
    /// several it lands in the producer's own inbox, and the shared queue is
    /// locked — and waiters woken — only when the waiter snapshot says
    /// somebody may be parked.
    ///
    /// # Panics
    ///
    /// Panics if `producer >= self.producers()`.
    pub fn post(&self, producer: usize, comps: &mut Vec<Completion>) {
        if comps.is_empty() {
            return;
        }
        // Publication must never run under an engine/shard/mailbox lock: it
        // takes the queue lock and invokes wakers.  Locks outside `core.`
        // (an executor's task mutex, say) are fine — the publication path
        // never acquires them.
        if cfg!(debug_assertions) {
            ppmsg_check::lockdep::assert_no_locks_held_in("CompletionMailbox::post", "core.");
        }
        let Some(handoff) = &self.handoff else {
            assert_eq!(
                producer, 0,
                "producer out of range for a one-producer mailbox"
            );
            let woken = self.inner.lock().queue.publish(comps);
            self.wake(woken);
            return;
        };
        let batch = comps.len();
        {
            let mut inbox = handoff.inboxes[producer].lock();
            inbox.extend(comps.drain(..));
        }
        handoff.advertise(batch);
        if handoff.load_waiters() > 0 {
            self.deliver(handoff);
        }
    }

    /// Runs `f` on the queue.  This is the backend's `with_completions`
    /// primitive: polls, claims, waker registrations, and drains all come
    /// through here.
    ///
    /// With one producer this is the queue lock plus `f`.  With several,
    /// every pending inbox is swept in first, and afterwards the waiter
    /// snapshot is refreshed and the producer race closed.
    pub fn with(&self, f: &mut dyn FnMut(&mut CompletionQueue)) {
        let Some(handoff) = &self.handoff else {
            f(&mut self.inner.lock().queue);
            return;
        };
        let woken = {
            let mut inner = self.inner.lock();
            let woken = handoff.sweep(&mut inner);
            f(&mut inner.queue);
            handoff.store_waiters(inner.queue.waiters());
            woken
        };
        self.wake(woken);
        // `f` may have registered a waker after our sweep while a producer
        // posted and loaded a stale zero `waiters` snapshot: re-check.
        #[cfg(ppmsg_check)]
        if sabotage::skip_recheck() {
            return;
        }
        if handoff.load_pending() > 0 && handoff.load_waiters() > 0 {
            self.deliver(handoff);
        }
    }

    /// Locks the queue, sweeps the inboxes, and wakes whoever the sweep
    /// readied.
    fn deliver(&self, handoff: &Handoff) {
        let woken = {
            let mut inner = self.inner.lock();
            let woken = handoff.sweep(&mut inner);
            handoff.store_waiters(inner.queue.waiters());
            woken
        };
        self.wake(woken);
    }

    /// Invokes a publication's wake batch; the caller has released the
    /// queue lock.
    fn wake(&self, woken: Vec<Waker>) {
        wake_all(woken, |drained| {
            self.inner.lock().queue.recycle_woken(drained)
        });
    }

    /// Completions evicted past the retention cap (see
    /// [`CompletionQueue::evicted`]).
    pub fn evicted(&self) -> u64 {
        self.inner.lock().queue.evicted()
    }
}

impl Handoff {
    /// Advertise the batch *before* loading `waiters` (see the type-level
    /// race argument): a consumer registering concurrently either is seen by
    /// [`Self::load_waiters`], or sees our `pending` in its post-unlock
    /// re-check.
    fn advertise(&self, batch: usize) {
        #[cfg(ppmsg_check)]
        if sabotage::weak_flags() {
            let cur = self.pending.load(Ordering::Relaxed);
            self.pending.store(cur + batch, Ordering::Relaxed);
            return;
        }
        self.pending.fetch_add(batch, Ordering::SeqCst);
    }

    fn load_pending(&self) -> usize {
        #[cfg(ppmsg_check)]
        if sabotage::weak_flags() {
            return self.pending.load(Ordering::Relaxed);
        }
        self.pending.load(Ordering::SeqCst)
    }

    fn load_waiters(&self) -> usize {
        #[cfg(ppmsg_check)]
        if sabotage::weak_flags() {
            return self.waiters.load(Ordering::Relaxed);
        }
        self.waiters.load(Ordering::SeqCst)
    }

    fn store_waiters(&self, n: usize) {
        #[cfg(ppmsg_check)]
        if sabotage::weak_flags() {
            self.waiters.store(n, Ordering::Relaxed);
            return;
        }
        self.waiters.store(n, Ordering::SeqCst);
    }

    /// Moves every inbox's contents into the queue (one publication batch),
    /// returning the wakers to invoke once the queue lock is released.
    /// Caller holds the `inner` lock.
    fn sweep(&self, inner: &mut MailboxInner) -> Vec<Waker> {
        if self.pending.load(Ordering::SeqCst) == 0 {
            return Vec::new();
        }
        let mut scratch = std::mem::take(&mut inner.scratch);
        for inbox in self.inboxes.iter() {
            let mut inbox = inbox.lock();
            if !inbox.is_empty() {
                scratch.extend(inbox.drain(..));
            }
        }
        self.pending.fetch_sub(scratch.len(), Ordering::SeqCst);
        let woken = inner.queue.publish(&mut scratch);
        inner.scratch = scratch;
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_table_generation_checking() {
        let mut t: OpTable<&'static str> = OpTable::new();
        let (slot, g0) = t.insert("a");
        assert_eq!(t.get_mut(slot, g0), Some(&mut "a"));
        assert_eq!(t.remove(slot, g0), Some("a"));
        // Stale handle: same slot, old generation.
        assert_eq!(t.get_mut(slot, g0), None);
        assert_eq!(t.remove(slot, g0), None);
        // Slot is recycled with a new generation.
        let (slot2, g1) = t.insert("b");
        assert_eq!(slot2, slot);
        assert_ne!(g1, g0);
        assert_eq!(t.get_mut(slot, g0), None);
        assert_eq!(t.get_mut(slot, g1), Some(&mut "b"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn op_table_steady_cycle_does_not_allocate() {
        let mut t: OpTable<u64> = OpTable::new();
        for i in 0..4 {
            t.insert(i);
        }
        for slot in 0..4u32 {
            t.remove(slot, 0).unwrap();
        }
        let allocs = t.alloc_events();
        for round in 0..10_000u64 {
            let (slot, generation) = t.insert(round);
            assert_eq!(t.remove(slot, generation), Some(round));
        }
        assert_eq!(t.alloc_events(), allocs, "steady churn must not allocate");
    }

    #[test]
    fn recv_buf_reassembles_and_clamps() {
        let mut buf = RecvBuf::with_capacity(8);
        buf.begin(12); // message larger than the buffer: truncating receive
        assert_eq!(buf.write_at(4, &[4, 5, 6, 7, 8, 9, 10, 11]), 8);
        assert_eq!(buf.write_at(0, &[0, 1, 2, 3]), 4);
        assert!(buf.is_complete());
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        // Duplicates do not double-count.
        assert_eq!(buf.write_at(0, &[0, 1]), 0);
        // Reuse for a smaller message.
        buf.begin(3);
        assert!(!buf.is_complete());
        assert_eq!(buf.write_at(0, &[9, 9, 9]), 3);
        assert!(buf.is_complete());
        assert_eq!(buf.as_slice(), &[9, 9, 9]);
    }

    #[test]
    fn op_display_and_raw_roundtrip() {
        let op = RecvOp::from_raw(3, 7);
        assert_eq!(op.slot(), 3);
        assert_eq!(op.generation(), 7);
        assert_eq!(op.to_string(), "recv3.7");
        assert_eq!(SendOp::from_raw(1, 0).to_string(), "send1.0");
        assert_eq!(OpId::from(op), OpId::Recv(op));
    }

    /// A real (non-noop) waker: push() deliberately does not wake noop
    /// interest registrations, so tests standing in for an actual awaiting
    /// task need one of these.
    fn test_waker() -> Waker {
        struct NopWake;
        impl std::task::Wake for NopWake {
            fn wake(self: std::sync::Arc<Self>) {}
        }
        Waker::from(std::sync::Arc::new(NopWake))
    }

    fn completion(op: OpId) -> Completion {
        Completion {
            op,
            peer: ProcessId::new(0, 1),
            tag: Tag(0),
            len: 0,
            status: Status::Ok,
            data: None,
            buf: None,
        }
    }

    #[test]
    fn completion_queue_takes_by_op_and_drains_in_order() {
        let mut q = CompletionQueue::new();
        let a = OpId::Send(SendOp::from_raw(0, 0));
        let b = OpId::Recv(RecvOp::from_raw(0, 0));
        let c = OpId::Send(SendOp::from_raw(1, 0));
        for op in [a, b, c] {
            assert!(q.push(completion(op)).is_none());
        }
        assert_eq!(q.len(), 3);
        // O(1) claim by handle, generation-checked.
        assert_eq!(q.take(b).unwrap().op, b);
        assert!(q.take(b).is_none(), "claimed completion must be gone");
        assert!(
            q.take(OpId::Send(SendOp::from_raw(0, 9))).is_none(),
            "stale generation must not claim"
        );
        // Draining skips the claimed entry and preserves insertion order.
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out.iter().map(|c| c.op).collect::<Vec<_>>(), vec![a, c]);
        assert!(q.is_empty());
    }

    #[test]
    fn completion_queue_evicts_oldest_beyond_retention() {
        let mut q = CompletionQueue::new();
        q.set_retention(4);
        for slot in 0..10u32 {
            q.push(completion(OpId::Send(SendOp::from_raw(slot, 0))));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.evicted(), 6);
        // The oldest six are gone; the newest four survive.
        assert!(q.take(OpId::Send(SendOp::from_raw(0, 0))).is_none());
        assert!(q.take(OpId::Send(SendOp::from_raw(9, 0))).is_some());
    }

    #[test]
    fn completion_queue_steady_churn_does_not_allocate() {
        let mut q = CompletionQueue::new();
        // Warm up: grow the slot vectors and push the order deque past its
        // stale-compaction threshold (it grows once to ~2× the threshold,
        // then compaction keeps it there).
        for round in 0..200u32 {
            let op = OpId::Recv(RecvOp::from_raw(round % 8, round / 8));
            q.push(completion(op));
            assert!(q.take(op).is_some());
        }
        let allocs = q.alloc_events();
        for round in 200..10_000u32 {
            let op = OpId::Recv(RecvOp::from_raw(round % 8, round / 8));
            q.push(completion(op));
            assert!(q.take(op).is_some());
        }
        assert_eq!(q.alloc_events(), allocs, "steady churn must not allocate");
    }

    #[test]
    fn waker_table_is_generation_checked() {
        let mut t = WakerTable::new();
        let waker = Waker::noop();
        let old = OpId::Recv(RecvOp::from_raw(2, 0));
        let new = OpId::Recv(RecvOp::from_raw(2, 1));
        t.register_waker(old, waker);
        // A newer op reusing the slot registers independently: both waiters
        // coexist (an awaited-but-unclaimed older completion must keep its
        // registration when the slot is recycled)...
        t.register_waker(new, waker);
        assert_eq!(t.len(), 2);
        // ...and each generation takes exactly its own waker, exactly once.
        assert!(t.take_waker(old).is_some());
        assert!(t.take_waker(old).is_none(), "wakers are taken once");
        assert!(t.take_waker(new).is_some());
        assert!(t.take_waker(new).is_none(), "wakers are taken once");
        assert!(t.is_empty());
    }

    #[test]
    fn eviction_spares_awaited_completions() {
        let mut q = CompletionQueue::new();
        q.set_retention(4);
        // A task awaits op (0,0): its waker is registered before anything
        // completes, as a real first poll would.
        let awaited = OpId::Send(SendOp::from_raw(0, 0));
        let waker = test_waker();
        assert!(q.take_or_register(awaited, &waker).is_none());
        // Its completion arrives first, then a flood of fire-and-forget
        // completions far beyond the cap.
        assert!(q.push(completion(awaited)).is_some(), "awaiter is woken");
        for slot in 1..20u32 {
            q.push(completion(OpId::Send(SendOp::from_raw(slot, 0))));
        }
        // One registration is live, so the queue holds retention + 1.
        assert_eq!(q.len(), 5);
        // The flood evicted unawaited completions only; the awaited one is
        // still claimable (and claiming clears its registration).
        assert!(
            q.take(awaited).is_some(),
            "awaited completion must survive eviction"
        );
        assert_eq!(q.evicted(), 15);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn registered_interest_protects_blocking_waiters_from_eviction() {
        // A blocking `wait` registers interest (no real waker) before
        // parking; its completion must survive an over-cap flood that
        // arrives between its wakeups.
        let mut q = CompletionQueue::new();
        q.set_retention(2);
        let waited = OpId::Recv(RecvOp::from_raw(7, 3));
        q.register_interest(waited);
        q.push(completion(waited));
        for slot in 0..10u32 {
            q.push(completion(OpId::Send(SendOp::from_raw(slot, 0))));
        }
        assert!(
            q.take(waited).is_some(),
            "waited-on completion must survive the flood"
        );
        // Interest is cleared by the claim; nothing protects the slot now.
        q.push(completion(OpId::Recv(RecvOp::from_raw(7, 4))));
        for slot in 0..10u32 {
            q.push(completion(OpId::Send(SendOp::from_raw(slot, 1))));
        }
        assert!(
            q.take(OpId::Recv(RecvOp::from_raw(7, 4))).is_none(),
            "uninterested completion is evictable again"
        );
    }

    #[test]
    fn stale_registration_cannot_clobber_newer_waker() {
        let mut q = CompletionQueue::new();
        let old = OpId::Recv(RecvOp::from_raw(3, 0));
        let new = OpId::Recv(RecvOp::from_raw(3, 1));
        // The old op completed (unclaimed); the newer op reusing the slot is
        // being awaited.
        q.push(completion(old));
        let waker = test_waker();
        assert!(q.take_or_register(new, &waker).is_none());
        // Re-awaiting / noting interest in the stale handle must not steal
        // the slot's registration from the newer op...
        q.register_interest(old);
        assert!(q.take_or_register(old, Waker::noop()).is_some());
        // ...so the newer op's completion still finds a waker to wake.
        assert!(
            q.push(completion(new)).is_some(),
            "newer op's waker must survive stale-handle traffic"
        );
    }

    #[test]
    fn drain_leaves_awaited_completions_for_their_waiter() {
        let mut q = CompletionQueue::new();
        let awaited = OpId::Recv(RecvOp::from_raw(0, 0));
        let loose = OpId::Send(SendOp::from_raw(0, 0));
        assert!(q.take_or_register(awaited, Waker::noop()).is_none());
        q.push(completion(awaited));
        q.push(completion(loose));
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(
            out.iter().map(|c| c.op).collect::<Vec<_>>(),
            vec![loose],
            "drain must not steal an awaited completion"
        );
        assert!(
            q.take(awaited).is_some(),
            "the waiter still claims its result"
        );
    }

    #[test]
    fn take_or_wait_never_displaces_or_steals_from_a_live_future() {
        let mut q = CompletionQueue::new();
        let op = OpId::Recv(RecvOp::from_raw(0, 0));
        let future_waker = test_waker();
        let wait_waker = test_waker();
        // A future is registered first; a blocking wait must back off...
        assert!(q.take_or_register(op, &future_waker).is_none());
        assert!(matches!(
            q.take_or_wait(op, &wait_waker),
            WaitPoll::Occupied
        ));
        // ...even once the completion has landed: the registered waiter owns
        // the claim.
        assert!(q.push(completion(op)).is_some(), "future woken");
        assert!(matches!(
            q.take_or_wait(op, &wait_waker),
            WaitPoll::Occupied
        ));
        assert!(q.take(op).is_some(), "the future still claims its result");

        // A bare interest is a future's registration too (only futures
        // register interest): the wait must not upgrade it away.
        let op2 = OpId::Recv(RecvOp::from_raw(1, 0));
        q.register_interest(op2);
        assert!(matches!(
            q.take_or_wait(op2, &wait_waker),
            WaitPoll::Occupied
        ));
        q.deregister(op2); // the future is dropped
                           // With no registration at all, the wait registers and claims
                           // normally.
        assert!(matches!(
            q.take_or_wait(op2, &wait_waker),
            WaitPoll::Registered
        ));
        assert!(q.push(completion(op2)).is_some(), "wait waker woken");
        assert!(matches!(
            q.take_or_wait(op2, &wait_waker),
            WaitPoll::Ready(_)
        ));
    }

    #[test]
    fn deregister_waiter_removes_only_its_own_registration() {
        let mut q = CompletionQueue::new();
        let op = OpId::Send(SendOp::from_raw(0, 0));
        let future_waker = test_waker();
        let wait_waker = test_waker();
        assert!(q.take_or_register(op, &future_waker).is_none());
        // An expiring wait must not tear down the future's registration.
        q.deregister_waiter(op, &wait_waker);
        assert!(
            q.push(completion(op)).is_some(),
            "future's waker must survive a foreign deregister_waiter"
        );
        // Its own registration is removed.
        let op2 = OpId::Send(SendOp::from_raw(1, 0));
        assert!(matches!(
            q.take_or_wait(op2, &wait_waker),
            WaitPoll::Registered
        ));
        q.deregister_waiter(op2, &wait_waker);
        assert!(
            q.push(completion(op2)).is_none(),
            "deregistered wait must not be woken"
        );
    }

    #[test]
    fn peek_each_inspects_without_moving_and_can_remove() {
        let mut q = CompletionQueue::new();
        let a = OpId::Send(SendOp::from_raw(0, 0));
        let b = OpId::Recv(RecvOp::from_raw(0, 0));
        let c = OpId::Send(SendOp::from_raw(1, 0));
        let awaited = OpId::Recv(RecvOp::from_raw(1, 0));
        for op in [a, b, c] {
            q.push(completion(op));
        }
        let waker = test_waker();
        assert!(q.take_or_register(awaited, &waker).is_none());
        q.push(completion(awaited));

        // First pass: pure telemetry.  Awaited entries are never shown.
        let mut seen = Vec::new();
        q.peek_each(&mut |completion| {
            seen.push(completion.op);
            Claim::Keep
        });
        assert_eq!(seen, vec![a, b, c], "oldest first, awaited skipped");
        assert_eq!(q.len(), 4, "peek with Keep moves nothing");

        // Second pass: retire the send completions in place.
        q.peek_each(&mut |completion| match completion.op {
            OpId::Send(_) => Claim::Remove,
            OpId::Recv(_) => Claim::Keep,
        });
        assert!(q.take(a).is_none(), "removed in place");
        assert!(q.take(c).is_none(), "removed in place");
        // The kept receive is still claimable, in its drain position...
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out.iter().map(|c| c.op).collect::<Vec<_>>(), vec![b]);
        // ...and the awaited completion still belongs to its waiter.
        assert!(q.take(awaited).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_each_steady_churn_does_not_allocate() {
        let mut q = CompletionQueue::new();
        for round in 0..200u32 {
            let op = OpId::Recv(RecvOp::from_raw(round % 8, round / 8));
            q.push(completion(op));
            q.peek_each(&mut |_| Claim::Keep);
            assert!(q.take(op).is_some());
        }
        let allocs = q.alloc_events();
        for round in 200..5_000u32 {
            let op = OpId::Recv(RecvOp::from_raw(round % 8, round / 8));
            q.push(completion(op));
            q.peek_each(&mut |_| Claim::Keep);
            q.peek_each(&mut |_| Claim::Remove);
            assert!(q.take(op).is_none(), "peek removed it");
        }
        assert_eq!(q.alloc_events(), allocs, "steady peeking must not allocate");
    }

    #[test]
    fn take_or_register_wakes_exactly_once() {
        let mut q = CompletionQueue::new();
        let op = OpId::Recv(RecvOp::from_raw(0, 0));
        let waker = test_waker();
        assert!(q.take_or_register(op, &waker).is_none());
        // The registered waker is surfaced when the completion arrives.
        assert!(q.push(completion(op)).is_some());
        // No waker left behind; the completion is claimable.
        assert!(q
            .push(completion(OpId::Recv(RecvOp::from_raw(1, 0))))
            .is_none());
        assert!(q.take_or_register(op, Waker::noop()).is_some());
    }
}
