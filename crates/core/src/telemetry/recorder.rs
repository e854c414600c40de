//! The flight recorder: per-thread fixed-capacity rings of trace events.
//!
//! Every thread that records gets its own preallocated ring (registered in a
//! process-wide registry on first use), so the hot path is: one relaxed
//! enabled-check, one thread-local lookup, four relaxed stores, one release
//! store — no locks, no allocation, no cross-thread traffic.  Rings overwrite
//! their oldest events when full, keeping the most recent
//! [`ring_capacity`]() events per thread — exactly what a post-mortem wants.
//!
//! ## Snapshot consistency
//!
//! [`snapshot`] reads other threads' rings while they may still be writing.
//! The single writer publishes each slot with a release store of the ring
//! head, so every event *below* the observed head is fully written; the only
//! hazard is a writer lapping the reader mid-snapshot (capacity or more
//! events recorded during the copy), which can tear a slot.  Torn slots are
//! detected by their out-of-range kind byte and dropped.  Snapshots taken at
//! quiescence (a failed chaos seed, a wedge report, test teardown) are exact.

// ppmsg-lint: deny(hot_path_alloc) — `event` is called from the steady-state send/recv path.

#[cfg(feature = "telemetry")]
use super::clock;
use super::event::{Event, EventKind};

#[cfg(feature = "telemetry")]
use std::cell::OnceCell;
#[cfg(feature = "telemetry")]
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
#[cfg(feature = "telemetry")]
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per thread.  2^14 events × 32 bytes = 512 KiB per
/// recording thread.  Must stay a power of two: the ring indexes with a
/// mask, not a division, to keep the per-event cost at a few nanoseconds.
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

#[cfg(feature = "telemetry")]
const _: () = assert!(DEFAULT_RING_CAPACITY.is_power_of_two());

#[cfg(feature = "telemetry")]
struct Slot {
    ts: AtomicU64,
    ab: AtomicU64,
    c: AtomicU64,
    kind: AtomicU64,
}

#[cfg(feature = "telemetry")]
struct Ring {
    tid: u32,
    name: String,
    /// Total events ever recorded; `head % cap` is the next slot.  Written
    /// only by the owning thread, released after the slot words.
    head: AtomicU64,
    /// Events below this head index are logically discarded ([`reset`]).
    trim: AtomicU64,
    slots: Box<[Slot]>,
}

#[cfg(feature = "telemetry")]
impl Ring {
    fn push(&self, ts: u64, kind: EventKind, a: u32, b: u32, c: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & (DEFAULT_RING_CAPACITY as u64 - 1)) as usize];
        // Tear-detection: readers drop slots whose kind byte is out of range,
        // so park an invalid kind in the slot while its words are in flux.
        slot.kind.store(u64::MAX, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.ab
            .store(((a as u64) << 32) | b as u64, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }
}

#[cfg(feature = "telemetry")]
static ENABLED: AtomicBool = AtomicBool::new(true);
#[cfg(feature = "telemetry")]
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

#[cfg(feature = "telemetry")]
fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

#[cfg(feature = "telemetry")]
thread_local! {
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

#[cfg(feature = "telemetry")]
fn register_current_thread() -> Arc<Ring> {
    // One-time per thread: allocations here land outside the measured steady
    // state (first event during warmup).
    let name = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_owned();
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let mut slots = Vec::with_capacity(DEFAULT_RING_CAPACITY);
    for _ in 0..DEFAULT_RING_CAPACITY {
        slots.push(Slot {
            ts: AtomicU64::new(0),
            ab: AtomicU64::new(0),
            c: AtomicU64::new(0),
            kind: AtomicU64::new(u64::MAX),
        });
    }
    let ring = Arc::new(Ring {
        tid,
        name,
        head: AtomicU64::new(0),
        trim: AtomicU64::new(0),
        slots: slots.into_boxed_slice(),
    });
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(Arc::clone(&ring));
    ring
}

/// Records one trace event on the calling thread's ring, stamped with the
/// thread's trace clock (see [`super::clock`]).  Zero-allocation after the
/// thread's first event; a single relaxed load when recording is
/// [disabled](set_enabled); nothing at all with the `telemetry` feature off.
#[inline]
pub fn event(kind: EventKind, a: u32, b: u32, c: u64) {
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = (kind, a, b, c);
    }
    #[cfg(feature = "telemetry")]
    {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let ts = clock::now_ns();
        // `try_with` so events fired during TLS teardown are dropped instead
        // of panicking.
        let _ = RING.try_with(|cell| {
            cell.get_or_init(register_current_thread)
                .push(ts, kind, a, b, c);
        });
    }
}

/// Turns recording on or off process-wide.  Off, [`event`] costs one relaxed
/// load.  Returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    #[cfg(feature = "telemetry")]
    {
        ENABLED.swap(on, Ordering::Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = on;
        false
    }
}

/// `true` if recording is enabled (always `false` with the feature off).
pub fn enabled() -> bool {
    #[cfg(feature = "telemetry")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    false
}

/// Forces the calling thread's ring to exist without recording anything.
/// Call during warmup to move the one-time ring allocation out of an
/// allocation-measured section.
pub fn touch_current_thread() {
    #[cfg(feature = "telemetry")]
    let _ = RING.try_with(|cell| {
        cell.get_or_init(register_current_thread);
    });
}

/// One thread's decoded ring contents, oldest first.
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// Recorder-assigned dense thread id (stable across snapshots).
    pub tid: u32,
    /// OS thread name at registration, `"unnamed"` if none.
    pub name: String,
    /// Events overwritten before this snapshot could see them.
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<Event>,
}

/// A point-in-time copy of every thread's ring. Produce one with
/// [`snapshot`], render it with [`super::export`].
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// One entry per thread that has recorded at least one event.
    pub rings: Vec<RingSnapshot>,
}

impl TraceSnapshot {
    /// Total events across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.events.len()).sum()
    }

    /// `true` if no thread recorded anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events merged across threads as `(tid, event)`, sorted by
    /// timestamp (ties broken by tid then ring order).
    pub fn merged(&self) -> Vec<(u32, Event)> {
        let mut all = Vec::with_capacity(self.len());
        for ring in &self.rings {
            for event in &ring.events {
                all.push((ring.tid, *event));
            }
        }
        all.sort_by_key(|(tid, e)| (e.ts_ns, *tid));
        all
    }

    /// `true` if any ring holds an event of `kind`.
    pub fn has_kind(&self, kind: EventKind) -> bool {
        self.rings
            .iter()
            .any(|r| r.events.iter().any(|e| e.kind == kind))
    }
}

/// Copies every registered ring without stopping writers.  See the module
/// docs for the (weak, detectable) consistency story; snapshots of quiesced
/// rings are exact.  Empty with the `telemetry` feature off.
pub fn snapshot() -> TraceSnapshot {
    #[cfg(not(feature = "telemetry"))]
    {
        TraceSnapshot::default()
    }
    #[cfg(feature = "telemetry")]
    {
        let rings: Vec<Arc<Ring>> = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(Arc::clone)
            .collect();
        let mut out = TraceSnapshot::default();
        for ring in rings {
            let head = ring.head.load(Ordering::Acquire);
            let trim = ring.trim.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            let start = head.saturating_sub(cap).max(trim);
            if head == start {
                continue;
            }
            let mut events = Vec::with_capacity((head - start) as usize);
            for idx in start..head {
                let slot = &ring.slots[(idx % cap) as usize];
                let kind_raw = slot.kind.load(Ordering::Relaxed);
                let Some(kind) = u8::try_from(kind_raw).ok().and_then(EventKind::from_u8) else {
                    continue; // torn slot (writer lapped us mid-copy)
                };
                let ab = slot.ab.load(Ordering::Relaxed);
                events.push(Event {
                    ts_ns: slot.ts.load(Ordering::Relaxed),
                    kind,
                    a: (ab >> 32) as u32,
                    b: ab as u32,
                    c: slot.c.load(Ordering::Relaxed),
                });
            }
            out.rings.push(RingSnapshot {
                tid: ring.tid,
                name: ring.name.clone(),
                dropped: start - trim,
                events,
            });
        }
        out.rings.sort_by_key(|r| r.tid);
        out
    }
}

/// Logically clears every ring (events recorded so far disappear from future
/// snapshots; writers are untouched).  Tests use this to scope assertions to
/// one scenario.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    for ring in registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        ring.trim
            .store(ring.head.load(Ordering::Acquire), Ordering::Release);
    }
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    // Recorder state is process-global and tests share threads, so scope
    // every assertion to events this test just recorded via reset() +
    // distinctive arguments, and run these tests one at a time: another
    // one's reset() or disabled window would hide this one's events.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let _serial = serial();
        reset();
        clock::set_virtual_us(7);
        event(EventKind::FrameTx, 1, 0, 99);
        event(EventKind::FrameRx, 2, 1, 99);
        clock::set_wall();
        let snap = snapshot();
        let mine: Vec<&Event> = snap
            .rings
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| e.c == 99)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].kind, EventKind::FrameTx);
        assert_eq!(mine[0].ts_ns, 7_000);
        assert_eq!(mine[0].a, 1);
        assert_eq!(mine[1].kind, EventKind::FrameRx);
        assert_eq!(mine[1].b, 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _serial = serial();
        reset();
        for i in 0..(DEFAULT_RING_CAPACITY as u64 + 10) {
            event(EventKind::TimerArm, 0, 0, i | (1 << 60));
        }
        let snap = snapshot();
        let ring = snap
            .rings
            .iter()
            .find(|r| r.events.iter().any(|e| e.c & (1 << 60) != 0))
            .expect("ring with this test's events");
        assert!(ring.events.len() <= DEFAULT_RING_CAPACITY);
        assert!(ring.dropped >= 10, "oldest events counted as dropped");
        let last = ring.events.last().unwrap();
        assert_eq!(last.c, (DEFAULT_RING_CAPACITY as u64 + 9) | (1 << 60));
    }

    #[test]
    fn disabled_recording_drops_events() {
        let _serial = serial();
        reset();
        let was = set_enabled(false);
        event(EventKind::ChannelFail, 0, 0, 0xDEAD);
        set_enabled(was);
        let snap = snapshot();
        assert!(!snap
            .rings
            .iter()
            .any(|r| r.events.iter().any(|e| e.c == 0xDEAD)));
    }

    #[test]
    fn reset_hides_prior_events() {
        let _serial = serial();
        event(EventKind::SackHole, 5, 5, 0xBEEF);
        reset();
        let snap = snapshot();
        assert!(!snap
            .rings
            .iter()
            .any(|r| r.events.iter().any(|e| e.c == 0xBEEF)));
    }
}
