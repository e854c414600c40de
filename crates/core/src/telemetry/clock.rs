//! Trace time source: one abstraction over virtual (simulated) and wall
//! (host) clocks.
//!
//! The engine is sans-I/O and never reads a clock; the `ppmsg-lint`
//! `virtual_clock` rule enforces that by banning `Instant::now` /
//! `SystemTime::now` in protocol files.  Trace events still need timestamps,
//! so this module owns the *only* sanctioned clock reads in `ppmsg_core` and
//! lets each backend pick the time base its thread stamps events with:
//!
//! * **Sim backends** ([`ChaosCluster`](https://docs.rs/) and friends) call
//!   [`set_virtual_us`] whenever their virtual clock advances.  Events become
//!   deterministic — the same seed produces byte-identical trace timestamps.
//! * **Host backends** (reactor, intranode) call [`hold`] at batch
//!   boundaries.  One monotonic clock read is amortized over every event the
//!   batch records, keeping per-event cost to a thread-local load.
//! * **Unmanaged threads** (unit tests poking a bare `Endpoint`) fall back
//!   to reading the monotonic clock per event.
//!
//! The mode is thread-local: a chaos router thread can be virtual while a
//! reactor loop in the same process stays on wall time.  All stamps are
//! nanoseconds; wall stamps are relative to a process-wide anchor taken on
//! first use, virtual stamps are the simulator's microsecond clock times
//! 1000.

// ppmsg-lint: deny(hot_path_alloc) — event stamping runs inside the steady-state send/recv path.

#[cfg(feature = "telemetry")]
use std::cell::Cell;
#[cfg(feature = "telemetry")]
use std::sync::OnceLock;
#[cfg(feature = "telemetry")]
use std::time::Instant;

/// Thread-local time base for trace stamps.
#[cfg(feature = "telemetry")]
#[derive(Copy, Clone)]
enum Source {
    /// Read the monotonic clock on every stamp (unmanaged threads).
    Wall,
    /// A [`hold`] boundary was crossed but nothing has stamped yet: the
    /// first stamp latches one monotonic read ([`Held`](Source::Held)).
    /// Batches that record no events never touch the clock.
    Pending,
    /// Monotonic nanoseconds latched by the first stamp after a [`hold`];
    /// reused until the next hold.
    Held(u64),
    /// Virtual nanoseconds owned by a simulator ([`set_virtual_us`]).
    Virtual(u64),
}

#[cfg(feature = "telemetry")]
thread_local! {
    static SOURCE: Cell<Source> = const { Cell::new(Source::Wall) };
}

#[cfg(feature = "telemetry")]
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    // The process-wide zero point for wall stamps.  The only clock reads in
    // `ppmsg_core` live in this module, behind the time-source abstraction.
    *ANCHOR.get_or_init(Instant::now) // ppmsg-lint: allow(virtual_clock)
}

/// Monotonic nanoseconds since the process-wide trace anchor.  Always reads
/// the real clock, regardless of the thread's trace time base — use it for
/// *duration* measurements (lock hold, batch processing) on host threads.
/// Returns 0 with the `telemetry` feature off.
#[inline]
pub fn mono_ns() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        let start = anchor();
        Instant::now().duration_since(start).as_nanos() as u64 // ppmsg-lint: allow(virtual_clock)
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// The current thread's trace timestamp in nanoseconds: virtual time if a
/// simulator owns this thread, the held stamp between [`hold`] calls on host
/// threads, or a fresh monotonic read otherwise.
#[inline]
pub fn now_ns() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        match SOURCE.with(Cell::get) {
            Source::Wall => mono_ns(),
            Source::Pending => SOURCE.with(|s| {
                let ns = mono_ns();
                s.set(Source::Held(ns));
                ns
            }),
            Source::Held(ns) | Source::Virtual(ns) => ns,
        }
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// Opens a new stamp batch: the *first* event recorded after this call
/// latches one monotonic clock read which every later event in the batch
/// reuses.  Host backends call this once per batch (reactor poll iteration,
/// intranode post, executor task); the latch is lazy, so a batch that
/// records nothing — the common case with sampling, or with the recorder
/// disabled — costs a thread-local store and never touches the clock.
/// No-op on a thread owned by a virtual clock.
#[inline]
pub fn hold() {
    #[cfg(feature = "telemetry")]
    SOURCE.with(|s| {
        if !matches!(s.get(), Source::Virtual(_)) {
            s.set(Source::Pending);
        }
    });
}

/// Hands this thread's trace stamps to a virtual clock at `now_us`
/// microseconds.  Simulators call this every time their clock advances (and
/// on entry to user-facing calls) so events are stamped deterministically.
/// The thread stays virtual until [`set_wall`].
#[inline]
pub fn set_virtual_us(now_us: u64) {
    #[cfg(not(feature = "telemetry"))]
    let _ = now_us;
    #[cfg(feature = "telemetry")]
    SOURCE.with(|s| s.set(Source::Virtual(now_us.saturating_mul(1000))));
}

/// Returns this thread's trace stamps to the monotonic wall clock.
#[inline]
pub fn set_wall() {
    #[cfg(feature = "telemetry")]
    SOURCE.with(|s| s.set(Source::Wall));
}

/// `true` if this thread's stamps come from a simulator's virtual clock.
#[inline]
pub fn is_virtual() -> bool {
    #[cfg(feature = "telemetry")]
    {
        SOURCE.with(|s| matches!(s.get(), Source::Virtual(_)))
    }
    #[cfg(not(feature = "telemetry"))]
    false
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn virtual_stamps_are_exact_and_sticky() {
        set_virtual_us(42);
        assert_eq!(now_ns(), 42_000);
        assert!(is_virtual());
        hold(); // must not displace the virtual clock
        assert_eq!(now_ns(), 42_000);
        set_virtual_us(43);
        assert_eq!(now_ns(), 43_000);
        set_wall();
        assert!(!is_virtual());
    }

    #[test]
    fn held_stamps_are_stable_between_holds() {
        set_wall();
        hold();
        let a = now_ns();
        let b = now_ns();
        assert_eq!(a, b, "held stamp must not advance between holds");
        hold();
        assert!(now_ns() >= a);
        set_wall();
        let w1 = now_ns();
        let w2 = now_ns();
        assert!(w2 >= w1, "wall stamps are monotonic");
    }
}
