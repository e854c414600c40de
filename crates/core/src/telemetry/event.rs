//! The trace event taxonomy: fixed-size POD records the flight recorder
//! stores.
//!
//! Every event is 32 bytes — a nanosecond timestamp, a kind byte, and three
//! integer arguments whose meaning depends on the kind (documented per
//! variant on [`EventKind`]).  Events carry no strings and no heap data so
//! recording them never allocates; names and argument labels are attached at
//! export time ([`super::export`]).

// ppmsg-lint: deny(hot_path_alloc) — events are recorded inside the steady-state send/recv path.

/// What happened.  Argument meanings are given per variant as `a` / `b` / `c`
/// (two 32-bit and one 64-bit payload word; unused arguments are 0).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An operation was posted. `a` = op slot with bit 31 set for sends,
    /// `b` = tag (low 32 bits), `c` = message length in bytes.
    OpPosted = 0,
    /// A posted receive matched an arrival. `a` = recv op slot, `b` = tag,
    /// `c` = matched message length.
    OpMatched = 1,
    /// An operation completed. `a` = op slot with bit 31 set for sends,
    /// `b` = 1 on error/truncation, `c` = transferred length.
    OpCompleted = 2,
    /// An ARQ frame was handed to the wire. `a` = sequence number (data) or
    /// cumulative-ack point (ack/sack), `b` = frame kind
    /// ([`frame_kind`] codes), `c` = destination peer id.
    FrameTx = 3,
    /// An ARQ frame arrived. `a` = sequence / ack point, `b` = frame kind,
    /// `c` = source peer id.
    FrameRx = 4,
    /// A data frame was retransmitted. `a` = sequence number, `b` = 1 for a
    /// SACK-triggered fast retransmit, 0 for an RTO expiry, `c` = peer id if
    /// known (0 inside the channel layer).
    FrameRetransmit = 5,
    /// A SACK revealed a receive-window hole. `a` = first missing sequence,
    /// `b` = number of frames selectively acked beyond it.
    SackHole = 6,
    /// A timer was armed. `a` = timer generation, `b` = delay in
    /// microseconds, `c` = peer id (engine timers) or wheel slot (the
    /// facade's sleep wheel).
    TimerArm = 7,
    /// A timer fired. `a` = timer generation, `c` = peer id (engine) or
    /// wheel slot (facade).
    TimerFire = 8,
    /// A timer fired after its generation was superseded (lazy cancellation).
    /// `a` = stale generation, `c` = peer id (engine) or wheel slot (facade).
    TimerStale = 9,
    /// A channel exhausted its retransmission budget and failed.
    /// `a` = retry limit, `c` = peer id.
    ChannelFail = 10,
    /// One reactor poll batch was processed. `a` = frames received,
    /// `b` = frames sent, `c` = engine-lock hold in nanoseconds (drawn as a
    /// duration span by the chrome exporter).
    ReactorBatch = 11,
    /// A task was spawned onto the executor. `c` = live-task count after
    /// the spawn.
    ExecutorSpawn = 12,
    /// A worker stole from a sibling. `a` = thief worker, `b` = victim
    /// worker, `c` = tasks stolen.
    ExecutorSteal = 13,
    /// A worker found no work and parked. `a` = worker index.
    ExecutorPark = 14,
    /// An engine (shard) lock was held. `a` = context ([`lock_ctx`] codes),
    /// `b` = shard index, `c` = hold time in nanoseconds (drawn as a
    /// duration span by the chrome exporter).
    EngineLock = 15,
    /// The engine dropped an arriving packet. `a` = reason
    /// ([`drop_reason`] codes), `b` = payload bytes, `c` = source peer id.
    PacketDropped = 16,
}

/// Number of distinct [`EventKind`]s.
pub const KIND_COUNT: usize = 17;

/// `b`-argument codes for [`EventKind::FrameTx`] / [`EventKind::FrameRx`].
pub mod frame_kind {
    /// A data frame.
    pub const DATA: u32 = 0;
    /// A cumulative acknowledgement.
    pub const ACK: u32 = 1;
    /// A selective acknowledgement.
    pub const SACK: u32 = 2;
}

/// `a`-argument codes for [`EventKind::EngineLock`]: which path held the lock.
///
/// Recorded dumps decode these by number, so a retired code is never reused
/// and the others keep their values: code 1 belonged to a removed
/// thread-per-endpoint UDP backend.
pub mod lock_ctx {
    /// A sharded-engine interaction (intranode post / packet / timer).
    pub const SHARD: u32 = 0;
    /// A reactor user-thread engine call.
    pub const REACTOR_USER: u32 = 2;
    /// The reactor loop processing one receive batch.
    pub const REACTOR_BATCH: u32 = 3;
}

/// `a`-argument codes for [`EventKind::PacketDropped`].
pub mod drop_reason {
    /// The header contradicts itself: `eager_len > total_len`, or the
    /// payload ends past `total_len`.
    pub const MALFORMED: u32 = 0;
}

/// Bit set in op-slot arguments (`a` of [`EventKind::OpPosted`] /
/// [`EventKind::OpCompleted`]) to mark a send operation.
pub const OP_SEND_BIT: u32 = 1 << 31;

impl EventKind {
    /// Stable lower-snake name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::OpPosted => "op_posted",
            EventKind::OpMatched => "op_matched",
            EventKind::OpCompleted => "op_completed",
            EventKind::FrameTx => "frame_tx",
            EventKind::FrameRx => "frame_rx",
            EventKind::FrameRetransmit => "frame_retransmit",
            EventKind::SackHole => "sack_hole",
            EventKind::TimerArm => "timer_arm",
            EventKind::TimerFire => "timer_fire",
            EventKind::TimerStale => "timer_stale",
            EventKind::ChannelFail => "channel_fail",
            EventKind::ReactorBatch => "reactor_batch",
            EventKind::ExecutorSpawn => "executor_spawn",
            EventKind::ExecutorSteal => "executor_steal",
            EventKind::ExecutorPark => "executor_park",
            EventKind::EngineLock => "engine_lock",
            EventKind::PacketDropped => "packet_dropped",
        }
    }

    /// Inverse of `kind as u8`; `None` for out-of-range bytes (a torn ring
    /// slot read during an unquiesced snapshot).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::OpPosted,
            1 => EventKind::OpMatched,
            2 => EventKind::OpCompleted,
            3 => EventKind::FrameTx,
            4 => EventKind::FrameRx,
            5 => EventKind::FrameRetransmit,
            6 => EventKind::SackHole,
            7 => EventKind::TimerArm,
            8 => EventKind::TimerFire,
            9 => EventKind::TimerStale,
            10 => EventKind::ChannelFail,
            11 => EventKind::ReactorBatch,
            12 => EventKind::ExecutorSpawn,
            13 => EventKind::ExecutorSteal,
            14 => EventKind::ExecutorPark,
            15 => EventKind::EngineLock,
            16 => EventKind::PacketDropped,
            _ => return None,
        })
    }

    /// `true` for kinds whose `c` argument is a duration in nanoseconds
    /// (exported as a chrome `"X"` span instead of an instant).
    pub fn is_span(self) -> bool {
        matches!(self, EventKind::ReactorBatch | EventKind::EngineLock)
    }
}

/// One decoded trace event, as returned by a recorder snapshot.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds on the recording thread's trace clock (see
    /// [`super::clock`]): deterministic virtual time on sim threads,
    /// monotonic-since-anchor on host threads.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific argument.
    pub a: u32,
    /// Second kind-specific argument.
    pub b: u32,
    /// Third (wide) kind-specific argument.
    pub c: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_u8() {
        for v in 0..KIND_COUNT as u8 {
            let kind = EventKind::from_u8(v).expect("in-range kind");
            assert_eq!(kind as u8, v);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(KIND_COUNT as u8), None);
        assert_eq!(EventKind::from_u8(255), None);
    }

    #[test]
    fn event_is_compact() {
        assert!(
            std::mem::size_of::<Event>() <= 32,
            "events must stay POD-small"
        );
    }
}
