//! Flight recorder + metrics plane: always-on observability for every
//! backend.
//!
//! Three pieces, all feature-gated behind `telemetry` (on by default):
//!
//! * **Flight recorder** ([`recorder`]) — per-thread fixed-capacity rings of
//!   compact 32-byte POD trace [`Event`]s covering the whole stack: op
//!   posted/matched/completed, frame tx/rx/retransmit, SACK holes, timer
//!   arm/fire/stale, channel failures, reactor batches, executor
//!   spawn/steal/park, engine-lock holds.  Recording is lock-free and
//!   allocation-free on the steady path (proven by `tests/zero_alloc.rs`).
//! * **Metrics plane** ([`metrics`]) — lock-free [`Counter`]s and
//!   log-bucketed [`LogHistogram`]s, snapshot-able without stopping traffic
//!   and mergeable across shards like
//!   [`EndpointStats::merge`](crate::EndpointStats::merge).
//! * **Exporters** ([`export`]) — a chrome://tracing JSON dump and a
//!   plain-text dump of any [`TraceSnapshot`].  The chaos harness dumps a
//!   trace next to its replay instructions when a seed fails; the wedge
//!   detector prints the stalled channel's counters.
//!
//! ## Time
//!
//! Event timestamps go through [`clock`], the one sanctioned time source in
//! `ppmsg_core`: simulators stamp events with their deterministic virtual
//! clock ([`clock::set_virtual_us`]), host backends latch one monotonic read
//! per batch ([`clock::hold`]).  The `ppmsg-lint` `virtual_clock` and
//! `telemetry_clock` rules enforce that nothing else in the engine or this
//! module reads a wall clock.
//!
//! ## Cost
//!
//! With the feature **on** (default): one relaxed load plus a ring write per
//! event (~tens of ns), zero allocation; the recorder-overhead bench
//! (`telemetry_overhead`, gated <10% in CI) keeps it honest.  Recording can
//! also be switched off at runtime ([`recorder::set_enabled`]), leaving a
//! single relaxed load per call site.  With the feature **off**
//! (`--no-default-features`): [`event()`] is an empty `#[inline]` fn, metric
//! types are zero-sized, and the whole plane compiles to nothing.

// ppmsg-lint: deny(hot_path_alloc) — this module is called from the steady-state send/recv path.

pub mod clock;
pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;

pub use event::{drop_reason, frame_kind, lock_ctx, Event, EventKind, KIND_COUNT, OP_SEND_BIT};
pub use metrics::{
    bucket_bounds, bucket_of, Counter, HistogramSnapshot, LogHistogram, HIST_BUCKETS,
};
pub use recorder::{event, snapshot, RingSnapshot, TraceSnapshot};
