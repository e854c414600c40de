//! # ppmsg-core — the Push-Pull Messaging protocol engine
//!
//! This crate implements the protocol described in *"Push-Pull Messaging: A
//! High-Performance Communication Mechanism for Commodity SMP Clusters"*
//! (Wong & Wang, ICPP 1999) as a **sans-I/O state machine**: the engine owns
//! the protocol state (send queue, receive queue, pushed buffer, go-back-N
//! channels) but performs no I/O and reads no clock.  A *backend* feeds it
//! events — send/receive postings, arriving packets, expiring timers — and
//! drains the [`Action`]s it produces: packets to transmit, buffers to
//! translate, copies to perform, completions to deliver.
//!
//! Two backends ship with the workspace:
//!
//! * [`ppmsg-sim`](../ppmsg_sim/index.html) drives the engine inside a
//!   discrete-event simulation of a 1999-era SMP cluster and regenerates the
//!   paper's figures, and
//! * [`ppmsg-host`](../ppmsg_host/index.html) drives the same engine over
//!   real OS primitives (in-process shared memory and UDP sockets).
//!
//! ## Protocol summary
//!
//! A message of `n` bytes is transferred in up to three parts:
//!
//! 1. the **first push** of `BTP(1)` bytes, sent eagerly the moment the send
//!    is posted;
//! 2. the **second push** of `BTP(2)` bytes, transmitted overlapped with the
//!    receiver's acknowledgement when *push-and-acknowledge overlapping* is
//!    enabled;
//! 3. the **pulled remainder**, sent only after the receiver's pull request
//!    (the acknowledgement that doubles as a request) arrives, which the
//!    receiver issues once its receive operation is posted.
//!
//! Setting `BTP = 0` degenerates to the classical three-phase rendezvous
//! protocol (**Push-Zero**); setting `BTP = n` degenerates to a purely eager
//! protocol (**Push-All**).  Both are implemented and used as baselines.
//!
//! ## Operation lifecycle
//!
//! `post_send` / `post_recv` return typed, generation-checked handles
//! ([`SendOp`] / [`RecvOp`]); backends relay the engine's [`Action`]s
//! (transmissions, copies, timers) while operation results arrive as
//! [`Completion`]s on a separate per-endpoint completion queue:
//!
//! ```
//! use ppmsg_core::{Endpoint, ProcessId, ProtocolConfig, ProtocolMode, Tag, Action, Status};
//! use bytes::Bytes;
//!
//! let cfg = ProtocolConfig::default().with_mode(ProtocolMode::PushPull);
//! let a = ProcessId::new(0, 0);
//! let b = ProcessId::new(0, 1);
//! let mut sender = Endpoint::new(a, cfg.clone());
//! let mut receiver = Endpoint::new(b, cfg);
//!
//! sender.post_send(b, Tag(7), Bytes::from(vec![42u8; 4096])).unwrap();
//! let op = receiver.post_recv(a, Tag(7), 4096).unwrap();
//!
//! // Relay packets between the two endpoints until both sides are idle.
//! loop {
//!     let mut progressed = false;
//!     while let Some(action) = sender.poll_action() {
//!         progressed = true;
//!         if let Action::Transmit { packet, .. } = action {
//!             receiver.handle_packet(a, packet);
//!         }
//!     }
//!     while let Some(action) = receiver.poll_action() {
//!         progressed = true;
//!         if let Action::Transmit { packet, .. } = action {
//!             sender.handle_packet(b, packet);
//!         }
//!     }
//!     if !progressed {
//!         break;
//!     }
//! }
//!
//! // Results are drained from the completion queue, not the action stream.
//! let completion = receiver.poll_completion().expect("receive completed");
//! assert_eq!(completion.op, op.into());
//! assert_eq!(completion.status, Status::Ok);
//! assert_eq!(completion.data.unwrap().len(), 4096);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod btp;
pub mod config;
pub mod engine;
pub mod error;
pub mod index;
pub mod ops;
pub mod queues;
pub mod reliability;
pub mod sharded;
pub mod telemetry;
pub mod transport;
pub mod types;
pub mod wire;
pub mod zbuf;

pub use btp::{BtpPolicy, BtpSplit};
pub use config::{EndpointConfig, OptFlags, ProtocolConfig, ProtocolMode};
pub use engine::{
    Action, CopyKind, Endpoint, EndpointStats, InjectMode, TranslateCtx, INTRANODE_PULL_CHUNK,
};
pub use error::{Error, Result};
pub use index::{Slab, SrcTagMap, U64Index};
pub use ops::{
    Claim, Completion, CompletionMailbox, CompletionQueue, OpId, RecvBuf, RecvOp, SendOp, Status,
    TruncationPolicy, WaitPoll, WakerTable, DEFAULT_COMPLETION_RETENTION,
};
pub use queues::{BufferQueue, PushedBuffer, ReceiveQueue, SendPayload, SendQueue};
pub use reliability::{
    ArqChannel, GbnConfig, GbnEvent, GbnStats, GoBackN, ReliabilityMode, SelectiveRepeat,
};
pub use sharded::{EngineBatch, ShardedEngine};
pub use telemetry::{Counter, EventKind, HistogramSnapshot, LogHistogram, TraceSnapshot};
pub use transport::RawTransport;
pub use types::{
    MessageId, NodeId, ProcessId, Tag, TimerId, ANY_SOURCE, ANY_TAG, COLLECTIVE_TAG_BIT,
};
pub use wire::{Packet, PacketBufPool, PacketHeader, PacketKind, PushPart, MAX_HEADER_LEN};
pub use zbuf::{AddressTranslator, IdentityTranslator, PhysSegment, ZeroBuffer};
