//! # push-pull-messaging
//!
//! Facade crate for the Push-Pull Messaging reproduction (Wong & Wang,
//! ICPP 1999).  It re-exports the workspace crates so examples, integration
//! tests and downstream users can depend on a single package:
//!
//! * [`core`] — the sans-I/O protocol engine (Push-Zero / Push-Pull /
//!   Push-All, BTP policy, go-back-N, zero-buffer descriptors), the typed
//!   operations layer (`SendOp`/`RecvOp` handles, completion queues,
//!   caller-owned receive buffers, wildcards, cancellation, vectored
//!   sends), and the object-safe [`RawTransport`] backend contract.
//! * [`sim`] — the paper's testbed as a discrete-event simulation
//!   plus the experiment harness for every figure, and the deterministic
//!   loopback binding of the operations API.
//! * [`host`] — the same engine over real shared memory
//!   (threads) and UDP sockets, including the many-peer
//!   [`host::Reactor`] backend (one event loop, batched
//!   `recvmmsg`/`sendmmsg` I/O, a shared timer wheel).
//! * [`transport`] — the generic [`Endpoint`]`<T: RawTransport>` front-end:
//!   blocking `send`/`recv`/`wait`, async futures, vectored sends, borrowed
//!   completion drains, and per-endpoint [`EndpointConfig`] overrides — all
//!   shared code over the backend core.  **The PR-3 `Transport` /
//!   `AsyncTransport` traits were replaced by this split; see the
//!   [migration guide](transport) in the module docs.**
//! * [`async_transport`] — the [`OpFuture`] completion future plus the
//!   [`block_on`] and [`Driver`] executors.
//! * [`executor`] — the multi-core side: the work-stealing [`Pool`]
//!   executor (per-worker FIFO deques, steal-half, shared injector) for
//!   `Send` futures; pairs with the sharded engine
//!   (`ppmsg_core::ShardedEngine`) so independent peers progress on
//!   different cores.
//! * [`timer`] — wall-clock futures over a timer wheel: [`sleep`] and
//!   [`timeout`], so an orphaned await can give up instead of waiting
//!   forever.
//! * [`coll`] — the collectives subsystem: process [`Group`]s with a
//!   reserved per-group tag space, and tree-structured broadcast / barrier /
//!   reduce / all-reduce / gather / scatter / all-to-all over any
//!   [`RawTransport`] backend, as futures and blocking calls.
//! * [`simsmp`] / [`simnet`] — the SMP-node and Fast-Ethernet substrates.
//!
//! See `README.md` for a quickstart and the `Transport` → `RawTransport` /
//! `Endpoint` migration table.

pub use ppmsg_core as core;
pub use ppmsg_host as host;
pub use ppmsg_sim as sim;
pub use simnet;
pub use simsmp;

pub mod async_transport;
pub mod coll;
pub mod executor;
pub mod timer;
pub mod transport;

pub use async_transport::{block_on, Driver, OpFuture};
pub use coll::{Group, GroupMember};
pub use executor::Pool;
pub use timer::{sleep, timeout, Elapsed, Sleep, Timeout};
pub use transport::{Endpoint, EndpointConfig, RawTransport};

/// The protocol types most users need, re-exported flat.
///
/// Note that [`Endpoint`] here is the generic transport front-end
/// ([`transport::Endpoint`]); the sans-I/O protocol engine it drives is
/// `ppmsg_core::Endpoint` (import it explicitly when
/// relaying actions by hand).
pub mod prelude {
    pub use crate::async_transport::{block_on, Driver, OpFuture};
    pub use crate::coll::{Group, GroupMember};
    pub use crate::executor::Pool;
    pub use crate::timer::{sleep, timeout, Elapsed};
    pub use crate::transport::{Endpoint, EndpointConfig, RawTransport};
    pub use ppmsg_core::{
        Action, BtpPolicy, Claim, Completion, OpId, OptFlags, ProcessId, ProtocolConfig,
        ProtocolMode, RecvBuf, RecvOp, ReliabilityMode, SendOp, Status, Tag, TruncationPolicy,
    };
    pub use ppmsg_host::{HostCluster, HostEndpoint, Reactor, ReactorEndpoint};
    pub use ppmsg_sim::{
        ChaosCluster, ChaosConfig, ChaosEndpoint, ChaosReport, ChaosStats, ClusterConfig,
        LoopbackCluster, LoopbackEndpoint, Op, ProcessScript, SimCluster,
    };
}
