//! # ppmsg-host — Push-Pull Messaging over real OS primitives
//!
//! The simulator (`ppmsg-sim`) reproduces the paper's 1999 testbed; this
//! crate shows the same protocol engine driving *real* transports so the
//! library is usable as an actual messaging layer:
//!
//! * **intranode**: processes within one OS process (threads) exchange
//!   packets through an in-memory "kernel agent" of locked per-rank
//!   engines — the moral equivalent of the paper's shared-memory path (a
//!   user-space library cannot observe physical addresses, so the
//!   cross-space zero buffer degenerates to passing `Bytes` handles, which
//!   is also a one-copy transfer);
//! * **internode**: endpoints bound to UDP sockets (loopback or a real
//!   network) exchange ARQ-framed packets; one [`Reactor`] event loop
//!   drives every endpoint ([`ReactorEndpoint`]) with batched
//!   `recvmmsg`/`sendmmsg` I/O and a shared timer wheel.
//!
//! The public entry points are [`HostCluster`] / [`HostEndpoint`] for the
//! intranode fabric and [`Reactor`] / [`ReactorEndpoint`] for socket-based
//! internode channels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod intranode;
mod reactor;

pub use intranode::{HostCluster, HostEndpoint};
pub use reactor::{Reactor, ReactorEndpoint, ReactorMetrics};

pub use ppmsg_core::{ProcessId, ProtocolConfig, ProtocolMode, Tag};
