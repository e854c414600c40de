//! The capability-split transport front-end: an object-safe backend core
//! ([`RawTransport`]) under a generic convenience layer ([`Endpoint`]).
//!
//! PR 4 replaced the monolithic 13-method `Transport` trait — which every
//! backend re-implemented verbatim in three near-identical delegation
//! blocks — with two layers:
//!
//! * [`RawTransport`] (defined in `ppmsg_core::transport`, implemented once
//!   per backend in the backend's own crate): the minimal, **object-safe**
//!   posting/polling core.  `Box<dyn RawTransport>` is a first-class
//!   backend, so heterogeneous endpoints can live behind one type.
//! * [`Endpoint`]`<T: RawTransport>`: everything else as **shared code** —
//!   blocking `send`/`recv`/[`Endpoint::wait`], the async
//!   [`OpFuture`] combinators, vectored
//!   sends, borrowed completion drains ([`Endpoint::peek_completions`]),
//!   and the per-endpoint [`EndpointConfig`] overrides.
//!
//! # Migrating from the PR-3 `Transport` / `AsyncTransport` traits
//!
//! `Transport` and `AsyncTransport` are gone.  Wrap any backend endpoint in
//! [`Endpoint::new`] (or construct it with a backend's `*_with` method and
//! [`EndpointConfig`]) and map methods as follows:
//!
//! | PR-3 surface                              | PR-4 replacement |
//! |-------------------------------------------|------------------|
//! | `impl Transport for MyBackend` (13 methods) | `impl RawTransport for MyBackend` (9 methods) |
//! | `Transport::post_send` / `post_recv` / `post_recv_into` | same names on [`RawTransport`] / [`Endpoint`] |
//! | `Transport::cancel`                       | [`RawTransport::cancel_recv`] / [`Endpoint::cancel`] |
//! | `Transport::cancel_send`                  | unchanged |
//! | `Transport::wait`                         | [`Endpoint::wait`] (waker-parked, shared across backends) |
//! | `Transport::drain_completions`            | [`RawTransport::drain_completions`] (provided) / [`Endpoint::drain_completions`] |
//! | `Transport::poll_completion` / `register_interest` / `deregister_interest` | provided methods on [`RawTransport`] |
//! | `Transport::send_blocking` / `recv_blocking` | [`Endpoint::send_blocking`] / [`Endpoint::recv_blocking`] |
//! | `AsyncTransport::send` / `recv` / `recv_into` | [`Endpoint::send`] / [`Endpoint::recv`] / [`Endpoint::recv_into`] |
//! | `OpFuture<'a, T: AsyncTransport>`         | `OpFuture<'a, T: RawTransport>` |
//! | — (new)                                   | [`Endpoint::post_send_vectored`] / [`Endpoint::send_vectored`] |
//! | — (new)                                   | [`Endpoint::peek_completions`] (borrowed drain, [`Claim`]) |
//! | — (new)                                   | [`EndpointConfig`] (retention cap, default truncation, GBN window, eager threshold) |
//! | — (new)                                   | `stats().completions_evicted` |
//!
//! ```
//! use push_pull_messaging::prelude::*;
//! use push_pull_messaging::core::{ANY_SOURCE, ANY_TAG};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! // The same function drives the sim-cluster binding here, and the
//! // intranode / UDP backends in the conformance tests.
//! fn exchange<T: RawTransport>(a: &Endpoint<T>, b: &Endpoint<T>) {
//!     let recv = b
//!         .post_recv(ANY_SOURCE, ANY_TAG, 1024, TruncationPolicy::Error)
//!         .unwrap();
//!     let send = a
//!         .post_send(b.local_id(), Tag(7), Bytes::from(vec![1u8; 512]))
//!         .unwrap();
//!     let timeout = Duration::from_secs(5);
//!     let done = b.wait(OpId::Recv(recv), timeout).expect("delivered");
//!     assert_eq!(done.status, Status::Ok);
//!     assert_eq!(done.tag, Tag(7));
//!     assert_eq!(done.data.unwrap().len(), 512);
//!     assert!(a.wait(OpId::Send(send), timeout).is_some());
//! }
//!
//! let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
//! let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
//! let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));
//! exchange(&a, &b);
//! ```

use crate::async_transport::{OpFuture, ThreadParker};
use bytes::Bytes;
use ppmsg_core::{
    Claim, Completion, EndpointStats, Error, OpId, ProcessId, RecvBuf, RecvOp, Result, SendOp,
    Status, Tag, TruncationPolicy,
};
use std::task::Waker;
use std::time::{Duration, Instant};

pub use ppmsg_core::{EndpointConfig, RawTransport};

/// Rejects a send tag in the reserved (collective) half of the tag space:
/// the front-end keeps user point-to-point traffic out of it so per-group
/// collective tags can never collide with application messages.  The
/// collectives layer posts through [`RawTransport`] directly.
#[inline]
fn check_send_tag(tag: Tag) -> Result<()> {
    if tag.is_reserved() {
        return Err(Error::ReservedTag { tag });
    }
    Ok(())
}

/// Rejects a reserved receive selector.  [`ppmsg_core::ANY_TAG`] is allowed
/// (it is a wildcard, not a tag on the wire) — and the matching engine
/// guarantees it never matches reserved-tag messages.
#[inline]
fn check_recv_tag(tag: Tag) -> Result<()> {
    if tag.is_reserved() && !tag.is_any() {
        return Err(Error::ReservedTag { tag });
    }
    Ok(())
}

/// The generic transport front-end: one convenience layer over any
/// [`RawTransport`] backend.
///
/// Everything the old `Transport`/`AsyncTransport` traits made each backend
/// re-derive lives here as shared code: blocking waits and conveniences,
/// async futures, vectored sends, batch and borrowed completion drains, and
/// per-endpoint defaults from [`EndpointConfig`].  The wrapped backend is a
/// plain value — `Endpoint<LoopbackEndpoint>`, `Endpoint<ReactorEndpoint>`,
/// `Endpoint<Box<dyn RawTransport>>` (see [`Endpoint::boxed`]) — and stays
/// accessible through [`Endpoint::raw`].
#[derive(Debug)]
pub struct Endpoint<T: RawTransport + ?Sized> {
    /// Default policy for the convenience receives that do not spell one
    /// out ([`Endpoint::recv_blocking`]).
    default_truncation: TruncationPolicy,
    raw: T,
}

impl<T: RawTransport + Clone> Clone for Endpoint<T> {
    fn clone(&self) -> Self {
        Endpoint {
            default_truncation: self.default_truncation,
            raw: self.raw.clone(),
        }
    }
}

impl<T: RawTransport> Endpoint<T> {
    /// Wraps a backend endpoint with default settings.
    pub fn new(raw: T) -> Self {
        Endpoint {
            default_truncation: TruncationPolicy::default(),
            raw,
        }
    }

    /// Wraps a backend endpoint and applies `config`'s front-end overrides:
    /// the completion-retention cap is applied to the live endpoint, and the
    /// default [`TruncationPolicy`] governs convenience receives.  (The
    /// protocol-level overrides — go-back-N window, eager threshold — must
    /// be applied at construction through a backend's `*_with` method; they
    /// shape the engine itself.)
    pub fn with_config(raw: T, config: &EndpointConfig) -> Self {
        let endpoint = Endpoint {
            default_truncation: config.default_truncation(),
            raw,
        };
        endpoint.apply_config(config);
        endpoint
    }

    /// Erases the backend type: the resulting endpoint routes through
    /// `Box<dyn RawTransport>`, so endpoints of *different* backends can
    /// share one concrete type (a routing table, a `Vec`, a trait-object
    /// fan-out).
    pub fn boxed(self) -> Endpoint<Box<dyn RawTransport>>
    where
        T: 'static,
    {
        Endpoint {
            default_truncation: self.default_truncation,
            raw: Box::new(self.raw),
        }
    }

    /// Unwraps the backend endpoint.
    pub fn into_inner(self) -> T {
        self.raw
    }
}

impl<T: RawTransport + ?Sized> Endpoint<T> {
    /// The wrapped backend endpoint.
    pub fn raw(&self) -> &T {
        &self.raw
    }

    /// Re-applies the front-end overrides of `config` to this endpoint (the
    /// retention cap takes effect immediately; protocol-level overrides are
    /// construction-time and ignored here).
    pub fn apply_config(&self, config: &EndpointConfig) {
        self.raw
            .with_completions(&mut |queue| config.apply_retention(queue));
    }

    /// The process id of this endpoint.
    pub fn local_id(&self) -> ProcessId {
        self.raw.local_id()
    }

    /// Protocol statistics, including
    /// [`completions_evicted`](EndpointStats::completions_evicted).
    pub fn stats(&self) -> EndpointStats {
        self.raw.stats()
    }

    // ------------------------------------------------------------------
    // Posting (delegated to the backend core).
    // ------------------------------------------------------------------

    /// Posts a send; see [`RawTransport::post_send`].
    pub fn post_send(&self, peer: ProcessId, tag: Tag, data: impl Into<Bytes>) -> Result<SendOp> {
        check_send_tag(tag)?;
        self.raw.post_send(peer, tag, data.into())
    }

    /// Posts a vectored send: the segments arrive as one concatenated
    /// message but are never coalesced on the wire; see
    /// [`RawTransport::post_send_vectored`].
    pub fn post_send_vectored(
        &self,
        peer: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<SendOp> {
        check_send_tag(tag)?;
        self.raw.post_send_vectored(peer, tag, segments)
    }

    /// Posts an engine-buffered receive (wildcards allowed); see
    /// [`RawTransport::post_recv`].
    pub fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        check_recv_tag(tag)?;
        self.raw.post_recv(src, tag, capacity, policy)
    }

    /// Posts a caller-buffered receive; see [`RawTransport::post_recv_into`].
    pub fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        check_recv_tag(tag)?;
        self.raw.post_recv_into(src, tag, buf, policy)
    }

    /// Cancels a still-unmatched receive; see [`RawTransport::cancel_recv`].
    pub fn cancel(&self, op: RecvOp) -> bool {
        self.raw.cancel_recv(op)
    }

    /// Cancels a posted send whose remainder has not been pulled yet; see
    /// [`RawTransport::cancel_send`].
    pub fn cancel_send(&self, op: SendOp) -> bool {
        self.raw.cancel_send(op)
    }

    // ------------------------------------------------------------------
    // Completion access (shared code over `RawTransport::with_completions`).
    // ------------------------------------------------------------------

    /// Takes the completion of `op` if the operation has finished, without
    /// blocking.
    pub fn take_completion(&self, op: OpId) -> Option<Completion> {
        self.raw.take_completion(op)
    }

    /// The poll primitive behind the async front-end; see
    /// [`RawTransport::poll_completion`].
    pub fn poll_completion(&self, op: OpId, waker: &Waker) -> Option<Completion> {
        self.raw.poll_completion(op, waker)
    }

    /// Drains every unclaimed completion into `out`, oldest first — except
    /// completions some waiter has registered for (a parked future or a
    /// blocking [`Endpoint::wait`]), which stay queued for that waiter.
    /// Note the endpoint's **retention cap**
    /// ([`ppmsg_core::DEFAULT_COMPLETION_RETENTION`], configurable through
    /// [`EndpointConfig::completion_retention`]): completions of operations
    /// nobody waits for are evicted oldest-first beyond it — observably, via
    /// [`EndpointStats::completions_evicted`].
    pub fn drain_completions(&self, out: &mut Vec<Completion>) {
        self.raw.drain_completions(out);
    }

    /// Shows every unclaimed, unawaited completion to `f` **by reference**,
    /// oldest first — the borrowed drain: nothing is moved, so a
    /// multi-fragment pulled receive can be inspected (status, peer, payload
    /// bytes) without its [`RecvBuf`] or `Bytes` leaving the queue.  Return
    /// [`Claim::Keep`] to preserve a completion for a later
    /// [`Endpoint::wait`]/[`Endpoint::take_completion`], [`Claim::Remove`]
    /// to consume and drop it in place.
    pub fn peek_completions(&self, mut f: impl FnMut(&Completion) -> Claim) {
        self.raw.peek_completions(&mut f);
    }

    /// Waits until operation `op` completes, returning its completion, or
    /// `None` when `timeout` expires first.
    ///
    /// This is shared code over every backend: the calling thread registers
    /// a parking waker in the endpoint's completion queue (which also
    /// exempts the completion from retention eviction) and parks until the
    /// backend publishes the completion or the deadline passes.  The
    /// registration is **polite** ([`ppmsg_core::WaitPoll`]): if another
    /// task — a live [`OpFuture`] — is already registered for `op`, `wait`
    /// neither displaces its waker nor steals its completion; it re-polls
    /// periodically and, if the other waiter claims the result, returns
    /// `None` at the deadline.
    ///
    /// A completion that was **already evicted** before any waiter appeared
    /// is gone: `wait` then blocks the full timeout and returns `None` even
    /// though the operation succeeded — claim completions promptly, or
    /// register the wait before flooding the endpoint.
    pub fn wait(&self, op: OpId, timeout: Duration) -> Option<Completion> {
        use ppmsg_core::WaitPoll;
        /// Re-poll cadence while another task owns the operation's waker
        /// registration (we must not replace it, so publication cannot wake
        /// us directly).
        const OCCUPIED_POLL: Duration = Duration::from_millis(2);
        let deadline = Instant::now() + timeout;
        // The thread-local parker: a blocking-wait loop pays refcount bumps,
        // not an `Arc` allocation per call (ROADMAP PR-4 item).
        let parker = ThreadParker::cached();
        let waker = Waker::from(parker.clone());
        loop {
            let mut poll = WaitPoll::Occupied;
            self.raw
                .with_completions(&mut |queue| poll = queue.take_or_wait(op, &waker));
            let now = Instant::now();
            match poll {
                WaitPoll::Ready(completion) => return Some(completion),
                WaitPoll::Registered => {
                    if now >= deadline {
                        // Withdraw our registration (and only ours — the
                        // registration may meanwhile have gone to a future):
                        // an abandoned wait must not pin its completion.  A
                        // completion published between the failed poll and
                        // the deregistration is still claimed by the final
                        // take.
                        let mut out = None;
                        self.raw.with_completions(&mut |queue| {
                            queue.deregister_waiter(op, &waker);
                            out = queue.take(op);
                        });
                        return out;
                    }
                    parker.wait_until(deadline);
                }
                WaitPoll::Occupied => {
                    // A future owns the registration; let it win the claim
                    // and check back periodically in case it is abandoned.
                    if now >= deadline {
                        return None;
                    }
                    parker.wait_until(deadline.min(now + OCCUPIED_POLL));
                }
            }
        }
    }

    /// Convenience: posts a send and blocks until it completes, returning
    /// the number of bytes handed to the transport.
    pub fn send_blocking(
        &self,
        peer: ProcessId,
        tag: Tag,
        data: impl Into<Bytes>,
        timeout: Duration,
    ) -> Option<usize> {
        let op = self.post_send(peer, tag, data).ok()?;
        self.wait(OpId::Send(op), timeout).map(|c| c.len)
    }

    /// Convenience: posts a receive (with this endpoint's default
    /// [`TruncationPolicy`], see [`EndpointConfig::truncation`]) and blocks
    /// until the message arrives, returning its bytes (`None` on timeout,
    /// cancellation, or failure).
    pub fn recv_blocking(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        timeout: Duration,
    ) -> Option<Bytes> {
        let op = self
            .post_recv(src, tag, capacity, self.default_truncation)
            .ok()?;
        let completion = self.wait(OpId::Recv(op), timeout)?;
        match completion.status {
            Status::Ok | Status::Truncated { .. } => completion.data,
            Status::Cancelled | Status::Error(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Async combinators (futures resolved from the completion queue; see
    // `crate::async_transport`).
    // ------------------------------------------------------------------

    /// Posts a send and returns a future resolving to its [`Completion`]
    /// when the message has been fully handed to the transport (for
    /// Push-Pull sends, when the receiver has pulled the remainder).
    pub fn send(
        &self,
        peer: ProcessId,
        tag: Tag,
        data: impl Into<Bytes>,
    ) -> Result<OpFuture<'_, T>> {
        check_send_tag(tag)?;
        let op = self.raw.post_send(peer, tag, data.into())?;
        Ok(OpFuture::new(&self.raw, OpId::Send(op)))
    }

    /// Posts a vectored send and returns a future resolving to its
    /// [`Completion`].
    pub fn send_vectored(
        &self,
        peer: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<OpFuture<'_, T>> {
        check_send_tag(tag)?;
        let op = self.raw.post_send_vectored(peer, tag, segments)?;
        Ok(OpFuture::new(&self.raw, OpId::Send(op)))
    }

    /// Posts an engine-buffered receive (wildcards allowed) and returns a
    /// future resolving to its [`Completion`]; the message bytes arrive in
    /// the completion's `data` field.
    pub fn recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<OpFuture<'_, T>> {
        check_recv_tag(tag)?;
        let op = self.raw.post_recv(src, tag, capacity, policy)?;
        Ok(OpFuture::new(&self.raw, OpId::Recv(op)))
    }

    /// Posts a caller-buffered receive and returns a future resolving to its
    /// [`Completion`]; the buffer comes back in the completion's `buf` field
    /// (also on cancellation and failure), so one buffer can be recycled
    /// across awaits indefinitely.
    pub fn recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<OpFuture<'_, T>> {
        check_recv_tag(tag)?;
        let op = self.raw.post_recv_into(src, tag, buf, policy)?;
        Ok(OpFuture::new(&self.raw, OpId::Recv(op)))
    }

    /// Wraps an already-posted operation (e.g. one posted through the
    /// blocking API, or re-awaited after its future was dropped) so its
    /// completion can be awaited.
    pub fn future(&self, op: OpId) -> OpFuture<'_, T> {
        OpFuture::new(&self.raw, op)
    }
}
