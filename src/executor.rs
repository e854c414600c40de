//! The multi-core executor: a work-stealing thread pool next to the
//! single-threaded [`Driver`](crate::async_transport::Driver).
//!
//! [`Pool`] spawns `Send` futures onto N worker threads.  Each worker owns a
//! FIFO run queue; tasks spawned or woken from outside the pool land in a
//! shared injector, tasks woken on a worker (the overwhelmingly common case:
//! a completion published while that worker runs the backend) go to the
//! waking worker's own queue.  A worker out of local work drains the
//! injector, then **steals half** of a sibling's queue — half, not one, so a
//! single imbalanced producer amortises the steal lock over many tasks.
//!
//! ## Task lifecycle — stale wakes are no-ops
//!
//! Every spawned task lives in a reference-counted cell whose scheduling
//! state is a single atomic: `Idle → Scheduled → Running → {Idle, Complete}`,
//! with `Notified` recording a wake that arrived mid-poll.  A waker is just a
//! handle on the cell, so a wake for a task that already completed (or is
//! already queued) finds the terminal/queued state and does nothing — the
//! same stale-wake immunity the single-threaded `Driver` gets from its
//! generation-checked slots, enforced here by the state machine because
//! cells are never reused.  The transitions guarantee a task is **enqueued
//! at most once** at any instant, so two workers can never poll the same
//! future concurrently.
//!
//! ## Picking `Driver` vs `Pool`
//!
//! The `Driver` is deterministic (same spawn order ⇒ same interleaving on
//! the loopback backend) and works with `!Send` futures; use it for tests
//! and single-core progress loops.  The `Pool` requires `Send` futures and
//! trades determinism for parallelism: with the sharded engine
//! ([`ShardedEngine`](ppmsg_core::ShardedEngine)), independent peers'
//! protocol work runs concurrently on different workers.
//!
//! ```
//! use push_pull_messaging::prelude::*;
//! use push_pull_messaging::executor::Pool;
//! use bytes::Bytes;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
//! let a = Arc::new(Endpoint::new(cluster.add_endpoint(0)));
//! let b = Arc::new(Endpoint::new(cluster.add_endpoint(1)));
//!
//! let pool = Pool::new(2);
//! let delivered = Arc::new(AtomicUsize::new(0));
//! for tag in 0..4u32 {
//!     let (a, b, delivered) = (a.clone(), b.clone(), delivered.clone());
//!     pool.spawn(async move {
//!         let recv = b
//!             .recv(a.local_id(), Tag(tag), 64, TruncationPolicy::Error)
//!             .unwrap();
//!         a.send(b.local_id(), Tag(tag), Bytes::from(vec![tag as u8; 16]))
//!             .unwrap()
//!             .await;
//!         assert_eq!(recv.await.data.unwrap().len(), 16);
//!         delivered.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.wait_idle();
//! assert_eq!(delivered.load(Ordering::Relaxed), 4);
//! ```

use ppmsg_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use ppmsg_check::sync::{Condvar, Mutex};
#[cfg(not(ppmsg_check))]
use ppmsg_core::telemetry::{self, EventKind};
use ppmsg_core::telemetry::{Counter, LogHistogram};
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

pub use task_state::{TaskState, WakeAction};

/// The task scheduling state machine, extracted from the pool's `TaskCell` so the
/// bounded model checker (`ppmsg-check`) can drive it through instrumented
/// atomics without spinning up OS worker threads.  Public but hidden: it is
/// an implementation detail exposed only for the model harnesses.
#[doc(hidden)]
pub mod task_state {
    use ppmsg_check::sync::atomic::{AtomicU8, Ordering};

    // Task lifecycle states (see the executor module docs).
    const IDLE: u8 = 0;
    const SCHEDULED: u8 = 1;
    const RUNNING: u8 = 2;
    const NOTIFIED: u8 = 3;
    const COMPLETE: u8 = 4;

    /// Sabotage knobs for the model-checker teeth tests: each weakens the
    /// state machine in a way the checker must catch.  Plain `std` atomics
    /// on purpose — reading a knob must not be a model yield point.
    #[cfg(ppmsg_check)]
    pub mod sabotage {
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Drop a wake that lands mid-poll instead of recording `Notified`
        /// — the canonical lost-wakeup bug.
        pub static DROP_NOTIFIED: AtomicBool = AtomicBool::new(false);
        /// Replace the `IDLE -> SCHEDULED` compare-exchange with a racy
        /// load-then-store, letting two wakers both claim the enqueue.
        pub static WAKE_NOT_ATOMIC: AtomicBool = AtomicBool::new(false);

        pub(super) fn drop_notified() -> bool {
            DROP_NOTIFIED.load(Ordering::Relaxed)
        }
        pub(super) fn wake_not_atomic() -> bool {
            WAKE_NOT_ATOMIC.load(Ordering::Relaxed)
        }

        /// Restore the honest state machine (call between harness runs).
        pub fn reset() {
            DROP_NOTIFIED.store(false, Ordering::Relaxed);
            WAKE_NOT_ATOMIC.store(false, Ordering::Relaxed);
        }
    }

    /// What the caller of [`TaskState::wake`] must do.
    #[derive(Debug, PartialEq, Eq)]
    pub enum WakeAction {
        /// This wake won the `IDLE -> SCHEDULED` transition: enqueue the
        /// task exactly once.
        Enqueue,
        /// The wake was absorbed (already queued, mid-poll, or complete).
        None,
    }

    /// The atomic scheduling state that makes task wakes idempotent: any
    /// number of concurrent wakes produce at most one enqueue, and a wake
    /// racing a poll is never lost (the poller re-enqueues via `Notified`).
    #[derive(Debug)]
    pub struct TaskState {
        state: AtomicU8,
    }

    impl TaskState {
        /// A freshly spawned task: already queued by its spawner.
        pub fn new_scheduled() -> TaskState {
            TaskState {
                state: AtomicU8::new(SCHEDULED),
            }
        }

        /// A wake: claims the enqueue unless the task is already queued,
        /// finished, or mid-poll (then the poller reschedules it itself
        /// via `Notified`).
        pub fn wake(&self) -> WakeAction {
            loop {
                #[cfg(ppmsg_check)]
                if sabotage::wake_not_atomic() {
                    // BUG (sabotage): load-then-store lets two wakers both
                    // observe IDLE and both claim the enqueue.
                    if self.state.load(Ordering::SeqCst) == IDLE {
                        self.state.store(SCHEDULED, Ordering::SeqCst);
                        return WakeAction::Enqueue;
                    }
                }
                match self.state.compare_exchange(
                    IDLE,
                    SCHEDULED,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return WakeAction::Enqueue,
                    Err(RUNNING) => {
                        #[cfg(ppmsg_check)]
                        if sabotage::drop_notified() {
                            // BUG (sabotage): a wake racing the poll is
                            // silently dropped — the classic lost wakeup.
                            return WakeAction::None;
                        }
                        if self
                            .state
                            .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            return WakeAction::None;
                        }
                        // Lost a race with the poller settling the state;
                        // retry from the top.
                    }
                    // Already queued, already notified, or already
                    // finished: this wake has nothing to add.
                    Err(_) => return WakeAction::None,
                }
            }
        }

        /// The worker dequeued this task and is about to poll it.
        pub fn begin_poll(&self) {
            self.state.store(RUNNING, Ordering::SeqCst);
        }

        /// The poll returned `Pending`.  Returns `true` when a wake raced
        /// the poll (`Notified`) and the caller must re-enqueue now.
        pub fn finish_poll_pending(&self) -> bool {
            if self
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                self.state.store(SCHEDULED, Ordering::SeqCst);
                return true;
            }
            false
        }

        /// The poll returned `Ready`: the task is done, later wakes no-op.
        pub fn finish_poll_complete(&self) {
            self.state.store(COMPLETE, Ordering::SeqCst);
        }

        /// Retires the task without polling (pool gone, queue dropped).
        pub fn force_complete(&self) {
            self.state.store(COMPLETE, Ordering::SeqCst);
        }

        /// Whether the task has finished.
        pub fn is_complete(&self) -> bool {
            self.state.load(Ordering::SeqCst) == COMPLETE
        }
    }
}

/// One spawned task: its future and the atomic scheduling state that makes
/// wakes idempotent.  The waker for the task is the cell itself.
struct TaskCell {
    state: TaskState,
    /// `None` once the task completed (the future is dropped eagerly, not
    /// kept until the last waker dies).  The mutex is uncontended by
    /// construction — the state machine admits one poller at a time — and
    /// exists to make the cell `Sync` without `unsafe`.
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    pool: Weak<PoolShared>,
}

impl TaskCell {
    /// A wake: schedules the task unless it is already queued, finished, or
    /// mid-poll (then the poller reschedules it itself via `Notified`).
    fn schedule(self: &Arc<Self>) {
        match self.state.wake() {
            WakeAction::Enqueue => {
                if let Some(pool) = self.pool.upgrade() {
                    pool.enqueue(self.clone());
                } else {
                    // The pool is gone: the task can never run again.
                    self.state.force_complete();
                    *self.future.lock() = None;
                }
            }
            WakeAction::None => {}
        }
    }
}

impl Wake for TaskCell {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// The pool's metrics plane: scheduling counters and a queue-depth
/// histogram, recordable lock-free from every worker and snapshot-able via
/// [`Pool::metrics`].  All fields are zero-cost no-ops when the `telemetry`
/// feature is off, and the bumps are compiled out entirely under
/// `--cfg ppmsg_check` so model runs of the pool keep their state space.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Tasks spawned onto the pool.
    pub spawns: Counter,
    /// Steal operations that found a victim (each moves half a queue).
    pub steals: Counter,
    /// Tasks moved by steals — `stolen_tasks / steals` is the mean batch.
    pub stolen_tasks: Counter,
    /// Times a worker went to sleep with no work anywhere.
    pub parks: Counter,
    /// Queued-task count observed at each enqueue (scheduling pressure).
    pub queue_depth: LogHistogram,
}

/// State shared by the workers, spawners and wakers.
struct PoolShared {
    /// Per-worker FIFO run queues.
    locals: Box<[Mutex<VecDeque<Arc<TaskCell>>>]>,
    /// Overflow/entry queue for tasks spawned or woken off-pool.
    injector: Mutex<VecDeque<Arc<TaskCell>>>,
    /// Tasks sitting in some queue right now.  Paired with `sleepers` in a
    /// two-flag handshake (both `SeqCst`): an enqueuer bumps `pending` then
    /// reads `sleepers`; a worker registers in `sleepers` then re-reads
    /// `pending` — in the single total order at least one side sees the
    /// other, so no task is left queued with every worker asleep.
    pending: AtomicUsize,
    /// Workers parked on `park_cv`.
    sleepers: AtomicUsize,
    /// Spawned-but-not-completed tasks (queued, mid-poll, *or* idle awaiting
    /// an external wake) — what [`Pool::wait_idle`] waits on.
    live: AtomicUsize,
    shutdown: AtomicBool,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    metrics: PoolMetrics,
}

std::thread_local! {
    /// `(pool identity, worker index)` when the current thread is a pool
    /// worker — wakes on a worker thread go to its own run queue.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

impl PoolShared {
    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn enqueue(self: &Arc<Self>, task: Arc<TaskCell>) {
        let me = self.identity();
        let slot = CURRENT_WORKER.with(|w| match w.get() {
            Some((pool, worker)) if pool == me => Some(worker),
            _ => None,
        });
        match slot {
            Some(worker) => self.locals[worker].lock().push_back(task),
            None => self.injector.lock().push_back(task),
        }
        // The task is visible before `pending` counts it, so a worker may
        // already have taken it and counted it out: `pending` then reads
        // `usize::MAX` for a moment (the atomics wrap; a worker that sees it
        // merely looks for work once more) and the sum here wraps to 0.
        let queued = self.pending.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        #[cfg(not(ppmsg_check))]
        self.metrics.queue_depth.record(queued as u64);
        #[cfg(ppmsg_check)]
        let _ = queued;
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Notify under the park lock so a worker between its `pending`
            // re-check and its condvar wait cannot miss this signal.
            let _guard = self.park_lock.lock();
            self.park_cv.notify_one();
        }
    }

    /// Dequeues the next task for `worker`: own queue, then the injector,
    /// then half of the first non-empty sibling queue.
    fn find_work(&self, worker: usize) -> Option<Arc<TaskCell>> {
        if let Some(task) = self.locals[worker].lock().pop_front() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(task);
        }
        if let Some(task) = self.injector.lock().pop_front() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(task);
        }
        let n = self.locals.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            let mut stolen = {
                let mut queue = self.locals[victim].lock();
                let len = queue.len();
                if len == 0 {
                    continue;
                }
                // Steal the older half (rounded up) from the queue front,
                // preserving FIFO order on both sides of the split.
                queue.drain(..len.div_ceil(2)).collect::<VecDeque<_>>()
            };
            let task = stolen.pop_front().expect("stole at least one task");
            self.pending.fetch_sub(1, Ordering::SeqCst);
            #[cfg(not(ppmsg_check))]
            {
                self.metrics.steals.inc();
                self.metrics.stolen_tasks.add(1 + stolen.len() as u64);
                telemetry::event(
                    EventKind::ExecutorSteal,
                    worker as u32,
                    victim as u32,
                    1 + stolen.len() as u64,
                );
            }
            if !stolen.is_empty() {
                self.locals[worker].lock().append(&mut stolen);
            }
            return Some(task);
        }
        None
    }

    fn retire_task(&self) {
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Polls one dequeued task.  On `Pending`, settles the state machine: a
    /// wake that raced the poll (`Notified`) re-enqueues immediately.
    fn run_task(self: &Arc<Self>, task: Arc<TaskCell>) {
        task.state.begin_poll();
        let waker = Waker::from(task.clone());
        let mut cx = Context::from_waker(&waker);
        let mut future = task.future.lock();
        let Some(fut) = future.as_mut() else {
            // Unreachable by construction; tolerate it rather than poison.
            task.state.force_complete();
            return;
        };
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                *future = None;
                drop(future);
                task.state.finish_poll_complete();
                self.retire_task();
            }
            Poll::Pending => {
                drop(future);
                if task.state.finish_poll_pending() {
                    // A wake arrived mid-poll (`Notified`): requeue now.
                    self.enqueue(task);
                }
            }
        }
    }

    fn worker_loop(self: &Arc<Self>, worker: usize) {
        CURRENT_WORKER.with(|w| w.set(Some((self.identity(), worker))));
        loop {
            if let Some(task) = self.find_work(worker) {
                self.run_task(task);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Two-flag handshake with `enqueue` (see `pending`): register as
            // a sleeper first, then re-check for work before waiting.
            let guard = self.park_lock.lock();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.pending.load(Ordering::SeqCst) == 0 && !self.shutdown.load(Ordering::SeqCst) {
                #[cfg(not(ppmsg_check))]
                {
                    self.metrics.parks.inc();
                    telemetry::event(EventKind::ExecutorPark, worker as u32, 0, 0);
                }
                let _unused = self.park_cv.wait(guard);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A work-stealing executor: N worker threads, per-worker FIFO run queues,
/// a shared injector, steal-half balancing.  See the [module docs](self)
/// for the scheduling model and for when to prefer the single-threaded
/// [`Driver`](crate::async_transport::Driver).
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Starts a pool of `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            locals: (0..workers)
                .map(|_| Mutex::new("pool.local", VecDeque::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            injector: Mutex::new("pool.injector", VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            park_lock: Mutex::new("pool.park", ()),
            park_cv: Condvar::new(),
            idle_lock: Mutex::new("pool.idle", ()),
            idle_cv: Condvar::new(),
            metrics: PoolMetrics::default(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ppmsg-pool-{index}"))
                    .spawn(move || shared.worker_loop(index))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// Spawned tasks that have not completed yet (queued, running, or idle
    /// awaiting a wake).
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Spawns a task onto the pool.  Unlike
    /// [`Driver::spawn`](crate::async_transport::Driver::spawn) the future
    /// must be `Send` — it may be polled from any worker thread, a different
    /// one after every suspension.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        let task = Arc::new(TaskCell {
            state: TaskState::new_scheduled(),
            future: Mutex::new("pool.task", Some(Box::pin(future))),
            pool: Arc::downgrade(&self.shared),
        });
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        #[cfg(not(ppmsg_check))]
        {
            self.shared.metrics.spawns.inc();
            telemetry::event(EventKind::ExecutorSpawn, 0, 0, self.live() as u64);
        }
        self.shared.enqueue(task);
    }

    /// The pool's live metrics plane — scheduling counters and the
    /// queue-depth histogram, snapshot-able while workers run.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.shared.metrics
    }

    /// Blocks until every spawned task has completed — including tasks idle
    /// in an `await`, which finish when their backend wakes them.
    pub fn wait_idle(&self) {
        let mut guard = self.shared.idle_lock.lock();
        while self.shared.live.load(Ordering::SeqCst) > 0 {
            guard = self.shared.idle_cv.wait(guard);
        }
    }
}

impl Drop for Pool {
    /// Stops the workers and joins them.  Tasks still queued or suspended
    /// are **cancelled** (their futures dropped); call [`Pool::wait_idle`]
    /// first to run everything to completion.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.park_lock.lock();
            self.shared.park_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
        // Drop abandoned futures deterministically (a suspended task's
        // waker may otherwise keep its cell alive past the pool).
        for queue in self.shared.locals.iter() {
            queue.lock().clear();
        }
        self.shared.injector.lock().clear();
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers())
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_plain_tasks_to_completion() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = counter.clone();
            pool.spawn(async move {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.live(), 0);
    }

    /// A future that suspends `yields` times, waking itself from a thread.
    struct ExternalYield {
        yields: usize,
    }

    impl Future for ExternalYield {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yields == 0 {
                return Poll::Ready(());
            }
            self.yields -= 1;
            let waker = cx.waker().clone();
            std::thread::spawn(move || waker.wake());
            Poll::Pending
        }
    }

    #[test]
    fn external_wakes_resume_tasks() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = counter.clone();
            pool.spawn(async move {
                ExternalYield { yields: 3 }.await;
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn single_worker_pool_still_progresses() {
        let pool = Pool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let counter = counter.clone();
            pool.spawn(async move {
                ExternalYield { yields: 2 }.await;
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn drop_cancels_queued_tasks() {
        // A task suspended forever must not hang Drop.
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let pool = Pool::new(2);
        pool.spawn(Never);
        drop(pool);
    }

    #[test]
    fn wake_after_completion_is_a_no_op() {
        let pool = Pool::new(1);
        let stash: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new("test.stash", None));
        struct Stash {
            stash: Arc<Mutex<Option<Waker>>>,
            polled: bool,
        }
        impl Future for Stash {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                *self.stash.lock() = Some(cx.waker().clone());
                if self.polled {
                    return Poll::Ready(());
                }
                self.polled = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        pool.spawn(Stash {
            stash: stash.clone(),
            polled: false,
        });
        pool.wait_idle();
        // The task completed; its stashed waker must be inert.
        stash.lock().take().unwrap().wake();
        pool.wait_idle();
        assert_eq!(pool.live(), 0);
    }
}
