//! Regression tests for the wake-up loops the model checker verifies in
//! miniature (`tests/model_executor.rs`, `crates/core/tests/model_check.rs`),
//! run here at full scale on the real primitives: `Pool::wait_idle` under
//! many concurrent waiters and task bursts, and the `CompletionMailbox`
//! sweep under concurrent producers.  Both paths park on condvars whose
//! waits may return spuriously — a wait that fails to re-check its
//! predicate passes the model harness's small schedules only by luck, and
//! shows up here as an early return (assert) or a hang (test timeout).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

use push_pull_messaging::core::ops::{Completion, CompletionMailbox, OpId, SendOp, Status};
use push_pull_messaging::core::{ProcessId, Tag};
use push_pull_messaging::Pool;

#[test]
fn wait_idle_with_concurrent_waiters_and_bursts() {
    let pool = Arc::new(Pool::new(4));
    let done = Arc::new(AtomicUsize::new(0));
    const BURSTS: usize = 20;
    const TASKS: usize = 50;

    // Several threads call `wait_idle` concurrently while bursts of tasks
    // are still being spawned: every call must return (a lost wake-up hangs
    // the test).  A waiter cannot assert the pool is idle — the spawner may
    // already be spawning the next burst — so idleness is asserted only
    // where no spawner can run.
    let waiters: Vec<_> = (0..3)
        .map(|_| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for _ in 0..BURSTS {
                    pool.wait_idle();
                }
            })
        })
        .collect();

    for _ in 0..BURSTS {
        for _ in 0..TASKS {
            let done = Arc::clone(&done);
            pool.spawn(async move {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
    }
    // The spawner's final `wait_idle`: nothing can spawn any more.
    assert_eq!(pool.live(), 0, "wait_idle returned with live tasks");
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(pool.live(), 0);
    assert_eq!(done.load(Ordering::SeqCst), BURSTS * TASKS);
}

fn completion(slot: u32) -> Completion {
    Completion {
        op: OpId::Send(SendOp::from_raw(slot, 0)),
        peer: ProcessId::new(0, 1),
        tag: Tag(1),
        len: 0,
        status: Status::Ok,
        data: None,
        buf: None,
    }
}

/// A parker whose waits can be exercised heavily: waking sets a flag the
/// waiter spins-then-yields on, so a lost wake stalls the test visibly
/// rather than deadlocking a condvar.
struct YieldPark {
    woke: AtomicBool,
}

impl Wake for YieldPark {
    fn wake(self: Arc<Self>) {
        self.woke.store(true, Ordering::SeqCst);
    }
}

#[test]
fn mailbox_sweep_under_concurrent_producers() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u32 = 500;
    let mb = Arc::new(CompletionMailbox::new(PRODUCERS));
    let posters: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for i in 0..PER_PRODUCER {
                    batch.push(completion(p as u32 * PER_PRODUCER + i));
                    mb.post(p, &mut batch);
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let park = Arc::new(YieldPark {
        woke: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&park));
    let mut claimed = 0u32;
    for p in 0..PRODUCERS as u32 {
        for i in 0..PER_PRODUCER {
            let op = OpId::Send(SendOp::from_raw(p * PER_PRODUCER + i, 0));
            loop {
                let mut got = false;
                mb.with(&mut |q| {
                    if q.take_or_register(op, &waker).is_some() {
                        got = true;
                    }
                });
                if got {
                    claimed += 1;
                    break;
                }
                while !park.woke.swap(false, Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        }
    }
    assert_eq!(claimed, PRODUCERS as u32 * PER_PRODUCER);
    for poster in posters {
        poster.join().unwrap();
    }
}
