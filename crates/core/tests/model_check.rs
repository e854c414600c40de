//! Bounded model checking of the [`CompletionMailbox`] publish-vs-park
//! handshake.  Build with `RUSTFLAGS="--cfg ppmsg_check"`; the harnesses
//! explore every interleaving (up to the preemption bound) of producers
//! posting completions against consumers registering wakers and parking,
//! under the checker's TSO store-buffer memory model.
//!
//! A one-producer mailbox is one locked queue (no inboxes, no flags); the
//! one-producer harnesses check that direct path, the multi-producer ones
//! the inbox hand-off and its two-flag handshake.
//!
//! The sabotage variants re-run the multi-producer protocol with a knob
//! flipped in `ops::sabotage` — a `SeqCst -> Relaxed` downgrade of the
//! two-flag handshake, and a dropped consumer re-check — and assert the
//! checker reports the resulting lost wake-up as a deadlock.  If one of
//! these stops failing, the checker has lost its teeth.
#![cfg(ppmsg_check)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ppmsg_check::sync::{Condvar, Mutex};
use ppmsg_check::{thread, Model};
use ppmsg_core::ops::sabotage;
use ppmsg_core::{Completion, CompletionMailbox, OpId, ProcessId, SendOp, Status, Tag};

/// Sabotage knobs are process-global: every test (clean ones included)
/// serializes on this lock so a flipped knob cannot leak into a neighbour
/// running on another test thread.
static KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct KnobGuard<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

fn hold_knobs() -> KnobGuard<'static> {
    let guard = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    sabotage::reset();
    KnobGuard { _guard: guard }
}

impl Drop for KnobGuard<'_> {
    fn drop(&mut self) {
        sabotage::reset();
    }
}

fn completion(slot: u32) -> Completion {
    Completion {
        op: OpId::Send(SendOp::from_raw(slot, 0)),
        peer: ProcessId::new(0, 1),
        tag: Tag(7),
        len: 0,
        status: Status::Ok,
        data: None,
        buf: None,
    }
}

/// A model-instrumented parker usable as a [`std::task::Waker`]: wakes go
/// through the shim mutex/condvar, so the checker sees (and schedules
/// around) the park/wake handshake exactly like a real executor's.
struct Park {
    woke: Mutex<bool>,
    cv: Condvar,
}

impl Park {
    fn new() -> Park {
        Park {
            woke: Mutex::new("test.park", false),
            cv: Condvar::new(),
        }
    }

    fn wait_and_reset(&self) {
        let mut g = self.woke.lock();
        while !*g {
            g = self.cv.wait(g);
        }
        *g = false;
    }
}

impl std::task::Wake for Park {
    fn wake(self: Arc<Self>) {
        let mut g = self.woke.lock();
        *g = true;
        self.cv.notify_one();
    }
}

/// `producers` producers each posting `per_producer` completions, one
/// consumer claiming them via `take_or_register` + park.  The protocol must
/// complete under every interleaving — a lost wake-up surfaces as a model
/// deadlock.
fn mailbox_round_trip(producers: usize, per_producer: u32) -> impl Fn() + Send + Sync + 'static {
    move || {
        let mb = Arc::new(CompletionMailbox::new(producers));
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    let mut batch = Vec::new();
                    for i in 0..per_producer {
                        batch.push(completion(p as u32 * 100 + i));
                        mb.post(p, &mut batch);
                    }
                })
            })
            .collect();
        let park = Arc::new(Park::new());
        let waker = std::task::Waker::from(Arc::clone(&park));
        let total = producers as u32 * per_producer;
        let mut claimed = 0;
        for p in 0..producers as u32 {
            for i in 0..per_producer {
                let op = OpId::Send(SendOp::from_raw(p * 100 + i, 0));
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
                    park.wait_and_reset();
                }
            }
        }
        assert_eq!(claimed, total);
        for h in handles {
            h.join();
        }
    }
}

fn expect_deadlock<F: Fn() + Send + Sync + 'static>(model: Model, f: F) {
    let result = catch_unwind(AssertUnwindSafe(|| model.check(f)));
    let payload = match result {
        Ok(stats) => panic!(
            "model checker missed the lost wake-up ({} executions explored clean)",
            stats.executions
        ),
        Err(p) => p,
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("deadlock"),
        "expected a deadlock report, got:\n{msg}"
    );
}

#[test]
fn mailbox_handshake_exhaustive() {
    let _knobs = hold_knobs();
    let stats = Model::new().check(mailbox_round_trip(1, 1));
    assert!(
        stats.executions > 1,
        "producer/consumer race admits more than one schedule"
    );
}

#[test]
fn mailbox_reregistration_exhaustive() {
    // Two completions through the same waker: claims, re-registrations and
    // wakes interleave with the second post.
    let _knobs = hold_knobs();
    let stats = Model::new().check(mailbox_round_trip(1, 2));
    assert!(stats.executions > 1);
}

#[test]
fn mailbox_two_producers_exhaustive() {
    // Two producer inboxes racing each other and the consumer sweep.
    let _knobs = hold_knobs();
    let stats = Model::new().check(mailbox_round_trip(2, 1));
    assert!(stats.executions > 1);
}

#[test]
fn mailbox_two_producers_reregistration_exhaustive() {
    // The handshake with re-registration: two completions per inbox, so
    // claims and re-registrations interleave with second posts on both.
    let _knobs = hold_knobs();
    let stats = Model::new().check(mailbox_round_trip(2, 2));
    assert!(stats.executions > 1);
}

#[test]
fn mailbox_survives_spurious_wakeups() {
    // The consumer's park loop must tolerate wake-ups with no completion
    // behind them; the checker injects one at every opportunity.
    let _knobs = hold_knobs();
    let stats = Model {
        spurious_budget: 1,
        ..Model::new()
    }
    .check(mailbox_round_trip(1, 1));
    assert!(stats.executions > 1);
}

#[test]
fn sabotage_weak_flags_caught() {
    // `SeqCst -> Relaxed` on the pending/waiters handshake: under the TSO
    // store buffer the producer's `pending` advertisement and the
    // consumer's `waiters` registration can both stay invisible, each side
    // skips the other, and the consumer parks forever.
    let _knobs = hold_knobs();
    sabotage::WEAK_FLAGS.store(true, std::sync::atomic::Ordering::SeqCst);
    expect_deadlock(Model::new(), mailbox_round_trip(2, 1));
}

#[test]
fn sabotage_skip_recheck_caught() {
    // Dropping the consumer's post-unlock `pending` re-check loses the
    // race where the producer loaded `waiters` before the registration:
    // nobody delivers, the consumer parks forever.
    let _knobs = hold_knobs();
    sabotage::SKIP_RECHECK.store(true, std::sync::atomic::Ordering::SeqCst);
    expect_deadlock(Model::new(), mailbox_round_trip(2, 1));
}
