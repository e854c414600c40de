//! Unit tests for the protocol engine, driven through an in-memory relay that
//! simply moves actions between two endpoints (no timing model).

use super::*;
use crate::config::{OptFlags, ProtocolConfig, ProtocolMode};
use crate::error::Error;
use crate::ops::{Completion, OpId, Status};
use crate::types::{ProcessId, Tag};
use crate::wire::PacketKind;
use bytes::Bytes;

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// Drains one endpoint's actions into its peer, collecting non-transport
/// actions into `out` and showing every protocol packet (bare or framed) to
/// `tap` before it is delivered.  Returns `true` if any action was processed.
fn pump(
    me: &mut Endpoint,
    other: &mut Endpoint,
    out: &mut Vec<Action>,
    timers: &mut Vec<(ProcessId, crate::types::TimerId)>,
    tap: &mut dyn FnMut(&crate::wire::Packet),
) -> bool {
    let mut progressed = false;
    while let Some(action) = me.poll_action() {
        progressed = true;
        match action {
            Action::Transmit { dst, packet, .. } => {
                assert_eq!(dst, other.id());
                tap(&packet);
                other.handle_packet(me.id(), packet);
            }
            Action::TransmitFrame { dst, frame, .. } => {
                assert_eq!(dst, other.id());
                if let crate::reliability::Frame::Data { packet, .. } = &frame {
                    tap(packet);
                }
                other.handle_frame(me.id(), frame);
            }
            Action::SetTimer { timer, .. } => timers.push((me.id(), timer)),
            Action::CancelTimer { timer } => {
                timers.retain(|(owner, t)| !(*owner == me.id() && *t == timer));
            }
            other_action => out.push(other_action),
        }
    }
    progressed
}

/// Relays traffic between two endpoints until both are quiescent, returning
/// every non-transport action each produced (in order).
fn run_pair(a: &mut Endpoint, b: &mut Endpoint) -> (Vec<Action>, Vec<Action>) {
    run_pair_tapped(a, b, &mut |_| {})
}

/// [`run_pair`], showing every protocol packet either side emits to `tap`.
fn run_pair_tapped(
    a: &mut Endpoint,
    b: &mut Endpoint,
    tap: &mut dyn FnMut(&crate::wire::Packet),
) -> (Vec<Action>, Vec<Action>) {
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    let mut timers: Vec<(ProcessId, crate::types::TimerId)> = Vec::new();
    for _ in 0..10_000 {
        let mut progressed = false;
        progressed |= pump(a, b, &mut out_a, &mut timers, tap);
        progressed |= pump(b, a, &mut out_b, &mut timers, tap);
        if !progressed {
            // Fire any outstanding timers once; if nothing new happens, stop.
            if timers.is_empty() {
                break;
            }
            let (owner, timer) = timers.remove(0);
            if owner == a.id() {
                a.handle_timer(timer);
            } else {
                b.handle_timer(timer);
            }
        }
    }
    (out_a, out_b)
}

/// Drains an endpoint's completion queue.
fn completions(e: &mut Endpoint) -> Vec<Completion> {
    let mut out = Vec::new();
    e.drain_completions_into(&mut out);
    out
}

/// The payload of the first successful receive completion, if any.
fn recv_complete_data(e: &mut Endpoint) -> Option<Bytes> {
    completions(e)
        .into_iter()
        .find_map(|c| match (c.op, c.status) {
            (OpId::Recv(_), Status::Ok) => c.data,
            _ => None,
        })
}

fn count_copies(actions: &[Action], kind: CopyKind) -> (usize, usize) {
    let mut count = 0;
    let mut bytes = 0;
    for a in actions {
        if let Action::Copy {
            kind: k, bytes: b, ..
        } = a
        {
            if *k == kind {
                count += 1;
                bytes += b;
            }
        }
    }
    (count, bytes)
}

fn intranode_pair(cfg: ProtocolConfig) -> (Endpoint, Endpoint) {
    (
        Endpoint::new(ProcessId::new(0, 0), cfg.clone()),
        Endpoint::new(ProcessId::new(0, 1), cfg),
    )
}

fn internode_pair(cfg: ProtocolConfig) -> (Endpoint, Endpoint) {
    (
        Endpoint::new(ProcessId::new(0, 0), cfg.clone()),
        Endpoint::new(ProcessId::new(1, 0), cfg),
    )
}

// ---------------------------------------------------------------------------
// Basic transfer correctness across modes, sizes, and posting orders.
// ---------------------------------------------------------------------------

#[test]
fn intranode_transfer_all_modes_and_sizes() {
    for mode in ProtocolMode::ALL {
        for len in [0usize, 1, 10, 16, 17, 100, 1000, 3000, 4096, 8192] {
            let cfg = ProtocolConfig::paper_intranode().with_mode(mode);
            let (mut s, mut r) = intranode_pair(cfg);
            let data = payload(len);
            s.post_send(r.id(), Tag(1), data.clone()).unwrap();
            r.post_recv(s.id(), Tag(1), len.max(1)).unwrap();
            let (_sa, _ra) = run_pair(&mut s, &mut r);
            let got = recv_complete_data(&mut r)
                .unwrap_or_else(|| panic!("no completion for mode {mode:?} len {len}"));
            assert_eq!(got, data, "mode {mode:?} len {len}");
            assert!(s.idle(), "sender not idle for mode {mode:?} len {len}");
            assert!(r.idle(), "receiver not idle for mode {mode:?} len {len}");
        }
    }
}

#[test]
fn internode_transfer_all_modes_and_sizes() {
    for mode in ProtocolMode::ALL {
        for len in [0usize, 4, 80, 760, 761, 1460, 1461, 4096, 8192] {
            let cfg = ProtocolConfig::paper_internode()
                .with_mode(mode)
                .with_pushed_buffer(16 * 1024);
            let (mut s, mut r) = internode_pair(cfg);
            let data = payload(len);
            s.post_send(r.id(), Tag(9), data.clone()).unwrap();
            r.post_recv(s.id(), Tag(9), len).unwrap();
            let (_sa, _ra) = run_pair(&mut s, &mut r);
            let got = recv_complete_data(&mut r)
                .unwrap_or_else(|| panic!("no completion for mode {mode:?} len {len}"));
            assert_eq!(got, data, "mode {mode:?} len {len}");
        }
    }
}

#[test]
fn late_receiver_still_delivers() {
    // Send first, post the receive only afterwards: the data must be staged
    // in the pushed buffer and drained on posting.
    for mode in ProtocolMode::ALL {
        let cfg = ProtocolConfig::paper_internode()
            .with_mode(mode)
            .with_pushed_buffer(64 * 1024);
        let (mut s, mut r) = internode_pair(cfg);
        let data = payload(4096);
        s.post_send(r.id(), Tag(2), data.clone()).unwrap();
        // Let the pushes propagate before the receive is posted.
        let (_sa0, _ra0) = run_pair(&mut s, &mut r);
        r.post_recv(s.id(), Tag(2), 4096).unwrap();
        let (_sa, _ra) = run_pair(&mut s, &mut r);
        assert_eq!(recv_complete_data(&mut r).unwrap(), data, "mode {mode:?}");
    }
}

#[test]
fn early_receiver_uses_one_copy_path() {
    let cfg = ProtocolConfig::paper_internode();
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(4096);
    // Receive posted before the send: all data should be copied directly.
    r.post_recv(s.id(), Tag(3), 4096).unwrap();
    s.post_send(r.id(), Tag(3), data.clone()).unwrap();
    let (_sa, ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    let (_, staged) = count_copies(&ra, CopyKind::PushToPushedBuffer);
    assert_eq!(staged, 0, "early receiver must not stage data");
    let (_, direct_push) = count_copies(&ra, CopyKind::PushDirect);
    let (_, direct_pull) = count_copies(&ra, CopyKind::PullDirect);
    assert_eq!(direct_push + direct_pull, 4096);
}

#[test]
fn late_receiver_uses_two_copy_path_for_pushed_bytes() {
    let cfg = ProtocolConfig::paper_internode();
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(4096);
    s.post_send(r.id(), Tag(3), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    r.post_recv(s.id(), Tag(3), 4096).unwrap();
    let (_sa, ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    // The eagerly pushed 760 bytes were staged and then drained.
    let (_, staged) = count_copies(&ra, CopyKind::DrainPushedBuffer);
    assert_eq!(staged, 760);
    // The pulled remainder went straight to the destination.
    let (_, pulled) = count_copies(&ra, CopyKind::PullDirect);
    assert_eq!(pulled, 4096 - 760);
}

// ---------------------------------------------------------------------------
// Mode-specific behaviour.
// ---------------------------------------------------------------------------

#[test]
fn push_all_sends_everything_eagerly() {
    let cfg = ProtocolConfig::paper_internode()
        .with_mode(ProtocolMode::PushAll)
        .with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(8192);
    r.post_recv(s.id(), Tag(0), 8192).unwrap();
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    assert_eq!(s.stats().bytes_pushed, 8192);
    assert_eq!(s.stats().bytes_pulled, 0);
    assert_eq!(r.stats().pull_requests_sent, 0);
}

#[test]
fn push_zero_pulls_everything() {
    let cfg = ProtocolConfig::paper_internode().with_mode(ProtocolMode::PushZero);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(8192);
    r.post_recv(s.id(), Tag(0), 8192).unwrap();
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    assert_eq!(s.stats().bytes_pushed, 0);
    assert_eq!(s.stats().bytes_pulled, 8192);
    assert_eq!(r.stats().pull_requests_sent, 1);
}

#[test]
fn push_pull_splits_push_and_pull() {
    let cfg = ProtocolConfig::paper_internode();
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(8192);
    r.post_recv(s.id(), Tag(0), 8192).unwrap();
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    assert_eq!(s.stats().bytes_pushed, 760);
    assert_eq!(s.stats().bytes_pulled, 8192 - 760);
    assert_eq!(s.stats().pull_requests_served, 1);
}

#[test]
fn short_message_needs_no_pull_in_push_pull_mode() {
    let cfg = ProtocolConfig::paper_internode();
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(500);
    r.post_recv(s.id(), Tag(0), 500).unwrap();
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    assert_eq!(r.stats().pull_requests_sent, 0);
    assert_eq!(s.stats().bytes_pulled, 0);
}

// ---------------------------------------------------------------------------
// Optimisation flags.
// ---------------------------------------------------------------------------

#[test]
fn overlap_flag_controls_push_splitting() {
    for (opts, expected_pushes) in [
        (OptFlags::overlap_only(), 2usize),
        (OptFlags::baseline(), 1),
    ] {
        let cfg = ProtocolConfig::paper_internode().with_opts(opts);
        let mut s = Endpoint::new(ProcessId::new(0, 0), cfg.clone());
        let r_id = ProcessId::new(1, 0);
        s.post_send(r_id, Tag(0), payload(4096)).unwrap();
        let pushes = s
            .drain_actions()
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::TransmitFrame {
                        frame: crate::reliability::Frame::Data { packet, .. },
                        ..
                    } if matches!(packet.header.kind, PacketKind::Push(_))
                )
            })
            .count();
        assert_eq!(pushes, expected_pushes, "opts {opts:?}");
    }
}

#[test]
fn masking_defers_translation_after_first_transmit() {
    // With masking the first emitted action must be the transmission, with
    // the translation following it; without masking the translation leads.
    let check = |opts: OptFlags, translate_first: bool| {
        let cfg = ProtocolConfig::paper_internode().with_opts(opts);
        let mut s = Endpoint::new(ProcessId::new(0, 0), cfg);
        s.post_send(ProcessId::new(1, 0), Tag(0), payload(4096))
            .unwrap();
        let actions = s.drain_actions();
        let translate_pos = actions
            .iter()
            .position(|a| matches!(a, Action::Translate { .. }))
            .expect("translation must be requested");
        let transmit_pos = actions
            .iter()
            .position(|a| matches!(a, Action::TransmitFrame { .. }))
            .expect("transmission must be requested");
        if translate_first {
            assert!(translate_pos < transmit_pos, "opts {opts:?}");
        } else {
            assert!(transmit_pos < translate_pos, "opts {opts:?}");
        }
    };
    check(OptFlags::baseline(), true);
    check(OptFlags::mask_only(), false);
    check(OptFlags::full(), false);
}

#[test]
fn masking_uses_user_space_injection() {
    let cfg = ProtocolConfig::paper_internode().with_opts(OptFlags::full());
    let mut s = Endpoint::new(ProcessId::new(0, 0), cfg);
    s.post_send(ProcessId::new(1, 0), Tag(0), payload(100))
        .unwrap();
    let injections: Vec<InjectMode> = s
        .drain_actions()
        .iter()
        .filter_map(|a| match a {
            Action::TransmitFrame { inject, .. } => Some(*inject),
            _ => None,
        })
        .collect();
    assert!(injections.contains(&InjectMode::UserSpaceDirect));

    let cfg = ProtocolConfig::paper_internode().with_opts(OptFlags::baseline());
    let mut s = Endpoint::new(ProcessId::new(0, 0), cfg);
    s.post_send(ProcessId::new(1, 0), Tag(0), payload(100))
        .unwrap();
    let injections: Vec<InjectMode> = s
        .drain_actions()
        .iter()
        .filter_map(|a| match a {
            Action::TransmitFrame { inject, .. } => Some(*inject),
            _ => None,
        })
        .collect();
    assert!(!injections.contains(&InjectMode::UserSpaceDirect));
}

#[test]
fn disabling_zero_buffer_adds_extra_copies() {
    let mut no_zb = OptFlags::full();
    no_zb.zero_buffer = false;
    let cfg = ProtocolConfig::paper_internode().with_opts(no_zb);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(4096);
    r.post_recv(s.id(), Tag(0), 4096).unwrap();
    s.post_send(r.id(), Tag(0), data).unwrap();
    let (_sa, ra) = run_pair(&mut s, &mut r);
    let (_, extra) = count_copies(&ra, CopyKind::StagingExtra);
    assert_eq!(extra, 4096);
    assert_eq!(r.stats().bytes_copied_extra, 4096);

    let cfg = ProtocolConfig::paper_internode().with_opts(OptFlags::full());
    let (mut s, mut r) = internode_pair(cfg);
    r.post_recv(s.id(), Tag(0), 4096).unwrap();
    s.post_send(r.id(), Tag(0), payload(4096)).unwrap();
    let (_sa, ra) = run_pair(&mut s, &mut r);
    let (_, extra) = count_copies(&ra, CopyKind::StagingExtra);
    assert_eq!(extra, 0);
}

#[test]
fn parallel_pull_marks_copies_least_loaded() {
    let cfg = ProtocolConfig::paper_internode().with_opts(OptFlags::full());
    let (mut s, mut r) = internode_pair(cfg);
    r.post_recv(s.id(), Tag(0), 8192).unwrap();
    s.post_send(r.id(), Tag(0), payload(8192)).unwrap();
    let (_sa, ra) = run_pair(&mut s, &mut r);
    let pull_copies: Vec<bool> = ra
        .iter()
        .filter_map(|a| match a {
            Action::Copy {
                kind: CopyKind::PullDirect,
                least_loaded,
                ..
            } => Some(*least_loaded),
            _ => None,
        })
        .collect();
    assert!(!pull_copies.is_empty());
    assert!(pull_copies.iter().all(|&b| b));
}

// ---------------------------------------------------------------------------
// Pushed-buffer overflow and go-back-N recovery (the Fig. 6 late-receiver
// collapse of Push-All).
// ---------------------------------------------------------------------------

#[test]
fn push_all_overflows_small_pushed_buffer_and_recovers() {
    let cfg = ProtocolConfig::paper_internode()
        .with_mode(ProtocolMode::PushAll)
        .with_pushed_buffer(4 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(8192);
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();

    // Relay traffic by hand so the receive can be posted *after* the first
    // overflow drop, like the late-receiver test does, while keeping the
    // retransmission timers alive across that boundary.
    let mut timers: Vec<(ProcessId, crate::types::TimerId)> = Vec::new();
    let mut out_s = Vec::new();
    let mut out_r = Vec::new();
    let mut posted = false;
    let mut delivered: Option<Bytes> = None;
    for _ in 0..100_000 {
        let mut progressed = pump(&mut s, &mut r, &mut out_s, &mut timers, &mut |_| {});
        progressed |= pump(&mut r, &mut s, &mut out_r, &mut timers, &mut |_| {});
        if delivered.is_none() {
            delivered = recv_complete_data(&mut r);
        }
        if !posted && r.stats().frames_dropped > 0 {
            // Without a posted receive the 8 KiB eager transfer cannot fit in
            // the 4 KiB pushed buffer: frames were dropped.  Now post it.
            r.post_recv(s.id(), Tag(0), 8192).unwrap();
            posted = true;
            continue;
        }
        if !progressed {
            if delivered.is_some() || timers.is_empty() {
                break;
            }
            let (owner, timer) = timers.remove(0);
            if owner == s.id() {
                s.handle_timer(timer);
            } else {
                r.handle_timer(timer);
            }
        }
    }
    assert!(posted, "overflow drop never happened");
    assert!(r.stats().frames_dropped > 0, "expected overflow drops");
    assert_eq!(delivered.unwrap(), data);
    let gbn = s.channel_stats(r.id()).unwrap();
    assert!(gbn.retransmissions > 0, "go-back-N must have retransmitted");
}

#[test]
fn push_pull_does_not_overflow_small_pushed_buffer() {
    let cfg = ProtocolConfig::paper_internode()
        .with_mode(ProtocolMode::PushPull)
        .with_pushed_buffer(4 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(8192);
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    assert_eq!(r.stats().frames_dropped, 0);
    r.post_recv(s.id(), Tag(0), 8192).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
    let gbn = s.channel_stats(r.id()).unwrap();
    assert_eq!(gbn.retransmissions, 0);
}

// ---------------------------------------------------------------------------
// Message matching.
// ---------------------------------------------------------------------------

#[test]
fn messages_match_by_tag() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data_a = payload(100);
    let data_b = payload(2000);
    s.post_send(r.id(), Tag(1), data_a.clone()).unwrap();
    s.post_send(r.id(), Tag(2), data_b.clone()).unwrap();
    // Post the receives in the opposite tag order.
    let h2 = r.post_recv(s.id(), Tag(2), 2000).unwrap();
    let h1 = r.post_recv(s.id(), Tag(1), 100).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    let done: Vec<(OpId, Bytes)> = completions(&mut r)
        .into_iter()
        .map(|c| {
            assert_eq!(c.status, Status::Ok);
            let data = c.data.clone().unwrap();
            (c.op, data)
        })
        .collect();
    assert_eq!(done.len(), 2);
    for (op, data) in done {
        if op == OpId::Recv(h1) {
            assert_eq!(data, data_a);
        } else {
            assert_eq!(op, OpId::Recv(h2));
            assert_eq!(data, data_b);
        }
    }
}

#[test]
fn multiple_messages_same_tag_arrive_in_order() {
    let cfg = ProtocolConfig::paper_intranode();
    let (mut s, mut r) = intranode_pair(cfg);
    let msgs: Vec<Bytes> = (1..=4).map(|i| payload(i * 500)).collect();
    for m in &msgs {
        s.post_send(r.id(), Tag(7), m.clone()).unwrap();
    }
    for m in &msgs {
        r.post_recv(s.id(), Tag(7), m.len()).unwrap();
    }
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    let received: Vec<Bytes> = completions(&mut r)
        .into_iter()
        .filter_map(|c| match c.op {
            OpId::Recv(_) => c.data,
            OpId::Send(_) => None,
        })
        .collect();
    assert_eq!(received.len(), 4);
    for (got, want) in received.iter().zip(&msgs) {
        assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Error handling.
// ---------------------------------------------------------------------------

#[test]
fn self_send_rejected() {
    let cfg = ProtocolConfig::default();
    let mut e = Endpoint::new(ProcessId::new(0, 0), cfg);
    assert!(matches!(
        e.post_send(ProcessId::new(0, 0), Tag(0), payload(10)),
        Err(Error::SelfSend { .. })
    ));
    assert!(matches!(
        e.post_recv(ProcessId::new(0, 0), Tag(0), 10),
        Err(Error::SelfSend { .. })
    ));
}

#[test]
fn receive_smaller_than_message_fails() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(4096);
    s.post_send(r.id(), Tag(0), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    // Message already buffered; a too-small receive completes with an error
    // (and, under the default policy, leaves the message unharmed).
    let small = r.post_recv(s.id(), Tag(0), 100).unwrap();
    let failed = completions(&mut r)
        .into_iter()
        .find(|c| c.op == OpId::Recv(small))
        .expect("error completion");
    assert!(matches!(
        failed.status,
        Status::Error(Error::ReceiveTooSmall {
            posted: 100,
            incoming: 4096
        })
    ));
    // A correctly sized receive posted afterwards still gets the message.
    r.post_recv(s.id(), Tag(0), 4096).unwrap();
    let (_sa, _ra) = run_pair(&mut s, &mut r);
    assert_eq!(recv_complete_data(&mut r).unwrap(), data);
}

// ---------------------------------------------------------------------------
// Operations layer: wildcards, cancellation, truncation, caller buffers.
// ---------------------------------------------------------------------------

#[test]
fn wildcard_receive_matches_any_source_and_tag() {
    use crate::types::{ANY_SOURCE, ANY_TAG};
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(3000);
    let op = r.post_recv(ANY_SOURCE, ANY_TAG, 4096).unwrap();
    s.post_send(r.id(), Tag(99), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    let done = completions(&mut r)
        .into_iter()
        .find(|c| c.op == OpId::Recv(op))
        .expect("wildcard receive completed");
    assert_eq!(done.status, Status::Ok);
    // The completion reports the concrete source and tag, not the selector.
    assert_eq!(done.peer, s.id());
    assert_eq!(done.tag, Tag(99));
    assert_eq!(done.data.unwrap(), data);
}

#[test]
fn wildcard_receive_claims_buffered_unexpected_message() {
    use crate::types::ANY_SOURCE;
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(2048);
    s.post_send(r.id(), Tag(5), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    // The message sits unexpected; an any-source receive takes it.
    let op = r.post_recv(ANY_SOURCE, Tag(5), 2048).unwrap();
    let _ = run_pair(&mut s, &mut r);
    let done = completions(&mut r)
        .into_iter()
        .find(|c| c.op == OpId::Recv(op))
        .expect("completed");
    assert_eq!(done.data.unwrap(), data);
}

#[test]
fn cancelled_receive_completes_cancelled_and_never_again() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let op = r.post_recv(s.id(), Tag(1), 4096).unwrap();
    assert!(r.cancel(op), "pending receive must cancel");
    assert!(!r.cancel(op), "second cancel must fail (stale handle)");
    let done = completions(&mut r);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, Status::Cancelled);
    assert_eq!(done[0].op, OpId::Recv(op));
    // A message arriving afterwards must not complete the cancelled op; it
    // waits for the replacement receive instead.
    let data = payload(1000);
    s.post_send(r.id(), Tag(1), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    assert!(
        completions(&mut r).is_empty(),
        "cancelled op must stay silent"
    );
    let op2 = r.post_recv(s.id(), Tag(1), 4096).unwrap();
    let _ = run_pair(&mut s, &mut r);
    let done = completions(&mut r);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].op, OpId::Recv(op2));
    assert_eq!(done[0].data.as_ref().unwrap(), &data);
}

#[test]
fn matched_receive_cannot_be_cancelled() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let op = r.post_recv(s.id(), Tag(1), 8192).unwrap();
    s.post_send(r.id(), Tag(1), payload(8192)).unwrap();
    // Deliver only the eager pushes so the receive is matched but not
    // complete: pump once without firing timers or serving the pull.
    let mut out = Vec::new();
    let mut timers = Vec::new();
    pump(&mut s, &mut r, &mut out, &mut timers, &mut |_| {});
    assert!(!r.cancel(op), "matched receive must refuse cancellation");
    let _ = run_pair(&mut s, &mut r);
    assert_eq!(
        completions(&mut r)
            .iter()
            .filter(|c| c.op == OpId::Recv(op))
            .count(),
        1
    );
}

#[test]
fn truncation_error_policy_preserves_message_for_next_receive() {
    // The ROADMAP PR-1 poisoning bug: a too-small receive used to drop the
    // message's first fragment with its state, hanging the next receive.
    for recv_first in [false, true] {
        let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
        let (mut s, mut r) = internode_pair(cfg);
        let data = payload(8192);
        let small = if recv_first {
            let op = r.post_recv(s.id(), Tag(3), 64).unwrap();
            s.post_send(r.id(), Tag(3), data.clone()).unwrap();
            op
        } else {
            s.post_send(r.id(), Tag(3), data.clone()).unwrap();
            let _ = run_pair(&mut s, &mut r);
            r.post_recv(s.id(), Tag(3), 64).unwrap()
        };
        let _ = run_pair(&mut s, &mut r);
        let failed = completions(&mut r)
            .into_iter()
            .find(|c| c.op == OpId::Recv(small))
            .expect("error completion");
        assert!(
            matches!(failed.status, Status::Error(Error::ReceiveTooSmall { .. })),
            "recv_first {recv_first}"
        );
        // The message is unharmed: an adequate receive gets every byte.
        let ok = r.post_recv(s.id(), Tag(3), 8192).unwrap();
        let _ = run_pair(&mut s, &mut r);
        let done = completions(&mut r)
            .into_iter()
            .find(|c| c.op == OpId::Recv(ok))
            .unwrap_or_else(|| panic!("no recovery completion, recv_first {recv_first}"));
        assert_eq!(done.status, Status::Ok, "recv_first {recv_first}");
        assert_eq!(done.data.unwrap(), data, "recv_first {recv_first}");
    }
}

#[test]
fn truncate_policy_delivers_prefix() {
    for recv_first in [false, true] {
        let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
        let (mut s, mut r) = internode_pair(cfg);
        let data = payload(4096);
        let op = if recv_first {
            let op = r
                .post_recv_with(s.id(), Tag(1), 100, TruncationPolicy::Truncate)
                .unwrap();
            s.post_send(r.id(), Tag(1), data.clone()).unwrap();
            op
        } else {
            s.post_send(r.id(), Tag(1), data.clone()).unwrap();
            let _ = run_pair(&mut s, &mut r);
            r.post_recv_with(s.id(), Tag(1), 100, TruncationPolicy::Truncate)
                .unwrap()
        };
        let _ = run_pair(&mut s, &mut r);
        let done = completions(&mut r)
            .into_iter()
            .find(|c| c.op == OpId::Recv(op))
            .unwrap_or_else(|| panic!("no completion, recv_first {recv_first}"));
        assert_eq!(
            done.status,
            Status::Truncated { message_len: 4096 },
            "recv_first {recv_first}"
        );
        assert_eq!(done.len, 100);
        assert_eq!(done.data.unwrap(), data.slice(..100));
        assert!(s.idle() && r.idle(), "recv_first {recv_first}");
    }
}

#[test]
fn recv_into_reassembles_into_caller_buffer() {
    for recv_first in [false, true] {
        for len in [0usize, 1, 80, 760, 1461, 8192] {
            let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
            let (mut s, mut r) = internode_pair(cfg);
            let data = payload(len);
            let buf = RecvBuf::with_capacity(8192);
            let op = if recv_first {
                let op = r
                    .post_recv_into(s.id(), Tag(1), buf, TruncationPolicy::Error)
                    .unwrap();
                s.post_send(r.id(), Tag(1), data.clone()).unwrap();
                op
            } else {
                s.post_send(r.id(), Tag(1), data.clone()).unwrap();
                let _ = run_pair(&mut s, &mut r);
                r.post_recv_into(s.id(), Tag(1), buf, TruncationPolicy::Error)
                    .unwrap()
            };
            let _ = run_pair(&mut s, &mut r);
            let done = completions(&mut r)
                .into_iter()
                .find(|c| c.op == OpId::Recv(op))
                .unwrap_or_else(|| panic!("no completion, recv_first {recv_first} len {len}"));
            assert_eq!(done.status, Status::Ok, "recv_first {recv_first} len {len}");
            assert!(done.data.is_none());
            let buf = done.buf.expect("caller buffer handed back");
            assert_eq!(buf.len(), len, "recv_first {recv_first} len {len}");
            assert_eq!(
                buf.as_slice(),
                &data[..],
                "recv_first {recv_first} len {len}"
            );
        }
    }
}

#[test]
fn recycled_recv_buf_reads_empty_when_returned_unused() {
    // A buffer that carried a message last time must not present those
    // stale bytes when it comes back from a cancelled (or failed) receive.
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(1024);
    let op = r
        .post_recv_into(
            s.id(),
            Tag(1),
            RecvBuf::with_capacity(1024),
            TruncationPolicy::Error,
        )
        .unwrap();
    s.post_send(r.id(), Tag(1), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    let done = completions(&mut r)
        .into_iter()
        .find(|c| c.op == OpId::Recv(op))
        .unwrap();
    let buf = done.buf.unwrap();
    assert_eq!(buf.as_slice(), &data[..]);
    // Recycle, post again, cancel before any match.
    let op2 = r
        .post_recv_into(s.id(), Tag(2), buf, TruncationPolicy::Error)
        .unwrap();
    assert!(r.cancel(op2));
    let cancelled = completions(&mut r)
        .into_iter()
        .find(|c| c.op == OpId::Recv(op2))
        .unwrap();
    assert_eq!(cancelled.status, Status::Cancelled);
    assert_eq!(cancelled.payload(), Some(&[][..]));
    let buf = cancelled.buf.unwrap();
    assert_eq!(buf.len(), 0, "unused buffer must read empty");
    assert!(buf.as_slice().is_empty());
}

#[test]
fn recv_into_truncates_into_small_buffer() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let data = payload(4096);
    let op = r
        .post_recv_into(
            s.id(),
            Tag(1),
            RecvBuf::with_capacity(128),
            TruncationPolicy::Truncate,
        )
        .unwrap();
    s.post_send(r.id(), Tag(1), data.clone()).unwrap();
    let _ = run_pair(&mut s, &mut r);
    let done = completions(&mut r)
        .into_iter()
        .find(|c| c.op == OpId::Recv(op))
        .expect("completion");
    assert_eq!(done.status, Status::Truncated { message_len: 4096 });
    let buf = done.buf.unwrap();
    assert_eq!(buf.len(), 128);
    assert_eq!(buf.as_slice(), &data[..128]);
}

#[test]
fn stats_track_operations() {
    let cfg = ProtocolConfig::paper_internode();
    let (mut s, mut r) = internode_pair(cfg);
    r.post_recv(s.id(), Tag(0), 4096).unwrap();
    s.post_send(r.id(), Tag(0), payload(4096)).unwrap();
    let _ = run_pair(&mut s, &mut r);
    assert_eq!(s.stats().sends_posted, 1);
    assert_eq!(s.stats().sends_completed, 1);
    assert_eq!(r.stats().recvs_posted, 1);
    assert_eq!(r.stats().recvs_completed, 1);
    assert_eq!(s.stats().bytes_pushed + s.stats().bytes_pulled, 4096);
}

#[test]
fn cancel_send_reclaims_unpulled_send() {
    // Push-Zero: nothing is pushed eagerly, so the whole payload stays
    // registered until the receiver pulls — the cancellable regime.
    let cfg = ProtocolConfig::paper_intranode().with_mode(ProtocolMode::PushZero);
    let (mut s, mut r) = intranode_pair(cfg);
    let op = s.post_send(r.id(), Tag(5), payload(4096)).unwrap();
    let _ = run_pair(&mut s, &mut r); // announce travels; no receive posted
    assert!(s.cancel_send(op), "unpulled send must cancel");
    assert!(!s.cancel_send(op), "stale handle must not cancel again");
    let done = completions(&mut s);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].op, OpId::Send(op));
    assert_eq!(done[0].status, Status::Cancelled);
    assert_eq!(done[0].len, 0);
    assert_eq!(s.stats().sends_cancelled, 1);
    assert_eq!(s.stats().sends_completed, 0);
    assert!(s.send_queue.is_empty(), "pinned payload must be released");

    // A receive posted afterwards answers the (now stale) pull request with
    // a drop, never with data: the cancelled operation stays cancelled.
    r.post_recv(s.id(), Tag(5), 4096).unwrap();
    let _ = run_pair(&mut s, &mut r);
    assert!(
        completions(&mut s).is_empty(),
        "cancelled send must never complete again"
    );
}

#[test]
fn cancel_send_refuses_completed_and_pulled_sends() {
    // Fully-eager send: completes inside post_send, nothing to cancel.
    let cfg = ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024);
    let (mut s, r) = intranode_pair(cfg.clone());
    let eager = s.post_send(r.id(), Tag(1), payload(8)).unwrap();
    assert!(!s.cancel_send(eager), "eager send completed at post time");

    // Pulled send that ran to completion: the handle is stale by then.
    let (mut s, mut r) = intranode_pair(cfg);
    r.post_recv(s.id(), Tag(2), 4096).unwrap();
    let op = s.post_send(r.id(), Tag(2), payload(4096)).unwrap();
    let _ = run_pair(&mut s, &mut r);
    assert!(!s.cancel_send(op), "completed send must not cancel");
    assert_eq!(s.stats().sends_completed, 1);
    assert_eq!(s.stats().sends_cancelled, 0);
}

#[test]
fn dynamic_pushed_buffer_resize() {
    let cfg = ProtocolConfig::paper_internode();
    let mut e = Endpoint::new(ProcessId::new(0, 0), cfg);
    assert_eq!(e.config().pushed_buffer_capacity, 4 * 1024);
    e.resize_pushed_buffer(64 * 1024);
    assert_eq!(e.config().pushed_buffer_capacity, 64 * 1024);
}

// ---------------------------------------------------------------------------
// Vectored sends: one message from a scatter list, no wire coalescing.
// ---------------------------------------------------------------------------

#[test]
fn vectored_send_delivers_concatenation_all_modes() {
    for mode in ProtocolMode::ALL {
        for shape in [
            vec![0usize, 0],
            vec![10],
            vec![16, 0, 84],
            vec![80, 680, 4096],
            vec![1, 1459, 1461, 2000],
        ] {
            let cfg = ProtocolConfig::paper_intranode()
                .with_mode(mode)
                .with_pushed_buffer(64 * 1024);
            let (mut s, mut r) = intranode_pair(cfg);
            let segments: Vec<Bytes> = shape
                .iter()
                .enumerate()
                .map(|(i, &len)| Bytes::from(vec![(i + 1) as u8; len]))
                .collect();
            let expected: Vec<u8> = segments.iter().flat_map(|s| s.iter().copied()).collect();
            let total: usize = shape.iter().sum();
            s.post_send_vectored(r.id(), Tag(3), &segments).unwrap();
            r.post_recv(s.id(), Tag(3), total.max(1)).unwrap();
            run_pair(&mut s, &mut r);
            let got = recv_complete_data(&mut r)
                .unwrap_or_else(|| panic!("no completion for mode {mode:?} shape {shape:?}"));
            assert_eq!(&got[..], &expected[..], "mode {mode:?} shape {shape:?}");
            assert!(s.idle() && r.idle(), "mode {mode:?} shape {shape:?}");
        }
    }
}

/// Every packet of a vectored send — pushed and pulled alike — carries a
/// payload that is a zero-copy slice of exactly one segment: its pointer
/// lies inside that segment's storage and its range never crosses a segment
/// boundary.  This is the "no coalescing on the wire path" guarantee.
#[test]
fn vectored_send_packets_are_zero_copy_and_respect_segment_boundaries() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, mut r) = internode_pair(cfg);
    let segments = vec![
        Bytes::from(vec![1u8; 100]), // straddles the BTP(1)=80 boundary
        Bytes::from(vec![2u8; 3000]),
        Bytes::from(vec![3u8; 500]),
    ];
    let bounds: Vec<(usize, usize)> = {
        let mut base = 0;
        segments
            .iter()
            .map(|s| {
                let b = base;
                base += s.len();
                (b, b + s.len())
            })
            .collect()
    };
    s.post_send_vectored(r.id(), Tag(4), &segments).unwrap();
    r.post_recv(s.id(), Tag(4), 3600).unwrap();

    // Relay by hand so every data packet can be inspected in flight.
    let mut inspected = 0usize;
    for _ in 0..10_000 {
        let mut progressed = false;
        while let Some(action) = s.poll_action() {
            progressed = true;
            if let Action::TransmitFrame { frame, .. } = action {
                if let crate::reliability::Frame::Data { packet, .. } = &frame {
                    if !packet.payload.is_empty() {
                        let offset = packet.header.offset as usize;
                        let len = packet.payload.len();
                        let (seg, (seg_start, seg_end)) = segments
                            .iter()
                            .zip(&bounds)
                            .find(|(_, &(lo, hi))| offset >= lo && offset < hi)
                            .expect("packet offset inside some segment");
                        assert!(
                            offset + len <= *seg_end,
                            "packet [{offset}, {}) crosses the segment boundary at {seg_end}",
                            offset + len
                        );
                        // Zero copy: the payload points into the segment.
                        // SAFETY: the bounds check above proved
                        // `offset - seg_start` lies inside `seg`.
                        let expect_ptr = unsafe { seg.as_ptr().add(offset - seg_start) };
                        assert_eq!(packet.payload.as_ptr(), expect_ptr, "payload was copied");
                        inspected += 1;
                    }
                }
                r.handle_frame(s.id(), frame);
            }
        }
        while let Some(action) = r.poll_action() {
            progressed = true;
            if let Action::TransmitFrame { frame, .. } = action {
                s.handle_frame(r.id(), frame);
            }
        }
        if !progressed {
            break;
        }
    }
    assert!(
        inspected >= 4,
        "expected multiple data packets (eager 80+680 across the first two \
         segments plus the pulled remainder), saw {inspected}"
    );
    let got = recv_complete_data(&mut r).expect("vectored message delivered");
    let expected: Vec<u8> = segments.iter().flat_map(|s| s.iter().copied()).collect();
    assert_eq!(&got[..], &expected[..]);
}

#[test]
fn vectored_send_cancel_reclaims_segments() {
    let cfg = ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024);
    let (mut s, _r) = internode_pair(cfg);
    let segments = vec![Bytes::from(vec![9u8; 4096]), Bytes::from(vec![8u8; 4096])];
    let op = s
        .post_send_vectored(ProcessId::new(1, 0), Tag(5), &segments)
        .unwrap();
    assert!(s.cancel_send(op), "unpulled vectored send must cancel");
    let done = completions(&mut s)
        .into_iter()
        .find(|c| c.op == OpId::Send(op))
        .expect("cancellation completion");
    assert_eq!(done.status, Status::Cancelled);
}

// ---------------------------------------------------------------------------
// The intranode pull phase crosses shared memory: fixed 64 KiB pieces, not
// wire-MTU fragments.
// ---------------------------------------------------------------------------

/// Runs one transfer of `segments` (receive posted first) and returns the
/// `(offset, payload)` of every `PullData` packet the sender emitted, after
/// checking delivery.
fn pull_data_packets(
    s: &mut Endpoint,
    r: &mut Endpoint,
    segments: &[Bytes],
) -> Vec<(usize, Bytes)> {
    let total: usize = segments.iter().map(Bytes::len).sum();
    r.post_recv(s.id(), Tag(8), total).unwrap();
    if let [single] = segments {
        s.post_send(r.id(), Tag(8), single.clone()).unwrap();
    } else {
        s.post_send_vectored(r.id(), Tag(8), segments).unwrap();
    }
    let mut pulled = Vec::new();
    run_pair_tapped(s, r, &mut |packet| {
        if packet.header.kind == PacketKind::PullData {
            pulled.push((packet.header.offset as usize, packet.payload.clone()));
        }
    });
    let got = recv_complete_data(r).expect("message delivered");
    let expected: Vec<u8> = segments.iter().flat_map(|s| s.iter().copied()).collect();
    assert_eq!(&got[..], &expected[..]);
    assert!(s.idle() && r.idle());
    pulled
}

/// Asserts that `pulled` tiles `[start, total)` of the concatenated
/// `segments` in order, each payload a pointer-identical slice of exactly
/// one segment of at most `chunk` bytes, and as few of them as that allows.
fn assert_zero_copy_tiling(
    pulled: &[(usize, Bytes)],
    segments: &[Bytes],
    start: usize,
    chunk: usize,
) {
    let mut cursor = start;
    let mut expected_packets = 0;
    let mut base = 0;
    for segment in segments {
        let (lo, hi) = (start.max(base), base + segment.len());
        if hi > lo {
            expected_packets += (hi - lo).div_ceil(chunk);
        }
        base = hi;
    }
    assert_eq!(pulled.len(), expected_packets, "PullData packet count");
    for (offset, payload) in pulled {
        assert_eq!(
            *offset, cursor,
            "pulled packets tile the remainder in order"
        );
        assert!(!payload.is_empty() && payload.len() <= chunk);
        let mut base = 0;
        let segment = segments
            .iter()
            .find(|segment| {
                let inside = *offset < base + segment.len();
                if !inside {
                    base += segment.len();
                }
                inside
            })
            .expect("offset inside some segment");
        assert!(
            offset - base + payload.len() <= segment.len(),
            "packet at {offset} crosses a segment boundary"
        );
        // SAFETY: the bounds check above proved `offset - base` lies inside
        // `segment`.
        let expect_ptr = unsafe { segment.as_ptr().add(offset - base) };
        assert_eq!(payload.as_ptr(), expect_ptr, "payload was copied");
        cursor += payload.len();
    }
    assert_eq!(cursor, base, "pulled packets reach the end of the message");
}

#[test]
fn intranode_pull_travels_in_64k_zero_copy_chunks() {
    let chunk = crate::INTRANODE_PULL_CHUNK;
    assert_eq!(chunk, 64 * 1024);
    for len in [17, 1000, 4096, chunk, chunk + 16, chunk + 17, 3 * chunk + 5] {
        let (mut s, mut r) = intranode_pair(ProtocolConfig::paper_intranode());
        let data = payload(len);
        let pulled = pull_data_packets(&mut s, &mut r, std::slice::from_ref(&data));
        let remainder = s.stats().bytes_pulled as usize;
        assert_eq!(
            remainder,
            len - 16,
            "BTP pushes 16 bytes, the rest is pulled"
        );
        assert_eq!(pulled.len(), remainder.div_ceil(chunk), "len {len}");
        assert_zero_copy_tiling(&pulled, std::slice::from_ref(&data), 16, chunk);
    }
}

#[test]
fn internode_pull_still_fragments_at_max_payload() {
    for len in [4096, 64 * 1024, 100_000] {
        let cfg = ProtocolConfig::paper_internode();
        let max_payload = cfg.max_payload;
        let (mut s, mut r) = internode_pair(cfg);
        let data = payload(len);
        let pulled = pull_data_packets(&mut s, &mut r, std::slice::from_ref(&data));
        let remainder = s.stats().bytes_pulled as usize;
        assert_eq!(
            remainder,
            len - 760,
            "BTP(1) + BTP(2) = 760 bytes are pushed"
        );
        assert_eq!(pulled.len(), remainder.div_ceil(max_payload), "len {len}");
        assert_zero_copy_tiling(&pulled, std::slice::from_ref(&data), 760, max_payload);
    }
}

#[test]
fn unreliable_intranode_pull_fragments_like_the_wire() {
    // Same-node traffic forced through the ARQ layer is framed, and a frame
    // carries at most `max_payload`.
    let mut cfg = ProtocolConfig::paper_intranode();
    cfg.reliable_intranode = false;
    let max_payload = cfg.max_payload;
    let (mut s, mut r) = intranode_pair(cfg);
    let data = payload(20_000);
    let pulled = pull_data_packets(&mut s, &mut r, std::slice::from_ref(&data));
    assert_eq!(pulled.len(), (20_000usize - 16).div_ceil(max_payload));
    assert_zero_copy_tiling(&pulled, std::slice::from_ref(&data), 16, max_payload);
}

#[test]
fn intranode_vectored_pull_splits_at_segment_boundaries() {
    // 10 + 70 000 + 0 + 3 + 66 000 bytes: the first segment is pushed whole
    // (with 6 bytes of the second); the pull sends the rest of the second
    // segment as 64 KiB + tail, skips the empty one, and never lets a
    // packet straddle two segments however small the neighbour.
    let chunk = crate::INTRANODE_PULL_CHUNK;
    let sizes = [10usize, 70_000, 0, 3, 66_000];
    let segments: Vec<Bytes> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| Bytes::from(vec![i as u8 + 1; n]))
        .collect();
    let (mut s, mut r) = intranode_pair(ProtocolConfig::paper_intranode());
    let pulled = pull_data_packets(&mut s, &mut r, &segments);
    let lens: Vec<usize> = pulled.iter().map(|(_, p)| p.len()).collect();
    assert_eq!(lens, [chunk, 70_000 - 6 - chunk, 3, chunk, 66_000 - chunk]);
    assert_zero_copy_tiling(&pulled, &segments, 16, chunk);
}

/// Headers that contradict themselves are dropped at the packet entry as
/// `Malformed` — counted, recorded, and never allowed to touch the message
/// they name — so the receive still completes once the real fragments land.
#[test]
fn malformed_fragments_are_dropped_and_the_receive_still_completes() {
    // A named thread owns its own recorder ring, so the event count below
    // sees this test's events only.
    const THREAD: &str = "malformed-fragment-probe";
    let (dropped, drop_actions) = std::thread::Builder::new()
        .name(THREAD.into())
        .spawn(|| {
            let (mut s, mut r) = intranode_pair(ProtocolConfig::paper_intranode());
            let data = payload(64);
            r.post_recv(s.id(), Tag(9), 64).unwrap();
            s.post_send(r.id(), Tag(9), data.clone()).unwrap();
            let mut real = Vec::new();
            while let Some(action) = s.poll_action() {
                if let Action::Transmit { packet, .. } = action {
                    real.push(packet);
                }
            }
            let header = real[0].header;
            let forged = |offset: u32, payload_len: u32, eager_len: u32| {
                let header = crate::wire::PacketHeader {
                    offset,
                    payload_len,
                    eager_len,
                    ..header
                };
                crate::wire::Packet::new(header, Bytes::from(vec![0xEE; payload_len as usize]))
                    .unwrap()
            };
            r.handle_packet(s.id(), forged(100, 8, header.eager_len));
            r.handle_packet(s.id(), forged(u32::MAX, 1, header.eager_len));
            r.handle_packet(s.id(), forged(0, 8, header.total_len + 1));
            assert_eq!(r.stats().packets_dropped, 3);
            assert!(completions(&mut r).is_empty(), "nothing real has arrived");

            for packet in real {
                r.handle_packet(s.id(), packet);
            }
            let (_, actions) = run_pair(&mut s, &mut r);
            assert_eq!(recv_complete_data(&mut r), Some(data));
            assert!(r.idle());
            let drop_actions = actions
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::PacketDropped {
                            reason: DropReason::Malformed,
                            ..
                        }
                    )
                })
                .count();
            (r.stats().packets_dropped, drop_actions)
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(dropped, 3);
    assert_eq!(drop_actions, 3);
    #[cfg(feature = "telemetry")]
    {
        use crate::telemetry::{drop_reason, snapshot, EventKind};
        let recorded = snapshot()
            .rings
            .iter()
            .filter(|ring| ring.name == THREAD)
            .flat_map(|ring| ring.events.iter())
            .filter(|e| e.kind == EventKind::PacketDropped && e.a == drop_reason::MALFORMED)
            .count();
        assert_eq!(recorded, 3, "every malformed drop leaves a recorder event");
    }
}
