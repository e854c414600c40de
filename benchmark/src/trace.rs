//! The traced run: where a workload's time and work go, layer by layer.
//!
//! Fixed operation counts (so every count metric repeats exactly for a
//! seed): warm-up, an untraced phase, the same number of operations again
//! with spans around every public call, then the probes.  The difference in
//! throughput between the two phases is the tracing overhead.  End-to-end
//! metrics are never taken from this run.

use crate::manifest::{Report, PER_LAYER};
use crate::measure::{health_problems, run_steps, RunOpts};
use crate::payload::Check;
use crate::probes::{self, Probes};
use crate::span::{self, Kind, NoTrace, SpanTrace, Tracer, KINDS};
use crate::stats::{iqr_share, median, percentile, LatHist};
use crate::sys::{self, Usage};
use crate::workload::{LayerCounters, StepCx, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Each phase is timed in this many equal chunks; phase throughput is the
/// median chunk, like the slices of the timed run.
const CHUNKS: u64 = 10;
/// Spans per operation the recorder reserves room for.
const SPANS_PER_OP: usize = 12;
/// Operations whose spans go into the chrome trace file.
const CHROME_OPS: u64 = 2_000;

#[derive(Debug, Clone, Default)]
pub struct TraceExtras {
    pub chrome_trace: Option<PathBuf>,
    /// Sum of the mean layer self times of one operation, in µs …
    pub span_sum_us: f64,
    /// … against the traced run's median operation latency.
    pub traced_lat_p50_us: f64,
    pub problems: Vec<String>,
}

struct Phase {
    ops: u64,
    wall_ns: u64,
    chunk_ops_per_s: Vec<f64>,
}

fn run_phase<W: Workload, T: Tracer>(w: &mut W, cx: &mut StepCx<'_, T>, seq: &mut u64) -> Phase {
    let steps_per_chunk = W::TRACE_STEPS.div_ceil(CHUNKS);
    let mut chunk_ops_per_s = Vec::with_capacity(CHUNKS as usize);
    let phase_start = cx.now_ns();
    for _ in 0..CHUNKS {
        let start = cx.now_ns();
        run_steps(w, cx, seq, steps_per_chunk);
        chunk_ops_per_s.push(steps_per_chunk as f64 * 1e9 / (cx.now_ns() - start).max(1) as f64);
    }
    Phase {
        ops: steps_per_chunk * CHUNKS,
        wall_ns: cx.now_ns() - phase_start,
        chunk_ops_per_s,
    }
}

pub fn run<W: Workload>(opts: &RunOpts) -> (Report, TraceExtras) {
    let calib_before = sys::calib_spin_ns();
    let mut w = W::setup(opts.seed);
    let shape = w.shape();
    let clock = Instant::now();
    let mut seq = W::SETUP_STEPS;

    let mut no_trace = NoTrace;
    let mut plain_lat = LatHist::new();
    let mut cx = StepCx::new(&mut no_trace, Check::Stamp, clock, &mut plain_lat);
    cx.record_latency = false;
    run_steps(&mut w, &mut cx, &mut seq, W::WARMUP_STEPS);

    // Phase 1: untraced, with the process-level meters running.
    cx.record_latency = true;
    let c0 = w.counters();
    let (proc0, thread0, allocs0) = (Usage::process(), Usage::thread(), sys::alloc_counts());
    sys::count_allocs(true);
    let plain = run_phase(&mut w, &mut cx, &mut seq);
    sys::count_allocs(false);
    let (proc1, thread1, allocs1) = (Usage::process(), Usage::thread(), sys::alloc_counts());
    let c1 = w.counters();
    let (mut attempted, mut failed) = (cx.attempted, cx.failed);

    // Phase 2: the same operations again, every public call in a span.
    let first_traced = seq;
    let mut traced_lat = LatHist::new();
    let mut virt_lat_us = Vec::with_capacity(plain.ops as usize);
    let mut tracer = SpanTrace::with_capacity(plain.ops as usize * SPANS_PER_OP);
    let mut cx = StepCx::new(&mut tracer, Check::Stamp, clock, &mut traced_lat);
    cx.virt_lat_us = Some(&mut virt_lat_us);
    let traced = run_phase(&mut w, &mut cx, &mut seq);
    attempted += cx.attempted;
    failed += cx.failed;
    let c2 = w.counters();

    let probes = probes::run(&shape, (plain.ops / 4).clamp(200, 20_000));
    let calib_after = sys::calib_spin_ns();

    // Reduce the spans: mean self time per operation, per kind.
    let per_op = span::self_times(&tracer.spans);
    let mut mean_self_ns = [0.0; KINDS];
    for (_, times) in &per_op {
        for (sum, t) in mean_self_ns.iter_mut().zip(times) {
            *sum += t;
        }
    }
    for sum in &mut mean_self_ns {
        *sum /= per_op.len().max(1) as f64;
    }
    let chrome: Vec<span::Span> = tracer
        .spans
        .iter()
        .filter(|s| s.op < first_traced + CHROME_OPS)
        .copied()
        .collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}_seed{}.json", W::NAME, opts.seed));
    let mut problems = health_problems(&w);
    let chrome_trace = match span::write_chrome_trace(&path, &chrome) {
        Ok(()) => Some(path),
        Err(e) => {
            problems.push(format!(
                "chrome trace not written to {}: {e}",
                path.display()
            ));
            None
        }
    };
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    let metrics = layer_metrics(&LayerInputs {
        plain: &plain,
        traced: &traced,
        plain_lat: &plain_lat,
        mean_self_ns,
        counters: [&c0, &c1, &c2],
        proc: (proc0, proc1),
        thread: (thread0, thread1),
        allocs: (allocs0, allocs1),
        virt_lat_us: &virt_lat_us,
        payload_bytes: w.payload_bytes(),
        probes: &probes,
        intranode: !shape.internode,
        calib_spin_ns: calib_before.min(calib_after),
    });
    let report = Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    };
    let extras = TraceExtras {
        chrome_trace,
        span_sum_us: mean_self_ns.iter().sum::<f64>() / 1000.0,
        traced_lat_p50_us: traced_lat.quantile(0.5) / 1000.0,
        problems,
    };
    (report, extras)
}

struct LayerInputs<'a> {
    plain: &'a Phase,
    traced: &'a Phase,
    plain_lat: &'a LatHist,
    mean_self_ns: [f64; KINDS],
    /// Before the untraced phase, between the phases, after the traced one.
    counters: [&'a LayerCounters; 3],
    proc: (Usage, Usage),
    thread: (Usage, Usage),
    allocs: ((u64, u64), (u64, u64)),
    virt_lat_us: &'a [u64],
    payload_bytes: usize,
    probes: &'a Probes,
    intranode: bool,
    calib_spin_ns: f64,
}

fn layer_metrics(x: &LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let p = x.probes;
    let [c0, c1, c2] = x.counters;
    let plain_ops = x.plain.ops as f64;
    // Count metrics use both phases: twice the operations, same ratios.
    let ops = (x.plain.ops + x.traced.ops) as f64;
    let (s0, s2) = (&c0.stats, &c2.stats);
    let per_op = |before: u64, after: u64| (after - before) as f64 / ops;

    let bytes_pushed = (s2.bytes_pushed - s0.bytes_pushed) as f64;
    let bytes_pulled = (s2.bytes_pulled - s0.bytes_pulled) as f64;
    let copied = (s2.bytes_copied_direct - s0.bytes_copied_direct)
        + (s2.bytes_copied_staged - s0.bytes_copied_staged)
        + (s2.bytes_copied_extra - s0.bytes_copied_extra);
    let payload_total = ops * x.payload_bytes as f64;
    let retx_per_op = per_op(s0.retransmits, s2.retransmits);

    let transport_ns: f64 = [Kind::PostSend, Kind::PostRecv, Kind::Claim, Kind::Wait]
        .iter()
        .map(|k| x.mean_self_ns[*k as usize])
        .sum();
    let shell_ns = transport_ns
        - p.engine_cycle_ns
        - p.completions_per_op * (p.mailbox_post_ns + p.queue_take_ns);

    let plain_ops_per_s = median(&x.plain.chunk_ops_per_s);
    let traced_ops_per_s = median(&x.traced.chunk_ops_per_s);
    let proc_cpu_us = (x.proc.1.cpu() - x.proc.0.cpu()).as_secs_f64() * 1e6;
    let thread_cpu_us = (x.thread.1.cpu() - x.thread.0.cpu()).as_secs_f64() * 1e6;

    let reactor = c0.reactor.zip(c2.reactor);
    let chaos = c0.chaos.zip(c1.chaos).zip(c2.chaos);
    let virt: Vec<f64> = x.virt_lat_us.iter().map(|&us| us as f64).collect();
    let virt_total_s = virt.iter().sum::<f64>() / 1e6;
    let internode = !x.intranode;
    let when = |cond: bool, value: f64| if cond { value } else { 0.0 };

    let values: Vec<(&'static str, f64)> = vec![
        (
            "transport.post_send_ns",
            x.mean_self_ns[Kind::PostSend as usize],
        ),
        (
            "transport.post_recv_ns",
            x.mean_self_ns[Kind::PostRecv as usize],
        ),
        ("transport.claim_ns", x.mean_self_ns[Kind::Claim as usize]),
        ("transport.wait_ns", x.mean_self_ns[Kind::Wait as usize]),
        ("transport.lat_p99_us", x.plain_lat.quantile(0.99) / 1000.0),
        ("transport.driver_cpu_us_per_op", thread_cpu_us / plain_ops),
        ("ops.mailbox_post_ns", p.mailbox_post_ns),
        ("ops.queue_take_ns", p.queue_take_ns),
        ("queues.recv_match_ns", p.recv_match_ns),
        ("queues.unexpected_enqueue_ns", p.unexpected_enqueue_ns),
        (
            "queues.staged_bytes_per_op",
            per_op(s0.bytes_copied_staged, s2.bytes_copied_staged),
        ),
        ("engine.post_send_ns", p.engine_post_send_ns),
        ("engine.post_recv_ns", p.engine_post_recv_ns),
        ("engine.handle_packet_ns", p.engine_handle_packet_ns),
        ("engine.packets_per_op", p.engine_packets_per_op),
        (
            "engine.pull_requests_per_op",
            per_op(s0.pull_requests_sent, s2.pull_requests_sent),
        ),
        (
            "engine.pushed_share",
            when(
                bytes_pushed + bytes_pulled > 0.0,
                bytes_pushed / (bytes_pushed + bytes_pulled),
            ),
        ),
        (
            "engine.copied_bytes_per_payload_byte",
            copied as f64 / payload_total,
        ),
        (
            "engine.steady_allocs_per_op",
            per_op(s0.steady_allocs, s2.steady_allocs),
        ),
        ("sharded.overhead_ns", p.sharded_overhead_ns),
        ("intranode.shell_ns_per_op", when(x.intranode, shell_ns)),
        ("wire.encode_64b_ns", p.wire_encode_64b_ns),
        ("wire.decode_64b_ns", p.wire_decode_64b_ns),
        ("wire.encode_1460b_ns", p.wire_encode_1460b_ns),
        ("wire.decode_1460b_ns", p.wire_decode_1460b_ns),
        (
            "wire.header_bytes_per_payload_byte",
            p.wire_header_bytes_per_payload_byte,
        ),
        ("reliability.send_ns", p.reliability_send_ns),
        ("reliability.on_frame_ns", p.reliability_on_frame_ns),
        (
            "reliability.frames_per_op",
            when(internode, p.data_frames_per_op + retx_per_op),
        ),
        (
            "reliability.acks_per_op",
            per_op(s0.acks_received, s2.acks_received),
        ),
        ("reliability.retx_per_op", retx_per_op),
        (
            "reliability.rto_retx_per_op",
            per_op(s0.rto_retransmits, s2.rto_retransmits),
        ),
        (
            "reliability.fast_retx_per_op",
            per_op(s0.fast_retransmits, s2.fast_retransmits),
        ),
        (
            "reliability.dup_frames_per_op",
            per_op(s0.duplicate_frames, s2.duplicate_frames),
        ),
        ("reliability.virt_lat_p50_us", percentile(&virt, 50.0)),
        ("reliability.virt_lat_p99_us", percentile(&virt, 99.0)),
        (
            "reliability.virt_goodput_mb_s",
            when(
                virt_total_s > 0.0,
                virt.len() as f64 * x.payload_bytes as f64 / 1e6 / virt_total_s,
            ),
        ),
        (
            "reactor.recv_batch_mean",
            reactor.map_or(0.0, |(a, b)| {
                (b.frames_received - a.frames_received) as f64
                    / (b.batches - a.batches).max(1) as f64
            }),
        ),
        (
            "reactor.send_batch_mean",
            reactor.map_or(0.0, |(a, b)| {
                (b.acks_sent - a.acks_sent) as f64 / (b.batches - a.batches).max(1) as f64
            }),
        ),
        (
            "reactor.batches_per_op",
            reactor.map_or(0.0, |(a, b)| per_op(a.batches, b.batches)),
        ),
        (
            "reactor.batch_lock_ns_p50",
            reactor.map_or(0.0, |(_, r)| r.batch_lock_ns.quantile_bound(0.5) as f64),
        ),
        (
            "reactor.user_lock_ns_p50",
            reactor.map_or(0.0, |(_, r)| r.user_lock_ns.quantile_bound(0.5) as f64),
        ),
        (
            "reactor.timers_fired_per_op",
            reactor.map_or(0.0, |(a, b)| per_op(a.timers_fired, b.timers_fired)),
        ),
        (
            "reactor.loop_cpu_us_per_op",
            when(
                reactor.is_some(),
                (proc_cpu_us - thread_cpu_us).max(0.0) / plain_ops,
            ),
        ),
        (
            "chaos.events_per_op",
            chaos.map_or(0.0, |((a, _), b)| per_op(a.events, b.events)),
        ),
        (
            "chaos.drops_per_op",
            chaos.map_or(0.0, |((a, _), b)| {
                per_op(a.frames_dropped, b.frames_dropped)
            }),
        ),
        (
            "chaos.wall_ns_per_event",
            chaos.map_or(0.0, |((a, mid), _)| {
                x.plain.wall_ns as f64 / (mid.events - a.events).max(1) as f64
            }),
        ),
        (
            "proc.cpu_user_us_per_op",
            (x.proc.1.user - x.proc.0.user).as_secs_f64() * 1e6 / plain_ops,
        ),
        (
            "proc.cpu_sys_us_per_op",
            (x.proc.1.sys - x.proc.0.sys).as_secs_f64() * 1e6 / plain_ops,
        ),
        (
            "proc.vol_ctx_switches_per_op",
            (x.proc.1.vol_ctx - x.proc.0.vol_ctx) as f64 / plain_ops,
        ),
        (
            "proc.invol_ctx_switches_per_op",
            (x.proc.1.invol_ctx - x.proc.0.invol_ctx) as f64 / plain_ops,
        ),
        (
            "proc.allocs_per_op",
            (x.allocs.1 .0 - x.allocs.0 .0) as f64 / plain_ops,
        ),
        (
            "proc.alloc_bytes_per_op",
            (x.allocs.1 .1 - x.allocs.0 .1) as f64 / plain_ops,
        ),
        ("driver.self_ns_per_op", x.mean_self_ns[Kind::Op as usize]),
        (
            "driver.trace_overhead_pct",
            (plain_ops_per_s - traced_ops_per_s) / plain_ops_per_s * 100.0,
        ),
        (
            "driver.slice_spread_pct",
            iqr_share(&x.plain.chunk_ops_per_s) * 100.0,
        ),
        ("driver.calib_spin_ns", x.calib_spin_ns),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    values
}
