//! The timed run: warm-up, a byte-compare audit, `--seconds` seconds of
//! 100 ms slices of whole operations, a second audit, and the exit checks.
//! Everything runs on the calling thread.
//!
//! Noise rules: `ops_per_s` and `cpu_us_per_op` are medians over slices, so
//! a burst of neighbour interference costs a slice, not the run; `setup_s`
//! is the median of a one-second series of cold set-ups; `peak_rss_mb` is
//! [`steady_peak`] of the resident-memory samples taken between the seconds
//! of the timed phase;
//! no calibration factor touches any reported number.

use crate::manifest::{Report, END_TO_END};
use crate::payload::Check;
use crate::span::{NoTrace, Tracer};
use crate::stats::{iqr_share, median, steady_peak, LatHist};
use crate::sys::{anon_rss_mib, peak_rss_mib, Usage};
use crate::workload::{SelfTest, StepCx, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Cold set-ups are timed for this long (and at least [`MIN_SETUPS`] of
/// them) behind one `setup_s`.  One takes 0.1–1 ms, and on a shared box
/// bursts of tens of milliseconds slow a good part of any short series, so
/// the median needs a series much longer than a burst to repeat.
const SETUP_SAMPLING: Duration = Duration::from_secs(1);
pub const MIN_SETUPS: usize = 101;
/// Untimed set-ups run for this long first: a process that has just started
/// runs on a CPU that was idle, and the first set-ups after that are slower
/// by tens of per cent.
const SETUP_WARMUP: Duration = Duration::from_millis(100);
/// Operations each byte-compare audit covers.
pub const AUDIT_OPS: u64 = 1_000;
const SLICE_NS: u64 = 100_000_000;
const SLICES_PER_SECOND: u64 = 10;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u64,
    pub self_test: bool,
}

/// What a run prints besides its gated metrics.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    pub samples: u64,
    pub lat_p99_us: f64,
    pub goodput_mb_s: f64,
    pub slice_spread_pct: f64,
    /// Mean throughput of every second of the timed phase, in run order.
    pub second_ops_per_s: Vec<f64>,
    /// The largest anonymous-memory sample, one-off steps included.
    pub max_anon_mb: f64,
    /// `VmHWM`: the peak with the executable's file-backed pages included.
    pub vm_hwm_mb: f64,
    pub stalls: u64,
    pub problems: Vec<String>,
}

/// The median time in seconds of a series of cold set-ups, each instance
/// dropped — outside the timed region — before the next is built.
pub fn setup_probe<W: Workload>(seed: u64) -> f64 {
    let warm = Instant::now();
    while warm.elapsed() < SETUP_WARMUP {
        drop(W::setup(seed));
    }
    let mut times = Vec::new();
    let sampling = Instant::now();
    while times.len() < MIN_SETUPS || sampling.elapsed() < SETUP_SAMPLING {
        let start = Instant::now();
        let instance = W::setup(seed);
        times.push(start.elapsed().as_secs_f64());
        drop(instance);
    }
    median(&times)
}

/// Runs `steps` steps starting at `*seq`, advancing it.
pub fn run_steps<W: Workload, T: Tracer>(
    w: &mut W,
    cx: &mut StepCx<'_, T>,
    seq: &mut u64,
    steps: u64,
) {
    for _ in 0..steps {
        w.step(*seq, cx);
        *seq += 1;
    }
}

/// One byte-compare audit of [`AUDIT_OPS`] operations.
fn audit<W: Workload, T: Tracer>(w: &mut W, cx: &mut StepCx<'_, T>, seq: &mut u64) {
    let before = cx.check;
    cx.check = Check::Full;
    run_steps(w, cx, seq, AUDIT_OPS);
    cx.check = before;
}

/// The exit check on the library's own failure counters.
pub fn health_problems<W: Workload>(w: &W) -> Vec<String> {
    let stats = w.counters().stats;
    [
        ("recvs_failed", stats.recvs_failed),
        ("channels_failed", stats.channels_failed),
        ("completions_evicted", stats.completions_evicted),
    ]
    .iter()
    .filter(|(_, n)| *n != 0)
    .map(|(name, n)| format!("{name} = {n} at exit (must be 0)"))
    .collect()
}

/// Per-slice readings of the timed phase.
#[derive(Default)]
struct Slices {
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    /// Anonymous memory before the first second and after every second.
    anon_mb: Vec<f64>,
}

/// `setup_s` is measured by the caller (in a process of its own, so that the
/// instances it builds and drops never count towards this one's memory); its
/// `Err` makes the run incorrect.
pub fn run<W: Workload>(opts: &RunOpts, setup_s: Result<f64, String>) -> (Report, Extras) {
    let mut w = W::setup(opts.seed);
    let clock = Instant::now();
    let mut tracer = NoTrace;
    let mut lat = LatHist::new();
    let mut seq = W::SETUP_STEPS;
    let mut cx = StepCx::new(&mut tracer, Check::Stamp, clock, &mut lat);
    let mut slices = Slices::default();

    // A panic below the public API (the chaos cluster's event budget is one)
    // is a failed operation and an incorrect run, not a lost result line.
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        cx.record_latency = false;
        run_steps(&mut w, &mut cx, &mut seq, W::WARMUP_STEPS);
        if opts.self_test {
            cx.self_test = SelfTest {
                flip_payload_at: Some(seq + 10),
                zero_deadline_at: Some(seq + 20),
            };
        }
        audit(&mut w, &mut cx, &mut seq);

        cx.record_latency = true;
        slices.anon_mb.push(anon_rss_mib());
        for second in 0..opts.seconds {
            w.renew(second);
            for _ in 0..SLICES_PER_SECOND {
                let cpu_before = Usage::process().cpu();
                let start_ns = cx.now_ns();
                let mut ops = 0u64;
                let elapsed_ns = loop {
                    let end_ns = w.step(seq, &mut cx);
                    seq += 1;
                    ops += 1;
                    if end_ns - start_ns >= SLICE_NS {
                        break end_ns - start_ns;
                    }
                };
                let cpu = Usage::process().cpu() - cpu_before;
                slices.ops_per_s.push(ops as f64 * 1e9 / elapsed_ns as f64);
                slices
                    .cpu_us_per_op
                    .push(cpu.as_secs_f64() * 1e6 / ops as f64);
            }
            slices.anon_mb.push(anon_rss_mib());
        }

        cx.record_latency = false;
        audit(&mut w, &mut cx, &mut seq);
    }))
    .err()
    .map(|payload| {
        let what = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        format!("the workload panicked: {what}")
    });

    let (mut attempted, mut failed, stalls) = (cx.attempted, cx.failed, cx.stalls);
    let mut problems = Vec::new();
    let setup_s = setup_s.unwrap_or_else(|e| {
        problems.push(format!("set-up probe: {e}"));
        0.0
    });
    match panicked {
        Some(problem) => {
            // The operation in progress never completed.
            attempted += 1;
            failed += 1;
            problems.push(problem);
        }
        None => problems.extend(health_problems(&w)),
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    let ops_per_s = median(&slices.ops_per_s);
    let report = Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("ops_per_s", ops_per_s),
            ("lat_p50_us", lat.quantile(0.50) / 1000.0),
            ("cpu_us_per_op", median(&slices.cpu_us_per_op)),
            ("peak_rss_mb", steady_peak(&slices.anon_mb)),
        ],
    };
    debug_assert_eq!(report.metrics.len(), END_TO_END.len());
    let extras = Extras {
        samples: lat.count(),
        lat_p99_us: lat.quantile(0.99) / 1000.0,
        goodput_mb_s: ops_per_s * w.payload_bytes() as f64 / 1e6,
        slice_spread_pct: if slices.ops_per_s.len() >= 2 {
            iqr_share(&slices.ops_per_s) * 100.0
        } else {
            0.0
        },
        second_ops_per_s: slices
            .ops_per_s
            .chunks(SLICES_PER_SECOND as usize)
            .map(|second| second.iter().sum::<f64>() / second.len() as f64)
            .collect(),
        max_anon_mb: slices.anon_mb.iter().copied().fold(0.0, f64::max),
        vm_hwm_mb: peak_rss_mib(),
        stalls,
        problems,
    };
    (report, extras)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{LayerCounters, Shape};
    use push_pull_messaging::core::{ProtocolConfig, ReliabilityMode};

    /// Completes four operations, then panics the way an exhausted chaos
    /// event budget does.
    struct Bomb;

    impl Workload for Bomb {
        const NAME: &'static str = "bomb";
        const WARMUP_STEPS: u64 = 10;
        const TRACE_STEPS: u64 = 10;

        fn setup(_seed: u64) -> Self {
            Bomb
        }

        fn step<T: Tracer>(&mut self, seq: u64, cx: &mut StepCx<'_, T>) -> u64 {
            assert!(seq < 5, "exceeded the event budget");
            let start_ns = cx.now_ns();
            cx.finish_op(seq, start_ns, true)
        }

        fn counters(&self) -> LayerCounters {
            LayerCounters::default()
        }

        fn shape(&self) -> Shape {
            Shape {
                protocol: ProtocolConfig::paper_intranode(),
                internode: false,
                reliability: ReliabilityMode::GoBackN,
                request_len: 1,
                reply_len: 1,
                late_receive: false,
                recv_into: false,
            }
        }
    }

    #[test]
    fn a_panicking_workload_is_a_failed_operation_and_an_incorrect_run() {
        let opts = RunOpts {
            seed: 1,
            seconds: 1,
            self_test: false,
        };
        let (report, extras) = run::<Bomb>(&opts, Ok(0.001));
        assert!(!report.correct);
        assert_eq!((report.attempted, report.failed), (5, 1));
        assert_eq!(
            report.validate(END_TO_END),
            Ok(()),
            "still a printable report"
        );
        assert!(extras.problems[0].contains("exceeded the event budget"));
        let (report, extras) = run::<Bomb>(&opts, Err("child exited with 1".into()));
        assert!(!report.correct);
        assert!(extras.problems[0].contains("set-up probe"));
    }
}
