//! The standing benchmark of the Push-Pull Messaging reproduction.
//!
//! ```text
//! benchmark run --all [--seed N] [--seconds S] [--self-test]
//! benchmark run --workload W [--seed N] [--seconds S] [--self-test]
//! benchmark trace --workload W [--seed N]
//! benchmark repeat [--sets 2] [--runs 5] [--seed N] [--seconds S]
//! benchmark manifest
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! (`setup-probe --workload W` is the timed run's own helper: it prints the
//! median of a one-second series of cold set-ups measured in a fresh process.)
//!
//! The last form is the acceptance driver's: one workload in this process,
//! a human summary on standard error, and one JSON object — `correct`,
//! `attempted`, `failed`, `metrics` — as the last line of standard output.
//! The exit code is 0 only when the run was correct.  See `README.md`.

mod json;
mod manifest;
mod measure;
mod payload;
mod probes;
mod repeat;
mod span;
mod stats;
mod sys;
mod trace;
mod workload;

use manifest::{MetricDef, Report, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use measure::RunOpts;
use std::process::ExitCode;
use workload::chaos::ChaosSr;
use workload::intranode::{IntranodeBulkLate, IntranodeRr};
use workload::reactor::ReactorRr;
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage:
  benchmark run --all [--seed N] [--seconds S] [--self-test]
  benchmark run --workload W [--seed N] [--seconds S] [--self-test]
  benchmark trace --workload W [--seed N]
  benchmark repeat [--sets 2] [--runs 5] [--seed N] [--seconds S]
  benchmark manifest
  benchmark --workload W --seed N --seconds S --trace 0|1";

/// Parsed command line.  Flags may come in any order after the subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: String,
    pub workload: Option<String>,
    pub all: bool,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub self_test: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        all: false,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        self_test: false,
        sets: 2,
        runs: 5,
    };
    let mut it = raw.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        value
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag}: not a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => args.all = true,
            "--self-test" => args.self_test = true,
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if !manifest::is_workload(name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = number(flag, it.next())?,
            "--seconds" => args.seconds = number(flag, it.next())?,
            "--sets" => args.sets = number(flag, it.next())?,
            "--runs" => args.runs = number(flag, it.next())?,
            "--trace" => args.trace = number::<u8>(flag, it.next())? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    if args.command == "trace" {
        args.trace = true;
    }
    Ok(args)
}

/// Calls `$f::<W>($($arg),*)` for the workload type named `$name`.
macro_rules! dispatch {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            IntranodeRr::NAME => $f::<IntranodeRr>($($arg),*),
            IntranodeBulkLate::NAME => $f::<IntranodeBulkLate>($($arg),*),
            ReactorRr::NAME => $f::<ReactorRr>($($arg),*),
            ChaosSr::NAME => $f::<ChaosSr>($($arg),*),
            other => unreachable!("workload {other} passed parse_args"),
        }
    };
}

fn print_metrics(report: &Report, defs: &[MetricDef]) {
    for ((name, value), def) in report.metrics.iter().zip(defs) {
        let gate = match def.bound {
            Some(bound) => format!("  [{} is better, bound {bound}]", def.better.as_str()),
            None => String::new(),
        };
        eprintln!("  {name:<38} {value:>16.4} {:<6}{gate}", def.unit);
    }
}

/// Validates, prints and turns a report into the process exit code.
fn finish(name: &str, report: &Report, defs: &[MetricDef], problems: &[String]) -> ExitCode {
    if let Err(e) = report.validate(defs) {
        eprintln!("benchmark: internal error: {e}");
        return ExitCode::from(2);
    }
    print_metrics(report, defs);
    for problem in problems {
        eprintln!("  INCORRECT: {problem}");
    }
    eprintln!(
        "  {name}: correct={} attempted={} failed={}",
        report.correct, report.attempted, report.failed
    );
    println!("{}", report.to_json_line(defs));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measures `setup_s` of `W` in a child process and waits for it.  The
/// instances a probe builds and drops (a thousand reactors, their thread
/// stacks and allocator arenas) must not count towards the measured process's
/// `peak_rss_mb`.
fn setup_probe_in_child<W: Workload>(seed: u64) -> Result<f64, String> {
    let seed = seed.to_string();
    let output = repeat::run_self(&["setup-probe", "--workload", W::NAME, "--seed", &seed])?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "child printed no number".to_string())
}

fn print_setup_probe<W: Workload>(opts: &RunOpts) -> ExitCode {
    println!("{}", measure::setup_probe::<W>(opts.seed));
    ExitCode::SUCCESS
}

fn timed<W: Workload>(opts: &RunOpts) -> ExitCode {
    eprintln!(
        "{}: seed {} | 1 s of cold set-ups in a child process; warm-up, audit, {} s of 100 ms slices, audit{}",
        W::NAME,
        opts.seed,
        opts.seconds,
        if opts.self_test { " | SELF-TEST: two checks are broken on purpose" } else { "" }
    );
    let setup_s = setup_probe_in_child::<W>(opts.seed);
    let (report, extras) = measure::run::<W>(opts, setup_s);
    eprintln!(
        "  not gated: goodput {:.2} MB/s, lat_p99 {:.3} us over {} samples, slice spread {:.2} %, largest anonymous sample {:.3} MiB, VmHWM {:.3} MiB, wait stalls {}",
        extras.goodput_mb_s,
        extras.lat_p99_us,
        extras.samples,
        extras.slice_spread_pct,
        extras.max_anon_mb,
        extras.vm_hwm_mb,
        extras.stalls
    );
    let seconds: Vec<String> = extras
        .second_ops_per_s
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    eprintln!("  seconds [op/s]: {}", seconds.join(" "));
    finish(W::NAME, &report, END_TO_END, &extras.problems)
}

fn traced<W: Workload>(opts: &RunOpts) -> ExitCode {
    eprintln!(
        "{}: seed {} | traced run: warm-up, {} ops untraced, {} ops traced, probes",
        W::NAME,
        opts.seed,
        W::TRACE_STEPS,
        W::TRACE_STEPS
    );
    let (report, extras) = trace::run::<W>(opts);
    if let Some(path) = &extras.chrome_trace {
        eprintln!("  chrome trace: {}", path.display());
    }
    eprintln!(
        "  layer self times sum to {:.3} us per op; traced lat_p50 is {:.3} us ({:+.1} %)",
        extras.span_sum_us,
        extras.traced_lat_p50_us,
        (extras.span_sum_us / extras.traced_lat_p50_us - 1.0) * 100.0
    );
    finish(W::NAME, &report, PER_LAYER, &extras.problems)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        self_test: args.self_test,
    };
    match (args.command.as_str(), &args.workload) {
        ("manifest", _) => {
            print!("{}", manifest::manifest_json());
            ExitCode::SUCCESS
        }
        ("repeat", _) => repeat::repeat(&args),
        ("run", None) if args.all => repeat::run_all(&args),
        ("setup-probe" | "run" | "trace", Some(name)) => {
            // One CPU for the whole process: threads spawned later (the
            // reactor's loop thread) and children (the set-up probe) inherit
            // the mask.
            if !sys::driver_cpu().is_some_and(sys::pin_current_thread) {
                eprintln!("benchmark: could not pin; thread placement is the scheduler's");
            }
            if args.command == "setup-probe" {
                dispatch!(name.as_str(), print_setup_probe(&opts))
            } else if args.trace {
                dispatch!(name.as_str(), traced(&opts))
            } else {
                dispatch!(name.as_str(), timed(&opts))
            }
        }
        _ => {
            eprintln!("benchmark: nothing to do\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&raw)
    }

    #[test]
    fn the_drivers_flag_form_is_a_run_of_one_workload() {
        let a = args("--workload chaos_sr_64k_loss5 --seed 9 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("chaos_sr_64k_loss5"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, false));
        let a = args("--workload intranode_rr_64b --seed 1 --seconds 24 --trace 1").unwrap();
        assert!(a.trace);
        assert!(args("trace --workload intranode_rr_64b").unwrap().trace);
    }

    #[test]
    fn defaults_and_rejections() {
        let a = args("run --all").unwrap();
        assert!(a.all);
        assert_eq!((a.seed, a.seconds, a.sets, a.runs), (1, RUN_SECONDS, 2, 5));
        assert!(args("--workload no_such_workload").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("run --bogus").is_err());
    }
}
