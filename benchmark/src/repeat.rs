//! `run --all` and `repeat`: every workload in a child process of its own
//! (so `peak_rss_mb` is that workload's alone and a crash costs one row),
//! and the repeatability check the acceptance driver applies — sets of
//! whole runs, inter-quartile spread and set-to-set gap against each
//! metric's bound — plus ISSUE 14's own: no single run further than
//! [`MAX_DEV`] from its set's median.

use crate::json::{self, Value};
use crate::manifest::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread_of};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Output, Stdio};

/// One child run, parsed back from its last line of standard output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    line: String,
}

fn parse_result_line(line: &str) -> Result<ChildRun, String> {
    let v = json::parse(line)?;
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| format!("result line lacks \"{key}\""))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_obj()
        .ok_or("\"metrics\" is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        metrics.insert(name.clone(), value);
    }
    for def in END_TO_END {
        if !metrics.contains_key(def.name) {
            return Err(format!("result line omits {}", def.name));
        }
    }
    Ok(ChildRun {
        correct: field("correct")?
            .as_bool()
            .ok_or("\"correct\" is not a boolean")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("\"attempted\" is not a number")? as u64,
        failed: field("failed")?
            .as_f64()
            .ok_or("\"failed\" is not a number")? as u64,
        metrics,
        line: line.to_string(),
    })
}

/// Runs this executable again with `args` and waits for it to end: standard
/// output captured, standard error passed through to ours.
pub fn run_self(args: &[&str]) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))
}

/// Runs one workload's timed run in a child process and waits for it.
fn run_child(workload: &str, seed: u64, seconds: u64, self_test: bool) -> Result<ChildRun, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut args = vec!["--workload", workload, "--trace", "0"];
    args.extend(["--seed", &seed, "--seconds", &seconds]);
    if self_test {
        args.push("--self-test");
    }
    let output = run_self(&args).map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let run = parse_result_line(line).map_err(|e| format!("{workload}: {e}"))?;
    if run.correct != output.status.success() {
        return Err(format!(
            "{workload}: exit status {} contradicts correct={}",
            output.status, run.correct
        ));
    }
    Ok(run)
}

/// `run --all`: every workload once; a table, then one JSON line each.
pub fn run_all(args: &Args) -> ExitCode {
    let mut all_correct = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        match run_child(w.name, args.seed, args.seconds, args.self_test) {
            Ok(run) => {
                all_correct &= run.correct;
                rows.push((w.name, run));
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                all_correct = false;
            }
        }
    }
    print!("{:<26}", "workload");
    for def in END_TO_END {
        print!(" {:>18}", format!("{} [{}]", def.name, def.unit));
    }
    println!(" {:>10} {:>7} correct", "attempted", "failed");
    for (name, run) in &rows {
        print!("{name:<26}");
        for def in END_TO_END {
            print!(" {:>18}", five_digits(run.metrics[def.name]));
        }
        println!(" {:>10} {:>7} {}", run.attempted, run.failed, run.correct);
    }
    for (name, run) in &rows {
        println!(
            "{{\"workload\": {}, \"result\": {}}}",
            json::quote(name),
            run.line
        );
    }
    if all_correct && rows.len() == WORKLOADS.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `value` with five significant digits, whatever its magnitude (set-up
/// times are 1e-4 s, throughputs 3e5 op/s).
fn five_digits(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let decimals = (4 - value.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{value:.decimals$}")
}

/// Median and inter-quartile spread (as a share of the median) of one set.
fn set_summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let [q1, q2, q3] = quartiles(values);
    (q1, q2, q3, spread_of([q1, q2, q3]))
}

/// Share of its set's median by which a single run may deviate.
const MAX_DEV: f64 = 0.10;

/// `repeat`: `--sets` sets of `--runs` whole `run --all`s of this binary,
/// each run with another seed.  Fails when, for any workload and metric, a
/// set's inter-quartile spread or the gap between set medians exceeds the
/// metric's bound, or a single run deviates from its set's median by more
/// than [`MAX_DEV`].
pub fn repeat(args: &Args) -> ExitCode {
    if args.sets < 1 || args.runs < 2 {
        eprintln!("benchmark: repeat needs --sets >= 1 and --runs >= 2");
        return ExitCode::from(2);
    }
    // values[workload][metric][set] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..args.sets {
        for run in 0..args.runs {
            let seed = args.seed + (set * args.runs + run) as u64;
            eprintln!("== set {} run {} (seed {seed})", set + 1, run + 1);
            for w in WORKLOADS {
                match run_child(w.name, seed, args.seconds, false) {
                    Ok(result) => {
                        all_correct &= result.correct;
                        for def in END_TO_END {
                            let sets = values
                                .entry(w.name)
                                .or_default()
                                .entry(def.name)
                                .or_insert_with(|| vec![Vec::new(); args.sets]);
                            sets[set].push(result.metrics[def.name]);
                        }
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let mut within = true;
    println!(
        "{:<26} {:<14} {:>3} {:>14} {:>14} {:>14} {:>13} {:>10} {:>9}",
        "workload", "metric", "set", "q1", "median", "q3", "spread/bound", "gap/bound", "max dev"
    );
    for w in WORKLOADS {
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let sets = &values[w.name][def.name];
            let first_median = set_summary(&sets[0]).1;
            for (i, runs) in sets.iter().enumerate() {
                let (q1, q2, q3, spread) = set_summary(runs);
                let gap = def.better.worse_by(first_median, q2).max(0.0);
                let max_dev = runs
                    .iter()
                    .map(|v| ((v - q2) / q2).abs())
                    .fold(0.0, f64::max);
                let ok = spread <= bound && gap <= bound && max_dev <= MAX_DEV;
                within &= ok;
                println!(
                    "{:<26} {:<14} {:>3} {:>14} {:>14} {:>14} {:>13.2} {:>10.2} {:>8.1}%{}",
                    w.name,
                    def.name,
                    i + 1,
                    five_digits(q1),
                    five_digits(q2),
                    five_digits(q3),
                    spread / bound,
                    gap / bound,
                    max_dev * 100.0,
                    if ok { "" } else { "  <-- outside its limits" }
                );
            }
        }
    }
    if !all_correct {
        println!("repeat: a run was incorrect");
    }
    println!(
        "repeat: {} sets x {} runs: {}",
        args.sets,
        args.runs,
        if within {
            "every spread, gap and deviation is within its limit"
        } else {
            "NOT repeatable within the limits"
        }
    );
    if within && all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Report;

    #[test]
    fn a_printed_report_parses_back() {
        let report = Report {
            correct: false,
            attempted: 1234,
            failed: 2,
            metrics: END_TO_END.iter().map(|d| (d.name, 0.5)).collect(),
        };
        let run = parse_result_line(&report.to_json_line(END_TO_END)).unwrap();
        assert!(!run.correct);
        assert_eq!((run.attempted, run.failed), (1234, 2));
        assert_eq!(run.metrics.len(), END_TO_END.len());
        assert_eq!(run.metrics["ops_per_s"], 0.5);
    }

    #[test]
    fn a_result_line_missing_a_metric_is_refused() {
        let mut report = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: END_TO_END.iter().map(|d| (d.name, 1.0)).collect(),
        };
        report.metrics.pop();
        assert!(parse_result_line(&report.to_json_line(END_TO_END)).is_err());
        assert!(parse_result_line("not json").is_err());
    }

    #[test]
    fn five_digits_keeps_small_and_large_values_readable() {
        assert_eq!(five_digits(0.000104321), "0.00010432");
        assert_eq!(five_digits(3.07991), "3.0799");
        assert_eq!(five_digits(298287.5362), "298288");
        assert_eq!(five_digits(0.0), "0");
    }

    #[test]
    fn set_summary_is_the_quartile_spread_over_the_median() {
        let (q1, q2, q3, spread) = set_summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (1.5, 3.0, 4.5));
        assert_eq!(spread, 1.0);
    }
}
