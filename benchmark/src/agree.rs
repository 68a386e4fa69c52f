//! Drivers that run workloads as child processes of this same binary, so
//! every measurement is a fresh process exactly as the acceptance harness
//! makes it: the run-everything default, and `agree`, a rehearsal of the
//! acceptance rule (two sets of seeded runs must agree on every
//! end-to-end metric within that metric's own bound).

use std::collections::BTreeMap;
use std::process::Command;

use kgtosa_obs::Json;

use crate::spec::{Metric, Spec};
use crate::stats::{median, spread};

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process. Its stdout is echoed when `echo`
/// is set; its last line is the result.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let json = Json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let metrics = match json.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload} result line has no metrics")),
    };
    let correct =
        json.get("correct").and_then(Json::as_bool) == Some(true) && output.status.success();
    Ok(RunResult { correct, metrics })
}

/// Every workload once untraced and once traced.
pub fn run_all(spec: &Spec, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &spec.workloads {
        for trace in [false, true] {
            println!(
                "== {workload} (seed {seed}, {seconds} s, trace {}) ==",
                u8::from(trace)
            );
            all_correct &= child(workload, seed, seconds, trace, true)?.correct;
        }
    }
    Ok(all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    if m.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Two sets of `runs` untraced runs per workload, seeds `seed..seed+runs`.
/// Fails when a run is incorrect, when a metric's inter-quartile spread
/// exceeds its bound (except `setup_s`, as in the acceptance rule), or
/// when the second set's median is worse than the first's by more than
/// the bound. Prints the per-metric spread table.
pub fn run(spec: &Spec, runs: usize, seconds: f64, seed: u64) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "spreadA", "spreadB", "B vs A", "bound"
    );
    for workload in &spec.workloads {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for _ in 0..2 {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in 0..runs {
                let result = child(workload, seed + run as u64, seconds, false, false)?;
                ok &= result.correct;
                for (name, value) in result.metrics {
                    values.entry(name).or_default().push(value);
                }
            }
            sets.push(values);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (a, b) = (&sets[0][&m.name], &sets[1][&m.name]);
            let (spread_a, spread_b) = (spread(a), spread(b));
            let worse = worsening(m, median(a), median(b));
            let steady = m.name == "setup_s" || spread_a.max(spread_b) <= bound;
            let agrees = worse <= bound;
            ok &= steady && agrees;
            println!(
                "{:<14} {:<26} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}%{}",
                workload,
                m.name,
                median(a),
                median(b),
                spread_a * 100.0,
                spread_b * 100.0,
                worse * 100.0,
                bound * 100.0,
                if steady && agrees { "" } else { "  <-- FAIL" }
            );
        }
    }
    Ok(ok)
}
