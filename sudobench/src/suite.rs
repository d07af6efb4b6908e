//! The suite commands: every workload in a child process of its own (so the peak
//! resident set is per workload), results gathered from the children's last lines.

use std::process::{Command, Stdio};

use crate::defs::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::measure::{parse_result, quartiles, ParsedResult};
use crate::Args;

/// Runs one workload in a child process, echoing its output, and parses its result.
fn run_child(workload: &str, args: &Args, seed: u64, trace: bool) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    stdout
        .lines()
        .last()
        .and_then(parse_result)
        .ok_or_else(|| format!("{workload} printed no result line"))
}

/// One set: every workload once, in definition order.
fn run_set(args: &Args, seed: u64, trace: bool) -> Result<Vec<ParsedResult>, String> {
    WORKLOADS
        .iter()
        .map(|workload| run_child(workload.name, args, seed, trace))
        .collect()
}

fn value_of(result: &ParsedResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(f64::NAN, |(_, v, _)| *v)
}

/// `run` and `trace`: one set, then a table of metric x workload.
pub fn run_all(args: &Args, trace: bool) -> Result<(), String> {
    let results = run_set(args, args.seed, trace)?;
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    println!();
    print!("{:<34} {:<10}", "metric", "unit");
    for workload in &WORKLOADS {
        print!(" {:>16}", workload.name);
    }
    println!();
    for def in defs {
        print!("{:<34} {:<10}", def.name, def.unit);
        for result in &results {
            print!(" {:>16.4}", value_of(result, def.name));
        }
        println!();
    }
    print!("{:<34} {:<10}", "failed / attempted", "count");
    for result in &results {
        print!(
            " {:>16}",
            format!("{} / {}", result.failed, result.attempted)
        );
    }
    println!();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    if failed > 0 || results.iter().any(|r| !r.correct) {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

/// `repeat <sets>`: that many full untraced sets, each on its own seed, then per
/// metric x workload the median, the quartiles, their distance as a share of the
/// median, and the bound. Fails when a spread exceeds its bound (`setup_s` is shown
/// but does not fail the run — the driver does not judge its spread either).
pub fn repeat(args: &Args) -> Result<(), String> {
    if args.sets < 2 {
        return Err("repeat needs at least 2 sets".into());
    }
    let sets: Vec<Vec<ParsedResult>> = (0..args.sets as u64)
        .map(|set| run_set(args, args.seed + set, false))
        .collect::<Result<_, _>>()?;
    println!();
    println!(
        "{:<16} {:<12} {:<5} {:>12} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "unit", "q1", "median", "q3", "rel IQR", "bound"
    );
    let mut exceeded = Vec::new();
    let mut failed = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        failed += sets.iter().map(|set| set[w].failed).sum::<u64>();
        for def in &END_TO_END {
            let values: Vec<f64> = sets.iter().map(|set| value_of(&set[w], def.name)).collect();
            let [q1, q2, q3] = quartiles(&values);
            let spread = (q3 - q1) / q2;
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let within = spread <= bound;
            let gating = def.name != "setup_s";
            if !within && gating {
                exceeded.push(format!("{} {}", workload.name, def.name));
            }
            println!(
                "{:<16} {:<12} {:<5} {:>12.4} {:>12.4} {:>12.4} {:>9.4} {:>7.2}  {}{}",
                workload.name,
                def.name,
                def.unit,
                q1,
                q2,
                q3,
                spread,
                bound,
                if within { "within" } else { "EXCEEDED" },
                if gating { "" } else { " (not gating)" }
            );
        }
    }
    println!("{} sets, {failed} failed operations", args.sets);
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    if !exceeded.is_empty() {
        return Err(format!(
            "spread exceeds the bound on: {}",
            exceeded.join(", ")
        ));
    }
    Ok(())
}
