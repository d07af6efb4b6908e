//! `sudobench` — the repository's benchmark: five workloads, end-to-end and per-layer
//! metrics, a traced run. See `README.md` beside this package for what is measured
//! and why; `BENCHMARK.json` at the repository root carries the definitions.
//!
//! ```text
//! sudobench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! sudobench run    [--seed N] [--seconds S] [--quick]   every workload, untraced
//! sudobench trace  [--seed N] [--seconds S] [--quick]   every workload, traced
//! sudobench repeat <sets> [--seed N] [--seconds S] [--quick]
//! sudobench define                                       print BENCHMARK.json
//! ```
//!
//! The first form runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The suite forms run each workload in a child process of its own, so
//! `peak_rss_mb` is per workload.

mod defs;
mod gen;
mod measure;
mod probes;
#[cfg(test)]
mod smoke;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Params;

/// Parsed command line.
pub struct Args {
    pub command: Option<String>,
    pub sets: usize,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        sets: 0,
        workload: None,
        seed: 11,
        seconds: defs::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    fn value<T: std::str::FromStr>(
        flag: &str,
        raw: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let text = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}"))
    }
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload", &mut raw)?),
            "--seed" => args.seed = value("--seed", &mut raw)?,
            "--seconds" => args.seconds = value("--seconds", &mut raw)?,
            "--trace" => args.trace = value::<u8>("--trace", &mut raw)? != 0,
            "--quick" => args.quick = true,
            "run" | "trace" | "define" if args.command.is_none() => args.command = Some(arg),
            "repeat" if args.command.is_none() => {
                args.command = Some(arg);
                args.sets = value("repeat", &mut raw)?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

/// `<target dir>/sudobench`: traces go here, and each run's scratch directory below it.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("sudobench")
}

/// Runs one workload in this process and prints its result.
fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    if defs::workload(name).is_none() {
        let names: Vec<&str> = defs::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {name:?}; the workloads are {names:?}"
        ));
    }
    let out_dir = out_dir();
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let scratch = scratch
        .canonicalize()
        .map_err(|e| format!("resolving {}: {e}", scratch.display()))?;
    // The index spills shards under `std::env::temp_dir()`: keep that inside the
    // checkout too. Set before any other thread exists.
    std::env::set_var("TMPDIR", &scratch);
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        scratch: scratch.clone(),
        out_dir,
    };
    let outcome = workloads::run(name, &params);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome?.print(name, args.trace);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sudobench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), args.workload.as_deref()) {
        (None, Some(name)) => run_workload(name, &args),
        (Some("define"), None) => {
            print!("{}", defs::benchmark_json());
            Ok(())
        }
        (Some("run"), None) => suite::run_all(&args, false),
        (Some("trace"), None) => suite::run_all(&args, true),
        (Some("repeat"), None) => suite::repeat(&args),
        _ => {
            Err("give either --workload <name> or one of run, trace, repeat <sets>, define".into())
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sudobench: {message}");
            ExitCode::FAILURE
        }
    }
}
