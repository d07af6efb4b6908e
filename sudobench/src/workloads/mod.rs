//! The five workloads. Each runs in the calling process, checks its answers and its
//! defining property, and returns a [`Report`]; a workload that finds itself measuring
//! the wrong path returns an error instead of numbers.

pub mod em;
pub mod join;
pub mod serve;

use std::path::PathBuf;

use crate::measure::Report;
use crate::trace::{self, Span};

/// What every workload is given.
pub struct Params {
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Record spans and fill in the per-layer metrics.
    pub trace: bool,
    /// Tiny sizes for the smoke test; the numbers mean nothing.
    pub quick: bool,
    /// Scratch directory of this run, inside the checkout; removed when the run ends.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

impl Params {
    /// Untimed warm-up before a window: long enough for the thread pool, page faults
    /// and lazy kernel dispatch to settle, a fifth of the window at most.
    pub fn warmup_seconds(&self) -> f64 {
        (self.seconds / 5.0).min(2.0)
    }

    /// The traced run measures an untraced and a traced window of this length each.
    pub fn traced_window_seconds(&self) -> f64 {
        self.seconds / 4.0
    }
}

/// Turns a broken workload property into the error that stops the run.
pub fn guard(holds: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("workload property violated: {}", what()))
    }
}

/// Whether two join results agree id for id and score bit for score bit.
pub fn same_pairs(a: &[(usize, usize, f32)], b: &[(usize, usize, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// Ends a traced run: coverage and span count into the report, self time per span
/// name into its notes, the spans themselves into `trace-<workload>.json`.
pub fn finish_trace(
    report: &mut Report,
    params: &Params,
    workload: &str,
    threads: Vec<Vec<Span>>,
    require_coverage: bool,
) -> Result<(), String> {
    let coverage = trace::coverage(&threads);
    guard(!require_coverage || params.quick || coverage >= 0.9, || {
        format!("trace coverage {coverage:.3} is below 0.9")
    })?;
    report.set("trace.coverage", coverage);
    report.set(
        "trace.spans",
        threads.iter().map(Vec::len).sum::<usize>() as f64,
    );
    for (name, seconds) in trace::self_times(&threads) {
        report
            .notes
            .push(format!("self time {name}: {seconds:.6} s"));
    }
    let path = params.out_dir.join(format!("trace-{workload}.json"));
    trace::write_json(&path, workload, &threads)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

/// Runs one workload by name.
pub fn run(name: &str, params: &Params) -> Result<Report, String> {
    match name {
        "em_pipeline" => em::run(params),
        "join_dense" => join::run(join::Layout::Dense, params),
        "join_spilled_q8" => join::run(join::Layout::SpilledQ8, params),
        "serve_knn" => serve::run(serve::Mix::KnnOnly, params),
        "serve_mixed" => serve::run(serve::Mix::Mixed, params),
        other => Err(format!("unknown workload {other:?}")),
    }
}
