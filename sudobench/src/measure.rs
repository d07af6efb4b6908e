//! Statistics, the per-run report and its one-line JSON form.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::defs::{MetricDef, END_TO_END, PER_LAYER};

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver judges spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative when the clamp moved `j` up (two or three samples): extrapolates.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency sample reduced to what the benchmark reports.
pub struct LatencySummary {
    pub p50: f64,
    /// The highest of p99/p95/p90/p75 that has at least ten samples beyond it; the
    /// median when the sample supports none of them.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_percentile: f64,
    pub samples: usize,
}

/// Median and supported tail of `values` (any unit; returned in the same unit).
pub fn summarize_latency(values: &[f64]) -> LatencySummary {
    assert!(!values.is_empty(), "latency summary of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_percentile = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    LatencySummary {
        p50: median(&sorted),
        tail: if tail_percentile == 50.0 {
            median(&sorted)
        } else {
            percentile(&sorted, tail_percentile)
        },
        tail_percentile,
        samples: n,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), the server threads included.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted, over every opcode.
    pub attempted: u64,
    /// Operations that failed: errors, BUSY after retries, wrong answers, a missed
    /// quality floor.
    pub failed: u64,
    /// Metric values by name. End-to-end metrics must all be present; a per-layer
    /// metric that is absent reads 0 (the workload does not exercise that layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result: per-opcode counts, shares,
    /// which tail percentile was used.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|m| m.name == name),
            "metric {name} is not defined in defs.rs"
        );
        self.values.insert(name, value);
    }

    /// Records how many operations were attempted and how many of them failed.
    pub fn set_outcome(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed.min(attempted);
        self.set("failed_share", self.failed as f64 / attempted.max(1) as f64);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records the three latency-derived end-to-end metrics (in milliseconds) plus
    /// which percentile the tail is and over how many samples.
    pub fn set_latency_ms(&mut self, seconds: &[f64]) {
        let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
        let summary = summarize_latency(&ms);
        self.set("lat_p50_ms", summary.p50);
        self.set("lat_tail_ms", summary.tail);
        self.set("lat.tail_percentile", summary.tail_percentile);
        self.set("lat.samples", summary.samples as f64);
        self.notes.push(format!(
            "latency: p50 {:.4} ms, tail p{} {:.4} ms over n = {}",
            summary.p50, summary.tail_percentile, summary.tail, summary.samples
        ));
    }

    /// The metrics the contract asks for in this mode, in definition order.
    fn selected(&self, trace: bool) -> Vec<(&'static MetricDef, f64)> {
        let defs: &'static [MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        defs.iter()
            .map(|def| {
                let value = match self.values.get(def.name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", def.name),
                };
                assert!(value.is_finite(), "metric {} is not finite", def.name);
                (def, value)
            })
            .collect()
    }

    /// The result object of the driver's contract, on one line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .selected(trace)
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name, value, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the notes, every selected metric by name and unit, and — as the last
    /// line of standard output — the result line.
    pub fn print(&self, workload: &str, trace: bool) {
        for note in &self.notes {
            println!("[{workload}] {note}");
        }
        for (def, value) in self.selected(trace) {
            println!("[{workload}] {:<34} {:>16.6} {}", def.name, value, def.unit);
        }
        println!("{}", self.result_line(trace));
    }
}

/// A result line parsed back (the suite commands read their children's output).
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the one-line result object [`Report::print`] writes. Only that exact shape
/// is understood — this is not a JSON parser.
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        text.find(key).map(|at| &text[at + key.len()..])
    }
    fn number(text: &str) -> Option<f64> {
        let end = text
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(text.len());
        text[..end].parse().ok()
    }
    let correct = after(line, "\"correct\": ")?.starts_with("true");
    let attempted = number(after(line, "\"attempted\": ")?)? as u64;
    let failed = number(after(line, "\"failed\": ")?)? as u64;
    let mut rest = after(line, "\"metrics\": {")?;
    let mut metrics = Vec::new();
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let close = tail.find('"')?;
        let name = tail[..close].to_string();
        let tail = after(&tail[close..], "\"value\": ")?;
        let value = number(tail)?;
        let tail = after(tail, "\"unit\": \"")?;
        let unit_end = tail.find('"')?;
        metrics.push((name, value, tail[..unit_end].to_string()));
        rest = after(&tail[unit_end..], "}")?;
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize_latency(&values);
        assert_eq!((s.tail_percentile, s.tail), (99.0, 990.0));
        let s = summarize_latency(&values[..150]);
        assert_eq!((s.tail_percentile, s.tail), (90.0, 135.0));
        let s = summarize_latency(&values[..12]);
        assert_eq!((s.tail_percentile, s.tail, s.p50), (50.0, 6.5, 6.5));
    }

    #[test]
    fn result_line_round_trips() {
        let mut report = Report {
            attempted: 12,
            failed: 0,
            ..Report::default()
        };
        for (def, value) in END_TO_END.iter().zip([1.5, 2.25e-3, 3.0, 4.0, 5.0]) {
            report.set(def.name, value);
        }
        let line = report.result_line(false);
        let parsed = parse_result(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(
            parsed.metrics[1],
            ("lat_p50_ms".into(), 2.25e-3, "ms".into())
        );
    }
}
