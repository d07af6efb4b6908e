//! Keeps the benchmark from rotting: every workload runs in-process with tiny sizes
//! and sub-second windows (no child processes — `current_exe` is the test harness
//! here), and everything `BENCHMARK.json` names must come out finite with its unit.

use std::path::PathBuf;

use crate::defs::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use crate::measure::parse_result;
use crate::workloads::{self, Params};

#[test]
fn the_committed_benchmark_json_is_what_the_definitions_render() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(
        committed,
        benchmark_json(),
        "run `sudobench define > BENCHMARK.json`"
    );
}

#[test]
fn definitions_meet_the_contract() {
    let name_ok = |name: &str| {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
    assert!(names.iter().all(|n| name_ok(n)));
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!(END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .all(|m| unit_ok(m.unit)));
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_workload_reports_every_metric_in_quick_mode() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/sudobench-smoke");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for trace in [false, true] {
            let scratch = root.join(format!("{}-{}", workload.name, u8::from(trace)));
            std::fs::create_dir_all(&scratch).expect("scratch directory");
            // Spill directories go under TMPDIR; tests of this binary run one at a
            // time through this loop, so setting it here races with nothing.
            std::env::set_var("TMPDIR", &scratch);
            let params = Params {
                seed: 11 + i as u64,
                seconds: 0.6,
                trace,
                quick: true,
                scratch: scratch.clone(),
                out_dir: root.clone(),
            };
            let report = workloads::run(workload.name, &params)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name));
            assert_eq!(report.failed, 0, "{}: failed operations", workload.name);
            assert!(report.attempted >= 1);
            let parsed = parse_result(&report.result_line(trace)).expect("the result line parses");
            let defs = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(parsed.metrics.len(), defs.len());
            for (def, (name, value, unit)) in defs.iter().zip(&parsed.metrics) {
                assert_eq!((def.name, def.unit), (name.as_str(), unit.as_str()));
                assert!(value.is_finite(), "{} {name} = {value}", workload.name);
                if !trace {
                    assert!(*value > 0.0, "{} {name} must never be 0", workload.name);
                }
            }
            if trace {
                assert!(root.join(format!("trace-{}.json", workload.name)).is_file());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
