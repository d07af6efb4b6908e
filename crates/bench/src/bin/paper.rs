//! Regenerates one table or figure of the paper's evaluation.
//!
//! Run with `cargo run --release -p sudowoodo-bench --bin paper -- <id>`; an unknown or
//! missing id prints the valid ones. Environment: `SUDOWOODO_SCALE`, `SUDOWOODO_QUICK`,
//! `SUDOWOODO_SEED`, `SUDOWOODO_LABELS` (see [`HarnessConfig::from_env`]). Prints the
//! table and writes it to `target/experiments/<id>.json`.

use std::process::ExitCode;

use sudowoodo_bench::experiments::*;
use sudowoodo_bench::{HarnessConfig, ResultWriter};

type Experiment = fn(&HarnessConfig) -> TableResult;

/// Every experiment: its id (also the name of its JSON file), its title, and the
/// function that runs it.
const EXPERIMENTS: &[(&str, &str, Experiment)] = &[
    (
        "table02",
        "Table II / XVII: EM dataset statistics",
        table02_em_datasets,
    ),
    (
        "table05",
        "Table V: semi-supervised EM F1 (with ablations)",
        table05_semi_supervised,
    ),
    (
        "table06",
        "Table VI: unsupervised EM F1",
        table06_unsupervised,
    ),
    (
        "table07_fig07",
        "Table VII + Figure 7: blocking recall / CSSR",
        table07_fig07_blocking,
    ),
    (
        "table08",
        "Table VIII: error-correction F1",
        table08_cleaning,
    ),
    (
        "table09_13",
        "Tables IX / XIII: discovered column clusters",
        table09_13_column_clusters,
    ),
    (
        "table10_12",
        "Tables X / XII: column matching P/R/F1",
        table10_12_column_matching,
    ),
    (
        "table11",
        "Table XI: pseudo-label TPR/TNR",
        table11_pseudo_quality,
    ),
    (
        "table14_15",
        "Tables XIV / XV: candidate stats + cleaning ablation",
        table14_15_cleaning_detail,
    ),
    (
        "table16",
        "Table XVI: difficulty-level analysis",
        table16_difficulty,
    ),
    (
        "table18",
        "Table XVIII: fully supervised EM F1",
        table18_full_supervised,
    ),
    (
        "fig08",
        "Figure 8: hyper-parameter sensitivity",
        fig08_sensitivity,
    ),
    ("fig09_11", "Figures 9-11: running time", fig09_11_runtime),
];

fn main() -> ExitCode {
    let id = std::env::args().nth(1).unwrap_or_default();
    let Some(&(_, title, run)) = EXPERIMENTS.iter().find(|(name, ..)| *name == id) else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: paper <id>, where <id> is one of: {}", ids.join(" "));
        return ExitCode::FAILURE;
    };
    let config = match HarnessConfig::from_env() {
        Ok(config) => config,
        Err(error) => {
            eprintln!("paper: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("harness config: {config:?}");
    let table = run(&config);
    table.print(title);
    ResultWriter::new().write(&table.id, &table);
    ExitCode::SUCCESS
}
