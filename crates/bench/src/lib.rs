//! # sudowoodo-bench
//!
//! The experiment harness: one function per table and figure of the paper's evaluation
//! section ([`experiments`]), run by id through the `paper` binary, which prints the rows
//! the paper reports and writes a JSON copy under `target/experiments/`. The crate's other
//! binary, `perf_speedup`, is the CI perf gate.
//!
//! Runtime is controlled by environment variables (a malformed value is an error):
//!
//! * `SUDOWOODO_SCALE` — dataset scale factor (default 0.2; the paper's datasets are larger
//!   but the synthetic generators preserve their relative difficulty at any scale);
//! * `SUDOWOODO_QUICK` — when `1` or `true`, restricts sweeps to fewer datasets / variants
//!   so every table completes in minutes on a laptop;
//! * `SUDOWOODO_SEED` and `SUDOWOODO_LABELS` — the base seed and the label budget.

#![warn(missing_docs)]

pub mod connsweep;
pub mod experiments;
pub mod harness;

pub use harness::{HarnessConfig, ResultWriter};
