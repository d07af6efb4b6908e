//! # sudowoodo-baselines
//!
//! Re-implementations of the systems the paper compares against, at the
//! algorithmic-idea level: each keeps the idea that sets the original system apart and
//! substitutes this workspace's own parts for the rest — the from-scratch encoder of
//! `sudowoodo-core` for a pre-trained language model, and in-repo models for external
//! libraries:
//!
//! * [`supervised`] — Ditto-like and Rotom-like supervised matchers; Ditto without a
//!   label budget is the fully supervised reference (Tables V / XVIII);
//! * [`unsupervised`] — ZeroER (Gaussian-mixture over pair similarities) and
//!   Auto-FuzzyJoin-like matchers (Table VI);
//! * [`dlblock`] — a DL-Block-like kNN blocker over TF-IDF representations
//!   (Table VII / Figure 7);
//! * [`baran`] — a Baran-like error-correction ensemble with Raha-like or perfect error
//!   detection (Table VIII);
//! * [`columns`] — Sherlock-like / Sato-like column featurizers paired with
//!   LR / SVM / GBT / RF / SIM pair classifiers (Tables X / XII).

#![warn(missing_docs)]

pub mod baran;
pub mod columns;
pub mod dlblock;
pub mod supervised;
pub mod unsupervised;

pub use baran::{run_baran, BaranResult, ErrorDetection};
pub use columns::{
    run_column_baseline, run_column_baseline_grid, ColumnFeaturizer, PairClassifier,
};
pub use dlblock::{run_dlblock, run_dlblock_curve, BlockingRun};
pub use supervised::{run_ditto, run_rotom, SupervisedBaselineResult};
pub use unsupervised::{run_auto_fuzzy_join, run_zeroer, UnsupervisedBaselineResult};
