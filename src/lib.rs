//! # sudowoodo
//!
//! Umbrella crate of the Sudowoodo reproduction — a multi-purpose Data Integration &
//! Preparation (DI&P) framework based on contrastive self-supervised learning
//! (Wang, Li, Wang — "Sudowoodo", ICDE 2023), implemented from scratch in Rust.
//!
//! This crate simply re-exports the member crates under stable names and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`nn`] | `sudowoodo-nn` | autodiff engine, layers, AdamW |
//! | [`text`] | `sudowoodo-text` | records/tables/columns, serialization, tokenizer |
//! | [`augment`] | `sudowoodo-augment` | DA operators and cutoff augmentation |
//! | [`cluster`] | `sudowoodo-cluster` | TF-IDF, k-means, clustered batching, components |
//! | [`index`] | `sudowoodo-index` | exact cosine kNN blocking (dense + sharded/streaming) |
//! | [`ml`] | `sudowoodo-ml` | classical learners and metrics |
//! | [`datasets`] | `sudowoodo-datasets` | synthetic EM / cleaning / column workloads |
//! | [`core`] | `sudowoodo-core` | pre-training, pseudo labels, matcher, pipelines |
//! | [`baselines`] | `sudowoodo-baselines` | Ditto/Rotom/ZeroER/Auto-FuzzyJoin/DL-Block/Baran/Sherlock/Sato analogs |
//! | [`serve`] | `sudowoodo-serve` | snapshot-backed concurrent TCP query serving |
//! | [`faults`] | `sudowoodo-faults` | deterministic failpoint registry for chaos testing |
//!
//! See `README.md` for a quickstart and `ARCHITECTURE.md` for crate responsibilities,
//! data flow, and the design of the dense/sharded blocking indexes.

#![warn(missing_docs)]

pub use sudowoodo_augment as augment;
pub use sudowoodo_baselines as baselines;
pub use sudowoodo_cluster as cluster;
pub use sudowoodo_core as core;
pub use sudowoodo_datasets as datasets;
pub use sudowoodo_faults as faults;
pub use sudowoodo_index as index;
pub use sudowoodo_ml as ml;
pub use sudowoodo_nn as nn;
pub use sudowoodo_serve as serve;
pub use sudowoodo_text as text;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use sudowoodo_core::config::{EncoderConfig, EncoderKind, SudowoodoConfig};
    pub use sudowoodo_core::encoder::Encoder;
    pub use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
    pub use sudowoodo_core::pipeline::{CleaningPipeline, ColumnPipeline, EmPipeline};
    pub use sudowoodo_core::pretrain::pretrain;
    pub use sudowoodo_datasets::cleaning::CleaningProfile;
    pub use sudowoodo_datasets::columns::ColumnProfile;
    pub use sudowoodo_datasets::em::EmProfile;
    pub use sudowoodo_index::{BlockingIndex, CosineIndex, ShardedCosineIndex};
}
