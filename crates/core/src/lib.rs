//! # sudowoodo-core
//!
//! The core of the Sudowoodo reproduction: a multi-purpose data integration & preparation
//! (DI&P) framework based on contrastive self-supervised learning
//! (Wang, Li, Wang — "Sudowoodo", ICDE 2023).
//!
//! The framework casts a wide range of DI&P tasks as one generic *matching* problem over
//! serialized data items and provides:
//!
//! * [`encoder`] — the embedding model `M_emb` (a compact Transformer or mean-pool encoder
//!   standing in for the paper's RoBERTa/DistilBERT);
//! * [`loss`] — the SimCLR contrastive loss, the Barlow Twins redundancy-regularization
//!   loss, and their combination (Equations 1–6);
//! * [`mod@pretrain`] — Algorithm 1 with the three optimizations of §IV (cutoff augmentation,
//!   clustering-based negative sampling, redundancy regularization);
//! * [`pseudo`] — pseudo labeling from the learned similarity space (§III-C);
//! * [`matcher`] — the pairwise matching model `M_pm` with the similarity-aware fine-tuning
//!   head `Linear(Z_xy ⊕ |Z_x − Z_y|)` (§III-B);
//! * [`pipeline`] — end-to-end pipelines for Entity Matching, data cleaning, and column
//!   matching;
//! * [`config`] — one configuration struct whose boolean switches reproduce every ablation
//!   variant of the paper.
//!
//! ## Quick example
//!
//! ```
//! use sudowoodo_core::config::SudowoodoConfig;
//! use sudowoodo_core::pipeline::EmPipeline;
//! use sudowoodo_datasets::em::EmProfile;
//!
//! // A miniature end-to-end run: pre-train, block, pseudo-label, fine-tune, evaluate.
//! let dataset = EmProfile::dblp_acm().generate(0.05, 1);
//! let mut config = SudowoodoConfig::test_config();
//! config.max_corpus_size = 80;
//! let result = EmPipeline::new(config).run(&dataset, Some(30));
//! assert!(result.matching.f1 >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod encoder;
pub mod loss;
pub mod matcher;
pub mod model_snapshot;
pub mod pipeline;
pub mod pretrain;
pub mod pseudo;

pub use config::{EncoderConfig, EncoderKind, SudowoodoConfig};
pub use encoder::Encoder;
pub use matcher::{FineTuneConfig, PairMatcher, TrainPair};
pub use pipeline::{CleaningPipeline, ColumnPipeline, EmPipeline};
pub use pretrain::{pretrain, PretrainReport};
pub use pseudo::{generate_pseudo_labels, PseudoLabelSet};
