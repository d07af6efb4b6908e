//! Configuration of the Sudowoodo framework.
//!
//! One [`SudowoodoConfig`] drives pre-training, pseudo-labeling, and fine-tuning. The four
//! optimization switches (`use_cutoff`, `use_clustering`, `use_barlow_twins`,
//! `use_pseudo_labels`) correspond exactly to the ablation variants of Tables V / VI / XV:
//! turning all four off recovers the plain SimCLR baseline.

use sudowoodo_augment::{CutoffKind, DaOp};
use sudowoodo_index::QuantSpec;

use crate::matcher::FineTuneConfig;

/// Which encoder architecture the embedding model uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// Token embeddings mean-pooled and passed through a small MLP. Fast; used in tests and
    /// as the "small LM" stand-in.
    MeanPool,
    /// A compact Transformer encoder (the stand-in for RoBERTa/DistilBERT).
    Transformer,
}

/// Hyper-parameters of the embedding model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EncoderConfig {
    /// Encoder architecture.
    pub kind: EncoderKind,
    /// Embedding / model dimension.
    pub dim: usize,
    /// Number of Transformer layers (ignored by `MeanPool`).
    pub layers: usize,
    /// Number of attention heads (ignored by `MeanPool`).
    pub heads: usize,
    /// Feed-forward hidden width (also the MLP width of `MeanPool`).
    pub ff_hidden: usize,
    /// Maximum sequence length (tokens beyond this are truncated).
    pub max_len: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            kind: EncoderKind::Transformer,
            dim: 48,
            layers: 1,
            heads: 2,
            ff_hidden: 96,
            max_len: 40,
        }
    }
}

impl EncoderConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        EncoderConfig {
            kind: EncoderKind::MeanPool,
            dim: 16,
            layers: 1,
            heads: 2,
            ff_hidden: 32,
            max_len: 24,
        }
    }
}

/// The full Sudowoodo configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SudowoodoConfig {
    /// Embedding-model architecture.
    pub encoder: EncoderConfig,
    /// Projection-head dimension (the projector `g`, discarded after pre-training).
    pub projector_dim: usize,

    // ---- pre-training -------------------------------------------------------------------
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
    /// Pre-training batch size `N` (each batch yields `2N` views).
    pub batch_size: usize,
    /// Learning rate for pre-training.
    pub pretrain_lr: f32,
    /// Maximum number of corpus items used for pre-training (the paper caps it at 10,000).
    pub max_corpus_size: usize,
    /// Contrastive temperature `tau`.
    pub temperature: f32,
    /// Base data-augmentation operator.
    pub da_op: DaOp,
    /// Cutoff flavour applied on top of the base operator.
    pub cutoff: CutoffKind,
    /// `cutoff_ratio` hyper-parameter (fraction of tokens/features zeroed).
    pub cutoff_ratio: f32,
    /// `num_clusters` for clustering-based negative sampling.
    pub num_clusters: usize,
    /// Barlow-Twins off-diagonal weight `lambda`.
    pub bt_lambda: f32,
    /// Weight `alpha` of the Barlow-Twins term in the combined loss (Equation 6).
    pub bt_alpha: f32,

    // ---- optimizations (ablation switches) --------------------------------------------
    /// Enable the cutoff DA optimization (§IV-A).
    pub use_cutoff: bool,
    /// Enable clustering-based negative sampling (§IV-B).
    pub use_clustering: bool,
    /// Enable redundancy regularization / Barlow Twins (§IV-C).
    pub use_barlow_twins: bool,
    /// Enable pseudo labeling (§III-C).
    pub use_pseudo_labels: bool,

    // ---- pseudo labeling ---------------------------------------------------------------
    /// Assumed positive ratio `rho` among candidate pairs.
    pub pseudo_positive_ratio: f32,
    /// `multiplier`: total training-set size after adding pseudo labels, as a multiple of
    /// the manually labeled set (Table IV; 8 was found best).
    pub pseudo_multiplier: usize,

    // ---- fine-tuning ---------------------------------------------------------------------
    /// Fine-tuning epochs.
    pub finetune_epochs: usize,
    /// Fine-tuning batch size.
    pub finetune_batch_size: usize,
    /// Learning rate for fine-tuning.
    pub finetune_lr: f32,
    /// Use the similarity-aware head `Linear(Z_xy ⊕ |Z_x − Z_y|)` (Figure 4); `false` falls
    /// back to the default concatenation-only fine-tuning used by the LM baselines.
    pub use_diff_head: bool,

    // ---- blocking ------------------------------------------------------------------------
    /// Number of nearest neighbours retrieved per item during blocking.
    pub blocking_k: usize,
    /// Shard capacity of the blocking index. `None` keeps the whole corpus in one dense
    /// matrix (fastest for static in-memory corpora); `Some(c)` routes blocking through
    /// the streaming `ShardedCosineIndex` with `c` rows per shard — same results, but the
    /// corpus is scored shard-by-shard so it can grow incrementally and never needs one
    /// monolithic allocation.
    pub blocking_shard_capacity: Option<usize>,
    /// Resident-memory budget of the sharded blocking index, in bytes of shard-matrix
    /// payload. `Some(b)` spills the least-recently-used shards beyond `b` bytes to a
    /// compact on-disk format (they are read back only when a query needs them, and
    /// routing statistics skip — and never fault in — shards that provably cannot enter
    /// the top-k). `None` keeps every shard resident. Ignored by the dense layout
    /// (`blocking_shard_capacity: None`), which cannot partially spill. Results are
    /// identical in every configuration; only the memory/IO profile changes.
    pub shard_memory_budget: Option<usize>,
    /// Optional i8 quantization of the sharded blocking index's shard payloads
    /// (`sudowoodo_index::QuantSpec`). `Some(spec)` stores each shard as per-row-scaled
    /// i8 codes alongside the exact f32 payload; `knn_join` then runs a two-stage scan —
    /// a cheap quantized pass that keeps `spec.alpha · k` candidates under an admissible
    /// error bound, followed by an exact f32 rescore — so the final ids **and** score
    /// bits are identical to the dense build while the scan reads ~4× fewer payload
    /// bytes. Ignored by the dense layout (`blocking_shard_capacity: None`). `None`
    /// (the default) keeps plain f32 shards.
    pub shard_quantization: Option<QuantSpec>,
    /// Query-batch cache capacity of the sharded blocking index, in cached batches
    /// (`0` disables). A repeated `knn_join` batch (the serving workload: dashboard
    /// refreshes, retried RPCs) answers from the cache without touching a single shard
    /// — no GEMM, no disk fault; entries are invalidated by the index's mutation epoch,
    /// so a hit is always result-identical to recomputing. Ignored by the dense layout,
    /// which has no mutation epoch to invalidate by.
    pub blocking_query_cache: usize,
    /// Directory the pipelines persist the built blocking index into (see
    /// `sudowoodo_index::snapshot`): after blocking, the index is saved as a versioned
    /// manifest plus per-shard payloads, so a separate serving process (the
    /// `sudowoodo-serve` crate) can load it cold — O(manifest), not O(corpus) — and
    /// answer `knn_join` traffic without rebuilding or re-embedding anything. `None`
    /// (the default) persists nothing. Snapshot I/O failures are reported as warnings,
    /// never pipeline failures.
    pub snapshot_dir: Option<std::path::PathBuf>,

    /// Random seed controlling every stochastic choice.
    pub seed: u64,
}

impl Default for SudowoodoConfig {
    fn default() -> Self {
        SudowoodoConfig {
            encoder: EncoderConfig::default(),
            projector_dim: 48,
            pretrain_epochs: 3,
            batch_size: 32,
            pretrain_lr: 1e-3,
            max_corpus_size: 10_000,
            temperature: 0.07,
            da_op: DaOp::TokenDel,
            cutoff: CutoffKind::Span,
            cutoff_ratio: 0.05,
            num_clusters: 30,
            bt_lambda: 3.9e-3,
            bt_alpha: 1e-3,
            use_cutoff: true,
            use_clustering: true,
            use_barlow_twins: true,
            use_pseudo_labels: true,
            pseudo_positive_ratio: 0.10,
            pseudo_multiplier: 8,
            finetune_epochs: 10,
            finetune_batch_size: 16,
            finetune_lr: 5e-4,
            use_diff_head: true,
            blocking_k: 10,
            blocking_shard_capacity: None,
            shard_memory_budget: None,
            shard_quantization: None,
            blocking_query_cache: 8,
            snapshot_dir: None,
            seed: 42,
        }
    }
}

impl SudowoodoConfig {
    /// A small configuration for unit/integration tests (tiny `MeanPool` encoder, dense
    /// blocking, one pre-training epoch).
    pub fn test_config() -> Self {
        SudowoodoConfig {
            encoder: EncoderConfig::tiny(),
            projector_dim: 16,
            pretrain_epochs: 1,
            batch_size: 8,
            max_corpus_size: 400,
            finetune_epochs: 3,
            finetune_batch_size: 8,
            num_clusters: 4,
            pseudo_multiplier: 4,
            blocking_k: 5,
            ..SudowoodoConfig::default()
        }
    }

    /// Test hook: runs `f` on [`test_config`](Self::test_config) under both encoder kinds
    /// ({`MeanPool`, `Transformer`}) crossed with both blocking layouts (dense, and sharded
    /// by 64 rows with i8 shard quantization), so one test run covers the batched
    /// Transformer path and the quantized two-stage join beside the defaults. The
    /// quantized join is bit-identical to the dense one, so a test's assertions hold on
    /// every layout unchanged.
    #[doc(hidden)]
    pub fn for_each_test_config(mut f: impl FnMut(SudowoodoConfig)) {
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            for quant in [false, true] {
                let mut config = SudowoodoConfig::test_config();
                config.encoder.kind = kind;
                config.blocking_shard_capacity = quant.then_some(64);
                config.shard_quantization = quant.then(QuantSpec::default);
                // Captured by the test harness and shown only when `f` fails.
                eprintln!("test config: {kind:?} encoder, quantized shards: {quant}");
                f(config);
            }
        }
    }

    /// The fine-tuning hyper-parameters of the pairwise matcher: the `finetune_*` fields
    /// and the seed.
    pub fn fine_tune_config(&self) -> FineTuneConfig {
        FineTuneConfig {
            epochs: self.finetune_epochs,
            batch_size: self.finetune_batch_size,
            learning_rate: self.finetune_lr,
            seed: self.seed,
        }
    }

    /// The plain SimCLR baseline: all four optimizations disabled.
    pub fn simclr(mut self) -> Self {
        self.use_cutoff = false;
        self.use_clustering = false;
        self.use_barlow_twins = false;
        self.use_pseudo_labels = false;
        self
    }

    /// Disables one named optimization (`"cut"`, `"cls"`, `"RR"`, `"PL"`), mirroring the
    /// paper's `Sudowoodo (-X)` notation.
    ///
    /// # Panics
    /// Panics on an unknown name.
    pub fn without(mut self, optimization: &str) -> Self {
        match optimization {
            "cut" => self.use_cutoff = false,
            "cls" => self.use_clustering = false,
            "RR" | "rr" => self.use_barlow_twins = false,
            "PL" | "pl" => self.use_pseudo_labels = false,
            other => panic!("unknown optimization name: {other}"),
        }
        self
    }

    /// Human-readable variant name based on which optimizations are enabled.
    pub fn variant_name(&self) -> String {
        let mut disabled = Vec::new();
        if !self.use_cutoff {
            disabled.push("-cut");
        }
        if !self.use_clustering {
            disabled.push("-cls");
        }
        if !self.use_barlow_twins {
            disabled.push("-RR");
        }
        if !self.use_pseudo_labels {
            disabled.push("-PL");
        }
        if disabled.len() == 4 {
            "SimCLR".to_string()
        } else if disabled.is_empty() {
            "Sudowoodo".to_string()
        } else {
            format!("Sudowoodo ({})", disabled.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_hyperparameters() {
        let c = SudowoodoConfig::default();
        assert_eq!(c.temperature, 0.07);
        assert_eq!(c.bt_lambda, 3.9e-3);
        assert_eq!(c.pseudo_multiplier, 8);
        assert_eq!(c.max_corpus_size, 10_000);
        assert!(c.use_cutoff && c.use_clustering && c.use_barlow_twins && c.use_pseudo_labels);
    }

    #[test]
    fn variant_names_follow_paper_notation() {
        assert_eq!(SudowoodoConfig::default().variant_name(), "Sudowoodo");
        assert_eq!(SudowoodoConfig::default().simclr().variant_name(), "SimCLR");
        assert_eq!(
            SudowoodoConfig::default().without("cut").variant_name(),
            "Sudowoodo (-cut)"
        );
        assert_eq!(
            SudowoodoConfig::default()
                .without("cut")
                .without("RR")
                .variant_name(),
            "Sudowoodo (-cut,-RR)"
        );
    }

    /// The hook's matrix cannot shrink unnoticed: exactly four configurations, one per
    /// (encoder, layout), each `test_config()` apart from those two axes.
    #[test]
    fn for_each_test_config_yields_both_encoders_on_both_layouts() {
        let mut axes = Vec::new();
        SudowoodoConfig::for_each_test_config(|mut c| {
            let (kind, capacity) = (c.encoder.kind, c.blocking_shard_capacity);
            axes.push((kind, capacity, c.shard_quantization.is_some()));
            c.encoder.kind = EncoderKind::MeanPool;
            c.blocking_shard_capacity = None;
            c.shard_quantization = None;
            assert_eq!(c, SudowoodoConfig::test_config(), "{kind:?}, {capacity:?}");
        });
        use EncoderKind::{MeanPool, Transformer};
        assert_eq!(
            axes,
            [
                (MeanPool, None, false),
                (MeanPool, Some(64), true),
                (Transformer, None, false),
                (Transformer, Some(64), true),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unknown optimization")]
    fn unknown_ablation_name_panics() {
        let _ = SudowoodoConfig::default().without("bogus");
    }
}
