//! Column-matching pipeline for semantic type detection (§V-B, §VI-D).
//!
//! Columns are serialized with the bare-bone `[VAL] v1 [VAL] v2 ...` scheme, the encoder is
//! pre-trained on the column corpus, kNN blocking proposes candidate column pairs, a small
//! number of pairs is labeled (same coarse semantic type or not), the pairwise matcher is
//! fine-tuned, and finally the predicted matches are turned into column clusters with a
//! connected-component pass (Table XIII reports the cluster count and purity).

use std::time::Instant;

use sudowoodo_cluster::{cluster_purity, connected_components};
use sudowoodo_datasets::columns::{ColumnCorpus, ColumnPair};
use sudowoodo_ml::metrics::PrF1;

use crate::config::SudowoodoConfig;
use crate::matcher::{PairMatcher, TrainPair};
use crate::pretrain::pretrain;

/// Maximum number of column values included in a serialization.
pub const MAX_COLUMN_VALUES: usize = 12;

/// Result of one column-matching run.
#[derive(Clone, Debug)]
pub struct ColumnMatchResult {
    /// Sudowoodo variant name.
    pub variant: String,
    /// Pair-matching quality on the validation split.
    pub valid: PrF1,
    /// Pair-matching quality on the test split.
    pub test: PrF1,
    /// Number of clusters discovered by connected components over predicted matches.
    pub num_clusters: usize,
    /// Number of discovered clusters with at least 2 columns.
    pub num_multi_clusters: usize,
    /// Purity of the multi-column clusters against the coarse ground-truth types.
    pub purity: f32,
    /// Number of labeled pairs used for fine-tuning (train split only).
    pub labeled_pairs: usize,
    /// Blocking time in seconds.
    pub blocking_secs: f64,
    /// Fine-tuning + inference time in seconds.
    pub matching_secs: f64,
}

/// The Sudowoodo column-matching pipeline.
#[derive(Clone, Debug)]
pub struct ColumnPipeline {
    /// Configuration.
    pub config: SudowoodoConfig,
}

impl ColumnPipeline {
    /// Creates a pipeline.
    pub fn new(config: SudowoodoConfig) -> Self {
        ColumnPipeline { config }
    }

    /// Blocking over the column corpus: kNN self-join (excluding self-pairs), returning
    /// candidate `(i, j)` pairs with `i < j`. The index layout (dense or streaming
    /// sharded) follows `config.blocking_shard_capacity`, and the sharded layout honours
    /// `config.shard_memory_budget` (cold shards spill to disk), the
    /// `config.blocking_query_cache` batch cache, and `config.snapshot_dir` persistence
    /// (see `pipeline::build_blocking_index`); results are identical.
    pub fn block(&self, embeddings: &[Vec<f32>]) -> Vec<(usize, usize)> {
        let index = crate::pipeline::build_blocking_index(&self.config, embeddings.to_vec());
        // One batched self-join (identical per-query results to `top_k`, proven by the
        // index tests): the query tiles are the parallel axis, where a per-embedding
        // `top_k` loop would run every single-query scan serially.
        let mut pairs = Vec::new();
        for (i, hit_id, _) in index.knn_join(embeddings, self.config.blocking_k + 1) {
            if hit_id == i {
                continue;
            }
            let (lo, hi) = if i < hit_id { (i, hit_id) } else { (hit_id, i) };
            pairs.push((lo, hi));
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Runs the pipeline: pre-train, block, fine-tune on the given labeled splits, evaluate,
    /// and cluster.
    pub fn run(
        &self,
        corpus: &ColumnCorpus,
        train: &[ColumnPair],
        valid: &[ColumnPair],
        test: &[ColumnPair],
    ) -> ColumnMatchResult {
        let texts = corpus.corpus(MAX_COLUMN_VALUES);
        let (encoder, _) = pretrain(&texts, &self.config);

        let blocking_start = Instant::now();
        let embeddings = encoder.embed_all(&texts);
        let candidates = self.block(&embeddings);
        let blocking_secs = blocking_start.elapsed().as_secs_f64();

        let matching_start = Instant::now();
        let to_train_pair =
            |p: &ColumnPair| TrainPair::new(texts[p.left].clone(), texts[p.right].clone(), p.label);
        let [train_pairs, valid_pairs, test_pairs]: [Vec<TrainPair>; 3] =
            [train, valid, test].map(|split| split.iter().map(to_train_pair).collect());
        let mut matcher = PairMatcher::new(encoder, self.config.use_diff_head, self.config.seed);
        matcher.fine_tune(&train_pairs, &self.config.fine_tune_config());
        super::persist_matcher(&self.config, &matcher);

        // Threshold selected on the validation split, evaluation on both splits.
        let threshold = matcher.best_threshold(&valid_pairs);
        let valid_metrics = matcher.evaluate(&valid_pairs, threshold);
        let test_metrics = matcher.evaluate(&test_pairs, threshold);

        // Cluster discovery: predicted matches over all blocking candidates become edges.
        let candidate_inputs: Vec<(String, String)> = candidates
            .iter()
            .map(|&(i, j)| (texts[i].clone(), texts[j].clone()))
            .collect();
        let candidate_scores = matcher.predict_scores(&candidate_inputs);
        let edges: Vec<(usize, usize)> = candidates
            .iter()
            .zip(candidate_scores.iter())
            .filter(|(_, &s)| s >= threshold)
            .map(|(&(i, j), _)| (i, j))
            .collect();
        let clusters = connected_components(corpus.len(), &edges);
        let num_multi_clusters = clusters.iter().filter(|c| c.len() >= 2).count();
        let purity = cluster_purity(&clusters, &corpus.type_labels, 2);
        let matching_secs = matching_start.elapsed().as_secs_f64();

        ColumnMatchResult {
            variant: self.config.variant_name(),
            valid: valid_metrics,
            test: test_metrics,
            num_clusters: clusters.len(),
            num_multi_clusters,
            purity,
            labeled_pairs: train.len(),
            blocking_secs,
            matching_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudowoodo_datasets::columns::{sample_labeled_pairs, ColumnProfile};

    /// Shrinks a test configuration to this module's corpora.
    fn tiny_config(mut c: SudowoodoConfig) -> SudowoodoConfig {
        c.pretrain_epochs = 1;
        c.finetune_epochs = 2;
        c.max_corpus_size = 80;
        c.blocking_k = 3;
        c
    }

    /// Runs `f` on [`tiny_config`] under every test configuration (both encoders, both
    /// blocking layouts).
    fn for_each_tiny_config(mut f: impl FnMut(SudowoodoConfig)) {
        SudowoodoConfig::for_each_test_config(|c| f(tiny_config(c)));
    }

    #[test]
    fn column_pipeline_runs_end_to_end() {
        let corpus = ColumnProfile {
            num_columns: 60,
            min_values: 4,
            max_values: 8,
        }
        .generate(1.0, 3);
        // Candidate pairs for labeling: adjacent columns (cheap, mixes types).
        let candidates: Vec<(usize, usize)> = (0..corpus.len() - 1).map(|i| (i, i + 1)).collect();
        let (train, valid, test) = sample_labeled_pairs(&corpus, &candidates, 40, 5);
        for_each_tiny_config(|config| {
            let result = ColumnPipeline::new(config).run(&corpus, &train, &valid, &test);
            assert_eq!(result.labeled_pairs, train.len());
            assert!(result.test.f1 >= 0.0 && result.test.f1 <= 1.0);
            assert!(result.num_clusters >= 1);
            assert!(result.num_clusters <= corpus.len());
            assert!(result.purity >= 0.0 && result.purity <= 1.0);
            assert!(result.blocking_secs >= 0.0 && result.matching_secs > 0.0);
        });
    }

    #[test]
    fn sharded_column_blocking_matches_dense() {
        let corpus = ColumnProfile {
            num_columns: 24,
            min_values: 4,
            max_values: 6,
        }
        .generate(1.0, 11);
        let texts = corpus.corpus(MAX_COLUMN_VALUES);
        for_each_tiny_config(|config| {
            let dense_pipeline = ColumnPipeline::new(config.clone());
            let mut sharded_config = config;
            sharded_config.blocking_shard_capacity = Some(5);
            let sharded_pipeline = ColumnPipeline::new(sharded_config.clone());
            let mut spilled_config = sharded_config;
            spilled_config.shard_memory_budget = Some(0); // every shard on disk
            let spilled_pipeline = ColumnPipeline::new(spilled_config);
            let (encoder, _) = pretrain(&texts, &dense_pipeline.config);
            let embeddings = encoder.embed_all(&texts);
            let dense_pairs = dense_pipeline.block(&embeddings);
            assert_eq!(dense_pairs, sharded_pipeline.block(&embeddings));
            assert_eq!(dense_pairs, spilled_pipeline.block(&embeddings));
        });
    }

    #[test]
    fn blocking_produces_deduplicated_ordered_pairs() {
        let corpus = ColumnProfile {
            num_columns: 30,
            min_values: 4,
            max_values: 6,
        }
        .generate(1.0, 7);
        let texts = corpus.corpus(MAX_COLUMN_VALUES);
        for_each_tiny_config(|config| {
            let pipeline = ColumnPipeline::new(config);
            let (encoder, _) = pretrain(&texts, &pipeline.config);
            let embeddings = encoder.embed_all(&texts);
            let pairs = pipeline.block(&embeddings);
            assert!(!pairs.is_empty());
            for w in pairs.windows(2) {
                assert!(
                    w[0] < w[1],
                    "pairs must be strictly increasing (sorted + deduped)"
                );
            }
            for &(i, j) in &pairs {
                assert!(i < j);
                assert!(j < corpus.len());
            }
        });
    }
}
