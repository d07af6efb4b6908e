//! End-to-end Entity Matching pipeline (Figure 2): contrastive pre-training → blocking →
//! pseudo labeling → fine-tuning → evaluation.

use std::collections::HashSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sudowoodo_datasets::em::{EmDataset, LabeledPair};
use sudowoodo_index::{evaluate_blocking, BlockingQuality};
use sudowoodo_ml::metrics::PrF1;
use sudowoodo_text::serialize::serialize_record;

use crate::config::SudowoodoConfig;
use crate::encoder::Encoder;
use crate::matcher::{PairMatcher, TrainPair};
use crate::pretrain::{pretrain, PretrainReport};
use crate::pseudo::{generate_pseudo_labels, PseudoLabelSet, ScoredPair};

/// Wall-clock timings of the pipeline stages (Figures 9/10).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EmTimings {
    /// Contrastive pre-training.
    pub pretrain_secs: f64,
    /// Embedding + kNN blocking.
    pub blocking_secs: f64,
    /// Pseudo labeling + fine-tuning.
    pub finetune_secs: f64,
    /// End-to-end total.
    pub total_secs: f64,
}

/// Result of one EM pipeline run.
#[derive(Clone, Debug)]
pub struct EmResult {
    /// Dataset name.
    pub dataset: String,
    /// Sudowoodo variant name (ablation configuration).
    pub variant: String,
    /// Number of manually labeled pairs used.
    pub labels_used: usize,
    /// Matching quality on the test set.
    pub matching: PrF1,
    /// Blocking quality at `config.blocking_k`.
    pub blocking: BlockingQuality,
    /// Pseudo-label quality `(TPR, TNR)` against gold matches, when pseudo labels were used.
    pub pseudo_quality: Option<(f32, f32)>,
    /// Number of pseudo labels added to the training set.
    pub num_pseudo_labels: usize,
    /// The decision threshold selected on the labeled/validation pairs.
    pub threshold: f32,
    /// Stage timings.
    pub timings: EmTimings,
    /// Pre-training diagnostics.
    pub pretrain_report: PretrainReport,
}

/// The Sudowoodo EM pipeline.
#[derive(Clone, Debug)]
pub struct EmPipeline {
    /// Configuration (including the ablation switches).
    pub config: SudowoodoConfig,
}

impl EmPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: SudowoodoConfig) -> Self {
        EmPipeline { config }
    }

    /// Serializes both tables of a dataset.
    fn serialize_tables(dataset: &EmDataset) -> (Vec<String>, Vec<String>) {
        let a = dataset.table_a.iter().map(serialize_record).collect();
        let b = dataset.table_b.iter().map(serialize_record).collect();
        (a, b)
    }

    /// Pre-trains the embedding model on the unlabeled corpus of a dataset.
    pub fn pretrain_encoder(&self, dataset: &EmDataset) -> (Encoder, PretrainReport) {
        pretrain(&dataset.corpus(), &self.config)
    }

    /// Runs kNN blocking with a given encoder, returning scored candidate pairs
    /// `(a_index, b_index, cosine)` and the blocking quality at `k`.
    ///
    /// The right-table index layout follows `config.blocking_shard_capacity`: dense
    /// (one corpus matrix) by default, or the streaming sharded index, optionally under
    /// `config.shard_memory_budget` (cold shards spill to disk and routing statistics
    /// skip unpromising ones) — results are identical in every configuration, only the
    /// memory/ingestion profile changes. `config.blocking_query_cache` caches repeated
    /// query batches, and `config.snapshot_dir` persists the built index for external
    /// serving (see `pipeline::build_blocking_index`).
    pub fn block(
        &self,
        encoder: &Encoder,
        dataset: &EmDataset,
        k: usize,
    ) -> (Vec<ScoredPair>, BlockingQuality) {
        let (texts_a, texts_b) = Self::serialize_tables(dataset);
        let emb_a = encoder.embed_all(&texts_a);
        let emb_b = encoder.embed_all(&texts_b);
        let index = crate::pipeline::build_blocking_index(&self.config, emb_b);
        let candidates = index.knn_join(&emb_a, k);
        let pairs: Vec<(usize, usize)> = candidates.iter().map(|&(a, b, _)| (a, b)).collect();
        let quality = evaluate_blocking(
            &pairs,
            &dataset.gold_matches,
            dataset.table_a.len(),
            dataset.table_b.len(),
        );
        (candidates, quality)
    }

    /// Computes the blocking recall/CSSR curve for a range of `k` values (Figure 7) using a
    /// single pre-trained encoder.
    pub fn blocking_curve(
        &self,
        dataset: &EmDataset,
        ks: &[usize],
    ) -> Vec<(usize, BlockingQuality)> {
        let (encoder, _) = self.pretrain_encoder(dataset);
        let (texts_a, texts_b) = Self::serialize_tables(dataset);
        let emb_a = encoder.embed_all(&texts_a);
        let emb_b = encoder.embed_all(&texts_b);
        let index = crate::pipeline::build_blocking_index(&self.config, emb_b);
        ks.iter()
            .map(|&k| {
                let candidates = index.knn_join(&emb_a, k);
                let pairs: Vec<(usize, usize)> =
                    candidates.iter().map(|&(a, b, _)| (a, b)).collect();
                (
                    k,
                    evaluate_blocking(
                        &pairs,
                        &dataset.gold_matches,
                        dataset.table_a.len(),
                        dataset.table_b.len(),
                    ),
                )
            })
            .collect()
    }

    /// Uniformly samples a label budget from the train+valid pairs (the paper's protocol for
    /// the semi-supervised setting). `None` means fully supervised (all train+valid labels);
    /// `Some(0)` means unsupervised.
    pub fn sample_labels(
        &self,
        dataset: &EmDataset,
        label_budget: Option<usize>,
    ) -> Vec<LabeledPair> {
        let mut pool: Vec<LabeledPair> = dataset.train.clone();
        pool.extend(dataset.valid.iter().copied());
        match label_budget {
            None => pool,
            Some(budget) => {
                let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(77));
                pool.shuffle(&mut rng);
                pool.truncate(budget);
                pool
            }
        }
    }

    /// Runs the full pipeline on a dataset with the given label budget.
    pub fn run(&self, dataset: &EmDataset, label_budget: Option<usize>) -> EmResult {
        let total_start = Instant::now();

        // 1. Contrastive pre-training on the unlabeled corpus.
        let (encoder, pretrain_report) = self.pretrain_encoder(dataset);
        let pretrain_secs = pretrain_report.seconds;

        // 2. Blocking via kNN search over the learned representations.
        let blocking_start = Instant::now();
        let (candidates, blocking_quality) = self.block(&encoder, dataset, self.config.blocking_k);
        let blocking_secs = blocking_start.elapsed().as_secs_f64();

        // 3. Labels + pseudo labels.
        let finetune_start = Instant::now();
        let labeled = self.sample_labels(dataset, label_budget);
        let labeled_keys: HashSet<(usize, usize)> = labeled.iter().map(|p| (p.a, p.b)).collect();
        let gold: HashSet<(usize, usize)> = dataset.gold_matches.iter().copied().collect();

        let (pseudo, pseudo_quality) = if self.config.use_pseudo_labels {
            let unlabeled: Vec<ScoredPair> = candidates
                .iter()
                .copied()
                .filter(|(a, b, _)| !labeled_keys.contains(&(*a, *b)))
                .collect();
            let base = if labeled.is_empty() {
                200
            } else {
                labeled.len()
            };
            let target = base.saturating_mul(self.config.pseudo_multiplier.saturating_sub(1));
            let set = generate_pseudo_labels(&unlabeled, self.config.pseudo_positive_ratio, target);
            let quality = set.quality(|a, b| gold.contains(&(a, b)));
            (set, Some(quality))
        } else {
            (
                PseudoLabelSet {
                    labels: Vec::new(),
                    theta_plus: 1.0,
                    theta_minus: -1.0,
                },
                None,
            )
        };

        // 4. Fine-tune the pairwise matcher on labeled + pseudo-labeled pairs.
        let (texts_a, texts_b) = Self::serialize_tables(dataset);
        let mut train_pairs: Vec<TrainPair> = labeled
            .iter()
            .map(|p| TrainPair::new(texts_a[p.a].clone(), texts_b[p.b].clone(), p.label))
            .collect();
        train_pairs.extend(
            pseudo
                .labels
                .iter()
                .map(|p| TrainPair::new(texts_a[p.a].clone(), texts_b[p.b].clone(), p.label)),
        );
        let num_pseudo_labels = pseudo.labels.len();

        let mut matcher = PairMatcher::new(encoder, self.config.use_diff_head, self.config.seed);
        matcher.fine_tune(&train_pairs, &self.config.fine_tune_config());
        super::persist_matcher(&self.config, &matcher);

        // 5. Select the decision threshold on the labeled pairs (paper: best epoch/threshold
        //    on the validation split). In the unsupervised setting the pseudo labels play the
        //    role of the validation set (self-training calibration); without either, use 0.5.
        //    `train_pairs` holds the labeled pairs first, then the pseudo labels.
        let calibration = if labeled.is_empty() {
            &train_pairs[..]
        } else {
            &train_pairs[..labeled.len()]
        };
        let threshold = matcher.best_threshold(calibration);
        let finetune_secs = finetune_start.elapsed().as_secs_f64();

        // 6. Evaluate on the held-out test pairs.
        let matching = evaluate_matcher(&matcher, dataset, &dataset.test, threshold);

        EmResult {
            dataset: dataset.name.clone(),
            variant: self.config.variant_name(),
            labels_used: labeled.len(),
            matching,
            blocking: blocking_quality,
            pseudo_quality,
            num_pseudo_labels,
            threshold,
            timings: EmTimings {
                pretrain_secs,
                blocking_secs,
                finetune_secs,
                total_secs: total_start.elapsed().as_secs_f64(),
            },
            pretrain_report,
        }
    }
}

/// The serialized form of labeled pairs of a dataset, as the matcher trains on them.
pub fn labeled_train_pairs(dataset: &EmDataset, pairs: &[LabeledPair]) -> Vec<TrainPair> {
    pairs
        .iter()
        .map(|p| {
            TrainPair::new(
                serialize_record(&dataset.table_a[p.a]),
                serialize_record(&dataset.table_b[p.b]),
                p.label,
            )
        })
        .collect()
}

/// Evaluates a fine-tuned matcher on a set of labeled pairs of a dataset.
pub fn evaluate_matcher(
    matcher: &PairMatcher,
    dataset: &EmDataset,
    pairs: &[LabeledPair],
    threshold: f32,
) -> PrF1 {
    matcher.evaluate(&labeled_train_pairs(dataset, pairs), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudowoodo_datasets::em::EmProfile;

    fn tiny_dataset() -> EmDataset {
        EmProfile::dblp_acm().generate(0.08, 3)
    }

    /// Shrinks a test configuration to this module's dataset.
    fn tiny_config(mut c: SudowoodoConfig) -> SudowoodoConfig {
        c.pretrain_epochs = 1;
        c.finetune_epochs = 2;
        c.max_corpus_size = 120;
        c.blocking_k = 3;
        c
    }

    /// Runs `f` on [`tiny_config`] under every test configuration (both encoders, both
    /// blocking layouts).
    fn for_each_tiny_config(mut f: impl FnMut(SudowoodoConfig)) {
        SudowoodoConfig::for_each_test_config(|c| f(tiny_config(c)));
    }

    #[test]
    fn full_pipeline_runs_and_produces_sane_metrics() {
        let dataset = tiny_dataset();
        for_each_tiny_config(|config| {
            let result = EmPipeline::new(config).run(&dataset, Some(60));
            assert_eq!(result.dataset, "DBLP-ACM");
            assert_eq!(result.variant, "Sudowoodo");
            assert!(result.labels_used <= 60);
            assert!(result.matching.f1 >= 0.0 && result.matching.f1 <= 1.0);
            assert!(result.blocking.recall >= 0.0 && result.blocking.recall <= 1.0);
            assert!(result.blocking.num_candidates > 0);
            assert!(
                result.num_pseudo_labels > 0,
                "pseudo labels should be generated"
            );
            assert!(result.pseudo_quality.is_some());
            assert!(result.timings.total_secs > 0.0);
            assert!(result.timings.pretrain_secs > 0.0);
        });
    }

    #[test]
    fn unsupervised_run_uses_no_labels() {
        let dataset = tiny_dataset();
        for_each_tiny_config(|config| {
            let result = EmPipeline::new(config).run(&dataset, Some(0));
            assert_eq!(result.labels_used, 0);
            // Without manual labels the threshold is calibrated on the pseudo labels.
            assert!((0.0..=1.0).contains(&result.threshold));
            assert!(result.num_pseudo_labels > 0);
        });
    }

    #[test]
    fn disabling_pseudo_labels_removes_them() {
        let dataset = tiny_dataset();
        for_each_tiny_config(|config| {
            let result = EmPipeline::new(config.without("PL")).run(&dataset, Some(40));
            assert_eq!(result.num_pseudo_labels, 0);
            assert!(result.pseudo_quality.is_none());
            assert_eq!(result.variant, "Sudowoodo (-PL)");
        });
    }

    #[test]
    fn blocking_curve_recall_is_monotone_in_k() {
        let dataset = tiny_dataset();
        for_each_tiny_config(|config| {
            let curve = EmPipeline::new(config).blocking_curve(&dataset, &[1, 3, 8]);
            assert_eq!(curve.len(), 3);
            assert!(curve[0].1.recall <= curve[1].1.recall + 1e-6);
            assert!(curve[1].1.recall <= curve[2].1.recall + 1e-6);
            assert!(curve[0].1.num_candidates < curve[2].1.num_candidates);
        });
    }

    #[test]
    fn sharded_blocking_produces_identical_candidates() {
        let dataset = tiny_dataset();
        for_each_tiny_config(|config| {
            let dense_pipeline = EmPipeline::new(config.clone());
            let (encoder, _) = dense_pipeline.pretrain_encoder(&dataset);
            let mut sharded_config = config;
            sharded_config.blocking_shard_capacity = Some(17);
            let sharded_pipeline = EmPipeline::new(sharded_config.clone());
            // Same encoder through both layouts: candidate sets and quality must coincide.
            let (dense_candidates, dense_quality) = dense_pipeline.block(&encoder, &dataset, 4);
            let (sharded_candidates, sharded_quality) =
                sharded_pipeline.block(&encoder, &dataset, 4);
            assert_eq!(dense_candidates, sharded_candidates);
            assert_eq!(dense_quality, sharded_quality);
            // Forcing every shard to spill to disk must also be invisible in results.
            let mut spilled_config = sharded_config;
            spilled_config.shard_memory_budget = Some(0);
            let spilled_pipeline = EmPipeline::new(spilled_config);
            let (spilled_candidates, spilled_quality) =
                spilled_pipeline.block(&encoder, &dataset, 4);
            assert_eq!(dense_candidates, spilled_candidates);
            assert_eq!(dense_quality, spilled_quality);
        });
    }

    /// Label sampling reads only the seed, so one configuration covers it.
    #[test]
    fn label_sampling_respects_budget_and_none_means_all() {
        let dataset = tiny_dataset();
        let pipeline = EmPipeline::new(tiny_config(SudowoodoConfig::test_config()));
        assert_eq!(pipeline.sample_labels(&dataset, Some(10)).len(), 10);
        assert_eq!(
            pipeline.sample_labels(&dataset, None).len(),
            dataset.train.len() + dataset.valid.len()
        );
    }
}
