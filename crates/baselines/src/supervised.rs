//! Supervised / semi-supervised deep EM baselines: Ditto-like, Rotom-like, and
//! DeepMatcher-like matchers.
//!
//! All three baselines use Sudowoodo's own from-scratch [`Encoder`] in place of the
//! pre-trained language model the original systems fine-tune, so the encoder architecture
//! is held constant and they differ only in how the paper's corresponding systems differ
//! from Sudowoodo:
//!
//! * **Ditto-like** — no contrastive pre-training (randomly initialized encoder) and the
//!   default sequence-pair fine-tuning head (concatenation only, no `|Z_x − Z_y|` features).
//! * **Rotom-like** — Ditto-like plus training-set augmentation: every labeled pair is
//!   expanded with DA-distorted copies, standing in for Rotom's meta-learned augmentation
//!   policy.
//! * **DeepMatcher-like** — the fully supervised reference point: trained on the complete
//!   train+valid label set.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sudowoodo_augment::{augment, DaOp};
use sudowoodo_core::config::SudowoodoConfig;
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo_core::pipeline::em::{evaluate_matcher, EmPipeline};
use sudowoodo_datasets::em::{EmDataset, LabeledPair};
use sudowoodo_ml::metrics::{best_f1_threshold, PrF1};
use sudowoodo_text::serialize::serialize_record;

/// Result of a supervised baseline run.
#[derive(Clone, Debug)]
pub struct SupervisedBaselineResult {
    /// Baseline name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Number of labeled pairs used.
    pub labels_used: usize,
    /// Matching quality on the test split.
    pub matching: PrF1,
    /// Wall-clock seconds for training + evaluation.
    pub seconds: f64,
}

fn labeled_to_pairs(dataset: &EmDataset, labeled: &[LabeledPair]) -> Vec<TrainPair> {
    labeled
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

fn train_and_evaluate(
    dataset: &EmDataset,
    labeled: &[LabeledPair],
    train_pairs: &[TrainPair],
    config: &SudowoodoConfig,
    use_diff_head: bool,
    method: &str,
) -> SupervisedBaselineResult {
    let start = std::time::Instant::now();
    // Randomly initialized encoder: vocabulary from the corpus, no contrastive pre-training.
    let encoder = Encoder::from_corpus(config.encoder, &dataset.corpus(), config.seed);
    let mut matcher = PairMatcher::new(encoder, use_diff_head, config.seed);
    matcher.fine_tune(
        train_pairs,
        &FineTuneConfig {
            epochs: config.finetune_epochs,
            batch_size: config.finetune_batch_size,
            learning_rate: config.finetune_lr,
            seed: config.seed,
        },
    );
    // Threshold tuned on the labeled pairs (same protocol as the Sudowoodo pipeline).
    let threshold = if labeled.is_empty() {
        0.5
    } else {
        let inputs: Vec<(String, String)> = labeled
            .iter()
            .map(|p| {
                (
                    serialize_record(&dataset.table_a[p.a]),
                    serialize_record(&dataset.table_b[p.b]),
                )
            })
            .collect();
        let scores = matcher.predict_scores(&inputs);
        let gold: Vec<bool> = labeled.iter().map(|p| p.label).collect();
        best_f1_threshold(&scores, &gold).0
    };
    let matching = evaluate_matcher(&matcher, dataset, &dataset.test, threshold);
    SupervisedBaselineResult {
        method: method.to_string(),
        dataset: dataset.name.clone(),
        labels_used: labeled.len(),
        matching,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Runs the Ditto-like baseline with a label budget (`None` = all train+valid labels).
pub fn run_ditto(
    dataset: &EmDataset,
    label_budget: Option<usize>,
    config: &SudowoodoConfig,
) -> SupervisedBaselineResult {
    let labeled = EmPipeline::new(config.clone()).sample_labels(dataset, label_budget);
    let pairs = labeled_to_pairs(dataset, &labeled);
    let name = match label_budget {
        Some(n) => format!("Ditto ({n})"),
        None => "Ditto (full)".to_string(),
    };
    train_and_evaluate(dataset, &labeled, &pairs, config, false, &name)
}

/// Runs the Rotom-like baseline: Ditto plus DA-based training-set expansion.
pub fn run_rotom(
    dataset: &EmDataset,
    label_budget: Option<usize>,
    config: &SudowoodoConfig,
) -> SupervisedBaselineResult {
    let labeled = EmPipeline::new(config.clone()).sample_labels(dataset, label_budget);
    let mut pairs = labeled_to_pairs(dataset, &labeled);
    // Expand every labeled pair with augmented copies (one per operator family), standing in
    // for Rotom's learned augmentation-selection policy.
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(17));
    let ops = [DaOp::TokenDel, DaOp::SpanShuffle, DaOp::ColDel];
    let mut augmented = Vec::with_capacity(pairs.len() * ops.len());
    for pair in &pairs {
        for op in ops {
            augmented.push(TrainPair::new(
                augment(&pair.left, op, &mut rng),
                augment(&pair.right, op, &mut rng),
                pair.label,
            ));
        }
    }
    pairs.extend(augmented);
    let name = match label_budget {
        Some(n) => format!("Rotom ({n})"),
        None => "Rotom (full)".to_string(),
    };
    train_and_evaluate(dataset, &labeled, &pairs, config, false, &name)
}

/// Runs the DeepMatcher-like fully supervised reference (all train+valid labels).
pub fn run_deepmatcher_full(
    dataset: &EmDataset,
    config: &SudowoodoConfig,
) -> SupervisedBaselineResult {
    let labeled = EmPipeline::new(config.clone()).sample_labels(dataset, None);
    let pairs = labeled_to_pairs(dataset, &labeled);
    train_and_evaluate(
        dataset,
        &labeled,
        &pairs,
        config,
        false,
        "DeepMatcher (full)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudowoodo_datasets::em::EmProfile;

    fn tiny_setup() -> (EmDataset, SudowoodoConfig) {
        let dataset = EmProfile::dblp_acm().generate(0.06, 5);
        let mut config = SudowoodoConfig::test_config();
        config.finetune_epochs = 2;
        (dataset, config)
    }

    #[test]
    fn ditto_runs_with_budget_and_full_labels() {
        let (dataset, config) = tiny_setup();
        let budgeted = run_ditto(&dataset, Some(30), &config);
        assert_eq!(budgeted.labels_used, 30);
        assert!(budgeted.method.starts_with("Ditto"));
        assert!(budgeted.matching.f1 >= 0.0 && budgeted.matching.f1 <= 1.0);
        let full = run_ditto(&dataset, None, &config);
        assert!(full.labels_used > budgeted.labels_used);
        assert_eq!(full.method, "Ditto (full)");
    }

    #[test]
    fn rotom_expands_the_training_set() {
        let (dataset, config) = tiny_setup();
        let result = run_rotom(&dataset, Some(20), &config);
        assert_eq!(result.labels_used, 20);
        assert!(result.matching.f1 >= 0.0);
        assert!(result.seconds > 0.0);
    }

    #[test]
    fn deepmatcher_uses_all_labels() {
        let (dataset, config) = tiny_setup();
        let result = run_deepmatcher_full(&dataset, &config);
        assert_eq!(
            result.labels_used,
            dataset.train.len() + dataset.valid.len()
        );
        assert_eq!(result.method, "DeepMatcher (full)");
    }
}
