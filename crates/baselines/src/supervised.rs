//! Supervised / semi-supervised deep EM baselines: Ditto-like and Rotom-like matchers.
//!
//! Both baselines use Sudowoodo's own from-scratch [`Encoder`] in place of the
//! pre-trained language model the original systems fine-tune, so the encoder architecture
//! is held constant and they differ only in how the paper's corresponding systems differ
//! from Sudowoodo:
//!
//! * **Ditto-like** — no contrastive pre-training (randomly initialized encoder) and the
//!   default sequence-pair fine-tuning head (concatenation only, no `|Z_x − Z_y|` features).
//!   Without a label budget it trains on the complete train+valid label set, the fully
//!   supervised reference point of Tables V / XVIII.
//! * **Rotom-like** — Ditto-like plus training-set augmentation: every labeled pair is
//!   expanded with DA-distorted copies, standing in for Rotom's meta-learned augmentation
//!   policy.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sudowoodo_augment::{augment, DaOp};
use sudowoodo_core::config::SudowoodoConfig;
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::matcher::{PairMatcher, TrainPair};
use sudowoodo_core::pipeline::em::{evaluate_matcher, labeled_train_pairs, EmPipeline};
use sudowoodo_datasets::em::EmDataset;
use sudowoodo_ml::metrics::PrF1;

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

/// Fine-tunes a randomly initialized matcher with the concatenation-only head on
/// `train_pairs`, whose first `labels_used` pairs are the labeled ones the threshold is
/// tuned on (the Sudowoodo pipeline's protocol), and evaluates it on the test split.
fn train_and_evaluate(
    dataset: &EmDataset,
    labels_used: usize,
    train_pairs: &[TrainPair],
    config: &SudowoodoConfig,
    method: String,
) -> SupervisedBaselineResult {
    let start = std::time::Instant::now();
    // Randomly initialized encoder: vocabulary from the corpus, no contrastive pre-training.
    let encoder = Encoder::from_corpus(config.encoder, &dataset.corpus(), config.seed);
    let mut matcher = PairMatcher::new(encoder, false, config.seed);
    matcher.fine_tune(train_pairs, &config.fine_tune_config());
    let threshold = matcher.best_threshold(&train_pairs[..labels_used]);
    let matching = evaluate_matcher(&matcher, dataset, &dataset.test, threshold);
    SupervisedBaselineResult {
        method,
        dataset: dataset.name.clone(),
        labels_used,
        matching,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The labeled pairs a label budget samples (`None` = every train+valid label), and the
/// method name with the budget in it.
fn sample(
    dataset: &EmDataset,
    label_budget: Option<usize>,
    config: &SudowoodoConfig,
    system: &str,
) -> (Vec<TrainPair>, String) {
    let labeled = EmPipeline::new(config.clone()).sample_labels(dataset, label_budget);
    let name = match label_budget {
        Some(n) => format!("{system} ({n})"),
        None => format!("{system} (full)"),
    };
    (labeled_train_pairs(dataset, &labeled), name)
}

/// Runs the Ditto-like baseline with a label budget (`None` = all train+valid labels).
pub fn run_ditto(
    dataset: &EmDataset,
    label_budget: Option<usize>,
    config: &SudowoodoConfig,
) -> SupervisedBaselineResult {
    let (pairs, name) = sample(dataset, label_budget, config, "Ditto");
    train_and_evaluate(dataset, pairs.len(), &pairs, config, name)
}

/// Runs the Rotom-like baseline: Ditto plus DA-based training-set expansion.
pub fn run_rotom(
    dataset: &EmDataset,
    label_budget: Option<usize>,
    config: &SudowoodoConfig,
) -> SupervisedBaselineResult {
    let (mut pairs, name) = sample(dataset, label_budget, config, "Rotom");
    let labels_used = pairs.len();
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
    train_and_evaluate(dataset, labels_used, &pairs, config, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudowoodo_datasets::em::EmProfile;

    /// Runs `f` once per encoder kind of the test configurations. The baselines build no
    /// blocking index, so the layout axis would only repeat a run.
    fn for_each_tiny_setup(mut f: impl FnMut(&EmDataset, SudowoodoConfig)) {
        let dataset = EmProfile::dblp_acm().generate(0.06, 5);
        SudowoodoConfig::for_each_test_config(|mut config| {
            if config.blocking_shard_capacity.is_none() {
                config.finetune_epochs = 2;
                f(&dataset, config);
            }
        });
    }

    #[test]
    fn ditto_runs_with_budget_and_full_labels() {
        for_each_tiny_setup(|dataset, config| {
            let budgeted = run_ditto(dataset, Some(30), &config);
            assert_eq!(budgeted.labels_used, 30);
            assert!(budgeted.method.starts_with("Ditto"));
            assert!(budgeted.matching.f1 >= 0.0 && budgeted.matching.f1 <= 1.0);
            let full = run_ditto(dataset, None, &config);
            assert_eq!(full.labels_used, dataset.train.len() + dataset.valid.len());
            assert_eq!(full.method, "Ditto (full)");
        });
    }

    #[test]
    fn rotom_expands_the_training_set() {
        for_each_tiny_setup(|dataset, config| {
            let result = run_rotom(dataset, Some(20), &config);
            assert_eq!(result.labels_used, 20);
            assert!(result.matching.f1 >= 0.0);
            assert!(result.seconds > 0.0);
        });
    }
}
