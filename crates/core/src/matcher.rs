//! The pairwise matching model `M_pm` and its fine-tuning (§III-B, Figure 4).
//!
//! Given a pair of serialized data items `(x, y)`, the matcher encodes `x`, `y`, and the
//! concatenation `xy` with the (pre-trained) embedding model and predicts match / non-match
//! from `Linear(Z_xy ⊕ |Z_x − Z_y|)` followed by a softmax. The `use_diff_head = false`
//! variant drops the similarity-aware part and uses only `Z_xy`, which is the default
//! sequence-pair fine-tuning of pre-trained LMs (used by the Ditto-like baseline).
//!
//! Both directions run on the encoder's batched path. A mini-batch of `n` pairs is laid
//! out as the `3n` texts `[xy | x | y]` (`n` without the diff head) and encoded **once**:
//! fine-tuning through one [`Encoder::encode_batch`] tape graph whose rows are then
//! selected with `gather_rows`, prediction through the tape-free [`Encoder::infer_chunk`]
//! and `Linear::infer`. Prediction works in 32-pair chunks, one after the other; a chunk's
//! scores depend only on that chunk, so the chunk size is part of the bit-identity
//! contract between a served `MATCH` and the in-process call. The per-sequence
//! `Encoder::encode_text` graphs this replaced survive only as the test oracle below.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sudowoodo_augment::CutoffPlan;
use sudowoodo_ml::metrics::{best_f1_threshold, PrF1};
use sudowoodo_nn::layers::{Layer, Linear};
use sudowoodo_nn::matrix::Matrix;
use sudowoodo_nn::optim::{AdamW, Trainer};
use sudowoodo_nn::pool;
use sudowoodo_nn::tape::{row_softmax, Tape, VarId};
use sudowoodo_text::serialize::serialize_pair;

use crate::encoder::Encoder;

/// A labeled training pair of serialized data items.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainPair {
    /// Serialization of the left item.
    pub left: String,
    /// Serialization of the right item.
    pub right: String,
    /// Match (true) or non-match (false).
    pub label: bool,
}

impl TrainPair {
    /// Convenience constructor.
    pub fn new(left: impl Into<String>, right: impl Into<String>, label: bool) -> Self {
        TrainPair {
            left: left.into(),
            right: right.into(),
            label,
        }
    }
}

/// Fine-tuning hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct FineTuneConfig {
    /// Number of passes over the training pairs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// AdamW learning rate.
    pub learning_rate: f32,
    /// Random seed for shuffling.
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 10,
            batch_size: 16,
            learning_rate: 5e-4,
            seed: 7,
        }
    }
}

/// The pairwise matching model.
#[derive(Clone, Debug)]
pub struct PairMatcher {
    /// The (shared) embedding model; fine-tuning updates it together with the head.
    pub encoder: Encoder,
    head: Linear,
    use_diff_head: bool,
}

impl PairMatcher {
    /// Wraps a (typically pre-trained) encoder into a matcher.
    pub fn new(encoder: Encoder, use_diff_head: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(101));
        let input_dim = if use_diff_head {
            2 * encoder.dim()
        } else {
            encoder.dim()
        };
        let head = Linear::new("matcher.head", input_dim, 2, &mut rng);
        PairMatcher {
            encoder,
            head,
            use_diff_head,
        }
    }

    /// Whether the similarity-aware head is active.
    pub fn uses_diff_head(&self) -> bool {
        self.use_diff_head
    }

    /// The texts one encoder pass embeds for a batch of pairs: every `xy` serialization,
    /// then (with the diff head) every left item, then every right item.
    fn encoder_inputs(&self, pairs: &[(&str, &str)]) -> Vec<String> {
        let mut texts: Vec<String> = pairs.iter().map(|(l, r)| serialize_pair(l, r)).collect();
        if self.use_diff_head {
            texts.extend(pairs.iter().map(|(l, _)| l.to_string()));
            texts.extend(pairs.iter().map(|(_, r)| r.to_string()));
        }
        texts
    }

    /// Builds the logits (`n x 2`) of a batch of pairs on the tape: one batched encoder
    /// graph over `[xy | x | y]`, then `Linear(Z_xy ⊕ |Z_x − Z_y|)`.
    fn batch_logits(&self, tape: &mut Tape, pairs: &[(&str, &str)]) -> VarId {
        let n = pairs.len();
        let texts = self.encoder_inputs(pairs);
        let refs: Vec<&str> = texts.iter().map(|t| t.as_str()).collect();
        let z = self.encoder.encode_batch(tape, &refs, &CutoffPlan::noop());
        let features = if self.use_diff_head {
            let block = |b: usize| (b * n..(b + 1) * n).collect::<Vec<usize>>();
            let z_xy = tape.gather_rows(z, &block(0));
            let z_x = tape.gather_rows(z, &block(1));
            let z_y = tape.gather_rows(z, &block(2));
            let diff = tape.sub(z_x, z_y);
            let abs_diff = tape.abs(diff);
            tape.concat_cols(z_xy, abs_diff)
        } else {
            z
        };
        self.head.forward(tape, features)
    }

    /// Match probabilities of one chunk of pairs, tape-free: the same layout and the same
    /// arithmetic as [`PairMatcher::batch_logits`], then a two-way softmax.
    fn chunk_scores(&self, chunk: &[(String, String)]) -> Vec<f32> {
        let n = chunk.len();
        let refs: Vec<(&str, &str)> = chunk
            .iter()
            .map(|(l, r)| (l.as_str(), r.as_str()))
            .collect();
        // One inference call: the head's logits go back to the pool the encoder used.
        pool::scope(|| {
            let z = self.encoder.infer_chunk(&self.encoder_inputs(&refs));
            let features = if self.use_diff_head {
                let abs_diff = z
                    .slice_rows(n, 2 * n)
                    .zip_map(&z.slice_rows(2 * n, 3 * n), |x, y| (x - y).abs());
                Matrix::hstack(&[&z.slice_rows(0, n), &abs_diff])
            } else {
                z
            };
            let logits = self.head.infer(&features);
            let scores = row_softmax(&logits).col(1);
            pool::recycle(logits);
            scores
        })
    }

    /// Fine-tunes the matcher (encoder + head) on labeled pairs; returns the mean loss per
    /// epoch.
    pub fn fine_tune(&mut self, pairs: &[TrainPair], config: &FineTuneConfig) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trainer = Trainer::new(AdamW::new(config.learning_rate));
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size.max(1)) {
                let batch: Vec<(&str, &str)> = chunk
                    .iter()
                    .map(|&i| (pairs[i].left.as_str(), pairs[i].right.as_str()))
                    .collect();
                let targets: Vec<usize> =
                    chunk.iter().map(|&i| usize::from(pairs[i].label)).collect();
                epoch_loss += trainer.step(|tape| {
                    let logits = self.batch_logits(tape, &batch);
                    tape.softmax_cross_entropy(logits, &targets)
                });
                batches += 1;
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f32);
        }
        epoch_losses
    }

    /// Probability that a pair matches.
    pub fn predict_proba(&self, left: &str, right: &str) -> f32 {
        self.predict_scores(&[(left.to_string(), right.to_string())])[0]
    }

    /// Match probabilities for many pairs, scored in 32-pair chunks.
    pub fn predict_scores(&self, pairs: &[(String, String)]) -> Vec<f32> {
        pairs
            .chunks(32)
            .flat_map(|chunk| self.chunk_scores(chunk))
            .collect()
    }

    /// The decision threshold that maximizes F1 on a labeled pair set; 0.5 when the set
    /// is empty.
    pub fn best_threshold(&self, pairs: &[TrainPair]) -> f32 {
        if pairs.is_empty() {
            return 0.5;
        }
        let (inputs, gold) = split_labels(pairs);
        best_f1_threshold(&self.predict_scores(&inputs), &gold).0
    }

    /// Precision / recall / F1 of the predictions at `threshold` on a labeled pair set.
    pub fn evaluate(&self, pairs: &[TrainPair], threshold: f32) -> PrF1 {
        let (inputs, gold) = split_labels(pairs);
        PrF1::from_predictions(&self.predict_labels(&inputs, threshold), &gold)
    }

    /// Hard predictions at a given probability threshold.
    pub fn predict_labels(&self, pairs: &[(String, String)], threshold: f32) -> Vec<bool> {
        self.predict_scores(pairs)
            .into_iter()
            .map(|p| p >= threshold)
            .collect()
    }

    /// All trainable parameters (encoder + head), the persistable state of the
    /// matcher — what [`crate::model_snapshot`] writes into a model snapshot and
    /// rebinds by name on load.
    pub fn params(&self) -> Vec<sudowoodo_nn::param::Param> {
        let mut ps = self.encoder.params();
        ps.extend(self.head.params());
        ps
    }

    /// Number of trainable parameters (encoder + head).
    pub fn num_parameters(&self) -> usize {
        self.encoder.num_parameters()
            + self
                .head
                .params()
                .iter()
                .map(|p| p.num_elements())
                .sum::<usize>()
    }
}

/// The `(left, right)` inputs and the gold labels of a labeled pair set.
fn split_labels(pairs: &[TrainPair]) -> (Vec<(String, String)>, Vec<bool>) {
    pairs
        .iter()
        .map(|p| ((p.left.clone(), p.right.clone()), p.label))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderConfig, EncoderKind};

    /// A tiny matching task: items are "<brand> <model>" strings; a pair matches iff the
    /// model number token is identical.
    fn toy_pairs(n: usize) -> (Vec<String>, Vec<TrainPair>) {
        let brands = ["canon", "epson", "sony", "dell"];
        let mut corpus = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..n {
            let brand = brands[i % brands.len()];
            let left = format!("[COL] title [VAL] {brand} printer model m{i}");
            let right_match = format!("[COL] title [VAL] {brand} printer m{i} refurbished");
            let right_nonmatch =
                format!("[COL] title [VAL] {brand} printer model m{}", (i + 1) % n);
            corpus.push(left.clone());
            corpus.push(right_match.clone());
            corpus.push(right_nonmatch.clone());
            pairs.push(TrainPair::new(left.clone(), right_match, true));
            pairs.push(TrainPair::new(left, right_nonmatch, false));
        }
        (corpus, pairs)
    }

    fn tiny_matcher(corpus: &[String], use_diff_head: bool) -> PairMatcher {
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), corpus, 3);
        PairMatcher::new(encoder, use_diff_head, 3)
    }

    #[test]
    fn fine_tuning_reduces_loss_and_learns_the_task() {
        let (corpus, pairs) = toy_pairs(12);
        let mut matcher = tiny_matcher(&corpus, true);
        let losses = matcher.fine_tune(
            &pairs,
            &FineTuneConfig {
                epochs: 8,
                batch_size: 8,
                learning_rate: 2e-3,
                seed: 1,
            },
        );
        assert_eq!(losses.len(), 8);
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss should decrease: {:?}",
            losses
        );
        // Training accuracy should beat chance comfortably.
        let eval_pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|p| (p.left.clone(), p.right.clone()))
            .collect();
        let predictions = matcher.predict_labels(&eval_pairs, 0.5);
        let correct = predictions
            .iter()
            .zip(pairs.iter())
            .filter(|(pred, gold)| **pred == gold.label)
            .count();
        assert!(
            correct as f32 / pairs.len() as f32 > 0.7,
            "training accuracy too low: {correct}/{}",
            pairs.len()
        );
    }

    #[test]
    fn diff_head_and_concat_head_have_different_feature_widths() {
        let (corpus, _) = toy_pairs(4);
        let with_diff = tiny_matcher(&corpus, true);
        let concat_only = tiny_matcher(&corpus, false);
        assert!(with_diff.uses_diff_head());
        assert!(!concat_only.uses_diff_head());
        assert!(with_diff.num_parameters() > concat_only.num_parameters());
        // Both must produce valid probabilities.
        let p1 = with_diff.predict_proba(&corpus[0], &corpus[1]);
        let p2 = concat_only.predict_proba(&corpus[0], &corpus[1]);
        assert!((0.0..=1.0).contains(&p1));
        assert!((0.0..=1.0).contains(&p2));
    }

    #[test]
    fn predict_scores_is_consistent_with_predict_proba() {
        let (corpus, _) = toy_pairs(4);
        let matcher = tiny_matcher(&corpus, true);
        let single = matcher.predict_proba(&corpus[0], &corpus[1]);
        let batch = matcher.predict_scores(&[(corpus[0].clone(), corpus[1].clone())]);
        assert!((single - batch[0]).abs() < 1e-6);
    }

    /// The per-sequence graphs `batch_logits` replaced, rebuilt as its oracle: three
    /// `encode_text` graphs per pair, stacked, through the same head.
    fn oracle_logits(matcher: &PairMatcher, tape: &mut Tape, pairs: &[(&str, &str)]) -> VarId {
        let noop = CutoffPlan::noop();
        let rows: Vec<VarId> = pairs
            .iter()
            .map(|(left, right)| {
                let z_xy = matcher
                    .encoder
                    .encode_text(tape, &serialize_pair(left, right), &noop);
                if !matcher.use_diff_head {
                    return z_xy;
                }
                let z_x = matcher.encoder.encode_text(tape, left, &noop);
                let z_y = matcher.encoder.encode_text(tape, right, &noop);
                let diff = tape.sub(z_x, z_y);
                let abs_diff = tape.abs(diff);
                tape.concat_cols(z_xy, abs_diff)
            })
            .collect();
        let features = tape.concat_rows(&rows);
        matcher.head.forward(tape, features)
    }

    /// Ragged pairs: a long pair whose `xy` truncates at `max_len`, an empty right side,
    /// a one-token side, and ordinary ones.
    fn ragged_pairs(corpus: &[String]) -> Vec<(String, String)> {
        let long = format!("{} {}", corpus[0], corpus[1]);
        vec![
            (corpus[0].clone(), corpus[1].clone()),
            (long.clone(), long),
            (corpus[2].clone(), String::new()),
            ("canon".to_string(), corpus[3].clone()),
            (corpus[4].clone(), corpus[4].clone()),
        ]
    }

    #[test]
    fn batched_logits_and_gradients_match_the_per_pair_graphs() {
        use sudowoodo_nn::gradcheck::param_gradient;
        let (corpus, _) = toy_pairs(6);
        let owned = ragged_pairs(&corpus);
        let pairs: Vec<(&str, &str)> = owned
            .iter()
            .map(|(l, r)| (l.as_str(), r.as_str()))
            .collect();
        let targets = [1usize, 0, 0, 1, 1];
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            for use_diff_head in [true, false] {
                let config = EncoderConfig {
                    kind,
                    ..EncoderConfig::tiny()
                };
                let encoder = Encoder::from_corpus(config, &corpus, 3);
                let matcher = PairMatcher::new(encoder, use_diff_head, 3);
                let xy_len = |(l, r): &(&str, &str)| {
                    let vocab = matcher.encoder.vocab();
                    vocab.encode(&serialize_pair(l, r), usize::MAX).len()
                };
                assert!(xy_len(&pairs[1]) > config.max_len, "one pair must truncate");

                let mut batched = Tape::new();
                let logits = matcher.batch_logits(&mut batched, &pairs);
                let loss = batched.softmax_cross_entropy(logits, &targets);
                let batched_grads = batched.backward(loss);

                let mut oracle = Tape::new();
                let oracle_out = oracle_logits(&matcher, &mut oracle, &pairs);
                let oracle_loss = oracle.softmax_cross_entropy(oracle_out, &targets);
                let oracle_grads = oracle.backward(oracle_loss);

                let what = format!("{kind:?}, diff head {use_diff_head}");
                assert!(
                    batched
                        .value(logits)
                        .approx_eq(oracle.value(oracle_out), 1e-4),
                    "{what}: logits diverged"
                );
                for param in matcher.params() {
                    let got = param_gradient(&batched, &batched_grads, &param);
                    let expected = param_gradient(&oracle, &oracle_grads, &param);
                    assert!(
                        got.approx_eq(&expected, 1e-4),
                        "{what}: gradient of {} diverged",
                        param.name()
                    );
                    // Every parameter the oracle trains, the batched graph trains too.
                    assert_eq!(
                        got.max_abs() > 0.0,
                        expected.max_abs() > 0.0,
                        "{what}: {}",
                        param.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tape_free_scores_match_the_tape_path() {
        let (corpus, train) = toy_pairs(6);
        let mut pairs = ragged_pairs(&corpus);
        // Past one 32-pair chunk, so the chunk boundaries are exercised.
        pairs.extend((0..40).map(|i| {
            (
                corpus[i % corpus.len()].clone(),
                corpus[(i * 7 + 1) % corpus.len()].clone(),
            )
        }));
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            for use_diff_head in [true, false] {
                let config = EncoderConfig {
                    kind,
                    ..EncoderConfig::tiny()
                };
                let encoder = Encoder::from_corpus(config, &corpus, 5);
                let mut matcher = PairMatcher::new(encoder, use_diff_head, 5);
                // Move the weights off their initialisation (zero biases, unit gains).
                matcher.fine_tune(
                    &train,
                    &FineTuneConfig {
                        epochs: 1,
                        ..FineTuneConfig::default()
                    },
                );
                let scores = matcher.predict_scores(&pairs);
                assert_eq!(scores.len(), pairs.len());
                for (chunk, got) in pairs.chunks(32).zip(scores.chunks(32)) {
                    let refs: Vec<(&str, &str)> = chunk
                        .iter()
                        .map(|(l, r)| (l.as_str(), r.as_str()))
                        .collect();
                    let mut tape = Tape::new();
                    let logits = matcher.batch_logits(&mut tape, &refs);
                    let probs = row_softmax(tape.value(logits));
                    for (r, &score) in got.iter().enumerate() {
                        assert!(
                            (score - probs.get(r, 1)).abs() < 1e-5,
                            "{kind:?}, diff head {use_diff_head}: pair {r} scored {score} vs {}",
                            probs.get(r, 1)
                        );
                    }
                }
            }
        }
        assert!(tiny_matcher(&corpus, true).predict_scores(&[]).is_empty());
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let (corpus, _) = toy_pairs(4);
        let mut matcher = tiny_matcher(&corpus, true);
        let losses = matcher.fine_tune(&[], &FineTuneConfig::default());
        assert!(losses.is_empty());
        // No labeled pairs to calibrate on: the default threshold.
        assert_eq!(matcher.best_threshold(&[]), 0.5);
    }
}
