//! The embedding model `M_emb` (§II, §III).
//!
//! The encoder maps a serialized data item to an L2-normalized `dim`-dimensional vector.
//! The paper uses a pre-trained RoBERTa/DistilBERT; this reproduction trains a compact
//! encoder from scratch instead, so that it builds and runs offline on a CPU with no
//! pre-trained weights, and contrastive pre-training on the task's own corpus is the only
//! pre-training the model gets. Two architectures are provided behind [`EncoderKind`]:
//!
//! * `MeanPool` — token embeddings, mean pooling, a two-layer MLP;
//! * `Transformer` — token + positional embeddings, `layers` pre-norm Transformer blocks,
//!   mean pooling.
//!
//! Both consume the token-embedding matrix, so the cutoff augmentation (which zeroes parts
//! of that matrix) applies identically to either. Outputs are always L2-normalized so that
//! dot products are cosine similarities, as required by blocking, pseudo-labeling, and the
//! contrastive objective.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use sudowoodo_augment::{CutoffKind, CutoffPlan};
use sudowoodo_nn::layers::{
    padded_ranges, Embedding, FeedForward, Layer, LayerNorm, PositionalEmbedding, TransformerBlock,
};
use sudowoodo_nn::matrix::Matrix;
use sudowoodo_nn::param::Param;
use sudowoodo_nn::pool;
use sudowoodo_nn::tape::{Tape, VarId};
use sudowoodo_text::{Vocab, VocabConfig};

use crate::config::{EncoderConfig, EncoderKind};

/// The Sudowoodo embedding model.
#[derive(Clone, Debug)]
pub struct Encoder {
    /// Architecture configuration.
    pub config: EncoderConfig,
    vocab: Vocab,
    embedding: Embedding,
    positional: PositionalEmbedding,
    blocks: Vec<TransformerBlock>,
    pool_mlp: FeedForward,
    output_norm: LayerNorm,
}

impl Encoder {
    /// Creates an encoder whose vocabulary is built from `corpus`.
    pub fn from_corpus(config: EncoderConfig, corpus: &[String], seed: u64) -> Self {
        let vocab = Vocab::build_from_texts(
            corpus.iter().map(|s| s.as_str()),
            &VocabConfig {
                max_size: 20_000,
                min_count: 1,
                hash_buckets: 256,
            },
        );
        Self::with_vocab(config, vocab, seed)
    }

    /// Creates an encoder with an existing vocabulary.
    pub fn with_vocab(config: EncoderConfig, vocab: Vocab, seed: u64) -> Self {
        let parts = (config.max_len, config.layers, config.ff_hidden);
        Self::build(config, vocab, seed, parts)
    }

    /// An encoder of `config`'s shape holding only the parameters `config.kind` stores
    /// and runs (a MeanPool model has no positional table or blocks, a Transformer no
    /// pooling MLP), for a model file to overwrite: it allocates nothing the file does
    /// not carry.
    pub(crate) fn skeleton(config: EncoderConfig, vocab: Vocab) -> Self {
        let parts = match config.kind {
            EncoderKind::MeanPool => (0, 0, config.ff_hidden),
            EncoderKind::Transformer => (config.max_len, config.layers, 0),
        };
        Self::build(config, vocab, 0, parts)
    }

    /// Draws the parts from one seeded stream in a fixed order: the token table, a
    /// positional table of `max_len` rows, `layers` blocks and a pooling MLP
    /// `pool_hidden` wide.
    fn build(
        config: EncoderConfig,
        vocab: Vocab,
        seed: u64,
        (max_len, layers, pool_hidden): (usize, usize, usize),
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let embedding = Embedding::new("encoder.embedding", vocab.size(), config.dim, &mut rng);
        let positional = PositionalEmbedding::new("encoder", max_len, config.dim, &mut rng);
        let blocks = (0..layers)
            .map(|i| {
                TransformerBlock::new(
                    &format!("encoder.block{i}"),
                    config.dim,
                    config.heads,
                    config.ff_hidden,
                    &mut rng,
                )
            })
            .collect();
        let pool_mlp = FeedForward::new("encoder.pool_mlp", config.dim, pool_hidden, &mut rng);
        let output_norm = LayerNorm::new("encoder.output_norm", config.dim);
        Encoder {
            config,
            vocab,
            embedding,
            positional,
            blocks,
            pool_mlp,
            output_norm,
        }
    }

    /// The vocabulary used by this encoder.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<Param> {
        let mut ps = self.embedding.params();
        match self.config.kind {
            EncoderKind::MeanPool => {
                ps.extend(self.pool_mlp.params());
            }
            EncoderKind::Transformer => {
                ps.extend(self.positional.params());
                for b in &self.blocks {
                    ps.extend(b.params());
                }
            }
        }
        ps.extend(self.output_norm.params());
        ps
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.num_elements()).sum()
    }

    /// Encodes one tokenized item on the tape, returning a `1 x dim` L2-normalized vector.
    ///
    /// This is the **per-sequence reference path**: [`Encoder::encode_batch`] must stay
    /// numerically equivalent to stacking `encode_ids` outputs (it is the frozen oracle of
    /// `crates/nn/tests/attention_equivalence.rs` and of the matcher's unit tests, the same
    /// role [`Matrix::matmul_naive`] plays for the GEMM kernels). An item that tokenizes to
    /// nothing pools to the zero row instead of panicking.
    pub fn encode_ids(&self, tape: &mut Tape, token_ids: &[usize], cutoff: &CutoffPlan) -> VarId {
        let ids: Vec<usize> = token_ids
            .iter()
            .take(self.config.max_len)
            .copied()
            .collect();
        let pooled = if ids.is_empty() {
            // Zero tokens: nothing to embed or attend over. The token mean is the zero row
            // (the value `mean_rows`/`segment_mean_rows` assign an empty segment), and the
            // MeanPool MLP still applies to it so the batched path stays equivalent.
            let mean = tape.constant(Matrix::zeros(1, self.config.dim));
            match self.config.kind {
                EncoderKind::MeanPool => {
                    let lifted = self.pool_mlp.forward(tape, mean);
                    tape.add(mean, lifted)
                }
                EncoderKind::Transformer => mean,
            }
        } else {
            let embedded = self.embedding.forward(tape, &ids);
            // Cutoff acts on the token-embedding matrix: multiply by a constant 0/1 mask so
            // that gradients still flow to the surviving entries.
            let mask = cutoff.apply(&Matrix::full(ids.len(), self.config.dim, 1.0));
            let mask_node = tape.constant(mask);
            let masked = tape.mul(embedded, mask_node);

            match self.config.kind {
                EncoderKind::MeanPool => {
                    let mean = tape.mean_rows(masked);
                    let lifted = self.pool_mlp.forward(tape, mean);
                    tape.add(mean, lifted)
                }
                EncoderKind::Transformer => {
                    let mut x = self.positional.forward(tape, masked, ids.len());
                    for block in &self.blocks {
                        x = block.forward(tape, x);
                    }
                    tape.mean_rows(x)
                }
            }
        };
        let normed = self.output_norm.forward(tape, pooled);
        tape.l2_normalize_rows(normed)
    }

    /// Encodes one serialized text on the tape.
    pub fn encode_text(&self, tape: &mut Tape, text: &str, cutoff: &CutoffPlan) -> VarId {
        let ids = self.vocab.encode(text, self.config.max_len);
        self.encode_ids(tape, &ids, cutoff)
    }

    /// Encodes a batch of serialized texts on the tape, returning an `n x dim` matrix of
    /// L2-normalized rows. An empty batch yields an empty `0 x dim` node instead of
    /// panicking.
    ///
    /// For **both** architectures the whole batch is **one** graph of batched ops. The
    /// `MeanPool` arm runs a single embedding gather over the concatenated token ids, one
    /// constant cutoff mask, and a segment-mean pooling matmul. The `Transformer` arm
    /// packs the sequences into a padded `[n*max_len, dim]` row-block and runs batched
    /// masked attention — padding keys are masked out of every softmax and pooling skips
    /// padding rows, so no item ever mixes with another (numerically equivalent to the
    /// per-sequence [`Encoder::encode_ids`] oracle, see
    /// `crates/nn/tests/attention_equivalence.rs`).
    pub fn encode_batch(&self, tape: &mut Tape, texts: &[&str], cutoff: &CutoffPlan) -> VarId {
        if texts.is_empty() {
            return tape.constant(Matrix::zeros(0, self.config.dim));
        }
        match self.config.kind {
            EncoderKind::MeanPool => self.encode_batch_meanpool(tape, texts, cutoff),
            EncoderKind::Transformer => self.encode_batch_transformer(tape, texts, cutoff),
        }
    }

    /// Batched `MeanPool` forward: gather → mask → segment-mean pool → MLP → norm, all as
    /// `n`-row batched ops on one tape graph.
    fn encode_batch_meanpool(&self, tape: &mut Tape, texts: &[&str], cutoff: &CutoffPlan) -> VarId {
        let dim = self.config.dim;
        let ids_per_text: Vec<Vec<usize>> = texts
            .iter()
            .map(|t| self.vocab.encode(t, self.config.max_len))
            .collect();
        let all_ids: Vec<usize> = ids_per_text.iter().flatten().copied().collect();

        // ONE gather over the whole batch: `total x dim`.
        let embedded = self.embedding.forward(tape, &all_ids);

        // The batch-wise cutoff plan applies per item, exactly as in the per-row path;
        // the per-segment 0/1 masks are stacked into one constant. A noop plan (every
        // original view, and both views with cutoff ablated) skips the mask entirely —
        // multiplying by all-ones in the hot path would be pure overhead.
        let masked = if cutoff.kind() == CutoffKind::None {
            embedded
        } else {
            let segment_masks: Vec<Matrix> = ids_per_text
                .iter()
                .map(|ids| cutoff.apply(&Matrix::full(ids.len(), dim, 1.0)))
                .collect();
            let mask_refs: Vec<&Matrix> = segment_masks.iter().collect();
            let mask_node = tape.constant(Matrix::vstack(&mask_refs));
            tape.mul(embedded, mask_node)
        };

        // Segment-mean pooling over the items laid end to end: one fused op at
        // O(total x dim) (empty items pool to the zero vector, matching `mean_rows` on an
        // empty matrix).
        let mut start = 0;
        let ranges: Vec<(usize, usize)> = ids_per_text
            .iter()
            .map(|ids| {
                start += ids.len();
                (start - ids.len(), ids.len())
            })
            .collect();
        let mean = tape.segment_mean_rows(masked, &ranges); // n x dim

        let lifted = self.pool_mlp.forward(tape, mean);
        let summed = tape.add(mean, lifted);
        let normed = self.output_norm.forward(tape, summed);
        tape.l2_normalize_rows(normed)
    }

    /// Batched `Transformer` forward: the sequences of the batch are packed into one
    /// padded `[n*max_len, dim]` row-block (`max_len` = longest sequence of this batch)
    /// and every op runs once for the whole batch — a single embedding gather, one fused
    /// cutoff+padding mask, batched positional add, `layers` batched masked Transformer
    /// blocks, and one padding-aware segment-mean pooling. Padding rows carry the padding
    /// token's embedding but are masked out of every attention softmax and excluded from
    /// pooling, so they influence neither values nor gradients.
    fn encode_batch_transformer(
        &self,
        tape: &mut Tape,
        texts: &[&str],
        cutoff: &CutoffPlan,
    ) -> VarId {
        let dim = self.config.dim;
        let ids_per_text: Vec<Vec<usize>> = texts
            .iter()
            .map(|t| self.vocab.encode(t, self.config.max_len))
            .collect();
        let lens: Vec<usize> = ids_per_text.iter().map(|ids| ids.len()).collect();
        let max_len = lens.iter().copied().max().unwrap_or(0).max(1);

        // ONE gather over the padded batch: `n*max_len x dim`. Padding slots gather the
        // PAD token row; their gradient is exactly zero (masked keys, skipped pooling), so
        // the scatter-add of the backward pass never touches the PAD embedding for them.
        let mut padded_ids = Vec::with_capacity(lens.len() * max_len);
        for ids in &ids_per_text {
            padded_ids.extend(ids.iter().copied());
            padded_ids.resize(padded_ids.len() + (max_len - ids.len()), 0);
        }
        let embedded = self.embedding.forward(tape, &padded_ids);

        // Fused cutoff + padding mask: each item's batch-wise cutoff mask lands in its
        // block's leading rows and padding rows are zeroed. When there is no cutoff and no
        // ragged padding the multiply would be the identity, so it is skipped.
        let needs_mask = cutoff.kind() != CutoffKind::None || lens.iter().any(|&len| len < max_len);
        let masked = if needs_mask {
            let mut mask = tape.zeros(lens.len() * max_len, dim);
            for (b, ids) in ids_per_text.iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let item = cutoff.apply(&Matrix::full(ids.len(), dim, 1.0));
                for t in 0..ids.len() {
                    mask.row_mut(b * max_len + t).copy_from_slice(item.row(t));
                }
            }
            let mask_node = tape.constant(mask);
            tape.mul(embedded, mask_node)
        } else {
            embedded
        };

        let mut x = self
            .positional
            .forward_batch(tape, masked, lens.len(), max_len);
        for block in &self.blocks {
            x = block.forward_batch(tape, x, &lens, max_len);
        }
        let pooled = tape.segment_mean_rows(x, &padded_ranges(&lens, max_len));
        let normed = self.output_norm.forward(tape, pooled);
        tape.l2_normalize_rows(normed)
    }

    /// Inference-only embedding of many texts (no augmentation, no tape, no gradient
    /// bookkeeping), parallel over 64-item chunks with rayon. Each chunk runs the batched
    /// matrix-level forward of [`Encoder::infer_chunk`]; model weights are shared across
    /// workers behind read locks.
    pub fn embed_all(&self, texts: &[String]) -> Vec<Vec<f32>> {
        if texts.is_empty() {
            return Vec::new();
        }
        let chunk_outputs: Vec<Matrix> = texts
            .par_chunks(64)
            .map(|chunk| self.infer_chunk(chunk))
            .collect();
        let mut out = Vec::with_capacity(texts.len());
        for values in &chunk_outputs {
            for r in 0..values.rows() {
                out.push(values.row(r).to_vec());
            }
        }
        out
    }

    /// Batched inference forward for one chunk, returning `n x dim` L2-normalized rows
    /// (`0 x dim` for an empty chunk).
    ///
    /// Both architectures run whole-chunk batched ops: `MeanPool` gathers and segment-mean
    /// pools in place; `Transformer` packs the chunk into a padded `[n*max_len, dim]`
    /// row-block and runs the batched masked attention path (projections and feed-forward
    /// as chunk-wide GEMMs, scores as fused per-`(sequence, head)` `A * B^T` tiles with
    /// padding keys masked). [`Encoder::infer_chunk_reference`] keeps the retired
    /// per-sequence loop as the frozen equivalence oracle.
    ///
    /// The chunk is one [`pool::scope`]: its activations are buffers of this thread's
    /// inference pool, handed back as soon as the next layer has read them, so a warm
    /// call at the same shapes asks the system allocator for no large block.
    pub fn infer_chunk(&self, texts: &[String]) -> Matrix {
        pool::scope(|| self.infer_chunk_scoped(texts))
    }

    fn infer_chunk_scoped(&self, texts: &[String]) -> Matrix {
        let n = texts.len();
        let dim = self.config.dim;
        if n == 0 {
            return Matrix::zeros(0, dim);
        }
        let ids_per_text: Vec<Vec<usize>> = texts
            .iter()
            .map(|t| self.vocab.encode(t, self.config.max_len))
            .collect();

        let pooled = match self.config.kind {
            EncoderKind::MeanPool => {
                // One gather for the chunk, then segment means accumulated in place.
                let all_ids: Vec<usize> = ids_per_text.iter().flatten().copied().collect();
                let embedded = self.embedding.lookup(&all_ids);
                let mut means = Matrix::zeros(n, dim);
                let mut offset = 0;
                for (i, ids) in ids_per_text.iter().enumerate() {
                    if !ids.is_empty() {
                        for t in offset..offset + ids.len() {
                            let token_row = embedded.row(t);
                            for (m, &e) in means.row_mut(i).iter_mut().zip(token_row.iter()) {
                                *m += e;
                            }
                        }
                        let inv = 1.0 / ids.len() as f32;
                        for m in means.row_mut(i) {
                            *m *= inv;
                        }
                    }
                    offset += ids.len();
                }
                pool::recycle(embedded);
                let lifted = self.pool_mlp.infer(&means);
                let pooled = means.add(&lifted);
                pool::recycle(lifted);
                pooled
            }
            EncoderKind::Transformer => {
                let lens: Vec<usize> = ids_per_text.iter().map(|ids| ids.len()).collect();
                let max_len = lens.iter().copied().max().unwrap_or(0).max(1);
                let mut padded_ids = Vec::with_capacity(n * max_len);
                for ids in &ids_per_text {
                    padded_ids.extend(ids.iter().copied());
                    padded_ids.resize(padded_ids.len() + (max_len - ids.len()), 0);
                }
                let embedded = self.embedding.lookup(&padded_ids);
                let mut x = self.positional.infer_batch(&embedded, n, max_len);
                pool::recycle(embedded);
                for block in &self.blocks {
                    let next = block.infer_batch(&x, &lens, max_len);
                    pool::recycle(std::mem::replace(&mut x, next));
                }
                let pooled =
                    sudowoodo_nn::tape::segment_mean_rows(&x, &padded_ranges(&lens, max_len));
                pool::recycle(x);
                pooled
            }
        };
        let normed = self.output_norm.infer(&pooled);
        let embeddings = normed.l2_normalize_rows();
        pool::recycle(normed);
        embeddings
    }

    /// The retired per-sequence inference loop, kept verbatim as the frozen oracle for the
    /// batched-attention equivalence tests (the role [`Matrix::matmul_naive`] plays for the
    /// GEMM kernels). Do not optimize this.
    pub fn infer_chunk_reference(&self, texts: &[String]) -> Matrix {
        let n = texts.len();
        let dim = self.config.dim;
        let ids_per_text: Vec<Vec<usize>> = texts
            .iter()
            .map(|t| self.vocab.encode(t, self.config.max_len))
            .collect();

        let pooled = match self.config.kind {
            EncoderKind::MeanPool => {
                let mut means = Matrix::zeros(n, dim);
                for (i, ids) in ids_per_text.iter().enumerate() {
                    if !ids.is_empty() {
                        let embedded = self.embedding.lookup(ids);
                        means
                            .row_mut(i)
                            .copy_from_slice(embedded.mean_rows().row(0));
                    }
                }
                let lifted = self.pool_mlp.infer(&means);
                means.add(&lifted)
            }
            EncoderKind::Transformer => {
                let mut pooled = Matrix::zeros(n, dim);
                for (i, ids) in ids_per_text.iter().enumerate() {
                    if ids.is_empty() {
                        continue;
                    }
                    let mut x = self.embedding.lookup(ids);
                    x = self.positional.infer(&x, ids.len());
                    for block in &self.blocks {
                        x = block.infer(&x);
                    }
                    pooled.row_mut(i).copy_from_slice(x.mean_rows().row(0));
                }
                pooled
            }
        };
        let normed = self.output_norm.infer(&pooled);
        normed.l2_normalize_rows()
    }

    /// Convenience: embedding of a single text.
    pub fn embed_one(&self, text: &str) -> Vec<f32> {
        self.embed_all(&[text.to_string()]).remove(0)
    }
}

/// Cosine similarity between two embeddings produced by [`Encoder::embed_all`].
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    Matrix::cosine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;

    fn small_corpus() -> Vec<String> {
        vec![
            "[COL] title [VAL] canon ink cartridge cyan [COL] price [VAL] 13.99".to_string(),
            "[COL] title [VAL] canon cyan ink tank [COL] price [VAL] 16.00".to_string(),
            "[COL] title [VAL] post mortem dreamcatcher [COL] price [VAL] 29.99".to_string(),
            "[COL] title [VAL] spanish language course deluxe [COL] price [VAL] 36.11".to_string(),
        ]
    }

    #[test]
    fn meanpool_and_transformer_produce_unit_vectors() {
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            let config = EncoderConfig {
                kind,
                dim: 16,
                layers: 1,
                heads: 2,
                ff_hidden: 32,
                max_len: 24,
            };
            let encoder = Encoder::from_corpus(config, &small_corpus(), 1);
            let embeddings = encoder.embed_all(&small_corpus());
            assert_eq!(embeddings.len(), 4);
            for e in &embeddings {
                assert_eq!(e.len(), 16);
                let norm: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!(
                    (norm - 1.0).abs() < 1e-4,
                    "embedding not normalized: {norm}"
                );
            }
            assert!(encoder.num_parameters() > 0);
        }
    }

    #[test]
    fn identical_texts_have_cosine_one() {
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), &small_corpus(), 2);
        let a = encoder.embed_one(&small_corpus()[0]);
        let b = encoder.embed_one(&small_corpus()[0]);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn encode_batch_matches_individual_encoding() {
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), &small_corpus(), 3);
        let corpus = small_corpus();
        let all = encoder.embed_all(&corpus);
        let single = encoder.embed_one(&corpus[2]);
        assert!((cosine(&all[2], &single) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn tape_and_inference_paths_agree_for_both_architectures() {
        // Three forwards exist (per-row tape, batched tape, tape-free infer); a change to
        // one must not silently diverge from the others. Pin all three together.
        let corpus = small_corpus();
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            let config = EncoderConfig {
                kind,
                dim: 16,
                layers: 1,
                heads: 2,
                ff_hidden: 32,
                max_len: 24,
            };
            let encoder = Encoder::from_corpus(config, &corpus, 9);
            let refs: Vec<&str> = corpus.iter().map(|s| s.as_str()).collect();

            let mut tape = Tape::new();
            let batched = encoder.encode_batch(&mut tape, &refs, &CutoffPlan::noop());
            let batched = tape.value(batched).clone();

            let mut row_tape = Tape::new();
            let rows: Vec<_> = refs
                .iter()
                .map(|t| encoder.encode_text(&mut row_tape, t, &CutoffPlan::noop()))
                .collect();
            let per_row = row_tape.concat_rows(&rows);
            let per_row = row_tape.value(per_row).clone();

            let inferred = encoder.infer_chunk(&corpus);

            assert!(
                batched.approx_eq(&per_row, 1e-4),
                "{kind:?}: batched tape path diverged from per-row tape path"
            );
            assert!(
                batched.approx_eq(&inferred, 1e-4),
                "{kind:?}: tape path diverged from inference path"
            );
        }
    }

    #[test]
    fn encoder_is_differentiable_end_to_end() {
        let corpus = small_corpus();
        let config = EncoderConfig {
            kind: EncoderKind::Transformer,
            dim: 8,
            layers: 1,
            heads: 2,
            ff_hidden: 16,
            max_len: 16,
        };
        let encoder = Encoder::from_corpus(config, &corpus, 4);
        let mut tape = Tape::new();
        let refs: Vec<&str> = corpus.iter().map(|s| s.as_str()).collect();
        let batch = encoder.encode_batch(&mut tape, &refs, &CutoffPlan::noop());
        let sq = tape.pow2(batch);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        let mut with_grad = 0;
        for (node, _) in tape.bindings() {
            if grads.get(*node).is_some() {
                with_grad += 1;
            }
        }
        assert!(with_grad > 0, "no parameter received a gradient");
    }

    #[test]
    fn encode_batch_of_zero_texts_yields_empty_matrix() {
        // Regression: this used to panic with "encode_batch: empty batch".
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            let config = EncoderConfig {
                kind,
                ..EncoderConfig::tiny()
            };
            let encoder = Encoder::from_corpus(config, &small_corpus(), 11);
            let mut tape = Tape::new();
            let out = encoder.encode_batch(&mut tape, &[], &CutoffPlan::noop());
            assert_eq!(tape.value(out).shape(), (0, config.dim));
            assert_eq!(encoder.infer_chunk(&[]).shape(), (0, config.dim));
            assert!(encoder.embed_all(&[]).is_empty());
        }
    }

    #[test]
    fn zero_length_token_sequences_pool_to_defined_rows() {
        // Regression: a sequence that tokenizes to nothing must produce a defined,
        // finite, unit-norm embedding (the zero pooled row pushed through the output
        // norm) on the per-sequence oracle — the same convention the batched padded
        // pooling assigns an all-padding block.
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            let config = EncoderConfig {
                kind,
                ..EncoderConfig::tiny()
            };
            let encoder = Encoder::from_corpus(config, &small_corpus(), 12);
            let mut tape = Tape::new();
            let out = encoder.encode_ids(&mut tape, &[], &CutoffPlan::noop());
            let v = tape.value(out);
            assert_eq!(v.shape(), (1, config.dim));
            assert!(
                v.data().iter().all(|x| x.is_finite()),
                "{kind:?}: non-finite embedding for an empty token sequence"
            );
            // A fresh encoder has zero biases, so the zero pooled row stays the zero
            // vector (which `l2_normalize_rows` deliberately leaves unchanged) — what
            // matters is that the row is defined, not that it has unit norm.
        }
    }

    #[test]
    fn ragged_batches_with_empty_texts_agree_across_paths() {
        // "" tokenizes to the single PAD token, giving maximal raggedness next to a long
        // text; batched tape, per-row oracle, and batched inference must still agree.
        let corpus = small_corpus();
        let config = EncoderConfig {
            kind: EncoderKind::Transformer,
            ..EncoderConfig::tiny()
        };
        let encoder = Encoder::from_corpus(config, &corpus, 13);
        let texts = vec!["".to_string(), corpus[0].clone(), "canon".to_string()];
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();

        let mut tape = Tape::new();
        let batched = encoder.encode_batch(&mut tape, &refs, &CutoffPlan::noop());
        let batched = tape.value(batched).clone();

        let mut row_tape = Tape::new();
        let rows: Vec<_> = refs
            .iter()
            .map(|t| encoder.encode_text(&mut row_tape, t, &CutoffPlan::noop()))
            .collect();
        let per_row = row_tape.concat_rows(&rows);
        let per_row = row_tape.value(per_row).clone();

        assert!(batched.approx_eq(&per_row, 1e-4));
        assert!(batched.approx_eq(&encoder.infer_chunk(&texts), 1e-4));
        assert!(batched.approx_eq(&encoder.infer_chunk_reference(&texts), 1e-4));
    }

    #[test]
    fn batched_inference_matches_per_sequence_reference() {
        // The frozen per-sequence loop (`infer_chunk_reference`) is the oracle for the
        // batched masked-attention inference path.
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            let config = EncoderConfig {
                kind,
                dim: 16,
                layers: 2,
                heads: 4,
                ff_hidden: 32,
                max_len: 24,
            };
            let encoder = Encoder::from_corpus(config, &small_corpus(), 14);
            let batched = encoder.infer_chunk(&small_corpus());
            let reference = encoder.infer_chunk_reference(&small_corpus());
            assert!(
                batched.approx_eq(&reference, 1e-4),
                "{kind:?}: batched inference diverged from the per-sequence oracle"
            );
        }
    }

    #[test]
    fn long_inputs_are_truncated_to_max_len() {
        let config = EncoderConfig {
            max_len: 6,
            ..EncoderConfig::tiny()
        };
        let encoder = Encoder::from_corpus(config, &small_corpus(), 5);
        let long_text = "[COL] title [VAL] ".to_string() + &"token ".repeat(100);
        let e = encoder.embed_one(&long_text);
        assert_eq!(e.len(), config.dim);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn vocab_accessor_reflects_corpus() {
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), &small_corpus(), 6);
        assert!(encoder.vocab().known_size() > 6);
        assert_eq!(encoder.dim(), 16);
    }
}
