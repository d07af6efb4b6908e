//! Neural network layers built on the autodiff [`Tape`].
//!
//! Every layer owns its [`Param`]s, exposes `forward(&self, &mut Tape, ...) -> VarId`, and
//! reports its parameters through [`Layer::params`] so optimizers can update them.

use rand::Rng;

use crate::init;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::tape::{Tape, VarId};

/// Per-row validity flags of a packed `[batch*max_len, d]` row-block: row `b*max_len + t`
/// is valid when `t < lens[b]`. Shared by the batched layers and their tests.
pub fn padded_row_validity(lens: &[usize], max_len: usize) -> Vec<bool> {
    let mut valid = Vec::with_capacity(lens.len() * max_len);
    for &len in lens {
        for t in 0..max_len {
            valid.push(t < len);
        }
    }
    valid
}

/// Per-row valid-key counts of the `[batch*heads*max_len, max_len]` attention-score tile
/// stack: every query row of tile `(b, h)` may attend to the `lens[b]` real keys of its
/// own sequence, so its softmax is masked after `lens[b]` columns.
pub fn attention_valid_counts(lens: &[usize], heads: usize, max_len: usize) -> Vec<usize> {
    let mut valid = Vec::with_capacity(lens.len() * heads * max_len);
    for &len in lens {
        for _ in 0..heads * max_len {
            valid.push(len.min(max_len));
        }
    }
    valid
}

/// Common interface for parameterized layers.
pub trait Layer {
    /// All trainable parameters of the layer (and its sub-layers).
    fn params(&self) -> Vec<Param>;

    /// Total number of trainable scalars.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.num_elements()).sum()
    }
}

/// A fully connected layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix of shape `in_dim x out_dim`.
    pub weight: Param,
    /// Bias row vector of shape `1 x out_dim`, or `None` for a bias-free layer.
    pub bias: Option<Param>,
}

impl Linear {
    /// Creates a linear layer with Xavier-initialized weights and zero bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                init::xavier_uniform(in_dim, out_dim, rng),
            ),
            bias: Some(Param::new(format!("{name}.bias"), init::zeros(1, out_dim))),
        }
    }

    /// Creates a linear layer without a bias term.
    pub fn new_no_bias(name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                init::xavier_uniform(in_dim, out_dim, rng),
            ),
            bias: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape().0
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape().1
    }

    /// Applies the layer to an `n x in_dim` input.
    pub fn forward(&self, tape: &mut Tape, x: VarId) -> VarId {
        let w = tape.param(&self.weight);
        let mut y = tape.matmul(x, w);
        if let Some(bias) = &self.bias {
            let b = tape.param(bias);
            y = tape.add_row_broadcast(y, b);
        }
        y
    }

    /// Inference-only forward: one batched GEMM straight on matrices, no tape, no
    /// gradient bookkeeping, and no parameter cloning (weights are read under a shared
    /// lock; the bias adds in place on the GEMM output). Safe to call from many threads
    /// at once.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = self.weight.with_value(|w| x.matmul(w));
        if let Some(bias) = &self.bias {
            bias.with_value(|b| y.add_row_broadcast_mut(b));
        }
        y
    }
}

impl Layer for Linear {
    fn params(&self) -> Vec<Param> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// A token-embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Table of shape `vocab_size x dim`.
    pub table: Param,
}

impl Embedding {
    /// Creates an embedding table with BERT-style `N(0, 0.02^2)` initialization.
    pub fn new(name: &str, vocab_size: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            table: Param::new(
                format!("{name}.table"),
                init::embedding_normal(vocab_size, dim, rng),
            ),
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.table.shape().0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.table.shape().1
    }

    /// Looks up the embeddings for a sequence of token ids, producing `len x dim`. The
    /// table is bound by rows ([`Tape::param_rows`]): it is not copied onto the tape and
    /// its gradient stays `len x dim`.
    pub fn forward(&self, tape: &mut Tape, token_ids: &[usize]) -> VarId {
        tape.param_rows(&self.table, token_ids)
    }

    /// Embedding lookup without recording gradients for the table (used at inference time).
    /// Only the requested rows are copied; the table itself is read under a shared lock.
    pub fn lookup(&self, token_ids: &[usize]) -> Matrix {
        self.table.with_value(|t| t.gather_rows(token_ids))
    }
}

impl Layer for Embedding {
    fn params(&self) -> Vec<Param> {
        vec![self.table.clone()]
    }
}

/// Layer normalization over the last dimension of an `n x d` activation.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Per-feature gain, `1 x d`.
    pub gain: Param,
    /// Per-feature bias, `1 x d`.
    pub bias: Param,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Creates a LayerNorm with unit gain and zero bias.
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gain: Param::new(format!("{name}.gain"), init::ones(1, dim)),
            bias: Param::new(format!("{name}.bias"), init::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Applies layer normalization.
    pub fn forward(&self, tape: &mut Tape, x: VarId) -> VarId {
        let standardized = tape.standardize_rows(x, self.eps);
        let g = tape.param(&self.gain);
        let scaled = tape.mul_row_broadcast(standardized, g);
        let b = tape.param(&self.bias);
        tape.add_row_broadcast(scaled, b)
    }

    /// Inference-only forward (no tape).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let standardized = crate::tape::standardize_rows(x, self.eps);
        let scaled = self.gain.with_value(|g| standardized.mul_row_broadcast(g));
        self.bias.with_value(|b| scaled.add_row_broadcast(b))
    }

    /// Padding-aware forward over a packed `[batch*max_len, d]` row-block: rows flagged
    /// `false` in `valid` skip standardization (they are forced to zero, so padding rows
    /// cost nothing and contribute no gradient), valid rows match [`LayerNorm::forward`]
    /// exactly.
    pub fn forward_batch(&self, tape: &mut Tape, x: VarId, valid: &[bool]) -> VarId {
        let standardized = tape.masked_standardize_rows(x, self.eps, valid);
        let g = tape.param(&self.gain);
        let scaled = tape.mul_row_broadcast(standardized, g);
        let b = tape.param(&self.bias);
        tape.add_row_broadcast(scaled, b)
    }

    /// Inference-only padding-aware forward (no tape). Gain and bias apply in place on
    /// the standardized buffer — no extra allocation per sub-layer call.
    pub fn infer_batch(&self, x: &Matrix, valid: &[bool]) -> Matrix {
        let mut standardized = crate::tape::masked_standardize_rows(x, self.eps, valid);
        self.gain
            .with_value(|g| standardized.mul_row_broadcast_mut(g));
        self.bias
            .with_value(|b| standardized.add_row_broadcast_mut(b));
        standardized
    }
}

impl Layer for LayerNorm {
    fn params(&self) -> Vec<Param> {
        vec![self.gain.clone(), self.bias.clone()]
    }
}

/// Position-wise feed-forward network: `Linear -> GELU -> Linear`.
#[derive(Clone, Debug)]
pub struct FeedForward {
    /// Expansion layer.
    pub lift: Linear,
    /// Projection layer back to the model dimension.
    pub project: Linear,
}

impl FeedForward {
    /// Creates a feed-forward block with the given hidden width.
    pub fn new(name: &str, dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        FeedForward {
            lift: Linear::new(&format!("{name}.lift"), dim, hidden, rng),
            project: Linear::new(&format!("{name}.project"), hidden, dim, rng),
        }
    }

    /// Applies the block.
    pub fn forward(&self, tape: &mut Tape, x: VarId) -> VarId {
        let h = self.lift.forward(tape, x);
        let h = tape.gelu(h);
        self.project.forward(tape, h)
    }

    /// Inference-only forward (no tape): two batched GEMMs and an in-place GELU map.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.lift.infer(x);
        crate::tape::gelu_slice(h.data_mut());
        self.project.infer(&h)
    }
}

impl Layer for FeedForward {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.lift.params();
        ps.extend(self.project.params());
        ps
    }
}

/// Multi-head scaled dot-product self-attention over a single sequence (`seq x dim`).
#[derive(Clone, Debug)]
pub struct MultiHeadSelfAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Number of attention heads; must divide the model dimension.
    pub num_heads: usize,
}

impl MultiHeadSelfAttention {
    /// Creates the attention block.
    ///
    /// # Panics
    /// Panics when `dim` is not divisible by `num_heads`.
    pub fn new(name: &str, dim: usize, num_heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            num_heads > 0 && dim.is_multiple_of(num_heads),
            "dim must be divisible by num_heads"
        );
        MultiHeadSelfAttention {
            wq: Linear::new(&format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(&format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(&format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(&format!("{name}.wo"), dim, dim, rng),
            num_heads,
        }
    }

    /// Applies self-attention to a `seq x dim` input and returns a `seq x dim` output.
    pub fn forward(&self, tape: &mut Tape, x: VarId) -> VarId {
        let dim = self.wq.out_dim();
        let head_dim = dim / self.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();

        let q = self.wq.forward(tape, x);
        let k = self.wk.forward(tape, x);
        let v = self.wv.forward(tape, x);

        let mut head_outputs = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let start = h * head_dim;
            let end = start + head_dim;
            let qh = tape.slice_cols(q, start, end);
            let kh = tape.slice_cols(k, start, end);
            let vh = tape.slice_cols(v, start, end);
            let scores = tape.matmul_transpose_b(qh, kh); // fused Q*K^T
            let scores = tape.scale(scores, scale);
            let attn = tape.row_softmax(scores);
            head_outputs.push(tape.matmul(attn, vh));
        }
        let mut concat = head_outputs[0];
        for &h in &head_outputs[1..] {
            concat = tape.concat_cols(concat, h);
        }
        self.wo.forward(tape, concat)
    }

    /// Inference-only forward (no tape); scores go through the fused `Q*K^T` kernel.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let dim = self.wq.out_dim();
        let head_dim = dim / self.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();

        let q = self.wq.infer(x);
        let k = self.wk.infer(x);
        let v = self.wv.infer(x);

        let mut head_outputs = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let start = h * head_dim;
            let end = start + head_dim;
            let qh = q.slice_cols(start, end);
            let kh = k.slice_cols(start, end);
            let vh = v.slice_cols(start, end);
            let mut scores = qh.matmul_transpose_b(&kh);
            scores.scale_mut(scale);
            let attn = crate::tape::row_softmax(&scores);
            head_outputs.push(attn.matmul(&vh));
        }
        let refs: Vec<&Matrix> = head_outputs.iter().collect();
        self.wo.infer(&Matrix::hstack(&refs))
    }

    /// Batched masked forward over a packed `[batch*max_len, dim]` row-block holding
    /// `lens.len()` sequences padded to `max_len` rows each. The Q/K/V/O projections run
    /// as single whole-batch GEMMs; the scores and context of every `(sequence, head)`
    /// pair are one GEMM-tile product each ([`Tape::attention_scores`],
    /// [`Tape::attention_context`]); padding keys are masked out of
    /// the softmax ([`Tape::masked_row_softmax`]), so the rows of every sequence attend
    /// exactly as in the per-sequence [`MultiHeadSelfAttention::forward`] oracle.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        x: VarId,
        lens: &[usize],
        max_len: usize,
    ) -> VarId {
        let dim = self.wq.out_dim();
        let head_dim = dim / self.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();

        let q = self.wq.forward(tape, x);
        let k = self.wk.forward(tape, x);
        let v = self.wv.forward(tape, x);

        let scores = tape.attention_scores(q, k, self.num_heads, max_len, scale);
        let valid = attention_valid_counts(lens, self.num_heads, max_len);
        let attn = tape.masked_row_softmax(scores, &valid);
        let ctx = tape.attention_context(attn, v, self.num_heads, max_len);
        self.wo.forward(tape, ctx)
    }

    /// Inference-only batched masked forward (no tape); same packing as
    /// [`MultiHeadSelfAttention::forward_batch`], but the scores → masked softmax →
    /// context chain runs as the fused allocation-free kernel
    /// [`crate::tape::masked_attention_infer`] (numerically identical to the composed
    /// tape ops — the equivalence tests pin both against the per-sequence oracle).
    pub fn infer_batch(&self, x: &Matrix, lens: &[usize], max_len: usize) -> Matrix {
        let dim = self.wq.out_dim();
        let head_dim = dim / self.num_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();

        let q = self.wq.infer(x);
        let k = self.wk.infer(x);
        let v = self.wv.infer(x);
        let ctx =
            crate::tape::masked_attention_infer(&q, &k, &v, self.num_heads, max_len, scale, lens);
        self.wo.infer(&ctx)
    }
}

impl Layer for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.wq.params();
        ps.extend(self.wk.params());
        ps.extend(self.wv.params());
        ps.extend(self.wo.params());
        ps
    }
}

/// A pre-norm Transformer encoder block: `x + Attn(LN(x))`, then `x + FF(LN(x))`.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    /// LayerNorm in front of the attention sub-layer.
    pub norm1: LayerNorm,
    /// Self-attention sub-layer.
    pub attention: MultiHeadSelfAttention,
    /// LayerNorm in front of the feed-forward sub-layer.
    pub norm2: LayerNorm,
    /// Feed-forward sub-layer.
    pub feed_forward: FeedForward,
}

impl TransformerBlock {
    /// Creates a Transformer block.
    pub fn new(
        name: &str,
        dim: usize,
        num_heads: usize,
        ff_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        TransformerBlock {
            norm1: LayerNorm::new(&format!("{name}.norm1"), dim),
            attention: MultiHeadSelfAttention::new(&format!("{name}.attn"), dim, num_heads, rng),
            norm2: LayerNorm::new(&format!("{name}.norm2"), dim),
            feed_forward: FeedForward::new(&format!("{name}.ff"), dim, ff_hidden, rng),
        }
    }

    /// Applies the block to a `seq x dim` input.
    pub fn forward(&self, tape: &mut Tape, x: VarId) -> VarId {
        let normed = self.norm1.forward(tape, x);
        let attended = self.attention.forward(tape, normed);
        let x = tape.add(x, attended);
        let normed = self.norm2.forward(tape, x);
        let ff = self.feed_forward.forward(tape, normed);
        tape.add(x, ff)
    }

    /// Inference-only forward (no tape).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut x = x.add(&self.attention.infer(&self.norm1.infer(x)));
        let ff = self.feed_forward.infer(&self.norm2.infer(&x));
        x.add_assign(&ff);
        x
    }

    /// Batched masked forward over a packed `[batch*max_len, dim]` row-block: layer norms
    /// skip padding rows, attention masks padding keys, and the feed-forward runs as one
    /// whole-batch GEMM pair. Valid rows match [`TransformerBlock::forward`] exactly.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        x: VarId,
        lens: &[usize],
        max_len: usize,
    ) -> VarId {
        let valid = padded_row_validity(lens, max_len);
        let normed = self.norm1.forward_batch(tape, x, &valid);
        let attended = self.attention.forward_batch(tape, normed, lens, max_len);
        let x = tape.add(x, attended);
        let normed = self.norm2.forward_batch(tape, x, &valid);
        let ff = self.feed_forward.forward(tape, normed);
        tape.add(x, ff)
    }

    /// Inference-only batched masked forward (no tape). Residuals accumulate in place on
    /// the owned sub-layer outputs (element-wise addition commutes, so the values match
    /// the tape path exactly).
    pub fn infer_batch(&self, x: &Matrix, lens: &[usize], max_len: usize) -> Matrix {
        let valid = padded_row_validity(lens, max_len);
        let normed = self.norm1.infer_batch(x, &valid);
        let mut x1 = self.attention.infer_batch(&normed, lens, max_len);
        x1.add_assign(x);
        let mut out = self
            .feed_forward
            .infer(&self.norm2.infer_batch(&x1, &valid));
        out.add_assign(&x1);
        out
    }
}

impl Layer for TransformerBlock {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.norm1.params();
        ps.extend(self.attention.params());
        ps.extend(self.norm2.params());
        ps.extend(self.feed_forward.params());
        ps
    }
}

/// Learned absolute positional embeddings added to token embeddings.
#[derive(Clone, Debug)]
pub struct PositionalEmbedding {
    /// Table of shape `max_len x dim`.
    pub table: Param,
}

impl PositionalEmbedding {
    /// Creates a positional-embedding table.
    pub fn new(name: &str, max_len: usize, dim: usize, rng: &mut impl Rng) -> Self {
        PositionalEmbedding {
            table: Param::new(
                format!("{name}.pos"),
                init::embedding_normal(max_len, dim, rng),
            ),
        }
    }

    /// Maximum supported sequence length.
    pub fn max_len(&self) -> usize {
        self.table.shape().0
    }

    /// Adds positional embeddings for positions `0..len` to a `len x dim` input.
    ///
    /// Sequences longer than `max_len` reuse the final position embedding.
    pub fn forward(&self, tape: &mut Tape, x: VarId, len: usize) -> VarId {
        let max = self.max_len();
        let indices: Vec<usize> = (0..len).map(|i| i.min(max - 1)).collect();
        let pos = tape.param_rows(&self.table, &indices);
        tape.add(x, pos)
    }

    /// Inference-only forward (no tape).
    pub fn infer(&self, x: &Matrix, len: usize) -> Matrix {
        let max = self.max_len();
        let indices: Vec<usize> = (0..len).map(|i| i.min(max - 1)).collect();
        let pos = self.table.with_value(|t| t.gather_rows(&indices));
        x.add(&pos)
    }

    /// Positional indices of a packed `[batch*max_len, d]` row-block: every block repeats
    /// positions `0..max_len` (clamped to the table size). Padding rows receive a position
    /// embedding too, but it never leaks — attention masks them and pooling skips them.
    fn padded_indices(&self, batch: usize, max_len: usize) -> Vec<usize> {
        let max = self.max_len();
        let mut indices = Vec::with_capacity(batch * max_len);
        for _ in 0..batch {
            indices.extend((0..max_len).map(|i| i.min(max - 1)));
        }
        indices
    }

    /// Adds positional embeddings to every sequence of a packed `[batch*max_len, d]`
    /// row-block.
    pub fn forward_batch(&self, tape: &mut Tape, x: VarId, batch: usize, max_len: usize) -> VarId {
        let indices = self.padded_indices(batch, max_len);
        let pos = tape.param_rows(&self.table, &indices);
        tape.add(x, pos)
    }

    /// Inference-only batched forward (no tape); the sum accumulates in place on the
    /// gathered position rows.
    pub fn infer_batch(&self, x: &Matrix, batch: usize, max_len: usize) -> Matrix {
        let indices = self.padded_indices(batch, max_len);
        let mut pos = self.table.with_value(|t| t.gather_rows(&indices));
        pos.add_assign(x);
        pos
    }
}

impl Layer for PositionalEmbedding {
    fn params(&self) -> Vec<Param> {
        vec![self.table.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new("l", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(5, 4));
        let y = layer.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
        // With a zero input the output equals the bias (zero-initialized).
        assert_eq!(tape.value(y).sum(), 0.0);
        assert_eq!(layer.num_parameters(), 4 * 3 + 3);
    }

    #[test]
    fn linear_no_bias_has_fewer_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new_no_bias("l", 4, 3, &mut rng);
        assert_eq!(layer.num_parameters(), 12);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
    }

    #[test]
    fn embedding_lookup_matches_table_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let emb = Embedding::new("e", 10, 6, &mut rng);
        let mut tape = Tape::new();
        let out = emb.forward(&mut tape, &[2, 7, 2]);
        let v = tape.value(out);
        assert_eq!(v.shape(), (3, 6));
        assert_eq!(v.row(0), v.row(2));
        assert_eq!(v.row(1), emb.lookup(&[7]).row(0));
        assert_eq!(emb.vocab_size(), 10);
        assert_eq!(emb.dim(), 6);
    }

    #[test]
    fn layer_norm_standardizes_rows() {
        let ln = LayerNorm::new("ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]));
        let y = ln.forward(&mut tape, x);
        let row = tape.value(y).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn attention_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let attn = MultiHeadSelfAttention::new("a", 8, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::random_normal(5, 8, 1.0, &mut rng));
        let y = attn.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (5, 8));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn attention_rejects_bad_head_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = MultiHeadSelfAttention::new("a", 10, 3, &mut rng);
    }

    #[test]
    fn transformer_block_is_differentiable() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = TransformerBlock::new("b", 8, 2, 16, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::random_normal(4, 8, 1.0, &mut rng));
        let y = block.forward(&mut tape, x);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        // Every bound parameter should receive a finite gradient.
        let mut checked = 0;
        for (id, _) in tape.bindings() {
            if let Some(g) = grads.get(*id) {
                assert!(g.data().iter().all(|v| v.is_finite()));
                checked += 1;
            }
        }
        assert!(checked > 0);
        assert!(block.num_parameters() > 0);
    }

    #[test]
    fn positional_embedding_clamps_long_sequences() {
        let mut rng = StdRng::seed_from_u64(7);
        let pos = PositionalEmbedding::new("p", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(6, 6));
        let y = pos.forward(&mut tape, x, 6);
        let v = tape.value(y);
        // Positions beyond max_len reuse the last row.
        assert_eq!(v.row(4), v.row(5));
        assert_eq!(pos.max_len(), 4);
    }
}
