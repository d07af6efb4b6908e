//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records every operation of a forward pass as a node in a flat, topologically
//! ordered vector. Calling [`Tape::backward`] seeds the gradient of a scalar (`1 x 1`) loss
//! node and propagates gradients to every reachable node, returning a [`Gradients`] table.
//!
//! The op set is intentionally small and matched to what the Sudowoodo models need:
//! dense layers, layer normalization, multi-head attention, the SimCLR contrastive loss,
//! the Barlow Twins redundancy-regularization loss, and the pairwise fine-tuning head.
//! Fused ops (`StandardizeRows`, `L2NormalizeRows`, `SoftmaxCrossEntropy`, and the
//! batched masked-attention family `AttentionScores` / `MaskedRowSoftmax` /
//! `AttentionContext` / `MaskedStandardizeRows` / `PaddedSegmentMeanRows`) keep graphs
//! small and their hand-written backward passes are validated against finite differences
//! by the property tests in `tests/gradcheck_props.rs` and the checks in
//! [`crate::gradcheck`].

use crate::matrix::{Arm, Matrix, PackedTranspose};
use crate::param::Param;

/// Index of a node in a [`Tape`].
pub type VarId = usize;

/// A recorded operation.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf node (input constant or bound parameter).
    Leaf,
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    MatMul(VarId, VarId),
    /// Fused `A * B^T` (similarity-matrix shape) — no transposed matrix is allocated in
    /// either the forward or the backward pass: `B` is packed straight into the GEMM
    /// tile's panels.
    MatMulTransposeB(VarId, VarId),
    Scale(VarId, f32),
    AddScalar(VarId),
    Transpose(VarId),
    Relu(VarId),
    Gelu(VarId),
    Tanh(VarId),
    Sigmoid(VarId),
    Exp(VarId),
    Ln(VarId),
    Pow2(VarId),
    Abs(VarId),
    SumAll(VarId),
    MeanAll(VarId),
    RowSoftmax(VarId),
    /// `x (n x d)` + `b (1 x d)` broadcast over rows.
    AddRowBroadcast(VarId, VarId),
    /// `x (n x d)` * `g (1 x d)` broadcast over rows.
    MulRowBroadcast(VarId, VarId),
    ConcatCols(VarId, VarId),
    ConcatRows(VarId, VarId),
    /// Stack many `1 x d` row vectors into an `n x d` matrix.
    StackRows(Vec<VarId>),
    /// Gather rows of the parent by index (embedding lookup). Gradient scatter-adds.
    GatherRows(VarId, Vec<usize>),
    SliceCols(VarId, usize, usize),
    /// Mean over rows: `n x d -> 1 x d`.
    MeanRows(VarId),
    /// Per-segment mean over consecutive row blocks: rows are split into segments of the
    /// given lengths and each segment pools to one output row (batched mean pooling).
    /// Empty segments pool to the zero row.
    SegmentMeanRows(VarId, Vec<usize>),
    /// Per-row standardization `(x - mean) / sqrt(var + eps)` (LayerNorm core).
    StandardizeRows(VarId, f32),
    /// Per-row L2 normalization.
    L2NormalizeRows(VarId),
    /// Mean negative log-likelihood of a row-wise softmax against integer targets.
    SoftmaxCrossEntropy(VarId, Vec<usize>),
    /// Batched multi-head attention scores `scale * Q_bh * K_bh^T` over every
    /// `(sequence, head)` tile of a packed `[batch*seq, dim]` row-block (see
    /// [`attention_scores`]).
    AttentionScores {
        /// Packed queries, `[batch*seq, dim]`.
        q: VarId,
        /// Packed keys, `[batch*seq, dim]`.
        k: VarId,
        /// Number of attention heads.
        heads: usize,
        /// Padded per-sequence length.
        seq: usize,
        /// Score scale (`1/sqrt(head_dim)`).
        scale: f32,
    },
    /// Row softmax over a valid prefix of each row (see [`Tape::masked_row_softmax`]);
    /// the masked suffix behaves as an additive `-inf` padding mask (weight exactly 0,
    /// zero gradient). The valid counts are consumed by the forward pass only — the
    /// backward formula needs just the output, whose masked entries are already zero.
    MaskedRowSoftmax(VarId),
    /// Batched attention application `attn_bh * V_bh` over every `(sequence, head)` tile,
    /// producing the packed `[batch*seq, dim]` context (see [`attention_context`]).
    AttentionContext {
        /// Attention weights, `[batch*heads*seq, seq]`.
        attn: VarId,
        /// Packed values, `[batch*seq, dim]`.
        v: VarId,
        /// Number of attention heads.
        heads: usize,
        /// Padded per-sequence length.
        seq: usize,
    },
    /// Per-row standardization that skips padding rows: rows flagged `false` are forced to
    /// zero in the forward pass and receive zero gradient.
    MaskedStandardizeRows(VarId, f32, Vec<bool>),
    /// Mean pooling over the leading `lens[b]` rows of each fixed-stride `max_len` row
    /// block: `[batch*max_len, d] -> [batch, d]`. Padding rows are excluded; empty
    /// sequences pool to the zero row.
    PaddedSegmentMeanRows(VarId, Vec<usize>, usize),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Gradients produced by [`Tape::backward`]. Indexed by [`VarId`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss with respect to node `id`, if the node influenced the loss.
    pub fn get(&self, id: VarId) -> Option<&Matrix> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Gradient of `id`, or a zero matrix of the given shape when unreachable.
    pub fn get_or_zeros(&self, id: VarId, rows: usize, cols: usize) -> Matrix {
        self.get(id)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(rows, cols))
    }
}

/// The autodiff tape. Create one per forward/backward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// `(leaf node, parameter)` bindings recorded by [`Tape::param`].
    bindings: Vec<(VarId, Param)>,
    /// `(leaf node, parameter, gathered rows)` bindings recorded by [`Tape::param_rows`].
    row_bindings: Vec<(VarId, Param, Vec<usize>)>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value held by node `id`.
    pub fn value(&self, id: VarId) -> &Matrix {
        &self.nodes[id].value
    }

    /// Scalar value of a `1 x 1` node.
    pub fn scalar(&self, id: VarId) -> f32 {
        let v = self.value(id);
        assert_eq!(v.shape(), (1, 1), "scalar: node {} is not 1x1", id);
        v.get(0, 0)
    }

    /// Whole-parameter bindings recorded so far (leaf id, parameter handle).
    pub fn bindings(&self) -> &[(VarId, Param)] {
        &self.bindings
    }

    /// Row bindings recorded so far by [`Tape::param_rows`]: (leaf id, parameter handle,
    /// the parameter row behind each row of the leaf). The leaf's gradient, read with
    /// these indices, is the parameter's row-sparse gradient.
    pub fn row_bindings(&self) -> &[(VarId, Param, Vec<usize>)] {
        &self.row_bindings
    }

    fn push(&mut self, value: Matrix, op: Op) -> VarId {
        let id = self.nodes.len();
        self.nodes.push(Node { value, op });
        id
    }

    /// Records a constant leaf (no gradient will be requested for it by optimizers).
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(value, Op::Leaf)
    }

    /// Binds a trainable parameter as a leaf and remembers the binding so that an optimizer
    /// can later collect its gradient.
    pub fn param(&mut self, param: &Param) -> VarId {
        let id = self.push(param.value(), Op::Leaf);
        self.bindings.push((id, param.clone()));
        id
    }

    /// Binds rows `indices` of a trainable table (an embedding lookup) as an
    /// `indices.len() x dim` leaf. Unlike [`Tape::param`] followed by
    /// [`Tape::gather_rows`], the table is neither copied onto the tape nor given a dense
    /// `rows x dim` gradient: the leaf's own gradient together with `indices` (see
    /// [`Tape::row_bindings`]) is what the optimizer scatter-adds.
    pub fn param_rows(&mut self, param: &Param, indices: &[usize]) -> VarId {
        let id = self.push(param.with_value(|t| t.gather_rows(indices)), Op::Leaf);
        self.row_bindings
            .push((id, param.clone(), indices.to_vec()));
        id
    }

    // ---- element-wise and linear-algebra ops -------------------------------------------

    /// Element-wise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Fused product `a * b^T` without materializing the transpose — the shape of the
    /// SimCLR / Barlow Twins similarity matrices and of attention scores. `a` and `b` may
    /// be the same node (e.g. `Z * Z^T`); gradients accumulate through both roles.
    pub fn matmul_transpose_b(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul_transpose_b(self.value(b));
        self.push(v, Op::MatMulTransposeB(a, b))
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Addition of a scalar constant to every element.
    pub fn add_scalar(&mut self, a: VarId, s: f32) -> VarId {
        let v = self.value(a).map(|x| x + s);
        self.push(v, Op::AddScalar(a))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    // ---- activations ---------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Gaussian error linear unit (tanh approximation, vectorized via [`gelu_slice`]).
    pub fn gelu(&mut self, a: VarId) -> VarId {
        let mut v = self.value(a).clone();
        gelu_slice(v.data_mut());
        self.push(v, Op::Gelu(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::exp);
        self.push(v, Op::Exp(a))
    }

    /// Element-wise natural logarithm (inputs are clamped to `1e-12` for stability).
    pub fn ln(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(1e-12).ln());
        self.push(v, Op::Ln(a))
    }

    /// Element-wise square.
    pub fn pow2(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x * x);
        self.push(v, Op::Pow2(a))
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(f32::abs);
        self.push(v, Op::Abs(a))
    }

    // ---- reductions ------------------------------------------------------------------------

    /// Sum of every element, as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(v, Op::SumAll(a))
    }

    /// Mean of every element, as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(v, Op::MeanAll(a))
    }

    /// Mean over rows: `n x d -> 1 x d`.
    pub fn mean_rows(&mut self, a: VarId) -> VarId {
        let v = self.value(a).mean_rows();
        self.push(v, Op::MeanRows(a))
    }

    /// Per-segment mean pooling: the rows of `a` are split into consecutive segments of
    /// `lens[i]` rows and each segment averages into output row `i` (`sum(lens) x d ->
    /// lens.len() x d`). Empty segments produce the zero row. This is the batched
    /// equivalent of one [`Tape::mean_rows`] per item at `O(total * d)` cost — no dense
    /// pooling matrix, no gradient computed for one.
    ///
    /// # Panics
    /// Panics when `lens` does not sum to the row count of `a`.
    pub fn segment_mean_rows(&mut self, a: VarId, lens: &[usize]) -> VarId {
        let av = self.value(a);
        assert_eq!(
            lens.iter().sum::<usize>(),
            av.rows(),
            "segment_mean_rows: segment lengths must sum to the row count"
        );
        let mut out = Matrix::zeros(lens.len(), av.cols());
        let mut offset = 0;
        for (i, &len) in lens.iter().enumerate() {
            if len > 0 {
                let inv = 1.0 / len as f32;
                for t in offset..offset + len {
                    let src = av.row(t);
                    for (o, &v) in out.row_mut(i).iter_mut().zip(src.iter()) {
                        *o += v * inv;
                    }
                }
            }
            offset += len;
        }
        self.push(out, Op::SegmentMeanRows(a, lens.to_vec()))
    }

    // ---- structured / fused ops --------------------------------------------------------------

    /// Row-wise softmax.
    pub fn row_softmax(&mut self, a: VarId) -> VarId {
        let v = row_softmax(self.value(a));
        self.push(v, Op::RowSoftmax(a))
    }

    /// Adds a `1 x d` row vector to every row of an `n x d` matrix.
    pub fn add_row_broadcast(&mut self, x: VarId, bias: VarId) -> VarId {
        let out = self.value(x).add_row_broadcast(self.value(bias));
        self.push(out, Op::AddRowBroadcast(x, bias))
    }

    /// Multiplies every row of an `n x d` matrix element-wise by a `1 x d` row vector.
    pub fn mul_row_broadcast(&mut self, x: VarId, gain: VarId) -> VarId {
        let out = self.value(x).mul_row_broadcast(self.value(gain));
        self.push(out, Op::MulRowBroadcast(x, gain))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let v = Matrix::hstack(&[self.value(a), self.value(b)]);
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Vertical concatenation (stacking `b` below `a`).
    pub fn concat_rows(&mut self, a: VarId, b: VarId) -> VarId {
        let v = Matrix::vstack(&[self.value(a), self.value(b)]);
        self.push(v, Op::ConcatRows(a, b))
    }

    /// Stacks many `1 x d` row vectors into an `n x d` matrix.
    pub fn stack_rows(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "stack_rows: empty input");
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        for m in &mats {
            assert_eq!(m.rows(), 1, "stack_rows: every part must be 1 x d");
        }
        let v = Matrix::vstack(&mats);
        self.push(v, Op::StackRows(parts.to_vec()))
    }

    /// Gathers rows of `a` by index (embedding lookup). Gradients scatter-add.
    pub fn gather_rows(&mut self, a: VarId, indices: &[usize]) -> VarId {
        let v = self.value(a).gather_rows(indices);
        self.push(v, Op::GatherRows(a, indices.to_vec()))
    }

    /// Selects the column range `[start, end)`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let v = self.value(a).slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// Per-row standardization `(x - mean) / sqrt(var + eps)` (the core of LayerNorm).
    pub fn standardize_rows(&mut self, a: VarId, eps: f32) -> VarId {
        let v = standardize_rows(self.value(a), eps);
        self.push(v, Op::StandardizeRows(a, eps))
    }

    /// Per-row L2 normalization.
    pub fn l2_normalize_rows(&mut self, a: VarId) -> VarId {
        let v = self.value(a).l2_normalize_rows();
        self.push(v, Op::L2NormalizeRows(a))
    }

    /// Mean softmax cross-entropy of `logits` (`n x k`) against integer `targets`.
    ///
    /// # Panics
    /// Panics when `targets.len() != logits.rows()` or a target is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: VarId, targets: &[usize]) -> VarId {
        let lm = self.value(logits);
        assert_eq!(
            lm.rows(),
            targets.len(),
            "softmax_cross_entropy: target count mismatch"
        );
        let probs = row_softmax(lm);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(
                t < lm.cols(),
                "softmax_cross_entropy: target {} out of range",
                t
            );
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        let v = Matrix::from_vec(1, 1, vec![loss]);
        self.push(v, Op::SoftmaxCrossEntropy(logits, targets.to_vec()))
    }

    // ---- batched masked attention ops ----------------------------------------------------

    /// Batched multi-head attention scores: `q` and `k` are packed `[batch*seq, dim]`
    /// row-blocks and the result stacks the `seq x seq` tile `scale * Q_bh * K_bh^T` of
    /// every `(sequence, head)` pair into a `[batch*heads*seq, seq]` matrix (tile `(b, h)`
    /// starts at row `(b*heads + h) * seq`). Each tile, and each tile of the backward
    /// products, is one product on [`Matrix::matmul`]'s GEMM tile, so it has the bits of
    /// `matmul` of the sliced operands, `scale` applied to `K` (forward) and `dS`
    /// (backward).
    ///
    /// # Panics
    /// Panics when the shapes of `q` and `k` differ, when their row count is not a
    /// multiple of `seq`, or when their width is not divisible by `heads`.
    pub fn attention_scores(
        &mut self,
        q: VarId,
        k: VarId,
        heads: usize,
        seq: usize,
        scale: f32,
    ) -> VarId {
        let v = attention_scores(self.value(q), self.value(k), heads, seq, scale);
        self.push(
            v,
            Op::AttentionScores {
                q,
                k,
                heads,
                seq,
                scale,
            },
        )
    }

    /// Masked row softmax: softmax over the leading `valid[r]` columns of row `r`, zeros
    /// elsewhere. Equivalent to `row_softmax(x + M)` with an additive mask `M` holding
    /// `-inf` on the padding suffix of each row, without materializing `M` or producing
    /// NaN for fully masked rows (those yield the all-zero row and zero gradient).
    ///
    /// # Panics
    /// Panics when `valid.len()` differs from the row count or a count exceeds the width.
    pub fn masked_row_softmax(&mut self, a: VarId, valid: &[usize]) -> VarId {
        let v = masked_row_softmax(self.value(a), valid);
        self.push(v, Op::MaskedRowSoftmax(a))
    }

    /// Batched attention application: `attn` stacks `[batch*heads*seq, seq]` attention
    /// tiles (the layout produced by [`Tape::attention_scores`]) and `v` is the packed
    /// `[batch*seq, dim]` value block; the result packs `attn_bh * V_bh` of every tile
    /// back into `[batch*seq, dim]`.
    ///
    /// # Panics
    /// Panics when the tile layout of `attn` is inconsistent with `v`, `heads`, and `seq`.
    pub fn attention_context(&mut self, attn: VarId, v: VarId, heads: usize, seq: usize) -> VarId {
        let out = attention_context(self.value(attn), self.value(v), heads, seq);
        self.push(
            out,
            Op::AttentionContext {
                attn,
                v,
                heads,
                seq,
            },
        )
    }

    /// Per-row standardization that is aware of padding rows: rows flagged `true` in
    /// `valid` are standardized exactly like [`Tape::standardize_rows`]; rows flagged
    /// `false` are forced to zero and receive zero gradient.
    ///
    /// # Panics
    /// Panics when `valid.len()` differs from the row count of `a`.
    pub fn masked_standardize_rows(&mut self, a: VarId, eps: f32, valid: &[bool]) -> VarId {
        let v = masked_standardize_rows(self.value(a), eps, valid);
        self.push(v, Op::MaskedStandardizeRows(a, eps, valid.to_vec()))
    }

    /// Padding-aware segment mean pooling: the rows of `a` are fixed-stride `max_len`
    /// blocks of `lens.len()` packed sequences, and output row `b` averages the leading
    /// `lens[b]` rows of block `b` (`[batch*max_len, d] -> [batch, d]`). Padding rows are
    /// excluded from the mean and receive zero gradient; empty sequences pool to the zero
    /// row, matching [`Tape::segment_mean_rows`] on an empty segment.
    ///
    /// # Panics
    /// Panics when `a` does not have `lens.len() * max_len` rows or any `lens[b]` exceeds
    /// `max_len`.
    pub fn padded_segment_mean_rows(&mut self, a: VarId, lens: &[usize], max_len: usize) -> VarId {
        let v = padded_segment_mean_rows(self.value(a), lens, max_len);
        self.push(v, Op::PaddedSegmentMeanRows(a, lens.to_vec(), max_len))
    }

    // ---- backward pass --------------------------------------------------------------------

    /// Propagates gradients from the scalar node `loss` back to every reachable node.
    ///
    /// # Panics
    /// Panics when `loss` is not a `1 x 1` node.
    pub fn backward(&self, loss: VarId) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss node must be a 1x1 scalar"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for id in (0..=loss).rev() {
            let grad = match grads[id].take() {
                Some(g) => g,
                None => continue,
            };
            self.accumulate_parents(id, &grad, &mut grads);
            grads[id] = Some(grad);
        }
        Gradients { grads }
    }

    fn accumulate_parents(&self, id: VarId, grad: &Matrix, grads: &mut [Option<Matrix>]) {
        let node = &self.nodes[id];
        let add_to = |grads: &mut [Option<Matrix>], pid: VarId, delta: Matrix| match &mut grads[pid]
        {
            Some(existing) => existing.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        };
        // In-place accumulation `grads[pid] += s * src`: the common ops (Add, Sub, Scale,
        // broadcasts) reuse the existing gradient buffer instead of allocating per op.
        let add_scaled_to = |grads: &mut [Option<Matrix>], pid: VarId, src: &Matrix, s: f32| {
            match &mut grads[pid] {
                Some(existing) => existing.add_scaled(src, s),
                slot @ None => *slot = Some(if s == 1.0 { src.clone() } else { src.scale(s) }),
            }
        };
        // In-place fused accumulation `grads[pid] += g ⊙ v` (element-wise products).
        let add_hadamard_to = |grads: &mut [Option<Matrix>], pid: VarId, g: &Matrix, v: &Matrix| {
            match &mut grads[pid] {
                Some(existing) => existing.add_hadamard(g, v),
                slot @ None => *slot = Some(g.hadamard(v)),
            }
        };
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                add_scaled_to(grads, *a, grad, 1.0);
                add_scaled_to(grads, *b, grad, 1.0);
            }
            Op::Sub(a, b) => {
                add_scaled_to(grads, *a, grad, 1.0);
                add_scaled_to(grads, *b, grad, -1.0);
            }
            Op::Mul(a, b) => {
                let av = &self.nodes[*a].value;
                let bv = &self.nodes[*b].value;
                add_hadamard_to(grads, *a, grad, bv);
                add_hadamard_to(grads, *b, grad, av);
            }
            Op::MatMul(a, b) => {
                let av = &self.nodes[*a].value;
                let bv = &self.nodes[*b].value;
                // dA = dC * B^T and dB = A^T * dC through the fused kernels — no transpose
                // is materialized.
                add_to(grads, *a, grad.matmul_transpose_b(bv));
                add_to(grads, *b, av.matmul_transpose_a(grad));
            }
            Op::MatMulTransposeB(a, b) => {
                // C = A * B^T: dA = dC * B, dB = dC^T * A.
                let av = &self.nodes[*a].value;
                let bv = &self.nodes[*b].value;
                add_to(grads, *a, grad.matmul(bv));
                add_to(grads, *b, grad.matmul_transpose_a(av));
            }
            Op::Scale(a, s) => add_scaled_to(grads, *a, grad, *s),
            Op::AddScalar(a) => add_scaled_to(grads, *a, grad, 1.0),
            Op::Transpose(a) => add_to(grads, *a, grad.transpose()),
            Op::Relu(a) => {
                let av = &self.nodes[*a].value;
                add_to(
                    grads,
                    *a,
                    grad.zip_map(av, |g, x| if x > 0.0 { g } else { 0.0 }),
                );
            }
            Op::Gelu(a) => {
                let av = &self.nodes[*a].value;
                add_to(grads, *a, grad.zip_map(av, |g, x| g * gelu_grad(x)));
            }
            Op::Tanh(a) => {
                let yv = &node.value;
                add_to(grads, *a, grad.zip_map(yv, |g, y| g * (1.0 - y * y)));
            }
            Op::Sigmoid(a) => {
                let yv = &node.value;
                add_to(grads, *a, grad.zip_map(yv, |g, y| g * y * (1.0 - y)));
            }
            Op::Exp(a) => {
                let yv = &node.value;
                add_hadamard_to(grads, *a, grad, yv);
            }
            Op::Ln(a) => {
                let av = &self.nodes[*a].value;
                add_to(grads, *a, grad.zip_map(av, |g, x| g / x.max(1e-12)));
            }
            Op::Pow2(a) => {
                let av = &self.nodes[*a].value;
                add_to(grads, *a, grad.zip_map(av, |g, x| 2.0 * x * g));
            }
            Op::Abs(a) => {
                let av = &self.nodes[*a].value;
                add_to(
                    grads,
                    *a,
                    grad.zip_map(av, |g, x| if x >= 0.0 { g } else { -g }),
                );
            }
            Op::SumAll(a) => {
                let av = &self.nodes[*a].value;
                let g = grad.get(0, 0);
                add_to(grads, *a, Matrix::full(av.rows(), av.cols(), g));
            }
            Op::MeanAll(a) => {
                let av = &self.nodes[*a].value;
                let g = grad.get(0, 0) / av.len() as f32;
                add_to(grads, *a, Matrix::full(av.rows(), av.cols(), g));
            }
            Op::MeanRows(a) => {
                let av = &self.nodes[*a].value;
                let n = av.rows() as f32;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    for c in 0..av.cols() {
                        out.set(r, c, grad.get(0, c) / n);
                    }
                }
                add_to(grads, *a, out);
            }
            Op::SegmentMeanRows(a, lens) => {
                // Each input row t in segment i receives grad_row(i) / len_i.
                let av = &self.nodes[*a].value;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                let mut offset = 0;
                for (i, &len) in lens.iter().enumerate() {
                    if len > 0 {
                        let inv = 1.0 / len as f32;
                        for t in offset..offset + len {
                            for (o, &g) in out.row_mut(t).iter_mut().zip(grad.row(i).iter()) {
                                *o = g * inv;
                            }
                        }
                    }
                    offset += len;
                }
                add_to(grads, *a, out);
            }
            Op::RowSoftmax(a) => {
                // dx = y * (dy - sum_j dy_j y_j) per row
                let y = &node.value;
                let mut out = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = y
                        .row(r)
                        .iter()
                        .zip(grad.row(r).iter())
                        .map(|(&yy, &gg)| yy * gg)
                        .sum();
                    for c in 0..y.cols() {
                        out.set(r, c, y.get(r, c) * (grad.get(r, c) - dot));
                    }
                }
                add_to(grads, *a, out);
            }
            Op::AddRowBroadcast(x, bias) => {
                add_scaled_to(grads, *x, grad, 1.0);
                let mut bias_grad = Matrix::zeros(1, grad.cols());
                for r in 0..grad.rows() {
                    for c in 0..grad.cols() {
                        let v = bias_grad.get(0, c) + grad.get(r, c);
                        bias_grad.set(0, c, v);
                    }
                }
                add_to(grads, *bias, bias_grad);
            }
            Op::MulRowBroadcast(x, gain) => {
                let xv = &self.nodes[*x].value;
                let gv = &self.nodes[*gain].value;
                let mut x_grad = Matrix::zeros(xv.rows(), xv.cols());
                let mut g_grad = Matrix::zeros(1, xv.cols());
                for r in 0..xv.rows() {
                    for c in 0..xv.cols() {
                        x_grad.set(r, c, grad.get(r, c) * gv.get(0, c));
                        let v = g_grad.get(0, c) + grad.get(r, c) * xv.get(r, c);
                        g_grad.set(0, c, v);
                    }
                }
                add_to(grads, *x, x_grad);
                add_to(grads, *gain, g_grad);
            }
            Op::ConcatCols(a, b) => {
                let a_cols = self.nodes[*a].value.cols();
                add_to(grads, *a, grad.slice_cols(0, a_cols));
                add_to(grads, *b, grad.slice_cols(a_cols, grad.cols()));
            }
            Op::ConcatRows(a, b) => {
                let a_rows = self.nodes[*a].value.rows();
                add_to(grads, *a, grad.slice_rows(0, a_rows));
                add_to(grads, *b, grad.slice_rows(a_rows, grad.rows()));
            }
            Op::StackRows(parents) => {
                for (r, &pid) in parents.iter().enumerate() {
                    add_to(grads, pid, grad.slice_rows(r, r + 1));
                }
            }
            Op::GatherRows(a, indices) => {
                let av = &self.nodes[*a].value;
                let slot = grads[*a].get_or_insert_with(|| Matrix::zeros(av.rows(), av.cols()));
                for (i, &idx) in indices.iter().enumerate() {
                    for (o, &g) in slot.row_mut(idx).iter_mut().zip(grad.row(i)) {
                        *o += g;
                    }
                }
            }
            Op::SliceCols(a, start, end) => {
                let av = &self.nodes[*a].value;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    for (c, col) in (*start..*end).enumerate() {
                        out.set(r, col, grad.get(r, c));
                    }
                }
                add_to(grads, *a, out);
            }
            Op::StandardizeRows(a, eps) => {
                // y = (x - mu) / sigma with sigma = sqrt(var + eps)
                // dx = (dy - mean(dy) - y * mean(dy * y)) / sigma
                let av = &self.nodes[*a].value;
                let y = &node.value;
                let d = av.cols() as f32;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    let mean: f32 = av.row(r).iter().sum::<f32>() / d;
                    let var: f32 = av
                        .row(r)
                        .iter()
                        .map(|x| (x - mean) * (x - mean))
                        .sum::<f32>()
                        / d;
                    let sigma = (var + eps).sqrt();
                    let mean_dy: f32 = grad.row(r).iter().sum::<f32>() / d;
                    let mean_dyy: f32 = grad
                        .row(r)
                        .iter()
                        .zip(y.row(r).iter())
                        .map(|(&g, &yy)| g * yy)
                        .sum::<f32>()
                        / d;
                    for c in 0..av.cols() {
                        let v = (grad.get(r, c) - mean_dy - y.get(r, c) * mean_dyy) / sigma;
                        out.set(r, c, v);
                    }
                }
                add_to(grads, *a, out);
            }
            Op::L2NormalizeRows(a) => {
                // y = x / ||x||; dx = (dy - y * (y . dy)) / ||x||
                let av = &self.nodes[*a].value;
                let y = &node.value;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                for r in 0..av.rows() {
                    let norm: f32 = av.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
                    if norm <= 1e-12 {
                        // The forward pass left the row untouched, so it behaved as identity.
                        for c in 0..av.cols() {
                            out.set(r, c, grad.get(r, c));
                        }
                        continue;
                    }
                    let dot: f32 = y
                        .row(r)
                        .iter()
                        .zip(grad.row(r).iter())
                        .map(|(&yy, &gg)| yy * gg)
                        .sum();
                    for c in 0..av.cols() {
                        out.set(r, c, (grad.get(r, c) - y.get(r, c) * dot) / norm);
                    }
                }
                add_to(grads, *a, out);
            }
            Op::AttentionScores {
                q,
                k,
                heads,
                seq,
                scale,
            } => {
                // S_bh = scale * Q_bh K_bh^T per tile:
                // dQ_bh = (scale * dS_bh) K_bh ; dK_bh = (scale * dS_bh)^T Q_bh.
                let (heads, seq) = (*heads, *seq);
                let qv = &self.nodes[*q].value;
                let kv = &self.nodes[*k].value;
                let head_dim = qv.cols() / heads;
                let mut dq = Matrix::zeros(qv.rows(), qv.cols());
                let mut dk = Matrix::zeros(kv.rows(), kv.cols());
                let mut block = vec![0.0f32; seq * head_dim];
                for (tile, ds) in grad.data().chunks_exact(seq * seq).enumerate() {
                    let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
                    let ds_t = transposed(ds, seq, *scale);
                    let ds: Vec<f32> = ds.iter().map(|&g| g * scale).collect();
                    let keys = head_cols(kv, (row0, c0), (seq, head_dim));
                    keys.multiply_with(seq, |t| &ds[t * seq..(t + 1) * seq], &mut block);
                    put_head(&mut dq, (row0, c0), &block, head_dim);
                    let queries = head_cols(qv, (row0, c0), (seq, head_dim));
                    queries.multiply_with(seq, |s| &ds_t[s * seq..(s + 1) * seq], &mut block);
                    put_head(&mut dk, (row0, c0), &block, head_dim);
                }
                add_to(grads, *q, dq);
                add_to(grads, *k, dk);
            }
            Op::MaskedRowSoftmax(a) => {
                // Identical to the RowSoftmax backward: the masked entries of y are exactly
                // zero, so dx = y * (dy - sum_j dy_j y_j) vanishes on the padding suffix
                // (and on fully masked rows) without any extra masking.
                let y = &node.value;
                let mut out = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = y
                        .row(r)
                        .iter()
                        .zip(grad.row(r).iter())
                        .map(|(&yy, &gg)| yy * gg)
                        .sum();
                    for c in 0..y.cols() {
                        out.set(r, c, y.get(r, c) * (grad.get(r, c) - dot));
                    }
                }
                add_to(grads, *a, out);
            }
            Op::AttentionContext {
                attn,
                v,
                heads,
                seq,
            } => {
                // C_bh = A_bh V_bh per tile: dA_bh = dC_bh V_bh^T ; dV_bh = A_bh^T dC_bh.
                let (heads, seq) = (*heads, *seq);
                let av = &self.nodes[*attn].value;
                let vv = &self.nodes[*v].value;
                let head_dim = vv.cols() / heads;
                let mut da = Matrix::zeros(av.rows(), av.cols());
                let mut dv = Matrix::zeros(vv.rows(), vv.cols());
                let mut block = vec![0.0f32; seq * head_dim];
                let tiles = da.data_mut().chunks_exact_mut(seq * seq);
                for (tile, (da, a)) in tiles.zip(av.data().chunks_exact(seq * seq)).enumerate() {
                    let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
                    let values = head_rows(vv, (row0, c0), (seq, head_dim), 1.0);
                    values.multiply_with(seq, head_slice(grad, (row0, c0), head_dim), da);
                    let a_t = transposed(a, seq, 1.0);
                    let dc = head_cols(grad, (row0, c0), (seq, head_dim));
                    dc.multiply_with(seq, |s| &a_t[s * seq..(s + 1) * seq], &mut block);
                    put_head(&mut dv, (row0, c0), &block, head_dim);
                }
                add_to(grads, *attn, da);
                add_to(grads, *v, dv);
            }
            Op::MaskedStandardizeRows(a, eps, valid) => {
                // Valid rows follow the StandardizeRows backward; padding rows get zero.
                let av = &self.nodes[*a].value;
                let y = &node.value;
                let d = av.cols() as f32;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                for (r, &ok) in valid.iter().enumerate() {
                    if !ok {
                        continue;
                    }
                    let mean: f32 = av.row(r).iter().sum::<f32>() / d;
                    let var: f32 = av
                        .row(r)
                        .iter()
                        .map(|x| (x - mean) * (x - mean))
                        .sum::<f32>()
                        / d;
                    let sigma = (var + eps).sqrt();
                    let mean_dy: f32 = grad.row(r).iter().sum::<f32>() / d;
                    let mean_dyy: f32 = grad
                        .row(r)
                        .iter()
                        .zip(y.row(r).iter())
                        .map(|(&g, &yy)| g * yy)
                        .sum::<f32>()
                        / d;
                    for c in 0..av.cols() {
                        let v = (grad.get(r, c) - mean_dy - y.get(r, c) * mean_dyy) / sigma;
                        out.set(r, c, v);
                    }
                }
                add_to(grads, *a, out);
            }
            Op::PaddedSegmentMeanRows(a, lens, max_len) => {
                // Row t < lens[b] of block b receives grad_row(b) / lens[b]; padding rows
                // receive zero.
                let av = &self.nodes[*a].value;
                let mut out = Matrix::zeros(av.rows(), av.cols());
                for (b, &len) in lens.iter().enumerate() {
                    if len == 0 {
                        continue;
                    }
                    let inv = 1.0 / len as f32;
                    for t in 0..len {
                        for (o, &g) in out
                            .row_mut(b * max_len + t)
                            .iter_mut()
                            .zip(grad.row(b).iter())
                        {
                            *o = g * inv;
                        }
                    }
                }
                add_to(grads, *a, out);
            }
            Op::SoftmaxCrossEntropy(logits, targets) => {
                let lv = &self.nodes[*logits].value;
                let probs = row_softmax(lv);
                let n = targets.len() as f32;
                let upstream = grad.get(0, 0);
                let mut out = probs;
                for (r, &t) in targets.iter().enumerate() {
                    let v = out.get(r, t) - 1.0;
                    out.set(r, t, v);
                }
                add_to(grads, *logits, out.scale(upstream / n));
            }
        }
    }
}

/// Fast hyperbolic tangent: the `tanh(7,6)` Padé approximant, clamped to `±1` where the
/// rational form leaves `(-1, 1)`. Accurate to ~`1e-6` for `|x| < 4` and ~`2e-4` at the
/// clamp boundary — far inside every tolerance used here — and roughly an order of
/// magnitude faster than libm `tanh`, which dominated the encoder forward pass through
/// GELU before this existed.
pub fn fast_tanh(x: f32) -> f32 {
    // Branchless: clamping the input pins the rational form to ±(1 - 3e-7) beyond the
    // saturation point, and lets the surrounding element-wise loops auto-vectorize.
    let x = x.clamp(-4.97, 4.97);
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    p / q
}

/// Fast `e^x` for non-positive inputs (the shifted arguments of a stable softmax):
/// splits `x` into `2^n * 2^f`, reconstructs `2^n` through the exponent bits, and
/// evaluates `2^f` with a degree-5 polynomial. Relative error ~`1e-6`.
fn fast_exp_neg(x: f32) -> f32 {
    debug_assert!(x <= 1e-6, "fast_exp_neg: positive input {x}");
    // Branchless clamp: inputs below -87 underflow to ~2^-125 ≈ 0 instead of branching.
    let x = x.max(-87.0);
    let z = x * std::f32::consts::LOG2_E;
    let zf = z.floor();
    let f = z - zf;
    // Degree-5 minimax fit of 2^f on [0, 1).
    let p = 1.000_000_0
        + f * (0.693_146_06
            + f * (0.240_229_45 + f * (0.055_503_93 + f * (0.009_671_057 + f * 0.001_341_016_4))));
    f32::from_bits(((zf as i32 + 127) << 23) as u32) * p
}

/// GELU activation (tanh approximation, evaluated with [`fast_tanh`]).
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + fast_tanh(C * (x + 0.044715 * x * x * x)))
}

/// Applies [`gelu`] to a slice in place. The element math is branchless, so under the
/// AVX2 code path the whole loop vectorizes (8-wide rational evaluation + `vdivps`) —
/// roughly 4x the baseline-ISA scalar loop. This is the activation map of every batched
/// feed-forward pass.
pub fn gelu_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if Arm::current() >= Arm::Avx2 {
        // SAFETY: every arm from `Avx2` up has AVX2 and FMA, and `Arm::current` only
        // returns arms this CPU supports.
        unsafe { gelu_slice_avx2(xs) };
        return;
    }
    for v in xs.iter_mut() {
        *v = gelu(*v);
    }
}

/// [`gelu`] over a slice, compiled for AVX2 + FMA so LLVM can vectorize it. Rust never
/// contracts `a * b + c` into a fused multiply-add, so every element has the bits of
/// the scalar expression (`tests::vector_maps_have_the_bits_of_their_scalar_expression`).
///
/// # Safety
/// The CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gelu_slice_avx2(xs: &mut [f32]) {
    for v in xs.iter_mut() {
        *v = gelu(*v);
    }
}

/// Derivative of the GELU tanh approximation (same [`fast_tanh`] as the forward pass, so
/// analytic and finite-difference gradients stay consistent).
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = fast_tanh(u);
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable row-wise softmax over a plain matrix.
pub fn row_softmax(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Forward pass of [`Tape::attention_scores`]: stacks the `seq x seq` tile
/// `scale * Q_bh * K_bh^T` of every `(sequence, head)` pair of the packed `[batch*seq,
/// dim]` inputs into a `[batch*heads*seq, seq]` matrix. Shared by the tape op and the
/// tape-free inference path so the two cannot drift.
///
/// # Panics
/// Panics on inconsistent packing (see [`Tape::attention_scores`]).
pub fn attention_scores(q: &Matrix, k: &Matrix, heads: usize, seq: usize, scale: f32) -> Matrix {
    assert_eq!(q.shape(), k.shape(), "attention_scores: Q/K shape mismatch");
    assert!(seq > 0, "attention_scores: seq must be positive");
    assert!(
        q.rows().is_multiple_of(seq),
        "attention_scores: rows must be a multiple of seq"
    );
    assert!(
        heads > 0 && q.cols().is_multiple_of(heads),
        "attention_scores: width must be divisible by heads"
    );
    let batch = q.rows() / seq;
    let head_dim = q.cols() / heads;
    let mut out = Matrix::zeros(batch * heads * seq, seq);
    for (tile, dst) in out.data_mut().chunks_exact_mut(seq * seq).enumerate() {
        let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
        let keys = head_rows(k, (row0, c0), (seq, head_dim), scale);
        keys.multiply_with(seq, head_slice(q, (row0, c0), head_dim), dst);
    }
    out
}

/// `scale` times the `rows x head_dim` block of `m` at `(row0, c0)` — one head's slice of
/// a packed row block — as the right operand of `A * B^T`, so the product against it
/// has the bits of `a.matmul(&block.scale(scale).transpose())`.
fn head_rows(
    m: &Matrix,
    (row0, c0): (usize, usize),
    (rows, head_dim): (usize, usize),
    scale: f32,
) -> PackedTranspose {
    PackedTranspose::from_fn(rows, head_dim, |j, kk| scale * m.row(row0 + j)[c0 + kk])
}

/// The transpose of the `rows x head_dim` block of `m` at `(row0, c0)` as the right
/// operand of `A * B^T`, so the product against it has the bits of `a.matmul(&block)`.
fn head_cols(
    m: &Matrix,
    (row0, c0): (usize, usize),
    (rows, head_dim): (usize, usize),
) -> PackedTranspose {
    PackedTranspose::from_fn(head_dim, rows, |j, kk| m.row(row0 + kk)[c0 + j])
}

/// Row `t` of the `head_dim`-wide head slice of `m` at `(row0, c0)`.
fn head_slice<'a>(
    m: &'a Matrix,
    (row0, c0): (usize, usize),
    head_dim: usize,
) -> impl Fn(usize) -> &'a [f32] + Sync {
    move |t| &m.row(row0 + t)[c0..c0 + head_dim]
}

/// Copies the row-major `rows x head_dim` `block` into the head slice of `m` at
/// `(row0, c0)`.
fn put_head(m: &mut Matrix, (row0, c0): (usize, usize), block: &[f32], head_dim: usize) {
    for (t, src) in block.chunks_exact(head_dim).enumerate() {
        m.row_mut(row0 + t)[c0..c0 + head_dim].copy_from_slice(src);
    }
}

/// The transpose of the row-major `n x n` `block`, each entry times `scale`.
fn transposed(block: &[f32], n: usize, scale: f32) -> Vec<f32> {
    let mut out = vec![0.0; n * n];
    for (t, row) in block.chunks_exact(n).enumerate() {
        for (s, &x) in row.iter().enumerate() {
            out[s * n + t] = scale * x;
        }
    }
    out
}

/// Forward pass of [`Tape::masked_row_softmax`]: numerically stable softmax over the
/// leading `valid[r]` columns of each row, zeros elsewhere (fully masked rows yield the
/// zero row instead of NaN).
///
/// # Panics
/// Panics when `valid.len() != x.rows()` or a count exceeds the width.
pub fn masked_row_softmax(x: &Matrix, valid: &[usize]) -> Matrix {
    assert_eq!(
        valid.len(),
        x.rows(),
        "masked_row_softmax: one valid count per row required"
    );
    let arm = Arm::current();
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for (r, &n) in valid.iter().enumerate() {
        assert!(
            n <= x.cols(),
            "masked_row_softmax: valid count {} exceeds width {}",
            n,
            x.cols()
        );
        if n == 0 {
            continue;
        }
        let dst = &mut out.row_mut(r)[..n];
        dst.copy_from_slice(&x.row(r)[..n]);
        softmax_in_place(arm, dst);
    }
    out
}

/// Fused tape-free masked multi-head attention: scores, masked softmax, and context of
/// every `(sequence, head)` tile in one pass over its valid keys, reusing one score tile
/// instead of the two `[batch*heads*seq, seq]` intermediates the tape path must keep
/// for backward. `valid[b]` is the number of real keys of sequence `b` (its leading
/// rows); query rows of an empty sequence produce zero rows. This is what
/// [`crate::layers::MultiHeadSelfAttention::infer_batch`] runs. Both products are the
/// GEMM tile's, so every valid row has the bits of the composed helpers
/// ([`attention_scores`] → [`masked_row_softmax`] → [`attention_context`]), whose
/// padding keys only add zero-weighted terms after the valid ones.
///
/// # Panics
/// Panics on inconsistent packing, mirroring [`attention_scores`] /
/// [`attention_context`].
pub fn masked_attention_infer(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    seq: usize,
    scale: f32,
    valid: &[usize],
) -> Matrix {
    assert_eq!(q.shape(), k.shape(), "masked_attention_infer: Q/K mismatch");
    assert_eq!(q.shape(), v.shape(), "masked_attention_infer: Q/V mismatch");
    let dim = q.cols();
    assert!(seq > 0, "masked_attention_infer: seq must be positive");
    assert!(
        q.rows().is_multiple_of(seq),
        "masked_attention_infer: rows must be a multiple of seq"
    );
    assert!(
        heads > 0 && dim.is_multiple_of(heads),
        "masked_attention_infer: width must be divisible by heads"
    );
    let batch = q.rows() / seq;
    assert_eq!(
        valid.len(),
        batch,
        "masked_attention_infer: one valid-key count per sequence required"
    );
    let head_dim = dim / heads;
    let arm = Arm::current();
    let mut out = Matrix::zeros(q.rows(), dim);
    let (mut scores, mut context) = (Vec::new(), vec![0.0f32; seq * head_dim]);
    for (b, &count) in valid.iter().enumerate() {
        let n = count.min(seq);
        if n == 0 {
            continue;
        }
        let row0 = b * seq;
        scores.resize(seq * n, 0.0);
        for c0 in (0..dim).step_by(head_dim) {
            let keys = head_rows(k, (row0, c0), (n, head_dim), scale);
            keys.multiply_with(seq, head_slice(q, (row0, c0), head_dim), &mut scores);
            for row in scores.chunks_exact_mut(n) {
                softmax_in_place(arm, row);
            }
            let values = head_cols(v, (row0, c0), (n, head_dim));
            values.multiply_with(seq, |t| &scores[t * n..(t + 1) * n], &mut context);
            put_head(&mut out, (row0, c0), &context, head_dim);
        }
    }
    out
}

/// In-place stable softmax over a score row, using the fast exponential — the shifted
/// arguments are never positive by construction.
fn softmax_in_place(arm: Arm, row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    exp_shift(arm, row, max);
    normalize_in_place(row);
}

/// `row[i] = fast_exp_neg(row[i] - max)` on `arm`.
fn exp_shift(arm: Arm, row: &mut [f32], max: f32) {
    assert!(arm <= Arm::detected());
    #[cfg(target_arch = "x86_64")]
    if arm >= Arm::Avx2 {
        // SAFETY: every arm from `Avx2` up has AVX2 and FMA, and the caller's arm is
        // one this CPU supports (asserted above).
        unsafe { exp_shift_avx2(row, max) };
        return;
    }
    for v in row.iter_mut() {
        *v = fast_exp_neg(*v - max);
    }
}

/// [`exp_shift`] compiled for AVX2 + FMA, so LLVM vectorizes the branchless exponential
/// (clamp, `vroundps`, polynomial, exponent-bit reconstruction) with the scalar bits.
///
/// # Safety
/// The CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp_shift_avx2(row: &mut [f32], max: f32) {
    for v in row.iter_mut() {
        *v = fast_exp_neg(*v - max);
    }
}

/// Divides a row of non-negative weights by their sum.
fn normalize_in_place(row: &mut [f32]) {
    let sum: f32 = row.iter().sum();
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Forward pass of [`Tape::attention_context`]: applies the `[batch*heads*seq, seq]`
/// attention tile stack to the packed `[batch*seq, dim]` values, producing the packed
/// `[batch*seq, dim]` context.
///
/// # Panics
/// Panics on inconsistent packing (see [`Tape::attention_context`]).
pub fn attention_context(attn: &Matrix, v: &Matrix, heads: usize, seq: usize) -> Matrix {
    assert!(seq > 0, "attention_context: seq must be positive");
    assert!(
        v.rows().is_multiple_of(seq),
        "attention_context: value rows must be a multiple of seq"
    );
    assert!(
        heads > 0 && v.cols().is_multiple_of(heads),
        "attention_context: width must be divisible by heads"
    );
    let batch = v.rows() / seq;
    assert_eq!(
        attn.shape(),
        (batch * heads * seq, seq),
        "attention_context: attention tile stack has the wrong shape"
    );
    let head_dim = v.cols() / heads;
    let mut out = Matrix::zeros(v.rows(), v.cols());
    let mut context = vec![0.0f32; seq * head_dim];
    for tile in 0..batch * heads {
        let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
        let values = head_cols(v, (row0, c0), (seq, head_dim));
        values.multiply_with(seq, |t| attn.row(tile * seq + t), &mut context);
        put_head(&mut out, (row0, c0), &context, head_dim);
    }
    out
}

/// Forward pass of [`Tape::masked_standardize_rows`]: standardizes rows flagged `true`
/// and forces rows flagged `false` to zero.
///
/// # Panics
/// Panics when `valid.len() != x.rows()`.
pub fn masked_standardize_rows(x: &Matrix, eps: f32, valid: &[bool]) -> Matrix {
    assert_eq!(
        valid.len(),
        x.rows(),
        "masked_standardize_rows: one flag per row required"
    );
    let d = x.cols() as f32;
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for (r, &ok) in valid.iter().enumerate() {
        if !ok {
            continue;
        }
        let src = x.row(r);
        let mean: f32 = src.iter().sum::<f32>() / d;
        let var: f32 = src.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
        let sigma = (var + eps).sqrt();
        for (o, &v) in out.row_mut(r).iter_mut().zip(src.iter()) {
            *o = (v - mean) / sigma;
        }
    }
    out
}

/// Forward pass of [`Tape::padded_segment_mean_rows`]: averages the leading `lens[b]`
/// rows of every fixed-stride `max_len` block (`[batch*max_len, d] -> [batch, d]`);
/// empty sequences pool to the zero row.
///
/// # Panics
/// Panics on inconsistent packing (see [`Tape::padded_segment_mean_rows`]).
pub fn padded_segment_mean_rows(x: &Matrix, lens: &[usize], max_len: usize) -> Matrix {
    assert_eq!(
        x.rows(),
        lens.len() * max_len,
        "padded_segment_mean_rows: expected {} blocks of {} rows",
        lens.len(),
        max_len
    );
    let mut out = Matrix::zeros(lens.len(), x.cols());
    for (b, &len) in lens.iter().enumerate() {
        assert!(
            len <= max_len,
            "padded_segment_mean_rows: length {len} exceeds the block stride {max_len}"
        );
        if len == 0 {
            continue;
        }
        let inv = 1.0 / len as f32;
        for t in 0..len {
            let src = x.row(b * max_len + t);
            for (o, &v) in out.row_mut(b).iter_mut().zip(src.iter()) {
                *o += v * inv;
            }
        }
    }
    out
}

/// Per-row standardization used by LayerNorm.
pub fn standardize_rows(x: &Matrix, eps: f32) -> Matrix {
    let d = x.cols() as f32;
    let mut out = x.clone();
    for r in 0..out.rows() {
        let mean: f32 = out.row(r).iter().sum::<f32>() / d;
        let var: f32 = out
            .row(r)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / d;
        let sigma = (var + eps).sqrt();
        for v in out.row_mut(r) {
            *v = (*v - mean) / sigma;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::for_each_supported_arm;

    #[test]
    fn vector_maps_have_the_bits_of_their_scalar_expression() {
        // `gelu_slice_avx2` and `exp_shift_avx2` are the scalar expressions compiled for
        // AVX2 + FMA. Rust never contracts `a * b + c` into a fused multiply-add, so the
        // vectorized loops must return the scalar bits — over a dense sweep, the clamp
        // boundaries and the IEEE specials.
        let mut xs: Vec<f32> = (-2000..=2000).map(|i| i as f32 / 100.0).collect();
        xs.extend([
            0.0,
            -0.0,
            4.97,
            -4.97,
            1e-30,
            -1e-30,
            f32::MIN_POSITIVE,
            87.0,
            -87.0,
            -100.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for_each_supported_arm(|arm| {
            let mut got = xs.clone();
            gelu_slice(&mut got);
            for (&x, &y) in xs.iter().zip(&got) {
                assert!(same(y, gelu(x)), "gelu({x}) is {y} [{arm:?}]");
            }
            let finite: Vec<f32> = xs.iter().copied().filter(|x| x.is_finite()).collect();
            let max = finite.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut got = finite.clone();
            exp_shift(arm, &mut got, max);
            for (&x, &y) in finite.iter().zip(&got) {
                assert!(
                    same(y, fast_exp_neg(x - max)),
                    "exp({x} - {max}) is {y} [{arm:?}]"
                );
            }
        });
    }

    fn scalar_tape(f: impl Fn(&mut Tape, VarId) -> VarId, x: Matrix) -> (f32, Matrix) {
        let mut tape = Tape::new();
        let input = tape.constant(x.clone());
        let out = f(&mut tape, input);
        let loss = if tape.value(out).shape() == (1, 1) {
            out
        } else {
            tape.sum_all(out)
        };
        let grads = tape.backward(loss);
        (
            tape.scalar(loss),
            grads.get_or_zeros(input, x.rows(), x.cols()),
        )
    }

    #[test]
    fn add_and_scale_gradients() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let (loss, grad) = scalar_tape(|t, x| t.scale(x, 3.0), x);
        assert!((loss - 30.0).abs() < 1e-5);
        assert!(grad.approx_eq(&Matrix::full(2, 2, 3.0), 1e-6));
    }

    #[test]
    fn matmul_gradients_match_formula() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 1.5]]);
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let c = tape.matmul(av, bv);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        // dL/dA = ones * B^T ; dL/dB = A^T * ones
        let ones = Matrix::full(2, 2, 1.0);
        assert!(grads
            .get(av)
            .unwrap()
            .approx_eq(&ones.matmul(&b.transpose()), 1e-5));
        assert!(grads
            .get(bv)
            .unwrap()
            .approx_eq(&a.transpose().matmul(&ones), 1e-5));
    }

    #[test]
    fn fused_transpose_matmul_gradients_match_explicit_graph() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![0.5, -1.0]]);
        let b = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 1.5]]);

        // Fused: C = A * B^T.
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let c = tape.matmul_transpose_b(av, bv);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);

        // Explicit: C = A * transpose(B).
        let mut ref_tape = Tape::new();
        let ar = ref_tape.constant(a);
        let br = ref_tape.constant(b);
        let bt = ref_tape.transpose(br);
        let cr = ref_tape.matmul(ar, bt);
        let ref_loss = ref_tape.sum_all(cr);
        let ref_grads = ref_tape.backward(ref_loss);

        assert!(tape.value(c).approx_eq(ref_tape.value(cr), 1e-5));
        assert!(grads
            .get(av)
            .unwrap()
            .approx_eq(ref_grads.get(ar).unwrap(), 1e-5));
        assert!(grads
            .get(bv)
            .unwrap()
            .approx_eq(ref_grads.get(br).unwrap(), 1e-5));
    }

    #[test]
    fn fused_transpose_matmul_accumulates_self_similarity_gradient() {
        // C = Z * Z^T with the same node in both roles: gradient must combine both paths.
        let z = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let mut tape = Tape::new();
        let zv = tape.constant(z.clone());
        let c = tape.matmul_transpose_b(zv, zv);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        // d sum(Z Z^T) / dZ = (J + J^T) Z where J is all-ones -> 2 * colsum broadcast.
        let ones = Matrix::full(2, 2, 1.0);
        let expected = ones.matmul(&z).scale(2.0);
        assert!(grads.get(zv).unwrap().approx_eq(&expected, 1e-5));
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let x = Matrix::from_rows(&[vec![-1.0, 2.0]]);
        let (_, grad) = scalar_tape(|t, x| t.relu(x), x);
        assert_eq!(grad.data(), &[0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = row_softmax(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_cross_entropy_gradient_is_probs_minus_onehot() {
        let logits = Matrix::from_rows(&[vec![2.0, 0.5, -1.0]]);
        let mut tape = Tape::new();
        let lv = tape.constant(logits.clone());
        let loss = tape.softmax_cross_entropy(lv, &[0]);
        let grads = tape.backward(loss);
        let p = row_softmax(&logits);
        let expected = Matrix::from_rows(&[vec![p.get(0, 0) - 1.0, p.get(0, 1), p.get(0, 2)]]);
        assert!(grads.get(lv).unwrap().approx_eq(&expected, 1e-5));
    }

    #[test]
    fn standardize_rows_has_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        let y = standardize_rows(&x, 1e-5);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row(0).iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn l2_normalize_rows_gradient_is_tangent() {
        // Gradient of sum(y) wrt x must be orthogonal to y (projection removes radial part).
        let x = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = tape.l2_normalize_rows(xv);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let g = grads.get(xv).unwrap();
        let yv = x.l2_normalize_rows();
        let dot: f32 = g.row(0).iter().zip(yv.row(0)).map(|(a, b)| a * b).sum();
        assert!(dot.abs() < 1e-5);
    }

    #[test]
    fn segment_mean_rows_matches_per_segment_mean_rows() {
        // Forward and gradient must agree with slicing + mean_rows per segment (the
        // per-row pooling the batched op replaces), including an empty segment.
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![-1.0, 0.5],
        ]);
        let lens = [2usize, 0, 1, 1];

        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let pooled = tape.segment_mean_rows(xv, &lens);
        assert_eq!(tape.value(pooled).shape(), (4, 2));
        assert_eq!(tape.value(pooled).row(0), &[2.0, 3.0]);
        assert_eq!(tape.value(pooled).row(1), &[0.0, 0.0]); // empty segment
        assert_eq!(tape.value(pooled).row(2), &[5.0, 6.0]);
        let sq = tape.pow2(pooled);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let g = grads.get(xv).unwrap();
        // d/dx sum((mean)^2): row t in segment i gets 2 * mean_i / len_i.
        assert!((g.row(0)[0] - 2.0).abs() < 1e-6 && (g.row(0)[1] - 3.0).abs() < 1e-6);
        assert_eq!(g.row(2), &[10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "segment lengths must sum")]
    fn segment_mean_rows_rejects_bad_lengths() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(3, 2));
        let _ = tape.segment_mean_rows(x, &[2, 2]);
    }

    #[test]
    fn gather_rows_scatter_adds_gradient() {
        let table = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let mut tape = Tape::new();
        let t = tape.constant(table);
        let g = tape.gather_rows(t, &[1, 1, 2]);
        let loss = tape.sum_all(g);
        let grads = tape.backward(loss);
        let expected = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 2.0], vec![1.0, 1.0]]);
        assert!(grads.get(t).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn stack_rows_routes_gradients_to_parts() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::row_vector(&[1.0, 2.0]));
        let b = tape.constant(Matrix::row_vector(&[3.0, 4.0]));
        let stacked = tape.stack_rows(&[a, b]);
        let scaled = tape.scale(stacked, 2.0);
        let loss = tape.sum_all(scaled);
        let grads = tape.backward(loss);
        assert!(grads
            .get(a)
            .unwrap()
            .approx_eq(&Matrix::row_vector(&[2.0, 2.0]), 1e-6));
        assert!(grads
            .get(b)
            .unwrap()
            .approx_eq(&Matrix::row_vector(&[2.0, 2.0]), 1e-6));
    }

    #[test]
    fn unreachable_nodes_have_no_gradient() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::row_vector(&[1.0]));
        let b = tape.constant(Matrix::row_vector(&[5.0]));
        let loss = tape.sum_all(a);
        let grads = tape.backward(loss);
        assert!(grads.get(b).is_none());
        assert!(grads.get(a).is_some());
    }

    #[test]
    fn param_binding_is_recorded() {
        let p = Param::new("w", Matrix::row_vector(&[2.0]));
        let mut tape = Tape::new();
        let pv = tape.param(&p);
        let loss = tape.sum_all(pv);
        assert_eq!(tape.bindings().len(), 1);
        let grads = tape.backward(loss);
        assert!(grads.get(pv).is_some());
    }

    #[test]
    #[should_panic(expected = "loss node must be a 1x1 scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::zeros(2, 2));
        let _ = tape.backward(a);
    }
}
