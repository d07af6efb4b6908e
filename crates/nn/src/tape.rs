//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records every operation of a forward pass as a node in a flat, topologically
//! ordered vector. Calling [`Tape::backward`] seeds the gradient of a scalar (`1 x 1`) loss
//! node and propagates gradients to every reachable node, returning a [`Gradients`] table.
//!
//! The op set is intentionally small and matched to what the Sudowoodo models need:
//! dense layers, layer normalization, multi-head attention, the SimCLR contrastive loss,
//! the Barlow Twins redundancy-regularization loss, and the pairwise fine-tuning head.
//! Fused ops (`L2NormalizeRows`, `SoftmaxCrossEntropy`, the padding-aware
//! `MaskedStandardizeRows`, `SegmentMeanRows` over explicit row ranges, and the batched
//! attention pair `AttentionScores` / `AttentionContext` around a `RowSoftmax` that may
//! mask each row's suffix) keep graphs small and their hand-written backward passes are
//! validated against finite differences by the property tests in
//! `tests/gradcheck_props.rs` and the checks in [`crate::gradcheck`].
//!
//! A tape keeps its buffers. Every node value, gradient and large backward temporary
//! is drawn from the tape's pool, and a reset hands them all back, so a tape
//! reused for one training step after another ([`crate::optim::Trainer`]) stops going
//! to the system allocator for them once it has seen its largest step.

use crate::matrix::{Arm, Matrix, PackedTranspose};
use crate::param::Param;
use crate::pool::{self, Pool};

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
    Transpose(VarId),
    Gelu(VarId),
    Pow2(VarId),
    Abs(VarId),
    SumAll(VarId),
    MeanAll(VarId),
    /// Row softmax, plain ([`Tape::row_softmax`]) or over a valid prefix of each row
    /// ([`Tape::masked_row_softmax`]). The backward needs just the output, whose masked
    /// entries are already zero, so one arm serves both forwards.
    RowSoftmax(VarId),
    /// `x (n x d)` + `b (1 x d)` broadcast over rows.
    AddRowBroadcast(VarId, VarId),
    /// `x (n x d)` * `g (1 x d)` broadcast over rows.
    MulRowBroadcast(VarId, VarId),
    ConcatCols(VarId, VarId),
    /// The rows of each part in turn.
    ConcatRows(Vec<VarId>),
    /// Gather rows of the parent by index (embedding lookup). Gradient scatter-adds.
    GatherRows(VarId, Vec<usize>),
    SliceCols(VarId, usize, usize),
    /// Mean over rows: `n x d -> 1 x d`.
    MeanRows(VarId),
    /// Per-segment mean over `(start, len)` row ranges: each range pools to one output
    /// row (batched mean pooling); rows outside every range are ignored and empty ranges
    /// pool to the zero row.
    SegmentMeanRows(VarId, Vec<(usize, usize)>),
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
    /// Per-row standardization `(x - mean) / sqrt(var + eps)` (the LayerNorm core) that
    /// skips padding rows: rows flagged `false` are forced to zero in the forward pass
    /// and receive zero gradient.
    MaskedStandardizeRows(VarId, f32, Vec<bool>),
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

/// The autodiff tape. Create one per forward/backward pass; a
/// [`Trainer`](crate::optim::Trainer) keeps one and resets it between steps, reusing its
/// buffers.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// `(leaf node, parameter)` bindings recorded by [`Tape::param`].
    bindings: Vec<(VarId, Param)>,
    /// `(leaf node, parameter, gathered rows)` bindings recorded by [`Tape::param_rows`].
    row_bindings: Vec<(VarId, Param, Vec<usize>)>,
    pool: Pool,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Forgets every node and binding and keeps their buffers for the next pass. The
    /// pool then holds exactly the buffers the pass just ended used: one it left idle
    /// is freed here.
    pub(crate) fn reset(&mut self) {
        let values = self.nodes.drain(..).map(|node| node.value.into_data());
        self.pool.give_all(values);
        self.bindings.clear();
        self.row_bindings.clear();
        self.pool.end_pass(false);
    }

    /// Hands the buffers of `grads` back to the tape.
    pub(crate) fn recycle(&mut self, grads: Gradients) {
        let grads = grads.grads.into_iter().flatten();
        self.pool.give_all(grads.map(Matrix::into_data));
    }

    /// A zeroed `rows x cols` matrix on one of the tape's buffers: the way to build a
    /// large constant the caller fills and then records with [`Tape::constant`].
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.zeros((rows, cols))
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
        let value = param.with_value(|v| self.pool.copy(v));
        let id = self.push(value, Op::Leaf);
        self.bindings.push((id, param.clone()));
        id
    }

    /// Binds rows `indices` of a trainable table (an embedding lookup) as an
    /// `indices.len() x dim` leaf. Unlike [`Tape::param`] followed by
    /// [`Tape::gather_rows`], the table is neither copied onto the tape nor given a dense
    /// `rows x dim` gradient: the leaf's own gradient together with `indices` (see
    /// [`Tape::row_bindings`]) is what the optimizer scatter-adds.
    pub fn param_rows(&mut self, param: &Param, indices: &[usize]) -> VarId {
        let value = param.with_value(|t| self.pool.gather(t, indices));
        let id = self.push(value, Op::Leaf);
        self.row_bindings
            .push((id, param.clone(), indices.to_vec()));
        id
    }

    // ---- element-wise and linear-algebra ops -------------------------------------------

    /// Element-wise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self
            .pool
            .zip(&self.nodes[a].value, &self.nodes[b].value, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self
            .pool
            .zip(&self.nodes[a].value, &self.nodes[b].value, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self
            .pool
            .zip(&self.nodes[a].value, &self.nodes[b].value, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self
            .pool
            .product(&self.nodes[a].value, &self.nodes[b].value);
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
        let v = self.pool.map(&self.nodes[a].value, |x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let v = self
            .pool
            .filled((av.cols(), av.rows()), |out| av.transpose_into(out));
        self.push(v, Op::Transpose(a))
    }

    // ---- activations ---------------------------------------------------------------------

    /// Gaussian error linear unit (tanh approximation, vectorized via [`gelu_slice`]).
    pub fn gelu(&mut self, a: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let v = self.pool.filled(av.shape(), |out| {
            out.copy_from_slice(av.data());
            gelu_slice(out);
        });
        self.push(v, Op::Gelu(a))
    }

    /// Element-wise square.
    pub fn pow2(&mut self, a: VarId) -> VarId {
        let v = self.pool.map(&self.nodes[a].value, |x| x * x);
        self.push(v, Op::Pow2(a))
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, a: VarId) -> VarId {
        let v = self.pool.map(&self.nodes[a].value, f32::abs);
        self.push(v, Op::Abs(a))
    }

    // ---- reductions ------------------------------------------------------------------------

    /// Sum of every element, as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let sum = self.value(a).sum();
        let v = self.pool.filled((1, 1), |out| out[0] = sum);
        self.push(v, Op::SumAll(a))
    }

    /// Mean of every element, as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let mean = self.value(a).mean();
        let v = self.pool.filled((1, 1), |out| out[0] = mean);
        self.push(v, Op::MeanAll(a))
    }

    /// Mean over rows: `n x d -> 1 x d`.
    pub fn mean_rows(&mut self, a: VarId) -> VarId {
        let v = self.value(a).mean_rows();
        self.push(v, Op::MeanRows(a))
    }

    /// Per-segment mean pooling: output row `i` averages the `len` rows of `a` from
    /// `start`, for `ranges[i] = (start, len)`; rows outside every range are ignored and
    /// receive zero gradient, and an empty range pools to the zero row. Consecutive
    /// ranges pool ragged items laid end to end, ranges at a fixed stride pool padded
    /// blocks ([`crate::layers::padded_ranges`]). This is the batched equivalent of one
    /// [`Tape::mean_rows`] per item at `O(total * d)` cost — no dense pooling matrix, no
    /// gradient computed for one.
    ///
    /// # Panics
    /// Panics when a range starts before the previous one ends or runs past the last row.
    pub fn segment_mean_rows(&mut self, a: VarId, ranges: &[(usize, usize)]) -> VarId {
        let v = segment_mean_rows(self.value(a), ranges);
        self.push(v, Op::SegmentMeanRows(a, ranges.to_vec()))
    }

    // ---- structured / fused ops --------------------------------------------------------------

    /// Row-wise softmax.
    pub fn row_softmax(&mut self, a: VarId) -> VarId {
        let v = row_softmax(self.value(a));
        self.push(v, Op::RowSoftmax(a))
    }

    /// Adds a `1 x d` row vector to every row of an `n x d` matrix.
    pub fn add_row_broadcast(&mut self, x: VarId, bias: VarId) -> VarId {
        let mut out = self.pool.copy(&self.nodes[x].value);
        out.add_row_broadcast_mut(&self.nodes[bias].value);
        self.push(out, Op::AddRowBroadcast(x, bias))
    }

    /// Multiplies every row of an `n x d` matrix element-wise by a `1 x d` row vector.
    pub fn mul_row_broadcast(&mut self, x: VarId, gain: VarId) -> VarId {
        let mut out = self.pool.copy(&self.nodes[x].value);
        out.mul_row_broadcast_mut(&self.nodes[gain].value);
        self.push(out, Op::MulRowBroadcast(x, gain))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let v = Matrix::hstack(&[self.value(a), self.value(b)]);
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Vertical concatenation: the rows of each of `parts` in turn.
    ///
    /// # Panics
    /// Panics when `parts` is empty or the parts differ in width.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::vstack(&mats);
        self.push(v, Op::ConcatRows(parts.to_vec()))
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
        let (qv, kv) = (&self.nodes[q].value, &self.nodes[k].value);
        let shape = attention_scores_shape(qv, kv, heads, seq);
        let v = self.pool.filled(shape, |out| {
            attention_scores_into(qv, kv, heads, seq, scale, out);
        });
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
        let av = &self.nodes[a].value;
        let v = self
            .pool
            .filled(av.shape(), |out| masked_row_softmax_into(av, valid, out));
        self.push(v, Op::RowSoftmax(a))
    }

    /// Batched attention application: `attn` stacks `[batch*heads*seq, seq]` attention
    /// tiles (the layout produced by [`Tape::attention_scores`]) and `v` is the packed
    /// `[batch*seq, dim]` value block; the result packs `attn_bh * V_bh` of every tile
    /// back into `[batch*seq, dim]`.
    ///
    /// # Panics
    /// Panics when the tile layout of `attn` is inconsistent with `v`, `heads`, and `seq`.
    pub fn attention_context(&mut self, attn: VarId, v: VarId, heads: usize, seq: usize) -> VarId {
        let (av, vv) = (&self.nodes[attn].value, &self.nodes[v].value);
        check_attention_context(av, vv, heads, seq);
        let out = self.pool.filled(vv.shape(), |out| {
            attention_context_into(av, vv, heads, seq, out);
        });
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

    /// Per-row standardization `(x - mean) / sqrt(var + eps)` (the core of LayerNorm)
    /// that is aware of padding rows: rows flagged `true` in `valid` are standardized,
    /// rows flagged `false` are forced to zero and receive zero gradient.
    ///
    /// # Panics
    /// Panics when `valid.len()` differs from the row count of `a`.
    pub fn masked_standardize_rows(&mut self, a: VarId, eps: f32, valid: &[bool]) -> VarId {
        let av = &self.nodes[a].value;
        let v = self.pool.filled(av.shape(), |out| {
            masked_standardize_rows_into(av, eps, valid, out);
        });
        self.push(v, Op::MaskedStandardizeRows(a, eps, valid.to_vec()))
    }

    // ---- backward pass --------------------------------------------------------------------

    /// Propagates gradients from the scalar node `loss` back to every reachable node.
    ///
    /// # Panics
    /// Panics when `loss` is not a `1 x 1` node.
    pub fn backward(&mut self, loss: VarId) -> Gradients {
        self.backward_from(loss, true)
    }

    /// [`Tape::backward`] for a training step: the gradient of a node that is not a leaf
    /// goes back to the pool as soon as its own arm has run, so only the leaves'
    /// gradients, which the optimizer reads, are returned.
    pub(crate) fn backward_to_leaves(&mut self, loss: VarId) -> Gradients {
        self.backward_from(loss, false)
    }

    fn backward_from(&mut self, loss: VarId, keep_interior: bool) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss node must be a 1x1 scalar"
        );
        let mut pass = Backward {
            nodes: &self.nodes,
            grads: vec![None; self.nodes.len()],
            pool: &mut self.pool,
        };
        pass.grads[loss] = Some(pass.pool.filled((1, 1), |g| g[0] = 1.0));
        for id in (0..=loss).rev() {
            let Some(grad) = pass.grads[id].take() else {
                continue;
            };
            pass.arm(id, &grad);
            if keep_interior || matches!(pass.nodes[id].op, Op::Leaf) {
                pass.grads[id] = Some(grad);
            } else {
                pass.pool.give(grad.into_data());
            }
        }
        Gradients { grads: pass.grads }
    }
}

/// One backward pass: the nodes it reads, the gradients it accumulates, and the pool
/// their buffers come from.
struct Backward<'a> {
    nodes: &'a [Node],
    grads: Vec<Option<Matrix>>,
    pool: &'a mut Pool,
}

/// The rows of the row-major `data`, `cols` wide.
fn rows(data: &[f32], cols: usize) -> std::slice::ChunksExact<'_, f32> {
    data.chunks_exact(cols.max(1))
}

/// The rows of the row-major `data`, `cols` wide, mutably.
fn rows_mut(data: &mut [f32], cols: usize) -> std::slice::ChunksExactMut<'_, f32> {
    data.chunks_exact_mut(cols.max(1))
}

impl Backward<'_> {
    /// `grads[pid] += delta`: `delta` becomes the gradient, or is added to it and its
    /// buffer goes back to the pool.
    fn add_to(&mut self, pid: VarId, delta: Matrix) {
        match &mut self.grads[pid] {
            Some(existing) => {
                existing.add_assign(&delta);
                self.pool.give(delta.into_data());
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// `grads[pid] += s * src`, in place when `pid` already has a gradient.
    fn add_scaled_to(&mut self, pid: VarId, src: &Matrix, s: f32) {
        match &mut self.grads[pid] {
            Some(existing) => existing.add_scaled(src, s),
            slot @ None if s == 1.0 => *slot = Some(self.pool.copy(src)),
            slot @ None => *slot = Some(self.pool.map(src, |x| x * s)),
        }
    }

    /// `grads[pid] += g ⊙ v`, in place when `pid` already has a gradient.
    fn add_hadamard_to(&mut self, pid: VarId, g: &Matrix, v: &Matrix) {
        match &mut self.grads[pid] {
            Some(existing) => existing.add_hadamard(g, v),
            slot @ None => *slot = Some(self.pool.zip(g, v, |a, b| a * b)),
        }
    }

    /// Runs the backward arm of node `id`, whose gradient is `grad`: adds its
    /// contribution to the gradient of each of its parents.
    fn arm(&mut self, id: VarId, grad: &Matrix) {
        let nodes = self.nodes;
        let node = &nodes[id];
        let value = |id: &VarId| &nodes[*id].value;
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.add_scaled_to(*a, grad, 1.0);
                self.add_scaled_to(*b, grad, 1.0);
            }
            Op::Sub(a, b) => {
                self.add_scaled_to(*a, grad, 1.0);
                self.add_scaled_to(*b, grad, -1.0);
            }
            Op::Mul(a, b) => {
                self.add_hadamard_to(*a, grad, value(b));
                self.add_hadamard_to(*b, grad, value(a));
            }
            Op::MatMul(a, b) => {
                // dA = dC * B^T and dB = A^T * dC on the GEMM tile.
                let da = self.pool.product_transpose_b(grad, value(b));
                self.add_to(*a, da);
                let db = self.pool.product_transpose_a(value(a), grad);
                self.add_to(*b, db);
            }
            Op::MatMulTransposeB(a, b) => {
                // C = A * B^T: dA = dC * B, dB = dC^T * A.
                let da = self.pool.product(grad, value(b));
                self.add_to(*a, da);
                let db = self.pool.product_transpose_a(grad, value(a));
                self.add_to(*b, db);
            }
            Op::Scale(a, s) => self.add_scaled_to(*a, grad, *s),
            Op::Transpose(a) => {
                let t = self
                    .pool
                    .filled((grad.cols(), grad.rows()), |out| grad.transpose_into(out));
                self.add_to(*a, t);
            }
            Op::Gelu(a) => {
                let d = self.pool.zip(grad, value(a), |g, x| g * gelu_grad(x));
                self.add_to(*a, d);
            }
            Op::Pow2(a) => {
                let d = self.pool.zip(grad, value(a), |g, x| 2.0 * x * g);
                self.add_to(*a, d);
            }
            Op::Abs(a) => {
                let d = self
                    .pool
                    .zip(grad, value(a), |g, x| if x >= 0.0 { g } else { -g });
                self.add_to(*a, d);
            }
            Op::SumAll(a) => {
                let g = grad.get(0, 0);
                let d = self.pool.filled(value(a).shape(), |out| out.fill(g));
                self.add_to(*a, d);
            }
            Op::MeanAll(a) => {
                let av = value(a);
                let g = grad.get(0, 0) / av.len() as f32;
                let d = self.pool.filled(av.shape(), |out| out.fill(g));
                self.add_to(*a, d);
            }
            Op::MeanRows(a) => {
                let av = value(a);
                let n = av.rows() as f32;
                let d = self.pool.filled(av.shape(), |out| {
                    for row in rows_mut(out, av.cols()) {
                        for (o, &g) in row.iter_mut().zip(grad.row(0)) {
                            *o = g / n;
                        }
                    }
                });
                self.add_to(*a, d);
            }
            Op::SegmentMeanRows(a, ranges) => {
                // Each row of range i receives grad_row(i) / len_i; the ranges are disjoint
                // (the forward pass checked), and rows outside every range receive zero.
                let mut out = self.pool.zeros(value(a).shape());
                for (i, &(start, len)) in ranges.iter().enumerate() {
                    let inv = 1.0 / len as f32;
                    for t in start..start + len {
                        for (o, &g) in out.row_mut(t).iter_mut().zip(grad.row(i).iter()) {
                            *o = g * inv;
                        }
                    }
                }
                self.add_to(*a, out);
            }
            Op::RowSoftmax(a) => {
                // dx = y * (dy - sum_j dy_j y_j) per row
                let (y, cols) = (&node.value, grad.cols());
                let dx = self.pool.filled(y.shape(), |out| {
                    let inputs = rows(y.data(), cols).zip(rows(grad.data(), cols));
                    for (out, (y, g)) in rows_mut(out, cols).zip(inputs) {
                        let dot: f32 = y.iter().zip(g).map(|(&yy, &gg)| yy * gg).sum();
                        for ((o, &yy), &gg) in out.iter_mut().zip(y).zip(g) {
                            *o = yy * (gg - dot);
                        }
                    }
                });
                self.add_to(*a, dx);
            }
            Op::AddRowBroadcast(x, bias) => {
                self.add_scaled_to(*x, grad, 1.0);
                let mut db = self.pool.zeros((1, grad.cols()));
                for g in rows(grad.data(), grad.cols()) {
                    for (s, &v) in db.data_mut().iter_mut().zip(g) {
                        *s += v;
                    }
                }
                self.add_to(*bias, db);
            }
            Op::MulRowBroadcast(x, gain) => {
                let (xv, gv) = (value(x), value(gain));
                let cols = xv.cols();
                let mut dg = self.pool.zeros((1, cols));
                let dx = self.pool.filled(xv.shape(), |out| {
                    let inputs = rows(grad.data(), cols).zip(rows(xv.data(), cols));
                    for (out, (g, x)) in rows_mut(out, cols).zip(inputs) {
                        let gain = gv.data().iter().zip(dg.data_mut());
                        for (((o, &g), &x), (&w, s)) in out.iter_mut().zip(g).zip(x).zip(gain) {
                            *o = g * w;
                            *s += g * x;
                        }
                    }
                });
                self.add_to(*x, dx);
                self.add_to(*gain, dg);
            }
            Op::ConcatCols(a, b) => {
                let a_cols = value(a).cols();
                self.add_to(*a, grad.slice_cols(0, a_cols));
                self.add_to(*b, grad.slice_cols(a_cols, grad.cols()));
            }
            Op::ConcatRows(parts) => {
                let mut r0 = 0;
                for &pid in parts {
                    let rows = nodes[pid].value.rows();
                    self.add_to(pid, grad.slice_rows(r0, r0 + rows));
                    r0 += rows;
                }
            }
            Op::GatherRows(a, indices) => {
                let shape = value(a).shape();
                let slot = self.grads[*a].get_or_insert_with(|| self.pool.zeros(shape));
                for (i, &idx) in indices.iter().enumerate() {
                    for (o, &g) in slot.row_mut(idx).iter_mut().zip(grad.row(i)) {
                        *o += g;
                    }
                }
            }
            Op::SliceCols(a, start, end) => {
                let mut out = self.pool.zeros(value(a).shape());
                for r in 0..out.rows() {
                    for (c, col) in (*start..*end).enumerate() {
                        out.set(r, col, grad.get(r, c));
                    }
                }
                self.add_to(*a, out);
            }
            Op::L2NormalizeRows(a) => {
                // y = x / ||x||; dx = (dy - y * (y . dy)) / ||x||
                let av = value(a);
                let y = &node.value;
                let mut out = self.pool.zeros(av.shape());
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
                self.add_to(*a, out);
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
                // Every tile writes its head's block of dQ and dK, so together they
                // overwrite both.
                let (heads, seq) = (*heads, *seq);
                let (qv, kv) = (value(q), value(k));
                let (cols, head_dim) = (qv.cols(), qv.cols() / heads);
                let mut dq = self.pool.filled(qv.shape(), |_| {});
                let mut dk = self.pool.filled(kv.shape(), |_| {});
                let mut block = vec![0.0f32; seq * head_dim];
                let (mut ds, mut ds_t) = (vec![0.0f32; seq * seq], vec![0.0f32; seq * seq]);
                for (tile, g) in grad.data().chunks_exact(seq * seq).enumerate() {
                    let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
                    transpose_scaled(g, seq, *scale, &mut ds_t);
                    for (d, &g) in ds.iter_mut().zip(g) {
                        *d = g * scale;
                    }
                    let keys = head_cols(kv, (row0, c0), (seq, head_dim));
                    keys.multiply_with(seq, |t| &ds[t * seq..(t + 1) * seq], &mut block);
                    put_head(dq.data_mut(), cols, (row0, c0), &block, head_dim);
                    let queries = head_cols(qv, (row0, c0), (seq, head_dim));
                    queries.multiply_with(seq, |s| &ds_t[s * seq..(s + 1) * seq], &mut block);
                    put_head(dk.data_mut(), cols, (row0, c0), &block, head_dim);
                }
                self.add_to(*q, dq);
                self.add_to(*k, dk);
            }
            Op::AttentionContext {
                attn,
                v,
                heads,
                seq,
            } => {
                // C_bh = A_bh V_bh per tile: dA_bh = dC_bh V_bh^T ; dV_bh = A_bh^T dC_bh.
                // Every tile writes its block of dA and its head's block of dV, so
                // together they overwrite both.
                let (heads, seq) = (*heads, *seq);
                let (av, vv) = (value(attn), value(v));
                let (cols, head_dim) = (vv.cols(), vv.cols() / heads);
                let mut da = self.pool.filled(av.shape(), |_| {});
                let mut dv = self.pool.filled(vv.shape(), |_| {});
                let mut block = vec![0.0f32; seq * head_dim];
                let mut a_t = vec![0.0f32; seq * seq];
                let tiles = da.data_mut().chunks_exact_mut(seq * seq);
                for (tile, (da, a)) in tiles.zip(av.data().chunks_exact(seq * seq)).enumerate() {
                    let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
                    let values = head_rows(vv, (row0, c0), (seq, head_dim), 1.0);
                    values.multiply_with(seq, head_slice(grad, (row0, c0), head_dim), da);
                    transpose_scaled(a, seq, 1.0, &mut a_t);
                    let dc = head_cols(grad, (row0, c0), (seq, head_dim));
                    dc.multiply_with(seq, |s| &a_t[s * seq..(s + 1) * seq], &mut block);
                    put_head(dv.data_mut(), cols, (row0, c0), &block, head_dim);
                }
                self.add_to(*attn, da);
                self.add_to(*v, dv);
            }
            Op::MaskedStandardizeRows(a, eps, valid) => {
                // y = (x - mu) / sigma with sigma = sqrt(var + eps)
                // dx = (dy - mean(dy) - y * mean(dy * y)) / sigma; padding rows get zero.
                // Each row sum runs in column order from -0.0, as `Sum for f32` does; the
                // three that do not need the mean share one pass.
                let (av, y) = (value(a), &node.value);
                let cols = av.cols();
                let d = cols as f32;
                let dx = self.pool.filled(av.shape(), |out| {
                    let inputs = rows(av.data(), cols).zip(rows(grad.data(), cols));
                    let inputs = inputs.zip(rows(y.data(), cols)).zip(valid);
                    for (out, (((x, g), y), &ok)) in rows_mut(out, cols).zip(inputs) {
                        if !ok {
                            out.fill(0.0);
                            continue;
                        }
                        let (mut sum_x, mut sum_dy, mut sum_dyy) = (-0.0f32, -0.0f32, -0.0f32);
                        for ((&x, &g), &yy) in x.iter().zip(g).zip(y) {
                            sum_x += x;
                            sum_dy += g;
                            sum_dyy += g * yy;
                        }
                        let mean = sum_x / d;
                        let var: f32 = x.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / d;
                        let sigma = (var + eps).sqrt();
                        let (mean_dy, mean_dyy) = (sum_dy / d, sum_dyy / d);
                        for ((o, &g), &yy) in out.iter_mut().zip(g).zip(y) {
                            *o = (g - mean_dy - yy * mean_dyy) / sigma;
                        }
                    }
                });
                self.add_to(*a, dx);
            }
            Op::SoftmaxCrossEntropy(logits, targets) => {
                let lv = value(logits);
                let probs = row_softmax(lv);
                let n = targets.len() as f32;
                let upstream = grad.get(0, 0);
                let mut out = probs;
                for (r, &t) in targets.iter().enumerate() {
                    let v = out.get(r, t) - 1.0;
                    out.set(r, t, v);
                }
                self.add_to(*logits, out.scale(upstream / n));
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
    let (rows, cols) = attention_scores_shape(q, k, heads, seq);
    let mut out = Matrix::zeros(rows, cols);
    attention_scores_into(q, k, heads, seq, scale, out.data_mut());
    out
}

/// The shape of [`attention_scores`]' output, `[batch*heads*seq, seq]`, after its
/// packing checks.
fn attention_scores_shape(q: &Matrix, k: &Matrix, heads: usize, seq: usize) -> (usize, usize) {
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
    (q.rows() / seq * heads * seq, seq)
}

/// [`attention_scores`] into `out`, every element overwritten.
fn attention_scores_into(
    q: &Matrix,
    k: &Matrix,
    heads: usize,
    seq: usize,
    scale: f32,
    out: &mut [f32],
) {
    let head_dim = q.cols() / heads;
    for (tile, dst) in out.chunks_exact_mut(seq * seq).enumerate() {
        let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
        let keys = head_rows(k, (row0, c0), (seq, head_dim), scale);
        keys.multiply_with(seq, head_slice(q, (row0, c0), head_dim), dst);
    }
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

/// Copies the row-major `rows x head_dim` `block` into the head slice at `(row0, c0)` of
/// the row-major `m`, `cols` wide.
fn put_head(
    m: &mut [f32],
    cols: usize,
    (row0, c0): (usize, usize),
    block: &[f32],
    head_dim: usize,
) {
    for (t, src) in block.chunks_exact(head_dim).enumerate() {
        m[(row0 + t) * cols + c0..][..head_dim].copy_from_slice(src);
    }
}

/// The transpose of the row-major `n x n` `block` into `out`, each entry times `scale`.
fn transpose_scaled(block: &[f32], n: usize, scale: f32, out: &mut [f32]) {
    for (t, row) in block.chunks_exact(n).enumerate() {
        for (s, &x) in row.iter().enumerate() {
            out[s * n + t] = scale * x;
        }
    }
}

/// Forward pass of [`Tape::masked_row_softmax`]: numerically stable softmax over the
/// leading `valid[r]` columns of each row, zeros elsewhere (fully masked rows yield the
/// zero row instead of NaN).
///
/// # Panics
/// Panics when `valid.len() != x.rows()` or a count exceeds the width.
pub fn masked_row_softmax(x: &Matrix, valid: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    masked_row_softmax_into(x, valid, out.data_mut());
    out
}

/// [`masked_row_softmax`] into `out`, every element overwritten.
fn masked_row_softmax_into(x: &Matrix, valid: &[usize], out: &mut [f32]) {
    assert_eq!(
        valid.len(),
        x.rows(),
        "masked_row_softmax: one valid count per row required"
    );
    let (arm, cols) = (Arm::current(), x.cols());
    for (r, &n) in valid.iter().enumerate() {
        assert!(
            n <= cols,
            "masked_row_softmax: valid count {} exceeds width {}",
            n,
            cols
        );
        let (dst, masked) = out[r * cols..(r + 1) * cols].split_at_mut(n);
        masked.fill(0.0);
        if n > 0 {
            dst.copy_from_slice(&x.row(r)[..n]);
            softmax_in_place(arm, dst);
        }
    }
}

/// Fused tape-free masked multi-head attention: scores, masked softmax, and context of
/// every `(sequence, head)` tile in one pass over its valid keys, reusing one score tile
/// instead of the two `[batch*heads*seq, seq]` intermediates the tape path must keep
/// for backward. `valid[b]` is the number of real keys of sequence `b` (its leading
/// rows); query rows of an empty sequence produce zero rows. This is what
/// [`crate::layers::MultiHeadSelfAttention::infer_batch`] runs. Both products are the
/// GEMM tile's, so every valid row has the bits of the composed helpers
/// ([`attention_scores`] → [`masked_row_softmax`] → [`attention_context`]), whose
/// padding keys only add zero-weighted terms after the valid ones. The output is a
/// buffer of this thread's inference [`pool`].
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
    let mut out = pool::with(|pool| pool.zeros(q.shape()));
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
            put_head(out.data_mut(), dim, (row0, c0), &context, head_dim);
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
    check_attention_context(attn, v, heads, seq);
    let mut out = Matrix::zeros(v.rows(), v.cols());
    attention_context_into(attn, v, heads, seq, out.data_mut());
    out
}

/// The packing checks of [`attention_context`].
fn check_attention_context(attn: &Matrix, v: &Matrix, heads: usize, seq: usize) {
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
}

/// [`attention_context`] into `out` (`v`'s shape), every element overwritten.
fn attention_context_into(attn: &Matrix, v: &Matrix, heads: usize, seq: usize, out: &mut [f32]) {
    let head_dim = v.cols() / heads;
    let mut context = vec![0.0f32; seq * head_dim];
    for tile in 0..v.rows() / seq * heads {
        let (row0, c0) = (tile / heads * seq, tile % heads * head_dim);
        let values = head_cols(v, (row0, c0), (seq, head_dim));
        values.multiply_with(seq, |t| attn.row(tile * seq + t), &mut context);
        put_head(out, v.cols(), (row0, c0), &context, head_dim);
    }
}

/// Forward pass of [`Tape::masked_standardize_rows`]: standardizes rows flagged `true`
/// and forces rows flagged `false` to zero, into a buffer of this thread's inference
/// [`pool`].
///
/// # Panics
/// Panics when `valid.len() != x.rows()`.
pub fn masked_standardize_rows(x: &Matrix, eps: f32, valid: &[bool]) -> Matrix {
    pool::with(|pool| {
        pool.filled(x.shape(), |out| {
            masked_standardize_rows_into(x, eps, valid, out)
        })
    })
}

/// [`masked_standardize_rows`] into `out`, every element overwritten.
fn masked_standardize_rows_into(x: &Matrix, eps: f32, valid: &[bool], out: &mut [f32]) {
    assert_eq!(
        valid.len(),
        x.rows(),
        "masked_standardize_rows: one flag per row required"
    );
    let cols = x.cols();
    let d = cols as f32;
    for (r, &ok) in valid.iter().enumerate() {
        let dst = &mut out[r * cols..(r + 1) * cols];
        if !ok {
            dst.fill(0.0);
            continue;
        }
        let src = x.row(r);
        let mean: f32 = src.iter().sum::<f32>() / d;
        let var: f32 = src.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
        let sigma = (var + eps).sqrt();
        for (o, &v) in dst.iter_mut().zip(src.iter()) {
            *o = (v - mean) / sigma;
        }
    }
}

/// Forward pass of [`Tape::segment_mean_rows`]: output row `i` averages the `len` rows
/// of `x` from `start`, for `ranges[i] = (start, len)`; an empty range pools to the zero
/// row. Shared by the tape op and the tape-free inference path so the two cannot drift.
///
/// # Panics
/// Panics when a range starts before the previous one ends or runs past the last row.
pub fn segment_mean_rows(x: &Matrix, ranges: &[(usize, usize)]) -> Matrix {
    let mut out = Matrix::zeros(ranges.len(), x.cols());
    let mut end = 0;
    for (i, &(start, len)) in ranges.iter().enumerate() {
        assert!(
            start >= end && start + len <= x.rows(),
            "segment_mean_rows: range {start}..{} is out of order or past row {}",
            start + len,
            x.rows()
        );
        end = start + len;
        let inv = 1.0 / len as f32;
        for t in start..end {
            for (o, &v) in out.row_mut(i).iter_mut().zip(x.row(t).iter()) {
                *o += v * inv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::for_each_supported_arm;
    use rand::SeedableRng;

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
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]));
        let y = tape.masked_standardize_rows(x, 1e-5, &[true]);
        let y = tape.value(y);
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
        // per-row pooling the batched op replaces), including an empty segment, both for
        // ragged segments laid end to end and for the same items padded to stride 2,
        // whose padding rows must neither pool nor receive gradient.
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![-1.0, 0.5],
        ]);
        let pad = vec![9.0, 9.0];
        let padded = Matrix::from_rows(&[
            x.row(0).to_vec(),
            x.row(1).to_vec(),
            pad.clone(),
            pad.clone(),
            x.row(2).to_vec(),
            pad.clone(),
            x.row(3).to_vec(),
            pad,
        ]);
        let layouts = [
            (x, vec![(0, 2), (2, 0), (2, 1), (3, 1)]),
            (padded, crate::layers::padded_ranges(&[2, 0, 1, 1], 2)),
        ];
        for (x, ranges) in layouts {
            let mut tape = Tape::new();
            let xv = tape.constant(x);
            let pooled = tape.segment_mean_rows(xv, &ranges);
            assert_eq!(tape.value(pooled).shape(), (4, 2));
            assert_eq!(tape.value(pooled).row(0), &[2.0, 3.0]);
            assert_eq!(tape.value(pooled).row(1), &[0.0, 0.0]); // empty segment
            assert_eq!(tape.value(pooled).row(2), &[5.0, 6.0]);
            let sq = tape.pow2(pooled);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            let g = grads.get(xv).unwrap();
            // d/dx sum((mean)^2): row t in segment i gets 2 * mean_i / len_i.
            let (first, third) = (g.row(ranges[0].0), g.row(ranges[2].0));
            assert!((first[0] - 2.0).abs() < 1e-6 && (first[1] - 3.0).abs() < 1e-6);
            assert_eq!(third, &[10.0, 12.0]);
            // Exactly the 4 pooled rows carry gradient.
            assert_eq!(g.data().iter().filter(|&&v| v != 0.0).count(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "is out of order or past row 3")]
    fn segment_mean_rows_rejects_bad_lengths() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(3, 2));
        let _ = tape.segment_mean_rows(x, &[(0, 2), (2, 2)]);
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
    fn concat_rows_routes_gradients_to_parts() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::row_vector(&[1.0, 2.0]));
        let b = tape.constant(Matrix::row_vector(&[3.0, 4.0]));
        let c = tape.constant(Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]));
        let stacked = tape.concat_rows(&[a, b, c]);
        assert_eq!(tape.value(stacked).row(3), &[7.0, 8.0]);
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
        assert!(grads
            .get(c)
            .unwrap()
            .approx_eq(&Matrix::full(2, 2, 2.0), 1e-6));
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

    /// The backward loops of `RowSoftmax`, `AddRowBroadcast`, `MulRowBroadcast` and
    /// `MaskedStandardizeRows` as they were before they became row-slice loops
    /// (bounds-checked `get` / `set`, one fresh matrix per result): the oracle of the
    /// bits of each arm. Each returns what its arm adds to the gradient of each parent.
    mod get_set_arms {
        use crate::matrix::Matrix;

        pub fn row_softmax(y: &Matrix, grad: &Matrix) -> Matrix {
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
            out
        }

        pub fn add_row_broadcast(grad: &Matrix) -> (Matrix, Matrix) {
            let mut bias_grad = Matrix::zeros(1, grad.cols());
            for r in 0..grad.rows() {
                for c in 0..grad.cols() {
                    let v = bias_grad.get(0, c) + grad.get(r, c);
                    bias_grad.set(0, c, v);
                }
            }
            (grad.clone(), bias_grad)
        }

        pub fn mul_row_broadcast(xv: &Matrix, gv: &Matrix, grad: &Matrix) -> (Matrix, Matrix) {
            let mut x_grad = Matrix::zeros(xv.rows(), xv.cols());
            let mut g_grad = Matrix::zeros(1, xv.cols());
            for r in 0..xv.rows() {
                for c in 0..xv.cols() {
                    x_grad.set(r, c, grad.get(r, c) * gv.get(0, c));
                    let v = g_grad.get(0, c) + grad.get(r, c) * xv.get(r, c);
                    g_grad.set(0, c, v);
                }
            }
            (x_grad, g_grad)
        }

        pub fn masked_standardize_rows(
            av: &Matrix,
            y: &Matrix,
            eps: f32,
            valid: &[bool],
            grad: &Matrix,
        ) -> Matrix {
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
            out
        }
    }

    /// The gradients of `inputs` under the loss `sum(op(inputs) ⊙ u)`, so that the op's
    /// arm receives exactly `u`. With `v`, the loss also adds `sum(inputs[0] ⊙ v)`,
    /// whose gradient reaches `inputs[0]` first: the arm then adds into `v`.
    fn arm_gradients(
        inputs: &[&Matrix],
        u: &Matrix,
        v: Option<&Matrix>,
        op: impl Fn(&mut Tape, &[VarId]) -> VarId,
    ) -> Vec<Matrix> {
        let mut tape = Tape::new();
        let ids: Vec<VarId> = inputs.iter().map(|m| tape.constant((*m).clone())).collect();
        let out = op(&mut tape, &ids);
        let upstream = tape.constant(u.clone());
        let weighted = tape.mul(out, upstream);
        let mut loss = tape.sum_all(weighted);
        if let Some(v) = v {
            let v = tape.constant(v.clone());
            let weighted = tape.mul(ids[0], v);
            let extra = tape.sum_all(weighted);
            loss = tape.add(loss, extra);
        }
        let grads = tape.backward(loss);
        ids.iter()
            .map(|&id| grads.get(id).unwrap().clone())
            .collect()
    }

    fn assert_same_bits(got: &Matrix, expected: &Matrix, what: &str) {
        assert_eq!(got.shape(), expected.shape(), "{what}: shape");
        for (i, (g, e)) in got.data().iter().zip(expected.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{what}: element {i} is {g}, not {e}"
            );
        }
    }

    #[test]
    fn row_slice_arms_have_the_bits_of_their_get_set_loops() {
        // Seeded inputs at widths 1, 31 and 33, with an all -0.0 row, a constant
        // (zero-variance) row, rows flagged invalid and fully masked softmax rows; the
        // upstream gradients are random, all -0.0, signed zeros that make every
        // `g * y` product -0.0, and random with an all -0.0 row. Zero rows are where a
        // row sum's start shows: `-0.0 + -0.0` is -0.0 and `+0.0 + -0.0` is +0.0.
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let eps = 1e-5;
        for cols in [1usize, 31, 33] {
            let rows = 9;
            let mut x = Matrix::random_normal(rows, cols, 1.0, &mut rng);
            x.row_mut(1).fill(-0.0);
            x.row_mut(2).fill(0.75);
            let gain = Matrix::random_normal(1, cols, 1.0, &mut rng);
            let bias = Matrix::random_normal(1, cols, 1.0, &mut rng);
            let valid: Vec<bool> = (0..rows).map(|r| r % 4 != 3).collect();
            let counts: Vec<usize> = (0..rows).map(|r| [0, cols, cols / 2 + 1][r % 3]).collect();
            let standardized = masked_standardize_rows(&x, eps, &valid);
            let softmax = masked_row_softmax(&x, &counts);
            let mut mixed = Matrix::random_normal(rows, cols, 1.0, &mut rng);
            mixed.row_mut(4).fill(-0.0);
            let upstreams = [
                Matrix::random_normal(rows, cols, 1.0, &mut rng),
                Matrix::full(rows, cols, -0.0),
                standardized.map(|y| if y > 0.0 { -0.0 } else { 0.0 }),
                mixed,
            ];
            let earlier = Matrix::random_normal(rows, cols, 1.0, &mut rng);
            for (case, u) in upstreams.iter().enumerate() {
                for v in [None, Some(&earlier)] {
                    let what = |arm: &str| format!("{arm}, width {cols}, upstream {case}, {v:?}");
                    // A parent that already had a gradient gets the arm's result added.
                    let plus = |delta: &Matrix| match v {
                        Some(v) => v.add(delta),
                        None => delta.clone(),
                    };

                    let got =
                        arm_gradients(&[&x], u, v, |t, ids| t.masked_row_softmax(ids[0], &counts));
                    let expected = get_set_arms::row_softmax(&softmax, u);
                    assert_same_bits(&got[0], &plus(&expected), &what("RowSoftmax"));

                    let got = arm_gradients(&[&x, &bias], u, v, |t, ids| {
                        t.add_row_broadcast(ids[0], ids[1])
                    });
                    let (dx, db) = get_set_arms::add_row_broadcast(u);
                    assert_same_bits(&got[0], &plus(&dx), &what("AddRowBroadcast x"));
                    assert_same_bits(&got[1], &db, &what("AddRowBroadcast bias"));

                    let got = arm_gradients(&[&x, &gain], u, v, |t, ids| {
                        t.mul_row_broadcast(ids[0], ids[1])
                    });
                    let (dx, dg) = get_set_arms::mul_row_broadcast(&x, &gain, u);
                    assert_same_bits(&got[0], &plus(&dx), &what("MulRowBroadcast x"));
                    assert_same_bits(&got[1], &dg, &what("MulRowBroadcast gain"));

                    let got = arm_gradients(&[&x], u, v, |t, ids| {
                        t.masked_standardize_rows(ids[0], eps, &valid)
                    });
                    let expected =
                        get_set_arms::masked_standardize_rows(&x, &standardized, eps, &valid, u);
                    assert_same_bits(&got[0], &plus(&expected), &what("MaskedStandardizeRows"));
                }
            }
        }
    }

    #[test]
    fn a_reset_keeps_only_the_buffers_the_pass_before_it_used() {
        // Passes through `depth` squarings, each trained as `Trainer::step` trains, then
        // one more reset: the buffers the pool holds.
        let pooled = |depths: &[usize]| {
            let mut tape = Tape::new();
            for &depth in depths {
                tape.reset();
                let mut x = tape.constant(Matrix::full(64, 4, 0.5));
                for _ in 0..depth {
                    x = tape.pow2(x);
                }
                let loss = tape.sum_all(x);
                let grads = tape.backward_to_leaves(loss);
                tape.recycle(grads);
            }
            tape.reset();
            tape.pool.free.len()
        };
        // One squaring touches six buffers: the constant, the square, the loss, the seed,
        // the square's gradient and the constant's.
        assert_eq!(pooled(&[1]), 6);
        assert!(pooled(&[6, 6]) > 6);
        assert_eq!(
            pooled(&[6, 6, 1]),
            6,
            "the deep passes' idle buffers stay pooled"
        );
    }
}
