//! Equivalence tier for the batched masked multi-head attention path.
//!
//! The batched path (`forward_batch`/`infer_batch` over a padded `[batch*max_len, dim]`
//! row-block) must be numerically indistinguishable — forward **and** backward — from the
//! per-sequence path (`forward`/`infer` on one `len x dim` sequence at a time), which is
//! kept frozen as the oracle exactly like [`Matrix::matmul_naive`] is for the GEMM
//! kernels. Seeded sweeps cover ragged length mixes (including empty sequences, i.e.
//! all-padding blocks, and full-length sequences), batch sizes {1, 2, 17, 64}, and head
//! counts {1, 2, 4}. Padding rows of the packed input are filled with garbage on purpose:
//! if any of it leaked through the additive-`-inf` key mask, the masked layer norm, or
//! the padding-aware pooling, the comparisons below would fail.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_nn::layers::{
    padded_ranges, padded_row_validity, Layer, MultiHeadSelfAttention, TransformerBlock,
};
use sudowoodo_nn::matrix::{for_each_supported_arm, Matrix};
use sudowoodo_nn::param::Param;
use sudowoodo_nn::tape::{Gradients, Tape, VarId};

const DIM: usize = 8;
const MAX_LEN: usize = 6;
const BATCH_SIZES: [usize; 4] = [1, 2, 17, 64];
const HEAD_COUNTS: [usize; 3] = [1, 2, 4];
const TOL: f32 = 1e-4;

/// Ragged sequence lengths for one batch: deterministically mixes empty sequences
/// (all-padding blocks), full-length sequences, and everything in between.
fn ragged_lens(batch: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..=MAX_LEN)).collect();
    if batch > 1 {
        lens[0] = 0; // always include an all-padding block ...
        lens[batch - 1] = MAX_LEN; // ... and a sequence with no padding at all
    } else {
        lens[0] = MAX_LEN - 2; // a single sequence with a padding tail
    }
    lens
}

/// Per-sequence inputs plus their packed `[batch*max_len, dim]` row-block. Padding rows
/// are filled with large garbage values that must never influence any compared output.
fn ragged_batch(lens: &[usize], rng: &mut StdRng) -> (Vec<Matrix>, Matrix) {
    let seqs: Vec<Matrix> = lens
        .iter()
        .map(|&len| Matrix::from_fn(len, DIM, |_, _| rng.gen_range(-1.0f32..1.0)))
        .collect();
    let mut packed = Matrix::full(lens.len() * MAX_LEN, DIM, 777.0);
    for (b, seq) in seqs.iter().enumerate() {
        for t in 0..seq.rows() {
            packed.row_mut(b * MAX_LEN + t).copy_from_slice(seq.row(t));
        }
    }
    (seqs, packed)
}

/// Extracts the valid rows of a packed `[batch*max_len, dim]` output for sequence `b`.
fn unpack_rows(packed: &Matrix, b: usize, len: usize) -> Matrix {
    packed.slice_rows(b * MAX_LEN, b * MAX_LEN + len)
}

/// Sums the gradient of every tape binding of `param` (a parameter can be bound more than
/// once per graph, e.g. once per sequence in the oracle path).
fn param_grad(tape: &Tape, grads: &Gradients, param: &Param) -> Matrix {
    let (rows, cols) = param.shape();
    let mut acc = Matrix::zeros(rows, cols);
    for (node, bound) in tape.bindings() {
        if bound.same_storage(param) {
            if let Some(g) = grads.get(*node) {
                acc.add_assign(g);
            }
        }
    }
    acc
}

/// Scalar loss over a packed attention output: padding-aware mean pooling then sum, so
/// padding rows contribute nothing (the same pooling the encoder uses).
fn packed_loss(tape: &mut Tape, y: VarId, lens: &[usize]) -> VarId {
    let pooled = tape.segment_mean_rows(y, &padded_ranges(lens, MAX_LEN));
    tape.sum_all(pooled)
}

/// The same loss through the per-sequence oracle: mean rows of each non-empty sequence
/// output, summed (empty sequences pool to zero and add nothing).
fn oracle_loss(tape: &mut Tape, outputs: &[Option<VarId>]) -> VarId {
    let mut total: Option<VarId> = None;
    for out in outputs.iter().flatten() {
        let mean = tape.mean_rows(*out);
        let s = tape.sum_all(mean);
        total = Some(match total {
            Some(t) => tape.add(t, s),
            None => s,
        });
    }
    total.expect("oracle_loss: at least one non-empty sequence required")
}

#[test]
fn batched_attention_forward_matches_per_sequence_oracle() {
    for_each_supported_arm(|_| {
        for (case, &batch) in BATCH_SIZES.iter().enumerate() {
            for &heads in &HEAD_COUNTS {
                let mut rng = StdRng::seed_from_u64(100 + case as u64);
                let mut layer_rng = StdRng::seed_from_u64(7);
                let attn = MultiHeadSelfAttention::new("a", DIM, heads, &mut layer_rng);
                let lens = ragged_lens(batch, &mut rng);
                let (seqs, packed) = ragged_batch(&lens, &mut rng);

                // Batched tape forward.
                let mut tape = Tape::new();
                let x = tape.constant(packed.clone());
                let y = attn.forward_batch(&mut tape, x, &lens, MAX_LEN);
                let batched = tape.value(y).clone();

                // Tape-free batched inference.
                let inferred = attn.infer_batch(&packed, &lens, MAX_LEN);
                assert!(
                    batched.approx_eq(&inferred, TOL),
                    "batch {batch} heads {heads}: forward_batch and infer_batch diverged"
                );

                // Per-sequence oracle, one graph per sequence.
                for (b, seq) in seqs.iter().enumerate() {
                    if lens[b] == 0 {
                        continue;
                    }
                    let mut oracle_tape = Tape::new();
                    let xs = oracle_tape.constant(seq.clone());
                    let ys = attn.forward(&mut oracle_tape, xs);
                    let expected = oracle_tape.value(ys);
                    let got = unpack_rows(&batched, b, lens[b]);
                    assert!(
                        got.approx_eq(expected, TOL),
                        "batch {batch} heads {heads} seq {b} (len {}): batched rows diverged \
                         from the per-sequence oracle",
                        lens[b]
                    );
                }
            }
        }
    });
}

#[test]
fn batched_attention_backward_matches_per_sequence_oracle() {
    for_each_supported_arm(|_| {
        for (case, &batch) in BATCH_SIZES.iter().enumerate() {
            for &heads in &HEAD_COUNTS {
                let mut rng = StdRng::seed_from_u64(200 + case as u64);
                let mut layer_rng = StdRng::seed_from_u64(13);
                let attn = MultiHeadSelfAttention::new("a", DIM, heads, &mut layer_rng);
                let lens = ragged_lens(batch, &mut rng);
                let (seqs, packed) = ragged_batch(&lens, &mut rng);

                // Batched graph: pack -> attention -> padding-aware pooling -> sum.
                let mut tape = Tape::new();
                let x = tape.constant(packed.clone());
                let y = attn.forward_batch(&mut tape, x, &lens, MAX_LEN);
                let loss = packed_loss(&mut tape, y, &lens);
                let grads = tape.backward(loss);

                // Oracle graph: one per-sequence sub-graph per non-empty sequence, same loss.
                let mut oracle_tape = Tape::new();
                let mut oracle_inputs = Vec::new();
                let outputs: Vec<Option<VarId>> = seqs
                    .iter()
                    .map(|seq| {
                        if seq.rows() == 0 {
                            oracle_inputs.push(None);
                            return None;
                        }
                        let xs = oracle_tape.constant(seq.clone());
                        oracle_inputs.push(Some(xs));
                        Some(attn.forward(&mut oracle_tape, xs))
                    })
                    .collect();
                let oracle_loss_node = oracle_loss(&mut oracle_tape, &outputs);
                let oracle_grads = oracle_tape.backward(oracle_loss_node);

                assert!(
                    (tape.scalar(loss) - oracle_tape.scalar(oracle_loss_node)).abs() < TOL,
                    "batch {batch} heads {heads}: losses diverged"
                );

                // Every parameter gradient must agree.
                for p in attn.params() {
                    let got = param_grad(&tape, &grads, &p);
                    let expected = param_grad(&oracle_tape, &oracle_grads, &p);
                    assert!(
                        got.approx_eq(&expected, TOL),
                        "batch {batch} heads {heads}: gradient of {} diverged",
                        p.name()
                    );
                }

                // Input gradients: valid rows match the oracle, padding rows are exactly zero
                // (garbage never receives — or propagates — gradient).
                let dx = grads.get(x).expect("input must receive gradient");
                for (b, input) in oracle_inputs.iter().enumerate() {
                    let got = unpack_rows(dx, b, lens[b]);
                    if let Some(xs) = input {
                        let expected = oracle_grads.get(*xs).expect("oracle input gradient");
                        assert!(
                            got.approx_eq(expected, TOL),
                            "batch {batch} heads {heads} seq {b}: input gradient diverged"
                        );
                    }
                    let pad = dx.slice_rows(b * MAX_LEN + lens[b], (b + 1) * MAX_LEN);
                    assert!(
                        pad.data().iter().all(|&g| g == 0.0),
                        "batch {batch} heads {heads} seq {b}: padding rows received gradient"
                    );
                }
            }
        }
    });
}

#[test]
fn batched_transformer_block_matches_per_sequence_oracle() {
    for_each_supported_arm(|_| {
        for (case, &batch) in [2usize, 17].iter().enumerate() {
            for &heads in &HEAD_COUNTS {
                let mut rng = StdRng::seed_from_u64(300 + case as u64);
                let mut layer_rng = StdRng::seed_from_u64(19);
                let block = TransformerBlock::new("b", DIM, heads, 2 * DIM, &mut layer_rng);
                let lens = ragged_lens(batch, &mut rng);
                let (seqs, packed) = ragged_batch(&lens, &mut rng);

                let mut tape = Tape::new();
                let x = tape.constant(packed.clone());
                let y = block.forward_batch(&mut tape, x, &lens, MAX_LEN);
                let batched = tape.value(y).clone();

                let inferred = block.infer_batch(&packed, &lens, MAX_LEN);
                assert!(
                    batched.approx_eq(&inferred, TOL),
                    "batch {batch} heads {heads}: block forward_batch and infer_batch diverged"
                );

                for (b, seq) in seqs.iter().enumerate() {
                    if lens[b] == 0 {
                        continue;
                    }
                    let mut oracle_tape = Tape::new();
                    let xs = oracle_tape.constant(seq.clone());
                    let ys = block.forward(&mut oracle_tape, xs);
                    assert!(
                        unpack_rows(&batched, b, lens[b]).approx_eq(oracle_tape.value(ys), TOL),
                        "batch {batch} heads {heads} seq {b}: block output diverged"
                    );
                    assert!(
                        unpack_rows(&inferred, b, lens[b]).approx_eq(&block.infer(seq), TOL),
                        "batch {batch} heads {heads} seq {b}: block inference diverged"
                    );
                }
            }
        }
    });
}

#[test]
fn batched_transformer_block_backward_matches_per_sequence_oracle() {
    for_each_supported_arm(|_| {
        for &heads in &HEAD_COUNTS {
            let mut rng = StdRng::seed_from_u64(400);
            let mut layer_rng = StdRng::seed_from_u64(23);
            let block = TransformerBlock::new("b", DIM, heads, 2 * DIM, &mut layer_rng);
            let lens = ragged_lens(5, &mut rng);
            let (seqs, packed) = ragged_batch(&lens, &mut rng);

            let mut tape = Tape::new();
            let x = tape.constant(packed);
            let y = block.forward_batch(&mut tape, x, &lens, MAX_LEN);
            let loss = packed_loss(&mut tape, y, &lens);
            let grads = tape.backward(loss);

            let mut oracle_tape = Tape::new();
            let outputs: Vec<Option<VarId>> = seqs
                .iter()
                .map(|seq| {
                    if seq.rows() == 0 {
                        return None;
                    }
                    let xs = oracle_tape.constant(seq.clone());
                    Some(block.forward(&mut oracle_tape, xs))
                })
                .collect();
            let oracle_loss_node = oracle_loss(&mut oracle_tape, &outputs);
            let oracle_grads = oracle_tape.backward(oracle_loss_node);

            for p in block.params() {
                let got = param_grad(&tape, &grads, &p);
                let expected = param_grad(&oracle_tape, &oracle_grads, &p);
                assert!(
                    got.approx_eq(&expected, TOL),
                    "heads {heads}: block gradient of {} diverged",
                    p.name()
                );
            }
        }
    });
}

#[test]
fn fully_padded_batch_is_defined_and_gradient_free() {
    // A batch whose every sequence is empty: the masked softmax sees zero valid keys
    // everywhere, the output must be defined, and no parameter may receive a gradient
    // contribution (everything pools to zero).
    let mut layer_rng = StdRng::seed_from_u64(29);
    let attn = MultiHeadSelfAttention::new("a", DIM, 2, &mut layer_rng);
    let lens = vec![0usize, 0, 0];
    let packed = Matrix::full(lens.len() * MAX_LEN, DIM, 777.0);

    let mut tape = Tape::new();
    let x = tape.constant(packed.clone());
    let y = attn.forward_batch(&mut tape, x, &lens, MAX_LEN);
    assert!(tape.value(y).data().iter().all(|v| v.is_finite()));
    let pooled = tape.segment_mean_rows(y, &padded_ranges(&lens, MAX_LEN));
    assert_eq!(tape.value(pooled).shape(), (3, DIM));
    assert!(tape.value(pooled).data().iter().all(|&v| v == 0.0));
    let loss = tape.sum_all(pooled);
    let grads = tape.backward(loss);
    for p in attn.params() {
        let g = param_grad(&tape, &grads, &p);
        assert!(
            g.data().iter().all(|&v| v == 0.0),
            "all-padding batch leaked gradient into {}",
            p.name()
        );
    }

    let inferred = attn.infer_batch(&packed, &lens, MAX_LEN);
    assert!(inferred.data().iter().all(|v| v.is_finite()));
}

#[test]
fn masked_layers_zero_padding_rows() {
    // The padding-aware standardization forces padding rows to exactly zero, and the
    // validity helper marks exactly the leading `lens[b]` rows of each block.
    let lens = [2usize, 0, MAX_LEN];
    let valid = padded_row_validity(&lens, MAX_LEN);
    assert_eq!(valid.len(), lens.len() * MAX_LEN);
    assert_eq!(valid.iter().filter(|&&v| v).count(), 2 + MAX_LEN);

    let mut rng = StdRng::seed_from_u64(31);
    let x = Matrix::from_fn(valid.len(), DIM, |_, _| rng.gen_range(-2.0f32..2.0));
    let y = sudowoodo_nn::tape::masked_standardize_rows(&x, 1e-5, &valid);
    for (r, &ok) in valid.iter().enumerate() {
        if ok {
            let mean: f32 = y.row(r).iter().sum::<f32>() / DIM as f32;
            assert!(mean.abs() < 1e-5);
        } else {
            assert!(y.row(r).iter().all(|&v| v == 0.0));
        }
    }
}
