//! Randomized gradient checks for the fused ops and layers of `sudowoodo-nn`.
//!
//! Each check builds small random computation graphs across several seeds and validates
//! the analytic gradients against central finite differences. (The seed expressed these
//! with `proptest`, which is unavailable in the offline build environment; seeded random
//! sweeps test the same properties deterministically.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_nn::gradcheck::check_gradients;
use sudowoodo_nn::layers::{
    padded_ranges, FeedForward, Layer, LayerNorm, Linear, MultiHeadSelfAttention, TransformerBlock,
};
use sudowoodo_nn::matrix::{for_each_supported_arm, Matrix};
use sudowoodo_nn::param::Param;

const CASES: u64 = 16;

/// Small matrix with bounded values (finite differences are unstable with huge magnitudes
/// in f32).
fn small_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.5f32..1.5))
}

fn max_rel(reports: &[sudowoodo_nn::gradcheck::GradCheckReport]) -> f32 {
    reports.iter().map(|r| r.max_rel_diff).fold(0.0, f32::max)
}

#[test]
fn linear_layer_gradients_match_finite_differences() {
    for_each_supported_arm(|_| {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = small_matrix(3, 4, &mut rng);
            let mut layer_rng = StdRng::seed_from_u64(11);
            let layer = Linear::new("l", 4, 2, &mut layer_rng);
            let params = layer.params();
            let reports = check_gradients(
                &params,
                |tape| {
                    let input = tape.constant(x.clone());
                    let y = layer.forward(tape, input);
                    let sq = tape.pow2(y);
                    tape.mean_all(sq)
                },
                1e-2,
            );
            assert!(max_rel(&reports) < 0.05, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn layer_norm_gradients_match_finite_differences() {
    for_each_supported_arm(|_| {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = small_matrix(2, 6, &mut rng);
            let ln = LayerNorm::new("ln", 6);
            let params = ln.params();
            let reports = check_gradients(
                &params,
                |tape| {
                    let input = tape.constant(x.clone());
                    let y = ln.forward(tape, input);
                    let sq = tape.pow2(y);
                    tape.mean_all(sq)
                },
                1e-2,
            );
            assert!(max_rel(&reports) < 0.05, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn softmax_cross_entropy_gradients_match() {
    for_each_supported_arm(|_| {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = small_matrix(1, 5, &mut rng);
            let p = Param::new("logit_shift", x);
            let reports = check_gradients(
                std::slice::from_ref(&p),
                |tape| {
                    let w = tape.param(&p);
                    tape.softmax_cross_entropy(w, &[2])
                },
                1e-2,
            );
            assert!(max_rel(&reports) < 0.05, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn l2_normalize_gradients_match() {
    for_each_supported_arm(|_| {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            // Keep the vector away from the origin where the normalization is non-smooth.
            let raw = Matrix::from_fn(2, 3, |_, _| rng.gen_range(0.2f32..1.5));
            let p = Param::new("v", raw);
            let reports = check_gradients(
                std::slice::from_ref(&p),
                |tape| {
                    let w = tape.param(&p);
                    let n = tape.l2_normalize_rows(w);
                    let sq = tape.pow2(n);
                    tape.sum_all(sq)
                },
                1e-3,
            );
            // Sum of squares of a normalized row is constant 1, so the gradient must be ~0.
            assert!(reports[0].max_abs_diff < 0.05, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn attention_block_gradients_match() {
    for_each_supported_arm(|_| {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = small_matrix(3, 8, &mut rng);
            let mut attn_rng = StdRng::seed_from_u64(17);
            let attn = MultiHeadSelfAttention::new("a", 8, 2, &mut attn_rng);
            let params = attn.params();
            // Check a subset (weights of q and output proj) to keep runtime bounded.
            let subset = vec![params[0].clone(), params[6].clone()];
            let reports = check_gradients(
                &subset,
                |tape| {
                    let input = tape.constant(x.clone());
                    let y = attn.forward(tape, input);
                    let sq = tape.pow2(y);
                    tape.mean_all(sq)
                },
                1e-2,
            );
            assert!(max_rel(&reports) < 0.08, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn batched_masked_attention_gradients_match() {
    for_each_supported_arm(|_| {
        // The batched padded path (fused score tiles + masked softmax + padding-aware
        // pooling) must itself pass finite differences, not only agree with the per-sequence
        // oracle (tests/attention_equivalence.rs covers the latter).
        let max_len = 4;
        for seed in 0..CASES / 2 {
            let mut rng = StdRng::seed_from_u64(seed);
            let lens = [rng.gen_range(1..=max_len), rng.gen_range(0..max_len)];
            let x = small_matrix(2 * max_len, 8, &mut rng);
            let mut attn_rng = StdRng::seed_from_u64(31);
            let attn = MultiHeadSelfAttention::new("a", 8, 2, &mut attn_rng);
            let params = attn.params();
            let subset = vec![params[0].clone(), params[2].clone(), params[6].clone()];
            let reports = check_gradients(
                &subset,
                |tape| {
                    let input = tape.constant(x.clone());
                    let y = attn.forward_batch(tape, input, &lens, max_len);
                    let pooled = tape.segment_mean_rows(y, &padded_ranges(&lens, max_len));
                    let sq = tape.pow2(pooled);
                    tape.mean_all(sq)
                },
                1e-2,
            );
            // Slightly looser than the per-sequence attention check: the masked softmax uses
            // the fast exponential (~1e-6 relative error), which shows up as ~5e-5 absolute
            // noise in central differences with this epsilon — visible only on the tiniest
            // gradient entries.
            assert!(max_rel(&reports) < 0.15, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn batched_transformer_block_gradients_match() {
    for_each_supported_arm(|_| {
        let max_len = 3;
        for seed in 0..CASES / 4 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let lens = [max_len, rng.gen_range(0..max_len)];
            let x = small_matrix(2 * max_len, 8, &mut rng);
            let mut block_rng = StdRng::seed_from_u64(37);
            let block = TransformerBlock::new("b", 8, 2, 16, &mut block_rng);
            let params = block.params();
            // Check a spread of sub-layer parameters (norm gain, attention weight, ff weight).
            let subset = vec![params[0].clone(), params[2].clone(), params[11].clone()];
            let reports = check_gradients(
                &subset,
                |tape| {
                    let input = tape.constant(x.clone());
                    let y = block.forward_batch(tape, input, &lens, max_len);
                    let pooled = tape.segment_mean_rows(y, &padded_ranges(&lens, max_len));
                    let sq = tape.pow2(pooled);
                    tape.mean_all(sq)
                },
                1e-2,
            );
            assert!(max_rel(&reports) < 0.08, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn feed_forward_gradients_match() {
    for_each_supported_arm(|_| {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = small_matrix(2, 4, &mut rng);
            let mut ff_rng = StdRng::seed_from_u64(23);
            let ff = FeedForward::new("ff", 4, 8, &mut ff_rng);
            let params = ff.params();
            let reports = check_gradients(
                &params,
                |tape| {
                    let input = tape.constant(x.clone());
                    let y = ff.forward(tape, input);
                    let sq = tape.pow2(y);
                    tape.mean_all(sq)
                },
                1e-2,
            );
            assert!(max_rel(&reports) < 0.08, "seed {seed}: {reports:?}");
        }
    });
}

#[test]
fn mixed_graph_gradcheck_with_abs_concat_and_slices() {
    for_each_supported_arm(|_| {
        // A deterministic end-to-end check that exercises Abs, ConcatCols, SliceCols, MeanRows,
        // the ops used by the Sudowoodo pairwise fine-tuning head.
        let mut rng = StdRng::seed_from_u64(29);
        let w = Param::new("w", Matrix::random_uniform(6, 2, 0.5, &mut rng));
        let a = Matrix::random_uniform(4, 3, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 3, 1.0, &mut rng);
        let reports = check_gradients(
            std::slice::from_ref(&w),
            |tape| {
                let av = tape.constant(a.clone());
                let bv = tape.constant(b.clone());
                let diff = tape.sub(av, bv);
                let abs = tape.abs(diff);
                let cat = tape.concat_cols(av, abs); // 4 x 6
                let wv = tape.param(&w);
                let logits = tape.matmul(cat, wv); // 4 x 2
                tape.softmax_cross_entropy(logits, &[0, 1, 1, 0])
            },
            1e-2,
        );
        assert!(
            reports[0].max_rel_diff < 0.05,
            "mixed graph gradcheck failed: {:?}",
            reports
        );
    });
}
