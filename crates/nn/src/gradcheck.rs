//! Finite-difference gradient checking.
//!
//! Used by the test-suite (including property tests) to validate the hand-written backward
//! passes of the fused ops in [`crate::tape`].

use crate::matrix::Matrix;
use crate::param::Param;
use crate::tape::{Gradients, Tape, VarId};

/// Result of checking one parameter.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Parameter name.
    pub name: String,
    /// Maximum absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f32,
    /// Maximum relative difference (normalized by the larger magnitude, floored at 1e-3).
    pub max_rel_diff: f32,
}

/// The dense gradient of `param`: the sum over every binding of it on `tape`, whole
/// ([`Tape::param`]) or by rows ([`Tape::param_rows`], scatter-added), in binding order;
/// zeros when no binding reached the loss. The plain definition the optimizer's
/// accumulation is tested against.
pub fn param_gradient(tape: &Tape, grads: &Gradients, param: &Param) -> Matrix {
    let (rows, cols) = param.shape();
    let mut acc = Matrix::zeros(rows, cols);
    for (node, bound) in tape.bindings() {
        if let (true, Some(g)) = (bound.same_storage(param), grads.get(*node)) {
            acc.add_assign(g);
        }
    }
    for (node, bound, indices) in tape.row_bindings() {
        if let (true, Some(g)) = (bound.same_storage(param), grads.get(*node)) {
            for (i, &r) in indices.iter().enumerate() {
                for (a, b) in acc.row_mut(r).iter_mut().zip(g.row(i)) {
                    *a += *b;
                }
            }
        }
    }
    acc
}

/// Compares analytic gradients against central finite differences for every element of
/// every parameter in `params`.
///
/// `build_loss` must construct a fresh forward pass on the provided tape, reading the
/// *current* values of the parameters, and return the id of a scalar loss node.
pub fn check_gradients(
    params: &[Param],
    mut build_loss: impl FnMut(&mut Tape) -> VarId,
    epsilon: f32,
) -> Vec<GradCheckReport> {
    // Analytic gradients.
    let mut tape = Tape::new();
    let loss = build_loss(&mut tape);
    let grads = tape.backward(loss);
    let analytic: Vec<(Param, Matrix)> = params
        .iter()
        .map(|p| (p.clone(), param_gradient(&tape, &grads, p)))
        .collect();

    // Numeric gradients via central differences.
    let mut reports = Vec::new();
    for (p, analytic_grad) in analytic {
        let (rows, cols) = p.shape();
        let mut max_abs = 0.0f32;
        let mut max_rel = 0.0f32;
        for r in 0..rows {
            for c in 0..cols {
                p.nudge(r, c, epsilon);
                let mut t_plus = Tape::new();
                let l_plus = build_loss(&mut t_plus);
                let f_plus = t_plus.scalar(l_plus);

                p.nudge(r, c, -2.0 * epsilon);
                let mut t_minus = Tape::new();
                let l_minus = build_loss(&mut t_minus);
                let f_minus = t_minus.scalar(l_minus);

                p.nudge(r, c, epsilon); // restore

                let numeric = (f_plus - f_minus) / (2.0 * epsilon);
                let a = analytic_grad.get(r, c);
                let abs_diff = (numeric - a).abs();
                let denom = numeric.abs().max(a.abs()).max(1e-3);
                max_abs = max_abs.max(abs_diff);
                max_rel = max_rel.max(abs_diff / denom);
            }
        }
        reports.push(GradCheckReport {
            name: p.name(),
            max_abs_diff: max_abs,
            max_rel_diff: max_rel,
        });
    }
    reports
}

/// Asserts that every parameter passes the gradient check within `rel_tol`.
///
/// # Panics
/// Panics with a descriptive message when any parameter fails.
pub fn assert_gradients_close(
    params: &[Param],
    build_loss: impl FnMut(&mut Tape) -> VarId,
    epsilon: f32,
    rel_tol: f32,
) {
    let reports = check_gradients(params, build_loss, epsilon);
    for r in &reports {
        assert!(
            r.max_rel_diff <= rel_tol,
            "gradient check failed for {}: max_rel_diff={} max_abs_diff={} (tol {})",
            r.name,
            r.max_rel_diff,
            r.max_abs_diff,
            rel_tol
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_correct_gradient_of_quadratic() {
        let p = Param::new("w", Matrix::from_rows(&[vec![0.3, -0.7]]));
        assert_gradients_close(
            std::slice::from_ref(&p),
            |tape| {
                let w = tape.param(&p);
                let sq = tape.pow2(w);
                tape.sum_all(sq)
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn masked_row_softmax_gradients_match_finite_differences() {
        // Valid prefixes of mixed widths, including a fully masked row whose entries must
        // keep zero gradient (nudging them cannot change the loss).
        let valid = [3usize, 1, 0, 4];
        let p = Param::new(
            "scores",
            Matrix::from_rows(&[
                vec![0.4, -1.2, 0.7, 0.1],
                vec![1.5, 0.3, -0.8, 2.0],
                vec![9.0, -9.0, 5.0, -5.0],
                vec![-0.6, 0.9, 0.2, -1.1],
            ]),
        );
        let p_handle = p.clone();
        assert_gradients_close(
            std::slice::from_ref(&p),
            move |tape| {
                let w = tape.param(&p_handle);
                let soft = tape.masked_row_softmax(w, &valid);
                // A non-uniform readout so the softmax Jacobian is exercised off-diagonal.
                let weights = tape.constant(Matrix::from_rows(&[
                    vec![1.0, -2.0, 3.0, 0.5],
                    vec![0.2, 1.3, -0.7, 2.1],
                    vec![1.0, 1.0, 1.0, 1.0],
                    vec![-1.5, 0.4, 2.2, -0.3],
                ]));
                let weighted = tape.mul(soft, weights);
                tape.sum_all(weighted)
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn padded_segment_mean_rows_gradients_match_finite_differences() {
        // Three blocks of stride 3 with lengths {2, 0, 3}: padding rows and the empty
        // block must stay gradient-free, pooled rows scale by 1/len.
        let lens = [2usize, 0, 3];
        let p = Param::new(
            "packed",
            Matrix::from_fn(9, 2, |r, c| 0.3 * r as f32 - 0.2 * c as f32),
        );
        let p_handle = p.clone();
        assert_gradients_close(
            std::slice::from_ref(&p),
            move |tape| {
                let w = tape.param(&p_handle);
                let pooled = tape.padded_segment_mean_rows(w, &lens, 3);
                let sq = tape.pow2(pooled);
                tape.sum_all(sq)
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn masked_standardize_rows_gradients_match_finite_differences() {
        let valid = [true, false, true];
        let p = Param::new(
            "x",
            Matrix::from_rows(&[
                vec![0.9, -0.4, 1.3, 0.2],
                vec![5.0, -5.0, 5.0, -5.0],
                vec![-1.1, 0.6, 0.3, -0.8],
            ]),
        );
        let p_handle = p.clone();
        assert_gradients_close(
            std::slice::from_ref(&p),
            move |tape| {
                let w = tape.param(&p_handle);
                let y = tape.masked_standardize_rows(w, 1e-5, &valid);
                let weights = tape.constant(Matrix::from_fn(3, 4, |r, c| {
                    0.5 + 0.3 * r as f32 - 0.4 * c as f32
                }));
                let weighted = tape.mul(y, weights);
                tape.sum_all(weighted)
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn attention_score_and_context_gradients_match_finite_differences() {
        // Two packed sequences, two heads, ragged valid-key counts: checks the fused
        // scores -> masked softmax -> context chain end to end against finite differences.
        let lens = [2usize, 3];
        let seq = 3;
        let heads = 2;
        let q = Param::new(
            "q",
            Matrix::from_fn(6, 4, |r, c| 0.1 * r as f32 - 0.15 * c as f32),
        );
        let k = Param::new(
            "k",
            Matrix::from_fn(6, 4, |r, c| 0.07 * (r + c) as f32 - 0.2),
        );
        let v = Param::new(
            "v",
            Matrix::from_fn(6, 4, |r, c| 0.11 * r as f32 + 0.05 * c as f32),
        );
        let params = [q.clone(), k.clone(), v.clone()];
        let valid: Vec<usize> = lens
            .iter()
            .flat_map(|&len| std::iter::repeat_n(len, heads * seq))
            .collect();
        assert_gradients_close(
            &params,
            move |tape| {
                let qv = tape.param(&q);
                let kv = tape.param(&k);
                let vv = tape.param(&v);
                let scores = tape.attention_scores(qv, kv, heads, seq, 0.5);
                let attn = tape.masked_row_softmax(scores, &valid);
                let ctx = tape.attention_context(attn, vv, heads, seq);
                let pooled = tape.padded_segment_mean_rows(ctx, &lens, seq);
                let sq = tape.pow2(pooled);
                tape.sum_all(sq)
            },
            1e-3,
            // f32 central differences bottom out around 1e-4 absolute error; with the
            // relative denominator floored at 1e-3 that shows up as a few percent.
            5e-2,
        );
    }

    #[test]
    #[should_panic(expected = "gradient check failed")]
    fn detects_wrong_gradient() {
        // exp(x) has gradient exp(x); a loss computed with `ln` after clamping behaves
        // differently from what an intentionally mismatched analytic path would give.
        // Here we simulate a wrong backward by comparing against a different function value:
        // build returns sum(2*w) analytically (grad 2), but we check against sum(w^2) numerically
        // by changing behaviour across calls.
        let p = Param::new("w", Matrix::from_rows(&[vec![1.5]]));
        let p_handle = p.clone(); // same storage; the move closure keeps its own handle
        let mut call = 0usize;
        assert_gradients_close(
            std::slice::from_ref(&p),
            move |tape| {
                call += 1;
                let w = tape.param(&p_handle);
                if call == 1 {
                    let s = tape.scale(w, 2.0);
                    tape.sum_all(s)
                } else {
                    let sq = tape.pow2(w);
                    tape.sum_all(sq)
                }
            },
            1e-3,
            1e-2,
        );
    }
}
