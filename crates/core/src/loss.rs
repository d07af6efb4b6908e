//! Self-supervised losses: the SimCLR contrastive loss (Equations 1–2), the Barlow Twins
//! redundancy-regularization loss (Equations 4–5), and their combination (Equation 6).

use sudowoodo_nn::matrix::Matrix;
use sudowoodo_nn::tape::{Tape, VarId};

/// NT-Xent contrastive loss over two views of a batch.
///
/// `z_ori` and `z_aug` are `n x d` projector outputs for the original and augmented views
/// (row `i` of each corresponds to the same underlying item). Rows are L2-normalized
/// internally so the similarity is cosine. Every row is contrasted against all `2n - 1`
/// other rows with temperature `tau`; its positive is the other view of the same item.
pub fn nt_xent_loss(tape: &mut Tape, z_ori: VarId, z_aug: VarId, temperature: f32) -> VarId {
    let n = tape.value(z_ori).rows();
    assert_eq!(
        n,
        tape.value(z_aug).rows(),
        "nt_xent_loss: the two views must have the same batch size"
    );
    assert!(n >= 2, "nt_xent_loss: need at least 2 items per batch");
    assert!(
        temperature > 0.0,
        "nt_xent_loss: temperature must be positive"
    );

    let z = tape.concat_rows(&[z_ori, z_aug]); // 2n x d
    let z = tape.l2_normalize_rows(z);
    let sim = tape.matmul_transpose_b(z, z); // 2n x 2n cosine similarities, fused Z*Z^T
    let sim = tape.scale(sim, 1.0 / temperature);
    // Mask the diagonal (self-similarity) with a large negative constant so it never
    // contributes to the softmax denominator (the `k != i` condition of Equation 1).
    let mask = Matrix::from_fn(2 * n, 2 * n, |r, c| if r == c { -1e9 } else { 0.0 });
    let mask_node = tape.constant(mask);
    let masked = tape.add(sim, mask_node);
    // Row i's positive is row i+n (and vice versa).
    let targets: Vec<usize> = (0..2 * n)
        .map(|i| if i < n { i + n } else { i - n })
        .collect();
    tape.softmax_cross_entropy(masked, &targets)
}

/// Barlow Twins loss.
///
/// Computes the `d x d` cross-correlation matrix between the two views (Equation 4: each
/// feature column is L2-normalized over the batch, so entries are cosine similarities
/// between features) and penalizes its distance to the identity (Equation 5):
/// `sum_i (1 - C_ii)^2 + lambda * sum_{i != j} C_ij^2`.
pub fn barlow_twins_loss(tape: &mut Tape, z_ori: VarId, z_aug: VarId, lambda: f32) -> VarId {
    let d = tape.value(z_ori).cols();
    assert_eq!(
        d,
        tape.value(z_aug).cols(),
        "barlow_twins_loss: views must share dimensionality"
    );
    // Normalize feature columns: transpose to d x n and L2-normalize rows.
    let a = tape.transpose(z_ori);
    let a = tape.l2_normalize_rows(a);
    let b = tape.transpose(z_aug);
    let b = tape.l2_normalize_rows(b);
    let c = tape.matmul_transpose_b(a, b); // d x d cross-correlation, fused A*B^T
    let identity = tape.constant(Matrix::identity(d));
    let diff = tape.sub(c, identity);
    let sq = tape.pow2(diff);
    // Weight matrix: 1 on the diagonal (invariance term), lambda off-diagonal
    // (redundancy-reduction term).
    let weights = Matrix::from_fn(d, d, |r, col| if r == col { 1.0 } else { lambda });
    let weights_node = tape.constant(weights);
    let weighted = tape.mul(sq, weights_node);
    tape.sum_all(weighted)
}

/// The combined Sudowoodo pre-training loss (Equation 6):
/// `(1 - alpha) * L_contrast + alpha * L_BT`. With `alpha = 0` this is plain SimCLR.
pub fn combined_loss(
    tape: &mut Tape,
    z_ori: VarId,
    z_aug: VarId,
    temperature: f32,
    bt_lambda: f32,
    alpha: f32,
) -> VarId {
    let contrast = nt_xent_loss(tape, z_ori, z_aug, temperature);
    if alpha <= 0.0 {
        return contrast;
    }
    let bt = barlow_twins_loss(tape, z_ori, z_aug, bt_lambda);
    let weighted_contrast = tape.scale(contrast, 1.0 - alpha);
    let weighted_bt = tape.scale(bt, alpha);
    tape.add(weighted_contrast, weighted_bt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sudowoodo_nn::matrix::Matrix;

    fn random_views(n: usize, d: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Matrix::random_normal(n, d, 1.0, &mut rng),
            Matrix::random_normal(n, d, 1.0, &mut rng),
        )
    }

    #[test]
    fn nt_xent_is_lower_for_aligned_views() {
        // When the two views are identical, the positive pair has maximal similarity and the
        // loss should be much lower than for random (unrelated) views.
        let (a, b) = random_views(8, 16, 1);
        let mut tape = Tape::new();
        let a1 = tape.constant(a.clone());
        let a2 = tape.constant(a.clone());
        let aligned = nt_xent_loss(&mut tape, a1, a2, 0.07);
        let aligned_loss = tape.scalar(aligned);

        let mut tape2 = Tape::new();
        let x = tape2.constant(a);
        let y = tape2.constant(b);
        let random = nt_xent_loss(&mut tape2, x, y, 0.07);
        let random_loss = tape2.scalar(random);
        assert!(
            aligned_loss + 1.0 < random_loss,
            "aligned {aligned_loss} should be much lower than random {random_loss}"
        );
    }

    #[test]
    fn nt_xent_gradient_pulls_views_together() {
        // The gradient with respect to the augmented view should have a component pointing
        // towards the original view (reducing the loss when followed).
        let (a, b) = random_views(4, 8, 2);
        let mut tape = Tape::new();
        let av = tape.constant(a);
        let bv = tape.constant(b.clone());
        let loss = nt_xent_loss(&mut tape, av, bv, 0.1);
        let grads = tape.backward(loss);
        let g = grads
            .get(bv)
            .expect("augmented view must receive a gradient");
        // Take a small step against the gradient and verify the loss decreases.
        let stepped = b.sub(&g.scale(0.5));
        let mut tape2 = Tape::new();
        let av2 = tape2.constant(tape.value(av).clone());
        let bv2 = tape2.constant(stepped);
        let loss2 = nt_xent_loss(&mut tape2, av2, bv2, 0.1);
        assert!(tape2.scalar(loss2) < tape.scalar(loss));
    }

    #[test]
    fn barlow_twins_is_zero_for_perfectly_decorrelated_identical_views() {
        // Views equal to (a multiple of) the identity have a cross-correlation equal to the
        // identity matrix, so the loss must vanish.
        let z = Matrix::identity(6).scale(2.0);
        let mut tape = Tape::new();
        let a = tape.constant(z.clone());
        let b = tape.constant(z);
        let loss = barlow_twins_loss(&mut tape, a, b, 0.005);
        assert!(tape.scalar(loss) < 1e-6);
    }

    #[test]
    fn barlow_twins_penalizes_redundant_features() {
        // Duplicate every feature: off-diagonal correlations are 1, so the loss grows with
        // lambda.
        let mut rng = StdRng::seed_from_u64(3);
        let base = Matrix::random_normal(16, 4, 1.0, &mut rng);
        let redundant = Matrix::hstack(&[&base, &base]);
        let mut tape = Tape::new();
        let a = tape.constant(redundant.clone());
        let b = tape.constant(redundant);
        let low = barlow_twins_loss(&mut tape, a, b, 0.001);
        let low_val = tape.scalar(low);
        let mut tape2 = Tape::new();
        let a2 = tape2.constant(Matrix::hstack(&[&base, &base]));
        let b2 = tape2.constant(Matrix::hstack(&[&base, &base]));
        let high = barlow_twins_loss(&mut tape2, a2, b2, 0.1);
        assert!(tape2.scalar(high) > low_val * 10.0);
    }

    #[test]
    fn combined_loss_interpolates_between_objectives() {
        let (a, b) = random_views(6, 8, 4);
        let eval = |alpha: f32| {
            let mut tape = Tape::new();
            let av = tape.constant(a.clone());
            let bv = tape.constant(b.clone());
            let l = combined_loss(&mut tape, av, bv, 0.07, 0.005, alpha);
            tape.scalar(l)
        };
        let pure_contrast = eval(0.0);
        let mixed = eval(0.5);
        // alpha = 0 must equal the plain NT-Xent value.
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let nt = nt_xent_loss(&mut tape, av, bv, 0.07);
        assert!((pure_contrast - tape.scalar(nt)).abs() < 1e-5);
        assert!(mixed.is_finite() && mixed > 0.0);
    }

    #[test]
    #[should_panic(expected = "same batch size")]
    fn mismatched_batch_sizes_panic() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::zeros(4, 8));
        let b = tape.constant(Matrix::zeros(3, 8));
        let _ = nt_xent_loss(&mut tape, a, b, 0.07);
    }

    #[test]
    #[should_panic(expected = "at least 2 items")]
    fn single_item_batch_panics() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::zeros(1, 8));
        let b = tape.constant(Matrix::zeros(1, 8));
        let _ = nt_xent_loss(&mut tape, a, b, 0.07);
    }
}
