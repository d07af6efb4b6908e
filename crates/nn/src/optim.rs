//! The AdamW optimizer (the optimizer used by the paper).
//!
//! [`AdamW::step`] consumes the parameter bindings recorded on a [`Tape`] together with the
//! [`Gradients`] produced by `Tape::backward`. A parameter bound several times in one tape
//! (every encoder weight is bound once per view of a contrastive batch) has its gradients
//! summed before the update, and everything that rounds happens in **binding order**:
//! distinct parameters are visited in the order they were first bound (whole bindings,
//! then row bindings), each parameter's gradients are added in that order, and the clip
//! norm adds the parameters' squared norms in that order. Two runs of the same graph
//! therefore take bit-identical steps, which is what makes training reproducible from
//! (inputs, seed, config).
//!
//! A step costs one pass over each parameter: a gradient with a single binding is read
//! where `Tape::backward` left it, a table bound by rows ([`Tape::param_rows`]) keeps its
//! gradient as the distinct touched rows, and the moment / weight update is one fused
//! loop over slices.
//!
//! [`Trainer`] is the one training step every loop runs: a tape kept from step to step,
//! so its buffers are reused, and the `AdamW` that updates what the step bound on it.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use crate::matrix::Matrix;
use crate::param::Param;
use crate::tape::{Gradients, Tape, VarId};

/// The buffers of one row-sparse sum ([`Summed::Rows`]), kept for the next step.
type RowBuffers = (Vec<usize>, Vec<f32>);

/// The summed gradient of one distinct parameter.
enum Summed<'a> {
    /// Whole bindings only: the one gradient borrowed from the [`Gradients`], or several
    /// added in binding order.
    Dense(Cow<'a, [f32]>),
    /// At least one row binding: the distinct touched rows, ascending, and their summed
    /// gradient rows packed in the same order. Every other row's gradient is zero.
    Rows { rows: Vec<usize>, grads: Vec<f32> },
}

/// One binding's gradient: whole-parameter, or the rows behind a gathered leaf.
type Source<'a> = (&'a Matrix, Option<&'a [usize]>);

/// Every distinct parameter of `tape` that received a gradient, in first-binding order,
/// with its gradients summed in binding order.
/// A row-sparse sum is built in buffers taken from `spare`.
fn summed_gradients<'a>(
    tape: &'a Tape,
    grads: &'a Gradients,
    spare: &mut Vec<RowBuffers>,
) -> Vec<(&'a Param, Summed<'a>)> {
    let whole = tape.bindings().iter().map(|(n, p)| (n, p, None));
    let by_rows = tape
        .row_bindings()
        .iter()
        .map(|(n, p, rows)| (n, p, Some(rows.as_slice())));
    // A step binds a few dozen distinct parameters, so a linear search keeps the order
    // without hashing addresses (whose iteration order would differ from run to run).
    let mut bound: Vec<(&Param, Vec<Source>)> = Vec::new();
    for (node, param, rows) in whole.chain(by_rows) {
        let Some(g) = grads.get(*node) else { continue };
        match bound.iter_mut().find(|(p, _)| p.same_storage(param)) {
            Some((_, sources)) => sources.push((g, rows)),
            None => bound.push((param, vec![(g, rows)])),
        }
    }
    bound
        .into_iter()
        .map(|(param, sources)| (param, sum_sources(&sources, spare)))
        .collect()
}

fn sum_sources<'a>(sources: &[Source<'a>], spare: &mut Vec<RowBuffers>) -> Summed<'a> {
    if sources.iter().all(|(_, rows)| rows.is_none()) {
        let mut acc = Cow::Borrowed(sources[0].0.data());
        for (g, _) in &sources[1..] {
            add_into(acc.to_mut(), g.data());
        }
        return Summed::Dense(acc);
    }
    // (parameter row, gradient row) of every binding; a whole binding contributes each of
    // its rows. The stable sort groups a row's contributions and keeps them in binding
    // order, so each sum rounds the same way on every run.
    let mut parts: Vec<(usize, &[f32])> = Vec::new();
    for &(g, rows) in sources {
        match rows {
            Some(rows) => parts.extend(rows.iter().enumerate().map(|(i, &r)| (r, g.row(i)))),
            None => parts.extend((0..g.rows()).map(|r| (r, g.row(r)))),
        }
    }
    parts.sort_by_key(|&(r, _)| r);
    let cols = sources[0].0.cols();
    let (mut rows, mut acc) = spare.pop().unwrap_or_default();
    rows.clear();
    acc.clear();
    for (r, g) in parts {
        if rows.last() == Some(&r) {
            let start = acc.len() - cols;
            add_into(&mut acc[start..], g);
        } else {
            rows.push(r);
            acc.extend_from_slice(g);
        }
    }
    Summed::Rows { rows, grads: acc }
}

/// `acc += g`, element by element.
fn add_into(acc: &mut [f32], g: &[f32]) {
    assert_eq!(acc.len(), g.len(), "AdamW: gradient shape mismatch");
    for (a, &b) in acc.iter_mut().zip(g) {
        *a += b;
    }
}

/// Sum of squares in eight interleaved partial sums: a fixed order, so the value is the
/// same on every run and every CPU, and one the compiler can keep in vector registers.
fn sum_squares(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane += x * x;
        }
    }
    lanes.iter().sum::<f32>() + tail.iter().map(|x| x * x).sum::<f32>()
}

/// Global L2 norm over the summed gradients, parameter by parameter in their order. A
/// row-sparse gradient adds one [`sum_squares`] per touched row — what a dense walk of
/// its rows would give, since untouched rows add an exact zero.
fn global_norm(summed: &[(&Param, Summed)]) -> f32 {
    summed
        .iter()
        .map(|(param, g)| match g {
            Summed::Dense(g) => sum_squares(g),
            Summed::Rows { grads, .. } => grads
                .chunks_exact(param.shape().1.max(1))
                .map(sum_squares)
                .sum::<f32>(),
        })
        .sum::<f32>()
        .sqrt()
}

/// The AdamW optimizer (decoupled weight decay).
#[derive(Clone, Debug)]
pub struct AdamW {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    /// Optional global-norm gradient clipping threshold.
    pub max_grad_norm: Option<f32>,
    /// Step counter (used for bias correction).
    t: u64,
    /// The buffers of the last step's row-sparse sums.
    spare: Vec<RowBuffers>,
}

impl AdamW {
    /// Creates an AdamW optimizer with the common defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`, `weight_decay = 0.01`).
    pub fn new(lr: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            max_grad_norm: Some(5.0),
            t: 0,
            spare: Vec::new(),
        }
    }

    /// Sets the weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Sets (or disables) gradient clipping.
    pub fn with_max_grad_norm(mut self, norm: Option<f32>) -> Self {
        self.max_grad_norm = norm;
        self
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to every parameter bound on `tape` that received a gradient.
    pub fn step(&mut self, tape: &Tape, grads: &Gradients) {
        let summed = summed_gradients(tape, grads, &mut self.spare);
        if summed.is_empty() {
            return;
        }
        // Clipping multiplies every gradient element by `scale` inside the update instead
        // of materialising scaled copies; 1.0 (an exact no-op) when nothing is clipped.
        let mut scale = 1.0;
        if let Some(max_norm) = self.max_grad_norm {
            let norm = global_norm(&summed);
            if norm > max_norm && norm > 0.0 {
                scale = max_norm / norm;
            }
        }
        self.t += 1;
        let t = self.t as f32;
        let step = StepScalars {
            scale,
            bias1: 1.0 - self.beta1.powf(t),
            bias2: 1.0 - self.beta2.powf(t),
        };
        for (param, g) in &summed {
            param.with_inner_mut(|inner| {
                let cols = inner.value.cols().max(1);
                let (w, m, v) = (
                    inner.value.data_mut(),
                    inner.m.data_mut(),
                    inner.v.data_mut(),
                );
                match g {
                    Summed::Dense(g) => self.update(w, m, v, g, step),
                    Summed::Rows { rows, grads } => {
                        // One walk over the table: touched rows take their summed
                        // gradient, every other row a zero gradient (its moments and
                        // weights still decay).
                        let zeros = vec![0.0; cols];
                        let mut touched = rows.iter().zip(grads.chunks_exact(cols)).peekable();
                        let state = w.chunks_exact_mut(cols).zip(m.chunks_exact_mut(cols));
                        for (r, ((w, m), v)) in state.zip(v.chunks_exact_mut(cols)).enumerate() {
                            let g = touched.next_if(|&(&row, _)| row == r);
                            self.update(w, m, v, g.map_or(&zeros, |(_, g)| g), step);
                        }
                    }
                }
            });
        }
        // Handed back last first, so each table takes the same buffers next step.
        for (_, g) in summed.into_iter().rev() {
            if let Summed::Rows { rows, grads } = g {
                self.spare.push((rows, grads));
            }
        }
    }

    /// The fused AdamW update of one parameter (or one row of it) with gradient
    /// `g * step.scale`: a single zipped pass over the weight, moment and gradient
    /// slices — no bounds checks, no temporaries. Per element it is the textbook formula,
    /// term for term what the loop this replaced (`tests::update_reference`) computes.
    fn update(&self, w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], step: StepScalars) {
        assert!(
            w.len() == g.len() && m.len() == g.len() && v.len() == g.len(),
            "AdamW: gradient shape mismatch"
        );
        for (((w, m), v), g) in w.iter_mut().zip(m).zip(v).zip(g) {
            let g = g * step.scale;
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / step.bias1;
            let v_hat = *v / step.bias2;
            *w -= self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * *w);
        }
    }
}

/// What one step applies to every element alike: the clip scale on the gradient and the
/// two bias corrections.
#[derive(Clone, Copy)]
struct StepScalars {
    scale: f32,
    bias1: f32,
    bias2: f32,
}

/// One training step, written once: a [`Tape`] kept from step to step and the [`AdamW`]
/// that updates the parameters each step binds on it.
///
/// Each step resets the tape, so every node value, gradient and backward temporary is
/// a buffer the tape already holds once the largest step has run; the gradient of
/// every node that is not a leaf goes back to the tape as soon as its backward arm has
/// run.
pub struct Trainer {
    tape: Tape,
    optimizer: AdamW,
    times: StepTimes,
}

/// Where the last [`Trainer::step`] spent its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimes {
    /// Recording the loss on the tape: the forward pass.
    pub forward: Duration,
    /// Differentiating it.
    pub backward: Duration,
    /// The optimizer update.
    pub update: Duration,
}

impl Trainer {
    /// A trainer that updates with `optimizer`.
    pub fn new(optimizer: AdamW) -> Self {
        Trainer {
            tape: Tape::new(),
            optimizer,
            times: StepTimes::default(),
        }
    }

    /// One step: records the loss `build` returns on the reset tape, differentiates it,
    /// updates every parameter bound on the tape that received a gradient, and returns
    /// the loss.
    ///
    /// # Panics
    /// Panics when the loss is not a `1 x 1` node.
    pub fn step(&mut self, build: impl FnOnce(&mut Tape) -> VarId) -> f32 {
        let start = Instant::now();
        self.tape.reset();
        let loss = build(&mut self.tape);
        let built = Instant::now();
        let grads = self.tape.backward_to_leaves(loss);
        let differentiated = Instant::now();
        self.optimizer.step(&self.tape, &grads);
        self.tape.recycle(grads);
        self.times = StepTimes {
            forward: built - start,
            backward: differentiated - built,
            update: differentiated.elapsed(),
        };
        self.tape.scalar(loss)
    }

    /// Where the last step spent its time.
    pub fn times(&self) -> StepTimes {
        self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::param_gradient;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-element loop [`AdamW::update`] replaced, kept as its bit-for-bit oracle.
    fn update_reference(
        opt: &AdamW,
        value: &mut [f32],
        moment1: &mut [f32],
        moment2: &mut [f32],
        grad: &[f32],
        step: StepScalars,
    ) {
        for i in 0..grad.len() {
            let g = grad[i] * step.scale;
            let m = opt.beta1 * moment1[i] + (1.0 - opt.beta1) * g;
            let v = opt.beta2 * moment2[i] + (1.0 - opt.beta2) * g * g;
            moment1[i] = m;
            moment2[i] = v;
            let m_hat = m / step.bias1;
            let v_hat = v / step.bias2;
            let w = value[i];
            let update = opt.lr * (m_hat / (v_hat.sqrt() + opt.eps) + opt.weight_decay * w);
            value[i] = w - update;
        }
    }

    /// Minimizes `sum((w - target)^2)` and checks that the optimizer converges.
    fn optimize(
        mut step: impl FnMut(&Tape, &Gradients),
        param: &Param,
        target: &Matrix,
        iters: usize,
    ) -> f32 {
        let mut last = f32::MAX;
        for _ in 0..iters {
            let mut tape = Tape::new();
            let w = tape.param(param);
            let t = tape.constant(target.clone());
            let diff = tape.sub(w, t);
            let sq = tape.pow2(diff);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            step(&tape, &grads);
            last = tape.scalar(loss);
        }
        last
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let param = Param::new("w", Matrix::zeros(2, 2));
        let target = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let mut opt = AdamW::new(0.05).with_weight_decay(0.0);
        let loss = optimize(|t, g| opt.step(t, g), &param, &target, 400);
        assert!(loss < 1e-3, "loss did not converge: {loss}");
        assert!(param.value().approx_eq(&target, 0.05));
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient_signal() {
        let param = Param::new("w", Matrix::full(1, 1, 4.0));
        let mut opt = AdamW::new(0.1).with_weight_decay(0.1);
        for _ in 0..50 {
            let mut tape = Tape::new();
            let w = tape.param(&param);
            // Loss that ignores the parameter value: constant gradient of zero.
            let z = tape.scale(w, 0.0);
            let loss = tape.sum_all(z);
            let grads = tape.backward(loss);
            opt.step(&tape, &grads);
        }
        assert!(param.value().get(0, 0) < 4.0);
    }

    #[test]
    fn shared_parameter_gradients_are_summed() {
        // Binding the same parameter twice must double the gradient.
        let param = Param::new("w", Matrix::full(1, 1, 1.0));
        let mut tape = Tape::new();
        let a = tape.param(&param);
        let b = tape.param(&param);
        let s = tape.add(a, b);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let collected = summed_gradients(&tape, &grads, &mut Vec::new());
        assert_eq!(collected.len(), 1);
        assert!(matches!(&collected[0].1, Summed::Dense(g) if g[..] == [2.0]));
    }

    /// A `rows x cols` parameter with random weights and non-trivial moments.
    fn random_param(name: &str, rows: usize, cols: usize, rng: &mut StdRng) -> Param {
        let param = Param::new(name, Matrix::random_normal(rows, cols, 1.0, rng));
        param.with_inner_mut(|inner| {
            inner.m = Matrix::random_normal(rows, cols, 0.1, rng);
            inner.v = Matrix::random_normal(rows, cols, 0.1, rng).map(|x| x * x);
        });
        param
    }

    /// A loss that binds `table` by rows and `weight` whole, `times` each, every binding
    /// with its own random upstream gradient (`sum(binding ⊙ constant)`).
    fn bind_many(
        tape: &mut Tape,
        table: &Param,
        weight: &Param,
        times: usize,
        rng: &mut StdRng,
    ) -> usize {
        let mut loss = tape.constant(Matrix::zeros(1, 1));
        let (vocab, cols) = table.shape();
        for _ in 0..times {
            let ids: Vec<usize> = (0..5).map(|_| rng.gen_range(0..vocab)).collect();
            let rows = tape.param_rows(table, &ids);
            let w = tape.param(weight);
            for (leaf, shape) in [(rows, (ids.len(), cols)), (w, weight.shape())] {
                let upstream = tape.constant(Matrix::random_normal(shape.0, shape.1, 1.0, rng));
                let weighted = tape.mul(leaf, upstream);
                let part = tape.sum_all(weighted);
                loss = tape.add(loss, part);
            }
        }
        loss
    }

    fn state_bits(param: &Param) -> Vec<u32> {
        param.with_inner(|inner| {
            let all = [&inner.value, &inner.m, &inner.v];
            all.iter()
                .flat_map(|x| x.data())
                .map(|x| x.to_bits())
                .collect()
        })
    }

    /// [`AdamW::step`] by its definition: each parameter's dense gradient
    /// ([`param_gradient`]) through [`update_reference`], whole parameter at a time. The
    /// clip norm is [`global_norm`]'s, which
    /// `summed_gradients_match_the_dense_definition_bit_for_bit` pins separately.
    fn reference_step(opt: &mut AdamW, tape: &Tape, grads: &Gradients, params: &[&Param]) {
        let mut scale = 1.0;
        if let Some(max_norm) = opt.max_grad_norm {
            let norm = global_norm(&summed_gradients(tape, grads, &mut Vec::new()));
            if norm > max_norm && norm > 0.0 {
                scale = max_norm / norm;
            }
        }
        opt.t += 1;
        let t = opt.t as f32;
        let step = StepScalars {
            scale,
            bias1: 1.0 - opt.beta1.powf(t),
            bias2: 1.0 - opt.beta2.powf(t),
        };
        for param in params {
            let g = param_gradient(tape, grads, param);
            param.with_inner_mut(|inner| {
                let (w, m, v) = (
                    inner.value.data_mut(),
                    inner.m.data_mut(),
                    inner.v.data_mut(),
                );
                update_reference(opt, w, m, v, g.data(), step);
            });
        }
    }

    #[test]
    fn fused_step_equals_the_per_element_loop_bit_for_bit() {
        // Same seed twice: one pair of parameters through `AdamW::step`, an identical
        // pair through the reference step — clipping off, active and inactive, each
        // parameter bound 1, 2 and 48 times, whole and by rows (9 columns: off the
        // 8-lane grid of `sum_squares`).
        for times in [1usize, 2, 48] {
            for clip in [None, Some(0.05), Some(1e9)] {
                let run = |fused: bool| {
                    let mut rng = StdRng::seed_from_u64(40 + times as u64);
                    let table = random_param("table", 11, 9, &mut rng);
                    let weight = random_param("w", 9, 4, &mut rng);
                    let mut opt = AdamW::new(0.01).with_max_grad_norm(clip);
                    for _ in 0..3 {
                        let mut tape = Tape::new();
                        let loss = bind_many(&mut tape, &table, &weight, times, &mut rng);
                        let grads = tape.backward(loss);
                        if fused {
                            opt.step(&tape, &grads);
                        } else {
                            reference_step(&mut opt, &tape, &grads, &[&weight, &table]);
                        }
                    }
                    (state_bits(&table), state_bits(&weight))
                };
                assert_eq!(run(true), run(false), "bound {times}x, clip {clip:?}");
            }
        }
    }

    #[test]
    fn summed_gradients_match_the_dense_definition_bit_for_bit() {
        // Accumulation (whole and row-sparse) against `gradcheck::param_gradient`, the
        // plain dense sum over bindings in binding order; and the clip norm of the
        // row-sparse form against the norm of its dense expansion.
        for times in [1usize, 2, 48] {
            let mut rng = StdRng::seed_from_u64(7 + times as u64);
            let table = random_param("table", 11, 9, &mut rng);
            let weight = random_param("w", 9, 4, &mut rng);
            let mut tape = Tape::new();
            let loss = bind_many(&mut tape, &table, &weight, times, &mut rng);
            let grads = tape.backward(loss);
            let summed = summed_gradients(&tape, &grads, &mut Vec::new());
            assert_eq!(summed.len(), 2);
            let mut dense_norm = 0.0f32;
            for (param, g) in &summed {
                let expected = param_gradient(&tape, &grads, param);
                let got = match g {
                    Summed::Dense(g) => g.to_vec(),
                    Summed::Rows { rows, grads } => {
                        assert!(
                            rows.windows(2).all(|w| w[0] < w[1]),
                            "rows ascend, distinct"
                        );
                        let mut dense = Matrix::zeros(expected.rows(), expected.cols());
                        for (&r, g) in rows.iter().zip(grads.chunks_exact(expected.cols())) {
                            dense.row_mut(r).copy_from_slice(g);
                        }
                        dense_norm += (0..dense.rows())
                            .map(|r| sum_squares(dense.row(r)))
                            .sum::<f32>();
                        dense.data().to_vec()
                    }
                };
                if !matches!(g, Summed::Rows { .. }) {
                    dense_norm += sum_squares(&got);
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(expected.data()),
                    "{} x{times}",
                    param.name()
                );
            }
            assert_eq!(global_norm(&summed).to_bits(), dense_norm.sqrt().to_bits());
        }
    }

    #[test]
    fn a_parameter_bound_whole_and_by_rows_sums_both() {
        let table = Param::new("t", Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32));
        let mut tape = Tape::new();
        let whole = tape.param(&table);
        let rows = tape.param_rows(&table, &[2, 2]);
        let a = tape.sum_all(whole);
        let b = tape.sum_all(rows);
        let loss = tape.add(a, b);
        let grads = tape.backward(loss);
        let summed = summed_gradients(&tape, &grads, &mut Vec::new());
        let expected = param_gradient(&tape, &grads, &table);
        assert_eq!(expected.data(), &[1.0, 1.0, 1.0, 1.0, 3.0, 3.0]);
        match &summed[0].1 {
            Summed::Rows { rows, grads } => {
                assert_eq!(rows, &[0, 1, 2]);
                assert_eq!(grads, expected.data());
            }
            _ => panic!("a row binding makes the sum row-sparse"),
        }
    }

    #[test]
    fn gradient_clipping_limits_update_magnitude() {
        let param = Param::new("w", Matrix::full(1, 1, 0.0));
        let mut opt = AdamW::new(1.0)
            .with_weight_decay(0.0)
            .with_max_grad_norm(Some(0.001));
        let mut tape = Tape::new();
        let w = tape.param(&param);
        let huge = tape.scale(w, 1e6);
        let offset = tape.constant(Matrix::full(1, 1, 1e6));
        let shifted = tape.add(huge, offset);
        let loss = tape.sum_all(shifted);
        let grads = tape.backward(loss);
        opt.step(&tape, &grads);
        // With clipping, a single Adam step is bounded by roughly lr regardless of raw grad,
        // and must be finite.
        assert!(param.value().get(0, 0).is_finite());
    }
}
