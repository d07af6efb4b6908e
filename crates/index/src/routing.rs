//! Per-shard routing statistics: skip shards that provably cannot reach the top-k.
//!
//! Every shard of a [`crate::ShardedCosineIndex`] carries a [`RoutingStats`] summary of
//! its live rows — their **centroid** and a **radius** (an upper bound on the distance
//! from any live row to that centroid). Because every indexed row is L2-normalized,
//! these two numbers yield a cheap, *admissible* upper bound on the best cosine score
//! any row of the shard can achieve against a normalized query `q̂`:
//!
//! ```text
//! q̂ · x  =  q̂ · c + q̂ · (x − c)
//!        ≤  q̂ · c + ‖q̂‖ · ‖x − c‖        (Cauchy–Schwarz)
//!        ≤  q̂ · c + r                      (‖q̂‖ ≤ 1, ‖x − c‖ ≤ r for live rows)
//! ```
//!
//! During `knn_join`, shards are visited in order of decreasing bound; once every
//! per-query selector holds `k` candidates, a shard whose bound (plus the
//! dimension-scaled float slack of [`RoutingStats::prune_slack`]) is below every
//! query's current `k`-th best score is **skipped entirely** — and a skipped shard
//! that was spilled to disk is never even read back, which is what makes routing and
//! disk spill multiplicative.
//!
//! ## Why the bound is admissible (results never change)
//!
//! * The bound is evaluated in `f64` against the exact `f32` centroid/radius, then
//!   padded by [`RoutingStats::prune_slack`] before comparison. The slack grows with
//!   the vector dimension because the `f32` accumulation error of the scoring kernel
//!   does too (~`dim · 2⁻²⁴` worst case for normalized rows, one multiply-add chain of
//!   length `dim`); the slack keeps a greater-than-6x margin over that at every
//!   dimension, so a kernel-computed score can never exceed its shard's padded bound.
//! * Skipping uses a **strict** `<` against the current worst retained score: a row
//!   tying the worst score could still displace it via the smaller-id tie-break, so
//!   ties are never pruned.
//! * Statistics may be *stale in the safe direction*. Removals leave them untouched: a
//!   centroid/radius over a superset of the live rows still satisfies `‖x − c‖ ≤ r`
//!   for every survivor. Appends update them incrementally ([`RoutingStats::append`]):
//!   the centroid moves to the exact mean of the new superset (tracked by an `f64`
//!   running sum), and the radius is *inflated* by the centroid displacement
//!   (`‖x − c_new‖ ≤ ‖x − c_old‖ + ‖c_old − c_new‖` for every old row) and maxed with
//!   the new rows' exact distances — an upper bound that only ever loosens, never
//!   undercuts. `compact()` recomputes exact (tight) statistics from scratch.
//!
//! A pruned shard therefore contains no row that could enter any query's final top-k,
//! so pruning is invisible in results — `crates/index/tests/routing_props.rs` proves
//! this across duplicate-row corpora, near-tie scores, and all-/none-pruned extremes.
//!
//! ## The quantization-error term ([`RoutingStats::quant_scan_epsilon`])
//!
//! Quantized shards ([`crate::QuantizedMatrix`]) add a second, *within-shard* bound:
//! the approximate i8 scores of the first-stage scan may only be used to **select**
//! rescore candidates, never to rank results, and the selection threshold must be
//! padded by an admissible bound on how far an approximate score can sit from the
//! exact one. Writing the quantized query as `q̂ = t·c_q + e_q` and a stored row as
//! `x = s·c_r + e_r`:
//!
//! ```text
//! q̂·x − t·s·(c_q·c_r)  =  e_q·x + (q̂ − e_q)·e_r
//! |q̂·x − t·s·(c_q·c_r)| ≤ ‖e_q‖·‖x‖ + (‖q̂‖ + ‖e_q‖)·‖e_r‖
//!                       ≤ q_err·max_row_norm + (q_norm + q_err)·max_err_norm
//! ```
//!
//! All four norms are *measured* during quantization and rounded **up** into `f32`,
//! so the right-hand side can only overestimate. [`RoutingStats::quant_scan_epsilon`]
//! evaluates it in `f64` and adds [`RoutingStats::prune_slack`] on top, which covers
//! both the f32 kernel accumulation of the exact scores and the rounding of the
//! approximate product `(t·s·idot)` — the integer dot `idot` itself is exact. The
//! shard-level prune above needs **no** extra term: selectors only ever hold exact
//! (rescored) scores, so the worst-retained thresholds it compares against are the
//! same ones the dense build produces.

use std::ops::Range;

use sudowoodo_nn::matrix::Matrix;

/// Centroid + radius summary of a shard's rows (see the module docs).
///
/// The summary covers a *superset* of the live rows (removals do not shrink it until
/// the next exact [`RoutingStats::compute`]), which keeps the bound admissible while
/// making removal O(1).
#[derive(Clone, Debug, Default)]
pub struct RoutingStats {
    /// Mean of the covered (normalized) rows; empty when no rows are covered.
    centroid: Vec<f32>,
    /// Upper bound on `‖x − centroid‖` over covered rows `x`.
    radius: f32,
    /// Exact running sum of the covered rows (drives incremental centroid updates).
    sum: Vec<f64>,
    /// Number of covered rows (live rows plus not-yet-compacted tombstones).
    counted: usize,
}

impl RoutingStats {
    /// Absolute slack added to a shard's upper bound before comparing against retained
    /// scores, as a function of the vector dimension.
    ///
    /// Cosine scores live in `[-1, 1]`, so an absolute pad works. The floor of `1e-4`
    /// dominates every constant-size rounding step in the bound itself; the `4e-7`
    /// per-dimension term covers the scoring kernel's accumulation error. A score is one
    /// fused multiply-add chain of length `dim`, each step rounding by at most half an
    /// ulp of a partial sum whose magnitude stays at most 1 for normalized rows, so the
    /// worst case grows like `dim · 2⁻²⁴ ≈ dim · 6e-8` — a margin of more than 6x at any
    /// dimension (TF-IDF corpora route vectors with tens of thousands of dimensions
    /// through this bound). The cost is pruning power nobody misses: a shard within
    /// `1e-4 + dim·4e-7` of the top-k threshold was going to be scored anyway on
    /// realistic score gaps.
    pub fn prune_slack(dim: usize) -> f32 {
        1e-4 + dim as f32 * 4e-7
    }

    /// Computes exact statistics over the live rows of a shard matrix.
    ///
    /// `deleted[i]` tombstones row `i`; only rows `0..deleted.len()` are real (trailing
    /// matrix rows are zero padding). Accumulation runs in `f64` and the radius is
    /// rounded *up* when narrowed to `f32`, keeping the bound admissible.
    pub fn compute(matrix: &Matrix, deleted: &[bool]) -> RoutingStats {
        let dim = matrix.cols();
        let live = deleted.iter().filter(|d| !**d).count();
        if live == 0 || dim == 0 {
            return RoutingStats::default();
        }
        let mut sum = vec![0.0f64; dim];
        for (row, _) in deleted.iter().enumerate().filter(|(_, d)| !**d) {
            for (s, &x) in sum.iter_mut().zip(matrix.row(row)) {
                *s += x as f64;
            }
        }
        let centroid: Vec<f32> = sum.iter().map(|s| (s / live as f64) as f32).collect();
        let mut radius_sq = 0.0f64;
        for (row, _) in deleted.iter().enumerate().filter(|(_, d)| !**d) {
            radius_sq = radius_sq.max(dist_sq(matrix.row(row), &centroid));
        }
        // Round up so the f32 radius always dominates the f64 maximum.
        let radius = (radius_sq.sqrt() as f32).next_up();
        RoutingStats {
            centroid,
            radius,
            sum,
            counted: live,
        }
    }

    /// Folds freshly appended matrix rows into the statistics in O(new rows × dim) —
    /// no rescan of the existing rows.
    ///
    /// The centroid moves to the exact mean of the enlarged row set (the `f64` running
    /// sum makes this drift-free); the radius is inflated by the centroid displacement
    /// to keep covering the old rows, then maxed with the new rows' exact distances.
    /// The result is an upper bound that can only be looser than a from-scratch
    /// [`RoutingStats::compute`] — admissible by construction; `compact()` re-tightens.
    pub fn append(&mut self, matrix: &Matrix, rows: Range<usize>) {
        if rows.is_empty() || matrix.cols() == 0 {
            return;
        }
        let dim = matrix.cols();
        if self.counted == 0 {
            self.centroid = vec![0.0; dim];
            self.radius = 0.0;
            self.sum = vec![0.0; dim];
        }
        for row in rows.clone() {
            for (s, &x) in self.sum.iter_mut().zip(matrix.row(row)) {
                *s += x as f64;
            }
        }
        let old_counted = self.counted;
        self.counted += rows.len();
        let new_centroid: Vec<f32> = self
            .sum
            .iter()
            .map(|s| (s / self.counted as f64) as f32)
            .collect();
        // Old rows: ‖x − c_new‖ ≤ ‖x − c_old‖ ≤ r_old, shifted by ‖c_old − c_new‖.
        let mut radius = if old_counted == 0 {
            0.0f64
        } else {
            self.radius as f64 + dist_sq(&self.centroid, &new_centroid).sqrt()
        };
        // New rows: exact distances to the new centroid.
        for row in rows {
            radius = radius.max(dist_sq(matrix.row(row), &new_centroid).sqrt());
        }
        self.centroid = new_centroid;
        self.radius = (radius as f32).next_up();
    }

    /// Decomposes the statistics into `(centroid, radius, sum, counted)` for the
    /// snapshot manifest ([`crate::snapshot`]). Persisting the `f64` running sum keeps
    /// post-load [`RoutingStats::append`] updates exactly as tight as they would have
    /// been without the save/load round trip.
    pub(crate) fn snapshot_parts(&self) -> (&[f32], f32, &[f64], usize) {
        (&self.centroid, self.radius, &self.sum, self.counted)
    }

    /// Rebuilds statistics from manifest-recorded parts (inverse of
    /// [`RoutingStats::snapshot_parts`]). The caller (the snapshot loader) is trusted:
    /// these are the exact fields a save wrote, so the bound stays admissible.
    pub(crate) fn from_snapshot_parts(
        centroid: Vec<f32>,
        radius: f32,
        sum: Vec<f64>,
        counted: usize,
    ) -> RoutingStats {
        RoutingStats {
            centroid,
            radius,
            sum,
            counted,
        }
    }

    /// The distance bound from a covered row to the centroid.
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// The centroid of the covered rows (empty when no rows are covered).
    pub fn centroid(&self) -> &[f32] {
        &self.centroid
    }

    /// Upper bound on the cosine score any covered row can reach against query `q`
    /// whose inverse norm is `inv_norm` (the same `q * inv` scaling the scoring path
    /// uses).
    ///
    /// Returns `f32::NEG_INFINITY` for an empty shard, which any selector threshold
    /// prunes.
    pub fn upper_bound(&self, query: &[f32], inv_norm: f32) -> f32 {
        if self.centroid.is_empty() {
            return f32::NEG_INFINITY;
        }
        let mut dot = 0.0f64;
        for (&q, &c) in query.iter().zip(self.centroid.iter()) {
            dot += q as f64 * c as f64;
        }
        (dot * inv_norm as f64) as f32 + self.radius
    }

    /// Admissible bound on `|exact − approx|` for one (query, shard) pair of the
    /// two-stage quantized scan (see the module docs for the derivation).
    ///
    /// * `query_norm` / `query_err_norm` — measured `‖q̂‖` and `‖q̂ − t·c_q‖` of the
    ///   quantized (pre-normalized) query, from [`crate::QuantizedRow`];
    /// * `max_err_norm` / `max_row_norm` — the shard's worst-row reconstruction error
    ///   and magnitude, from [`crate::QuantizedMatrix`].
    ///
    /// Every input was rounded *up* when measured, the arithmetic here runs in `f64`,
    /// and [`RoutingStats::prune_slack`] is added on top to absorb the f32 rescore
    /// kernels' accumulation error and the rounding of the approximate product — so a
    /// row whose approximate score falls more than this far below a threshold provably
    /// has an exact score below that threshold and can be skipped without rescoring.
    pub fn quant_scan_epsilon(
        query_norm: f32,
        query_err_norm: f32,
        max_err_norm: f32,
        max_row_norm: f32,
        dim: usize,
    ) -> f64 {
        let reconstruction = (query_norm as f64 + query_err_norm as f64) * max_err_norm as f64
            + query_err_norm as f64 * max_row_norm as f64;
        reconstruction + Self::prune_slack(dim) as f64
    }
}

/// Squared Euclidean distance between two `f32` slices, accumulated in `f64`.
fn dist_sq(a: &[f32], b: &[f32]) -> f64 {
    let mut d2 = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let diff = x as f64 - y as f64;
        d2 += diff * diff;
    }
    d2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalize(mut v: Vec<f32>) -> Vec<f32> {
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= n;
        }
        v
    }

    fn shard_matrix(rows: &[Vec<f32>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    fn assert_bound_dominates(stats: &RoutingStats, rows: &[Vec<f32>], dim: usize) {
        for qi in 0..25 {
            let q: Vec<f32> = (0..dim)
                .map(|j| ((qi * dim + j) as f32 * 0.37).sin() * 1.5)
                .collect();
            let norm: f32 = q.iter().map(|x| x * x).sum::<f32>().sqrt();
            let inv = 1.0 / norm;
            let bound = stats.upper_bound(&q, inv);
            for row in rows {
                let score: f32 = row.iter().zip(q.iter()).map(|(a, b)| a * b).sum::<f32>() * inv;
                assert!(
                    score <= bound + RoutingStats::prune_slack(dim),
                    "row score {score} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn bound_dominates_every_live_row_score() {
        let rows: Vec<Vec<f32>> = (0..17)
            .map(|i| {
                normalize(vec![
                    (i as f32 * 0.37).sin(),
                    (i as f32 * 0.61).cos(),
                    (i as f32 * 0.13).sin() + 0.2,
                    1.0,
                ])
            })
            .collect();
        let deleted = vec![false; rows.len()];
        let stats = RoutingStats::compute(&shard_matrix(&rows), &deleted);
        assert_bound_dominates(&stats, &rows, 4);
    }

    #[test]
    fn incremental_append_stays_admissible_and_dominates_exact_compute() {
        let dim = 6;
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                normalize(
                    (0..dim)
                        .map(|j| ((i * dim + j) as f32 * 0.23).sin())
                        .collect(),
                )
            })
            .collect();
        let matrix = shard_matrix(&rows);
        // Fold the rows in as four uneven appends, the way add_batch does.
        let mut stats = RoutingStats::default();
        for range in [0..3, 3..4, 4..21, 21..40] {
            stats.append(&matrix, range.clone());
            let covered = &rows[..range.end];
            assert_bound_dominates(&stats, covered, dim);
            // The incremental radius may only be looser than the exact one.
            let exact = RoutingStats::compute(&shard_matrix(covered), &vec![false; covered.len()]);
            assert!(
                stats.radius() >= exact.radius() - RoutingStats::prune_slack(dim),
                "incremental radius {} undercuts exact {}",
                stats.radius(),
                exact.radius()
            );
        }
    }

    #[test]
    fn prune_slack_scales_with_dimension() {
        assert!(RoutingStats::prune_slack(0) >= 1e-4);
        // The slack must keep a >6x margin over the kernel's worst-case accumulation
        // error (~dim * 2^-24, one multiply-add chain of length dim over normalized
        // rows) at every dimension, including TF-IDF-sized ones.
        for dim in [4usize, 64, 1024, 50_000, 1_000_000] {
            let kernel_error = dim as f32 * 2.0f32.powi(-24);
            assert!(
                RoutingStats::prune_slack(dim) > 6.0 * kernel_error,
                "slack too small at dim {dim}"
            );
        }
    }

    #[test]
    fn duplicate_rows_shrink_the_radius_to_zero() {
        let row = normalize(vec![0.6, 0.8, 0.1]);
        let rows = vec![row.clone(); 6];
        let stats = RoutingStats::compute(&shard_matrix(&rows), &[false; 6]);
        assert!(
            stats.radius() <= 1e-6,
            "radius {} should be ~0",
            stats.radius()
        );
        // The bound at radius ~0 equals the exact score of the duplicated row.
        let bound = stats.upper_bound(&row, 1.0);
        let score: f32 = row.iter().map(|x| x * x).sum();
        assert!((bound - score).abs() <= 1e-5);
    }

    #[test]
    fn stale_stats_over_a_superset_remain_admissible() {
        let rows: Vec<Vec<f32>> = vec![
            normalize(vec![1.0, 0.0, 0.0]),
            normalize(vec![0.0, 1.0, 0.0]),
            normalize(vec![0.6, 0.8, 0.0]),
        ];
        // Stats computed before the removal…
        let stats = RoutingStats::compute(&shard_matrix(&rows), &[false; 3]);
        // …must still bound the scores of the two surviving rows.
        let q = vec![0.3f32, -0.2, 0.9];
        let inv = 1.0 / q.iter().map(|x| x * x).sum::<f32>().sqrt();
        let bound = stats.upper_bound(&q, inv);
        for row in &rows[..2] {
            let score: f32 = row.iter().zip(q.iter()).map(|(a, b)| a * b).sum::<f32>() * inv;
            assert!(score <= bound + RoutingStats::prune_slack(3));
        }
    }

    #[test]
    fn quant_scan_epsilon_dominates_the_true_approximation_error() {
        use crate::storage::{QuantizedMatrix, QuantizedRow};
        let dim = 24;
        // Adversarial rows: mixed magnitudes, a huge-scale outlier, a zero row.
        let mut rows: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.29).sin() * (1.0 + (i % 7) as f32))
                    .collect()
            })
            .collect();
        rows.push(vec![0.0; dim]);
        rows.push((0..dim).map(|j| if j == 3 { 1e6 } else { 1e-3 }).collect());
        let matrix = shard_matrix(&rows);
        let quant = QuantizedMatrix::quantize(&matrix);
        for qi in 0..20 {
            let q: Vec<f32> = (0..dim)
                .map(|j| ((qi * dim + j) as f32 * 0.41).cos() * 2.0)
                .collect();
            let norm: f32 = q.iter().map(|x| x * x).sum::<f32>().sqrt();
            let q_hat: Vec<f32> = q.iter().map(|x| x / norm).collect();
            let qq = QuantizedRow::from_row(&q_hat);
            let eps = RoutingStats::quant_scan_epsilon(
                qq.norm,
                qq.err_norm,
                quant.max_err_norm(),
                quant.max_row_norm(),
                dim,
            );
            for (r, row) in rows.iter().enumerate() {
                let exact: f64 = q_hat
                    .iter()
                    .zip(row.iter())
                    .map(|(&a, &b)| a as f64 * b as f64)
                    .sum();
                let idot: i64 = qq
                    .codes
                    .iter()
                    .zip(quant.code_row(r))
                    .map(|(&a, &b)| a as i64 * b as i64)
                    .sum();
                let approx = (qq.scale as f64) * (quant.scale(r) as f64) * idot as f64;
                assert!(
                    (exact - approx).abs() <= eps,
                    "row {r} query {qi}: |{exact} - {approx}| exceeds epsilon {eps}"
                );
            }
        }
    }

    #[test]
    fn empty_shard_bounds_at_negative_infinity() {
        let stats = RoutingStats::compute(&Matrix::zeros(0, 4), &[]);
        assert_eq!(
            stats.upper_bound(&[1.0, 0.0, 0.0, 0.0], 1.0),
            f32::NEG_INFINITY
        );
        let all_deleted = RoutingStats::compute(
            &shard_matrix(&[normalize(vec![1.0, 0.0, 0.0, 0.0])]),
            &[true],
        );
        assert_eq!(
            all_deleted.upper_bound(&[1.0, 0.0, 0.0, 0.0], 1.0),
            f32::NEG_INFINITY
        );
    }
}
