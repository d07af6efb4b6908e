//! Property tier for quantized shard storage: the i8 two-stage scan must be
//! **invisible** in results — ids and f32 score bits identical to the dense build —
//! no matter how adversarial the corpus is, and the routing report must prove the
//! quantized scan actually ran (the assertions would pass vacuously otherwise).
//!
//! The tier covers duplicate rows (maximal tie-breaking pressure), near-ties
//! (candidate ordering decided far below the quantization error), adversarial
//! per-row scale outliers (rows whose i8 reconstruction error is enormous),
//! clustered corpora under spill + routing, both routing extremes (all shards
//! pruned / no shard prunable), and the widened-candidate sufficiency argument
//! checked as an **explicit bound** over every (query, row) pair of the fixture —
//! not by sampling joins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_index::{
    CosineIndex, QuantSpec, QuantizedMatrix, QuantizedRow, RoutingStats, ShardedCosineIndex,
};
use sudowoodo_nn::Matrix;

fn random_vectors(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Builds a sharded index with quantization applied (and an optional residency
/// budget, so the quantized payloads live on disk in `SWSHARDQ1`).
fn quantized_index(
    corpus: &[Vec<f32>],
    capacity: usize,
    budget: Option<usize>,
    alpha: usize,
) -> ShardedCosineIndex {
    let mut index = ShardedCosineIndex::from_vectors(corpus, capacity);
    index.set_quantization(Some(QuantSpec { alpha }));
    index.set_memory_budget(budget);
    index.compact();
    assert_eq!(
        index.num_quantized_shards(),
        index.num_shards(),
        "every shard must re-encode as quantized after compact"
    );
    index
}

/// Asserts two join results are identical down to the f32 score bits.
fn assert_bit_identical(got: &[(usize, usize, f32)], expected: &[(usize, usize, f32)], ctx: &str) {
    assert_eq!(got.len(), expected.len(), "{ctx}: result size");
    for (g, e) in got.iter().zip(expected.iter()) {
        assert_eq!(
            (g.0, g.1, g.2.to_bits()),
            (e.0, e.1, e.2.to_bits()),
            "{ctx}: (query {}, id {}) scores {} vs {}",
            g.0,
            g.1,
            g.2,
            e.2
        );
    }
}

#[test]
fn duplicate_rows_are_tie_broken_identically_under_quantization() {
    // 30 distinct base rows, each repeated 4 times: every top-k is decided by the
    // id tie-break, the harshest regime for any approximate pre-filter because the
    // quantized scores of duplicates are *exactly* equal.
    let mut rng = StdRng::seed_from_u64(41);
    let base = random_vectors(30, 12, &mut rng);
    let mut corpus = Vec::new();
    for row in &base {
        for _ in 0..4 {
            corpus.push(row.clone());
        }
    }
    let queries = random_vectors(50, 12, &mut rng);
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 6);

    for capacity in [5usize, 17] {
        let index = quantized_index(&corpus, capacity, None, 2);
        let got = index.knn_join(&queries, 6);
        assert_bit_identical(&got, &expected, &format!("duplicates, capacity {capacity}"));
        let report = index.routing_report();
        assert!(
            report.quant_scans > 0,
            "the quantized scan must actually have run: {report:?}"
        );
        assert!(report.rescored_rows >= 6, "{report:?}");
    }
}

#[test]
fn near_ties_are_ordered_identically_under_quantization() {
    // Rows are microscopic perturbations (1e-6) of a handful of directions: exact
    // scores differ in the last few ulps, far below the quantization error, so the
    // ordering is decided entirely by the exact rescore stage.
    let mut rng = StdRng::seed_from_u64(42);
    let base = random_vectors(6, 16, &mut rng);
    let mut corpus = Vec::new();
    for _ in 0..40 {
        let b = &base[rng.gen_range(0..base.len())];
        corpus.push(
            b.iter()
                .map(|x| x + rng.gen_range(-1e-6f32..1e-6))
                .collect(),
        );
    }
    let queries = random_vectors(30, 16, &mut rng);
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 8);

    let index = quantized_index(&corpus, 7, None, 2);
    let got = index.knn_join(&queries, 8);
    assert_bit_identical(&got, &expected, "near-ties");
    assert!(index.routing_report().quant_scans > 0);
}

#[test]
fn adversarial_scale_outliers_stay_bit_identical() {
    // Per-row i8 scales span 12 orders of magnitude: tiny rows (1e-6), huge rows
    // (1e6), and rows with a single enormous coordinate that makes every *other*
    // coordinate quantize to zero — the reconstruction error is maximal, so the
    // candidate bound has to do real work. Cosine normalization means the answers
    // match the unscaled geometry regardless.
    let mut rng = StdRng::seed_from_u64(43);
    let dim = 16;
    let mut corpus = Vec::new();
    for i in 0..120 {
        let mut row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        match i % 4 {
            0 => row.iter_mut().for_each(|x| *x *= 1e-6),
            1 => row.iter_mut().for_each(|x| *x *= 1e6),
            2 => row[i % dim] = 3e5, // one dominant coordinate: coarsest codes
            _ => {}
        }
        corpus.push(row);
    }
    let queries = random_vectors(40, dim, &mut rng);
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 5);

    for alpha in [1usize, 2, 8] {
        let index = quantized_index(&corpus, 11, None, alpha);
        let got = index.knn_join(&queries, 5);
        assert_bit_identical(&got, &expected, &format!("scale outliers, alpha {alpha}"));
        let report = index.routing_report();
        assert!(
            report.quant_scans > 0 && report.rescored_rows > 0,
            "{report:?}"
        );
    }
}

#[test]
fn clustered_corpus_with_spill_and_routing_is_bit_identical() {
    // The routing-friendly shape: tight clusters, every shard spilled to the
    // SWSHARDQ1 on-disk format (budget 0), routing pruning on. The quantization
    // error term must keep the shard prune admissible while shards fault in.
    let mut rng = StdRng::seed_from_u64(44);
    let dim = 12;
    let centers = random_vectors(8, dim, &mut rng);
    let mut corpus = Vec::new();
    for _ in 0..400 {
        let c = &centers[rng.gen_range(0..centers.len())];
        corpus.push(
            c.iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect(),
        );
    }
    let queries = random_vectors(60, dim, &mut rng);
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 10);

    let index = quantized_index(&corpus, 32, Some(0), 2);
    assert_eq!(index.num_spilled_shards(), index.num_shards());
    let got = index.knn_join(&queries, 10);
    assert_bit_identical(&got, &expected, "clustered + spilled + routed");
    let report = index.routing_report();
    assert!(report.quant_scans > 0, "{report:?}");
    assert!(
        report.spill_faults > 0,
        "spilled shards must have faulted in"
    );
}

#[test]
fn routing_extreme_all_other_shards_pruned_still_runs_the_quantized_scan() {
    // Shard 0 holds the only plausible matches; every other shard is a tight
    // cluster pointing the opposite way. Routing must prune all of them, and the
    // report must show the one visited shard was scanned *quantized*.
    let dim = 8;
    let mut corpus = Vec::new();
    for i in 0..4 {
        let mut row = vec![0.0f32; dim];
        row[0] = 1.0;
        row[1] = 0.001 * i as f32; // near-duplicates of +e0
        corpus.push(row);
    }
    for i in 0..36 {
        let mut row = vec![0.0f32; dim];
        row[0] = -1.0;
        row[1] = 0.001 * (i % 7) as f32; // tight cluster at -e0
        corpus.push(row);
    }
    let queries = vec![{
        let mut q = vec![0.0f32; dim];
        q[0] = 1.0;
        q
    }];
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 2);

    let index = quantized_index(&corpus, 4, None, 2);
    assert_eq!(index.num_shards(), 10);
    let got = index.knn_join(&queries, 2);
    assert_bit_identical(&got, &expected, "all-pruned extreme");
    let report = index.routing_report();
    assert_eq!(
        (report.shards_visited, report.shards_pruned),
        (1, 9),
        "routing must prune every far shard: {report:?}"
    );
    assert_eq!(
        report.quant_scans, 1,
        "the single visited shard must have been scanned quantized: {report:?}"
    );
    assert!(report.rescored_rows >= 2, "{report:?}");
}

#[test]
fn routing_extreme_nothing_prunable_scans_every_shard_quantized() {
    // Every shard holds rows tied with the best score, so no shard's upper bound
    // can drop below the current worst: zero prunes, and the quantized scan must
    // have run once per shard (single query tile).
    let dim = 8;
    let mut row = vec![0.0f32; dim];
    row[0] = 1.0;
    let corpus = vec![row.clone(); 40];
    let queries = vec![row; 3];
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 3);

    let index = quantized_index(&corpus, 4, None, 2);
    assert_eq!(index.num_shards(), 10);
    let got = index.knn_join(&queries, 3);
    assert_bit_identical(&got, &expected, "none-pruned extreme");
    let report = index.routing_report();
    assert_eq!(report.shards_pruned, 0, "{report:?}");
    assert_eq!(
        report.quant_scans, 10,
        "every shard must have been scanned quantized: {report:?}"
    );
}

#[test]
fn widened_candidate_sufficiency_holds_as_an_explicit_bound() {
    // The admissibility proof, checked exhaustively rather than sampled:
    //
    // 1. For EVERY (query, row) pair, the approximate score is within
    //    `quant_scan_epsilon` of the true (f64) dot product — the reconstruction
    //    bound the two-stage scan relies on.
    // 2. For EVERY query, every true top-k row's approximate score clears the
    //    widened-candidate threshold `a_ref − 2·eps` (a_ref = the alpha·k-th best
    //    approximate score), so the exact rescore always sees the full true top-k.
    //
    // Together these prove the candidate rule can never drop a winner, which is
    // what makes the joint assertion "ids and score bits identical" in the other
    // tests a theorem rather than a lucky draw.
    let mut rng = StdRng::seed_from_u64(45);
    let dim = 24;
    let (k, alpha) = (5usize, 2usize);
    let k_wide = k * alpha;
    // Mixed-magnitude corpus, including scale outliers, as one "shard".
    let mut rows = Vec::new();
    for i in 0..80 {
        let mut row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        if i % 5 == 0 {
            row.iter_mut().for_each(|x| *x *= 1e4);
        }
        if i % 7 == 0 {
            row[0] = 2e4;
        }
        rows.push(row);
    }
    let matrix = Matrix::from_vec(rows.len(), dim, rows.concat());
    let quant = QuantizedMatrix::quantize(&matrix);

    for _ in 0..25 {
        let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let inv = 1.0f32 / query.iter().map(|x| x * x).sum::<f32>().sqrt();
        let normalized: Vec<f32> = query.iter().map(|x| x * inv).collect();
        let q = QuantizedRow::from_row(&normalized);
        let eps = RoutingStats::quant_scan_epsilon(
            q.norm,
            q.err_norm,
            quant.max_err_norm(),
            quant.max_row_norm(),
            dim,
        );

        let mut exact = Vec::with_capacity(quant.rows());
        let mut approx = Vec::with_capacity(quant.rows());
        for r in 0..quant.rows() {
            let row = matrix.row(r);
            let e: f64 = normalized
                .iter()
                .zip(row)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            let idot = Matrix::dot_i8(&q.codes, quant.code_row(r));
            let a = q.scale as f64 * quant.scale(r) as f64 * idot as f64;
            // Part 1: the reconstruction bound holds for every single row.
            assert!(
                (e - a).abs() <= eps,
                "row {r}: |{e} - {a}| = {} > eps {eps}",
                (e - a).abs()
            );
            exact.push(e);
            approx.push(a);
        }

        // Part 2: every true top-k row clears the widened-candidate threshold.
        let mut order: Vec<usize> = (0..quant.rows()).collect();
        order.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).unwrap().then(a.cmp(&b)));
        let mut by_approx: Vec<f64> = approx.clone();
        by_approx.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let a_ref = by_approx[k_wide - 1];
        for &r in &order[..k] {
            assert!(
                approx[r] >= a_ref - 2.0 * eps,
                "true top-{k} row {r} (exact {}) fell below the widened threshold: \
                 approx {} < a_ref {a_ref} - 2*eps {eps}",
                exact[r],
                approx[r]
            );
        }
    }
}

#[test]
fn alpha_is_invisible_in_results() {
    // The candidate-widening factor only trades scan work for rescore work; any
    // alpha (including the degenerate 1) must produce bit-identical joins.
    let mut rng = StdRng::seed_from_u64(46);
    let corpus = random_vectors(300, 16, &mut rng);
    let queries = random_vectors(80, 16, &mut rng);
    let expected = CosineIndex::build(corpus.clone()).knn_join(&queries, 7);
    for alpha in [1usize, 3, 50] {
        let index = quantized_index(&corpus, 23, None, alpha);
        let got = index.knn_join(&queries, 7);
        assert_bit_identical(&got, &expected, &format!("alpha {alpha}"));
    }
}
