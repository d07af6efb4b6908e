//! Equivalence of the GEMM-tiled `knn_join` with the scalar per-query path.
//!
//! The blocking stage's candidate sets must not depend on which execution path (tiled
//! GEMM vs per-query dot scan) produced them: for every query, the neighbor **id sets**
//! must be identical, the ordering contract (score desc, id asc) must hold, and scores
//! must agree to float tolerance. A from-scratch scalar reference (no kernels at all)
//! anchors both paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_index::{CosineIndex, TopK};
use sudowoodo_nn::matrix::Matrix;

fn random_vectors(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Ground-truth top-k per query: plain f32 loops, no SIMD, no tiling, no heaps.
fn reference_knn(corpus: &[Vec<f32>], queries: &[Vec<f32>], k: usize) -> Vec<Vec<(usize, f32)>> {
    let normalized: Vec<Vec<f32>> = corpus
        .iter()
        .map(|v| {
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                v.iter().map(|x| x / norm).collect()
            } else {
                v.clone()
            }
        })
        .collect();
    queries
        .iter()
        .map(|q| {
            let qnorm: f32 = q.iter().map(|x| x * x).sum::<f32>().sqrt();
            let inv = if qnorm > 1e-12 { 1.0 / qnorm } else { 0.0 };
            let mut scored: Vec<(usize, f32)> = normalized
                .iter()
                .enumerate()
                .map(|(id, v)| {
                    let dot: f32 = v.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
                    (id, dot * inv)
                })
                .collect();
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            scored.truncate(k);
            scored
        })
        .collect()
}

#[test]
fn gemm_tiled_knn_join_matches_one_query_joins_across_query_tiles() {
    let mut rng = StdRng::seed_from_u64(5);
    // 700 corpus rows x 300 queries crosses several 256-row query tiles.
    let corpus = random_vectors(700, 32, &mut rng);
    let queries = random_vectors(300, 32, &mut rng);
    let k = 10;
    let index = CosineIndex::build(corpus);

    let joined = index.knn_join(&queries, k);
    assert_eq!(joined.len(), queries.len() * k);

    for (qi, q) in queries.iter().enumerate() {
        let from_join: Vec<(usize, f32)> = joined
            .iter()
            .filter(|(i, _, _)| *i == qi)
            .map(|&(_, id, s)| (id, s))
            .collect();
        let from_scalar: Vec<(usize, f32)> = index
            .knn_join(std::slice::from_ref(q), k)
            .into_iter()
            .map(|(_, id, s)| (id, s))
            .collect();

        let join_ids: Vec<usize> = from_join.iter().map(|p| p.0).collect();
        let scalar_ids: Vec<usize> = from_scalar.iter().map(|p| p.0).collect();
        assert_eq!(join_ids, scalar_ids, "query {qi}: neighbor ids diverged");
        for (a, b) in from_join.iter().zip(from_scalar.iter()) {
            assert!(
                (a.1 - b.1).abs() < 1e-5,
                "query {qi}: score mismatch {} vs {}",
                a.1,
                b.1
            );
        }
    }
}

#[test]
fn both_paths_match_a_from_scratch_reference() {
    let mut rng = StdRng::seed_from_u64(6);
    let corpus = random_vectors(300, 24, &mut rng);
    let queries = random_vectors(90, 24, &mut rng);
    let k = 7;
    let index = CosineIndex::build(corpus.clone());
    let expected = reference_knn(&corpus, &queries, k);

    let joined = index.knn_join(&queries, k);
    for (qi, expected_hits) in expected.iter().enumerate() {
        let ids: Vec<usize> = joined
            .iter()
            .filter(|(i, _, _)| *i == qi)
            .map(|&(_, id, _)| id)
            .collect();
        let expected_ids: Vec<usize> = expected_hits.iter().map(|p| p.0).collect();
        assert_eq!(ids, expected_ids, "query {qi} diverged from reference");
    }
}

#[test]
fn knn_join_is_deterministic_across_runs() {
    let mut rng = StdRng::seed_from_u64(7);
    let corpus = random_vectors(400, 16, &mut rng);
    let queries = random_vectors(150, 16, &mut rng);
    let index = CosineIndex::build(corpus);
    let first = index.knn_join(&queries, 5);
    for _ in 0..3 {
        assert_eq!(index.knn_join(&queries, 5), first);
    }
}

/// The retired dense join, kept as the oracle of the strip walk: one full
/// `queries x corpus` score matrix through `matmul` against the transposed corpus, then
/// one `TopK::offer` per score.
fn full_tile_join(index: &CosineIndex, queries: &[Vec<f32>], k: usize) -> Vec<(usize, usize, f32)> {
    let q = Matrix::from_rows(queries);
    let sims = q.matmul(&index.matrix().transpose());
    let mut pairs = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        let norm: f32 = query.iter().map(|x| x * x).sum::<f32>().sqrt();
        let inv = if norm > 1e-12 { 1.0 / norm } else { 0.0 };
        let mut selector = TopK::new(k);
        for (id, &s) in sims.row(qi)[..index.len()].iter().enumerate() {
            selector.offer(id, s * inv);
        }
        pairs.extend(
            selector
                .into_sorted()
                .into_iter()
                .map(|h| (qi, h.id, h.score)),
        );
    }
    pairs
}

fn bits(pairs: &[(usize, usize, f32)]) -> Vec<(usize, usize, u32)> {
    pairs
        .iter()
        .map(|&(q, id, s)| (q, id, s.to_bits()))
        .collect()
}

#[test]
fn strip_walk_matches_the_full_tile_join_with_a_tie_across_a_strip_boundary() {
    // dim 64 makes a strip 1024 rows; 2 x 1024 + 3 rows is a multiple of neither the
    // strip nor the row group, so the walk ends in a short, zero-padded strip.
    let mut rng = StdRng::seed_from_u64(8);
    let (dim, n, k) = (64, 2 * 1024 + 3, 6);
    let mut corpus = random_vectors(n, dim, &mut rng);
    // Ten copies of one vector straddling the first strip boundary, and three in the
    // padded tail: every query near it ties on score, and the k = 6 smallest ids must
    // survive whichever strip or tile scored them.
    let twin = corpus[0].clone();
    for id in (1019..1029).chain(n - 3..n) {
        corpus[id] = twin.clone();
    }
    let mut queries = random_vectors(270, dim, &mut rng); // 256-query block + remainder
    queries[3] = twin.clone();
    queries[260] = twin.iter().map(|x| x * 2.5).collect();
    let index = CosineIndex::build(corpus);

    let joined = index.knn_join(&queries, k);
    assert_eq!(bits(&joined), bits(&full_tile_join(&index, &queries, k)));
    let tied: Vec<usize> = joined.iter().filter(|p| p.0 == 3).map(|p| p.1).collect();
    assert_eq!(tied, vec![0, 1019, 1020, 1021, 1022, 1023]);

    for (qi, q) in queries.iter().enumerate() {
        let from_join: Vec<(usize, u32)> = joined
            .iter()
            .filter(|p| p.0 == qi)
            .map(|p| (p.1, p.2.to_bits()))
            .collect();
        let single: Vec<(usize, u32)> = index
            .knn_join(std::slice::from_ref(q), k)
            .into_iter()
            .map(|(_, id, s)| (id, s.to_bits()))
            .collect();
        assert_eq!(
            from_join, single,
            "query {qi}: joined alone diverged from the batch join"
        );
    }
}

#[test]
fn one_query_joins_equal_the_batch_join_bit_for_bit_on_a_10k_corpus() {
    let mut rng = StdRng::seed_from_u64(9);
    let corpus = random_vectors(10_000, 32, &mut rng);
    let queries = random_vectors(40, 32, &mut rng);
    let index = CosineIndex::build(corpus);
    let joined = index.knn_join(&queries, 20);
    let singles: Vec<(usize, usize, f32)> = queries
        .iter()
        .enumerate()
        .flat_map(|(qi, q)| {
            index
                .knn_join(std::slice::from_ref(q), 20)
                .into_iter()
                .map(move |(_, id, score)| (qi, id, score))
        })
        .collect();
    assert_eq!(bits(&joined), bits(&singles));
}
