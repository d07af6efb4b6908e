//! Acceptance test: sharded top-k equals dense top-k on identical input.
//!
//! `ShardedCosineIndex::knn_join` must return **identical neighbor id lists** (and scores
//! within 1e-6) to `CosineIndex::knn_join` across shard capacities `{1, 7, 64, n}` on a
//! 2k-query × 10k-corpus fixture — i.e. shard layout is invisible in results. The
//! equivalence is exact by construction (rows normalized once with the same op, shard
//! matrices padded so every row is scored by the same SIMD microkernel, one shared
//! selection order); this test is the proof on a realistically-sized workload.
//!
//! The storage/routing layers must be equally invisible: the same fixture also runs
//! with a tiny residency budget (every shard spilled to disk and faulted through the
//! routing filter) and must stay **id- and score-identical** to the dense layout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_index::{CosineIndex, QuantSpec, ShardedCosineIndex};

fn random_vectors(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

#[test]
fn sharded_knn_join_matches_dense_across_capacities_2k_x_10k() {
    let mut rng = StdRng::seed_from_u64(11);
    let dim = 16;
    let k = 10;
    let corpus = random_vectors(10_000, dim, &mut rng);
    let queries = random_vectors(2_000, dim, &mut rng);

    let dense = CosineIndex::build(corpus.clone());
    let expected = dense.knn_join(&queries, k);
    assert_eq!(expected.len(), queries.len() * k);

    for capacity in [1usize, 7, 64, corpus.len()] {
        let sharded = ShardedCosineIndex::from_vectors(&corpus, capacity);
        assert_eq!(sharded.num_shards(), corpus.len().div_ceil(capacity));
        let got = sharded.knn_join(&queries, k);
        assert_eq!(
            got.len(),
            expected.len(),
            "capacity {capacity}: result size"
        );
        for (g, e) in got.iter().zip(expected.iter()) {
            assert_eq!(
                (g.0, g.1),
                (e.0, e.1),
                "capacity {capacity}: (query, id) diverged (scores {} vs {})",
                g.2,
                e.2
            );
            assert!(
                (g.2 - e.2).abs() <= 1e-6,
                "capacity {capacity}: score diverged for query {} id {}: {} vs {}",
                g.0,
                g.1,
                g.2,
                e.2
            );
        }
    }
}

#[test]
fn spilled_and_routed_knn_join_matches_dense_2k_x_10k() {
    // The acceptance case for the storage/routing layers: spill forced by a tiny
    // residency budget (0 bytes — every shard on disk), routing pruning enabled
    // (default). Results must be id- AND score-identical to the dense layout.
    let mut rng = StdRng::seed_from_u64(11);
    let dim = 16;
    let k = 10;
    let corpus = random_vectors(10_000, dim, &mut rng);
    let queries = random_vectors(2_000, dim, &mut rng);

    let dense = CosineIndex::build(corpus.clone());
    let expected = dense.knn_join(&queries, k);

    for capacity in [64usize, 1024] {
        let sharded = ShardedCosineIndex::from_vectors_with_budget(&corpus, capacity, Some(0));
        assert_eq!(
            sharded.num_spilled_shards(),
            sharded.num_shards(),
            "capacity {capacity}: the zero budget must spill every shard"
        );
        let got = sharded.knn_join(&queries, k);
        assert_eq!(
            got, expected,
            "capacity {capacity}: spilled+routed join must be bit-identical to dense"
        );
        let report = sharded.routing_report();
        assert!(
            report.spill_faults <= report.shards_visited,
            "capacity {capacity}: faults cannot exceed visits ({report:?})"
        );
    }
}

#[test]
fn quantized_spilled_and_routed_knn_join_matches_dense_2k_x_10k() {
    // The acceptance case for the quantized tier: shards re-encoded as i8 codes +
    // exact residuals, every shard spilled to the SWSHARDQ1 on-disk format (budget
    // 0), routing pruning enabled. The two-stage scan (quantized candidate pass,
    // exact f32 rescore) must be **bit-identical** — ids AND score bits — to the
    // dense layout across shard capacities, and the report must prove the quantized
    // scan actually ran.
    let mut rng = StdRng::seed_from_u64(11);
    let dim = 16;
    let k = 10;
    let corpus = random_vectors(10_000, dim, &mut rng);
    let queries = random_vectors(2_000, dim, &mut rng);

    let dense = CosineIndex::build(corpus.clone());
    let expected = dense.knn_join(&queries, k);

    for capacity in [1usize, 7, 64] {
        let mut sharded = ShardedCosineIndex::from_vectors(&corpus, capacity);
        sharded.set_quantization(Some(QuantSpec::default()));
        sharded.set_memory_budget(Some(0));
        sharded.compact();
        assert_eq!(
            sharded.num_quantized_shards(),
            sharded.num_shards(),
            "capacity {capacity}: every shard must be quantized"
        );
        assert_eq!(
            sharded.num_spilled_shards(),
            sharded.num_shards(),
            "capacity {capacity}: the zero budget must spill every shard"
        );
        let got = sharded.knn_join(&queries, k);
        assert_eq!(
            got, expected,
            "capacity {capacity}: quantized+spilled+routed join must be bit-identical \
             to dense"
        );
        let report = sharded.routing_report();
        assert!(
            report.quant_scans > 0 && report.rescored_rows > 0,
            "capacity {capacity}: the quantized scan must actually have run: {report:?}"
        );
    }
}

#[test]
fn sharded_single_query_joins_match_dense() {
    let mut rng = StdRng::seed_from_u64(12);
    let corpus = random_vectors(500, 24, &mut rng);
    let queries = random_vectors(40, 24, &mut rng);
    let dense = CosineIndex::build(corpus.clone());
    for capacity in [1usize, 7, 64, corpus.len()] {
        let sharded = ShardedCosineIndex::from_vectors(&corpus, capacity);
        for (qi, q) in queries.iter().enumerate() {
            let one = std::slice::from_ref(q);
            let hits = |pairs: Vec<(usize, usize, f32)>| -> Vec<(usize, f32)> {
                pairs.into_iter().map(|(_, id, s)| (id, s)).collect()
            };
            let (d, s) = (hits(dense.knn_join(one, 9)), hits(sharded.knn_join(one, 9)));
            assert_eq!(
                d.iter().map(|p| p.0).collect::<Vec<_>>(),
                s.iter().map(|p| p.0).collect::<Vec<_>>(),
                "capacity {capacity}, query {qi}: ids diverged"
            );
            for (a, b) in d.iter().zip(s.iter()) {
                assert!((a.1 - b.1).abs() <= 1e-6, "capacity {capacity}, query {qi}");
            }
        }
    }
}

#[test]
fn sharded_join_is_deterministic_across_runs() {
    let mut rng = StdRng::seed_from_u64(13);
    let corpus = random_vectors(600, 16, &mut rng);
    let queries = random_vectors(200, 16, &mut rng);
    let index = ShardedCosineIndex::from_vectors(&corpus, 37);
    let first = index.knn_join(&queries, 5);
    for _ in 0..3 {
        assert_eq!(index.knn_join(&queries, 5), first);
    }
}
