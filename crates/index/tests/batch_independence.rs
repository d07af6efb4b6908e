//! A score does not depend on the batch its query arrived in.
//!
//! The joins pack each query tile once and stream the corpus through the GEMM tile as
//! its left operand, so a query's scores are columns of a corpus-major product whose
//! width is the batch size: one query runs the 16-column tile with fifteen zero
//! columns, a 16-query batch fills it, a 256-query tile runs the 32-column tile. Every
//! score must still be the same multiply-add chain, so a query joined alone, in a
//! 16-query batch and in a 256-query tile gets the same ids and score bits — on the
//! dense, sharded and quantized (resident and spilled) joins, on every kernel arm the
//! host supports. Batches stay at 256 queries or fewer, so every join runs on the
//! calling thread, whose arm the test lowers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_index::{CosineIndex, QuantSpec, ShardedCosineIndex};
use sudowoodo_nn::matrix::for_each_supported_arm;

fn random_vectors(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

type Bits = Vec<(usize, usize, u32)>;

/// One layout's join at `k`.
type Join<'a> = &'a dyn Fn(&[Vec<f32>]) -> Vec<(usize, usize, f32)>;

/// The pairs of query `local` of a join's result, as `(query, id, score bits)` with the
/// query index rebased to `global`.
fn query_bits(pairs: &[(usize, usize, f32)], local: usize, global: usize) -> Bits {
    pairs
        .iter()
        .filter(|p| p.0 == local)
        .map(|&(_, id, score)| (global, id, score.to_bits()))
        .collect()
}

#[test]
fn a_query_scores_the_same_alone_in_16_and_in_256() {
    let mut rng = StdRng::seed_from_u64(30);
    let (dim, k) = (64, 10);
    let mut corpus = random_vectors(3_001, dim, &mut rng);
    let queries = random_vectors(256, dim, &mut rng);
    // Exact copies of some queries in the corpus: ties at the top of their lists.
    for (slot, q) in [(17usize, 3usize), (1_500, 200), (2_999, 255)] {
        corpus[slot] = queries[q].clone();
    }
    let dense = CosineIndex::build(corpus.clone());
    let sharded = ShardedCosineIndex::from_vectors(&corpus, 512);
    let quantized = |budget| {
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 512);
        index.set_quantization(Some(QuantSpec::default()));
        index.set_memory_budget(budget);
        index.compact();
        index
    };
    let (resident_q8, spilled_q8) = (quantized(None), quantized(Some(0)));
    assert_eq!(spilled_q8.num_spilled_shards(), spilled_q8.num_shards());

    let joins: [(&str, Join); 4] = [
        ("dense", &|q| dense.knn_join(q, k)),
        ("sharded", &|q| sharded.knn_join(q, k)),
        ("quantized", &|q| resident_q8.knn_join(q, k)),
        ("spilled quantized", &|q| spilled_q8.knn_join(q, k)),
    ];
    for_each_supported_arm(|arm| {
        let mut reference: Option<Vec<Bits>> = None;
        for (layout, join) in &joins {
            let tile = join(&queries);
            let per_query: Vec<Bits> = (0..queries.len())
                .map(|r| query_bits(&tile, r, r))
                .collect();
            for r in [0usize, 3, 15, 16, 100, 200, 255] {
                let alone = join(&queries[r..r + 1]);
                assert_eq!(
                    query_bits(&alone, 0, r),
                    per_query[r],
                    "{layout}: query {r} alone [{arm:?}]"
                );
                let group = r - r % 16;
                let batch = join(&queries[group..group + 16]);
                assert_eq!(
                    query_bits(&batch, r - group, r),
                    per_query[r],
                    "{layout}: query {r} in 16 [{arm:?}]"
                );
            }
            match &reference {
                None => reference = Some(per_query),
                Some(dense) => assert!(
                    *dense == per_query,
                    "{layout} differs from the dense join [{arm:?}]"
                ),
            }
        }
    });
}
