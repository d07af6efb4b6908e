//! Property tests for the routing/spill layers: shard skipping and disk residency must
//! be **invisible in results**.
//!
//! The admissibility argument lives in `crate::routing`; these tests are the empirical
//! proof over adversarial corpora — duplicate rows (radius ~0, bounds tying true
//! scores), near-tie scores (1-ulp neighborhoods around the pruning threshold),
//! clustered corpora (the case routing is built for), and the all-pruned / none-pruned
//! extremes — across shard capacities and residency budgets, always comparing three
//! configurations that must agree exactly: dense, sharded+routing, and sharded+routing
//! with every shard spilled to disk.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_index::{CosineIndex, ShardedCosineIndex};

fn random_vectors(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// A corpus of `clusters` tight direction bundles — the workload shard routing is built
/// for once ingestion order correlates with content (here it does: cluster by cluster).
fn clustered_vectors(
    clusters: usize,
    per_cluster: usize,
    d: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f32>> {
    let centers = random_vectors(clusters, d, rng);
    let mut out = Vec::with_capacity(clusters * per_cluster);
    for center in &centers {
        for _ in 0..per_cluster {
            out.push(
                center
                    .iter()
                    .map(|&c| c + rng.gen_range(-0.05f32..0.05))
                    .collect(),
            );
        }
    }
    out
}

/// Asserts that every sharded configuration (routed / routed+fully-spilled) answers
/// `knn_join` **identically** — ids and scores — to the dense build.
fn assert_all_configurations_agree(
    corpus: &[Vec<f32>],
    queries: &[Vec<f32>],
    k: usize,
    capacity: usize,
    label: &str,
) {
    let dense = CosineIndex::build(corpus.to_vec());
    let expected = dense.knn_join(queries, k);

    let routed = ShardedCosineIndex::from_vectors(corpus, capacity);
    assert_eq!(
        routed.knn_join(queries, k),
        expected,
        "{label}: routed sharded diverged from dense"
    );

    let spilled = ShardedCosineIndex::from_vectors_with_budget(corpus, capacity, Some(0));
    assert_eq!(
        spilled.num_spilled_shards(),
        spilled.num_shards(),
        "{label}: zero budget must spill every shard"
    );
    assert_eq!(
        spilled.knn_join(queries, k),
        expected,
        "{label}: spilled+routed sharded diverged from dense"
    );
}

#[test]
fn routing_never_changes_results_on_seeded_random_corpora() {
    for seed in [31u64, 32, 33] {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = random_vectors(311, 12, &mut rng);
        let queries = random_vectors(67, 12, &mut rng);
        for capacity in [1usize, 13, 64, 311] {
            for k in [1usize, 5, 17] {
                assert_all_configurations_agree(
                    &corpus,
                    &queries,
                    k,
                    capacity,
                    &format!("seed {seed} capacity {capacity} k {k}"),
                );
            }
        }
    }
}

#[test]
fn routing_never_changes_results_with_duplicate_rows() {
    // Duplicate rows are the adversarial routing case: shard radii collapse to ~0 and
    // the upper bound *ties* the true score, so only the strict `<` (plus slack) in the
    // prune condition keeps id tie-breaks intact.
    let mut rng = StdRng::seed_from_u64(41);
    let base = random_vectors(23, 8, &mut rng);
    let mut corpus = Vec::new();
    for (i, v) in base.iter().enumerate() {
        for _ in 0..(1 + i % 5) {
            corpus.push(v.clone());
        }
    }
    // Queries are the duplicated rows themselves: every duplicate set is an exact tie.
    let queries: Vec<Vec<f32>> = base.iter().take(12).cloned().collect();
    for capacity in [1usize, 3, 7, corpus.len()] {
        assert_all_configurations_agree(
            &corpus,
            &queries,
            4,
            capacity,
            &format!("duplicates capacity {capacity}"),
        );
    }
}

#[test]
fn routing_never_changes_results_on_near_tie_scores() {
    // Rows that differ by ~1 ulp straddle the pruning threshold; any bound computed a
    // hair too low would flip a neighbor. Scores here cluster within float noise.
    let mut rng = StdRng::seed_from_u64(43);
    let direction: Vec<f32> = (0..10).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let corpus: Vec<Vec<f32>> = (0..200)
        .map(|i| {
            direction
                .iter()
                .enumerate()
                .map(|(j, &x)| x + ((i * 10 + j) as f32) * 1e-7)
                .collect()
        })
        .collect();
    let queries = vec![direction.clone(), corpus[57].clone(), corpus[199].clone()];
    for capacity in [4usize, 32, 200] {
        assert_all_configurations_agree(
            &corpus,
            &queries,
            8,
            capacity,
            &format!("near-ties capacity {capacity}"),
        );
    }
}

#[test]
fn routing_never_changes_results_on_clustered_corpora() {
    let mut rng = StdRng::seed_from_u64(47);
    let corpus = clustered_vectors(6, 40, 16, &mut rng);
    let queries = clustered_vectors(6, 3, 16, &mut rng);
    for capacity in [10usize, 40, 120] {
        assert_all_configurations_agree(
            &corpus,
            &queries,
            6,
            capacity,
            &format!("clusters capacity {capacity}"),
        );
    }
}

#[test]
fn all_pruned_extreme_skips_every_cold_shard() {
    // One shard aligned with the query, many orthogonal shards: after the aligned shard
    // fills the selectors, every other shard's bound is hopeless and must prune.
    let mut corpus: Vec<Vec<f32>> = (0..8).map(|i| vec![1.0, 1e-3 * i as f32, 0.0]).collect();
    for i in 0..80 {
        corpus.push(vec![0.0, 0.0, 1.0 + 1e-3 * (i % 7) as f32]);
    }
    let index = ShardedCosineIndex::from_vectors_with_budget(&corpus, 8, Some(0));
    index.reset_routing_report();
    let queries = vec![vec![1.0, 0.0, 0.0]];
    let hits = index.knn_join(&queries, 4);
    assert_eq!(
        hits.iter().map(|h| h.1).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    let report = index.routing_report();
    assert_eq!(
        report.shards_visited, 1,
        "only the aligned shard may be scored: {report:?}"
    );
    assert_eq!(
        report.shards_pruned,
        (index.num_shards() - 1) as u64,
        "all orthogonal shards must prune: {report:?}"
    );
    assert_eq!(
        report.spill_faults, 1,
        "pruned shards must never be read from disk: {report:?}"
    );
    // Transient faults never change residency: everything is still cold on disk.
    assert_eq!(index.num_spilled_shards(), index.num_shards());
}

#[test]
fn none_pruned_extreme_visits_every_shard() {
    // k >= corpus size: every row is in every top-k, so nothing may prune and every
    // shard must be visited (and, when spilled, faulted exactly once per query tile).
    let mut rng = StdRng::seed_from_u64(53);
    let corpus = random_vectors(30, 6, &mut rng);
    let queries = random_vectors(3, 6, &mut rng);
    let index = ShardedCosineIndex::from_vectors_with_budget(&corpus, 5, Some(0));
    index.reset_routing_report();
    let got = index.knn_join(&queries, corpus.len());
    assert_eq!(got.len(), queries.len() * corpus.len());
    let report = index.routing_report();
    assert_eq!(
        report.shards_pruned, 0,
        "nothing can prune at k = n: {report:?}"
    );
    assert_eq!(report.shards_visited, index.num_shards() as u64);
    assert_eq!(report.spill_faults, index.num_shards() as u64);
    let dense = CosineIndex::build(corpus.clone());
    assert_eq!(got, dense.knn_join(&queries, corpus.len()));
}

#[test]
fn streaming_mutations_keep_routing_admissible() {
    // Interleave add/remove (stale-but-admissible stats on spilled shards) and verify
    // against a dense rebuild of the survivors after every step.
    let mut rng = StdRng::seed_from_u64(59);
    let dim = 8;
    let queries = random_vectors(9, dim, &mut rng);
    let mut survivors: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut index = ShardedCosineIndex::new(6);
    index.set_memory_budget(Some(0));
    for step in 0..30 {
        match rng.gen_range(0..6) {
            0..=3 => {
                let batch = random_vectors(rng.gen_range(1..7), dim, &mut rng);
                let ids = index.add_batch(&batch);
                survivors.extend(ids.zip(batch.iter().cloned()));
            }
            4 if !survivors.is_empty() => {
                let victim = survivors[rng.gen_range(0..survivors.len())].0;
                index.remove(victim).expect("victim is live");
                survivors.retain(|(sid, _)| *sid != victim);
            }
            _ => {
                index.compact(); // re-applies the zero budget: everything spills again
            }
        }
        if survivors.is_empty() {
            continue;
        }
        let rows: Vec<Vec<f32>> = survivors.iter().map(|(_, v)| v.clone()).collect();
        let dense = CosineIndex::build(rows);
        let expected: Vec<(usize, usize, f32)> = dense
            .knn_join(&queries, 4)
            .into_iter()
            .map(|(q, pos, s)| (q, survivors[pos].0, s))
            .collect();
        assert_eq!(index.knn_join(&queries, 4), expected, "step {step}");
    }
}
