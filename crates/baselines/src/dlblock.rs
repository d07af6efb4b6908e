//! DL-Block-like blocking baseline (Figure 7 / Table VII comparison).
//!
//! DL-Block (Thirumuruganathan et al., VLDB 2021) is a deep-learning blocking framework that
//! embeds entities and retrieves nearest neighbours. Without pre-trained embeddings, this
//! re-implementation represents each entity with TF-IDF vectors and performs the same
//! kNN-join retrieval, which preserves the comparison the paper makes: Sudowoodo's
//! contrastively learned embeddings retrieve the same recall with a smaller candidate set
//! than a blocker whose representation is not trained for entity similarity.
//!
//! Retrieval goes through the sharded [`BlockingIndex`]: the right table is ingested into
//! fixed-capacity shards, one shard at a time, and each query tile is scored
//! shard-by-shard, so the baseline
//! scales past the point where the old `|A| x |B|` score matrix would have blown memory.
//! The index runs under a resident-memory budget ([`SHARD_MEMORY_BUDGET`]) — on corpora
//! whose densified TF-IDF matrix exceeds it, cold shards spill to a compact on-disk
//! format — and with routing-statistics shard skipping (on by default), which prunes
//! shards whose cosine upper bound cannot reach the top-k without faulting them back
//! from disk. Neither layer changes retrieval results.

use sudowoodo_cluster::tfidf::{add_into_dense, SparseVector, TfIdfVectorizer};
use sudowoodo_datasets::em::EmDataset;
use sudowoodo_index::{evaluate_blocking, BlockingIndex, BlockingQuality};
use sudowoodo_text::serialize::serialize_record;

/// Above this `rows * features` element count, densifying the TF-IDF vectors would
/// allocate too much; fall back to per-pair sparse dots. (The pairwise *score* matrix no
/// longer constrains the dense path: the sharded index scores `query-tile x shard` GEMM
/// blocks, never the full `|A| x |B|` product.)
const DENSE_SCORE_LIMIT: usize = 8_000_000;

/// Rows per shard of the TF-IDF blocking index. The shard is the unit of parallel GEMM
/// scoring and of ingestion, so it should comfortably exceed the 256-row query tile.
const SHARD_CAPACITY: usize = 2048;

/// Resident-memory budget (bytes) of the TF-IDF blocking index. Densified TF-IDF
/// corpora are the largest matrices the baseline builds; past this budget the
/// least-recently-used shards live on disk and only shards whose routing bound can
/// still reach the top-k are ever read back. Small enough to bound the baseline's
/// footprint on feature-heavy corpora, large enough that the paper-scale fixtures never
/// spill (so tests and benches stay IO-free).
pub const SHARD_MEMORY_BUDGET: usize = 16 * 1024 * 1024;

/// Densifies one sparse TF-IDF vector into a `features`-length row.
fn densify(v: &SparseVector, features: usize) -> Vec<f32> {
    let mut row = vec![0.0f32; features];
    add_into_dense(&mut row, v);
    row
}

/// A blocking run for one `k`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockingRun {
    /// Number of neighbours retrieved per left record.
    pub k: usize,
    /// Candidate-set quality.
    pub quality: BlockingQuality,
}

/// Runs the TF-IDF kNN blocker for a range of `k` values, returning one run per `k`.
pub fn run_dlblock_curve(dataset: &EmDataset, ks: &[usize]) -> Vec<BlockingRun> {
    let texts_a: Vec<String> = dataset.table_a.iter().map(serialize_record).collect();
    let texts_b: Vec<String> = dataset.table_b.iter().map(serialize_record).collect();
    let vectorizer = TfIdfVectorizer::fit(texts_a.iter().chain(texts_b.iter()).map(|s| s.as_str()));
    let vec_a = vectorizer.transform_all(texts_a.iter().map(|s| s.as_str()));
    let vec_b = vectorizer.transform_all(texts_b.iter().map(|s| s.as_str()));

    // Retrieve the top-max_k neighbours once, then take prefixes per k. When the feature
    // space densifies comfortably, retrieval is a sharded kNN join — rayon-parallel
    // `query-tile x shard^T` GEMM blocks with deterministic bounded-heap top-k selection,
    // so the full |A| x |B| score matrix is never materialized; otherwise fall back to
    // per-pair sparse dots.
    let max_k = *ks.iter().max().unwrap_or(&1);
    let features = vectorizer.num_features();
    let dense_ok = (vec_a.len().max(vec_b.len())).saturating_mul(features) <= DENSE_SCORE_LIMIT;
    let mut neighbours: Vec<Vec<(usize, f32)>> = Vec::with_capacity(vec_a.len());
    if dense_ok && features > 0 {
        let corpus_b: Vec<Vec<f32>> = vec_b.iter().map(|v| densify(v, features)).collect();
        let queries_a: Vec<Vec<f32>> = vec_a.iter().map(|v| densify(v, features)).collect();
        let index = BlockingIndex::build_with_options(
            corpus_b,
            Some(SHARD_CAPACITY),
            Some(SHARD_MEMORY_BUDGET),
            None,
        );
        neighbours.resize(vec_a.len(), Vec::new());
        // The join is ordered by query index, then descending score (ascending id ties).
        for (query, id, score) in index.knn_join(&queries_a, max_k) {
            neighbours[query].push((id, score));
        }
    } else {
        for a in &vec_a {
            let mut scored: Vec<(usize, f32)> = vec_b
                .iter()
                .enumerate()
                .map(|(j, b)| (j, sudowoodo_cluster::sparse_dot(a, b)))
                .collect();
            scored.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(max_k);
            neighbours.push(scored);
        }
    }

    ks.iter()
        .map(|&k| {
            let mut candidates = Vec::new();
            for (i, neigh) in neighbours.iter().enumerate() {
                for &(j, _) in neigh.iter().take(k) {
                    candidates.push((i, j));
                }
            }
            BlockingRun {
                k,
                quality: evaluate_blocking(
                    &candidates,
                    &dataset.gold_matches,
                    dataset.table_a.len(),
                    dataset.table_b.len(),
                ),
            }
        })
        .collect()
}

/// Convenience: the blocking quality at a single `k`.
pub fn run_dlblock(dataset: &EmDataset, k: usize) -> BlockingQuality {
    run_dlblock_curve(dataset, &[k])[0].quality
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudowoodo_datasets::em::EmProfile;

    #[test]
    fn recall_grows_with_k_and_candidates_scale_linearly() {
        let dataset = EmProfile::abt_buy().generate(0.15, 3);
        let runs = run_dlblock_curve(&dataset, &[1, 5, 10]);
        assert_eq!(runs.len(), 3);
        assert!(runs[0].quality.recall <= runs[1].quality.recall + 1e-6);
        assert!(runs[1].quality.recall <= runs[2].quality.recall + 1e-6);
        assert!(runs[2].quality.num_candidates >= 9 * runs[0].quality.num_candidates);
    }

    #[test]
    fn tfidf_blocking_achieves_reasonable_recall_on_clean_data() {
        let dataset = EmProfile::dblp_acm().generate(0.15, 5);
        let quality = run_dlblock(&dataset, 10);
        assert!(
            quality.recall > 0.8,
            "TF-IDF blocking should retrieve most clean matches, got {}",
            quality.recall
        );
        assert!(quality.cssr < 0.2);
    }
}
