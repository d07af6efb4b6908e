//! One search API over both blocking-index layouts.
//!
//! Pipelines choose the corpus layout with a single configuration value (dense for
//! static in-memory corpora, sharded for streaming/very large ones) and call the same
//! `knn_join` either way. Both layouts share normalization, kernels, and the
//! deterministic top-k selection contract, so switching layouts never changes results —
//! only the memory/ingestion profile.

use std::io;
use std::path::Path;

use crate::knn::CosineIndex;
use crate::sharded::{join_concatenated, JoinOutcome, QuantSpec, RemoveError, ShardedCosineIndex};
use crate::snapshot;

/// An exact cosine kNN index in either layout, behind the common search API.
///
/// # Examples
/// ```
/// use sudowoodo_index::BlockingIndex;
///
/// let corpus = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.8]];
/// let queries = vec![vec![1.0, 0.2]];
/// let dense = BlockingIndex::build(corpus.clone(), None);
/// let sharded = BlockingIndex::build(corpus, Some(2));
/// assert_eq!(dense.knn_join(&queries, 2), sharded.knn_join(&queries, 2));
/// ```
// The sharded variant is large (routing stats, cache, quantization state inline), but a
// process holds a handful of these at most — indirection would cost a pointer chase on
// every search for no measurable memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum BlockingIndex {
    /// The whole corpus as one row-major matrix ([`CosineIndex`]).
    Dense(CosineIndex),
    /// Fixed-capacity shards with streaming ingestion ([`ShardedCosineIndex`]).
    Sharded(ShardedCosineIndex),
}

impl BlockingIndex {
    /// Builds an index over `vectors`: dense when `shard_capacity` is `None`, sharded
    /// with the given per-shard row capacity otherwise.
    ///
    /// Ids are interchangeable between the two layouts for a from-scratch build: the
    /// sharded index assigns stable insertion ids `0..n`, which coincide with dense row
    /// positions.
    pub fn build(vectors: Vec<Vec<f32>>, shard_capacity: Option<usize>) -> Self {
        Self::build_with_options(vectors, shard_capacity, None, None)
    }

    /// Like [`BlockingIndex::build`], additionally applying a resident-memory budget
    /// (bytes of shard matrix payload) and the i8 quantized shard tier to the sharded
    /// layout. The sharded layout is built one shard at a time, dropping each of
    /// `vectors` once ingested; cold shards beyond the budget are spilled to disk as
    /// the build passes them (see [`ShardedCosineIndex::from_vectors_with_budget`]),
    /// and routing statistics keep pruned shards from ever being read back during
    /// searches; see [`ShardedCosineIndex::set_quantization`] for the two-stage scan
    /// and the bit-identical-results contract. The dense layout ignores both (one
    /// monolithic matrix can neither partially spill nor carry a second tier).
    pub fn build_with_options(
        vectors: Vec<Vec<f32>>,
        shard_capacity: Option<usize>,
        memory_budget: Option<usize>,
        quantization: Option<QuantSpec>,
    ) -> Self {
        let Some(capacity) = shard_capacity else {
            return Self::Dense(CosineIndex::build(vectors));
        };
        let index = ShardedCosineIndex::build(vectors, capacity, memory_budget, quantization);
        Self::Sharded(index)
    }

    /// Removes the vector with stable id `id` (sharded layout only).
    ///
    /// Both layouts answer through one error type so callers handle removal failures
    /// uniformly:
    ///
    /// # Errors
    /// * [`RemoveError::DenseImmutable`] — the dense layout cannot mutate;
    /// * [`RemoveError::NeverAssigned`] / [`RemoveError::AlreadyRemoved`] — the sharded
    ///   layout rejects ids it never handed out or already removed, leaving the index
    ///   unchanged either way.
    pub fn remove(&mut self, id: usize) -> Result<(), RemoveError> {
        match self {
            BlockingIndex::Dense(_) => Err(RemoveError::DenseImmutable),
            BlockingIndex::Sharded(index) => index.remove(id),
        }
    }

    /// Number of searchable vectors.
    pub fn len(&self) -> usize {
        match self {
            BlockingIndex::Dense(index) => index.len(),
            BlockingIndex::Sharded(index) => index.len(),
        }
    }

    /// Vector dimensionality (`0` while the index is empty and none was ever fixed).
    pub fn dim(&self) -> usize {
        match self {
            BlockingIndex::Dense(index) => index.dim(),
            BlockingIndex::Sharded(index) => index.dim(),
        }
    }

    /// Sets the query-batch cache capacity (cached batches; 0 disables) on the sharded
    /// layout — see [`ShardedCosineIndex::set_query_cache_capacity`]. The dense layout
    /// has no cache (it also has no mutation epoch to invalidate by) and ignores this.
    pub fn set_query_cache_capacity(&mut self, capacity: usize) {
        if let BlockingIndex::Sharded(index) = self {
            index.set_query_cache_capacity(capacity);
        }
    }

    /// Enables or disables the i8 quantized shard tier on the sharded layout — see
    /// [`ShardedCosineIndex::set_quantization`] (takes effect at the next compact; a
    /// cold-loaded snapshot serves its on-disk formats until then). Ignored by the
    /// dense layout.
    pub fn set_quantization(&mut self, spec: Option<QuantSpec>) {
        if let BlockingIndex::Sharded(index) = self {
            index.set_quantization(spec);
        }
    }

    /// Persists the index into `dir` in either layout — see
    /// [`ShardedCosineIndex::save_snapshot`] and [`crate::snapshot`]. The manifest
    /// records which layout was saved, so [`BlockingIndex::load_snapshot`] restores it
    /// without the caller knowing.
    pub fn save_snapshot(&self, dir: &Path) -> io::Result<()> {
        snapshot::save_blocking(self, dir)
    }

    /// Loads a snapshot written by [`BlockingIndex::save_snapshot`] in whichever layout
    /// it was saved: a sharded snapshot loads **cold** (shards stay on disk until
    /// queries or a [`ShardedCosineIndex::compact`] fault them in); a dense snapshot is
    /// one monolithic matrix and is read here.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_index::BlockingIndex;
    ///
    /// let dir = std::env::temp_dir().join(format!("swblk-doc-{}", std::process::id()));
    /// let corpus = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.8]];
    /// let index = BlockingIndex::build(corpus, Some(2));
    /// index.save_snapshot(&dir).unwrap();
    /// let loaded = BlockingIndex::load_snapshot(&dir).unwrap();
    /// let queries = vec![vec![1.0, 0.2]];
    /// assert_eq!(loaded.knn_join(&queries, 2), index.knn_join(&queries, 2));
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn load_snapshot(dir: &Path) -> io::Result<BlockingIndex> {
        snapshot::load_blocking(dir)
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retrieves, for every query, its `k` nearest indexed vectors as
    /// `(query_index, id, score)` candidate pairs.
    pub fn knn_join(&self, queries: &[Vec<f32>], k: usize) -> Vec<(usize, usize, f32)> {
        match self {
            BlockingIndex::Dense(index) => index.knn_join(queries, k),
            BlockingIndex::Sharded(index) => index.knn_join(queries, k),
        }
    }

    /// [`BlockingIndex::knn_join`] with the failure-model envelope — see
    /// [`ShardedCosineIndex::knn_join_report`]. The dense layout holds its whole
    /// corpus in memory and has no storage faults to degrade around, so its outcome
    /// is always complete (`degraded == false`).
    pub fn knn_join_report(&self, queries: &[Vec<f32>], k: usize) -> JoinOutcome {
        self.knn_join_batches(&[queries], k)
            .pop()
            .expect("one batch, one outcome")
    }

    /// Several query batches sharing `k`, answered as one job — see
    /// [`ShardedCosineIndex::knn_join_batches`]. The dense layout has no cache: it
    /// runs one join over the concatenated batches.
    ///
    /// # Panics
    /// Panics when a query's dimension disagrees with the index dimension.
    pub fn knn_join_batches(&self, batches: &[&[Vec<f32>]], k: usize) -> Vec<JoinOutcome> {
        match self {
            BlockingIndex::Dense(index) => join_concatenated(batches, |queries| JoinOutcome {
                pairs: index.knn_join(queries, k),
                ..JoinOutcome::default()
            }),
            BlockingIndex::Sharded(index) => index.knn_join_batches(batches, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_layouts_answer_identically() {
        let corpus: Vec<Vec<f32>> = (0..37)
            .map(|i| {
                let a = (i as f32 * 0.37).sin();
                let b = (i as f32 * 0.61).cos();
                vec![a, b, a * b, a - b]
            })
            .collect();
        let queries: Vec<Vec<f32>> = corpus.iter().take(9).cloned().collect();
        let dense = BlockingIndex::build(corpus.clone(), None);
        let sharded = BlockingIndex::build(corpus, Some(4));
        assert_eq!(dense.len(), sharded.len());
        assert!(!dense.is_empty());
        assert_eq!(dense.knn_join(&queries, 5), sharded.knn_join(&queries, 5));
        for q in queries.chunks(1) {
            assert_eq!(dense.knn_join(q, 3), sharded.knn_join(q, 3));
        }
    }

    #[test]
    fn remove_error_paths_are_unified_across_layouts() {
        let corpus = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.8]];
        let mut dense = BlockingIndex::build(corpus.clone(), None);
        let mut sharded = BlockingIndex::build(corpus, Some(2));

        // The dense layout is immutable and says so — it never silently diverges.
        assert_eq!(dense.remove(0), Err(RemoveError::DenseImmutable));
        assert_eq!(dense.len(), 3, "a failed remove must not change the index");

        // The sharded layout distinguishes the two failure modes, also non-destructively.
        assert_eq!(sharded.remove(1), Ok(()));
        assert_eq!(
            sharded.remove(1),
            Err(RemoveError::AlreadyRemoved { id: 1 })
        );
        assert_eq!(
            sharded.remove(7),
            Err(RemoveError::NeverAssigned { id: 7, next_id: 3 })
        );
        assert_eq!(sharded.len(), 2);
        assert!(!sharded.is_empty());
    }

    #[test]
    fn budgeted_build_spills_and_still_matches_dense() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus: Vec<Vec<f32>> = (0..41)
            .map(|i| {
                let a = (i as f32 * 0.23).sin();
                let b = (i as f32 * 0.47).cos();
                vec![a, b, a + b, a * b]
            })
            .collect();
        let queries: Vec<Vec<f32>> = corpus.iter().take(7).cloned().collect();
        let dense = BlockingIndex::build(corpus.clone(), None);
        let spilled = BlockingIndex::build_with_options(corpus, Some(4), Some(0), None);
        if let BlockingIndex::Sharded(index) = &spilled {
            assert_eq!(index.num_spilled_shards(), index.num_shards());
        } else {
            panic!("expected the sharded layout");
        }
        assert_eq!(dense.knn_join(&queries, 5), spilled.knn_join(&queries, 5));
    }
}
