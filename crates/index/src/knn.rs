//! Exact top-k cosine similarity search over dense vectors.
//!
//! Sudowoodo's blocking stage vectorizes every data item with the learned embedding model
//! and retrieves, for each left-table item, the `k` nearest right-table items as the
//! candidate set (§II-C step 2). The search is exact: the corpus is stored as **one
//! row-major matrix** of L2-normalized rows, and [`CosineIndex::knn_join`] walks it in
//! cache-sized strips: each query block (parallel over blocks) is scored against one
//! strip at a time through the fused `A * Bᵀ` kernel
//! ([`MatrixView::matmul_transpose_b_into`]) into one reused `block x strip` tile, and
//! every tile row is offered to that query's persistent [`TopK`] selector before the
//! next strip is touched — the corpus streams through cache once per block and no
//! `block x n` score matrix ever exists. Single-query [`CosineIndex::top_k`] is the
//! same walk with a one-row block.
//!
//! Neighbor selection is **deterministic**: ties on score break toward the smaller id, so
//! blocking candidate sets are bit-for-bit reproducible regardless of thread count.
//!
//! The corpus matrix is zero-padded to a multiple of the SIMD row-quad width, and strips
//! are whole row-quads, so every real row is scored in the kernel's `dot4` order whatever
//! the corpus size and wherever a strip boundary falls; this keeps per-row scores
//! bit-identical to [`crate::ShardedCosineIndex`] (which pads its shards the same way),
//! so the two layouts return identical neighbors even on exact ties.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rayon::prelude::*;
use sudowoodo_nn::matrix::{Matrix, MatrixView};

/// Number of query rows per block in [`CosineIndex::knn_join`]: the unit of
/// parallelism, and how many times each corpus strip is reused while it is hot.
const QUERY_TILE: usize = 256;

/// Corpus bytes per strip of the dense walk — the kernel's own strip length, so one call
/// is one pass over an L2-resident strip. At dim 64 that is 1024 rows and a 1 MiB
/// `256 x strip` score tile per block. Measured on the benchmark host (2 MiB L2, 100k x
/// 64 corpus, 512-query batches) 64 KiB to 2 MiB strips are within run-to-run noise of
/// each other and 32 KiB is slower; the constant is not a tuning knob.
const STRIP_BYTES: usize = 256 << 10;

/// Row-group width of the `A * B^T` microkernel: it scores corpus rows four at a time
/// (`dot4` order) and a trailing `n % 4` rows in a different order (`dot`). The corpus
/// matrix is padded with zero rows to a multiple of this so every real row is scored in
/// the four-at-a-time order regardless of corpus size — which keeps scores bit-identical
/// to the sharded index (whose shards are padded the same way) and independent of where
/// a row sits. It stays 4 however tall the kernel's register tiles get: it is the
/// *corpus-side* width of every tile, and changing it would change which rows fall in
/// the differently-rounded tail.
pub(crate) const ROW_GROUP: usize = 4;

/// A searchable collection of L2-normalized dense vectors.
#[derive(Clone, Debug)]
pub struct CosineIndex {
    /// Corpus as one row-major matrix with L2-normalized rows, zero-padded to a multiple
    /// of [`ROW_GROUP`] rows; only the first `len` rows are real.
    matrix: Matrix,
    /// Number of real (searchable) corpus rows.
    len: usize,
}

impl Default for CosineIndex {
    fn default() -> Self {
        CosineIndex {
            matrix: Matrix::zeros(0, 0),
            len: 0,
        }
    }
}

/// A single search hit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index of the hit within the indexed collection.
    pub id: usize,
    /// Cosine similarity to the query.
    pub score: f32,
}

/// Internal heap entry ordered so that the heap's top is the entry that should be evicted
/// first: the *lowest* score, ties broken toward the *largest* id (so the surviving set on
/// a tie is always the smallest ids — the deterministic selection contract).
#[derive(PartialEq)]
struct HeapEntry {
    score: f32,
    id: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: "greater" means "evict sooner" = lower score, then larger id.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A bounded top-k accumulator implementing the crate's deterministic selection contract:
/// the surviving set is the top `k` under the total order (score descending, id ascending).
///
/// Both the dense [`CosineIndex`] row selection and the sharded per-shard/merge selection
/// go through this type, so selection semantics cannot drift between the two paths. The
/// order in which candidates are offered does not affect the result — which is also why
/// it is public: a scatter-gather coordinator merging per-replica top-k lists through
/// this same selector produces results bit-identical to a single-process join.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Creates a selector retaining the best `k` candidates.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one candidate. Kept iff it beats the current worst under the total order
    /// (score descending, id ascending); NaN scores never displace an incumbent.
    pub fn offer(&mut self, id: usize, score: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry { score, id });
        } else if let Some(worst) = self.heap.peek() {
            if score > worst.score || (score == worst.score && id < worst.id) {
                self.heap.pop();
                self.heap.push(HeapEntry { score, id });
            }
        }
    }

    /// Offers one row of raw kernel scores: candidate `i` has id `id_of(i)` and score
    /// `scores[i] * inv`, and is skipped when `deleted` marks it. Exactly the per-score
    /// [`TopK::offer`] loop — same survivors, same heap — but once the selector is full
    /// a score is first compared with a local copy of the current worst, sixteen at a
    /// time without branches, and only a chunk holding a score that reaches it goes on
    /// to the heap; in a long scan that is almost no chunk. A NaN score, or a NaN worst,
    /// fails `>=` and is rejected, exactly as [`TopK::offer`] rejects it.
    pub(crate) fn offer_scaled_row(
        &mut self,
        scores: &[f32],
        inv: f32,
        id_of: impl Fn(usize) -> usize,
        deleted: Option<&[bool]>,
    ) {
        const CHUNK: usize = 16;
        if self.k == 0 {
            return;
        }
        let mut worst = self.worst_score_when_full();
        for (chunk_idx, chunk) in scores.chunks(CHUNK).enumerate() {
            if let Some(w) = worst {
                if !chunk.iter().fold(false, |hit, &raw| hit | (raw * inv >= w)) {
                    continue;
                }
            }
            for (j, &raw) in chunk.iter().enumerate() {
                let i = chunk_idx * CHUNK + j;
                let score = raw * inv;
                if worst.is_none_or(|w| score >= w) && !deleted.is_some_and(|d| d[i]) {
                    self.offer(id_of(i), score);
                    worst = self.worst_score_when_full();
                }
            }
        }
    }

    /// The retention capacity `k` this selector was created with.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// The `k`-th best score currently retained, or `None` while fewer than `k`
    /// candidates are held. This is the pruning threshold of the sharded index's
    /// routing layer: a shard whose score upper bound is strictly below this value for
    /// every query cannot change the selection.
    pub fn worst_score_when_full(&self) -> Option<f32> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|e| e.score)
        } else {
            None
        }
    }

    /// Consumes the selector, returning the survivors sorted by descending score
    /// (ascending id on ties). NaN scores — retained only while fewer than `k`
    /// candidates were offered — sort after every number, so the comparison stays a
    /// total order (`sort_by` may panic on one that is not).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut hits: Vec<Neighbor> = self
            .heap
            .into_iter()
            .map(|e| Neighbor {
                id: e.id,
                score: e.score,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or_else(|| a.score.is_nan().cmp(&b.score.is_nan()))
                .then_with(|| a.id.cmp(&b.id))
        });
        hits
    }
}

/// Validates that row `index` of a vector collection has the expected dimension, panicking
/// with the offending row index and the expected dimension otherwise.
///
/// Shared by [`CosineIndex::build`], [`CosineIndex::knn_join`], and the streaming
/// [`crate::ShardedCosineIndex`] ingestion path so every ragged-input error reads the same.
pub(crate) fn check_row_dim(context: &str, index: usize, actual: usize, expected: usize) {
    if actual != expected {
        panic!(
            "{context}: vector {index} has dimension {actual}, expected {expected} \
             (the dimension of the first indexed vector)"
        );
    }
}

/// Pads a row count up to the kernel row-group width — the one expression behind the
/// dense/sharded score-equivalence invariant, so it lives in exactly one place.
pub(crate) fn padded_rows(rows: usize) -> usize {
    rows.div_ceil(ROW_GROUP) * ROW_GROUP
}

/// Flattens one query block into a `block x dim` matrix plus per-query inverse norms
/// (with the `1e-12` zero-norm guard), validating every query's dimension.
///
/// Shared by [`CosineIndex::knn_join`] and [`crate::ShardedCosineIndex::knn_join`] so
/// tile packing and query normalization cannot drift between the two layouts.
pub(crate) fn pack_query_block(
    context: &str,
    base: usize,
    block: &[Vec<f32>],
    dim: usize,
) -> (Matrix, Vec<f32>) {
    let mut data = Vec::with_capacity(block.len() * dim);
    let mut inv_norms = Vec::with_capacity(block.len());
    for (qi, q) in block.iter().enumerate() {
        check_row_dim(context, base + qi, q.len(), dim);
        data.extend_from_slice(q);
        let norm: f32 = q.iter().map(|x| x * x).sum::<f32>().sqrt();
        inv_norms.push(if norm > 1e-12 { 1.0 / norm } else { 0.0 });
    }
    (Matrix::from_vec(block.len(), dim, data), inv_norms)
}

impl CosineIndex {
    /// Builds an index from vectors, L2-normalizing each one.
    ///
    /// An empty input produces an empty (searchable) index.
    ///
    /// # Panics
    /// Panics when the vectors have inconsistent dimensions, naming the offending row
    /// index and the expected dimension.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_index::CosineIndex;
    ///
    /// let index = CosineIndex::build(vec![
    ///     vec![1.0, 0.0],
    ///     vec![0.0, 1.0],
    ///     vec![0.8, 0.6],
    /// ]);
    /// assert_eq!(index.len(), 3);
    ///
    /// let hits = index.top_k(&[1.0, 0.1], 2);
    /// assert_eq!(hits[0].id, 0); // closest direction wins
    /// ```
    pub fn build(vectors: Vec<Vec<f32>>) -> Self {
        let Some(first) = vectors.first() else {
            return CosineIndex::default();
        };
        let dim = first.len();
        let len = vectors.len();
        // Pad the flat buffer directly while flattening — unlike `from_matrix`, no
        // second full-corpus copy is needed to reach the row-quad kernel width.
        let padded = padded_rows(len);
        let mut data = Vec::with_capacity(padded * dim);
        for (i, v) in vectors.iter().enumerate() {
            check_row_dim("CosineIndex::build", i, v.len(), dim);
            data.extend_from_slice(v);
        }
        data.resize(padded * dim, 0.0);
        let mut matrix = Matrix::from_vec(padded, dim, data);
        matrix.l2_normalize_rows_mut(); // pad rows are zero and stay zero
        CosineIndex { matrix, len }
    }

    /// Builds an index directly from an `n x dim` matrix of row vectors (one copy saved
    /// versus [`CosineIndex::build`] when embeddings already live in a matrix, unless
    /// `n` needs padding to the kernel row-group width).
    pub fn from_matrix(mut matrix: Matrix) -> Self {
        matrix.l2_normalize_rows_mut(); // in place: no second full-corpus allocation
        let len = matrix.rows();
        if !len.is_multiple_of(ROW_GROUP) {
            // Zero-pad so every real row is scored by the row-quad SIMD kernel (pad rows
            // never surface: selection only reads the first `len` similarity columns).
            let padded = padded_rows(len);
            let mut data = matrix.data().to_vec();
            data.resize(padded * matrix.cols(), 0.0);
            matrix = Matrix::from_vec(padded, matrix.cols(), data);
        }
        CosineIndex { matrix, len }
    }

    /// Rebuilds an index from a snapshot-loaded matrix whose rows are **already**
    /// normalized and padded ([`crate::snapshot`]). Skipping the second normalization
    /// is what keeps a snapshot round trip bit-identical (renormalizing an
    /// already-unit row divides by a norm within 1 ulp of 1.0 — and can move bits).
    pub(crate) fn from_normalized_parts(matrix: Matrix, len: usize) -> Self {
        CosineIndex { matrix, len }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.matrix.cols()
    }

    /// The normalized corpus matrix. Rows `len()..` (fewer than the kernel row-group
    /// width) are zero padding, not corpus rows.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Returns the `k` most similar indexed vectors to `query`, sorted by decreasing
    /// score (ties broken by ascending id).
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        check_row_dim("CosineIndex::top_k (query)", 0, query.len(), self.dim());
        let qnorm: f32 = query.iter().map(|x| x * x).sum::<f32>().sqrt();
        let inv = if qnorm > 1e-12 { 1.0 / qnorm } else { 0.0 };
        // The strip walk of `knn_join` with a one-row block: same kernel order per
        // score, so both APIs return identical neighbors on near-ties.
        let mut selector = [TopK::new(k)];
        self.offer_strips(
            &MatrixView::new(1, self.dim(), query),
            &[inv],
            &mut selector,
        );
        let [selector] = selector;
        selector.into_sorted()
    }

    /// Scores the query block `q` against the corpus strip by strip and offers every
    /// real row to the per-query `selectors` (`inv_norms[r]` scales query `r`'s scores).
    fn offer_strips(&self, q: &MatrixView<'_>, inv_norms: &[f32], selectors: &mut [TopK]) {
        let dim = self.dim();
        let padded = self.matrix.rows();
        let strip = (STRIP_BYTES / 4 / dim.max(1))
            .max(1)
            .next_multiple_of(ROW_GROUP);
        let mut tile = vec![0.0f32; q.rows() * strip.min(padded)];
        for start in (0..self.len).step_by(strip) {
            // Strips end on a row-quad (or on the padded end), so the kernel sees no
            // `n % 4` tail and scores every real row in the same order.
            let rows = strip.min(padded - start);
            let corpus = MatrixView::new(
                rows,
                dim,
                &self.matrix.data()[start * dim..(start + rows) * dim],
            );
            let tile = &mut tile[..q.rows() * rows];
            q.matmul_transpose_b_into(&corpus, tile);
            let real = rows.min(self.len - start);
            for ((selector, &inv), scores) in selectors
                .iter_mut()
                .zip(inv_norms)
                .zip(tile.chunks_exact(rows))
            {
                selector.offer_scaled_row(&scores[..real], inv, |i| start + i, None);
            }
        }
    }

    /// Retrieves, for every query vector, its `k` nearest indexed vectors, returning the
    /// candidate pair list `(query_index, indexed_index, score)`.
    ///
    /// Queries are processed as `QUERY_TILE` (256)-row blocks that fan out across
    /// threads; each block walks the corpus in cache-sized strips, scoring
    /// `Q_block * stripᵀ` and offering the scores to one persistent selector per query.
    /// Results are ordered by query index, then descending score (ascending id on
    /// ties) — identical to running [`CosineIndex::top_k`] per query.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_index::CosineIndex;
    ///
    /// let index = CosineIndex::build(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
    /// let pairs = index.knn_join(&[vec![2.0, 0.1], vec![0.1, 3.0]], 1);
    /// // (query index, corpus id, cosine similarity), one hit per query at k = 1.
    /// assert_eq!(pairs.len(), 2);
    /// assert_eq!((pairs[0].0, pairs[0].1), (0, 0));
    /// assert_eq!((pairs[1].0, pairs[1].1), (1, 1));
    /// ```
    pub fn knn_join(&self, queries: &[Vec<f32>], k: usize) -> Vec<(usize, usize, f32)> {
        if k == 0 || self.is_empty() || queries.is_empty() {
            return Vec::new();
        }
        let dim = self.dim();
        let per_block: Vec<Vec<(usize, usize, f32)>> = queries
            .par_chunks(QUERY_TILE)
            .enumerate()
            .map(|(block_idx, block)| {
                let base = block_idx * QUERY_TILE;
                let (q_block, inv_norms) =
                    pack_query_block("CosineIndex::knn_join (query)", base, block, dim);
                let mut selectors: Vec<TopK> = (0..block.len()).map(|_| TopK::new(k)).collect();
                self.offer_strips(&q_block.view(), &inv_norms, &mut selectors);
                let mut pairs = Vec::with_capacity(block.len() * k);
                for (r, selector) in selectors.into_iter().enumerate() {
                    let hits = selector.into_sorted();
                    pairs.extend(hits.into_iter().map(|h| (base + r, h.id, h.score)));
                }
                pairs
            })
            .collect();
        per_block.into_iter().flatten().collect()
    }
}

/// Evaluation of a blocking candidate set against gold matching pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockingQuality {
    /// Fraction of gold positive pairs retained in the candidate set.
    pub recall: f32,
    /// Candidate set size.
    pub num_candidates: usize,
    /// Candidate Set Size Ratio: `num_candidates / (|A| * |B|)`.
    pub cssr: f32,
}

/// Evaluates a candidate pair set produced by blocking.
///
/// `candidates` and `gold_positive_pairs` hold `(left, right)` id pairs; `left_size` and
/// `right_size` are the table cardinalities used for the CSSR denominator.
pub fn evaluate_blocking(
    candidates: &[(usize, usize)],
    gold_positive_pairs: &[(usize, usize)],
    left_size: usize,
    right_size: usize,
) -> BlockingQuality {
    use std::collections::HashSet;
    let candidate_set: HashSet<(usize, usize)> = candidates.iter().copied().collect();
    let retained = gold_positive_pairs
        .iter()
        .filter(|p| candidate_set.contains(p))
        .count();
    let recall = if gold_positive_pairs.is_empty() {
        1.0
    } else {
        retained as f32 / gold_positive_pairs.len() as f32
    };
    let total = (left_size * right_size).max(1);
    BlockingQuality {
        recall,
        num_candidates: candidate_set.len(),
        cssr: candidate_set.len() as f32 / total as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(v: &[f32]) -> Vec<f32> {
        v.to_vec()
    }

    #[test]
    fn top_k_returns_nearest_by_cosine() {
        let index = CosineIndex::build(vec![
            unit(&[1.0, 0.0]),
            unit(&[0.0, 1.0]),
            unit(&[0.7, 0.7]),
        ]);
        let hits = index.top_k(&[1.0, 0.1], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn top_k_handles_k_larger_than_collection() {
        let index = CosineIndex::build(vec![unit(&[1.0, 0.0]), unit(&[0.0, 1.0])]);
        assert_eq!(index.top_k(&[1.0, 1.0], 10).len(), 2);
        assert_eq!(index.top_k(&[1.0, 1.0], 0).len(), 0);
        assert_eq!(index.len(), 2);
        assert_eq!(index.dim(), 2);
        assert!(!index.is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = CosineIndex::build(Vec::new());
        assert!(index.is_empty());
        assert!(index.top_k(&[1.0], 3).is_empty());
        assert!(index.knn_join(&[vec![1.0]], 3).is_empty());
    }

    #[test]
    fn ragged_input_panics_with_offending_index_and_expected_dim() {
        let err = std::panic::catch_unwind(|| {
            CosineIndex::build(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 2.0, 3.0]])
        })
        .expect_err("ragged input must panic");
        let message = err
            .downcast_ref::<String>()
            .expect("panic payload is a formatted message");
        assert!(
            message.contains("CosineIndex::build: vector 2 has dimension 3, expected 2"),
            "unexpected ragged-input message: {message}"
        );
    }

    #[test]
    fn ragged_query_panics_with_offending_index_and_expected_dim() {
        let index = CosineIndex::build(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let err =
            std::panic::catch_unwind(|| index.knn_join(&[vec![1.0, 0.0], vec![1.0, 0.0, 3.0]], 1))
                .expect_err("ragged query must panic");
        let message = err
            .downcast_ref::<String>()
            .expect("panic payload is a formatted message");
        assert!(
            message.contains("CosineIndex::knn_join (query): vector 1 has dimension 3, expected 2"),
            "unexpected ragged-query message: {message}"
        );
    }

    #[test]
    fn zero_query_scores_zero() {
        let index = CosineIndex::build(vec![unit(&[1.0, 0.0])]);
        let hits = index.top_k(&[0.0, 0.0], 1);
        assert_eq!(hits[0].score, 0.0);
    }

    #[test]
    fn knn_join_produces_pairs_per_query() {
        let index = CosineIndex::build(vec![unit(&[1.0, 0.0]), unit(&[0.0, 1.0])]);
        let queries = vec![unit(&[1.0, 0.0]), unit(&[0.0, 1.0])];
        let pairs = index.knn_join(&queries, 1);
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 0));
        assert_eq!((pairs[1].0, pairs[1].1), (1, 1));
    }

    #[test]
    fn ties_break_toward_smaller_ids_deterministically() {
        // Four identical vectors: any top-2 has score 1.0 for all of them; the contract is
        // that the *smallest ids* survive, in ascending order.
        let v = unit(&[0.6, 0.8]);
        let index = CosineIndex::build(vec![v.clone(), v.clone(), v.clone(), v.clone()]);
        let hits = index.top_k(&v, 2);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1]);
        let pairs = index.knn_join(&[v], 2);
        assert_eq!(pairs.iter().map(|p| p.1).collect::<Vec<_>>(), vec![0, 1]);
    }

    /// `into_sorted` output as comparable (id, score bits) pairs.
    fn sorted_bits(selector: TopK) -> Vec<(usize, u32)> {
        let hits = selector.into_sorted();
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    #[test]
    fn bulk_offer_selects_exactly_what_per_score_offers_select() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..400 {
            let n = rng.gen_range(1usize..90);
            // Scores from a handful of values: heavy exact ties, some NaN, -0.0 vs 0.0.
            let palette = [0.25f32, 0.5, 0.5, -0.0, 0.0, 0.75, f32::NAN, -1.0, 1.0];
            let rows: Vec<Vec<f32>> = (0..rng.gen_range(1usize..5))
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            if case % 3 == 0 {
                                rng.gen_range(-1.0f32..1.0)
                            } else {
                                palette[rng.gen_range(0..palette.len())]
                            }
                        })
                        .collect()
                })
                .collect();
            // Ids in no particular order (a query's rescore list), distinct per row.
            let mut ids: Vec<usize> = (0..n * rows.len()).map(|i| i * 3 + 1).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let deleted: Vec<bool> = (0..n).map(|_| rng.gen_range(0..4) == 0).collect();
            let mask = (case % 2 == 0).then_some(deleted.as_slice());
            let inv = [1.0f32, 0.37, 0.0][case % 3];
            for k in [0usize, 1, 20, n * rows.len() + 5] {
                let mut bulk = TopK::new(k);
                let mut single = TopK::new(k);
                // Several rows into one selector, like the strips of a corpus: later
                // rows meet a full heap and take the pre-filtered path.
                for (r, row) in rows.iter().enumerate() {
                    let row_ids = &ids[r * n..(r + 1) * n];
                    bulk.offer_scaled_row(row, inv, |i| row_ids[i], mask);
                    for (i, &raw) in row.iter().enumerate() {
                        if !mask.is_some_and(|d| d[i]) {
                            single.offer(row_ids[i], raw * inv);
                        }
                    }
                }
                assert_eq!(sorted_bits(bulk), sorted_bits(single), "case {case}, k {k}");
            }
        }
    }

    #[test]
    fn from_matrix_matches_build() {
        let rows = vec![unit(&[3.0, 4.0]), unit(&[1.0, 0.0])];
        let a = CosineIndex::build(rows.clone());
        let m = Matrix::from_rows(&[rows[0].clone(), rows[1].clone()]);
        let b = CosineIndex::from_matrix(m);
        assert_eq!(a.top_k(&[1.0, 1.0], 2), b.top_k(&[1.0, 1.0], 2));
    }

    #[test]
    fn blocking_evaluation_computes_recall_and_cssr() {
        let candidates = vec![(0, 0), (0, 1), (1, 1), (1, 1)]; // duplicate collapses
        let gold = vec![(0, 0), (1, 0)];
        let q = evaluate_blocking(&candidates, &gold, 2, 2);
        assert!((q.recall - 0.5).abs() < 1e-6);
        assert_eq!(q.num_candidates, 3);
        assert!((q.cssr - 3.0 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn blocking_evaluation_with_no_gold_pairs_is_perfect_recall() {
        let q = evaluate_blocking(&[(0, 0)], &[], 1, 1);
        assert_eq!(q.recall, 1.0);
    }
}
