//! Exact top-k cosine similarity search over dense vectors.
//!
//! Sudowoodo's blocking stage vectorizes every data item with the learned embedding model
//! and retrieves, for each left-table item, the `k` nearest right-table items as the
//! candidate set (§II-C step 2). The search is exact: the corpus is stored as **one
//! row-major matrix** of L2-normalized rows, and [`CosineIndex::knn_join`] packs each
//! query block (parallel over blocks) once into a [`PackedTranspose`] and streams the
//! corpus through the GEMM tile as its `A` operand, read in place, strip by strip: each
//! strip becomes one corpus-major `strip x block` score tile, read back row by row
//! against a per-query vector of current `k`-th best scores before the next strip is
//! touched — no `block x n` score matrix ever exists. A single query is a one-row
//! block.
//!
//! Every score is one fused multiply-add chain over the dimensions, ascending, so its
//! bits do not depend on the block, the strip, the tile width or where the row sits:
//! the same as `q.matmul(&corpus.transpose())` and as [`crate::ShardedCosineIndex`]'s
//! scores, which is why the two layouts return identical neighbors even on exact ties.
//!
//! Neighbor selection is **deterministic**: ties on score break toward the smaller id, so
//! blocking candidate sets are bit-for-bit reproducible regardless of thread count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rayon::prelude::*;
use sudowoodo_nn::matrix::{Matrix, MatrixView, PackedTranspose};

/// Number of query rows per block in [`CosineIndex::knn_join`]: the unit of
/// parallelism, and how many times each corpus row is reused while it is in registers.
const QUERY_TILE: usize = 256;

/// Bytes of the corpus-major score tile one strip of a join fills before selection
/// reads it back: `TILE_BYTES / 4 / queries` corpus rows per strip, so the tile stays in
/// L2 between the product that writes it and the filter that reads it (256 rows for a
/// 256-query block, a whole 4096-row shard for a 16-query batch).
const TILE_BYTES: usize = 256 << 10;

/// Row-group width the corpus matrices are zero-padded to. The padding no longer decides
/// any bit — every score is one multiply-add chain whatever row group it falls in, and
/// only real rows are scored — but it stays in both layouts so that dense and sharded
/// matrices, snapshots and spill files keep their byte layout.
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
/// order in which candidates are offered does not affect the result.
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

    /// The filter threshold of [`offer_corpus_rows`]: the `k`-th best score, or NaN
    /// while fewer than `k` candidates are held — no score is below NaN, so every score
    /// passes until the selector is full.
    pub(crate) fn threshold(&self) -> f32 {
        self.worst_score_when_full().unwrap_or(f32::NAN)
    }

    /// [`TopK::offer`] behind the filter of [`offer_corpus_rows`]: `score` is offered
    /// unless it is below `threshold`, the caller's copy of [`TopK::threshold`], which
    /// an offer refreshes.
    pub(crate) fn offer_reaching(&mut self, threshold: &mut f32, id: usize, score: f32) {
        if not_below(score, *threshold) {
            self.offer(id, score);
            *threshold = self.threshold();
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

/// Pads a row count up to [`ROW_GROUP`] — the one expression behind both layouts' byte
/// layout, so it lives in exactly one place.
pub(crate) fn padded_rows(rows: usize) -> usize {
    rows.div_ceil(ROW_GROUP) * ROW_GROUP
}

/// `score` is not below `threshold`: true when either is NaN, so a NaN threshold lets
/// every score through and a NaN score passes every threshold.
#[inline(always)]
fn not_below(score: f32, threshold: f32) -> bool {
    score.partial_cmp(&threshold) != Some(Ordering::Less)
}

/// Offers a corpus-major score tile to one selector per query: row `i` of `tile` holds
/// corpus row `i`'s raw scores against every query (`tile[i * n + r]` for query `r` of
/// `n = selectors.len()`), the row has id `id_of(i)` and is skipped whole when `deleted`
/// marks it, and query `r` is offered `raw * inv_norms[r]`.
///
/// Exactly the per-score [`TopK::offer`] loop over the tile in row-major order — same
/// survivors, same heaps — but each score is first compared with its query's threshold,
/// sixteen queries at a time without branches, and only a group holding a score that is
/// not below its threshold goes on to the heaps; in a long scan that is almost no group.
/// The threshold is the selector's `k`-th best score, or NaN while it holds fewer than
/// `k`: no score is below NaN, so an unfilled selector is offered every score, NaN
/// included, as `offer` would take it. A NaN score (or a NaN `k`-th best) passes the
/// filter too, and `offer` decides.
pub(crate) fn offer_corpus_rows(
    selectors: &mut [TopK],
    inv_norms: &[f32],
    tile: &[f32],
    id_of: impl Fn(usize) -> usize,
    deleted: Option<&[bool]>,
) {
    const GROUP: usize = 16;
    let n = selectors.len();
    if n == 0 {
        return;
    }
    assert_eq!(
        inv_norms.len(),
        n,
        "offer_corpus_rows: one inverse norm per query"
    );
    let mut thresholds: Vec<f32> = selectors.iter().map(TopK::threshold).collect();
    let full = n - n % GROUP;
    for (i, row) in tile.chunks_exact(n).enumerate() {
        if deleted.is_some_and(|d| d[i]) {
            continue;
        }
        for g in (0..full).step_by(GROUP) {
            let raw: &[f32; GROUP] = row[g..g + GROUP].try_into().expect("a group");
            let inv: &[f32; GROUP] = inv_norms[g..g + GROUP].try_into().expect("a group");
            let t: &[f32; GROUP] = thresholds[g..g + GROUP].try_into().expect("a group");
            let mut hit = 0u32;
            for l in 0..GROUP {
                hit |= u32::from(not_below(raw[l] * inv[l], t[l]));
            }
            if hit != 0 {
                offer_row(
                    g..g + GROUP,
                    row,
                    inv_norms,
                    id_of(i),
                    selectors,
                    &mut thresholds,
                );
            }
        }
        offer_row(
            full..n,
            row,
            inv_norms,
            id_of(i),
            selectors,
            &mut thresholds,
        );
    }
}

/// The per-score half of [`offer_corpus_rows`] for the queries `range` of one tile row.
fn offer_row(
    range: std::ops::Range<usize>,
    row: &[f32],
    inv_norms: &[f32],
    id: usize,
    selectors: &mut [TopK],
    thresholds: &mut [f32],
) {
    for r in range {
        selectors[r].offer_reaching(&mut thresholds[r], id, row[r] * inv_norms[r]);
    }
}

/// Scores the rows of `corpus` against the packed query block `queries` and offers every
/// row `deleted` does not mark to the per-query `selectors` ([`offer_corpus_rows`]; row
/// `i` has id `id_of(i)`). The corpus is read in place as the GEMM tile's `A` operand,
/// in strips whose corpus-major score tile (`tile`, reused) fills [`TILE_BYTES`]. The
/// walk of both layouts: a dense corpus, a resident shard, a mapped spilled one.
pub(crate) fn score_and_offer(
    corpus: &MatrixView<'_>,
    queries: &PackedTranspose,
    inv_norms: &[f32],
    selectors: &mut [TopK],
    id_of: impl Fn(usize) -> usize,
    deleted: Option<&[bool]>,
    tile: &mut Vec<f32>,
) {
    let (dim, n) = (corpus.cols(), queries.rows());
    let strip = (TILE_BYTES / 4 / n.max(1)).max(1);
    for start in (0..corpus.rows()).step_by(strip) {
        let rows = strip.min(corpus.rows() - start);
        let rows_view =
            MatrixView::new(rows, dim, &corpus.data()[start * dim..(start + rows) * dim]);
        tile.resize(rows * n, 0.0);
        queries.multiply_into(&rows_view, tile);
        offer_corpus_rows(
            selectors,
            inv_norms,
            tile,
            |i| id_of(start + i),
            deleted.map(|d| &d[start..start + rows]),
        );
    }
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
    /// let hits = index.knn_join(&[vec![1.0, 0.1]], 2);
    /// assert_eq!(hits[0].1, 0); // (query, corpus id, score): the closest direction wins
    /// ```
    pub fn build(vectors: Vec<Vec<f32>>) -> Self {
        let Some(first) = vectors.first() else {
            return CosineIndex::default();
        };
        let dim = first.len();
        let len = vectors.len();
        // Pad the flat buffer directly while flattening — unlike `from_matrix`, no
        // second full-corpus copy is needed to reach the row group.
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
    /// `n` needs padding to the row-group width).
    pub fn from_matrix(mut matrix: Matrix) -> Self {
        matrix.l2_normalize_rows_mut(); // in place: no second full-corpus allocation
        let len = matrix.rows();
        if !len.is_multiple_of(ROW_GROUP) {
            // Zero-pad to the row group (pad rows are never scored).
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

    /// The normalized corpus matrix. Rows `len()..` (fewer than four) are zero padding,
    /// not corpus rows.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Retrieves, for every query vector, its `k` nearest indexed vectors, returning the
    /// candidate pair list `(query_index, indexed_index, score)`.
    ///
    /// Queries are processed as `QUERY_TILE` (256)-row blocks that fan out across
    /// threads; each block is packed once and walks the corpus in cache-sized strips,
    /// scoring `strip * Q_blockᵀ` and offering the scores to one persistent selector per
    /// query.
    /// Results are ordered by query index, then descending score (ascending id on
    /// ties); a query's results do not depend on the other queries of the call.
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
        let corpus = MatrixView::new(self.len, dim, &self.matrix.data()[..self.len * dim]);
        let per_block: Vec<Vec<(usize, usize, f32)>> = queries
            .par_chunks(QUERY_TILE)
            .enumerate()
            .map(|(block_idx, block)| {
                let base = block_idx * QUERY_TILE;
                let (q_block, inv_norms) =
                    pack_query_block("CosineIndex::knn_join (query)", base, block, dim);
                let mut selectors: Vec<TopK> = (0..block.len()).map(|_| TopK::new(k)).collect();
                score_and_offer(
                    &corpus,
                    &PackedTranspose::new(&q_block.view()),
                    &inv_norms,
                    &mut selectors,
                    |i| i,
                    None,
                    &mut Vec::new(),
                );
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
    fn a_one_query_join_returns_nearest_by_cosine() {
        let index = CosineIndex::build(vec![
            unit(&[1.0, 0.0]),
            unit(&[0.0, 1.0]),
            unit(&[0.7, 0.7]),
        ]);
        let hits = index.knn_join(&[vec![1.0, 0.1]], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!((hits[0].0, hits[0].1), (0, 0));
        assert_eq!((hits[1].0, hits[1].1), (0, 2));
        assert!(hits[0].2 > hits[1].2);
    }

    #[test]
    fn a_one_query_join_handles_k_larger_than_collection() {
        let index = CosineIndex::build(vec![unit(&[1.0, 0.0]), unit(&[0.0, 1.0])]);
        assert_eq!(index.knn_join(&[vec![1.0, 1.0]], 10).len(), 2);
        assert_eq!(index.knn_join(&[vec![1.0, 1.0]], 0).len(), 0);
        assert_eq!(index.len(), 2);
        assert_eq!(index.dim(), 2);
        assert!(!index.is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = CosineIndex::build(Vec::new());
        assert!(index.is_empty());
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
        let hits = index.knn_join(&[vec![0.0, 0.0]], 1);
        assert_eq!(hits[0].2, 0.0);
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
        let pairs = index.knn_join(&[v], 2);
        assert_eq!(pairs.iter().map(|p| p.1).collect::<Vec<_>>(), vec![0, 1]);
    }

    /// `into_sorted` output as comparable (id, score bits) pairs.
    fn sorted_bits(selector: TopK) -> Vec<(usize, u32)> {
        let hits = selector.into_sorted();
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    #[test]
    fn corpus_major_offer_selects_exactly_what_per_score_offers_select() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        // Heavy exact ties, NaN, both infinities (an inverse norm of 0 turns them into
        // NaN too), -0.0 against 0.0.
        let palette = [
            0.25f32,
            0.5,
            0.5,
            -0.0,
            0.0,
            0.75,
            f32::NAN,
            -1.0,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for case in 0..400 {
            // Query counts below, at and past the 16-wide filter group, with tails.
            let n = rng.gen_range(1usize..40);
            let inv: Vec<f32> = (0..n)
                .map(|_| [1.0f32, 0.37, 0.0][rng.gen_range(0..3)])
                .collect();
            let strips: Vec<Vec<f32>> = (0..rng.gen_range(1usize..4))
                .map(|_| {
                    (0..rng.gen_range(1usize..30) * n)
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
            let rows: usize = strips.iter().map(|strip| strip.len() / n).sum();
            // Ids in no particular order (a rescore list), distinct across strips.
            let mut ids: Vec<usize> = (0..rows).map(|i| i * 3 + 1).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let deleted: Vec<bool> = (0..rows).map(|_| rng.gen_range(0..4) == 0).collect();
            for k in [0usize, 1, 3, 20, rows + 5] {
                let mut bulk: Vec<TopK> = (0..n).map(|_| TopK::new(k)).collect();
                let mut single: Vec<TopK> = (0..n).map(|_| TopK::new(k)).collect();
                // Selectors at different fill levels before the first strip.
                for r in 0..n {
                    for j in 0..rng.gen_range(0..k + 2) {
                        let score = palette[rng.gen_range(0..palette.len())];
                        bulk[r].offer(usize::MAX - j, score);
                        single[r].offer(usize::MAX - j, score);
                    }
                }
                let mut base = 0;
                for strip in &strips {
                    let strip_rows = strip.len() / n;
                    let strip_ids = &ids[base..base + strip_rows];
                    let mask = (case % 2 == 0).then_some(&deleted[base..base + strip_rows]);
                    offer_corpus_rows(&mut bulk, &inv, strip, |i| strip_ids[i], mask);
                    for (i, scores) in strip.chunks_exact(n).enumerate() {
                        if mask.is_some_and(|d| d[i]) {
                            continue;
                        }
                        for (r, &raw) in scores.iter().enumerate() {
                            single[r].offer(strip_ids[i], raw * inv[r]);
                        }
                    }
                    base += strip_rows;
                }
                for (r, (bulk, single)) in bulk.into_iter().zip(single).enumerate() {
                    assert_eq!(
                        sorted_bits(bulk),
                        sorted_bits(single),
                        "case {case}, k {k}, query {r} of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_matrix_matches_build() {
        let rows = vec![unit(&[3.0, 4.0]), unit(&[1.0, 0.0])];
        let a = CosineIndex::build(rows.clone());
        let m = Matrix::from_rows(&[rows[0].clone(), rows[1].clone()]);
        let b = CosineIndex::from_matrix(m);
        let query = [vec![1.0, 1.0]];
        assert_eq!(a.knn_join(&query, 2), b.knn_join(&query, 2));
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
