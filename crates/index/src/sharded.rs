//! Sharded, streaming variant of the cosine blocking index.
//!
//! [`crate::CosineIndex`] stores the whole corpus as **one** row-major matrix, which is
//! the fastest layout as long as the corpus fits one allocation and never changes. Two
//! pressures break that assumption at scale (ROADMAP: "streaming / sharded `CosineIndex`
//! for corpora that exceed one machine"):
//!
//! * **Size** — a single `n x d` matrix must be reallocated and re-normalized wholesale
//!   to grow, and cannot be distributed.
//! * **Streaming** — entity-matching corpora arrive in batches; rebuilding a dense index
//!   per batch is quadratic work over the ingest lifetime.
//!
//! [`ShardedCosineIndex`] answers both: the corpus is partitioned into fixed-capacity
//! **shards**, each a small row-major matrix that reuses the exact GEMM tile path of the
//! dense index. `knn_join` streams each shard through the GEMM tile against the packed
//! query tile (query tiles in parallel) and offers the corpus-major scores to the same
//! bounded-heap top-k selectors as the dense path, so results are **deterministic and
//! identical** to a dense index over the same rows. Ingestion is incremental:
//! [`ShardedCosineIndex::add_batch`] appends
//! (normalizing only the new rows), [`ShardedCosineIndex::remove`] tombstones, and
//! [`ShardedCosineIndex::compact`] repacks shards to drop tombstones.
//!
//! Two scale layers sit underneath the shards (both invisible in results):
//!
//! * **Disk spill** ([`crate::storage`]) — under a resident-memory budget
//!   ([`ShardedCosineIndex::set_memory_budget`]), the least-recently-used shard matrices
//!   are serialized to a compact on-disk format after [`ShardedCosineIndex::compact`]
//!   and read back only when a query actually needs them.
//! * **Routing statistics** ([`crate::routing`]) — every shard carries a centroid+radius
//!   summary giving an admissible upper bound on any row's cosine score; shards whose
//!   bound cannot enter the current top-k are skipped, and a skipped spilled shard is
//!   never read from disk.
//!
//! ## Equivalence with the dense index
//!
//! Three invariants make sharded results match a fresh dense build bit-for-bit — same
//! ids *and* same scores, even on exact ties (duplicate rows are normal in EM data):
//!
//! 1. every row is L2-normalized exactly once, with the same per-row op the dense index
//!    uses ([`Matrix::l2_normalize_row`]);
//! 2. every score is one fused multiply-add chain over the dimensions, ascending — the
//!    GEMM tile's contract — so it does not depend on which shard, strip, tile or batch
//!    computed it, nor on which other rows or queries were in the product; spilling
//!    preserves the matrix bit-for-bit, so a faulted shard scores identically to a
//!    resident one;
//! 3. all candidates flow through the crate's single top-k selector, whose (score
//!    descending, id ascending) total order is insertion-order independent, so the
//!    order shards are visited in cannot matter; routing skips only shards whose best
//!    possible score is *strictly* below every query's currently retained `k`-th best
//!    (see [`crate::routing`] for the admissibility argument), so pruning never changes
//!    the selected set.
//!
//! Rows keep **stable ids** (their insertion sequence number) across `remove`/`compact`,
//! so downstream candidate pairs remain valid while the index mutates underneath.

use std::cmp::Reverse;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use rayon::prelude::*;

use sudowoodo_nn::matrix::{I8Tile, Matrix, MatrixView, PackedTranspose};

use crate::cache::{fingerprint, QueryCache};
use crate::knn::{check_row_dim, pack_query_block, padded_rows, score_and_offer, TopK};
use crate::routing::RoutingStats;
use crate::snapshot;
use crate::storage::{QuantizedBlock, QuantizedMatrix, ShardStorage, SpillDir};

/// Number of query rows per GEMM tile in [`ShardedCosineIndex::knn_join`] — the same tile
/// height as the dense index so both paths have identical cache behavior per shard.
const QUERY_TILE: usize = 256;

/// Why a [`ShardedCosineIndex::remove`] (or [`crate::BlockingIndex::remove`]) failed.
///
/// Both blocking-index layouts report removal failures through this one type, so error
/// handling cannot drift between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoveError {
    /// The id was never assigned by any `add_batch` call (it is at or beyond the next
    /// id the index would hand out).
    NeverAssigned {
        /// The offending id.
        id: usize,
        /// The next id the index will assign; valid ids are strictly below it.
        next_id: usize,
    },
    /// The id was assigned but its row is already removed.
    AlreadyRemoved {
        /// The offending id.
        id: usize,
    },
    /// The dense layout is immutable; removal requires the sharded layout.
    DenseImmutable,
}

impl fmt::Display for RemoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoveError::NeverAssigned { id, next_id } => write!(
                f,
                "id {id} was never assigned (ids 0..{next_id} have been handed out)"
            ),
            RemoveError::AlreadyRemoved { id } => write!(f, "id {id} is already removed"),
            RemoveError::DenseImmutable => write!(
                f,
                "the dense blocking layout is immutable; configure a shard capacity to \
                 stream removals"
            ),
        }
    }
}

impl std::error::Error for RemoveError {}

/// Shard-skipping, disk-fault, and query-cache tallies — the observable effect of the
/// routing/spill/cache/quantization layers (results are unchanged by design, so the
/// counters are how tests and benches see them work).
///
/// The counters split into two lifetimes:
///
/// * **Scan counters** (`shards_visited`, `shards_pruned`, `spill_faults`,
///   `shards_quarantined`, `quant_scans`, `rescored_rows`) are **per join**: every
///   join entry ([`ShardedCosineIndex::knn_join_batches`] and the calls built on it)
///   zeroes them on entry, so a report read after a join describes exactly that join
///   on a reused handle.
/// * **Cache counters** (`cache_hits`, `cache_misses`) are **cumulative** since
///   construction or the last [`ShardedCosineIndex::reset_routing_report`] — hit-rate
///   over a serving window is their whole point, and a cache hit returns before any
///   scan happens.
///
/// Shard counts are per *visit opportunity*: one shard scored (or skipped) for one
/// query tile. Cache counts are per query batch while the cache is enabled: one lookup
/// per `knn_join` call, and one per batch of a [`ShardedCosineIndex::knn_join_batches`]
/// job.
/// Quarantine fields are the failure-model half of the report: which shards have been
/// taken out of service because their storage could not be read (see [`JoinOutcome`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingReport {
    /// Shards actually scored against a query tile.
    pub shards_visited: u64,
    /// Shards skipped because their routing bound provably could not enter the top-k.
    pub shards_pruned: u64,
    /// Spilled shards read back from disk (pruned shards never count here).
    pub spill_faults: u64,
    /// Query batches answered from the query-batch cache (no shard was touched).
    pub cache_hits: u64,
    /// Query batches that missed the enabled query-batch cache and were computed.
    pub cache_misses: u64,
    /// Shard-quarantine events (a shard whose storage stayed unreadable through the
    /// retry backoff and was taken out of service).
    pub shards_quarantined: u64,
    /// Quantized first-stage scans that actually ran: one per (quantized shard, query
    /// tile) visit. Zero means every visited shard was scored on the dense path.
    pub quant_scans: u64,
    /// Distinct exact f32 rows read by the rescore of quantized scans, summed over
    /// visits — rows some query of the tile kept. Compare against `live x tiles` to see
    /// what the i8 stage filtered out.
    pub rescored_rows: u64,
    /// Positions of the shards **currently** quarantined — live state, not a counter:
    /// populated while the index is serving degraded results and emptied when
    /// [`ShardedCosineIndex::compact`] recovers or drops the shards.
    pub quarantined_shards: Vec<usize>,
}

/// Runs `join` once over the concatenation of `batches` and splits its pairs back per
/// batch, with query indices local to each batch; a lone batch runs without a copy.
/// `join` returns its pairs ordered by query index, as every join here does, and each
/// batch shares the whole join's degraded status.
pub(crate) fn join_concatenated(
    batches: &[&[Vec<f32>]],
    join: impl FnOnce(&[Vec<f32>]) -> JoinOutcome,
) -> Vec<JoinOutcome> {
    let whole = match batches {
        [] => return Vec::new(),
        [batch] => return vec![join(batch)],
        _ => join(&batches.concat()),
    };
    let mut pairs = whole.pairs.into_iter().peekable();
    let mut base = 0;
    batches
        .iter()
        .map(|batch| {
            let end = base + batch.len();
            let own = std::iter::from_fn(|| pairs.next_if(|&(q, _, _)| q < end))
                .map(|(q, id, score)| (q - base, id, score))
                .collect();
            base = end;
            JoinOutcome {
                pairs: own,
                degraded: whole.degraded,
                quarantined_shards: whole.quarantined_shards.clone(),
            }
        })
        .collect()
}

#[derive(Debug, Default)]
pub(crate) struct RoutingCounters {
    visited: AtomicU64,
    pruned: AtomicU64,
    faults: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    quarantines: AtomicU64,
    quant_scans: AtomicU64,
    rescored_rows: AtomicU64,
}

impl RoutingCounters {
    /// Zeroes the per-join scan counters (visited/pruned/faults/quarantines/quant) —
    /// called on entry to every join so a post-join report describes that join alone.
    /// Cache hit/miss tallies survive: they meter the serving window, not one scan.
    fn reset_scan(&self) {
        self.visited.store(0, Ordering::Relaxed);
        self.pruned.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        self.quarantines.store(0, Ordering::Relaxed);
        self.quant_scans.store(0, Ordering::Relaxed);
        self.rescored_rows.store(0, Ordering::Relaxed);
    }
}

/// Configuration of the i8 quantized shard tier (see [`crate::storage::QuantizedMatrix`]
/// and the two-stage scan described on [`ShardedCosineIndex::set_quantization`]).
///
/// Results are **bit-identical** to the dense build at any setting — `alpha` trades
/// first-stage selectivity against rescore volume, never correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantSpec {
    /// Candidate-widening factor of the quantized scan: each query keeps at least the
    /// `alpha * k` best approximate rows (plus everything within the admissible error
    /// band of the thresholds) for exact rescoring. Values below 1 behave as 1.
    pub alpha: usize,
}

impl Default for QuantSpec {
    /// `alpha = 2`: rescore roughly twice the requested depth — enough slack that the
    /// error-band terms, not the count, usually decide the candidate set.
    fn default() -> Self {
        QuantSpec { alpha: 2 }
    }
}

/// The full result of a fault-aware join: the candidate pairs plus whether any
/// quarantined shard forced a **degraded** (possibly incomplete) answer.
///
/// The exact-results invariant is explicit here: when `degraded` is `false`, `pairs`
/// is bit-identical to a dense join over the same rows — quarantine never silently
/// weakens results. When `degraded` is `true`, every pair is still a true similarity
/// (quarantine only *removes* candidate rows), but rows held by the shards listed in
/// `quarantined_shards` were not scored.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JoinOutcome {
    /// Candidate pairs `(query_index, stable_id, score)` — the [`ShardedCosineIndex::knn_join`]
    /// contract.
    pub pairs: Vec<(usize, usize, f32)>,
    /// `true` when at least one live shard could not be scored (its storage was
    /// unreadable after retries) and the answer may be missing its rows.
    pub degraded: bool,
    /// Positions of the shards that were skipped as quarantined during this join
    /// (sorted, deduplicated). Empty exactly when `degraded` is `false`.
    pub quarantined_shards: Vec<usize>,
}

/// One fixed-capacity partition of the corpus. Fields are crate-visible so the
/// [`crate::snapshot`] serializer can persist and rebuild shards without an
/// accessor-per-field indirection layer.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Row-major buffer (resident or spilled); rows `0..ids.len()` are real (already
    /// normalized), trailing rows — row-group padding plus geometric growth slack — are
    /// zero and never scored.
    pub(crate) storage: ShardStorage,
    /// Stable id of each real row, ascending (insertion order is preserved shard-to-shard).
    pub(crate) ids: Vec<usize>,
    /// Tombstone flag per real row.
    pub(crate) deleted: Vec<bool>,
    /// Number of rows with `deleted == false`.
    pub(crate) live: usize,
    /// Centroid/radius routing summary of the live rows (admissible superset when rows
    /// were removed since the last recomputation — see [`crate::routing`]).
    pub(crate) stats: RoutingStats,
    /// Logical timestamp of the last search that scored this shard (or the ingestion
    /// that filled it); drives the LRU residency decision. Relaxed atomics: searches
    /// take `&self`, and an approximate recency order is all the budget needs.
    pub(crate) last_used: AtomicU64,
    /// Set when the shard's storage stayed unreadable through the retry backoff (or a
    /// snapshot payload failed validation at load): the shard is skipped by every
    /// query — degrading results instead of failing them — until the next
    /// [`ShardedCosineIndex::compact`] retries the read and either recovers the rows
    /// or drops the shard. Relaxed atomic: queries take `&self`.
    pub(crate) quarantined: AtomicBool,
}

impl Clone for Shard {
    fn clone(&self) -> Self {
        Shard {
            storage: self.storage.clone(), // spilled storage faults into a resident copy
            ids: self.ids.clone(),
            deleted: self.deleted.clone(),
            live: self.live,
            stats: self.stats.clone(),
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
            quarantined: AtomicBool::new(self.quarantined.load(Ordering::Relaxed)),
        }
    }
}

impl Shard {
    /// Lowest id held by this shard (its rows are id-sorted).
    fn min_id(&self) -> usize {
        self.ids.first().copied().unwrap_or(usize::MAX)
    }

    /// `true` when the shard is out of service because its storage could not be read.
    fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Streams the shard's real rows through the GEMM tile against the packed query tile
    /// and offers every live row to the per-query selectors ([`score_and_offer`]).
    ///
    /// The query-row inverse norms scale the scores at offer time exactly like the dense
    /// path (`s * inv`). A spilled shard is read straight out of its shared memory
    /// mapping (established, CRC-checked once, with the storage layer's retry backoff
    /// for transient I/O faults) — the OS page cache, not a per-process heap copy, is
    /// the working set.
    ///
    /// # Errors
    /// The shard's storage stayed unreadable through the retries; no candidate was
    /// offered and the selectors are untouched — the caller quarantines the shard and
    /// degrades the join instead of failing it.
    fn offer_into(
        &self,
        queries: &QueryTile<'_>,
        selectors: &mut [TopK],
        tile: &mut Vec<f32>,
    ) -> Result<(), crate::storage::StorageError> {
        if self.live == 0 {
            return Ok(());
        }
        self.storage.with_exact(|payload| {
            let (rows, dim) = (self.ids.len(), payload.cols());
            score_and_offer(
                &MatrixView::new(rows, dim, &payload.data()[..rows * dim]),
                queries.packed(),
                queries.inv_norms,
                selectors,
                |i| self.ids[i],
                Some(&self.deleted),
                tile,
            )
        })
    }
}

/// Queries per group of the quantized rescore: a group's kept rows are scored once,
/// against the group's packed panel, by the narrowest GEMM tile (16 columns).
/// [`QueryTile::groups`] puts similar queries together.
const RESCORE_GROUP: usize = 16;

/// One query tile as the shard scans see it: the packed f32 block, its inverse norms,
/// and what each scan derives from them once per tile and only when it runs — the
/// block's transpose packed for the f32 scan, the rescore's groups of similar queries,
/// each packed on its own, and the block's i8 codes — so a fully dense index never pays
/// for the quantized scan's parts. Shared across the tile's shard visits through
/// `OnceLock`s.
struct QueryTile<'a> {
    q_block: &'a Matrix,
    inv_norms: &'a [f32],
    packed: OnceLock<PackedTranspose>,
    groups: OnceLock<Vec<(Vec<usize>, PackedTranspose)>>,
    codes: OnceLock<QuantizedBlock>,
}

impl<'a> QueryTile<'a> {
    fn new(q_block: &'a Matrix, inv_norms: &'a [f32]) -> Self {
        QueryTile {
            q_block,
            inv_norms,
            packed: OnceLock::new(),
            groups: OnceLock::new(),
            codes: OnceLock::new(),
        }
    }

    /// The whole block, packed as the right operand of the f32 scan.
    fn packed(&self) -> &PackedTranspose {
        self.packed
            .get_or_init(|| PackedTranspose::new(&self.q_block.view()))
    }

    /// The block in groups of at most [`RESCORE_GROUP`] queries, each group's tile rows
    /// with their panel packed on its own. A group is its lowest ungrouped query and the
    /// ungrouped queries most similar to it (cosine, through the packed block): similar
    /// queries keep the same rows, so a group's union of survivors — what the rescore
    /// reads and scores — stays close to one query's list instead of growing with the
    /// group. The grouping decides work only; every query is offered its own rows.
    fn groups(&self) -> &[(Vec<usize>, PackedTranspose)] {
        self.groups.get_or_init(|| {
            let (n, dim) = self.q_block.shape();
            let mut sims = vec![0.0f32; n * n];
            self.packed().multiply_into(&self.q_block.view(), &mut sims);
            let mut free = vec![true; n];
            let mut groups = Vec::with_capacity(n.div_ceil(RESCORE_GROUP));
            let mut others = Vec::with_capacity(n);
            for seed in 0..n {
                if !free[seed] {
                    continue;
                }
                others.clear();
                others.extend((seed + 1..n).filter(|&j| free[j]));
                let similarity = |j: usize| sims[seed * n + j] * self.inv_norms[j];
                let take = others.len().min(RESCORE_GROUP - 1);
                if take < others.len() {
                    others.select_nth_unstable_by(take, |&a, &b| {
                        similarity(b).total_cmp(&similarity(a))
                    });
                }
                let mut members = vec![seed];
                members.extend_from_slice(&others[..take]);
                members.sort_unstable();
                let mut rows = Vec::with_capacity(members.len() * dim);
                for &m in &members {
                    free[m] = false;
                    rows.extend_from_slice(self.q_block.row(m));
                }
                let panel = PackedTranspose::new(&MatrixView::new(members.len(), dim, &rows));
                groups.push((members, panel));
            }
            groups
        })
    }

    /// The tile's rows quantized as `q * inv_norm` — the normalized vectors whose dots
    /// against corpus rows are the exact scores being approximated.
    fn codes(&self) -> &QuantizedBlock {
        self.codes
            .get_or_init(|| QuantizedBlock::from_scaled_rows(self.q_block, self.inv_norms))
    }
}

/// Shard rows per strip of the quantized first stage: the lanes tighten their thresholds
/// between strips, and a lane with no threshold yet keeps its first strip whole. On the
/// benchmark host `join_spilled_q8` ran ~4 % faster at 256 than at 512 (3 of 4 pairs),
/// with 3 MB less peak RSS from the smaller first strips.
const QUANT_STRIP_ROWS: usize = 256;

/// Kept rows below which a [`QuantLane`] does not re-select. Re-selecting is linear in
/// the kept rows and doubles its own trigger, so this only bounds how often it runs
/// while few rows are kept.
const QUANT_MIN_KEPT: usize = 128;

/// One query's streaming candidate filter over one quantized shard visit.
///
/// The candidate rule needs `a_ref`, the `k_wide`-th best approximate score of the
/// whole shard, which is only known after the last strip. The lane therefore keeps every
/// live row whose approximate score reaches a *running* threshold computed from the
/// rows seen so far; the `k_wide`-th best of a prefix can only rise as more rows arrive,
/// so the running threshold never exceeds the final one and no survivor is lost. `kept`
/// always holds exactly the seen live rows at or above the running threshold — an upper
/// set of the approximate scores, so whenever it holds `k_wide` rows its `k_wide`-th
/// best *is* the `k_wide`-th best of everything seen, ties included, and the survivors
/// left by the last [`QuantLane::tighten`] do not depend on when the earlier ones ran.
#[derive(Debug, Default)]
struct QuantLane {
    /// The admissible error band of this (query, shard) pair.
    eps: f64,
    /// `worst − eps` of the query's selector when the visit began, else `−∞`.
    floor: f64,
    /// Running threshold: `max(floor, a_ref − 2·eps)` over the rows seen so far.
    threshold: f64,
    /// `(approximate score, shard row)` of every seen live row at or above `threshold`.
    kept: Vec<(f64, usize)>,
    /// `kept.len()` at which the next [`QuantLane::tighten`] runs.
    tighten_at: usize,
}

impl QuantLane {
    /// The candidate threshold given the `k_wide`-th best approximate score `a_ref`.
    fn threshold_for(&self, a_ref: f64) -> f64 {
        self.floor.max(a_ref - 2.0 * self.eps)
    }

    fn begin(&mut self, eps: f64, worst: Option<f32>) {
        self.eps = eps;
        self.floor = worst.map_or(f64::NEG_INFINITY, |w| w as f64 - eps);
        self.threshold = self.threshold_for(f64::NEG_INFINITY);
        self.kept.clear();
        self.tighten_at = QUANT_MIN_KEPT;
    }

    /// Raises the threshold to what the rows seen so far justify and drops the kept
    /// rows below it. `k_wide` is `None` when the shard has no surplus to select from
    /// (`a_ref = −∞`). Called after the last strip, this leaves exactly the survivors.
    fn tighten(&mut self, k_wide: Option<usize>) {
        let a_ref = match k_wide {
            Some(k_wide) if self.kept.len() >= k_wide => {
                let (_, nth, _) = self.kept.select_nth_unstable_by(k_wide - 1, |a, b| {
                    b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
                });
                nth.0
            }
            _ => f64::NEG_INFINITY,
        };
        let threshold = self.threshold_for(a_ref);
        self.threshold = threshold;
        self.kept.retain(|&(approx, _)| approx >= threshold);
        self.tighten_at = (2 * self.kept.len()).max(QUANT_MIN_KEPT);
    }
}

/// Scratch of the quantized scan owned by one worker for one query tile and reused
/// across its shard visits, so a visit allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
struct QuantScratch {
    /// The tile's codes packed for the i8 kernel.
    tile: Option<I8Tile>,
    /// One filter per query of the tile.
    lanes: Vec<QuantLane>,
    /// The lanes' running thresholds, the per-query vector of the kernel's test.
    thresholds: Vec<f64>,
    /// Per shard row: some query kept it (counts the distinct rows rescored).
    candidate: Vec<bool>,
    /// Per shard row: its position in `rows`, or `u32::MAX`.
    position: Vec<u32>,
    /// The union of one rescore group's kept rows: the second stage's rescore list.
    rows: Vec<usize>,
    /// The corpus-major f32 score tile: a strip of the f32 scan, or a rescore list.
    scores: Vec<f32>,
}

/// Offers shard rows `base..` (the codes `codes` with scales `scales`) to every lane:
/// the i8 tile scores each row against every query and tests it against the lanes'
/// running thresholds in its epilogue, and a live row that passes is kept by the
/// query's lane (tombstones drop out here). Lanes that have kept enough re-select.
fn offer_strip(
    tile: &mut I8Tile,
    lanes: &mut [QuantLane],
    thresholds: &mut Vec<f64>,
    (codes, scales): (&[i8], &[f32]),
    deleted: &[bool],
    base: usize,
    k_wide: Option<usize>,
) {
    thresholds.clear();
    thresholds.extend(lanes.iter().map(|lane| lane.threshold));
    tile.scan(codes, scales, thresholds, |row, query, approx| {
        if !deleted[base + row] {
            lanes[query].kept.push((approx, base + row));
        }
    });
    for lane in lanes.iter_mut() {
        if lane.kept.len() >= lane.tighten_at {
            lane.tighten(k_wide);
        }
    }
}

/// Stage 1 of the quantized scan (the rule is on
/// [`ShardedCosineIndex::offer_shard_quantized`]): leaves in `scratch.lanes[r].kept`
/// exactly the live rows of `shard` that query `r` must rescore.
///
/// The shard's codes — resident, or the decoded cache of a spilled shard — stream
/// through the query tile's [`I8Tile`] in place, in strips of [`QUANT_STRIP_ROWS`]
/// ([`offer_strip`]); tombstoned rows are scored with the strip (their codes sit
/// between live ones) and dropped as they are kept. `k_wide` is `alpha * k`.
fn quant_survivors(
    shard: &Shard,
    quant: &QuantizedMatrix,
    queries: &QuantizedBlock,
    selectors: &[TopK],
    k_wide: usize,
    scratch: &mut QuantScratch,
) {
    let (rows, dim) = (shard.ids.len(), quant.cols());
    // No surplus to select from: every live row passes the `a_ref` half of the rule.
    let k_wide = (k_wide > 0 && shard.live > k_wide).then_some(k_wide);
    scratch
        .lanes
        .resize_with(selectors.len(), QuantLane::default);
    for (r, (lane, selector)) in scratch.lanes.iter_mut().zip(selectors).enumerate() {
        let eps = RoutingStats::quant_scan_epsilon(
            queries.norms[r],
            queries.err_norms[r],
            quant.max_err_norm(),
            quant.max_row_norm(),
            dim,
        );
        lane.begin(eps, selector.worst_score_when_full());
    }
    let QuantScratch {
        tile,
        lanes,
        thresholds,
        ..
    } = scratch;
    let tile = tile.get_or_insert_with(|| I8Tile::new(&queries.codes, dim, &queries.scales));
    for start in (0..rows).step_by(QUANT_STRIP_ROWS) {
        let end = rows.min(start + QUANT_STRIP_ROWS);
        let strip = (
            &quant.codes()[start * dim..end * dim],
            &quant.scales()[start..end],
        );
        offer_strip(
            tile,
            lanes,
            thresholds,
            strip,
            &shard.deleted,
            start,
            k_wide,
        );
    }
    for lane in lanes.iter_mut() {
        lane.tighten(k_wide);
    }
}

/// A streaming, sharded collection of L2-normalized dense vectors.
///
/// Functionally a [`crate::CosineIndex`] that can grow in batches, delete rows, score
/// shards in parallel, spill cold shards to disk under a memory budget, and skip shards
/// whose routing bound cannot reach the top-k. Ids returned by searches are **stable
/// insertion ids**: the `i`-th vector ever added has id `i`, forever, regardless of later
/// [`ShardedCosineIndex::remove`] or [`ShardedCosineIndex::compact`] calls.
///
/// # Examples
/// ```
/// use sudowoodo_index::ShardedCosineIndex;
///
/// // Build incrementally: 3 vectors across shards of capacity 2.
/// let mut index = ShardedCosineIndex::new(2);
/// index.add_batch(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
/// index.add_batch(&[vec![0.8, 0.6]]);
/// assert_eq!((index.len(), index.num_shards()), (3, 2));
///
/// // Search exactly like the dense index.
/// let pairs = index.knn_join(&[vec![1.0, 0.1]], 2);
/// assert_eq!(pairs[0].1, 0);
///
/// // Stream: remove a row and repack; ids stay stable.
/// index.remove(0).unwrap();
/// index.compact();
/// let pairs = index.knn_join(&[vec![1.0, 0.1]], 2);
/// assert_eq!(pairs[0].1, 2); // the [0.8, 0.6] row keeps id 2 after compaction
/// ```
///
/// Constrain resident memory and the cold shards spill to disk (results unchanged):
/// ```
/// use sudowoodo_index::ShardedCosineIndex;
///
/// let rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32, 1.0]).collect();
/// let mut index = ShardedCosineIndex::from_vectors(&rows, 8);
/// let before = index.knn_join(&[vec![3.0, 1.0]], 4);
/// index.set_memory_budget(Some(0)); // everything is cold
/// index.compact();                  // the budget is applied here
/// assert_eq!(index.num_spilled_shards(), index.num_shards());
/// assert_eq!(index.knn_join(&[vec![3.0, 1.0]], 4), before);
/// ```
#[derive(Debug)]
pub struct ShardedCosineIndex {
    /// Maximum number of real rows per shard.
    pub(crate) shard_capacity: usize,
    /// Vector dimensionality; `0` until the first non-empty batch fixes it.
    pub(crate) dim: usize,
    /// Next stable id to assign.
    pub(crate) next_id: usize,
    /// Number of live (non-tombstoned) rows across all shards.
    pub(crate) live: usize,
    /// The partitions, in insertion order; `ids` are ascending across and within shards.
    pub(crate) shards: Vec<Shard>,
    /// Resident-memory budget (bytes of shard matrix payload) applied after `compact`;
    /// `None` keeps everything resident.
    pub(crate) memory_budget: Option<usize>,
    /// Spill-file directory, created lazily the first time a shard spills.
    pub(crate) spill_dir: Option<SpillDir>,
    /// Logical clock stamping shard use (searches and ingestion).
    pub(crate) clock: AtomicU64,
    /// Pruning/fault observability (results are unaffected by routing, so the counters
    /// are the visible effect).
    pub(crate) counters: RoutingCounters,
    /// Mutation epoch: bumped by every successful `add_batch`/`remove`/`compact`;
    /// stamps (and invalidates) query-cache entries.
    pub(crate) epoch: AtomicU64,
    /// Query-batch result cache consulted by `knn_join` ahead of routing (disabled at
    /// capacity 0, the default — see [`crate::cache`]).
    pub(crate) cache: QueryCache,
    /// i8 quantized-tier configuration; `None` (the default) keeps every shard dense.
    /// Applied to shard storage by [`ShardedCosineIndex::compact`].
    pub(crate) quantization: Option<QuantSpec>,
}

impl Clone for ShardedCosineIndex {
    /// Cloning faults every spilled shard into the clone as resident memory (spill
    /// files are single-owner); the clone re-applies its budget at its next
    /// [`ShardedCosineIndex::compact`]. Counters start at zero, and the clone gets a
    /// fresh, empty query cache with the same capacity.
    fn clone(&self) -> Self {
        ShardedCosineIndex {
            shard_capacity: self.shard_capacity,
            dim: self.dim,
            next_id: self.next_id,
            live: self.live,
            shards: self.shards.clone(),
            memory_budget: self.memory_budget,
            spill_dir: None,
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            counters: RoutingCounters::default(),
            epoch: AtomicU64::new(self.epoch.load(Ordering::Relaxed)),
            cache: QueryCache::new(self.cache.capacity()),
            quantization: self.quantization,
        }
    }
}

impl ShardedCosineIndex {
    /// Creates an empty index whose shards hold at most `shard_capacity` vectors each.
    ///
    /// Routing-statistics shard skipping is always on (it never changes results); no
    /// memory budget is set, so nothing spills until
    /// [`ShardedCosineIndex::set_memory_budget`] is called.
    ///
    /// # Panics
    /// Panics when `shard_capacity` is zero.
    pub fn new(shard_capacity: usize) -> Self {
        assert!(
            shard_capacity > 0,
            "ShardedCosineIndex::new: shard_capacity must be positive"
        );
        ShardedCosineIndex {
            shard_capacity,
            dim: 0,
            next_id: 0,
            live: 0,
            shards: Vec::new(),
            memory_budget: None,
            spill_dir: None,
            clock: AtomicU64::new(0),
            counters: RoutingCounters::default(),
            epoch: AtomicU64::new(0),
            cache: QueryCache::new(0),
            quantization: None,
        }
    }

    /// Builds an index from an initial corpus in one call (`new` + [`Self::add_batch`]).
    pub fn from_vectors(vectors: &[Vec<f32>], shard_capacity: usize) -> Self {
        let mut index = Self::new(shard_capacity);
        index.add_batch(vectors);
        index
    }

    /// Builds an index and immediately applies a resident-memory budget: the index
    /// [`Self::from_vectors`] → [`Self::set_memory_budget`] → [`Self::compact`] ends
    /// with, built one shard at a time. Cold shards beyond `budget` bytes spill to disk
    /// as the build passes them, so the build never holds more than the budget and one
    /// shard of them.
    pub fn from_vectors_with_budget(
        vectors: &[Vec<f32>],
        shard_capacity: usize,
        budget: Option<usize>,
    ) -> Self {
        Self::build(vectors.iter().collect(), shard_capacity, budget, None)
    }

    /// Builds an index one shard at a time, ending where `new` → [`Self::add_batch`] →
    /// [`Self::set_quantization`] → [`Self::set_memory_budget`] → [`Self::compact`] ends,
    /// bit for bit: each shard's rows are normalized straight into its buffer (each
    /// caller row is dropped once copied), the shard is quantized, and the oldest resident
    /// shard spills while the resident payload exceeds the budget. The build's shards
    /// share one recency stamp, so compaction's LRU pass would keep the newest shards that
    /// fit, as this does; the build's heap peaks at the corpus, one shard and the budget.
    pub(crate) fn build<V: AsRef<[f32]>>(
        vectors: Vec<V>,
        shard_capacity: usize,
        memory_budget: Option<usize>,
        quantization: Option<QuantSpec>,
    ) -> Self {
        let mut index = Self::new(shard_capacity);
        (index.memory_budget, index.quantization) = (memory_budget, quantization);
        index.check_batch(&vectors);
        let (mut oldest_resident, mut resident) = (0, 0);
        let budget = memory_budget.unwrap_or(usize::MAX);
        index.ingest(vectors.into_iter(), |index, filled| {
            let storage = &mut index.shards[filled].storage;
            storage.set_quantized(quantization.is_some());
            resident += storage.payload_bytes();
            while resident > budget {
                // A shard whose spill fails stays resident outside the account, as
                // compaction's pass leaves it once every newer shard is placed.
                resident -= index.shards[oldest_resident].storage.payload_bytes();
                index.spill_shard(oldest_resident);
                oldest_resident += 1;
            }
        });
        index.epoch.fetch_add(1, Ordering::Relaxed); // the bump `compact` makes
        index
    }

    /// Number of live (searchable) vectors.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live vector is indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Vector dimensionality (`0` until the first non-empty batch is added).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards currently allocated (including ones that are all tombstones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of vectors per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of shards whose matrix currently lives on disk.
    pub fn num_spilled_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !s.storage.is_resident())
            .count()
    }

    /// Bytes of shard-matrix payload currently held in memory — the quantity the
    /// residency budget constrains.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.storage.resident_bytes()).sum()
    }

    /// The resident-memory budget, if any (bytes of shard matrix payload).
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Sets the resident-memory budget. The budget is **applied by the next
    /// [`Self::compact`]** (mirroring how tombstone space is also reclaimed there), in
    /// both directions: least-recently-used shards spill to disk until the resident
    /// payload fits, and when the budget leaves room — because it was raised or set to
    /// `None` — previously spilled shards are faulted back, most recently used first.
    pub fn set_memory_budget(&mut self, memory_budget: Option<usize>) {
        self.memory_budget = memory_budget;
    }

    /// Pruning/fault/quantization counters: the scan fields describe **the most recent
    /// join** on this handle (each join zeroes them on entry); the cache fields
    /// accumulate since construction or the last [`Self::reset_routing_report`] — see
    /// [`RoutingReport`] for the split.
    pub fn routing_report(&self) -> RoutingReport {
        RoutingReport {
            shards_visited: self.counters.visited.load(Ordering::Relaxed),
            shards_pruned: self.counters.pruned.load(Ordering::Relaxed),
            spill_faults: self.counters.faults.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            shards_quarantined: self.counters.quarantines.load(Ordering::Relaxed),
            quant_scans: self.counters.quant_scans.load(Ordering::Relaxed),
            rescored_rows: self.counters.rescored_rows.load(Ordering::Relaxed),
            quarantined_shards: self.quarantined_shards(),
        }
    }

    /// Positions of the shards currently out of service with unreadable storage
    /// (sorted; see [`RoutingReport::quarantined_shards`]).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_quarantined())
            .map(|(i, _)| i)
            .collect()
    }

    /// Resets **all** [`Self::routing_report`] counters to zero, including the
    /// cumulative cache hit/miss tallies (the per-join scan counters are also reset by
    /// every join on entry). Quarantine *flags* are state, not counters — they persist
    /// until [`Self::compact`] recovers or drops the affected shards.
    pub fn reset_routing_report(&self) {
        self.counters.reset_scan();
        self.counters.cache_hits.store(0, Ordering::Relaxed);
        self.counters.cache_misses.store(0, Ordering::Relaxed);
    }

    /// Enables (`Some`) or disables (`None`) the i8 quantized shard tier. Takes effect
    /// at the next [`Self::compact`], which re-encodes every shard's storage to match.
    ///
    /// With quantization on, each shard carries an i8 (per-row scale) copy of its
    /// matrix next to the exact f32 payload, and `knn_join` scans it **two-stage**:
    /// an i8 integer-dot pass selects a widened candidate set (at least
    /// `alpha * k` rows per query, plus every row inside the admissible error band
    /// of the selection thresholds — see [`RoutingStats::quant_scan_epsilon`]), and
    /// the survivors are rescored with the exact f32 kernels. Final ids **and score
    /// bits** are identical to a dense build; the quantized spill/snapshot payloads
    /// (`SWSHARDQ1`) let a spilled shard scan from a ~4x smaller resident footprint,
    /// faulting exact rows only for the rescore.
    pub fn set_quantization(&mut self, spec: Option<QuantSpec>) {
        self.quantization = spec;
    }

    /// The configured quantized tier, if any (see [`Self::set_quantization`]).
    pub fn quantization(&self) -> Option<QuantSpec> {
        self.quantization
    }

    /// Number of shards whose storage currently carries the i8 quantized tier.
    pub fn num_quantized_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.storage.is_quantized())
            .count()
    }

    /// Heap bytes of the i8 quantized tier (codes + scales) across all shards — the
    /// resident scanning footprint of quantized spilled shards, which the memory-
    /// density bench compares against the 4-bytes-per-coordinate dense payload.
    pub fn quantized_payload_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.storage.quantized_payload_bytes())
            .sum()
    }

    /// Sets the query-batch cache capacity, in cached batches (0, the default,
    /// disables the cache). Changing the capacity drops all cached batches.
    ///
    /// With a capacity set, [`Self::knn_join`] first consults the cache under the
    /// batch's normalized-query fingerprint (see [`crate::cache`]): a hit returns the
    /// cached pairs without touching any shard (no GEMM, no disk fault); entries are
    /// invalidated by the mutation epoch, so a repeated batch's hit is bit-identical
    /// to recomputing (see the [`crate::cache`] precision note for the rescaled-batch
    /// nuance). Repeated query batches are the serving workload this exists for.
    pub fn set_query_cache_capacity(&mut self, capacity: usize) {
        self.cache = QueryCache::new(capacity);
    }

    /// The query-batch cache capacity in batches (0 = disabled).
    pub fn query_cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Number of query batches currently cached.
    pub fn query_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The mutation epoch: bumped by every successful [`Self::add_batch`] (of a
    /// non-empty batch), [`Self::remove`], and [`Self::compact`]. Query-cache entries
    /// from earlier epochs never serve.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Persists the whole index into `dir` (created if missing): a versioned manifest
    /// (dims, shard capacity, id maps, tombstones, routing statistics) plus one payload
    /// file per shard in the [`crate::storage`] spill format — see [`crate::snapshot`]
    /// for the layout. A shard that is already spilled is snapshotted with a plain file
    /// copy; resident data is serialized by the same streaming writer the spill path
    /// uses, so saving never doubles a shard's memory footprint.
    ///
    /// The snapshot is self-contained and process-independent: any number of processes
    /// can [`ShardedCosineIndex::load_snapshot`] it concurrently, and loaded indexes
    /// never modify or delete it. Treat a published snapshot as immutable — do not
    /// save over a directory while **another live process** is serving from it (cold
    /// loaders re-read payloads lazily by path and could pair an old manifest with
    /// new bytes); republish into a fresh directory and switch readers over instead
    /// (see [`crate::snapshot`]).
    ///
    /// # Errors
    /// Any I/O failure; also [`std::io::ErrorKind::InvalidInput`] when saving a
    /// *mutated* snapshot-loaded index back into the directory currently backing it
    /// (its shards moved position, and overwriting the files under the index's own
    /// cold handles would corrupt it — save into a fresh directory instead; saving an
    /// **unmutated** loaded index back into its own directory is fine and cheap).
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_index::ShardedCosineIndex;
    ///
    /// let dir = std::env::temp_dir().join(format!("swidx-doc-{}", std::process::id()));
    /// let rows = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.8]];
    /// let index = ShardedCosineIndex::from_vectors(&rows, 2);
    /// index.save_snapshot(&dir).unwrap();
    ///
    /// // Another process would do exactly this; the load reads only the manifest.
    /// let loaded = ShardedCosineIndex::load_snapshot(&dir).unwrap();
    /// assert_eq!(loaded.num_spilled_shards(), loaded.num_shards()); // cold start
    /// let queries = vec![vec![0.9, 0.1]];
    /// assert_eq!(loaded.knn_join(&queries, 2), index.knn_join(&queries, 2));
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn save_snapshot(&self, dir: &Path) -> io::Result<()> {
        snapshot::save_sharded(self, dir)
    }

    /// Publishes this index into `dir` as an **incremental delta** over the snapshot
    /// in `base_dir` (full or itself a delta — chains compose): only shards whose
    /// matrix changed since the base get a payload written; unchanged shards are
    /// recorded as references into the base chain, and tombstone-only changes cost a
    /// few manifest bytes. See [`crate::delta`] for the format, the epoch-fingerprint
    /// chain validation, and the crash-consistency story (manifest last, atomic
    /// rename — a crashed publish leaves the base untouched and loadable).
    ///
    /// The natural workflow is load-mutate-publish:
    /// [`ShardedCosineIndex::load_snapshot`] the current epoch (every shard then
    /// inherits for free), `add_batch`/`remove`, and publish the delta into a fresh
    /// sibling directory. [`ShardedCosineIndex::load_snapshot`] on the delta directory
    /// resolves the chain automatically and is bit-identical to a full snapshot of the
    /// same index.
    ///
    /// # Errors
    /// Any I/O failure; `InvalidInput` when the target equals the base, already holds
    /// a full snapshot, or the index geometry (dimension / shard capacity) changed
    /// against the base; `InvalidData` when the base chain fails validation.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_index::ShardedCosineIndex;
    ///
    /// let root = std::env::temp_dir().join(format!("swdelta-doc-{}", std::process::id()));
    /// let base = root.join("epoch-0");
    /// let delta = root.join("epoch-1");
    /// let rows = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.8]];
    /// ShardedCosineIndex::from_vectors(&rows, 2).save_snapshot(&base).unwrap();
    ///
    /// let mut index = ShardedCosineIndex::load_snapshot(&base).unwrap();
    /// index.add_batch(&[vec![0.0, -1.0]]);
    /// let report = index.save_delta_snapshot(&base, &delta).unwrap();
    /// assert!(report.inherited_shards >= 1); // the untouched shard was not rewritten
    ///
    /// let loaded = ShardedCosineIndex::load_snapshot(&delta).unwrap();
    /// assert_eq!(loaded.len(), 4);
    /// # std::fs::remove_dir_all(&root).unwrap();
    /// ```
    pub fn save_delta_snapshot(
        &self,
        base_dir: &Path,
        dir: &Path,
    ) -> io::Result<crate::delta::DeltaSaveReport> {
        crate::delta::save_delta(self, base_dir, dir)
    }

    /// Loads a snapshot written by [`ShardedCosineIndex::save_snapshot`] — **cold**:
    /// only the manifest is read (O(shards), not O(corpus)), every shard starts in the
    /// spilled state backed by the snapshot payload, and queries fault shards in
    /// transiently exactly like disk-spilled shards (routing statistics, restored from
    /// the manifest, keep pruned shards from ever touching the payload files).
    ///
    /// To warm up, set a residency budget (or none) and [`ShardedCosineIndex::compact`]
    /// — the regular LRU policy then faults the hot shards resident. The loaded index
    /// starts with no memory budget, a disabled query cache, and fresh counters/epoch;
    /// search results are id- and score-identical to the saved index in every
    /// configuration.
    ///
    /// A directory published by [`ShardedCosineIndex::save_delta_snapshot`] loads
    /// through its base chain automatically ([`crate::delta`]) — still cold, still
    /// O(manifests).
    ///
    /// # Errors
    /// I/O failures, a missing/foreign/corrupt manifest, payload files whose size
    /// disagrees with the manifest, a delta whose base chain fails validation, or a
    /// snapshot holding the dense layout (load that through
    /// [`crate::BlockingIndex::load_snapshot`]).
    pub fn load_snapshot(dir: &Path) -> io::Result<ShardedCosineIndex> {
        snapshot::load_sharded(dir)
    }

    /// Number of tombstoned rows still occupying shard slots (reclaimed by
    /// [`Self::compact`]).
    pub fn num_tombstones(&self) -> usize {
        self.shards.iter().map(|s| s.ids.len() - s.live).sum()
    }

    /// `true` when `id` is currently live in the index.
    pub fn contains(&self, id: usize) -> bool {
        self.locate(id).is_some()
    }

    /// Appends a batch of vectors, returning the stable id range assigned to them.
    ///
    /// The first non-empty batch fixes the index dimensionality. New rows are
    /// L2-normalized on ingestion (once — exactly like a dense build); existing rows are
    /// never touched, and the tail shard's buffer grows geometrically (copied at most
    /// `log(shard_capacity)` times over a shard's lifetime), so repeated `add_batch`
    /// calls cost amortized time proportional to the batch, not the corpus. A spilled
    /// tail shard with room left is faulted back to memory to take the new rows; the
    /// routing statistics of every shard that received rows are updated incrementally
    /// (O(new rows), see [`RoutingStats::append`] — the bound may loosen slightly
    /// until the next [`Self::compact`] recomputes it exactly).
    ///
    /// # Panics
    /// Panics when a vector's dimension disagrees with the index dimension, naming the
    /// offending row and the expected dimension.
    pub fn add_batch(&mut self, vectors: &[Vec<f32>]) -> std::ops::Range<usize> {
        self.check_batch(vectors);
        self.ingest(vectors.iter(), |_, _| {})
    }

    /// Checks every row of a batch against the index dimension before any is ingested.
    fn check_batch<V: AsRef<[f32]>>(&mut self, vectors: &[V]) {
        if let (0, Some(first)) = (self.next_id, vectors.first()) {
            // First batch ever fixes the dimensionality — even a degenerate 0, so that a
            // later batch of different width gets the ragged-input error, not a crash.
            self.dim = first.as_ref().len();
        }
        let dim = self.dim;
        for (i, v) in vectors.iter().enumerate() {
            check_row_dim("ShardedCosineIndex::add_batch", i, v.as_ref().len(), dim);
        }
    }

    /// Appends checked rows (see [`Self::add_batch`]), calling `filled(self, shard)` after
    /// each shard that took rows.
    fn ingest<V: AsRef<[f32]>>(
        &mut self,
        mut vectors: impl ExactSizeIterator<Item = V>,
        mut filled: impl FnMut(&mut Self, usize),
    ) -> std::ops::Range<usize> {
        let (start, count, dim) = (self.next_id, vectors.len(), self.dim);
        if count == 0 {
            return start..start;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut offset = 0;
        while offset < count {
            let shard_room = match self.shards.last() {
                Some(s) if s.ids.len() < self.shard_capacity => self.shard_capacity - s.ids.len(),
                _ => {
                    self.shards.push(Shard {
                        storage: ShardStorage::Resident {
                            exact: Matrix::zeros(0, dim),
                            quant: None,
                        },
                        ids: Vec::new(),
                        deleted: Vec::new(),
                        live: 0,
                        stats: RoutingStats::default(),
                        last_used: AtomicU64::new(stamp),
                        quarantined: AtomicBool::new(false),
                    });
                    self.shard_capacity
                }
            };
            let take = shard_room.min(count - offset);
            let shard = self.shards.last_mut().expect("shard ensured above");
            let old_filled = shard.ids.len();
            let new_filled = old_filled + take;
            let needed = padded_rows(new_filled);
            // Ingestion mutates the buffer, so a spilled tail shard returns to memory
            // (and a quantized one loses its now-stale codes until the next compact).
            // Mutation has no degraded mode (dropping ingested rows would be silent
            // data loss), so an unreadable tail shard — after the storage layer's
            // retries — still panics, with the typed error naming the file.
            let matrix = shard
                .storage
                .matrix_mut()
                .unwrap_or_else(|e| panic!("ShardedCosineIndex::add_batch: {e}"));
            if needed > matrix.rows() {
                // Grow geometrically (capped at the shard capacity) so per-row appends
                // amortize; the slack rows are zero padding, which is never scored.
                let grown = padded_rows(
                    (matrix.rows() * 2).clamp(needed, padded_rows(self.shard_capacity).max(needed)),
                );
                let mut rows = Vec::with_capacity(grown * dim);
                rows.extend_from_slice(&matrix.data()[..old_filled * dim]);
                rows.resize(grown * dim, 0.0);
                *matrix = Matrix::from_vec(grown, dim, rows);
            }
            // Normalize the new rows once, with the same per-row op the dense index applies
            // (zero-width rows take no slot).
            let slots =
                matrix.data_mut()[old_filled * dim..new_filled * dim].chunks_exact_mut(dim.max(1));
            for (slot, v) in slots.zip(vectors.by_ref()) {
                slot.copy_from_slice(v.as_ref());
                Matrix::l2_normalize_row(slot);
            }
            shard.ids.extend(start + offset..start + offset + take);
            shard.deleted.resize(new_filled, false);
            shard.live += take;
            // New rows move the centroid, so the old radius alone is no longer a
            // bound; the incremental update folds just the new rows in.
            shard.stats.append(matrix, old_filled..new_filled);
            shard.last_used.store(stamp, Ordering::Relaxed);
            filled(self, self.shards.len() - 1);
            offset += take;
        }
        self.next_id = start + count;
        self.live += count;
        self.epoch.fetch_add(1, Ordering::Relaxed); // invalidates cached query batches
        start..self.next_id
    }

    /// Finds the shard and row holding live id `id` (ids are sorted across and within
    /// shards, so both lookups are binary searches).
    fn locate(&self, id: usize) -> Option<(usize, usize)> {
        let shard_idx = match self.shards.partition_point(|s| s.min_id() <= id) {
            0 => return None,
            p => p - 1,
        };
        let shard = &self.shards[shard_idx];
        let row = shard.ids.binary_search(&id).ok()?;
        (!shard.deleted[row]).then_some((shard_idx, row))
    }

    /// Tombstones the row with stable id `id`. The slot is reclaimed by
    /// [`Self::compact`].
    ///
    /// # Errors
    /// [`RemoveError::NeverAssigned`] when `id` was never handed out by
    /// [`Self::add_batch`]; [`RemoveError::AlreadyRemoved`] when it was assigned but its
    /// row is already removed. Both leave the index unchanged.
    pub fn remove(&mut self, id: usize) -> Result<(), RemoveError> {
        if id >= self.next_id {
            return Err(RemoveError::NeverAssigned {
                id,
                next_id: self.next_id,
            });
        }
        let Some((shard_idx, row)) = self.locate(id) else {
            return Err(RemoveError::AlreadyRemoved { id });
        };
        let shard = &mut self.shards[shard_idx];
        shard.deleted[row] = true;
        shard.live -= 1;
        self.live -= 1;
        // Removal is O(1): the routing statistics are left covering a superset of the
        // live rows, which keeps their bound admissible (see `crate::routing`); the
        // next `compact` recomputes them exactly. Cache invalidation is O(1) too —
        // the epoch bump orphans every cached batch.
        self.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Repacks all surviving rows into full shards, dropping tombstones, then
    /// reconciles shard residency with the memory budget in LRU order — cold shards
    /// spill, and hot spilled shards fault back when the budget (raised, or removed
    /// with `None`) leaves them room; see [`Self::set_memory_budget`]. Stable ids and
    /// search results are unchanged; returns the number of tombstones reclaimed.
    ///
    /// Compaction is also the **quarantine recovery point**: a shard quarantined by a
    /// degraded join (see [`Self::knn_join_report`]) gets its storage re-read here —
    /// a transient fault that has passed restores the rows and clears the flag; a
    /// still-unreadable shard is dropped (its rows are lost, a warning names the file)
    /// so the index returns to non-degraded service either way.
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.num_tombstones();
        if reclaimed > 0 || self.shards.iter().any(|s| s.is_quarantined()) {
            self.repack();
        }
        // Re-encode storage to match the quantization setting before the budget pass,
        // so shards spilled under the budget land in the matching payload format.
        self.apply_quantization();
        self.apply_memory_budget();
        // Compaction never changes results, but the epoch bump is deliberately
        // conservative: cached batches are cheap to recompute once, reasoning about a
        // cache serving across arbitrary structural changes is not.
        self.epoch.fetch_add(1, Ordering::Relaxed);
        reclaimed
    }

    /// Rebuilds full shards from the surviving rows (faulting spilled sources in),
    /// recomputing routing statistics and carrying each row's source recency stamp so
    /// the LRU budget still sees which data was hot.
    ///
    /// This is where quarantined shards are resolved: their storage is re-read (with
    /// the retry backoff); a recovered read carries the rows into the new shards, a
    /// still-unreadable shard is dropped with a warning and the live count shrinks.
    fn repack(&mut self) {
        let dim = self.dim;
        let old_shards = std::mem::take(&mut self.shards);
        // One pass in id order: rows are already normalized, so compaction is pure
        // copying. `(id, row, recency of the source shard)` per survivor.
        let mut survivors: Vec<(usize, Vec<f32>, u64)> = Vec::with_capacity(self.live);
        for (i, shard) in old_shards.iter().enumerate() {
            if shard.live == 0 {
                continue;
            }
            let recency = shard.last_used.load(Ordering::Relaxed);
            // Faults a spilled source transiently; also the quarantine-recovery read.
            let matrix = match shard.storage.matrix() {
                Ok(matrix) => matrix,
                Err(e) => {
                    let e = e.with_shard(i);
                    eprintln!(
                        "warning: ShardedCosineIndex::compact: dropping {} unreadable \
                         row(s) — {e}",
                        shard.live
                    );
                    continue;
                }
            };
            for (row, &id) in shard.ids.iter().enumerate() {
                if !shard.deleted[row] {
                    survivors.push((id, matrix.row(row).to_vec(), recency));
                }
            }
        }
        drop(old_shards); // spill files of the old shards are deleted here
        self.live = survivors.len(); // shrinks when an unreadable shard was dropped
        for chunk in survivors.chunks(self.shard_capacity) {
            let mut rows = Vec::with_capacity(padded_rows(chunk.len()) * dim);
            for (_, row, _) in chunk {
                rows.extend_from_slice(row);
            }
            rows.resize(padded_rows(chunk.len()) * dim, 0.0);
            let matrix = Matrix::from_vec(padded_rows(chunk.len()), dim, rows);
            let deleted = vec![false; chunk.len()];
            let stats = RoutingStats::compute(&matrix, &deleted);
            let recency = chunk.iter().map(|&(_, _, r)| r).max().unwrap_or(0);
            self.shards.push(Shard {
                storage: ShardStorage::Resident {
                    exact: matrix,
                    quant: None,
                },
                ids: chunk.iter().map(|(id, _, _)| *id).collect(),
                deleted,
                live: chunk.len(),
                stats,
                last_used: AtomicU64::new(recency),
                quarantined: AtomicBool::new(false),
            });
        }
    }

    /// Re-encodes every shard's storage to match [`Self::quantization`]: with the tier
    /// enabled, dense shards gain an i8 quantized copy; with it disabled, quantized
    /// shards drop theirs. Transitions go through the resident state (a mismatched
    /// spilled shard is faulted in, re-encoded, and re-spilled by the budget pass that
    /// follows). A shard whose storage cannot be read keeps its current format with a
    /// warning — queries retry it lazily, and results are unaffected either way.
    fn apply_quantization(&mut self) {
        let want = self.quantization.is_some();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if shard.storage.is_quantized() == want {
                continue;
            }
            if !shard.storage.is_resident() {
                self.counters.faults.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(e) = shard.storage.fault_in() {
                let e = e.with_shard(i);
                eprintln!(
                    "warning: ShardedCosineIndex: cannot re-encode shard storage, \
                     keeping its current format: {e}"
                );
                continue;
            }
            shard.storage.set_quantized(want);
        }
    }

    /// Reconciles shard residency with the budget, in LRU order and in both
    /// directions: most-recently-used shards are kept (or faulted back) resident while
    /// they fit, and the cold remainder spills. Without a budget, every spilled shard
    /// is faulted back. Spill I/O errors degrade gracefully: the shard stays resident
    /// and a warning is printed (spilling is an optimization, never a correctness
    /// requirement).
    fn apply_memory_budget(&mut self) {
        // No budget: everything belongs in memory again.
        let budget = self.memory_budget.unwrap_or(usize::MAX);
        // Most-recently-used first; newer shards win ties so the tail shard (the one
        // ingestion appends to) tends to stay resident.
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by_key(|&i| Reverse((self.shards[i].last_used.load(Ordering::Relaxed), i)));
        let mut resident = 0usize;
        for i in order {
            let storage = &mut self.shards[i].storage;
            let bytes = storage.payload_bytes();
            if resident + bytes <= budget {
                resident += bytes;
                if !storage.is_resident() {
                    // The budget leaves room for this hot shard: fault it back. An
                    // unreadable shard stays spilled (queries retry it lazily).
                    self.counters.faults.fetch_add(1, Ordering::Relaxed);
                    if let Err(e) = storage.fault_in() {
                        let e = e.with_shard(i);
                        eprintln!(
                            "warning: ShardedCosineIndex: cannot fault shard back, \
                             keeping spilled: {e}"
                        );
                        resident -= bytes;
                    }
                }
            } else if storage.is_resident() && !self.spill_shard(i) {
                resident += bytes;
            }
        }
    }

    /// Spills shard `i` into the spill directory, created on first use. Spilling is an
    /// optimization, never a correctness requirement: on an I/O error the shard stays
    /// resident with a warning and `false` is returned.
    fn spill_shard(&mut self, i: usize) -> bool {
        let dir = self.spill_dir.take().map_or_else(SpillDir::create, Ok);
        let spilled = dir.and_then(|dir| self.shards[i].storage.spill(self.spill_dir.insert(dir)));
        if let Err(e) = &spilled {
            eprintln!("warning: ShardedCosineIndex: spill failed, keeping resident: {e}");
        }
        spilled.is_ok()
    }

    /// Retrieves, for every query vector, its `k` nearest live vectors, returning the
    /// candidate pair list `(query_index, stable_id, score)`.
    ///
    /// Queries fan out across threads in `QUERY_TILE` (256)-row blocks. Each block visits
    /// the shards *sequentially* in decreasing order of their cosine upper bound, sharing
    /// one set of per-query bounded heaps, and skips every shard that provably cannot
    /// place a row in any query's top-k. A skipped shard's matrix is never touched — a
    /// spilled one is never read from disk. Sequential scanning is what makes the bound
    /// effective: the heaps tighten after the most promising shard, so cold shards
    /// prune. Query tiles (the dominant axis of join workloads) run in parallel.
    ///
    /// Output ordering matches the dense [`crate::CosineIndex::knn_join`]: query index,
    /// then descending score (ascending id on ties) — selection is a total order, so
    /// pruning is not visible in results (see [`crate::routing`] for the admissibility
    /// argument).
    ///
    /// # Panics
    /// Panics when a query's dimension disagrees with the index dimension.
    pub fn knn_join(&self, queries: &[Vec<f32>], k: usize) -> Vec<(usize, usize, f32)> {
        self.knn_join_report(queries, k).pairs
    }

    /// [`Self::knn_join`] with the failure-model envelope: the pairs plus whether any
    /// quarantined shard made the answer **degraded** (see [`JoinOutcome`]).
    ///
    /// A shard whose storage cannot be read even after the retry backoff is
    /// quarantined — flagged, skipped, counted in [`Self::routing_report`] — and the
    /// join completes over the readable shards instead of panicking the query thread.
    /// When no shard is quarantined (`degraded == false`), the result is bit-identical
    /// to a dense join over the same rows; degraded results are never cached, so a
    /// later non-degraded join repairs the answer. [`Self::compact`] retries and then
    /// recovers or drops quarantined shards.
    pub fn knn_join_report(&self, queries: &[Vec<f32>], k: usize) -> JoinOutcome {
        self.knn_join_batches(&[queries], k, None)
            .pop()
            .expect("one batch, one outcome")
    }

    /// [`Self::knn_join_report`] restricted to a subset of **shard positions** — the
    /// server-side half of distributed scatter-gather serving. A coordinator that
    /// partitions `0..num_shards()` across serve processes and merges the per-subset
    /// pairs through the same [`TopK`] selector reconstructs the whole-index join
    /// bit-identically: selection is a total order, so splitting the corpus by shard
    /// and merging per-subset top-k lists cannot change the surviving set.
    ///
    /// Shard positions refer to the current shard layout (stable for a cold-loaded
    /// snapshot, which is the distributed deployment model). Duplicates in
    /// `shard_subset` are ignored. The query-batch cache keys the subset, so a subset
    /// answer is cached like a whole-index one and can never alias one (a subset that
    /// names every shard *is* the whole index and shares its entry).
    ///
    /// `degraded` / `quarantined_shards` report quarantined shards *within the
    /// subset* only, so a coordinator can attribute the loss to the owning process.
    ///
    /// # Panics
    /// Panics when a subset position is out of range or a query's dimension
    /// disagrees with the index dimension.
    pub fn knn_join_subset_report(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        shard_subset: &[usize],
    ) -> JoinOutcome {
        self.knn_join_batches(&[queries], k, Some(shard_subset))
            .pop()
            .expect("one batch, one outcome")
    }

    /// Answers several query batches that share `k` and one shard scope (`None` for
    /// the whole index, else a subset as in [`Self::knn_join_subset_report`]) as one
    /// job — the entry a request coalescer, such as the `sudowoodo-serve` join
    /// worker, hands every queued request that can share a join.
    ///
    /// Each batch is looked up in the query cache on its own and counts one hit or
    /// one miss. The batches that miss are concatenated into **one** join, split
    /// back, and cached under their own keys: a client repeats its own batch, never
    /// the combination it was coalesced into. Each outcome is bit-identical to what
    /// the batch would get alone (a query is scored and selected on its own); when
    /// the shared join is degraded, so is every batch it answered.
    ///
    /// # Panics
    /// As [`Self::knn_join_subset_report`].
    pub fn knn_join_batches(
        &self,
        batches: &[&[Vec<f32>]],
        k: usize,
        shards: Option<&[usize]>,
    ) -> Vec<JoinOutcome> {
        // Scan counters describe one join at a time on a reused handle; cache counters
        // keep accumulating (see `RoutingReport`).
        self.counters.reset_scan();
        let scope: Vec<usize> = match shards {
            None => (0..self.shards.len()).collect(),
            Some(subset) => {
                let mut subset = subset.to_vec();
                subset.sort_unstable();
                subset.dedup();
                if let Some(&bad) = subset.iter().find(|&&s| s >= self.shards.len()) {
                    panic!(
                        "ShardedCosineIndex::knn_join_subset_report: shard position {bad} \
                         out of range (index has {} shards)",
                        self.shards.len()
                    );
                }
                subset
            }
        };
        let mut outcomes = vec![JoinOutcome::default(); batches.len()];
        if k == 0 || self.is_empty() || scope.is_empty() {
            return outcomes;
        }
        // The query-batch cache, consulted ahead of routing: a repeated batch answers
        // without touching a single shard (see `crate::cache` for keying and the
        // epoch-invalidation argument). Disabled (capacity 0) by default. Only
        // non-degraded results are ever inserted, so a hit is always a complete answer.
        let epoch = self.epoch();
        let mut misses = Vec::new();
        for (i, batch) in batches.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            let key = self
                .cache
                .is_enabled()
                .then(|| fingerprint(batch, k, self.dim, &scope));
            match key.and_then(|key| self.cache.lookup(key, epoch)) {
                Some(hit) => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    outcomes[i].pairs = hit;
                }
                None => {
                    if key.is_some() {
                        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    misses.push((i, key));
                }
            }
        }
        let missed: Vec<&[Vec<f32>]> = misses.iter().map(|&(i, _)| batches[i]).collect();
        let computed = join_concatenated(&missed, |queries| self.join_shards(queries, k, &scope));
        for ((i, key), outcome) in misses.into_iter().zip(computed) {
            if let (Some(key), false) = (key, outcome.degraded) {
                self.cache.insert(key, epoch, outcome.pairs.clone());
            }
            outcomes[i] = outcome;
        }
        outcomes
    }

    /// The join every entry point runs: query tiles in parallel, each scanning the
    /// `shards` positions best-bound-first ([`Self::offer_shards_routed`]); the outcome is
    /// degraded when any of `shards` is quarantined.
    fn join_shards(&self, queries: &[Vec<f32>], k: usize, shards: &[usize]) -> JoinOutcome {
        let dim = self.dim;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let per_block: Vec<Vec<(usize, usize, f32)>> = queries
            .par_chunks(QUERY_TILE)
            .enumerate()
            .map(|(block_idx, block)| {
                let base = block_idx * QUERY_TILE;
                let (q_block, inv_norms) =
                    pack_query_block("ShardedCosineIndex::knn_join (query)", base, block, dim);
                let queries = QueryTile::new(&q_block, &inv_norms);
                let mut selectors: Vec<TopK> = (0..block.len()).map(|_| TopK::new(k)).collect();
                self.offer_shards_routed(block, &queries, &mut selectors, stamp, shards);
                let mut pairs = Vec::with_capacity(block.len() * k);
                for (r, selector) in selectors.into_iter().enumerate() {
                    pairs.extend(
                        selector
                            .into_sorted()
                            .into_iter()
                            .map(|h| (base + r, h.id, h.score)),
                    );
                }
                pairs
            })
            .collect();
        let pairs: Vec<(usize, usize, f32)> = per_block.into_iter().flatten().collect();
        // Shards that were skipped as quarantined — whether they entered the join that
        // way or failed during it — made this answer incomplete.
        let quarantined_shards: Vec<usize> = shards
            .iter()
            .copied()
            .filter(|&i| self.shards[i].live > 0 && self.shards[i].is_quarantined())
            .collect();
        JoinOutcome {
            pairs,
            degraded: !quarantined_shards.is_empty(),
            quarantined_shards,
        }
    }

    /// Takes a shard out of service after its storage stayed unreadable through the
    /// retry backoff. Idempotent (the counter and warning fire on the first
    /// transition only); callable from parallel query workers (`&self`).
    fn quarantine(&self, shard_idx: usize, err: crate::storage::StorageError) {
        let shard = &self.shards[shard_idx];
        if !shard.quarantined.swap(true, Ordering::Relaxed) {
            self.counters.quarantines.fetch_add(1, Ordering::Relaxed);
            let err = err.with_shard(shard_idx);
            eprintln!(
                "warning: ShardedCosineIndex: quarantining shard with unreadable \
                 storage (degraded results until compact): {err}"
            );
        }
    }

    /// Scores one shard against a query tile: dense storage goes through the f32
    /// [`Shard::offer_into`] scan; quantized storage through the two-stage scan of
    /// [`Self::offer_shard_quantized`]. Either way every score a selector receives is
    /// an exact f32 kernel score, which is what keeps the shard-level routing prune
    /// (and the results) identical to the dense build.
    fn offer_shard(
        &self,
        shard: &Shard,
        queries: &QueryTile<'_>,
        selectors: &mut [TopK],
        scratch: &mut QuantScratch,
    ) -> Result<(), crate::storage::StorageError> {
        if shard.live == 0 {
            return Ok(());
        }
        match shard.storage.quant() {
            Some(Err(e)) => Err(e),
            // Rows too wide for the i8 kernel's i32 sums are scored from the exact
            // tier alone, which quantized storage serves like dense storage does.
            Some(Ok(quant)) if self.dim <= I8Tile::MAX_K => {
                self.offer_shard_quantized(shard, quant, queries, selectors, scratch)
            }
            _ => shard.offer_into(queries, selectors, &mut scratch.scores),
        }
    }

    /// The two-stage quantized scan for one (shard, query tile) visit.
    ///
    /// **Stage 1** ([`quant_survivors`]) scores every live row against every tile
    /// query with an exact i8 integer dot (`approx = t·s·(c_q·c_r)`, evaluated in f64)
    /// and keeps, per query, every row whose approximate score reaches the higher of
    /// two thresholds, each padded by the admissible error band `eps` of
    /// [`RoutingStats::quant_scan_epsilon`]:
    ///
    /// * `worst − eps` — a row further below the query's current `k`-th best exact
    ///   score provably cannot displace it;
    /// * `a_ref − 2·eps`, with `a_ref` the `alpha·k`-th best approximate score in the
    ///   shard — a row further below is *strictly* exact-dominated by at least `k`
    ///   rows that are themselves kept (their exacts are ≥ `a_ref − eps`, its own is
    ///   `< a_ref − eps`), so it cannot appear in any final top-k.
    ///
    /// Ties with the threshold are kept (`>=`), and all comparisons run in f64.
    ///
    /// **Stage 2** scores, per group of similar queries ([`QueryTile::groups`]), the
    /// union of the rows its queries kept once, straight from the exact f32 tier: the
    /// rows are the GEMM tile's `A` operand, read in place, against the group's packed
    /// panel. Each
    /// query is then offered the rows *it* kept, through the threshold filter of a full
    /// scan ([`TopK::offer_reaching`]). Each score is the multiply-add chain a
    /// full-shard scan computes, so it is bit-identical; a row the query dropped cannot
    /// be in its top-k after this visit, so every selector ends the visit holding what
    /// the dense path leaves in it.
    fn offer_shard_quantized(
        &self,
        shard: &Shard,
        quant: &QuantizedMatrix,
        queries: &QueryTile<'_>,
        selectors: &mut [TopK],
        scratch: &mut QuantScratch,
    ) -> Result<(), crate::storage::StorageError> {
        let k = selectors.first().map_or(0, TopK::capacity);
        let alpha = self.quantization.unwrap_or_default().alpha.max(1);
        quant_survivors(
            shard,
            quant,
            queries.codes(),
            selectors,
            k.saturating_mul(alpha),
            scratch,
        );
        let QuantScratch {
            lanes,
            candidate,
            position,
            rows,
            scores,
            ..
        } = scratch;
        candidate.clear();
        candidate.resize(shard.ids.len(), false);
        position.clear();
        position.resize(shard.ids.len(), u32::MAX);
        let mut distinct = 0;
        for &(_, row) in lanes.iter().flat_map(|lane| &lane.kept) {
            distinct += u64::from(!std::mem::replace(&mut candidate[row], true));
        }
        // A selector that is not yet full takes its `k` best approximate rows first, so
        // the rows after them mostly fall below its threshold instead of cycling
        // through its heap.
        for (lane, selector) in lanes.iter_mut().zip(selectors.iter()) {
            if k > 0 && lane.kept.len() > k && selector.worst_score_when_full().is_none() {
                lane.kept
                    .select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
            }
        }
        self.counters.quant_scans.fetch_add(1, Ordering::Relaxed);
        self.counters
            .rescored_rows
            .fetch_add(distinct, Ordering::Relaxed);
        if distinct == 0 {
            return Ok(());
        }
        // For a spilled shard this reads exact rows through the shared mapping (page
        // cache, not heap) — the resident scanning footprint stays the i8 tier.
        shard.storage.with_exact(|view| {
            for (members, panel) in queries.groups() {
                rows.clear();
                for &(_, row) in members.iter().flat_map(|&m| &lanes[m].kept) {
                    if position[row] == u32::MAX {
                        position[row] = rows.len() as u32;
                        rows.push(row);
                    }
                }
                let width = panel.rows();
                scores.resize(rows.len() * width, 0.0);
                panel.multiply_rows_into(&view, rows, scores);
                for (column, &m) in members.iter().enumerate() {
                    let (selector, inv) = (&mut selectors[m], queries.inv_norms[m]);
                    let mut threshold = selector.threshold();
                    for &(_, row) in &lanes[m].kept {
                        let raw = scores[position[row] as usize * width + column];
                        selector.offer_reaching(&mut threshold, shard.ids[row], raw * inv);
                    }
                }
                for &row in rows.iter() {
                    position[row] = u32::MAX;
                }
            }
        })
    }

    /// Scores the `candidates` shard positions against one query tile with
    /// routing-statistics skipping: shards are visited best-bound-first, and once every
    /// selector holds `k` candidates, a shard whose bound is strictly below every
    /// query's retained `k`-th best score (minus the float slack) is skipped without
    /// touching its matrix. The whole-index join passes every position; the
    /// scatter-gather subset join passes its subset.
    fn offer_shards_routed(
        &self,
        block: &[Vec<f32>],
        queries: &QueryTile<'_>,
        selectors: &mut [TopK],
        stamp: u64,
        candidates: &[usize],
    ) {
        // Upper bound per (shard, query): one small dot against the shard centroid —
        // negligible next to the `rows x dim` GEMM it can save.
        let mut order: Vec<(usize, f32, Vec<f32>)> = candidates
            .iter()
            .map(|&i| (i, &self.shards[i]))
            .filter(|(_, shard)| shard.live > 0 && !shard.is_quarantined())
            .map(|(i, shard)| {
                let bounds: Vec<f32> = block
                    .iter()
                    .zip(queries.inv_norms.iter())
                    .map(|(q, &inv)| shard.stats.upper_bound(q, inv))
                    .collect();
                let best = bounds.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                (i, best, bounds)
            })
            .collect();
        // Best shard first so the selectors tighten as early as possible; ties break on
        // the shard position so the visit order (and the counters) are deterministic.
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let slack = RoutingStats::prune_slack(self.dim);
        let mut scratch = QuantScratch::default();
        for (i, _, bounds) in order {
            let prunable = selectors.iter().zip(bounds.iter()).all(|(selector, &b)| {
                match selector.worst_score_when_full() {
                    // Strict `<`: a bound *tying* the worst retained score could still
                    // displace it through the smaller-id tie-break.
                    Some(worst) => b + slack < worst,
                    None => false,
                }
            });
            if prunable {
                self.counters.pruned.fetch_add(1, Ordering::Relaxed);
                continue; // never faulted in: a spilled shard skips the disk read too
            }
            let shard = &self.shards[i];
            self.counters.visited.fetch_add(1, Ordering::Relaxed);
            if !shard.storage.is_resident() {
                self.counters.faults.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(e) = self.offer_shard(shard, queries, selectors, &mut scratch) {
                self.quarantine(i, e);
            }
            shard.last_used.store(stamp, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CosineIndex;
    use sudowoodo_nn::matrix::for_each_supported_arm;

    fn vectors(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        // Cheap deterministic pseudo-random values without pulling a dev-dependency in.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_index_behaves_like_dense_empty() {
        let index = ShardedCosineIndex::new(4);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert_eq!(index.dim(), 0);
        assert!(index.knn_join(&[vec![1.0]], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "shard_capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = ShardedCosineIndex::new(0);
    }

    #[test]
    fn add_batch_assigns_sequential_id_ranges() {
        let mut index = ShardedCosineIndex::new(3);
        assert_eq!(index.add_batch(&vectors(4, 8, 1)), 0..4);
        assert_eq!(index.add_batch(&[]), 4..4);
        assert_eq!(index.add_batch(&vectors(5, 8, 2)), 4..9);
        assert_eq!(index.len(), 9);
        assert_eq!(index.num_shards(), 3);
        assert_eq!(index.dim(), 8);
    }

    #[test]
    #[should_panic(
        expected = "ShardedCosineIndex::add_batch: vector 1 has dimension 3, expected 2"
    )]
    fn ragged_batch_names_offending_row() {
        let mut index = ShardedCosineIndex::new(4);
        index.add_batch(&[vec![1.0, 0.0], vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn matches_dense_index_on_identical_input() {
        let corpus = vectors(57, 16, 3);
        let queries = vectors(23, 16, 4);
        let dense = CosineIndex::build(corpus.clone());
        for capacity in [1, 5, 8, 57, 100] {
            let sharded = ShardedCosineIndex::from_vectors(&corpus, capacity);
            assert_eq!(
                sharded.knn_join(&queries, 6),
                dense.knn_join(&queries, 6),
                "capacity {capacity} diverged from dense"
            );
            for q in queries.chunks(1) {
                assert_eq!(sharded.knn_join(q, 6), dense.knn_join(q, 6));
            }
        }
    }

    #[test]
    fn a_query_joined_alone_gets_its_results_in_the_batch() {
        let corpus = vectors(40, 12, 5);
        let queries = vectors(10, 12, 6);
        let index = ShardedCosineIndex::from_vectors(&corpus, 7);
        let joined = index.knn_join(&queries, 4);
        for (qi, q) in queries.iter().enumerate() {
            let from_join: Vec<(usize, f32)> = joined
                .iter()
                .filter(|(i, _, _)| *i == qi)
                .map(|&(_, id, s)| (id, s))
                .collect();
            let from_single: Vec<(usize, f32)> = index
                .knn_join(std::slice::from_ref(q), 4)
                .into_iter()
                .map(|(_, id, s)| (id, s))
                .collect();
            assert_eq!(from_join, from_single, "query {qi}");
        }
    }

    #[test]
    fn duplicate_rows_in_odd_sized_corpus_match_dense_exactly() {
        // 5 identical rows (n % 4 != 0), split differently across shards and strips: a
        // 1-ulp difference between two copies' scores would beat the id tie-break, so
        // both layouts must score every copy with the same bits.
        // Duplicate rows are also the adversarial case for routing: the shard radius is
        // ~0 and every bound ties the true score, so only the strict `<` keeps pruning
        // admissible.
        let v = vec![0.6f32, 0.8, 0.1, -0.3, 0.2];
        let corpus = vec![v.clone(); 5];
        let dense = CosineIndex::build(corpus.clone());
        let queries = std::slice::from_ref(&v);
        for capacity in [1usize, 2, 3, 5] {
            let sharded = ShardedCosineIndex::from_vectors(&corpus, capacity);
            assert_eq!(
                sharded.knn_join(queries, 3),
                dense.knn_join(queries, 3),
                "capacity {capacity}"
            );
        }
        // The tie-break contract itself: smallest ids survive, in order, with no pad rows.
        let ids: Vec<usize> = dense.knn_join(queries, 3).iter().map(|p| p.1).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(
            dense.knn_join(queries, 10).len(),
            5,
            "pad rows must never surface"
        );
    }

    #[test]
    fn zero_width_first_batch_then_wider_batch_is_a_ragged_error() {
        let mut index = ShardedCosineIndex::new(4);
        index.add_batch(&[vec![], vec![]]);
        assert_eq!((index.len(), index.dim()), (2, 0));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.add_batch(&[vec![1.0, 2.0]])
        }))
        .expect_err("widening the dimension must be a ragged-input error");
        let message = err
            .downcast_ref::<String>()
            .expect("panic payload is a formatted message");
        assert!(
            message.contains("ShardedCosineIndex::add_batch: vector 0 has dimension 2, expected 0"),
            "unexpected message: {message}"
        );
    }

    #[test]
    fn ties_break_toward_smaller_ids_across_shards() {
        let v = vec![0.6f32, 0.8];
        let mut index = ShardedCosineIndex::new(2);
        index.add_batch(&[v.clone(), v.clone(), v.clone(), v.clone(), v.clone()]);
        let pairs = index.knn_join(&[v], 3);
        assert_eq!(pairs.iter().map(|p| p.1).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn remove_hides_rows_and_compact_reclaims_slots() {
        let corpus = vectors(10, 8, 7);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 4);
        assert_eq!(index.remove(3), Ok(()));
        assert_eq!(
            index.remove(3),
            Err(RemoveError::AlreadyRemoved { id: 3 }),
            "double remove must say so"
        );
        assert_eq!(index.remove(8), Ok(()));
        assert_eq!(
            index.remove(42),
            Err(RemoveError::NeverAssigned {
                id: 42,
                next_id: 10
            }),
            "unknown id must say so"
        );
        assert_eq!(index.len(), 8);
        assert_eq!(index.num_tombstones(), 2);
        assert!(!index.contains(3) && index.contains(2));

        let before = index.knn_join(&vectors(6, 8, 8), 5);
        assert!(before.iter().all(|&(_, id, _)| id != 3 && id != 8));

        assert_eq!(index.compact(), 2);
        assert_eq!(index.num_tombstones(), 0);
        assert_eq!(
            index.num_shards(),
            2,
            "8 survivors repack into 2 shards of 4"
        );
        let after = index.knn_join(&vectors(6, 8, 8), 5);
        assert_eq!(before, after, "compaction must not change search results");
        assert_eq!(index.compact(), 0, "second compaction is a no-op");
    }

    #[test]
    fn remove_error_messages_name_the_id() {
        let mut index = ShardedCosineIndex::from_vectors(&vectors(3, 4, 17), 2);
        index.remove(1).unwrap();
        let already = index.remove(1).unwrap_err();
        assert_eq!(already.to_string(), "id 1 is already removed");
        let never = index.remove(9).unwrap_err();
        assert_eq!(
            never.to_string(),
            "id 9 was never assigned (ids 0..3 have been handed out)"
        );
        // A compacted-away id still reports AlreadyRemoved, not NeverAssigned.
        index.compact();
        assert_eq!(index.remove(1), Err(RemoveError::AlreadyRemoved { id: 1 }));
    }

    #[test]
    fn add_after_compact_continues_stable_ids() {
        let mut index = ShardedCosineIndex::from_vectors(&vectors(6, 4, 9), 4);
        index.remove(0).unwrap();
        index.remove(5).unwrap();
        index.compact();
        assert_eq!(index.add_batch(&vectors(2, 4, 10)), 6..8);
        assert_eq!(index.len(), 6);
        assert!(index.contains(6) && index.contains(7) && !index.contains(0));
    }

    #[test]
    fn all_rows_removed_returns_nothing_until_new_batch() {
        let mut index = ShardedCosineIndex::from_vectors(&vectors(3, 4, 11), 2);
        for id in 0..3 {
            assert!(index.remove(id).is_ok());
        }
        assert!(index.is_empty());
        assert!(index.knn_join(&vectors(2, 4, 12), 2).is_empty());
        index.compact();
        index.add_batch(&vectors(2, 4, 13));
        assert_eq!(index.knn_join(&vectors(1, 4, 14), 5).len(), 2);
    }

    #[test]
    fn memory_budget_spills_cold_shards_without_changing_results() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(60, 8, 15);
        let queries = vectors(12, 8, 16);
        let resident = ShardedCosineIndex::from_vectors(&corpus, 8);
        let expected = resident.knn_join(&queries, 5);

        let mut budgeted = ShardedCosineIndex::from_vectors(&corpus, 8);
        budgeted.set_memory_budget(Some(0));
        budgeted.compact();
        assert_eq!(budgeted.num_spilled_shards(), budgeted.num_shards());
        assert_eq!(budgeted.resident_bytes(), 0);
        assert_eq!(budgeted.knn_join(&queries, 5), expected);

        // A partial budget keeps some shards resident and still answers identically.
        let mut partial = ShardedCosineIndex::from_vectors(&corpus, 8);
        let one_shard = 8 * 8 * 4; // capacity x dim x f32
        partial.set_memory_budget(Some(3 * one_shard));
        partial.compact();
        assert!(partial.num_spilled_shards() > 0);
        assert!(partial.num_spilled_shards() < partial.num_shards());
        assert!(partial.resident_bytes() <= 3 * one_shard);
        assert_eq!(partial.knn_join(&queries, 5), expected);
    }

    #[test]
    fn raising_or_removing_the_budget_restores_residency_on_compact() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(40, 8, 27);
        let queries = vectors(6, 8, 28);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
        let expected = index.knn_join(&queries, 5);
        index.set_memory_budget(Some(0));
        index.compact();
        assert_eq!(index.num_spilled_shards(), index.num_shards());

        // Raising the budget faults hot shards back in on the next compact.
        let one_shard = 8 * 8 * 4;
        index.set_memory_budget(Some(2 * one_shard));
        index.compact();
        assert_eq!(index.num_spilled_shards(), index.num_shards() - 2);
        assert_eq!(index.knn_join(&queries, 5), expected);

        // Removing the budget restores everything.
        index.set_memory_budget(None);
        index.compact();
        assert_eq!(index.num_spilled_shards(), 0);
        assert_eq!(index.resident_bytes(), index.num_shards() * one_shard);
        assert_eq!(index.knn_join(&queries, 5), expected);
    }

    #[test]
    fn spilled_tail_shard_faults_back_for_ingestion() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let mut index = ShardedCosineIndex::from_vectors(&vectors(5, 4, 18), 4);
        index.set_memory_budget(Some(0));
        index.compact();
        assert_eq!(index.num_spilled_shards(), 2);
        // The tail shard has room for 3 more rows; appending must fault it back.
        let ids = index.add_batch(&vectors(2, 4, 19));
        assert_eq!(ids, 5..7);
        assert_eq!(index.len(), 7);
        let fresh = ShardedCosineIndex::from_vectors(
            &{
                let mut all = vectors(5, 4, 18);
                all.extend(vectors(2, 4, 19));
                all
            },
            4,
        );
        assert_eq!(
            index.knn_join(&vectors(3, 4, 20), 4),
            fresh.knn_join(&vectors(3, 4, 20), 4)
        );
    }

    #[test]
    fn routing_prunes_far_shards_and_spares_their_disk_reads() {
        let _quiet = sudowoodo_faults::quiet_scope();
        // Shard 0 carries rows aligned with the query; later shards are orthogonal.
        let mut corpus: Vec<Vec<f32>> = (0..8)
            .map(|i| vec![1.0, 0.001 * i as f32, 0.0, 0.0])
            .collect();
        for i in 0..24 {
            corpus.push(vec![0.0, 0.0, 1.0, 0.001 * i as f32]);
        }
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
        index.set_memory_budget(Some(0));
        index.compact();
        assert_eq!(index.num_spilled_shards(), 4);

        index.reset_routing_report();
        let query = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let hits = index.knn_join(&query, 4);
        assert_eq!(
            hits.iter().map(|h| h.1).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "the aligned shard's rows must win"
        );
        let report = index.routing_report();
        assert!(
            report.shards_pruned >= 3,
            "orthogonal shards should be pruned: {report:?}"
        );
        assert_eq!(
            report.spill_faults, report.shards_visited,
            "every visit faults (all spilled), and pruned shards never fault"
        );
        assert!(report.spill_faults < 4, "pruning must save disk reads");

        // Same query at k >= len(): no selector fills, so nothing can prune — the same
        // best rows lead, and every shard faults.
        index.reset_routing_report();
        assert_eq!(index.knn_join(&query, index.len())[..4], hits[..]);
        let unpruned = index.routing_report();
        assert_eq!(unpruned.shards_pruned, 0);
        assert_eq!(
            unpruned.spill_faults, 4,
            "without pruning every shard faults"
        );
    }

    #[test]
    fn clone_of_a_spilled_index_is_resident_and_identical() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(30, 6, 23);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 4);
        index.set_memory_budget(Some(0));
        index.compact();
        assert!(index.num_spilled_shards() > 0);
        let clone = index.clone();
        assert_eq!(clone.num_spilled_shards(), 0, "clones start fully resident");
        let queries = vectors(5, 6, 24);
        assert_eq!(clone.knn_join(&queries, 3), index.knn_join(&queries, 3));
    }

    /// Deletes the spill file backing shard `i` out from under the index — the
    /// durable-fault fixture (retries cannot help; the shard must quarantine).
    fn destroy_spill_file(index: &ShardedCosineIndex, i: usize) {
        let file = index.shards[i].storage.backing_file();
        std::fs::remove_file(file.expect("shard is spilled")).unwrap();
    }

    #[test]
    fn unreadable_shard_quarantines_degrades_and_compact_drops_it() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(24, 6, 31);
        let queries = vectors(5, 6, 32);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
        index.set_query_cache_capacity(4);
        index.set_memory_budget(Some(0));
        index.compact();
        assert_eq!(index.num_spilled_shards(), 3);
        destroy_spill_file(&index, 1);

        // Routing must not hide the fault: at k >= len() no selector fills, so every
        // shard is visited.
        let k = index.len();
        let outcome = index.knn_join_report(&queries, k);
        assert!(outcome.degraded, "a lost shard must flag the join degraded");
        assert_eq!(outcome.quarantined_shards, vec![1]);
        assert!(
            outcome
                .pairs
                .iter()
                .all(|&(_, id, _)| !(8..16).contains(&id)),
            "shard 1 rows (ids 8..16) cannot be scored"
        );
        assert!(
            !outcome.pairs.is_empty(),
            "the readable shards still answer"
        );
        assert_eq!(
            index.query_cache_len(),
            0,
            "degraded results must never be cached"
        );
        let report = index.routing_report();
        assert_eq!(report.shards_quarantined, 1);
        assert_eq!(report.quarantined_shards, vec![1]);

        // A repeated degraded join skips the quarantined shard without re-quarantining:
        // the per-join quarantine counter is 0 (no new event this join), while the
        // quarantine *state* still lists the shard.
        let again = index.knn_join_report(&queries, k);
        assert_eq!(again, outcome);
        assert_eq!(index.routing_report().shards_quarantined, 0);
        assert_eq!(index.routing_report().quarantined_shards, vec![1]);

        // Compact drops the still-unreadable shard; service returns to non-degraded
        // over the surviving rows (== a fresh index without shard 1's rows).
        index.compact();
        assert_eq!(index.len(), 16);
        assert!(index.quarantined_shards().is_empty());
        let healed = index.knn_join_report(&queries, 4);
        assert!(!healed.degraded);
        let mut surviving = corpus[..8].to_vec();
        surviving.extend_from_slice(&corpus[16..]);
        let fresh = ShardedCosineIndex::from_vectors(&surviving, 8);
        // Stable ids differ after the drop (the fresh index renumbers), so compare
        // the score multisets per query.
        let scores = |pairs: &[(usize, usize, f32)]| {
            let mut s: Vec<(usize, u32)> =
                pairs.iter().map(|&(q, _, sc)| (q, sc.to_bits())).collect();
            s.sort();
            s
        };
        assert_eq!(
            scores(&healed.pairs),
            scores(&fresh.knn_join(&queries, 4)),
            "post-drop answers must match an index that never held the lost rows"
        );
    }

    #[test]
    fn transient_read_faults_recover_without_degrading() {
        let _faults = sudowoodo_faults::arm_scope();
        let corpus = vectors(24, 6, 33);
        let queries = vectors(5, 6, 34);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
        let expected = index.knn_join(&queries, 4);
        index.set_memory_budget(Some(0));
        index.compact();

        // A bounded burst of read faults: the storage retry loop rides it out, so the
        // join is neither degraded nor different.
        sudowoodo_faults::arm("spill.read.io_err", sudowoodo_faults::Policy::Times(2));
        let outcome = index.knn_join_report(&queries, 4);
        assert!(!outcome.degraded, "retried faults must not degrade");
        assert_eq!(outcome.pairs, expected);
        assert!(index.quarantined_shards().is_empty());
    }

    #[test]
    fn durable_faults_quarantine_everything_and_compact_recovers() {
        let _faults = sudowoodo_faults::arm_scope();
        let corpus = vectors(24, 6, 35);
        let queries = vectors(5, 6, 36);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
        let expected = index.knn_join(&queries, 4);
        index.set_memory_budget(Some(0));
        index.compact();

        sudowoodo_faults::arm("spill.read.io_err", sudowoodo_faults::Policy::Always);
        let outcome = index.knn_join_report(&queries, 4);
        assert!(outcome.degraded);
        assert_eq!(outcome.quarantined_shards, vec![0, 1, 2]);
        assert!(outcome.pairs.is_empty(), "no shard was readable");

        // The fault clears (disarm); compact re-reads the quarantined shards and
        // recovers every row — nothing was lost, results are bit-identical again.
        sudowoodo_faults::disarm("spill.read.io_err");
        index.compact();
        assert_eq!(index.len(), 24, "all rows recovered");
        assert!(index.quarantined_shards().is_empty());
        let healed = index.knn_join_report(&queries, 4);
        assert!(!healed.degraded);
        assert_eq!(healed.pairs, expected);
    }

    /// Regression: scan counters used to accumulate across `knn_join` calls on a
    /// reused handle, so the second identical join reported doubled visit/fault
    /// tallies. They are per-join now; cache hit/miss tallies stay cumulative.
    #[test]
    fn scan_counters_describe_one_join_cache_counters_accumulate() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(48, 8, 61);
        let queries = vectors(6, 8, 62);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
        index.set_memory_budget(Some(0));
        index.compact();
        let _ = index.knn_join(&queries, 3);
        let first = index.routing_report();
        assert!(first.shards_visited > 0);
        assert!(first.spill_faults > 0);
        let _ = index.knn_join(&queries, 3);
        let second = index.routing_report();
        assert_eq!(
            (second.shards_visited, second.spill_faults),
            (first.shards_visited, first.spill_faults),
            "an identical repeated join must report identical (not doubled) scan work"
        );

        index.set_query_cache_capacity(2);
        let _ = index.knn_join(&queries, 3); // computes, inserts
        let _ = index.knn_join(&queries, 3); // served from the cache
        let report = index.routing_report();
        assert_eq!((report.cache_misses, report.cache_hits), (1, 1));
        assert_eq!(
            (report.shards_visited, report.spill_faults),
            (0, 0),
            "a cache hit scans nothing, and the report must say so"
        );
    }

    #[test]
    fn quantized_join_is_bit_identical_and_counts_its_scans() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(100, 16, 71);
        let queries = vectors(9, 16, 72);
        let dense = ShardedCosineIndex::from_vectors(&corpus, 16);
        let expected = dense.knn_join(&queries, 5);

        let mut quantized = ShardedCosineIndex::from_vectors(&corpus, 16);
        quantized.set_quantization(Some(QuantSpec::default()));
        quantized.compact();
        assert_eq!(quantized.num_quantized_shards(), quantized.num_shards());
        let pairs = quantized.knn_join(&queries, 5);
        assert_eq!(pairs.len(), expected.len());
        for (got, want) in pairs.iter().zip(expected.iter()) {
            assert_eq!(
                (got.0, got.1, got.2.to_bits()),
                (want.0, want.1, want.2.to_bits()),
                "quantized ids and score bits must match the dense build"
            );
        }
        let report = quantized.routing_report();
        assert!(report.quant_scans > 0, "the i8 first stage must have run");
        assert!(
            report.rescored_rows > 0,
            "survivors must have been rescored"
        );

        // Spilled + quantized: results unchanged, and the resident scanning footprint
        // is the i8 tier only (the exact payload stays on disk for the rescore).
        quantized.set_memory_budget(Some(0));
        quantized.compact();
        assert_eq!(quantized.num_spilled_shards(), quantized.num_shards());
        assert_eq!(quantized.resident_bytes(), 0);
        let spilled_pairs = quantized.knn_join(&queries, 5);
        assert_eq!(spilled_pairs, pairs);
        assert!(quantized.quantized_payload_bytes() > 0);

        // Turning the tier off re-encodes back to dense storage at the next compact.
        quantized.set_quantization(None);
        quantized.set_memory_budget(None);
        quantized.compact();
        assert_eq!(quantized.num_quantized_shards(), 0);
        assert_eq!(quantized.knn_join(&queries, 5), pairs);
        assert_eq!(quantized.routing_report().quant_scans, 0);
    }

    /// Regression: faulting quantized shards back for residency used to drop their i8
    /// tier, so it took a second `compact()` to quantize them again.
    #[test]
    fn lifting_the_budget_faults_quantized_shards_back_with_their_codes() {
        let _quiet = sudowoodo_faults::quiet_scope();
        let corpus = vectors(64, 8, 81);
        let queries = vectors(6, 8, 82);
        let mut index = ShardedCosineIndex::from_vectors(&corpus, 16);
        let expected = index.knn_join(&queries, 5);
        index.set_quantization(Some(QuantSpec::default()));
        index.set_memory_budget(Some(0));
        index.compact();
        assert_eq!(index.num_spilled_shards(), 4);
        assert_eq!(index.num_quantized_shards(), 4);

        index.set_memory_budget(None);
        index.compact();
        assert_eq!(index.num_spilled_shards(), 0);
        assert_eq!(index.num_quantized_shards(), index.num_shards());
        assert_eq!(index.knn_join(&queries, 5), expected);
        assert!(index.routing_report().quant_scans > 0);
    }

    /// The candidate rule as first written — one `dot_i8` per (query, live row), the
    /// approximate scores of the whole shard materialised, `a_ref` by `select_nth` on
    /// a copy — kept as the oracle of [`quant_survivors`]: per query, the live rows
    /// that must be rescored, ascending.
    fn quant_survivors_oracle(
        shard: &Shard,
        quant: &QuantizedMatrix,
        queries: &QuantizedBlock,
        selectors: &[TopK],
        k_wide: usize,
    ) -> Vec<Vec<usize>> {
        let dim = quant.cols();
        let live_rows: Vec<usize> = (0..shard.ids.len())
            .filter(|&row| !shard.deleted[row])
            .collect();
        let mut approx = vec![0.0f64; live_rows.len()];
        let mut order_scratch = vec![0.0f64; live_rows.len()];
        let mut survivors = Vec::with_capacity(selectors.len());
        for (r, selector) in selectors.iter().enumerate() {
            let eps = RoutingStats::quant_scan_epsilon(
                queries.norms[r],
                queries.err_norms[r],
                quant.max_err_norm(),
                quant.max_row_norm(),
                dim,
            );
            for (j, &row) in live_rows.iter().enumerate() {
                let idot =
                    Matrix::dot_i8(&queries.codes[r * dim..(r + 1) * dim], quant.code_row(row));
                approx[j] = queries.scales[r] as f64 * quant.scale(row) as f64 * idot as f64;
            }
            let a_ref = if k_wide == 0 || live_rows.len() <= k_wide {
                // No surplus to filter: every live row is a candidate.
                f64::NEG_INFINITY
            } else {
                order_scratch.copy_from_slice(&approx);
                let (_, nth, _) = order_scratch.select_nth_unstable_by(k_wide - 1, |a, b| {
                    b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
                });
                *nth
            };
            let worst = selector
                .worst_score_when_full()
                .map_or(f64::NEG_INFINITY, |w| w as f64 - eps);
            let threshold = worst.max(a_ref - 2.0 * eps);
            survivors.push(
                live_rows
                    .iter()
                    .zip(&approx)
                    .filter(|(_, &a)| a >= threshold)
                    .map(|(&row, _)| row)
                    .collect(),
            );
        }
        survivors
    }

    /// [`quant_survivors`] per query, ascending, for comparison with the oracle.
    fn quant_survivor_rows(
        shard: &Shard,
        queries: &QuantizedBlock,
        selectors: &[TopK],
        k_wide: usize,
        scratch: &mut QuantScratch,
    ) -> Vec<Vec<usize>> {
        let quant = shard.storage.quant().unwrap().unwrap();
        quant_survivors(shard, quant, queries, selectors, k_wide, scratch);
        scratch.lanes[..selectors.len()]
            .iter()
            .map(|lane| {
                let mut rows: Vec<usize> = lane.kept.iter().map(|&(_, row)| row).collect();
                rows.sort_unstable();
                rows
            })
            .collect()
    }

    /// `rows` vectors drawn from `distinct` distinct ones, so approximate scores tie
    /// exactly, at `a_ref` included.
    fn repeating_corpus(rows: usize, distinct: usize, dim: usize) -> Vec<Vec<f32>> {
        let base = vectors(distinct, dim, 91);
        (0..rows)
            .map(|i| base[(i * 7 + i / 5) % distinct].clone())
            .collect()
    }

    /// A one-shard quantized index over `corpus`, the packed codes of `n_queries`
    /// queries, and selectors in every fill state, query `q` in state `q % 5`: empty,
    /// part-full, full with a worst score nothing in the shard reaches, full with one
    /// everything reaches, and full at the exact score of a corpus row.
    fn quant_fixture(
        corpus: Vec<Vec<f32>>,
        k: usize,
        n_queries: usize,
    ) -> (ShardedCosineIndex, Vec<Vec<f32>>, QuantizedBlock, Vec<TopK>) {
        let (rows, dim) = (corpus.len(), corpus[0].len());
        let mut index = ShardedCosineIndex::from_vectors(&corpus, rows);
        index.set_quantization(Some(QuantSpec::default()));
        index.compact();
        assert_eq!((index.num_shards(), index.num_quantized_shards()), (1, 1));
        let queries = vectors(n_queries, dim, 92);
        let (q_block, inv_norms) = pack_query_block("quant_fixture", 0, &queries, dim);
        let codes = QuantizedBlock::from_scaled_rows(&q_block, &inv_norms);
        let mut selectors: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
        let third_best = CosineIndex::build(corpus.clone()).knn_join(&queries, 3);
        for (q, selector) in selectors.iter_mut().enumerate() {
            for i in 0..k {
                match q % 5 {
                    1 if i < k / 2 => selector.offer(usize::MAX - i, 0.5),
                    2 => selector.offer(usize::MAX - i, 2.0),
                    3 => selector.offer(usize::MAX - i, -2.0),
                    4 => selector.offer(usize::MAX - i, third_best[3 * q + 2].2),
                    _ => {}
                }
            }
        }
        (index, corpus, codes, selectors)
    }

    #[test]
    fn lane_keeps_rows_tied_with_either_threshold() {
        // A one-code query `1` at unit scales makes the approximate scores the shard's
        // codes, small integers, and `eps = 0.5` is exact: both `a_ref − 2·eps` and
        // `worst − eps` land exactly on other rows' scores, so `>=` against `>` decides
        // rows in every case below.
        let dots: Vec<i8> = (0..700).map(|i| ((i * 37) % 23 - 4) as i8).collect();
        let row_scales = vec![1.0f32; dots.len()];
        let deleted: Vec<bool> = (0..dots.len()).map(|i| i % 11 == 3).collect();
        let live: Vec<(f64, usize)> = (0..dots.len())
            .filter(|&row| !deleted[row])
            .map(|row| (dots[row] as f64, row))
            .collect();
        let mut descending: Vec<f64> = live.iter().map(|&(approx, _)| approx).collect();
        descending.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let cases: [(Option<usize>, Option<f32>); 6] = [
            (Some(5), None),
            (Some(40), None),
            (Some(5), Some(15.5)),
            (Some(200), Some(-3.5)),
            (None, Some(10.5)),
            (None, None),
        ];
        for_each_supported_arm(|arm| {
            for (k_wide, worst) in cases {
                let mut tile = I8Tile::new(&[1], 1, &[1.0]);
                let (mut lanes, mut thresholds) = (vec![QuantLane::default()], Vec::new());
                lanes[0].begin(0.5, worst);
                let strips = dots.chunks(150).zip(row_scales.chunks(150));
                for (strip, codes) in strips.enumerate() {
                    let base = strip * 150;
                    offer_strip(
                        &mut tile,
                        &mut lanes,
                        &mut thresholds,
                        codes,
                        &deleted,
                        base,
                        k_wide,
                    );
                }
                lanes[0].tighten(k_wide);
                let a_ref = k_wide.map_or(f64::NEG_INFINITY, |k_wide| descending[k_wide - 1]);
                let floor = worst.map_or(f64::NEG_INFINITY, |w| w as f64 - 0.5);
                let threshold = floor.max(a_ref - 1.0);
                let expected: Vec<usize> = live
                    .iter()
                    .filter(|&&(approx, _)| approx >= threshold)
                    .map(|&(_, row)| row)
                    .collect();
                assert!(
                    threshold == f64::NEG_INFINITY || live.iter().any(|&(a, _)| a == threshold),
                    "the case must put rows exactly on the threshold"
                );
                let mut got: Vec<usize> = lanes[0].kept.iter().map(|&(_, row)| row).collect();
                got.sort_unstable();
                assert_eq!(
                    got, expected,
                    "k_wide {k_wide:?}, worst {worst:?} [{arm:?}]"
                );
            }
        });
    }

    #[test]
    fn quant_survivors_match_the_oracle_on_every_arm_across_two_panels() {
        // 70 queries: two 64-query panels on the AVX-512 arms, the last ragged. `dim` 13
        // ends mid lane group, so the VNNI arm cannot read the codes in place. All-zero
        // rows and tombstones, across the strip boundary too, sit among the shard's.
        let (rows, dim, k) = (QUANT_STRIP_ROWS + 77, 13, 4);
        let mut corpus = repeating_corpus(rows, 40, dim);
        for row in corpus.iter_mut().skip(3).step_by(61) {
            row.fill(0.0);
        }
        let (mut index, _, codes, selectors) = quant_fixture(corpus, k, 70);
        for id in [0, 5, 64, QUANT_STRIP_ROWS - 1, QUANT_STRIP_ROWS, rows - 1] {
            index.remove(id).unwrap();
        }
        let shard = &index.shards[0];
        let quant = shard.storage.quant().unwrap().unwrap();
        for k_wide in [k, 2 * k, 50 * k, usize::MAX] {
            let expected = quant_survivors_oracle(shard, quant, &codes, &selectors, k_wide);
            for_each_supported_arm(|arm| {
                let mut scratch = QuantScratch::default();
                let got = quant_survivor_rows(shard, &codes, &selectors, k_wide, &mut scratch);
                assert_eq!(got, expected, "k_wide = {k_wide} [{arm:?}]");
            });
        }
    }

    #[test]
    fn streaming_candidate_filter_keeps_exactly_what_the_select_nth_rule_keeps() {
        // More rows than two strips, few distinct vectors: every approximate score is
        // shared by dozens of rows, so `a_ref` always sits on a tie.
        let (rows, k) = (2 * QUANT_STRIP_ROWS + 77, 6);
        let (index, _, codes, selectors) = quant_fixture(repeating_corpus(rows, 40, 12), k, 5);
        let shard = &index.shards[0];
        let quant = shard.storage.quant().unwrap().unwrap();
        let mut scratch = QuantScratch::default();
        // alpha 1, 2 (the default) and 50, then `k_wide` beyond the live rows.
        for k_wide in [k, 2 * k, 50 * k, rows, rows + 1, usize::MAX] {
            let expected = quant_survivors_oracle(shard, quant, &codes, &selectors, k_wide);
            let got = quant_survivor_rows(shard, &codes, &selectors, k_wide, &mut scratch);
            assert_eq!(got, expected, "k_wide = {k_wide}");
            if k_wide >= rows {
                assert_eq!(
                    got[0].len(),
                    rows,
                    "no surplus: an empty selector keeps every row"
                );
            }
            assert!(got[2].is_empty(), "nothing reaches a worst score of 2");
            assert!(
                !got[4].is_empty(),
                "rows at the retained exact score stay candidates"
            );
        }
    }

    #[test]
    fn rescored_rows_counts_the_union_of_the_survivor_lists() {
        // One shard and one query tile: every selector is empty when the shard is
        // visited, and the rescore reads each row some query kept exactly once.
        let (rows, k) = (QUANT_STRIP_ROWS + 40, 4);
        let (index, _, codes, _) = quant_fixture(repeating_corpus(rows, 300, 8), k, 5);
        let shard = &index.shards[0];
        let quant = shard.storage.quant().unwrap().unwrap();
        let empty: Vec<TopK> = (0..codes.scales.len()).map(|_| TopK::new(k)).collect();
        let lists = quant_survivors_oracle(shard, quant, &codes, &empty, 2 * k);
        let mut union = lists.concat();
        union.sort_unstable();
        union.dedup();
        assert!(lists.iter().map(Vec::len).sum::<usize>() > union.len());
        assert!(union.len() < rows);

        let _ = index.knn_join(&vectors(codes.scales.len(), 8, 92), k);
        let report = index.routing_report();
        assert_eq!(
            (report.quant_scans, report.rescored_rows),
            (1, union.len() as u64)
        );
    }

    #[test]
    fn quantized_scan_skips_tombstones_across_a_strip_boundary() {
        let (rows, k) = (QUANT_STRIP_ROWS + 40, 4);
        let (mut index, corpus, codes, selectors) =
            quant_fixture(repeating_corpus(rows, 300, 8), k, 5);
        // Tombstones on both sides of the first strip's last row, the strip's first
        // and the shard's last row among them.
        let mut removed: Vec<usize> = (QUANT_STRIP_ROWS - 9..QUANT_STRIP_ROWS + 9).collect();
        removed.extend([0, 17, rows - 1]);
        for &id in &removed {
            index.remove(id).unwrap();
        }
        let mut scratch = QuantScratch::default();
        let compare = |index: &ShardedCosineIndex, scratch: &mut QuantScratch, k_wide: usize| {
            let shard = &index.shards[0];
            let quant = shard.storage.quant().unwrap().unwrap();
            let expected = quant_survivors_oracle(shard, quant, &codes, &selectors, k_wide);
            let got = quant_survivor_rows(shard, &codes, &selectors, k_wide, scratch);
            assert_eq!(got, expected, "k_wide = {k_wide}, {} live", shard.live);
            assert!(got.iter().flatten().all(|&row| !shard.deleted[row]));
            got
        };
        for k_wide in [k, 2 * k, 50 * k] {
            compare(&index, &mut scratch, k_wide);
        }
        // The whole join agrees with a dense index over the surviving rows.
        let survivors: Vec<usize> = (0..rows).filter(|id| !removed.contains(id)).collect();
        let queries = vectors(5, 8, 92);
        let dense = CosineIndex::build(survivors.iter().map(|&id| corpus[id].clone()).collect());
        let expected: Vec<(usize, usize, u32)> = dense
            .knn_join(&queries, k)
            .into_iter()
            .map(|(q, row, score)| (q, survivors[row], score.to_bits()))
            .collect();
        let got: Vec<(usize, usize, u32)> = index
            .knn_join(&queries, k)
            .into_iter()
            .map(|(q, id, score)| (q, id, score.to_bits()))
            .collect();
        assert_eq!(got, expected);
        assert_eq!(index.routing_report().quant_scans, 1);

        // Few enough live rows that `a_ref = −∞`: with an empty selector every live
        // row is a candidate, tombstones still are not.
        for id in (0..rows).filter(|id| !removed.contains(id)).skip(2 * k) {
            index.remove(id).unwrap();
        }
        assert_eq!(index.len(), 2 * k);
        let got = compare(&index, &mut scratch, 2 * k);
        let live: Vec<usize> = (0..rows)
            .filter(|&row| !index.shards[0].deleted[row])
            .collect();
        assert_eq!(got[0], live);
    }
}
