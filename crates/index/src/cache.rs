//! Query-batch result cache for the sharded blocking index.
//!
//! Production serving traffic is repetitive: the same query batch (a dashboard refresh,
//! a retried RPC, a popular entity page) hits `knn_join` again and again while the
//! corpus barely moves. This cache sits inside [`crate::ShardedCosineIndex`] **ahead of
//! routing**, so a repeated batch answers without touching a single shard (resident *or*
//! spilled: a cache hit does no disk I/O and no GEMM at all). The index is its only
//! reader and writer: every join — alone or coalesced with other batches through
//! [`crate::ShardedCosineIndex::knn_join_batches`] — looks each batch up here and
//! records each computed batch under its own key.
//!
//! ## Keying: the normalized-query fingerprint
//!
//! A cache key is a 128-bit FNV-1a fingerprint of `(dim, k, query count, every query's
//! length and **normalized** row bits)`. Every join scores the whole index, and any
//! change to the shard layout bumps the epoch (below), so the key needs no shard
//! words. Per-row lengths delimit the stream, so a ragged batch can never alias a
//! rectangular one.
//! Hashing the normalized rows (`q · 1/‖q‖`, the exact scale
//! the scoring path applies) makes the cache scale-invariant, mirroring cosine search
//! itself: `2q` retrieves identically to `q` and shares its entry. Two independent
//! 64-bit FNV streams with different offset bases form the 128-bit key, making an
//! accidental collision (~2⁻¹²⁸ per pair) negligible next to hardware error rates.
//!
//! Precision note: for an **exactly repeated** batch (and for power-of-two rescalings,
//! which are exact in IEEE-754) a hit is bit-identical to recomputing. A batch that
//! merely *aliases* a cached one — same normalized bits reached from a different raw
//! scale — gets the cached answer, which may differ from its own from-scratch
//! computation by final-ulp rounding (the scoring path applies `1/‖q‖` after the raw
//! dot product). That is within the engine's cosine contract: the two batches are the
//! same query directions by construction.
//!
//! ## Invalidation: the mutation epoch
//!
//! The index keeps a monotonically increasing **epoch**, bumped by every successful
//! `add_batch`, `remove`, and `compact`. Entries are stamped with the epoch at insert;
//! a lookup under a different epoch is a miss (the stale entry is evicted on the spot).
//! This makes invalidation O(1) per mutation — no scanning the cache — while
//! guaranteeing a hit is always *result-identical* to recomputing against the current
//! corpus: between the stamp and the hit, no mutation happened.
//!
//! Capacity is counted in cached batches and evicts least-recently-used first. The
//! cache is internally synchronized (lookups take `&self`, exactly like `knn_join`) and
//! disabled at capacity 0 — the default, so nothing changes for existing callers until
//! [`crate::ShardedCosineIndex::set_query_cache_capacity`] (or
//! `SudowoodoConfig::blocking_query_cache` upstream) opts in.

use std::collections::HashMap;
use std::sync::Mutex;

/// One `knn_join` result set: `(query_index, stable_id, score)` pairs.
type JoinResult = Vec<(usize, usize, f32)>;

/// 128-bit fingerprint of a normalized query batch (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryFingerprint(u128);

/// Computes the fingerprint of a query batch for a `k`-neighbor join over a
/// `dim`-dimensional index.
///
/// Queries are normalized exactly like the scoring path normalizes them (inverse norm,
/// with the `1e-12` zero-norm guard), so scaled copies of a batch share one entry.
pub fn fingerprint(queries: &[Vec<f32>], k: usize, dim: usize) -> QueryFingerprint {
    // Two independent FNV-1a streams over the same words -> one 128-bit key.
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325; // the standard FNV-1a offset basis
    let mut hi: u64 = 0x6c62_272e_07bb_0142; // the FNV-1a 128-bit basis' low word
    let mix = |word: u32, lo: &mut u64, hi: &mut u64| {
        *lo = (*lo ^ word as u64).wrapping_mul(PRIME);
        *hi = (*hi ^ (word as u64).rotate_left(17)).wrapping_mul(PRIME);
    };
    mix(dim as u32, &mut lo, &mut hi);
    mix(k as u32, &mut lo, &mut hi);
    mix(queries.len() as u32, &mut lo, &mut hi);
    for q in queries {
        // Each row's length delimits its words in the stream. Without it, a *ragged*
        // batch could alias a rectangular one (same concatenated bits, different row
        // boundaries) and silently take its cached result instead of reaching the
        // scoring path's ragged-input panic.
        mix(q.len() as u32, &mut lo, &mut hi);
        let norm: f32 = q.iter().map(|x| x * x).sum::<f32>().sqrt();
        let inv = if norm > 1e-12 { 1.0 / norm } else { 0.0 };
        for &x in q {
            mix((x * inv).to_bits(), &mut lo, &mut hi);
        }
    }
    QueryFingerprint(((hi as u128) << 64) | lo as u128)
}

/// One cached batch: the results, the epoch they were computed under, and an LRU stamp.
#[derive(Debug)]
struct Entry {
    epoch: u64,
    last_used: u64,
    results: JoinResult,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<QueryFingerprint, Entry>,
    /// Monotone use counter driving LRU eviction.
    tick: u64,
}

/// A bounded, epoch-validated cache of `knn_join` results (see the module docs).
#[derive(Debug)]
pub(crate) struct QueryCache {
    /// Maximum number of cached batches; 0 disables the cache entirely.
    capacity: usize,
    inner: Mutex<Inner>,
}

impl QueryCache {
    /// Creates a cache retaining at most `capacity` batches (0 = disabled).
    pub(crate) fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// `true` when the cache can hold anything at all.
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured capacity in batches.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of batches currently cached (stale-epoch entries included until touched).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Returns the cached results for `key` if present *and* computed under `epoch`.
    /// A stale-epoch entry is removed on the way out (its slot is dead weight).
    pub(crate) fn lookup(&self, key: QueryFingerprint, epoch: u64) -> Option<JoinResult> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = tick;
                Some(entry.results.clone())
            }
            Some(_) => {
                inner.entries.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Caches `results` for `key` under `epoch`, evicting the least-recently-used
    /// entry when the cache is full. No-op when the cache is disabled.
    pub(crate) fn insert(&self, key: QueryFingerprint, epoch: u64, results: JoinResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.len() >= self.capacity && !inner.entries.contains_key(&key) {
            // Evict the least-recently-used batch (ties cannot happen: ticks are unique).
            if let Some(&evict) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.entries.remove(&evict);
            }
        }
        inner.entries.insert(
            key,
            Entry {
                epoch,
                last_used: tick,
                results,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: usize) -> JoinResult {
        vec![(0, tag, 0.5)]
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = QueryCache::new(4);
        let key = fingerprint(&[vec![1.0, 0.0]], 3, 2);
        cache.insert(key, 7, result(1));
        assert_eq!(cache.lookup(key, 7), Some(result(1)));
        assert_eq!(cache.lookup(key, 8), None, "epoch bump must invalidate");
        assert_eq!(cache.len(), 0, "the stale entry is dropped on miss");
    }

    #[test]
    fn fingerprint_is_scale_invariant_but_shape_sensitive() {
        let q = vec![vec![0.6f32, 0.8], vec![1.0, 0.0]];
        let doubled: Vec<Vec<f32>> = q
            .iter()
            .map(|v| v.iter().map(|x| x * 2.0).collect())
            .collect();
        assert_eq!(fingerprint(&q, 5, 2), fingerprint(&doubled, 5, 2));
        assert_ne!(fingerprint(&q, 5, 2), fingerprint(&q, 6, 2), "k is keyed");
        assert_ne!(
            fingerprint(&q[..1], 5, 2),
            fingerprint(&q, 5, 2),
            "batch length is keyed"
        );
        let other = vec![vec![0.6f32, 0.8], vec![0.0, 1.0]];
        assert_ne!(fingerprint(&q, 5, 2), fingerprint(&other, 5, 2));
    }

    #[test]
    fn ragged_batches_never_alias_rectangular_ones() {
        // Same concatenated normalized bit stream, different row boundaries: [1],[0,0,1]
        // vs [1,0],[0,1]. The per-row length words must keep the keys apart, so a
        // ragged batch reaches the scoring path's panic instead of a silent cache hit.
        let rect = vec![vec![1.0f32, 0.0], vec![0.0, 1.0]];
        let ragged = vec![vec![1.0f32], vec![0.0, 0.0, 1.0]];
        assert_ne!(fingerprint(&rect, 4, 2), fingerprint(&ragged, 4, 2));
    }

    #[test]
    fn lru_evicts_the_coldest_batch() {
        let cache = QueryCache::new(2);
        let keys: Vec<QueryFingerprint> = (0..3)
            .map(|i| fingerprint(&[vec![i as f32 + 1.0, 1.0]], 1, 2))
            .collect();
        cache.insert(keys[0], 0, result(0));
        cache.insert(keys[1], 0, result(1));
        assert!(cache.lookup(keys[0], 0).is_some(), "warm key 0");
        cache.insert(keys[2], 0, result(2)); // key 1 is now the coldest
        assert_eq!(cache.lookup(keys[1], 0), None, "cold entry evicted");
        assert_eq!(cache.lookup(keys[0], 0), Some(result(0)));
        assert_eq!(cache.lookup(keys[2], 0), Some(result(2)));
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = QueryCache::new(0);
        assert!(!cache.is_enabled());
        let key = fingerprint(&[vec![1.0]], 1, 1);
        cache.insert(key, 0, result(1));
        assert_eq!(cache.lookup(key, 0), None);
        assert_eq!(cache.capacity(), 0);
    }
}
