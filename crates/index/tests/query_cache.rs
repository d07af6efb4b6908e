//! Query-batch cache contract: hits are result-identical to recomputing, every
//! mutation (add/remove/compact) invalidates through the epoch, and the cache layer is
//! invisible in results in every index configuration (resident, spilled, routed).

use sudowoodo_index::{BlockingIndex, ShardedCosineIndex};

fn vectors(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
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
fn hits_are_identical_to_uncached_results() {
    let corpus = vectors(120, 8, 1);
    let queries = vectors(30, 8, 2);
    let uncached = ShardedCosineIndex::from_vectors(&corpus, 16);
    assert_eq!(uncached.query_cache_capacity(), 0, "cache is opt-in");
    let expected = uncached.knn_join(&queries, 5);

    let mut cached = ShardedCosineIndex::from_vectors(&corpus, 16);
    cached.set_query_cache_capacity(4);
    assert_eq!(cached.knn_join(&queries, 5), expected, "miss (computed)");
    assert_eq!(cached.knn_join(&queries, 5), expected, "hit (cached)");
    let report = cached.routing_report();
    assert_eq!((report.cache_misses, report.cache_hits), (1, 1));
    assert_eq!(cached.query_cache_len(), 1);

    // The hit really skipped the shards: visit counters stop moving.
    let visits_after_two = cached.routing_report().shards_visited;
    assert_eq!(cached.knn_join(&queries, 5), expected);
    assert_eq!(cached.routing_report().shards_visited, visits_after_two);

    // A scaled copy of the batch shares the entry (cosine is scale-invariant).
    let doubled: Vec<Vec<f32>> = queries
        .iter()
        .map(|q| q.iter().map(|x| x * 2.0).collect())
        .collect();
    assert_eq!(cached.knn_join(&doubled, 5), expected);
    assert_eq!(cached.routing_report().cache_hits, 3);

    // Different k or different batch -> different entry.
    assert_eq!(cached.knn_join(&queries, 3), uncached.knn_join(&queries, 3));
    assert_eq!(cached.routing_report().cache_misses, 2);
}

#[test]
fn every_mutation_bumps_the_epoch_and_invalidates() {
    let corpus = vectors(60, 6, 3);
    let queries = vectors(10, 6, 4);
    let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
    index.set_query_cache_capacity(4);

    let before = index.knn_join(&queries, 4);
    assert_eq!(index.knn_join(&queries, 4), before, "warm");
    let epoch0 = index.epoch();

    // add_batch: the cached result no longer reflects the corpus.
    index.add_batch(&vectors(5, 6, 5));
    assert!(index.epoch() > epoch0);
    let after_add = index.knn_join(&queries, 4);
    let mut fresh = ShardedCosineIndex::from_vectors(&corpus, 8);
    fresh.add_batch(&vectors(5, 6, 5));
    assert_eq!(after_add, fresh.knn_join(&queries, 4), "post-add recompute");

    // remove: same story.
    let epoch1 = index.epoch();
    index.remove(0).unwrap();
    assert!(index.epoch() > epoch1);
    fresh.remove(0).unwrap();
    assert_eq!(index.knn_join(&queries, 4), fresh.knn_join(&queries, 4));

    // compact: results unchanged, but the epoch still bumps (conservative) and the
    // recomputed answer matches the pre-compact one exactly.
    let pre_compact = index.knn_join(&queries, 4);
    let epoch2 = index.epoch();
    index.compact();
    assert!(index.epoch() > epoch2);
    assert_eq!(
        index.knn_join(&queries, 4),
        pre_compact,
        "before/after compact"
    );

    // Failed mutations leave the epoch (and the cache) alone.
    let epoch3 = index.epoch();
    assert!(index.remove(0).is_err());
    assert!(index.remove(10_000).is_err());
    index.add_batch(&[]);
    assert_eq!(index.epoch(), epoch3);
    let hits_before = index.routing_report().cache_hits;
    assert_eq!(index.knn_join(&queries, 4), pre_compact);
    assert_eq!(
        index.routing_report().cache_hits,
        hits_before + 1,
        "the entry cached after compact must still serve"
    );
}

#[test]
fn cache_is_invisible_over_spilled_and_routed_shards() {
    let corpus = vectors(90, 8, 6);
    let queries = vectors(12, 8, 7);
    let reference = ShardedCosineIndex::from_vectors(&corpus, 8);
    let expected = reference.knn_join(&queries, 5);

    let mut spilled = ShardedCosineIndex::from_vectors_with_budget(&corpus, 8, Some(0));
    spilled.set_query_cache_capacity(2);
    assert_eq!(spilled.knn_join(&queries, 5), expected);
    assert!(
        spilled.routing_report().spill_faults > 0,
        "the miss must have faulted shards in"
    );
    assert_eq!(spilled.knn_join(&queries, 5), expected, "cached over spill");
    // Scan counters describe the most recent join only: a cache hit does no scan
    // work at all, so the hit's report shows zero faults (and zero visits).
    let report = spilled.routing_report();
    assert_eq!(
        (report.spill_faults, report.shards_visited),
        (0, 0),
        "a cache hit must not fault a single shard from disk: {report:?}"
    );
}

#[test]
fn lru_capacity_is_honoured_end_to_end() {
    let corpus = vectors(40, 4, 8);
    let mut index = ShardedCosineIndex::from_vectors(&corpus, 8);
    index.set_query_cache_capacity(2);
    let batches: Vec<Vec<Vec<f32>>> = (0..3).map(|s| vectors(4, 4, 20 + s)).collect();
    for batch in &batches {
        index.knn_join(batch, 3);
    }
    assert_eq!(index.query_cache_len(), 2, "capacity bounds cached batches");
    // Batch 0 was evicted (coldest), batches 1 and 2 still serve.
    let report_before = index.routing_report();
    index.knn_join(&batches[1], 3);
    index.knn_join(&batches[2], 3);
    let report_after = index.routing_report();
    assert_eq!(report_after.cache_hits, report_before.cache_hits + 2);
    index.knn_join(&batches[0], 3);
    assert_eq!(
        index.routing_report().cache_misses,
        report_after.cache_misses + 1
    );
}

#[test]
fn ragged_batches_still_panic_with_the_cache_enabled() {
    // A ragged batch whose concatenated normalized bits equal a cached rectangular
    // batch's must NOT hit the cache — the documented ragged-input panic must fire.
    let mut index = ShardedCosineIndex::from_vectors(&[vec![1.0, 0.0], vec![0.0, 1.0]], 2);
    index.set_query_cache_capacity(4);
    index.knn_join(&[vec![1.0, 0.0], vec![0.0, 1.0]], 1); // cached rectangular batch
    let err = std::panic::catch_unwind(|| index.knn_join(&[vec![1.0], vec![0.0, 0.0, 1.0]], 1))
        .expect_err("ragged batch must panic, not silently hit the cache");
    let message = err
        .downcast_ref::<String>()
        .expect("panic payload is a formatted message");
    assert!(
        message.contains("dimension"),
        "unexpected message: {message}"
    );
}

#[test]
fn blocking_api_exposes_the_cache_only_on_the_sharded_layout() {
    let corpus = vectors(50, 6, 9);
    let queries = vectors(8, 6, 10);
    let mut dense = BlockingIndex::build(corpus.clone(), None);
    let mut sharded = BlockingIndex::build(corpus, Some(8));
    dense.set_query_cache_capacity(4); // no-op by contract
    sharded.set_query_cache_capacity(4);

    let expected = dense.knn_join(&queries, 5);
    assert_eq!(sharded.knn_join(&queries, 5), expected, "miss");
    assert_eq!(sharded.knn_join(&queries, 5), expected, "hit");
    let BlockingIndex::Sharded(inner) = &sharded else {
        unreachable!("built with a shard capacity")
    };
    let report = inner.routing_report();
    assert_eq!((report.cache_misses, report.cache_hits), (1, 1));
    assert_eq!(dense.knn_join(&queries, 5), expected);
}

#[test]
fn coalesced_batches_are_looked_up_and_cached_one_by_one() {
    let corpus = vectors(100, 8, 13);
    let batches: Vec<Vec<Vec<f32>>> = (0..3).map(|s| vectors(5 + s as usize, 8, 30 + s)).collect();
    let uncached = ShardedCosineIndex::from_vectors(&corpus, 16);
    let mut index = ShardedCosineIndex::from_vectors(&corpus, 16);
    index.set_query_cache_capacity(3);
    index.knn_join(&batches[1], 4); // warm one of the three

    let views: Vec<&[Vec<f32>]> = batches.iter().map(Vec::as_slice).collect();
    let outcomes = index.knn_join_batches(&views, 4);
    for (batch, outcome) in batches.iter().zip(&outcomes) {
        assert_eq!(
            *outcome,
            uncached.knn_join_report(batch, 4),
            "split == alone"
        );
    }
    let report = index.routing_report();
    assert_eq!(
        (report.cache_misses, report.cache_hits),
        (3, 1),
        "one lookup per batch: the warm-up miss, then one hit and two misses"
    );
    // Each batch is cached under its own key and nothing else: the three fit the
    // capacity, so every one of them now hits.
    assert_eq!(index.query_cache_len(), 3);
    for batch in &batches {
        index.knn_join(batch, 4);
    }
    assert_eq!(index.routing_report().cache_hits, 4);
}
