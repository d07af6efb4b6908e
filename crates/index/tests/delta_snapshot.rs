//! Delta-snapshot round trips: a base plus a chain of deltas (adds, removes, a
//! compact) must cold-load **bit-identically** to a fresh full snapshot of the same
//! logical index, inheritance must actually avoid rewriting unchanged payloads
//! (observable through [`sudowoodo_index::DeltaSaveReport`]), and every broken-chain
//! shape — torn manifest, republished base, geometry drift — must reject with a
//! typed error instead of serving a stitched-together corpus.
//!
//! Failpoints are process-global: the test that arms one holds `faults::arm_scope`,
//! and every other test that publishes a delta holds `faults::quiet_scope`, so none
//! of them can spend (or be failed by) the armed crash point.

use sudowoodo_faults as faults;
use sudowoodo_index::{BlockingIndex, ShardedCosineIndex, DELTA_MANIFEST_FILE};

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

fn delta_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sudowoodo-delta-{tag}-{}", std::process::id()))
}

struct DirCleanup(Vec<std::path::PathBuf>);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        for dir in &self.0 {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

fn assert_bit_identical(
    got: &[(usize, usize, f32)],
    expected: &[(usize, usize, f32)],
    context: &str,
) {
    assert_eq!(got.len(), expected.len(), "{context}: pair count");
    for (a, b) in got.iter().zip(expected.iter()) {
        assert_eq!((a.0, a.1), (b.0, b.1), "{context}: ids");
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "{context}: scores");
    }
}

/// The round trip the incremental-publish story rests on: full base → delta of
/// adds → delta of removes → delta after a compact, chain-loaded cold at each
/// step and compared bit-identically against a fresh full snapshot of the same
/// state. The save reports prove inheritance is real: a tombstone-only delta
/// rewrites **zero** payloads, an append-only delta rewrites only the tail.
#[test]
fn a_delta_chain_of_adds_removes_and_compact_loads_like_a_full_snapshot() {
    let _quiet = faults::quiet_scope();
    let dims = 8;
    let base_dir = delta_dir("chain-base");
    let adds_dir = delta_dir("chain-adds");
    let rm_dir = delta_dir("chain-removes");
    let compact_dir = delta_dir("chain-compact");
    let full_dir = delta_dir("chain-full");
    let _cleanup = DirCleanup(vec![
        base_dir.clone(),
        adds_dir.clone(),
        rm_dir.clone(),
        compact_dir.clone(),
        full_dir.clone(),
    ]);
    let queries = vectors(30, dims, 100);
    let k = 6;

    // Epoch 0: the full base (15 shards of capacity 16).
    ShardedCosineIndex::from_vectors(&vectors(240, dims, 1), 16)
        .save_snapshot(&base_dir)
        .unwrap();

    // Epoch 1: cold-load, append rows, publish as a delta. Only the shards the
    // append touched (the former tail shard plus the new ones) are written.
    let mut index = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    let base_shards = index.num_shards();
    index.add_batch(&vectors(40, dims, 2));
    let report = index.save_delta_snapshot(&base_dir, &adds_dir).unwrap();
    assert!(
        report.inherited_shards >= base_shards - 1,
        "append must inherit every untouched base shard: {report:?}"
    );
    assert!(
        report.written_shards >= 1,
        "the appended rows need a payload"
    );

    // Epoch 2: cold-load the delta, remove some rows, publish on top of it.
    // Tombstones live in the manifest, so NO payload is rewritten.
    let mut index = ShardedCosineIndex::load_snapshot(&adds_dir).unwrap();
    for id in [3usize, 17, 42, 99, 250, 263] {
        index.remove(id).unwrap();
    }
    let report = index.save_delta_snapshot(&adds_dir, &rm_dir).unwrap();
    assert_eq!(
        report.written_shards, 0,
        "a tombstone-only delta must not rewrite any payload: {report:?}"
    );
    assert_eq!(report.inherited_shards, index.num_shards());

    // Reference for the chain head so far: the in-memory index that produced it.
    let expected = index.knn_join(&queries, k);
    let chained = ShardedCosineIndex::load_snapshot(&rm_dir).unwrap();
    assert_eq!(chained.len(), 240 + 40 - 6);
    assert_bit_identical(&chained.knn_join(&queries, k), &expected, "2-delta chain");

    // The same state published as a fresh FULL snapshot must agree bit-for-bit.
    index.save_snapshot(&full_dir).unwrap();
    let full = ShardedCosineIndex::load_snapshot(&full_dir).unwrap();
    assert_bit_identical(
        &full.knn_join(&queries, k),
        &chained.knn_join(&queries, k),
        "chain vs fresh full snapshot",
    );

    // Epoch 3: compact rewrites every surviving row into new shards — the delta
    // degenerates to all-local payloads (inheritance finds nothing to share), and
    // the chain STILL loads identically to the in-memory truth.
    let mut index = chained;
    let dropped = index.compact();
    assert!(dropped > 0, "compact must reclaim the tombstoned rows");
    let expected = index.knn_join(&queries, k);
    let report = index.save_delta_snapshot(&rm_dir, &compact_dir).unwrap();
    assert_eq!(
        report.inherited_shards, 0,
        "compact rewrites every shard: {report:?}"
    );
    let reloaded = ShardedCosineIndex::load_snapshot(&compact_dir).unwrap();
    assert_bit_identical(&reloaded.knn_join(&queries, k), &expected, "3-delta chain");

    // The BlockingIndex wrapper routes through the same chain loader.
    let wrapped = BlockingIndex::load_snapshot(&compact_dir).unwrap();
    assert_bit_identical(&wrapped.knn_join(&queries, k), &expected, "BlockingIndex");
}

/// A torn delta manifest (the crash failpoint writes half of it at its final
/// name) must fail the publish AND leave a directory the loader rejects with the
/// CRC diagnostic — it can never pass for a whole epoch.
#[test]
fn a_torn_delta_manifest_is_rejected_typed() {
    let _faults = faults::arm_scope();
    let base_dir = delta_dir("torn-base");
    let head_dir = delta_dir("torn-head");
    let _cleanup = DirCleanup(vec![base_dir.clone(), head_dir.clone()]);

    ShardedCosineIndex::from_vectors(&vectors(60, 6, 5), 8)
        .save_snapshot(&base_dir)
        .unwrap();
    let mut index = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    index.add_batch(&vectors(10, 6, 6));

    faults::arm("delta.manifest.torn", faults::Policy::Once);
    let err = index
        .save_delta_snapshot(&base_dir, &head_dir)
        .expect_err("the publish must crash");
    assert!(err.to_string().contains("failpoint"), "got: {err}");
    faults::disarm("delta.manifest.torn");

    let err = ShardedCosineIndex::load_snapshot(&head_dir).unwrap_err();
    assert!(
        err.to_string().contains("CRC-32 mismatch"),
        "a torn delta manifest must be caught by its CRC, got: {err}"
    );
}

/// Republishing the base AFTER a delta referenced it invalidates the chain: the
/// epoch fingerprint (the base manifest's CRC) no longer matches, and the loader
/// says so instead of pairing the delta's shard table with foreign payloads.
#[test]
fn a_republished_base_invalidates_the_chain_with_a_typed_error() {
    let _quiet = faults::quiet_scope();
    let base_dir = delta_dir("repub-base");
    let head_dir = delta_dir("repub-head");
    let _cleanup = DirCleanup(vec![base_dir.clone(), head_dir.clone()]);

    ShardedCosineIndex::from_vectors(&vectors(60, 6, 7), 8)
        .save_snapshot(&base_dir)
        .unwrap();
    let mut index = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    index.add_batch(&vectors(10, 6, 8));
    index.save_delta_snapshot(&base_dir, &head_dir).unwrap();
    assert!(ShardedCosineIndex::load_snapshot(&head_dir).is_ok());

    // The base moves on without the delta: a different index is published into
    // the same directory (the immutable-publish rule says never to do this — the
    // fingerprint is what catches whoever does).
    let mut moved_on = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    moved_on.add_batch(&vectors(4, 6, 9));
    moved_on.save_snapshot(&base_dir).unwrap();

    let err = ShardedCosineIndex::load_snapshot(&head_dir).unwrap_err();
    assert!(
        err.to_string().contains("republished"),
        "a republished base must be named as the cause, got: {err}"
    );
}

/// The publish-time misuse guards: same directory for base and target, a target
/// already holding a full snapshot, and a geometry change against the base are
/// all `InvalidInput` — caught before any byte is written.
#[test]
fn delta_publish_misuse_is_rejected_before_writing() {
    let _quiet = faults::quiet_scope();
    let base_dir = delta_dir("misuse-base");
    let full_dir = delta_dir("misuse-full");
    let _cleanup = DirCleanup(vec![base_dir.clone(), full_dir.clone()]);

    let built = ShardedCosineIndex::from_vectors(&vectors(40, 6, 10), 8);
    built.save_snapshot(&base_dir).unwrap();
    built.save_snapshot(&full_dir).unwrap();
    let index = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();

    let err = index.save_delta_snapshot(&base_dir, &base_dir).unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::InvalidInput,
        "same dir: {err}"
    );

    let err = index.save_delta_snapshot(&base_dir, &full_dir).unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::InvalidInput,
        "target holds a full snapshot: {err}"
    );

    // Different shard capacity than the base → the delta cannot express it.
    let other = ShardedCosineIndex::from_vectors(&vectors(40, 6, 10), 4);
    let err = other
        .save_delta_snapshot(&base_dir, &delta_dir("misuse-geom"))
        .unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::InvalidInput,
        "geometry: {err}"
    );
}

/// A delta directory is self-describing: deleting its manifest leaves payload
/// files the full-snapshot loader refuses (no manifest), and a stray
/// `DELTA.swdel` in a full-snapshot directory is removed by a later full save
/// (`save_snapshot` over a former delta dir must not leave a stale chain).
#[test]
fn full_saves_clean_up_stale_delta_manifests() {
    let _quiet = faults::quiet_scope();
    let base_dir = delta_dir("stale-base");
    let head_dir = delta_dir("stale-head");
    let _cleanup = DirCleanup(vec![base_dir.clone(), head_dir.clone()]);

    ShardedCosineIndex::from_vectors(&vectors(60, 6, 12), 8)
        .save_snapshot(&base_dir)
        .unwrap();
    let mut index = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    index.add_batch(&vectors(10, 6, 13));
    index.save_delta_snapshot(&base_dir, &head_dir).unwrap();
    assert!(head_dir.join(DELTA_MANIFEST_FILE).is_file());

    // Republish the head as a FULL snapshot into the same directory: the delta
    // manifest must be gone, and the directory must load standalone (no base).
    let expected = index.knn_join(&vectors(10, 6, 14), 4);
    index.save_snapshot(&head_dir).unwrap();
    assert!(
        !head_dir.join(DELTA_MANIFEST_FILE).exists(),
        "a full save must remove the stale delta manifest"
    );
    std::fs::remove_dir_all(&base_dir).unwrap(); // the chain must not be needed
    let standalone = ShardedCosineIndex::load_snapshot(&head_dir).unwrap();
    assert_bit_identical(
        &standalone.knn_join(&vectors(10, 6, 14), 4),
        &expected,
        "standalone full snapshot after delta cleanup",
    );
}
