//! Snapshot persistence contract: a saved-and-cold-loaded index is bit-identical in
//! results to the index it was saved from — ids *and* scores — in every build
//! configuration, including the acceptance case (the 2k×10k fixture with spill forced
//! and routing on). The save/load here crosses a process boundary in everything but
//! the PID: the loader reconstructs the index purely from the files on disk, exactly
//! as another process would.

use std::sync::atomic::{AtomicU64, Ordering};

use sudowoodo_index::{BlockingIndex, QuantSpec, ShardedCosineIndex, MANIFEST_FILE};

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

/// A unique temp directory per test (parallel test threads must not collide).
fn snapshot_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sudowoodo-snap-test-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// Scores must match to the bit, so compare them as bits, not with a tolerance.
fn assert_bit_identical(a: &[(usize, usize, f32)], b: &[(usize, usize, f32)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: pair count");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!((x.0, x.1), (y.0, y.1), "{context}: ids of pair {i}");
        assert_eq!(
            x.2.to_bits(),
            y.2.to_bits(),
            "{context}: score bits of pair {i}"
        );
    }
}

#[test]
fn acceptance_spilled_routed_2k_x_10k_round_trip_is_bit_identical() {
    let corpus = vectors(10_000, 32, 41);
    let queries = vectors(2_000, 32, 42);
    // Spill forced (zero residency budget), routing on (the default).
    let built = ShardedCosineIndex::from_vectors_with_budget(&corpus, 1024, Some(0));
    assert_eq!(built.num_spilled_shards(), built.num_shards());
    let expected = built.knn_join(&queries, 20);

    let dir = snapshot_dir("acceptance");
    built.save_snapshot(&dir).expect("save");
    drop(built); // the source index (and its spill files) are gone — only the snapshot remains

    let loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load");
    assert_eq!(
        loaded.num_spilled_shards(),
        loaded.num_shards(),
        "a snapshot load must start cold"
    );
    assert_eq!((loaded.len(), loaded.dim()), (10_000, 32));
    assert_bit_identical(&loaded.knn_join(&queries, 20), &expected, "cold load");

    // The cold join really went to the snapshot files (uniform random data offers
    // routing nothing to prune, so every visit is a disk fault).
    let report = loaded.routing_report();
    assert!(report.shards_visited > 0);
    assert_eq!(report.spill_faults, report.shards_visited);

    // Warming up (no budget + compact -> everything resident) changes nothing.
    let mut warmed = ShardedCosineIndex::load_snapshot(&dir).expect("load again");
    warmed.compact();
    assert_eq!(
        warmed.num_spilled_shards(),
        0,
        "compact warms a budgetless load"
    );
    assert_bit_identical(&warmed.knn_join(&queries, 20), &expected, "warmed load");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restored_routing_stats_prune_without_touching_snapshot_files() {
    // Shard 0 aligns with the query; the remaining shards are orthogonal. The loaded
    // index must prune them from the *manifest-restored* statistics — no payload read.
    let mut corpus: Vec<Vec<f32>> = (0..8)
        .map(|i| vec![1.0, 0.001 * i as f32, 0.0, 0.0])
        .collect();
    for i in 0..24 {
        corpus.push(vec![0.0, 0.0, 1.0, 0.001 * i as f32]);
    }
    let built = ShardedCosineIndex::from_vectors(&corpus, 8);
    let dir = snapshot_dir("pruning");
    built.save_snapshot(&dir).expect("save");

    let loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load");
    let query = vec![vec![1.0, 0.0, 0.0, 0.0]];
    let hits = loaded.knn_join(&query, 4);
    assert_eq!(hits, built.knn_join(&query, 4));
    let report = loaded.routing_report();
    assert!(
        report.shards_pruned >= 3,
        "restored stats should prune the orthogonal shards: {report:?}"
    );
    assert!(
        report.spill_faults < 4,
        "pruned shards must never fault from the snapshot: {report:?}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn round_trip_preserves_tombstones_and_stable_ids() {
    let corpus = vectors(57, 8, 7);
    let mut built = ShardedCosineIndex::from_vectors(&corpus, 8);
    built.remove(3).unwrap();
    built.remove(40).unwrap();
    // No compact: the snapshot must carry the tombstones as-is.
    let queries = vectors(9, 8, 8);
    let expected = built.knn_join(&queries, 6);

    let dir = snapshot_dir("tombstones");
    built.save_snapshot(&dir).expect("save");
    let mut loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load");
    assert_eq!(loaded.len(), 55);
    assert_eq!(loaded.num_tombstones(), 2);
    assert!(!loaded.contains(3) && loaded.contains(4));
    assert_bit_identical(&loaded.knn_join(&queries, 6), &expected, "tombstoned load");

    // The loaded index remains fully mutable and keeps assigning stable ids where the
    // saved one left off.
    assert_eq!(
        loaded.remove(3).unwrap_err().to_string(),
        "id 3 is already removed"
    );
    assert_eq!(loaded.add_batch(&vectors(2, 8, 9)), 57..59);
    assert_eq!(loaded.compact(), 2);
    let mut source = ShardedCosineIndex::from_vectors(&corpus, 8);
    source.remove(3).unwrap();
    source.remove(40).unwrap();
    source.add_batch(&vectors(2, 8, 9));
    source.compact();
    assert_bit_identical(
        &loaded.knn_join(&queries, 6),
        &source.knn_join(&queries, 6),
        "mutated-after-load",
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn several_loads_share_one_snapshot_without_interfering() {
    let corpus = vectors(60, 6, 21);
    let built = ShardedCosineIndex::from_vectors(&corpus, 8);
    let queries = vectors(5, 6, 22);
    let expected = built.knn_join(&queries, 4);

    let dir = snapshot_dir("shared");
    built.save_snapshot(&dir).expect("save");
    let a = ShardedCosineIndex::load_snapshot(&dir).expect("load a");
    let b = ShardedCosineIndex::load_snapshot(&dir).expect("load b");
    assert_bit_identical(&a.knn_join(&queries, 4), &expected, "load a");
    // Dropping one loaded index must not delete the snapshot under the other.
    drop(a);
    assert_bit_identical(&b.knn_join(&queries, 4), &expected, "load b after drop a");
    drop(b);
    assert!(
        dir.join(MANIFEST_FILE).exists(),
        "loaded indexes never delete the snapshot"
    );
    let c = ShardedCosineIndex::load_snapshot(&dir).expect("load c");
    assert_bit_identical(&c.knn_join(&queries, 4), &expected, "load c");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn blocking_index_round_trips_both_layouts() {
    let corpus = vectors(41, 5, 31);
    let queries = vectors(7, 5, 32);
    for shard_capacity in [None, Some(4)] {
        let built = BlockingIndex::build(corpus.clone(), shard_capacity);
        let expected = built.knn_join(&queries, 5);
        let dir = snapshot_dir("blocking");
        built.save_snapshot(&dir).expect("save");
        let loaded = BlockingIndex::load_snapshot(&dir).expect("load");
        assert_bit_identical(
            &loaded.knn_join(&queries, 5),
            &expected,
            &format!("layout {shard_capacity:?}"),
        );
        match (&loaded, shard_capacity) {
            (BlockingIndex::Dense(_), None) | (BlockingIndex::Sharded(_), Some(_)) => {}
            other => panic!("snapshot changed the layout: {:?}", other.1),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn saving_over_an_old_snapshot_leaves_no_stale_payloads() {
    let dir = snapshot_dir("overwrite");
    let big = ShardedCosineIndex::from_vectors(&vectors(40, 4, 51), 4); // 10 shards
    big.save_snapshot(&dir).expect("save big");
    let small = ShardedCosineIndex::from_vectors(&vectors(8, 4, 52), 4); // 2 shards
    small.save_snapshot(&dir).expect("save small over big");
    let loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load");
    assert_eq!(loaded.len(), 8);
    let stale: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("shard-") && n != "shard-0.bin" && n != "shard-1.bin")
        .collect();
    assert!(stale.is_empty(), "stale payloads survived: {stale:?}");

    // Overwriting with the dense layout clears the shard payloads too.
    BlockingIndex::build(vectors(8, 4, 53), None)
        .save_snapshot(&dir)
        .expect("save dense over sharded");
    let relisted: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        relisted.iter().all(|n| !n.starts_with("shard-")),
        "sharded payloads survived a dense overwrite: {relisted:?}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loading_garbage_fails_cleanly() {
    let dir = snapshot_dir("garbage");
    // Missing directory / manifest.
    assert!(ShardedCosineIndex::load_snapshot(&dir).is_err());
    std::fs::create_dir_all(&dir).unwrap();
    assert!(ShardedCosineIndex::load_snapshot(&dir).is_err());
    // Foreign file under the manifest name.
    std::fs::write(dir.join(MANIFEST_FILE), b"definitely not a manifest").unwrap();
    let err = ShardedCosineIndex::load_snapshot(&dir).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "got: {err}");

    // A truncated payload is caught at load time, quarantined, and reported as a
    // degraded (never silently wrong) index rather than aborting the whole load.
    let built = ShardedCosineIndex::from_vectors(&vectors(12, 4, 61), 4);
    built.save_snapshot(&dir).expect("save");
    let payload = dir.join("shard-1.bin");
    let bytes = std::fs::read(&payload).unwrap();
    std::fs::write(&payload, &bytes[..bytes.len() - 3]).unwrap();
    let degraded = ShardedCosineIndex::load_snapshot(&dir).expect("degraded load");
    assert_eq!(degraded.quarantined_shards(), vec![1]);
    let queries = vectors(3, 4, 61);
    let outcome = degraded.knn_join_report(&queries, 3);
    assert!(outcome.degraded, "quarantined shard must flag the join");
    assert_eq!(outcome.quarantined_shards, vec![1]);
    assert!(
        outcome
            .pairs
            .iter()
            .all(|&(_, id, _)| !(4..8).contains(&id)),
        "quarantined rows must not be answered"
    );

    // The dense/sharded loaders refuse each other's layouts with guidance.
    let dense_dir = snapshot_dir("layout-mismatch");
    BlockingIndex::build(vectors(8, 4, 62), None)
        .save_snapshot(&dense_dir)
        .expect("save dense");
    let err = ShardedCosineIndex::load_snapshot(&dense_dir).unwrap_err();
    assert!(
        err.to_string().contains("BlockingIndex::load_snapshot"),
        "got: {err}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dense_dir).unwrap();
}

#[test]
fn quantized_round_trip_is_bit_identical_and_byte_stable() {
    // A quantized index snapshots its shards in the SWSHARDQ1 format (i8 codes +
    // exact f32 residuals). The cold load must restore the quantized tier from disk
    // alone, join bit-identically, and a re-save must reproduce the payload files
    // byte for byte — quantization is deterministic, so the format round-trips
    // without drift.
    let corpus = vectors(300, 12, 81);
    let queries = vectors(40, 12, 82);
    let mut built = ShardedCosineIndex::from_vectors(&corpus, 32);
    built.set_quantization(Some(QuantSpec::default()));
    built.compact();
    assert_eq!(built.num_quantized_shards(), built.num_shards());
    let expected = built.knn_join(&queries, 8);

    let dir = snapshot_dir("quant");
    built.save_snapshot(&dir).expect("save");
    drop(built);

    // The payload files really are the quantized format.
    let bytes = std::fs::read(dir.join("shard-0.bin")).unwrap();
    assert_eq!(&bytes[..9], b"SWSHARDQ1", "payload must be SWSHARDQ1");

    // Cold load restores the quantized tier ("disk wins") and joins identically.
    let loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load");
    assert_eq!(loaded.quantization(), Some(QuantSpec::default()));
    assert_eq!(loaded.num_quantized_shards(), loaded.num_shards());
    assert_bit_identical(&loaded.knn_join(&queries, 8), &expected, "quantized load");
    let report = loaded.routing_report();
    assert!(report.quant_scans > 0, "{report:?}");

    // Re-saving the loaded index reproduces every payload byte-identically.
    let redir = snapshot_dir("quant-resave");
    loaded.save_snapshot(&redir).expect("re-save");
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("shard-") {
            continue;
        }
        let original = std::fs::read(entry.path()).unwrap();
        let resaved = std::fs::read(redir.join(&name)).unwrap();
        assert_eq!(original, resaved, "{name}: re-saved payload bytes diverged");
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&redir).unwrap();
}

#[test]
fn snapshots_cross_load_between_dense_and_quantized_configs() {
    // The typed cross-load behavior: a snapshot carries its storage tier on disk, so
    // the loader always restores what was saved ("disk wins"), and a caller that
    // wants the *other* tier states so explicitly with `set_quantization` + compact
    // — which must re-encode the payloads without moving a single result bit.
    let corpus = vectors(200, 10, 91);
    let queries = vectors(30, 10, 92);
    let plain = ShardedCosineIndex::from_vectors(&corpus, 16);
    let expected = plain.knn_join(&queries, 6);

    // Dense-saved snapshot, opted into quantization after load.
    let dir = snapshot_dir("cross-dense");
    plain.save_snapshot(&dir).expect("save plain");
    let mut loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load plain");
    assert_eq!(loaded.quantization(), None, "plain snapshot loads plain");
    loaded.set_quantization(Some(QuantSpec::default()));
    loaded.compact();
    assert_eq!(loaded.num_quantized_shards(), loaded.num_shards());
    assert_bit_identical(
        &loaded.knn_join(&queries, 6),
        &expected,
        "plain snapshot quantized after load",
    );

    // Quantized-saved snapshot, opted back out after load.
    let qdir = snapshot_dir("cross-quant");
    loaded.save_snapshot(&qdir).expect("save quantized");
    let mut back = ShardedCosineIndex::load_snapshot(&qdir).expect("load quantized");
    assert_eq!(
        back.quantization(),
        Some(QuantSpec::default()),
        "quantized snapshot loads quantized"
    );
    back.set_quantization(None);
    back.compact();
    assert_eq!(back.num_quantized_shards(), 0);
    assert_bit_identical(
        &back.knn_join(&queries, 6),
        &expected,
        "quantized snapshot dequantized after load",
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&qdir).unwrap();
}

#[test]
fn corrupt_quantized_payload_quarantines_instead_of_aborting() {
    // The degraded-load contract extends to SWSHARDQ1: a truncated or bit-flipped
    // quantized payload quarantines that shard (CRC mismatch), the rest of the
    // snapshot loads, and joins answer degraded — exactly the SWSHARD1 behavior.
    let corpus = vectors(48, 6, 95);
    let queries = vectors(5, 6, 96);
    for tamper in ["truncate", "bitflip"] {
        let dir = snapshot_dir(&format!("quant-corrupt-{tamper}"));
        let mut built = ShardedCosineIndex::from_vectors(&corpus, 8);
        built.set_quantization(Some(QuantSpec::default()));
        built.compact();
        built.save_snapshot(&dir).expect("save");

        let payload = dir.join("shard-2.bin");
        let mut bytes = std::fs::read(&payload).unwrap();
        assert_eq!(&bytes[..9], b"SWSHARDQ1");
        match tamper {
            "truncate" => bytes.truncate(bytes.len() - 5),
            _ => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
            }
        }
        std::fs::write(&payload, &bytes).unwrap();

        // A truncated payload fails the length check eagerly at load; a bit-flip
        // keeps the length valid and is only caught by the CRC on the first fault
        // — either way the shard ends up quarantined, never silently wrong.
        let degraded = ShardedCosineIndex::load_snapshot(&dir).expect("degraded load");
        let outcome = degraded.knn_join_report(&queries, 4);
        assert_eq!(degraded.quarantined_shards(), vec![2], "{tamper}");
        assert!(outcome.degraded, "{tamper}: join must flag degradation");
        assert!(
            outcome
                .pairs
                .iter()
                .all(|&(_, id, _)| !(16..24).contains(&id)),
            "{tamper}: quarantined rows must not be answered"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn self_save_of_a_loaded_index_updates_the_snapshot_in_place() {
    let dir = snapshot_dir("self-save");
    ShardedCosineIndex::from_vectors(&vectors(16, 4, 71), 4)
        .save_snapshot(&dir)
        .expect("save");
    let queries = vectors(3, 4, 72);

    // Unmutated: re-saving into the same directory skips every payload (each shard is
    // already exactly its own snapshot file) and just rewrites the manifest.
    let loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load");
    loaded.save_snapshot(&dir).expect("unmutated self-save");
    assert_bit_identical(
        &ShardedCosineIndex::load_snapshot(&dir)
            .expect("reload")
            .knn_join(&queries, 3),
        &loaded.knn_join(&queries, 3),
        "unmutated self-save",
    );

    // Streaming mutations that keep cold shards on their own files — tombstones
    // (metadata only) and appends (the tail faults resident; fresh shards are new
    // files) — self-save cleanly: untouched cold payloads are skipped, changed ones
    // are rewritten, and the manifest carries the new id map.
    let mut cold = ShardedCosineIndex::load_snapshot(&dir).expect("load cold");
    cold.remove(1).unwrap();
    assert_eq!(cold.add_batch(&vectors(3, 4, 73)), 16..19);
    let expected = cold.knn_join(&queries, 5);
    cold.save_snapshot(&dir)
        .expect("self-save after streaming mutations");
    let reloaded = ShardedCosineIndex::load_snapshot(&dir).expect("reload");
    assert_eq!((reloaded.len(), reloaded.num_tombstones()), (18, 1));
    assert_bit_identical(
        &reloaded.knn_join(&queries, 5),
        &expected,
        "mutated self-save",
    );

    // A compacted (fully resident) index snapshots anywhere, including a fresh dir.
    let mut compacted = reloaded;
    compacted.compact();
    let fresh_dir = snapshot_dir("self-save-fresh");
    compacted.save_snapshot(&fresh_dir).expect("fresh-dir save");
    assert_bit_identical(
        &ShardedCosineIndex::load_snapshot(&fresh_dir)
            .expect("load fresh")
            .knn_join(&queries, 5),
        &compacted.knn_join(&queries, 5),
        "post-compact save",
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&fresh_dir).unwrap();
}
