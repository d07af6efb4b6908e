//! The sharded build ingests one shard at a time: it normalizes each shard's rows
//! straight into the shard, quantizes it and spills it once it falls outside the budget.
//! It must end exactly where the build-then-spill sequence ends — `from_vectors` →
//! `set_quantization` → `set_memory_budget` → `compact` — with the same shards spilled
//! and resident, byte-identical snapshots, and the dense index's ids and score bits.

use std::fs;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_index::{BlockingIndex, CosineIndex, QuantSpec, ShardedCosineIndex};

const DIM: usize = 16;

fn random_vectors(n: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// A fresh directory per snapshot (test threads run in parallel).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sudowoodo-streamed-build-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file of a snapshot directory, by name.
fn snapshot_files(index: &ShardedCosineIndex, dir: &Path) -> Vec<(String, Vec<u8>)> {
    index.save_snapshot(dir).expect("save snapshot");
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read snapshot dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).expect("read snapshot file"))
        })
        .collect();
    files.sort();
    fs::remove_dir_all(dir).expect("remove snapshot dir");
    files
}

/// The positions of the spilled shards: a join scoped to one spilled shard faults it.
fn spilled_shards(index: &ShardedCosineIndex, query: &[Vec<f32>]) -> Vec<usize> {
    (0..index.num_shards())
        .filter(|&i| {
            index.knn_join_subset_report(query, 1, &[i]);
            index.routing_report().spill_faults > 0
        })
        .collect()
}

fn assert_same_pairs(got: &[(usize, usize, f32)], want: &[(usize, usize, f32)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: pair count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.0, g.1), (w.0, w.1), "{what}: ids");
        assert_eq!(g.2.to_bits(), w.2.to_bits(), "{what}: score bits");
    }
}

#[test]
fn one_shard_at_a_time_ends_where_build_then_spill_ended() {
    let mut rng = StdRng::seed_from_u64(47);
    // 1 000 rows in shards of 64: fifteen full shards and a tail of 40.
    let corpus = random_vectors(1_000, &mut rng);
    let queries = random_vectors(50, &mut rng);
    let payload = corpus.len() * DIM * std::mem::size_of::<f32>();
    let dense = CosineIndex::build(corpus.clone()).knn_join(&queries, 7);
    for capacity in [64, 100] {
        for budget in [None, Some(0), Some(payload / 10), Some(payload / 2)] {
            for quant in [None, Some(QuantSpec::default())] {
                let what = format!(
                    "capacity {capacity}, budget {budget:?}, i8 {}",
                    quant.is_some()
                );
                let mut old = ShardedCosineIndex::from_vectors(&corpus, capacity);
                old.set_quantization(quant);
                old.set_memory_budget(budget);
                old.compact();
                let BlockingIndex::Sharded(mut new) = BlockingIndex::build_with_options(
                    corpus.clone(),
                    Some(capacity),
                    budget,
                    quant,
                ) else {
                    panic!("{what}: expected the sharded layout");
                };

                assert_eq!(new.num_shards(), corpus.len().div_ceil(capacity), "{what}");
                assert_eq!(new.num_spilled_shards(), old.num_spilled_shards(), "{what}");
                assert_eq!(new.resident_bytes(), old.resident_bytes(), "{what}");
                assert_eq!(
                    new.num_quantized_shards(),
                    old.num_quantized_shards(),
                    "{what}"
                );
                assert_eq!(
                    new.quantized_payload_bytes(),
                    old.quantized_payload_bytes(),
                    "{what}"
                );
                assert_eq!(new.epoch(), old.epoch(), "{what}");
                let tag = format!("{capacity}-{budget:?}-{}", quant.is_some());
                assert!(
                    snapshot_files(&new, &scratch_dir(&format!("new-{tag}")))
                        == snapshot_files(&old, &scratch_dir(&format!("old-{tag}"))),
                    "{what}: snapshot bytes differ"
                );
                assert_same_pairs(&new.knn_join(&queries, 7), &dense, &what);
                assert_same_pairs(&old.knn_join(&queries, 7), &dense, &what);

                let probe = &queries[..1];
                let spilled = spilled_shards(&new, probe);
                assert_eq!(
                    spilled,
                    spilled_shards(&old, probe),
                    "{what}: spilled shards"
                );
                assert_eq!(spilled.len(), new.num_spilled_shards(), "{what}");
                // The build's shards carry the recency `compact` gave them: a later budget
                // pass picks the same shards in both.
                let halved = budget.map(|b| b / 2);
                for index in [&mut new, &mut old] {
                    index.set_memory_budget(halved);
                    index.compact();
                }
                assert_eq!(
                    spilled_shards(&new, probe),
                    spilled_shards(&old, probe),
                    "{what}: spilled shards after a second budget pass"
                );
            }
        }
    }
}

#[test]
fn an_empty_build_ends_where_build_then_compact_ended() {
    let mut old = ShardedCosineIndex::new(8);
    old.compact();
    let BlockingIndex::Sharded(new) =
        BlockingIndex::build_with_options(Vec::new(), Some(8), Some(0), None)
    else {
        panic!("expected the sharded layout");
    };
    assert_eq!(
        (new.len(), new.num_shards(), new.epoch()),
        (0, 0, old.epoch())
    );
}
