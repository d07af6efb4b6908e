//! Training is reproducible from (inputs, seed, config).
//!
//! `pretrain` followed by `fine_tune`, run twice in one process with the same seed and
//! configuration, must produce the same model bit for bit — epoch losses, `embed_all`
//! output, match scores and the `SWMODEL1` bytes — for both encoder kinds. Before the
//! optimizer summed gradients in binding order it did not: the clip norm was added up in
//! `HashMap` iteration order, so three runs gave three models.
//!
//! The same digest is also taken in child processes under `RAYON_NUM_THREADS=1` and `4`:
//! the thread count only ever chooses how rows are banded and chunks are fanned out, and
//! no float is summed across a band or chunk boundary, so it must not change a bit either.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use sudowoodo::core::model_snapshot::save_matcher;
use sudowoodo::prelude::*;
use sudowoodo::text::serialize::serialize_record;

const DIGEST_PREFIX: &str = "training-digest:";

/// Everything a training run leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Trained {
    pretrain_losses: Vec<u32>,
    finetune_losses: Vec<u32>,
    embeddings: Vec<u32>,
    scores: Vec<u32>,
    model_bytes: Vec<u8>,
}

fn bits(xs: impl IntoIterator<Item = f32>) -> Vec<u32> {
    xs.into_iter().map(f32::to_bits).collect()
}

/// Training never builds a blocking index, so only the encoder kind of the test
/// configurations is varied here, by the callers.
fn train(kind: EncoderKind) -> Trained {
    let mut config = SudowoodoConfig::test_config();
    config.encoder.kind = kind;
    config.max_corpus_size = 120;
    let dataset = EmProfile::abt_buy().generate(0.08, 33);
    let corpus = dataset.corpus();
    let (encoder, report) = pretrain(&corpus, &config);

    let texts_a: Vec<String> = dataset.table_a.iter().map(serialize_record).collect();
    let texts_b: Vec<String> = dataset.table_b.iter().map(serialize_record).collect();
    let pairs: Vec<TrainPair> = dataset
        .train
        .iter()
        .take(48)
        .map(|p| TrainPair::new(texts_a[p.a].clone(), texts_b[p.b].clone(), p.label))
        .collect();
    let mut matcher = PairMatcher::new(encoder, config.use_diff_head, config.seed);
    let finetune_losses = matcher.fine_tune(
        &pairs,
        &FineTuneConfig {
            epochs: 2,
            batch_size: config.finetune_batch_size,
            learning_rate: config.finetune_lr,
            seed: config.seed,
        },
    );

    // More than one 64-text embedding chunk and one 32-pair scoring chunk, so the
    // parallel fan-outs are part of what is compared.
    let eval: Vec<(String, String)> = pairs
        .iter()
        .map(|p| (p.left.clone(), p.right.clone()))
        .collect();
    // Tests of this binary train concurrently: one snapshot file per call.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "sudowoodo-determinism-{}-{}.swmodel",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    save_matcher(&matcher, &path).expect("save the trained matcher");
    let model_bytes = std::fs::read(&path).expect("read the snapshot back");
    let _ = std::fs::remove_file(&path);
    Trained {
        pretrain_losses: bits(report.epoch_losses),
        finetune_losses: bits(finetune_losses),
        embeddings: bits(matcher.encoder.embed_all(&corpus).into_iter().flatten()),
        scores: bits(matcher.predict_scores(&eval)),
        model_bytes,
    }
}

/// FNV-1a over everything in a [`Trained`], field by field, so a mismatch between
/// processes can be reported by name.
fn digests(t: &Trained) -> String {
    fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
    let words = |xs: &[u32]| fnv(xs.iter().flat_map(|x| x.to_le_bytes()));
    format!(
        "pretrain_losses={:016x} finetune_losses={:016x} embeddings={:016x} scores={:016x} model_bytes={:016x}",
        words(&t.pretrain_losses),
        words(&t.finetune_losses),
        words(&t.embeddings),
        words(&t.scores),
        fnv(t.model_bytes.iter().copied()),
    )
}

#[test]
fn training_twice_with_the_same_seed_gives_the_same_model() {
    for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
        let (first, second) = (train(kind), train(kind));
        assert!(!first.model_bytes.is_empty() && !first.embeddings.is_empty());
        assert_eq!(
            first.pretrain_losses, second.pretrain_losses,
            "{kind:?}: pretrain losses"
        );
        assert_eq!(
            first.finetune_losses, second.finetune_losses,
            "{kind:?}: fine-tune losses"
        );
        assert!(
            first == second,
            "{kind:?}: the two runs trained different models"
        );
    }
}

/// Not a test of its own: prints this process's digests for the thread-count test, which
/// runs it in child processes. Cheap to run directly (it trains the two tiny models).
#[test]
fn print_training_digest() {
    for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
        println!("{DIGEST_PREFIX} {kind:?} {}", digests(&train(kind)));
    }
}

#[test]
fn the_thread_count_does_not_change_the_trained_model() {
    let digest_under = |threads: &str| -> Vec<String> {
        let out = Command::new(std::env::current_exe().expect("the test binary's path"))
            .args([
                "--exact",
                "print_training_digest",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("re-run the test binary");
        assert!(
            out.status.success(),
            "child run with {threads} thread(s) failed"
        );
        // The harness prints "test <name> ... " in front of the first line.
        let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.find(DIGEST_PREFIX).map(|at| l[at..].to_string()))
            .collect();
        assert_eq!(lines.len(), 2, "one digest per encoder kind");
        lines
    };
    // 4 forces the threaded paths even on a one-core host.
    assert_eq!(
        digest_under("1"),
        digest_under("4"),
        "RAYON_NUM_THREADS=1 and =4 trained different models (fields are named in the digest)"
    );
}
