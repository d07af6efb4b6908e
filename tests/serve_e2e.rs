//! End-to-end serving over localhost: snapshot a blocking index, load it cold in the
//! server role, and verify that remote `knn_join` results are identical to in-process
//! ones — including under concurrent clients, error inputs, and server statistics.
//!
//! The model half mirrors the index half: a trained matcher is snapshotted
//! (`model.swmodel`), cold-loaded in the server role, and `EMBED`/`MATCH` answers
//! must be bit-identical to the in-process model. The streaming-dedup scenario
//! chains both: records added after the initial snapshot are published as a delta
//! epoch, and the server picks them up without ever serving a stale cached answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sudowoodo::core::config::SudowoodoConfig;
use sudowoodo::core::encoder::Encoder;
use sudowoodo::core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo::core::model_snapshot::{self, MatcherBackend};
use sudowoodo::index::{BlockingIndex, QuantSpec, ShardedCosineIndex};
use sudowoodo::serve::{Request, ServeClient, Server, ServerConfig};

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

fn snapshot_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sudowoodo-serve-e2e-{tag}-{}-{n}",
        std::process::id()
    ))
}

#[test]
fn served_results_match_in_process_results_over_a_cold_snapshot() {
    let corpus = vectors(300, 16, 1);
    let queries = vectors(40, 16, 2);
    let built = ShardedCosineIndex::from_vectors(&corpus, 32);
    let expected = built.knn_join(&queries, 7);

    // Snapshot, then serve from a cold load (the "other process" role).
    let dir = snapshot_dir("match");
    built.save_snapshot(&dir).unwrap();
    let mut serving = ShardedCosineIndex::load_snapshot(&dir).unwrap();
    serving.set_query_cache_capacity(8);
    let server = Server::spawn(Arc::new(BlockingIndex::Sharded(serving)), "127.0.0.1:0").unwrap();

    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.ping().unwrap();
    let served = client.knn_join(&queries, 7).unwrap();
    assert_eq!(served.len(), expected.len());
    for (a, b) in served.iter().zip(expected.iter()) {
        assert_eq!((a.0, a.1), (b.0, b.1), "served ids match in-process ids");
        assert_eq!(
            a.2.to_bits(),
            b.2.to_bits(),
            "served scores are bit-identical"
        );
    }
    // The second identical batch is a cache hit server-side; results are unchanged.
    assert_eq!(client.knn_join(&queries, 7).unwrap(), served);
    let stats = client.stats().unwrap();
    assert_eq!(stats.len, 300);
    assert_eq!(stats.dim, 16);
    assert!(stats.cache_hits >= 1, "stats: {stats:?}");
    assert!(stats.served_requests >= 4);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let corpus = vectors(200, 8, 3);
    let index = BlockingIndex::build(corpus, Some(16));
    let server = Server::spawn(Arc::new(index), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Each thread opens its own connection and sends a thread-specific batch several
    // times; every response must match the in-process answer for *that* batch (the
    // server may coalesce arbitrary combinations across connections).
    let reference = BlockingIndex::build(vectors(200, 8, 3), Some(16));
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let reference = &reference;
            scope.spawn(move || {
                let queries = vectors(10, 8, 100 + t);
                let expected = reference.knn_join(&queries, 5);
                let mut client = ServeClient::connect(addr).expect("connect");
                for _ in 0..20 {
                    assert_eq!(
                        client.knn_join(&queries, 5).expect("served join"),
                        expected,
                        "thread {t}"
                    );
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.served_requests, 120);
    server.shutdown();
}

/// The quantized serving scenario: a snapshot saved with i8 shard quantization is
/// cold-loaded in the server role (the load restores the quantized tier from the
/// `SWSHARDQ1` payloads alone) and served to 6 concurrent clients — every remote
/// answer must be **bit-identical** to an in-process join over the plain dense
/// layout, proving the two-stage quantized scan is invisible across the snapshot
/// boundary, the wire, and concurrency all at once.
#[test]
fn quantized_snapshots_serve_bit_identically_to_dense_under_concurrency() {
    let corpus = vectors(400, 16, 31);
    let mut built = ShardedCosineIndex::from_vectors(&corpus, 32);
    built.set_quantization(Some(QuantSpec::default()));
    built.compact();
    assert_eq!(built.num_quantized_shards(), built.num_shards());

    let dir = snapshot_dir("quant");
    built.save_snapshot(&dir).unwrap();
    drop(built);

    // Server role: the cold load must come back quantized ("disk wins").
    let mut serving = ShardedCosineIndex::load_snapshot(&dir).unwrap();
    assert_eq!(serving.quantization(), Some(QuantSpec::default()));
    assert_eq!(serving.num_quantized_shards(), serving.num_shards());
    serving.set_query_cache_capacity(8);
    let server = Server::spawn(Arc::new(BlockingIndex::Sharded(serving)), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // The oracle is the plain DENSE layout — not the index that was served — so the
    // assertion spans quantization, snapshotting, and the wire protocol together.
    let dense = BlockingIndex::build(corpus, None);
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let dense = &dense;
            scope.spawn(move || {
                let queries = vectors(12, 16, 200 + t);
                let expected = dense.knn_join(&queries, 6);
                let mut client = ServeClient::connect(addr).expect("connect");
                for _ in 0..10 {
                    let served = client.knn_join(&queries, 6).expect("served join");
                    assert_eq!(served.len(), expected.len(), "thread {t}");
                    for (a, b) in served.iter().zip(expected.iter()) {
                        assert_eq!((a.0, a.1), (b.0, b.1), "thread {t}: ids");
                        assert_eq!(a.2.to_bits(), b.2.to_bits(), "thread {t}: score bits");
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.served_requests, 60);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn protocol_errors_are_reported_and_do_not_kill_the_connection() {
    let index = BlockingIndex::build(vectors(50, 4, 5), Some(8));
    let server = Server::spawn(Arc::new(index), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // Ragged batch: rejected client-side before any bytes are sent.
    let err = client
        .knn_join(&[vec![1.0, 0.0, 0.0, 0.0], vec![1.0]], 3)
        .unwrap_err();
    assert!(err.to_string().contains("rectangular"), "got: {err}");

    // Wrong dimension: rejected server-side with a named mismatch.
    let err = client.knn_join(&[vec![1.0, 2.0]], 3).unwrap_err();
    assert!(
        err.to_string()
            .contains("does not match the index dimension"),
        "got: {err}"
    );

    // The connection survives both and keeps serving.
    let queries = vectors(3, 4, 6);
    assert!(!client.knn_join(&queries, 3).unwrap().is_empty());

    // Degenerate requests behave like the in-process API.
    assert!(client.knn_join(&queries, 0).unwrap().is_empty());
    assert!(client.knn_join(&[], 3).unwrap().is_empty());

    // A protocol-legal request whose *response* would exceed the frame limit is
    // rejected up front instead of producing an unsendable frame.
    let huge: Vec<Vec<f32>> = vec![vec![1.0, 0.0, 0.0, 0.0]; 450_000];
    let err = client.knn_join(&huge, 10).unwrap_err();
    assert!(err.to_string().contains("frame limit"), "got: {err}");

    // And the connection still serves after that rejection too.
    assert!(!client.knn_join(&queries, 3).unwrap().is_empty());

    server.shutdown();
}

#[test]
fn dense_snapshots_serve_too() {
    let corpus = vectors(100, 8, 7);
    let queries = vectors(10, 8, 8);
    let built = BlockingIndex::build(corpus, None);
    let expected = built.knn_join(&queries, 4);
    let dir = snapshot_dir("dense");
    built.save_snapshot(&dir).unwrap();

    let loaded = BlockingIndex::load_snapshot(&dir).unwrap();
    let server = Server::spawn(Arc::new(loaded), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(client.knn_join(&queries, 4).unwrap(), expected);
    let stats = client.stats().unwrap();
    assert_eq!((stats.num_shards, stats.spilled_shards), (1, 0));

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Under every test configuration, with the shard capacity pinned to 16: both encoders,
/// and plain f32 shards beside i8-quantized ones.
#[test]
fn pipeline_snapshot_dir_feeds_a_serving_process() {
    use sudowoodo::datasets::em::EmProfile;
    use sudowoodo::prelude::EmPipeline;

    let dataset = EmProfile::abt_buy().generate(0.3, 7);
    let texts_a: Vec<String> = dataset
        .table_a
        .iter()
        .map(sudowoodo::text::serialize::serialize_record)
        .collect();
    SudowoodoConfig::for_each_test_config(|mut config| {
        // Builder role: a tiny EM pipeline with `snapshot_dir` set persists its blocking
        // index as a side effect of blocking.
        let dir = snapshot_dir("pipeline");
        config.blocking_shard_capacity = Some(16);
        config.blocking_query_cache = 4;
        config.snapshot_dir = Some(dir.clone());
        let pipeline = EmPipeline::new(config);
        let (encoder, _) = pipeline.pretrain_encoder(&dataset);
        let (candidates, _) = pipeline.block(&encoder, &dataset, 5);
        assert!(!candidates.is_empty());
        assert!(
            dir.join("MANIFEST.swidx").exists(),
            "pipeline must snapshot"
        );

        // Server role: load the pipeline's snapshot cold and answer the same queries the
        // pipeline asked, identically.
        let loaded = BlockingIndex::load_snapshot(&dir).unwrap();
        let server = Server::spawn(Arc::new(loaded), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let emb_a = encoder.embed_all(&texts_a);
        let served = client.knn_join(&emb_a, 5).unwrap();
        assert_eq!(
            served, candidates,
            "served pairs == the pipeline's candidates"
        );

        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Runs `f` on a tiny trained matcher — the in-process oracle for the model tests — once
/// per encoder kind of the test configurations. The matcher reads only their encoder, so
/// the layout axis would only repeat a run.
fn for_each_trained_matcher(mut f: impl FnMut(PairMatcher)) {
    let corpus: Vec<String> = (0..10)
        .map(|i| format!("[COL] title [VAL] acme widget model w{i}"))
        .collect();
    let pairs: Vec<TrainPair> = (0..6)
        .map(|i| {
            TrainPair::new(
                corpus[i].clone(),
                corpus[(i + 3) % corpus.len()].clone(),
                i % 2 == 0,
            )
        })
        .collect();
    SudowoodoConfig::for_each_test_config(|config| {
        if config.blocking_shard_capacity.is_some() {
            return;
        }
        let encoder = Encoder::from_corpus(config.encoder, &corpus, 11);
        let mut matcher = PairMatcher::new(encoder, true, 11);
        matcher.fine_tune(
            &pairs,
            &FineTuneConfig {
                epochs: 1,
                batch_size: 4,
                learning_rate: 1e-3,
                seed: 11,
            },
        );
        f(matcher)
    });
}

/// Spawns a server over a small index plus a **cold-loaded** copy of `matcher` —
/// the model travels through the `SWMODEL1` snapshot exactly as in production.
fn spawn_model_server(matcher: &PairMatcher) -> Server {
    let dir = snapshot_dir("model");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(model_snapshot::MODEL_SNAPSHOT_FILE);
    model_snapshot::save_matcher(matcher, &path).unwrap();
    let loaded = model_snapshot::load_matcher(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let index = BlockingIndex::build(vectors(20, matcher.encoder.dim(), 13), Some(8));
    Server::spawn_with_model(
        Arc::new(index),
        Arc::new(MatcherBackend(loaded)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap()
}

#[test]
fn embed_and_match_answers_are_bit_identical_over_a_cold_model_snapshot() {
    for_each_trained_matcher(|matcher| {
        let server = spawn_model_server(&matcher);
        let mut client = ServeClient::connect(server.addr()).unwrap();

        let texts: Vec<String> = (0..7)
            .map(|i| format!("[COL] title [VAL] acme widget model w{i}"))
            .collect();

        // EMBED == the in-process encoder, bit for bit.
        let served = client.embed(&texts).unwrap();
        let expected = matcher.encoder.embed_all(&texts);
        assert_eq!(served.len(), expected.len());
        for (a, b) in served.iter().zip(expected.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "served embedding bits diverged");
            }
        }

        // MATCH == the in-process matcher, bit for bit.
        let pairs: Vec<(String, String)> = texts
            .iter()
            .cloned()
            .zip(texts.iter().rev().cloned())
            .collect();
        let served = client.match_pairs(&pairs).unwrap();
        let expected = matcher.predict_scores(&pairs);
        assert_eq!(served.len(), expected.len());
        for (x, y) in served.iter().zip(expected.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "served match-score bits diverged");
        }

        // The same connection still serves the index workload.
        assert!(!client
            .knn_join(&vectors(3, matcher.encoder.dim(), 14), 2)
            .unwrap()
            .is_empty());
        server.shutdown();
    });
}

#[test]
fn oversized_embed_reply_is_rejected_and_the_connection_survives() {
    for_each_trained_matcher(|matcher| {
        let dim = matcher.encoder.dim();
        let server = spawn_model_server(&matcher);
        let mut client = ServeClient::connect(server.addr()).unwrap();

        // Protocol-legal batch whose *reply* (num × dim f32 rows) cannot be framed:
        // rejected up front with a typed error, before any embedding runs.
        let num = (64 * 1024 * 1024) / (dim * 4) + 1;
        let huge = vec!["a".to_string(); num];
        let err = client.embed(&huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("frame limit"), "got: {err}");

        // The connection is still usable for both model and index traffic.
        assert_eq!(client.embed(&huge[..2]).unwrap().len(), 2);
        assert!(!client.knn_join(&vectors(2, dim, 15), 2).unwrap().is_empty());
        server.shutdown();
    });
}

#[test]
fn mismatched_match_batch_answers_a_typed_error() {
    for_each_trained_matcher(|matcher| {
        let server = spawn_model_server(&matcher);
        let mut client = ServeClient::connect(server.addr()).unwrap();

        // Wire-legal but semantically broken: 2 lefts vs 1 right. The typed client
        // wrapper cannot produce this, so speak the protocol directly.
        let err = client
            .request(&Request::MatchPairs {
                lefts: vec!["a".into(), "b".into()],
                rights: vec!["c".into()],
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("misaligned"), "got: {err}");

        // The connection survives and the aligned form works.
        let scores = client
            .match_pairs(&[("a".to_string(), "c".to_string())])
            .unwrap();
        assert_eq!(scores.len(), 1);
        server.shutdown();
    });
}

#[test]
fn model_less_servers_reject_model_opcodes_with_a_typed_error() {
    let index = BlockingIndex::build(vectors(30, 4, 17), Some(8));
    let server = Server::spawn(Arc::new(index), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let err = client.embed(&["a".to_string()]).unwrap_err();
    assert!(err.to_string().contains("no model loaded"), "got: {err}");
    let err = client
        .match_pairs(&[("a".to_string(), "b".to_string())])
        .unwrap_err();
    assert!(err.to_string().contains("no model loaded"), "got: {err}");

    // The index workload is unaffected.
    assert!(!client.knn_join(&vectors(2, 4, 18), 2).unwrap().is_empty());
    server.shutdown();
}

/// The online streaming-dedup scenario: serve an initial epoch, add records in the
/// builder role, publish them as a `SWDELTA1` delta snapshot, cold-load the delta
/// in the serving role, and hot-swap it in. New records must be findable, and the
/// epoch-keyed query cache must never replay a pre-delta answer.
#[test]
fn streaming_dedup_serves_the_new_epoch_after_a_delta_publish() {
    let corpus = vectors(120, 8, 21);
    let queries = vectors(6, 8, 22);

    let root = snapshot_dir("stream");
    let base_dir = root.join("epoch-0");
    let delta_dir = root.join("epoch-1");
    ShardedCosineIndex::from_vectors(&corpus, 16)
        .save_snapshot(&base_dir)
        .unwrap();

    // Serving role: cold-load the base epoch, cache enabled (the stale-answer hazard).
    let mut serving = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    serving.set_query_cache_capacity(8);
    let server = Server::spawn(Arc::new(BlockingIndex::Sharded(serving)), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let before = client.knn_join(&queries, 3).unwrap();
    // Second identical batch: answered from the query cache, same result.
    assert_eq!(client.knn_join(&queries, 3).unwrap(), before);

    // Builder role: load the same base cold, append the *query vectors themselves*
    // (so each query's top hit must move to its new duplicate), publish a delta.
    let mut builder = ShardedCosineIndex::load_snapshot(&base_dir).unwrap();
    let new_ids = builder.add_batch(&queries);
    assert_eq!(new_ids, 120..126);
    builder.save_delta_snapshot(&base_dir, &delta_dir).unwrap();

    // Serving role: cold-load the delta epoch and hot-swap it in.
    let mut next = ShardedCosineIndex::load_snapshot(&delta_dir).unwrap();
    next.set_query_cache_capacity(8);
    let expected = next.knn_join(&queries, 3);
    server.publish_index(Arc::new(BlockingIndex::Sharded(next)));

    // The same cached batch must now answer from the new epoch — bit-identical to
    // the in-process delta index, never the stale pre-delta answer.
    let after = client.knn_join(&queries, 3).unwrap();
    assert_eq!(after, expected);
    assert_ne!(after, before, "the delta epoch must change the answer");
    for (q, id) in new_ids.enumerate() {
        assert!(
            after.iter().any(|&(query, hit, _)| query == q && hit == id),
            "query {q} must find its newly added duplicate {id}"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn shutdown_is_prompt_with_idle_clients_attached() {
    let index = BlockingIndex::build(vectors(20, 4, 9), Some(4));
    let server = Server::spawn(Arc::new(index), "127.0.0.1:0").unwrap();
    let _idle = ServeClient::connect(server.addr()).unwrap();
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown must not hang on idle connections"
    );
}

/// Regression (wedged shutdown on wildcard binds): the old accept thread was woken
/// by connecting to the listener's own address, and a `0.0.0.0` bind made that
/// connect target the wildcard — unroutable without rewriting it to a loopback —
/// so shutdown hung until a real client happened to dial in. The reactor wakes
/// workers through loopback socket pairs it owns, so the bind address is
/// irrelevant; this pins that for the wildcard case specifically.
#[test]
fn shutdown_is_prompt_on_a_wildcard_bind() {
    let index = BlockingIndex::build(vectors(20, 4, 9), Some(4));
    let server = Server::spawn(Arc::new(index), "0.0.0.0:0").unwrap();
    // The server must actually be reachable (via loopback at the bound port)...
    let port = server.addr().port();
    let mut client = ServeClient::connect(("127.0.0.1", port)).unwrap();
    client.ping().unwrap();
    assert_eq!(client.knn_join(&vectors(3, 4, 1), 2).unwrap().len(), 6);
    // ...and shutting down with that client still attached must not wedge.
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown must not hang on a 0.0.0.0 bind"
    );
}
