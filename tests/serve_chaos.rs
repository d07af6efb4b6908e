//! Chaos leg for the serving stack: concurrent clients while failpoints fire on spill
//! reads and socket writes, durable faults that quarantine shards, a one-at-a-time
//! sweep over every registered failpoint, and deterministic load-shed / deadline
//! behavior. Throughout: no handler panics, connections stay usable, degraded
//! responses are flagged, and results are bit-identical whenever nothing is armed.
//!
//! Failpoints are process-global, so every test holds [`faults::arm_scope`], which
//! serializes the tests of this binary and disarms everything on exit, panic included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sudowoodo::faults;
use sudowoodo::index::{BlockingIndex, ShardedCosineIndex};
use sudowoodo::serve::{ClientConfig, RetryPolicy, ServeClient, Server, ServerConfig};

/// Every failpoint the stack registers, for the one-at-a-time sweep.
const ALL_FAILPOINTS: [&str; 7] = [
    "spill.read.io_err",
    "spill.write.io_err",
    "snapshot.payload.torn",
    "snapshot.rename.skip",
    "snapshot.manifest.torn",
    "delta.manifest.torn",
    "serve.write.stall",
];

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

fn chaos_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sudowoodo-chaos-{tag}-{}-{n}", std::process::id()))
}

/// RAII cleanup for the snapshot dirs the servers read from.
struct DirCleanup(std::path::PathBuf);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Serves a fully spilled sharded index from a cold snapshot load, so every join
/// actually reads shard files — the surface `spill.read.io_err` targets.
fn spawn_spilled_server(seed: u64, config: ServerConfig) -> (Server, DirCleanup) {
    let dir = chaos_dir("srv");
    ShardedCosineIndex::from_vectors(&vectors(120, 8, seed), 16)
        .save_snapshot(&dir)
        .expect("save");
    let index = BlockingIndex::load_snapshot(&dir).expect("cold load");
    let server = Server::spawn_with_config(Arc::new(index), "127.0.0.1:0", config).expect("spawn");
    (server, DirCleanup(dir))
}

#[test]
fn concurrent_clients_survive_seeded_transient_chaos_bit_identically() {
    let _faults = faults::arm_scope();
    let (server, _dir) = spawn_spilled_server(1, ServerConfig::default());
    let addr = server.addr();
    let reference = BlockingIndex::build(vectors(120, 8, 1), Some(16));

    // Transient faults: probabilistic (seeded, deterministic streams) on the spill
    // read path and the socket write path. Reads retry inside the storage layer and
    // recover before the retry budget runs out, so every answer under chaos is still
    // complete AND bit-identical — the faults cost retries, never correctness.
    faults::arm(
        "spill.read.io_err",
        faults::Policy::Prob {
            num: 1,
            den: 5,
            seed: 0xC4A05,
        },
    );
    faults::arm(
        "serve.write.stall",
        faults::Policy::Prob {
            num: 1,
            den: 7,
            seed: 0x57A11,
        },
    );

    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let reference = &reference;
            scope.spawn(move || {
                let queries = vectors(8, 8, 200 + t);
                let expected = reference.knn_join(&queries, 5);
                let mut client = ServeClient::connect(addr).expect("connect");
                for round in 0..12 {
                    let (pairs, degraded) =
                        client.knn_join_detailed(&queries, 5).expect("served join");
                    assert!(
                        !degraded,
                        "thread {t} round {round}: transient faults recover"
                    );
                    assert_eq!(pairs.len(), expected.len(), "thread {t} round {round}");
                    for (a, b) in pairs.iter().zip(expected.iter()) {
                        assert_eq!((a.0, a.1), (b.0, b.1), "thread {t} round {round}");
                        assert_eq!(a.2.to_bits(), b.2.to_bits(), "thread {t} round {round}");
                    }
                }
            });
        }
    });

    // Disarmed: still bit-identical, and the shared index never quarantined.
    faults::disarm_all();
    let queries = vectors(8, 8, 300);
    let mut client = ServeClient::connect(addr).expect("connect");
    let (pairs, degraded) = client.knn_join_detailed(&queries, 5).expect("clean join");
    assert!(!degraded);
    assert_eq!(pairs, reference.knn_join(&queries, 5));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.degraded_joins, 0, "stats: {stats:?}");
    if let BlockingIndex::Sharded(sharded) = &*server.index() {
        assert!(sharded.quarantined_shards().is_empty());
    }
    server.shutdown();
}

#[test]
fn durable_faults_degrade_explicitly_and_report_quarantined_shards() {
    let _faults = faults::arm_scope();
    let (server, _dir) = spawn_spilled_server(2, ServerConfig::default());
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let queries = vectors(6, 8, 400);

    // Every spill read fails, past any retry budget: the index quarantines the
    // unreadable shards and the server flags the response as degraded — explicitly
    // incomplete, never a silent wrong answer, never a dropped connection.
    faults::arm("spill.read.io_err", faults::Policy::Always);
    let (pairs, degraded) = client
        .knn_join_detailed(&queries, 5)
        .expect("degraded join");
    assert!(degraded, "durable faults must flag the response");
    assert!(pairs.is_empty(), "every shard is unreadable");
    faults::disarm("spill.read.io_err");

    // The quarantine is visible in the routing report and the server counters.
    if let BlockingIndex::Sharded(sharded) = &*server.index() {
        let report = sharded.routing_report();
        assert!(!report.quarantined_shards.is_empty(), "report: {report:?}");
        assert!(report.shards_quarantined > 0, "report: {report:?}");
    } else {
        panic!("expected the sharded layout");
    }
    let stats = client.stats().expect("stats");
    assert!(stats.degraded_joins >= 1, "stats: {stats:?}");

    // The connection survives and keeps answering (still degraded until a compact,
    // which requires the owning process — the server's share is read-only).
    client.ping().expect("ping after durable faults");
    let (_, still_degraded) = client.knn_join_detailed(&queries, 5).expect("join");
    assert!(still_degraded);
    server.shutdown();
}

#[test]
fn every_registered_failpoint_armed_alone_leaves_the_server_answering() {
    let _faults = faults::arm_scope();
    for point in ALL_FAILPOINTS {
        let (server, _dir) = spawn_spilled_server(3, ServerConfig::default());
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        let queries = vectors(4, 8, 500);

        faults::arm(point, faults::Policy::Times(3));
        client
            .ping()
            .unwrap_or_else(|e| panic!("{point}: ping: {e}"));
        // The join must ANSWER — complete, degraded, or (after the client's retries)
        // a typed error — but the connection must stay usable either way.
        let _ = client.knn_join_detailed(&queries, 3);
        client
            .ping()
            .unwrap_or_else(|e| panic!("{point}: connection died: {e}"));
        faults::disarm(point);

        // Disarmed (and with any transient quarantine only possible for read
        // faults), a fresh server answers this batch; the surviving connection
        // still answers too.
        let (pairs, _) = client
            .knn_join_detailed(&queries, 3)
            .unwrap_or_else(|e| panic!("{point}: post-disarm join: {e}"));
        assert!(!pairs.is_empty() || queries.is_empty(), "{point}");
        server.shutdown();
    }
}

#[test]
fn a_zero_depth_admission_queue_sheds_every_join_with_busy() {
    let _faults = faults::arm_scope();
    let config = ServerConfig {
        admission_queue_depth: 0,
        ..ServerConfig::default()
    };
    let (server, _dir) = spawn_spilled_server(4, config);
    let client_config = ClientConfig {
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    };
    let mut client =
        ServeClient::connect_with_config(server.addr(), client_config).expect("connect");

    // PING bypasses the admission queue — liveness keeps working under full shed.
    client.ping().expect("ping under load shed");
    let err = client.knn_join(&vectors(2, 8, 600), 3).unwrap_err();
    assert!(err.to_string().contains("busy"), "got: {err}");
    // The client retried (2 retries = 3 attempts), every attempt was shed, and the
    // connection is still usable.
    let stats = client.stats().expect("stats");
    assert!(stats.busy_rejections >= 3, "stats: {stats:?}");
    client.ping().expect("connection survives shedding");
    server.shutdown();
}

#[test]
fn an_already_expired_deadline_answers_busy_without_running_the_join() {
    let _faults = faults::arm_scope();
    let config = ServerConfig {
        admission_queue_depth: 64,
        request_deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let (server, _dir) = spawn_spilled_server(5, config);
    let client_config = ClientConfig {
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    };
    let mut client =
        ServeClient::connect_with_config(server.addr(), client_config).expect("connect");

    let err = client.knn_join(&vectors(2, 8, 700), 3).unwrap_err();
    assert!(err.to_string().contains("busy"), "got: {err}");
    let stats = client.stats().expect("stats");
    assert!(stats.deadline_expirations >= 1, "stats: {stats:?}");
    assert_eq!(stats.degraded_joins, 0, "the join never ran: {stats:?}");
    client.ping().expect("connection survives expirations");
    server.shutdown();
}
