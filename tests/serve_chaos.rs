//! Chaos leg for the serving stack: concurrent clients while failpoints fire on spill
//! reads and socket writes, durable faults that quarantine shards, a one-at-a-time
//! sweep over every registered failpoint, and deterministic load-shed / deadline
//! behavior. Throughout: no handler panics, connections stay usable, degraded
//! responses are flagged, and results are bit-identical whenever nothing is armed.
//!
//! The scatter-gather failover cases live here too: a replica killed or wedged
//! mid-sequence is routed around with **exact** results, and only the loss of every
//! replica of a shard set degrades — explicitly, with the missing shards reported,
//! and never cached. Wedging exactly one replica uses a child `shard_server`
//! process with `SUDOWOODO_FAILPOINTS` set on the child alone (failpoints are
//! process-global, so in-process arming would stall every replica at once).
//!
//! Failpoints are process-global, so this file is its own test binary and every test
//! serializes on one mutex, disarming on exit (panic included) via a guard.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use sudowoodo::coord::{Coordinator, CoordinatorConfig, LocalCluster};
use sudowoodo::faults;
use sudowoodo::index::{BlockingIndex, ShardedCosineIndex};
use sudowoodo::serve::{ClientConfig, RetryPolicy, ServeClient, Server, ServerConfig};

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct DisarmGuard;

impl Drop for DisarmGuard {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

/// Every failpoint the stack registers, for the one-at-a-time sweep.
const ALL_FAILPOINTS: [&str; 8] = [
    "spill.read.io_err",
    "spill.write.io_err",
    "snapshot.payload.torn",
    "snapshot.rename.skip",
    "snapshot.manifest.torn",
    "delta.manifest.torn",
    "serve.write.stall",
    "serve.subset.stall",
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
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
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
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
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
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
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
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
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
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
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

// ---------------------------------------------------------------------------
// Scatter-gather failover chaos
// ---------------------------------------------------------------------------

/// A `shard_server` child process with failpoints armed via its own environment —
/// the only way to wedge ONE replica of a cluster (the registry is per-process).
struct ChildServer {
    child: Child,
    endpoint: String,
}

impl ChildServer {
    fn spawn(snapshot: &std::path::Path, failpoints: Option<&str>) -> ChildServer {
        let mut command = Command::new(env!("CARGO_BIN_EXE_shard_server"));
        command
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(spec) = failpoints {
            command.env("SUDOWOODO_FAILPOINTS", spec);
        }
        let mut child = command.spawn().expect("spawn shard_server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let endpoint = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected shard_server greeting: {line:?}"))
            .to_string();
        ChildServer { child, endpoint }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn assert_exact(got: &[(usize, usize, f32)], expected: &[(usize, usize, f32)], context: &str) {
    assert_eq!(got.len(), expected.len(), "{context}: result size");
    for (g, e) in got.iter().zip(expected.iter()) {
        assert_eq!((g.0, g.1), (e.0, e.1), "{context}: (query, id)");
        assert_eq!(g.2.to_bits(), e.2.to_bits(), "{context}: score bits");
    }
}

/// Killing one replica between batches is invisible: every shard keeps a live
/// replica (R=2 over 3 endpoints), so the next join fails over and stays exact
/// and non-degraded.
#[test]
fn killing_one_replica_is_invisible_through_failover() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let corpus = vectors(480, 8, 6);
    let queries = vectors(24, 8, 60);
    let index = Arc::new(BlockingIndex::build(corpus, Some(16)));
    let expected = index.knn_join(&queries, 5);

    let mut cluster = LocalCluster::spawn(Arc::clone(&index), 3).expect("spawn cluster");
    let mut coord = Coordinator::connect(
        &cluster.endpoints(),
        CoordinatorConfig {
            replication: 2,
            ..CoordinatorConfig::default()
        },
    )
    .expect("connect coordinator");
    assert_exact(
        &coord.knn_join(&queries, 5).expect("healthy join"),
        &expected,
        "before the kill",
    );

    cluster.kill(1);

    let outcome = coord.knn_join_report(&queries, 5).expect("failover join");
    assert!(
        !outcome.degraded,
        "one replica of two lost must not degrade (missing: {:?})",
        outcome.quarantined_shards
    );
    assert_exact(&outcome.pairs, &expected, "after the kill");
}

/// A replica that accepts connections but wedges mid-request (the stall
/// failpoint holds the subset join for a full second) is routed around within
/// the coordinator's read timeout — exact results, no degradation. The stall is
/// armed in ONE child process via its environment.
#[test]
fn a_stalled_replica_is_routed_around_exactly() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let dir = chaos_dir("stall");
    let _cleanup = DirCleanup(dir.clone());
    ShardedCosineIndex::from_vectors(&vectors(300, 8, 7), 16)
        .save_snapshot(&dir)
        .expect("save");
    let queries = vectors(20, 8, 70);
    let expected = BlockingIndex::load_snapshot(&dir)
        .expect("cold load")
        .knn_join(&queries, 5);

    // One wedged replica, one healthy; R=2 over 2 endpoints puts both on every
    // shard, so every stalled subset has a live fallback.
    let stalled = ChildServer::spawn(&dir, Some("serve.subset.stall=always"));
    let healthy = ChildServer::spawn(&dir, None);
    let mut coord = Coordinator::connect(
        &[stalled.endpoint.clone(), healthy.endpoint.clone()],
        CoordinatorConfig {
            replication: 2,
            client: ClientConfig {
                read_timeout: Some(Duration::from_millis(300)),
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
            },
            ..CoordinatorConfig::default()
        },
    )
    .expect("connect coordinator");

    let outcome = coord.knn_join_report(&queries, 5).expect("join");
    assert!(
        !outcome.degraded,
        "the healthy replica covers every shard (missing: {:?})",
        outcome.quarantined_shards
    );
    assert_exact(&outcome.pairs, &expected, "stalled replica routed around");
}

/// What a proxied endpoint does when a `KNN_SUBSET` frame arrives. Everything
/// else (STATS at connect time, PING) is forwarded verbatim, so the coordinator's
/// strict connect handshake succeeds against both behaviors.
#[derive(Clone, Copy)]
enum SubsetScript {
    /// Answer the first subset join with a wire `STATUS_BUSY`, forward the rest:
    /// a healthy process load-shedding exactly once. (No server config sheds
    /// exactly the first subset — the admission bound is a queue depth, not a
    /// count — hence the proxy.)
    BusyOnce,
    /// Drop the connection on every subset join: a transport failure
    /// mid-protocol, while still looking healthy at connect time.
    HangUp,
}

/// A frame-level proxy in front of a real server, scripted per-opcode.
struct ScriptedProxy {
    addr: String,
    subset_requests: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl ScriptedProxy {
    fn spawn(upstream: std::net::SocketAddr, script: SubsetScript) -> ScriptedProxy {
        use sudowoodo::serve::protocol as proto;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let subset_requests = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let shed_pending = Arc::new(AtomicBool::new(true));
        let counter = Arc::clone(&subset_requests);
        let stopped = Arc::clone(&stop);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut down) = conn else { break };
                let counter = Arc::clone(&counter);
                let shed_pending = Arc::clone(&shed_pending);
                std::thread::spawn(move || {
                    let Ok(mut up) = std::net::TcpStream::connect(upstream) else {
                        return;
                    };
                    while let Ok(Some(frame)) = proto::read_frame(&mut down) {
                        if proto::Request::peek_kind(&frame) == Some(proto::RequestKind::KnnSubset)
                        {
                            counter.fetch_add(1, Ordering::Relaxed);
                            match script {
                                // Dropping both streams is the transport failure.
                                SubsetScript::HangUp => return,
                                SubsetScript::BusyOnce => {
                                    if shed_pending.swap(false, Ordering::Relaxed) {
                                        if proto::write_frame(
                                            &mut down,
                                            &proto::Response::Busy.encode(),
                                        )
                                        .is_err()
                                        {
                                            return;
                                        }
                                        continue;
                                    }
                                }
                            }
                        }
                        if proto::write_frame(&mut up, &frame).is_err() {
                            return;
                        }
                        let Ok(Some(reply)) = proto::read_frame(&mut up) else {
                            return;
                        };
                        if proto::write_frame(&mut down, &reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        ScriptedProxy {
            addr,
            subset_requests,
            stop,
        }
    }

    fn subset_requests(&self) -> u64 {
        self.subset_requests.load(Ordering::Relaxed)
    }
}

impl Drop for ScriptedProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop so the thread exits.
        let _ = std::net::TcpStream::connect(&self.addr);
    }
}

/// BUSY and transport failure are opposite failover signals, and this pins the
/// difference within ONE call. Endpoint A sheds its first subset join with BUSY
/// (a healthy process saying "not now"); endpoint B accepts connections but
/// hangs up on every subset join (a dead process that still passes the connect
/// handshake). Shards with A as primary get shed, fail over toward B, find it
/// dead, and are lost. Shards with B as primary find B dead and fail over to A —
/// which MUST still be eligible even though it shed earlier in the same call.
/// A coordinator that treated BUSY like a dead endpoint would blacklist A in
/// round one and lose every shard; the report pins that exactly the B-primary
/// shards survive, served by the endpoint that had already said BUSY once.
#[test]
fn a_busy_shed_does_not_blacklist_an_endpoint_but_a_hangup_does() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let corpus = vectors(480, 8, 9);
    let queries = vectors(24, 8, 90);
    let index = Arc::new(BlockingIndex::build(corpus, Some(16)));
    let upstream = Server::spawn(Arc::clone(&index), "127.0.0.1:0").expect("spawn upstream");

    // Placement hashes the proxies' ephemeral addresses, so whether a given
    // shard lands A-primary or B-primary varies per run; the test needs both
    // kinds to exist. Re-bind (fresh ports, fresh placement) until they do.
    let mut tries = 0;
    let (busy, dead, mut coord, a_primary, b_primary) = loop {
        let busy = ScriptedProxy::spawn(upstream.addr(), SubsetScript::BusyOnce);
        let dead = ScriptedProxy::spawn(upstream.addr(), SubsetScript::HangUp);
        let coord = Coordinator::connect(
            &[busy.addr.clone(), dead.addr.clone()],
            CoordinatorConfig::default(),
        )
        .expect("connect through the proxies");
        let primaries = |endpoint: usize| -> Vec<usize> {
            coord
                .placement()
                .iter()
                .enumerate()
                .filter(|(_, replicas)| replicas[0] == endpoint)
                .map(|(shard, _)| shard)
                .collect()
        };
        let (a_primary, b_primary) = (primaries(0), primaries(1));
        if !a_primary.is_empty() && !b_primary.is_empty() {
            break (busy, dead, coord, a_primary, b_primary);
        }
        tries += 1;
        assert!(tries < 16, "no mixed placement in {tries} tries");
    };

    // Call 1: A sheds once. The B-primary shards reach A *after* the shed and
    // must still be served by it; the A-primary shards exhaust (A shed them,
    // B is dead) and are reported lost — nothing silently dropped.
    let outcome = coord.knn_join_report(&queries, 5).expect("join");
    assert!(
        outcome.degraded,
        "A-primary shards have no live replica left"
    );
    assert_eq!(
        outcome.quarantined_shards, a_primary,
        "exactly the A-primary shards are lost"
    );
    let expected_covered = index.knn_join_subset_report(&queries, 5, &b_primary).pairs;
    assert_exact(
        &outcome.pairs,
        &expected_covered,
        "B-primary shards served by the endpoint that shed BUSY earlier",
    );
    assert_eq!(
        busy.subset_requests(),
        2,
        "A: one shed + one re-probe (a blacklisting coordinator would stop at 1)"
    );
    assert_eq!(
        dead.subset_requests(),
        1,
        "B: one hangup makes it call-fatal; it must not be re-probed in-call"
    );

    // Call 2: the shed was transient and deadness was call-scoped. A now serves
    // everything (B's shards fail over to it), so the join is whole again.
    let again = coord.knn_join_report(&queries, 5).expect("second join");
    assert!(!again.degraded, "missing: {:?}", again.quarantined_shards);
    assert_exact(
        &again.pairs,
        &index.knn_join(&queries, 5),
        "one BUSY answer must not leave any lasting mark",
    );
    assert_eq!(dead.subset_requests(), 2, "B is re-probed on the NEXT call");
    upstream.shutdown();
}

/// Losing EVERY replica of a shard set is the one unrecoverable case: the join
/// still answers, explicitly degraded, reporting exactly the shards with no live
/// replica — and a repeated batch recomputes the same degraded answer (the
/// coordinator holds no cache, so a degraded result can never be replayed as
/// complete).
#[test]
fn losing_every_replica_of_a_shard_set_degrades_explicitly_and_never_caches() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let corpus = vectors(480, 8, 8);
    let queries = vectors(24, 8, 80);
    let index = Arc::new(BlockingIndex::build(corpus, Some(16)));

    let mut cluster = LocalCluster::spawn(Arc::clone(&index), 3).expect("spawn cluster");
    let mut coord = Coordinator::connect(
        &cluster.endpoints(),
        CoordinatorConfig {
            replication: 2,
            ..CoordinatorConfig::default()
        },
    )
    .expect("connect coordinator");

    // Endpoints 0 and 1 die; exactly the shards whose whole replica set is
    // {0, 1} lose coverage. The placement is deterministic, so this set is too.
    let expected_missing: Vec<usize> = coord
        .placement()
        .iter()
        .enumerate()
        .filter(|(_, replicas)| replicas.iter().all(|&e| e == 0 || e == 1))
        .map(|(shard, _)| shard)
        .collect();
    assert!(
        !expected_missing.is_empty(),
        "fixture must place at least one shard entirely on the doomed endpoints \
         (placement: {:?})",
        coord.placement()
    );
    let covered: Vec<usize> = (0..coord.num_shards())
        .filter(|s| !expected_missing.contains(s))
        .collect();
    let expected_pairs = index.knn_join_subset_report(&queries, 5, &covered).pairs;

    cluster.kill(0);
    cluster.kill(0); // original endpoint 1

    let outcome = coord.knn_join_report(&queries, 5).expect("degraded join");
    assert!(outcome.degraded, "total shard-set loss must be explicit");
    assert_eq!(
        outcome.quarantined_shards, expected_missing,
        "the missing shards must be reported exactly"
    );
    assert_exact(
        &outcome.pairs,
        &expected_pairs,
        "covered shards still answer exactly",
    );

    // Never cached: the identical batch is recomputed and stays degraded and
    // bit-identical — it cannot resurface later as a complete answer.
    let again = coord.knn_join_report(&queries, 5).expect("repeat join");
    assert_eq!(
        again, outcome,
        "degraded outcomes must not be replayed from any cache"
    );
}
