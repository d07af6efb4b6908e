//! `serve_knn` and `serve_mixed`: one served request, seen from the client.
//!
//! Both run the server in-process with its default configuration behind a snapshot
//! that was saved and cold-loaded, and drive it with two closed-loop client threads
//! (the callers of this server — integration jobs, the coordinator — wait for each
//! reply). Two clients never fill the 256-deep admission queue, so load shedding is
//! out of scope.
//!
//! * `serve_knn` — unique topical batches over a resident, cluster-ordered corpus:
//!   the join is most of a request, routing prunes, the cache is on but never hits.
//! * `serve_mixed` — 70 % KNN drawn Zipf from a pool of 512 batches over a 128-entry
//!   cache, 15 % EMBED, 15 % MATCH against a cold-loaded model, and client 0
//!   publishing a delta snapshot every 500th request it sends: protocol, reactor,
//!   batcher, cache and model inference dominate, the shard scan does little. The
//!   served index stays snapshot-cold (mmap-backed) before and after every publish.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use sudowoodo_core::config::EncoderConfig;
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo_core::model_snapshot::{self, MatcherBackend};
use sudowoodo_index::{BlockingIndex, CosineIndex, ShardedCosineIndex};
use sudowoodo_serve::{Request, Response, ServeClient, Server, ServerConfig, ServerStats};

use super::{finish_trace, guard, same_pairs, Params};
use crate::gen::{rng_for, Clusters, Order, Texts, Zipf};
use crate::measure::{median, peak_rss_mb, timed, Report};
use crate::probes;
use crate::trace::{Span, Tracer};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    KnnOnly,
    Mixed,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::KnnOnly => "serve_knn",
            Mix::Mixed => "serve_mixed",
        }
    }
}

const CLIENTS: usize = 2;
/// Every n-th KNN reply is kept and checked after the window.
const VERIFY_KNN_EVERY: u64 = 50;
/// Every n-th EMBED / MATCH reply is kept and checked after the window.
const VERIFY_MODEL_EVERY: u64 = 10;
/// In the traced window, every n-th request gets a root span and a shadow call.
const SHADOW_EVERY: u64 = 20;
/// Fresh batches joined directly on the served index after the window, to read its
/// routing counters.
const COUNTER_PROBES: usize = 32;

struct Sizes {
    rows: usize,
    dim: usize,
    clusters: usize,
    spread: f32,
    shard_capacity: usize,
    batch: usize,
    k: usize,
    cache_capacity: usize,
    pool: usize,
    zipf_exponent: f64,
    embed_texts: usize,
    match_pairs: usize,
    publish_every: u64,
    publish_rows: usize,
    text_scale: f32,
    finetune_pairs: usize,
    setups: usize,
}

impl Sizes {
    fn new(mix: Mix, quick: bool) -> Self {
        let full = Sizes {
            rows: 32_000,
            dim: 64,
            clusters: 40,
            spread: 0.05,
            shard_capacity: 2_048,
            batch: 16,
            k: 20,
            cache_capacity: 128,
            pool: 512,
            zipf_exponent: 1.2,
            embed_texts: 32,
            match_pairs: 16,
            publish_every: 500,
            publish_rows: 256,
            text_scale: 1.0,
            finetune_pairs: 256,
            setups: 5,
        };
        match (mix, quick) {
            (_, true) => Sizes {
                rows: 4_096,
                dim: 32,
                clusters: 16,
                shard_capacity: 256,
                batch: 8,
                k: 10,
                cache_capacity: 16,
                pool: 64,
                publish_every: 100,
                publish_rows: 32,
                text_scale: 0.2,
                finetune_pairs: 16,
                setups: 2,
                ..full
            },
            (Mix::KnnOnly, false) => full,
            // The scan is meant to do little here: a smaller corpus than serve_knn's.
            // and clusters aligned with shards, so a cache miss visits one shard.
            (Mix::Mixed, false) => Sizes {
                rows: 16_384,
                clusters: 64,
                shard_capacity: 1_024,
                ..full
            },
        }
    }
}

/// Seconds each part of one set-up took.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    build: f64,
    save: f64,
    load: f64,
    warm: f64,
    model: f64,
    spawn: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build + self.save + self.load + self.warm + self.model + self.spawn
    }
}

/// A running server and what the clients and the checks need beside it.
struct Stack {
    server: Server,
    base_dir: PathBuf,
    /// The in-process model the served one was saved from.
    matcher: Option<PairMatcher>,
    times: SetupTimes,
}

/// One whole set-up from repository calls: build → save snapshot → cold load (→ warm
/// resident for `serve_knn`) → fine-tune, save and cold-load the model (`serve_mixed`)
/// → spawn the server.
fn set_up(
    mix: Mix,
    sizes: &Sizes,
    seed: u64,
    corpus: Vec<Vec<f32>>,
    texts: Option<&Texts>,
    dir: &Path,
) -> io::Result<Stack> {
    let mut times = SetupTimes::default();
    let base_dir = dir.join("base");
    let (index, build) = timed(|| BlockingIndex::build(corpus, Some(sizes.shard_capacity)));
    let (saved, save) = timed(|| index.save_snapshot(&base_dir));
    saved?;
    drop(index);
    let (loaded, load) = timed(|| ShardedCosineIndex::load_snapshot(&base_dir));
    let mut serving = loaded?;
    (times.build, times.save, times.load) = (build, save, load);
    if mix == Mix::KnnOnly {
        times.warm = timed(|| {
            serving.set_memory_budget(None);
            serving.compact();
        })
        .1;
    }
    serving.set_query_cache_capacity(sizes.cache_capacity);
    let serving = Arc::new(BlockingIndex::Sharded(serving));

    let mut matcher = None;
    let server = if let Some(texts) = texts {
        let model_path = dir.join(model_snapshot::MODEL_SNAPSHOT_FILE);
        let (cold, model) = timed(|| -> io::Result<PairMatcher> {
            let encoder =
                Encoder::from_corpus(EncoderConfig::default(), &texts.dataset.corpus(), seed);
            let mut trained = PairMatcher::new(encoder, true, seed);
            let train: Vec<TrainPair> = texts
                .dataset
                .train
                .iter()
                .take(sizes.finetune_pairs)
                .map(|p| TrainPair::new(texts.left[p.a].clone(), texts.right[p.b].clone(), p.label))
                .collect();
            trained.fine_tune(
                &train,
                &FineTuneConfig {
                    epochs: 1,
                    seed,
                    ..FineTuneConfig::default()
                },
            );
            model_snapshot::save_matcher(&trained, &model_path)?;
            let cold = model_snapshot::load_matcher(&model_path)?;
            matcher = Some(trained);
            Ok(cold)
        });
        times.model = model;
        let backend = Arc::new(MatcherBackend(cold?));
        let (server, spawn) = timed(|| {
            Server::spawn_with_model(serving, backend, "127.0.0.1:0", ServerConfig::default())
        });
        times.spawn = spawn;
        server?
    } else {
        let (server, spawn) =
            timed(|| Server::spawn_with_config(serving, "127.0.0.1:0", ServerConfig::default()));
        times.spawn = spawn;
        server?
    };
    Ok(Stack {
        server,
        base_dir,
        matcher,
        times,
    })
}

/// One published state of the served index.
struct Epoch {
    dir: PathBuf,
    /// A second, cache-less handle on the same snapshot for shadow joins (traced run).
    shadow: Option<Arc<BlockingIndex>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Knn = 0,
    Embed = 1,
    Match = 2,
}

const OP_NAMES: [&str; 3] = ["KNN", "EMBED", "MATCH"];

/// A reply kept for checking after the window.
enum Sample {
    Knn {
        queries: Vec<Vec<f32>>,
        pairs: Vec<(usize, usize, f32)>,
        /// Index generations the reply may have been computed on.
        generations: (usize, usize),
    },
    Embed {
        texts: Vec<String>,
        vectors: Vec<Vec<f32>>,
    },
    Match {
        lefts: Vec<String>,
        rights: Vec<String>,
        scores: Vec<f32>,
    },
}

/// What the traced window learned about one sampled request.
struct Shadowed {
    op: Op,
    round_trip: f64,
    protocol: f64,
    direct: f64,
    frame_bytes: usize,
    /// Queries, texts or pairs the request carried.
    items: usize,
}

/// What one client saw during one phase.
#[derive(Default)]
struct PhaseOut {
    attempted: [u64; 3],
    failed: [u64; 3],
    /// Round trips of the successful requests, per opcode.
    latencies: [Vec<f64>; 3],
    samples: Vec<Sample>,
    shadowed: Vec<Shadowed>,
    publishes: Vec<f64>,
    /// Most entries found in a just-published index's query cache.
    stale_cache_entries: usize,
    end: Option<Instant>,
}

/// Client 0 of `serve_mixed` also writes: append rows, save a delta on the base
/// snapshot, cold-load it, publish it.
struct Publisher {
    builder: ShardedCosineIndex,
    rng: StdRng,
    published: usize,
}

struct Client {
    id: usize,
    conn: ServeClient,
    rng: StdRng,
    /// Requests sent so far over every phase: drives publishes and sampling, so both
    /// are deterministic in the request count.
    sent: u64,
    publisher: Option<Publisher>,
}

/// Read-only context shared by the client threads.
struct Shared<'a> {
    mix: Mix,
    sizes: &'a Sizes,
    stack: &'a Stack,
    root: &'a Path,
    clusters: &'a Clusters,
    pool: &'a [Vec<Vec<f32>>],
    zipf: &'a Zipf,
    texts: Option<&'a Texts>,
    epochs: Mutex<Vec<Epoch>>,
    /// Index of the epoch being served; bumped after `publish_index` returns.
    generation: AtomicUsize,
    /// Whether epochs carry a shadow handle (the traced run).
    shadows: bool,
    /// Query-cache `(hits, misses)` of the indexes already replaced: an index takes
    /// its counters with it when a publish swaps it out.
    retired_cache: Mutex<(u64, u64)>,
}

/// The aligned sides of a `MATCH` request as the pairs the matcher takes.
fn zip_pairs(lefts: &[String], rights: &[String]) -> Vec<(String, String)> {
    lefts.iter().cloned().zip(rights.iter().cloned()).collect()
}

impl Shared<'_> {
    /// The in-process model; `EMBED` and `MATCH` are only ever sent beside one.
    fn model(&self) -> &PairMatcher {
        self.stack
            .matcher
            .as_ref()
            .expect("model requests are only sent by the workload that loads a model")
    }

    /// Query-cache `(hits, misses)` since the server started, over every epoch.
    fn cache_totals(&self) -> (u64, u64) {
        let retired = *self
            .retired_cache
            .lock()
            .expect("only plain additions run under this lock");
        let serving = self.stack.server.stats();
        (
            retired.0 + serving.cache_hits,
            retired.1 + serving.cache_misses,
        )
    }

    fn next_request(&self, rng: &mut StdRng) -> (Op, Request) {
        let knn = |queries| Request::Knn {
            queries,
            k: self.sizes.k,
        };
        let Some(texts) = self.texts else {
            return (
                Op::Knn,
                knn(self.clusters.topical_batch(rng, self.sizes.batch)),
            );
        };
        let draw = rng.gen::<f64>();
        if draw < 0.70 {
            (Op::Knn, knn(self.pool[self.zipf.draw(rng)].clone()))
        } else if draw < 0.85 {
            let texts = texts.embed_batch(rng, self.sizes.embed_texts);
            (Op::Embed, Request::Embed { texts })
        } else {
            let (lefts, rights) = texts.match_batch(rng, self.sizes.match_pairs);
            (Op::Match, Request::MatchPairs { lefts, rights })
        }
    }

    fn shadow_index(&self, generation: usize) -> Option<Arc<BlockingIndex>> {
        let epochs = self
            .epochs
            .lock()
            .expect("no client panics while holding the epoch list");
        epochs[generation.min(epochs.len() - 1)].shadow.clone()
    }

    /// The same work as `request`, called directly: the join on a cache-less handle
    /// of the served epoch, or the in-process model.
    fn shadow_call(&self, request: &Request, generation: usize) {
        match request {
            Request::Knn { queries, k } => {
                if let Some(index) = self.shadow_index(generation) {
                    std::hint::black_box(index.knn_join_report(queries, *k));
                }
            }
            Request::Embed { texts } => {
                std::hint::black_box(self.model().encoder.embed_all(texts));
            }
            Request::MatchPairs { lefts, rights } => {
                let pairs = zip_pairs(lefts, rights);
                std::hint::black_box(self.model().predict_scores(&pairs));
            }
            _ => {}
        }
    }

    /// add_batch → save_delta_snapshot → load_snapshot → publish_index, timed as one.
    fn publish(
        &self,
        publisher: &mut Publisher,
        tracer: &mut Tracer,
        out: &mut PhaseOut,
    ) -> io::Result<()> {
        let rows = self
            .clusters
            .topical_batch(&mut publisher.rng, self.sizes.publish_rows);
        publisher.published += 1;
        let dir = self.root.join(format!("delta-{}", publisher.published));
        let server = &self.stack.server;
        let (published, seconds) = tracer.span("index.publish", |t| -> io::Result<()> {
            t.span("index.add_batch", |_| publisher.builder.add_batch(&rows));
            // Always a delta on the base snapshot: the chain stays one link long
            // however many publishes a fast server fits into a window.
            t.span("index.save_delta_snapshot", |_| {
                publisher
                    .builder
                    .save_delta_snapshot(&self.stack.base_dir, &dir)
            })
            .0?;
            let mut next = t
                .span("index.load_snapshot", |_| {
                    ShardedCosineIndex::load_snapshot(&dir)
                })
                .0?;
            next.set_query_cache_capacity(self.sizes.cache_capacity);
            let outgoing = server.stats();
            let mut retired = self
                .retired_cache
                .lock()
                .expect("only plain additions run under this lock");
            retired.0 += outgoing.cache_hits;
            retired.1 += outgoing.cache_misses;
            drop(retired);
            t.span("serve.publish_index", |_| {
                server.publish_index(Arc::new(BlockingIndex::Sharded(next)))
            });
            Ok(())
        });
        published?;
        if let BlockingIndex::Sharded(fresh) = &*server.index() {
            out.stale_cache_entries = out.stale_cache_entries.max(fresh.query_cache_len());
        }
        let shadow = if self.shadows {
            Some(Arc::new(BlockingIndex::Sharded(
                ShardedCosineIndex::load_snapshot(&dir)?,
            )))
        } else {
            None
        };
        self.epochs
            .lock()
            .expect("no client panics while holding the epoch list")
            .push(Epoch { dir, shadow });
        self.generation.fetch_add(1, Ordering::SeqCst);
        out.publishes.push(seconds);
        Ok(())
    }

    /// One client's closed loop for `seconds`.
    fn client_phase(
        &self,
        client: &mut Client,
        seconds: f64,
        traced: bool,
        tracer: &mut Tracer,
    ) -> PhaseOut {
        let mut out = PhaseOut::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            client.sent += 1;
            if let Some(publisher) = client.publisher.as_mut() {
                if client.sent.is_multiple_of(self.sizes.publish_every) {
                    tracer.set_enabled(traced);
                    tracer.set_request(None);
                    if let Err(e) = self.publish(publisher, tracer, &mut out) {
                        out.failed[Op::Knn as usize] += 1;
                        eprintln!("publish failed: {e}");
                    }
                }
            }
            let (op, request) = self.next_request(&mut client.rng);
            let sampled = traced && client.sent.is_multiple_of(SHADOW_EVERY);
            tracer.set_enabled(sampled);
            tracer.set_request(Some(((client.id as u64) << 32) | client.sent));
            out.attempted[op as usize] += 1;
            let conn = &mut client.conn;
            tracer.span("request", |t| {
                let encoded = sampled.then(|| t.span("serve.encode", |_| request.encode()));
                let before = self.generation.load(Ordering::SeqCst);
                let (response, round_trip) = t.span("serve.round_trip", |_| conn.request(&request));
                let after = self.generation.load(Ordering::SeqCst);
                let verify_every = if op == Op::Knn {
                    VERIFY_KNN_EVERY
                } else {
                    VERIFY_MODEL_EVERY
                };
                let keep = out.attempted[op as usize].is_multiple_of(verify_every);
                let response = match response {
                    Ok(response) => response,
                    Err(e) => {
                        out.failed[op as usize] += 1;
                        eprintln!("{} request failed: {e}", OP_NAMES[op as usize]);
                        return;
                    }
                };
                if let Some((payload, encode_s)) = encoded {
                    let frame = response.encode();
                    let (_, decode_s) =
                        t.span("serve.decode", |_| Response::decode(&frame, request.kind()));
                    let (_, direct) = t.span(
                        match op {
                            Op::Knn => "index.knn_join_report",
                            Op::Embed => "core.embed_all",
                            Op::Match => "core.predict_scores",
                        },
                        |_| self.shadow_call(&request, after),
                    );
                    out.shadowed.push(Shadowed {
                        op,
                        round_trip,
                        protocol: encode_s + decode_s,
                        direct,
                        frame_bytes: payload.len() + frame.len(),
                        items: match &request {
                            Request::Knn { queries, .. } => queries.len(),
                            Request::Embed { texts } => texts.len(),
                            Request::MatchPairs { lefts, .. } => lefts.len(),
                            _ => 0,
                        },
                    });
                }
                let sample = match (request, response) {
                    (
                        Request::Knn { queries, .. },
                        Response::Knn {
                            pairs,
                            degraded: false,
                        },
                    ) => Sample::Knn {
                        queries,
                        pairs,
                        generations: (before, after + 1),
                    },
                    (Request::Embed { texts }, Response::Embeddings(vectors)) => {
                        Sample::Embed { texts, vectors }
                    }
                    (Request::MatchPairs { lefts, rights }, Response::MatchScores(scores)) => {
                        Sample::Match {
                            lefts,
                            rights,
                            scores,
                        }
                    }
                    // A degraded join or an answer of the wrong kind is a failure.
                    _ => {
                        out.failed[op as usize] += 1;
                        return;
                    }
                };
                out.latencies[op as usize].push(round_trip);
                if keep {
                    out.samples.push(sample);
                }
            });
        }
        out.end = Some(Instant::now());
        out
    }
}

/// Everything one phase (both clients) produced.
struct Phase {
    wall: f64,
    outs: Vec<PhaseOut>,
    stats_delta: ServerStats,
    cache_hits: u64,
    cache_misses: u64,
}

impl Phase {
    fn sum(&self, f: impl Fn(&PhaseOut) -> u64) -> u64 {
        self.outs.iter().map(f).sum()
    }
    fn requests(&self) -> u64 {
        self.sum(|o| o.latencies.iter().map(Vec::len).sum::<usize>() as u64)
    }
    fn latencies(&self, op: usize) -> Vec<f64> {
        self.outs
            .iter()
            .flat_map(|o| o.latencies[op].iter().copied())
            .collect()
    }
    fn rate(&self) -> f64 {
        self.requests() as f64 / self.wall
    }
}

fn run_phase(
    shared: &Shared,
    clients: &mut [Client],
    tracers: &mut [Tracer],
    seconds: f64,
    traced: bool,
) -> Phase {
    let server = &shared.stack.server;
    let stats_before = server.stats();
    let cache_before = shared.cache_totals();
    let start = Instant::now();
    let outs: Vec<PhaseOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                scope.spawn(move || shared.client_phase(client, seconds, traced, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let end = outs
        .iter()
        .filter_map(|o| o.end)
        .max()
        .expect("two clients ran");
    let stats_after = server.stats();
    let cache_after = shared.cache_totals();
    Phase {
        wall: (end - start).as_secs_f64(),
        outs,
        stats_delta: ServerStats {
            batched_joins: stats_after.batched_joins - stats_before.batched_joins,
            busy_rejections: stats_after.busy_rejections - stats_before.busy_rejections,
            degraded_joins: stats_after.degraded_joins - stats_before.degraded_joins,
            ..stats_after
        },
        cache_hits: cache_after.0 - cache_before.0,
        cache_misses: cache_after.1 - cache_before.1,
    }
}

fn same_bits<'a>(a: impl Iterator<Item = &'a f32>, b: impl Iterator<Item = &'a f32>) -> bool {
    a.map(|x| x.to_bits()).eq(b.map(|x| x.to_bits()))
}

/// Checks the kept replies, outside the window; returns wrong answers per opcode.
fn verify(
    shared: &Shared,
    samples: &[Sample],
    corpus: impl FnOnce() -> Vec<Vec<f32>>,
) -> io::Result<[u64; 3]> {
    let mut wrong = [0u64; 3];
    let epochs = shared.epochs.lock().expect("clients have finished");
    // serve_knn never publishes: its oracle is the dense layout over the same rows.
    // serve_mixed answers are recomputed on a cache-less cold load of each epoch.
    let dense = (shared.mix == Mix::KnnOnly).then(|| CosineIndex::build(corpus()));
    let mut loaded: Vec<Option<ShardedCosineIndex>> = epochs.iter().map(|_| None).collect();
    for sample in samples {
        match sample {
            Sample::Knn {
                queries,
                pairs,
                generations,
            } => {
                let k = shared.sizes.k;
                let ok = if let Some(dense) = &dense {
                    same_pairs(&dense.knn_join(queries, k), pairs)
                } else {
                    let mut matched = false;
                    for g in generations.0..=generations.1.min(epochs.len() - 1) {
                        if loaded[g].is_none() {
                            loaded[g] = Some(ShardedCosineIndex::load_snapshot(&epochs[g].dir)?);
                        }
                        let outcome = loaded[g]
                            .as_ref()
                            .expect("just loaded")
                            .knn_join_report(queries, k);
                        matched |= !outcome.degraded && same_pairs(&outcome.pairs, pairs);
                    }
                    matched
                };
                wrong[Op::Knn as usize] += u64::from(!ok);
            }
            Sample::Embed { texts, vectors } => {
                let expected = shared.model().encoder.embed_all(texts);
                let ok = expected.len() == vectors.len()
                    && same_bits(expected.iter().flatten(), vectors.iter().flatten());
                wrong[Op::Embed as usize] += u64::from(!ok);
            }
            Sample::Match {
                lefts,
                rights,
                scores,
            } => {
                let expected = shared.model().predict_scores(&zip_pairs(lefts, rights));
                let ok = same_bits(expected.iter(), scores.iter());
                wrong[Op::Match as usize] += u64::from(!ok);
            }
        }
    }
    Ok(wrong)
}

pub fn run(mix: Mix, p: &Params) -> Result<Report, String> {
    let sizes = Sizes::new(mix, p.quick);
    let clusters = Clusters::new(p.seed, sizes.clusters, sizes.dim, sizes.spread);
    let corpus = || clusters.corpus(&mut rng_for(p.seed, 2), sizes.rows, Order::ByCluster);
    let texts = (mix == Mix::Mixed).then(|| Texts::new(sizes.text_scale, p.seed));
    let pool: Vec<Vec<Vec<f32>>> = {
        let mut rng = rng_for(p.seed, 3);
        let batches = if mix == Mix::Mixed { sizes.pool } else { 0 };
        (0..batches)
            .map(|_| clusters.topical_batch(&mut rng, sizes.batch))
            .collect()
    };
    let zipf = Zipf::new(sizes.pool, sizes.zipf_exponent);

    // Set-up, several times over; the last stack is the one that serves.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(sizes.setups);
    let mut stack = None;
    for round in 0..sizes.setups {
        let dir = p.scratch.join(format!("setup-{round}"));
        let built = set_up(mix, &sizes, p.seed, corpus(), texts.as_ref(), &dir)
            .map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(built.times);
        if round + 1 < sizes.setups {
            drop(built);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            stack = Some(built);
        }
    }
    let stack = stack.expect("at least one set-up");
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<f64>>());

    let shadow = |dir: &Path| -> io::Result<Option<Arc<BlockingIndex>>> {
        if !p.trace {
            return Ok(None);
        }
        let mut index = ShardedCosineIndex::load_snapshot(dir)?;
        if mix == Mix::KnnOnly {
            index.set_memory_budget(None);
            index.compact();
        }
        Ok(Some(Arc::new(BlockingIndex::Sharded(index))))
    };
    let root = p.scratch.join("epochs");
    let shared = Shared {
        mix,
        sizes: &sizes,
        stack: &stack,
        root: &root,
        clusters: &clusters,
        pool: &pool,
        zipf: &zipf,
        texts: texts.as_ref(),
        epochs: Mutex::new(vec![Epoch {
            dir: stack.base_dir.clone(),
            shadow: shadow(&stack.base_dir).map_err(|e| format!("shadow index: {e}"))?,
        }]),
        generation: AtomicUsize::new(0),
        shadows: p.trace,
        retired_cache: Mutex::new((0, 0)),
    };
    let mut clients = Vec::with_capacity(CLIENTS);
    for id in 0..CLIENTS {
        let publisher = if mix == Mix::Mixed && id == 0 {
            Some(Publisher {
                builder: ShardedCosineIndex::load_snapshot(&stack.base_dir)
                    .map_err(|e| format!("builder: {e}"))?,
                rng: rng_for(p.seed, 20),
                published: 0,
            })
        } else {
            None
        };
        clients.push(Client {
            id,
            conn: ServeClient::connect(stack.server.addr()).map_err(|e| format!("connect: {e}"))?,
            rng: rng_for(p.seed, 10 + id as u64),
            sent: 0,
            publisher,
        });
    }
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(false, origin)).collect();

    run_phase(
        &shared,
        &mut clients,
        &mut tracers,
        p.warmup_seconds(),
        false,
    );
    let mut report = Report::default();
    let mut measured = if p.trace {
        let untraced = run_phase(
            &shared,
            &mut clients,
            &mut tracers,
            p.traced_window_seconds(),
            false,
        );
        let traced = run_phase(
            &shared,
            &mut clients,
            &mut tracers,
            p.traced_window_seconds(),
            true,
        );
        report.set(
            "trace.overhead_share",
            1.0 - traced.rate() / untraced.rate(),
        );
        traced
    } else {
        run_phase(&shared, &mut clients, &mut tracers, p.seconds, false)
    };
    let peak_rss = peak_rss_mb();
    drop(clients);

    // Counters of the served index itself, from fresh (never cached) batches joined
    // directly on it after the window.
    let served = stack.server.index();
    let BlockingIndex::Sharded(sharded) = &*served else {
        return Err(format!("{}: the served index is not sharded", mix.name()));
    };
    let (mut visited, mut pruned, mut faults) = (0u64, 0u64, 0u64);
    let mut probe_rng = rng_for(p.seed, 30);
    for _ in 0..COUNTER_PROBES {
        sharded.knn_join_report(
            &clusters.topical_batch(&mut probe_rng, sizes.batch),
            sizes.k,
        );
        let counters = sharded.routing_report();
        visited += counters.shards_visited;
        pruned += counters.shards_pruned;
        faults += counters.spill_faults;
    }
    let pruned_share = pruned as f64 / (visited + pruned).max(1) as f64;

    let attempted: Vec<u64> = (0..3).map(|op| measured.sum(|o| o.attempted[op])).collect();
    let mut failed: Vec<u64> = (0..3).map(|op| measured.sum(|o| o.failed[op])).collect();
    let knn_requests = attempted[Op::Knn as usize].max(1) as f64;
    let lookups = (measured.cache_hits + measured.cache_misses).max(1) as f64;
    let hit_share = measured.cache_hits as f64 / lookups;
    let publishes: Vec<f64> = measured
        .outs
        .iter()
        .flat_map(|o| o.publishes.iter().copied())
        .collect();

    // Workload-property guards.
    if !p.quick {
        match mix {
            Mix::KnnOnly => {
                guard(pruned_share >= 0.25, || {
                    format!("pruned share {pruned_share:.3} is below 0.25")
                })?;
                guard(measured.cache_hits == 0, || {
                    format!("{} cache hits on unique batches", measured.cache_hits)
                })?;
                guard(
                    faults == 0 && measured.stats_delta.spilled_shards == 0,
                    || {
                        format!(
                            "{faults} spill faults, {} spilled shards",
                            measured.stats_delta.spilled_shards
                        )
                    },
                )?;
                guard(measured.rate() >= 200.0, || {
                    format!("only {:.0} requests/s", measured.rate())
                })?;
            }
            Mix::Mixed => {
                guard((0.5..=0.9).contains(&hit_share), || {
                    format!("cache hit share {hit_share:.3} is outside [0.5, 0.9]")
                })?;
                // Three publishes at least in a 10 s window, in proportion in a shorter one.
                guard(
                    publishes.len() as f64 >= (0.3 * measured.wall).floor(),
                    || {
                        format!(
                            "only {} publishes in {:.1} s",
                            publishes.len(),
                            measured.wall
                        )
                    },
                )?;
                let stale = measured
                    .outs
                    .iter()
                    .map(|o| o.stale_cache_entries)
                    .max()
                    .unwrap_or(0);
                guard(stale <= sizes.cache_capacity / 8, || {
                    format!("{stale} cache entries survived a publish")
                })?;
            }
        }
    }

    // Answers, outside the window.
    let samples: Vec<Sample> = measured
        .outs
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.samples))
        .collect();
    let wrong = verify(&shared, &samples, corpus).map_err(|e| format!("verification: {e}"))?;
    for (f, w) in failed.iter_mut().zip(wrong) {
        *f += w;
    }
    failed[Op::Knn as usize] += measured.stats_delta.degraded_joins.min(1);
    for op in 0..3 {
        if attempted[op] > 0 {
            let latencies = measured.latencies(op);
            report.notes.push(format!(
                "{}: attempted {}, succeeded {}, failed {}, median round trip {:.4} ms",
                OP_NAMES[op],
                attempted[op],
                attempted[op] - failed[op].min(attempted[op]),
                failed[op],
                if latencies.is_empty() {
                    f64::NAN
                } else {
                    median(&latencies) * 1e3
                }
            ));
        }
    }
    report.notes.push(format!(
        "{} replies checked; window {:.3} s; cache hits {} misses {}; coalesced joins {}; busy {}; \
         publishes {:?} s; served-index probes: visited {visited} pruned {pruned} faults {faults}",
        samples.len(),
        measured.wall,
        measured.cache_hits,
        measured.cache_misses,
        measured.stats_delta.batched_joins,
        measured.stats_delta.busy_rejections,
        publishes
    ));
    report.notes.push(format!(
        "set-ups (build, save, load, warm, model, spawn) s: {:?}",
        setups
            .iter()
            .map(|t| [t.build, t.save, t.load, t.warm, t.model, t.spawn])
            .collect::<Vec<_>>()
    ));

    report.set_outcome(attempted.iter().sum(), failed.iter().sum());
    report.set("ops_per_s", measured.rate());
    let latencies: Vec<f64> = (0..3).flat_map(|op| measured.latencies(op)).collect();
    guard(!latencies.is_empty(), || "no request succeeded".into())?;
    report.set_latency_ms(&latencies);
    report.set("peak_rss_mb", peak_rss);
    report.set("setup_s", setup_median(SetupTimes::total));
    report.set(
        "index.build_rows_per_s",
        sizes.rows as f64 / setup_median(|t| t.build),
    );
    report.set("index.snapshot_save_s", setup_median(|t| t.save));
    report.set("index.snapshot_load_s", setup_median(|t| t.load));
    report.set("index.pruned_share", pruned_share);
    report.set(
        "index.faults_per_visit",
        faults as f64 / visited.max(1) as f64,
    );
    report.set(
        "index.resident_mb",
        sharded.resident_bytes() as f64 / (1 << 20) as f64,
    );
    report.set("index.cache_hit_share", hit_share);
    report.set("index.publishes", publishes.len() as f64);
    if !publishes.is_empty() {
        report.set("index.publish_s", median(&publishes));
    }
    report.set(
        "serve.knn_share",
        knn_requests / report.attempted.max(1) as f64,
    );
    report.set(
        "serve.coalesced_share",
        measured.stats_delta.batched_joins as f64 / knn_requests,
    );
    report.set(
        "serve.busy_share",
        measured.stats_delta.busy_rejections as f64 / knn_requests,
    );

    if p.trace {
        shadow_metrics(&mut report, &measured, sharded.len(), hit_share);
        let threads: Vec<Vec<Span>> = tracers.into_iter().map(Tracer::into_spans).collect();
        finish_trace(&mut report, p, mix.name(), threads, false)?;
    }
    drop(served);
    drop(shared);
    drop(stack);
    probes::run(&mut report);
    Ok(report)
}

/// Per-layer numbers from the sampled requests of the traced window: what a request
/// costs over the wire next to the same work called directly.
fn shadow_metrics(report: &mut Report, traced: &Phase, live_rows: usize, hit_share: f64) {
    let sampled: Vec<&Shadowed> = traced.outs.iter().flat_map(|o| o.shadowed.iter()).collect();
    if sampled.is_empty() {
        return;
    }
    let mean = |f: &dyn Fn(&Shadowed) -> f64| {
        sampled.iter().map(|s| f(s)).sum::<f64>() / sampled.len() as f64
    };
    let med =
        |f: &dyn Fn(&Shadowed) -> f64| median(&sampled.iter().map(|s| f(s)).collect::<Vec<f64>>());
    // A KNN request that hits the cache runs no join, and from outside a hit cannot be
    // told from a miss per request; so the join a KNN request is *expected* to cost is
    // its shadow join weighted by the window's miss share.
    let expected_join = |s: &Shadowed| {
        if s.op == Op::Knn {
            s.direct * (1.0 - hit_share)
        } else {
            0.0
        }
    };
    let expected_direct = |s: &Shadowed| {
        if s.op == Op::Knn {
            expected_join(s)
        } else {
            s.direct
        }
    };
    report.set("serve.protocol_us", med(&|s| s.protocol) * 1e6);
    report.set("serve.frame_bytes", med(&|s| s.frame_bytes as f64));
    report.set("serve.round_trip_ms", med(&|s| s.round_trip) * 1e3);
    report.set("serve.direct_ms", med(&|s| s.direct) * 1e3);
    report.set(
        "serve.direct_share",
        mean(&expected_join) / mean(&|s| s.round_trip),
    );
    report.set(
        "serve.overhead_ms",
        (mean(&|s| s.round_trip) - mean(&|s| s.protocol) - mean(&expected_direct)) * 1e3,
    );
    // Items (queries, texts, pairs) per second of direct call, per opcode.
    let direct_rate = |op: Op| {
        let calls = sampled.iter().filter(|s| s.op == op);
        let (items, busy) = calls.fold((0usize, 0.0f64), |(i, b), s| (i + s.items, b + s.direct));
        (busy > 0.0).then(|| (items as f64 / busy, busy))
    };
    if let Some((queries_per_s, busy)) = direct_rate(Op::Knn) {
        report.set("index.join_busy_s", busy);
        report.set("index.scored_pairs_per_s", queries_per_s * live_rows as f64);
    }
    if let Some((texts_per_s, _)) = direct_rate(Op::Embed) {
        report.set("core.embed_records_per_s", texts_per_s);
    }
    if let Some((pairs_per_s, _)) = direct_rate(Op::Match) {
        report.set("core.predict_pairs_per_s", pairs_per_s);
    }
    report.notes.push(format!(
        "{} sampled requests: mean round trip {:.4} ms, protocol {:.4} ms, expected direct {:.4} ms",
        sampled.len(),
        mean(&|s| s.round_trip) * 1e3,
        mean(&|s| s.protocol) * 1e3,
        mean(&expected_direct) * 1e3
    ));
}
