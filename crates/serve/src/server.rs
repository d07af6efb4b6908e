//! The concurrent query server: a fixed pool of readiness-polled I/O workers plus
//! one batching join worker.
//!
//! ## Threading model
//!
//! * A fixed pool of **I/O workers** ([`ServerConfig::worker_threads`]; default one
//!   per core, capped at 4) multiplexes every connection over non-blocking sockets
//!   with `poll(2)` (the [`crate::reactor`] wrapper). Worker 0 also owns the
//!   `TcpListener` and deals accepted connections round-robin across the pool. An
//!   idle connection is a parked descriptor: it costs **zero wakeups** and no
//!   thread, so connection count no longer bounds thread count. (The previous model
//!   spent one thread per connection, each waking ten times a second to poll the
//!   stop flag — a core's worth of timer churn well before 10k idle sockets.)
//! * Each worker runs the byte work — framing, decoding, encoding — as a
//!   per-connection state machine and hands every decoded `KNN`, `EMBED` and
//!   `MATCH` request to the shared **batcher** instead of calling the
//!   index or the model directly; the connection parks (its read side goes quiet)
//!   until the reply comes back through the worker's inbox.
//! * One **join worker** drains the batcher's one FIFO queue. A join at the front
//!   takes every queued join that shares its `k` along with it, and the
//!   group goes to the index as **one** [`BlockingIndex::knn_join_batches`] call:
//!   one GEMM pass over each visited shard instead of one per request, then split
//!   back per request. Under light load the group holds a single request and the
//!   call degenerates to a plain join.
//!
//! The index owns the query cache and is its only reader and writer: it looks each
//! request's batch up on its own, joins only the misses, and caches each computed
//! batch under its own key. `PING` and `STATS` answer inline on the I/O worker; every
//! other request pays the batcher hop and shares its admission bound and deadline.
//!
//! ## Model requests (`EMBED` / `MATCH`)
//!
//! A server spawned with [`Server::spawn_with_model`] also owns a trained
//! [`ModelBackend`] and answers `EMBED` and `MATCH` frames. Model requests run on
//! the join worker too (encoder inference is the same scarce compute as a join),
//! in the same queue as the joins, but they are **never coalesced and never
//! cached**:
//!
//! * No coalescing — served answers must be bit-identical to calling the model
//!   in-process on the same batch, and the model chunks each batch internally
//!   (`embed_all` by 64 texts, `predict_scores` by 32 pairs). Concatenating two
//!   clients' batches would move those chunk boundaries and change low-order bits.
//!   Each request keeps its own batch; clients amortize by batching client-side,
//!   exactly like `KNN`.
//! * No caching — the query cache fingerprints `f32` query batches for the
//!   *index*; model outputs would alias nothing and stale nothing. The model is
//!   immutable for the server's lifetime, so callers can cache client-side freely.
//!
//! A server without a model answers both opcodes with a typed error (the
//! connection stays usable). A `MATCH` batch whose sides differ in length is
//! protocol-legal but semantically broken — it is rejected with a typed error at
//! dispatch, before it can reach the model.
//!
//! ## Live index republish
//!
//! [`Server::publish_index`] atomically replaces the served index — the
//! streaming-dedup path: a writer process `add_batch`es new records onto a loaded
//! base snapshot, saves a delta snapshot, and the serving process cold-loads the
//! delta and publishes it. In-flight requests finish against whichever index they
//! started with (each join loads the current `Arc` once); later requests see the
//! new epoch. The query cache travels *inside* the index value, so a publish can
//! never serve pre-delta cache entries: the new index arrives with its own cache,
//! and the old one is dropped with the old index.
//!
//! ## Writes and slow clients
//!
//! Responses queue on the connection's outbox and drain as `POLLOUT` readiness
//! allows. A slow-but-alive client draining a large frame is fine: the write-stall
//! budget ([`ServerConfig::write_stall_timeout`]) resets on every partial write,
//! so only a **total** stall — bytes pending and no progress for the whole budget
//! — closes the connection. (The previous model reused the 100 ms read-poll as the
//! write timeout, so a client legitimately taking its time over a near-64 MiB
//! frame kept eating timeouts that only total stall should cause.)
//!
//! ## Survival under faults and overload
//!
//! The server is built to keep answering when things go wrong, never to hang or
//! silently drop a connection:
//!
//! * **Bounded admission** ([`ServerConfig::admission_queue_depth`]): when the
//!   batcher's queue is full, new requests are answered immediately with a `BUSY`
//!   frame instead of queueing without bound (load shedding). The connection stays
//!   usable; clients retry after backoff.
//! * **Per-request deadlines** ([`ServerConfig::request_deadline`]): a request whose
//!   deadline passes while it waits in the queue is answered `BUSY` without running —
//!   under overload the server spends its joins on requests whose clients are still
//!   listening.
//! * **Degraded joins**: when the index quarantines unreadable shards, the response
//!   carries the degraded status byte so clients know coverage is incomplete — exact
//!   pairs, explicitly flagged, never silently wrong.
//! * **Panic containment**: the join and the request dispatch run under
//!   `catch_unwind`; a handler failure answers an error frame on the same
//!   connection instead of killing a worker (which would drop every connection that
//!   worker multiplexes).
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the join worker first — already-queued requests are
//! still served and their replies delivered — then stops the I/O workers through
//! their [`crate::reactor::Waker`]s, flushes whatever the sockets will take, and
//! joins every thread. No connect-to-own-address tricks: the old accept thread was
//! woken by dialing the listen address, which can never reach a wildcard bind like
//! `0.0.0.0:port` without routing help, wedging shutdown; wakers work for any bind
//! address.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sudowoodo_faults as faults;
use sudowoodo_index::BlockingIndex;

use crate::model::ModelBackend;
use crate::protocol::{Request, Response, ServerStats, MAX_FRAME_LEN};
use crate::reactor::{poll_fds, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// Above this, a drained outbox gives its buffer back to the allocator instead of
/// keeping a response-sized allocation pinned per idle connection.
const OUTBOX_KEEP: usize = 256 * 1024;

/// Server-side robustness knobs — see the module docs ("Survival under faults and
/// overload") for the behavior each one buys.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Most requests (joins and model tasks) allowed to wait in the admission queue
    /// at once; requests
    /// beyond it are answered `BUSY` immediately (load shedding). `0` sheds every
    /// request — useful only for tests.
    pub admission_queue_depth: usize,
    /// A request older than this when the join worker reaches it is answered `BUSY`
    /// without running. `None` (the default) disables deadlines.
    pub request_deadline: Option<Duration>,
    /// How many I/O worker threads multiplex the connections. `0` (the default)
    /// sizes the pool automatically: one per available core, capped at 4 — the
    /// byte work is cheap, so a few workers saturate well before the join does.
    pub worker_threads: usize,
    /// A connection with response bytes pending that makes **no** write progress
    /// for this long is dropped. Partial writes reset the budget, so a slow reader
    /// draining a large frame is never punished — only a total stall is.
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission_queue_depth: 256,
            request_deadline: None,
            worker_threads: 0,
            write_stall_timeout: Duration::from_secs(30),
        }
    }
}

/// The served index behind a swap lock: readers clone the current `Arc` (held for
/// the duration of one join, never across a wait), and [`Server::publish_index`]
/// replaces it. The query cache lives inside the index value, so a swap retires
/// the old cache with the old epoch — stale pre-delta entries are unreachable by
/// construction.
struct ServedIndex(RwLock<Arc<BlockingIndex>>);

impl ServedIndex {
    fn current(&self) -> Arc<BlockingIndex> {
        Arc::clone(&self.0.read().unwrap())
    }

    fn publish(&self, next: Arc<BlockingIndex>) {
        *self.0.write().unwrap() = next;
    }
}

/// Where a response goes when the join worker finishes: back to the owning I/O
/// worker's inbox, keyed by connection token, with a waker kick.
struct ReplyHandle {
    worker: Arc<WorkerShared>,
    token: ConnToken,
}

impl ReplyHandle {
    /// Encodes `response`, queues it on the owning worker's inbox and wakes it. If
    /// the connection died meanwhile, the worker drops the response by token
    /// mismatch — delivery is always safe, never blocking.
    fn send(&self, response: &Response) {
        self.worker
            .inbox
            .lock()
            .unwrap()
            .completed
            .push((self.token, response.encode()));
        self.worker.waker.wake();
    }
}

/// A decoded `KNN` request.
struct JoinJob {
    queries: Vec<Vec<f32>>,
    k: usize,
}

impl JoinJob {
    /// `true` when both jobs can be answered by one index call.
    fn joins_with(&self, other: &JoinJob) -> bool {
        self.k == other.k
    }
}

/// The model half of a queued `EMBED`/`MATCH` request.
enum ModelTask {
    /// Encode these texts ([`ModelBackend::embed`]).
    Embed(Vec<String>),
    /// Score these aligned pairs ([`ModelBackend::match_scores`]); dispatch
    /// guarantees the sides are the same length.
    Match {
        lefts: Vec<String>,
        rights: Vec<String>,
    },
}

/// What a queued request asks of the join worker.
enum Job {
    Join(JoinJob),
    Model(ModelTask),
}

/// When a queued request was admitted, and where its response goes.
struct Ticket {
    enqueued_at: Instant,
    reply: ReplyHandle,
}

/// The outcome of offering a request to the admission queue.
enum Admission {
    /// Queued; a response will arrive through the reply handle.
    Queued,
    /// The queue is full; the caller answers `BUSY` itself.
    Busy,
    /// The worker already exited (shutdown); the caller answers an error itself.
    Stopped,
}

/// What the join worker picked up next.
enum Work {
    /// Joins sharing `k`, in queue order: one index call.
    Joins(Vec<(JoinJob, Ticket)>),
    /// One model task (never grouped — coalescing would move the model's internal
    /// chunk boundaries and break bit-identity with in-process inference).
    Model(ModelTask, Ticket),
    /// Stop requested and the queue is drained.
    Shutdown,
}

/// The queue state behind the batcher's mutex. `stopped` lives under the same lock as
/// the queue so a push can never race the worker's exit: the worker marks `stopped`
/// while holding the lock, so every later push observes it and is rejected — a
/// request can never be enqueued with nobody left to answer it (which would leave its
/// connection parked forever waiting for a reply).
#[derive(Default)]
struct BatchQueue {
    queue: VecDeque<(Job, Ticket)>,
    stopped: bool,
}

/// The shared request queue between I/O workers and the join worker.
struct Batcher {
    state: Mutex<BatchQueue>,
    ready: Condvar,
    depth: usize,
}

impl Batcher {
    fn new(depth: usize) -> Batcher {
        Batcher {
            state: Mutex::default(),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Offers a request to the admission queue. [`Admission::Busy`] when the queue is
    /// at depth (load shed); [`Admission::Stopped`] when the worker has already
    /// exited (server shutting down) — either way the caller answers the request
    /// itself instead of waiting for a reply that will never come.
    fn push(&self, job: Job, reply: ReplyHandle) -> Admission {
        let mut state = self.state.lock().unwrap();
        if state.stopped {
            return Admission::Stopped;
        }
        if state.queue.len() >= self.depth {
            return Admission::Busy;
        }
        let ticket = Ticket {
            enqueued_at: Instant::now(),
            reply,
        };
        state.queue.push_back((job, ticket));
        self.ready.notify_one();
        Admission::Queued
    }

    /// Blocks until work is queued (or `stop` is set) and takes the front request.
    /// A join takes every queued join it [`JoinJob::joins_with`] along; everything
    /// else keeps its order for the next round. Already-queued work is always served
    /// before the stop flag is honoured; [`Work::Shutdown`] marks the queue
    /// `stopped` under the lock (see [`BatchQueue`]).
    fn next_work(&self, stop: &AtomicBool) -> Work {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some((job, ticket)) = state.queue.pop_front() {
                let work = match job {
                    Job::Model(task) => Work::Model(task, ticket),
                    Job::Join(first) => {
                        let mut group = vec![(first, ticket)];
                        let mut rest = VecDeque::new();
                        for (job, ticket) in state.queue.drain(..) {
                            match job {
                                Job::Join(join) if join.joins_with(&group[0].0) => {
                                    group.push((join, ticket))
                                }
                                job => rest.push_back((job, ticket)),
                            }
                        }
                        state.queue = rest;
                        Work::Joins(group)
                    }
                };
                if !state.queue.is_empty() {
                    // More work behind this one: keep the worker awake.
                    self.ready.notify_one();
                }
                return work;
            }
            if stop.load(Ordering::Relaxed) {
                state.stopped = true;
                return Work::Shutdown;
            }
            state = self.ready.wait(state).unwrap();
        }
    }
}

/// Request counters shared across threads (surfaced through `STATS`).
#[derive(Default)]
struct Counters {
    served_requests: AtomicU64,
    batched_joins: AtomicU64,
    busy_rejections: AtomicU64,
    deadline_expirations: AtomicU64,
    degraded_joins: AtomicU64,
}

/// Identifies a connection slot on one worker across its lifetime: the generation
/// guards against slot reuse, so a reply addressed to a connection that died (and
/// whose slot now holds a newcomer) is dropped instead of delivered to a stranger.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ConnToken {
    slot: usize,
    gen: u64,
}

/// Cross-thread mailbox of one I/O worker: connections dealt to it by the
/// acceptor, and finished responses from the join worker. Both arrive with a
/// waker kick so the worker's `poll` returns.
#[derive(Default)]
struct WorkerInbox {
    adopted: Vec<TcpStream>,
    completed: Vec<(ConnToken, Vec<u8>)>,
}

/// The shared half of one I/O worker (the waker any thread may kick, plus the
/// inbox behind a mutex).
struct WorkerShared {
    waker: Waker,
    inbox: Mutex<WorkerInbox>,
}

/// Everything one I/O worker thread needs. Only worker 0 holds the listener and
/// the peer ring it deals new connections across.
struct WorkerCtx {
    shared: Arc<WorkerShared>,
    peers: Vec<Arc<WorkerShared>>,
    listener: Option<TcpListener>,
    index: Arc<ServedIndex>,
    model: Option<Arc<dyn ModelBackend>>,
    counters: Arc<Counters>,
    batcher: Arc<Batcher>,
    reactor_stop: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Read-side state of one connection's frame parser.
enum ReadState {
    /// Accumulating the 4-byte length prefix.
    Len { buf: [u8; 4], filled: usize },
    /// Accumulating the payload (`buf.len()` is the frame length).
    Payload { buf: Vec<u8>, filled: usize },
}

impl ReadState {
    fn start() -> ReadState {
        ReadState::Len {
            buf: [0u8; 4],
            filled: 0,
        }
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    gen: u64,
    read: ReadState,
    /// Encoded response bytes not yet accepted by the socket (`sent..` is pending).
    outbox: Vec<u8>,
    sent: usize,
    /// A request is at the join worker; reads pause until the
    /// reply lands (the wire protocol is strictly request/reply per connection).
    awaiting: bool,
    /// Close once the outbox drains (set after an unrecoverable protocol error).
    closing: bool,
    /// Last instant the socket accepted bytes (or the outbox became non-empty);
    /// drives the progress-based write-stall kill.
    last_progress: Instant,
}

/// What a poll registration entry maps back to.
enum Target {
    Waker,
    Listener,
    Conn(usize),
}

/// What dispatch decided for one request frame.
enum Action {
    /// Answer immediately with this response payload.
    Respond(Vec<u8>),
    /// The request went to the join worker; the reply arrives via the inbox.
    AwaitReply,
}

/// A running query server. Dropping the handle shuts the server down.
///
/// Spawn with [`Server::spawn`]; see the crate docs for a full example.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor_stop: Arc<AtomicBool>,
    index: Arc<ServedIndex>,
    counters: Arc<Counters>,
    batcher: Arc<Batcher>,
    workers: Vec<Arc<WorkerShared>>,
    worker_threads: Vec<JoinHandle<()>>,
    join_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick one — tests and benches do) and
    /// starts serving `index` in background threads with the default
    /// [`ServerConfig`]. The index is shared immutably; build it (or
    /// [`BlockingIndex::load_snapshot`] it) first, then serve.
    pub fn spawn(index: Arc<BlockingIndex>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Self::spawn_with_config(index, addr, ServerConfig::default())
    }

    /// [`Server::spawn`] with explicit robustness knobs (admission queue depth,
    /// per-request deadline, worker pool size, write-stall budget).
    pub fn spawn_with_config(
        index: Arc<BlockingIndex>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Self::spawn_inner(index, None, addr, config)
    }

    /// [`Server::spawn_with_config`] plus a trained [`ModelBackend`], enabling the
    /// `EMBED` and `MATCH` request paths (a server spawned without one answers
    /// those opcodes with a typed error). Load the model the same way as the
    /// index: train once, snapshot, and have every serving process cold-load the
    /// same artifact so served answers are bit-identical across replicas.
    pub fn spawn_with_model(
        index: Arc<BlockingIndex>,
        model: Arc<dyn ModelBackend>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Self::spawn_inner(index, Some(model), addr, config)
    }

    fn spawn_inner(
        index: Arc<BlockingIndex>,
        model: Option<Arc<dyn ModelBackend>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor_stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let batcher = Arc::new(Batcher::new(config.admission_queue_depth));
        let index = Arc::new(ServedIndex(RwLock::new(index)));

        let pool = if config.worker_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 4)
        } else {
            config.worker_threads
        };
        let mut workers = Vec::with_capacity(pool);
        for _ in 0..pool {
            workers.push(Arc::new(WorkerShared {
                waker: Waker::new()?,
                inbox: Mutex::default(),
            }));
        }

        let join_thread = {
            let (index, model, stop, counters, batcher) = (
                Arc::clone(&index),
                model.clone(),
                Arc::clone(&stop),
                Arc::clone(&counters),
                Arc::clone(&batcher),
            );
            std::thread::spawn(move || {
                join_worker(&index, model.as_ref(), &stop, &counters, &batcher, config)
            })
        };

        let mut listener = Some(listener);
        let mut worker_threads = Vec::with_capacity(pool);
        for (i, shared) in workers.iter().enumerate() {
            let ctx = WorkerCtx {
                shared: Arc::clone(shared),
                peers: if i == 0 { workers.clone() } else { Vec::new() },
                listener: if i == 0 { listener.take() } else { None },
                index: Arc::clone(&index),
                model: model.clone(),
                counters: Arc::clone(&counters),
                batcher: Arc::clone(&batcher),
                reactor_stop: Arc::clone(&reactor_stop),
                config,
            };
            worker_threads.push(std::thread::spawn(move || worker_loop(ctx)));
        }

        Ok(Server {
            addr,
            stop,
            reactor_stop,
            index,
            counters,
            batcher,
            workers,
            worker_threads,
            join_thread: Some(join_thread),
        })
    }

    /// The address the server is listening on (the resolved port when bound to 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served index (shared; useful for warming or inspecting counters).
    /// Returns the *currently published* index — after a
    /// [`Server::publish_index`] this is the new epoch.
    pub fn index(&self) -> Arc<BlockingIndex> {
        self.index.current()
    }

    /// Atomically replaces the served index — the streaming-dedup publish step:
    /// load the delta snapshot cold in this process, then publish it here. Later
    /// requests (including cache lookups) run against the new epoch; requests
    /// already executing finish against the epoch they started with. The query
    /// cache is part of the index value, so the old epoch's entries can never
    /// leak into the new one.
    ///
    /// The new index must have the same dimensionality as the one it replaces; the
    /// server does not re-handshake connected clients.
    pub fn publish_index(&self, next: Arc<BlockingIndex>) {
        self.index.publish(next);
    }

    /// A point-in-time statistics snapshot — the same numbers a `STATS` request
    /// returns over the wire.
    pub fn stats(&self) -> ServerStats {
        build_stats(&self.index.current(), &self.counters)
    }

    /// Stops accepting, wakes every thread, and joins them. Called by `Drop` too;
    /// calling it explicitly just makes the join point visible in the caller.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Stage 1: stop the join worker. It serves everything already queued —
        // delivering those replies to the (still running) I/O workers — then marks
        // the queue stopped and exits.
        self.stop.store(true, Ordering::Relaxed);
        self.batcher.ready.notify_all();
        if let Some(t) = self.join_thread.take() {
            let _ = t.join();
        }
        // Stage 2: stop the I/O workers. Every reply is already in an inbox, so
        // the final pass can flush best-effort and close. Wakers reach a worker on
        // any bind address — no connect-to-own-address trick (which a `0.0.0.0`
        // bind would wedge on).
        self.reactor_stop.store(true, Ordering::Relaxed);
        for worker in &self.workers {
            worker.waker.wake();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn build_stats(index: &BlockingIndex, counters: &Counters) -> ServerStats {
    let (num_shards, spilled, cache_hits, cache_misses) = match index {
        BlockingIndex::Dense(_) => (1, 0, 0, 0),
        BlockingIndex::Sharded(sharded) => {
            let report = sharded.routing_report();
            (
                sharded.num_shards() as u64,
                sharded.num_spilled_shards() as u64,
                report.cache_hits,
                report.cache_misses,
            )
        }
    };
    ServerStats {
        len: index.len() as u64,
        dim: index.dim() as u64,
        num_shards,
        spilled_shards: spilled,
        served_requests: counters.served_requests.load(Ordering::Relaxed),
        batched_joins: counters.batched_joins.load(Ordering::Relaxed),
        cache_hits,
        cache_misses,
        busy_rejections: counters.busy_rejections.load(Ordering::Relaxed),
        deadline_expirations: counters.deadline_expirations.load(Ordering::Relaxed),
        degraded_joins: counters.degraded_joins.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// I/O workers
// ---------------------------------------------------------------------------

/// One I/O worker: poll every owned socket, accept (worker 0), read and dispatch
/// frames, flush outboxes, deliver join replies, and enforce write-stall kills.
fn worker_loop(ctx: WorkerCtx) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut next_peer: usize = 0;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut targets: Vec<Target> = Vec::new();

    loop {
        if ctx.reactor_stop.load(Ordering::Relaxed) {
            shutdown_flush(&ctx, &mut conns);
            return;
        }

        fds.clear();
        targets.clear();
        fds.push(PollFd::new(ctx.shared.waker.read_fd(), POLLIN));
        targets.push(Target::Waker);
        if let Some(listener) = &ctx.listener {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            targets.push(Target::Listener);
        }
        let mut timeout: Option<Duration> = None;
        for (slot, entry) in conns.iter().enumerate() {
            let Some(conn) = entry else { continue };
            let mut events = 0i16;
            if !conn.awaiting && !conn.closing {
                events |= POLLIN;
            }
            if conn.sent < conn.outbox.len() {
                events |= POLLOUT;
                // Wake in time to enforce the stall budget even if the socket
                // never becomes writable.
                let left = ctx
                    .config
                    .write_stall_timeout
                    .saturating_sub(conn.last_progress.elapsed());
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
            // events == 0 still reports POLLERR/POLLHUP/POLLNVAL: a parked
            // connection (awaiting a join reply) costs no read wakeups but a dead
            // peer is still noticed.
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            targets.push(Target::Conn(slot));
        }
        if poll_fds(&mut fds, timeout).is_err() {
            // We own every registered fd, so this is unexpected; back off rather
            // than spin on a persistent error.
            std::thread::sleep(Duration::from_millis(5));
        }

        for (i, target) in targets.iter().enumerate() {
            let revents = fds[i].revents;
            if revents == 0 {
                continue;
            }
            match target {
                Target::Waker => ctx.shared.waker.drain(),
                Target::Listener => {
                    accept_ready(&ctx, &mut conns, &mut free, &mut next_gen, &mut next_peer)
                }
                Target::Conn(slot) => {
                    conn_events(&ctx, &mut conns, &mut free, *slot, revents);
                }
            }
        }

        // Drain the inbox every pass, not only on a waker event: a wake landing
        // between poll and drain is then handled now instead of next pass.
        let (adopted, completed) = {
            let mut inbox = ctx.shared.inbox.lock().unwrap();
            (
                std::mem::take(&mut inbox.adopted),
                std::mem::take(&mut inbox.completed),
            )
        };
        for stream in adopted {
            register_conn(&mut conns, &mut free, &mut next_gen, stream);
        }
        for (token, response) in completed {
            deliver(&mut conns, &mut free, token, response);
        }

        // Progress-based write-stall enforcement: only a connection with bytes
        // pending AND zero progress for the whole budget is dropped.
        for slot in 0..conns.len() {
            let stalled = match &conns[slot] {
                Some(conn) => {
                    conn.sent < conn.outbox.len()
                        && conn.last_progress.elapsed() >= ctx.config.write_stall_timeout
                }
                None => false,
            };
            if stalled {
                close_conn(&mut conns, &mut free, slot);
            }
        }
    }
}

/// Accepts every pending connection (worker 0 only) and deals them round-robin
/// across the pool, including itself.
fn accept_ready(
    ctx: &WorkerCtx,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    next_peer: &mut usize,
) {
    let Some(listener) = &ctx.listener else {
        return;
    };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let target = *next_peer % ctx.peers.len();
                *next_peer = (*next_peer + 1) % ctx.peers.len();
                if Arc::ptr_eq(&ctx.peers[target], &ctx.shared) {
                    register_conn(conns, free, next_gen, stream);
                } else {
                    let peer = &ctx.peers[target];
                    peer.inbox.lock().unwrap().adopted.push(stream);
                    peer.waker.wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (fd exhaustion, aborted handshake): leave
            // the backlog for the next readiness report instead of spinning.
            Err(_) => return,
        }
    }
}

/// Adopts a connection into a slot (reusing a freed one when available).
fn register_conn(
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        return; // the socket is already unusable; drop it
    }
    stream.set_nodelay(true).ok(); // latency over throughput for small frames
    *next_gen += 1;
    let conn = Conn {
        stream,
        gen: *next_gen,
        read: ReadState::start(),
        outbox: Vec::new(),
        sent: 0,
        awaiting: false,
        closing: false,
        last_progress: Instant::now(),
    };
    match free.pop() {
        Some(slot) => conns[slot] = Some(conn),
        None => conns.push(Some(conn)),
    }
}

fn close_conn(conns: &mut [Option<Conn>], free: &mut Vec<usize>, slot: usize) {
    if conns[slot].take().is_some() {
        free.push(slot);
    }
}

/// Routes one connection's poll results: errors close, readable data feeds the
/// frame parser, writable space drains the outbox.
fn conn_events(
    ctx: &WorkerCtx,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    revents: i16,
) {
    let mut close = false;
    {
        let Some(conn) = conns[slot].as_mut() else {
            return;
        };
        if revents & (POLLERR | POLLNVAL) != 0 {
            close = true;
        } else if revents & POLLIN != 0 {
            let token = ConnToken {
                slot,
                gen: conn.gen,
            };
            close = !conn_read(ctx, conn, token);
        } else if revents & POLLHUP != 0 {
            // Hangup with nothing left to read (the POLLIN case above drains
            // buffered bytes first and sees EOF itself).
            close = true;
        }
        if !close {
            close = !conn_flush(conn);
            if !close && conn.closing && conn.sent == conn.outbox.len() {
                close = true;
            }
        }
    }
    if close {
        close_conn(conns, free, slot);
    }
}

/// Delivers a finished response from the join worker to its connection. A stale
/// token (connection died, slot possibly reused) drops the response.
fn deliver(conns: &mut [Option<Conn>], free: &mut Vec<usize>, token: ConnToken, response: Vec<u8>) {
    let close = {
        let Some(conn) = conns.get_mut(token.slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.gen != token.gen {
            return;
        }
        conn.awaiting = false;
        enqueue_response(conn, &response);
        !conn_flush(conn)
    };
    if close {
        close_conn(conns, free, token.slot);
    }
}

/// Feeds readable bytes through the frame parser, dispatching every completed
/// frame, until the socket would block (or the connection must pause/close).
/// Returns `false` when the connection should be closed.
fn conn_read(ctx: &WorkerCtx, conn: &mut Conn, token: ConnToken) -> bool {
    loop {
        // A complete frame? (Covers zero-length payloads, which need no read.)
        let complete = match &mut conn.read {
            ReadState::Payload { buf, filled } if *filled == buf.len() => Some(std::mem::take(buf)),
            _ => None,
        };
        if let Some(payload) = complete {
            conn.read = ReadState::start();
            ctx.counters.served_requests.fetch_add(1, Ordering::Relaxed);
            let reply = ReplyHandle {
                worker: Arc::clone(&ctx.shared),
                token,
            };
            // A panic anywhere in decode/dispatch answers an error frame on the
            // same connection instead of unwinding the worker (which would drop
            // every connection it multiplexes).
            let action = catch_unwind(AssertUnwindSafe(|| {
                dispatch(
                    &payload,
                    &ctx.index.current(),
                    ctx.model.as_ref(),
                    &ctx.counters,
                    &ctx.batcher,
                    reply,
                )
            }))
            .unwrap_or_else(|_| {
                Action::Respond(
                    Response::Error("internal error: request handler panicked".into()).encode(),
                )
            });
            match action {
                Action::Respond(response) => enqueue_response(conn, &response),
                Action::AwaitReply => {
                    conn.awaiting = true;
                    return true;
                }
            }
            if conn.closing {
                return true;
            }
            continue;
        }

        let result = match &mut conn.read {
            ReadState::Len { buf, filled } => (&conn.stream)
                .read(&mut buf[*filled..])
                .inspect(|n| *filled += n),
            ReadState::Payload { buf, filled } => (&conn.stream)
                .read(&mut buf[*filled..])
                .inspect(|n| *filled += n),
        };
        match result {
            // EOF: a clean disconnect between frames or a torn frame — close
            // either way (no response is owed mid-frame).
            Ok(0) => return false,
            Ok(_) => {
                let frame_len = match &conn.read {
                    ReadState::Len { buf, filled: 4 } => Some(u32::from_le_bytes(*buf)),
                    _ => None,
                };
                if let Some(len) = frame_len {
                    if len > MAX_FRAME_LEN {
                        // The stream is unrecoverable (we cannot skip what we will
                        // not buffer): answer, flush, and close.
                        let msg =
                            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit");
                        enqueue_response(conn, &Response::Error(msg).encode());
                        conn.closing = true;
                        return true;
                    }
                    conn.read = ReadState::Payload {
                        buf: vec![0u8; len as usize],
                        filled: 0,
                    };
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Appends one response frame (length prefix + payload) to the outbox.
fn enqueue_response(conn: &mut Conn, payload: &[u8]) {
    // Chaos hook: `serve.write.stall` simulates a slow/stuck write path by
    // delaying response delivery 25 ms — enough to exercise latency and
    // interleaving without tearing any frame or tripping the stall budget.
    if faults::fires("serve.write.stall") {
        std::thread::sleep(Duration::from_millis(25));
    }
    if conn.sent == conn.outbox.len() {
        conn.outbox.clear();
        conn.sent = 0;
        // The outbox just became non-empty: the stall budget starts now.
        conn.last_progress = Instant::now();
    }
    conn.outbox
        .extend_from_slice(&(payload.len() as u32).to_le_bytes());
    conn.outbox.extend_from_slice(payload);
}

/// Writes as much pending outbox as the socket will take. Every accepted byte
/// resets the stall budget (progress-based, not per-attempt). Returns `false`
/// when the connection should be closed.
fn conn_flush(conn: &mut Conn) -> bool {
    while conn.sent < conn.outbox.len() {
        match (&conn.stream).write(&conn.outbox[conn.sent..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.sent += n;
                conn.last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.outbox.capacity() > OUTBOX_KEEP {
        conn.outbox = Vec::new();
    } else {
        conn.outbox.clear();
    }
    conn.sent = 0;
    true
}

/// The final pass after `reactor_stop`: pick up replies that raced shutdown,
/// flush what the sockets will take within a short blocking budget, and drop
/// everything. Sockets with nothing pending (idle connections) cost nothing, so
/// shutdown stays prompt however many are attached.
fn shutdown_flush(ctx: &WorkerCtx, conns: &mut [Option<Conn>]) {
    ctx.shared.waker.drain();
    let (adopted, completed) = {
        let mut inbox = ctx.shared.inbox.lock().unwrap();
        (
            std::mem::take(&mut inbox.adopted),
            std::mem::take(&mut inbox.completed),
        )
    };
    drop(adopted); // accepted but never served: closing them is the shutdown
    for (token, response) in completed {
        if let Some(conn) = conns.get_mut(token.slot).and_then(Option::as_mut) {
            if conn.gen == token.gen {
                conn.awaiting = false;
                enqueue_response(conn, &response);
            }
        }
    }
    for conn in conns.iter_mut().flatten() {
        if conn.sent >= conn.outbox.len() {
            continue;
        }
        // Best-effort blocking flush with a short timeout: deliver replies that
        // raced shutdown without letting a stuck peer hold the join hostage.
        if conn.stream.set_nonblocking(false).is_err()
            || conn
                .stream
                .set_write_timeout(Some(Duration::from_secs(1)))
                .is_err()
        {
            continue;
        }
        let mut sent = conn.sent;
        while sent < conn.outbox.len() {
            match (&conn.stream).write(&conn.outbox[sent..]) {
                Ok(0) => break,
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
}

/// Decodes one request payload and decides how it is answered; all failures
/// become error responses. `KNN` and the model tasks hand off to
/// the join worker (unless rejected up front); everything else answers inline.
///
/// `index` is the epoch current at dispatch time (loaded once per frame); the
/// join worker loads its own epoch when the work actually runs, so preflight
/// checks here are advisory under a concurrent republish — the authoritative
/// geometry checks live in the index itself.
fn dispatch(
    payload: &[u8],
    index: &BlockingIndex,
    model: Option<&Arc<dyn ModelBackend>>,
    counters: &Counters,
    batcher: &Batcher,
    reply: ReplyHandle,
) -> Action {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(e) => return error(e.to_string()),
    };
    let job = match request {
        Request::Knn { queries, k } => JoinJob { queries, k },
        Request::Ping => return Action::Respond(Response::Pong.encode()),
        Request::Stats => {
            return Action::Respond(Response::Stats(build_stats(index, counters)).encode())
        }
        Request::Embed { texts } => {
            let Some(model) = model else {
                return error(
                    "this server has no model loaded: EMBED requires a server \
                     spawned with a model snapshot (Server::spawn_with_model)"
                        .into(),
                );
            };
            // num · dim header (8 bytes) + status byte + num×dim f32 rows: reject
            // batches whose reply could not be framed, before they queue.
            let response_bytes = texts
                .len()
                .saturating_mul(model.dim())
                .saturating_mul(4)
                .saturating_add(9);
            if response_bytes > MAX_FRAME_LEN as usize {
                return error(format!(
                    "response would be {response_bytes} bytes, over the \
                     {MAX_FRAME_LEN}-byte frame limit; send fewer texts per batch"
                ));
            }
            return admit(
                batcher,
                counters,
                Job::Model(ModelTask::Embed(texts)),
                reply,
            );
        }
        Request::MatchPairs { lefts, rights } => {
            if model.is_none() {
                return error(
                    "this server has no model loaded: MATCH requires a server \
                     spawned with a model snapshot (Server::spawn_with_model)"
                        .into(),
                );
            }
            // Wire-legal but semantically broken: the pairs cannot be aligned.
            if lefts.len() != rights.len() {
                return error(format!(
                    "MATCH batch is misaligned: {} left texts vs {} right texts",
                    lefts.len(),
                    rights.len()
                ));
            }
            let task = ModelTask::Match { lefts, rights };
            return admit(batcher, counters, Job::Model(task), reply);
        }
    };
    match check_join(index, job) {
        Ok(job) => admit(batcher, counters, Job::Join(job), reply),
        Err(message) => error(message),
    }
}

fn error(message: String) -> Action {
    Action::Respond(Response::Error(message).encode())
}

/// Rejects a join the served index cannot answer in one frame.
fn check_join(index: &BlockingIndex, job: JoinJob) -> Result<JoinJob, String> {
    let dim = job.queries.first().map_or(0, Vec::len);
    if !job.queries.is_empty() && !index.is_empty() && dim != index.dim() {
        return Err(format!(
            "query dimension {dim} does not match the index dimension {}",
            index.dim()
        ));
    }
    // A protocol-legal request can still imply a response frame over the protocol
    // limit (status byte + pair count + queries x min(k, corpus) pairs); bound it
    // here so the response encoder never produces an unsendable frame.
    let response_bytes = job
        .queries
        .len()
        .saturating_mul(job.k.min(index.len()))
        .saturating_mul(16)
        .saturating_add(5);
    if response_bytes > MAX_FRAME_LEN as usize {
        return Err(format!(
            "response would be {response_bytes} bytes, over the \
             {MAX_FRAME_LEN}-byte frame limit; send fewer queries per \
             batch or a smaller k"
        ));
    }
    Ok(job)
}

/// Offers a request to the admission queue: `BUSY` on shed, an error on shutdown.
fn admit(batcher: &Batcher, counters: &Counters, job: Job, reply: ReplyHandle) -> Action {
    match batcher.push(job, reply) {
        Admission::Queued => Action::AwaitReply,
        Admission::Busy => {
            counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
            Action::Respond(Response::Busy.encode())
        }
        Admission::Stopped => error("server shutting down".into()),
    }
}

// ---------------------------------------------------------------------------
// Join worker
// ---------------------------------------------------------------------------

/// The join worker: take the next unit of work from the queue and answer it.
///
/// Each group of joins loads the currently published index once and runs wholly
/// against it — a concurrent [`Server::publish_index`] affects the next unit, so
/// a coalesced group is never answered half-old-epoch, half-new.
fn join_worker(
    served: &ServedIndex,
    model: Option<&Arc<dyn ModelBackend>>,
    stop: &AtomicBool,
    counters: &Counters,
    batcher: &Batcher,
    config: ServerConfig,
) {
    // A request whose deadline passed while it waited is answered `BUSY`: its client
    // has given up (or will momentarily), so running it spends the server's scarcest
    // resource on nobody. The request never ran, so a retry is always safe.
    let expired = |ticket: &Ticket| {
        let expired = config
            .request_deadline
            .is_some_and(|deadline| ticket.enqueued_at.elapsed() >= deadline);
        if expired {
            counters
                .deadline_expirations
                .fetch_add(1, Ordering::Relaxed);
            ticket.reply.send(&Response::Busy);
        }
        expired
    };
    loop {
        match batcher.next_work(stop) {
            Work::Shutdown => return, // stop requested and the queue is drained
            Work::Model(task, ticket) => {
                if !expired(&ticket) {
                    ticket.reply.send(&serve_task(model, &task));
                }
            }
            Work::Joins(mut group) => {
                group.retain(|(_, ticket)| !expired(ticket));
                if !group.is_empty() {
                    serve_joins(&served.current(), counters, group);
                }
            }
        }
    }
}

/// Answers a group of joins that share `k` with one
/// [`BlockingIndex::knn_join_batches`] call, under panic containment: a panicking
/// join (a poisoned lock, an index bug, an injected fault escaping its retry budget)
/// becomes an error frame for every requester instead of killing the worker thread —
/// which would strand every queued and future request.
fn serve_joins(index: &BlockingIndex, counters: &Counters, group: Vec<(JoinJob, Ticket)>) {
    let k = group[0].0.k;
    if group.len() > 1 {
        counters.batched_joins.fetch_add(1, Ordering::Relaxed);
    }
    let batches: Vec<&[Vec<f32>]> = group
        .iter()
        .map(|(job, _)| job.queries.as_slice())
        .collect();
    match catch_unwind(AssertUnwindSafe(|| index.knn_join_batches(&batches, k))) {
        Ok(outcomes) => {
            if outcomes.iter().any(|outcome| outcome.degraded) {
                counters.degraded_joins.fetch_add(1, Ordering::Relaxed);
            }
            for ((_, ticket), outcome) in group.iter().zip(outcomes) {
                ticket.reply.send(&Response::Knn {
                    pairs: outcome.pairs,
                    degraded: outcome.degraded,
                });
            }
        }
        Err(payload) => {
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let failed = Response::Error(format!("internal error: knn_join panicked: {reason}"));
            for (_, ticket) in &group {
                ticket.reply.send(&failed);
            }
        }
    }
}

/// Runs one model task (never coalesced, never cached — see the module docs).
/// `model` is `None` only if dispatch raced a misconfiguration — it rejects model
/// opcodes up front on model-less servers — so that arm is pure defense.
fn serve_task(model: Option<&Arc<dyn ModelBackend>>, task: &ModelTask) -> Response {
    let Some(model) = model else {
        return Response::Error("this server has no model loaded".into());
    };
    catch_unwind(AssertUnwindSafe(|| match task {
        ModelTask::Embed(texts) => Response::Embeddings(model.embed(texts)),
        ModelTask::Match { lefts, rights } => {
            Response::MatchScores(model.match_scores(lefts, rights))
        }
    }))
    .unwrap_or_else(|_| Response::Error("internal error: request handler panicked".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::{read_frame, RequestKind, STATUS_OK};
    use std::sync::mpsc;

    fn encode_knn_request(queries: &[Vec<f32>], k: usize) -> Vec<u8> {
        Request::Knn {
            queries: queries.to_vec(),
            k,
        }
        .encode()
    }

    fn vectors(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                    })
                    .collect()
            })
            .collect()
    }

    fn small_server(config: ServerConfig) -> Server {
        let index = BlockingIndex::build(vectors(200, 4, 7), Some(16));
        Server::spawn_with_config(Arc::new(index), "127.0.0.1:0", config).expect("spawn")
    }

    /// Raw framed request over a plain `TcpStream`, so the test controls the read
    /// side byte-by-byte (the real client would drain eagerly).
    fn send_request(stream: &mut TcpStream, payload: &[u8]) {
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .expect("len");
        stream.write_all(payload).expect("payload");
    }

    /// Satellite regression: a slow-but-alive reader draining a multi-megabyte
    /// response in small sips takes far longer than the stall budget overall, yet
    /// must never be dropped — every sip makes progress, and progress resets the
    /// budget. (The old write path reused a fixed 100 ms poll as its write
    /// timeout, which this scenario starved.)
    #[test]
    fn a_throttled_reader_making_progress_is_never_dropped() {
        let server = small_server(ServerConfig {
            write_stall_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        // 8000 queries x k=100 x 16 bytes/pair ≈ 12.8 MiB response — far beyond
        // any socket buffer, so the server must keep writing as we sip.
        let queries = vectors(8000, 4, 11);
        send_request(&mut stream, &encode_knn_request(&queries, 100));

        let mut len_bytes = [0u8; 4];
        stream.read_exact(&mut len_bytes).expect("response length");
        let total = u32::from_le_bytes(len_bytes) as usize;
        assert!(
            total > 8 * 1024 * 1024,
            "response should dwarf socket buffers, got {total} bytes"
        );
        let started = Instant::now();
        let mut body = vec![0u8; total];
        let mut filled = 0;
        while filled < total {
            // Sip at most 256 KiB every 25 ms: the whole drain takes ~10x the
            // 300 ms stall budget, with progress on every sip.
            let chunk = (total - filled).min(256 * 1024);
            stream
                .read_exact(&mut body[filled..filled + chunk])
                .expect("throttled read survived");
            filled += chunk;
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(
            started.elapsed() > Duration::from_millis(600),
            "the drain must outlast the stall budget for this test to mean anything"
        );
        assert_eq!(body[0], STATUS_OK);
        server.shutdown();
    }

    /// The flip side: a reader that stops reading entirely IS dropped once the
    /// stall budget passes with zero progress — a wedged peer cannot pin a
    /// response buffer forever.
    #[test]
    fn a_fully_stalled_reader_is_dropped_after_the_budget() {
        let server = small_server(ServerConfig {
            write_stall_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let queries = vectors(8000, 4, 13);
        send_request(&mut stream, &encode_knn_request(&queries, 100));
        // Wait for the response to actually be in flight before stalling —
        // otherwise a slow join on a loaded machine finishes only after the
        // sleep below, the drain loop then makes continuous progress, and the
        // stall budget never fires (the reader was measuring compute, not its
        // own stall). The 4-byte length prefix is the handshake.
        let mut len_bytes = [0u8; 4];
        stream.read_exact(&mut len_bytes).expect("response length");
        // Read nothing more. The server fills the socket buffers, then sees
        // zero progress for the whole budget and closes the connection.
        std::thread::sleep(Duration::from_millis(1500));
        // Drain until the peer's close shows through (EOF or reset). A healthy
        // server would happily feed us all ~12.8 MiB; a dropped connection ends
        // orders of magnitude earlier. A read timeout means the server neither
        // fed nor closed us — treat it as "kept serving" and fail.
        let mut drained = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        let ended = loop {
            match stream.read(&mut buf) {
                Ok(0) => break true,
                Ok(n) => {
                    drained += n;
                    if drained > 13 * 1024 * 1024 {
                        break false;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break false
                }
                Err(_) => break true,
            }
        };
        assert!(
            ended,
            "the server kept serving a reader stalled past the budget ({drained} bytes)"
        );
        server.shutdown();
    }

    /// A model whose `embed` holds the join worker: it reports on `entered`, then
    /// blocks on `release` until the test sends (or drops the sender, as a failing
    /// test does). Model jobs share the join worker's FIFO, so whatever queues
    /// meanwhile runs after it.
    struct GatedModel {
        entered: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl ModelBackend for GatedModel {
        fn dim(&self) -> usize {
            1
        }

        fn embed(&self, texts: &[String]) -> Vec<Vec<f32>> {
            self.entered.send(()).ok();
            self.release.lock().unwrap().recv().ok();
            vec![vec![0.0]; texts.len()]
        }

        fn match_scores(&self, lefts: &[String], _: &[String]) -> Vec<f32> {
            vec![0.0; lefts.len()]
        }
    }

    /// Every `KNN` request is one query-cache lookup, coalesced or not, and a
    /// coalesced group caches each request's own batch and nothing else: the merged
    /// batch, which no client ever repeats, must not take a slot and evict a live
    /// entry.
    #[test]
    fn a_coalesced_group_is_one_cache_lookup_per_request() {
        let mut index = BlockingIndex::build(vectors(200, 4, 7), Some(16));
        index.set_query_cache_capacity(3);
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let model = Arc::new(GatedModel {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        });
        let server = Server::spawn_with_model(
            Arc::new(index),
            model,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("spawn");
        let addr = server.addr();
        let batches: Vec<Vec<Vec<f32>>> = (0..3).map(|s| vectors(4, 4, 40 + s)).collect();
        let mut client = ServeClient::connect(addr).expect("connect");
        client.knn_join(&batches[0], 5).expect("warm-up join");

        // Hold the join worker in a gated EMBED while two more batches queue behind
        // it, so that they run as one coalesced group. EMBED never reaches the
        // query cache.
        let blocker = std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            client.embed(&["held".to_string()]).expect("gated embed")
        });
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the join worker runs the gated EMBED");
        let queued: Vec<_> = batches[1..]
            .iter()
            .cloned()
            .map(|batch| {
                std::thread::spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    client.knn_join(&batch, 5).expect("queued join")
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.batcher.state.lock().unwrap().queue.len() < 2 {
            assert!(
                Instant::now() < deadline,
                "the two KNN batches never queued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        release.send(()).expect("the gated EMBED is waiting");
        blocker.join().expect("blocker");
        for join in queued {
            join.join().expect("queued client");
        }
        assert_eq!(
            server.stats().batched_joins,
            1,
            "the queued batches coalesced"
        );

        // Three batches fit a three-entry cache: the warm-up batch is still there.
        client.knn_join(&batches[0], 5).expect("repeat");
        let stats = server.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (3, 1), "{stats:?}");
        server.shutdown();
    }

    /// Opcode `0x04` (the retired shard-subset join) answers the typed unknown-opcode
    /// error frame, and the connection goes on to answer a `KNN` on the same socket.
    #[test]
    fn the_retired_subset_opcode_answers_unknown_and_the_connection_survives() {
        let server = small_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        // The former KNN_SUBSET layout: k=3 · shards [0, 1] · 1 query · dim 4.
        let mut former_subset = vec![0x04];
        for word in [3u32, 2, 0, 1, 1, 4] {
            former_subset.extend_from_slice(&word.to_le_bytes());
        }
        for x in [0.5f32, -0.25, 0.125, 1.0] {
            former_subset.extend_from_slice(&x.to_le_bytes());
        }
        send_request(&mut stream, &former_subset);
        let reply = read_frame(&mut stream)
            .expect("read")
            .expect("a reply frame");
        assert_eq!(
            Response::decode(&reply, RequestKind::Knn).unwrap(),
            Response::Error("unknown opcode 0x04".into())
        );

        let queries = vectors(2, 4, 9);
        send_request(&mut stream, &encode_knn_request(&queries, 3));
        let reply = read_frame(&mut stream)
            .expect("read")
            .expect("a reply frame");
        assert_eq!(
            Response::decode(&reply, RequestKind::Knn).unwrap(),
            Response::Knn {
                pairs: server.index().knn_join(&queries, 3),
                degraded: false,
            }
        );
        server.shutdown();
    }
}
