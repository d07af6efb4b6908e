//! # sudowoodo-serve
//!
//! Concurrent network serving of the Sudowoodo blocking index: build (or train) once,
//! [`sudowoodo_index::BlockingIndex::save_snapshot`] the index, and any number of
//! server processes [`sudowoodo_index::BlockingIndex::load_snapshot`] it **cold** and
//! answer `knn_join` traffic over TCP — the ROADMAP's "multi-process shard server"
//! step, built on the PR 4 spill layer and the snapshot/cache layers of
//! `sudowoodo-index`.
//!
//! Everything is `std` — `TcpListener`/`TcpStream`, threads, a condvar, and a thin
//! `poll(2)` wrapper ([`reactor`]) — no new dependencies (the workspace builds
//! offline). Four pieces:
//!
//! * [`protocol`] — a small length-prefixed binary protocol (a typed
//!   [`protocol::Request`]/[`protocol::Response`] enum pair over opcode frames,
//!   fixed little-endian layouts, a 64 MiB frame bound). Documented field-by-field
//!   in the module; a client in another language is an afternoon's work.
//! * [`reactor`] — the std-only readiness layer: `poll(2)` over non-blocking
//!   sockets plus a loopback-pair [`reactor::Waker`].
//! * [`Server`] — a fixed pool of readiness-polled I/O workers (idle connections
//!   cost zero wakeups; thousands of sockets per thread) plus a join worker that
//!   **coalesces concurrent requests into one index call** (server-side request
//!   batching: N clients landing together cost one GEMM pass per visited shard,
//!   not N). `PING` and `STATS` answer inline on the I/O workers.
//! * [`ServeClient`] — a synchronous client handle; results are identical (ids,
//!   scores, and ordering) to calling `knn_join` in-process.
//!
//! Serving is **multi-purpose**: alongside the index the server can own a trained
//! [`ModelBackend`] (an encoder + pair matcher loaded from a model snapshot) and
//! answer `EMBED` (raw encoder vectors for a record batch) and `MATCH` (pair-match
//! scores) requests — [`Server::spawn_with_model`], [`ServeClient::embed`],
//! [`ServeClient::match_pairs`]. Model answers are bit-identical to the in-process
//! model on the same batch. The served index can also be **republished** live
//! ([`Server::publish_index`]) after a delta snapshot lands, for streaming-dedup
//! deployments where records keep arriving after the initial snapshot.
//!
//! The serving layer is built to survive faults and overload (see the [`server`]
//! module docs): bounded admission with `BUSY` load shedding, per-request deadlines,
//! panic containment (handler failures answer error frames instead of dropping
//! connections), degraded-result flagging when the index quarantines unreadable
//! shards, and a client-side retry policy (exponential backoff + deterministic
//! jitter, idempotent `KNN` requests only). Configure the server with
//! [`ServerConfig`] / [`Server::spawn_with_config`] and the client with
//! [`ClientConfig`] / [`ServeClient::connect_with_config`].
//!
//! Repeated query batches are the expected production shape, and the served index's
//! query-batch cache (see `sudowoodo_index::cache`) answers them without touching a
//! single shard — enable it with
//! [`sudowoodo_index::BlockingIndex::set_query_cache_capacity`] before spawning the
//! server.
//!
//! ## Example: snapshot → serve → query
//!
//! ```
//! use std::sync::Arc;
//! use sudowoodo_index::BlockingIndex;
//! use sudowoodo_serve::{ServeClient, Server};
//!
//! // Process A: build once, snapshot to disk.
//! let dir = std::env::temp_dir().join(format!("swserve-doc-{}", std::process::id()));
//! let corpus = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.6, 0.8]];
//! BlockingIndex::build(corpus, Some(2)).save_snapshot(&dir).unwrap();
//!
//! // Process B: load cold (O(manifest)), enable the query cache, serve.
//! let mut index = BlockingIndex::load_snapshot(&dir).unwrap();
//! index.set_query_cache_capacity(64);
//! let server = Server::spawn(Arc::new(index), "127.0.0.1:0").unwrap();
//!
//! // Any process: connect and join.
//! let mut client = ServeClient::connect(server.addr()).unwrap();
//! let pairs = client.knn_join(&[vec![1.0, 0.1]], 2).unwrap();
//! assert_eq!(pairs[0].1, 0); // nearest neighbor id, same as in-process knn_join
//! client.ping().unwrap();
//!
//! server.shutdown();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod model;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{is_busy, ClientConfig, RetryPolicy, ServeClient, ServerBusy};
pub use model::ModelBackend;
pub use protocol::{Request, Response, ServerStats};
pub use server::{Server, ServerConfig};
