//! The client half of the wire protocol: a thin, synchronous connection handle.
//!
//! One [`ServeClient`] wraps one TCP connection. Calls are blocking request/response;
//! for concurrency, open one client per thread (the server handles each connection on
//! its own thread and coalesces concurrent joins server-side, so N clients cost one
//! GEMM pass when their requests land together).
//!
//! ## One retry loop
//!
//! Every typed method — [`ServeClient::knn_join`], [`ServeClient::embed`],
//! [`ServeClient::match_pairs`] — is a thin wrapper over one
//! core, [`ServeClient::request`]: encode a [`Request`], round-trip the frame, decode
//! the [`Response`], and apply the retry policy. Retry/backoff/reconnect therefore
//! lives in exactly one place; a wrapper only chooses the request variant and unpacks
//! the matching response variant.
//!
//! ## Failure handling
//!
//! The client carries a [`ClientConfig`]:
//!
//! * **Read timeout** — a server that accepts the connection and then never answers
//!   (wedged worker, partitioned network) surfaces as a timeout error instead of
//!   blocking the caller forever. It mirrors the server's own write-timeout
//!   discipline: neither side of the protocol will wait unboundedly on the other.
//! * **Retry policy** ([`RetryPolicy`]) — every request in the protocol is
//!   idempotent (the server mutates nothing on behalf of a client), so transport
//!   failures and `BUSY` load-shed responses are retried with exponential backoff
//!   plus deterministic jitter, reconnecting first when the transport broke. Server
//!   *error* responses are never retried — the same request would fail the same way.
//!   `PING` and `STATS` are deliberately not retried: callers probing liveness want
//!   the first answer, not a flattering one.
//!
//! A degraded response (quarantined shards skipped server-side) is success with a
//! flag: [`ServeClient::knn_join`] returns the pairs, and
//! [`ServeClient::knn_join_detailed`] additionally reports `degraded = true` so
//! callers that must not act on partial coverage can tell.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{read_frame, write_frame, Request, Response, ServerStats};

/// The typed payload inside every `io::Error` this client produces for a `BUSY`
/// (load-shed) response. The error's *kind* stays
/// [`std::io::ErrorKind::WouldBlock`] for backward compatibility, but kind alone
/// is ambiguous — an OS-level read timeout (`SO_RCVTIMEO`) also surfaces as
/// `WouldBlock` on Linux. Check [`is_busy`] to distinguish "the server answered
/// BUSY, retry it later" from "the transport went quiet".
#[derive(Debug)]
pub struct ServerBusy {
    message: String,
}

impl ServerBusy {
    fn to_error(message: String) -> io::Error {
        io::Error::new(io::ErrorKind::WouldBlock, ServerBusy { message })
    }
}

impl fmt::Display for ServerBusy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServerBusy {}

/// `true` when `err` is a server `BUSY` (load-shed) answer — see [`ServerBusy`].
pub fn is_busy(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| inner.downcast_ref::<ServerBusy>().is_some())
}

/// What [`ServeClient::knn_join_detailed`] returns: the `(query_index, stable_id,
/// score)` pairs plus the degraded flag (`true` when quarantined shards were
/// skipped, making the otherwise exact pair set explicitly incomplete).
pub type DetailedJoin = (Vec<(usize, usize, f32)>, bool);

/// Retry policy for idempotent requests: exponential backoff with deterministic
/// jitter, reconnecting when the transport broke.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling after doubling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream (so tests and reproductions see the
    /// same sleep pattern). Jitter adds 0–50% of the computed backoff.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based): `base << retry`, capped at
    /// `max_backoff`, plus 0–50% deterministic jitter.
    fn backoff(&self, retry: u32, rng: &mut u64) -> Duration {
        let base = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        // A multiplicative LCG (Knuth's constants) is plenty for decorrelating
        // retry storms; cryptographic quality buys nothing here.
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter_percent = (*rng >> 33) % 51; // 0..=50
        base + base.mul_f64(jitter_percent as f64 / 100.0)
    }
}

/// Client-side robustness knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// How long a response read may block before failing with a timeout error.
    /// `None` waits forever (not recommended outside debugging).
    pub read_timeout: Option<Duration>,
    /// Retry policy for idempotent requests (everything except `PING`/`STATS`).
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A synchronous client connection to a [`crate::Server`].
///
/// See the crate docs for an end-to-end example (snapshot → serve → query).
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
    jitter_rng: u64,
}

impl ServeClient {
    /// Connects to a server (e.g. the address returned by [`crate::Server::addr`])
    /// with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// [`ServeClient::connect`] with explicit robustness knobs.
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        Self::prepare(&stream, &config)?;
        Ok(ServeClient {
            stream,
            peer,
            config,
            jitter_rng: config.retry.jitter_seed | 1,
        })
    }

    fn prepare(stream: &TcpStream, config: &ClientConfig) -> io::Result<()> {
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_nodelay(true).ok();
        Ok(())
    }

    /// Drops the current connection and dials the same peer again. Used by the
    /// retry loop after a transport failure; callers can also invoke it to recover
    /// a client whose server restarted.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        Self::prepare(&stream, &self.config)?;
        self.stream = stream;
        Ok(())
    }

    /// Sends one request frame and reads one response frame.
    fn round_trip(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection before responding",
            )
        })
    }

    /// Turns a server-reported error message into an `io::Error`.
    fn server_error(message: String) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, format!("server: {message}"))
    }

    /// A response variant the request kind rules out — only reachable if the
    /// protocol decoder and the kind table disagree, i.e. a bug, not a peer fault.
    fn unexpected(response: &Response) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response variant does not answer the request: {response:?}"),
        )
    }

    /// Rejects ragged query batches client-side before anything is sent.
    fn check_rectangular(queries: &[Vec<f32>]) -> io::Result<()> {
        let dim = queries.first().map_or(0, Vec::len);
        if let Some(bad) = queries.iter().position(|q| q.len() != dim) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "query {bad} has dimension {}, expected {dim} (the batch must be \
                     rectangular)",
                    queries[bad].len()
                ),
            ));
        }
        Ok(())
    }

    /// Sends one typed [`Request`] and returns its typed [`Response`] — the single
    /// retry core every typed wrapper goes through.
    ///
    /// Transport failures tear the stream (a response may be half-read), so every
    /// retry of one starts from a fresh connection; `BUSY` leaves the stream clean
    /// and the retry reuses it after the backoff. A server [`Response::Error`] is
    /// surfaced as [`std::io::ErrorKind::InvalidInput`] and never retried — the
    /// same request would fail the same way. [`Response::Busy`] surviving retry
    /// exhaustion becomes a [`ServerBusy`]-carrying error (check [`is_busy`]).
    ///
    /// All other variants — including degraded `KNN` answers — return `Ok`; the
    /// wrappers unpack them.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.request_with_retries(request, self.config.retry.max_retries)
    }

    fn request_with_retries(
        &mut self,
        request: &Request,
        max_retries: u32,
    ) -> io::Result<Response> {
        let payload = request.encode();
        let kind = request.kind();
        let mut retry = 0u32;
        loop {
            let transport_error: Option<io::Error> = match self.round_trip(&payload) {
                Ok(frame) => {
                    let response = Response::decode(&frame, kind)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    match response {
                        Response::Busy => None,
                        Response::Error(message) => return Err(Self::server_error(message)),
                        response => return Ok(response),
                    }
                }
                Err(e) => Some(e),
            };
            if retry >= max_retries {
                return Err(transport_error.unwrap_or_else(|| {
                    ServerBusy::to_error(format!(
                        "server busy (load shed) after {} attempts",
                        max_retries + 1
                    ))
                }));
            }
            let mut rng = self.jitter_rng;
            std::thread::sleep(self.config.retry.backoff(retry, &mut rng));
            self.jitter_rng = rng;
            retry += 1;
            if transport_error.is_some() {
                self.reconnect()?;
            }
        }
    }

    /// Retrieves, for every query, its `k` nearest indexed vectors as
    /// `(query_index, stable_id, score)` pairs — the remote form of
    /// [`sudowoodo_index::BlockingIndex::knn_join`], with identical results and
    /// ordering (query index, then descending score, ascending id on ties).
    ///
    /// Send the natural batch in one call: the batch is the unit of network
    /// amortization *and* of the server's query cache, so a repeated batch answers
    /// without the server touching a single shard.
    ///
    /// Transport failures and `BUSY` load-shed responses are retried per the
    /// configured [`RetryPolicy`] (the request is idempotent). A *degraded* response
    /// still returns its pairs — call [`ServeClient::knn_join_detailed`] to see the
    /// flag.
    ///
    /// # Errors
    /// Exhausted retries over transport failures or `BUSY`, or a server-side
    /// rejection (e.g. a query dimension that does not match the served index)
    /// surfaced as [`std::io::ErrorKind::InvalidInput`] — never retried. Ragged
    /// query batches are rejected client-side before anything is sent.
    pub fn knn_join(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
    ) -> io::Result<Vec<(usize, usize, f32)>> {
        self.knn_join_detailed(queries, k).map(|(pairs, _)| pairs)
    }

    /// [`ServeClient::knn_join`] plus the degraded flag: `true` when the server
    /// skipped quarantined shards, so the (otherwise exact) pair set is explicitly
    /// incomplete.
    pub fn knn_join_detailed(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
    ) -> io::Result<DetailedJoin> {
        Self::check_rectangular(queries)?;
        let request = Request::Knn {
            queries: queries.to_vec(),
            k,
        };
        match self.request(&request)? {
            Response::Knn { pairs, degraded } => Ok((pairs, degraded)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks the served *model* for the raw encoder vector of every text, in input
    /// order — the remote form of the in-process encoder's `embed_all`, with
    /// bit-identical `f32` output for the same batch (the server never coalesces
    /// model batches, precisely so chunk boundaries — and therefore bits — match).
    ///
    /// Retried like [`ServeClient::knn_join`] (the model mutates nothing).
    ///
    /// # Errors
    /// A server without a loaded model answers a typed error
    /// ([`std::io::ErrorKind::InvalidInput`], never retried); so does a batch whose
    /// reply would exceed the frame limit — send fewer texts per call.
    pub fn embed(&mut self, texts: &[String]) -> io::Result<Vec<Vec<f32>>> {
        let request = Request::Embed {
            texts: texts.to_vec(),
        };
        match self.request(&request)? {
            Response::Embeddings(vectors) => Ok(vectors),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks the served pair matcher to score `pairs`, one match probability per
    /// `(left, right)` pair in input order — the remote form of the in-process
    /// matcher's `predict_scores`, bit-identical for the same batch.
    ///
    /// Retried like [`ServeClient::knn_join`] (the model mutates nothing).
    ///
    /// # Errors
    /// A server without a loaded model answers a typed error
    /// ([`std::io::ErrorKind::InvalidInput`], never retried).
    pub fn match_pairs(&mut self, pairs: &[(String, String)]) -> io::Result<Vec<f32>> {
        let (lefts, rights): (Vec<String>, Vec<String>) = pairs.iter().cloned().unzip();
        let request = Request::MatchPairs { lefts, rights };
        match self.request(&request)? {
            Response::MatchScores(scores) => Ok(scores),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Liveness check: one round trip, no payload. Not retried — callers probing
    /// liveness want the first answer, not a flattering one.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request_with_retries(&Request::Ping, 0) {
            Ok(Response::Pong) => Ok(()),
            Ok(other) => Err(Self::unexpected(&other)),
            Err(e) if is_busy(&e) => Err(ServerBusy::to_error("server busy (load shed)".into())),
            Err(e) => Err(e),
        }
    }

    /// Fetches server/index statistics (corpus size, shard residency, cache,
    /// batching, and robustness counters). Not retried.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.request_with_retries(&Request::Stats, 0) {
            Ok(Response::Stats(stats)) => Ok(stats),
            Ok(other) => Err(Self::unexpected(&other)),
            Err(e) if is_busy(&e) => Err(ServerBusy::to_error("server busy (load shed)".into())),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn a_silent_server_times_out_instead_of_hanging_forever() {
        // A listener that accepts and then says nothing — the pathological peer the
        // read timeout exists for.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let keep_open = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(100)),
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        };
        let mut client = ServeClient::connect_with_config(addr, config).unwrap();
        let _socket = keep_open.join().unwrap().unwrap(); // hold the accepted side open

        let started = Instant::now();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the timeout must fire promptly, not hang: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            jitter_seed: 7,
        };
        let mut a = policy.jitter_seed | 1;
        let mut b = policy.jitter_seed | 1;
        for retry in 0..5 {
            let base = Duration::from_millis(10 * (1 << retry)).min(Duration::from_millis(40));
            let sleep = policy.backoff(retry, &mut a);
            assert!(sleep >= base, "retry {retry}: {sleep:?} < base {base:?}");
            assert!(
                sleep <= base + base.mul_f64(0.5),
                "retry {retry}: {sleep:?} exceeds base + 50% jitter"
            );
            assert_eq!(
                sleep,
                policy.backoff(retry, &mut b),
                "same seed must give the same jitter stream"
            );
        }
    }
}
