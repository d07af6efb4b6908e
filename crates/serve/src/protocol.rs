//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! The protocol is deliberately small — a handful of opcodes, fixed-width
//! little-endian integers, IEEE-754 `f32` scores — so a client in any language is an
//! afternoon's work and the server never parses anything variable-length except query
//! payloads whose size it has already bounds-checked.
//!
//! Every legal message is a variant of the typed [`Request`] / [`Response`] enum pair.
//! [`Request::decode`] is an exhaustive `match` over the opcode byte — an opcode this
//! version does not know is a typed [`ProtocolError::UnknownOpcode`], not a panic and
//! not a silent skip — and [`Request::encode`] / [`Response::encode`] are the only
//! writers, so there is exactly one place the byte layout lives.
//!
//! ## Framing
//!
//! Every message (either direction) is one **frame**:
//!
//! ```text
//! length  u32 LE     byte length of the payload that follows (<= MAX_FRAME_LEN)
//! payload length bytes
//! ```
//!
//! A request payload starts with an opcode byte; a response payload starts with a
//! status byte ([`STATUS_OK`] / [`STATUS_ERR`] / [`STATUS_BUSY`] /
//! [`STATUS_OK_DEGRADED`]). Connections are persistent: a client sends any number of
//! frames and reads one response per request, in order (the protocol is pipelinable —
//! responses never reorder).
//!
//! ## Requests
//!
//! ```text
//! KNN  (0x01): k u32 · num_queries u32 · dim u32 · queries f32×(num·dim), row-major
//! PING (0x02): empty
//! STATS(0x03): empty
//! EMBED (0x05): num_texts u32 · (len u32 · UTF-8 bytes)×num_texts
//! MATCH (0x06): num_left u32 · (len u32 · UTF-8 bytes)×num_left
//!             · num_right u32 · (len u32 · UTF-8 bytes)×num_right
//! ```
//!
//! A `KNN` request carries a whole **query batch** — batching is the unit of both
//! network amortization and the server-side query cache key, so clients should send
//! their natural batch, not one query per frame.
//!
//! Opcode `0x04` is retired (it was a join restricted to named shard positions) and
//! decodes as [`ProtocolError::UnknownOpcode`] like any opcode this version does not
//! define.
//!
//! An `EMBED` request asks the served *model* (not the index) for the raw encoder
//! vectors of a batch of serialized records; a `MATCH` request asks the served pair
//! matcher to score `(left[i], right[i])` pairs. Mismatched `num_left`/`num_right`
//! counts are representable on the wire on purpose — the server answers them with a
//! typed error rather than the framing layer rejecting the bytes.
//!
//! ## Responses
//!
//! ```text
//! ok KNN:   0x00 · num_pairs u32 · (query u32 · id u64 · score f32)×num_pairs
//! ok PING:  0x00
//! ok STATS: 0x00 · len u64 · dim u64 · num_shards u64 · spilled u64
//!                · served_requests u64 · batched_joins u64
//!                · cache_hits u64 · cache_misses u64
//!                · busy_rejections u64 · deadline_expirations u64
//!                · degraded_joins u64
//! ok EMBED: 0x00 · num u32 · dim u32 · vectors f32×(num·dim), row-major
//! ok MATCH: 0x00 · num u32 · score f32×num
//! degraded: 0x03 · same body as ok KNN (KNN only)
//! busy:     0x02 · empty
//! error:    0x01 · message_len u32 · UTF-8 message
//! ```
//!
//! An error response answers exactly the request that caused it (a dimension
//! mismatch, an oversized frame, an unknown opcode); the connection stays usable.
//! The three non-`0x00` statuses are the failure model on the wire:
//!
//! * **busy** — the admission queue is full (load shed) or the request's deadline
//!   expired before the join ran. The request was *not* executed; it is always safe
//!   to retry after a backoff.
//! * **degraded** — the join ran, but one or more index shards were quarantined
//!   (unreadable storage), so rows from those shards are missing. The pairs that are
//!   present are exact; the set is explicitly incomplete, never silently wrong.
//!   `EMBED` and `MATCH` run the model, not the index — they are never degraded.
//! * **error** — the request or the handler failed; the message says why. Errors are
//!   not retried blindly (the same request would fail the same way).

use std::fmt;
use std::io::{self, Read, Write};

/// Largest accepted frame payload (64 MiB) — bounds server memory against garbage or
/// hostile length prefixes while allowing ~500k 32-dimensional queries per batch.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

// Request opcodes. Private on purpose: the typed [`Request`] enum is the API; raw
// opcode bytes only exist inside `encode`/`decode` (and [`Request::peek_kind`] for
// code that must sniff a frame without decoding it).
const OP_KNN: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_EMBED: u8 = 0x05;
const OP_MATCH: u8 = 0x06;

/// Response status: success; the opcode-specific body follows.
pub const STATUS_OK: u8 = 0x00;
/// Response status: failure; a UTF-8 message follows.
pub const STATUS_ERR: u8 = 0x01;
/// Response status: load shed — the admission queue was full (or the request's
/// deadline expired before it ran). The request was not executed; retry after backoff.
pub const STATUS_BUSY: u8 = 0x02;
/// Response status: success with degraded coverage — quarantined shards were skipped,
/// so the (otherwise exact) `KNN` body is explicitly incomplete.
pub const STATUS_OK_DEGRADED: u8 = 0x03;

/// Server and index statistics returned by a `STATS` request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Live vectors in the served index.
    pub len: u64,
    /// Vector dimensionality of the served index.
    pub dim: u64,
    /// Shards of the served index (1 for the dense layout).
    pub num_shards: u64,
    /// Shards currently on disk (snapshot-cold or budget-spilled; 0 for dense).
    pub spilled_shards: u64,
    /// Total requests answered since the server started (all opcodes).
    pub served_requests: u64,
    /// Index calls that answered more than one queued join request at once — the
    /// request batcher's coalescing at work. Each request in such a group is still
    /// one query-cache lookup; only the misses are joined.
    pub batched_joins: u64,
    /// Query-cache hits observed by the served index (sharded layout; 0 otherwise).
    pub cache_hits: u64,
    /// Query-cache misses observed by the served index (sharded layout; 0 otherwise).
    pub cache_misses: u64,
    /// Requests (joins and model tasks) answered with [`STATUS_BUSY`] because the
    /// admission queue was full — the server shed load instead of queueing without
    /// bound.
    pub busy_rejections: u64,
    /// Requests whose per-request deadline expired while they waited in the
    /// admission queue (also answered with [`STATUS_BUSY`]; they never ran).
    pub deadline_expirations: u64,
    /// Index calls that returned degraded (quarantined shards skipped).
    pub degraded_joins: u64,
}

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed an idle connection); errors on a torn frame or an oversized
/// length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte protocol limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Why a request payload could not be decoded.
///
/// The server turns these into [`Response::Error`] frames (the connection stays
/// usable); a client that hand-rolls frames sees the same taxonomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload was zero bytes — there is no opcode to dispatch on.
    EmptyRequest,
    /// The opcode byte is not one this protocol version defines.
    UnknownOpcode(u8),
    /// The opcode was recognized but the body disagrees with its advertised layout
    /// (truncated header, counts that overflow or disagree with the byte length,
    /// invalid UTF-8 in a text field, ...).
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::EmptyRequest => write!(f, "empty request payload"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::Malformed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The request family an opcode belongs to, without the payload.
///
/// Used to pick the right [`Response::decode`] arm for the request a client sent,
/// and by [`Request::peek_kind`] to classify a raw frame without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `KNN` — batched k-nearest-neighbor join.
    Knn,
    /// `PING` — liveness check.
    Ping,
    /// `STATS` — server/index statistics.
    Stats,
    /// `EMBED` — raw encoder vectors for a text batch.
    Embed,
    /// `MATCH` — pair-matcher scores for aligned text pairs.
    MatchPairs,
}

/// A decoded request — every frame a client can legally send.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Batched k-nearest-neighbor join: the top-`k` neighbors of every query.
    Knn {
        /// Query vectors (row-major on the wire; must share one dimensionality).
        queries: Vec<Vec<f32>>,
        /// Neighbors requested per query.
        k: usize,
    },
    /// Liveness check; the reply is an empty ok.
    Ping,
    /// Server/index statistics.
    Stats,
    /// Raw encoder vectors for a batch of serialized records.
    Embed {
        /// The serialized records to embed.
        texts: Vec<String>,
    },
    /// Pair-matcher scores for the aligned pairs `(lefts[i], rights[i])`.
    ///
    /// Unequal `lefts`/`rights` lengths encode and decode fine — the *server*
    /// rejects them with a typed error, so the failure is observable end to end.
    MatchPairs {
        /// Left-hand serialized records.
        lefts: Vec<String>,
        /// Right-hand serialized records, aligned with `lefts`.
        rights: Vec<String>,
    },
}

fn push_f32s(out: &mut Vec<u8>, rows: &[Vec<f32>]) {
    for row in rows {
        for &x in row {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

fn push_texts(out: &mut Vec<u8>, texts: &[String]) {
    out.extend_from_slice(&(texts.len() as u32).to_le_bytes());
    for t in texts {
        out.extend_from_slice(&(t.len() as u32).to_le_bytes());
        out.extend_from_slice(t.as_bytes());
    }
}

/// A cursor over a request/response body with checked, typed reads.
struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader { body, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtocolError> {
        let bytes = self
            .body
            .get(self.at..self.at + 4)
            .ok_or_else(|| ProtocolError::Malformed(format!("truncated {what}")))?;
        self.at += 4;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn f32_rows(
        &mut self,
        num: usize,
        dim: usize,
        what: &str,
    ) -> Result<Vec<Vec<f32>>, ProtocolError> {
        let expected = num
            .checked_mul(dim)
            .and_then(|f| f.checked_mul(4))
            .ok_or_else(|| ProtocolError::Malformed(format!("{what} counts overflow")))?;
        if self.remaining() != expected {
            return Err(ProtocolError::Malformed(format!(
                "{what} payload is {} bytes, expected {num} x {dim} rows ({} bytes)",
                self.body.len(),
                self.at + expected,
            )));
        }
        let mut rows = Vec::with_capacity(num);
        for _ in 0..num {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                row.push(f32::from_le_bytes(
                    self.body[self.at..self.at + 4].try_into().unwrap(),
                ));
                self.at += 4;
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn texts(&mut self, what: &str) -> Result<Vec<String>, ProtocolError> {
        let num = self.u32(what)? as usize;
        let mut texts = Vec::with_capacity(num.min(self.remaining() / 4 + 1));
        for _ in 0..num {
            let len = self.u32(what)? as usize;
            let bytes = self.body.get(self.at..self.at + len).ok_or_else(|| {
                ProtocolError::Malformed(format!(
                    "{what}: a text length of {len} bytes overruns the payload"
                ))
            })?;
            self.at += len;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| ProtocolError::Malformed(format!("{what}: text is not valid UTF-8")))?
                .to_string();
            texts.push(text);
        }
        Ok(texts)
    }

    fn finish(&self, what: &str) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::Malformed(format!(
                "{what} payload has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

impl Request {
    /// The request family this variant belongs to.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Knn { .. } => RequestKind::Knn,
            Request::Ping => RequestKind::Ping,
            Request::Stats => RequestKind::Stats,
            Request::Embed { .. } => RequestKind::Embed,
            Request::MatchPairs { .. } => RequestKind::MatchPairs,
        }
    }

    /// Classifies a raw request payload by its opcode byte without decoding the
    /// body. `None` for an empty payload or an opcode this version does not define.
    pub fn peek_kind(payload: &[u8]) -> Option<RequestKind> {
        match *payload.first()? {
            OP_KNN => Some(RequestKind::Knn),
            OP_PING => Some(RequestKind::Ping),
            OP_STATS => Some(RequestKind::Stats),
            OP_EMBED => Some(RequestKind::Embed),
            OP_MATCH => Some(RequestKind::MatchPairs),
            _ => None,
        }
    }

    /// Serializes this request into a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Knn { queries, k } => {
                let dim = queries.first().map_or(0, Vec::len);
                let mut out = Vec::with_capacity(13 + queries.len() * dim * 4);
                out.push(OP_KNN);
                out.extend_from_slice(&(*k as u32).to_le_bytes());
                out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
                out.extend_from_slice(&(dim as u32).to_le_bytes());
                push_f32s(&mut out, queries);
                out
            }
            Request::Ping => vec![OP_PING],
            Request::Stats => vec![OP_STATS],
            Request::Embed { texts } => {
                let mut out =
                    Vec::with_capacity(5 + texts.iter().map(|t| 4 + t.len()).sum::<usize>());
                out.push(OP_EMBED);
                push_texts(&mut out, texts);
                out
            }
            Request::MatchPairs { lefts, rights } => {
                let text_bytes = |ts: &[String]| ts.iter().map(|t| 4 + t.len()).sum::<usize>();
                let mut out = Vec::with_capacity(9 + text_bytes(lefts) + text_bytes(rights));
                out.push(OP_MATCH);
                push_texts(&mut out, lefts);
                push_texts(&mut out, rights);
                out
            }
        }
    }

    /// Deserializes a frame payload (opcode byte + body) into a typed request.
    ///
    /// This is the single exhaustive dispatch point over the opcode space: every
    /// defined opcode has an arm, and an undefined one is a typed
    /// [`ProtocolError::UnknownOpcode`]. Counts are validated against the actual
    /// byte length with overflow-checked arithmetic.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let (&opcode, body) = match payload.split_first() {
            Some(split) => split,
            None => return Err(ProtocolError::EmptyRequest),
        };
        match opcode {
            OP_KNN => {
                let mut r = Reader::new(body);
                let k = r.u32("KNN header")? as usize;
                let num = r.u32("KNN header")? as usize;
                let dim = r.u32("KNN header")? as usize;
                let queries = r.f32_rows(num, dim, "KNN")?;
                Ok(Request::Knn { queries, k })
            }
            OP_PING => {
                Reader::new(body).finish("PING")?;
                Ok(Request::Ping)
            }
            OP_STATS => {
                Reader::new(body).finish("STATS")?;
                Ok(Request::Stats)
            }
            OP_EMBED => {
                let mut r = Reader::new(body);
                let texts = r.texts("EMBED")?;
                r.finish("EMBED")?;
                Ok(Request::Embed { texts })
            }
            OP_MATCH => {
                let mut r = Reader::new(body);
                let lefts = r.texts("MATCH lefts")?;
                let rights = r.texts("MATCH rights")?;
                r.finish("MATCH")?;
                Ok(Request::MatchPairs { lefts, rights })
            }
            other => Err(ProtocolError::UnknownOpcode(other)),
        }
    }
}

/// A decoded response — every frame a server can legally send back.
///
/// The ok-body layout depends on the request's opcode, so [`Response::decode`] takes
/// the [`RequestKind`] of the request being answered; [`Response::Busy`] and
/// [`Response::Error`] are opcode-independent.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Knn`]: `(query, id, score)` pairs. `degraded` means
    /// quarantined shards were skipped — the pairs present are exact, the set is
    /// explicitly incomplete.
    Knn {
        /// `(query position, corpus id, cosine score)` rows.
        pairs: Vec<(usize, usize, f32)>,
        /// Whether quarantined shards were skipped ([`STATUS_OK_DEGRADED`]).
        degraded: bool,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Answer to [`Request::Embed`]: one encoder vector per input text, in order.
    Embeddings(Vec<Vec<f32>>),
    /// Answer to [`Request::MatchPairs`]: one match probability per pair, in order.
    MatchScores(Vec<f32>),
    /// The request was shed without running (admission queue full or deadline
    /// expired); retry after backoff.
    Busy,
    /// The server rejected or failed the request with this message.
    Error(String),
}

fn push_pairs(out: &mut Vec<u8>, pairs: &[(usize, usize, f32)]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(query, id, score) in pairs {
        out.extend_from_slice(&(query as u32).to_le_bytes());
        out.extend_from_slice(&(id as u64).to_le_bytes());
        out.extend_from_slice(&score.to_le_bytes());
    }
}

fn read_pairs(r: &mut Reader<'_>, what: &str) -> Result<Vec<(usize, usize, f32)>, ProtocolError> {
    let count = r.u32(what)? as usize;
    if r.remaining() != count * 16 {
        return Err(ProtocolError::Malformed(format!(
            "{what} is {} bytes, expected {count} pairs",
            r.body.len()
        )));
    }
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let query = r.u32(what)? as usize;
        let id_bytes: [u8; 8] = r.body[r.at..r.at + 8].try_into().unwrap();
        r.at += 8;
        let id = u64::from_le_bytes(id_bytes) as usize;
        let score = f32::from_le_bytes(r.body[r.at..r.at + 4].try_into().unwrap());
        r.at += 4;
        pairs.push((query, id, score));
    }
    Ok(pairs)
}

impl Response {
    /// Serializes this response into a frame payload (status byte + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Knn { pairs, degraded } => {
                let mut out = Vec::with_capacity(5 + pairs.len() * 16);
                out.push(if *degraded {
                    STATUS_OK_DEGRADED
                } else {
                    STATUS_OK
                });
                push_pairs(&mut out, pairs);
                out
            }
            Response::Pong => vec![STATUS_OK],
            Response::Stats(stats) => {
                let mut out = Vec::with_capacity(1 + 11 * 8);
                out.push(STATUS_OK);
                for v in [
                    stats.len,
                    stats.dim,
                    stats.num_shards,
                    stats.spilled_shards,
                    stats.served_requests,
                    stats.batched_joins,
                    stats.cache_hits,
                    stats.cache_misses,
                    stats.busy_rejections,
                    stats.deadline_expirations,
                    stats.degraded_joins,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            Response::Embeddings(vectors) => {
                let dim = vectors.first().map_or(0, Vec::len);
                let mut out = Vec::with_capacity(9 + vectors.len() * dim * 4);
                out.push(STATUS_OK);
                out.extend_from_slice(&(vectors.len() as u32).to_le_bytes());
                out.extend_from_slice(&(dim as u32).to_le_bytes());
                push_f32s(&mut out, vectors);
                out
            }
            Response::MatchScores(scores) => {
                let mut out = Vec::with_capacity(5 + scores.len() * 4);
                out.push(STATUS_OK);
                out.extend_from_slice(&(scores.len() as u32).to_le_bytes());
                for &s in scores {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                out
            }
            Response::Busy => vec![STATUS_BUSY],
            Response::Error(message) => {
                let bytes = message.as_bytes();
                let mut out = Vec::with_capacity(5 + bytes.len());
                out.push(STATUS_ERR);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
                out
            }
        }
    }

    /// Deserializes a frame payload (status byte + body) into a typed response.
    ///
    /// `kind` is the request being answered — the protocol carries no opcode in
    /// responses (they arrive in request order on a persistent connection), so the
    /// caller supplies it. The degraded status is only legal for `KNN`.
    pub fn decode(payload: &[u8], kind: RequestKind) -> Result<Response, ProtocolError> {
        let (&status, body) = match payload.split_first() {
            Some(split) => split,
            None => return Err(ProtocolError::Malformed("empty response payload".into())),
        };
        match status {
            STATUS_BUSY => return Ok(Response::Busy),
            STATUS_ERR => {
                let mut r = Reader::new(body);
                let len = r.u32("error response")? as usize;
                let bytes = r.body.get(r.at..r.at + len).ok_or_else(|| {
                    ProtocolError::Malformed(
                        "error response length disagrees with its payload".into(),
                    )
                })?;
                return Ok(Response::Error(String::from_utf8_lossy(bytes).into_owned()));
            }
            STATUS_OK => {}
            STATUS_OK_DEGRADED => {
                if kind != RequestKind::Knn {
                    return Err(ProtocolError::Malformed(format!(
                        "degraded status is not legal for a {kind:?} response"
                    )));
                }
            }
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown response status {other}"
                )))
            }
        }
        let degraded = status == STATUS_OK_DEGRADED;
        let mut r = Reader::new(body);
        let response = match kind {
            RequestKind::Knn => Response::Knn {
                pairs: read_pairs(&mut r, "KNN response")?,
                degraded,
            },
            RequestKind::Ping => Response::Pong,
            RequestKind::Stats => {
                if body.len() != 11 * 8 {
                    return Err(ProtocolError::Malformed(format!(
                        "STATS response is {} bytes, expected 88",
                        body.len()
                    )));
                }
                let field =
                    |i: usize| u64::from_le_bytes(body[i * 8..(i + 1) * 8].try_into().unwrap());
                r.at = body.len();
                Response::Stats(ServerStats {
                    len: field(0),
                    dim: field(1),
                    num_shards: field(2),
                    spilled_shards: field(3),
                    served_requests: field(4),
                    batched_joins: field(5),
                    cache_hits: field(6),
                    cache_misses: field(7),
                    busy_rejections: field(8),
                    deadline_expirations: field(9),
                    degraded_joins: field(10),
                })
            }
            RequestKind::Embed => {
                let num = r.u32("EMBED response")? as usize;
                let dim = r.u32("EMBED response")? as usize;
                Response::Embeddings(r.f32_rows(num, dim, "EMBED response")?)
            }
            RequestKind::MatchPairs => {
                let num = r.u32("MATCH response")? as usize;
                if r.remaining() != num * 4 {
                    return Err(ProtocolError::Malformed(format!(
                        "MATCH response is {} bytes, expected {num} scores",
                        body.len()
                    )));
                }
                let mut scores = Vec::with_capacity(num);
                for _ in 0..num {
                    scores.push(f32::from_le_bytes(
                        r.body[r.at..r.at + 4].try_into().unwrap(),
                    ));
                    r.at += 4;
                }
                Response::MatchScores(scores)
            }
        };
        r.finish("response")?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_request_round_trips() {
        let req = Request::Knn {
            queries: vec![vec![1.0f32, -2.5], vec![0.0, 3.25]],
            k: 7,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn knn_response_round_trips() {
        let resp = Response::Knn {
            pairs: vec![(0usize, 42usize, 0.75f32), (1, 7, -0.25)],
            degraded: false,
        };
        assert_eq!(
            Response::decode(&resp.encode(), RequestKind::Knn).unwrap(),
            resp
        );
    }

    #[test]
    fn degraded_knn_response_keeps_the_body_but_flags_the_status() {
        let resp = Response::Knn {
            pairs: vec![(0usize, 3usize, 0.5f32)],
            degraded: true,
        };
        let payload = resp.encode();
        assert_eq!(payload[0], STATUS_OK_DEGRADED);
        assert_eq!(Response::decode(&payload, RequestKind::Knn).unwrap(), resp);
    }

    #[test]
    fn embed_and_match_round_trip() {
        let embed = Request::Embed {
            texts: vec!["COL a VAL b".into(), "".into(), "héllo".into()],
        };
        assert_eq!(Request::decode(&embed.encode()).unwrap(), embed);

        let mismatched = Request::MatchPairs {
            lefts: vec!["a".into(), "b".into()],
            rights: vec!["c".into()],
        };
        // Mismatched pair counts are protocol-legal: the server answers with a
        // typed error, not the codec.
        assert_eq!(Request::decode(&mismatched.encode()).unwrap(), mismatched);

        let vectors = Response::Embeddings(vec![vec![1.0f32, 2.0], vec![-0.5, 0.25]]);
        assert_eq!(
            Response::decode(&vectors.encode(), RequestKind::Embed).unwrap(),
            vectors
        );
        let scores = Response::MatchScores(vec![0.125f32, 0.875]);
        assert_eq!(
            Response::decode(&scores.encode(), RequestKind::MatchPairs).unwrap(),
            scores
        );
    }

    #[test]
    fn embed_rejects_bad_utf8_and_overrun_lengths() {
        let mut payload = Request::Embed {
            texts: vec!["abcd".into()],
        }
        .encode();
        payload[9] = 0xFF; // first byte of "abcd" → invalid UTF-8 lead byte
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::Malformed(msg)) if msg.contains("UTF-8")
        ));

        let mut overrun = Request::Embed {
            texts: vec!["abcd".into()],
        }
        .encode();
        overrun[5] = 0xFF; // inflate the text length past the payload
        assert!(matches!(
            Request::decode(&overrun),
            Err(ProtocolError::Malformed(msg)) if msg.contains("overruns")
        ));
    }

    #[test]
    fn degraded_status_is_rejected_for_model_responses() {
        let mut payload = Response::MatchScores(vec![0.5]).encode();
        payload[0] = STATUS_OK_DEGRADED;
        assert!(Response::decode(&payload, RequestKind::MatchPairs).is_err());
    }

    #[test]
    fn unknown_opcode_is_a_typed_error() {
        assert_eq!(
            Request::decode(&[0x7F]),
            Err(ProtocolError::UnknownOpcode(0x7F))
        );
        assert_eq!(Request::decode(&[]), Err(ProtocolError::EmptyRequest));
        assert_eq!(
            ProtocolError::UnknownOpcode(0x7F).to_string(),
            "unknown opcode 0x7f"
        );
    }

    /// Opcode `0x04` (the retired shard-subset join) is unknown: a well-formed payload
    /// of its old layout — k=5 · shards [0, 7] · 1 query · dim 2 — is rejected by the
    /// opcode alone, and [`Request::peek_kind`] does not classify it either.
    #[test]
    fn the_retired_subset_opcode_is_unknown() {
        #[rustfmt::skip]
        let former_subset: Vec<u8> = vec![
            0x04,
            5, 0, 0, 0,
            2, 0, 0, 0,
            0, 0, 0, 0,
            7, 0, 0, 0,
            1, 0, 0, 0,
            2, 0, 0, 0,
            0x00, 0x00, 0x80, 0x3F,
            0x00, 0x00, 0x20, 0xC0,
        ];
        assert_eq!(
            Request::decode(&former_subset),
            Err(ProtocolError::UnknownOpcode(0x04))
        );
        assert_eq!(Request::peek_kind(&former_subset), None);
    }

    #[test]
    fn peek_kind_classifies_without_decoding() {
        let req = Request::Knn {
            queries: vec![vec![1.0, 2.0]],
            k: 1,
        };
        assert_eq!(Request::peek_kind(&req.encode()), Some(RequestKind::Knn));
        assert_eq!(Request::peek_kind(&[0x7F]), None);
        assert_eq!(Request::peek_kind(&[]), None);
    }

    #[test]
    fn busy_response_round_trips() {
        let payload = Response::Busy.encode();
        assert_eq!(
            Response::decode(&payload, RequestKind::Knn).unwrap(),
            Response::Busy
        );
    }

    #[test]
    fn stats_round_trips() {
        let stats = ServerStats {
            len: 1,
            dim: 2,
            num_shards: 3,
            spilled_shards: 4,
            served_requests: 5,
            batched_joins: 6,
            cache_hits: 7,
            cache_misses: 8,
            busy_rejections: 9,
            deadline_expirations: 10,
            degraded_joins: 11,
        };
        let payload = Response::Stats(stats).encode();
        assert_eq!(
            Response::decode(&payload, RequestKind::Stats).unwrap(),
            Response::Stats(stats)
        );
    }

    #[test]
    fn errors_carry_their_message() {
        let payload = Response::Error("dimension mismatch".into()).encode();
        assert_eq!(
            Response::decode(&payload, RequestKind::Knn).unwrap(),
            Response::Error("dimension mismatch".into())
        );
    }

    #[test]
    fn corrupt_knn_payload_is_rejected_not_panicked() {
        assert!(Request::decode(&[OP_KNN, 1, 2, 3]).is_err());
        // Counts that disagree with the byte length (including overflow-bait).
        let mut bad = Request::Knn {
            queries: vec![vec![1.0, 2.0]],
            k: 1,
        }
        .encode();
        bad[5] = 0xFF; // inflate num_queries
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(oversized)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "got: {err}");
    }

    /// The golden-frame interop pin: the byte layout of every pre-existing frame
    /// (KNN / PING / STATS requests and their responses), written out
    /// by hand, must survive the typed-enum redesign byte for byte — an old client
    /// speaking the original free-function codec must interoperate unchanged.
    #[test]
    fn golden_frames_pin_the_pre_enum_wire_bytes() {
        // KNN request: opcode 0x01 · k=7 · 2 queries · dim 2 · [1.0, -2.5, 0.0, 3.25].
        let knn = Request::Knn {
            queries: vec![vec![1.0f32, -2.5], vec![0.0, 3.25]],
            k: 7,
        };
        #[rustfmt::skip]
        let knn_golden: Vec<u8> = vec![
            0x01,
            7, 0, 0, 0,
            2, 0, 0, 0,
            2, 0, 0, 0,
            0x00, 0x00, 0x80, 0x3F, // 1.0f32
            0x00, 0x00, 0x20, 0xC0, // -2.5f32
            0x00, 0x00, 0x00, 0x00, // 0.0f32
            0x00, 0x00, 0x50, 0x40, // 3.25f32
        ];
        assert_eq!(knn.encode(), knn_golden);

        // PING and STATS requests: a bare opcode byte.
        assert_eq!(Request::Ping.encode(), vec![0x02]);
        assert_eq!(Request::Stats.encode(), vec![0x03]);

        // KNN ok response: status 0x00 · 1 pair (query=1, id=42, score=0.75).
        let knn_ok = Response::Knn {
            pairs: vec![(1usize, 42usize, 0.75f32)],
            degraded: false,
        };
        #[rustfmt::skip]
        let knn_ok_golden: Vec<u8> = vec![
            0x00,
            1, 0, 0, 0,
            1, 0, 0, 0,
            42, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0x40, 0x3F, // 0.75f32
        ];
        assert_eq!(knn_ok.encode(), knn_ok_golden);

        // Degraded flips only the status byte.
        let knn_degraded = Response::Knn {
            pairs: vec![(1usize, 42usize, 0.75f32)],
            degraded: true,
        };
        let mut knn_degraded_golden = knn_ok_golden;
        knn_degraded_golden[0] = 0x03;
        assert_eq!(knn_degraded.encode(), knn_degraded_golden);

        // PING ok response: a bare status byte.
        assert_eq!(Response::Pong.encode(), vec![0x00]);

        // STATS ok response: status 0x00 · 11 u64 fields in declaration order.
        let stats = Response::Stats(ServerStats {
            len: 1,
            dim: 2,
            num_shards: 3,
            spilled_shards: 4,
            served_requests: 5,
            batched_joins: 6,
            cache_hits: 7,
            cache_misses: 8,
            busy_rejections: 9,
            deadline_expirations: 10,
            degraded_joins: 11,
        });
        let mut stats_golden = vec![0x00];
        for v in 1u64..=11 {
            stats_golden.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(stats.encode(), stats_golden);

        // BUSY: a bare status byte. ERROR: status 0x01 · length · UTF-8 message.
        assert_eq!(Response::Busy.encode(), vec![0x02]);
        let error = Response::Error("no".into());
        assert_eq!(error.encode(), vec![0x01, 2, 0, 0, 0, b'n', b'o']);
    }
}
