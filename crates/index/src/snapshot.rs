//! Persistent whole-index snapshots: build once, serve from any process.
//!
//! Every layer below this one keeps the blocking index fast *within* one process; this
//! module makes it durable *across* processes (ROADMAP: "a multi-process/RPC shard
//! server for true multi-machine corpora" — the server half lives in `sudowoodo-serve`).
//! A snapshot is a directory holding:
//!
//! * **`MANIFEST.swidx`** — a small versioned binary manifest: layout, dimensions,
//!   shard capacity, id maps, tombstones, and the exact per-shard routing statistics
//!   (centroid, radius, *and* the `f64` running sum, so post-load appends stay as tight
//!   as they would have been without the round trip);
//! * **one payload file per shard** (`shard-<i>.bin`, or `dense.bin` for the dense
//!   layout) in the exact [`crate::storage`] spill format (`SWSHARD1`, or `SWSHARDQ1`
//!   for a quantized shard) — so a shard that is already spilled to disk snapshots with
//!   a plain file copy, never deserialized, and a resident shard is written by the same
//!   streaming writer the spill path uses.
//!
//! ## Cold loads: warm-start is O(manifest), not O(corpus)
//!
//! [`ShardedCosineIndex::load_snapshot`] reads **only the manifest**. Every shard comes
//! up in the spilled state, backed by a *non-owning* handle onto the snapshot payload
//! (the snapshot is never deleted by loaded indexes — any number of processes can serve
//! from one directory). Treat a published snapshot as **immutable**: cold loaders
//! re-read payload files lazily by path, so overwriting a directory while another
//! *live process* is serving from it is uncoordinated — that process could pair its
//! old manifest with new payload bytes. To republish, write a fresh directory and
//! switch readers over (e.g. an atomic symlink swap); overwriting is safe only when
//! no other process currently serves the directory.
//!
//! Queries fault shards transiently exactly like spilled shards,
//! routing statistics (restored from the manifest, not recomputed) keep pruned shards
//! from ever touching the payload files, and the first `compact()` applies the regular
//! [`crate::ShardedCosineIndex::set_memory_budget`] LRU policy — faulting the hot
//! shards resident (all of them, when no budget is set) and leaving the cold ones on
//! disk.
//!
//! ## Equivalence contract
//!
//! A snapshot round trip is **bit-identical**: payloads are the shard matrices
//! bit-for-bit (including the row-group zero padding), ids/tombstones/routing statistics
//! are preserved exactly, so a loaded index returns id- and score-identical `knn_join`
//! results to the index that was saved — spilled, routed, compacted, or not. The
//! `snapshot_roundtrip` integration tests pin this on the 2k×10k fixture with spill
//! forced and routing on.
//!
//! ## Manifest format (`SWINDEX1`)
//!
//! All integers little-endian; `f32`/`f64` as IEEE-754 bits, little-endian.
//!
//! ```text
//! magic    b"SWINDEX1"          (version baked into the magic)
//! layout   u8                   0 = dense, 1 = sharded
//!
//! dense:   dim u64 · len u64 · payload_rows u64            (payload: dense.bin)
//!
//! sharded: dim u64 · shard_capacity u64 · next_id u64 · live u64 · num_shards u64
//!          then per shard i (payload: shard-<i>.bin):
//!            rows u64 · cols u64                            (payload matrix shape)
//!            kind u8                                        (0 = SWSHARD1 f32, 1 = SWSHARDQ1 quantized)
//!            n u64 · ids u64×n · deleted bitmask ⌈n/8⌉ bytes · live u64
//!            stats: counted u64 · radius f32
//!                   centroid_len u64 · centroid f32×len
//!                   sum_len u64 · sum f64×len
//!
//! trailer  CRC-32 (ISO-HDLC) of every preceding byte, u32 little-endian
//! ```
//!
//! The manifest is written to a temporary name and atomically renamed into place after
//! every payload file has been written, so a crashed save never publishes a manifest
//! pointing at missing payloads, and it carries a **CRC-32 trailer** over every
//! preceding byte — a manifest torn by a crash mid-write (or bit-rotted on disk) is
//! rejected with a typed error instead of being half-parsed. Payload file lengths are
//! validated against the manifest at load time (with checked arithmetic — a recorded
//! shape no file can have is corruption), the payload header and CRC when the file is
//! first read, and a shard whose payload fails validation is loaded
//! **quarantined** (see [`crate::JoinOutcome`]) so one corrupt file degrades — not
//! aborts — the snapshot: the readable shards serve while the quarantined ones wait
//! for a `compact()` to recover or drop them.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64};

use sudowoodo_faults as faults;

use crate::blocking::BlockingIndex;
use crate::cache::QueryCache;
use crate::knn::CosineIndex;
use crate::routing::RoutingStats;
use crate::sharded::{QuantSpec, RoutingCounters, Shard, ShardedCosineIndex};
use crate::storage::{crc32, write_payload, Format, PayloadFile, ShardStorage};

/// File name of the snapshot manifest inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST.swidx";

/// Magic prefix of a manifest; the trailing `1` is the format version.
pub(crate) const MAGIC: &[u8; 8] = b"SWINDEX1";

/// Layout tag of a dense snapshot.
const LAYOUT_DENSE: u8 = 0;
/// Layout tag of a sharded snapshot.
const LAYOUT_SHARDED: u8 = 1;

/// Payload file name of the dense layout.
const DENSE_PAYLOAD: &str = "dense.bin";

/// Payload file name of shard `i` (shared with the [`crate::delta`] format, whose local
/// payloads use the same naming).
pub(crate) fn shard_payload(i: usize) -> String {
    format!("shard-{i}.bin")
}

/// `InvalidData` error prefixed with a manifest location (shared with [`crate::delta`]).
pub(crate) fn corrupt_at(manifest: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("snapshot {}: {what}", manifest.display()),
    )
}

/// `InvalidData` error prefixed with the manifest location.
fn corrupt(dir: &Path, what: impl std::fmt::Display) -> io::Error {
    corrupt_at(&dir.join(MANIFEST_FILE), what)
}

// ---- little-endian primitives (shared with `crate::delta`) --------------------------

pub(crate) fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn w_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn w_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn r_usize(r: &mut impl Read) -> io::Result<usize> {
    r_u64(r).map(|v| v as usize)
}

pub(crate) fn r_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

pub(crate) fn r_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Writes `payload` bytes (or runs the writer) to `<dest>.tmp`, then atomically renames
/// onto `dest` — readers of a concurrently overwritten snapshot never see half a file.
///
/// Failpoint `snapshot.rename.skip`: errors out after the temp file is fully written
/// but before the rename — the on-disk shape of a crash between the two syscalls (the
/// destination keeps its old content; the `.bin.tmp` leftover is swept by the next
/// successful save's [`remove_stale_payloads`]).
pub(crate) fn write_file_atomic(
    dest: &Path,
    write: impl FnOnce(&Path) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = dest.with_extension("bin.tmp");
    write(&tmp)?;
    if faults::fires("snapshot.rename.skip") {
        return Err(io::Error::other(
            "failpoint snapshot.rename.skip: simulated crash before rename",
        ));
    }
    fs::rename(&tmp, dest)
}

// ---- per-shard record I/O (shared with `crate::delta`) ------------------------------

/// Serializes one shard's manifest record (shape, ids, tombstones, live count, routing
/// statistics) — the byte layout shared by `SWINDEX1` and `SWDELTA1` manifests.
pub(crate) fn write_shard_record(w: &mut Vec<u8>, shard: &Shard) -> io::Result<()> {
    w_u64(w, shard.storage.rows() as u64)?;
    w_u64(w, shard.storage.cols() as u64)?;
    // Storage kind: which payload format backs this shard. Drives the load-time
    // length check and handle type; the payload's own magic is re-verified on fault.
    w.write_all(&[shard.storage.is_quantized() as u8])?;
    w_u64(w, shard.ids.len() as u64)?;
    for &id in &shard.ids {
        w_u64(w, id as u64)?;
    }
    for byte_group in shard.deleted.chunks(8) {
        let mut byte = 0u8;
        for (bit, &dead) in byte_group.iter().enumerate() {
            byte |= (dead as u8) << bit;
        }
        w.write_all(&[byte])?;
    }
    w_u64(w, shard.live as u64)?;
    let (centroid, radius, sum, counted) = shard.stats.snapshot_parts();
    w_u64(w, counted as u64)?;
    w_f32(w, radius)?;
    w_u64(w, centroid.len() as u64)?;
    for &c in centroid {
        w_f32(w, c)?;
    }
    w_u64(w, sum.len() as u64)?;
    for &s in sum {
        w_f64(w, s)?;
    }
    Ok(())
}

/// One shard's manifest record, parsed and validated but not yet bound to a payload.
pub(crate) struct ShardRecord {
    /// Payload matrix row count (including the row-group zero padding).
    pub rows: usize,
    /// Payload matrix column count (== the index dimension).
    pub cols: usize,
    /// Which payload format backs the shard.
    pub format: Format,
    /// Stable ids of the shard's slots, ascending.
    pub ids: Vec<usize>,
    /// Tombstone per slot.
    pub deleted: Vec<bool>,
    /// Live (non-tombstoned) slots.
    pub live: usize,
    /// Routing statistics, restored exactly.
    pub stats: RoutingStats,
}

/// Parses and validates one shard record — the inverse of [`write_shard_record`].
/// `prev_id` threads the cross-shard ascending-id check; errors name `manifest`.
pub(crate) fn read_shard_record(
    manifest: &Path,
    r: &mut impl Read,
    i: usize,
    dim: usize,
    shard_capacity: usize,
    next_id: usize,
    prev_id: &mut Option<usize>,
) -> io::Result<ShardRecord> {
    let rows = r_usize(r)?;
    let cols = r_usize(r)?;
    if cols != dim {
        return Err(corrupt_at(
            manifest,
            format!("shard {i} payload has {cols} columns, index dimension is {dim}"),
        ));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    if kind[0] > 1 {
        return Err(corrupt_at(
            manifest,
            format!("shard {i} has unknown storage kind {}", kind[0]),
        ));
    }
    let format = if kind[0] == 1 {
        Format::Quantized
    } else {
        Format::Exact
    };
    let n = r_usize(r)?;
    if n > rows || n > shard_capacity || n > next_id {
        return Err(corrupt_at(
            manifest,
            format!(
                "shard {i} claims {n} rows against a {rows}-row payload, \
                 capacity {shard_capacity}, and next_id {next_id}"
            ),
        ));
    }
    // `n` is now bounded by next_id (ids are distinct and below it), so this
    // preallocation cannot be driven huge by a corrupt count alone; the payload
    // length check at open time catches inflated `rows`.
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r_usize(r)?;
        if prev_id.is_some_and(|p| p >= id) || id >= next_id {
            return Err(corrupt_at(
                manifest,
                format!("shard {i} ids are not ascending"),
            ));
        }
        *prev_id = Some(id);
        ids.push(id);
    }
    let mut deleted = Vec::with_capacity(n);
    let mut mask = vec![0u8; n.div_ceil(8)];
    r.read_exact(&mut mask)?;
    for bit in 0..n {
        deleted.push(mask[bit / 8] >> (bit % 8) & 1 == 1);
    }
    let live = r_usize(r)?;
    if live != deleted.iter().filter(|d| !**d).count() {
        return Err(corrupt_at(
            manifest,
            format!("shard {i} live count disagrees with its tombstones"),
        ));
    }
    let counted = r_usize(r)?;
    let radius = r_f32(r)?;
    // Routing-stat vectors are either empty (no covered rows) or exactly `dim`
    // wide; any other length is corruption — reject it *before* allocating, so a
    // bit-flipped count turns into a clean error, not a huge allocation.
    let centroid_len = r_usize(r)?;
    if centroid_len != 0 && centroid_len != dim {
        return Err(corrupt_at(
            manifest,
            format!("shard {i} centroid has {centroid_len} entries, expected 0 or {dim}"),
        ));
    }
    let mut centroid = Vec::with_capacity(centroid_len);
    for _ in 0..centroid_len {
        centroid.push(r_f32(r)?);
    }
    let sum_len = r_usize(r)?;
    if sum_len != 0 && sum_len != dim {
        return Err(corrupt_at(
            manifest,
            format!("shard {i} stat sum has {sum_len} entries, expected 0 or {dim}"),
        ));
    }
    let mut sum = Vec::with_capacity(sum_len);
    for _ in 0..sum_len {
        sum.push(r_f64(r)?);
    }
    let stats = RoutingStats::from_snapshot_parts(centroid, radius, sum, counted);
    Ok(ShardRecord {
        rows,
        cols,
        format,
        ids,
        deleted,
        live,
        stats,
    })
}

/// Opens a shard payload for a cold load. A payload that fails validation (missing,
/// truncated, wrong size) does not abort the load: the shard comes up **quarantined** —
/// skipped by queries, flagged degraded in every [`crate::JoinOutcome`] — and the
/// readable shards serve. The next `compact()` retries the payload and recovers or
/// drops the shard. Shared by the full-snapshot and delta-chain loaders.
pub(crate) fn open_payload_quarantining(
    dir: &Path,
    i: usize,
    payload: PathBuf,
    record: &ShardRecord,
) -> (ShardStorage, bool) {
    let file = PayloadFile::open(payload, record.format, record.rows, record.cols);
    let quarantined = match file.check_length() {
        Ok(()) => false,
        Err(e) => {
            eprintln!(
                "warning: snapshot load {}: quarantining shard with invalid \
                 payload (degraded results until compact): {}",
                dir.display(),
                e.with_shard(i)
            );
            true
        }
    };
    (ShardStorage::Spilled(file), quarantined)
}

// ---- save ---------------------------------------------------------------------------

/// Saves a sharded index into `dir` (created if missing). See
/// [`ShardedCosineIndex::save_snapshot`] for the public contract.
pub(crate) fn save_sharded(index: &ShardedCosineIndex, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for (i, shard) in index.shards.iter().enumerate() {
        shard.storage.persist(dir, &dir.join(shard_payload(i)))?;
    }
    // The manifest body is built in memory (it is O(shards), small next to the
    // payloads) so the CRC-32 trailer covers exactly the bytes written and a torn
    // write can be simulated byte-precisely.
    let manifest = dir.join(MANIFEST_FILE);
    let mut w: Vec<u8> = Vec::new();
    w.write_all(MAGIC)?;
    w.write_all(&[LAYOUT_SHARDED])?;
    w_u64(&mut w, index.dim as u64)?;
    w_u64(&mut w, index.shard_capacity as u64)?;
    w_u64(&mut w, index.next_id as u64)?;
    w_u64(&mut w, index.live as u64)?;
    w_u64(&mut w, index.shards.len() as u64)?;
    for shard in &index.shards {
        write_shard_record(&mut w, shard)?;
    }
    w.extend_from_slice(&crc32(&w).to_le_bytes());
    // Failpoint `snapshot.manifest.torn`: half the manifest reaches disk *at its final
    // name* (the shape of a lost rename journal or torn sector) — the CRC trailer is
    // what keeps a later load from trusting it.
    if faults::fires("snapshot.manifest.torn") {
        fs::write(&manifest, &w[..w.len() / 2])?;
        return Err(io::Error::other(
            "failpoint snapshot.manifest.torn: simulated torn manifest write",
        ));
    }
    write_file_atomic(&manifest, |tmp| fs::write(tmp, &w))?;
    remove_stale_payloads(dir, Some(index.shards.len()))
}

/// Saves a dense index into `dir` (created if missing).
pub(crate) fn save_dense(index: &CosineIndex, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write_file_atomic(&dir.join(DENSE_PAYLOAD), |tmp| {
        write_payload(tmp, index.matrix(), None)
    })?;
    let mut w: Vec<u8> = Vec::new();
    w.write_all(MAGIC)?;
    w.write_all(&[LAYOUT_DENSE])?;
    w_u64(&mut w, index.dim() as u64)?;
    w_u64(&mut w, index.len() as u64)?;
    w_u64(&mut w, index.matrix().rows() as u64)?;
    w.extend_from_slice(&crc32(&w).to_le_bytes());
    write_file_atomic(&dir.join(MANIFEST_FILE), |tmp| fs::write(tmp, &w))?;
    remove_stale_payloads(dir, None)
}

/// Removes payload files a previous (larger or different-layout) snapshot left behind,
/// so the directory holds exactly the current snapshot. Only files matching this
/// module's own naming scheme are ever touched. Best-effort: a failed removal never
/// fails the save (the manifest already ignores stale files).
fn remove_stale_payloads(dir: &Path, shards: Option<usize>) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // Leftover atomic-write temporaries from a crashed save are always stale, and
        // so is a delta manifest once a *full* snapshot is saved over the directory —
        // leaving it would make a later load resolve the old chain instead.
        if name.ends_with(".bin.tmp") || name == crate::delta::DELTA_MANIFEST_FILE {
            let _ = fs::remove_file(entry.path());
            continue;
        }
        let stale = match shards {
            // Sharded snapshot: the dense payload and any shard index beyond the count.
            Some(count) => {
                name == DENSE_PAYLOAD
                    || name
                        .strip_prefix("shard-")
                        .and_then(|rest| rest.strip_suffix(".bin"))
                        .and_then(|i| i.parse::<usize>().ok())
                        .is_some_and(|i| i >= count)
            }
            // Dense snapshot: every shard payload is stale.
            None => name.starts_with("shard-") && name.ends_with(".bin"),
        };
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

// ---- load ---------------------------------------------------------------------------

/// Reads and CRC-verifies the whole manifest, returning the layout byte and a reader
/// positioned after the header. Verification up front means a manifest torn by a
/// crashed save (or bit-rotted on disk) is rejected as a unit — the per-field parser
/// below never sees half-written bytes.
fn open_manifest(dir: &Path) -> io::Result<(u8, io::Cursor<Vec<u8>>)> {
    let path = dir.join(MANIFEST_FILE);
    let mut bytes = fs::read(&path)?;
    if bytes.len() < MAGIC.len() + 1 + 4 {
        return Err(corrupt(dir, "manifest is truncated"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt(dir, "bad magic (not a Sudowoodo index snapshot)"));
    }
    let body_len = bytes.len() - 4;
    let recorded = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    if crc32(&bytes[..body_len]) != recorded {
        return Err(corrupt(
            dir,
            "manifest CRC-32 mismatch (torn by a crashed save, or corrupt on disk)",
        ));
    }
    bytes.truncate(body_len);
    let layout = bytes[MAGIC.len()];
    let mut r = io::Cursor::new(bytes);
    r.set_position((MAGIC.len() + 1) as u64);
    Ok((layout, r))
}

/// Loads a sharded snapshot cold. See [`ShardedCosineIndex::load_snapshot`].
///
/// A directory published by [`ShardedCosineIndex::save_delta_snapshot`] (detected by
/// its `DELTA.swdel` manifest) loads through the delta chain instead — see
/// [`crate::delta`].
pub(crate) fn load_sharded(dir: &Path) -> io::Result<ShardedCosineIndex> {
    if dir.join(crate::delta::DELTA_MANIFEST_FILE).is_file() {
        return crate::delta::load_delta(dir);
    }
    let (layout, mut r) = open_manifest(dir)?;
    if layout != LAYOUT_SHARDED {
        return Err(corrupt(
            dir,
            "holds the dense layout; load it through BlockingIndex::load_snapshot",
        ));
    }
    read_sharded_body(dir, &mut r)
}

fn read_sharded_body(dir: &Path, r: &mut impl Read) -> io::Result<ShardedCosineIndex> {
    let dim = r_usize(r)?;
    let shard_capacity = r_usize(r)?;
    let next_id = r_usize(r)?;
    let live = r_usize(r)?;
    let num_shards = r_usize(r)?;
    if shard_capacity == 0 {
        return Err(corrupt(dir, "shard capacity 0"));
    }
    // Clamp the preallocation: `num_shards` is still untrusted here (the per-shard
    // records below validate it implicitly by running out of manifest bytes).
    let mut shards = Vec::with_capacity(num_shards.min(1024));
    let mut live_seen = 0usize;
    let mut prev_id: Option<usize> = None;
    let manifest = dir.join(MANIFEST_FILE);
    for i in 0..num_shards {
        let record =
            read_shard_record(&manifest, r, i, dim, shard_capacity, next_id, &mut prev_id)?;
        live_seen += record.live;
        let (storage, quarantined) =
            open_payload_quarantining(dir, i, dir.join(shard_payload(i)), &record);
        shards.push(Shard {
            storage,
            ids: record.ids,
            deleted: record.deleted,
            live: record.live,
            stats: record.stats,
            last_used: AtomicU64::new(0),
            quarantined: AtomicBool::new(quarantined),
        });
    }
    if live_seen != live {
        return Err(corrupt(dir, "total live count disagrees with the shards"));
    }
    // The on-disk payload formats win at load time; the index-level setting follows
    // them so a later `compact` preserves what was saved rather than silently
    // re-encoding. `set_quantization` overrides (typed cross-load behavior: a
    // dense-saved snapshot serves dense until the next compact re-encodes it, and
    // vice versa).
    let quantization = shards
        .iter()
        .any(|s| s.storage.is_quantized())
        .then(QuantSpec::default);
    Ok(ShardedCosineIndex {
        shard_capacity,
        dim,
        next_id,
        live,
        shards,
        memory_budget: None,
        spill_dir: None,
        clock: AtomicU64::new(0),
        counters: RoutingCounters::default(),
        epoch: AtomicU64::new(0),
        cache: QueryCache::new(0),
        quantization,
    })
}

/// Loads either layout behind the [`BlockingIndex`] API. See
/// [`BlockingIndex::load_snapshot`].
pub(crate) fn load_blocking(dir: &Path) -> io::Result<BlockingIndex> {
    if dir.join(crate::delta::DELTA_MANIFEST_FILE).is_file() {
        return crate::delta::load_delta(dir).map(BlockingIndex::Sharded);
    }
    let (layout, mut r) = open_manifest(dir)?;
    match layout {
        LAYOUT_SHARDED => read_sharded_body(dir, &mut r).map(BlockingIndex::Sharded),
        LAYOUT_DENSE => {
            let dim = r_usize(&mut r)?;
            let len = r_usize(&mut r)?;
            let rows = r_usize(&mut r)?;
            if len > rows {
                return Err(corrupt(dir, "dense length exceeds the payload rows"));
            }
            // The dense layout is one monolithic matrix, so there is no cold state to
            // load into — the payload is read here (the sharded layout is the one that
            // starts cold). There is also nothing to degrade around: a single corrupt
            // payload *is* the whole index, so it fails the load with a typed error
            // (with the storage layer's retry backoff for transient faults).
            let payload = PayloadFile::open(dir.join(DENSE_PAYLOAD), Format::Exact, rows, dim);
            let matrix = ShardStorage::Spilled(payload).matrix()?.into_owned();
            Ok(BlockingIndex::Dense(CosineIndex::from_normalized_parts(
                matrix, len,
            )))
        }
        other => Err(corrupt(dir, format!("unknown layout tag {other}"))),
    }
}

/// Saves either layout behind the [`BlockingIndex`] API. See
/// [`BlockingIndex::save_snapshot`].
pub(crate) fn save_blocking(index: &BlockingIndex, dir: &Path) -> io::Result<()> {
    match index {
        BlockingIndex::Dense(dense) => save_dense(dense, dir),
        BlockingIndex::Sharded(sharded) => save_sharded(sharded, dir),
    }
}
