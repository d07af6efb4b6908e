//! Incremental **delta snapshots**: publish what changed, inherit what didn't.
//!
//! A full [`crate::snapshot`] rewrites (or at least re-copies) every shard payload. For
//! a streaming corpus that appends a few thousand rows and tombstones a handful between
//! publishes, that is O(corpus) I/O for an O(delta) change. A delta snapshot is a
//! directory holding:
//!
//! * **`DELTA.swdel`** — a versioned manifest naming a **base snapshot** (full or
//!   itself a delta — chains compose) plus the *complete* shard table of the new
//!   epoch: per shard, either a **local** payload written into this directory or an
//!   **inherited** reference to a base shard's payload, resolved through the chain at
//!   load time. Ids, tombstones, and routing statistics are always recorded fresh —
//!   so a tombstone-only change inherits the payload and costs a few manifest bytes;
//! * **local payload files** (`shard-<i>.bin`) in the same `SWSHARD1` format full
//!   snapshots use, only for shards whose matrix actually changed.
//!
//! ## Epoch fingerprint: a republished base invalidates the chain
//!
//! The delta manifest records the **CRC-32 trailer of the base's manifest** as the base
//! epoch fingerprint. Load re-reads the base manifest and compares: a base that was
//! republished (same directory, different content) since the delta was saved makes the
//! chain typed-invalid instead of silently pairing the delta's shard table with
//! foreign payloads. Same discipline as the snapshot module's immutable-publish rule.
//!
//! ## Change detection at save time
//!
//! [`crate::ShardedCosineIndex::save_delta_snapshot`] inherits a shard iff its storage
//! is **spilled onto a payload file of the (chain-resolved) base** — which is exactly
//! the natural state of a cold-loaded snapshot: every shard starts as a non-owning
//! handle on a base payload, and only the shards that `add_batch` / `compact` /
//! `repack` actually touched become resident (or re-spill elsewhere) and need a local
//! write. `remove` only flips a tombstone, so it never un-inherits a payload.
//!
//! ## Atomic publish & crash consistency
//!
//! Local payloads are written first, the manifest last via the same write-to-temp +
//! atomic-rename as full snapshots. A crash anywhere before the manifest rename leaves
//! the target directory without a readable `DELTA.swdel` (a torn manifest fails its
//! CRC, typed) — the base stays untouched and loadable. Failpoints:
//! `delta.manifest.torn` (half a manifest at the final name), plus the shared
//! `snapshot.payload.torn` / `snapshot.rename.skip` on the payload/rename path.
//!
//! ## Manifest format (`SWDELTA1`)
//!
//! All integers little-endian.
//!
//! ```text
//! magic      b"SWDELTA1"
//! base_kind  u8                 0 = full base (MANIFEST.swidx), 1 = delta base (DELTA.swdel)
//! base_ref   len u64 · UTF-8    sibling directory name (or a path when not a sibling)
//! base_crc   u32                CRC-32 trailer of the base's manifest (epoch fingerprint)
//! dim u64 · shard_capacity u64 · next_id u64 · live u64 · num_shards u64
//! then per shard i:
//!   source u8                   0 = local payload shard-<i>.bin, 1 = inherited
//!   base_shard u64              (present only when source = 1)
//!   <shard record>              identical byte layout to the SWINDEX1 per-shard record
//! trailer    CRC-32 (ISO-HDLC) of every preceding byte, u32 little-endian
//! ```

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64};

use sudowoodo_faults as faults;

use crate::cache::QueryCache;
use crate::sharded::{QuantSpec, RoutingCounters, Shard, ShardedCosineIndex};
use crate::snapshot::{
    corrupt_at, open_payload_quarantining, r_usize, read_shard_record, shard_payload, w_u64,
    write_file_atomic, write_shard_record, MANIFEST_FILE,
};
use crate::storage::{crc32, same_file};

/// File name of the delta manifest inside a delta-snapshot directory. Its presence is
/// what routes [`crate::ShardedCosineIndex::load_snapshot`] through the chain loader.
pub const DELTA_MANIFEST_FILE: &str = "DELTA.swdel";

/// Magic prefix of a delta manifest; the trailing `1` is the format version.
const MAGIC: &[u8; 8] = b"SWDELTA1";

/// `base_kind` tag: the base directory holds a full `SWINDEX1` snapshot.
const BASE_FULL: u8 = 0;
/// `base_kind` tag: the base directory holds another delta (chains compose).
const BASE_DELTA: u8 = 1;

/// `source` tag: the shard's payload was written into the delta directory.
const SOURCE_LOCAL: u8 = 0;
/// `source` tag: the shard's payload is a base shard's payload, chain-resolved.
const SOURCE_BASE: u8 = 1;

/// Longest supported base chain. Deep chains only cost O(manifests) at load, but a
/// bound turns a reference cycle on disk into a typed error instead of a hang.
const MAX_CHAIN: usize = 64;

/// Upper bound on the recorded base-reference length — a corrupt length errors out
/// before allocating.
const MAX_BASE_REF: usize = 4096;

/// What [`crate::ShardedCosineIndex::save_delta_snapshot`] published.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSaveReport {
    /// Shards whose payload was written into the delta directory (changed shards).
    pub written_shards: usize,
    /// Shards inherited from the base chain (payload not rewritten or copied).
    pub inherited_shards: usize,
}

/// Reads the base directory's manifest (full or delta), verifying magic and CRC, and
/// returns its kind tag plus the CRC-32 trailer — the base's epoch fingerprint.
fn base_manifest_of(base_dir: &Path) -> io::Result<(u8, u32)> {
    let delta = base_dir.join(DELTA_MANIFEST_FILE);
    let (kind, path, magic): (u8, PathBuf, &[u8; 8]) = if delta.is_file() {
        (BASE_DELTA, delta, MAGIC)
    } else {
        (
            BASE_FULL,
            base_dir.join(MANIFEST_FILE),
            crate::snapshot::MAGIC,
        )
    };
    let bytes = fs::read(&path)
        .map_err(|e| io::Error::new(e.kind(), format!("delta base {}: {e}", base_dir.display())))?;
    if bytes.len() < magic.len() + 4 {
        return Err(corrupt_at(&path, "manifest is truncated"));
    }
    if &bytes[..magic.len()] != magic {
        return Err(corrupt_at(
            &path,
            "bad magic (not a Sudowoodo snapshot manifest)",
        ));
    }
    let body_len = bytes.len() - 4;
    let recorded = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    if crc32(&bytes[..body_len]) != recorded {
        return Err(corrupt_at(
            &path,
            "manifest CRC-32 mismatch (torn by a crashed save, or corrupt on disk)",
        ));
    }
    Ok((kind, recorded))
}

// ---- save ---------------------------------------------------------------------------

/// Publishes `index` into `dir` as a delta over `base_dir`. See
/// [`crate::ShardedCosineIndex::save_delta_snapshot`] for the public contract.
pub(crate) fn save_delta(
    index: &ShardedCosineIndex,
    base_dir: &Path,
    dir: &Path,
) -> io::Result<DeltaSaveReport> {
    if same_file(base_dir, dir) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "delta snapshot into {}: base and target are the same directory",
                dir.display()
            ),
        ));
    }
    fs::create_dir_all(dir)?;
    if dir.join(MANIFEST_FILE).is_file() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "delta snapshot into {}: directory already holds a full snapshot \
                 (publish each epoch into a fresh directory)",
                dir.display()
            ),
        ));
    }
    let (base_kind, base_crc) = base_manifest_of(base_dir)?;
    // Resolve the base chain by cold-loading it — O(manifests), no payload reads.
    // This also re-validates the whole chain before anything references it.
    let base = crate::snapshot::load_sharded(base_dir)?;
    if base.dim != index.dim || base.shard_capacity != index.shard_capacity {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "delta snapshot into {}: geometry changed against base {} \
                 (dim {} vs {}, shard capacity {} vs {}) — save a full snapshot instead",
                dir.display(),
                base_dir.display(),
                index.dim,
                base.dim,
                index.shard_capacity,
                base.shard_capacity,
            ),
        ));
    }
    // The chain-resolved payload file of every base shard, canonicalized. A shard of
    // `index` still spilled onto one of these files is unchanged and inherits.
    let mut base_payloads: HashMap<PathBuf, usize> = HashMap::new();
    for (j, shard) in base.shards.iter().enumerate() {
        if let Some(Ok(canonical)) = shard.storage.backing_file().map(fs::canonicalize) {
            base_payloads.insert(canonical, j);
        }
    }
    let mut sources: Vec<Option<usize>> = Vec::with_capacity(index.shards.len());
    let mut written = 0usize;
    for (i, shard) in index.shards.iter().enumerate() {
        // A shard still spilled onto a chain-resolved base payload (either format) is
        // unchanged and inherits; resident shards always write locally.
        let inherited = shard
            .storage
            .backing_file()
            .and_then(|p| fs::canonicalize(p).ok())
            .and_then(|canonical| base_payloads.get(&canonical).copied());
        if let Some(j) = inherited {
            sources.push(Some(j));
            continue;
        }
        shard.storage.persist(dir, &dir.join(shard_payload(i)))?;
        written += 1;
        sources.push(None);
    }
    // Reference the base by sibling name when possible (the snapshot tree can then be
    // relocated wholesale); fall back to the path as given.
    let sibling = dir
        .parent()
        .zip(base_dir.parent())
        .is_some_and(|(a, b)| same_file(a, b));
    let base_ref: &str = if sibling {
        base_dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "delta base {}: non-UTF-8 directory name",
                        base_dir.display()
                    ),
                )
            })?
    } else {
        base_dir.to_str().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("delta base {}: non-UTF-8 path", base_dir.display()),
            )
        })?
    };
    let manifest = dir.join(DELTA_MANIFEST_FILE);
    let mut w: Vec<u8> = Vec::new();
    w.extend_from_slice(MAGIC);
    w.push(base_kind);
    w_u64(&mut w, base_ref.len() as u64)?;
    w.extend_from_slice(base_ref.as_bytes());
    w.extend_from_slice(&base_crc.to_le_bytes());
    w_u64(&mut w, index.dim as u64)?;
    w_u64(&mut w, index.shard_capacity as u64)?;
    w_u64(&mut w, index.next_id as u64)?;
    w_u64(&mut w, index.live as u64)?;
    w_u64(&mut w, index.shards.len() as u64)?;
    for (shard, source) in index.shards.iter().zip(&sources) {
        match source {
            Some(j) => {
                w.push(SOURCE_BASE);
                w_u64(&mut w, *j as u64)?;
            }
            None => w.push(SOURCE_LOCAL),
        }
        write_shard_record(&mut w, shard)?;
    }
    w.extend_from_slice(&crc32(&w).to_le_bytes());
    // Failpoint `delta.manifest.torn`: half the manifest reaches disk at its final
    // name — the CRC trailer is what keeps a later load from trusting it.
    if faults::fires("delta.manifest.torn") {
        fs::write(&manifest, &w[..w.len() / 2])?;
        return Err(io::Error::other(
            "failpoint delta.manifest.torn: simulated torn delta manifest write",
        ));
    }
    write_file_atomic(&manifest, |tmp| fs::write(tmp, &w))?;
    remove_stale_delta_files(dir, &sources);
    Ok(DeltaSaveReport {
        written_shards: written,
        inherited_shards: sources.iter().filter(|s| s.is_some()).count(),
    })
}

/// Removes files a previous save into `dir` left behind that the just-published
/// manifest does not reference: atomic-write temporaries, a dense payload, and local
/// shard payloads for positions that are now inherited or beyond the shard count.
/// Best-effort, like the full-snapshot sweep — the manifest already ignores them.
fn remove_stale_delta_files(dir: &Path, sources: &[Option<usize>]) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name.ends_with(".bin.tmp")
            || name == "dense.bin"
            || name
                .strip_prefix("shard-")
                .and_then(|rest| rest.strip_suffix(".bin"))
                .and_then(|i| i.parse::<usize>().ok())
                .is_some_and(|i| i >= sources.len() || sources[i].is_some());
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
}

// ---- load ---------------------------------------------------------------------------

/// Loads a delta-snapshot directory cold, resolving the base chain. See
/// [`crate::ShardedCosineIndex::load_snapshot`] — delta directories are detected and
/// routed here automatically.
pub(crate) fn load_delta(dir: &Path) -> io::Result<ShardedCosineIndex> {
    load_delta_depth(dir, 0)
}

fn load_delta_depth(dir: &Path, depth: usize) -> io::Result<ShardedCosineIndex> {
    let manifest = dir.join(DELTA_MANIFEST_FILE);
    if depth >= MAX_CHAIN {
        return Err(corrupt_at(
            &manifest,
            format!("delta chain deeper than {MAX_CHAIN} (reference cycle on disk?)"),
        ));
    }
    let mut bytes = fs::read(&manifest)?;
    if bytes.len() < MAGIC.len() + 1 + 4 {
        return Err(corrupt_at(&manifest, "manifest is truncated"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt_at(
            &manifest,
            "bad magic (not a Sudowoodo delta manifest)",
        ));
    }
    let body_len = bytes.len() - 4;
    let recorded = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    if crc32(&bytes[..body_len]) != recorded {
        return Err(corrupt_at(
            &manifest,
            "manifest CRC-32 mismatch (torn by a crashed save, or corrupt on disk)",
        ));
    }
    bytes.truncate(body_len);
    let mut r = io::Cursor::new(bytes);
    r.set_position(MAGIC.len() as u64);
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)?;
    let base_kind = byte[0];
    if base_kind != BASE_FULL && base_kind != BASE_DELTA {
        return Err(corrupt_at(
            &manifest,
            format!("unknown base kind tag {base_kind}"),
        ));
    }
    let ref_len = r_usize(&mut r)?;
    if ref_len > MAX_BASE_REF {
        return Err(corrupt_at(
            &manifest,
            format!("base reference of {ref_len} bytes exceeds the {MAX_BASE_REF} bound"),
        ));
    }
    let mut ref_bytes = vec![0u8; ref_len];
    r.read_exact(&mut ref_bytes)?;
    let base_ref = String::from_utf8(ref_bytes)
        .map_err(|_| corrupt_at(&manifest, "base reference is not UTF-8"))?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let expected_base_crc = u32::from_le_bytes(crc_bytes);
    // A bare sibling name resolves against this directory's parent; anything with a
    // path component is used as a path.
    let base_path = PathBuf::from(&base_ref);
    let base_dir = if base_path.components().count() > 1 || base_path.is_absolute() {
        base_path
    } else {
        dir.parent().unwrap_or(Path::new("")).join(&base_ref)
    };
    let (found_kind, found_crc) = base_manifest_of(&base_dir)?;
    if found_kind != base_kind {
        return Err(corrupt_at(
            &manifest,
            format!(
                "base snapshot {} changed layout kind since this delta was saved",
                base_dir.display()
            ),
        ));
    }
    if found_crc != expected_base_crc {
        return Err(corrupt_at(
            &manifest,
            format!(
                "base snapshot {} was republished since this delta was saved (epoch \
                 fingerprint {found_crc:08x}, delta expects {expected_base_crc:08x}); \
                 the chain is invalid — republish the delta against the new base",
                base_dir.display()
            ),
        ));
    }
    let base = if base_kind == BASE_DELTA {
        load_delta_depth(&base_dir, depth + 1)?
    } else {
        crate::snapshot::load_sharded(&base_dir)?
    };
    let dim = r_usize(&mut r)?;
    let shard_capacity = r_usize(&mut r)?;
    let next_id = r_usize(&mut r)?;
    let live = r_usize(&mut r)?;
    let num_shards = r_usize(&mut r)?;
    if shard_capacity == 0 {
        return Err(corrupt_at(&manifest, "shard capacity 0"));
    }
    if dim != base.dim || shard_capacity != base.shard_capacity {
        return Err(corrupt_at(
            &manifest,
            format!(
                "geometry disagrees with base {} (dim {dim} vs {}, shard capacity \
                 {shard_capacity} vs {})",
                base_dir.display(),
                base.dim,
                base.shard_capacity
            ),
        ));
    }
    let mut shards = Vec::with_capacity(num_shards.min(1024));
    let mut live_seen = 0usize;
    let mut prev_id: Option<usize> = None;
    for i in 0..num_shards {
        r.read_exact(&mut byte)?;
        let source = byte[0];
        let inherited_from = match source {
            SOURCE_LOCAL => None,
            SOURCE_BASE => {
                let j = r_usize(&mut r)?;
                if j >= base.shards.len() {
                    return Err(corrupt_at(
                        &manifest,
                        format!(
                            "shard {i} inherits base shard {j}, but the base has only \
                             {} shards",
                            base.shards.len()
                        ),
                    ));
                }
                Some(j)
            }
            other => {
                return Err(corrupt_at(
                    &manifest,
                    format!("shard {i} has unknown source tag {other}"),
                ));
            }
        };
        let record = read_shard_record(
            &manifest,
            &mut r,
            i,
            dim,
            shard_capacity,
            next_id,
            &mut prev_id,
        )?;
        live_seen += record.live;
        let payload = match inherited_from {
            None => dir.join(shard_payload(i)),
            // Cold loads always come up spilled; defensive rather than reachable.
            Some(j) => base.shards[j]
                .storage
                .backing_file()
                .ok_or_else(|| {
                    corrupt_at(
                        &manifest,
                        format!("shard {i}: base shard {j} has no payload file to inherit"),
                    )
                })?
                .to_path_buf(),
        };
        let (storage, quarantined) = open_payload_quarantining(dir, i, payload, &record);
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
        return Err(corrupt_at(
            &manifest,
            "total live count disagrees with the shards",
        ));
    }
    // Disk wins at load: a chain whose resolved shards carry quantized payloads comes
    // up with the tier enabled (same rule as the full-snapshot loader).
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
