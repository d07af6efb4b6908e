//! Disk-spill storage for shards of the blocking index.
//!
//! ROADMAP names "spill cold shards to disk / mmap" as the next scale step after the
//! in-memory sharded layout: a streaming corpus eventually exceeds RAM, but most shards
//! are *cold* — they hold old rows that rarely win a top-k slot. This module gives every
//! shard matrix a [`ShardStorage`] home with two states:
//!
//! * [`ShardStorage::Resident`] — the row-major [`Matrix`] in memory (the only state
//!   that existed before this layer);
//! * [`ShardStorage::Spilled`] — the same matrix serialized to a compact on-disk file
//!   ([`SpilledShard`]), read back on demand when a query actually needs the shard.
//!
//! Which shards spill is decided by [`crate::ShardedCosineIndex`]'s residency budget
//! after `compact()` (least-recently-used shards go first); which spilled shards are
//! ever *read back* is decided by the routing statistics of [`crate::routing`] — a shard
//! whose cosine upper bound cannot enter the current top-k is skipped without touching
//! disk, which is what makes spilling and routing multiplicative.
//!
//! ## On-disk format
//!
//! A spill file is the shard matrix and nothing else, laid out for a single sequential
//! read:
//!
//! ```text
//! offset  size           field
//! 0       8              magic  b"SWSHARD1" (version baked into the magic)
//! 8       8              rows   (u64, little endian)
//! 16      8              cols   (u64, little endian)
//! 24      rows*cols*4    row-major f32 data, little endian
//! end-4   4              CRC-32 (ISO-HDLC) of every preceding byte, little endian
//! ```
//!
//! The payload is the matrix buffer bit-for-bit (including the zero padding rows up to
//! the SIMD row-quad width), so a spilled-then-faulted shard scores queries **bit
//! identically** to its resident twin — the dense/sharded equivalence contract survives
//! spilling. The CRC trailer is verified on every fault, so silent on-disk corruption
//! (a flipped bit, a truncated-then-padded file) surfaces as a typed [`StorageError`]
//! instead of wrong similarity scores. Files live in a per-index temporary directory
//! ([`SpillDir`]) that is removed when the index is dropped; individual files are
//! removed as soon as their shard is repacked or faulted back to residency.
//!
//! The same format doubles as the per-shard **payload format of persistent snapshots**
//! ([`crate::snapshot`]): a snapshot shard file is byte-identical to a spill file, so a
//! spilled shard is snapshotted with a plain file copy (no deserialization), and a
//! snapshot-loaded shard is served through the exact same fault path — just via a
//! non-owning handle ([`SpilledShard::open`]) that never deletes the snapshot.
//!
//! ## Quantized payloads (`SWSHARDQ1`)
//!
//! A shard quantized by [`QuantizedMatrix::quantize`] (i8 codes with one f32 scale per
//! row) spills and snapshots into a second format that carries **both tiers** of the
//! two-stage scan — the i8 codes the approximate scan reads and the exact f32 rows the
//! rescore tier reads, so a quantized shard still answers queries bit-identically:
//!
//! ```text
//! offset            size           field
//! 0                 9              magic  b"SWSHARDQ1"
//! 9                 7              zero padding (keeps every later field 4-byte aligned)
//! 16                8              rows   (u64, little endian)
//! 24                8              cols   (u64, little endian)
//! 32                4              max_err_norm (f32 LE, see `QuantizedMatrix`)
//! 36                4              max_row_norm (f32 LE)
//! 40                rows*4         per-row scales (f32 LE)
//! 40+4r             rows*cols*4    exact row-major f32 payload (bit-for-bit)
//! 40+4r+4rc         rows*cols      i8 codes, row-major
//! end-4             4              CRC-32 (ISO-HDLC) of every preceding byte
//! ```
//!
//! The exact payload sits at a 4-byte-aligned offset so the mmap query path
//! ([`MappedQuantShard`]) reinterprets it in place exactly like `SWSHARD1`; the codes
//! and scales are decoded into a small heap copy once per handle ([`QuantSpilledShard`])
//! — a quarter the bytes of the f32 payload, which is the whole memory-density point.
//! Torn or corrupt `SWSHARDQ1` files fail with the same typed [`StorageError`]s as
//! `SWSHARD1`, so snapshot loads quarantine them identically.
//!
//! ## Failure model
//!
//! Every fault path returns a typed [`StorageError`] naming the file (and, one layer
//! up, the shard id) instead of panicking: a vanished spill file or a corrupt payload
//! degrades the query that needed it, never the process. [`SpilledShard::load_retrying`]
//! wraps the single-attempt read with a short exponential backoff for transient
//! failures; callers that still fail after the retries quarantine the shard (see
//! [`crate::ShardedCosineIndex`]). The fault-injection points of this module
//! (`spill.read.io_err`, `spill.write.io_err`, `snapshot.payload.torn`) are armed
//! through [`sudowoodo_faults`] and compile to one relaxed atomic load when disarmed.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sudowoodo_faults as faults;
use sudowoodo_nn::matrix::{Matrix, MatrixView};

/// Magic prefix of a spill file; the trailing `1` is the format version.
const MAGIC: &[u8; 8] = b"SWSHARD1";

/// Byte length of the spill-file header (magic + rows + cols).
const HEADER_LEN: usize = 8 + 8 + 8;

/// Byte length of the CRC-32 trailer at the end of a spill file.
const TRAILER_LEN: usize = 4;

/// Read attempts a retrying fault makes in total (1 initial + 3 backoff retries).
/// Strictly below [`faults::SUPPRESS_WINDOW`], so a probabilistically injected read
/// fault always recovers within one retry loop.
pub(crate) const FAULT_ATTEMPTS: u32 = 4;

/// Sleeps the exponential fault-retry backoff for 0-based retry number `retry`
/// (1ms, 2ms, 4ms, ...). Shared by every retry loop in the crate so the policy
/// cannot drift between the storage and query layers.
pub(crate) fn fault_backoff(retry: u32) {
    std::thread::sleep(Duration::from_millis(1u64 << retry.min(6)));
}

// ---- CRC-32 (ISO-HDLC) ---------------------------------------------------------------

/// The reflected CRC-32 lookup table (polynomial 0xEDB88320), built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Incremental CRC-32/ISO-HDLC (the zlib/PNG checksum) — std-only, table-driven.
/// Shared by the spill-file payloads and the snapshot manifest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice (see [`Crc32`]).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---- typed errors --------------------------------------------------------------------

/// What went wrong inside a [`StorageError`].
#[derive(Debug)]
pub enum StorageErrorKind {
    /// The underlying I/O operation failed (file vanished, permission, injected fault).
    Io(io::Error),
    /// The bytes on disk are not a valid payload (bad magic, shape mismatch, CRC
    /// mismatch, wrong length). Retrying cannot help; the file must be quarantined.
    Corrupt(String),
}

/// A typed fault from the spill/snapshot storage layer: which file failed, which shard
/// it backed (when known), and how. Replaces the panics these paths used to take —
/// callers retry, quarantine, or surface the error, but the process survives.
#[derive(Debug)]
pub struct StorageError {
    path: PathBuf,
    shard: Option<usize>,
    kind: StorageErrorKind,
}

impl StorageError {
    pub(crate) fn io(path: &Path, err: io::Error) -> StorageError {
        StorageError {
            path: path.to_path_buf(),
            shard: None,
            kind: StorageErrorKind::Io(err),
        }
    }

    pub(crate) fn corrupt(path: &Path, what: impl Into<String>) -> StorageError {
        StorageError {
            path: path.to_path_buf(),
            shard: None,
            kind: StorageErrorKind::Corrupt(what.into()),
        }
    }

    /// Attaches the shard id the failing file was backing (for messages and reports).
    pub fn with_shard(mut self, shard: usize) -> StorageError {
        self.shard = Some(shard);
        self
    }

    /// The file that failed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shard the file was backing, when the caller attached it.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }

    /// What went wrong.
    pub fn kind(&self) -> &StorageErrorKind {
        &self.kind
    }

    /// `true` when the bytes on disk are invalid (retrying cannot help).
    pub fn is_corrupt(&self) -> bool {
        matches!(self.kind, StorageErrorKind::Corrupt(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard {
            Some(i) => write!(f, "shard {i} payload {}: ", self.path.display())?,
            None => write!(f, "payload {}: ", self.path.display())?,
        }
        match &self.kind {
            StorageErrorKind::Io(e) => write!(f, "{e}"),
            StorageErrorKind::Corrupt(what) => write!(f, "corrupt: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            StorageErrorKind::Io(e) => Some(e),
            StorageErrorKind::Corrupt(_) => None,
        }
    }
}

impl From<StorageError> for io::Error {
    /// Keeps `?` working in `io::Result` contexts (the snapshot loader): corruption
    /// maps to [`io::ErrorKind::InvalidData`], I/O faults keep their kind.
    fn from(err: StorageError) -> io::Error {
        let kind = match &err.kind {
            StorageErrorKind::Io(e) => e.kind(),
            StorageErrorKind::Corrupt(_) => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, err.to_string())
    }
}

/// Removes a path best-effort without ever panicking — Drop-path cleanup must not
/// double-panic while the thread is already unwinding.
fn remove_quietly(path: &Path, dir: bool) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if dir {
            let _ = fs::remove_dir_all(path);
        } else {
            let _ = fs::remove_file(path);
        }
    }));
    drop(result); // cleanup is best-effort; a leaked temp path never takes the process down
}

/// A per-index temporary directory holding spill files.
///
/// Cloning shares the directory (spilled shards keep it alive through their own
/// handles); the directory and anything left in it are removed when the last handle
/// drops. Creation is lazy in [`crate::ShardedCosineIndex`] — an index that never
/// spills never touches the filesystem.
#[derive(Clone, Debug)]
pub struct SpillDir {
    inner: Arc<SpillDirInner>,
}

#[derive(Debug)]
struct SpillDirInner {
    path: PathBuf,
    next_file: AtomicU64,
}

impl Drop for SpillDirInner {
    fn drop(&mut self) {
        // Best-effort, panic-safe cleanup; `Drop` may run during an unwind and a
        // second panic here would abort the process.
        remove_quietly(&self.path, true);
    }
}

impl SpillDir {
    /// Creates a fresh, uniquely named spill directory under the system temp dir.
    pub fn create() -> io::Result<SpillDir> {
        static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sudowoodo-spill-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(SpillDir {
            inner: Arc::new(SpillDirInner {
                path,
                next_file: AtomicU64::new(0),
            }),
        })
    }

    /// The directory path (for diagnostics; contents are managed by the index).
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Reserves a fresh file path inside the directory (paths are never reused, so a
    /// shard spilled after a repack can never collide with a stale file).
    fn next_path(&self) -> PathBuf {
        let n = self.inner.next_file.fetch_add(1, Ordering::Relaxed);
        self.inner.path.join(format!("shard-{n}.bin"))
    }
}

/// One shard matrix serialized to disk (see the module docs for the format).
///
/// Comes in two ownership flavours:
///
/// * **Owning** ([`SpilledShard::write`]) — a spill file under a [`SpillDir`]; the file
///   is deleted when the `SpilledShard` drops (shard repacked, faulted back to
///   residency, or index dropped).
/// * **Non-owning** ([`SpilledShard::open`]) — a payload file of a persistent snapshot
///   ([`crate::snapshot`]); the handle reads it on demand but never deletes it, so one
///   snapshot directory can back any number of loaded indexes (across processes).
#[derive(Debug)]
pub struct SpilledShard {
    /// Keeps the spill directory alive as long as any owned file in it exists (never
    /// read — the handle's `Drop` ordering is its whole job). `None` for non-owning
    /// snapshot-backed handles.
    _dir: Option<SpillDir>,
    path: PathBuf,
    /// Whether the file is deleted when this handle drops.
    owns_file: bool,
    rows: usize,
    cols: usize,
    /// The query-path memory mapping, established (and CRC-verified) once on first
    /// use. A failed map is never cached — the next query retries from scratch, so a
    /// transient fault costs retries, never a permanently broken shard.
    #[cfg(all(unix, target_endian = "little"))]
    map: OnceLock<MappedShard>,
}

impl Drop for SpilledShard {
    fn drop(&mut self) {
        if self.owns_file {
            remove_quietly(&self.path, false);
        }
    }
}

/// Serializes `matrix` into the spill-file format at `path` (see the module docs),
/// streaming in bounded chunks so writing a large shard never doubles its memory
/// footprint, and appending the CRC-32 trailer. Shared by the transient spill path and
/// the snapshot writer.
///
/// Failpoint `snapshot.payload.torn`: writes the header plus roughly half the payload
/// and errors out without the trailer — the on-disk shape of a crash mid-write.
pub(crate) fn write_matrix_file(path: &Path, matrix: &Matrix) -> io::Result<()> {
    let torn = faults::fires("snapshot.payload.torn");
    let mut file = io::BufWriter::new(fs::File::create(path)?);
    let mut crc = Crc32::new();
    let mut put = |file: &mut io::BufWriter<fs::File>, bytes: &[u8]| -> io::Result<()> {
        crc.update(bytes);
        file.write_all(bytes)
    };
    put(&mut file, MAGIC)?;
    put(&mut file, &(matrix.rows() as u64).to_le_bytes())?;
    put(&mut file, &(matrix.cols() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(16 * 1024);
    let data = matrix.data();
    let keep = if torn { data.len() / 2 } else { data.len() };
    for chunk in data[..keep].chunks(4 * 1024) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        put(&mut file, &buf)?;
    }
    if torn {
        file.flush()?;
        return Err(io::Error::other(
            "failpoint snapshot.payload.torn: simulated crash mid-payload",
        ));
    }
    file.write_all(&crc.finish().to_le_bytes())?;
    file.flush()
}

impl SpilledShard {
    /// Serializes `matrix` into a fresh file under `dir`. The returned handle owns the
    /// file and deletes it on drop.
    ///
    /// Failpoint `spill.write.io_err`: fails before touching the filesystem (the shard
    /// simply stays resident — spilling is an optimization).
    pub fn write(dir: &SpillDir, matrix: &Matrix) -> io::Result<SpilledShard> {
        if faults::fires("spill.write.io_err") {
            return Err(io::Error::other(
                "failpoint spill.write.io_err: injected spill-write failure",
            ));
        }
        let path = dir.next_path();
        write_matrix_file(&path, matrix)?;
        Ok(SpilledShard {
            _dir: Some(dir.clone()),
            path,
            owns_file: true,
            rows: matrix.rows(),
            cols: matrix.cols(),
            #[cfg(all(unix, target_endian = "little"))]
            map: OnceLock::new(),
        })
    }

    /// Opens an existing payload file (a snapshot shard) **without taking ownership**:
    /// the file is read back on demand exactly like a spill file, but never deleted by
    /// this handle.
    ///
    /// `rows`/`cols` are the shape recorded in the snapshot manifest; the file's own
    /// header and CRC are verified against them on every [`SpilledShard::load`]. The
    /// file length is checked here so a truncated snapshot fails at load time, not
    /// mid-query.
    pub fn open(path: PathBuf, rows: usize, cols: usize) -> Result<SpilledShard, StorageError> {
        let expected = (HEADER_LEN + rows * cols * 4 + TRAILER_LEN) as u64;
        let actual = fs::metadata(&path)
            .map_err(|e| StorageError::io(&path, e))?
            .len();
        if actual != expected {
            return Err(StorageError::corrupt(
                &path,
                format!("{actual} bytes on disk, expected {expected} for a {rows}x{cols} shard"),
            ));
        }
        Ok(Self::open_unchecked(path, rows, cols))
    }

    /// Like [`SpilledShard::open`] but without touching the filesystem — for building
    /// a **quarantined** shard over a payload that already failed validation, so the
    /// rest of a snapshot can load and serve around it.
    pub(crate) fn open_unchecked(path: PathBuf, rows: usize, cols: usize) -> SpilledShard {
        SpilledShard {
            _dir: None,
            path,
            owns_file: false,
            rows,
            cols,
            #[cfg(all(unix, target_endian = "little"))]
            map: OnceLock::new(),
        }
    }

    /// Copies the serialized payload to `dest` without deserializing it — how a spilled
    /// shard snapshots without faulting into memory. Copying a file onto itself (saving
    /// a snapshot-loaded index back into its own directory) is a no-op.
    pub(crate) fn copy_to(&self, dest: &Path) -> io::Result<()> {
        if same_file(&self.path, dest) {
            return Ok(());
        }
        fs::copy(&self.path, dest).map(|_| ())
    }

    /// Reads the shard matrix back, verifying the header against the recorded shape and
    /// the CRC-32 trailer against every preceding byte.
    ///
    /// The returned matrix is bit-for-bit the one passed to [`SpilledShard::write`].
    ///
    /// Failpoint `spill.read.io_err`: fails the attempt before opening the file (the
    /// transient-fault shape: NFS hiccup, EINTR storm, evicted page).
    pub fn load(&self) -> Result<Matrix, StorageError> {
        if faults::fires("spill.read.io_err") {
            return Err(StorageError::io(
                &self.path,
                io::Error::other("failpoint spill.read.io_err: injected spill-read failure"),
            ));
        }
        let ioerr = |e| StorageError::io(&self.path, e);
        let mut file = io::BufReader::new(fs::File::open(&self.path).map_err(ioerr)?);
        let mut crc = Crc32::new();
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header).map_err(ioerr)?;
        crc.update(&header);
        let corrupt = |what: &str| StorageError::corrupt(&self.path, what);
        if &header[..8] != MAGIC {
            return Err(corrupt("bad magic (not a Sudowoodo shard spill file)"));
        }
        let rows = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
        let cols = u64::from_le_bytes(header[16..24].try_into().unwrap()) as usize;
        if (rows, cols) != (self.rows, self.cols) {
            return Err(corrupt("header shape disagrees with the index metadata"));
        }
        let mut bytes = vec![0u8; rows * cols * 4];
        file.read_exact(&mut bytes).map_err(ioerr)?;
        crc.update(&bytes);
        let mut trailer = [0u8; TRAILER_LEN];
        file.read_exact(&mut trailer).map_err(ioerr)?;
        if u32::from_le_bytes(trailer) != crc.finish() {
            return Err(corrupt(
                "CRC-32 mismatch (the payload bytes changed since they were written)",
            ));
        }
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// [`SpilledShard::load`] with a short exponential backoff (1/2/4 ms) for transient
    /// I/O faults. Corruption ([`StorageError::is_corrupt`]) is **not** retried — the
    /// bytes will not improve; the caller should quarantine the shard.
    pub fn load_retrying(&self) -> Result<Matrix, StorageError> {
        let mut last = None;
        for retry in 0..FAULT_ATTEMPTS {
            if retry > 0 {
                fault_backoff(retry - 1);
            }
            match self.load() {
                Ok(matrix) => return Ok(matrix),
                Err(e) if e.is_corrupt() => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Rows of the serialized matrix (including zero padding rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the serialized matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The on-disk location of the payload (diagnostics; the file is managed by this
    /// handle when owned, by the snapshot directory otherwise).
    pub fn file_path(&self) -> &Path {
        &self.path
    }

    /// The shared, validated memory mapping of this payload, established on first
    /// use (see [`MappedShard`]). Failures are **never cached**: a transiently
    /// unmappable file is retried from scratch by the next query, exactly like the
    /// copying fault path.
    #[cfg(all(unix, target_endian = "little"))]
    pub fn mapped(&self) -> Result<&MappedShard, StorageError> {
        if let Some(mapped) = self.map.get() {
            return Ok(mapped);
        }
        let fresh = self.map_retrying()?;
        // A concurrent query may have won the race; the loser's mapping is munmapped
        // harmlessly (read-only, MAP_SHARED — dropping a duplicate changes nothing).
        Ok(self.map.get_or_init(|| fresh))
    }

    /// [`SpilledShard::map_file`] with the shared fault-retry backoff (mirroring
    /// [`SpilledShard::load_retrying`]); corruption is not retried.
    #[cfg(all(unix, target_endian = "little"))]
    fn map_retrying(&self) -> Result<MappedShard, StorageError> {
        let mut last = None;
        for retry in 0..FAULT_ATTEMPTS {
            if retry > 0 {
                fault_backoff(retry - 1);
            }
            match self.map_file() {
                Ok(mapped) => return Ok(mapped),
                Err(e) if e.is_corrupt() => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Maps the payload file read-only and validates it **once**: length against the
    /// recorded shape, magic, header shape, and the CRC-32 trailer over every
    /// preceding byte — the same checks [`SpilledShard::load`] performs per fault,
    /// paid a single time for the lifetime of the mapping.
    ///
    /// Failpoint `spill.read.io_err`: fails the attempt before opening the file,
    /// exactly like the copying read path, so the chaos suites exercise both.
    #[cfg(all(unix, target_endian = "little"))]
    fn map_file(&self) -> Result<MappedShard, StorageError> {
        if faults::fires("spill.read.io_err") {
            return Err(StorageError::io(
                &self.path,
                io::Error::other("failpoint spill.read.io_err: injected spill-read failure"),
            ));
        }
        let ioerr = |e| StorageError::io(&self.path, e);
        let corrupt = |what: &str| StorageError::corrupt(&self.path, what);
        let file = fs::File::open(&self.path).map_err(ioerr)?;
        let expected = HEADER_LEN + self.rows * self.cols * 4 + TRAILER_LEN;
        let actual = file.metadata().map_err(ioerr)?.len();
        if actual != expected as u64 {
            return Err(corrupt(&format!(
                "{actual} bytes on disk, expected {expected} for a {}x{} shard",
                self.rows, self.cols
            )));
        }
        let mapped = MappedShard::map(&file, expected, self.rows, self.cols).map_err(ioerr)?;
        let bytes = mapped.bytes();
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a Sudowoodo shard spill file)"));
        }
        let rows = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let cols = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        if (rows, cols) != (self.rows, self.cols) {
            return Err(corrupt("header shape disagrees with the index metadata"));
        }
        let body = &bytes[..expected - TRAILER_LEN];
        let trailer: [u8; TRAILER_LEN] = bytes[expected - TRAILER_LEN..].try_into().unwrap();
        if u32::from_le_bytes(trailer) != crc32(body) {
            return Err(corrupt(
                "CRC-32 mismatch (the payload bytes changed since they were written)",
            ));
        }
        Ok(mapped)
    }
}

/// A read-only `mmap(2)` of one `SWSHARD1` payload file, shared across every index
/// (and every *process*) serving the same snapshot: the faulted pages live in the OS
/// page cache once, instead of one heap copy per process per query tile. The header,
/// shape, and CRC-32 trailer are verified a single time when the mapping is
/// established ([`SpilledShard::mapped`]); after that a query borrows the `f32`
/// payload directly out of the mapping with zero copies.
///
/// Only built on little-endian Unix — the on-disk floats are little-endian, so the
/// bytes can be reinterpreted in place; elsewhere the query path transparently falls
/// back to the copying [`SpilledShard::load_retrying`] fault.
///
/// The payload offset (`HEADER_LEN` = 24) is 4-byte aligned from the page-aligned
/// mapping base, so the `f32` reinterpretation is always aligned.
#[cfg(all(unix, target_endian = "little"))]
#[derive(Debug)]
pub struct MappedShard {
    ptr: *const u8,
    len: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime and the
// backing snapshot/spill files are never rewritten in place (spill paths are never
// reused; snapshots are write-once), so concurrent reads from any thread are safe.
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Send for MappedShard {}
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Sync for MappedShard {}

#[cfg(all(unix, target_endian = "little"))]
mod sys {
    //! The two `mmap(2)` symbols this module needs, declared directly against libc
    //! (which `std` already links) — no new dependency, per the workspace's offline
    //! build constraint.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 0x01;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl MappedShard {
    /// Maps `len` bytes of `file` read-only and shared. `len` is never 0 here (every
    /// payload carries at least its 28 header + trailer bytes).
    fn map(file: &fs::File, len: usize, rows: usize, cols: usize) -> io::Result<MappedShard> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh PROT_READ/MAP_SHARED mapping of a file we hold open; the
        // kernel validates the fd and length, and failure is reported via MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(MappedShard {
            ptr: ptr as *const u8,
            len,
            rows,
            cols,
        })
    }

    /// The whole mapped file, header and trailer included.
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live mapping of exactly `len` bytes (established in
        // `map`, released only in `Drop`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The row-major `f32` payload, borrowed straight out of the page cache.
    pub fn data(&self) -> &[f32] {
        // SAFETY: the payload spans `rows * cols` little-endian f32s starting at the
        // 4-byte-aligned HEADER_LEN offset of the `len`-byte mapping (length was
        // validated at map time); every bit pattern is a valid f32.
        unsafe {
            std::slice::from_raw_parts(
                self.ptr.add(HEADER_LEN) as *const f32,
                self.rows * self.cols,
            )
        }
    }

    /// The payload as a borrowed matrix view for the scoring kernels.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.rows, self.cols, self.data())
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl Drop for MappedShard {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region `map` established; the pointer is never
        // used again (self is being dropped).
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// `true` when the two paths resolve to the same existing file or directory (a path
/// that does not exist yet is never "the same"). Shared with [`crate::snapshot`] so
/// the canonicalize-and-compare logic cannot drift between the spill and save paths.
pub(crate) fn same_file(a: &Path, b: &Path) -> bool {
    match (fs::canonicalize(a), fs::canonicalize(b)) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => false,
    }
}

// ---- i8 quantization -----------------------------------------------------------------

/// Magic prefix of a quantized payload file; the trailing `1` is the format version.
const QMAGIC: &[u8; 9] = b"SWSHARDQ1";

/// Byte length of the quantized-file header: magic (9) + zero pad (7) + rows (8) +
/// cols (8) + max_err_norm (4) + max_row_norm (4). A multiple of 4, so the scales and
/// the exact f32 payload that follow are 4-byte aligned from the page-aligned mmap base.
const QHEADER_LEN: usize = 9 + 7 + 8 + 8 + 4 + 4;

/// Total on-disk length of a quantized payload for a `rows x cols` shard.
fn quant_file_len(rows: usize, cols: usize) -> u64 {
    (QHEADER_LEN + rows * 4 + rows * cols * 4 + rows * cols + TRAILER_LEN) as u64
}

/// Rounds a non-negative f64 up into an f32 that is **guaranteed ≥ the true value** —
/// the `as f32` cast rounds to nearest, so a measured error bound could otherwise
/// round *down* and break admissibility. Mirrors the `.next_up()` radius idiom of
/// [`crate::routing`].
fn round_up_to_f32(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// An i8 (per-row scale) quantized copy of a shard matrix — the first tier of the
/// two-stage quantized scan.
///
/// Each row `x` is encoded as `code[j] = round(x[j] / s)` with `s = max_j |x[j]| / 127`
/// (zero rows get scale 0 and all-zero codes), so `s * code` reconstructs the row to
/// within one half-step per coordinate. Two **measured** (not estimated) per-shard
/// norms travel with the codes and feed the admissible candidate bound in
/// [`crate::routing`]:
///
/// * `max_err_norm` — `max_r ‖x_r − s_r·c_r‖₂`, the worst row reconstruction error;
/// * `max_row_norm` — `max_r ‖x_r‖₂`, the worst row magnitude.
///
/// Both are accumulated in f64 and rounded **up** into f32, so the bound derived from
/// them can only be slacker than reality, never tighter.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
    max_err_norm: f32,
    max_row_norm: f32,
}

impl QuantizedMatrix {
    /// Quantizes `matrix` row by row, measuring the reconstruction-error norms as it
    /// goes. Deterministic: the same matrix always produces the same codes, scales,
    /// and norms on every platform (scalar f32/f64 arithmetic only).
    pub fn quantize(matrix: &Matrix) -> QuantizedMatrix {
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let mut codes = vec![0i8; rows * cols];
        let mut scales = vec![0f32; rows];
        let mut max_err_sq = 0f64;
        let mut max_norm_sq = 0f64;
        for r in 0..rows {
            let row = matrix.row(r);
            let (scale, err_sq, norm_sq) =
                quantize_row_into(row, &mut codes[r * cols..(r + 1) * cols]);
            scales[r] = scale;
            max_err_sq = max_err_sq.max(err_sq);
            max_norm_sq = max_norm_sq.max(norm_sq);
        }
        QuantizedMatrix {
            rows,
            cols,
            codes,
            scales,
            max_err_norm: round_up_to_f32(max_err_sq.sqrt()),
            max_row_norm: round_up_to_f32(max_norm_sq.sqrt()),
        }
    }

    /// Rebuilds a quantized matrix from its serialized parts (the `SWSHARDQ1` loader).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        codes: Vec<i8>,
        scales: Vec<f32>,
        max_err_norm: f32,
        max_row_norm: f32,
    ) -> QuantizedMatrix {
        QuantizedMatrix {
            rows,
            cols,
            codes,
            scales,
            max_err_norm,
            max_row_norm,
        }
    }

    /// Number of encoded rows (including zero padding rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of encoded columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The i8 codes of row `r`.
    #[inline]
    pub fn code_row(&self, r: usize) -> &[i8] {
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// The reconstruction scale of row `r` (`row ≈ scale * codes`).
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// All row scales (the serialization order of the `SWSHARDQ1` scales section).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// All codes, row-major (the serialization order of the codes section).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Worst-row reconstruction error norm `max_r ‖x_r − s_r·c_r‖₂` (rounded up).
    pub fn max_err_norm(&self) -> f32 {
        self.max_err_norm
    }

    /// Worst-row magnitude `max_r ‖x_r‖₂` (rounded up).
    pub fn max_row_norm(&self) -> f32 {
        self.max_row_norm
    }

    /// Heap bytes this quantized copy occupies (codes + scales) — what the
    /// memory-density bench compares against the 4 bytes/coordinate f32 payload.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.codes.as_slice()) + std::mem::size_of_val(self.scales.as_slice())
    }
}

/// Quantizes one row into `out`, returning `(scale, err_sq, norm_sq)` with the error
/// and norm accumulated in f64. Shared by the shard-side [`QuantizedMatrix::quantize`]
/// and the query-side [`QuantizedRow::from_row`] so the two sides can never disagree
/// on the rounding rule (round half away from zero, clamped to ±127).
fn quantize_row_into(row: &[f32], out: &mut [i8]) -> (f32, f64, f64) {
    let amax = row.iter().fold(0f32, |m, &x| m.max(x.abs()));
    let mut err_sq = 0f64;
    let mut norm_sq = 0f64;
    if amax <= 0.0 || !amax.is_finite() {
        // A zero row stays all-zero codes with scale 0 (exactly reconstructed); a
        // non-finite row cannot be coded, so it degrades to "everything is error" —
        // still admissible because the measured norms absorb it.
        for x in row {
            norm_sq += (*x as f64) * (*x as f64);
        }
        out.fill(0);
        return (0.0, norm_sq, norm_sq);
    }
    let scale = amax / 127.0;
    for (c, &x) in out.iter_mut().zip(row.iter()) {
        let code = ((x as f64) / (scale as f64)).round().clamp(-127.0, 127.0);
        *c = code as i8;
        let delta = (x as f64) - (scale as f64) * code;
        err_sq += delta * delta;
        norm_sq += (x as f64) * (x as f64);
    }
    (scale, err_sq, norm_sq)
}

/// A query row quantized with the same rule as [`QuantizedMatrix`], plus the measured
/// norms the candidate bound needs. Built lazily, once per query tile, and only when a
/// quantized shard is actually scanned.
#[derive(Clone, Debug)]
pub struct QuantizedRow {
    /// i8 codes of the (pre-normalized) query row.
    pub codes: Vec<i8>,
    /// Reconstruction scale (`row ≈ scale * codes`).
    pub scale: f32,
    /// Measured `‖row − scale·codes‖₂`, rounded up.
    pub err_norm: f32,
    /// Measured `‖row‖₂`, rounded up.
    pub norm: f32,
}

impl QuantizedRow {
    /// Quantizes one query row (the caller passes the row already scaled by its
    /// inverse norm, so these codes approximate the *unit* query vector).
    pub fn from_row(row: &[f32]) -> QuantizedRow {
        let mut codes = vec![0i8; row.len()];
        let (scale, err_sq, norm_sq) = quantize_row_into(row, &mut codes);
        QuantizedRow {
            codes,
            scale,
            err_norm: round_up_to_f32(err_sq.sqrt()),
            norm: round_up_to_f32(norm_sq.sqrt()),
        }
    }
}

/// A query tile quantized row by row exactly as [`QuantizedRow::from_row`] would, but
/// packed for the tile kernel: one contiguous `rows x cols` code matrix and one vector
/// per measured quantity instead of a heap row per query.
#[derive(Clone, Debug)]
pub(crate) struct QuantizedBlock {
    /// i8 codes, row-major.
    pub(crate) codes: Vec<i8>,
    /// Reconstruction scale per row.
    pub(crate) scales: Vec<f32>,
    /// Measured `‖row − scale·codes‖₂` per row, rounded up.
    pub(crate) err_norms: Vec<f32>,
    /// Measured `‖row‖₂` per row, rounded up.
    pub(crate) norms: Vec<f32>,
}

impl QuantizedBlock {
    /// Quantizes `block.row(r) * inv_norms[r]` for every row — the unit query vectors
    /// whose dots against corpus rows are the exact scores being approximated.
    pub(crate) fn from_scaled_rows(block: &Matrix, inv_norms: &[f32]) -> QuantizedBlock {
        let (rows, cols) = (block.rows(), block.cols());
        let mut quantized = QuantizedBlock {
            codes: vec![0i8; rows * cols],
            scales: Vec::with_capacity(rows),
            err_norms: Vec::with_capacity(rows),
            norms: Vec::with_capacity(rows),
        };
        let mut unit = vec![0f32; cols];
        for (r, codes) in quantized.codes.chunks_exact_mut(cols).enumerate() {
            for (u, &x) in unit.iter_mut().zip(block.row(r)) {
                *u = x * inv_norms[r];
            }
            let (scale, err_sq, norm_sq) = quantize_row_into(&unit, codes);
            quantized.scales.push(scale);
            quantized.err_norms.push(round_up_to_f32(err_sq.sqrt()));
            quantized.norms.push(round_up_to_f32(norm_sq.sqrt()));
        }
        quantized
    }
}

/// Serializes a quantized shard (both tiers) into the `SWSHARDQ1` format at `path` —
/// see the module docs for the layout. Streams the f32 payload in bounded chunks like
/// [`write_matrix_file`] and appends the CRC-32 trailer.
///
/// Failpoint `snapshot.payload.torn`: writes the header, the scales, and roughly half
/// the exact payload, then errors out without codes or trailer — the on-disk shape of
/// a crash mid-write, shared with the `SWSHARD1` writer so the chaos suites exercise
/// both formats through one switch.
pub(crate) fn write_quant_matrix_file(
    path: &Path,
    quant: &QuantizedMatrix,
    exact: &Matrix,
) -> io::Result<()> {
    debug_assert_eq!((quant.rows(), quant.cols()), (exact.rows(), exact.cols()));
    let torn = faults::fires("snapshot.payload.torn");
    let mut file = io::BufWriter::new(fs::File::create(path)?);
    let mut crc = Crc32::new();
    let mut put = |file: &mut io::BufWriter<fs::File>, bytes: &[u8]| -> io::Result<()> {
        crc.update(bytes);
        file.write_all(bytes)
    };
    put(&mut file, QMAGIC)?;
    put(&mut file, &[0u8; 7])?;
    put(&mut file, &(exact.rows() as u64).to_le_bytes())?;
    put(&mut file, &(exact.cols() as u64).to_le_bytes())?;
    put(&mut file, &quant.max_err_norm().to_le_bytes())?;
    put(&mut file, &quant.max_row_norm().to_le_bytes())?;
    let mut buf = Vec::with_capacity(16 * 1024);
    for chunk in quant.scales().chunks(4 * 1024) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        put(&mut file, &buf)?;
    }
    let data = exact.data();
    let keep = if torn { data.len() / 2 } else { data.len() };
    for chunk in data[..keep].chunks(4 * 1024) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        put(&mut file, &buf)?;
    }
    if torn {
        file.flush()?;
        return Err(io::Error::other(
            "failpoint snapshot.payload.torn: simulated crash mid-payload",
        ));
    }
    for chunk in quant.codes().chunks(16 * 1024) {
        // SAFETY-free reinterpret: i8 and u8 have identical layout; iterate instead
        // of transmuting to stay in safe code.
        buf.clear();
        buf.extend(chunk.iter().map(|&c| c as u8));
        put(&mut file, &buf)?;
    }
    file.write_all(&crc.finish().to_le_bytes())?;
    file.flush()
}

/// A quantized shard serialized to disk in the `SWSHARDQ1` format — the quantized twin
/// of [`SpilledShard`], with the same two ownership flavours (owning spill file vs
/// non-owning snapshot payload), the same typed-error fault model, and the same
/// validate-once mmap query path.
///
/// Two lazily established caches live on the handle:
///
/// * `quant` — the heap copy of codes + scales (a quarter of the f32 payload bytes)
///   that the first-stage scan reads; seeded for free when the handle was produced by
///   spilling a resident quantized shard, decoded from the mapping (or the copying
///   fallback) on first scan after a cold snapshot load.
/// * `map` — the shared read-only mapping serving the **exact** f32 tier with zero
///   copies, exactly like [`SpilledShard`]'s.
#[derive(Debug)]
pub struct QuantSpilledShard {
    /// Keeps the spill directory alive as long as any owned file in it exists; `None`
    /// for non-owning snapshot-backed handles.
    _dir: Option<SpillDir>,
    path: PathBuf,
    owns_file: bool,
    rows: usize,
    cols: usize,
    quant: OnceLock<QuantizedMatrix>,
    #[cfg(all(unix, target_endian = "little"))]
    map: OnceLock<MappedQuantShard>,
}

impl Drop for QuantSpilledShard {
    fn drop(&mut self) {
        if self.owns_file {
            remove_quietly(&self.path, false);
        }
    }
}

impl QuantSpilledShard {
    /// Serializes both tiers into a fresh file under `dir`. The returned handle owns
    /// the file and deletes it on drop, and its `quant` cache is seeded from the
    /// in-memory copy — spilling never has to read its own file back.
    ///
    /// Failpoint `spill.write.io_err`: fails before touching the filesystem (the shard
    /// stays resident — spilling is an optimization).
    pub fn write(
        dir: &SpillDir,
        quant: &QuantizedMatrix,
        exact: &Matrix,
    ) -> io::Result<QuantSpilledShard> {
        if faults::fires("spill.write.io_err") {
            return Err(io::Error::other(
                "failpoint spill.write.io_err: injected spill-write failure",
            ));
        }
        let path = dir.next_path();
        write_quant_matrix_file(&path, quant, exact)?;
        let seeded = OnceLock::new();
        let _ = seeded.set(quant.clone());
        Ok(QuantSpilledShard {
            _dir: Some(dir.clone()),
            path,
            owns_file: true,
            rows: exact.rows(),
            cols: exact.cols(),
            quant: seeded,
            #[cfg(all(unix, target_endian = "little"))]
            map: OnceLock::new(),
        })
    }

    /// Opens an existing `SWSHARDQ1` payload (a snapshot shard) without taking
    /// ownership, checking the file length against the manifest shape so a truncated
    /// snapshot fails at load time, not mid-query.
    pub fn open(
        path: PathBuf,
        rows: usize,
        cols: usize,
    ) -> Result<QuantSpilledShard, StorageError> {
        let expected = quant_file_len(rows, cols);
        let actual = fs::metadata(&path)
            .map_err(|e| StorageError::io(&path, e))?
            .len();
        if actual != expected {
            return Err(StorageError::corrupt(
                &path,
                format!(
                    "{actual} bytes on disk, expected {expected} for a {rows}x{cols} quantized shard"
                ),
            ));
        }
        Ok(Self::open_unchecked(path, rows, cols))
    }

    /// Like [`QuantSpilledShard::open`] but without touching the filesystem — for
    /// building a **quarantined** shard over a payload that already failed validation.
    pub(crate) fn open_unchecked(path: PathBuf, rows: usize, cols: usize) -> QuantSpilledShard {
        QuantSpilledShard {
            _dir: None,
            path,
            owns_file: false,
            rows,
            cols,
            quant: OnceLock::new(),
            #[cfg(all(unix, target_endian = "little"))]
            map: OnceLock::new(),
        }
    }

    /// Copies the serialized payload to `dest` without deserializing it (snapshot
    /// save path); copying a file onto itself is a no-op.
    pub(crate) fn copy_to(&self, dest: &Path) -> io::Result<()> {
        if same_file(&self.path, dest) {
            return Ok(());
        }
        fs::copy(&self.path, dest).map(|_| ())
    }

    /// Rows of the serialized shard (including zero padding rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the serialized shard.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The on-disk location of the payload.
    pub fn file_path(&self) -> &Path {
        &self.path
    }

    /// Reads both tiers back, verifying magic, shape, and the CRC-32 trailer. The
    /// returned exact matrix is bit-for-bit the one passed to
    /// [`QuantSpilledShard::write`]; the quantized tier round-trips exactly too
    /// (integer codes, f32 scales and norms).
    ///
    /// Failpoint `spill.read.io_err`: fails the attempt before opening the file.
    pub fn load_all(&self) -> Result<(QuantizedMatrix, Matrix), StorageError> {
        if faults::fires("spill.read.io_err") {
            return Err(StorageError::io(
                &self.path,
                io::Error::other("failpoint spill.read.io_err: injected spill-read failure"),
            ));
        }
        let bytes = fs::read(&self.path).map_err(|e| StorageError::io(&self.path, e))?;
        let corrupt = |what: String| StorageError::corrupt(&self.path, what);
        let expected = quant_file_len(self.rows, self.cols) as usize;
        if bytes.len() != expected {
            return Err(corrupt(format!(
                "{} bytes on disk, expected {expected} for a {}x{} quantized shard",
                bytes.len(),
                self.rows,
                self.cols
            )));
        }
        if &bytes[..QMAGIC.len()] != QMAGIC {
            return Err(corrupt(
                "bad magic (not a Sudowoodo quantized shard file)".into(),
            ));
        }
        let rows = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let cols = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        if (rows, cols) != (self.rows, self.cols) {
            return Err(corrupt(
                "header shape disagrees with the index metadata".into(),
            ));
        }
        let body = &bytes[..expected - TRAILER_LEN];
        let trailer: [u8; TRAILER_LEN] = bytes[expected - TRAILER_LEN..].try_into().unwrap();
        if u32::from_le_bytes(trailer) != crc32(body) {
            return Err(corrupt(
                "CRC-32 mismatch (the payload bytes changed since they were written)".into(),
            ));
        }
        let max_err_norm = f32::from_le_bytes(bytes[32..36].try_into().unwrap());
        let max_row_norm = f32::from_le_bytes(bytes[36..40].try_into().unwrap());
        let scales_at = QHEADER_LEN;
        let exact_at = scales_at + rows * 4;
        let codes_at = exact_at + rows * cols * 4;
        let scales: Vec<f32> = bytes[scales_at..exact_at]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let data: Vec<f32> = bytes[exact_at..codes_at]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let codes: Vec<i8> = bytes[codes_at..expected - TRAILER_LEN]
            .iter()
            .map(|&b| b as i8)
            .collect();
        Ok((
            QuantizedMatrix::from_parts(rows, cols, codes, scales, max_err_norm, max_row_norm),
            Matrix::from_vec(rows, cols, data),
        ))
    }

    /// [`QuantSpilledShard::load_all`] with the shared fault-retry backoff;
    /// corruption is not retried.
    pub fn load_all_retrying(&self) -> Result<(QuantizedMatrix, Matrix), StorageError> {
        let mut last = None;
        for retry in 0..FAULT_ATTEMPTS {
            if retry > 0 {
                fault_backoff(retry - 1);
            }
            match self.load_all() {
                Ok(parts) => return Ok(parts),
                Err(e) if e.is_corrupt() => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// The quantized tier (codes + scales + norms), decoded into the heap cache on
    /// first use: from the validated mapping where available, through the copying
    /// loader otherwise. Failures are never cached — the next scan retries.
    pub fn quant(&self) -> Result<&QuantizedMatrix, StorageError> {
        if let Some(q) = self.quant.get() {
            return Ok(q);
        }
        let fresh;
        #[cfg(all(unix, target_endian = "little"))]
        {
            let mapped = self.mapped()?;
            fresh = QuantizedMatrix::from_parts(
                self.rows,
                self.cols,
                mapped.codes().to_vec(),
                mapped.scales().to_vec(),
                mapped.max_err_norm(),
                mapped.max_row_norm(),
            );
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            fresh = self.load_all_retrying()?.0;
        }
        // A concurrent scan may have won the race; both decoded the same bytes.
        Ok(self.quant.get_or_init(|| fresh))
    }

    /// The **exact** f32 tier for the rescore stage and the legacy full-scan path:
    /// borrowed from the shared mapping where available, a copying fault otherwise.
    pub fn exact_payload(&self) -> Result<ShardData<'_>, StorageError> {
        #[cfg(all(unix, target_endian = "little"))]
        {
            self.mapped().map(|m| ShardData::Borrowed(m.view()))
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            self.load_all_retrying().map(|(_, m)| ShardData::Owned(m))
        }
    }

    /// The shared, validated memory mapping (see [`SpilledShard::mapped`] — same
    /// never-cache-failures contract).
    #[cfg(all(unix, target_endian = "little"))]
    pub(crate) fn mapped(&self) -> Result<&MappedQuantShard, StorageError> {
        if let Some(mapped) = self.map.get() {
            return Ok(mapped);
        }
        let fresh = self.map_retrying()?;
        Ok(self.map.get_or_init(|| fresh))
    }

    #[cfg(all(unix, target_endian = "little"))]
    fn map_retrying(&self) -> Result<MappedQuantShard, StorageError> {
        let mut last = None;
        for retry in 0..FAULT_ATTEMPTS {
            if retry > 0 {
                fault_backoff(retry - 1);
            }
            match self.map_file() {
                Ok(mapped) => return Ok(mapped),
                Err(e) if e.is_corrupt() => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Maps the payload read-only and validates it **once** (length, magic, shape,
    /// CRC over every preceding byte), mirroring [`SpilledShard::map_file`].
    ///
    /// Failpoint `spill.read.io_err`: fails the attempt before opening the file.
    #[cfg(all(unix, target_endian = "little"))]
    fn map_file(&self) -> Result<MappedQuantShard, StorageError> {
        if faults::fires("spill.read.io_err") {
            return Err(StorageError::io(
                &self.path,
                io::Error::other("failpoint spill.read.io_err: injected spill-read failure"),
            ));
        }
        let ioerr = |e| StorageError::io(&self.path, e);
        let corrupt = |what: &str| StorageError::corrupt(&self.path, what);
        let file = fs::File::open(&self.path).map_err(ioerr)?;
        let expected = quant_file_len(self.rows, self.cols) as usize;
        let actual = file.metadata().map_err(ioerr)?.len();
        if actual != expected as u64 {
            return Err(corrupt(&format!(
                "{actual} bytes on disk, expected {expected} for a {}x{} quantized shard",
                self.rows, self.cols
            )));
        }
        let mapped = MappedQuantShard::map(&file, expected, self.rows, self.cols).map_err(ioerr)?;
        let bytes = mapped.bytes();
        if &bytes[..QMAGIC.len()] != QMAGIC {
            return Err(corrupt("bad magic (not a Sudowoodo quantized shard file)"));
        }
        let rows = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let cols = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        if (rows, cols) != (self.rows, self.cols) {
            return Err(corrupt("header shape disagrees with the index metadata"));
        }
        let body = &bytes[..expected - TRAILER_LEN];
        let trailer: [u8; TRAILER_LEN] = bytes[expected - TRAILER_LEN..].try_into().unwrap();
        if u32::from_le_bytes(trailer) != crc32(body) {
            return Err(corrupt(
                "CRC-32 mismatch (the payload bytes changed since they were written)",
            ));
        }
        Ok(mapped)
    }
}

/// A read-only `mmap(2)` of one `SWSHARDQ1` payload file — [`MappedShard`]'s quantized
/// twin. Validated once at map time; after that the exact f32 tier is borrowed
/// straight out of the page cache (its offset is 4-byte aligned by the format's header
/// padding) and the i8 codes/scales are copied out once into the handle's heap cache.
#[cfg(all(unix, target_endian = "little"))]
#[derive(Debug)]
pub struct MappedQuantShard {
    ptr: *const u8,
    len: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: same argument as `MappedShard` — PROT_READ for the whole lifetime, backing
// files are write-once, so concurrent reads from any thread are safe.
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Send for MappedQuantShard {}
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Sync for MappedQuantShard {}

#[cfg(all(unix, target_endian = "little"))]
impl MappedQuantShard {
    fn map(file: &fs::File, len: usize, rows: usize, cols: usize) -> io::Result<MappedQuantShard> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh PROT_READ/MAP_SHARED mapping of a file we hold open; failure
        // is reported via MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(MappedQuantShard {
            ptr: ptr as *const u8,
            len,
            rows,
            cols,
        })
    }

    /// The whole mapped file, header and trailer included.
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live mapping of exactly `len` bytes.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Worst-row reconstruction error norm recorded in the header.
    fn max_err_norm(&self) -> f32 {
        f32::from_le_bytes(self.bytes()[32..36].try_into().unwrap())
    }

    /// Worst-row magnitude recorded in the header.
    fn max_row_norm(&self) -> f32 {
        f32::from_le_bytes(self.bytes()[36..40].try_into().unwrap())
    }

    /// The per-row scales section.
    fn scales(&self) -> &[f32] {
        // SAFETY: the scales span `rows` little-endian f32s at the 4-byte-aligned
        // QHEADER_LEN offset of the validated `len`-byte mapping.
        unsafe { std::slice::from_raw_parts(self.ptr.add(QHEADER_LEN) as *const f32, self.rows) }
    }

    /// The i8 codes section, row-major.
    fn codes(&self) -> &[i8] {
        let at = QHEADER_LEN + self.rows * 4 + self.rows * self.cols * 4;
        // SAFETY: the codes span `rows * cols` bytes at offset `at` of the validated
        // mapping; i8 has alignment 1 and every bit pattern is valid.
        unsafe { std::slice::from_raw_parts(self.ptr.add(at) as *const i8, self.rows * self.cols) }
    }

    /// The exact row-major f32 tier, borrowed straight out of the page cache.
    pub fn data(&self) -> &[f32] {
        let at = QHEADER_LEN + self.rows * 4;
        // SAFETY: the exact payload spans `rows * cols` little-endian f32s at the
        // 4-byte-aligned offset `at` (header and scales are both multiples of 4);
        // every bit pattern is a valid f32.
        unsafe { std::slice::from_raw_parts(self.ptr.add(at) as *const f32, self.rows * self.cols) }
    }

    /// The exact tier as a borrowed matrix view for the scoring kernels.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.rows, self.cols, self.data())
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl Drop for MappedQuantShard {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region `map` established.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// What [`ShardStorage::query_payload`] hands the scoring kernels: a zero-copy view
/// whenever the payload has a stable home (resident matrix, established mapping), an
/// owned fault only on targets without the mapping.
#[derive(Debug)]
pub enum ShardData<'a> {
    /// Borrowed straight from resident memory or the shared mapping.
    Borrowed(MatrixView<'a>),
    /// A copying fault (non-Unix / big-endian fallback).
    Owned(Matrix),
}

impl ShardData<'_> {
    /// The payload as a [`MatrixView`], whichever arm holds it.
    pub fn view(&self) -> MatrixView<'_> {
        match self {
            ShardData::Borrowed(v) => *v,
            ShardData::Owned(m) => m.view(),
        }
    }
}

/// Where a shard's row matrix currently lives.
///
/// The surrounding shard metadata (stable ids, tombstones, routing statistics) always
/// stays resident — only the `rows x dim` float payload spills, because that is where
/// virtually all of a shard's memory goes.
#[derive(Debug)]
pub enum ShardStorage {
    /// The matrix is in memory (the hot state; also the only state the pre-spill index
    /// ever had).
    Resident(Matrix),
    /// The matrix is on disk and is read back per use.
    Spilled(SpilledShard),
    /// Both tiers of a quantized shard are in memory: the i8 codes the first-stage
    /// scan reads and the exact f32 matrix the rescore tier reads.
    QuantResident {
        /// The i8 codes + per-row scales + measured error norms.
        quant: QuantizedMatrix,
        /// The exact f32 payload — the bit-identical source of truth for rescoring,
        /// mutation, and snapshots.
        exact: Matrix,
    },
    /// A quantized shard on disk in the `SWSHARDQ1` format; the small quantized tier
    /// is decoded into a heap cache on first scan, the exact tier is served through
    /// the shared mapping.
    QuantSpilled(QuantSpilledShard),
}

impl Clone for ShardStorage {
    /// Cloning faults spilled storage back into memory: spill files are single-owner
    /// (deleted on drop), so the clone gets an independent resident copy (quantized
    /// storage stays quantized — both tiers are cloned or loaded).
    ///
    /// # Panics
    /// `Clone` has no error channel, so an unreadable spill file (after the retry
    /// backoff) still panics here — with the typed [`StorageError`] message. Query
    /// paths never clone storage; this is only reachable through an explicit
    /// [`crate::ShardedCosineIndex`] clone.
    fn clone(&self) -> Self {
        match self {
            ShardStorage::Resident(m) => ShardStorage::Resident(m.clone()),
            ShardStorage::Spilled(s) => ShardStorage::Resident(
                s.load_retrying()
                    .unwrap_or_else(|e| panic!("ShardStorage::clone: {e}")),
            ),
            ShardStorage::QuantResident { quant, exact } => ShardStorage::QuantResident {
                quant: quant.clone(),
                exact: exact.clone(),
            },
            ShardStorage::QuantSpilled(s) => {
                let (quant, exact) = s
                    .load_all_retrying()
                    .unwrap_or_else(|e| panic!("ShardStorage::clone: {e}"));
                ShardStorage::QuantResident { quant, exact }
            }
        }
    }
}

impl ShardStorage {
    /// Rows of the stored matrix (including zero padding rows).
    pub fn rows(&self) -> usize {
        match self {
            ShardStorage::Resident(m) => m.rows(),
            ShardStorage::Spilled(s) => s.rows(),
            ShardStorage::QuantResident { exact, .. } => exact.rows(),
            ShardStorage::QuantSpilled(s) => s.rows(),
        }
    }

    /// Columns of the stored matrix.
    pub fn cols(&self) -> usize {
        match self {
            ShardStorage::Resident(m) => m.cols(),
            ShardStorage::Spilled(s) => s.cols(),
            ShardStorage::QuantResident { exact, .. } => exact.cols(),
            ShardStorage::QuantSpilled(s) => s.cols(),
        }
    }

    /// Bytes the **exact f32** payload occupies (or would occupy) in memory, regardless
    /// of where it currently lives — the per-shard quantity the residency budget weighs
    /// when deciding what to keep resident and what to fault back.
    pub fn payload_bytes(&self) -> usize {
        self.rows() * self.cols() * std::mem::size_of::<f32>()
    }

    /// `true` when the exact payload is in memory.
    pub fn is_resident(&self) -> bool {
        matches!(
            self,
            ShardStorage::Resident(_) | ShardStorage::QuantResident { .. }
        )
    }

    /// `true` when this storage carries a quantized tier (resident or spilled).
    pub fn is_quantized(&self) -> bool {
        matches!(
            self,
            ShardStorage::QuantResident { .. } | ShardStorage::QuantSpilled(_)
        )
    }

    /// Bytes of **exact f32** payload currently held in memory (0 when spilled) — the
    /// quantity the residency budget is accounted in. The quantized tier is tracked
    /// separately by [`ShardStorage::quantized_payload_bytes`]: it is metadata-sized
    /// (a quarter of the payload) and deliberately outside the budget, like the
    /// routing statistics.
    pub fn resident_bytes(&self) -> usize {
        match self {
            ShardStorage::Resident(m) => std::mem::size_of_val(m.data()),
            ShardStorage::Spilled(_) => 0,
            ShardStorage::QuantResident { exact, .. } => std::mem::size_of_val(exact.data()),
            ShardStorage::QuantSpilled(_) => 0,
        }
    }

    /// Heap bytes of the quantized tier (codes + scales), 0 for plain f32 storage and
    /// for quantized spills whose cache has not been decoded yet — what the
    /// memory-density bench sums against [`ShardStorage::payload_bytes`].
    pub fn quantized_payload_bytes(&self) -> usize {
        match self {
            ShardStorage::QuantResident { quant, .. } => quant.heap_bytes(),
            ShardStorage::QuantSpilled(s) => s.quant.get().map_or(0, |q| q.heap_bytes()),
            _ => 0,
        }
    }

    /// The quantized tier for the first-stage scan: `None` for plain f32 storage,
    /// otherwise the codes/scales (decoding the spilled cache on first use).
    ///
    /// # Errors
    /// The inner `Result` carries the same contract as [`ShardStorage::matrix`]: a
    /// spilled quantized payload that stayed unreadable through the retries — the
    /// caller quarantines the shard exactly like an exact-tier fault.
    pub fn quant(&self) -> Option<Result<&QuantizedMatrix, StorageError>> {
        match self {
            ShardStorage::QuantResident { quant, .. } => Some(Ok(quant)),
            ShardStorage::QuantSpilled(s) => Some(s.quant()),
            _ => None,
        }
    }

    /// The **exact** matrix, borrowed when resident and transiently loaded (with the
    /// retry backoff) when spilled. Quantized storage hands out its exact tier —
    /// mutation and legacy paths never see codes.
    ///
    /// # Errors
    /// A spilled shard whose file cannot be read back even after
    /// [`SpilledShard::load_retrying`] — the caller decides whether that degrades one
    /// query (quarantine) or the whole operation.
    pub fn matrix(&self) -> Result<Cow<'_, Matrix>, StorageError> {
        match self {
            ShardStorage::Resident(m) => Ok(Cow::Borrowed(m)),
            ShardStorage::Spilled(s) => s.load_retrying().map(Cow::Owned),
            ShardStorage::QuantResident { exact, .. } => Ok(Cow::Borrowed(exact)),
            ShardStorage::QuantSpilled(s) => s.load_all_retrying().map(|(_, m)| Cow::Owned(m)),
        }
    }

    /// The **query-path** payload: a borrowed view for resident shards, the shared
    /// validated memory mapping for spilled ones ([`SpilledShard::mapped`]) — so a
    /// spilled shard's working set is OS page cache shared across every process
    /// serving the same snapshot, not a fresh heap copy per query tile. On targets
    /// without the mapping (non-Unix or big-endian) the spilled arm transparently
    /// falls back to the copying fault, bit-identically. Quantized storage serves its
    /// **exact** tier here — this is what the rescore stage (and any full scan)
    /// scores against.
    ///
    /// Mutating paths (compaction, ingestion, cloning) keep using
    /// [`ShardStorage::matrix`] / [`ShardStorage::make_resident`].
    ///
    /// # Errors
    /// Same contract as [`ShardStorage::matrix`]: the shard stayed unreadable (or
    /// unmappable) through the retries.
    pub fn query_payload(&self) -> Result<ShardData<'_>, StorageError> {
        match self {
            ShardStorage::Resident(m) => Ok(ShardData::Borrowed(m.view())),
            #[cfg(all(unix, target_endian = "little"))]
            ShardStorage::Spilled(s) => s.mapped().map(|m| ShardData::Borrowed(m.view())),
            #[cfg(not(all(unix, target_endian = "little")))]
            ShardStorage::Spilled(s) => s.load_retrying().map(ShardData::Owned),
            ShardStorage::QuantResident { exact, .. } => Ok(ShardData::Borrowed(exact.view())),
            ShardStorage::QuantSpilled(s) => s.exact_payload(),
        }
    }

    /// Spills the matrix (both tiers when quantized) to a fresh file under `dir`.
    /// No-op when already spilled. On I/O failure the matrix simply stays resident
    /// (spilling is an optimization; the error is returned for reporting).
    pub fn spill(&mut self, dir: &SpillDir) -> io::Result<()> {
        match self {
            ShardStorage::Resident(matrix) => {
                let spilled = SpilledShard::write(dir, matrix)?;
                *self = ShardStorage::Spilled(spilled);
            }
            ShardStorage::QuantResident { quant, exact } => {
                let spilled = QuantSpilledShard::write(dir, quant, exact)?;
                *self = ShardStorage::QuantSpilled(spilled);
            }
            ShardStorage::Spilled(_) | ShardStorage::QuantSpilled(_) => {}
        }
        Ok(())
    }

    /// Faults the exact matrix back into memory for mutation (ingestion into a
    /// partially filled tail shard). An owned spill file is deleted; a non-owning
    /// snapshot payload is left on disk for other loads of the same snapshot. No-op
    /// when already plain-resident.
    ///
    /// Quantized storage degrades to plain [`ShardStorage::Resident`] here: mutation
    /// invalidates the codes, and the next `compact()` re-quantizes under the index's
    /// current quantization setting.
    ///
    /// # Errors
    /// An unreadable spill file (after the retry backoff); the storage is left
    /// spilled and untouched.
    pub fn make_resident(&mut self) -> Result<&mut Matrix, StorageError> {
        match self {
            ShardStorage::Spilled(s) => {
                let matrix = s.load_retrying()?;
                *self = ShardStorage::Resident(matrix);
            }
            ShardStorage::QuantSpilled(s) => {
                let (_, exact) = s.load_all_retrying()?;
                *self = ShardStorage::Resident(exact);
            }
            ShardStorage::QuantResident { .. } => {
                let ShardStorage::QuantResident { exact, .. } =
                    std::mem::replace(self, ShardStorage::Resident(Matrix::zeros(0, 0)))
                else {
                    unreachable!("matched above")
                };
                *self = ShardStorage::Resident(exact);
            }
            ShardStorage::Resident(_) => {}
        }
        match self {
            ShardStorage::Resident(m) => Ok(m),
            _ => unreachable!("made resident above"),
        }
    }

    /// Quantizes a plain-resident shard in place (builds the i8 tier next to the
    /// untouched exact matrix). No-op for already-quantized or spilled storage —
    /// spilled shards are re-quantized when compaction rebuilds them resident.
    pub(crate) fn quantize_resident(&mut self) {
        if matches!(self, ShardStorage::Resident(_)) {
            let ShardStorage::Resident(exact) =
                std::mem::replace(self, ShardStorage::Resident(Matrix::zeros(0, 0)))
            else {
                unreachable!("matched above")
            };
            let quant = QuantizedMatrix::quantize(&exact);
            *self = ShardStorage::QuantResident { quant, exact };
        }
    }

    /// Drops the quantized tier of a quant-resident shard, keeping the exact matrix
    /// (the reverse of [`ShardStorage::quantize_resident`]). No-op otherwise. The
    /// non-test path goes through [`ShardStorage::make_resident`], which lands on the
    /// plain dense state from every variant.
    #[cfg(test)]
    pub(crate) fn dequantize_resident(&mut self) {
        if matches!(self, ShardStorage::QuantResident { .. }) {
            let ShardStorage::QuantResident { exact, .. } =
                std::mem::replace(self, ShardStorage::Resident(Matrix::zeros(0, 0)))
            else {
                unreachable!("matched above")
            };
            *self = ShardStorage::Resident(exact);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_matrix() -> Matrix {
        // Values chosen to catch any lossy serialization: negatives, -0.0, subnormals,
        // and values whose decimal round-trip would differ from a bit round-trip.
        let mut data = vec![
            0.1f32,
            -0.0,
            1.0e-40,
            std::f32::consts::PI,
            -2.5e7,
            f32::MIN_POSITIVE,
        ];
        let mut state = 0x1234_5678_u64;
        while data.len() < 12 * 5 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push(((state >> 33) as f32 / (1u64 << 30) as f32) - 2.0);
        }
        Matrix::from_vec(12, 5, data)
    }

    #[test]
    fn spill_round_trip_is_byte_identical() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let spilled = SpilledShard::write(&dir, &matrix).expect("spill");
        let loaded = spilled.load().expect("fault");
        assert_eq!(
            (loaded.rows(), loaded.cols()),
            (matrix.rows(), matrix.cols())
        );
        for (i, (a, b)) in matrix.data().iter().zip(loaded.data().iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "element {i} changed bits across the spill round trip"
            );
        }
    }

    #[test]
    fn storage_transitions_preserve_the_matrix_and_account_bytes() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let bytes = matrix.data().len() * 4;
        let mut storage = ShardStorage::Resident(matrix.clone());
        assert!(storage.is_resident());
        assert_eq!(storage.resident_bytes(), bytes);

        storage.spill(&dir).expect("spill");
        assert!(!storage.is_resident());
        assert_eq!(storage.resident_bytes(), 0);
        assert_eq!(storage.rows(), matrix.rows());
        assert_eq!(
            *storage.matrix().expect("transient fault"),
            matrix,
            "transient fault must match"
        );

        // Cloning a spilled storage produces an independent resident copy.
        let cloned = storage.clone();
        assert!(cloned.is_resident());
        assert_eq!(*cloned.matrix().expect("resident"), matrix);

        let faulted = storage.make_resident().expect("fault back");
        assert_eq!(*faulted, matrix);
        assert!(storage.is_resident());
        assert_eq!(storage.resident_bytes(), bytes);
    }

    #[test]
    fn files_and_directory_are_cleaned_up_on_drop() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let dir_path = dir.path().to_path_buf();
        let spilled = SpilledShard::write(&dir, &fixture_matrix()).expect("spill");
        let file_path = spilled.path.clone();
        assert!(file_path.exists());
        drop(spilled);
        assert!(
            !file_path.exists(),
            "spill file must be removed with its shard"
        );
        assert!(dir_path.exists(), "dir survives while a handle exists");
        drop(dir);
        assert!(
            !dir_path.exists(),
            "dir must be removed with the last handle"
        );
    }

    #[test]
    fn open_is_non_owning_and_validates_length() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let owned = SpilledShard::write(&dir, &matrix).expect("spill");
        let path = owned.path.clone();
        // Detach the file from the owning handle by copying it aside.
        let snapshot_path = dir.path().join("snapshot-copy.bin");
        owned.copy_to(&snapshot_path).expect("copy payload");

        let opened = SpilledShard::open(snapshot_path.clone(), matrix.rows(), matrix.cols())
            .expect("open snapshot payload");
        assert_eq!(opened.load().expect("load"), matrix);
        assert_eq!(opened.file_path(), snapshot_path.as_path());
        drop(opened);
        assert!(
            snapshot_path.exists(),
            "a non-owning handle must leave the file on disk"
        );

        // Copying a file onto itself (snapshot re-saved into its own dir) is a no-op.
        let reopened =
            SpilledShard::open(snapshot_path.clone(), matrix.rows(), matrix.cols()).unwrap();
        reopened.copy_to(&snapshot_path).expect("self-copy");
        assert_eq!(reopened.load().expect("load after self-copy"), matrix);

        // A wrong manifest shape is caught at open time, before any query faults.
        let err = SpilledShard::open(snapshot_path, matrix.rows() + 4, matrix.cols())
            .expect_err("bad shape must fail fast");
        assert!(err.is_corrupt(), "length mismatch is corruption: {err}");
        assert!(err.to_string().contains("bytes on disk"), "got: {err}");
        drop(dir);
        let _ = path;
    }

    #[test]
    fn corrupted_magic_is_rejected() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let spilled = SpilledShard::write(&dir, &fixture_matrix()).expect("spill");
        let mut bytes = fs::read(&spilled.path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&spilled.path, &bytes).unwrap();
        let err = spilled.load().expect_err("corrupted magic must fail");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("bad magic"), "got: {err}");
    }

    #[test]
    fn single_flipped_payload_bit_fails_the_crc() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let spilled = SpilledShard::write(&dir, &fixture_matrix()).expect("spill");
        let mut bytes = fs::read(&spilled.path).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - TRAILER_LEN) / 2;
        bytes[mid] ^= 0x01; // one bit, deep in the float payload
        fs::write(&spilled.path, &bytes).unwrap();
        let err = spilled.load().expect_err("bit rot must not load");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("CRC-32"), "got: {err}");
        // Corruption is not retried — the retry wrapper fails identically and fast.
        assert!(spilled.load_retrying().unwrap_err().is_corrupt());
    }

    #[test]
    fn crc32_matches_the_iso_hdlc_check_value() {
        // The ISO-HDLC check value: crc32(b"123456789") == 0xCBF43926 (zlib, PNG, ...).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn vanished_spill_file_is_a_typed_io_error_with_the_path() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let spilled = SpilledShard::write(&dir, &fixture_matrix()).expect("spill");
        fs::remove_file(&spilled.path).unwrap();
        let err = spilled.load_retrying().expect_err("missing file must fail");
        assert!(!err.is_corrupt(), "a vanished file is an I/O fault");
        let msg = err.with_shard(3).to_string();
        assert!(msg.contains("shard 3"), "got: {msg}");
        assert!(msg.contains("shard-0.bin"), "got: {msg}");
    }

    #[test]
    fn injected_read_faults_fail_then_recover_within_the_retry_budget() {
        let _faults = faults::arm_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let spilled = SpilledShard::write(&dir, &matrix).expect("spill");

        // A bounded transient fault: the single-attempt read fails, the retry loop
        // rides it out.
        faults::arm("spill.read.io_err", faults::Policy::Times(2));
        assert!(spilled.load().is_err());
        assert_eq!(spilled.load_retrying().expect("retries recover"), matrix);
        faults::disarm("spill.read.io_err");

        // A durable fault exhausts the retries and surfaces the injected error.
        faults::arm("spill.read.io_err", faults::Policy::Always);
        let err = spilled.load_retrying().expect_err("durable fault");
        assert!(err.to_string().contains("spill.read.io_err"), "got: {err}");
    }

    #[test]
    fn quantized_spill_round_trip_is_byte_identical_on_both_tiers() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let exact = fixture_matrix();
        let quant = QuantizedMatrix::quantize(&exact);
        let spilled = QuantSpilledShard::write(&dir, &quant, &exact).expect("spill");
        let (q2, e2) = spilled.load_all().expect("fault");
        assert_eq!(q2, quant, "quantized tier must round-trip exactly");
        for (i, (a, b)) in exact.data().iter().zip(e2.data().iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "exact element {i} changed bits across the quantized round trip"
            );
        }
        // The seeded cache answers without re-reading the file.
        assert_eq!(spilled.quant().expect("seeded"), &quant);
        // The mmap'd exact tier serves the same bits.
        let view = spilled.exact_payload().expect("map").view().to_matrix();
        assert_eq!(view, exact);
    }

    #[test]
    fn quantization_reconstructs_rows_within_the_measured_error_norm() {
        let exact = fixture_matrix();
        let quant = QuantizedMatrix::quantize(&exact);
        for r in 0..exact.rows() {
            let row = exact.row(r);
            let s = quant.scale(r) as f64;
            let err_sq: f64 = row
                .iter()
                .zip(quant.code_row(r))
                .map(|(&x, &c)| {
                    let d = x as f64 - s * c as f64;
                    d * d
                })
                .sum();
            assert!(
                err_sq.sqrt() <= quant.max_err_norm() as f64,
                "row {r} error {} exceeds the claimed bound {}",
                err_sq.sqrt(),
                quant.max_err_norm()
            );
            let norm_sq: f64 = row.iter().map(|&x| (x as f64) * (x as f64)).sum();
            assert!(norm_sq.sqrt() <= quant.max_row_norm() as f64);
        }
    }

    #[test]
    fn quantized_block_packs_exactly_what_from_row_measures() {
        let block = fixture_matrix();
        let inv_norms: Vec<f32> = (0..block.rows())
            .map(|r| [0.5, 1.0, 0.0, 3.0e-8][r % 4])
            .collect();
        let packed = QuantizedBlock::from_scaled_rows(&block, &inv_norms);
        for (r, &inv) in inv_norms.iter().enumerate() {
            let unit: Vec<f32> = block.row(r).iter().map(|&x| x * inv).collect();
            let row = QuantizedRow::from_row(&unit);
            let cols = block.cols();
            assert_eq!(&packed.codes[r * cols..(r + 1) * cols], &row.codes[..]);
            assert_eq!(
                [packed.scales[r], packed.err_norms[r], packed.norms[r]].map(f32::to_bits),
                [row.scale, row.err_norm, row.norm].map(f32::to_bits),
                "row {r}"
            );
        }
    }

    #[test]
    fn quantized_storage_transitions_account_both_tiers() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let exact = fixture_matrix();
        let bytes = exact.data().len() * 4;
        let mut storage = ShardStorage::Resident(exact.clone());
        assert_eq!(storage.quantized_payload_bytes(), 0);

        storage.quantize_resident();
        assert!(storage.is_resident() && storage.is_quantized());
        assert_eq!(storage.resident_bytes(), bytes);
        let qbytes = exact.rows() * exact.cols() + exact.rows() * 4;
        assert_eq!(storage.quantized_payload_bytes(), qbytes);
        assert_eq!(*storage.matrix().expect("exact tier"), exact);

        storage.spill(&dir).expect("spill");
        assert!(!storage.is_resident() && storage.is_quantized());
        assert_eq!(storage.resident_bytes(), 0);
        // The spill seeded the quantized cache, so its bytes are still resident.
        assert_eq!(storage.quantized_payload_bytes(), qbytes);
        assert_eq!(
            storage
                .query_payload()
                .expect("exact view")
                .view()
                .to_matrix(),
            exact
        );

        // Cloning a quantized spill produces an independent quant-resident copy.
        let cloned = storage.clone();
        assert!(cloned.is_resident() && cloned.is_quantized());
        assert_eq!(*cloned.matrix().expect("resident"), exact);

        // Faulting back for mutation drops the (soon stale) quantized tier.
        let faulted = storage.make_resident().expect("fault back");
        assert_eq!(*faulted, exact);
        assert!(storage.is_resident() && !storage.is_quantized());

        storage.quantize_resident();
        storage.dequantize_resident();
        assert!(!storage.is_quantized());
        assert_eq!(*storage.matrix().expect("still exact"), exact);
    }

    #[test]
    fn corrupt_quantized_payloads_fail_typed_like_dense_ones() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let exact = fixture_matrix();
        let quant = QuantizedMatrix::quantize(&exact);
        let spilled = QuantSpilledShard::write(&dir, &quant, &exact).expect("spill");

        // A single flipped bit deep in the codes section fails the CRC.
        let mut bytes = fs::read(&spilled.path).unwrap();
        let codes_at = QHEADER_LEN + exact.rows() * 4 + exact.rows() * exact.cols() * 4;
        bytes[codes_at + 3] ^= 0x01;
        fs::write(&spilled.path, &bytes).unwrap();
        let fresh =
            QuantSpilledShard::open_unchecked(spilled.path.clone(), exact.rows(), exact.cols());
        let err = fresh.load_all().expect_err("bit rot must not load");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("CRC-32"), "got: {err}");
        let err = fresh.quant().expect_err("mapped path rejects it too");
        assert!(err.is_corrupt());

        // A truncated (torn) file is caught by the open-time length check.
        bytes.truncate(bytes.len() / 2);
        fs::write(&spilled.path, &bytes).unwrap();
        let err = QuantSpilledShard::open(spilled.path.clone(), exact.rows(), exact.cols())
            .expect_err("torn file must fail fast");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("bytes on disk"), "got: {err}");
    }

    #[test]
    fn injected_write_faults_keep_the_shard_resident() {
        let _faults = faults::arm_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let mut storage = ShardStorage::Resident(fixture_matrix());
        faults::arm("spill.write.io_err", faults::Policy::Once);
        assert!(storage.spill(&dir).is_err(), "injected write fault");
        assert!(storage.is_resident(), "a failed spill must not lose data");
        storage.spill(&dir).expect("next spill succeeds");
        assert!(!storage.is_resident());
    }
}
