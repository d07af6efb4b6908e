//! Disk-spill storage for shards of the blocking index.
//!
//! A streaming corpus eventually exceeds RAM, but most shards are *cold* — they hold old
//! rows that rarely win a top-k slot. Every shard payload therefore has two states: in
//! memory (the row-major exact f32 [`Matrix`], plus its i8 [`QuantizedMatrix`] tier when
//! the shard is quantized), or spilled to a payload file that is read back only when a
//! query needs the shard. Which shards spill is decided by
//! [`crate::ShardedCosineIndex`]'s residency budget after `compact()` (least recently used
//! first); which spilled shards are ever *read* is decided by the routing statistics of
//! [`crate::routing`] — a pruned shard never touches disk, which is what makes spilling
//! and routing multiplicative.
//!
//! ## On-disk formats
//!
//! Spill files and snapshot payloads are the same file type in one of two formats,
//! chosen by whether the shard carries the i8 tier. `SWSHARD1` holds the exact rows:
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
//! `SWSHARDQ1` carries **both tiers** of the two-stage scan — the i8 codes the
//! approximate scan reads and the exact f32 rows the rescore reads:
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
//! Both are header, scales, exact rows, codes, trailer in that order — `SWSHARD1` just has
//! no scales and no codes — so one layout computation, one writer and one validator serve
//! both. Every section starts at a multiple of 4 bytes. The exact rows are the matrix
//! buffer bit for bit, zero padding rows included, so a spilled shard scores queries
//! **bit-identically** to its resident twin. A snapshot shard file ([`crate::snapshot`])
//! is byte-identical to a spill file: a spilled shard snapshots with a plain file copy,
//! and a snapshot-loaded shard is served through the same read path by a non-owning
//! handle that never deletes the snapshot.
//!
//! ## Reads
//!
//! A payload file is validated once — length against the recorded shape, magic, header
//! shape, and the CRC-32 trailer over every preceding byte — when it is first read, and
//! the validated bytes are kept for the handle's lifetime: a shared read-only `mmap(2)` on
//! Unix (the page cache is the working set, once for every process serving the file), a
//! heap read elsewhere. The query path borrows the exact section in place; compaction,
//! ingestion, cloning and the dense-snapshot load copy out of it. A quantized file's codes
//! and scales are decoded into a heap cache once per handle — a quarter of the exact
//! bytes, which is the whole memory-density point. The layout arithmetic is checked, so a
//! recorded shape no file can have is corruption, never an overflow.
//!
//! ## Failure model
//!
//! Every read returns a typed [`StorageError`] naming the file (and, one layer up, the
//! shard) instead of panicking: a vanished spill file or a corrupt payload degrades the
//! query that needed it, never the process. Transient I/O faults are retried with a short
//! exponential backoff; corruption is not, and the caller quarantines the shard (see
//! [`crate::ShardedCosineIndex`]). The fault-injection points of this module
//! (`spill.read.io_err`, `spill.write.io_err`, `snapshot.payload.torn`) are armed through
//! [`sudowoodo_faults`] and compile to one relaxed atomic load when disarmed.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sudowoodo_faults as faults;
use sudowoodo_nn::matrix::{Matrix, MatrixView};

/// Byte length of the CRC-32 trailer at the end of a payload file.
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
/// Shared by the payload files and the snapshot manifests.
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

/// `true` when the two paths resolve to the same existing file or directory (a path
/// that does not exist yet is never "the same"). Shared with [`crate::delta`] so the
/// canonicalize-and-compare logic cannot drift between the save paths.
pub(crate) fn same_file(a: &Path, b: &Path) -> bool {
    match (fs::canonicalize(a), fs::canonicalize(b)) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => false,
    }
}

// ---- the payload file ----------------------------------------------------------------

/// Which of the two payload formats a file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Format {
    /// `SWSHARD1`: the exact f32 rows.
    Exact,
    /// `SWSHARDQ1`: the exact rows plus the i8 tier (norms, scales, codes).
    Quantized,
}

impl Format {
    /// The format a shard with this i8 tier (or none) is written in.
    fn of(quant: Option<&QuantizedMatrix>) -> Format {
        match quant {
            Some(_) => Format::Quantized,
            None => Format::Exact,
        }
    }
}

/// Where each section of a `rows x cols` payload file starts, per the module-doc
/// tables. An `Exact` file's scale and code sections are empty.
#[derive(Clone, Copy, Debug)]
struct Layout {
    format: Format,
    rows: usize,
    cols: usize,
    /// Offset of the `rows` field: the magic, zero-padded to a multiple of 8.
    shape_at: usize,
    scales_at: usize,
    exact_at: usize,
    codes_at: usize,
    trailer_at: usize,
}

impl Layout {
    /// The layout of a `rows x cols` payload, or `None` when the file length does not
    /// fit a `usize` — a recorded shape no file can have.
    fn new(format: Format, rows: usize, cols: usize) -> Option<Layout> {
        let quantized = format == Format::Quantized;
        let shape_at: usize = if quantized { 16 } else { 8 };
        // rows + cols, then a quantized header's two f32 norms.
        let scales_at = shape_at + 16 + if quantized { 8 } else { 0 };
        let cells = rows.checked_mul(cols)?;
        let exact_at = scales_at.checked_add(if quantized { rows.checked_mul(4)? } else { 0 })?;
        let codes_at = exact_at.checked_add(cells.checked_mul(4)?)?;
        let trailer_at = codes_at.checked_add(if quantized { cells } else { 0 })?;
        trailer_at.checked_add(TRAILER_LEN)?;
        Some(Layout {
            format,
            rows,
            cols,
            shape_at,
            scales_at,
            exact_at,
            codes_at,
            trailer_at,
        })
    }

    fn len(&self) -> usize {
        self.trailer_at + TRAILER_LEN
    }

    fn magic(&self) -> &'static [u8] {
        match self.format {
            Format::Exact => b"SWSHARD1",
            Format::Quantized => b"SWSHARDQ1",
        }
    }

    /// The header bytes: magic, zero padding, shape, and a quantized tier's norms.
    fn header(&self, quant: Option<&QuantizedMatrix>) -> Vec<u8> {
        let mut header = self.magic().to_vec();
        header.resize(self.shape_at, 0);
        header.extend_from_slice(&(self.rows as u64).to_le_bytes());
        header.extend_from_slice(&(self.cols as u64).to_le_bytes());
        if let Some(q) = quant {
            header.extend_from_slice(&q.max_err_norm().to_le_bytes());
            header.extend_from_slice(&q.max_row_norm().to_le_bytes());
        }
        header
    }

    fn check_len(&self, actual: u64, path: &Path) -> Result<(), StorageError> {
        if actual == self.len() as u64 {
            return Ok(());
        }
        Err(StorageError::corrupt(
            path,
            format!(
                "{actual} bytes on disk, expected {} for a {}x{} shard",
                self.len(),
                self.rows,
                self.cols
            ),
        ))
    }

    /// Validates a whole payload file: length, magic, header shape, and the CRC-32
    /// trailer over every preceding byte.
    fn validate(&self, bytes: &[u8], path: &Path) -> Result<(), StorageError> {
        self.check_len(bytes.len() as u64, path)?;
        let corrupt = |what: &str| StorageError::corrupt(path, what);
        if !bytes.starts_with(self.magic()) {
            return Err(corrupt(
                "bad magic (not a Sudowoodo shard payload of this format)",
            ));
        }
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        if (field(self.shape_at), field(self.shape_at + 8)) != (self.rows as u64, self.cols as u64)
        {
            return Err(corrupt("header shape disagrees with the index metadata"));
        }
        let (body, trailer) = bytes.split_at(self.trailer_at);
        if u32::from_le_bytes(trailer.try_into().unwrap()) != crc32(body) {
            return Err(corrupt(
                "CRC-32 mismatch (the payload bytes changed since they were written)",
            ));
        }
        Ok(())
    }

    /// The i8 tier of a validated `Quantized` file.
    fn decode_quant(&self, bytes: &[u8]) -> QuantizedMatrix {
        let norm = |at: usize| f32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        QuantizedMatrix::from_parts(
            self.rows,
            self.cols,
            bytes[self.codes_at..self.trailer_at]
                .iter()
                .map(|&b| b as i8)
                .collect(),
            f32s(&bytes[self.scales_at..self.exact_at]).into_owned(),
            norm(self.scales_at - 8),
            norm(self.scales_at - 4),
        )
    }
}

/// A section of little-endian f32s: borrowed in place on a little-endian host when the
/// bytes are 4-byte aligned (always, for a mapping: the base is page-aligned and every
/// section offset a multiple of 4), decoded into a copy otherwise.
fn f32s(bytes: &[u8]) -> Cow<'_, [f32]> {
    if cfg!(target_endian = "little") {
        // SAFETY: every bit pattern is a valid f32, and `align_to` only reinterprets
        // the aligned middle of the slice.
        let (head, floats, tail) = unsafe { bytes.align_to::<f32>() };
        if head.is_empty() && tail.is_empty() {
            return Cow::Borrowed(floats);
        }
    }
    Cow::Owned(
        bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect(),
    )
}

/// A buffered payload writer that folds every byte into the running CRC-32.
struct PayloadWriter {
    file: io::BufWriter<fs::File>,
    crc: Crc32,
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Writes `xs` encoded by `le`, converted in bounded chunks so that writing a large
    /// shard never doubles its memory footprint.
    fn put<T: Copy, const N: usize>(
        &mut self,
        xs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        for chunk in xs.chunks(16 * 1024 / N) {
            self.buf.resize(chunk.len() * N, 0);
            for (out, &x) in self.buf.chunks_exact_mut(N).zip(chunk) {
                out.copy_from_slice(&le(x));
            }
            self.crc.update(&self.buf);
            self.file.write_all(&self.buf)?;
        }
        Ok(())
    }
}

/// Writes `exact` (and `quant`, in the `SWSHARDQ1` format, when given) as a payload
/// file at `path`: the sections in format order, then the CRC-32 trailer. The one writer
/// of both formats, for the spill and the snapshot paths alike.
///
/// Failpoint `snapshot.payload.torn`: writes the header, the scales and roughly half the
/// exact rows, then errors out without codes or trailer — the on-disk shape of a crash
/// mid-write.
pub(crate) fn write_payload(
    path: &Path,
    exact: &Matrix,
    quant: Option<&QuantizedMatrix>,
) -> io::Result<()> {
    let layout = Layout::new(Format::of(quant), exact.rows(), exact.cols())
        .expect("an in-memory matrix has a representable payload length");
    let torn = faults::fires("snapshot.payload.torn");
    let mut w = PayloadWriter {
        file: io::BufWriter::new(fs::File::create(path)?),
        crc: Crc32::new(),
        buf: Vec::new(),
    };
    w.put(&layout.header(quant), u8::to_le_bytes)?;
    if let Some(q) = quant {
        w.put(q.scales(), f32::to_le_bytes)?;
    }
    let data = exact.data();
    w.put(
        &data[..if torn { data.len() / 2 } else { data.len() }],
        f32::to_le_bytes,
    )?;
    if torn {
        w.file.flush()?;
        return Err(io::Error::other(
            "failpoint snapshot.payload.torn: simulated crash mid-payload",
        ));
    }
    if let Some(q) = quant {
        w.put(q.codes(), i8::to_le_bytes)?;
    }
    let crc = w.crc.finish();
    w.file.write_all(&crc.to_le_bytes())?;
    w.file.flush()
}

#[cfg(unix)]
mod sys {
    //! A read-only `mmap(2)`, declared directly against libc (which `std` already links)
    //! — no new dependency, per the workspace's offline build constraint.
    use std::fs;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 0x01;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A shared read-only mapping of a file's first `len` bytes, unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ for its whole lifetime and payload files are never
    // rewritten in place (spill paths are never reused; snapshots are write-once), so
    // reads from any thread are safe.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file`. The caller checked that the file is exactly that
        /// long, and `len` is never 0 (every payload carries its header and trailer).
        pub(super) fn map(file: &fs::File, len: usize) -> io::Result<Mmap> {
            debug_assert!(len > 0);
            // SAFETY: a fresh PROT_READ/MAP_SHARED mapping of a file we hold open; the
            // kernel validates the fd and length and reports failure as MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr as *const u8,
                len,
            })
        }
    }

    impl std::ops::Deref for Mmap {
        type Target = [u8];

        fn deref(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` bytes until `drop`.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the region `map` established; the pointer is never
            // used again.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

/// The validated bytes of a payload file: a shared mapping on Unix, a heap copy elsewhere.
#[cfg(unix)]
type FileBytes = sys::Mmap;
#[cfg(not(unix))]
type FileBytes = Vec<u8>;

/// Maps (or, without `mmap(2)`, reads) the first `len` bytes of `file` — the only
/// platform-dependent step of a payload read.
fn read_bytes(file: &fs::File, len: usize) -> io::Result<FileBytes> {
    #[cfg(unix)]
    let bytes = sys::Mmap::map(file, len)?;
    #[cfg(not(unix))]
    let bytes = {
        let mut bytes = vec![0u8; len];
        io::Read::read_exact(&mut &*file, &mut bytes)?;
        bytes
    };
    Ok(bytes)
}

/// One payload file on disk, in either format. An owning handle (a spill file) deletes
/// the file on drop; a non-owning one ([`PayloadFile::open`], a snapshot payload) never
/// does, so one snapshot directory can back any number of loaded indexes.
#[derive(Debug)]
pub(crate) struct PayloadFile {
    /// The spill directory an owned file lives in, kept alive while the file exists;
    /// `None` for a snapshot payload.
    dir: Option<SpillDir>,
    path: PathBuf,
    format: Format,
    rows: usize,
    cols: usize,
    /// The validated file bytes, established on first read. Failures are never cached:
    /// the next read starts over, so a transient fault costs retries, never a
    /// permanently broken shard.
    bytes: OnceLock<FileBytes>,
    /// The decoded i8 tier of a `Quantized` file: seeded by the spill that wrote it,
    /// decoded from `bytes` on first scan after a cold load.
    quant: OnceLock<QuantizedMatrix>,
}

impl Drop for PayloadFile {
    fn drop(&mut self) {
        if self.dir.is_some() {
            remove_quietly(&self.path, false);
        }
    }
}

impl PayloadFile {
    /// A non-owning handle on the payload file at `path` with the recorded shape. Nothing
    /// is read until [`PayloadFile::check_length`] or the first payload read.
    pub(crate) fn open(path: PathBuf, format: Format, rows: usize, cols: usize) -> PayloadFile {
        PayloadFile {
            dir: None,
            path,
            format,
            rows,
            cols,
            bytes: OnceLock::new(),
            quant: OnceLock::new(),
        }
    }

    fn layout(&self) -> Result<Layout, StorageError> {
        Layout::new(self.format, self.rows, self.cols).ok_or_else(|| {
            StorageError::corrupt(
                &self.path,
                format!(
                    "a {}x{} shard has no representable payload length",
                    self.rows, self.cols
                ),
            )
        })
    }

    /// Checks the file length against the recorded shape without reading the file, so
    /// a truncated or mis-shaped snapshot fails at load time rather than mid-query.
    pub(crate) fn check_length(&self) -> Result<(), StorageError> {
        let layout = self.layout()?;
        let meta = fs::metadata(&self.path).map_err(|e| StorageError::io(&self.path, e))?;
        layout.check_len(meta.len(), &self.path)
    }

    /// The validated file bytes, with the shared retry backoff for transient I/O faults.
    /// Corruption is not retried — the bytes will not improve.
    fn bytes(&self) -> Result<&[u8], StorageError> {
        if let Some(bytes) = self.bytes.get() {
            return Ok(bytes);
        }
        let mut last = None;
        for retry in 0..FAULT_ATTEMPTS {
            if retry > 0 {
                fault_backoff(retry - 1);
            }
            match self.read_validated() {
                // A concurrent reader may have won the race; the loser's copy is dropped
                // harmlessly (read-only — a duplicate changes nothing).
                Ok(fresh) => return Ok(self.bytes.get_or_init(|| fresh)),
                Err(e) if e.is_corrupt() => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// One read attempt: length check, map (or read), validation.
    ///
    /// Failpoint `spill.read.io_err`: fails the attempt before opening the file (the
    /// transient-fault shape: NFS hiccup, EINTR storm, evicted page).
    fn read_validated(&self) -> Result<FileBytes, StorageError> {
        if faults::fires("spill.read.io_err") {
            return Err(StorageError::io(
                &self.path,
                io::Error::other("failpoint spill.read.io_err: injected spill-read failure"),
            ));
        }
        let layout = self.layout()?;
        let ioerr = |e| StorageError::io(&self.path, e);
        let file = fs::File::open(&self.path).map_err(ioerr)?;
        layout.check_len(file.metadata().map_err(ioerr)?.len(), &self.path)?;
        let bytes = read_bytes(&file, layout.len()).map_err(ioerr)?;
        layout.validate(&bytes, &self.path)?;
        Ok(bytes)
    }

    /// The exact f32 rows, borrowed out of the validated bytes.
    fn exact(&self) -> Result<Cow<'_, [f32]>, StorageError> {
        let layout = self.layout()?;
        Ok(f32s(&self.bytes()?[layout.exact_at..layout.codes_at]))
    }

    /// The i8 tier (`None` for an `Exact` file), decoded into the heap cache on first use.
    fn quant(&self) -> Option<Result<&QuantizedMatrix, StorageError>> {
        (self.format == Format::Quantized).then(|| {
            if let Some(quant) = self.quant.get() {
                return Ok(quant);
            }
            let fresh = self.layout()?.decode_quant(self.bytes()?);
            // A concurrent scan may have won the race; both decoded the same bytes.
            Ok(self.quant.get_or_init(|| fresh))
        })
    }
}

/// Where a shard's payload currently lives.
///
/// The surrounding shard metadata (stable ids, tombstones, routing statistics) always
/// stays resident — only the `rows x dim` payload spills, because that is where
/// virtually all of a shard's memory goes.
#[derive(Debug)]
pub(crate) enum ShardStorage {
    /// In memory: the exact matrix — the bit-identical source of truth for scoring,
    /// mutation and snapshots — and its i8 tier when the shard is quantized.
    Resident {
        exact: Matrix,
        quant: Option<QuantizedMatrix>,
    },
    /// On disk in either payload format, read through the validated bytes of the file.
    Spilled(PayloadFile),
}

impl Clone for ShardStorage {
    /// Cloning copies a spilled payload back into memory, both tiers: spill files are
    /// single-owner (deleted on drop), so the clone gets an independent resident copy.
    ///
    /// # Panics
    /// `Clone` has no error channel, so a payload that stays unreadable through the
    /// retries panics here — with the typed [`StorageError`] message. Query paths never
    /// clone storage; this is only reachable through an explicit index clone.
    fn clone(&self) -> Self {
        self.to_resident()
            .unwrap_or_else(|e| panic!("ShardStorage::clone: {e}"))
    }
}

impl ShardStorage {
    /// Rows of the stored matrix (including zero padding rows).
    pub(crate) fn rows(&self) -> usize {
        match self {
            ShardStorage::Resident { exact, .. } => exact.rows(),
            ShardStorage::Spilled(file) => file.rows,
        }
    }

    /// Columns of the stored matrix.
    pub(crate) fn cols(&self) -> usize {
        match self {
            ShardStorage::Resident { exact, .. } => exact.cols(),
            ShardStorage::Spilled(file) => file.cols,
        }
    }

    /// Bytes the **exact f32** payload occupies (or would occupy) in memory, wherever it
    /// lives — what the residency budget weighs.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.rows()
            .saturating_mul(self.cols())
            .saturating_mul(std::mem::size_of::<f32>())
    }

    /// `true` when the exact payload is in memory.
    pub(crate) fn is_resident(&self) -> bool {
        matches!(self, ShardStorage::Resident { .. })
    }

    /// `true` when this storage carries the i8 tier (resident or spilled).
    pub(crate) fn is_quantized(&self) -> bool {
        match self {
            ShardStorage::Resident { quant, .. } => quant.is_some(),
            ShardStorage::Spilled(file) => file.format == Format::Quantized,
        }
    }

    /// Bytes of exact payload held in memory (0 when spilled) — the quantity the
    /// residency budget is accounted in. The i8 tier is metadata-sized and deliberately
    /// outside the budget, like the routing statistics (see
    /// [`ShardStorage::quantized_payload_bytes`]).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            ShardStorage::Resident { exact, .. } => std::mem::size_of_val(exact.data()),
            ShardStorage::Spilled(_) => 0,
        }
    }

    /// Heap bytes of the i8 tier (codes + scales): 0 for plain storage and for a spilled
    /// quantized shard whose cache is not decoded yet.
    pub(crate) fn quantized_payload_bytes(&self) -> usize {
        match self {
            ShardStorage::Resident { quant, .. } => quant.as_ref(),
            ShardStorage::Spilled(file) => file.quant.get(),
        }
        .map_or(0, QuantizedMatrix::heap_bytes)
    }

    /// The payload file of a spilled shard, `None` when resident.
    pub(crate) fn backing_file(&self) -> Option<&Path> {
        match self {
            ShardStorage::Resident { .. } => None,
            ShardStorage::Spilled(file) => Some(&file.path),
        }
    }

    /// The i8 tier for the first-stage scan: `None` for plain storage.
    ///
    /// # Errors
    /// The inner `Result` fails like [`ShardStorage::matrix`]: a spilled payload that
    /// stayed unreadable through the retries, which the caller quarantines.
    pub(crate) fn quant(&self) -> Option<Result<&QuantizedMatrix, StorageError>> {
        match self {
            ShardStorage::Resident { quant, .. } => quant.as_ref().map(Ok),
            ShardStorage::Spilled(file) => file.quant(),
        }
    }

    fn exact(&self) -> Result<Cow<'_, [f32]>, StorageError> {
        match self {
            ShardStorage::Resident { exact, .. } => Ok(Cow::Borrowed(exact.data())),
            ShardStorage::Spilled(file) => file.exact(),
        }
    }

    /// The exact matrix: borrowed when resident, copied out of the file's validated bytes
    /// when spilled (compaction).
    ///
    /// # Errors
    /// A spilled payload that stayed unreadable through the retries — the caller decides
    /// whether that degrades one query (quarantine) or the whole operation.
    pub(crate) fn matrix(&self) -> Result<Cow<'_, Matrix>, StorageError> {
        match self {
            ShardStorage::Resident { exact, .. } => Ok(Cow::Borrowed(exact)),
            ShardStorage::Spilled(_) => Ok(Cow::Owned(Matrix::from_vec(
                self.rows(),
                self.cols(),
                self.exact()?.into_owned(),
            ))),
        }
    }

    /// Runs `f` over the exact rows — the query path. A resident matrix and a spilled
    /// shard's validated bytes are both borrowed, never copied (except on a big-endian
    /// host), so a spilled shard's working set is the page cache shared by every process
    /// serving the file.
    ///
    /// # Errors
    /// Same contract as [`ShardStorage::matrix`].
    pub(crate) fn with_exact<R>(
        &self,
        f: impl FnOnce(MatrixView<'_>) -> R,
    ) -> Result<R, StorageError> {
        let data = self.exact()?;
        Ok(f(MatrixView::new(self.rows(), self.cols(), &data)))
    }

    fn to_resident(&self) -> Result<ShardStorage, StorageError> {
        Ok(ShardStorage::Resident {
            exact: self.matrix()?.into_owned(),
            quant: self.quant().transpose()?.cloned(),
        })
    }

    /// Spills both tiers to a fresh file under `dir`; no-op when already spilled. On I/O
    /// failure the storage stays resident (spilling is an optimization; the error is
    /// returned for reporting).
    ///
    /// Failpoint `spill.write.io_err`: fails before touching the filesystem.
    pub(crate) fn spill(&mut self, dir: &SpillDir) -> io::Result<()> {
        let ShardStorage::Resident { exact, quant } = self else {
            return Ok(());
        };
        if faults::fires("spill.write.io_err") {
            return Err(io::Error::other(
                "failpoint spill.write.io_err: injected spill-write failure",
            ));
        }
        let path = dir.next_path();
        write_payload(&path, exact, quant.as_ref())?;
        let mut file =
            PayloadFile::open(path, Format::of(quant.as_ref()), exact.rows(), exact.cols());
        file.dir = Some(dir.clone());
        // The i8 tier moves into the handle's cache: spilling never reads its own file.
        if let Some(quant) = quant.take() {
            let _ = file.quant.set(quant);
        }
        *self = ShardStorage::Spilled(file);
        Ok(())
    }

    /// Faults a spilled payload back into memory with both tiers — the codes are in the
    /// file, so residency never costs the i8 tier. An owned spill file is deleted; a
    /// snapshot payload stays on disk for other loads. No-op when resident.
    ///
    /// # Errors
    /// A payload unreadable after the retries; the storage stays spilled.
    pub(crate) fn fault_in(&mut self) -> Result<(), StorageError> {
        if let ShardStorage::Spilled(file) = self {
            let exact = Matrix::from_vec(file.rows, file.cols, file.exact()?.into_owned());
            file.quant().transpose()?; // decodes the i8 tier into the cache it moves out of
            let quant = file.quant.take();
            *self = ShardStorage::Resident { exact, quant };
        }
        Ok(())
    }

    /// The exact matrix for mutation (ingestion into the tail shard): faulted in, with the
    /// i8 tier dropped because the change invalidates it — the next `compact()`
    /// re-quantizes under the index's setting.
    ///
    /// # Errors
    /// As [`ShardStorage::fault_in`].
    pub(crate) fn matrix_mut(&mut self) -> Result<&mut Matrix, StorageError> {
        self.fault_in()?;
        let ShardStorage::Resident { exact, quant } = self else {
            unreachable!("faulted in above")
        };
        *quant = None;
        Ok(exact)
    }

    /// Builds (`true`) or drops (`false`) the i8 tier of a resident shard. Spilled storage
    /// is left as it is — compaction faults a mismatched shard in first.
    pub(crate) fn set_quantized(&mut self, on: bool) {
        if let ShardStorage::Resident { exact, quant } = self {
            if quant.is_some() != on {
                *quant = on.then(|| QuantizedMatrix::quantize(exact));
            }
        }
    }

    /// Persists the payload as the snapshot file `dest` inside `dir`: a resident shard is
    /// written, a spilled one copied without decoding — or left alone when its file
    /// already *is* `dest` (an unmutated loaded index saved back into its own directory).
    ///
    /// # Errors
    /// Any I/O failure; [`io::ErrorKind::InvalidInput`] when the payload is a *different*
    /// file inside `dir`: the shard moved position since the snapshot was loaded, and
    /// overwriting files under the index's own handles would corrupt it.
    pub(crate) fn persist(&self, dir: &Path, dest: &Path) -> io::Result<()> {
        match self {
            ShardStorage::Resident { exact, quant } => {
                crate::snapshot::write_file_atomic(dest, |tmp| {
                    write_payload(tmp, exact, quant.as_ref())
                })
            }
            ShardStorage::Spilled(file) if same_file(&file.path, dest) => Ok(()),
            ShardStorage::Spilled(file)
                if file.path.parent().is_some_and(|p| same_file(p, dir)) =>
            {
                Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "saving {}: the shard is backed by {}, another file in the same \
                         directory; save a mutated snapshot-loaded index into a fresh \
                         directory instead",
                        dest.display(),
                        file.path.display()
                    ),
                ))
            }
            ShardStorage::Spilled(file) => {
                crate::snapshot::write_file_atomic(dest, |tmp| fs::copy(&file.path, tmp).map(drop))
            }
        }
    }
}

// ---- i8 quantization -----------------------------------------------------------------

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

    fn resident(exact: Matrix, quantized: bool) -> ShardStorage {
        let mut storage = ShardStorage::Resident { exact, quant: None };
        storage.set_quantized(quantized);
        storage
    }

    fn file_of(storage: &ShardStorage) -> &PayloadFile {
        match storage {
            ShardStorage::Spilled(file) => file,
            ShardStorage::Resident { .. } => panic!("storage is resident"),
        }
    }

    fn bits(data: &[f32]) -> Vec<u32> {
        data.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn spill_round_trip_is_byte_identical_on_both_tiers() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let exact = fixture_matrix();
        for quantized in [false, true] {
            let mut storage = resident(exact.clone(), quantized);
            let quant = storage.quant().map(|q| q.unwrap().clone());
            storage.spill(&dir).expect("spill");
            // A fresh non-owning handle reads both tiers from the file alone.
            let file = file_of(&storage);
            let cold = ShardStorage::Spilled(PayloadFile::open(
                file.path.clone(),
                file.format,
                file.rows,
                file.cols,
            ));
            assert_eq!(
                bits(cold.matrix().expect("read").data()),
                bits(exact.data())
            );
            let viewed = cold
                .with_exact(|view| bits(view.to_matrix().data()))
                .unwrap();
            assert_eq!(
                viewed,
                bits(exact.data()),
                "the query path serves the same bits"
            );
            assert_eq!(cold.quant().map(|q| q.unwrap().clone()), quant);
        }
    }

    #[test]
    fn storage_transitions_preserve_both_tiers_and_account_bytes() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let exact = fixture_matrix();
        let bytes = exact.data().len() * 4;
        let qbytes = exact.rows() * exact.cols() + exact.rows() * 4;
        for quantized in [false, true] {
            let mut storage = resident(exact.clone(), quantized);
            assert!(storage.is_resident() && storage.is_quantized() == quantized);
            assert_eq!(storage.resident_bytes(), bytes);
            assert_eq!(
                storage.quantized_payload_bytes(),
                if quantized { qbytes } else { 0 }
            );

            storage.spill(&dir).expect("spill");
            assert!(!storage.is_resident() && storage.is_quantized() == quantized);
            assert_eq!(storage.resident_bytes(), 0);
            assert_eq!(storage.payload_bytes(), bytes);
            // The spill moved the i8 tier into the handle's cache: still in memory.
            assert_eq!(
                storage.quantized_payload_bytes(),
                if quantized { qbytes } else { 0 }
            );
            assert_eq!(*storage.matrix().expect("copied out"), exact);

            // Cloning a spilled storage produces an independent resident copy.
            let cloned = storage.clone();
            assert!(cloned.is_resident() && cloned.is_quantized() == quantized);
            assert_eq!(*cloned.matrix().expect("resident"), exact);

            // Faulting back for residency keeps the i8 tier; mutation drops it.
            storage.fault_in().expect("fault back");
            assert!(storage.is_resident() && storage.is_quantized() == quantized);
            assert_eq!(storage.resident_bytes(), bytes);
            assert_eq!(*storage.matrix_mut().expect("resident"), exact);
            assert!(!storage.is_quantized());
        }
    }

    #[test]
    fn owned_files_and_directory_are_cleaned_up_on_drop() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let dir_path = dir.path().to_path_buf();
        let mut storage = resident(fixture_matrix(), false);
        storage.spill(&dir).expect("spill");
        let file_path = storage.backing_file().unwrap().to_path_buf();
        assert!(file_path.exists());
        // Faulting back drops the owning handle, and with it the spill file.
        storage.fault_in().expect("fault back");
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
    fn snapshot_payloads_are_non_owning_and_persist_by_copy() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let mut spilled = resident(matrix.clone(), false);
        spilled.spill(&dir).expect("spill");
        // Persisting a spilled shard copies its file; a spill file inside the target
        // directory is refused, since the shard moved position.
        let snapshot_path = dir.path().join("snapshot-copy.bin");
        let err = spilled.persist(dir.path(), &snapshot_path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let elsewhere = SpillDir::create().expect("second dir");
        spilled
            .persist(elsewhere.path(), &snapshot_path)
            .expect("copy");

        let open = || PayloadFile::open(snapshot_path.clone(), Format::Exact, 12, 5);
        let opened = ShardStorage::Spilled(open());
        opened
            .persist(dir.path(), &snapshot_path)
            .expect("self-persist is a no-op");
        assert_eq!(*opened.matrix().expect("read"), matrix);
        assert_eq!(opened.backing_file(), Some(snapshot_path.as_path()));
        drop(opened);
        assert!(
            snapshot_path.exists(),
            "a non-owning handle leaves the file on disk"
        );

        // A wrong manifest shape is caught by the length check, before any read.
        let err = PayloadFile::open(snapshot_path.clone(), Format::Exact, 16, 5)
            .check_length()
            .expect_err("bad shape must fail fast");
        assert!(err.is_corrupt(), "length mismatch is corruption: {err}");
        assert!(err.to_string().contains("bytes on disk"), "got: {err}");
        open().check_length().expect("the recorded shape matches");
    }

    /// One validator for both formats: truncating, extending, or flipping any byte of a
    /// payload — header, scales, exact rows, codes or trailer — is a typed corruption
    /// error naming what failed, never a panic and never wrong bytes.
    #[test]
    fn seeded_corruption_sweep_fails_typed_on_both_formats() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let path = dir.path().join("mutant.bin");
        let exact = fixture_matrix();
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for format in [Format::Exact, Format::Quantized] {
            let quant = (format == Format::Quantized).then(|| QuantizedMatrix::quantize(&exact));
            write_payload(&path, &exact, quant.as_ref()).unwrap();
            let original = fs::read(&path).unwrap();
            let layout = Layout::new(format, 12, 5).unwrap();
            for case in 0..100 {
                let mut bytes = original.clone();
                let expected = match case % 4 {
                    0 => {
                        bytes.truncate(next(bytes.len()));
                        "bytes on disk"
                    }
                    1 => {
                        bytes.extend((0..1 + next(16)).map(|_| next(256) as u8));
                        "bytes on disk"
                    }
                    _ => {
                        // Every other flip lands in the header or the trailer.
                        let at = match case % 8 {
                            2 => next(layout.scales_at),
                            3 => layout.trailer_at + next(TRAILER_LEN),
                            _ => next(bytes.len()),
                        };
                        bytes[at] ^= 1 + next(255) as u8;
                        if at < layout.magic().len() {
                            "bad magic"
                        } else if (layout.shape_at..layout.shape_at + 16).contains(&at) {
                            "header shape"
                        } else {
                            "CRC-32"
                        }
                    }
                };
                fs::write(&path, &bytes).unwrap();
                let file = PayloadFile::open(path.clone(), format, 12, 5);
                let err = file
                    .check_length()
                    .and_then(|()| file.exact().map(drop))
                    .expect_err("a corrupt payload must not read");
                assert!(err.is_corrupt(), "case {case}: {err}");
                assert!(err.to_string().contains(expected), "case {case}: {err}");
                if let Some(read) = file.quant() {
                    assert!(read.expect_err("codes must not decode").is_corrupt());
                }
            }
        }
    }

    /// Regression: a recorded shape whose payload length overflows used to panic (debug)
    /// or wrap (release) in the length arithmetic.
    #[test]
    fn shapes_whose_payload_length_overflows_are_corrupt() {
        let _quiet = faults::quiet_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let path = dir.path().join("tiny.bin");
        write_payload(&path, &fixture_matrix(), None).unwrap();
        for format in [Format::Exact, Format::Quantized] {
            for (rows, cols) in [(usize::MAX / 4, 8), (2, usize::MAX / 2), (usize::MAX, 1)] {
                let file = PayloadFile::open(path.clone(), format, rows, cols);
                assert!(file.check_length().unwrap_err().is_corrupt());
                assert!(file.exact().unwrap_err().is_corrupt());
                let storage = ShardStorage::Spilled(file);
                assert!(storage.matrix().unwrap_err().is_corrupt());
                assert_eq!(storage.payload_bytes(), usize::MAX);
            }
        }
    }

    /// The same regression through a snapshot whose manifest records an absurd shard
    /// shape under a valid CRC: the shard is quarantined (sharded layout) or the load
    /// fails typed (dense layout), never a panic.
    #[test]
    fn manifest_shapes_that_overflow_quarantine_or_fail_typed() {
        let _quiet = faults::quiet_scope();
        let rows: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32, 1.0, -2.0, 0.5]).collect();
        let dir = std::env::temp_dir().join(format!("swshard-overflow-{}", std::process::id()));
        // Rewrites the u64 at `at` and re-seals the manifest's CRC-32 trailer.
        let rewrite = |at: usize| {
            let manifest = dir.join(crate::MANIFEST_FILE);
            let mut bytes = fs::read(&manifest).unwrap();
            bytes[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            fs::write(&manifest, &bytes).unwrap();
        };
        for quantized in [false, true] {
            let mut index = crate::ShardedCosineIndex::from_vectors(&rows, 4);
            index.set_quantization(quantized.then(crate::QuantSpec::default));
            index.compact();
            index.save_snapshot(&dir).unwrap();
            // magic 8 · layout 1 · dim, capacity, next_id, live, num_shards — then shard
            // 0's `rows`.
            rewrite(8 + 1 + 5 * 8);
            let mut loaded = crate::ShardedCosineIndex::load_snapshot(&dir).expect("loads");
            assert_eq!(loaded.quarantined_shards(), vec![0]);
            let outcome = loaded.knn_join_report(&rows[..2], 12);
            assert!(outcome.degraded && outcome.pairs.len() == 2 * 8);
            loaded.compact();
            assert_eq!((loaded.len(), loaded.num_shards()), (8, 2));
        }
        // The dense layout: magic 8 · layout 1 · dim · len — then the payload `rows`.
        crate::BlockingIndex::build(rows.clone(), None)
            .save_snapshot(&dir)
            .unwrap();
        rewrite(8 + 1 + 2 * 8);
        let err = crate::BlockingIndex::load_snapshot(&dir).expect_err("typed failure");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn f32_sections_decode_when_unaligned() {
        let floats = [1.5f32, -0.0, f32::NAN, 1.0e-40];
        let mut bytes = vec![0u8];
        for x in floats {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        // One of the two offsets is misaligned whatever the buffer's own alignment.
        for offset in [0, 1] {
            let section = &bytes[offset..offset + 16];
            let decoded: Vec<f32> = section
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            assert_eq!(bits(&f32s(section)), bits(&decoded));
        }
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
        let mut storage = resident(fixture_matrix(), false);
        storage.spill(&dir).expect("spill");
        fs::remove_file(storage.backing_file().unwrap()).unwrap();
        let err = storage.matrix().expect_err("missing file must fail");
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
        let mut storage = resident(matrix.clone(), false);
        storage.spill(&dir).expect("spill");

        // A bounded transient fault: a single attempt fails, the retry loop rides it out.
        faults::arm("spill.read.io_err", faults::Policy::Times(2));
        assert!(file_of(&storage).read_validated().is_err());
        assert_eq!(*storage.matrix().expect("retries recover"), matrix);
        faults::disarm("spill.read.io_err");

        // A durable fault exhausts the retries of a fresh handle and surfaces the error.
        faults::arm("spill.read.io_err", faults::Policy::Always);
        let file = file_of(&storage);
        let fresh = PayloadFile::open(file.path.clone(), file.format, file.rows, file.cols);
        let err = fresh.exact().expect_err("durable fault");
        assert!(err.to_string().contains("spill.read.io_err"), "got: {err}");
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

    /// Pins both payload formats byte for byte. The expected bytes are assembled from
    /// the layout tables in the module docs, not by the writer: a snapshot save must
    /// write exactly them, and a cold load must read both tiers back bit for bit.
    #[test]
    fn both_payload_formats_match_the_documented_layout_byte_for_byte() {
        let _quiet = faults::quiet_scope();
        // Six rows pad to an 8x3 shard matrix. Normalization leaves a NaN row as it is
        // and divides unit rows by exactly 1.0, so -0.0 and the denormal survive.
        let rows = vec![
            vec![1.0, -0.0, 1.0e-40],
            vec![f32::NAN, 0.5, -2.0],
            vec![0.0, 0.6, 0.8],
            vec![-0.0, -1.0, 0.0],
            vec![3.0, 4.0, 12.0],
            vec![0.25, -0.5, f32::MIN_POSITIVE],
        ];
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let put_f32s = |out: &mut Vec<u8>, xs: &[f32]| {
            for x in xs {
                out.extend_from_slice(&x.to_le_bytes());
            }
        };
        for quantized in [false, true] {
            let mut index = crate::ShardedCosineIndex::from_vectors(&rows, 8);
            if quantized {
                index.set_quantization(Some(crate::QuantSpec::default()));
                index.compact();
            }
            let exact = index.shards[0].storage.matrix().unwrap().into_owned();
            assert_eq!((exact.rows(), exact.cols()), (8, 3));
            assert!(exact.data().iter().any(|x| x.is_nan()));
            assert!(bits(&exact).contains(&(-0.0f32).to_bits()));
            assert!(bits(&exact).contains(&1.0e-40f32.to_bits()));

            let quant = quantized.then(|| QuantizedMatrix::quantize(&exact));
            let mut expected = Vec::new();
            match &quant {
                None => expected.extend_from_slice(b"SWSHARD1"),
                Some(_) => {
                    expected.extend_from_slice(b"SWSHARDQ1");
                    expected.extend_from_slice(&[0u8; 7]);
                }
            }
            expected.extend_from_slice(&8u64.to_le_bytes());
            expected.extend_from_slice(&3u64.to_le_bytes());
            if let Some(q) = &quant {
                put_f32s(&mut expected, &[q.max_err_norm(), q.max_row_norm()]);
                put_f32s(&mut expected, q.scales());
            }
            put_f32s(&mut expected, exact.data());
            if let Some(q) = &quant {
                expected.extend(q.codes().iter().map(|&c| c as u8));
            }
            let crc = crc32(&expected);
            expected.extend_from_slice(&crc.to_le_bytes());

            let dir = std::env::temp_dir()
                .join(format!("swshard-golden-{}-{quantized}", std::process::id()));
            index.save_snapshot(&dir).unwrap();
            assert_eq!(fs::read(dir.join("shard-0.bin")).unwrap(), expected);

            let loaded = crate::ShardedCosineIndex::load_snapshot(&dir).unwrap();
            let storage = &loaded.shards[0].storage;
            assert!(!storage.is_resident());
            assert_eq!(storage.is_quantized(), quantized);
            assert_eq!(
                bits(&storage.matrix().expect("reader accepts")),
                bits(&exact)
            );
            if let Some(q) = &quant {
                assert_eq!(storage.quant().unwrap().expect("reader accepts"), q);
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn injected_write_faults_keep_the_shard_resident() {
        let _faults = faults::arm_scope();
        let dir = SpillDir::create().expect("create spill dir");
        let mut storage = resident(fixture_matrix(), false);
        faults::arm("spill.write.io_err", faults::Policy::Once);
        assert!(storage.spill(&dir).is_err(), "injected write fault");
        assert!(storage.is_resident(), "a failed spill must not lose data");
        storage.spill(&dir).expect("next spill succeeds");
        assert!(!storage.is_resident());
    }
}
