//! Model snapshots: a trained encoder + pair matcher as a build-once artifact.
//!
//! The same idiom the blocking index uses for its shards (`sudowoodo_index::snapshot`)
//! applied to model weights: train once, [`save_matcher`] the matcher next to the index
//! snapshot, and any number of serving processes [`load_matcher`] it **cold** — no
//! corpus, no pre-training, no fine-tuning — and answer `EMBED`/`MATCH` traffic with
//! answers **bit-identical** to the process that trained it (the parameters are stored
//! as raw IEEE-754 `f32` bits and rebound by name, and inference is a deterministic
//! function of weights + batch).
//!
//! ## The `SWMODEL1` format
//!
//! One file, little-endian throughout:
//!
//! ```text
//! magic    "SWMODEL1" (8 bytes)
//! encoder  kind u8 (0 = MeanPool, 1 = Transformer) · dim u32 · layers u32 ·
//!          heads u32 · ff_hidden u32 · max_len u32
//! matcher  use_diff_head u8
//! vocab    num_tokens u32 · (len u32 · UTF-8 bytes)×num_tokens · hash_buckets u32
//!          (the full id-ordered token list, specials first — ids are positions)
//! params   num_params u32 · (name_len u32 · UTF-8 name · rows u32 · cols u32 ·
//!          f32×(rows·cols))×num_params
//! crc      CRC-32 over every preceding byte (u32)
//! ```
//!
//! A header may carry at most [`MAX_LAYERS`] layers, [`MAX_HEADS`] heads and a
//! `max_len` of [`MAX_LEN`], whichever the kind: a `MeanPool` encoder stores no weight
//! these shape, so nothing else in the file bounds them.
//!
//! Writes are atomic (tmp file + rename), so a crash mid-write leaves either the old
//! model or none — never a torn file; the CRC turns silent corruption into a typed
//! load error instead of silently-wrong scores. The file is a *sibling* of the index
//! snapshot (conventionally `model.swmodel` inside the snapshot directory): the index
//! snapshot's stale-payload sweep only touches its own payload names, so the model
//! survives index republishes.

use std::io::{self, Read, Write};
use std::path::Path;

use sudowoodo_nn::matrix::Matrix;
use sudowoodo_text::Vocab;

use crate::config::{EncoderConfig, EncoderKind};
use crate::encoder::Encoder;
use crate::matcher::PairMatcher;

/// Leading magic of a model snapshot file.
const MAGIC: &[u8; 8] = b"SWMODEL1";

/// Conventional file name of the model snapshot inside an index snapshot directory.
pub const MODEL_SNAPSHOT_FILE: &str = "model.swmodel";

/// The most Transformer layers a model snapshot may declare. Every configuration this
/// repository builds has at most 2 layers, 4 heads and a `max_len` of 40.
pub const MAX_LAYERS: usize = 64;
/// The most attention heads a model snapshot may declare.
pub const MAX_HEADS: usize = 64;
/// The longest `max_len` a model snapshot may declare.
pub const MAX_LEN: usize = 4096;

// CRC-32 (IEEE, the same polynomial the index snapshot uses). Reimplemented here
// because the index crate keeps its checksum internal — 12 lines beat a new
// public-API surface between crates.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc ^ 0xFFFF_FFFF
}

fn corrupt(path: &Path, what: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("model snapshot {}: {}", path.display(), what.into()),
    )
}

fn push_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Serializes a trained matcher (encoder + head) and writes it atomically.
///
/// # Errors
/// Only I/O failures — every matcher state is representable.
pub fn save_matcher(matcher: &PairMatcher, path: &Path) -> io::Result<()> {
    let mut body = Vec::new();
    body.extend_from_slice(MAGIC);

    let config = &matcher.encoder.config;
    body.push(match config.kind {
        EncoderKind::MeanPool => 0u8,
        EncoderKind::Transformer => 1u8,
    });
    push_u32(&mut body, config.dim);
    push_u32(&mut body, config.layers);
    push_u32(&mut body, config.heads);
    push_u32(&mut body, config.ff_hidden);
    push_u32(&mut body, config.max_len);
    body.push(u8::from(matcher.uses_diff_head()));

    let (tokens, hash_buckets) = matcher.encoder.vocab().parts();
    push_u32(&mut body, tokens.len());
    for token in tokens {
        push_str(&mut body, token);
    }
    push_u32(&mut body, hash_buckets);

    let params = matcher.params();
    push_u32(&mut body, params.len());
    for param in &params {
        push_str(&mut body, &param.name());
        param.with_value(|value| {
            push_u32(&mut body, value.rows());
            push_u32(&mut body, value.cols());
            for &x in value.data() {
                body.extend_from_slice(&x.to_le_bytes());
            }
        });
    }

    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());

    // Atomic publish: write a sibling tmp file, then rename over the destination —
    // a crash leaves the old model (or nothing), never a torn file.
    let tmp = path.with_extension("swmodel.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&body)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// A checked little-endian cursor over the snapshot body.
struct Reader<'a> {
    path: &'a Path,
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let bytes = self
            .body
            .get(self.at..self.at.saturating_add(n))
            .ok_or_else(|| corrupt(self.path, format!("truncated {what}")))?;
        self.at += n;
        Ok(bytes)
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> io::Result<usize> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()) as usize)
    }

    fn string(&mut self, what: &str) -> io::Result<String> {
        let len = self.u32(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(self.path, format!("{what} is not valid UTF-8")))
    }
}

/// Loads a matcher saved by [`save_matcher`]: rebuilds the encoder skeleton from the
/// stored configuration + vocabulary, then overwrites every parameter with the stored
/// bits, matched **by name**. The result scores any batch bit-identically to the
/// matcher that was saved.
///
/// # Errors
/// I/O failures, and [`std::io::ErrorKind::InvalidData`] for a torn, truncated, or
/// corrupted file (bad magic, CRC mismatch, unknown fields, a configuration no encoder
/// can be built from or whose weights outgrow the file, parameter sets that do not
/// line up with the stored configuration).
pub fn load_matcher(path: &Path) -> io::Result<PairMatcher> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 4 {
        return Err(corrupt(path, "file too short for magic and checksum"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return Err(corrupt(
            path,
            format!("checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"),
        ));
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err(corrupt(path, "bad magic (not an SWMODEL1 file)"));
    }
    let mut r = Reader {
        path,
        body,
        at: MAGIC.len(),
    };

    let kind = match r.u8("encoder kind")? {
        0 => EncoderKind::MeanPool,
        1 => EncoderKind::Transformer,
        other => return Err(corrupt(path, format!("unknown encoder kind {other}"))),
    };
    let config = EncoderConfig {
        kind,
        dim: r.u32("encoder dim")?,
        layers: r.u32("encoder layers")?,
        heads: r.u32("encoder heads")?,
        ff_hidden: r.u32("encoder ff_hidden")?,
        max_len: r.u32("encoder max_len")?,
    };
    if config.layers > 0 && (config.heads == 0 || !config.dim.is_multiple_of(config.heads)) {
        return Err(corrupt(
            path,
            format!("{} heads cannot split dim {}", config.heads, config.dim),
        ));
    }
    if config.dim == 0 || config.max_len == 0 {
        return Err(corrupt(path, "dim and max_len must be positive"));
    }
    if config.layers > MAX_LAYERS || config.heads > MAX_HEADS || config.max_len > MAX_LEN {
        return Err(corrupt(
            path,
            format!(
                "{} layers, {} heads or max_len {} is past the cap of \
                 {MAX_LAYERS}, {MAX_HEADS} and {MAX_LEN}",
                config.layers, config.heads, config.max_len
            ),
        ));
    }
    let use_diff_head = match r.u8("use_diff_head")? {
        0 => false,
        1 => true,
        other => return Err(corrupt(path, format!("bad use_diff_head byte {other}"))),
    };

    let num_tokens = r.u32("vocab size")?;
    let mut tokens = Vec::with_capacity(num_tokens.min(body.len() / 4 + 1));
    for _ in 0..num_tokens {
        tokens.push(r.string("vocab token")?);
    }
    let hash_buckets = r.u32("vocab hash_buckets")?;
    let vocab = Vocab::from_parts(tokens, hash_buckets);

    // Every parameter the kind stores carries its full data, so weights that outgrow
    // the rest of the file mean a corrupt header — caught before anything is allocated.
    // Both kinds store the token table and the output norm's gain and bias.
    let weights = (|| {
        let (d, f) = (config.dim, config.ff_hidden);
        let table = vocab.size().checked_add(2)?.checked_mul(d)?;
        let ff = d.checked_mul(f)?.checked_mul(2)?;
        match kind {
            EncoderKind::MeanPool => table.checked_add(ff),
            EncoderKind::Transformer => {
                let block = d.checked_mul(d)?.checked_mul(4)?.checked_add(ff)?;
                let blocks = config.layers.checked_mul(block)?;
                table
                    .checked_add(config.max_len.checked_mul(d)?)?
                    .checked_add(blocks)
            }
        }
    })();
    if weights.is_none_or(|n| n > (body.len() - r.at) / 4) {
        return Err(corrupt(path, "the header's weights outgrow the file"));
    }

    // Every parameter is overwritten below, so the skeleton's random init is moot.
    let matcher = PairMatcher::new(Encoder::skeleton(config, vocab), use_diff_head, 0);

    let num_params = r.u32("parameter count")?;
    let skeleton = matcher.params();
    if num_params != skeleton.len() {
        return Err(corrupt(
            path,
            format!(
                "stores {num_params} parameters but the configuration rebuilds {}",
                skeleton.len()
            ),
        ));
    }
    let mut restored = 0usize;
    for _ in 0..num_params {
        let name = r.string("parameter name")?;
        let rows = r.u32("parameter rows")?;
        let cols = r.u32("parameter cols")?;
        let bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| corrupt(path, format!("parameter {name}: shape overflows")))?;
        let raw = r.take(bytes, "parameter data")?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let target = skeleton
            .iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| corrupt(path, format!("parameter {name} has no home in the model")))?;
        if target.shape() != (rows, cols) {
            return Err(corrupt(
                path,
                format!(
                    "parameter {name} is {rows}x{cols} on disk but {:?} in the model",
                    target.shape()
                ),
            ));
        }
        target.set_value(Matrix::from_vec(rows, cols, data));
        restored += 1;
    }
    if r.at != body.len() {
        return Err(corrupt(
            path,
            format!(
                "{} trailing bytes after the last parameter",
                body.len() - r.at
            ),
        ));
    }
    debug_assert_eq!(restored, skeleton.len());
    Ok(matcher)
}

/// A loaded matcher as a [`sudowoodo_serve::ModelBackend`]: what
/// [`sudowoodo_serve::Server::spawn_with_model`] serves `EMBED`/`MATCH` from.
///
/// `embed` is the encoder's `embed_all` and `match_scores` the matcher's
/// `predict_scores`, verbatim — the served answers are therefore bit-identical to
/// calling the in-process model on the same batch, which is exactly the contract
/// the trait documents (and why the server never coalesces model batches).
pub struct MatcherBackend(pub PairMatcher);

impl sudowoodo_serve::ModelBackend for MatcherBackend {
    fn dim(&self) -> usize {
        self.0.encoder.dim()
    }

    fn embed(&self, texts: &[String]) -> Vec<Vec<f32>> {
        self.0.encoder.embed_all(texts)
    }

    fn match_scores(&self, lefts: &[String], rights: &[String]) -> Vec<f32> {
        let pairs: Vec<(String, String)> =
            lefts.iter().cloned().zip(rights.iter().cloned()).collect();
        self.0.predict_scores(&pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{FineTuneConfig, TrainPair};
    use sudowoodo_serve::ModelBackend;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sudowoodo-model-{tag}-{}-{n}.swmodel",
            std::process::id()
        ))
    }

    /// `bytes` with the trailing CRC recomputed, so that only an edit to the body is wrong.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let at = bytes.len() - 4;
        let crc = crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn trained_matcher() -> PairMatcher {
        let corpus: Vec<String> = (0..8)
            .map(|i| format!("[COL] title [VAL] canon printer model m{i}"))
            .collect();
        let encoder = Encoder::from_corpus(EncoderConfig::tiny(), &corpus, 5);
        let mut matcher = PairMatcher::new(encoder, true, 5);
        let pairs: Vec<TrainPair> = (0..4)
            .map(|i| {
                TrainPair::new(
                    corpus[i].clone(),
                    corpus[(i + 1) % corpus.len()].clone(),
                    i % 2 == 0,
                )
            })
            .collect();
        matcher.fine_tune(
            &pairs,
            &FineTuneConfig {
                epochs: 1,
                batch_size: 4,
                learning_rate: 1e-3,
                seed: 9,
            },
        );
        matcher
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let matcher = trained_matcher();
        let path = tmp_path("roundtrip");
        save_matcher(&matcher, &path).expect("save");
        let loaded = load_matcher(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.uses_diff_head(), matcher.uses_diff_head());
        assert_eq!(loaded.encoder.config, matcher.encoder.config);

        let texts: Vec<String> = (0..5)
            .map(|i| format!("[COL] title [VAL] canon printer model m{i}"))
            .collect();
        for (a, b) in matcher
            .encoder
            .embed_all(&texts)
            .iter()
            .zip(loaded.encoder.embed_all(&texts).iter())
        {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "embedding bits diverged");
            }
        }
        let pairs: Vec<(String, String)> = texts
            .iter()
            .cloned()
            .zip(texts.iter().rev().cloned())
            .collect();
        for (x, y) in matcher
            .predict_scores(&pairs)
            .iter()
            .zip(loaded.predict_scores(&pairs).iter())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "match score bits diverged");
        }
    }

    #[test]
    fn corrupted_or_truncated_files_are_typed_errors() {
        let matcher = trained_matcher();
        let path = tmp_path("corrupt");
        save_matcher(&matcher, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");

        // Flip one weight byte: the CRC must catch it.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("write corrupt");
        let err = load_matcher(&path).expect_err("corruption must fail the load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");

        // Truncate: also a typed error, never a panic.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("write truncated");
        let err = load_matcher(&path).expect_err("truncation must fail the load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Wrong magic, the CRC re-sealed so only the magic is wrong.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        std::fs::write(&path, resealed(wrong)).expect("write bad magic");
        let err = load_matcher(&path).expect_err("bad magic must fail the load");
        assert!(err.to_string().contains("magic"), "got: {err}");

        // Headers no model can be built from, CRC re-sealed: zero heads (byte 17), and a
        // dim (byte 9) whose token table alone would take gigabytes. Both fail typed
        // before the skeleton is built.
        for (at, value) in [(17, 0u32), (9, 1 << 28)] {
            let mut header = bytes.clone();
            header[at..at + 4].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&path, resealed(header)).expect("write bad header");
            let err = load_matcher(&path).expect_err("a bad header must fail the load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "got: {err}");
        }

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn headers_past_the_caps_fail_typed_for_both_kinds() {
        // A MeanPool header stores no weight its layers, heads or max_len shape, so only
        // the caps reject these (CRC re-sealed): byte 13 is layers, 17 heads, 25 max_len.
        // The caps themselves load, and a Transformer past a cap fails as well.
        let corpus: Vec<String> = (0..8)
            .map(|i| format!("[COL] title [VAL] canon printer model m{i}"))
            .collect();
        let path = tmp_path("caps");
        // (kind, header patches as (byte offset, value), loads)
        type Case = (EncoderKind, &'static [(usize, u32)], bool);
        let cases: [Case; 6] = [
            (EncoderKind::MeanPool, &[(13, MAX_LAYERS as u32 + 1)], false),
            (
                EncoderKind::MeanPool,
                &[(13, 0), (17, MAX_HEADS as u32 + 1)],
                false,
            ),
            (EncoderKind::MeanPool, &[(25, MAX_LEN as u32 + 1)], false),
            (
                EncoderKind::MeanPool,
                &[(13, MAX_LAYERS as u32), (25, MAX_LEN as u32)],
                true,
            ),
            (
                EncoderKind::MeanPool,
                &[(13, 0), (17, MAX_HEADS as u32)],
                true,
            ),
            (EncoderKind::Transformer, &[(25, MAX_LEN as u32 + 1)], false),
        ];
        for (kind, patches, loads) in cases {
            let config = EncoderConfig {
                kind,
                ..EncoderConfig::tiny()
            };
            let encoder = Encoder::from_corpus(config, &corpus, 5);
            save_matcher(&PairMatcher::new(encoder, true, 5), &path).expect("save");
            let mut bytes = std::fs::read(&path).expect("read back");
            for &(at, value) in patches {
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            std::fs::write(&path, resealed(bytes)).expect("write patched header");
            match load_matcher(&path) {
                Ok(_) => assert!(loads, "{kind:?} {patches:?} loaded"),
                Err(err) => {
                    assert!(!loads, "{kind:?} {patches:?}: {err}");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "got: {err}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_header_corruption_sweep_fails_typed() {
        // One byte of the header or the vocabulary flipped and the CRC re-sealed, 100
        // times for each encoder kind, every other flip in the 22-byte header: every
        // load is a clean `Ok` or a typed `InvalidData`, never a panic or a runaway
        // allocation.
        let corpus: Vec<String> = (0..8)
            .map(|i| format!("[COL] title [VAL] canon printer model m{i}"))
            .collect();
        let path = tmp_path("sweep");
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
            let config = EncoderConfig {
                kind,
                ..EncoderConfig::tiny()
            };
            let encoder = Encoder::from_corpus(config, &corpus, 5);
            // Header: kind, five u32 fields, use_diff_head; then the token count, the
            // length-prefixed tokens and hash_buckets.
            let tokens: usize = encoder.vocab().parts().0.iter().map(|t| 4 + t.len()).sum();
            let region = 22 + 4 + tokens + 4;
            save_matcher(&PairMatcher::new(encoder, true, 5), &path).expect("save");
            let original = std::fs::read(&path).expect("read back");
            for case in 0..100 {
                let mut bytes = original.clone();
                let at = MAGIC.len() + next(if case % 2 == 0 { 22 } else { region });
                bytes[at] ^= 1 + next(255) as u8;
                std::fs::write(&path, resealed(bytes)).expect("write mutant");
                if let Err(err) = load_matcher(&path) {
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?}: {err}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matcher_backend_answers_from_the_wrapped_model() {
        let matcher = trained_matcher();
        let texts: Vec<String> = (0..3)
            .map(|i| format!("[COL] title [VAL] canon printer model m{i}"))
            .collect();
        let expected = matcher.encoder.embed_all(&texts);
        let expected_scores = matcher.predict_scores(&[(texts[0].clone(), texts[1].clone())]);

        let backend = MatcherBackend(matcher);
        assert_eq!(backend.dim(), 16);
        assert_eq!(backend.embed(&texts), expected);
        assert_eq!(
            backend.match_scores(&texts[..1], &texts[1..2]),
            expected_scores
        );
    }
}
