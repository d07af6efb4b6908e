//! # sudowoodo-nn
//!
//! A small, dependency-free neural-network substrate used by the Sudowoodo reproduction.
//!
//! The paper fine-tunes pre-trained language models (RoBERTa/DistilBERT) with PyTorch;
//! this crate provides the equivalent building blocks implemented from scratch in Rust:
//!
//! * [`matrix::Matrix`] — a dense row-major `f32` matrix, the only tensor type, backed
//!   by register-tiled kernels that dispatch on one runtime-detected [`matrix::Arm`]
//!   (scalar, AVX2+FMA, AVX-512, AVX-512 VNNI): one GEMM loop nest, fused `A·Bᵀ` / `Aᵀ·B`
//!   products, an i8 tile, and rayon row-band parallelism above a FLOP threshold.
//!   `matmul_naive` is kept as the reference implementation for the kernel-equivalence
//!   property tests.
//! * [`tape::Tape`] — reverse-mode automatic differentiation over the 27 ops the models
//!   record (dense algebra, fused transpose matmul, softmax with an optional padding
//!   mask, padding-aware layer norm, segment-mean pooling over row ranges, batched
//!   attention, L2 normalization, softmax cross-entropy); gradient accumulation is
//!   in-place.
//! * [`layers`] — `Linear`, `Embedding`, `LayerNorm`, multi-head self-attention,
//!   Transformer blocks, positional embeddings — each with a tape-free, thread-safe
//!   `infer()` fast path for batched inference.
//! * [`pool`] — the buffers a pass keeps for the next one: a tape's, and each thread's
//!   for tape-free inference (`pool::scope`, `pool::recycle`).
//! * [`optim`] — AdamW (as used in the paper), and `Trainer`, the one training step:
//!   a tape kept from step to step, whose buffers are reused, and the optimizer.
//! * [`gradcheck`] — finite-difference validation used extensively in tests.
//!
//! The crate is CPU-only. A tape is single-threaded, but parameters are `Arc<RwLock<..>>`
//! so a trained model can serve many inference threads concurrently, and the GEMM kernels
//! fan out across cores on their own above a size threshold.
//!
//! ## Example
//!
//! ```
//! use sudowoodo_nn::matrix::Matrix;
//! use sudowoodo_nn::layers::{Layer, Linear};
//! use sudowoodo_nn::optim::{AdamW, Trainer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let layer = Linear::new("probe", 4, 1, &mut rng);
//! let mut trainer = Trainer::new(AdamW::new(0.05));
//! // Learn y = sum(x) from a few synthetic examples.
//! for _ in 0..200 {
//!     trainer.step(|tape| {
//!         let x = tape.constant(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]));
//!         let target = tape.constant(Matrix::from_rows(&[vec![10.0]]));
//!         let y = layer.forward(tape, x);
//!         let diff = tape.sub(y, target);
//!         let sq = tape.pow2(diff);
//!         tape.sum_all(sq)
//!     });
//! }
//! assert!(layer.params().len() == 2);
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod matrix;
pub mod optim;
pub mod param;
pub mod pool;
pub mod tape;

pub use matrix::Matrix;
pub use param::Param;
pub use tape::{Gradients, Tape, VarId};
