//! # sudowoodo-index
//!
//! High-dimensional similarity search for the blocking stage of Sudowoodo.
//!
//! The paper applies kNN search over the learned entity representations to produce a
//! candidate set for matching, and reports blocking quality as recall versus candidate set
//! size ratio (CSSR). This crate provides two exact indexes with identical search
//! semantics plus the blocking-quality evaluator:
//!
//! * [`knn::CosineIndex`] — the whole corpus as **one** row-major matrix; batch joins
//!   walk it in cache-sized strips, scoring query-block × stripᵀ tiles through the fused
//!   `A * Bᵀ` kernel of `sudowoodo-nn` (parallel over query blocks, deterministic top-k
//!   selection). Fastest when the corpus is static and fits one allocation.
//! * [`sharded::ShardedCosineIndex`] — the corpus partitioned into fixed-capacity shards
//!   scored in parallel and merged through the same bounded-heap selector, with streaming
//!   ingestion (`add_batch` / `remove` / `compact`) and stable row ids. Same results as
//!   the dense index over the same rows; built for corpora that grow, shrink, or exceed
//!   one matrix.
//! * [`storage`] — where a shard's matrix lives: resident in memory, or spilled under
//!   the index's least-recently-used residency budget to one payload file type in two
//!   formats (`SWSHARD1` exact, `SWSHARDQ1` with the i8 tier), validated once and read
//!   through a shared memory mapping only when a query actually needs the shard.
//! * [`routing::RoutingStats`] — per-shard centroid/radius statistics giving an
//!   admissible upper bound on any row's cosine score, used to skip (and never fault in)
//!   shards that provably cannot enter the current top-k.
//! * [`snapshot`] — persistent whole-index snapshots: a versioned manifest plus
//!   per-shard payloads in the spill format, saved by one process and loaded **cold**
//!   (O(manifest)) by any number of others — the durable half of the serving story
//!   (the network half is the `sudowoodo-serve` crate).
//! * [`cache`] — the query-batch result cache every sharded join consults ahead of
//!   routing: fingerprints of the normalized queries and the scored shard positions,
//!   LRU capacity, invalidated by the index's mutation epoch.
//! * [`blocking::BlockingIndex`] — both layouts behind one search API, so pipelines pick
//!   the corpus layout (and memory budget) with configuration values.
//! * [`knn::evaluate_blocking`] — recall / candidate-set-size-ratio scoring of a
//!   candidate pair set against gold matches.

#![deny(missing_docs)]

pub mod blocking;
pub mod cache;
pub mod delta;
pub mod knn;
pub mod routing;
pub mod sharded;
pub mod snapshot;
pub mod storage;

pub use blocking::BlockingIndex;
pub use cache::{fingerprint, QueryFingerprint};
pub use delta::{DeltaSaveReport, DELTA_MANIFEST_FILE};
pub use knn::{evaluate_blocking, BlockingQuality, CosineIndex, Neighbor, TopK};
pub use routing::RoutingStats;
pub use sharded::{JoinOutcome, QuantSpec, RemoveError, RoutingReport, ShardedCosineIndex};
pub use snapshot::MANIFEST_FILE;
pub use storage::{QuantizedMatrix, QuantizedRow, SpillDir, StorageError, StorageErrorKind};
