//! The sharded build holds one shard beside the corpus, not a second corpus.
//!
//! `BlockingIndex::build_with_options` ingests the corpus one shard at a time, spilling
//! each shard that falls outside the residency budget, and drops every caller row once
//! it is in a shard. This suite counts live heap bytes with its own global allocator and
//! checks that the build's peak stays within the corpus it was handed, one shard (both
//! tiers), the budget and the per-row bookkeeping every build keeps. It is the only test
//! of its binary, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sudowoodo_index::{BlockingIndex, QuantSpec};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest [`LIVE`] seen since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, keeping [`LIVE`] and [`PEAK`].
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with its own arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes now, after which the peak starts over from them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

const ROWS: usize = 20_000;
const DIM: usize = 64;
const CAPACITY: usize = 1_024;

#[test]
fn the_sharded_build_peaks_at_the_corpus_one_shard_and_the_budget() {
    let mut state = 47u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    };
    let before = reset_peak();
    let corpus: Vec<Vec<f32>> = (0..ROWS)
        .map(|_| (0..DIM).map(|_| next()).collect())
        .collect();
    let corpus_bytes = reset_peak() - before;
    let f32_shard = CAPACITY * DIM * std::mem::size_of::<f32>();
    // The i8 tier: one code per coordinate and one f32 scale per row.
    let i8_shard = CAPACITY * DIM + CAPACITY * std::mem::size_of::<f32>();
    let budget = ROWS * DIM * std::mem::size_of::<f32>() / 10;
    // Per-row bookkeeping every build keeps (a `usize` id and a tombstone flag), plus
    // 64 KiB for the per-shard metadata and the spill writer.
    let slack = ROWS * (std::mem::size_of::<usize>() + 1) + (64 << 10);

    let index = BlockingIndex::build_with_options(
        corpus,
        Some(CAPACITY),
        Some(budget),
        Some(QuantSpec::default()),
    );
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let BlockingIndex::Sharded(sharded) = &index else {
        panic!("expected the sharded layout");
    };
    assert_eq!(sharded.len(), ROWS);
    assert!(sharded.num_spilled_shards() > 0, "the budget spills shards");
    let bound = corpus_bytes + f32_shard + i8_shard + budget + slack;
    assert!(
        peak <= bound,
        "the build peaked at {peak} live heap bytes over the set-up's, past {bound}: the \
         corpus ({corpus_bytes}) + one shard ({f32_shard} + {i8_shard}) + the budget \
         ({budget}) + {slack} of bookkeeping"
    );
}
