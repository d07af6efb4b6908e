//! A warm training step asks the system allocator for no large block.
//!
//! Every node value, gradient and backward temporary of a step is a buffer of the
//! step's tape, which a `Trainer` keeps from step to step. This suite counts the
//! allocations of 128 KiB or more (the sizes glibc serves with `mmap` or from the top of
//! the heap, and returns to the kernel when freed) that `pretrain` and
//! `PairMatcher::fine_tune` make at `em_pipeline`'s model shape, and checks that one more
//! step than two warm-up steps adds none. It is the only test of its binary, so no other
//! test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sudowoodo_core::config::{EncoderConfig, EncoderKind, SudowoodoConfig};
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::matcher::{FineTuneConfig, PairMatcher, TrainPair};
use sudowoodo_core::pretrain::pretrain;

/// Allocations (and reallocations) of at least 128 KiB so far.
static LARGE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting large requests into [`LARGE`].
struct Counting;

fn count(size: usize) {
    if size >= 128 << 10 {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` with its own arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Large allocations made by `f`.
fn large_allocations(f: impl FnOnce()) -> usize {
    let before = LARGE.load(Ordering::Relaxed);
    f();
    LARGE.load(Ordering::Relaxed) - before
}

/// `em_pipeline`'s model: a one-layer Transformer, dim 32, 2 heads, `max_len` 32,
/// batches of 16.
fn config() -> SudowoodoConfig {
    SudowoodoConfig {
        encoder: EncoderConfig {
            kind: EncoderKind::Transformer,
            dim: 32,
            layers: 1,
            heads: 2,
            ff_hidden: 64,
            max_len: 32,
        },
        projector_dim: 32,
        batch_size: 16,
        num_clusters: 4,
        seed: 11,
        ..SudowoodoConfig::default()
    }
}

/// 16 records, one batch: odd ones run past `max_len` even after augmentation, so every
/// batch pads to 32 tokens, and even ones are short, so the padding mask is built.
fn records() -> Vec<String> {
    (0..16)
        .map(|i| {
            let words = if i % 2 == 1 { 60 } else { 6 + i };
            let title: Vec<String> = (0..words)
                .map(|w| format!("w{}", (w * 7 + i) % 97))
                .collect();
            format!("[COL] title [VAL] {} [COL] id [VAL] r{i}", title.join(" "))
        })
        .collect()
}

#[test]
fn a_warm_training_step_makes_no_large_allocation() {
    let records = records();
    // One step per epoch: the whole corpus, and all 16 pairs, are one batch.
    let pretrain_steps = |steps: usize| {
        let config = SudowoodoConfig {
            pretrain_epochs: steps,
            ..config()
        };
        large_allocations(|| drop(pretrain(&records, &config)))
    };
    let pairs: Vec<TrainPair> = (0..16)
        .map(|i| TrainPair::new(&records[i], &records[(i * 5 + 1) % 16], i % 3 == 0))
        .collect();
    let fine_tune_steps = |steps: usize| {
        let encoder = Encoder::from_corpus(config().encoder, &records, 7);
        let mut matcher = PairMatcher::new(encoder, true, 7);
        let fine_tune = FineTuneConfig {
            epochs: steps,
            batch_size: 16,
            learning_rate: 5e-4,
            seed: 7,
        };
        large_allocations(|| drop(matcher.fine_tune(&pairs, &fine_tune)))
    };
    // First calls set up what a process allocates once.
    pretrain_steps(1);
    fine_tune_steps(1);
    for (what, steps) in [
        ("pre-training", &pretrain_steps as &dyn Fn(usize) -> usize),
        ("fine-tuning", &fine_tune_steps),
    ] {
        let (warm, one_more) = (steps(2), steps(3));
        assert!(
            one_more <= warm,
            "a third {what} step made {} allocations of 128 KiB or more ({warm} in two steps, \
             {one_more} in three)",
            one_more - warm
        );
    }
}
