//! A warm inference call asks the system allocator for no large block.
//!
//! `Encoder::infer_chunk` (an `EMBED` chunk) and `PairMatcher::predict_scores` (a `MATCH`
//! chunk) take every activation from their thread's inference pool and hand it back once
//! the next layer has read it, so a call reuses the buffers of the calls before it. This
//! suite counts the allocations of 128 KiB or more (the sizes glibc serves with `mmap` or
//! from the top of the heap, and returns to the kernel when freed) made on the calling
//! thread by warm calls, at the serving model's shape, for both encoder kinds: after one
//! warm-up call of each, `EMBED` chunks of short texts alternate with `MATCH` chunks of
//! long ones, as a server's requests do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sudowoodo_core::config::{EncoderConfig, EncoderKind};
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::matcher::PairMatcher;

thread_local! {
    /// Allocations (and reallocations) of at least 128 KiB this thread made so far.
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's large requests into [`LARGE`].
struct Counting;

fn count(size: usize) {
    if size >= 128 << 10 {
        let _ = LARGE.try_with(|large| large.set(large.get() + 1));
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

/// Large allocations `f` makes on this thread.
fn large_allocations(f: impl FnOnce()) -> usize {
    let before = LARGE.get();
    f();
    LARGE.get() - before
}

/// 96 records of `words(i)` title words each.
fn records(words: impl Fn(usize) -> usize) -> Vec<String> {
    (0..96)
        .map(|i| {
            let words = words(i);
            let title: Vec<String> = (0..words)
                .map(|w| format!("w{}", (w * 7 + i) % 211))
                .collect();
            format!("[COL] title [VAL] {} [COL] id [VAL] r{i}", title.join(" "))
        })
        .collect()
}

#[test]
fn a_warm_embed_or_match_chunk_makes_no_large_allocation() {
    // Every third long record runs past `max_len`, so a `MATCH` chunk pads to 40 tokens;
    // an `EMBED` chunk of short records pads to fewer than 20.
    let long = records(|i| if i % 3 == 0 { 50 } else { 4 + i % 23 });
    let short = records(|i| 2 + i % 9);
    let texts = &short[..64];
    let pairs: Vec<(String, String)> = (0..32)
        .map(|i| (long[i].clone(), long[95 - i].clone()))
        .collect();
    for kind in [EncoderKind::MeanPool, EncoderKind::Transformer] {
        // The serving model: `EncoderConfig::default()` with the diff head.
        let config = EncoderConfig {
            kind,
            ..EncoderConfig::default()
        };
        let corpus: Vec<String> = long.iter().chain(&short).cloned().collect();
        let matcher = PairMatcher::new(Encoder::from_corpus(config, &corpus, 7), true, 7);
        let embed = || drop(matcher.encoder.infer_chunk(texts));
        let predict = || drop(matcher.predict_scores(&pairs));
        let calls = [
            ("infer_chunk on 64 texts", &embed as &dyn Fn()),
            ("predict_scores on 32 pairs", &predict),
        ];
        let cold: Vec<usize> = calls
            .iter()
            .map(|(_, call)| large_allocations(call))
            .collect();
        for round in 0..2 {
            for (what, call) in calls {
                let warm = large_allocations(call);
                assert_eq!(
                    warm, 0,
                    "{kind:?}: warm {what} (round {round}) made {warm} allocations of \
                     128 KiB or more (the warm-up calls made {cold:?})"
                );
            }
        }
    }
}
