//! `join_dense` and `join_spilled_q8`: offline blocking at scale — one corpus, one
//! stream of query batches, two uses of the index layer.
//!
//! The corpus is clustered but stored in shuffled order and every batch mixes
//! clusters, so no shard can be pruned: the dense layout measures full-tile f32 GEMM
//! plus top-k, the spilled+quantized layout measures mmap faults, the residency LRU,
//! the i8 scan and the exact rescore.

use std::hint::black_box;
use std::time::Instant;

use sudowoodo_index::{BlockingIndex, CosineIndex, QuantSpec};

use super::{finish_trace, guard, same_pairs, Params};
use crate::gen::{rng_for, Clusters, Order};
use crate::measure::{median, peak_rss_mb, timed, Report};
use crate::probes;
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `BlockingIndex::build(corpus, None)` — the pipelines' default.
    Dense,
    /// 4096-row shards, a residency budget of 10 % of the f32 payload, i8 tier on.
    SpilledQ8,
}

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::Dense => "join_dense",
            Layout::SpilledQ8 => "join_spilled_q8",
        }
    }
}

struct Sizes {
    rows: usize,
    dim: usize,
    clusters: usize,
    batch: usize,
    k: usize,
    shard_capacity: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
}

impl Sizes {
    fn new(quick: bool) -> Self {
        if quick {
            Sizes {
                rows: 4_096,
                dim: 32,
                clusters: 16,
                batch: 64,
                k: 10,
                shard_capacity: 512,
                setups: 2,
            }
        } else {
            Sizes {
                rows: 100_000,
                dim: 64,
                clusters: 64,
                batch: 512,
                k: 20,
                shard_capacity: 4_096,
                setups: 7,
            }
        }
    }

    /// Residency budget of the spilled layout: a tenth of the f32 payload.
    fn budget_bytes(&self) -> usize {
        self.rows * self.dim * 4 / 10
    }
}

/// Counters summed over the joins of one window.
#[derive(Default)]
struct Window {
    latencies: Vec<f64>,
    visited: u64,
    pruned: u64,
    faults: u64,
    quant_scans: u64,
    rescored_rows: u64,
}

impl Window {
    fn busy(&self) -> f64 {
        self.latencies.iter().sum()
    }
}

const SPREAD: f32 = 0.25;
const BATCH_STREAM: u64 = 3;

pub fn run(layout: Layout, p: &Params) -> Result<Report, String> {
    let sizes = Sizes::new(p.quick);
    let clusters = Clusters::new(p.seed, sizes.clusters, sizes.dim, SPREAD);
    // Regenerated wherever it is needed instead of being held: a resident master copy
    // would sit in the peak resident set of the layout built to avoid exactly that.
    let corpus = || clusters.corpus(&mut rng_for(p.seed, 2), sizes.rows, Order::Shuffled);
    let build = |vectors: Vec<Vec<f32>>| match layout {
        Layout::Dense => BlockingIndex::build(vectors, None),
        Layout::SpilledQ8 => BlockingIndex::build_with_options(
            vectors,
            Some(sizes.shard_capacity),
            Some(sizes.budget_bytes()),
            Some(QuantSpec::default()),
        ),
    };

    // Set-up: the index build, several times over; the last one is kept.
    let mut setup_samples = Vec::with_capacity(sizes.setups);
    let mut index = None;
    for _ in 0..sizes.setups {
        drop(index.take());
        let vectors = corpus();
        let (built, seconds) = timed(|| build(vectors));
        setup_samples.push(seconds);
        index = Some(built);
    }
    let index = index.expect("at least one set-up");
    let setup_s = median(&setup_samples);

    // The batch whose answer is checked against the oracle after the window.
    let first_batch = clusters.mixed_batch(&mut rng_for(p.seed, 4), sizes.batch);
    let first_pairs = index.knn_join(&first_batch, sizes.k);

    let origin = Instant::now();
    let mut tracer = Tracer::new(false, origin);
    let mut batch_rng = rng_for(p.seed, BATCH_STREAM);
    let mut window = |tracer: &mut Tracer, seconds: f64| -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        tracer.span("window", |t| {
            while start.elapsed().as_secs_f64() < seconds {
                let (batch, _) = t.span("bench.gen_batch", |_| {
                    clusters.mixed_batch(&mut batch_rng, sizes.batch)
                });
                let (pairs, seconds) =
                    t.span("index.knn_join", |_| index.knn_join(&batch, sizes.k));
                black_box(&pairs);
                w.latencies.push(seconds);
                if let BlockingIndex::Sharded(sharded) = &index {
                    let report = sharded.routing_report();
                    w.visited += report.shards_visited;
                    w.pruned += report.shards_pruned;
                    w.faults += report.spill_faults;
                    w.quant_scans += report.quant_scans;
                    w.rescored_rows += report.rescored_rows;
                }
            }
        });
        w
    };

    window(&mut tracer, p.warmup_seconds());
    let mut report = Report::default();
    let measured = if p.trace {
        let untraced = window(&mut tracer, p.traced_window_seconds());
        tracer.set_enabled(true);
        let traced = window(&mut tracer, p.traced_window_seconds());
        let rate = |w: &Window| w.latencies.len() as f64 / w.busy();
        report.set(
            "trace.overhead_share",
            1.0 - rate(&traced) / rate(&untraced),
        );
        traced
    } else {
        window(&mut tracer, p.seconds)
    };
    let peak_rss = peak_rss_mb();

    // Workload-property guards: is this still the path the workload is named after?
    match (&index, layout) {
        (BlockingIndex::Dense(_), Layout::Dense) => {}
        (BlockingIndex::Sharded(sharded), Layout::SpilledQ8) => {
            guard(measured.faults > 0, || {
                "no spilled shard was faulted".into()
            })?;
            guard(measured.quant_scans > 0, || "no quantized scan ran".into())?;
            guard(sharded.resident_bytes() <= sizes.budget_bytes(), || {
                format!(
                    "{} resident bytes exceed the {} byte budget",
                    sharded.resident_bytes(),
                    sizes.budget_bytes()
                )
            })?;
            report.set(
                "index.resident_mb",
                sharded.resident_bytes() as f64 / (1 << 20) as f64,
            );
        }
        _ => {
            return Err(format!(
                "{}: the index came back in the other layout",
                layout.name()
            ))
        }
    }

    // Answers: the first batch, bit for bit against a dense oracle built here, and a
    // few of its queries against a scalar scan that shares no code with either layout.
    let oracle_corpus = corpus();
    let mut wrong = u64::from(!scalar_scan_agrees(
        &oracle_corpus,
        &first_batch,
        &first_pairs,
        sizes.k,
    ));
    let oracle = CosineIndex::build(oracle_corpus).knn_join(&first_batch, sizes.k);
    wrong += u64::from(!same_pairs(&oracle, &first_pairs));

    let joins = measured.latencies.len();
    let queries = (joins * sizes.batch) as f64;
    report.set_outcome(joins as u64 + 1, wrong.min(1));
    report.set("ops_per_s", queries / measured.busy());
    report.set_latency_ms(&measured.latencies);
    report.set("peak_rss_mb", peak_rss);
    report.set("setup_s", setup_s);
    report.set("index.build_rows_per_s", sizes.rows as f64 / setup_s);
    report.set("index.join_busy_s", measured.busy());
    report.set(
        "index.scored_pairs_per_s",
        queries * sizes.rows as f64 / measured.busy(),
    );
    let opportunities = (measured.visited + measured.pruned).max(1) as f64;
    report.set("index.pruned_share", measured.pruned as f64 / opportunities);
    report.set(
        "index.faults_per_visit",
        measured.faults as f64 / measured.visited.max(1) as f64,
    );
    report.set(
        "index.rescored_rows_per_query",
        measured.rescored_rows as f64 / queries,
    );
    report.notes.push(format!(
        "{joins} joins of {} queries x {} rows, k = {}; visited {} pruned {} faults {} quant scans {}; \
         set-ups {:?} s",
        sizes.batch,
        sizes.rows,
        sizes.k,
        measured.visited,
        measured.pruned,
        measured.faults,
        measured.quant_scans,
        setup_samples
    ));

    if p.trace {
        if layout == Layout::Dense {
            // Reference for "dense versus one sharded layout": the same batch stream
            // through resident f32 shards.
            drop(index);
            let sharded = BlockingIndex::build(corpus(), Some(sizes.shard_capacity));
            let mut replay_rng = rng_for(p.seed, BATCH_STREAM);
            let mut busy = 0.0;
            for _ in 0..joins {
                let batch = clusters.mixed_batch(&mut replay_rng, sizes.batch);
                let (pairs, seconds) = timed(|| sharded.knn_join(&batch, sizes.k));
                black_box(&pairs);
                busy += seconds;
            }
            report.set("index.sharded_f32_queries_per_s", queries / busy);
        }
        finish_trace(
            &mut report,
            p,
            layout.name(),
            vec![tracer.into_spans()],
            true,
        )?;
    }
    probes::run(&mut report);
    Ok(report)
}

/// Checks the first few queries of `batch` against a scalar cosine scan of `corpus`:
/// every reported score is the true cosine of its pair, scores descend, and no
/// unreported row beats the last reported one (to within float summation order).
fn scalar_scan_agrees(
    corpus: &[Vec<f32>],
    batch: &[Vec<f32>],
    pairs: &[(usize, usize, f32)],
    k: usize,
) -> bool {
    const CHECKED_QUERIES: usize = 4;
    const TOLERANCE: f32 = 1e-4;
    let cosine = |a: &[f32], b: &[f32]| {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (norm(a) * norm(b))
    };
    batch
        .iter()
        .take(CHECKED_QUERIES)
        .enumerate()
        .all(|(q, query)| {
            let reported: Vec<&(usize, usize, f32)> = pairs.iter().filter(|p| p.0 == q).collect();
            if reported.len() != k.min(corpus.len()) {
                return false;
            }
            let exact = reported
                .iter()
                .all(|p| (cosine(query, &corpus[p.1]) - p.2).abs() <= TOLERANCE);
            let descending = reported.windows(2).all(|w| w[0].2 >= w[1].2);
            let last = reported.last().map_or(f32::MIN, |p| p.2);
            let nothing_missed = corpus.iter().enumerate().all(|(id, row)| {
                reported.iter().any(|p| p.1 == id) || cosine(query, row) <= last + TOLERANCE
            });
            exact && descending && nothing_missed
        })
}
