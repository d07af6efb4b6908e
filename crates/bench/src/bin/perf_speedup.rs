//! The perf gate: one registry of probes, each one row of the report.
//!
//! Run with `cargo run --release -p sudowoodo-bench --bin perf_speedup`.
//!
//! Every row of [`PROBES`] is data: a name, a unit, which direction is better, an optional
//! floor (a ceiling for [`Better::Lower`] rows) and a `measure` function over lazily built
//! shared [`Fixtures`]. The rows are of three kinds:
//!
//! * **speedups over frozen baselines**: `matmul` against [`Matrix::matmul_naive`], batched
//!   encoding against the seed's per-row tape graphs ([`SeedEncoder`]), the tiled joins
//!   against the seed's per-query scalar scan ([`knn_scalar`]), a cold snapshot load
//!   against a rebuild, and a warm-cache served batch against a direct cold join;
//! * **host-normalised shares**: the `A * Bᵀ` kernel and a training step's forward +
//!   backward as shares of one core's measured FMA peak, `Aᵀ·B` as a share of `matmul`,
//!   the i8 tile's pairs per second over the f32 kernel's, the spilled i8 join's speed
//!   over the spilled f32 join's, and the optimizer's share of a step;
//! * **structural rows**: the quantized scan payload's density, and the connections the
//!   idle-crowd sweep holds.
//!
//! Every timed ratio times its two sides back to back in each repetition and divides the
//! two sides' best times ([`best_ratio`]), so host drift lands on both sides of a ratio
//! instead of one.
//!
//! Prints the table, writes `target/experiments/BENCH_perf.json` (every row with its
//! verdict, and `any_regression`), and exits non-zero when a gated row breaches its
//! floor: the gate is the exit status.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use sudowoodo_augment::{CutoffKind, CutoffPlan};
use sudowoodo_bench::connsweep::{self, SweepLevel};
use sudowoodo_bench::harness::print_table;
use sudowoodo_bench::ResultWriter;
use sudowoodo_core::config::{EncoderConfig, EncoderKind};
use sudowoodo_core::encoder::Encoder;
use sudowoodo_core::loss::combined_loss;
use sudowoodo_index::{BlockingIndex, CosineIndex, QuantSpec, ShardedCosineIndex};
use sudowoodo_nn::layers::{
    Embedding, FeedForward, Layer, LayerNorm, Linear, PositionalEmbedding, TransformerBlock,
};
use sudowoodo_nn::matrix::{for_each_supported_arm, Arm, I8Tile, Matrix, PackedTranspose};
use sudowoodo_nn::optim::{AdamW, Trainer};
use sudowoodo_nn::tape::{Tape, VarId};
use sudowoodo_serve::{ServeClient, Server};

/// Which side of its floor a row must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
enum Better {
    Higher,
    Lower,
}

/// One row of the report, as data.
struct Probe {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// The gate: a floor for `Higher` rows, a ceiling for `Lower` ones. `None` records the
    /// row without gating it.
    floor: Option<f64>,
    measure: fn(&mut Fixtures) -> f64,
}

use Better::{Higher, Lower};

/// The registry, in measuring order. The speedup floors sit at ~0.7x of the speedups
/// ROADMAP.md records, the shares' at ~0.7x of what a 2-vCPU AVX-512 box measures; none
/// is ever re-based because the code under test got faster.
const PROBES: &[Probe] = &[
    // ~6.3x when the kernel landed.
    Probe {
        name: "matmul 512x512",
        unit: "x matmul_naive",
        better: Higher,
        floor: Some(4.0),
        measure: matmul_512,
    },
    // `matmul_transpose_b`: B packed transposed into the GEMM tile's panels, then the 8x32
    // AVX-512 tile, ~0.55 of the peak here (the dot-product tiles it replaced read
    // 0.49-0.55). A share of the peak, unlike a speedup over the reference, compares an
    // AVX2 runner with an AVX-512 one.
    Probe {
        name: "abt_kernel 256x4096x64, one core",
        unit: "share of FMA peak",
        better: Higher,
        floor: Some(0.35),
        measure: abt_kernel,
    },
    // 0.75-0.81 here; a rank-1 update loop reaches a quarter.
    Probe {
        name: "atb_kernel (1024x32)^T x 1024x96",
        unit: "share of matmul",
        better: Higher,
        floor: Some(0.5),
        measure: atb_kernel,
    },
    // The reason the i8 tier exists: its first stage, survivor test included, must score
    // pairs at least as fast as the exact kernel it spares.
    Probe {
        name: "i8_tile 256x4096x64, one core",
        unit: "x f32 multiply_into pairs/s",
        better: Higher,
        floor: Some(1.0),
        measure: i8_tile,
    },
    // The next four baselines are the seed's per-row graphs, frozen in `SeedEncoder`.
    Probe {
        name: "embed_all 4k records (MeanPool)",
        unit: "x seed per-row tape",
        better: Higher,
        floor: Some(45.0),
        measure: |f| embed_all_speedup(f.texts(), EncoderKind::MeanPool),
    },
    Probe {
        name: "embed_all 4k records (Transformer)",
        unit: "x seed per-row tape",
        better: Higher,
        floor: Some(5.0),
        measure: |f| embed_all_speedup(f.texts(), EncoderKind::Transformer),
    },
    Probe {
        name: "encode_batch graphs 4k records (Transformer)",
        unit: "x seed per-row graphs",
        better: Higher,
        floor: Some(4.0),
        measure: |f| encode_batch_speedup(f.texts(), false),
    },
    Probe {
        name: "encode_batch fwd+bwd 4k records (Transformer)",
        unit: "x seed per-row graphs",
        better: Higher,
        floor: Some(3.0),
        measure: |f| encode_batch_speedup(f.texts(), true),
    },
    // The step's products are small (`k` = 32), and softmax, layer norms and the other
    // element-wise arms are much of the rest: 0.12-0.14 of the peak on the trainer's tape,
    // which reuses its buffers (0.11 when every op allocated its own).
    Probe {
        name: "train_step forward + backward",
        unit: "share of FMA peak",
        better: Higher,
        floor: Some(0.05),
        measure: |f| f.train_step().forward_backward_share,
    },
    // 0.24 here (0.21 before the tape reused its buffers, which sped up forward and backward
    // but not the update): the update touches every parameter once and must stay the small
    // part of a step whose forward and backward touch every activation several times.
    Probe {
        name: "train_step optimizer",
        unit: "share of step",
        better: Lower,
        floor: Some(0.30),
        measure: |f| f.train_step().optimizer_share,
    },
    Probe {
        name: "train_step",
        unit: "ms",
        better: Lower,
        floor: None,
        measure: |f| f.train_step().ms,
    },
    // Attention's six products run per (sequence, head) on the GEMM tile, whose
    // products here are 32 wide and 16 or 32 deep.
    Probe {
        name: "attention fwd+bwd",
        unit: "share of FMA peak",
        better: Higher,
        floor: None,
        measure: attention,
    },
    // ~17x on 2k x 10k joins.
    Probe {
        name: "knn_join 2k x 10k dense",
        unit: "x scalar scan",
        better: Higher,
        floor: Some(10.0),
        measure: |f| {
            let v = f.vectors();
            knn_speedup(v, |queries| v.dense.knn_join(queries, K))
        },
    },
    // ~15.7x: the sharded layout stays within striking distance of dense.
    Probe {
        name: "knn_join 2k x 10k sharded cap=1024",
        unit: "x scalar scan",
        better: Higher,
        floor: Some(7.0),
        measure: |f| {
            let v = f.vectors();
            let sharded = ShardedCosineIndex::from_vectors(&v.corpus, 1024);
            knn_speedup(v, |queries| sharded.knn_join(queries, K))
        },
    },
    // Every shard on disk, faulted back per query tile unless routing prunes it: the
    // floor guards the fault path from quietly degrading.
    Probe {
        name: "knn_join 2k x 10k spilled+routed cap=1024",
        unit: "x scalar scan",
        better: Higher,
        floor: Some(2.0),
        measure: |f| {
            let v = f.vectors();
            let spilled = ShardedCosineIndex::from_vectors_with_budget(&v.corpus, 1024, Some(0));
            assert_eq!(spilled.num_spilled_shards(), spilled.num_shards());
            knn_speedup(v, |queries| spilled.knn_join(queries, K))
        },
    },
    // The i8 tier beside the f32 tier it sits on, both spilled: never slower, the same rule
    // as `i8_tile`.
    Probe {
        name: "knn_join 2k x 10k spilled+quantized cap=1024",
        unit: "x spilled f32 join",
        better: Higher,
        floor: Some(1.0),
        measure: spilled_quantized_join,
    },
    // A cold load reads the manifest only (O(shards)) but verifies its CRC-32 and every
    // payload's length, a few syscalls on a sub-millisecond measurement: ~3x here.
    Probe {
        name: "snapshot load 10k corpus",
        unit: "x rebuild from vectors",
        better: Higher,
        floor: Some(2.0),
        measure: snapshot_load,
    },
    // One fingerprint lookup plus one localhost round trip, against recomputing the batch.
    Probe {
        name: "served knn_join warm cache 2k x 10k",
        unit: "x direct cold join",
        better: Higher,
        floor: Some(2.0),
        measure: served_warm_cache,
    },
    // A format property, not a timing (256/68 = 3.76x at d=64): it trips only if the
    // format regresses (padding creep, wider scales or codes).
    Probe {
        name: "quantized scan payload density d=64",
        unit: "x dense f32 bytes",
        better: Higher,
        floor: Some(3.5),
        measure: quantized_density,
    },
    // Structural: the sweep must attach its fd-clamped target with finite percentiles. A
    // server that regressed to per-connection threads or wedged under a parked crowd fails
    // this long before any latency floor would; latency itself is never floored.
    Probe {
        name: "connections held",
        unit: "share of clamp_idle_target(5000)",
        better: Higher,
        floor: Some(1.0),
        measure: |f| {
            let top = f.sweep();
            let finite = |ms: f64| ms.is_finite() && ms > 0.0;
            if finite(top.p50_ms) && finite(top.p99_ms) {
                top.idle_attached as f64 / connsweep::clamp_idle_target(5_000) as f64
            } else {
                f64::NAN
            }
        },
    },
    Probe {
        name: "connections p50",
        unit: "ms",
        better: Lower,
        floor: None,
        measure: |f| f.sweep().p50_ms,
    },
    Probe {
        name: "connections p99",
        unit: "ms",
        better: Lower,
        floor: None,
        measure: |f| f.sweep().p99_ms,
    },
];

/// A measured probe and the gate's verdict on it.
#[derive(Serialize)]
struct Row {
    name: &'static str,
    unit: &'static str,
    better: Better,
    floor: Option<f64>,
    value: f64,
    regression: bool,
}

/// The gate, the one place a verdict is reached: a gated value on the wrong side of its
/// floor is a regression, and so is a NaN, which is on neither side.
fn regression(better: Better, floor: Option<f64>, value: f64) -> bool {
    let passes = match (better, floor) {
        (_, None) => true,
        (Higher, Some(floor)) => value >= floor,
        (Lower, Some(ceiling)) => value <= ceiling,
    };
    !passes
}

/// `BENCH_perf.json`.
#[derive(Serialize)]
struct Report {
    /// The kernel arm this host dispatches to.
    arm: String,
    rows: Vec<Row>,
    any_regression: bool,
}

fn main() -> ExitCode {
    keep_freed_heap_memory();
    let mut fixtures = Fixtures::default();
    let rows: Vec<Row> = PROBES
        .iter()
        .map(|probe| {
            eprintln!("measuring {}", probe.name);
            let value = (probe.measure)(&mut fixtures);
            Row {
                name: probe.name,
                unit: probe.unit,
                better: probe.better,
                floor: probe.floor,
                value,
                regression: regression(probe.better, probe.floor, value),
            }
        })
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let gate = match (row.better, row.floor) {
                (_, None) => "-".to_string(),
                (Higher, Some(floor)) => format!(">= {floor}"),
                (Lower, Some(ceiling)) => format!("<= {ceiling}"),
            };
            let status = if row.regression { "REGRESSION" } else { "ok" };
            vec![
                row.name.into(),
                format!("{:.3}", row.value),
                row.unit.into(),
                gate,
                status.into(),
            ]
        })
        .collect();
    print_table(
        "Perf gate",
        &["probe", "value", "unit", "gate", "status"],
        &cells,
    );
    let any_regression = rows.iter().any(|row| row.regression);
    let report = Report {
        arm: format!("{:?}", detected_arm()),
        rows,
        any_regression,
    };
    ResultWriter::new().write("BENCH_perf", &report);
    if any_regression {
        eprintln!("perf_speedup: REGRESSION: a gated row breached its floor");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The gate's timer: `reps` repetitions that each time `baseline` and then `candidate`,
/// returning the ratio of the two sides' best times. Interleaving draws both bests from
/// the same stretch of time, so the host's drift cancels; each side's best drops the
/// repetitions that cold caches or host noise slowed. That noise is one-sided: a
/// neighbour's cache contention, in episodes up to seconds long, slows cache-bound code
/// by ~40% and leaves the register-only FMA peak alone, so no per-repetition ratio
/// cancels it; the probes gated against the peak run long enough to outlast it.
fn best_ratio<A, B>(
    reps: usize,
    mut baseline: impl FnMut() -> A,
    mut candidate: impl FnMut() -> B,
) -> f64 {
    let (mut best_baseline, mut best_candidate) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_baseline = best_baseline.min(seconds(&mut baseline));
        best_candidate = best_candidate.min(seconds(&mut candidate));
    }
    best_baseline / best_candidate
}

fn seconds<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Keeps glibc's allocator from handing freed memory back to the kernel, process-wide.
/// The seed baselines allocate 96 MB of embedding-table copies per 64-text tape. Left
/// alone, glibc trims them off the heap after each tape, or not, depending on where
/// earlier probes left small allocations; when it does, every pass faults 6 GB back in
/// and the baseline runs 5-7x slower, under seconds of system time.
fn keep_freed_heap_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // Setting either stops the mapping threshold from adapting, so it is pinned at its
        // adaptive maximum: the table copies stay on the heap, as they did adaptively.
        // SAFETY: `mallopt` only sets allocator parameters, and no other thread exists yet.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Runs `f` with `RAYON_NUM_THREADS=1`: above the parallel threshold a kernel would
/// otherwise fan out and stop being comparable with a one-core peak.
fn on_one_core<T>(f: impl FnOnce() -> T) -> T {
    let threads = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let out = f();
    match threads {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// What several probes share, each built on first use.
#[derive(Default)]
struct Fixtures {
    texts: Option<Vec<String>>,
    vectors: Option<Vectors>,
    train_step: Option<TrainStep>,
    sweep: Option<SweepLevel>,
}

impl Fixtures {
    fn texts(&mut self) -> &[String] {
        self.texts.get_or_insert_with(perf_corpus)
    }

    fn vectors(&mut self) -> &Vectors {
        self.vectors.get_or_insert_with(Vectors::new)
    }

    fn train_step(&mut self) -> &TrainStep {
        let texts = self.texts.get_or_insert_with(perf_corpus);
        self.train_step.get_or_insert_with(|| train_step(texts))
    }

    /// The top level of a 512 / 5k idle-connection sweep against a served 4k-row index.
    fn sweep(&mut self) -> &SweepLevel {
        let v = self.vectors.get_or_insert_with(Vectors::new);
        self.sweep.get_or_insert_with(|| {
            let index = BlockingIndex::build(v.corpus[..4_000].to_vec(), Some(512));
            let server = Server::spawn(Arc::new(index), "127.0.0.1:0").expect("spawn server");
            let levels = [512, 5_000].map(|target| {
                connsweep::sweep_level(server.addr(), &v.queries[..64], 10, target, 2, 25)
            });
            server.shutdown();
            let [_, top] = levels;
            top
        })
    }
}

/// Neighbours per query in the join rows.
const K: usize = 20;

/// The join rows' uniform vectors: a 10k-row corpus, 2k queries, and the dense index
/// every other layout must answer like.
struct Vectors {
    corpus: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    dense: CosineIndex,
}

impl Vectors {
    fn new() -> Self {
        let corpus = random_vectors(10_000, 32, 3);
        Vectors {
            dense: CosineIndex::build(corpus.clone()),
            corpus,
            queries: random_vectors(2_000, 32, 4),
        }
    }
}

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn matmul_512(_: &mut Fixtures) -> f64 {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::random_normal(512, 512, 1.0, &mut rng);
    let b = Matrix::random_normal(512, 512, 1.0, &mut rng);
    best_ratio(101, || a.matmul_naive(&b), || a.matmul(&b))
}

const FMA_CHAINS: usize = 10;
const FMA_ITERS: usize = 2_000_000;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_chains_avx512(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let (a, b) = (_mm512_set1_ps(1.000_001), _mm512_set1_ps(1e-9));
    let mut acc = [_mm512_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            *chain = _mm512_fmadd_ps(*chain, a, b);
        }
    }
    acc.iter().map(|&chain| _mm512_reduce_add_ps(chain)).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let (a, b) = (_mm256_set1_ps(1.000_001), _mm256_set1_ps(1e-9));
    let mut acc = [_mm256_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            *chain = _mm256_fmadd_ps(*chain, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut total = 0.0;
    for chain in &acc {
        _mm256_storeu_ps(lanes.as_mut_ptr(), *chain);
        total += lanes.iter().sum::<f32>();
    }
    total
}

fn fma_chains_scalar(iters: usize) -> f32 {
    let mut acc = [1.0f32; FMA_CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            *chain = *chain * 1.000_001 + 1e-9;
        }
    }
    acc.iter().sum()
}

/// The arm the kernels dispatch to on this host.
fn detected_arm() -> Arm {
    let mut arm = Arm::Scalar;
    for_each_supported_arm(|supported| arm = supported);
    arm
}

/// One core's fused-multiply-add peak on the widest vector unit the f32 kernels dispatch
/// to: ten independent dependency chains of [`FMA_ITERS`] FMAs. Returns the run and its
/// FLOPs (2 per lane per FMA).
fn fma_peak() -> (fn(usize) -> f32, f64) {
    let (run, lanes): (fn(usize) -> f32, usize) = match detected_arm() {
        // SAFETY: the arm implies AVX-512F; the function touches only locals.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx512 | Arm::Avx512Vnni => (|n| unsafe { fma_chains_avx512(n) }, 16),
        // SAFETY: the arm implies AVX2 and FMA; the function touches only locals.
        #[cfg(target_arch = "x86_64")]
        Arm::Avx2 => (|n| unsafe { fma_chains_avx2(n) }, 8),
        _ => (fma_chains_scalar, 1),
    };
    (run, (2 * lanes * FMA_CHAINS * FMA_ITERS) as f64)
}

/// `matmul_transpose_b` at the join's shape, a 256-query block against a 4096-row, 64-wide
/// shard — the shard transposed into the GEMM tile's panels, then the tile — as a share
/// of the FMA peak timed beside it (~5 s of repetitions). The joins themselves pack the
/// query block instead and stream the shard through the same tile.
fn abt_kernel(_: &mut Fixtures) -> f64 {
    let (m, n, k) = (256usize, 4096usize, 64usize);
    let mut rng = StdRng::seed_from_u64(6);
    let a = Matrix::random_normal(m, k, 1.0, &mut rng);
    let b = Matrix::random_normal(n, k, 1.0, &mut rng);
    let (peak, peak_flops) = fma_peak();
    let peak_over_kernel_secs = on_one_core(|| {
        best_ratio(
            1001,
            || peak(black_box(FMA_ITERS)),
            || a.matmul_transpose_b(&b),
        )
    });
    peak_over_kernel_secs * (2 * m * n * k) as f64 / peak_flops
}

/// `Aᵀ·B` at the weight-gradient shape (32 sequences of 32 tokens into the fused Q/K/V
/// width) against `matmul` on a pre-transposed `A`: the same arithmetic through the same
/// register tile minus the transpose. Both are below the parallel threshold.
fn atb_kernel(_: &mut Fixtures) -> f64 {
    let (k, m, n) = (1024usize, 32usize, 96usize);
    let mut rng = StdRng::seed_from_u64(8);
    let a = Matrix::random_normal(k, m, 1.0, &mut rng);
    let b = Matrix::random_normal(k, n, 1.0, &mut rng);
    let a_t = a.transpose();
    best_ratio(201, || a_t.matmul(&b), || a.matmul_transpose_a(&b))
}

/// The i8 tile as the quantized join calls it — a 4096-row shard streamed in place in
/// the index's 256-row strips, product and survivor test in one pass, each query
/// keeping about 1 % of the rows (the join keeps 39 of 4 096 per visit) — against the
/// f32 tile scoring the same pairs through [`PackedTranspose::multiply_into`], the
/// queries packed once on both sides: the time ratio is the ratio of pairs per second.
fn i8_tile(_: &mut Fixtures) -> f64 {
    let (m, n, k, strip) = (256usize, 4096usize, 64usize, 256usize);
    let mut rng = StdRng::seed_from_u64(6);
    let queries = Matrix::random_normal(m, k, 1.0, &mut rng);
    let corpus = Matrix::random_normal(n, k, 1.0, &mut rng);
    let packed = PackedTranspose::new(&queries.view());
    let mut scores = vec![0.0f32; n * m];
    let mut rng = StdRng::seed_from_u64(7);
    let codes_q: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-127i8..=127)).collect();
    let codes_c: Vec<i8> = (0..n * k).map(|_| rng.gen_range(-127i8..=127)).collect();
    let scales_c: Vec<f32> = (0..n).map(|_| rng.gen_range(0.5f32..1.0)).collect();
    let mut tile = I8Tile::new(&codes_q, k, &vec![1.0; m]);
    // Each query's threshold: its 41st best approximate score over the shard.
    let mut approx = vec![Vec::with_capacity(n); m];
    tile.scan(
        &codes_c,
        &scales_c,
        &vec![f64::NEG_INFINITY; m],
        |_, q, a| approx[q].push(a),
    );
    let thresholds: Vec<f64> = approx
        .iter_mut()
        .map(|a| *a.select_nth_unstable_by(40, |x, y| y.total_cmp(x)).1)
        .collect();
    on_one_core(|| {
        best_ratio(
            101,
            || packed.multiply_into(&corpus.view(), &mut scores),
            || {
                let mut kept = 0usize;
                for (codes, scales) in codes_c.chunks(strip * k).zip(scales_c.chunks(strip)) {
                    tile.scan(codes, scales, &thresholds, |_, _, _| kept += 1);
                }
                kept
            },
        )
    })
}

fn encoder_config(kind: EncoderKind) -> EncoderConfig {
    EncoderConfig {
        kind,
        dim: 32,
        layers: 1,
        heads: 2,
        ff_hidden: 64,
        max_len: 32,
    }
}

/// The seed's per-sequence encoder graph, frozen as the baseline of the four
/// `x seed per-row` rows. The layers are built in the order of `Encoder::with_vocab` from
/// the same seed, so the weights are the encoder's (the check in [`embed_all_speedup`]
/// holds it to that), but the lookup is `Tape::param` + `Tape::gather_rows` as the seed
/// did: every graph copies the whole table onto its tape, and backward gives each copy a
/// dense `vocab x dim` gradient. `Encoder::encode_text` no longer pays either, and a
/// baseline that speeds up with the code under test gates nothing.
struct SeedEncoder<'a> {
    encoder: &'a Encoder,
    embedding: Embedding,
    positional: PositionalEmbedding,
    blocks: Vec<TransformerBlock>,
    pool_mlp: FeedForward,
    output_norm: LayerNorm,
}

impl<'a> SeedEncoder<'a> {
    /// The per-row twin of `encoder`, which must have been built with `seed`.
    fn of(encoder: &'a Encoder, seed: u64) -> Self {
        let config = encoder.config;
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab_size = encoder.vocab().size();
        SeedEncoder {
            encoder,
            embedding: Embedding::new("seed.embedding", vocab_size, config.dim, &mut rng),
            positional: PositionalEmbedding::new("seed", config.max_len, config.dim, &mut rng),
            blocks: (0..config.layers)
                .map(|i| {
                    let name = format!("seed.block{i}");
                    TransformerBlock::new(
                        &name,
                        config.dim,
                        config.heads,
                        config.ff_hidden,
                        &mut rng,
                    )
                })
                .collect(),
            pool_mlp: FeedForward::new("seed.pool_mlp", config.dim, config.ff_hidden, &mut rng),
            output_norm: LayerNorm::new("seed.output_norm", config.dim),
        }
    }

    /// One text (not empty: the perf corpus has none) as a `1 x dim` graph, no cutoff.
    fn encode_text(&self, tape: &mut Tape, text: &str) -> VarId {
        let config = self.encoder.config;
        let ids = self.encoder.vocab().encode(text, config.max_len);
        let table = tape.param(&self.embedding.params()[0]);
        let embedded = tape.gather_rows(table, &ids);
        // The seed multiplied by the cutoff mask even when it was all ones.
        let mask = tape.constant(Matrix::full(ids.len(), config.dim, 1.0));
        let masked = tape.mul(embedded, mask);
        let pooled = match config.kind {
            EncoderKind::MeanPool => {
                let mean = tape.mean_rows(masked);
                let lifted = self.pool_mlp.forward(tape, mean);
                tape.add(mean, lifted)
            }
            EncoderKind::Transformer => {
                let mut x = self.positional.forward(tape, masked, ids.len());
                for block in &self.blocks {
                    x = block.forward(tape, x);
                }
                tape.mean_rows(x)
            }
        };
        let normed = self.output_norm.forward(tape, pooled);
        tape.l2_normalize_rows(normed)
    }

    /// One graph per text of a chunk, stacked: the seed's batch.
    fn stacked_chunk(&self, tape: &mut Tape, chunk: &[String]) -> VarId {
        let rows: Vec<VarId> = chunk.iter().map(|t| self.encode_text(tape, t)).collect();
        tape.concat_rows(&rows)
    }

    /// The seed's `embed_all`: one tape per 64-text chunk.
    fn embed_all(&self, texts: &[String]) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(texts.len());
        for chunk in texts.chunks(64) {
            let mut tape = Tape::new();
            let batch = self.stacked_chunk(&mut tape, chunk);
            let values = tape.value(batch);
            out.extend((0..values.rows()).map(|r| values.row(r).to_vec()));
        }
        out
    }
}

/// 4k product-like records. Each carries a few unique alphanumeric codes (sku / model /
/// reference) besides the shared title words: product corpora are identifier-heavy, and
/// the resulting ~12k-token vocabulary is what the embedding table looks like at this
/// corpus size (the paper's EM corpora are capped at 10k records).
fn perf_corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(2);
    let words = [
        "canon",
        "ink",
        "printer",
        "paper",
        "query",
        "deluxe",
        "cyan",
        "tank",
        "survey",
        "transformer",
        "optimizer",
        "cartridge",
        "model",
        "price",
        "venue",
    ];
    (0..4_000)
        .map(|i| {
            let picks: Vec<&str> = (0..10)
                .map(|_| words[rng.gen_range(0..words.len())])
                .collect();
            format!(
                "[COL] title [VAL] {} sku{i} mdl{} [COL] price [VAL] {} ref{}",
                picks.join(" "),
                (i * 7) % 50_000,
                i % 97,
                (i * 13) % 60_000,
            )
        })
        .collect()
}

/// Batched, tape-free, chunk-parallel `embed_all` against the seed's per-row tape graphs.
fn embed_all_speedup(texts: &[String], kind: EncoderKind) -> f64 {
    let encoder = Encoder::from_corpus(encoder_config(kind), texts, 7);
    let seed = SeedEncoder::of(&encoder, 7);
    let agreeing = seed.embed_all(&texts[..64]);
    for (x, y) in agreeing.iter().zip(&encoder.embed_all(&texts[..64])) {
        let cos = Matrix::cosine(x, y);
        assert!(cos > 1.0 - 1e-4, "embedding paths diverged: cosine {cos}");
    }
    best_ratio(11, || seed.embed_all(texts), || encoder.embed_all(texts))
}

/// One batched Transformer tape graph per 64-text chunk against one per-row graph per
/// text; with `backward`, each graph is also differentiated, which is what pretraining
/// executes per step. The per-row graphs pay their per-sequence toll twice over there:
/// every row's table gather scatter-adds into its own full-vocabulary gradient.
fn encode_batch_speedup(texts: &[String], backward: bool) -> f64 {
    let encoder = Encoder::from_corpus(encoder_config(EncoderKind::Transformer), texts, 7);
    let seed = SeedEncoder::of(&encoder, 7);
    let noop = CutoffPlan::noop();
    let per_chunk = |graph: &dyn Fn(&mut Tape, &[String]) -> VarId| {
        let mut total = 0.0f32;
        for chunk in texts.chunks(64) {
            let mut tape = Tape::new();
            let batch = graph(&mut tape, chunk);
            if backward {
                let sq = tape.pow2(batch);
                let loss = tape.mean_all(sq);
                black_box(tape.backward(loss));
                total += tape.scalar(loss);
            } else {
                total += tape.value(batch).rows() as f32;
            }
        }
        total
    };
    best_ratio(
        4,
        || per_chunk(&|tape, chunk| seed.stacked_chunk(tape, chunk)),
        || {
            per_chunk(&|tape, chunk| {
                let refs: Vec<&str> = chunk.iter().map(String::as_str).collect();
                encoder.encode_batch(tape, &refs, &noop)
            })
        },
    )
}

/// FLOPs (two per multiply-add) of the dense products in one forward pass of a
/// Transformer encoder over `n` sequences padded to `len` tokens: per token and layer the
/// four `d x d` projections, the two feed-forward products, and scores + context against
/// `len` keys over all heads.
fn transformer_forward_flops(config: &EncoderConfig, n: usize, len: usize) -> f64 {
    let (d, f) = (config.dim, config.ff_hidden);
    let per_token = 2 * (4 * d * d + 2 * d * f) + 4 * len * d;
    (config.layers * n * len * per_token) as f64
}

/// Masked multi-head attention, forward and backward, at `em_pipeline`'s encoder shape
/// (32 sequences of 32 tokens, dim 32, 2 heads) on one core: scores, masked softmax and
/// context on a tape, then its backward, as a share of the FMA peak timed beside it. The
/// FLOPs counted are the six products': `4·batch·seq²·dim` forward, twice that backward.
fn attention(_: &mut Fixtures) -> f64 {
    let (batch, seq, dim, heads) = (32usize, 32usize, 32usize, 2usize);
    let mut rng = StdRng::seed_from_u64(10);
    let qkv = [(); 3].map(|_| Matrix::random_normal(batch * seq, dim, 1.0, &mut rng));
    let valid = vec![seq; batch * heads * seq];
    let scale = 1.0 / ((dim / heads) as f32).sqrt();
    let step = || {
        let mut tape = Tape::new();
        let [q, k, v] = qkv.clone().map(|m| tape.constant(m));
        let scores = tape.attention_scores(q, k, heads, seq, scale);
        let weights = tape.masked_row_softmax(scores, &valid);
        let context = tape.attention_context(weights, v, heads, seq);
        let loss = tape.sum_all(context);
        tape.backward(loss)
    };
    let (peak, peak_flops) = fma_peak();
    let peak_over_step_secs = on_one_core(|| best_ratio(201, || peak(black_box(FMA_ITERS)), step));
    peak_over_step_secs * (12 * batch * seq * seq * dim) as f64 / peak_flops
}

/// The three `train_step` rows, read from one run.
struct TrainStep {
    forward_backward_share: f64,
    optimizer_share: f64,
    ms: f64,
}

/// One 16-item, two-view Transformer pretraining step (the loop body of
/// `core::pretrain` without sampling and augmentation, on one [`Trainer`] as there)
/// over the text fixture: ~406k
/// parameters, 96 % of them the embedding table. 41 repetitions of 20 steps (~2 s), each
/// followed by one FMA-peak run. Forward + backward is the best
/// repetition's rate over the dense products ([`transformer_forward_flops`], backward
/// doing each product twice) against the best peak, as in [`best_ratio`]; the optimizer's
/// share of a step and the step's milliseconds are medians over the repetitions.
fn train_step(texts: &[String]) -> TrainStep {
    let config = encoder_config(EncoderKind::Transformer);
    let encoder = Encoder::from_corpus(config, texts, 7);
    let mut rng = StdRng::seed_from_u64(9);
    let projector = Linear::new("projector", config.dim, 32, &mut rng);
    let mut trainer = Trainer::new(AdamW::new(1e-3));
    let plan = CutoffPlan::sample(CutoffKind::Span, 0.05, config.dim, &mut rng);
    let mut batches = texts.chunks(16).cycle();
    // Forward, backward and optimizer seconds into `stages`; returns the step's FLOPs.
    let mut step = |stages: &mut [f64; 3]| {
        let batch = batches.next().expect("cycling a non-empty corpus");
        let batch: Vec<&str> = batch.iter().map(String::as_str).collect();
        trainer.step(|tape| {
            let z_ori = encoder.encode_batch(tape, &batch, &CutoffPlan::noop());
            let z_ori = projector.forward(tape, z_ori);
            let z_aug = encoder.encode_batch(tape, &batch, &plan);
            let z_aug = projector.forward(tape, z_aug);
            combined_loss(tape, z_ori, z_aug, 0.07, 3.9e-3, 0.5)
        });
        let times = trainer.times();
        stages[0] += times.forward.as_secs_f64();
        stages[1] += times.backward.as_secs_f64();
        stages[2] += times.update.as_secs_f64();
        let tokens = |t: &&str| encoder.vocab().encode(t, config.max_len).len();
        let padded = batch.iter().map(tokens).max().unwrap_or(0);
        // Two views; forward and backward together are three products per forward one.
        2.0 * 3.0 * transformer_forward_flops(&config, batch.len(), padded)
    };
    let (peak, peak_flops) = fma_peak();
    let (mut best_rate, mut best_peak_rate) = (0.0f64, 0.0f64);
    let (mut optimizer_shares, mut ms) = (Vec::new(), Vec::new());
    for _ in 0..41 {
        let mut stages = [0.0; 3];
        let flops: f64 = (0..20).map(|_| step(&mut stages)).sum();
        best_rate = best_rate.max(flops / (stages[0] + stages[1]));
        best_peak_rate = best_peak_rate.max(peak_flops / seconds(|| peak(black_box(FMA_ITERS))));
        let total: f64 = stages.iter().sum();
        optimizer_shares.push(stages[2] / total);
        ms.push(total * 1e3 / 20.0);
    }
    TrainStep {
        forward_backward_share: best_rate / best_peak_rate,
        optimizer_share: median(&mut optimizer_shares),
        ms: median(&mut ms),
    }
}

/// Per-query scalar scan with no SIMD kernels: the seed's `knn_join`.
fn knn_scalar(corpus: &[Vec<f32>], queries: &[Vec<f32>], k: usize) -> Vec<(usize, usize, f32)> {
    let normalized: Vec<Vec<f32>> = corpus
        .iter()
        .map(|v| {
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if n > 1e-12 {
                v.iter().map(|x| x / n).collect()
            } else {
                v.clone()
            }
        })
        .collect();
    let mut pairs = Vec::with_capacity(queries.len() * k);
    for (qi, q) in queries.iter().enumerate() {
        let qnorm: f32 = q.iter().map(|x| x * x).sum::<f32>().sqrt();
        let inv = if qnorm > 1e-12 { 1.0 / qnorm } else { 0.0 };
        let mut scored: Vec<(usize, f32)> = normalized
            .iter()
            .enumerate()
            .map(|(id, v)| {
                (
                    id,
                    v.iter().zip(q.iter()).map(|(a, b)| a * b).sum::<f32>() * inv,
                )
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(k);
        pairs.extend(scored.into_iter().map(|(id, s)| (qi, id, s)));
    }
    pairs
}

/// `join` over the shared queries against the scalar scan, once it has answered a
/// 64-query probe exactly like the dense index.
fn knn_speedup(v: &Vectors, join: impl Fn(&[Vec<f32>]) -> Vec<(usize, usize, f32)>) -> f64 {
    let probe = &v.queries[..64];
    assert_eq!(
        join(probe),
        v.dense.knn_join(probe, K),
        "join diverged from dense"
    );
    best_ratio(
        3,
        || knn_scalar(&v.corpus, &v.queries, K),
        || join(&v.queries),
    )
}

/// The join over every shard spilled with the i8 tier against the same join without it,
/// once the quantized join has answered the 64-query probe exactly like the dense index.
fn spilled_quantized_join(f: &mut Fixtures) -> f64 {
    let v = f.vectors();
    let spilled = ShardedCosineIndex::from_vectors_with_budget(&v.corpus, 1024, Some(0));
    let mut quantized = ShardedCosineIndex::from_vectors(&v.corpus, 1024);
    quantized.set_quantization(Some(QuantSpec::default()));
    quantized.set_memory_budget(Some(0));
    quantized.compact();
    let shards = quantized.num_shards();
    assert_eq!(
        (
            quantized.num_spilled_shards(),
            quantized.num_quantized_shards()
        ),
        (shards, shards)
    );
    let probe = &v.queries[..64];
    assert_eq!(
        quantized.knn_join(probe, K),
        v.dense.knn_join(probe, K),
        "quantized join diverged from dense"
    );
    best_ratio(
        5,
        || spilled.knn_join(&v.queries, K),
        || quantized.knn_join(&v.queries, K),
    )
}

/// The shared corpus, sharded with every shard spilled (what a memory-pressured builder
/// writes), saved as a snapshot in a fresh directory.
fn saved_snapshot(v: &Vectors, name: &str) -> (ShardedCosineIndex, PathBuf) {
    let built = ShardedCosineIndex::from_vectors_with_budget(&v.corpus, 1024, Some(0));
    let dir = std::env::temp_dir().join(format!("sudowoodo-perf-{name}-{}", std::process::id()));
    built.save_snapshot(&dir).expect("save snapshot");
    (built, dir)
}

/// A cold (manifest-only) snapshot load against rebuilding the index from the vectors.
fn snapshot_load(f: &mut Fixtures) -> f64 {
    let v = f.vectors();
    let (built, dir) = saved_snapshot(v, "load");
    let loaded = ShardedCosineIndex::load_snapshot(&dir).expect("load snapshot");
    let probe = &v.queries[..64];
    assert_eq!(loaded.knn_join(probe, K), built.knn_join(probe, K));
    let ratio = best_ratio(
        101,
        || ShardedCosineIndex::from_vectors(&v.corpus, 1024),
        || ShardedCosineIndex::load_snapshot(&dir).expect("load snapshot"),
    );
    let _ = std::fs::remove_dir_all(&dir);
    ratio
}

/// A warm-cache batch served over localhost TCP from a snapshot-loaded index (no shard
/// touched) against computing it directly on a cold-loaded one.
fn served_warm_cache(f: &mut Fixtures) -> f64 {
    let v = f.vectors();
    let (_, dir) = saved_snapshot(v, "serve");
    let cold = ShardedCosineIndex::load_snapshot(&dir).expect("load snapshot");
    let mut serving = ShardedCosineIndex::load_snapshot(&dir).expect("load snapshot");
    serving.set_query_cache_capacity(4);
    let server = Server::spawn(Arc::new(BlockingIndex::Sharded(serving)), "127.0.0.1:0")
        .expect("spawn server");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let served = client.knn_join(&v.queries, K).expect("served join");
    assert_eq!(served, cold.knn_join(&v.queries, K), "served join diverged");
    let ratio = best_ratio(
        21,
        || cold.knn_join(&v.queries, K),
        || client.knn_join(&v.queries, K).expect("served join"),
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    ratio
}

/// Payload bytes the candidate scan reads per row: dense f32 shards `4·dim`, quantized
/// ones `dim` i8 codes plus one f32 scale.
fn quantized_density(_: &mut Fixtures) -> f64 {
    let corpus = random_vectors(10_000, 64, 5);
    let dense = ShardedCosineIndex::from_vectors(&corpus, 1024);
    let mut quantized = ShardedCosineIndex::from_vectors(&corpus, 1024);
    quantized.set_quantization(Some(QuantSpec::default()));
    quantized.compact();
    assert_eq!(quantized.num_quantized_shards(), quantized.num_shards());
    dense.resident_bytes() as f64 / quantized.quantized_payload_bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_is_a_regression_in_both_directions() {
        assert!(regression(Higher, Some(1.0), f64::NAN));
        assert!(regression(Lower, Some(1.0), f64::NAN));
        assert!(
            !regression(Higher, None, f64::NAN),
            "ungated rows never fail"
        );
    }

    #[test]
    fn a_floor_passes_at_its_value_and_fails_just_past_it() {
        let just_above = f64::from_bits(0.3f64.to_bits() + 1);
        let just_below = f64::from_bits(0.3f64.to_bits() - 1);
        assert!(!regression(Lower, Some(0.3), 0.3));
        assert!(regression(Lower, Some(0.3), just_above));
        assert!(!regression(Lower, Some(0.3), just_below));
        assert!(!regression(Higher, Some(0.3), 0.3));
        assert!(regression(Higher, Some(0.3), just_below));
    }

    #[test]
    fn row_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for probe in PROBES {
            assert!(names.insert(probe.name), "{} twice", probe.name);
        }
    }

    /// Every gate, with its floor: those the report had before its rows became data keep
    /// theirs. The first ten were `SPEEDUP_FLOORS`; `connections held` stands for
    /// "attached >= clamp_idle_target(5000) with finite p50 / p99" (it reads NaN
    /// otherwise).
    #[test]
    fn every_gate_keeps_its_floor() {
        let gates = [
            ("matmul 512x512", Higher, 4.0),
            ("embed_all 4k records (MeanPool)", Higher, 45.0),
            ("embed_all 4k records (Transformer)", Higher, 5.0),
            ("encode_batch graphs 4k records (Transformer)", Higher, 4.0),
            ("encode_batch fwd+bwd 4k records (Transformer)", Higher, 3.0),
            ("knn_join 2k x 10k dense", Higher, 10.0),
            ("knn_join 2k x 10k sharded cap=1024", Higher, 7.0),
            ("knn_join 2k x 10k spilled+routed cap=1024", Higher, 2.0),
            ("knn_join 2k x 10k spilled+quantized cap=1024", Higher, 1.0),
            ("snapshot load 10k corpus", Higher, 2.0),
            ("served knn_join warm cache 2k x 10k", Higher, 2.0),
            ("abt_kernel 256x4096x64, one core", Higher, 0.35),
            ("atb_kernel (1024x32)^T x 1024x96", Higher, 0.5),
            ("train_step forward + backward", Higher, 0.05),
            ("train_step optimizer", Lower, 0.30),
            ("i8_tile 256x4096x64, one core", Higher, 1.0),
            ("quantized scan payload density d=64", Higher, 3.5),
            ("connections held", Higher, 1.0),
        ];
        for (name, better, floor) in gates {
            let probe = PROBES.iter().find(|p| p.name == name);
            let probe = probe.unwrap_or_else(|| panic!("{name} lost its gate"));
            assert_eq!((probe.better, probe.floor), (better, Some(floor)), "{name}");
        }
        let gated = PROBES.iter().filter(|p| p.floor.is_some()).count();
        assert_eq!(gated, gates.len(), "a gate without a pinned floor");
    }
}
