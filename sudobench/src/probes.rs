//! Host calibration probes, printed with every run and never bounded: they tell a
//! noisy box from a regression and put each kernel next to what the hardware can do.
//!
//! * `host.fma_gflops` — one core's fused-multiply-add peak on the widest vector unit
//!   the repository's kernels dispatch to (AVX-512F, else AVX2+FMA, else scalar).
//! * `host.memcpy_gbps` — bytes copied per second over 64 MiB buffers (each copied
//!   byte is one read and one write of memory traffic).
//! * `nn.matmul_gflops` — `Matrix::matmul` at 512 x 512 x 512.
//! * `nn.dot_i8_gops` — `Matrix::dot_i8` over 1 MiB code vectors, 2 ops per element.

use std::hint::black_box;

use sudowoodo_nn::matrix::Matrix;

use crate::measure::{median, timed, Report};

const REPS: usize = 7;

fn median_seconds(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy kernel dispatch
    let samples: Vec<f64> = (0..REPS).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

/// Which vector tier the FMA probe (and the repository's f32 kernels) run on.
pub fn isa_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return "avx2+fma";
        }
    }
    "scalar"
}

const FMA_ITERS: usize = 2_000_000;
const FMA_CHAINS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_chains_avx512(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm512_set1_ps(1.000_001);
    let b = _mm512_set1_ps(1e-9);
    let mut acc = [_mm512_set1_ps(1.0); FMA_CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            *chain = _mm512_fmadd_ps(*chain, a, b);
        }
    }
    let mut sum = acc[0];
    for chain in &acc[1..] {
        sum = _mm512_add_ps(sum, *chain);
    }
    _mm512_reduce_add_ps(sum)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(1.000_001);
    let b = _mm256_set1_ps(1e-9);
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

/// Independent FMA dependency chains on one core; returns GFLOP/s (2 per lane-FMA).
fn fma_gflops() -> f64 {
    let iters = black_box(FMA_ITERS);
    let (lanes, run): (usize, fn(usize) -> f32) = match isa_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa_tier` returned this tier only after detecting the CPU feature
        // the function is compiled for; it touches no memory but its own locals.
        "avx512f" => (16, |n| unsafe { fma_chains_avx512(n) }),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2 and FMA.
        "avx2+fma" => (8, |n| unsafe { fma_chains_avx2(n) }),
        _ => (1, fma_chains_scalar),
    };
    let seconds = median_seconds(|| {
        black_box(run(iters));
    });
    (2 * lanes * FMA_CHAINS * FMA_ITERS) as f64 / seconds / 1e9
}

fn memcpy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let seconds = median_seconds(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    BYTES as f64 / seconds / 1e9
}

fn matmul_gflops() -> f64 {
    const N: usize = 512;
    let fill = |scale: f32| {
        let data = (0..N * N)
            .map(|i| ((i % 97) as f32 - 48.0) * scale)
            .collect();
        Matrix::from_vec(N, N, data)
    };
    let (a, b) = (fill(0.01), fill(0.02));
    let seconds = median_seconds(|| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    (2 * N * N * N) as f64 / seconds / 1e9
}

fn dot_i8_gops() -> f64 {
    const LEN: usize = 1 << 20;
    const CALLS: usize = 64;
    let a: Vec<i8> = (0..LEN).map(|i| (i % 251) as i8).collect();
    let b: Vec<i8> = (0..LEN).map(|i| (i % 127) as i8).collect();
    let seconds = median_seconds(|| {
        for _ in 0..CALLS {
            black_box(Matrix::dot_i8(black_box(&a), black_box(&b)));
        }
    });
    (2 * LEN * CALLS) as f64 / seconds / 1e9
}

/// Runs the four probes into `report`. Call it after the workload has read its peak
/// resident set: the memcpy buffers alone are 128 MiB.
pub fn run(report: &mut Report) {
    report.set("host.fma_gflops", fma_gflops());
    report.set("host.memcpy_gbps", memcpy_gbps());
    report.set("nn.matmul_gflops", matmul_gflops());
    report.set("nn.dot_i8_gops", dot_i8_gops());
    report.notes.push(format!(
        "host: {} core(s), vector tier {}; probes: fma {:.1} GFLOP/s per core, memcpy {:.2} GB/s, \
         matmul 512^3 {:.1} GFLOP/s, dot_i8 {:.1} Gop/s",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa_tier(),
        report.get("host.fma_gflops"),
        report.get("host.memcpy_gbps"),
        report.get("nn.matmul_gflops"),
        report.get("nn.dot_i8_gops"),
    ));
}
