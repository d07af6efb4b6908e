//! Dense row-major `f32` matrix used as the single tensor type of the autodiff engine.
//!
//! Every value flowing through [`crate::tape::Tape`] is a 2-D matrix. Vectors are
//! represented as `1 x d` (row vectors) or `n x 1` (column vectors).
//!
//! ## Kernel layer
//!
//! Encoder forward/backward, blocking, matching and clustering all bottom out in a few
//! GEMM-shaped products. Every kernel dispatches on one [`Arm`] (`Scalar < Avx2 < Avx512
//! < Avx512Vnni`), detected once per process: a public entry reads it once and hands it
//! down, and row bands on other threads receive it as an argument.
//!
//! * [`Matrix::matmul`] — one register-tile family (`8×32` AVX-512, `4×16` AVX2, `4×16`
//!   scalar) behind one loop nest: row bands × column panels of `B`, packed from a size
//!   threshold up. Edge rows and columns run the same tile into a spare tile, so on
//!   every FMA arm each output is one fused multiply-add chain over `k`, ascending, from
//!   zero — the same bits whatever the arm, the output's position or the thread split.
//!   [`Matrix::matmul_transpose_a`] (`Aᵀ·B`) is a blocked transpose feeding it.
//! * [`Matrix::matmul_transpose_b`] — fused `A·Bᵀ` (similarity matrices, cosine scoring):
//!   `8×4` (AVX-512) or `2×4` (AVX2) tiles of 8-lane accumulators walking `B` in
//!   L2-sized strips, bit-identical per element to the row-at-a-time
//!   [`Matrix::matmul_transpose_b_reference`] on the same arm;
//!   [`MatrixView::matmul_transpose_b_into`] is the same kernel into a reused buffer.
//! * [`I8Tile`] — i8 codes × codesᵀ into a reused `i32` tile, the first stage of the
//!   quantized index scan: `6×64` AVX-512 VNNI `vpdpbusd` / AVX-512 `madd_epi16`, `4×16`
//!   AVX2, scalar — integer-exact, so every arm equals [`Matrix::dot_i8`];
//!   [`I8Tile::scaled_at_least`] is the vectorised threshold scan over a tile row.
//! * AXPY (`kernels::axpy4` / `axpy1`) for attention and the optimizer, and the GELU and
//!   softmax maps of [`crate::tape`], on the same arm.
//!
//! `matmul_naive`, `matmul_transpose_b_reference` and `dot_i8` are the frozen references
//! the tests compare against. New work slots in as a tile in `kernels` and one more
//! `match` arm on [`Arm`]; a new product reuses the band split and the edge handling.

use std::cell::Cell;

use rand::Rng;
use rayon::prelude::*;

/// Multiply-adds (`m * k * n`) from which [`Matrix::matmul`] and the `A * B^T` driver split
/// their output rows across threads — the one "go parallel?" rule, see [`fans_out`].
///
/// The arithmetic, measured on the benchmark host (2 vCPUs that are siblings of one
/// core): the rayon shim has no pool, so a fan-out is a `thread::scope` that spawns and
/// joins its workers — 75 µs for two threads that do nothing, 100–125 µs through the
/// shim's item cells and result slots; the tiled kernels retire 45–60 G multiply-adds a
/// second on one thread; and two busy sibling threads finish a split product in about
/// 0.8 of the one-thread time, not 0.5. Splitting pays when `0.2 * work / 55e9 > 110e-6`,
/// i.e. `work > 3e7 ≈ 2^24.8`, and that is where the crossover was measured: 2^24
/// (`2048x64` by `64x128`) 266 µs inline against 410–510 split, 2^25 (`4096x64` by
/// `64x128`) 800 against 665–790, 2^27 (`512^3`) 2 160 against 1 610–1 920. At the old
/// 2^20 a `1024x32` by `32x32` product — 24 µs of arithmetic, and most of a training
/// step's products are this size — took 99–190 µs, and every 16-query tile of a served
/// join paid one spawn per 1 024-row corpus strip.
const PAR_FLOPS: usize = 1 << 25;

/// The rule itself: a product of `m` output rows and `m * k * n` multiply-adds is worth
/// splitting across threads from `PAR_FLOPS` up, a single row never. Both GEMM drivers
/// ask it through [`for_each_band`], whose bands compute every output in the same order
/// as the inline loop, so crossing the threshold never changes a bit of the result.
/// Public only so `tests/kernel_props.rs` can find shapes on either side of it on any
/// host.
#[doc(hidden)]
pub fn fans_out(m: usize, k: usize, n: usize) -> bool {
    m > 1 && m * k * n >= PAR_FLOPS
}

/// Multiply-adds from which `matmul` packs all of `B` into contiguous column panels
/// (one copy that turns the tile's stride-`n` walk, catastrophic for power-of-two `n`
/// through cache-set aliasing, into streaming). Below it, and whenever one row tile
/// covers `A`, the full panels are read in place and only the ragged last one is
/// copied: the training graphs are full of tiny products where a whole-`B` copy and its
/// allocation would dominate.
const PACK_FLOPS: usize = 1 << 14;

/// Bytes of `B` one strip of the `A * B^T` kernel covers: every row tile of `A` is run
/// against a strip before the next strip is touched, so `B` comes from L2 for all but
/// the first tile of a band instead of streaming from memory once per tile. Measured on
/// the benchmark host (2 MiB L2) at 256 x 100k x 64: 32 KiB strips 59 GFLOP/s, 256 KiB
/// 84, 1 MiB 71, unblocked 60–66.
const ABT_STRIP_BYTES: usize = 256 << 10;

/// The instruction set a kernel runs on, slowest first; every kernel of this module is
/// a `match` on it.
///
/// `Avx2` means AVX2 + FMA. `Avx512` means AVX-512 F + BW: every AVX-512 server core
/// since Skylake-SP has both, and a core with F alone runs the `Avx2` arm. `Avx512Vnni`
/// adds `vpdpbusd`, which only the i8 kernel uses; the f32 kernels run their `Avx512`
/// tiles on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arm {
    /// The baseline ISA only.
    Scalar,
    /// AVX2 and FMA.
    Avx2,
    /// AVX-512 F and BW (and everything `Avx2` has).
    Avx512,
    /// AVX-512 F, BW and VNNI.
    Avx512Vnni,
}

thread_local! {
    /// The highest arm kernel entries on this thread dispatch to; lowered only by
    /// [`for_each_supported_arm`].
    static CEILING: Cell<Arm> = const { Cell::new(Arm::Avx512Vnni) };
}

impl Arm {
    /// The widest arm this CPU supports, detected once per process.
    pub(crate) fn detected() -> Arm {
        #[cfg(target_arch = "x86_64")]
        {
            use std::is_x86_feature_detected as has;
            static DETECTED: std::sync::OnceLock<Arm> = std::sync::OnceLock::new();
            *DETECTED.get_or_init(|| {
                if !(has!("avx2") && has!("fma")) {
                    Arm::Scalar
                } else if !(has!("avx512f") && has!("avx512bw")) {
                    Arm::Avx2
                } else if !has!("avx512vnni") {
                    Arm::Avx512
                } else {
                    Arm::Avx512Vnni
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        Arm::Scalar
    }

    /// The arm a kernel entry on this thread dispatches to: the detected one, or lower
    /// inside [`for_each_supported_arm`].
    pub(crate) fn current() -> Arm {
        Arm::detected().min(CEILING.get())
    }
}

/// Test hook: runs `f` once per arm this CPU supports, slowest first, with every kernel
/// entered on the calling thread lowered to that arm (products it splits carry the arm
/// to their bands). The last call runs the arm production dispatches to.
#[doc(hidden)]
pub fn for_each_supported_arm(mut f: impl FnMut(Arm)) {
    let ceiling = CEILING.get();
    let all = [Arm::Scalar, Arm::Avx2, Arm::Avx512, Arm::Avx512Vnni];
    for arm in all.into_iter().filter(|&arm| arm <= Arm::detected()) {
        CEILING.set(arm);
        f(arm);
    }
    CEILING.set(ceiling);
}

/// Runs `run(rows, band)` over the `m x n` row-major `out`: as one band per thread, each
/// a whole number of `tile`-row tiles, when [`fans_out`] says so, else as one band
/// inline. The band split of `matmul` and `A * B^T`.
fn for_each_band(
    (m, k, n): (usize, usize, usize),
    tile: usize,
    out: &mut [f32],
    run: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
) {
    if fans_out(m, k, n) {
        let band = m
            .div_ceil(rayon::current_num_threads())
            .next_multiple_of(tile);
        out.par_chunks_mut(band * n)
            .enumerate()
            .for_each(|(b, out)| run(b * band..b * band + out.len() / n, out));
    } else {
        run(0..m, out);
    }
}

/// Runs `tile(dst, ldo)` for the `MR x W` window at row `i`, column `j` of the row-major
/// `m x n` `out`: in place when the window fits, else into `edge`, of which only the part
/// inside `out` is copied out. Either way `dst` is writable for `W` elements at each
/// offset `r * ldo`, `r < MR` — the edge handling of every register-tile family.
fn tile_window<T: Copy, const MR: usize, const W: usize>(
    out: &mut [T],
    (m, n): (usize, usize),
    (i, j): (usize, usize),
    edge: &mut [[T; W]; MR],
    tile: impl FnOnce(*mut T, usize),
) {
    let (rows, cols) = (MR.min(m - i), W.min(n - j));
    if rows == MR && cols == W {
        tile(out[i * n + j..][..(MR - 1) * n + W].as_mut_ptr(), n);
    } else {
        tile(edge.as_mut_ptr().cast(), W);
        for (r, edge_row) in edge.iter().enumerate().take(rows) {
            out[(i + r) * n + j..][..cols].copy_from_slice(&edge_row[..cols]);
        }
    }
}

pub(crate) mod kernels {
    //! Register tiles and SIMD microkernels, one per [`Arm`].
    //!
    //! The safe wrappers take the caller's arm and assert that this CPU supports it
    //! ([`Arm::current`] never returns another arm), and assert the slice lengths their
    //! `unsafe` callees rely on. The `unsafe` functions state their preconditions in a
    //! `# Safety` section.

    use super::Arm;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// One `MR x W` register tile of `A * B`: `out[r * ldo + c] = Σ_kk a[r][kk] * b[kk *
    /// ldb + c]`, each output one accumulator that starts at zero and takes the products
    /// in ascending `kk` — fused multiply-adds on the vector arms, multiply then add on
    /// the scalar one.
    ///
    /// # Safety
    /// The CPU supports the tile's instructions; every `a[r]` is readable for `k` floats,
    /// `b` for `W` floats at each offset `kk * ldb`, `kk < k`, and `out` writable for `W`
    /// floats at each offset `r * ldo`, `r < MR`.
    pub type GemmTile<const MR: usize> = unsafe fn(
        a: &[*const f32; MR],
        k: usize,
        b: *const f32,
        ldb: usize,
        out: *mut f32,
        ldo: usize,
    );

    /// [`GemmTile`] of [`Arm::Scalar`], `W` columns wide.
    ///
    /// # Safety
    /// See [`GemmTile`].
    pub unsafe fn gemm_tile_scalar<const MR: usize, const W: usize>(
        a: &[*const f32; MR],
        k: usize,
        b: *const f32,
        ldb: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        let mut acc = [[0.0f32; W]; MR];
        for kk in 0..k {
            let brow = std::slice::from_raw_parts(b.add(kk * ldb), W);
            for (row, &ar) in acc.iter_mut().zip(a) {
                let x = *ar.add(kk);
                for (sum, &y) in row.iter_mut().zip(brow) {
                    *sum += x * y;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            std::ptr::copy_nonoverlapping(row.as_ptr(), out.add(r * ldo), W);
        }
    }

    /// [`GemmTile`] of [`Arm::Avx2`]: `MR x 16`, two `ymm` accumulators per row.
    ///
    /// # Safety
    /// See [`GemmTile`]; needs AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_tile_avx2<const MR: usize>(
        a: &[*const f32; MR],
        k: usize,
        b: *const f32,
        ldb: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for kk in 0..k {
            let brow = b.add(kk * ldb);
            let bv = [_mm256_loadu_ps(brow), _mm256_loadu_ps(brow.add(8))];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let x = _mm256_set1_ps(*ar.add(kk));
                for (sum, &y) in row.iter_mut().zip(&bv) {
                    *sum = _mm256_fmadd_ps(x, y, *sum);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &sum) in row.iter().enumerate() {
                _mm256_storeu_ps(out.add(r * ldo + 8 * c), sum);
            }
        }
    }

    /// [`GemmTile`] of [`Arm::Avx512`]: `MR x 32`, two `zmm` accumulators per row — at
    /// `MR = 8` sixteen of them, which halves the re-streaming of `B` against four rows.
    ///
    /// # Safety
    /// See [`GemmTile`]; needs AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512<const MR: usize>(
        a: &[*const f32; MR],
        k: usize,
        b: *const f32,
        ldb: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        for kk in 0..k {
            let brow = b.add(kk * ldb);
            let bv = [_mm512_loadu_ps(brow), _mm512_loadu_ps(brow.add(16))];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let x = _mm512_set1_ps(*ar.add(kk));
                for (sum, &y) in row.iter_mut().zip(&bv) {
                    *sum = _mm512_fmadd_ps(x, y, *sum);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &sum) in row.iter().enumerate() {
                _mm512_storeu_ps(out.add(r * ldo + 16 * c), sum);
            }
        }
    }

    /// Packs columns `from..` of the row-major `k x n` matrix `b` into contiguous
    /// `W`-column panels, the last one zero-padded: panel `p` holds columns
    /// `from + p*W ..` as `k` consecutive groups of `W` floats.
    pub fn pack_b_panels<const W: usize>(b: &[f32], k: usize, n: usize, from: usize) -> Vec<f32> {
        debug_assert_eq!(b.len(), k * n);
        let mut packed = vec![0.0; (n - from).div_ceil(W) * W * k];
        for (p, panel) in packed.chunks_exact_mut(k * W).enumerate() {
            let j = from + p * W;
            let w = W.min(n - j);
            for (kk, dst) in panel.chunks_exact_mut(W).enumerate() {
                dst[..w].copy_from_slice(&b[kk * n + j..][..w]);
            }
        }
        packed
    }

    /// `out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]` — the 4-way k-unrolled AXPY
    /// of the attention kernels: four rows are consumed per pass over the output row,
    /// quartering the load/store traffic on `out`.
    #[inline]
    pub fn axpy4(
        arm: Arm,
        out: &mut [f32],
        a: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = out.len();
        assert!(b0.len() >= n && b1.len() >= n && b2.len() >= n && b3.len() >= n);
        assert!(arm <= Arm::detected());
        #[cfg(target_arch = "x86_64")]
        if arm >= Arm::Avx2 {
            // SAFETY: every arm from `Avx2` up has AVX2 and FMA, and the caller's arm is
            // supported; each `b` holds at least `out.len()` floats (both asserted above).
            unsafe { axpy4_avx2(out, a, [b0, b1, b2, b3]) };
            return;
        }
        for (j, o) in out.iter_mut().enumerate() {
            *o += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
        }
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; every `b` holds at least `out.len()` floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn axpy4_avx2(out: &mut [f32], a: [f32; 4], b: [&[f32]; 4]) {
        let n = out.len();
        let va = a.map(|x| _mm256_set1_ps(x));
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_loadu_ps(out.as_ptr().add(j));
            for (&x, row) in va.iter().zip(b) {
                acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(row.as_ptr().add(j)), acc);
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
            j += 8;
        }
        for (j, o) in out.iter_mut().enumerate().skip(j) {
            *o += a[0] * b[0][j] + a[1] * b[1][j] + a[2] * b[2][j] + a[3] * b[3][j];
        }
    }

    /// `out[j] += a * b[j]` — the remainder AXPY for `k % 4` tail rows, and gradient
    /// accumulation.
    #[inline]
    pub fn axpy1(arm: Arm, out: &mut [f32], a: f32, b: &[f32]) {
        assert!(b.len() >= out.len());
        assert!(arm <= Arm::detected());
        #[cfg(target_arch = "x86_64")]
        if arm >= Arm::Avx2 {
            // SAFETY: every arm from `Avx2` up has AVX2 and FMA, and the caller's arm is
            // supported; `b` holds at least `out.len()` floats (both asserted above).
            unsafe { axpy1_avx2(out, a, b) };
            return;
        }
        for (o, &bj) in out.iter_mut().zip(b.iter()) {
            *o += a * bj;
        }
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; `b` holds at least `out.len()` floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn axpy1_avx2(out: &mut [f32], a: f32, b: &[f32]) {
        let n = out.len();
        let va = _mm256_set1_ps(a);
        let mut j = 0;
        while j + 8 <= n {
            let acc = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(b.as_ptr().add(j)),
                _mm256_loadu_ps(out.as_ptr().add(j)),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
            j += 8;
        }
        for (o, &bj) in out[j..].iter_mut().zip(&b[j..]) {
            *o += a * bj;
        }
    }

    /// Four simultaneous dot products of `a` against `b0..b3` — the row-at-a-time
    /// `A * B^T` kernel and the per-element order every `A * B^T` tile reproduces.
    #[inline]
    pub fn dot4(arm: Arm, a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        let k = a.len();
        assert!(b0.len() >= k && b1.len() >= k && b2.len() >= k && b3.len() >= k);
        assert!(arm <= Arm::detected());
        #[cfg(target_arch = "x86_64")]
        if arm >= Arm::Avx2 {
            // SAFETY: every arm from `Avx2` up has AVX2 and FMA, and the caller's arm is
            // supported; each `b` holds at least `a.len()` floats (both asserted above).
            return unsafe { dot4_avx2(a, b0, b1, b2, b3) };
        }
        let mut acc = [0.0f32; 4];
        for (j, &aj) in a.iter().enumerate() {
            acc[0] += aj * b0[j];
            acc[1] += aj * b1[j];
            acc[2] += aj * b2[j];
            acc[3] += aj * b3[j];
        }
        acc
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; every `b` holds at least `a.len()` floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot4_avx2(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        let n = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let va = _mm256_loadu_ps(a.as_ptr().add(j));
            acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0.as_ptr().add(j)), acc0);
            acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1.as_ptr().add(j)), acc1);
            acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2.as_ptr().add(j)), acc2);
            acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3.as_ptr().add(j)), acc3);
            j += 8;
        }
        let mut out = [hsum256(acc0), hsum256(acc1), hsum256(acc2), hsum256(acc3)];
        while j < n {
            out[0] += a[j] * b0[j];
            out[1] += a[j] * b1[j];
            out[2] += a[j] * b2[j];
            out[3] += a[j] * b3[j];
            j += 1;
        }
        out
    }

    /// Single dot product (tail columns of the `A * B^T` kernel).
    #[inline]
    pub fn dot(arm: Arm, a: &[f32], b: &[f32]) -> f32 {
        assert!(b.len() >= a.len());
        assert!(arm <= Arm::detected());
        #[cfg(target_arch = "x86_64")]
        if arm >= Arm::Avx2 {
            // SAFETY: every arm from `Avx2` up has AVX2 and FMA, and the caller's arm is
            // supported; `b` holds at least `a.len()` floats (both asserted above).
            return unsafe { dot_avx2(a, b) };
        }
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; `b` holds at least `a.len()` floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 16 <= n {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(j)),
                _mm256_loadu_ps(b.as_ptr().add(j)),
                acc0,
            );
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(j + 8)),
                _mm256_loadu_ps(b.as_ptr().add(j + 8)),
                acc1,
            );
            j += 16;
        }
        while j + 8 <= n {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(j)),
                _mm256_loadu_ps(b.as_ptr().add(j)),
                acc0,
            );
            j += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while j < n {
            sum += a[j] * b[j];
            j += 1;
        }
        sum
    }

    /// # Safety
    /// The CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let sum4 = _mm_add_ps(lo, hi);
        let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
        let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0b01));
        _mm_cvtss_f32(sum1)
    }

    /// One `mr x 4` tile of `A * B^T`: `out[r * ldo + c] = a_r · b_c` for the `mr` (8 on
    /// the AVX-512 arms, else 2) rows of `a` and the 4 rows of `b`, all of length `k` and
    /// contiguous.
    ///
    /// Each output is computed exactly as [`dot4`] computes it: one 8-lane accumulator
    /// per output, fused multiply-adds over the 8-wide chunks of `k` in ascending order,
    /// the `hsum256` reduction tree (`(l0+l4 + l2+l6) + (l1+l5 + l3+l7)`, same operand
    /// order at every add), then the `k % 8` tail as unfused multiply and add. The tile
    /// only shares operand loads between outputs and reduces four accumulators per
    /// shuffle sequence; no output's arithmetic changes, so results are bit-identical
    /// to the row-at-a-time path.
    ///
    /// # Panics
    /// Panics when a slice is shorter than the tile, or when `arm` has no `mr x 4` tile.
    pub fn abt_tile(
        arm: Arm,
        mr: usize,
        a: &[f32],
        b: &[f32],
        k: usize,
        out: &mut [f32],
        ldo: usize,
    ) {
        assert!(
            a.len() >= mr * k && b.len() >= 4 * k && out.len() >= (mr - 1) * ldo + 4,
            "abt_tile: slices shorter than a {mr}x4 tile of {k}-wide rows"
        );
        assert!(arm <= Arm::detected());
        match (mr, arm) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the AVX-512 arms have AVX-512F, AVX2 and FMA, and the asserts above
            // prove the caller's arm is supported, the reads of 8 rows of `k` floats of
            // `a` and 4 of `b`, and the writes of 4 floats at each `r * ldo`, `r < 8`.
            (8, Arm::Avx512 | Arm::Avx512Vnni) => unsafe {
                abt_tile8x4_avx512(a.as_ptr(), b.as_ptr(), k, out.as_mut_ptr(), ldo)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above for AVX2 and FMA, which every arm from `Avx2` up has,
            // and a tile of 2 rows.
            (2, Arm::Avx2 | Arm::Avx512 | Arm::Avx512Vnni) => unsafe {
                abt_tile2x4_avx2(a.as_ptr(), b.as_ptr(), k, out.as_mut_ptr(), ldo)
            },
            _ => panic!("abt_tile: no {mr}x4 tile on the {arm:?} arm"),
        }
        for j in k - k % 8..k {
            for r in 0..mr {
                for c in 0..4 {
                    out[r * ldo + c] += a[r * k + j] * b[c * k + j];
                }
            }
        }
    }

    /// Four [`hsum256`] reductions at once: lane `c` of the result is `hsum256(v[c])`,
    /// add for add (low half + high half, then lanes `0,1` + lanes `2,3`, then lane 0 +
    /// lane 1 — first operand first each time).
    ///
    /// # Safety
    /// The CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256x4(v: [__m256; 4]) -> __m128 {
        let mut s = [_mm_setzero_ps(); 4];
        for (half_sum, x) in s.iter_mut().zip(v) {
            *half_sum = _mm_add_ps(_mm256_castps256_ps128(x), _mm256_extractf128_ps(x, 1));
        }
        let p01 = _mm_add_ps(_mm_movelh_ps(s[0], s[1]), _mm_movehl_ps(s[1], s[0]));
        let p23 = _mm_add_ps(_mm_movelh_ps(s[2], s[3]), _mm_movehl_ps(s[3], s[2]));
        _mm_add_ps(
            _mm_shuffle_ps(p01, p23, 0b10_00_10_00),
            _mm_shuffle_ps(p01, p23, 0b11_01_11_01),
        )
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; `a` is readable for `2 * k` floats, `b` for
    /// `4 * k`, and `out` writable for 4 floats at offsets `0` and `ldo`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn abt_tile2x4_avx2(a: *const f32, b: *const f32, k: usize, out: *mut f32, ldo: usize) {
        let mut acc = [[_mm256_setzero_ps(); 4]; 2];
        let mut j = 0;
        while j + 8 <= k {
            let mut vb = [_mm256_setzero_ps(); 4];
            for (c, vbc) in vb.iter_mut().enumerate() {
                *vbc = _mm256_loadu_ps(b.add(c * k + j));
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let va = _mm256_loadu_ps(a.add(r * k + j));
                for (sum, &vbc) in acc_row.iter_mut().zip(&vb) {
                    *sum = _mm256_fmadd_ps(va, vbc, *sum);
                }
            }
            j += 8;
        }
        for (r, acc_row) in acc.into_iter().enumerate() {
            _mm_storeu_ps(out.add(r * ldo), hsum256x4(acc_row));
        }
    }

    /// # Safety
    /// The CPU supports AVX-512F, AVX2 and FMA; `a` is readable for `8 * k` floats, `b`
    /// for `4 * k`, and `out` writable for 4 floats at each offset `r * ldo`, `r < 8`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn abt_tile8x4_avx512(
        a: *const f32,
        b: *const f32,
        k: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        // acc[p][c]: low 256 bits = the 8-lane accumulator of (row 2p, col c), high 256
        // bits = that of (row 2p+1, col c). A 512-bit FMA is two independent 8-lane FMAs,
        // so each half accumulates exactly as `dot4` does.
        let mut acc = [[_mm512_setzero_ps(); 4]; 4];
        let mut j = 0;
        while j + 8 <= k {
            let mut vb = [_mm512_setzero_ps(); 4];
            for (c, vbc) in vb.iter_mut().enumerate() {
                let chunk = _mm256_castps_pd(_mm256_loadu_ps(b.add(c * k + j)));
                *vbc = _mm512_castpd_ps(_mm512_broadcast_f64x4(chunk));
            }
            for (p, acc_pair) in acc.iter_mut().enumerate() {
                let lo = _mm256_castps_pd(_mm256_loadu_ps(a.add(2 * p * k + j)));
                let hi = _mm256_castps_pd(_mm256_loadu_ps(a.add((2 * p + 1) * k + j)));
                let va = _mm512_castpd_ps(_mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1));
                for (sum, &vbc) in acc_pair.iter_mut().zip(&vb) {
                    *sum = _mm512_fmadd_ps(va, vbc, *sum);
                }
            }
            j += 8;
        }
        // `hsum256x4` on sixteen accumulators at a time, one per 128-bit lane: lane `q`
        // of every vector below belongs to row `4h + q`.
        for h in 0..2 {
            let mut s = [_mm512_setzero_ps(); 4];
            for (c, half_sum) in s.iter_mut().enumerate() {
                let (x, y) = (acc[2 * h][c], acc[2 * h + 1][c]);
                *half_sum = _mm512_add_ps(
                    _mm512_shuffle_f32x4(x, y, 0b10_00_10_00), // low halves of 4 rows
                    _mm512_shuffle_f32x4(x, y, 0b11_01_11_01), // high halves
                );
            }
            let p01 = _mm512_add_ps(
                _mm512_shuffle_ps(s[0], s[1], 0b01_00_01_00),
                _mm512_shuffle_ps(s[0], s[1], 0b11_10_11_10),
            );
            let p23 = _mm512_add_ps(
                _mm512_shuffle_ps(s[2], s[3], 0b01_00_01_00),
                _mm512_shuffle_ps(s[2], s[3], 0b11_10_11_10),
            );
            let sums = _mm512_add_ps(
                _mm512_shuffle_ps(p01, p23, 0b10_00_10_00),
                _mm512_shuffle_ps(p01, p23, 0b11_01_11_01),
            );
            let row = out.add(4 * h * ldo);
            _mm_storeu_ps(row, _mm512_castps512_ps128(sums));
            _mm_storeu_ps(row.add(ldo), _mm512_extractf32x4_ps(sums, 1));
            _mm_storeu_ps(row.add(2 * ldo), _mm512_extractf32x4_ps(sums, 2));
            _mm_storeu_ps(row.add(3 * ldo), _mm512_extractf32x4_ps(sums, 3));
        }
    }

    /// Appends to `hits`, ascending, every `j` whose `scale * scales[j] * dots[j] as f64`
    /// is `>= threshold` (evaluated left to right in f64, so a NaN on either side never
    /// matches). The vector arms evaluate the same two IEEE multiplications and the
    /// same ordered comparison per element, sixteen (AVX-512) or eight (AVX2) per step,
    /// so every arm appends the same indices.
    #[inline]
    pub fn scaled_ge_indices(
        arm: Arm,
        dots: &[i32],
        scales: &[f64],
        scale: f64,
        threshold: f64,
        hits: &mut Vec<usize>,
    ) {
        let n = dots.len().min(scales.len());
        let (dots, scales) = (&dots[..n], &scales[..n]);
        assert!(arm <= Arm::detected());
        let scanned = match arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the AVX-512 arms have AVX-512F and the caller's arm is supported
            // (asserted above); both slices hold `n` elements.
            Arm::Avx512 | Arm::Avx512Vnni => unsafe {
                scaled_ge_indices_avx512(dots, scales, scale, threshold, hits)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above for AVX2.
            Arm::Avx2 => unsafe { scaled_ge_indices_avx2(dots, scales, scale, threshold, hits) },
            _ => 0,
        };
        scaled_ge_indices_scalar(dots, scales, scale, threshold, scanned, hits);
    }

    /// The definition of [`scaled_ge_indices`] from element `from` on — the whole scan
    /// without vector units, the `n % 16` tail with them.
    pub fn scaled_ge_indices_scalar(
        dots: &[i32],
        scales: &[f64],
        scale: f64,
        threshold: f64,
        from: usize,
        hits: &mut Vec<usize>,
    ) {
        for (j, (&dot, &s)) in dots.iter().zip(scales).enumerate().skip(from) {
            if scale * s * dot as f64 >= threshold {
                hits.push(j);
            }
        }
    }

    /// Appends the set bits of `mask`, lowest first, as indices from `base`.
    #[inline(always)]
    fn push_mask_bits(mut mask: u32, base: usize, hits: &mut Vec<usize>) {
        while mask != 0 {
            hits.push(base + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
    }

    /// [`scaled_ge_indices`] over the whole 16-element blocks; returns how many
    /// elements that covered.
    ///
    /// # Safety
    /// The CPU supports AVX-512F; `scales` is at least as long as `dots`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn scaled_ge_indices_avx512(
        dots: &[i32],
        scales: &[f64],
        scale: f64,
        threshold: f64,
        hits: &mut Vec<usize>,
    ) -> usize {
        let (vs, vt) = (_mm512_set1_pd(scale), _mm512_set1_pd(threshold));
        let mut j = 0;
        while j + 16 <= dots.len() {
            let mut mask = 0u32;
            for half in 0..2 {
                let at = j + 8 * half;
                let d = _mm256_loadu_si256(dots.as_ptr().add(at) as *const __m256i);
                let s = _mm512_loadu_pd(scales.as_ptr().add(at));
                let approx = _mm512_mul_pd(_mm512_mul_pd(vs, s), _mm512_cvtepi32_pd(d));
                mask |= (_mm512_cmp_pd_mask::<_CMP_GE_OQ>(approx, vt) as u32) << (8 * half);
            }
            push_mask_bits(mask, j, hits);
            j += 16;
        }
        j
    }

    /// As [`scaled_ge_indices_avx512`] on 8-element blocks.
    ///
    /// # Safety
    /// The CPU supports AVX2; `scales` is at least as long as `dots`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scaled_ge_indices_avx2(
        dots: &[i32],
        scales: &[f64],
        scale: f64,
        threshold: f64,
        hits: &mut Vec<usize>,
    ) -> usize {
        let (vs, vt) = (_mm256_set1_pd(scale), _mm256_set1_pd(threshold));
        let mut j = 0;
        while j + 8 <= dots.len() {
            let mut mask = 0u32;
            for half in 0..2 {
                let at = j + 4 * half;
                let d = _mm_loadu_si128(dots.as_ptr().add(at) as *const __m128i);
                let s = _mm256_loadu_pd(scales.as_ptr().add(at));
                let approx = _mm256_mul_pd(_mm256_mul_pd(vs, s), _mm256_cvtepi32_pd(d));
                let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(approx, vt);
                mask |= (_mm256_movemask_pd(ge) as u32) << (4 * half);
            }
            push_mask_bits(mask, j, hits);
            j += 8;
        }
        j
    }

    /// Packs the row-major `n x k` codes `b` into panels of `w` rows: panel `p`, lane
    /// group `g`, row `l` holds codes `g*G .. g*G+G` of row `p*w + l` at byte
    /// `((p*kg + g)*w + l)*G` — one vector load per 16 (or 8) rows per group, no
    /// horizontal reduction afterwards. `flip` is XORed into every code (`0x80` turns a
    /// signed code into the biased unsigned operand of `vpdpbusd`). Bytes past `n` and
    /// past `k` keep whatever `out` held: padding rows are never stored, and padding
    /// codes meet the zero padding of the prepared `A`.
    pub fn pack_i8_panels<const G: usize>(
        b: &[i8],
        n: usize,
        k: usize,
        w: usize,
        flip: u8,
        out: &mut Vec<i8>,
    ) {
        let kg = k.div_ceil(G);
        out.resize(n.div_ceil(w) * kg * w * G, 0);
        let flip = [flip as i8; G];
        for (p, panel) in out.chunks_exact_mut(kg * w * G).enumerate() {
            let (groups, _) = panel.as_chunks_mut::<G>();
            for l in 0..w.min(n - p * w) {
                let row = &b[(p * w + l) * k..][..k];
                let (full, tail) = row.as_chunks::<G>();
                for (g, codes) in full.iter().enumerate() {
                    groups[g * w + l] = std::array::from_fn(|t| codes[t] ^ flip[t]);
                }
                for (t, &code) in tail.iter().enumerate() {
                    groups[full.len() * w + l][t] = code ^ flip[t];
                }
            }
        }
    }

    /// One `MR x W` register tile of an i8 arm (6×64, AVX2 4×16): `out[r * ldo + c] =
    /// init[r] + Σ_g a[r][g] ⊙ panel[g][c]`, `⊙` being the arm's lane-group dot product.
    ///
    /// # Safety
    /// The CPU supports the arm's instructions; every `a[r]` is readable for `kg`
    /// words, `panel` for `kg * W` lane groups, and `out` writable for `W` words at
    /// each offset `r * ldo`.
    #[cfg(target_arch = "x86_64")]
    pub type I8Micro<const MR: usize> = unsafe fn(
        a: &[*const i32; MR],
        init: &[i32; MR],
        panel: *const i8,
        kg: usize,
        out: *mut i32,
        ldo: usize,
    );

    /// [`I8Micro`] of [`Arm::Avx512Vnni`]: `panel` holds biased unsigned code quads.
    /// Measured on the benchmark host at 256 x 4096 x 64 in 512-row strips, packing
    /// included: 0.29 ms against 0.84 for the `madd` tile of [`Arm::Avx512`] (AVX2 1.16,
    /// scalar 14.3, the f32 `abt_tile` kernel 1.37).
    ///
    /// # Safety
    /// See [`I8Micro`]; needs AVX-512F, BW and VNNI.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    pub unsafe fn i8_micro_vnni(
        a: &[*const i32; 6],
        init: &[i32; 6],
        panel: *const i8,
        kg: usize,
        out: *mut i32,
        ldo: usize,
    ) {
        let mut acc = [[_mm512_setzero_si512(); 4]; 6];
        for (row, &bias) in acc.iter_mut().zip(init) {
            *row = [_mm512_set1_epi32(bias); 4];
        }
        for g in 0..kg {
            let p = panel.add(g * 256) as *const __m512i;
            let b = [
                _mm512_loadu_si512(p),
                _mm512_loadu_si512(p.add(1)),
                _mm512_loadu_si512(p.add(2)),
                _mm512_loadu_si512(p.add(3)),
            ];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let quad = _mm512_set1_epi32(*ar.add(g));
                for (sum, &bc) in row.iter_mut().zip(&b) {
                    *sum = _mm512_dpbusd_epi32(*sum, bc, quad);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &sum) in row.iter().enumerate() {
                _mm512_storeu_si512(out.add(r * ldo + c * 16) as *mut __m512i, sum);
            }
        }
    }

    /// [`I8Micro`] of [`Arm::Avx512`]: `panel` holds signed code pairs, `a` pairs of
    /// sign-extended `i16`.
    ///
    /// # Safety
    /// See [`I8Micro`]; needs AVX-512F and BW.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub unsafe fn i8_micro_avx512bw(
        a: &[*const i32; 6],
        init: &[i32; 6],
        panel: *const i8,
        kg: usize,
        out: *mut i32,
        ldo: usize,
    ) {
        let mut acc = [[_mm512_setzero_si512(); 4]; 6];
        for (row, &bias) in acc.iter_mut().zip(init) {
            *row = [_mm512_set1_epi32(bias); 4];
        }
        for g in 0..kg {
            let p = panel.add(g * 128) as *const __m256i;
            let b = [
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(p)),
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(p.add(1))),
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(p.add(2))),
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(p.add(3))),
            ];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let pair = _mm512_set1_epi32(*ar.add(g));
                for (sum, &bc) in row.iter_mut().zip(&b) {
                    *sum = _mm512_add_epi32(*sum, _mm512_madd_epi16(pair, bc));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &sum) in row.iter().enumerate() {
                _mm512_storeu_si512(out.add(r * ldo + c * 16) as *mut __m512i, sum);
            }
        }
    }

    /// [`I8Micro`] of [`Arm::Avx2`]: as [`i8_micro_avx512bw`] on a 4×16 tile.
    ///
    /// # Safety
    /// See [`I8Micro`]; needs AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub unsafe fn i8_micro_avx2(
        a: &[*const i32; 4],
        init: &[i32; 4],
        panel: *const i8,
        kg: usize,
        out: *mut i32,
        ldo: usize,
    ) {
        let mut acc = [[_mm256_setzero_si256(); 2]; 4];
        for (row, &bias) in acc.iter_mut().zip(init) {
            *row = [_mm256_set1_epi32(bias); 2];
        }
        for g in 0..kg {
            let p = panel.add(g * 32) as *const __m128i;
            let b = [
                _mm256_cvtepi8_epi16(_mm_loadu_si128(p)),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(p.add(1))),
            ];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let pair = _mm256_set1_epi32(*ar.add(g));
                for (sum, &bc) in row.iter_mut().zip(&b) {
                    *sum = _mm256_add_epi32(*sum, _mm256_madd_epi16(pair, bc));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &sum) in row.iter().enumerate() {
                _mm256_storeu_si256(out.add(r * ldo + c * 8) as *mut __m256i, sum);
            }
        }
    }
}

/// A borrowed, row-major `f32` matrix view — the shape of a [`Matrix`] without the
/// owned buffer, so kernels can run over externally owned storage (an mmap'd file,
/// a slice of a larger buffer) with zero copies.
///
/// # Examples
/// ```
/// use sudowoodo_nn::matrix::{Matrix, MatrixView};
///
/// let corpus = [1.0f32, 0.0, 0.0, 1.0];
/// let view = MatrixView::new(2, 2, &corpus);
/// let q = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
/// assert_eq!(q.matmul_transpose_b_view(&view).row(0), &[1.0, 0.0]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatrixView<'a> {
    /// Wraps a row-major buffer as a `rows x cols` view.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> MatrixView<'a> {
        assert_eq!(
            data.len(),
            rows * cols,
            "MatrixView::new: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        MatrixView { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the viewed data into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }

    /// Fused product `self * other^T` written into a caller-owned row-major
    /// `self.rows() x other.rows()` buffer — [`Matrix::matmul_transpose_b_view`] without
    /// the allocation, for callers that score one operand against many (the strips of a
    /// corpus) and reuse the tile. Every element of `out` is overwritten.
    ///
    /// # Panics
    /// Panics when the column counts disagree or `out` has the wrong length.
    pub fn matmul_transpose_b_into(&self, other: &MatrixView<'_>, out: &mut [f32]) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b: contraction mismatch ({}x{} * ({}x{})^T)",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(
            out.len(),
            m * n,
            "matmul_transpose_b: output is not {m}x{n}"
        );
        let arm = Arm::current();
        for_each_band((m, k, n), 8, out, |rows, band| {
            abt_band(
                arm,
                &self.data[rows.start * k..rows.end * k],
                rows.len(),
                other,
                band,
            );
        });
    }

    /// Scores one row `a` against the listed rows of this view, `out[i] = a · row(rows[i])`,
    /// four rows at a time through the `A * B^T` kernel's `dot4`; a short last group
    /// repeats its last row (`dot4`'s lanes are independent). Every score therefore has
    /// the bits [`Self::matmul_transpose_b_into`] gives that row in a product against a
    /// matrix padded to whole row quads, while only the listed rows are read. Rows may be
    /// listed in any order and more than once.
    ///
    /// # Panics
    /// Panics when `a` is not `cols()` long, `out` is not `rows.len()` long, or a listed
    /// row is out of range.
    pub fn dot4_rows(&self, a: &[f32], rows: &[usize], out: &mut [f32]) {
        assert!(
            a.len() == self.cols && out.len() == rows.len(),
            "dot4_rows: expected a {}-wide row and one output per listed row",
            self.cols
        );
        let arm = Arm::current();
        for (group, out) in rows.chunks(4).zip(out.chunks_mut(4)) {
            let row = |i: usize| self.row(group[i.min(group.len() - 1)]);
            let scores = kernels::dot4(arm, a, row(0), row(1), row(2), row(3));
            out.copy_from_slice(&scores[..group.len()]);
        }
    }
}

/// One band of `A * B^T`: the `m` rows of `a` against all of `b`, strip by strip. Row
/// pairs run through the register tiles — eight rows at a time on the AVX-512 arms —
/// and the rest, and every row on the scalar arm, through `dot_row`.
///
/// Output `(i, j)` is `dot4` of its two rows when `j` falls in a full group of four
/// corpus rows and `dot` in the `n % 4` tail, whichever tile computes it — so the result
/// does not depend on the tile, the band split or the strip length, only on whether the
/// arm has FMA.
fn abt_band(arm: Arm, a: &[f32], m: usize, b: &MatrixView<'_>, out: &mut [f32]) {
    let (n, k) = (b.rows, b.cols);
    let full = n - n % 4;
    let strip = (ABT_STRIP_BYTES / 4 / k.max(1)).max(1).next_multiple_of(4);
    let (tiled, tallest) = match arm {
        Arm::Scalar => (0, 2),
        Arm::Avx2 => (m - m % 2, 2),
        Arm::Avx512 | Arm::Avx512Vnni => (m - m % 2, 8),
    };
    for strip_start in (0..full).step_by(strip) {
        let strip_end = (strip_start + strip).min(full);
        let mut i = 0;
        while i < tiled {
            let mr = if i + tallest <= tiled { tallest } else { 2 };
            for j in (strip_start..strip_end).step_by(4) {
                kernels::abt_tile(
                    arm,
                    mr,
                    &a[i * k..(i + mr) * k],
                    &b.data[j * k..(j + 4) * k],
                    k,
                    &mut out[i * n + j..(i + mr - 1) * n + j + 4],
                    n,
                );
            }
            i += mr;
        }
    }
    for i in 0..tiled {
        for j in full..n {
            out[i * n + j] = kernels::dot(arm, &a[i * k..(i + 1) * k], b.row(j));
        }
    }
    for i in tiled..m {
        Matrix::dot_row(arm, &a[i * k..(i + 1) * k], b, &mut out[i * n..(i + 1) * n]);
    }
}

/// The one GEMM loop nest: `out = a * b` for the row-major `a` (`out.len() / n x k`), `b`
/// (`k x n`) and `out`, through `tile` in row bands of whole `MR`-row tiles
/// ([`for_each_band`]) and `W`-column panels of `b`. From [`PACK_FLOPS`] up, with more
/// than one row tile, every panel is packed contiguous; otherwise the full panels are
/// read in place and only the ragged last one is packed. Rows and columns past the
/// edge run on a spare tile ([`tile_window`]), so every output is computed by the
/// same tile in the same order, wherever it sits.
///
/// # Safety
/// The CPU supports `tile`'s instructions.
unsafe fn gemm<const MR: usize, const W: usize>(
    tile: kernels::GemmTile<MR>,
    a: &[f32],
    b: &[f32],
    k: usize,
    out: &mut [f32],
) {
    let n = b.len() / k;
    let m = out.len() / n;
    let from = if m > MR && m * k * n >= PACK_FLOPS {
        0
    } else {
        n - n % W
    };
    let packed = kernels::pack_b_panels::<W>(b, k, n, from);
    for_each_band((m, k, n), MR, out, |rows, band| {
        let mut edge = [[0.0f32; W]; MR];
        for i in (0..rows.len()).step_by(MR) {
            let a_rows: [*const f32; MR] = std::array::from_fn(|r| {
                a[(rows.start + (i + r).min(rows.len() - 1)) * k..].as_ptr()
            });
            for j in (0..n).step_by(W) {
                let (panel, ldb) = if j < from {
                    (b[j..].as_ptr(), n)
                } else {
                    (packed[(j - from) * k..].as_ptr(), W)
                };
                tile_window(band, (rows.len(), n), (i, j), &mut edge, |dst, ldo| {
                    // SAFETY: the caller guarantees `tile`'s instructions; each
                    // `a_rows[r]` starts a `k`-float row of `a`; an in-place panel has
                    // `W` columns of `b` left in each of its `k` rows (`j + W <= from <=
                    // n`), a packed one `k * W` floats; and `tile_window` hands out `W`
                    // writable floats at each `r * ldo`, `r < MR`.
                    unsafe { tile(&a_rows, k, panel, ldb, dst, ldo) }
                });
            }
        }
    });
}

/// The integer-exact `A * B^T` of i8 code matrices into a reused `i32` tile — the first
/// stage of the quantized index scan, where `A` is one query tile's codes and `B` walks
/// a shard's codes strip by strip.
///
/// `A` is prepared once for the arm [`I8Tile::new`] dispatches to (AVX-512 VNNI
/// `vpdpbusd`, AVX-512 or AVX2 `madd_epi16`, scalar): its codes are regrouped into the
/// 32-bit lane groups the arm broadcasts (zero-padded to a whole group), and for `vpdpbusd` —
/// whose first operand is unsigned — each row's `-128 * Σ a` is kept as the
/// accumulator's initial value, cancelling the `+128` bias packed into `B`. Each
/// [`I8Tile::multiply_transpose_b`] packs its `B` into panels of 64 (AVX2: 16) rows,
/// lane group by lane group, and runs 6×64 (4×16) register tiles that keep sixteen
/// (eight) rows of `B` per vector, so no output needs a horizontal reduction.
///
/// Integer sums have no rounding: every arm returns, for every output, exactly
/// [`Matrix::dot_i8`] of the two rows (`crates/nn/tests/kernel_props.rs`).
///
/// # Examples
/// ```
/// use sudowoodo_nn::matrix::I8Tile;
///
/// let queries: [i8; 4] = [1, -2, 3, 4]; // 2 x 2
/// let shard: [i8; 6] = [5, 6, -7, 8, 127, -128]; // 3 x 2
/// let mut tile = I8Tile::new(&queries, 2);
/// assert_eq!(tile.multiply_transpose_b(&shard), &[-7, -23, 383, 39, 11, -131]);
/// ```
#[derive(Clone, Debug)]
pub struct I8Tile {
    arm: Arm,
    m: usize,
    k: usize,
    /// `A` itself (scalar arm) or nothing.
    a: Vec<i8>,
    /// `A` regrouped for the vector arms: `k.div_ceil(group)` words per row.
    a_words: Vec<i32>,
    /// Initial accumulator value per row of `A`.
    a_init: Vec<i32>,
    packed: Vec<i8>,
    out: Vec<i32>,
}

impl I8Tile {
    /// Longest contraction accepted: a product of two codes is at most `(-128)² = 2¹⁴`,
    /// so `k ≤ 2¹⁷ − 1` keeps every true sum inside `i32`. The vector arms accumulate
    /// with wrapping 32-bit adds, which are exact modulo `2³²`, so no intermediate (the
    /// `+128` bias of the VNNI arm included) can perturb a result whose true value fits.
    pub const MAX_K: usize = (1 << 17) - 1;

    /// Prepares the row-major `a.len() / k x k` left operand for this thread's [`Arm`],
    /// which every product of the tile then runs on.
    ///
    /// # Panics
    /// Panics when `k` is zero or above [`I8Tile::MAX_K`], or does not divide `a.len()`.
    pub fn new(a: &[i8], k: usize) -> I8Tile {
        let arm = Arm::current();
        assert!(
            (1..=Self::MAX_K).contains(&k) && a.len().is_multiple_of(k),
            "I8Tile: {} codes are not rows of 1..={} codes (k = {k})",
            a.len(),
            Self::MAX_K
        );
        let m = a.len() / k;
        let mut tile = I8Tile {
            arm,
            m,
            k,
            a: Vec::new(),
            a_words: Vec::new(),
            a_init: vec![0; m],
            packed: Vec::new(),
            out: Vec::new(),
        };
        if arm == Arm::Scalar {
            tile.a = a.to_vec();
            return tile;
        }
        if arm == Arm::Avx512Vnni {
            for (init, row) in tile.a_init.iter_mut().zip(a.chunks_exact(k)) {
                *init = -128 * row.iter().map(|&x| x as i32).sum::<i32>();
            }
        }
        // One little-endian word per lane group: four code bytes, or two codes
        // sign-extended to `i16`; a short last group is zero-padded.
        let group = i8_group(arm);
        tile.a_words.reserve(m * k.div_ceil(group));
        for row in a.chunks_exact(k) {
            tile.a_words.extend(row.chunks(group).map(|codes| {
                let mut word = [0u8; 4];
                for (t, &code) in codes.iter().enumerate() {
                    let bytes = 4 / group;
                    word[bytes * t..bytes * (t + 1)]
                        .copy_from_slice(&(code as i16).to_le_bytes()[..bytes]);
                }
                i32::from_le_bytes(word)
            }));
        }
        tile
    }

    /// Rows of the prepared left operand — the height of every tile.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// `A * b^T` for the row-major `b.len() / k x k` codes `b`: the row-major
    /// `rows() x n` tile of exact `i32` dot products, valid until the next call (the
    /// buffer, like the packing scratch, is reused).
    ///
    /// # Panics
    /// Panics when `k` does not divide `b.len()`.
    pub fn multiply_transpose_b(&mut self, b: &[i8]) -> &[i32] {
        let (m, k) = (self.m, self.k);
        assert!(
            b.len().is_multiple_of(k),
            "I8Tile: {} codes are not rows of {k}",
            b.len()
        );
        let n = b.len() / k;
        self.out.resize(m * n, 0);
        match self.arm {
            Arm::Scalar => {
                for (a_row, out_row) in self.a.chunks_exact(k).zip(self.out.chunks_exact_mut(n)) {
                    for (b_row, out) in b.chunks_exact(k).zip(out_row) {
                        *out = a_row
                            .iter()
                            .zip(b_row)
                            .map(|(&x, &y)| x as i32 * y as i32)
                            .sum();
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.arm` came from `Arm::current` in `new`, so this CPU supports
            // it, and the micro-kernel is that arm's.
            Arm::Avx2 => unsafe { self.run_tiles::<2, 4, 16>(b, n, 0, kernels::i8_micro_avx2) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Arm::Avx512 => unsafe {
                self.run_tiles::<2, 6, 64>(b, n, 0, kernels::i8_micro_avx512bw)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; `vpdpbusd` takes the codes of `b` biased by `0x80`.
            Arm::Avx512Vnni => unsafe {
                self.run_tiles::<4, 6, 64>(b, n, 0x80, kernels::i8_micro_vnni)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the scalar arm is supported off x86-64"),
        }
        &self.out
    }

    /// Appends to `hits`, ascending, every position `j` of one tile row whose scaled
    /// value reaches a threshold: `scale * scales[j] * dots[j] as f64 >= threshold`,
    /// both products and the comparison in f64 in that order (a NaN never reaches
    /// anything). How a scan over approximate scores skips the rows that cannot
    /// matter: vectorised, and the same positions on every CPU.
    ///
    /// Only the first `min(dots.len(), scales.len())` entries are looked at.
    pub fn scaled_at_least(
        dots: &[i32],
        scales: &[f64],
        scale: f64,
        threshold: f64,
        hits: &mut Vec<usize>,
    ) {
        kernels::scaled_ge_indices(Arm::current(), dots, scales, scale, threshold, hits);
    }

    /// Packs the `n` rows of `b` into `W`-row panels of `G`-code lane groups (`G` being
    /// the group `new` prepared `A` in; each code XORed with `flip`) and runs `micro`
    /// over every `MR x W` register tile of the product. A tile that overhangs the `m x
    /// n` output repeats the last row of `A` and lands in a spare tile
    /// ([`tile_window`]).
    ///
    /// # Safety
    /// The CPU supports `micro`'s instructions.
    #[cfg(target_arch = "x86_64")]
    unsafe fn run_tiles<const G: usize, const MR: usize, const W: usize>(
        &mut self,
        b: &[i8],
        n: usize,
        flip: u8,
        micro: kernels::I8Micro<MR>,
    ) {
        debug_assert_eq!(G, i8_group(self.arm));
        let (m, kg) = (self.m, self.k.div_ceil(G));
        kernels::pack_i8_panels::<G>(b, n, self.k, W, flip, &mut self.packed);
        let mut edge = [[0i32; W]; MR];
        for (p, panel) in self.packed.chunks_exact(kg * W * G).enumerate() {
            for i in (0..m).step_by(MR) {
                let row_of = |r: usize| (i + r).min(m - 1);
                let a: [*const i32; MR] =
                    std::array::from_fn(|r| self.a_words[row_of(r) * kg..][..kg].as_ptr());
                let init: [i32; MR] = std::array::from_fn(|r| self.a_init[row_of(r)]);
                tile_window(&mut self.out, (m, n), (i, p * W), &mut edge, |dst, ldo| {
                    // SAFETY: the caller guarantees `micro`'s instructions; each `a[r]` is
                    // a `kg`-word row of `a_words`, `panel` holds `kg * W` lane groups,
                    // and `tile_window` hands out `W` writable words at each `r * ldo`,
                    // `r < MR`.
                    unsafe { micro(&a, &init, panel.as_ptr(), kg, dst, ldo) }
                });
            }
        }
    }
}

/// Codes of one row that share a 32-bit lane group of `arm`'s i8 tile: two
/// sign-extended to `i16` for `madd_epi16`, four bytes for `vpdpbusd`.
fn i8_group(arm: Arm) -> usize {
    match arm {
        Arm::Avx512Vnni => 4,
        _ => 2,
    }
}

/// A dense, row-major matrix of `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a closure invoked with `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a `1 x d` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows have different lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..=scale))
    }

    /// Creates a matrix with entries drawn from a normal distribution `N(0, std^2)`
    /// using the Box-Muller transform (avoids the `rand_distr` dependency).
    pub fn random_normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| {
            let u1: f32 = rng.gen_range(1e-7f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            z * std
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` out into a vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two matrices element-wise with `f`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place element-wise addition (used for gradient accumulation).
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place scaling: `self *= s` (no allocation).
    pub fn scale_mut(&mut self, s: f32) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }

    /// In-place scaled accumulation: `self += s * other` (no allocation).
    ///
    /// This is the gradient-accumulation primitive of the tape's backward pass.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        kernels::axpy1(Arm::current(), &mut self.data, s, &other.data);
    }

    /// In-place fused element-wise accumulation: `self += a ⊙ b` (no temporary).
    ///
    /// Used by the backward pass of element-wise products (e.g. cutoff masks), where the
    /// straightforward `hadamard` + `add_assign` would allocate a full matrix per op.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_hadamard(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(self.shape(), a.shape(), "add_hadamard: shape mismatch (a)");
        assert_eq!(self.shape(), b.shape(), "add_hadamard: shape mismatch (b)");
        for ((o, &x), &y) in self.data.iter_mut().zip(a.data.iter()).zip(b.data.iter()) {
            *o += x * y;
        }
    }

    /// Matrix product `self * other` on this thread's [`Arm`]: one register tile per arm
    /// behind one loop nest (see the module docs), parallel over row bands when
    /// [`fans_out`] says so. On the FMA arms every output is one fused multiply-add
    /// chain over `k`, ascending, from zero, so a row or column of the product has the
    /// same bits whichever product it is computed in. Every entry is multiplied, zeros
    /// included: `0 * inf` makes the output NaN.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_nn::matrix::Matrix;
    ///
    /// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let identity = Matrix::identity(2);
    /// assert_eq!(a.matmul(&identity), a);
    /// assert!(a.matmul(&a).approx_eq(&a.matmul_naive(&a), 1e-6));
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || k == 0 || n == 0 {
            return out;
        }
        let (a, b, c) = (&self.data, &other.data, &mut out.data);
        // SAFETY: each tile is the one of the arm it is matched on, and `Arm::current`
        // only returns arms this CPU supports.
        unsafe {
            match Arm::current() {
                #[cfg(target_arch = "x86_64")]
                Arm::Avx512 | Arm::Avx512Vnni => {
                    gemm::<8, 32>(kernels::gemm_tile_avx512::<8>, a, b, k, c)
                }
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2 => gemm::<4, 16>(kernels::gemm_tile_avx2::<4>, a, b, k, c),
                _ => gemm::<4, 16>(kernels::gemm_tile_scalar::<4, 16>, a, b, k, c),
            }
        }
        out
    }

    /// Reference matrix product: the original cache-aware triple loop, single-threaded and
    /// SIMD-free. Kept as the ground truth for the kernel-equivalence property tests and
    /// as the baseline of the speedup benches.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // Iterate k in the middle loop so that we stream through `other` row-by-row,
        // which is cache-friendly for row-major storage.
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Fused product `self * other^T` without materializing the transpose.
    ///
    /// Both operands are row-major with the contraction over their *columns*, so every
    /// output entry is a dot product of two contiguous rows — the natural layout for
    /// similarity matrices (`Z * Z^T`), cosine scoring against an embedding corpus, and
    /// the `A`-gradient of `matmul`. Parallel over output rows when [`fans_out`] says so.
    ///
    /// # Panics
    /// Panics when the column counts disagree.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_nn::matrix::Matrix;
    ///
    /// // Rows of `q` scored against rows of `corpus`: out[i][j] = q[i] · corpus[j].
    /// let q = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
    /// let corpus = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
    /// let sims = q.matmul_transpose_b(&corpus);
    /// assert_eq!(sims.row(0), &[1.0, 0.0]);
    /// ```
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        self.matmul_transpose_b_view(&other.view())
    }

    /// [`Matrix::matmul_transpose_b`] against a borrowed [`MatrixView`] — the same
    /// kernels (and bit-identical output) over storage this crate does not own, e.g.
    /// a memory-mapped shard payload.
    ///
    /// # Panics
    /// Panics when the column counts disagree.
    pub fn matmul_transpose_b_view(&self, other: &MatrixView<'_>) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows());
        self.view().matmul_transpose_b_into(other, &mut out.data);
        out
    }

    /// Reference `self * other^T`: the original row-at-a-time `dot_row` loop,
    /// single-threaded and untiled. Kept frozen as the ground truth the tiled kernel
    /// must match **bit for bit** (`crates/nn/tests/kernel_props.rs`) and as the
    /// baseline of the speedup report, like [`Matrix::matmul_naive`] for `matmul`.
    ///
    /// # Panics
    /// Panics when the column counts disagree.
    pub fn matmul_transpose_b_reference(&self, other: &MatrixView<'_>) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols(),
            "matmul_transpose_b: contraction mismatch"
        );
        let arm = Arm::current();
        let mut out = Matrix::zeros(self.rows, other.rows());
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.rows()..(i + 1) * other.rows()];
            Self::dot_row(arm, self.row(i), other, out_row);
        }
        out
    }

    /// This matrix as a borrowed [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.rows, self.cols, &self.data)
    }

    /// One output row of `matmul_transpose_b`: dots of `a_row` against all rows of `other`,
    /// four at a time. This is the order every tile of the kernel reproduces per element;
    /// it stays the path of single and leftover rows and the frozen reference.
    #[inline]
    fn dot_row(arm: Arm, a_row: &[f32], other: &MatrixView<'_>, out_row: &mut [f32]) {
        let n = other.rows();
        let mut j = 0;
        while j + 4 <= n {
            let d = kernels::dot4(
                arm,
                a_row,
                other.row(j),
                other.row(j + 1),
                other.row(j + 2),
                other.row(j + 3),
            );
            out_row[j..j + 4].copy_from_slice(&d);
            j += 4;
        }
        while j < n {
            out_row[j] = kernels::dot(arm, a_row, other.row(j));
            j += 1;
        }
    }

    /// Product `self^T * other`: the contraction runs over the *rows* of both operands
    /// (`self: k x m`, `other: k x n`, result `m x n`), which is the shape of every weight
    /// gradient (`A^T * dC`, tall-skinny: `k` is the batch's token count).
    ///
    /// It is a blocked [`Matrix::transpose`] feeding [`Matrix::matmul`], so it runs on the
    /// register-tiled GEMM kernel: copying the `k x m` operand once is a few percent of
    /// the product, where the rank-1 update loop this replaced re-read and re-wrote the
    /// whole `m x n` output `k` times (22 vs 100 GFLOP/s at `[1024 x 32]^T * [1024 x 96]`).
    ///
    /// Like `matmul` and `matmul_transpose_b` it multiplies every entry, zeros included
    /// (that loop skipped them): a zero row of `self` against a non-finite row of `other`
    /// yields NaN (`0 * inf`), not 0 — a padding row does not hide a diverged gradient.
    ///
    /// # Panics
    /// Panics when the row counts disagree.
    pub fn matmul_transpose_a(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a: contraction mismatch (({}x{})^T * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        self.transpose().matmul(other)
    }

    /// Transpose, copied in panels of sixteen source rows: every step writes one whole
    /// 64-byte line of a destination row while the sixteen read streams advance together,
    /// so neither side is touched one element per cache line as a plain row sweep does
    /// (7 vs 50 µs at `512 x 32`; allocation is the rest).
    pub fn transpose(&self) -> Matrix {
        const PANEL: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        let paneled = rows - rows % PANEL;
        for r0 in (0..paneled).step_by(PANEL) {
            let panel = &self.data[r0 * cols..(r0 + PANEL) * cols];
            for c in 0..cols {
                let dst = &mut out.data[c * rows + r0..][..PANEL];
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = panel[i * cols + c];
                }
            }
        }
        for r in paneled..rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c * rows + r] = v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Stacks matrices vertically (they must share the column count).
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack: empty input");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Stacks matrices horizontally (they must share the row count).
    pub fn hstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "hstack: empty input");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack: row mismatch");
                out.row_mut(r)[offset..offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Returns the sub-matrix consisting of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols: out of range");
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Returns the sub-matrix consisting of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows: out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows (with repetition allowed) into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows: index {} out of range", idx);
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Mean of every row, returned as an `n x 1` column vector.
    pub fn row_means(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            let s: f32 = self.row(r).iter().sum();
            out.set(r, 0, s / self.cols as f32);
        }
        out
    }

    /// Mean over rows, returned as a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        let n = self.rows.max(1) as f32;
        for v in out.data.iter_mut() {
            *v /= n;
        }
        out
    }

    /// Adds a `1 x d` row vector to every row in place.
    ///
    /// # Panics
    /// Panics when `bias` is not `1 x cols`.
    pub fn add_row_broadcast_mut(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "add_row_broadcast_mut: bias must be 1 x d");
        assert_eq!(
            self.cols, bias.cols,
            "add_row_broadcast_mut: width mismatch"
        );
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
    }

    /// Multiplies every row element-wise by a `1 x d` row vector in place.
    ///
    /// # Panics
    /// Panics when `gain` is not `1 x cols`.
    pub fn mul_row_broadcast_mut(&mut self, gain: &Matrix) {
        assert_eq!(gain.rows, 1, "mul_row_broadcast_mut: gain must be 1 x d");
        assert_eq!(
            self.cols, gain.cols,
            "mul_row_broadcast_mut: width mismatch"
        );
        for r in 0..self.rows {
            for (v, &g) in self.row_mut(r).iter_mut().zip(gain.data.iter()) {
                *v *= g;
            }
        }
    }

    /// Adds a `1 x d` row vector to every row, producing a new matrix.
    ///
    /// # Panics
    /// Panics when `bias` is not `1 x cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "add_row_broadcast: bias must be 1 x d");
        assert_eq!(self.cols, bias.cols, "add_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &b) in out.row_mut(r).iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
        out
    }

    /// Multiplies every row element-wise by a `1 x d` row vector, producing a new matrix.
    ///
    /// # Panics
    /// Panics when `gain` is not `1 x cols`.
    pub fn mul_row_broadcast(&self, gain: &Matrix) -> Matrix {
        assert_eq!(gain.rows, 1, "mul_row_broadcast: gain must be 1 x d");
        assert_eq!(self.cols, gain.cols, "mul_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &g) in out.row_mut(r).iter_mut().zip(gain.data.iter()) {
                *v *= g;
            }
        }
        out
    }

    /// Returns a copy with every row L2-normalized; rows with near-zero norm are left
    /// unchanged.
    ///
    /// # Examples
    /// ```
    /// use sudowoodo_nn::matrix::Matrix;
    ///
    /// let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]).l2_normalize_rows();
    /// assert_eq!(m.row(0), &[0.6, 0.8]);
    /// assert_eq!(m.row(1), &[0.0, 0.0]); // zero rows stay zero
    /// ```
    pub fn l2_normalize_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.l2_normalize_rows_mut();
        out
    }

    /// L2-normalizes every row in place (no allocation); rows with near-zero norm are
    /// left unchanged.
    pub fn l2_normalize_rows_mut(&mut self) {
        for r in 0..self.rows {
            let norm: f32 = self.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in self.row_mut(r) {
                    *v /= norm;
                }
            }
        }
    }

    /// Exact integer dot product of two equal-length i8 code vectors: the definition
    /// every arm of [`I8Tile`] is tested against. Integer sums have no rounding, so no
    /// summation order could give another result.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i64 {
        assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
        a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum()
    }

    /// Cosine similarity between two rows of (possibly different) matrices.
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "cosine: dimension mismatch");
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na <= 1e-12 || nb <= 1e-12 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }

    /// Checks element-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.col(2), vec![2.0, 5.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    fn identity_has_ones_on_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn matmul_matches_manual_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn fused_transpose_kernels_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::random_normal(7, 13, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 13, 1.0, &mut rng);
        let fused = a.matmul_transpose_b(&b);
        let explicit = a.matmul_naive(&b.transpose());
        assert!(fused.approx_eq(&explicit, 1e-4), "A*B^T mismatch");

        let c = Matrix::random_normal(13, 7, 1.0, &mut rng);
        let d = Matrix::random_normal(13, 5, 1.0, &mut rng);
        let fused = c.matmul_transpose_a(&d);
        let explicit = c.transpose().matmul_naive(&d);
        assert!(fused.approx_eq(&explicit, 1e-4), "A^T*B mismatch");
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::random_normal(4, 6, 1.0, &mut rng);
        let b = Matrix::random_normal(4, 6, 1.0, &mut rng);

        let mut scaled = a.clone();
        scaled.scale_mut(-2.5);
        assert!(scaled.approx_eq(&a.scale(-2.5), 1e-6));

        let mut acc = a.clone();
        acc.add_scaled(&b, 0.75);
        assert!(acc.approx_eq(&a.add(&b.scale(0.75)), 1e-6));

        let mut had = a.clone();
        had.add_hadamard(&a, &b);
        assert!(had.approx_eq(&a.add(&a.hadamard(&b)), 1e-6));
    }

    #[test]
    #[should_panic(expected = "matmul_transpose_b: contraction mismatch")]
    fn matmul_transpose_b_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.matmul_transpose_b(&b);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_uniform(3, 5, 1.0, &mut rng);
        let i = Matrix::identity(5);
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        // Empty, vector, off-panel and tall shapes: every element lands at (c, r), and
        // transposing back restores the matrix exactly.
        let mut rng = StdRng::seed_from_u64(2);
        for (rows, cols) in [(0, 5), (5, 0), (1, 9), (9, 1), (4, 7), (17, 33), (1024, 32)] {
            let a = Matrix::random_normal(rows, cols, 1.0, &mut rng);
            let t = a.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), a.get(r, c), "{rows}x{cols} at ({r},{c})");
                }
            }
            assert_eq!(t.transpose(), a, "{rows}x{cols} round trip");
        }
    }

    #[test]
    fn the_parallel_rule_is_monotone_in_every_dimension() {
        // More work never moves a product back below the threshold, and a single output
        // row never fans out.
        let sizes = [1usize, 2, 16, 255, 1024, 4096, 1 << 16];
        for &m in &sizes {
            for &k in &sizes {
                for &n in &sizes {
                    assert!(!fans_out(1, k, n));
                    if fans_out(m, k, n) {
                        assert!(m * k * n >= PAR_FLOPS);
                        for (m2, k2, n2) in [(m * 2, k, n), (m, k * 2, n), (m, k, n * 2)] {
                            assert!(fans_out(m2, k2, n2), "{m2}x{k2}x{n2}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.add(&b).data(), &[4.0, 2.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -6.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, -8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.mean_rows().data(), &[2.0, 3.0]);
        assert_eq!(a.row_means().data(), &[1.5, 3.5]);
    }

    #[test]
    fn stack_and_slice() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(h.slice_cols(1, 3).row(0), &[2.0, 3.0]);
        assert_eq!(v.slice_rows(1, 2).row(0), &[3.0, 4.0]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn l2_normalize_rows_produces_unit_rows() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        let n = a.l2_normalize_rows();
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        // zero row untouched
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_basic() {
        assert!((Matrix::cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(Matrix::cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((Matrix::cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn scaled_ge_arms_agree_with_the_scalar_definition() {
        let mut rng = StdRng::seed_from_u64(9);
        let dots: Vec<i32> = (0..70).map(|_| rng.gen_range(-40_000i32..40_000)).collect();
        let scales: Vec<f64> = (0..70).map(|_| rng.gen_range(0.0f64..0.01)).collect();
        let scale = 0.003f64;
        let approx: Vec<f64> = dots
            .iter()
            .zip(&scales)
            .map(|(&d, &s)| scale * s * d as f64)
            .collect();
        // Thresholds that tie an entry exactly, that nothing reaches, that everything
        // reaches, and NaN — from every start so each block and tail position is hit.
        let mut thresholds = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN, 0.0];
        thresholds.extend(approx.iter().copied());
        for &threshold in &thresholds {
            for start in 0..dots.len() {
                let (d, s) = (&dots[start..], &scales[start..]);
                let expected: Vec<usize> = (0..d.len())
                    .filter(|&j| approx[start + j] >= threshold)
                    .collect();
                let mut hits = Vec::new();
                kernels::scaled_ge_indices_scalar(d, s, scale, threshold, 0, &mut hits);
                assert_eq!(hits, expected, "scalar from {start} at {threshold}");
                for_each_supported_arm(|arm| {
                    let mut hits = vec![usize::MAX]; // appended to, not cleared
                    I8Tile::scaled_at_least(d, s, scale, threshold, &mut hits);
                    assert_eq!(hits[1..], expected, "{arm:?} from {start} at {threshold}");
                });
            }
        }
    }

    #[test]
    fn random_normal_has_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::random_normal(200, 200, 1.0, &mut rng);
        assert!(m.mean().abs() < 0.02);
        let var = m.data().iter().map(|x| x * x).sum::<f32>() / m.len() as f32;
        assert!((var - 1.0).abs() < 0.05);
    }
}
