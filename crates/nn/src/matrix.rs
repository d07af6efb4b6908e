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
//! * [`Matrix::matmul`] — one register-tile family (`8×32` AVX-512, `8×16` AVX-512 for
//!   products at most 16 columns wide, `4×16` AVX2, `4×16` scalar) behind one loop nest:
//!   row bands × column panels of `B`, packed from a size threshold up. Edge rows and
//!   columns run the same tile into a spare tile, so on every FMA arm each output is one
//!   fused multiply-add chain over `k`, ascending, from zero — the same bits whatever the
//!   arm, the tile width, the output's position or the thread split.
//!   [`Matrix::matmul_transpose_a`] (`Aᵀ·B`) is a blocked transpose feeding it.
//! * [`Matrix::matmul_transpose_b`] (`A·Bᵀ`: similarity matrices, cosine scoring, the
//!   `A`-gradient of `matmul`) is the same tile against `B` transposed into its panels
//!   ([`PackedTranspose`]), so it equals `a.matmul(&b.transpose())` bit for bit. A
//!   multiply-add commutes, so `(B·Aᵀ)ᵀ` has those bits too: the joins stream their
//!   corpus through [`PackedTranspose::multiply_into`] as the tile's `A` operand, read in
//!   place, against the query tile packed once, and the quantized rescore passes listed
//!   rows ([`PackedTranspose::multiply_rows_into`]).
//! * [`I8Tile`] — the first stage of the quantized index scan, turned round like the
//!   joins: a query tile's i8 codes packed once as `B` panels, a shard's codes streamed
//!   through in place as `A`, and the survivor test in the tile's epilogue. `6×64`
//!   AVX-512 VNNI `vpdpbusd` / AVX-512 `madd_epi16`, `4×16` AVX2, scalar — integer-exact,
//!   so every arm scores a pair with [`Matrix::dot_i8`] and keeps the same pairs.
//! * Attention's products — scores, context and their four backward products in
//!   [`crate::tape`] — are the same tile, one product per `(sequence, head)`: `A` is read
//!   as rows of the head's column slice and `B` packed from the strided head slice
//!   (`PackedTranspose::from_fn`), so each block has the bits of `matmul` of the sliced
//!   operands.
//!
//! Beyond the two tile families there are only element-wise maps: the GELU and softmax
//! maps of [`crate::tape`] on the same arm, and plain loops for gradient accumulation
//! ([`Matrix::add_scaled`]) and the optimizer.
//!
//! `matmul_naive` and `dot_i8` are the frozen references the tests compare against. New
//! work slots in as a tile in `kernels` and one more `match` arm on [`Arm`]; a new
//! product reuses the band split, the edge handling and the packed operands.

use std::cell::Cell;

use rand::Rng;
use rayon::prelude::*;

/// Multiply-adds (`m * k * n`) from which the GEMM loop nest of every f32 product splits
/// its output rows across threads — the one "go parallel?" rule, see [`fans_out`].
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
/// splitting across threads from `PAR_FLOPS` up, a single row never. The GEMM loop nest
/// asks it through [`for_each_band`], whose bands compute every output in the same order
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
/// inline. The band split of every f32 product.
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

mod kernels {
    //! Register tiles and SIMD microkernels, one per [`Arm`].
    //!
    //! Each `unsafe` function states its preconditions in a `# Safety` section; its callers hold
    //! an arm this CPU supports ([`Arm::current`] never returns another) and the slice
    //! lengths it relies on.

    #[cfg(doc)]
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

    /// [`GemmTile`] of [`Arm::Avx512`]: `MR x 16·NV`, `NV` `zmm` accumulators per row — at
    /// `MR = 8, NV = 2` sixteen of them, which halves the re-streaming of `B` against four
    /// rows; `NV = 1` serves products at most 16 columns wide without computing a
    /// discarded half.
    ///
    /// # Safety
    /// See [`GemmTile`]; needs AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512<const MR: usize, const NV: usize>(
        a: &[*const f32; MR],
        k: usize,
        b: *const f32,
        ldb: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); NV]; MR];
        for kk in 0..k {
            let brow = b.add(kk * ldb);
            let mut bv = [_mm512_setzero_ps(); NV];
            for (c, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(brow.add(16 * c));
            }
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
    /// `w`-column panels in `packed` (its old contents and length discarded), the last
    /// one zero-padded: panel `p` holds columns `from + p*w ..` as `k` consecutive groups
    /// of `w` floats.
    pub fn pack_b_panels(
        b: &[f32],
        (k, n): (usize, usize),
        (from, w): (usize, usize),
        packed: &mut Vec<f32>,
    ) {
        debug_assert_eq!(b.len(), k * n);
        packed.clear();
        packed.resize((n - from).div_ceil(w) * w * k, 0.0);
        for (p, panel) in packed.chunks_exact_mut(k * w).enumerate() {
            let j = from + p * w;
            let cols = w.min(n - j);
            for (kk, dst) in panel.chunks_exact_mut(w).enumerate() {
                dst[..cols].copy_from_slice(&b[kk * n + j..][..cols]);
            }
        }
    }

    /// One `MR x W` register tile of an i8 arm (6×64 AVX-512, 4×16 AVX2) and its survivor
    /// pre-test. Row `r` of the tile is row `r` of `A` (`a[r]`, `kg` lane-group words)
    /// against the `W` queries of `panel` (lane group `g` of query `c` at word
    /// `g * W + c`): `dots[r][c] = init[r] + Σ_g a[r][g] ⊙ panel[g][c]`, `⊙` being the
    /// arm's lane-group dot product, and bit `c` of the returned `masks[r]` is set
    /// exactly when `dots[r][c] as f32 * s[r] >= bounds[c]` in f32 (a NaN never passes).
    ///
    /// # Safety
    /// The CPU supports the arm's instructions; every `a[r]` is readable (unaligned) for
    /// `kg` words, `panel` for `kg * W` words, and `bounds` for `W` floats.
    #[cfg(target_arch = "x86_64")]
    pub type I8Micro<const MR: usize, const W: usize> = unsafe fn(
        a: &[*const i32; MR],
        init: &[i32; MR],
        kg: usize,
        panel: *const i32,
        s: &[f32; MR],
        bounds: *const f32,
        dots: &mut [[i32; W]; MR],
    ) -> [u64; MR];

    /// [`I8Micro`] of [`Arm::Avx512Vnni`]: `panel` holds the queries' codes biased by
    /// `+128` (the unsigned operand of `vpdpbusd`), `a` four signed codes per word, and
    /// `init[r]` is `-128 · Σ a[r]`, which cancels the bias.
    ///
    /// # Safety
    /// See [`I8Micro`]; needs AVX-512F, BW and VNNI.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    pub unsafe fn i8_micro_vnni(
        a: &[*const i32; 6],
        init: &[i32; 6],
        kg: usize,
        panel: *const i32,
        s: &[f32; 6],
        bounds: *const f32,
        dots: &mut [[i32; 64]; 6],
    ) -> [u64; 6] {
        let mut acc = [[_mm512_setzero_si512(); 4]; 6];
        for (row, &init) in acc.iter_mut().zip(init) {
            *row = [_mm512_set1_epi32(init); 4];
        }
        for g in 0..kg {
            let p = panel.add(g * 64) as *const __m512i;
            let b = [
                _mm512_loadu_si512(p),
                _mm512_loadu_si512(p.add(1)),
                _mm512_loadu_si512(p.add(2)),
                _mm512_loadu_si512(p.add(3)),
            ];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let quad = _mm512_set1_epi32(ar.add(g).read_unaligned());
                for (sum, &bc) in row.iter_mut().zip(&b) {
                    *sum = _mm512_dpbusd_epi32(*sum, bc, quad);
                }
            }
        }
        survivors_avx512(&acc, s, bounds, dots)
    }

    /// [`I8Micro`] of [`Arm::Avx512`]: `panel` and `a` hold pairs of codes sign-extended
    /// to `i16`.
    ///
    /// # Safety
    /// See [`I8Micro`]; needs AVX-512F and BW.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub unsafe fn i8_micro_avx512bw(
        a: &[*const i32; 6],
        init: &[i32; 6],
        kg: usize,
        panel: *const i32,
        s: &[f32; 6],
        bounds: *const f32,
        dots: &mut [[i32; 64]; 6],
    ) -> [u64; 6] {
        let mut acc = [[_mm512_setzero_si512(); 4]; 6];
        for (row, &init) in acc.iter_mut().zip(init) {
            *row = [_mm512_set1_epi32(init); 4];
        }
        for g in 0..kg {
            let p = panel.add(g * 64) as *const __m512i;
            let b = [
                _mm512_loadu_si512(p),
                _mm512_loadu_si512(p.add(1)),
                _mm512_loadu_si512(p.add(2)),
                _mm512_loadu_si512(p.add(3)),
            ];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let pair = _mm512_set1_epi32(ar.add(g).read_unaligned());
                for (sum, &bc) in row.iter_mut().zip(&b) {
                    *sum = _mm512_add_epi32(*sum, _mm512_madd_epi16(pair, bc));
                }
            }
        }
        survivors_avx512(&acc, s, bounds, dots)
    }

    /// The survivor pre-test of the 6×64 AVX-512 tiles ([`I8Micro`]): stores each
    /// accumulator row to `dots` and returns its mask, sixteen lanes at a time.
    ///
    /// # Safety
    /// The CPU supports AVX-512F; `bounds` is readable for 64 floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn survivors_avx512(
        acc: &[[__m512i; 4]; 6],
        s: &[f32; 6],
        bounds: *const f32,
        dots: &mut [[i32; 64]; 6],
    ) -> [u64; 6] {
        let mut masks = [0u64; 6];
        for (r, row) in acc.iter().enumerate() {
            let sr = _mm512_set1_ps(s[r]);
            for (c, &sum) in row.iter().enumerate() {
                _mm512_storeu_si512(dots[r][16 * c..].as_mut_ptr().cast(), sum);
                let approx = _mm512_mul_ps(_mm512_cvtepi32_ps(sum), sr);
                let bound = _mm512_loadu_ps(bounds.add(16 * c));
                let pass = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(approx, bound);
                masks[r] |= (pass as u64) << (16 * c);
            }
        }
        masks
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
        kg: usize,
        panel: *const i32,
        s: &[f32; 4],
        bounds: *const f32,
        dots: &mut [[i32; 16]; 4],
    ) -> [u64; 4] {
        let mut acc = [[_mm256_setzero_si256(); 2]; 4];
        for (row, &init) in acc.iter_mut().zip(init) {
            *row = [_mm256_set1_epi32(init); 2];
        }
        for g in 0..kg {
            let p = panel.add(g * 16) as *const __m256i;
            let b = [_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1))];
            for (row, &ar) in acc.iter_mut().zip(a) {
                let pair = _mm256_set1_epi32(ar.add(g).read_unaligned());
                for (sum, &bc) in row.iter_mut().zip(&b) {
                    *sum = _mm256_add_epi32(*sum, _mm256_madd_epi16(pair, bc));
                }
            }
        }
        let mut masks = [0u64; 4];
        for (r, row) in acc.iter().enumerate() {
            let sr = _mm256_set1_ps(s[r]);
            for (c, &sum) in row.iter().enumerate() {
                _mm256_storeu_si256(dots[r][8 * c..].as_mut_ptr().cast(), sum);
                let approx = _mm256_mul_ps(_mm256_cvtepi32_ps(sum), sr);
                let bound = _mm256_loadu_ps(bounds.add(8 * c));
                let pass = _mm256_cmp_ps::<_CMP_GE_OQ>(approx, bound);
                masks[r] |= (_mm256_movemask_ps(pass) as u64) << (8 * c);
            }
        }
        masks
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
}

/// The right operand of `A * B^T`: `B` transposed once into the column panels of
/// [`Matrix::matmul`]'s register tile, on this thread's [`Arm`]. A join packs its query
/// tile once and scores every corpus strip, shard and survivor list against it, the
/// corpus read in place as the tile's `A` operand.
///
/// Every product is `matmul`'s tile, so each output is one multiply-add chain over `k`
/// ascending from zero: entry `(i, j)` has the bits of `a.matmul(&b.transpose())`
/// whichever rows `a` brings, in whatever order and number, and however many rows `B`
/// has. A multiply-add commutes, so the corpus-major `C * Q^T` of a join holds, entry for
/// entry, the bits of `Q * C^T`.
///
/// # Examples
/// ```
/// use sudowoodo_nn::matrix::{Matrix, MatrixView, PackedTranspose};
///
/// let queries = Matrix::from_vec(2, 2, vec![1.0, 0.0, 3.0, 4.0]);
/// let corpus = [0.0f32, 1.0, 1.0, 0.0, 3.0, 4.0]; // 3 x 2, read in place
/// let packed = PackedTranspose::new(&queries.view());
/// let mut scores = vec![0.0; 3 * 2]; // one row per corpus row, one column per query
/// packed.multiply_into(&MatrixView::new(3, 2, &corpus), &mut scores);
/// assert_eq!(scores, [0.0, 4.0, 1.0, 3.0, 3.0, 25.0]);
/// ```
#[derive(Clone, Debug)]
pub struct PackedTranspose {
    arm: Arm,
    /// The `(MR, W)` tile every product runs ([`tile_shape`]).
    shape: (usize, usize),
    n: usize,
    k: usize,
    /// `B^T` in `W`-column panels, the last one zero-padded.
    panels: Vec<f32>,
}

impl PackedTranspose {
    /// Packs the transpose of the row-major `b` for the arm this thread dispatches to,
    /// which every product of the operand then runs on.
    pub fn new(b: &MatrixView<'_>) -> PackedTranspose {
        PackedTranspose::from_fn(b.rows, b.cols, |j, kk| b.data[j * b.cols + kk])
    }

    /// [`Self::new`] of the `n x k` matrix whose entry `(j, kk)` is `b(j, kk)`, read
    /// straight into the panels: an operand no row-major buffer holds, such as one
    /// attention head's columns of a packed row block, pre-scaled or transposed.
    pub(crate) fn from_fn(n: usize, k: usize, b: impl Fn(usize, usize) -> f32) -> PackedTranspose {
        let arm = Arm::current();
        let shape = tile_shape(arm, n);
        let w = shape.1;
        // Row `j` of `B` becomes column `j % w` of panel `j / w`.
        let mut panels = vec![0.0; n.div_ceil(w) * w * k];
        for j in 0..n {
            let panel = &mut panels[(j - j % w) * k..];
            for kk in 0..k {
                panel[kk * w + j % w] = b(j, kk);
            }
        }
        PackedTranspose {
            arm,
            shape,
            n,
            k,
            panels,
        }
    }

    /// Rows of `B`: the columns of every product.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Columns of `B`: the contraction length.
    pub fn cols(&self) -> usize {
        self.k
    }

    /// `out = a * B^T`, row-major `a.rows() x self.rows()`, every element overwritten;
    /// parallel over row bands when [`fans_out`] says so.
    ///
    /// # Panics
    /// Panics when `a` is not `cols()` wide or `out` has the wrong length.
    pub fn multiply_into(&self, a: &MatrixView<'_>, out: &mut [f32]) {
        self.check_width(a);
        self.multiply_with(a.rows, |i| a.row(i), out);
    }

    /// `out = a[rows] * B^T`: row `i` of the row-major `rows.len() x self.rows()` output
    /// scores row `rows[i]` of `a`, read in place. Rows may be listed in any order and
    /// more than once; each output has the bits the whole product gives it.
    ///
    /// # Panics
    /// As [`Self::multiply_into`], and when a listed row is out of range.
    pub fn multiply_rows_into(&self, a: &MatrixView<'_>, rows: &[usize], out: &mut [f32]) {
        self.check_width(a);
        if let Some(&bad) = rows.iter().find(|&&r| r >= a.rows) {
            panic!("multiply_rows_into: row {bad} of a {}-row view", a.rows);
        }
        self.multiply_with(rows.len(), |i| a.row(rows[i]), out);
    }

    fn check_width(&self, a: &MatrixView<'_>) {
        assert_eq!(
            a.cols, self.k,
            "matmul_transpose_b: contraction mismatch ({}x{} * ({}x{})^T)",
            a.rows, a.cols, self.n, self.k
        );
    }

    /// `out = A * B^T` for the `m` rows `a_row(i)` of `A`, each at least `cols()` long
    /// (the first `cols()` floats are read): the entry for an `A` no [`MatrixView`]
    /// describes. Every element of the row-major `m x rows()` `out` is overwritten.
    ///
    /// # Panics
    /// Panics when `out` is not `m * rows()` long or a row is shorter than `cols()`.
    pub(crate) fn multiply_with<'a>(
        &self,
        m: usize,
        a_row: impl Fn(usize) -> &'a [f32] + Sync,
        out: &mut [f32],
    ) {
        assert_eq!(
            out.len(),
            m * self.n,
            "matmul_transpose_b: output is not {m}x{}",
            self.n
        );
        if m == 0 || self.n == 0 {
            return;
        }
        if self.k == 0 {
            out.fill(0.0);
            return;
        }
        let (k, w) = (self.k, self.shape.1);
        // SAFETY: the panel of columns `j..j + w` is the `k * w` floats of `panels` from
        // `j * k` on (`gemm` asserts the length of every row of `A`).
        unsafe {
            gemm_on(
                self.arm,
                self.shape,
                (k, self.n),
                a_row,
                |j| (self.panels[j * k..].as_ptr(), w),
                out,
            )
        }
    }
}

/// The `(MR, W)` register tile `arm` runs for a product `n` columns wide: `8 x 32` on the
/// AVX-512 arms, `8 x 16` there when `n <= 16` (a 16-query batch computes no discarded
/// half), `4 x 16` on the others. Every shape computes each output the same way, so the
/// choice moves no bit.
fn tile_shape(arm: Arm, n: usize) -> (usize, usize) {
    match arm {
        Arm::Avx512 | Arm::Avx512Vnni if n > 16 => (8, 32),
        Arm::Avx512 | Arm::Avx512Vnni => (8, 16),
        Arm::Avx2 | Arm::Scalar => (4, 16),
    }
}

/// [`gemm`] on `arm`'s tile of `shape` (from [`tile_shape`]).
///
/// # Safety
/// As [`gemm`] with `W = shape.1`; the arm's instructions are asserted here.
unsafe fn gemm_on<'a>(
    arm: Arm,
    shape: (usize, usize),
    dims: (usize, usize),
    a_row: impl Fn(usize) -> &'a [f32] + Sync,
    panel: impl Fn(usize) -> (*const f32, usize) + Sync,
    out: &mut [f32],
) {
    assert!(arm <= Arm::detected());
    match (arm, shape) {
        #[cfg(target_arch = "x86_64")]
        (Arm::Avx512 | Arm::Avx512Vnni, (8, 32)) => {
            gemm::<8, 32>(kernels::gemm_tile_avx512::<8, 2>, dims, a_row, panel, out)
        }
        #[cfg(target_arch = "x86_64")]
        (Arm::Avx512 | Arm::Avx512Vnni, (8, 16)) => {
            gemm::<8, 16>(kernels::gemm_tile_avx512::<8, 1>, dims, a_row, panel, out)
        }
        #[cfg(target_arch = "x86_64")]
        (Arm::Avx2, (4, 16)) => {
            gemm::<4, 16>(kernels::gemm_tile_avx2::<4>, dims, a_row, panel, out)
        }
        (Arm::Scalar, (4, 16)) => {
            gemm::<4, 16>(kernels::gemm_tile_scalar::<4, 16>, dims, a_row, panel, out)
        }
        _ => unreachable!("no {shape:?} tile on the {arm:?} arm"),
    }
}

/// The one GEMM loop nest: `out = A * B` for the `out.len() / n` rows `a_row(i)` of `A`
/// and the `k x n` `B`, through `tile` in row bands of whole `MR`-row tiles
/// ([`for_each_band`]) and `W`-column panels of `B`: the panel of columns `j..j + W`
/// starts at `panel(j).0` and advances `panel(j).1` floats per row of `B`. Rows and
/// columns past the edge run on a spare tile ([`tile_window`]), so every output is
/// computed by the same tile in the same order, wherever it sits.
///
/// # Safety
/// The CPU supports `tile`'s instructions, and every `panel(j)`, `j` a multiple of `W`
/// below `n`, is readable for `W` floats at each offset `kk * panel(j).1`, `kk < k`.
///
/// # Panics
/// Panics when an `a_row(i)`, `i < m`, is shorter than `k`.
unsafe fn gemm<'a, const MR: usize, const W: usize>(
    tile: kernels::GemmTile<MR>,
    (k, n): (usize, usize),
    a_row: impl Fn(usize) -> &'a [f32] + Sync,
    panel: impl Fn(usize) -> (*const f32, usize) + Sync,
    out: &mut [f32],
) {
    let m = out.len() / n;
    for_each_band((m, k, n), MR, out, |rows, band| {
        let mut edge = [[0.0f32; W]; MR];
        for i in (0..rows.len()).step_by(MR) {
            let a_rows: [*const f32; MR] = std::array::from_fn(|r| {
                let row = a_row(rows.start + (i + r).min(rows.len() - 1));
                assert!(row.len() >= k, "a row of A is shorter than k = {k}");
                row.as_ptr()
            });
            for j in (0..n).step_by(W) {
                let (b, ldb) = panel(j);
                tile_window(band, (rows.len(), n), (i, j), &mut edge, |dst, ldo| {
                    // SAFETY: the caller guarantees `tile`'s instructions and `W` floats
                    // behind each `b + kk * ldb`; `k` floats are behind each `a_rows[r]`
                    // (asserted above); and `tile_window` hands out `W` writable floats
                    // at each `r * ldo`, `r < MR`.
                    unsafe { tile(&a_rows, k, b, ldb, dst, ldo) }
                });
            }
        }
    });
}

/// The first stage of the quantized index scan: a query tile's i8 codes packed once, and
/// every shard row scored against them and tested in the same register tile.
///
/// The queries are `B`, packed by [`I8Tile::new`] into panels of 64 (AVX2: 16) queries,
/// lane group by lane group, for the arm it dispatches to: four codes biased by `+128`
/// per 32-bit word for AVX-512 VNNI `vpdpbusd` (whose first operand is unsigned), two
/// codes sign-extended to `i16` for AVX-512 or AVX2 `madd_epi16`, the plain codes for
/// the scalar arm. [`I8Tile::scan`] streams a shard's codes through the tile as its `A`
/// operand, corpus-major: on the VNNI arm the rows are read in place, four codes per
/// broadcast, each row's accumulators starting at `−128·Σc` to cancel the bias; the
/// `madd` arms widen each 6-row (AVX2: 4-row) band into a scratch first. A tile's
/// output row is one shard row against 64 (16) queries, and its epilogue is the
/// survivor test, so only set bits leave the registers.
///
/// The test is the rule `t·s·dot ≥ T` — query scale `t`, row scale `s`, threshold `T`,
/// both products and the comparison in f64, in that order — in two steps. The epilogue
/// compares `dot·s` in f32 against a per-query bound a little below `T / t`, which
/// every pair the rule keeps reaches: f32 rounding moves the product by at most 2⁻²³
/// relative, and the bound leaves 2⁻²⁰ (a query whose `t` is not positive or whose
/// `T / t` is out of f32's comfortable range gets `−∞`). The few pairs that pass are
/// decided by the f64 rule itself, from the tile's dot.
///
/// Integer sums have no rounding: every arm scores every pair with exactly
/// [`Matrix::dot_i8`] of the two rows, and every arm keeps exactly the pairs the f64
/// rule keeps, with its approximate scores (`crates/nn/tests/kernel_props.rs`).
///
/// # Examples
/// ```
/// use sudowoodo_nn::matrix::I8Tile;
///
/// let queries: [i8; 4] = [1, -2, 3, 4]; // 2 x 2
/// let shard: [i8; 6] = [5, 6, -7, 8, 127, -128]; // 3 x 2, read in place
/// let mut tile = I8Tile::new(&queries, 2, &[1.0, 1.0]);
/// let mut kept = Vec::new();
/// // Query 0 keeps everything, query 1 what reaches 0.
/// tile.scan(&shard, &[1.0, 0.5, 2.0], &[f64::NEG_INFINITY, 0.0], |row, query, approx| {
///     kept.push((row, query, approx))
/// });
/// kept.sort_by_key(|&(row, query, _)| (row, query));
/// assert_eq!(
///     kept,
///     [(0, 0, -7.0), (0, 1, 39.0), (1, 0, -11.5), (1, 1, 5.5), (2, 0, 766.0)]
/// );
/// ```
#[derive(Clone, Debug)]
pub struct I8Tile {
    arm: Arm,
    n: usize,
    k: usize,
    /// The queries' codes, row-major, on the scalar arm; their panels on the others:
    /// query `l` of panel `p` has lane group `g` at word `(p * kg + g) * W + l`.
    codes: Vec<i8>,
    panels: Vec<i32>,
    /// Per query: its scale, widened.
    scales: Vec<f64>,
    /// Per query, padded to whole panels with NaN, which nothing reaches: the f32 bound
    /// of the current scan's pre-test ([`pretest_bound`]).
    bounds: Vec<f32>,
    /// Lane-group words of the `A` band when it is not read in place.
    band: Vec<i32>,
}

impl I8Tile {
    /// Longest contraction accepted: a product of two codes is at most `(-128)² = 2¹⁴`,
    /// so `k ≤ 2¹⁷ − 1` keeps every true sum inside `i32`. The vector arms accumulate
    /// with wrapping 32-bit adds, which are exact modulo `2³²`, so no intermediate (the
    /// `+128` bias of the VNNI arm included) can perturb a result whose true value fits.
    pub const MAX_K: usize = (1 << 17) - 1;

    /// Packs the row-major `scales.len() x k` query codes `b`, and their scales, for this
    /// thread's [`Arm`], which every scan of the tile then runs on.
    ///
    /// # Panics
    /// Panics when `k` is zero or above [`I8Tile::MAX_K`], or `b` is not `scales.len()`
    /// rows of `k` codes.
    pub fn new(b: &[i8], k: usize, scales: &[f32]) -> I8Tile {
        let arm = Arm::current();
        let n = scales.len();
        assert!(
            (1..=Self::MAX_K).contains(&k) && b.len() == n * k,
            "I8Tile: {} codes are not {n} rows of 1..={} codes (k = {k})",
            b.len(),
            Self::MAX_K
        );
        let (group, w) = (i8_group(arm), i8_tile_shape(arm).1);
        let padded = n.next_multiple_of(w);
        let mut tile = I8Tile {
            arm,
            n,
            k,
            codes: Vec::new(),
            panels: Vec::new(),
            scales: scales.iter().map(|&t| t as f64).collect(),
            bounds: vec![f32::NAN; padded],
            band: Vec::new(),
        };
        if arm == Arm::Scalar {
            tile.codes = b.to_vec();
            return tile;
        }
        let (kg, bias) = (k.div_ceil(group), if group == 4 { 0x80 } else { 0 });
        tile.panels = vec![0; padded * kg];
        for (j, row) in b.chunks_exact(k).enumerate() {
            let panel = &mut tile.panels[(j - j % w) * kg..];
            for (g, codes) in row.chunks(group).enumerate() {
                panel[g * w + j % w] = lane_word(codes, group, bias);
            }
        }
        tile
    }

    /// Queries in the tile — the width of every product.
    pub fn queries(&self) -> usize {
        self.n
    }

    /// Scores every row of the row-major `row_scales.len() x k` codes `a`, read in
    /// place, against every query, and calls `hit(row, query, approx)` for each pair
    /// whose approximate score `approx = scale[query] * row_scales[row] * dot` reaches
    /// `thresholds[query]`: `dot` is the exact integer dot of the two code rows, and
    /// both products and the comparison run in f64, in that order (a NaN reaches
    /// nothing, and nothing reaches a NaN threshold). Pairs come in no set order.
    ///
    /// # Panics
    /// Panics when `a` is not `row_scales.len()` rows of `k` codes or `thresholds` does
    /// not hold one threshold per query.
    pub fn scan(
        &mut self,
        a: &[i8],
        row_scales: &[f32],
        thresholds: &[f64],
        mut hit: impl FnMut(usize, usize, f64),
    ) {
        let (k, n, m) = (self.k, self.n, row_scales.len());
        assert!(
            a.len() == m * k && thresholds.len() == n,
            "I8Tile::scan: {} codes are not {m} rows of {k}, or {} thresholds are not {n}",
            a.len(),
            thresholds.len()
        );
        if self.arm != Arm::Scalar {
            let queries = self.scales.iter().zip(thresholds);
            for (bound, (&t, &threshold)) in self.bounds.iter_mut().zip(queries) {
                *bound = pretest_bound(t, threshold);
            }
        }
        let mut band = std::mem::take(&mut self.band);
        let mut keep = |row: usize, q: usize, s: f32, dot: i32| {
            let approx = self.scales[q] * s as f64 * dot as f64;
            if approx >= thresholds[q] {
                hit(row, q, approx);
            }
        };
        match self.arm {
            Arm::Scalar => {
                for (r, (row, &s)) in a.chunks_exact(k).zip(row_scales).enumerate() {
                    for (q, query) in self.codes.chunks_exact(k).enumerate() {
                        let dot = row.iter().zip(query).map(|(&x, &y)| x as i32 * y as i32);
                        keep(r, q, s, dot.sum());
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.arm` came from `Arm::current` in `new`, so this CPU supports
            // it, and the micro-kernel is that arm's.
            Arm::Avx2 => unsafe {
                self.run_tiles::<4, 16>(kernels::i8_micro_avx2, a, row_scales, &mut band, &mut keep)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Arm::Avx512 => unsafe {
                self.run_tiles::<6, 64>(
                    kernels::i8_micro_avx512bw,
                    a,
                    row_scales,
                    &mut band,
                    &mut keep,
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Arm::Avx512Vnni => unsafe {
                self.run_tiles::<6, 64>(kernels::i8_micro_vnni, a, row_scales, &mut band, &mut keep)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the scalar arm is supported off x86-64"),
        }
        self.band = band;
    }

    /// Runs `micro` over the `MR`-row bands of `a`, each against every `W`-query panel,
    /// and hands each pair that passes the pre-test to `keep(row, query, row scale,
    /// dot)`. The last band repeats the last row of `a` in its spare rows, whose bits
    /// are dropped.
    ///
    /// # Safety
    /// The CPU supports `micro`'s instructions.
    #[cfg(target_arch = "x86_64")]
    unsafe fn run_tiles<const MR: usize, const W: usize>(
        &self,
        micro: kernels::I8Micro<MR, W>,
        a: &[i8],
        row_scales: &[f32],
        band: &mut Vec<i32>,
        keep: &mut impl FnMut(usize, usize, f32, i32),
    ) {
        let (k, m, group) = (self.k, row_scales.len(), i8_group(self.arm));
        let kg = k.div_ceil(group);
        // `vpdpbusd` words are four codes as stored: whole ones are read in place.
        let in_place = group == 4 && k % 4 == 0;
        let mut dots = [[0i32; W]; MR];
        for i in (0..m).step_by(MR) {
            let rows = MR.min(m - i);
            let row = |r: usize| &a[(i + r.min(rows - 1)) * k..][..k];
            if !in_place {
                band.clear();
                for r in 0..MR {
                    push_words(row(r), group, band);
                }
            }
            let words: [*const i32; MR] = std::array::from_fn(|r| match in_place {
                true => row(r).as_ptr().cast(),
                false => band[r * kg..].as_ptr(),
            });
            // `vpdpbusd` meets the queries' `+128` bias: each row starts at `-128 · Σc`.
            let init: [i32; MR] = std::array::from_fn(|r| match group {
                4 => -128 * row(r).iter().map(|&c| c as i32).sum::<i32>(),
                _ => 0,
            });
            let s: [f32; MR] = std::array::from_fn(|r| row_scales[i + r.min(rows - 1)]);
            for (p, panel) in self.panels.chunks_exact(kg * W).enumerate() {
                let bounds = self.bounds[p * W..].as_ptr();
                // SAFETY: the caller guarantees `micro`'s instructions; each `words[r]` is
                // a row of `k` codes read in place (`k` a multiple of four) or `kg` words
                // of the band scratch; `panel` is `kg * W` words, and `bounds` is padded
                // to whole panels.
                let masks =
                    unsafe { micro(&words, &init, kg, panel.as_ptr(), &s, bounds, &mut dots) };
                for (r, (mut mask, dots)) in masks.into_iter().zip(&dots).enumerate().take(rows) {
                    while mask != 0 {
                        let c = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        keep(i + r, p * W + c, s[r], dots[c]);
                    }
                }
            }
        }
    }
}

/// The f32 bound that a query of scale `t` and threshold `threshold` sets in the tile's
/// pre-test ([`I8Tile`]). When `t > 0`, a pair the f64 rule keeps has a real `s·dot` no
/// lower than `u = threshold / t` less 2⁻⁵⁰ of `|u|` (three f64 roundings). While
/// `|u| ≥ 2⁻¹⁰⁰`, the tile's f32 `dot·s` is a normal number within 2⁻²³ of the real
/// product, or too large or too small in magnitude to fall below a bound that far from
/// zero. So `u − |u|·2⁻²⁰`, rounded down, is reached by every kept pair. Any other query
/// gets `−∞`: every product but NaN reaches it, and a NaN product means a NaN
/// approximate score, which the rule drops too.
fn pretest_bound(t: f64, threshold: f64) -> f32 {
    let u = threshold / t;
    if t > 0.0 && (2f64.powi(-100)..f32::MAX as f64 / 2.0).contains(&u.abs()) {
        ((u - u.abs() * 2f64.powi(-20)) as f32).next_down()
    } else {
        f32::NEG_INFINITY
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

/// The `(MR, W)` register tile of `arm`'s i8 kernel: shard rows by queries.
fn i8_tile_shape(arm: Arm) -> (usize, usize) {
    match arm {
        Arm::Avx512 | Arm::Avx512Vnni => (6, 64),
        Arm::Avx2 => (4, 16),
        Arm::Scalar => (1, 1),
    }
}

/// Appends the lane-group words of the row `codes` (see [`lane_word`], unbiased) to
/// `out`: whole groups in a loop the compiler vectorises, then the short last one.
fn push_words(codes: &[i8], group: usize, out: &mut Vec<i32>) {
    let full = codes.len() - codes.len() % group;
    if group == 4 {
        let quads = codes[..full].chunks_exact(4);
        out.extend(quads.map(|q| i32::from_le_bytes([q[0], q[1], q[2], q[3]].map(|c| c as u8))));
    } else {
        let pairs = codes[..full].chunks_exact(2);
        out.extend(
            pairs.map(|p| (p[0] as i16 as u16 as u32 | (p[1] as i16 as u16 as u32) << 16) as i32),
        );
    }
    if full < codes.len() {
        out.push(lane_word(&codes[full..], group, 0));
    }
}

/// The lane-group word of `codes`, at most `group` of them (the last group of a row may
/// be short): four bytes XORed with `bias`, or two codes sign-extended to `i16`;
/// little-endian, zero-padded.
fn lane_word(codes: &[i8], group: usize, bias: u8) -> i32 {
    let (mut word, bytes) = ([0u8; 4], 4 / group);
    for (t, &code) in codes.iter().enumerate() {
        let wide = (code as i16 ^ bias as i16).to_le_bytes();
        word[bytes * t..bytes * (t + 1)].copy_from_slice(&wide[..bytes]);
    }
    i32::from_le_bytes(word)
}

/// `out = A * B` for the row-major `m x k` `a` and `b`, every element of the row-major
/// `m x n` `out` overwritten, on this thread's [`Arm`] (the body of [`Matrix::matmul`]).
/// `B`'s packed panels are built in `panels`.
///
/// # Panics
/// Panics when `out` is not `m * b.cols()` long.
fn gemm_into(
    a: &[f32],
    (m, k): (usize, usize),
    b: &Matrix,
    out: &mut [f32],
    panels: &mut Vec<f32>,
) {
    let n = b.cols;
    assert_eq!(out.len(), m * n, "matmul: output is not {m}x{n}");
    if m == 0 || k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    let b = &b.data;
    let arm = Arm::current();
    let (mr, w) = tile_shape(arm, n);
    // From `PACK_FLOPS` up, with more than one row tile, every panel is packed
    // contiguous; otherwise the full panels are read in place and only the ragged
    // last one is packed.
    let from = if m > mr && m * k * n >= PACK_FLOPS {
        0
    } else {
        n - n % w
    };
    kernels::pack_b_panels(b, (k, n), (from, w), panels);
    let packed = &panels[..];
    let panel = |j: usize| {
        if j < from {
            (b[j..].as_ptr(), n)
        } else {
            (packed[(j - from) * k..].as_ptr(), w)
        }
    };
    // SAFETY: every row of `a` is `k` long; an in-place panel has `w` columns of `b`
    // left in each of its `k` rows (`j + w <= from <= n`), a packed one `k * w`
    // floats.
    unsafe { gemm_on(arm, (mr, w), (k, n), |i| &a[i * k..][..k], panel, out) };
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

    /// The underlying row-major buffer, for reuse.
    pub(crate) fn into_data(self) -> Vec<f32> {
        self.data
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
        for (o, &b) in self.data.iter_mut().zip(&other.data) {
            *o += s * b;
        }
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
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out.data, &mut Vec::new());
        out
    }

    /// [`Matrix::matmul`] into the row-major `self.rows() x other.cols()` slice `out`,
    /// every element overwritten, with `B`'s packed panels built in `panels` (its
    /// contents discarded): a caller that keeps `panels` packs without allocating once
    /// it has grown to the largest product. Same bits as `matmul`.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree or `out` has the wrong length.
    pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut [f32], panels: &mut Vec<f32>) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        gemm_into(&self.data, (self.rows, self.cols), other, out, panels);
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
        PackedTranspose::new(other).multiply_into(&self.view(), &mut out.data);
        out
    }

    /// This matrix as a borrowed [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.rows, self.cols, &self.data)
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
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_transpose_a_into(other, &mut out.data, &mut Vec::new(), &mut Vec::new());
        out
    }

    /// [`Matrix::matmul_transpose_a`] into the row-major `self.cols() x other.cols()`
    /// slice `out`, every element overwritten, with `self`'s transpose built in
    /// `transposed` and `other`'s packed panels in `panels` (both their contents
    /// discarded). Same bits as `matmul_transpose_a`.
    ///
    /// # Panics
    /// Panics when the row counts disagree or `out` has the wrong length.
    pub(crate) fn matmul_transpose_a_into(
        &self,
        other: &Matrix,
        out: &mut [f32],
        transposed: &mut Vec<f32>,
        panels: &mut Vec<f32>,
    ) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a: contraction mismatch (({}x{})^T * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        transposed.resize(self.len(), 0.0);
        self.transpose_into(transposed);
        gemm_into(transposed, (self.cols, self.rows), other, out, panels);
    }

    /// Transpose, copied in panels of sixteen source rows: every step writes one whole
    /// 64-byte line of a destination row while the sixteen read streams advance together,
    /// so neither side is touched one element per cache line as a plain row sweep does
    /// (7 vs 50 µs at `512 x 32`; allocation is the rest).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out.data);
        out
    }

    /// [`Matrix::transpose`] into the row-major `self.cols() x self.rows()` slice `out`,
    /// every element overwritten.
    ///
    /// # Panics
    /// Panics when `out` has the wrong length.
    pub(crate) fn transpose_into(&self, out: &mut [f32]) {
        const PANEL: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(out.len(), rows * cols, "transpose_into: output length");
        let paneled = rows - rows % PANEL;
        for r0 in (0..paneled).step_by(PANEL) {
            let panel = &self.data[r0 * cols..(r0 + PANEL) * cols];
            for c in 0..cols {
                let dst = &mut out[c * rows + r0..][..PANEL];
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = panel[i * cols + c];
                }
            }
        }
        for r in paneled..rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out[c * rows + r] = v;
            }
        }
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
    fn random_normal_has_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::random_normal(200, 200, 1.0, &mut rng);
        assert!(m.mean().abs() < 0.02);
        let var = m.data().iter().map(|x| x * x).sum::<f32>() / m.len() as f32;
        assert!((var - 1.0).abs() < 0.05);
    }
}
