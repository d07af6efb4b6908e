//! Kernel-equivalence property tests.
//!
//! The blocked / SIMD / parallel GEMM kernels must be numerically interchangeable with
//! the naive reference triple loop (`Matrix::matmul_naive`). These randomized sweeps
//! check that across a grid of shapes — including the degenerate `1 x d` and `d x 1`
//! cases and shapes large enough to cross the parallel threshold — every entry agrees
//! within a tolerance of `1e-5` scaled by the contraction magnitude (the FMA kernels
//! round less than the reference, so exact bit equality is not the contract).
//!
//! `A * B^T` is held to a stricter contract: its register-tiled arms must match the
//! frozen row-at-a-time reference (`Matrix::matmul_transpose_b_reference`) **bit for
//! bit**, because the dense, sharded and distributed joins are proven identical on
//! the assumption that a score does not depend on which tile computed it. For the same
//! reason `MatrixView::dot4_rows`, which scores a list of rows, gives each row the bits
//! of the whole product.
//!
//! The i8 tile (`I8Tile`) is integer arithmetic, so its contract is plain equality:
//! every arm returns `Matrix::dot_i8` of the two rows for every output.
//!
//! `matmul` is held to position invariance: on every arm a row or a column block of a
//! product has the same bits as the product of that row or block alone, and the FMA
//! arms return the same bits as each other. Every bit-identity test runs once per arm
//! the host supports (`for_each_supported_arm`), not only on the arm production picks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_nn::matrix::{for_each_supported_arm, Arm, I8Tile, Matrix, MatrixView};

/// Absolute tolerance for one output entry of a `k`-term contraction of values bounded
/// by `amax * bmax`: `1e-5` relative to the worst-case accumulated magnitude.
fn contraction_tol(k: usize, amax: f32, bmax: f32) -> f32 {
    1e-5 * (k.max(1) as f32).sqrt() * amax.max(1e-3) * bmax.max(1e-3)
}

fn assert_matrices_match(result: &Matrix, reference: &Matrix, tol: f32, what: &str) {
    assert_eq!(result.shape(), reference.shape(), "{what}: shape mismatch");
    for r in 0..result.rows() {
        for c in 0..result.cols() {
            let x = result.get(r, c);
            let y = reference.get(r, c);
            assert!(
                (x - y).abs() <= tol,
                "{what}: entry ({r},{c}) differs: kernel {x} vs reference {y} (tol {tol})"
            );
        }
    }
}

/// Shape grid: degenerate vectors and odd sizes around the 4/8-wide kernel boundaries.
/// Shapes past the parallel threshold have their own bit-identity test below.
fn shape_grid() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 7, 1),   // 1 x d times d x 1
        (7, 1, 5),   // outer product
        (1, 64, 33), // row vector times matrix
        (33, 64, 1), // matrix times column vector
        (3, 4, 5),
        (8, 8, 8),
        (13, 29, 17), // all odd, exercises every remainder path
        (32, 33, 34),
        (64, 64, 64),
        (128, 96, 112),
        (112, 128, 96),
        (160, 144, 150), // > 1M flops: the largest full-grid shape
    ]
}

#[test]
fn blocked_matmul_matches_naive_reference_across_shapes() {
    for (case, &(m, k, n)) in shape_grid().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + case as u64);
        let a = Matrix::random_normal(m, k, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 1.0, &mut rng);
        let tol = contraction_tol(k, a.max_abs(), b.max_abs());
        assert_matrices_match(
            &a.matmul(&b),
            &a.matmul_naive(&b),
            tol,
            &format!("matmul {m}x{k}*{k}x{n}"),
        );
    }
}

#[test]
fn fused_transpose_b_matches_naive_reference_across_shapes() {
    for (case, &(m, k, n)) in shape_grid().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(2000 + case as u64);
        let a = Matrix::random_normal(m, k, 1.0, &mut rng);
        let b = Matrix::random_normal(n, k, 1.0, &mut rng); // transposed layout
        let tol = contraction_tol(k, a.max_abs(), b.max_abs());
        assert_matrices_match(
            &a.matmul_transpose_b(&b),
            &a.matmul_naive(&b.transpose()),
            tol,
            &format!("matmul_transpose_b {m}x{k}*({n}x{k})^T"),
        );
    }
}

/// Asserts `result` equals `reference` bit for bit. NaN outputs must be NaN on both
/// sides; their payload and sign are not compared, since neither Rust nor LLVM fixes
/// which operand's NaN an add or a fused multiply-add propagates.
fn assert_bits_match(result: &Matrix, reference: &Matrix, what: &str) {
    assert_eq!(result.shape(), reference.shape(), "{what}: shape");
    for (idx, (x, y)) in result.data().iter().zip(reference.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: entry ({}, {}) is {x:e} ({:#010x}), reference {y:e} ({:#010x})",
            idx / result.cols().max(1),
            idx % result.cols().max(1),
            x.to_bits(),
            y.to_bits(),
        );
    }
}

/// Asserts every kernel arm's `a * b^T` equals the frozen reference computed on the same
/// arm bit for bit, and that the FMA arms agree with each other.
fn assert_arms_match_reference(a: &Matrix, b: &MatrixView<'_>, what: &str) {
    let mut fma: Option<Matrix> = None;
    for_each_supported_arm(|arm| {
        let result = a.matmul_transpose_b_view(b);
        let what = format!("{what} [{arm:?}]");
        assert_bits_match(&result, &a.matmul_transpose_b_reference(b), &what);
        if arm >= Arm::Avx2 {
            assert_bits_match(&result, fma.get_or_insert_with(|| result.clone()), &what);
        }
    });
    let reference = a.matmul_transpose_b_reference(b);
    assert_bits_match(
        &a.matmul_transpose_b_view(b),
        &reference,
        &format!("{what} [dispatched]"),
    );
}

/// A `rows x cols` operand stored at a 4-byte-aligned offset that is **not**
/// 32-byte-aligned inside a larger buffer — how an mmap'd shard payload reaches the
/// kernel. Returns the backing buffer and the element offset of the view.
fn offset_operand(rows: usize, cols: usize, rng: &mut StdRng) -> (Vec<f32>, usize) {
    let mut buf: Vec<f32> = (0..rows * cols + 16)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let offset = (1..9)
        .find(|o| !(buf[*o..].as_ptr() as usize).is_multiple_of(32))
        .expect("eight consecutive floats cannot all be 32-byte aligned");
    // Sprinkle exact zeros and a repeated value so ties and cancellations occur.
    for v in buf.iter_mut().step_by(7) {
        *v = 0.0;
    }
    for v in buf.iter_mut().step_by(11) {
        *v = 0.5;
    }
    (buf, offset)
}

#[test]
fn tiled_transpose_b_is_bit_identical_to_the_row_reference_on_every_arm() {
    // Every tile-height remainder (8, 2, 1 rows), every corpus-row remainder mod 4,
    // and contraction lengths on both sides of each 8-lane chunk boundary.
    let mut rng = StdRng::seed_from_u64(13);
    for &k in &[1usize, 7, 8, 9, 31, 32, 64, 65, 130] {
        let (a_buf, a_off) = offset_operand(37, k, &mut rng);
        let (b_buf, b_off) = offset_operand(67, k, &mut rng);
        for m in 1..=37 {
            let a = MatrixView::new(m, k, &a_buf[a_off..a_off + m * k]).to_matrix();
            for n in 1..=67 {
                let b = MatrixView::new(n, k, &b_buf[b_off..b_off + n * k]);
                assert_arms_match_reference(&a, &b, &format!("{m}x{k} * ({n}x{k})^T"));
            }
        }
    }
}

#[test]
fn tiled_transpose_b_matches_the_reference_across_strips_and_bands() {
    // Wide enough for several 256 KiB strips (k = 64: 1024 rows each); sizes off every
    // tile multiple. The last shape is the first odd row count past the parallel
    // threshold, so on a multi-core host it runs the band-parallel split.
    let mut rng = StdRng::seed_from_u64(14);
    let banded = (1..).find(|&m| sudowoodo_nn::matrix::fans_out(m, 72, 1_030));
    for &(m, n, k) in &[
        (37usize, 2_503usize, 64usize),
        (9, 4_099, 32),
        (130, 1_030, 72),
        (banded.expect("some row count fans out") | 1, 1_030, 72),
    ] {
        let (a_buf, a_off) = offset_operand(m, k, &mut rng);
        let (b_buf, b_off) = offset_operand(n, k, &mut rng);
        let a = MatrixView::new(m, k, &a_buf[a_off..a_off + m * k]).to_matrix();
        let b = MatrixView::new(n, k, &b_buf[b_off..b_off + n * k]);
        assert_arms_match_reference(&a, &b, &format!("{m}x{k} * ({n}x{k})^T"));
    }
}

#[test]
fn tiled_transpose_b_matches_the_reference_on_non_finite_and_denormal_rows() {
    let mut rng = StdRng::seed_from_u64(15);
    let (m, n, k) = (19usize, 23usize, 21usize);
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 4.0, // denormal
        -f32::MIN_POSITIVE / 8.0,
        f32::MAX,
        -0.0,
    ];
    let mut a = Matrix::random_uniform(m, k, 1.0, &mut rng);
    let mut b = Matrix::random_uniform(n, k, 1.0, &mut rng);
    // Whole rows of each special value, plus single special entries in otherwise
    // ordinary rows, in both the 8-lane body and the k % 8 tail of the contraction.
    for (i, &v) in specials.iter().enumerate() {
        a.row_mut(2 * i).fill(v);
        b.row_mut(3 * i).fill(v);
        a.set(2 * i + 1, i, v);
        b.set(3 * i + 1, k - 1 - i % 5, v);
    }
    assert_arms_match_reference(&a, &b.view(), "non-finite rows");
}

#[test]
fn dot4_rows_has_the_bits_of_the_padded_product_on_every_arm() {
    // The per-query rescore: each listed row must score exactly as it does in a product
    // against the whole matrix padded to row quads, for a query alone and for each
    // query of a 9-row block (the 8-row tile and a leftover row). Every list length up
    // to 9 (each short last group), rows unsorted and repeated, at contraction lengths
    // on both sides of the 8-lane chunk.
    let mut rng = StdRng::seed_from_u64(17);
    let (n, padded) = (23usize, 24usize);
    let list = [17usize, 3, 3, 22, 0, 9, 17, 5, 21];
    for &k in &[1usize, 7, 8, 31, 64, 67] {
        let (mut b_buf, b_off) = offset_operand(padded, k, &mut rng);
        b_buf[b_off + n * k..b_off + padded * k].fill(0.0);
        let b = MatrixView::new(padded, k, &b_buf[b_off..b_off + padded * k]);
        let block = Matrix::random_uniform(9, k, 1.0, &mut rng);
        for_each_supported_arm(|arm| {
            for a in [block.slice_rows(0, 1), block.clone()] {
                let full = a.matmul_transpose_b_view(&b);
                for r in 0..a.rows() {
                    for len in 1..=list.len() {
                        let rows = &list[..len];
                        let mut out = vec![f32::NAN; len];
                        b.dot4_rows(a.row(r), rows, &mut out);
                        let want: Vec<u32> =
                            rows.iter().map(|&j| full.get(r, j).to_bits()).collect();
                        let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                        let m = a.rows();
                        assert_eq!(
                            got, want,
                            "k = {k}, query {r} of {m}, rows {rows:?} [{arm:?}]"
                        );
                    }
                }
            }
        });
    }
}

/// `rows x k` random codes (both extremes included) starting at an odd address inside
/// a larger buffer — a shard's mmap'd codes section starts wherever its f32 payload
/// ends. Returns the backing buffer; the codes start at byte 1.
fn offset_codes(rows: usize, k: usize, rng: &mut StdRng) -> Vec<i8> {
    let mut buf: Vec<i8> = (0..rows * k + 1)
        .map(|_| rng.gen_range(-128i8..=127))
        .collect();
    for v in buf.iter_mut().step_by(13) {
        *v = -128;
    }
    for v in buf.iter_mut().step_by(17) {
        *v = 127;
    }
    buf
}

#[test]
fn i8_tile_equals_dot_i8_on_every_arm() {
    // Every register-tile remainder in both directions, and contraction lengths on
    // both sides of the 2- and 4-code lane groups and of a 64-byte row. `n` descends,
    // so each product after the first packs into a buffer holding stale panels.
    let mut rng = StdRng::seed_from_u64(16);
    let (max_m, max_n) = (37usize, 67usize);
    for &k in &[1usize, 7, 31, 32, 33, 63, 64, 65, 130, 4096] {
        let a_buf = offset_codes(max_m, k, &mut rng);
        let b_buf = offset_codes(max_n, k, &mut rng);
        let (a, b) = (&a_buf[1..], &b_buf[1..]);
        let reference: Vec<i64> = (0..max_m * max_n)
            .map(|idx| {
                let (i, j) = (idx / max_n, idx % max_n);
                Matrix::dot_i8(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k])
            })
            .collect();
        // The long contraction visits the tile edges only: the full grid would take
        // minutes unoptimized and adds no new remainder.
        let edges = |max: usize, around: &[usize]| -> Vec<usize> {
            if k <= 130 {
                (1..=max).rev().collect()
            } else {
                around.iter().copied().filter(|&x| x <= max).rev().collect()
            }
        };
        for m in edges(max_m, &[1, 3, 4, 5, 6, 7, 12, 13, 37]) {
            let mut tiles = Vec::new();
            for_each_supported_arm(|arm| {
                tiles.push((format!("{arm:?}"), I8Tile::new(&a[..m * k], k)))
            });
            tiles.push(("dispatched".to_string(), I8Tile::new(&a[..m * k], k)));
            for (arm, tile) in &mut tiles {
                assert_eq!(tile.rows(), m);
                for n in edges(max_n, &[1, 15, 16, 17, 63, 64, 65, 67]) {
                    let out = tile.multiply_transpose_b(&b[..n * k]);
                    assert_eq!(out.len(), m * n, "{m}x{k} * ({n}x{k})^T [{arm}]: shape");
                    for (idx, &got) in out.iter().enumerate() {
                        let (i, j) = (idx / n, idx % n);
                        assert_eq!(
                            got as i64,
                            reference[i * max_n + j],
                            "{m}x{k} * ({n}x{k})^T [{arm}]: entry ({i}, {j})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn i8_tile_is_exact_at_the_code_extremes() {
    // All-(-128) against all-(-128) is the largest sum a contraction can reach
    // (k * 2^14); the biased VNNI operand additionally meets 255 * -128 per product.
    for &k in &[64usize, 4096] {
        for &(x, y) in &[(-128i8, -128i8), (127, 127), (-128, 127), (127, -128)] {
            let (a, b) = (vec![x; 7 * k], vec![y; 70 * k]);
            let mut tiles = Vec::new();
            for_each_supported_arm(|arm| tiles.push((format!("{arm:?}"), I8Tile::new(&a, k))));
            tiles.push(("dispatched".to_string(), I8Tile::new(&a, k)));
            for (arm, tile) in &mut tiles {
                let expected = k as i32 * x as i32 * y as i32;
                assert_eq!(expected as i64, Matrix::dot_i8(&a[..k], &b[..k]));
                assert!(
                    tile.multiply_transpose_b(&b).iter().all(|&v| v == expected),
                    "{x} x {y}, k = {k} [{arm}]"
                );
            }
        }
    }
}

#[test]
fn fused_transpose_a_matches_naive_reference_across_shapes() {
    for (case, &(m, k, n)) in shape_grid().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(3000 + case as u64);
        let a = Matrix::random_normal(k, m, 1.0, &mut rng); // transposed layout
        let b = Matrix::random_normal(k, n, 1.0, &mut rng);
        let tol = contraction_tol(k, a.max_abs(), b.max_abs());
        assert_matrices_match(
            &a.matmul_transpose_a(&b),
            &a.transpose().matmul_naive(&b),
            tol,
            &format!("matmul_transpose_a ({k}x{m})^T*{k}x{n}"),
        );
    }
}

#[test]
fn fused_transpose_a_matches_naive_reference_on_tall_skinny_shapes() {
    // The weight-gradient shape: a long contraction (the batch's token count) into a
    // small `m x n` output, including a zero-row and a zero-length contraction.
    let mut case = 0u64;
    for k in [0usize, 1, 7, 512, 1536] {
        for m in [1usize, 3, 32, 64, 96] {
            for n in [1usize, 3, 32, 64, 96] {
                case += 1;
                let mut rng = StdRng::seed_from_u64(3500 + case);
                let mut a = Matrix::random_normal(k, m, 1.0, &mut rng);
                let b = Matrix::random_normal(k, n, 1.0, &mut rng);
                if k > 2 {
                    a.row_mut(k / 2).fill(0.0); // a padding row
                }
                let tol = contraction_tol(k, a.max_abs(), b.max_abs());
                assert_matrices_match(
                    &a.matmul_transpose_a(&b),
                    &a.transpose().matmul_naive(&b),
                    tol,
                    &format!("matmul_transpose_a ({k}x{m})^T*{k}x{n}"),
                );
            }
        }
    }
}

#[test]
fn transpose_a_does_not_hide_a_non_finite_row_behind_a_zero_row() {
    // IEEE semantics, like `matmul` on the transposed operand: a zero (padding) row of A
    // against an infinite row of B poisons the product (0 * inf = NaN) instead of being
    // skipped, as the rank-1 loop this kernel replaced did.
    let mut rng = StdRng::seed_from_u64(3900);
    let (k, m, n) = (512, 32, 96);
    let mut a = Matrix::random_normal(k, m, 1.0, &mut rng);
    let mut b = Matrix::random_normal(k, n, 1.0, &mut rng);
    a.row_mut(k / 2).fill(0.0);
    b.row_mut(k / 2).fill(f32::INFINITY);
    let fused = a.matmul_transpose_a(&b);
    let plain = a.transpose().matmul(&b);
    assert!(fused.data().iter().all(|v| v.is_nan()));
    assert!(plain.data().iter().all(|v| v.is_nan()));
}

#[test]
fn products_are_bit_identical_on_either_side_of_the_parallel_threshold() {
    // A product big enough to fan out must equal, bit for bit, its two halves computed
    // below the threshold and stacked: the row bands run the same kernels either way.
    // (On a one-thread host both sides run inline and the test checks only the split.)
    use sudowoodo_nn::matrix::fans_out;
    let (k, n) = (64, 128);
    let mut m = 16;
    while !fans_out(m, k, n) {
        m *= 2;
    }
    assert!(!fans_out(m / 2, k, n), "the halves must run inline");
    let mut rng = StdRng::seed_from_u64(4100);
    let a = Matrix::random_normal(m, k, 1.0, &mut rng);
    let b = Matrix::random_normal(k, n, 1.0, &mut rng);
    let bt = b.transpose();
    let (top, bottom) = (a.slice_rows(0, m / 2), a.slice_rows(m / 2, m));
    let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&a.matmul(&b)),
        bits(&Matrix::vstack(&[&top.matmul(&b), &bottom.matmul(&b)])),
        "matmul"
    );
    assert_eq!(
        bits(&a.matmul_transpose_b(&bt)),
        bits(&Matrix::vstack(&[
            &top.matmul_transpose_b(&bt),
            &bottom.matmul_transpose_b(&bt)
        ])),
        "matmul_transpose_b"
    );
}

#[test]
fn kernels_handle_adversarial_values() {
    // Zeros, exact negatives, denormal-adjacent magnitudes: the skip-zero optimization of
    // the reference and the non-skipping SIMD kernels must still agree.
    let a = Matrix::from_rows(&[
        vec![0.0, -1.0, 1.0, 0.0, 1e-20],
        vec![0.0, 0.0, 0.0, 0.0, 0.0],
        vec![1e4, -1e4, 1e-4, -1e-4, 0.5],
    ]);
    let b = Matrix::from_rows(&[
        vec![1.0, 2.0],
        vec![-1.0, 0.0],
        vec![0.0, 1e-20],
        vec![3.0, -3.0],
        vec![0.5, 0.25],
    ]);
    let tol = contraction_tol(5, a.max_abs(), b.max_abs());
    assert_matrices_match(
        &a.matmul(&b),
        &a.matmul_naive(&b),
        tol,
        "adversarial matmul",
    );
    let bt = b.transpose(); // 2 x 5
    assert_matrices_match(
        &a.matmul_transpose_b(&bt),
        &a.matmul_naive(&b),
        tol,
        "adversarial matmul_transpose_b",
    );
}

#[test]
fn matmul_associativity_sanity_against_double_precision() {
    // One direct f64 cross-check so the reference itself is anchored to ground truth.
    let mut rng = StdRng::seed_from_u64(77);
    let a = Matrix::random_normal(9, 23, 1.0, &mut rng);
    let b = Matrix::random_normal(23, 11, 1.0, &mut rng);
    let fast = a.matmul(&b);
    for r in 0..9 {
        for c in 0..11 {
            let exact: f64 = (0..23)
                .map(|k| a.get(r, k) as f64 * b.get(k, c) as f64)
                .sum();
            assert!(
                (fast.get(r, c) as f64 - exact).abs() < 1e-4,
                "entry ({r},{c}) drifted from f64 ground truth"
            );
        }
    }
}

#[test]
fn matmul_multiplies_every_entry_whatever_the_row_count() {
    // IEEE semantics on every arm and at every height: a zero in `A` against an infinite
    // row of `B` is `0 * inf = NaN`, alone as in an 8-row product. The AXPY row path this
    // loop nest replaced skipped zeros in its `k % 4` tail and returned 512 finite values
    // for the single row.
    let b = Matrix::from_fn(5, 512, |r, c| {
        if r == 4 {
            f32::INFINITY
        } else {
            (c % 7) as f32 - 3.0
        }
    });
    let row = [1.0, 1.0, 1.0, 1.0, 0.0];
    for_each_supported_arm(|arm| {
        for m in [1, 8] {
            let a = Matrix::from_fn(m, 5, |_, c| row[c]);
            let nans = a.matmul(&b).data().iter().filter(|v| v.is_nan()).count();
            assert_eq!(nans, m * 512, "{m}-row product [{arm:?}]");
        }
    });
}

#[test]
fn matmul_is_position_invariant_and_its_fma_arms_agree_bit_for_bit() {
    // Shapes on both sides of every tile height (4, 8), panel width (16, 32), the packing
    // threshold and the parallel threshold. Row `i` of `A * B` must have the bits of
    // `A[i..i+1] * B`, and the left half of `A * B` those of `A * B[:, ..n/2]`.
    let fan_out_rows = (1..).find(|&m| sudowoodo_nn::matrix::fans_out(m, 64, 128));
    let shapes = [
        (1, 1, 1),
        (1, 64, 33),
        (3, 7, 15),
        (4, 16, 16),
        (5, 9, 17),
        (7, 128, 31),
        (8, 32, 32),
        (9, 33, 33),
        (13, 1, 47),
        (32, 64, 40),
        (16, 128, 2),
        (64, 64, 64),
        (1024, 32, 96),
        (fan_out_rows.expect("some row count fans out") | 1, 64, 128),
    ];
    let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(4200 + case as u64);
        let a = Matrix::random_normal(m, k, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 1.0, &mut rng);
        let tol = contraction_tol(k, a.max_abs(), b.max_abs());
        // Every row of the small shapes; a spread of rows, the band edges among them, of
        // the large ones.
        let rows: Vec<usize> = if m <= 64 {
            (0..m).collect()
        } else {
            (0..m)
                .step_by(97)
                .chain([m / 2 - 1, m / 2, m / 2 + 1, m - 1])
                .collect()
        };
        let mut fma: Option<Vec<u32>> = None;
        for_each_supported_arm(|arm| {
            let what = format!("{m}x{k} * {k}x{n} [{arm:?}]");
            let full = a.matmul(&b);
            for &i in &rows {
                let alone = a.slice_rows(i, i + 1).matmul(&b);
                assert_eq!(
                    bits(&full.slice_rows(i, i + 1)),
                    bits(&alone),
                    "{what}: row {i}"
                );
            }
            if n >= 2 {
                let left = a.matmul(&b.slice_cols(0, n / 2));
                assert_eq!(
                    bits(&full.slice_cols(0, n / 2)),
                    bits(&left),
                    "{what}: left half"
                );
            }
            if arm == Arm::Scalar {
                assert_matrices_match(&full, &a.matmul_naive(&b), tol, &what);
            } else {
                let first = fma.get_or_insert_with(|| bits(&full));
                assert!(
                    *first == bits(&full),
                    "{what}: differs from the first FMA arm"
                );
            }
        });
    }
}
