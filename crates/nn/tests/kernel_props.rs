//! Kernel-equivalence property tests.
//!
//! The blocked / SIMD / parallel GEMM kernels must be numerically interchangeable with
//! the naive reference triple loop (`Matrix::matmul_naive`). These randomized sweeps
//! check that across a grid of shapes — including the degenerate `1 x d` and `d x 1`
//! cases and shapes large enough to cross the parallel threshold — every entry agrees
//! within a tolerance of `1e-5` scaled by the contraction magnitude (the FMA kernels
//! round less than the reference, so exact bit equality is not the contract).
//!
//! `A * B^T` is held to a stricter contract: on every arm it must equal
//! `a.matmul(&b.transpose())` **bit for bit** — it is the same tile against a packed
//! transpose — because the dense, sharded and distributed joins are proven identical on
//! the assumption that a score does not depend on which product computed it. For the
//! same reason `PackedTranspose::multiply_rows_into`, which scores a list of rows (the
//! quantized rescore), gives each row the bits of the whole product, and a row of `B`
//! (a query) scores the same alone, in a 16-row operand and in a 256-row one.
//!
//! Attention's products are the same tile, one product per `(sequence, head)`: every
//! block of the forward and backward products equals `matmul` of the sliced operands,
//! and the fused inference path (`masked_attention_infer`) equals the tape's composition
//! on every valid row.
//!
//! The i8 tile (`I8Tile`) is integer arithmetic, so its contract is plain equality:
//! every arm scores every pair with `Matrix::dot_i8` of the two rows, on shard rows read
//! in place whatever their length, and its fused survivor test keeps exactly the pairs
//! the scalar f64 rule keeps, with the same approximate scores.
//!
//! `matmul` is held to position invariance: on every arm a row or a column block of a
//! product has the same bits as the product of that row or block alone, and the FMA
//! arms return the same bits as each other. Every bit-identity test runs once per arm
//! the host supports (`for_each_supported_arm`), not only on the arm production picks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sudowoodo_nn::matrix::{
    for_each_supported_arm, Arm, I8Tile, Matrix, MatrixView, PackedTranspose,
};
use sudowoodo_nn::tape::{masked_attention_infer, Tape};

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

/// Asserts every kernel arm's `a * b^T` equals `a.matmul(&b.transpose())` computed on the
/// same arm bit for bit, and that the FMA arms agree with each other.
fn assert_arms_match_reference(a: &Matrix, b: &MatrixView<'_>, what: &str) {
    let bt = b.to_matrix().transpose();
    let mut fma: Option<Matrix> = None;
    for_each_supported_arm(|arm| {
        let result = a.matmul_transpose_b_view(b);
        let what = format!("{what} [{arm:?}]");
        assert_bits_match(&result, &a.matmul(&bt), &what);
        if arm >= Arm::Avx2 {
            assert_bits_match(&result, fma.get_or_insert_with(|| result.clone()), &what);
        }
    });
    assert_bits_match(
        &a.matmul_transpose_b_view(b),
        &a.matmul(&bt),
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
fn transpose_b_is_bit_identical_to_matmul_of_the_transpose_on_every_arm() {
    // Every tile-height remainder (8 and 4 rows), `n` on both sides of the 16- and
    // 32-column tiles, and contraction lengths on both sides of each 8-lane chunk.
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
fn transpose_b_matches_matmul_of_the_transpose_across_bands() {
    // Long operands, sizes off every tile multiple. The last shape is the first odd row
    // count past the parallel threshold, so on a multi-core host it runs the
    // band-parallel split.
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
fn transpose_b_matches_matmul_of_the_transpose_on_non_finite_and_denormal_rows() {
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
fn listed_rows_have_the_bits_of_the_whole_product_on_every_arm() {
    // The quantized rescore: rows of a view listed unsorted and repeated, read in place,
    // against operands narrower and wider than the 16-column tile, must score exactly as
    // they do in the whole product — for every list length up to 11 (each tile-height
    // remainder) and contraction lengths on both sides of the 8-lane chunk.
    let mut rng = StdRng::seed_from_u64(17);
    let n = 23usize;
    let list = [17usize, 3, 3, 22, 0, 9, 17, 5, 21, 1, 8];
    for &k in &[1usize, 7, 8, 31, 64, 67] {
        let (a_buf, a_off) = offset_operand(n, k, &mut rng);
        let a = MatrixView::new(n, k, &a_buf[a_off..a_off + n * k]);
        for rows_b in [1usize, 9, 16, 17, 40] {
            let b = Matrix::random_uniform(rows_b, k, 1.0, &mut rng);
            for_each_supported_arm(|arm| {
                let full = a.to_matrix().matmul(&b.transpose());
                let packed = PackedTranspose::new(&b.view());
                for len in 1..=list.len() {
                    let rows = &list[..len];
                    let mut out = vec![f32::NAN; len * rows_b];
                    packed.multiply_rows_into(&a, rows, &mut out);
                    let listed = Matrix::from_vec(len, rows_b, out);
                    assert_bits_match(
                        &listed,
                        &full.gather_rows(rows),
                        &format!("k = {k}, {rows_b} columns, rows {rows:?} [{arm:?}]"),
                    );
                }
            });
        }
    }
}

#[test]
fn a_row_of_b_scores_the_same_alone_in_16_and_in_256_rows() {
    // A join's query scores the same however it was batched: alone (the 16-column tile
    // on AVX-512), in a 16-query batch, and in a 256-query tile (the 32-column tile),
    // against a corpus streamed as the left operand; and the corpus-major product holds
    // the bits of the query-major `Q * C^T`.
    let mut rng = StdRng::seed_from_u64(18);
    let (n, k) = (45usize, 64usize);
    let queries = Matrix::random_uniform(256, k, 1.0, &mut rng);
    let (c_buf, c_off) = offset_operand(n, k, &mut rng);
    let corpus = MatrixView::new(n, k, &c_buf[c_off..c_off + n * k]);
    for_each_supported_arm(|arm| {
        let column_of = |batch: std::ops::Range<usize>, r: usize| -> Vec<u32> {
            let b = queries.slice_rows(batch.start, batch.end);
            let mut out = vec![0.0; n * b.rows()];
            PackedTranspose::new(&b.view()).multiply_into(&corpus, &mut out);
            let at = r - batch.start;
            (0..n).map(|i| out[i * b.rows() + at].to_bits()).collect()
        };
        let query_major = queries.matmul_transpose_b_view(&corpus);
        for r in [0usize, 7, 15, 16, 100, 255] {
            let whole = column_of(0..256, r);
            let group = r - r % 16;
            assert_eq!(column_of(r..r + 1, r), whole, "query {r} alone [{arm:?}]");
            assert_eq!(
                column_of(group..group + 16, r),
                whole,
                "query {r} in 16 [{arm:?}]"
            );
            let row: Vec<u32> = query_major.row(r).iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                row, whole,
                "query {r}: (C * Q^T)^T against Q * C^T [{arm:?}]"
            );
        }
    });
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

/// Every `(query, row)` integer dot of `tile` against the row-major codes `rows`, query
/// by query, through [`I8Tile::scan`] at unit scales and a threshold nothing misses: each
/// pair's approximate score is then its dot, exactly. Fails on a pair scanned twice.
fn scanned_dots(tile: &mut I8Tile, rows: &[i8], k: usize) -> Vec<i64> {
    let (m, n) = (tile.queries(), rows.len() / k);
    let mut dots = vec![None; m * n];
    tile.scan(
        rows,
        &vec![1.0; n],
        &vec![f64::NEG_INFINITY; m],
        |row, query, approx| {
            let old = dots[query * n + row].replace(approx as i64);
            assert!(old.is_none(), "row {row}, query {query} scanned twice");
            assert_eq!(
                approx, approx as i64 as f64,
                "unit scales give the dot itself"
            );
        },
    );
    dots.into_iter()
        .map(|dot| dot.expect("a pair no threshold can miss was dropped"))
        .collect()
}

/// `I8Tile::new` on every arm the host supports, then once more on the dispatched one.
fn tiles_on_every_arm(a: &[i8], k: usize, scales: &[f32]) -> Vec<(String, I8Tile)> {
    let mut tiles = Vec::new();
    for_each_supported_arm(|arm| tiles.push((format!("{arm:?}"), I8Tile::new(a, k, scales))));
    tiles.push(("dispatched".to_string(), I8Tile::new(a, k, scales)));
    tiles
}

#[test]
fn i8_tile_equals_dot_i8_on_every_arm() {
    // Every register-tile remainder in both directions, and contraction lengths on
    // both sides of the 2- and 4-code lane groups and of a 64-byte row. `n` descends,
    // so each scan after the first reuses a band scratch holding stale words.
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
            for (arm, tile) in &mut tiles_on_every_arm(&a[..m * k], k, &vec![1.0; m]) {
                assert_eq!(tile.queries(), m);
                for n in edges(max_n, &[1, 15, 16, 17, 63, 64, 65, 67]) {
                    let out = scanned_dots(tile, &b[..n * k], k);
                    assert_eq!(out.len(), m * n, "{m}x{k} * ({n}x{k})^T [{arm}]: shape");
                    for (idx, &got) in out.iter().enumerate() {
                        let (i, j) = (idx / n, idx % n);
                        assert_eq!(
                            got,
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
            for (arm, tile) in &mut tiles_on_every_arm(&a, k, &[1.0; 7]) {
                let expected = k as i32 * x as i32 * y as i32;
                assert_eq!(expected as i64, Matrix::dot_i8(&a[..k], &b[..k]));
                assert!(
                    scanned_dots(tile, &b, k)
                        .iter()
                        .all(|&v| v == expected as i64),
                    "{x} x {y}, k = {k} [{arm}]"
                );
            }
        }
    }
}

#[test]
fn i8_tile_reads_ragged_shard_rows_in_place_on_every_arm() {
    // Query counts around the 16- and 64-query panels, shard rows around the 4- and
    // 6-row bands, contractions that end mid lane group. Each shard is a buffer of
    // exactly its codes, so the last row ends where the allocation does.
    let mut rng = StdRng::seed_from_u64(17);
    for &k in &[1usize, 3, 5, 63, 65] {
        for &m in &[1usize, 17, 63, 65, 255] {
            let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i8..=127)).collect();
            for &n in &[1usize, 5, 7, 13] {
                let b: Vec<i8> = (0..n * k).map(|_| rng.gen_range(-128i8..=127)).collect();
                assert_eq!(b.capacity(), n * k);
                for (arm, tile) in &mut tiles_on_every_arm(&a, k, &vec![1.0; m]) {
                    let out = scanned_dots(tile, &b, k);
                    for (idx, &got) in out.iter().enumerate() {
                        let (i, j) = (idx / n, idx % n);
                        let want = Matrix::dot_i8(&a[i * k..][..k], &b[j * k..][..k]);
                        assert_eq!(got, want, "{m}x{k} * ({n}x{k})^T [{arm}]: ({i}, {j})");
                    }
                }
            }
        }
    }
}

#[test]
fn i8_tile_keeps_exactly_what_the_scalar_rule_keeps_at_the_edges() {
    // The survivor test is `t * s * dot >= T` in f64, evaluated left to right, on
    // every arm: scales that vanish, overflow or are NaN on either side, and per query
    // thresholds that tie a pair exactly, miss it by one ulp either way, are infinite
    // or NaN. 70 queries span two AVX-512 panels, the last ragged.
    let mut rng = StdRng::seed_from_u64(18);
    let (m, n, k) = (70usize, 9usize, 13usize);
    let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(-128i8..=127)).collect();
    let mut b: Vec<i8> = (0..n * k).map(|_| rng.gen_range(-128i8..=127)).collect();
    b[k..2 * k].fill(0); // a zero row
    b[2 * k..3 * k].fill(-128);
    let mut row_scales: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..0.01)).collect();
    row_scales[3] = f32::MAX;
    row_scales[4] = f32::INFINITY;
    row_scales[5] = f32::NAN;
    row_scales[6] = f32::MIN_POSITIVE / 8.0;
    row_scales[7] = -0.0;
    let dots: Vec<i64> = (0..m * n)
        .map(|idx| Matrix::dot_i8(&a[idx / n * k..][..k], &b[idx % n * k..][..k]))
        .collect();
    for t in [0.003f32, 1e-30, 0.0, 3e9, f32::MAX, f32::NAN] {
        let approx = |idx: usize| t as f64 * row_scales[idx % n] as f64 * dots[idx] as f64;
        let mut thresholds = vec![
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            0.0,
            -1e300,
            1e300,
        ];
        for x in (0..m * n).map(approx).filter(|x| x.is_finite()) {
            thresholds.extend([x, x.next_up(), x.next_down()]);
        }
        for (arm, tile) in &mut tiles_on_every_arm(&a, k, &vec![t; m]) {
            // Each scan gives every query a different threshold of the list.
            for start in (0..thresholds.len()).step_by(7) {
                let per_query: Vec<f64> = (0..m)
                    .map(|q| thresholds[(start + q) % thresholds.len()])
                    .collect();
                let mut expected: Vec<(usize, usize, u64)> = (0..m * n)
                    .filter(|&idx| approx(idx) >= per_query[idx / n])
                    .map(|idx| (idx % n, idx / n, approx(idx).to_bits()))
                    .collect();
                let mut got = Vec::new();
                tile.scan(&b, &row_scales, &per_query, |row, query, approx| {
                    got.push((row, query, approx.to_bits()))
                });
                got.sort_unstable();
                expected.sort_unstable();
                assert_eq!(got, expected, "scale {t}, thresholds from {start} [{arm}]");
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
    // row of `B` is `0 * inf = NaN`, alone as in an 8-row product. The row-at-a-time path
    // this loop nest replaced skipped zeros in its `k % 4` tail and returned 512 finite
    // values for the single row.
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

#[test]
fn attention_products_are_matmul_of_their_head_slices_on_every_arm() {
    // Every `(sequence, head)` block of attention's two forward and four backward
    // products has the bits of `matmul` of the sliced operands, `scale` on the operand it
    // multiplies (K forward, dS backward); and the fused inference path has the bits of
    // the tape's scores → masked softmax → context composition. Shapes are dim / heads /
    // tokens, with ragged and empty sequences.
    for (case, &(dim, heads, seq)) in [(8, 2, 6), (32, 2, 32), (48, 2, 40)].iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(5100 + case as u64);
        let lens = [seq, seq / 2 + 1, 1, 0, seq - 1];
        let rows = lens.len() * seq;
        let head_dim = dim / heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let (q, k, v, dc) = (
            Matrix::random_normal(rows, dim, 1.0, &mut rng),
            Matrix::random_normal(rows, dim, 1.0, &mut rng),
            Matrix::random_normal(rows, dim, 1.0, &mut rng),
            Matrix::random_normal(rows, dim, 1.0, &mut rng),
        );
        let valid: Vec<usize> = lens
            .iter()
            .flat_map(|&n| std::iter::repeat_n(n, heads * seq))
            .collect();
        for_each_supported_arm(|arm| {
            let mut tape = Tape::new();
            let (qi, ki, vi, wi) = (
                tape.constant(q.clone()),
                tape.constant(k.clone()),
                tape.constant(v.clone()),
                tape.constant(dc.clone()),
            );
            let s = tape.attention_scores(qi, ki, heads, seq, scale);
            let p = tape.masked_row_softmax(s, &valid);
            let c = tape.attention_context(p, vi, heads, seq);
            let weighted = tape.mul(c, wi);
            let loss = tape.sum_all(weighted);
            let grads = tape.backward(loss);
            let grad = |id| grads.get(id).expect("a gradient reaches every input");
            let (pv, ds) = (tape.value(p), grad(s));
            assert_bits_match(grad(c), &dc, "dC is the loss weights");
            for b in 0..lens.len() {
                for h in 0..heads {
                    let what = format!("{dim}/{heads}/{seq}, sequence {b}, head {h} [{arm:?}]");
                    let head = |m: &Matrix| {
                        let c0 = h * head_dim;
                        m.slice_rows(b * seq, (b + 1) * seq)
                            .slice_cols(c0, c0 + head_dim)
                    };
                    let tile = |m: &Matrix| {
                        let r0 = (b * heads + h) * seq;
                        m.slice_rows(r0, r0 + seq)
                    };
                    let (qh, kh, vh, dch) = (head(&q), head(&k), head(&v), head(&dc));
                    let (ph, dsh) = (tile(pv), tile(ds).scale(scale));
                    let scores = qh.matmul(&kh.scale(scale).transpose());
                    assert_bits_match(&tile(tape.value(s)), &scores, &format!("S {what}"));
                    assert_bits_match(&head(tape.value(c)), &ph.matmul(&vh), &format!("C {what}"));
                    assert_bits_match(&head(grad(qi)), &dsh.matmul(&kh), &format!("dQ {what}"));
                    let dk = dsh.transpose().matmul(&qh);
                    assert_bits_match(&head(grad(ki)), &dk, &format!("dK {what}"));
                    let da = dch.matmul(&vh.transpose());
                    assert_bits_match(&tile(grad(p)), &da, &format!("dA {what}"));
                    let dv = ph.transpose().matmul(&dch);
                    assert_bits_match(&head(grad(vi)), &dv, &format!("dV {what}"));
                }
            }
            let fused = masked_attention_infer(&q, &k, &v, heads, seq, scale, &lens);
            for (b, &n) in lens.iter().enumerate() {
                let rows = |m: &Matrix| m.slice_rows(b * seq, b * seq + n);
                assert_bits_match(
                    &rows(&fused),
                    &rows(tape.value(c)),
                    &format!("inference, {dim}/{heads}/{seq}, sequence {b} [{arm:?}]"),
                );
            }
        });
    }
}
