//! Property tests for the linear-algebra kernels: the hand-rolled matmul
//! variants must satisfy the algebraic identities the backward passes
//! depend on.

use proptest::prelude::*;

use kgtosa_tensor::{softmax_rows, Adam, AdamConfig, Matrix, SparseAdam};

fn arb_matrix(r: std::ops::Range<usize>, c: std::ops::Range<usize>) -> impl Strategy<Value = Matrix> {
    (r, c).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(-3.0f32..3.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    })
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        prop_assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (AB)C = A(BC) within float tolerance.
    #[test]
    fn matmul_associative(a in arb_matrix(1..5, 1..5),
                          bc in (1usize..5, 1usize..5)) {
        let (bcols, ccols) = bc;
        let b = Matrix::from_vec(a.cols(), bcols, vec![0.5; a.cols() * bcols]);
        let c = Matrix::from_vec(bcols, ccols, vec![-0.25; bcols * ccols]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-4)?;
    }

    /// Aᵀ·B computed directly equals transpose-then-multiply.
    #[test]
    fn t_matmul_identity(a in arb_matrix(1..6, 1..6), cols in 1usize..6) {
        let b = Matrix::from_vec(a.rows(), cols, (0..a.rows() * cols)
            .map(|i| (i as f32 * 0.37).sin()).collect());
        assert_close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-4)?;
    }

    /// A·Bᵀ computed directly equals multiply-by-transpose.
    #[test]
    fn matmul_t_identity(a in arb_matrix(1..6, 1..6), rows in 1usize..6) {
        let b = Matrix::from_vec(rows, a.cols(), (0..rows * a.cols())
            .map(|i| (i as f32 * 0.61).cos()).collect());
        assert_close(&a.matmul_t(&b), &a.matmul(&b.transpose()), 1e-4)?;
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(a in arb_matrix(1..8, 1..8)) {
        assert_close(&a.transpose().transpose(), &a, 0.0)?;
    }

    /// gather → scatter_add accumulates exactly the gathered rows.
    #[test]
    fn gather_scatter_adjoint(table in arb_matrix(2..8, 1..5),
                              idx in proptest::collection::vec(0u32..2, 1..10)) {
        let idx: Vec<u32> = idx.iter().map(|&i| i % table.rows() as u32).collect();
        let picked = table.gather_rows(&idx);
        let mut acc = Matrix::zeros(table.rows(), table.cols());
        acc.scatter_add_rows(&idx, &picked);
        // Row r of acc = (count of r in idx) * table row r.
        for r in 0..table.rows() {
            let count = idx.iter().filter(|&&i| i as usize == r).count() as f32;
            for c in 0..table.cols() {
                let expect = count * table.get(r, c);
                prop_assert!((acc.get(r, c) - expect).abs() < 1e-4);
            }
        }
    }

    /// Softmax is invariant to per-row constant shifts.
    #[test]
    fn softmax_shift_invariant(m in arb_matrix(1..5, 2..6), shift in -5.0f32..5.0) {
        let mut shifted = m.clone();
        shifted.map_inplace(|x| x + shift);
        let a = softmax_rows(&m);
        let b = softmax_rows(&shifted);
        assert_close(&a, &b, 1e-4)?;
    }

    /// Dense Adam and SparseAdam agree when every row is updated each step.
    #[test]
    fn sparse_adam_matches_dense_on_full_updates(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows = 3usize;
        let cols = 2usize;
        let init: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut dense = Matrix::from_vec(rows, cols, init.clone());
        let mut sparse = Matrix::from_vec(rows, cols, init);
        let cfg = AdamConfig::default();
        let mut d_opt = Adam::new(rows * cols, cfg);
        let mut s_opt = SparseAdam::new(rows, cols, cfg);
        let all_rows: Vec<u32> = (0..rows as u32).collect();
        for _ in 0..5 {
            let grad = Matrix::from_vec(rows, cols,
                (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
            d_opt.step(&mut dense, &grad);
            s_opt.step_rows(&mut sparse, &all_rows, &grad);
        }
        assert_close(&dense, &sparse, 1e-5)?;
    }
}

/// Determinism contract of the `kgtosa-par` row-blocked kernels: at every
/// thread count (including 1) the products must be **bit-identical**, and
/// for the disjoint-write kernels also bit-identical to a naive serial
/// reference that never chunked at all.
mod parallel_determinism {
    use super::*;
    use kgtosa_par::with_threads;

    /// Naive triple-loop reference, the pre-parallel serial semantics.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + av * b.get(k, j));
                }
            }
        }
        out
    }

    fn big_matrix(rows: usize, cols: usize, salt: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f32 * salt).sin()).collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// matmul: all thread counts agree bitwise with the naive reference.
        /// Shapes straddle the parallel threshold and chunk boundary.
        #[test]
        fn matmul_bit_identical(rows in 1usize..400, inner in 1usize..24, cols in 1usize..24) {
            let a = big_matrix(rows, inner, 0.37);
            let b = big_matrix(inner, cols, 0.61);
            let expect = reference_matmul(&a, &b);
            for threads in [1usize, 2, 3, 4, 8] {
                let got = with_threads(threads, || a.matmul(&b));
                prop_assert_eq!(got.data(), expect.data(), "threads={}", threads);
            }
        }

        /// matmul_t: bitwise-stable across thread counts.
        #[test]
        fn matmul_t_bit_identical(rows in 1usize..400, inner in 1usize..24, orows in 1usize..24) {
            let a = big_matrix(rows, inner, 0.29);
            let b = big_matrix(orows, inner, 0.53);
            let expect = with_threads(1, || a.matmul_t(&b));
            for threads in [2usize, 4, 8] {
                let got = with_threads(threads, || a.matmul_t(&b));
                prop_assert_eq!(got.data(), expect.data(), "threads={}", threads);
            }
        }

        /// t_matmul: the fixed-chunk ordered reduction gives the same bits
        /// at every thread count (serial runs the same chunked structure).
        #[test]
        fn t_matmul_bit_identical(rows in 1usize..6000, cols in 1usize..12, ocols in 1usize..12) {
            let a = big_matrix(rows, cols, 0.41);
            let b = big_matrix(rows, ocols, 0.23);
            let expect = with_threads(1, || a.t_matmul(&b));
            for threads in [2usize, 4, 8] {
                let got = with_threads(threads, || a.t_matmul(&b));
                prop_assert_eq!(got.data(), expect.data(), "threads={}", threads);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// matmul_acc_into: accumulating into a pre-filled output matches
        /// the naive incremental loop (`out[i][j] += a·b` starting from
        /// the existing value) bit-for-bit at every thread count — the
        /// semantics the RGCN forward relied on from the old add_matmul.
        #[test]
        fn matmul_acc_bit_identical(rows in 1usize..200, inner in 1usize..20, cols in 1usize..20) {
            let a = big_matrix(rows, inner, 0.31);
            let b = big_matrix(inner, cols, 0.47);
            let seed = big_matrix(rows, cols, 0.19);
            // Naive accumulate: same i,(k),j order, starting from seed.
            let mut expect = seed.clone();
            for i in 0..rows {
                for j in 0..cols {
                    let mut s = expect.get(i, j);
                    #[allow(clippy::assign_op_pattern)]
                    for k in 0..inner {
                        s = a.get(i, k) * b.get(k, j) + s;
                    }
                    expect.set(i, j, s);
                }
            }
            for threads in [1usize, 4, 8] {
                let mut got = seed.clone();
                with_threads(threads, || a.matmul_acc_into(&b, &mut got));
                prop_assert_eq!(got.data(), expect.data(), "threads={}", threads);
            }
        }
    }

    /// The row-indexed `Aᵀ·B` has the bits of `t_matmul_into` on the
    /// zero-padded operands, at every thread count: for the empty subset,
    /// every row, random subsets dense and sparse, one confined to the
    /// first chunk (the unchunked path on the compact side, the chunked one
    /// on the padded side), and one that skips whole chunks.
    #[test]
    fn t_matmul_rows_matches_zero_padded() {
        let (total, c, n) = (9_000usize, 8usize, 12usize);
        let chunk = kgtosa_par::chunk_rows(c.max(n));
        assert!(total > 3 * chunk, "the padded product must span four chunks");
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut one_in = |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            matches!(state % k, 0)
        };
        let all = 0..total as u32;
        let subsets: Vec<Vec<u32>> = vec![
            Vec::new(),
            all.clone().collect(),
            all.clone().filter(|_| one_in(3)).collect(),
            all.clone().filter(|_| one_in(400)).collect(),
            all.clone().filter(|&r| (r as usize) < chunk && one_in(2)).collect(),
            all.filter(|&r| matches!(r as usize / chunk, 0 | 3) && one_in(5)).collect(),
            vec![(total - 1) as u32],
        ];
        for ids in &subsets {
            let a = big_matrix(ids.len(), c, 0.41);
            let b = big_matrix(ids.len(), n, 0.23);
            let (mut padded_a, mut padded_b) = (Matrix::zeros(total, c), Matrix::zeros(total, n));
            for (k, &r) in ids.iter().enumerate() {
                padded_a.row_mut(r as usize).copy_from_slice(a.row(k));
                padded_b.row_mut(r as usize).copy_from_slice(b.row(k));
            }
            let expect = with_threads(1, || padded_a.t_matmul(&padded_b));
            let expect: Vec<u32> = expect.data().iter().map(|v| v.to_bits()).collect();
            for threads in [1usize, 2, 4, 8] {
                // Stale output contents must not leak into the product.
                let mut got = big_matrix(c, n, 0.9);
                with_threads(threads, || a.t_matmul_rows_into(ids, &b, &mut got));
                let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expect, "{} of {total} rows, threads={threads}", ids.len());
            }
        }
    }

    /// Portable vs AVX2 instantiations produce identical bits — the
    /// instruction-set half of the determinism contract. (On hardware
    /// without AVX2 this degenerates to portable ≡ portable, which still
    /// exercises the dispatch path.)
    #[test]
    fn simd_levels_bit_identical() {
        use kgtosa_tensor::{avx2_supported, set_simd_level, simd_level, SimdLevel};
        let restore = simd_level();
        // Shapes straddling every tile boundary: MR=4 rows, NR=16 cols,
        // 8-lane strips, plus scalar tails on both axes.
        let shapes = [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 17),
            (64, 33, 48),
            (130, 24, 31),
        ];
        for &(m, k, n) in &shapes {
            let a = big_matrix(m, k, 0.73);
            let b = big_matrix(k, n, 0.41);
            let bt = big_matrix(n, k, 0.59);
            // t_matmul computes Aᵀ·C, so C shares A's row count.
            let c = big_matrix(m, n, 0.67);
            set_simd_level(SimdLevel::Portable).unwrap();
            let (p1, p2, p3) = (a.matmul(&b), a.matmul_t(&bt), a.t_matmul(&c));
            if avx2_supported() {
                set_simd_level(SimdLevel::Avx2).unwrap();
            }
            let (v1, v2, v3) = (a.matmul(&b), a.matmul_t(&bt), a.t_matmul(&c));
            assert_eq!(p1.data(), v1.data(), "matmul {m}x{k}x{n}");
            assert_eq!(p2.data(), v2.data(), "matmul_t {m}x{k}x{n}");
            assert_eq!(p3.data(), v3.data(), "t_matmul {m}x{k}x{n}");
        }
        set_simd_level(restore).unwrap();
    }

    /// Degenerate shapes (a dimension of zero) must not panic and must
    /// produce the correctly-shaped (empty or zero) result.
    #[test]
    fn empty_matrices_are_handled() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        assert_eq!(a.t_matmul(&Matrix::zeros(0, 4)).shape(), (5, 4));

        let c = Matrix::zeros(4, 0);
        let d = Matrix::zeros(0, 6);
        // Inner dimension 0: the product is all zeros.
        let prod = c.matmul(&d);
        assert_eq!(prod.shape(), (4, 6));
        assert!(prod.data().iter().all(|&v| v == 0.0));
        // Accumulating form must leave the output untouched (adds zero).
        let mut acc = big_matrix(4, 6, 0.83);
        let before = acc.data().to_vec();
        c.matmul_acc_into(&d, &mut acc);
        assert_eq!(acc.data(), &before[..]);

        let e = big_matrix(3, 4, 0.37);
        assert_eq!(e.matmul(&Matrix::zeros(4, 0)).shape(), (3, 0));
        assert_eq!(e.matmul_t(&Matrix::zeros(0, 4)).shape(), (3, 0));
        assert_eq!(Matrix::zeros(0, 0).matmul(&Matrix::zeros(0, 0)).shape(), (0, 0));
    }

    /// gather_rows_into matches the allocating gather exactly.
    #[test]
    fn gather_rows_into_matches() {
        let table = big_matrix(9, 7, 0.67);
        let idx = [3u32, 0, 8, 3, 5];
        let expect = table.gather_rows(&idx);
        let mut got = Matrix::zeros(idx.len(), 7);
        table.gather_rows_into(&idx, &mut got);
        assert_eq!(got.data(), expect.data());
    }

    /// _into variants match their allocating counterparts exactly.
    #[test]
    fn softmax_into_matches_out_of_place() {
        let logits = big_matrix(17, 9, 0.77);
        let labels: Vec<u32> = (0..17).map(|i| (i % 9) as u32).collect();
        let (loss, grad) = kgtosa_tensor::softmax_cross_entropy(&logits, &labels);
        let mut grad2 = Matrix::zeros(17, 9);
        let loss2 = kgtosa_tensor::softmax_cross_entropy_into(&logits, &labels, &mut grad2);
        assert_eq!(loss.to_bits(), loss2.to_bits());
        assert_eq!(grad.data(), grad2.data());
        let mut sm = Matrix::zeros(17, 9);
        kgtosa_tensor::softmax_rows_into(&logits, &mut sm);
        assert_eq!(sm.data(), softmax_rows(&logits).data());
    }
}
