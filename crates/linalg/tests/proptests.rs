//! Property-based tests for the linear-algebra substrate.

use ensemfdet_linalg::qr::{orthonormality_error, orthonormalize};
use ensemfdet_linalg::{randomized_svd, svd_small, CsrMatrix, Matrix, SvdOptions};
use proptest::prelude::*;

/// Strategy: dense matrices with small integer-ish entries.
fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-4.0f64..4.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Strategy: sparse matrices as triplet lists.
fn arb_sparse(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        prop::collection::vec((0..r, 0..c, -3.0f64..3.0), 0..=max_nnz)
            .prop_map(move |t| CsrMatrix::from_triplets(r as usize, c as usize, &t))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn orthonormalize_always_yields_orthonormal_q(m in arb_matrix(12)) {
        let mut q = m;
        orthonormalize(&mut q);
        // Some columns may be zeroed only in the pathological cols > rows
        // case after retries; exclude that by checking the error when
        // cols <= rows.
        if q.cols() <= q.rows() {
            prop_assert!(orthonormality_error(&q) < 1e-8);
        }
    }

    #[test]
    fn svd_small_reconstructs_input(m in arb_matrix(8)) {
        let k = m.rows().min(m.cols());
        let svd = svd_small(&m, k);
        // Full-rank truncation must reproduce the matrix.
        prop_assert!(svd.reconstruct().max_abs_diff(&m) < 1e-7);
        // Singular values descending and nonnegative.
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10);
        }
        for &s in &svd.s {
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn svd_small_sigma1_bounds_frobenius(m in arb_matrix(8)) {
        let k = m.rows().min(m.cols());
        let svd = svd_small(&m, k);
        let fro = m.frobenius_norm();
        let s_sq: f64 = svd.s.iter().map(|s| s * s).sum();
        // Σσ² = ‖A‖²_F for the full decomposition.
        prop_assert!((s_sq.sqrt() - fro).abs() < 1e-7 * (1.0 + fro));
        if let Some(&s1) = svd.s.first() {
            prop_assert!(s1 <= fro + 1e-9);
        }
    }

    #[test]
    fn sparse_matvec_matches_dense(a in arb_sparse(10, 40), seed in 0u64..1000) {
        let d = a.to_dense();
        let x: Vec<f64> = (0..a.cols()).map(|i| ((i as u64 * 31 + seed) % 13) as f64 - 6.0).collect();
        let got = a.matvec(&x);
        let want = d.matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-10);
        }
        let y: Vec<f64> = (0..a.rows()).map(|i| ((i as u64 * 17 + seed) % 11) as f64 - 5.0).collect();
        let got_t = a.matvec_transpose(&y);
        let want_t = d.transpose().matvec(&y);
        for (g, w) in got_t.iter().zip(&want_t) {
            prop_assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn randomized_svd_matches_exact_on_small(a in arb_sparse(9, 30)) {
        let k = 3.min(a.rows()).min(a.cols());
        let exact = svd_small(&a.to_dense(), k);
        let approx = randomized_svd(&a, k, SvdOptions { power_iters: 4, ..Default::default() });
        for i in 0..k {
            prop_assert!(
                (exact.s[i] - approx.s[i]).abs() < 1e-5 * (1.0 + exact.s[i]),
                "σ{}: exact {} approx {}", i, exact.s[i], approx.s[i]
            );
        }
    }

    #[test]
    fn matmul_is_associative_on_small(a in arb_matrix(5), b in arb_matrix(5), c in arb_matrix(5)) {
        // Reshape b and c so the chain is well-formed.
        let b = Matrix::from_fn(a.cols(), b.rows(), |r, cc| b[(r % b.rows(), cc % b.cols())]);
        let c = Matrix::from_fn(b.cols(), c.cols(), |r, cc| c[(r % c.rows(), cc % c.cols())]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }
}
