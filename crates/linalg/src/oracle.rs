//! The reference randomized SVD: row-major bases, left-looking MGS2 and
//! column-by-column `U`/`V` assembly, as the crate computed it before its
//! kernels were reorganized for memory traffic. Production must match it
//! to the bit; the tests below check that it does.

use crate::dense::{ColMatrix, Matrix};
use crate::eigen::symmetric_eigen;
use crate::qr::pseudo_random;
use crate::sparse::CsrMatrix;
use crate::svd::{Svd, SvdOptions};
use crate::vector::{self, axpy, dot, norm2, normalize};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Relative norm threshold below which a column counts as linearly dependent.
const DEGENERACY_TOL: f64 = 1e-10;

/// Left-looking MGS2 on a row-major matrix, one column copied out at a time.
pub fn orthonormalize(y: &mut Matrix) -> usize {
    let l = y.cols();
    let mut replaced = 0usize;
    let mut cols: Vec<Vec<f64>> = (0..l).map(|c| y.col(c)).collect();

    for j in 0..l {
        let original_norm = norm2(&cols[j]).max(f64::MIN_POSITIVE);
        let mut attempt = 0usize;
        loop {
            for _pass in 0..2 {
                for i in 0..j {
                    let (head, tail) = cols.split_at_mut(j);
                    let qi = &head[i];
                    let cj = &mut tail[0];
                    let r = dot(qi, cj);
                    axpy(-r, qi, cj);
                }
            }
            let n = normalize(&mut cols[j]);
            if n > DEGENERACY_TOL * original_norm && n > 0.0 {
                break;
            }
            replaced += 1;
            attempt += 1;
            let col = &mut cols[j];
            for (r, v) in col.iter_mut().enumerate() {
                *v = pseudo_random(j as u64, attempt as u64, r as u64);
            }
            if attempt > 4 {
                for v in cols[j].iter_mut() {
                    *v = 0.0;
                }
                break;
            }
        }
    }

    for (c, colv) in cols.iter().enumerate() {
        y.set_col(c, colv);
    }
    replaced
}

/// `A · X`, row-major, one output row at a time.
fn mat_dense(a: &CsrMatrix, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), x.cols());
    for r in 0..a.rows() {
        let orow = out.row_mut(r);
        for (c, v) in a.row(r) {
            for (o, xv) in orow.iter_mut().zip(x.row(c as usize)) {
                *o += v * xv;
            }
        }
    }
    out
}

/// `Aᵀ · X`, row-major, scattering each input row.
fn mat_dense_transpose(a: &CsrMatrix, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), x.cols());
    for r in 0..a.rows() {
        let xrow = x.row(r).to_vec();
        for (c, v) in a.row(r) {
            for (o, xv) in out.row_mut(c as usize).iter_mut().zip(&xrow) {
                *o += v * xv;
            }
        }
    }
    out
}

/// The reference `randomized_svd`.
pub fn randomized_svd(a: &CsrMatrix, k: usize, opts: SvdOptions) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    let k = k.min(m).min(n);
    if k == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: Vec::new(),
            v: Matrix::zeros(n, 0),
        };
    }
    let l = (k + opts.oversample).min(m).min(n);

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let omega = Matrix::from_fn(n, l, |_, _| {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random::<f64>();
        (-2.0f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    });
    let mut q = mat_dense(a, &omega);
    orthonormalize(&mut q);
    for _ in 0..opts.power_iters {
        let mut z = mat_dense_transpose(a, &q);
        orthonormalize(&mut z);
        q = mat_dense(a, &z);
        orthonormalize(&mut q);
    }
    let bt = mat_dense_transpose(a, &q);
    let g = bt.transpose().matmul(&bt);
    let eig = symmetric_eigen(&g);

    let mut s = Vec::with_capacity(k);
    let mut u = Matrix::zeros(m, k);
    let mut v = Matrix::zeros(n, k);
    for i in 0..k {
        let sigma = eig.values[i].max(0.0).sqrt();
        s.push(sigma);
        let w = eig.vectors.col(i);
        let ucol: Vec<f64> = (0..m).map(|r| vector::dot(q.row(r), &w)).collect();
        u.set_col(i, &ucol);
        if sigma > f64::EPSILON {
            let vcol: Vec<f64> = (0..n).map(|r| vector::dot(bt.row(r), &w) / sigma).collect();
            v.set_col(i, &vcol);
        }
    }
    Svd { u, s, v }
}

/// Every entry's bits, for exact comparisons that tell `-0.0` from `0.0`.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A deterministic power-law sparse matrix: row degrees and column
/// popularity both heavy-tailed, as in a transaction graph's adjacency.
fn power_law(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        // Pareto(α = 1.5) degree, at least 1, capped at 200.
        let u: f64 = rng.random::<f64>().max(1e-12);
        let degree = (u.powf(-1.0 / 1.5) as usize).clamp(1, 200);
        for _ in 0..degree {
            // Cubing a uniform skews the columns towards low ids.
            let x: f64 = rng.random::<f64>();
            let c = ((x * x * x) * cols as f64) as usize;
            let w = 1.0 + (rng.random::<f64>() * 4.0).floor();
            triplets.push((r as u32, c.min(cols - 1) as u32, w));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets)
}

fn assert_same_svd(got: &Svd, want: &Svd) {
    assert_eq!(bits(&got.s), bits(&want.s), "singular values differ");
    assert_eq!(
        (got.u.rows(), got.u.cols(), got.v.rows(), got.v.cols()),
        (want.u.rows(), want.u.cols(), want.v.rows(), want.v.cols())
    );
    assert!(
        bits(got.u.as_slice()) == bits(want.u.as_slice()),
        "U differs"
    );
    assert!(
        bits(got.v.as_slice()) == bits(want.v.as_slice()),
        "V differs"
    );
}

mod tests {
    use super::*;
    use crate::qr;
    use crate::svd::randomized_svd as production_svd;
    use proptest::prelude::*;

    /// A column of a generated test matrix.
    #[derive(Clone, Debug)]
    enum Column {
        /// Entries as drawn.
        Drawn,
        /// All zero.
        Zero,
        /// A multiple of an earlier column (or of column 0's draw).
        Multiple(usize, f64),
    }

    /// Entries in (-4, 4), up to half of them signed zeros (`zeros` of
    /// 0, 1 or 2 quarters), so that dot products can sum nothing but
    /// zeros and a sum's starting zero shows in its sign.
    fn arb_entries(len: usize, zeros: u8) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0u8..4, -4.0f64..4.0), len).prop_map(move |draws| {
            draws
                .into_iter()
                .map(|(kind, v)| match kind {
                    0 if zeros > 0 => 0.0,
                    1 if zeros > 1 => -0.0,
                    _ => v,
                })
                .collect()
        })
    }

    /// Dense matrices whose columns may be zero or dependent and whose
    /// entries may be signed zeros, with rows from 1 and columns up to
    /// more than the rows.
    fn arb_basis() -> impl Strategy<Value = Matrix> {
        (1usize..=12, 1usize..=14, 0u8..3).prop_flat_map(|(r, c, zeros)| {
            // Two in nine columns a multiple of another, one in nine zero.
            let column = (0u8..9, 0usize..16, -3.0f64..3.0).prop_map(|(kind, i, s)| match kind {
                0 => Column::Zero,
                1 | 2 => Column::Multiple(i, s),
                _ => Column::Drawn,
            });
            (arb_entries(r * c, zeros), prop::collection::vec(column, c)).prop_map(
                move |(data, kinds)| {
                    let mut m = Matrix::from_vec(r, c, data);
                    for (j, kind) in kinds.iter().enumerate() {
                        match *kind {
                            Column::Drawn => {}
                            Column::Zero => m.set_col(j, &vec![0.0; r]),
                            Column::Multiple(i, s) => {
                                let src = if j == 0 { 0 } else { i % j };
                                let col: Vec<f64> = m.col(src).iter().map(|x| x * s).collect();
                                m.set_col(j, &col);
                            }
                        }
                    }
                    m
                },
            )
        })
    }

    /// Sparse matrices as triplet lists.
    fn arb_sparse() -> impl Strategy<Value = CsrMatrix> {
        (1u32..=24, 1u32..=24).prop_flat_map(|(r, c)| {
            prop::collection::vec((0..r, 0..c, -3.0f64..3.0), 0..=80)
                .prop_map(move |t| CsrMatrix::from_triplets(r as usize, c as usize, &t))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_products_and_gram_match_the_textbook_loops(
            (x, w, k) in (0usize..=40, 1usize..=8, 0u8..3).prop_flat_map(|(r, l, zeros)| {
                (arb_entries(r * l, zeros), arb_entries(l * l, zeros), 0..=l).prop_map(
                    move |(x, w, k)| (Matrix::from_vec(r, l, x), Matrix::from_vec(l, l, w), k),
                )
            }),
        ) {
            let basis = ColMatrix::from(&x);
            let got = basis.mul_rows(&w, k);
            for r in 0..x.rows() {
                for i in 0..k {
                    let want = vector::dot(x.row(r), &w.col(i));
                    prop_assert_eq!(got[(r, i)].to_bits(), want.to_bits(), "({}, {})", r, i);
                }
            }
            let gram = x.transpose().matmul(&x);
            prop_assert_eq!(bits(basis.gram().as_slice()), bits(gram.as_slice()));
        }

        #[test]
        fn orthonormalize_matches_oracle_bit_for_bit(m in arb_basis()) {
            let mut want = m.clone();
            let want_replaced = orthonormalize(&mut want);
            let mut got = ColMatrix::from(&m);
            let got_replaced = qr::orthonormalize(&mut got);
            prop_assert_eq!(got_replaced, want_replaced);
            prop_assert_eq!(bits(got.to_row_major().as_slice()), bits(want.as_slice()));
        }

        #[test]
        fn randomized_svd_matches_oracle_on_small(a in arb_sparse(), k in 1usize..8, iters in 0usize..4) {
            let opts = SvdOptions { power_iters: iters, oversample: 3, ..Default::default() };
            assert_same_svd(&production_svd(&a, k, opts), &randomized_svd(&a, k, opts));
        }
    }

    #[test]
    fn orthonormalize_matches_oracle_on_every_small_signed_zero_pattern() {
        // Every 2×2, 2×3 and 3×2 matrix over these entries: zero sums
        // whose sign depends on where an accumulator starts, disjoint
        // supports, dependent and zero columns.
        const ENTRIES: [f64; 5] = [1.0, -1.0, 0.5, 0.0, -0.0];
        for (r, c) in [(2, 2), (2, 3), (3, 2)] {
            let cells = r * c;
            for code in 0..ENTRIES.len().pow(cells as u32) {
                let data = (0..cells)
                    .map(|i| ENTRIES[code / ENTRIES.len().pow(i as u32) % ENTRIES.len()])
                    .collect();
                let m = Matrix::from_vec(r, c, data);
                let mut want = m.clone();
                let want_replaced = orthonormalize(&mut want);
                let mut got = ColMatrix::from(&m);
                assert_eq!(qr::orthonormalize(&mut got), want_replaced, "{m:?}");
                assert_eq!(
                    bits(got.to_row_major().as_slice()),
                    bits(want.as_slice()),
                    "{m:?}"
                );
            }
        }
    }

    #[test]
    fn replacement_paths_are_exercised() {
        // Rank 1 in three columns, and more columns than rows.
        let dependent = Matrix::from_fn(8, 3, |r, c| (r + 1) as f64 * [1.0, 2.0, -1.0][c]);
        let wide = Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f64 - 3.0);
        for m in [dependent, wide, Matrix::zeros(0, 3), Matrix::zeros(4, 0)] {
            let mut want = m.clone();
            let want_replaced = orthonormalize(&mut want);
            let mut got = ColMatrix::from(&m);
            assert_eq!(qr::orthonormalize(&mut got), want_replaced);
            assert_eq!(bits(got.to_row_major().as_slice()), bits(want.as_slice()));
        }
    }

    /// Production ≡ reference on a 20k-row power-law matrix at the
    /// production rank, and the spoke statistic, read row by row, equals
    /// the column-by-column maximum of the reference `U`.
    fn matches_oracle_on_power_law_graph(power_iters: usize) {
        let a = power_law(20_000, 2_500, 0x5EED);
        let opts = SvdOptions {
            power_iters,
            ..Default::default()
        };
        let got = production_svd(&a, 25, opts);
        let want = randomized_svd(&a, 25, opts);
        assert_same_svd(&got, &want);
        let spokes: Vec<f64> = (0..a.rows())
            .map(|r| {
                (0..want.rank())
                    .map(|i| want.u[(r, i)].abs())
                    .fold(0.0f64, f64::max)
            })
            .collect();
        assert_eq!(bits(&got.max_abs_u_per_row()), bits(&spokes));
    }

    #[test]
    fn randomized_svd_matches_oracle_on_power_law_graph_2_iters() {
        matches_oracle_on_power_law_graph(2);
    }

    #[test]
    fn randomized_svd_matches_oracle_on_power_law_graph_4_iters() {
        matches_oracle_on_power_law_graph(4);
    }
}
