//! Truncated singular value decomposition.
//!
//! [`randomized_svd`] implements the Halko–Martinsson–Tropp randomized
//! range-finder with power iterations: sketch `Y = A·Ω`, orthonormalize,
//! optionally iterate `Q ← orth(A · orth(Aᵀ Q))` to sharpen the spectrum,
//! then solve the small problem exactly through the `l × l` Gram matrix of
//! `B = Qᵀ A`. With a couple of power iterations this recovers the top-k
//! triplets of graph adjacency matrices to working accuracy — which is all
//! SpokEn and FBox consume.
//!
//! [`svd_small`] is the exact Gram-based SVD for small dense matrices; the
//! test-suite uses it as the reference the randomized method must match.

use crate::dense::{ColMatrix, Matrix};
use crate::eigen::symmetric_eigen;
use crate::qr::orthonormalize;
use crate::sparse::CsrMatrix;
use crate::vector;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A rank-`k` truncated SVD: `A ≈ U · diag(σ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × k` (columns are orthonormal).
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × k` (columns are orthonormal).
    pub v: Matrix,
}

impl Svd {
    /// Rank of the decomposition.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstructs the rank-k approximation densely (tests only).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.rank();
        let mut out = Matrix::zeros(self.u.rows(), self.v.rows());
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let mut acc = 0.0;
                for i in 0..k {
                    acc += self.u[(r, i)] * self.s[i] * self.v[(c, i)];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Each row's largest `|U|` entry: SpokEn's spoke statistic, which
    /// scores account `r` by its largest magnitude across the top-k left
    /// singular vectors. Reads `u` once, row by row; 0 for rank 0.
    pub fn max_abs_u_per_row(&self) -> Vec<f64> {
        (0..self.u.rows())
            .map(|r| self.u.row(r).iter().map(|x| x.abs()).fold(0.0f64, f64::max))
            .collect()
    }

    /// Projects a row vector (length n) onto the top-k right singular
    /// subspace: returns `Vᵀ x` of length k. FBox scores nodes with this.
    pub fn project_row(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.v.rows(), "project_row: length mismatch");
        (0..self.rank())
            .map(|i| (0..x.len()).map(|j| self.v[(j, i)] * x[j]).sum())
            .collect()
    }
}

/// Tuning for [`randomized_svd`].
#[derive(Clone, Copy, Debug)]
pub struct SvdOptions {
    /// Extra sketch columns beyond `k` (default 10).
    pub oversample: usize,
    /// Power iterations `q` (default 2); each sharpens the spectral decay.
    pub power_iters: usize,
    /// RNG seed for the Gaussian sketch.
    pub seed: u64,
}

impl Default for SvdOptions {
    fn default() -> Self {
        SvdOptions {
            oversample: 10,
            power_iters: 2,
            seed: 0xEF5E_14DE,
        }
    }
}

/// Computes the top-`k` singular triplets of a sparse matrix.
///
/// `k` is clamped to `min(rows, cols)`. Returns fewer than `k` triplets only
/// when the clamp applies; numerically zero singular values are kept (as 0)
/// so callers can rely on the output rank.
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

    // Gaussian sketch Ω (n × l) and range Y = A·Ω (m × l).
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let omega = gaussian_matrix(n, l, &mut rng);
    let mut q = ColMatrix::zeros(m, l);
    a.mat_dense(&omega, &mut q);
    orthonormalize(&mut q);

    // Power iterations with re-orthonormalization at each half-step; the
    // m × l basis is overwritten in place.
    for _ in 0..opts.power_iters {
        let mut z = a.mat_dense_transpose(&q);
        orthonormalize(&mut z);
        a.mat_dense(&z, &mut q);
        orthonormalize(&mut q);
    }

    // B = Qᵀ A, materialized transposed: Bt = Aᵀ Q is (n × l).
    let bt = a.mat_dense_transpose(&q);

    // Small Gram problem: G = B Bᵀ = Btᵀ Bt (l × l), PSD.
    let eig = symmetric_eigen(&bt.gram());

    // σᵢ = √λᵢ; U = Q W; vᵢ = Bᵀ wᵢ / σᵢ, built row by row.
    let s: Vec<f64> = eig.values[..k].iter().map(|&e| e.max(0.0).sqrt()).collect();
    let u = q.mul_rows(&eig.vectors, k);
    let mut v = bt.mul_rows(&eig.vectors, k);
    for r in 0..n {
        for (x, &sigma) in v.row_mut(r).iter_mut().zip(&s) {
            // σ == 0 ⇒ the V column is zero: the direction is arbitrary and
            // consumers treat zero singular values as "no component".
            *x = if sigma > f64::EPSILON {
                *x / sigma
            } else {
                0.0
            };
        }
    }

    Svd { u, s, v }
}

/// Exact SVD of a small dense matrix through the Gram matrix of its smaller
/// dimension. O(min(m,n)³ + m·n·min(m,n)); intended for tests and `l × n`
/// core problems.
pub fn svd_small(a: &Matrix, k: usize) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    let k = k.min(m).min(n);
    if k == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: Vec::new(),
            v: Matrix::zeros(n, 0),
        };
    }

    if m <= n {
        // G = A Aᵀ (m × m) = U Σ² Uᵀ; V = Aᵀ U Σ⁻¹.
        let g = a.matmul(&a.transpose());
        let eig = symmetric_eigen(&g);
        let mut s = Vec::with_capacity(k);
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        let at = a.transpose();
        for i in 0..k {
            let sigma = eig.values[i].max(0.0).sqrt();
            s.push(sigma);
            let ucol = eig.vectors.col(i);
            u.set_col(i, &ucol);
            if sigma > f64::EPSILON {
                let mut vcol = at.matvec(&ucol);
                vector::scale(1.0 / sigma, &mut vcol);
                v.set_col(i, &vcol);
            }
        }
        Svd { u, s, v }
    } else {
        // G = Aᵀ A (n × n) = V Σ² Vᵀ; U = A V Σ⁻¹.
        let g = a.transpose().matmul(a);
        let eig = symmetric_eigen(&g);
        let mut s = Vec::with_capacity(k);
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        for i in 0..k {
            let sigma = eig.values[i].max(0.0).sqrt();
            s.push(sigma);
            let vcol = eig.vectors.col(i);
            v.set_col(i, &vcol);
            if sigma > f64::EPSILON {
                let mut ucol = a.matvec(&vcol);
                vector::scale(1.0 / sigma, &mut ucol);
                u.set_col(i, &ucol);
            }
        }
        Svd { u, s, v }
    }
}

/// Standard-normal matrix via Box–Muller (rand ships only uniform draws),
/// drawn in row-major order.
fn gaussian_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> ColMatrix {
    ColMatrix::from_fn(rows, cols, |_, _| {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random::<f64>();
        (-2.0f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::orthonormality_error;

    /// Builds a sparse matrix with exactly known singular values by taking a
    /// diagonal and permuting.
    fn diagonal_matrix(values: &[f64]) -> CsrMatrix {
        let n = values.len();
        let triplets: Vec<(u32, u32, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, i as u32, v))
            .collect();
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    #[test]
    fn randomized_svd_recovers_diagonal_spectrum() {
        let a = diagonal_matrix(&[10.0, 7.0, 4.0, 2.0, 1.0, 0.5]);
        let svd = randomized_svd(&a, 3, SvdOptions::default());
        assert_eq!(svd.rank(), 3);
        assert!((svd.s[0] - 10.0).abs() < 1e-8, "s = {:?}", svd.s);
        assert!((svd.s[1] - 7.0).abs() < 1e-8);
        assert!((svd.s[2] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn randomized_svd_factors_are_orthonormal() {
        let a = diagonal_matrix(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        let svd = randomized_svd(&a, 4, SvdOptions::default());
        assert!(orthonormality_error(&svd.u) < 1e-9);
        assert!(orthonormality_error(&svd.v) < 1e-9);
    }

    #[test]
    fn randomized_svd_reconstructs_low_rank_exactly() {
        // Rank-2 matrix: outer products of two index patterns.
        let mut triplets = Vec::new();
        for i in 0..12u32 {
            for j in 0..9u32 {
                let v = 3.0 * ((i % 3) as f64) * ((j % 2) as f64 + 1.0)
                    + 2.0 * ((i % 2) as f64) * ((j % 3) as f64);
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(12, 9, &triplets);
        let svd = randomized_svd(&a, 4, SvdOptions::default());
        // Rank ≤ 4 approximation of a rank-≤4 matrix must be (near-)exact.
        let err = svd.reconstruct().max_abs_diff(&a.to_dense());
        assert!(err < 1e-8, "reconstruction error {err}");
    }

    #[test]
    fn randomized_matches_exact_small_svd() {
        let triplets: Vec<(u32, u32, f64)> = (0..40u32)
            .map(|i| (i % 8, (i * 3) % 6, ((i % 5) as f64) - 1.5))
            .collect();
        let a = CsrMatrix::from_triplets(8, 6, &triplets);
        let exact = svd_small(&a.to_dense(), 4);
        let approx = randomized_svd(&a, 4, SvdOptions::default());
        for i in 0..4 {
            assert!(
                (exact.s[i] - approx.s[i]).abs() < 1e-6,
                "σ{i}: exact {} vs approx {}",
                exact.s[i],
                approx.s[i]
            );
        }
    }

    #[test]
    fn svd_small_known_2x2() {
        // [[3,0],[0,4]] → singular values {4,3}.
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        let svd = svd_small(&a, 2);
        assert!((svd.s[0] - 4.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn svd_small_wide_and_tall_agree() {
        let tall = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c * 2) % 7) as f64 - 3.0);
        let wide = tall.transpose();
        let st = svd_small(&tall, 3);
        let sw = svd_small(&wide, 3);
        for i in 0..3 {
            assert!((st.s[i] - sw.s[i]).abs() < 1e-9);
        }
        assert!(st.reconstruct().max_abs_diff(&tall) < 1e-9);
        assert!(sw.reconstruct().max_abs_diff(&wide) < 1e-9);
    }

    #[test]
    fn k_is_clamped_to_min_dimension() {
        let a = diagonal_matrix(&[2.0, 1.0]);
        let svd = randomized_svd(&a, 10, SvdOptions::default());
        assert_eq!(svd.rank(), 2);
        let svd = svd_small(&a.to_dense(), 10);
        assert_eq!(svd.rank(), 2);
    }

    #[test]
    fn zero_k_returns_empty() {
        let a = diagonal_matrix(&[1.0]);
        let svd = randomized_svd(&a, 0, SvdOptions::default());
        assert_eq!(svd.rank(), 0);
        assert_eq!(svd.u.cols(), 0);
    }

    #[test]
    fn rank_deficient_input_yields_zero_sigmas() {
        // 4×4 all-ones: rank 1, σ₁ = 4, rest 0.
        let triplets: Vec<(u32, u32, f64)> = (0..16u32).map(|i| (i / 4, i % 4, 1.0)).collect();
        let a = CsrMatrix::from_triplets(4, 4, &triplets);
        let svd = randomized_svd(&a, 3, SvdOptions::default());
        assert!((svd.s[0] - 4.0).abs() < 1e-8);
        assert!(svd.s[1].abs() < 1e-7);
        assert!(svd.s[2].abs() < 1e-7);
    }

    #[test]
    fn project_row_matches_manual() {
        let a = diagonal_matrix(&[3.0, 2.0, 1.0]);
        let svd = randomized_svd(&a, 2, SvdOptions::default());
        let x = vec![1.0, 1.0, 1.0];
        let p = svd.project_row(&x);
        assert_eq!(p.len(), 2);
        // Projection norm ≤ ‖x‖.
        let pn: f64 = p.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(pn <= 3f64.sqrt() + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = diagonal_matrix(&[5.0, 3.0, 2.0, 1.0]);
        let s1 = randomized_svd(&a, 2, SvdOptions::default());
        let s2 = randomized_svd(&a, 2, SvdOptions::default());
        assert_eq!(s1.s, s2.s);
        assert!(s1.u.max_abs_diff(&s2.u) == 0.0);
    }
}
