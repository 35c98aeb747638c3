//! Orthonormalization of tall-skinny matrices.
//!
//! The randomized SVD only needs an orthonormal basis `Q` of the range of a
//! tall matrix `Y` (m × l, l small). Modified Gram–Schmidt with a second
//! re-orthogonalization pass ("MGS2") is numerically adequate for this use
//! ("twice is enough", Giraud et al.), and degenerate columns — which occur
//! when the underlying operator has rank < l — are replaced by deterministic
//! pseudo-random directions so `Q` always has exactly orthonormal columns.
//!
//! The arithmetic is textbook left-looking MGS2 — column `j` is projected
//! against `q_0 … q_{j-1}` in order, twice, then normalized — but the first
//! pass runs right-looking. Once `q_j` is final, one sweep over the rows
//! computes its dots with every later column, as independent accumulator
//! chains, and applies `q_{j-1}`'s deferred update to those columns on the
//! way. Every column still sees the same updates in the same order, and
//! every dot sums its products in [`dot`]'s order, so the result is the
//! left-looking one to the bit. The second pass is a chain of dependent
//! dots; each of its updates is fused with the next dot.

use crate::dense::{ColMatrix, Matrix};
use crate::vector::{axpy, dot, norm2, normalize, normalize_given};

/// Relative norm threshold below which a column counts as linearly dependent.
const DEGENERACY_TOL: f64 = 1e-10;

/// Rows per block of the right-looking sweep: the two basis vectors' blocks
/// (128 KiB each) stay in L2 while every later column's block passes
/// through. On jd3/16, 1,024 to 16,384 rows timed the same within noise.
const SWEEP_ROWS: usize = 16384;

/// Later columns updated together in the right-looking sweep, each with its
/// own dot accumulator.
const SWEEP_COLS: usize = 4;

/// Orthonormalizes the columns of `y` in place (modified Gram–Schmidt with
/// re-orthogonalization). Returns the number of columns that had to be
/// replaced because they were linearly dependent on earlier ones.
pub fn orthonormalize(y: &mut ColMatrix) -> usize {
    let (m, l) = (y.rows(), y.cols());
    // The degeneracy test compares with each column as given; the sweeps
    // update later columns before their turn, so take the norms first.
    let original: Vec<f64> = (0..l)
        .map(|j| norm2(y.col(j)).max(f64::MIN_POSITIVE))
        .collect();
    // pending[k]: q_{j-1}·c_k, whose update of column k > j-1 is deferred
    // to the next sweep (or, for k = j, to column j's second pass).
    let mut pending = vec![0.0; l];
    let mut replaced = 0usize;

    for j in 0..l {
        let (done, rest) = y.as_mut_slice().split_at_mut(j * m);
        let (cj, later) = rest.split_at_mut(m);
        let q: Vec<&[f64]> = (0..j).map(|i| &done[i * m..(i + 1) * m]).collect();

        // Finish pass 1 with q_{j-1}'s update, then pass 2, each update
        // fused with the next dot; the last one with the norm's.
        let nn = if j == 0 {
            dot(cj, cj)
        } else {
            let mut r = axpy_dot(-pending[j], q[j - 1], cj, Some(q[0]));
            for i in 0..j {
                r = axpy_dot(-r, q[i], cj, q.get(i + 1).copied());
            }
            r
        };
        let n = normalize_given(cj, nn);
        if !(n > DEGENERACY_TOL * original[j] && n > 0.0) {
            // Column was (numerically) in the span of its predecessors:
            // substitute deterministic pseudo-random directions, projected
            // left-looking, until one survives.
            let mut attempt = 0usize;
            loop {
                replaced += 1;
                attempt += 1;
                for (r, v) in cj.iter_mut().enumerate() {
                    *v = pseudo_random(j as u64, attempt as u64, r as u64);
                }
                if attempt > 4 {
                    // Pathological (e.g. more columns than rows): zero it out.
                    cj.fill(0.0);
                    break;
                }
                for _pass in 0..2 {
                    for qi in &q {
                        let r = dot(qi, cj);
                        axpy(-r, qi, cj);
                    }
                }
                let n = normalize(cj);
                if n > DEGENERACY_TOL * original[j] && n > 0.0 {
                    break;
                }
            }
        }

        // Right-looking pass 1: apply q_{j-1}'s deferred update to every
        // later column and take its dot with q_j.
        if !later.is_empty() {
            let prev = if j == 0 { None } else { Some(q[j - 1]) };
            sweep(prev, cj, later, m, &mut pending[j + 1..]);
        }
    }
    replaced
}

/// `y ← y + alpha·x`, then `zᵀy` of the updated `y` (`yᵀy` when `z` is
/// `None`), summed in [`dot`]'s order.
#[inline]
fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], z: Option<&[f64]>) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot: length mismatch");
    let mut acc = -0.0;
    match z {
        Some(z) => {
            assert_eq!(z.len(), y.len(), "axpy_dot: length mismatch");
            for ((yi, xi), zi) in y.iter_mut().zip(x).zip(z) {
                *yi += alpha * xi;
                acc += zi * *yi;
            }
        }
        None => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
                acc += *yi * *yi;
            }
        }
    }
    acc
}

/// One right-looking sweep over the columns in `later` (each `m` long):
/// `c_k ← c_k − pending[k]·prev` when `prev` is given, then
/// `pending[k] ← q·c_k`. Rows go by in blocks so that `prev`'s and `q`'s
/// blocks are reused across the columns; each column's dot accumulates
/// over the blocks in row order.
fn sweep(prev: Option<&[f64]>, q: &[f64], later: &mut [f64], m: usize, pending: &mut [f64]) {
    let mut cols: Vec<&mut [f64]> = later.chunks_exact_mut(m).collect();
    let alphas: Vec<f64> = pending.iter().map(|&r| -r).collect();
    let mut acc = vec![-0.0; cols.len()];
    for r0 in (0..m).step_by(SWEEP_ROWS) {
        let r1 = (r0 + SWEEP_ROWS).min(m);
        let qb = &q[r0..r1];
        for ((cs, alphas), acc) in cols
            .chunks_mut(SWEEP_COLS)
            .zip(alphas.chunks(SWEEP_COLS))
            .zip(acc.chunks_mut(SWEEP_COLS))
        {
            match prev {
                Some(p) => sweep_block(Some((&p[r0..r1], alphas)), qb, cs, r0, acc),
                None => sweep_block(None, qb, cs, r0, acc),
            }
        }
    }
    pending.copy_from_slice(&acc);
}

/// The rows `r0 .. r0 + q.len()` of [`sweep`] for up to [`SWEEP_COLS`]
/// columns.
#[inline]
fn sweep_block(
    prev: Option<(&[f64], &[f64])>,
    q: &[f64],
    cols: &mut [&mut [f64]],
    r0: usize,
    acc: &mut [f64],
) {
    if let [a, b, c, d] = cols {
        let (a, b, c, d) = (
            &mut a[r0..r0 + q.len()],
            &mut b[r0..r0 + q.len()],
            &mut c[r0..r0 + q.len()],
            &mut d[r0..r0 + q.len()],
        );
        let mut s = [acc[0], acc[1], acc[2], acc[3]];
        match prev {
            Some((p, al)) => {
                for i in 0..q.len() {
                    a[i] += al[0] * p[i];
                    b[i] += al[1] * p[i];
                    c[i] += al[2] * p[i];
                    d[i] += al[3] * p[i];
                    s[0] += q[i] * a[i];
                    s[1] += q[i] * b[i];
                    s[2] += q[i] * c[i];
                    s[3] += q[i] * d[i];
                }
            }
            None => {
                for i in 0..q.len() {
                    s[0] += q[i] * a[i];
                    s[1] += q[i] * b[i];
                    s[2] += q[i] * c[i];
                    s[3] += q[i] * d[i];
                }
            }
        }
        acc.copy_from_slice(&s);
        return;
    }
    for (k, col) in cols.iter_mut().enumerate() {
        let col = &mut col[r0..r0 + q.len()];
        acc[k] = match prev {
            Some((p, al)) => {
                let mut s = acc[k];
                for ((ci, pi), qi) in col.iter_mut().zip(p).zip(q) {
                    *ci += al[k] * pi;
                    s += qi * *ci;
                }
                s
            }
            None => q
                .iter()
                .zip(col.iter())
                .fold(acc[k], |s, (qi, ci)| s + qi * ci),
        };
    }
}

/// SplitMix64-based deterministic value in (-1, 1).
pub(crate) fn pseudo_random(a: u64, b: u64, c: u64) -> f64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Max deviation of `QᵀQ` from the identity — a test/diagnostic helper.
pub fn orthonormality_error(q: &Matrix) -> f64 {
    let g = q.transpose().matmul(q);
    g.max_abs_diff(&Matrix::identity(q.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `orthonormalize` on a row-major copy of `y`, returned row-major.
    fn orthonormalized(y: &Matrix) -> (Matrix, usize) {
        let mut q = ColMatrix::from(y);
        let replaced = orthonormalize(&mut q);
        (q.to_row_major(), replaced)
    }

    #[test]
    fn orthonormalizes_random_tall_matrix() {
        let y = Matrix::from_fn(20, 5, |r, c| pseudo_random(7, r as u64, c as u64));
        let (q, replaced) = orthonormalized(&y);
        assert_eq!(replaced, 0);
        assert!(orthonormality_error(&q) < 1e-12);
    }

    #[test]
    fn span_is_preserved_for_full_rank_input() {
        // Q must satisfy Y = Q (QᵀY): projection of Y onto span(Q) equals Y.
        let y = Matrix::from_fn(12, 3, |r, c| ((r * 3 + c * 5) % 11) as f64 - 5.0);
        let (q, _) = orthonormalized(&y);
        let proj = q.matmul(&q.transpose().matmul(&y));
        assert!(proj.max_abs_diff(&y) < 1e-9);
    }

    #[test]
    fn dependent_columns_are_replaced() {
        // Second column is 2× the first: rank 1 input, 3 columns.
        let y = Matrix::from_fn(8, 3, |r, c| match c {
            0 => (r + 1) as f64,
            1 => 2.0 * (r + 1) as f64,
            _ => -((r + 1) as f64),
        });
        let (y, replaced) = orthonormalized(&y);
        assert!(replaced >= 2, "two dependent columns must be replaced");
        assert!(orthonormality_error(&y) < 1e-10);
    }

    #[test]
    fn zero_matrix_becomes_orthonormal() {
        let (y, _) = orthonormalized(&Matrix::zeros(6, 2));
        assert!(orthonormality_error(&y) < 1e-10);
    }

    #[test]
    fn already_orthonormal_is_stable() {
        let mut q = Matrix::zeros(4, 2);
        q[(0, 0)] = 1.0;
        q[(1, 1)] = 1.0;
        let before = q.clone();
        let (q, replaced) = orthonormalized(&q);
        assert_eq!(replaced, 0);
        assert!(q.max_abs_diff(&before) < 1e-12);
    }
}
