//! Dense matrices in two layouts.
//!
//! [`Matrix`] is row-major: the `l × l` core matrices of the randomized SVD
//! (`l = k + oversampling`, a few dozen) and its row-major outputs `U` and
//! `V`, which consumers read one account at a time. [`ColMatrix`] is
//! column-major: the tall `m × l` bases, where `m` is a side of the graph
//! (hundreds of thousands of rows). Gram–Schmidt and the sparse products
//! stream whole columns, so a column is one contiguous slice there and no
//! kernel strides across rows.

use crate::vector;

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Writes `values` into column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows`.
    pub fn set_col(&mut self, c: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows, "set_col: length mismatch");
        for (r, &v) in values.iter().enumerate() {
            self[(r, c)] = v;
        }
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams rhs rows, friendly to the row-major layout.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                vector::axpy(a, rrow, orow);
            }
        }
        out
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        (0..self.rows).map(|r| vector::dot(self.row(r), x)).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::dot(&self.data, &self.data).sqrt()
    }

    /// Largest absolute entry difference against `other` (shape must match).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff: shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

/// Column-major dense matrix for tall-skinny operands.
#[derive(Clone, Debug, PartialEq)]
pub struct ColMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl ColMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ColMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a generator `f(row, col)`, called in row-major order (as
    /// [`Matrix::from_fn`] calls it), so a stateful generator such as an RNG
    /// fills both layouts with the same entries.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[c * rows + r] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable borrow of column `c`.
    #[inline]
    pub(crate) fn col_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// The raw column-major buffer, column after column.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes to `rows × cols`, keeping the allocation; entries are
    /// left unspecified for the caller to overwrite.
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// The same matrix, row-major.
    pub fn to_row_major(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self.data[c * self.rows + r])
    }

    /// Gram matrix `selfᵀ · self` (`cols × cols`, row-major). Each entry
    /// sums its products over the rows in order from `+0.0`, skipping rows
    /// where the left factor is zero, exactly as
    /// `self.to_row_major().transpose().matmul(..)` would.
    pub(crate) fn gram(&self) -> Matrix {
        let l = self.cols;
        let mut g = Matrix::zeros(l, l);
        let mut row = vec![0.0; l];
        for r in 0..self.rows {
            for (c, x) in row.iter_mut().enumerate() {
                *x = self.data[c * self.rows + r];
            }
            for (i, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                vector::axpy(a, &row, g.row_mut(i));
            }
        }
        g
    }

    /// `self · W[:, ..k]` as a row-major `rows × k` matrix. Entry `(r, i)`
    /// is `vector::dot(row r of self, column i of w)` to the bit: the same
    /// products summed in the same order from `-0.0`. The result is built a
    /// block of rows at a time, so each block of `self`'s columns is read
    /// once and the output is written once.
    ///
    /// # Panics
    ///
    /// Panics if `w.rows() != self.cols()` or `k > w.cols()`.
    pub(crate) fn mul_rows(&self, w: &Matrix, k: usize) -> Matrix {
        assert_eq!(w.rows(), self.cols, "mul_rows: inner dimension mismatch");
        assert!(k <= w.cols(), "mul_rows: k exceeds the columns of w");
        const BLOCK: usize = 64;
        let mut out = Matrix::from_vec(self.rows, k, vec![-0.0; self.rows * k]);
        if k == 0 {
            return out;
        }
        for (b, block) in out.data.chunks_mut(BLOCK * k).enumerate() {
            let r0 = b * BLOCK;
            let len = block.len() / k;
            for c in 0..self.cols {
                let xs = &self.col(c)[r0..r0 + len];
                let wrow = &w.row(c)[..k];
                for (orow, &x) in block.chunks_exact_mut(k).zip(xs) {
                    for (o, &wv) in orow.iter_mut().zip(wrow) {
                        *o += x * wv;
                    }
                }
            }
        }
        out
    }
}

impl From<&Matrix> for ColMatrix {
    fn from(m: &Matrix) -> Self {
        ColMatrix::from_fn(m.rows, m.cols, |r, c| m[(r, c)])
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Matrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_and_row_col_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn set_col_round_trips() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 2, |r, c| (r + c * 7) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(1, 2)], m[(2, 1)]);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
