//! Compressed sparse row matrices.
//!
//! The bipartite adjacency matrix `W ∈ R^{|U| × |V|}` of a transaction graph
//! is extremely sparse (a few edges per user). All the spectral baselines
//! need from it are matrix–vector and matrix–(tall dense) products with `W`
//! and `Wᵀ`, which CSR provides in O(nnz · l).

use crate::dense::{ColMatrix, Matrix};

/// Rows per block of the tall operand in the dense products: the block's
/// row-major tile stays in L1.
const TILE: usize = 64;

/// Sparse matrix in CSR form.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from COO triplets `(row, col, value)`. Duplicate coordinates
    /// are summed.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows, "row {r} out of range ({rows} rows)");
            assert!((c as usize) < cols, "col {c} out of range ({cols} cols)");
        }
        // Counting sort by row.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut sorted: Vec<(u32, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            sorted[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        }
        // Within each row: sort by column and merge duplicates.
        let mut row_offsets = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let row = &mut sorted[counts[r]..counts[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                if let Some(&last) = col_idx.last() {
                    if values.len() > row_offsets[r] && last == c {
                        *values.last_mut().expect("nonempty") += v;
                        continue;
                    }
                }
                col_idx.push(c);
                values.push(v);
            }
            row_offsets[r + 1] = col_idx.len();
        }

        CsrMatrix {
            rows,
            cols,
            row_offsets,
            col_idx,
            values,
        }
    }

    /// Builds an unweighted (all-ones) matrix from edge coordinates.
    pub fn from_edges(rows: usize, cols: usize, edges: &[(u32, u32)]) -> Self {
        let triplets: Vec<(u32, u32, f64)> = edges.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        Self::from_triplets(rows, cols, &triplets)
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

    /// Number of stored nonzeros (after duplicate merging).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the nonzeros of row `r` as `(col, value)`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.row_offsets[r]..self.row_offsets[r + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// `y = A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
        y
    }

    /// `y = Aᵀ · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transpose: length mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row(r) {
                y[c as usize] += v * xr;
            }
        }
        y
    }

    /// `Y = A · X` for a tall dense `X` (cols × l), written into `out`,
    /// which is reshaped to rows × l and keeps its buffer: the randomized
    /// SVD overwrites its basis in place instead of faulting in a fresh one.
    ///
    /// Entry `(r, j)` sums `A[r, c] · X[c, j]` over row `r`'s nonzeros in
    /// column order, from `+0.0`. `X` is read through a row-major copy, so
    /// each nonzero gathers one contiguous row of it; the output is built a
    /// block of rows at a time and written out column by column.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != cols`.
    pub fn mat_dense(&self, x: &ColMatrix, out: &mut ColMatrix) {
        assert_eq!(x.rows(), self.cols, "mat_dense: shape mismatch");
        let l = x.cols();
        // Every entry is written below.
        out.reshape(self.rows, l);
        if l == 0 {
            return;
        }
        let x = x.to_row_major();
        let mut tile = vec![0.0; TILE * l];
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            let tile = &mut tile[..(r1 - r0) * l];
            tile.fill(0.0);
            for (r, orow) in (r0..r1).zip(tile.chunks_exact_mut(l)) {
                for (c, v) in self.row(r) {
                    for (o, xv) in orow.iter_mut().zip(x.row(c as usize)) {
                        *o += v * xv;
                    }
                }
            }
            for j in 0..l {
                for (o, trow) in out.col_mut(j)[r0..r1].iter_mut().zip(tile.chunks_exact(l)) {
                    *o = trow[j];
                }
            }
        }
    }

    /// `Y = Aᵀ · X` for a tall dense `X` (rows × l). Output is cols × l.
    ///
    /// Entry `(c, j)` sums `A[r, c] · X[r, j]` over the rows `r` in order,
    /// from `+0.0`. `X` is read a block of rows at a time into a row-major
    /// tile, and each row is scattered into a row-major accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != rows`.
    pub fn mat_dense_transpose(&self, x: &ColMatrix) -> ColMatrix {
        assert_eq!(x.rows(), self.rows, "mat_dense_transpose: shape mismatch");
        let l = x.cols();
        let mut out = Matrix::zeros(self.cols, l);
        if l == 0 {
            return ColMatrix::from(&out);
        }
        let mut tile = vec![0.0; TILE * l];
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            let tile = &mut tile[..(r1 - r0) * l];
            for j in 0..l {
                for (t, &xv) in tile.iter_mut().skip(j).step_by(l).zip(&x.col(j)[r0..r1]) {
                    *t = xv;
                }
            }
            for (r, xrow) in (r0..r1).zip(tile.chunks_exact(l)) {
                for (c, v) in self.row(r) {
                    for (o, xv) in out.row_mut(c as usize).iter_mut().zip(xrow) {
                        *o += v * xv;
                    }
                }
            }
        }
        ColMatrix::from(&out)
    }

    /// Materializes as dense — for tests on tiny matrices only.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c as usize)] += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn shape_and_nnz() {
        let a = sample();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.to_dense()[(0, 0)], 3.5);
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let a = CsrMatrix::from_triplets(1, 4, &[(0, 3, 1.0), (0, 0, 1.0), (0, 2, 1.0)]);
        let cols: Vec<u32> = a.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-1.0, 0.0]);
    }

    #[test]
    fn matvec_transpose_known() {
        let a = sample();
        assert_eq!(a.matvec_transpose(&[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn transpose_matvec_agrees_with_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = vec![0.5, -1.5];
        assert_eq!(a.matvec_transpose(&x), d.transpose().matvec(&x));
    }

    #[test]
    fn mat_dense_agrees_with_dense_matmul() {
        let a = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let mut got = ColMatrix::zeros(0, 0);
        a.mat_dense(&ColMatrix::from(&x), &mut got);
        let got = got.to_row_major();
        let want = a.to_dense().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-14);
    }

    #[test]
    fn mat_dense_transpose_agrees_with_dense_matmul() {
        let a = sample();
        let x = Matrix::from_fn(2, 2, |r, c| (1 + r + 3 * c) as f64);
        let got = a.mat_dense_transpose(&ColMatrix::from(&x)).to_row_major();
        let want = a.to_dense().transpose().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-14);
    }

    #[test]
    fn from_edges_is_binary() {
        let a = CsrMatrix::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let d = a.to_dense();
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(1, 0)], 1.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = CsrMatrix::from_triplets(3, 2, &[(2, 1, 1.0)]);
        assert_eq!(a.row(0).count(), 0);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        CsrMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]);
    }
}
