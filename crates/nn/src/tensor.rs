//! Dense row-major `f32` matrix used by the autodiff tape.
//!
//! Column vectors are `(n, 1)` matrices; scalars are `(1, 1)`. The
//! operations here are the *non*-differentiable building blocks; the
//! differentiable graph lives in [`crate::tape`].

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Column vector from a slice.
    pub fn col_from_slice(v: &[f32]) -> Self {
        Matrix::from_vec(v.len(), 1, v.to_vec())
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow the row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` (naive ikj matmul, adequate for the model sizes
    /// used by RESPECT).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if n == 1 {
            // matvec path: one serial dot per row, no zero skip
            let mut out = Matrix::zeros(m, 1);
            let x = other.data.as_slice();
            for i in 0..m {
                let row = &self.data[i * k..(i + 1) * k];
                let mut acc = 0.0f32;
                for (a, b) in row.iter().zip(x) {
                    acc += a * b;
                }
                out.data[i] = acc;
            }
            return out;
        }
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * n..(p + 1) * n];
                let orow = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += a * brow[j];
                }
            }
        }
        out
    }

    /// `selfᵀ @ other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_ta(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_ta row dimension");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let arow = &self.data[p * m..(p + 1) * m];
            let brow = &other.data[p * n..(p + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += a * brow[j];
                }
            }
        }
        out
    }

    /// `self @ otherᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_tb(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_tb col dimension");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for p in 0..k {
                    acc += arow[p] * brow[p];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Gathers columns `cols[j]` into a new `[rows, cols.len()]` matrix:
    /// the forward kernel of [`Tape::gather_cols`](crate::Tape::gather_cols).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_cols(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for (j, &c) in cols.iter().enumerate() {
            assert!(c < self.cols, "gather column out of range");
            for r in 0..self.rows {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Block-diagonal matrix-vector product: with `self` stacking `B`
    /// blocks `[C_0 | C_1 | ...] ∈ [h, B*n]` and `p ∈ [n, B]`, returns
    /// `[h, B]` whose column `g` is `C_g @ p[:, g]`. Accumulation order
    /// per output element matches [`Matrix::matmul`]'s column-vector fast
    /// path. The forward kernel of the batched glimpse tape op,
    /// [`Tape::block_matvec`](crate::Tape::block_matvec).
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == p.rows() * p.cols()`.
    pub fn block_matvec(&self, p: &Matrix) -> Matrix {
        let (n, b) = p.shape();
        assert_eq!(self.cols, n * b, "context block count mismatch");
        let h = self.rows;
        let mut out = Matrix::zeros(h, b);
        for g in 0..b {
            for r in 0..h {
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += self.get(r, g * n + i) * p.get(i, g);
                }
                out.set(r, g, acc);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Elementwise binary zip.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element (0 for empty matrices).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

/// An affine map `y = W x + b` laid out for gradient-free matrix-vector
/// products. `W` is stored input-major (transposed), so the weights that
/// multiply input `p` are contiguous, and [`apply`](Affine::apply) adds
/// `Wᵀ[p][i] · x[p]` into every output `i` at once, for ascending `p`.
/// Each output's sum starts at `0.0` and adds the same products in the
/// same order as the row-dot of [`Matrix::matmul`]'s column-vector path,
/// then adds the bias, so the bits are those of `W.matmul(x)` plus `b`.
/// The inner loop runs over independent outputs, so it vectorises
/// without reassociating any sum.
#[derive(Debug, Clone)]
pub struct Affine {
    w_t: Matrix,
    b: Vec<f32>,
}

impl Affine {
    /// Lays out weights `w` (`[out, in]`) and bias `b` (`[out, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `w` has no rows or `b` is not `(w.rows(), 1)`.
    pub fn new(w: &Matrix, b: &Matrix) -> Self {
        assert!(w.rows() > 0, "affine map needs an output");
        assert_eq!(b.shape(), (w.rows(), 1), "affine bias shape");
        Affine {
            w_t: w.transpose(),
            b: b.as_slice().to_vec(),
        }
    }

    /// `out = W x + b`.
    ///
    /// # Panics
    ///
    /// Panics unless `x` has one entry per input and `out` one per output.
    pub fn apply(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.w_t.rows(), "affine input length");
        assert_eq!(out.len(), self.b.len(), "affine output length");
        out.fill(0.0);
        for (col, &xp) in self.w_t.data.chunks_exact(out.len()).zip(x) {
            for (o, &w) in out.iter_mut().zip(col) {
                *o += w * xp;
            }
        }
        for (o, &b) in out.iter_mut().zip(&self.b) {
            *o += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_ta_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 4., 2., 5., 3., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(a.matmul_ta(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_tb_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_tb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn sum_and_max_abs() {
        let m = Matrix::from_vec(1, 3, vec![-4.0, 1.0, 2.0]);
        assert_eq!(m.sum(), -1.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    proptest! {
        #[test]
        fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((seed.wrapping_mul(i as u64 + 1) % 97) as f32) - 48.0)
                .collect();
            let m = Matrix::from_vec(rows, cols, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity_preserves(n in 1usize..6, seed in 0u64..1000) {
            let mut id = Matrix::zeros(n, n);
            for i in 0..n { id.set(i, i, 1.0); }
            let data: Vec<f32> = (0..n * n)
                .map(|i| ((seed.wrapping_mul(i as u64 + 3) % 23) as f32) / 7.0)
                .collect();
            let m = Matrix::from_vec(n, n, data);
            prop_assert_eq!(m.matmul(&id), m.clone());
            prop_assert_eq!(id.matmul(&m), m);
        }

        #[test]
        fn matmul_is_linear_in_first_arg(n in 1usize..5, s in 0u64..100) {
            let gen = |off: u64| -> Matrix {
                Matrix::from_vec(n, n, (0..n*n)
                    .map(|i| ((s.wrapping_mul(i as u64 + off) % 13) as f32) - 6.0)
                    .collect())
            };
            let (a, b, c) = (gen(1), gen(2), gen(3));
            let lhs = {
                let mut ab = a.clone();
                ab.add_assign(&b);
                ab.matmul(&c)
            };
            let mut rhs = a.matmul(&c);
            rhs.add_assign(&b.matmul(&c));
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
