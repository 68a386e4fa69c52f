//! A dense row-major `f32` matrix with the kernels GNN training needs.
//!
//! This is deliberately a small, predictable building block: contiguous
//! storage, explicit transpose-variant products (needed by hand-written
//! backward passes), and no hidden allocation in the hot paths (`*_into`
//! variants reuse output buffers; packing scratch lives in the thread-local
//! [`Workspace`](crate::workspace::Workspace)).
//!
//! The products run on the cache-blocked packed GEMM core in `gemm.rs`:
//! B is packed into L1-sized panels once per call and a 4×16 register
//! micro-kernel accumulates each output block across the full reduction
//! dimension in the canonical order (sequential k, unfused multiply-add,
//! lanes across columns — see `simd.rs`), so the SIMD/tiled kernels are
//! bit-identical to a naive triple loop.
//!
//! The products are row-blocked over the `kgtosa-par` pool. `matmul_into`
//! and `matmul_t` write disjoint output rows, so their parallel results are
//! bit-identical to serial at any thread count. `t_matmul` reduces across
//! input rows; it uses fixed shape-derived chunks merged in chunk order, and
//! runs the *same* chunked structure serially, so thread count never changes
//! its floating-point association either.

use crate::gemm;
use crate::simd::simd_level;
use crate::workspace::with_workspace;
use kgtosa_par::Pool;
use std::fmt;

/// Dense row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
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

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat immutable data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sets the row count, keeping the columns and — when the new size fits
    /// its capacity — the allocation; rows past the old count are zero.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Consumes the matrix, returning its flat buffer (capacity intact) —
    /// how [`ScratchArena`](crate::workspace::ScratchArena) recycles
    /// intermediates without freeing them.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// `self @ other` → new matrix.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self @ other`, reusing `out`'s buffer. Row-blocked parallel:
    /// each worker owns a disjoint band of output rows, so the result is
    /// bit-identical to the serial loop at any thread count.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_core(other, out, false);
    }

    /// `out += self @ other` — the accumulating form layers use to sum
    /// per-relation products without a temporary. Same banding, same
    /// bit-determinism as [`Matrix::matmul_into`].
    pub fn matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_core(other, out, true);
    }

    /// Packed + banded `self @ other`: pack B panels on the calling
    /// thread, then run the register micro-kernel over disjoint output
    /// bands (parallel when the work justifies thread spawns).
    fn matmul_core(&self, other: &Matrix, out: &mut Matrix, acc: bool) {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, other.cols), "output shape");
        let n = other.cols;
        let k = self.cols;
        if n == 0 || self.rows == 0 {
            return;
        }
        let level = simd_level();
        with_workspace(|ws| {
            let bp = ws.packed(gemm::packed_len(k, n));
            gemm::pack_rows(bp, &other.data, k, n, n);
            let bp = &*bp;
            let block = kgtosa_par::chunk_rows(n.max(k));
            let pool = Pool::for_work(self.rows * k * n);
            pool.par_chunks_mut("tensor.matmul", &mut out.data, block * n, |ci, band| {
                gemm::gemm_band(level, acc, &self.data, ci * block * k, k, k, bp, n, band);
            });
        });
    }

    /// `selfᵀ @ other` (e.g. `Xᵀ·G` for weight gradients).
    ///
    /// See [`Matrix::t_matmul_into`]; this form allocates the output.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// `out = selfᵀ @ other`, reusing `out`'s buffer.
    ///
    /// The reduction runs over `self.rows`, so it cannot be row-blocked on
    /// the (small) output. Instead the input rows are cut into fixed
    /// shape-derived chunks, each chunk accumulates a rank-1-update partial
    /// carved out of the thread-local workspace (one flat buffer, not
    /// O(chunks) transient matrices), and partials merge **in chunk
    /// order** — the same structure serially and in parallel, so results
    /// match bit-for-bit at every thread count.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        let chunk = kgtosa_par::chunk_rows(self.cols.max(other.cols));
        let rows = self.rows;
        self.t_matmul_chunks(other, out, rows.div_ceil(chunk), |ci| {
            ci * chunk..((ci + 1) * chunk).min(rows)
        });
    }

    /// `out = Âᵀ @ B̂`, where `Â` and `B̂` are `self` and `other` with their
    /// row `k` placed at row `rows[k]` (strictly ascending) of an otherwise
    /// all-zero matrix: [`Matrix::t_matmul_into`] on the zero-padded
    /// operands, at the cost of the rows that are there.
    ///
    /// The reduction is cut where the padded product cuts it — at multiples
    /// of `chunk_rows(max(c, n))` in *original* row numbers — and merged in
    /// the same order, and the rows it skips would each add `0·b = ±0` to
    /// an accumulator that started at `+0.0` and so never holds `−0.0`: the
    /// result has the padded product's bits at every thread count. (A
    /// non-finite `b` under a padded zero is the exception: `0·∞` is NaN.)
    pub fn t_matmul_rows_into(&self, rows: &[u32], other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rows.len(), "one original row id per row");
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "row ids must ascend");
        let chunk = kgtosa_par::chunk_rows(self.cols.max(other.cols));
        let n_chunks = rows.last().map_or(0, |&last| last as usize / chunk + 1);
        self.t_matmul_chunks(other, out, n_chunks, |ci| {
            rows.partition_point(|&r| (r as usize) < ci * chunk)
                ..rows.partition_point(|&r| (r as usize) < (ci + 1) * chunk)
        });
    }

    /// The ordered chunked reduction behind both `Aᵀ·B` forms: chunk `ci`
    /// reduces operand rows `span(ci)` into its own zeroed partial, and the
    /// non-empty partials are added to a zeroed `out` in chunk order.
    fn t_matmul_chunks(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        n_chunks: usize,
        span: impl Fn(usize) -> std::ops::Range<usize> + Sync,
    ) {
        assert_eq!(self.rows, other.rows, "row mismatch for t_matmul");
        assert_eq!(out.shape(), (self.cols, other.cols), "output shape");
        let n = other.cols;
        let c = self.cols;
        let level = simd_level();
        out.fill_zero();
        if n_chunks <= 1 {
            gemm::rank1_update(level, &self.data, c, &other.data, n, 0, self.rows, &mut out.data);
            return;
        }
        with_workspace(|ws| {
            let partials = ws.partials(n_chunks * c * n);
            let pool = Pool::for_work(self.rows * c * n);
            pool.par_chunks_mut("tensor.t_matmul", partials, c * n, |ci, part| {
                let rows = span(ci);
                if !rows.is_empty() {
                    part.fill(0.0);
                    gemm::rank1_update(level, &self.data, c, &other.data, n, rows.start, rows.end, part);
                }
            });
            for ci in (0..n_chunks).filter(|&ci| !span(ci).is_empty()) {
                let part = &partials[ci * c * n..(ci + 1) * c * n];
                for (o, &p) in out.data.iter_mut().zip(part) {
                    *o += p;
                }
            }
        });
    }

    /// `self @ otherᵀ` (e.g. `G·Wᵀ` for input gradients). Row-blocked
    /// parallel with disjoint output bands, like [`Matrix::matmul_into`].
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `out = self @ otherᵀ`, reusing `out`'s buffer. B is packed through
    /// its transpose (gathered columns), then the banded micro-kernel runs
    /// exactly as in [`Matrix::matmul_into`].
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "col mismatch for matmul_t");
        assert_eq!(out.shape(), (self.rows, other.rows), "output shape");
        let n = other.rows;
        let k = self.cols;
        if n == 0 || self.rows == 0 {
            return;
        }
        let level = simd_level();
        with_workspace(|ws| {
            let bp = ws.packed(gemm::packed_len(k, n));
            gemm::pack_cols(bp, &other.data, k, n, k);
            let bp = &*bp;
            let block = kgtosa_par::chunk_rows(n.max(k));
            let pool = Pool::for_work(self.rows * k * n);
            pool.par_chunks_mut("tensor.matmul_t", &mut out.data, block * n, |ci, band| {
                gemm::gemm_band(level, false, &self.data, ci * block * k, k, k, bp, n, band);
            });
        });
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise `self += alpha * other`.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise scale in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
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

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Number of parameters (elements).
    pub fn param_count(&self) -> usize {
        self.data.len()
    }

    /// Gathers rows by index into a new matrix (embedding lookup).
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers rows by index into an existing buffer (embedding lookup in
    /// the mini-batch hot loop).
    pub fn gather_rows_into(&self, indices: &[u32], out: &mut Matrix) {
        assert_eq!(out.shape(), (indices.len(), self.cols), "output shape");
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx as usize));
        }
    }

    /// Scatter-adds `updates` rows into `self` at `indices` (the transpose
    /// of [`Matrix::gather_rows`], used for sparse embedding gradients).
    pub fn scatter_add_rows(&mut self, indices: &[u32], updates: &Matrix) {
        assert_eq!(indices.len(), updates.rows(), "index/update mismatch");
        assert_eq!(self.cols, updates.cols(), "column mismatch");
        for (i, &idx) in indices.iter().enumerate() {
            let dst = self.row_mut(idx as usize);
            let src = updates.row(i);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 1., 0., 1., 0., 1., 1., 1., 2., 2., 2.]);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let table = m(4, 2, &[0., 1., 2., 3., 4., 5., 6., 7.]);
        let picked = table.gather_rows(&[3, 1]);
        assert_eq!(picked.data(), &[6., 7., 2., 3.]);
        let mut grad = Matrix::zeros(4, 2);
        grad.scatter_add_rows(&[3, 1, 3], &m(3, 2, &[1., 1., 2., 2., 10., 10.]));
        assert_eq!(grad.row(3), &[11., 11.]);
        assert_eq!(grad.row(1), &[2., 2.]);
        assert_eq!(grad.row(0), &[0., 0.]);
    }

    #[test]
    fn add_scale_norm() {
        let mut a = m(1, 3, &[3., 0., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        a.add_scaled(&m(1, 3, &[1., 1., 1.]), 2.0);
        assert_eq!(a.data(), &[5., 2., 6.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[2.5, 1., 3.]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn map_and_fill() {
        let mut a = m(1, 4, &[-1., 2., -3., 4.]);
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.data(), &[0., 2., 0., 4.]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.; 4]);
    }
}
