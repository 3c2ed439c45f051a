//! Dense row-major matrices over `f32` and `F16`.
//!
//! All attention kernels in this workspace operate on plain row-major
//! buffers: FP16 matrices model tensors resident in (simulated) HBM or
//! shared memory, and FP32 matrices model accumulator tiles. Keeping the
//! storage dead-simple makes the checksum algebra auditable and lets the
//! fault injector address any element.

use crate::f16::F16;
use core::fmt;

/// Row-major dense matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// FP16 matrix (operand precision of the tensor-core path).
pub type MatrixF16 = Matrix<F16>;
/// FP32 matrix (accumulator precision).
pub type MatrixF32 = Matrix<f32>;

impl<T: Copy + Default> Matrix<T> {
    /// Allocate a `rows × cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of {:?}",
            (self.rows, self.cols)
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Copy a `row_block × col_block` sub-matrix starting at `(r0, c0)`,
    /// clamped to the matrix bounds (partial edge blocks are returned with
    /// their true, smaller shape).
    pub fn block(&self, r0: usize, c0: usize, row_block: usize, col_block: usize) -> Matrix<T> {
        let r1 = (r0 + row_block).min(self.rows);
        let c1 = (c0 + col_block).min(self.cols);
        assert!(r0 <= r1 && c0 <= c1, "block origin out of bounds");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for r in r0..r1 {
            out.row_mut(r - r0).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Write `block` back at origin `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix<T>) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for r in 0..block.rows {
            self.row_mut(r0 + r)[c0..c0 + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Append one row in place. The storage grows like a `Vec`, so
    /// [`len`](Matrix::len) — never the capacity — is the logical size.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.cols, "push_row column mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append one row of `T::default()` in place (an accumulator row to be
    /// filled through [`row_mut`](Matrix::row_mut)), without a source row.
    pub fn push_zero_row(&mut self) {
        self.data.resize(self.data.len() + self.cols, T::default());
        self.rows += 1;
    }

    /// Stack matrices vertically (same column count).
    pub fn vstack(parts: &[&Matrix<T>]) -> Matrix<T> {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r = 0;
        for m in parts {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            out.set_block(r, 0, m);
            r += m.rows;
        }
        out
    }

    /// Stack matrices horizontally (same row count).
    pub fn hstack(parts: &[&Matrix<T>]) -> Matrix<T> {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut c = 0;
        for m in parts {
            assert_eq!(m.rows, rows, "hstack row mismatch");
            out.set_block(0, c, m);
            c += m.cols;
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Iterate over `(row, col, value)`.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }
}

impl MatrixF32 {
    /// Quantise every element through binary16 (models storing an FP32
    /// accumulator tile back to an FP16 tensor).
    pub fn to_f16(&self) -> MatrixF16 {
        MatrixF16 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| F16::from_f32(v)).collect(),
        }
    }

    /// Max absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &MatrixF32) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl MatrixF16 {
    /// Widen every element to f32.
    pub fn to_f32(&self) -> MatrixF32 {
        MatrixF32 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v.to_f32()).collect(),
        }
    }

    /// Widen the first `cols` columns of every row to f32, in one pass.
    pub fn prefix_to_f32(&self, cols: usize) -> MatrixF32 {
        if cols == self.cols {
            return self.to_f32();
        }
        let mut data = Vec::with_capacity(self.rows * cols);
        for row in self.data.chunks_exact(self.cols) {
            data.extend(row[..cols].iter().map(|v| v.to_f32()));
        }
        MatrixF32 {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Size in bytes when resident in (simulated) HBM.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * 2) as u64
    }
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  ")?;
            for c in 0..8.min(self.cols) {
                write!(f, "{:?} ", self.data[r * self.cols + c])?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Iterator over block origins covering `total` in steps of `block`.
pub fn block_starts(total: usize, block: usize) -> impl Iterator<Item = usize> {
    debug_assert!(block > 0);
    (0..total).step_by(block)
}

/// Number of blocks of size `block` needed to cover `total` (ceil division).
#[inline]
pub fn num_blocks(total: usize, block: usize) -> usize {
    total.div_ceil(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_shape() {
        let m: MatrixF32 = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = MatrixF32::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn block_extract_and_write_back_round_trip() {
        let m = MatrixF32::from_fn(6, 8, |r, c| (r * 8 + c) as f32);
        let b = m.block(2, 4, 2, 3);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.get(0, 0), (2 * 8 + 4) as f32);
        let mut m2 = MatrixF32::zeros(6, 8);
        m2.set_block(2, 4, &b);
        assert_eq!(m2.get(3, 6), m.get(3, 6));
        assert_eq!(m2.get(0, 0), 0.0);
    }

    #[test]
    fn block_clamps_at_edges() {
        let m = MatrixF32::from_fn(5, 5, |r, c| (r + c) as f32);
        let b = m.block(4, 3, 4, 4);
        assert_eq!(b.shape(), (1, 2));
        assert_eq!(b.get(0, 1), 8.0);
    }

    #[test]
    fn transpose_involution() {
        let m = MatrixF32::from_fn(3, 7, |r, c| (r * 100 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(5, 2), m.get(2, 5));
    }

    #[test]
    fn f16_round_trip_matrix() {
        let m = MatrixF32::from_fn(4, 4, |r, c| 0.25 * (r as f32) - 0.5 * (c as f32));
        let q = m.to_f16().to_f32();
        // All values here are exactly representable in f16.
        assert_eq!(q, m);
    }

    #[test]
    fn diff_metrics() {
        let a = MatrixF32::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn vstack_and_hstack() {
        let a = MatrixF32::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = MatrixF32::from_fn(1, 3, |_, c| 100.0 + c as f32);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.get(2, 1), 101.0);
        assert_eq!(v.get(1, 2), 5.0);
        let mut pushed = a.clone();
        pushed.push_row(b.row(0));
        assert_eq!(pushed, v, "push_row is the one-row vstack, in place");
        let c = MatrixF32::from_fn(2, 2, |r, _| r as f32 * 10.0);
        let h = Matrix::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.get(1, 4), 10.0);
        assert_eq!(h.get(1, 1), 4.0);
    }

    #[test]
    fn block_helpers() {
        assert_eq!(num_blocks(16, 4), 4);
        assert_eq!(num_blocks(17, 4), 5);
        let starts: Vec<_> = block_starts(10, 4).collect();
        assert_eq!(starts, vec![0, 4, 8]);
    }

    proptest! {
        #[test]
        fn prop_block_tiling_covers_matrix(
            rows in 1usize..40, cols in 1usize..40,
            br in 1usize..10, bc in 1usize..10,
        ) {
            let m = MatrixF32::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let mut rebuilt = MatrixF32::zeros(rows, cols);
            for r0 in block_starts(rows, br) {
                for c0 in block_starts(cols, bc) {
                    let b = m.block(r0, c0, br, bc);
                    rebuilt.set_block(r0, c0, &b);
                }
            }
            prop_assert_eq!(rebuilt, m);
        }

        #[test]
        fn prop_transpose_preserves_elements(rows in 1usize..20, cols in 1usize..20) {
            let m = MatrixF32::from_fn(rows, cols, |r, c| (r * 31 + c * 7) as f32);
            let t = m.transpose();
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(m.get(r, c), t.get(c, r));
                }
            }
        }
    }
}
