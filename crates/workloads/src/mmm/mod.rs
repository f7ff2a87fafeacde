//! Dense single-precision matrix-matrix multiplication.
//!
//! Two implementations of `C = A·B`:
//!
//! * [`naive::multiply`] — the textbook triple loop, the correctness
//!   reference;
//! * [`blocked::multiply`] — cache-blocked with an ikj loop order, the
//!   tuned kernel standing in for the paper's MKL baseline
//!   ([`blocked::reference`] keeps its original loops as a bit-for-bit
//!   oracle).

pub mod blocked;
pub mod naive;

use crate::kernel::WorkloadError;
use serde::Serialize;

/// A row-major dense matrix of `f32`.
///
/// ```
/// use ucore_workloads::mmm::Matrix;
/// let m = Matrix::identity(3);
/// assert_eq!(m.get(1, 1), 1.0);
/// assert_eq!(m.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero. Use [`Matrix::try_zeros`] at
    /// boundaries where the shape is untrusted input.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A zero matrix of the given shape, rejecting empty shapes as a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroSize`] if either dimension is zero.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, WorkloadError> {
        if rows == 0 {
            return Err(WorkloadError::ZeroSize { what: "rows" });
        }
        if cols == 0 {
            return Err(WorkloadError::ZeroSize { what: "cols" });
        }
        Ok(Matrix { rows, cols, data: vec![0.0; rows * cols] })
    }

    /// The identity matrix of order `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero. Use [`Matrix::try_identity`] for untrusted
    /// orders.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// The identity matrix of order `n`, rejecting `n == 0` as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroSize`] if `n` is zero.
    pub fn try_identity(n: usize) -> Result<Self, WorkloadError> {
        let mut m = Matrix::try_zeros(n, n)?;
        for i in 0..n {
            m.try_set(i, i, 1.0)?;
        }
        Ok(m)
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::LengthMismatch`] unless
    /// `data.len() == rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Result<Self, WorkloadError> {
        if data.len() != rows * cols {
            return Err(WorkloadError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data: data.to_vec() })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds. Use [`Matrix::try_get`] for untrusted
    /// indices.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element at `(row, col)`, reporting out-of-bounds as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::IndexOutOfBounds`] if either index is
    /// outside the matrix.
    pub fn try_get(&self, row: usize, col: usize) -> Result<f32, WorkloadError> {
        self.check_index(row, col)?;
        Ok(self.data[row * self.cols + col])
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds. Use [`Matrix::try_set`] for untrusted
    /// indices.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Sets the element at `(row, col)`, reporting out-of-bounds as a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::IndexOutOfBounds`] if either index is
    /// outside the matrix.
    pub fn try_set(
        &mut self,
        row: usize,
        col: usize,
        value: f32,
    ) -> Result<(), WorkloadError> {
        self.check_index(row, col)?;
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Checks that `(row, col)` is inside the matrix.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::IndexOutOfBounds`] when it is not.
    fn check_index(&self, row: usize, col: usize) -> Result<(), WorkloadError> {
        if row >= self.rows || col >= self.cols {
            return Err(WorkloadError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(())
    }

    /// The backing row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The largest absolute element-wise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ. Use [`Matrix::try_max_abs_diff`]
    /// when the shapes are not known to agree.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// The largest absolute element-wise difference to another matrix,
    /// reporting a shape disagreement as a typed error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ShapeMismatch`] if the shapes differ.
    pub fn try_max_abs_diff(&self, other: &Matrix) -> Result<f32, WorkloadError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(WorkloadError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(self.max_abs_diff(other))
    }
}

/// Validates that `a`, `b` are conformable and returns the output shape.
///
/// # Errors
///
/// [`WorkloadError::LengthMismatch`] when `a.cols() != b.rows()`.
pub(crate) fn check_shapes(a: &Matrix, b: &Matrix) -> Result<(usize, usize), WorkloadError> {
    if a.cols() != b.rows() {
        return Err(WorkloadError::LengthMismatch {
            expected: a.cols(),
            actual: b.rows(),
        });
    }
    Ok((a.rows(), b.cols()))
}

/// The FLOP count of an `m×k` by `k×n` product: `2mkn`.
pub fn flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_constructors_reject_empty_shapes_with_typed_errors() {
        assert_eq!(
            Matrix::try_zeros(0, 3).unwrap_err(),
            WorkloadError::ZeroSize { what: "rows" }
        );
        assert_eq!(
            Matrix::try_zeros(3, 0).unwrap_err(),
            WorkloadError::ZeroSize { what: "cols" }
        );
        assert_eq!(
            Matrix::try_identity(0).unwrap_err(),
            WorkloadError::ZeroSize { what: "rows" }
        );
        assert_eq!(Matrix::try_identity(3).unwrap(), Matrix::identity(3));
        assert_eq!(Matrix::try_zeros(2, 3).unwrap(), Matrix::zeros(2, 3));
    }

    #[test]
    fn try_accessors_reject_out_of_bounds_with_typed_errors() {
        let mut m = Matrix::zeros(2, 3);
        assert!(m.try_set(1, 2, 5.0).is_ok());
        assert_eq!(m.try_get(1, 2).unwrap(), 5.0);
        let err = m.try_get(2, 0).unwrap_err();
        assert_eq!(
            err,
            WorkloadError::IndexOutOfBounds { row: 2, col: 0, rows: 2, cols: 3 }
        );
        assert!(m.try_set(0, 3, 1.0).is_err());
    }

    #[test]
    fn try_max_abs_diff_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert_eq!(
            a.try_max_abs_diff(&b).unwrap_err(),
            WorkloadError::ShapeMismatch { left: (2, 3), right: (3, 2) }
        );
        assert_eq!(a.try_max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_slice_validates_length() {
        assert!(Matrix::from_slice(2, 2, &[1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 5);
        assert_eq!(check_shapes(&a, &b).unwrap(), (2, 5));
        let bad = Matrix::zeros(4, 5);
        assert!(check_shapes(&a, &bad).is_err());
    }

    #[test]
    fn flop_count() {
        assert_eq!(flops(128, 128, 128), 2.0 * 128f64.powi(3));
        assert_eq!(flops(2, 3, 4), 48.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Matrix::from_slice(1, 2, &[1.0, 2.0]).unwrap();
        let b = Matrix::from_slice(1, 2, &[1.5, 1.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
