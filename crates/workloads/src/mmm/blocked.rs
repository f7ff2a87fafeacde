//! Cache-blocked matrix multiplication — the tuned single-threaded kernel.
//!
//! The hot loops are written against pre-sliced tile rows with a 4-wide
//! unrolled `c[j] += a_ik * b[j]` update, so the compiler can keep the
//! accumulators in registers and hoist every bounds check out of the
//! innermost loop. The pre-optimization indexed loops are kept verbatim
//! in [`reference`](mod@reference); because both versions perform exactly one fused
//! update per output element in the same `(ii, kk, jj, i, k)` order, the
//! results are bit-identical (see `tests/differential.rs`).

use super::{check_shapes, Matrix};
use crate::kernel::WorkloadError;

/// The default tile edge, matching the paper's assumed blocking for the
/// MMM compulsory-bandwidth computation (footnote 3).
pub const DEFAULT_BLOCK: usize = 128;

/// Computes `C = A·B` tile-by-tile with an `i, k, j` inner order so the
/// innermost loop streams rows of `B` and `C`, which is what lets the
/// kernel stay compute-bound once a tile fits in cache.
///
/// ```
/// use ucore_workloads::mmm::{blocked, naive, Matrix};
/// let a = Matrix::from_slice(2, 2, &[1.0, 2.0, 3.0, 4.0])?;
/// let b = Matrix::from_slice(2, 2, &[5.0, 6.0, 7.0, 8.0])?;
/// let tuned = blocked::multiply(&a, &b, 64)?;
/// let reference = naive::multiply(&a, &b)?;
/// assert!(tuned.max_abs_diff(&reference) < 1e-4);
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::LengthMismatch`] if the shapes are not
/// conformable, or [`WorkloadError::ZeroSize`] for a zero block size.
pub fn multiply(a: &Matrix, b: &Matrix, block: usize) -> Result<Matrix, WorkloadError> {
    if block == 0 {
        return Err(WorkloadError::ZeroSize { what: "block size" });
    }
    let (m, n) = check_shapes(a, b)?;
    let k_dim = a.cols();
    let b_data = b.as_slice();
    let mut c = Matrix::zeros(m, n);
    let c_data = c.as_mut_slice();
    for ii in (0..m).step_by(block) {
        let i_hi = (ii + block).min(m);
        for kk in (0..k_dim).step_by(block) {
            let k_hi = (kk + block).min(k_dim);
            for jj in (0..n).step_by(block) {
                let j_hi = (jj + block).min(n);
                for i in ii..i_hi {
                    let a_tile = &a.row(i)[kk..k_hi];
                    let c_tile = &mut c_data[i * n + jj..i * n + j_hi];
                    for (k_off, &aik) in a_tile.iter().enumerate() {
                        // ucore-lint: allow(float-eq): exact-zero sparsity skip; skipping only IEEE ±0.0 terms cannot change the sum
                        if aik == 0.0 {
                            continue;
                        }
                        let k = kk + k_off;
                        let b_tile = &b_data[k * n + jj..k * n + j_hi];
                        saxpy_row(c_tile, b_tile, aik);
                    }
                }
            }
        }
    }
    Ok(c)
}

/// One tile-row update `c[j] += aik * b[j]`, unrolled 4-wide.
///
/// Each output element receives exactly one fused multiply-add per call,
/// so the result is bit-identical to the scalar loop regardless of how
/// the `j` range is chunked.
#[inline]
fn saxpy_row(c: &mut [f32], b: &[f32], aik: f32) {
    debug_assert_eq!(c.len(), b.len());
    let mut c_quads = c.chunks_exact_mut(4);
    let mut b_quads = b.chunks_exact(4);
    for (cq, bq) in (&mut c_quads).zip(&mut b_quads) {
        cq[0] += aik * bq[0];
        cq[1] += aik * bq[1];
        cq[2] += aik * bq[2];
        cq[3] += aik * bq[3];
    }
    for (cv, bv) in c_quads.into_remainder().iter_mut().zip(b_quads.remainder()) {
        *cv += aik * *bv;
    }
}

/// The pre-optimization blocked loops, kept verbatim as the
/// differential-test oracle for the tuned kernel above.
///
/// Not used on any hot path: the tuned kernel must stay bit-identical to
/// these loops (same blocking, same iteration order, same exact-zero
/// skip), and `tests/differential.rs` proves it.
pub mod reference {
    use super::{check_shapes, Matrix, WorkloadError};

    /// `C = A·B` with the original per-element indexed tile loops.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::LengthMismatch`] if the shapes are not
    /// conformable, or [`WorkloadError::ZeroSize`] for a zero block size.
    pub fn multiply(a: &Matrix, b: &Matrix, block: usize) -> Result<Matrix, WorkloadError> {
        if block == 0 {
            return Err(WorkloadError::ZeroSize { what: "block size" });
        }
        let (m, n) = check_shapes(a, b)?;
        let mut c = Matrix::zeros(m, n);
        let k_dim = a.cols();
        for ii in (0..m).step_by(block) {
            let i_hi = (ii + block).min(m);
            for kk in (0..k_dim).step_by(block) {
                let k_hi = (kk + block).min(k_dim);
                for jj in (0..n).step_by(block) {
                    let j_hi = (jj + block).min(n);
                    for i in ii..i_hi {
                        for k in kk..k_hi {
                            let aik = a.get(i, k);
                            // ucore-lint: allow(float-eq): exact-zero sparsity skip; skipping only IEEE ±0.0 terms cannot change the sum
                            if aik == 0.0 {
                                continue;
                            }
                            let b_row = b.row(k);
                            let c_base = i * n;
                            let c_data = c.as_mut_slice();
                            for j in jj..j_hi {
                                c_data[c_base + j] += aik * b_row[j];
                            }
                        }
                    }
                }
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::mmm::naive;

    #[test]
    fn agrees_with_naive_on_random_inputs() {
        for &(m, k, n) in &[(5usize, 7usize, 3usize), (16, 16, 16), (33, 17, 9)] {
            let a = random_matrix(m, k, 1);
            let b = random_matrix(k, n, 2);
            let tuned = multiply(&a, &b, 8).unwrap();
            let reference = naive::multiply(&a, &b).unwrap();
            assert!(
                tuned.max_abs_diff(&reference) < 1e-3,
                "({m}, {k}, {n}) diverged"
            );
        }
    }

    #[test]
    fn block_size_larger_than_matrix_is_fine() {
        let a = random_matrix(4, 4, 3);
        let b = random_matrix(4, 4, 4);
        let big = multiply(&a, &b, 1024).unwrap();
        let reference = naive::multiply(&a, &b).unwrap();
        assert!(big.max_abs_diff(&reference) < 1e-4);
    }

    #[test]
    fn block_size_one_is_fine() {
        let a = random_matrix(6, 5, 5);
        let b = random_matrix(5, 4, 6);
        let one = multiply(&a, &b, 1).unwrap();
        let reference = naive::multiply(&a, &b).unwrap();
        assert!(one.max_abs_diff(&reference) < 1e-4);
    }

    #[test]
    fn zero_block_rejected() {
        let a = Matrix::identity(2);
        assert!(multiply(&a, &a, 0).is_err());
        assert!(reference::multiply(&a, &a, 0).is_err());
    }

    #[test]
    fn default_block_matches_paper() {
        assert_eq!(DEFAULT_BLOCK, 128);
    }

    #[test]
    fn tuned_is_bit_identical_to_reference() {
        for &(m, k, n, block) in &[
            (5usize, 7usize, 3usize, 2usize),
            (16, 16, 16, 8),
            (33, 17, 9, 4),
            (64, 64, 64, 32),
        ] {
            let a = random_matrix(m, k, 21);
            let b = random_matrix(k, n, 22);
            let tuned = multiply(&a, &b, block).unwrap();
            let oracle = reference::multiply(&a, &b, block).unwrap();
            assert_eq!(tuned, oracle, "({m}, {k}, {n}) block {block}");
        }
    }

    #[test]
    fn sparsity_skip_is_preserved() {
        // A matrix with explicit zeros exercises the `aik == 0.0` skip in
        // both versions; the results must still be bit-identical.
        let mut a = random_matrix(9, 9, 31);
        for i in 0..9 {
            a.set(i, (i * 3) % 9, 0.0);
        }
        let b = random_matrix(9, 9, 32);
        let tuned = multiply(&a, &b, 4).unwrap();
        let oracle = reference::multiply(&a, &b, 4).unwrap();
        assert_eq!(tuned, oracle);
    }
}
