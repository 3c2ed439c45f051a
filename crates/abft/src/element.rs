//! Traditional element-checksum ABFT (Huang & Abraham 1984), the scheme the
//! paper calls "element checksum" / "traditional ABFT".
//!
//! For `C = A·B`, A is encoded with two checksum *rows* appended —
//! `c1·A` (all-one weights) and `c2·A` (weights 1..=M) — and B with two
//! checksum *columns* `B·r1`, `B·r2` (Eq. 8–9 of the paper). After the
//! multiplication, each column of C must sum (plain and weighted) to the
//! corresponding checksum-row entries, and each row to the checksum-column
//! entries. A single corrupted element is located by the ratio of weighted
//! to unweighted discrepancy and corrected by adding the discrepancy back.
//!
//! The checksum *vectors themselves* are quantised through binary16 when
//! `quantize` is set — on tensor cores the encoded operands must be FP16 to
//! feed the MMA, and this quantisation is the dominant source of the
//! "intrinsic rounding error" false alarms the paper studies in Fig. 12.

use crate::thresholds::Check;
use ft_num::{quantize_f32, Matrix, MatrixF32};

/// Column-checksum vectors of an M×K matrix A (to be appended as rows).
#[derive(Clone, Debug, PartialEq)]
pub struct ColChecksums {
    /// Plain sums: `c1[k] = Σ_i A[i][k]`.
    pub c1: Vec<f32>,
    /// Weighted sums: `c2[k] = Σ_i (i+1)·A[i][k]`.
    pub c2: Vec<f32>,
}

/// Encode the column checksums of `a` (weights 1 and `i+1`).
pub fn encode_cols(a: &MatrixF32, quantize: bool) -> ColChecksums {
    let (m, k) = a.shape();
    let mut c1 = vec![0.0f32; k];
    let mut c2 = vec![0.0f32; k];
    for i in 0..m {
        let w = (i + 1) as f32;
        for (j, &v) in a.row(i).iter().enumerate() {
            c1[j] += v;
            c2[j] += w * v;
        }
    }
    if quantize {
        for v in c1.iter_mut().chain(c2.iter_mut()) {
            *v = quantize_f32(*v);
        }
    }
    ColChecksums { c1, c2 }
}

/// A with its two checksum rows appended: `(M+2) × K`.
pub fn augment_rows(a: &MatrixF32, cs: &ColChecksums) -> MatrixF32 {
    let (m, k) = a.shape();
    Matrix::from_fn(m + 2, k, |i, j| {
        if i < m {
            a.get(i, j)
        } else if i == m {
            cs.c1[j]
        } else {
            cs.c2[j]
        }
    })
}

/// Location and magnitude of one detected error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorLoc {
    /// Row of the corrupted element.
    pub row: usize,
    /// Column of the corrupted element.
    pub col: usize,
    /// Signed discrepancy (observed − true).
    pub delta: f32,
}

/// Result of a verification + correction pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AbftReport {
    /// Checksum mismatches observed.
    pub detections: usize,
    /// Errors located and corrected in place.
    pub corrected: Vec<ErrorLoc>,
    /// Mismatches that could not be attributed to a single element (located
    /// index out of range, or several errors aliasing one checksum lane).
    /// The caller must recompute the affected region.
    pub uncorrectable: usize,
}

impl AbftReport {
    /// True when no mismatch was observed.
    pub fn clean(&self) -> bool {
        self.detections == 0
    }
}

/// Verify `c` (M×N, *without* checksum rows/cols) against the checksum rows
/// of the augmented product, i.e. `full` must be the `(M+2)×N` top-left part
/// of `A_c · B`. Errors are located by column and corrected in place in `c`.
///
/// `tau` is the relative detection threshold of Fig. 12.
pub fn verify_correct_by_cols(
    c: &mut MatrixF32,
    check_row1: &[f32],
    check_row2: &[f32],
    chk: Check,
) -> AbftReport {
    let (m, n) = c.shape();
    assert_eq!(check_row1.len(), n);
    assert_eq!(check_row2.len(), n);
    let mut report = AbftReport::default();
    for j in 0..n {
        let mut s1 = 0.0f32;
        let mut s2 = 0.0f32;
        for i in 0..m {
            let v = c.get(i, j);
            s1 += v;
            s2 += (i + 1) as f32 * v;
        }
        let d1 = s1 - check_row1[j];
        if chk.detects(s1, check_row1[j]) {
            report.detections += 1;
            let d2 = s2 - check_row2[j];
            let pos = d2 / d1; // (i0+1) for a single error
            let i0 = pos.round() as i64 - 1;
            if i0 >= 0 && (i0 as usize) < m && pos.is_finite() {
                let i0 = i0 as usize;
                let fixed = c.get(i0, j) - d1;
                c.set(i0, j, fixed);
                report.corrected.push(ErrorLoc {
                    row: i0,
                    col: j,
                    delta: d1,
                });
            } else {
                report.uncorrectable += 1;
            }
        }
    }
    report
}

/// Row-direction dual of [`verify_correct_by_cols`]: verify each row of `c`
/// against checksum columns (`C·r1`, `C·r2`).
pub fn verify_correct_by_rows(
    c: &mut MatrixF32,
    check_col1: &[f32],
    check_col2: &[f32],
    chk: Check,
) -> AbftReport {
    let (m, n) = c.shape();
    assert_eq!(check_col1.len(), m);
    assert_eq!(check_col2.len(), m);
    let mut report = AbftReport::default();
    for i in 0..m {
        let mut s1 = 0.0f32;
        let mut s2 = 0.0f32;
        for (j, &v) in c.row(i).iter().enumerate() {
            s1 += v;
            s2 += (j + 1) as f32 * v;
        }
        let d1 = s1 - check_col1[i];
        if chk.detects(s1, check_col1[i]) {
            report.detections += 1;
            let d2 = s2 - check_col2[i];
            let pos = d2 / d1;
            let j0 = pos.round() as i64 - 1;
            if j0 >= 0 && (j0 as usize) < n && pos.is_finite() {
                let j0 = j0 as usize;
                let fixed = c.get(i, j0) - d1;
                c.set(i, j0, fixed);
                report.corrected.push(ErrorLoc {
                    row: i,
                    col: j0,
                    delta: d1,
                });
            } else {
                report.uncorrectable += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::rel_diff;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::gemm_nn;

    /// Build S = Q·Kᵀ together with its exact checksum rows/cols computed
    /// from encoded operands (no quantisation → exact algebra).
    fn protected_product(
        q: &MatrixF32,
        k: &MatrixF32,
    ) -> (MatrixF32, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let s = gemm_nn(q, &k.transpose());
        // Column checksums of S come from row-encoding Q: c1·(Q Kᵀ).
        let qc = encode_cols(q, false);
        let q_aug = augment_rows(q, &qc);
        let full = gemm_nn(&q_aug, &k.transpose());
        let m = q.rows();
        let row1: Vec<f32> = (0..k.rows()).map(|j| full.get(m, j)).collect();
        let row2: Vec<f32> = (0..k.rows()).map(|j| full.get(m + 1, j)).collect();
        // Row checksums of S come from row-encoding K (S·r = Q·(Kᵀ r)).
        let kc = encode_cols(k, false);
        let k_aug = augment_rows(k, &kc);
        let full_r = gemm_nn(q, &k_aug.transpose());
        let n = k.rows();
        let col1: Vec<f32> = (0..m).map(|i| full_r.get(i, n)).collect();
        let col2: Vec<f32> = (0..m).map(|i| full_r.get(i, n + 1)).collect();
        (s, row1, row2, col1, col2)
    }

    #[test]
    fn clean_product_verifies_clean() {
        let mut rng = rng_from_seed(10);
        let q = normal_matrix_f16(&mut rng, 16, 8, 1.0).to_f32();
        let k = normal_matrix_f16(&mut rng, 12, 8, 1.0).to_f32();
        let (mut s, r1, r2, c1, c2) = protected_product(&q, &k);
        let rep = verify_correct_by_cols(&mut s, &r1, &r2, Check::new(1e-3, 0.0));
        assert!(rep.clean(), "{rep:?}");
        let rep = verify_correct_by_rows(&mut s, &c1, &c2, Check::new(1e-3, 0.0));
        assert!(rep.clean(), "{rep:?}");
    }

    #[test]
    fn single_error_is_located_and_corrected_by_cols() {
        let mut rng = rng_from_seed(11);
        let q = normal_matrix_f16(&mut rng, 16, 8, 1.0).to_f32();
        let k = normal_matrix_f16(&mut rng, 12, 8, 1.0).to_f32();
        let (mut s, r1, r2, _, _) = protected_product(&q, &k);
        let truth = s.clone();
        // Corrupt one element noticeably.
        let bad = s.get(5, 3) + 7.5;
        s.set(5, 3, bad);
        let rep = verify_correct_by_cols(&mut s, &r1, &r2, Check::new(1e-3, 0.0));
        assert_eq!(rep.detections, 1);
        assert_eq!(rep.corrected.len(), 1);
        assert_eq!(rep.corrected[0].row, 5);
        assert_eq!(rep.corrected[0].col, 3);
        assert!((s.get(5, 3) - truth.get(5, 3)).abs() < 1e-3);
        assert_eq!(rep.uncorrectable, 0);
    }

    #[test]
    fn single_error_is_corrected_by_rows_direction_too() {
        let mut rng = rng_from_seed(12);
        let q = normal_matrix_f16(&mut rng, 8, 8, 1.0).to_f32();
        let k = normal_matrix_f16(&mut rng, 8, 8, 1.0).to_f32();
        let (mut s, _, _, c1, c2) = protected_product(&q, &k);
        let truth = s.clone();
        s.set(2, 6, s.get(2, 6) - 3.25);
        let rep = verify_correct_by_rows(&mut s, &c1, &c2, Check::new(1e-3, 0.0));
        assert_eq!(rep.corrected.len(), 1);
        assert_eq!((rep.corrected[0].row, rep.corrected[0].col), (2, 6));
        assert!((s.get(2, 6) - truth.get(2, 6)).abs() < 1e-3);
    }

    #[test]
    fn two_errors_in_one_column_are_detected_but_miscorrectable() {
        // The traditional scheme's known weakness: two errors aliasing one
        // checksum lane produce a bogus location. The report must still
        // detect the mismatch (it may "correct" the wrong element or flag
        // uncorrectable, but it must not stay silent).
        let mut rng = rng_from_seed(13);
        let q = normal_matrix_f16(&mut rng, 16, 8, 1.0).to_f32();
        let k = normal_matrix_f16(&mut rng, 12, 8, 1.0).to_f32();
        let (mut s, r1, r2, _, _) = protected_product(&q, &k);
        s.set(1, 4, s.get(1, 4) + 5.0);
        s.set(9, 4, s.get(9, 4) + 11.0);
        let rep = verify_correct_by_cols(&mut s, &r1, &r2, Check::new(1e-3, 0.0));
        assert_eq!(rep.detections, 1);
    }

    #[test]
    fn errors_in_distinct_columns_all_corrected() {
        let mut rng = rng_from_seed(14);
        let q = normal_matrix_f16(&mut rng, 16, 8, 1.0).to_f32();
        let k = normal_matrix_f16(&mut rng, 12, 8, 1.0).to_f32();
        let (mut s, r1, r2, _, _) = protected_product(&q, &k);
        let truth = s.clone();
        s.set(0, 0, s.get(0, 0) + 2.0);
        s.set(7, 5, s.get(7, 5) - 4.0);
        s.set(15, 11, s.get(15, 11) + 9.0);
        let rep = verify_correct_by_cols(&mut s, &r1, &r2, Check::new(1e-3, 0.0));
        assert_eq!(rep.corrected.len(), 3);
        assert!(s.max_abs_diff(&truth) < 1e-3);
    }

    #[test]
    fn quantized_checksums_stay_within_f16_noise() {
        let mut rng = rng_from_seed(15);
        let a = normal_matrix_f16(&mut rng, 32, 16, 1.0).to_f32();
        let exact = encode_cols(&a, false);
        let quant = encode_cols(&a, true);
        for (e, q) in exact.c1.iter().zip(&quant.c1) {
            assert!(rel_diff(*e, *q) < 1e-3, "{e} vs {q}");
        }
    }

    #[test]
    fn augment_shapes() {
        let a = MatrixF32::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
        let cs = encode_cols(&a, false);
        let aug = augment_rows(&a, &cs);
        assert_eq!(aug.shape(), (6, 6));
        assert_eq!(aug.get(4, 0), 0.0 + 6.0 + 12.0 + 18.0);
    }

    #[test]
    fn checksum_linearity_through_gemm() {
        // (c1·Q)·Kᵀ must equal c1·(Q·Kᵀ): encoding commutes with GEMM.
        let mut rng = rng_from_seed(16);
        let q = normal_matrix_f16(&mut rng, 8, 16, 1.0).to_f32();
        let k = normal_matrix_f16(&mut rng, 8, 16, 1.0).to_f32();
        let (s, r1, _, _, _) = protected_product(&q, &k);
        #[allow(clippy::needless_range_loop)]
        for j in 0..s.cols() {
            let direct: f32 = (0..s.rows()).map(|i| s.get(i, j)).sum();
            assert!(
                (direct - r1[j]).abs() <= 1e-3 * direct.abs().max(1.0),
                "col {j}: {direct} vs {}",
                r1[j]
            );
        }
    }
}
