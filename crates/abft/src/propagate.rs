//! Checksum transport through the non-GEMM steps of Algorithm 1.
//!
//! The unified-verification optimisation (paper §3.4) reuses one tensor
//! checksum across a chain of operations instead of re-encoding after each:
//!
//! * **max subtraction** — `S_c1[i][t]` is a sum of `count_t` score values,
//!   so subtracting the row max `m_i` from every score subtracts
//!   `count_t · m_i` from the checksum (Algorithm 1 line 12);
//! * **exponentiation** — `exp` turns the additive invariant into a
//!   multiplicative one: `exp(S_c1[i][t] − count_t·m_i) = ∏_l P[i][t+s·l]`
//!   (the product check of line 13);
//! * **rescale / normalise** — both are row-wise scalar multiplies, which
//!   commute with strided column sums, so the same transformation applied to
//!   `O` and `O_c1` preserves the invariant until the single final check
//!   (lines 19–20, 25–28).

// Index-based loops are kept deliberately: they mirror the thread/lane
// structure of the GPU kernels this module models.
#![allow(clippy::needless_range_loop)]

use crate::strided::{fold_row, StridedMismatch};
use crate::thresholds::Check;
use ft_num::{expf_slice, Matrix, MatrixF32};

/// Number of elements folded into residue class `t` when an extent of
/// `extent` columns is folded at stride `s`:
/// `count[t] = |{l : t + s·l < extent}|`.
pub fn residue_counts(extent: usize, s: usize) -> Vec<usize> {
    (0..s)
        .map(|t| {
            if t < extent {
                (extent - t).div_ceil(s)
            } else {
                0
            }
        })
        .collect()
}

/// Apply the max-subtraction transport: `check[i][t] −= count_t · m_i`.
pub fn transport_subtract_max(check: &mut MatrixF32, row_max: &[f32], counts: &[usize]) {
    assert_eq!(check.rows(), row_max.len());
    assert_eq!(check.cols(), counts.len());
    for i in 0..check.rows() {
        let m = row_max[i];
        let row = check.row_mut(i);
        for (t, v) in row.iter_mut().enumerate() {
            *v -= counts[t] as f32 * m;
        }
    }
}

/// Element-wise exponential of a checksum matrix (the transported checksum
/// enters the product domain).
pub fn transport_exp(check: &MatrixF32) -> MatrixF32 {
    let mut out = check.clone();
    expf_slice(out.as_mut_slice());
    out
}

/// Strided *products* of `p`: `out[i][t] = ∏_l p[i][t + s·l]`, each lane
/// multiplied in ascending `l` from `1.0`, one row at a time through
/// [`fold_row`].
pub fn strided_products(p: &MatrixF32, s: usize) -> MatrixF32 {
    let mut out = Matrix::from_fn(p.rows(), s, |_, _| 1.0f32);
    for i in 0..p.rows() {
        fold_row(p.row(i), out.row_mut(i), |acc, _, v| acc * v);
    }
    out
}

/// Compare strided products of `p` against the transported checksum
/// `p_check` and report residue classes whose product diverges beyond `tau`
/// (the ε₁ check of Algorithm 1 line 13).
///
/// Product-domain checks *detect* but cannot linearly *locate* an erroneous
/// exponential — the paper corrects EXP faults by recomputation, so the
/// mismatch carries the residue class for targeted recompute.
pub fn verify_products(
    p: &MatrixF32,
    p_check: &MatrixF32,
    s: usize,
    chk: Check,
) -> Vec<StridedMismatch> {
    let prods = strided_products(p, s);
    assert_eq!(prods.shape(), p_check.shape());
    let mut out = Vec::new();
    for i in 0..prods.rows() {
        for t in 0..s {
            let got = prods.get(i, t);
            let want = p_check.get(i, t);
            if chk.detects(got, want) {
                out.push(StridedMismatch {
                    i,
                    t,
                    delta1: got - want,
                    delta2: if want != 0.0 {
                        got / want
                    } else {
                        f32::INFINITY
                    },
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strided::{encode_rows_strided, strided_sums};
    use crate::thresholds::rel_diff;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::gemm_nn;
    use proptest::prelude::*;

    #[test]
    fn residue_counts_exact() {
        assert_eq!(residue_counts(16, 8), vec![2; 8]);
        assert_eq!(residue_counts(20, 8), vec![3, 3, 3, 3, 2, 2, 2, 2]);
        assert_eq!(residue_counts(8, 8), vec![1; 8]);
        assert_eq!(residue_counts(4, 8), vec![1, 1, 1, 1, 0, 0, 0, 0]);
    }

    /// Full transport chain: S → S−m → exp, checked against direct P.
    #[test]
    fn exp_transport_matches_strided_products() {
        let mut rng = rng_from_seed(30);
        let q = normal_matrix_f16(&mut rng, 8, 16, 0.4).to_f32();
        let k = normal_matrix_f16(&mut rng, 16, 16, 0.4).to_f32();
        let cs = encode_rows_strided(&k, 8, false);
        let s_mat = gemm_nn(&q, &k.transpose());
        let mut s_c1 = gemm_nn(&q, &cs.w1.transpose());

        // Row max and stabilised softmax numerator.
        let row_max: Vec<f32> = (0..s_mat.rows())
            .map(|i| {
                s_mat
                    .row(i)
                    .iter()
                    .cloned()
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .collect();
        let p = MatrixF32::from_fn(s_mat.rows(), s_mat.cols(), |i, j| {
            (s_mat.get(i, j) - row_max[i]).exp()
        });

        let counts = residue_counts(s_mat.cols(), 8);
        transport_subtract_max(&mut s_c1, &row_max, &counts);
        let p_c1 = transport_exp(&s_c1);
        let direct = strided_products(&p, 8);
        // Multiplicative invariant holds within fp noise.
        for i in 0..direct.rows() {
            for t in 0..8 {
                assert!(
                    rel_diff(direct.get(i, t), p_c1.get(i, t)) < 1e-4,
                    "({i},{t}): {} vs {}",
                    direct.get(i, t),
                    p_c1.get(i, t)
                );
            }
        }
        // And a corrupted exponential is caught.
        let mut p_bad = p.clone();
        p_bad.set(3, 5, p_bad.get(3, 5) * 1.5);
        let mism = verify_products(&p_bad, &p_c1, 8, Check::new(1e-3, 0.0));
        assert_eq!(mism.len(), 1);
        assert_eq!((mism[0].i, mism[0].t), (3, 5));
    }

    #[test]
    fn verify_products_clean_is_silent() {
        let p = MatrixF32::from_fn(4, 16, |i, j| 0.1 + 0.01 * (i * 16 + j) as f32);
        let check = strided_products(&p, 8);
        assert!(verify_products(&p, &check, 8, Check::new(1e-6, 0.0)).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_group_products_are_the_per_element_definition_bit_for_bit(
            rows in 1usize..6,
            cols in 1usize..70,
            s in 1usize..9,
            seed in 0u64..1000,
        ) {
            // Factors near 1, like exponentials of a stabilised row.
            let mut rng = rng_from_seed(seed);
            let noise = normal_matrix_f16(&mut rng, rows, cols, 0.3).to_f32();
            let p = MatrixF32::from_fn(rows, cols, |i, j| 1.0 + noise.get(i, j));
            let mut want = Matrix::from_fn(rows, s, |_, _| 1.0f32);
            for (i, j, v) in p.iter_indexed() {
                want.set(i, j % s, want.get(i, j % s) * v);
            }
            let bits = |x: &MatrixF32| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&strided_products(&p, s)), bits(&want));
        }
    }

    #[test]
    fn transport_subtract_handles_ragged_counts() {
        // 12 columns, stride 8: residues 0..4 have 2 elements, 4..8 have 1.
        let s_mat = MatrixF32::from_fn(2, 12, |i, j| (i * 12 + j) as f32 * 0.1);
        let check = strided_sums(&s_mat, 8);
        let mut transported = check.clone();
        let row_max = vec![1.0, 2.0];
        let counts = residue_counts(12, 8);
        transport_subtract_max(&mut transported, &row_max, &counts);
        // Direct: fold the subtracted matrix.
        let sub = MatrixF32::from_fn(2, 12, |i, j| s_mat.get(i, j) - row_max[i]);
        let direct = strided_sums(&sub, 8);
        assert!(transported.max_abs_diff(&direct) < 1e-5);
    }
}
