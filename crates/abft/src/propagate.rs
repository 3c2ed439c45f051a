//! The product check: checksum transport through the non-GEMM steps of
//! Algorithm 1.
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
//!   (lines 19–20, 25–28), the row check of [`crate::strided`].
//!
//! The first two steps and the comparison are one function,
//! [`verify_products`]: the EFTA step and the Fig. 14 campaigns both call
//! it.

use crate::strided::{fold_row, StridedMismatch};
use crate::thresholds::Check;
use ft_num::{expf_slice, MatrixF32};

/// The product check (Algorithm 1 line 13) of every row of `p`: row `i`'s
/// carried GEMM I checksum (the first `se` lanes of row `i` of `c1`, one
/// value per residue class), transported through the subtraction of its
/// row max `m[i]` and the exponential, against the strided products of its
/// first `w` columns of `p`, `(w, se) = shape(i)`. Returns the mismatches
/// row-major, each with `delta1 = product − transported` and `delta2 =
/// product / transported`.
///
/// Product-domain checks *detect* but cannot linearly *locate* an erroneous
/// exponential — the paper corrects EXP faults by recomputation, so the
/// mismatch carries the residue class for targeted recompute.
#[inline]
pub fn verify_products(
    (p, c1): (&MatrixF32, &MatrixF32),
    m: &[f32],
    shape: impl Fn(usize) -> (usize, usize),
    chk: Check,
) -> Vec<StridedMismatch> {
    // Row-major `rows × lanes` buffers; a lane past a row's `se` keeps a
    // product of 1 against a transported `exp(0) = 1`, which never fires.
    let (rows, lanes) = c1.shape();
    let mut prods = vec![1.0f32; rows * lanes];
    let mut want = vec![0.0f32; rows * lanes];
    let per_row = prods
        .chunks_exact_mut(lanes)
        .zip(want.chunks_exact_mut(lanes));
    for (i, (prods, want)) in per_row.enumerate() {
        let (w, se) = shape(i);
        fold_row(&p.row(i)[..w], &mut prods[..se], |acc, _, x| acc * x);
        // Lane `t` holds ⌈(w − t)/se⌉ of the row's columns: ⌊w/se⌋, and one
        // more below `w mod se`.
        let (full, extra) = (w / se, w % se);
        let (sub_lo, sub_hi) = (full as f32 * m[i], (full + 1) as f32 * m[i]);
        for (t, (v, &c)) in want[..se].iter_mut().zip(c1.row(i)).enumerate() {
            *v = c - if t < extra { sub_hi } else { sub_lo };
        }
    }
    // Every row's transported checksums through the exponential at once,
    // then every lane checked at once; only a block with a mismatch is
    // walked lane by lane.
    expf_slice(&mut want);
    let fired = |(&got, &want): (&f32, &f32)| chk.detects(got, want);
    if !prods
        .iter()
        .zip(&want)
        .fold(false, |any, lane| any | fired(lane))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..rows {
        let at = i * lanes..i * lanes + shape(i).1;
        for (t, (&got, &want)) in prods[at.clone()].iter().zip(&want[at]).enumerate() {
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
    use crate::strided::encode_rows_strided;
    use crate::thresholds::Thresholds;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_num::{expf, Matrix};
    use ft_sim::gemm_nn;
    use proptest::prelude::*;

    /// The product check as a matrix pipeline, one step per pass: every
    /// row's first `se` checksum lanes lose `count_t · m_i`, go through the
    /// exponential, and are compared with the strided products of the row's
    /// first `w` columns — the oracle [`verify_products`] is pinned to.
    fn matrix_pipeline(
        (p, c1): (&MatrixF32, &MatrixF32),
        m: &[f32],
        (w, se): (usize, usize),
        chk: Check,
    ) -> Vec<StridedMismatch> {
        let counts: Vec<usize> = (0..se)
            .map(|t| if t < w { (w - t).div_ceil(se) } else { 0 })
            .collect();
        let mut want =
            Matrix::from_fn(c1.rows(), se, |i, t| c1.get(i, t) - counts[t] as f32 * m[i]);
        expf_slice(want.as_mut_slice());
        let mut prods = Matrix::from_fn(p.rows(), se, |_, _| 1.0f32);
        for i in 0..p.rows() {
            fold_row(&p.row(i)[..w], prods.row_mut(i), |acc, _, v| acc * v);
        }
        let mut out = Vec::new();
        for i in 0..prods.rows() {
            for t in 0..se {
                let (got, want) = (prods.get(i, t), want.get(i, t));
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

    fn row_max(row: &[f32]) -> f32 {
        row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    #[test]
    fn row_product_check_is_the_matrix_pipeline() {
        // The same mismatches, deltas bit for bit, at every width and lane
        // count an EFTA step meets (a frontier prefix shorter than the
        // stride included), on clean rows and on rows with a corrupted or
        // non-finite exponential.
        let chk = Thresholds::calibrated().exp_product;
        for (w, se) in [(64, 8), (20, 8), (8, 8), (5, 5), (1, 1), (37, 3)] {
            let s = Matrix::from_fn(4, w, |i, j| ((i * 31 + j * 7) % 17) as f32 * 0.3 - 2.0);
            let m: Vec<f32> = (0..4).map(|i| row_max(s.row(i))).collect();
            let mut p = Matrix::from_fn(4, w, |i, j| (s.get(i, j) - m[i]).exp());
            let c1 = Matrix::from_fn(4, se, |i, t| (t..w).step_by(se).map(|j| s.get(i, j)).sum());
            p.set(1, w / 2, p.get(1, w / 2) * 3.0);
            p.set(2, w - 1, f32::NAN);
            let want = matrix_pipeline((&p, &c1), &m, (w, se), chk);
            let got = verify_products((&p, &c1), &m, |_| (w, se), chk);
            let key = |v: &[StridedMismatch]| {
                v.iter()
                    .map(|mm| (mm.i, mm.t, mm.delta1.to_bits(), mm.delta2.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&got), key(&want), "width {w}, lanes {se}");
            assert!(!want.is_empty());
        }
    }

    /// Full transport chain: S → S−m → exp, checked against direct P.
    #[test]
    fn exp_transport_matches_strided_products() {
        let mut rng = rng_from_seed(30);
        let q = normal_matrix_f16(&mut rng, 8, 16, 0.4).to_f32();
        let k = normal_matrix_f16(&mut rng, 16, 16, 0.4).to_f32();
        let cs = encode_rows_strided(&k, 8, false);
        let s_mat = gemm_nn(&q, &k.transpose());
        let s_c1 = gemm_nn(&q, &cs.w1.transpose());

        // Row max and stabilised softmax numerator.
        let m: Vec<f32> = (0..s_mat.rows()).map(|i| row_max(s_mat.row(i))).collect();
        let p = MatrixF32::from_fn(s_mat.rows(), s_mat.cols(), |i, j| {
            expf(s_mat.get(i, j) - m[i])
        });
        let shape = |_| (s_mat.cols(), 8);
        // Multiplicative invariant holds within fp noise on every lane.
        let tight = Check::new(1e-4, 0.0);
        assert!(verify_products((&p, &s_c1), &m, shape, tight).is_empty());
        // And a corrupted exponential is caught.
        let mut p_bad = p.clone();
        p_bad.set(3, 5, p_bad.get(3, 5) * 1.5);
        let mism = verify_products((&p_bad, &s_c1), &m, shape, Check::new(1e-3, 0.0));
        assert_eq!(mism.len(), 1);
        assert_eq!((mism[0].i, mism[0].t), (3, 5));
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
            // A zero checksum at a zero row max transports to exp(0) = 1,
            // so a check that always fires reports each product itself.
            let (c1, m) = (MatrixF32::zeros(rows, s), vec![0.0; rows]);
            let always = Check::new(-1.0, -1.0);
            let got = verify_products((&p, &c1), &m, |_| (cols, s), always);
            let bits: Vec<u32> = got.iter().map(|mm| mm.delta2.to_bits()).collect();
            let want: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits, want);
        }
    }
}
