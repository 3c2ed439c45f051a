//! Strided tensor-checksum ABFT (paper §3.3, Eqs. 12–15).
//!
//! The 64×16×16 TiledMMA layout places output elements whose column indices
//! differ by 8 on the *same thread*, so a checksum that sums elements at
//! stride 8 can be encoded, carried, and verified entirely within one
//! thread's registers — no shuffles, no shared-memory traffic. This module
//! implements that checksum algebra on matrices:
//!
//! * for GEMM I (`S = Q·Kᵀ`): K's **rows** are folded in groups of stride
//!   `s` — `K_c1[t] = Σ_l K[t + s·l]`, `K_c2[t] = Σ_l (l+1)·K[t + s·l]` —
//!   giving an `s × d` pair appended (transposed) as extra columns of Kᵀ:
//!   the column fold of `Kᵀ` below, lane for lane. After the GEMM,
//!   `S_c1[i][t] = Σ_l S[i][t + s·l]` must hold.
//! * for GEMM II (`O = P·V`): V's **columns** are folded the same way,
//!   giving `B × s` checksum operands and the invariant
//!   `O_c1[i][t] = Σ_l O[i][t + s·l]`.
//!
//! Because the checksum is `s` elements wide, up to `s` errors per row are
//! independently correctable as long as their columns fall in distinct
//! residue classes mod `s` — the paper's "up to a factor of 8" multi-error
//! claim, pinned by tests below.
//!
//! At `s = 1` the fold is the traditional Huang–Abraham element checksum
//! (§3.1, Eqs. 8–9): one plain and one index-weighted sum per row or
//! column. The decoupled baseline checks its products that way, through
//! the same encoders, [`verify_strided`] / [`verify_correct_cols_strided`]
//! and the one locate rule, [`locate_group`].
//!
//! Note on the locate ratio: with 0-based group index `l` and second-weight
//! `l+1`, a single error in group `l₀` yields `Δ2/Δ1 = l₀ + 1`, so the
//! corrupted column is `t + s·(round(Δ2/Δ1) − 1)`. (The paper's Eq. in
//! §3.3 omits the −1 under its own weight definition; see DESIGN.md §4.)

use crate::thresholds::Check;
use ft_num::{quantize_f32, Matrix, MatrixF32};

/// Stride aligned to the MMA atom N dimension (8 for m16n8k16).
pub const DEFAULT_STRIDE: usize = 8;

/// A pair of strided checksum operands plus their geometry.
#[derive(Clone, Debug, PartialEq)]
pub struct StridedChecksums {
    /// Plain-weight checksum operand.
    pub w1: MatrixF32,
    /// Group-weighted checksum operand (weights `l+1`).
    pub w2: MatrixF32,
    /// Stride `s` (checksum width).
    pub stride: usize,
    /// Number of groups folded (`⌈extent/s⌉`).
    pub groups: usize,
}

/// Fold the **rows** of `k` (a `B × d` block) in stride-`s` groups:
/// output operands are `s × d`, GEMM I's (QKᵀ) checksums by definition.
/// Transposed, they are bit for bit the column fold of `kᵀ`
/// ([`encode_cols_strided`]), which is how every kernel encodes them.
///
/// `quantize` rounds the encoded operands through binary16, modelling their
/// storage as FP16 tensor-core operands.
///
/// Rows are added whole, in order: row `r` goes into lane `r mod s`, so
/// every lane element sums its group's values in ascending `l` from `0.0`
/// while a row's `d` columns update side by side.
pub fn encode_rows_strided(k: &MatrixF32, s: usize, quantize: bool) -> StridedChecksums {
    let (b, d) = k.shape();
    assert!(s > 0 && s <= b, "stride {s} out of range for {b} rows");
    let groups = b.div_ceil(s);
    let mut w1 = Matrix::zeros(s, d);
    let mut w2 = Matrix::zeros(s, d);
    for r in 0..b {
        let (t, wl) = (r % s, (r / s + 1) as f32);
        for (acc, &v) in w1.row_mut(t).iter_mut().zip(k.row(r)) {
            *acc += v;
        }
        for (acc, &v) in w2.row_mut(t).iter_mut().zip(k.row(r)) {
            *acc += wl * v;
        }
    }
    if quantize {
        for v in w1.as_mut_slice().iter_mut().chain(w2.as_mut_slice()) {
            *v = quantize_f32(*v);
        }
    }
    StridedChecksums {
        w1,
        w2,
        stride: s,
        groups,
    }
}

/// Fold the **columns** of `v` (a `B × d` block) in stride-`s` groups:
/// output operands are `B × s`. Used for every k-major operand: V (GEMM
/// II), `Kᵀ` (GEMM I) and `Wᵀ` (the linears). The fold is the
/// verification-side one ([`strided_sums`], [`strided_sums_weighted`]), so
/// encode and verify sum every lane in the same order.
pub fn encode_cols_strided(v: &MatrixF32, s: usize, quantize: bool) -> StridedChecksums {
    let d = v.cols();
    assert!(s > 0 && s <= d, "stride {s} out of range for {d} cols");
    let (mut w1, mut w2) = (strided_sums(v, s), strided_sums_weighted(v, s));
    if quantize {
        for x in w1.as_mut_slice().iter_mut().chain(w2.as_mut_slice()) {
            *x = quantize_f32(*x);
        }
    }
    StridedChecksums {
        w1,
        w2,
        stride: s,
        groups: d.div_ceil(s),
    }
}

/// Strided column sums of `c`: `out[i][t] = Σ_l c[i][t + s·l]` — the
/// "intra-thread addition" a lane performs over its own registers.
pub fn strided_sums(c: &MatrixF32, s: usize) -> MatrixF32 {
    fold_groups(c, s, |_, v| v)
}

/// Weighted strided sums: `out[i][t] = Σ_l (l+1)·c[i][t + s·l]`.
pub fn strided_sums_weighted(c: &MatrixF32, s: usize) -> MatrixF32 {
    fold_groups(c, s, |w, v| w * v)
}

/// `out[i][t] = Σ_l term(l+1, c[i][t + s·l])`, each lane summed in
/// ascending `l` from `0.0`, one row at a time through [`fold_row`]. At
/// `s = 1` (the element checksum) each row is one chain, folded directly:
/// `fold_row`'s general lane loop is several times slower there.
fn fold_groups(c: &MatrixF32, s: usize, term: impl Fn(f32, f32) -> f32 + Copy) -> MatrixF32 {
    let mut out = Matrix::zeros(c.rows(), s);
    if s == 1 {
        for (i, lane) in out.as_mut_slice().iter_mut().enumerate() {
            let row = c.row(i).iter().enumerate();
            *lane = row.fold(0.0, |acc, (j, &v)| acc + term((j + 1) as f32, v));
        }
        return out;
    }
    for i in 0..c.rows() {
        fold_row(c.row(i), out.row_mut(i), |acc, w, v| acc + term(w, v));
    }
    out
}

/// Fold `row` into `lanes` one group of `s = lanes.len()` columns at a
/// time, in ascending group order: lane `t` becomes `op(lane, l + 1, x)`
/// for each `x = row[t + s·l]`. Every lane keeps its own order while the
/// lanes update side by side — the strided checksum folds (`op` adding a
/// weighted term) and the strided products (`op` multiplying) of one row.
/// Eight lanes are accumulated in one register-resident array.
pub fn fold_row(row: &[f32], lanes: &mut [f32], op: impl Fn(f32, f32, f32) -> f32 + Copy) {
    fn groups<const S: usize>(
        row: &[f32],
        lanes: &mut [f32; S],
        op: impl Fn(f32, f32, f32) -> f32,
    ) {
        let mut acc = *lanes;
        let mut chunks = row.chunks_exact(S);
        for (l, group) in (&mut chunks).enumerate() {
            let w = (l + 1) as f32;
            for (a, &x) in acc.iter_mut().zip(group) {
                *a = op(*a, w, x);
            }
        }
        let w = (row.len() / S + 1) as f32;
        for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
            *a = op(*a, w, x);
        }
        *lanes = acc;
    }
    match <&mut [f32; 8]>::try_from(&mut *lanes) {
        Ok(lanes) => groups(row, lanes, op),
        Err(_) => {
            for (l, group) in row.chunks(lanes.len()).enumerate() {
                let w = (l + 1) as f32;
                for (a, &x) in lanes.iter_mut().zip(group) {
                    *a = op(*a, w, x);
                }
            }
        }
    }
}

/// One strided-checksum mismatch: line `i`, residue class `t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StridedMismatch {
    /// Checked line: the output row of a row check ([`verify_strided`]),
    /// the output column of a column check ([`verify_correct_cols_strided`]).
    pub i: usize,
    /// Residue class: the checksum lane (its column in a row check, its row
    /// in a column check).
    pub t: usize,
    /// Plain discrepancy (observed strided sum − checksum).
    pub delta1: f32,
    /// Weighted discrepancy.
    pub delta2: f32,
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

/// Compare the strided sums of `c` against checksum results `check1` /
/// `check2` (each `rows × s`) and report mismatches above `tau`.
pub fn verify_strided(
    c: &MatrixF32,
    check1: &MatrixF32,
    check2: &MatrixF32,
    s: usize,
    chk: Check,
) -> Vec<StridedMismatch> {
    let sums1 = strided_sums(c, s);
    let sums2 = strided_sums_weighted(c, s);
    assert_eq!(check1.shape(), sums1.shape(), "checksum shape mismatch");
    assert_eq!(check2.shape(), sums2.shape(), "checksum shape mismatch");
    let mut out = Vec::new();
    for i in 0..sums1.rows() {
        for t in 0..s {
            let got = sums1.get(i, t);
            let want = check1.get(i, t);
            if chk.detects(got, want) {
                out.push(StridedMismatch {
                    i,
                    t,
                    delta1: got - want,
                    delta2: sums2.get(i, t) - check2.get(i, t),
                });
            }
        }
    }
    out
}

/// The locate rule: a single error in group `l` perturbs a lane's plain
/// checksum by `Δ1` and its weighted one by `(l+1)·Δ1`, so
/// `l = round(Δ2/Δ1) − 1`. `None` when the ratio is non-finite, a quarter
/// or more from an integer (multi-error aliasing), or names a group below
/// zero. The result is unbounded above (a wildly corrupted ratio saturates
/// the cast): callers test `t + s·l` against their extent with checked
/// arithmetic.
pub fn locate_group(delta1: f32, delta2: f32) -> Option<usize> {
    let ratio = delta2 / delta1;
    let nearest = ratio.round();
    (ratio.is_finite() && (ratio - nearest).abs() < 0.25 && nearest >= 1.0)
        .then(|| nearest as usize - 1)
}

/// Locate each mismatch's corrupted element via [`locate_group`] and
/// correct it in place. Mismatches whose ratio does not identify a valid
/// column are counted `uncorrectable` (the caller recomputes).
pub fn correct_strided(c: &mut MatrixF32, mismatches: &[StridedMismatch], s: usize) -> AbftReport {
    correct_lines(c, mismatches, s, c.cols(), |m, col| (m.i, col))
}

/// Column-direction dual of [`verify_strided`] + [`correct_strided`]: fold
/// `c`'s rows in stride-`s` groups ([`encode_rows_strided`], the encoder of
/// the checksum rows `check1` / `check2`, each `s × cols`), flag the lanes
/// `chk` detects, then locate each flagged lane's row with [`locate_group`]
/// and correct it in place. At `s = 1` this is the element checksum's
/// column check (paper Eqs. 8–9).
pub fn verify_correct_cols_strided(
    c: &mut MatrixF32,
    check1: &MatrixF32,
    check2: &MatrixF32,
    s: usize,
    chk: Check,
) -> AbftReport {
    let sums = encode_rows_strided(c, s, false);
    assert_eq!(check1.shape(), sums.w1.shape(), "checksum shape mismatch");
    assert_eq!(check2.shape(), sums.w2.shape(), "checksum shape mismatch");
    let mut mismatches = Vec::new();
    for j in 0..c.cols() {
        for t in 0..s {
            let (got, want) = (sums.w1.get(t, j), check1.get(t, j));
            if chk.detects(got, want) {
                mismatches.push(StridedMismatch {
                    i: j,
                    t,
                    delta1: got - want,
                    delta2: sums.w2.get(t, j) - check2.get(t, j),
                });
            }
        }
    }
    correct_lines(c, &mismatches, s, c.rows(), |m, row| (row, m.i))
}

/// The one correction loop: each mismatch's element `t + s·l` along its
/// line of `extent` elements (`l` from [`locate_group`], with checked
/// arithmetic), placed in `c` by `at(mismatch, index) → (row, col)`, is
/// corrected by its plain discrepancy; the rest count `uncorrectable`.
fn correct_lines(
    c: &mut MatrixF32,
    mismatches: &[StridedMismatch],
    s: usize,
    extent: usize,
    at: impl Fn(&StridedMismatch, usize) -> (usize, usize),
) -> AbftReport {
    let mut report = AbftReport {
        detections: mismatches.len(),
        ..Default::default()
    };
    for m in mismatches {
        let index = locate_group(m.delta1, m.delta2)
            .and_then(|l| s.checked_mul(l))
            .and_then(|off| off.checked_add(m.t))
            .filter(|&x| x < extent);
        if let Some(index) = index {
            let (row, col) = at(m, index);
            let fixed = c.get(row, col) - m.delta1;
            c.set(row, col, fixed);
            report.corrected.push(ErrorLoc {
                row,
                col,
                delta: m.delta1,
            });
        } else {
            report.uncorrectable += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::gemm_nn;
    use proptest::prelude::*;

    /// S = Q·Kᵀ with exact strided checksum results S_c1, S_c2 computed the
    /// way the kernel does: GEMM against encoded operands.
    fn protected_qkt(q: &MatrixF32, k: &MatrixF32, s: usize) -> (MatrixF32, MatrixF32, MatrixF32) {
        let cs = encode_rows_strided(k, s, false);
        let s_mat = gemm_nn(q, &k.transpose());
        let s_c1 = gemm_nn(q, &cs.w1.transpose());
        let s_c2 = gemm_nn(q, &cs.w2.transpose());
        (s_mat, s_c1, s_c2)
    }

    /// S = Q·Kᵀ with its column-check rows, computed the same way from
    /// Q's row fold: `(Q_c1·Kᵀ, Q_c2·Kᵀ)`, each `s × n`.
    fn protected_qkt_cols(
        q: &MatrixF32,
        k: &MatrixF32,
        s: usize,
    ) -> (MatrixF32, MatrixF32, MatrixF32) {
        let cs = encode_rows_strided(q, s, false);
        let kt = k.transpose();
        (gemm_nn(q, &kt), gemm_nn(&cs.w1, &kt), gemm_nn(&cs.w2, &kt))
    }

    /// Verify `c` against its checksum results, then correct it in place.
    fn verify_and_correct(
        c: &mut MatrixF32,
        check1: &MatrixF32,
        check2: &MatrixF32,
        s: usize,
        chk: Check,
    ) -> AbftReport {
        let mismatches = verify_strided(c, check1, check2, s, chk);
        correct_strided(c, &mismatches, s)
    }

    #[test]
    fn checksum_invariant_holds_error_free() {
        // Eq. 14: S_c1[i][t] == Σ_l S[i][t+s·l] up to rounding.
        let mut rng = rng_from_seed(20);
        let q = normal_matrix_f16(&mut rng, 16, 32, 0.5).to_f32();
        let k = normal_matrix_f16(&mut rng, 24, 32, 0.5).to_f32();
        let (s_mat, s_c1, s_c2) = protected_qkt(&q, &k, 8);
        let sums1 = strided_sums(&s_mat, 8);
        let sums2 = strided_sums_weighted(&s_mat, 8);
        assert!(
            sums1.max_abs_diff(&s_c1) < 1e-3,
            "{}",
            sums1.max_abs_diff(&s_c1)
        );
        assert!(sums2.max_abs_diff(&s_c2) < 1e-2);
        // Stride 1, column direction: (c1·Q)·Kᵀ = c1·(Q·Kᵀ) — the element
        // checksum's encoding commutes with the GEMM.
        let (s_mat, r1, r2) = protected_qkt_cols(&q, &k, 1);
        let folded = encode_rows_strided(&s_mat, 1, false);
        assert!(folded.w1.max_abs_diff(&r1) < 1e-3);
        assert!(folded.w2.max_abs_diff(&r2) < 1e-2);
    }

    #[test]
    fn verify_clean_reports_nothing() {
        let mut rng = rng_from_seed(21);
        let q = normal_matrix_f16(&mut rng, 16, 16, 0.5).to_f32();
        let k = normal_matrix_f16(&mut rng, 16, 16, 0.5).to_f32();
        for s in [8, 1] {
            let (s_mat, c1, c2) = protected_qkt(&q, &k, s);
            assert!(verify_strided(&s_mat, &c1, &c2, s, Check::new(1e-2, 0.0)).is_empty());
            let (mut s_mat, r1, r2) = protected_qkt_cols(&q, &k, s);
            let rep = verify_correct_cols_strided(&mut s_mat, &r1, &r2, s, Check::new(1e-2, 0.0));
            assert!(rep.clean(), "stride {s}: {rep:?}");
        }
    }

    #[test]
    fn single_error_located_in_correct_group() {
        let mut rng = rng_from_seed(22);
        let q = normal_matrix_f16(&mut rng, 16, 16, 0.5).to_f32();
        let k = normal_matrix_f16(&mut rng, 32, 16, 0.5).to_f32();
        // At stride 8, column 19 = residue 3, group 2 (l0 = 2, ratio 3); at
        // stride 1 (the element checksum) the row check's ratio is 20 and
        // the column check's 7.
        for s in [8, 1] {
            let (mut s_mat, c1, c2) = protected_qkt(&q, &k, s);
            let truth = s_mat.clone();
            s_mat.set(6, 19, s_mat.get(6, 19) + 4.0);
            let rep = verify_and_correct(&mut s_mat, &c1, &c2, s, Check::new(1e-2, 0.0));
            assert_eq!(rep.detections, 1);
            assert_eq!(rep.corrected.len(), 1);
            assert_eq!((rep.corrected[0].row, rep.corrected[0].col), (6, 19));
            assert!(s_mat.max_abs_diff(&truth) < 1e-2);
        }
        let (mut s_mat, r1, r2) = protected_qkt_cols(&q, &k, 1);
        let truth = s_mat.clone();
        s_mat.set(6, 19, s_mat.get(6, 19) - 3.25);
        let rep = verify_correct_cols_strided(&mut s_mat, &r1, &r2, 1, Check::new(1e-3, 0.0));
        assert_eq!((rep.detections, rep.uncorrectable), (1, 0));
        assert_eq!(rep.corrected.len(), 1);
        assert_eq!((rep.corrected[0].row, rep.corrected[0].col), (6, 19));
        assert!(s_mat.max_abs_diff(&truth) < 1e-3);
    }

    #[test]
    fn eight_errors_in_one_row_distinct_residues_all_corrected() {
        // The paper's multi-error claim: stride-8 checksums fix up to 8
        // errors per row when residues differ.
        let mut rng = rng_from_seed(23);
        let q = normal_matrix_f16(&mut rng, 16, 16, 0.5).to_f32();
        let k = normal_matrix_f16(&mut rng, 32, 16, 0.5).to_f32();
        let (mut s_mat, c1, c2) = protected_qkt(&q, &k, 8);
        let truth = s_mat.clone();
        for t in 0..8 {
            let col = t + 8 * (t % 4); // residues 0..8, varying groups
            s_mat.set(9, col, s_mat.get(9, col) + 3.0 + t as f32);
        }
        let rep = verify_and_correct(&mut s_mat, &c1, &c2, 8, Check::new(1e-2, 0.0));
        assert_eq!(rep.corrected.len(), 8);
        assert_eq!(rep.uncorrectable, 0);
        assert!(s_mat.max_abs_diff(&truth) < 1e-2);
        // The element checksum's one lane per line, column direction: one
        // error in each of three columns, all corrected.
        let (mut s_mat, r1, r2) = protected_qkt_cols(&q, &k, 1);
        let truth = s_mat.clone();
        s_mat.set(0, 0, s_mat.get(0, 0) + 2.0);
        s_mat.set(7, 5, s_mat.get(7, 5) - 4.0);
        s_mat.set(15, 11, s_mat.get(15, 11) + 9.0);
        let rep = verify_correct_cols_strided(&mut s_mat, &r1, &r2, 1, Check::new(1e-3, 0.0));
        assert_eq!((rep.corrected.len(), rep.uncorrectable), (3, 0));
        assert!(s_mat.max_abs_diff(&truth) < 1e-3);
    }

    #[test]
    fn two_errors_same_residue_flagged_not_silently_miscorrected() {
        let mut rng = rng_from_seed(24);
        let q = normal_matrix_f16(&mut rng, 16, 16, 0.5).to_f32();
        let k = normal_matrix_f16(&mut rng, 32, 16, 0.5).to_f32();
        let (mut s_mat, c1, c2) = protected_qkt(&q, &k, 8);
        // Columns 3 and 11: same residue 3, groups 0 and 1. Equal-magnitude
        // injections give ratio (1·e + 2·e)/(2e) = 1.5 — rejected as
        // implausible, counted uncorrectable.
        s_mat.set(2, 3, s_mat.get(2, 3) + 5.0);
        s_mat.set(2, 11, s_mat.get(2, 11) + 5.0);
        let rep = verify_and_correct(&mut s_mat, &c1, &c2, 8, Check::new(1e-2, 0.0));
        assert_eq!(rep.detections, 1);
        assert_eq!(rep.uncorrectable, 1);
        assert!(rep.corrected.is_empty());
        // The element checksum's known weakness, column direction: rows 1
        // and 9 of column 4 alias one lane with ratio (2·5 + 10·11)/16 =
        // 7.5, which would round to a bogus row 6. Flagged, not "corrected".
        let (mut s_mat, r1, r2) = protected_qkt_cols(&q, &k, 1);
        s_mat.set(1, 4, s_mat.get(1, 4) + 5.0);
        s_mat.set(9, 4, s_mat.get(9, 4) + 11.0);
        let rep = verify_correct_cols_strided(&mut s_mat, &r1, &r2, 1, Check::new(1e-3, 0.0));
        assert_eq!((rep.detections, rep.uncorrectable), (1, 1));
        assert!(rep.corrected.is_empty());
    }

    #[test]
    fn locate_rule_survives_wild_ratios() {
        assert_eq!(locate_group(2.0, 6.0), Some(2));
        assert_eq!(locate_group(2.0, 3.0), None, "ratio 1.5: aliased pair");
        assert_eq!(locate_group(2.0, 0.0), None, "group below zero");
        assert_eq!(locate_group(0.0, 1.0), None);
        assert_eq!(locate_group(f32::NAN, 1.0), None);
        // Finite but far outside any index type: no overflow on the way to
        // rejection, in `locate_group` or in the caller's column arithmetic.
        assert_eq!(locate_group(1.0, -1e30), None);
        assert!(locate_group(1.0, 1e30).is_some());
        let mut c = MatrixF32::zeros(1, 16);
        for delta2 in [-1e30, 1e30] {
            let wild = StridedMismatch {
                i: 0,
                t: 3,
                delta1: 1.0,
                delta2,
            };
            let rep = correct_strided(&mut c, &[wild], 8);
            assert_eq!((rep.corrected.len(), rep.uncorrectable), (0, 1));
        }
    }

    #[test]
    fn gemm_ii_column_checksums_hold() {
        // O = P·V with V's columns folded: O_c1[i][t] = Σ_l O[i][t+s·l].
        let mut rng = rng_from_seed(25);
        let p = normal_matrix_f16(&mut rng, 16, 24, 0.3).to_f32();
        let v = normal_matrix_f16(&mut rng, 24, 32, 0.5).to_f32();
        let cs = encode_cols_strided(&v, 8, false);
        let o = gemm_nn(&p, &v);
        let o_c1 = gemm_nn(&p, &cs.w1);
        let o_c2 = gemm_nn(&p, &cs.w2);
        assert!(strided_sums(&o, 8).max_abs_diff(&o_c1) < 1e-3);
        assert!(strided_sums_weighted(&o, 8).max_abs_diff(&o_c2) < 1e-2);
    }

    #[test]
    fn stride_one_degenerates_to_element_checksum() {
        // s = 1 folds everything into a single column — the traditional
        // single-wide checksum is the degenerate case of the tensor design.
        let mut rng = rng_from_seed(26);
        let k = normal_matrix_f16(&mut rng, 16, 8, 1.0).to_f32();
        let cs = encode_rows_strided(&k, 1, false);
        assert_eq!(cs.w1.shape(), (1, 8));
        assert_eq!(cs.groups, 16);
        for c in 0..8 {
            let direct: f32 = (0..16).map(|r| k.get(r, c)).sum();
            assert!((cs.w1.get(0, c) - direct).abs() < 1e-4);
        }
        // FP16-quantised checksum operands stay within binary16 noise.
        let quant = encode_rows_strided(&k, 1, true);
        for (e, q) in cs.w1.as_slice().iter().zip(quant.w1.as_slice()) {
            assert!(crate::thresholds::rel_diff(*e, *q) < 1e-3, "{e} vs {q}");
        }
    }

    #[test]
    fn partial_last_group_is_handled() {
        // 20 rows with stride 8 → groups = 3, last group ragged.
        let k = MatrixF32::from_fn(20, 4, |r, c| (r * 4 + c) as f32);
        let cs = encode_rows_strided(&k, 8, false);
        assert_eq!(cs.groups, 3);
        // Residue 4: rows 4, 12 only (20 exceeds).
        let expect: f32 = k.get(4, 0) + k.get(12, 0);
        assert_eq!(cs.w1.get(4, 0), expect);
        // Residue 3: rows 3, 11, 19.
        let expect3: f32 = k.get(3, 1) + k.get(11, 1) + k.get(19, 1);
        assert_eq!(cs.w1.get(3, 1), expect3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_single_error_any_position_corrected(
            row in 0usize..16,
            col in 0usize..32,
            magnitude in 1.0f32..50.0,
            sign in prop::bool::ANY,
        ) {
            let mut rng = rng_from_seed(27);
            let q = normal_matrix_f16(&mut rng, 16, 16, 0.5).to_f32();
            let k = normal_matrix_f16(&mut rng, 32, 16, 0.5).to_f32();
            let (mut s_mat, c1, c2) = protected_qkt(&q, &k, 8);
            let truth = s_mat.clone();
            let e = if sign { magnitude } else { -magnitude };
            s_mat.set(row, col, s_mat.get(row, col) + e);
            let rep = verify_and_correct(&mut s_mat, &c1, &c2, 8, Check::new(1e-2, 0.0));
            prop_assert_eq!(rep.corrected.len(), 1);
            prop_assert_eq!((rep.corrected[0].row, rep.corrected[0].col), (row, col));
            prop_assert!(s_mat.max_abs_diff(&truth) < 2e-2);
        }

        #[test]
        fn prop_group_fold_is_the_per_element_definition_bit_for_bit(
            rows in 1usize..6,
            cols in 1usize..70,
            s in 1usize..9,
            seed in 0u64..1000,
        ) {
            let mut rng = rng_from_seed(seed);
            let m = normal_matrix_f16(&mut rng, rows, cols, 3.0).to_f32();
            let (mut want1, mut want2) = (MatrixF32::zeros(rows, s), MatrixF32::zeros(rows, s));
            for (i, j, v) in m.iter_indexed() {
                want1.set(i, j % s, want1.get(i, j % s) + v);
                want2.set(i, j % s, want2.get(i, j % s) + (j / s + 1) as f32 * v);
            }
            let bits = |x: &MatrixF32| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&strided_sums(&m, s)), bits(&want1));
            prop_assert_eq!(bits(&strided_sums_weighted(&m, s)), bits(&want2));
            if s <= cols {
                let cs = encode_cols_strided(&m, s, false);
                prop_assert_eq!((bits(&cs.w1), bits(&cs.w2)), (bits(&want1), bits(&want2)));
                // The row fold of `mᵀ` is the column fold of `m`, transposed.
                let cs = encode_rows_strided(&m.transpose(), s, false);
                let (want1, want2) = (want1.transpose(), want2.transpose());
                prop_assert_eq!((bits(&cs.w1), bits(&cs.w2)), (bits(&want1), bits(&want2)));
            }
        }

        #[test]
        fn prop_strided_sums_partition_row_sum(rows in 1usize..12, cols in 1usize..40, s in 1usize..9) {
            let m = MatrixF32::from_fn(rows, cols, |r, c| ((r * 13 + c * 7) % 17) as f32 - 8.0);
            let s = s.min(cols);
            let folded = strided_sums(&m, s);
            for r in 0..rows {
                let total: f32 = m.row(r).iter().sum();
                let folded_total: f32 = folded.row(r).iter().sum();
                prop_assert!((total - folded_total).abs() < 1e-3);
            }
        }
    }
}
