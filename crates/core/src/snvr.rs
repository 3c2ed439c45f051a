//! Selective neuron value restriction (SNVR) — paper §3.4.
//!
//! SNVR applies *different* fault-tolerance constraints to the softmax
//! sub-operations according to their computational significance:
//!
//! * **Case 1 — reduce max.** An erroneous row max cancels algebraically in
//!   exact softmax (numerator and denominator share the `e^{m'}` factor),
//!   *except* that a too-small max can overflow `exp`. The restriction
//!   `rowmax(S) ≤ m` (equivalently `s − m ≤ 0`) catches the dangerous
//!   direction; violations are repaired by recomputing the max.
//! * **Case 2 — subtract + exp.** Protected precisely through checksum
//!   reuse (see [`ft_abft::propagate`]); linear faults are corrected from
//!   checksums, exponential faults by recomputation. Implemented inside the
//!   EFTA kernel; this module provides the restriction helpers.
//! * **Case 3 — reduce sum.** The rowsum ℓ only scales a whole row, so it
//!   is range-restricted: `Σ_k exp(m_k − m) ≤ ℓ ≤ n`. Out-of-range values
//!   are replaced by the lower-bound approximation (optimised EFTA) —
//!   attention focuses on the largest scores, which the approximation
//!   preserves.
//!
//! The module also implements the *traditional* restriction comparator used
//! in Fig. 14-right: clamping only the final normalised weights to their
//! theoretical [0, 1] range.

use ft_num::expf;

/// Outcome of one range-restriction check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Restriction {
    /// Value was within its theoretical range.
    InRange,
    /// Value was out of range and replaced by `repaired`.
    Repaired {
        /// The substituted value.
        repaired: f32,
    },
}

impl Restriction {
    /// True when a repair happened.
    pub fn repaired(&self) -> bool {
        matches!(self, Restriction::Repaired { .. })
    }
}

/// Case 1: validate a computed row max `m` against the scores it reduces.
/// `m` must be ≥ every score (and finite); otherwise return the recomputed
/// true max.
pub fn restrict_row_max(scores: &[f32], m: f32) -> Restriction {
    let true_max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    // A max above the true max is harmless (cancels); below it risks
    // overflow in exp, and NaN/Inf is always wrong.
    if m.is_finite() && m >= true_max {
        Restriction::InRange
    } else {
        Restriction::Repaired { repaired: true_max }
    }
}

/// Case 3 bounds for the accumulated rowsum ℓ of one row:
/// `Σ_k exp(m_k − m_final) ≤ ℓ ≤ n`, where `m_k` are the per-iteration
/// block maxima and `m_final` the global row max (paper §3.4 and
/// Algorithm 1 lines 22–24).
pub fn rowsum_bounds(block_maxes: &[f32], m_final: f32, n: usize) -> (f32, f32) {
    let lower: f32 = block_maxes.iter().map(|&mk| expf(mk - m_final)).sum();
    (lower, n as f32)
}

/// Case 3: restrict ℓ to its theoretical range; out-of-range (or non-finite)
/// values are replaced by the lower-bound approximation.
pub fn restrict_rowsum(ell: f32, block_maxes: &[f32], m_final: f32, n: usize) -> Restriction {
    let (lower, upper) = rowsum_bounds(block_maxes, m_final, n);
    // Tolerate fp slack at the boundary: exp sums carry rounding noise.
    let slack = 1e-3 * lower.abs().max(1.0);
    if ell.is_finite() && ell >= lower - slack && ell <= upper + slack {
        Restriction::InRange
    } else {
        Restriction::Repaired { repaired: lower }
    }
}

/// The traditional restriction comparator (Fig. 14-right): clamp a final
/// normalised attention weight to the theoretical [0, 1] range. Errors that
/// stay inside the range pass through unrepaired — the reason its residual
/// error distribution is wide.
pub fn traditional_restrict_weight(p: f32) -> f32 {
    if !p.is_finite() {
        return 0.0;
    }
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_accepts_true_or_larger_max() {
        let scores = [0.5, -1.0, 2.0, 1.5];
        assert_eq!(restrict_row_max(&scores, 2.0), Restriction::InRange);
        // Larger-than-true max cancels in softmax: accepted.
        assert_eq!(restrict_row_max(&scores, 5.0), Restriction::InRange);
    }

    #[test]
    fn case1_repairs_underestimated_or_nonfinite_max() {
        let scores = [0.5, -1.0, 2.0, 1.5];
        match restrict_row_max(&scores, 1.0) {
            Restriction::Repaired { repaired } => assert_eq!(repaired, 2.0),
            _ => panic!("must repair"),
        }
        assert!(restrict_row_max(&scores, f32::NAN).repaired());
        assert!(restrict_row_max(&scores, f32::NEG_INFINITY).repaired());
    }

    #[test]
    fn case3_bounds_bracket_true_rowsum() {
        // Two blocks with maxima 1.0 and 3.0 (global 3.0), 8 columns each.
        // True ℓ = Σ exp(s − 3) over 16 scores; each block contributes at
        // least exp(m_k − 3), and every term is ≤ 1.
        let block_maxes = [1.0f32, 3.0];
        let scores: Vec<f32> = vec![
            0.1, 0.4, 1.0, -0.5, 0.0, 0.9, 0.3, -1.0, 2.9, 3.0, 1.0, 2.0, 0.0, 1.5, 2.5, 0.5,
        ];
        let ell: f32 = scores.iter().map(|&s| (s - 3.0).exp()).sum();
        let (lo, hi) = rowsum_bounds(&block_maxes, 3.0, 16);
        assert!(lo <= ell && ell <= hi, "{lo} <= {ell} <= {hi}");
        assert_eq!(
            restrict_rowsum(ell, &block_maxes, 3.0, 16),
            Restriction::InRange
        );
    }

    #[test]
    fn case3_repairs_corrupted_rowsum_with_lower_bound() {
        let block_maxes = [2.0f32, 3.0];
        let (lo, _) = rowsum_bounds(&block_maxes, 3.0, 16);
        // Corrupted far above n.
        match restrict_rowsum(1e9, &block_maxes, 3.0, 16) {
            Restriction::Repaired { repaired } => assert!((repaired - lo).abs() < 1e-6),
            _ => panic!("must repair"),
        }
        // Corrupted below the lower bound.
        assert!(restrict_rowsum(lo * 0.5, &block_maxes, 3.0, 16).repaired());
        // NaN.
        assert!(restrict_rowsum(f32::NAN, &block_maxes, 3.0, 16).repaired());
    }

    #[test]
    fn case3_upper_bound_is_sequence_length() {
        // All scores equal the max → ℓ = n exactly; still in range.
        let block_maxes = [1.0f32];
        assert_eq!(
            restrict_rowsum(8.0, &block_maxes, 1.0, 8),
            Restriction::InRange
        );
        assert!(restrict_rowsum(8.5, &block_maxes, 1.0, 8).repaired());
    }

    #[test]
    fn traditional_restriction_only_clamps_range() {
        assert_eq!(traditional_restrict_weight(0.3), 0.3);
        assert_eq!(traditional_restrict_weight(-0.2), 0.0);
        assert_eq!(traditional_restrict_weight(1.7), 1.0);
        assert_eq!(traditional_restrict_weight(f32::INFINITY), 0.0);
        // In-range errors pass straight through — the weakness Fig. 14
        // demonstrates.
        assert_eq!(traditional_restrict_weight(0.999), 0.999);
    }
}
