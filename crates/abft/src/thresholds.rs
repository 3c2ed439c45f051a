//! Verification thresholds and the relative-difference detection criterion.
//!
//! Half-precision tensor-core arithmetic makes checksum results diverge from
//! direct sums even error-free (paper §4.2: "intrinsic rounding errors"), so
//! a detection fires only when the discrepancy exceeds a threshold. The
//! paper sweeps *relative* thresholds and reports optima of ≈ 0.48 for
//! strided ABFT over GEMM results (Fig. 12) and ≈ 7e-6 for the SNVR product
//! check (Fig. 14); the sweep harness in `ft-bench` reproduces those curves
//! on this implementation's noise profile (whose optima differ — checksum
//! operands here are quantised through our software binary16; see
//! EXPERIMENTS.md).
//!
//! Each check combines a relative threshold with an absolute floor: the
//! floor suppresses the degenerate case where both the checksum and the
//! direct sum are near zero (cancellation) and their *ratio* is dominated by
//! rounding noise.

/// Relative difference `|a − b| / max(|a|, |b|, floor)`. The tiny floor only
/// guards the 0/0 case; comparisons of genuinely near-zero sums are the
/// false-alarm source the threshold sweep studies.
#[inline]
pub fn rel_diff(a: f32, b: f32) -> f32 {
    let denom = a.abs().max(b.abs()).max(1e-12);
    (a - b).abs() / denom
}

/// One detection criterion: fire when `|a − b| > abs_floor` **and**
/// `rel_diff(a, b) > rel`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Check {
    /// Relative threshold (the x-axis of Figs. 12/14).
    pub rel: f32,
    /// Absolute floor below which discrepancies are attributed to rounding.
    pub abs_floor: f32,
}

impl Check {
    /// Construct a check.
    pub const fn new(rel: f32, abs_floor: f32) -> Self {
        Check { rel, abs_floor }
    }

    /// Does the pair (observed, expected) constitute a detection? A
    /// non-finite value always does.
    ///
    /// Evaluated without short-circuits or branches, so that a loop of
    /// checks runs at vector width.
    #[inline]
    pub fn detects(&self, observed: f32, expected: f32) -> bool {
        let non_finite = !observed.is_finite() | !expected.is_finite();
        let above_floor = (observed - expected).abs() > self.abs_floor;
        non_finite | (above_floor & (rel_diff(observed, expected) > self.rel))
    }
}

/// Detection thresholds for the hybrid scheme's three check families.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// ABFT checksum check on GEMM outputs (paper optimum ≈ 0.48).
    pub gemm: Check,
    /// SNVR product check on exponentials, ε₁ (paper optimum ≈ 7e-6; ours
    /// is larger because checksum operands are FP16-quantised).
    pub exp_product: Check,
    /// Final output checksum check, ε₂ (covers GEMM II + rescale +
    /// normalise).
    pub output: Check,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            gemm: Check::new(0.48, 1e-3),
            exp_product: Check::new(0.02, 0.0),
            output: Check::new(0.05, 5e-3),
        }
    }
}

impl Thresholds {
    /// Calibrated defaults for this implementation (same as `Default`).
    pub fn calibrated() -> Self {
        Self::default()
    }

    /// The paper's reported optima, for side-by-side sweeps.
    pub fn paper() -> Self {
        Thresholds {
            gemm: Check::new(0.48, 0.0),
            exp_product: Check::new(7e-6, 0.0),
            output: Check::new(0.05, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_basics() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!((rel_diff(1.0, 2.0) - 0.5).abs() < 1e-7);
        assert!((rel_diff(-1.0, 1.0) - 2.0).abs() < 1e-7);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }

    #[test]
    fn rel_diff_symmetric() {
        for (a, b) in [(3.0f32, 7.0f32), (-2.0, 0.5), (1e-9, 2e-9)] {
            assert_eq!(rel_diff(a, b), rel_diff(b, a));
        }
    }

    #[test]
    fn near_zero_pair_with_noise_reports_large_relative() {
        // This is the false-alarm mechanism: both the checksum and the sum
        // are ≈ 0 with independent rounding noise → ratio O(1).
        let r = rel_diff(1e-4, -1e-4);
        assert!(r >= 1.0);
    }

    #[test]
    fn abs_floor_suppresses_cancellation_false_alarms() {
        let c = Check::new(0.1, 1e-3);
        // Huge relative, tiny absolute: rounding noise — not a detection.
        assert!(!c.detects(1e-4, -1e-4));
        // Large absolute and relative: detection.
        assert!(c.detects(10.0, 5.0));
        // Large absolute, small relative: not a detection.
        assert!(!c.detects(100.0, 100.5));
    }

    #[test]
    fn non_finite_is_always_detected() {
        let c = Check::new(0.5, 1.0);
        assert!(c.detects(f32::NAN, 1.0));
        assert!(c.detects(f32::INFINITY, 1.0));
        assert!(c.detects(1.0, f32::NEG_INFINITY));
    }

    #[test]
    fn paper_thresholds_expose_reported_optima() {
        let t = Thresholds::paper();
        assert!((t.gemm.rel - 0.48).abs() < 1e-6);
        assert!((t.exp_product.rel - 7e-6).abs() < 1e-12);
    }
}
