//! Activation functions with range restriction.
//!
//! The FT-Transformer framework (paper Fig. 1, right panel) protects the
//! feed-forward module as *ABFT linear → activation with range restriction →
//! ABFT linear*. Activations have known theoretical output ranges — ReLU is
//! non-negative, GELU is bounded below by ≈ −0.1700 — so an out-of-range
//! result is necessarily a computational error and is repaired by
//! recomputation (here: clamping to the recomputed true value).

use ft_core::types::FtReport;
use ft_sim::{FaultInjector, FaultSite, OpCoord};

/// Supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation, as in GPT-2/BERT).
    Gelu,
}

/// Global minimum of the GELU function (attained near x ≈ −0.7518).
pub const GELU_MIN: f32 = -0.170_04;

impl Activation {
    /// Apply the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Gelu => {
                // tanh approximation: 0.5x(1 + tanh(√(2/π)(x + 0.044715x³)))
                let inner = 0.797_884_6 * (x + 0.044_715 * x * x * x);
                0.5 * x * (1.0 + inner.tanh())
            }
        }
    }

    /// Theoretical output range `(lo, hi)` given the input magnitude bound.
    ///
    /// ReLU maps into `[0, max_in]`; GELU into `[GELU_MIN, max_in]` (GELU(x)
    /// ≤ x for x ≥ 0 and ≥ GELU_MIN everywhere).
    pub fn output_range(self, max_abs_input: f32) -> (f32, f32) {
        match self {
            Activation::Relu => (0.0, max_abs_input),
            Activation::Gelu => (GELU_MIN, max_abs_input),
        }
    }
}

/// Apply `act` element-wise to `x` in place with fault injection at the
/// activation unit and range restriction on the results (counted as the
/// returned ledger's `activation_restricted`).
///
/// `slot` identifies the layer for fault coordinates; `max_abs_input` bounds
/// the input (callers can pass the actual block max).
pub fn apply_restricted<I: FaultInjector>(
    act: Activation,
    x: &mut [f32],
    inj: &I,
    slot: usize,
    row: usize,
    max_abs_input: f32,
) -> FtReport {
    let (lo, hi) = act.output_range(max_abs_input);
    let slack = 1e-3 * max_abs_input.max(1.0);
    let mut report = FtReport::default();
    for (j, v) in x.iter_mut().enumerate() {
        let input = *v;
        let out = inj.corrupt_f32(
            FaultSite::Activation,
            OpCoord::new(slot, row, j, 0),
            act.apply(input),
        );
        if out.is_finite() && out >= lo - slack && out <= hi + slack {
            *v = out;
        } else {
            // Out of theoretical range: recompute (fault-free unit).
            *v = act.apply(input);
            report.activation_restricted += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::{NoFaults, SeuInjector};

    #[test]
    fn relu_and_gelu_basics() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert!((Activation::Gelu.apply(0.0)).abs() < 1e-7);
        // GELU(1) ≈ 0.8412, GELU(-1) ≈ -0.1588.
        assert!((Activation::Gelu.apply(1.0) - 0.8412).abs() < 1e-3);
        assert!((Activation::Gelu.apply(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_respects_global_minimum() {
        let mut min = f32::INFINITY;
        let mut x = -6.0f32;
        while x < 6.0 {
            min = min.min(Activation::Gelu.apply(x));
            x += 1e-3;
        }
        assert!(min >= GELU_MIN - 1e-4, "observed min {min}");
    }

    #[test]
    fn clean_pass_restricts_nothing() {
        let mut x = vec![-2.0, -0.5, 0.0, 0.7, 3.0];
        let max_in = 3.0;
        let rep = apply_restricted(Activation::Gelu, &mut x, &NoFaults, 0, 0, max_in);
        assert_eq!(rep.activation_restricted, 0);
        assert!(x.iter().all(|v| *v >= GELU_MIN - 1e-3 && *v <= max_in));
    }

    #[test]
    fn corrupted_activation_is_restricted() {
        let mut x = vec![0.5f32; 8];
        // Exponent-bit corruption of the activation output at column 3.
        let inj = SeuInjector::new(FaultSite::Activation, OpCoord::new(0, 0, 3, 0), 30);
        let rep = apply_restricted(Activation::Relu, &mut x, &inj, 0, 0, 1.0);
        assert_eq!(rep.activation_restricted, 1);
        // Repaired to the true ReLU value.
        assert_eq!(x[3], 0.5);
    }

    #[test]
    fn in_range_corruption_passes_relu() {
        // A small corruption inside [0, max] is invisible to range
        // restriction — the known limitation of the technique.
        let mut x = vec![0.5f32; 4];
        let inj = SeuInjector::new(FaultSite::Activation, OpCoord::new(0, 0, 1, 0), 18);
        let rep = apply_restricted(Activation::Relu, &mut x, &inj, 0, 0, 1.0);
        assert_eq!(rep.activation_restricted, 0);
        assert_ne!(x[1], 0.5);
        assert!(x[1] >= 0.0 && x[1] <= 1.0);
    }
}
