//! Feed-forward module: ABFT linear → range-restricted activation → ABFT
//! linear (paper Fig. 1, "Feed Forward Fault Tolerance").

use crate::activation::{apply_restricted, Activation};
use crate::linear::Linear;
use ft_abft::thresholds::Thresholds;
use ft_core::types::FtReport;
use ft_num::MatrixF32;
use ft_sim::FaultInjector;

/// Two-layer feed-forward network with protected projections and a
/// range-restricted activation.
#[derive(Clone, Debug)]
pub struct FeedForward {
    /// Expansion projection (hidden → ffn).
    pub up: Linear,
    /// Contraction projection (ffn → hidden).
    pub down: Linear,
    /// Activation between them.
    pub activation: Activation,
}

impl FeedForward {
    /// Random FFN (seeded): `hidden → ffn_dim → hidden`.
    pub fn random(seed: u64, hidden: usize, ffn_dim: usize) -> Self {
        FeedForward {
            up: Linear::random(seed, hidden, ffn_dim),
            down: Linear::random(seed + 1, ffn_dim, hidden),
            activation: Activation::Gelu,
        }
    }

    /// Forward pass over `seq × hidden` activations.
    pub fn forward<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, FtReport) {
        let (y, mut reports) = self.forward_stacked(x, &[x.rows()], inj, layer_slot, thresholds);
        (y, reports.pop().expect("one segment, one ledger"))
    }

    /// [`forward`](FeedForward::forward) over the rows of several callers
    /// stacked into one `x` (segment `s` is the next `segments[s]` rows):
    /// each projection runs once over the stack
    /// ([`Linear::forward_stacked`]), and every activation keeps its row
    /// *within its segment* as its fault coordinate. Returns the stacked
    /// output and one ledger per segment.
    pub fn forward_stacked<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        segments: &[usize],
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, Vec<FtReport>) {
        let (mut h, mut reports) =
            self.up
                .forward_stacked(x, segments, inj, layer_slot * 8 + 4, thresholds);
        // Range-restricted activation, row by row.
        let mut start = 0;
        for (report, &rows) in reports.iter_mut().zip(segments) {
            for i in 0..rows {
                let row = h.row_mut(start + i);
                let max_in = row.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
                let slot = layer_slot * 8 + 5;
                let rep = apply_restricted(self.activation, row, inj, slot, i, max_in);
                *report = report.merged(&rep);
            }
            start += rows;
        }
        let (y, down) =
            self.down
                .forward_stacked(&h, segments, inj, layer_slot * 8 + 6, thresholds);
        for (report, rep) in reports.iter_mut().zip(&down) {
            *report = report.merged(rep);
        }
        (y, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::{FaultSite, NoFaults, OpCoord, SeuInjector};

    #[test]
    fn shapes_and_cleanliness() {
        let ffn = FeedForward::random(1, 32, 128);
        let mut rng = rng_from_seed(2);
        let x = normal_matrix_f16(&mut rng, 16, 32, 1.0).to_f32();
        let (y, rep) = ffn.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(y.shape(), (16, 32));
        assert_eq!(rep, FtReport::default());
    }

    #[test]
    fn activation_fault_is_restricted() {
        let ffn = FeedForward::random(3, 32, 64);
        let mut rng = rng_from_seed(4);
        let x = normal_matrix_f16(&mut rng, 8, 32, 1.0).to_f32();
        let (clean, _) = ffn.forward(&x, &NoFaults, 2, &Thresholds::calibrated());
        // Huge corruption of one activation output (layer slot 2*8+5 = 21).
        let inj = SeuInjector::new(FaultSite::Activation, OpCoord::new(21, 3, 10, 0), 30);
        let (dirty, rep) = ffn.forward(&x, &inj, 2, &Thresholds::calibrated());
        assert_eq!(inj.fired(), 1);
        assert_eq!(rep.activation_restricted, 1);
        assert!(dirty.max_abs_diff(&clean) < 1e-4);
    }

    #[test]
    fn projection_fault_is_corrected() {
        let ffn = FeedForward::random(5, 64, 64);
        let mut rng = rng_from_seed(6);
        let x = normal_matrix_f16(&mut rng, 64, 64, 1.0).to_f32();
        let (clean, _) = ffn.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        let inj = SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(4, 5, 6, 0), 30)
            .at_chain_step(10);
        let (dirty, rep) = ffn.forward(&x, &inj, 0, &Thresholds::calibrated());
        assert_eq!(inj.fired(), 1);
        assert!(rep.linear_corrected > 0, "{rep:?}");
        assert!(dirty.max_abs_diff(&clean) < 1e-2);
    }
}
