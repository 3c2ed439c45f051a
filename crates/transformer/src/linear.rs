//! Dense projection layers with strided-ABFT protection.
//!
//! `Y = X·Wᵀ + bias` — the paper's Fig. 1 "Linear Projection with ABFT
//! Protection": the same tensor-checksum scheme as attention GEMM I is
//! applied per 64-row block of X, with located elements recomputed exactly.
//!
//! The weight is a static operand, so — as the paper (§3.3) and ALBERTA
//! encode the weight-side checksum offline — everything `forward` needs
//! from it is prepared **once**, in the constructor: `Wᵀ` decoded from FP16
//! to FP32 in k-major layout (`in × out`), and W's two strided row-checksum
//! operands (`encode_rows_strided(W, s, true)`) transposed to `in × s`, all
//! three then panel-packed ([`PackedB`]: contiguous `in × 8` panels, so a
//! product reads each panel front to back instead of striding `out` floats
//! per k-step). `forward` runs three packed GEMMs ([`gemm_packed_inj`]) per
//! row block and never touches the FP16 weight; the packed panels are the
//! only FP32 copy.
//!
//! Bit identity with the per-call decode + `gemm_nt` it replaced: every
//! kernel in `ft_sim::gemm` produces each output element by the same
//! ascending-k chain from `0.0` (pinned there against a per-element
//! `dot_plain` oracle for all three layouts), and the prepared checksum
//! operands are the very values the per-call encode made.
//!
//! Because the checksums are no longer re-derived from the weight each call,
//! a flip in the resident `Wᵀ` is now *detected* (the old re-encode folded it
//! into a self-consistent checksum). It is not *repaired*: the exact
//! recompute of a located element reads the same resident operand. Weight
//! memory as a fault site, with a verify-on-read or scrub, is ROADMAP's
//! open item.

use ft_abft::strided::{correct_strided, encode_rows_strided, verify_strided};
use ft_abft::thresholds::Thresholds;
use ft_core::types::FtReport;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_num::{block_starts, Matrix, MatrixF16, MatrixF32};
use ft_sim::{gemm_packed, gemm_packed_inj, FaultInjector, FaultSite, GemmCtx, PackedB};
use rayon::prelude::*;
use std::sync::Arc;

/// Protection level of a linear layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinearProtection {
    /// Plain GEMM.
    None,
    /// Strided tensor-checksum ABFT (stride 8).
    StridedAbft,
}

/// A dense layer `Y = X·Wᵀ + b` with FP16 weights.
///
/// The FP16 weight is private (read it with [`weight`](Linear::weight)) so
/// the operands prepared from it at construction — `Wᵀ` in FP32 and the
/// transposed strided checksum pair, all panel-packed, see the module docs
/// — cannot go stale.
/// `Clone` shares them.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weights, `out_features × in_features` (row-major, FP16 storage).
    weight: MatrixF16,
    /// Operands `forward` reads, prepared once from `weight`.
    prepared: Arc<Prepared>,
    /// Bias, `out_features` (FP32).
    pub bias: Vec<f32>,
    /// Protection applied on forward passes.
    pub protection: LinearProtection,
}

/// The static operands of one [`Linear`], all k-major (`in × ·`) and
/// panel-packed.
#[derive(Clone, Debug)]
struct Prepared {
    /// `Wᵀ` in FP32, `in × out`.
    wt: PackedB,
    /// Plain strided row-checksum of W, transposed: `in × s` with the
    /// stride `s = min(8, out)`.
    w1t: PackedB,
    /// Group-weighted strided row-checksum of W, transposed: `in × s`.
    w2t: PackedB,
}

impl Prepared {
    fn new(weight: &MatrixF16) -> Self {
        let w = weight.to_f32();
        let stride = 8.min(w.rows()).max(1);
        // Fold W's rows (the output dimension) at the stride.
        let cs = encode_rows_strided(&w, stride, true);
        Prepared {
            wt: PackedB::new(&w.transpose()),
            w1t: PackedB::new(&cs.w1.transpose()),
            w2t: PackedB::new(&cs.w2.transpose()),
        }
    }
}

impl Linear {
    /// Random layer (seeded; std 0.02 like GPT-2 init).
    pub fn random(seed: u64, in_features: usize, out_features: usize) -> Self {
        let mut rng = rng_from_seed(seed);
        let weight = normal_matrix_f16(&mut rng, out_features, in_features, 0.02);
        Linear {
            prepared: Arc::new(Prepared::new(&weight)),
            weight,
            bias: vec![0.0; out_features],
            protection: LinearProtection::StridedAbft,
        }
    }

    /// Weights, `out_features × in_features` (row-major, FP16 storage).
    pub fn weight(&self) -> &MatrixF16 {
        &self.weight
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// Set the protection level.
    pub fn with_protection(mut self, p: LinearProtection) -> Self {
        self.protection = p;
        self
    }

    /// Forward pass: `Y = X·Wᵀ + b`, protected per `self.protection`.
    ///
    /// `layer_slot` namespaces fault coordinates; `thresholds.gemm` is the
    /// detection criterion. Events land in the ledger's `linear_*` fields.
    pub fn forward<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, FtReport) {
        assert_eq!(x.cols(), self.in_features(), "input feature mismatch");
        let Prepared { wt, w1t, w2t } = &*self.prepared;
        let stride = w1t.cols();
        let out_f = self.out_features();
        let block = 64usize;

        let results: Vec<(usize, MatrixF32, FtReport)> = block_starts(x.rows(), block)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|r0| {
                let x_blk = x.block(r0, 0, block, x.cols());
                let mut report = FtReport::default();
                let ctx = GemmCtx::new(FaultSite::LinearAccum, layer_slot);
                let mut y = gemm_packed_inj(&x_blk, wt, inj, ctx.at(r0, 0));
                if self.protection == LinearProtection::StridedAbft {
                    let y_c1 = gemm_packed_inj(&x_blk, w1t, inj, ctx.at(r0, out_f).iter(1));
                    let y_c2 = gemm_packed_inj(&x_blk, w2t, inj, ctx.at(r0, out_f).iter(2));
                    let mismatches = verify_strided(&y, &y_c1, &y_c2, stride, thresholds.gemm);
                    if !mismatches.is_empty() {
                        let rep = correct_strided(&mut y, &mismatches, stride);
                        // Located elements are recomputed exactly: the same
                        // ascending-k chain over column `col` of Wᵀ.
                        for loc in &rep.corrected {
                            let column = wt.column(loc.col);
                            let acc = (x_blk.row(loc.row).iter().zip(column))
                                .fold(0.0f32, |acc, (a, w)| acc + a * w);
                            y.set(loc.row, loc.col, acc);
                        }
                        if rep.uncorrectable > 0 {
                            y = gemm_packed(&x_blk, wt);
                        }
                        report.linear_detected = rep.detections as u64;
                        report.linear_corrected = rep.corrected.len() as u64;
                        report.linear_recomputed = rep.uncorrectable as u64;
                    }
                }
                // Bias.
                for i in 0..y.rows() {
                    for (v, b) in y.row_mut(i).iter_mut().zip(&self.bias) {
                        *v += b;
                    }
                }
                (r0, y, report)
            })
            .collect();

        let mut out = Matrix::zeros(x.rows(), out_f);
        let mut total = FtReport::default();
        for (r0, y, rep) in results {
            out.set_block(r0, 0, &y);
            total = total.merged(&rep);
        }
        (out, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::{gemm_nt, NoFaults, OpCoord, SeuInjector};

    #[test]
    fn forward_matches_plain_gemm_when_clean() {
        let layer = Linear::random(1, 32, 48);
        let mut rng = rng_from_seed(2);
        let x = normal_matrix_f16(&mut rng, 80, 32, 1.0).to_f32();
        let (y, rep) = layer.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(rep, FtReport::default());
        let w = layer.weight().to_f32();
        let expect = gemm_nt(&x, &w);
        assert!(y.max_abs_diff(&expect) < 1e-6);
        assert_eq!(y.shape(), (80, 48));
    }

    #[test]
    fn bias_is_applied() {
        let mut layer = Linear::random(3, 8, 4);
        layer.bias = vec![1.0, 2.0, 3.0, 4.0];
        let x = MatrixF32::zeros(2, 8);
        let (y, _) = layer.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y.row(1), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn seu_in_projection_is_corrected() {
        let layer = Linear::random(4, 64, 64);
        let mut rng = rng_from_seed(5);
        let x = normal_matrix_f16(&mut rng, 64, 64, 1.0).to_f32();
        let (clean, _) = layer.forward(&x, &NoFaults, 7, &Thresholds::calibrated());
        let inj = SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(7, 10, 20, 0), 30)
            .at_chain_step(30);
        let (dirty, rep) = layer.forward(&x, &inj, 7, &Thresholds::calibrated());
        assert_eq!(inj.fired(), 1);
        assert!(rep.linear_detected > 0);
        assert!(rep.linear_corrected > 0);
        assert!(
            dirty.max_abs_diff(&clean) < 1e-3,
            "diff {}",
            dirty.max_abs_diff(&clean)
        );
    }

    #[test]
    fn unprotected_layer_lets_fault_through() {
        let layer = Linear::random(4, 64, 64).with_protection(LinearProtection::None);
        let mut rng = rng_from_seed(5);
        let x = normal_matrix_f16(&mut rng, 64, 64, 1.0).to_f32();
        let (clean, _) = layer.forward(&x, &NoFaults, 7, &Thresholds::calibrated());
        let inj = SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(7, 10, 20, 0), 30)
            .at_chain_step(30);
        let (dirty, rep) = layer.forward(&x, &inj, 7, &Thresholds::calibrated());
        assert_eq!(rep, FtReport::default());
        assert!(dirty.max_abs_diff(&clean) > 1.0);
    }

    #[test]
    fn prepared_operands_are_the_per_call_decode_and_encode() {
        let layer = Linear::random(11, 24, 20);
        let w = layer.weight().to_f32();
        let cs = encode_rows_strided(&w, 8, true);
        let p = &layer.prepared;
        assert_eq!((p.wt.rows(), p.wt.cols()), (24, 20));
        assert_eq!(p.wt, PackedB::new(&w.transpose()));
        assert_eq!(p.w1t, PackedB::new(&cs.w1.transpose()));
        assert_eq!(p.w2t, PackedB::new(&cs.w2.transpose()));
        assert!(Arc::ptr_eq(&layer.prepared, &layer.clone().prepared));
    }

    #[test]
    fn flip_in_resident_weight_operand_is_detected() {
        // The checksums were encoded from the weight at construction, so a
        // flip in the resident `Wᵀ` breaks the invariant. (Under per-call
        // encoding the same flip re-encoded into a consistent checksum and
        // went unseen.) The located recompute reads the same resident
        // operand, so detection is all this shows: repair needs a weight
        // fault site plus scrub.
        let mut layer = Linear::random(4, 64, 64);
        let mut rng = rng_from_seed(5);
        let x = normal_matrix_f16(&mut rng, 64, 64, 1.0).to_f32();
        let mut prepared = (*layer.prepared).clone();
        let mut wt = layer.weight().to_f32().transpose();
        let v = wt.get(10, 20);
        wt.set(10, 20, f32::from_bits(v.to_bits() ^ (1 << 30)));
        prepared.wt = PackedB::new(&wt);
        layer.prepared = Arc::new(prepared);
        let (_, rep) = layer.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert!(rep.linear_detected >= 1, "{rep:?}");
    }

    #[test]
    fn ragged_rows_and_narrow_outputs_work() {
        // 70 rows (64 + 6 ragged), 4 output features (< stride 8).
        let layer = Linear::random(9, 16, 4);
        let mut rng = rng_from_seed(10);
        let x = normal_matrix_f16(&mut rng, 70, 16, 1.0).to_f32();
        let (y, rep) = layer.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(y.shape(), (70, 4));
        assert_eq!(rep, FtReport::default());
    }
}
