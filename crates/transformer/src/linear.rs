//! Dense projection layers with strided-ABFT protection.
//!
//! `Y = X·Wᵀ + bias` — the paper's Fig. 1 "Linear Projection with ABFT
//! Protection": the same tensor-checksum scheme as attention GEMM I is
//! applied per 64-row block of X, with located elements recomputed exactly.
//!
//! The weight is a static operand, so — as the paper (§3.3) and ALBERTA
//! encode the weight-side checksum offline — everything `forward` needs
//! from it is prepared **once**, in the constructor: `Wᵀ` decoded from FP16
//! to FP32 in k-major layout (`in × out`), and the two strided
//! column-checksum operands of that `Wᵀ` (`encode_cols_strided(Wᵀ, s,
//! true)`, `in × s`: W's row checksums, transposed, lane for lane), all
//! three then panel-packed ([`PackedB`]: contiguous `in × 8` panels, so a
//! product reads each panel front to back instead of striding `out` floats
//! per k-step). `forward` runs three packed GEMMs ([`gemm_packed`], each
//! followed by its fault pass) per row block and never touches the FP16
//! weight; the packed panels are the only FP32 copy.
//!
//! A serving sweep stacks every stream's rows and calls
//! [`Linear::forward_stacked`] once per linear per sweep: one pass over the
//! panels for all streams, in work units of up to 64 stacked rows. Each
//! stream is still protected as its own `forward` call would protect it:
//! its chains draw faults at their rows within the stream, it is verified
//! and repaired in its own 64-row blocks, and its events land in its own
//! ledger. [`Linear::forward`] is the one-segment case.
//!
//! Bit identity with the per-call decode + transposed-B GEMM it replaced:
//! every kernel in `ft_sim::gemm` (its fault pass and exact recompute of a
//! located element included) produces each output element by the same
//! ascending-k chain from `0.0`, on the packed operand as in place, and
//! the prepared checksum operands are the very values the per-call encode
//! made.
//!
//! Because the checksums are no longer re-derived from the weight each call,
//! a flip in the resident `Wᵀ` is now *detected* (the old re-encode folded it
//! into a self-consistent checksum). It is not *repaired*: the exact
//! recompute of a located element reads the same resident operand. Weight
//! memory as a fault site, with a verify-on-read or scrub, is ROADMAP's
//! open item.

use ft_abft::strided::{correct_strided, encode_cols_strided, verify_rows_strided};
use ft_abft::thresholds::Thresholds;
use ft_core::types::FtReport;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_num::{block_starts, Matrix, MatrixF16, MatrixF32};
use ft_sim::{
    gemm_chain, gemm_fault_pass, gemm_packed, FaultInjector, FaultSite, GemmCtx, PackedB,
};
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
    /// Plain strided column-checksum of `Wᵀ`: `in × s` with the stride
    /// `s = min(8, out)`.
    w1t: PackedB,
    /// Group-weighted strided column-checksum of `Wᵀ`: `in × s`.
    w2t: PackedB,
}

impl Prepared {
    fn new(weight: &MatrixF16) -> Self {
        let wt = weight.to_f32().transpose();
        let stride = 8.min(wt.cols()).max(1);
        // Fold Wᵀ's columns (the output dimension) at the stride.
        let cs = encode_cols_strided(&wt, stride, true);
        Prepared {
            wt: PackedB::new(&wt),
            w1t: PackedB::new(&cs.w1),
            w2t: PackedB::new(&cs.w2),
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
        let (y, mut reports) = self.forward_stacked(x, &[x.rows()], inj, layer_slot, thresholds);
        (y, reports.pop().expect("one segment, one ledger"))
    }

    /// [`forward`](Linear::forward) over the rows of several callers
    /// stacked into one `x`: segment `s` is the next `segments[s]` rows.
    /// Returns the stacked `Y` and one ledger per segment.
    ///
    /// Every segment gets exactly what its own `forward` call would give:
    /// its rows' products are the same chains (the stack only lets them
    /// share panel reads), each chain draws faults at its row *within its
    /// segment*, each segment is verified and repaired in its own 64-row
    /// blocks (an unlocatable mismatch recomputes that block of that
    /// segment and nothing else), and its events land in its own ledger.
    pub fn forward_stacked<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        segments: &[usize],
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, Vec<FtReport>) {
        assert_eq!(x.cols(), self.in_features(), "input feature mismatch");
        assert_eq!(
            segments.iter().sum::<usize>(),
            x.rows(),
            "segments must cover x"
        );
        let units = work_units(segments);
        let results: Vec<(MatrixF32, Vec<FtReport>)> = (units.iter().collect::<Vec<_>>())
            .into_par_iter()
            .map(|unit| self.unit_forward(x, unit, inj, layer_slot, thresholds))
            .collect();
        let mut out = Matrix::zeros(x.rows(), self.out_features());
        let mut reports = vec![FtReport::default(); segments.len()];
        for (unit, (y, unit_reports)) in units.iter().zip(results) {
            out.set_block(unit[0].start, 0, &y);
            for (b, rep) in unit.iter().zip(&unit_reports) {
                reports[b.segment] = reports[b.segment].merged(rep);
            }
        }
        (out, reports)
    }

    /// One work unit of the stacked `x`: the clean products of its rows,
    /// then per segment block the fault pass at that block's own
    /// coordinates, the strided check, located recomputes, and the bias.
    /// Returns the unit's output rows and one ledger per block.
    fn unit_forward<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        unit: &[SegmentBlock],
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, Vec<FtReport>) {
        let unit0 = unit[0].start;
        let rows = unit.iter().map(|b| b.len).sum();
        let x_part;
        let x_unit = if rows == x.rows() {
            x
        } else {
            x_part = x.block(unit0, 0, rows, x.cols());
            &x_part
        };
        let Prepared { wt, w1t, w2t } = &*self.prepared;
        let (stride, out_f) = (w1t.cols(), self.out_features());
        let local = |b: &SegmentBlock| b.start - unit0..b.start - unit0 + b.len;
        let ctx = GemmCtx::new(FaultSite::LinearAccum, layer_slot);
        let k = x_unit.cols();
        let mut y = gemm_packed(x_unit, wt);
        for b in unit {
            let ctx = ctx.at(b.r0, 0);
            gemm_fault_pass(&mut y, x_unit, local(b), wt, |_| (k, out_f), inj, ctx);
        }
        let mut reports = vec![FtReport::default(); unit.len()];
        if self.protection == LinearProtection::StridedAbft {
            let checksum = |w: &PackedB, it: usize| {
                let mut c = gemm_packed(x_unit, w);
                for b in unit {
                    let ctx = ctx.at(b.r0, out_f).iter(it);
                    gemm_fault_pass(&mut c, x_unit, local(b), w, |_| (k, stride), inj, ctx);
                }
                c
            };
            let (y_c1, y_c2) = (checksum(w1t, 1), checksum(w2t, 2));
            // Each block checks and repairs its own rows.
            for (b, report) in unit.iter().zip(&mut reports) {
                let rows = local(b);
                let shape = |_| (out_f, stride);
                let chk = |_| thresholds.gemm;
                let block = verify_rows_strided(&y, (&y_c1, &y_c2), rows.clone(), shape, chk);
                if block.is_empty() {
                    continue;
                }
                let rep = correct_strided(&mut y, &block, stride);
                // Located elements are recomputed exactly.
                for loc in &rep.corrected {
                    y.set(
                        loc.row,
                        loc.col,
                        gemm_chain(x_unit.row(loc.row), wt, loc.col),
                    );
                }
                if rep.uncorrectable > 0 {
                    let x_blk = x_unit.block(rows.start, 0, rows.len(), x_unit.cols());
                    y.set_block(rows.start, 0, &gemm_packed(&x_blk, wt));
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
        (y, reports)
    }
}

/// Rows per block a segment is verified (and wholesale recomputed) in, and
/// the most rows one work unit stacks.
const BLOCK: usize = 64;

/// One 64-row block of one segment of a stacked input.
#[derive(Clone, Copy, Debug)]
struct SegmentBlock {
    segment: usize,
    /// First stacked row.
    start: usize,
    /// Its row within the segment: the fault coordinates' row origin.
    r0: usize,
    len: usize,
}

/// The stacked input's segment blocks, in order, packed into work units of
/// at most [`BLOCK`] rows: one decode row per stream stacks into a single
/// unit, a long prefill splits into one unit per block. Units run in
/// parallel; each streams the weight panels once for all its rows.
fn work_units(segments: &[usize]) -> Vec<Vec<SegmentBlock>> {
    let mut units: Vec<Vec<SegmentBlock>> = Vec::new();
    let (mut start, mut unit_rows) = (0, 0);
    for (segment, &rows) in segments.iter().enumerate() {
        for r0 in block_starts(rows, BLOCK) {
            let len = BLOCK.min(rows - r0);
            if units.is_empty() || unit_rows + len > BLOCK {
                units.push(Vec::new());
                unit_rows = 0;
            }
            units
                .last_mut()
                .expect("a unit is open")
                .push(SegmentBlock {
                    segment,
                    start,
                    r0,
                    len,
                });
            unit_rows += len;
            start += len;
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_abft::strided::encode_rows_strided;
    use ft_sim::{gemm_nn, BerInjector, NoFaults, OpCoord, SeuInjector};

    #[test]
    fn forward_matches_plain_gemm_when_clean() {
        let layer = Linear::random(1, 32, 48);
        let mut rng = rng_from_seed(2);
        let x = normal_matrix_f16(&mut rng, 80, 32, 1.0).to_f32();
        let (y, rep) = layer.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(rep, FtReport::default());
        let w = layer.weight().to_f32();
        let expect = gemm_nn(&x, &w.transpose());
        assert!(y.max_abs_diff(&expect) < 1e-6);
        assert_eq!(y.shape(), (80, 48));
    }

    #[test]
    fn stacked_forward_is_each_segments_own_forward() {
        // Segments that share a work unit, one that spills into the next,
        // and one longer than a block, under BER faults dense enough to
        // locate, miss and recompute: the stack gives every segment the
        // bits, fired count and ledger of its own `forward` call.
        let layer = Linear::random(21, 32, 40);
        let segments = [1usize, 3, 70, 1, 60, 5];
        let rows: usize = segments.iter().sum();
        let mut rng = rng_from_seed(22);
        let x = normal_matrix_f16(&mut rng, rows, 32, 1.0).to_f32();
        let th = Thresholds::calibrated();
        let (stacked_inj, split_inj) = (BerInjector::new(5, 2e-3), BerInjector::new(5, 2e-3));
        let (y, reports) = layer.forward_stacked(&x, &segments, &stacked_inj, 9, &th);
        let mut start = 0;
        for (s, &len) in segments.iter().enumerate() {
            let seg = x.block(start, 0, len, 32);
            let (want, want_report) = layer.forward(&seg, &split_inj, 9, &th);
            let got = y.block(start, 0, len, 40);
            let bits = |m: &MatrixF32| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "segment {s}");
            assert_eq!(reports[s], want_report, "segment {s}");
            start += len;
        }
        assert_eq!(stacked_inj.fired(), split_inj.fired());
        let total = reports.iter().fold(FtReport::default(), |a, r| a.merged(r));
        assert!(
            total.linear_corrected > 0 && total.linear_recomputed > 0,
            "{total:?}"
        );
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
    fn checksum_panels_are_the_row_encode_of_w_transposed_bit_for_bit() {
        // §3.3 defines the weight checksums as W's rows folded at the
        // stride; `Prepared` folds the columns of the `Wᵀ` it packs. Every
        // lane must be the same sum in the same order: narrow outputs
        // (fewer rows than the stride), ragged last groups and whole ones.
        for (out_f, in_f) in [(20, 24), (4, 16), (33, 17), (64, 8), (1, 5)] {
            let layer = Linear::random(out_f as u64 * 31 + in_f as u64, in_f, out_f);
            let w = layer.weight().to_f32();
            let cs = encode_rows_strided(&w, 8.min(out_f), true);
            let p = &layer.prepared;
            let panels = |b: &PackedB| {
                (0..b.cols())
                    .flat_map(|j| b.column(j).map(f32::to_bits).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            };
            // Column `t` of the transposed encode is its row `t`.
            let want = |m: &MatrixF32| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(panels(&p.w1t), want(&cs.w1), "w1 of {out_f} × {in_f}");
            assert_eq!(panels(&p.w2t), want(&cs.w2), "w2 of {out_f} × {in_f}");
            assert_eq!((p.w1t.rows(), p.w1t.cols()), (in_f, 8.min(out_f)));
        }
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
