//! Fault-injection campaigns over the ABFT checksum schemes.
//!
//! These campaigns regenerate the statistical experiments of the paper:
//! error coverage vs bit-error-rate (Fig. 12-left), detection / false-alarm
//! rate vs threshold (Fig. 12-right), and the SNVR product-check sweep
//! (Fig. 14-left). They work directly on protected GEMMs — the same
//! algebra the kernels use — so millions of checksum lanes can be evaluated
//! quickly.

use ft_abft::strided::{correct_strided, encode_cols_strided, strided_sums, verify_strided};
use ft_abft::thresholds::Check;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_num::MatrixF32;
use ft_sim::{
    gemm_chain, gemm_fault_pass, gemm_nn, BerInjector, FaultInjector, FaultSite, GemmCtx,
};
use rand::rngs::SmallRng;
use rayon::prelude::*;

/// Checksum scheme under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Width-1 element checksum (traditional ABFT).
    Element,
    /// Width-8 strided tensor checksum (the paper's).
    Tensor,
}

impl Scheme {
    /// Checksum stride.
    pub fn stride(self) -> usize {
        match self {
            Scheme::Element => 1,
            Scheme::Tensor => 8,
        }
    }
}

/// Geometry of the protected GEMM used by the campaigns: one EFTA-style
/// block pair, S = Q(br×d) · K(bc×d)ᵀ.
#[derive(Clone, Copy, Debug)]
pub struct GemmShape {
    /// Rows of Q (and S).
    pub br: usize,
    /// Rows of K (columns of S).
    pub bc: usize,
    /// Head dimension (reduction depth).
    pub d: usize,
}

impl Default for GemmShape {
    fn default() -> Self {
        GemmShape {
            br: 64,
            bc: 64,
            d: 64,
        }
    }
}

/// Aggregate result of a coverage campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverageStats {
    /// Independent trials executed.
    pub trials: u64,
    /// Faults injected (accumulation chains corrupted).
    pub injected: u64,
    /// Checksum-lane detections raised.
    pub detections: u64,
    /// Elements still corrupted after correction.
    pub residual_errors: u64,
    /// Faults whose effect was fully repaired.
    pub covered: u64,
}

impl CoverageStats {
    /// Error coverage: repaired faults / injected faults.
    pub fn coverage(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.covered as f64 / self.injected as f64
    }
}

/// A trial's `Q` (`br × d`) and `Kᵀ` (`d × bc`, GEMM I's k-major operand),
/// drawn in that order from `rng`.
fn operands(rng: &mut SmallRng, shape: GemmShape) -> (MatrixF32, MatrixF32) {
    let q = normal_matrix_f16(rng, shape.br, shape.d, 0.5).to_f32();
    let k = normal_matrix_f16(rng, shape.bc, shape.d, 0.5).to_f32();
    (q, k.transpose())
}

/// One coverage trial: inject at `ber` across the data GEMM, verify +
/// correct with the scheme's checksums (element recompute on locate, no
/// block-recompute fallback — the experiment measures the *checksum's* own
/// repair ability), and compare against the clean product.
fn coverage_trial(seed: u64, ber: f64, s: usize, shape: GemmShape, chk: Check) -> CoverageStats {
    let mut rng = rng_from_seed(seed);
    let (q, kt) = operands(&mut rng, shape);
    let clean = gemm_nn(&q, &kt);

    // Faults are drawn from the FP16-visible bit range (relative error
    // ≥ 2^-10): the paper's tensors are FP16, so corruptions below half
    // precision are invisible in its data domain.
    let inj = BerInjector::new(seed ^ 0xABCD, ber)
        .with_sites(&[FaultSite::GemmIAccum])
        .with_bit_range(13, 32);
    let mut dirty = clean.clone();
    let (ctx, all) = (GemmCtx::new(FaultSite::GemmIAccum, 0), |_| {
        (shape.d, shape.bc)
    });
    gemm_fault_pass(&mut dirty, &q, 0..shape.br, &kt, all, &inj, ctx);
    let injected = inj.fired();

    // Checksums encoded from clean operands (faults target the data GEMM).
    // Encoded in FP32: the weighted checksum's locate ratio needs
    // accumulator precision — quantising w2 (whose entries scale with the
    // group count) through FP16 adds noise proportional to the fold width,
    // which destroys location for all but exponent-scale errors.
    let cs = encode_cols_strided(&kt, s, false);
    let c1 = gemm_nn(&q, &cs.w1);
    let c2 = gemm_nn(&q, &cs.w2);

    // Detection at the scheme's resolving power: FP16-quantised checksum
    // operands make a lane's checksum-vs-fold discrepancy noisy, and the
    // noise grows with the number of elements folded per lane — a 1-wide
    // element checksum folding the whole row is ~√8 noisier than a stride-8
    // lane. This per-scheme floor is exactly the "checksum width ↑ → better
    // error coverage" economics of the paper's Fig. 1.
    let groups = (shape.bc as f32 / s as f32).max(1.0);
    // Located elements are repaired by exact recomputation, so a
    // detection floor close to the true rounding noise is safe (a false
    // positive merely recomputes a clean element).
    let noise_floor = 0.05 * (groups / 512.0).sqrt();
    // Pure-absolute detection: fold sums grow as √(lane width), so a
    // relative criterion on the fold is blind to element-scale errors —
    // the absolute noise floor is the scheme's true resolving power.
    let chk = Check::new(0.0, chk.abs_floor.max(noise_floor));
    let mismatches = verify_strided(&dirty, &c1, &c2, s, chk);
    let rep = correct_strided(&mut dirty, &mismatches, s);
    // Located elements are recomputed exactly (as the kernels do).
    for loc in &rep.corrected {
        dirty.set(loc.row, loc.col, gemm_chain(q.row(loc.row), &kt, loc.col));
    }

    // Residual corrupted elements: deviations that remain meaningful in
    // the FP16 data domain downstream (below the checksum noise floor an
    // error is indistinguishable from rounding and harmless to inference).
    let mut residual = 0u64;
    for i in 0..shape.br {
        for j in 0..shape.bc {
            let diff = (dirty.get(i, j) - clean.get(i, j)).abs();
            if diff > 0.1 * clean.get(i, j).abs().max(1.0) {
                residual += 1;
            }
        }
    }

    CoverageStats {
        trials: 1,
        injected,
        detections: rep.detections as u64,
        residual_errors: residual,
        covered: injected.saturating_sub(residual),
    }
}

/// Run `trials` coverage trials in parallel and aggregate.
pub fn coverage_campaign(
    trials: u64,
    seed: u64,
    ber: f64,
    scheme: Scheme,
    shape: GemmShape,
    chk: Check,
) -> CoverageStats {
    coverage_campaign_stride(trials, seed, ber, scheme.stride(), shape, chk)
}

/// Coverage campaign at an arbitrary checksum stride (ablation support).
pub fn coverage_campaign_stride(
    trials: u64,
    seed: u64,
    ber: f64,
    stride: usize,
    shape: GemmShape,
    chk: Check,
) -> CoverageStats {
    (0..trials)
        .into_par_iter()
        .map(|t| coverage_trial(ft_num::rng::derive_seed(seed, t), ber, stride, shape, chk))
        .reduce(CoverageStats::default, |a, b| CoverageStats {
            trials: a.trials + b.trials,
            injected: a.injected + b.injected,
            detections: a.detections + b.detections,
            residual_errors: a.residual_errors + b.residual_errors,
            covered: a.covered + b.covered,
        })
}

/// Detection / false-alarm statistics at one threshold.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectionStats {
    /// Trials with an injected fault.
    pub fault_trials: u64,
    /// Fault trials in which at least one lane flagged.
    pub detected: u64,
    /// Clean checksum lanes evaluated.
    pub clean_lanes: u64,
    /// Clean lanes that flagged (false alarms).
    pub false_alarms: u64,
}

impl DetectionStats {
    /// Fraction of injected faults detected.
    pub fn detection_rate(&self) -> f64 {
        if self.fault_trials == 0 {
            return 0.0;
        }
        self.detected as f64 / self.fault_trials as f64
    }

    /// Fraction of clean lanes flagged.
    pub fn false_alarm_rate(&self) -> f64 {
        if self.clean_lanes == 0 {
            return 0.0;
        }
        self.false_alarms as f64 / self.clean_lanes as f64
    }
}

/// One trial of the threshold-sweep experiment (Fig. 12-right): inject one
/// uniformly random bit flip into one random S element, then test detection
/// at relative threshold `tau`; also count clean-lane false alarms.
fn detection_trial(seed: u64, tau: f32, scheme: Scheme, shape: GemmShape) -> DetectionStats {
    let s = scheme.stride();
    let chk = Check::new(tau, 0.0);
    let mut rng = rng_from_seed(seed);
    let (q, kt) = operands(&mut rng, shape);
    let s_mat = gemm_nn(&q, &kt);
    let cs = encode_cols_strided(&kt, s, true);
    let c1 = gemm_nn(&q, &cs.w1);

    // False alarms on the clean result.
    let sums_clean = strided_sums(&s_mat, s);
    let mut fa = 0u64;
    for i in 0..shape.br {
        for t in 0..s {
            if chk.detects(sums_clean.get(i, t), c1.get(i, t)) {
                fa += 1;
            }
        }
    }

    // One random bit flip in one random element.
    use rand::Rng;
    let (fi, fj) = (rng.gen_range(0..shape.br), rng.gen_range(0..shape.bc));
    let bit = rng.gen_range(0..32u32);
    let mut dirty = s_mat.clone();
    let corrupted = f32::from_bits(dirty.get(fi, fj).to_bits() ^ (1u32 << bit));
    dirty.set(fi, fj, corrupted);
    let sums_dirty = strided_sums(&dirty, s);
    let mut detected = false;
    for i in 0..shape.br {
        for t in 0..s {
            if chk.detects(sums_dirty.get(i, t), c1.get(i, t)) {
                detected = true;
            }
        }
    }

    DetectionStats {
        fault_trials: 1,
        detected: detected as u64,
        clean_lanes: (shape.br * s) as u64,
        false_alarms: fa,
    }
}

/// Run the threshold-sweep campaign at `tau`.
pub fn detection_campaign(
    trials: u64,
    seed: u64,
    tau: f32,
    scheme: Scheme,
    shape: GemmShape,
) -> DetectionStats {
    (0..trials)
        .into_par_iter()
        .map(|t| detection_trial(ft_num::rng::derive_seed(seed, t), tau, scheme, shape))
        .reduce(DetectionStats::default, |a, b| DetectionStats {
            fault_trials: a.fault_trials + b.fault_trials,
            detected: a.detected + b.detected,
            clean_lanes: a.clean_lanes + b.clean_lanes,
            false_alarms: a.false_alarms + b.false_alarms,
        })
}

/// One SNVR product-check trial (Fig. 14-left): transport checksums through
/// subtract + exp, inject one bit flip into one exponential output, measure
/// detection at `tau`; false alarms from the clean product lanes.
fn snvr_trial(seed: u64, tau: f32, shape: GemmShape) -> DetectionStats {
    use ft_abft::propagate::{
        residue_counts, strided_products, transport_exp, transport_subtract_max,
    };
    let s = 8usize;
    let chk = Check::new(tau, 0.0);
    let mut rng = rng_from_seed(seed);
    let (q, kt) = operands(&mut rng, shape);
    let s_mat = gemm_nn(&q, &kt);
    // Checksums in FP32 here: the transported product check is the paper's
    // ε₁ ≈ 7e-6 regime, which presumes accumulator-precision checksums.
    let cs = encode_cols_strided(&kt, s, false);
    let mut c1 = gemm_nn(&q, &cs.w1);

    let row_max: Vec<f32> = (0..shape.br)
        .map(|i| {
            s_mat
                .row(i)
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max)
        })
        .collect();
    let p = MatrixF32::from_fn(shape.br, shape.bc, |i, j| {
        (s_mat.get(i, j) - row_max[i]).exp()
    });
    let counts = residue_counts(shape.bc, s);
    transport_subtract_max(&mut c1, &row_max, &counts);
    let p_c1 = transport_exp(&c1);

    // Clean false alarms.
    let prods = strided_products(&p, s);
    let mut fa = 0u64;
    for i in 0..shape.br {
        for t in 0..s {
            if chk.detects(prods.get(i, t), p_c1.get(i, t)) {
                fa += 1;
            }
        }
    }

    // One bit flip in one exponential output.
    use rand::Rng;
    let (fi, fj) = (rng.gen_range(0..shape.br), rng.gen_range(0..shape.bc));
    let bit = rng.gen_range(0..32u32);
    let mut dirty = p.clone();
    dirty.set(
        fi,
        fj,
        f32::from_bits(dirty.get(fi, fj).to_bits() ^ (1u32 << bit)),
    );
    let prods_dirty = strided_products(&dirty, s);
    let mut detected = false;
    for i in 0..shape.br {
        for t in 0..s {
            if chk.detects(prods_dirty.get(i, t), p_c1.get(i, t)) {
                detected = true;
            }
        }
    }

    DetectionStats {
        fault_trials: 1,
        detected: detected as u64,
        clean_lanes: (shape.br * s) as u64,
        false_alarms: fa,
    }
}

/// Run the SNVR threshold campaign at `tau`.
pub fn snvr_campaign(trials: u64, seed: u64, tau: f32, shape: GemmShape) -> DetectionStats {
    (0..trials)
        .into_par_iter()
        .map(|t| snvr_trial(ft_num::rng::derive_seed(seed, t), tau, shape))
        .reduce(DetectionStats::default, |a, b| DetectionStats {
            fault_trials: a.fault_trials + b.fault_trials,
            detected: a.detected + b.detected,
            clean_lanes: a.clean_lanes + b.clean_lanes,
            false_alarms: a.false_alarms + b.false_alarms,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_abft::thresholds::Thresholds;

    #[test]
    fn zero_ber_has_full_coverage_and_no_residue() {
        let st = coverage_campaign(
            8,
            1,
            0.0,
            Scheme::Tensor,
            GemmShape::default(),
            Thresholds::calibrated().gemm,
        );
        assert_eq!(st.injected, 0);
        assert_eq!(st.residual_errors, 0);
        assert!((st.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tensor_scheme_beats_element_scheme_at_high_ber() {
        // At a BER high enough for multi-error rows, the 8-wide checksum
        // must repair more faults than the 1-wide (paper Fig. 12-left).
        let shape = GemmShape::default();
        let chk = Thresholds::calibrated().gemm;
        let ber = 2e-4; // ≈ 0.8 faults/row on a 64×64×64 block pair
        let tensor = coverage_campaign(24, 7, ber, Scheme::Tensor, shape, chk);
        let element = coverage_campaign(24, 7, ber, Scheme::Element, shape, chk);
        assert!(
            tensor.injected > 50,
            "need enough faults: {}",
            tensor.injected
        );
        assert!(
            tensor.coverage() > element.coverage(),
            "tensor {} vs element {}",
            tensor.coverage(),
            element.coverage()
        );
    }

    #[test]
    fn detection_rate_decreases_with_threshold() {
        let shape = GemmShape::default();
        let lo = detection_campaign(64, 3, 0.01, Scheme::Tensor, shape);
        let hi = detection_campaign(64, 3, 0.99, Scheme::Tensor, shape);
        assert!(lo.detection_rate() >= hi.detection_rate());
        // Near-zero threshold flags everything incl. clean lanes.
        let fa_lo = detection_campaign(64, 3, 1e-6, Scheme::Tensor, shape);
        assert!(
            fa_lo.false_alarm_rate() > 0.5,
            "fa {}",
            fa_lo.false_alarm_rate()
        );
    }

    #[test]
    fn snvr_sweep_shows_fa_detection_tradeoff() {
        let shape = GemmShape::default();
        let tight = snvr_campaign(48, 9, 1e-7, shape);
        let loose = snvr_campaign(48, 9, 1e-2, shape);
        // Tight threshold: high detection AND high false alarms.
        assert!(tight.detection_rate() >= loose.detection_rate());
        assert!(tight.false_alarm_rate() >= loose.false_alarm_rate());
        // At some threshold detection is meaningful (> half: bit flips in
        // high mantissa/exponent dominate the product).
        assert!(tight.detection_rate() > 0.5, "{}", tight.detection_rate());
    }
}
