//! Parameter sweeps and the post-restriction error-distribution experiment
//! (Fig. 14-right).

use crate::campaign::{
    coverage_campaign, detection_campaign, snvr_campaign, CoverageStats, DetectionStats, GemmShape,
    Scheme,
};
use ft_abft::thresholds::Check;
use ft_core::snvr::{restrict_rowsum, traditional_restrict_weight, Restriction};
use ft_num::expf;
use ft_num::rng::rng_from_seed;
use rand::Rng;
use rayon::prelude::*;

/// Coverage-vs-BER series (Fig. 12-left).
#[derive(Clone, Debug)]
pub struct CoverageSweep {
    /// Swept bit-error rates.
    pub bers: Vec<f64>,
    /// Coverage per BER for the tensor checksum.
    pub tensor: Vec<CoverageStats>,
    /// Coverage per BER for the element checksum.
    pub element: Vec<CoverageStats>,
}

/// Run the Fig. 12-left sweep.
pub fn coverage_vs_ber(trials: u64, seed: u64, bers: &[f64], chk: Check) -> CoverageSweep {
    let shape = GemmShape::default();
    CoverageSweep {
        bers: bers.to_vec(),
        tensor: bers
            .iter()
            .map(|&b| coverage_campaign(trials, seed, b, Scheme::Tensor, shape, chk))
            .collect(),
        element: bers
            .iter()
            .map(|&b| coverage_campaign(trials, seed, b, Scheme::Element, shape, chk))
            .collect(),
    }
}

/// Detection/false-alarm-vs-threshold series (Figs. 12-right and 14-left).
#[derive(Clone, Debug)]
pub struct ThresholdSweep {
    /// Swept relative thresholds.
    pub taus: Vec<f32>,
    /// Stats per threshold.
    pub stats: Vec<DetectionStats>,
}

impl ThresholdSweep {
    /// The threshold with the best detection−false-alarm margin.
    pub fn best_tau(&self) -> f32 {
        let mut best = (f32::NEG_INFINITY, 0.0f32);
        for (tau, st) in self.taus.iter().zip(&self.stats) {
            let margin = (st.detection_rate() - st.false_alarm_rate()) as f32;
            if margin > best.0 {
                best = (margin, *tau);
            }
        }
        best.1
    }
}

/// Fig. 12-right: strided-ABFT detection/false alarms across thresholds.
pub fn abft_threshold_sweep(trials: u64, seed: u64, taus: &[f32]) -> ThresholdSweep {
    let shape = GemmShape::default();
    ThresholdSweep {
        taus: taus.to_vec(),
        stats: taus
            .iter()
            .map(|&t| detection_campaign(trials, seed, t, Scheme::Tensor, shape))
            .collect(),
    }
}

/// Fig. 14-left: SNVR product-check detection/false alarms across
/// thresholds.
pub fn snvr_threshold_sweep(trials: u64, seed: u64, taus: &[f32]) -> ThresholdSweep {
    let shape = GemmShape::default();
    ThresholdSweep {
        taus: taus.to_vec(),
        stats: taus
            .iter()
            .map(|&t| snvr_campaign(trials, seed, t, shape))
            .collect(),
    }
}

/// Histogram of post-restriction relative errors (Fig. 14-right).
#[derive(Clone, Debug)]
pub struct ErrorHistogram {
    /// Bin width.
    pub bin_width: f32,
    /// Counts per bin (bin i covers `[i·w, (i+1)·w)`).
    pub bins: Vec<u64>,
    /// Samples beyond the last bin.
    pub overflow: u64,
}

impl ErrorHistogram {
    fn new(bin_width: f32, nbins: usize) -> Self {
        ErrorHistogram {
            bin_width,
            bins: vec![0; nbins],
            overflow: 0,
        }
    }

    fn add(&mut self, v: f32) {
        let idx = (v / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    fn merge(mut self, other: ErrorHistogram) -> ErrorHistogram {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self
    }

    /// Fraction of samples at or below `limit`.
    pub fn fraction_within(&self, limit: f32) -> f64 {
        let total: u64 = self.bins.iter().sum::<u64>() + self.overflow;
        if total == 0 {
            return 1.0;
        }
        let cut = (limit / self.bin_width).round() as usize;
        let within: u64 = self.bins.iter().take(cut).sum();
        within as f64 / total as f64
    }

    /// Normalised bin rates.
    pub fn rates(&self) -> Vec<f64> {
        let total: u64 = self.bins.iter().sum::<u64>() + self.overflow;
        self.bins
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect()
    }
}

/// Post-restriction error distributions for the two restriction schemes.
#[derive(Clone, Debug)]
pub struct RestrictionComparison {
    /// Selective neuron value restriction (the paper's).
    pub selective: ErrorHistogram,
    /// Traditional restriction (clamp final weights to [0, 1]).
    pub traditional: ErrorHistogram,
}

/// One trial of the Fig. 14-right experiment.
///
/// A 64-wide softmax row is computed in 8 blocks and a single bit flip
/// lands on a uniformly chosen softmax operation — overwhelmingly an
/// exponential (64 exp ops vs 1 rowsum per row). The two restriction
/// schemes then repair what they can:
///
/// * **SNVR** protects the numerator with the checksum-reuse product check
///   (faulty exponentials are recomputed) and the denominator with the
///   range restriction — matching the paper's "protects numerator and
///   denominator separately";
/// * **traditional restriction** only clamps the final weights to [0, 1].
///
/// The recorded statistic is the RMS error of the restricted row against
/// the true softmax — a full-scale single-element clamp error on a 64-wide
/// row lands at ≈ 1/√64 = 0.125, reproducing the paper's 0–0.15 spread.
fn restriction_trial(seed: u64, hist_bins: usize, bin_w: f32) -> RestrictionComparison {
    let mut rng = rng_from_seed(seed);
    let n = 64usize;
    let blocks = 8usize;
    let stride = 8usize;
    let scores: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
    let m_global = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|s| expf(s - m_global)).collect();
    let ell_true: f32 = exps.iter().sum();
    let p_true: Vec<f32> = exps.iter().map(|e| e / ell_true).collect();

    // Block maxima (for the SNVR lower bound).
    let block_maxes: Vec<f32> = (0..blocks)
        .map(|b| {
            scores[b * (n / blocks)..(b + 1) * (n / blocks)]
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max)
        })
        .collect();

    // One bit flip on one of the row's n+1 softmax operations, drawn from
    // the FP16-visible bit range (flips below half-precision resolution do
    // not exist in the paper's data domain).
    let op = rng.gen_range(0..=n);
    let bit = rng.gen_range(13..32u32);
    let mut exps_faulty = exps.clone();
    let mut ell_faulty = ell_true;
    if op < n {
        exps_faulty[op] = f32::from_bits(exps_faulty[op].to_bits() ^ (1u32 << bit));
    } else {
        ell_faulty = f32::from_bits(ell_faulty.to_bits() ^ (1u32 << bit));
    }

    let mut selective = ErrorHistogram::new(bin_w, hist_bins);
    let mut traditional = ErrorHistogram::new(bin_w, hist_bins);
    let rms = |p: &[f32]| -> f32 {
        (p.iter()
            .zip(&p_true)
            .map(|(a, b)| {
                let d = if a.is_finite() { a - b } else { 1.0 };
                d * d
            })
            .sum::<f32>()
            / n as f32)
            .sqrt()
    };

    // ---- SNVR: product check on the numerator, range check on ℓ --------
    let chk = Check::new(0.02, 0.0);
    let mut exps_snvr = exps_faulty.clone();
    for t in 0..stride {
        let mut prod_obs = 1.0f32;
        let mut prod_ref = 1.0f32;
        let mut j = t;
        while j < n {
            prod_obs *= exps_snvr[j];
            prod_ref *= exps[j]; // transported checksum (exact transport)
            j += stride;
        }
        if chk.detects(prod_obs, prod_ref) {
            // Recompute the residue class from the (clean) scores.
            let mut j = t;
            while j < n {
                exps_snvr[j] = expf(scores[j] - m_global);
                j += stride;
            }
        }
    }
    let ell_snvr_input: f32 = if op == n {
        ell_faulty
    } else {
        exps_snvr.iter().sum()
    };
    let ell_snvr = match restrict_rowsum(ell_snvr_input, &block_maxes, m_global, n) {
        Restriction::InRange => ell_snvr_input,
        Restriction::Repaired { repaired } => repaired,
    };
    let p_snvr: Vec<f32> = exps_snvr.iter().map(|e| e / ell_snvr).collect();
    selective.add(rms(&p_snvr));

    // ---- Traditional: clamp final weights to [0, 1] ----------------------
    let ell_trad: f32 = if op == n {
        ell_faulty
    } else {
        exps_faulty.iter().sum()
    };
    let p_trad: Vec<f32> = exps_faulty
        .iter()
        .map(|e| traditional_restrict_weight(e / ell_trad))
        .collect();
    traditional.add(rms(&p_trad));

    RestrictionComparison {
        selective,
        traditional,
    }
}

/// Run the Fig. 14-right experiment: distribution of post-restriction
/// errors under rowsum faults.
pub fn restriction_error_distribution(trials: u64, seed: u64) -> RestrictionComparison {
    let bins = 25usize;
    let bin_w = 0.01f32;
    (0..trials)
        .into_par_iter()
        .map(|t| restriction_trial(ft_num::rng::derive_seed(seed, t), bins, bin_w))
        .reduce(
            || RestrictionComparison {
                selective: ErrorHistogram::new(bin_w, bins),
                traditional: ErrorHistogram::new(bin_w, bins),
            },
            |a, b| RestrictionComparison {
                selective: a.selective.merge(b.selective),
                traditional: a.traditional.merge(b.traditional),
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_abft::thresholds::Thresholds;

    #[test]
    fn coverage_sweep_shapes() {
        let sw = coverage_vs_ber(4, 1, &[1e-5, 1e-4], Thresholds::calibrated().gemm);
        assert_eq!(sw.tensor.len(), 2);
        assert_eq!(sw.element.len(), 2);
    }

    #[test]
    fn threshold_sweep_finds_interior_optimum() {
        let taus: Vec<f32> = vec![1e-4, 1e-2, 0.1, 0.3, 0.6, 0.9];
        let sw = abft_threshold_sweep(48, 5, &taus);
        let best = sw.best_tau();
        // The optimum balances FA (high at tiny τ) against missed
        // detections (high at τ→1): it must not sit at the extremes.
        assert!(best > 1e-4 && best < 0.9, "best tau {best}");
    }

    #[test]
    fn histogram_bookkeeping() {
        let mut h = ErrorHistogram::new(0.01, 10);
        h.add(0.005);
        h.add(0.015);
        h.add(0.5); // overflow
        assert_eq!(h.bins[0], 1);
        assert_eq!(h.bins[1], 1);
        assert_eq!(h.overflow, 1);
        assert!((h.fraction_within(0.02) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn snvr_restriction_concentrates_errors_below_traditional() {
        // The headline of Fig. 14-right: SNVR errors concentrate near zero
        // while traditional restriction leaves a wide distribution.
        let cmp = restriction_error_distribution(400, 11);
        let sel_within = cmp.selective.fraction_within(0.05);
        let trad_within = cmp.traditional.fraction_within(0.05);
        assert!(
            sel_within > trad_within,
            "selective {sel_within} vs traditional {trad_within}"
        );
        assert!(sel_within > 0.5, "selective too dispersed: {sel_within}");
    }
}
