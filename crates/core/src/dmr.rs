//! Dual modular redundancy (DMR) for softmax — the traditional nonlinear-op
//! protection (paper Eqs. 10–11) used by the decoupled baseline and by the
//! DMR arm of the Fig. 13 comparison.
//!
//! The exponential and the normalised weights are computed twice; a result
//! is accepted when consecutive replicas agree within ε and the row sums of
//! P are consistent. Replicas see *independent* fault draws (the replica
//! index enters the injection coordinate), so a transient fault makes the
//! replicas disagree and triggers re-execution, up to `max_rounds`.

use ft_num::{expf, Matrix, MatrixF32};
use ft_sim::{FaultInjector, FaultSite, OpCoord};

/// DMR tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DmrConfig {
    /// Element-wise agreement tolerance (ε in Eq. 10).
    pub epsilon: f32,
    /// Maximum re-execution rounds before accepting the last replica.
    pub max_rounds: usize,
}

impl Default for DmrConfig {
    fn default() -> Self {
        DmrConfig {
            epsilon: 1e-4,
            max_rounds: 3,
        }
    }
}

/// Outcome of a DMR-protected computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmrOutcome {
    /// Total replicas executed (≥ 2).
    pub executions: usize,
    /// Disagreement events observed.
    pub retries: usize,
    /// False when `max_rounds` was exhausted without agreement.
    pub stable: bool,
}

/// One replica of the stabilised row softmax of `s`, with faults injected at
/// the softmax sites under replica id `replica`.
fn softmax_replica<I: FaultInjector>(
    s: &MatrixF32,
    inj: &I,
    slot: usize,
    row_off: usize,
    replica: usize,
) -> MatrixF32 {
    let (m, n) = s.shape();
    let mut p = Matrix::zeros(m, n);
    for i in 0..m {
        let gi = row_off + i;
        let mut max = f32::NEG_INFINITY;
        for &v in s.row(i) {
            max = max.max(v);
        }
        max = inj.corrupt_f32(
            FaultSite::MaxReduce,
            OpCoord::new(slot, gi, replica, 100),
            max,
        );
        let mut sum = 0.0f32;
        let prow = p.row_mut(i);
        for (j, &v) in s.row(i).iter().enumerate() {
            let e = expf(v - max);
            let e = inj.corrupt_f32(FaultSite::ExpUnit, OpCoord::new(slot, gi, j, replica), e);
            prow[j] = e;
            sum += e;
        }
        let sum = inj.corrupt_f32(
            FaultSite::SumReduce,
            OpCoord::new(slot, gi, replica, 101),
            sum,
        );
        let inv = 1.0 / sum;
        for v in prow.iter_mut() {
            *v *= inv;
        }
    }
    p
}

/// Replicas agree when every element differs by less than ε and every row of
/// the second replica sums to ≈ 1 (Eq. 11's rowsum check).
fn replicas_agree(a: &MatrixF32, b: &MatrixF32, eps: f32) -> bool {
    if a.max_abs_diff(b) >= eps {
        return false;
    }
    for i in 0..b.rows() {
        let sum: f32 = b.row(i).iter().sum();
        if (sum - 1.0).abs() >= eps.max(1e-3) {
            return false;
        }
    }
    true
}

/// DMR-protected row softmax: repeat until two consecutive replicas agree.
/// Returns the accepted P and the outcome record.
pub fn dmr_row_softmax<I: FaultInjector>(
    s: &MatrixF32,
    inj: &I,
    slot: usize,
    row_off: usize,
    cfg: &DmrConfig,
) -> (MatrixF32, DmrOutcome) {
    let mut prev = softmax_replica(s, inj, slot, row_off, 0);
    let mut executions = 1;
    let mut retries = 0;
    for round in 1..=cfg.max_rounds {
        let next = softmax_replica(s, inj, slot, row_off, round);
        executions += 1;
        if replicas_agree(&prev, &next, cfg.epsilon) {
            return (
                next,
                DmrOutcome {
                    executions,
                    retries,
                    stable: true,
                },
            );
        }
        retries += 1;
        prev = next;
    }
    (
        prev,
        DmrOutcome {
            executions,
            retries,
            stable: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::{NoFaults, SeuInjector};

    #[test]
    fn fault_free_dmr_runs_exactly_two_replicas() {
        let mut rng = rng_from_seed(40);
        let s = normal_matrix_f16(&mut rng, 8, 16, 1.0).to_f32();
        let (p, out) = dmr_row_softmax(&s, &NoFaults, 0, 0, &DmrConfig::default());
        assert_eq!(out.executions, 2);
        assert_eq!(out.retries, 0);
        assert!(out.stable);
        for i in 0..8 {
            let sum: f32 = p.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn single_replica_fault_is_masked_by_retry() {
        let mut rng = rng_from_seed(41);
        let s = normal_matrix_f16(&mut rng, 8, 16, 1.0).to_f32();
        // Fault in replica 0's exp at (2, 5): exponent-bit flip.
        let inj = SeuInjector::new(FaultSite::ExpUnit, OpCoord::new(0, 2, 5, 0), 28);
        let (p, out) = dmr_row_softmax(&s, &inj, 0, 0, &DmrConfig::default());
        assert!(out.stable);
        assert!(out.retries >= 1, "disagreement must be observed");
        // Final P matches the clean softmax.
        let (clean, _) = dmr_row_softmax(&s, &NoFaults, 0, 0, &DmrConfig::default());
        assert!(p.max_abs_diff(&clean) < 1e-5);
    }

    #[test]
    fn max_reduce_fault_triggers_retry_and_converges() {
        let mut rng = rng_from_seed(42);
        let s = normal_matrix_f16(&mut rng, 4, 8, 1.0).to_f32();
        let inj = SeuInjector::new(FaultSite::MaxReduce, OpCoord::new(0, 1, 0, 100), 27);
        let (p, out) = dmr_row_softmax(&s, &inj, 0, 0, &DmrConfig::default());
        assert!(out.stable);
        let (clean, _) = dmr_row_softmax(&s, &NoFaults, 0, 0, &DmrConfig::default());
        assert!(p.max_abs_diff(&clean) < 1e-4);
    }

    #[test]
    fn coordinates_isolate_slots() {
        // A fault targeted at slot 3 must not affect slot 0's DMR.
        let mut rng = rng_from_seed(43);
        let s = normal_matrix_f16(&mut rng, 4, 8, 1.0).to_f32();
        let inj = SeuInjector::new(FaultSite::ExpUnit, OpCoord::new(3, 1, 1, 0), 28);
        let (_, out) = dmr_row_softmax(&s, &inj, 0, 0, &DmrConfig::default());
        assert_eq!(out.retries, 0);
        assert_eq!(inj.fired(), 0);
    }
}
