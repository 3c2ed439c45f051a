//! Roofline cost model turning [`KernelStats`]
//! into simulated A100 execution time.
//!
//! Each kernel's time is `launch_overhead + max(memory_time, compute_time)`
//! — the classical roofline: a kernel is either bandwidth-bound or
//! compute-bound, and the fused/decoupled comparison in the paper flips
//! between those regimes exactly as HBM traffic changes. Constants are
//! calibrated to the paper's testbed (40 GB A100-PCIE, CUDA 12.4):
//!
//! | resource | peak |
//! |---|---|
//! | HBM bandwidth | 1 555 GB/s |
//! | FP16 tensor core | 312 TFLOP/s |
//! | FP32 CUDA core | 19.5 TFLOP/s |
//! | SFU (exp) | ~3.9 Top/s (¼ FP32 rate) |
//! | kernel launch | 5 µs |
//!
//! Absolute times are *not* expected to match the paper (their kernels are
//! hand-tuned CUTLASS; ours is a model), but ratios between variants — the
//! content of Figs. 9–13 and Tables 1–2 — are governed by the same traffic
//! and FLOP counts.

use crate::device::KernelStats;

/// Peak-rate description of a simulated accelerator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// HBM bandwidth in bytes/second.
    pub hbm_bandwidth: f64,
    /// Tensor-core FP16/FP32-accumulate throughput in FLOP/s.
    pub tc_peak_flops: f64,
    /// FP32 CUDA-core throughput in FLOP/s.
    pub fp32_peak_flops: f64,
    /// Special-function-unit throughput (exp) in op/s.
    pub sfu_peak_ops: f64,
    /// Fixed cost of one kernel launch, in seconds.
    pub kernel_launch: f64,
    /// Achievable fraction of peak (kernels never reach 100%).
    pub efficiency: f64,
}

impl CostModel {
    /// The paper's testbed: 40 GB A100-PCIE.
    pub fn a100_pcie_40gb() -> Self {
        CostModel {
            hbm_bandwidth: 1.555e12,
            tc_peak_flops: 312e12,
            fp32_peak_flops: 19.5e12,
            sfu_peak_ops: 4.875e12,
            kernel_launch: 5e-6,
            efficiency: 0.55,
        }
    }

    /// Time for one kernel with the given stats, in seconds.
    pub fn kernel_time(&self, stats: &KernelStats) -> f64 {
        let mem = stats.hbm_total() as f64 / (self.hbm_bandwidth * self.efficiency);
        let tc = stats.tc_flops as f64 / (self.tc_peak_flops * self.efficiency);
        let fp32 = stats.fp32_flops as f64 / (self.fp32_peak_flops * self.efficiency);
        let sfu = stats.sfu_ops as f64 / (self.sfu_peak_ops * self.efficiency);
        // Tensor-core, CUDA-core and SFU pipelines are distinct units that
        // overlap with each other and with memory; the kernel is as slow as
        // its most loaded resource. Serialized work (checksum verification
        // reductions, DMR comparisons) cannot hide under the overlap and is
        // paid on top.
        let compute = tc.max(fp32).max(sfu);
        let serial = stats.serial_flops as f64 / (self.fp32_peak_flops * self.efficiency);
        stats.launches as f64 * self.kernel_launch + mem.max(compute) + serial
    }
}

/// A labelled sequence of kernel executions; the unit of comparison between
/// attention variants.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    records: Vec<(String, KernelStats)>,
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Append a kernel record.
    pub fn push(&mut self, label: impl Into<String>, stats: KernelStats) {
        self.records.push((label.into(), stats));
    }

    /// All records.
    pub fn records(&self) -> &[(String, KernelStats)] {
        &self.records
    }

    /// Merge all records into one stats total.
    pub fn total(&self) -> KernelStats {
        self.records
            .iter()
            .fold(KernelStats::default(), |acc, (_, s)| acc.merge(s))
    }

    /// Total simulated time under `model`: kernels execute sequentially.
    pub fn simulated_time(&self, model: &CostModel) -> f64 {
        self.records.iter().map(|(_, s)| model.kernel_time(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(launches: u64, read: u64, written: u64, tc: u64) -> KernelStats {
        KernelStats {
            launches,
            hbm_read: read,
            hbm_written: written,
            tc_flops: tc,
            fp32_flops: 0,
            sfu_ops: 0,
            serial_flops: 0,
        }
    }

    #[test]
    fn serial_work_adds_on_top_of_overlap() {
        let m = CostModel::a100_pcie_40gb();
        let mut s = stats(1, 1 << 30, 0, 0);
        let base = m.kernel_time(&s);
        s.serial_flops = 1 << 40;
        let with_serial = m.kernel_time(&s);
        let expect_extra = (1u64 << 40) as f64 / (m.fp32_peak_flops * m.efficiency);
        assert!(((with_serial - base) - expect_extra).abs() / expect_extra < 1e-9);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let m = CostModel::a100_pcie_40gb();
        let t = m.kernel_time(&stats(1, 1024, 1024, 1024));
        assert!(t > 4.9e-6 && t < 6e-6, "tiny kernel ≈ launch cost, got {t}");
    }

    #[test]
    fn bandwidth_bound_kernel_scales_with_bytes() {
        let m = CostModel::a100_pcie_40gb();
        let t1 = m.kernel_time(&stats(1, 1 << 30, 0, 0));
        let t2 = m.kernel_time(&stats(1, 2 << 30, 0, 0));
        let ratio = (t2 - m.kernel_launch) / (t1 - m.kernel_launch);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_ignores_small_traffic() {
        let m = CostModel::a100_pcie_40gb();
        // Huge FLOPs, tiny memory: time tracks FLOPs.
        let heavy = stats(1, 1024, 1024, 1 << 50);
        let t = m.kernel_time(&heavy);
        let expect = (1u64 << 50) as f64 / (m.tc_peak_flops * m.efficiency) + m.kernel_launch;
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn three_launches_cost_more_than_one_for_same_work() {
        // The decoupled pipeline's intrinsic penalty.
        let m = CostModel::a100_pcie_40gb();
        let work = stats(1, 1 << 20, 1 << 20, 1 << 30);
        let mut fused = Timeline::new();
        fused.push("efta", work);
        let mut decoupled = Timeline::new();
        let third = stats(1, (1 << 20) / 3, (1 << 20) / 3, (1 << 30) / 3);
        decoupled.push("k1", third);
        decoupled.push("k2", third);
        decoupled.push("k3", third);
        assert!(decoupled.simulated_time(&m) > fused.simulated_time(&m));
    }

    #[test]
    fn timeline_total_sums_every_record() {
        let mut t = Timeline::new();
        t.push("gemm1/protect", stats(1, 10, 10, 100));
        t.push("softmax", stats(1, 20, 20, 0));
        t.push("gemm2/protect", stats(1, 30, 30, 300));
        assert_eq!(t.total().hbm_read, 60);
    }
}
