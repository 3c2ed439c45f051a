//! The traditional operation-level fault-tolerance pipeline (paper §3.1,
//! Figs. 2–3) — the baseline EFTA is compared against in Fig. 9.
//!
//! Three kernels execute sequentially, each round-tripping through HBM:
//!
//! 1. **ABFT-GEMM I** — `S = Q·Kᵀ`, block-tiled, protected by traditional
//!    element checksums in *both* directions; S is materialised in HBM
//!    (the O(n²) memory the paper eliminates — with a 40 GB device this is
//!    the OOM at seq = 16k in Fig. 9).
//! 2. **DMR-RSM** — row softmax with dual modular redundancy (Eqs. 10–11);
//!    P is materialised in HBM.
//! 3. **ABFT-GEMM II** — `O = P·V`, row-tiled, element-checksum protected.
//!
//! The element checksum is [`ft_abft::strided`] at stride 1, so every
//! check here is one the rest of the repo makes:
//! * **encode** — each operand's rows fold with `encode_rows_strided(·, 1,
//!   true)` (FP16-quantised) and the two sums stack under it: Q and P
//!   blocks gain two checksum rows, K blocks two checksum columns of `Kᵀ`;
//! * **column check** (GEMMs I and II) — `verify_correct_cols_strided(·,
//!   1)` against the product's two checksum rows;
//! * **row check** (GEMM I, after the column check) — `verify_strided(·,
//!   1)` against its two checksum columns, then `correct_strided(·, 1)`.
//!
//! Both checks locate through `locate_group`, so several errors aliasing
//! one line are flagged (the block is recomputed) rather than "corrected"
//! at a bogus index. The detection criteria (`GEMM_CHECK`, `OUTPUT_CHECK`)
//! and the DMR settings (`dmr`'s `EPSILON`, `MAX_ROUNDS`) are constants;
//! the one option is whether to protect at all.

use crate::config::AttentionConfig;
use crate::dmr::dmr_row_softmax;
use crate::types::{AttentionOutput, FtReport, PhaseBreakdown};
use ft_abft::strided::{
    correct_strided, encode_rows_strided, verify_correct_cols_strided, verify_strided,
};
use ft_abft::thresholds::Check;
use ft_num::{block_starts, Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::cost::Timeline;
use ft_sim::device::{Device, KernelStats, OomError};
use ft_sim::{gemm_chain, gemm_fault_pass, gemm_flops, gemm_nn, FaultInjector, FaultSite, GemmCtx};
use rayon::prelude::*;
use std::time::Instant;

/// Checksum vectors are FP16 tensor-core operands: every encode rounds them
/// through binary16.
const QUANTIZE_CHECKSUMS: bool = true;

/// GEMM I's element-checksum criterion, both directions. Element checksums
/// fold whole block rows and columns through FP16-quantised checksum
/// vectors, so their rounding-noise floor sits an order of magnitude above
/// the stride-8 lanes'; the floors here are calibrated to that wider fold.
const GEMM_CHECK: Check = Check::new(0.48, 0.05);

/// GEMM II's element-checksum criterion (its column check), calibrated
/// like `GEMM_CHECK`.
const OUTPUT_CHECK: Check = Check::new(0.05, 0.02);

/// Options for the decoupled pipeline.
#[derive(Clone, Copy, Debug)]
pub struct DecoupledOptions {
    /// Apply fault tolerance. `false` runs the same three-kernel pipeline
    /// without checksums or DMR — the "Baseline" bars of Fig. 9.
    pub protect: bool,
}

impl Default for DecoupledOptions {
    fn default() -> Self {
        DecoupledOptions { protect: true }
    }
}

impl DecoupledOptions {
    /// The unprotected three-kernel baseline.
    pub fn unprotected() -> Self {
        DecoupledOptions { protect: false }
    }
}

/// HBM bytes of the per-block checksum rows and columns kernel I writes.
fn checksum_bytes(cfg: &AttentionConfig) -> u64 {
    let nb = cfg.num_blocks();
    (cfg.num_slots() * nb * nb * (4 * cfg.block + 4) * 2) as u64
}

/// The pipeline's simulated-HBM reservations for `cfg`, in the order
/// [`decoupled_forward`] makes them: the Q/K/V/O tensors, FP32 S with the
/// per-block checksums when protected, and FP16 P.
fn hbm_reservations(cfg: &AttentionConfig, protect: bool) -> [u64; 3] {
    let checksums = if protect { checksum_bytes(cfg) } else { 0 };
    let s = 2 * cfg.score_bytes() + checksums;
    [4 * cfg.tensor_bytes(), s, cfg.score_bytes()]
}

/// Simulated-HBM residency the pipeline needs for `cfg`: the sum of what
/// it reserves. Exceeding the device capacity is the Fig. 9 OOM.
pub fn hbm_demand(cfg: &AttentionConfig, protect: bool) -> u64 {
    hbm_reservations(cfg, protect).iter().sum()
}

/// Analytic kernel statistics of the three-kernel pipeline — shape-derived,
/// used to evaluate the simulated-A100 roofline at full paper sizes.
pub fn analytic_timeline(cfg: &AttentionConfig, protect: bool) -> Timeline {
    let b = cfg.block;
    let d = cfg.head_dim;
    let nb = cfg.num_blocks();
    let slots_u = cfg.num_slots() as u64;
    let seq = cfg.seq as u64;
    let seq2 = seq * seq;
    let blk_bytes = (b * d * 2) as u64;
    let nb_u = nb as u64;
    let checksums = if protect { checksum_bytes(cfg) } else { 0 };
    let aug = if protect { 2 * nb } else { 0 };
    let k1 = KernelStats {
        launches: 1,
        hbm_read: slots_u * (nb_u * nb_u * 2 * blk_bytes),
        hbm_written: slots_u * (seq2 * 4) + checksums,
        tc_flops: slots_u * gemm_flops(cfg.seq + aug, cfg.seq + aug, d),
        fp32_flops: 0,
        sfu_ops: 0,
        // Element-checksum verification reduces S twice (rows and columns)
        // with the inter-thread gathers of the traditional layout.
        serial_flops: slots_u
            * if protect {
                3 * (4 * seq2 + 2 * (cfg.seq * d) as u64 * nb_u)
            } else {
                0
            },
    };
    let dmr_reads = if protect { 2 } else { 1 };
    let k2 = KernelStats {
        launches: 1,
        hbm_read: slots_u * (dmr_reads * seq2 * 4),
        hbm_written: slots_u * (seq2 * 2),
        tc_flops: 0,
        fp32_flops: slots_u * 3 * seq2,
        sfu_ops: slots_u * if protect { 2 * seq2 } else { seq2 },
        serial_flops: slots_u * if protect { 4 * seq2 } else { 0 },
    };
    let k3 = KernelStats {
        launches: 1,
        hbm_read: slots_u * (seq2 * 2 + nb_u * (cfg.seq * d * 2) as u64),
        hbm_written: slots_u * (cfg.seq * d * 2) as u64,
        tc_flops: slots_u * gemm_flops(cfg.seq + aug, d, cfg.seq),
        fp32_flops: 0,
        sfu_ops: 0,
        serial_flops: slots_u
            * if protect {
                3 * (2 * seq2 + 2 * (cfg.seq * d) as u64)
            } else {
                0
            },
    };
    let mut timeline = Timeline::new();
    timeline.push("kernel1/abft-gemm-qkt", k1);
    timeline.push("kernel2/dmr-softmax", k2);
    timeline.push("kernel3/abft-gemm-pv", k3);
    timeline
}

/// `a` with its element checksum rows stacked under it when `protect`: the
/// stride-1 row fold of `a`, plain then index-weighted, FP16-quantised.
fn augment(a: &MatrixF32, protect: bool) -> MatrixF32 {
    if !protect {
        return a.clone();
    }
    let cs = encode_rows_strided(a, 1, QUANTIZE_CHECKSUMS);
    Matrix::vstack(&[a, &cs.w1, &cs.w2])
}

/// The column check of a product block `c` (its top-left part of `full`)
/// against the two checksum rows `full` carries under it.
fn verify_cols(c: &mut MatrixF32, full: &MatrixF32, chk: Check) -> ft_abft::AbftReport {
    let (br, bc) = c.shape();
    let (row1, row2) = (full.block(br, 0, 1, bc), full.block(br + 1, 0, 1, bc));
    verify_correct_cols_strided(c, &row1, &row2, 1, chk)
}

/// One slot task's result: its matrix, fault ledger and phase times.
type SlotResult = (MatrixF32, FtReport, PhaseBreakdown);

/// The matrices of one kernel's slot tasks, in slot order, with every
/// task's ledger and phase times folded into the running totals.
fn fold_slots(
    results: Vec<SlotResult>,
    report: &mut FtReport,
    phases: &mut PhaseBreakdown,
) -> Vec<MatrixF32> {
    results
        .into_iter()
        .map(|(m, task_report, task_phases)| {
            *report = report.merged(&task_report);
            *phases = phases.merged(&task_phases);
            m
        })
        .collect()
}

/// Decoupled pipeline body;
/// [`BackendKind::Decoupled`](crate::backend::BackendKind::Decoupled) is the
/// public entry point.
///
/// `device` provides the simulated HBM; the S and P tensors are reserved on
/// it and the run fails with [`OomError`] exactly where the paper's baseline
/// does. Each kernel runs one task per slot; every task returns its own
/// fault ledger and phase times.
pub(crate) fn decoupled_forward<I: FaultInjector>(
    cfg: &AttentionConfig,
    q: &Tensor4F16,
    k: &Tensor4F16,
    v: &Tensor4F16,
    inj: &I,
    opts: &DecoupledOptions,
    device: &Device,
) -> Result<AttentionOutput, OomError> {
    assert!(
        !cfg.causal,
        "the decoupled baseline protects unmasked attention"
    );
    let mut report = FtReport::default();
    let mut phases = PhaseBreakdown::default();
    let b = cfg.block;
    let d = cfg.head_dim;
    let nb = cfg.num_blocks();

    // Input/output tensors resident in HBM. Kernel I materialises S in
    // FP32 (accumulator precision — the softmax kernel and the checksum
    // comparisons consume it directly), plus the per-block checksum
    // rows/cols when protected; kernel II materialises P (FP16, the GEMM
    // III operand precision).
    let [qkvo_bytes, s_bytes, p_bytes] = hbm_reservations(cfg, opts.protect);
    let _qkv_alloc = device.hbm.alloc(qkvo_bytes)?;
    let s_alloc = device.hbm.alloc(s_bytes)?;
    let p_alloc = device.hbm.alloc(p_bytes)?;

    let slots = cfg.num_slots();

    // ---- Kernel I: ABFT-GEMM S = Q·Kᵀ ---------------------------------
    let s_tasks: Vec<SlotResult> = (0..slots)
        .into_par_iter()
        .map(|slot| {
            let mut report = FtReport::default();
            let mut phases = PhaseBreakdown::default();
            let qm = q.slot_flat(slot).to_f32();
            let km = k.slot_flat(slot).to_f32();
            let q_scaled = Matrix::from_fn(qm.rows(), qm.cols(), |i, j| qm.get(i, j) * cfg.scale);
            // Each K block k-major, as GEMM I reads it: `Kᵀ`, with the row
            // checksums of S_ij (encoded from K's rows) as two more
            // columns when protected. Prepared once for every row block.
            let kt_blocks: Vec<MatrixF32> = block_starts(cfg.seq, b)
                .map(|c0| augment(&km.block(c0, 0, b, d), opts.protect).transpose())
                .collect();
            let mut s_full = Matrix::zeros(cfg.seq, cfg.seq);
            for (ib, r0) in block_starts(cfg.seq, b).enumerate() {
                let q_blk = q_scaled.block(r0, 0, b, d);
                // Column checksums of S_ij come from encoding Q's rows.
                let q_aug = augment(&q_blk, opts.protect);
                for (jb, (c0, kt_aug)) in block_starts(cfg.seq, b).zip(&kt_blocks).enumerate() {
                    let t0 = Instant::now();
                    let ctx = GemmCtx::new(FaultSite::GemmIAccum, slot)
                        .at(r0, c0)
                        .iter(ib * nb + jb);
                    let mut full = gemm_nn(&q_aug, kt_aug);
                    let shape = |_| (d, kt_aug.cols());
                    gemm_fault_pass(&mut full, &q_aug, 0..q_aug.rows(), kt_aug, shape, inj, ctx);
                    phases.gemm1 += t0.elapsed().as_secs_f64();

                    if !opts.protect {
                        s_full.set_block(r0, c0, &full);
                        continue;
                    }
                    let t0 = Instant::now();
                    let br = q_blk.rows();
                    let bc = kt_aug.cols() - 2;
                    let mut s_blk = full.block(0, 0, br, bc);
                    let rep_c = verify_cols(&mut s_blk, &full, GEMM_CHECK);
                    let (col1, col2) = (full.block(0, bc, br, 1), full.block(0, bc + 1, br, 1));
                    let mismatches = verify_strided(&s_blk, &col1, &col2, 1, GEMM_CHECK);
                    let rep_r = correct_strided(&mut s_blk, &mismatches, 1);
                    // Located elements are recomputed exactly: a 2^100-scale
                    // delta swamps f32, so subtraction alone cannot restore
                    // the true value.
                    for loc in rep_c.corrected.iter().chain(rep_r.corrected.iter()) {
                        let exact = gemm_chain(q_blk.row(loc.row), kt_aug, loc.col);
                        s_blk.set(loc.row, loc.col, exact);
                    }
                    report.gemm1_detected += (rep_c.detections + rep_r.detections) as u64;
                    report.gemm1_corrected +=
                        (rep_c.corrected.len() + rep_r.corrected.len()) as u64;
                    let uncorrectable = rep_c.uncorrectable + rep_r.uncorrectable;
                    if uncorrectable > 0 {
                        // Recompute the block without protection mishaps.
                        s_blk = gemm_nn(&q_blk, kt_aug).block(0, 0, br, bc);
                        report.gemm1_recomputed += uncorrectable as u64;
                    }
                    phases.gemm1_protect += t0.elapsed().as_secs_f64();
                    s_full.set_block(r0, c0, &s_blk);
                }
            }
            // Stored to HBM in FP32 accumulator precision.
            (s_full, report, phases)
        })
        .collect();
    let s_tensors = fold_slots(s_tasks, &mut report, &mut phases);

    // ---- Kernel II: DMR row softmax ------------------------------------
    let p_tasks: Vec<SlotResult> = s_tensors
        .into_par_iter()
        .enumerate()
        .map(|(slot, s_mat)| {
            let mut report = FtReport::default();
            let mut phases = PhaseBreakdown::default();
            let mut p_full = Matrix::zeros(cfg.seq, cfg.seq);
            for r0 in block_starts(cfg.seq, b) {
                let mut s_blk = s_mat.block(r0, 0, b, cfg.seq);
                if opts.protect {
                    let t0 = Instant::now();
                    let (p_blk, outcome) = dmr_row_softmax(&s_blk, inj, slot, r0);
                    // First replica is "compute", the rest is protection.
                    let elapsed = t0.elapsed().as_secs_f64();
                    let per_exec = elapsed / outcome.executions as f64;
                    phases.softmax += per_exec;
                    phases.softmax_protect += elapsed - per_exec;
                    report.dmr_retries += outcome.retries as u64;
                    p_full.set_block(r0, 0, &p_blk);
                } else {
                    let t0 = Instant::now();
                    crate::reference::row_softmax(&mut s_blk);
                    phases.softmax += t0.elapsed().as_secs_f64();
                    p_full.set_block(r0, 0, &s_blk);
                }
            }
            (p_full.to_f16().to_f32(), report, phases)
        })
        .collect();
    let p_tensors = fold_slots(p_tasks, &mut report, &mut phases);

    // ---- Kernel III: ABFT-GEMM O = P·V ----------------------------------
    let o_tasks: Vec<SlotResult> = p_tensors
        .into_par_iter()
        .enumerate()
        .map(|(slot, p_mat)| {
            let mut report = FtReport::default();
            let mut phases = PhaseBreakdown::default();
            let vm = v.slot_flat(slot).to_f32();
            let mut o_full = Matrix::zeros(cfg.seq, d);
            for (ib, r0) in block_starts(cfg.seq, b).enumerate() {
                let p_blk = p_mat.block(r0, 0, b, cfg.seq);
                let t0 = Instant::now();
                let p_aug = augment(&p_blk, opts.protect);
                if opts.protect {
                    phases.gemm2_protect += t0.elapsed().as_secs_f64();
                }

                let t0 = Instant::now();
                let ctx = GemmCtx::new(FaultSite::GemmIiAccum, slot)
                    .at(r0, 0)
                    .iter(ib);
                let mut full = gemm_nn(&p_aug, &vm);
                let shape = |_| (cfg.seq, d);
                gemm_fault_pass(&mut full, &p_aug, 0..p_aug.rows(), &vm, shape, inj, ctx);
                phases.gemm2 += t0.elapsed().as_secs_f64();

                if !opts.protect {
                    o_full.set_block(r0, 0, &full);
                    continue;
                }
                let t0 = Instant::now();
                let br = p_blk.rows();
                let mut o_blk = full.block(0, 0, br, d);
                let rep = verify_cols(&mut o_blk, &full, OUTPUT_CHECK);
                for loc in &rep.corrected {
                    let exact = gemm_chain(p_blk.row(loc.row), &vm, loc.col);
                    o_blk.set(loc.row, loc.col, exact);
                }
                report.gemm2_detected += rep.detections as u64;
                report.gemm2_corrected += rep.corrected.len() as u64;
                if rep.uncorrectable > 0 {
                    o_blk = gemm_nn(&p_blk, &vm);
                    report.gemm2_recomputed += rep.uncorrectable as u64;
                }
                phases.gemm2_protect += t0.elapsed().as_secs_f64();
                o_full.set_block(r0, 0, &o_blk);
            }
            (o_full, report, phases)
        })
        .collect();
    let o_slots = fold_slots(o_tasks, &mut report, &mut phases);

    drop(s_alloc);
    drop(p_alloc);

    let o = Tensor4F32::from_slots(cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, o_slots);

    Ok(AttentionOutput {
        o,
        timeline: analytic_timeline(cfg, opts.protect),
        report,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_forward;
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::{NoFaults, OpCoord, SeuInjector};

    fn qkv(cfg: &AttentionConfig, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
        let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
        (q, k, v)
    }

    #[test]
    fn clean_decoupled_matches_reference() {
        let cfg = AttentionConfig::new(1, 2, 64, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 70);
        let dev = Device::a100_40gb();
        let out = decoupled_forward(
            &cfg,
            &q,
            &k,
            &v,
            &NoFaults,
            &DecoupledOptions::default(),
            &dev,
        )
        .unwrap();
        let reference = reference_forward(&cfg, &q, &k, &v);
        // S and P round-trip through FP16 in HBM, so tolerance is FP16-ish.
        let diff = out.o.max_abs_diff(&reference);
        assert!(diff < 5e-3, "diff {diff}");
        assert!(out.report.clean(), "{:?}", out.report);
    }

    #[test]
    fn three_kernel_launches_and_quadratic_writes() {
        let cfg = AttentionConfig::new(1, 2, 128, 32).with_block(64);
        let (q, k, v) = qkv(&cfg, 71);
        let dev = Device::a100_40gb();
        let out = decoupled_forward(
            &cfg,
            &q,
            &k,
            &v,
            &NoFaults,
            &DecoupledOptions::default(),
            &dev,
        )
        .unwrap();
        let total = out.timeline.total();
        assert_eq!(total.launches, 3);
        // Writes include two full seq² tensors.
        assert!(total.hbm_written >= 2 * cfg.score_bytes());
    }

    #[test]
    fn oom_at_paper_scale_for_large_config() {
        // h=32, seq=16k, batch=1: S (FP32) is 32 GiB and P (FP16) 16 GiB —
        // past the 40 GB card, the Fig. 9 OOM. The medium config (h=16,
        // d=64) still fits, matching the paper (no OOM in its plot).
        let large = AttentionConfig::large(1, 16 * 1024);
        let dev = Device::a100_40gb();
        let need = 4 * large.tensor_bytes() + 3 * large.score_bytes();
        assert!(need > dev.hbm.capacity(), "large must exceed 40 GB: {need}");
        let medium = AttentionConfig::medium(1, 16 * 1024);
        let fits = 4 * medium.tensor_bytes() + 3 * medium.score_bytes();
        assert!(fits < dev.hbm.capacity(), "medium must fit: {fits}");
    }

    #[test]
    fn gemm1_seu_corrected_by_element_checksums() {
        let cfg = AttentionConfig::new(1, 1, 64, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 72);
        let dev = Device::a100_40gb();
        let clean = decoupled_forward(
            &cfg,
            &q,
            &k,
            &v,
            &NoFaults,
            &DecoupledOptions::default(),
            &dev,
        )
        .unwrap();
        // Setting exponent bit 30 of a sub-2.0 accumulator scales it by
        // ~2^128: a guaranteed-large error, detected at any threshold.
        let inj = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 10, 20, 0), 30)
            .at_chain_step(15);
        let out =
            decoupled_forward(&cfg, &q, &k, &v, &inj, &DecoupledOptions::default(), &dev).unwrap();
        assert_eq!(inj.fired(), 1);
        assert!(out.report.gemm1_detected > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    #[test]
    fn softmax_seu_masked_by_dmr() {
        let cfg = AttentionConfig::new(1, 1, 64, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 73);
        let dev = Device::a100_40gb();
        let clean = decoupled_forward(
            &cfg,
            &q,
            &k,
            &v,
            &NoFaults,
            &DecoupledOptions::default(),
            &dev,
        )
        .unwrap();
        let inj = SeuInjector::new(FaultSite::ExpUnit, OpCoord::new(0, 5, 9, 0), 28);
        let out =
            decoupled_forward(&cfg, &q, &k, &v, &inj, &DecoupledOptions::default(), &dev).unwrap();
        assert!(inj.fired() >= 1);
        assert!(out.report.dmr_retries > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    #[test]
    fn gemm2_seu_corrected() {
        let cfg = AttentionConfig::new(1, 1, 64, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 74);
        let dev = Device::a100_40gb();
        let clean = decoupled_forward(
            &cfg,
            &q,
            &k,
            &v,
            &NoFaults,
            &DecoupledOptions::default(),
            &dev,
        )
        .unwrap();
        let inj = SeuInjector::new(FaultSite::GemmIiAccum, OpCoord::new(0, 7, 11, 0), 30)
            .at_chain_step(30);
        let out =
            decoupled_forward(&cfg, &q, &k, &v, &inj, &DecoupledOptions::default(), &dev).unwrap();
        assert_eq!(inj.fired(), 1);
        assert!(out.report.gemm2_detected > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    /// Two SEUs through one injector.
    struct Both(SeuInjector, SeuInjector);

    impl FaultInjector for Both {
        fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
            let value = self.0.corrupt_f32(site, coord, value);
            self.1.corrupt_f32(site, coord, value)
        }
        fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: ft_num::F16) -> ft_num::F16 {
            let value = self.0.corrupt_f16(site, coord, value);
            self.1.corrupt_f16(site, coord, value)
        }
        fn decide_chain(
            &self,
            site: FaultSite,
            coord: OpCoord,
            k_len: usize,
        ) -> Option<ft_sim::ChainFault> {
            let first = self.0.decide_chain(site, coord, k_len);
            first.or(self.1.decide_chain(site, coord, k_len))
        }
        fn fired(&self) -> u64 {
            self.0.fired() + self.1.fired()
        }
    }

    #[test]
    fn aliased_gemm2_column_errors_are_recomputed_not_miscorrected() {
        // Two faults at the last chain step of column 3, rows 2 and 12 of
        // slot 0's first block: the column's one element-checksum lane
        // sees their sum, and its weighted ratio falls between rows. The
        // shared locate rule flags the lane and the block is recomputed to
        // the clean bits; rounding the ratio would "correct" a third row.
        let cfg = AttentionConfig::new(1, 1, 64, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 74);
        let dev = Device::a100_40gb();
        let opts = DecoupledOptions::default();
        let clean = decoupled_forward(&cfg, &q, &k, &v, &NoFaults, &opts, &dev).unwrap();
        let seu = |row| {
            SeuInjector::new(FaultSite::GemmIiAccum, OpCoord::new(0, row, 3, 0), 26)
                .at_chain_step(u32::MAX)
        };
        let inj = Both(seu(2), seu(12));
        let out = decoupled_forward(&cfg, &q, &k, &v, &inj, &opts, &dev).unwrap();
        assert_eq!(inj.fired(), 2);
        let r = &out.report;
        assert_eq!(
            (r.gemm2_detected, r.gemm2_corrected, r.gemm2_recomputed),
            (1, 0, 1),
            "{r:?}"
        );
        assert_eq!(out.o.max_abs_diff(&clean.o), 0.0);
    }

    #[test]
    fn unprotected_run_fits_its_own_demand() {
        // The unprotected pipeline reserves no checksum bytes: a device
        // sized by `hbm_demand(cfg, false)` runs it without OOM, and its
        // peak is that demand exactly.
        let cfg = AttentionConfig::new(1, 2, 256, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 76);
        for protect in [false, true] {
            let dev = Device::with_capacity(hbm_demand(&cfg, protect));
            let opts = DecoupledOptions { protect };
            decoupled_forward(&cfg, &q, &k, &v, &NoFaults, &opts, &dev).unwrap();
            assert_eq!(
                dev.hbm.peak(),
                hbm_demand(&cfg, protect),
                "protect {protect}"
            );
        }
    }

    #[test]
    fn device_memory_is_released_after_run() {
        let cfg = AttentionConfig::new(1, 2, 64, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 75);
        let dev = Device::a100_40gb();
        let _ = decoupled_forward(
            &cfg,
            &q,
            &k,
            &v,
            &NoFaults,
            &DecoupledOptions::default(),
            &dev,
        )
        .unwrap();
        assert_eq!(dev.hbm.in_use(), 0);
        assert!(dev.hbm.peak() > 0);
    }
}
