//! Flash attention: tiled, online-softmax, O(n)-memory exact attention
//! (paper §2.1, Eqs. 1–7) — *without* fault tolerance.
//!
//! This is the "E2E Attention" baseline every overhead percentage in
//! Figs. 10–13 and Tables 1–2 is measured against. The EFTA kernel in
//! [`crate::efta`] is this computation plus the hybrid protection scheme.
//!
//! GEMM I reads each column block as `Kᵀ`, the k-major operand every GEMM
//! in `ft_sim` reads, decoded and transposed once per slot per call for
//! every row block (as the EFTA kernel prepares its operands). The
//! online-softmax state (`OnlineState`, `online_update`, `finalize`) is
//! the one thing this module lends the other kernels: the unprotected
//! decode tile runs it, and so does EFTA's recomputation fallback. Its
//! exponentials are `ft_num::expf` (a port of glibc's `expf`), each row
//! of P through the slice form `expf_slice`, as the EFTA step's are.

// Index-based loops are kept deliberately: they mirror the thread/lane
// structure of the GPU kernels this module models.
#![allow(clippy::needless_range_loop)]

use crate::config::AttentionConfig;
use crate::types::{AttentionOutput, FtReport, PhaseBreakdown};
use ft_num::{block_starts, expf, expf_slice, Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::cost::Timeline;
use ft_sim::device::KernelStats;
use ft_sim::{gemm_flops, gemm_nn, ragged_product};
use rayon::prelude::*;

/// State of one row-block's online softmax accumulation.
pub(crate) struct OnlineState {
    /// Running row maxima m_i.
    pub m: Vec<f32>,
    /// Running row sums ℓ_i.
    pub ell: Vec<f32>,
    /// Unnormalised output accumulator (B × d).
    pub o: MatrixF32,
}

impl OnlineState {
    pub(crate) fn new(rows: usize, dim: usize) -> Self {
        OnlineState {
            m: vec![f32::NEG_INFINITY; rows],
            ell: vec![0.0; rows],
            o: Matrix::zeros(rows, dim),
        }
    }
}

/// One inner iteration of the online-softmax update of state rows
/// `r0 .. r0 + s_blk.rows()` for a score block `s_blk` (rows × bc) and
/// value block `v_blk` (bc × d), row `i` over its first `w(i)` columns
/// (`w` non-decreasing; a causal chunk's frontier rows see a prefix of the
/// block): new maxima, rescale factors, exp block P, rowsum update and O
/// update. A column past a row's width never enters its max, sum or
/// product. Rows are independent, so a row range updated together is
/// bit-identical to its rows updated one at a time, each against its own
/// `w(i)` columns.
pub(crate) fn online_update(
    state: &mut OnlineState,
    r0: usize,
    s_blk: &MatrixF32,
    v_blk: &MatrixF32,
    w: impl Fn(usize) -> usize,
) {
    let rows = s_blk.rows();
    let mut p = Matrix::zeros(rows, s_blk.cols());
    let mut factors = vec![0.0f32; rows];
    for i in 0..rows {
        let r = r0 + i;
        let s_row = &s_blk.row(i)[..w(i)];
        let blk_max = s_row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let m_new = state.m[r].max(blk_max);
        let factor = if state.m[r].is_finite() {
            expf(state.m[r] - m_new)
        } else {
            0.0
        };
        let prow = &mut p.row_mut(i)[..s_row.len()];
        for (e, &s) in prow.iter_mut().zip(s_row) {
            *e = s - m_new;
        }
        expf_slice(prow);
        let rowsum = prow.iter().fold(0.0f32, |sum, &e| sum + e);
        state.ell[r] = factor * state.ell[r] + rowsum;
        state.m[r] = m_new;
        factors[i] = factor;
    }
    // O = diag(factor)·O + P·V.
    let pv = ragged_product(&p, v_blk, w);
    for i in 0..rows {
        let f = factors[i];
        for (o, &d) in state.o.row_mut(r0 + i).iter_mut().zip(pv.row(i)) {
            *o = f * *o + d;
        }
    }
}

/// Finalise: O = diag(1/ℓ)·O.
pub(crate) fn finalize(state: &mut OnlineState) {
    for i in 0..state.o.rows() {
        let inv = 1.0 / state.ell[i];
        for v in state.o.row_mut(i) {
            *v *= inv;
        }
    }
}

/// Flash kernel body; [`BackendKind::Flash`](crate::backend::BackendKind::Flash)
/// is the public entry point.
pub(crate) fn flash_forward(
    cfg: &AttentionConfig,
    q: &Tensor4F16,
    k: &Tensor4F16,
    v: &Tensor4F16,
) -> AttentionOutput {
    let b = cfg.block;
    let nb = cfg.num_blocks();
    let d = cfg.head_dim;

    // Each slot's `Kᵀ` blocks (GEMM I's k-major operand), decoded and
    // transposed once for every row block that reads them. V blocks are
    // decoded where they are read: preparing them too measured slower
    // (a V block fresh from its decode is still in cache for GEMM II).
    let kt_blocks: Vec<Vec<MatrixF32>> = (0..cfg.num_slots())
        .into_par_iter()
        .map(|slot| {
            let km = k.slot_flat(slot);
            block_starts(cfg.seq, b)
                .map(|c0| km.block(c0, 0, b, d).to_f32().transpose())
                .collect()
        })
        .collect();

    // All (slot, row-block) pairs are independent CTAs.
    let tasks: Vec<(usize, usize)> = (0..cfg.num_slots())
        .flat_map(|s| block_starts(cfg.seq, b).map(move |r0| (s, r0)))
        .collect();

    let results: Vec<(usize, usize, MatrixF32)> = tasks
        .into_par_iter()
        .map(|(slot, r0)| {
            let q_blk_raw = q.slot_flat(slot).block(r0, 0, b, d).to_f32();
            let rows = q_blk_raw.rows();
            let q_blk = Matrix::from_fn(rows, d, |i, j| q_blk_raw.get(i, j) * cfg.scale);
            let mut state = OnlineState::new(rows, d);
            let vm = v.slot_flat(slot);
            for (c0, kt) in block_starts(cfg.seq, b).zip(&kt_blocks[slot]) {
                if cfg.causal && c0 > r0 + rows - 1 {
                    break; // block entirely above the diagonal
                }
                let mut s_blk = gemm_nn(&q_blk, kt);
                if cfg.causal {
                    for i in 0..s_blk.rows() {
                        for j in 0..s_blk.cols() {
                            if c0 + j > r0 + i {
                                s_blk.set(i, j, f32::NEG_INFINITY);
                            }
                        }
                    }
                }
                let v_blk = vm.block(c0, 0, b, d).to_f32();
                online_update(&mut state, 0, &s_blk, &v_blk, |_| s_blk.cols());
            }
            finalize(&mut state);
            (slot, r0, state.o)
        })
        .collect();

    let mut o = Tensor4F32::zeros(cfg.batch, cfg.heads, cfg.seq, cfg.head_dim);
    for (slot, r0, blk) in results {
        let (bi, h) = o.unflatten(slot);
        o.slot_mut(bi, h).set_block(r0, 0, &blk);
    }

    // One fused kernel launch; HBM traffic per the flash-attention IO model.
    let slots = cfg.num_slots() as u64;
    let blk_bytes = (b * d * 2) as u64;
    let stats = KernelStats {
        launches: 1,
        hbm_read: slots * (nb as u64 * blk_bytes + (nb * nb) as u64 * 2 * blk_bytes),
        hbm_written: slots * (cfg.seq * d * 2) as u64,
        tc_flops: slots * 2 * gemm_flops(cfg.seq, cfg.seq, d),
        fp32_flops: slots * 4 * (cfg.seq * cfg.seq) as u64,
        sfu_ops: slots * (cfg.seq * cfg.seq) as u64,
        serial_flops: 0,
    };
    let mut timeline = Timeline::new();
    timeline.push("flash", stats);

    AttentionOutput {
        o,
        timeline,
        report: FtReport::default(),
        phases: PhaseBreakdown::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_forward;
    use ft_num::rng::normal_tensor_f16;
    use proptest::prelude::*;

    fn qkv(cfg: &AttentionConfig, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
        let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
        (q, k, v)
    }

    #[test]
    fn matches_reference_attention() {
        let cfg = AttentionConfig::new(2, 2, 96, 32).with_block(32);
        let (q, k, v) = qkv(&cfg, 42);
        let flash = flash_forward(&cfg, &q, &k, &v);
        let reference = reference_forward(&cfg, &q, &k, &v);
        let diff = flash.o.max_abs_diff(&reference);
        assert!(diff < 5e-5, "flash vs reference diff {diff}");
    }

    #[test]
    fn matches_reference_with_ragged_last_block() {
        let cfg = AttentionConfig::new(1, 2, 50, 16).with_block(16);
        let (q, k, v) = qkv(&cfg, 7);
        let flash = flash_forward(&cfg, &q, &k, &v);
        let reference = reference_forward(&cfg, &q, &k, &v);
        assert!(flash.o.max_abs_diff(&reference) < 5e-5);
    }

    #[test]
    fn matches_reference_causal() {
        let cfg = AttentionConfig::new(1, 2, 64, 16)
            .with_block(16)
            .with_causal(true);
        let (q, k, v) = qkv(&cfg, 8);
        let flash = flash_forward(&cfg, &q, &k, &v);
        let reference = reference_forward(&cfg, &q, &k, &v);
        assert!(flash.o.max_abs_diff(&reference) < 5e-5);
    }

    #[test]
    fn single_kernel_launch_and_linear_writes() {
        let cfg = AttentionConfig::new(1, 4, 128, 32).with_block(64);
        let (q, k, v) = qkv(&cfg, 9);
        let out = flash_forward(&cfg, &q, &k, &v);
        let total = out.timeline.total();
        assert_eq!(total.launches, 1);
        // Writes are O(seq·d), NOT O(seq²).
        assert_eq!(total.hbm_written, 4 * 128 * 32 * 2);
        assert!(out.report.clean());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_flash_equals_reference(
            seq in 16usize..80,
            dim_pow in 3u32..6,
            block in prop::sample::select(vec![16usize, 24, 32]),
            seed in 0u64..500,
        ) {
            let dim = 1usize << dim_pow;
            let cfg = AttentionConfig::new(1, 1, seq, dim).with_block(block);
            let (q, k, v) = qkv(&cfg, seed);
            let flash = flash_forward(&cfg, &q, &k, &v);
            let reference = reference_forward(&cfg, &q, &k, &v);
            prop_assert!(flash.o.max_abs_diff(&reference) < 1e-4);
        }
    }
}
