//! Naive exact attention — the correctness oracle.
//!
//! `O = softmax(scale · Q Kᵀ) V` computed the obvious O(n²)-memory way with
//! a numerically stable row softmax, entirely in f32 on FP16-quantised
//! inputs. Every other kernel in this crate is tested against this one.

use crate::config::AttentionConfig;
use ft_num::{expf_slice, Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::gemm_nn;
use rayon::prelude::*;

/// Stable row softmax of `s`, in place; returns (row_max, row_sum) pairs.
pub fn row_softmax(s: &mut MatrixF32) -> Vec<(f32, f32)> {
    let (m, _n) = s.shape();
    let mut stats = Vec::with_capacity(m);
    for i in 0..m {
        let row = s.row_mut(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
        expf_slice(row);
        let sum = row.iter().fold(0.0f32, |sum, &e| sum + e);
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
        stats.push((max, sum));
    }
    stats
}

/// Apply a causal mask: positions `j > i` are excluded (−∞ score).
pub fn causal_mask(s: &mut MatrixF32) {
    let (m, n) = s.shape();
    for i in 0..m {
        let row = s.row_mut(i);
        for (j, v) in row.iter_mut().enumerate().take(n) {
            if j > i {
                *v = f32::NEG_INFINITY;
            }
        }
    }
}

/// Exact attention on one (batch, head) slot, `k` row-major (one key per
/// row); GEMM I reads it as `Kᵀ`.
pub fn reference_attention_slot(
    q: &MatrixF32,
    k: &MatrixF32,
    v: &MatrixF32,
    scale: f32,
    causal: bool,
) -> MatrixF32 {
    let q_scaled = Matrix::from_fn(q.rows(), q.cols(), |i, j| q.get(i, j) * scale);
    let mut s = gemm_nn(&q_scaled, &k.transpose());
    if causal {
        causal_mask(&mut s);
    }
    row_softmax(&mut s);
    gemm_nn(&s, v)
}

/// Reference kernel body;
/// [`BackendKind::Reference`](crate::backend::BackendKind::Reference) is the
/// public entry point.
pub(crate) fn reference_forward(
    cfg: &AttentionConfig,
    q: &Tensor4F16,
    k: &Tensor4F16,
    v: &Tensor4F16,
) -> Tensor4F32 {
    let slots: Vec<MatrixF32> = (0..cfg.num_slots())
        .into_par_iter()
        .map(|i| {
            reference_attention_slot(
                &q.slot_flat(i).to_f32(),
                &k.slot_flat(i).to_f32(),
                &v.slot_flat(i).to_f32(),
                cfg.scale,
                cfg.causal,
            )
        })
        .collect();
    Tensor4F32::from_slots(cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::normal_tensor_f16;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut s = MatrixF32::from_fn(4, 8, |i, j| (i * 8 + j) as f32 * 0.3 - 2.0);
        row_softmax(&mut s);
        for i in 0..4 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i}: {sum}");
            assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = MatrixF32::from_fn(2, 6, |i, j| (i + j) as f32);
        let b = MatrixF32::from_fn(2, 6, |i, j| (i + j) as f32 + 1000.0);
        let mut sa = a.clone();
        let mut sb = b.clone();
        row_softmax(&mut sa);
        row_softmax(&mut sb);
        assert!(sa.max_abs_diff(&sb) < 1e-6);
    }

    #[test]
    fn softmax_handles_large_scores_without_overflow() {
        let mut s = MatrixF32::from_fn(1, 4, |_, j| 200.0 + j as f32 * 50.0);
        row_softmax(&mut s);
        assert!(!s.has_non_finite());
        let sum: f32 = s.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn causal_mask_zeroes_upper_triangle_after_softmax() {
        let mut s = MatrixF32::from_fn(4, 4, |_, _| 1.0);
        causal_mask(&mut s);
        row_softmax(&mut s);
        for i in 0..4 {
            for j in 0..4 {
                if j > i {
                    assert_eq!(s.get(i, j), 0.0);
                } else {
                    assert!((s.get(i, j) - 1.0 / (i + 1) as f32).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn attention_of_identity_values_recovers_attention_weights_shape() {
        // With V = I (seq == dim), O rows are the softmax weights.
        let cfg = AttentionConfig::new(1, 1, 8, 8);
        let q = normal_tensor_f16(1, 1, 1, 8, 8, 0.5);
        let k = normal_tensor_f16(2, 1, 1, 8, 8, 0.5);
        let mut v = ft_num::Tensor4F16::zeros(1, 1, 8, 8);
        for i in 0..8 {
            v.slot_mut(0, 0).set(i, i, ft_num::F16::ONE);
        }
        let o = reference_forward(&cfg, &q, &k, &v);
        for i in 0..8 {
            let sum: f32 = o.slot(0, 0).row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn output_is_convex_combination_of_values() {
        let cfg = AttentionConfig::new(2, 2, 16, 8);
        let q = normal_tensor_f16(3, 2, 2, 16, 8, 0.5);
        let k = normal_tensor_f16(4, 2, 2, 16, 8, 0.5);
        let v = normal_tensor_f16(5, 2, 2, 16, 8, 1.0);
        let o = reference_forward(&cfg, &q, &k, &v);
        // Each output element lies within [min V col, max V col].
        for slot in 0..4 {
            let vm = v.slot_flat(slot).to_f32();
            for c in 0..8 {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for r in 0..16 {
                    lo = lo.min(vm.get(r, c));
                    hi = hi.max(vm.get(r, c));
                }
                for r in 0..16 {
                    let x = o.slot_flat(slot).get(r, c);
                    assert!(x >= lo - 1e-4 && x <= hi + 1e-4);
                }
            }
        }
    }
}
