//! A pre-norm transformer block: `x + MHA(LN(x))`, then `x + FFN(LN(x))`.

use crate::ffn::FeedForward;
use crate::mha::{BackendKind, KvCache, MultiHeadAttention};
use crate::norm::LayerNorm;
use ft_abft::thresholds::Thresholds;
use ft_core::serve::StreamId;
use ft_core::types::FtReport;
use ft_num::MatrixF32;
use ft_sim::FaultInjector;

/// One transformer block.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    /// Pre-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Multi-head attention.
    pub mha: MultiHeadAttention,
    /// Pre-FFN LayerNorm.
    pub ln2: LayerNorm,
    /// Feed-forward network.
    pub ffn: FeedForward,
}

impl TransformerBlock {
    /// Random block (seeded).
    pub fn random(
        seed: u64,
        hidden: usize,
        heads: usize,
        ffn_dim: usize,
        kernel: BackendKind,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(hidden),
            mha: MultiHeadAttention::random(seed, hidden, heads, kernel),
            ln2: LayerNorm::new(hidden),
            ffn: FeedForward::random(seed + 100, hidden, ffn_dim),
        }
    }

    /// Forward pass over `seq × hidden` activations.
    pub fn forward<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        inj: &I,
        layer_idx: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, FtReport) {
        let mut normed = x.clone();
        self.ln1.forward(&mut normed);
        let (attn, mha_rep) = self.mha.forward(&normed, inj, layer_idx * 2, thresholds);
        let (h, mut reports) = self.residual_ffn(x, &attn, &[x.rows()], inj, layer_idx, thresholds);
        let ffn_rep = reports.pop().expect("one segment, one ledger");
        (h, mha_rep.merged(&ffn_rep))
    }

    /// Continuous-batching decode forward over many streams' activation
    /// chunks stacked into `x` (stream `i` owns the next `segments[i]`
    /// rows, each attending through its own cache). Norms and residuals
    /// are row-wise over the stack; every projection runs once over it
    /// (see [`MultiHeadAttention::forward_decode_batch`] and
    /// [`FeedForward::forward_stacked`]), with each stream's rows in their
    /// own fault namespace; the attention fan-out is shared across streams.
    /// `windows[i]` is stream `i`'s sliding attention window (a per-stream
    /// request property): that stream's cache is front-evicted before its
    /// chunk is appended and each of its rows attends only its window —
    /// eviction counts land in that stream's ledger
    /// (`cache_evicted_blocks`). Returns the stacked output and one ledger
    /// per stream.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_decode_batch<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        segments: &[usize],
        caches: &mut [&mut KvCache],
        streams: &[StreamId],
        windows: &[Option<usize>],
        inj: &I,
        layer_idx: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, Vec<FtReport>) {
        let mut normed = x.clone();
        self.ln1.forward(&mut normed);
        let (attn, mha_reps) = self.mha.forward_decode_batch(
            &normed,
            segments,
            caches,
            streams,
            windows,
            inj,
            layer_idx * 2,
            thresholds,
        );
        let (h, ffn_reps) = self.residual_ffn(x, &attn, segments, inj, layer_idx, thresholds);
        let reports = mha_reps.iter().zip(&ffn_reps).map(|(a, f)| a.merged(f));
        (h, reports.collect())
    }

    /// `h = x + attn`, then `h + FFN(LN(h))` over stacked segments.
    fn residual_ffn<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        attn: &MatrixF32,
        segments: &[usize],
        inj: &I,
        layer_idx: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, Vec<FtReport>) {
        let mut h = x.clone();
        add_rows(&mut h, attn);
        let mut normed = h.clone();
        self.ln2.forward(&mut normed);
        let (ff, reports) =
            self.ffn
                .forward_stacked(&normed, segments, inj, layer_idx * 2 + 1, thresholds);
        add_rows(&mut h, &ff);
        (h, reports)
    }
}

/// `into += from`, element-wise.
fn add_rows(into: &mut MatrixF32, from: &MatrixF32) {
    for (v, a) in into.as_mut_slice().iter_mut().zip(from.as_slice()) {
        *v += a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::efta::EftaOptions;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::NoFaults;

    #[test]
    fn block_preserves_shape_and_is_deterministic() {
        let blk = TransformerBlock::random(1, 32, 4, 64, BackendKind::Flash);
        let mut rng = rng_from_seed(2);
        let x = normal_matrix_f16(&mut rng, 16, 32, 1.0).to_f32();
        let (y1, _) = blk.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        let (y2, _) = blk.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(y1.shape(), (16, 32));
        assert_eq!(y1, y2);
    }

    #[test]
    fn residual_path_dominates_small_weights() {
        // With 0.02-scale weights the block output stays near the input.
        let blk = TransformerBlock::random(3, 32, 4, 64, BackendKind::Flash);
        let mut rng = rng_from_seed(4);
        let x = normal_matrix_f16(&mut rng, 16, 32, 1.0).to_f32();
        let (y, _) = blk.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert!(y.max_abs_diff(&x) < 1.0, "residual output drifted too far");
    }

    #[test]
    fn efta_and_flash_blocks_agree_when_clean() {
        let flash_blk = TransformerBlock::random(5, 64, 8, 128, BackendKind::Flash);
        let efta_blk = TransformerBlock {
            mha: MultiHeadAttention {
                kernel: BackendKind::Efta(EftaOptions::optimized()),
                ..flash_blk.mha.clone()
            },
            ..flash_blk.clone()
        };
        let mut rng = rng_from_seed(6);
        let x = normal_matrix_f16(&mut rng, 32, 64, 1.0).to_f32();
        let (yf, _) = flash_blk.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        let (ye, rep) = efta_blk.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert!(rep.clean());
        assert!(yf.max_abs_diff(&ye) < 1e-2);
    }
}
