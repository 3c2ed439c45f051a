//! Multi-head attention wiring the Q/K/V/O projections around any
//! [`AttentionBackend`] from `ft-core`, selected by [`BackendKind`].

use crate::linear::Linear;
use ft_abft::thresholds::Thresholds;
use ft_core::backend::{AttentionBackend, AttentionRequest};
use ft_core::config::AttentionConfig;
use ft_core::serve::{StreamId, StreamSlice};
use ft_core::types::FtReport;
use ft_num::{Matrix, MatrixF32, Tensor4F16};
use ft_sim::FaultInjector;
use std::ops::Range;

pub use ft_core::backend::BackendKind;
pub use ft_core::kv::KvCache;

/// Multi-head attention module.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Number of heads.
    pub heads: usize,
    /// Attention backend selection.
    pub kernel: BackendKind,
    /// Causal masking for the prefill path. The decode path is inherently
    /// causal (the cache only holds the past), so prefill must be causal
    /// too for the two to produce the same activations. Unmasked prefill
    /// (the paper's benchmark setting) remains the default.
    pub causal: bool,
    /// Rows per KV-cache block ([`KvCache::block`]); also the granularity
    /// of sliding-window eviction. Defaults to the paper's 64-row CTA
    /// tile; benches and tests shrink it to exercise eviction at small
    /// sequence lengths.
    pub cache_block: usize,
}

/// The paper's CTA tile: default rows per KV-cache block.
pub const DEFAULT_CACHE_BLOCK: usize = 64;

impl MultiHeadAttention {
    /// Random MHA (seeded) for `hidden = heads × head_dim`.
    pub fn random(seed: u64, hidden: usize, heads: usize, kernel: BackendKind) -> Self {
        assert_eq!(hidden % heads, 0, "hidden must split evenly across heads");
        MultiHeadAttention {
            wq: Linear::random(seed, hidden, hidden),
            wk: Linear::random(seed + 1, hidden, hidden),
            wv: Linear::random(seed + 2, hidden, hidden),
            wo: Linear::random(seed + 3, hidden, hidden),
            heads,
            kernel,
            causal: false,
            cache_block: DEFAULT_CACHE_BLOCK,
        }
    }

    /// Split rows `rows` of `· × hidden` activations into a
    /// `1 × heads × rows.len() × head_dim` FP16 tensor (the attention
    /// kernel's operand precision).
    fn split_heads(&self, x: &MatrixF32, rows: Range<usize>) -> Tensor4F16 {
        let hd = x.cols() / self.heads;
        let mut t = Tensor4F16::zeros(1, self.heads, rows.len(), hd);
        for h in 0..self.heads {
            let slot = t.slot_mut(0, h);
            for (i, r) in rows.clone().enumerate() {
                let src = &x.row(r)[h * hd..(h + 1) * hd];
                for (dst, &v) in slot.row_mut(i).iter_mut().zip(src) {
                    *dst = ft_num::F16::from_f32(v);
                }
            }
        }
        t
    }

    /// Merge a `1 × heads × seq × head_dim` tensor back into rows
    /// `start .. start + seq` of `· × hidden` activations.
    fn merge_heads(&self, t: &ft_num::Tensor4F32, out: &mut MatrixF32, start: usize) {
        let (seq, hd) = (t.seq(), t.dim());
        for h in 0..self.heads {
            let slot = t.slot(0, h);
            for i in 0..seq {
                out.row_mut(start + i)[h * hd..(h + 1) * hd].copy_from_slice(slot.row(i));
            }
        }
    }

    /// Forward pass over `seq × hidden` activations. The returned ledger
    /// is the attention kernel's plus the four projections'.
    pub fn forward<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, FtReport) {
        let (seq, hidden) = x.shape();
        let hd = hidden / self.heads;

        let (q, r1) = self.wq.forward(x, inj, layer_slot * 8, thresholds);
        let (k, r2) = self.wk.forward(x, inj, layer_slot * 8 + 1, thresholds);
        let (v, r3) = self.wv.forward(x, inj, layer_slot * 8 + 2, thresholds);

        let qt = self.split_heads(&q, 0..seq);
        let kt = self.split_heads(&k, 0..seq);
        let vt = self.split_heads(&v, 0..seq);
        let cfg = AttentionConfig::new(1, self.heads, seq, hd)
            .with_auto_block()
            .with_causal(self.causal);

        let out = self
            .kernel
            .run(&AttentionRequest::new(cfg, &qt, &kt, &vt).with_injector(inj));

        let mut merged = Matrix::zeros(seq, hidden);
        self.merge_heads(&out.o, &mut merged, 0);
        let (y, r4) = self
            .wo
            .forward(&merged, inj, layer_slot * 8 + 3, thresholds);
        let projections = r1.merged(&r2).merged(&r3).merged(&r4);
        (y, out.report.merged(&projections))
    }

    /// Fresh per-layer KV cache matching this module's head geometry and
    /// configured [`cache_block`](MultiHeadAttention::cache_block) size.
    pub fn new_cache(&self) -> KvCache {
        let hd = self.wq.out_features() / self.heads;
        KvCache::new(
            1,
            self.heads,
            hd,
            self.cache_block,
            ft_abft::strided::DEFAULT_STRIDE,
            1.0 / (hd as f32).sqrt(),
        )
    }

    /// One continuous-batching sweep over many streams' activations,
    /// stacked into `x`: stream `i` owns the next `segments[i]` rows (one
    /// row for a decoding stream, a prefill chunk otherwise). Q/K/V are
    /// projected once over the whole stack, each stream appends its K/V
    /// rows to its own cache, every stream's rows attend through the
    /// backend's batched
    /// [`try_decode_sweep`](AttentionBackend::try_decode_sweep) (one
    /// kernel fan-out shared by all streams), and the output projection
    /// runs once over the stacked attention rows. Returns the stacked
    /// output and one ledger per stream: the projections keep each
    /// stream's rows in their own fault namespace and ledger
    /// ([`Linear::forward_stacked`]), so every stream sees exactly the
    /// events its own per-stream projections would.
    ///
    /// `windows[i]` is stream `i`'s sliding attention window (its
    /// `GenerationRequest::window`): it drives both that stream's
    /// pre-append storage eviction and its rows' [`StreamSlice::window`] in
    /// the kernel sweep.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_decode_batch<I: FaultInjector>(
        &self,
        x: &MatrixF32,
        segments: &[usize],
        caches: &mut [&mut KvCache],
        streams: &[StreamId],
        windows: &[Option<usize>],
        inj: &I,
        layer_slot: usize,
        thresholds: &Thresholds,
    ) -> (MatrixF32, Vec<FtReport>) {
        assert_eq!(segments.len(), caches.len());
        assert_eq!(segments.len(), streams.len());
        assert_eq!(segments.len(), windows.len());
        let project =
            |w: &Linear, slot: usize| w.forward_stacked(x, segments, inj, slot, thresholds);
        let (q, rq) = project(&self.wq, layer_slot * 8);
        let (k, rk) = project(&self.wk, layer_slot * 8 + 1);
        let (v, rv) = project(&self.wv, layer_slot * 8 + 2);
        let mut reports = Vec::with_capacity(segments.len());
        let mut qts = Vec::with_capacity(segments.len());
        let mut start = 0;
        for (i, &c) in segments.iter().enumerate() {
            let rows = start..start + c;
            start += c;
            let mut report = rq[i].merged(&rk[i]).merged(&rv[i]);
            qts.push(self.split_heads(&q, rows.clone()));
            // Evict on the pre-chunk length: every chunk row's causal
            // window still finds its blocks resident (see
            // `KvCache::enforce_window`). Per stream: each stream's own
            // request window governs its storage.
            if let Some(w) = windows[i] {
                report.cache_evicted_blocks = caches[i].enforce_window(w) as u64;
            }
            // The one `KvReadReport` → ledger conversion. heal.uncorrectable
            // is deliberately NOT taken: append already folded it into the
            // cache's sticky `poisoned` counter, which the protected sweep
            // re-surfaces as cache_uncorrectable — it would double-count.
            let heal = caches[i].append(
                &self.split_heads(&k, rows.clone()),
                &self.split_heads(&v, rows),
            );
            report.cache_detected = heal.detected;
            report.cache_corrected = heal.corrected;
            reports.push(report);
        }
        let slices: Vec<StreamSlice<'_>> = qts
            .iter()
            .enumerate()
            .map(|(i, q)| StreamSlice {
                stream: streams[i],
                cache: &*caches[i],
                q,
                window: windows[i],
            })
            .collect();
        let outs = self.kernel.decode_sweep(&slices, inj, Some(*thresholds));
        drop(slices);
        let mut merged = Matrix::zeros(x.rows(), x.cols());
        let mut start = 0;
        for (report, out) in reports.iter_mut().zip(&outs) {
            self.merge_heads(&out.o, &mut merged, start);
            start += out.o.seq();
            *report = report.merged(&out.report);
        }
        let (y, ro) =
            self.wo
                .forward_stacked(&merged, segments, inj, layer_slot * 8 + 3, thresholds);
        for (report, r4) in reports.iter_mut().zip(&ro) {
            *report = report.merged(r4);
        }
        (y, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::efta::EftaOptions;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};
    use ft_sim::NoFaults;

    #[test]
    fn split_merge_round_trip() {
        let mha = MultiHeadAttention::random(1, 32, 4, BackendKind::Flash);
        let mut rng = rng_from_seed(2);
        let x = normal_matrix_f16(&mut rng, 16, 32, 1.0).to_f32();
        let t = mha.split_heads(&x, 0..16);
        assert_eq!((t.heads(), t.seq(), t.dim()), (4, 16, 8));
        let mut back = MatrixF32::zeros(16, 32);
        mha.merge_heads(&t.to_f32(), &mut back, 0);
        // Values passed through FP16 once, inputs were already FP16-exact.
        assert!(back.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn flash_and_efta_kernels_agree_when_clean() {
        let mut rng = rng_from_seed(3);
        let x = normal_matrix_f16(&mut rng, 64, 32, 1.0).to_f32();
        let flash = MultiHeadAttention::random(7, 32, 4, BackendKind::Flash);
        let efta = MultiHeadAttention {
            kernel: BackendKind::Efta(EftaOptions::optimized()),
            ..flash.clone()
        };
        let (yf, _) = flash.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        let (ye, rep) = efta.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert!(rep.clean(), "{rep:?}");
        let diff = yf.max_abs_diff(&ye);
        assert!(diff < 1e-2, "kernel mismatch {diff}");
    }

    #[test]
    fn output_shape_matches_input() {
        let mha = MultiHeadAttention::random(5, 48, 6, BackendKind::Flash);
        let mut rng = rng_from_seed(6);
        let x = normal_matrix_f16(&mut rng, 40, 48, 1.0).to_f32();
        let (y, _) = mha.forward(&x, &NoFaults, 0, &Thresholds::calibrated());
        assert_eq!(y.shape(), (40, 48));
    }
}
