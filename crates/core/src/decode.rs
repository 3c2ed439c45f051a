//! Incremental decode over a [`KvCache`].
//!
//! Autoregressive serving computes, per step, the attention of **one** new
//! query row against every cached K/V row. This module provides the
//! request type and the two tile kernels of that computation:
//!
//! * `reference_decode_tile` — unprotected online-softmax attention
//!   reading the cache raw (what every backend without its own protected
//!   decode path runs);
//! * `efta_decode_tile` — the EFTA-protected variant. It has no protected
//!   arithmetic of its own: every row runs the one Algorithm 1 block step
//!   in [`crate::efta`], exactly as a prefill row does, under the same
//!   [`EftaOptions`]. What the tile adds around that step is what is
//!   genuinely decode's: block-major reads through
//!   [`KvCache::verified_block`], which re-verify cached K/V against their
//!   append-time checksums once per tile (SEUs that landed in
//!   cache-resident state between steps are corrected, not just faults
//!   inside the GEMM) and keep that cache ledger; each row's attended block
//!   range under its causal prefix and window; the operands of a partially
//!   visible frontier block; and a recomputation fallback that re-reads
//!   verified blocks.
//!
//! Operands are the only thing that differs from prefill. The checksum GEMM
//! operands and the max-norm bound are **not** re-encoded per call the way
//! the prefill kernel must: they are the cache's stored append-time values
//! (unrounded, where prefill rounds its per-call encodes through FP16), so
//! the encode cost is amortised over every decode step that reuses the
//! block. The traditional element scheme has no cached operands, so decode
//! rejects it as unsupported.
//!
//! GEMM I reads K k-major (`Kᵀ`, `dim × rows`), the layout whose one-row
//! product runs as register panels: both tiles transpose each attended
//! block once per `(tile, block)`, right after its verified (or raw) read
//! (the protected tile its stored K checksum pair too), and every chunk
//! row's one-row GEMMs — and a partially visible frontier's leading
//! columns — read that one `Kᵀ`. Each score is still the one ascending-k
//! chain of `q · k_j`, so the layout changes no bit.
//!
//! Both kernels take a *visible length* — the causal prefix of the cache a
//! query row may attend to — and are called from exactly one place, the
//! `(stream, slot)` sweep in [`crate::serve`]. Single-query decode
//! ([`efta_decode`] / [`reference_decode`], behind
//! [`AttentionBackend::try_decode`]) is that sweep over one one-row slice;
//! chunked prefill is the same sweep over `c`-row slices, where a chunk's
//! interior rows see only their own prefix of the trailing block (whose
//! checksums are then re-encoded on the fly over the visible rows, exactly
//! as the prefill kernel encodes per call).
//!
//! The same visible-length machinery is what makes speculative decoding
//! ([`SpeculationPolicy`](crate::serve::SpeculationPolicy)) free at this
//! layer: a draft/verify sweep is just a multi-row chunk whose trailing
//! rows happen to be provisional. Each row attends exactly its own causal
//! prefix, so the logits of the accepted rows are bit-identical to what a
//! row-at-a-time decode would have produced, and rejected rows are undone
//! by [`KvCache::truncate_to`] without this module ever knowing they were
//! speculative.
//!
//! ```
//! use ft_core::decode::{efta_decode, DecodeRequest};
//! use ft_core::efta::EftaOptions;
//! use ft_core::kv::KvCache;
//! use ft_num::rng::normal_tensor_f16;
//!
//! // A (batch=1, heads=2) cache at head dim 16; append four token rows.
//! let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
//! for t in 0..4 {
//!     let k = normal_tensor_f16(10 + t, 1, 2, 1, 16, 0.6);
//!     let v = normal_tensor_f16(20 + t, 1, 2, 1, 16, 0.8);
//!     assert!(cache.append(&k, &v).clean());
//! }
//! // Decode the newest token's query against the protected cache.
//! let q = normal_tensor_f16(30, 1, 2, 1, 16, 0.6);
//! let out = efta_decode(&DecodeRequest::new(&cache, &q), &EftaOptions::optimized()).unwrap();
//! assert_eq!((out.o.seq(), out.o.dim()), (1, 16));
//! assert!(out.report.clean());
//! ```
//!
//! [`AttentionBackend::try_decode`]: crate::backend::AttentionBackend::try_decode

use crate::backend::BackendError;
use crate::efta::{
    k_major, max_row_norm, BlockOperands, EftaOptions, GemmProtection, Kernel, RowState,
};
use crate::kv::KvCache;
use crate::serve::{sweep_tiles, StreamId, StreamSlice};
use crate::types::{AttentionOutput, FtReport, PhaseBreakdown};
use ft_abft::strided::{encode_cols_strided, encode_rows_strided};
use ft_abft::thresholds::Thresholds;
use ft_num::{Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::device::KernelStats;
use ft_sim::{gemm_flops, gemm_nn_inj, FaultInjector, FaultSite, GemmCtx, NoFaults};

static NO_FAULTS: NoFaults = NoFaults;

/// One decode step: the cache, the new per-slot query row, an injector and
/// optional threshold override.
///
/// Built with [`DecodeRequest::new`] plus the `with_*` builders; consumed by
/// [`AttentionBackend::try_decode`](crate::backend::AttentionBackend::try_decode).
#[derive(Clone, Copy)]
pub struct DecodeRequest<'a> {
    /// The checksum-protected K/V store (already containing the current
    /// token's K/V row — decode attends to itself like causal prefill).
    /// May have been front-evicted ([`KvCache::evict_front`]): the kernels
    /// iterate resident blocks only.
    pub cache: &'a KvCache,
    /// Query tensor, `batch × heads × 1 × dim`: one new row per slot.
    pub q: &'a Tensor4F16,
    /// Fault injector consulted by protected operations.
    pub injector: &'a dyn FaultInjector,
    /// Per-request detection-threshold override.
    pub thresholds: Option<Thresholds>,
    /// Decode step index (namespaces fault coordinates across steps).
    pub step: usize,
    /// Sliding-window attention: attend only the cache blocks holding the
    /// most recent `window` rows (rounded down to a block boundary, so the
    /// attended set is exactly what a fresh cache holding only the window
    /// would contain). `None` attends every resident row.
    pub window: Option<usize>,
}

impl<'a> DecodeRequest<'a> {
    /// Request decoding `q` against `cache`, fault-free, at step
    /// `cache.len() - 1` (the just-appended token).
    ///
    /// Panics if the query shape disagrees with the cache geometry or the
    /// cache is empty.
    pub fn new(cache: &'a KvCache, q: &'a Tensor4F16) -> Self {
        assert!(!cache.is_empty(), "decode against an empty cache");
        assert_eq!(
            (q.batch(), q.heads(), q.seq(), q.dim()),
            (cache.batch(), cache.heads(), 1, cache.dim()),
            "query tensor shape does not match the cache geometry",
        );
        DecodeRequest {
            cache,
            q,
            injector: &NO_FAULTS,
            thresholds: None,
            step: cache.len() - 1,
            window: None,
        }
    }

    /// Attach a fault injector.
    pub fn with_injector(mut self, injector: &'a dyn FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Override the detection thresholds.
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Set the decode step index used for fault coordinates.
    pub fn at_step(mut self, step: usize) -> Self {
        self.step = step;
        self
    }

    /// Restrict attention to the most recent `window` cached rows
    /// (block-granular sliding window; `None` attends everything
    /// resident). Panics on `Some(0)` — a zero-row window would attend
    /// nothing and normalise by an empty softmax.
    pub fn with_window(mut self, window: Option<usize>) -> Self {
        assert!(window != Some(0), "a zero-row window cannot serve decode");
        self.window = window;
        self
    }
}

impl core::fmt::Debug for DecodeRequest<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DecodeRequest")
            .field("cache_len", &self.cache.len())
            .field("step", &self.step)
            .field("thresholds", &self.thresholds)
            .finish_non_exhaustive()
    }
}

/// Number of cache blocks a `vis`-row causal prefix touches.
pub(crate) fn vis_blocks(cache: &KvCache, vis: usize) -> usize {
    vis.div_ceil(cache.block())
}

/// First block a `vis`-row causal prefix attends under an optional sliding
/// window: the most recent `window` rows, rounded *down* to a block
/// boundary, so the attended block set is exactly the blocks a fresh cache
/// holding only the window would contain — this is what makes windowed
/// decode bit-identical to decoding against such a cache. Clamped to the
/// eviction frontier (evicted blocks cannot be read; storage policies must
/// keep eviction at or behind the attention window — see
/// [`KvCache::enforce_window`]).
pub(crate) fn window_start_block(cache: &KvCache, vis: usize, window: Option<usize>) -> usize {
    cache.attended_start_block_at(vis, window)
}

/// Rows attended by a `vis`-row prefix under `window` (for SNVR bounds and
/// the analytic cost model).
pub(crate) fn attended_rows(cache: &KvCache, vis: usize, window: Option<usize>) -> usize {
    vis - window_start_block(cache, vis, window) * cache.block()
}

/// Rows of block `b` visible under a `vis`-row causal prefix.
pub(crate) fn vis_block_rows(cache: &KvCache, b: usize, vis: usize) -> usize {
    cache.block_rows(b).min(vis - b * cache.block())
}

/// Exact kernel-stat census of one fused sweep tile over a `c`-row chunk
/// (the last `c` rows of `cache`): compute terms are summed **per row**
/// over that row's own attended prefix (row `r` sees `len − c + r + 1`
/// rows under its window), and cache payload + checksum read traffic is
/// charged **once per attended block** — the union of the rows' attended
/// spans — matching the tile kernel's verify-once reads.
pub(crate) fn sweep_tile_stats(
    cache: &KvCache,
    c: usize,
    window: Option<usize>,
    protected: bool,
) -> KernelStats {
    let base = cache.len() - c;
    let slots = cache.num_slots() as u64;
    let d = cache.dim() as u64;
    let mut stats = KernelStats {
        launches: 1,
        ..Default::default()
    };
    // Shared reads: every row's attended span is a prefix of the last
    // row's, so the union of attended blocks is the last row's range.
    let vis_last = base + c;
    let b0_min = window_start_block(cache, base + 1, window);
    let union_rows = (vis_last - b0_min * cache.block()) as u64;
    let union_blocks = (vis_blocks(cache, vis_last) - b0_min) as u64;
    stats.hbm_read = slots * 2 * union_rows * d * 2;
    stats.hbm_written = slots * c as u64 * d * 2;
    if protected {
        // Checksum operands read once per attended block. Like the
        // prefill cost model (`efta::analytic_stats`), a checksum operand
        // narrower than 8 still occupies one 8-wide MMA tile on tensor
        // cores, so the modeled width floors at 8 regardless of the
        // configured stride or a ragged block's narrower fold.
        let s = cache.stride().max(8) as u64;
        stats.hbm_read += slots * 4 * (union_blocks * s * d) / 2;
    }
    for r in 0..c {
        let vis = base + r + 1;
        let attended = attended_rows(cache, vis, window);
        stats.tc_flops += slots * 2 * gemm_flops(1, attended, cache.dim());
        stats.fp32_flops += slots * 4 * attended as u64;
        stats.sfu_ops += slots * attended as u64;
        if protected {
            let s = cache.stride().max(8);
            let blocks_r = (vis_blocks(cache, vis) - window_start_block(cache, vis, window)) as u64;
            stats.tc_flops += slots * 2 * 2 * gemm_flops(1, s, cache.dim());
            stats.serial_flops += slots * (attended as u64 + 2 * d + 4 * blocks_r);
        }
    }
    stats
}

/// Unprotected multi-row decode tile of one `(batch, head)` slot: chunk
/// row `r` of the `c × dim` unscaled query chunk `q_chunk` attends the
/// causal prefix `0 .. vis0 + r` (optionally restricted to a sliding
/// `window` of the most recent rows) at fault-coordinate step `step0 + r`:
/// raw cache reads, online softmax, no checks.
///
/// The tile iterates **block-major**: each attended cache block is read
/// once and every tile row's online-softmax update against it runs before
/// the next block is touched. Per row, the update sequence (ascending
/// block order over exactly that row's attended blocks) is the one a
/// one-row tile over that row's own prefix runs, so a chunk's output is
/// bit-identical to feeding its rows token by token.
pub(crate) fn reference_decode_tile(
    cache: &KvCache,
    slot: usize,
    vis0: usize,
    step0: usize,
    q_chunk: &MatrixF32,
    inj: &dyn FaultInjector,
    window: Option<usize>,
) -> MatrixF32 {
    let d = cache.dim();
    let c = q_chunk.rows();
    let scale = cache.scale();
    // Per-row scaled query rows, hoisted out of the block loop.
    let q_rows: Vec<MatrixF32> = (0..c)
        .map(|r| Matrix::from_fn(1, d, |_, j| q_chunk.get(r, j) * scale))
        .collect();
    let mut states: Vec<crate::flash::OnlineState> = (0..c)
        .map(|_| crate::flash::OnlineState::new(1, d))
        .collect();
    // Row r's attended block range [b0[r], nb[r]); both bounds are
    // non-decreasing in r (later rows see more), so the union is
    // [b0[0], nb[c-1]).
    let b0: Vec<usize> = (0..c)
        .map(|r| window_start_block(cache, vis0 + r, window))
        .collect();
    let nb: Vec<usize> = (0..c).map(|r| vis_blocks(cache, vis0 + r)).collect();
    for jb in b0[0]..nb[c - 1] {
        let c0 = jb * cache.block();
        let kt_full = cache.read_k_raw(slot, jb).transpose();
        let v_full = cache.read_v_raw(slot, jb);
        for r in 0..c {
            if jb < b0[r] || jb >= nb[r] {
                continue;
            }
            let (vis, step) = (vis0 + r, step0 + r);
            let rows = vis_block_rows(cache, jb, vis);
            let (kt_part, v_part);
            let (kt, v_blk) = if rows < v_full.rows() {
                kt_part = kt_full.block(0, 0, d, rows);
                v_part = v_full.block(0, 0, rows, d);
                (&kt_part, &v_part)
            } else {
                (&kt_full, &v_full)
            };
            let s_blk = gemm_nn_inj(
                &q_rows[r],
                kt,
                &inj,
                GemmCtx::new(FaultSite::GemmIAccum, slot)
                    .at(step, c0)
                    .iter(3 * jb),
            );
            crate::flash::online_update(&mut states[r], &s_blk, v_blk);
        }
    }
    let mut out = Matrix::zeros(c, d);
    for (r, state) in states.iter_mut().enumerate() {
        crate::flash::finalize(state);
        out.row_mut(r).copy_from_slice(state.o.row(0));
    }
    out
}

/// EFTA-protected multi-row decode tile of one slot: chunk row `r` of the
/// `c × dim` unscaled query chunk attends the causal prefix
/// `0 .. vis0 + r` (optionally restricted to a sliding `window`) at
/// fault-coordinate step `step0 + r`. The tile supplies operands and one
/// 1-row [`RowState`] per chunk row; every protected operation is the
/// shared step's.
///
/// Fully visible blocks reuse the cache's stored append-time checksums; a
/// partially visible trailing block (a chunked-prefill row's causal
/// frontier) is read through the full block's verification, truncated, and
/// its checksum operands re-encoded over the visible rows — the same
/// values the cache itself would have stored at length `vis`, so chunked
/// prefill is bit-identical to feeding the chunk token by token. Windowed
/// and front-evicted caches start the block loop at the window's first
/// block instead of 0 — the same iteration a fresh cache holding only
/// those blocks would run, so the output is bit-identical to decoding
/// against that fresh cache.
///
/// **Verify-once invariant:** the tile iterates block-major, reading each
/// attended cache block through [`KvCache::verified_block`] exactly once;
/// the corrected payload, stored checksum operands, and max-norm snapshot
/// are then exposed to every tile row attending the block, and the block's
/// verification outcome lands in the returned tile ledger once — not once
/// per attending row. The ledger also folds every row's own events.
///
/// Per row, the accumulation order over its attended blocks is ascending
/// block index, one state per row carried across the shared block loop, so
/// every row reproduces its standalone one-row decode bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn efta_decode_tile(
    cache: &KvCache,
    slot: usize,
    vis0: usize,
    step0: usize,
    q_chunk: &MatrixF32,
    inj: &dyn FaultInjector,
    opts: &EftaOptions,
    window: Option<usize>,
) -> (MatrixF32, FtReport) {
    let d = cache.dim();
    let c = q_chunk.rows();
    let scale = cache.scale();
    let protected = opts.gemm != GemmProtection::Unprotected;
    let kernel = Kernel {
        opts,
        inj: &inj,
        timed: false,
        slot,
    };
    let mut report = FtReport::default();
    // Per-row scaled queries, hoisted out of the block loop.
    let q_rows: Vec<MatrixF32> = (0..c)
        .map(|r| Matrix::from_fn(1, d, |_, j| q_chunk.get(r, j) * scale))
        .collect();
    // Row r's attended block range [b0[r], nb[r]); both bounds are
    // non-decreasing in r, so the union is [b0[0], nb[c-1]).
    let b0: Vec<usize> = (0..c)
        .map(|r| window_start_block(cache, vis0 + r, window))
        .collect();
    let nb: Vec<usize> = (0..c).map(|r| vis_blocks(cache, vis0 + r)).collect();
    // The rowsum upper bound is the number of rows actually attended — the
    // window span under sliding-window decode, not the full prefix. The V
    // column fold (output-checksum width) is over `dim`.
    let mut states: Vec<RowState<'_>> = (0..c)
        .map(|r| {
            let vis = vis0 + r;
            let attended = vis - b0[r] * cache.block();
            RowState::new(&q_rows[r], step0 + r, vis, attended, cache.stride().min(d))
        })
        .collect();

    for jb in b0[0]..nb[c - 1] {
        // ---- Verified cache read: once per (tile, block) --------
        let vb = cache.verified_block(slot, jb);
        for rep in [vb.k_report, vb.v_report] {
            report.cache_detected += rep.detected;
            report.cache_corrected += rep.corrected;
            report.cache_uncorrectable += rep.uncorrectable;
            report.cache_tolerated += rep.tolerated;
        }
        let block_damaged = vb.k_report.uncorrectable + vb.v_report.uncorrectable > 0;
        // GEMM I's k-major operands, built once per (tile, block) and read
        // by every chunk row's one-row GEMMs.
        let kt_full = vb.k.transpose();
        let k_cs_full = protected.then(|| k_major(vb.k_cs));

        for r in 0..c {
            if jb < b0[r] || jb >= nb[r] {
                continue;
            }
            states[r].damaged |= block_damaged;
            let rows = vis_block_rows(cache, jb, vis0 + r);
            // Stored operands for fully visible blocks; a partial causal
            // frontier re-encodes over the visible rows (same loop, same
            // data → the exact operands a `vis`-row cache would store).
            let (kt_part, v_part, cs_owned);
            let (kt, v, checksums, k_max_norm) = if rows == vb.k.rows() {
                let checksums = k_cs_full.as_ref().map(|k_cs| (k_cs, vb.v_cs));
                (&kt_full, &vb.v, checksums, vb.k_max_norm)
            } else {
                let k_part = vb.k.block(0, 0, rows, d);
                kt_part = kt_full.block(0, 0, d, rows);
                v_part = vb.v.block(0, 0, rows, d);
                cs_owned = (
                    k_major(&encode_rows_strided(
                        &k_part,
                        cache.stride().min(rows),
                        false,
                    )),
                    encode_cols_strided(&v_part, cache.stride().min(d), false),
                );
                let checksums = protected.then_some((&cs_owned.0, &cs_owned.1));
                (&kt_part, &v_part, checksums, max_row_norm(&k_part))
            };
            states[r].step(
                &kernel,
                &BlockOperands {
                    kt,
                    v,
                    checksums,
                    k_max_norm,
                    jb,
                    c0: jb * cache.block(),
                },
            );
        }
    }

    let mut out = Matrix::zeros(c, d);
    for (r, state) in states.into_iter().enumerate() {
        // Recomputation fallback over verified reads: clean online softmax
        // of the visible prefix (cache-uncorrectable damage stays in the
        // data, but the report carries that signal). Rare path — re-reads
        // per row rather than keeping every attended block resident for
        // the whole tile.
        let reread = (b0[r]..nb[r]).map(|jb| {
            let rows = vis_block_rows(cache, jb, vis0 + r);
            let (k_blk, _) = cache.read_k_verified(slot, jb);
            let (v_blk, _) = cache.read_v_verified(slot, jb);
            (
                k_blk.block(0, 0, rows, d).transpose(),
                v_blk.block(0, 0, rows, d),
            )
        });
        let (o, row_report, _) = state.finish(&kernel, reread);
        out.row_mut(r).copy_from_slice(o.row(0));
        report = report.merged(&row_report);
    }
    (out, report)
}

/// Unprotected single-query decode: raw cache reads, online softmax, no
/// checks. The default [`try_decode`] path for backends without a protected
/// decode variant — and the baseline that *visibly corrupts* when cached
/// state is hit.
///
/// [`try_decode`]: crate::backend::AttentionBackend::try_decode
pub fn reference_decode(req: &DecodeRequest<'_>) -> Result<AttentionOutput, BackendError> {
    efta_decode(req, &EftaOptions::unprotected())
}

/// EFTA-protected single-query decode (see the module docs for the
/// protection layout): the serving sweep over one one-row slice, with the
/// request's explicit step as the fault-coordinate namespace. Reads
/// unprotected when `opts` disables both GEMM and softmax protection or
/// the cache is [`Raw`](crate::protect::ProtectionLevel::Raw).
pub fn efta_decode(
    req: &DecodeRequest<'_>,
    opts: &EftaOptions,
) -> Result<AttentionOutput, BackendError> {
    let slice = StreamSlice {
        stream: StreamId(0),
        cache: req.cache,
        q: req.q,
        window: req.window,
    };
    let out = sweep_tiles(&[slice], Some(req.step), req.injector, req.thresholds, opts)?
        .pop()
        .expect("one slice in, one output out");
    Ok(AttentionOutput {
        o: out.o,
        timeline: out.timeline,
        report: out.report,
        phases: PhaseBreakdown::default(),
    })
}

/// Prefill-equivalent oracle for decode tests: row `t` of causal exact
/// attention equals the decode output at step `t`.
pub fn causal_reference_rows(
    q: &Tensor4F16,
    k: &Tensor4F16,
    v: &Tensor4F16,
    scale: f32,
) -> Tensor4F32 {
    let slots: Vec<MatrixF32> = (0..q.num_slots())
        .map(|i| {
            crate::reference::reference_attention_slot(
                &q.slot_flat(i).to_f32(),
                &k.slot_flat(i).to_f32(),
                &v.slot_flat(i).to_f32(),
                scale,
                true,
            )
        })
        .collect();
    Tensor4F32::from_slots(q.batch(), q.heads(), q.seq(), q.dim(), slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AttentionBackend, BackendKind};
    use crate::config::AttentionConfig;
    use crate::efta::{efta_forward, SoftmaxProtection};
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::{OpCoord, SeuInjector};

    fn workload(seq: usize, dim: usize, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
        let q = normal_tensor_f16(seed, 1, 2, seq, dim, 0.6);
        let k = normal_tensor_f16(seed + 1, 1, 2, seq, dim, 0.6);
        let v = normal_tensor_f16(seed + 2, 1, 2, seq, dim, 0.8);
        (q, k, v)
    }

    fn fill(cache: &mut KvCache, k: &Tensor4F16, v: &Tensor4F16, upto: usize) {
        for t in cache.len()..upto {
            let k1 = Tensor4F16::from_fn(1, 2, 1, k.dim(), |b, h, _, c| k.slot(b, h).get(t, c));
            let v1 = Tensor4F16::from_fn(1, 2, 1, v.dim(), |b, h, _, c| v.slot(b, h).get(t, c));
            cache.append(&k1, &v1);
        }
    }

    fn q_row(q: &Tensor4F16, t: usize) -> Tensor4F16 {
        Tensor4F16::from_fn(1, 2, 1, q.dim(), |b, h, _, c| q.slot(b, h).get(t, c))
    }

    #[test]
    fn decode_steps_match_causal_prefill_rows() {
        let (q, k, v) = workload(21, 16, 70);
        let oracle = causal_reference_rows(&q, &k, &v, 0.25);
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        for t in 0..21 {
            fill(&mut cache, &k, &v, t + 1);
            let qt = q_row(&q, t);
            let req = DecodeRequest::new(&cache, &qt).at_step(t);
            let reference = reference_decode(&req).unwrap();
            let efta = efta_decode(&req, &EftaOptions::optimized()).unwrap();
            assert!(efta.report.clean(), "step {t}: {:?}", efta.report);
            for slot in 0..2 {
                for c in 0..16 {
                    let want = oracle.slot_flat(slot).get(t, c);
                    let got_ref = reference.o.slot_flat(slot).get(0, c);
                    let got_efta = efta.o.slot_flat(slot).get(0, c);
                    assert!(
                        (got_ref - want).abs() < 1e-4,
                        "ref step {t} slot {slot} col {c}: {got_ref} vs {want}"
                    );
                    assert!(
                        (got_efta - want).abs() < 5e-3,
                        "efta step {t} slot {slot} col {c}: {got_efta} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn limited_visibility_matches_shorter_cache() {
        // The serving sweep's causal-prefix path: decoding with `vis = L`
        // against a longer cache must be bit-identical to decoding against
        // a cache that simply stops at L rows — including mid-block
        // prefixes, whose checksum operands are re-encoded on the fly.
        let (q, k, v) = workload(21, 16, 75);
        let mut long = KvCache::new(1, 2, 16, 8, 8, 0.25);
        fill(&mut long, &k, &v, 21);
        for vis in [3usize, 8, 11, 16, 21] {
            let mut short = KvCache::new(1, 2, 16, 8, 8, 0.25);
            fill(&mut short, &k, &v, vis);
            let qt = q_row(&q, vis - 1);
            let req = DecodeRequest::new(&short, &qt).at_step(vis - 1);
            let want_ref = reference_decode(&req).unwrap();
            let want_efta = efta_decode(&req, &EftaOptions::optimized()).unwrap();
            for slot in 0..2 {
                let q_raw = qt.slot_flat(slot).to_f32();
                let got_ref =
                    reference_decode_tile(&long, slot, vis, vis - 1, &q_raw, &NoFaults, None);
                assert_eq!(
                    got_ref.max_abs_diff(want_ref.o.slot_flat(slot)),
                    0.0,
                    "vis {vis} slot {slot}: limited reference decode drifted"
                );
                let (got_efta, report) = efta_decode_tile(
                    &long,
                    slot,
                    vis,
                    vis - 1,
                    &q_raw,
                    &NoFaults,
                    &EftaOptions::optimized(),
                    None,
                );
                assert!(report.clean());
                assert_eq!(
                    got_efta.max_abs_diff(want_efta.o.slot_flat(slot)),
                    0.0,
                    "vis {vis} slot {slot}: limited EFTA decode drifted"
                );
            }
        }
    }

    #[test]
    fn gemm_seu_in_decode_is_detected_and_repaired() {
        let (q, k, v) = workload(24, 16, 71);
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        fill(&mut cache, &k, &v, 24);
        let qt = q_row(&q, 23);
        let req = DecodeRequest::new(&cache, &qt).at_step(23);
        let clean = efta_decode(&req, &EftaOptions::optimized()).unwrap();
        // Exponent flip in the GEMM I chain of cached column 10 (block 1).
        let inj = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(1, 23, 10, 3), 30)
            .at_chain_step(8);
        let req = req.with_injector(&inj);
        let out = efta_decode(&req, &EftaOptions::optimized()).unwrap();
        assert_eq!(inj.fired(), 1);
        assert!(out.report.total_detected() > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    #[test]
    fn same_seu_same_ledger_in_prefill_and_decode() {
        // Prefill and decode step the same Algorithm 1: one SEU on the last
        // row yields one fault ledger, whichever kernel computes that row.
        // High exponent bits keep every verdict far from its threshold, so
        // the one legitimate operand difference (prefill rounds checksum
        // operands through FP16, the cache stores them unrounded) cannot
        // flip one.
        let seq = 32;
        let cfg = AttentionConfig::new(1, 2, seq, 16).with_block(16);
        let (q, k, v) = workload(seq, 16, 76);
        let options = [
            EftaOptions::optimized(),
            EftaOptions::per_step(),
            EftaOptions {
                softmax: SoftmaxProtection::Unprotected,
                ..EftaOptions::optimized()
            },
        ];
        // (site, column coordinate, iteration coordinate, bit, chain step)
        // of a fault on row `seq − 1` of slot 1, second column block.
        let last = seq - 1;
        // Every per-element site the step offers values to only when the
        // injector can fire there (Subtract, ExpUnit, the O rescale,
        // Normalize) is hit once per kernel, next to its per-row sibling.
        let sites = [
            (FaultSite::GemmIAccum, 21, 3, 30, Some(8)),
            (FaultSite::MaxReduce, 1, 0, 30, None),
            (FaultSite::Subtract, 21, 1, 30, None),
            (FaultSite::ExpUnit, 21, 1, 30, None),
            (FaultSite::SumReduce, 1, 1, 29, None),
            (FaultSite::Rescale, 1, 2, 30, None),
            (FaultSite::Rescale, 5, 4001, 30, None),
            (FaultSite::GemmIiAccum, 5, 3, 30, Some(5)),
            (FaultSite::Normalize, 0, 999, 29, None),
            (FaultSite::Normalize, 9, 1000, 29, None),
        ];
        for opts in &options {
            let mut cache = KvCache::new(1, 2, 16, cfg.block, opts.stride, cfg.scale);
            fill(&mut cache, &k, &v, seq);
            let qt = q_row(&q, last);
            for (site, j, it, bit, chain) in sites {
                let seu = || {
                    let inj = SeuInjector::new(site, OpCoord::new(1, last, j, it), bit);
                    match chain {
                        Some(step) => inj.at_chain_step(step),
                        None => inj,
                    }
                };
                let (pre_inj, dec_inj) = (seu(), seu());
                let prefill = efta_forward(&cfg, &q, &k, &v, &pre_inj, opts);
                let req = DecodeRequest::new(&cache, &qt)
                    .at_step(last)
                    .with_injector(&dec_inj);
                let decode = efta_decode(&req, opts).unwrap();
                assert_eq!((pre_inj.fired(), dec_inj.fired()), (1, 1), "{site:?}");
                assert_eq!(
                    prefill.report, decode.report,
                    "{site:?} under {opts:?}: prefill vs decode ledger"
                );
            }
        }
    }

    #[test]
    fn cache_resident_seu_corrected_by_efta_but_corrupts_reference() {
        let (q, k, v) = workload(20, 16, 72);
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        fill(&mut cache, &k, &v, 20);
        let qt = q_row(&q, 19);
        let clean_req = DecodeRequest::new(&cache, &qt).at_step(19);
        let clean = efta_decode(&clean_req, &EftaOptions::optimized()).unwrap();

        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 7, 3, 0), 14);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1);
        let req = DecodeRequest::new(&cache, &qt).at_step(19);
        let protected = efta_decode(&req, &EftaOptions::optimized()).unwrap();
        assert!(
            protected.report.cache_detected > 0,
            "{:?}",
            protected.report
        );
        assert!(protected.report.cache_corrected > 0);
        assert!(protected.o.max_abs_diff(&clean.o) < 5e-2);

        let bare = reference_decode(&req).unwrap();
        assert!(bare.report.clean());
        assert!(
            bare.o.max_abs_diff(&clean.o) > 1e-2,
            "unprotected decode must let cached-state corruption through: {}",
            bare.o.max_abs_diff(&clean.o)
        );
    }

    #[test]
    fn unprotected_options_fall_back_to_reference() {
        let (q, k, v) = workload(12, 16, 73);
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        fill(&mut cache, &k, &v, 12);
        let qt = q_row(&q, 11);
        let req = DecodeRequest::new(&cache, &qt).at_step(11);
        let a = efta_decode(&req, &EftaOptions::unprotected()).unwrap();
        let b = reference_decode(&req).unwrap();
        assert_eq!(a.o.max_abs_diff(&b.o), 0.0);
    }

    #[test]
    fn every_backend_kind_decodes_through_the_trait() {
        let (q, k, v) = workload(10, 16, 74);
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        fill(&mut cache, &k, &v, 10);
        let qt = q_row(&q, 9);
        let req = DecodeRequest::new(&cache, &qt).at_step(9);
        let oracle = reference_decode(&req).unwrap();
        for kind in BackendKind::all() {
            let out = kind
                .try_decode(&req)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(
                out.o.max_abs_diff(&oracle.o) < 5e-3,
                "{kind}: {}",
                out.o.max_abs_diff(&oracle.o)
            );
        }
    }
}
