//! Incremental decode over a [`KvCache`].
//!
//! Autoregressive serving computes, per step, the attention of **one** new
//! query row against every cached K/V row. This module provides the
//! request type and the two tile kernels of that computation:
//!
//! * `reference_decode_tile` — unprotected online-softmax attention
//!   reading the cache raw (what every backend without its own protected
//!   decode path runs);
//! * `efta_decode_tile` — the EFTA-protected variant: cached K/V blocks are
//!   re-verified on read against their append-time checksums (SEUs that
//!   landed in cache-resident state between steps are corrected, not just
//!   faults inside the GEMM), GEMM I + subtract + EXP are covered by the
//!   transported product check, the rowsum is SNVR-range-restricted, and
//!   output checksums `O_c1`/`O_c2` ride the online-softmax rescaling state
//!   across cache-block steps to one final post-loop verification — the
//!   prefill kernel's Algorithm 1 restructured around a 1-row tile.
//!
//! The checksum GEMM operands are **not** re-encoded per call the way the
//! prefill kernel must: they are the cache's stored append-time checksums,
//! so the encode cost is amortised over every decode step that reuses the
//! block.
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
use crate::efta::{EftaOptions, SoftmaxProtection};
use crate::kv::KvCache;
use crate::serve::{sweep_tiles, StreamId, StreamSlice};
use crate::snvr::{restrict_row_max, restrict_rowsum, Restriction};
use crate::types::{AttentionOutput, FtCounters, PhaseBreakdown};
use ft_abft::propagate::{residue_counts, transport_subtract_max, verify_products};
use ft_abft::strided::{
    correct_strided, encode_cols_strided, encode_rows_strided, strided_sums, strided_sums_weighted,
    StridedChecksums, StridedMismatch,
};
use ft_abft::thresholds::Thresholds;
use ft_num::{Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::device::KernelStats;
use ft_sim::{
    gemm_flops, gemm_nn_inj, gemm_nt, gemm_nt_inj, FaultInjector, FaultSite, GemmCtx, NoFaults,
    OpCoord,
};

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
        let k_full = cache.read_k_raw(slot, jb);
        let v_full = cache.read_v_raw(slot, jb);
        for r in 0..c {
            if jb < b0[r] || jb >= nb[r] {
                continue;
            }
            let (vis, step) = (vis0 + r, step0 + r);
            let rows = vis_block_rows(cache, jb, vis);
            let (kt, vt);
            let (k_blk, v_blk) = if rows < k_full.rows() {
                kt = k_full.block(0, 0, rows, d);
                vt = v_full.block(0, 0, rows, d);
                (&kt, &vt)
            } else {
                (&k_full, &v_full)
            };
            let s_blk = gemm_nt_inj(
                &q_rows[r],
                k_blk,
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
/// fault-coordinate step `step0 + r`.
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
/// verification outcome lands in `counters` once — not once per attending
/// row.
///
/// Per row, the accumulation order over its attended blocks is ascending
/// block index, one multi-accumulator state per row carried across the
/// shared block loop, so every row reproduces its standalone one-row
/// decode bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn efta_decode_tile(
    cache: &KvCache,
    slot: usize,
    vis0: usize,
    step0: usize,
    q_chunk: &MatrixF32,
    inj: &dyn FaultInjector,
    thr: &Thresholds,
    opts: &EftaOptions,
    counters: &FtCounters,
    window: Option<usize>,
) -> MatrixF32 {
    let d = cache.dim();
    let c = q_chunk.rows();
    let scale = cache.scale();
    // Output-checksum width: the V column fold is over `dim`.
    let so = cache.stride().min(d);
    // Per-row scaled queries and norms, hoisted out of the block loop.
    let q_rows: Vec<MatrixF32> = (0..c)
        .map(|r| Matrix::from_fn(1, d, |_, j| q_chunk.get(r, j) * scale))
        .collect();
    let q_norms: Vec<f32> = q_rows
        .iter()
        .map(|q| q.row(0).iter().map(|x| x * x).sum::<f32>().sqrt())
        .collect();

    // Per-row online-softmax accumulators, carried across the shared
    // block loop (the tile's multi-accumulator inner state).
    let mut m = vec![f32::NEG_INFINITY; c];
    let mut ell = vec![0.0f32; c];
    let mut o: Vec<MatrixF32> = (0..c).map(|_| Matrix::zeros(1, d)).collect();
    let mut o_c1: Vec<MatrixF32> = (0..c).map(|_| Matrix::zeros(1, so)).collect();
    let mut o_c2: Vec<MatrixF32> = (0..c).map(|_| Matrix::zeros(1, so)).collect();
    // Row r's attended block range [b0[r], nb[r]); both bounds are
    // non-decreasing in r, so the union is [b0[0], nb[c-1]).
    let b0: Vec<usize> = (0..c)
        .map(|r| window_start_block(cache, vis0 + r, window))
        .collect();
    let nb: Vec<usize> = (0..c).map(|r| vis_blocks(cache, vis0 + r)).collect();
    let mut max_hist: Vec<Vec<f32>> = (0..c).map(|r| Vec::with_capacity(nb[r] - b0[r])).collect();
    let mut damaged = vec![false; c];

    for jb in b0[0]..nb[c - 1] {
        let c0 = jb * cache.block();
        // ---- Verified cache read: once per (tile, block) --------
        let vb = cache.verified_block(slot, jb);
        for rep in [vb.k_report, vb.v_report] {
            FtCounters::add(&counters.cache_detected, rep.detected);
            FtCounters::add(&counters.cache_corrected, rep.corrected);
            FtCounters::add(&counters.cache_uncorrectable, rep.uncorrectable);
            FtCounters::add(&counters.cache_tolerated, rep.tolerated);
        }
        let block_damaged = vb.k_report.uncorrectable + vb.v_report.uncorrectable > 0;

        for r in 0..c {
            if jb < b0[r] || jb >= nb[r] {
                continue;
            }
            if block_damaged {
                damaged[r] = true;
            }
            let (vis, step) = (vis0 + r, step0 + r);
            let q_blk = &q_rows[r];
            let rows = vis_block_rows(cache, jb, vis);
            let full = rows == vb.k.rows();
            let (kt, vt);
            let (k_blk, v_blk): (&MatrixF32, &MatrixF32) = if full {
                (&vb.k, &vb.v)
            } else {
                kt = vb.k.block(0, 0, rows, d);
                vt = vb.v.block(0, 0, rows, d);
                (&kt, &vt)
            };
            // Stored operands for fully visible blocks; a partial causal
            // frontier re-encodes over the visible rows (same loop, same
            // data → the exact operands a `vis`-row cache would store).
            let (kcs_owned, vcs_owned);
            let (kcs, vcs): (&StridedChecksums, &StridedChecksums) = if full {
                (vb.k_cs, vb.v_cs)
            } else {
                kcs_owned = encode_rows_strided(k_blk, cache.stride().min(rows), false);
                vcs_owned = encode_cols_strided(v_blk, cache.stride().min(d), false);
                (&kcs_owned, &vcs_owned)
            };
            let k_max_norm = if full {
                vb.k_max_norm
            } else {
                (0..rows)
                    .map(|kr| k_blk.row(kr).iter().map(|x| x * x).sum::<f32>().sqrt())
                    .fold(0.0f32, f32::max)
            };
            let bc = k_blk.rows();
            let sb = kcs.stride;

            // ---- GEMM I + stored-checksum GEMMs ---------------------
            let ctx = |it: usize, col_off: usize| {
                GemmCtx::new(FaultSite::GemmIAccum, slot)
                    .at(step, col_off)
                    .iter(3 * jb + it)
            };
            let mut s_blk = gemm_nt_inj(q_blk, k_blk, &inj, ctx(0, c0));
            let s_c1 = gemm_nt_inj(q_blk, &kcs.w1, &inj, ctx(1, vis + c0));
            let s_c2 = gemm_nt_inj(q_blk, &kcs.w2, &inj, ctx(2, vis + c0));

            // ---- Reduce max + SNVR restriction ----------------------
            let mut bm = s_blk
                .row(0)
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            bm = inj.corrupt_f32(FaultSite::MaxReduce, OpCoord::new(slot, step, jb, 0), bm);
            if let Restriction::Repaired { repaired } = restrict_row_max(s_blk.row(0), bm) {
                bm = repaired;
                FtCounters::add(&counters.max_restricted, 1);
            }
            // Cauchy–Schwarz plausibility bound unmasks a positive-huge
            // hijack (same extension as the prefill kernel). The K row
            // norm is snapshotted at append time, not rescanned here.
            if bm > q_norms[r] * k_max_norm * 1.05 + 1e-3 || !bm.is_finite() {
                let (mut arg, mut best) = (0usize, f32::NEG_INFINITY);
                for (j, &v) in s_blk.row(0).iter().enumerate() {
                    if v > best || !v.is_finite() {
                        best = v;
                        arg = j;
                    }
                }
                let mut acc = 0.0f32;
                for (a, b) in q_blk.row(0).iter().zip(k_blk.row(arg)) {
                    acc += a * b;
                }
                if s_blk.get(0, arg) != acc {
                    s_blk.set(0, arg, acc);
                    FtCounters::add(&counters.gemm1_corrected, 1);
                }
                bm = s_blk
                    .row(0)
                    .iter()
                    .cloned()
                    .fold(f32::NEG_INFINITY, f32::max);
                FtCounters::add(&counters.max_restricted, 1);
            }
            let m_new = m[r].max(bm);

            // ---- Subtract + EXP -------------------------------------
            let mut p: MatrixF32 = Matrix::zeros(1, bc);
            for j in 0..bc {
                let diff = inj.corrupt_f32(
                    FaultSite::Subtract,
                    OpCoord::new(slot, step, c0 + j, jb),
                    s_blk.get(0, j) - m_new,
                );
                let e = inj.corrupt_f32(
                    FaultSite::ExpUnit,
                    OpCoord::new(slot, step, c0 + j, jb),
                    diff.exp(),
                );
                p.set(0, j, e);
            }

            // ---- Product check: GEMM I ∪ subtract ∪ EXP -------------
            if opts.softmax == SoftmaxProtection::Snvr {
                let counts = residue_counts(bc, sb);
                let mut tc1 = s_c1.clone();
                transport_subtract_max(&mut tc1, &[m_new], &counts);
                let p_c1 = ft_abft::propagate::transport_exp(&tc1);
                let mismatches = verify_products(&p, &p_c1, sb, thr.exp_product);
                if !mismatches.is_empty() {
                    FtCounters::add(&counters.exp_detected, mismatches.len() as u64);
                    let classify_floor = thr.gemm.abs_floor.max(1e-2);
                    let sums1 = strided_sums(&s_blk, sb);
                    let sums2 = strided_sums_weighted(&s_blk, sb);
                    let mut linear = Vec::new();
                    let mut exp_only = Vec::new();
                    for mm in &mismatches {
                        let d1 = sums1.get(0, mm.t) - s_c1.get(0, mm.t);
                        if d1.abs() > classify_floor || !d1.is_finite() {
                            linear.push(StridedMismatch {
                                i: 0,
                                t: mm.t,
                                delta1: d1,
                                delta2: sums2.get(0, mm.t) - s_c2.get(0, mm.t),
                            });
                        } else {
                            exp_only.push(mm.t);
                        }
                    }
                    if !linear.is_empty() {
                        let rep = correct_strided(&mut s_blk, &linear, sb);
                        for loc in &rep.corrected {
                            let mut acc = 0.0f32;
                            for (a, b) in q_blk.row(0).iter().zip(k_blk.row(loc.col)) {
                                acc += a * b;
                            }
                            s_blk.set(0, loc.col, acc);
                        }
                        FtCounters::add(&counters.gemm1_detected, rep.detections as u64);
                        FtCounters::add(&counters.gemm1_corrected, rep.corrected.len() as u64);
                        if rep.uncorrectable > 0 {
                            s_blk = gemm_nt(q_blk, k_blk);
                            FtCounters::add(&counters.gemm1_recomputed, rep.uncorrectable as u64);
                        }
                        for mm in &linear {
                            let mut col = mm.t;
                            while col < bc {
                                p.set(0, col, (s_blk.get(0, col) - m_new).exp());
                                col += sb;
                            }
                        }
                    }
                    for t in exp_only {
                        let mut col = t;
                        while col < bc {
                            p.set(0, col, (s_blk.get(0, col) - m_new).exp());
                            col += sb;
                        }
                        FtCounters::add(&counters.exp_recomputed, 1);
                    }
                }
            }

            // ---- Rowsum + rescale state -----------------------------
            let factor = if m[r].is_finite() {
                (m[r] - m_new).exp()
            } else {
                0.0
            };
            let factor =
                inj.corrupt_f32(FaultSite::Rescale, OpCoord::new(slot, step, jb, 2), factor);
            let mut rs = 0.0f32;
            for &e in p.row(0) {
                rs += e;
            }
            let rs = inj.corrupt_f32(FaultSite::SumReduce, OpCoord::new(slot, step, jb, 1), rs);
            ell[r] = factor * ell[r] + rs;
            m[r] = m_new;
            max_hist[r].push(bm);

            // ---- GEMM II: data + stored-checksum operands -----------
            let p16 = p.to_f16().to_f32();
            let ctx2 = |it: usize, col_off: usize| {
                GemmCtx::new(FaultSite::GemmIiAccum, slot)
                    .at(step, col_off)
                    .iter(3 * jb + it)
            };
            let pv = gemm_nn_inj(&p16, v_blk, &inj, ctx2(0, 0));
            let pc1 = gemm_nn_inj(&p16, &vcs.w1, &inj, ctx2(1, d));
            let pc2 = gemm_nn_inj(&p16, &vcs.w2, &inj, ctx2(2, d));
            for (col, (ov, &dv)) in o[r].row_mut(0).iter_mut().zip(pv.row(0)).enumerate() {
                let scaled = inj.corrupt_f32(
                    FaultSite::Rescale,
                    OpCoord::new(slot, step, col, 4000 + jb),
                    factor * *ov,
                );
                *ov = scaled + dv;
            }
            for (ov, &dv) in o_c1[r].row_mut(0).iter_mut().zip(pc1.row(0)) {
                *ov = factor * *ov + dv;
            }
            for (ov, &dv) in o_c2[r].row_mut(0).iter_mut().zip(pc2.row(0)) {
                *ov = factor * *ov + dv;
            }
        }
    }

    let mut out = Matrix::zeros(c, d);
    for r in 0..c {
        let (vis, step) = (vis0 + r, step0 + r);
        let o = &mut o[r];
        let mut ell = ell[r];

        // ---- Post-loop SNVR rowsum restriction ----------------------
        if opts.softmax == SoftmaxProtection::Snvr {
            // The rowsum upper bound is the number of rows actually
            // attended — the window span under sliding-window decode, not
            // the full prefix.
            let n_rows = vis - b0[r] * cache.block();
            if let Restriction::Repaired { repaired } =
                restrict_rowsum(ell, &max_hist[r], m[r], n_rows)
            {
                ell = repaired;
                FtCounters::add(&counters.sum_restricted, 1);
            }
        }

        // ---- Normalise (output + checksums) -------------------------
        let inv = inj.corrupt_f32(
            FaultSite::Normalize,
            OpCoord::new(slot, step, 0, 999),
            1.0 / ell,
        );
        for (col, v) in o.row_mut(0).iter_mut().enumerate() {
            *v = inj.corrupt_f32(
                FaultSite::Normalize,
                OpCoord::new(slot, step, col, 1000),
                *v * inv,
            );
        }
        for v in o_c1[r].row_mut(0).iter_mut().chain(o_c2[r].row_mut(0)) {
            *v *= inv;
        }

        // ---- Final unified output verification ----------------------
        let sums1 = strided_sums(o, so);
        let sums2 = strided_sums_weighted(o, so);
        let mut mismatches = Vec::new();
        for t in 0..so {
            if thr.output.detects(sums1.get(0, t), o_c1[r].get(0, t)) {
                mismatches.push(StridedMismatch {
                    i: 0,
                    t,
                    delta1: sums1.get(0, t) - o_c1[r].get(0, t),
                    delta2: sums2.get(0, t) - o_c2[r].get(0, t),
                });
            }
        }
        if !mismatches.is_empty() {
            let rep = correct_strided(o, &mismatches, so);
            FtCounters::add(&counters.gemm2_detected, rep.detections as u64);
            FtCounters::add(&counters.gemm2_corrected, rep.corrected.len() as u64);
            let catastrophic = rep.corrected.iter().any(|l| {
                !l.delta.is_finite()
                    || l.delta.abs() > 1e3 * (o_c1[r].get(0, l.col % so).abs() + 1.0)
            });
            if rep.uncorrectable > 0 || catastrophic {
                FtCounters::add(&counters.gemm2_recomputed, rep.uncorrectable.max(1) as u64);
                damaged[r] = true;
            }
        }

        if damaged[r] {
            // Recomputation fallback over verified reads: clean online
            // softmax of the visible prefix (cache-uncorrectable damage
            // stays in the data, but the report carries that signal). Rare
            // path — re-reads per row rather than keeping every attended
            // block resident for the whole tile.
            let mut state = crate::flash::OnlineState::new(1, d);
            for jb in b0[r]..nb[r] {
                let rows = vis_block_rows(cache, jb, vis);
                let (mut k_blk, _) = cache.read_k_verified(slot, jb);
                let (mut v_blk, _) = cache.read_v_verified(slot, jb);
                if rows < k_blk.rows() {
                    k_blk = k_blk.block(0, 0, rows, d);
                    v_blk = v_blk.block(0, 0, rows, d);
                }
                let s_blk = gemm_nt(&q_rows[r], &k_blk);
                crate::flash::online_update(&mut state, &s_blk, &v_blk);
            }
            crate::flash::finalize(&mut state);
            *o = state.o;
        }
        out.row_mut(r).copy_from_slice(o.row(0));
    }
    out
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
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::SeuInjector;

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
            let counters = FtCounters::new();
            for slot in 0..2 {
                let q_raw = qt.slot_flat(slot).to_f32();
                let got_ref =
                    reference_decode_tile(&long, slot, vis, vis - 1, &q_raw, &NoFaults, None);
                assert_eq!(
                    got_ref.max_abs_diff(want_ref.o.slot_flat(slot)),
                    0.0,
                    "vis {vis} slot {slot}: limited reference decode drifted"
                );
                let got_efta = efta_decode_tile(
                    &long,
                    slot,
                    vis,
                    vis - 1,
                    &q_raw,
                    &NoFaults,
                    &Thresholds::calibrated(),
                    &EftaOptions::optimized(),
                    &counters,
                    None,
                );
                assert_eq!(
                    got_efta.max_abs_diff(want_efta.o.slot_flat(slot)),
                    0.0,
                    "vis {vis} slot {slot}: limited EFTA decode drifted"
                );
            }
            assert!(counters.snapshot().clean());
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
