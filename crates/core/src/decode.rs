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
//! **Row groups.** Both tiles walk the attended blocks once and give each
//! block exactly one step (one online update in the unprotected tile)
//! covering every chunk row that attends it: the frontier rows, whose
//! causal prefix ends inside the block, then the rows that see it whole.
//! GEMM I is one product against the block's `Kᵀ` and GEMM II runs once
//! for the group, so a 16-row chunk's products are 16-row GEMMs rather
//! than sixteen GEMVs; the whole-block rows share one pair of checksum
//! GEMMs, and each frontier row runs its own prefix operand's GEMV. Each
//! element is still its one chain, and everything row-specific stays per
//! row: the visible width `w_r` that row `r`'s fault pass and every
//! reduction read (a masked column is never offered to the injector,
//! never summed, never multiplied in — GEMM II runs one product over the
//! columns every row sees, then each row's own tail), the fault
//! coordinates (a row's checksum-GEMM chains draw past its own `vis`
//! columns), the SNVR bound, the checks and repairs, and the recomputation
//! of a damaged row.
//! Both tiles fault-pass GEMM I through `ft_sim::gemm_fault_pass`, each
//! row at its own `(d, w_r)` shape, with no row copied out; the
//! unprotected tile takes only the online-softmax state (`OnlineState`,
//! `online_update`, `finalize`) from [`crate::flash`].
//!
//! Operands are the only thing that differs from prefill. The checksum GEMM
//! operands and the max-norm bound are **not** re-encoded per call the way
//! the prefill kernel must: they are the cache's stored append-time values
//! (unrounded, where prefill rounds its per-call encodes through FP16), so
//! the encode cost is amortised over every decode step that reuses the
//! block. The traditional element scheme has no cached operands, so decode
//! rejects it as unsupported.
//!
//! GEMM I reads K k-major (`Kᵀ`, `dim × rows`), the layout whose product
//! runs as register panels, and that is the layout the cache stores: both
//! tiles read each attended block's `Kᵀ` and its checksum pair as stored,
//! with no transpose, and the one step against the block reads that one
//! `Kᵀ` — the frontier rows included, no column copied per row. Each score
//! is still the one ascending-k chain of `q · k_j`.
//!
//! Both kernels take a *visible length* — the causal prefix of the cache a
//! query row may attend to — and are called from exactly one place, the
//! `(stream, slot)` sweep in [`crate::serve`]. Single-query decode
//! ([`AttentionBackend::try_decode`]) is that sweep over one one-row
//! slice; chunked prefill is the same sweep over `c`-row slices, where a
//! chunk's interior rows see only their own prefix of the trailing block
//! (whose checksum operands are then folded over the visible rows of its
//! verified copy, once per tile for every such row, exactly as a cache
//! holding that prefix stores them).
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
//! use ft_core::backend::{AttentionBackend, BackendKind};
//! use ft_core::decode::DecodeRequest;
//! use ft_core::efta::EftaOptions;
//! use ft_core::kv::KvCache;
//! use ft_num::rng::normal_tensor_f16;
//!
//! // A (batch=1, heads=2) cache at head dim 16; append four token rows.
//! let mut cache = KvCache::new(1, 2, 16, 8);
//! for t in 0..4 {
//!     let k = normal_tensor_f16(10 + t, 1, 2, 1, 16, 0.6);
//!     let v = normal_tensor_f16(20 + t, 1, 2, 1, 16, 0.8);
//!     assert!(cache.append(&k, &v).clean());
//! }
//! // Decode the newest token's query against the protected cache.
//! let q = normal_tensor_f16(30, 1, 2, 1, 16, 0.6);
//! let efta = BackendKind::Efta(EftaOptions::optimized());
//! let out = efta.try_decode(&DecodeRequest::new(&cache, &q)).unwrap();
//! assert_eq!((out.o.seq(), out.o.dim()), (1, 16));
//! assert!(out.report.clean());
//! ```
//!
//! [`AttentionBackend::try_decode`]: crate::backend::AttentionBackend::try_decode

use crate::efta::{
    BlockOperands, DamageGroup, EftaOptions, Frontier, GemmProtection, Kernel, RowState,
};
use crate::kv::KvCache;
use crate::types::FtReport;
use ft_num::{Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::device::KernelStats;
use ft_sim::{gemm_fault_pass, gemm_flops, gemm_nn, FaultInjector, FaultSite, GemmCtx, NoFaults};
use std::ops::Range;

static NO_FAULTS: NoFaults = NoFaults;

/// One decode step: the cache, the new per-slot query row, an injector, a
/// step index and an optional sliding window. Detection thresholds are the
/// backend's own ([`EftaOptions::thresholds`]).
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
            step: cache.len() - 1,
            window: None,
        }
    }

    /// Attach a fault injector.
    pub fn with_injector(mut self, injector: &'a dyn FaultInjector) -> Self {
        self.injector = injector;
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
            .finish_non_exhaustive()
    }
}

/// Rows attended by a `vis`-row prefix under `window` (for SNVR bounds and
/// the analytic cost model).
pub(crate) fn attended_rows(cache: &KvCache, vis: usize, window: Option<usize>) -> usize {
    vis - cache.attended_start_block_at(vis, window) * cache.block()
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
    let b0_min = cache.attended_start_block_at(base + 1, window);
    let union_rows = (vis_last - b0_min * cache.block()) as u64;
    let union_blocks = (vis_last.div_ceil(cache.block()) - b0_min) as u64;
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
            let b0 = cache.attended_start_block_at(vis, window);
            let blocks_r = (vis.div_ceil(cache.block()) - b0) as u64;
            stats.tc_flops += slots * 2 * 2 * gemm_flops(1, s, cache.dim());
            stats.serial_flops += slots * (attended as u64 + 2 * d + 4 * blocks_r);
        }
    }
    stats
}

/// The chunk rows attending block `jb`, as two contiguous ranges: the
/// frontier rows whose causal prefix ends inside the block (each sees its
/// own prefix of it), then the rows that see it whole. Chunk row `r`
/// attends blocks `b0[r] .. nb[r]`, and both bounds are non-decreasing in
/// `r`, so the attending rows are contiguous; a row's visible share of the
/// block grows with `r`, so the whole-block rows are their suffix.
fn attending_rows(
    cache: &KvCache,
    vis0: usize,
    (b0, nb): (&[usize], &[usize]),
    jb: usize,
) -> (Range<usize>, Range<usize>) {
    let lo = nb.partition_point(|&n| n <= jb);
    let hi = b0.partition_point(|&b| b <= jb).max(lo);
    let whole = (lo..hi)
        .find(|&r| vis_block_rows(cache, jb, vis0 + r) == cache.block_rows(jb))
        .unwrap_or(hi);
    (lo..whole, whole..hi)
}

/// Each chunk row's attended block range `[b0[r], nb[r])` under its causal
/// prefix `vis0 + r` and `window`.
fn attended_blocks(
    cache: &KvCache,
    vis0: usize,
    c: usize,
    window: Option<usize>,
) -> (Vec<usize>, Vec<usize>) {
    let b0 = (0..c)
        .map(|r| cache.attended_start_block_at(vis0 + r, window))
        .collect();
    let nb = (0..c).map(|r| (vis0 + r).div_ceil(cache.block())).collect();
    (b0, nb)
}

/// Unprotected multi-row decode tile of one `(batch, head)` slot: chunk
/// row `r` of the `c × dim` unscaled query chunk `q_chunk` attends the
/// causal prefix `0 .. vis0 + r` (optionally restricted to a sliding
/// `window` of the most recent rows) at fault-coordinate step `step0 + r`:
/// raw cache reads, online softmax, no checks.
///
/// The tile iterates **block-major**: each attended cache block is read
/// once, and every row that attends it updates against it in one online
/// update before the next block is touched — the frontier rows over their
/// visible prefix, the rest over the whole block: one GEMM I against the
/// block's `Kᵀ` whose fault pass and reductions read each row's visible
/// columns only, and GEMM II chains over exactly those columns. Per row,
/// the update sequence (ascending block order over exactly that row's
/// attended blocks) is the one a one-row tile over that row's own prefix
/// runs, and every score is the same chain, so a chunk's output is
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
    let q = Matrix::from_fn(c, d, |r, j| q_chunk.get(r, j) * scale);
    let mut state = crate::flash::OnlineState::new(c, d);
    let (b0, nb) = attended_blocks(cache, vis0, c, window);
    for jb in b0[0]..nb[c - 1] {
        let kt = cache.read_kt_raw(slot, jb);
        let v = cache.read_v_raw(slot, jb);
        let (frontier, whole) = attending_rows(cache, vis0, (&b0, &nb), jb);
        let rows = frontier.start..whole.end;
        let q_part;
        let q_rows = if rows.len() == c {
            &q
        } else {
            q_part = q.block(rows.start, 0, rows.len(), d);
            &q_part
        };
        let width = |i: usize| vis_block_rows(cache, jb, vis0 + rows.start + i);
        let ctx = GemmCtx::new(FaultSite::GemmIAccum, slot)
            .at(step0 + rows.start, jb * cache.block())
            .iter(3 * jb);
        let mut s_blk = gemm_nn(q_rows, &kt);
        let n = rows.len();
        gemm_fault_pass(&mut s_blk, q_rows, 0..n, &kt, |i| (d, width(i)), &inj, ctx);
        crate::flash::online_update(&mut state, rows.start, &s_blk, &v, width);
    }
    crate::flash::finalize(&mut state);
    state.o
}

/// EFTA-protected multi-row decode tile of one slot: chunk row `r` of the
/// `c × dim` unscaled query chunk attends the causal prefix
/// `0 .. vis0 + r` (optionally restricted to a sliding `window`) at
/// fault-coordinate step `step0 + r`. The tile supplies operands and one
/// `c`-row [`RowState`] with per-row damage ([`DamageGroup::Row`]); every
/// protected operation is the shared step's.
///
/// **Row groups.** Each attended block takes exactly one step, covering
/// every chunk row that attends it: GEMM I and GEMM II run once for the
/// group, the rows that see the block whole share one pair of checksum
/// GEMMs over the stored operands, and each row still reads only its own
/// visible columns and draws its own faults. The partially visible
/// frontier rows carry their own prefix operands, built for all of them at
/// once by one [`Frontier`] per `(tile, block)` from the block's verified
/// copy: the values the cache itself would have stored at that row's
/// length, so chunked prefill is bit-identical to feeding the chunk token
/// by token. Checks, repairs and the recomputation fallback stay per row.
/// Windowed and front-evicted caches start the block loop at the window's
/// first block instead of 0 — the same iteration a fresh cache holding
/// only those blocks would run, so the output is bit-identical to decoding
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
/// block index, so every row reproduces its standalone one-row decode bit
/// for bit.
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
    let q = Matrix::from_fn(c, d, |r, j| q_chunk.get(r, j) * scale);
    let (b0, nb) = attended_blocks(cache, vis0, c, window);
    // Per row: the checksum GEMMs' fault columns start past the `vis`
    // columns it sees, and the rowsum upper bound is the number of rows
    // actually attended — the window span under sliding-window decode, not
    // the full prefix. The V column fold (output-checksum width) is over
    // `dim`.
    let cs_col0: Vec<usize> = (0..c).map(|r| vis0 + r).collect();
    let attended = (0..c).map(|r| vis0 + r - b0[r] * cache.block()).collect();
    let so = cache.stride().min(d);
    let mut state = RowState::new(&q, step0, cs_col0, attended, so, DamageGroup::Row);

    for jb in b0[0]..nb[c - 1] {
        // ---- Verified cache read: once per (tile, block) --------
        let vb = cache.verified_block(slot, jb);
        for rep in [vb.k_report, vb.v_report] {
            report.cache_detected += rep.detected;
            report.cache_corrected += rep.corrected;
            report.cache_uncorrectable += rep.uncorrectable;
        }
        let (frontier_rows, whole) = attending_rows(cache, vis0, (&b0, &nb), jb);
        let rows = frontier_rows.start..whole.end;
        if vb.k_report.uncorrectable + vb.v_report.uncorrectable > 0 {
            state.mark_damaged(rows.clone());
        }
        // A partial causal frontier's operands are folded over each row's
        // visible rows (the exact operands a `vis`-row cache would store).
        let width = |r: usize| vis_block_rows(cache, jb, vis0 + r);
        let frontier = (!frontier_rows.is_empty()).then(|| {
            let widths = width(frontier_rows.start)..width(frontier_rows.end - 1) + 1;
            let q = q.block(frontier_rows.start, 0, frontier_rows.len(), d);
            Frontier::new(&q, (&vb.kt, &vb.v), cache.stride(), widths)
        });
        let blk = BlockOperands {
            kt: &vb.kt,
            v: &vb.v,
            checksums: protected.then_some((vb.kt_cs, vb.v_cs)),
            k_max_norm: vb.k_max_norm,
            jb,
            c0: jb * cache.block(),
            frontier: frontier.as_ref(),
        };
        state.step(&kernel, &blk, rows);
    }

    // Recomputation fallback over verified reads: clean online softmax of
    // a damaged row's visible prefix (cache-uncorrectable damage stays in
    // the data, but the report carries that signal). Rare path — re-reads
    // per row rather than keeping every attended block resident for the
    // whole tile.
    let reread = |rows: Range<usize>| {
        let r = rows.start;
        (b0[r]..nb[r]).map(move |jb| {
            let rows = vis_block_rows(cache, jb, vis0 + r);
            let vb = cache.verified_block(slot, jb);
            (vb.kt.block(0, 0, d, rows), vb.v.block(0, 0, rows, d))
        })
    };
    let (o, tile_report, _) = state.finish(&kernel, reread);
    (o, report.merged(&tile_report))
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
    use crate::efta::{efta_forward, max_key_norm, SoftmaxProtection, VerifyMode};
    use ft_abft::strided::{encode_cols_strided, StridedChecksums};
    use ft_num::rng::normal_tensor_f16;
    use ft_num::F16;
    use ft_sim::{BerInjector, OpCoord, SeuInjector};

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
        let mut cache = KvCache::new(1, 2, 16, 8);
        for t in 0..21 {
            fill(&mut cache, &k, &v, t + 1);
            let qt = q_row(&q, t);
            let req = DecodeRequest::new(&cache, &qt).at_step(t);
            let reference = BackendKind::Efta(EftaOptions::unprotected()).decode(&req);
            let efta = BackendKind::Efta(EftaOptions::optimized()).decode(&req);
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
        let mut long = KvCache::new(1, 2, 16, 8);
        fill(&mut long, &k, &v, 21);
        for vis in [3usize, 8, 11, 16, 21] {
            let mut short = KvCache::new(1, 2, 16, 8);
            fill(&mut short, &k, &v, vis);
            let qt = q_row(&q, vis - 1);
            let req = DecodeRequest::new(&short, &qt).at_step(vis - 1);
            let want_ref = BackendKind::Efta(EftaOptions::unprotected()).decode(&req);
            let want_efta = BackendKind::Efta(EftaOptions::optimized()).decode(&req);
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
    fn frontier_fold_is_the_prefix_encode_of_the_verified_copy() {
        // Every prefix of a full 16-row block (shorter than, equal to and
        // longer than the stride) and of a ragged 4-row block (shorter than
        // the stride) gets, bit for bit, what the from-scratch encoders give
        // over that prefix of the verified copy: its V operand and max-norm,
        // and the checksum GEMM results of its K operand (`q · w1`,
        // `q · w2`, as `gemm_nn` computes them). The full block's copy was
        // corrected after a K and a V flip, so the fold must read the
        // corrected rows, not the stored ones.
        let (q, k, v) = workload(20, 16, 77);
        let mut cache = KvCache::new(1, 2, 16, 16);
        fill(&mut cache, &k, &v, 20);
        for (row, col, which) in [(5, 3, 0), (9, 2, 1)] {
            let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, row, col, which), 14);
            cache.expose(&inj, 0);
            assert_eq!(inj.fired(), 1);
        }
        let bits = |m: &MatrixF32| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let operands = |cs: &StridedChecksums| (bits(&cs.w1), bits(&cs.w2), cs.stride, cs.groups);
        for jb in 0..2 {
            let vb = cache.verified_block(0, jb);
            if jb == 0 {
                assert_eq!((vb.k_report.corrected, vb.v_report.corrected), (1, 1));
                assert_ne!(bits(&vb.kt), bits(&cache.read_kt_raw(0, jb)));
                assert_ne!(bits(&vb.v), bits(&cache.read_v_raw(0, jb)));
            }
            let (d, rows) = vb.kt.shape();
            let q = q.slot_flat(0).block(0, 0, rows, d).to_f32();
            let frontier = Frontier::new(&q, (&vb.kt, &vb.v), cache.stride(), 1..rows + 1);
            for p in 1..=rows {
                let (s_cs, v_cs, k_max_norm) = frontier.prefix(p - 1);
                let (kt_part, v_part) = (vb.kt.block(0, 0, d, p), vb.v.block(0, 0, p, d));
                let want_k = encode_cols_strided(&kt_part, cache.stride().min(p), false);
                let want_v = encode_cols_strided(&v_part, cache.stride().min(d), false);
                let q_row = q.block(p - 1, 0, 1, d);
                let want_s = (gemm_nn(&q_row, &want_k.w1), gemm_nn(&q_row, &want_k.w2));
                let what = format!("block {jb}, prefix {p}");
                assert_eq!(
                    (bits(&s_cs.0), bits(&s_cs.1)),
                    (bits(&want_s.0), bits(&want_s.1)),
                    "K {what}"
                );
                assert_eq!(operands(&v_cs), operands(&want_v), "V {what}");
                assert_eq!(
                    k_max_norm.to_bits(),
                    max_key_norm(&kt_part).to_bits(),
                    "{what}"
                );
            }
        }
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
        fn may_fire(&self, site: FaultSite) -> bool {
            self.0.may_fire(site) || self.1.may_fire(site)
        }
    }

    #[test]
    fn row_group_steps_match_one_row_tiles_under_faults() {
        // A 16-row chunk (cache rows 21..37, 8-row blocks, window 20):
        // every attended block has frontier rows stepping alone and a group
        // seeing it whole, and rows leave the window one block at a time.
        // One SEU hits a middle row's checksum-GEMM chain — row 8 (vis 30)
        // sees block 2 whole, so its column is vis + c0 + t — and one hits
        // a GEMM II chain of the group seeing block 3 whole. The chunk tile
        // must give the output, ledger and fired count of 16 one-row tiles.
        let (q, k, v) = workload(37, 16, 78);
        let mut cache = KvCache::new(1, 2, 16, 8);
        fill(&mut cache, &k, &v, 37);
        let (base, c, step0, window) = (21, 16, 500, Some(20));
        let (vis_8, jb) = (base + 1 + 8, 2);
        let checksum_chain = OpCoord::new(1, step0 + 8, vis_8 + jb * 8 + 3, 3 * jb + 1);
        let gemm2_chain = OpCoord::new(0, step0 + 12, 5, 3 * 3);
        let inj = || {
            Both(
                SeuInjector::new(FaultSite::GemmIAccum, checksum_chain, 30).at_chain_step(9),
                SeuInjector::new(FaultSite::GemmIiAccum, gemm2_chain, 30).at_chain_step(4),
            )
        };
        for opts in [EftaOptions::optimized(), EftaOptions::per_step()] {
            for slot in 0..2 {
                let chunk = q.slot_flat(slot).block(base, 0, c, 16).to_f32();
                let (chunk_inj, row_inj) = (inj(), inj());
                let (got, got_report) = efta_decode_tile(
                    &cache,
                    slot,
                    base + 1,
                    step0,
                    &chunk,
                    &chunk_inj,
                    &opts,
                    window,
                );
                let mut want_report = FtReport::default();
                for r in 0..c {
                    let row = chunk.block(r, 0, 1, 16);
                    let vis = base + 1 + r;
                    let (o, rep) = efta_decode_tile(
                        &cache,
                        slot,
                        vis,
                        step0 + r,
                        &row,
                        &row_inj,
                        &opts,
                        window,
                    );
                    let bits = |m: &MatrixF32| {
                        m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(&got.block(r, 0, 1, 16)),
                        bits(&o),
                        "slot {slot} row {r}"
                    );
                    want_report = want_report.merged(&rep);
                }
                assert_eq!(got_report, want_report, "slot {slot} under {opts:?}");
                assert_eq!(chunk_inj.fired(), row_inj.fired(), "slot {slot}");
                assert_eq!(chunk_inj.fired(), 1, "one SEU aims at each slot");
                assert!(got_report.total_detected() > 0, "{got_report:?}");
            }
        }
    }

    /// The bits of a matrix, NaN payloads included.
    fn bits(m: &MatrixF32) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// A 16-row chunk over 16-row blocks at stride 8 (cache rows 30..46):
    /// row 0 sees block 1 to its 15th row, and every row but the last sees
    /// the fresh block 2 only in part — rows 2..9 through prefixes of 1..7
    /// rows, shorter than the stride. Cache row 40, a later chunk row,
    /// holds ±Inf in V, which no row that does not see it may ever
    /// multiply in. Returns the caches holding the first `len` rows for
    /// `len` = 1..=46 (the last is the chunk's), the query chunk of each
    /// slot and the chunk's first visible length.
    fn ragged_chunk() -> (Vec<KvCache>, [MatrixF32; 2], usize) {
        let (q, k, mut v) = workload(46, 16, 79);
        for m in v.slots_mut() {
            m.set(40, 3, F16::from_f32(f32::INFINITY));
            m.set(40, 7, F16::from_f32(f32::NEG_INFINITY));
        }
        let mut cache = KvCache::new(1, 2, 16, 16);
        let caches = (1..=46)
            .map(|len| {
                fill(&mut cache, &k, &v, len);
                cache.clone()
            })
            .collect();
        let chunk = |slot| q.slot_flat(slot).block(30, 0, 16, 16).to_f32();
        (caches, [chunk(0), chunk(1)], 31)
    }

    /// Every option set the protected decode tile accepts.
    fn decode_option_sets() -> Vec<EftaOptions> {
        let mut sets = Vec::new();
        for gemm in [GemmProtection::Strided, GemmProtection::Unprotected] {
            for softmax in [
                SoftmaxProtection::Snvr,
                SoftmaxProtection::Dmr,
                SoftmaxProtection::Unprotected,
            ] {
                for verify in [VerifyMode::Unified, VerifyMode::PerStep] {
                    if gemm == GemmProtection::Strided || softmax != SoftmaxProtection::Unprotected
                    {
                        sets.push(EftaOptions {
                            gemm,
                            softmax,
                            verify,
                            ..EftaOptions::optimized()
                        });
                    }
                }
            }
        }
        sets
    }

    #[test]
    fn ragged_row_group_matches_one_row_tiles_under_ber_at_every_site() {
        // Every option set the protected tile accepts, under one BER
        // injector over every site it queries. The one step per attended
        // block must give each chunk row the output bits, the whole ledger
        // and the fault draws of a one-row tile over a cache that holds
        // exactly that row's prefix — where every attended block is whole,
        // so no frontier machinery is involved.
        let (caches, chunks, vis0) = ragged_chunk();
        let (cache, step0) = (&caches[45], 900);
        let option_sets = decode_option_sets();
        assert_eq!(option_sets.len(), 10);
        let mut fired = 0;
        for opts in &option_sets {
            for (slot, chunk) in chunks.iter().enumerate() {
                for window in [None, Some(20)] {
                    let what = format!("slot {slot}, window {window:?}, {opts:?}");
                    let inj = || BerInjector::new(33, 2e-3);
                    let (chunk_inj, row_inj) = (inj(), inj());
                    let (got, got_report) =
                        efta_decode_tile(cache, slot, vis0, step0, chunk, &chunk_inj, opts, window);
                    let mut want_report = FtReport::default();
                    for r in 0..chunk.rows() {
                        let (row, short) = (chunk.block(r, 0, 1, 16), &caches[vis0 + r - 1]);
                        let (o, rep) = efta_decode_tile(
                            short,
                            slot,
                            vis0 + r,
                            step0 + r,
                            &row,
                            &row_inj,
                            opts,
                            window,
                        );
                        assert_eq!(bits(&got.block(r, 0, 1, 16)), bits(&o), "row {r}, {what}");
                        want_report = want_report.merged(&rep);
                    }
                    assert_eq!(got_report, want_report, "{what}");
                    assert_eq!(chunk_inj.fired(), row_inj.fired(), "{what}");
                    assert!(
                        got.block(0, 0, 10, 16)
                            .as_slice()
                            .iter()
                            .all(|x| x.is_finite()),
                        "{what}"
                    );
                    fired += chunk_inj.fired();
                }
            }
        }
        assert!(fired > 1000, "the campaign must fire: {fired}");
    }

    #[test]
    fn ragged_row_group_reads_a_corrected_frontier_once() {
        // An SEU in K of the frontier block 2, under BER at every site:
        // each row's prefix operands are folded from the verified
        // (corrected) copy, as a one-row tile over the same cache folds
        // them, and the read is attributed once per tile rather than once
        // per attending row.
        let (mut caches, chunks, vis0) = ragged_chunk();
        let cache = &mut caches[45];
        let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 35, 5, 0), 14);
        cache.expose(&seu, 0);
        assert_eq!(seu.fired(), 1);
        for opts in &decode_option_sets() {
            let inj = || BerInjector::new(35, 2e-3);
            let (chunk_inj, row_inj) = (inj(), inj());
            let chunk = &chunks[1];
            let (got, got_report) =
                efta_decode_tile(cache, 1, vis0, 0, chunk, &chunk_inj, opts, None);
            let mut want_report = FtReport::default();
            for r in 0..chunk.rows() {
                let row = chunk.block(r, 0, 1, 16);
                let (o, rep) = efta_decode_tile(cache, 1, vis0 + r, r, &row, &row_inj, opts, None);
                assert_eq!(bits(&got.block(r, 0, 1, 16)), bits(&o), "row {r}, {opts:?}");
                want_report = want_report.merged(&rep);
            }
            let without_cache_reads = |r: FtReport| FtReport {
                cache_detected: 0,
                cache_corrected: 0,
                ..r
            };
            assert_eq!(
                without_cache_reads(got_report),
                without_cache_reads(want_report)
            );
            assert_eq!(
                (got_report.cache_detected, got_report.cache_corrected),
                (1, 1)
            );
            assert_eq!(chunk_inj.fired(), row_inj.fired(), "{opts:?}");
        }
    }

    #[test]
    fn ragged_reference_tile_matches_one_row_tiles() {
        // The unprotected tile's one online update per attended block,
        // under BER on GEMM I (the one site it queries): every row's bits
        // are those of a one-row tile over a cache holding exactly its
        // prefix, and no row short of cache row 40 sees its ±Inf.
        let (caches, chunks, vis0) = ragged_chunk();
        for (slot, chunk) in chunks.iter().enumerate() {
            for window in [None, Some(20)] {
                let inj = || BerInjector::new(34, 5e-3).with_sites(&[FaultSite::GemmIAccum]);
                let (chunk_inj, row_inj) = (inj(), inj());
                let got =
                    reference_decode_tile(&caches[45], slot, vis0, 700, chunk, &chunk_inj, window);
                for r in 0..chunk.rows() {
                    let (row, short) = (chunk.block(r, 0, 1, 16), &caches[vis0 + r - 1]);
                    let o = reference_decode_tile(
                        short,
                        slot,
                        vis0 + r,
                        700 + r,
                        &row,
                        &row_inj,
                        window,
                    );
                    assert_eq!(
                        bits(&got.block(r, 0, 1, 16)),
                        bits(&o),
                        "slot {slot} row {r}"
                    );
                }
                assert_eq!(chunk_inj.fired(), row_inj.fired());
                assert!(chunk_inj.fired() > 0);
                assert!(got
                    .block(0, 0, 10, 16)
                    .as_slice()
                    .iter()
                    .all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn gemm_seu_in_decode_is_detected_and_repaired() {
        let (q, k, v) = workload(24, 16, 71);
        let mut cache = KvCache::new(1, 2, 16, 8);
        fill(&mut cache, &k, &v, 24);
        let qt = q_row(&q, 23);
        let req = DecodeRequest::new(&cache, &qt).at_step(23);
        let clean = BackendKind::Efta(EftaOptions::optimized()).decode(&req);
        // Exponent flip in the GEMM I chain of cached column 10 (block 1).
        let inj = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(1, 23, 10, 3), 30)
            .at_chain_step(8);
        let req = req.with_injector(&inj);
        let out = BackendKind::Efta(EftaOptions::optimized()).decode(&req);
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
            let mut cache = KvCache::new(1, 2, 16, cfg.block);
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
                let decode = BackendKind::Efta(*opts).decode(&req);
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
        let mut cache = KvCache::new(1, 2, 16, 8);
        fill(&mut cache, &k, &v, 20);
        let qt = q_row(&q, 19);
        let clean_req = DecodeRequest::new(&cache, &qt).at_step(19);
        let clean = BackendKind::Efta(EftaOptions::optimized()).decode(&clean_req);

        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 7, 3, 0), 14);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1);
        let req = DecodeRequest::new(&cache, &qt).at_step(19);
        let protected = BackendKind::Efta(EftaOptions::optimized()).decode(&req);
        assert!(
            protected.report.cache_detected > 0,
            "{:?}",
            protected.report
        );
        assert!(protected.report.cache_corrected > 0);
        assert!(protected.o.max_abs_diff(&clean.o) < 5e-2);

        let bare = BackendKind::Efta(EftaOptions::unprotected()).decode(&req);
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
        let mut cache = KvCache::new(1, 2, 16, 8);
        fill(&mut cache, &k, &v, 12);
        let qt = q_row(&q, 11);
        let req = DecodeRequest::new(&cache, &qt).at_step(11);
        let a = BackendKind::Efta(EftaOptions::unprotected()).decode(&req);
        let b = BackendKind::Efta(EftaOptions::unprotected()).decode(&req);
        assert_eq!(a.o.max_abs_diff(&b.o), 0.0);
    }

    #[test]
    fn every_backend_kind_decodes_through_the_trait() {
        let (q, k, v) = workload(10, 16, 74);
        let mut cache = KvCache::new(1, 2, 16, 8);
        fill(&mut cache, &k, &v, 10);
        let qt = q_row(&q, 9);
        let req = DecodeRequest::new(&cache, &qt).at_step(9);
        let oracle = BackendKind::Efta(EftaOptions::unprotected()).decode(&req);
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
