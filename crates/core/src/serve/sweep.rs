//! The kernel side of continuous batching: one stream's slice of a
//! batched decode sweep, and the one fan-out that runs every slice.
//!
//! * [`StreamSlice`] / [`StreamSweepOutput`] — one stream's slice of a
//!   batched decode sweep and its per-stream result. A slice carries a
//!   *chunk* of query rows (one row for a decoding stream, up to a prefill
//!   chunk for a stream still consuming its prompt); row `r` attends the
//!   causal prefix `0 .. cache.len() − c + r + 1` of that stream's own
//!   [`KvCache`].
//! * `sweep_tiles`, behind [`AttentionBackend::try_decode_sweep`] — the
//!   one decode path, under protecting and unprotected options alike:
//!   every `(stream, slot)` **tile** of every
//!   slice is flattened into **one** parallel sweep. A tile spans all of
//!   its stream's chunk rows, reads and verifies each attended cache block
//!   once, and runs every row's online-softmax accumulation against the
//!   shared buffer — chunked prefill pays block verification once per
//!   sweep instead of once per row. Fault events are accumulated into
//!   per-stream [`FtReport`]s — a cache hit on stream 3 lands in stream 3's
//!   report, not in a global blur — with per-block cache events attributed
//!   once per sweep. Each row's accumulation order inside the tile is the
//!   one a one-row tile over its own causal prefix runs, so a scheduled
//!   stream is bit-identical to the same stream decoded alone — and
//!   single-query decode ([`AttentionBackend::try_decode`]) *is* this sweep
//!   over one one-row slice.
//!
//! [`AttentionBackend::try_decode_sweep`]: crate::backend::AttentionBackend::try_decode_sweep
//! [`AttentionBackend::try_decode`]: crate::backend::AttentionBackend::try_decode

use super::request::StreamId;
use crate::backend::BackendError;
use crate::decode::{efta_decode_tile, reference_decode_tile, sweep_tile_stats};
use crate::efta::{EftaOptions, GemmProtection, SoftmaxProtection};
use crate::kv::KvCache;
use crate::types::FtReport;
use ft_abft::thresholds::Thresholds;
use ft_num::{MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::cost::Timeline;
use ft_sim::FaultInjector;
use rayon::prelude::*;

/// One stream's slice of a batched decode sweep.
#[derive(Clone, Copy)]
pub struct StreamSlice<'a> {
    /// Which stream this slice belongs to (report attribution).
    pub stream: StreamId,
    /// The stream's own checksum-protected K/V store. Must already contain
    /// the chunk's K/V rows (appended by the caller before the sweep).
    pub cache: &'a KvCache,
    /// `batch × heads × c × dim` query rows: one for a decoding stream,
    /// `c > 1` for a prefill chunk. Row `r` attends the causal prefix
    /// `0 .. cache.len() − c + r + 1`.
    pub q: &'a Tensor4F16,
    /// Sliding-window attention for this stream: each row attends only the
    /// blocks holding the most recent `window` rows of its causal prefix
    /// (see [`DecodeRequest::window`](crate::decode::DecodeRequest::window)).
    /// Storage eviction must have been enforced *before* this chunk's rows
    /// were appended, so interior rows still find every block their own
    /// window reaches back to.
    pub window: Option<usize>,
}

impl StreamSlice<'_> {
    /// Cache length before this chunk's rows were appended.
    fn base(&self) -> usize {
        self.cache.len() - self.q.seq()
    }
}

/// Per-stream result of one batched sweep.
#[derive(Debug)]
pub struct StreamSweepOutput {
    /// The stream the result belongs to.
    pub stream: StreamId,
    /// `batch × heads × c × dim` attention rows (same row order as the
    /// slice's query chunk).
    pub o: Tensor4F32,
    /// Fault events attributed to this stream alone.
    pub report: FtReport,
    /// Analytic kernel stats of this stream's share of the sweep.
    pub timeline: Timeline,
}

fn validate(slices: &[StreamSlice<'_>]) {
    for s in slices {
        assert!(
            !s.cache.is_empty(),
            "{}: sweep over an empty cache",
            s.stream
        );
        assert_eq!(
            (s.q.batch(), s.q.heads(), s.q.dim()),
            (s.cache.batch(), s.cache.heads(), s.cache.dim()),
            "{}: query tensor does not match the cache geometry",
            s.stream
        );
        assert!(
            s.q.seq() >= 1 && s.q.seq() <= s.cache.len(),
            "{}: chunk of {} rows against a {}-row cache",
            s.stream,
            s.q.seq(),
            s.cache.len()
        );
        assert!(
            s.window != Some(0),
            "{}: a zero-row window cannot serve decode",
            s.stream
        );
    }
}

/// Flattened tile work units of a fused sweep: `(slice index, slot)` —
/// one tile spans every chunk row of that `(stream, slot)` pair, so each
/// attended cache block is verified once per tile rather than once per
/// row.
fn tile_units(slices: &[StreamSlice<'_>]) -> Vec<(usize, usize)> {
    let mut units = Vec::new();
    for (si, s) in slices.iter().enumerate() {
        for slot in 0..s.cache.num_slots() {
            units.push((si, slot));
        }
    }
    units
}

/// Reassemble per-tile `c × dim` outputs and ledgers (in `tile_units`
/// order) into per-stream output tensors, with each stream's fault ledger
/// and an exact per-row attended census for its kernel stats (see
/// [`sweep_tile_stats`](crate::decode::sweep_tile_stats) — chunk rows are
/// charged their own causal prefix, and shared block reads are charged
/// once per tile, not once per row). An unprotected slice has a clean
/// report and no checksum-operand traffic.
///
/// A protected slice's ledger is seeded once — not once per tile — with
/// its cache's sticky unrepairable damage, scoped to the blocks the
/// stream's window can still attend (see `KvCache::poisoned_attended`: a
/// mark behind the window cannot reach any future token, so it must not
/// trip the engine's re-prefill trigger).
fn assemble(
    slices: &[StreamSlice<'_>],
    tiles: Vec<(MatrixF32, FtReport)>,
    protected: &[bool],
) -> Vec<StreamSweepOutput> {
    let mut out = Vec::with_capacity(slices.len());
    let mut tiles = tiles.into_iter();
    for (s, &protected) in slices.iter().zip(protected) {
        let (c, ns, d) = (s.q.seq(), s.cache.num_slots(), s.cache.dim());
        let mut report = FtReport {
            cache_uncorrectable: if protected {
                s.cache.poisoned_attended(s.window)
            } else {
                0
            },
            ..FtReport::default()
        };
        let mut mats = Vec::with_capacity(ns);
        for (mat, tile_report) in tiles.by_ref().take(ns) {
            mats.push(mat);
            report = report.merged(&tile_report);
        }
        let mut timeline = Timeline::new();
        timeline.push("decode", sweep_tile_stats(s.cache, c, s.window, protected));
        out.push(StreamSweepOutput {
            stream: s.stream,
            o: Tensor4F32::from_slots(s.cache.batch(), s.cache.heads(), c, d, mats),
            report,
            timeline,
        });
    }
    out
}

/// The one decode body: every `(stream, slot)` tile of every slice through
/// one parallel fan-out. Chunk row `r` of a slice attends the causal prefix
/// `0 .. base + r + 1` at fault-coordinate step `step0 + r`, where `step0`
/// defaults to the slice's `base` (the sweep convention) and single-query
/// decode passes its request's explicit
/// [`DecodeRequest::step`](crate::decode::DecodeRequest::step).
///
/// Under protecting options each tile verifies every attended cache block
/// of its stream **once** per sweep ([`KvCache::verified_block`]), exposes
/// the corrected payload and stored checksum operands to all chunk rows,
/// and runs the protected per-row pipeline against the shared buffer
/// (`thresholds`, when given, replacing `opts.thresholds`); fault events
/// land in that stream's [`FtReport`] only, with per-block cache events
/// attributed once per sweep. When `opts` disables both GEMM and softmax
/// protection every tile reads the cache raw and runs plain online softmax
/// (see `ft_core::decode::reference_decode_tile`), ignoring `thresholds`;
/// a [`Raw`](crate::protect::ProtectionLevel::Raw) stream's slice (alone)
/// reads unprotected inside a protected sweep.
pub(crate) fn sweep_tiles(
    slices: &[StreamSlice<'_>],
    step0: Option<usize>,
    inj: &dyn FaultInjector,
    thresholds: Option<Thresholds>,
    opts: &EftaOptions,
) -> Result<Vec<StreamSweepOutput>, BackendError> {
    let protected = efta_sweep_prologue(slices, opts)?;
    let opts = &EftaOptions {
        thresholds: thresholds.unwrap_or(opts.thresholds),
        ..*opts
    };
    let tiles: Vec<(MatrixF32, FtReport)> = tile_units(slices)
        .into_par_iter()
        .map(|(si, slot)| {
            let s = &slices[si];
            let base = s.base();
            let step0 = step0.unwrap_or(base);
            let q_chunk = s.q.slot_flat(slot).to_f32();
            if protected[si] {
                efta_decode_tile(
                    s.cache,
                    slot,
                    base + 1,
                    step0,
                    &q_chunk,
                    inj,
                    opts,
                    s.window,
                )
            } else {
                let o =
                    reference_decode_tile(s.cache, slot, base + 1, step0, &q_chunk, inj, s.window);
                (o, FtReport::default())
            }
        })
        .collect();
    Ok(assemble(slices, tiles, &protected))
}

/// Entry checks and the per-slice protection decision of a sweep. A slice
/// runs the protected tile when the options protect *and* its cache stores
/// checksum metadata; it reads unprotected when the options disable both
/// GEMM and softmax protection, or when its cache is
/// [`Raw`](crate::protect::ProtectionLevel::Raw): a Raw stream stores no
/// checksum operands, so the protected tile has nothing to verify or reuse.
fn efta_sweep_prologue(
    slices: &[StreamSlice<'_>],
    opts: &EftaOptions,
) -> Result<Vec<bool>, BackendError> {
    if opts.gemm == GemmProtection::Traditional {
        return Err(BackendError::Unsupported(
            "decode reuses the cache's strided append-time checksums; the traditional \
             element scheme has no cached operands to reuse"
                .into(),
        ));
    }
    validate(slices);
    let protects =
        opts.gemm != GemmProtection::Unprotected || opts.softmax != SoftmaxProtection::Unprotected;
    Ok(slices
        .iter()
        .map(|s| protects && s.cache.protection().encodes_metadata())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AttentionBackend, BackendKind};
    use ft_num::rng::normal_tensor_f16;

    fn filled_cache(tokens: usize, seed: u64) -> KvCache {
        let mut cache = KvCache::new(1, 2, 16, 8);
        for t in 0..tokens {
            let k = normal_tensor_f16(seed + t as u64, 1, 2, 1, 16, 0.6);
            let v = normal_tensor_f16(seed + 500 + t as u64, 1, 2, 1, 16, 0.8);
            cache.append(&k, &v);
        }
        cache
    }

    #[test]
    fn chunked_prefill_rows_match_incremental_steps() {
        use crate::decode::DecodeRequest;
        // A 4-row chunk appended to a 9-row cache must reproduce the four
        // single-row decode steps of an incrementally grown cache.
        let mut incremental = filled_cache(9, 400);
        let mut chunked = incremental.clone();
        let mut k_rows = Vec::new();
        let mut v_rows = Vec::new();
        let mut q_rows = Vec::new();
        for t in 0..4u64 {
            k_rows.push(normal_tensor_f16(700 + t, 1, 2, 1, 16, 0.6));
            v_rows.push(normal_tensor_f16(750 + t, 1, 2, 1, 16, 0.8));
            q_rows.push(normal_tensor_f16(800 + t, 1, 2, 1, 16, 0.6));
        }
        let chunk_of = |ts: &[Tensor4F16]| {
            Tensor4F16::from_fn(1, 2, ts.len(), 16, |b, h, r, c| ts[r].slot(b, h).get(0, c))
        };
        chunked.append(&chunk_of(&k_rows), &chunk_of(&v_rows));
        let q_chunk = chunk_of(&q_rows);
        let slices = [StreamSlice {
            stream: StreamId(0),
            cache: &chunked,
            q: &q_chunk,
            window: None,
        }];
        let efta = BackendKind::Efta(EftaOptions::optimized());
        let out = &efta.decode_sweep(&slices, &ft_sim::NoFaults, None)[0];
        assert!(out.report.clean());
        for (r, (kr, (vr, qr))) in k_rows.iter().zip(v_rows.iter().zip(&q_rows)).enumerate() {
            incremental.append(kr, vr);
            let want = efta.decode(&DecodeRequest::new(&incremental, qr));
            for slot in 0..2 {
                for c in 0..16 {
                    assert_eq!(
                        out.o.slot_flat(slot).get(r, c),
                        want.o.slot_flat(slot).get(0, c),
                        "row {r} slot {slot} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_stream_fault_reports_are_isolated() {
        use ft_sim::{FaultSite, OpCoord, SeuInjector};
        // Corrupt stream 1's cache only; the batched sweep must report the
        // cache event on stream 1 and leave stream 0's report clean.
        let cache_a = filled_cache(12, 100);
        let mut cache_b = filled_cache(12, 200);
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 7, 3, 0), 14);
        cache_b.expose(&inj, 0);
        assert_eq!(inj.fired(), 1);
        let qa = normal_tensor_f16(901, 1, 2, 1, 16, 0.6);
        let qb = normal_tensor_f16(902, 1, 2, 1, 16, 0.6);
        let slices = [
            StreamSlice {
                stream: StreamId(0),
                cache: &cache_a,
                q: &qa,
                window: None,
            },
            StreamSlice {
                stream: StreamId(7),
                cache: &cache_b,
                q: &qb,
                window: None,
            },
        ];
        let outs = BackendKind::Efta(EftaOptions::optimized()).decode_sweep(
            &slices,
            &ft_sim::NoFaults,
            None,
        );
        assert!(outs[0].report.clean(), "{:?}", outs[0].report);
        assert_eq!(outs[1].stream, StreamId(7));
        assert!(outs[1].report.cache_detected > 0, "{:?}", outs[1].report);
        assert!(outs[1].report.cache_corrected > 0);
    }
}
