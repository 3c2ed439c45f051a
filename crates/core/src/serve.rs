//! Continuous-batching decode: many generation streams, one kernel sweep.
//!
//! A serving system rarely decodes one sequence at a time. This module is
//! the kernel-level half of continuous batching (the model-level half —
//! embedding, layer wiring, sampling — lives in the `ft-transformer`
//! crate's `ServeSession`):
//!
//! * [`StreamSlice`] / [`StreamSweepOutput`] — one stream's slice of a
//!   batched decode sweep and its per-stream result. A slice carries a
//!   *chunk* of query rows (one row for a decoding stream, up to a prefill
//!   chunk for a stream still consuming its prompt); row `r` attends the
//!   causal prefix `0 .. cache.len() − c + r + 1` of that stream's own
//!   [`KvCache`].
//! * [`sweep_efta`] — the one decode path, under protecting and
//!   unprotected options alike: every `(stream, slot)` **tile** of every
//!   slice is flattened into **one** parallel sweep. A tile spans all of its stream's chunk rows, reads
//!   and verifies each attended cache block once, and runs every row's
//!   online-softmax accumulation against the shared buffer — chunked
//!   prefill pays block verification once per sweep instead of once per
//!   row. Fault events are accumulated into per-stream [`FtReport`]s — a
//!   cache hit on stream 3 lands in stream 3's report, not in a global
//!   blur — with per-block cache events attributed once per sweep. Each
//!   row's accumulation order inside the tile is the one a one-row tile
//!   over its own causal prefix runs, so a scheduled stream is
//!   bit-identical to the same stream decoded alone — and single-query
//!   decode ([`reference_decode`] / [`efta_decode`]) *is* this sweep over
//!   one one-row slice.
//! * [`DecodeScheduler`] — the continuous-batching slot table: streams are
//!   admitted into free slots between sweeps (prompts consumed in
//!   prefill-chunk bites so a long prompt never stalls the batch), each
//!   sweep feeds every active stream its next chunk or its freshly sampled
//!   token, and finished streams retire between sweeps with their token
//!   history, accumulated fault report, and [`FinishReason`].
//! * The typed request/response lifecycle: streams are submitted as
//!   [`GenerationRequest`]s (per-stream `window`, [`SamplingMode`],
//!   [`RecoveryPolicy`]), the serving engine emits [`EngineEvent`]s per
//!   sweep, and [`DecodeScheduler::requeue`] is the recovery primitive —
//!   it turns a poisoned stream's emitted history into a fresh prefill
//!   source so the engine can rebuild the cache and resume.
//!
//! The scheduler is deliberately model-agnostic — it plans *which tokens
//! each stream feeds next* and records *what came back*; the driver owns
//! the forward pass:
//!
//! ```
//! use ft_core::serve::{DecodeScheduler, GenerationRequest, SchedulerConfig};
//!
//! let mut sched = DecodeScheduler::new(SchedulerConfig {
//!     max_active: 8,
//!     prefill_chunk: 4,
//!     ..Default::default()
//! });
//! // Two streams join: a 6-token prompt wanting 2 new tokens, and a
//! // 2-token prompt wanting 1.
//! let a = sched.submit_request(GenerationRequest::new(vec![1, 2, 3, 4, 5, 6], 2));
//! let b = sched.submit_request(GenerationRequest::new(vec![7, 8], 1));
//!
//! // Sweep 1: A feeds its first prefill chunk, B its whole prompt.
//! let plan = sched.plan();
//! assert_eq!(plan.len(), 2);
//! assert_eq!(plan[0].feed, vec![1, 2, 3, 4]);
//! assert!(!plan[0].sample, "A's prompt is not exhausted yet");
//! assert_eq!(plan[1].feed, vec![7, 8]);
//! assert!(plan[1].sample, "B samples from its last prompt logits");
//!
//! // The driver runs the batched sweep, then reports per-stream results.
//! sched.record(a, None, &Default::default());
//! sched.record(b, Some(9), &Default::default());
//!
//! // Sweep 2: A finishes prefill; B (done: 1 of 1 tokens) has retired.
//! let plan = sched.plan();
//! assert_eq!(plan.len(), 1);
//! assert_eq!(plan[0].feed, vec![5, 6]);
//! assert!(plan[0].sample);
//! sched.record(a, Some(40), &Default::default());
//! assert_eq!(sched.take_finished().len(), 1);
//! assert!(!sched.idle(), "A is still generating");
//! ```
//!
//! [`reference_decode`]: crate::decode::reference_decode
//! [`efta_decode`]: crate::decode::efta_decode

use crate::backend::BackendError;
use crate::decode::{efta_decode_tile, reference_decode_tile, sweep_tile_stats};
use crate::efta::{EftaOptions, GemmProtection, SoftmaxProtection};
use crate::kv::KvCache;
use crate::protect::ProtectionLevel;
use crate::types::FtReport;
use core::cmp::Reverse;
use ft_abft::thresholds::Thresholds;
use ft_num::{MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::cost::Timeline;
use ft_sim::FaultInjector;
use rayon::prelude::*;
use std::collections::VecDeque;

/// Stable identity of one generation stream within a scheduler or serving
/// session. Also the namespace for per-stream fault-injection coordinates:
/// stream 0 of a session reproduces exactly the coordinates a standalone
/// single-stream decode would present.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl core::fmt::Display for StreamId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

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

/// Batched sweep: one multi-row tile per `(stream, slot)` work unit. Under
/// protecting options each tile verifies every attended cache block of its
/// stream **once** per sweep ([`KvCache::verified_block`]), exposes the
/// corrected payload and stored checksum operands to all chunk rows, and
/// runs the protected per-row pipeline against the shared buffer; fault
/// events land in that stream's [`FtReport`] only, with per-block cache
/// events attributed once per sweep. When `opts` disables both GEMM and
/// softmax protection every tile reads the cache raw and runs plain online
/// softmax (see `ft_core::decode::reference_decode_tile`), ignoring
/// `thresholds`; a [`Raw`](crate::protect::ProtectionLevel::Raw) stream's
/// slice (alone) reads unprotected inside a protected sweep.
pub fn sweep_efta(
    slices: &[StreamSlice<'_>],
    inj: &dyn FaultInjector,
    thresholds: Option<Thresholds>,
    opts: &EftaOptions,
) -> Result<Vec<StreamSweepOutput>, BackendError> {
    sweep_tiles(slices, None, inj, thresholds, opts)
}

/// The one decode body: every `(stream, slot)` tile of every slice through
/// one parallel fan-out. Chunk row `r` of a slice attends the causal prefix
/// `0 .. base + r + 1` at fault-coordinate step `step0 + r`, where `step0`
/// defaults to the slice's `base` (the sweep convention) and single-query
/// decode passes its request's explicit
/// [`DecodeRequest::step`](crate::decode::DecodeRequest::step).
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
/// [`Raw`](ProtectionLevel::Raw): a Raw stream stores no checksum operands,
/// so the protected tile has nothing to verify or reuse.
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

// ---------------------------------------------------------------------------
// The typed request/response lifecycle.
// ---------------------------------------------------------------------------

/// How a finished stream picks each new token from its logits row.
///
/// Sampling is *deterministic* in every mode (serving equivalence and
/// recovery both depend on it): re-running a request — including the
/// engine's auto re-prefill after cache poisoning — reproduces the same
/// token sequence bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplingMode {
    /// Argmax over the logits row (ties to the lower index).
    #[default]
    Greedy,
    /// Pick uniformly (by a stateless hash of `seed`, the stream id, and
    /// the absolute token position) among the `k` largest logits. Position
    /// keying makes the choice reproducible across re-prefill recovery:
    /// the resumed stream re-draws exactly the tokens it already emitted.
    TopK {
        /// How many of the largest logits are eligible (clamped to ≥ 1).
        k: usize,
        /// Stateless draw seed.
        seed: u64,
    },
}

/// What the serving engine does when a stream's attended cache window
/// carries unrepairable damage (`cache_uncorrectable` /
/// [`KvCache::poisoned_attended`]).
///
/// Recovery is a *per-request* policy, not an engine-wide switch (the
/// ApproxABFT observation: workloads price a wrong token very differently),
/// and the bounded re-execution variant is the ALBERTA recipe applied to
/// serving: re-run the damaged unit — here the stream's whole cache, by
/// chunked re-prefill of everything already emitted — at most `max_attempts`
/// times before giving up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Report the damage in the stream's fault history and keep decoding
    /// (the pre-lifecycle behavior; tokens may be wrong).
    #[default]
    None,
    /// Drop the stream's cache and re-prefill its prompt *plus every token
    /// already emitted*, then resume decoding — at most `max_attempts`
    /// times, after which the stream finishes with
    /// [`FinishReason::AbortedPoisoned`]. Deterministic sampling makes a
    /// successful recovery bit-identical to an undamaged run.
    ReprefillBounded {
        /// Re-prefill attempts before the stream is aborted.
        max_attempts: u32,
    },
    /// Like [`ReprefillBounded`](RecoveryPolicy::ReprefillBounded), but
    /// exploit the per-block sticky poison marks to *locate* the damage
    /// first: truncate the cache to the last clean block boundary before
    /// the first poisoned attended block (`KvCache::truncate_to` — whole
    /// tail blocks drop O(1), poison marks retiring with them) and
    /// re-prefill only the history suffix, so recovery cost is
    /// proportional to the attended window rather than the whole emitted
    /// history. Falls back to the full re-prefill when the damage cannot
    /// be exploited partially — the poisoned block is the first attended
    /// block, the suffix's own attention windows would reach behind the
    /// eviction frontier, or the sweep saw unrepairable damage that no
    /// sticky block mark localises. Either way a successful recovery is
    /// bit-identical to an undamaged run.
    ReprefillPartial {
        /// Recovery attempts (partial or fallback-full) before the stream
        /// is aborted.
        max_attempts: u32,
    },
}

/// Where a speculating stream's provisional tokens come from.
///
/// The contract of speculative decode here is the commit/rollback
/// machinery, not draft quality: any deterministic guess source is sound,
/// because the verify sweep commits exactly the prefix the plain decode
/// path would have emitted and rolls the rest back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DraftSource {
    /// Self-drafting greedy reuse: find the most recent earlier occurrence
    /// of the history's trailing `n`-gram and replay the tokens that
    /// followed it, repeating the last token when there is none — free and
    /// model-less, effective on repetitive traffic.
    NGram {
        /// Suffix gram length matched against the history (clamped ≥ 1).
        n: usize,
    },
    /// Scripted continuation: `script[i]` is the draft for the stream's
    /// `i`-th sampled token. Benches and tests force exact accept rates by
    /// scripting the plain-decode oracle tokens (or deliberate
    /// mismatches); positions past the script repeat the last token.
    Scripted(Vec<u32>),
}

/// Speculative-decoding knob of a [`GenerationRequest`]: draft-then-verify
/// multi-token decode over the checksum-protected cache.
///
/// Each decode sweep feeds the last sampled token *plus* up to `draft_len`
/// provisional tokens from the draft source as one fused multi-row chunk
/// (PR 7's visible-length tiles — each row attends exactly its own causal
/// prefix). Row `i`'s logits are sampled with the plain position-keyed
/// rule and compared against draft `i + 1`: the accepted prefix plus one
/// corrected/bonus token is committed, and `KvCache::truncate_to` rolls
/// the rejected rows back before the next sweep. The emitted stream is
/// **bit-identical to plain decode by construction** — speculation moves
/// throughput, never tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpeculationPolicy {
    /// Provisional tokens drafted per decode sweep (≥ 1; each sweep clamps
    /// it so the committed run cannot overshoot the token budget).
    pub draft_len: usize,
    /// Stop speculating for the stream after this many *consecutive*
    /// verify sweeps that accepted zero drafts (`None` = never back off).
    /// With the backoff engaged, a hostile accept rate degrades to plain
    /// decode instead of paying draft-width sweeps forever — this is what
    /// pins the serve bench's ≥ 1.0× floor at forced accept-rate 0.
    pub backoff_after: Option<u32>,
    /// Draft source.
    pub source: DraftSource,
}

impl SpeculationPolicy {
    /// Draft `draft_len` tokens per sweep by bigram self-drafting
    /// ([`DraftSource::NGram`] with `n = 2`), backing off after 2
    /// consecutive zero-accept sweeps.
    pub fn new(draft_len: usize) -> Self {
        assert!(draft_len > 0, "a zero-token draft cannot speculate");
        SpeculationPolicy {
            draft_len,
            backoff_after: Some(2),
            source: DraftSource::NGram { n: 2 },
        }
    }

    /// Replace the draft source.
    pub fn with_source(mut self, source: DraftSource) -> Self {
        self.source = source;
        self
    }

    /// Replace the zero-accept backoff threshold (`None` disables).
    pub fn with_backoff(mut self, backoff_after: Option<u32>) -> Self {
        self.backoff_after = backoff_after;
        self
    }
}

/// Scheduling class of a generation stream. Ordered: `Batch < Normal <
/// Latency`, so `as u64` is the base scheduling score the run queue sorts
/// by (higher goes first). Priority is the workload-awareness hook the
/// serving loop attaches to — ALBERTA's observation that protection and
/// scheduling decisions should know what the workload can afford lands
/// here first as admission ordering and preemption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput work: fills whatever capacity latency traffic leaves.
    Batch,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive: admitted first, never preempted by aging alone.
    Latency,
}

impl core::fmt::Display for Priority {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::Latency => "latency",
        })
    }
}

/// Effective run-queue score of a stream that has waited `waited` plan
/// ticks: the base class, promoted one class per `aging` ticks of queue
/// delay (deadline-aware aging — a starved `Batch` stream eventually
/// competes as `Latency`), and never beyond `Latency`. `aging = None`
/// disables promotion.
fn aged_score(priority: Priority, waited: u64, aging: Option<u64>) -> u64 {
    let base = priority as u64;
    match aging {
        None => base,
        Some(n) => (base + waited / n.max(1)).min(Priority::Latency as u64),
    }
}

/// `k` provisional continuation tokens for `history` from a draft source.
/// `generated` is how many sampled tokens the history already contains —
/// the script cursor of [`DraftSource::Scripted`]. Deterministic, and
/// always exactly `k` tokens (short sources pad by repeating the last
/// history token).
fn draft_tokens(source: &DraftSource, history: &[u32], generated: usize, k: usize) -> Vec<u32> {
    let pad = *history.last().expect("a decoding stream has history");
    let mut out = Vec::with_capacity(k);
    match source {
        DraftSource::NGram { n } => {
            let len = history.len();
            let n = (*n).clamp(1, len);
            let gram = &history[len - n..];
            // Most recent *earlier* occurrence of the trailing gram; the
            // tokens that followed it are the draft.
            if let Some(j) = (0..len - n).rev().find(|&j| &history[j..j + n] == gram) {
                out.extend_from_slice(&history[j + n..len.min(j + n + k)]);
            }
        }
        DraftSource::Scripted(script) => {
            out.extend(script.iter().skip(generated).take(k).copied());
        }
    }
    while out.len() < k {
        out.push(pad);
    }
    out
}

/// Why a stream retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishReason {
    /// The token budget (`max_new_tokens`, possibly clamped by the model's
    /// `max_seq`) was met without any recovery.
    MaxTokens,
    /// The token budget was met after one or more re-prefill recoveries
    /// ([`RecoveryPolicy::ReprefillBounded`] or
    /// [`RecoveryPolicy::ReprefillPartial`]).
    Recovered,
    /// Unrepairable cache damage persisted through `attempts` re-prefills
    /// and the bounded policy gave up; the token history may be wrong from
    /// the last poisoned position onward.
    AbortedPoisoned {
        /// Re-prefill attempts consumed before aborting.
        attempts: u32,
    },
}

impl core::fmt::Display for FinishReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FinishReason::MaxTokens => f.write_str("max-tokens"),
            FinishReason::Recovered => f.write_str("recovered"),
            FinishReason::AbortedPoisoned { attempts } => {
                write!(f, "aborted-poisoned(attempts={attempts})")
            }
        }
    }
}

/// One generation stream, fully specified: the typed replacement for the
/// positional `submit(prompt, max_new_tokens)` call. Everything that used
/// to be a model- or scheduler-wide knob that really belongs to a request —
/// the sliding window, the sampling rule, the recovery policy — rides here,
/// per stream.
///
/// ```
/// use ft_core::serve::{GenerationRequest, RecoveryPolicy, SamplingMode};
///
/// let req = GenerationRequest::new(vec![1, 2, 3], 16)
///     .with_window(64)
///     .with_sampling(SamplingMode::Greedy)
///     .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 2 });
/// assert_eq!(req.max_new_tokens, 16);
/// assert_eq!(req.window, Some(64));
/// ```
#[derive(Clone, Debug)]
pub struct GenerationRequest {
    /// Prompt token ids (must be non-empty).
    pub prompt: Vec<u32>,
    /// Sampled continuation budget.
    pub max_new_tokens: usize,
    /// Per-stream sliding attention window (`None` = attend everything, or
    /// inherit the model default when submitted through a serving engine).
    pub window: Option<usize>,
    /// Token selection rule.
    pub sampling: SamplingMode,
    /// What to do when this stream's attended cache is poisoned.
    pub recovery: RecoveryPolicy,
    /// Scheduling class (run-queue ordering, preemption, aging).
    pub priority: Priority,
    /// Speculative draft-then-verify decode (`None` = plain decode).
    pub speculation: Option<SpeculationPolicy>,
    /// Graded KV-cache protection level for this stream's caches (see
    /// [`ProtectionLevel`]; defaults to `Full`, the legacy behavior).
    pub protection: ProtectionLevel,
}

impl GenerationRequest {
    /// Request `prompt` followed by up to `max_new_tokens` continuations
    /// with default knobs: full attention, greedy sampling, no recovery.
    pub fn new(prompt: Vec<u32>, max_new_tokens: usize) -> Self {
        GenerationRequest {
            prompt,
            max_new_tokens,
            window: None,
            sampling: SamplingMode::default(),
            recovery: RecoveryPolicy::default(),
            priority: Priority::default(),
            speculation: None,
            protection: ProtectionLevel::default(),
        }
    }

    /// Sliding-window attention for this stream only. Panics on 0 — a
    /// zero-row window cannot serve decode.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "a zero-row window cannot serve decode");
        self.window = Some(window);
        self
    }

    /// Token selection rule for this stream.
    pub fn with_sampling(mut self, sampling: SamplingMode) -> Self {
        self.sampling = sampling;
        self
    }

    /// Poisoned-cache recovery policy for this stream.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Scheduling class for this stream.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Speculative draft-then-verify decode for this stream: each decode
    /// sweep drafts provisional tokens, verifies them in one fused
    /// multi-row sweep, commits the accepted prefix, and rolls the rest
    /// back — emitted tokens bit-identical to plain decode.
    pub fn with_speculation(mut self, speculation: SpeculationPolicy) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Graded KV-cache protection for this stream: every cache the engine
    /// creates for it — at admission, re-prefill recovery, or migration
    /// re-adoption — is built at this level. `Full` (the default) is
    /// bit-identical to the pre-lattice behavior; see [`ProtectionLevel`]
    /// for the weaker rungs and what each trades away.
    pub fn with_protection(mut self, protection: ProtectionLevel) -> Self {
        self.protection = protection;
        self
    }
}

/// One typed lifecycle event of a serving sweep. The engine emits these
/// per sweep (see `ServeSession::sweep_events` in the `ft-transformer`
/// crate); everything a driver used to infer from raw counters — tokens,
/// corrections, poisoning, recovery progress, eviction, retirement — is a
/// variant here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// A stream sampled a new token this sweep.
    TokenEmitted {
        /// The emitting stream.
        stream: StreamId,
        /// The sampled token id.
        token: u32,
    },
    /// Fault-tolerance machinery fired for this stream this sweep and the
    /// sweep's output is repaired (detections with matching repairs).
    FaultCorrected {
        /// The affected stream.
        stream: StreamId,
        /// Detections across every check family this sweep.
        detected: u64,
        /// Repair actions (corrections + recomputations + restrictions).
        repaired: u64,
    },
    /// Unrepairable damage sits in the blocks this stream's window still
    /// attends — the stream's future tokens are suspect until it recovers
    /// (or forever, under [`RecoveryPolicy::None`]).
    CachePoisoned {
        /// The poisoned stream.
        stream: StreamId,
        /// Sticky damage events visible to the attended window.
        events: u64,
    },
    /// The engine dropped the stream's cache and is re-prefilling its
    /// prompt plus already-emitted tokens (attempt `attempt` of the
    /// bounded budget).
    Recovering {
        /// The recovering stream.
        stream: StreamId,
        /// 1-based re-prefill attempt number.
        attempt: u32,
    },
    /// The sliding-window storage policy evicted blocks from this stream's
    /// cache this sweep (bounded-memory bookkeeping, not a fault).
    EvictedBlocks {
        /// The trimmed stream.
        stream: StreamId,
        /// Blocks dropped this sweep (summed over layers).
        blocks: u64,
    },
    /// The scheduler parked this stream (preemption or backpressure): its
    /// cache is dropped, its emitted tokens are kept, and it re-enters the
    /// run queue to be resumed later through chunked re-prefill —
    /// bit-identical to an uninterrupted run under deterministic sampling.
    Preempted {
        /// The parked stream.
        stream: StreamId,
    },
    /// A previously parked stream re-entered the slot table and is
    /// re-prefilling its history.
    Resumed {
        /// The re-admitted stream.
        stream: StreamId,
    },
    /// The stream retired.
    Finished {
        /// The retired stream.
        stream: StreamId,
        /// Why it retired.
        reason: FinishReason,
    },
}

impl EngineEvent {
    /// The stream the event belongs to.
    pub fn stream(&self) -> StreamId {
        match *self {
            EngineEvent::TokenEmitted { stream, .. }
            | EngineEvent::FaultCorrected { stream, .. }
            | EngineEvent::CachePoisoned { stream, .. }
            | EngineEvent::Recovering { stream, .. }
            | EngineEvent::EvictedBlocks { stream, .. }
            | EngineEvent::Preempted { stream }
            | EngineEvent::Resumed { stream }
            | EngineEvent::Finished { stream, .. } => stream,
        }
    }
}

impl core::fmt::Display for EngineEvent {
    /// One-line event-log form: `stream3 token=42`, `stream3 finished:
    /// recovered`, … (benches and examples print these verbatim).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            EngineEvent::TokenEmitted { stream, token } => write!(f, "{stream} token={token}"),
            EngineEvent::FaultCorrected {
                stream,
                detected,
                repaired,
            } => write!(f, "{stream} corrected {repaired}/{detected}"),
            EngineEvent::CachePoisoned { stream, events } => {
                write!(f, "{stream} poisoned(events={events})")
            }
            EngineEvent::Recovering { stream, attempt } => {
                write!(f, "{stream} recovering(attempt={attempt})")
            }
            EngineEvent::EvictedBlocks { stream, blocks } => {
                write!(f, "{stream} evicted {blocks} blocks")
            }
            EngineEvent::Preempted { stream } => write!(f, "{stream} preempted"),
            EngineEvent::Resumed { stream } => write!(f, "{stream} resumed"),
            EngineEvent::Finished { stream, reason } => write!(f, "{stream} finished: {reason}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The continuous-batching scheduler.
// ---------------------------------------------------------------------------

/// Sizing knobs of a [`DecodeScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Slot-table width: streams decoded concurrently per sweep. Further
    /// submissions queue and are admitted as slots free up.
    pub max_active: usize,
    /// Maximum prompt tokens a prefilling stream feeds per sweep. Bounds
    /// how much one long prompt can delay every other stream's next token
    /// (the continuous-batching latency/throughput dial).
    pub prefill_chunk: usize,
    /// Admission by cache **bytes** instead of stream count: a pending
    /// stream is only admitted while the session's *committed* footprint
    /// projection fits the budget — the live bytes reported via
    /// [`DecodeScheduler::note_bytes`] plus every active and candidate
    /// stream's still-unmaterialized token budget (prompt +
    /// `max_new_tokens`, capped for a windowed stream by its window's
    /// resident bound, see [`DecodeScheduler::set_window_slack`]). This is an
    /// admission *throttle* over driver-supplied estimates, not a hard
    /// cap: the per-token estimate typically counts payload only (live
    /// totals also carry checksum metadata) and chunked prefill
    /// transiently overshoots the window bound, so the realised peak can
    /// exceed the configured figure — size it accordingly. One stream is
    /// always admitted when the slot table is empty, so the session can
    /// make progress under any budget. Requires
    /// [`set_bytes_per_token`](DecodeScheduler::set_bytes_per_token)
    /// (planning asserts it); `None` admits by slot count alone.
    pub memory_budget: Option<u64>,
    /// Allow [`plan`](DecodeScheduler::plan) to *park* the lowest-priority
    /// active stream (at most one per plan) when a strictly higher-class
    /// stream is blocked at the head of the run queue by a full slot table
    /// or the byte budget. Parking drops the stream's cache and requeues
    /// it; resumption replays its history through the bit-identical chunked
    /// re-prefill path. Off by default: pre-existing drivers see FIFO.
    pub preempt: bool,
    /// Deadline-aware aging: a queued stream is promoted one priority class
    /// per this many plan ticks of waiting (capped at
    /// [`Priority::Latency`]), so `Batch` work cannot starve behind a
    /// steady `Latency` arrival stream. `None` disables aging.
    pub priority_aging: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_active: 16,
            prefill_chunk: 16,
            memory_budget: None,
            preempt: false,
            priority_aging: None,
        }
    }
}

/// One generation stream's scheduling state: its request configuration,
/// token history, prefill progress, recovery accounting, and accumulated
/// per-stream fault report.
#[derive(Clone, Debug)]
pub struct StreamState {
    /// Stream identity.
    pub id: StreamId,
    /// The prompt as submitted.
    pub prompt: Vec<u32>,
    /// Tokens of the current prefill source (the leading prefill-length
    /// tokens of [`tokens`](StreamState::tokens) — the prompt on a fresh
    /// stream, the whole emitted history after a recovery) fed into the
    /// *current* cache so far. Reset to 0 by [`DecodeScheduler::requeue`].
    pub fed: usize,
    /// Tokens sampled so far.
    pub generated: Vec<u32>,
    /// Total token budget (prompt + generated); the stream retires when it
    /// is reached.
    pub max_total: usize,
    /// Per-stream sliding attention window, as resolved at submission.
    pub window: Option<usize>,
    /// Token selection rule.
    pub sampling: SamplingMode,
    /// Poisoned-cache recovery policy.
    pub recovery: RecoveryPolicy,
    /// Graded protection level of this stream's caches (from its
    /// [`GenerationRequest`]). Travels with the stream through parking,
    /// preemption, migration, and recovery: every cache rebuilt for the
    /// stream is created at this level.
    pub protection: ProtectionLevel,
    /// Re-prefill recovery *attempts* so far (every requeue counts — a
    /// stream that later aborts still carries the attempts it consumed;
    /// whether they ultimately succeeded is what
    /// [`finish`](StreamState::finish) reports).
    pub recoveries: u32,
    /// Why the stream retired (set at retirement; `None` while live).
    pub finish: Option<FinishReason>,
    /// The stream's one fault ledger: every sweep it took part in, every
    /// protected site, folded with [`FtReport::accumulate`]; it travels
    /// with the state through parking, recovery and migration.
    pub report: FtReport,
    /// Scheduling class, as resolved at submission.
    pub priority: Priority,
    /// Times this stream was parked (preemption or backpressure) and had
    /// to re-enter the run queue.
    pub preemptions: u32,
    /// Speculative-decode policy, as resolved at submission (`None` =
    /// plain decode).
    pub speculation: Option<SpeculationPolicy>,
    /// Provisional tokens drafted for this stream across every verify
    /// sweep (speculation efficiency numerator is
    /// [`spec_accepted`](StreamState::spec_accepted)).
    pub spec_drafted: u64,
    /// Drafted tokens that verified and were committed.
    pub spec_accepted: u64,
    /// History tokens scheduled for re-feeding by recovery requeues (full
    /// re-prefills count the whole history; partial re-prefills only the
    /// suffix past the truncation point — the measurable saving of
    /// [`RecoveryPolicy::ReprefillPartial`]).
    pub recovery_fed: usize,
    /// Leading tokens of [`tokens`](StreamState::tokens) treated as prefill
    /// for the current cache: the prompt length on a fresh submission, the
    /// whole emitted history after a recovery requeue.
    prefill_len: usize,
    /// A sweep for this stream has been planned but not yet recorded.
    inflight: bool,
    /// Plan tick at which the stream (re-)entered the run queue — the
    /// aging clock.
    queued_at: u64,
    /// The stream sits in the run queue because it was parked mid-decode
    /// (its cache is gone); re-admission surfaces a resume transition.
    parked: bool,
    /// The driver's one backpressure fact
    /// ([`DecodeScheduler::set_blocked`]): the consumer still owes a drain
    /// of events this stream already produced.
    blocked: bool,
    /// Consecutive verify sweeps that accepted zero drafts (the backoff
    /// clock of [`SpeculationPolicy::backoff_after`]).
    spec_zero_streak: u32,
    /// The zero-accept backoff tripped: this stream decodes plain from
    /// here on.
    spec_off: bool,
}

impl StreamState {
    /// Tokens held so far: prompt followed by sampled continuations.
    pub fn tokens(&self) -> Vec<u32> {
        let mut t = self.prompt.clone();
        t.extend_from_slice(&self.generated);
        t
    }

    /// True while prefill-source tokens remain to be fed into the current
    /// cache (covers both the initial prompt and a recovery re-prefill).
    pub fn prefilling(&self) -> bool {
        self.fed < self.prefill_len
    }

    /// Prompt + generated token count.
    pub fn total(&self) -> usize {
        self.prompt.len() + self.generated.len()
    }

    /// Tokens materialized in the stream's *current* cache (or committed
    /// to appear there imminently): what admission projections subtract
    /// from the stream's total budget. A recovery requeue resets this —
    /// the re-prefill really does re-materialize the history.
    fn materialized(&self) -> usize {
        self.fed + (self.total() - self.prefill_len)
    }

    fn done(&self) -> bool {
        self.total() >= self.max_total
    }

    /// The one park-victim filter (preemption, backpressure, export). A
    /// stream still mid-(re-)prefill is never a victim: parking it would
    /// discard every fed row before it sampled anything, so a perpetually
    /// outranked or blocked stream could be re-admitted and re-parked
    /// forever without emitting a token. Completing the prefill first pins
    /// at least one sampled token per admission cycle.
    fn parkable(&self) -> bool {
        !self.inflight && !self.done() && !self.prefilling()
    }

    fn finish_reason(&self) -> FinishReason {
        if self.recoveries > 0 {
            FinishReason::Recovered
        } else {
            FinishReason::MaxTokens
        }
    }
}

/// One stream's share of the next sweep.
#[derive(Clone, Debug)]
pub struct PlanItem {
    /// The stream to feed.
    pub stream: StreamId,
    /// Tokens to feed this sweep: a prefill chunk, or the single freshly
    /// sampled token of a decoding stream.
    pub feed: Vec<u32>,
    /// Whether the driver should sample a new token from the last fed
    /// row's logits and report it via [`DecodeScheduler::record`].
    pub sample: bool,
    /// The stream's sliding attention window (from its
    /// [`GenerationRequest`]): the driver applies it to storage eviction
    /// and to the sweep's [`StreamSlice::window`].
    pub window: Option<usize>,
    /// Trailing tokens of [`feed`](PlanItem::feed) that are *provisional*
    /// drafts (0 = plain decode / prefill). When set, the driver verifies
    /// them against the sweep's per-row logits, commits the accepted
    /// prefix plus the corrected/bonus token via
    /// [`DecodeScheduler::record_speculative`], and truncates the cache
    /// back to the committed length.
    pub speculate: usize,
    /// The stream's graded protection level: the driver applies it to any
    /// cache it creates for the stream this sweep (fresh admission or a
    /// recovery re-prefill).
    pub protection: ProtectionLevel,
}

/// Continuous-batching slot table: admits streams, plans one chunk per
/// active stream per sweep, and retires finished streams between sweeps.
///
/// See the [module docs](self) for the driver loop contract and a worked
/// example.
#[derive(Debug, Default)]
pub struct DecodeScheduler {
    cfg: SchedulerConfig,
    next_id: u64,
    active: Vec<StreamState>,
    pending: VecDeque<StreamState>,
    finished: Vec<StreamState>,
    /// Latest total cache footprint the driver reported (bytes).
    noted_bytes: u64,
    /// Driver-supplied estimate of cache bytes one token occupies (for
    /// projecting a pending stream's prompt cost at admission time).
    bytes_per_token: u64,
    /// Driver-supplied slack (in rows) added to a stream's window when
    /// deriving its per-stream projection cap — block-granular eviction
    /// keeps up to one extra block resident, so the driver passes the
    /// cache block size here.
    window_slack: usize,
    /// Plan counter — the aging clock ticks once per [`plan`] call.
    ///
    /// [`plan`]: DecodeScheduler::plan
    tick: u64,
    /// Streams parked since the last [`drain_parked`]
    /// (driver must drop their caches).
    ///
    /// [`drain_parked`]: DecodeScheduler::drain_parked
    parked_log: Vec<StreamId>,
    /// Previously parked streams re-admitted since the last
    /// [`drain_resumed`].
    ///
    /// [`drain_resumed`]: DecodeScheduler::drain_resumed
    resumed_log: Vec<StreamId>,
}

impl DecodeScheduler {
    /// Empty scheduler with the given sizing.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(cfg.max_active > 0 && cfg.prefill_chunk > 0);
        DecodeScheduler {
            cfg,
            ..Default::default()
        }
    }

    /// Queue a typed [`GenerationRequest`]. The stream joins the slot
    /// table at the next [`plan`] with a free slot — mid-flight, without
    /// stalling streams already decoding.
    ///
    /// [`plan`]: DecodeScheduler::plan
    pub fn submit_request(&mut self, req: GenerationRequest) -> StreamId {
        let id = StreamId(self.next_id);
        self.submit_request_with_id(req, id)
    }

    /// [`submit_request`](DecodeScheduler::submit_request) with a
    /// caller-chosen [`StreamId`] — the serving loop allocates ids on the
    /// submitting thread (so a handle knows its id before the worker sees
    /// the request) and must be able to replay them here in whatever order
    /// the submission channel delivers. Panics if `id` is already known to
    /// the scheduler.
    pub fn submit_request_with_id(&mut self, req: GenerationRequest, id: StreamId) -> StreamId {
        assert!(!req.prompt.is_empty(), "a stream needs at least one token");
        assert!(
            req.window != Some(0),
            "a zero-row window cannot serve decode"
        );
        let known = self
            .active
            .iter()
            .chain(self.pending.iter())
            .chain(self.finished.iter())
            .any(|s| s.id == id);
        assert!(!known, "{id} is already submitted");
        self.next_id = self.next_id.max(id.0 + 1);
        let prefill_len = req.prompt.len();
        let max_total = prefill_len + req.max_new_tokens;
        self.pending.push_back(StreamState {
            id,
            prompt: req.prompt,
            fed: 0,
            generated: Vec::new(),
            max_total,
            window: req.window,
            sampling: req.sampling,
            recovery: req.recovery,
            protection: req.protection,
            recoveries: 0,
            finish: None,
            report: FtReport::default(),
            priority: req.priority,
            preemptions: 0,
            speculation: req.speculation,
            spec_drafted: 0,
            spec_accepted: 0,
            recovery_fed: 0,
            prefill_len,
            inflight: false,
            queued_at: self.tick,
            parked: false,
            blocked: false,
            spec_zero_streak: 0,
            spec_off: false,
        });
        id
    }

    /// The live (slot-holding) state of `stream`, if it is active.
    pub fn active_stream(&self, stream: StreamId) -> Option<&StreamState> {
        self.active.iter().find(|s| s.id == stream)
    }

    /// Report the session's current total cache footprint in bytes (the
    /// driver calls this before each [`plan`](DecodeScheduler::plan)); the
    /// memory-budget admission policy compares it — plus per-prompt
    /// estimates — against [`SchedulerConfig::memory_budget`].
    pub fn note_bytes(&mut self, bytes: u64) {
        self.noted_bytes = bytes;
    }

    /// Supply the per-token cache-byte estimate used to project a pending
    /// stream's prompt cost at admission time (the driver knows the model
    /// geometry; the scheduler deliberately does not).
    pub fn set_bytes_per_token(&mut self, bytes: u64) {
        self.bytes_per_token = bytes;
    }

    /// Rows added to a windowed stream's window to cap the token count of
    /// its admission projection: its resident footprint is bounded by
    /// roughly `window + cache_block` rows however long its prompt, so
    /// projecting the full prompt length would over-throttle admission
    /// (block-granular eviction keeps up to one extra block resident; the
    /// driver passes the cache block size).
    pub fn set_window_slack(&mut self, rows: usize) {
        self.window_slack = rows;
    }

    /// Plan the next sweep: sort the run queue by effective priority
    /// (class plus deadline-aware aging, FIFO within a class), park at most
    /// one active stream to make room for the stream heading the queue,
    /// admit pending streams into free slots (gated by
    /// [`SchedulerConfig::memory_budget`] when set), retire streams whose
    /// budget is already met, and hand every active stream its next chunk
    /// (marking it in-flight until [`record`]ed).
    ///
    /// This is the only place a stream's lifecycle is decided. A stream
    /// reported [blocked](DecodeScheduler::set_blocked) finishes a prefill
    /// it has started but is not fed a sampling sweep; it is not admitted
    /// (blocked streams sort behind unblocked ones and admission stops at
    /// the first); and it is the first park victim — ahead of class, with
    /// or without [`SchedulerConfig::preempt`] — when an unblocked stream
    /// heads the queue and cannot be admitted for slots or bytes. So no
    /// stream is re-admitted while its consumer owes a drain, and what a
    /// stream emits between two drains is bounded by one admission cycle.
    ///
    /// An empty plan means the scheduler is [`idle`](DecodeScheduler::idle),
    /// every active stream is awaiting its record, or every stream is
    /// blocked.
    ///
    /// [`record`]: DecodeScheduler::record
    pub fn plan(&mut self) -> Vec<PlanItem> {
        self.tick += 1;
        // Project the footprint each stream is *committed* to, not just
        // what is materialized: noted bytes cover rows already in cache,
        // and every stream — active or candidate — will keep appending up
        // to its total token budget (prompt + max_new_tokens, capped by
        // the sliding window's resident bound when one is set). Without
        // the active-remainder term, a stream mid-prefill would hide its
        // outstanding prompt bytes from later plans and the session could
        // overshoot the budget once prefill completes.
        assert!(
            self.cfg.memory_budget.is_none() || self.bytes_per_token > 0,
            "memory_budget admission needs set_bytes_per_token (and note_bytes \
             each sweep) — with a zero per-token estimate the budget is inert"
        );
        let slack = self.window_slack;
        let bpt = self.bytes_per_token;
        let remainder = |s: &StreamState| {
            // Per-stream cap from the request's own window; full-attention
            // streams project their whole budget.
            let cap = s.window.map_or(usize::MAX, |w| w + slack);
            let target = s.max_total.min(cap);
            let materialized = s.materialized().min(cap);
            target.saturating_sub(materialized) as u64 * bpt
        };
        // Run-queue order: unblocked before blocked, then effective (aged)
        // priority, submission order within a class.
        let aging = self.cfg.priority_aging;
        let tick = self.tick;
        let score =
            |s: &StreamState| aged_score(s.priority, tick.saturating_sub(s.queued_at), aging);
        self.pending.make_contiguous().sort_by(|a, b| {
            (a.blocked.cmp(&b.blocked))
                .then(score(b).cmp(&score(a)))
                .then(a.id.cmp(&b.id))
        });
        let mut projected = self.noted_bytes + self.active.iter().map(remainder).sum::<u64>();
        // Park one stream when the (unblocked) head of the run queue cannot
        // be admitted — slot table full, or the byte budget exhausted — so
        // it gets its slot *this* plan: a blocked stream if there is one,
        // else, under `cfg.preempt`, the weakest stream the head strictly
        // outranks — lowest class, least progress to throw away, newest
        // submission. At most one park per plan keeps the table from
        // thrashing under a burst; `parkable` keeps park/resume from
        // livelocking.
        let front = self.pending.front().filter(|s| !s.blocked);
        if let Some((front_score, front_cost)) = front.map(|s| (score(s), remainder(s))) {
            let slots_full = self.active.len() >= self.cfg.max_active;
            let budget_blocked = match self.cfg.memory_budget {
                None => false,
                Some(b) => !self.active.is_empty() && projected + front_cost > b,
            };
            if slots_full || budget_blocked {
                let victim = self
                    .active
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.parkable())
                    .min_by_key(|(_, s)| (!s.blocked, s.priority, s.materialized(), Reverse(s.id)))
                    .map(|(i, _)| i);
                if let Some(i) = victim {
                    let v = &self.active[i];
                    if v.blocked || (self.cfg.preempt && (v.priority as u64) < front_score) {
                        projected = projected.saturating_sub(remainder(v));
                        self.park_index(i);
                    }
                }
            }
        }
        while self.active.len() < self.cfg.max_active {
            let Some(next) = self.pending.front().filter(|s| !s.blocked) else {
                break;
            };
            let cost = remainder(next);
            let fits = match self.cfg.memory_budget {
                None => true,
                // Always admit into an empty slot table: a budget smaller
                // than one stream must throttle, not deadlock.
                Some(b) => self.active.is_empty() || projected + cost <= b,
            };
            if !fits {
                break;
            }
            projected += cost;
            let mut s = self.pending.pop_front().expect("front checked above");
            if s.parked {
                s.parked = false;
                self.resumed_log.push(s.id);
            }
            self.active.push(s);
        }
        // Retire zero-budget streams (max_new_tokens == 0) without feeding.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].done() && !self.active[i].inflight {
                let mut s = self.active.remove(i);
                s.finish = Some(s.finish_reason());
                self.finished.push(s);
            } else {
                i += 1;
            }
        }
        let chunk = self.cfg.prefill_chunk;
        let mut items = Vec::new();
        for s in &mut self.active {
            if s.inflight || (s.blocked && !s.prefilling()) {
                continue;
            }
            let (feed, sample, speculate) = if s.prefilling() {
                // Prefill source: the leading `prefill_len` tokens of the
                // history — the prompt on a fresh stream, prompt + emitted
                // tokens after a recovery requeue.
                let src = s.tokens();
                let n = (s.prefill_len - s.fed).min(chunk);
                let feed = src[s.fed..s.fed + n].to_vec();
                s.fed += n;
                (feed, s.fed == s.prefill_len, 0)
            } else {
                let t = *s
                    .generated
                    .last()
                    .expect("a decoding stream has sampled at least once");
                let mut feed = vec![t];
                let mut speculate = 0;
                if let Some(sp) = &s.speculation {
                    if !s.spec_off {
                        // A verify sweep commits at most `speculate + 1`
                        // tokens (accepted prefix + bonus), so clamp the
                        // draft to the remaining budget.
                        let remaining = s.max_total - s.total();
                        speculate = sp.draft_len.min(remaining.saturating_sub(1));
                        if speculate > 0 {
                            feed.extend(draft_tokens(
                                &sp.source,
                                &s.tokens(),
                                s.generated.len(),
                                speculate,
                            ));
                        }
                    }
                }
                (feed, true, speculate)
            };
            s.inflight = true;
            items.push(PlanItem {
                stream: s.id,
                feed,
                sample,
                window: s.window,
                speculate,
                protection: s.protection,
            });
        }
        items
    }

    /// Record the result of a planned sweep for one stream: the sampled
    /// token (if its plan item asked for one) and the sweep's per-stream
    /// fault report. Retires the stream once its budget is met
    /// ([`FinishReason::MaxTokens`], or [`FinishReason::Recovered`] when it
    /// came back from a re-prefill).
    pub fn record(&mut self, stream: StreamId, sampled: Option<u32>, report: &FtReport) {
        match sampled {
            Some(t) => self.record_speculative(stream, &[t], 0, 0, report),
            None => self.record_speculative(stream, &[], 0, 0, report),
        }
    }

    /// Multi-token variant of [`record`](DecodeScheduler::record) for a
    /// speculative verify sweep: `emitted` is the committed token run (the
    /// accepted draft prefix plus the corrected/bonus token), `drafted`
    /// how many provisional tokens the plan speculated, `accepted` how
    /// many of them verified. Tracks the per-stream draft-efficiency
    /// counters ([`StreamState::spec_drafted`] /
    /// [`StreamState::spec_accepted`]) and the zero-accept backoff streak
    /// of [`SpeculationPolicy::backoff_after`].
    pub fn record_speculative(
        &mut self,
        stream: StreamId,
        emitted: &[u32],
        drafted: usize,
        accepted: usize,
        report: &FtReport,
    ) {
        let idx = self.active_index(stream);
        let s = &mut self.active[idx];
        assert!(s.inflight, "{stream}: record without a planned sweep");
        debug_assert!(accepted <= drafted, "cannot accept more than was drafted");
        s.inflight = false;
        s.report.accumulate(report);
        s.generated.extend_from_slice(emitted);
        if drafted > 0 {
            s.spec_drafted += drafted as u64;
            s.spec_accepted += accepted as u64;
            if accepted == 0 {
                s.spec_zero_streak += 1;
                if let Some(limit) = s.speculation.as_ref().and_then(|sp| sp.backoff_after) {
                    if s.spec_zero_streak >= limit {
                        s.spec_off = true;
                    }
                }
            } else {
                s.spec_zero_streak = 0;
            }
        }
        if s.done() {
            s.finish = Some(s.finish_reason());
            self.finished.push(self.active.remove(idx));
        }
    }

    /// Recovery requeue (instead of [`record`](DecodeScheduler::record)):
    /// the engine found the stream's attended cache poisoned this sweep,
    /// discarded whatever the sweep produced (a token sampled over damaged
    /// state must not enter the history), and dropped the stream's cache.
    /// The stream keeps its slot; its whole emitted history — prompt plus
    /// every *previously* recorded token — becomes the new prefill source,
    /// so the next plans feed it back through chunked prefill and decode
    /// resumes where it left off. Returns the 1-based attempt number.
    ///
    /// The sweep's fault ledger is still folded in: the detection that
    /// triggered the recovery is part of the stream's history.
    pub fn requeue(&mut self, stream: StreamId, report: &FtReport) -> u32 {
        self.requeue_suffix(stream, report, 0)
    }

    /// Partial-recovery variant of [`requeue`](DecodeScheduler::requeue):
    /// the engine rolled the stream's cache back to `keep` rows (a clean
    /// block boundary before the first poisoned attended block — see
    /// [`RecoveryPolicy::ReprefillPartial`]), so only the history suffix
    /// `keep..` needs re-feeding; the kept prefix stays materialized.
    /// `keep = 0` is exactly the full requeue. Returns the 1-based attempt
    /// number.
    pub fn requeue_suffix(&mut self, stream: StreamId, report: &FtReport, keep: usize) -> u32 {
        let idx = self.active_index(stream);
        let s = &mut self.active[idx];
        assert!(s.inflight, "{stream}: requeue without a planned sweep");
        assert!(
            keep <= s.total(),
            "cannot keep more rows than the history holds"
        );
        s.inflight = false;
        s.report.accumulate(report);
        s.fed = keep;
        s.prefill_len = s.total();
        s.recovery_fed += s.prefill_len - keep;
        s.recoveries += 1;
        s.recoveries
    }

    /// Park an active stream: give up its slot, drop the materialized-cache
    /// claim (the driver must drop the cache itself — see
    /// [`drain_parked`](DecodeScheduler::drain_parked)), and requeue it
    /// with its emitted history as the new prefill source, exactly like a
    /// recovery [`requeue`](DecodeScheduler::requeue) but without touching
    /// the recovery accounting. Resumption replays the history through
    /// chunked re-prefill, which is bit-identical to the uninterrupted run
    /// under deterministic sampling.
    ///
    /// Returns `false` (a no-op) when the stream is not active, is awaiting
    /// its [`record`](DecodeScheduler::record), or is already done. For
    /// drivers that stage a park themselves; the serving loop leaves victims
    /// to [`plan`](DecodeScheduler::plan) and [`export`](DecodeScheduler::export).
    pub fn park(&mut self, stream: StreamId) -> bool {
        let Some(i) = self.active.iter().position(|s| s.id == stream) else {
            return false;
        };
        if self.active[i].inflight || self.active[i].done() {
            return false;
        }
        self.park_index(i);
        true
    }

    fn park_index(&mut self, i: usize) {
        let mut s = self.active.remove(i);
        s.fed = 0;
        s.prefill_len = s.total();
        s.preemptions += 1;
        s.parked = true;
        s.queued_at = self.tick;
        self.parked_log.push(s.id);
        self.pending.push_back(s);
    }

    /// The driver's one backpressure fact about a stream: whether its
    /// consumer still owes a drain of events it already produced.
    /// [`plan`](DecodeScheduler::plan) owns every consequence. A no-op for
    /// a stream that is neither active nor queued.
    pub fn set_blocked(&mut self, stream: StreamId, blocked: bool) {
        let mut live = self.active.iter_mut().chain(self.pending.iter_mut());
        if let Some(s) = live.find(|s| s.id == stream) {
            s.blocked = blocked;
        }
    }

    /// Streams parked (preempted) since the last drain. The driver must
    /// drop each stream's cache — the scheduler has already reset its
    /// prefill bookkeeping to replay the full history.
    pub fn drain_parked(&mut self) -> Vec<StreamId> {
        std::mem::take(&mut self.parked_log)
    }

    /// Previously parked streams re-admitted since the last drain (their
    /// re-prefill starts with the next planned chunk).
    pub fn drain_resumed(&mut self) -> Vec<StreamId> {
        std::mem::take(&mut self.resumed_log)
    }

    /// Abort an active stream (recovery budget exhausted): merge the final
    /// sweep's report and retire it immediately with `reason`.
    pub fn abort(&mut self, stream: StreamId, report: &FtReport, reason: FinishReason) {
        let idx = self.active_index(stream);
        let s = &mut self.active[idx];
        s.inflight = false;
        s.report.accumulate(report);
        s.finish = Some(reason);
        self.finished.push(self.active.remove(idx));
    }

    fn active_index(&self, stream: StreamId) -> usize {
        self.active
            .iter()
            .position(|s| s.id == stream)
            .unwrap_or_else(|| panic!("{stream} is not active"))
    }

    /// True when no stream is active or queued (finished streams may still
    /// await [`take_finished`](DecodeScheduler::take_finished)).
    pub fn idle(&self) -> bool {
        self.active.is_empty() && self.pending.is_empty()
    }

    /// Streams currently holding slots.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Streams queued for a free slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drain the retired streams (token history + per-stream fault report).
    pub fn take_finished(&mut self) -> Vec<StreamState> {
        std::mem::take(&mut self.finished)
    }

    /// Give one stream away to [`adopt_pending`](DecodeScheduler::adopt_pending)
    /// elsewhere (work migration): the last unblocked stream of the run
    /// queue — it holds no cache — else the newest active stream that
    /// [`plan`](DecodeScheduler::plan) could park, parked first (so it shows
    /// in [`drain_parked`](DecodeScheduler::drain_parked)). Never a blocked
    /// stream: the adopting shard could not feed it either.
    pub fn export(&mut self) -> Option<StreamState> {
        if let Some(i) = self.pending.iter().rposition(|s| !s.blocked) {
            return self.pending.remove(i);
        }
        let i = self
            .active
            .iter()
            .rposition(|s| s.parkable() && !s.blocked)?;
        self.park_index(i);
        self.pending.pop_back()
    }

    /// Remove a *pending* stream so another scheduler can adopt it (work
    /// migration between shards). Only queued streams can be extracted —
    /// an active stream must be [`park`](DecodeScheduler::park)ed first,
    /// which resets its prefill bookkeeping so the whole emitted history
    /// replays through chunked re-prefill on the adopting shard. The
    /// extracted state carries every ledger (tokens, recoveries,
    /// preemptions, speculation counters, fault report), so attribution
    /// follows the stream. Returns `None` when the stream is not pending.
    pub fn extract_pending(&mut self, stream: StreamId) -> Option<StreamState> {
        let i = self.pending.iter().position(|s| s.id == stream)?;
        self.pending.remove(i)
    }

    /// Adopt a stream extracted from another scheduler (the receiving half
    /// of [`extract_pending`](DecodeScheduler::extract_pending)). The id
    /// must be unknown here — fleet-wide unique ids are the router's job —
    /// and the local id allocator is bumped past it so local submissions
    /// can never collide. Queue aging restarts on the local tick; if the
    /// stream was parked on the donor, its re-admission here still logs a
    /// resume.
    pub fn adopt_pending(&mut self, mut s: StreamState) {
        let id = s.id;
        assert!(
            !self.active.iter().any(|a| a.id == id)
                && !self.pending.iter().any(|p| p.id == id)
                && !self.finished.iter().any(|f| f.id == id),
            "{id} already known to this scheduler"
        );
        self.next_id = self.next_id.max(id.0 + 1);
        s.queued_at = self.tick;
        self.pending.push_back(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::normal_tensor_f16;

    fn filled_cache(tokens: usize, seed: u64) -> KvCache {
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        for t in 0..tokens {
            let k = normal_tensor_f16(seed + t as u64, 1, 2, 1, 16, 0.6);
            let v = normal_tensor_f16(seed + 500 + t as u64, 1, 2, 1, 16, 0.8);
            cache.append(&k, &v);
        }
        cache
    }

    #[test]
    fn sweep_matches_independent_decode_per_stream() {
        use crate::decode::{efta_decode, DecodeRequest};
        // Three streams at ragged, different lengths, single-row chunks.
        let caches = [
            filled_cache(5, 100),
            filled_cache(12, 200),
            filled_cache(21, 300),
        ];
        let qs: Vec<_> = (0..3)
            .map(|i| normal_tensor_f16(900 + i, 1, 2, 1, 16, 0.6))
            .collect();
        let slices: Vec<StreamSlice> = caches
            .iter()
            .zip(&qs)
            .enumerate()
            .map(|(i, (cache, q))| StreamSlice {
                stream: StreamId(i as u64),
                cache,
                q,
                window: None,
            })
            .collect();
        let opts = EftaOptions::optimized();
        let outs = sweep_efta(&slices, &ft_sim::NoFaults, None, &opts).unwrap();
        for (i, out) in outs.iter().enumerate() {
            let want = efta_decode(&DecodeRequest::new(&caches[i], &qs[i]), &opts).unwrap();
            assert_eq!(
                out.o.max_abs_diff(&want.o),
                0.0,
                "stream {i}: sweep output diverged from independent decode"
            );
            assert!(out.report.clean());
        }
    }

    #[test]
    fn chunked_prefill_rows_match_incremental_steps() {
        use crate::decode::{efta_decode, DecodeRequest};
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
        let opts = EftaOptions::optimized();
        let out = &sweep_efta(&slices, &ft_sim::NoFaults, None, &opts).unwrap()[0];
        assert!(out.report.clean());
        for (r, (kr, (vr, qr))) in k_rows.iter().zip(v_rows.iter().zip(&q_rows)).enumerate() {
            incremental.append(kr, vr);
            let want = efta_decode(&DecodeRequest::new(&incremental, qr), &opts).unwrap();
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
    fn scheduler_admits_feeds_and_retires() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 2,
            prefill_chunk: 3,
            ..Default::default()
        });
        let a = sched.submit_request(GenerationRequest::new(vec![1, 2, 3, 4], 2));
        let b = sched.submit_request(GenerationRequest::new(vec![5], 1));
        // Queued: only 2 slots.
        let c = sched.submit_request(GenerationRequest::new(vec![6, 7], 1));

        let plan = sched.plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(sched.pending_len(), 1, "C must wait for a free slot");
        assert_eq!((plan[0].stream, plan[0].feed.clone()), (a, vec![1, 2, 3]));
        assert!(!plan[0].sample);
        assert_eq!((plan[1].stream, plan[1].feed.clone()), (b, vec![5]));
        assert!(plan[1].sample);
        // Planning again while in-flight hands out nothing.
        assert!(sched.plan().is_empty());

        sched.record(a, None, &FtReport::default());
        sched.record(b, Some(50), &FtReport::default());
        // B is done (1 of 1); C is admitted into its slot.
        assert_eq!(sched.take_finished().len(), 1);
        let plan = sched.plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].feed, vec![4]);
        assert!(plan[0].sample, "A's prompt is now exhausted");
        assert_eq!((plan[1].stream, plan[1].feed.clone()), (c, vec![6, 7]));

        sched.record(a, Some(90), &FtReport::default());
        sched.record(c, Some(60), &FtReport::default());
        // A needs one more token; C is done.
        let plan = sched.plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].feed, vec![90], "A feeds its sampled token");
        sched.record(a, Some(91), &FtReport::default());
        assert!(sched.idle());
        let done = sched.take_finished();
        assert_eq!(done.len(), 2);
        let a_state = done.iter().find(|s| s.id == a).unwrap();
        assert_eq!(a_state.tokens(), vec![1, 2, 3, 4, 90, 91]);
    }

    #[test]
    fn stream_id_display_names_streams() {
        assert_eq!(StreamId(0).to_string(), "stream0");
        assert_eq!(format!("{}", StreamId(42)), "stream42");
    }

    #[test]
    fn requeue_replays_prompt_plus_emitted_tokens_then_resumes() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 2,
            prefill_chunk: 3,
            ..Default::default()
        });
        let a = sched.submit_request(
            GenerationRequest::new(vec![1, 2, 3], 3)
                .with_window(8)
                .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 2 }),
        );
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![1, 2, 3]);
        assert_eq!(plan[0].window, Some(8), "plan items carry the window");
        assert!(plan[0].sample);
        sched.record(a, Some(10), &FtReport::default());
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![10]);
        sched.record(a, Some(11), &FtReport::default());
        // Poison discovered in the next sweep: the engine requeues instead
        // of recording — the token sampled over damaged state is discarded.
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![11]);
        assert_eq!(sched.requeue(a, &FtReport::default()), 1);
        assert_eq!(sched.active_stream(a).unwrap().recoveries, 1);
        // Re-prefill: prompt plus both *recorded* tokens, in chunks.
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![1, 2, 3]);
        assert!(!plan[0].sample);
        sched.record(a, None, &FtReport::default());
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![10, 11]);
        assert!(
            plan[0].sample,
            "the re-prefill tail re-samples the discarded position"
        );
        sched.record(a, Some(12), &FtReport::default());
        assert!(sched.idle());
        let done = sched.take_finished();
        assert_eq!(done[0].tokens(), vec![1, 2, 3, 10, 11, 12]);
        assert_eq!(done[0].finish, Some(FinishReason::Recovered));
        assert_eq!(done[0].recoveries, 1);
    }

    #[test]
    fn abort_retires_immediately_with_the_given_reason() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let a = sched.submit_request(
            GenerationRequest::new(vec![1, 2], 5)
                .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 1 }),
        );
        let plan = sched.plan();
        assert_eq!(plan.len(), 1);
        sched.abort(
            a,
            &FtReport::default(),
            FinishReason::AbortedPoisoned { attempts: 1 },
        );
        assert!(sched.idle());
        let done = sched.take_finished();
        assert_eq!(
            done[0].finish,
            Some(FinishReason::AbortedPoisoned { attempts: 1 })
        );
        assert_eq!(done[0].tokens(), vec![1, 2], "no token was recorded");
    }

    #[test]
    fn budget_met_without_recovery_finishes_max_tokens() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let a = sched.submit_request(GenerationRequest::new(vec![5, 6], 1));
        let plan = sched.plan();
        assert_eq!(plan[0].window, None);
        sched.record(a, Some(7), &FtReport::default());
        let done = sched.take_finished();
        assert_eq!(done[0].finish, Some(FinishReason::MaxTokens));
        assert_eq!(done[0].recoveries, 0);
    }

    #[test]
    fn per_stream_windows_cap_admission_projections() {
        // Three 40-token prompts, each with its *own* 2-row window: the
        // per-stream cap (window + slack) bounds the projection, so all
        // three fit a budget the raw prompt lengths would blow through.
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 4,
            prefill_chunk: 4,
            memory_budget: Some(100),
            ..Default::default()
        });
        sched.set_bytes_per_token(10);
        sched.set_window_slack(1);
        for _ in 0..3 {
            sched.submit_request(GenerationRequest::new(vec![0; 40], 1).with_window(2));
        }
        let plan = sched.plan();
        assert_eq!(
            plan.len(),
            3,
            "window-capped projections (3 × 30 bytes) all fit"
        );
    }

    #[test]
    fn memory_budget_gates_admission_by_bytes_not_stream_count() {
        // Each stream commits to 6 tokens total (4 prompt + 2 new) at 10
        // bytes/token: a 130-byte budget holds two streams, not three —
        // even though the slot table has room for all of them.
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 8,
            prefill_chunk: 4,
            memory_budget: Some(130),
            ..Default::default()
        });
        sched.set_bytes_per_token(10);
        let a = sched.submit_request(GenerationRequest::new(vec![1, 2, 3, 4], 2));
        let b = sched.submit_request(GenerationRequest::new(vec![5, 6, 7, 8], 2));
        let c = sched.submit_request(GenerationRequest::new(vec![9, 10, 11, 12], 2));
        let plan = sched.plan();
        assert_eq!(plan.len(), 2, "slots are free but the budget is not");
        assert_eq!(plan[0].stream, a);
        assert_eq!(plan[1].stream, b);
        assert_eq!(sched.pending_len(), 1);
        sched.record(a, Some(40), &FtReport::default());
        sched.record(b, Some(50), &FtReport::default());
        // Ten tokens now sit in cache, and A/B are each still committed
        // to one more: 100 noted + 20 remainder + 60 for C > 130.
        sched.note_bytes(100);
        let plan = sched.plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(sched.pending_len(), 1, "C still waits");
        // A and B retire this sweep; the driver reports the reclaimed
        // bytes and C is finally admitted.
        sched.record(a, Some(41), &FtReport::default());
        sched.record(b, Some(51), &FtReport::default());
        assert_eq!(sched.take_finished().len(), 2);
        sched.note_bytes(0);
        let plan = sched.plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].stream, c);
    }

    #[test]
    fn tiny_budget_still_admits_one_stream() {
        // A budget below any single stream's footprint throttles to one
        // stream at a time instead of deadlocking.
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 4,
            prefill_chunk: 8,
            memory_budget: Some(1),
            ..Default::default()
        });
        sched.set_bytes_per_token(1000);
        sched.submit_request(GenerationRequest::new(vec![1, 2], 0));
        sched.submit_request(GenerationRequest::new(vec![3, 4], 0));
        // Zero-budget streams retire at plan time; both must drain even
        // though neither "fits".
        while !sched.idle() {
            let plan = sched.plan();
            for item in plan {
                sched.record(item.stream, None, &FtReport::default());
            }
        }
        assert_eq!(sched.take_finished().len(), 2);
    }

    #[test]
    fn zero_budget_stream_retires_without_feeding() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let id = sched.submit_request(GenerationRequest::new(vec![1, 2], 0));
        assert!(sched.plan().is_empty());
        assert!(sched.idle());
        let done = sched.take_finished();
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].tokens(), vec![1, 2]);
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
        let outs = sweep_efta(&slices, &ft_sim::NoFaults, None, &EftaOptions::optimized()).unwrap();
        assert!(outs[0].report.clean(), "{:?}", outs[0].report);
        assert_eq!(outs[1].stream, StreamId(7));
        assert!(outs[1].report.cache_detected > 0, "{:?}", outs[1].report);
        assert!(outs[1].report.cache_corrected > 0);
    }

    #[test]
    fn display_impls_render_one_line_event_logs() {
        assert_eq!(Priority::Latency.to_string(), "latency");
        assert_eq!(Priority::Normal.to_string(), "normal");
        assert_eq!(Priority::Batch.to_string(), "batch");
        assert_eq!(FinishReason::MaxTokens.to_string(), "max-tokens");
        assert_eq!(FinishReason::Recovered.to_string(), "recovered");
        assert_eq!(
            FinishReason::AbortedPoisoned { attempts: 2 }.to_string(),
            "aborted-poisoned(attempts=2)"
        );
        let s = StreamId(3);
        assert_eq!(
            EngineEvent::TokenEmitted {
                stream: s,
                token: 42
            }
            .to_string(),
            "stream3 token=42"
        );
        assert_eq!(
            EngineEvent::FaultCorrected {
                stream: s,
                detected: 4,
                repaired: 3
            }
            .to_string(),
            "stream3 corrected 3/4"
        );
        assert_eq!(
            EngineEvent::CachePoisoned {
                stream: s,
                events: 1
            }
            .to_string(),
            "stream3 poisoned(events=1)"
        );
        assert_eq!(
            EngineEvent::Recovering {
                stream: s,
                attempt: 1
            }
            .to_string(),
            "stream3 recovering(attempt=1)"
        );
        assert_eq!(
            EngineEvent::EvictedBlocks {
                stream: s,
                blocks: 2
            }
            .to_string(),
            "stream3 evicted 2 blocks"
        );
        assert_eq!(
            EngineEvent::Preempted { stream: s }.to_string(),
            "stream3 preempted"
        );
        assert_eq!(
            EngineEvent::Resumed { stream: s }.to_string(),
            "stream3 resumed"
        );
        assert_eq!(
            EngineEvent::Finished {
                stream: s,
                reason: FinishReason::Recovered
            }
            .to_string(),
            "stream3 finished: recovered"
        );
    }

    #[test]
    fn priority_orders_batch_below_normal_below_latency() {
        assert!(Priority::Batch < Priority::Normal);
        assert!(Priority::Normal < Priority::Latency);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn run_queue_admits_by_priority_class_not_arrival_order() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 1,
            prefill_chunk: 8,
            ..Default::default()
        });
        let batch =
            sched.submit_request(GenerationRequest::new(vec![1], 1).with_priority(Priority::Batch));
        let lat = sched
            .submit_request(GenerationRequest::new(vec![2], 1).with_priority(Priority::Latency));
        let norm = sched.submit_request(GenerationRequest::new(vec![3], 1));
        // Latency jumps the earlier Batch and Normal submissions.
        let plan = sched.plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].stream, lat);
        sched.record(lat, Some(9), &FtReport::default());
        let plan = sched.plan();
        assert_eq!(plan[0].stream, norm);
        sched.record(norm, Some(9), &FtReport::default());
        let plan = sched.plan();
        assert_eq!(plan[0].stream, batch);
    }

    #[test]
    fn aging_promotes_a_starved_batch_stream() {
        // One slot, aging after 2 ticks: the Batch stream out-waits a
        // steady supply of fresh Normal arrivals instead of starving.
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 1,
            prefill_chunk: 8,
            priority_aging: Some(2),
            ..Default::default()
        });
        let batch =
            sched.submit_request(GenerationRequest::new(vec![1], 4).with_priority(Priority::Batch));
        for fresh_normals in 0..6 {
            let n = sched.submit_request(GenerationRequest::new(vec![2], 1));
            let plan = sched.plan();
            assert_eq!(plan.len(), 1);
            if plan[0].stream == batch {
                // Aged past Normal: promotion beat the fresh arrival.
                assert!(fresh_normals >= 1, "promoted after waiting, not instantly");
                return;
            }
            sched.record(n, Some(9), &FtReport::default());
        }
        panic!("the Batch stream starved behind fresh Normal arrivals");
    }

    #[test]
    fn preemption_parks_the_weakest_active_stream_for_a_latency_arrival() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 1,
            prefill_chunk: 8,
            preempt: true,
            ..Default::default()
        });
        let batch = sched
            .submit_request(GenerationRequest::new(vec![1, 2], 4).with_priority(Priority::Batch));
        // Prefill + two decoded tokens.
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![1, 2]);
        sched.record(batch, Some(10), &FtReport::default());
        sched.plan();
        sched.record(batch, Some(11), &FtReport::default());
        // A Latency arrival finds the slot table full: the Batch stream is
        // parked (cache claim dropped, history kept) in the same plan.
        let lat = sched
            .submit_request(GenerationRequest::new(vec![7], 1).with_priority(Priority::Latency));
        let plan = sched.plan();
        assert_eq!(sched.drain_parked(), vec![batch]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].stream, lat);
        sched.record(lat, Some(20), &FtReport::default());
        assert_eq!(sched.take_finished().len(), 1);
        // The parked stream resumes: its whole emitted history replays as
        // prefill, then decode continues where it left off.
        let plan = sched.plan();
        assert_eq!(sched.drain_resumed(), vec![batch]);
        assert_eq!(plan[0].stream, batch);
        assert_eq!(plan[0].feed, vec![1, 2, 10, 11]);
        assert!(
            plan[0].sample,
            "re-prefill tail re-samples the next position"
        );
        sched.record(batch, Some(12), &FtReport::default());
        sched.plan();
        sched.record(batch, Some(13), &FtReport::default());
        assert!(sched.idle());
        let done = sched.take_finished();
        assert_eq!(done[0].tokens(), vec![1, 2, 10, 11, 12, 13]);
        assert_eq!(done[0].preemptions, 1);
        assert_eq!(
            done[0].finish,
            Some(FinishReason::MaxTokens),
            "preemption is not a fault: no Recovered reason"
        );
    }

    #[test]
    fn preemption_never_fires_without_a_strictly_higher_class() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 1,
            prefill_chunk: 8,
            preempt: true,
            ..Default::default()
        });
        let first = sched.submit_request(GenerationRequest::new(vec![1], 4));
        sched.plan();
        sched.record(first, Some(10), &FtReport::default());
        sched.submit_request(GenerationRequest::new(vec![2], 1));
        let plan = sched.plan();
        assert!(
            sched.drain_parked().is_empty(),
            "equal class never preempts"
        );
        assert_eq!(plan[0].stream, first);
    }

    #[test]
    fn blocked_stream_keeps_its_slot_but_is_not_fed_until_unblocked() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 2,
            prefill_chunk: 8,
            ..Default::default()
        });
        let a = sched.submit_request(GenerationRequest::new(vec![1], 3));
        let b = sched.submit_request(GenerationRequest::new(vec![2], 3));
        let plan = sched.plan();
        assert_eq!(plan.len(), 2);
        sched.record(a, Some(10), &FtReport::default());
        sched.record(b, Some(20), &FtReport::default());
        sched.set_blocked(a, true);
        sched.set_blocked(StreamId(99), true); // unknown stream: no-op
        let plan = sched.plan();
        assert_eq!(
            plan.len(),
            1,
            "blocked stream keeps its slot but is not fed"
        );
        assert_eq!(plan[0].stream, b);
        assert!(sched.drain_parked().is_empty(), "nobody waits for the slot");
        sched.record(b, Some(21), &FtReport::default());
        sched.set_blocked(a, false);
        let plan = sched.plan();
        assert_eq!(plan.len(), 2, "unblocked stream is fed again");
        assert!(plan.iter().any(|p| p.stream == a));
    }

    #[test]
    fn blocked_stream_mid_prefill_is_fed_until_it_samples_then_parked_first() {
        // One slot, a 20-token prompt in chunks of 8; the consumer blocks
        // after the first chunk while a Latency stream waits for the slot.
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 1,
            prefill_chunk: 8,
            ..Default::default() // preempt off: the blocked park needs no option
        });
        let a = sched.submit_request(GenerationRequest::new((0..20).collect(), 3));
        let plan = sched.plan();
        assert_eq!((plan[0].feed.len(), plan[0].sample), (8, false));
        sched.record(a, None, &FtReport::default());
        sched.set_blocked(a, true);
        let b = sched
            .submit_request(GenerationRequest::new(vec![2], 3).with_priority(Priority::Latency));
        for want in [(8, false), (4, true)] {
            let plan = sched.plan();
            assert_eq!(plan.len(), 1);
            assert_eq!(plan[0].stream, a, "a started prefill is finished");
            assert_eq!((plan[0].feed.len(), plan[0].sample), want);
            assert!(sched.drain_parked().is_empty(), "never parked mid-prefill");
            sched.record(a, plan[0].sample.then_some(10), &FtReport::default());
        }
        // It has sampled: now it gives way, and stays out while blocked.
        let plan = sched.plan();
        assert_eq!(sched.drain_parked(), vec![a]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].stream, b);
        for t in 20..23 {
            sched.record(b, Some(t), &FtReport::default());
            assert!(sched.plan().iter().all(|p| p.stream == b));
        }
        assert!(
            sched.plan().is_empty(),
            "slot free, but `a` is still blocked"
        );
        assert!(sched.drain_resumed().is_empty());
        sched.set_blocked(a, false);
        assert_eq!(sched.plan()[0].stream, a);
        assert_eq!(sched.drain_resumed(), vec![a]);
    }

    #[test]
    fn blocked_pending_stream_is_skipped_for_an_unblocked_one_behind_it() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 1,
            ..Default::default()
        });
        let a = sched
            .submit_request(GenerationRequest::new(vec![1], 1).with_priority(Priority::Latency));
        let b =
            sched.submit_request(GenerationRequest::new(vec![2], 1).with_priority(Priority::Batch));
        sched.set_blocked(a, true);
        let plan = sched.plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan[0].stream, b,
            "class and arrival order yield to blocked"
        );
        sched.record(b, Some(20), &FtReport::default());
        assert!(sched.plan().is_empty(), "admission stops at a blocked head");
        sched.set_blocked(a, false);
        assert_eq!(sched.plan()[0].stream, a);
    }

    #[test]
    fn export_gives_the_unblocked_tail_else_parks_an_eligible_active_stream() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            max_active: 2,
            prefill_chunk: 8,
            ..Default::default()
        });
        let a = sched.submit_request(GenerationRequest::new(vec![1], 4));
        let b = sched.submit_request(GenerationRequest::new((0..20).collect(), 4));
        let c = sched.submit_request(GenerationRequest::new(vec![3], 4));
        let d = sched.submit_request(GenerationRequest::new(vec![4], 4));
        sched.plan(); // a samples, b is mid-prefill, c and d queue
        sched.record(a, Some(10), &FtReport::default());
        sched.record(b, None, &FtReport::default());
        sched.set_blocked(d, true);
        let tail = sched.export().expect("c is queued and unblocked");
        assert_eq!(tail.id, c, "the blocked tail is passed over");
        assert!(
            sched.drain_parked().is_empty(),
            "a queued stream has no cache"
        );
        // Queue: only blocked `d`. Active: `a` (sampled), `b` (mid-prefill,
        // newer). The newest *eligible* stream is `a`.
        let parked = sched.export().expect("a is eligible");
        assert_eq!(parked.id, a);
        assert_eq!(sched.drain_parked(), vec![a], "the driver drops its cache");
        assert_eq!((parked.fed, parked.preemptions), (0, 1));
        assert!(sched.export().is_none(), "d blocked, b mid-prefill");
        assert_eq!((sched.active_len(), sched.pending_len()), (1, 1));
        // Once `b` has sampled it is eligible — unless its consumer is stuck.
        for sampled in [None, Some(20)] {
            sched.plan();
            sched.record(b, sampled, &FtReport::default());
        }
        sched.set_blocked(b, true);
        assert!(sched.export().is_none(), "every candidate blocked");
        sched.set_blocked(b, false);
        assert_eq!(sched.export().map(|s| s.id), Some(b));
    }

    #[test]
    fn park_refuses_inflight_and_unknown_streams() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let a = sched.submit_request(GenerationRequest::new(vec![1], 2));
        assert!(!sched.park(a), "pending, not active");
        sched.plan();
        assert!(!sched.park(a), "in-flight streams cannot be parked");
        sched.record(a, Some(10), &FtReport::default());
        assert!(sched.park(a));
        assert_eq!(sched.drain_parked(), vec![a]);
        assert!(!sched.park(StreamId(99)), "unknown stream");
    }

    #[test]
    fn caller_chosen_ids_replay_out_of_order() {
        // The serving loop allocates ids on the submitting thread; the
        // worker may see them in any order. Later auto-allocated ids must
        // not collide.
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        sched.submit_request_with_id(GenerationRequest::new(vec![1], 1), StreamId(5));
        sched.submit_request_with_id(GenerationRequest::new(vec![2], 1), StreamId(3));
        let auto = sched.submit_request(GenerationRequest::new(vec![3], 1));
        assert_eq!(
            auto,
            StreamId(6),
            "auto ids skip past the highest replayed id"
        );
    }

    #[test]
    #[should_panic(expected = "already submitted")]
    fn duplicate_stream_ids_are_rejected() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        sched.submit_request_with_id(GenerationRequest::new(vec![1], 1), StreamId(4));
        sched.submit_request_with_id(GenerationRequest::new(vec![2], 1), StreamId(4));
    }

    #[test]
    fn speculative_plan_drafts_scripted_tokens_and_clamps_to_budget() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let a = sched.submit_request(GenerationRequest::new(vec![1, 2, 3], 4).with_speculation(
            SpeculationPolicy::new(4).with_source(DraftSource::Scripted(vec![10, 11, 12, 13])),
        ));
        // Prefill never speculates.
        let plan = sched.plan();
        assert_eq!(
            (plan[0].feed.clone(), plan[0].speculate),
            (vec![1, 2, 3], 0)
        );
        sched.record(a, Some(10), &FtReport::default());
        // Decode: 3 tokens of budget remain, so at most 2 drafts ride along
        // (a verify sweep commits up to speculate + 1 tokens). The script
        // cursor sits at generated = 1: drafts are script[1..3].
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![10, 11, 12]);
        assert_eq!(plan[0].speculate, 2);
        // Both drafts verified; the bonus token finishes the stream.
        sched.record_speculative(a, &[11, 12, 77], 2, 2, &FtReport::default());
        let done = sched.take_finished();
        assert_eq!(done[0].tokens(), vec![1, 2, 3, 10, 11, 12, 77]);
        assert_eq!((done[0].spec_drafted, done[0].spec_accepted), (2, 2));
        assert_eq!(done[0].finish, Some(FinishReason::MaxTokens));
    }

    #[test]
    fn zero_accept_streak_backs_off_to_plain_decode() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let a = sched.submit_request(
            GenerationRequest::new(vec![1, 2], 16)
                .with_speculation(SpeculationPolicy::new(2).with_backoff(Some(2))),
        );
        sched.plan();
        sched.record(a, Some(9), &FtReport::default());
        for _ in 0..2 {
            let plan = sched.plan();
            assert_eq!(plan[0].speculate, 2, "still speculating");
            sched.record_speculative(a, &[8], 2, 0, &FtReport::default());
        }
        // Two consecutive zero-accept sweeps: speculation is off for good.
        let plan = sched.plan();
        assert_eq!(plan[0].speculate, 0, "backoff tripped");
        assert_eq!(plan[0].feed.len(), 1);
        sched.record(a, Some(7), &FtReport::default());
        assert_eq!(sched.plan()[0].speculate, 0, "backoff is permanent");
    }

    #[test]
    fn ngram_drafts_replay_the_last_match_continuation() {
        // History …5 6 7 5 6: the trailing bigram [5, 6] last occurred at
        // the start, followed by 7 5 6 — the draft replays that, padding
        // with the last token once the history runs out.
        let h = [5, 6, 7, 5, 6];
        assert_eq!(
            draft_tokens(&DraftSource::NGram { n: 2 }, &h, 0, 4),
            vec![7, 5, 6, 6],
        );
        // No earlier occurrence: pad by repeating the last token.
        assert_eq!(
            draft_tokens(&DraftSource::NGram { n: 2 }, &[1, 2, 3], 0, 2),
            vec![3, 3],
        );
    }

    #[test]
    fn requeue_suffix_feeds_only_the_kept_tail() {
        let mut sched = DecodeScheduler::new(SchedulerConfig {
            prefill_chunk: 8,
            ..Default::default()
        });
        let a = sched.submit_request(GenerationRequest::new(vec![1, 2, 3, 4, 5, 6], 4));
        sched.plan();
        sched.record(a, Some(50), &FtReport::default());
        // Poison located late: keep 4 rows, re-feed rows 4..7 only.
        sched.plan();
        let attempt = sched.requeue_suffix(a, &FtReport::default(), 4);
        assert_eq!(attempt, 1);
        let plan = sched.plan();
        assert_eq!(plan[0].feed, vec![5, 6, 50]);
        assert!(plan[0].sample, "suffix re-prefill completes in one chunk");
        let s = sched.active_stream(a).unwrap();
        assert_eq!(s.recovery_fed, 3, "only the suffix counts as re-fed");
        sched.record(a, Some(51), &FtReport::default());
        // Full requeue for comparison: the whole history re-feeds.
        sched.plan();
        sched.requeue(a, &FtReport::default());
        let s = sched.active_stream(a).unwrap();
        assert_eq!(s.recovery_fed, 3 + 8, "full requeue re-feeds everything");
    }

    #[test]
    fn scheduler_state_is_send() {
        // The fleet ships StreamState between shard threads and each worker
        // owns its DecodeScheduler; both must stay Send. Compile-time pin.
        fn assert_send<T: Send>() {}
        assert_send::<StreamState>();
        assert_send::<DecodeScheduler>();
    }

    #[test]
    fn extract_and_adopt_move_a_pending_stream_between_schedulers() {
        let one_slot = SchedulerConfig {
            max_active: 1,
            preempt: true,
            ..Default::default()
        };
        let mut donor = DecodeScheduler::new(one_slot);
        let a = donor.submit_request(GenerationRequest::new(vec![1, 2], 2));
        let b = donor.submit_request(GenerationRequest::new(vec![3, 4, 5], 2));
        donor.plan();
        donor.record(a, Some(9), &FtReport::default());
        assert!(donor.extract_pending(a).is_none(), "active ≠ extractable");
        assert_eq!((donor.pending_len(), donor.active_len()), (1, 1));
        assert!(donor.active_stream(a).is_some());

        let moved = donor.extract_pending(b).expect("b is queued");
        assert_eq!(donor.pending_len(), 0);
        let mut thief = DecodeScheduler::new(one_slot);
        thief.adopt_pending(moved);
        assert_eq!(thief.pending_len(), 1);
        // The local allocator skipped past the adopted id.
        let c = thief.submit_request(GenerationRequest::new(vec![6], 1));
        assert!(c.0 > b.0, "adoption bumps the id allocator");
        // The adopted stream runs to completion on the thief.
        while !thief.idle() {
            for feed in thief.plan() {
                let last = *feed.feed.last().unwrap();
                let tok = if feed.sample { Some(last + 1) } else { None };
                thief.record(feed.stream, tok, &FtReport::default());
            }
        }
        let done = thief.take_finished();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, b);
        assert_eq!(done[0].tokens(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "already known")]
    fn adopting_a_known_id_panics() {
        let mut sched = DecodeScheduler::new(SchedulerConfig::default());
        let a = sched.submit_request(GenerationRequest::new(vec![1], 1));
        let mut other = DecodeScheduler::new(SchedulerConfig::default());
        let id = other.submit_request(GenerationRequest::new(vec![2], 1));
        // Force the same id as `a` to provoke the collision guard.
        let mut moved = other.extract_pending(id).unwrap();
        moved.id = a;
        sched.adopt_pending(moved);
    }

    // -----------------------------------------------------------------
    // Step-driven liveness: the shard worker's pump over the real
    // scheduler, with the model sweep replaced by a counter and the
    // consumer by a function — no thread, no clock.
    // -----------------------------------------------------------------

    #[derive(Clone, Copy, Debug)]
    enum Ev {
        Resumed,
        Token,
        Preempted,
        Finished,
    }

    /// What one stream may leave undelivered between two drains when no
    /// fault fires and nothing speculates: `Resumed`, the one sampled
    /// token, then `Preempted` or `Finished` — the fault-free instance of
    /// the bound `ft_transformer`'s outbox asserts on every push.
    const BACKLOG_BOUND: usize = 3;

    /// The eight requests of `tests/engine_loop.rs`'s bursty gate test.
    fn gate_requests() -> Vec<GenerationRequest> {
        use Priority::{Batch as B, Latency as L, Normal as N};
        [B, N, L, N, B, L, N, B]
            .iter()
            .enumerate()
            .map(|(i, &class)| GenerationRequest::new(vec![1; 10 + i], 6).with_priority(class))
            .collect()
    }

    /// One shard's pump. Per stream: the bounded channel a consumer pops
    /// from and the backlog (outbox) behind it. The pump reports one fact
    /// per stream — backlog non-empty — and obeys the plan.
    struct Pump {
        sched: DecodeScheduler,
        capacity: usize,
        channel: Vec<VecDeque<Ev>>,
        backlog: Vec<VecDeque<Ev>>,
        /// Tokens / `Finished` the consumer has popped.
        got: Vec<usize>,
        finished: Vec<bool>,
        emitted: Vec<usize>,
        parks: Vec<usize>,
        /// Tokens sampled since the stream last took a slot.
        sampled_this_admission: Vec<usize>,
    }

    impl Pump {
        fn new(max_active: usize, capacity: usize) -> Pump {
            let mut sched = DecodeScheduler::new(SchedulerConfig {
                max_active,
                prefill_chunk: 8,
                memory_budget: Some(10_000),
                preempt: true,
                priority_aging: Some(4),
            });
            sched.set_bytes_per_token(256);
            let n = gate_requests()
                .into_iter()
                .map(|r| sched.submit_request(r))
                .count();
            Pump {
                sched,
                capacity,
                channel: vec![VecDeque::new(); n],
                backlog: vec![VecDeque::new(); n],
                got: vec![0; n],
                finished: vec![false; n],
                emitted: vec![0; n],
                parks: vec![0; n],
                sampled_this_admission: vec![0; n],
            }
        }

        fn flush(&mut self, i: usize) {
            while self.channel[i].len() < self.capacity {
                let Some(ev) = self.backlog[i].pop_front() else {
                    break;
                };
                self.channel[i].push_back(ev);
            }
        }

        fn push(&mut self, id: StreamId, ev: Ev) {
            let i = id.0 as usize;
            self.backlog[i].push_back(ev);
            self.flush(i);
            assert!(
                self.backlog[i].len() <= BACKLOG_BOUND,
                "{id}: backlog {:?}",
                self.backlog[i]
            );
        }

        /// One worker iteration: flush, report, plan, "sweep", route.
        fn work(&mut self) {
            let n = self.channel.len();
            for i in 0..n {
                self.flush(i);
                self.sched
                    .set_blocked(StreamId(i as u64), !self.backlog[i].is_empty());
            }
            let live = self.sched.active.iter().map(|s| s.materialized() as u64);
            self.sched.note_bytes(live.sum::<u64>() * 256);
            let mid_prefill: Vec<StreamId> = (self.sched.active.iter())
                .filter(|s| s.prefilling())
                .map(|s| s.id)
                .collect();
            let plan = self.sched.plan();
            for id in self.sched.drain_parked() {
                let i = id.0 as usize;
                assert!(!mid_prefill.contains(&id), "{id} parked mid-prefill");
                assert!(
                    self.sampled_this_admission[i] >= 1,
                    "{id} lost its slot before it sampled"
                );
                self.sampled_this_admission[i] = 0;
                self.parks[i] += 1;
                self.push(id, Ev::Preempted);
            }
            for id in self.sched.drain_resumed() {
                self.push(id, Ev::Resumed);
            }
            for item in plan {
                let i = item.stream.0 as usize;
                self.sched
                    .record(item.stream, item.sample.then_some(7), &FtReport::default());
                if item.sample {
                    self.sampled_this_admission[i] += 1;
                    self.emitted[i] += 1;
                    self.push(item.stream, Ev::Token);
                }
            }
            for s in self.sched.take_finished() {
                self.push(s.id, Ev::Finished);
            }
        }

        /// The consumer takes one event of stream `i`, if one is ready.
        fn consume(&mut self, i: usize) {
            match self.channel[i].pop_front() {
                Some(Ev::Token) => self.got[i] += 1,
                Some(Ev::Finished) => self.finished[i] = true,
                _ => {}
            }
        }
    }

    /// `engine_loop::bursty_arrivals_…` without the threads: 8 mixed-class
    /// streams, 2 slots, one-event channels, a byte budget of about two
    /// caches, a consumer that drains the lowest unfinished stream only.
    /// Under a policy that parks a blocked stream mid-re-prefill, or
    /// re-admits it while its consumer still owes a drain, this never
    /// terminates (park/resume events alone keep the channel full).
    #[test]
    fn bursty_arrivals_with_full_channels_finish_in_bounded_steps() {
        let mut pump = Pump::new(2, 1);
        let mut steps = 0;
        while let Some(i) = pump.finished.iter().position(|&f| !f) {
            steps += 1;
            assert!(steps <= 250, "stream{i} stalled at {} tokens", pump.got[i]);
            pump.work();
            pump.consume(i);
        }
        assert_eq!(pump.got, vec![6; 8]);
        assert!(pump.sched.idle());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Any slot count, channel size and drain order, with one consumer
        /// that never drains at all: every other stream finishes, and the
        /// stuck one costs a bounded number of parks — at most one per
        /// token it emitted — and a bounded backlog (asserted per push).
        #[test]
        fn one_stuck_consumer_never_stalls_the_others(
            slots in 1usize..4,
            capacity in 1usize..5,
            stuck in 0usize..8,
            seed in 0u64..1_000_000,
        ) {
            let mut pump = Pump::new(slots, capacity);
            let mut rng = seed;
            let mut steps = 0;
            while (0..8).any(|i| i != stuck && !pump.finished[i]) {
                steps += 1;
                proptest::prop_assert!(steps <= 1000, "stalled: got {:?}", pump.got);
                pump.work();
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (rng >> 33) as usize % 8;
                if i != stuck {
                    pump.consume(i);
                }
            }
            for i in (0..8).filter(|&i| i != stuck) {
                proptest::prop_assert_eq!(pump.got[i], 6);
            }
            proptest::prop_assert_eq!(pump.got[stuck], 0);
            proptest::prop_assert!(pump.parks[stuck] <= pump.emitted[stuck]);
        }
    }
}
