//! The typed request/response lifecycle: streams are submitted as
//! [`GenerationRequest`]s (per-stream `window`, [`SamplingMode`],
//! [`RecoveryPolicy`], [`Priority`], [`SpeculationPolicy`], protection
//! level), checked once by [`GenerationRequest::check`], and the serving
//! engine reports each sweep as [`EngineEvent`]s until the stream retires
//! with a [`FinishReason`]. [`RecoveryPolicy::decide`] is the whole
//! recovery machine as one pure function; `DecodeScheduler::requeue` is
//! the primitive that carries out its replays — it turns a poisoned
//! stream's emitted history into a fresh prefill source so the engine can
//! rebuild the cache and resume.

use crate::protect::ProtectionLevel;

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
/// [`KvCache::poisoned_attended`](crate::kv::KvCache::poisoned_attended)).
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

impl RecoveryPolicy {
    /// The recovery machine for one stream after one sweep, as a pure
    /// function: the policy, the attempts the stream already spent, the
    /// unrepairable damage its attended window carries (`poisoned`), and
    /// the partial rollback target its cache offers (`None` when the
    /// damage cannot be rolled back surgically — see
    /// [`ReprefillPartial`](RecoveryPolicy::ReprefillPartial)).
    ///
    /// A clean stream continues, and so does every stream under
    /// [`RecoveryPolicy::None`]. A poisoned stream whose budget is spent
    /// aborts. Otherwise the partial policy replays the suffix past its
    /// target when there is one, and every other case replays the whole
    /// emitted history.
    pub fn decide(
        self,
        attempts: u32,
        poisoned: u64,
        rollback_target: Option<usize>,
    ) -> RecoveryAction {
        let (max_attempts, partial) = match self {
            RecoveryPolicy::None => return RecoveryAction::Continue,
            RecoveryPolicy::ReprefillBounded { max_attempts } => (max_attempts, false),
            RecoveryPolicy::ReprefillPartial { max_attempts } => (max_attempts, true),
        };
        match rollback_target {
            _ if poisoned == 0 => RecoveryAction::Continue,
            _ if attempts >= max_attempts => RecoveryAction::Abort { attempts },
            Some(p) if partial => RecoveryAction::ReplaySuffix(p),
            _ => RecoveryAction::ReplayAll,
        }
    }
}

/// What the serving engine does with one stream after a sweep — the
/// answer of [`RecoveryPolicy::decide`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Keep the sweep's output: sample, commit, record.
    Continue,
    /// The recovery budget is spent: retire the stream with
    /// [`FinishReason::AbortedPoisoned`].
    Abort {
        /// Re-prefill attempts consumed.
        attempts: u32,
    },
    /// Truncate the cache to this many rows (a clean block boundary) and
    /// re-prefill only the history suffix past it.
    ReplaySuffix(usize),
    /// Drop the cache and re-prefill the whole emitted history.
    ReplayAll,
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
/// (the visible-length tiles — each row attends exactly its own causal
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

    /// The rules every serving entry point holds a request to: a
    /// non-empty prompt of at most `max_seq` tokens, and no zero-row
    /// window. The fleet returns the error to the submitter; a serving
    /// session or scheduler panics with its message.
    pub fn check(&self, max_seq: usize) -> Result<(), SubmitError> {
        if self.prompt.is_empty() {
            Err(SubmitError::EmptyPrompt)
        } else if self.prompt.len() > max_seq {
            Err(SubmitError::PromptTooLong {
                len: self.prompt.len(),
                max_seq,
            })
        } else if self.window == Some(0) {
            Err(SubmitError::ZeroWindow)
        } else {
            Ok(())
        }
    }
}

/// Why [`GenerationRequest::check`] refused a request. The fleet checks on
/// the submitting thread, so a request a shard cannot serve never reaches
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The prompt has no token to prefill.
    EmptyPrompt,
    /// The prompt alone exceeds the model's context.
    PromptTooLong {
        /// Prompt tokens submitted.
        len: usize,
        /// The model's `max_seq`.
        max_seq: usize,
    },
    /// A sliding window of zero rows attends nothing.
    ZeroWindow,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::EmptyPrompt => write!(f, "a stream needs at least one prompt token"),
            SubmitError::PromptTooLong { len, max_seq } => {
                write!(f, "prompt of {len} tokens exceeds max_seq {max_seq}")
            }
            SubmitError::ZeroWindow => write!(f, "a zero-row window cannot serve decode"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One typed lifecycle event of a serving sweep. The engine emits these
/// per sweep (see `ServeSession::sweep_events` in the `ft-transformer`
/// crate); everything a caller used to infer from raw counters — tokens,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_display_names_streams() {
        assert_eq!(StreamId(0).to_string(), "stream0");
        assert_eq!(format!("{}", StreamId(42)), "stream42");
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

    /// Every policy × attempts below / at the budget × clean / poisoned ×
    /// rollback target or none.
    #[test]
    fn recovery_decision_table() {
        use RecoveryAction::{Abort, Continue, ReplayAll, ReplaySuffix};
        let none = RecoveryPolicy::None;
        let bounded = RecoveryPolicy::ReprefillBounded { max_attempts: 2 };
        let partial = RecoveryPolicy::ReprefillPartial { max_attempts: 2 };
        let spent = Abort { attempts: 2 };
        #[rustfmt::skip]
        let table = [
            // policy, attempts, poisoned, target -> action
            (none, 1, 0, None, Continue),
            (none, 1, 0, Some(32), Continue),
            (none, 1, 3, None, Continue),
            (none, 1, 3, Some(32), Continue),
            (none, 2, 0, None, Continue),
            (none, 2, 0, Some(32), Continue),
            (none, 2, 3, None, Continue),
            (none, 2, 3, Some(32), Continue),
            (bounded, 1, 0, None, Continue),
            (bounded, 1, 0, Some(32), Continue),
            (bounded, 1, 3, None, ReplayAll),
            (bounded, 1, 3, Some(32), ReplayAll),
            (bounded, 2, 0, None, Continue),
            (bounded, 2, 0, Some(32), Continue),
            (bounded, 2, 3, None, spent),
            (bounded, 2, 3, Some(32), spent),
            (partial, 1, 0, None, Continue),
            (partial, 1, 0, Some(32), Continue),
            (partial, 1, 3, None, ReplayAll),
            (partial, 1, 3, Some(32), ReplaySuffix(32)),
            (partial, 2, 0, None, Continue),
            (partial, 2, 0, Some(32), Continue),
            (partial, 2, 3, None, spent),
            (partial, 2, 3, Some(32), spent),
        ];
        for (policy, attempts, poisoned, target, want) in table {
            assert_eq!(
                policy.decide(attempts, poisoned, target),
                want,
                "{policy:?}, {attempts} attempts, {poisoned} poisoned, target {target:?}"
            );
        }
        // A zero budget aborts on the first poisoned sweep.
        let zero = RecoveryPolicy::ReprefillPartial { max_attempts: 0 };
        assert_eq!(zero.decide(0, 1, Some(32)), Abort { attempts: 0 });
    }

    #[test]
    fn check_accepts_a_well_formed_request() {
        let req = GenerationRequest::new(vec![1, 2, 3], 4).with_window(2);
        assert_eq!(req.check(3), Ok(()));
    }

    #[test]
    fn check_refuses_an_empty_prompt() {
        let err = GenerationRequest::new(vec![], 4).check(8);
        assert_eq!(err, Err(SubmitError::EmptyPrompt));
        assert_eq!(
            SubmitError::EmptyPrompt.to_string(),
            "a stream needs at least one prompt token"
        );
    }

    #[test]
    fn check_refuses_a_prompt_longer_than_max_seq() {
        let err = GenerationRequest::new(vec![1, 2, 3], 4).check(2);
        let too_long = SubmitError::PromptTooLong { len: 3, max_seq: 2 };
        assert_eq!(err, Err(too_long));
        assert_eq!(too_long.to_string(), "prompt of 3 tokens exceeds max_seq 2");
    }

    #[test]
    fn check_refuses_a_zero_row_window() {
        let req = GenerationRequest {
            window: Some(0),
            ..GenerationRequest::new(vec![1], 4)
        };
        assert_eq!(req.check(8), Err(SubmitError::ZeroWindow));
        assert_eq!(
            SubmitError::ZeroWindow.to_string(),
            "a zero-row window cannot serve decode"
        );
    }
}
