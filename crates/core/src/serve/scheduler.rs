//! The continuous-batching slot table: streams are admitted into free
//! slots between sweeps (prompts consumed in prefill-chunk bites so a long
//! prompt never stalls the batch), each sweep feeds every active stream
//! its next chunk or its freshly sampled token, and finished streams
//! retire between sweeps with their token history, accumulated fault
//! report, and [`FinishReason`].

use super::request::{
    DraftSource, FinishReason, GenerationRequest, Priority, RecoveryPolicy, SamplingMode,
    SpeculationPolicy, StreamId,
};
use crate::protect::ProtectionLevel;
use crate::types::FtReport;
use core::cmp::Reverse;
use std::collections::VecDeque;

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
    /// admission *throttle* over caller-supplied estimates, not a hard
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
    /// re-prefill path. Off by default: pre-existing callers see FIFO.
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
    /// The caller's one backpressure fact
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
    /// Whether the caller should sample a new token from the last fed
    /// row's logits and report it via [`DecodeScheduler::record`].
    pub sample: bool,
    /// The stream's sliding attention window (from its
    /// [`GenerationRequest`]): the caller applies it to storage eviction
    /// and to the sweep's [`StreamSlice::window`](super::StreamSlice::window).
    pub window: Option<usize>,
    /// Trailing tokens of [`feed`](PlanItem::feed) that are *provisional*
    /// drafts (0 = plain decode / prefill). When set, the caller verifies
    /// them against the sweep's per-row logits, commits the accepted
    /// prefix plus the corrected/bonus token via
    /// [`DecodeScheduler::record_speculative`], and truncates the cache
    /// back to the committed length.
    pub speculate: usize,
    /// The stream's graded protection level: the caller applies it to any
    /// cache it creates for the stream this sweep (fresh admission or a
    /// recovery re-prefill).
    pub protection: ProtectionLevel,
}

/// Continuous-batching slot table: admits streams, plans one chunk per
/// active stream per sweep, and retires finished streams between sweeps.
///
/// The scheduler is deliberately model-agnostic — it plans *which tokens
/// each stream feeds next* and records *what came back*; the caller owns
/// the forward pass:
///
/// ```
/// use ft_core::serve::{DecodeScheduler, GenerationRequest, SchedulerConfig};
///
/// let mut sched = DecodeScheduler::new(SchedulerConfig {
///     max_active: 8,
///     prefill_chunk: 4,
///     ..Default::default()
/// });
/// // Two streams join: a 6-token prompt wanting 2 new tokens, and a
/// // 2-token prompt wanting 1.
/// let a = sched.submit_request(GenerationRequest::new(vec![1, 2, 3, 4, 5, 6], 2));
/// let b = sched.submit_request(GenerationRequest::new(vec![7, 8], 1));
///
/// // Sweep 1: A feeds its first prefill chunk, B its whole prompt.
/// let plan = sched.plan();
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan[0].feed, vec![1, 2, 3, 4]);
/// assert!(!plan[0].sample, "A's prompt is not exhausted yet");
/// assert_eq!(plan[1].feed, vec![7, 8]);
/// assert!(plan[1].sample, "B samples from its last prompt logits");
///
/// // The caller runs the batched sweep, then reports per-stream results.
/// sched.record(a, None, &Default::default());
/// sched.record(b, Some(9), &Default::default());
///
/// // Sweep 2: A finishes prefill; B (done: 1 of 1 tokens) has retired.
/// let plan = sched.plan();
/// assert_eq!(plan.len(), 1);
/// assert_eq!(plan[0].feed, vec![5, 6]);
/// assert!(plan[0].sample);
/// sched.record(a, Some(40), &Default::default());
/// assert_eq!(sched.take_finished().len(), 1);
/// assert!(!sched.idle(), "A is still generating");
/// ```
#[derive(Debug, Default)]
pub struct DecodeScheduler {
    cfg: SchedulerConfig,
    next_id: u64,
    active: Vec<StreamState>,
    pending: VecDeque<StreamState>,
    finished: Vec<StreamState>,
    /// Latest total cache footprint the caller reported (bytes).
    noted_bytes: u64,
    /// Caller-supplied estimate of cache bytes one token occupies (for
    /// projecting a pending stream's prompt cost at admission time).
    bytes_per_token: u64,
    /// Caller-supplied slack (in rows) added to a stream's window when
    /// deriving its per-stream projection cap — block-granular eviction
    /// keeps up to one extra block resident, so the caller passes the
    /// cache block size here.
    window_slack: usize,
    /// Plan counter — the aging clock ticks once per [`plan`] call.
    ///
    /// [`plan`]: DecodeScheduler::plan
    tick: u64,
    /// Streams parked since the last [`drain_parked`]
    /// (the caller must drop their caches).
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
    /// the scheduler, and on a request [`GenerationRequest::check`] refuses
    /// (the scheduler knows no `max_seq`, so only its length rule is off).
    pub fn submit_request_with_id(&mut self, req: GenerationRequest, id: StreamId) -> StreamId {
        if let Err(e) = req.check(usize::MAX) {
            panic!("{e}");
        }
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
    /// caller calls this before each [`plan`](DecodeScheduler::plan)); the
    /// memory-budget admission policy compares it — plus per-prompt
    /// estimates — against [`SchedulerConfig::memory_budget`].
    pub fn note_bytes(&mut self, bytes: u64) {
        self.noted_bytes = bytes;
    }

    /// Supply the per-token cache-byte estimate used to project a pending
    /// stream's prompt cost at admission time (the caller knows the model
    /// geometry; the scheduler deliberately does not).
    pub fn set_bytes_per_token(&mut self, bytes: u64) {
        self.bytes_per_token = bytes;
    }

    /// Rows added to a windowed stream's window to cap the token count of
    /// its admission projection: its resident footprint is bounded by
    /// roughly `window + cache_block` rows however long its prompt, so
    /// projecting the full prompt length would over-throttle admission
    /// (block-granular eviction keeps up to one extra block resident; the
    /// caller passes the cache block size).
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
    /// claim (the caller must drop the cache itself — see
    /// [`drain_parked`](DecodeScheduler::drain_parked)), and requeue it
    /// with its emitted history as the new prefill source, exactly like a
    /// recovery [`requeue`](DecodeScheduler::requeue) but without touching
    /// the recovery accounting. Resumption replays the history through
    /// chunked re-prefill, which is bit-identical to the uninterrupted run
    /// under deterministic sampling.
    ///
    /// Returns `false` (a no-op) when the stream is not active, is awaiting
    /// its [`record`](DecodeScheduler::record), or is already done. For
    /// callers that stage a park themselves; the serving loop leaves victims
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

    /// The caller's one backpressure fact about a stream: whether its
    /// consumer still owes a drain of events it already produced.
    /// [`plan`](DecodeScheduler::plan) owns every consequence. A no-op for
    /// a stream that is neither active nor queued.
    pub fn set_blocked(&mut self, stream: StreamId, blocked: bool) {
        let mut live = self.active.iter_mut().chain(self.pending.iter_mut());
        if let Some(s) = live.find(|s| s.id == stream) {
            s.blocked = blocked;
        }
    }

    /// Streams parked (preempted) since the last drain. The caller must
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

#[cfg(test)]
mod tests {
    use super::*;

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
