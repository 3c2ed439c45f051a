//! The continuous-batching serving session: many generation streams over
//! one [`TransformerModel`], multiplexed through shared batched sweeps
//! that emit typed [`EngineEvent`]s. One sweep is five named phases —
//! `plan → feed → run_sweep → head → settle` — each a private method of
//! [`ServeSession`].

use super::{argmax, ModelKvCache, SweepFeed, TransformerModel};
use ft_core::kv::{CacheMark, SizeBreakdown};
use ft_core::protect::ProtectionLevel;
use ft_core::serve::{
    DecodeScheduler, EngineEvent, FinishReason, GenerationRequest, PlanItem, RecoveryAction,
    SamplingMode, SchedulerConfig, StreamId, StreamState,
};
use ft_core::types::FtReport;
use ft_num::rng::mix64;
use ft_num::{Matrix, MatrixF32};
use ft_sim::FaultInjector;

/// A retired serving stream: its full token history, fault accounting, and
/// lifecycle outcome.
#[derive(Clone, Debug)]
pub struct FinishedStream {
    /// Stream identity (as returned by [`ServeSession::submit_request`]).
    pub id: StreamId,
    /// Prompt followed by the sampled continuation.
    pub tokens: Vec<u32>,
    /// The stream's one fault ledger ([`StreamState::report`]): every
    /// protected site — projections, attention, cache residency, FFN, LM
    /// head — attributed to this stream alone; `cache_uncorrectable` is the
    /// peak attended level. Still named `attention` only because
    /// `ftbench/src/tracing.rs` reads `f.attention.cache_*` and `ftbench/`
    /// is frozen outside `benchmark` PRs; the rename belongs to the next one.
    pub attention: FtReport,
    /// Why the stream retired. On [`FinishReason::AbortedPoisoned`] the
    /// token history may be wrong from the last poisoned position onward.
    pub finish: FinishReason,
    /// Re-prefill recovery attempts this stream went through (aborted
    /// streams carry the attempts they consumed; [`finish`] says whether
    /// they ultimately succeeded).
    ///
    /// [`finish`]: FinishedStream::finish
    pub recoveries: u32,
    /// Times the stream was parked (preemption or backpressure) and
    /// resumed through re-prefill. Not a fault: a preempted-and-resumed
    /// stream's tokens are bit-identical to an uninterrupted run.
    pub preemptions: u32,
    /// History tokens the recovery requeues scheduled for re-feeding: full
    /// re-prefills count the whole history, partial re-prefills only the
    /// suffix past the truncation point — the measurable saving of
    /// [`RecoveryPolicy::ReprefillPartial`](ft_core::serve::RecoveryPolicy::ReprefillPartial).
    pub recovery_fed: usize,
    /// Provisional tokens drafted across the stream's verify sweeps
    /// (zero unless the request carried a
    /// [`SpeculationPolicy`](ft_core::serve::SpeculationPolicy)).
    pub spec_drafted: u64,
    /// Drafted tokens that verified against the engine's own samples and
    /// were committed — `spec_accepted / spec_drafted` is the stream's
    /// realized acceptance rate.
    pub spec_accepted: u64,
    /// The graded cache-protection level the stream ran at — every cache
    /// the engine built for it (admission, recovery re-prefill, migration
    /// re-adoption) was created at this level.
    pub protection: ProtectionLevel,
}

/// A continuous-batching serving session over one [`TransformerModel`]:
/// many generation streams, each with its own per-layer [`ModelKvCache`],
/// request configuration ([`GenerationRequest`]: per-stream window,
/// sampling mode, recovery policy), and fault history, multiplexed through
/// shared batched decode sweeps that emit typed [`EngineEvent`]s.
///
/// ```text
/// submit_request ─▶ scheduler slot table ─▶ sweep:
///   plan       note bytes, plan, absorb park/resume, create caches
///   feed       pair plan items with caches
///   run_sweep  embed → layers (shared attention fan-out, per-stream
///              windows) → final norm of the sampling rows
///   head       LM head over every sampling row: one GEMM, one ledger per row
///   settle     events: FaultCorrected / EvictedBlocks / CachePoisoned
///              → RecoveryPolicy::decide: Recovering (truncate or drop
///                the cache, re-prefill history), Finished(AbortedPoisoned),
///                or per-stream sampling → TokenEmitted, draft rollback
/// ─▶ retire finished streams with a FinishReason
/// ```
///
/// The recovery half is the paper's detect → correct → **recover** story
/// closed end to end: when a stream's attended window carries unrepairable
/// cache damage and its request asked for
/// [`RecoveryPolicy::ReprefillPartial`](ft_core::serve::RecoveryPolicy::ReprefillPartial),
/// `settle` discards the suspect sweep output, rolls the stream's cache
/// back to the last clean block boundary (or drops it), replays the
/// history past it through chunked prefill, and resumes decoding —
/// deterministic sampling makes a
/// successful recovery bit-identical to an undamaged run (pinned by
/// `tests/engine_recovery.rs`).
///
/// The LM head is fault-passed and verified on every sampling row a sweep
/// computes. Under speculation that includes the rows past a rejected
/// draft: their fault draws happen (and count in
/// [`fired`](FaultInjector::fired)), but their tokens are never sampled
/// and their head ledgers are dropped along with their logits.
///
/// [`TransformerModel::generate`] is the one-stream special case.
///
/// The session is generic over model *ownership*: `M` is anything that
/// borrows a [`TransformerModel`] — `&TransformerModel` for the classic
/// in-thread session ([`TransformerModel::serve`]), or a shared
/// `Arc<TransformerModel>` for the `Send` session a serving loop moves onto
/// its worker thread ([`Fleet`](crate::fleet::Fleet)).
pub struct ServeSession<M: core::borrow::Borrow<TransformerModel> = TransformerModel> {
    model: M,
    scheduler: DecodeScheduler,
    caches: Vec<(StreamId, ModelKvCache)>,
    finished: Vec<FinishedStream>,
    events: Vec<EngineEvent>,
    peak_cache_bytes: u64,
    peak_cache_breakdown: SizeBreakdown,
}

impl<M: core::borrow::Borrow<TransformerModel>> ServeSession<M> {
    /// Open a session over `model` (borrowed or owned) with the given
    /// scheduler sizing — the constructor behind
    /// [`TransformerModel::serve_with`].
    pub fn new(model: M, cfg: SchedulerConfig) -> Self {
        let admission = model.borrow().admission();
        let mut scheduler = DecodeScheduler::new(cfg);
        scheduler.set_bytes_per_token(admission.bytes_per_token);
        // The window is a per-request property, so the scheduler derives
        // each windowed stream's projection cap itself from the slack.
        scheduler.set_window_slack(admission.window_slack);
        ServeSession {
            model,
            scheduler,
            caches: Vec::new(),
            finished: Vec::new(),
            events: Vec::new(),
            peak_cache_bytes: 0,
            peak_cache_breakdown: SizeBreakdown::default(),
        }
    }
    /// Submit a typed [`GenerationRequest`]. `max_new_tokens` is clamped to
    /// the model's `max_seq`. The stream joins
    /// the next sweep with a free slot — mid-flight, without stalling
    /// streams already decoding.
    pub fn submit_request(&mut self, req: GenerationRequest) -> StreamId {
        let req = self.resolve_request(req);
        self.scheduler.submit_request(req)
    }

    /// [`submit_request`](ServeSession::submit_request) with a
    /// caller-chosen [`StreamId`]: the serving loop allocates ids on the
    /// submitting thread and replays them here in whatever order its
    /// submission channel delivers them. Panics if `id` is already known
    /// to the session's scheduler.
    pub fn submit_request_with_id(&mut self, req: GenerationRequest, id: StreamId) -> StreamId {
        let req = self.resolve_request(req);
        self.scheduler.submit_request_with_id(req, id)
    }

    /// Hold the request to [`GenerationRequest::check`] at the model's
    /// `max_seq` (panicking with the refusal) and clamp the token budget to
    /// `max_seq`.
    fn resolve_request(&self, mut req: GenerationRequest) -> GenerationRequest {
        let model = self.model.borrow();
        if let Err(e) = req.check(model.config.max_seq) {
            panic!("{e}");
        }
        req.max_new_tokens = req
            .max_new_tokens
            .min(model.config.max_seq - req.prompt.len());
        req
    }

    /// Run one batched sweep — the five phases of the type docs, admitting
    /// pending streams, sampling where due (per-stream [`SamplingMode`]) and
    /// applying each stream's recovery policy to a poisoned cache — retire
    /// finished streams, and return the sweep's typed [`EngineEvent`]s.
    pub fn sweep_events<I: FaultInjector>(&mut self, inj: &I) -> Vec<EngineEvent> {
        self.sweep(inj);
        std::mem::take(&mut self.events)
    }

    /// Drain the events queued since the last
    /// [`sweep_events`](ServeSession::sweep_events) without sweeping — a
    /// park driven from outside a sweep ([`export_stream`], work migration)
    /// queues its `Preempted` here, and the serving loop must route it
    /// before shipping the stream elsewhere.
    ///
    /// [`export_stream`]: ServeSession::export_stream
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        self.absorb_park_resume();
        std::mem::take(&mut self.events)
    }

    /// Sweep until every submitted stream has retired, then drain them
    /// (ordered by stream id). Events are discarded sweep by sweep — drive
    /// the session with [`sweep_events`](ServeSession::sweep_events) to
    /// observe the lifecycle.
    pub fn run<I: FaultInjector>(&mut self, inj: &I) -> Vec<FinishedStream> {
        while !self.scheduler.idle() {
            self.sweep(inj);
            self.events.clear();
        }
        self.take_finished()
    }

    /// One sweep: the five phases in order, then retirement.
    fn sweep<I: FaultInjector>(&mut self, inj: &I) {
        let plan = self.plan();
        if !plan.is_empty() {
            let (feeds, slots) = self.feed(plan);
            let results = self.run_sweep(&feeds, &slots, inj);
            let head = self.head(&feeds, &results, inj);
            let ledgers = results.into_iter().map(|(_, ledger)| ledger).collect();
            self.settle(&feeds, &slots, ledgers, &head);
        }
        self.collect_finished();
    }

    /// Phase 1: report the live footprint (so memory-budget admission sees
    /// what the resident streams actually occupy), plan, absorb the park
    /// and resume transitions planning made (preemption), and give every
    /// newly admitted stream an empty cache at its protection level.
    fn plan(&mut self) -> Vec<PlanItem> {
        self.scheduler.note_bytes(self.cache_bytes());
        let plan = self.scheduler.plan();
        self.absorb_park_resume();
        for item in &plan {
            if !self.caches.iter().any(|(id, _)| *id == item.stream) {
                let cache = self.model.borrow().new_cache_with(item.protection);
                self.caches.push((item.stream, cache));
            }
        }
        plan
    }

    /// Phase 2: pair every plan item with its stream's cache, once. Feeds
    /// follow cache storage order (plan order and storage order both follow
    /// admission, but matching by id keeps the sweep correct under any
    /// future scheduling policy); feed `i`'s cache is `self.caches[slots[i]]`,
    /// so `slots` ascends.
    fn feed(&self, mut plan: Vec<PlanItem>) -> (Vec<SweepFeed>, Vec<usize>) {
        let mut feeds = Vec::with_capacity(plan.len());
        let mut slots = Vec::with_capacity(plan.len());
        for (slot, (id, _)) in self.caches.iter().enumerate() {
            if let Some(item) = plan.iter_mut().find(|it| it.stream == *id) {
                feeds.push(SweepFeed {
                    stream: *id,
                    tokens: std::mem::take(&mut item.feed),
                    sample_rows: if item.sample { 1 + item.speculate } else { 0 },
                    speculate: item.speculate,
                    window: item.window,
                    protection: item.protection,
                });
                slots.push(slot);
            }
        }
        debug_assert_eq!(feeds.len(), plan.len());
        (feeds, slots)
    }

    /// Phase 3: the model's batched sweep over the paired caches, then the
    /// peak footprint — sampled before `settle` truncates, rebuilds or
    /// retires anything.
    fn run_sweep<I: FaultInjector>(
        &mut self,
        feeds: &[SweepFeed],
        slots: &[usize],
        inj: &I,
    ) -> Vec<(Option<MatrixF32>, FtReport)> {
        let mut caches: Vec<&mut ModelKvCache> = (self.caches.iter_mut().enumerate())
            .filter(|(i, _)| slots.binary_search(i).is_ok())
            .map(|(_, (_, cache))| cache)
            .collect();
        let results = self.model.borrow().run_sweep(feeds, &mut caches, inj);
        self.peak_cache_bytes = self.peak_cache_bytes.max(self.cache_bytes());
        let split = self.cache_breakdown();
        if split.total_bytes() > self.peak_cache_breakdown.total_bytes() {
            self.peak_cache_breakdown = split;
        }
        results
    }

    /// Phase 4: the vocab-wide LM head once per sweep — every sampling row
    /// of every feed stacked into one GEMM, so the head's packed weight
    /// streams through the cache once per sweep instead of once per emitted
    /// token. Each row is its own one-row segment of
    /// [`Linear::forward_stacked`](crate::linear::Linear::forward_stacked):
    /// its logits, fault draws (at `(usize::MAX / 2, row 0)`), verify,
    /// repair and ledger are exactly a one-row `forward` of that row. Feed
    /// `f` owns the next `f.sample_rows` rows — the offsets `settle` reads —
    /// and a sweep that samples nothing runs no head.
    fn head<I: FaultInjector>(
        &self,
        feeds: &[SweepFeed],
        results: &[(Option<MatrixF32>, FtReport)],
        inj: &I,
    ) -> (MatrixF32, Vec<FtReport>) {
        let model = self.model.borrow();
        let rows: Vec<&MatrixF32> = (feeds.iter().zip(results))
            .filter(|(f, _)| f.sample_rows > 0)
            .map(|(f, (rows, _))| {
                let rows = rows.as_ref().expect("sampling feed returns hidden rows");
                assert_eq!(rows.rows(), f.sample_rows, "{}: sampled rows", f.stream);
                rows
            })
            .collect();
        if rows.is_empty() {
            return (Matrix::zeros(0, model.lm_head.out_features()), Vec::new());
        }
        let stack = Matrix::vstack(&rows);
        let segments = vec![1; stack.rows()];
        model
            .lm_head
            .forward_stacked(&stack, &segments, inj, usize::MAX / 2, &model.thresholds)
    }

    /// Phase 5: per stream, in feed order — the sweep's events and poison
    /// trigger ([`announce`]), then the action
    /// [`RecoveryPolicy::decide`](ft_core::serve::RecoveryPolicy::decide)
    /// returns: continue ([`emit`]), abort, or truncate or rebuild the
    /// cache and requeue the stream's history.
    ///
    /// Whatever a poisoned sweep produced was computed over damaged state,
    /// so a recovering or aborted stream samples nothing: a token sampled
    /// over damage must not enter the history.
    ///
    /// [`announce`]: ServeSession::announce
    /// [`emit`]: ServeSession::emit
    fn settle(
        &mut self,
        feeds: &[SweepFeed],
        slots: &[usize],
        ledgers: Vec<FtReport>,
        head: &(MatrixF32, Vec<FtReport>),
    ) {
        let mut head_row = 0;
        for ((feed, &slot), ledger) in feeds.iter().zip(slots).zip(ledgers) {
            let (id, at) = (feed.stream, head_row);
            head_row += feed.sample_rows;
            let poisoned = self.announce(feed, slot, &ledger);
            let cache = &self.caches[slot].1;
            let state = self
                .scheduler
                .active_stream(id)
                .expect("planned stream is active");
            let (policy, attempts) = (state.recovery, state.recoveries);
            // The emitted history's final row bounds the rollback target.
            let target = (poisoned > 0)
                .then(|| cache.rollback_target(feed.window, state.total().saturating_sub(1)))
                .flatten();
            let attempt = match policy.decide(attempts, poisoned, target) {
                RecoveryAction::Continue => {
                    self.emit(feed, slot, at, ledger, head);
                    continue;
                }
                RecoveryAction::Abort { attempts } => {
                    let reason = FinishReason::AbortedPoisoned { attempts };
                    self.scheduler.abort(id, &ledger, reason);
                    continue;
                }
                // Drop the first poisoned attended block and everything
                // after it, and replay only that suffix — O(window)
                // recovery, not O(history). The boundary-heal report is
                // discarded: read-time verification already counted the
                // evidence, and surviving marks stay sticky.
                RecoveryAction::ReplaySuffix(p) => {
                    let _ = self.caches[slot].1.truncate_to(CacheMark::at(p));
                    self.scheduler.requeue(id, &ledger, p)
                }
                // Fresh cache, full replay.
                RecoveryAction::ReplayAll => {
                    self.caches[slot].1 = self.model.borrow().new_cache_with(feed.protection);
                    self.scheduler.requeue(id, &ledger, 0)
                }
            };
            self.events.push(EngineEvent::Recovering {
                stream: id,
                attempt,
            });
        }
    }

    /// The sweep's events for one stream, in order — `FaultCorrected`,
    /// `EvictedBlocks`, `CachePoisoned` — and the poison `settle` decides
    /// on. The poison trigger is scoped to the stream's attended window:
    /// the sticky per-block marks work for every backend (append-time
    /// laundering needs no protected kernel), and the sweep ledger adds the
    /// EFTA read path's live uncorrectable detections. Marks behind the
    /// window — and marks retired by eviction, which leave with their
    /// block — must not trigger.
    fn announce(&mut self, feed: &SweepFeed, slot: usize, ledger: &FtReport) -> u64 {
        let stream = feed.stream;
        if ledger.total_detected() > 0 {
            self.events.push(EngineEvent::FaultCorrected {
                stream,
                detected: ledger.total_detected(),
                repaired: ledger.total_repaired(),
            });
        }
        if ledger.cache_evicted_blocks > 0 {
            self.events.push(EngineEvent::EvictedBlocks {
                stream,
                blocks: ledger.cache_evicted_blocks,
            });
        }
        let poisoned = self.caches[slot].1.poisoned_attended(feed.window);
        let poisoned = poisoned.max(ledger.cache_uncorrectable);
        if poisoned > 0 {
            self.events.push(EngineEvent::CachePoisoned {
                stream,
                events: poisoned,
            });
        }
        poisoned
    }

    /// Settle a stream that continues: sample each of its head rows
    /// (stacked from row `at`) in order, stopping at the first rejected
    /// draft, merging each sampled row's head ledger into the stream's
    /// `ledger` for the sweep (the sweep's `FaultCorrected` event is already
    /// out), roll the rejected provisional rows back, and record what was
    /// committed.
    fn emit(
        &mut self,
        feed: &SweepFeed,
        slot: usize,
        at: usize,
        mut ledger: FtReport,
        (logits, head_ledgers): &(MatrixF32, Vec<FtReport>),
    ) {
        let id = feed.stream;
        if feed.sample_rows == 0 {
            self.scheduler.record(id, None, &ledger);
            return;
        }
        let state = self
            .scheduler
            .active_stream(id)
            .expect("planned stream is active");
        let (sampling, position) = (state.sampling, state.total());
        let drafts = &feed.tokens[feed.tokens.len() - feed.speculate..];
        let mut emitted: Vec<u32> = Vec::with_capacity(feed.sample_rows);
        let mut accepted = 0usize;
        for j in 0..feed.sample_rows {
            ledger = ledger.merged(&head_ledgers[at + j]);
            let t = sample_token(sampling, logits.row(at + j), id, position + j);
            emitted.push(t);
            self.events.push(EngineEvent::TokenEmitted {
                stream: id,
                token: t,
            });
            if j < drafts.len() && t == drafts[j] {
                accepted += 1;
            } else {
                break;
            }
        }
        if accepted < feed.speculate {
            // Roll the rejected provisional rows back so the cache again
            // trails the emitted history by exactly one row — by
            // construction the next sweep starts from state bit-identical
            // to plain decode's.
            let _ = self.caches[slot]
                .1
                .truncate_to(CacheMark::at(position + accepted));
        }
        if feed.speculate == 0 {
            self.scheduler.record(id, Some(emitted[0]), &ledger);
        } else {
            self.scheduler
                .record_speculative(id, &emitted, feed.speculate, accepted, &ledger);
        }
    }

    /// Report whether `stream`'s consumer still owes a drain of events it
    /// already produced — the serving loop's one backpressure fact, read by
    /// the next sweep's plan ([`DecodeScheduler::set_blocked`]).
    pub fn set_blocked(&mut self, stream: StreamId, blocked: bool) {
        self.scheduler.set_blocked(stream, blocked);
    }

    /// Give one stream away for adoption by another session (work
    /// migration); the scheduler picks it ([`DecodeScheduler::export`]). If
    /// it held a slot it is parked first: route the `Preempted` waiting in
    /// [`drain_events`](ServeSession::drain_events) before moving it.
    pub fn export_stream(&mut self) -> Option<StreamState> {
        let state = self.scheduler.export()?;
        self.absorb_park_resume();
        Some(state)
    }

    /// Adopt a stream another session gave away: the receiving half of
    /// [`export_stream`](ServeSession::export_stream). Only the scheduler
    /// state (fault ledger included) travels; the stream joins the queue
    /// and rebuilds its cache by chunked re-prefill of its history on the
    /// next planned sweep, bit-identical to a never-migrated run. If it was
    /// parked on the donor, admission here emits the
    /// [`EngineEvent::Resumed`] the park promised.
    pub fn adopt_stream(&mut self, state: StreamState) {
        self.scheduler.adopt_pending(state);
    }

    /// The protection level of `stream`'s *resident* cache — `None` while
    /// the stream holds no cache (pending, parked, or retired). Every
    /// cache the session builds for a stream — admission, re-prefill
    /// recovery, park/resume, migration re-adoption — must come back at
    /// the level its [`GenerationRequest`] asked for; this is the
    /// introspection hook the protection-survival suite pins that with.
    pub fn stream_cache_protection(&self, stream: StreamId) -> Option<ProtectionLevel> {
        self.caches
            .iter()
            .find(|(id, _)| *id == stream)
            .map(|(_, c)| c.protection())
    }

    /// Turn the scheduler's park/resume transitions into session state:
    /// a parked stream's cache is dropped (its fault ledger stays in the
    /// scheduler state), and both directions surface as typed events.
    fn absorb_park_resume(&mut self) {
        for id in self.scheduler.drain_parked() {
            self.caches.retain(|(cid, _)| *cid != id);
            self.events.push(EngineEvent::Preempted { stream: id });
        }
        for id in self.scheduler.drain_resumed() {
            self.events.push(EngineEvent::Resumed { stream: id });
        }
    }

    /// True when no stream is active or queued.
    pub fn idle(&self) -> bool {
        self.scheduler.idle()
    }

    /// Streams currently holding decode slots.
    pub fn active_streams(&self) -> usize {
        self.scheduler.active_len()
    }

    /// Streams waiting for a free slot.
    pub fn pending_streams(&self) -> usize {
        self.scheduler.pending_len()
    }

    /// Current total cache footprint across resident streams: FP16 K/V
    /// payload plus FP32 checksum metadata, all layers.
    pub fn cache_bytes(&self) -> u64 {
        self.caches
            .iter()
            .map(|(_, c)| c.size_bytes() + c.checksum_bytes())
            .sum()
    }

    /// Largest [`cache_bytes`](ServeSession::cache_bytes) observed after
    /// any sweep — the bounded-memory serving metric: under a sliding
    /// window this flattens instead of growing with generated length.
    pub fn peak_cache_bytes(&self) -> u64 {
        self.peak_cache_bytes
    }

    /// The footprint split at the peak-occupancy sweep (sampled at the
    /// same instant as [`peak_cache_bytes`](ServeSession::peak_cache_bytes),
    /// before that sweep's retiring streams drop their caches): how much
    /// of the peak was FP16 payload vs FP32 protection metadata.
    pub fn peak_cache_breakdown(&self) -> SizeBreakdown {
        self.peak_cache_breakdown
    }

    /// Current cache footprint split into FP16 payload vs FP32 protection
    /// metadata, summed over resident streams (see
    /// [`ModelKvCache::size_breakdown`]) — how protection's byte overhead
    /// shows up in a live session.
    pub fn cache_breakdown(&self) -> SizeBreakdown {
        self.caches
            .iter()
            .map(|(_, c)| c.size_breakdown())
            .fold(SizeBreakdown::default(), |acc, b| acc.merged(&b))
    }

    /// Drain retired streams, ordered by stream id.
    pub fn take_finished(&mut self) -> Vec<FinishedStream> {
        self.collect_finished();
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by_key(|f| f.id);
        out
    }

    fn collect_finished(&mut self) {
        for s in self.scheduler.take_finished() {
            self.caches.retain(|(id, _)| *id != s.id);
            let reason = s.finish.unwrap_or(FinishReason::MaxTokens);
            self.events.push(EngineEvent::Finished {
                stream: s.id,
                reason,
            });
            self.finished.push(FinishedStream {
                id: s.id,
                tokens: s.tokens(),
                attention: s.report,
                finish: reason,
                recoveries: s.recoveries,
                preemptions: s.preemptions,
                recovery_fed: s.recovery_fed,
                spec_drafted: s.spec_drafted,
                spec_accepted: s.spec_accepted,
                protection: s.protection,
            });
        }
    }
}

/// Pick the next token from one row of logits per the stream's
/// [`SamplingMode`]. Deterministic in every mode, and keyed by the token's
/// absolute position so a re-prefill recovery re-draws exactly the tokens
/// it replays.
fn sample_token(mode: SamplingMode, row: &[f32], stream: StreamId, position: usize) -> u32 {
    match mode {
        SamplingMode::Greedy => argmax(row) as u32,
        SamplingMode::TopK { k, seed } => {
            let k = k.clamp(1, row.len());
            // Partition the k largest to the front, then order only those
            // k — O(V + k log k) on the per-token hot path instead of a
            // full vocab sort. The comparator is total (ties to the lower
            // index), so the selected set and order are identical to a
            // full sort's first k.
            let cmp = |a: &usize, b: &usize| {
                row[*b]
                    .partial_cmp(&row[*a])
                    .unwrap_or(core::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            };
            let mut idx: Vec<usize> = (0..row.len()).collect();
            if k < idx.len() {
                idx.select_nth_unstable_by(k - 1, cmp);
                idx.truncate(k);
            }
            idx.sort_unstable_by(cmp);
            let h = mix64(
                seed ^ stream.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (position as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            );
            idx[(h % k as u64) as usize] as u32
        }
    }
}
