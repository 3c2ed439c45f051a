//! The continuous-batching serving session: many generation streams over
//! one [`TransformerModel`], multiplexed through shared batched sweeps
//! that emit typed [`EngineEvent`]s. One sweep is five named phases —
//! `plan → feed → run_sweep → head → settle` — each a private method of
//! [`ServeSession`].

use super::{argmax, ModelKvCache, SweepFeed, TransformerModel};
use crate::linear::LinearProtection;
use ft_core::kv::{CacheMark, SizeBreakdown};
use ft_core::protect::ProtectionLevel;
use ft_core::serve::{
    DecodeScheduler, EngineEvent, FinishReason, GenerationRequest, PlanItem, RecoveryAction,
    SamplingMode, SchedulerConfig, StreamId, StreamState,
};
use ft_core::types::FtReport;
use ft_num::{Matrix, MatrixF32};
use ft_sim::{FaultInjector, FaultSite};
use std::borrow::Cow;

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
///   head       LM head over every sampling row (or per row)
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
/// [`RecoveryPolicy::ReprefillBounded`](ft_core::serve::RecoveryPolicy::ReprefillBounded),
/// `settle` discards the suspect sweep output, drops the stream's cache,
/// replays its prompt *plus every already-emitted token* through chunked
/// prefill, and resumes decoding — deterministic sampling makes a
/// successful recovery bit-identical to an undamaged run (pinned by
/// `tests/engine_recovery.rs`).
///
/// [`TransformerModel::generate`] is the one-stream special case.
///
/// The session is generic over model *ownership*: `M` is anything that
/// borrows a [`TransformerModel`] — `&TransformerModel` for the classic
/// in-thread session ([`TransformerModel::serve`]), or the model itself
/// for the owned, `Send` session a serving loop moves onto its worker
/// thread ([`TransformerModel::into_serve`]).
pub struct ServeSession<M: core::borrow::Borrow<TransformerModel> = TransformerModel> {
    model: M,
    scheduler: DecodeScheduler,
    caches: Vec<(StreamId, ModelKvCache)>,
    finished: Vec<FinishedStream>,
    events: Vec<EngineEvent>,
    recoveries: u64,
    preemptions: u64,
    peak_cache_bytes: u64,
    peak_cache_breakdown: SizeBreakdown,
}

impl<M: core::borrow::Borrow<TransformerModel>> ServeSession<M> {
    /// Open a session over `model` (borrowed or owned) with the given
    /// scheduler sizing — the common constructor behind
    /// [`TransformerModel::serve_with`] and
    /// [`TransformerModel::into_serve`].
    pub fn new(model: M, cfg: SchedulerConfig) -> Self {
        let (bytes_per_token, block) = {
            let m: &TransformerModel = model.borrow();
            // Projection for admission: FP16 K+V payload per token per
            // layer (2 tensors × hidden × 2 bytes); checksum metadata
            // rides along in the noted totals once streams are resident.
            (
                (4 * m.config.hidden * m.config.layers) as u64,
                m.blocks.first().map_or(0, |b| b.mha.cache_block),
            )
        };
        let mut scheduler = DecodeScheduler::new(cfg);
        scheduler.set_bytes_per_token(bytes_per_token);
        // Under a sliding window a stream keeps at most ~window +
        // cache_block rows resident however long its prompt — the window
        // is a per-request property now, so the scheduler derives each
        // windowed stream's projection cap itself; we supply the
        // block-granularity slack (one partially evictable block).
        scheduler.set_window_slack(block);
        ServeSession {
            model,
            scheduler,
            caches: Vec::new(),
            finished: Vec::new(),
            events: Vec::new(),
            recoveries: 0,
            preemptions: 0,
            peak_cache_bytes: 0,
            peak_cache_breakdown: SizeBreakdown::default(),
        }
    }
    /// Submit a typed [`GenerationRequest`]. `max_new_tokens` is clamped to
    /// the model's `max_seq`; a request without its own window inherits the
    /// model default ([`TransformerModel::with_window`]). The stream joins
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
    /// `max_seq` (panicking with the refusal), clamp the token budget to
    /// `max_seq`, and resolve the model-default window for requests without
    /// their own.
    fn resolve_request(&self, mut req: GenerationRequest) -> GenerationRequest {
        let model = self.model.borrow();
        if let Err(e) = req.check(model.config.max_seq) {
            panic!("{e}");
        }
        req.max_new_tokens = req
            .max_new_tokens
            .min(model.config.max_seq - req.prompt.len());
        req.window = req.window.or(model.window());
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
    /// [`sweep_events`](ServeSession::sweep_events) without sweeping —
    /// park transitions driven from outside a sweep (an explicit
    /// [`park_stream`](ServeSession::park_stream), work migration) queue
    /// their events here, and the serving loop must route them before
    /// shipping a stream elsewhere.
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
            self.settle(&feeds, &slots, results, &head, inj);
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
    /// token. Row `r` of the result is bit-identical to a one-row forward
    /// of stacked row `r` (every logit is the same chain). [`Head::PerRow`]
    /// — evaluate per row instead — when no feed samples, and when the head
    /// could fire or keep a ledger: BER draws, `fired()` and head
    /// detections then stay per (stream, row). Under speculation, rows past
    /// a rejected draft are computed here and dropped. Feed `f` owns the
    /// next `f.sample_rows` stacked rows — the offsets `settle` reads.
    fn head<I: FaultInjector>(
        &self,
        feeds: &[SweepFeed],
        results: &[(Option<MatrixF32>, FtReport)],
        inj: &I,
    ) -> Head {
        let model = self.model.borrow();
        if inj.may_fire(FaultSite::LinearAccum)
            || model.lm_head.protection != LinearProtection::None
        {
            return Head::PerRow;
        }
        let rows: Vec<&MatrixF32> = (feeds.iter().zip(results))
            .filter(|(f, _)| f.sample_rows > 0)
            .map(|(f, (rows, _))| {
                let rows = rows.as_ref().expect("sampling feed returns hidden rows");
                assert_eq!(rows.rows(), f.sample_rows, "{}: sampled rows", f.stream);
                rows
            })
            .collect();
        if rows.is_empty() {
            return Head::PerRow;
        }
        let (logits, _) = model.lm_head.forward(
            &Matrix::vstack(&rows),
            inj,
            usize::MAX / 2,
            &model.thresholds,
        );
        Head::Stacked(logits)
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
    fn settle<I: FaultInjector>(
        &mut self,
        feeds: &[SweepFeed],
        slots: &[usize],
        results: Vec<(Option<MatrixF32>, FtReport)>,
        head: &Head,
        inj: &I,
    ) {
        let mut head_row = 0;
        for ((feed, &slot), (rows, ledger)) in feeds.iter().zip(slots).zip(results) {
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
                    self.emit(feed, slot, at, (rows, ledger), head, inj);
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
                    self.scheduler.requeue_suffix(id, &ledger, p)
                }
                // Fresh cache, full replay.
                RecoveryAction::ReplayAll => {
                    self.caches[slot].1 = self.model.borrow().new_cache_with(feed.protection);
                    self.scheduler.requeue(id, &ledger)
                }
            };
            self.recoveries += 1;
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
    /// draft, roll the rejected provisional rows back, and record what was
    /// committed together with the stream's `ledger` for the sweep.
    fn emit<I: FaultInjector>(
        &mut self,
        feed: &SweepFeed,
        slot: usize,
        at: usize,
        (rows, mut ledger): (Option<MatrixF32>, FtReport),
        head: &Head,
        inj: &I,
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
        let rows = rows.expect("sampling feed returns hidden rows");
        let drafts = &feed.tokens[feed.tokens.len() - feed.speculate..];
        let mut emitted: Vec<u32> = Vec::with_capacity(feed.sample_rows);
        let mut accepted = 0usize;
        for j in 0..feed.sample_rows {
            let logits = head.logits(self.model.borrow(), &rows, at, j, inj, &mut ledger);
            let t = sample_token(sampling, &logits, id, position + j);
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

    /// Park an active stream: drop its cache, keep its emitted tokens, and
    /// requeue it to be resumed later through the bit-identical chunked
    /// re-prefill path. Emits [`EngineEvent::Preempted`] (in the next
    /// [`sweep_events`](ServeSession::sweep_events) batch) on success.
    /// Returns `false` — a no-op — when the stream is not active, is
    /// mid-sweep, or is already done.
    pub fn park_stream(&mut self, stream: StreamId) -> bool {
        let parked = self.scheduler.park(stream);
        self.absorb_park_resume();
        parked
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

    /// Remove a *pending* stream for adoption by another session (work
    /// migration between fleet shards). Active streams must be
    /// [`park_stream`](ServeSession::park_stream)ed first — a parked
    /// stream has no cache, so only the scheduler state (fault ledger
    /// included) travels; the adopting shard rebuilds the cache by
    /// chunked re-prefill, bit-identical to a never-migrated run. Route
    /// [`drain_events`](ServeSession::drain_events) before extracting so
    /// the park's `Preempted` event is not lost with the stream.
    pub fn extract_stream(&mut self, stream: StreamId) -> Option<StreamState> {
        let state = self.scheduler.extract_pending(stream)?;
        debug_assert!(
            !self.caches.iter().any(|(id, _)| *id == stream),
            "a pending stream cannot hold a cache"
        );
        Some(state)
    }

    /// Adopt a stream extracted from another session: the receiving half
    /// of [`extract_stream`](ServeSession::extract_stream). The stream
    /// joins the queue and re-prefills its history on the next planned
    /// sweep; if it was parked on the donor, admission here emits the
    /// [`EngineEvent::Resumed`] the park promised.
    pub fn adopt_stream(&mut self, state: StreamState) {
        self.scheduler.adopt_pending(state);
    }

    /// Total park transitions (preemption + backpressure) across the
    /// session; per-stream counts ride on [`FinishedStream::preemptions`].
    pub fn preemptions(&self) -> u64 {
        self.preemptions
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
            self.preemptions += 1;
            self.events.push(EngineEvent::Preempted { stream: id });
        }
        for id in self.scheduler.drain_resumed() {
            self.events.push(EngineEvent::Resumed { stream: id });
        }
    }

    /// Total re-prefill recovery attempts across the session — the
    /// serving report's headline recovery count. Attempts by streams that
    /// later aborted are included; per-stream detail (attempts + outcome)
    /// rides on [`FinishedStream::recoveries`] / [`FinishedStream::finish`].
    pub fn recoveries(&self) -> u64 {
        self.recoveries
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
    /// [`ModelKvCache::size_breakdown`]) — how the graded protection
    /// lattice's byte overhead shows up in a live session.
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

/// The LM head's share of one sweep: what the `head` phase hands `settle`.
enum Head {
    /// Every sampling row's logits from one stacked GEMM; feed `f` owns
    /// the next `f.sample_rows` rows.
    Stacked(MatrixF32),
    /// The head runs one row at a time, in emission order, stopping at the
    /// first rejected draft: the injector is queried for the logits of
    /// emitted tokens only.
    PerRow,
}

impl Head {
    /// Logits of sampling row `j` of the feed whose head rows start at
    /// stacked row `at` (`rows`: that feed's normed hidden rows). Per row,
    /// the head runs on that row alone, and its detections reach the
    /// stream's `ledger` only — the sweep's `FaultCorrected` event is
    /// already out.
    fn logits<I: FaultInjector>(
        &self,
        model: &TransformerModel,
        rows: &MatrixF32,
        at: usize,
        j: usize,
        inj: &I,
        ledger: &mut FtReport,
    ) -> Cow<'_, [f32]> {
        match self {
            Head::Stacked(logits) => Cow::Borrowed(logits.row(at + j)),
            Head::PerRow => {
                let row = Matrix::from_fn(1, rows.cols(), |_, c| rows.get(j, c));
                let (logits, head_rep) =
                    model
                        .lm_head
                        .forward(&row, inj, usize::MAX / 2, &model.thresholds);
                *ledger = ledger.merged(&head_rep);
                Cow::Owned(logits.into_vec())
            }
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

/// SplitMix64 finaliser (the stateless draw behind [`SamplingMode::TopK`]).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
