//! Full transformer model: embeddings → blocks → final norm → LM head.

use crate::block::TransformerBlock;
use crate::configs::ModelConfig;
use crate::embed::Embedding;
use crate::linear::{Linear, LinearProtection};
use crate::mha::{BackendKind, KvCache};
use crate::norm::LayerNorm;
use ft_abft::thresholds::Thresholds;
use ft_core::kv::{CacheMark, KvReadReport, SizeBreakdown};
use ft_core::protect::ProtectionLevel;
use ft_core::serve::{
    DecodeScheduler, EngineEvent, FinishReason, GenerationRequest, RecoveryPolicy, SamplingMode,
    SchedulerConfig, StreamId, StreamState,
};
use ft_core::types::FtReport;
use ft_num::{Matrix, MatrixF32};
use ft_sim::{FaultInjector, FaultSite};
use rayon::prelude::*;

/// A complete transformer for inference experiments.
#[derive(Clone, Debug)]
pub struct TransformerModel {
    /// Model hyper-parameters.
    pub config: ModelConfig,
    /// Embedding table + positions.
    pub embed: Embedding,
    /// Transformer blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Final LayerNorm.
    pub final_norm: LayerNorm,
    /// Language-model head (hidden → vocab).
    pub lm_head: Linear,
    /// Detection thresholds used by all protected layers.
    pub thresholds: Thresholds,
}

/// Per-layer KV caches plus the number of token positions fed so far — the
/// whole mutable state of one decode stream.
#[derive(Clone, Debug)]
pub struct ModelKvCache {
    /// One checksummed [`KvCache`] per transformer block.
    pub layers: Vec<KvCache>,
    /// Tokens decoded into the caches so far (the next token's position).
    pub positions: usize,
}

impl ModelKvCache {
    /// Tokens fed so far.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Total FP16 payload bytes across layers.
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(KvCache::size_bytes).sum()
    }

    /// Total FP32 checksum-metadata bytes across layers.
    pub fn checksum_bytes(&self) -> u64 {
        self.layers.iter().map(KvCache::checksum_bytes).sum()
    }

    /// Byte footprint split into payload vs protection metadata, summed
    /// across layers (see [`KvCache::size_breakdown`]).
    pub fn size_breakdown(&self) -> SizeBreakdown {
        self.layers
            .iter()
            .map(KvCache::size_breakdown)
            .fold(SizeBreakdown::default(), |acc, b| acc.merged(&b))
    }

    /// The graded protection level this stream's caches were created at
    /// (every layer shares it — see
    /// [`TransformerModel::new_cache_with`]).
    pub fn protection(&self) -> ProtectionLevel {
        self.layers
            .first()
            .map(|c| c.protection())
            .unwrap_or_default()
    }

    /// Sticky unrepairable-damage count across layers (see
    /// [`KvCache::poisoned`]): non-zero means this stream's cached state is
    /// permanently wrong and the only recovery is a fresh prefill. Works
    /// for every backend, including the unprotected decode paths that
    /// never report cache events.
    pub fn poisoned(&self) -> u64 {
        self.layers.iter().map(KvCache::poisoned).sum()
    }

    /// Sticky unrepairable-damage count restricted, per layer, to the
    /// blocks a decode step at the current length would attend under
    /// `window` (see [`KvCache::poisoned_attended`]) — the serving
    /// engine's re-prefill trigger: damage that slid behind the attention
    /// window can no longer reach a future token and must not trigger
    /// recovery (it is retired outright once eviction drops its block).
    /// Like [`poisoned`](ModelKvCache::poisoned), works for every backend.
    pub fn poisoned_attended(&self, window: Option<usize>) -> u64 {
        self.layers
            .iter()
            .map(|c| c.poisoned_attended(window))
            .sum()
    }

    /// Checkpoint the current length for a later
    /// [`truncate_to`](ModelKvCache::truncate_to) — every layer shares the
    /// same logical length, so one [`CacheMark`] covers them all.
    pub fn checkpoint(&self) -> CacheMark {
        CacheMark::at(self.positions)
    }

    /// Roll every layer's cache back to `mark` (see
    /// [`KvCache::truncate_to`]) and rewind `positions` to match. The
    /// merged boundary-heal report is returned for callers that audit it;
    /// the serving engine discards it — correction evidence was already
    /// counted when the rows were read, and anything unlocatable is
    /// carried by the surviving blocks' sticky poison marks.
    pub fn truncate_to(&mut self, mark: CacheMark) -> KvReadReport {
        let mut report = KvReadReport::default();
        for c in &mut self.layers {
            report = report.merged(&c.truncate_to(mark));
        }
        self.positions = mark.position();
        report
    }

    /// Earliest attended block carrying a sticky poison mark in *any*
    /// layer (see [`KvCache::first_poisoned_attended_block`]) — the
    /// damage-localization query behind
    /// [`RecoveryPolicy::ReprefillPartial`]. Layers share geometry,
    /// length, and eviction schedule, so block indices are comparable
    /// across them.
    pub fn first_poisoned_attended_block(&self, window: Option<usize>) -> Option<usize> {
        self.layers
            .iter()
            .filter_map(|c| c.first_poisoned_attended_block(window))
            .min()
    }

    /// Partial-recovery rollback target: the row count `p` to
    /// [`truncate_to`](ModelKvCache::truncate_to) so that the first
    /// poisoned attended block is dropped and re-prefilling rows
    /// `p..` rebuilds a provably clean suffix. `upper` bounds the target
    /// at the last row the caller can re-feed (the emitted history's
    /// final row — anything past it is provisional speculation state).
    ///
    /// Returns `None` — fall back to a full re-prefill — when any of the
    /// viability conditions fail:
    /// * no layer localizes the damage to a block (live uncorrectable
    ///   reads without a sticky mark cannot be rolled back surgically),
    /// * the target would keep nothing (the poisoned block is the first
    ///   attended block, or sits at the eviction frontier),
    /// * the first re-fed row's attention window reaches behind the
    ///   eviction frontier (the rows it must attend no longer exist), or
    /// * a block the rebuilt suffix will attend is itself poisoned
    ///   (partial recovery would re-trigger forever on the same mark).
    pub fn rollback_target(&self, window: Option<usize>, upper: usize) -> Option<usize> {
        let lc = self.layers.first()?;
        let (block, start) = (lc.block(), lc.start());
        let fpb = self.first_poisoned_attended_block(window)?;
        let p = (fpb * block).min(upper);
        if p == 0 || p <= start {
            return None;
        }
        // First re-fed row (position p, visible length p + 1): every row
        // it attends must still be resident after the truncation.
        let r0 = match window {
            Some(w) if p + 1 > w => p + 1 - w,
            _ => 0,
        };
        if r0 < start {
            return None;
        }
        // Every block any re-fed row can attend must be clean — windows
        // only move forward, so length p + 1 attends the earliest set.
        let kept = p.div_ceil(block);
        if (r0 / block..kept).any(|b| self.layers.iter().any(|c| c.block_poisoned(b) > 0)) {
            return None;
        }
        Some(p)
    }
}

impl TransformerModel {
    /// Random model (seeded) with every block using `kernel`.
    ///
    /// The embedding, each block and the LM head draw from their own seeds,
    /// so they are built in parallel and reassembled in order — the same
    /// weights as building them one after another.
    pub fn random(seed: u64, config: ModelConfig, kernel: BackendKind) -> Self {
        enum Part {
            Embed(Embedding),
            Block(Box<TransformerBlock>),
            Head(Linear),
        }
        let parts: Vec<Part> = (0..config.layers + 2)
            .into_par_iter()
            .map(|p| match p {
                0 => Part::Embed(Embedding::random(
                    seed,
                    config.vocab,
                    config.hidden,
                    config.max_seq,
                )),
                // The LM head is a huge vocab-wide projection; the paper
                // protects the transformer layers, so it stays unprotected.
                1 => Part::Head(
                    Linear::random(seed + 7, config.hidden, config.vocab)
                        .with_protection(LinearProtection::None),
                ),
                p => Part::Block(Box::new(TransformerBlock::random(
                    seed + 1000 * (p as u64 - 1),
                    config.hidden,
                    config.heads,
                    config.ffn_dim,
                    kernel,
                ))),
            })
            .collect();
        let (mut embed, mut lm_head, mut blocks) = (None, None, Vec::new());
        for part in parts {
            match part {
                Part::Embed(e) => embed = Some(e),
                Part::Head(h) => lm_head = Some(h),
                Part::Block(b) => blocks.push(*b),
            }
        }
        TransformerModel {
            config,
            embed: embed.expect("part 0 is the embedding"),
            blocks,
            final_norm: LayerNorm::new(config.hidden),
            lm_head: lm_head.expect("part 1 is the LM head"),
            thresholds: Thresholds::calibrated(),
        }
    }

    /// Forward pass: token ids → logits (`seq × vocab`).
    pub fn forward<I: FaultInjector>(&self, tokens: &[u32], inj: &I) -> (MatrixF32, FtReport) {
        let (h, report) = self.forward_hidden(tokens, inj);
        let (logits, head_rep) = self
            .lm_head
            .forward(&h, inj, usize::MAX / 2, &self.thresholds);
        (logits, report.merged(&head_rep))
    }

    /// Forward pass up to the final hidden states (`seq × hidden`),
    /// skipping the expensive LM head — what the per-token timing
    /// experiments measure.
    pub fn forward_hidden<I: FaultInjector>(
        &self,
        tokens: &[u32],
        inj: &I,
    ) -> (MatrixF32, FtReport) {
        let mut h = self.embed.forward(tokens);
        let mut report = FtReport::default();
        for (l, block) in self.blocks.iter().enumerate() {
            let (next, rep) = block.forward(&h, inj, l, &self.thresholds);
            h = next;
            report = report.merged(&rep);
        }
        self.final_norm.forward(&mut h);
        (h, report)
    }

    /// Enable/disable causal masking on every block's attention (decode and
    /// prefill then compute the same function; EFTA backends support the
    /// causal setting only through the decode path).
    pub fn with_causal(mut self, causal: bool) -> Self {
        for b in &mut self.blocks {
            b.mha.causal = causal;
        }
        self
    }

    /// *Default* sliding-window attention for the decode paths: each step
    /// attends only the cache blocks holding the most recent `window`
    /// rows, and storage behind the window is front-evicted before each
    /// append — per-stream cache memory is bounded by roughly
    /// `window + cache_block` rows per layer instead of growing with the
    /// sequence. Token-at-a-time decode, chunked prefill, and scheduled
    /// serving all compute the same windowed function (pinned by
    /// `tests/eviction_equivalence.rs`). Decode-only: the prefill path is
    /// unaffected.
    ///
    /// Since the typed-request redesign the window is a **per-stream**
    /// property: this builder is the compatibility shim that sets the
    /// default a [`GenerationRequest`] without its own
    /// [`window`](ft_core::serve::GenerationRequest::window) inherits at
    /// [`ServeSession::submit_request`] time. Requests that do set one
    /// override it, so one session can serve full-attention and windowed
    /// streams side by side. [`TransformerModel::decode_step`] (the raw
    /// token-at-a-time loop, which has no request) always uses the default.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "a zero-row window cannot serve decode");
        for b in &mut self.blocks {
            b.mha.window = Some(window);
        }
        self
    }

    /// Rows per KV-cache block on every block's attention (the granularity
    /// of sliding-window eviction; default 64, the paper's CTA tile).
    /// Affects caches created *after* the call ([`new_cache`]).
    ///
    /// [`new_cache`]: TransformerModel::new_cache
    pub fn with_cache_block(mut self, cache_block: usize) -> Self {
        assert!(cache_block > 0);
        for b in &mut self.blocks {
            b.mha.cache_block = cache_block;
        }
        self
    }

    /// The decode sliding window configured via
    /// [`with_window`](TransformerModel::with_window), if any.
    pub fn window(&self) -> Option<usize> {
        self.blocks.first().and_then(|b| b.mha.window)
    }

    /// Fresh decode state: one empty checksummed KV cache per block.
    pub fn new_cache(&self) -> ModelKvCache {
        self.new_cache_with(ProtectionLevel::Full)
    }

    /// Fresh decode state at a graded protection level: one empty KV cache
    /// per block, each created at `level` (see [`ProtectionLevel`]).
    /// [`new_cache`](TransformerModel::new_cache) is the `Full` case —
    /// bit-identical to the pre-lattice behavior.
    pub fn new_cache_with(&self, level: ProtectionLevel) -> ModelKvCache {
        ModelKvCache {
            layers: self
                .blocks
                .iter()
                .map(|b| b.mha.new_cache().with_protection(level))
                .collect(),
            positions: 0,
        }
    }

    /// One incremental-decode step: embed `token` at the cache's next
    /// position, run every block through its KV cache, and return the
    /// `1 × vocab` logits row. O(cache len) attention and O(1) projection
    /// work — versus a full prefill per token. This is the serving sweep
    /// with one stream feeding one row: stream 0 of
    /// [`serve_expose_step`] is this step's exposure lattice exactly.
    ///
    /// Before computing, all cached state is exposed to the injector at
    /// [`ft_sim::FaultSite::KvCache`]: cache-resident SEUs accumulate
    /// *between* steps, which is exactly the residency window the
    /// checksummed cache protects.
    pub fn decode_step<I: FaultInjector>(
        &self,
        token: u32,
        cache: &mut ModelKvCache,
        inj: &I,
    ) -> (MatrixF32, FtReport) {
        let feed = SweepFeed {
            stream: StreamId(0),
            tokens: vec![token],
            sample_rows: 1,
            speculate: 0,
            window: self.window(),
            protection: cache.protection(),
        };
        let (h, report) = self
            .run_sweep(&[feed], &mut [cache], inj)
            .pop()
            .expect("one feed in, one result out");
        let h = h.expect("the feed asked for its one row");
        let (logits, head_rep) = self
            .lm_head
            .forward(&h, inj, usize::MAX / 2, &self.thresholds);
        (logits, report.merged(&head_rep))
    }

    /// Greedy generation over the checksummed KV-cache decode path — the
    /// one-stream special case of [`TransformerModel::serve`]: the prompt
    /// is consumed in prefill chunks (one batched sweep per chunk, the
    /// vocab-wide LM head run only where a token is actually sampled),
    /// then each new token costs one O(cache) decode sweep instead of an
    /// O(seq) prefill.
    ///
    /// A request with no token budget (`new_tokens == 0`, or a prompt
    /// already at `max_seq`) returns the prompt without running the model
    /// at all — its report is empty. Use [`TransformerModel::decode_step`]
    /// directly to push a prompt through the model without sampling.
    pub fn generate<I: FaultInjector>(
        &self,
        prompt: &[u32],
        new_tokens: usize,
        inj: &I,
    ) -> (Vec<u32>, FtReport) {
        assert!(!prompt.is_empty(), "generation needs at least one token");
        let mut session = self.serve();
        let id = session.submit_request(GenerationRequest::new(prompt.to_vec(), new_tokens));
        let finished = session.run(inj);
        let stream = finished
            .into_iter()
            .find(|f| f.id == id)
            .expect("the submitted stream finishes");
        (stream.tokens, stream.attention)
    }

    /// Greedy generation by full re-prefill each step — the pre-KV-cache
    /// path, kept as the baseline the `decode` bench measures speedup
    /// against. Note its attention is *bidirectional* under the default
    /// non-causal configuration, while the cached path is inherently
    /// causal; build the model [`with_causal`](TransformerModel::with_causal)
    /// to make the two paths compute the same function.
    pub fn generate_prefill<I: FaultInjector>(
        &self,
        prompt: &[u32],
        new_tokens: usize,
        inj: &I,
    ) -> (Vec<u32>, FtReport) {
        let mut tokens = prompt.to_vec();
        let mut report = FtReport::default();
        for _ in 0..new_tokens {
            if tokens.len() >= self.config.max_seq {
                break;
            }
            let (logits, rep) = self.forward(&tokens, inj);
            report.accumulate(&rep);
            tokens.push(argmax(logits.row(logits.rows() - 1)) as u32);
        }
        (tokens, report)
    }

    /// Open a continuous-batching serving session with the default
    /// [`SchedulerConfig`]. Submit typed requests with
    /// [`ServeSession::submit_request`] (or, with a caller-allocated id,
    /// [`ServeSession::submit_request_with_id`]) and drive them with
    /// [`ServeSession::sweep_events`] — each sweep emits the typed
    /// [`EngineEvent`] lifecycle — or fire-and-forget with
    /// [`ServeSession::run`].
    ///
    /// ```
    /// use ft_sim::NoFaults;
    /// use ft_transformer::{
    ///     BackendKind, EngineEvent, FinishReason, GenerationRequest, ModelConfig,
    ///     RecoveryPolicy, TransformerModel,
    /// };
    ///
    /// let cfg = ModelConfig {
    ///     name: "doc",
    ///     layers: 1,
    ///     heads: 2,
    ///     hidden: 16,
    ///     ffn_dim: 32,
    ///     vocab: 31,
    ///     max_seq: 32,
    /// };
    /// let model = TransformerModel::random(7, cfg, BackendKind::Flash).with_causal(true);
    /// let mut session = model.serve();
    /// let id = session.submit_request(
    ///     GenerationRequest::new(vec![1, 2, 3], 2)
    ///         .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 2 }),
    /// );
    /// // Drive sweep by sweep, observing the typed lifecycle.
    /// let mut tokens = Vec::new();
    /// while !session.idle() {
    ///     for ev in session.sweep_events(&NoFaults) {
    ///         match ev {
    ///             EngineEvent::TokenEmitted { token, .. } => tokens.push(token),
    ///             EngineEvent::Finished { reason, .. } => {
    ///                 assert_eq!(reason, FinishReason::MaxTokens); // clean run: no recovery
    ///             }
    ///             _ => {}
    ///         }
    ///     }
    /// }
    /// let finished = session.take_finished();
    /// assert_eq!(finished[0].id, id);
    /// assert_eq!(finished[0].recoveries, 0);
    /// assert_eq!(&finished[0].tokens[3..], &tokens[..]);
    /// ```
    pub fn serve(&self) -> ServeSession<&TransformerModel> {
        self.serve_with(SchedulerConfig::default())
    }

    /// Open a serving session with explicit slot-table width, prefill
    /// chunk size, and optional cache-byte admission budget
    /// ([`SchedulerConfig::memory_budget`]): when set, pending streams are
    /// admitted while the session's total cache footprint (payload +
    /// checksum metadata, reported to the scheduler before every sweep)
    /// plus per-stream token-budget projections fits the budget —
    /// admission by bytes, not stream count. The projections count FP16
    /// payload only, so the budget throttles admission rather than hard-
    /// capping the realised peak (checksum metadata rides on top; see
    /// [`SchedulerConfig::memory_budget`]) — check
    /// [`ServeSession::peak_cache_bytes`] for what a workload actually
    /// occupied.
    pub fn serve_with(&self, cfg: SchedulerConfig) -> ServeSession<&TransformerModel> {
        ServeSession::new(self, cfg)
    }

    /// Open a serving session that *owns* the model — the `Send` form a
    /// push-based serving loop moves onto its worker thread (see
    /// [`Fleet`](crate::fleet::Fleet)). Scheduling behavior is identical
    /// to [`serve_with`](TransformerModel::serve_with); clone the model
    /// first if the caller needs to keep using it.
    pub fn into_serve(self, cfg: SchedulerConfig) -> ServeSession<TransformerModel> {
        ServeSession::new(self, cfg)
    }

    /// One batched decode sweep over many streams: per stream, embed its
    /// fed tokens at the cache's next positions; per layer, expose every
    /// stream's cache to the injector (the between-sweep residency window)
    /// and run the shared multi-stream attention fan-out; finally run the
    /// LM head on the rows that sample a token.
    ///
    /// `feeds[i]` must pair with `caches[i]`. Returns, per stream, the
    /// final-normed hidden rows of the feed's last `sample_rows` positions
    /// (`sample_rows × hidden`, if the feed asked for any) and the sweep's
    /// fault ledger attributed to that stream alone (every layer's sites,
    /// layers [`merged`](FtReport::merged)). The vocab-wide LM head is not
    /// run here: the session runs it once over every stream's sample rows
    /// (`ServeSession::batched_head`), or per row where faults can reach
    /// it.
    fn run_sweep<I: FaultInjector>(
        &self,
        feeds: &[SweepFeed],
        caches: &mut [&mut ModelKvCache],
        inj: &I,
    ) -> Vec<(Option<MatrixF32>, FtReport)> {
        let layers = self.blocks.len();
        for (_, c) in feeds.iter().zip(&*caches) {
            assert_eq!(
                c.layers.len(),
                layers,
                "a sweep cache does not belong to this model"
            );
        }
        let streams: Vec<StreamId> = feeds.iter().map(|f| f.stream).collect();
        let windows: Vec<Option<usize>> = feeds.iter().map(|f| f.window).collect();
        let base_pos: Vec<usize> = caches.iter().map(|c| c.positions).collect();
        // Every stream's rows stacked once: each layer's projections run
        // over the whole stack, each stream owning the next `segments[i]`
        // rows.
        let segments: Vec<usize> = feeds.iter().map(|f| f.tokens.len()).collect();
        let embedded: Vec<MatrixF32> = feeds
            .iter()
            .zip(&base_pos)
            .map(|(f, &pos)| self.embed.forward_at(&f.tokens, pos))
            .collect();
        let mut h = Matrix::vstack(&embedded.iter().collect::<Vec<_>>());
        let mut reports = vec![FtReport::default(); feeds.len()];
        for (l, block) in self.blocks.iter().enumerate() {
            let mut layer_caches: Vec<&mut KvCache> =
                caches.iter_mut().map(|c| &mut c.layers[l]).collect();
            for (i, lc) in layer_caches.iter_mut().enumerate() {
                // Exposure models residency between sweeps; the step is
                // namespaced per stream so a shared stateless injector does
                // not fire identical patterns in every stream's cache.
                lc.expose(inj, serve_expose_step(streams[i], base_pos[i], layers, l));
            }
            let (next, layer_reports) = block.forward_decode_batch(
                &h,
                &segments,
                &mut layer_caches,
                &streams,
                &windows,
                inj,
                l,
                &self.thresholds,
            );
            h = next;
            for (report, rep) in reports.iter_mut().zip(&layer_reports) {
                *report = report.merged(rep);
            }
        }
        for (c, f) in caches.iter_mut().zip(feeds) {
            c.positions += f.tokens.len();
        }
        let mut end = 0;
        feeds
            .iter()
            .enumerate()
            .map(|(i, f)| {
                end += f.tokens.len();
                let rows = if f.sample_rows > 0 {
                    // Only the chunk's trailing sample rows are normed and
                    // handed to the session's head; the interior prefill
                    // rows never pay the vocab-wide head.
                    debug_assert!(
                        f.sample_rows <= segments[i],
                        "more sample rows than fed rows"
                    );
                    let base = end - f.sample_rows;
                    let mut m = Matrix::from_fn(f.sample_rows, h.cols(), |r, j| h.get(base + r, j));
                    self.final_norm.forward(&mut m);
                    Some(m)
                } else {
                    None
                };
                (rows, reports[i])
            })
            .collect()
    }
}

/// One stream's share of a batched sweep, as the engine hands it to
/// [`TransformerModel::run_sweep`].
struct SweepFeed {
    stream: StreamId,
    tokens: Vec<u32>,
    /// Trailing rows of the feed whose normed hidden states the engine
    /// will sample from: 0 for interior prefill chunks, 1 for plain
    /// decode, `1 + speculate` for a draft-verify sweep.
    sample_rows: usize,
    /// Trailing tokens of the feed that are provisional drafts (the last
    /// `speculate` of `tokens`), to be verified against the engine's own
    /// samples and rolled back past the first mismatch.
    speculate: usize,
    window: Option<usize>,
    /// The stream's graded protection level: any cache (re)built for the
    /// stream this sweep — including recovery re-prefills — is created at
    /// this level.
    protection: ProtectionLevel,
}

/// Cache-exposure step namespace for serving. Exposure steps are drawn
/// from the same `pos * layers + layer` lattice as
/// [`TransformerModel::decode_step`], with stream 0 unshifted and streams
/// ≥ 1 shifted into disjoint ranges, so a shared injector can target — and
/// a report can attribute — one stream's cache in isolation.
///
/// A session exposes caches once per *sweep* (at the sweep's base
/// position), not once per token: during chunked prefill only the chunk
/// bases (`0, prefill_chunk, 2·prefill_chunk, …`) appear, and interior
/// prompt positions are skipped — target those bases, or run with
/// `prefill_chunk = 1` to reproduce the token-at-a-time exposure schedule
/// exactly. Decode-phase sweeps (one token each) match `decode_step`'s
/// schedule position for position.
pub fn serve_expose_step(stream: StreamId, pos: usize, layers: usize, layer: usize) -> u64 {
    let local = (pos * layers + layer) as u64;
    debug_assert!(
        local < (1 << 20),
        "position × layers exceeds the per-stream exposure namespace"
    );
    (stream.0 << 20) + local
}

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
    /// [`RecoveryPolicy::ReprefillPartial`].
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
/// submit_request ─▶ scheduler slot table ─▶ sweep: embed → layers (shared
///   attention fan-out, per-stream windows) → LM head + per-stream
///   sampling ─▶ events: TokenEmitted / FaultCorrected / EvictedBlocks
///                        / CachePoisoned → Recovering (drop cache,
///                          re-prefill history) or Finished(AbortedPoisoned)
///   ─▶ retire finished streams with a FinishReason
/// ```
///
/// The recovery half is the paper's detect → correct → **recover** story
/// closed end to end: when a stream's attended window carries unrepairable
/// cache damage and its request asked for
/// [`RecoveryPolicy::ReprefillBounded`], the engine discards the suspect
/// sweep output, drops the stream's cache, replays its prompt *plus every
/// already-emitted token* through chunked prefill, and resumes decoding —
/// deterministic sampling makes a successful recovery bit-identical to an
/// undamaged run (pinned by `tests/engine_recovery.rs`).
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

    /// Clamp the token budget to the model's `max_seq` and resolve the
    /// model-default window for requests without their own.
    fn resolve_request(&self, mut req: GenerationRequest) -> GenerationRequest {
        let model = self.model.borrow();
        assert!(!req.prompt.is_empty(), "a stream needs at least one token");
        assert!(
            req.prompt.len() <= model.config.max_seq,
            "prompt exceeds max_seq"
        );
        req.max_new_tokens = req
            .max_new_tokens
            .min(model.config.max_seq - req.prompt.len());
        req.window = req.window.or(model.window());
        req
    }

    /// Run one batched sweep and return its typed [`EngineEvent`]s: plan
    /// (admitting pending streams), feed every active stream its next
    /// chunk through the shared fan-out, sample where due (per-stream
    /// [`SamplingMode`]), apply each stream's [`RecoveryPolicy`] to
    /// poisoned caches, and retire finished streams.
    pub fn sweep_events<I: FaultInjector>(&mut self, inj: &I) -> Vec<EngineEvent> {
        self.sweep_inner(inj);
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

    fn sweep_inner<I: FaultInjector>(&mut self, inj: &I) {
        // Report the live footprint so memory-budget admission sees what
        // the resident streams actually occupy.
        self.scheduler.note_bytes(self.cache_bytes());
        let plan = self.scheduler.plan();
        // Planning may have parked or resumed streams (preemption);
        // absorb those transitions before feeding anything.
        self.absorb_park_resume();
        if plan.is_empty() {
            self.collect_finished();
            return;
        }
        for item in &plan {
            if !self.caches.iter().any(|(id, _)| *id == item.stream) {
                self.caches.push((
                    item.stream,
                    self.model.borrow().new_cache_with(item.protection),
                ));
            }
        }
        // Pair feeds with caches in storage order (plan order and storage
        // order both follow admission, but matching by id keeps the sweep
        // correct under any future scheduling policy).
        let mut feeds: Vec<SweepFeed> = Vec::with_capacity(plan.len());
        let mut cache_refs: Vec<&mut ModelKvCache> = Vec::with_capacity(plan.len());
        for (id, cache) in self.caches.iter_mut() {
            if let Some(item) = plan.iter().find(|it| it.stream == *id) {
                feeds.push(SweepFeed {
                    stream: *id,
                    tokens: item.feed.clone(),
                    sample_rows: if item.sample { 1 + item.speculate } else { 0 },
                    speculate: item.speculate,
                    window: item.window,
                    protection: item.protection,
                });
                cache_refs.push(cache);
            }
        }
        debug_assert_eq!(feeds.len(), plan.len());
        let results = self.model.borrow().run_sweep(&feeds, &mut cache_refs, inj);
        self.peak_cache_bytes = self.peak_cache_bytes.max(self.cache_bytes());
        let split = self.cache_breakdown();
        if split.total_bytes() > self.peak_cache_breakdown.total_bytes() {
            self.peak_cache_breakdown = split;
        }
        let head = self.batched_head(&feeds, &results, inj);
        let mut head_row = 0;
        for (feed, (rows, mut ledger)) in feeds.iter().zip(results) {
            let id = feed.stream;
            let at = head_row;
            head_row += feed.sample_rows;
            if ledger.total_detected() > 0 {
                self.events.push(EngineEvent::FaultCorrected {
                    stream: id,
                    detected: ledger.total_detected(),
                    repaired: ledger.total_repaired(),
                });
            }
            if ledger.cache_evicted_blocks > 0 {
                self.events.push(EngineEvent::EvictedBlocks {
                    stream: id,
                    blocks: ledger.cache_evicted_blocks,
                });
            }
            let cache = &mut self
                .caches
                .iter_mut()
                .find(|(cid, _)| *cid == id)
                .expect("planned stream has a cache")
                .1;
            // Poison trigger, scoped to the stream's attended window: the
            // sticky per-block marks work for every backend (append-time
            // laundering needs no protected kernel), and the sweep ledger
            // adds the EFTA read path's live uncorrectable detections.
            // Marks behind the window — and marks retired by eviction,
            // which leave with their block — must not trigger.
            let poisoned = cache
                .poisoned_attended(feed.window)
                .max(ledger.cache_uncorrectable);
            if poisoned > 0 {
                self.events.push(EngineEvent::CachePoisoned {
                    stream: id,
                    events: poisoned,
                });
            }
            let state = self
                .scheduler
                .active_stream(id)
                .expect("planned stream is active");
            let (recovery, attempts, sampling, position) = (
                state.recovery,
                state.recoveries,
                state.sampling,
                state.total(),
            );
            match recovery {
                RecoveryPolicy::ReprefillBounded { max_attempts }
                | RecoveryPolicy::ReprefillPartial { max_attempts }
                    if poisoned > 0 =>
                {
                    // Whatever this sweep produced was computed over
                    // damaged state — a sampled token must not enter the
                    // history. Either give up (budget spent) or rebuild the
                    // cache from the emitted history.
                    if attempts >= max_attempts {
                        self.scheduler.abort(
                            id,
                            &ledger,
                            FinishReason::AbortedPoisoned { attempts },
                        );
                    } else {
                        // The partial policy localizes the damage first:
                        // truncate to the last clean boundary before the
                        // first poisoned attended block and replay only the
                        // suffix — O(window) recovery, not O(history).
                        let target = match recovery {
                            RecoveryPolicy::ReprefillPartial { .. } => {
                                cache.rollback_target(feed.window, position.saturating_sub(1))
                            }
                            _ => None,
                        };
                        let attempt = if let Some(p) = target {
                            // The boundary-heal report is discarded:
                            // read-time verification already counted the
                            // evidence, and surviving marks stay sticky.
                            let _ = cache.truncate_to(CacheMark::at(p));
                            self.scheduler.requeue_suffix(id, &ledger, p)
                        } else {
                            // Bounded policy, damage not block-localized, or
                            // a suffix that would attend evicted or still-
                            // poisoned rows: fresh cache, full replay.
                            *cache = self.model.borrow().new_cache_with(feed.protection);
                            self.scheduler.requeue(id, &ledger)
                        };
                        self.recoveries += 1;
                        self.events.push(EngineEvent::Recovering {
                            stream: id,
                            attempt,
                        });
                    }
                }
                _ => {
                    if feed.sample_rows == 0 {
                        self.scheduler.record(id, None, &ledger);
                        continue;
                    }
                    let rows = rows.expect("sampling feed returns hidden rows");
                    let drafts = &feed.tokens[feed.tokens.len() - feed.speculate..];
                    let model = self.model.borrow();
                    let mut emitted: Vec<u32> = Vec::with_capacity(feed.sample_rows);
                    let mut accepted = 0usize;
                    for j in 0..feed.sample_rows {
                        let t = match &head {
                            Some(logits) => {
                                sample_token(sampling, logits.row(at + j), id, position + j)
                            }
                            None => {
                                // Per-row head where faults can reach it,
                                // stopping at the first rejected draft: the
                                // injector is queried for the logits of
                                // emitted tokens only.
                                let row = Matrix::from_fn(1, rows.cols(), |_, c| rows.get(j, c));
                                let (logits, head_rep) = model.lm_head.forward(
                                    &row,
                                    inj,
                                    usize::MAX / 2,
                                    &model.thresholds,
                                );
                                // The sweep's FaultCorrected event is already
                                // out: head detections reach the stream
                                // ledger only.
                                ledger = ledger.merged(&head_rep);
                                sample_token(sampling, logits.row(0), id, position + j)
                            }
                        };
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
                        // Roll the rejected provisional rows back so the
                        // cache again trails the emitted history by exactly
                        // one row — by construction the next sweep starts
                        // from state bit-identical to plain decode's.
                        let _ = cache.truncate_to(CacheMark::at(position + accepted));
                    }
                    if feed.speculate == 0 {
                        self.scheduler.record(id, Some(emitted[0]), &ledger);
                    } else {
                        self.scheduler.record_speculative(
                            id,
                            &emitted,
                            feed.speculate,
                            accepted,
                            &ledger,
                        );
                    }
                }
            }
        }
        self.collect_finished();
    }

    /// The vocab-wide LM head once per sweep: every sampling row of every
    /// feed stacked into one GEMM, so the head's packed weight streams
    /// through the cache once per sweep instead of once per emitted token.
    /// Row `r` of the result is bit-identical to a one-row forward of
    /// stacked row `r` (every logit is the same chain). `None` — evaluate
    /// per row instead — when no feed samples, and when the head could
    /// fire or keep a ledger: BER draws, `fired()` and head detections then
    /// stay per (stream, row). Under speculation, rows past a rejected
    /// draft are computed here and dropped. Feed `f` owns the next
    /// `f.sample_rows` stacked rows — the offsets `sweep_inner` reads.
    fn batched_head<I: FaultInjector>(
        &self,
        feeds: &[SweepFeed],
        results: &[(Option<MatrixF32>, FtReport)],
        inj: &I,
    ) -> Option<MatrixF32> {
        let model = self.model.borrow();
        if inj.may_fire(FaultSite::LinearAccum)
            || model.lm_head.protection != LinearProtection::None
        {
            return None;
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
            return None;
        }
        let (logits, _) = model.lm_head.forward(
            &Matrix::vstack(&rows),
            inj,
            usize::MAX / 2,
            &model.thresholds,
        );
        Some(logits)
    }

    /// Sweep until every submitted stream has retired, then drain them
    /// (ordered by stream id). Events are discarded sweep by sweep — drive
    /// the session with [`sweep_events`](ServeSession::sweep_events) to
    /// observe the lifecycle.
    pub fn run<I: FaultInjector>(&mut self, inj: &I) -> Vec<FinishedStream> {
        while !self.scheduler.idle() {
            self.sweep_inner(inj);
            self.events.clear();
        }
        self.take_finished()
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

/// Index of the largest logit.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::efta::EftaOptions;
    use ft_sim::{FaultSite, NoFaults, OpCoord, SeuInjector};

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            name: "tiny",
            layers: 2,
            heads: 4,
            hidden: 32,
            ffn_dim: 64,
            vocab: 101,
            max_seq: 64,
        }
    }

    #[test]
    fn parallel_construction_equals_each_part_built_alone() {
        let (seed, cfg) = (5, tiny_config());
        let model = TransformerModel::random(seed, cfg, BackendKind::Flash);
        let embed = Embedding::random(seed, cfg.vocab, cfg.hidden, cfg.max_seq);
        assert_eq!(model.embed.table, embed.table);
        let head = Linear::random(seed + 7, cfg.hidden, cfg.vocab);
        assert_eq!(model.lm_head.weight(), head.weight());
        assert_eq!(model.lm_head.protection, LinearProtection::None);
        assert_eq!(model.blocks.len(), cfg.layers);
        for (l, got) in model.blocks.iter().enumerate() {
            let seed = seed + 1000 * (l as u64 + 1);
            let want =
                TransformerBlock::random(seed, cfg.hidden, cfg.heads, cfg.ffn_dim, got.mha.kernel);
            let linears = |b: &TransformerBlock| {
                [
                    &b.mha.wq,
                    &b.mha.wk,
                    &b.mha.wv,
                    &b.mha.wo,
                    &b.ffn.up,
                    &b.ffn.down,
                ]
                .map(|lin| (lin.weight().clone(), lin.bias.clone()))
            };
            assert_eq!(linears(got), linears(&want), "block {l}");
        }
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let model = TransformerModel::random(1, tiny_config(), BackendKind::Flash);
        let tokens: Vec<u32> = (0..16).collect();
        let (l1, rep) = model.forward(&tokens, &NoFaults);
        let (l2, _) = model.forward(&tokens, &NoFaults);
        assert_eq!(l1.shape(), (16, 101));
        assert_eq!(l1, l2);
        assert_eq!(rep.total_detected(), 0);
    }

    #[test]
    fn efta_model_matches_flash_model_when_clean() {
        let flash = TransformerModel::random(2, tiny_config(), BackendKind::Flash);
        let efta = TransformerModel {
            blocks: flash
                .blocks
                .iter()
                .map(|b| TransformerBlock {
                    mha: crate::mha::MultiHeadAttention {
                        kernel: BackendKind::Efta(EftaOptions::optimized()),
                        ..b.mha.clone()
                    },
                    ..b.clone()
                })
                .collect(),
            ..flash.clone()
        };
        let tokens: Vec<u32> = (0..24).map(|i| i * 3 % 101).collect();
        let (lf, _) = flash.forward(&tokens, &NoFaults);
        let (le, rep) = efta.forward(&tokens, &NoFaults);
        assert_eq!(rep.total_detected(), 0);
        assert!(lf.max_abs_diff(&le) < 0.05, "diff {}", lf.max_abs_diff(&le));
    }

    #[test]
    fn generation_extends_sequence_deterministically() {
        let model = TransformerModel::random(3, tiny_config(), BackendKind::Flash);
        let (out, _) = model.generate(&[5, 6, 7], 4, &NoFaults);
        assert_eq!(out.len(), 7);
        let (out2, _) = model.generate(&[5, 6, 7], 4, &NoFaults);
        assert_eq!(out, out2);
    }

    #[test]
    fn decode_steps_match_causal_prefill_logits() {
        // The acceptance contract of the KV-cache path: feeding tokens one
        // at a time through decode_step reproduces, at every position, the
        // last-row logits of a causal prefill over the same prefix.
        let model =
            TransformerModel::random(6, tiny_config(), BackendKind::Flash).with_causal(true);
        let tokens: Vec<u32> = (0..19).map(|i| (i * 13) % 101).collect();
        let mut cache = model.new_cache();
        for t in 1..=tokens.len() {
            let (step_logits, _) = self::decode_prefix(&model, &tokens[..t], &mut cache);
            let (prefill_logits, _) = model.forward(&tokens[..t], &NoFaults);
            let diff: f32 = step_logits
                .row(0)
                .iter()
                .zip(prefill_logits.row(t - 1))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(diff < 2e-2, "prefix {t}: logits diff {diff}");
        }
    }

    /// Feed exactly the *new* suffix of `prefix` into the cache.
    fn decode_prefix(
        model: &TransformerModel,
        prefix: &[u32],
        cache: &mut ModelKvCache,
    ) -> (MatrixF32, FtReport) {
        let mut out = None;
        for &t in &prefix[cache.positions()..] {
            out = Some(model.decode_step(t, cache, &NoFaults));
        }
        out.expect("non-empty suffix")
    }

    #[test]
    fn cached_generate_matches_causal_prefill_generate() {
        let model =
            TransformerModel::random(7, tiny_config(), BackendKind::Flash).with_causal(true);
        let prompt = [5u32, 6, 7, 8];
        let (cached, _) = model.generate(&prompt, 5, &NoFaults);
        let (prefill, _) = model.generate_prefill(&prompt, 5, &NoFaults);
        assert_eq!(cached, prefill, "the two generation paths must agree");
    }

    #[test]
    fn efta_decode_matches_flash_decode_when_clean() {
        use ft_core::efta::EftaOptions;
        let flash =
            TransformerModel::random(8, tiny_config(), BackendKind::Flash).with_causal(true);
        let efta = TransformerModel {
            blocks: flash
                .blocks
                .iter()
                .map(|b| TransformerBlock {
                    mha: crate::mha::MultiHeadAttention {
                        kernel: BackendKind::Efta(EftaOptions::optimized()),
                        ..b.mha.clone()
                    },
                    ..b.clone()
                })
                .collect(),
            ..flash.clone()
        };
        let prompt = [3u32, 9, 27, 81, 40];
        let (tf, _) = flash.generate(&prompt, 4, &NoFaults);
        let (te, rep) = efta.generate(&prompt, 4, &NoFaults);
        assert_eq!(rep.total_detected(), 0, "clean decode must raise no alarms");
        assert_eq!(tf, te, "EFTA decode tokens must match flash decode");
    }

    #[test]
    fn cache_resident_fault_is_absorbed_by_efta_decode() {
        use ft_core::efta::EftaOptions;
        use ft_sim::BerInjector;
        let model = TransformerModel::random(
            9,
            tiny_config(),
            BackendKind::Efta(EftaOptions::optimized()),
        )
        .with_causal(true);
        let prompt = [2u32, 4, 8, 16, 32, 64];
        let (clean, _) = model.generate(&prompt, 4, &NoFaults);
        // Bombard only cache-resident state.
        let inj = BerInjector::new(1234, 2e-3).with_sites(&[FaultSite::KvCache]);
        let (dirty, rep) = model.generate(&prompt, 4, &inj);
        assert!(inj.fired() > 0, "exposure must hit the cache");
        assert!(
            rep.total_detected() > 0,
            "cache checksums must notice: {rep:?}"
        );
        assert_eq!(clean, dirty, "decode output must be fault-free");
    }

    #[test]
    fn windowed_serving_bounds_cache_bytes_and_reports_evictions() {
        let base = TransformerModel::random(
            12,
            tiny_config(),
            BackendKind::Efta(EftaOptions::optimized()),
        )
        .with_causal(true)
        .with_cache_block(4);
        let windowed = base.clone().with_window(8);
        assert_eq!(windowed.window(), Some(8));
        let prompt: Vec<u32> = (0..12).map(|i| (i * 7) % 101).collect();

        let run = |model: &TransformerModel| {
            let mut session = model.serve_with(SchedulerConfig {
                max_active: 4,
                prefill_chunk: 6,
                ..Default::default()
            });
            let ids: Vec<_> = (0..3)
                .map(|_| session.submit_request(GenerationRequest::new(prompt.clone(), 12)))
                .collect();
            let finished = session.run(&NoFaults);
            (ids, finished, session.peak_cache_bytes())
        };
        let (_, unbounded, peak_unbounded) = run(&base);
        let (_, bounded, peak_bounded) = run(&windowed);
        assert!(
            peak_bounded < peak_unbounded,
            "window must bound the footprint: {peak_bounded} vs {peak_unbounded}"
        );
        let evicted: u64 = bounded
            .iter()
            .map(|f| f.attention.cache_evicted_blocks)
            .sum();
        assert!(evicted > 0, "eviction events surface in per-stream reports");
        for f in &unbounded {
            assert_eq!(f.attention.cache_evicted_blocks, 0);
        }
        // Windowed serving is deterministic run to run.
        let (_, bounded2, _) = run(&windowed);
        for (a, b) in bounded.iter().zip(&bounded2) {
            assert_eq!(a.tokens, b.tokens);
        }
    }

    #[test]
    fn memory_budget_throttles_concurrency_but_completes_all_streams() {
        let model = TransformerModel::random(
            13,
            tiny_config(),
            BackendKind::Efta(EftaOptions::optimized()),
        )
        .with_causal(true);
        let prompt: Vec<u32> = (0..8).map(|i| (i * 11) % 101).collect();
        // Budget roughly one stream's prompt footprint: streams must run
        // (mostly) one at a time, and all of them must still finish.
        let budget = (4 * model.config.hidden * model.config.layers * 10) as u64;
        let mut session = model.serve_with(SchedulerConfig {
            max_active: 4,
            prefill_chunk: 8,
            memory_budget: Some(budget),
            ..Default::default()
        });
        let ids: Vec<_> = (0..3)
            .map(|_| session.submit_request(GenerationRequest::new(prompt.clone(), 4)))
            .collect();
        let mut max_active = 0;
        while !session.idle() {
            session.sweep_events(&NoFaults);
            max_active = max_active.max(session.active_streams());
        }
        let finished = session.take_finished();
        assert_eq!(finished.len(), ids.len());
        assert!(
            max_active < 3,
            "the byte budget must throttle concurrency (saw {max_active})"
        );
        // Same tokens as an unthrottled session: admission policy must not
        // change what any stream computes.
        let mut free = model.serve();
        for _ in 0..3 {
            free.submit_request(GenerationRequest::new(prompt.clone(), 4));
        }
        let unthrottled = free.run(&NoFaults);
        for (a, b) in finished.iter().zip(&unthrottled) {
            assert_eq!(a.tokens, b.tokens);
        }
    }

    #[test]
    fn topk_sampling_is_deterministic_and_k1_is_greedy() {
        use ft_core::serve::{GenerationRequest, SamplingMode};
        let model =
            TransformerModel::random(14, tiny_config(), BackendKind::Flash).with_causal(true);
        let prompt = [3u32, 1, 4, 1, 5];
        let run = |mode: SamplingMode| {
            let mut session = model.serve();
            let id = session
                .submit_request(GenerationRequest::new(prompt.to_vec(), 5).with_sampling(mode));
            let finished = session.run(&NoFaults);
            finished.into_iter().find(|f| f.id == id).unwrap().tokens
        };
        let greedy = run(SamplingMode::Greedy);
        let k1 = run(SamplingMode::TopK { k: 1, seed: 99 });
        assert_eq!(greedy, k1, "top-1 must reduce to greedy");
        let k4a = run(SamplingMode::TopK { k: 4, seed: 7 });
        let k4b = run(SamplingMode::TopK { k: 4, seed: 7 });
        assert_eq!(k4a, k4b, "sampling is stateless-deterministic");
        let k4c = run(SamplingMode::TopK { k: 4, seed: 8 });
        assert_eq!(k4a.len(), k4c.len());
    }

    #[test]
    fn one_head_gemm_per_sweep_matches_per_row_heads() {
        use ft_core::serve::{DraftSource, SamplingMode, SpeculationPolicy};
        // vocab 101: the head's last packed panel is zero-padded.
        let model =
            TransformerModel::random(16, tiny_config(), BackendKind::Flash).with_causal(true);
        let hidden = model
            .forward_hidden(&[7, 1, 8, 2, 8, 1, 8, 2, 8], &NoFaults)
            .0;
        let (stacked, _) = model
            .lm_head
            .forward(&hidden, &NoFaults, 0, &model.thresholds);
        for r in 0..hidden.rows() {
            let row = hidden.block(r, 0, 1, hidden.cols());
            let (one, _) = model.lm_head.forward(&row, &NoFaults, 0, &model.thresholds);
            let same = one.row(0).iter().zip(stacked.row(r));
            assert!(
                same.into_iter().all(|(a, b)| a.to_bits() == b.to_bits()),
                "row {r}"
            );
        }

        // The oracle: each stream alone, under an injector that may fire at
        // `LinearAccum` (so the head runs per row) but matches no chain.
        let miss = SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(usize::MAX, 0, 0, 0), 3);
        let alone = |req: &GenerationRequest, id: StreamId| {
            let mut session = model.serve();
            session.submit_request_with_id(req.clone(), id);
            session.run(&miss).pop().expect("one stream").tokens
        };
        let prompt = |salt: u32| {
            (0..6 + salt)
                .map(|i| (i * 7 + salt) % 5)
                .collect::<Vec<_>>()
        };
        let mut requests = [
            GenerationRequest::new(prompt(0), 9),
            GenerationRequest::new(prompt(1), 9)
                .with_sampling(SamplingMode::TopK { k: 5, seed: 3 }),
            GenerationRequest::new(prompt(2), 9),
            GenerationRequest::new(prompt(3), 9)
                .with_sampling(SamplingMode::TopK { k: 3, seed: 9 }),
        ];
        // Stream 2 drafts its own continuation, so every draft is accepted
        // and each sweep samples all of its stacked rows.
        let script = alone(&requests[2], StreamId(2))[prompt(2).len()..].to_vec();
        requests[2] = requests[2]
            .clone()
            .with_speculation(SpeculationPolicy::new(3).with_source(DraftSource::Scripted(script)));
        let mut session = model.serve_with(SchedulerConfig {
            max_active: 4,
            ..Default::default()
        });
        let ids: Vec<StreamId> = requests
            .iter()
            .map(|r| session.submit_request(r.clone()))
            .collect();
        assert_eq!(ids[2], StreamId(2));
        let finished = session.run(&NoFaults);
        for (id, req) in ids.iter().zip(&requests) {
            let got = &finished.iter().find(|f| f.id == *id).expect("retired");
            assert_eq!(got.tokens, alone(req, *id), "{id}");
        }
        assert_eq!(miss.fired(), 0);
        let spec = finished.iter().find(|f| f.id == ids[2]).expect("retired");
        assert!(
            spec.spec_accepted > 0,
            "the speculative stream accepted drafts"
        );
    }

    #[test]
    fn per_request_window_overrides_the_model_default() {
        // One session, two streams: a full-attention stream and a
        // request-windowed stream. Each must match its own single-stream
        // oracle (the model-default knob drives the stepwise loop).
        let base = TransformerModel::random(
            15,
            tiny_config(),
            BackendKind::Efta(EftaOptions::optimized()),
        )
        .with_causal(true)
        .with_cache_block(4);
        let windowed = base.clone().with_window(6);
        let prompt: Vec<u32> = (0..14).map(|i| (i * 5) % 101).collect();
        let mut session = base.serve_with(SchedulerConfig {
            max_active: 4,
            prefill_chunk: 5,
            ..Default::default()
        });
        use ft_core::serve::GenerationRequest;
        let full = session.submit_request(GenerationRequest::new(prompt.clone(), 6));
        let win = session.submit_request(GenerationRequest::new(prompt.clone(), 6).with_window(6));
        let finished = session.run(&NoFaults);
        let tokens_of = |id| {
            finished
                .iter()
                .find(|f: &&FinishedStream| f.id == id)
                .unwrap()
                .tokens
                .clone()
        };
        let (full_want, _) = base.generate(&prompt, 6, &NoFaults);
        let (win_want, _) = windowed.generate(&prompt, 6, &NoFaults);
        assert_eq!(tokens_of(full), full_want);
        assert_eq!(tokens_of(win), win_want);
        let evicted = finished
            .iter()
            .find(|f| f.id == win)
            .unwrap()
            .attention
            .cache_evicted_blocks;
        assert!(evicted > 0, "the windowed stream must actually evict");
        assert_eq!(
            finished
                .iter()
                .find(|f| f.id == full)
                .unwrap()
                .attention
                .cache_evicted_blocks,
            0,
            "the full-attention stream must not"
        );
    }

    #[test]
    fn fault_in_protected_projection_is_repaired_and_counted() {
        let model = TransformerModel::random(4, tiny_config(), BackendKind::Flash);
        let tokens: Vec<u32> = (0..16).collect();
        let (clean, _) = model.forward_hidden(&tokens, &NoFaults);
        // Layer 0 MHA query projection is layer_slot 0 (layer_idx*2*8).
        let inj =
            SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(0, 3, 7, 0), 30).at_chain_step(5);
        let (dirty, rep) = model.forward_hidden(&tokens, &inj);
        assert_eq!(inj.fired(), 1);
        assert!(rep.total_detected() > 0);
        assert!(rep.total_repaired() > 0);
        assert!(
            dirty.max_abs_diff(&clean) < 0.05,
            "diff {}",
            dirty.max_abs_diff(&clean)
        );
    }

    #[test]
    fn fault_without_protection_changes_output() {
        let mut model = TransformerModel::random(5, tiny_config(), BackendKind::Flash);
        for b in &mut model.blocks {
            b.mha.wq.protection = LinearProtection::None;
            b.mha.wk.protection = LinearProtection::None;
            b.mha.wv.protection = LinearProtection::None;
            b.mha.wo.protection = LinearProtection::None;
            b.ffn.up.protection = LinearProtection::None;
            b.ffn.down.protection = LinearProtection::None;
        }
        let tokens: Vec<u32> = (0..16).collect();
        let (clean, _) = model.forward_hidden(&tokens, &NoFaults);
        let inj =
            SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(0, 3, 7, 0), 30).at_chain_step(5);
        let (dirty, rep) = model.forward_hidden(&tokens, &inj);
        assert_eq!(inj.fired(), 1);
        // With projections unprotected the fault reaches the activations
        // (possibly as NaN after LayerNorm of a 2^128-scale value); the
        // FFN's range restriction is the only check left to notice.
        let _ = rep;
        assert!(
            dirty.has_non_finite() || dirty.max_abs_diff(&clean) > 1e-3,
            "fault must propagate when unprotected"
        );
    }
}
