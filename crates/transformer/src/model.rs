//! Full transformer model: embeddings → blocks → final norm → LM head.
//!
//! Three concerns, one file each: the model and its batched sweep
//! ([`TransformerModel`], this file), one stream's per-layer caches
//! ([`ModelKvCache`], `cache.rs`), and the continuous-batching serving
//! session that drives the sweep ([`ServeSession`] and
//! [`FinishedStream`], `session.rs`).

mod cache;
mod session;

pub use cache::ModelKvCache;
pub use session::{FinishedStream, ServeSession};

use crate::block::TransformerBlock;
use crate::configs::ModelConfig;
use crate::embed::Embedding;
use crate::linear::{Linear, LinearProtection};
use crate::mha::{BackendKind, KvCache};
use crate::norm::LayerNorm;
use ft_abft::thresholds::Thresholds;
use ft_core::protect::ProtectionLevel;
use ft_core::serve::{GenerationRequest, SchedulerConfig, StreamId};
use ft_core::types::FtReport;
use ft_num::{Matrix, MatrixF32};
use ft_sim::FaultInjector;
use rayon::prelude::*;

/// A model's cache-byte admission projection
/// ([`TransformerModel::admission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// FP16 K+V payload per token over every layer (2 tensors × hidden ×
    /// 2 bytes per layer); checksum metadata rides along in the noted
    /// totals once streams are resident.
    pub bytes_per_token: u64,
    /// Rows a windowed stream keeps resident past its window: block-granular
    /// eviction leaves up to one partially evictable cache block.
    pub window_slack: usize,
}

impl Admission {
    /// Projected bytes of a stream that grows to `rows` tokens, capped
    /// under a sliding `window` at `window + window_slack` rows, and never
    /// below one row.
    pub fn bytes(&self, rows: usize, window: Option<usize>) -> u64 {
        let rows = window.map_or(rows, |w| rows.min(w.saturating_add(self.window_slack)));
        (rows as u64).max(1) * self.bytes_per_token
    }
}

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
    /// Detection thresholds of the linears (projections, FFN and LM head).
    /// Attention checks under its kernel's own options (e.g.
    /// `EftaOptions::thresholds`), in prefill and decode alike.
    pub thresholds: Thresholds,
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

    /// The cache-byte projection admission plans with — what a session
    /// hands its scheduler and a fleet projects each submission by.
    pub fn admission(&self) -> Admission {
        Admission {
            bytes_per_token: (4 * self.config.hidden * self.config.layers) as u64,
            window_slack: self.blocks.first().map_or(0, |b| b.mha.cache_block),
        }
    }

    /// Fresh decode state: one empty checksummed KV cache per block.
    pub fn new_cache(&self) -> ModelKvCache {
        self.new_cache_with(ProtectionLevel::Full)
    }

    /// Fresh decode state at a protection level: one empty KV cache per
    /// block, each created at `level` (see [`ProtectionLevel`]).
    /// [`new_cache`](TransformerModel::new_cache) is the `Full` case.
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
    ///
    /// `window` is the step's sliding attention window, exactly as a
    /// [`GenerationRequest::window`] sets it for a served stream: attend
    /// only the cache blocks holding the most recent `window` rows, and
    /// front-evict storage behind it before the append (`None` attends and
    /// retains the whole history). Panics on `Some(0)`.
    pub fn decode_step<I: FaultInjector>(
        &self,
        token: u32,
        cache: &mut ModelKvCache,
        window: Option<usize>,
        inj: &I,
    ) -> (MatrixF32, FtReport) {
        let feed = SweepFeed {
            stream: StreamId(0),
            tokens: vec![token],
            sample_rows: 1,
            speculate: 0,
            window,
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
    /// [`EngineEvent`](ft_core::serve::EngineEvent) lifecycle — or
    /// fire-and-forget with [`ServeSession::run`].
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
    ///         .with_recovery(RecoveryPolicy::ReprefillPartial { max_attempts: 2 }),
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

    /// One batched decode sweep over many streams — the session's third
    /// phase: per stream, embed its fed tokens at the cache's next
    /// positions; per layer, expose every stream's cache to the injector
    /// (the between-sweep residency window) and run the shared
    /// multi-stream attention fan-out; finally norm the rows that sample a
    /// token.
    ///
    /// `feeds[i]` must pair with `caches[i]`. Returns, per stream, the
    /// final-normed hidden rows of the feed's last `sample_rows` positions
    /// (`sample_rows × hidden`, if the feed asked for any) and the sweep's
    /// fault ledger attributed to that stream alone (every layer's sites,
    /// layers [`merged`](FtReport::merged)). The vocab-wide LM head is not
    /// run here: the session's `head` phase runs it once over every
    /// stream's sample rows.
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
    use ft_num::F16;
    use ft_sim::{BerInjector, ChainFault, FaultSite, NoFaults, OpCoord, SeuInjector};

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
    fn attention_checks_under_its_kernels_thresholds_in_prefill_and_decode() {
        // Thresholds with no tolerance flag the FP16 checksum noise of a
        // clean run. Set on the kernel, prefill and decode both detect; set
        // on the model, they reach the linears only.
        let exact = ft_abft::thresholds::Check::new(0.0, 1e-12);
        let paranoid = Thresholds {
            gemm: exact,
            exp_product: exact,
            output: exact,
        };
        let attention = |r: &FtReport| r.gemm1_detected + r.exp_detected + r.gemm2_detected;
        let tokens: Vec<u32> = (0..12).map(|i| i * 7 % 101).collect();
        let run = |model: &TransformerModel| {
            let (_, prefill) = model.forward(&tokens, &NoFaults);
            let mut cache = model.new_cache();
            let mut decode = FtReport::default();
            for &t in &tokens {
                decode = decode.merged(&model.decode_step(t, &mut cache, None, &NoFaults).1);
            }
            (attention(&prefill), attention(&decode))
        };
        let efta = |thresholds| {
            let kernel = BackendKind::Efta(EftaOptions {
                thresholds,
                ..EftaOptions::optimized()
            });
            TransformerModel::random(4, tiny_config(), kernel)
        };
        let (prefill, decode) = run(&efta(paranoid));
        assert!(
            prefill > 0 && decode > 0,
            "prefill {prefill}, decode {decode}"
        );
        let strict_linears = TransformerModel {
            thresholds: paranoid,
            ..efta(Thresholds::calibrated())
        };
        assert_eq!(run(&strict_linears), (0, 0));
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
            out = Some(model.decode_step(t, cache, None, &NoFaults));
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
        let prompt: Vec<u32> = (0..12).map(|i| (i * 7) % 101).collect();

        let run = |window: Option<usize>| {
            let mut session = base.serve_with(SchedulerConfig {
                max_active: 4,
                prefill_chunk: 6,
                ..Default::default()
            });
            let ids: Vec<_> = (0..3)
                .map(|_| {
                    session.submit_request(GenerationRequest {
                        window,
                        ..GenerationRequest::new(prompt.clone(), 12)
                    })
                })
                .collect();
            let finished = session.run(&NoFaults);
            // One footprint: the peak is the peak split's total, max-norms
            // included.
            let peak = session.peak_cache_breakdown();
            assert!(peak.max_norm_bytes > 0, "{peak:?}");
            assert_eq!(session.peak_cache_bytes(), peak.total_bytes());
            (ids, finished, session.peak_cache_bytes())
        };
        let (_, unbounded, peak_unbounded) = run(None);
        let (_, bounded, peak_bounded) = run(Some(8));
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
        let (_, bounded2, _) = run(Some(8));
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
        // `LinearAccum` (so every head row takes its fault pass) but matches
        // no chain.
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

    /// `inj` with the LM head's fault coordinates (slot `usize::MAX / 2`)
    /// masked out: every other draw is `inj`'s.
    struct NotHead<'a>(&'a BerInjector);

    impl NotHead<'_> {
        fn head(coord: OpCoord) -> bool {
            coord.slot == (usize::MAX / 2) as u64
        }
    }

    impl FaultInjector for NotHead<'_> {
        fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
            if Self::head(coord) {
                value
            } else {
                self.0.corrupt_f32(site, coord, value)
            }
        }
        fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
            if Self::head(coord) {
                value
            } else {
                self.0.corrupt_f16(site, coord, value)
            }
        }
        fn decide_chain(
            &self,
            site: FaultSite,
            coord: OpCoord,
            k_len: usize,
        ) -> Option<ChainFault> {
            (!Self::head(coord))
                .then(|| self.0.decide_chain(site, coord, k_len))
                .flatten()
        }
        fn may_fire(&self, site: FaultSite) -> bool {
            self.0.may_fire(site)
        }
    }

    #[test]
    fn protected_head_keeps_every_stream_ledger_under_ber() {
        use ft_core::serve::SamplingMode;
        let mut model =
            TransformerModel::random(17, tiny_config(), BackendKind::Flash).with_causal(true);
        model.lm_head = model.lm_head.with_protection(LinearProtection::StridedAbft);
        // Every head row draws at `(usize::MAX / 2, row 0)`, so the head's
        // draws repeat across rows: the rate is high enough that some of
        // its few distinct chains fire.
        let ber = || BerInjector::new(29, 2e-3).with_sites(&[FaultSite::LinearAccum]);
        // Serve `reqs` in one session; returns the retired streams and the
        // most streams any sweep carried.
        let serve = |reqs: &[(StreamId, GenerationRequest)], inj: &dyn FaultInjector| {
            let mut session = model.serve_with(SchedulerConfig {
                max_active: 4,
                ..Default::default()
            });
            for (id, req) in reqs {
                session.submit_request_with_id(req.clone(), *id);
            }
            let mut widest = 0;
            while !session.idle() {
                session.sweep_events(&inj);
                widest = widest.max(session.active_streams());
            }
            (session.take_finished(), widest)
        };
        let reqs: Vec<(StreamId, GenerationRequest)> = (0..4u32)
            .map(|s| {
                let prompt = (0..5 + s).map(|i| (i * 11 + s) % 101).collect();
                let req = GenerationRequest::new(prompt, 8);
                let req = if s == 1 {
                    req.with_sampling(SamplingMode::TopK { k: 4, seed: 5 })
                } else {
                    req
                };
                (StreamId(u64::from(s)), req)
            })
            .collect();

        let (together, widest) = serve(&reqs, &ber());
        assert!(widest >= 3, "at least three streams share a sweep");
        for (f, req) in together.iter().zip(&reqs) {
            let (alone, _) = serve(std::slice::from_ref(req), &ber());
            assert_eq!(f.id, req.0);
            assert_eq!(f.tokens, alone[0].tokens, "{}: tokens", f.id);
            assert_eq!(f.attention, alone[0].attention, "{}: ledger", f.id);
        }

        // The same run with the head's draws masked: the same tokens, and
        // strictly fewer linear detections — the difference is the head's.
        let linear =
            |fs: &[FinishedStream]| -> u64 { fs.iter().map(|f| f.attention.linear_detected).sum() };
        let inj = ber();
        let (masked, _) = serve(&reqs, &NotHead(&inj));
        for (a, b) in together.iter().zip(&masked) {
            assert_eq!(a.tokens, b.tokens, "{}: the protected head repairs", a.id);
        }
        assert!(
            linear(&together) > linear(&masked),
            "the protected head detected faults: {} vs {} without head draws",
            linear(&together),
            linear(&masked)
        );
    }

    #[test]
    fn per_request_windows_each_match_their_solo_run() {
        // One session, two streams: a full-attention stream and a
        // request-windowed stream. Each must match its own single-stream
        // run.
        let base = TransformerModel::random(
            15,
            tiny_config(),
            BackendKind::Efta(EftaOptions::optimized()),
        )
        .with_causal(true)
        .with_cache_block(4);
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
        let mut solo = base.serve();
        solo.submit_request(GenerationRequest::new(prompt.clone(), 6).with_window(6));
        let win_want = solo.run(&NoFaults).pop().unwrap().tokens;
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
