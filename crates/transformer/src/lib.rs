//! # ft-transformer — fault-tolerant transformer inference substrate
//!
//! The model stack the paper's Fig. 15 experiment runs EFTA inside:
//! embeddings, LayerNorm, multi-head attention over the `ft-core` kernels,
//! ABFT-protected linear projections (Fig. 1's "Linear Projection with ABFT
//! Protection"), feed-forward modules with range-restricted activations,
//! and the GPT-2 / BERT-Base / BERT-Large / T5-Small configurations.
//!
//! Weights are seeded-random: Fig. 15 measures *time overhead ratios* of
//! fault tolerance inside whole-model inference, which depends on tensor
//! shapes, not weight values.
//!
//! Generation runs over the checksum-protected KV-cache decode path:
//! O(cache) work per token instead of a full prefill, with cache-resident
//! state re-verified every step. Serving traffic goes through
//! [`ServeSession`] ([`TransformerModel::serve`]), a typed
//! request/response lifecycle: streams are submitted as
//! [`GenerationRequest`]s (per-stream window, sampling mode, recovery
//! policy), each sweep emits [`EngineEvent`]s, and retired streams carry a
//! [`FinishReason`]. The headline recovery behavior —
//! [`RecoveryPolicy::ReprefillPartial`] — closes the paper's
//! detect → correct → *recover* loop: a stream whose attended cache window
//! is poisoned re-prefills its history past the last clean cache block and
//! resumes bit-identically to an undamaged run.
//! [`TransformerModel::generate`] is the session's one-stream special
//! case, and [`TransformerModel::decode_step`] remains the explicit
//! token-at-a-time loop. The pre-cache prefill-per-token baseline survives
//! as [`TransformerModel::generate_prefill`].
//!
//! Every layer — [`Linear`], [`activation::apply_restricted`],
//! [`FeedForward`], [`MultiHeadAttention`], [`TransformerBlock`], the model
//! and the session — reports its fault events in one vocabulary, the
//! [`FtReport`] ledger of `ft-core`; a stream's ledger lives in its
//! scheduler state and comes back on [`FinishedStream`], the one record of
//! a retired stream — from [`ServeSession::take_finished`] and from
//! [`StreamHandle::wait`] alike.
//!
//! On top of the pull-mode session sits the push-based serving loop,
//! [`Fleet`] ([`crate::fleet`], [`crate::engine`]): N worker threads each
//! own a scheduler + session over one shared model, with a
//! [`Priority`]-classed run queue with aging, preemption through the
//! bit-identical re-prefill path, and bounded per-stream event channels
//! ([`StreamHandle`]) whose backpressure stops the scheduler producing
//! for a slow consumer's stream instead of stalling the sweep. A
//! least-loaded admission router validates requests, allocates
//! fleet-unique stream ids and returns the handles; idle shards steal
//! streams bit-identically, and per-shard [`ShardReport`]s roll up
//! losslessly into a [`FleetReport`]. [`FleetConfig::single`] is the
//! one-worker case.

#![warn(missing_docs)]

pub mod activation;
pub mod block;
pub mod configs;
pub mod embed;
pub mod engine;
pub mod ffn;
pub mod fleet;
pub mod linear;
pub mod mha;
pub mod model;
pub mod norm;

pub use activation::Activation;
pub use block::TransformerBlock;
pub use configs::ModelConfig;
pub use embed::Embedding;
pub use engine::{EngineConfig, StreamHandle};
pub use ffn::FeedForward;
pub use fleet::{Fleet, FleetConfig, FleetReport, ShardId, ShardReport, SubmitError};
pub use ft_core::kv::SizeBreakdown;
pub use ft_core::protect::ProtectionLevel;
pub use ft_core::serve::{
    DraftSource, EngineEvent, FinishReason, GenerationRequest, Priority, RecoveryPolicy,
    SamplingMode, SchedulerConfig, SpeculationPolicy, StreamId,
};
pub use ft_core::types::FtReport;
pub use linear::{Linear, LinearProtection};
pub use mha::{BackendKind, KvCache, MultiHeadAttention};
pub use model::{
    serve_expose_step, Admission, FinishedStream, ModelKvCache, ServeSession, TransformerModel,
};
pub use norm::LayerNorm;
