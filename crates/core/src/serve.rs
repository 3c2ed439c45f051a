//! Continuous-batching decode: many generation streams, one kernel sweep.
//!
//! A serving system rarely decodes one sequence at a time. This module is
//! the kernel-level half of continuous batching (the model-level half —
//! embedding, layer wiring, sampling — lives in the `ft-transformer`
//! crate's `ServeSession`). It holds three concerns, one file each:
//!
//! * `sweep.rs`, the kernel side — [`StreamSlice`] / [`StreamSweepOutput`]
//!   and [`sweep_efta`], which runs every `(stream, slot)` tile of every
//!   stream's chunk through one parallel fan-out and attributes fault
//!   events to per-stream [`FtReport`](crate::types::FtReport)s.
//! * `request.rs`, the typed request/response vocabulary —
//!   [`GenerationRequest`] and its [`check`](GenerationRequest::check),
//!   [`SamplingMode`], [`RecoveryPolicy`] and its pure
//!   [`decide`](RecoveryPolicy::decide), [`SpeculationPolicy`],
//!   [`Priority`], [`EngineEvent`], [`FinishReason`].
//! * `scheduler.rs`, the slot table — [`DecodeScheduler`] with its
//!   [`SchedulerConfig`], per-stream [`StreamState`] and per-sweep
//!   [`PlanItem`]s; see [`DecodeScheduler`] for the caller's loop contract.

mod request;
mod scheduler;
mod sweep;

pub use request::{
    DraftSource, EngineEvent, FinishReason, GenerationRequest, Priority, RecoveryAction,
    RecoveryPolicy, SamplingMode, SpeculationPolicy, StreamId, SubmitError,
};
pub use scheduler::{DecodeScheduler, PlanItem, SchedulerConfig, StreamState};
pub(crate) use sweep::sweep_tiles;
pub use sweep::{sweep_efta, StreamSlice, StreamSweepOutput};
