//! Push-based serving: the per-shard configuration ([`EngineConfig`]) and
//! the consumer's side of a stream ([`StreamHandle`]).
//!
//! The pull-mode [`ServeSession`](crate::model::ServeSession) makes the
//! *caller* the event loop. A [`Fleet`](crate::Fleet) inverts the control
//! flow: each worker thread owns a session and sweeps continuously on its
//! own, [`Fleet::submit`](crate::Fleet::submit) hands back a
//! [`StreamHandle`], and the stream's [`EngineEvent`]s arrive over a
//! bounded per-stream channel (loop diagram: [`crate::fleet`]).
//!
//! Three policies make it a *server* rather than a threaded loop, and all
//! three live in one place — the scheduler's
//! [`plan`](ft_core::serve::DecodeScheduler::plan):
//!
//! * **Priority classes.** Every request carries a [`Priority`]
//!   (`Latency` / `Normal` / `Batch`); the scheduler's run queue admits
//!   by class with deadline-aware aging
//!   ([`SchedulerConfig::priority_aging`]), so batch work cannot starve
//!   and latency work does not queue behind it.
//! * **Preemption.** With [`SchedulerConfig::preempt`] on (the
//!   [`EngineConfig`] default), a blocked higher-class arrival parks the
//!   weakest active stream: its cache is dropped, its emitted tokens are
//!   kept, and it resumes later through the same chunked re-prefill path
//!   recovery uses — so a preempted stream's output is bit-identical to
//!   an uninterrupted run ([`EngineEvent::Preempted`] / `Resumed` mark the
//!   transitions).
//! * **Backpressure.** Per-stream channels are bounded
//!   ([`EngineConfig::channel_capacity`]). A full channel never blocks
//!   the sweep: the stream's events buffer in a worker-side outbox, and
//!   the worker reports the stream *blocked* until the outbox is empty
//!   again. A blocked stream finishes a prefill it has started, is then
//!   not sampled, not re-admitted once parked, and first to give its slot
//!   and cache bytes to a waiting stream whose consumer keeps up — so an
//!   outbox holds at most one admission cycle's events and park/resume
//!   cannot livelock.
//!
//! Speculative decoding composes transparently with all three: a request
//! carrying a [`SpeculationPolicy`](ft_core::serve::SpeculationPolicy)
//! has its drafts verified inside the worker's ordinary sweeps, so a
//! handle simply observes several [`EngineEvent::TokenEmitted`] events
//! per sweep (the commit) while rejected drafts are rolled back before
//! anything reaches the channel — consumers never see a retracted token.
//!
//! No async runtime: plain `std::thread` + `std::sync::mpsc`, per the
//! repo's no-new-dependencies policy.

use ft_core::serve::{EngineEvent, FinishReason, Priority, SchedulerConfig, StreamId};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// Sizing and policy knobs of each shard of a [`Fleet`](crate::Fleet).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Scheduler sizing handed to the worker's [`ServeSession`]. The
    /// engine default turns preemption on and ages queued streams one
    /// class per 64 plan ticks (a plain [`SchedulerConfig::default`]
    /// leaves both off for pull-mode compatibility).
    ///
    /// [`ServeSession`]: crate::model::ServeSession
    pub scheduler: SchedulerConfig,
    /// Bound of each stream's event channel. A full channel parks events
    /// in a worker-side outbox (and the scheduler stops producing for the
    /// stream) instead of blocking the sweep.
    pub channel_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheduler: SchedulerConfig {
                preempt: true,
                priority_aging: Some(64),
                ..SchedulerConfig::default()
            },
            channel_capacity: 64,
        }
    }
}

/// The receiving side of one stream: yields the stream's [`EngineEvent`]s
/// in order, ending after [`EngineEvent::Finished`]. Dropping a handle
/// early discards that stream's remaining events (the stream itself still
/// runs to completion).
///
/// ```no_run
/// # use ft_transformer::{Fleet, GenerationRequest, Priority};
/// # fn demo(fleet: &Fleet) {
/// let handle =
///     fleet.submit(GenerationRequest::new(vec![1, 2, 3], 8).with_priority(Priority::Latency));
/// for event in handle.iter() {
///     println!("{event}"); // stream0 token=…, stream0 finished: max-tokens
/// }
/// # }
/// ```
pub struct StreamHandle {
    id: StreamId,
    priority: Priority,
    events: Receiver<EngineEvent>,
}

impl StreamHandle {
    /// Bind a handle to its worker-side event channel — the router's
    /// half of the pair.
    pub(crate) fn attach(id: StreamId, priority: Priority, events: Receiver<EngineEvent>) -> Self {
        StreamHandle {
            id,
            priority,
            events,
        }
    }

    /// The stream's identity (allocated at submission, before the worker
    /// ran anything).
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The class the stream was submitted under.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Block for the next event; `None` once the stream has finished and
    /// every event has been delivered.
    pub fn recv(&self) -> Option<EngineEvent> {
        self.events.recv().ok()
    }

    /// Non-blocking receive: `None` when no event is ready right now *or*
    /// the stream is complete (disambiguate with a final
    /// [`EngineEvent::Finished`], which always precedes the hang-up).
    pub fn try_recv(&self) -> Option<EngineEvent> {
        self.events.try_recv().ok()
    }

    /// [`recv`](StreamHandle::recv) with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<EngineEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Blocking iterator over the stream's remaining events.
    pub fn iter(&self) -> impl Iterator<Item = EngineEvent> + '_ {
        std::iter::from_fn(move || self.recv())
    }

    /// Drain the stream to completion and fold its lifecycle into a
    /// [`StreamOutcome`].
    pub fn wait(self) -> StreamOutcome {
        let mut outcome = StreamOutcome {
            id: self.id,
            priority: self.priority,
            tokens: Vec::new(),
            finish: None,
            recoveries: 0,
            preemptions: 0,
            events: Vec::new(),
        };
        for ev in self.iter() {
            match ev {
                EngineEvent::TokenEmitted { token, .. } => outcome.tokens.push(token),
                EngineEvent::Recovering { .. } => outcome.recoveries += 1,
                EngineEvent::Preempted { .. } => outcome.preemptions += 1,
                EngineEvent::Finished { reason, .. } => outcome.finish = Some(reason),
                _ => {}
            }
            outcome.events.push(ev);
        }
        outcome
    }
}

/// A completed stream's lifecycle, folded by [`StreamHandle::wait`].
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The stream's identity.
    pub id: StreamId,
    /// The class it was submitted under.
    pub priority: Priority,
    /// Sampled continuation tokens, in emission order (the prompt is not
    /// echoed).
    pub tokens: Vec<u32>,
    /// Terminal reason; `None` only if the shard serving the stream
    /// panicked (or every shard had when it was submitted): the handle then
    /// ends without [`EngineEvent::Finished`] instead of waiting forever.
    /// Dropping or shutting down the [`Fleet`](crate::Fleet) never cuts a
    /// stream short.
    pub finish: Option<FinishReason>,
    /// Re-prefill recovery attempts observed ([`EngineEvent::Recovering`]).
    pub recoveries: u32,
    /// Park transitions observed ([`EngineEvent::Preempted`]).
    pub preemptions: u32,
    /// The full ordered event log.
    pub events: Vec<EngineEvent>,
}
