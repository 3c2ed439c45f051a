//! Push-based serving-loop suite: a one-worker `Fleet` must deliver
//! every stream's events over its bounded channel with output equal to
//! the stepwise decode oracle, stay live under bursty arrivals with a
//! tight memory budget and full channels (no deadlock, no dropped
//! stream), and let a `Latency` arrival preempt long `Batch` work — with
//! the preempted streams still bit-identical.

mod common;

use common::{prompt, stepwise_generate, tiny_config};
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::sim::NoFaults;
use ft_transformer_suite::transformer::{
    BackendKind, EngineConfig, EngineEvent, FinishReason, Fleet, FleetConfig, GenerationRequest,
    Priority, SchedulerConfig, SpeculationPolicy, StreamHandle, SubmitError, TransformerModel,
};
use std::time::{Duration, Instant};

fn tiny_model(seed: u64, max_seq: usize) -> TransformerModel {
    TransformerModel::random(
        seed,
        tiny_config("engine-tiny", max_seq),
        BackendKind::Efta(EftaOptions::optimized()),
    )
    .with_causal(true)
}

/// The generated suffix the engine should emit for this workload (the
/// stepwise oracle echoes the prompt; `TokenEmitted` events do not).
fn oracle(model: &TransformerModel, p: &[u32], new_tokens: usize) -> Vec<u32> {
    stepwise_generate(model, p, new_tokens, None)[p.len()..].to_vec()
}

/// Drain a handle to `Finished`. Returns (tokens, finish, preemptions).
/// The deadline is a watchdog only — it turns a hang into a failure;
/// liveness itself is proven without a clock by the step-driven
/// `bursty_arrivals_with_full_channels_finish_in_bounded_steps` and its
/// property in `ft-core`'s scheduler tests.
fn drain_by(handle: &StreamHandle, deadline: Instant) -> (Vec<u32>, Option<FinishReason>, u32) {
    let mut tokens = Vec::new();
    let mut preemptions = 0;
    loop {
        assert!(
            Instant::now() < deadline,
            "stream {} stalled: {} tokens so far, no Finished event",
            handle.id(),
            tokens.len()
        );
        match handle.recv_timeout(Duration::from_millis(250)) {
            Some(EngineEvent::TokenEmitted { token, .. }) => tokens.push(token),
            Some(EngineEvent::Preempted { .. }) => preemptions += 1,
            Some(EngineEvent::Finished { reason, .. }) => {
                return (tokens, Some(reason), preemptions)
            }
            Some(_) => {}
            None => {}
        }
    }
}

/// The bursty shape: 8 mixed-class streams (prompt `10 + i`, 6 new tokens).
const BURSTY_CLASSES: [Priority; 8] = [
    Priority::Batch,
    Priority::Normal,
    Priority::Latency,
    Priority::Normal,
    Priority::Batch,
    Priority::Latency,
    Priority::Normal,
    Priority::Batch,
];

fn bursty_jobs() -> Vec<(Vec<u32>, usize)> {
    (0..BURSTY_CLASSES.len())
        .map(|i| (prompt(10 + i, i), 6))
        .collect()
}

fn bursty_config() -> EngineConfig {
    EngineConfig {
        scheduler: SchedulerConfig {
            max_active: 2,
            prefill_chunk: 8,
            memory_budget: Some(10_000),
            preempt: true,
            priority_aging: Some(4),
        },
        channel_capacity: 1,
    }
}

/// Spawn the bursty fleet — 2 slots, a budget of roughly two streams' caches
/// (bytes/token = 4 · hidden · layers = 256) and one-event channels, so
/// nearly every stream's consumer lags: maximum scheduler churn — and
/// submit the burst. Returns the handles and each stream's oracle tokens.
fn spawn_bursty(model: TransformerModel) -> (Fleet, Vec<StreamHandle>, Vec<Vec<u32>>) {
    let jobs = bursty_jobs();
    let want = jobs.iter().map(|(p, n)| oracle(&model, p, *n)).collect();
    let engine = Fleet::spawn(model, FleetConfig::single(bursty_config()));
    let handles = jobs
        .iter()
        .zip(&BURSTY_CLASSES)
        .map(|((p, n), &class)| {
            engine.submit(GenerationRequest::new(p.clone(), *n).with_priority(class))
        })
        .collect();
    (engine, handles, want)
}

/// Streams submitted through the engine deliver, over their channels, the
/// same tokens the stepwise decode oracle produces, ending in `Finished:
/// max-tokens` — the push-mode loop is output-equivalent to pull-mode.
#[test]
fn engine_handles_deliver_oracle_tokens() {
    let model = tiny_model(61, 96);
    let jobs: Vec<(Vec<u32>, usize)> =
        [(20usize, 0usize, 5usize), (33, 1, 4), (9, 2, 6), (27, 3, 3)]
            .iter()
            .map(|&(len, salt, n)| (prompt(len, salt), n))
            .collect();
    let want: Vec<Vec<u32>> = jobs.iter().map(|(p, n)| oracle(&model, p, *n)).collect();

    let engine = Fleet::spawn(
        model,
        FleetConfig::single(EngineConfig {
            scheduler: SchedulerConfig {
                max_active: 2,
                prefill_chunk: 8,
                ..Default::default()
            },
            ..Default::default()
        }),
    );
    let handles: Vec<_> = jobs
        .iter()
        .map(|(p, n)| engine.submit(GenerationRequest::new(p.clone(), *n)))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.priority(), Priority::Normal);
        let outcome = h.wait();
        assert_eq!(outcome.tokens, want[i], "stream {i} diverged from oracle");
        assert_eq!(outcome.finish, Some(FinishReason::MaxTokens), "stream {i}");
        assert!(
            matches!(outcome.events.last(), Some(EngineEvent::Finished { .. })),
            "stream {i}: Finished must be the last event"
        );
    }
    engine.shutdown();
}

/// Liveness under pressure: a burst of mixed-priority arrivals into a
/// one-event channel per stream, a memory budget that cannot hold the
/// whole batch, and consumers drained strictly one at a time (so most
/// channels sit full for most of the run). Nothing deadlocks, nothing is
/// dropped: every stream reaches `Finished` with oracle-exact tokens.
#[test]
fn bursty_arrivals_with_full_channels_and_tight_budget_all_finish() {
    let (_engine, handles, want) = spawn_bursty(tiny_model(62, 96));
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, h) in handles.iter().enumerate() {
        let (tokens, finish, _) = drain_by(h, deadline);
        assert_eq!(tokens, want[i], "stream {i} diverged under pressure");
        assert_eq!(finish, Some(FinishReason::MaxTokens), "stream {i}");
    }
}

/// The same burst with one consumer that holds its handle and never reads
/// it. Its stream must cost the others nothing but a bounded number of
/// parks: the seven drained streams finish oracle-exact, the stuck one is
/// parked at most once per token it emitted (its outbox would otherwise
/// trip the worker's length assert), and dropping the stuck handle lets
/// the stream run out and `shutdown` return.
#[test]
fn a_consumer_that_never_reads_costs_the_others_only_bounded_parks() {
    const STUCK: usize = 2;
    let (engine, handles, want) = spawn_bursty(tiny_model(62, 96));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut drained_parks = 0;
    for (i, h) in handles.iter().enumerate().filter(|(i, _)| *i != STUCK) {
        let (tokens, finish, parks) = drain_by(h, deadline);
        assert_eq!(
            tokens, want[i],
            "stream {i} diverged beside a stuck consumer"
        );
        assert_eq!(finish, Some(FinishReason::MaxTokens), "stream {i}");
        drained_parks += u64::from(parks);
    }
    drop(handles);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(engine.shutdown()));
    let total = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown returns once the stuck handle is dropped")
        .total();
    assert_eq!(
        total.streams_finished, 8,
        "the abandoned stream still retires"
    );
    assert_eq!(total.tokens_emitted, 8 * 6);
    let stuck_parks = total.preemptions - drained_parks;
    assert!(
        stuck_parks <= 6,
        "stuck stream parked {stuck_parks} times for 6 tokens"
    );
}

/// A request no shard could serve is refused on the submitting thread —
/// the shard never sees it, so the fleet keeps serving.
#[test]
fn a_malformed_request_is_refused_without_touching_the_shard() {
    let model = tiny_model(64, 32);
    let good = prompt(9, 0);
    let want = oracle(&model, &good, 4);
    let engine = Fleet::spawn(model, FleetConfig::single(EngineConfig::default()));
    let refused = |req: GenerationRequest| engine.try_submit(req).err();
    assert_eq!(
        refused(GenerationRequest::new(vec![], 4)),
        Some(SubmitError::EmptyPrompt)
    );
    let too_long = SubmitError::PromptTooLong {
        len: 33,
        max_seq: 32,
    };
    assert_eq!(
        refused(GenerationRequest::new(prompt(33, 1), 4)),
        Some(too_long)
    );
    assert_eq!(
        too_long.to_string(),
        "prompt of 33 tokens exceeds max_seq 32"
    );
    // `with_window(0)` asserts; the field itself is public.
    let zero_window = GenerationRequest {
        window: Some(0),
        ..GenerationRequest::new(good.clone(), 4)
    };
    assert_eq!(refused(zero_window), Some(SubmitError::ZeroWindow));
    let outcome = engine
        .try_submit(GenerationRequest::new(good, 4))
        .expect("a well-formed request is accepted")
        .wait();
    assert_eq!(outcome.tokens, want, "the shard survived the bad requests");
    assert_eq!(outcome.finish, Some(FinishReason::MaxTokens));
    assert_eq!(engine.shutdown().streams_submitted, 1);
}

/// Requests at the edge of what `check` accepts — a window of `usize::MAX`
/// rows, a draft of `usize::MAX` tokens, and both — are served, not
/// panicked on, through `Fleet::try_submit` and through a `ServeSession`:
/// each finishes `MaxTokens` with the tokens of the same request without
/// the window or the speculation. (The admission projection, the outbox
/// bound and the plan's per-stream cap each add to one of these values.)
#[test]
fn extreme_windows_and_drafts_finish_like_plain_requests() {
    let model = tiny_model(65, 48);
    let (p, new_tokens) = (prompt(11, 3), 6);
    let want = oracle(&model, &p, new_tokens);
    let extreme = || {
        let plain = GenerationRequest::new(p.clone(), new_tokens);
        let draft = SpeculationPolicy::new(usize::MAX);
        [
            plain.clone().with_window(usize::MAX),
            plain.clone().with_speculation(draft.clone()),
            plain.with_window(usize::MAX).with_speculation(draft),
        ]
    };
    let engine = Fleet::spawn(model.clone(), FleetConfig::single(EngineConfig::default()));
    for (i, req) in extreme().into_iter().enumerate() {
        let out = engine.try_submit(req).expect("a checked request").wait();
        assert_eq!(out.tokens, want, "fleet request {i}");
        assert_eq!(
            out.finish,
            Some(FinishReason::MaxTokens),
            "fleet request {i}"
        );
    }
    assert_eq!(engine.shutdown().streams_submitted, 3);
    let mut session = model.serve();
    let ids: Vec<_> = (extreme().into_iter())
        .map(|req| session.submit_request(req))
        .collect();
    while !session.idle() {
        session.sweep_events(&NoFaults);
    }
    let finished = session.take_finished();
    for (i, id) in ids.into_iter().enumerate() {
        let f = finished.iter().find(|f| f.id == id).expect("finished");
        assert_eq!(f.tokens[p.len()..], want[..], "session request {i}");
        assert_eq!(f.finish, FinishReason::MaxTokens, "session request {i}");
    }
}

/// A `Latency` arrival parks long-running `Batch` work (observable as
/// `Preempted` in the batch streams' event logs) — and the parked streams
/// still finish bit-identical to their uninterrupted oracles.
#[test]
fn latency_arrival_preempts_batch_work_without_changing_output() {
    let model = tiny_model(63, 128);
    let batch_prompts = [prompt(14, 0), prompt(11, 1)];
    let urgent_prompt = prompt(9, 2);
    let batch_want: Vec<Vec<u32>> = batch_prompts
        .iter()
        .map(|p| oracle(&model, p, 24))
        .collect();
    let urgent_want = oracle(&model, &urgent_prompt, 4);

    let engine = Fleet::spawn(
        model,
        FleetConfig::single(EngineConfig {
            scheduler: SchedulerConfig {
                max_active: 1,
                prefill_chunk: 16,
                preempt: true,
                ..Default::default()
            },
            ..Default::default()
        }),
    );
    let batch_handles: Vec<_> = batch_prompts
        .iter()
        .map(|p| {
            engine.submit(GenerationRequest::new(p.clone(), 24).with_priority(Priority::Batch))
        })
        .collect();
    // Wait until batch work is demonstrably active (first token emitted)
    // before the urgent request arrives — the preemption window, made
    // deterministic by observing the stream instead of sleeping.
    let first_batch_event = batch_handles[0]
        .recv_timeout(Duration::from_secs(30))
        .expect("batch stream must start");
    let first_batch_token = match first_batch_event {
        EngineEvent::TokenEmitted { token, .. } => token,
        other => panic!("expected the first event to be a token, got {other}"),
    };
    let urgent = engine
        .submit(GenerationRequest::new(urgent_prompt.clone(), 4).with_priority(Priority::Latency));

    let urgent_outcome = urgent.wait();
    assert_eq!(urgent_outcome.tokens, urgent_want, "urgent stream diverged");
    assert_eq!(
        urgent_outcome.preemptions, 0,
        "the urgent stream never parks"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut total_preemptions = 0;
    for (i, h) in batch_handles.iter().enumerate() {
        let (mut tokens, finish, preemptions) = drain_by(h, deadline);
        if i == 0 {
            tokens.insert(0, first_batch_token);
        }
        assert_eq!(
            tokens, batch_want[i],
            "batch stream {i} diverged after preemption"
        );
        assert_eq!(finish, Some(FinishReason::MaxTokens), "batch stream {i}");
        total_preemptions += preemptions;
    }
    assert!(
        total_preemptions >= 1,
        "the latency arrival must actually park batch work"
    );
}
