//! Preemption-equivalence suite: parking an active stream (drop its
//! cache, keep its emitted tokens) and resuming it later through the
//! chunked re-prefill path must be **invisible in the output** — the
//! preempted stream's tokens are bit-identical to an uninterrupted run on
//! every `BackendKind` — and the fault-recovery machinery must keep
//! working on the rebuilt cache: an SEU that lands *after* park/resume is
//! still detected, re-prefilled, and corrected bit-identically.

mod common;

use common::{prompt, stepwise_generate, tiny_config};
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::num::F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer_suite::transformer::{
    serve_expose_step, EngineEvent, FinishReason, FinishedStream, GenerationRequest, ModelConfig,
    Priority, RecoveryPolicy, SchedulerConfig, ServeSession, StreamId, TransformerModel,
};

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("preempt-tiny", max_seq)
}

/// One-slot scheduler with preemption on: the ISSUE's park trigger —
/// a higher class arrives while `max_active` is full.
fn one_slot() -> SchedulerConfig {
    SchedulerConfig {
        max_active: 1,
        prefill_chunk: 16,
        preempt: true,
        ..Default::default()
    }
}

/// Drive a session to completion, returning finished streams and events.
fn run_with_events<I: FaultInjector>(
    session: &mut ServeSession<&TransformerModel>,
    inj: &I,
) -> (Vec<FinishedStream>, Vec<EngineEvent>) {
    let mut events = Vec::new();
    while !session.idle() {
        events.extend(session.sweep_events(inj));
    }
    (session.take_finished(), events)
}

/// Two aliased SEUs (rows 0 and 8 of one column — a shared stride-8
/// checksum lane) delivered at one exposure step: the deterministic
/// unlocatable-damage recipe from the recovery suite.
struct PairInjector(SeuInjector, SeuInjector);

impl PairInjector {
    fn aliased_k(step: u64, col: usize) -> Self {
        let coord = |row: u64| OpCoord {
            slot: 0,
            i: row,
            j: col as u64,
            k: 2 * step, // `which` = 0: the K payload
        };
        PairInjector(
            SeuInjector::new(FaultSite::KvCache, coord(0), 13),
            SeuInjector::new(FaultSite::KvCache, coord(8), 13),
        )
    }
}

impl FaultInjector for PairInjector {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        self.1
            .corrupt_f32(site, coord, self.0.corrupt_f32(site, coord, value))
    }
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        self.1
            .corrupt_f16(site, coord, self.0.corrupt_f16(site, coord, value))
    }
    fn fired(&self) -> u64 {
        self.0.fired() + self.1.fired()
    }
}

/// A `Batch` stream preempted mid-decode by a `Latency` arrival and later
/// resumed emits exactly the tokens of an uninterrupted run — on every
/// backend — and the lifecycle surfaces as `Preempted` → (urgent
/// `Finished`) → `Resumed` in event order.
#[test]
fn preempted_and_resumed_stream_is_bit_identical_on_every_backend() {
    let victim_prompt = prompt(13, 0);
    let urgent_prompt = prompt(9, 1);
    for kind in BackendKind::all() {
        let model = TransformerModel::random(51, tiny(64), kind)
            .with_causal(true)
            .with_cache_block(16);
        let want_victim = stepwise_generate(&model, &victim_prompt, 6, None);
        let want_urgent = stepwise_generate(&model, &urgent_prompt, 3, None);

        let mut session = model.serve_with(one_slot());
        let victim = session.submit_request(
            GenerationRequest::new(victim_prompt.clone(), 6).with_priority(Priority::Batch),
        );
        // Two sweeps put the victim mid-decode (prefill + sample, then one
        // decode step); only then does the urgent request arrive.
        session.sweep_events(&NoFaults);
        session.sweep_events(&NoFaults);
        let urgent = session.submit_request(
            GenerationRequest::new(urgent_prompt.clone(), 3).with_priority(Priority::Latency),
        );
        let (finished, events) = run_with_events(&mut session, &NoFaults);

        let fv = finished.iter().find(|f| f.id == victim).unwrap();
        let fu = finished.iter().find(|f| f.id == urgent).unwrap();
        assert_eq!(
            fv.tokens, want_victim,
            "{kind}: preempted+resumed stream diverged from the uninterrupted run"
        );
        assert_eq!(fu.tokens, want_urgent, "{kind}: urgent stream diverged");
        assert_eq!(fv.preemptions, 1, "{kind}: exactly one park");
        assert_eq!(fu.preemptions, 0, "{kind}: the urgent stream never parks");
        let parks: u32 = finished.iter().map(|f| f.preemptions).sum();
        assert_eq!(parks, 1, "{kind}");
        assert_eq!(fv.finish, FinishReason::MaxTokens, "{kind}");

        let pre = events
            .iter()
            .position(|e| matches!(e, EngineEvent::Preempted { stream } if *stream == victim));
        let res = events
            .iter()
            .position(|e| matches!(e, EngineEvent::Resumed { stream } if *stream == victim));
        let urgent_done = events
            .iter()
            .position(|e| matches!(e, EngineEvent::Finished { stream, .. } if *stream == urgent));
        assert!(
            pre.is_some() && res.is_some() && urgent_done.is_some(),
            "{kind}: missing lifecycle events: {events:?}"
        );
        assert!(
            pre < urgent_done && urgent_done < res,
            "{kind}: the urgent stream must run in the parked window \
             (Preempted at {pre:?}, urgent Finished at {urgent_done:?}, Resumed at {res:?})"
        );
    }
}

/// Recovery still works on a *rebuilt* cache: aliased SEUs that land only
/// after the victim was parked and resumed poison the re-prefilled cache,
/// and `ReprefillPartial` recovers it bit-identically — park/resume and
/// fault recovery compose because they share the same re-prefill path.
#[test]
fn seu_landing_after_resume_still_recovers_bit_identically() {
    let victim_prompt = prompt(13, 0);
    // Decode exposure base 15 (a ragged trailing block, 15 of 16 rows —
    // the recovery suite's laundering geometry) is reached only *after*
    // the park at 15 total tokens: pre-park sweeps expose bases 0 and 13,
    // the resume re-prefill re-exposes base 0, and the first post-resume
    // decode hits 15. After the recovery requeue the re-prefill covers
    // chunk base 0 and decode continues from 16, so the armed coordinate
    // never recurs.
    let step = serve_expose_step(StreamId(0), 15, 2, 0);
    for kind in BackendKind::all() {
        let model = TransformerModel::random(52, tiny(64), kind)
            .with_causal(true)
            .with_cache_block(16);
        let want = stepwise_generate(&model, &victim_prompt, 6, None);

        let inj = PairInjector::aliased_k(step, 3);
        let mut session = model.serve_with(one_slot());
        let victim = session.submit_request(
            GenerationRequest::new(victim_prompt.clone(), 6)
                .with_priority(Priority::Batch)
                .with_recovery(RecoveryPolicy::ReprefillPartial { max_attempts: 3 }),
        );
        session.sweep_events(&inj);
        session.sweep_events(&inj);
        assert_eq!(
            inj.fired(),
            0,
            "{kind}: the armed step must not be exposed before the park"
        );
        let urgent = session.submit_request(
            GenerationRequest::new(prompt(9, 1), 3).with_priority(Priority::Latency),
        );
        let (finished, events) = run_with_events(&mut session, &inj);
        assert_eq!(
            inj.fired(),
            2,
            "{kind}: both aliased flips must land in the rebuilt cache"
        );

        let fv = finished.iter().find(|f| f.id == victim).unwrap();
        let fu = finished.iter().find(|f| f.id == urgent).unwrap();
        assert_eq!(
            fv.tokens, want,
            "{kind}: post-resume recovery diverged from the undamaged run"
        );
        assert_eq!(fv.preemptions, 1, "{kind}: one park");
        assert_eq!(fv.recoveries, 1, "{kind}: one re-prefill recovery");
        assert_eq!(fv.finish, FinishReason::Recovered, "{kind}");
        assert_eq!(fu.recoveries, 0, "{kind}: the urgent stream stays clean");
        assert!(
            events.iter().any(
                |e| matches!(e, EngineEvent::CachePoisoned { stream, .. } if *stream == victim)
            ),
            "{kind}: poisoning must surface as an event: {events:?}"
        );
        let res = events
            .iter()
            .position(|e| matches!(e, EngineEvent::Resumed { stream } if *stream == victim));
        let rec = events
            .iter()
            .position(|e| matches!(e, EngineEvent::Recovering { stream, .. } if *stream == victim));
        assert!(
            res.is_some() && rec.is_some() && res < rec,
            "{kind}: the SEU must hit after the resume \
             (Resumed at {res:?}, Recovering at {rec:?})"
        );
    }
}
