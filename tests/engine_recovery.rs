//! Engine-lifecycle recovery suite: the typed `GenerationRequest` →
//! `EngineEvent` API's headline behavior, auto re-prefill
//! (`RecoveryPolicy::ReprefillBounded`), proven end to end.
//!
//! The contracts:
//! * a stream whose cache is poisoned mid-decode and recovered emits a
//!   token sequence **bit-identical** to an undamaged greedy run — for
//!   every `BackendKind` (the sticky per-block poison marks are set by
//!   append-time laundering, which needs no protected kernel), ragged
//!   caches included;
//! * poisoning that persists through `max_attempts` re-prefills aborts the
//!   stream with `FinishReason::AbortedPoisoned`;
//! * poison whose block is retired by sliding-window eviction (or that
//!   sits behind the attended window) triggers **no** recovery;
//! * `RecoveryPolicy::None` preserves the pre-lifecycle behavior: the
//!   damage stays on the report, nothing acts on it;
//! * `RecoveryPolicy::ReprefillPartial` exploits the sticky block marks to
//!   roll back to the last clean boundary and re-feed only the suffix —
//!   bit-identical to the full re-prefill with strictly fewer re-fed
//!   tokens when the poison sits near the tail, and falling back to the
//!   full replay when the poisoned block is the first attended one.
//! * under a random cache-resident BER ladder on a GPT-2-shaped model,
//!   `ReprefillBounded` retires every stream at every rung and the ladder
//!   runs at least one recovery.

mod common;

use common::{prompt, tiny_config};
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::num::F16;
use ft_transformer_suite::sim::{
    BerInjector, FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector,
};
use ft_transformer_suite::transformer::{
    serve_expose_step, EngineEvent, FinishReason, FinishedStream, GenerationRequest, ModelConfig,
    RecoveryPolicy, SchedulerConfig, ServeSession, StreamId, TransformerModel,
};
use std::sync::atomic::{AtomicU64, Ordering};

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("recovery-tiny", max_seq)
}

/// Two targeted SEUs delivered through one injector: aimed at two cache
/// rows sharing a checksum lane (rows `r` and `r + stride`, same column),
/// their combined delta is unlocatable — the deterministic recipe for
/// unrepairable (poisoning) cache damage.
struct PairInjector(SeuInjector, SeuInjector);

impl PairInjector {
    /// Alias rows 0 and 8 of column `col` in slot 0 of the K payload
    /// exposed at step `step` (stride-8 checksums: same lane).
    fn aliased_k(step: u64, col: usize) -> Self {
        Self::aliased_k_rows(step, col, 0)
    }

    /// Same aliasing aimed at global rows `base` and `base + 8` — both in
    /// the block at `base / block` when the block holds ≥ 9 rows past
    /// `base`, sharing a stride-8 lane there. This is how the partial-
    /// recovery tests poison a *late* block while leaving the prefix clean.
    fn aliased_k_rows(step: u64, col: usize, base: usize) -> Self {
        let coord = |row: usize| OpCoord {
            slot: 0,
            i: row as u64,
            j: col as u64,
            k: 2 * step, // `which` = 0: the K payload
        };
        PairInjector(
            SeuInjector::new(FaultSite::KvCache, coord(base), 13),
            SeuInjector::new(FaultSite::KvCache, coord(base + 8), 13),
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

/// A fault that *re-arms*: every exposure of slot 0 corrupts K rows 0 and
/// 8 of column `col` — the persistent-damage regime where bounded retries
/// must eventually give up.
struct PersistentPair {
    col: u64,
    fired: AtomicU64,
}

impl PersistentPair {
    fn new(col: usize) -> Self {
        PersistentPair {
            col: col as u64,
            fired: AtomicU64::new(0),
        }
    }
}

impl FaultInjector for PersistentPair {
    fn corrupt_f32(&self, _: FaultSite, _: OpCoord, value: f32) -> f32 {
        value
    }
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        let is_k = coord.k.is_multiple_of(2);
        if site == FaultSite::KvCache
            && coord.slot == 0
            && coord.j == self.col
            && is_k
            && (coord.i == 0 || coord.i == 8)
        {
            self.fired.fetch_add(1, Ordering::Relaxed);
            value.flip_bit(13)
        } else {
            value
        }
    }
    fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

/// Drive a session to completion through the event API, returning the
/// finished streams and every emitted event.
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

fn count_recovering(events: &[EngineEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, EngineEvent::Recovering { .. }))
        .count()
}

/// Mid-decode cache poisoning recovered by `ReprefillBounded` reproduces
/// the undamaged greedy run bit for bit — on **every** backend in the
/// registry. The damage is two aliased flips in the trailing *ragged*
/// block (15 of 16 rows), laundered into a sticky per-block mark by the
/// next append's verification, which is backend-independent: even the
/// unprotected flash sweep recovers, because the trigger reads the marks,
/// not a kernel report.
#[test]
fn recovered_stream_is_bit_identical_to_undamaged_run_on_every_backend() {
    let p = prompt(13, 0);
    let new_tokens = 6;
    // Exposure step of (stream 0, sweep base position 15, layer 0 of 2):
    // at that sweep the cache holds 15 rows — a ragged trailing block with
    // rows 0 and 8 sharing a stride-8 checksum lane.
    let step = serve_expose_step(StreamId(0), 15, 2, 0);
    for kind in BackendKind::all() {
        let model = TransformerModel::random(41, tiny(64), kind)
            .with_causal(true)
            .with_cache_block(16);
        let request = || {
            GenerationRequest::new(p.clone(), new_tokens)
                .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 3 })
        };

        let mut clean_session = model.serve();
        clean_session.submit_request(request());
        let (clean, clean_events) = run_with_events(&mut clean_session, &NoFaults);
        assert_eq!(count_recovering(&clean_events), 0);
        assert_eq!(clean[0].finish, FinishReason::MaxTokens);

        let inj = PairInjector::aliased_k(step, 3);
        let mut session = model.serve();
        let id = session.submit_request(request());
        let (finished, events) = run_with_events(&mut session, &inj);
        assert_eq!(inj.fired(), 2, "{kind}: both aliased flips must land");

        let f = finished.iter().find(|f| f.id == id).unwrap();
        assert_eq!(
            f.tokens, clean[0].tokens,
            "{kind}: recovered stream diverged from the undamaged run"
        );
        assert_eq!(f.recoveries, 1, "{kind}: exactly one re-prefill");
        assert_eq!(f.finish, FinishReason::Recovered, "{kind}");
        assert_eq!(session.recoveries(), 1, "{kind}");
        assert_eq!(count_recovering(&events), 1, "{kind}: {events:?}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, EngineEvent::CachePoisoned { .. })),
            "{kind}: poisoning must surface as an event"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                EngineEvent::Finished {
                    reason: FinishReason::Recovered,
                    ..
                }
            )),
            "{kind}: {events:?}"
        );
    }
}

/// Damage that re-arms after every re-prefill exhausts the bounded budget:
/// the stream aborts with `FinishReason::AbortedPoisoned { attempts }` and
/// the session still terminates.
#[test]
fn persistent_poison_aborts_after_bounded_attempts() {
    let model = TransformerModel::random(42, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let inj = PersistentPair::new(3);
    let mut session = model.serve();
    let id = session.submit_request(
        GenerationRequest::new(prompt(13, 1), 6)
            .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 2 }),
    );
    let (finished, events) = run_with_events(&mut session, &inj);
    assert!(inj.fired() > 0);
    let f = finished.iter().find(|f| f.id == id).unwrap();
    assert_eq!(
        f.finish,
        FinishReason::AbortedPoisoned { attempts: 2 },
        "events: {events:?}"
    );
    assert_eq!(f.recoveries, 2);
    assert_eq!(count_recovering(&events), 2);
    assert!(events.iter().any(|e| matches!(
        e,
        EngineEvent::Finished {
            reason: FinishReason::AbortedPoisoned { .. },
            ..
        }
    )));
    // An aborted stream is still *finished*: its (suspect) history is
    // returned rather than dropped — short of the full budget, since the
    // suspect tokens of the three poisoned sweeps were discarded.
    assert!(
        f.tokens.len() >= 13 && f.tokens.len() < 13 + 6,
        "got {} tokens",
        f.tokens.len()
    );
}

/// Poison whose block falls behind the stream's attended window before the
/// engine's check — and is then retired outright by sliding-window
/// eviction — must NOT trigger a re-prefill: the per-block sticky marks
/// travel out with their block, and the recovery trigger is scoped to the
/// attended window. The stream still finishes with tokens bit-identical to
/// the undamaged windowed run, because no sampled position ever attends
/// the damaged rows.
#[test]
fn poison_retired_by_eviction_is_not_reprefilled() {
    let model = TransformerModel::random(43, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 12,
        ..Default::default()
    };
    let p = prompt(36, 2);
    let request = || {
        GenerationRequest::new(p.clone(), 3)
            .with_window(4)
            .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 3 })
    };

    let mut clean_session = model.serve_with(cfg);
    clean_session.submit_request(request());
    let (clean, _) = run_with_events(&mut clean_session, &NoFaults);

    // Corrupt K rows 0 and 8 (same stride-8 lane) at the sweep based at
    // position 12: the append launders the damage into block 0's sticky
    // mark, but by the end of that 12-token chunk the 4-row window's
    // attended set starts at block 1 — the mark is behind the window at
    // check time, and the next sweep's pre-append eviction retires it.
    let step = serve_expose_step(StreamId(0), 12, 2, 0);
    let inj = PairInjector::aliased_k(step, 3);
    let mut session = model.serve_with(cfg);
    let id = session.submit_request(request());
    let (finished, events) = run_with_events(&mut session, &inj);
    assert_eq!(inj.fired(), 2, "both aliased flips must land");

    let f = finished.iter().find(|f| f.id == id).unwrap();
    assert_eq!(f.recoveries, 0, "eviction-retired poison must not recover");
    assert_eq!(f.finish, FinishReason::MaxTokens);
    assert_eq!(count_recovering(&events), 0, "{events:?}");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, EngineEvent::CachePoisoned { .. })),
        "behind-window damage must not surface as poisoning: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, EngineEvent::EvictedBlocks { .. })),
        "the damaged block must actually be evicted: {events:?}"
    );
    // The damage was *seen* (append verification detected it, could not
    // locate it) — it just never reached an attended position.
    assert!(
        f.attention.cache_detected >= 1,
        "append laundering must be on record: {:?}",
        f.attention
    );
    assert_eq!(
        f.attention.cache_uncorrectable, 0,
        "window-scoped reports never counted it as live poison: {:?}",
        f.attention
    );
    assert_eq!(
        f.tokens, clean[0].tokens,
        "no sampled position attends the damaged rows"
    );
}

/// `RecoveryPolicy::None` (the default) preserves the pre-lifecycle
/// behavior exactly: the poisoning is reported — sticky, every sweep — but
/// nothing acts on it, and the stream runs to its token budget.
#[test]
fn recovery_policy_none_reports_but_never_reprefills() {
    let model = TransformerModel::random(44, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let step = serve_expose_step(StreamId(0), 15, 2, 0);
    let inj = PairInjector::aliased_k(step, 3);
    let mut session = model.serve();
    let id = session.submit_request(GenerationRequest::new(prompt(13, 3), 6));
    let (finished, events) = run_with_events(&mut session, &inj);
    assert_eq!(inj.fired(), 2);
    let f = finished.iter().find(|f| f.id == id).unwrap();
    assert_eq!(f.recoveries, 0);
    assert_eq!(f.finish, FinishReason::MaxTokens);
    assert_eq!(count_recovering(&events), 0);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, EngineEvent::CachePoisoned { .. })),
        "the poisoning is still surfaced as an event: {events:?}"
    );
    assert!(
        f.attention.cache_uncorrectable >= 1,
        "the sticky signal must ride the stream report: {:?}",
        f.attention
    );
    assert_eq!(
        f.attention.cache_uncorrectable, 1,
        "…as the peak attended level, counted once — not once per sweep \
         that re-surfaced it: {:?}",
        f.attention
    );
    assert_eq!(f.tokens.len(), 13 + 6);
}

/// One ledger, every site: a corrected fault *outside* the attention
/// kernel — an SEU in the layer-0 query projection's accumulator, repaired
/// by the strided ABFT of `Linear::forward` — lands in the stream's ledger
/// and is announced by the same `FaultCorrected` event an attention repair
/// raises. (Row 5 only exists in the 13-row prefill sweep, so it fires
/// once.)
#[test]
fn corrected_projection_fault_is_announced_and_lands_on_the_stream_ledger() {
    let model = TransformerModel::random(46, tiny(64), BackendKind::Flash).with_causal(true);
    let run = |inj: &dyn FaultInjector| {
        let mut session = model.serve();
        let id = session.submit_request(GenerationRequest::new(prompt(13, 5), 6));
        let (finished, events) = run_with_events(&mut session, &inj);
        (finished.into_iter().find(|f| f.id == id).unwrap(), events)
    };
    let (clean, _) = run(&NoFaults);
    let inj =
        SeuInjector::new(FaultSite::LinearAccum, OpCoord::new(0, 5, 3, 0), 30).at_chain_step(5);
    let (f, events) = run(&inj);
    assert_eq!(inj.fired(), 1);
    assert!(f.attention.linear_detected >= 1, "{:?}", f.attention);
    assert!(
        events.iter().any(|e| matches!(
            e,
            EngineEvent::FaultCorrected { stream, detected, .. }
                if *stream == f.id && *detected >= 1
        )),
        "a repaired projection fault must raise FaultCorrected: {events:?}"
    );
    assert_eq!(f.tokens, clean.tokens, "the repair is exact enough");
}

/// Recovery composes with the rest of the engine: a poisoned stream
/// recovers while an untouched neighbor decodes on, unaware — its tokens,
/// report, and finish reason are exactly those of a solo run.
#[test]
fn neighbor_streams_are_undisturbed_by_a_recovery() {
    let model = TransformerModel::random(45, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    // Solo oracle for the neighbor (stream id differs between sessions,
    // so compute it from its own single-stream session).
    let neighbor_prompt = prompt(9, 4);
    let mut solo = model.serve();
    solo.submit_request(GenerationRequest::new(neighbor_prompt.clone(), 5));
    let (solo_finished, _) = run_with_events(&mut solo, &NoFaults);

    // Joint session: stream 0 gets poisoned at decode base 15, stream 1
    // is the neighbor. Stream 1's exposure steps live in a disjoint
    // (stream-shifted) namespace, so the pair injector cannot touch it.
    let step = serve_expose_step(StreamId(0), 15, 2, 0);
    let inj = PairInjector::aliased_k(step, 3);
    let mut session = model.serve();
    let victim = session.submit_request(
        GenerationRequest::new(prompt(13, 0), 6)
            .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 3 }),
    );
    let neighbor = session.submit_request(GenerationRequest::new(neighbor_prompt, 5));
    let (finished, events) = run_with_events(&mut session, &inj);
    assert_eq!(inj.fired(), 2);
    let fv = finished.iter().find(|f| f.id == victim).unwrap();
    assert_eq!(fv.finish, FinishReason::Recovered);
    let fn_ = finished.iter().find(|f| f.id == neighbor).unwrap();
    assert_eq!(fn_.tokens, solo_finished[0].tokens);
    assert_eq!(fn_.finish, FinishReason::MaxTokens);
    assert!(fn_.attention.clean(), "{:?}", fn_.attention);
    // Every Recovering/CachePoisoned event names the victim.
    for e in &events {
        if matches!(
            e,
            EngineEvent::Recovering { .. } | EngineEvent::CachePoisoned { .. }
        ) {
            assert_eq!(e.stream(), victim, "{e:?}");
        }
    }
}

/// `ReprefillPartial` with poison near the tail: the sticky block marks
/// localize the damage, so recovery truncates to the last clean block
/// boundary and re-feeds only the suffix. The recovered stream is
/// bit-identical to both the undamaged run and the full re-prefill twin —
/// and its `recovery_fed` (history tokens scheduled for re-feeding) is
/// strictly lower, the measurable O(window)-vs-O(history) saving.
#[test]
fn partial_reprefill_matches_full_and_clean_and_feeds_strictly_less() {
    let model = TransformerModel::random(46, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 16,
        ..Default::default()
    };
    let p = prompt(44, 5);
    let new_tokens = 6;
    let request = |recovery| GenerationRequest::new(p.clone(), new_tokens).with_recovery(recovery);
    // First decode sweep (base position 44): 44 rows resident, block 2
    // ragged with rows 32..44 — global rows 32 and 40 share a stride-8
    // lane there, and the prefill exposures (bases 0/16/32) never see
    // them, so the prefix blocks 0 and 1 stay clean.
    let step = serve_expose_step(StreamId(0), 44, 2, 0);

    let mut clean_session = model.serve_with(cfg);
    clean_session.submit_request(request(RecoveryPolicy::ReprefillPartial {
        max_attempts: 3,
    }));
    let (clean, clean_events) = run_with_events(&mut clean_session, &NoFaults);
    assert_eq!(count_recovering(&clean_events), 0);

    let run = |recovery| {
        let inj = PairInjector::aliased_k_rows(step, 3, 32);
        let mut session = model.serve_with(cfg);
        let id = session.submit_request(request(recovery));
        let (finished, events) = run_with_events(&mut session, &inj);
        assert_eq!(inj.fired(), 2, "both aliased flips must land");
        assert_eq!(count_recovering(&events), 1, "{events:?}");
        finished.into_iter().find(|f| f.id == id).unwrap()
    };
    let partial = run(RecoveryPolicy::ReprefillPartial { max_attempts: 3 });
    let full = run(RecoveryPolicy::ReprefillBounded { max_attempts: 3 });

    for (label, f) in [("partial", &partial), ("full", &full)] {
        assert_eq!(f.tokens, clean[0].tokens, "{label} diverged from clean");
        assert_eq!(f.finish, FinishReason::Recovered, "{label}");
        assert_eq!(f.recoveries, 1, "{label}");
    }
    // History at recovery time: 44 prompt rows + 1 committed token. The
    // full twin replays all 45; the partial rollback keeps blocks 0 and 1
    // (32 rows) materialized and re-feeds only the 13-row suffix.
    assert_eq!(full.recovery_fed, 45);
    assert_eq!(partial.recovery_fed, 45 - 32);
    assert!(
        partial.recovery_fed < full.recovery_fed,
        "partial re-prefill must schedule strictly fewer re-fed tokens"
    );
}

/// `ReprefillPartial` with poison in the *first attended* block: there is
/// no clean prefix to keep, so the policy must fall back to the full
/// re-prefill — same re-fed token count as the bounded twin, still
/// bit-identical to the undamaged run.
#[test]
fn partial_reprefill_falls_back_to_full_when_first_attended_block_is_poisoned() {
    let model = TransformerModel::random(41, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let p = prompt(13, 0);
    let new_tokens = 6;
    let request = |recovery| GenerationRequest::new(p.clone(), new_tokens).with_recovery(recovery);
    // Damage rows 0 and 8 of block 0 — the first attended block of an
    // unwindowed stream — at decode base 15 (15-row ragged block).
    let step = serve_expose_step(StreamId(0), 15, 2, 0);

    let mut clean_session = model.serve();
    clean_session.submit_request(request(RecoveryPolicy::ReprefillPartial {
        max_attempts: 3,
    }));
    let (clean, _) = run_with_events(&mut clean_session, &NoFaults);

    let run = |recovery| {
        let inj = PairInjector::aliased_k(step, 3);
        let mut session = model.serve();
        let id = session.submit_request(request(recovery));
        let (finished, events) = run_with_events(&mut session, &inj);
        assert_eq!(inj.fired(), 2);
        assert_eq!(count_recovering(&events), 1, "{events:?}");
        finished.into_iter().find(|f| f.id == id).unwrap()
    };
    let partial = run(RecoveryPolicy::ReprefillPartial { max_attempts: 3 });
    let full = run(RecoveryPolicy::ReprefillBounded { max_attempts: 3 });

    assert_eq!(partial.tokens, clean[0].tokens);
    assert_eq!(partial.finish, FinishReason::Recovered);
    assert_eq!(partial.recoveries, 1);
    assert_eq!(
        partial.recovery_fed, full.recovery_fed,
        "no clean prefix to exploit: the fallback must replay the whole history"
    );
    assert!(
        partial.recovery_fed > p.len(),
        "full history = prompt + committed tokens"
    );
}

/// Cache-resident BER high enough to poison caches (aliased multi-bit hits
/// that checksum location cannot untangle) on a GPT-2-shaped model, with
/// every stream asking for `ReprefillBounded`: bounded recovery never
/// wedges the session — every stream retires at every rung — and the
/// ladder really exercises recovery. Random draws, not scripted pairs:
/// the one whole-session recovery run under a BER ladder.
#[test]
fn ber_ladder_with_bounded_recovery_finishes_every_stream() {
    let cfg = ModelConfig::gpt2().scaled(96, 2);
    let model = TransformerModel::random(11, cfg, BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let prompts: Vec<Vec<u32>> = (0..4)
        .map(|i| {
            let len = [12, 6, 9, 4][i % 4];
            (0..len)
                .map(|t| ((t * 97 + i * 131) % cfg.vocab) as u32)
                .collect()
        })
        .collect();
    let sched = SchedulerConfig {
        max_active: 16,
        prefill_chunk: 16,
        ..Default::default()
    };
    let mut recoveries = 0;
    for (rung, ber) in [2e-3, 8e-3].into_iter().enumerate() {
        let inj = BerInjector::new(7000 + rung as u64, ber).with_sites(&[FaultSite::KvCache]);
        let mut session = model.serve_with(sched);
        for p in &prompts {
            session.submit_request(
                GenerationRequest::new(p.clone(), 6)
                    .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 2 }),
            );
        }
        let (finished, _) = run_with_events(&mut session, &inj);
        assert_eq!(
            finished.len(),
            prompts.len(),
            "every stream must finish under BER {ber}"
        );
        recoveries += session.recoveries();
    }
    assert!(
        recoveries > 0,
        "the BER ladder must trigger at least one re-prefill recovery"
    );
}
