//! Draft/verify equivalence suite: speculative decoding
//! ([`SpeculationPolicy`] on a [`GenerationRequest`]) must move
//! *throughput only* — the emitted token stream is pinned bit-identical to
//! plain decode on every `BackendKind`, at forced accept rates 0, partial,
//! and full, across ragged cache blocks, mixed per-stream windows, and
//! mid-flight eviction.
//!
//! The rollback half of the contract is pinned at the cache level too:
//! checkpoint → draft → `truncate_to` → continue is indistinguishable from
//! a cache that never speculated, and a KV SEU landing in rows that are
//! subsequently rolled back leaves no trace in any post-truncation report.

mod common;

use common::{prompt, tiny_config};
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::num::MatrixF32;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer_suite::transformer::{
    DraftSource, EngineEvent, FinishReason, FinishedStream, GenerationRequest, ModelConfig,
    SchedulerConfig, ServeSession, SpeculationPolicy, TransformerModel,
};

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("spec-tiny", max_seq)
}

/// Drive a session to completion, returning finished streams and events.
fn run_with_events(
    session: &mut ServeSession<&TransformerModel>,
) -> (Vec<FinishedStream>, Vec<EngineEvent>) {
    let mut events = Vec::new();
    while !session.idle() {
        events.extend(session.sweep_events(&NoFaults));
    }
    (session.take_finished(), events)
}

fn run_one(model: &TransformerModel, req: GenerationRequest) -> FinishedStream {
    let mut session = model.serve();
    let id = session.submit_request(req);
    let (finished, _) = run_with_events(&mut session);
    finished.into_iter().find(|f| f.id == id).unwrap()
}

/// Corrupt every script entry whose index satisfies `miss` — the forced
/// accept-rate machinery the bench uses, reduced to a predicate.
fn corrupted(script: &[u32], vocab: u32, miss: impl Fn(usize) -> bool) -> Vec<u32> {
    script
        .iter()
        .enumerate()
        .map(|(i, &t)| if miss(i) { (t + 1) % vocab } else { t })
        .collect()
}

fn greedy(logits: &MatrixF32) -> u32 {
    logits
        .row(0)
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i as u32)
        .unwrap()
}

/// The headline pin: on **every** backend in the registry, a speculating
/// stream emits tokens bit-identical to the plain-decode run — at forced
/// accept rate 0 (every draft rejected, every sweep rolled back), partial
/// (odd-index drafts corrupted), and 1 (the plain continuation scripted
/// verbatim). The cache is ragged throughout (13-token prompt, 16-row
/// blocks), and the rollback churn itself must leave the stream's fault
/// report clean.
#[test]
fn speculative_tokens_are_bit_identical_to_plain_decode_on_every_backend() {
    let p = prompt(13, 0);
    let new_tokens = 9;
    for kind in BackendKind::all() {
        let model = TransformerModel::random(61, tiny(64), kind)
            .with_causal(true)
            .with_cache_block(16);
        let plain = run_one(&model, GenerationRequest::new(p.clone(), new_tokens));
        assert_eq!(plain.finish, FinishReason::MaxTokens);
        let continuation = plain.tokens[p.len()..].to_vec();

        let vocab = model.config.vocab as u32;
        let rates: [(&str, Vec<u32>); 3] = [
            ("full", continuation.clone()),
            ("zero", corrupted(&continuation, vocab, |_| true)),
            ("partial", corrupted(&continuation, vocab, |i| i % 2 == 1)),
        ];
        for (label, script) in rates {
            let f = run_one(
                &model,
                GenerationRequest::new(p.clone(), new_tokens).with_speculation(
                    SpeculationPolicy::new(3).with_source(DraftSource::Scripted(script)),
                ),
            );
            assert_eq!(
                f.tokens, plain.tokens,
                "{kind}/{label}: speculation changed the emitted stream"
            );
            assert_eq!(f.finish, FinishReason::MaxTokens, "{kind}/{label}");
            assert!(f.spec_drafted > 0, "{kind}/{label}: nothing was drafted");
            assert!(
                f.attention.clean(),
                "{kind}/{label}: rollback churn left a trace: {:?}",
                f.attention
            );
            match label {
                "full" => assert_eq!(f.spec_accepted, f.spec_drafted, "{kind}"),
                "zero" => assert_eq!(f.spec_accepted, 0, "{kind}"),
                _ => assert!(
                    f.spec_accepted > 0 && f.spec_accepted < f.spec_drafted,
                    "{kind}: partial script accepted {}/{}",
                    f.spec_accepted,
                    f.spec_drafted
                ),
            }
        }
    }
}

/// Speculation composes with per-stream sliding windows and the eviction
/// they force mid-decode: two windowed streams — one fed the exact plain
/// continuation (full accept), one an all-wrong script (every sweep rolled
/// back) — both finish bit-identical to their plain-decode counterparts,
/// and blocks really are evicted while the speculating sweeps run.
#[test]
fn speculation_composes_with_windows_and_mid_flight_eviction() {
    let model = TransformerModel::random(62, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(8);
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 12,
        ..Default::default()
    };
    let prompts = [prompt(36, 2), prompt(29, 3)];
    let windows = [8usize, 20];
    let new_tokens = 6;

    let mut plain_session = model.serve_with(cfg);
    for (p, w) in prompts.iter().zip(windows) {
        plain_session.submit_request(GenerationRequest::new(p.clone(), new_tokens).with_window(w));
    }
    let (plain, _) = run_with_events(&mut plain_session);

    let mut session = model.serve_with(cfg);
    let mut ids = Vec::new();
    for (i, (p, w)) in prompts.iter().zip(windows).enumerate() {
        let continuation = plain[i].tokens[p.len()..].to_vec();
        let script = if i == 0 {
            continuation // full accept
        } else {
            corrupted(&continuation, model.config.vocab as u32, |_| true) // zero
        };
        ids.push(
            session.submit_request(
                GenerationRequest::new(p.clone(), new_tokens)
                    .with_window(w)
                    .with_speculation(
                        SpeculationPolicy::new(3).with_source(DraftSource::Scripted(script)),
                    ),
            ),
        );
    }
    let (finished, events) = run_with_events(&mut session);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, EngineEvent::EvictedBlocks { .. })),
        "the windowed streams must actually evict mid-flight: {events:?}"
    );
    for (i, id) in ids.iter().enumerate() {
        let f = finished.iter().find(|f| f.id == *id).unwrap();
        assert_eq!(
            f.tokens, plain[i].tokens,
            "stream {i}: windowed speculation diverged from plain decode"
        );
        assert_eq!(f.finish, FinishReason::MaxTokens, "stream {i}");
        assert!(f.spec_drafted > 0, "stream {i}");
    }
    // The full-accept stream really amortized sweeps; the zero-accept
    // stream really rolled every draft back.
    let accepted = |id| finished.iter().find(|f| f.id == id).unwrap().spec_accepted;
    assert!(accepted(ids[0]) > 0);
    assert_eq!(accepted(ids[1]), 0);
}

/// Self-drafting (`DraftSource::NGram`) obeys the same contract with no
/// oracle script: whatever the n-gram guesser proposes, the emitted stream
/// is the plain-decode stream — on every backend. A strongly repetitive
/// prompt gives the bigram matcher real hits, so drafts are both produced
/// and (on repetitive continuations) sometimes accepted.
#[test]
fn ngram_self_drafting_never_changes_the_emitted_stream() {
    let p: Vec<u32> = (0..17).map(|t| [5u32, 9, 13, 2][t % 4]).collect();
    let new_tokens = 8;
    for kind in BackendKind::all() {
        let model = TransformerModel::random(63, tiny(64), kind)
            .with_causal(true)
            .with_cache_block(16);
        let plain = run_one(&model, GenerationRequest::new(p.clone(), new_tokens));
        let f = run_one(
            &model,
            GenerationRequest::new(p.clone(), new_tokens)
                .with_speculation(SpeculationPolicy::new(4).with_backoff(None)),
        );
        assert_eq!(f.tokens, plain.tokens, "{kind}: n-gram drafting diverged");
        assert!(f.spec_drafted > 0, "{kind}");
    }
}

/// Cache-level half of the contract: checkpoint → feed provisional tokens
/// → `truncate_to` → continue is bit-indistinguishable from a cache that
/// never speculated. The detour crosses a block boundary (13 → 17 rows,
/// 16-row blocks), so the rollback exercises both the whole-block drop and
/// the ragged boundary re-encode.
#[test]
fn rollback_then_continue_matches_a_never_speculated_cache() {
    let model = TransformerModel::random(64, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let p = prompt(13, 6);
    let mut plain_cache = model.new_cache();
    let mut spec_cache = model.new_cache();
    let mut logits = None;
    for &t in &p {
        let (a, _) = model.decode_step(t, &mut plain_cache, None, &NoFaults);
        let (b, _) = model.decode_step(t, &mut spec_cache, None, &NoFaults);
        assert_eq!(a, b);
        logits = Some(a);
    }

    let mark = spec_cache.checkpoint();
    assert_eq!(mark.position(), p.len());
    for draft in [90u32, 91, 92, 93] {
        model.decode_step(draft, &mut spec_cache, None, &NoFaults);
    }
    assert_eq!(spec_cache.positions(), p.len() + 4);
    let heal = spec_cache.truncate_to(mark);
    assert!(
        heal.clean(),
        "clean drafts must roll back silently: {heal:?}"
    );
    assert_eq!(spec_cache.positions(), p.len());
    assert_eq!(spec_cache.size_bytes(), plain_cache.size_bytes());

    for _ in 0..6 {
        let t = greedy(logits.as_ref().unwrap());
        let (a, _) = model.decode_step(t, &mut plain_cache, None, &NoFaults);
        let (b, rep) = model.decode_step(t, &mut spec_cache, None, &NoFaults);
        assert_eq!(a, b, "post-rollback logits diverged from never-speculated");
        assert_eq!(rep.cache_uncorrectable, 0);
        logits = Some(a);
    }
    assert_eq!(spec_cache.poisoned(), 0);
}

/// A KV SEU that lands in a *drafted* row leaves no trace once the draft
/// is rolled back: the flip demonstrably fires (and is detected while the
/// detour runs), but after `truncate_to` the damaged row no longer exists —
/// the continuation is bit-identical to the never-speculated cache and
/// every post-truncation report is clean.
#[test]
fn seu_in_a_rolled_back_draft_row_leaves_no_trace_after_truncation() {
    let model = TransformerModel::random(65, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let p = prompt(13, 7);
    let mut plain_cache = model.new_cache();
    let mut spec_cache = model.new_cache();
    let mut logits = None;
    for &t in &p {
        let (a, _) = model.decode_step(t, &mut plain_cache, None, &NoFaults);
        model.decode_step(t, &mut spec_cache, None, &NoFaults);
        logits = Some(a);
    }

    // Aim at the first drafted row (global row 13) of layer 0's K payload,
    // exposed at the second draft step (position 14, 2 layers): the flip
    // can only ever land in provisional state.
    let layers = 2u64;
    let step = (p.len() as u64 + 1) * layers;
    let coord = OpCoord {
        slot: 0,
        i: p.len() as u64,
        j: 3,
        k: 2 * step,
    };
    let inj = SeuInjector::new(FaultSite::KvCache, coord, 13);

    let mark = spec_cache.checkpoint();
    model.decode_step(90, &mut spec_cache, None, &inj);
    let (_, detour_rep) = model.decode_step(91, &mut spec_cache, None, &inj);
    assert_eq!(inj.fired(), 1, "the SEU must land in the drafted row");
    assert!(
        detour_rep.total_detected() >= 1,
        "the flip is seen while the detour runs: {detour_rep:?}"
    );

    let heal = spec_cache.truncate_to(mark);
    assert_eq!(
        heal.uncorrectable, 0,
        "a single flip in a dropped row is never poison: {heal:?}"
    );
    assert_eq!(spec_cache.poisoned(), 0);
    assert_eq!(spec_cache.positions(), p.len());

    // Post-truncation: bit-identical to the never-speculated cache, with
    // nothing on any report.
    for _ in 0..6 {
        let t = greedy(logits.as_ref().unwrap());
        let (a, ra) = model.decode_step(t, &mut plain_cache, None, &NoFaults);
        let (b, rb) = model.decode_step(t, &mut spec_cache, None, &NoFaults);
        assert_eq!(a, b, "the rolled-back SEU left a trace in the logits");
        assert_eq!(rb.total_detected(), ra.total_detected());
        assert_eq!(rb.cache_uncorrectable, 0);
        logits = Some(a);
    }
    assert_eq!(spec_cache.poisoned(), 0);
}
