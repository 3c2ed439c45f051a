//! Continuous-batching equivalence suite: N streams multiplexed through
//! the `ServeSession` scheduler must be **logit-identical** to N
//! independent decode loops — greedy tokens equal at every position —
//! across even and ragged cache lengths, chunk boundaries that cut cache
//! blocks mid-way, and streams joining mid-flight; and a cache-resident
//! fault on one stream must land in *that* stream's report only.

mod common;

use common::{prompt, stepwise_generate};
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::attention::serve::SchedulerConfig;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer_suite::transformer::{
    serve_expose_step, BackendKind, GenerationRequest, ModelConfig, StreamId, TransformerModel,
};

fn tiny(max_seq: usize) -> ModelConfig {
    common::tiny_config("serve-tiny", max_seq)
}

/// Mixed-length streams (even block boundary, ragged multi-block, short)
/// scheduled together must reproduce independent decode exactly — for the
/// protected EFTA sweep and the unprotected flash sweep alike. The cache
/// block is 64 rows, so the 70- and 64-token prompts exercise multi-block
/// and exact-boundary caches, while the 16-token prefill chunks cut the
/// trailing block mid-way (the re-encoded causal-frontier path).
#[test]
fn scheduled_streams_match_independent_decode() {
    let lens = [70usize, 64, 9, 33];
    let new_tokens = 4;
    for kind in [
        BackendKind::Efta(EftaOptions::optimized()),
        BackendKind::Flash,
    ] {
        let model = TransformerModel::random(21, tiny(160), kind).with_causal(true);
        let mut session = model.serve_with(SchedulerConfig {
            max_active: 4,
            prefill_chunk: 16,
            ..Default::default()
        });
        let ids: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                session.submit_request(GenerationRequest::new(prompt(len, i), new_tokens))
            })
            .collect();
        let finished = session.run(&NoFaults);
        assert_eq!(finished.len(), lens.len());
        for (i, (id, &len)) in ids.iter().zip(&lens).enumerate() {
            let f = finished.iter().find(|f| f.id == *id).unwrap();
            let want = stepwise_generate(&model, &prompt(len, i), new_tokens, None);
            assert_eq!(
                f.tokens, want,
                "backend {kind}, stream {i} (prompt {len}): scheduled tokens diverged"
            );
            assert_eq!(
                f.attention.total_detected(),
                0,
                "backend {kind}, stream {i}: clean run raised alarms: {:?}",
                f.attention
            );
            assert!(f.attention.clean(), "{kind}/{i}: {:?}", f.attention);
        }
    }
}

/// Streams submitted while others are mid-decode join without disturbing
/// anyone: every stream still reproduces its independent decode, and slots
/// retire/admit across the session (max_active below the stream count
/// forces queueing).
#[test]
fn streams_joining_mid_flight_do_not_disturb_the_batch() {
    let model = TransformerModel::random(22, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true);
    let mut session = model.serve_with(SchedulerConfig {
        max_active: 2,
        prefill_chunk: 8,
        ..Default::default()
    });
    let a = session.submit_request(GenerationRequest::new(prompt(20, 0), 5));
    // A is mid-prefill after one sweep; B and C join late, C must queue.
    session.sweep_events(&NoFaults);
    let b = session.submit_request(GenerationRequest::new(prompt(33, 1), 3));
    let c = session.submit_request(GenerationRequest::new(prompt(5, 2), 6));
    let finished = session.run(&NoFaults);
    assert_eq!(finished.len(), 3);
    for (id, len, salt, new) in [(a, 20, 0, 5), (b, 33, 1, 3), (c, 5, 2, 6)] {
        let f = finished.iter().find(|f| f.id == id).unwrap();
        let want = stepwise_generate(&model, &prompt(len, salt), new, None);
        assert_eq!(
            f.tokens, want,
            "stream {id} diverged after mid-flight joins"
        );
    }
}

/// A `FaultSite::KvCache` SEU aimed at one stream's cache-exposure window
/// lands in that stream's per-stream report only — and is corrected, so
/// both streams' tokens still match the fault-free run.
#[test]
fn cache_fault_is_attributed_to_the_hit_stream_only() {
    let model = TransformerModel::random(23, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true);
    let cfg = SchedulerConfig {
        max_active: 4,
        prefill_chunk: 16,
        ..Default::default()
    };
    fn run<I: FaultInjector>(
        model: &TransformerModel,
        cfg: SchedulerConfig,
        inj: &I,
    ) -> (
        ft_transformer_suite::transformer::FinishedStream,
        ft_transformer_suite::transformer::FinishedStream,
    ) {
        let mut session = model.serve_with(cfg);
        let a = session.submit_request(GenerationRequest::new(prompt(24, 0), 3));
        let b = session.submit_request(GenerationRequest::new(prompt(20, 1), 3));
        let finished = session.run(inj);
        let fa = finished.iter().find(|f| f.id == a).unwrap().clone();
        let fb = finished.iter().find(|f| f.id == b).unwrap().clone();
        (fa, fb)
    }
    let (clean_a, clean_b) = run(&model, cfg, &NoFaults);

    // Stream B is the second submission (id 1). Target the exposure of its
    // layer-0 cache at sweep base position 16 (its second prefill chunk):
    // exposure coordinates are (slot, row, col, 2·step + which) with
    // step = serve_expose_step(stream, pos, layers, layer).
    let b_id = StreamId(1);
    let step = serve_expose_step(b_id, 16, 2, 0);
    let coord = OpCoord::new(1, 3, 2, 2 * step as usize);
    let inj = SeuInjector::new(FaultSite::KvCache, coord, 13);
    let (fault_a, fault_b) = run(&model, cfg, &inj);
    assert_eq!(
        inj.fired(),
        1,
        "the targeted exposure must fire exactly once"
    );

    assert!(
        fault_b.attention.cache_detected > 0 && fault_b.attention.cache_corrected > 0,
        "stream B must detect and correct its cache hit: {:?}",
        fault_b.attention
    );
    assert_eq!(
        fault_a.attention.cache_detected, 0,
        "stream A's report must stay clean: {:?}",
        fault_a.attention
    );
    assert_eq!(fault_a.tokens, clean_a.tokens, "stream A tokens unaffected");
    assert_eq!(
        fault_b.tokens, clean_b.tokens,
        "stream B's corruption must be corrected before it reaches a token"
    );
}

/// `generate` is the one-stream special case of the serving session: same
/// tokens, and a session with one stream reports the same totals.
#[test]
fn generate_is_the_one_stream_special_case() {
    let model = TransformerModel::random(24, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true);
    let p = prompt(11, 4);
    let (tokens, report) = model.generate(&p, 6, &NoFaults);
    let mut session = model.serve();
    let id = session.submit_request(GenerationRequest::new(p.clone(), 6));
    let finished = session.run(&NoFaults);
    let f = finished.iter().find(|f| f.id == id).unwrap();
    assert_eq!(f.tokens, tokens);
    assert_eq!(f.attention.total_detected(), report.total_detected());
    assert_eq!(tokens, stepwise_generate(&model, &p, 6, None));
}
