//! Sharded-fleet equivalence suite: N shard workers behind the admission
//! router must be **invisible in the output** — every stream's tokens
//! bit-identical to a single-engine (and independent-decode) run on every
//! `BackendKind` — with fleet-unique stream ids under concurrent
//! submission, and a shard that panics must neither hang nor panic a
//! caller. The per-shard ledgers must roll up losslessly. Steals are
//! proven step by step, without threads, by the unit tests in
//! `crates/transformer/src/fleet.rs`.

mod common;

use common::{prompt, stepwise_generate, tiny_config};
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::num::F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, OpCoord};
use ft_transformer_suite::transformer::{
    serve_expose_step, EngineConfig, FinishReason, Fleet, FleetConfig, FleetReport,
    GenerationRequest, ModelConfig, ShardId, StreamId, TransformerModel,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("fleet-tiny", max_seq)
}

/// Continuation-only greedy oracle (`stepwise_generate` echoes the
/// prompt; stream handles do not).
fn oracle(model: &TransformerModel, p: &[u32], new_tokens: usize) -> Vec<u32> {
    stepwise_generate(model, p, new_tokens, None)[p.len()..].to_vec()
}

fn fleet_cfg(workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        engine: EngineConfig::default(),
        steal: true,
    }
}

/// Sum-of-shards == fleet-level invariants every test re-checks: the
/// roll-up loses nothing and every retired stream appears on exactly one
/// shard.
fn assert_lossless(report: &FleetReport, want_streams: u64, want_tokens: u64) {
    let total = report.total();
    assert_eq!(report.streams_submitted, want_streams, "{report}");
    assert_eq!(total.streams_finished, want_streams, "{report}");
    assert_eq!(
        total.tokens_emitted, want_tokens,
        "per-shard token counts must sum to the delivered total: {report}"
    );
    assert_eq!(
        total.finished_streams.len() as u64,
        want_streams,
        "{report}"
    );
    let mut ids = total.finished_streams.clone();
    ids.dedup();
    assert_eq!(
        ids.len() as u64,
        want_streams,
        "every stream retires on exactly one shard: {report}"
    );
    assert_eq!(
        total.migrations_in, total.migrations_out,
        "every exported stream is adopted: {report}"
    );
    let faults = report
        .shards
        .iter()
        .fold(Default::default(), |acc, s| s.faults.merged(&acc));
    assert_eq!(
        total.faults, faults,
        "the fault ledger rolls up as a pure sum: {report}"
    );
}

/// A 3-shard fleet serves mixed-length streams bit-identically to the
/// single-worker engine and to independent stepwise decode — on every
/// backend — and its report roll-up is lossless.
#[test]
fn fleet_matches_single_engine_on_every_backend() {
    let lens = [18usize, 7, 25, 12, 30, 9];
    let new_tokens = 5;
    for kind in BackendKind::all() {
        let model = TransformerModel::random(61, tiny(96), kind).with_causal(true);

        let engine = Fleet::spawn(model.clone(), FleetConfig::single(EngineConfig::default()));
        let engine_handles: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| engine.submit(GenerationRequest::new(prompt(len, i), new_tokens)))
            .collect();
        let engine_out: Vec<_> = engine_handles.into_iter().map(|h| h.wait()).collect();
        engine.shutdown();

        let fleet = Fleet::spawn(model.clone(), fleet_cfg(3));
        let fleet_handles: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| fleet.submit(GenerationRequest::new(prompt(len, i), new_tokens)))
            .collect();
        let fleet_out: Vec<_> = fleet_handles.into_iter().map(|h| h.wait()).collect();
        let report = fleet.shutdown();

        let mut tokens = 0u64;
        for (i, (e, f)) in engine_out.iter().zip(&fleet_out).enumerate() {
            let want = oracle(&model, &prompt(lens[i], i), new_tokens);
            assert_eq!(
                f.tokens, want,
                "{kind}, stream {i}: fleet diverged from independent decode"
            );
            assert_eq!(
                f.tokens, e.tokens,
                "{kind}, stream {i}: fleet diverged from the single engine"
            );
            assert_eq!(
                f.finish,
                Some(FinishReason::MaxTokens),
                "{kind}, stream {i}"
            );
            tokens += f.tokens.len() as u64;
        }
        assert_lossless(&report, lens.len() as u64, tokens);
    }
}

/// Fleet-wide `StreamId`s stay unique under concurrent submission from
/// many caller threads onto many shards (the collision regression for the
/// shared atomic allocator), and the `ShardId` / `FleetReport` Display
/// forms cover every shard plus the synthetic total row.
#[test]
fn concurrent_submissions_get_unique_ids_across_shards() {
    let threads = 4usize;
    let per_thread = 8usize;
    let model = TransformerModel::random(62, tiny(64), BackendKind::Flash).with_causal(true);
    let fleet = Fleet::spawn(model.clone(), fleet_cfg(4));

    let results: Vec<(StreamId, Vec<u32>, Vec<u32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fleet = &fleet;
                s.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let salt = t * per_thread + i;
                            let p = prompt(4 + salt % 9, salt);
                            let h = fleet.submit(GenerationRequest::new(p.clone(), 3));
                            let id = h.id();
                            (id, p, h.wait().tokens)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let n = (threads * per_thread) as u64;
    let mut ids: Vec<u64> = results.iter().map(|(id, _, _)| id.0).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..n).collect::<Vec<_>>(),
        "fleet-wide ids must be exactly 0..{n} with no collisions"
    );
    let mut tokens = 0u64;
    for (id, p, got) in &results {
        let want = oracle(&model, p, 3);
        assert_eq!(got, &want, "{id}: concurrent submission diverged");
        tokens += got.len() as u64;
    }
    let report = fleet.shutdown();
    assert_lossless(&report, n, tokens);

    // Display coverage: shard rows, the synthetic total row, and ShardId.
    assert_eq!(format!("{}", ShardId(3)), "shard3");
    let text = format!("{report}");
    for s in 0..4 {
        assert!(text.contains(&format!("shard{s}:")), "{text}");
    }
    assert!(text.contains("total:"), "{text}");
    assert_eq!(report.total().shard, ShardId(4), "synthetic total row id");
    assert!(
        format!("{}", report.total()).starts_with("shard4:"),
        "total row displays with the synthetic id"
    );
}

/// Panics whichever shard exposes one stream's cache at one sweep.
struct PanicAt(u64);

impl FaultInjector for PanicAt {
    fn corrupt_f32(&self, _: FaultSite, _: OpCoord, value: f32) -> f32 {
        value
    }
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        if site == FaultSite::KvCache && coord.k / 2 == self.0 {
            panic!("injected shard failure");
        }
        value
    }
}

/// A shard that panics mid-sweep takes only its own streams down: their
/// handles end without `Finished` instead of hanging, the peer shard's
/// streams match the oracle, a later submission is served by the live
/// shard, and `shutdown` re-raises the panic.
#[test]
fn a_panicked_shard_never_hangs_or_panics_a_caller() {
    let model = TransformerModel::random(65, tiny(64), BackendKind::Flash).with_causal(true);
    // Stream 0's second decode sweep (position 10) exposes its cache.
    let inj = Arc::new(PanicAt(serve_expose_step(StreamId(0), 10, 2, 0)));
    // One-event channels: the peer's consumer holds off below, so the peer
    // cannot retire and shard 1 keeps its load.
    let cfg = FleetConfig {
        workers: 2,
        engine: EngineConfig {
            channel_capacity: 1,
            ..EngineConfig::default()
        },
        steal: false,
    };
    let fleet = Fleet::spawn_with(model.clone(), cfg, inj);
    // Least-loaded routing: stream 0 to shard 0, stream 1 to shard 1.
    let victim = fleet.submit(GenerationRequest::new(prompt(9, 0), 8));
    let peer = fleet.submit(GenerationRequest::new(prompt(9, 1), 8));
    let victim = victim.wait();
    assert_eq!(
        victim.finish, None,
        "the dead shard's stream ends unfinished"
    );
    // Both shards carry one stream's projected load, and ties go to
    // shard 0: only a router that dropped the dead shard serves this.
    let later = fleet.submit(GenerationRequest::new(prompt(9, 2), 8)).wait();
    assert_eq!(later.tokens, oracle(&model, &prompt(9, 2), 8));
    assert_eq!(later.finish, Some(FinishReason::MaxTokens));
    let peer = peer.wait();
    assert_eq!(peer.tokens, oracle(&model, &prompt(9, 1), 8));
    assert_eq!(peer.finish, Some(FinishReason::MaxTokens));
    let payload = catch_unwind(AssertUnwindSafe(|| fleet.shutdown()))
        .expect_err("shutdown re-raises the shard's panic");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"injected shard failure")
    );
}
