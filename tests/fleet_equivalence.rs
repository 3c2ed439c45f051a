//! Sharded-fleet equivalence suite: N shard workers behind the admission
//! router must be **invisible in the output** — every stream's tokens
//! bit-identical to a single-engine (and independent-decode) run on every
//! `BackendKind` — with fleet-unique stream ids under concurrent
//! submission, and a shard that panics must neither hang nor panic a
//! caller. A handle's record is the session's own `FinishedStream`, and
//! the per-shard ledgers roll up losslessly to the records. Steals are
//! proven step by step, without threads, by the unit tests in
//! `crates/transformer/src/fleet.rs`.

mod common;

use common::{prompt, stepwise_generate, tiny_config};
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::num::F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord};
use ft_transformer_suite::transformer::{
    serve_expose_step, EngineConfig, FinishReason, FinishedStream, Fleet, FleetConfig, FleetReport,
    FtReport, GenerationRequest, ModelConfig, ShardId, StreamHandle, StreamId, TransformerModel,
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

/// The record a handle's shard retired the stream with.
fn retired(h: StreamHandle) -> FinishedStream {
    h.wait().expect("the shard retires the stream")
}

/// Sum-of-shards == fleet-level invariants every test re-checks: the
/// roll-up loses nothing, every stream retires exactly once, and the
/// stream-level ledgers sum to the handles' records.
fn assert_lossless(
    report: &FleetReport,
    records: &[FinishedStream],
    want_streams: u64,
    want_tokens: u64,
) {
    let total = report.total();
    assert_eq!(report.streams_submitted, want_streams, "{report}");
    assert_eq!(total.streams_finished, want_streams, "{report}");
    assert_eq!(
        total.tokens_emitted, want_tokens,
        "per-shard token counts must sum to the delivered total: {report}"
    );
    let mut ids: Vec<u64> = records.iter().map(|f| f.id.0).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..want_streams).collect::<Vec<_>>(),
        "every stream retires exactly once: {report}"
    );
    let ledgers = (records.iter()).fold(FtReport::default(), |acc, f| acc.merged(&f.attention));
    assert_eq!(
        total.faults, ledgers,
        "the fault ledger is the records' sum: {report}"
    );
    let sum = |field: fn(&FinishedStream) -> u64| records.iter().map(field).sum::<u64>();
    assert_eq!(
        (total.recovery_fed, total.spec_drafted, total.spec_accepted),
        (
            sum(|f| f.recovery_fed as u64),
            sum(|f| f.spec_drafted),
            sum(|f| f.spec_accepted)
        ),
        "{report}"
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
        let engine_out: Vec<_> = engine_handles.into_iter().map(retired).collect();
        engine.shutdown();

        let fleet = Fleet::spawn(model.clone(), fleet_cfg(3));
        let fleet_handles: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| fleet.submit(GenerationRequest::new(prompt(len, i), new_tokens)))
            .collect();
        let fleet_out: Vec<_> = fleet_handles.into_iter().map(retired).collect();
        let report = fleet.shutdown();

        let mut tokens = 0u64;
        for (i, (e, f)) in engine_out.iter().zip(&fleet_out).enumerate() {
            let want = oracle(&model, &prompt(lens[i], i), new_tokens);
            let got = &f.tokens[lens[i]..];
            assert_eq!(
                got, want,
                "{kind}, stream {i}: fleet diverged from independent decode"
            );
            assert_eq!(
                f.tokens, e.tokens,
                "{kind}, stream {i}: fleet diverged from the single engine"
            );
            assert_eq!(f.finish, FinishReason::MaxTokens, "{kind}, stream {i}");
            tokens += got.len() as u64;
        }
        assert_lossless(&report, &fleet_out, lens.len() as u64, tokens);
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

    let results: Vec<(StreamId, Vec<u32>, FinishedStream)> = std::thread::scope(|s| {
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
                            (id, p, retired(h))
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
    for (id, p, f) in &results {
        let want = oracle(&model, p, 3);
        let got = &f.tokens[p.len()..];
        assert_eq!(got, want, "{id}: concurrent submission diverged");
        tokens += got.len() as u64;
    }
    let report = fleet.shutdown();
    let records: Vec<_> = results.into_iter().map(|(_, _, f)| f).collect();
    assert_lossless(&report, &records, n, tokens);

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
    assert!(
        victim.wait().is_none(),
        "the dead shard's stream ends unfinished"
    );
    // Both shards carry one stream's projected load, and ties go to
    // shard 0: only a router that dropped the dead shard serves this.
    let later = retired(fleet.submit(GenerationRequest::new(prompt(9, 2), 8)));
    assert_eq!(later.tokens[9..], oracle(&model, &prompt(9, 2), 8));
    assert_eq!(later.finish, FinishReason::MaxTokens);
    let peer = retired(peer);
    assert_eq!(peer.tokens[9..], oracle(&model, &prompt(9, 1), 8));
    assert_eq!(peer.finish, FinishReason::MaxTokens);
    let payload = catch_unwind(AssertUnwindSafe(|| fleet.shutdown()))
        .expect_err("shutdown re-raises the shard's panic");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"injected shard failure")
    );
}

/// A fleet consumer gets the session's own record: each handle's `wait`
/// equals, field for field, what a pull-mode session retires for the same
/// request under the same id and scheduler — tokens, fault ledger
/// (evicted blocks included), finish, recoveries, parks, re-fed rows,
/// speculation counters and protection level.
#[test]
fn handles_return_the_sessions_record() {
    let model = TransformerModel::random(66, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(4);
    // Streams short enough that no 64-event channel fills while the
    // consumers drain one after another: no backpressure park.
    let requests = || {
        [
            GenerationRequest::new(prompt(12, 0), 6),
            GenerationRequest::new(prompt(20, 1), 6).with_window(9),
            GenerationRequest::new(prompt(7, 2), 6),
        ]
    };
    let engine = EngineConfig::default();
    let fleet = Fleet::spawn(model.clone(), FleetConfig::single(engine));
    let handles: Vec<_> = requests().map(|req| fleet.submit(req)).into();
    let ids: Vec<_> = handles.iter().map(StreamHandle::id).collect();
    let records: Vec<_> = handles.into_iter().map(retired).collect();
    let report = fleet.shutdown();

    let mut session = model.serve_with(engine.scheduler);
    for (req, &id) in requests().into_iter().zip(&ids) {
        session.submit_request_with_id(req, id);
    }
    let want = session.run(&NoFaults);
    assert_eq!(records, want, "the fleet's records are the session's");
    assert!(
        records[1].attention.cache_evicted_blocks > 0,
        "the windowed stream must evict: {:?}",
        records[1].attention
    );
    let tokens = (records.iter())
        .zip(requests())
        .map(|(f, req)| (f.tokens.len() - req.prompt.len()) as u64)
        .sum();
    assert_lossless(&report, &records, 3, tokens);
}
