//! Sharded-fleet equivalence suite: N shard workers behind the admission
//! router must be **invisible in the output** — every stream's tokens
//! bit-identical to a single-engine (and independent-decode) run on every
//! `BackendKind` — with fleet-unique stream ids under concurrent
//! submission, a mid-flight steal/migration that stays bit-identical, and
//! an SEU landing on a migrated stream's rebuilt cache that is recovered
//! *and attributed* to the owning stream on the adopting shard. The
//! per-shard ledgers must roll up losslessly.

mod common;

use common::{prompt, stepwise_generate, tiny_config};
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::num::F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, OpCoord, SeuInjector};
use ft_transformer_suite::transformer::{
    serve_expose_step, EngineConfig, FinishReason, Fleet, FleetConfig, FleetReport,
    GenerationRequest, ModelConfig, RecoveryPolicy, RouterPolicy, ShardId, StreamId,
    TransformerModel,
};
use std::sync::Arc;

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("fleet-tiny", max_seq)
}

/// Continuation-only greedy oracle (`stepwise_generate` echoes the
/// prompt; stream handles do not).
fn oracle(model: &TransformerModel, p: &[u32], new_tokens: usize) -> Vec<u32> {
    stepwise_generate(model, p, new_tokens)[p.len()..].to_vec()
}

fn fleet_cfg(workers: usize, router: RouterPolicy) -> FleetConfig {
    FleetConfig {
        workers,
        router,
        engine: EngineConfig::default(),
        steal: true,
        shard_threads: None,
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

        let fleet = Fleet::spawn(model.clone(), fleet_cfg(3, RouterPolicy::LeastLoaded));
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
    let fleet = Fleet::spawn(model.clone(), fleet_cfg(4, RouterPolicy::LeastLoaded));

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

/// Find a prompt salt whose consistent-hash shard differs from `salt0`'s,
/// by probing single-stream fleets through the public API (the ring is an
/// implementation detail). Deterministic for a fixed model/config.
fn other_shard_salt(model: &TransformerModel, len: usize, salt0: usize) -> usize {
    let shard_of = |salt: usize| -> usize {
        let fleet = Fleet::spawn(
            model.clone(),
            FleetConfig {
                steal: false,
                ..fleet_cfg(2, RouterPolicy::ConsistentHash)
            },
        );
        let h = fleet.submit(GenerationRequest::new(prompt(len, salt), 1));
        h.wait();
        let report = fleet.shutdown();
        report
            .shards
            .iter()
            .position(|s| s.streams_finished == 1)
            .expect("the probe stream retired on some shard")
    };
    let home = shard_of(salt0);
    (1..64)
        .find(|&salt| shard_of(salt0 + salt) != home)
        .map(|salt| salt0 + salt)
        .expect("some prompt hashes to the other shard")
}

/// Mid-flight steal: two long same-prompt streams pin to one
/// consistent-hash shard; the other shard drains its short stream, goes
/// hungry, and steals one *active* stream (park → board → adopt →
/// chunked re-prefill). The migrated stream's tokens stay bit-identical,
/// and the ledgers attribute the park to the donor and the adoption to
/// the thief. Migration timing is scheduling-dependent, so the run
/// retries until a mid-flight steal is observed; bit-identity is asserted
/// on every attempt.
#[test]
fn midflight_migration_is_bit_identical() {
    let model = TransformerModel::random(63, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let long_prompt = prompt(13, 0);
    let long_new = 30;
    let short_salt = other_shard_salt(&model, 9, 0);
    let short_prompt = prompt(9, short_salt);
    let want_long = oracle(&model, &long_prompt, long_new);
    let want_short = oracle(&model, &short_prompt, 3);

    let mut observed_midflight = false;
    for attempt in 0..10 {
        let fleet = Fleet::spawn(model.clone(), fleet_cfg(2, RouterPolicy::ConsistentHash));
        // Same prompt → same shard: a1/a2 pin together, the short stream
        // hashes to the other shard by construction.
        let a1 = fleet.submit(GenerationRequest::new(long_prompt.clone(), long_new));
        let a2 = fleet.submit(GenerationRequest::new(long_prompt.clone(), long_new));
        let b = fleet.submit(GenerationRequest::new(short_prompt.clone(), 3));
        assert_eq!((a1.id().0, a2.id().0, b.id().0), (0, 1, 2));
        let (a1, a2, b) = (a1.wait(), a2.wait(), b.wait());
        let report = fleet.shutdown();

        // Output equivalence holds whether or not a migration happened.
        assert_eq!(a1.tokens, want_long, "attempt {attempt}: a1 diverged");
        assert_eq!(a2.tokens, want_long, "attempt {attempt}: a2 diverged");
        assert_eq!(b.tokens, want_short, "attempt {attempt}: b diverged");
        let tokens = (a1.tokens.len() + a2.tokens.len() + b.tokens.len()) as u64;
        assert_lossless(&report, 3, tokens);

        let total = report.total();
        if total.migrations_out == 1 && a2.preemptions >= 1 {
            // Mid-flight: the victim was *active* (decoding) when parked
            // for export, so its Preempted/Resumed pair is visible on the
            // handle and the thief rebuilt its cache by re-prefill.
            let thief = report
                .shards
                .iter()
                .find(|s| s.migrations_in == 1)
                .expect("some shard adopted the migrant");
            let donor = report
                .shards
                .iter()
                .find(|s| s.migrations_out == 1)
                .expect("some shard exported the migrant");
            assert_ne!(thief.shard, donor.shard, "{report}");
            assert!(
                thief.finished_streams.contains(&StreamId(1)),
                "the stolen stream must retire on the adopting shard: {report}"
            );
            assert!(
                donor.preemptions >= 1,
                "the export park is attributed to the donor: {report}"
            );
            observed_midflight = true;
            break;
        }
    }
    assert!(
        observed_midflight,
        "no attempt produced a mid-flight steal (migration of an active stream)"
    );
}

/// Two aliased SEUs (rows 0 and 8 of one column — a shared stride-8
/// checksum lane) delivered at one exposure step: the deterministic
/// unlocatable-damage recipe from the recovery suite.
struct PairInjector(SeuInjector, SeuInjector);

impl PairInjector {
    /// Alias rows `base` and `base + 8` of one column — both must sit in
    /// the ragged tail block at the armed step, where the next append's
    /// verification detects (and fails to locate) the damage.
    fn aliased_k_rows(step: u64, col: usize, base: u64) -> Self {
        let coord = |row: u64| OpCoord {
            slot: 0,
            i: row,
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

/// An SEU landing on a *migrated* stream's rebuilt cache is detected,
/// re-prefilled, and corrected bit-identically on the adopting shard —
/// and the recovery is attributed to the owning stream on that shard
/// (the other shard's ledger stays clean). The fault flips two aliased
/// rows of the ragged tail block right before a decode append into that
/// block: the append's verification detects the damage, cannot locate
/// it, and the attended-window check poisons the block.
#[test]
fn seu_on_migrated_streams_rebuilt_cache_recovers_with_right_attribution() {
    let model = TransformerModel::random(64, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let long_prompt = prompt(13, 0);
    let long_new = 40;
    let short_salt = other_shard_salt(&model, 9, 0);
    let short_prompt = prompt(9, short_salt);
    let want_long = oracle(&model, &long_prompt, long_new);
    // The steal victim is the donor's newest stream: submission order
    // makes that StreamId(1). Arm the decode sweep at position 47 — token
    // 34 of 40, long after the early steal, so the exposure lands on the
    // thief's *rebuilt* cache — and flip rows 32/40, the stride-8 aliased
    // pair inside the ragged block (rows 32–46) that sweep appends into.
    // The thief's chunked re-prefill cannot swallow the armed step: the
    // steal happens with far fewer than 34 tokens emitted, so the rebuilt
    // cache ends well below row 47 and position 47 runs as an ordinary
    // per-position decode append.
    let step = serve_expose_step(StreamId(1), 47, 2, 0);

    let mut observed = false;
    for attempt in 0..10 {
        let inj = Arc::new(PairInjector::aliased_k_rows(step, 3, 32));
        let fleet = Fleet::spawn_with(
            model.clone(),
            fleet_cfg(2, RouterPolicy::ConsistentHash),
            inj.clone(),
        );
        let a1 = fleet.submit(GenerationRequest::new(long_prompt.clone(), long_new));
        let a2 = fleet.submit(
            GenerationRequest::new(long_prompt.clone(), long_new)
                .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 3 }),
        );
        let b = fleet.submit(GenerationRequest::new(short_prompt.clone(), 3));
        assert_eq!((a1.id().0, a2.id().0, b.id().0), (0, 1, 2));
        let (a1, a2, b) = (a1.wait(), a2.wait(), b.wait());
        let report = fleet.shutdown();

        // Recovery equivalence holds whether or not the steal happened.
        assert_eq!(
            inj.fired(),
            2,
            "attempt {attempt}: both aliased flips must land"
        );
        assert_eq!(
            a2.tokens, want_long,
            "attempt {attempt}: recovery on the migrated stream diverged \
             from the undamaged run"
        );
        assert_eq!(a2.recoveries, 1, "attempt {attempt}: one re-prefill");
        assert_eq!(
            a2.finish,
            Some(FinishReason::Recovered),
            "attempt {attempt}"
        );
        assert_eq!(a1.tokens, want_long, "attempt {attempt}: a1 stays clean");
        assert_eq!(a1.recoveries, 0, "attempt {attempt}");
        assert_eq!(b.recoveries, 0, "attempt {attempt}");
        let tokens = (a1.tokens.len() + a2.tokens.len() + b.tokens.len()) as u64;
        assert_lossless(&report, 3, tokens);

        if report.total().migrations_out == 1 && a2.preemptions >= 1 {
            // The fault hit the rebuilt cache on the adopting shard:
            // recovery and uncorrectable-detection land in that shard's
            // ledger, attributed to the stream that retired there.
            let thief = report
                .shards
                .iter()
                .find(|s| s.migrations_in == 1)
                .expect("some shard adopted the migrant");
            let donor = report
                .shards
                .iter()
                .find(|s| s.migrations_out == 1)
                .expect("some shard exported the migrant");
            assert!(
                thief.finished_streams.contains(&StreamId(1)),
                "the migrated stream retires on the thief: {report}"
            );
            assert!(
                thief.recoveries >= 1,
                "the recovery is attributed to the adopting shard: {report}"
            );
            assert!(
                thief.faults.cache_uncorrectable >= 1,
                "the uncorrectable detection rides the owning stream's \
                 report onto the thief's ledger: {report}"
            );
            assert_eq!(
                donor.recoveries, 0,
                "the donor's ledger stays clean: {report}"
            );
            assert_eq!(donor.faults.cache_uncorrectable, 0, "{report}");
            observed = true;
            break;
        }
    }
    assert!(
        observed,
        "no attempt landed the SEU on a mid-flight-migrated stream"
    );
}
