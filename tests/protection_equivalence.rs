//! Protection-survival suite: a stream's [`ProtectionLevel`] is a
//! *request* property, so every cache the serving machinery rebuilds for
//! it — park/resume re-prefill, work-stealing migration between sessions,
//! and `ReprefillPartial` fault recovery, rollback and full replay — must come
//! back at the requested level, with tokens bit-identical to an
//! uninterrupted same-level run. `Raw` streams must sail through the same
//! damage recipes with empty ledgers: nothing verifies, so nothing can
//! detect, poison, or trigger recovery.

mod common;

use common::{prompt, tiny_config};
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::attention::protect::ProtectionLevel;
use ft_transformer_suite::attention::serve::StreamState;
use ft_transformer_suite::num::F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer_suite::transformer::{
    serve_expose_step, BackendKind, EngineEvent, FinishReason, GenerationRequest, ModelConfig,
    RecoveryPolicy, SchedulerConfig, ServeSession, StreamId, TransformerModel,
};

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("protect-tiny", max_seq)
}

/// One stream per protection level.
fn lattice() -> [ProtectionLevel; 2] {
    [ProtectionLevel::Full, ProtectionLevel::Raw]
}

fn sched() -> SchedulerConfig {
    SchedulerConfig {
        max_active: 8,
        prefill_chunk: 8,
        ..Default::default()
    }
}

/// Every stream that currently holds a cache must hold it at the level its
/// request asked for.
fn assert_resident_levels<M: std::borrow::Borrow<TransformerModel>>(
    session: &ServeSession<M>,
    ids: &[StreamId],
    levels: &[ProtectionLevel],
) {
    for (i, &id) in ids.iter().enumerate() {
        if let Some(got) = session.stream_cache_protection(id) {
            assert_eq!(
                got, levels[i],
                "stream {i}: resident cache drifted off its requested level"
            );
        }
    }
}

/// Give every stream away through the session's one migration door,
/// [`ServeSession::export_stream`]: each held a slot, so each is parked on
/// the way out (its cache dropped, its `Preempted` queued in
/// `drain_events`). Returns the exported states in export order.
fn export_all<M: std::borrow::Borrow<TransformerModel>>(
    session: &mut ServeSession<M>,
    ids: &[StreamId],
) -> Vec<StreamState> {
    let states: Vec<StreamState> = ids
        .iter()
        .map(|_| session.export_stream().expect("an active stream to export"))
        .collect();
    assert!(session.export_stream().is_none(), "every stream is out");
    let preempted: Vec<StreamId> = (session.drain_events().into_iter())
        .filter_map(|e| match e {
            EngineEvent::Preempted { stream } => Some(stream),
            _ => None,
        })
        .collect();
    let mut exported: Vec<StreamId> = states.iter().map(|s| s.id).collect();
    assert_eq!(preempted, exported, "each export parks its stream");
    exported.sort();
    assert_eq!(exported, ids, "each stream is exported once");
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            session.stream_cache_protection(id),
            None,
            "stream {i}: a parked stream holds no cache"
        );
    }
    states
}

/// Parking a stream drops its cache; the resume re-prefill must rebuild it
/// at the stream's own level, and the interruption stays invisible in the
/// tokens at both levels. The streams park by leaving through
/// `export_stream` and resume by being adopted back.
#[test]
fn protection_survives_park_and_resume() {
    let model = TransformerModel::random(71, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(8);
    let levels = lattice();
    let new_tokens = 8;
    let prompts: Vec<Vec<u32>> = (0..levels.len()).map(|i| prompt(10 + i, i)).collect();

    let mut reference = model.serve_with(sched());
    for (p, &l) in prompts.iter().zip(&levels) {
        reference.submit_request(GenerationRequest::new(p.clone(), new_tokens).with_protection(l));
    }
    let clean = reference.run(&NoFaults);

    let mut session = model.serve_with(sched());
    let ids: Vec<StreamId> = prompts
        .iter()
        .zip(&levels)
        .map(|(p, &l)| {
            session.submit_request(GenerationRequest::new(p.clone(), new_tokens).with_protection(l))
        })
        .collect();
    for _ in 0..3 {
        session.sweep_events(&NoFaults);
        assert_resident_levels(&session, &ids, &levels);
    }
    for state in export_all(&mut session, &ids) {
        session.adopt_stream(state);
    }
    let mut resumed = Vec::new();
    while !session.idle() {
        for e in session.sweep_events(&NoFaults) {
            if let EngineEvent::Resumed { stream } = e {
                resumed.push(stream);
            }
        }
        assert_resident_levels(&session, &ids, &levels);
    }
    resumed.sort();
    assert_eq!(resumed, ids, "every parked stream resumes once");
    let finished = session.take_finished();
    assert_eq!(finished.len(), levels.len());
    for (i, ((f, c), &l)) in finished.iter().zip(&clean).zip(&levels).enumerate() {
        assert_eq!(
            f.tokens, c.tokens,
            "stream {i} ({l}): park/resume must stay bit-identical"
        );
        assert_eq!(f.protection, l, "stream {i}: level rides the record");
        assert!(f.preemptions >= 1, "stream {i} was actually parked");
        assert_eq!(f.finish, FinishReason::MaxTokens, "stream {i}");
    }
}

/// Work-stealing migration ships scheduler state only — the adopting
/// session rebuilds the cache by chunked re-prefill, and must build it at
/// the migrated stream's own level (the `Migrant` carries the request's
/// level inside its `StreamState`).
#[test]
fn protection_survives_work_stealing_migration() {
    let model = TransformerModel::random(72, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(8);
    let levels = lattice();
    let new_tokens = 8;
    let prompts: Vec<Vec<u32>> = (0..levels.len()).map(|i| prompt(11 + i, i)).collect();

    let mut reference = model.serve_with(sched());
    for (p, &l) in prompts.iter().zip(&levels) {
        reference.submit_request(GenerationRequest::new(p.clone(), new_tokens).with_protection(l));
    }
    let clean = reference.run(&NoFaults);

    let mut donor = model.serve_with(sched());
    let ids: Vec<StreamId> = prompts
        .iter()
        .zip(&levels)
        .map(|(p, &l)| {
            donor.submit_request(GenerationRequest::new(p.clone(), new_tokens).with_protection(l))
        })
        .collect();
    for _ in 0..3 {
        donor.sweep_events(&NoFaults);
    }
    let mut thief = model.serve_with(sched());
    for state in export_all(&mut donor, &ids) {
        thief.adopt_stream(state);
    }
    assert!(donor.idle(), "the donor gave every stream away");
    while !thief.idle() {
        thief.sweep_events(&NoFaults);
        assert_resident_levels(&thief, &ids, &levels);
    }
    let finished = thief.take_finished();
    assert_eq!(finished.len(), levels.len());
    for (i, ((f, c), &l)) in finished.iter().zip(&clean).zip(&levels).enumerate() {
        assert_eq!(
            f.tokens, c.tokens,
            "stream {i} ({l}): migration must stay bit-identical"
        );
        assert_eq!(f.protection, l, "stream {i}: level survives adoption");
    }
}

/// Two aliased SEUs (rows 0 and 8 of one column — a shared stride-8
/// checksum lane) delivered at one exposure step: the deterministic
/// unlocatable-damage recipe from the recovery suites.
struct PairInjector(SeuInjector, SeuInjector);

impl PairInjector {
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

/// Re-prefill recovery keeps the stream's own level, whether it rolls the
/// cache back to a clean block or drops and rebuilds it — and the
/// recovered tokens match the same-level undamaged run bit-for-bit.
/// `Full` detects the damage at append time.
#[test]
fn protection_survives_reprefill_recovery() {
    let model = TransformerModel::random(73, tiny(64), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let p = prompt(13, 0);
    let new_tokens = 40;
    // Decode append at position 47 lands in the ragged block (rows 32–46);
    // rows 32/40 of one column share a stride-8 checksum lane, so the
    // damage is detected but unlocatable → poison → re-prefill.
    let step = serve_expose_step(StreamId(0), 47, 2, 0);

    let level = ProtectionLevel::Full;
    let mut clean_session = model.serve_with(sched());
    clean_session
        .submit_request(GenerationRequest::new(p.clone(), new_tokens).with_protection(level));
    let clean = clean_session.run(&NoFaults);
    // The same damage at decode base 15 lands on rows 0/8 of the ragged
    // block 0, the first attended block: recovery falls back to dropping
    // the cache and replaying the whole history into a rebuilt one.
    let first_block = PairInjector::aliased_k_rows(serve_expose_step(StreamId(0), 15, 2, 0), 3, 0);
    let recipes = [
        ("rollback", PairInjector::aliased_k_rows(step, 3, 32)),
        ("full replay", first_block),
    ];
    for (recipe, inj) in recipes {
        let mut session = model.serve_with(sched());
        let id = session.submit_request(
            GenerationRequest::new(p.clone(), new_tokens)
                .with_protection(level)
                .with_recovery(RecoveryPolicy::ReprefillPartial { max_attempts: 3 }),
        );
        while !session.idle() {
            session.sweep_events(&inj);
            if let Some(got) = session.stream_cache_protection(id) {
                assert_eq!(got, level, "{recipe}: rebuilt cache drifted off-level");
            }
        }
        let finished = session.take_finished();
        assert_eq!(inj.fired(), 2, "{recipe}: both aliased flips must land");
        let f = &finished[0];
        assert!(f.recoveries >= 1, "{recipe}: recovery must actually fire");
        assert_eq!(f.finish, FinishReason::Recovered, "{recipe}");
        assert_eq!(
            f.tokens, clean[0].tokens,
            "{recipe}: recovery diverged from the undamaged same-level run"
        );
        assert_eq!(f.protection, level);
    }

    // Raw under the identical damage recipe: no metadata, so nothing
    // detects, nothing poisons, and recovery never triggers — the stream
    // runs to its token budget with an empty cache ledger.
    let inj = PairInjector::aliased_k_rows(step, 3, 32);
    let mut session = model.serve_with(sched());
    session.submit_request(
        GenerationRequest::new(p.clone(), new_tokens)
            .with_protection(ProtectionLevel::Raw)
            .with_recovery(RecoveryPolicy::ReprefillPartial { max_attempts: 3 }),
    );
    while !session.idle() {
        session.sweep_events(&inj);
    }
    let finished = session.take_finished();
    assert_eq!(inj.fired(), 2, "raw: both flips still land on the payload");
    let f = &finished[0];
    assert_eq!(f.attention.cache_detected, 0, "raw: nothing verifies");
    assert_eq!(f.attention.cache_corrected, 0);
    assert_eq!(f.recoveries, 0, "raw: recovery has no trigger");
    assert_eq!(f.finish, FinishReason::MaxTokens);
    assert_eq!(f.protection, ProtectionLevel::Raw);
}
