//! Unified-API integration suite: the cross-backend equivalence matrix,
//! registry round-trips, block-size policy, and exact fault ledgers.
//!
//! This is the contract the `AttentionBackend` redesign exists to enforce:
//! every backend in the registry computes the *same attention* as the
//! reference oracle, over shapes that exercise ragged tiling
//! (`seq % block != 0`), through nothing but `BackendKind::from_str` and
//! `AttentionBackend::run`.

use ft_transformer_suite::attention::backend::{
    AttentionBackend, AttentionRequest, BackendError, BackendKind,
};
use ft_transformer_suite::attention::config::AttentionConfig;
use ft_transformer_suite::attention::decode::DecodeRequest;
use ft_transformer_suite::attention::kv::KvCache;
use ft_transformer_suite::attention::serve::{StreamId, StreamSlice};
use ft_transformer_suite::attention::types::{FtReport, PhaseBreakdown};
use ft_transformer_suite::num::rng::normal_tensor_f16;
use ft_transformer_suite::num::{Tensor4F16, Tensor4F32, F16};
use ft_transformer_suite::sim::{
    BerInjector, ChainFault, FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector,
};

fn workload(cfg: &AttentionConfig, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
    let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
    (q, k, v)
}

/// FP16-data tolerance: flash shares the reference's arithmetic almost
/// exactly; the FT pipelines round checksums and intermediates through
/// binary16, so they get the half-precision budget.
fn tolerance_for(kind: &BackendKind) -> f32 {
    match kind {
        BackendKind::Reference | BackendKind::Flash => 1e-4,
        _ => 5e-3,
    }
}

#[test]
fn equivalence_matrix_every_backend_times_every_shape() {
    // ≥3 shapes, two of which have seq % block != 0 (ragged final tiles),
    // one with auto-block selection.
    let shapes: Vec<(&str, AttentionConfig)> = vec![
        (
            "even 2x4x96x32/b32",
            AttentionConfig::new(2, 4, 96, 32).with_block(32),
        ),
        (
            "ragged 1x2x80x32/b32",
            AttentionConfig::new(1, 2, 80, 32).with_block(32),
        ),
        (
            "ragged 1x2x50x16/b16",
            AttentionConfig::new(1, 2, 50, 16).with_block(16),
        ),
        (
            "auto 1x3x100x32",
            AttentionConfig::new(1, 3, 100, 32).with_auto_block(),
        ),
    ];
    for (label, cfg) in shapes {
        assert!(
            cfg.seq % cfg.block != 0 || label.starts_with("even"),
            "shape grid must keep its ragged cases ragged: {label}"
        );
        let (q, k, v) = workload(&cfg, 0xFACE ^ cfg.seq as u64);
        let req = AttentionRequest::new(cfg, &q, &k, &v);
        let reference = BackendKind::Reference.run(&req);
        for name in BackendKind::NAMES {
            let kind: BackendKind = name.parse().expect("registry name parses");
            let out = kind
                .try_run(&req)
                .unwrap_or_else(|e| panic!("{name} on {label}: {e}"));
            let diff = out.o.max_abs_diff(&reference.o);
            let tol = tolerance_for(&kind);
            assert!(
                diff < tol,
                "{name} disagrees with reference on {label}: {diff} >= {tol}"
            );
            assert!(
                out.report.clean(),
                "{name} raised false alarms on {label}: {:?}",
                out.report
            );
        }
    }
}

#[test]
fn registry_is_total_and_round_trips() {
    assert!(BackendKind::NAMES.len() >= 5, "all kernel families listed");
    for name in BackendKind::NAMES {
        let kind: BackendKind = name.parse().unwrap();
        assert_eq!(&kind.to_string(), name);
        // Kind names match the backend's self-reported name.
        assert_eq!(&kind.name(), name);
    }
    assert!("not-a-backend".parse::<BackendKind>().is_err());
}

#[test]
fn auto_block_handles_extreme_sequences() {
    // seq smaller than the default 64 tile must still produce one valid
    // block and correct output (this was the ad-hoc `64.min(seq.max(8))`
    // logic previously buried in MultiHeadAttention::forward).
    for seq in [8usize, 12, 33, 100] {
        let cfg = AttentionConfig::new(1, 2, seq, 16).with_auto_block();
        assert!(cfg.block >= 8 && cfg.block <= 64);
        let (q, k, v) = workload(&cfg, seq as u64);
        let req = AttentionRequest::new(cfg, &q, &k, &v);
        let reference = BackendKind::Reference.run(&req);
        let efta = "efta-o".parse::<BackendKind>().unwrap().run(&req);
        let diff = efta.o.max_abs_diff(&reference.o);
        assert!(diff < 5e-3, "seq {seq}: diff {diff}");
    }
}

/// Several single-event upsets at once: every query is offered to each
/// upset in turn, so each fires at its own coordinate exactly as it would
/// alone.
struct Upsets(Vec<SeuInjector>);

impl FaultInjector for Upsets {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        self.0
            .iter()
            .fold(value, |v, seu| seu.corrupt_f32(site, coord, v))
    }
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        self.0
            .iter()
            .fold(value, |v, seu| seu.corrupt_f16(site, coord, v))
    }
    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        self.0
            .iter()
            .find_map(|seu| seu.decide_chain(site, coord, k_len))
    }
    fn fired(&self) -> u64 {
        self.0.iter().map(SeuInjector::fired).sum()
    }
    fn may_fire(&self, site: FaultSite) -> bool {
        self.0.iter().any(|seu| seu.may_fire(site))
    }
}

fn assert_phases_populated(name: &str, phases: &PhaseBreakdown) {
    let fields = [
        ("gemm1", phases.gemm1),
        ("gemm1_protect", phases.gemm1_protect),
        ("softmax", phases.softmax),
        ("softmax_protect", phases.softmax_protect),
        ("gemm2", phases.gemm2),
        ("gemm2_protect", phases.gemm2_protect),
    ];
    for (field, secs) in fields {
        assert!(secs > 0.0, "{name}: phase {field} not recorded: {phases:?}");
    }
}

/// Exact ledger of an `efta-o` prefill whose upsets land in three distinct
/// `(slot, row-block)` tasks of a 2 × 2-head request: a GEMM I chain, a
/// GEMM II chain and one EXP unit. Concurrent tasks each keep their own
/// counts; the whole report must equal the recorded literal.
#[test]
fn efta_prefill_ledger_is_exact_across_concurrent_tasks() {
    let cfg = AttentionConfig::new(2, 2, 64, 32).with_block(32);
    let (q, k, v) = workload(&cfg, 4242);
    let inj = Upsets(vec![
        // slot 1, row block 0, column block 1 (data pass: iter 3).
        SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(1, 5, 40, 3), 30).at_chain_step(20),
        // slot 3, row block 32, column block 1 (data pass: iter 3).
        SeuInjector::new(FaultSite::GemmIiAccum, OpCoord::new(3, 40, 5, 3), 30).at_chain_step(10),
        // slot 2, row block 0, column block 0.
        SeuInjector::new(FaultSite::ExpUnit, OpCoord::new(2, 3, 17, 0), 27),
    ]);
    let kind: BackendKind = "efta-o".parse().unwrap();
    let out = kind.run(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&inj));
    assert_eq!(inj.fired(), 3, "every upset must land");
    assert_eq!(
        out.report,
        FtReport {
            gemm1_detected: 1,
            gemm1_corrected: 1,
            exp_detected: 2,
            exp_recomputed: 1,
            gemm2_detected: 1,
            gemm2_corrected: 1,
            gemm2_recomputed: 1,
            ..FtReport::default()
        }
    );
    assert_phases_populated("efta-o", &out.phases);
}

/// Exact ledger of the decoupled pipeline with one GEMM I and one GEMM II
/// upset in different slot tasks.
#[test]
fn decoupled_ledger_is_exact_across_slot_tasks() {
    let cfg = AttentionConfig::new(1, 2, 64, 32).with_block(32);
    let (q, k, v) = workload(&cfg, 4343);
    let inj = Upsets(vec![
        SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 10, 20, 0), 30).at_chain_step(15),
        SeuInjector::new(FaultSite::GemmIiAccum, OpCoord::new(1, 7, 11, 0), 30).at_chain_step(30),
    ]);
    let kind: BackendKind = "decoupled".parse().unwrap();
    let out = kind.run(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&inj));
    assert_eq!(inj.fired(), 2, "every upset must land");
    assert_eq!(
        out.report,
        FtReport {
            gemm1_detected: 2,
            gemm1_recomputed: 2,
            gemm2_detected: 1,
            gemm2_corrected: 1,
            ..FtReport::default()
        }
    );
    assert_phases_populated("decoupled", &out.phases);
}

/// Exact per-stream ledgers of a 3-stream `efta-o` decode sweep: stream 0
/// is clean, stream 1 carries a correctable cache flip under a 3-row chunk,
/// and stream 2 a scrubbed (sticky-poisoned) block beside a fresh flip. The
/// poison count is surfaced once per stream, however many head tiles the
/// stream spans.
#[test]
fn decode_sweep_ledgers_are_exact_per_stream() {
    const DIM: usize = 16;
    let cache_over = |seed: u64, len: usize| {
        let mut cache = KvCache::new(1, 2, DIM, 16, 8, 0.25);
        for t in 0..len as u64 {
            let k = normal_tensor_f16(seed + t, 1, 2, 1, DIM, 0.6);
            let v = normal_tensor_f16(seed + 500 + t, 1, 2, 1, DIM, 0.8);
            assert!(cache.append(&k, &v).clean());
        }
        cache
    };
    let expose = |cache: &mut KvCache, slot, row, col, which| {
        let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(slot, row, col, which), 14);
        cache.expose(&seu, 0);
        assert_eq!(seu.fired(), 1, "the cache upset must land");
    };
    let clean = cache_over(100, 13);
    let mut flipped = cache_over(200, 20);
    expose(&mut flipped, 1, 3, 5, 0);
    let mut poisoned = cache_over(300, 21);
    // Rows 0 and 8 share a stride-8 checksum lane: the pair cannot be
    // located, so the scrub folds it into the block's sticky mark.
    expose(&mut poisoned, 0, 0, 4, 0);
    expose(&mut poisoned, 0, 8, 4, 0);
    poisoned.scrub();
    assert_eq!(poisoned.poisoned(), 1, "the aliased pair must poison");
    expose(&mut poisoned, 1, 6, 2, 0);

    let qs = [
        normal_tensor_f16(110, 1, 2, 1, DIM, 0.6),
        normal_tensor_f16(210, 1, 2, 3, DIM, 0.6),
        normal_tensor_f16(310, 1, 2, 1, DIM, 0.6),
    ];
    let slices: Vec<StreamSlice<'_>> = [&clean, &flipped, &poisoned]
        .into_iter()
        .zip(&qs)
        .enumerate()
        .map(|(i, (cache, q))| StreamSlice {
            stream: StreamId(i as u64),
            cache,
            q,
            window: None,
        })
        .collect();
    let kind: BackendKind = "efta-o".parse().unwrap();
    let reports: Vec<FtReport> = kind
        .decode_sweep(&slices, &NoFaults, None)
        .into_iter()
        .map(|out| out.report)
        .collect();
    let cache = |detected, corrected, uncorrectable| FtReport {
        cache_detected: detected,
        cache_corrected: corrected,
        cache_uncorrectable: uncorrectable,
        ..FtReport::default()
    };
    assert_eq!(
        reports,
        vec![cache(0, 0, 0), cache(1, 1, 0), cache(1, 1, 1)]
    );
}

/// Single-query decode is the sweep over one one-row slice: for every
/// backend, `decode` of a default request (step = the cache's last row)
/// and `decode_sweep` over the same one-row slice (step = the slice's
/// base, the same row) give the same output bits and the same ledger —
/// clean, and under a fresh BER injector per call at every GEMM I,
/// GEMM II and exponent site.
#[test]
fn decode_is_the_sweep_over_one_one_row_slice() {
    const DIM: usize = 16;
    let bits = |t: &Tensor4F32| -> Vec<u32> {
        (0..t.num_slots())
            .flat_map(|i| t.slot_flat(i).as_slice().iter().map(|x| x.to_bits()))
            .collect()
    };
    let caches: Vec<KvCache> = [5u64, 12, 21]
        .into_iter()
        .map(|len| {
            let mut cache = KvCache::new(1, 2, DIM, 8, 8, 0.25);
            for t in 0..len {
                let k = normal_tensor_f16(100 * len + t, 1, 2, 1, DIM, 0.6);
                let v = normal_tensor_f16(100 * len + 50 + t, 1, 2, 1, DIM, 0.8);
                assert!(cache.append(&k, &v).clean());
            }
            cache
        })
        .collect();
    let sites = [
        None,
        Some(FaultSite::GemmIAccum),
        Some(FaultSite::GemmIiAccum),
        Some(FaultSite::ExpUnit),
    ];
    let (mut fired, mut detected) = (0, 0);
    for kind in BackendKind::all() {
        for (i, cache) in caches.iter().enumerate() {
            let q = normal_tensor_f16(900 + i as u64, 1, 2, 1, DIM, 0.6);
            for site in sites {
                let inj = || -> Box<dyn FaultInjector> {
                    match site {
                        Some(site) => Box::new(BerInjector::new(77, 2e-2).with_sites(&[site])),
                        None => Box::new(NoFaults),
                    }
                };
                let (decode_inj, sweep_inj) = (inj(), inj());
                let req = DecodeRequest::new(cache, &q).with_injector(&*decode_inj);
                let decoded = kind.decode(&req);
                let slice = StreamSlice {
                    stream: StreamId(0),
                    cache,
                    q: &q,
                    window: None,
                };
                let swept = kind.decode_sweep(&[slice], &*sweep_inj, None).remove(0);
                let what = format!("{kind}, cache {}, {site:?}", cache.len());
                assert_eq!(bits(&decoded.o), bits(&swept.o), "{what}");
                assert_eq!(decoded.report, swept.report, "{what}");
                assert_eq!(decode_inj.fired(), sweep_inj.fired(), "{what}");
                fired += decode_inj.fired();
                detected += decoded.report.total_detected();
            }
        }
    }
    assert!(fired > 0, "the BER injectors must fire");
    assert!(detected > 0, "the protected kinds must detect");
}

#[test]
fn efta_rejects_sub_stride_sequences_gracefully() {
    // Through the API this is an error value, not a panic.
    let cfg = AttentionConfig::new(1, 1, 4, 16).with_block(4);
    let (q, k, v) = workload(&cfg, 5);
    let err = "efta-o"
        .parse::<BackendKind>()
        .unwrap()
        .try_run(&AttentionRequest::new(cfg, &q, &k, &v))
        .unwrap_err();
    assert!(matches!(err, BackendError::Unsupported(_)), "{err}");
}
