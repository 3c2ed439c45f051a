//! Cross-crate fault-recovery integration: single-event upsets at every
//! protected site of the fused kernel must be repaired end to end, and the
//! full transformer must stay on its fault-free trajectory.

use ft_transformer_suite::attention::backend::{AttentionBackend, AttentionRequest, BackendKind};
use ft_transformer_suite::attention::config::AttentionConfig;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::num::rng::normal_tensor_f16;
use ft_transformer_suite::num::Tensor4F16;
use ft_transformer_suite::sim::{
    BerInjector, FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector,
};
use ft_transformer_suite::transformer::{ModelConfig, TransformerModel};

fn workload(cfg: &AttentionConfig, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
    let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
    (q, k, v)
}

/// Every fused-kernel fault site, exercised with a catastrophic (bit 30)
/// SEU: the output must stay close to the fault-free answer and remain
/// finite. Case-3-style in-range corruptions are tolerated by design, so
/// sites repaired only approximately get a looser bound.
#[test]
fn seu_sweep_over_attention_sites() {
    let cfg = AttentionConfig::new(1, 2, 64, 32).with_block(32);
    let (q, k, v) = workload(&cfg, 3000);
    let efta_o = BackendKind::Efta(EftaOptions::optimized());
    let clean = efta_o.run(&AttentionRequest::new(cfg, &q, &k, &v));

    let cases: Vec<(FaultSite, OpCoord, u32, f32)> = vec![
        (FaultSite::GemmIAccum, OpCoord::new(0, 5, 40, 3), 30, 5e-2),
        (FaultSite::GemmIAccum, OpCoord::new(1, 20, 10, 0), 30, 5e-2),
        (FaultSite::GemmIiAccum, OpCoord::new(0, 9, 5, 3), 30, 5e-2),
        (FaultSite::ExpUnit, OpCoord::new(0, 3, 17, 0), 27, 5e-2),
        (FaultSite::Subtract, OpCoord::new(1, 8, 50, 1), 30, 5e-2),
        (FaultSite::MaxReduce, OpCoord::new(0, 2, 0, 0), 31, 5e-2),
        (FaultSite::Normalize, OpCoord::new(0, 4, 9, 1000), 29, 5e-2),
        // Rescale faults on O elements are caught by the final checksum.
        (FaultSite::Rescale, OpCoord::new(0, 6, 3, 4001), 28, 5e-2),
    ];
    for (site, coord, bit, tol) in cases {
        let inj = SeuInjector::new(site, coord, bit).at_chain_step(12);
        let out = efta_o.run(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&inj));
        assert!(inj.fired() >= 1, "{site:?} fault must fire");
        assert!(
            !out.o.has_non_finite(),
            "{site:?} produced non-finite output"
        );
        let diff = out.o.max_abs_diff(&clean.o);
        assert!(
            diff < tol,
            "{site:?} at {coord:?}: residual {diff} exceeds {tol}"
        );
    }
}

#[test]
fn per_step_mode_also_recovers() {
    let cfg = AttentionConfig::new(1, 2, 64, 32).with_block(32);
    let (q, k, v) = workload(&cfg, 3100);
    let efta: BackendKind = "efta".parse().expect("registry name");
    let clean = efta.run(&AttentionRequest::new(cfg, &q, &k, &v));
    let inj =
        SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 7, 33, 3), 30).at_chain_step(5);
    let out = efta.run(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&inj));
    assert!(inj.fired() >= 1);
    assert!(out.report.total_detected() > 0);
    assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
}

#[test]
fn transformer_forward_recovers_from_attention_seu() {
    let cfg = ModelConfig {
        name: "tiny",
        layers: 2,
        heads: 4,
        hidden: 64,
        ffn_dim: 128,
        vocab: 211,
        max_seq: 64,
    };
    let model = TransformerModel::random(9, cfg, BackendKind::Efta(EftaOptions::optimized()));
    let tokens: Vec<u32> = (0..32).map(|i| i * 5 % 211).collect();
    let (clean, _) = model.forward_hidden(&tokens, &NoFaults);
    // One SEU inside every layer's attention (coordinates are layer-local).
    let inj =
        SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 3, 5, 0), 30).at_chain_step(7);
    let (dirty, rep) = model.forward_hidden(&tokens, &inj);
    assert_eq!(
        inj.fired(),
        cfg.layers as u64,
        "one fault per layer's attention"
    );
    assert!(rep.total_repaired() > 0);
    let diff = dirty.max_abs_diff(&clean);
    assert!(diff < 0.05, "residual {diff}");
}

#[test]
fn deterministic_replay_under_faults() {
    // The same seeded injector must reproduce the identical output twice
    // (schedule-independent fault placement).
    let cfg = AttentionConfig::new(1, 4, 96, 32).with_block(32);
    let (q, k, v) = workload(&cfg, 3200);
    let run = |seed: u64| {
        let inj =
            BerInjector::new(seed, 1e-5).with_sites(&[FaultSite::GemmIAccum, FaultSite::ExpUnit]);
        BackendKind::Efta(EftaOptions::optimized())
            .run(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&inj))
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.o.max_abs_diff(&b.o), 0.0, "replay must be bit-identical");
    assert_eq!(a.report, b.report);
}
