//! Whole-ledger pins of a faulty serving run.
//!
//! One `ServeSession` serves three streams side by side: one mid-prefill
//! (12-row chunks over 8-row cache blocks, so every chunk straddles a block
//! boundary), two decoding, one of them under a sliding window. A BER
//! injector fires at every site the batched sweep shares across streams
//! or chunk rows: the projection and FFN GEMM chains (`LinearAccum`), the
//! activation unit (`Activation`) and both attention GEMMs (`GemmIAccum`,
//! `GemmIiAccum`). Each stream's tokens and whole `FtReport`, and the
//! injector's fired count, are literals recorded from the per-stream,
//! per-row sweep. However the sweep groups its work, every fault must land
//! at the same coordinate, be found by the same check, and be charged to
//! the same stream.

mod common;

use common::prompt;
use ft_transformer_suite::attention::backend::BackendKind;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::attention::types::FtReport;
use ft_transformer_suite::sim::{BerInjector, FaultInjector, FaultSite};
use ft_transformer_suite::transformer::{
    GenerationRequest, ModelConfig, SchedulerConfig, TransformerModel,
};

/// Serve the three streams under `BerInjector::new(seed, ber)`; return
/// each stream's tokens and ledger, in submission order, and the fired
/// count.
fn serve(seed: u64, ber: f64) -> (Vec<(Vec<u32>, FtReport)>, u64) {
    let config = ModelConfig {
        name: "sweep-pins",
        layers: 2,
        heads: 2,
        hidden: 32,
        ffn_dim: 64,
        vocab: 101,
        max_seq: 96,
    };
    let model = TransformerModel::random(41, config, BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(8);
    let mut session = model.serve_with(SchedulerConfig {
        max_active: 3,
        prefill_chunk: 12,
        ..Default::default()
    });
    let ids = [
        session.submit_request(GenerationRequest::new(prompt(44, 0), 4)),
        session.submit_request(GenerationRequest::new(prompt(3, 1), 12)),
        session.submit_request(GenerationRequest::new(prompt(6, 2), 12).with_window(9)),
    ];
    let inj = BerInjector::new(seed, ber).with_sites(&[
        FaultSite::LinearAccum,
        FaultSite::Activation,
        FaultSite::GemmIAccum,
        FaultSite::GemmIiAccum,
    ]);
    let finished = session.run(&inj);
    let streams = ids
        .iter()
        .map(|id| {
            let f = finished.iter().find(|f| f.id == *id).expect("retired");
            (f.tokens.clone(), f.attention)
        })
        .collect();
    (streams, inj.fired())
}

/// A ledger with only the GEMM I/II and linear counts set.
fn ledger(gemm1: [u64; 3], exp_max: [u64; 2], gemm2: [u64; 3], linear: [u64; 3]) -> FtReport {
    FtReport {
        gemm1_detected: gemm1[0],
        gemm1_corrected: gemm1[1],
        gemm1_recomputed: gemm1[2],
        exp_detected: exp_max[0],
        max_restricted: exp_max[1],
        gemm2_detected: gemm2[0],
        gemm2_corrected: gemm2[1],
        gemm2_recomputed: gemm2[2],
        linear_detected: linear[0],
        linear_corrected: linear[1],
        linear_recomputed: linear[2],
        ..FtReport::default()
    }
}

fn check(seed: u64, ber: f64, want: [(&[u32], FtReport); 3], want_fired: u64) {
    let (got, fired) = serve(seed, ber);
    for (i, ((tokens, report), (want_tokens, want_report))) in got.iter().zip(want).enumerate() {
        assert_eq!(
            tokens.as_slice(),
            want_tokens,
            "seed {seed}: stream {i} tokens"
        );
        assert_eq!(*report, want_report, "seed {seed}: stream {i} ledger");
    }
    assert_eq!(fired, want_fired, "seed {seed}: faults fired");
}

const PREFILL_TOKENS: [u32; 48] = [
    0, 13, 26, 39, 52, 65, 78, 91, 3, 16, 29, 42, 55, 68, 81, 94, 6, 19, 32, 45, 58, 71, 84, 97, 9,
    22, 35, 48, 61, 74, 87, 100, 12, 25, 38, 51, 64, 77, 90, 2, 15, 28, 41, 54, 5, 5, 5, 0,
];

#[test]
fn sparse_faults_keep_every_stream_ledger() {
    check(
        7,
        2e-4,
        [
            (
                &PREFILL_TOKENS,
                ledger([3, 0, 3], [3, 0], [9, 5, 4], [40, 26, 14]),
            ),
            (
                &[29, 42, 55, 6, 6, 6, 98, 87, 87, 44, 6, 77, 77, 94, 7],
                ledger([1, 0, 1], [1, 0], [6, 2, 4], [14, 13, 1]),
            ),
            (
                &[
                    58, 71, 84, 97, 9, 22, 98, 87, 87, 44, 6, 77, 77, 94, 7, 85, 85, 85,
                ],
                ledger([1, 0, 1], [1, 0], [6, 2, 4], [14, 12, 2]),
            ),
        ],
        496,
    );
}

#[test]
fn dense_faults_keep_every_stream_ledger() {
    check(
        11,
        1e-3,
        [
            (
                &PREFILL_TOKENS,
                ledger([19, 11, 14], [19, 6], [17, 14, 5], [151, 88, 63]),
            ),
            (
                &[29, 42, 55, 6, 6, 6, 98, 78, 78, 78, 78, 78, 78, 94, 17],
                ledger([4, 2, 3], [4, 1], [2, 2, 0], [35, 21, 14]),
            ),
            (
                &[
                    58, 71, 84, 97, 9, 22, 98, 78, 78, 78, 78, 78, 78, 94, 17, 85, 85, 85,
                ],
                ledger([4, 2, 3], [4, 1], [5, 4, 1], [47, 29, 18]),
            ),
        ],
        2332,
    );
}
