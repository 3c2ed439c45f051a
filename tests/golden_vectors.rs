//! Golden-vector regression suite: fixed-seed Q/K/V fixtures with pinned
//! `reference` backend outputs, so numeric drift introduced by a future
//! refactor is *caught*, not silently absorbed by tolerance-based tests
//! that only compare kernels against each other.
//!
//! Two layers of pinning:
//! * the score GEMM `S = (scale·Q)Kᵀ` is pure multiply-add in ascending-k
//!   order — bit-exact on every IEEE-754 platform, pinned via `to_bits`;
//! * the full attention output passes through `exp` (libm, last-ulp
//!   platform-dependent), pinned against stored values at `1e-6` — far
//!   below any real numeric change, far above libm jitter.
//!
//! Regenerate after an *intentional* numeric change with:
//! `GOLDEN_GENERATE=1 cargo test --release --test golden_vectors -- --nocapture`

// The pinned constants carry full f32 decimal precision on purpose.
#![allow(clippy::excessive_precision)]

use ft_transformer_suite::attention::backend::{AttentionBackend, AttentionRequest, BackendKind};
use ft_transformer_suite::attention::config::AttentionConfig;
use ft_transformer_suite::num::rng::normal_tensor_f16;
use ft_transformer_suite::num::Tensor4F16;
use ft_transformer_suite::sim::gemm_nn;

/// The fixture: 1 batch, 1 head, 12 tokens (ragged over 8-wide blocks),
/// head dim 8, seeds 1001/1002/1003, scale 1/sqrt(8).
fn fixture() -> (AttentionConfig, Tensor4F16, Tensor4F16, Tensor4F16) {
    let cfg = AttentionConfig::new(1, 1, 12, 8).with_block(8);
    let q = normal_tensor_f16(1001, 1, 1, 12, 8, 0.5);
    let k = normal_tensor_f16(1002, 1, 1, 12, 8, 0.5);
    let v = normal_tensor_f16(1003, 1, 1, 12, 8, 0.5);
    (cfg, q, k, v)
}

/// Bit patterns of S[0][0..4] and S[11][0..4] (scaled scores, row-major).
const GOLDEN_S_BITS: [u32; 8] = [
    0xbedf5317, 0xbe3e78b6, 0x3df2366a, 0x3dc63147, 0xbed17d9f, 0x3e4053c3, 0x3e31b0b6, 0x3d39b426,
];

/// Reference backend output O, all 12 × 8 elements, row-major.
const GOLDEN_O: [f32; 96] = [
    5.7872422e-2,
    -6.0357194e-2,
    2.2649512e-2,
    1.4110145e-1,
    -3.1268895e-1,
    3.3855304e-1,
    5.1626619e-2,
    1.2199715e-1,
    6.3437521e-2,
    -9.2344694e-3,
    9.5359705e-2,
    4.8818447e-2,
    -3.7098756e-1,
    4.2056686e-1,
    1.0100469e-1,
    9.7835623e-2,
    4.8987798e-2,
    -2.9795967e-2,
    4.5467176e-2,
    1.4473462e-1,
    -3.1722820e-1,
    3.9269528e-1,
    6.9075435e-2,
    1.1931336e-1,
    6.6578232e-2,
    -1.5737034e-2,
    4.2101670e-2,
    9.0180084e-2,
    -3.2701895e-1,
    3.4545350e-1,
    7.9793438e-2,
    1.2835237e-1,
    9.2354804e-2,
    -1.0020431e-1,
    6.3004389e-2,
    1.1696830e-1,
    -3.2293499e-1,
    4.6691939e-1,
    2.7383253e-2,
    7.5718373e-2,
    4.9751006e-2,
    -6.0678437e-2,
    4.4849355e-2,
    1.3947117e-1,
    -3.2881871e-1,
    4.3789598e-1,
    5.6456439e-2,
    1.1272974e-1,
    1.1955762e-2,
    -8.9525446e-2,
    3.7061732e-2,
    1.9039409e-1,
    -3.3578989e-1,
    3.7978557e-1,
    6.5935984e-2,
    8.4497675e-2,
    4.1704014e-2,
    4.2215407e-2,
    9.4706953e-2,
    6.3735247e-2,
    -3.8529238e-1,
    3.4189811e-1,
    1.3083687e-1,
    1.2483145e-1,
    -2.1948338e-2,
    -6.1892763e-2,
    -2.2226136e-2,
    2.4296330e-1,
    -2.6570323e-1,
    2.3828888e-1,
    7.4384145e-2,
    1.2680942e-1,
    1.1966595e-2,
    2.5965896e-2,
    1.2524056e-1,
    1.0164871e-1,
    -4.6854162e-1,
    3.7027431e-1,
    1.3270573e-1,
    6.0739458e-2,
    7.7885211e-2,
    2.4362944e-2,
    1.1268734e-1,
    6.5578014e-2,
    -3.5254380e-1,
    3.8923261e-1,
    1.0564531e-1,
    8.4339850e-2,
    8.5897461e-2,
    -5.3976230e-2,
    6.6428430e-2,
    7.4321881e-2,
    -3.4942144e-1,
    4.0805456e-1,
    5.7726160e-2,
    1.0963924e-1,
];

fn scaled_scores(cfg: &AttentionConfig, q: &Tensor4F16, k: &Tensor4F16) -> Vec<u32> {
    let qs = q.slot_flat(0).to_f32();
    let qm = ft_transformer_suite::num::MatrixF32::from_fn(12, 8, |i, j| qs.get(i, j) * cfg.scale);
    let s = gemm_nn(&qm, &k.slot_flat(0).to_f32().transpose());
    let mut bits = Vec::new();
    for &row in &[0usize, 11] {
        for col in 0..4 {
            bits.push(s.get(row, col).to_bits());
        }
    }
    bits
}

#[test]
fn generate_golden_vectors_when_requested() {
    if std::env::var("GOLDEN_GENERATE").is_err() {
        return;
    }
    let (cfg, q, k, v) = fixture();
    let bits = scaled_scores(&cfg, &q, &k);
    println!("const GOLDEN_S_BITS: [u32; 8] = [");
    for b in bits {
        print!("    {b:#010x},");
    }
    println!("\n];");
    let out = BackendKind::Reference.run(&AttentionRequest::new(cfg, &q, &k, &v));
    println!("const GOLDEN_O: [f32; 96] = [");
    for i in 0..12 {
        print!("   ");
        for j in 0..8 {
            print!(" {:.7e},", out.o.slot_flat(0).get(i, j));
        }
        println!();
    }
    println!("];");
}

#[test]
fn score_gemm_is_bit_exact() {
    let (cfg, q, k, _) = fixture();
    let bits = scaled_scores(&cfg, &q, &k);
    assert_eq!(
        bits,
        GOLDEN_S_BITS.to_vec(),
        "S = (scale·Q)Kᵀ drifted — pure FMA-order change or operand change"
    );
}

#[test]
fn reference_output_matches_golden_vectors() {
    let (cfg, q, k, v) = fixture();
    let out = BackendKind::Reference.run(&AttentionRequest::new(cfg, &q, &k, &v));
    for i in 0..12 {
        for j in 0..8 {
            let got = out.o.slot_flat(0).get(i, j);
            let want = GOLDEN_O[i * 8 + j];
            assert!(
                (got - want).abs() <= 1e-6,
                "O[{i}][{j}] drifted: {got:e} vs pinned {want:e}"
            );
        }
    }
}

#[test]
fn every_other_backend_stays_within_tolerance_of_the_golden_output() {
    let (cfg, q, k, v) = fixture();
    let req = AttentionRequest::new(cfg, &q, &k, &v);
    for name in BackendKind::NAMES {
        let kind: BackendKind = name.parse().unwrap();
        let out = kind.try_run(&req).unwrap_or_else(|e| panic!("{name}: {e}"));
        let tol = match kind {
            BackendKind::Reference | BackendKind::Flash => 1e-4,
            _ => 5e-3,
        };
        for i in 0..12 {
            for j in 0..8 {
                let got = out.o.slot_flat(0).get(i, j);
                let want = GOLDEN_O[i * 8 + j];
                assert!(
                    (got - want).abs() < tol,
                    "{name}: O[{i}][{j}] = {got:e} vs golden {want:e} (tol {tol})"
                );
            }
        }
    }
}

/// FNV-1a over the f32 bit patterns of a whole output, row-major.
fn bit_digest(o: &ft_transformer_suite::num::Tensor4F32) -> u64 {
    let slot = o.slot_flat(0);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in slot.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Bit digests of every registered backend's prefill output on the
/// fixture, then `flash` with the causal mask. Every kernel computes each
/// GEMM element as one ascending-k chain, so a refactor of the kernel layer
/// must leave every bit of every output where it was.
const GOLDEN_DIGESTS: [(&str, u64); 8] = [
    ("reference", 0x7d9b9f207e133667),
    ("flash", 0xbc13281ae9fa8a8b),
    ("decoupled", 0x56cfa32551c8e9ca),
    ("decoupled-baseline", 0x56cfa32551c8e9ca),
    ("efta", 0x27a1bce20dea25e5),
    ("efta-o", 0x27a1bce20dea25e5),
    ("efta-unprotected", 0x27a1bce20dea25e5),
    ("flash causal", 0x7b7c2f3936f1c6a5),
];

#[test]
fn every_backend_output_is_bit_pinned() {
    let (cfg, q, k, v) = fixture();
    let mut got: Vec<(String, u64)> = BackendKind::NAMES
        .iter()
        .map(|name| {
            let kind: BackendKind = name.parse().unwrap();
            let req = AttentionRequest::new(cfg, &q, &k, &v);
            let out = kind.try_run(&req).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_string(), bit_digest(&out.o))
        })
        .collect();
    let causal = cfg.with_causal(true);
    let out = BackendKind::Flash.run(&AttentionRequest::new(causal, &q, &k, &v));
    got.push(("flash causal".to_string(), bit_digest(&out.o)));
    let want: Vec<(String, u64)> = GOLDEN_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(got, want, "a backend's output bits moved");
}
