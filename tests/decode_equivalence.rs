//! Acceptance suite for the checksum-protected KV-cache decode engine.
//!
//! The contract: for **every** backend in the registry, incremental decode
//! over N steps computes the same attention as a full-sequence *causal*
//! prefill (row `t` of causal attention attends to keys `0..=t`, exactly
//! what step `t` of decode sees in its cache), including ragged
//! `seq % block != 0` cache tails — and a fault injected into a cached K/V
//! block is detected and corrected by the EFTA decode path while the
//! unprotected reference decode visibly corrupts.

use ft_transformer_suite::attention::backend::{AttentionBackend, BackendKind};
use ft_transformer_suite::attention::decode::{causal_reference_rows, DecodeRequest};
use ft_transformer_suite::attention::kv::KvCache;
use ft_transformer_suite::num::rng::normal_tensor_f16;
use ft_transformer_suite::num::{Tensor4F16, Tensor4F32};
use ft_transformer_suite::sim::{FaultInjector, FaultSite, OpCoord, SeuInjector};

const HEADS: usize = 2;
const DIM: usize = 16;
const SCALE: f32 = 0.25; // 1/sqrt(16)

fn workload(seq: usize, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
    let q = normal_tensor_f16(seed, 1, HEADS, seq, DIM, 0.6);
    let k = normal_tensor_f16(seed + 1, 1, HEADS, seq, DIM, 0.6);
    let v = normal_tensor_f16(seed + 2, 1, HEADS, seq, DIM, 0.8);
    (q, k, v)
}

/// Single-token slice `t` of a `1 × heads × seq × dim` tensor.
fn token_row(t: &Tensor4F16, i: usize) -> Tensor4F16 {
    Tensor4F16::from_fn(1, HEADS, 1, DIM, |b, h, _, c| t.slot(b, h).get(i, c))
}

/// Run `steps` decode steps of `kind` over a fresh cache with `block`-row
/// blocks, collecting the per-step outputs as rows of a `seq × dim` tensor.
fn decode_rows(
    kind: &BackendKind,
    q: &Tensor4F16,
    k: &Tensor4F16,
    v: &Tensor4F16,
    steps: usize,
    block: usize,
) -> Tensor4F32 {
    let mut cache = KvCache::new(1, HEADS, DIM, block, 8, SCALE);
    let mut out = Tensor4F32::zeros(1, HEADS, steps, DIM);
    for t in 0..steps {
        cache.append(&token_row(k, t), &token_row(v, t));
        let qt = token_row(q, t);
        let req = DecodeRequest::new(&cache, &qt).at_step(t);
        let step_out = kind
            .try_decode(&req)
            .unwrap_or_else(|e| panic!("{kind} failed to decode step {t}: {e}"));
        assert!(
            step_out.report.clean(),
            "{kind} raised false alarms at step {t}: {:?}",
            step_out.report
        );
        for slot in 0..HEADS {
            for c in 0..DIM {
                let (b, h) = out.unflatten(slot);
                let val = step_out.o.slot_flat(slot).get(0, c);
                out.slot_mut(b, h).set(t, c, val);
            }
        }
    }
    out
}

#[test]
fn every_backend_decodes_equal_to_causal_prefill_ragged_and_even() {
    // 24 tokens in 8-row blocks (even) and 21 tokens in 8-row blocks
    // (ragged tail of 5).
    for (steps, block, label) in [
        (24usize, 8usize, "even"),
        (21, 8, "ragged"),
        (13, 16, "ragged"),
    ] {
        let (q, k, v) = workload(steps, 0xDEC0 ^ steps as u64);
        let oracle = causal_reference_rows(&q, &k, &v, SCALE);
        for name in BackendKind::NAMES {
            let kind: BackendKind = name.parse().expect("registry name parses");
            let rows = decode_rows(&kind, &q, &k, &v, steps, block);
            let tol = match kind {
                BackendKind::Efta(_) => 5e-3,
                _ => 1e-4,
            };
            let diff = rows.max_abs_diff(&oracle);
            assert!(
                diff < tol,
                "{name} decode disagrees with causal prefill on {label} \
                 (steps {steps}, block {block}): {diff} >= {tol}"
            );
        }
    }
}

#[test]
fn cached_kv_fault_corrected_by_efta_but_corrupts_reference_backend() {
    let steps = 20;
    let (q, k, v) = workload(steps, 0xFA17);
    let mut cache = KvCache::new(1, HEADS, DIM, 8, 8, SCALE);
    for t in 0..steps {
        cache.append(&token_row(&k, t), &token_row(&v, t));
    }
    let qt = token_row(&q, steps - 1);
    let efta: BackendKind = "efta-o".parse().unwrap();
    let reference: BackendKind = "reference".parse().unwrap();

    let clean_req = DecodeRequest::new(&cache, &qt).at_step(steps - 1);
    let clean = efta.decode(&clean_req);
    assert!(clean.report.clean());

    // Top-exponent-bit flip in a cached K element of slot 1, row 9, col 3 —
    // state that has been sitting in the cache for 10 steps.
    let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 9, 3, 0), 14);
    cache.expose(&seu, 0);
    assert_eq!(seu.fired(), 1, "cache exposure must hit exactly once");

    let req = DecodeRequest::new(&cache, &qt).at_step(steps - 1);
    let protected = efta.decode(&req);
    assert!(
        protected.report.cache_detected > 0,
        "EFTA decode must flag the cached-state corruption: {:?}",
        protected.report
    );
    assert!(
        protected.report.cache_corrected > 0,
        "{:?}",
        protected.report
    );
    let diff = protected.o.max_abs_diff(&clean.o);
    assert!(diff < 5e-2, "corrected output off by {diff}");

    let bare = reference.decode(&req);
    assert!(bare.report.clean(), "reference decode has no checks");
    let bare_diff = bare.o.max_abs_diff(&clean.o);
    assert!(
        bare_diff > 1e-2,
        "unprotected decode must visibly corrupt (diff {bare_diff})"
    );
}

#[test]
fn cached_v_fault_is_also_covered() {
    let steps = 12;
    let (q, k, v) = workload(steps, 0xFA18);
    let mut cache = KvCache::new(1, HEADS, DIM, 8, 8, SCALE);
    for t in 0..steps {
        cache.append(&token_row(&k, t), &token_row(&v, t));
    }
    let qt = token_row(&q, steps - 1);
    let efta: BackendKind = "efta-o".parse().unwrap();
    let req = DecodeRequest::new(&cache, &qt).at_step(steps - 1);
    let clean = efta.decode(&req);

    // V payload corruption (`which` = 1 in the exposure coordinate).
    let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 5, 11, 1), 14);
    cache.expose(&seu, 0);
    assert_eq!(seu.fired(), 1);

    let req = DecodeRequest::new(&cache, &qt).at_step(steps - 1);
    let out = efta.decode(&req);
    assert!(out.report.cache_corrected > 0, "{:?}", out.report);
    assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
}

#[test]
fn gemm_seu_inside_decode_step_is_repaired() {
    let steps = 16;
    let (q, k, v) = workload(steps, 0xFA19);
    let mut cache = KvCache::new(1, HEADS, DIM, 8, 8, SCALE);
    for t in 0..steps {
        cache.append(&token_row(&k, t), &token_row(&v, t));
    }
    let qt = token_row(&q, steps - 1);
    let efta: BackendKind = "efta-o".parse().unwrap();
    let req = DecodeRequest::new(&cache, &qt).at_step(steps - 1);
    let clean = efta.decode(&req);

    let seu = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, steps - 1, 11, 3), 30)
        .at_chain_step(7);
    let req = req.with_injector(&seu);
    let out = efta.decode(&req);
    assert_eq!(seu.fired(), 1);
    assert!(out.report.total_detected() > 0, "{:?}", out.report);
    assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
}
