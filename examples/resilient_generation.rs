//! Resilient transformer inference over the checksum-protected KV-cache
//! decode path: run a GPT-2-shaped model (scaled down) under continuous
//! soft-error bombardment — including faults landing in cache-resident
//! K/V state between steps — and compare the generated tokens against the
//! fault-free run.
//!
//! ```sh
//! cargo run --release --example resilient_generation
//! ```

use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::sim::{BerInjector, FaultInjector, FaultSite, NoFaults};
use ft_transformer_suite::transformer::{
    BackendKind, LinearProtection, ModelConfig, TransformerModel,
};

fn main() {
    // A GPT-2-shaped model, scaled for a quick demo (12 heads kept).
    // Causal, so the cached decode path and full prefill compute the same
    // function — which the smoke check below asserts.
    let cfg = ModelConfig::gpt2().scaled(192, 2);
    let prompt: Vec<u32> = (0..24).map(|i| (i * 97) % cfg.vocab as u32).collect();
    let new_tokens = 8;

    // Fault-free reference generation over the KV-cache decode path. The
    // vocab-wide LM head dominates the model's op count, so this demo
    // protects it too.
    let mut protected =
        TransformerModel::random(7, cfg, BackendKind::Efta(EftaOptions::optimized()))
            .with_causal(true);
    protected.lm_head.protection = LinearProtection::StridedAbft;
    let (reference, _) = protected.generate(&prompt, new_tokens, &NoFaults);
    println!("reference tokens:  {:?}", &reference[prompt.len()..]);

    // Smoke check: decode over the cache must equal a causal prefill. The
    // flash model shares no kernel code path with the cached EFTA decode,
    // so agreement here pins the whole prefill↔decode contract.
    let flash = TransformerModel::random(7, cfg, BackendKind::Flash).with_causal(true);
    let (prefill_logits, _) = flash.forward(&prompt, &NoFaults);
    let mut cache = flash.new_cache();
    let mut decode_logits = None;
    for &t in &prompt {
        decode_logits = Some(flash.decode_step(t, &mut cache, None, &NoFaults).0);
    }
    let decode_logits = decode_logits.expect("non-empty prompt");
    let logit_diff: f32 = decode_logits
        .row(0)
        .iter()
        .zip(prefill_logits.row(prompt.len() - 1))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    println!("prefill vs decode logit diff: {logit_diff:.2e}");
    assert!(
        logit_diff < 2e-2,
        "KV-cache decode must reproduce causal prefill logits (diff {logit_diff})"
    );
    let overhead = 100.0 * cache.checksum_bytes() as f64 / cache.size_bytes() as f64;
    println!(
        "cache checksum metadata: {overhead:.1}% of FP16 payload at head dim 16 \
         (shrinks with head dim; the paper's dim-64 heads sit near 50%)\n"
    );

    // Soft errors across GEMM accumulations *and* cache-resident K/V state.
    // Exponent-range flips in the GEMMs: catastrophic magnitude, the
    // failures that destroy inference; uniform flips in the cache, the
    // long-residency corruption a serving system accumulates.
    let make_injector = |seed: u64| {
        BerInjector::new(seed, 3e-7)
            .with_sites(&[
                FaultSite::GemmIAccum,
                FaultSite::GemmIiAccum,
                FaultSite::LinearAccum,
                FaultSite::KvCache,
            ])
            .with_bit_range(27, 32)
    };

    // Protected model under fire.
    let inj = make_injector(99);
    let (tokens_ft, report) = protected.generate(&prompt, new_tokens, &inj);
    println!(
        "protected + BER:   {:?}  (faults fired {}, detected {}, repaired {})",
        &tokens_ft[prompt.len()..],
        inj.fired(),
        report.total_detected(),
        report.total_repaired()
    );

    // Unprotected model under the same fire. Its reference decode reads
    // the cache raw and runs no GEMM checksums; note the checksummed store
    // itself still heals its trailing block at each append (a property of
    // the storage layer, not the kernel), so what this run demonstrates is
    // the exposure of the unprotected *compute* path.
    let mut bare = TransformerModel::random(7, cfg, BackendKind::Flash).with_causal(true);
    for b in &mut bare.blocks {
        b.mha.wq.protection = LinearProtection::None;
        b.mha.wk.protection = LinearProtection::None;
        b.mha.wv.protection = LinearProtection::None;
        b.mha.wo.protection = LinearProtection::None;
        b.ffn.up.protection = LinearProtection::None;
        b.ffn.down.protection = LinearProtection::None;
    }
    let inj2 = make_injector(99);
    let (tokens_bare, _) = bare.generate(&prompt, new_tokens, &inj2);
    println!(
        "unprotected + BER: {:?}  (faults fired {})",
        &tokens_bare[prompt.len()..],
        inj2.fired()
    );

    let ft_match = tokens_ft == reference;
    let bare_match = tokens_bare == reference;
    println!("\nprotected output matches fault-free: {ft_match}");
    println!("unprotected output matches fault-free: {bare_match}");
}
