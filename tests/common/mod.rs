//! Helpers shared by the serving and eviction equivalence suites.

#![allow(dead_code)] // not every test crate uses every helper

use ft_transformer_suite::sim::NoFaults;
use ft_transformer_suite::transformer::{ModelConfig, TransformerModel};

/// The suites' tiny 2-layer model shape.
pub fn tiny_config(name: &'static str, max_seq: usize) -> ModelConfig {
    ModelConfig {
        name,
        layers: 2,
        heads: 4,
        hidden: 32,
        ffn_dim: 64,
        vocab: 101,
        max_seq,
    }
}

/// Deterministic prompt of `len` tokens, varied by `salt`.
pub fn prompt(len: usize, salt: usize) -> Vec<u32> {
    (0..len)
        .map(|t| ((t * 13 + salt * 29) % 101) as u32)
        .collect()
}

/// Token-at-a-time oracle: the explicit `decode_step` loop (every token,
/// prompt included, one step; greedy sampling) — the pre-scheduler serving
/// strategy whose per-step logits the batched paths must reproduce. Every
/// step attends under `window` (`None` = the whole history), so it doubles
/// as the windowed oracle.
pub fn stepwise_generate(
    model: &TransformerModel,
    prompt: &[u32],
    new_tokens: usize,
    window: Option<usize>,
) -> Vec<u32> {
    let mut cache = model.new_cache();
    let mut tokens = prompt.to_vec();
    let mut logits = None;
    for &t in prompt {
        let (l, _) = model.decode_step(t, &mut cache, window, &NoFaults);
        logits = Some(l);
    }
    for i in 0..new_tokens {
        if tokens.len() >= model.config.max_seq {
            break;
        }
        let row = logits.as_ref().expect("prompt fed");
        let next = row
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap();
        tokens.push(next);
        if i + 1 < new_tokens && tokens.len() < model.config.max_seq {
            let (l, _) = model.decode_step(next, &mut cache, window, &NoFaults);
            logits = Some(l);
        }
    }
    tokens
}
