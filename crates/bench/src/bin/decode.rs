//! Decode-path benchmark: tokens/sec of KV-cache incremental decode versus
//! prefill-per-token generation, plus the fault-tolerance overhead and
//! coverage of the EFTA decode pipeline.
//!
//! ```sh
//! cargo run --release -p ft-bench --bin decode            # scaled model
//! cargo run --release -p ft-bench --bin decode -- --smoke # CI smoke run
//! ```
//!
//! Reported:
//! * prefill-per-token generation (the pre-KV-cache path, O(seq) prefills);
//! * cached decode with the unprotected flash/reference path;
//! * cached decode with EFTA protection (checksummed reads + protected
//!   arithmetic), its overhead %, and its behaviour under a cache-resident
//!   BER campaign.

use ft_bench::paper::{Cell, Unit};
use ft_bench::{banner, time_arms, HarnessArgs, TextTable};
use ft_core::efta::EftaOptions;
use ft_sim::{BerInjector, FaultInjector, FaultSite, NoFaults};
use ft_transformer::{BackendKind, ModelConfig, TransformerModel};
use std::convert::Infallible;

fn main() {
    let args = HarnessArgs::parse();
    let smoke = args.smoke;
    banner("decode — KV-cache decode vs prefill-per-token", &args);

    // A GPT-2-shaped model scaled to keep wall-clock sane; causal so the
    // two generation paths compute the same function.
    let (hidden, layers, prompt_len, new_tokens) = if smoke {
        (96, 2, 8, 8)
    } else {
        (192, 2, 16, 48)
    };
    let cfg = ModelConfig::gpt2().scaled(hidden, layers);
    let prompt: Vec<u32> = (0..prompt_len)
        .map(|i| ((i * 97) % cfg.vocab) as u32)
        .collect();

    let flash = TransformerModel::random(11, cfg, BackendKind::Flash).with_causal(true);
    let efta = TransformerModel::random(11, cfg, BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true);

    // Correctness gate before timing anything.
    let (tokens_prefill, _) = flash.generate_prefill(&prompt, new_tokens, &NoFaults);
    let (tokens_cached, _) = flash.generate(&prompt, new_tokens, &NoFaults);
    assert_eq!(
        tokens_prefill, tokens_cached,
        "cached decode must reproduce prefill-per-token generation"
    );

    let paths = [
        "prefill-per-token (flash)",
        "kv-cache decode (flash)",
        "kv-cache decode (efta-o)",
    ];
    let arms = time_arms(args.rounds(), paths.len(), |i| {
        Ok::<_, Infallible>(match i {
            0 => flash.generate_prefill(&prompt, new_tokens, &NoFaults),
            1 => flash.generate(&prompt, new_tokens, &NoFaults),
            _ => efta.generate(&prompt, new_tokens, &NoFaults),
        })
    });
    let t: Vec<_> = arms.into_iter().map(|Ok((_, t))| t).collect();

    println!(
        "ms per generation: min±IQR over {} rounds, paths alternating",
        args.rounds()
    );
    let mut table = TextTable::new(&["path", "ms", "tokens/s", "vs prefill", "ft overhead"]);
    for (i, path) in paths.iter().enumerate() {
        let vs_prefill = match i {
            0 => Cell::Text("1.00x".into()),
            _ => Cell::Num(t[0].speedup(t[i]), Unit::Times),
        };
        let ft = match i {
            2 => Cell::Num(t[2].overhead(t[1]), Unit::Pct),
            _ => Cell::Text("-".into()),
        };
        table.row(&[
            path.to_string(),
            Cell::Time(t[i]).to_string(),
            format!("{:.1}", new_tokens as f64 / t[i].min),
            vs_prefill.to_string(),
            ft.to_string(),
        ]);
    }
    print!("{}", table.render());

    // Cache memory accounting.
    let mut cache = efta.new_cache();
    for &t in &prompt {
        let _ = efta.decode_step(t, &mut cache, &NoFaults);
    }
    println!(
        "\ncache after {} tokens: {} payload bytes + {} checksum bytes ({:.1}%)",
        prompt.len(),
        cache.size_bytes(),
        cache.checksum_bytes(),
        100.0 * cache.checksum_bytes() as f64 / cache.size_bytes() as f64
    );

    // Fault-coverage: bombard cache-resident state and the decode GEMMs,
    // count detections and compare tokens against the fault-free run.
    let (trials, ber) = if smoke { (2, 3e-4) } else { (8, 3e-5) };
    let (clean_tokens, _) = efta.generate(&prompt, new_tokens, &NoFaults);
    let mut matched = 0u64;
    let mut fired = 0u64;
    let mut detected = 0u64;
    for trial in 0..trials {
        let inj = BerInjector::new(9000 + trial, ber)
            .with_sites(&[
                FaultSite::KvCache,
                FaultSite::GemmIAccum,
                FaultSite::GemmIiAccum,
            ])
            .with_bit_range(27, 32);
        let (tokens, rep) = efta.generate(&prompt, new_tokens, &inj);
        fired += inj.fired();
        detected += rep.total_detected();
        matched += u64::from(tokens == clean_tokens);
    }
    println!(
        "fault campaign: {trials} trials, {fired} faults fired, {detected} detected, \
         {matched}/{trials} outputs fault-free"
    );
}
