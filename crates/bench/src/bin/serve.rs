//! Speculative-decoding serving bench: draft-then-verify decode with
//! checksum-protected rollback at forced draft accept rates, against plain
//! scheduled decode ([`TransformerModel::serve`]) and against decoding the
//! same request with the pre-scheduler API — a token-at-a-time
//! `decode_step` loop, which pays the vocab-wide LM head on *every* prompt
//! token because the step API always produces logits.
//!
//! ```sh
//! cargo run --release -p ft-bench --bin serve            # prompt 192 + 96 tokens, 5 rounds
//! cargo run --release -p ft-bench --bin serve -- --smoke # CI: prompt 96 + 48 tokens, 3 rounds
//! ```
//!
//! Its two speed gates (≥ 1.3× plain at accept ≥ 0.75, ≥ 1.0× the
//! sequential baseline at accept 0) are wall-clock ratios no test holds.
//! Every other serving property — scheduled tokens equal sequential ones,
//! per-stream fault attribution, bounded memory, priority latency,
//! recovery under a BER ladder — is pinned by the test suites; see
//! `docs/benches.md` for where each assertion lives.

use ft_bench::paper::{Cell, Unit};
use ft_bench::{banner, time_arms, HarnessArgs, TextTable};
use ft_core::efta::EftaOptions;
use ft_sim::NoFaults;
use ft_transformer::{
    BackendKind, DraftSource, GenerationRequest, ModelConfig, SchedulerConfig, SpeculationPolicy,
    TransformerModel,
};
use std::convert::Infallible;

/// Index of the first largest logit (the rows here hold no NaN).
fn argmax(row: &[f32]) -> u32 {
    (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best }) as u32
}

/// The pre-scheduler serving strategy: requests decoded one after another,
/// every token — prompt tokens included — fed through one `decode_step`
/// (which runs the full LM head, the only way that API yields logits).
fn sequential_generate(model: &TransformerModel, prompt: &[u32], new_tokens: usize) -> Vec<u32> {
    let mut cache = model.new_cache();
    let mut tokens = prompt.to_vec();
    let end = (prompt.len() + new_tokens).min(model.config.max_seq);
    for fed in 0..end - 1 {
        let (logits, _) = model.decode_step(tokens[fed], &mut cache, &NoFaults);
        if fed + 1 == tokens.len() {
            tokens.push(argmax(logits.row(0)));
        }
    }
    tokens
}

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "serve — speculative decode vs plain scheduled and sequential decode",
        &args,
    );
    spec_sweep(&args);
}

/// One decode run's result: tokens, drafted, accepted.
type Run = (Vec<u32>, u64, u64);

/// The speculative-decoding sweep: draft-then-verify decode with
/// checksum-protected rollback, at forced accept rates.
///
/// Greedy decode is deterministic, so the plain scheduled run doubles as
/// the token oracle; a `DraftSource::Scripted` built from that oracle with
/// an evenly-spaced fraction of entries corrupted forces each accept rate
/// exactly. The model is sized to be verification-dominated (long history,
/// modest vocab): the speedup mechanism is the fused multi-row sweep
/// verifying each attended cache block once per tile. The LM head runs
/// once per sweep over every draft row (rows past a rejected draft are
/// computed and dropped); the modest vocab keeps that work small next to
/// verification.
///
/// Hard asserts:
/// * emitted tokens bit-identical to plain decode at every forced rate
///   (the rollback contract — rejected drafts leave no trace);
/// * ≥ 1.3× plain scheduled decode at forced accept rates ≥ 0.75;
/// * the accept-rate-0 floor: with every draft rejected, zero-accept
///   backoff converges the stream to plain decode, which must stay
///   ≥ 1.0× the plain-decode (sequential `decode_step`) baseline — the
///   same-engine ratio is printed alongside, a few percent under 1.0 by
///   exactly the pre-backoff verify sweeps' extra rows (the bounded,
///   self-limiting cost of trying speculation on an adversarial stream).
fn spec_sweep(args: &HarnessArgs) {
    println!("\nspeculative decode (draft/verify/rollback, forced accept rates):");
    // Generation-heavy split: the timed region covers the whole request,
    // so the prefill (identical in both paths) must not dilute the
    // decode-phase speedup being gated.
    let (prompt_len, gen_tokens) = if args.smoke { (96, 48) } else { (192, 96) };
    let draft_len = 4usize;
    // Verification-dominated geometry: long attended history, small vocab,
    // ragged 16-row cache blocks (the rollback boundary case).
    let cfg = ModelConfig {
        name: "spec-bench",
        layers: 2,
        heads: 4,
        hidden: 64,
        ffn_dim: 96,
        vocab: 131,
        max_seq: 384,
    };
    let model = TransformerModel::random(21, cfg, BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(16);
    let prompt: Vec<u32> = (0..prompt_len)
        .map(|t| ((t * 89 + 17) % cfg.vocab) as u32)
        .collect();
    let sched = SchedulerConfig {
        max_active: 4,
        prefill_chunk: 16,
        ..Default::default()
    };
    let run_with = |speculation: Option<SpeculationPolicy>| -> Run {
        let mut session = model.serve_with(sched);
        let mut req = GenerationRequest::new(prompt.clone(), gen_tokens);
        if let Some(policy) = speculation {
            req = req.with_speculation(policy);
        }
        session.submit_request(req);
        let f = session.run(&NoFaults).into_iter().next().expect("finished");
        (f.tokens, f.spec_drafted, f.spec_accepted)
    };
    let plain = || run_with(None);
    let sequential = || -> Run { (sequential_generate(&model, &prompt, gen_tokens), 0, 0) };

    // Greedy plain decode is the token oracle the scripts are built from.
    let (plain_tokens, _, _) = plain();
    let oracle: Vec<u32> = plain_tokens[prompt_len..].to_vec();

    let mut table = TextTable::new(&[
        "forced accept",
        "drafted",
        "accepted",
        "spec (ms)",
        "plain (ms)",
        "sequential (ms)",
        "speedup",
        "vs sequential",
    ]);
    let mut floor_ratio = None;
    for &rate in &[0.0f64, 0.5, 0.75, 1.0] {
        // Corrupt an evenly-spaced (1 - rate) fraction of the scripted
        // drafts; a corrupted entry can never match the greedy sample, so
        // the verify sweep rejects exactly there and rolls the rest back.
        let script: Vec<u32> = oracle
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let q = 1.0 - rate;
                let miss = ((i + 1) as f64 * q).floor() > (i as f64 * q).floor();
                if miss {
                    (t + 1 + (i % 7) as u32) % cfg.vocab as u32
                } else {
                    t
                }
            })
            .collect();
        let policy = SpeculationPolicy::new(draft_len)
            .with_source(DraftSource::Scripted(script))
            .with_backoff(Some(2));
        let spec = || run_with(Some(policy.clone()));
        // Plain, sequential and speculative runs alternate, so every gated
        // ratio compares runs made under the same host load; every round
        // must return its arm's first result.
        let mut first: [Option<Run>; 3] = Default::default();
        let arms = time_arms(args.rounds(), 3, |i| {
            let got = match i {
                0 => plain(),
                1 => sequential(),
                _ => spec(),
            };
            let first = first[i].get_or_insert_with(|| got.clone());
            assert_eq!(&got, first, "timing rounds must be deterministic");
            Ok::<_, Infallible>(got)
        });
        let [Ok((_, t_plain)), Ok(((seq_tokens, _, _), t_seq)), Ok(((tokens, drafted, accepted), t_spec))] =
            <[_; 3]>::try_from(arms).expect("three arms");
        assert_eq!(
            seq_tokens, plain_tokens,
            "plain scheduled decode must match the sequential baseline"
        );
        assert_eq!(
            tokens, plain_tokens,
            "forced accept {rate}: speculative decode must be bit-identical to plain decode"
        );
        // The gates read each arm's fastest round.
        let plain_tps = gen_tokens as f64 / t_plain.min;
        let seq_tps = gen_tokens as f64 / t_seq.min;
        let spec_tps = gen_tokens as f64 / t_spec.min;
        let speedup = spec_tps / plain_tps;
        if rate >= 0.75 {
            assert!(
                spec_tps >= 1.3 * plain_tps,
                "forced accept {rate}: speculation must beat plain scheduled decode by >= 1.3x \
                 (got {speedup:.2}x)"
            );
        }
        if rate == 0.0 {
            assert_eq!(accepted, 0, "rate 0: every draft must be rejected");
            assert!(
                spec_tps >= seq_tps,
                "accept-rate-0 floor: zero-accept speculation ({spec_tps:.1} tok/s) must stay \
                 >= 1.0x the plain-decode baseline ({seq_tps:.1} tok/s)"
            );
            floor_ratio = Some(t_plain.speedup(t_spec));
        }
        if rate == 1.0 {
            assert_eq!(accepted, drafted, "rate 1: every draft must verify");
        }
        table.row(&[
            format!("{rate:.2}"),
            format!("{drafted}"),
            format!("{accepted}"),
            Cell::Time(t_spec).to_string(),
            Cell::Time(t_plain).to_string(),
            Cell::Time(t_seq).to_string(),
            Cell::Num(t_plain.speedup(t_spec), Unit::Times).to_string(),
            Cell::Num(t_seq.speedup(t_spec), Unit::Times).to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "draft_len {draft_len}, zero-accept backoff after 2 sweeps; prompt {prompt_len}, \
         {gen_tokens} new tokens; ms min±IQR over {} rounds, arms alternating",
        args.rounds()
    );
    println!(
        "hard-asserted on the minimums: bit-identity at every rate, >= 1.3x plain at accept \
         >= 0.75, >= 1.0x plain-decode baseline at accept 0 (same-engine ratio {})",
        Cell::Num(floor_ratio.expect("rate 0 measured"), Unit::Times)
    );
}
