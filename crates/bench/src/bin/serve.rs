//! Speculative-decoding serving bench: draft-then-verify decode with
//! checksum-protected rollback at forced draft accept rates, against plain
//! scheduled decode ([`TransformerModel::serve`]) and against decoding the
//! same request with the pre-scheduler API — a token-at-a-time
//! `decode_step` loop, which pays the vocab-wide LM head on *every* prompt
//! token because the step API always produces logits.
//!
//! ```sh
//! cargo run --release -p ft-bench --bin serve            # prompt 192 + 96 tokens, min of 3
//! cargo run --release -p ft-bench --bin serve -- --smoke # CI: prompt 96 + 48 tokens, min of 2
//! ```
//!
//! Its two speed gates (≥ 1.3× plain at accept ≥ 0.75, ≥ 1.0× the
//! sequential baseline at accept 0) are wall-clock ratios no test holds.
//! Every other serving property — scheduled tokens equal sequential ones,
//! per-stream fault attribution, bounded memory, priority latency,
//! recovery under a BER ladder — is pinned by the test suites; see
//! `docs/benches.md` for where each assertion lives.

use ft_bench::{banner, HarnessArgs, TextTable};
use ft_core::efta::EftaOptions;
use ft_sim::NoFaults;
use ft_transformer::{
    BackendKind, DraftSource, GenerationRequest, ModelConfig, SchedulerConfig, SpeculationPolicy,
    TransformerModel,
};
use std::time::Instant;

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
    spec_sweep(args.smoke);
}

/// One decode run's result: tokens, drafted, accepted.
type Run = (Vec<u32>, u64, u64);

/// Run each of `runs` `reps` times, interleaved (one rep of each in turn,
/// so both sides of a ratio see the same host load), hard-asserting
/// determinism, and return each one's result with its minimum wall time
/// (min-of-reps filters scheduler noise).
fn timed_interleaved<const N: usize>(reps: u32, runs: [&dyn Fn() -> Run; N]) -> [(Run, f64); N] {
    let mut best: [(Option<Run>, f64); N] = std::array::from_fn(|_| (None, f64::INFINITY));
    for _ in 0..reps {
        for (f, (first, t_min)) in runs.iter().zip(&mut best) {
            let t0 = Instant::now();
            let got = f();
            *t_min = t_min.min(t0.elapsed().as_secs_f64());
            let first = first.get_or_insert_with(|| got.clone());
            assert_eq!(&got, first, "timing reps must be deterministic");
        }
    }
    best.map(|(run, t)| (run.expect("reps >= 1"), t))
}

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
fn spec_sweep(smoke: bool) {
    println!("\nspeculative decode (draft/verify/rollback, forced accept rates):");
    // Generation-heavy split: the timed region covers the whole request,
    // so the prefill (identical in both paths) must not dilute the
    // decode-phase speedup being gated.
    let (prompt_len, gen_tokens, reps) = if smoke { (96, 48, 2) } else { (192, 96, 3) };
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
        "spec tok/s",
        "plain tok/s",
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
        // Plain, sequential and speculative reps alternate, so every gated
        // ratio compares runs made under the same host load.
        let [(_, t_plain), ((seq_tokens, _, _), t_seq), ((tokens, drafted, accepted), t_spec)] =
            timed_interleaved(reps, [&plain, &sequential, &spec]);
        assert_eq!(
            seq_tokens, plain_tokens,
            "plain scheduled decode must match the sequential baseline"
        );
        assert_eq!(
            tokens, plain_tokens,
            "forced accept {rate}: speculative decode must be bit-identical to plain decode"
        );
        let plain_tps = gen_tokens as f64 / t_plain;
        let seq_tps = gen_tokens as f64 / t_seq;
        let spec_tps = gen_tokens as f64 / t_spec;
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
            floor_ratio = Some(speedup);
        }
        if rate == 1.0 {
            assert_eq!(accepted, drafted, "rate 1: every draft must verify");
        }
        table.row(&[
            format!("{rate:.2}"),
            format!("{drafted}"),
            format!("{accepted}"),
            format!("{spec_tps:.1}"),
            format!("{plain_tps:.1}"),
            format!("{speedup:.2}x"),
            format!("{:.2}x", spec_tps / seq_tps),
        ]);
    }
    print!("{}", table.render());
    println!(
        "draft_len {draft_len}, zero-accept backoff after 2 sweeps; prompt {prompt_len}, \
         {gen_tokens} new tokens, min of {reps} interleaved reps each"
    );
    println!(
        "hard-asserted: bit-identity at every rate, >= 1.3x plain at accept >= 0.75, \
         >= 1.0x plain-decode baseline at accept 0 (same-engine ratio {:.2}x)",
        floor_ratio.expect("rate 0 measured")
    );
}
