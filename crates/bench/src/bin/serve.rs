//! Serving benchmark: aggregate tokens/sec of the continuous-batching
//! scheduler ([`TransformerModel::serve`]) versus decoding the same
//! streams sequentially with the pre-scheduler API — one request at a
//! time through a token-at-a-time `decode_step` loop, which pays the
//! vocab-wide LM head on *every* prompt token because the step API always
//! produces logits.
//!
//! ```sh
//! cargo run --release -p ft-bench --bin serve            # 1/4/16/64 streams
//! cargo run --release -p ft-bench --bin serve -- --smoke # CI smoke run
//! cargo run --release -p ft-bench --bin serve -- --smoke --bounded-only
//! #                       ^ just the bounded-memory (sliding-window) sweep
//! cargo run --release -p ft-bench --bin serve -- --smoke --recovery-only
//! #                       ^ just the fault-recovery (auto re-prefill) sweep
//! cargo run --release -p ft-bench --bin serve -- --smoke --latency-only
//! #                       ^ just the priority-scheduling latency sweep
//! cargo run --release -p ft-bench --bin serve -- --smoke --spec-only
//! #                       ^ just the speculative draft/verify/rollback sweep
//! ```
//!
//! Reported, per stream count, over a mixed-prompt-length workload:
//! * sequential decode (PR2-style `decode_step` loop per request);
//! * scheduled decode (shared batched EFTA sweeps, chunked prefill,
//!   LM head only on sampled rows) and the speedup versus sequential;
//! * a per-stream fault-attribution campaign: cache-resident BER with the
//!   detected/corrected counts broken down by stream.
//!
//! Acceptance target: ≥ 2× aggregate tokens/sec at 16 mixed-length
//! streams versus sequential decode. On a single core the win is
//! algorithmic (prefill chunks amortise per-token overhead and skip the
//! LM head on interior prompt rows); with more cores the shared fan-out
//! additionally widens the parallel section across streams.
//!
//! The bounded-memory sweep (also standalone via `--bounded-only`) runs
//! the same mixed workload with longer generations through a sliding
//! window (`TransformerModel::with_window`): peak cache bytes must
//! flatten versus the unbounded run at ≤ 10% aggregate tokens/sec cost,
//! and a byte-budget session (`SchedulerConfig::memory_budget`) must
//! throttle concurrency while still completing every stream.
//!
//! The speculative sweep (standalone via `--spec-only`) forces several
//! draft accept rates with scripted draft sources built from the greedy
//! oracle and reports tokens/sec versus plain scheduled decode and versus
//! the sequential baseline. Hard asserts: emitted tokens bit-identical to
//! plain decode at every rate, ≥ 1.3× plain scheduled decode at forced
//! accept-rate ≥ 0.75, and the accept-rate-0 floor — zero-accept
//! speculation (backoff converging to plain decode) must stay ≥ 1.0× the
//! plain-decode baseline.
//!
//! The latency sweep (standalone via `--latency-only`) drives the
//! push-based one-worker `Fleet` with a bursty mixed-class trace — a wall of long
//! `Batch` generations, then `Latency`/`Normal` arrivals mid-flight — and
//! reports p50/p99 time-to-first-token and mean inter-token gap per
//! priority class, for the priority+preemption run and a FIFO
//! single-queue baseline. Hard assert: `Latency`-class p99 TTFT beats
//! `Batch`-class under priority scheduling.

use ft_bench::{banner, has_flag, HarnessArgs, TextTable};
use ft_core::efta::EftaOptions;
use ft_core::protect::DEFAULT_APPROX_TOL;
use ft_sim::{BerInjector, FaultInjector, FaultSite, NoFaults};
use ft_transformer::{
    BackendKind, DraftSource, EngineConfig, EngineEvent, FinishReason, Fleet, FleetConfig,
    GenerationRequest, ModelConfig, Priority, ProtectionLevel, RecoveryPolicy, SchedulerConfig,
    SpeculationPolicy, TransformerModel,
};
use std::time::{Duration, Instant};

/// Index of the largest logit.
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best as u32
}

/// The pre-scheduler serving strategy: requests decoded one after another,
/// every token — prompt tokens included — fed through one `decode_step`
/// (which runs the full LM head, the only way that API yields logits).
fn sequential_generate(model: &TransformerModel, prompt: &[u32], new_tokens: usize) -> Vec<u32> {
    let mut cache = model.new_cache();
    let mut tokens = prompt.to_vec();
    let mut logits = None;
    for &t in prompt {
        let (l, _) = model.decode_step(t, &mut cache, &NoFaults);
        logits = Some(l);
    }
    for i in 0..new_tokens {
        if tokens.len() >= model.config.max_seq {
            break;
        }
        let next = argmax(logits.as_ref().expect("prompt fed").row(0));
        tokens.push(next);
        if i + 1 < new_tokens && tokens.len() < model.config.max_seq {
            let (l, _) = model.decode_step(next, &mut cache, &NoFaults);
            logits = Some(l);
        }
    }
    tokens
}

fn main() {
    let args = HarnessArgs::parse();
    let smoke = args.smoke;
    banner(
        "serve — continuous-batching scheduler vs sequential decode",
        &args,
    );

    // GPT-2-shaped (12 heads, full 50k vocab) scaled to keep wall-clock
    // sane; causal so decode and prefill compute the same function.
    let (hidden, layers, new_tokens, prompt_cycle, counts): (
        usize,
        usize,
        usize,
        Vec<usize>,
        Vec<usize>,
    ) = if smoke {
        (96, 2, 3, vec![12, 6, 9, 4], vec![1, 4])
    } else {
        (96, 2, 8, vec![64, 32, 16, 8], vec![1, 4, 16, 64])
    };
    let cfg = ModelConfig::gpt2().scaled(hidden, layers);
    let model = TransformerModel::random(11, cfg, BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true);

    let prompts_for = |n: usize| -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let len = prompt_cycle[i % prompt_cycle.len()];
                (0..len)
                    .map(|t| ((t * 97 + i * 131) % cfg.vocab) as u32)
                    .collect()
            })
            .collect()
    };
    let sched_cfg = SchedulerConfig {
        max_active: 16,
        prefill_chunk: 16,
        ..Default::default()
    };

    if has_flag("--bounded-only") {
        bounded_memory_sweep(&model, &prompts_for, sched_cfg, smoke);
        return;
    }
    if has_flag("--recovery-only") {
        recovery_sweep(&model, &prompts_for, sched_cfg, smoke);
        return;
    }
    if has_flag("--latency-only") {
        latency_sweep(&model, &prompts_for, smoke);
        return;
    }
    if has_flag("--spec-only") {
        spec_sweep(smoke);
        return;
    }

    let mut table = TextTable::new(&[
        "streams",
        "prompt toks",
        "sequential tok/s",
        "scheduled tok/s",
        "speedup",
    ]);
    let mut speedup_at_16 = None;
    for &n in &counts {
        let prompts = prompts_for(n);
        let prompt_total: usize = prompts.iter().map(Vec::len).sum();
        let generated = n * new_tokens;

        let t0 = Instant::now();
        let seq_tokens: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| sequential_generate(&model, p, new_tokens))
            .collect();
        let t_seq = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut session = model.serve_with(sched_cfg);
        let ids: Vec<_> = prompts
            .iter()
            .map(|p| session.submit_request(GenerationRequest::new(p.clone(), new_tokens)))
            .collect();
        let finished = session.run(&NoFaults);
        let t_sched = t0.elapsed().as_secs_f64();

        // Correctness gate: the scheduler must reproduce sequential decode
        // token for token on every stream.
        for (i, id) in ids.iter().enumerate() {
            let f = finished
                .iter()
                .find(|f| f.id == *id)
                .expect("stream finished");
            assert_eq!(
                f.tokens, seq_tokens[i],
                "stream {i}: scheduled decode diverged from sequential"
            );
        }

        let speedup = t_seq / t_sched;
        if n == 16 {
            speedup_at_16 = Some(speedup);
        }
        table.row(&[
            format!("{n}"),
            format!("{prompt_total}"),
            format!("{:.1}", generated as f64 / t_seq),
            format!("{:.1}", generated as f64 / t_sched),
            format!("{speedup:.2}x"),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\ntokens/s counts sampled (new) tokens; both paths also process the \
         prompts ({} new tokens per stream, prompt lengths cycling {:?})",
        new_tokens, prompt_cycle
    );
    if let Some(s) = speedup_at_16 {
        println!(
            "speedup at 16 mixed-length streams: {s:.2}x (acceptance target >= 2x) -> {}",
            if s >= 2.0 { "PASS" } else { "FAIL" }
        );
    }

    // Per-stream fault attribution: cache-resident BER over a small batch
    // with a different graded protection level per stream; every stream
    // keeps its own detected/corrected/tolerated ledger, and tokens match
    // the (same-level) clean run wherever verification still corrects.
    println!("\nper-stream fault attribution (cache-resident BER, mixed protection):");
    let n = 4;
    let prompts = prompts_for(n);
    let mix = [
        ProtectionLevel::Full,
        ProtectionLevel::Lazy,
        ProtectionLevel::Approximate {
            tol: DEFAULT_APPROX_TOL,
        },
        ProtectionLevel::Raw,
    ];
    let mut clean_session = model.serve_with(sched_cfg);
    for (i, p) in prompts.iter().enumerate() {
        clean_session.submit_request(
            GenerationRequest::new(p.clone(), new_tokens).with_protection(mix[i % mix.len()]),
        );
    }
    let clean = clean_session.run(&NoFaults);
    let ber = if smoke { 2e-4 } else { 5e-5 };
    let inj = BerInjector::new(4242, ber).with_sites(&[FaultSite::KvCache]);
    let mut session = model.serve_with(sched_cfg);
    for (i, p) in prompts.iter().enumerate() {
        session.submit_request(
            GenerationRequest::new(p.clone(), new_tokens).with_protection(mix[i % mix.len()]),
        );
    }
    let finished = session.run(&inj);
    let mut table = TextTable::new(&[
        "stream",
        "protection",
        "cache detected",
        "corrected",
        "tolerated",
        "finish",
        "tokens ok",
    ]);
    for (f, c) in finished.iter().zip(&clean) {
        table.row(&[
            format!("{}", f.id),
            format!("{}", f.protection),
            format!("{}", f.attention.cache_detected),
            format!("{}", f.attention.cache_corrected),
            format!("{}", f.attention.cache_tolerated),
            format!("{:?}", f.finish),
            format!("{}", f.tokens == c.tokens),
        ]);
    }
    print!("{}", table.render());
    println!(
        "faults fired {}, attributed per stream: {}",
        inj.fired(),
        finished
            .iter()
            .map(|f| f.attention.cache_detected)
            .sum::<u64>()
    );

    // In smoke (CI) mode the bounded, recovery, and latency sweeps run as
    // their own steps via `--bounded-only` / `--recovery-only` /
    // `--latency-only`; skipping them here keeps the CI smokes disjoint.
    if !smoke {
        bounded_memory_sweep(&model, &prompts_for, sched_cfg, smoke);
        recovery_sweep(&model, &prompts_for, sched_cfg, smoke);
        latency_sweep(&model, &prompts_for, smoke);
        spec_sweep(smoke);
    }
}

/// Run `f` `reps` times, hard-asserting determinism, and return its result
/// with the minimum wall time (min-of-reps filters scheduler noise).
fn timed<R: PartialEq + std::fmt::Debug>(reps: u32, f: impl Fn() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    let mut best = t0.elapsed().as_secs_f64();
    for _ in 1..reps {
        let t0 = Instant::now();
        let again = f();
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(again, out, "timing reps must be deterministic");
    }
    (out, best)
}

/// The speculative-decoding sweep (standalone via `--spec-only`):
/// draft-then-verify decode with checksum-protected rollback, at forced
/// accept rates.
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
    let run_with = |speculation: Option<SpeculationPolicy>| {
        let mut session = model.serve_with(sched);
        let mut req = GenerationRequest::new(prompt.clone(), gen_tokens);
        if let Some(policy) = speculation {
            req = req.with_speculation(policy);
        }
        session.submit_request(req);
        let f = session.run(&NoFaults).into_iter().next().expect("finished");
        (f.tokens, f.spec_drafted, f.spec_accepted)
    };

    let ((plain_tokens, _, _), t_plain) = timed(reps, || run_with(None));
    let oracle: Vec<u32> = plain_tokens[prompt_len..].to_vec();
    let (seq_tokens, t_seq) = timed(reps, || sequential_generate(&model, &prompt, gen_tokens));
    assert_eq!(
        seq_tokens, plain_tokens,
        "plain scheduled decode must match the sequential baseline"
    );
    let plain_tps = gen_tokens as f64 / t_plain;
    let seq_tps = gen_tokens as f64 / t_seq;

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
        let ((tokens, drafted, accepted), t_spec) = timed(reps, || run_with(Some(policy.clone())));
        assert_eq!(
            tokens, plain_tokens,
            "forced accept {rate}: speculative decode must be bit-identical to plain decode"
        );
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
         {gen_tokens} new tokens, min of {reps} reps"
    );
    println!(
        "hard-asserted: bit-identity at every rate, >= 1.3x plain at accept >= 0.75, \
         >= 1.0x plain-decode baseline at accept 0 (same-engine ratio {:.2}x)",
        floor_ratio.expect("rate 0 measured")
    );
}

/// The fault-recovery serving sweep: cache-resident BER high enough to
/// poison caches (aliased multi-bit hits that checksum location cannot
/// untangle), with every stream requesting
/// `RecoveryPolicy::ReprefillBounded` — the engine drops poisoned caches,
/// replays prompt + emitted tokens through chunked prefill, and aborts
/// streams whose damage keeps coming back. Hard asserts: every stream
/// finishes (recovered, clean, or aborted — never hung), and the BER
/// ladder's top rung actually exercises recovery.
fn recovery_sweep(
    model: &TransformerModel,
    prompts_for: &dyn Fn(usize) -> Vec<Vec<u32>>,
    sched_cfg: SchedulerConfig,
    smoke: bool,
) {
    println!("\nfault-recovery serve (auto re-prefill, bounded retries):");
    let (n, gen_tokens, max_attempts, bers): (usize, usize, u32, Vec<f64>) = if smoke {
        (4, 6, 2, vec![2e-3, 8e-3])
    } else {
        (8, 12, 3, vec![5e-4, 2e-3, 8e-3])
    };
    // Small blocks keep ragged (launder-on-append) windows open; the
    // recovery trigger also fires off the EFTA read path's live
    // uncorrectable detections in full blocks.
    let model = model.clone().with_cache_block(16);
    let prompts = prompts_for(n);

    // Undamaged oracle tokens per stream (greedy decode is deterministic).
    let mut clean_session = model.serve_with(sched_cfg);
    for p in &prompts {
        clean_session.submit_request(GenerationRequest::new(p.clone(), gen_tokens));
    }
    let clean = clean_session.run(&NoFaults);

    let mut table = TextTable::new(&[
        "cache BER",
        "faults",
        "poison events",
        "recoveries",
        "recovered",
        "aborted",
        "finished",
        "tokens ok",
    ]);
    let mut total_recoveries = 0u64;
    for (bi, &ber) in bers.iter().enumerate() {
        let inj = BerInjector::new(7000 + bi as u64, ber).with_sites(&[FaultSite::KvCache]);
        let mut session = model.serve_with(sched_cfg);
        for p in &prompts {
            session.submit_request(
                GenerationRequest::new(p.clone(), gen_tokens)
                    .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts }),
            );
        }
        let mut poison_events = 0u64;
        while !session.idle() {
            for ev in session.sweep_events(&inj) {
                if let EngineEvent::CachePoisoned { events, .. } = ev {
                    poison_events += events;
                }
            }
        }
        let finished = session.take_finished();
        // Hard assert: bounded recovery must never wedge the session —
        // every stream retires with a reason.
        assert_eq!(
            finished.len(),
            prompts.len(),
            "every stream must finish under BER {ber}"
        );
        let recovered = finished
            .iter()
            .filter(|f| f.finish == FinishReason::Recovered)
            .count();
        let aborted = finished
            .iter()
            .filter(|f| matches!(f.finish, FinishReason::AbortedPoisoned { .. }))
            .count();
        // Tokens of non-aborted streams vs the undamaged oracle
        // (informational: corrected reads carry ~1e-7 checksum-fold noise
        // that can flip an FP16 ulp, so this is not a hard gate).
        let tokens_ok = finished
            .iter()
            .zip(&clean)
            .filter(|(f, c)| {
                !matches!(f.finish, FinishReason::AbortedPoisoned { .. }) && f.tokens == c.tokens
            })
            .count();
        total_recoveries += session.recoveries();
        table.row(&[
            format!("{ber:.0e}"),
            format!("{}", inj.fired()),
            format!("{poison_events}"),
            format!("{}", session.recoveries()),
            format!("{recovered}"),
            format!("{aborted}"),
            format!("{}/{}", finished.len(), n),
            format!("{tokens_ok}/{}", n - aborted),
        ]);
    }
    print!("{}", table.render());
    // Hard assert: the sweep must actually exercise the recovery path.
    assert!(
        total_recoveries > 0,
        "the BER ladder must trigger at least one re-prefill recovery"
    );
    println!(
        "{total_recoveries} re-prefill recoveries across the ladder; every \
         stream finished with a typed reason (hard-asserted)"
    );
}

/// The bounded-memory serving sweep: the same mixed-length workload with
/// longer generations, windowed vs unbounded, plus a byte-budget
/// admission demonstration. Peak cache bytes must flatten under the
/// window at ≤ 10% aggregate tokens/sec cost (printed as the acceptance
/// line).
fn bounded_memory_sweep(
    model: &TransformerModel,
    prompts_for: &dyn Fn(usize) -> Vec<Vec<u32>>,
    sched_cfg: SchedulerConfig,
    smoke: bool,
) {
    println!("\nbounded-memory serve (sliding window, block-granular eviction):");
    let (n, cache_block, window, gen_tokens) = if smoke {
        (4usize, 4usize, 8usize, 6usize)
    } else {
        (16, 16, 32, 24)
    };
    let base = model.clone().with_cache_block(cache_block);
    let windowed = base.clone().with_window(window);
    let prompts = prompts_for(n);
    let generated = n * gen_tokens;

    let run = |m: &TransformerModel, budget: Option<u64>| {
        let mut session = m.serve_with(SchedulerConfig {
            memory_budget: budget,
            ..sched_cfg
        });
        for p in &prompts {
            session.submit_request(GenerationRequest::new(p.clone(), gen_tokens));
        }
        let t0 = Instant::now();
        let mut max_active = 0usize;
        while !session.idle() {
            session.sweep_events(&NoFaults);
            max_active = max_active.max(session.active_streams());
        }
        let dt = t0.elapsed().as_secs_f64();
        let finished = session.take_finished();
        let evicted: u64 = finished
            .iter()
            .map(|f| f.attention.cache_evicted_blocks)
            .sum();
        assert_eq!(finished.len(), prompts.len(), "every stream completes");
        // Peak footprint split into FP16 payload vs FP32 protection
        // metadata — the checksum side of the byte budget is visible, not
        // folded into one number.
        (
            dt,
            session.peak_cache_bytes(),
            evicted,
            max_active,
            session.peak_cache_breakdown(),
        )
    };

    let (t_unb, peak_unb, ev_unb, _, split_unb) = run(&base, None);
    let (t_win, peak_win, ev_win, _, split_win) = run(&windowed, None);
    assert_eq!(ev_unb, 0, "unbounded serving never evicts");
    assert!(ev_win > 0, "the windowed run must actually evict blocks");

    let mut table = TextTable::new(&[
        "policy",
        "peak cache bytes",
        "payload B",
        "metadata B",
        "tok/s",
        "evicted blocks",
    ]);
    table.row(&[
        "unbounded".to_string(),
        format!("{peak_unb}"),
        format!("{}", split_unb.payload_bytes),
        format!("{}", split_unb.metadata_bytes()),
        format!("{:.1}", generated as f64 / t_unb),
        "0".to_string(),
    ]);
    table.row(&[
        format!("window {window} (block {cache_block})"),
        format!("{peak_win}"),
        format!("{}", split_win.payload_bytes),
        format!("{}", split_win.metadata_bytes()),
        format!("{:.1}", generated as f64 / t_win),
        format!("{ev_win}"),
    ]);
    print!("{}", table.render());
    // The deterministic half of the acceptance is a hard assert (CI must
    // fail if eviction stops bounding memory); the wall-clock ratio stays
    // a printed PASS/FAIL because timing is machine-dependent.
    assert!(
        peak_win < peak_unb,
        "window must bound peak cache bytes: {peak_win} vs {peak_unb}"
    );
    let ratio = t_unb / t_win;
    println!(
        "peak cache bytes {:.0}% of unbounded at {n} streams, tok/s ratio \
         {ratio:.2} (acceptance: bounded peak and ratio >= 0.90) -> {}",
        100.0 * peak_win as f64 / peak_unb as f64,
        if ratio >= 0.9 { "PASS" } else { "FAIL" }
    );

    // Admission by cache bytes: cap the session well under the windowed
    // peak — pending streams queue for reclaimed bytes instead of growing
    // the footprint, and every stream still finishes.
    let budget = peak_win / 8;
    let (t_bud, peak_bud, _, max_active, _) = run(&windowed, Some(budget));
    println!(
        "byte-budget {budget}: peak {peak_bud}, max concurrent {max_active} \
         of {n} streams, {:.1} tok/s",
        generated as f64 / t_bud
    );
}

/// One stream's observed timeline under the engine: priority class label,
/// submission instant, and the instant of every received token.
struct StreamTrace {
    class: Priority,
    submitted: Instant,
    token_times: Vec<Instant>,
}

/// The `p`-th percentile (0–100) of a sample set, in milliseconds.
fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx]
}

/// Drive one bursty mixed-class trace through the engine: `Batch` wall
/// first, a beat later the `Normal`/`Latency` burst. Every handle gets a
/// consumer thread stamping token arrival times. Returns per-stream
/// traces plus the run's aggregate tokens/sec.
#[allow(clippy::type_complexity)]
fn run_trace(
    model: &TransformerModel,
    trace: &[(Vec<u32>, usize, Priority, bool)],
    engine_cfg: EngineConfig,
    honor_classes: bool,
) -> (Vec<StreamTrace>, f64) {
    let engine = Fleet::spawn(model.clone(), FleetConfig::single(engine_cfg));
    let t0 = Instant::now();
    let mut consumers = Vec::new();
    let mut burst_started = false;
    for (p, n, class, in_burst) in trace {
        if *in_burst && !burst_started {
            // The burst arrives mid-flight, once batch work holds the
            // slot table.
            std::thread::sleep(Duration::from_millis(30));
            burst_started = true;
        }
        // The FIFO baseline submits everything as one class (single
        // queue, no preemption) but keeps the label for reporting.
        let submit_class = if honor_classes {
            *class
        } else {
            Priority::Normal
        };
        let handle =
            engine.submit(GenerationRequest::new(p.clone(), *n).with_priority(submit_class));
        let (label, submitted) = (*class, Instant::now());
        consumers.push(std::thread::spawn(move || {
            let mut token_times = Vec::new();
            while let Some(ev) = handle.recv() {
                if matches!(ev, EngineEvent::TokenEmitted { .. }) {
                    token_times.push(Instant::now());
                }
            }
            StreamTrace {
                class: label,
                submitted,
                token_times,
            }
        }));
    }
    let traces: Vec<StreamTrace> = consumers
        .into_iter()
        .map(|c| c.join().expect("consumer thread"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let tokens: usize = traces.iter().map(|t| t.token_times.len()).sum();
    (traces, tokens as f64 / wall)
}

/// The priority-scheduling latency sweep: p50/p99 time-to-first-token and
/// mean inter-token gap per class, priority+preemption vs a FIFO
/// single-queue baseline over the identical bursty trace.
fn latency_sweep(
    model: &TransformerModel,
    prompts_for: &dyn Fn(usize) -> Vec<Vec<u32>>,
    smoke: bool,
) {
    println!("\nlatency serve (push-based engine, priority + preemption vs FIFO):");
    let (n_batch, n_normal, n_latency, batch_tokens, burst_tokens, max_active) = if smoke {
        (10usize, 3usize, 3usize, 8usize, 3usize, 4usize)
    } else {
        (20, 6, 6, 16, 6, 4)
    };
    let n = n_batch + n_normal + n_latency;
    let prompts = prompts_for(n);
    // Batch wall up front; Normal/Latency interleaved in the later burst.
    let mut trace: Vec<(Vec<u32>, usize, Priority, bool)> = Vec::new();
    for p in prompts.iter().take(n_batch) {
        trace.push((p.clone(), batch_tokens, Priority::Batch, false));
    }
    for (i, p) in prompts.iter().skip(n_batch).enumerate() {
        let class = if i % 2 == 0 && i / 2 < n_latency {
            Priority::Latency
        } else {
            Priority::Normal
        };
        trace.push((p.clone(), burst_tokens, class, true));
    }

    let scheduler = SchedulerConfig {
        max_active,
        prefill_chunk: 16,
        preempt: true,
        priority_aging: Some(32),
        ..Default::default()
    };
    let priority_cfg = EngineConfig {
        scheduler,
        ..Default::default()
    };
    let fifo_cfg = EngineConfig {
        scheduler: SchedulerConfig {
            preempt: false,
            priority_aging: None,
            ..scheduler
        },
        ..Default::default()
    };

    let (fifo, fifo_tps) = run_trace(model, &trace, fifo_cfg, false);
    let (prio, prio_tps) = run_trace(model, &trace, priority_cfg, true);

    let classes = [Priority::Latency, Priority::Normal, Priority::Batch];
    let stats = |traces: &[StreamTrace], class: Priority| -> (f64, f64, f64) {
        let mut ttft: Vec<f64> = traces
            .iter()
            .filter(|t| t.class == class)
            .map(|t| (t.token_times[0] - t.submitted).as_secs_f64() * 1e3)
            .collect();
        let gaps: Vec<f64> = traces
            .iter()
            .filter(|t| t.class == class)
            .flat_map(|t| {
                t.token_times
                    .windows(2)
                    .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>()
            })
            .collect();
        let mean_gap = if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        (
            percentile_ms(&mut ttft, 50.0),
            percentile_ms(&mut ttft, 99.0),
            mean_gap,
        )
    };

    let mut table = TextTable::new(&[
        "class",
        "streams",
        "fifo p50 ttft",
        "fifo p99 ttft",
        "prio p50 ttft",
        "prio p99 ttft",
        "prio itl (mean)",
    ]);
    for class in classes {
        let count = trace.iter().filter(|(_, _, c, _)| *c == class).count();
        let (f50, f99, _) = stats(&fifo, class);
        let (p50, p99, itl) = stats(&prio, class);
        table.row(&[
            format!("{class}"),
            format!("{count}"),
            format!("{f50:.1} ms"),
            format!("{f99:.1} ms"),
            format!("{p50:.1} ms"),
            format!("{p99:.1} ms"),
            format!("{itl:.1} ms"),
        ]);
    }
    print!("{}", table.render());

    // Deterministic half of the acceptance: under priority scheduling a
    // Latency arrival must not queue behind the Batch wall.
    let (_, lat_p99, _) = stats(&prio, Priority::Latency);
    let (_, batch_p99, _) = stats(&prio, Priority::Batch);
    assert!(
        lat_p99 < batch_p99,
        "priority scheduling must put Latency p99 TTFT ({lat_p99:.1} ms) \
         under Batch p99 TTFT ({batch_p99:.1} ms)"
    );
    // Timing-dependent halves stay printed PASS/FAIL (machine-dependent).
    let (_, fifo_lat_p99, _) = stats(&fifo, Priority::Latency);
    let tps_ratio = prio_tps / fifo_tps;
    println!(
        "Latency p99 TTFT {lat_p99:.1} ms vs {fifo_lat_p99:.1} ms FIFO at {n} \
         mixed streams (acceptance: improves) -> {}",
        if lat_p99 < fifo_lat_p99 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "aggregate {prio_tps:.1} tok/s priority vs {fifo_tps:.1} tok/s FIFO, \
         ratio {tps_ratio:.2} (acceptance: >= 0.90) -> {}",
        if tps_ratio >= 0.9 { "PASS" } else { "FAIL" }
    );
}
