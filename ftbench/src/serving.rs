//! The four serving workloads, all through `Fleet::spawn` → `Fleet::submit`
//! → `StreamHandle`: `decode_steady`, `prefill_long`, `burst_open`,
//! `fault_storm`.
//!
//! Every workload is a sequence of *rounds*: a fixed piece of work (a wave
//! of closed-loop requests, two bursts of the arrival schedule, a batch)
//! served once per arm, arm after arm, on the same inputs, until
//! `--seconds` is used. A round lasts a second or two, so the two arms of a
//! round see nearly the same host and their ratio is taken within the round.
//! A run's rate and latencies are those of its **best round**: on a shared
//! host interference only ever slows a round down, so the fastest round is
//! the closest to what the code costs, and a regression slows every round,
//! the fastest included.

use crate::driver::{run_load, Load, LoadResult, Outcome};
use crate::gen;
use crate::run::{record_setup, timed_setup, Ctx, RunOutput};
use crate::stats::{self, ratio};
use crate::system::{bench_config, build_arms, fleet_config, Arm, Arms};
use crate::tracing::{self, FleetRound};
use ft_sim::{BerInjector, FaultInjector, FaultSite, NoFaults};
use ft_transformer::{
    Fleet, FleetConfig, FleetReport, GenerationRequest, Priority, RecoveryPolicy, SizeBreakdown,
    TransformerModel,
};
use std::sync::Arc;
use std::time::Instant;

/// Share of `--seconds` the traced run spends on fleet rounds; they are
/// only there for the `fleet.*` metrics.
const TRACED_FLEET_SHARE: f64 = 0.35;
/// Rounds generated up front; no run on any host gets near it.
const MAX_ROUNDS: usize = 32;

type SharedInjector = Arc<dyn FaultInjector + Send + Sync>;

/// One arm's load through one fleet: what the driver saw and the fleet's own
/// ledger (absent after a stall: a livelocked shard cannot be joined).
pub struct ArmRun {
    pub load: LoadResult,
    pub report: Option<FleetReport>,
}

/// Spawn a fleet over `model`, drive `load` through it, shut it down.
pub fn serve(
    model: &TransformerModel,
    cfg: FleetConfig,
    inj: SharedInjector,
    load: Load<'_>,
) -> ArmRun {
    let fleet = Fleet::spawn_with(model.clone(), cfg, inj);
    let load = run_load(&fleet, load);
    // After a stall the fleet is dropped, which detaches its workers.
    let report = (!load.stalled).then(|| fleet.shutdown());
    ArmRun { load, report }
}

fn no_faults() -> SharedInjector {
    Arc::new(NoFaults)
}

/// Requests of `base` at `arm`'s protection level.
fn for_arm(base: &[GenerationRequest], arm: Arm) -> Vec<GenerationRequest> {
    base.iter().map(|r| arm.request(r.clone())).collect()
}

/// Run `round(i)` for i = 0, 1, … until `seconds` are used: another round
/// starts only while at least half of it still fits. Always one round.
fn rounds<T>(seconds: f64, mut round: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut done = Vec::new();
    loop {
        let started = t0.elapsed().as_secs_f64();
        done.push(round(done.len()));
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + 0.5 * (elapsed - started) >= seconds || done.len() == MAX_ROUNDS {
            return done;
        }
    }
}

/// Pull-mode oracle: the request alone through `ServeSession::run`.
/// Returns the sampled tokens and the session's peak cache footprint.
pub fn oracle(model: &TransformerModel, req: &GenerationRequest) -> (Vec<u32>, SizeBreakdown) {
    let mut session = model.serve();
    session.submit_request(req.clone());
    let finished = session.run(&NoFaults);
    let tokens = finished[0].tokens[req.prompt.len()..].to_vec();
    (tokens, session.peak_cache_breakdown())
}

/// One arm's rounds: per-round figures, and per-request samples pooled over
/// the rounds.
#[derive(Default)]
pub struct ArmStats {
    pub issued: usize,
    pub ok: usize,
    /// Prompt rows plus sampled tokens of OK requests.
    pub tokens: usize,
    /// Per round: tokens of OK requests over the round's wall time.
    pub tokens_per_s: Vec<f64>,
    /// Per round: wall time.
    pub wall_s: Vec<f64>,
    /// Per round: mean request latency, due → finished.
    pub mean_latency_s: Vec<f64>,
    /// Per round: median time to first token of the round's requests.
    pub ttft_ms_p50: Vec<f64>,
    /// Per round: median over requests of the mean gap between its tokens.
    pub tpot_ms_p50: Vec<f64>,
    /// Pooled: time to first token per request.
    pub ttft_ms: Vec<f64>,
    /// Pooled: every gap between consecutive tokens of one stream.
    pub itl_ms: Vec<f64>,
}

pub fn arm_stats<'a>(runs: impl IntoIterator<Item = &'a ArmRun>) -> ArmStats {
    let mut st = ArmStats::default();
    for run in runs {
        let load = &run.load;
        let ok: Vec<&Outcome> = load.outcomes.iter().filter(|o| o.ok()).collect();
        let tokens: usize = ok.iter().map(|o| o.prompt_len + o.tokens.len()).sum();
        st.issued += load.outcomes.len();
        st.ok += ok.len();
        st.tokens += tokens;
        st.tokens_per_s.push(ratio(tokens as f64, load.wall));
        st.wall_s.push(load.wall);
        let latencies: Vec<f64> = ok.iter().map(|o| o.latency_s()).collect();
        st.mean_latency_s.push(stats::mean(&latencies));
        let ttft: Vec<f64> = ok.iter().filter_map(|o| o.ttft_ms()).collect();
        let tpot: Vec<f64> = ok.iter().filter_map(|o| o.tpot_ms()).collect();
        st.ttft_ms_p50.push(stats::median(&ttft));
        st.tpot_ms_p50.push(stats::median(&tpot));
        st.ttft_ms.extend(ttft);
        st.itl_ms.extend(ok.iter().flat_map(|o| o.itl_ms()));
    }
    st
}

/// Tokens of `got` equal to `want` at the same position, and the expected
/// count.
fn matched(got: &[u32], want: &[u32]) -> (usize, usize) {
    let same = got.iter().zip(want).filter(|(a, b)| a == b).count();
    (same, want.len())
}

/// Total cache bytes (payload + checksum metadata) per cached row. The row
/// count is read back from the payload: 2 tensors × hidden × 2 B per layer.
fn bytes_per_token(peak: &SizeBreakdown, model: &TransformerModel) -> f64 {
    let per_row_payload = (4 * model.config.hidden * model.config.layers) as f64;
    let rows = peak.payload_bytes as f64 / per_row_payload;
    ratio(peak.total_bytes() as f64, rows)
}

/// Requests that did not end cleanly.
fn not_ok(load: &LoadResult) -> u64 {
    load.outcomes.iter().filter(|o| !o.ok()).count() as u64
}

/// Oracle agreement of a run, and the protected footprint it measured.
struct Verdict {
    same: usize,
    want: usize,
    footprint: SizeBreakdown,
}

/// Check the first `n` requests of each arm's first round against the
/// pull-mode oracle, and book every round's attempted/failed/stall.
fn judge(
    out: &mut RunOutput,
    arms: &Arms,
    runs: &[(Arm, &[GenerationRequest], &[&ArmRun])],
    n: usize,
) -> Verdict {
    let mut v = Verdict {
        same: 0,
        want: 0,
        footprint: SizeBreakdown::default(),
    };
    for &(arm, requests, rounds) in runs {
        let mut bad = 0u64;
        for o in rounds[0].load.outcomes.iter().take(n) {
            let (tokens, peak) = oracle(arms.model(arm), &requests[o.idx]);
            if o.idx == 0 && arm == Arm::Protected {
                v.footprint = peak;
            }
            let (s, w) = matched(&o.tokens, &tokens);
            v.same += s;
            v.want += w;
            bad += u64::from(o.tokens != tokens);
        }
        let stalls = rounds.iter().filter(|r| r.load.stalled).count();
        for r in rounds {
            out.attempted += r.load.outcomes.len() as u64;
            out.failed += not_ok(&r.load);
        }
        out.failed += bad;
        out.check(
            "tokens_equal_pull_mode_oracle",
            bad == 0,
            true,
            format!("{} arm: {bad} of first {n} requests differ", arm.label()),
        );
        out.check(
            "no_stall",
            stalls == 0,
            true,
            format!(
                "{} arm: watchdog fired in {stalls} of {} rounds",
                arm.label(),
                rounds.len()
            ),
        );
    }
    v
}

/// Fill the end-to-end metrics every serving workload shares (all but
/// `setup_s`, booked at set-up).
fn fill_end_to_end(
    out: &mut RunOutput,
    protected: &ArmStats,
    ft_time_ratio: f64,
    slo_ttft_ms: f64,
    verdict: &Verdict,
    model: &TransformerModel,
) {
    out.rounds.extend([
        ("tokens_per_s", protected.tokens_per_s.clone()),
        ("ttft_ms_p50", protected.ttft_ms_p50.clone()),
        ("tpot_ms_p50", protected.tpot_ms_p50.clone()),
        ("wall_s", protected.wall_s.clone()),
    ]);
    let m = &mut out.metrics;
    // Each figure from the round where it was best.
    m.set("tokens_per_s", stats::max(&protected.tokens_per_s));
    m.set("ttft_ms_p50", stats::min(&protected.ttft_ms_p50));
    m.set("tpot_ms_p50", stats::min(&protected.tpot_ms_p50));
    m.set("ft_time_ratio", ft_time_ratio);
    let within = protected
        .ttft_ms
        .iter()
        .filter(|&&t| t <= slo_ttft_ms)
        .count();
    m.set("slo_ok_frac", ratio(within as f64, protected.issued as f64));
    m.set(
        "token_match_frac",
        ratio(verdict.same as f64, verdict.want as f64),
    );
    m.set(
        "cache_bytes_per_token",
        bytes_per_token(&verdict.footprint, model),
    );
    out.notes.push(format!(
        "protected arm: {} rounds, {} requests, {} ok, {} tokens, {} ttft and {} itl samples; slo = ttft <= {slo_ttft_ms} ms",
        protected.wall_s.len(),
        protected.issued,
        protected.ok,
        protected.tokens,
        protected.ttft_ms.len(),
        protected.itl_ms.len()
    ));
}

/// Median over rounds of `num[i] / den[i]`.
fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    stats::median(
        &num.iter()
            .zip(den)
            .map(|(a, b)| ratio(*a, *b))
            .collect::<Vec<_>>(),
    )
}

/// Fleet-level per-layer metrics from the protected rounds of a traced run.
/// `busy_s` is the one-thread busy time of the same work, from the replay.
fn fill_fleet_layer(out: &mut RunOutput, runs: &[&ArmRun], busy_s: f64) {
    let st = arm_stats(runs.iter().copied());
    let outcomes = || runs.iter().flat_map(|r| &r.load.outcomes);
    let m = &mut out.metrics;
    let (v, p) = stats::tail(&st.ttft_ms);
    m.set("fleet.ttft_ms_tail", v);
    m.set("fleet.ttft_tail_pct", p);
    let (v, p) = stats::tail(&st.itl_ms);
    m.set("fleet.itl_ms_tail", v);
    m.set("fleet.itl_tail_pct", p);
    let class_ttft = |class: Priority| {
        stats::median(
            &outcomes()
                .filter(|o| o.ok() && o.priority == class)
                .filter_map(|o| o.ttft_ms())
                .collect::<Vec<_>>(),
        )
    };
    // Only a workload that mixes classes has a per-class story to tell.
    if outcomes().any(|o| o.priority != Priority::Normal) {
        m.set("fleet.ttft_latency_ms_p50", class_ttft(Priority::Latency));
        m.set("fleet.ttft_batch_ms_p50", class_ttft(Priority::Batch));
    }
    m.set("fleet.requests", st.issued as f64);
    m.set(
        "driver.late_ms_max",
        runs.iter().map(|r| r.load.late_ms_max).fold(0.0, f64::max),
    );
    let reports: Vec<&FleetReport> = runs.iter().filter_map(|r| r.report.as_ref()).collect();
    let sum = |f: &dyn Fn(&ft_transformer::ShardReport) -> u64| -> f64 {
        reports.iter().map(|r| f(&r.total())).sum::<u64>() as f64
    };
    m.set("fleet.preemptions", sum(&|t| t.preemptions));
    m.set("fleet.migrations", sum(&|t| t.migrations_in));
    m.set("fleet.recoveries", sum(&|t| t.recoveries));
    m.set("fleet.recovery_fed_rows", sum(&|t| t.recovery_fed));
    m.set(
        "fleet.peak_cache_bytes",
        reports
            .iter()
            .map(|r| r.total().peak_cache_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    let imbalance: Vec<f64> = reports
        .iter()
        .map(|r| {
            let per_shard: Vec<f64> = r.shards.iter().map(|s| s.tokens_emitted as f64).collect();
            ratio(
                per_shard.iter().copied().fold(0.0, f64::max),
                stats::mean(&per_shard),
            )
        })
        .collect();
    m.set("fleet.shard_token_imbalance", stats::median(&imbalance));
    let capacity: f64 = runs
        .iter()
        .map(|r| r.report.as_ref().map_or(0, |rep| rep.shards.len()) as f64 * r.load.wall)
        .sum();
    if busy_s > 0.0 && capacity > 0.0 {
        m.set("fleet.idle_frac", (1.0 - busy_s / capacity).clamp(0.0, 1.0));
    }
}

fn refs(runs: &[ArmRun]) -> Vec<&ArmRun> {
    runs.iter().collect()
}

// ---------------------------------------------------------------------------
// Closed loops: decode_steady and prefill_long.
// ---------------------------------------------------------------------------

struct ClosedSpec {
    prompt_len: usize,
    new_tokens: usize,
    /// Callers; a round is one request from each, sent together.
    clients: usize,
    slo_ttft_ms: f64,
    /// Requests per arm checked against the pull-mode oracle.
    oracle_n: usize,
    /// Requests the traced run replays through the shadow sweep.
    trace_n: usize,
}

pub fn decode_steady(ctx: &Ctx) -> RunOutput {
    closed_loop(
        ctx,
        &ClosedSpec {
            prompt_len: 16,
            new_tokens: 48,
            clients: if ctx.smoke { 2 } else { 8 },
            slo_ttft_ms: 1000.0,
            oracle_n: 2,
            trace_n: 2,
        },
    )
}

pub fn prefill_long(ctx: &Ctx) -> RunOutput {
    closed_loop(
        ctx,
        &ClosedSpec {
            prompt_len: if ctx.smoke { 96 } else { 768 },
            new_tokens: 8,
            clients: 2,
            slo_ttft_ms: 5000.0,
            oracle_n: 1,
            trace_n: 1,
        },
    )
}

fn closed_loop(ctx: &Ctx, spec: &ClosedSpec) -> RunOutput {
    let cfg = fleet_config();
    let vocab = bench_config().vocab;
    let ((arms, base), setup) = timed_setup(ctx, || {
        let arms = build_arms(None);
        let base: Vec<GenerationRequest> = (0..MAX_ROUNDS * spec.clients)
            .map(|i| {
                GenerationRequest::new(
                    gen::prompt(ctx.seed, i, spec.prompt_len, vocab),
                    spec.new_tokens,
                )
            })
            .collect();
        Fleet::spawn(arms.protected.clone(), cfg).shutdown();
        (arms, base)
    });
    let mut out = RunOutput::new(ctx.trace);
    record_setup(&mut out, setup);
    let prot_reqs = for_arm(&base, Arm::Protected);
    let unprot_reqs = for_arm(&base, Arm::Unprotected);
    let wave = |arm: Arm, reqs: &[GenerationRequest], round: usize| {
        serve(
            arms.model(arm),
            cfg,
            no_faults(),
            Load::Closed {
                requests: &reqs[round * spec.clients..(round + 1) * spec.clients],
                clients: spec.clients,
            },
        )
    };
    if ctx.trace {
        let prot = rounds(ctx.seconds * TRACED_FLEET_SHARE, |r| {
            wave(Arm::Protected, &prot_reqs, r)
        });
        // The unprotected fleet serves only the requests the shadow sweep
        // replays: its tokens are what the unprotected shadow must equal.
        let n = spec.trace_n.min(spec.clients);
        let unprot = serve(
            &arms.unprotected,
            cfg,
            no_faults(),
            Load::Closed {
                requests: &unprot_reqs[..n],
                clients: n,
            },
        );
        for r in prot.iter().chain([&unprot]) {
            out.attempted += r.load.outcomes.len() as u64;
            out.failed += not_ok(&r.load);
        }
        let replayed = tracing::shadow_layers(
            ctx,
            &mut out,
            &arms,
            &[
                (&prot_reqs[..n], &prot[0].load),
                (&unprot_reqs[..n], &unprot.load),
            ],
        );
        // Scale the replay's busy time from its requests to the fleet's.
        let fleet_requests: usize = prot.iter().map(|r| r.load.outcomes.len()).sum();
        let busy_s = replayed * fleet_requests as f64 / n as f64;
        fill_fleet_layer(&mut out, &refs(&prot), busy_s);
        return out;
    }
    let pairs = rounds(ctx.seconds, |r| {
        (
            wave(Arm::Protected, &prot_reqs, r),
            wave(Arm::Unprotected, &unprot_reqs, r),
        )
    });
    let (prot, unprot): (Vec<ArmRun>, Vec<ArmRun>) = pairs.into_iter().unzip();
    let verdict = judge(
        &mut out,
        &arms,
        &[
            (Arm::Protected, &prot_reqs, &refs(&prot)),
            (Arm::Unprotected, &unprot_reqs, &refs(&unprot)),
        ],
        spec.oracle_n,
    );
    let (p, u) = (arm_stats(&prot), arm_stats(&unprot));
    // A round is the same requests on both arms, so its wall times compare
    // like with like.
    let ft_time_ratio = paired_ratio(&p.wall_s, &u.wall_s);
    fill_end_to_end(
        &mut out,
        &p,
        ft_time_ratio,
        spec.slo_ttft_ms,
        &verdict,
        &arms.protected,
    );
    out.notes.push(format!(
        "closed loop: {} rounds of {} clients x 1 request per arm, arms alternating; unprotected arm {:.1} tok/s (best round)",
        prot.len(),
        spec.clients,
        stats::max(&u.tokens_per_s)
    ));
    out
}

// ---------------------------------------------------------------------------
// burst_open.
// ---------------------------------------------------------------------------

/// Requests per burst. The nine normal- and batch-class ones are due at the
/// same instant — one more than a two-shard fleet has slots, so admission
/// order decides who queues — and the three latency-class ones
/// [`BURST_LATE_S`] later, when the slots are taken: they must preempt.
const BURST_SIZE: usize = 12;
const BURST_LATE_S: f64 = 0.25;
/// Seconds between bursts. A burst takes about 55 % of it to drain, so the
/// fleet is idle when the next arrives unless the program got much slower.
const BURST_PERIOD_S: f64 = 2.0;
/// Bursts per round (one fleet's lifetime).
const BURSTS_PER_ROUND: usize = 2;
const BURST_PROMPTS: [usize; 8] = [8, 16, 16, 32, 32, 64, 64, 128];
const BURST_PRIORITIES: [Priority; 4] = [
    Priority::Latency,
    Priority::Normal,
    Priority::Normal,
    Priority::Batch,
];

/// An open-loop request list and its due times: `bursts` bursts of
/// [`BURST_SIZE`] requests, one every [`BURST_PERIOD_S`] seconds. The shape
/// of a burst — which prompt length, output length (4–15) and class
/// (25/50/25 %) arrives in which position, the prompts of 64 rows and more
/// on a 64-row sliding window — is fixed and the same for every burst;
/// `seed` chooses the token ids. Requests arriving in two waves into an idle
/// fleet make the wait of position k a property of the scheduler, repeated
/// burst after burst, so a median over bursts measures the system; Poisson
/// arrivals at the same utilisation put the median request on the edge
/// between finding a shard idle and finding it busy, and its TTFT moved
/// 25–50 % between runs of the same binary.
pub fn burst_schedule(seed: u64, bursts: usize) -> (Vec<GenerationRequest>, Vec<f64>) {
    let vocab = bench_config().vocab;
    let new_tokens: Vec<usize> = (4..16).collect();
    let prompts = gen::stratified(0xB0B5_0001, &BURST_PROMPTS, BURST_SIZE);
    let outputs = gen::stratified(0xB0B5_0002, &new_tokens, BURST_SIZE);
    let classes = gen::stratified(0xB0B5_0003, &BURST_PRIORITIES, BURST_SIZE);
    let request = |i: usize, k: usize| {
        let req = GenerationRequest::new(gen::prompt(seed, i, prompts[k], vocab), outputs[k])
            .with_priority(classes[k]);
        if prompts[k] >= 64 {
            req.with_window(64)
        } else {
            req
        }
    };
    // Due times must not decrease along the list: late arrivals go last.
    let mut order: Vec<usize> = (0..BURST_SIZE).collect();
    order.sort_by_key(|&k| classes[k] == Priority::Latency);
    let (mut requests, mut due) = (Vec::new(), Vec::new());
    for b in 0..bursts {
        for &k in &order {
            let late = classes[k] == Priority::Latency;
            due.push(b as f64 * BURST_PERIOD_S + if late { BURST_LATE_S } else { 0.0 });
            requests.push(request(b * BURST_SIZE + k, k));
        }
    }
    (requests, due)
}

fn burst_fleet_config() -> FleetConfig {
    let mut cfg = fleet_config();
    // Four slots per shard so admission order and preemption matter.
    cfg.engine.scheduler.max_active = 4;
    // Stealing is exercised by the closed loops; here it only adds
    // run-to-run spread to TTFT.
    cfg.steal = false;
    cfg
}

pub fn burst_open(ctx: &Ctx) -> RunOutput {
    let cfg = burst_fleet_config();
    let bursts = if ctx.smoke { 1 } else { BURSTS_PER_ROUND };
    let ((arms, schedule), setup) = timed_setup(ctx, || {
        let arms = build_arms(None);
        let schedule: Vec<_> = (0..MAX_ROUNDS as u64)
            .map(|r| burst_schedule(gen::derive(ctx.seed, 100 + r), bursts))
            .collect();
        Fleet::spawn(arms.protected.clone(), cfg).shutdown();
        (arms, schedule)
    });
    let mut out = RunOutput::new(ctx.trace);
    record_setup(&mut out, setup);
    let segment = |arm: Arm, round: usize| {
        let (base, due) = &schedule[round];
        let reqs = for_arm(base, arm);
        serve(
            arms.model(arm),
            cfg,
            no_faults(),
            Load::Open {
                requests: &reqs,
                due,
            },
        )
    };
    if ctx.trace {
        let prot = rounds(ctx.seconds * TRACED_FLEET_SHARE, |r| {
            segment(Arm::Protected, r)
        });
        for r in &prot {
            out.attempted += r.load.outcomes.len() as u64;
            out.failed += not_ok(&r.load);
        }
        let (base, due) = &schedule[0];
        let replayed = tracing::session_layers(
            ctx,
            &mut out,
            &arms.protected,
            cfg,
            &FleetRound {
                requests: &for_arm(base, Arm::Protected),
                due,
                fleet: &prot[0].load,
            },
            &NoFaults,
        );
        fill_fleet_layer(&mut out, &refs(&prot), replayed * prot.len() as f64);
        return out;
    }
    let pairs = rounds(ctx.seconds, |r| {
        (segment(Arm::Protected, r), segment(Arm::Unprotected, r))
    });
    let (prot, unprot): (Vec<ArmRun>, Vec<ArmRun>) = pairs.into_iter().unzip();
    let verdict = judge(
        &mut out,
        &arms,
        &[
            (
                Arm::Protected,
                &for_arm(&schedule[0].0, Arm::Protected),
                &refs(&prot),
            ),
            (
                Arm::Unprotected,
                &for_arm(&schedule[0].0, Arm::Unprotected),
                &refs(&unprot),
            ),
        ],
        2,
    );
    let (p, u) = (arm_stats(&prot), arm_stats(&unprot));
    // An open loop's wall time is set by the arrival schedule, so the cost
    // of protection shows in how long requests take, not in how many finish.
    let ft_time_ratio = paired_ratio(&p.mean_latency_s, &u.mean_latency_s);
    fill_end_to_end(
        &mut out,
        &p,
        ft_time_ratio,
        1000.0,
        &verdict,
        &arms.protected,
    );
    let late = prot
        .iter()
        .chain(&unprot)
        .map(|r| r.load.late_ms_max)
        .fold(0.0, f64::max);
    out.notes.push(format!(
        "open loop, {BURST_SIZE} requests every {BURST_PERIOD_S} s, timed from due time: {} rounds of {bursts} bursts per arm, arms alternating on the same schedule; generator ran at most {late:.3} ms late; mean request latency per round {:.1} ms protected, {:.1} ms unprotected (medians)",
        prot.len(),
        stats::median(&p.mean_latency_s) * 1e3,
        stats::median(&u.mean_latency_s) * 1e3
    ));
    out
}

// ---------------------------------------------------------------------------
// fault_storm.
// ---------------------------------------------------------------------------

/// Cache-resident bit-error rate: the rung where faults fire by the
/// thousand and a few streams must recover, yet every stream still
/// finishes (3e-4 aborts some, 1e-3 nearly all).
const STORM_BER: f64 = 1e-4;
const STORM_PROMPTS: [usize; 4] = [32, 64, 128, 96];
const STORM_NEW_TOKENS: usize = 24;
/// Requests per round, all submitted at once.
const STORM_BATCH: usize = 8;
/// The storm's fault pattern is part of the workload, like the arrival-gap
/// multiset of `burst_open`: the injector is stateless and keyed on (stream,
/// position, element), so a fixed injector seed fixes how many flips land,
/// where, and how many streams must recover, while `--seed` varies the data
/// they land on. Deriving it from `--seed` made the recovery count — and
/// with it up to 40 % of the batch's work — a Poisson draw per run. This
/// seed gives a batch of 8 three or four recoveries and no abort on every
/// data seed tried.
const STORM_INJECTOR_SEED: u64 = 3;

fn storm_fleet_config() -> FleetConfig {
    let mut cfg = fleet_config();
    // A migration re-prefills from different chunk bases, which would move
    // the stateless injector's fault pattern: pin streams so counts repeat.
    cfg.steal = false;
    cfg
}

fn storm_injector() -> Arc<BerInjector> {
    Arc::new(BerInjector::new(STORM_INJECTOR_SEED, STORM_BER).with_sites(&[FaultSite::KvCache]))
}

/// One round of the storm: the batch under faults, beside it clean (every
/// round of the traced run, the first of the end-to-end run) and unprotected
/// (end-to-end run only).
struct StormRound {
    clean: Option<ArmRun>,
    storm: ArmRun,
    unprot: Option<ArmRun>,
    fired: u64,
}

pub fn fault_storm(ctx: &Ctx) -> RunOutput {
    let cfg = storm_fleet_config();
    let vocab = bench_config().vocab;
    let batch = if ctx.smoke { 4 } else { STORM_BATCH };
    let ((arms, base), setup) = timed_setup(ctx, || {
        // 16-row cache blocks: partial re-prefill rolls back to a block
        // boundary, so finer blocks localise damage and recovery better.
        let arms = build_arms(Some(16));
        let base: Vec<GenerationRequest> = (0..batch)
            .map(|i| {
                GenerationRequest::new(
                    gen::prompt(ctx.seed, i, STORM_PROMPTS[i % STORM_PROMPTS.len()], vocab),
                    STORM_NEW_TOKENS,
                )
                .with_recovery(RecoveryPolicy::ReprefillPartial { max_attempts: 3 })
            })
            .collect();
        Fleet::spawn(arms.protected.clone(), cfg).shutdown();
        (arms, base)
    });
    let due = vec![0.0; batch];
    let mut out = RunOutput::new(ctx.trace);
    record_setup(&mut out, setup);
    let prot_reqs = for_arm(&base, Arm::Protected);
    let unprot_reqs = for_arm(&base, Arm::Unprotected);
    let pass = |arm: Arm, requests: &[GenerationRequest], inj: SharedInjector| {
        serve(
            arms.model(arm),
            cfg,
            inj,
            Load::Open {
                requests,
                due: &due,
            },
        )
    };
    let budget = if ctx.trace {
        ctx.seconds * TRACED_FLEET_SHARE
    } else {
        ctx.seconds
    };
    // Every round serves the same batch through a fresh fleet, so stream ids,
    // and with them the stateless injector's fault pattern, repeat: rounds
    // are the same work and the first round's clean pass is every round's
    // token oracle.
    let storm_rounds = rounds(budget, |r| {
        let clean = (ctx.trace || r == 0).then(|| pass(Arm::Protected, &prot_reqs, no_faults()));
        let injector = storm_injector();
        let storm = pass(Arm::Protected, &prot_reqs, injector.clone());
        let unprot = (!ctx.trace).then(|| pass(Arm::Unprotected, &unprot_reqs, no_faults()));
        StormRound {
            clean,
            storm,
            unprot,
            fired: injector.fired(),
        }
    });
    let fired: u64 = storm_rounds.iter().map(|r| r.fired).sum();
    let recoveries: u64 = storm_rounds
        .iter()
        .flat_map(|r| &r.storm.load.outcomes)
        .map(|o| o.recovering)
        .sum();
    out.check(
        "faults_fired",
        fired > 0,
        true,
        format!("{fired} cache-resident flips injected"),
    );
    out.check(
        "at_least_one_recovery",
        recoveries >= 1,
        !ctx.smoke,
        format!("{recoveries} re-prefill recoveries"),
    );
    let clean: Vec<&ArmRun> = storm_rounds
        .iter()
        .filter_map(|r| r.clean.as_ref())
        .collect();
    let storm: Vec<&ArmRun> = storm_rounds.iter().map(|r| &r.storm).collect();
    // Every faulted pass against the clean pass, request by request,
    // position by position.
    let (mut same, mut want, mut differ) = (0usize, 0usize, 0u64);
    for r in &storm {
        for (a, b) in r.load.outcomes.iter().zip(&clean[0].load.outcomes) {
            let (s, w) = matched(&a.tokens, &b.tokens);
            same += s;
            want += w;
            differ += u64::from(a.tokens != b.tokens);
        }
    }
    let s = arm_stats(storm.iter().copied());
    if ctx.trace {
        for r in clean.iter().chain(&storm) {
            out.attempted += r.load.outcomes.len() as u64;
            out.failed += not_ok(&r.load);
        }
        out.failed += differ;
        let trace_injector = storm_injector();
        let replayed = tracing::session_layers(
            ctx,
            &mut out,
            &arms.protected,
            cfg,
            &FleetRound {
                requests: &prot_reqs,
                due: &due,
                fleet: &storm[0].load,
            },
            &*trace_injector,
        );
        fill_fleet_layer(&mut out, &storm, replayed * storm.len() as f64);
        let c = arm_stats(clean.iter().copied());
        out.metrics.set("sim.faults_fired", fired as f64);
        out.metrics
            .set("sim.fault_time_ratio", paired_ratio(&s.wall_s, &c.wall_s));
        return out;
    }
    let unprot: Vec<&ArmRun> = storm_rounds
        .iter()
        .filter_map(|r| r.unprot.as_ref())
        .collect();
    let mut verdict = judge(
        &mut out,
        &arms,
        &[
            (Arm::Protected, &prot_reqs, &clean),
            (Arm::Unprotected, &unprot_reqs, &unprot),
        ],
        2,
    );
    for r in &storm {
        out.attempted += r.load.outcomes.len() as u64;
        out.failed += not_ok(&r.load);
    }
    out.failed += differ;
    let stalls = storm.iter().filter(|r| r.load.stalled).count();
    out.check(
        "no_stall",
        stalls == 0,
        true,
        format!("faulted passes: watchdog fired in {stalls}"),
    );
    // What the user sees of correctness here is the faulted pass.
    (verdict.same, verdict.want) = (same, want);
    let u = arm_stats(unprot.iter().copied());
    fill_end_to_end(
        &mut out,
        &s,
        // Protected under the storm against unprotected in calm weather:
        // what resilience costs the user when it is actually needed.
        paired_ratio(&s.wall_s, &u.wall_s),
        5000.0,
        &verdict,
        &arms.protected,
    );
    out.notes.push(format!(
        "{} rounds of the same offline batch of {batch}: faulted protected, clean unprotected (and clean protected once, the token oracle); best walls {:.3} / {:.3} / {:.3} s faulted / clean / unprotected (the faulted pass includes the injector's per-element hashing); {fired} faults fired, {recoveries} recoveries, {differ} faulted requests differ from the clean pass",
        storm_rounds.len(),
        stats::min(&s.wall_s),
        clean[0].load.wall,
        stats::min(&u.wall_s),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_is_a_pure_function_of_the_seed_with_one_shape() {
        let (a, due) = burst_schedule(7, 2);
        let (b, _) = burst_schedule(7, 2);
        let (c, due_c) = burst_schedule(8, 2);
        let prompts =
            |r: &[GenerationRequest]| r.iter().map(|q| q.prompt.clone()).collect::<Vec<_>>();
        assert_eq!(prompts(&a), prompts(&b), "same seed, same token ids");
        assert_ne!(prompts(&a), prompts(&c), "the seed picks the token ids");
        assert_eq!(due, due_c, "and nothing else");
        let shape = |r: &[GenerationRequest]| {
            r.iter()
                .map(|q| (q.prompt.len(), q.max_new_tokens, q.priority, q.window))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&c));
        assert_eq!(
            shape(&a[..BURST_SIZE]),
            shape(&a[BURST_SIZE..]),
            "every burst alike"
        );
        assert!(
            due.windows(2).all(|w| w[0] <= w[1]),
            "the driver sends in list order"
        );
        let late = a
            .iter()
            .zip(&due)
            .filter(|(_, d)| **d == BURST_LATE_S)
            .count();
        assert_eq!(
            late, 3,
            "the first burst's latency-class requests arrive late"
        );
        assert!(a.iter().zip(&due).all(|(q, d)| {
            (q.priority == Priority::Latency) == (d % BURST_PERIOD_S == BURST_LATE_S)
        }));
    }
}
