//! Spans, recorded from outside the program around calls into each layer's
//! public functions, and the per-layer metrics derived from them.

use crate::driver::LoadResult;
use crate::run::{Ctx, RunOutput};
use crate::shadow::shadow_run;
use crate::stats::{self, ratio};
use crate::system::{Arm, Arms};
use ft_sim::{FaultInjector, NoFaults};
use ft_transformer::{
    EngineEvent, FleetConfig, GenerationRequest, ServeSession, StreamId, TransformerModel,
};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The stream the work belongs to; spans of one request share it.
    pub stream: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. With `enabled` off every call is a no-op, which
/// is how the untraced twin of a traced run is timed.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, stream: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            stream,
        });
        self.stack.push(id);
        // Read the clock last so bookkeeping stays outside the span.
        self.spans[id].start_ns = self.t0.elapsed().as_nanos() as u64;
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let now = self.t0.elapsed().as_nanos() as u64;
        if let SpanId(Some(id)) = id {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id].end_ns = now;
        }
    }

    /// Re-label an open or closed span once its kind is known (a sweep is
    /// prefill, decode or mixed only after it has been planned).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let SpanId(Some(id)) = id {
            self.spans[id].name = name;
        }
    }

    /// Time `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, stream: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, stream);
        let out = f();
        self.exit(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the raw spans, one JSON object per line, if the run asked for
    /// them (`--out f.json` puts them in `f.spans.jsonl`).
    pub fn write(&self, ctx: &Ctx) {
        let Some(path) = &ctx.spans_out else { return };
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            use crate::json::Json;
            let line = Json::obj(vec![
                ("id", Json::Int(i as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("stream", s.stream.map_or(Json::Null, Json::Int)),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("ftbench: cannot write spans to {}: {e}", path.display());
        }
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children never overlap each other here (one recording thread), so
/// the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals of a tracer's spans by name: `(self seconds, count, durations)`.
struct ByName<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
}

impl<'a> ByName<'a> {
    fn new(spans: &'a [Span]) -> Self {
        ByName {
            own: self_times_ns(spans),
            spans,
        }
    }

    /// Summed self time of the spans named `name` (or prefixed `name.`).
    fn self_s(&self, name: &str) -> f64 {
        self.matching(name).map(|i| self.own[i]).sum::<u64>() as f64 / 1e9
    }

    fn count(&self, name: &str) -> usize {
        self.matching(name).count()
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.matching(name)
            .map(|i| self.spans[i].dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed full duration (children included).
    fn total_s(&self, name: &str) -> f64 {
        self.matching(name)
            .map(|i| self.spans[i].dur_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    fn matching<'s>(&'s self, name: &'s str) -> impl Iterator<Item = usize> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| {
                s.name == name
                    || (s.name.len() > name.len()
                        && s.name.starts_with(name)
                        && s.name.as_bytes()[name.len()] == b'.')
            })
            .map(|(i, _)| i)
    }
}

/// Rayon-shim fan-out of one fleet shard on this host; the traced pull-mode
/// runs use the same cap so a shadow sweep costs what a shard's sweep does.
fn shard_threads(workers: usize) -> usize {
    (crate::system::nproc() / workers).max(1)
}

/// Sweep-level metrics common to the shadow and the session traces.
fn fill_sweeps(out: &mut RunOutput, by: &ByName<'_>) {
    let m = &mut out.metrics;
    let sweeps = by.durations_ms("model.sweep");
    m.set("model.sweeps", sweeps.len() as f64);
    m.set("model.sweep_ms_p50", stats::median(&sweeps));
    let (v, p) = stats::tail(&sweeps);
    m.set("model.sweep_ms_tail", v);
    m.set("model.sweep_tail_pct", p);
    m.set("model.prefill_sweep_s", by.total_s("model.sweep.prefill"));
    m.set("model.decode_sweep_s", by.total_s("model.sweep.decode"));
    m.set("model.mixed_sweep_s", by.total_s("model.sweep.mixed"));
    m.set("trace.spans", by.spans.len() as f64);
}

/// Per-layer metrics of `decode_steady` / `prefill_long`: replay the traced
/// requests through the shadow sweep on both arms. `runs` is `[protected,
/// unprotected]`, each the replayed requests with the fleet run that served
/// them first. Returns the protected replay's one-thread busy seconds (for
/// `fleet.idle_frac`).
pub fn shadow_layers(
    ctx: &Ctx,
    out: &mut RunOutput,
    arms: &Arms,
    runs: &[(&[GenerationRequest], &LoadResult); 2],
) -> f64 {
    rayon::set_thread_workers(shard_threads(crate::system::workers()));
    let mut arm_runs = Vec::with_capacity(2);
    for (arm, (requests, fleet)) in [Arm::Protected, Arm::Unprotected].into_iter().zip(runs) {
        let model = arms.model(arm);
        let traced = shadow_run(model, requests, true);
        let untraced = shadow_run(model, requests, false);
        let t0 = Instant::now();
        let mut session = model.serve();
        for r in requests.iter() {
            session.submit_request(r.clone());
        }
        let finished = session.run(&NoFaults);
        let session_s = t0.elapsed().as_secs_f64();
        let differ = traced
            .tokens
            .iter()
            .zip(&fleet.outcomes)
            .filter(|(shadow, fleet)| **shadow != fleet.tokens)
            .count();
        out.failed += differ as u64;
        out.check(
            "shadow_tokens_equal_fleet_tokens",
            differ == 0 && traced.tokens == untraced.tokens && finished.len() == requests.len(),
            true,
            format!(
                "{} arm: {differ} of {} replayed requests differ from the fleet's tokens",
                arm.label(),
                requests.len()
            ),
        );
        arm_runs.push((traced, untraced.wall_s, session_s));
    }
    rayon::set_thread_workers(0);
    let (prot, prot_untraced_s, prot_session_s) = &arm_runs[0];
    let (unprot, ..) = &arm_runs[1];
    let by = ByName::new(prot.tracer.spans());
    let by_u = ByName::new(unprot.tracer.spans());
    fill_sweeps(out, &by);
    let c = &prot.counts;
    let sweep_s = by.total_s("model.sweep");
    let linear_s = by.self_s("linear.qkvo") + by.self_s("linear.ffn");
    let kv_s = by.self_s("kv.append") + by.self_s("kv.evict") + by.self_s("kv.expose");
    let m = &mut out.metrics;
    m.set("serve.plan_calls", by.count("serve.plan") as f64);
    m.set(
        "serve.plan_us_p50",
        stats::median(&by.durations_ms("serve.plan")) * 1e3,
    );
    m.set("serve.plan_s", by.self_s("serve.plan"));
    m.set("serve.record_s", by.self_s("serve.record"));
    m.set(
        "serve.streams_per_sweep_mean",
        ratio(c.streams_fed as f64, c.sweeps as f64),
    );
    m.set(
        "serve.rows_per_sweep_mean",
        ratio(c.rows_fed as f64, c.sweeps as f64),
    );
    m.set(
        "serve.prefill_rows_frac",
        ratio(c.prefill_rows as f64, c.rows_fed as f64),
    );
    m.set("model.embed_s", by.self_s("model.embed"));
    m.set("model.norm_s", by.self_s("model.norm"));
    m.set("model.lm_head_s", by.self_s("model.lm_head"));
    m.set("model.lm_head_rows", c.lm_head_rows as f64);
    m.set(
        "model.lm_head_share",
        ratio(by.self_s("model.lm_head"), sweep_s),
    );
    m.set("model.sample_s", by.self_s("model.sample"));
    m.set("model.glue_s", by.self_s("model.glue"));
    let (same, total) = prot
        .tokens
        .iter()
        .zip(&unprot.tokens)
        .map(|(a, b)| (a.iter().zip(b).filter(|(x, y)| x == y).count(), a.len()))
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    m.set(
        "model.arm_token_agree_frac",
        ratio(same as f64, total as f64),
    );
    m.set("linear.qkvo_s", by.self_s("linear.qkvo"));
    m.set("linear.qkvo_rows", c.qkvo_rows as f64);
    m.set("linear.ffn_s", by.self_s("linear.ffn"));
    m.set("linear.calls", c.linear_calls as f64);
    m.set("linear.flops_computed", c.linear_flops as f64);
    m.set(
        "linear.gflops",
        ratio(c.linear_flops as f64, linear_s) / 1e9,
    );
    m.set("linear.share", ratio(linear_s, sweep_s));
    m.set(
        "linear.ft_ratio",
        ratio(
            linear_s,
            by_u.self_s("linear.qkvo") + by_u.self_s("linear.ffn"),
        ),
    );
    m.set("ffn.activation_s", by.self_s("ffn.activation"));
    m.set("kv.append_s", by.self_s("kv.append"));
    m.set("kv.append_rows", c.append_rows as f64);
    m.set(
        "kv.us_per_row",
        ratio(by.self_s("kv.append") * 1e6, c.append_rows as f64),
    );
    m.set("kv.evict_s", by.self_s("kv.evict"));
    m.set("kv.evicted_blocks", c.evicted_blocks as f64);
    m.set("kv.expose_s", by.self_s("kv.expose"));
    m.set("kv.payload_bytes_peak", c.peak.payload_bytes as f64);
    m.set("kv.metadata_bytes_peak", c.peak.metadata_bytes() as f64);
    m.set(
        "kv.meta_over_payload",
        ratio(c.peak.metadata_bytes() as f64, c.peak.payload_bytes as f64),
    );
    m.set("kv.share", ratio(kv_s, sweep_s));
    m.set(
        "kv.ft_ratio",
        ratio(by.self_s("kv.append"), by_u.self_s("kv.append")),
    );
    let decode_s = by.self_s("decode.sweep");
    m.set("decode.sweep_s", decode_s);
    m.set("decode.calls", c.decode_calls as f64);
    m.set("decode.rows", c.decode_rows as f64);
    m.set("decode.bytes_read_computed", c.decode_bytes_read as f64);
    m.set("decode.flops_computed", c.decode_flops as f64);
    m.set(
        "decode.gbps_computed",
        ratio(c.decode_bytes_read as f64, decode_s) / 1e9,
    );
    m.set("decode.share", ratio(decode_s, sweep_s));
    m.set(
        "decode.ft_ratio",
        ratio(decode_s, by_u.self_s("decode.sweep")),
    );
    let overhead = ratio(prot.wall_s - prot_untraced_s, *prot_untraced_s);
    let vs_session = ratio(*prot_untraced_s, *prot_session_s);
    // Children of a sweep span over the sweep span: what the per-layer self
    // times account for.
    let accounted = 1.0 - ratio(by.self_s("model.sweep"), sweep_s);
    m.set("trace.overhead_frac", overhead);
    m.set("trace.shadow_vs_session_ratio", vs_session);
    m.set("trace.self_sum_frac", accounted);
    // Timing sanity, soft: one replay of a second or two on a shared host
    // cannot hold a 5 % line on every run.
    out.check(
        "trace_overhead_at_most_5pct",
        overhead <= 0.05,
        false,
        format!(
            "traced {:.3} s vs untraced {prot_untraced_s:.3} s",
            prot.wall_s
        ),
    );
    out.check(
        "shadow_within_10pct_of_session",
        (0.9..=1.1).contains(&vs_session),
        false,
        format!("shadow {prot_untraced_s:.3} s vs ServeSession::run {prot_session_s:.3} s"),
    );
    out.check(
        "layer_self_times_cover_95pct_of_sweeps",
        accounted >= 0.95,
        false,
        format!(
            "{:.1} % of sweep time is inside a layer span",
            accounted * 100.0
        ),
    );
    out.notes.push(format!(
        "shadow sweep over {} requests per arm, {} sweeps, {} spans; layer shares of sweep time: linear {:.1} %, lm_head {:.1} %, decode tile {:.1} %, kv {:.1} %",
        runs[0].0.len(),
        c.sweeps,
        by.spans.len(),
        ratio(linear_s, sweep_s) * 100.0,
        ratio(by.self_s("model.lm_head"), sweep_s) * 100.0,
        ratio(decode_s, sweep_s) * 100.0,
        ratio(kv_s, sweep_s) * 100.0,
    ));
    prot.tracer.write(ctx);
    *prot_untraced_s
}

/// One round as the fleet served it: what the session replay is fed, and
/// what its tokens must equal.
#[derive(Clone, Copy)]
pub struct FleetRound<'a> {
    pub requests: &'a [GenerationRequest],
    pub due: &'a [f64],
    pub fleet: &'a LoadResult,
}

/// Per-layer metrics of `burst_open` / `fault_storm`: preemption, windows
/// and recovery are state machines the benchmark must not re-implement, so
/// this drives the real `ServeSession::sweep_events` in pull mode — one
/// span per sweep, counts from the events and the `FinishedStream` ledgers.
///
/// One session after another stands for each shard: session `s` serves
/// requests `s, s + workers, …` at their original due times and under their
/// fleet stream ids (the stateless injector keys faults on them). Returns
/// the sessions' summed busy seconds.
pub fn session_layers(
    ctx: &Ctx,
    out: &mut RunOutput,
    model: &TransformerModel,
    cfg: FleetConfig,
    round: &FleetRound<'_>,
    inj: &dyn FaultInjector,
) -> f64 {
    let FleetRound {
        requests,
        due,
        fleet,
    } = *round;
    let workers = cfg.workers.max(1);
    rayon::set_thread_workers(shard_threads(workers));
    let mut tr = Tracer::new(true);
    let (mut preempted, mut evicted, mut poisoned, mut recovering) = (0u64, 0u64, 0u64, 0u64);
    let mut streams_fed = 0u64;
    let mut done = Vec::with_capacity(requests.len());
    let mut peak = ft_transformer::SizeBreakdown::default();
    for shard in 0..workers {
        let picked: Vec<usize> = (shard..requests.len()).step_by(workers).collect();
        let mut session = ServeSession::new(model, cfg.engine.scheduler);
        let mut next = 0usize;
        let t0 = Instant::now();
        loop {
            let t = t0.elapsed().as_secs_f64();
            while next < picked.len() && due[picked[next]] <= t {
                let i = picked[next];
                session.submit_request_with_id(requests[i].clone(), StreamId(i as u64));
                next += 1;
            }
            if session.idle() {
                if next == picked.len() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
                continue;
            }
            let sweep = tr.enter("model.sweep", None);
            let events = session.sweep_events(&inj);
            tr.exit(sweep);
            let (mut tokens, mut finished) = (0usize, 0usize);
            for ev in &events {
                match ev {
                    EngineEvent::TokenEmitted { .. } => tokens += 1,
                    EngineEvent::Finished { .. } => finished += 1,
                    EngineEvent::Preempted { .. } => preempted += 1,
                    EngineEvent::EvictedBlocks { blocks, .. } => evicted += blocks,
                    EngineEvent::CachePoisoned { .. } => poisoned += 1,
                    EngineEvent::Recovering { .. } => recovering += 1,
                    EngineEvent::FaultCorrected { .. } | EngineEvent::Resumed { .. } => {}
                }
            }
            // Streams holding a slot during the sweep; every one of them
            // that is past its prompt emits exactly one token.
            let fed = session.active_streams() + finished;
            streams_fed += fed as u64;
            tr.rename(
                sweep,
                if tokens == 0 {
                    "model.sweep.prefill"
                } else if tokens == fed {
                    "model.sweep.decode"
                } else {
                    "model.sweep.mixed"
                },
            );
        }
        done.extend(session.take_finished());
        let shard_peak = session.peak_cache_breakdown();
        if shard_peak.total_bytes() > peak.total_bytes() {
            peak = shard_peak;
        }
    }
    rayon::set_thread_workers(0);
    let differ = done
        .iter()
        .filter(|f| {
            let want = &fleet.outcomes[f.id.0 as usize];
            f.tokens[want.prompt_len..] != want.tokens[..]
        })
        .count();
    out.failed += differ as u64;
    out.check(
        "session_tokens_equal_fleet_tokens",
        differ == 0 && done.len() == requests.len(),
        true,
        format!(
            "{differ} of {} replayed requests differ from the fleet's tokens; {} finished",
            requests.len(),
            done.len()
        ),
    );
    let by = ByName::new(tr.spans());
    fill_sweeps(out, &by);
    let (mut detected, mut corrected, mut uncorrectable) = (0u64, 0u64, 0u64);
    for f in &done {
        detected += f.attention.cache_detected;
        corrected += f.attention.cache_corrected;
        uncorrectable += f.attention.cache_uncorrectable;
    }
    let m = &mut out.metrics;
    m.set(
        "serve.streams_per_sweep_mean",
        ratio(streams_fed as f64, by.count("model.sweep") as f64),
    );
    m.set("kv.evicted_blocks", evicted as f64);
    m.set("kv.detected", detected as f64);
    m.set("kv.corrected", corrected as f64);
    m.set("kv.uncorrectable", uncorrectable as f64);
    m.set("kv.repair_frac", ratio(corrected as f64, detected as f64));
    m.set("kv.payload_bytes_peak", peak.payload_bytes as f64);
    m.set("kv.metadata_bytes_peak", peak.metadata_bytes() as f64);
    m.set(
        "kv.meta_over_payload",
        ratio(peak.metadata_bytes() as f64, peak.payload_bytes as f64),
    );
    out.notes.push(format!(
        "shard-by-shard replay of {} requests through ServeSession::sweep_events: {} sweeps, {preempted} preemptions, {recovering} recoveries ({} rows re-fed), {poisoned} poisoned sweeps, {evicted} blocks evicted",
        requests.len(),
        by.count("model.sweep"),
        done.iter().map(|f| f.recovery_fed).sum::<usize>(),
    ));
    tr.write(ctx);
    by.total_s("model.sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stream: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("layer", 10, 70, Some(0)),
            span("gemm", 20, 50, Some(1)),
            span("head", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 60 - 25, 60 - 30, 30, 25]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", None, || 7);
        assert_eq!((v, t.len()), (7, 0));
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", Some(3));
        t.span("inner", Some(3), || ());
        t.exit(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
