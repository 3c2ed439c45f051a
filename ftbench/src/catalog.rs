//! The benchmark's vocabulary: workload names, every metric's name, unit,
//! direction and regression bound. `BENCHMARK.json` at the repo root is the
//! committed copy of this file; a unit test keeps the two identical.

use crate::json::Json;
use std::collections::BTreeMap;

/// `--seconds` the driver passes: the length of one run's measured phase.
pub const RUN_SECONDS: u64 = 20;

/// The benchmark's directory and the command that builds and runs it from
/// the root of a checkout.
pub const PATHS: [&str; 1] = ["ftbench"];
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "ftbench/Cargo.toml",
    "--",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "decode_steady",
        why: "closed loop, 8 clients, prompt 16 + 48 tokens: one row per stream per sweep, so QKV/FFN/LM-head linears, sampling and event routing do the work; attention tile and cache do almost none",
    },
    Workload {
        name: "prefill_long",
        why: "closed loop, 2 clients, prompt 768 + 8 tokens: chunked prefill over a growing cache, where the fused attention tile and KvCache::append do their most work and the LM head none",
    },
    Workload {
        name: "burst_open",
        why: "open loop, a burst of 12 mixed requests (prompts 8-128, three classes, windows) every 2 s into 4 slots per shard: the only load where admission order, preemption and window eviction decide latency",
    },
    Workload {
        name: "fault_storm",
        why: "offline batch under cache-resident BER 1e-4 with partial re-prefill recovery: the same layers on their locate/correct/poison/recover path, so a clean-path gain that costs repair shows",
    },
    Workload {
        name: "attn_prefill",
        why: "the paper's own experiment: 16 heads x 64, seq 1024 through AttentionBackend::run (EFTA vs unprotected vs decoupled) plus one-row decode steps; serving layers do nothing",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (see the README's per-workload
/// definitions). The timing bounds are the contract's maximum: the builder's
/// shared 2-vCPU host moves every wall-clock figure by 5–20 % for minutes at
/// a time whatever the benchmark does (README, "Bounds"; `baseline/SPREAD.md`).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tokens_per_s",
        unit: "tok/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttft_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tpot_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ft_time_ratio",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_ok_frac",
        unit: "frac",
        better: Better::Higher,
        bound: 0.1,
    },
    EndToEnd {
        name: "token_match_frac",
        unit: "frac",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "cache_bytes_per_token",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, grouped by the module they observe. A workload that
/// does not exercise a layer reports 0 for it (the README's interaction
/// table says which workload feeds which metric).
pub const PER_LAYER: [PerLayer; 88] = [
    // fleet — ft_transformer::{fleet, engine}, seen through StreamHandles.
    pl("fleet.ttft_ms_tail", "ms", Lower),
    pl("fleet.ttft_tail_pct", "%", Higher),
    pl("fleet.itl_ms_tail", "ms", Lower),
    pl("fleet.itl_tail_pct", "%", Higher),
    pl("fleet.ttft_latency_ms_p50", "ms", Lower),
    pl("fleet.ttft_batch_ms_p50", "ms", Lower),
    pl("fleet.preemptions", "count", Lower),
    pl("fleet.migrations", "count", Lower),
    pl("fleet.recoveries", "count", Lower),
    pl("fleet.recovery_fed_rows", "count", Lower),
    pl("fleet.shard_token_imbalance", "x", Lower),
    pl("fleet.peak_cache_bytes", "B", Lower),
    pl("fleet.idle_frac", "frac", Lower),
    pl("fleet.requests", "count", Higher),
    pl("driver.late_ms_max", "ms", Lower),
    // serve — ft_core::serve::DecodeScheduler.
    pl("serve.plan_calls", "count", Lower),
    pl("serve.plan_us_p50", "us", Lower),
    pl("serve.plan_s", "s", Lower),
    pl("serve.record_s", "s", Lower),
    pl("serve.streams_per_sweep_mean", "count", Higher),
    pl("serve.rows_per_sweep_mean", "count", Higher),
    pl("serve.prefill_rows_frac", "frac", Lower),
    // model — ft_transformer::model (sweep, embedding, norms, LM head).
    pl("model.sweeps", "count", Lower),
    pl("model.sweep_ms_p50", "ms", Lower),
    pl("model.sweep_ms_tail", "ms", Lower),
    pl("model.sweep_tail_pct", "%", Higher),
    pl("model.prefill_sweep_s", "s", Lower),
    pl("model.decode_sweep_s", "s", Lower),
    pl("model.mixed_sweep_s", "s", Lower),
    pl("model.embed_s", "s", Lower),
    pl("model.norm_s", "s", Lower),
    pl("model.lm_head_s", "s", Lower),
    pl("model.lm_head_rows", "count", Lower),
    pl("model.lm_head_share", "frac", Lower),
    pl("model.sample_s", "s", Lower),
    pl("model.glue_s", "s", Lower),
    pl("model.arm_token_agree_frac", "frac", Higher),
    // linear / ffn — ft_transformer::{linear, ffn}.
    pl("linear.qkvo_s", "s", Lower),
    pl("linear.qkvo_rows", "count", Lower),
    pl("linear.ffn_s", "s", Lower),
    pl("linear.calls", "count", Lower),
    pl("linear.flops_computed", "flop", Lower),
    pl("linear.gflops", "Gflop/s", Higher),
    pl("linear.share", "frac", Lower),
    pl("linear.ft_ratio", "x", Lower),
    pl("ffn.activation_s", "s", Lower),
    // kv — ft_core::kv.
    pl("kv.append_s", "s", Lower),
    pl("kv.append_rows", "count", Lower),
    pl("kv.us_per_row", "us", Lower),
    pl("kv.evict_s", "s", Lower),
    pl("kv.evicted_blocks", "count", Lower),
    pl("kv.expose_s", "s", Lower),
    pl("kv.payload_bytes_peak", "B", Lower),
    pl("kv.metadata_bytes_peak", "B", Lower),
    pl("kv.meta_over_payload", "x", Lower),
    pl("kv.share", "frac", Lower),
    pl("kv.ft_ratio", "x", Lower),
    pl("kv.detected", "count", Lower),
    pl("kv.corrected", "count", Higher),
    pl("kv.uncorrectable", "count", Lower),
    pl("kv.repair_frac", "frac", Higher),
    // decode — the attention tile, BackendKind::decode_sweep.
    pl("decode.sweep_s", "s", Lower),
    pl("decode.calls", "count", Lower),
    pl("decode.rows", "count", Lower),
    pl("decode.bytes_read_computed", "B", Lower),
    pl("decode.flops_computed", "flop", Lower),
    pl("decode.gbps_computed", "GB/s", Higher),
    pl("decode.share", "frac", Lower),
    pl("decode.ft_ratio", "x", Lower),
    // efta / decoupled / abft / num — the prefill kernels and their parts.
    pl("efta.ms_p50", "ms", Lower),
    pl("efta_unprotected.ms_p50", "ms", Lower),
    pl("decoupled.ms_p50", "ms", Lower),
    pl("decoupled_base.ms_p50", "ms", Lower),
    pl("efta.speedup_vs_decoupled", "x", Higher),
    pl("efta.decode_step_ms_p50", "ms", Lower),
    pl("efta.protect_share", "frac", Lower),
    pl("efta.flops_computed", "flop", Lower),
    pl("efta.sim_a100_ms", "ms", Lower),
    pl("efta.max_abs_err", "abs", Lower),
    pl("abft.encode_ns_per_elem", "ns", Lower),
    pl("abft.verify_ns_per_elem", "ns", Lower),
    pl("num.f16_to_f32_ns_per_elem", "ns", Lower),
    // sim / trace — benchmark health.
    pl("sim.faults_fired", "count", Higher),
    pl("sim.fault_time_ratio", "x", Lower),
    pl("trace.overhead_frac", "frac", Lower),
    pl("trace.shadow_vs_session_ratio", "x", Lower),
    pl("trace.self_sum_frac", "frac", Higher),
    pl("trace.spans", "count", Lower),
];

/// A run's metric values, keyed by catalog name. Every catalog name of the
/// active set is present from the start, so a run always prints them all.
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    trace: bool,
}

impl Metrics {
    pub fn new(trace: bool) -> Self {
        let values = if trace {
            PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, 0.0)).collect()
        };
        Metrics { values, trace }
    }

    /// Set a metric of the active set. A name outside the catalog is a bug
    /// in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric {name:?} is not in the active catalog set"),
        }
    }

    /// Whether this is the per-layer set (a traced run's).
    pub fn is_trace(&self) -> bool {
        self.trace
    }

    /// `(name, unit, value)` in catalog order.
    pub fn in_order(&self) -> Vec<(&'static str, &'static str, f64)> {
        let names: Vec<(&'static str, &'static str)> = if self.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| (name, unit, self.values[name]))
            .collect()
    }
}

/// `BENCHMARK.json` as this catalog defines it.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_committed_copy_of_the_catalog() {
        // Tests run from the package directory; the file sits one level up.
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            Json::parse(&benchmark_json().pretty()).unwrap(),
            "regenerate with `ftbench --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
