//! `ftbench` — the repo's benchmark. One command runs one named workload,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! ftbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out f.json]
//! ftbench --smoke
//! ftbench --compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metric
//! glossary and the layer → metric interaction table.

mod attention;
mod catalog;
mod compare;
mod driver;
mod gen;
mod json;
mod run;
mod serving;
mod shadow;
mod stats;
mod system;
mod tracing;

use catalog::WORKLOADS;
use json::Json;
use run::{Ctx, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 2025;
const DEFAULT_SECONDS: f64 = catalog::RUN_SECONDS as f64;

const USAGE: &str =
    "usage: ftbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out f.json]
       ftbench --smoke
       ftbench --compare A.json B.json [--bench BENCHMARK.json]
       ftbench --print-benchmark-json";

enum Command {
    Run {
        workload: String,
        ctx: Ctx,
        out: Option<PathBuf>,
    },
    Smoke,
    PrintBenchmarkJson,
    Compare {
        a: PathBuf,
        b: PathBuf,
        bench: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out: Option<PathBuf> = None;
    let mut smoke = false;
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "--smoke" => smoke = true,
            "--print-benchmark-json" => return Ok(Command::PrintBenchmarkJson),
            "--compare" => {
                let a = PathBuf::from(value(&mut i, "--compare")?);
                let b = PathBuf::from(value(&mut i, "--compare")?);
                compare = Some((a, b));
            }
            "--bench" => bench = PathBuf::from(value(&mut i, "--bench")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b, bench });
    }
    if smoke {
        return Ok(Command::Smoke);
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; expected one of: {}",
            names.join(", ")
        ));
    }
    let spans_out = out.as_ref().map(|p| p.with_extension("spans.jsonl"));
    Ok(Command::Run {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            smoke: false,
            trace,
            spans_out,
        },
        out,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> RunOutput {
    match name {
        "decode_steady" => serving::decode_steady(ctx),
        "prefill_long" => serving::prefill_long(ctx),
        "burst_open" => serving::burst_open(ctx),
        "fault_storm" => serving::fault_storm(ctx),
        "attn_prefill" => attention::attn_prefill(ctx),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(out: &RunOutput) -> Json {
    let metrics = out
        .metrics
        .in_order()
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The full record: provenance, checks and notes around the result.
fn record_json(workload: &str, ctx: &Ctx, out: &RunOutput, wall_s: f64) -> Json {
    let checks = out
        .checks
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", Json::str(c.name)),
                ("pass", Json::Bool(c.pass)),
                ("hard", Json::Bool(c.hard)),
                ("detail", Json::str(c.detail.clone())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("bench", Json::str("ftbench")),
        ("workload", Json::str(workload)),
        ("seed", Json::Int(ctx.seed)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("git_sha", Json::str(system::git_sha())),
        ("nproc", Json::Int(system::nproc() as u64)),
        ("fleet_workers", Json::Int(system::workers() as u64)),
        ("rustc", Json::str(system::rustc_version())),
        ("run_wall_s", Json::Num(wall_s)),
        ("checks", Json::Arr(checks)),
        (
            "rounds",
            Json::Obj(
                out.rounds
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(out.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
        ("result", result_json(out)),
    ])
}

fn print_human(workload: &str, ctx: &Ctx, out: &RunOutput) {
    eprintln!(
        "ftbench {workload} seed={} seconds={} trace={} — {} attempted, {} failed, correct={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        out.attempted,
        out.failed,
        out.correct()
    );
    for (name, unit, value) in out.metrics.in_order() {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    for c in &out.checks {
        let verdict = match (c.pass, c.hard) {
            (true, _) => "ok",
            (false, true) => "FAILED",
            (false, false) => "warn",
        };
        eprintln!("  check {:<38} {verdict}: {}", c.name, c.detail);
    }
    for n in &out.notes {
        eprintln!("  note: {n}");
    }
}

/// Run one workload; stdout gets the provenance record, then the result
/// object as its last line.
fn run_and_report(workload: &str, ctx: &Ctx, out_path: Option<&PathBuf>) -> bool {
    let t0 = Instant::now();
    let out = run_workload(workload, ctx);
    let record = record_json(workload, ctx, &out, t0.elapsed().as_secs_f64());
    print_human(workload, ctx, &out);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, record.render() + "\n") {
            eprintln!("ftbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", record.render());
    println!("{}", result_json(&out).render());
    out.correct()
}

/// All five workloads at a fraction of their size: a wiring check for CI
/// and for a builder about to spend twenty minutes on the real thing.
fn smoke() -> bool {
    let mut all = true;
    for w in &WORKLOADS {
        let ctx = Ctx {
            seed: DEFAULT_SEED,
            seconds: 1.0,
            smoke: true,
            trace: false,
            spans_out: None,
        };
        all &= run_and_report(w.name, &ctx, None);
    }
    all
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ftbench: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ftbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::Run { workload, ctx, out } => run_and_report(&workload, &ctx, out.as_ref()),
        Command::Smoke => smoke(),
        Command::PrintBenchmarkJson => {
            print!("{}", catalog::benchmark_json().pretty());
            true
        }
        Command::Compare { a, b, bench } => match compare::compare(&a, &b, &bench) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("ftbench: {e}");
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
