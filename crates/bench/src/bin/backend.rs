//! Backend CLI — run any attention backend by name over a shape grid.
//!
//! The registry-driven entry point the unified API exists for: pick
//! pipelines with `--backend <name>` (repeatable; `all` sweeps the whole
//! registry), a shape with `--seq/--heads/--dim/--batch`, and compare
//! wall-clock, simulated-A100 time, and fault-tolerance activity side by
//! side.
//!
//! ```sh
//! cargo run -p ft-bench --release --bin backend -- --backend efta-o --backend flash --seq 512
//! cargo run -p ft-bench --release --bin backend -- --backend all
//! ```

use ft_bench::paper::Cell;
use ft_bench::{flag_value, ms, time_arms, HarnessArgs, TextTable};
use ft_core::backend::{AttentionBackend, AttentionRequest, BackendKind};
use ft_core::config::AttentionConfig;
use ft_num::rng::normal_tensor_f16;
use ft_sim::cost::CostModel;
use ft_sim::device::Device;

const USAGE: &str = "usage: backend [--backend <name|all>]... [--batch N] [--heads N] \
                     [--seq N] [--dim N] [--seed N]";

struct CliArgs {
    backends: Vec<BackendKind>,
    batch: usize,
    heads: usize,
    seq: usize,
    dim: usize,
    seed: u64,
}

/// Parse the flags; a missing or malformed value prints the usage and
/// exits 2, as an unknown backend name does.
fn parse_args() -> CliArgs {
    let mut out = CliArgs {
        backends: Vec::new(),
        batch: 1,
        heads: 4,
        seq: 256,
        dim: 64,
        seed: 2025,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--backend" => {
                let name: String = flag_value(&mut it, "--backend <name|all>", USAGE);
                if name == "all" {
                    out.backends.extend(BackendKind::all());
                } else {
                    match name.parse::<BackendKind>() {
                        Ok(kind) => out.backends.push(kind),
                        Err(e) => {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--batch" => out.batch = flag_value(&mut it, "--batch <usize>", USAGE),
            "--heads" => out.heads = flag_value(&mut it, "--heads <usize>", USAGE),
            "--seq" => out.seq = flag_value(&mut it, "--seq <usize>", USAGE),
            "--dim" => out.dim = flag_value(&mut it, "--dim <usize>", USAGE),
            "--seed" => out.seed = flag_value(&mut it, "--seed <u64>", USAGE),
            "--help" | "-h" => {
                println!("{USAGE}\nbackends: {}", BackendKind::NAMES.join(", "));
                std::process::exit(0);
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    if out.backends.is_empty() {
        out.backends = vec![
            "flash".parse().unwrap(),
            "efta".parse().unwrap(),
            "efta-o".parse().unwrap(),
        ];
    }
    out
}

fn main() {
    let args = parse_args();
    let cfg = AttentionConfig::new(args.batch, args.heads, args.seq, args.dim).with_auto_block();
    println!(
        "=== Attention backends @ batch={} heads={} seq={} dim={} block={} ===\n",
        cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, cfg.block
    );

    let q = normal_tensor_f16(args.seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let k = normal_tensor_f16(
        args.seed + 1,
        cfg.batch,
        cfg.heads,
        cfg.seq,
        cfg.head_dim,
        0.6,
    );
    let v = normal_tensor_f16(
        args.seed + 2,
        cfg.batch,
        cfg.heads,
        cfg.seq,
        cfg.head_dim,
        0.8,
    );
    let dev = Device::a100_40gb();
    let model = CostModel::a100_pcie_40gb();
    let req = AttentionRequest::new(cfg, &q, &k, &v).with_device(&dev);

    // Warm the thread pool so the first backend is not penalised.
    let _ = BackendKind::Flash.run(&req);

    let rounds = HarnessArgs::default().rounds();
    println!("wall: ms, min±IQR over {rounds} rounds with the backends alternating\n");
    let mut table = TextTable::new(&[
        "backend",
        "wall (ms)",
        "simA100 (ms)",
        "launches",
        "HBM (MiB)",
        "detected",
        "repaired",
    ]);
    let arms = time_arms(rounds, args.backends.len(), |i| {
        args.backends[i].try_run(&req)
    });
    for (kind, arm) in args.backends.iter().zip(arms) {
        match arm {
            Ok((out, t)) => {
                let total = out.timeline.total();
                table.row(&[
                    kind.to_string(),
                    Cell::Time(t).to_string(),
                    ms(out.timeline.simulated_time(&model)),
                    total.launches.to_string(),
                    format!("{:.1}", total.hbm_total() as f64 / (1 << 20) as f64),
                    out.report.total_detected().to_string(),
                    out.report.total_repaired().to_string(),
                ]);
            }
            Err(e) => {
                let mut row = vec![kind.to_string(), format!("failed: {e}")];
                row.resize(7, "-".into());
                table.row(&row);
            }
        }
    }
    println!("{}", table.render());
}
