//! The paper's evaluation — Figs. 9–15 and Tables 1–2 — and the stride
//! and block-size ablations, from one binary.
//!
//! ```text
//! cargo run --release -p ft-bench --bin paper                      # all, in paper order, ablations last
//! cargo run --release -p ft-bench --bin paper -- fig11 table1 --smoke  # the named ones
//! ```
//!
//! `ft_bench::paper` computes each figure; this prints them.

use ft_bench::paper::{Figure, FIGURES};
use ft_bench::{attention_workload, banner, HarnessArgs};
use ft_core::backend::{AttentionBackend, AttentionRequest, BackendKind};
use ft_core::efta::EftaOptions;

fn main() {
    let (args, names) = HarnessArgs::parse_with_names();
    if let Some(name) = names.iter().find(|n| FIGURES.iter().all(|f| f.0 != *n)) {
        let valid: Vec<_> = FIGURES.iter().map(|f| f.0).collect();
        eprintln!("unknown figure {name:?}; valid names: {}", valid.join(" "));
        std::process::exit(2);
    }
    banner("FT-Transformer paper evaluation", &args);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wall-clock cells: ms, min±IQR over {} rounds with the arms alternating, \
         {threads} worker threads; an overhead or speedup prints `unresolved` when \
         its two minimums differ by no more than the larger IQR\n",
        args.rounds()
    );
    // Warm the thread pool and allocator so the first timed row is not
    // penalised.
    let warm = args.medium_cfg(64);
    let (q, k, v) = attention_workload(&warm, 1);
    let _ =
        BackendKind::Efta(EftaOptions::optimized()).run(&AttentionRequest::new(warm, &q, &k, &v));
    let named = |f: &&Figure| names.is_empty() || names.iter().any(|n| n == f.0);
    for (_, title, figure) in FIGURES.iter().filter(named) {
        println!("=== {title} ===\n");
        for section in figure(&args) {
            print!("{section}");
        }
    }
}
