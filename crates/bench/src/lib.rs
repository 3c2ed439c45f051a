//! # ft-bench — experiment harness for the FT-Transformer reproduction
//!
//! One binary per table/figure of the paper's evaluation section (run with
//! `cargo run -p ft-bench --release --bin figNN`), repo-native benches for
//! the serving path (`backend`, `decode`, `serve`, `ablations`), and
//! criterion micro-benches — see `docs/benches.md` for what each one
//! reproduces. Every binary accepts:
//!
//! * `--full` — run the paper's exact sizes (seq 512…16k, 16k total
//!   tokens). Hours of CPU; the default is a geometry-preserving 1/8
//!   scale whose *ratios* match.
//! * `--scale <f>` — custom scale factor.
//! * `--trials <n>` — statistical campaign size.
//! * `--seed <n>` — RNG seed.
//!
//! Simulated-A100 roofline numbers are always computed at the full paper
//! sizes (they are analytic in the shapes); wall-clock numbers come from
//! the actual Rust kernels at the chosen scale.

#![warn(missing_docs)]

use ft_core::config::AttentionConfig;
use ft_num::rng::normal_tensor_f16;
use ft_num::Tensor4F16;
use std::time::Instant;

pub use ft_inject::report::{bar, ms, pct, TextTable};

/// Parsed command-line arguments shared by all bench binaries.
#[derive(Clone, Copy, Debug)]
pub struct HarnessArgs {
    /// Linear scale factor on sequence lengths and total tokens.
    pub scale: f64,
    /// Campaign trial count.
    pub trials: u64,
    /// Root RNG seed.
    pub seed: u64,
    /// True when running the paper's full sizes.
    pub full: bool,
    /// CI smoke mode: minimal sizes and trial counts, seconds not minutes.
    pub smoke: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 1.0 / 8.0,
            trials: 200,
            seed: 2025,
            full: false,
            smoke: false,
        }
    }
}

impl HarnessArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> Self {
        let mut out = HarnessArgs::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    out.full = true;
                    out.scale = 1.0;
                }
                "--smoke" => {
                    // The sequence sweep floors at 64 rows, so 1/128 is
                    // the smallest scale that still runs every row.
                    out.smoke = true;
                    out.scale = 1.0 / 128.0;
                }
                "--scale" => {
                    i += 1;
                    out.scale = args[i].parse().expect("--scale <float>");
                }
                "--trials" => {
                    i += 1;
                    out.trials = args[i].parse().expect("--trials <u64>");
                }
                "--seed" => {
                    i += 1;
                    out.seed = args[i].parse().expect("--seed <u64>");
                }
                // Binary-specific switches (parsed by the binaries via
                // `has_flag`); listed here so the shared parser does not
                // warn about them.
                "--bounded-only" | "--recovery-only" | "--latency-only" | "--spec-only" => {}
                other => {
                    eprintln!("ignoring unknown argument {other}");
                }
            }
            i += 1;
        }
        out
    }

    /// The paper's sequence-length sweep, scaled.
    pub fn sweep_seqs(&self) -> Vec<usize> {
        [512usize, 1024, 2048, 4096, 8192, 16384]
            .iter()
            .map(|&s| ((s as f64 * self.scale) as usize).max(64))
            .collect()
    }

    /// Labels for the sweep (paper's axis labels).
    pub fn sweep_labels(&self) -> Vec<String> {
        let paper = ["512", "1k", "2k", "4k", "8k", "16k"];
        self.sweep_seqs()
            .iter()
            .zip(paper)
            .map(|(s, p)| {
                if self.full {
                    p.to_string()
                } else {
                    format!("{p}→{s}")
                }
            })
            .collect()
    }

    /// Total token budget (paper: 16k), scaled.
    pub fn total_tokens(&self) -> usize {
        ((16 * 1024) as f64 * self.scale) as usize
    }

    /// The paper's medium attention setting at a swept sequence length.
    pub fn medium_cfg(&self, seq: usize) -> AttentionConfig {
        AttentionConfig::medium(1, seq).with_total_tokens(self.total_tokens())
    }

    /// The paper's large attention setting at a swept sequence length.
    pub fn large_cfg(&self, seq: usize) -> AttentionConfig {
        AttentionConfig::large(1, seq).with_total_tokens(self.total_tokens())
    }

    /// The full-size (paper) twin of a swept config, for the analytic
    /// simulated-A100 numbers.
    pub fn full_cfg(&self, cfg: &AttentionConfig, idx: usize) -> AttentionConfig {
        let paper_seq = [512usize, 1024, 2048, 4096, 8192, 16384][idx];
        AttentionConfig::new(1, cfg.heads, paper_seq, cfg.head_dim).with_total_tokens(16 * 1024)
    }
}

/// Generate a seeded attention workload for `cfg`.
pub fn attention_workload(
    cfg: &AttentionConfig,
    seed: u64,
) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
    let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
    (q, k, v)
}

/// Run `f` `reps` times and return (last result, best wall-clock seconds).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.unwrap(), best)
}

/// Header banner shared by the binaries.
pub fn banner(title: &str, args: &HarnessArgs) {
    println!("=== {title} ===");
    println!(
        "scale={:.3} (total tokens {}) trials={} seed={}{}",
        args.scale,
        args.total_tokens(),
        args.trials,
        args.seed,
        if args.full { " [FULL paper sizes]" } else { "" }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_geometry_preserving() {
        let a = HarnessArgs::default();
        let seqs = a.sweep_seqs();
        assert_eq!(seqs.len(), 6);
        assert_eq!(seqs[0], 64);
        assert_eq!(seqs[5], 2048);
        assert_eq!(a.total_tokens(), 2048);
        for w in seqs.windows(2) {
            assert_eq!(w[1] / w[0], 2);
        }
    }

    #[test]
    fn batch_keeps_total_tokens() {
        let a = HarnessArgs::default();
        for seq in a.sweep_seqs() {
            let cfg = a.medium_cfg(seq);
            assert_eq!(cfg.batch * cfg.seq, a.total_tokens());
        }
    }

    #[test]
    fn full_cfg_restores_paper_sizes() {
        let a = HarnessArgs::default();
        let scaled = a.medium_cfg(64);
        let full = a.full_cfg(&scaled, 0);
        assert_eq!(full.seq, 512);
        assert_eq!(full.batch * full.seq, 16 * 1024);
        assert_eq!(full.heads, 16);
    }

    #[test]
    fn time_best_returns_min() {
        let (_, t) = time_best(3, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(t >= 0.001);
    }
}
