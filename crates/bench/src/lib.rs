//! # ft-bench — experiment harness for the FT-Transformer reproduction
//!
//! One `paper` binary reproduces the paper's evaluation section (Figs.
//! 9–15, Tables 1–2, and the stride and block-size ablations: `cargo run
//! -p ft-bench --release --bin paper [-- fig11 table1 …]`, built on the
//! [`paper`] module); the repo-native benches cover the serving path
//! (`backend`, `decode`, `serve`, `campaign`), beside the micro-benches
//! (`cargo bench -p ft-bench`) — see `docs/benches.md` for what each one
//! reproduces. Every binary except `backend` accepts:
//!
//! * `--full` — run the paper's exact sizes (seq 512…16k, 16k total
//!   tokens). Hours of CPU; the default is a geometry-preserving 1/8
//!   scale whose *ratios* match.
//! * `--smoke` — CI sizes: scale 1/128 and [`SMOKE_TRIALS`] campaign
//!   trials unless `--trials` is given.
//! * `--scale <f>` — custom scale factor.
//! * `--trials <n>` — statistical campaign size.
//! * `--seed <n>` — RNG seed.
//!
//! Simulated-A100 roofline numbers are always computed at the full paper
//! sizes (they are analytic in the shapes); wall-clock numbers come from
//! the actual Rust kernels at the chosen scale. Every wall-clock number is
//! timed by [`time_arms`] and printed as `min±IQR` over rounds in which the
//! compared arms alternate.

#![warn(missing_docs)]

use ft_core::config::AttentionConfig;
use ft_num::rng::normal_tensor_f16;
use ft_num::Tensor4F16;
use std::convert::Infallible;
use std::str::FromStr;
use std::time::Instant;

pub use ft_inject::report::{bar, ms, pct, TextTable};

pub mod paper;

/// The paper's sequence-length sweep (Figs. 9–11, 13, Tables 1–2).
pub const PAPER_SEQS: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];

/// The paper's axis labels for [`PAPER_SEQS`].
pub const PAPER_LABELS: [&str; 6] = ["512", "1k", "2k", "4k", "8k", "16k"];

/// Campaign trials under `--smoke` unless `--trials` is given.
pub const SMOKE_TRIALS: u64 = 8;

const USAGE: &str = "usage: [--full | --smoke | --scale <float> | --trials <u64> | --seed <u64>]";

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
    /// The CI smoke configuration: scale 1/128 (the sequence sweep floors
    /// at 64 rows, so the smallest scale that still runs every row) and
    /// [`SMOKE_TRIALS`] campaign trials.
    pub fn smoke() -> Self {
        HarnessArgs {
            scale: 1.0 / 128.0,
            trials: SMOKE_TRIALS,
            smoke: true,
            ..Self::default()
        }
    }

    /// Parse from `std::env::args`, warning about anything else.
    pub fn parse() -> Self {
        let (args, rest) = Self::parse_with_names();
        for other in rest {
            eprintln!("ignoring unknown argument {other}");
        }
        args
    }

    /// Parse from `std::env::args`, returning the arguments that are not
    /// flags (the `paper` binary's figure names) beside the flags. A flag
    /// with a missing or malformed value prints the usage and exits 2.
    pub fn parse_with_names() -> (Self, Vec<String>) {
        let mut out = HarnessArgs::default();
        let mut trials = None;
        let mut rest = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => {
                    out.full = true;
                    out.scale = 1.0;
                }
                "--smoke" => {
                    out.smoke = true;
                    out.scale = Self::smoke().scale;
                }
                "--scale" => out.scale = flag_value(&mut it, "--scale <float>", USAGE),
                "--trials" => trials = Some(flag_value(&mut it, "--trials <u64>", USAGE)),
                "--seed" => out.seed = flag_value(&mut it, "--seed <u64>", USAGE),
                other if other.starts_with("--") => eprintln!("ignoring unknown argument {other}"),
                _ => rest.push(arg),
            }
        }
        if let Some(t) = trials.or(out.smoke.then_some(SMOKE_TRIALS)) {
            out.trials = t;
        }
        (out, rest)
    }

    /// Rounds each timed arm runs in [`time_arms`]: 5, or 3 under `--smoke`.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            3
        } else {
            5
        }
    }

    /// The paper's sequence-length sweep, scaled.
    pub fn sweep_seqs(&self) -> Vec<usize> {
        PAPER_SEQS
            .iter()
            .map(|&s| ((s as f64 * self.scale) as usize).max(64))
            .collect()
    }

    /// Labels for the sweep (paper's axis labels).
    pub fn sweep_labels(&self) -> Vec<String> {
        self.sweep_seqs()
            .iter()
            .zip(PAPER_LABELS)
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
        AttentionConfig::new(1, cfg.heads, PAPER_SEQS[idx], cfg.head_dim)
            .with_total_tokens(16 * 1024)
    }
}

/// The next argument parsed as a `flag`'s value; when it is missing or
/// malformed, print `flag` and `usage` and exit 2.
pub fn flag_value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str, usage: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: expected {flag}\n{usage}");
        std::process::exit(2)
    })
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

/// Wall-clock spread of one arm over its rounds, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Fastest round.
    pub min: f64,
    /// Interquartile range of the rounds.
    pub iqr: f64,
}

impl Timing {
    fn of(mut secs: Vec<f64>) -> Self {
        secs.sort_by(f64::total_cmp);
        let quartile = |q: f64| {
            let pos = q * (secs.len() - 1) as f64;
            let (lo, hi) = (secs[pos.floor() as usize], secs[pos.ceil() as usize]);
            lo + (hi - lo) * pos.fract()
        };
        Timing {
            min: secs[0],
            iqr: quartile(0.75) - quartile(0.25),
        }
    }

    /// `self.min - base.min`, or `None` when that gap is no larger than
    /// the larger of the two IQRs: the rounds cannot tell the arms apart.
    pub fn gap_over(self, base: Timing) -> Option<f64> {
        let gap = self.min - base.min;
        (gap.abs() > self.iqr.max(base.iqr)).then_some(gap)
    }

    /// Overhead over `base` as a fraction of it (negative when faster),
    /// or `None` when unresolved (see [`Timing::gap_over`]).
    pub fn overhead(self, base: Timing) -> Option<f64> {
        self.gap_over(base).map(|gap| gap / base.min)
    }

    /// How many times faster `fast` is than `self`, or `None` when
    /// unresolved (see [`Timing::gap_over`]).
    pub fn speedup(self, fast: Timing) -> Option<f64> {
        self.gap_over(fast).map(|_| self.min / fast.min)
    }

    /// `min±IQR` with three decimals, in units of `1 / per_sec` seconds
    /// (`1e3`: milliseconds).
    pub fn render(self, per_sec: f64) -> String {
        format!("{:.3}±{:.3}", self.min * per_sec, self.iqr * per_sec)
    }
}

/// Time `arms` arms over `rounds` rounds: inside a round each arm runs
/// once (`run(i)` runs arm `i`), and the order rotates by one arm per
/// round, so no arm always runs first or after the same neighbour. An arm
/// that returns `Err` is not run again and reports that error; every
/// other arm reports its last result and its [`Timing`].
pub fn time_arms<T, E>(
    rounds: usize,
    arms: usize,
    mut run: impl FnMut(usize) -> Result<T, E>,
) -> Vec<Result<(T, Timing), E>> {
    assert!(rounds >= 1 && arms >= 1);
    let mut secs = vec![Vec::with_capacity(rounds); arms];
    let mut last: Vec<Option<Result<T, E>>> = (0..arms).map(|_| None).collect();
    for round in 0..rounds {
        for i in (0..arms).map(|j| (round + j) % arms) {
            if let Some(Err(_)) = last[i] {
                continue;
            }
            let t0 = Instant::now();
            let out = run(i);
            secs[i].push(t0.elapsed().as_secs_f64());
            last[i] = Some(out);
        }
    }
    last.into_iter()
        .zip(secs)
        .map(|(out, secs)| Ok((out.expect("every arm ran")?, Timing::of(secs))))
        .collect()
}

/// Time one micro-bench group and print it: each of the named arms
/// (`run(i)` runs arm `i`) runs once untimed, then `rounds` rounds of
/// [`time_arms`], and each arm prints its name and `min±IQR` in µs
/// (milliseconds' three decimals would round a microsecond arm away).
pub fn bench_arms(group: &str, rounds: usize, names: &[&str], mut run: impl FnMut(usize)) {
    (0..names.len()).for_each(&mut run);
    let timed = time_arms(rounds, names.len(), |i| {
        run(i);
        Ok::<_, Infallible>(())
    });
    let mut table = TextTable::new(&["arm", "µs (min±IQR)"]);
    for (name, Ok(((), t))) in names.iter().zip(timed) {
        table.row(&[name.to_string(), t.render(1e6)]);
    }
    println!("--- {group}: {rounds} rounds ---\n{}", table.render());
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
    fn timing_quartiles_and_resolution() {
        let t = Timing::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(t, Timing { min: 1.0, iqr: 2.0 });
        let three = Timing::of(vec![3.0, 1.0, 2.0]);
        assert_eq!(three, Timing { min: 1.0, iqr: 1.0 });
        let fast = Timing {
            min: 10.0,
            iqr: 1.0,
        };
        let slow = Timing {
            min: 12.0,
            iqr: 0.5,
        };
        assert_eq!(slow.overhead(fast), Some(0.2));
        assert_eq!(fast.overhead(slow), Some(-2.0 / 12.0));
        assert_eq!(slow.speedup(fast), Some(1.2));
        let noisy = Timing {
            min: 12.0,
            iqr: 2.0,
        };
        assert_eq!(noisy.overhead(fast), None);
        assert_eq!(noisy.speedup(fast), None);
    }

    #[test]
    fn time_arms_rotates_and_drops_failed_arms() {
        let mut order = Vec::new();
        let out = time_arms(3, 3, |i| {
            order.push(i);
            if i == 2 && order.len() > 2 {
                Err("oom")
            } else {
                Ok(i * 10)
            }
        });
        // Round 0 runs 0,1,2 (arm 2 fails); round 1 starts at arm 1;
        // round 2 at arm 2, which is skipped.
        assert_eq!(order, [0, 1, 2, 1, 0, 0, 1]);
        assert_eq!(out[0].as_ref().map(|r| r.0), Ok(0));
        assert_eq!(out[1].as_ref().map(|r| r.0), Ok(10));
        assert_eq!(out[2].as_ref().map(|r| r.0), Err(&"oom"));
    }
}
