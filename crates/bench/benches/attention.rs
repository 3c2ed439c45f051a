//! Micro-benches for the attention kernels on one worker: the wall-clock
//! companions of Fig. 9 and Tables 1–2 at a fixed small shape, driven
//! through the unified backend API.

use ft_bench::bench_arms;
use ft_core::backend::{AttentionBackend, AttentionRequest, BackendKind};
use ft_core::config::AttentionConfig;
use ft_core::decoupled::DecoupledOptions;
use ft_core::efta::EftaOptions;
use ft_num::rng::normal_tensor_f16;
use ft_sim::device::Device;
use std::hint::black_box;

/// Rounds of the group: every arm takes milliseconds.
const ROUNDS: usize = 10;

fn main() {
    rayon::set_thread_workers(1);
    let cfg = AttentionConfig::new(1, 4, 256, 64);
    let q = normal_tensor_f16(1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let k = normal_tensor_f16(2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let v = normal_tensor_f16(3, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
    let dev = Device::a100_40gb();
    let req = AttentionRequest::new(cfg, &q, &k, &v).with_device(&dev);

    let arms = [
        ("flash_unprotected", BackendKind::Flash),
        ("efta_unified", BackendKind::Efta(EftaOptions::optimized())),
        ("efta_per_step", BackendKind::Efta(EftaOptions::per_step())),
        (
            "decoupled_ft",
            BackendKind::Decoupled(DecoupledOptions::default()),
        ),
    ];
    let names = arms.map(|a| a.0);
    bench_arms("attention_256x64x4h", ROUNDS, &names, |i| {
        black_box(arms[i].1.try_run(&req).expect("fits the device"));
    });
}
