//! Micro-benches for the attention kernels on one worker: the wall-clock
//! companions of Fig. 9 and Tables 1–2 at a fixed small shape, driven
//! through the unified backend API, and the pieces of one EFTA step.
//!
//! * `attention_256x64x4h` — the four kernels end to end;
//! * `expf_64x64` — a 64 × 64 block of softmax arguments `s − m` through
//!   `ft_num::expf_slice` against libm's `f32::exp`, element by element;
//! * `checksum_products_64x8` — a step's two 8-wide checksum products
//!   (`q · w1`, `q · w2` against a 64 × 8 fold) for m = 1, 16 and 64 query
//!   rows;
//! * `efta_phases_medium_1x1024` — each phase of one `Efta(optimized)`
//!   call at `medium(1, 1024)` as a share of the same call's `gemm1`
//!   phase, the median over a few calls.
//!
//! Run with `cargo bench -p ft-bench --bench attention`.

use ft_bench::bench_arms;
use ft_core::backend::{AttentionBackend, AttentionRequest, BackendKind};
use ft_core::config::AttentionConfig;
use ft_core::decoupled::DecoupledOptions;
use ft_core::efta::EftaOptions;
use ft_num::expf_slice;
use ft_num::rng::{normal_matrix_f16, normal_tensor_f16, rng_from_seed};
use ft_sim::device::Device;
use ft_sim::{gemm_nn, gemm_nn_pair};
use std::hint::black_box;

/// Rounds of the kernel group: every arm takes milliseconds.
const ROUNDS: usize = 10;
/// Rounds of the groups whose arms take microseconds.
const MICRO_ROUNDS: usize = 200;
/// `Efta(optimized)` calls the phase shares are the median of.
const PHASE_CALLS: usize = 5;

fn main() {
    rayon::set_thread_workers(1);
    kernels();
    exp_block();
    checksum_products();
    efta_phases();
}

fn kernels() {
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

/// A 64 × 64 score block `S = Q·Kᵀ` at the kernels' scale, each row less
/// its max: the arguments of one step's softmax exponentials.
fn exp_block() {
    let mut rng = rng_from_seed(11);
    let q = normal_matrix_f16(&mut rng, 64, 64, 0.6).to_f32();
    let kt = normal_matrix_f16(&mut rng, 64, 64, 0.6).to_f32();
    let mut s = gemm_nn(&q, &kt);
    for i in 0..s.rows() {
        let row = s.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        row.iter_mut().for_each(|v| *v = (*v - max) / 8.0);
    }
    let mut p = [s.clone(), s.clone()];
    bench_arms(
        "expf_64x64",
        MICRO_ROUNDS,
        &["expf_slice", "f32_exp"],
        |i| {
            let p = &mut p[i];
            p.as_mut_slice().copy_from_slice(s.as_slice());
            match i {
                0 => expf_slice(p.as_mut_slice()),
                _ => p.as_mut_slice().iter_mut().for_each(|v| *v = v.exp()),
            }
            black_box(p);
        },
    );
}

/// `q · w1` and `q · w2` for m query rows against a 64 × 8 checksum fold
/// (GEMM I's `S_c1`/`S_c2` against `Kᵀ`'s fold; GEMM II's `O_c1`/`O_c2`
/// against V's have the same shape), the two products side by side as the
/// step runs them.
fn checksum_products() {
    let mut rng = rng_from_seed(12);
    let mut matrix = |rows, cols| normal_matrix_f16(&mut rng, rows, cols, 0.5).to_f32();
    let (w1, w2) = (matrix(64, 8), matrix(64, 8));
    let qs = [1, 16, 64].map(|m| matrix(m, 64));
    bench_arms(
        "checksum_products_64x8",
        MICRO_ROUNDS,
        &["m1", "m16", "m64"],
        |i| {
            black_box(gemm_nn_pair(&qs[i], (&w1, &w2)));
        },
    );
}

fn efta_phases() {
    let cfg = AttentionConfig::medium(1, 1024);
    let q = normal_tensor_f16(1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let k = normal_tensor_f16(2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
    let v = normal_tensor_f16(3, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
    let req = AttentionRequest::new(cfg, &q, &k, &v);
    let kind = BackendKind::Efta(EftaOptions::optimized());
    let calls: Vec<[f64; 6]> = (0..=PHASE_CALLS)
        .map(|_| {
            let ph = kind.run(&req).phases;
            [
                ph.gemm1,
                ph.gemm1_protect,
                ph.softmax,
                ph.softmax_protect,
                ph.gemm2,
                ph.gemm2_protect,
            ]
        })
        .skip(1)
        .collect();
    let names = [
        "gemm1",
        "gemm1_protect",
        "softmax",
        "softmax_protect",
        "gemm2",
        "gemm2_protect",
    ];
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    println!("--- efta_phases_medium_1x1024: median of {PHASE_CALLS} calls ---");
    for (p, name) in names.iter().enumerate() {
        let ms = median(calls.iter().map(|c| c[p] * 1e3).collect());
        let share = median(calls.iter().map(|c| c[p] / c[0]).collect());
        println!("{name:<16} {ms:>8.1} ms  {share:>5.2}x gemm1");
    }
    let protect = median(calls.iter().map(|c| (c[1] + c[3] + c[5]) / c[0]).collect());
    println!("{:<16} {:>11}  {protect:>5.2}x gemm1", "protect_total", "");
}
