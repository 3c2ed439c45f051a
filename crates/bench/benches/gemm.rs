//! Micro-benches for the linears' GEMMs at the shapes of ftbench's
//! `bench-d64` model (hidden 256, FFN 1024, vocab 8192), on one core.
//!
//! * `gemm_packed_*` — one group per weight shape, `m × k · k × n`
//!   against the packed weight for a one-row decode step (`m1`) and an
//!   eight-row chunk (`m8`): the QKV and output projections (256 × 256),
//!   FFN up (256 × 1024) and down (1024 × 256), and the LM head
//!   (256 × 8192);
//! * `gemm_fault_pass` — the fault pass over an eight-row FFN-up product
//!   under a `BerInjector` at BER 1e-5 on the linear accumulators (about
//!   one chain in 400 fires and is recomputed) against `NoFaults` (which
//!   cannot fire, so the pass returns at once).
//!
//! Run with `cargo bench -p ft-bench --bench gemm`.

use ft_bench::bench_arms;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_sim::{gemm_fault_pass, gemm_packed, BerInjector, FaultSite, GemmCtx, NoFaults, PackedB};
use std::hint::black_box;

/// Rounds of each group: the largest arm (8 × 256 · 256 × 8192) takes
/// under a millisecond.
const ROUNDS: usize = 100;

fn main() {
    rayon::set_thread_workers(1);
    let mut rng = rng_from_seed(5);
    let mut matrix = |rows, cols| normal_matrix_f16(&mut rng, rows, cols, 0.5).to_f32();
    // (group, k, n) of each weight; each group's arms share its weight.
    let shapes = [
        ("gemm_packed_qkv_256x256", 256, 256),
        ("gemm_packed_ffn_up_256x1024", 256, 1024),
        ("gemm_packed_ffn_down_1024x256", 1024, 256),
        ("gemm_packed_head_256x8192", 256, 8192),
    ];
    for (group, k, n) in shapes {
        let w = PackedB::new(&matrix(k, n));
        let rows = [matrix(1, k), matrix(8, k)];
        bench_arms(group, ROUNDS, &["m1", "m8"], |i| {
            black_box(gemm_packed(&rows[i], &w));
        });
    }

    let a = matrix(8, 256);
    let w = PackedB::new(&matrix(256, 1024));
    let clean = gemm_packed(&a, &w);
    let mut c = [clean.clone(), clean];
    let ber = BerInjector::new(7, 1e-5).with_sites(&[FaultSite::LinearAccum]);
    let ctx = GemmCtx::new(FaultSite::LinearAccum, 0);
    let shape = |_| (256, 1024);
    bench_arms(
        "gemm_fault_pass_m8_ffn_up",
        ROUNDS,
        &["ber_1e-5", "no_faults"],
        |i| match i {
            0 => gemm_fault_pass(&mut c[0], &a, 0..8, &w, shape, &ber, ctx),
            _ => gemm_fault_pass(&mut c[1], &a, 0..8, &w, shape, &NoFaults, ctx),
        },
    );
    black_box(c);
}
