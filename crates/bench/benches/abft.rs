//! Micro-benches for the checksum algebra: encode, verify, correct — the
//! building blocks whose cost Fig. 11 compares.

use ft_abft::strided::{encode_rows_strided, strided_sums, strided_sums_weighted, verify_strided};
use ft_abft::thresholds::Check;
use ft_bench::bench_arms;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_sim::gemm_nn;
use std::hint::black_box;

/// Rounds of the group: every arm takes microseconds.
const ROUNDS: usize = 200;

fn main() {
    rayon::set_thread_workers(1);
    let mut rng = rng_from_seed(7);
    let k = normal_matrix_f16(&mut rng, 64, 64, 0.5).to_f32();
    let q = normal_matrix_f16(&mut rng, 64, 64, 0.5).to_f32();
    let s_mat = gemm_nn(&q, &k.transpose());
    let cs = encode_rows_strided(&k, 8, true);
    let c1 = gemm_nn(&q, &cs.w1.transpose());
    let c2 = gemm_nn(&q, &cs.w2.transpose());

    let names = [
        "encode_strided_s8",
        "encode_strided_s1",
        "strided_sums",
        "strided_sums_weighted",
        "verify_clean",
    ];
    bench_arms("abft_64x64_block", ROUNDS, &names, |i| match i {
        0 => drop(black_box(encode_rows_strided(&k, 8, true))),
        1 => drop(black_box(encode_rows_strided(&k, 1, true))),
        2 => drop(black_box(strided_sums(&s_mat, 8))),
        3 => drop(black_box(strided_sums_weighted(&s_mat, 8))),
        _ => drop(black_box(verify_strided(
            &s_mat,
            &c1,
            &c2,
            8,
            Check::new(0.48, 1e-3),
        ))),
    });
}
