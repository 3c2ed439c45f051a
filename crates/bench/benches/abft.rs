//! Criterion micro-benches for the checksum algebra: encode, verify,
//! correct — the building blocks whose cost Fig. 11 compares.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_abft::strided::{encode_rows_strided, strided_sums, strided_sums_weighted, verify_strided};
use ft_abft::thresholds::Check;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_sim::gemm_nn;
use std::time::Duration;

fn bench_abft(c: &mut Criterion) {
    let mut rng = rng_from_seed(7);
    let k = normal_matrix_f16(&mut rng, 64, 64, 0.5).to_f32();
    let q = normal_matrix_f16(&mut rng, 64, 64, 0.5).to_f32();
    let s_mat = gemm_nn(&q, &k.transpose());
    let cs = encode_rows_strided(&k, 8, true);
    let c1 = gemm_nn(&q, &cs.w1.transpose());
    let c2 = gemm_nn(&q, &cs.w2.transpose());

    let mut g = c.benchmark_group("abft_64x64_block");
    g.sample_size(30).measurement_time(Duration::from_secs(2));
    g.bench_function("encode_strided_s8", |b| {
        b.iter(|| encode_rows_strided(&k, 8, true))
    });
    g.bench_function("encode_strided_s1", |b| {
        b.iter(|| encode_rows_strided(&k, 1, true))
    });
    g.bench_function("strided_sums", |b| b.iter(|| strided_sums(&s_mat, 8)));
    g.bench_function("strided_sums_weighted", |b| {
        b.iter(|| strided_sums_weighted(&s_mat, 8))
    });
    g.bench_function("verify_clean", |b| {
        b.iter(|| verify_strided(&s_mat, &c1, &c2, 8, Check::new(0.48, 1e-3)))
    });
    g.finish();
}

criterion_group!(benches, bench_abft);
criterion_main!(benches);
