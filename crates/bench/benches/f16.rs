//! Micro-benches for the software binary16 substrate.

use ft_bench::bench_arms;
use ft_num::{MatrixF32, F16};
use std::hint::black_box;

/// Rounds of the group: every arm takes microseconds.
const ROUNDS: usize = 200;

fn main() {
    rayon::set_thread_workers(1);
    let values: Vec<f32> = (0..4096).map(|i| (i as f32 - 2048.0) * 0.37).collect();
    let halves: Vec<F16> = values.iter().map(|&v| F16::from_f32(v)).collect();

    let block = MatrixF32::from_fn(64, 64, |i, j| values[i * 64 + j]);

    let names = ["from_f32_4096", "to_f32_4096", "to_f16_64x64"];
    bench_arms("f16", ROUNDS, &names, |i| match i {
        0 => {
            let halves = values.iter().map(|&v| F16::from_f32(black_box(v)));
            black_box(halves.fold(0u16, |acc, h| acc ^ h.to_bits()));
        }
        1 => {
            black_box(halves.iter().map(|h| black_box(*h).to_f32()).sum::<f32>());
        }
        _ => {
            black_box(black_box(&block).to_f16());
        }
    });
}
