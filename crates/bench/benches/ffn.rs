//! Micro-benches for the feed-forward module at the shapes of ftbench's
//! `bench-d64` model (hidden 256, FFN 1024), on one core.
//!
//! * `apply_restricted_{4,16}x1024` — the range-restricted activation over
//!   4 and 16 rows of 1024 unit-normal pre-activations, GELU against ReLU
//!   (each run first copies the inputs back into its buffer, ~1 % of a
//!   GELU arm);
//! * `forward_stacked_256x1024` — one `FeedForward::forward_stacked` (ABFT
//!   up-projection, GELU, ABFT down-projection) over a 4- and a 16-row
//!   stack, one segment each.
//!
//! Every arm runs under `NoFaults`. Run with `cargo bench -p ft-bench
//! --bench ffn`.

use ft_abft::thresholds::Thresholds;
use ft_bench::bench_arms;
use ft_num::rng::{normal_matrix_f16, rng_from_seed};
use ft_sim::NoFaults;
use ft_transformer::activation::{apply_restricted, Activation};
use ft_transformer::FeedForward;
use std::hint::black_box;

/// Rounds of each group: the largest arm (16 rows through the FFN) takes
/// about a millisecond.
const ROUNDS: usize = 100;

fn main() {
    rayon::set_thread_workers(1);
    let mut rng = rng_from_seed(9);
    for rows in [4, 16] {
        let input = normal_matrix_f16(&mut rng, rows, 1024, 1.0).to_f32();
        let mut work = input.clone();
        let group = format!("apply_restricted_{rows}x1024");
        bench_arms(&group, ROUNDS, &["gelu", "relu"], |i| {
            let act = [Activation::Gelu, Activation::Relu][i];
            work.as_mut_slice().copy_from_slice(input.as_slice());
            for r in 0..rows {
                let row = work.row_mut(r);
                let max_in = row.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
                black_box(apply_restricted(act, row, &NoFaults, 5, r, max_in));
            }
        });
    }

    let ffn = FeedForward::random(11, 256, 1024);
    let thresholds = Thresholds::calibrated();
    let stacks = [4, 16].map(|rows| normal_matrix_f16(&mut rng, rows, 256, 1.0).to_f32());
    bench_arms("forward_stacked_256x1024", ROUNDS, &["m4", "m16"], |i| {
        let x = &stacks[i];
        black_box(ffn.forward_stacked(x, &[x.rows()], &NoFaults, 0, &thresholds));
    });
}
