//! Micro-benches for the decode tile and the KV cache at the
//! chunked-prefill geometry of ftbench's `prefill_long`, on one core: a
//! 768-row prefill in 16-row chunks, 4 slots × head-dim 64, 64-row blocks,
//! stride 8, one layer.
//!
//! * `sweep_c16_*` — the whole prefill's 48 chunk sweeps (`sweep_efta`),
//!   each against the cache as it stood after its chunk was appended;
//! * `sweep_c1_*` — one decode step against the full 768-row cache;
//! * `verified_block` — every resident block of every slot read through
//!   verification once (clean);
//! * `append_c1_64` — 64 one-row appends filling a fresh block of every
//!   slot, each healing the ragged block first.
//!
//! Run with `cargo bench -p ft-bench --bench decode`.

use ft_bench::bench_arms;
use ft_core::efta::EftaOptions;
use ft_core::kv::KvCache;
use ft_core::serve::{sweep_efta, StreamId, StreamSlice};
use ft_num::rng::normal_tensor_f16;
use ft_num::Tensor4F16;
use ft_sim::NoFaults;
use std::hint::black_box;

/// Rounds of the group: the chunked sweeps take tens of milliseconds.
const ROUNDS: usize = 100;

const HEADS: usize = 4;
const DIM: usize = 64;
const ROWS: usize = 768;
const CHUNK: usize = 16;

/// Rows `r0 .. r0 + n` of every slot of `t`.
fn rows(t: &Tensor4F16, r0: usize, n: usize) -> Tensor4F16 {
    Tensor4F16::from_fn(1, HEADS, n, DIM, |b, h, r, c| t.slot(b, h).get(r0 + r, c))
}

fn main() {
    rayon::set_thread_workers(1);
    let q = normal_tensor_f16(1, 1, HEADS, ROWS, DIM, 0.6);
    let k = normal_tensor_f16(2, 1, HEADS, ROWS, DIM, 0.6);
    let v = normal_tensor_f16(3, 1, HEADS, ROWS, DIM, 0.8);
    let mut cache = KvCache::for_geometry(1, HEADS, DIM);
    let chunks: Vec<(KvCache, Tensor4F16)> = (0..ROWS)
        .step_by(CHUNK)
        .map(|r0| {
            cache.append(&rows(&k, r0, CHUNK), &rows(&v, r0, CHUNK));
            (cache.clone(), rows(&q, r0, CHUNK))
        })
        .collect();
    let last_q = rows(&q, ROWS - 1, 1);
    let appends: Vec<_> = (0..64).map(|r| (rows(&k, r, 1), rows(&v, r, 1))).collect();
    let sweep = |cache: &KvCache, q: &Tensor4F16, opts: &EftaOptions| {
        let slice = StreamSlice {
            stream: StreamId(0),
            cache,
            q,
            window: None,
        };
        sweep_efta(&[slice], &NoFaults, None, opts).expect("a supported sweep")
    };

    let [protected, unprotected] = [EftaOptions::optimized(), EftaOptions::unprotected()];
    let chunked = |opts| {
        for (cache, q) in &chunks {
            black_box(sweep(cache, q, opts));
        }
    };

    let names = [
        "sweep_c16_protected",
        "sweep_c1_protected",
        "sweep_c16_unprotected",
        "sweep_c1_unprotected",
        "verified_block",
        "append_c1_64",
    ];
    bench_arms("decode_768x64x4h", ROUNDS, &names, |i| match i {
        0 => chunked(&protected),
        1 => drop(black_box(sweep(&cache, &last_q, &protected))),
        2 => chunked(&unprotected),
        3 => drop(black_box(sweep(&cache, &last_q, &unprotected))),
        4 => {
            for slot in 0..cache.num_slots() {
                for blk in 0..cache.num_blocks() {
                    black_box(cache.verified_block(slot, blk));
                }
            }
        }
        _ => {
            let mut fresh = KvCache::for_geometry(1, HEADS, DIM);
            for (k, v) in &appends {
                black_box(fresh.append(k, v));
            }
            black_box(fresh);
        }
    });
}
