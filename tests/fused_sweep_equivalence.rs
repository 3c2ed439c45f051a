//! Fused multi-row sweep equivalence suite.
//!
//! The contract of the tiled `(stream, slot)` sweep kernel — the one decode
//! path: its output rows are **bit-identical** to the stepwise oracle,
//! where chunk row `r` is decoded alone against its own token-at-a-time
//! cache of length `len − c + r + 1` — for every backend in the registry,
//! across ragged trailing blocks, mixed per-stream sliding windows,
//! front-evicted caches, mid-flight chunked prefill, and `Full` and `Raw`
//! caches. Single-query `try_decode` is that same sweep over one one-row
//! slice: same output, report and stats census. Shared verification fixes
//! *accounting*: a cache SEU in a block attended by the whole chunk is
//! located, corrected, and attributed to the right stream's report exactly
//! **once** per sweep.

use ft_transformer_suite::attention::backend::{AttentionBackend, BackendKind};
use ft_transformer_suite::attention::decode::DecodeRequest;
use ft_transformer_suite::attention::kv::KvCache;
use ft_transformer_suite::attention::protect::ProtectionLevel;
use ft_transformer_suite::attention::serve::{StreamId, StreamSlice, StreamSweepOutput};
use ft_transformer_suite::num::rng::normal_tensor_f16;
use ft_transformer_suite::num::Tensor4F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector};

const HEADS: usize = 2;
const DIM: usize = 16;

/// Single-token K/V rows, deterministic per (seed, position).
fn kv_row(seed: u64, t: usize) -> (Tensor4F16, Tensor4F16) {
    (
        normal_tensor_f16(seed + t as u64, 1, HEADS, 1, DIM, 0.6),
        normal_tensor_f16(seed + 500 + t as u64, 1, HEADS, 1, DIM, 0.8),
    )
}

/// Cache holding token rows `0..len`, appended one at a time exactly like
/// incremental decode does (chunked prefill shares block contents with
/// this, so the sweep geometry is all that varies).
fn cache_over(seed: u64, len: usize, block: usize, level: ProtectionLevel) -> KvCache {
    let mut cache = KvCache::new(1, HEADS, DIM, block).with_protection(level);
    for t in 0..len {
        let (k, v) = kv_row(seed, t);
        assert!(cache.append(&k, &v).clean());
    }
    cache
}

/// Query chunk of `c` rows (the tail rows of the stream's sequence).
fn q_chunk(seed: u64, c: usize) -> Tensor4F16 {
    normal_tensor_f16(seed + 900, 1, HEADS, c, DIM, 0.6)
}

/// The stepwise oracle of one sweep slice: chunk row `r` decoded as the one
/// row of its own cache of length `base + r + 1` (built by `cache_at`, with
/// the slice's eviction / SEU applied), through the public one-row sweep.
/// On the way, pins single-query `try_decode` (default and explicit step)
/// to that one-slice sweep: output, report and stats census all equal.
fn stepwise_oracle(
    kind: &BackendKind,
    chunk: &Tensor4F16,
    base: usize,
    window: Option<usize>,
    cache_at: impl Fn(usize) -> KvCache,
) -> Vec<StreamSweepOutput> {
    (0..chunk.seq())
        .map(|r| {
            let cache = cache_at(base + r + 1);
            let q = Tensor4F16::from_fn(1, HEADS, 1, DIM, |b, h, _, j| chunk.slot(b, h).get(r, j));
            let slice = StreamSlice {
                stream: StreamId(0),
                cache: &cache,
                q: &q,
                window,
            };
            let row = kind
                .try_decode_sweep(&[slice], &NoFaults, None)
                .unwrap_or_else(|e| panic!("{kind}: one-row sweep failed: {e}"))
                .pop()
                .unwrap();
            let mut req = DecodeRequest::new(&cache, &q).with_window(window);
            if r % 2 == 1 {
                req = req.at_step(r);
            }
            let single = kind.try_decode(&req).unwrap();
            assert_eq!(single.o.max_abs_diff(&row.o), 0.0, "{kind} row {r}");
            assert_eq!(single.report, row.report, "{kind} row {r}");
            assert_eq!(
                single.timeline.total(),
                row.timeline.total(),
                "{kind} row {r}"
            );
            row
        })
        .collect()
}

/// Bit-compare a fused sweep output against its stepwise oracle rows.
fn assert_rows_match(fused: &StreamSweepOutput, oracle: &[StreamSweepOutput], what: &str) {
    for (r, row) in oracle.iter().enumerate() {
        for slot in 0..HEADS {
            assert_eq!(
                fused.o.slot_flat(slot).row(r),
                row.o.slot_flat(slot).row(0),
                "{what} row {r} slot {slot}: fused tile sweep drifted from stepwise decode"
            );
        }
    }
}

/// Fused tile sweep ≡ stepwise oracle, bit-for-bit, on every backend — over
/// a batch mixing decode (c = 1) with mid-flight chunked prefill (c > 1),
/// ragged trailing blocks, a sliding window, and a front-evicted cache, at
/// both protection levels.
#[test]
fn fused_sweep_bit_matches_stepwise_oracle_on_every_backend() {
    // (len, block, chunk, window, evict_front): one stream per row.
    let shapes: &[(usize, usize, usize, Option<usize>, usize)] = &[
        (21, 8, 1, None, 0),     // plain decode, ragged tail
        (13, 4, 4, None, 0),     // chunked prefill, ragged tail
        (27, 8, 5, Some(10), 0), // chunk under a sliding window
        (24, 8, 3, None, 1),     // exact block boundary, front-evicted
        (9, 4, 2, Some(6), 0),   // short stream, tight window
    ];
    for level in [ProtectionLevel::Full, ProtectionLevel::Raw] {
        let cache_at = |i: usize, len: usize| {
            let (_, block, _, _, evict) = shapes[i];
            let mut cache = cache_over(7000 + i as u64 * 37, len, block, level);
            assert_eq!(cache.evict_front(evict), evict);
            cache
        };
        let caches: Vec<KvCache> = (0..shapes.len())
            .map(|i| cache_at(i, shapes[i].0))
            .collect();
        let chunks: Vec<Tensor4F16> = (0..shapes.len())
            .map(|i| q_chunk(7000 + i as u64 * 37, shapes[i].2))
            .collect();
        let slices: Vec<StreamSlice<'_>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(_, _, _, window, _))| StreamSlice {
                stream: StreamId(i as u64 * 3),
                cache: &caches[i],
                q: &chunks[i],
                window,
            })
            .collect();

        for kind in BackendKind::all() {
            let fused = kind
                .try_decode_sweep(&slices, &NoFaults, None)
                .unwrap_or_else(|e| panic!("{kind}: fused sweep failed: {e}"));
            assert_eq!(fused.len(), slices.len());
            for (i, f) in fused.iter().enumerate() {
                let (len, _, c, window, _) = shapes[i];
                assert_eq!(f.stream, slices[i].stream);
                assert!(f.report.clean(), "{kind} stream {i}: {:?}", f.report);
                let oracle =
                    stepwise_oracle(&kind, &chunks[i], len - c, window, |n| cache_at(i, n));
                assert_rows_match(f, &oracle, &format!("{kind} {level} {:?}", shapes[i]));
            }
        }
    }
}

/// Regression test for the sweep-stats overcount: a c-row chunk's census
/// must charge each row its *own* attended prefix and the checksum /
/// payload read traffic once per attended-block union — strictly less
/// than c× the full-cache single-row roofline the old census multiplied
/// out (`per_row(len) * c`).
#[test]
fn chunk_sweep_census_is_less_than_c_times_the_single_row_roofline() {
    let (len, block, c) = (24usize, 8usize, 6usize);
    let seed = 8100;
    let cache = cache_over(seed, len, block, ProtectionLevel::Full);
    let chunk = q_chunk(seed, c);
    let single = q_chunk(seed + 1, 1);
    for kind in BackendKind::all() {
        let chunk_out = kind
            .try_decode_sweep(
                &[StreamSlice {
                    stream: StreamId(0),
                    cache: &cache,
                    q: &chunk,
                    window: None,
                }],
                &NoFaults,
                None,
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let single_out = kind
            .try_decode_sweep(
                &[StreamSlice {
                    stream: StreamId(0),
                    cache: &cache,
                    q: &single,
                    window: None,
                }],
                &NoFaults,
                None,
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let chunk_stats = chunk_out[0].timeline.total();
        let single_stats = single_out[0].timeline.total();
        assert!(
            chunk_stats.hbm_read < c as u64 * single_stats.hbm_read,
            "{kind}: chunk census {} must undercut the c×roofline {}",
            chunk_stats.hbm_read,
            c as u64 * single_stats.hbm_read
        );
        assert!(
            chunk_stats.tc_flops < c as u64 * single_stats.tc_flops,
            "{kind}: chunk compute census must reflect per-row prefixes"
        );
    }
}

/// Shared-block verification fires once per sweep: a KV-cache SEU in a
/// block attended by every row of the chunk is detected and corrected
/// exactly once by the fused sweep (the tile verifies each block once) and
/// is attributed to the faulted stream only. Outputs stay bit-identical to
/// the stepwise oracle under the same SEU because both read the same
/// corrected values.
#[test]
fn cache_seu_is_corrected_once_per_fused_sweep_and_attributed_to_its_stream() {
    let (len, block, c) = (13usize, 4usize, 4usize);
    let seed_a = 9200;
    let seed_b = 9300;
    let clean_at = |n: usize| cache_over(seed_a, n, block, ProtectionLevel::Full);
    // Flip one K-payload bit in stream B's block 0 (attended by all four
    // chunk rows), head-slot 1.
    let seu_at = |n: usize| {
        let mut cache = cache_over(seed_b, n, block, ProtectionLevel::Full);
        let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 1, 3, 0), 14);
        cache.expose(&seu, 0);
        assert_eq!(seu.fired(), 1, "the cache SEU must land");
        cache
    };
    let (cache_a, cache_b) = (clean_at(len), seu_at(len));

    let qa = q_chunk(seed_a, c);
    let qb = q_chunk(seed_b, c);
    let slices = [
        StreamSlice {
            stream: StreamId(0),
            cache: &cache_a,
            q: &qa,
            window: None,
        },
        StreamSlice {
            stream: StreamId(5),
            cache: &cache_b,
            q: &qb,
            window: None,
        },
    ];

    for name in ["efta", "efta-o"] {
        let kind: BackendKind = name.parse().unwrap();
        let fused = kind.try_decode_sweep(&slices, &NoFaults, None).unwrap();

        // Attribution: stream A is untouched.
        assert!(fused[0].report.clean(), "{name}: {:?}", fused[0].report);

        // The fused tile verifies B's damaged block exactly once per sweep.
        assert_eq!(fused[1].stream, StreamId(5));
        assert_eq!(
            (
                fused[1].report.cache_detected,
                fused[1].report.cache_corrected
            ),
            (1, 1),
            "{name}: shared verification must count the block fault once, \
             got {:?}",
            fused[1].report
        );
        assert_eq!(fused[1].report.cache_uncorrectable, 0);

        // Accounting is per sweep; arithmetic is the stepwise decode's.
        let oracle_a = stepwise_oracle(&kind, &qa, len - c, None, clean_at);
        let oracle_b = stepwise_oracle(&kind, &qb, len - c, None, seu_at);
        assert_rows_match(&fused[0], &oracle_a, name);
        assert_rows_match(&fused[1], &oracle_b, name);
    }
}
