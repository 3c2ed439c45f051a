//! Property suite for the tail-rollback primitive: under random
//! append/truncate/evict/scrub interleavings, a [`KvCache`] must stay exactly
//! the cache that a straight-line replay of its surviving history builds —
//! payload, checksums, and max-norm snapshots bit-identical — with every
//! surviving row verifying clean and the `len`/`size_bytes`/`num_blocks`
//! accounting consistent at every step. The degenerate marks (behind the
//! eviction frontier, past the tail) are pinned as hard-assert rejections.
//! The stored K checksum operands are tied to the paper's definition
//! (§3.3): under append / heal / truncate / evict / scrub interleavings
//! they are, bit for bit, the row fold of K transposed.

use ft_abft::strided::encode_rows_strided;
use ft_core::kv::{CacheMark, KvCache, KvReadReport};
use ft_num::rng::{mix64, normal_tensor_f16};
use ft_num::tensor::Tensor4F16;
use ft_num::MatrixF32;
use ft_sim::{FaultInjector, FaultSite, OpCoord, SeuInjector};
use proptest::prelude::*;

const DIM: usize = 16;
const STRIDE: usize = 8;

/// Deterministic K/V rows for logical token `id` — replaying the same ids
/// must rebuild bit-identical storage.
fn token_rows(id: u64) -> (Tensor4F16, Tensor4F16) {
    (
        normal_tensor_f16(1000 + id, 1, 2, 1, DIM, 0.6),
        normal_tensor_f16(5000 + id, 1, 2, 1, DIM, 0.8),
    )
}

fn fresh(block: usize) -> KvCache {
    KvCache::new(1, 2, DIM, block)
}

fn append_id(cache: &mut KvCache, id: u64) -> KvReadReport {
    let (k, v) = token_rows(id);
    cache.append(&k, &v)
}

/// SplitMix64 — the op-sequence driver (the proptest shim draws the seed).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// Bit-identical comparison of everything the resident blocks store.
fn assert_matches_replay(cache: &KvCache, rows: &[u64], start: usize, block: usize) {
    let mut replay = fresh(block);
    for &id in rows {
        append_id(&mut replay, id);
    }
    replay.evict_front(start / block);
    assert_eq!(cache.len(), replay.len());
    assert_eq!(cache.start(), replay.start());
    assert_eq!(cache.num_blocks(), replay.num_blocks());
    for slot in 0..cache.num_slots() {
        for b in cache.start_block()..cache.num_blocks() {
            assert_eq!(
                cache.read_kt_raw(slot, b),
                replay.read_kt_raw(slot, b),
                "K s{slot} b{b}"
            );
            assert_eq!(
                cache.read_v_raw(slot, b),
                replay.read_v_raw(slot, b),
                "V s{slot} b{b}"
            );
            let (got, want) = (
                cache.verified_block(slot, b),
                replay.verified_block(slot, b),
            );
            assert_eq!(got.kt_cs.w1, want.kt_cs.w1);
            assert_eq!(got.kt_cs.w2, want.kt_cs.w2);
            assert_eq!(got.v_cs.w1, want.v_cs.w1);
            assert_eq!(got.v_cs.w2, want.v_cs.w2);
            assert_eq!(
                got.k_max_norm.to_bits(),
                want.k_max_norm.to_bits(),
                "max-norm s{slot} b{b}"
            );
        }
    }
}

/// Every resident block's stored `Kᵀ` checksum operands are the row fold
/// of its K (`encode_rows_strided`, the §3.3 definition, at the stride or
/// the block's row count if fewer) transposed, bit for bit.
fn assert_k_checksums_are_the_row_encode(cache: &KvCache) {
    let bits = |m: &MatrixF32| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for slot in 0..cache.num_slots() {
        for b in cache.start_block()..cache.num_blocks() {
            let k = cache.read_kt_raw(slot, b).transpose();
            let want = encode_rows_strided(&k, STRIDE.min(k.rows()), false);
            let got = cache.verified_block(slot, b).kt_cs;
            let what = format!("s{slot} b{b} at len {}", cache.len());
            assert_eq!(bits(&got.w1), bits(&want.w1.transpose()), "w1 {what}");
            assert_eq!(bits(&got.w2), bits(&want.w2.transpose()), "w2 {what}");
            assert_eq!(
                (got.stride, got.groups),
                (want.stride, want.groups),
                "{what}"
            );
        }
    }
}

/// One SEU in stored K at exposure `step`: a random slot, column and row
/// from `first_row` to the tail, exponent bit 13 of the FP16 element.
fn expose_k(cache: &mut KvCache, s: &mut u64, first_row: usize, step: usize) {
    let row = first_row + mix(s) as usize % (cache.len() - first_row);
    let at = OpCoord::new((mix(s) % 2) as usize, row, mix(s) as usize % DIM, 2 * step);
    let seu = SeuInjector::new(FaultSite::KvCache, at, 13);
    cache.expose(&seu, step as u64);
    assert_eq!(seu.fired(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of append, heal (an SEU in the ragged trailing
    /// block, then an append), truncate, evict and scrub (an SEU anywhere
    /// resident, then a scrub): after every operation the stored K
    /// checksum operands are the row encode of K, transposed.
    #[test]
    fn stored_k_checksums_are_the_row_encode_of_k_transposed(
        seed in 0u64..1_000_000,
        block in prop::sample::select(vec![4usize, 8, 16, 24]),
        ops in 6usize..22,
    ) {
        let mut cache = fresh(block);
        let mut next_id = 0u64;
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ block as u64;
        for step in 0..ops {
            match mix(&mut s) % 5 {
                1 if !cache.len().is_multiple_of(block) => {
                    let tail = cache.len() / block * block;
                    expose_k(&mut cache, &mut s, tail, step);
                    append_id(&mut cache, next_id);
                    next_id += 1;
                }
                2 if cache.resident_len() > 0 => {
                    let target = cache.start() + mix(&mut s) as usize % (cache.resident_len() + 1);
                    cache.truncate_to(CacheMark::at(target));
                }
                3 => {
                    cache.evict_front((mix(&mut s) % 3) as usize);
                }
                4 if cache.resident_len() > 0 => {
                    let start = cache.start();
                    expose_k(&mut cache, &mut s, start, step);
                    cache.scrub();
                }
                _ => {
                    for _ in 0..1 + mix(&mut s) % 3 {
                        append_id(&mut cache, next_id);
                        next_id += 1;
                    }
                }
            }
            assert_k_checksums_are_the_row_encode(&cache);
        }
    }

    /// Random interleavings of append (1–3 tokens), truncate (to a random
    /// resident mark), evict (0–2 front blocks) and scrub (after a flip of
    /// one resident K or V element's top mantissa bit): after every
    /// operation the bookkeeping invariants hold and nothing is poisoned;
    /// after each scrub, and at the end, the cache is bit-identical to a
    /// straight-line replay of the surviving rows, and every surviving row
    /// verifies clean.
    #[test]
    fn interleaved_append_truncate_evict_matches_straight_line_replay(
        seed in 0u64..1_000_000,
        block in prop::sample::select(vec![4usize, 8, 16, 24]),
        ops in 6usize..22,
    ) {
        let mut cache = fresh(block);
        let mut rows: Vec<u64> = Vec::new(); // ids of logically-live rows
        let mut start = 0usize;
        let mut next_id = 0u64;
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ block as u64;
        for step in 0..ops {
            match mix(&mut s) % 5 {
                0 | 1 => {
                    let n = 1 + (mix(&mut s) % 3) as usize;
                    for _ in 0..n {
                        prop_assert!(append_id(&mut cache, next_id).clean());
                        rows.push(next_id);
                        next_id += 1;
                    }
                }
                2 if rows.len() > start => {
                    // Keep at least one resident row (a mark exactly at the
                    // frontier is legal but leaves nothing to replay-evict;
                    // the directed test below covers it).
                    let target = start + 1 + (mix(&mut s) as usize % (rows.len() - start));
                    let rep = cache.truncate_to(CacheMark::at(target));
                    prop_assert_eq!(rep.uncorrectable, 0);
                    rows.truncate(target);
                }
                3 => {
                    let evicted = cache.evict_front((mix(&mut s) % 3) as usize);
                    start += evicted * block;
                }
                4 if rows.len() > start => {
                    // The top mantissa bit (FP16 bit 9): a flip moves the
                    // element by a quarter to a half of its magnitude, far
                    // above the read-check floor, and keeps it finite.
                    let row = start + mix(&mut s) as usize % (rows.len() - start);
                    let (slot, col) = ((mix(&mut s) % 2) as usize, mix(&mut s) as usize % DIM);
                    let which = mix(&mut s) % 2;
                    let at = OpCoord::new(slot, row, col, 2 * step + which as usize);
                    let seu = SeuInjector::new(FaultSite::KvCache, at, 9);
                    cache.expose(&seu, step as u64);
                    prop_assert_eq!(seu.fired(), 1);
                    let rep = cache.scrub();
                    prop_assert_eq!((rep.detected, rep.corrected, rep.uncorrectable), (1, 1, 0));
                    assert_matches_replay(&cache, &rows, start, block);
                }
                _ => {}
            }
            // Bookkeeping invariants after every operation.
            prop_assert_eq!(cache.len(), rows.len());
            prop_assert_eq!(cache.start(), start);
            prop_assert_eq!(cache.num_blocks(), rows.len().div_ceil(block));
            prop_assert_eq!(cache.resident_len(), rows.len() - start);
            prop_assert_eq!(
                cache.size_bytes(),
                2 * (cache.num_slots() * (rows.len() - start) * DIM * 2) as u64
            );
            prop_assert_eq!(cache.poisoned(), 0);
        }
        assert_matches_replay(&cache, &rows, start, block);
        // Every surviving row verifies clean against its checksums.
        for slot in 0..cache.num_slots() {
            for b in cache.start_block()..cache.num_blocks() {
                let vb = cache.verified_block(slot, b);
                prop_assert!(vb.k_report.clean(), "K s{slot} b{b}");
                prop_assert!(vb.v_report.clean(), "V s{slot} b{b}");
            }
        }
    }

    /// `checkpoint` → grow → `truncate_to` is an exact round-trip: the
    /// rolled-back cache is bit-identical (payload, checksums, max-norms)
    /// to its pre-growth clone, for every base/extra split and block size —
    /// and `CacheMark::advanced` lands the partial commit exactly.
    #[test]
    fn checkpoint_truncate_roundtrip_is_exact(
        base in 1usize..40,
        extra in 1usize..24,
        keep in 0usize..24,
        block in prop::sample::select(vec![4usize, 8, 16]),
    ) {
        let mut cache = fresh(block);
        for id in 0..base as u64 {
            append_id(&mut cache, id);
        }
        let mark = cache.checkpoint();
        prop_assert_eq!(mark.position(), base);
        let before = cache.clone();

        for id in 0..extra as u64 {
            append_id(&mut cache, 10_000 + id);
        }
        // Partial commit first: keep an accepted prefix of the growth.
        let keep = keep.min(extra);
        let mut committed = cache.clone();
        prop_assert_eq!(committed.truncate_to(mark.advanced(keep)).uncorrectable, 0);
        prop_assert_eq!(committed.len(), base + keep);

        // Full rollback: bit-identical to the pre-growth cache.
        prop_assert_eq!(cache.truncate_to(mark).uncorrectable, 0);
        let ids: Vec<u64> = (0..base as u64).collect();
        assert_matches_replay(&cache, &ids, 0, block);
        let mut kept_ids = ids;
        kept_ids.extend((0..keep as u64).map(|i| 10_000 + i));
        assert_matches_replay(&committed, &kept_ids, 0, block);
        prop_assert_eq!(cache.checkpoint(), before.checkpoint());
    }
}

/// Truncating exactly to the eviction frontier is legal and leaves zero
/// resident rows; appends then resume from the frontier as if the dropped
/// tail never existed.
#[test]
fn truncate_to_frontier_empties_residency_and_appends_resume() {
    let mut cache = fresh(4);
    for id in 0..11 {
        append_id(&mut cache, id);
    }
    assert_eq!(cache.evict_front(1), 1); // start = 4
    cache.truncate_to(CacheMark::at(4));
    assert_eq!(
        (cache.len(), cache.start(), cache.resident_len()),
        (4, 4, 0)
    );
    assert_eq!(cache.size_bytes(), 0);
    for id in 0..5 {
        assert!(append_id(&mut cache, 200 + id).clean());
    }
    assert_eq!(cache.resident_len(), 5);
    assert_eq!(cache.poisoned(), 0);
    for slot in 0..cache.num_slots() {
        for b in cache.start_block()..cache.num_blocks() {
            assert!(cache.verified_block(slot, b).k_report.clean());
        }
    }
}

/// A mark whose rows were evicted is dead: `truncate_to` must reject it
/// with the documented hard assert rather than resurrect freed state.
#[test]
#[should_panic(expected = "behind the eviction frontier")]
fn truncating_to_an_evicted_mark_panics() {
    let mut cache = fresh(4);
    let mark = cache.checkpoint(); // row 0
    for id in 0..13 {
        append_id(&mut cache, id);
    }
    cache.evict_front(2); // start = 8: the mark's block is gone
    cache.truncate_to(mark.advanced(3)); // row 3 < start
}

/// Truncating forward of the tail is equally a logic error.
#[test]
#[should_panic(expected = "cannot truncate forward")]
fn truncating_forward_panics() {
    let mut cache = fresh(4);
    for id in 0..6 {
        append_id(&mut cache, id);
    }
    cache.truncate_to(CacheMark::at(7));
}
