//! Eviction / sliding-window equivalence suite.
//!
//! The contract of block-granular KV-cache eviction: decoding over an
//! evicted (or windowed) cache is **bit-identical** to decoding against a
//! freshly built cache that holds only the attended window — for every
//! backend in the registry, including ragged block boundaries. At the
//! serving layer, a windowed `ServeSession` (chunked prefill, batched
//! sweeps, mid-flight eviction) reproduces token-at-a-time windowed
//! decode exactly, bounds its cache bytes, and surfaces eviction events
//! per stream; and a `FaultSite::KvCache` SEU landing in a *surviving*
//! block after eviction is still located, corrected, and attributed to
//! the right stream.

mod common;

use common::{prompt, stepwise_generate, tiny_config};
use ft_transformer_suite::attention::backend::{AttentionBackend, BackendKind};
use ft_transformer_suite::attention::decode::DecodeRequest;
use ft_transformer_suite::attention::efta::EftaOptions;
use ft_transformer_suite::attention::kv::KvCache;
use ft_transformer_suite::attention::serve::{StreamId, StreamSlice};
use ft_transformer_suite::num::rng::normal_tensor_f16;
use ft_transformer_suite::num::Tensor4F16;
use ft_transformer_suite::sim::{FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer_suite::transformer::{
    GenerationRequest, ModelConfig, SchedulerConfig, TransformerModel,
};

const HEADS: usize = 2;
const DIM: usize = 16;
const SCALE: f32 = 0.25; // 1/sqrt(16)

/// Single-token K/V rows, deterministic per (seed, position).
fn kv_row(seed: u64, t: usize) -> (Tensor4F16, Tensor4F16) {
    (
        normal_tensor_f16(seed + t as u64, 1, HEADS, 1, DIM, 0.6),
        normal_tensor_f16(seed + 500 + t as u64, 1, HEADS, 1, DIM, 0.8),
    )
}

/// Cache holding token rows `from..to` of the (seed-derived) sequence,
/// appended one at a time exactly like decode does.
fn cache_over(seed: u64, from: usize, to: usize, block: usize) -> KvCache {
    let mut cache = KvCache::new(1, HEADS, DIM, block, 8, SCALE);
    for t in from..to {
        let (k, v) = kv_row(seed, t);
        assert!(cache.append(&k, &v).clean());
    }
    cache
}

/// Every backend must decode a front-evicted cache bit-identically to a
/// fresh cache built from only the resident rows — including ragged
/// trailing blocks. The two caches share block boundaries (eviction drops
/// whole blocks), so even the checksummed EFTA path reproduces the exact
/// same arithmetic.
#[test]
fn evicted_decode_bit_matches_fresh_window_cache_on_every_backend() {
    for (tokens, block, evict) in [
        (21usize, 8usize, 1usize), // ragged tail, evict one block
        (21, 8, 2),                // resident = ragged tail only
        (24, 8, 2),                // exact block boundary
        (13, 4, 2),                // small blocks, ragged tail
    ] {
        let seed = 1000 + (tokens * 10 + evict) as u64;
        let mut evicted = cache_over(seed, 0, tokens, block);
        assert_eq!(evicted.evict_front(evict), evict);
        let fresh = cache_over(seed, evict * block, tokens, block);
        assert_eq!(evicted.resident_len(), fresh.len());

        let q = normal_tensor_f16(seed + 900, 1, HEADS, 1, DIM, 0.6);
        for kind in BackendKind::all() {
            let got = kind
                .try_decode(&DecodeRequest::new(&evicted, &q).at_step(tokens - 1))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let want = kind
                .try_decode(&DecodeRequest::new(&fresh, &q).at_step(tokens - 1))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(
                got.o.max_abs_diff(&want.o),
                0.0,
                "{kind} tokens={tokens} block={block} evict={evict}: \
                 evicted-cache decode drifted from the fresh window cache"
            );
            assert!(got.report.clean(), "{kind}: {:?}", got.report);
        }
    }
}

/// The sliding-window knob without any eviction: attention restricted to
/// the last `window` rows (block-granular) equals decoding a fresh cache
/// holding exactly the attended blocks — and an evicted cache under the
/// same window agrees too (storage policy is invisible to the numerics).
#[test]
fn windowed_decode_bit_matches_fresh_cache_of_the_attended_blocks() {
    let (tokens, block, window) = (27usize, 8usize, 10usize);
    let seed = 4242;
    let full = cache_over(seed, 0, tokens, block);
    // vis = 27, window 10 → first attended block = (27-10)/8 = 2.
    let fresh = cache_over(seed, 2 * block, tokens, block);
    let mut evicted = cache_over(seed, 0, tokens, block);
    assert_eq!(evicted.evict_front(1), 1, "evict behind the window");

    let q = normal_tensor_f16(seed + 900, 1, HEADS, 1, DIM, 0.6);
    for kind in BackendKind::all() {
        let windowed = kind
            .try_decode(
                &DecodeRequest::new(&full, &q)
                    .at_step(tokens - 1)
                    .with_window(Some(window)),
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let want = kind
            .try_decode(&DecodeRequest::new(&fresh, &q).at_step(tokens - 1))
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(
            windowed.o.max_abs_diff(&want.o),
            0.0,
            "{kind}: windowed decode over the full cache drifted"
        );
        let evicted_windowed = kind
            .try_decode(
                &DecodeRequest::new(&evicted, &q)
                    .at_step(tokens - 1)
                    .with_window(Some(window)),
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(
            evicted_windowed.o.max_abs_diff(&want.o),
            0.0,
            "{kind}: eviction behind the window must not change the output"
        );
    }
}

/// A `FaultSite::KvCache` SEU landing in a *surviving* block after
/// eviction is located and corrected by the EFTA sweep, and lands in the
/// right stream's report only — global fault coordinates stay stable
/// across eviction.
#[test]
fn seu_in_surviving_block_after_eviction_is_corrected_and_attributed() {
    let efta = BackendKind::Efta(EftaOptions::optimized());
    let cache_a = cache_over(100, 0, 20, 8);
    let mut cache_b = cache_over(200, 0, 20, 8);
    assert_eq!(cache_b.evict_front(1), 1);
    let clean_b = cache_b.clone();

    // Global row 12 lives in block 1 — resident after the eviction.
    let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 12, 3, 0), 14);
    cache_b.expose(&inj, 0);
    assert_eq!(inj.fired(), 1, "the surviving-block coordinate must fire");

    let qa = normal_tensor_f16(901, 1, HEADS, 1, DIM, 0.6);
    let qb = normal_tensor_f16(902, 1, HEADS, 1, DIM, 0.6);
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
    let outs = efta.decode_sweep(&slices, &NoFaults, None);
    assert!(outs[0].report.clean(), "{:?}", outs[0].report);
    assert_eq!(outs[1].stream, StreamId(5));
    assert!(outs[1].report.cache_detected > 0, "{:?}", outs[1].report);
    assert!(outs[1].report.cache_corrected > 0);
    assert_eq!(outs[1].report.cache_uncorrectable, 0);

    // Corrected means corrected: the faulted stream's output matches the
    // clean evicted cache's output up to checksum-fold rounding — the
    // located element is restored as `stored − Δ1` (f32 sum noise), and
    // the ~1e-7 residue can flip one FP16 ulp in a softmax weight.
    let clean_slice = [StreamSlice {
        stream: StreamId(5),
        cache: &clean_b,
        q: &qb,
        window: None,
    }];
    let clean_out = efta.decode_sweep(&clean_slice, &NoFaults, None);
    let diff = outs[1].o.max_abs_diff(&clean_out[0].o);
    assert!(diff < 5e-3, "corrected output drifted: {diff}");
}

// ---------------------------------------------------------------------------
// Model-level: windowed serving ≡ windowed token-at-a-time decode.
// ---------------------------------------------------------------------------

fn tiny(max_seq: usize) -> ModelConfig {
    tiny_config("evict-tiny", max_seq)
}

/// The window is a per-*request* property: one session serves a
/// full-attention stream and two windowed streams side by side, and each
/// reproduces the stepwise oracle run under *its* window.
#[test]
fn mixed_per_request_windows_each_match_their_own_oracle() {
    use ft_transformer_suite::transformer::GenerationRequest;
    let base = TransformerModel::random(33, tiny(96), BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(4);
    let new_tokens = 6;
    let lens = [26usize, 16, 31];
    let windows = [None, Some(9), Some(9)];
    let mut session = base.serve_with(SchedulerConfig {
        max_active: 3,
        prefill_chunk: 5,
        ..Default::default()
    });
    let ids: Vec<_> = lens
        .iter()
        .zip(&windows)
        .enumerate()
        .map(|(i, (&len, &w))| {
            let mut req = GenerationRequest::new(prompt(len, i), new_tokens);
            if let Some(w) = w {
                req = req.with_window(w);
            }
            session.submit_request(req)
        })
        .collect();
    let finished = session.run(&NoFaults);
    for (i, ((id, &len), &w)) in ids.iter().zip(&lens).zip(&windows).enumerate() {
        let f = finished.iter().find(|f| f.id == *id).unwrap();
        let want = stepwise_generate(&base, &prompt(len, i), new_tokens, w);
        assert_eq!(
            f.tokens, want,
            "stream {i} (window {w:?}): diverged from its own oracle"
        );
        if w.is_some() {
            assert!(
                f.attention.cache_evicted_blocks > 0,
                "stream {i}: a windowed stream this long must evict"
            );
        } else {
            assert_eq!(
                f.attention.cache_evicted_blocks, 0,
                "stream {i}: full attention must never evict"
            );
        }
    }
}

/// Mid-flight eviction during scheduled serving: streams long enough to
/// evict several blocks while decoding must reproduce the token-at-a-time
/// windowed oracle exactly, for the protected EFTA sweep and the
/// unprotected flash sweep alike — chunk boundaries cutting cache blocks
/// included. Eviction events land in the per-stream reports.
#[test]
fn windowed_scheduled_streams_match_windowed_stepwise_decode() {
    let lens = [26usize, 16, 7, 32];
    let new_tokens = 6;
    for kind in [
        BackendKind::Efta(EftaOptions::optimized()),
        BackendKind::Flash,
    ] {
        let model = TransformerModel::random(31, tiny(96), kind)
            .with_causal(true)
            .with_cache_block(4);
        let mut session = model.serve_with(SchedulerConfig {
            max_active: 3,
            prefill_chunk: 5,
            ..Default::default()
        });
        let ids: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                session.submit_request(
                    GenerationRequest::new(prompt(len, i), new_tokens).with_window(9),
                )
            })
            .collect();
        let finished = session.run(&NoFaults);
        assert_eq!(finished.len(), lens.len());
        let mut any_evicted = 0;
        for (i, (id, &len)) in ids.iter().zip(&lens).enumerate() {
            let f = finished.iter().find(|f| f.id == *id).unwrap();
            let want = stepwise_generate(&model, &prompt(len, i), new_tokens, Some(9));
            assert_eq!(
                f.tokens, want,
                "backend {kind}, stream {i} (prompt {len}): windowed \
                 scheduled decode diverged from the stepwise oracle"
            );
            assert_eq!(
                f.attention.total_detected(),
                0,
                "{kind}/{i}: {:?}",
                f.attention
            );
            any_evicted += f.attention.cache_evicted_blocks;
        }
        assert!(
            any_evicted > 0,
            "{kind}: the workload must actually exercise mid-flight eviction"
        );
    }
}
