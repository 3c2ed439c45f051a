//! The shadow sweep: `ServeSession`'s batched sweep re-assembled from the
//! layers' public functions, one span per call, so a sweep's wall time can
//! be split by layer without touching the program.
//!
//! It mirrors `TransformerModel::run_sweep` + `ServeSession::sweep_inner`
//! for the plain case — FIFO scheduling, no faults, no speculation — which
//! is all `decode_steady` and `prefill_long` need. It is valid only while
//! its tokens are bit-identical to the real fleet's; the traced run checks
//! that on every request, so drift in the program shows up as a failed
//! check rather than as a silently wrong profile.

use crate::tracing::Tracer;
use ft_core::backend::AttentionBackend;
use ft_core::kv::SizeBreakdown;
use ft_core::serve::{DecodeScheduler, PlanItem, SchedulerConfig, StreamSlice};
use ft_core::types::FtReport;
use ft_num::{Matrix, MatrixF32, Tensor4F16, Tensor4F32, F16};
use ft_sim::NoFaults;
use ft_transformer::activation::apply_restricted;
use ft_transformer::{
    serve_expose_step, GenerationRequest, ModelKvCache, StreamId, TransformerModel,
};
use std::time::Instant;

/// Work counted at the same boundaries the spans are recorded at.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub sweeps: u64,
    pub streams_fed: u64,
    pub rows_fed: u64,
    pub prefill_rows: u64,
    pub lm_head_rows: u64,
    pub linear_calls: u64,
    pub linear_flops: u64,
    pub qkvo_rows: u64,
    pub append_rows: u64,
    pub decode_calls: u64,
    pub decode_rows: u64,
    /// Summed from `StreamSweepOutput.timeline` — computed from tensor
    /// sizes by the kernel's analytic census, not measured.
    pub decode_bytes_read: u64,
    pub decode_flops: u64,
    pub evicted_blocks: u64,
    pub peak: SizeBreakdown,
}

pub struct ShadowRun {
    /// Sampled tokens per request, in request order.
    pub tokens: Vec<Vec<u32>>,
    pub wall_s: f64,
    pub tracer: Tracer,
    pub counts: Counts,
}

/// `seq × hidden` activations → `1 × heads × seq × head_dim` FP16 operands
/// (what `MultiHeadAttention::split_heads` does privately).
fn split_heads(x: &MatrixF32, heads: usize) -> Tensor4F16 {
    let (seq, hidden) = x.shape();
    let hd = hidden / heads;
    let mut t = Tensor4F16::zeros(1, heads, seq, hd);
    for h in 0..heads {
        let slot = t.slot_mut(0, h);
        for i in 0..seq {
            for j in 0..hd {
                slot.set(i, j, F16::from_f32(x.get(i, h * hd + j)));
            }
        }
    }
    t
}

fn merge_heads(t: &Tensor4F32, heads: usize) -> MatrixF32 {
    let (seq, hd) = (t.seq(), t.dim());
    Matrix::from_fn(seq, heads * hd, |i, j| t.slot(0, j / hd).get(i, j % hd))
}

fn add_rows(into: &mut MatrixF32, from: &MatrixF32) {
    for i in 0..into.rows() {
        for (v, a) in into.row_mut(i).iter_mut().zip(from.row(i)) {
            *v += a;
        }
    }
}

/// Greedy sampling: first largest logit, as `model::argmax`.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// A plan item is a decode row when it feeds the one freshly sampled token.
pub fn is_decode(item: &PlanItem) -> bool {
    item.sample && item.feed.len() == 1
}

pub fn sweep_tag(plan: &[PlanItem]) -> &'static str {
    let decoding = plan.iter().filter(|it| is_decode(it)).count();
    if decoding == plan.len() {
        "model.sweep.decode"
    } else if decoding == 0 {
        "model.sweep.prefill"
    } else {
        "model.sweep.mixed"
    }
}

/// One stream's share of the sweep being assembled.
struct Work {
    item: PlanItem,
    /// Index of the stream's cache in the run's cache list.
    ci: usize,
    base_pos: usize,
    h: MatrixF32,
    attn: FtReport,
}

/// Serve `requests` to completion in pull mode on the calling thread,
/// through the shadow sweep. `traced` off gives the untraced twin.
pub fn shadow_run(
    model: &TransformerModel,
    requests: &[GenerationRequest],
    traced: bool,
) -> ShadowRun {
    let inj = NoFaults;
    let th = &model.thresholds;
    let layers = model.blocks.len();
    let mut tr = Tracer::new(traced);
    let mut counts = Counts::default();
    let mut sched = DecodeScheduler::new(SchedulerConfig::default());
    sched.set_bytes_per_token((4 * model.config.hidden * model.config.layers) as u64);
    sched.set_window_slack(model.blocks.first().map_or(0, |b| b.mha.cache_block));
    let ids: Vec<StreamId> = requests
        .iter()
        .map(|r| {
            assert!(
                r.speculation.is_none(),
                "the shadow sweep does not speculate"
            );
            sched.submit_request(r.clone())
        })
        .collect();
    let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); requests.len()];
    let mut caches: Vec<(StreamId, ModelKvCache)> = Vec::new();
    let t0 = Instant::now();
    while !sched.idle() {
        let sweep = tr.enter("model.sweep", None);
        let plan = tr.span("serve.plan", None, || {
            let bytes: u64 = caches
                .iter()
                .map(|(_, c)| c.size_bytes() + c.checksum_bytes())
                .sum();
            sched.note_bytes(bytes);
            sched.plan()
        });
        tr.rename(sweep, sweep_tag(&plan));
        counts.sweeps += 1;
        let mut works: Vec<Work> = Vec::with_capacity(plan.len());
        for item in plan {
            let sid = Some(item.stream.0);
            let ci = match caches.iter().position(|(id, _)| *id == item.stream) {
                Some(ci) => ci,
                None => {
                    caches.push((item.stream, model.new_cache_with(item.protection)));
                    caches.len() - 1
                }
            };
            let base_pos = caches[ci].1.positions;
            let h = tr.span("model.embed", sid, || {
                model.embed.forward_at(&item.feed, base_pos)
            });
            counts.streams_fed += 1;
            counts.rows_fed += item.feed.len() as u64;
            if !is_decode(&item) {
                counts.prefill_rows += item.feed.len() as u64;
            }
            works.push(Work {
                item,
                ci,
                base_pos,
                h,
                attn: FtReport::default(),
            });
        }
        for (l, block) in model.blocks.iter().enumerate() {
            let (mha, ffn) = (&block.mha, &block.ffn);
            let (mha_slot, ffn_slot) = (l * 2, l * 2 + 1);
            let mut qts: Vec<Tensor4F16> = Vec::with_capacity(works.len());
            for w in &mut works {
                let sid = Some(w.item.stream.0);
                let cache = &mut caches[w.ci].1.layers[l];
                tr.span("kv.expose", sid, || {
                    cache.expose(
                        &inj,
                        serve_expose_step(w.item.stream, w.base_pos, layers, l),
                    )
                });
                let normed = tr.span("model.norm", sid, || {
                    let mut n = w.h.clone();
                    block.ln1.forward(&mut n);
                    n
                });
                let rows = normed.rows() as u64;
                let mut project = |lin: &ft_transformer::Linear, slot: usize| {
                    counts.linear_calls += 1;
                    counts.qkvo_rows += rows;
                    counts.linear_flops +=
                        2 * rows * (lin.in_features() * lin.out_features()) as u64;
                    tr.span("linear.qkvo", sid, || {
                        lin.forward(&normed, &inj, slot, th).0
                    })
                };
                let q = project(&mha.wq, mha_slot * 8);
                let k = project(&mha.wk, mha_slot * 8 + 1);
                let v = project(&mha.wv, mha_slot * 8 + 2);
                let (qt, kt, vt) = tr.span("model.glue", sid, || {
                    (
                        split_heads(&q, mha.heads),
                        split_heads(&k, mha.heads),
                        split_heads(&v, mha.heads),
                    )
                });
                if let Some(win) = w.item.window {
                    let evicted = tr.span("kv.evict", sid, || cache.enforce_window(win)) as u64;
                    counts.evicted_blocks += evicted;
                    w.attn.cache_evicted_blocks += evicted;
                }
                let heal = tr.span("kv.append", sid, || cache.append(&kt, &vt));
                counts.append_rows += rows;
                w.attn.cache_detected += heal.detected;
                w.attn.cache_corrected += heal.corrected;
                qts.push(qt);
            }
            let slices: Vec<StreamSlice<'_>> = works
                .iter()
                .zip(&qts)
                .map(|(w, q)| StreamSlice {
                    stream: w.item.stream,
                    cache: &caches[w.ci].1.layers[l],
                    q,
                    window: w.item.window,
                })
                .collect();
            let outs = tr.span("decode.sweep", None, || {
                mha.kernel.decode_sweep(&slices, &inj, Some(*th))
            });
            drop(slices);
            counts.decode_calls += 1;
            for (w, out) in works.iter_mut().zip(outs) {
                let sid = Some(w.item.stream.0);
                let census = out.timeline.total();
                counts.decode_rows += w.h.rows() as u64;
                counts.decode_bytes_read += census.hbm_read;
                counts.decode_flops +=
                    census.tc_flops + census.fp32_flops + census.sfu_ops + census.serial_flops;
                w.attn = w.attn.merged(&out.report);
                let merged = tr.span("model.glue", sid, || merge_heads(&out.o, mha.heads));
                let rows = merged.rows() as u64;
                counts.linear_calls += 3;
                counts.qkvo_rows += rows;
                counts.linear_flops += 2
                    * rows
                    * (mha.wo.in_features() * mha.wo.out_features()
                        + 2 * ffn.up.in_features() * ffn.up.out_features())
                        as u64;
                let y = tr.span("linear.qkvo", sid, || {
                    mha.wo.forward(&merged, &inj, mha_slot * 8 + 3, th).0
                });
                tr.span("model.glue", sid, || add_rows(&mut w.h, &y));
                let normed = tr.span("model.norm", sid, || {
                    let mut n = w.h.clone();
                    block.ln2.forward(&mut n);
                    n
                });
                let mut up = tr.span("linear.ffn", sid, || {
                    ffn.up.forward(&normed, &inj, ffn_slot * 8 + 4, th).0
                });
                tr.span("ffn.activation", sid, || {
                    for i in 0..up.rows() {
                        let max_in = up.row(i).iter().map(|v| v.abs()).fold(0.0f32, f32::max);
                        apply_restricted(
                            ffn.activation,
                            up.row_mut(i),
                            &inj,
                            ffn_slot * 8 + 5,
                            i,
                            max_in,
                        );
                    }
                });
                let down = tr.span("linear.ffn", sid, || {
                    ffn.down.forward(&up, &inj, ffn_slot * 8 + 6, th).0
                });
                tr.span("model.glue", sid, || add_rows(&mut w.h, &down));
            }
        }
        // The session samples its peak footprint here, after the appends
        // and before any stream retires.
        tr.span("model.glue", None, || {
            for w in &works {
                caches[w.ci].1.positions += w.item.feed.len();
            }
            let now = caches
                .iter()
                .map(|(_, c)| c.size_breakdown())
                .fold(SizeBreakdown::default(), |acc, b| acc.merged(&b));
            if now.total_bytes() > counts.peak.total_bytes() {
                counts.peak = now;
            }
        });
        for w in &works {
            let sid = Some(w.item.stream.0);
            assert_eq!(w.item.speculate, 0, "the shadow sweep does not speculate");
            let sampled = w.item.sample.then(|| {
                let row = tr.span("model.norm", sid, || {
                    let last = w.h.rows() - 1;
                    let mut m = Matrix::from_fn(1, w.h.cols(), |_, j| w.h.get(last, j));
                    model.final_norm.forward(&mut m);
                    m
                });
                counts.lm_head_rows += 1;
                let logits = tr.span("model.lm_head", sid, || {
                    model.lm_head.forward(&row, &inj, usize::MAX / 2, th).0
                });
                tr.span("model.sample", sid, || argmax(logits.row(0)) as u32)
            });
            tr.span("serve.record", sid, || {
                sched.record(w.item.stream, sampled, &w.attn)
            });
        }
        tr.span("serve.record", None, || {
            for s in sched.take_finished() {
                caches.retain(|(id, _)| *id != s.id);
                if let Some(i) = ids.iter().position(|id| *id == s.id) {
                    tokens[i] = s.generated;
                }
            }
        });
        tr.exit(sweep);
    }
    ShadowRun {
        tokens,
        wall_s: t0.elapsed().as_secs_f64(),
        tracer: tr,
        counts,
    }
}
