//! Shared output and accounting types: the attention kernels' outputs and
//! [`FtReport`], the one fault ledger every protected site returns.
//!
//! | site                   | detected          | corrected          | recomputed / restricted            |
//! |------------------------|-------------------|--------------------|------------------------------------|
//! | GEMM I (QKᵀ)           | `gemm1_detected`  | `gemm1_corrected`  | `gemm1_recomputed`                 |
//! | subtract / EXP         | `exp_detected`    |                    | `exp_recomputed`                   |
//! | reduce-max, rowsum     | = restricted      |                    | `max_restricted`, `sum_restricted` |
//! | GEMM II, rescale, norm | `gemm2_detected`  | `gemm2_corrected`  | `gemm2_recomputed`                 |
//! | DMR replicas           | `dmr_retries`     |                    |                                    |
//! | KV-cache residency     | `cache_detected`  | `cache_corrected`  | none: `cache_uncorrectable`        |
//! | linear layers          | `linear_detected` | `linear_corrected` | `linear_recomputed`                |
//! | activation             | = restricted      |                    | `activation_restricted`            |
//!
//! `cache_evicted_blocks` is a policy event, not a fault. Ledgers combine
//! by exactly two folds: [`FtReport::merged`] for distinct physical
//! sources inside one sweep (kernel tasks, slots, layers, streams, shards)
//! and [`FtReport::accumulate`] for successive sweeps of one stream.

use ft_num::Tensor4F32;
use ft_sim::cost::Timeline;

/// The fault ledger: plain-data event counts of every protected site (the
/// [module table](self)). Every parallel task owns one and returns it; the
/// caller folds them with [`merged`](FtReport::merged).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtReport {
    /// Checksum mismatches detected on GEMM I (QKᵀ).
    pub gemm1_detected: u64,
    /// GEMM I errors corrected via checksums.
    pub gemm1_corrected: u64,
    /// GEMM I mismatches requiring recomputation.
    pub gemm1_recomputed: u64,
    /// Product-check mismatches attributed to subtraction/EXP.
    pub exp_detected: u64,
    /// EXP errors repaired by recomputation.
    pub exp_recomputed: u64,
    /// Reduce-max range violations repaired.
    pub max_restricted: u64,
    /// Rowsum range violations repaired.
    pub sum_restricted: u64,
    /// Checksum mismatches detected on GEMM II / rescale / normalise.
    pub gemm2_detected: u64,
    /// GEMM II errors corrected via checksums.
    pub gemm2_corrected: u64,
    /// GEMM II mismatches requiring recomputation.
    pub gemm2_recomputed: u64,
    /// DMR disagreement events.
    pub dmr_retries: u64,
    /// Checksum mismatches detected on cache-resident K/V state at read.
    pub cache_detected: u64,
    /// Cache-resident errors located and corrected on read.
    pub cache_corrected: u64,
    /// Cache-resident mismatches that could not be located.
    pub cache_uncorrectable: u64,
    /// KV-cache blocks evicted by the sliding-window storage policy.
    /// An *event* count, not a fault count: eviction is deliberate
    /// bounded-memory bookkeeping, so it does not dirty
    /// [`clean`](FtReport::clean) — it is surfaced here so per-stream
    /// serving reports show when (and how often) a stream's history was
    /// trimmed.
    pub cache_evicted_blocks: u64,
    /// Strided-ABFT mismatches detected on a protected linear layer's GEMM.
    pub linear_detected: u64,
    /// Linear-layer elements located and recomputed exactly.
    pub linear_corrected: u64,
    /// Linear-layer mismatches not located (row block recomputed wholesale).
    pub linear_recomputed: u64,
    /// Activation outputs found outside the theoretical range and repaired.
    pub activation_restricted: u64,
}

impl FtReport {
    /// Total detections across every check family.
    pub fn total_detected(&self) -> u64 {
        self.gemm1_detected
            + self.exp_detected
            + self.max_restricted
            + self.sum_restricted
            + self.gemm2_detected
            + self.dmr_retries
            + self.cache_detected
            + self.linear_detected
            + self.activation_restricted
    }

    /// Total repair actions (corrections + recomputations + restrictions).
    pub fn total_repaired(&self) -> u64 {
        self.gemm1_corrected
            + self.gemm1_recomputed
            + self.exp_recomputed
            + self.max_restricted
            + self.sum_restricted
            + self.gemm2_corrected
            + self.gemm2_recomputed
            + self.cache_corrected
            + self.linear_corrected
            + self.linear_recomputed
            + self.activation_restricted
    }

    /// True when nothing fired *and* no unrepairable cache damage is on
    /// record (sticky `cache_uncorrectable` alone must keep a report dirty:
    /// laundered cache corruption raises no fresh detections afterwards).
    pub fn clean(&self) -> bool {
        self.total_detected() == 0 && self.cache_uncorrectable == 0
    }

    /// Field-wise sum with another report: the fold for **distinct physical
    /// sources inside one sweep** (slots, layers, streams, shards).
    pub fn merged(&self, other: &FtReport) -> FtReport {
        FtReport {
            gemm1_detected: self.gemm1_detected + other.gemm1_detected,
            gemm1_corrected: self.gemm1_corrected + other.gemm1_corrected,
            gemm1_recomputed: self.gemm1_recomputed + other.gemm1_recomputed,
            exp_detected: self.exp_detected + other.exp_detected,
            exp_recomputed: self.exp_recomputed + other.exp_recomputed,
            max_restricted: self.max_restricted + other.max_restricted,
            sum_restricted: self.sum_restricted + other.sum_restricted,
            gemm2_detected: self.gemm2_detected + other.gemm2_detected,
            gemm2_corrected: self.gemm2_corrected + other.gemm2_corrected,
            gemm2_recomputed: self.gemm2_recomputed + other.gemm2_recomputed,
            dmr_retries: self.dmr_retries + other.dmr_retries,
            cache_detected: self.cache_detected + other.cache_detected,
            cache_corrected: self.cache_corrected + other.cache_corrected,
            cache_uncorrectable: self.cache_uncorrectable + other.cache_uncorrectable,
            cache_evicted_blocks: self.cache_evicted_blocks + other.cache_evicted_blocks,
            linear_detected: self.linear_detected + other.linear_detected,
            linear_corrected: self.linear_corrected + other.linear_corrected,
            linear_recomputed: self.linear_recomputed + other.linear_recomputed,
            activation_restricted: self.activation_restricted + other.activation_restricted,
        }
    }

    /// Multi-*step* aggregation: fold one sweep's ledger into the running
    /// ledger of the **same stream**.
    ///
    /// The counter mixing is deliberately non-uniform, and the asymmetry is
    /// load-bearing:
    ///
    /// * every event field counts **fresh events** — each step's alarms
    ///   fired exactly once — so they sum.
    /// * `cache_uncorrectable` is a **sticky level**, not an event count:
    ///   the protected decode path re-surfaces a cache's surviving damage
    ///   count on *every* subsequent step (so the re-prefill signal cannot
    ///   be missed), which means summing across steps would count one
    ///   physical poisoning event once per step it was re-reported.
    ///   `.max()` folds the re-reports idempotently while still growing
    ///   when new damage raises the per-step level.
    ///
    /// Within one step, per-**layer** levels are summed by
    /// [`merged`](FtReport::merged): two layers poisoned in the same step
    /// are two distinct physical events, and the step-level count of 2 then
    /// rides through `.max()` unchanged — neither dropped nor
    /// double-counted (pinned by the
    /// `two_layer_poison_is_counted_once_across_steps` regression test).
    /// The residual approximation: damage retired (evicted/recovered) and
    /// *then* re-introduced at a lower level is absorbed by the max — the
    /// level history, not the event census, is what this field reports.
    pub fn accumulate(&mut self, step: &FtReport) {
        let level = self.cache_uncorrectable.max(step.cache_uncorrectable);
        *self = self.merged(step);
        self.cache_uncorrectable = level;
    }
}

/// Per-phase wall-clock time powering the overhead-breakdown figures, in
/// seconds of worker time: each parallel task times its own phases and the
/// caller folds them with [`merged`](PhaseBreakdown::merged).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// GEMM I compute seconds.
    pub gemm1: f64,
    /// GEMM I protection seconds.
    pub gemm1_protect: f64,
    /// Softmax compute seconds.
    pub softmax: f64,
    /// Softmax protection seconds.
    pub softmax_protect: f64,
    /// GEMM II compute seconds.
    pub gemm2: f64,
    /// GEMM II protection seconds.
    pub gemm2_protect: f64,
}

impl PhaseBreakdown {
    /// Total protection time.
    pub fn protect_total(&self) -> f64 {
        self.gemm1_protect + self.softmax_protect + self.gemm2_protect
    }

    /// Total compute (unprotected work) time.
    pub fn compute_total(&self) -> f64 {
        self.gemm1 + self.softmax + self.gemm2
    }

    /// Field-wise sum with another breakdown (one task's into the total).
    pub fn merged(&self, other: &PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            gemm1: self.gemm1 + other.gemm1,
            gemm1_protect: self.gemm1_protect + other.gemm1_protect,
            softmax: self.softmax + other.softmax,
            softmax_protect: self.softmax_protect + other.softmax_protect,
            gemm2: self.gemm2 + other.gemm2,
            gemm2_protect: self.gemm2_protect + other.gemm2_protect,
        }
    }
}

/// Result of one attention forward pass.
#[derive(Debug)]
pub struct AttentionOutput {
    /// The attention tensor O in f32 (callers quantise as needed).
    pub o: Tensor4F32,
    /// Kernel-level stats for the simulated-A100 cost model.
    pub timeline: Timeline,
    /// Fault-tolerance event counts.
    pub report: FtReport,
    /// Per-phase wall-clock breakdown.
    pub phases: PhaseBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_layer_poison_is_counted_once_across_steps() {
        // Regression for the merged/accumulate mixing contract:
        // cache_uncorrectable sums across layers within one step (two
        // poisoned layers = two physical events) but folds by max across
        // steps (the sticky level is re-reported every step).
        let layer = FtReport {
            cache_uncorrectable: 1,
            cache_detected: 1,
            ..FtReport::default()
        };
        let step = layer.merged(&layer);
        assert_eq!(
            step.cache_uncorrectable, 2,
            "two layers poisoned in one step are two events"
        );
        let mut stream = FtReport::default();
        for _ in 0..5 {
            stream.accumulate(&step);
        }
        assert_eq!(
            stream.cache_uncorrectable, 2,
            "five re-reports of the same sticky level must not compound"
        );
        assert_eq!(stream.cache_detected, 10, "event fields still sum");
    }

    #[test]
    fn phase_breakdowns_merge() {
        let task = PhaseBreakdown {
            gemm1: 0.5,
            gemm1_protect: 0.25,
            softmax_protect: 0.125,
            ..PhaseBreakdown::default()
        };
        let b = task.merged(&task);
        assert_eq!(b.gemm1, 1.0);
        assert_eq!(b.protect_total(), 0.75);
        assert_eq!(b.compute_total(), 1.0);
    }
}
