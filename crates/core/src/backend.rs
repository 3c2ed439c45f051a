//! The unified attention backend API.
//!
//! The paper's core comparison (§3, Tables 1–2, Figs. 9–13) is *the same
//! attention computed by different protection pipelines*. This module makes
//! that comparison a first-class API seam:
//!
//! * [`AttentionRequest`] — one request type carrying the configuration,
//!   the Q/K/V operands, a fault-injector handle, and optional per-request
//!   overrides (detection thresholds, simulated device);
//! * [`AttentionBackend`] — one trait every kernel family implements:
//!   [`ReferenceBackend`], [`FlashBackend`], [`DecoupledBackend`],
//!   [`EftaBackend`];
//! * [`BackendKind`] — a registry enum selecting a backend *by name*
//!   (`FromStr`/`Display`), so benches, fault campaigns and CLIs can sweep
//!   protection pipelines from a string;
//! * [`AttentionBackend::run_batched`] — a default method that fans a
//!   request out over its `(batch, head)` slots with rayon, remapping
//!   fault-injection coordinates so a campaign targeting slot *s* of the
//!   batched problem hits the same computation in the split one.
//!
//! ```
//! use ft_core::backend::{AttentionBackend, AttentionRequest, BackendKind};
//! use ft_core::config::AttentionConfig;
//! use ft_num::rng::normal_tensor_f16;
//!
//! let cfg = AttentionConfig::new(1, 2, 64, 32).with_auto_block();
//! let q = normal_tensor_f16(1, 1, 2, 64, 32, 0.5);
//! let k = normal_tensor_f16(2, 1, 2, 64, 32, 0.5);
//! let v = normal_tensor_f16(3, 1, 2, 64, 32, 0.5);
//!
//! let backend: BackendKind = "efta-o".parse().unwrap();
//! let out = backend.run(&AttentionRequest::new(cfg, &q, &k, &v));
//! assert!(out.report.clean());
//! ```

use crate::config::AttentionConfig;
use crate::decode::DecodeRequest;
use crate::decoupled::DecoupledOptions;
use crate::efta::EftaOptions;
use crate::types::{AttentionOutput, FtReport, PhaseBreakdown};
use ft_abft::thresholds::Thresholds;
use ft_num::{Tensor4F16, Tensor4F32};
use ft_sim::cost::Timeline;
use ft_sim::device::{Device, KernelStats, OomError};
use ft_sim::{gemm_flops, ChainFault, FaultInjector, FaultSite, NoFaults, OpCoord};
use rayon::prelude::*;
use std::fmt;
use std::str::FromStr;

static NO_FAULTS: NoFaults = NoFaults;

/// One attention computation: configuration, operands, injector, overrides.
///
/// Built with [`AttentionRequest::new`] and the `with_*` builder methods;
/// consumed by any [`AttentionBackend`].
#[derive(Clone, Copy)]
pub struct AttentionRequest<'a> {
    /// Shape and tiling of the computation.
    pub cfg: AttentionConfig,
    /// Query tensor (`batch × heads × seq × head_dim`, FP16).
    pub q: &'a Tensor4F16,
    /// Key tensor (same shape as `q`).
    pub k: &'a Tensor4F16,
    /// Value tensor (same shape as `q`).
    pub v: &'a Tensor4F16,
    /// Fault injector consulted by every protected operation. Defaults to
    /// [`NoFaults`].
    pub injector: &'a dyn FaultInjector,
    /// Simulated device whose HBM the backend must fit in (only the
    /// decoupled pipeline materialises O(n²) state and can OOM). `None`
    /// means an unconstrained private [`Device::a100_40gb`].
    pub device: Option<&'a Device>,
    /// Per-request detection-threshold override; `None` keeps each
    /// backend's calibrated defaults.
    pub thresholds: Option<Thresholds>,
}

impl<'a> AttentionRequest<'a> {
    /// Request over `q`/`k`/`v` with no faults, no device constraint, and
    /// the backend's default thresholds.
    ///
    /// Panics if a tensor's shape disagrees with `cfg` — a shape mismatch
    /// is a programming error every backend would otherwise surface as an
    /// out-of-bounds index deep inside a kernel.
    pub fn new(
        cfg: AttentionConfig,
        q: &'a Tensor4F16,
        k: &'a Tensor4F16,
        v: &'a Tensor4F16,
    ) -> Self {
        for (name, t) in [("q", q), ("k", k), ("v", v)] {
            assert_eq!(
                (t.batch(), t.heads(), t.seq(), t.dim()),
                (cfg.batch, cfg.heads, cfg.seq, cfg.head_dim),
                "{name} tensor shape does not match the attention config",
            );
        }
        AttentionRequest {
            cfg,
            q,
            k,
            v,
            injector: &NO_FAULTS,
            device: None,
            thresholds: None,
        }
    }

    /// Attach a fault injector.
    pub fn with_injector(mut self, injector: &'a dyn FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Constrain the run to a simulated device's HBM.
    pub fn with_device(mut self, device: &'a Device) -> Self {
        self.device = Some(device);
        self
    }

    /// Override the detection thresholds for this request.
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }
}

impl fmt::Debug for AttentionRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttentionRequest")
            .field("cfg", &self.cfg)
            .field("device", &self.device.is_some())
            .field("thresholds", &self.thresholds)
            .finish_non_exhaustive()
    }
}

/// Why a backend could not complete a request.
#[derive(Debug)]
pub enum BackendError {
    /// The simulated device ran out of HBM (the decoupled pipeline's
    /// O(n²) materialisation; paper Fig. 9).
    Oom(OomError),
    /// The backend does not support the requested configuration.
    Unsupported(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Oom(e) => write!(
                f,
                "simulated HBM exhausted: requested {} bytes with {} in use of {}",
                e.requested, e.in_use, e.capacity
            ),
            BackendError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<OomError> for BackendError {
    fn from(e: OomError) -> Self {
        BackendError::Oom(e)
    }
}

/// An attention kernel family behind the unified request type.
///
/// Implementations must be cheap to construct and [`Sync`]: a backend is a
/// *strategy*, not a resource — all per-run state lives in the request and
/// the returned [`AttentionOutput`].
pub trait AttentionBackend: Sync {
    /// Stable human-readable name (matches [`BackendKind`]'s `Display`).
    fn name(&self) -> &'static str;

    /// Run the kernel, reporting OOM/unsupported configurations as errors.
    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError>;

    /// Run the kernel; panics on [`BackendError`] (use [`try_run`] when the
    /// request may legitimately fail, e.g. decoupled at paper scale).
    ///
    /// [`try_run`]: AttentionBackend::try_run
    fn run(&self, req: &AttentionRequest<'_>) -> AttentionOutput {
        match self.try_run(req) {
            Ok(out) => out,
            Err(e) => panic!("{} backend failed: {e}", self.name()),
        }
    }

    /// Run the request as independent per-`(batch, head)` sub-requests in
    /// parallel and reassemble the output.
    ///
    /// Backends whose kernels already parallelise internally (flash, EFTA)
    /// gain nothing from this, but it gives every backend — including
    /// future ones that are sequential per head — a uniform scale-out path,
    /// and it is the seam a batching server schedules across. Fault
    /// coordinates are remapped so an injector aimed at slot `s` of the
    /// batched request fires in the matching sub-request. The first slot
    /// failure (e.g. decoupled OOM) aborts the batch and is returned.
    fn try_run_batched(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        let cfg = req.cfg;
        let slots = cfg.num_slots();
        if slots <= 1 {
            return self.try_run(req);
        }
        let results: Vec<Result<AttentionOutput, BackendError>> = (0..slots)
            .into_par_iter()
            .map(|slot| {
                let sub_cfg = AttentionConfig {
                    batch: 1,
                    heads: 1,
                    ..cfg
                };
                let q = single_slot(req.q, slot);
                let k = single_slot(req.k, slot);
                let v = single_slot(req.v, slot);
                let injector = SlotOffsetInjector {
                    inner: req.injector,
                    offset: slot as u64,
                };
                let sub = AttentionRequest {
                    cfg: sub_cfg,
                    q: &q,
                    k: &k,
                    v: &v,
                    injector: &injector,
                    device: req.device,
                    thresholds: req.thresholds,
                };
                self.try_run(&sub)
            })
            .collect();
        let mut outputs = Vec::with_capacity(slots);
        for result in results {
            outputs.push(result?);
        }
        Ok(merge_slot_outputs(&cfg, outputs))
    }

    /// [`try_run_batched`](AttentionBackend::try_run_batched), panicking on
    /// [`BackendError`].
    fn run_batched(&self, req: &AttentionRequest<'_>) -> AttentionOutput {
        match self.try_run_batched(req) {
            Ok(out) => out,
            Err(e) => panic!("{} backend failed: {e}", self.name()),
        }
    }

    /// One incremental-decode step: attend the request's single query row
    /// over its [`KvCache`](crate::kv::KvCache) and return a
    /// `batch × heads × 1 × dim` output.
    ///
    /// The default is the unprotected [`reference_decode`] — every backend
    /// can serve decode traffic, but only backends with a protected decode
    /// variant (EFTA) override this to verify cache-resident state and the
    /// decode arithmetic itself.
    ///
    /// Every implementation must honour the request's sliding-window knob
    /// ([`DecodeRequest::window`]) and front-evicted caches
    /// ([`KvCache::evict_front`](crate::kv::KvCache::evict_front)):
    /// windowed or evicted decode is bit-identical to decoding against a
    /// fresh cache holding only the attended blocks (pinned for every
    /// [`BackendKind`] by `tests/eviction_equivalence.rs`). The shared
    /// sweep body behind [`reference_decode`] and
    /// [`efta_decode`](crate::decode::efta_decode) implements this; a
    /// backend with its own decode path must preserve the invariant.
    ///
    /// [`reference_decode`]: crate::decode::reference_decode
    fn try_decode(&self, req: &DecodeRequest<'_>) -> Result<AttentionOutput, BackendError> {
        crate::decode::reference_decode(req)
    }

    /// [`try_decode`](AttentionBackend::try_decode), panicking on
    /// [`BackendError`].
    fn decode(&self, req: &DecodeRequest<'_>) -> AttentionOutput {
        match self.try_decode(req) {
            Ok(out) => out,
            Err(e) => panic!("{} backend failed to decode: {e}", self.name()),
        }
    }

    /// One continuous-batching sweep: every stream slice's `(stream, slot)`
    /// tiles — each spanning all of that stream's chunk rows, single decode
    /// rows and chunked-prefill chunks alike — run through one parallel
    /// fan-out. A tile verifies each attended cache block once and shares
    /// it across its rows, and fault events are attributed to per-stream
    /// [`FtReport`]s (see [`crate::serve`]).
    ///
    /// The default is the unprotected sweep; backends with a protected
    /// decode variant (EFTA) override it, exactly mirroring
    /// [`try_decode`](AttentionBackend::try_decode) — including the
    /// per-slice sliding-window knob
    /// ([`StreamSlice::window`](crate::serve::StreamSlice::window)) and
    /// front-evicted caches.
    ///
    /// Implementations never learn whether a chunk row is a real token or
    /// a speculative draft: the serving layer feeds provisional rows
    /// through the same visible-length tiles and rolls rejected ones back
    /// with [`KvCache::truncate_to`](crate::kv::KvCache::truncate_to)
    /// afterwards. That neutrality is what pins speculative decode
    /// bit-identical to plain decode on every backend in the registry
    /// (`tests/speculative_equivalence.rs`).
    fn try_decode_sweep(
        &self,
        slices: &[crate::serve::StreamSlice<'_>],
        injector: &dyn FaultInjector,
        thresholds: Option<Thresholds>,
    ) -> Result<Vec<crate::serve::StreamSweepOutput>, BackendError> {
        let _ = thresholds;
        crate::serve::sweep_unprotected(slices, injector)
    }

    /// [`try_decode_sweep`](AttentionBackend::try_decode_sweep), panicking
    /// on [`BackendError`].
    fn decode_sweep(
        &self,
        slices: &[crate::serve::StreamSlice<'_>],
        injector: &dyn FaultInjector,
        thresholds: Option<Thresholds>,
    ) -> Vec<crate::serve::StreamSweepOutput> {
        match self.try_decode_sweep(slices, injector, thresholds) {
            Ok(out) => out,
            Err(e) => panic!("{} backend failed to sweep: {e}", self.name()),
        }
    }
}

/// Extract one `(batch, head)` slot as a standalone 1×1 tensor.
fn single_slot(t: &Tensor4F16, slot: usize) -> Tensor4F16 {
    Tensor4F16::from_slots(1, 1, t.seq(), t.dim(), vec![t.slot_flat(slot).clone()])
}

/// Reassemble per-slot outputs into one batched [`AttentionOutput`].
///
/// Timelines merge *per kernel label*: slots execute as CTAs of the same
/// grid, so within one kernel their traffic and FLOPs add while launches do
/// not — but distinct kernels (the decoupled pipeline's three) stay
/// distinct records, preserving the sequential-kernel roofline model and
/// label-based timeline queries.
fn merge_slot_outputs(cfg: &AttentionConfig, outputs: Vec<AttentionOutput>) -> AttentionOutput {
    let mut report = FtReport::default();
    let mut phases = PhaseBreakdown::default();
    let mut labels: Vec<String> = Vec::new();
    let mut merged: Vec<KernelStats> = Vec::new();
    let mut slot_mats = Vec::with_capacity(outputs.len());
    for out in outputs {
        report = report.merged(&out.report);
        phases = phases.merged(&out.phases);
        for (label, stats) in out.timeline.records() {
            match labels.iter().position(|l| l == label) {
                Some(i) => {
                    merged[i] = KernelStats {
                        launches: merged[i].launches.max(stats.launches),
                        ..merged[i].merge(stats)
                    };
                }
                None => {
                    labels.push(label.clone());
                    merged.push(*stats);
                }
            }
        }
        slot_mats.push(out.o.slot_flat(0).clone());
    }
    let o = Tensor4F32::from_slots(cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, slot_mats);
    let mut timeline = Timeline::new();
    for (label, stats) in labels.into_iter().zip(merged) {
        timeline.push(label, stats);
    }
    AttentionOutput {
        o,
        timeline,
        report,
        phases,
    }
}

/// Wrapper shifting `OpCoord::slot` so sub-request kernels (which see slot
/// 0) consult the caller's injector at the original batched coordinates.
struct SlotOffsetInjector<'a> {
    inner: &'a dyn FaultInjector,
    offset: u64,
}

impl SlotOffsetInjector<'_> {
    #[inline]
    fn shift(&self, mut coord: OpCoord) -> OpCoord {
        coord.slot += self.offset;
        coord
    }
}

impl FaultInjector for SlotOffsetInjector<'_> {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        self.inner.corrupt_f32(site, self.shift(coord), value)
    }
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: ft_num::F16) -> ft_num::F16 {
        self.inner.corrupt_f16(site, self.shift(coord), value)
    }
    fn corrupt_f16_row(&self, site: FaultSite, slot: u64, i: u64, k: u64, row: &mut [ft_num::F16]) {
        self.inner
            .corrupt_f16_row(site, slot + self.offset, i, k, row)
    }
    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        self.inner.decide_chain(site, self.shift(coord), k_len)
    }
    fn fired(&self) -> u64 {
        self.inner.fired()
    }
    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
    fn may_fire(&self, site: FaultSite) -> bool {
        self.inner.may_fire(site)
    }
}

// ---------------------------------------------------------------------------
// The four kernel families.
// ---------------------------------------------------------------------------

/// Naive exact attention — the correctness oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceBackend;

impl AttentionBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        let o = crate::reference::reference_forward(&req.cfg, req.q, req.k, req.v);
        // The oracle is not a performance subject, but give it an honest
        // analytic footprint: one launch materialising S and P row-wise.
        let cfg = &req.cfg;
        let slots = cfg.num_slots() as u64;
        let seq2 = (cfg.seq * cfg.seq) as u64;
        let stats = KernelStats {
            launches: 1,
            hbm_read: slots * 3 * (cfg.seq * cfg.head_dim * 2) as u64,
            hbm_written: slots * (cfg.seq * cfg.head_dim * 2) as u64,
            tc_flops: slots * 2 * gemm_flops(cfg.seq, cfg.seq, cfg.head_dim),
            fp32_flops: slots * 4 * seq2,
            sfu_ops: slots * seq2,
            serial_flops: 0,
        };
        let mut timeline = Timeline::new();
        timeline.push("reference", stats);
        Ok(AttentionOutput {
            o,
            timeline,
            report: FtReport::default(),
            phases: PhaseBreakdown::default(),
        })
    }
}

/// Tiled online-softmax flash attention — the unprotected baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlashBackend;

impl AttentionBackend for FlashBackend {
    fn name(&self) -> &'static str {
        "flash"
    }

    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        Ok(crate::flash::flash_forward(&req.cfg, req.q, req.k, req.v))
    }
}

/// The traditional three-kernel ABFT + DMR pipeline (paper §3.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecoupledBackend {
    /// Protection options (thresholds, DMR settings, baseline switch).
    pub options: DecoupledOptions,
}

impl AttentionBackend for DecoupledBackend {
    fn name(&self) -> &'static str {
        if self.options.protect {
            "decoupled"
        } else {
            "decoupled-baseline"
        }
    }

    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        if req.cfg.causal {
            return Err(BackendError::Unsupported(
                "the decoupled pipeline protects unmasked attention only".into(),
            ));
        }
        let mut opts = self.options;
        if let Some(t) = req.thresholds {
            opts.thresholds = t;
        }
        let fallback;
        let device = match req.device {
            Some(d) => d,
            None => {
                fallback = Device::a100_40gb();
                &fallback
            }
        };
        crate::decoupled::decoupled_forward(
            &req.cfg,
            req.q,
            req.k,
            req.v,
            &req.injector,
            &opts,
            device,
        )
        .map_err(BackendError::from)
    }
}

/// The fused end-to-end fault tolerant attention kernel (paper §3.2–3.4).
#[derive(Clone, Copy, Debug)]
pub struct EftaBackend {
    /// Protection options (GEMM/softmax scheme, verification mode, stride).
    pub options: EftaOptions,
}

impl Default for EftaBackend {
    fn default() -> Self {
        EftaBackend {
            options: EftaOptions::optimized(),
        }
    }
}

impl AttentionBackend for EftaBackend {
    fn name(&self) -> &'static str {
        use crate::efta::{GemmProtection, SoftmaxProtection, VerifyMode};
        if self.options.gemm == GemmProtection::Unprotected
            && self.options.softmax == SoftmaxProtection::Unprotected
        {
            "efta-unprotected"
        } else if self.options.verify == VerifyMode::Unified {
            "efta-o"
        } else {
            "efta"
        }
    }

    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        if req.cfg.causal {
            return Err(BackendError::Unsupported(
                "EFTA protects unmasked attention (the paper's setting)".into(),
            ));
        }
        if req.cfg.seq < self.options.stride {
            return Err(BackendError::Unsupported(format!(
                "sequence length {} shorter than checksum stride {}",
                req.cfg.seq, self.options.stride
            )));
        }
        let mut opts = self.options;
        if let Some(t) = req.thresholds {
            opts.thresholds = t;
        }
        Ok(crate::efta::efta_forward(
            &req.cfg,
            req.q,
            req.k,
            req.v,
            &req.injector,
            &opts,
        ))
    }

    fn try_decode(&self, req: &DecodeRequest<'_>) -> Result<AttentionOutput, BackendError> {
        // efta_decode resolves req.thresholds itself.
        crate::decode::efta_decode(req, &self.options)
    }

    fn try_decode_sweep(
        &self,
        slices: &[crate::serve::StreamSlice<'_>],
        injector: &dyn FaultInjector,
        thresholds: Option<Thresholds>,
    ) -> Result<Vec<crate::serve::StreamSweepOutput>, BackendError> {
        crate::serve::sweep_efta(slices, injector, thresholds, &self.options)
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Every attention kernel family, selectable by name.
///
/// `FromStr` accepts the canonical names listed in [`BackendKind::NAMES`]
/// (case-insensitive) plus a few aliases; `Display` emits the canonical
/// name, so parse → display round-trips.
#[derive(Clone, Copy, Debug)]
pub enum BackendKind {
    /// Naive exact attention (correctness oracle).
    Reference,
    /// Unprotected tiled flash attention.
    Flash,
    /// Three-kernel decoupled ABFT + DMR pipeline.
    Decoupled(DecoupledOptions),
    /// Fused EFTA kernel with the given options.
    Efta(EftaOptions),
}

impl BackendKind {
    /// Canonical names accepted by `FromStr` (one per selectable variant).
    pub const NAMES: &'static [&'static str] = &[
        "reference",
        "flash",
        "decoupled",
        "decoupled-baseline",
        "efta",
        "efta-o",
        "efta-unprotected",
    ];

    /// One instance of every canonical backend, for sweeps.
    pub fn all() -> Vec<BackendKind> {
        Self::NAMES
            .iter()
            .map(|n| n.parse().expect("canonical name parses"))
            .collect()
    }
}

/// A backend name [`BackendKind::from_str`] did not recognise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown attention backend {:?}; expected one of: {}",
            self.input,
            BackendKind::NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "reference" | "ref" | "naive" => BackendKind::Reference,
            "flash" | "e2e" => BackendKind::Flash,
            "decoupled" | "decoupled-ft" => BackendKind::Decoupled(DecoupledOptions::default()),
            "decoupled-baseline" | "decoupled-unprotected" => {
                BackendKind::Decoupled(DecoupledOptions::unprotected())
            }
            // Paper naming: "EFTA" is per-step verification (Tables 1–2),
            // "EFTA-o" the optimised unified verification.
            "efta" | "efta-per-step" => BackendKind::Efta(EftaOptions::per_step()),
            "efta-o" | "efta-optimized" | "efta-unified" => {
                BackendKind::Efta(EftaOptions::optimized())
            }
            "efta-unprotected" => BackendKind::Efta(EftaOptions::unprotected()),
            _ => {
                return Err(ParseBackendError {
                    input: s.to_string(),
                })
            }
        })
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl AttentionBackend for BackendKind {
    fn name(&self) -> &'static str {
        match self {
            BackendKind::Reference => ReferenceBackend.name(),
            BackendKind::Flash => FlashBackend.name(),
            BackendKind::Decoupled(options) => DecoupledBackend { options: *options }.name(),
            BackendKind::Efta(options) => EftaBackend { options: *options }.name(),
        }
    }

    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        match self {
            BackendKind::Reference => ReferenceBackend.try_run(req),
            BackendKind::Flash => FlashBackend.try_run(req),
            BackendKind::Decoupled(options) => DecoupledBackend { options: *options }.try_run(req),
            BackendKind::Efta(options) => EftaBackend { options: *options }.try_run(req),
        }
    }

    fn try_decode(&self, req: &DecodeRequest<'_>) -> Result<AttentionOutput, BackendError> {
        match self {
            // The decoupled pipeline's three-kernel O(n²) structure has no
            // incremental form; like reference and flash it serves decode
            // through the shared unprotected path.
            BackendKind::Reference | BackendKind::Flash | BackendKind::Decoupled(_) => {
                crate::decode::reference_decode(req)
            }
            BackendKind::Efta(options) => crate::decode::efta_decode(req, options),
        }
    }

    fn try_decode_sweep(
        &self,
        slices: &[crate::serve::StreamSlice<'_>],
        injector: &dyn FaultInjector,
        thresholds: Option<Thresholds>,
    ) -> Result<Vec<crate::serve::StreamSweepOutput>, BackendError> {
        match self {
            BackendKind::Reference | BackendKind::Flash | BackendKind::Decoupled(_) => {
                crate::serve::sweep_unprotected(slices, injector)
            }
            BackendKind::Efta(options) => {
                crate::serve::sweep_efta(slices, injector, thresholds, options)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::SeuInjector;

    fn workload(cfg: &AttentionConfig, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
        let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
        (q, k, v)
    }

    #[test]
    fn every_canonical_name_round_trips() {
        for name in BackendKind::NAMES {
            let kind: BackendKind = name.parse().unwrap();
            assert_eq!(&kind.to_string(), name, "Display must match FromStr");
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        assert_eq!(
            "EFTA-O".parse::<BackendKind>().unwrap().to_string(),
            "efta-o"
        );
        assert_eq!(
            "ref".parse::<BackendKind>().unwrap().to_string(),
            "reference"
        );
        assert_eq!("e2e".parse::<BackendKind>().unwrap().to_string(), "flash");
    }

    #[test]
    fn unknown_name_is_a_helpful_error() {
        let err = "warp-speed".parse::<BackendKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp-speed"));
        assert!(msg.contains("efta-o"), "error must list valid names: {msg}");
    }

    #[test]
    fn all_backends_run_through_the_trait() {
        let cfg = AttentionConfig::new(1, 2, 64, 32).with_block(32);
        let (q, k, v) = workload(&cfg, 90);
        let reference = BackendKind::Reference
            .run(&AttentionRequest::new(cfg, &q, &k, &v))
            .o;
        for kind in BackendKind::all() {
            let out = kind.run(&AttentionRequest::new(cfg, &q, &k, &v));
            let tol = match kind {
                BackendKind::Reference | BackendKind::Flash => 1e-4,
                _ => 5e-3,
            };
            let diff = out.o.max_abs_diff(&reference);
            assert!(diff < tol, "{kind}: diff {diff} exceeds {tol}");
        }
    }

    #[test]
    fn run_batched_matches_run() {
        let cfg = AttentionConfig::new(2, 3, 48, 16).with_block(16);
        let (q, k, v) = workload(&cfg, 91);
        for kind in ["flash", "efta-o", "decoupled"] {
            let kind: BackendKind = kind.parse().unwrap();
            let req = AttentionRequest::new(cfg, &q, &k, &v);
            let whole = kind.run(&req);
            let split = kind.run_batched(&req);
            let diff = split.o.max_abs_diff(&whole.o);
            assert!(diff < 1e-6, "{kind}: batched diff {diff}");
            assert_eq!(split.report, whole.report);
            // Per-label timeline merging: same kernel records, same
            // aggregate stats, so the sequential-kernel roofline model sees
            // the identical computation either way.
            assert_eq!(
                split.timeline.records().len(),
                whole.timeline.records().len(),
                "{kind}: batched run must keep per-kernel records"
            );
            assert_eq!(split.timeline.total(), whole.timeline.total(), "{kind}");
        }
    }

    #[test]
    fn try_run_batched_surfaces_per_slot_errors() {
        // A device too small for even one slot: the batched path must
        // return the OOM as a value, exactly like the unbatched one.
        let cfg = AttentionConfig::new(2, 2, 128, 32).with_block(32);
        let (q, k, v) = workload(&cfg, 96);
        let tiny = Device::with_capacity(1 << 14);
        let err = BackendKind::Decoupled(DecoupledOptions::default())
            .try_run_batched(&AttentionRequest::new(cfg, &q, &k, &v).with_device(&tiny))
            .unwrap_err();
        assert!(matches!(err, BackendError::Oom(_)), "{err}");
    }

    #[test]
    fn run_batched_remaps_injector_slots() {
        // An SEU aimed at slot 3 of the batched request must fire exactly
        // once in the split execution too, and be repaired the same way.
        let cfg = AttentionConfig::new(2, 2, 64, 32).with_block(32);
        let (q, k, v) = workload(&cfg, 92);
        let kind = BackendKind::Efta(EftaOptions::optimized());
        let clean = kind.run(&AttentionRequest::new(cfg, &q, &k, &v));
        let inj = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(3, 5, 40, 3), 30)
            .at_chain_step(20);
        let out = kind.run_batched(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&inj));
        assert_eq!(inj.fired(), 1, "slot-remapped fault must fire once");
        assert!(out.report.total_detected() > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    #[test]
    fn slot_offset_injector_forwards_may_fire_and_rows() {
        use ft_sim::BerInjector;
        let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(3, 5, 2, 7), 14);
        let shifted = SlotOffsetInjector {
            inner: &seu,
            offset: 3,
        };
        assert!(shifted.may_fire(FaultSite::KvCache));
        assert!(!shifted.may_fire(FaultSite::LinearAccum));
        // Slot 0 of the sub-request is slot 3 of the batched coordinates.
        let mut row = [ft_num::F16::ONE; 4];
        shifted.corrupt_f16_row(FaultSite::KvCache, 0, 5, 7, &mut row);
        assert_eq!(seu.fired(), 1);
        assert_eq!(row[2], ft_num::F16::ONE.flip_bit(14));
        let restricted = BerInjector::new(1, 0.5).with_sites(&[FaultSite::ExpUnit]);
        let shifted = SlotOffsetInjector {
            inner: &restricted,
            offset: 1,
        };
        assert!(shifted.may_fire(FaultSite::ExpUnit));
        assert!(!shifted.may_fire(FaultSite::KvCache));
    }

    #[test]
    fn thresholds_override_is_honoured() {
        // An absurdly tight threshold on clean data must raise false alarms
        // through the request override (proving the override reaches the
        // kernel).
        let cfg = AttentionConfig::new(1, 1, 64, 32).with_block(32);
        let (q, k, v) = workload(&cfg, 93);
        let paranoid = Thresholds {
            gemm: ft_abft::thresholds::Check::new(0.0, 1e-12),
            ..Thresholds::calibrated()
        };
        let out = BackendKind::Efta(EftaOptions::per_step())
            .run(&AttentionRequest::new(cfg, &q, &k, &v).with_thresholds(paranoid));
        assert!(
            out.report.total_detected() > 0,
            "tight thresholds must fire on FP16 checksum noise: {:?}",
            out.report
        );
    }

    #[test]
    fn decoupled_oom_surfaces_as_backend_error() {
        let cfg = AttentionConfig::new(1, 2, 256, 32).with_block(64);
        let (q, k, v) = workload(&cfg, 94);
        let tiny = Device::with_capacity(1 << 16);
        let err = BackendKind::Decoupled(DecoupledOptions::default())
            .try_run(&AttentionRequest::new(cfg, &q, &k, &v).with_device(&tiny))
            .unwrap_err();
        assert!(matches!(err, BackendError::Oom(_)), "{err}");
    }

    #[test]
    fn causal_is_unsupported_on_ft_backends() {
        let cfg = AttentionConfig::new(1, 1, 32, 16)
            .with_block(16)
            .with_causal(true);
        let (q, k, v) = workload(&cfg, 95);
        for kind in ["efta-o", "decoupled"] {
            let kind: BackendKind = kind.parse().unwrap();
            let err = kind
                .try_run(&AttentionRequest::new(cfg, &q, &k, &v))
                .unwrap_err();
            assert!(matches!(err, BackendError::Unsupported(_)), "{kind}: {err}");
        }
        // The unprotected kernels do support causal masking.
        let flash = BackendKind::Flash.run(&AttentionRequest::new(cfg, &q, &k, &v));
        let reference = BackendKind::Reference.run(&AttentionRequest::new(cfg, &q, &k, &v));
        assert!(flash.o.max_abs_diff(&reference.o) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "shape does not match")]
    fn shape_mismatch_is_rejected_at_request_construction() {
        let cfg = AttentionConfig::new(1, 2, 64, 32);
        let q = normal_tensor_f16(1, 1, 2, 64, 32, 0.5);
        let k = normal_tensor_f16(2, 1, 2, 32, 32, 0.5); // wrong seq
        let v = normal_tensor_f16(3, 1, 2, 64, 32, 0.5);
        let _ = AttentionRequest::new(cfg, &q, &k, &v);
    }
}
