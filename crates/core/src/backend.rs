//! The unified attention backend API.
//!
//! The paper's core comparison (§3, Tables 1–2, Figs. 9–13) is *the same
//! attention computed by different protection pipelines*. This module makes
//! that comparison a first-class API seam:
//!
//! * [`AttentionRequest`] — one request type carrying the configuration,
//!   the Q/K/V operands, a fault-injector handle, and an optional simulated
//!   device;
//! * [`AttentionBackend`] — one trait for prefill, decode and the batched
//!   decode sweep, implemented once, by [`BackendKind`];
//! * [`BackendKind`] — every kernel family as one enum variant, selectable
//!   *by name* (`FromStr`/`Display`), so benches, fault campaigns and CLIs
//!   can sweep protection pipelines from a string.
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
use crate::serve::{sweep_tiles, StreamId, StreamSlice};
use crate::types::{AttentionOutput, FtReport, PhaseBreakdown};
use ft_abft::thresholds::Thresholds;
use ft_num::Tensor4F16;
use ft_sim::cost::Timeline;
use ft_sim::device::{Device, KernelStats, OomError};
use ft_sim::{gemm_flops, FaultInjector, NoFaults};
use std::fmt;
use std::str::FromStr;

static NO_FAULTS: NoFaults = NoFaults;

/// One attention computation: configuration, operands, injector, device.
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
}

impl<'a> AttentionRequest<'a> {
    /// Request over `q`/`k`/`v` with no faults and no device constraint.
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
}

impl fmt::Debug for AttentionRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttentionRequest")
            .field("cfg", &self.cfg)
            .field("device", &self.device.is_some())
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

/// An attention kernel family behind the unified request type, implemented
/// by [`BackendKind`].
///
/// A backend is a *strategy*, not a resource: cheap to construct and
/// [`Sync`], with all per-run state in the request and the returned
/// [`AttentionOutput`].
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

    /// One incremental-decode step: attend the request's single query row
    /// over its [`KvCache`](crate::kv::KvCache) and return a
    /// `batch × heads × 1 × dim` output.
    ///
    /// Every backend serves decode traffic through the one sweep body of
    /// [`try_decode_sweep`](AttentionBackend::try_decode_sweep), over one
    /// one-row slice at the request's [`step`](DecodeRequest::step); only
    /// EFTA kinds protect it, verifying cache-resident state and the decode
    /// arithmetic itself.
    /// The others run it [`unprotected`](EftaOptions::unprotected): raw
    /// cache reads, no checks — the baseline that *visibly corrupts* when
    /// cached state is hit.
    ///
    /// Every implementation must honour the request's sliding-window knob
    /// ([`DecodeRequest::window`]) and front-evicted caches
    /// ([`KvCache::evict_front`](crate::kv::KvCache::evict_front)):
    /// windowed or evicted decode is bit-identical to decoding against a
    /// fresh cache holding only the attended blocks (pinned for every
    /// [`BackendKind`] by `tests/eviction_equivalence.rs`).
    fn try_decode(&self, req: &DecodeRequest<'_>) -> Result<AttentionOutput, BackendError>;

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
    /// Protection mirrors [`try_decode`](AttentionBackend::try_decode)
    /// exactly — including the per-slice sliding-window knob
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
    ///
    /// `thresholds`, when given, replace the kernel options' own. Every
    /// library caller passes `None`, so decode checks under the thresholds
    /// prefill uses; the one caller that passes `Some` is the benchmark's
    /// shadow sweep (`ftbench/src/shadow.rs`), and the parameter goes when
    /// that caller does.
    fn try_decode_sweep(
        &self,
        slices: &[crate::serve::StreamSlice<'_>],
        injector: &dyn FaultInjector,
        thresholds: Option<Thresholds>,
    ) -> Result<Vec<crate::serve::StreamSweepOutput>, BackendError>;

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

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Every attention kernel family, selectable by name: the one
/// [`AttentionBackend`].
///
/// `FromStr` accepts exactly the names listed in [`BackendKind::NAMES`]
/// (case-insensitive); `Display` emits the same name, so parse → display
/// round-trips.
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

    /// The options decode runs under: an EFTA kind protects decode with its
    /// own options; every other kind reads the cache unprotected (the
    /// decoupled pipeline's three-kernel O(n²) structure has no incremental
    /// form).
    fn decode_options(&self) -> EftaOptions {
        match self {
            BackendKind::Efta(options) => *options,
            _ => EftaOptions::unprotected(),
        }
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
            "reference" => BackendKind::Reference,
            "flash" => BackendKind::Flash,
            "decoupled" => BackendKind::Decoupled(DecoupledOptions::default()),
            "decoupled-baseline" => BackendKind::Decoupled(DecoupledOptions::unprotected()),
            // Paper naming: "EFTA" is per-step verification (Tables 1–2),
            // "EFTA-o" the optimised unified verification.
            "efta" => BackendKind::Efta(EftaOptions::per_step()),
            "efta-o" => BackendKind::Efta(EftaOptions::optimized()),
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
        use crate::efta::{GemmProtection, SoftmaxProtection, VerifyMode};
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Flash => "flash",
            BackendKind::Decoupled(options) if options.protect => "decoupled",
            BackendKind::Decoupled(_) => "decoupled-baseline",
            BackendKind::Efta(options)
                if options.gemm == GemmProtection::Unprotected
                    && options.softmax == SoftmaxProtection::Unprotected =>
            {
                "efta-unprotected"
            }
            BackendKind::Efta(options) if options.verify == VerifyMode::Unified => "efta-o",
            BackendKind::Efta(_) => "efta",
        }
    }

    fn try_run(&self, req: &AttentionRequest<'_>) -> Result<AttentionOutput, BackendError> {
        let cfg = &req.cfg;
        match self {
            BackendKind::Reference => {
                let o = crate::reference::reference_forward(cfg, req.q, req.k, req.v);
                // The oracle is not a performance subject, but give it an
                // honest analytic footprint: one launch materialising S and
                // P row-wise.
                let slots = cfg.num_slots() as u64;
                let seq2 = (cfg.seq * cfg.seq) as u64;
                let mut timeline = Timeline::new();
                timeline.push(
                    "reference",
                    KernelStats {
                        launches: 1,
                        hbm_read: slots * 3 * (cfg.seq * cfg.head_dim * 2) as u64,
                        hbm_written: slots * (cfg.seq * cfg.head_dim * 2) as u64,
                        tc_flops: slots * 2 * gemm_flops(cfg.seq, cfg.seq, cfg.head_dim),
                        fp32_flops: slots * 4 * seq2,
                        sfu_ops: slots * seq2,
                        serial_flops: 0,
                    },
                );
                Ok(AttentionOutput {
                    o,
                    timeline,
                    report: FtReport::default(),
                    phases: PhaseBreakdown::default(),
                })
            }
            BackendKind::Flash => Ok(crate::flash::flash_forward(cfg, req.q, req.k, req.v)),
            BackendKind::Decoupled(options) => {
                if cfg.causal {
                    return Err(BackendError::Unsupported(
                        "the decoupled pipeline protects unmasked attention only".into(),
                    ));
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
                    cfg,
                    req.q,
                    req.k,
                    req.v,
                    &req.injector,
                    options,
                    device,
                )
                .map_err(BackendError::from)
            }
            BackendKind::Efta(options) => {
                if cfg.causal {
                    return Err(BackendError::Unsupported(
                        "EFTA protects unmasked attention (the paper's setting)".into(),
                    ));
                }
                if cfg.seq < options.stride {
                    return Err(BackendError::Unsupported(format!(
                        "sequence length {} shorter than checksum stride {}",
                        cfg.seq, options.stride
                    )));
                }
                Ok(crate::efta::efta_forward(
                    cfg,
                    req.q,
                    req.k,
                    req.v,
                    &req.injector,
                    options,
                ))
            }
        }
    }

    fn try_decode(&self, req: &DecodeRequest<'_>) -> Result<AttentionOutput, BackendError> {
        let slice = StreamSlice {
            stream: StreamId(0),
            cache: req.cache,
            q: req.q,
            window: req.window,
        };
        let opts = self.decode_options();
        let out = sweep_tiles(&[slice], Some(req.step), req.injector, None, &opts)?
            .pop()
            .expect("one slice in, one output out");
        Ok(AttentionOutput {
            o: out.o,
            timeline: out.timeline,
            report: out.report,
            phases: PhaseBreakdown::default(),
        })
    }

    fn try_decode_sweep(
        &self,
        slices: &[crate::serve::StreamSlice<'_>],
        injector: &dyn FaultInjector,
        thresholds: Option<Thresholds>,
    ) -> Result<Vec<crate::serve::StreamSweepOutput>, BackendError> {
        sweep_tiles(slices, None, injector, thresholds, &self.decode_options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::normal_tensor_f16;

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
    fn names_are_case_insensitive_and_aliases_are_refused() {
        assert_eq!(
            "EFTA-O".parse::<BackendKind>().unwrap().to_string(),
            "efta-o"
        );
        let err = "ref".parse::<BackendKind>().unwrap_err();
        assert_eq!(err.input, "ref");
        assert!(
            err.to_string().ends_with(&BackendKind::NAMES.join(", ")),
            "error must list NAMES: {err}"
        );
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
    fn thresholds_in_the_options_are_honoured() {
        // An absurdly tight threshold on clean data must raise false alarms
        // (proving the options' thresholds reach the kernel).
        let cfg = AttentionConfig::new(1, 1, 64, 32).with_block(32);
        let (q, k, v) = workload(&cfg, 93);
        let paranoid = Thresholds {
            gemm: ft_abft::thresholds::Check::new(0.0, 1e-12),
            ..Thresholds::calibrated()
        };
        let out = BackendKind::Efta(EftaOptions {
            thresholds: paranoid,
            ..EftaOptions::per_step()
        })
        .run(&AttentionRequest::new(cfg, &q, &k, &v));
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
