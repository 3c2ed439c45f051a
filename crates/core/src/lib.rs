//! # ft-core — end-to-end fault tolerant attention (EFTA)
//!
//! The primary contribution of *FT-Transformer: Resilient and Reliable
//! Transformer with End-to-End Fault Tolerant Attention* (SC 2025),
//! reproduced in safe Rust on the simulated tensor-core substrate of
//! [`ft_sim`].
//!
//! ## The unified backend API
//!
//! Every kernel family is a variant of [`BackendKind`], the one
//! implementation of the [`AttentionBackend`] trait: build an
//! [`AttentionRequest`], pick a kind — by variant or by name — and
//! [`run`](backend::AttentionBackend::run) it:
//!
//! ```
//! use ft_core::backend::{AttentionBackend, AttentionRequest, BackendKind};
//! use ft_core::config::AttentionConfig;
//! use ft_num::rng::normal_tensor_f16;
//! use ft_sim::{FaultSite, OpCoord, SeuInjector};
//!
//! let cfg = AttentionConfig::new(1, 2, 64, 32).with_auto_block();
//! let q = normal_tensor_f16(1, 1, 2, 64, 32, 0.5);
//! let k = normal_tensor_f16(2, 1, 2, 64, 32, 0.5);
//! let v = normal_tensor_f16(3, 1, 2, 64, 32, 0.5);
//!
//! // Select the optimised EFTA pipeline by name, as a CLI would.
//! let backend: BackendKind = "efta-o".parse().unwrap();
//!
//! // Fault-free run.
//! let clean = backend.run(&AttentionRequest::new(cfg, &q, &k, &v));
//! assert!(clean.report.clean());
//!
//! // The same request under a single-event upset: detected and repaired.
//! let seu = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(1, 5, 40, 0), 30)
//!     .at_chain_step(20);
//! let out = backend.run(&AttentionRequest::new(cfg, &q, &k, &v).with_injector(&seu));
//! assert!(out.report.total_detected() > 0);
//! assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
//! ```
//!
//! ## The kernel families
//!
//! * [`BackendKind::Reference`] (`"reference"`) — naive exact attention,
//!   the correctness oracle ([`mod@reference`]);
//! * [`BackendKind::Flash`] (`"flash"`) — tiled online-softmax flash
//!   attention, the unprotected baseline ([`flash`]);
//! * [`BackendKind::Decoupled`] (`"decoupled"`) — the traditional
//!   three-kernel ABFT + DMR pipeline with O(n²) HBM materialisation
//!   (§3.1, [`decoupled`]); the only backend that can legitimately fail
//!   (OOM), surfaced through
//!   [`try_run`](backend::AttentionBackend::try_run);
//! * [`BackendKind::Efta`] (`"efta"`, `"efta-o"`) — the fused
//!   single-kernel EFTA with hybrid strided-ABFT + SNVR protection and
//!   per-step or unified verification (§3.2–3.4, Algorithm 1, [`efta`]);
//! * [`dmr`] / [`snvr`] — the softmax protection schemes compared in
//!   Fig. 13, selectable through [`efta::EftaOptions`].
//!
//! ## Incremental decode and serving
//!
//! Serving traffic decodes one token at a time over cached K/V. The
//! checksum-protected store is [`kv::KvCache`]; a
//! [`DecodeRequest`] runs one step through
//! [`try_decode`](backend::AttentionBackend::try_decode) on any kind —
//! an EFTA kind re-verifies cache-resident state on read and carries its
//! output checksums across the online-softmax rescales ([`decode`]).
//!
//! Under multi-user traffic, many streams share one kernel sweep:
//! [`serve`] holds the continuous-batching machinery — the
//! [`DecodeScheduler`] slot table, chunked-prefill
//! admission, and the batched
//! [`try_decode_sweep`](backend::AttentionBackend::try_decode_sweep) that
//! multiplexes every stream's `(stream, slot)` tiles through one fan-out
//! while attributing fault events to per-stream [`FtReport`]s. Single-step
//! decode is that same sweep over one one-row slice.

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod decode;
pub mod decoupled;
pub mod dmr;
pub mod efta;
pub mod flash;
pub mod kv;
pub mod protect;
pub mod reference;
pub mod serve;
pub mod snvr;
pub mod types;

pub use backend::{AttentionBackend, AttentionRequest, BackendError, BackendKind};
pub use config::AttentionConfig;
pub use decode::DecodeRequest;
pub use decoupled::{
    analytic_timeline as decoupled_analytic_timeline, hbm_demand as decoupled_hbm_demand,
    DecoupledOptions,
};
pub use efta::{
    analytic_stats as efta_analytic_stats, EftaOptions, GemmProtection, SoftmaxProtection,
    VerifyMode,
};
pub use kv::{KvCache, KvReadReport};
pub use protect::ProtectionLevel;
pub use serve::{
    DecodeScheduler, PlanItem, SchedulerConfig, StreamId, StreamSlice, StreamState,
    StreamSweepOutput,
};
pub use types::{AttentionOutput, FtReport, PhaseBreakdown};
