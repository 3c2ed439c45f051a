//! # ft-sim — simulated tensor-core GPU substrate
//!
//! The FT-Transformer paper's kernels run on A100 tensor cores; this crate
//! is the substitution mandated by the reproduction brief: a software model
//! of everything the paper's design depends on —
//!
//! * [`mma`] — the SM80 `m16n8k16 F32F16F16F32 TN` atom with its exact
//!   PTX thread-data layout (the structure the strided ABFT exploits);
//! * [`tiled`] — the 64×16×16 TiledMMA of four warps (paper Fig. 7) and a
//!   layout-faithful block-GEMM executor;
//! * [`gemm`] — fast block GEMM numerically identical to the fragment
//!   executor over one k-major operand layout, the one fault pass that
//!   injects transient faults into its accumulation chains, and the one
//!   exact recompute of an element: the only place a GEMM chain is
//!   computed;
//! * [`device`] — HBM with traffic accounting and a 40 GB capacity (the
//!   OOM of Fig. 9), kernel-launch bookkeeping;
//! * [`cost`] — an A100-calibrated roofline model converting kernel stats
//!   into simulated milliseconds;
//! * [`fault`] — deterministic SEU and bit-error-rate injectors for
//!   computing-unit soft errors (paper §2.2 fault model).

#![warn(missing_docs)]

pub mod cost;
pub mod device;
pub mod fault;
pub mod gemm;
pub mod mma;
pub mod tiled;

pub use cost::{CostModel, Timeline};
pub use device::{Device, Hbm, KernelStats, OomError};
pub use fault::{
    BerInjector, ChainFault, FaultInjector, FaultSite, NoFaults, OpCoord, SeuInjector,
};
pub use gemm::{
    gemm_chain, gemm_fault_pass, gemm_flops, gemm_nn, gemm_packed, ragged_product, GemmCtx, KMajor,
    PackedB,
};
