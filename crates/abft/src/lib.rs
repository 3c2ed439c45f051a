//! # ft-abft — algorithm-based fault tolerance checksum algebra
//!
//! The checksum algebra of the FT-Transformer paper, plus its transport
//! through the fused softmax pipeline, in three modules:
//!
//! * [`strided`] — the paper's tensor checksum: stride-8 folds aligned to
//!   the MMA thread-data layout, communication-free to encode/verify, and
//!   able to correct up to 8 errors per row (§3.3). The traditional
//!   Huang–Abraham element checksum (§3.1) is the same fold at stride 1:
//!   the decoupled baseline, the "traditional ABFT" arm of Fig. 11 and
//!   Fig. 12's element scheme all run on it;
//! * [`propagate`] — checksum reuse across max-subtraction, exponential,
//!   rescale and normalisation steps (the unified verification of §3.4);
//! * [`thresholds`] — the relative-difference detection criterion.

#![warn(missing_docs)]

pub mod propagate;
pub mod strided;
pub mod thresholds;

pub use strided::{AbftReport, ErrorLoc, StridedChecksums, StridedMismatch, DEFAULT_STRIDE};
pub use thresholds::{rel_diff, Thresholds};
