//! # ft-abft — algorithm-based fault tolerance checksum algebra
//!
//! The two checksum families of the FT-Transformer paper, plus their
//! transport through the fused softmax pipeline:
//!
//! * [`element`] — traditional Huang–Abraham element checksums (the
//!   decoupled baseline's protection, and the "traditional ABFT"
//!   comparator of Fig. 11);
//! * [`strided`] — the paper's tensor checksum: stride-8 folds aligned to
//!   the MMA thread-data layout, communication-free to encode/verify, and
//!   able to correct up to 8 errors per row (§3.3);
//! * [`propagate`] — checksum reuse across max-subtraction, exponential,
//!   rescale and normalisation steps (the unified verification of §3.4);
//! * [`thresholds`] — the relative-difference detection criterion and the
//!   paper's threshold optima.

#![warn(missing_docs)]

pub mod element;
pub mod propagate;
pub mod strided;
pub mod thresholds;

pub use element::{AbftReport, ColChecksums, ErrorLoc};
pub use strided::{StridedChecksums, StridedMismatch, DEFAULT_STRIDE};
pub use thresholds::{rel_diff, Thresholds};
