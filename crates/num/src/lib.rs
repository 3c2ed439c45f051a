//! # ft-num — numeric substrate for the FT-Transformer reproduction
//!
//! Foundations shared by every other crate in the workspace:
//!
//! * [`f16::F16`] — software IEEE 754 binary16 with round-to-nearest-even
//!   conversion and bit-level access (the soft-error injection surface);
//! * [`matrix::Matrix`] — row-major dense matrices in FP16 (operand) and
//!   FP32 (accumulator) precision, with the block/tiling helpers every
//!   kernel uses;
//! * [`tensor::Tensor4`] — `batch × heads × seq × dim` attention tensors;
//! * [`rng`] — seeded, reproducible workload generation;
//! * [`expf`] / [`expf_slice`] — glibc's `expf`, whose slice form runs
//!   at vector width, with the same bits on every platform;
//! * [`tanhf`] — fdlibm's `tanhf`, branch-free so that loops over it
//!   vectorise, with the same bits on every platform.
//!
//! No GPU, BLAS or `half` dependencies: the numerics are from scratch so the
//! checksum thresholds and fault-injection behaviour studied by the paper
//! are fully auditable.

#![warn(missing_docs)]

pub mod exp;
pub mod f16;
pub mod matrix;
pub mod rng;
pub mod tanh;
pub mod tensor;

pub use exp::{expf, expf_slice};
pub use f16::{quantize_f32, F16};
pub use matrix::{block_starts, num_blocks, Matrix, MatrixF16, MatrixF32};
pub use tanh::tanhf;
pub use tensor::{Tensor4, Tensor4F16, Tensor4F32};
