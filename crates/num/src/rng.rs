//! Seeded random workload generation.
//!
//! Every experiment in the harness must be reproducible from a single u64
//! seed. This module centralises the RNG plumbing: matrices/tensors of
//! standard-normal values at a chosen scale, quantised through binary16 so
//! operands are exactly representable at the precision the kernels
//! consume.

use crate::f16::F16;
use crate::matrix::MatrixF16;
use crate::tensor::Tensor4F16;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Derive an independent stream from a root seed and a stream index.
/// SplitMix64-style mixing so adjacent indices are uncorrelated.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    mix64(root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The SplitMix64 finaliser: a bijective 64-bit mix, the workspace's one
/// stateless hash step (seed derivation, fault-coordinate hashing,
/// sampling draws).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construct the workspace's standard RNG from a seed.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Approximate standard-normal sample via Box–Muller.
pub fn sample_normal(rng: &mut SmallRng) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (core::f32::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Random normal matrix, scaled by `scale`, values quantised through f16.
pub fn normal_matrix_f16(rng: &mut SmallRng, rows: usize, cols: usize, scale: f32) -> MatrixF16 {
    MatrixF16::from_fn(rows, cols, |_, _| F16::from_f32(sample_normal(rng) * scale))
}

/// Random normal attention tensor `batch × heads × seq × dim`; the usual
/// Q/K/V generator. `scale` defaults in callers to `1/sqrt(dim)`-ish values
/// so that QKᵀ scores stay in a realistic softmax range.
pub fn normal_tensor_f16(
    seed: u64,
    batch: usize,
    heads: usize,
    seq: usize,
    dim: usize,
    scale: f32,
) -> Tensor4F16 {
    let mut rng = rng_from_seed(seed);
    Tensor4F16::from_fn(batch, heads, seq, dim, |_, _, _, _| {
        F16::from_f32(sample_normal(&mut rng) * scale)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_changes_with_stream() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(derive_seed(42, 0), a);
    }

    #[test]
    fn normal_matrix_is_reproducible() {
        let mut r1 = rng_from_seed(7);
        let mut r2 = rng_from_seed(7);
        let a = normal_matrix_f16(&mut r1, 8, 8, 1.0);
        let b = normal_matrix_f16(&mut r2, 8, 8, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_samples_have_sane_moments() {
        let mut rng = rng_from_seed(123);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn tensor_generator_uses_requested_shape() {
        let t = normal_tensor_f16(1, 2, 3, 16, 8, 0.5);
        assert_eq!((t.batch(), t.heads(), t.seq(), t.dim()), (2, 3, 16, 8));
    }
}
