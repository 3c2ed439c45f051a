//! Bit pins of the softmax's exponential, independent of the platform's
//! libm.
//!
//! `ft_num::expf` ports glibc's `expf` (the FMA variant, which `f32::exp`
//! calls on x86-64-v3 Linux), and every kernel's softmax evaluates it,
//! mostly through `ft_num::expf_slice`. The digests below are FNV-1a over
//! the output bits on a fixed input set; they were recorded with glibc
//! 2.36's `expf` through `f32::exp`, so a port that drifts by one bit on
//! any input here, in either form, at any target CPU, fails.
//!
//! The inputs: a grid over [-110, 90] at step 2⁻⁸ (every finite result,
//! both overflow and underflow); every 65 537th bit pattern (all exponents,
//! subnormals, infinities and NaN payloads); and 129 consecutive patterns
//! around each edge below.

use ft_transformer_suite::num::{expf, expf_slice};

/// Centres of the edge runs, as bit patterns of `expf`'s input.
const EDGES: [u32; 18] = [
    0x0000_0000, // +0, then the smallest subnormals
    0x8000_0000, // -0, then the smallest negative subnormals
    0x7f80_0000, // +Inf, then NaN payloads
    0xff80_0000, // -Inf, then NaN payloads
    0x42b0_0000, // 88: the rare path from here on
    0xc2b0_0000, // -88
    0x42b1_7217, // overflow to +Inf above
    0xc2cf_f1b4, // underflow to 0 below
    0xc2ce_8ecf, // the smallest subnormal below
    0x3c31_7218, // 0.5·ln2/32: the table index k = 0 | 1
    0x3eab_e687, // 15.5·ln2/32: k = 15 | 16
    0x3f2e_ac50, // 31.5·ln2/32: k = 31 | 32, the table wraps
    0xbc31_7218, // -0.5·ln2/32: k = 0 | -1
    0xbf2e_ac50, // -31.5·ln2/32: k = -31 | -32
    0xbf34_37e0, // -32.5·ln2/32: k = -32 | -33
    0x41dd_b870, // 1279.5·ln2/32: k = 1279 | 1280
    0xc28a_a6ae, // -3200.5·ln2/32: k = -3200 | -3201
    0x3f80_0000, // 1
];

fn inputs() -> Vec<f32> {
    let grid = (-(110 << 8)..=(90 << 8)).map(|i| i as f32 / 256.0);
    let strided = (0..=u32::MAX / 65_537).map(|i| f32::from_bits(i * 65_537));
    let edges = EDGES
        .iter()
        .flat_map(|&c| (c.saturating_sub(64)..=c.saturating_add(64)).map(f32::from_bits));
    grid.chain(strided).chain(edges).collect()
}

/// FNV-1a over the f32 bit patterns of `ys`.
fn digest(ys: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for y in ys {
        for byte in y.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn expf_bits_are_pinned() {
    let ys: Vec<f32> = inputs().into_iter().map(expf).collect();
    assert_eq!(digest(&ys), EXPF_DIGEST, "{:#x}", digest(&ys));
}

#[test]
fn expf_slice_bits_are_pinned() {
    let mut ys = inputs();
    expf_slice(&mut ys);
    assert_eq!(digest(&ys), EXPF_DIGEST, "{:#x}", digest(&ys));
}

const EXPF_DIGEST: u64 = 0x4157_9de9_43ef_fef2;
