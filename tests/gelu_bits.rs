//! Bit pins of GELU and its `tanh`, independent of the platform's libm.
//!
//! `ft_num::tanhf` ports fdlibm's `tanhf` (the algorithm of glibc's, which
//! `f32::tanh` calls on x86-64 Linux), and `Activation::Gelu` evaluates
//! it. The digests below are FNV-1a over the output bits on a fixed input
//! set; they were recorded with glibc 2.36's `tanhf`, so a port that drifts
//! by one bit on any input here, at any target CPU, fails.
//!
//! The inputs: a grid over [-24, 24] at step 2⁻⁸; every 65 537th bit
//! pattern (all exponents, subnormals, infinities and NaN payloads); and
//! 129 consecutive patterns around each branch edge of `tanhf` and of the
//! `expm1f` it calls, at both signs.

use ft_transformer_suite::num::tanhf;
use ft_transformer_suite::transformer::Activation;

/// Centres of the edge runs, as `|x|` bit patterns of `tanhf`'s input.
const EDGES: [u32; 12] = [
    0x0000_0000, // ±0, then the smallest subnormals
    0x0080_0000, // smallest normal (the subnormals end below it)
    0x2400_0000, // 2⁻⁵⁵: `x·(1 + x)` below
    0x3280_0000, // 2⁻²⁶: `expm1f(-2|x|)` returns its argument below
    0x3e31_7218, // 0.25·ln2: `expm1f`'s argument crosses 0.5·ln2 (k = 0 | −1)
    0x3f05_1592, // 0.75·ln2: … crosses 1.5·ln2 (k = −1 | −2)
    0x3f5d_ce9e, // 1.25·ln2: k = −2 | −3
    0x3f80_0000, // 1: `expm1f(2|x|)` at and above
    0x40f9_8872, // 11.25·ln2: k = 22 | 23
    0x419c_a6b9, // 28.25·ln2: k = 56 | 57
    0x41b0_0000, // 22: ±1 at and above
    0x7f80_0000, // ±Inf, then NaN payloads
];

fn inputs() -> Vec<f32> {
    let grid = (-(24 << 8)..=(24 << 8)).map(|i| i as f32 / 256.0);
    let strided = (0..=u32::MAX / 65_537).map(|i| f32::from_bits(i * 65_537));
    let edges = EDGES.iter().flat_map(|&c| {
        (c.saturating_sub(64)..=c + 64)
            .flat_map(|b| [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)])
    });
    grid.chain(strided).chain(edges).collect()
}

/// FNV-1a over the f32 bit patterns of `f` on every input.
fn digest(f: impl Fn(f32) -> f32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in inputs() {
        for byte in f(x).to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn tanhf_bits_are_pinned() {
    assert_eq!(digest(tanhf), TANHF_DIGEST, "{:#x}", digest(tanhf));
}

#[test]
fn gelu_bits_are_pinned() {
    let gelu = |x| Activation::Gelu.apply(x);
    assert_eq!(digest(gelu), GELU_DIGEST, "{:#x}", digest(gelu));
}

const TANHF_DIGEST: u64 = 0x266d_f021_80ed_c879;
const GELU_DIGEST: u64 = 0xd580_80a0_6024_eb4e;
