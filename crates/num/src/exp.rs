//! [`expf`]: glibc's single-precision exponential, with a slice form
//! ([`expf_slice`]) that LLVM evaluates at vector width.
//!
//! This is the algorithm of Arm's optimized-routines `expf` (MIT licence),
//! which glibc ships as `sysdeps/ieee754/flt-32/e_expf.c`, in the variant
//! glibc 2.36 selects on every x86-64 CPU with FMA: a 32-entry table of
//! 2^(i/32) and a degree-3 polynomial, evaluated in `f64` with fused
//! multiply-adds. It returns the same bits as that `expf` (and so as
//! `f32::exp` on x86-64-v3 Linux) for every input, NaN payloads included;
//! the `#[ignore]`d test below checks all 2³² inputs against `f32::exp`.
//!
//! Each `fma` is [`f64::mul_add`], which is exactly rounded on every target
//! (one instruction with FMA, a libm call without), so the bits do not
//! depend on the target CPU or on the platform's libm. The other steps are
//! IEEE conversions, adds and multiplies and integer ops on bit patterns.
//!
//! With `xd = x as f64` and `N = 32`:
//!
//! 1. `kd = round(xd·N/ln2)` by adding `SHIFT = 1.5·2⁵²` in the fma, whose
//!    low mantissa bits then hold `ki = kd` as an integer;
//! 2. `r = xd·N/ln2 − kd`, so `|r| ≤ 1/2` and `x = (ki + r)·ln2/N`;
//! 3. `s = 2^(ki/N)`: the table entry for `ki mod N`, whose exponent field
//!    has `(ki mod N) << 47` taken off ahead, plus `ki << 47`;
//! 4. `y ≈ 2^(r/N)` by the polynomial, and the result is `(y·s) as f32`.
//!
//! Inputs with `|x| ≥ 88` (exponent and top mantissa bits `0x42b` and up)
//! are glibc's rare path: `−∞` gives 0, NaN and `+∞` give `x + x`, above
//! `0x1.62e42ep6` the result overflows to `+∞`, below `−0x1.9fe368p6` it
//! underflows to 0 and below `−0x1.9d1d9ep6` to the smallest subnormal;
//! the rest take the main path. [`expf_slice`] evaluates the main path
//! over every element of a chunk without branches, then gives the rare
//! elements their own value in a second pass: one `if` per element, as
//! [`expf`] has, turns the whole loop scalar.

/// `2^(i/32)` for `i` in `0..32` as `f64` bit patterns, each with `i << 47`
/// subtracted so that adding `ki << 47` for any `ki ≡ i (mod 32)` scales
/// it by `2^⌊ki/32⌋`.
const T: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `32 / ln2`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5·2⁵²`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The polynomial's coefficients, highest degree first.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// Above this the result overflows to `+∞`.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this the result underflows to 0.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Below this (and from [`UNDERFLOW`] on) the result is the smallest
/// subnormal.
const MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce_8ecf);
/// Elements [`expf_slice`] evaluates per pass of its main path.
const CHUNK: usize = 16;

/// `e^x`, bit for bit glibc 2.36's `expf` at x86-64 with FMA.
#[inline]
pub fn expf(x: f32) -> f32 {
    if rare(x) {
        rare_path(x)
    } else {
        main_path(x)
    }
}

/// Every element `x` of `xs` replaced by [`expf`]`(x)`. Loops over chunks
/// of it run at vector width.
pub fn expf_slice(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        let x: [f32; CHUNK] = (&*chunk).try_into().expect("a chunk is CHUNK long");
        for (y, &x) in chunk.iter_mut().zip(&x) {
            *y = main_path(x);
        }
        if x.iter().fold(false, |any, &x| any | rare(x)) {
            for (y, &x) in chunk.iter_mut().zip(&x) {
                if rare(x) {
                    *y = rare_path(x);
                }
            }
        }
    }
    for x in chunks.into_remainder() {
        *x = expf(*x);
    }
}

/// Whether `x` is on glibc's rare path: `|x| ≥ 88`, infinite or NaN.
#[inline(always)]
fn rare(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff > 0x42a
}

/// The value of a rare input.
#[inline(always)]
fn rare_path(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        0.0
    } else if (x.to_bits() >> 20) & 0x7ff >= 0x7f8 {
        x + x
    } else if x > OVERFLOW {
        f32::INFINITY
    } else if x < UNDERFLOW {
        0.0
    } else if x < MAY_UNDERFLOW {
        f32::from_bits(1)
    } else {
        main_path(x)
    }
}

/// glibc's main path, for every input (its result on a rare one is
/// discarded).
#[inline(always)]
fn main_path(x: f32) -> f32 {
    let xd = f64::from(x);
    let kds = xd.mul_add(INV_LN2_N, SHIFT);
    let ki = kds.to_bits();
    let kd = kds - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = r.mul_add(C[0], C[1]);
    let y = r.mul_add(C[2], 1.0);
    let y = z.mul_add(r * r, y);
    (y * s) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_match_glibc() {
        assert_eq!(expf(0.0), 1.0);
        assert_eq!(expf(-0.0), 1.0);
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert_eq!(expf(f32::from_bits(OVERFLOW.to_bits() + 1)), f32::INFINITY);
        assert_eq!(expf(-1e30).to_bits(), 0);
        assert_eq!(expf(-104.0).to_bits(), 0);
        assert_eq!(expf(-103.5).to_bits(), 1);
        // A signalling NaN comes back quieted, payload and sign kept.
        assert_eq!(expf(f32::from_bits(0xff80_0001)).to_bits(), 0xffc0_0001);
    }

    #[test]
    fn slice_form_matches_scalar() {
        // Every chunk mixes main-path and rare inputs; the length leaves a
        // remainder.
        let special = [f32::NEG_INFINITY, f32::NAN, 95.0, -103.5, -120.0, 88.5];
        let mut xs: Vec<f32> = (0..16 * 7 + 5)
            .map(|i| match i % 9 {
                0 => special[i / 9 % special.len()],
                _ => (i as f32 - 60.0) * 0.731,
            })
            .collect();
        let want: Vec<u32> = xs.iter().map(|&x| expf(x).to_bits()).collect();
        expf_slice(&mut xs);
        let got: Vec<u32> = xs.iter().map(|y| y.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 inputs, ~1 min in release"]
    fn expf_matches_libm_on_every_input() {
        // The reference is `f32::exp`, i.e. the platform's libm: this holds
        // where that is glibc's FMA `expf` (x86-64 Linux with FMA, glibc
        // 2.27 and later). `tests/exp_bits.rs` pins the bits everywhere
        // else.
        let mut ours = vec![0.0f32; 1 << 16];
        let mut mismatches = Vec::new();
        for high in 0..=u32::from(u16::MAX) {
            let input = |low: usize| f32::from_bits(high << 16 | low as u32);
            for (low, y) in ours.iter_mut().enumerate() {
                *y = input(low);
            }
            expf_slice(&mut ours);
            for (low, y) in ours.iter().enumerate() {
                let x = input(low);
                let want = x.exp().to_bits();
                if y.to_bits() != want || expf(x).to_bits() != want {
                    mismatches.push(x.to_bits());
                }
            }
        }
        assert!(
            mismatches.is_empty(),
            "{} mismatches, first {:x?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(8)]
        );
    }
}
