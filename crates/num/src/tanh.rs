//! [`tanhf`]: fdlibm's single-precision hyperbolic tangent, evaluated
//! without branches so that a loop over it vectorises.
//!
//! This is the algorithm of fdlibm's `s_tanhf.c` over its `s_expm1f.c`,
//! which glibc's `tanhf` (and so `f32::tanh` on x86-64 Linux) still is
//! through glibc 2.36. It returns the same bits for every input, NaN
//! payloads included (the `#[ignore]`d test below checks all 2³² inputs
//! against `f32::tanh`). It uses only IEEE add, multiply and divide, which
//! Rust never contracts into an FMA, and integer ops on the bit patterns,
//! so its bits do not depend on the target CPU or the platform's libm.
//!
//! fdlibm picks one of several paths per input; here every path is
//! computed for every input and the result picked with selects, so no
//! branch keeps LLVM from evaluating a loop of calls eight lanes at a time.
//! A path computed for an input it does not serve may overflow or produce
//! NaN; its value is discarded, and every integer op on it wraps.
//!
//! The original notice of both files:
//!
//! ```text
//! Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//!
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled polynomial coefficients Q1…Q5.
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// Hyperbolic tangent, bit for bit fdlibm's (and glibc 2.36's) `tanhf`.
///
/// By `|x|`: below 2⁻⁵⁵ it is `x·(1 + x)`; below 1, `−t / (t + 2)` with
/// `t = expm1(−2|x|)`; below 22, `1 − 2 / (t + 2)` with `t = expm1(2|x|)`;
/// from 22 on, `±1`. NaN returns `x + x` (the input, quieted).
#[inline(always)]
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let abs = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000;
    let t = expm1f(if big { 2.0 * abs } else { -2.0 * abs });
    // The one division of both middle cases: 2 / (t + 2) or −t / (t + 2).
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // fdlibm returns `1 − tiny`, which rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = if jx >> 31 != 0 { -z } else { z };
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // fdlibm's `1/x ± 1` is `±1` at ±Inf (above) and the quieted NaN here.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// fdlibm's `expm1f` over the arguments [`tanhf`] passes it:
/// `2 ≤ x < 44` and `−2 < x ≤ −2⁻⁵⁴`.
///
/// There fdlibm returns early only for `|x| < 2⁻²⁵` (with `x`), and `k`,
/// the multiple of ln2 it reduces `x` by, is 0, −1, −2, −3 or 3…63: the
/// filters for huge, infinite and NaN arguments and the `k = 1`
/// reconstruction are left out, as no argument here reaches them.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;
    // Argument reduction: x = k·ln2 + r with r = hi − lo (and c its
    // rounding error); k = ±1 between 0.5·ln2 and 1.5·ln2, and k = 0 (so
    // r = x exactly) below.
    let kf = trunc(INV_LN2 * x + if neg { -0.5 } else { 0.5 });
    let kf = if hx < 0x3f85_1592 {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        kf
    };
    let kf = if hx <= 0x3eb1_7218 { 0.0 } else { kf };
    // k exactly, from the low mantissa bits of kf + ROUND.
    let k = ((kf + ROUND).to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // expm1 on the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y0 = r - (r * e - hxs);

    // Reconstruction for k ≠ 0: 2ᵏ·(1 + expm1(r)) − 1, the scaling by 2ᵏ
    // done by adding k to the exponent field.
    let e = r * (e - c) - c - hxs;
    let y_m1 = 0.5 * (r - e) - 0.5;
    let far = k <= -2 || k > 56;
    let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let near = (1.0 - two_mk) - (e - r);
    let mid = (r - (e + two_mk)) + 1.0;
    let y = if far {
        1.0 - (e - r)
    } else if k < 23 {
        near
    } else {
        mid
    };
    let y = f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    let y = if far { y - 1.0 } else { y };

    match k {
        0 => y0,
        -1 => y_m1,
        _ => y,
    }
}

/// 1.5·2²³: a float below 2²² in magnitude plus `ROUND` is rounded to an
/// integer, held in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// `v` rounded toward zero (C's float-to-int conversion) for `|v| < 2²²`.
///
/// Neither `v as i32` nor `f32::trunc` is used: LLVM does not vectorise
/// the first (a saturating conversion) and calls libm for the second
/// below SSE4.1.
#[inline(always)]
fn trunc(v: f32) -> f32 {
    let a = f32::from_bits(v.to_bits() & 0x7fff_ffff);
    let n = (a + ROUND) - ROUND;
    let n = if n > a { n - 1.0 } else { n };
    f32::from_bits(n.to_bits() | (v.to_bits() & 0x8000_0000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_match_fdlibm() {
        assert_eq!(tanhf(0.0).to_bits(), 0);
        assert_eq!(tanhf(-0.0).to_bits(), 0x8000_0000);
        assert_eq!(tanhf(f32::INFINITY), 1.0);
        assert_eq!(tanhf(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanhf(22.0), 1.0);
        assert_eq!(tanhf(-1e30), -1.0);
        let tiny = f32::from_bits(1);
        assert_eq!(tanhf(tiny).to_bits(), 1);
        // A signalling NaN comes back quieted, payload and sign kept.
        assert_eq!(tanhf(f32::from_bits(0xff80_0001)).to_bits(), 0xffc0_0001);
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 inputs, ~3 min in release"]
    fn tanhf_matches_libm_on_every_input() {
        // The reference is `f32::tanh`, i.e. the platform's libm: this holds
        // where that is glibc's fdlibm `tanhf` (x86-64 Linux through glibc
        // 2.36). `tests/gelu_bits.rs` pins the bits everywhere else.
        let mut ours = vec![0.0f32; 1 << 16];
        let mut mismatches = Vec::new();
        for high in 0..=u32::from(u16::MAX) {
            let input = |low: usize| f32::from_bits(high << 16 | low as u32);
            for (low, y) in ours.iter_mut().enumerate() {
                *y = tanhf(input(low));
            }
            for (low, y) in ours.iter().enumerate() {
                let x = input(low);
                if y.to_bits() != x.tanh().to_bits() {
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
