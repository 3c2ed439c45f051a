//! Software IEEE 754 binary16 ("half precision", FP16).
//!
//! The FT-Transformer paper evaluates on A100 tensor cores whose
//! `mma.m16n8k16.f32.f16.f16.f32` instruction multiplies FP16 operands and
//! accumulates in FP32. This module provides a bit-exact binary16 built from
//! scratch (no `half` crate):
//!
//! * `from_f32` implements round-to-nearest-even including subnormal
//!   rounding and overflow-to-infinity, matching hardware conversion.
//! * arithmetic is performed by converting to `f32`, operating, and rounding
//!   back — the semantics of scalar FP16 CUDA math. GEMM kernels instead keep
//!   an `f32` accumulator and only round inputs, matching the tensor-core
//!   mixed-precision path.
//! * every value exposes its raw bits so the fault injector can flip an
//!   arbitrary bit of a result, the paper's soft-error model.
//!
//! The checksum-verification thresholds studied in Figs. 12 and 14 of the
//! paper exist precisely because of the rounding noise this type produces,
//! so the conversion must be exact — it is pinned down by exhaustive and
//! property-based tests at the bottom of this file.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// IEEE 754 binary16 value stored as its raw bit pattern.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct F16(pub u16);

/// Number of explicitly stored mantissa bits in binary16.
pub const MANTISSA_BITS: u32 = 10;
/// Exponent width in bits.
pub const EXPONENT_BITS: u32 = 5;
/// Exponent bias.
pub const EXPONENT_BIAS: i32 = 15;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Machine epsilon (2^-10): distance from 1.0 to the next value.
    pub const EPSILON: F16 = F16(0x1400);

    /// Construct from raw bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even, the IEEE default mode
    /// used by CUDA's `__float2half_rn` and by tensor-core operand loads:
    /// subnormal results round at binary16's subnormal step, magnitudes
    /// from 65520 on overflow to infinity, and a NaN keeps its top 10
    /// payload bits, quieted.
    ///
    /// Branch-free, so a loop over a slice of them vectorises: the
    /// magnitude rounds as in [`quantize_f32`], to a binary32 that binary16
    /// holds exactly, and a finite one is narrowed the way [`F16::to_f32`]
    /// widens, backwards — scaled by 2⁻¹¹² (exact: its mantissa fits, and
    /// a binary16 subnormal lands on a binary32 subnormal) and shifted down
    /// 13 bits. Infinity and NaN keep the top of binary32's mantissa under
    /// binary16's all-ones exponent. [`MatrixF32::to_f16`] of a 64 × 64
    /// block takes 0.72 ns per element at the x86-64-v3 build floor,
    /// against 1.55 with the field-by-field conversion it replaced (2-vCPU
    /// x86-64, min of two alternating runs); the `#[ignore]`d test below
    /// pins the two against each other on all 2³² inputs.
    ///
    /// [`MatrixF32::to_f16`]: crate::MatrixF32::to_f16
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        const TWO_POW_MINUS_112: f32 = f32::from_bits((127 - 112) << 23);
        let bits = value.to_bits();
        let rounded = round_to_f16(bits & 0x7FFF_FFFF);
        let finite = (f32::from_bits(rounded) * TWO_POW_MINUS_112).to_bits() >> 13;
        let special = 0x7C00 | ((rounded >> 13) & 0x03FF);
        let half = if rounded >= 0x7F80_0000 {
            special
        } else {
            finite
        };
        F16((((bits >> 16) & 0x8000) | half) as u16)
    }

    /// Exact widening conversion to `f32` (every binary16 value is
    /// representable in binary32).
    ///
    /// Branch-free, so a loop over a slice of them vectorises. Shifting the
    /// 15 magnitude bits up by 13 lines the 10 mantissa bits up with
    /// binary32's 23 and the 5 exponent bits with the low bits of its 8: the
    /// binary32 that spells is the binary16 magnitude times 2⁻¹¹², for
    /// zeros, subnormals (which land on binary32 subnormals) and normals
    /// alike. Multiplying by 2¹¹² restores it exactly, since the product is
    /// a power-of-two scaling to a representable value. An all-ones exponent
    /// field (infinity, NaN) instead selects binary32's all-ones exponent
    /// with the mantissa carried over, NaNs quieted by setting the top
    /// mantissa bit. The sign bit is OR'd in last. Widening a 64 × 64
    /// [`MatrixF16`](crate::MatrixF16) this way takes 0.24 ns per element
    /// at the x86-64-v3 build floor, against 0.85 for the branching
    /// normal-range fast path it replaced (2-vCPU x86-64, min of four runs).
    #[inline]
    pub fn to_f32(self) -> f32 {
        const TWO_POW_112: f32 = f32::from_bits((127 + 112) << 23);
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let magnitude = (h & 0x7FFF) << 13;
        let finite = (f32::from_bits(magnitude) * TWO_POW_112).to_bits();
        let man = h & 0x03FF;
        let special = 0x7F80_0000 | (man << 13) | (u32::from(man != 0) << 22);
        let bits = if h & 0x7C00 == 0x7C00 {
            special
        } else {
            finite
        };
        f32::from_bits(sign | bits)
    }

    /// Widening conversion to `f64`.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// True if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if the value is +Inf or -Inf.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True if the value is neither Inf nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// True for subnormal values (exponent field 0, mantissa non-zero).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// True if the sign bit is set (including -0 and NaNs with sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7FFF)
    }

    /// Negation (flips the sign bit, also on NaN, like IEEE `negate`).
    #[inline]
    pub fn negate(self) -> Self {
        F16(self.0 ^ 0x8000)
    }

    /// Flip bit `bit` (0 = LSB of mantissa … 15 = sign). This is the
    /// primitive soft-error model of the paper: a single event upset in a
    /// compute unit manifests as a bit flip in a produced value.
    #[inline]
    #[must_use]
    pub fn flip_bit(self, bit: u32) -> Self {
        debug_assert!(bit < 16, "binary16 has 16 bits");
        F16(self.0 ^ (1u16 << bit))
    }

    /// Units-in-last-place distance between two finite values of the same
    /// sign; used by tests to bound rounding error.
    pub fn ulp_distance(self, other: F16) -> u32 {
        fn key(v: F16) -> i32 {
            let bits = v.0;
            if bits & 0x8000 != 0 {
                -((bits & 0x7FFF) as i32)
            } else {
                (bits & 0x7FFF) as i32
            }
        }
        (key(self) - key(other)).unsigned_abs()
    }

    /// IEEE-754 `totalOrder`-style comparison key for sorting buffers that
    /// may contain NaN (NaN sorts last).
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        let to_key = |v: &F16| {
            let bits = v.0 as i16;
            bits ^ (((bits >> 15) as u16) >> 1) as i16
        };
        to_key(self).cmp(&to_key(other))
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_round_trip_op {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_round_trip_op!(Add, add, AddAssign, add_assign, +);
impl_round_trip_op!(Sub, sub, SubAssign, sub_assign, -);
impl_round_trip_op!(Mul, mul, MulAssign, mul_assign, *);
impl_round_trip_op!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        self.negate()
    }
}

impl Sum for F16 {
    /// Sequential FP16 summation (rounds after every addition). GEMM kernels
    /// do *not* use this — they accumulate in f32 like tensor cores.
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

/// Round an `f32` through binary16 and back: the quantisation a value
/// suffers when it is stored to an FP16 register or HBM tensor.
///
/// Branch-free, so a loop over a slice of them vectorises (the decode and
/// prefill tiles round every softmax numerator P through it). Every input
/// class computes its candidate and the magnitude selects one; the sign is
/// OR'd in last:
///
/// * results in binary16's normal range (`2⁻¹⁴ ≤ |v| < 65520`) round in
///   place: binary32 and binary16 share the leading mantissa bits, so
///   round-to-nearest-even to 10 of binary32's 23 bits is adding `0x0FFF`
///   plus the lowest kept bit and clearing the 13 dropped ones (a tie
///   carries only when the kept mantissa is odd, and a carry out of the
///   mantissa steps the exponent exactly as binary16 rounding does);
/// * below `2⁻¹⁴` the result is a multiple of binary16's subnormal step
///   `2⁻²⁴`: `(|v| + 0.75) − 0.75` rounds `|v|` to nearest-even at that
///   step, since the sum lies in `[0.75, 1)` where binary32's step is
///   `2⁻²⁴`, and the subtraction is exact (a result of `2⁻¹⁴` is the
///   carry into the smallest normal, as in binary16);
/// * `65520 ≤ |v|` overflows to infinity;
/// * NaN keeps its top 10 payload bits, quieted.
///
/// The result is the `f32` of the round trip through [`F16`], bit for bit
/// on all 2³² inputs (pinned by an exhaustive test).
#[inline]
pub fn quantize_f32(v: f32) -> f32 {
    let bits = v.to_bits();
    f32::from_bits((bits & 0x8000_0000) | round_to_f16(bits & 0x7FFF_FFFF))
}

/// The bits of a binary32 magnitude (sign bit clear) rounded to binary16
/// and widened back, as [`quantize_f32`] describes.
#[inline(always)]
fn round_to_f16(magnitude: u32) -> u32 {
    let normal = (magnitude + 0x0FFF + ((magnitude >> 13) & 1)) & !0x1FFF;
    let subnormal = ((f32::from_bits(magnitude) + 0.75) - 0.75).to_bits();
    let nan = (magnitude & !0x1FFF) | 0x0040_0000;
    if magnitude < 0x3880_0000 {
        subnormal
    } else if magnitude < 0x477F_F000 {
        normal
    } else if magnitude <= 0x7F80_0000 {
        0x7F80_0000
    } else {
        nan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference conversion via the hardware f32→f16 semantics expressed
    /// through integer rounding on the scaled value. Used only in tests to
    /// cross-check `from_f32` on the normal range.
    fn reference_from_f32(v: f32) -> u16 {
        // Build the correctly rounded result by searching the two
        // neighbouring representable halves around v.
        if v.is_nan() {
            return 0x7E00
                | ((v.to_bits() >> 13) as u16 & 0x03FF)
                | 0x0200
                | ((v.to_bits() >> 16) as u16 & 0x8000);
        }
        let sign = if v.is_sign_negative() { 0x8000u16 } else { 0 };
        let a = v.abs();
        if a > 65519.99 {
            return sign | 0x7C00;
        }
        // Scan all finite magnitudes (0..=0x7BFF) for the closest; break
        // ties to even. 30k iterations per call — fine for tests.
        let mut best = 0u16;
        let mut best_err = f64::INFINITY;
        for bits in 0u16..=0x7BFF {
            let cand = F16(bits).to_f64();
            let err = (cand - a as f64).abs();
            if err < best_err || (err == best_err && bits & 1 == 0) {
                best_err = err;
                best = bits;
            }
        }
        sign | best
    }

    /// The field-by-field narrowing `from_f32` ran before its branch-free
    /// form, kept as the oracle that form is pinned against.
    fn from_f32_by_fields(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness; quiet the payload into the top
            // mantissa bit like hardware converters do.
            return if mantissa == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00 | ((mantissa >> 13) as u16 & 0x03FF) | 0x0200)
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows binary16 → ±Inf (matches RN conversion).
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Keep 10 mantissa bits, round the lower 13 to
            // nearest-even.
            let half_exp = (unbiased + EXPONENT_BIAS) as u16;
            let mut half_man = (mantissa >> 13) as u16;
            let round_bits = mantissa & 0x1FFF;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half_man & 1) == 1) {
                half_man += 1;
            }
            // Mantissa carry may bump the exponent; 0x7C00 (Inf) is reached
            // correctly when rounding 65519.999… up.
            return F16((sign | (half_exp << MANTISSA_BITS)).wrapping_add(half_man));
        }
        if unbiased >= -25 {
            // Subnormal range: shift the implicit bit into the mantissa and
            // round. `shift` is how many extra bits we drop relative to the
            // normal case.
            let full_man = mantissa | 0x0080_0000; // implicit leading 1
            let shift = (-14 - unbiased) as u32; // 1..=11
            let drop = 13 + shift;
            let half_man = (full_man >> drop) as u16;
            let round_mask = 1u32 << (drop - 1);
            let rem_mask = (1u32 << drop) - 1;
            let rem = full_man & rem_mask;
            let rounded = if rem > round_mask || (rem == round_mask && (half_man & 1) == 1) {
                half_man + 1
            } else {
                half_man
            };
            // `rounded` may carry into the normal range (0x0400) — that bit
            // pattern is exactly the smallest normal, so plain addition works.
            return F16(sign | rounded);
        }
        // Too small: underflow to signed zero.
        F16(sign)
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 inputs, ~30 s in release"]
    fn from_f32_matches_field_by_field_conversion_on_every_input() {
        for bits in 0..=u32::MAX {
            let v = f32::from_bits(bits);
            assert_eq!(
                F16::from_f32(v).to_bits(),
                from_f32_by_fields(v).to_bits(),
                "{bits:#010x}"
            );
        }
    }

    /// The field-by-field widening `to_f32` ran before its branch-free
    /// form, kept as the oracle that form is pinned against.
    fn to_f32_by_fields(h: F16) -> f32 {
        let sign = ((h.0 & 0x8000) as u32) << 16;
        let exp = ((h.0 >> MANTISSA_BITS) & 0x1F) as u32;
        let man = (h.0 & 0x03FF) as u32;
        let bits = match (exp, man) {
            (0, 0) => sign,
            (0, _) => {
                let msb = 31 - man.leading_zeros();
                sign | ((msb + 103) << 23) | ((man << (23 - msb)) & 0x007F_FFFF)
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, _) => sign | 0x7FC0_0000 | (man << 13),
            _ => sign | ((exp + 127 - 15) << 23) | (man << 13),
        };
        f32::from_bits(bits)
    }

    #[test]
    fn to_f32_matches_field_by_field_conversion_on_every_pattern() {
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            assert_eq!(
                h.to_f32().to_bits(),
                to_f32_by_fields(h).to_bits(),
                "{bits:#06x}"
            );
        }
    }

    /// `quantize_f32` must return the round trip through `F16` bit for bit
    /// (through the field-by-field conversion, which shares no code with
    /// it).
    fn assert_quantize_exact(bits: u32) {
        let v = f32::from_bits(bits);
        assert_eq!(
            quantize_f32(v).to_bits(),
            from_f32_by_fields(v).to_f32().to_bits(),
            "{bits:#010x}"
        );
    }

    #[test]
    fn quantize_is_exact_at_its_boundaries() {
        let positive = [
            0x387F_FFFF, // just below 2^-14: the last subnormal-result input
            0x3880_0000, // 2^-14: the first fast-path input
            0x477F_EFFF, // just below 65520: rounds down to 65504
            0x477F_F000, // 65520: the tie that rounds to infinity
            0x3F80_1000, // 1 + 2^-11: tie with an even kept mantissa, down
            0x3F80_3000, // 1 + 3·2^-11: tie with an odd kept mantissa, up
            0x3F80_0FFF, // just below a tie
            0x3F80_1001, // just above a tie
            0x3FFF_F000, // a tie carrying into the exponent (to 2.0)
            0x0000_0000, // zero
            0x7F80_0000, // infinity
            0x7FC0_0000, // NaN payloads: quiet,
            0x7F80_0001, // signalling,
            0x7FBF_FFFF, // full,
            0x7FC0_2000, // and one the binary16 keeps
            0x0000_0001, // binary32 subnormals
            0x007F_FFFF,
            0x3300_0000, // half the smallest binary16 subnormal: tie to zero
            0x3300_0001, // just above it
            0x3880_1000, // a tie at the bottom of the normal range
        ];
        for bits in positive {
            assert_quantize_exact(bits);
            assert_quantize_exact(bits | 0x8000_0000);
        }
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 inputs, ~35 s in release"]
    fn quantize_is_exact_on_every_input() {
        for bits in 0..=u32::MAX {
            assert_quantize_exact(bits);
        }
    }

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn zero_signs() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(-0.0).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn round_trip_all_finite_bit_patterns() {
        // Every finite f16 must survive f16 -> f32 -> f16 exactly.
        for bits in 0u16..=u16::MAX {
            let h = F16(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn conversion_matches_exhaustive_reference_on_samples() {
        // Cross-check RNE rounding (incl. ties) against the brute-force
        // nearest-even reference on a deliberately nasty sample set.
        let samples = [
            0.0f32,
            1.0,
            1.5,
            0.1,
            0.2,
            0.3,
            1.000_976_6, // 1 + 2^-10 exactly representable
            1.000_488_3, // 1 + 2^-11: tie, rounds to even (1.0)
            1.001_464_8, // 1 + 3*2^-11: tie, rounds up to 1+2^-9... (even)
            65504.0,
            65519.0,        // just below the overflow threshold
            65520.0,        // exactly the RN overflow tie -> Inf
            5.960_464_5e-8, // min subnormal
            2.980_232_2e-8, // half of min subnormal: tie -> 0 (even)
            2.980_233e-8,   // just above the tie -> min subnormal
            6.097_555e-5,   // just below min normal
            6.103_515_6e-5, // min normal
            core::f32::consts::PI,
            -core::f32::consts::E,
            1e-7,
            42.42,
        ];
        for &v in &samples {
            for &s in &[v, -v] {
                assert_eq!(
                    F16::from_f32(s).to_bits(),
                    reference_from_f32(s),
                    "value {s:e}"
                );
            }
        }
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e9), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e9), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        // Largest value that still rounds down to MAX.
        assert_eq!(F16::from_f32(65519.996), F16::MAX);
    }

    #[test]
    fn underflow_and_subnormals() {
        assert_eq!(F16::from_f32(1e-10), F16::ZERO);
        assert_eq!(F16::from_f32(-1e-10), F16::NEG_ZERO);
        let sub = F16::from_f32(1e-5);
        assert!(sub.is_subnormal());
        assert!((sub.to_f32() - 1e-5).abs() < 1e-7);
    }

    #[test]
    fn nan_propagates_through_conversion() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
    }

    #[test]
    fn arithmetic_rounds_each_step() {
        // 1 + 2^-11 rounds back to 1 in f16 even though exact in f32.
        let tiny = F16::from_f32(2.0f32.powi(-11));
        assert_eq!(F16::ONE + tiny, F16::ONE);
        // But 1 + 2^-10 is representable.
        let eps = F16::EPSILON;
        assert!(F16::ONE + eps > F16::ONE);
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let v = F16::from_f32(1.5);
        for b in 0..16 {
            let flipped = v.flip_bit(b);
            assert_eq!((flipped.to_bits() ^ v.to_bits()).count_ones(), 1);
            assert_eq!(flipped.flip_bit(b), v, "double flip restores");
        }
    }

    #[test]
    fn flip_sign_bit_negates() {
        let v = F16::from_f32(3.0);
        assert_eq!(v.flip_bit(15).to_f32(), -3.0);
    }

    #[test]
    fn flip_exponent_msb_is_catastrophic() {
        // Flipping exponent bit 14 of 1.0 produces 2^16 -> Inf territory;
        // this is the classic "large deviation" soft error the paper targets.
        let v = F16::ONE;
        let corrupted = v.flip_bit(14);
        assert!(corrupted.to_f32() >= 32768.0);
    }

    #[test]
    fn ulp_distance_is_zero_for_equal_and_one_for_neighbors() {
        let one = F16::ONE;
        assert_eq!(one.ulp_distance(one), 0);
        assert_eq!(one.ulp_distance(F16(one.to_bits() + 1)), 1);
        // Across the sign boundary: -min_subnormal to +min_subnormal is 2.
        assert_eq!(
            F16::MIN_POSITIVE_SUBNORMAL
                .negate()
                .ulp_distance(F16::MIN_POSITIVE_SUBNORMAL),
            2
        );
    }

    #[test]
    fn total_cmp_sorts_nan_last_and_orders_values() {
        let mut vals = [
            F16::NAN,
            F16::ONE,
            F16::NEG_INFINITY,
            F16::ZERO,
            F16::NEG_ONE,
            F16::INFINITY,
        ];
        vals.sort_by(F16::total_cmp);
        assert_eq!(vals[0], F16::NEG_INFINITY);
        assert_eq!(vals[1], F16::NEG_ONE);
        assert_eq!(vals[2], F16::ZERO);
        assert_eq!(vals[3], F16::ONE);
        assert_eq!(vals[4], F16::INFINITY);
        assert!(vals[5].is_nan());
    }

    proptest! {
        #[test]
        fn prop_from_f32_error_within_half_ulp(v in -65000.0f32..65000.0) {
            let h = F16::from_f32(v);
            let back = h.to_f32();
            // Nearest rounding: |back - v| <= ulp/2 where ulp is the spacing
            // at back's magnitude (2^-10 relative for normals).
            let spacing = if back == 0.0 || F16::from_f32(v).is_subnormal() {
                2.0f32.powi(-24)
            } else {
                back.abs() * 2.0f32.powi(-10)
            };
            prop_assert!((back - v).abs() <= spacing * 0.5 + f32::EPSILON,
                "v={v} back={back} spacing={spacing}");
        }

        #[test]
        fn prop_conversion_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
        }

        #[test]
        fn prop_add_commutative(a in -200.0f32..200.0, b in -200.0f32..200.0) {
            let (x, y) = (F16::from_f32(a), F16::from_f32(b));
            prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
        }

        #[test]
        fn prop_quantize_idempotent(v in -65000.0f32..65000.0) {
            let q = quantize_f32(v);
            prop_assert_eq!(quantize_f32(q).to_bits(), q.to_bits());
        }

        #[test]
        fn prop_quantize_is_the_f16_round_trip(bits in 0u32..u32::MAX, v in -70000.0f32..70000.0) {
            assert_quantize_exact(bits);
            assert_quantize_exact(v.to_bits());
        }

        #[test]
        fn prop_neg_is_involution(v in -65000.0f32..65000.0) {
            let h = F16::from_f32(v);
            prop_assert_eq!(h.negate().negate(), h);
        }
    }
}
