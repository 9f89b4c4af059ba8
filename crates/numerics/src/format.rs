//! Runtime description of (sign, exponent, mantissa) floating-point formats.
//!
//! RaPiD's formats (paper §II-B, Fig 3):
//!
//! | format        | layout (s,e,m) | bias          | notes                          |
//! |---------------|----------------|---------------|--------------------------------|
//! | FP16 DLFloat  | (1,6,9)        | 31            | PE array native, merged at adder |
//! | FP8 fwd       | (1,4,3)        | *programmable* (default 7) | weights & activations |
//! | FP8 bwd       | (1,5,2)        | 15            | errors (needs dynamic range)  |
//! | FP9 internal  | (1,5,3)        | 15            | on-the-fly conversion target  |
//! | FP32          | (1,8,23)       | 127           | SFU selected ops               |
//!
//! IBM's training formats saturate on overflow rather than producing
//! infinities, and (like DLFloat) do not reserve a NaN/Inf exponent code;
//! both behaviours are configurable here.

use crate::NumericsError;

/// A software floating-point format: sign bit, `exp_bits` exponent bits with
/// bias `bias`, and `man_bits` stored mantissa bits (hidden leading one).
///
/// Values of the format are represented as `f32` values that are exact
/// members of the format's value set; [`FpFormat::quantize`] maps an
/// arbitrary `f32` to the nearest such member with round-to-nearest-even.
///
/// # Example
///
/// ```
/// use rapid_numerics::format::FpFormat;
///
/// let fp8 = FpFormat::fp8_e4m3();
/// assert_eq!(fp8.quantize(3.14), 3.25); // mantissa step is 0.25 at [2,4)
/// assert_eq!(fp8.max_value(), 480.0); // (2 - 2^-3) * 2^8, no reserved code
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpFormat {
    exp_bits: u32,
    man_bits: u32,
    bias: i32,
    /// When `true`, overflow clamps to `max_value()`; when `false` it
    /// produces an IEEE-style infinity.
    saturate: bool,
    /// When `true`, values below the minimum normal magnitude are
    /// represented with subnormals; when `false` (DLFloat-style) they round
    /// to zero or the minimum normal, whichever is nearer.
    subnormals: bool,
}

impl FpFormat {
    /// Creates a new format description.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidFormat`] if `exp_bits` is outside
    /// `2..=8`, `man_bits` is outside `1..=23`, or the bias places the
    /// format's exponent range outside what `f32` can represent exactly.
    pub(crate) fn new(
        exp_bits: u32,
        man_bits: u32,
        bias: i32,
        saturate: bool,
        subnormals: bool,
    ) -> Result<Self, NumericsError> {
        if !(2..=8).contains(&exp_bits) {
            return Err(NumericsError::InvalidFormat(format!(
                "exponent bits must be in 2..=8, got {exp_bits}"
            )));
        }
        if !(1..=23).contains(&man_bits) {
            return Err(NumericsError::InvalidFormat(format!(
                "mantissa bits must be in 1..=23, got {man_bits}"
            )));
        }
        let f = Self { exp_bits, man_bits, bias, saturate, subnormals };
        // The whole finite range (including the subnormal quantum) must be
        // exactly representable in f32 (normal range: exponent -126..=127).
        let min_exp = f.min_normal_exp() - man_bits as i32;
        let max_exp = f.max_exp() + 1;
        if min_exp < -126 || max_exp > 127 {
            return Err(NumericsError::InvalidFormat(format!(
                "bias {bias} places exponent range [{min_exp}, {max_exp}] outside f32"
            )));
        }
        Ok(f)
    }

    /// IBM DLFloat16: (1,6,9), bias 31, saturating, no subnormals.
    ///
    /// This is the FP16 flavour used throughout the RaPiD PE array. `const`
    /// so the per-FMA hot paths can materialize it for free (the literal
    /// fields are covered by `new`'s validation in the unit tests).
    pub const fn fp16() -> Self {
        Self { exp_bits: 6, man_bits: 9, bias: 31, saturate: true, subnormals: false }
    }

    /// HFP8 forward format FP8 (1,4,3) with the default bias of 7.
    pub const fn fp8_e4m3() -> Self {
        Self { exp_bits: 4, man_bits: 3, bias: 7, saturate: true, subnormals: false }
    }

    /// HFP8 forward format FP8 (1,4,3) with a *programmable* exponent bias.
    ///
    /// RaPiD exposes the bias as a configuration register so different DNN
    /// layers can use different dynamic ranges despite the same exponent
    /// width (paper §II-B).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidFormat`] if the bias places the
    /// format outside the exactly-representable `f32` range.
    pub fn fp8_e4m3_with_bias(bias: i32) -> Result<Self, NumericsError> {
        Self::new(4, 3, bias, true, false)
    }

    /// HFP8 backward format FP8 (1,5,2), bias 15, for error tensors.
    pub const fn fp8_e5m2() -> Self {
        Self { exp_bits: 5, man_bits: 2, bias: 15, saturate: true, subnormals: false }
    }

    /// The internal (1,5,3) format both HFP8 operand flavours are converted
    /// to on the fly inside the FPU (paper §III-A, ref \[50\]).
    pub const fn fp9() -> Self {
        Self { exp_bits: 5, man_bits: 3, bias: 15, saturate: true, subnormals: false }
    }

    /// IEEE binary32, as used by the SFU for selected operations.
    ///
    /// Quantizing to this format is the identity on finite `f32` inputs.
    pub fn fp32() -> Self {
        // Modeled as (1,8,23) identity; constructed directly because the
        // f32-exactness check above is phrased for narrower formats.
        Self { exp_bits: 8, man_bits: 23, bias: 127, saturate: false, subnormals: true }
    }

    /// Number of stored mantissa bits.
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Total storage width in bits (1 + exponent + mantissa).
    pub(crate) fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Whether overflow saturates to `max_value()` instead of infinity.
    pub(crate) fn saturates(&self) -> bool {
        self.saturate
    }

    /// Whether the format supports subnormal values.
    pub(crate) fn has_subnormals(&self) -> bool {
        self.subnormals
    }

    /// Largest unbiased exponent of a finite value.
    fn max_exp(&self) -> i32 {
        ((1u32 << self.exp_bits) - 1) as i32 - self.bias
    }

    /// Unbiased exponent of the smallest normal value.
    fn min_normal_exp(&self) -> i32 {
        1 - self.bias
    }

    /// Largest finite representable magnitude.
    pub fn max_value(&self) -> f32 {
        let frac = 2.0 - (0.5f64).powi(self.man_bits as i32);
        (frac * (self.max_exp() as f64).exp2()) as f32
    }

    /// Smallest positive normal magnitude.
    pub fn min_normal(&self) -> f32 {
        ((self.min_normal_exp() as f64).exp2()) as f32
    }

    /// Machine epsilon: spacing between 1.0 and the next representable value
    /// (assuming 1.0 is in range).
    pub fn epsilon(&self) -> f32 {
        (( -(self.man_bits as i32)) as f64).exp2() as f32
    }

    /// Rounds `x` to the nearest representable value of this format using
    /// round-to-nearest-even, honouring the format's saturation and
    /// subnormal configuration. NaN inputs propagate as NaN.
    ///
    /// Subnormal-free formats (every RaPiD format except FP32) take a
    /// branch-light bit-manipulation fast path; it is proven bit-identical
    /// to [`FpFormat::quantize_reference`] by exhaustive and property tests,
    /// and matters because quantization sits inside every emulated FMA.
    #[inline]
    pub fn quantize(&self, x: f32) -> f32 {
        if !self.subnormals && self.man_bits < 23 {
            self.quantize_fast(x)
        } else {
            self.quantize_reference(x)
        }
    }

    /// Bit-twiddled round-to-nearest-even for subnormal-free formats.
    ///
    /// Works directly on the f32 representation: RNE on the 23-bit mantissa
    /// truncated to `man_bits` (with carry into the exponent), integer
    /// comparisons against the format's min-normal/max-value bit patterns
    /// for the underflow/overflow rules.
    #[inline]
    fn quantize_fast(&self, x: f32) -> f32 {
        let bits = x.to_bits();
        let sign = bits & 0x8000_0000;
        let mag = bits & 0x7fff_ffff;
        if mag == 0 {
            return x; // preserve signed zero
        }
        if mag >= 0x7f80_0000 {
            if mag > 0x7f80_0000 {
                return f32::NAN;
            }
            let m = if self.saturate { self.max_value_bits() } else { 0x7f80_0000 };
            return f32::from_bits(sign | m);
        }
        let e_min = 1 - self.bias;
        let min_normal_bits = ((e_min + 127) as u32) << 23;
        if mag < min_normal_bits {
            // No subnormals: nearest of {0, min_normal}, ties (exactly
            // min_normal/2) to zero. min_normal/2 may itself be an f32
            // subnormal (e_min == -126); its bit pattern is still ordered
            // correctly for the integer comparison.
            let half_bits = (f32::from_bits(min_normal_bits) * 0.5).to_bits();
            let r = if mag > half_bits { min_normal_bits } else { 0 };
            return f32::from_bits(sign | r);
        }
        // RNE of the mantissa to man_bits: add (lsb/2 - 1 + round-bit) and
        // truncate. Mantissa overflow carries into the exponent, which is
        // exactly the round-up-to-next-binade behaviour RNE requires.
        let shift = 23 - self.man_bits;
        let lsb = 1u32 << shift;
        let rounded = (mag + ((lsb >> 1) - 1 + ((mag >> shift) & 1))) & !(lsb - 1);
        let max_bits = self.max_value_bits();
        if rounded > max_bits {
            let m = if self.saturate { max_bits } else { 0x7f80_0000 };
            return f32::from_bits(sign | m);
        }
        f32::from_bits(sign | rounded)
    }

    /// f32 bit pattern of `max_value()`, from integer arithmetic only.
    #[inline]
    fn max_value_bits(&self) -> u32 {
        let e_max = ((1u32 << self.exp_bits) - 1) as i32 - self.bias;
        (((e_max + 127) as u32) << 23) | (((1u32 << self.man_bits) - 1) << (23 - self.man_bits))
    }

    /// The straightforward f64-arithmetic implementation of
    /// [`FpFormat::quantize`]. Kept public as the independent reference the
    /// fast path is verified against (see `tests/fastpath_bitexact.rs`).
    pub fn quantize_reference(&self, x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x == 0.0 {
            return x; // preserve signed zero
        }
        if x.is_infinite() {
            let m = if self.saturate { self.max_value() } else { f32::INFINITY };
            return if x > 0.0 { m } else { -m };
        }
        let a = f64::from(x.abs());
        let sign = if x < 0.0 { -1.0f32 } else { 1.0f32 };

        // Exponent of a as an exact f64 (a is finite, nonzero, normal in f64
        // because it came from a nonzero finite f32).
        let bits = a.to_bits();
        let e_unbiased = ((bits >> 52) & 0x7ff) as i32 - 1023;

        let e_min = self.min_normal_exp();
        // Quantum: spacing of the format at this magnitude.
        let q_exp = e_unbiased.max(e_min) - self.man_bits as i32;
        let quantum = (q_exp as f64).exp2();
        let mut r = (a / quantum).round_ties_even() * quantum;

        // Rounding can carry into the next binade; magnitude checks below
        // handle overflow. Handle the no-subnormal small case first.
        let min_normal = f64::from(self.min_normal());
        if r < min_normal {
            if self.subnormals {
                // `r` is already on the subnormal grid (q_exp used e_min).
            } else {
                // Round to nearest of {0, min_normal}; ties (exactly half)
                // go to zero, the "even" endpoint.
                r = if a > min_normal / 2.0 { min_normal } else { 0.0 };
            }
        }

        let max_v = f64::from(self.max_value());
        if r > max_v {
            return if self.saturate {
                sign * self.max_value()
            } else {
                sign * f32::INFINITY
            };
        }
        sign * (r as f32)
    }

    /// Returns `true` when `x` is exactly representable in this format
    /// (including zero; NaN and infinities are not considered representable).
    #[cfg(test)]
    pub(crate) fn is_representable(&self, x: f32) -> bool {
        x.is_finite() && self.quantize(x) == x
    }

    /// Encodes a representable value into raw bits, little-endian layout
    /// `[sign | exponent | mantissa]`, in the low `total_bits()` of a `u32`.
    ///
    /// The value is quantized first, so any finite `f32` is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `total_bits() > 32` (cannot happen for constructible
    /// formats) .
    pub fn encode(&self, x: f32) -> u32 {
        let v = self.quantize(x);
        let sign = if v.is_sign_negative() { 1u32 } else { 0u32 };
        let a = f64::from(v.abs());
        let (exp_code, man) = if a == 0.0 {
            (0u32, 0u32)
        } else if self.saturate && v.abs() >= self.max_value() {
            (
                (1u32 << self.exp_bits) - 1,
                (1u32 << self.man_bits) - 1,
            )
        } else {
            let bits = a.to_bits();
            let e_unbiased = ((bits >> 52) & 0x7ff) as i32 - 1023;
            if e_unbiased < self.min_normal_exp() {
                // subnormal: exponent code 0, mantissa = a / quantum
                let quantum =
                    ((self.min_normal_exp() - self.man_bits as i32) as f64).exp2();
                (0u32, (a / quantum) as u32)
            } else {
                let e_code = (e_unbiased + self.bias) as u32;
                let frac = a / (e_unbiased as f64).exp2() - 1.0;
                let man = (frac * (self.man_bits as f64).exp2()).round() as u32;
                (e_code, man)
            }
        };
        (sign << (self.exp_bits + self.man_bits)) | (exp_code << self.man_bits) | man
    }

    /// Decodes raw bits produced by [`FpFormat::encode`] back to `f32`.
    pub fn decode(&self, bits: u32) -> f32 {
        let man_mask = (1u32 << self.man_bits) - 1;
        let exp_mask = (1u32 << self.exp_bits) - 1;
        let man = bits & man_mask;
        let exp_code = (bits >> self.man_bits) & exp_mask;
        let sign = if (bits >> (self.exp_bits + self.man_bits)) & 1 == 1 {
            -1.0f64
        } else {
            1.0f64
        };
        let v = if exp_code == 0 {
            if self.subnormals {
                let quantum =
                    ((self.min_normal_exp() - self.man_bits as i32) as f64).exp2();
                man as f64 * quantum
            } else if man == 0 {
                0.0
            } else {
                // No subnormals: exponent code 0 with nonzero mantissa is
                // not produced by `encode`; decode it as the normal binade
                // for robustness.
                let frac = 1.0 + man as f64 / (self.man_bits as f64).exp2();
                frac * (self.min_normal_exp() as f64).exp2()
            }
        } else {
            let e = exp_code as i32 - self.bias;
            let frac = 1.0 + man as f64 / (self.man_bits as f64).exp2();
            frac * (e as f64).exp2()
        };
        (sign * v) as f32
    }

    /// Iterates over every non-negative representable magnitude in
    /// increasing order (the enumerator exhaustive tests on narrow formats
    /// compare against).
    #[cfg(test)]
    pub(crate) fn positive_values(&self) -> Vec<f32> {
        let mut out = vec![0.0f32];
        if self.subnormals {
            let quantum = ((self.min_normal_exp() - self.man_bits as i32) as f64).exp2() as f32;
            for m in 1..(1u32 << self.man_bits) {
                out.push(m as f32 * quantum);
            }
        }
        for e_code in 1..=((1u32 << self.exp_bits) - 1) {
            let e = e_code as i32 - self.bias;
            for m in 0..(1u32 << self.man_bits) {
                let frac = 1.0 + m as f64 / (self.man_bits as f64).exp2();
                out.push((frac * (e as f64).exp2()) as f32);
            }
        }
        out
    }
}

/// Rounds `x` onto the FP16 (DLFloat16) lattice.
///
/// Monomorphized shorthand for `FpFormat::fp16().quantize(x)`: the constant
/// format lets the compiler fold the bit-pattern thresholds, which matters
/// because this call sits inside every emulated-accumulator update.
#[inline(always)]
pub fn fp16_round(x: f32) -> f32 {
    FpFormat::fp16().quantize_fast(x)
}

impl std::fmt::Display for FpFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fp{}(1,{},{})b{}", self.total_bits(), self.exp_bits, self.man_bits, self.bias)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fp16_properties_match_dlfloat() {
        let f = FpFormat::fp16();
        assert_eq!(f.total_bits(), 16);
        assert_eq!(f.exp_bits, 6);
        assert_eq!(f.man_bits(), 9);
        assert_eq!(f.bias, 31);
        // max exponent 63-31 = 32, frac 2 - 2^-9
        assert!((f64::from(f.max_value()) - (2.0 - 2f64.powi(-9)) * 2f64.powi(32)).abs() < 1e20);
        assert_eq!(f.min_normal(), 2f32.powi(-30));
    }

    #[test]
    fn fp8_e4m3_range() {
        let f = FpFormat::fp8_e4m3();
        // IBM-style: no reserved code, max = (2 - 2^-3) * 2^(15-7) ... wait:
        // max exp code 15 -> unbiased 8, (2 - 0.125) * 256 = 480? The paper's
        // format keeps all codes finite: verify against our own definition.
        assert_eq!(f.max_value(), (2.0 - 0.125) * 2f32.powi(8));
        assert_eq!(f.min_normal(), 2f32.powi(-6));
        assert_eq!(f.positive_values().len(), 15 * 8 + 1);
    }

    #[test]
    fn programmable_bias_shifts_range() {
        let lo = FpFormat::fp8_e4m3_with_bias(4).unwrap();
        let hi = FpFormat::fp8_e4m3_with_bias(11).unwrap();
        // Smaller bias -> larger values representable.
        assert!(lo.max_value() > hi.max_value());
        assert_eq!(lo.max_value() / hi.max_value(), 2f32.powi(7));
        // Bias change is a pure power-of-two scaling of the value set.
        for (a, b) in lo.positive_values().iter().zip(hi.positive_values().iter()) {
            assert_eq!(*a, *b * 2f32.powi(7));
        }
    }

    #[test]
    fn quantize_rounds_to_nearest_even() {
        let f = FpFormat::fp8_e4m3(); // mantissa step at [1,2) is 0.125
        assert_eq!(f.quantize(1.0), 1.0);
        assert_eq!(f.quantize(1.0624), 1.0);
        assert_eq!(f.quantize(1.0626), 1.125);
        // Tie: 1.0625 is halfway between 1.0 and 1.125 -> even mantissa (1.0)
        assert_eq!(f.quantize(1.0625), 1.0);
        // Tie: 1.1875 halfway between 1.125 and 1.25 -> 1.25 (even mantissa 2)
        assert_eq!(f.quantize(1.1875), 1.25);
    }

    #[test]
    fn quantize_saturates() {
        let f = FpFormat::fp8_e5m2();
        let max = f.max_value();
        assert_eq!(f.quantize(1e30), max);
        assert_eq!(f.quantize(-1e30), -max);
        assert_eq!(f.quantize(f32::INFINITY), max);
    }

    #[test]
    fn quantize_small_values_without_subnormals() {
        let f = FpFormat::fp8_e4m3(); // min normal 2^-6
        let mn = f.min_normal();
        assert_eq!(f.quantize(mn), mn);
        assert_eq!(f.quantize(mn * 0.6), mn);
        assert_eq!(f.quantize(mn * 0.4), 0.0);
        // Exactly half rounds to zero (the even endpoint).
        assert_eq!(f.quantize(mn * 0.5), 0.0);
    }

    #[test]
    fn quantize_preserves_signed_zero_and_nan() {
        let f = FpFormat::fp16();
        assert!(f.quantize(f32::NAN).is_nan());
        assert_eq!(f.quantize(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(f.quantize(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn quantize_is_idempotent_exhaustively_fp8() {
        for fmt in [FpFormat::fp8_e4m3(), FpFormat::fp8_e5m2(), FpFormat::fp9()] {
            for v in fmt.positive_values() {
                assert_eq!(fmt.quantize(v), v, "{fmt}: {v} not a fixed point");
                assert_eq!(fmt.quantize(-v), -v);
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive() {
        for fmt in [FpFormat::fp8_e4m3(), FpFormat::fp8_e5m2(), FpFormat::fp9()] {
            for v in fmt.positive_values() {
                assert_eq!(fmt.decode(fmt.encode(v)), v, "{fmt}: {v}");
                if v != 0.0 {
                    assert_eq!(fmt.decode(fmt.encode(-v)), -v, "{fmt}: -{v}");
                }
            }
        }
    }

    #[test]
    fn fp32_quantize_is_identity() {
        let f = FpFormat::fp32();
        for v in [1.0f32, -2.5e-3, 1.7e30, f32::MIN_POSITIVE, 0.1] {
            assert_eq!(f.quantize(v), v);
        }
    }

    #[test]
    fn invalid_formats_rejected() {
        assert!(FpFormat::new(1, 3, 7, true, false).is_err());
        assert!(FpFormat::new(4, 0, 7, true, false).is_err());
        assert!(FpFormat::new(4, 3, 500, true, false).is_err());
        assert!(FpFormat::fp8_e4m3_with_bias(-200).is_err());
    }

    #[test]
    fn quantize_monotonic_on_dense_grid() {
        let f = FpFormat::fp8_e4m3();
        let mut prev = f.quantize(-500.0);
        let mut x = -500.0f32;
        while x < 500.0 {
            let q = f.quantize(x);
            assert!(q >= prev, "quantize not monotone at {x}: {q} < {prev}");
            prev = q;
            x += 0.37;
        }
    }

    #[test]
    fn const_constructors_pass_validation() {
        assert_eq!(FpFormat::fp16(), FpFormat::new(6, 9, 31, true, false).unwrap());
        assert_eq!(FpFormat::fp8_e4m3(), FpFormat::new(4, 3, 7, true, false).unwrap());
        assert_eq!(FpFormat::fp8_e5m2(), FpFormat::new(5, 2, 15, true, false).unwrap());
        assert_eq!(FpFormat::fp9(), FpFormat::new(5, 3, 15, true, false).unwrap());
    }

    /// The bit-twiddled fast path must agree with the f64 reference on
    /// every input class: lattice points, rounding boundaries, underflow
    /// region, overflow, specials, and a dense pseudo-random sweep.
    #[test]
    fn fast_quantize_bit_identical_to_reference() {
        let formats = [
            FpFormat::fp16(),
            FpFormat::fp8_e4m3(),
            FpFormat::fp8_e5m2(),
            FpFormat::fp9(),
            FpFormat::fp8_e4m3_with_bias(-3).unwrap(),
            FpFormat::fp8_e4m3_with_bias(11).unwrap(),
        ];
        let agree = |fmt: &FpFormat, x: f32| {
            let fast = fmt.quantize(x);
            let slow = fmt.quantize_reference(x);
            assert!(
                fast.to_bits() == slow.to_bits() || (fast.is_nan() && slow.is_nan()),
                "{fmt}: quantize({x:e}) fast={fast:e} reference={slow:e}"
            );
        };
        for fmt in &formats {
            // Every lattice point, its neighbourhood, and halfway points.
            for v in fmt.positive_values() {
                for scale in [1.0f32, 0.9999999, 1.0000001] {
                    agree(fmt, v * scale);
                    agree(fmt, -v * scale);
                }
            }
            let mn = fmt.min_normal();
            for x in [
                0.0,
                -0.0,
                mn * 0.5,
                -mn * 0.5,
                mn * 0.49999,
                mn * 0.50001,
                fmt.max_value(),
                fmt.max_value() * 1.5,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::MIN_POSITIVE,
                f32::MIN_POSITIVE / 2.0, // f32 subnormal input
            ] {
                agree(fmt, x);
            }
            // Dense pseudo-random bit patterns (finite ones only matter;
            // specials are covered above and by the NaN check in `agree`).
            let mut state = 0x9E37_79B9u32;
            for _ in 0..20_000 {
                state = state.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
                agree(fmt, f32::from_bits(state));
            }
        }
    }

    /// The paper's on-the-fly conversion claim: (1,5,3) can hold any
    /// (1,4,3)-default-bias or (1,5,2) value exactly — that is why a single
    /// FP9 datapath suffices for both HFP8 operand flavours.
    #[test]
    fn fp9_exactly_contains_both_fp8_formats() {
        let fp9 = FpFormat::fp9();
        for v in FpFormat::fp8_e4m3().positive_values() {
            assert_eq!(fp9.quantize(v), v, "e4m3 value {v} not exact in fp9");
        }
        for v in FpFormat::fp8_e5m2().positive_values() {
            assert_eq!(fp9.quantize(v), v, "e5m2 value {v} not exact in fp9");
        }
    }

    /// Programmable bias shifts the e4m3 value set by powers of two; FP9
    /// with its wider exponent absorbs biases near the default exactly.
    #[test]
    fn fp9_contains_biased_e4m3_within_exponent_budget() {
        for bias in 4..=10 {
            let fmt = FpFormat::fp8_e4m3_with_bias(bias).unwrap();
            let fp9 = FpFormat::fp9();
            let vals = fmt.positive_values();
            let contained = vals.iter().filter(|&&v| fp9.quantize(v) == v).count();
            // All values inside FP9's range are exact; extreme biases push
            // part of the range outside, which the hardware handles by
            // configuring the accumulation scaling.
            assert!(contained as f32 / vals.len() as f32 > 0.9, "bias {bias}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(FpFormat::fp8_e4m3().to_string(), "fp8(1,4,3)b7");
        assert_eq!(FpFormat::fp16().to_string(), "fp16(1,6,9)b31");
    }
}
