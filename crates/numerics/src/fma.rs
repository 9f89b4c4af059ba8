//! The MPE's FPU pipeline: mixed-precision fused multiply-add.
//!
//! Paper §III-A: each MPE has an 8-way SIMD FPU supporting FP16 and HFP8 on
//! the same 128-bit datapath. For HFP8 the two input operand flavours —
//! FP8 (1,4,3) with programmable bias and FP8 (1,5,2) — are converted *on
//! the fly* to a custom internal (1,5,3) format, the 4-bit multiplier
//! product is formed exactly, and both the FP16 and HFP8 compute paths merge
//! at the FP16 adder, so every mode produces FP16 results.
//!
//! The FPU also implements *zero-gating*: when either multiplicand is zero
//! the whole pipeline is bypassed and the addend passes through unchanged,
//! saving the pipeline's dynamic energy (exploited by sparsity-aware
//! frequency throttling, §III-C).

use crate::format::FpFormat;

/// One FP8 operand format of the HFP8 datapath. Either format may sit on
/// either multiplier port: both are converted to the internal (1,5,3)
/// format on the fly, so the hardware needs no fixed port assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fp8 {
    /// FP8 (1,4,3) with a programmable per-tensor exponent bias: the
    /// format of data tensors (weights and activations).
    E4m3 {
        /// Programmable exponent bias (7 by default).
        bias: i32,
    },
    /// FP8 (1,5,2) with the fixed bias 15: the format of error tensors.
    E5m2,
}

impl Fp8 {
    #[allow(clippy::expect_used)] // bias values are validated at construction
    fn format(self) -> FpFormat {
        match self {
            Fp8::E4m3 { bias } => FpFormat::fp8_e4m3_with_bias(bias).expect("validated bias"),
            Fp8::E5m2 => FpFormat::fp8_e5m2(),
        }
    }
}

/// Precision mode of an FMA instruction stream (fixed per program in the
/// MPE ISA; set in registers so hardware can data-gate operand widths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaMode {
    /// FP16 × FP16 + FP16 → FP16.
    Fp16,
    /// HFP8: each multiplier port takes its own FP8 format. The forward
    /// pass runs (1,4,3) × (1,4,3); backward passes put the (1,5,2) error
    /// operand on whichever port holds the error tensor, so no GEMM needs
    /// transposing to fit the datapath.
    Hfp8 {
        /// Format of operand A.
        a: Fp8,
        /// Format of operand B.
        b: Fp8,
    },
}

impl FmaMode {
    /// Forward HFP8 mode: (1,4,3) with the default bias 7 on both ports.
    pub fn hfp8_fwd_default() -> Self {
        FmaMode::Hfp8 { a: Fp8::E4m3 { bias: 7 }, b: Fp8::E4m3 { bias: 7 } }
    }

    /// Backward HFP8 mode: (1,4,3) with the default bias 7 on port A,
    /// (1,5,2) on port B.
    pub fn hfp8_bwd_default() -> Self {
        FmaMode::Hfp8 { a: Fp8::E4m3 { bias: 7 }, b: Fp8::E5m2 }
    }

    /// Input formats `(a, b)` for this mode.
    pub fn operand_formats(&self) -> (FpFormat, FpFormat) {
        match self {
            FmaMode::Fp16 => (FpFormat::fp16(), FpFormat::fp16()),
            FmaMode::Hfp8 { a, b } => (a.format(), b.format()),
        }
    }
}

/// Result of one FMA issue: the new accumulator value plus whether the
/// zero-gating bypass fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmaResult {
    /// New accumulator value (an exact FP16 value).
    pub acc: f32,
    /// `true` when the multiply pipeline was bypassed because a
    /// multiplicand was zero.
    pub zero_gated: bool,
}

/// One fused multiply-add through the MPE FPU pipeline.
///
/// `a` and `b` are quantized to the mode's operand formats (modeling the
/// values as they arrive from the L0/L1 scratchpads), converted to the
/// internal representation, multiplied exactly, added to `acc`, and the sum
/// rounded to FP16 — the merge point of the FP16 and HFP8 paths.
///
/// # Example
///
/// ```
/// use rapid_numerics::fma::{fma, FmaMode};
///
/// let r = fma(FmaMode::hfp8_fwd_default(), 1.0, 0.5, 0.25);
/// assert_eq!(r.acc, 1.125);
/// assert!(!r.zero_gated);
///
/// let gated = fma(FmaMode::Fp16, 42.0, 0.0, 3.0);
/// assert_eq!(gated.acc, 42.0); // addend passes through untouched
/// assert!(gated.zero_gated);
/// ```
pub fn fma(mode: FmaMode, acc: f32, a: f32, b: f32) -> FmaResult {
    let (fa, fb) = mode.operand_formats();
    let qa = fa.quantize(a);
    let qb = fb.quantize(b);
    fma_prequantized(mode, acc, qa, qb)
}

/// [`fma`] for operands that are already exact members of the mode's
/// operand formats (skips the input quantization; used by the GEMM kernels
/// which quantize whole tensors once).
pub(crate) fn fma_prequantized(mode: FmaMode, acc: f32, qa: f32, qb: f32) -> FmaResult {
    let fp16 = FpFormat::fp16();
    if qa == 0.0 || qb == 0.0 {
        // Zero-gating: bypass the pipeline, pass the addend through.
        return FmaResult { acc: fp16.quantize(acc), zero_gated: true };
    }
    // On-the-fly conversion to the internal format. For FP16 mode this is
    // the identity; for HFP8 both operands land in (1,5,3) exactly (the
    // formats are subsets of FP9 for in-range biases).
    let (ia, ib) = match mode {
        FmaMode::Fp16 => (qa, qb),
        FmaMode::Hfp8 { .. } => {
            let fp9 = FpFormat::fp9();
            (fp9.quantize(qa), fp9.quantize(qb))
        }
    };
    // The product of two values with <=9-bit significands is exact in f32's
    // 24-bit significand; the FP16 rounding happens at the adder.
    let product = ia * ib;
    let sum = fp16.quantize(f64_add_round_fp16(acc, product));
    FmaResult { acc: sum, zero_gated: false }
}

/// Adds in f64 (exact for our operand magnitudes) before the FP16 rounding,
/// so the model has a single rounding at the adder like the hardware.
fn f64_add_round_fp16(x: f32, y: f32) -> f32 {
    (f64::from(x) + f64::from(y)) as f32
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fp16_fma_exact_small_values() {
        let r = fma(FmaMode::Fp16, 1.0, 2.0, 3.0);
        assert_eq!(r.acc, 7.0);
        assert!(!r.zero_gated);
    }

    #[test]
    fn zero_gating_passes_addend_through() {
        for mode in [FmaMode::Fp16, FmaMode::hfp8_fwd_default(), FmaMode::hfp8_bwd_default()] {
            let r = fma(mode, 5.5, 0.0, 123.0);
            assert_eq!(r.acc, 5.5);
            assert!(r.zero_gated);
            let r = fma(mode, -2.25, 7.0, 0.0);
            assert_eq!(r.acc, -2.25);
            assert!(r.zero_gated);
        }
    }

    #[test]
    fn tiny_operand_that_quantizes_to_zero_gates() {
        // 1e-9 underflows FP8(1,4,3) (min normal 2^-6) -> gated.
        let r = fma(FmaMode::hfp8_fwd_default(), 1.0, 1e-9, 4.0);
        assert!(r.zero_gated);
        assert_eq!(r.acc, 1.0);
    }

    #[test]
    fn hfp8_bwd_uses_e5m2_for_b() {
        // 6.1 quantizes differently in the two formats: e4m3 step at [4,8)
        // is 0.5 (-> 6.0), e5m2 step is 1.0 (-> 6.0); use 6.3: e4m3 -> 6.5,
        // e5m2 -> 6.0.
        let fwd = fma(FmaMode::hfp8_fwd_default(), 0.0, 1.0, 6.3);
        let bwd = fma(FmaMode::hfp8_bwd_default(), 0.0, 1.0, 6.3);
        assert_eq!(fwd.acc, 6.5);
        assert_eq!(bwd.acc, 6.0);
        // Either port takes either format.
        let error_on_a = FmaMode::Hfp8 { a: Fp8::E5m2, b: Fp8::E4m3 { bias: 7 } };
        assert_eq!(fma(error_on_a, 0.0, 6.3, 1.0).acc, 6.0);
    }

    #[test]
    fn programmable_bias_extends_range() {
        // With default bias 7, max e4m3 magnitude is 480; with bias 3 it is
        // 16x larger.
        let big = 2000.0f32;
        let default = fma(FmaMode::hfp8_fwd_default(), 0.0, big, 1.0);
        let wide_a = FmaMode::Hfp8 { a: Fp8::E4m3 { bias: 3 }, b: Fp8::E4m3 { bias: 7 } };
        let wide = fma(wide_a, 0.0, big, 1.0);
        assert_eq!(default.acc, 480.0); // saturated
        assert_eq!(wide.acc, 2048.0); // representable with smaller bias
    }

    #[test]
    fn result_is_always_fp16_representable() {
        let fp16 = FpFormat::fp16();
        let mut acc = 0.0f32;
        for i in 0..100 {
            let r = fma(
                FmaMode::hfp8_fwd_default(),
                acc,
                0.3 + i as f32 * 0.01,
                -0.7 + i as f32 * 0.02,
            );
            acc = r.acc;
            assert!(fp16.is_representable(acc), "{acc} not fp16");
        }
    }
}
