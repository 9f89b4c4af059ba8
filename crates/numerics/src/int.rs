//! INT4/INT2 fixed-point types and the FXU accumulation pipeline.
//!
//! Paper §III-A: the MPE's separate FXU pipeline supports 4- and 2-bit
//! integer MAC operations producing 16-bit integer results; chunk partial
//! sums (INT16) are then accumulated by the SFU. Quantized inference uses
//! per-tensor scale factors: activations via PACT (unsigned, clipped to a
//! learned α) and weights via SaWB (signed symmetric) — see `rapid-quant`.

use crate::NumericsError;

/// Width of a fixed-point element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntFormat {
    /// 4-bit integer.
    Int4,
    /// 2-bit integer.
    Int2,
}

impl IntFormat {
    /// Number of bits per element.
    pub(crate) fn bits(&self) -> u32 {
        match self {
            IntFormat::Int4 => 4,
            IntFormat::Int2 => 2,
        }
    }

    /// Inclusive signed range `(min, max)`. RaPiD uses the symmetric range
    /// (−7..7 for INT4) so that SaWB-binned weights negate exactly.
    pub(crate) fn signed_range(&self) -> (i32, i32) {
        match self {
            IntFormat::Int4 => (-7, 7),
            IntFormat::Int2 => (-1, 1),
        }
    }

    /// Inclusive unsigned range `(0, max)`, used for PACT activations.
    pub(crate) fn unsigned_range(&self) -> (i32, i32) {
        match self {
            IntFormat::Int4 => (0, 15),
            IntFormat::Int2 => (0, 3),
        }
    }
}

impl std::fmt::Display for IntFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntFormat::Int4 => write!(f, "int4"),
            IntFormat::Int2 => write!(f, "int2"),
        }
    }
}

/// Signedness of a quantized tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signedness {
    /// Symmetric signed levels (weights).
    Signed,
    /// Unsigned levels starting at zero (PACT activations).
    Unsigned,
}

/// Per-tensor uniform quantization parameters: `real = scale * code`.
///
/// # Example
///
/// ```
/// use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
///
/// let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 3.5);
/// assert_eq!(q.quantize(3.5), 7);
/// assert_eq!(q.dequantize(7), 3.5);
/// assert_eq!(q.quantize(100.0), 7); // clamps
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    format: IntFormat,
    signedness: Signedness,
    scale: f32,
}

impl QuantParams {
    /// Builds parameters mapping `[-abs_max, abs_max]` (signed) or
    /// `[0, abs_max]` (unsigned) onto the code range.
    ///
    /// A non-positive or non-finite `abs_max` yields a degenerate scale of
    /// 1.0 (all-zero tensors quantize to zero codes).
    pub fn from_abs_max(format: IntFormat, signedness: Signedness, abs_max: f32) -> Self {
        let max_code = match signedness {
            Signedness::Signed => format.signed_range().1,
            Signedness::Unsigned => format.unsigned_range().1,
        } as f32;
        let scale = if abs_max.is_finite() && abs_max > 0.0 {
            abs_max / max_code
        } else {
            1.0
        };
        Self { format, signedness, scale }
    }

    /// Builds parameters with an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidFormat`] if `scale` is not a positive
    /// finite number.
    pub fn with_scale(
        format: IntFormat,
        signedness: Signedness,
        scale: f32,
    ) -> Result<Self, NumericsError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(NumericsError::InvalidFormat(format!(
                "quantization scale must be positive and finite, got {scale}"
            )));
        }
        Ok(Self { format, signedness, scale })
    }

    /// The element format.
    pub fn format(&self) -> IntFormat {
        self.format
    }

    /// The signedness of the code range.
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// The real value of one code step.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Inclusive code range `(min, max)`.
    pub fn code_range(&self) -> (i32, i32) {
        match self.signedness {
            Signedness::Signed => self.format.signed_range(),
            Signedness::Unsigned => self.format.unsigned_range(),
        }
    }

    /// Quantizes a real value to the nearest code, clamping to range.
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let (lo, hi) = self.code_range();
        let code = (f64::from(x) / f64::from(self.scale)).round_ties_even() as i64;
        code.clamp(lo as i64, hi as i64) as i8
    }

    /// Quantizes a whole slice into `out` (cleared first). Element-wise
    /// identical to [`Self::quantize`]. On AVX2 machines four lanes at a
    /// time run the same IEEE operations: widen to f64 (exact), `vdivpd`,
    /// `vroundpd` to nearest-even, NaN to zero, clamp to the code range as
    /// f64 (which is where the scalar saturating cast and clamp land too),
    /// then convert and pack. The scalar `as i64` cast is what kept the
    /// plain loop from vectorizing.
    pub fn quantize_slice_into(&self, xs: &[f32], out: &mut Vec<i8>) {
        out.clear();
        out.resize(xs.len(), 0);
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if crate::dispatch::simd_available() {
            // SAFETY: AVX2 presence checked on the line above.
            done = unsafe { self.quantize_lanes_avx2(xs, out) };
        }
        for (o, &x) in out[done..].iter_mut().zip(&xs[done..]) {
            *o = self.quantize(x);
        }
    }

    /// Quantizes the leading multiple of 8 elements of `xs` into `out` and
    /// returns how many it wrote; the caller finishes the tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `out.len() == xs.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_lanes_avx2(&self, xs: &[f32], out: &mut [i8]) -> usize {
        use std::arch::x86_64::*;
        let (lo, hi) = self.code_range();
        let scale = _mm256_set1_pd(f64::from(self.scale));
        let (lo, hi) = (_mm256_set1_pd(f64::from(lo)), _mm256_set1_pd(f64::from(hi)));
        let lanes4 = |v: __m128| {
            let q = _mm256_div_pd(_mm256_cvtps_pd(v), scale);
            let q = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(q);
            // NaN compares unordered with itself: its lanes become +0.0.
            let q = _mm256_and_pd(q, _mm256_cmp_pd::<_CMP_ORD_Q>(q, q));
            _mm256_cvtpd_epi32(_mm256_min_pd(_mm256_max_pd(q, lo), hi))
        };
        let whole = xs.len() / 8 * 8;
        for (x8, o8) in xs[..whole].chunks_exact(8).zip(out[..whole].chunks_exact_mut(8)) {
            let v = _mm256_loadu_ps(x8.as_ptr());
            let lo4 = lanes4(_mm256_castps256_ps128(v));
            let hi4 = lanes4(_mm256_extractf128_ps::<1>(v));
            let words = _mm_packs_epi32(lo4, hi4);
            _mm_storel_epi64(o8.as_mut_ptr().cast(), _mm_packs_epi16(words, words));
        }
        whole
    }

    /// Real value of a code.
    pub fn dequantize(&self, code: i8) -> f32 {
        self.scale * f32::from(code)
    }

    /// Quantize-dequantize: the value the hardware actually computes with.
    pub fn fake_quantize(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// The FXU's chunked integer accumulator: products accumulate into an
/// INT16 register (saturating, as hardware registers do); chunk totals are
/// accumulated at INT32 by the SFU. With RaPiD's chunk sizes INT16 never
/// saturates for in-range INT4 data, which the tests verify.
///
/// # Example
///
/// ```
/// use rapid_numerics::int::IntAccumulator;
///
/// let mut acc = IntAccumulator::new(64);
/// for _ in 0..100 {
///     acc.mac(7, -7);
/// }
/// assert_eq!(acc.saturations(), 0);
/// assert_eq!(acc.finish(), -4900);
/// ```
#[derive(Debug, Clone)]
pub struct IntAccumulator {
    chunk_len: usize,
    in_chunk: usize,
    chunk_acc: i16,
    outer_acc: i64,
    macs: u64,
    zero_gated: u64,
    saturations: u64,
}

impl IntAccumulator {
    /// Creates an accumulator flushing the INT16 chunk register every
    /// `chunk_len` MACs.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn new(chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        Self {
            chunk_len,
            in_chunk: 0,
            chunk_acc: 0,
            outer_acc: 0,
            macs: 0,
            zero_gated: 0,
            saturations: 0,
        }
    }

    /// Multiply-accumulate one pair of integer codes.
    pub fn mac(&mut self, a: i8, b: i8) {
        self.macs += 1;
        if a == 0 || b == 0 {
            self.zero_gated += 1;
        } else {
            let p = i16::from(a) * i16::from(b);
            let (sum, overflow) = self.chunk_acc.overflowing_add(p);
            if overflow {
                self.saturations += 1;
                self.chunk_acc = if p > 0 { i16::MAX } else { i16::MIN };
            } else {
                self.chunk_acc = sum;
            }
        }
        self.in_chunk += 1;
        if self.in_chunk == self.chunk_len {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        self.outer_acc += i64::from(self.chunk_acc);
        self.chunk_acc = 0;
        self.in_chunk = 0;
    }

    /// Current value of the INT16 chunk register (fault-injection hooks and
    /// numeric guards inspect it between MACs).
    pub(crate) fn chunk_value(&self) -> i16 {
        self.chunk_acc
    }

    /// Applies `f` to the chunk register in place — the entry point for
    /// injected chunk-register upsets and for guard-policy clamping. Leaves
    /// every statistic untouched.
    pub(crate) fn corrupt_chunk(&mut self, f: impl FnOnce(i16) -> i16) {
        self.chunk_acc = f(self.chunk_acc);
    }

    /// Total MACs issued.
    pub(crate) fn macs(&self) -> u64 {
        self.macs
    }

    /// MACs bypassed by zero-gating.
    pub(crate) fn zero_gated(&self) -> u64 {
        self.zero_gated
    }

    /// Number of INT16 chunk-register saturations observed (should be zero
    /// for hardware-legal chunk lengths).
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Flushes and returns the integer sum.
    pub fn finish(mut self) -> i64 {
        self.flush_chunk();
        self.outer_acc
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn int4_ranges() {
        assert_eq!(IntFormat::Int4.signed_range(), (-7, 7));
        assert_eq!(IntFormat::Int4.unsigned_range(), (0, 15));
    }

    #[test]
    fn quantize_roundtrip_all_codes() {
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        for code in -7i8..=7 {
            assert_eq!(q.quantize(q.dequantize(code)), code);
        }
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, 6.0);
        assert_eq!(q.quantize(-3.0), 0);
        assert_eq!(q.quantize(1e9), 15);
    }

    #[test]
    fn degenerate_abs_max_is_safe() {
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 0.0);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.scale(), 1.0);
        assert!(QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, 0.0).is_err());
        assert!(QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, f32::NAN).is_err());
    }

    #[test]
    fn accumulator_exact_for_legal_chunks() {
        // Worst case INT4: 64 MACs of 7*7 = 3136 < i16::MAX — the paper's
        // INT16 chunk register never saturates at the dataflow chunk size.
        let mut acc = IntAccumulator::new(64);
        for _ in 0..64 * 100 {
            acc.mac(7, 7);
        }
        assert_eq!(acc.saturations(), 0);
        assert_eq!(acc.finish(), 49 * 6400);
    }

    #[test]
    fn accumulator_saturates_when_chunk_too_long() {
        // 7*7*700 = 34_300 > 32_767: an illegal chunk length saturates.
        let mut acc = IntAccumulator::new(1024);
        for _ in 0..700 {
            acc.mac(7, 7);
        }
        assert!(acc.saturations() > 0);
    }

    #[test]
    fn accumulator_zero_gating() {
        let mut acc = IntAccumulator::new(16);
        acc.mac(0, 5);
        acc.mac(3, 0);
        acc.mac(2, 2);
        assert_eq!(acc.zero_gated(), 2);
        assert_eq!(acc.finish(), 4);
    }

    #[test]
    fn rne_at_code_boundaries() {
        let q = QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, 1.0).unwrap();
        assert_eq!(q.quantize(0.5), 0); // tie to even
        assert_eq!(q.quantize(1.5), 2);
        assert_eq!(q.quantize(2.5), 2);
        assert_eq!(q.quantize(-0.5), 0);
        assert_eq!(q.quantize(-1.5), -2);
    }
}
