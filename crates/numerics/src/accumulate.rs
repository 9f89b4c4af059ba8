//! Chunk-based hierarchical accumulation (Sakr et al., ICLR 2019 \[51\]).
//!
//! Accumulating thousands of low-precision products into a single FP16
//! register suffers *swamping*: once the running sum is much larger than an
//! addend, the addend is rounded away entirely. RaPiD avoids this by
//! accumulating fixed-size chunks in the MPE (FP16 or INT16 partial sums)
//! and summing the chunk results hierarchically in the SFU at higher
//! precision (paper §III-A: "HFP8 training also uses chunk-based
//! accumulation to accumulate partial sums in a hierarchical fashion").

use crate::fma::{fma_prequantized, FmaMode, FmaResult};
use crate::format::FpFormat;

/// A two-level accumulator: products are accumulated into an FP16 chunk
/// register inside the MPE; every `chunk_len` terms the chunk total is
/// handed to a higher-precision (FP32-modeled) SFU accumulator.
///
/// # Example
///
/// ```
/// use rapid_numerics::accumulate::ChunkAccumulator;
/// use rapid_numerics::fma::FmaMode;
///
/// let mut acc = ChunkAccumulator::new(FmaMode::hfp8_fwd_default(), 64);
/// for _ in 0..1000 {
///     acc.mac(1.0, 0.25);
/// }
/// assert_eq!(acc.finish(), 250.0);
/// ```
#[derive(Debug, Clone)]
pub struct ChunkAccumulator {
    mode: FmaMode,
    chunk_len: usize,
    in_chunk: usize,
    chunk_acc: f32,
    outer_acc: f32,
    macs: u64,
    zero_gated: u64,
}

impl ChunkAccumulator {
    /// Creates an accumulator that flushes the FP16 chunk register every
    /// `chunk_len` MACs. RaPiD's dataflow flushes at LRF-reload boundaries;
    /// 64 is a representative chunk length.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn new(mode: FmaMode, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        Self {
            mode,
            chunk_len,
            in_chunk: 0,
            chunk_acc: 0.0,
            outer_acc: 0.0,
            macs: 0,
            zero_gated: 0,
        }
    }

    /// Multiply-accumulate one pair of *pre-quantized* operands.
    pub fn mac(&mut self, a: f32, b: f32) {
        let FmaResult { acc, zero_gated } =
            fma_prequantized(self.mode, self.chunk_acc, a, b);
        self.chunk_acc = acc;
        self.macs += 1;
        if zero_gated {
            self.zero_gated += 1;
        }
        self.in_chunk += 1;
        if self.in_chunk == self.chunk_len {
            self.flush_chunk();
        }
    }

    fn flush_chunk(&mut self) {
        // The SFU accumulates chunk sums in higher precision (FP32).
        self.outer_acc += self.chunk_acc;
        self.chunk_acc = 0.0;
        self.in_chunk = 0;
    }

    /// Current value of the FP16 chunk register (fault-injection hooks and
    /// numeric guards inspect it between MACs).
    pub fn chunk_value(&self) -> f32 {
        self.chunk_acc
    }

    /// Applies `f` to the chunk register in place — the entry point for
    /// injected accumulator upsets and for guard-policy clamping. Leaves
    /// every statistic untouched: a corrupted register is not a MAC.
    pub(crate) fn corrupt_chunk(&mut self, f: impl FnOnce(f32) -> f32) {
        self.chunk_acc = f(self.chunk_acc);
    }

    /// Total MACs issued so far.
    pub(crate) fn macs(&self) -> u64 {
        self.macs
    }

    /// MACs that were bypassed by zero-gating.
    pub(crate) fn zero_gated(&self) -> u64 {
        self.zero_gated
    }

    /// Flushes the open chunk and returns the final sum, rounded to FP16 as
    /// it is written back toward the scratchpad.
    pub fn finish(mut self) -> f32 {
        self.flush_chunk();
        FpFormat::fp16().quantize(self.outer_acc)
    }
}

/// Accumulates a dot product *without* chunking: a single FP16 register,
/// as a baseline to demonstrate the swamping problem chunking solves.
pub fn dot_flat_fp16(mode: FmaMode, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc = fma_prequantized(mode, acc, x, y).acc;
    }
    acc
}

/// Chunked dot product of pre-quantized operands.
pub fn dot_chunked(mode: FmaMode, a: &[f32], b: &[f32], chunk_len: usize) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut acc = ChunkAccumulator::new(mode, chunk_len);
    for (&x, &y) in a.iter().zip(b) {
        acc.mac(x, y);
    }
    acc.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn chunked_equals_flat_for_short_sums() {
        let a: Vec<f32> = (0..16).map(|i| (i as f32) * 0.125).collect();
        let b: Vec<f32> = (0..16).map(|i| 1.0 - (i as f32) * 0.0625).collect();
        let fp16 = FpFormat::fp16();
        let qa: Vec<f32> = a.iter().map(|&x| fp16.quantize(x)).collect();
        let qb: Vec<f32> = b.iter().map(|&x| fp16.quantize(x)).collect();
        let flat = dot_flat_fp16(FmaMode::Fp16, &qa, &qb);
        let chunked = dot_chunked(FmaMode::Fp16, &qa, &qb, 64);
        assert_eq!(flat, chunked);
    }

    /// The headline property from [51]: for long reductions, flat FP16
    /// accumulation swamps small addends while chunked accumulation stays
    /// close to the exact sum.
    #[test]
    fn chunking_fixes_swamping_on_long_sums() {
        let n = 8192;
        let a = vec![1.0f32; n];
        let b = vec![0.25f32; n]; // exact in every format
        let exact = 0.25 * n as f32; // 2048
        let flat = dot_flat_fp16(FmaMode::Fp16, &a, &b);
        let chunked = dot_chunked(FmaMode::Fp16, &a, &b, 64);
        // Flat: once the sum reaches 1024, +0.25 is below half an ulp
        // (ulp at 1024 with 9 mantissa bits is 2) and is rounded away.
        assert!(flat < exact * 0.6, "flat={flat} should swamp well below {exact}");
        assert_eq!(chunked, exact);
    }

    #[test]
    fn chunked_hfp8_dot_matches_fp32_within_tolerance() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4096;
        let fa = FpFormat::fp8_e4m3();
        let a: Vec<f32> = (0..n).map(|_| fa.quantize(rng.gen_range(-1.0..1.0))).collect();
        let b: Vec<f32> = (0..n).map(|_| fa.quantize(rng.gen_range(-1.0..1.0))).collect();
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        let got = dot_chunked(FmaMode::hfp8_fwd_default(), &a, &b, 64);
        let denom: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x * y).abs()).sum();
        let rel = (f64::from(got) - exact).abs() / denom.max(1.0);
        assert!(rel < 0.01, "relative error {rel} too large (got {got}, exact {exact})");
    }

    #[test]
    fn stats_count_macs_and_gating() {
        let mut acc = ChunkAccumulator::new(FmaMode::Fp16, 8);
        for i in 0..20 {
            acc.mac(if i % 2 == 0 { 1.0 } else { 0.0 }, 1.0);
        }
        assert_eq!(acc.macs(), 20);
        assert_eq!(acc.zero_gated(), 10);
        assert_eq!(acc.finish(), 10.0);
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn zero_chunk_len_panics() {
        let _ = ChunkAccumulator::new(FmaMode::Fp16, 0);
    }

    #[test]
    fn finish_flushes_partial_chunk() {
        let mut acc = ChunkAccumulator::new(FmaMode::Fp16, 64);
        acc.mac(2.0, 3.0); // single MAC, chunk not full
        assert_eq!(acc.finish(), 6.0);
    }
}
