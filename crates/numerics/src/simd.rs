//! AVX2 vector kernels for the emulated GEMM fast paths.
//!
//! Two inner-loop families, selected by [`crate::dispatch`]:
//!
//! * [`dot_fp16_groups_wide`] / [`dot_fp16_group16`] — the float MAC loop
//!   over staged 16-column B groups: broadcast the A value,
//!   multiply against the contiguous group, remap exact-zero products to
//!   `-0.0` (the IEEE additive identity the scalar kernel's gate uses),
//!   then run the DLFloat16 chunk rounding entirely in integer lanes.
//!   The same kernel serves every float mode: FP16 runs on lattice
//!   values, and HFP8 on the **FP9 operand values** both operands are
//!   converted to when staged — `ProductLut::product(ca, cb)` is exactly
//!   `a_operands[ca] * b_operands[cb]` (the table entry *is* that f32
//!   multiply), so one `vmulps` replaces a `vpgatherdps` from the 64K
//!   table. A gather variant was tried first; at ~3 cycles per 8-lane
//!   gather (the per-step index row is only 1 KiB, L1-resident) it was
//!   strictly slower than the multiply it replaces.
//! * [`dot_int_madd_rows`] / [`dot_int_madd`] — whole-k integer dot
//!   products over `i8` codes: sign-extend 16 codes to i16, `vpmaddwd`
//!   pairs into i32 lanes, horizontal-reduce to i64. Only called when the
//!   chunk guard rules out INT16 saturation, where the windowed tiled sum
//!   equals the plain dot product exactly (order-independent integer
//!   addition), so the result is bit-identical.
//!
//! The float kernels are **latency-bound**, not throughput-bound: each
//! chunk register advances through `vaddps` + the ~12-op rounding sequence
//! serially per k step (the order is the bit-exactness contract, so it
//! cannot be reassociated). The `_wide` variants therefore walk
//! [`WIDE_GROUPS`] column groups per k sweep — 8 independent accumulation
//! chains — hiding that chain latency behind instruction-level
//! parallelism; the 16-column variants clean up the remainder. k steps
//! whose broadcast A value is exactly zero skip the whole multiply+round
//! sweep: every product would be `-0.0` after the remap, and `round8` is
//! idempotent on its own outputs (a non-saturated input always rounds to
//! magnitude ≤ `MAX_BITS` with zero low-14 bits, and re-rounding such a
//! value — or `0`, `±MIN_NORMAL` — returns it unchanged), so the chunk
//! registers would come back bit-identical. The integer kernels amortize
//! per-call overhead (and the `#[target_feature]` call boundary) by
//! computing a whole output row per call.
//!
//! Bit-exactness of the float kernels rests on two facts: `vaddps` /
//! `vmulps` are IEEE single ops identical to scalar `f32` arithmetic, and
//! `round8` performs lane-wise exactly the integer-bit computation of
//! the scalar `fp16_round_sum_sel` (unsigned compares emulated by biasing
//! both sides with the sign bit). `vector_rounder_matches_scalar` pins the
//! lane rounder to the scalar one across the magnitude range. Chain count
//! never changes results: each column's accumulator chain is independent
//! in every variant, exactly as in the scalar reference.
//!
//! On non-`x86_64` targets the dispatcher never selects these kernels;
//! the stubs here only satisfy the type checker.

#![allow(clippy::inline_always)] // rounding helpers must fuse into the k-loop

/// Columns per staged B group — two AVX2 f32 vectors.
pub(crate) const GROUP: usize = 16;

/// Column groups the wide float kernels process per k sweep. Four groups
/// give 8 concurrent add+round chains, enough to saturate the vector
/// ports; more would spill the accumulator registers.
pub(crate) const WIDE_GROUPS: usize = 4;

/// Columns per wide-kernel call.
pub(crate) const WIDE: usize = GROUP * WIDE_GROUPS;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{GROUP, WIDE, WIDE_GROUPS};
    use crate::gemm::fp16_round_sum;
    use std::arch::x86_64::*;

    /// Lane-wise `fp16_round_sum_sel` (see `gemm`): DLFloat16 RNE with
    /// underflow-flush and saturation handled by selects on the raw bits.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn round8(x: __m256) -> __m256 {
        // FP16 (1,6,9), bias 31 — same constants as the scalar rounder.
        const MIN_NORMAL: u32 = ((-30 + 127) as u32) << 23;
        const HALF_MIN: u32 = ((-31 + 127) as u32) << 23;
        const MAX_BITS: u32 = ((32 + 127) as u32) << 23 | (((1u32 << 9) - 1) << 14);
        const SHIFT: i32 = 23 - 9;
        // Unsigned thresholds pre-biased by 0x8000_0000 so the unsigned
        // compares of the scalar rounder become signed `vpcmpgtd`.
        const BIAS: i32 = i32::MIN;
        let bits = _mm256_castps_si256(x);
        let sign = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MIN));
        let mag2 = _mm256_slli_epi32::<1>(bits);
        let mag2b = _mm256_xor_si256(mag2, _mm256_set1_epi32(BIAS));
        // rounded = (bits + (LSB/2 - 1) + odd) & !(LSB - 1), LSB = 1<<14.
        let odd = _mm256_and_si256(_mm256_srli_epi32::<SHIFT>(bits), _mm256_set1_epi32(1));
        let rounded = _mm256_and_si256(
            _mm256_add_epi32(bits, _mm256_add_epi32(_mm256_set1_epi32(0x1FFF), odd)),
            _mm256_set1_epi32(!0x3FFF),
        );
        let rmag = _mm256_and_si256(rounded, _mm256_set1_epi32(0x7fff_ffff));
        // small = (mag2 >u HALF_MIN<<1) ? MIN_NORMAL : 0
        let gt_half =
            _mm256_cmpgt_epi32(mag2b, _mm256_set1_epi32(((HALF_MIN << 1) as i32) ^ BIAS));
        let small = _mm256_and_si256(gt_half, _mm256_set1_epi32(MIN_NORMAL as i32));
        // r = (mag2 <u MIN_NORMAL<<1) ? small : rmag
        let lt_min =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(((MIN_NORMAL << 1) as i32) ^ BIAS), mag2b);
        let r = _mm256_blendv_epi8(rmag, small, lt_min);
        // r = (mag2 >u MAX_BITS<<1) ? MAX_BITS : r   (saturate)
        let gt_max =
            _mm256_cmpgt_epi32(mag2b, _mm256_set1_epi32(((MAX_BITS << 1) as i32) ^ BIAS));
        let r = _mm256_blendv_epi8(r, _mm256_set1_epi32(MAX_BITS as i32), gt_max);
        _mm256_castsi256_ps(_mm256_or_si256(sign, r))
    }

    /// The float MAC loop over `G` staged 16-column groups laid out
    /// back to back in `bgroups` (`G * k * 16` values). `2G` independent
    /// accumulation chains advance per k step; each column's chain
    /// performs exactly the scalar kernel's op sequence, so `G` is
    /// performance-only. Steps with a zero A value are skipped whole —
    /// bit-exact by `round8` idempotence (module docs).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `bgroups.len() == G * arow.len() * GROUP`,
    /// `out.len() == G * GROUP`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fp16_groups<const G: usize>(
        arow: &[f32],
        bgroups: &[f32],
        chunk_len: usize,
        out: &mut [f32],
    ) {
        let gsz = arow.len() * GROUP;
        let signbit = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let zero = _mm256_setzero_ps();
        let mut outer_lo = [zero; G];
        let mut outer_hi = [zero; G];
        let mut chunk_lo = [zero; G];
        let mut chunk_hi = [zero; G];
        let mut in_chunk = 0usize;
        for (p, &x) in arow.iter().enumerate() {
            // A zero broadcast value makes every product ±0, remapped to
            // -0.0, and `round8(chunk + -0.0) == chunk` (idempotence), so
            // the whole sweep is skipped; only the chunk-boundary
            // bookkeeping below still runs.
            if x != 0.0 {
                let xa = _mm256_set1_ps(x);
                for t in 0..G {
                    let b0 = _mm256_loadu_ps(bgroups.as_ptr().add(t * gsz + p * GROUP));
                    let b1 = _mm256_loadu_ps(bgroups.as_ptr().add(t * gsz + p * GROUP + 8));
                    let mut prod0 = _mm256_mul_ps(xa, b0);
                    let mut prod1 = _mm256_mul_ps(xa, b1);
                    // Exact-zero products (lattice products never underflow)
                    // become -0.0, the additive identity — the scalar gate.
                    let z0 = _mm256_cmp_ps::<_CMP_EQ_OQ>(prod0, zero);
                    let z1 = _mm256_cmp_ps::<_CMP_EQ_OQ>(prod1, zero);
                    prod0 = _mm256_or_ps(prod0, _mm256_and_ps(z0, signbit));
                    prod1 = _mm256_or_ps(prod1, _mm256_and_ps(z1, signbit));
                    chunk_lo[t] = round8(_mm256_add_ps(chunk_lo[t], prod0));
                    chunk_hi[t] = round8(_mm256_add_ps(chunk_hi[t], prod1));
                }
            }
            in_chunk += 1;
            if in_chunk == chunk_len {
                for t in 0..G {
                    outer_lo[t] = _mm256_add_ps(outer_lo[t], chunk_lo[t]);
                    outer_hi[t] = _mm256_add_ps(outer_hi[t], chunk_hi[t]);
                    chunk_lo[t] = zero;
                    chunk_hi[t] = zero;
                }
                in_chunk = 0;
            }
        }
        finish_groups::<G>(&outer_lo, &outer_hi, &chunk_lo, &chunk_hi, out);
    }

    /// Reduces the (outer, chunk) register pairs exactly as the scalar
    /// kernels' epilogue: `fp16_round_sum(outer[t] + chunk[t])` per lane.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `out.len() == G * GROUP`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn finish_groups<const G: usize>(
        outer_lo: &[__m256; G],
        outer_hi: &[__m256; G],
        chunk_lo: &[__m256; G],
        chunk_hi: &[__m256; G],
        out: &mut [f32],
    ) {
        let mut sums = [0.0f32; GROUP];
        for t in 0..G {
            _mm256_storeu_ps(sums.as_mut_ptr(), _mm256_add_ps(outer_lo[t], chunk_lo[t]));
            _mm256_storeu_ps(sums.as_mut_ptr().add(8), _mm256_add_ps(outer_hi[t], chunk_hi[t]));
            for (o, &s) in out[t * GROUP..(t + 1) * GROUP].iter_mut().zip(&sums) {
                *o = fp16_round_sum(s);
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2; `a.len() == b.len()`, with the caller's chunk guard
    /// bounding `k` so the i32 lane accumulators cannot overflow.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn int_madd(a: &[i8], b: &[i8]) -> i64 {
        let k = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut p = 0usize;
        while p + 16 <= k {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p).cast()));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            p += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut sum: i64 = lanes.iter().map(|&v| i64::from(v)).sum();
        while p < k {
            sum += i64::from(a[p]) * i64::from(b[p]);
            p += 1;
        }
        sum
    }

    /// Whole output row of madd dot products: one `#[target_feature]`
    /// call per A row instead of per element, so [`int_madd`] inlines
    /// into the column loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `cbt.len() == orow.len() * arow.len()` and the
    /// caller's chunk guard as in [`int_madd`].
    #[target_feature(enable = "avx2")]
    unsafe fn int_madd_rows(arow: &[i8], cbt: &[i8], out_scale: f32, orow: &mut [f32]) {
        let k = arow.len();
        for (j, o) in orow.iter_mut().enumerate() {
            let dot = int_madd(arow, &cbt[j * k..(j + 1) * k]);
            *o = dot as f32 * out_scale;
        }
    }

    /// Test-only window into the lane rounder so the unit test can pin it
    /// to the scalar rounder directly.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn round8_for_test(x: __m256) -> __m256 {
        round8(x)
    }

    /// Safe wrapper: chunk-accumulated FP16 lattice dot products of one
    /// A-row against [`WIDE_GROUPS`] consecutive staged groups.
    pub(crate) fn dot_fp16_groups_wide(
        arow: &[f32],
        bgroups: &[f32],
        chunk_len: usize,
        out: &mut [f32; WIDE],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert_eq!(bgroups.len(), WIDE_GROUPS * arow.len() * GROUP);
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { fp16_groups::<WIDE_GROUPS>(arow, bgroups, chunk_len, out) }
    }

    /// Safe wrapper: chunk-accumulated FP16 lattice dot products of one
    /// A-row against a single staged 16-column B group.
    pub(crate) fn dot_fp16_group16(
        arow: &[f32],
        bgroup: &[f32],
        chunk_len: usize,
        out: &mut [f32; GROUP],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert_eq!(bgroup.len(), arow.len() * GROUP);
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { fp16_groups::<1>(arow, bgroup, chunk_len, out) }
    }

    /// Safe wrapper: exact whole-k integer dot product over i8 codes
    /// (test-only pin for the row-level kernel).
    #[cfg(test)]
    pub(crate) fn dot_int_madd(a: &[i8], b: &[i8]) -> i64 {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert_eq!(a.len(), b.len());
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { int_madd(a, b) }
    }

    /// Safe wrapper: one full output row of scaled madd dot products
    /// (`orow[j] = dot(arow, cbt[j]) * out_scale`).
    pub(crate) fn dot_int_madd_rows(arow: &[i8], cbt: &[i8], out_scale: f32, orow: &mut [f32]) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert_eq!(cbt.len(), orow.len() * arow.len());
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { int_madd_rows(arow, cbt, out_scale, orow) }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{dot_fp16_group16, dot_fp16_groups_wide, dot_int_madd_rows};
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) use avx2::dot_int_madd;

#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    use super::{GROUP, WIDE};

    /// Unreachable on this target: the dispatcher reports
    /// `simd_available() == false` and never selects the AVX2 kernels.
    pub(crate) fn dot_fp16_groups_wide(
        _arow: &[f32],
        _bgroups: &[f32],
        _chunk_len: usize,
        _out: &mut [f32; WIDE],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn dot_fp16_group16(
        _arow: &[f32],
        _bgroup: &[f32],
        _chunk_len: usize,
        _out: &mut [f32; GROUP],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn dot_int_madd_rows(_arow: &[i8], _cbt: &[i8], _out_scale: f32, _orow: &mut [f32]) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use fallback::{dot_fp16_group16, dot_fp16_groups_wide, dot_int_madd_rows};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::gemm::fp16_round_sum_sel;
    use std::arch::x86_64::*;

    /// The vector rounder must agree with the scalar branch-free rounder
    /// on every magnitude band: zeros, flush-to-zero range, round-to-min,
    /// normals (both RNE tie directions), saturation, both signs.
    #[test]
    fn vector_rounder_matches_scalar() {
        if !crate::dispatch::simd_available() {
            return;
        }
        #[target_feature(enable = "avx2")]
        unsafe fn via_round8(vals: &[f32; 8]) -> [f32; 8] {
            // Route through the public kernel path: a 1-element chunk of a
            // single k step with products equal to `vals` would need a LUT;
            // call the rounder via an add with 0.0 instead.
            let v = _mm256_loadu_ps(vals.as_ptr());
            let r = super::avx2::round8_for_test(v);
            let mut out = [0.0f32; 8];
            _mm256_storeu_ps(out.as_mut_ptr(), r);
            out
        }
        let mut cases: Vec<f32> = vec![0.0, -0.0];
        // Dense sweep across the exponent range, both signs, plus tie bits.
        for exp in -40i32..=40 {
            for frac in [0.0f32, 0.25, 0.5, 0.4999, 0.7501, 0.999_999] {
                let v = (1.0 + frac) * (exp as f32).exp2();
                cases.push(v);
                cases.push(-v);
            }
        }
        // Exact grid points and half-LSB ties around the FP16 lattice.
        for bits in (0x3080_0000u32..0x3081_0000).step_by(0x1000) {
            cases.push(f32::from_bits(bits));
            cases.push(f32::from_bits(bits | 0x2000)); // half-LSB tie
        }
        for chunk in cases.chunks(8) {
            let mut vals = [0.0f32; 8];
            vals[..chunk.len()].copy_from_slice(chunk);
            // SAFETY: AVX2 checked at function entry.
            let got = unsafe { via_round8(&vals) };
            for (g, v) in got.iter().zip(vals) {
                let want = fp16_round_sum_sel(v);
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "round8({v:e}): vector {g:e} != scalar {want:e}"
                );
            }
        }
    }

    #[test]
    fn int_madd_matches_reference() {
        if !crate::dispatch::simd_available() {
            return;
        }
        for k in [0usize, 1, 15, 16, 17, 31, 32, 100, 257] {
            let a: Vec<i8> = (0..k).map(|i| ((i * 7 + 3) % 31) as i8 - 15).collect();
            let b: Vec<i8> = (0..k).map(|i| ((i * 13 + 5) % 31) as i8 - 15).collect();
            let want: i64 = a.iter().zip(&b).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum();
            assert_eq!(dot_int_madd(&a, &b), want, "k={k}");
        }
    }

    /// The row-level madd kernel must agree with per-element calls.
    #[test]
    fn int_madd_rows_matches_single() {
        if !crate::dispatch::simd_available() {
            return;
        }
        let (k, n) = (37usize, 9usize);
        let a: Vec<i8> = (0..k).map(|i| ((i * 11 + 2) % 15) as i8 - 7).collect();
        let bt: Vec<i8> = (0..k * n).map(|i| ((i * 5 + 1) % 15) as i8 - 7).collect();
        let scale = 0.125f32;
        let mut rows = vec![0.0f32; n];
        dot_int_madd_rows(&a, &bt, scale, &mut rows);
        for j in 0..n {
            let want = dot_int_madd(&a, &bt[j * k..(j + 1) * k]) as f32 * scale;
            assert_eq!(rows[j].to_bits(), want.to_bits(), "column {j}");
        }
    }
}
