//! Property tests pinning the fast-path kernels to their scalar references.
//!
//! The contract (see `gemm` module docs) is *bit-exactness*: for any shape,
//! chunk length, format and data, the fast quantizer, GEMM and convolution
//! paths must produce the same output bits and the same `GemmStats` as the
//! scalar accumulator-driven references.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::format::FpFormat;
use rapid_fault::FaultPlan;
use rapid_numerics::gemm::{
    conv2d_emulated, conv2d_emulated_scalar, conv2d_emulated_with_simd, conv2d_int,
    conv2d_int_scalar, conv2d_int_with_simd, matmul_emulated, matmul_emulated_scalar,
    matmul_emulated_with, matmul_int, matmul_int_scalar, matmul_int_with, ConvScratch, ConvSpec,
    Exec,
};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{GuardPolicy, NumericsError, SimdMode, Tensor};

/// Every guard policy: without an active fault plan none of them may
/// change a bit of the fast path's output or statistics.
const GUARDS: [GuardPolicy; 3] =
    [GuardPolicy::Propagate, GuardPolicy::Saturate, GuardPolicy::Error];

/// Random tensor with roughly a third of the entries zeroed, so zero-gating
/// statistics are exercised alongside the numerics.
fn sparse_mat(shape: Vec<usize>, seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut t = Tensor::random_uniform(shape, lo, hi, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        }
    }
    t
}

fn assert_bits_eq(fast: &Tensor, scalar: &Tensor) {
    assert_eq!(fast.shape(), scalar.shape());
    for (x, y) in fast.as_slice().iter().zip(scalar.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "fast {x} vs scalar {y}");
    }
}

fn mode_from(idx: u8, bias_a: i32, bias_b: i32) -> FmaMode {
    match idx % 4 {
        0 => FmaMode::Fp16,
        1 => FmaMode::hfp8_fwd_default(),
        2 => FmaMode::Hfp8Fwd { bias_a, bias_b },
        _ => FmaMode::Hfp8Bwd { bias_a },
    }
}

fn int_params_from(idx: u8, abs_max: f32) -> QuantParams {
    let (fmt, signedness) = match idx % 4 {
        0 => (IntFormat::Int4, Signedness::Signed),
        1 => (IntFormat::Int4, Signedness::Unsigned),
        2 => (IntFormat::Int2, Signedness::Signed),
        _ => (IntFormat::Int2, Signedness::Unsigned),
    };
    QuantParams::from_abs_max(fmt, signedness, abs_max)
}

proptest! {
    /// The dispatching quantizer and the f64-arithmetic reference agree to
    /// the bit on arbitrary f32 payloads, for every RaPiD format including
    /// programmable biases.
    #[test]
    fn quantize_matches_reference_on_arbitrary_bits(
        bits in 0u32..=u32::MAX,
        bias in 2i32..=12,
    ) {
        let x = f32::from_bits(bits);
        for fmt in [
            FpFormat::fp16(),
            FpFormat::fp8_e4m3(),
            FpFormat::fp8_e5m2(),
            FpFormat::fp9(),
            FpFormat::fp8_e4m3_with_bias(bias).unwrap(),
        ] {
            let fast = fmt.quantize(x);
            let reference = fmt.quantize_reference(x);
            prop_assert!(
                fast.to_bits() == reference.to_bits() || (fast.is_nan() && reference.is_nan()),
                "{}: quantize({:e}) fast {:e} != reference {:e}", fmt, x, fast, reference
            );
        }
    }

    /// Float GEMM: fast path (LUT or FP16-value kernel, tiled and
    /// register-blocked) is bit-exact against the ChunkAccumulator loop for
    /// every mode, random shapes and chunk lengths.
    #[test]
    fn float_gemm_bit_exact(
        (m, k, n) in (1usize..12, 1usize..40, 1usize..12),
        mode_idx in 0u8..4,
        bias_a in 4i32..=10,
        bias_b in 4i32..=10,
        chunk_len in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mode = mode_from(mode_idx, bias_a, bias_b);
        // Span well past every format's saturation point.
        let a = sparse_mat(vec![m, k], seed, -600.0, 600.0);
        let b = sparse_mat(vec![k, n], seed.wrapping_add(1), -600.0, 600.0);
        let (fast, fast_stats) = matmul_emulated(mode, &a, &b, chunk_len);
        let (scalar, scalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);
    }

    /// Integer GEMM: packed-nibble fast path (and its saturating-chunk
    /// fallback) is bit-exact against the IntAccumulator loop, including
    /// chunk lengths long enough that INT16 saturation is possible.
    #[test]
    fn int_gemm_bit_exact(
        (m, k, n) in (1usize..10, 1usize..48, 1usize..10),
        fmt_a in 0u8..4,
        fmt_b in 0u8..4,
        chunk_len in 1usize..1500,
        seed in 0u64..1_000_000,
    ) {
        let a = sparse_mat(vec![m, k], seed, -2.0, 2.0);
        let b = sparse_mat(vec![k, n], seed.wrapping_add(1), -2.0, 2.0);
        let qa = int_params_from(fmt_a, a.max_abs());
        let qb = int_params_from(fmt_b, b.max_abs());
        let (fast, fast_stats) = matmul_int(&a, &b, qa, qb, chunk_len);
        let (scalar, scalar_stats) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);
    }

    /// Float GEMM under every explicit backend pin. `SimdMode::Force`
    /// engages the AVX2 kernels even below the auto threshold, so the
    /// column range spans the 64-column wide kernel, the 16-column cleanup
    /// kernel and the scalar column tail in a single shape; `SimdMode::Off`
    /// pins the portable tiled path. All float modes (FP16, HFP8 fwd with
    /// programmable biases, HFP8 bwd), depths away from lane multiples, and
    /// a B operand materialized from a transpose so panel packing sees
    /// transposed data. Every pin runs through the single entry point under
    /// each guard policy, with no fault plan and with a disabled one.
    #[test]
    fn float_gemm_bit_exact_across_backends(
        (m, k, n) in (1usize..5, 1usize..70, 1usize..100),
        mode_idx in 0u8..4,
        bias_a in 4i32..=10,
        bias_b in 4i32..=10,
        chunk_len in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mode = mode_from(mode_idx, bias_a, bias_b);
        let a = sparse_mat(vec![m, k], seed, -600.0, 600.0);
        let b = sparse_mat(vec![n, k], seed.wrapping_add(1), -600.0, 600.0).transposed();
        let (scalar, scalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
        for simd in [SimdMode::Force, SimdMode::Off] {
            for guard in GUARDS {
                for mut plan in [None, Some(FaultPlan::disabled())] {
                    let exec = Exec { simd, guard, faults: plan.as_mut() };
                    let (fast, fast_stats) =
                        matmul_emulated_with(mode, &a, &b, chunk_len, exec).unwrap();
                    assert_bits_eq(&fast, &scalar);
                    let ctx = format!("{simd:?} {guard:?} plan={}", plan.is_some());
                    prop_assert_eq!(fast_stats, scalar_stats, "{}", ctx);
                }
            }
        }
    }

    /// Integer GEMM under every explicit backend pin: bit-sliced popcount
    /// (INT2×INT2), widening madd (other pairs) and the tiled windowed
    /// path must all reproduce the IntAccumulator reference, including
    /// chunk lengths long enough that the saturation guard forces the
    /// scalar accumulator regardless of the pin — under each guard policy,
    /// with no fault plan and with a disabled one.
    #[test]
    fn int_gemm_bit_exact_across_backends(
        (m, k, n) in (1usize..4, 1usize..80, 1usize..100),
        fmt_a in 0u8..4,
        fmt_b in 0u8..4,
        chunk_len in 1usize..1500,
        seed in 0u64..1_000_000,
    ) {
        let a = sparse_mat(vec![m, k], seed, -2.0, 2.0);
        let b = sparse_mat(vec![n, k], seed.wrapping_add(1), -2.0, 2.0).transposed();
        let qa = int_params_from(fmt_a, a.max_abs());
        let qb = int_params_from(fmt_b, b.max_abs());
        let (scalar, scalar_stats) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
        for simd in [SimdMode::Force, SimdMode::Off] {
            for guard in GUARDS {
                for mut plan in [None, Some(FaultPlan::disabled())] {
                    let exec = Exec { simd, guard, faults: plan.as_mut() };
                    match matmul_int_with(&a, &b, qa, qb, chunk_len, exec) {
                        Ok((fast, fast_stats)) => {
                            assert_bits_eq(&fast, &scalar);
                            let ctx = format!("{simd:?} {guard:?} plan={}", plan.is_some());
                            prop_assert_eq!(fast_stats, scalar_stats, "{}", ctx);
                            // `Error` may not let a saturated register through.
                            prop_assert!(
                                guard != GuardPolicy::Error || fast_stats.saturations == 0
                            );
                        }
                        // Under `Error` a chunk register that leaves the
                        // INT16 range is located instead of returned.
                        Err(e) => prop_assert!(
                            guard == GuardPolicy::Error
                                && matches!(e, NumericsError::Overflow { .. }),
                            "{:?} under {:?}",
                            e,
                            guard
                        ),
                    }
                }
            }
        }
    }

    /// Convolution under every explicit backend pin: the panel-packed
    /// float and integer convolutions (spatial sizes crossing the 16- and
    /// 64-column kernel widths) match the scalar convolution bit-for-bit
    /// with SIMD forced and with it pinned off.
    #[test]
    fn conv_bit_exact_across_backends(
        (ni, ci, co) in (1usize..3, 1usize..4, 1usize..5),
        (h, w) in (4usize..11, 4usize..11),
        (kh, kw) in (1usize..4, 1usize..4),
        stride in 1usize..3,
        pad in 0usize..2,
        mode_idx in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let input = sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, 7, 7);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        let qa = int_params_from(mode_idx, input.max_abs());
        let qw = int_params_from(mode_idx.wrapping_add(1), weight.max_abs());
        let (iscalar, iscalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 16);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let mut scratch = ConvScratch::default();
            let (fast, fast_stats) =
                conv2d_emulated_with_simd(&input, &weight, spec, mode, 16, &mut scratch, simd)
                    .unwrap();
            assert_bits_eq(&fast, &scalar);
            prop_assert_eq!(fast_stats, scalar_stats, "{:?}", simd);
            let (ifast, ifast_stats) =
                conv2d_int_with_simd(&input, &weight, spec, qa, qw, 16, &mut scratch, simd)
                    .unwrap();
            assert_bits_eq(&ifast, &iscalar);
            prop_assert_eq!(ifast_stats, iscalar_stats, "{:?}", simd);
        }
    }

    /// Convolution: im2col scratch reuse + fast GEMM is bit-exact against
    /// the scalar convolution for random geometries, float and int.
    #[test]
    fn conv_bit_exact(
        (ni, ci, co) in (1usize..3, 1usize..4, 1usize..5),
        (h, w) in (3usize..8, 3usize..8),
        (kh, kw) in (1usize..4, 1usize..4),
        stride in 1usize..3,
        pad in 0usize..2,
        mode_idx in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let input = sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, 7, 7);
        let (fast, fast_stats) = conv2d_emulated(&input, &weight, spec, mode, 16);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);

        let qa = int_params_from(mode_idx, input.max_abs());
        let qw = int_params_from(mode_idx.wrapping_add(1), weight.max_abs());
        let (ifast, ifast_stats) = conv2d_int(&input, &weight, spec, qa, qw, 16);
        let (iscalar, iscalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 16);
        assert_bits_eq(&ifast, &iscalar);
        prop_assert_eq!(ifast_stats, iscalar_stats);
    }
}
