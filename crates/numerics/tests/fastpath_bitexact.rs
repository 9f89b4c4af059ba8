//! Property tests pinning the fast-path kernels to their scalar references.
//!
//! The contract (see `gemm` module docs) is *bit-exactness*: for any shape,
//! chunk length, format and data, the fast quantizer, GEMM and convolution
//! paths must produce the same output bits and the same `GemmStats` as the
//! scalar accumulator-driven references.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid_numerics::accumulate::ChunkAccumulator;
use rapid_numerics::fma::{FmaMode, Fp8};
use rapid_numerics::format::FpFormat;
use rapid_fault::FaultPlan;
use rapid_numerics::gemm::{
    chunk_replays, conv2d_emulated, conv2d_emulated_scalar, conv2d_emulated_with_simd,
    conv2d_int, conv2d_int_scalar, conv2d_int_with_simd, matmul_emulated, matmul_emulated_scalar,
    matmul_emulated_with, matmul_int, matmul_int_scalar, matmul_int_with, ConvSpec, Exec,
    GemmStats,
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
        2 => FmaMode::Hfp8 { a: Fp8::E4m3 { bias: bias_a }, b: Fp8::E4m3 { bias: bias_b } },
        _ => FmaMode::Hfp8 { a: Fp8::E4m3 { bias: bias_a }, b: Fp8::E5m2 },
    }
}

/// One HFP8 port format: (1,4,3) at the default bias, (1,4,3) at `bias`,
/// or (1,5,2).
fn fp8_from(idx: u8, bias: i32) -> Fp8 {
    match idx % 3 {
        0 => Fp8::E4m3 { bias: 7 },
        1 => Fp8::E4m3 { bias },
        _ => Fp8::E5m2,
    }
}

/// An operand at an edge of `fmt`: its maximum (480 or 114688 at the
/// default biases) or a value that saturates to it, the minimum normal or
/// a value that rounds to it, the format's next value above it (so sums
/// of products can cancel down to one quantum of the product grid), the
/// flush edge at half the minimum normal (a tie that flushes to zero), a
/// mid-range value, or zero; `pick`'s high bit negates it.
fn extreme_value(fmt: FpFormat, pick: u8) -> f32 {
    let (max, min) = (fmt.max_value(), fmt.min_normal());
    let up = |x: f32| f32::from_bits(x.to_bits() + 1);
    let v = match (pick & 0x7f) % 9 {
        0 => max,
        1 => max * 1.5,
        2 => min,
        3 => up(min),
        4 => min * (1.0 + 0.5f32.powi(fmt.man_bits() as i32)),
        5 => min * 0.5,
        6 => up(min * 0.5),
        7 => 1.0,
        _ => 0.0,
    };
    if pick >= 128 {
        -v
    } else {
        v
    }
}

/// [`sparse_mat`] through a ReLU when `relu` is set: at least half the
/// entries of a zero-centred range become zero, as after a real
/// activation, so zero-gating counts see dense runs of zero codes.
fn maybe_relu(mut t: Tensor, relu: bool) -> Tensor {
    if relu {
        t.map_inplace(|v| v.max(0.0));
    }
    t
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

/// An INT quantizer input: the raw bit pattern half the time, otherwise a
/// special value (NaN payloads, ±inf, ±0, subnormals, ±max) or a value
/// within 8 ulps of a rounding boundary `(c + ½)·scale` of `q`, codes
/// `c` one past either end of the range included.
fn int_quant_input(bits: u32, pick: u8, q: QuantParams) -> f32 {
    const SPECIALS: [u32; 12] = [
        0x7fc0_0000, 0xffc0_0001, 0x7f80_0001, 0x7f80_0000, 0xff80_0000, 0, 0x8000_0000, 1,
        0x8000_0001, 0x007f_ffff, 0x7f7f_ffff, 0xff7f_ffff,
    ];
    match pick % 4 {
        0 | 1 => f32::from_bits(bits),
        2 => f32::from_bits(SPECIALS[bits as usize % SPECIALS.len()]),
        _ => {
            let (lo, hi) = q.code_range();
            let c = lo - 1 + (bits % (hi - lo + 2) as u32) as i32;
            let boundary = (c as f32 + 0.5) * q.scale();
            let nudge = (bits >> 16) % 17;
            f32::from_bits(boundary.to_bits().wrapping_add(nudge).wrapping_sub(8))
        }
    }
}

/// Asserts `quantize_slice_into` equals per-element `quantize` on `xs`.
fn assert_int_quantizer_exact(q: QuantParams, xs: &[f32], codes: &mut Vec<i8>) {
    q.quantize_slice_into(xs, codes);
    assert_eq!(codes.len(), xs.len());
    for (&x, &c) in xs.iter().zip(codes.iter()) {
        assert_eq!(c, q.quantize(x), "{q:?}: quantize({x:e} = {:#010x})", x.to_bits());
    }
}

/// The four INT format/signedness pairs at one scale.
fn int_params_all(scale: f32) -> Vec<QuantParams> {
    (0..4)
        .map(|i| {
            let p = int_params_from(i, 1.0);
            QuantParams::with_scale(p.format(), p.signedness(), scale).unwrap()
        })
        .collect()
}

/// Every code boundary `(c + ½)·scale`, `c` from one below the code range
/// to its top, and the 4096 f32 values on either side of each, for all
/// four formats at scales from subnormal to near the top of the f32
/// range: the vector quantizer's divide, round-half-even and clamp must
/// land exactly where the scalar ones do.
#[test]
fn int_quantizer_exact_around_every_rounding_boundary() {
    let scales = [f32::from_bits(1), 1e-30, 2.0f32.powi(-20), 0.1, 1.0 / 7.0, 1.0, 3.0, 1e20, 1e38];
    let mut codes = Vec::new();
    for scale in scales {
        for q in int_params_all(scale) {
            let (lo, hi) = q.code_range();
            let mut xs = Vec::new();
            for c in lo - 1..=hi {
                let boundary = ((c as f64 + 0.5) * f64::from(scale)) as f32;
                let bits = boundary.to_bits();
                let near = |d: u32| f32::from_bits(bits.wrapping_add(d).wrapping_sub(4096));
                xs.extend((0..=8192u32).map(near));
            }
            assert_int_quantizer_exact(q, &xs, &mut codes);
        }
    }
}

/// All 2^32 f32 bit patterns through `quantize_slice_into` against
/// per-element `quantize`, for the four INT formats at one scale each,
/// split across threads. Run with `-- --ignored` in release.
#[test]
#[ignore = "exhaustive 2^32 sweep; run in release with --ignored"]
fn int_quantizer_exact_on_every_f32() {
    let params: Vec<QuantParams> = (0..4u8)
        .map(|i| {
            let p = int_params_from(i, 1.0);
            let scale = [1.0 / 7.0, 0.1, 1.0, 3.0][usize::from(i)];
            QuantParams::with_scale(p.format(), p.signedness(), scale).unwrap()
        })
        .collect();
    const BLOCK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let blocks = (1u64 << 32) / BLOCK;
    std::thread::scope(|s| {
        for t in 0..threads {
            let params = &params;
            s.spawn(move || {
                let mut xs = vec![0.0f32; BLOCK as usize];
                let mut codes = Vec::new();
                for b in (t..blocks).step_by(threads as usize) {
                    for (i, x) in xs.iter_mut().enumerate() {
                        *x = f32::from_bits((b * BLOCK) as u32 + i as u32);
                    }
                    for &q in params {
                        assert_int_quantizer_exact(q, &xs, &mut codes);
                    }
                }
            });
        }
    });
}

/// The fast float kernels add a zero product where the reference gates
/// it, so a chunk register the reference holds at `-0.0` (a negative sum
/// of magnitude ≤ 2^-31 flushes to `-0.0`) becomes `+0.0` in the kernel
/// at the next zero-B MAC. That sign must never reach an output. Each
/// column of this FP16 GEMM drives its register to `-0.0` and follows with
/// zero-B MACs, the register then flushed inside the k range (chunk 4) or
/// read at the end (the final partial chunk): alone, after a nonzero
/// chunk, followed by a nonzero product, and with A rows of either sign.
#[test]
fn negative_zero_chunk_register_is_unobservable() {
    let (t, u) = (2f32.powi(-16), 0.75);
    // A: nonzero everywhere, so no k step is skipped; row 1 flips signs.
    let arow = [t, 3.0, -5.0, t, t, 1.5, -2.0, 7.0, t, -1.0];
    let k = arow.len();
    // B columns (`t·(−t) = −2^-32` is the tiny negative product).
    let cols: [[f32; 10]; 4] = [
        [-t, 0.0, 0.0, 0.0, -t, 0.0, 0.0, 0.0, -t, 0.0],
        [-t, 0.0, u, 0.0, 0.0, 0.0, 0.0, 0.0, -t, 0.0],
        [u, 1.0, 0.0, -t, -t, 0.0, 0.0, 0.0, -t, 0.0],
        [0.0, 0.0, 0.0, -t, u, 0.0, -0.5, 0.0, 0.0, -t],
    ];
    let n = cols.len();
    let mut a = Tensor::zeros(vec![2, k]);
    for (p, &x) in arow.iter().enumerate() {
        a.as_mut_slice()[p] = x;
        a.as_mut_slice()[k + p] = -x;
    }
    let mut b = Tensor::zeros(vec![k, n]);
    for (j, col) in cols.iter().enumerate() {
        for (p, &y) in col.iter().enumerate() {
            b.as_mut_slice()[p * n + j] = y;
        }
    }
    let chunk_len = 4;
    // The premise: the reference's register really is -0.0 after the
    // first MAC of column 0, and stays there through the zero-B MACs.
    let mut acc = ChunkAccumulator::new(FmaMode::Fp16, chunk_len);
    acc.mac(arow[0], cols[0][0]);
    assert_eq!(acc.chunk_value().to_bits(), 0x8000_0000, "tiny negative sum must flush to -0.0");
    acc.mac(arow[1], cols[0][1]);
    assert_eq!(acc.chunk_value().to_bits(), 0x8000_0000, "a gated MAC keeps -0.0");
    let (scalar, scalar_stats) = matmul_emulated_scalar(FmaMode::Fp16, &a, &b, chunk_len);
    for simd in [SimdMode::Force, SimdMode::Off] {
        let exec = Exec { simd, ..Exec::default() };
        let (fast, fast_stats) =
            matmul_emulated_with(FmaMode::Fp16, &a, &b, chunk_len, exec).unwrap();
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fast_stats, scalar_stats, "{simd:?}");
    }
}

/// Chunk length and depth of the replay tests: three full chunks and a
/// partial one of 3 in the epilogue.
const REPLAY_CHUNK: usize = 8;
const REPLAY_K: usize = 3 * REPLAY_CHUNK + 3;
/// 12 groups for the 64-column wide kernel, one full and one ragged
/// 16-column tail group; every column pattern lands in each.
const REPLAY_N: usize = 213;

/// `a × b` in FP16 at [`REPLAY_CHUNK`] as a GEMM, as one GEMV per A row
/// and as the 1×1 convolution of `b` (as `[1, k, 1, n]`) by `a` (as
/// `[m, k, 1, 1]`), each under `Auto`, `Force` and `Off`. Every run must
/// match the scalar reference's statistics, and its output bits (or,
/// with `against_portable`, those of the portable kernels, which round
/// every chunk step exactly). Under `Force` with AVX2 each kernel must
/// have replayed a chunk.
fn assert_fp16_chunk_replays_exact(a: &Tensor, b: &Tensor, against_portable: bool) {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mode = FmaMode::Fp16;
    let gemm = |a: &Tensor, simd| {
        matmul_emulated_with(mode, a, b, REPLAY_CHUNK, Exec { simd, ..Exec::default() }).unwrap()
    };
    type Run<'r> = &'r dyn Fn(SimdMode) -> (Tensor, GemmStats);
    let check = |name: &str, run: Run<'_>, scalar: (Tensor, GemmStats)| {
        let portable = run(SimdMode::Off).0;
        let want = if against_portable { &portable } else { &scalar.0 };
        for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
            let before = chunk_replays();
            let (fast, fast_stats) = run(simd);
            assert_bits_eq(&fast, want);
            assert_eq!(fast_stats, scalar.1, "{name} {simd:?}");
            if simd == SimdMode::Force && rapid_numerics::dispatch::simd_available() {
                assert!(chunk_replays() > before, "{name}: no chunk was replayed");
            }
        }
    };
    check("gemm", &|simd| gemm(a, simd), matmul_emulated_scalar(mode, a, b, REPLAY_CHUNK));
    for (i, row) in a.as_slice().chunks_exact(k).enumerate() {
        let row = Tensor::from_vec(vec![1, k], row.to_vec());
        let scalar = matmul_emulated_scalar(mode, &row, b, REPLAY_CHUNK);
        check(&format!("gemv row {i}"), &|simd| gemm(&row, simd), scalar);
    }
    let input = b.clone().reshape(vec![1, k, 1, n]).unwrap();
    let weight = a.clone().reshape(vec![m, k, 1, 1]).unwrap();
    let spec = ConvSpec { stride: 1, pad: 0 };
    let conv = |simd| {
        conv2d_emulated_with_simd(&input, &weight, spec, mode, REPLAY_CHUNK, simd).unwrap()
    };
    check("conv", &conv, conv2d_emulated_scalar(&input, &weight, spec, mode, REPLAY_CHUNK));
}

/// B columns cycling through `patterns`, each a list of `(k, value)`
/// entries (the rest zero).
fn pattern_columns(patterns: &[&[(usize, f32)]]) -> Tensor {
    let mut b = Tensor::zeros(vec![REPLAY_K, REPLAY_N]);
    for j in 0..REPLAY_N {
        for &(p, v) in patterns[j % patterns.len()] {
            b.as_mut_slice()[p * REPLAY_N + j] = v;
        }
    }
    b
}

/// Chunk registers that underflow, where the exact rounder flushes a sum
/// below `2^-30` to `{0, 2^-30}` and the 4-op rounder keeps it: row 0's
/// products `1.5·2^-31` round to `2^-30`, and `2^-32` to zero. Column
/// patterns: three such products in the middle of chunk 1, which climb
/// back above the minimum normal by its end (only a sticky test sees
/// them); one at chunk 1's last element after a normal chunk 0; two in
/// the epilogue's partial chunk only; five `2^-32` products that the
/// exact rounder flushes one by one; and a normal column. Row 1 negates
/// row 0, and row 2 doubles it, so its products stay normal. The
/// operands are small, so the band kernels test only the underflow edge.
#[test]
fn chunk_registers_that_underflow_replay_exactly() {
    let (t, u) = (1.5 * 2f32.powi(-15), 2f32.powi(-16));
    let b = pattern_columns(&[
        &[(9, t), (10, t), (11, t)],
        &[(3, 2f32.powi(-12)), (15, t)],
        &[(25, t), (26, t)],
        &[(17, u), (18, u), (19, u), (20, u), (21, u)],
        &[(0, 0.25), (5, -0.5), (12, 0.75), (24, 1.0)],
    ]);
    let a = Tensor::from_fn(vec![3, REPLAY_K], |i| [u, -u, 2.0 * u][i / REPLAY_K]);
    assert_fp16_chunk_replays_exact(&a, &b, false);
}

/// Chunk registers that pass `FP16_MAX` (about `2^33`) and come back:
/// the exact rounder saturates `2^34` to `MAX`, the 4-op one keeps it.
/// Column patterns: `+2^34` then `−2^34` in the middle of chunk 0 (the
/// register ends at exactly zero, inside the domain); `+2^34` at chunk
/// 0's last element and `−2^33` at chunk 1's first; the same pair in the
/// epilogue's partial chunk; and a large column that stays in range.
/// Row 1 negates row 0.
#[test]
fn chunk_registers_past_max_replay_exactly() {
    let (big, half) = (2f32.powi(17), 2f32.powi(16));
    let b = pattern_columns(&[
        &[(2, big), (3, -big)],
        &[(7, big), (8, -half)],
        &[(25, big), (26, -half)],
        &[(0, 1024.0), (9, -512.0), (20, 2048.0), (26, 4096.0)],
    ]);
    let a = Tensor::from_fn(vec![2, REPLAY_K], |i| if i < REPLAY_K { big } else { -big });
    assert_fp16_chunk_replays_exact(&a, &b, false);
}

/// NaN operands, in an A row and in two B columns. The 4-op rounder
/// passes NaN through, so the domain test flags it and the chunk
/// replays: every backend must reproduce the portable kernels' bits,
/// where the exact rounder saturates a NaN sum to `MAX` and the next
/// product (`−2^31` times A) pulls the register back below it; a NaN
/// left in the register would reach the output as `MAX`. The scalar
/// reference keeps the NaN, so only its statistics are compared. No
/// operand is zero: a zero A value skips its k step, so `NaN × 0` is
/// added in one operand order and not in the other (a convolution's
/// shape picks which of its operands sits on the A port, see
/// `nan_weight_conv_agrees_across_backends`).
#[test]
fn nan_operands_replay_exactly() {
    let mut a = Tensor::from_fn(vec![2, REPLAY_K], |i| 0.5 + (i % 5) as f32);
    a.as_mut_slice()[REPLAY_K + 5] = f32::NAN;
    let mut b = Tensor::from_fn(vec![REPLAY_K, REPLAY_N], |i| 0.25 * (i % 7) as f32 - 0.875);
    b.as_mut_slice()[12 * REPLAY_N + 70] = f32::NAN;
    b.as_mut_slice()[13 * REPLAY_N + 70] = -(2f32.powi(31));
    b.as_mut_slice()[26 * REPLAY_N + 200] = f32::NAN;
    assert_fp16_chunk_replays_exact(&a, &b, true);
}

/// Every backend of the FP16 convolution gives the same bits for a NaN
/// weight against an all-zero input channel, in both orientations. The
/// scalar reference gates `NaN × 0`, and the fast kernels add it unless
/// the zero sits on the A port, whose zero k-steps they skip (see
/// `nan_operands_replay_exactly`), so a backend that picked its
/// orientation differently would disagree. The shape alone picks it:
/// a 64 → 4 1×1 conv at 8² (16384 MACs, so `Auto` takes the AVX2
/// kernels) puts the weights on the A port, and a 64 → 8 1×1 conv at 1²
/// (`ho·wo = 1 < co`, two images) puts the pixels there.
#[test]
fn nan_weight_conv_agrees_across_backends() {
    for (n, hw, co) in [(1, 8, 4), (2, 1, 8)] {
        let mut input = Tensor::from_fn(vec![n, 64, hw, hw], |i| 0.25 * (i % 7) as f32 - 0.75);
        input.as_mut_slice()[5 * hw * hw..6 * hw * hw].fill(0.0);
        let mut weight = Tensor::from_fn(vec![co, 64, 1, 1], |i| 0.125 * (i % 5) as f32 - 0.25);
        weight.as_mut_slice()[64 + 5] = f32::NAN;
        let spec = ConvSpec { stride: 1, pad: 0 };
        let conv = |simd| {
            conv2d_emulated_with_simd(&input, &weight, spec, FmaMode::Fp16, 16, simd).unwrap()
        };
        let (portable, portable_stats) = conv(SimdMode::Off);
        let (_, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, FmaMode::Fp16, 16);
        assert_eq!(portable_stats, scalar_stats, "co={co} ho·wo={}", hw * hw);
        for simd in [SimdMode::Auto, SimdMode::Force] {
            let (fast, fast_stats) = conv(simd);
            assert_bits_eq(&fast, &portable);
            assert_eq!(fast_stats, portable_stats, "{simd:?} co={co} ho·wo={}", hw * hw);
        }
    }
}

/// `chunk_len == 0` is a configuration bug: both convolutions panic on it
/// under every backend pin, before any kernel is chosen. An 8 → 8 3×3
/// conv at 8², large enough that `Auto` picks the AVX2 kernels.
#[test]
fn zero_chunk_length_panics_in_every_conv_backend() {
    let input = Tensor::random_uniform(vec![1, 8, 8, 8], 0.0, 1.0, 80);
    let weight = Tensor::random_uniform(vec![8, 8, 3, 3], -0.5, 0.5, 81);
    let spec = ConvSpec { stride: 1, pad: 1 };
    let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, 1.0);
    let qw = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 0.5);
    let mode = FmaMode::hfp8_fwd_default();
    for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
        let runs: [(&str, &dyn Fn()); 2] = [
            ("float", &|| drop(conv2d_emulated_with_simd(&input, &weight, spec, mode, 0, simd))),
            ("int", &|| drop(conv2d_int_with_simd(&input, &weight, spec, qa, qw, 0, simd))),
        ];
        for (name, run) in runs {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err(&format!("{name} conv under {simd:?} returned at chunk 0"));
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "chunk length must be positive", "{name} {simd:?}");
        }
    }
}

/// The integer convolution where the chunk length makes INT16 saturation
/// possible (depth 432 = 48·3·3 in one chunk; unsigned INT4 inputs up to
/// 15 times weights up to ±7) and real: interior outputs sum more than
/// `i16::MAX`, one channel upward, one downward, one mixed. Two images,
/// stride 2, pad 1, so border outputs see padding. Every backend pin must
/// reproduce the scalar convolution's bits and statistics.
#[test]
fn saturating_int_conv_matches_scalar() {
    let input = Tensor::random_uniform(vec![2, 48, 6, 6], 0.7, 1.0, 82);
    let mut weight = Tensor::random_uniform(vec![3, 48, 3, 3], 0.4, 0.5, 83);
    for (i, w) in weight.as_mut_slice().iter_mut().enumerate() {
        let (channel, p) = (i / 432, i % 432);
        if channel == 1 || (channel == 2 && p % 3 == 0) {
            *w = -*w;
        }
    }
    let spec = ConvSpec { stride: 2, pad: 1 };
    let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, 1.0);
    let qw = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 0.5);
    let chunk_len = 432;
    let (scalar, scalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, chunk_len);
    assert!(scalar_stats.saturations > 0, "the test must saturate: {scalar_stats:?}");
    for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
        let (fast, fast_stats) =
            conv2d_int_with_simd(&input, &weight, spec, qa, qw, chunk_len, simd).unwrap();
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fast_stats, scalar_stats, "{simd:?}");
    }
}

proptest! {
    /// The INT quantizer's slice path (AVX2 lanes plus scalar tail, or the
    /// portable loop) agrees with per-element `quantize` on arbitrary f32
    /// bit patterns, specials and near-boundary values, for all four
    /// format/signedness pairs, scales from `from_abs_max` and
    /// `with_scale` across the whole positive finite f32 range, and slice
    /// lengths 0–40 so every 8-lane tail occurs.
    #[test]
    fn int_quantize_slice_matches_quantize(
        inputs in proptest::collection::vec((0u32..=u32::MAX, 0u8..4), 0..=40),
        fmt_idx in 0u8..4,
        scale_bits in 1u32..0x7f80_0000,
        by_abs_max in 0u8..2,
    ) {
        let base = int_params_from(fmt_idx, 1.0);
        let (fmt, signedness) = (base.format(), base.signedness());
        let value = f32::from_bits(scale_bits);
        let q = if by_abs_max == 0 {
            QuantParams::from_abs_max(fmt, signedness, value)
        } else {
            QuantParams::with_scale(fmt, signedness, value).unwrap()
        };
        let xs: Vec<f32> =
            inputs.iter().map(|&(bits, pick)| int_quant_input(bits, pick, q)).collect();
        assert_int_quantizer_exact(q, &xs, &mut Vec::new());
    }

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

    /// Float GEMM: the default dispatch (the staged-operand band loop, on
    /// the AVX2 kernel from 4096 MACs up and the portable 16-column loop
    /// below) is bit-exact against the ChunkAccumulator loop for every
    /// mode, random shapes and chunk lengths.
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

    /// GEMV and column-tail shapes of the staged float GEMM: `m` of 1–3
    /// rows, `n` from below one 16-column group through zero-padded last
    /// groups to past the 64-column wide kernel, and depths spanning
    /// several chunks. Every float mode runs, HFP8 with biases across the
    /// whole range `fp8_e4m3_with_bias` accepts and operands scaled to
    /// land in, above or below each format's range — so FP9 conversion
    /// underflows and saturates, and zero-gating must count quantized
    /// zeros, not FP9 ones. `Auto` takes the AVX2 kernels whenever the
    /// shape has at least 4096 MACs (the dispatch the benchmark takes) and
    /// the portable kernel below that; `Force` and `Off` pin each backend.
    #[test]
    fn float_gemv_and_tail_shapes_bit_exact(
        (m, k, n) in (1usize..4, 1usize..300, 1usize..200),
        mode_idx in 0u8..4,
        bias_a in -111i32..=124,
        bias_b in -111i32..=124,
        (scale_a, scale_b) in (-24i32..=24, -24i32..=24),
        chunk_len in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mode = mode_from(mode_idx, bias_a, bias_b);
        let (fa, fb) = mode.operand_formats();
        // Centre each operand on its format's range, then shift it by up
        // to 24 binades either way (clamped to the finite f32 range).
        let centred = |fmt: FpFormat, shift: i32| {
            let mid = (fmt.max_value().log2() + fmt.min_normal().log2()) / 2.0;
            2f32.powi((mid as i32 + shift).clamp(-120, 120))
        };
        let (sa, sb) = (centred(fa, scale_a), centred(fb, scale_b));
        let mut a = sparse_mat(vec![m, k], seed, -1.0, 1.0);
        a.map_inplace(|v| v * sa);
        let mut b = sparse_mat(vec![k, n], seed.wrapping_add(1), -1.0, 1.0);
        b.map_inplace(|v| v * sb);
        let (scalar, scalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
        for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
            let exec = Exec { simd, ..Exec::default() };
            let (fast, fast_stats) = matmul_emulated_with(mode, &a, &b, chunk_len, exec).unwrap();
            assert_bits_eq(&fast, &scalar);
            let ctx = format!("{simd:?} {mode:?} m={m} k={k} n={n}");
            prop_assert_eq!(fast_stats, scalar_stats, "{}", ctx);
        }
    }

    /// Float GEMM on operands at the edges of FP16 and of every per-port
    /// HFP8 pairing. Each HFP8 port is (1,4,3) at bias 7 or at a bias on
    /// either side of a range-proof edge, or (1,5,2); FP16 runs in a
    /// quarter of the cases, where products of its extremes flush below
    /// and saturate above the accumulator's range. The operands follow each of four
    /// patterns in turn: every element a format maximum, a value that saturates,
    /// a minimum normal, a flush edge or zero, of either sign; the same
    /// with each odd k-position repeating the even one's A value against
    /// the negated B value, so chunk sums cancel exactly to zero; groups of
    /// four MACs `A'B' − A'B − AB' + AB` (minimum normals and the values
    /// just above them) that each add one quantum of the product grid, so
    /// a chunk sum can sit below the FP16 minimum normal; or every operand
    /// at its maximum, B's rows 24 positive then 8 negative in turn, so
    /// chunk sums grow as fast as they can and then fall back. Chunk
    /// lengths 1, 7 and 64 keep the default pairs inside the range proof
    /// of the 4-op chunk rounder; (1,5,2) × (1,5,2), the far biases and
    /// chunk 4096 fall outside it and keep the exact rounder, as FP16
    /// always does. `m = 1` runs the row-streamed GEMV and `m` = 2–3 the
    /// blocked B stager. Every backend pin must reproduce the scalar
    /// reference's bits and statistics.
    #[test]
    fn float_gemm_extreme_operands_bit_exact(
        (m, k, n) in (1usize..4, 1usize..300, 1usize..90),
        (port_a, port_b) in (0u8..4, 0u8..3),
        (bias_a, bias_b) in (0usize..8, 0usize..8),
        picks in proptest::collection::vec(0u8..=255, 64),
        seed in 0u64..1_000_000,
    ) {
        // (1,4,3) biases around the proof's edges: 12/13 and 15/16 for
        // the quantum, -1/-2 and 15/16 for the FP9 range.
        const BIASES: [i32; 8] = [-2, -1, 3, 12, 13, 15, 16, 124];
        let mode = if port_a == 3 {
            FmaMode::Fp16
        } else {
            let (a, b) = (fp8_from(port_a, BIASES[bias_a]), fp8_from(port_b, BIASES[bias_b]));
            FmaMode::Hfp8 { a, b }
        };
        let (fa, fb) = mode.operand_formats();
        let pick = |i: usize| picks[(i as u64 ^ seed) as usize % picks.len()];
        let next = |f: FpFormat| f.min_normal() * (1.0 + 0.5f32.powi(f.man_bits() as i32));
        for pattern in 0..4 {
            let (a, b) = match pattern {
                2 => {
                    let (a1, b1) = (next(fa), next(fb));
                    let (a0, b0) = (fa.min_normal(), fb.min_normal());
                    let a = Tensor::from_fn(vec![m, k], |i| if i % k % 4 < 2 { a1 } else { a0 });
                    let b = Tensor::from_fn(vec![k, n], |i| [b1, -b0, -b1, b0][i / n % 4]);
                    (a, b)
                }
                3 => {
                    let (a1, b1) = (fa.max_value(), fb.max_value());
                    let b = Tensor::from_fn(vec![k, n], |i| if i / n % 32 < 24 { b1 } else { -b1 });
                    (Tensor::from_fn(vec![m, k], |_| a1), b)
                }
                _ => {
                    let mut a = Tensor::from_fn(vec![m, k], |i| extreme_value(fa, pick(i)));
                    let mut b = Tensor::from_fn(vec![k, n], |i| extreme_value(fb, pick(i * 7 + 3)));
                    if pattern == 1 {
                        for p in (1..k).step_by(2) {
                            for i in 0..m {
                                a.as_mut_slice()[i * k + p] = a.as_slice()[i * k + p - 1];
                            }
                            for j in 0..n {
                                b.as_mut_slice()[p * n + j] = -b.as_slice()[(p - 1) * n + j];
                            }
                        }
                    }
                    (a, b)
                }
            };
            for chunk_len in [1, 7, 64, 4096] {
                let (scalar, scalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
                for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
                    let exec = Exec { simd, ..Exec::default() };
                    let (fast, fast_stats) =
                        matmul_emulated_with(mode, &a, &b, chunk_len, exec).unwrap();
                    assert_bits_eq(&fast, &scalar);
                    let ctx = format!("{simd:?} {mode:?} pattern {pattern} chunk {chunk_len}");
                    prop_assert_eq!(fast_stats, scalar_stats, "{}", ctx);
                }
            }
        }
    }

    /// Integer GEMM under every explicit backend pin: the expanding kernel
    /// (every INT4/INT2 pair; `m` 1–10 fills a 4-row tile plus every tail)
    /// and the tiled windowed path must both reproduce the IntAccumulator
    /// reference, including chunk lengths long enough that the saturation
    /// guard forces the scalar accumulator regardless of the pin — under
    /// each guard policy, with no fault plan and with a disabled one.
    #[test]
    fn int_gemm_bit_exact_across_backends(
        (m, k, n) in (1usize..11, 1usize..80, 1usize..100),
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

    /// Convolution under every explicit backend pin: the float and
    /// integer convolutions (the GEMM's product core per image, spatial
    /// sizes crossing the 16- and 64-column kernel widths) match the
    /// scalar convolution bit-for-bit with SIMD forced and with it pinned
    /// off. Activation and weight formats are drawn independently
    /// (unsigned INT4 × signed INT4 is the benchmark's pair); `co` up to
    /// 12 fills a 4-row tile plus a tail, `ci` up to 8 with 3×3 kernels
    /// gives depths up to 72 with ragged k-quads, and ReLU inputs put
    /// runs of zero codes in the gating counts.
    #[test]
    fn conv_bit_exact_across_backends(
        (ni, ci, co) in (1usize..3, 1usize..9, 1usize..13),
        (h, w) in (4usize..11, 4usize..11),
        (kh, kw) in (1usize..4, 1usize..4),
        (stride, pad) in (1usize..3, 0usize..2),
        (mode_idx, fmt_a, fmt_w) in (0u8..4, 0u8..4, 0u8..4),
        relu in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let input = maybe_relu(sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0), relu == 1);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, 7, 7);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        let qa = int_params_from(fmt_a, input.max_abs());
        let qw = int_params_from(fmt_w, weight.max_abs());
        let (iscalar, iscalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 16);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let (fast, fast_stats) =
                conv2d_emulated_with_simd(&input, &weight, spec, mode, 16, simd).unwrap();
            assert_bits_eq(&fast, &scalar);
            prop_assert_eq!(fast_stats, scalar_stats, "{:?}", simd);
            let (ifast, ifast_stats) =
                conv2d_int_with_simd(&input, &weight, spec, qa, qw, 16, simd).unwrap();
            assert_bits_eq(&ifast, &iscalar);
            prop_assert_eq!(ifast_stats, iscalar_stats, "{:?}", simd);
        }
    }

    /// Convolution: the default dispatch (the GEMM's product core per
    /// image, on the AVX2 kernels from 4096 MACs up and the portable ones
    /// below) is bit-exact against the scalar convolution for random
    /// geometries, float and int, with the INT formats drawn independently
    /// and the same channel, depth and ReLU ranges as the pinned-backend
    /// test.
    #[test]
    fn conv_bit_exact(
        (ni, ci, co) in (1usize..3, 1usize..9, 1usize..13),
        (h, w) in (3usize..8, 3usize..8),
        (kh, kw) in (1usize..4, 1usize..4),
        (stride, pad) in (1usize..3, 0usize..2),
        (mode_idx, fmt_a, fmt_w) in (0u8..4, 0u8..4, 0u8..4),
        relu in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let input = maybe_relu(sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0), relu == 1);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, 7, 7);
        let (fast, fast_stats) = conv2d_emulated(&input, &weight, spec, mode, 16);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);

        let qa = int_params_from(fmt_a, input.max_abs());
        let qw = int_params_from(fmt_w, weight.max_abs());
        let (ifast, ifast_stats) = conv2d_int(&input, &weight, spec, qa, qw, 16);
        let (iscalar, iscalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 16);
        assert_bits_eq(&ifast, &iscalar);
        prop_assert_eq!(ifast_stats, iscalar_stats);
    }

    /// The float convolution in both of its orientations: `ho·wo` of 1–20
    /// output pixels against `co` of 1–80 channels (past one 64-lane wide
    /// sweep), so most shapes have `co > ho·wo` and put the whole batch's
    /// pixels on the A port, and the rest put the weights there, image by
    /// image. Up to 8 images, strides 1–2, every float mode with its
    /// biases drawn, ReLU-sparse inputs against mixed-sign weights, and
    /// chunk lengths across the depth. `Auto`, `Force` and `Off` must each
    /// reproduce the scalar convolution's bits and statistics.
    #[test]
    fn conv_bit_exact_in_both_orientations(
        (ni, ci, co) in (1usize..9, 1usize..7, 1usize..81),
        (ho, wo) in (1usize..6, 1usize..5),
        (kh, kw) in (1usize..4, 1usize..4),
        (stride, pad) in (1usize..3, 0usize..2),
        mode_idx in 0u8..4,
        (bias_a, bias_b) in (4i32..=10, 4i32..=10),
        chunk_len in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        // The input side that gives `o` outputs; where the padding alone
        // covers the kernel, one row or column (and at most 3 outputs).
        let side = |o: usize, k: usize| ((o - 1) * stride + k).saturating_sub(2 * pad).max(1);
        let (h, w) = (side(ho, kh), side(wo, kw));
        let spec = ConvSpec { stride, pad };
        let hw = spec.out_dim(h, kh) * spec.out_dim(w, kw);
        prop_assert!((1..=20).contains(&hw), "{}×{} input gives {} pixels", h, w, hw);
        let input = maybe_relu(sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0), true);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, bias_a, bias_b);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, chunk_len);
        for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
            let (fast, fast_stats) =
                conv2d_emulated_with_simd(&input, &weight, spec, mode, chunk_len, simd).unwrap();
            assert_bits_eq(&fast, &scalar);
            let ctx = format!("{simd:?} {mode:?} n={ni} co={co} ho·wo={hw}");
            prop_assert_eq!(fast_stats, scalar_stats, "{}", ctx);
        }
    }
}
