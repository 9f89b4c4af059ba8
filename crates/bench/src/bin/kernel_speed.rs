//! Kernel-backend speed benchmark: times the scalar reference kernels
//! against the portable tiled fast paths (`RAPID_SIMD=off`) and the
//! vector / bit-sliced backends (`RAPID_SIMD=force`) on the canonical
//! 128³ GEMM shape (chunk 64), a 1×2048×1000 GEMV (the ResNet50 FC
//! layer) and a representative convolution, checks every fast output
//! bit-for-bit against its scalar reference, and records
//! `<group>.speedup_vs_scalar` — the ratios `repro_all` gates against
//! regressions between runs.
//!
//! Runs single-threaded by default (set `RAPID_THREADS` to override):
//! the metric is per-kernel speedup, not machine throughput, and thread
//! fan-out would only add variance to the ratio.
//!
//! Usage: `kernel_speed [--smoke] [--json PATH]`

use rapid_bench::{compare, run, section, BenchRecord};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{
    conv2d_emulated_scalar, conv2d_emulated_with_simd, conv2d_int_scalar, conv2d_int_with_simd,
    matmul_emulated_scalar, matmul_emulated_with, matmul_int_scalar, matmul_int_with, ConvScratch,
    ConvSpec, Exec, GemmStats,
};
use rapid_numerics::int::Signedness;
use rapid_numerics::{kernel_matrix_at, GuardPolicy, IntFormat, QuantParams, SimdMode, Tensor};
use std::time::Instant;

const CHUNK: usize = 64;

/// Deterministic pseudo-random tensor in [-1, 1] with ~20% exact zeros so
/// the zero-gating stats paths are exercised by the bit-exact checks.
fn filled(shape: Vec<usize>, seed: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let mut s = seed | 1;
    let data = (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 5 == 0 {
                0.0
            } else {
                ((s >> 16) & 0xFFFF) as f32 / 32768.0 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Best-of-`reps` wall time in milliseconds, plus the (last) output for
/// the bit-exactness check. One untimed warmup call precedes the reps.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (out, best)
}

/// Asserts two kernel results agree bit-for-bit (values and stats).
fn assert_bitexact(group: &str, backend: &str, r: &(Tensor, GemmStats), s: &(Tensor, GemmStats)) {
    assert_eq!(r.0.shape(), s.0.shape(), "{group}/{backend}: shape mismatch");
    for (i, (a, b)) in r.0.as_slice().iter().zip(s.0.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{group}/{backend}: element {i} differs ({a} vs {b})"
        );
    }
    assert_eq!(r.1, s.1, "{group}/{backend}: stats mismatch");
}

struct GroupResult {
    name: &'static str,
    scalar_ms: f64,
    tiled_ms: f64,
    simd_ms: f64,
}

impl GroupResult {
    fn speedup_vs_scalar(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }

    fn report(&self, rec: &mut BenchRecord) {
        compare(
            &format!("{} scalar / tiled / simd", self.name),
            format!(
                "{:.2} / {:.2} / {:.3} ms → {:.1}× vs scalar, {:.1}× vs tiled",
                self.scalar_ms,
                self.tiled_ms,
                self.simd_ms,
                self.speedup_vs_scalar(),
                self.tiled_ms / self.simd_ms
            ),
            "bit-exact across all three",
        );
        rec.metric(&format!("{}.scalar_ms", self.name), self.scalar_ms);
        rec.metric(&format!("{}.tiled_ms", self.name), self.tiled_ms);
        rec.metric(&format!("{}.simd_ms", self.name), self.simd_ms);
        rec.metric(&format!("{}.speedup_vs_scalar", self.name), self.speedup_vs_scalar());
        rec.metric(&format!("{}.speedup_vs_tiled", self.name), self.tiled_ms / self.simd_ms);
    }
}

/// Execution options pinning one backend, unguarded and fault-free.
fn pinned(simd: SimdMode) -> Exec<'static> {
    Exec { simd, guard: GuardPolicy::Propagate, faults: None }
}

/// Times one float GEMM group: scalar reference, tiled (`off`), vector
/// (`force`); the fast results must match the reference bit-for-bit.
fn float_group(
    name: &'static str,
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    reps: usize,
) -> Result<GroupResult, Box<dyn std::error::Error>> {
    let (reference, scalar_ms) = best_ms(reps, || matmul_emulated_scalar(mode, a, b, CHUNK));
    let (tiled, tiled_ms) =
        best_ms(reps, || matmul_emulated_with(mode, a, b, CHUNK, pinned(SimdMode::Off)));
    let (simd, simd_ms) =
        best_ms(reps, || matmul_emulated_with(mode, a, b, CHUNK, pinned(SimdMode::Force)));
    assert_bitexact(name, "tiled", &tiled?, &reference);
    assert_bitexact(name, "simd", &simd?, &reference);
    Ok(GroupResult { name, scalar_ms, tiled_ms, simd_ms })
}

/// Times one integer GEMM group (madd or bit-sliced under `force`).
fn int_group(
    name: &'static str,
    fmt: IntFormat,
    a: &Tensor,
    b: &Tensor,
    reps: usize,
) -> Result<GroupResult, Box<dyn std::error::Error>> {
    let q = QuantParams::from_abs_max(fmt, Signedness::Signed, 1.0);
    let (reference, scalar_ms) = best_ms(reps, || matmul_int_scalar(a, b, q, q, CHUNK));
    let (tiled, tiled_ms) =
        best_ms(reps, || matmul_int_with(a, b, q, q, CHUNK, pinned(SimdMode::Off)));
    let (simd, simd_ms) =
        best_ms(reps, || matmul_int_with(a, b, q, q, CHUNK, pinned(SimdMode::Force)));
    assert_bitexact(name, "tiled", &tiled?, &reference);
    assert_bitexact(name, "simd", &simd?, &reference);
    Ok(GroupResult { name, scalar_ms, tiled_ms, simd_ms })
}

fn main() -> std::process::ExitCode {
    // Per-kernel ratios, not machine throughput: default to one thread so
    // the gated speedup metric is stable across host core counts. Set
    // before the harness builds the record, which reads the count.
    if std::env::var_os("RAPID_THREADS").is_none() {
        std::env::set_var("RAPID_THREADS", "1");
    }
    run("kernel_speed", |ctx| {
        let smoke = ctx.smoke();
        let (dim, reps) = if smoke { (64, 2) } else { (128, 5) };
        ctx.rec.config_num("dim", dim as f64);
        ctx.rec.config_num("chunk_len", CHUNK as f64);
        ctx.rec.config_str("simd", SimdMode::from_env().as_str());

        section(&format!("kernel selection matrix ({dim}³, chunk {CHUNK}, RAPID_SIMD=force)"));
        for c in kernel_matrix_at(SimdMode::Force, dim, CHUNK) {
            compare(&format!("  {}", c.format), format!("{}", c.backend), c.reason.as_str());
            let choice = format!("{} — {}", c.backend, c.reason);
            ctx.rec.config_str(&format!("kernel.{}", c.format), &choice);
        }

        section(&format!("GEMM {dim}×{dim}×{dim}, chunk {CHUNK} (best of {reps})"));
        let a = filled(vec![dim, dim], 0x9E37_79B9);
        let b = filled(vec![dim, dim], 0xC2B2_AE35);
        let groups = [
            float_group("gemm_fp16", FmaMode::Fp16, &a, &b, reps)?,
            float_group("gemm_hfp8_fwd", FmaMode::hfp8_fwd_default(), &a, &b, reps)?,
            float_group("gemm_hfp8_bwd", FmaMode::hfp8_bwd_default(), &a, &b, reps)?,
            int_group("gemm_int4", IntFormat::Int4, &a, &b, reps)?,
            int_group("gemm_int2", IntFormat::Int2, &a, &b, reps)?,
        ];
        for g in &groups {
            g.report(&mut ctx.rec);
        }

        // The m = 1 regime at the ResNet50 FC shape: per-call B staging, not
        // MACs, dominates here, so it gets its own isolated number.
        let (gk, gn) = (2048, 1000);
        section(&format!("GEMV 1×{gk}×{gn} (ResNet50 FC), chunk {CHUNK} (best of {reps})"));
        let x = filled(vec![1, gk], 0x2545_F491);
        let w = filled(vec![gk, gn], 0x6A09_E667);
        let gemv_groups = [
            float_group("gemv_fp16", FmaMode::Fp16, &x, &w, reps)?,
            float_group("gemv_hfp8_fwd", FmaMode::hfp8_fwd_default(), &x, &w, reps)?,
        ];
        for g in &gemv_groups {
            g.report(&mut ctx.rec);
        }

        // A convolution exercises the panel-packed path (im2col rows consumed
        // in place, output written straight into [n, co, ho, wo]).
        let (n, ci, hw_in, co) = if smoke { (2, 4, 14, 8) } else { (4, 8, 28, 16) };
        let spec = ConvSpec { stride: 1, pad: 1 };
        section(&format!(
            "conv {n}×{ci}×{hw_in}×{hw_in} · {co}×{ci}×3×3 stride 1 pad 1 (best of {reps})"
        ));
        let input = filled(vec![n, ci, hw_in, hw_in], 0x1234_5678);
        let weight = filled(vec![co, ci, 3, 3], 0x8765_4321);
        let conv_groups = [
            {
                let m = FmaMode::hfp8_fwd_default();
                let (reference, scalar_ms) =
                    best_ms(reps, || conv2d_emulated_scalar(&input, &weight, spec, m, CHUNK));
                let (tiled, tiled_ms) = best_ms(reps, || {
                    let mut s = ConvScratch::default();
                    conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, &mut s, SimdMode::Off)
                });
                let (simd, simd_ms) = best_ms(reps, || {
                    let mut s = ConvScratch::default();
                    conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, &mut s, SimdMode::Force)
                });
                assert_bitexact("conv_hfp8", "tiled", &tiled?, &reference);
                assert_bitexact("conv_hfp8", "simd", &simd?, &reference);
                GroupResult { name: "conv_hfp8", scalar_ms, tiled_ms, simd_ms }
            },
            {
                let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
                let (reference, scalar_ms) =
                    best_ms(reps, || conv2d_int_scalar(&input, &weight, spec, q, q, CHUNK));
                let (tiled, tiled_ms) = best_ms(reps, || {
                    let mut s = ConvScratch::default();
                    conv2d_int_with_simd(&input, &weight, spec, q, q, CHUNK, &mut s, SimdMode::Off)
                });
                let (simd, simd_ms) = best_ms(reps, || {
                    let mut s = ConvScratch::default();
                    conv2d_int_with_simd(&input, &weight, spec, q, q, CHUNK, &mut s, SimdMode::Force)
                });
                assert_bitexact("conv_int4", "tiled", &tiled?, &reference);
                assert_bitexact("conv_int4", "simd", &simd?, &reference);
                GroupResult { name: "conv_int4", scalar_ms, tiled_ms, simd_ms }
            },
        ];
        for g in &conv_groups {
            g.report(&mut ctx.rec);
        }

        section("bit-exactness");
        compare(
            "all fast backends vs scalar references",
            "identical output bits and datapath stats",
            "required (asserted above)",
        );
        Ok(())
    })
}
