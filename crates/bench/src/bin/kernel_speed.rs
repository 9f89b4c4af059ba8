//! Kernel-backend speed benchmark: times the scalar reference kernels
//! against the portable tiled fast paths (`RAPID_SIMD=off`) and the
//! AVX2 vector backends (`RAPID_SIMD=force`) on the canonical
//! 128³ GEMM shape (chunk 64), a 1×2048×1000 GEMV (the ResNet50 FC
//! layer), a representative convolution and one at serving's ResNet50@32
//! stage-4 shape (one output pixel per image), checks every fast output
//! bit-for-bit against its scalar reference, and records
//! `<group>.speedup_vs_scalar` — the ratios `repro_all` gates against
//! regressions between runs.
//!
//! The three backends of a group are timed in paired rounds: each round
//! runs scalar, tiled and simd back to back, so a change in host load
//! hits all three alike. The recorded speedup is the median of the
//! per-round scalar/simd ratios, and `<group>.speedup_iqr` is their
//! interquartile range. Float groups also print the chunks their simd
//! kernel replayed per call (`<group>.replays_per_call`), and the run
//! records `gemm_fp16.simd_vs_hfp8`, the ratio of the two GEMMs' median
//! simd times in this process.
//!
//! Runs single-threaded by default (set `RAPID_THREADS` to override):
//! the metric is per-kernel speedup, not machine throughput, and thread
//! fan-out would only add variance to the ratio.
//!
//! Usage: `kernel_speed [--smoke] [--json PATH]`

use rapid_bench::{compare, run, section, BenchRecord};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{
    chunk_replays, conv2d_emulated_scalar, conv2d_emulated_with_simd, conv2d_int_scalar,
    conv2d_int_with_simd, matmul_emulated_scalar, matmul_emulated_with, matmul_int_scalar,
    matmul_int_with, ConvSpec, Exec, GemmStats,
};
use rapid_numerics::int::Signedness;
use rapid_numerics::{
    kernel_matrix_at, GuardPolicy, IntFormat, NumericsError, QuantParams, SimdMode, Tensor,
};
use std::hint::black_box;
use std::time::Instant;

const CHUNK: usize = 64;

type Output = (Tensor, GemmStats);

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

/// First quartile, median and third quartile, by linear interpolation
/// between order statistics.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Asserts two kernel results agree bit-for-bit (values and stats).
fn assert_bitexact(group: &str, backend: &str, r: &Output, s: &Output) {
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

/// One group's per-round wall times in milliseconds: scalar, tiled, simd;
/// for a float group, also the chunks its simd kernel replayed per call.
struct GroupResult {
    name: &'static str,
    rounds: Vec<[f64; 3]>,
    replays_per_call: Option<f64>,
}

impl GroupResult {
    /// Median simd time over the rounds, in milliseconds.
    fn simd_ms(&self) -> f64 {
        quartiles(self.rounds.iter().map(|t| t[2]).collect())[1]
    }

    fn report(&self, rec: &mut BenchRecord) {
        let over_rounds = |f: fn(&[f64; 3]) -> f64| quartiles(self.rounds.iter().map(f).collect());
        let [_, scalar_ms, _] = over_rounds(|t| t[0]);
        let [_, tiled_ms, _] = over_rounds(|t| t[1]);
        let simd_ms = self.simd_ms();
        let [q1, vs_scalar, q3] = over_rounds(|t| t[0] / t[2]);
        let [_, vs_tiled, _] = over_rounds(|t| t[1] / t[2]);
        compare(
            &format!("{} scalar / tiled / simd", self.name),
            format!(
                "{scalar_ms:.2} / {tiled_ms:.2} / {simd_ms:.3} ms → {vs_scalar:.1}× \
                 (IQR {:.1}) vs scalar, {vs_tiled:.1}× vs tiled",
                q3 - q1
            ),
            "bit-exact across all three",
        );
        rec.metric(&format!("{}.scalar_ms", self.name), scalar_ms);
        rec.metric(&format!("{}.tiled_ms", self.name), tiled_ms);
        rec.metric(&format!("{}.simd_ms", self.name), simd_ms);
        rec.metric(&format!("{}.speedup_vs_scalar", self.name), vs_scalar);
        rec.metric(&format!("{}.speedup_iqr", self.name), q3 - q1);
        rec.metric(&format!("{}.speedup_vs_tiled", self.name), vs_tiled);
        if let Some(replays) = self.replays_per_call {
            compare(
                &format!("{} simd chunk replays per call", self.name),
                format!("{replays:.1}"),
                "exact replays of chunks that left the 4-op rounder's domain",
            );
            rec.metric(&format!("{}.replays_per_call", self.name), replays);
        }
    }
}

/// Times one group's scalar reference, tiled (`off`) and vector
/// (`force`) backends in `rounds` paired rounds, after checking both
/// fast outputs against the reference bit-for-bit. Each round runs all
/// three back to back, starting one backend later than the round before.
fn time_group(
    name: &'static str,
    rounds: usize,
    mut scalar: impl FnMut() -> Output,
    mut tiled: impl FnMut() -> Result<Output, NumericsError>,
    mut simd: impl FnMut() -> Result<Output, NumericsError>,
) -> Result<GroupResult, NumericsError> {
    let reference = scalar();
    assert_bitexact(name, "tiled", &tiled()?, &reference);
    assert_bitexact(name, "simd", &simd()?, &reference);
    let mut times = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut t = [0.0; 3];
        for i in 0..3 {
            let backend = (r + i) % 3;
            let start = Instant::now();
            match backend {
                0 => {
                    black_box(scalar());
                }
                1 => {
                    black_box(tiled()?);
                }
                _ => {
                    black_box(simd()?);
                }
            }
            t[backend] = start.elapsed().as_secs_f64() * 1e3;
        }
        times.push(t);
    }
    Ok(GroupResult { name, rounds: times, replays_per_call: None })
}

/// Execution options pinning one backend, unguarded and fault-free.
fn pinned(simd: SimdMode) -> Exec<'static> {
    Exec { simd, guard: GuardPolicy::Propagate, faults: None }
}

/// Runs `time`, a float group's [`time_group`] over `rounds` rounds, and
/// counts the chunks its simd calls replayed (the tiled backend never
/// replays; the bit-exactness check runs simd once more than the rounds).
fn counting_replays(
    rounds: usize,
    time: impl FnOnce() -> Result<GroupResult, NumericsError>,
) -> Result<GroupResult, NumericsError> {
    let replays = chunk_replays();
    let mut group = time()?;
    group.replays_per_call = Some((chunk_replays() - replays) as f64 / (rounds + 1) as f64);
    Ok(group)
}

/// Times one float GEMM group.
fn float_group(
    name: &'static str,
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    rounds: usize,
) -> Result<GroupResult, NumericsError> {
    counting_replays(rounds, || {
        time_group(
            name,
            rounds,
            || matmul_emulated_scalar(mode, a, b, CHUNK),
            || matmul_emulated_with(mode, a, b, CHUNK, pinned(SimdMode::Off)),
            || matmul_emulated_with(mode, a, b, CHUNK, pinned(SimdMode::Force)),
        )
    })
}

/// Times one integer GEMM group; `force` runs the expanding kernel that
/// INT4 and INT2 share.
fn int_group(
    name: &'static str,
    fmt: IntFormat,
    a: &Tensor,
    b: &Tensor,
    rounds: usize,
) -> Result<GroupResult, NumericsError> {
    let q = QuantParams::from_abs_max(fmt, Signedness::Signed, 1.0);
    time_group(
        name,
        rounds,
        || matmul_int_scalar(a, b, q, q, CHUNK),
        || matmul_int_with(a, b, q, q, CHUNK, pinned(SimdMode::Off)),
        || matmul_int_with(a, b, q, q, CHUNK, pinned(SimdMode::Force)),
    )
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
        let (dim, rounds) = if smoke { (64, 3) } else { (128, 15) };
        ctx.rec.config_num("dim", dim as f64);
        ctx.rec.config_num("chunk_len", CHUNK as f64);
        ctx.rec.config_str("simd", SimdMode::from_env().as_str());

        section(&format!("kernel selection matrix ({dim}³, chunk {CHUNK}, RAPID_SIMD=force)"));
        for c in kernel_matrix_at(SimdMode::Force, dim, CHUNK) {
            compare(&format!("  {}", c.format), format!("{}", c.backend), c.reason.as_str());
            let choice = format!("{} — {}", c.backend, c.reason);
            ctx.rec.config_str(&format!("kernel.{}", c.format), &choice);
        }

        section(&format!("GEMM {dim}×{dim}×{dim}, chunk {CHUNK} ({rounds} paired rounds)"));
        let a = filled(vec![dim, dim], 0x9E37_79B9);
        let b = filled(vec![dim, dim], 0xC2B2_AE35);
        let groups = [
            float_group("gemm_fp16", FmaMode::Fp16, &a, &b, rounds)?,
            float_group("gemm_hfp8_fwd", FmaMode::hfp8_fwd_default(), &a, &b, rounds)?,
            float_group("gemm_hfp8_bwd", FmaMode::hfp8_bwd_default(), &a, &b, rounds)?,
            int_group("gemm_int4", IntFormat::Int4, &a, &b, rounds)?,
            int_group("gemm_int2", IntFormat::Int2, &a, &b, rounds)?,
        ];
        for g in &groups {
            g.report(&mut ctx.rec);
        }
        let fp16_vs_hfp8 = groups[0].simd_ms() / groups[1].simd_ms();
        compare(
            "gemm_fp16 simd / gemm_hfp8_fwd simd",
            format!("{fp16_vs_hfp8:.2}×"),
            "same process, median simd times",
        );
        ctx.rec.metric("gemm_fp16.simd_vs_hfp8", fp16_vs_hfp8);

        // The m = 1 regime at the ResNet50 FC shape runs the row-streamed
        // GEMV: no B groups, each B row staged once into a row buffer and
        // used once. Staging B still costs more than the MACs here, so
        // this shape gets its own isolated number.
        let (gk, gn) = (2048, 1000);
        section(&format!("GEMV 1×{gk}×{gn} (ResNet50 FC), chunk {CHUNK} ({rounds} paired rounds)"));
        let x = filled(vec![1, gk], 0x2545_F491);
        let w = filled(vec![gk, gn], 0x6A09_E667);
        let gemv_groups = [
            float_group("gemv_fp16", FmaMode::Fp16, &x, &w, rounds)?,
            float_group("gemv_hfp8_fwd", FmaMode::hfp8_fwd_default(), &x, &w, rounds)?,
        ];
        for g in &gemv_groups {
            g.report(&mut ctx.rec);
        }

        // A convolution runs the GEMM's product core per image: each image
        // lowered into [ci·kh·kw, ho·wo] rows, the weights as A, the output
        // written straight into [n, co, ho, wo].
        let (n, ci, hw_in, co) = if smoke { (2, 4, 14, 8) } else { (4, 8, 28, 16) };
        let spec = ConvSpec { stride: 1, pad: 1 };
        section(&format!(
            "conv {n}×{ci}×{hw_in}×{hw_in} · {co}×{ci}×3×3 stride 1 pad 1 ({rounds} paired rounds)"
        ));
        let input = filled(vec![n, ci, hw_in, hw_in], 0x1234_5678);
        let weight = filled(vec![co, ci, 3, 3], 0x8765_4321);
        let m = FmaMode::hfp8_fwd_default();
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let conv_groups = [
            counting_replays(rounds, || {
                time_group(
                    "conv_hfp8",
                    rounds,
                    || conv2d_emulated_scalar(&input, &weight, spec, m, CHUNK),
                    || conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, SimdMode::Off),
                    || conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, SimdMode::Force),
                )
            })?,
            time_group(
                "conv_int4",
                rounds,
                || conv2d_int_scalar(&input, &weight, spec, q, q, CHUNK),
                || conv2d_int_with_simd(&input, &weight, spec, q, q, CHUNK, SimdMode::Off),
                || conv2d_int_with_simd(&input, &weight, spec, q, q, CHUNK, SimdMode::Force),
            )?,
        ];
        for g in &conv_groups {
            g.report(&mut ctx.rec);
        }

        // Serving's ResNet50@32 stage-4 shape: one output pixel per image
        // and 64 output channels, so the pixels are A and the weights B,
        // the whole batch in one product.
        let (n, ci, hw_in, co) = (4, 64, 2, 64);
        let spec = ConvSpec { stride: 2, pad: 1 };
        section(&format!(
            "conv {n}×{ci}×{hw_in}×{hw_in} · {co}×{ci}×3×3 stride 2 pad 1 ({rounds} paired rounds)"
        ));
        let input = filled(vec![n, ci, hw_in, hw_in], 0x2468_ACE0);
        let weight = filled(vec![co, ci, 3, 3], 0x1357_9BDF);
        counting_replays(rounds, || {
            time_group(
                "conv_hfp8_small",
                rounds,
                || conv2d_emulated_scalar(&input, &weight, spec, m, CHUNK),
                || conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, SimdMode::Off),
                || conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, SimdMode::Force),
            )
        })?
        .report(&mut ctx.rec);

        section("bit-exactness");
        compare(
            "all fast backends vs scalar references",
            "identical output bits and datapath stats",
            "required (asserted above)",
        );
        Ok(())
    })
}
