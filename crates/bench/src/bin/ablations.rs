//! Ablations of RaPiD's design choices (the DESIGN.md §4 decisions):
//!
//! 1. **SFU doubling** (§III-B: "this necessitated doubling the SFU
//!    arrays") — rerun INT4 inference with the baseline single SFU array.
//! 2. **LRF capacity** — the 256 B weight register file against halved and
//!    doubled variants (block-load amortization vs area).
//! 3. **Accumulation chunk length** (§III-A chunk-based accumulation) —
//!    numeric error of the HFP8 pipeline across chunk sizes.
//! 4. **Zero-gating** (§III-C) — MPE energy at increasing weight sparsity
//!    with and without the gating bypass.

use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::PowerModel;
use rapid_arch::precision::Precision;
use rapid_bench::{mean, run, section};
use rapid_compiler::passes::{compile, CompileOptions};
use rapid_model::cost::ModelConfig;
use rapid_model::inference::evaluate_inference;
use rapid_numerics::accumulate::dot_chunked;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::format::FpFormat;
use rapid_numerics::Tensor;
use rapid_workloads::suite::benchmark_suite;

fn int4_latency(chip: &ChipConfig, name: &str) -> Result<f64, String> {
    let net = benchmark_suite()
        .into_iter()
        .find(|n| n.name == name)
        .ok_or_else(|| format!("unknown benchmark '{name}'"))?;
    let plan = compile(&net, chip, &CompileOptions::for_precision(Precision::Int4));
    Ok(evaluate_inference(&net, &plan, chip, 1, &ModelConfig::default()).latency_s)
}

fn main() -> std::process::ExitCode {
    run("ablations", |ctx| {
        section("ablation 1 — SFU array doubling (§III-B)");
        let doubled = ChipConfig::rapid_4core();
        let mut single = ChipConfig::rapid_4core();
        single.core.corelet.sfu_lanes /= 2;
        println!("{:<12} {:>14} {:>14} {:>9}", "benchmark", "1x SFU (µs)", "2x SFU (µs)", "gain");
        let mut gains = Vec::new();
        for name in ["mobilenetv1", "resnet50", "tiny-yolov3", "bert", "vgg16"] {
            let t1 = int4_latency(&single, name)?;
            let t2 = int4_latency(&doubled, name)?;
            gains.push(t1 / t2);
            println!("{:<12} {:>14.0} {:>14.0} {:>8.2}x", name, t1 * 1e6, t2 * 1e6, t1 / t2);
        }
        println!(
            "doubling the SFU buys {:.0}% on aux-heavy nets — the §III-B balance argument",
            (gains[0] - 1.0) * 100.0
        );

        section("ablation 2 — LRF capacity (block-load amortization)");
        // Mapping-level view: the batch-1 LSTM recurrent GEMV (m=1, k=1500,
        // n=6000) is the block-load-bound worst case; a ResNet 3x3 conv is the
        // streaming-bound best case.
        use rapid_compiler::mapping::map_layer;
        use rapid_workloads::graph::Op;
        let gemv = Op::Gemm { m: 1, k: 1500, n: 6000, weighted: true };
        let conv = Op::Conv { ci: 256, co: 256, h: 14, w: 14, kh: 3, kw: 3, stride: 1, pad_h: 1, pad_w: 1 };
        println!(
            "{:<10} {:>16} {:>16} {:>14} {:>14}",
            "LRF bytes", "gemv cycles", "gemv util", "conv cycles", "conv util"
        );
        for lrf in [64u32, 128, 256, 512, 1024] {
            let mut chip = ChipConfig::rapid_4core();
            chip.core.corelet.mpe.lrf_bytes = lrf;
            let g = map_layer(&gemv, Precision::Fp16, 1, &chip.core.corelet, 8);
            let c = map_layer(&conv, Precision::Int4, 1, &chip.core.corelet, 8);
            println!(
                "{:<10} {:>16.0} {:>15.1}% {:>14.0} {:>13.1}%",
                lrf,
                g.total_cycles(),
                g.utilization() * 100.0,
                c.total_cycles(),
                c.utilization() * 100.0
            );
        }
        println!("(fill/drain per block shrinks with a deeper LRF; weight bytes are fixed,");
        println!(" so GEMV gains flatten past 256 B — RaPiD's choice — while area keeps growing)");

        section("ablation 3 — accumulation chunk length (§III-A / [51])");
        // All-positive accumulations expose swamping systematically (ReLU
        // activations are exactly this case).
        let fmt = FpFormat::fp8_e4m3();
        let n = 16384;
        let a: Vec<f32> = Tensor::random_uniform(vec![n], 0.0, 1.0, 7)
            .as_slice()
            .iter()
            .map(|&x| fmt.quantize(x))
            .collect();
        let b: Vec<f32> = Tensor::random_uniform(vec![n], 0.0, 1.0, 8)
            .as_slice()
            .iter()
            .map(|&x| fmt.quantize(x))
            .collect();
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        println!("{:<12} {:>14} {:>12}", "chunk", "dot result", "rel error");
        for chunk in [16usize, 64, 256, 1024, 16384] {
            let got = dot_chunked(FmaMode::hfp8_fwd_default(), &a, &b, chunk);
            let rel = (f64::from(got) - exact).abs() / exact.abs().max(1.0);
            let label = if chunk == 16384 { "flat".to_string() } else { chunk.to_string() };
            println!("{:<12} {:>14.3} {:>11.2}%", label, got, rel * 100.0);
        }
        println!("(exact {exact:.1}; error explodes with chunk length once the running sum swamps
     the addends — 64 keeps full fidelity while bounding SFU chunk traffic)");

        section("ablation 4 — zero-gating energy (§III-C)");
        let pm = PowerModel::rapid_7nm();
        let chip = ChipConfig::rapid_4core();
        let e_op = pm.mpe_op_joules(Precision::Fp16, chip.freq_ghz);
        println!("{:<10} {:>18} {:>18} {:>9}", "sparsity", "gated (pJ/MAC)", "ungated (pJ/MAC)", "saving");
        for s in [0.0f64, 0.25, 0.5, 0.75] {
            let gated = 2.0 * e_op * ((1.0 - s) + s * pm.energy.zero_gate_residual) * 1e12;
            let ungated = 2.0 * e_op * 1e12;
            println!(
                "{:<9.0}% {:>18.3} {:>18.3} {:>8.0}%",
                s * 100.0,
                gated,
                ungated,
                (1.0 - gated / ungated) * 100.0
            );
        }
        println!(
            "avg SFU-doubling gain across probed nets: {:.2}x",
            mean(&gains)
        );
        ctx.rec.metric("sfu_doubling_gain.mean", mean(&gains));
        ctx.rec.metric("zero_gate_residual", pm.energy.zero_gate_residual);
        Ok(())
    })
}
