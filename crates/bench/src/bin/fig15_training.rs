//! Regenerates Fig 15: training throughput (inputs/s) on the 4-chip ×
//! 32-core system at FP16 vs Hybrid-FP8, minibatch 512.

use rapid_arch::precision::Precision;
use rapid_bench::{compare, mean, min_max, run, section, suite_map, train_step};

fn main() -> std::process::ExitCode {
    run("fig15_training", |ctx| {
        section("Fig 15 — training throughput, 4 × 32-core chips, minibatch 512");
        println!(
            "{:<12} {:>11} {:>11} {:>8} | {:>10} {:>9} {:>8} {:>8}",
            "benchmark", "fp16 ips", "hfp8 ips", "speedup", "hfp8 TFLOPS", "compute", "memory", "comm"
        );
        let rows = suite_map(|net| {
            (train_step(net, Precision::Fp16), train_step(net, Precision::Hfp8))
        });
        let mut speedups = Vec::new();
        let mut tflops = Vec::new();
        for (name, (f16, h8)) in &rows {
            let s = f16.step_time_s / h8.step_time_s;
            speedups.push(s);
            tflops.push(h8.sustained_tflops);
            println!(
                "{:<12} {:>11.0} {:>11.0} {:>7.2}x | {:>10.0} {:>8.1}ms {:>7.1}ms {:>7.2}ms",
                name,
                f16.inputs_per_s,
                h8.inputs_per_s,
                s,
                h8.sustained_tflops,
                h8.compute_s * 1e3,
                h8.memory_s * 1e3,
                h8.comm_s * 1e3
            );
        }
        println!();
        let (lo, hi) = min_max(&speedups);
        let (tlo, thi) = min_max(&tflops);
        compare(
            "HFP8 training speedup over FP16",
            format!("{lo:.2}x - {hi:.2}x (avg {:.2}x)", mean(&speedups)),
            "1.1x - 2x (avg 1.4x)",
        );
        compare(
            "HFP8 sustained TFLOPS",
            format!("{tlo:.0} - {thi:.0} (avg {:.0})", mean(&tflops)),
            "102 - 588 (avg 203)",
        );
        for (name, (f16, h8)) in &rows {
            ctx.rec.metric(&format!("{name}.hfp8_inputs_per_s"), h8.inputs_per_s);
            ctx.rec.metric(&format!("{name}.hfp8_speedup"), f16.step_time_s / h8.step_time_s);
            ctx.rec.metric(&format!("{name}.hfp8_sustained_tflops"), h8.sustained_tflops);
        }
        ctx.rec.metric("hfp8_speedup.mean", mean(&speedups));
        ctx.rec.metric("hfp8_sustained_tflops.mean", mean(&tflops));
        println!("\nnote: absolute sustained TFLOPS run higher than the paper's testbed —");
        println!("our bandwidth-centric model omits silicon-level stalls; ordering and");
        println!("saturation behaviour match (see EXPERIMENTS.md).");
        Ok(())
    })
}
