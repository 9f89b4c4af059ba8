//! Regenerates Fig 13: classifications per second (batch 1) on the 4-core
//! chip, with FP8 and INT4 speedups over the FP16-on-RaPiD baseline.

use rapid_arch::precision::Precision;
use rapid_bench::{compare, infer, mean, min_max, run, section, suite_map};

fn main() -> std::process::ExitCode {
    run("fig13_inference", |ctx| {
        section("Fig 13 — batch-1 inference, 4-core RaPiD chip, DDR 200 GB/s");
        println!(
            "{:<12} {:>11} {:>11} {:>11} {:>11} | {:>9} {:>9}",
            "benchmark",
            "fp16 inf/s",
            "fp8 inf/s",
            "int4 inf/s",
            "int4 µs",
            "fp8 spdup",
            "int4 spdup"
        );

        let rows = suite_map(|net| {
            let fp16 = infer(net, Precision::Fp16, None);
            let fp8 = infer(net, Precision::Hfp8, None);
            let int4 = infer(net, Precision::Int4, None);
            (fp16, fp8, int4)
        });

        let mut s8 = Vec::new();
        let mut s4 = Vec::new();
        for (name, (fp16, fp8, int4)) in &rows {
            let sp8 = fp16.latency_s / fp8.latency_s;
            let sp4 = fp16.latency_s / int4.latency_s;
            s8.push(sp8);
            s4.push(sp4);
            ctx.rec.metric(&format!("{name}.int4_inf_per_s"), int4.throughput_per_s);
            ctx.rec.metric(&format!("{name}.fp8_speedup"), sp8);
            ctx.rec.metric(&format!("{name}.int4_speedup"), sp4);
            println!(
                "{:<12} {:>11.0} {:>11.0} {:>11.0} {:>11.0} | {:>8.2}x {:>8.2}x",
                name,
                fp16.throughput_per_s,
                fp8.throughput_per_s,
                int4.throughput_per_s,
                int4.latency_s * 1e6,
                sp8,
                sp4
            );
        }
        let (lo8, hi8) = min_max(&s8);
        let (lo4, hi4) = min_max(&s4);
        println!();
        compare(
            "FP8 speedup over FP16",
            format!("{lo8:.2}x - {hi8:.2}x (avg {:.2}x)", mean(&s8)),
            "1.2x - 1.9x (avg 1.55x)",
        );
        compare(
            "INT4 speedup over FP16",
            format!("{lo4:.2}x - {hi4:.2}x (avg {:.2}x)", mean(&s4)),
            "1.4x - 4.2x (avg 2.8x)",
        );
        ctx.rec.metric("fp8_speedup.mean", mean(&s8));
        ctx.rec.metric("int4_speedup.mean", mean(&s4));
        Ok(())
    })
}
