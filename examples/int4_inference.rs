//! Batch-1 inference across the full 11-benchmark suite at FP16, FP8 and
//! INT4 — the study behind Figs 13 and 14.
//!
//! Run with: `cargo run --release --example int4_inference`

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail loudly by design

use rapid::arch::geometry::ChipConfig;
use rapid::arch::precision::Precision;
use rapid::compiler::passes::compile;
use rapid::model::inference::{evaluate_inference, InferenceResult};
use rapid::workloads::suite::benchmark_suite;

fn run(net_name: &str, p: Precision, chip: &ChipConfig) -> InferenceResult {
    let net = benchmark_suite().into_iter().find(|n| n.name == net_name).expect("known benchmark");
    let plan = compile(&net, chip, p);
    evaluate_inference(&net, &plan, chip, 1)
}

fn main() {
    let chip = ChipConfig::rapid_4core();
    println!("4-core RaPiD chip, batch size 1 (paper §V-B)\n");
    println!(
        "{:<12} {:>11} {:>9} {:>9} | {:>8} {:>8} | {:>8} {:>8}",
        "benchmark", "fp16 µs", "fp8 µs", "int4 µs", "fp8 spd", "int4 spd", "fp8 T/W", "int4 T/W"
    );
    let mut fp8_speedups = Vec::new();
    let mut int4_speedups = Vec::new();
    for net in benchmark_suite() {
        let fp16 = run(&net.name, Precision::Fp16, &chip);
        let fp8 = run(&net.name, Precision::Hfp8, &chip);
        let int4 = run(&net.name, Precision::Int4, &chip);
        let s8 = fp16.latency_s / fp8.latency_s;
        let s4 = fp16.latency_s / int4.latency_s;
        fp8_speedups.push(s8);
        int4_speedups.push(s4);
        println!(
            "{:<12} {:>11.0} {:>9.0} {:>9.0} | {:>8.2} {:>8.2} | {:>8.2} {:>8.2}",
            net.name,
            fp16.latency_s * 1e6,
            fp8.latency_s * 1e6,
            int4.latency_s * 1e6,
            s8,
            s4,
            fp8.tops_per_w,
            int4.tops_per_w
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nFP8 speedup avg {:.2} (paper: 1.2–1.9, avg 1.55); INT4 speedup avg {:.2} (paper: 1.4–4.2, avg 2.8)",
        avg(&fp8_speedups),
        avg(&int4_speedups)
    );
}
