//! Integration: compile and evaluate the whole 11-benchmark suite for
//! batch-1 inference and check the paper's headline bands (Figs 13, 14, 17).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use rapid::arch::geometry::ChipConfig;
use rapid::arch::precision::Precision;
use rapid::compiler::passes::compile;
use rapid::model::inference::{evaluate_inference, InferenceResult};
use rapid::workloads::graph::Network;
use rapid::workloads::suite::benchmark_suite;

fn evaluate(net: &Network, p: Precision) -> InferenceResult {
    let chip = ChipConfig::rapid_4core();
    let plan = compile(net, &chip, p);
    evaluate_inference(net, &plan, &chip, 1)
}

#[test]
fn fig13_int4_speedups_over_fp16() {
    // Paper: 1.4×–4.2× (average 2.8×). We accept a modestly wider band.
    let mut speedups = Vec::new();
    for net in benchmark_suite() {
        let fp16 = evaluate(&net, Precision::Fp16);
        let int4 = evaluate(&net, Precision::Int4);
        let s = fp16.latency_s / int4.latency_s;
        assert!((1.2..=5.2).contains(&s), "{}: int4 speedup {s}", net.name);
        speedups.push(s);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!((2.2..=3.8).contains(&avg), "average int4 speedup {avg} (paper 2.8)");
}

#[test]
fn fig13_fp8_speedups_over_fp16() {
    // Paper: 1.2×–1.9× (average 1.55×).
    let mut speedups = Vec::new();
    for net in benchmark_suite() {
        let fp16 = evaluate(&net, Precision::Fp16);
        let fp8 = evaluate(&net, Precision::Hfp8);
        let s = fp16.latency_s / fp8.latency_s;
        assert!((1.1..=2.0).contains(&s), "{}: fp8 speedup {s}", net.name);
        speedups.push(s);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!((1.3..=1.9).contains(&avg), "average fp8 speedup {avg} (paper 1.55)");
}

#[test]
fn fig14_sustained_efficiency_bands() {
    // Paper: INT4 3–13.5 TOPS/W (avg 7), FP8 1.4–4.68 (avg 3.16), at the
    // peak-efficiency operating point (nominal voltage, 1.0 GHz).
    let mut chip = ChipConfig::rapid_4core();
    chip.freq_ghz = 1.0; // nominal-voltage point for efficiency studies
    let mut int4 = Vec::new();
    for net in benchmark_suite() {
        let plan = compile(&net, &chip, Precision::Int4);
        let r = evaluate_inference(&net, &plan, &chip, 1);
        assert!(
            (0.4..=16.5).contains(&r.tops_per_w),
            "{}: int4 {} TOPS/W",
            net.name,
            r.tops_per_w
        );
        int4.push(r.tops_per_w);
    }
    let avg = int4.iter().sum::<f64>() / int4.len() as f64;
    assert!((4.0..=11.0).contains(&avg), "int4 avg {avg} TOPS/W (paper 7)");
    // The best network must stay below the chip's peak efficiency.
    let max = int4.iter().cloned().fold(0.0, f64::max);
    assert!(max < 16.5, "sustained {max} cannot beat peak 16.5");
}

#[test]
fn fig17_breakdown_shape() {
    // Paper averages: conv 50%, overheads 14%, quantization 17%, aux 19%.
    let mut sums = [0.0f64; 4];
    let suite = benchmark_suite();
    for net in &suite {
        let r = evaluate(net, Precision::Int4);
        let f = r.breakdown.fractions();
        for (s, v) in sums.iter_mut().zip(f) {
            *s += v;
        }
    }
    let n = suite.len() as f64;
    let avg: Vec<f64> = sums.iter().map(|s| s / n).collect();
    assert!((0.30..0.65).contains(&avg[0]), "conv fraction {avg:?}");
    assert!((0.08..0.40).contains(&avg[1]), "overhead fraction {avg:?}");
    assert!((0.05..0.30).contains(&avg[2]), "quant fraction {avg:?}");
    assert!((0.08..0.30).contains(&avg[3]), "aux fraction {avg:?}");
}

#[test]
fn compute_heavy_benchmarks_speed_up_most() {
    // Paper: "image classification and object detection benchmarks with
    // compute-heavy convolution layers achieve the best improvement, while
    // mobile networks ... benefit the least."
    let suite = benchmark_suite();
    let speedup = |name: &str| {
        let net = suite.iter().find(|n| n.name == name).expect("known");
        evaluate(net, Precision::Fp16).latency_s / evaluate(net, Precision::Int4).latency_s
    };
    let mobile = speedup("mobilenetv1");
    for heavy in ["vgg16", "yolov3", "inception4"] {
        assert!(speedup(heavy) > mobile + 0.5, "{heavy} must beat mobilenet clearly");
    }
}

#[test]
fn absolute_latencies_are_plausible() {
    // Batch-1 INT4 latencies on a 96-TOPS chip should land in the
    // tens-of-µs .. few-ms range across the suite.
    for net in benchmark_suite() {
        let r = evaluate(&net, Precision::Int4);
        assert!(
            r.latency_s > 10e-6 && r.latency_s < 20e-3,
            "{}: {} s",
            net.name,
            r.latency_s
        );
    }
}
