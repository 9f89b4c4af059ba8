//! Integration: the 4-chip × 32-core training system across the suite
//! (Fig 15) plus the chip-scaling claims (Fig 18b).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use rapid::arch::geometry::SystemConfig;
use rapid::arch::precision::Precision;
use rapid::model::training::{evaluate_training, TrainingResult};
use rapid::model::scaling::chip_sweep;
use rapid::workloads::graph::Network;
use rapid::workloads::suite::benchmark_suite;

fn run(net: &Network, p: Precision) -> TrainingResult {
    let sys = SystemConfig::training_4x32();
    evaluate_training(net, &sys, p, 512)
}

#[test]
fn fig15_hfp8_training_speedups() {
    // Paper: HFP8 over FP16 ranges 1.1×–2× (average 1.4×).
    let mut speedups = Vec::new();
    for net in benchmark_suite() {
        let fp16 = run(&net, Precision::Fp16);
        let hfp8 = run(&net, Precision::Hfp8);
        let s = fp16.step_time_s / hfp8.step_time_s;
        assert!((1.05..=2.0).contains(&s), "{}: hfp8 speedup {s}", net.name);
        speedups.push(s);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!((1.25..=1.85).contains(&avg), "average hfp8 speedup {avg} (paper 1.4)");
}

#[test]
fn sustained_tflops_band() {
    // Paper abstract: "a sustained 102 - 588 (average 203) TFLOPS". Our
    // analytical substrate is more optimistic in absolute terms (see
    // EXPERIMENTS.md); the *shape* requirements here are: nothing exceeds
    // the 786-TFLOPS peak, the spread covers several-x, and the
    // memory/aux-bound benchmarks land at the bottom.
    let mut results = Vec::new();
    for net in benchmark_suite() {
        let r = run(&net, Precision::Hfp8);
        assert!(r.sustained_tflops < 786.0, "{}: {}", net.name, r.sustained_tflops);
        assert!(r.sustained_tflops > 50.0, "{}: {}", net.name, r.sustained_tflops);
        results.push((net.name.clone(), r.sustained_tflops));
    }
    let min = results.iter().map(|r| r.1).fold(f64::MAX, f64::min);
    let max = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    assert!(max / min > 3.0, "spread {min}..{max} too narrow");
    // MobileNet (lean convolutions) must be near the bottom.
    let mob = results.iter().find(|r| r.0 == "mobilenetv1").expect("present").1;
    assert!(mob < min * 1.5, "mobilenet {mob} should be near the minimum {min}");
}

#[test]
fn training_slower_than_inference_per_input() {
    // Paper §V-C: training speedups are smaller than inference because of
    // gradient communication and activation stashing.
    for name in ["resnet50", "vgg16"] {
        let net = benchmark_suite().into_iter().find(|n| n.name == name).expect("known");
        let r = run(&net, Precision::Hfp8);
        assert!(r.comm_s > 0.0, "{name}: communication must be visible");
        assert!(r.memory_s > 0.0, "{name}: stash traffic must be visible");
    }
}

#[test]
fn fig18b_chip_scaling() {
    let counts = [1u32, 2, 4, 8, 16, 32];
    // ResNet50 scales but sublinearly.
    let net = benchmark_suite().into_iter().find(|n| n.name == "resnet50").expect("known");
    let speedups = |net| {
        let pts = chip_sweep(net, counts, 512);
        pts.iter().map(|p| p.throughput / pts[0].throughput).collect::<Vec<f64>>()
    };
    let s = speedups(&net);
    for w in s.windows(2) {
        assert!(w[1] >= w[0] * 0.9, "scaling regressed: {s:?}");
    }
    assert!(s[5] > 3.0 && s[5] < 32.0, "{}", s[5]);
    // The 138M-weight VGG16 saturates harder (update-phase exchange).
    let vgg = benchmark_suite().into_iter().find(|n| n.name == "vgg16").expect("known");
    let v = speedups(&vgg);
    assert!(v[5] < s[5], "vgg {} vs resnet {}", v[5], s[5]);
}

#[test]
fn hfp8_halves_weight_broadcast() {
    // §V-F: HFP8 communicates 8-bit weights in the update phase.
    let net = benchmark_suite().into_iter().find(|n| n.name == "vgg16").expect("known");
    let fp16 = run(&net, Precision::Fp16);
    let hfp8 = run(&net, Precision::Hfp8);
    assert!(hfp8.comm_s < fp16.comm_s);
    assert!(hfp8.comm_s > fp16.comm_s * 0.6, "only the broadcast half shrinks");
}
