//! Quickstart: compile ResNet50 for INT4 inference on the 4-core RaPiD
//! chip and print the end-to-end estimate alongside the FP16 baseline.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail loudly by design

use rapid::arch::geometry::ChipConfig;
use rapid::arch::precision::Precision;
use rapid::compiler::passes::compile;
use rapid::model::inference::evaluate_inference;
use rapid::workloads::suite::benchmark;

fn main() {
    let net = benchmark("resnet50").expect("resnet50 is in the suite");
    let chip = ChipConfig::rapid_4core();

    println!("RaPiD 4-core chip @ {:.1} GHz, DDR {:.0} GB/s", chip.freq_ghz, chip.mem_bw_gbps);
    println!(
        "{}: {:.1} GMACs/inference, {:.1} M parameters\n",
        net.name,
        net.total_macs() as f64 / 1e9,
        net.total_weights() as f64 / 1e6
    );

    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10}",
        "precision", "latency", "inf/s", "TOPS", "TOPS/W"
    );
    let mut fp16_latency = None;
    for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
        let plan = compile(&net, &chip, p);
        let r = evaluate_inference(&net, &plan, &chip, 1);
        let base = *fp16_latency.get_or_insert(r.latency_s);
        println!(
            "{:<10} {:>9.0} µs {:>12.0} {:>10.1} {:>10.2}   ({:.2}x vs fp16)",
            p.to_string(),
            r.latency_s * 1e6,
            r.throughput_per_s,
            r.sustained_tops,
            r.tops_per_w,
            base / r.latency_s
        );
    }

    let plan = compile(&net, &chip, Precision::Int4);
    let r = evaluate_inference(&net, &plan, &chip, 1);
    let f = r.breakdown.fractions();
    println!(
        "\nINT4 compute-cycle breakdown (Fig 17 categories):\n  conv/gemm {:.0}%  overheads {:.0}%  quantization {:.0}%  auxiliary {:.0}%",
        f[0] * 100.0,
        f[1] * 100.0,
        f[2] * 100.0,
        f[3] * 100.0
    );
}
