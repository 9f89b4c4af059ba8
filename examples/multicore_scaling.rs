//! Core- and chip-count scaling (paper Fig 18): INT4 inference as cores
//! scale 1→32 with fixed DDR bandwidth, and HFP8 training as chips scale
//! 1→32 at a fixed global minibatch.
//!
//! Run with: `cargo run --release --example multicore_scaling`

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail loudly by design

use rapid::arch::precision::Precision;
use rapid::model::scaling::{chip_sweep, core_sweep};
use rapid::workloads::suite::benchmark;

fn main() {
    let counts = [1u32, 2, 4, 8, 16, 32];

    println!("Fig 18(a): INT4 batch-1 inference speedup vs cores (DDR fixed at 200 GB/s)");
    print!("{:<12}", "benchmark");
    for c in counts {
        print!(" {:>7}", format!("{c}c"));
    }
    println!();
    for name in ["vgg16", "resnet50", "yolov3", "mobilenetv1", "lstm"] {
        let net = benchmark(name).expect("known benchmark");
        let pts = core_sweep(&net, counts, Precision::Int4);
        print!("{name:<12}");
        for p in &pts {
            print!(" {:>6.2}x", pts[0].latency_s / p.latency_s);
        }
        println!();
    }

    println!("\nFig 18(b): HFP8 training speedup vs chips (minibatch 512, links 128 GB/s)");
    print!("{:<12}", "benchmark");
    for c in counts {
        print!(" {:>7}", format!("{c}ch"));
    }
    println!();
    for name in ["vgg16", "resnet50", "bert", "lstm"] {
        let net = benchmark(name).expect("known benchmark");
        let pts = chip_sweep(&net, counts, 512);
        print!("{name:<12}");
        for p in &pts {
            print!(" {:>6.2}x", p.throughput / pts[0].throughput);
        }
        println!();
    }
    println!("\n(compute-heavy nets keep scaling; aux/memory/communication-bound nets saturate)");
}
