//! Regenerates Fig 18: (a) INT4 inference speedup as cores scale 1→32 with
//! fixed external bandwidth, and (b) HFP8 training speedup as chips scale
//! 1→32 at fixed minibatch and link bandwidth.

use rapid_bench::{run, section};
use rapid_model::cost::ModelConfig;
use rapid_model::scaling::{inference_core_scaling, training_chip_scaling};
use rapid_workloads::suite::benchmark_suite;

fn main() -> std::process::ExitCode {
    run("fig18_scaling", |ctx| {
        let cfg = ModelConfig::default();
        let counts = [1u32, 2, 4, 8, 16, 32];

        section("Fig 18(a) — INT4 batch-1 inference speedup vs core count (DDR fixed)");
        print!("{:<12}", "benchmark");
        for c in counts {
            print!(" {:>8}", format!("{c} cores"));
        }
        println!();
        for net in benchmark_suite() {
            let pts = inference_core_scaling(&net, &counts, &cfg);
            print!("{:<12}", net.name);
            for p in &pts {
                print!(" {:>7.2}x", p.speedup);
            }
            if let Some(last) = pts.last() {
                ctx.rec.metric(&format!("{}.inference_speedup_32core", net.name), last.speedup);
            }
            println!();
        }
        println!("paper: compute-intensive nets (vgg16, resnet50, yolov3, ssd300) keep improving");
        println!("to 32 cores; aux-dominated (mobilenetv1) and memory-stalled nets saturate.");

        section("Fig 18(b) — HFP8 training speedup vs chip count (minibatch 512, 128 GB/s links)");
        print!("{:<12}", "benchmark");
        for c in counts {
            print!(" {:>8}", format!("{c} chips"));
        }
        println!();
        for net in benchmark_suite() {
            let pts = training_chip_scaling(&net, &counts, 512, &cfg);
            print!("{:<12}", net.name);
            for p in &pts {
                print!(" {:>7.2}x", p.speedup);
            }
            if let Some(last) = pts.last() {
                ctx.rec.metric(&format!("{}.training_speedup_32chip", net.name), last.speedup);
            }
            println!();
        }
        println!("paper: data-parallel scaling; HFP8 reduces the update-phase weight broadcast");
        println!("to 8-bit payloads, so communication-heavy models scale further than at FP16.");
        Ok(())
    })
}
