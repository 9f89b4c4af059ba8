//! Regenerates Fig 18: (a) INT4 inference speedup as cores scale 1→32 with
//! fixed external bandwidth, and (b) HFP8 training speedup as chips scale
//! 1→32 at fixed minibatch and link bandwidth.

use rapid_bench::{run, section};
use rapid_arch::precision::Precision;
use rapid_model::scaling::{chip_sweep, core_sweep};
use rapid_workloads::suite::benchmark_suite;

fn main() -> std::process::ExitCode {
    run("fig18_scaling", |ctx| {
        let counts = [1u32, 2, 4, 8, 16, 32];

        section("Fig 18(a) — INT4 batch-1 inference speedup vs core count (DDR fixed)");
        print!("{:<12}", "benchmark");
        for c in counts {
            print!(" {:>8}", format!("{c} cores"));
        }
        println!();
        for net in benchmark_suite() {
            let pts = core_sweep(&net, counts, Precision::Int4);
            let speedups: Vec<f64> = pts.iter().map(|p| pts[0].latency_s / p.latency_s).collect();
            print!("{:<12}", net.name);
            for s in &speedups {
                print!(" {s:>7.2}x");
            }
            if let Some(last) = speedups.last() {
                ctx.rec.metric(&format!("{}.inference_speedup_32core", net.name), *last);
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
            let pts = chip_sweep(&net, counts, 512);
            let speedups: Vec<f64> = pts.iter().map(|p| p.throughput / pts[0].throughput).collect();
            print!("{:<12}", net.name);
            for s in &speedups {
                print!(" {s:>7.2}x");
            }
            if let Some(last) = speedups.last() {
                ctx.rec.metric(&format!("{}.training_speedup_32chip", net.name), *last);
            }
            println!();
        }
        println!("paper: data-parallel scaling; HFP8 reduces the update-phase weight broadcast");
        println!("to 8-bit payloads, so communication-heavy models scale further than at FP16.");
        Ok(())
    })
}
