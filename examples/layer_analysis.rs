//! Per-layer cost analysis: dump the analytic model's layer-resolution
//! view of one benchmark as CSV (pipe to a file for spreadsheet analysis)
//! and print the worst offenders. The rows come from the same per-layer
//! pricing `evaluate_inference` folds, so their cycle columns sum exactly
//! to its Fig 17 breakdown.
//!
//! Run with: `cargo run --release --example layer_analysis [benchmark]`

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail loudly by design

use rapid::arch::geometry::ChipConfig;
use rapid::arch::precision::Precision;
use rapid::compiler::passes::compile;
use rapid::model::report::{csv_header, layer_reports};
use rapid::workloads::suite::benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "inception3".to_string());
    let net = benchmark(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name}; try resnet50, inception3, bert, ...");
        std::process::exit(1);
    });
    let chip = ChipConfig::rapid_4core();
    let plan = compile(&net, &chip, Precision::Int4);
    let reports = layer_reports(&net, &plan, &chip, 1);

    println!("{}", csv_header());
    for r in &reports {
        println!("{}", r.csv_row());
    }

    let mut by_cost: Vec<_> = reports.iter().collect();
    by_cost.sort_by(|a, b| b.total_cycles().partial_cmp(&a.total_cycles()).expect("finite"));
    eprintln!("\n{name}: top-5 most expensive layers (INT4, batch 1):");
    for r in by_cost.iter().take(5) {
        eprintln!(
            "  {:<24} {:>9.0} cycles  util {:>5.1}%  {}{}",
            r.name,
            r.total_cycles(),
            r.utilization * 100.0,
            r.precision,
            if r.memory_bound { "  [memory-bound]" } else { "" }
        );
    }
    let low_util: usize =
        reports.iter().filter(|r| r.macs > 0 && r.utilization < 0.3).count();
    eprintln!("layers below 30% MPE utilization: {low_util}");
}
