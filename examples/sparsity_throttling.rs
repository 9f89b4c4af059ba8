//! Sparsity-aware frequency throttling (paper §III-C / Fig 16): derive the
//! throttle-rate curve from the power characterization, then apply the
//! compiler-guided schedule to the pruned benchmark suite.
//!
//! Run with: `cargo run --release --example sparsity_throttling`

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail loudly by design

use rapid::arch::power::{effective_frequency_ghz, throttle_rate, BUDGET_FRACTION};
use rapid::model::throttle::throttling_study;
use rapid::workloads::suite::{apply_pruning_profile, pruned_study_suite};

fn main() {
    println!("Fig 16(a): throttle rate vs weight sparsity (power budget {:.0}% of dense f_max)", BUDGET_FRACTION * 100.0);
    println!("{:>10} {:>14} {:>12}", "sparsity", "throttle rate", "f_eff GHz");
    for s in [0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        println!(
            "{:>9.0}% {:>13.1}% {:>12.2}",
            s * 100.0,
            throttle_rate(s) * 100.0,
            effective_frequency_ghz(s)
        );
    }

    println!("\nFig 16(b): pruned-model speedup from sparsity-aware throttling");
    println!("{:>12} {:>12} {:>10}", "benchmark", "sparsity", "speedup");
    let mut speedups = Vec::new();
    for mut net in pruned_study_suite() {
        apply_pruning_profile(&mut net);
        let study = throttling_study(&net);
        speedups.push(study.speedup());
        println!(
            "{:>12} {:>11.0}% {:>9.2}x",
            study.network,
            study.avg_sparsity * 100.0,
            study.speedup()
        );
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("\naverage speedup {avg:.2}x (paper: 1.1x–1.7x, average 1.3x)");
}
