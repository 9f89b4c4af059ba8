//! Per-component energy breakdown for batch-1 INT4 inference — the
//! decomposition behind the Fig 14 sustained-efficiency numbers (MPE vs
//! SFU vs scratchpads vs DRAM vs leakage), plus the mixed-precision
//! latency frontier from the compiler's design-space exploration (§IV-B).

use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_bench::{infer, run, section, suite_map};
use rapid_compiler::dse::mixed_precision_frontier;
use rapid_model::inference::evaluate_inference;
use rapid_workloads::suite::benchmark;

fn main() -> std::process::ExitCode {
    run("energy_breakdown", |ctx| {
        section("energy breakdown — INT4 batch-1 inference, 4-core chip (µJ/inference)");
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>9}",
            "benchmark", "MPE", "idle", "SFU", "SRAM", "DRAM", "static", "total µJ"
        );
        let rows = suite_map(|net| infer(net, Precision::Int4, None));
        for (name, r) in &rows {
            let e = &r.energy;
            println!(
                "{:<12} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} | {:>9.0}",
                name,
                e.mpe_j * 1e6,
                e.mpe_idle_j * 1e6,
                e.sfu_j * 1e6,
                e.sram_j * 1e6,
                e.dram_j * 1e6,
                e.static_j * 1e6,
                e.total() * 1e6
            );
            ctx.rec.metric(&format!("{name}.mpe_uj"), e.mpe_j * 1e6);
            ctx.rec.metric(&format!("{name}.dram_uj"), e.dram_j * 1e6);
            ctx.rec.metric(&format!("{name}.total_uj"), e.total() * 1e6);
        }
        println!("\nDRAM dominates the weight-heavy models (vgg16, lstm); MPE dynamic energy");
        println!("dominates the compute-dense detectors — precision scaling attacks both");
        println!("(smaller operands shrink the DRAM term, cheaper MACs shrink the MPE term).");

        section("mixed-precision frontier — ResNet50, INT4 coverage vs latency (§IV-B DSE)");
        let net = benchmark("resnet50").ok_or("unknown benchmark 'resnet50'")?;
        let chip = ChipConfig::rapid_4core();
        println!("{:>10} {:>10} {:>12} {:>10}", "coverage", "layers", "latency µs", "speedup");
        let mut base = None;
        for pt in mixed_precision_frontier(
            &net,
            &chip,
            Precision::Int4,
            &[0.0, 0.25, 0.5, 0.75, 0.9, 1.0],
        ) {
            let r = evaluate_inference(&net, &pt.plan, &chip, 1);
            let b = *base.get_or_insert(r.latency_s);
            println!(
                "{:>9.0}% {:>10} {:>12.0} {:>9.2}x",
                pt.quantized_mac_fraction * 100.0,
                pt.quantized_layers,
                r.latency_s * 1e6,
                b / r.latency_s
            );
            ctx.rec.metric(
                &format!("resnet50.frontier.cov{:.0}.speedup", pt.quantized_mac_fraction * 100.0),
                b / r.latency_s,
            );
        }
        println!("\nlatency falls almost linearly with quantized-MAC coverage (the per-MAC");
        println!("benefit is uniform across ResNet's convolutions), so what matters is MAC");
        println!("coverage, not layer count: the accuracy-critical first/last layers hold");
        println!("few MACs, which is why the paper's rule of keeping them at FP16 costs");
        println!("almost nothing (100% of quantizable MACs still excludes those layers).");
        Ok(())
    })
}
