//! Regenerates Fig 16: (a) the clock-edge-skip throttle rate as a function
//! of weight sparsity derived from the power characterization, and (b) the
//! per-benchmark speedup of the compiler-guided sparsity-aware schedule
//! over a dense-budget baseline (pruned FP16 models).

use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::ThrottleModel;
use rapid_bench::{compare, mean, min_max, run, section};
use rapid_model::cost::ModelConfig;
use rapid_model::throttle::throttling_study;
use rapid_workloads::suite::{apply_pruning_profile, pruned_study_suite};

fn main() -> std::process::ExitCode {
    run("fig16_throttling", |ctx| {
        let t = ThrottleModel::rapid_default();
        section("Fig 16(a) — frequency-throttling rate vs weight sparsity");
        println!("{:>10} {:>15} {:>12}", "sparsity", "throttle rate", "f_eff (GHz)");
        let mut s = 0.0;
        while s <= 0.901 {
            println!(
                "{:>9.0}% {:>14.1}% {:>12.2}",
                s * 100.0,
                t.throttle_rate(s) * 100.0,
                t.effective_frequency_ghz(s)
            );
            s += 0.1;
        }

        section("Fig 16(b) — pruned-model speedup from sparsity-aware throttling");
        println!("{:<12} {:>12} {:>10}", "benchmark", "sparsity", "speedup");
        let chip = ChipConfig::rapid_4core();
        let cfg = ModelConfig::default();
        let mut speedups = Vec::new();
        let mut sparsities = Vec::new();
        for mut net in pruned_study_suite() {
            apply_pruning_profile(&mut net);
            let study = throttling_study(&net, &chip, &t, &cfg);
            sparsities.push(study.avg_sparsity);
            speedups.push(study.speedup());
            ctx.rec.metric(&format!("{}.sparsity", study.network), study.avg_sparsity);
            ctx.rec.metric(&format!("{}.speedup", study.network), study.speedup());
            println!(
                "{:<12} {:>11.0}% {:>9.2}x",
                study.network,
                study.avg_sparsity * 100.0,
                study.speedup()
            );
        }
        println!();
        let (slo, shi) = min_max(&sparsities);
        let (lo, hi) = min_max(&speedups);
        compare(
            "average weight sparsity range",
            format!("{:.0}% - {:.0}%", slo * 100.0, shi * 100.0),
            "50% - 80%",
        );
        compare(
            "throttling speedup",
            format!("{lo:.2}x - {hi:.2}x (avg {:.2}x)", mean(&speedups)),
            "1.1x - 1.7x (avg 1.3x)",
        );
        ctx.rec.metric("throttle_speedup.mean", mean(&speedups));
        ctx.rec.metric("sparsity.mean", mean(&sparsities));
        Ok(())
    })
}
