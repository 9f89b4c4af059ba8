//! Regenerates Fig 17: the breakdown of compute cycles for INT4 inference
//! into Conv/GEMM, Conv/GEMM overheads, quantization and auxiliary
//! operations.

use rapid_arch::precision::Precision;
use rapid_bench::{compare, infer, run, section, suite_map};

fn main() -> std::process::ExitCode {
    run("fig17_breakdown", |ctx| {
        section("Fig 17 — INT4 inference compute-cycle breakdown, 4-core chip");
        println!(
            "{:<12} {:>10} {:>11} {:>10} {:>10}",
            "benchmark", "conv/gemm", "overheads", "quantize", "auxiliary"
        );
        let rows = suite_map(|net| infer(net, Precision::Int4, None));
        let mut sums = [0.0f64; 4];
        for (name, r) in &rows {
            let f = r.breakdown.fractions();
            for (s, v) in sums.iter_mut().zip(f) {
                *s += v;
            }
            ctx.rec.metric(&format!("{name}.gemm_frac"), f[0]);
            ctx.rec.metric(&format!("{name}.overhead_frac"), f[1]);
            ctx.rec.metric(&format!("{name}.quant_frac"), f[2]);
            ctx.rec.metric(&format!("{name}.aux_frac"), f[3]);
            println!(
                "{:<12} {:>9.0}% {:>10.0}% {:>9.0}% {:>9.0}%",
                name,
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0
            );
        }
        let n = rows.len() as f64;
        println!();
        compare("avg Conv/GEMM", format!("{:.0}%", sums[0] / n * 100.0), "50%");
        compare("avg Conv/GEMM overheads", format!("{:.0}%", sums[1] / n * 100.0), "14%");
        compare("avg quantization", format!("{:.0}%", sums[2] / n * 100.0), "17%");
        compare("avg auxiliary ops", format!("{:.0}%", sums[3] / n * 100.0), "19%");
        println!("\npaper's qualitative observations to check above:");
        println!("  - inception3/4, tiny-yolov3 and LSTMs show large Conv/GEMM overheads");
        println!("  - large-activation CNNs (vgg16, yolov3) show visible quantization cost");
        println!("  - mobile networks (mobilenetv1, tiny-yolov3) are auxiliary-heavy");
        ctx.rec.metric("gemm_frac.mean", sums[0] / n);
        ctx.rec.metric("overhead_frac.mean", sums[1] / n);
        ctx.rec.metric("quant_frac.mean", sums[2] / n);
        ctx.rec.metric("aux_frac.mean", sums[3] / n);
        Ok(())
    })
}
