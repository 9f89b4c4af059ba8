//! Regenerates Fig 14: sustained compute efficiency (TOPS/W) at FP8 and
//! INT4 with the improvement over the FP16 baseline. Evaluated at the
//! nominal-voltage operating point (1.0 GHz), where the paper quotes peak
//! efficiency.

use rapid_arch::precision::Precision;
use rapid_bench::{compare, infer, mean, min_max, run, section, suite_map};

fn main() -> std::process::ExitCode {
    run("fig14_efficiency", |ctx| {
        section("Fig 14 — sustained TOPS/W, 4-core chip at nominal voltage (1.0 GHz)");
        println!(
            "{:<12} {:>10} {:>10} {:>10} | {:>9} {:>9}",
            "benchmark", "fp16 T/W", "fp8 T/W", "int4 T/W", "fp8 gain", "int4 gain"
        );
        let f = Some(1.0);
        let rows = suite_map(|net| {
            (
                infer(net, Precision::Fp16, f),
                infer(net, Precision::Hfp8, f),
                infer(net, Precision::Int4, f),
            )
        });
        let mut fp8 = Vec::new();
        let mut int4 = Vec::new();
        let mut g8 = Vec::new();
        let mut g4 = Vec::new();
        for (name, (r16, r8, r4)) in &rows {
            fp8.push(r8.tops_per_w);
            int4.push(r4.tops_per_w);
            g8.push(r8.tops_per_w / r16.tops_per_w);
            g4.push(r4.tops_per_w / r16.tops_per_w);
            println!(
                "{:<12} {:>10.2} {:>10.2} {:>10.2} | {:>8.2}x {:>8.2}x",
                name,
                r16.tops_per_w,
                r8.tops_per_w,
                r4.tops_per_w,
                r8.tops_per_w / r16.tops_per_w,
                r4.tops_per_w / r16.tops_per_w
            );
        }
        println!();
        let (lo8, hi8) = min_max(&fp8);
        let (lo4, hi4) = min_max(&int4);
        compare(
            "FP8 sustained TOPS/W",
            format!("{lo8:.2} - {hi8:.2} (avg {:.2})", mean(&fp8)),
            "1.4 - 4.68 (avg 3.16)",
        );
        compare(
            "INT4 sustained TOPS/W",
            format!("{lo4:.2} - {hi4:.2} (avg {:.2})", mean(&int4)),
            "3 - 13.5 (avg 7)",
        );
        compare("FP8 efficiency gain vs FP16", format!("avg {:.2}x", mean(&g8)), "1.6x");
        compare("INT4 efficiency gain vs FP16", format!("avg {:.2}x", mean(&g4)), "3.6x");
        for (name, (_, r8, r4)) in &rows {
            ctx.rec.metric(&format!("{name}.fp8_tops_per_w"), r8.tops_per_w);
            ctx.rec.metric(&format!("{name}.int4_tops_per_w"), r4.tops_per_w);
        }
        ctx.rec.metric("fp8_tops_per_w.mean", mean(&fp8));
        ctx.rec.metric("int4_tops_per_w.mean", mean(&int4));
        ctx.rec.metric("fp8_gain.mean", mean(&g8));
        ctx.rec.metric("int4_gain.mean", mean(&g4));
        Ok(())
    })
}
