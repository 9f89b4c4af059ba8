//! Regenerates Fig 4(c): the area/power accounting of the decoupled
//! FPU/FXU pipelines that justified double-pumping the INT4/INT2 engines.

use rapid_arch::area::MpeAreaModel;
use rapid_arch::geometry::MpeConfig;
use rapid_arch::power::EnergyTable;
use rapid_arch::precision::Precision;
use rapid_bench::{compare, run, section};

fn main() -> std::process::ExitCode {
    run("fig4c_area_power", |ctx| {
        let m = MpeAreaModel::rapid();
        let e = EnergyTable::rapid_7nm();
        let mpe = MpeConfig::default();

        section("Fig 4(c) — MPE area/power accounting (FPU pipeline = 1.0)");
        compare(
            "INT pipeline area overhead",
            format!("{:.0}%", (m.total_relative_area() - 1.0) * 100.0),
            "~16%",
        );
        compare("single INT4 engine power vs FP16 pipeline", format!("{:.2}x", m.int4_engine_power), "0.3x");
        compare(
            "doubled INT4 engines power vs FP16 pipeline",
            format!("{:.2}x", m.doubled_int4_power()),
            "0.6x (enables double pumping)",
        );

        section("derived per-MPE throughput (consequence of the doubling)");
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2] {
            println!(
                "  {p}: {:>3} MACs/cycle, {:>5.1} LRF-resident channels, {:.4} pJ/op at 0.55 V",
                mpe.macs_per_cycle(p),
                mpe.lrf_ci_depth(p),
                e.mpe_op_pj(p)
            );
        }
        println!("\nenergy/op ratio int4:fp16 = {:.2} (8x rate at ~0.85x pipeline power)",
            e.mpe_int4_op_pj / e.mpe_fp16_op_pj);
        ctx.rec.metric("int_pipeline_area_overhead", m.total_relative_area() - 1.0);
        ctx.rec.metric("int4_engine_power_rel", m.int4_engine_power);
        ctx.rec.metric("doubled_int4_power_rel", m.doubled_int4_power());
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2] {
            ctx.rec.metric(&format!("{p}.macs_per_cycle"), f64::from(mpe.macs_per_cycle(p)));
            ctx.rec.metric(&format!("{p}.mpe_op_pj"), e.mpe_op_pj(p));
        }
        Ok(())
    })
}
