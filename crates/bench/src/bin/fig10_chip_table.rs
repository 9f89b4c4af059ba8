//! Regenerates Fig 10: the 4-core RaPiD chip specification table —
//! peak throughput and peak efficiency per precision over the 1.0–1.6 GHz
//! operating range.

use rapid_arch::area::ChipFloorplan;
use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::PowerModel;
use rapid_arch::precision::Precision;
use rapid_bench::{compare, run, section};

fn main() -> std::process::ExitCode {
    run("fig10_chip_table", |ctx| {
        let chip = ChipConfig::rapid_4core();
        let pm = PowerModel::rapid_7nm();
        let fp = ChipFloorplan::rapid_7nm();

        section("Fig 10 — 4-core RaPiD chip specification");
        compare("technology", format!("{} nm (modeled)", fp.node_nm), "7nm");
        compare("chip size", format!("{:.0} mm x {:.0} mm", fp.edge_mm, fp.edge_mm), "6mm x 6mm");
        compare(
            "frequency range",
            format!("{:.1} - {:.1} GHz", chip.freq_min_ghz, chip.freq_max_ghz),
            "1.0 GHz - 1.6 GHz",
        );

        let fmt_range = |p: Precision| {
            format!(
                "{:.1} - {:.1} {}",
                chip.peak_tops(p, chip.freq_min_ghz),
                chip.peak_tops(p, chip.freq_max_ghz),
                p.throughput_unit()
            )
        };
        compare("throughput fp16", fmt_range(Precision::Fp16), "8 - 12.8 TFLOPS");
        compare("throughput hfp8", fmt_range(Precision::Hfp8), "16 - 25.6 TFLOPS");
        compare("throughput int4", fmt_range(Precision::Int4), "64 - 102.4 TOPS");
        compare("throughput int2 (future work)", fmt_range(Precision::Int2), "n/a");

        let eff_range = |p: Precision| {
            format!(
                "{:.2} - {:.2} {}/W",
                pm.peak_efficiency(&chip, p, chip.freq_max_ghz),
                pm.peak_efficiency(&chip, p, chip.freq_min_ghz),
                p.throughput_unit()
            )
        };
        compare("efficiency fp16", eff_range(Precision::Fp16), "0.98 - 1.8 TFLOPS/W");
        compare("efficiency hfp8", eff_range(Precision::Hfp8), "1.9 - 3.5 TFLOPS/W");
        compare("efficiency int4", eff_range(Precision::Int4), "8.9 - 16.5 TOPS/W");

        println!("\npeak chip power at nominal voltage (1.0 GHz):");
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
            println!("  {p}: {:.2} W", pm.peak_power_w(&chip, p, 1.0));
        }

        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2] {
            ctx.rec
                .metric(&format!("{p}.peak_tops_max_freq"), chip.peak_tops(p, chip.freq_max_ghz));
            ctx.rec.metric(
                &format!("{p}.peak_efficiency_min_freq"),
                pm.peak_efficiency(&chip, p, chip.freq_min_ghz),
            );
            ctx.rec.metric(&format!("{p}.peak_power_w"), pm.peak_power_w(&chip, p, 1.0));
        }
        Ok(())
    })
}
