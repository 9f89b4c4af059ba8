//! Regenerates Fig 10: the 4-core RaPiD chip specification table —
//! peak throughput and peak efficiency per precision over the 1.0–1.6 GHz
//! operating range.

use rapid_arch::area::{DIE_EDGE_MM, NODE_NM};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::{peak_efficiency, peak_power_w, F_MAX_GHZ, F_MIN_GHZ};
use rapid_arch::precision::Precision;
use rapid_bench::{compare, run, section};

fn main() -> std::process::ExitCode {
    run("fig10_chip_table", |ctx| {
        let chip = ChipConfig::rapid_4core();

        section("Fig 10 — 4-core RaPiD chip specification");
        compare("technology", format!("{NODE_NM} nm (modeled)"), "7nm");
        compare("chip size", format!("{DIE_EDGE_MM:.0} mm x {DIE_EDGE_MM:.0} mm"), "6mm x 6mm");
        compare(
            "frequency range",
            format!("{F_MIN_GHZ:.1} - {F_MAX_GHZ:.1} GHz"),
            "1.0 GHz - 1.6 GHz",
        );

        let fmt_range = |p: Precision| {
            format!(
                "{:.1} - {:.1} {}",
                chip.peak_tops(p, F_MIN_GHZ),
                chip.peak_tops(p, F_MAX_GHZ),
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
                peak_efficiency(&chip, p, F_MAX_GHZ),
                peak_efficiency(&chip, p, F_MIN_GHZ),
                p.throughput_unit()
            )
        };
        compare("efficiency fp16", eff_range(Precision::Fp16), "0.98 - 1.8 TFLOPS/W");
        compare("efficiency hfp8", eff_range(Precision::Hfp8), "1.9 - 3.5 TFLOPS/W");
        compare("efficiency int4", eff_range(Precision::Int4), "8.9 - 16.5 TOPS/W");

        println!("\npeak chip power at nominal voltage ({F_MIN_GHZ:.1} GHz):");
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
            println!("  {p}: {:.2} W", peak_power_w(&chip, p, F_MIN_GHZ));
        }

        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2] {
            ctx.rec.metric(&format!("{p}.peak_tops_max_freq"), chip.peak_tops(p, F_MAX_GHZ));
            ctx.rec.metric(
                &format!("{p}.peak_efficiency_min_freq"),
                peak_efficiency(&chip, p, F_MIN_GHZ),
            );
            ctx.rec.metric(&format!("{p}.peak_power_w"), peak_power_w(&chip, p, F_MIN_GHZ));
        }
        Ok(())
    })
}
