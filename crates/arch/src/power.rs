//! Silicon characterization of the one fabricated chip: the
//! voltage/frequency curve over the [`F_MIN_GHZ`]–[`F_MAX_GHZ`] clock
//! range, per-op energies, static power, and the sparsity-aware
//! throttling model. Each number is a constant stated once; the free
//! functions derive everything else from them.
//!
//! The paper measures power on silicon and feeds the characterization into
//! its performance model (§V-A); we substitute a parametric model
//! *calibrated to the paper's published envelopes* (Fig 10):
//!
//! | precision | peak T(FL)OPS (1.0–1.6 GHz) | peak T(FL)OPS/W |
//! |-----------|------------------------------|-----------------|
//! | FP16      | 8 – 12.8                     | 0.98 – 1.8      |
//! | HFP8      | 16 – 25.6                    | 1.9 – 3.5       |
//! | INT4      | 64 – 102.4                   | 8.9 – 16.5      |
//!
//! Peak efficiency is achieved at the nominal-voltage end (1.0 GHz /
//! 0.55 V); the 1.6 GHz point needs a voltage boost and lands at the low
//! end of the efficiency range. Dynamic energy scales as V², static power
//! as V³. With `P_static(0.55 V) = 0.8 W` for the 4-core chip, fitting the
//! per-op effective energies to the Fig 10 efficiencies gives
//! `e_fp16 ≈ 0.458 pJ/op`, `e_hfp8 ≈ 0.237 pJ/op`, `e_int4 ≈ 0.048 pJ/op`
//! at 0.55 V (an "op" is one multiply or one add; a MAC is two ops).
//! The remaining component energies (scratchpads, ring, DRAM) take
//! representative published values for 7 nm-class designs; they move the
//! *sustained* efficiency levels but not the relative shapes.

use crate::geometry::ChipConfig;
use crate::precision::Precision;

/// Lowest supported clock (GHz): nominal voltage, peak efficiency (Fig 10).
pub const F_MIN_GHZ: f64 = 1.0;

/// Highest supported clock (GHz): boosted voltage (Fig 10).
pub const F_MAX_GHZ: f64 = 1.6;

/// Nominal voltage: the voltage at [`F_MIN_GHZ`] (V), and the reference
/// voltage of the per-op energies and the static power.
const V_MIN: f64 = 0.55;

/// Voltage at [`F_MAX_GHZ`] (V).
const V_MAX: f64 = 0.75;

/// Static power per core at [`V_MIN`] (W).
const STATIC_W_PER_CORE: f64 = 0.2;

/// SFU FP16 op energy (pJ at nominal voltage).
pub const SFU_OP_PJ: f64 = 0.4579;

/// Residual energy fraction of a zero-gated MAC (bypass still clocks
/// latches; 1.0 would mean gating saves nothing).
pub const ZERO_GATE_RESIDUAL: f64 = 0.15;

/// L1 scratchpad access energy (pJ/byte at nominal voltage).
pub const L1_BYTE_PJ: f64 = 0.5;

/// L0 scratchpad access energy (pJ/byte at nominal voltage).
pub const L0_BYTE_PJ: f64 = 0.2;

/// On-chip ring transfer energy (pJ/byte/hop).
pub const RING_BYTE_HOP_PJ: f64 = 0.1;

/// External DRAM access energy (pJ/byte) — DDR for the inference chip.
pub const DRAM_BYTE_PJ: f64 = 15.0;

/// HBM access energy (pJ/byte) — training system memory.
pub const HBM_BYTE_PJ: f64 = 6.0;

/// Chip-to-chip link energy (pJ/byte).
pub const LINK_BYTE_PJ: f64 = 10.0;

/// Operating voltage at a frequency: linear from ([`F_MIN_GHZ`],
/// [`V_MIN`]) to ([`F_MAX_GHZ`], [`V_MAX`]), extrapolating past the
/// endpoints but clamped to at least [`V_MIN`].
fn voltage(f_ghz: f64) -> f64 {
    let slope = (V_MAX - V_MIN) / (F_MAX_GHZ - F_MIN_GHZ);
    (V_MIN + slope * (f_ghz - F_MIN_GHZ)).max(V_MIN)
}

/// MPE op energy at a precision (pJ at nominal voltage). A MAC counts as
/// 2 ops.
///
/// # Panics
///
/// Panics for [`Precision::Fp32`] (SFU-only).
pub fn mpe_op_pj(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => panic!("FP32 does not execute on the MPE array"),
        Precision::Fp16 => 0.4579,
        Precision::Hfp8 => 0.2369,
        Precision::Int4 => 0.0484,
        Precision::Int2 => 0.0242,
    }
}

/// Dynamic-energy scale factor at frequency `f_ghz` relative to the
/// reference voltage: (V/V_min)².
pub fn dyn_scale(f_ghz: f64) -> f64 {
    let v = voltage(f_ghz);
    (v / V_MIN).powi(2)
}

/// Static power of `cores` cores at frequency `f_ghz` (scales as V³).
pub fn static_power_w(cores: u32, f_ghz: f64) -> f64 {
    let v = voltage(f_ghz);
    STATIC_W_PER_CORE * f64::from(cores) * (v / V_MIN).powi(3)
}

/// MPE op energy at a precision and frequency, in joules.
pub fn mpe_op_joules(p: Precision, f_ghz: f64) -> f64 {
    mpe_op_pj(p) * dyn_scale(f_ghz) * 1e-12
}

/// Chip power when every MPE lane computes at full rate (peak).
pub fn peak_power_w(chip: &ChipConfig, p: Precision, f_ghz: f64) -> f64 {
    let ops_per_s = chip.peak_ops_per_cycle(p) as f64 * f_ghz * 1e9;
    static_power_w(chip.cores, f_ghz) + ops_per_s * mpe_op_joules(p, f_ghz)
}

/// Peak compute efficiency in T(FL)OPS/W (the Fig 10 rows).
pub fn peak_efficiency(chip: &ChipConfig, p: Precision, f_ghz: f64) -> f64 {
    let tops = chip.peak_tops(p, f_ghz);
    tops / peak_power_w(chip, p, f_ghz)
}

// Sparsity-aware frequency throttling (paper §III-C, Fig 6/16a).
//
// The chip runs at the voltage supporting `F_MAX_GHZ`; an on-chip power
// control module skips clock edges so that average power stays inside the
// budget. Zero-gating makes per-cycle compute energy fall with weight
// sparsity, so the compiler can program a lower stall rate for sparse
// layers — re-investing the saved power as effective frequency. The
// constants are calibrated so dense workloads throttle to ≈60% of
// `F_MAX_GHZ` and 80%-sparse workloads run un-throttled, reproducing
// Fig 16's 1.1×–1.7× speedup band.

/// Power budget as a fraction of the dense full-rate power at
/// [`F_MAX_GHZ`].
pub const BUDGET_FRACTION: f64 = 0.6;

/// Fraction of per-cycle dynamic energy spent in the gateable MPE compute
/// pipelines.
const COMPUTE_ENERGY_FRACTION: f64 = 0.7;

/// Fraction of a gated MAC's energy actually saved.
const GATING_EFFICIENCY: f64 = 1.0 - ZERO_GATE_RESIDUAL;

/// Relative per-cycle power at weight sparsity `s` (dense = 1.0).
fn relative_cycle_power(sparsity: f64) -> f64 {
    let s = sparsity.clamp(0.0, 1.0);
    1.0 - COMPUTE_ENERGY_FRACTION * GATING_EFFICIENCY * s
}

/// Effective frequency (GHz) the power-control module allows at a given
/// weight sparsity.
pub fn effective_frequency_ghz(sparsity: f64) -> f64 {
    let f = F_MAX_GHZ * BUDGET_FRACTION / relative_cycle_power(sparsity);
    f.min(F_MAX_GHZ)
}

/// Clock-edge-skip throttle rate at a given sparsity — the Fig 16a
/// curve. 0.0 means no skipped edges.
pub fn throttle_rate(sparsity: f64) -> f64 {
    1.0 - effective_frequency_ghz(sparsity) / F_MAX_GHZ
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::geometry::ChipConfig;

    #[test]
    fn vf_curve_endpoints() {
        assert_eq!(voltage(1.0), 0.55);
        assert_eq!(voltage(1.6), 0.75);
        assert!((voltage(1.5) - 0.71667).abs() < 1e-4);
        // Below f_min the voltage floor holds.
        assert_eq!(voltage(0.8), 0.55);
    }

    #[test]
    fn fig10_peak_efficiency_high_end() {
        let chip = ChipConfig::rapid_4core();
        // At 1.0 GHz / 0.55 V the model must reproduce the calibration
        // targets: 1.8 / 3.5 / 16.5 T(FL)OPS/W.
        assert!((peak_efficiency(&chip, Precision::Fp16, 1.0) - 1.8).abs() < 0.01);
        assert!((peak_efficiency(&chip, Precision::Hfp8, 1.0) - 3.5).abs() < 0.02);
        assert!((peak_efficiency(&chip, Precision::Int4, 1.0) - 16.5).abs() < 0.1);
    }

    #[test]
    fn fig10_peak_efficiency_low_end() {
        let chip = ChipConfig::rapid_4core();
        // At 1.6 GHz / 0.75 V: 0.98 / 1.9 / 8.9 T(FL)OPS/W (±10%).
        let fp16 = peak_efficiency(&chip, Precision::Fp16, 1.6);
        let hfp8 = peak_efficiency(&chip, Precision::Hfp8, 1.6);
        let int4 = peak_efficiency(&chip, Precision::Int4, 1.6);
        assert!((fp16 - 0.98).abs() / 0.98 < 0.10, "fp16 {fp16}");
        assert!((hfp8 - 1.9).abs() / 1.9 < 0.10, "hfp8 {hfp8}");
        assert!((int4 - 8.9).abs() / 8.9 < 0.10, "int4 {int4}");
    }

    #[test]
    fn efficiency_falls_with_frequency() {
        let chip = ChipConfig::rapid_4core();
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
            let mut prev = peak_efficiency(&chip, p, 1.0);
            for f in [1.2, 1.4, 1.6] {
                let e = peak_efficiency(&chip, p, f);
                assert!(e < prev, "{p} at {f} GHz: {e} !< {prev}");
                prev = e;
            }
        }
    }

    #[test]
    fn static_power_scales_with_cores_and_voltage() {
        assert!((static_power_w(4, 1.0) - 0.8).abs() < 1e-12);
        assert!(static_power_w(32, 1.0) > static_power_w(4, 1.0) * 7.9);
        assert!(static_power_w(4, 1.6) > static_power_w(4, 1.0) * 2.0);
    }

    #[test]
    fn throttle_rate_decreases_with_sparsity() {
        let mut prev = throttle_rate(0.0);
        assert!(prev > 0.3, "dense throttle {prev}");
        for s in [0.2, 0.4, 0.6, 0.8] {
            let r = throttle_rate(s);
            assert!(r < prev, "throttle at {s}: {r} !< {prev}");
            prev = r;
        }
        // At 80% sparsity the chip runs essentially un-throttled.
        assert!(throttle_rate(0.8) < 0.05);
    }

    #[test]
    fn throttling_speedup_band_matches_fig16() {
        // Paper: 1.1×–1.7× across benchmarks with 50–80% sparsity, over
        // the sparsity-oblivious baseline that must assume dense power.
        let dense = effective_frequency_ghz(0.0);
        let lo = effective_frequency_ghz(0.45) / dense;
        let hi = effective_frequency_ghz(0.80) / dense;
        assert!(lo > 1.1 && lo < 1.6, "lo {lo}");
        assert!(hi > 1.5 && hi <= 1.7, "hi {hi}");
    }

    #[test]
    fn zero_gating_residual_bounds() {
        const { assert!(ZERO_GATE_RESIDUAL > 0.0 && ZERO_GATE_RESIDUAL < 1.0) };
    }

    #[test]
    fn peak_power_magnitude_is_single_digit_watts() {
        // The 36 mm² chip is a single-digit-watt part at nominal voltage.
        let chip = ChipConfig::rapid_4core();
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
            let w = peak_power_w(&chip, p, 1.0);
            assert!(w > 3.0 && w < 8.0, "{p}: {w} W");
        }
    }
}
