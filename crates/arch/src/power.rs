//! Silicon characterization model: voltage/frequency curve, per-op
//! energies, static power, and the sparsity-aware throttling model.
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

/// Linear voltage/frequency operating curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfCurve {
    /// Frequency at the low-voltage end (GHz).
    pub f_min_ghz: f64,
    /// Voltage at `f_min_ghz` (V).
    pub v_min: f64,
    /// Frequency at the high-voltage end (GHz).
    pub f_max_ghz: f64,
    /// Voltage at `f_max_ghz` (V).
    pub v_max: f64,
}

impl VfCurve {
    /// RaPiD 7 nm curve: 0.55 V @ 1.0 GHz (nominal voltage, peak
    /// efficiency) to 0.75 V @ 1.6 GHz.
    pub(crate) fn rapid_7nm() -> Self {
        Self { f_min_ghz: 1.0, v_min: 0.55, f_max_ghz: 1.6, v_max: 0.75 }
    }

    /// Operating voltage at a frequency (linear, extrapolating past the
    /// endpoints but clamped to at least `v_min`).
    pub(crate) fn voltage(&self, f_ghz: f64) -> f64 {
        let slope = (self.v_max - self.v_min) / (self.f_max_ghz - self.f_min_ghz);
        (self.v_min + slope * (f_ghz - self.f_min_ghz)).max(self.v_min)
    }
}

/// Per-operation / per-byte effective energies at the reference voltage,
/// in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// MPE op energy (pJ) at FP16. A MAC counts as 2 ops.
    pub mpe_fp16_op_pj: f64,
    /// MPE op energy (pJ) at HFP8.
    pub mpe_hfp8_op_pj: f64,
    /// MPE op energy (pJ) at INT4.
    pub mpe_int4_op_pj: f64,
    /// MPE op energy (pJ) at INT2.
    pub mpe_int2_op_pj: f64,
    /// SFU FP16 op energy (pJ).
    pub sfu_op_pj: f64,
    /// Residual energy fraction of a zero-gated MAC (bypass still clocks
    /// latches; 1.0 would mean gating saves nothing).
    pub zero_gate_residual: f64,
    /// L1 scratchpad access energy (pJ/byte).
    pub l1_byte_pj: f64,
    /// L0 scratchpad access energy (pJ/byte).
    pub l0_byte_pj: f64,
    /// On-chip ring transfer energy (pJ/byte/hop).
    pub ring_byte_hop_pj: f64,
    /// External DRAM access energy (pJ/byte) — DDR for the inference chip.
    pub dram_byte_pj: f64,
    /// HBM access energy (pJ/byte) — training system memory.
    pub hbm_byte_pj: f64,
    /// Chip-to-chip link energy (pJ/byte).
    pub link_byte_pj: f64,
}

impl EnergyTable {
    /// Energies calibrated to Fig 10 at the 0.55 V reference (see module
    /// docs for the fit).
    pub fn rapid_7nm() -> Self {
        Self {
            mpe_fp16_op_pj: 0.4579,
            mpe_hfp8_op_pj: 0.2369,
            mpe_int4_op_pj: 0.0484,
            mpe_int2_op_pj: 0.0242,
            sfu_op_pj: 0.4579,
            zero_gate_residual: 0.15,
            l1_byte_pj: 0.5,
            l0_byte_pj: 0.2,
            ring_byte_hop_pj: 0.1,
            dram_byte_pj: 15.0,
            hbm_byte_pj: 6.0,
            link_byte_pj: 10.0,
        }
    }

    /// MPE op energy at a precision (pJ at the reference voltage).
    ///
    /// # Panics
    ///
    /// Panics for [`Precision::Fp32`] (SFU-only).
    pub fn mpe_op_pj(&self, p: Precision) -> f64 {
        match p {
            Precision::Fp32 => panic!("FP32 does not execute on the MPE array"),
            Precision::Fp16 => self.mpe_fp16_op_pj,
            Precision::Hfp8 => self.mpe_hfp8_op_pj,
            Precision::Int4 => self.mpe_int4_op_pj,
            Precision::Int2 => self.mpe_int2_op_pj,
        }
    }
}

/// The chip-level power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Voltage/frequency operating curve.
    pub vf: VfCurve,
    /// Reference voltage for the energy table (V).
    pub v_ref: f64,
    /// Static power per core at the reference voltage (W).
    pub static_w_per_core: f64,
    /// Per-op/per-byte energies at the reference voltage.
    pub energy: EnergyTable,
}

impl PowerModel {
    /// The calibrated 7 nm RaPiD model.
    pub fn rapid_7nm() -> Self {
        Self {
            vf: VfCurve::rapid_7nm(),
            v_ref: 0.55,
            static_w_per_core: 0.2,
            energy: EnergyTable::rapid_7nm(),
        }
    }

    /// Dynamic-energy scale factor at frequency `f_ghz` relative to the
    /// reference voltage: (V/V_ref)².
    pub fn dyn_scale(&self, f_ghz: f64) -> f64 {
        let v = self.vf.voltage(f_ghz);
        (v / self.v_ref).powi(2)
    }

    /// Static power of `cores` cores at frequency `f_ghz` (scales as V³).
    pub fn static_power_w(&self, cores: u32, f_ghz: f64) -> f64 {
        let v = self.vf.voltage(f_ghz);
        self.static_w_per_core * f64::from(cores) * (v / self.v_ref).powi(3)
    }

    /// MPE op energy at a precision and frequency, in joules.
    pub fn mpe_op_joules(&self, p: Precision, f_ghz: f64) -> f64 {
        self.energy.mpe_op_pj(p) * self.dyn_scale(f_ghz) * 1e-12
    }

    /// Chip power when every MPE lane computes at full rate (peak).
    pub fn peak_power_w(&self, chip: &ChipConfig, p: Precision, f_ghz: f64) -> f64 {
        let ops_per_s = chip.peak_ops_per_cycle(p) as f64 * f_ghz * 1e9;
        self.static_power_w(chip.cores, f_ghz) + ops_per_s * self.mpe_op_joules(p, f_ghz)
    }

    /// Peak compute efficiency in T(FL)OPS/W (the Fig 10 rows).
    pub fn peak_efficiency(&self, chip: &ChipConfig, p: Precision, f_ghz: f64) -> f64 {
        let tops = chip.peak_tops(p, f_ghz);
        tops / self.peak_power_w(chip, p, f_ghz)
    }
}

/// Sparsity-aware frequency-throttling model (paper §III-C, Fig 6/16a).
///
/// The chip runs at the voltage supporting `f_max`; an on-chip power
/// control module skips clock edges so that average power stays inside the
/// budget. Zero-gating makes per-cycle compute energy fall with weight
/// sparsity, so the compiler can program a lower stall rate for sparse
/// layers — re-investing the saved power as effective frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleModel {
    /// Maximum (un-throttled) clock frequency (GHz).
    pub f_max_ghz: f64,
    /// Power budget as a fraction of the dense full-rate power at `f_max`.
    pub budget_fraction: f64,
    /// Fraction of per-cycle dynamic energy spent in the gateable MPE
    /// compute pipelines.
    pub compute_energy_fraction: f64,
    /// Fraction of a gated MAC's energy actually saved (1 − residual).
    pub gating_efficiency: f64,
}

impl ThrottleModel {
    /// Model calibrated so dense workloads throttle to ≈60% of `f_max` and
    /// 80%-sparse workloads run un-throttled — reproducing Fig 16's
    /// 1.1×–1.7× speedup band.
    pub fn rapid_default() -> Self {
        Self {
            f_max_ghz: 1.6,
            budget_fraction: 0.6,
            compute_energy_fraction: 0.7,
            gating_efficiency: 0.85,
        }
    }

    /// Relative per-cycle power at weight sparsity `s` (dense = 1.0).
    pub(crate) fn relative_cycle_power(&self, sparsity: f64) -> f64 {
        let s = sparsity.clamp(0.0, 1.0);
        1.0 - self.compute_energy_fraction * self.gating_efficiency * s
    }

    /// Effective frequency (GHz) the power-control module allows at a given
    /// weight sparsity.
    pub fn effective_frequency_ghz(&self, sparsity: f64) -> f64 {
        let f = self.f_max_ghz * self.budget_fraction / self.relative_cycle_power(sparsity);
        f.min(self.f_max_ghz)
    }

    /// Clock-edge-skip throttle rate at a given sparsity — the Fig 16a
    /// curve. 0.0 means no skipped edges.
    pub fn throttle_rate(&self, sparsity: f64) -> f64 {
        1.0 - self.effective_frequency_ghz(sparsity) / self.f_max_ghz
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::geometry::ChipConfig;

    #[test]
    fn vf_curve_endpoints() {
        let vf = VfCurve::rapid_7nm();
        assert_eq!(vf.voltage(1.0), 0.55);
        assert_eq!(vf.voltage(1.6), 0.75);
        assert!((vf.voltage(1.5) - 0.71667).abs() < 1e-4);
        // Below f_min the voltage floor holds.
        assert_eq!(vf.voltage(0.8), 0.55);
    }

    #[test]
    fn fig10_peak_efficiency_high_end() {
        let pm = PowerModel::rapid_7nm();
        let chip = ChipConfig::rapid_4core();
        // At 1.0 GHz / 0.55 V the model must reproduce the calibration
        // targets: 1.8 / 3.5 / 16.5 T(FL)OPS/W.
        assert!((pm.peak_efficiency(&chip, Precision::Fp16, 1.0) - 1.8).abs() < 0.01);
        assert!((pm.peak_efficiency(&chip, Precision::Hfp8, 1.0) - 3.5).abs() < 0.02);
        assert!((pm.peak_efficiency(&chip, Precision::Int4, 1.0) - 16.5).abs() < 0.1);
    }

    #[test]
    fn fig10_peak_efficiency_low_end() {
        let pm = PowerModel::rapid_7nm();
        let chip = ChipConfig::rapid_4core();
        // At 1.6 GHz / 0.75 V: 0.98 / 1.9 / 8.9 T(FL)OPS/W (±10%).
        let fp16 = pm.peak_efficiency(&chip, Precision::Fp16, 1.6);
        let hfp8 = pm.peak_efficiency(&chip, Precision::Hfp8, 1.6);
        let int4 = pm.peak_efficiency(&chip, Precision::Int4, 1.6);
        assert!((fp16 - 0.98).abs() / 0.98 < 0.10, "fp16 {fp16}");
        assert!((hfp8 - 1.9).abs() / 1.9 < 0.10, "hfp8 {hfp8}");
        assert!((int4 - 8.9).abs() / 8.9 < 0.10, "int4 {int4}");
    }

    #[test]
    fn efficiency_falls_with_frequency() {
        let pm = PowerModel::rapid_7nm();
        let chip = ChipConfig::rapid_4core();
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
            let mut prev = pm.peak_efficiency(&chip, p, 1.0);
            for f in [1.2, 1.4, 1.6] {
                let e = pm.peak_efficiency(&chip, p, f);
                assert!(e < prev, "{p} at {f} GHz: {e} !< {prev}");
                prev = e;
            }
        }
    }

    #[test]
    fn static_power_scales_with_cores_and_voltage() {
        let pm = PowerModel::rapid_7nm();
        assert!((pm.static_power_w(4, 1.0) - 0.8).abs() < 1e-12);
        assert!(pm.static_power_w(32, 1.0) > pm.static_power_w(4, 1.0) * 7.9);
        assert!(pm.static_power_w(4, 1.6) > pm.static_power_w(4, 1.0) * 2.0);
    }

    #[test]
    fn throttle_rate_decreases_with_sparsity() {
        let t = ThrottleModel::rapid_default();
        let mut prev = t.throttle_rate(0.0);
        assert!(prev > 0.3, "dense throttle {prev}");
        for s in [0.2, 0.4, 0.6, 0.8] {
            let r = t.throttle_rate(s);
            assert!(r < prev, "throttle at {s}: {r} !< {prev}");
            prev = r;
        }
        // At 80% sparsity the chip runs essentially un-throttled.
        assert!(t.throttle_rate(0.8) < 0.05);
    }

    #[test]
    fn throttling_speedup_band_matches_fig16() {
        let t = ThrottleModel::rapid_default();
        // Paper: 1.1×–1.7× across benchmarks with 50–80% sparsity, over
        // the sparsity-oblivious baseline that must assume dense power.
        let dense = t.effective_frequency_ghz(0.0);
        let lo = t.effective_frequency_ghz(0.45) / dense;
        let hi = t.effective_frequency_ghz(0.80) / dense;
        assert!(lo > 1.1 && lo < 1.6, "lo {lo}");
        assert!(hi > 1.5 && hi <= 1.7, "hi {hi}");
    }

    #[test]
    fn zero_gating_residual_bounds() {
        let e = EnergyTable::rapid_7nm();
        assert!(e.zero_gate_residual > 0.0 && e.zero_gate_residual < 1.0);
    }

    #[test]
    fn peak_power_magnitude_is_single_digit_watts() {
        // The 36 mm² chip is a single-digit-watt part at nominal voltage.
        let pm = PowerModel::rapid_7nm();
        let chip = ChipConfig::rapid_4core();
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4] {
            let w = pm.peak_power_w(&chip, p, 1.0);
            assert!(w > 3.0 && w < 8.0, "{p}: {w} W");
        }
    }
}
