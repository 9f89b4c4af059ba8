//! Shared cost structures: cycle breakdown and energy accounting.

use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::PowerModel;
use rapid_arch::precision::Precision;

/// Model-level knobs that are not part of the silicon characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Silicon power characterization.
    pub power: PowerModel,
    /// Fixed per-compute-layer-instance cost (program distribution, token
    /// synchronization, drain) in cycles.
    pub per_layer_overhead_cycles: f64,
    /// Activity factor of the MPE array during overhead (residue /
    /// block-load / stall) cycles, as a fraction of full-rate dynamic
    /// power.
    pub idle_activity: f64,
    /// Fraction of gradient-communication time hidden under compute during
    /// training (0.0 = fully exposed update phase).
    pub comm_overlap: f64,
    /// Fraction of LRF block-load time exposed on the critical path (the
    /// rest hides behind the previous tile's drain).
    pub blockload_exposure: f64,
    /// Fraction of systolic fill/drain time exposed (consecutive blocks
    /// chain through the array).
    pub fill_exposure: f64,
    /// Cost of one backward pass (dgrad or wgrad) relative to the forward
    /// pass: rotated kernels and weight-shaped reductions map worse onto
    /// the weight-stationary dataflow.
    pub backward_derate: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            power: PowerModel::rapid_7nm(),
            per_layer_overhead_cycles: 400.0,
            idle_activity: 0.10,
            comm_overlap: 0.0,
            blockload_exposure: 0.6,
            fill_exposure: 0.5,
            backward_derate: 1.4,
        }
    }
}

/// Compute-cycle breakdown in the paper's four categories (Fig 17).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Conv/GEMM cycles at the MAC-rate lower bound (includes layers kept
    /// at FP16).
    pub conv_ideal: f64,
    /// Conv/GEMM overheads: residue, block-loads, pipeline fill, imbalance
    /// and fixed per-layer costs.
    pub conv_overhead: f64,
    /// Quantization / precision-conversion cycles (FP16 ⇄ INT4/FP8).
    pub quant: f64,
    /// Auxiliary operations on the SFU (activations, norms, pooling...).
    pub aux: f64,
}

impl CycleBreakdown {
    /// Total compute cycles.
    pub fn total(&self) -> f64 {
        self.conv_ideal + self.conv_overhead + self.quant + self.aux
    }

    /// Fractions `[conv, overhead, quant, aux]` (zeros if empty).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t <= 0.0 {
            return [0.0; 4];
        }
        [self.conv_ideal / t, self.conv_overhead / t, self.quant / t, self.aux / t]
    }

    /// Accumulates another breakdown.
    pub fn add(&mut self, other: &CycleBreakdown) {
        self.conv_ideal += other.conv_ideal;
        self.conv_overhead += other.conv_overhead;
        self.quant += other.quant;
        self.aux += other.aux;
    }
}

/// Energy ledger for one evaluation, in joules per component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// MPE dynamic energy (useful MACs).
    pub mpe_j: f64,
    /// MPE idle/overhead toggling energy.
    pub mpe_idle_j: f64,
    /// SFU dynamic energy.
    pub sfu_j: f64,
    /// Scratchpad (L0+L1) access energy.
    pub sram_j: f64,
    /// External memory energy.
    pub dram_j: f64,
    /// Ring / chip-to-chip link energy.
    pub interconnect_j: f64,
    /// Leakage over the execution time.
    pub static_j: f64,
}

impl EnergyLedger {
    /// Total joules.
    pub fn total(&self) -> f64 {
        self.mpe_j
            + self.mpe_idle_j
            + self.sfu_j
            + self.sram_j
            + self.dram_j
            + self.interconnect_j
            + self.static_j
    }

    /// Accumulates another ledger.
    pub fn add(&mut self, other: &EnergyLedger) {
        self.mpe_j += other.mpe_j;
        self.mpe_idle_j += other.mpe_idle_j;
        self.sfu_j += other.sfu_j;
        self.sram_j += other.sram_j;
        self.dram_j += other.dram_j;
        self.interconnect_j += other.interconnect_j;
        self.static_j += other.static_j;
    }
}

/// Total SFU lanes across a chip.
pub fn sfu_lanes(chip: &ChipConfig) -> f64 {
    f64::from(chip.cores) * chip.core.sfu_ops_per_cycle() as f64
}

/// Total corelets across a chip.
pub fn total_corelets(chip: &ChipConfig) -> u32 {
    chip.cores * chip.core.corelets
}

/// Storage bytes of an activation/weight element at a precision.
pub fn elem_bytes(p: Precision) -> f64 {
    p.bytes()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = CycleBreakdown { conv_ideal: 50.0, conv_overhead: 14.0, quant: 17.0, aux: 19.0 };
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[0], 0.5);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        assert_eq!(CycleBreakdown::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn ledger_totals() {
        let mut a = EnergyLedger { mpe_j: 1.0, ..Default::default() };
        let b = EnergyLedger { sfu_j: 2.0, static_j: 3.0, ..Default::default() };
        a.add(&b);
        assert_eq!(a.total(), 6.0);
    }

    #[test]
    fn chip_lane_counts() {
        let chip = ChipConfig::rapid_4core();
        assert_eq!(sfu_lanes(&chip), 1024.0);
        assert_eq!(total_corelets(&chip), 8);
    }
}
