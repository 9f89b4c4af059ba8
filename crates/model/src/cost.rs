//! Shared cost structures: cycle breakdown, energy accounting, and the
//! per-layer pricing every inference view folds over.

use rapid_arch::geometry::ChipConfig;
use rapid_compiler::mapping::{map_layer, MappingCost};
use rapid_compiler::plan::LayerPlan;
use rapid_workloads::graph::Layer;

/// Fixed per-compute-layer-instance cost (program distribution, token
/// synchronization, drain) in cycles.
pub(crate) const PER_LAYER_OVERHEAD_CYCLES: f64 = 400.0;

/// Activity factor of the MPE array during overhead (residue / block-load
/// / stall) cycles, as a fraction of full-rate dynamic power.
pub(crate) const IDLE_ACTIVITY: f64 = 0.10;

/// Fraction of LRF block-load time exposed on the critical path (the rest
/// hides behind the previous tile's drain).
const BLOCKLOAD_EXPOSURE: f64 = 0.6;

/// Fraction of systolic fill/drain time exposed (consecutive blocks chain
/// through the array).
const FILL_EXPOSURE: f64 = 0.5;

/// MPE cycles on the critical path of one mapped layer instance.
/// Block-loads partially overlap with the previous tile's drain and
/// pipeline fills chain across consecutive blocks, so only a fraction of
/// each is exposed.
pub(crate) fn exposed_cycles(m: &MappingCost) -> f64 {
    m.compute_cycles + BLOCKLOAD_EXPOSURE * m.blockload_cycles + FILL_EXPOSURE * m.fill_cycles
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
    pub(crate) fn total(&self) -> f64 {
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
}

/// Total SFU lanes across a chip.
pub(crate) fn sfu_lanes(chip: &ChipConfig) -> f64 {
    f64::from(chip.cores) * chip.core.sfu_ops_per_cycle() as f64
}

/// Total corelets across a chip.
pub(crate) fn total_corelets(chip: &ChipConfig) -> u32 {
    chip.cores * chip.core.corelets
}

/// Modelled cost of one layer of a compiled plan at a batch (repeats
/// included): the one source of every per-layer number that
/// [`evaluate_inference`](crate::inference::evaluate_inference) folds and
/// [`layer_reports`](crate::report::layer_reports) reports.
pub(crate) struct LayerCost {
    /// MPE cycles at the MAC-rate bound.
    pub ideal: f64,
    /// MPE overhead cycles (residue + exposed block-loads/fills + fixed).
    pub overhead: f64,
    /// SFU lane-ops: output quantization on a compute layer, the op itself
    /// on an auxiliary layer.
    pub lane_ops: f64,
    /// Quantization cycles on the SFU.
    pub quant: f64,
    /// Auxiliary cycles on the SFU.
    pub aux: f64,
    /// Weight bytes streamed from external memory.
    pub weight_bytes: f64,
    /// Activation bytes spilled to external memory.
    pub act_bytes: f64,
    /// External-memory transfer time, seconds.
    pub mem_s: f64,
    /// On-chip (MPE + SFU) time, seconds.
    pub onchip_s: f64,
    /// MPE-array utilization of the mapping (0 for auxiliary layers).
    pub utilization: f64,
}

impl LayerCost {
    /// External-memory bytes moved for the layer.
    pub(crate) fn dram_bytes(&self) -> f64 {
        self.weight_bytes + self.act_bytes
    }

    /// Wall time: double-buffered transfers hide behind on-chip work, so
    /// the slower of the two sets the layer's time.
    pub(crate) fn wall_s(&self) -> f64 {
        self.onchip_s.max(self.mem_s)
    }
}

/// Prices one layer of a compiled plan on `chip` at `batch`.
pub(crate) fn price_layer(
    layer: &Layer,
    lp: &LayerPlan,
    chip: &ChipConfig,
    batch: u64,
) -> LayerCost {
    let lanes = sfu_lanes(chip);
    let f_hz = lp.effective_ghz * 1e9;
    let rep = layer.repeat as f64;
    if !layer.op.is_compute() {
        // Auxiliary layer on the SFU (plus a fixed program/sync cost —
        // small tensors cannot amortize it, which is part of why
        // aux-dominated networks stop scaling in Fig 18a).
        let lane_ops = layer.aux_lane_cycles() * batch as f64;
        let aux = lane_ops / lanes + 0.5 * PER_LAYER_OVERHEAD_CYCLES * rep;
        return LayerCost {
            ideal: 0.0,
            overhead: 0.0,
            lane_ops,
            quant: 0.0,
            aux,
            weight_bytes: 0.0,
            act_bytes: 0.0,
            mem_s: 0.0,
            onchip_s: aux / f_hz,
            utilization: 0.0,
        };
    }

    // MPE mapping cost (per instance; repeats run back to back).
    let m = map_layer(&layer.op, lp.precision, batch, &chip.core.corelet, total_corelets(chip));
    let ideal = m.ideal_cycles * rep;
    let overhead =
        (exposed_cycles(&m) - m.ideal_cycles).max(0.0) * rep + PER_LAYER_OVERHEAD_CYCLES * rep;

    // Quantization / conversion of the layer's output activations.
    let out_elems = layer.op.output_elems() as f64 * rep * batch as f64;
    let lane_ops = lp.quant.lane_cycles_per_elem() * out_elems;
    let quant = lane_ops / lanes;

    // External memory traffic: weights stream in once per layer — or once
    // per repeat when one instance's weights exceed the on-chip budget
    // (recurrent weights stay resident in L1 across timesteps when they
    // fit). Boundary activations spill when they don't fit.
    let elem_bytes = lp.precision.bytes();
    let w1 = layer.op.weight_elems() as f64 * elem_bytes;
    let l1_budget = 0.5 * f64::from(chip.cores) * chip.core.l1_bytes as f64;
    let weight_bytes = if w1 > l1_budget { w1 * rep } else { w1 };
    let act_bytes = if lp.spill_activations {
        (layer.op.input_elems() + layer.op.output_elems()) as f64 * rep * batch as f64 * elem_bytes
    } else {
        0.0
    };
    LayerCost {
        ideal,
        overhead,
        lane_ops,
        quant,
        aux: 0.0,
        weight_bytes,
        act_bytes,
        mem_s: (weight_bytes + act_bytes) / (chip.mem_bw_gbps * 1e9),
        onchip_s: (ideal + overhead + quant) / f_hz,
        utilization: m.utilization(),
    }
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
        let a = EnergyLedger { mpe_j: 1.0, sfu_j: 2.0, static_j: 3.0, ..Default::default() };
        assert_eq!(a.total(), 6.0);
    }

    #[test]
    fn chip_lane_counts() {
        let chip = ChipConfig::rapid_4core();
        assert_eq!(sfu_lanes(&chip), 1024.0);
        assert_eq!(total_corelets(&chip), 8);
    }
}
