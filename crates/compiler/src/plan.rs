//! Compilation output: per-layer execution plans.

use rapid_arch::precision::Precision;

/// How a quantized layer's activations convert at its boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantCost {
    /// No conversion (layer runs at FP16, the result precision).
    None,
    /// FP16 → FP8 conversion: an exponent re-bias and mantissa re-round
    /// (3 SFU lane-cycles per element).
    Fp8Convert,
    /// FP16 ⇄ INT4/INT2 quantize + scale: FP32 scale multiply, round,
    /// clamp and re-pack (10 SFU lane-cycles per element — the paper's
    /// third cycle category, "non-trivial especially when the size of the
    /// activation is large").
    IntQuantize,
}

impl QuantCost {
    /// SFU lane-cycles per converted element.
    pub fn lane_cycles_per_elem(&self) -> f64 {
        match self {
            QuantCost::None => 0.0,
            QuantCost::Fp8Convert => 3.0,
            QuantCost::IntQuantize => 10.0,
        }
    }
}

/// Execution plan for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPlan {
    /// Index into the network's layer list.
    pub layer_idx: usize,
    /// Execution precision of the compute op (FP16 for aux/SFU layers).
    pub precision: Precision,
    /// Activation conversion applied at the layer output.
    pub quant: QuantCost,
    /// Whether this layer's activations spill to external memory (don't
    /// fit on-chip between layers).
    pub spill_activations: bool,
    /// Effective clock in GHz after sparsity-aware throttling (equals the
    /// schedule's base frequency when throttling is off).
    pub effective_ghz: f64,
}

/// A compiled network: one plan per layer plus global settings.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPlan {
    /// Benchmark name.
    pub network: String,
    /// The quantized target precision of the compilation.
    pub target: Precision,
    /// Per-layer plans (same order as the network's layers).
    pub layers: Vec<LayerPlan>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn quant_cost_cycles() {
        assert_eq!(QuantCost::None.lane_cycles_per_elem(), 0.0);
        assert_eq!(QuantCost::Fp8Convert.lane_cycles_per_elem(), 3.0);
        assert_eq!(QuantCost::IntQuantize.lane_cycles_per_elem(), 10.0);
    }
}
