//! Compilation passes: precision assignment, scratchpad spill analysis and
//! the sparsity-aware throttling schedule (the Fig 6 flow).

use crate::plan::{LayerPlan, NetworkPlan, QuantCost};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::ThrottleModel;
use rapid_arch::precision::Precision;
use rapid_workloads::graph::{Network, Op, PrecisionClass};

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Quantized target precision for quantizable layers.
    pub target: Precision,
    /// Enable the sparsity-aware throttling schedule (uses each layer's
    /// `pruned_sparsity`; Fig 6). When off, every layer runs at the chip's
    /// nominal frequency.
    pub sparsity_throttling: bool,
    /// Throttle characterization to use when `sparsity_throttling` is set.
    pub throttle: ThrottleModel,
}

impl CompileOptions {
    /// Plain compilation at a target precision, no throttling.
    pub fn for_precision(target: Precision) -> Self {
        Self { target, sparsity_throttling: false, throttle: ThrottleModel::rapid_default() }
    }
}

/// Compiles a network for a chip: assigns per-layer precision (first/last
/// layers stay FP16), conversion costs, spill decisions and the throttling
/// schedule.
pub fn compile(net: &Network, chip: &ChipConfig, opts: &CompileOptions) -> NetworkPlan {
    let mut layers = Vec::with_capacity(net.layers.len());
    for (idx, layer) in net.layers.iter().enumerate() {
        let precision = layer_precision(layer.class, &layer.op, opts.target);
        let quant = quant_cost(precision, opts.target);
        let spill = spills(&layer.op, chip, precision);
        let effective_ghz = if opts.sparsity_throttling {
            // The compiler analyzes each layer's weight sparsity and picks
            // the throttle level that pushes power to the envelope.
            opts.throttle.effective_frequency_ghz(layer.pruned_sparsity)
        } else {
            chip.freq_ghz
        };
        layers.push(LayerPlan { layer_idx: idx, precision, quant, spill_activations: spill, effective_ghz });
    }
    NetworkPlan { network: net.name.clone(), target: opts.target, layers }
}

/// Per-layer precision assignment: auxiliary ops always run on the SFU at
/// FP16; high-precision compute layers stay FP16; everything else takes
/// the target.
fn layer_precision(class: PrecisionClass, op: &Op, target: Precision) -> Precision {
    if !op.is_compute() {
        return Precision::Fp16;
    }
    match class {
        PrecisionClass::HighPrecision => Precision::Fp16,
        PrecisionClass::Quantizable => target,
    }
}

/// Conversion cost of a layer that executes at `precision` inside a
/// network whose quantized target is `target`.
fn quant_cost(precision: Precision, _target: Precision) -> QuantCost {
    match precision {
        Precision::Int4 | Precision::Int2 => QuantCost::IntQuantize,
        Precision::Hfp8 => QuantCost::Fp8Convert,
        _ => QuantCost::None,
    }
}

/// Whether a layer's boundary activations fit on-chip between layers.
/// Half of the L1 capacity is reserved for weight blocks and
/// double-buffering; activations are stored at the execution precision.
fn spills(op: &Op, chip: &ChipConfig, precision: Precision) -> bool {
    if !op.is_compute() {
        return false;
    }
    let act_bytes =
        (op.input_elems() + op.output_elems()) as f64 * storage_bytes(precision);
    let budget = chip.cores as f64 * chip.core.l1_bytes as f64 * 0.5;
    act_bytes > budget
}

/// Storage bytes per activation element at a precision (sub-byte formats
/// pack, paper §III-A).
fn storage_bytes(p: Precision) -> f64 {
    p.bytes()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::{cnn, suite};

    #[test]
    fn first_and_last_layers_stay_fp16() {
        let net = cnn::resnet50();
        let chip = ChipConfig::rapid_4core();
        let plan = compile(&net, &chip, &CompileOptions::for_precision(Precision::Int4));
        // First compute layer (conv1) is HP.
        let first_compute =
            net.layers.iter().position(|l| l.op.is_compute()).expect("has compute");
        assert_eq!(plan.layers[first_compute].precision, Precision::Fp16);
        // Last compute layer (fc) is HP.
        let last_compute = net.layers.iter().rposition(|l| l.op.is_compute()).unwrap();
        assert_eq!(plan.layers[last_compute].precision, Precision::Fp16);
        // But most layers quantize.
        assert!(plan.layers.iter().filter(|l| l.precision == plan.target).count() > 40);
    }

    #[test]
    fn quant_costs_by_precision() {
        let net = cnn::vgg16();
        let chip = ChipConfig::rapid_4core();
        let int4 = compile(&net, &chip, &CompileOptions::for_precision(Precision::Int4));
        let fp8 = compile(&net, &chip, &CompileOptions::for_precision(Precision::Hfp8));
        let fp16 = compile(&net, &chip, &CompileOptions::for_precision(Precision::Fp16));
        assert!(int4.layers.iter().any(|l| l.quant == QuantCost::IntQuantize));
        assert!(fp8.layers.iter().any(|l| l.quant == QuantCost::Fp8Convert));
        assert!(fp16.layers.iter().all(|l| l.quant == QuantCost::None));
    }

    #[test]
    fn early_vgg_layers_spill_at_fp16_but_not_int4() {
        // conv1_2 on 224×224×64 moves 6.4 M boundary activations:
        // 12.8 MB at FP16 (past the 4 MB on-chip budget) but 3.2 MB at
        // INT4 — precision scaling keeps intermediate outputs on-chip,
        // exactly the §III-D claim about the 2 MB L1.
        let chip = ChipConfig::rapid_4core();
        let op = Op::Conv { ci: 64, co: 64, h: 224, w: 224, kh: 3, kw: 3, stride: 1, pad_h: 1, pad_w: 1 };
        assert!(spills(&op, &chip, Precision::Fp16));
        assert!(!spills(&op, &chip, Precision::Int4));
    }

    #[test]
    fn throttling_schedule_tracks_layer_sparsity() {
        let mut net = cnn::vgg16();
        suite::apply_pruning_profile(&mut net);
        let chip = ChipConfig::rapid_4core();
        let mut opts = CompileOptions::for_precision(Precision::Fp16);
        opts.sparsity_throttling = true;
        let plan = compile(&net, &chip, &opts);
        // Sparse layers get a higher effective clock than dense ones.
        let mut by_sparsity: Vec<(f64, f64)> = net
            .layers
            .iter()
            .zip(&plan.layers)
            .filter(|(l, _)| l.op.is_compute())
            .map(|(l, p)| (l.pruned_sparsity, p.effective_ghz))
            .collect();
        by_sparsity.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(by_sparsity.last().unwrap().1 > by_sparsity.first().unwrap().1);
        // Dense baseline: all layers at nominal.
        opts.sparsity_throttling = false;
        let base = compile(&net, &chip, &opts);
        assert!(base.layers.iter().all(|l| l.effective_ghz == chip.freq_ghz));
    }
}
