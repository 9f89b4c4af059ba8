//! Compilation passes: precision assignment and scratchpad spill analysis
//! (the Fig 6 flow). The flow's sparsity-aware throttling schedule, which
//! sets each layer's clock from its weight sparsity, is applied to the
//! compiled plan by `rapid_model::throttle`.

use crate::plan::{LayerPlan, NetworkPlan, QuantCost};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_workloads::graph::{Network, Op, PrecisionClass};

/// Compiles a network for a chip: assigns per-layer precision (first/last
/// layers stay FP16; quantizable layers take `target`), conversion costs
/// and spill decisions. Every layer runs at the chip's nominal clock; the
/// sparsity-aware throttling schedule sets each layer's clock on the plan
/// afterwards (`rapid_model::throttle`).
pub fn compile(net: &Network, chip: &ChipConfig, target: Precision) -> NetworkPlan {
    let mut layers = Vec::with_capacity(net.layers.len());
    for (idx, layer) in net.layers.iter().enumerate() {
        let precision = layer_precision(layer.class, &layer.op, target);
        layers.push(LayerPlan {
            layer_idx: idx,
            precision,
            quant: quant_cost(precision),
            spill_activations: spills(&layer.op, chip, precision),
            effective_ghz: chip.freq_ghz,
        });
    }
    NetworkPlan { network: net.name.clone(), target, layers }
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

/// Conversion cost of a layer that executes at `precision`.
fn quant_cost(precision: Precision) -> QuantCost {
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
    use rapid_workloads::cnn;

    #[test]
    fn first_and_last_layers_stay_fp16() {
        let net = cnn::resnet50();
        let chip = ChipConfig::rapid_4core();
        let plan = compile(&net, &chip, Precision::Int4);
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
        let int4 = compile(&net, &chip, Precision::Int4);
        let fp8 = compile(&net, &chip, Precision::Hfp8);
        let fp16 = compile(&net, &chip, Precision::Fp16);
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
}
