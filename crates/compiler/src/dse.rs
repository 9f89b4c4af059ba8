//! Mixed-precision design-space exploration (paper §IV-B: "a systematic
//! design space exploration is performed ... guided by a bandwidth-centric
//! analytical power-performance model").
//!
//! The paper's key precision observation (§I feature 1) is that *selected*
//! computations must stay high precision. This pass explores the spectrum
//! between all-FP16 and fully-quantized plans: layers are ranked by how
//! much latency quantizing them saves (benefit-per-MAC), and plans are
//! produced that quantize only the most profitable fraction — the
//! latency/aggressiveness frontier a deployment would tune against its
//! accuracy budget.

use crate::mapping::map_layer;
use crate::passes::compile;
use crate::plan::{NetworkPlan, QuantCost};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_workloads::graph::{Network, PrecisionClass};

/// One point on the mixed-precision frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Fraction of quantizable MACs actually executed at the target
    /// precision (0.0 = all-FP16 baseline, 1.0 = the full plan).
    pub quantized_mac_fraction: f64,
    /// Number of layers quantized.
    pub quantized_layers: usize,
    /// The plan realizing this point.
    pub plan: NetworkPlan,
}

/// Estimated cycles saved by quantizing one layer, per the mapping model.
fn layer_benefit(
    net: &Network,
    idx: usize,
    target: Precision,
    chip: &ChipConfig,
) -> f64 {
    let layer = &net.layers[idx];
    if !layer.op.is_compute() {
        return 0.0;
    }
    let corelets = chip.cores * chip.core.corelets;
    let fp16 = map_layer(&layer.op, Precision::Fp16, 1, &chip.core.corelet, corelets);
    let quant = map_layer(&layer.op, target, 1, &chip.core.corelet, corelets);
    (fp16.total_cycles() - quant.total_cycles()) * layer.repeat as f64
}

/// Builds plans quantizing the most profitable layers first, one plan per
/// requested MAC-coverage fraction (each in `[0, 1]`).
///
/// Returns one [`FrontierPoint`] per requested fraction, in order.
pub fn mixed_precision_frontier(
    net: &Network,
    chip: &ChipConfig,
    target: Precision,
    fractions: &[f64],
) -> Vec<FrontierPoint> {
    let full = compile(net, chip, target);

    // Rank quantizable layers by benefit per MAC, best first.
    let mut candidates: Vec<(usize, f64, u64)> = net
        .layers
        .iter()
        .enumerate()
        .filter(|(_, l)| l.op.is_compute() && l.class == PrecisionClass::Quantizable)
        .map(|(i, l)| {
            let macs = l.macs().max(1);
            (i, layer_benefit(net, i, target, chip) / macs as f64, macs)
        })
        .collect();
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total_q_macs: u64 = candidates.iter().map(|c| c.2).sum();

    fractions
        .iter()
        .map(|&frac| {
            let budget = (frac.clamp(0.0, 1.0) * total_q_macs as f64) as u64;
            let mut plan = full.clone();
            // Start from an all-FP16 assignment of quantizable layers.
            for (i, l) in net.layers.iter().enumerate() {
                if l.op.is_compute() && l.class == PrecisionClass::Quantizable {
                    plan.layers[i].precision = Precision::Fp16;
                    plan.layers[i].quant = QuantCost::None;
                }
            }
            let mut used = 0u64;
            let mut count = 0usize;
            for &(i, _, macs) in &candidates {
                if used + macs > budget {
                    continue;
                }
                used += macs;
                count += 1;
                plan.layers[i].precision = full.layers[i].precision;
                plan.layers[i].quant = full.layers[i].quant;
            }
            FrontierPoint {
                quantized_mac_fraction: if total_q_macs == 0 {
                    0.0
                } else {
                    used as f64 / total_q_macs as f64
                },
                quantized_layers: count,
                plan,
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::suite::benchmark;

    #[test]
    fn frontier_endpoints() {
        let net = benchmark("resnet50").unwrap();
        let chip = ChipConfig::rapid_4core();
        let pts =
            mixed_precision_frontier(&net, &chip, Precision::Int4, &[0.0, 0.5, 1.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].quantized_layers, 0);
        assert!(pts[0].plan.layers.iter().all(|l| l.precision == Precision::Fp16));
        assert!(pts[2].quantized_mac_fraction > 0.99);
        // Monotone coverage.
        assert!(pts[1].quantized_mac_fraction <= pts[2].quantized_mac_fraction);
        assert!(pts[1].quantized_mac_fraction >= pts[0].quantized_mac_fraction);
    }

    #[test]
    fn coverage_never_exceeds_request() {
        let net = benchmark("vgg16").unwrap();
        let chip = ChipConfig::rapid_4core();
        for &f in &[0.2, 0.6, 0.9] {
            let pts = mixed_precision_frontier(&net, &chip, Precision::Int4, &[f]);
            assert!(pts[0].quantized_mac_fraction <= f + 1e-9, "fraction {f}: {pts:?}");
        }
    }

    #[test]
    fn high_precision_layers_never_quantize() {
        let net = benchmark("resnet50").unwrap();
        let chip = ChipConfig::rapid_4core();
        let pts = mixed_precision_frontier(&net, &chip, Precision::Int4, &[1.0]);
        for (l, p) in net.layers.iter().zip(&pts[0].plan.layers) {
            if l.class == PrecisionClass::HighPrecision && l.op.is_compute() {
                assert_eq!(p.precision, Precision::Fp16, "{}", l.name);
            }
        }
    }
}
