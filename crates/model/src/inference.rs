//! End-to-end inference evaluation (Figs 13, 14, 16, 17, 18a).
//!
//! Per layer, the model composes (in [`crate::cost`]'s one per-layer
//! pricing): MPE cycles from the compiler's dataflow mapping (ideal +
//! overheads), quantization cycles on the SFU, auxiliary SFU cycles, and
//! double-buffered external-memory transfer time; the layer's wall time is
//! `max(on-chip time, memory time)` (§III-E: regular access patterns allow
//! fetch latency to be hidden behind compute). This module folds those
//! costs into the network's latency, breakdown and energy.

use crate::cost::{price_layer, CycleBreakdown, EnergyLedger, IDLE_ACTIVITY};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::power;
use rapid_arch::precision::Precision;
use rapid_compiler::plan::NetworkPlan;
use rapid_workloads::graph::Network;

/// Result of one inference evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Benchmark name.
    pub network: String,
    /// Quantized target precision of the plan.
    pub precision: Precision,
    /// Batch size.
    pub batch: u64,
    /// End-to-end latency for the batch, seconds.
    pub latency_s: f64,
    /// Inputs processed per second (Fig 13's "classifications per second").
    pub throughput_per_s: f64,
    /// Compute-cycle breakdown (Fig 17).
    pub breakdown: CycleBreakdown,
    /// Seconds during which external memory is the bottleneck.
    pub memory_bound_s: f64,
    /// Energy per batch.
    pub energy: EnergyLedger,
    /// Average power in watts.
    pub avg_power_w: f64,
    /// Sustained useful throughput in T(FL)OPS (2 × MACs / latency).
    pub sustained_tops: f64,
    /// Sustained efficiency in T(FL)OPS/W (Fig 14).
    pub tops_per_w: f64,
}

/// Evaluates a compiled plan on a chip at a batch size.
///
/// # Panics
///
/// Panics if the plan does not match the network's layer count.
pub fn evaluate_inference(
    net: &Network,
    plan: &NetworkPlan,
    chip: &ChipConfig,
    batch: u64,
) -> InferenceResult {
    assert_eq!(net.layers.len(), plan.layers.len(), "plan/network mismatch");
    let dyn_scale = power::dyn_scale(chip.freq_ghz);

    let mut breakdown = CycleBreakdown::default();
    let mut energy = EnergyLedger::default();
    let mut latency_s = 0.0f64;
    let mut memory_bound_s = 0.0f64;
    let mut total_macs = 0u64;

    for (layer, lp) in net.layers.iter().zip(&plan.layers) {
        let c = price_layer(layer, lp, chip, batch);
        breakdown.conv_ideal += c.ideal;
        breakdown.conv_overhead += c.overhead;
        breakdown.quant += c.quant;
        breakdown.aux += c.aux;
        latency_s += c.wall_s();
        if c.mem_s > c.onchip_s {
            memory_bound_s += c.mem_s - c.onchip_s;
        }
        energy.sfu_j += c.lane_ops * power::SFU_OP_PJ * dyn_scale * 1e-12;
        if !layer.op.is_compute() {
            continue;
        }

        let macs = layer.macs() * batch;
        total_macs += macs;
        energy.mpe_j += macs as f64 * 2.0 * power::mpe_op_pj(lp.precision) * dyn_scale * 1e-12;
        // Overhead cycles toggle the array at a reduced activity.
        let array_macs_per_cycle = chip.macs_per_cycle(lp.precision) as f64;
        energy.mpe_idle_j += c.overhead
            * array_macs_per_cycle
            * 2.0
            * power::mpe_op_pj(lp.precision)
            * IDLE_ACTIVITY
            * dyn_scale
            * 1e-12;
        // Scratchpad streaming: inputs and outputs each traverse L1+L0
        // once, weights once.
        let rep = layer.repeat as f64;
        let act_elems = (layer.op.input_elems() + 2 * layer.op.output_elems()) as f64
            * rep
            * batch as f64;
        let sram_bytes = act_elems * lp.precision.bytes()
            + layer.op.weight_elems() as f64 * rep * lp.precision.bytes();
        energy.sram_j += sram_bytes
            * (power::L1_BYTE_PJ + power::L0_BYTE_PJ)
            * dyn_scale
            * 1e-12;
        energy.dram_j += c.dram_bytes() * power::DRAM_BYTE_PJ * 1e-12;
        // Input activations multicast over the on-chip ring (average two
        // hops).
        energy.interconnect_j += c.dram_bytes() * power::RING_BYTE_HOP_PJ * 2.0 * 1e-12;
    }

    energy.static_j = power::static_power_w(chip.cores, chip.freq_ghz) * latency_s;
    let avg_power_w = if latency_s > 0.0 { energy.total() / latency_s } else { 0.0 };
    let sustained_tops = total_macs as f64 * 2.0 / latency_s / 1e12;
    InferenceResult {
        network: net.name.clone(),
        precision: plan.target,
        batch,
        latency_s,
        throughput_per_s: batch as f64 / latency_s,
        breakdown,
        memory_bound_s,
        energy,
        avg_power_w,
        sustained_tops,
        tops_per_w: sustained_tops / avg_power_w,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_compiler::passes::compile;
    use rapid_workloads::suite::benchmark;

    fn run(name: &str, p: Precision) -> InferenceResult {
        let net = benchmark(name).unwrap();
        let chip = ChipConfig::rapid_4core();
        let plan = compile(&net, &chip, p);
        evaluate_inference(&net, &plan, &chip, 1)
    }

    #[test]
    fn int4_beats_fp8_beats_fp16() {
        // The paper's headline ordering (Fig 13) on a compute-heavy net.
        let fp16 = run("resnet50", Precision::Fp16);
        let fp8 = run("resnet50", Precision::Hfp8);
        let int4 = run("resnet50", Precision::Int4);
        assert!(fp8.latency_s < fp16.latency_s);
        assert!(int4.latency_s < fp8.latency_s);
    }

    #[test]
    fn resnet50_int4_speedup_in_paper_band() {
        // Fig 13: INT4 end-to-end speedups are 1.4×–4.2× over FP16.
        let fp16 = run("resnet50", Precision::Fp16);
        let int4 = run("resnet50", Precision::Int4);
        let speedup = fp16.latency_s / int4.latency_s;
        assert!((1.4..=4.4).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn mobilenet_benefits_least() {
        // "mobile networks with lean convolutions and a significant
        // fraction of auxiliary operations benefit the least."
        let mob16 = run("mobilenetv1", Precision::Fp16);
        let mob4 = run("mobilenetv1", Precision::Int4);
        let vgg16 = run("vgg16", Precision::Fp16);
        let vgg4 = run("vgg16", Precision::Int4);
        let mob_speedup = mob16.latency_s / mob4.latency_s;
        let vgg_speedup = vgg16.latency_s / vgg4.latency_s;
        assert!(mob_speedup < vgg_speedup, "mob {mob_speedup} vs vgg {vgg_speedup}");
    }

    #[test]
    fn int4_efficiency_in_paper_band() {
        // Fig 14: INT4 sustained efficiency spans 3–13.5 TOPS/W.
        for name in ["vgg16", "resnet50", "mobilenetv1"] {
            let r = run(name, Precision::Int4);
            assert!(
                (1.5..18.0).contains(&r.tops_per_w),
                "{name}: {} TOPS/W",
                r.tops_per_w
            );
        }
    }

    #[test]
    fn breakdown_fractions_are_sane() {
        // Fig 17: on average Conv/GEMM ≈ 50%, the rest split between
        // overheads, quantization and aux.
        let r = run("resnet50", Precision::Int4);
        let f = r.breakdown.fractions();
        assert!(f[0] > 0.2 && f[0] < 0.8, "conv fraction {}", f[0]);
        assert!(f[3] > 0.02, "aux fraction {}", f[3]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_sub_second_at_batch_1() {
        for name in ["resnet50", "bert", "lstm"] {
            let r = run(name, Precision::Int4);
            assert!(r.latency_s > 1e-6 && r.latency_s < 1.0, "{name}: {}", r.latency_s);
        }
    }

    #[test]
    fn energy_ledger_is_positive_and_dominated_by_dynamic_terms() {
        let r = run("vgg16", Precision::Int4);
        assert!(r.energy.mpe_j > 0.0);
        assert!(r.energy.dram_j > 0.0);
        assert!(r.avg_power_w > 1.0 && r.avg_power_w < 30.0, "power {}", r.avg_power_w);
    }
}
