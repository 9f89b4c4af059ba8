//! Distributed training-step evaluation (Figs 15, 18b).
//!
//! The training system (paper §IV-A, Fig 11) is data-parallel: each chip
//! trains `minibatch / chips` samples, stashes forward activations to its
//! HBM, and exchanges weight gradients over the 128 GBps chip-to-chip
//! links during the update phase. In HFP8 mode the forward pass uses
//! 8-bit weights, so the weight-broadcast half of the exchange moves 8-bit
//! payloads (§V-F).

use crate::cost::{exposed_cycles, EnergyLedger, IDLE_ACTIVITY, PER_LAYER_OVERHEAD_CYCLES};
use rapid_arch::geometry::SystemConfig;
use rapid_arch::power;
use rapid_arch::precision::Precision;
use rapid_compiler::mapping::map_layer;
use rapid_compiler::passes::compile;
use rapid_workloads::graph::Network;

/// Cost of one backward pass (dgrad or wgrad) relative to the forward
/// pass: rotated kernels and weight-shaped reductions map worse onto the
/// weight-stationary dataflow.
const BACKWARD_DERATE: f64 = 1.4;

/// Result of one training-step evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingResult {
    /// Benchmark name.
    pub network: String,
    /// Training precision (FP16 baseline or HFP8).
    pub precision: Precision,
    /// Global minibatch size.
    pub minibatch: u64,
    /// Wall time of one training step, seconds.
    pub step_time_s: f64,
    /// Inputs trained per second (Fig 15).
    pub inputs_per_s: f64,
    /// Per-chip on-chip compute time, seconds.
    pub compute_s: f64,
    /// Per-chip HBM transfer time (activation stash + weights), seconds.
    pub memory_s: f64,
    /// Gradient/weight exchange time over the chip links, seconds.
    pub comm_s: f64,
    /// Sustained useful training throughput in T(FL)OPS
    /// (2 ops × 3 passes × MACs × minibatch / step time).
    pub sustained_tflops: f64,
    /// Energy per step across the system.
    pub energy: EnergyLedger,
}

/// Evaluates one training step of `net` on `system` at `precision`.
///
/// # Panics
///
/// Panics if `minibatch` is zero or smaller than the chip count.
pub fn evaluate_training(
    net: &Network,
    system: &SystemConfig,
    precision: Precision,
    minibatch: u64,
) -> TrainingResult {
    assert!(minibatch >= u64::from(system.chips), "minibatch must cover every chip");
    let chip = &system.chip;
    let local_batch = minibatch / u64::from(system.chips);
    // Data parallelism extends across the cores within a chip (paper §V-F:
    // "these studies used data-parallelism"): each core trains its own
    // slice of the chip's samples with a replica of the weights. At large
    // chip counts the per-core batch shrinks toward 1 and utilization
    // collapses — the Fig 18b saturation.
    let per_core_batch = local_batch.div_ceil(u64::from(chip.cores)).max(1);
    let plan = compile(net, chip, precision);
    let corelet = &chip.core.corelet;
    // Per-core resources: 2 corelets and their SFU lanes.
    let core_corelets = chip.core.corelets;
    let core_lanes = chip.core.sfu_ops_per_cycle() as f64;
    let f_hz = chip.freq_ghz * 1e9;
    let dyn_scale = power::dyn_scale(chip.freq_ghz);

    let mut compute_cycles = 0.0f64;
    let mut stash_bytes = 0.0f64;
    let mut total_macs = 0u64;
    let mut energy = EnergyLedger::default();

    for (layer, lp) in net.layers.iter().zip(&plan.layers) {
        let rep = layer.repeat as f64;
        if !layer.op.is_compute() {
            // Forward + backward auxiliary work (per core, on its slice).
            let cycles =
                2.0 * layer.aux_lane_cycles() * per_core_batch as f64 / core_lanes;
            compute_cycles += cycles;
            energy.sfu_j += 2.0
                * layer.aux_lane_cycles()
                * local_batch as f64
                * power::SFU_OP_PJ
                * dyn_scale
                * 1e-12;
            continue;
        }

        // Forward pass + dgrad + wgrad: the backward GEMMs move the same
        // MAC volumes (transposed), but map worse onto the
        // weight-stationary array — dgrad streams rotated kernels and
        // wgrad reduces over the batch/spatial axis into weight-shaped
        // outputs — so each backward pass is derated.
        let fwd =
            map_layer(&layer.op, lp.precision, per_core_batch, corelet, core_corelets);
        let passes = 1.0 + 2.0 * BACKWARD_DERATE;
        let exposed = exposed_cycles(&fwd);
        compute_cycles += passes * (exposed * rep + PER_LAYER_OVERHEAD_CYCLES * rep);

        // HFP8 conversions: activations, errors and weight copies re-round
        // once per pass (per core, on its slice).
        let out_elems = layer.op.output_elems() as f64 * rep * local_batch as f64;
        let core_out_elems = layer.op.output_elems() as f64 * rep * per_core_batch as f64;
        let conv_lane_ops = lp.quant.lane_cycles_per_elem() * core_out_elems * passes;
        compute_cycles += conv_lane_ops / core_lanes;
        energy.sfu_j += lp.quant.lane_cycles_per_elem()
            * out_elems
            * passes
            * power::SFU_OP_PJ
            * dyn_scale
            * 1e-12;

        // Optimizer: FP32 weight update + chunk-accumulated gradient
        // reduction on the SFU (≈6 lane-cycles per weight; every core
        // updates its own weight replica).
        let w_elems = layer.op.weight_elems() as f64 * rep;
        compute_cycles += 6.0 * w_elems / core_lanes;
        energy.sfu_j += 6.0
            * w_elems
            * f64::from(chip.cores)
            * power::SFU_OP_PJ
            * dyn_scale
            * 1e-12;

        // Backward data reorganization: wgrad and dgrad consume transposed
        // activation/error tiles, produced by the SFU permute engines.
        let shuffle_lane_ops = 2.0 * core_out_elems * 2.0;
        compute_cycles += shuffle_lane_ops / core_lanes;
        energy.sfu_j +=
            2.0 * out_elems * 2.0 * power::SFU_OP_PJ * dyn_scale * 1e-12;

        // Activation stash: forward activations (at the training precision)
        // and FP16 error tensors are written and read back for wgrad/dgrad
        // — "training is memory intensive as activations produced during
        // the forward pass need to be retained" (§V-C).
        // Each layer stashes both its forward activations (training
        // precision) and its FP16 error tensors, written once and read
        // back once; frameworks additionally retain pre-activation copies
        // for the non-linearity backward, doubling the footprint.
        stash_bytes += 4.0 * out_elems * (lp.precision.bytes() + 2.0);

        let macs = layer.macs() * local_batch * 3;
        total_macs += macs;
        energy.mpe_j +=
            macs as f64 * 2.0 * power::mpe_op_pj(lp.precision) * dyn_scale * 1e-12;
        energy.mpe_idle_j += passes
            * (fwd.overhead_cycles() * rep)
            * chip.macs_per_cycle(lp.precision) as f64
            * 2.0
            * power::mpe_op_pj(lp.precision)
            * IDLE_ACTIVITY
            * dyn_scale
            * 1e-12;
        let sram_bytes = (layer.op.input_elems() + 2 * layer.op.output_elems()) as f64
            * rep
            * local_batch as f64
            * passes
            * lp.precision.bytes();
        energy.sram_j +=
            sram_bytes * (power::L1_BYTE_PJ + power::L0_BYTE_PJ) * dyn_scale * 1e-12;
    }

    // Weights stream from HBM each pass when the model exceeds the chip's
    // distributed L1 (64 MB on the 32-core chip).
    let weight_bytes: f64 = net
        .layers
        .iter()
        .zip(&plan.layers)
        .filter(|(l, _)| l.op.is_compute())
        .map(|(l, lp)| l.op.weight_elems() as f64 * l.repeat as f64 * lp.precision.bytes())
        .sum();
    let l1_total = chip.cores as f64 * chip.core.l1_bytes as f64;
    let weight_traffic = if weight_bytes > 0.5 * l1_total { 3.0 * weight_bytes } else { 0.0 };

    let mem_bytes = stash_bytes + weight_traffic;
    let memory_s = mem_bytes / (chip.mem_bw_gbps * 1e9);
    energy.dram_j +=
        mem_bytes * power::HBM_BYTE_PJ * 1e-12 * f64::from(system.chips);

    let compute_s = compute_cycles / f_hz;

    // Update phase: ring all-reduce of FP16 gradients, then a broadcast of
    // updated weights at the training storage width (8-bit in HFP8 mode),
    // fully exposed after compute.
    let comm_s = if system.chips > 1 {
        let n = f64::from(system.chips);
        let grad_bytes = net.total_weights() as f64 * 2.0; // FP16 gradients
        let wcast_bytes = net.total_weights() as f64
            * if precision == Precision::Hfp8 { 1.0 } else { 2.0 };
        let bytes = (n - 1.0) / n * (grad_bytes + wcast_bytes);
        energy.interconnect_j +=
            bytes * power::LINK_BYTE_PJ * 1e-12 * f64::from(system.chips);
        bytes / (system.link_bw_gbps * 1e9)
    } else {
        0.0
    };

    let step_time_s = compute_s.max(memory_s) + comm_s;
    energy.static_j = power::static_power_w(chip.cores, chip.freq_ghz)
        * f64::from(system.chips)
        * step_time_s;
    // Dynamic energy above was accounted per chip for compute terms; scale
    // by chip count (every chip does the same local work).
    energy.mpe_j *= f64::from(system.chips);
    energy.mpe_idle_j *= f64::from(system.chips);
    energy.sfu_j *= f64::from(system.chips);
    energy.sram_j *= f64::from(system.chips);

    let total_system_macs = total_macs * u64::from(system.chips);
    TrainingResult {
        network: net.name.clone(),
        precision,
        minibatch,
        step_time_s,
        inputs_per_s: minibatch as f64 / step_time_s,
        compute_s,
        memory_s,
        comm_s,
        sustained_tflops: total_system_macs as f64 * 2.0 / step_time_s / 1e12,
        energy,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::suite::benchmark;

    fn run(name: &str, p: Precision) -> TrainingResult {
        let net = benchmark(name).unwrap();
        let sys = SystemConfig::training_4x32();
        evaluate_training(&net, &sys, p, 512)
    }

    #[test]
    fn hfp8_speedup_in_paper_band() {
        // Fig 15: HFP8 over FP16 training speedups range 1.1×–2×.
        for name in ["resnet50", "vgg16", "bert"] {
            let fp16 = run(name, Precision::Fp16);
            let hfp8 = run(name, Precision::Hfp8);
            let speedup = fp16.step_time_s / hfp8.step_time_s;
            assert!((1.05..=2.2).contains(&speedup), "{name}: speedup {speedup}");
        }
    }

    #[test]
    fn sustained_tflops_in_paper_band() {
        // "FP8 training ... achieves a sustained 102 - 588 TFLOPS".
        for name in ["vgg16", "resnet50", "bert"] {
            let r = run(name, Precision::Hfp8);
            assert!(
                (50.0..786.0).contains(&r.sustained_tflops),
                "{name}: {} TFLOPS",
                r.sustained_tflops
            );
        }
    }

    #[test]
    fn training_is_slower_per_input_than_inference_would_be() {
        let r = run("resnet50", Precision::Hfp8);
        // 512 inputs in a step; throughput should be meaningfully below the
        // pure-compute bound but nonzero.
        assert!(r.inputs_per_s > 100.0, "{}", r.inputs_per_s);
        assert!(r.step_time_s > r.comm_s);
    }

    #[test]
    fn hfp8_reduces_communication() {
        let fp16 = run("vgg16", Precision::Fp16);
        let hfp8 = run("vgg16", Precision::Hfp8);
        assert!(hfp8.comm_s < fp16.comm_s);
    }

    #[test]
    fn single_chip_has_no_comm() {
        let net = benchmark("resnet50").unwrap();
        let sys = SystemConfig::training_4x32().with_chips(1);
        let r = evaluate_training(&net, &sys, Precision::Hfp8, 512);
        assert_eq!(r.comm_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "minibatch must cover every chip")]
    fn tiny_minibatch_panics() {
        let net = benchmark("resnet50").unwrap();
        let sys = SystemConfig::training_4x32();
        let _ = evaluate_training(&net, &sys, Precision::Hfp8, 2);
    }
}
