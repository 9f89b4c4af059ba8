//! Sparsity-aware frequency-throttling study (Fig 16).
//!
//! Baseline: the power-control module must assume dense weights, so every
//! layer runs at the dense throttled clock `f_eff(0)`. With the
//! compiler-guided schedule, each layer runs at the clock its measured
//! weight sparsity affords. Auxiliary (SFU-only) phases draw little array
//! power and run un-throttled in both configurations.

use crate::cost::ModelConfig;
use crate::inference::{evaluate_inference, InferenceResult};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::ThrottleModel;
use rapid_arch::precision::Precision;
use rapid_compiler::passes::{compile, CompileOptions};
use rapid_workloads::graph::Network;

/// Outcome of the throttling study for one pruned benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleStudy {
    /// Benchmark name.
    pub network: String,
    /// MAC-weighted average weight sparsity of the pruned model.
    pub avg_sparsity: f64,
    /// Latency with the sparsity-oblivious (dense-budget) clock.
    pub baseline: InferenceResult,
    /// Latency with the sparsity-aware schedule.
    pub throttled: InferenceResult,
}

impl ThrottleStudy {
    /// Speedup of sparsity-aware throttling over the dense-budget baseline
    /// (the Fig 16b bars).
    pub fn speedup(&self) -> f64 {
        self.baseline.latency_s / self.throttled.latency_s
    }
}

/// Runs the Fig 16 study on a *pruned* network (layers must carry
/// `pruned_sparsity`; see `rapid_workloads::apply_pruning_profile`).
/// The study uses FP16 execution, matching the paper's pruned checkpoints.
pub fn throttling_study(
    net: &Network,
    chip: &ChipConfig,
    throttle: &ThrottleModel,
    cfg: &ModelConfig,
) -> ThrottleStudy {
    let opts = CompileOptions::for_precision(Precision::Fp16);

    // Baseline: dense-budget clock everywhere (aux phases un-throttled).
    let mut base_plan = compile(net, chip, &opts);
    let dense_ghz = throttle.effective_frequency_ghz(0.0);
    for (lp, layer) in base_plan.layers.iter_mut().zip(&net.layers) {
        lp.effective_ghz = if layer.op.is_compute() { dense_ghz } else { throttle.f_max_ghz };
    }

    // Sparsity-aware: per-layer clock from the compiler's sparsity analysis.
    let mut sparse_plan = compile(net, chip, &opts);
    for (lp, layer) in sparse_plan.layers.iter_mut().zip(&net.layers) {
        lp.effective_ghz = if layer.op.is_compute() {
            throttle.effective_frequency_ghz(layer.pruned_sparsity)
        } else {
            throttle.f_max_ghz
        };
    }

    ThrottleStudy {
        network: net.name.clone(),
        avg_sparsity: net.average_pruned_sparsity(),
        baseline: evaluate_inference(net, &base_plan, chip, 1, cfg),
        throttled: evaluate_inference(net, &sparse_plan, chip, 1, cfg),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::suite::{apply_pruning_profile, benchmark};

    fn study(name: &str) -> ThrottleStudy {
        let mut net = benchmark(name).unwrap();
        apply_pruning_profile(&mut net);
        throttling_study(
            &net,
            &ChipConfig::rapid_4core(),
            &ThrottleModel::rapid_default(),
            &ModelConfig::default(),
        )
    }

    #[test]
    fn speedups_fall_in_fig16_band() {
        // Paper: 1.1×–1.7× (average 1.3×) across the pruned benchmarks.
        for name in ["vgg16", "resnet50", "ssd300", "bert"] {
            let s = study(name);
            assert!(
                (1.02..=1.75).contains(&s.speedup()),
                "{name}: speedup {} at sparsity {}",
                s.speedup(),
                s.avg_sparsity
            );
        }
    }

    #[test]
    fn sparser_models_speed_up_more() {
        let vgg = study("vgg16"); // 80% target sparsity
        let mob = study("mobilenetv1"); // 50% target sparsity
        assert!(vgg.speedup() > mob.speedup(), "vgg {} mob {}", vgg.speedup(), mob.speedup());
    }

    #[test]
    fn baseline_is_slower_than_nominal_unthrottled() {
        // The dense-budget clock is below f_max, so the baseline latency
        // exceeds the sparsity-aware latency.
        let s = study("resnet50");
        assert!(s.baseline.latency_s > s.throttled.latency_s);
    }
}
