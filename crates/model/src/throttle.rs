//! Sparsity-aware frequency-throttling study (Fig 16).
//!
//! Baseline: the power-control module must assume dense weights, so every
//! layer runs at the dense throttled clock `f_eff(0)`. With the
//! compiler-guided schedule, each layer runs at the clock its measured
//! weight sparsity affords. Auxiliary (SFU-only) phases draw little array
//! power and run un-throttled in both configurations.

use crate::inference::{evaluate_inference, InferenceResult};
use rapid_arch::geometry::ChipConfig;
use rapid_arch::power::{effective_frequency_ghz, F_MAX_GHZ};
use rapid_arch::precision::Precision;
use rapid_compiler::passes::compile;
use rapid_compiler::plan::NetworkPlan;
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

/// The study's two FP16 plans, `[baseline, throttled]`. Compute layers
/// run at the dense-budget clock in the baseline and at the clock their
/// `pruned_sparsity` affords in the throttled plan; auxiliary layers run
/// at [`F_MAX_GHZ`] in both. The chip is the 4-core RaPiD chip.
fn clocked_plans(net: &Network) -> [NetworkPlan; 2] {
    let plan = |compute_ghz: &dyn Fn(f64) -> f64| {
        let mut plan = compile(net, &ChipConfig::rapid_4core(), Precision::Fp16);
        for (lp, layer) in plan.layers.iter_mut().zip(&net.layers) {
            lp.effective_ghz = if layer.op.is_compute() {
                compute_ghz(layer.pruned_sparsity)
            } else {
                F_MAX_GHZ
            };
        }
        plan
    };
    let dense_ghz = effective_frequency_ghz(0.0);
    [plan(&|_| dense_ghz), plan(&effective_frequency_ghz)]
}

/// Runs the Fig 16 study on a *pruned* network (layers must carry
/// `pruned_sparsity`; see `rapid_workloads::apply_pruning_profile`).
/// The study uses FP16 execution, matching the paper's pruned checkpoints,
/// on the 4-core RaPiD chip under [`rapid_arch::power`]'s throttle model.
pub fn throttling_study(net: &Network) -> ThrottleStudy {
    let chip = ChipConfig::rapid_4core();
    let [base_plan, sparse_plan] = clocked_plans(net);
    ThrottleStudy {
        network: net.name.clone(),
        avg_sparsity: net.average_pruned_sparsity(),
        baseline: evaluate_inference(net, &base_plan, &chip, 1),
        throttled: evaluate_inference(net, &sparse_plan, &chip, 1),
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
        throttling_study(&net)
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

    /// Pruned vgg16's two plans and the network they clock.
    fn vgg16_plans() -> (Network, [NetworkPlan; 2]) {
        let mut net = benchmark("vgg16").unwrap();
        apply_pruning_profile(&mut net);
        let plans = clocked_plans(&net);
        (net, plans)
    }

    #[test]
    fn throttled_compute_layers_run_at_their_sparsity_clock() {
        let (net, [_, throttled]) = vgg16_plans();
        let mut by_sparsity = Vec::new();
        for (layer, lp) in net.layers.iter().zip(&throttled.layers) {
            if layer.op.is_compute() {
                let ghz = effective_frequency_ghz(layer.pruned_sparsity);
                assert_eq!(lp.effective_ghz, ghz, "{}", layer.name);
                by_sparsity.push((layer.pruned_sparsity, ghz));
            }
        }
        // A sparser layer gets a faster clock.
        by_sparsity.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (first, last) = (by_sparsity[0], by_sparsity[by_sparsity.len() - 1]);
        assert!(last.0 > first.0, "vgg16's profile varies sparsity across layers");
        assert!(last.1 > first.1, "{first:?} vs {last:?}");
        for pair in by_sparsity.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{pair:?}");
        }
    }

    #[test]
    fn auxiliary_layers_run_at_f_max_in_both_plans() {
        let (net, plans) = vgg16_plans();
        assert!(net.layers.iter().any(|l| !l.op.is_compute()));
        for plan in &plans {
            for (layer, lp) in net.layers.iter().zip(&plan.layers) {
                if !layer.op.is_compute() {
                    assert_eq!(lp.effective_ghz, F_MAX_GHZ, "{}", layer.name);
                }
            }
        }
    }

    #[test]
    fn baseline_compute_layers_run_at_the_dense_clock() {
        let (net, [baseline, _]) = vgg16_plans();
        let dense_ghz = effective_frequency_ghz(0.0);
        assert!(dense_ghz < F_MAX_GHZ);
        for (layer, lp) in net.layers.iter().zip(&baseline.layers) {
            if layer.op.is_compute() {
                assert_eq!(lp.effective_ghz, dense_ghz, "{}", layer.name);
            }
        }
    }
}
