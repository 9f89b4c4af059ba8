//! Core- and chip-count scaling sweeps (Fig 18), and the degraded-core
//! and elastic-ring curves priced by the same two sweeps.

use crate::inference::evaluate_inference;
use crate::training::evaluate_training;
use rapid_arch::geometry::{ChipConfig, SystemConfig};
use rapid_arch::precision::Precision;
use rapid_compiler::passes::compile;
use rapid_workloads::graph::Network;

/// One point of a scaling sweep. Callers derive ratios against a base
/// point: Fig 18(a)'s speedup and the degraded-core slowdown divide
/// latencies, Fig 18(b)'s speedup and the elastic retention divide
/// throughputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Scaled resource count (cores or chips).
    pub count: u32,
    /// Batch-1 inference latency ([`core_sweep`]) or training step time
    /// ([`chip_sweep`]), seconds.
    pub latency_s: f64,
    /// Absolute throughput (inputs/s).
    pub throughput: f64,
}

/// Batch-1 inference at `precision` on the RaPiD chip resized to each
/// core count in `cores`, with the external memory bandwidth held fixed.
///
/// Fig 18(a) sweeps INT4 over 1 → 32 cores (paper: "we fixed the external
/// bandwidth even as we scale the number of cores"); its speedup is
/// `pts[0].latency_s / p.latency_s`. A chip that lost cores is the same
/// sweep from the healthy count down: the failed cores' work is remapped
/// across the survivors and the memory interface is not on a core, so
/// the slowdown is `p.latency_s / pts[0].latency_s`.
pub fn core_sweep(
    net: &Network,
    cores: impl IntoIterator<Item = u32>,
    precision: Precision,
) -> Vec<ScalePoint> {
    cores
        .into_iter()
        .map(|count| {
            let chip = ChipConfig::rapid_4core().with_cores(count);
            let plan = compile(net, &chip, precision);
            let r = evaluate_inference(net, &plan, &chip, 1);
            ScalePoint { count, latency_s: r.latency_s, throughput: r.throughput_per_s }
        })
        .collect()
}

/// Analytic goodput-retention floor after quarantining `quarantined` of
/// `world` cores: `(world − k) / world`, the linear capacity law of the
/// column remap (every output column is an independent accumulation, so
/// losing a core removes exactly its share of the compute and nothing
/// else — memory bandwidth is not on a core).
///
/// `health_sweep` (E24) hard-asserts measured post-quarantine goodput
/// stays at or above this curve: the health layer may only cost the
/// capacity of the cores it removed, never more. Returns 0.0 when every
/// core is quarantined and 1.0 for `world == 0` (nothing to lose).
pub fn quarantine_retention(world: u32, quarantined: u32) -> f64 {
    if world == 0 {
        return 1.0;
    }
    f64::from(world.saturating_sub(quarantined)) / f64::from(world)
}

/// HFP8 data-parallel training on the 4×32 training system resized to
/// each chip count in `chips`, at a fixed global `minibatch` and fixed
/// 128 GBps chip-to-chip bandwidth.
///
/// Fig 18(b) sweeps 1 → 32 chips; its speedup is
/// `p.throughput / pts[0].throughput`. The elastic ring's post-heal
/// steady state is the same sweep from the full world down: the
/// surviving ring carries the full minibatch (per-chip share grows) over
/// shorter all-reduce hops, and the retention is that same ratio.
///
/// # Panics
///
/// Panics if `minibatch` is smaller than a chip count.
pub fn chip_sweep(
    net: &Network,
    chips: impl IntoIterator<Item = u32>,
    minibatch: u64,
) -> Vec<ScalePoint> {
    chips
        .into_iter()
        .map(|count| {
            let sys = SystemConfig::training_4x32().with_chips(count);
            let r = evaluate_training(net, &sys, Precision::Hfp8, minibatch);
            ScalePoint { count, latency_s: r.step_time_s, throughput: r.inputs_per_s }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::suite::benchmark;

    /// Fig 18(a): INT4 speedups over the first core count.
    fn inference_speedups(net: &Network, cores: &[u32]) -> Vec<f64> {
        let pts = core_sweep(net, cores.iter().copied(), Precision::Int4);
        pts.iter().map(|p| pts[0].latency_s / p.latency_s).collect()
    }

    /// Fig 18(b): HFP8 training speedups over the first chip count.
    fn training_speedups(net: &Network, chips: &[u32]) -> Vec<f64> {
        let pts = chip_sweep(net, chips.iter().copied(), 512);
        pts.iter().map(|p| p.throughput / pts[0].throughput).collect()
    }

    #[test]
    fn quarantine_retention_is_the_linear_capacity_law() {
        assert_eq!(quarantine_retention(4, 0), 1.0);
        assert_eq!(quarantine_retention(4, 1), 0.75);
        assert_eq!(quarantine_retention(4, 4), 0.0);
        assert_eq!(quarantine_retention(4, 9), 0.0, "over-quarantine saturates");
        assert_eq!(quarantine_retention(0, 3), 1.0, "empty world loses nothing");
    }

    #[test]
    fn compute_heavy_nets_scale_to_32_cores() {
        // Fig 18a: "Compute-intensive benchmarks like VGG16, Resnet50,
        // Yolov3, SSD300 show performance improvement even as we scale to
        // 32 cores."
        for name in ["vgg16", "resnet50", "yolov3", "ssd300"] {
            let net = benchmark(name).unwrap();
            let s = inference_speedups(&net, &[1, 2, 4, 8, 16, 32]);
            assert!(s[5] > s[4], "{name}: no gain from 16→32 cores: {s:?}");
        }
        let net = benchmark("resnet50").unwrap();
        let s = inference_speedups(&net, &[1, 32]);
        assert!(s[1] > 8.0, "resnet50 32-core speedup {}", s[1]);
    }

    #[test]
    fn aux_and_memory_dominated_nets_saturate() {
        // Fig 18a: aux-dominated (MobileNetV1) and memory-stall-dominated
        // (LSTM) benchmarks saturate; their marginal gain from 16→32 cores
        // is well below a compute-heavy network's.
        let marginal = |name: &str| inference_speedups(&benchmark(name).unwrap(), &[16, 32])[1];
        let yolo = marginal("yolov3");
        assert!(marginal("mobilenetv1") < yolo, "mobilenet should trail yolov3");
        assert!(marginal("lstm") < yolo, "lstm should trail yolov3");
        assert!(marginal("lstm") < 1.15, "lstm 16→32 gain {}", marginal("lstm"));
    }

    #[test]
    fn speedup_is_monotone_nondecreasing_for_resnet() {
        let net = benchmark("resnet50").unwrap();
        let s = inference_speedups(&net, &[1, 2, 4, 8, 16, 32]);
        for w in s.windows(2) {
            assert!(w[1] >= w[0] * 0.95, "{s:?}");
        }
    }

    #[test]
    fn losing_a_core_costs_latency_but_bounded() {
        // The recovery layer's 4-core → 3-core curve: a single failed core
        // slows batch-1 inference, but by less than the naive 4/3 compute
        // ratio would suggest once memory/aux time is counted.
        let net = benchmark("resnet50").unwrap();
        let pts = core_sweep(&net, [4, 3], Precision::Int4);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].count, 4);
        assert_eq!(pts[1].count, 3);
        let slowdowns: Vec<f64> = pts.iter().map(|p| p.latency_s / pts[0].latency_s).collect();
        assert_eq!(slowdowns[0], 1.0);
        let slowdown = slowdowns[1];
        assert!(slowdown > 1.0, "3-core slowdown {slowdown}");
        assert!(slowdown < 4.0 / 3.0 + 0.05, "slowdown {slowdown}");
        assert!(pts[1].throughput < pts[0].throughput);
    }

    #[test]
    fn elastic_curve_degrades_monotonically_and_bounded() {
        let net = benchmark("resnet50").unwrap();
        let pts = chip_sweep(&net, (1..=4).rev(), 512);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].count, 4);
        let retention: Vec<f64> = pts.iter().map(|p| p.throughput / pts[0].throughput).collect();
        assert!((retention[0] - 1.0).abs() < f64::EPSILON);
        for (w, r) in pts.windows(2).zip(retention.windows(2)) {
            assert!(
                w[1].throughput <= w[0].throughput * 1.001,
                "losing a chip cannot speed training up: {pts:?}"
            );
            assert!(r[1] <= r[0] * 1.001);
        }
        // Losing 1 of 4 chips costs at most its compute share (plus it
        // shortens the ring, so the hit is strictly under 25% + slack).
        assert!(
            retention[1] > 0.5,
            "3-of-4 survivors must retain most of the throughput: {pts:?}"
        );
    }

    #[test]
    fn training_scales_with_chips_but_sublinearly() {
        let net = benchmark("resnet50").unwrap();
        let s32 = *training_speedups(&net, &[1, 2, 4, 8, 16, 32]).last().unwrap();
        assert!(s32 > 3.0, "32-chip speedup {s32}");
        assert!(s32 < 32.0, "32-chip speedup {s32} should be sublinear");
    }

    #[test]
    fn comm_heavy_vgg_saturates_earlier_than_resnet() {
        // VGG16's 138 M weights make the update-phase exchange dominate.
        let v = training_speedups(&benchmark("vgg16").unwrap(), &[1, 32]);
        let r = training_speedups(&benchmark("resnet50").unwrap(), &[1, 32]);
        assert!(v[1] < r[1], "vgg {} resnet {}", v[1], r[1]);
    }
}
