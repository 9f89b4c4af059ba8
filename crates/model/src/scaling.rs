//! Core- and chip-count scaling sweeps (Fig 18).

use crate::cost::ModelConfig;
use crate::inference::evaluate_inference;
use crate::training::evaluate_training;
use rapid_arch::geometry::{ChipConfig, SystemConfig};
use rapid_arch::precision::Precision;
use rapid_compiler::passes::{compile, CompileOptions};
use rapid_workloads::graph::Network;

/// One point of a scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Scaled resource count (cores or chips).
    pub count: u32,
    /// Speedup relative to the count-1 configuration.
    pub speedup: f64,
    /// Absolute throughput (inputs/s).
    pub throughput: f64,
}

/// Fig 18(a): INT4 batch-1 inference speedup as the core count scales,
/// with the external memory bandwidth held fixed (paper: "we fixed the
/// external bandwidth even as we scale the number of cores").
pub fn inference_core_scaling(net: &Network, counts: &[u32], cfg: &ModelConfig) -> Vec<ScalePoint> {
    let mut points = Vec::with_capacity(counts.len());
    let mut base = None;
    for &cores in counts {
        let chip = ChipConfig::rapid_4core().with_cores(cores);
        let plan = compile(net, &chip, &CompileOptions::for_precision(Precision::Int4));
        let r = evaluate_inference(net, &plan, &chip, 1, cfg);
        let base_latency = *base.get_or_insert(r.latency_s);
        points.push(ScalePoint {
            count: cores,
            speedup: base_latency / r.latency_s,
            throughput: r.throughput_per_s,
        });
    }
    points
}

/// One point of a degraded-core sweep: the chip running on `survivors` of
/// its cores after failures, relative to the healthy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedPoint {
    /// Cores still alive.
    pub survivors: u32,
    /// Batch-1 inference latency on the survivors, seconds.
    pub latency_s: f64,
    /// Latency relative to the healthy chip (≥ 1.0; 1.0 = no slowdown).
    pub slowdown: f64,
    /// Absolute throughput on the survivors (inputs/s).
    pub throughput: f64,
}

/// Throughput of a chip that lost cores: the work of the failed cores is
/// remapped across the `survivors`, so the degraded chip is modeled as the
/// same chip with fewer cores — external memory bandwidth unchanged (the
/// memory interface is not on a core) — and the slowdown is the healthy
/// latency divided into the survivor latency.
///
/// Returns the healthy point followed by one point per failure, down to
/// `survivors_floor` cores (e.g. `healthy = 4, floor = 3` gives the
/// 4-core → 3-core inference latency curve the recovery layer reports).
pub fn degraded_throughput(
    net: &Network,
    healthy_cores: u32,
    survivors_floor: u32,
    precision: Precision,
    cfg: &ModelConfig,
) -> Vec<DegradedPoint> {
    let floor = survivors_floor.clamp(1, healthy_cores);
    let mut points = Vec::with_capacity((healthy_cores - floor + 1) as usize);
    let mut healthy_latency = None;
    for survivors in (floor..=healthy_cores).rev() {
        let chip = ChipConfig::rapid_4core().with_cores(survivors);
        let plan = compile(net, &chip, &CompileOptions::for_precision(precision));
        let r = evaluate_inference(net, &plan, &chip, 1, cfg);
        let base = *healthy_latency.get_or_insert(r.latency_s);
        points.push(DegradedPoint {
            survivors,
            latency_s: r.latency_s,
            slowdown: r.latency_s / base,
            throughput: r.throughput_per_s,
        });
    }
    points
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

/// One point of an elastic N-chip training curve: the system running on
/// `survivors` of its `world` chips after node losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticPoint {
    /// Chips the run started with.
    pub world: u32,
    /// Chips still in the ring.
    pub survivors: u32,
    /// HFP8 training throughput on the survivors (inputs/s).
    pub throughput: f64,
    /// Fraction of the full-world throughput retained (1.0 at
    /// `survivors == world`).
    pub retention: f64,
}

/// The N-chip elastic analogue of [`degraded_throughput`]: training
/// throughput as the ring shrinks from `world` chips down to
/// `survivors_floor`, at a fixed global minibatch. Each survivor count is
/// modeled as the same system with fewer chips — the elastic layer's
/// post-heal steady state, where the surviving ring carries the full
/// minibatch (per-chip share grows) over shorter all-reduce hops.
///
/// Returns the full-world point first, then one point per lost chip.
pub fn elastic_training_curve(
    net: &Network,
    world: u32,
    survivors_floor: u32,
    minibatch: u64,
    cfg: &ModelConfig,
) -> Vec<ElasticPoint> {
    let world = world.max(1);
    let floor = survivors_floor.clamp(1, world);
    let mut points = Vec::with_capacity((world - floor + 1) as usize);
    let mut full = None;
    for survivors in (floor..=world).rev() {
        let sys = SystemConfig::training_4x32().with_chips(survivors);
        let r = evaluate_training(net, &sys, Precision::Hfp8, minibatch, cfg);
        let base = *full.get_or_insert(r.inputs_per_s);
        points.push(ElasticPoint {
            world,
            survivors,
            throughput: r.inputs_per_s,
            retention: r.inputs_per_s / base,
        });
    }
    points
}

/// Fig 18(b): HFP8 training speedup as the chip count scales at a fixed
/// global minibatch and fixed 128 GBps chip-to-chip bandwidth.
pub fn training_chip_scaling(
    net: &Network,
    counts: &[u32],
    minibatch: u64,
    cfg: &ModelConfig,
) -> Vec<ScalePoint> {
    let mut points = Vec::with_capacity(counts.len());
    let mut base = None;
    for &chips in counts {
        let sys = SystemConfig::training_4x32().with_chips(chips);
        let r = evaluate_training(net, &sys, Precision::Hfp8, minibatch, cfg);
        let base_rate = *base.get_or_insert(r.inputs_per_s);
        points.push(ScalePoint {
            count: chips,
            speedup: r.inputs_per_s / base_rate,
            throughput: r.inputs_per_s,
        });
    }
    points
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::suite::benchmark;

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
            let pts =
                inference_core_scaling(&net, &[1, 2, 4, 8, 16, 32], &ModelConfig::default());
            assert!(
                pts[5].speedup > pts[4].speedup,
                "{name}: no gain from 16→32 cores: {pts:?}"
            );
        }
        let net = benchmark("resnet50").unwrap();
        let pts = inference_core_scaling(&net, &[1, 32], &ModelConfig::default());
        assert!(pts[1].speedup > 8.0, "resnet50 32-core speedup {}", pts[1].speedup);
    }

    #[test]
    fn aux_and_memory_dominated_nets_saturate() {
        // Fig 18a: aux-dominated (MobileNetV1) and memory-stall-dominated
        // (LSTM) benchmarks saturate; their marginal gain from 16→32 cores
        // is well below a compute-heavy network's.
        let cfg = ModelConfig::default();
        let marginal = |name: &str| {
            let net = benchmark(name).unwrap();
            let pts = inference_core_scaling(&net, &[16, 32], &cfg);
            pts[1].speedup
        };
        let yolo = marginal("yolov3");
        assert!(marginal("mobilenetv1") < yolo, "mobilenet should trail yolov3");
        assert!(marginal("lstm") < yolo, "lstm should trail yolov3");
        assert!(marginal("lstm") < 1.15, "lstm 16→32 gain {}", marginal("lstm"));
    }

    #[test]
    fn speedup_is_monotone_nondecreasing_for_resnet() {
        let net = benchmark("resnet50").unwrap();
        let pts = inference_core_scaling(&net, &[1, 2, 4, 8, 16, 32], &ModelConfig::default());
        for w in pts.windows(2) {
            assert!(w[1].speedup >= w[0].speedup * 0.95, "{:?}", pts);
        }
    }

    #[test]
    fn losing_a_core_costs_latency_but_bounded() {
        // The recovery layer's 4-core → 3-core curve: a single failed core
        // slows batch-1 inference, but by less than the naive 4/3 compute
        // ratio would suggest once memory/aux time is counted.
        let net = benchmark("resnet50").unwrap();
        let pts = degraded_throughput(&net, 4, 3, Precision::Int4, &ModelConfig::default());
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].survivors, 4);
        assert_eq!(pts[0].slowdown, 1.0);
        assert_eq!(pts[1].survivors, 3);
        assert!(pts[1].slowdown > 1.0, "3-core slowdown {}", pts[1].slowdown);
        assert!(pts[1].slowdown < 4.0 / 3.0 + 0.05, "slowdown {}", pts[1].slowdown);
        assert!(pts[1].throughput < pts[0].throughput);
    }

    #[test]
    fn elastic_curve_degrades_monotonically_and_bounded() {
        let net = benchmark("resnet50").unwrap();
        let pts = elastic_training_curve(&net, 4, 1, 512, &ModelConfig::default());
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].survivors, 4);
        assert!((pts[0].retention - 1.0).abs() < f64::EPSILON);
        for w in pts.windows(2) {
            assert!(
                w[1].throughput <= w[0].throughput * 1.001,
                "losing a chip cannot speed training up: {pts:?}"
            );
            assert!(w[1].retention <= w[0].retention * 1.001);
        }
        // Losing 1 of 4 chips costs at most its compute share (plus it
        // shortens the ring, so the hit is strictly under 25% + slack).
        assert!(
            pts[1].retention > 0.5,
            "3-of-4 survivors must retain most of the throughput: {pts:?}"
        );
    }

    #[test]
    fn training_scales_with_chips_but_sublinearly() {
        let net = benchmark("resnet50").unwrap();
        let pts = training_chip_scaling(&net, &[1, 2, 4, 8, 16, 32], 512, &ModelConfig::default());
        let s32 = pts.last().unwrap().speedup;
        assert!(s32 > 3.0, "32-chip speedup {s32}");
        assert!(s32 < 32.0, "32-chip speedup {s32} should be sublinear");
    }

    #[test]
    fn comm_heavy_vgg_saturates_earlier_than_resnet() {
        // VGG16's 138 M weights make the update-phase exchange dominate.
        let cfg = ModelConfig::default();
        let vgg = benchmark("vgg16").unwrap();
        let res = benchmark("resnet50").unwrap();
        let v = training_chip_scaling(&vgg, &[1, 32], 512, &cfg);
        let r = training_chip_scaling(&res, &[1, 32], 512, &cfg);
        assert!(v[1].speedup < r[1].speedup, "vgg {} resnet {}", v[1].speedup, r[1].speedup);
    }
}
