//! The paper's 11-benchmark suite (§V-A) and the pruned-model sparsity
//! profiles used by the sparsity-aware throttling study (Fig 16).

use crate::cnn;
use crate::detection;
use crate::graph::{Network, PrecisionClass};
use crate::nlp;

/// Returns the full 11-benchmark suite in the paper's order:
/// image classification (VGG16, ResNet50, InceptionV3, InceptionV4,
/// MobileNetV1), object detection (SSD300, YOLOv3, YOLOv3-Tiny), natural
/// language (BERT, LSTM) and speech (BiLSTM).
pub fn benchmark_suite() -> Vec<Network> {
    vec![
        cnn::vgg16(),
        cnn::resnet50(),
        cnn::inception_v3(),
        cnn::inception_v4(),
        cnn::mobilenet_v1(),
        detection::ssd300(),
        detection::yolov3(),
        detection::yolov3_tiny(),
        nlp::bert_base_384(),
        nlp::lstm_ptb(),
        nlp::bilstm_swb300(),
    ]
}

/// The benchmarks with publicly available pruned checkpoints used by the
/// sparsity-aware throttling study (paper §V-D, refs [55–58]): CNNs,
/// detectors and BERT — the study predates pruned RNN releases.
pub fn pruned_study_suite() -> Vec<Network> {
    const NAMES: [&str; 8] = [
        "vgg16",
        "resnet50",
        "inception3",
        "mobilenetv1",
        "ssd300",
        "yolov3",
        "tiny-yolov3",
        "bert",
    ];
    benchmark_suite().into_iter().filter(|n| NAMES.contains(&n.name.as_str())).collect()
}

/// Looks up one benchmark by its paper label.
pub fn benchmark(name: &str) -> Option<Network> {
    benchmark_suite().into_iter().find(|n| n.name == name)
}

/// Target MAC-weighted average weight sparsity of the publicly available
/// pruned variants the paper uses ([55–58]; §V-D: "average sparsity varies
/// between 50%–80%").
pub(crate) fn pruned_target_sparsity(name: &str) -> Option<f64> {
    Some(match name {
        "vgg16" => 0.80,       // AGP prunes VGG heavily [55, 56]
        "resnet50" => 0.65,    // [55]
        "inception3" => 0.62,  // [55]
        "inception4" => 0.60,
        "mobilenetv1" => 0.50, // lean convolutions prune least [55]
        "ssd300" => 0.65,      // [57]
        "yolov3" => 0.60,
        "tiny-yolov3" => 0.55,
        "bert" => 0.55,        // [58]
        "lstm" => 0.70,        // RNNs prune well [55]
        "bilstm" => 0.60,
        _ => return None,
    })
}

/// Applies a per-layer pruning profile so the MAC-weighted average weight
/// sparsity equals the benchmark's published target. High-precision
/// (first/last) layers are pruned lightly, as in the public checkpoints;
/// larger layers absorb proportionally more sparsity, with a deterministic
/// layer-to-layer ripple so the profile is not flat.
///
/// Returns the achieved MAC-weighted average.
pub fn apply_pruning_profile(net: &mut Network) -> f64 {
    let target = pruned_target_sparsity(&net.name).unwrap_or(0.6);
    const HP_SPARSITY: f64 = 0.20;

    // First pass: raw shape — HP layers fixed, others get target modulated
    // by a ±0.15 ripple and a size bonus for wide layers.
    let weights: Vec<u64> =
        net.layers.iter().map(|l| l.op.weight_elems() * l.repeat).collect();
    let max_w = weights.iter().copied().max().unwrap_or(1).max(1) as f64;
    let mut raw = Vec::with_capacity(net.layers.len());
    for (i, layer) in net.layers.iter().enumerate() {
        if !layer.op.is_compute() || layer.op.weight_elems() == 0 {
            raw.push(0.0);
            continue;
        }
        if layer.class == PrecisionClass::HighPrecision {
            raw.push(HP_SPARSITY);
            continue;
        }
        let ripple = 0.15 * ((i as f64) * 0.7).sin();
        let size_bonus = 0.10 * (weights[i] as f64 / max_w).sqrt();
        raw.push((target + ripple + size_bonus).clamp(0.25, 0.92));
    }

    // Second pass: scale the prunable (quantizable, weighted) layers so
    // *their* MAC-weighted mean hits the target exactly; the lightly-pruned
    // first/last layers stay fixed, as in the public checkpoints.
    let macs: Vec<f64> = net.layers.iter().map(|l| l.macs() as f64).collect();
    let is_prunable = |l: &crate::graph::Layer| {
        l.class == PrecisionClass::Quantizable && l.op.is_compute() && l.op.weight_elems() > 0
    };
    let q_macs: f64 = net
        .layers
        .iter()
        .enumerate()
        .filter(|(_, l)| is_prunable(l))
        .map(|(i, _)| macs[i])
        .sum();
    let q_contrib: f64 = net
        .layers
        .iter()
        .enumerate()
        .filter(|(_, l)| is_prunable(l))
        .map(|(i, _)| raw[i] * macs[i])
        .sum();
    if q_contrib > 0.0 {
        let scale = target * q_macs / q_contrib;
        for (i, layer) in net.layers.iter().enumerate() {
            if is_prunable(layer) {
                raw[i] = (raw[i] * scale).clamp(0.0, 0.95);
            }
        }
    }

    for (layer, s) in net.layers.iter_mut().zip(&raw) {
        layer.pruned_sparsity = *s;
    }
    // Achieved MAC-weighted average over the prunable layers.
    if q_macs > 0.0 {
        net.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| is_prunable(l))
            .map(|(i, l)| l.pruned_sparsity * macs[i])
            .sum::<f64>()
            / q_macs
    } else {
        net.average_pruned_sparsity()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_benchmarks() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 11);
        let names: Vec<&str> = suite.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"resnet50"));
        assert!(names.contains(&"bert"));
        assert!(names.contains(&"bilstm"));
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("vgg16").is_some());
        assert!(benchmark("alexnet").is_none());
    }

    #[test]
    fn pruning_hits_target_within_tolerance() {
        for mut net in benchmark_suite() {
            let target = pruned_target_sparsity(&net.name).unwrap();
            let achieved = apply_pruning_profile(&mut net);
            assert!(
                (achieved - target).abs() < 0.05,
                "{}: achieved {achieved}, target {target}",
                net.name
            );
        }
    }

    #[test]
    fn pruning_targets_span_paper_band() {
        // §V-D: average sparsity varies between 50% and 80%.
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        for net in benchmark_suite() {
            let t = pruned_target_sparsity(&net.name).unwrap();
            lo = lo.min(t);
            hi = hi.max(t);
        }
        assert_eq!(lo, 0.50);
        assert_eq!(hi, 0.80);
    }

    #[test]
    fn hp_layers_prune_lightly() {
        let mut net = cnn::resnet50();
        apply_pruning_profile(&mut net);
        for l in &net.layers {
            if l.class == PrecisionClass::HighPrecision && l.op.is_compute() {
                assert!(l.pruned_sparsity <= 0.25, "{}: {}", l.name, l.pruned_sparsity);
            }
        }
    }

    #[test]
    fn pruning_profile_is_not_flat() {
        let mut net = cnn::vgg16();
        apply_pruning_profile(&mut net);
        let s: Vec<f64> = net
            .layers
            .iter()
            .filter(|l| l.op.weight_elems() > 0)
            .map(|l| l.pruned_sparsity)
            .collect();
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        let max = s.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.1, "profile too flat: {min}..{max}");
    }
}
