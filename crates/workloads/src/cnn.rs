//! Image-classification benchmarks: VGG16, ResNet50, InceptionV3,
//! InceptionV4 and MobileNetV1 (ImageNet input resolutions).
//!
//! Layer dimensions follow the public model definitions; total MAC counts
//! are checked against the published numbers in the tests.

use crate::builder::CnnBuilder;
use crate::graph::{Domain, Network, PrecisionClass};

/// VGG16 at 224×224 (Simonyan & Zisserman): 13 3×3 convolutions + 3 FC.
pub fn vgg16() -> Network {
    let mut b = CnnBuilder::new("vgg16", Domain::ImageClassification, 3, 224, 224);
    b.first_conv_bn_relu(64, 3, 1, 1);
    b.conv_bn_relu(64, 3, 1, 1).pool(2, 2, 0);
    b.conv_bn_relu(128, 3, 1, 1).conv_bn_relu(128, 3, 1, 1).pool(2, 2, 0);
    b.conv_bn_relu(256, 3, 1, 1)
        .conv_bn_relu(256, 3, 1, 1)
        .conv_bn_relu(256, 3, 1, 1)
        .pool(2, 2, 0);
    b.conv_bn_relu(512, 3, 1, 1)
        .conv_bn_relu(512, 3, 1, 1)
        .conv_bn_relu(512, 3, 1, 1)
        .pool(2, 2, 0);
    b.conv_bn_relu(512, 3, 1, 1)
        .conv_bn_relu(512, 3, 1, 1)
        .conv_bn_relu(512, 3, 1, 1)
        .pool(2, 2, 0);
    b.fc(4096, PrecisionClass::Quantizable).relu();
    b.fc(4096, PrecisionClass::Quantizable).relu();
    b.fc(1000, PrecisionClass::HighPrecision).softmax();
    b.build()
}

/// One ResNet bottleneck block: 1×1 reduce, 3×3, 1×1 expand (+ projection
/// shortcut when the shape changes), with the residual add.
fn bottleneck(b: &mut CnnBuilder, width: u64, out: u64, stride: u64, project: bool) {
    let fork = b.shape();
    b.conv_bn_relu(width, 1, 1, 0);
    b.conv_bn_relu(width, 3, stride, 1);
    b.conv(out, 1, 1, 0).bn_relu();
    if project {
        let main = b.shape();
        b.restore(fork);
        b.conv(out, 1, stride, 0).bn_relu();
        b.restore(main);
    }
    b.eltwise_add();
}

/// ResNet50 v1.5 at 224×224 (He et al.).
pub fn resnet50() -> Network {
    let mut b = CnnBuilder::new("resnet50", Domain::ImageClassification, 3, 224, 224);
    b.first_conv_bn_relu(64, 7, 2, 3);
    b.pool(3, 2, 1);
    // Stage 1: 3 blocks, width 64, out 256, 56×56.
    bottleneck(&mut b, 64, 256, 1, true);
    for _ in 0..2 {
        bottleneck(&mut b, 64, 256, 1, false);
    }
    // Stage 2: 4 blocks, width 128, out 512, stride to 28×28.
    bottleneck(&mut b, 128, 512, 2, true);
    for _ in 0..3 {
        bottleneck(&mut b, 128, 512, 1, false);
    }
    // Stage 3: 6 blocks, width 256, out 1024, stride to 14×14.
    bottleneck(&mut b, 256, 1024, 2, true);
    for _ in 0..5 {
        bottleneck(&mut b, 256, 1024, 1, false);
    }
    // Stage 4: 3 blocks, width 512, out 2048, stride to 7×7.
    bottleneck(&mut b, 512, 2048, 2, true);
    for _ in 0..2 {
        bottleneck(&mut b, 512, 2048, 1, false);
    }
    b.global_pool();
    b.fc(1000, PrecisionClass::HighPrecision).softmax();
    b.build()
}

/// InceptionA module (35×35 grid). `pool_ch` is the pool-projection width.
fn inception_a(b: &mut CnnBuilder, pool_ch: u64) {
    let fork = b.shape();
    // Branch 1: 1×1 64.
    b.conv_bn_relu(64, 1, 1, 0);
    // Branch 2: 1×1 48 → 5×5 64.
    b.restore(fork).conv_bn_relu(48, 1, 1, 0).conv_bn_relu(64, 5, 1, 2);
    // Branch 3: 1×1 64 → 3×3 96 → 3×3 96.
    b.restore(fork)
        .conv_bn_relu(64, 1, 1, 0)
        .conv_bn_relu(96, 3, 1, 1)
        .conv_bn_relu(96, 3, 1, 1);
    // Branch 4: avg-pool 3×3 → 1×1 pool_ch.
    b.restore(fork).pool(3, 1, 1).conv_bn_relu(pool_ch, 1, 1, 0);
    b.set_channels(64 + 64 + 96 + pool_ch);
}

/// Grid-reduction A: 35×35 → 17×17.
fn reduction_a(b: &mut CnnBuilder, n: u64, k: u64, l: u64, m: u64) {
    let fork = b.shape();
    b.conv_bn_relu(n, 3, 2, 0);
    let out1 = b.shape();
    b.restore(fork)
        .conv_bn_relu(k, 1, 1, 0)
        .conv_bn_relu(l, 3, 1, 1)
        .conv_bn_relu(m, 3, 2, 0);
    b.restore(fork).pool(3, 2, 0);
    let pooled_c = fork.c;
    b.restore(out1);
    b.set_channels(n + m + pooled_c);
}

/// InceptionB module (17×17 grid) with 7×1/1×7 factorized convolutions.
fn inception_b(b: &mut CnnBuilder, c7: u64) {
    let fork = b.shape();
    b.conv_bn_relu(192, 1, 1, 0);
    b.restore(fork)
        .conv_bn_relu(c7, 1, 1, 0)
        .conv_asym_bn_relu(c7, 1, 7, 1, 0, 3)
        .conv_asym_bn_relu(192, 7, 1, 1, 3, 0);
    b.restore(fork)
        .conv_bn_relu(c7, 1, 1, 0)
        .conv_asym_bn_relu(c7, 7, 1, 1, 3, 0)
        .conv_asym_bn_relu(c7, 1, 7, 1, 0, 3)
        .conv_asym_bn_relu(c7, 7, 1, 1, 3, 0)
        .conv_asym_bn_relu(192, 1, 7, 1, 0, 3);
    b.restore(fork).pool(3, 1, 1).conv_bn_relu(192, 1, 1, 0);
    b.set_channels(768);
}

/// Grid-reduction B: 17×17 → 8×8.
fn reduction_b(b: &mut CnnBuilder) {
    let fork = b.shape();
    b.conv_bn_relu(192, 1, 1, 0).conv_bn_relu(320, 3, 2, 0);
    let out1 = b.shape();
    b.restore(fork)
        .conv_bn_relu(192, 1, 1, 0)
        .conv_asym_bn_relu(192, 1, 7, 1, 0, 3)
        .conv_asym_bn_relu(192, 7, 1, 1, 3, 0)
        .conv_bn_relu(192, 3, 2, 0);
    b.restore(fork).pool(3, 2, 0);
    b.restore(out1);
    b.set_channels(320 + 192 + fork.c);
}

/// InceptionC module (8×8 grid) with split 1×3 / 3×1 branches.
fn inception_c(b: &mut CnnBuilder) {
    let fork = b.shape();
    b.conv_bn_relu(320, 1, 1, 0);
    // Branch 2: 1×1 384 → {1×3 384, 3×1 384}.
    b.restore(fork).conv_bn_relu(384, 1, 1, 0);
    let mid = b.shape();
    b.conv_asym_bn_relu(384, 1, 3, 1, 0, 1);
    b.restore(mid).conv_asym_bn_relu(384, 3, 1, 1, 1, 0);
    // Branch 3: 1×1 448 → 3×3 384 → {1×3 384, 3×1 384}.
    b.restore(fork).conv_bn_relu(448, 1, 1, 0).conv_bn_relu(384, 3, 1, 1);
    let mid = b.shape();
    b.conv_asym_bn_relu(384, 1, 3, 1, 0, 1);
    b.restore(mid).conv_asym_bn_relu(384, 3, 1, 1, 1, 0);
    // Branch 4: pool → 1×1 192.
    b.restore(fork).pool(3, 1, 1).conv_bn_relu(192, 1, 1, 0);
    b.set_channels(320 + 768 + 768 + 192);
}

/// InceptionV3 at 299×299 (Szegedy et al.).
pub(crate) fn inception_v3() -> Network {
    let mut b = CnnBuilder::new("inception3", Domain::ImageClassification, 3, 299, 299);
    // Stem.
    b.first_conv_bn_relu(32, 3, 2, 0); // 149
    b.conv_bn_relu(32, 3, 1, 0); // 147
    b.conv_bn_relu(64, 3, 1, 1); // 147
    b.pool(3, 2, 0); // 73
    b.conv_bn_relu(80, 1, 1, 0);
    b.conv_bn_relu(192, 3, 1, 0); // 71
    b.pool(3, 2, 0); // 35
    // 3 × InceptionA.
    inception_a(&mut b, 32); // 256
    inception_a(&mut b, 64); // 288
    inception_a(&mut b, 64); // 288
    reduction_a(&mut b, 384, 64, 96, 96); // 768 @ 17
    for c7 in [128, 160, 160, 192] {
        inception_b(&mut b, c7);
    }
    reduction_b(&mut b); // 1280 @ 8
    inception_c(&mut b); // 2048
    inception_c(&mut b);
    b.global_pool();
    b.fc(1000, PrecisionClass::HighPrecision).softmax();
    b.build()
}

/// InceptionV4 at 299×299 (Szegedy et al. 2016).
pub(crate) fn inception_v4() -> Network {
    let mut b = CnnBuilder::new("inception4", Domain::ImageClassification, 3, 299, 299);
    // Stem.
    b.first_conv_bn_relu(32, 3, 2, 0); // 149
    b.conv_bn_relu(32, 3, 1, 0); // 147
    b.conv_bn_relu(64, 3, 1, 1); // 147
    let fork = b.shape();
    b.pool(3, 2, 0); // 73
    let pooled = b.shape();
    b.restore(fork).conv_bn_relu(96, 3, 2, 0); // 73
    b.set_channels(pooled.c + 96); // 160 @ 73
    let fork = b.shape();
    b.conv_bn_relu(64, 1, 1, 0).conv_bn_relu(96, 3, 1, 0); // 71
    let out1 = b.shape();
    b.restore(fork)
        .conv_bn_relu(64, 1, 1, 0)
        .conv_asym_bn_relu(64, 1, 7, 1, 0, 3)
        .conv_asym_bn_relu(64, 7, 1, 1, 3, 0)
        .conv_bn_relu(96, 3, 1, 0); // 71
    b.restore(out1);
    b.set_channels(192); // 192 @ 71
    let fork = b.shape();
    b.conv_bn_relu(192, 3, 2, 0); // 35
    let out1 = b.shape();
    b.restore(fork).pool(3, 2, 0);
    b.restore(out1);
    b.set_channels(384); // 384 @ 35
    // 4 × InceptionA (v4 flavour).
    for _ in 0..4 {
        let fork = b.shape();
        b.conv_bn_relu(96, 1, 1, 0);
        b.restore(fork).conv_bn_relu(64, 1, 1, 0).conv_bn_relu(96, 3, 1, 1);
        b.restore(fork)
            .conv_bn_relu(64, 1, 1, 0)
            .conv_bn_relu(96, 3, 1, 1)
            .conv_bn_relu(96, 3, 1, 1);
        b.restore(fork).pool(3, 1, 1).conv_bn_relu(96, 1, 1, 0);
        b.set_channels(384);
    }
    reduction_a(&mut b, 384, 192, 224, 256); // 1024 @ 17
    // 7 × InceptionB (v4 flavour).
    for _ in 0..7 {
        let fork = b.shape();
        b.conv_bn_relu(384, 1, 1, 0);
        b.restore(fork)
            .conv_bn_relu(192, 1, 1, 0)
            .conv_asym_bn_relu(224, 1, 7, 1, 0, 3)
            .conv_asym_bn_relu(256, 7, 1, 1, 3, 0);
        b.restore(fork)
            .conv_bn_relu(192, 1, 1, 0)
            .conv_asym_bn_relu(192, 7, 1, 1, 3, 0)
            .conv_asym_bn_relu(224, 1, 7, 1, 0, 3)
            .conv_asym_bn_relu(224, 7, 1, 1, 3, 0)
            .conv_asym_bn_relu(256, 1, 7, 1, 0, 3);
        b.restore(fork).pool(3, 1, 1).conv_bn_relu(128, 1, 1, 0);
        b.set_channels(1024);
    }
    // Reduction B (v4).
    let fork = b.shape();
    b.conv_bn_relu(192, 1, 1, 0).conv_bn_relu(192, 3, 2, 0); // 8
    let out1 = b.shape();
    b.restore(fork)
        .conv_bn_relu(256, 1, 1, 0)
        .conv_asym_bn_relu(256, 1, 7, 1, 0, 3)
        .conv_asym_bn_relu(320, 7, 1, 1, 3, 0)
        .conv_bn_relu(320, 3, 2, 0);
    b.restore(fork).pool(3, 2, 0);
    b.restore(out1);
    b.set_channels(192 + 320 + 1024); // 1536 @ 8
    // 3 × InceptionC (v4 flavour).
    for _ in 0..3 {
        let fork = b.shape();
        b.conv_bn_relu(256, 1, 1, 0);
        b.restore(fork).conv_bn_relu(384, 1, 1, 0);
        let mid = b.shape();
        b.conv_asym_bn_relu(256, 1, 3, 1, 0, 1);
        b.restore(mid).conv_asym_bn_relu(256, 3, 1, 1, 1, 0);
        b.restore(fork)
            .conv_bn_relu(384, 1, 1, 0)
            .conv_asym_bn_relu(448, 1, 3, 1, 0, 1)
            .conv_asym_bn_relu(512, 3, 1, 1, 1, 0);
        let mid = b.shape();
        b.conv_asym_bn_relu(256, 3, 1, 1, 1, 0);
        b.restore(mid).conv_asym_bn_relu(256, 1, 3, 1, 0, 1);
        b.restore(fork).pool(3, 1, 1).conv_bn_relu(256, 1, 1, 0);
        b.set_channels(1536);
    }
    b.global_pool();
    b.fc(1000, PrecisionClass::HighPrecision).softmax();
    b.build()
}

/// MobileNetV1 at 224×224 (Howard et al.): depthwise-separable blocks.
pub(crate) fn mobilenet_v1() -> Network {
    let mut b = CnnBuilder::new("mobilenetv1", Domain::ImageClassification, 3, 224, 224);
    b.first_conv_bn_relu(32, 3, 2, 1); // 112
    let blocks: [(u64, u64); 13] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (co, stride) in blocks {
        b.dwconv_bn_relu(3, stride, 1);
        b.conv_bn_relu(co, 1, 1, 0);
    }
    b.global_pool();
    b.fc(1000, PrecisionClass::HighPrecision).softmax();
    b.build()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::graph::Layer;

    #[test]
    fn vgg16_macs_match_published() {
        let net = vgg16();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~15.5 GMACs (30.9 GFLOPs).
        assert!((gmacs - 15.5).abs() < 0.3, "vgg16 {gmacs} GMACs");
        // ~138 M parameters.
        let mp = net.total_weights() as f64 / 1e6;
        assert!((mp - 138.0).abs() < 3.0, "vgg16 {mp} M params");
    }

    #[test]
    fn resnet50_macs_match_published() {
        let net = resnet50();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~4.1 GMACs.
        assert!((gmacs - 4.1).abs() < 0.3, "resnet50 {gmacs} GMACs");
        let mp = net.total_weights() as f64 / 1e6;
        assert!((mp - 25.5).abs() < 2.0, "resnet50 {mp} M params");
    }

    #[test]
    fn inception_v3_macs_match_published() {
        let net = inception_v3();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~5.7 GMACs (11.4 GFLOPs at 299×299).
        assert!((gmacs - 5.7).abs() < 0.9, "inception3 {gmacs} GMACs");
    }

    #[test]
    fn inception_v4_macs_match_published() {
        let net = inception_v4();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~12.3 GMACs.
        assert!((gmacs - 12.3).abs() < 1.8, "inception4 {gmacs} GMACs");
    }

    #[test]
    fn mobilenet_macs_match_published() {
        let net = mobilenet_v1();
        let mmacs = net.total_macs() as f64 / 1e6;
        // Published: ~569 MMACs.
        assert!((mmacs - 569.0).abs() < 30.0, "mobilenet {mmacs} MMACs");
        let mp = net.total_weights() as f64 / 1e6;
        assert!((mp - 4.2).abs() < 0.5, "mobilenet {mp} M params");
    }

    #[test]
    fn mobilenet_is_aux_heavy_relative_to_compute() {
        // The paper's Fig 13/17: mobile networks have lean convolutions and
        // a large auxiliary fraction; VGG16 is the opposite.
        let aux_per_mac = |net: Network| {
            net.layers.iter().map(Layer::aux_lane_cycles).sum::<f64>() / net.total_macs() as f64
        };
        let mob_ratio = aux_per_mac(mobilenet_v1());
        let vgg_ratio = aux_per_mac(vgg16());
        assert!(mob_ratio > 5.0 * vgg_ratio, "mob {mob_ratio} vs vgg {vgg_ratio}");
    }

    #[test]
    fn every_network_marks_first_and_last_high_precision() {
        for net in [vgg16(), resnet50(), inception_v3(), inception_v4(), mobilenet_v1()] {
            let frac = net.high_precision_mac_fraction();
            assert!(frac > 0.0, "{} has no HP layers", net.name);
            assert!(frac < 0.12, "{} HP fraction {frac} too large", net.name);
        }
    }
}
