//! Object-detection benchmarks (COCO): SSD300, YOLOv3 and YOLOv3-Tiny.

use crate::builder::CnnBuilder;
use crate::graph::{Domain, Layer, Network, Op, PrecisionClass};

/// Adds one SSD detection head (3×3 loc + conf convolutions) over the
/// current feature map. `boxes` is the number of default boxes per
/// location; COCO has 80 classes + background.
fn ssd_head(b: &mut CnnBuilder, boxes: u64) {
    let fork = b.shape();
    let co = boxes * (4 + 81);
    b.conv_asym(co, 3, 3, 1, 1, 1, PrecisionClass::HighPrecision);
    b.restore(fork);
}

/// SSD300 with the VGG16 backbone (Liu et al.), COCO classes.
pub(crate) fn ssd300() -> Network {
    let mut b = CnnBuilder::new("ssd300", Domain::ObjectDetection, 3, 300, 300);
    // VGG16 through conv5_3 (pool5 is 3×3 stride 1 in SSD).
    b.first_conv_bn_relu(64, 3, 1, 1);
    b.conv_bn_relu(64, 3, 1, 1).pool(2, 2, 0); // 150
    b.conv_bn_relu(128, 3, 1, 1).conv_bn_relu(128, 3, 1, 1).pool(2, 2, 0); // 75
    b.conv_bn_relu(256, 3, 1, 1)
        .conv_bn_relu(256, 3, 1, 1)
        .conv_bn_relu(256, 3, 1, 1)
        .pool(2, 2, 1); // 38
    b.conv_bn_relu(512, 3, 1, 1).conv_bn_relu(512, 3, 1, 1).conv_bn_relu(512, 3, 1, 1);
    ssd_head(&mut b, 4); // conv4_3 head @ 38×38
    b.pool(2, 2, 0); // 19
    b.conv_bn_relu(512, 3, 1, 1).conv_bn_relu(512, 3, 1, 1).conv_bn_relu(512, 3, 1, 1);
    b.pool(3, 1, 1); // pool5, stays 19
    // fc6 (dilated 3×3) and fc7 as convolutions.
    b.conv_bn_relu(1024, 3, 1, 1);
    b.conv_bn_relu(1024, 1, 1, 0);
    ssd_head(&mut b, 6); // fc7 head @ 19×19
    // Extra feature layers.
    b.conv_bn_relu(256, 1, 1, 0).conv_bn_relu(512, 3, 2, 1); // 10
    ssd_head(&mut b, 6);
    b.conv_bn_relu(128, 1, 1, 0).conv_bn_relu(256, 3, 2, 1); // 5
    ssd_head(&mut b, 6);
    b.conv_bn_relu(128, 1, 1, 0).conv_bn_relu(256, 3, 1, 0); // 3
    ssd_head(&mut b, 4);
    b.conv_bn_relu(128, 1, 1, 0).conv_bn_relu(256, 3, 1, 0); // 1
    ssd_head(&mut b, 4);
    // Post-processing (softmax over classes for ~8732 boxes).
    b.raw(Layer::new(
        "det_softmax",
        Op::Aux { kind: crate::graph::AuxKind::Softmax, elems: 8732 * 81, ops_per_elem: 1 },
    ));
    b.build()
}

/// One Darknet-53 residual unit: 1×1 reduce + 3×3 expand + residual add.
fn darknet_res(b: &mut CnnBuilder, c: u64) {
    b.conv_bn_relu(c / 2, 1, 1, 0);
    b.conv_bn_relu(c, 3, 1, 1);
    b.eltwise_add();
}

/// YOLOv3 at 416×416 (Redmon & Farhadi), Darknet-53 backbone, 3 scales.
pub(crate) fn yolov3() -> Network {
    let mut b = CnnBuilder::new("yolov3", Domain::ObjectDetection, 3, 416, 416);
    b.first_conv_bn_relu(32, 3, 1, 1);
    b.conv_bn_relu(64, 3, 2, 1); // 208
    darknet_res(&mut b, 64);
    b.conv_bn_relu(128, 3, 2, 1); // 104
    for _ in 0..2 {
        darknet_res(&mut b, 128);
    }
    b.conv_bn_relu(256, 3, 2, 1); // 52
    for _ in 0..8 {
        darknet_res(&mut b, 256);
    }
    let route_52 = b.shape();
    b.conv_bn_relu(512, 3, 2, 1); // 26
    for _ in 0..8 {
        darknet_res(&mut b, 512);
    }
    let route_26 = b.shape();
    b.conv_bn_relu(1024, 3, 2, 1); // 13
    for _ in 0..4 {
        darknet_res(&mut b, 1024);
    }
    // Head at 13×13.
    for _ in 0..2 {
        b.conv_bn_relu(512, 1, 1, 0).conv_bn_relu(1024, 3, 1, 1);
    }
    b.conv_bn_relu(512, 1, 1, 0);
    let branch_13 = b.shape();
    b.conv_bn_relu(1024, 3, 1, 1);
    b.conv_asym(255, 1, 1, 1, 0, 0, PrecisionClass::HighPrecision); // detect 13
    // Upsample route to 26×26.
    b.restore(branch_13);
    b.conv_bn_relu(256, 1, 1, 0);
    b.shuffle(256 * 26 * 26); // upsample + concat
    b.restore(route_26).set_channels(512 + 256);
    for _ in 0..2 {
        b.conv_bn_relu(256, 1, 1, 0).conv_bn_relu(512, 3, 1, 1);
    }
    b.conv_bn_relu(256, 1, 1, 0);
    let branch_26 = b.shape();
    b.conv_bn_relu(512, 3, 1, 1);
    b.conv_asym(255, 1, 1, 1, 0, 0, PrecisionClass::HighPrecision); // detect 26
    // Upsample route to 52×52.
    b.restore(branch_26);
    b.conv_bn_relu(128, 1, 1, 0);
    b.shuffle(128 * 52 * 52);
    b.restore(route_52).set_channels(256 + 128);
    for _ in 0..3 {
        b.conv_bn_relu(128, 1, 1, 0).conv_bn_relu(256, 3, 1, 1);
    }
    b.conv_asym(255, 1, 1, 1, 0, 0, PrecisionClass::HighPrecision); // detect 52
    b.build()
}

/// YOLOv3-Tiny at 416×416: 7 convolutions + max-pools, 2 detection scales.
pub(crate) fn yolov3_tiny() -> Network {
    let mut b = CnnBuilder::new("tiny-yolov3", Domain::ObjectDetection, 3, 416, 416);
    b.first_conv_bn_relu(16, 3, 1, 1);
    b.pool(2, 2, 0); // 208
    b.conv_bn_relu(32, 3, 1, 1).pool(2, 2, 0); // 104
    b.conv_bn_relu(64, 3, 1, 1).pool(2, 2, 0); // 52
    b.conv_bn_relu(128, 3, 1, 1).pool(2, 2, 0); // 26
    b.conv_bn_relu(256, 3, 1, 1);
    let route_26 = b.shape();
    b.pool(2, 2, 0); // 13
    b.conv_bn_relu(512, 3, 1, 1).pool(3, 1, 1); // stride-1 pool, stays 13
    b.conv_bn_relu(1024, 3, 1, 1);
    b.conv_bn_relu(256, 1, 1, 0);
    let branch_13 = b.shape();
    b.conv_bn_relu(512, 3, 1, 1);
    b.conv_asym(255, 1, 1, 1, 0, 0, PrecisionClass::HighPrecision); // detect 13
    b.restore(branch_13);
    b.conv_bn_relu(128, 1, 1, 0);
    b.shuffle(128 * 26 * 26); // upsample + concat
    b.restore(route_26).set_channels(256 + 128);
    b.conv_bn_relu(256, 3, 1, 1);
    b.conv_asym(255, 1, 1, 1, 0, 0, PrecisionClass::HighPrecision); // detect 26
    b.build()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn ssd300_macs_match_published() {
        let net = ssd300();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~31 GMACs for SSD300-VGG (COCO).
        assert!((15.0..40.0).contains(&gmacs), "ssd300 {gmacs} GMACs");
    }

    #[test]
    fn yolov3_macs_match_published() {
        let net = yolov3();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~32.8 GMACs (65.6 GFLOPs) at 416×416.
        assert!((gmacs - 32.8).abs() < 3.0, "yolov3 {gmacs} GMACs");
    }

    #[test]
    fn tiny_yolov3_macs_match_published() {
        let net = yolov3_tiny();
        let gmacs = net.total_macs() as f64 / 1e9;
        // Published: ~2.8 GMACs (5.6 GFLOPs) at 416×416.
        assert!((gmacs - 2.8).abs() < 0.5, "tiny {gmacs} GMACs");
    }

    #[test]
    fn detection_heads_are_high_precision() {
        for net in [ssd300(), yolov3(), yolov3_tiny()] {
            let hp = net.high_precision_mac_fraction();
            assert!(hp > 0.0 && hp < 0.25, "{}: hp {hp}", net.name);
        }
    }
}
