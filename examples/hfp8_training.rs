//! End-to-end numerics demonstration (experiment E10): train a classifier
//! with the exact arithmetic RaPiD implements and compare against FP32 —
//! then post-training-quantize it to INT4/INT2 with PACT + SaWB.
//!
//! Run with: `cargo run --release --example hfp8_training`

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples fail loudly by design

use rapid::numerics::int::IntFormat;
use rapid::refnet::backend::{Backend, Fp16Backend, Fp32Backend, Hfp8Backend};
use rapid::refnet::data::gaussian_blobs;
use rapid::refnet::mlp::{train, Mlp, TrainConfig};
use rapid::refnet::quantized::QuantizedMlp;

fn main() {
    let data = gaussian_blobs(1024, 4, 16, 0.35, 42);
    let cfg = TrainConfig { epochs: 40 };
    println!(
        "Training a [16, 32, 4] MLP on {} samples / {} classes (synthetic blobs)\n",
        data.len(),
        data.classes
    );

    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(Fp32Backend),
        Box::new(Fp16Backend::default()),
        Box::new(Hfp8Backend::default()),
    ];
    let mut fp32_model = None;
    for be in &backends {
        let mut model = Mlp::new(&[16, 32, 4], 1);
        let acc = train(&mut model, be.as_ref(), &data, &cfg);
        println!("{:<6} training accuracy: {:.1}%", be.name(), acc * 100.0);
        if be.name() == "fp32" {
            fp32_model = Some(model);
        }
    }
    println!("(paper §II-B: HFP8 training matches FP32 across applications)\n");

    let model = fp32_model.expect("fp32 ran first");
    let fp_acc = model.accuracy(&Fp32Backend, &data);
    for fmt in [IntFormat::Int4, IntFormat::Int2] {
        let q = QuantizedMlp::quantize(&model, fmt, &data);
        let acc = q.accuracy(&data);
        println!(
            "{fmt} PTQ (SaWB weights + calibrated activations): {:.1}% ({:+.1} pts vs FP32)",
            acc * 100.0,
            (acc - fp_acc) * 100.0
        );
    }
    println!("(paper §II-C: INT4 negligible loss; INT2 ≈2% loss)");
}
