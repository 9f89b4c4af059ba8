//! Integration: the full quantized-inference pipeline across crates —
//! train (refnet) → quantize (quant) → execute on the simulated FXU (sim)
//! — and check that all three integer paths agree.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use rapid::arch::precision::Precision;
use rapid::numerics::gemm::matmul_int;
use rapid::numerics::int::{IntFormat, QuantParams, Signedness};
use rapid::numerics::Tensor;
use rapid::quant::sawb::sawb_params;
use rapid::refnet::backend::Fp32Backend;
use rapid::refnet::data::gaussian_blobs;
use rapid::refnet::mlp::{train, Mlp, TrainConfig};
use rapid::refnet::quantized::QuantizedMlp;
use rapid::sim::gemm::{CoreSim, GemmJob};

/// The cycle simulator's FXU and the emulated integer GEMM must agree on a
/// SaWB-quantized weight matrix from a really trained model.
#[test]
fn simulated_fxu_matches_emulated_int_gemm_on_trained_weights() {
    let data = gaussian_blobs(256, 4, 16, 0.35, 77);
    let mut mlp = Mlp::new(&[16, 32, 4], 3);
    let acc = train(&mut mlp, &Fp32Backend, &data, &TrainConfig { epochs: 20 });
    assert!(acc > 0.9, "training must converge first ({acc})");

    let w = mlp.layers().weights(0).clone(); // [16, 32]
    let x = Tensor::random_uniform(vec![8, 16], -1.0, 1.0, 78);
    let qw = sawb_params(&w, IntFormat::Int4);
    let qx = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, x.max_abs());

    // Path 1: emulated integer GEMM.
    let (emulated, stats) = matmul_int(&x, &w, qx, qw, 64);
    assert_eq!(stats.saturations, 0);

    // Path 2: cycle simulator (derives its own max-abs scales, so feed it
    // the fake-quantized tensors whose max-abs reproduces the same grid).
    let core = CoreSim::rapid();
    let xq = x.map(|v| qx.fake_quantize(v));
    let wq = w.map(|v| qw.fake_quantize(v));
    let r = core.run_gemm(&GemmJob { a: xq.clone(), b: wq.clone(), precision: Precision::Int4 });

    // Both paths compute on integer grids; their results must agree to
    // within the scale difference of the two grids (the simulator re-fits
    // a max-abs scale to the already-quantized tensors).
    assert!(
        r.c.max_rel_diff(&emulated) < 0.08,
        "sim vs emulated disagree: {}",
        r.c.max_rel_diff(&emulated)
    );
}

/// PTQ accuracy survives the whole journey at INT4 and degrades gently at
/// INT2 — the §II-C claims, end-to-end.
#[test]
fn ptq_accuracy_ladder() {
    let data = gaussian_blobs(512, 4, 16, 0.35, 79);
    let mut mlp = Mlp::new(&[16, 32, 4], 4);
    let fp = train(&mut mlp, &Fp32Backend, &data, &TrainConfig::default());
    let int4 = QuantizedMlp::quantize(&mlp, IntFormat::Int4, &data).accuracy(&data);
    let int2 = QuantizedMlp::quantize(&mlp, IntFormat::Int2, &data).accuracy(&data);
    assert!(fp > 0.95, "fp32 {fp}");
    assert!(int4 > fp - 0.03, "int4 {int4} vs fp {fp}");
    assert!(int2 >= 0.5, "int2 {int2} should stay far above the 25% chance level");
    assert!(int4 >= int2, "precision ladder must be monotone");
}

/// Zero-gating statistics flow from real ReLU-sparse activations through
/// the emulated GEMM — the signal the sparsity-aware power model consumes.
#[test]
fn relu_sparsity_reaches_gating_statistics() {
    let x = Tensor::random_uniform(vec![16, 64], -1.0, 1.0, 80).map(|v| v.max(0.0));
    let w = Tensor::random_uniform(vec![64, 32], -0.5, 0.5, 81);
    let sparsity = x.sparsity();
    assert!(sparsity > 0.3, "ReLU should zero a large fraction");
    let qx = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, x.max_abs());
    let qw = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, w.max_abs());
    let (_, stats) = matmul_int(&x, &w, qx, qw, 64);
    let gated = stats.gated_fraction();
    assert!(
        (gated - sparsity).abs() < 0.1,
        "gated fraction {gated} should track activation sparsity {sparsity}"
    );
}
