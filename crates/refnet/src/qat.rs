//! Quantization-aware training with PACT + SaWB (paper §II-C): the
//! clipping level α is *learned during model training independently for
//! each layer*, weights are fake-quantized with SaWB in the forward pass,
//! and the straight-through estimator carries gradients through the
//! quantizers. "Both PACT and SaWB have little/no impact on the model
//! training time."

use crate::backend::{Backend, Fp32Backend, OperandRole};
use crate::data::Dataset;
use crate::dense::{argmax_accuracy, DenseStack, Trace};
use crate::mlp::softmax_cross_entropy;
use rapid_numerics::int::IntFormat;
use rapid_numerics::{NumericsError, Tensor};
use rapid_quant::pact::Pact;
use rapid_quant::sawb::sawb_quantize;

/// PACT α learning rate.
const ALPHA_LR: f32 = 0.01;

/// PACT α weight decay (regularizes the range downward).
const ALPHA_DECAY: f32 = 0.001;

/// Weight/bias learning rate.
const LR: f32 = 0.1;

/// QAT hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QatConfig {
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for QatConfig {
    fn default() -> Self {
        Self { epochs: 40, batch: 32 }
    }
}

/// A quantization-aware MLP: a [`DenseStack`] of FP32 master weights,
/// SaWB-fake-quantized in the forward GEMMs, and PACT hidden activations
/// at the target format.
#[derive(Debug, Clone)]
pub struct QatMlp {
    layers: DenseStack,
    pacts: Vec<Pact>, // one per hidden layer
    format: IntFormat,
}

impl QatMlp {
    /// Builds a QAT model with the given layer widths; the master weights
    /// are `DenseStack::new`'s, as an [`Mlp`](crate::mlp::Mlp)'s of the
    /// same widths and seed.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], format: IntFormat, seed: u64) -> Self {
        let layers = DenseStack::new(widths, seed);
        let pacts = (0..widths.len() - 2).map(|_| Pact::new(4.0, format)).collect();
        Self { layers, pacts, format }
    }

    /// Learned PACT clipping levels, one per hidden layer.
    pub fn alphas(&self) -> Vec<f32> {
        self.pacts.iter().map(Pact::alpha).collect()
    }

    /// Replaces the PACT clipping levels (used by checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if the count differs or any level is not positive and finite.
    pub fn set_alphas(&mut self, alphas: &[f32]) {
        assert_eq!(alphas.len(), self.pacts.len(), "alpha count mismatch");
        for (p, &a) in self.pacts.iter_mut().zip(alphas) {
            p.set_alpha(a);
        }
    }

    /// The FP32 master weights and biases.
    pub fn layers(&self) -> &DenseStack {
        &self.layers
    }

    /// Mutable access to the master weights and biases (checkpoint
    /// restore).
    pub fn layers_mut(&mut self) -> &mut DenseStack {
        &mut self.layers
    }

    /// Quantized forward pass to logits (what the deployed INT model
    /// computes).
    ///
    /// # Panics
    ///
    /// Panics if a GEMM fails (cannot happen with the FP32 backend and
    /// conformable shapes).
    pub(crate) fn forward(&self, x: &Tensor) -> Tensor {
        #[allow(clippy::expect_used)]
        self.run(&Fp32Backend, x, None).expect("QAT forward GEMM failed")
    }

    /// The quantized forward body through `be`: SaWB-quantized weights in
    /// every GEMM, PACT between layers.
    fn run(
        &self,
        be: &dyn Backend,
        x: &Tensor,
        trace: Option<&mut Trace>,
    ) -> Result<Tensor, NumericsError> {
        let gemm = |_, a: &Tensor, w: &Tensor| {
            be.try_matmul(a, &sawb_quantize(w, self.format), (OperandRole::Data, OperandRole::Data))
        };
        self.layers.forward(x, gemm, |i, z| self.pacts[i].forward(z), trace)
    }

    /// Classification accuracy of the quantized forward pass.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        argmax_accuracy(&self.forward(&data.x), data.classes, &data.y)
    }

    /// One QAT step on a batch — STE through the quantizers, SGD on the
    /// FP32 masters, PACT α updates from the clipped-region gradients —
    /// through an arbitrary backend with gradients scaled by `loss_scale`
    /// (the update divides it back out), surfacing GEMM failures instead
    /// of panicking.
    ///
    /// On `Err` the model may be **partially updated** (the backward pass
    /// applies SGD inline per layer); resilient callers snapshot parameters
    /// before the step and restore on failure.
    ///
    /// # Errors
    ///
    /// Propagates the first failing GEMM's [`NumericsError`].
    pub fn try_step_with(
        &mut self,
        be: &dyn Backend,
        bx: &Tensor,
        by: &[usize],
        loss_scale: f32,
    ) -> Result<(), NumericsError> {
        let mut trace = Vec::new();
        let logits = self.run(be, bx, Some(&mut trace))?;
        let (_, grad0) = softmax_cross_entropy(&logits, by);
        let n = bx.shape()[0] as f32;
        let lr = LR / loss_scale;
        let mut grad = grad0.map(|v| v * loss_scale / n);
        for (i, (input, pre)) in trace.iter().enumerate().rev() {
            if i + 1 < trace.len() {
                // PACT backward: STE inside the clip window, α gradient
                // from the clipped region.
                let (dx, dalpha) = self.pacts[i].backward(pre, &grad);
                self.pacts[i].update_alpha(dalpha / loss_scale, ALPHA_LR, ALPHA_DECAY);
                grad = dx;
            }
            // STE for SaWB weights: gradient w.r.t. the master equals the
            // gradient w.r.t. the quantized weights.
            let dw =
                be.try_matmul(&input.transposed(), &grad, (OperandRole::Data, OperandRole::Error))?;
            let qw = sawb_quantize(&self.layers.w[i], self.format);
            let dx =
                be.try_matmul(&grad, &qw.transposed(), (OperandRole::Error, OperandRole::Data))?;
            // The gradient was pre-scaled by 1/n above.
            self.layers.sgd(i, &dw, &grad, |g| lr * g);
            grad = dx;
        }
        Ok(())
    }
}

/// Trains a QAT model; returns the final quantized training accuracy.
pub fn train_qat(model: &mut QatMlp, data: &Dataset, cfg: &QatConfig) -> f64 {
    train_qat_with(model, &Fp32Backend, data, cfg)
}

/// [`train_qat`] through an arbitrary numeric backend (e.g. the emulated
/// HFP8 pipeline). GEMM failures panic here; use
/// [`QatMlp::try_step_with`] directly (as `rapid::recover` does) when the
/// backend can legitimately fail.
///
/// # Panics
///
/// Panics if a GEMM fails under the given backend.
pub(crate) fn train_qat_with(
    model: &mut QatMlp,
    be: &dyn Backend,
    data: &Dataset,
    cfg: &QatConfig,
) -> f64 {
    for _ in 0..cfg.epochs {
        let mut start = 0;
        while start < data.len() {
            let end = (start + cfg.batch).min(data.len());
            let (bx, by) = data.batch(start, end);
            #[allow(clippy::expect_used)]
            model.try_step_with(be, &bx, by, 1.0).expect("QAT step GEMM failed");
            start = end;
        }
    }
    model.accuracy(data)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::data::gaussian_blobs;
    use crate::mlp::{train, Mlp, TrainConfig};
    use crate::quantized::QuantizedMlp;

    #[test]
    fn int4_qat_matches_fp32() {
        let data = gaussian_blobs(512, 4, 16, 0.35, 42);
        let mut fp = Mlp::new(&[16, 32, 4], 1);
        let acc_fp = train(&mut fp, &crate::backend::Fp32Backend, &data, &TrainConfig::default());
        let mut qat = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
        let acc_q = train_qat(&mut qat, &data, &QatConfig::default());
        assert!(acc_q > acc_fp - 0.03, "int4 qat {acc_q} vs fp32 {acc_fp}");
    }

    /// The PACT/SaWB headline: *training* with the quantizers in the loop
    /// recovers the accuracy PTQ loses at 2 bits (paper §II-C).
    #[test]
    fn int2_qat_beats_int2_ptq() {
        let data = gaussian_blobs(512, 4, 16, 0.5, 43);
        // PTQ baseline.
        let mut fp = Mlp::new(&[16, 32, 4], 2);
        let _ = train(&mut fp, &crate::backend::Fp32Backend, &data, &TrainConfig::default());
        let ptq = QuantizedMlp::quantize(&fp, IntFormat::Int2, &data).accuracy(&data);
        // QAT.
        let mut qat = QatMlp::new(&[16, 32, 4], IntFormat::Int2, 2);
        let qat_acc = train_qat(&mut qat, &data, &QatConfig::default());
        assert!(
            qat_acc >= ptq - 1e-9,
            "int2 qat {qat_acc} should not lose to ptq {ptq}"
        );
        assert!(qat_acc > 0.8, "int2 qat {qat_acc} should be strong");
    }

    /// QAT and FP32 training start from the same master weights.
    #[test]
    fn qat_masters_start_bit_equal_to_mlp() {
        for (widths, seed) in [(&[16, 32, 4][..], 1), (&[3, 8, 8, 2][..], 9)] {
            let mlp = Mlp::new(widths, seed);
            let qat = QatMlp::new(widths, IntFormat::Int2, seed);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for i in 0..widths.len() - 1 {
                assert_eq!(bits(qat.layers().weights(i)), bits(mlp.layers().weights(i)));
                assert_eq!(qat.layers().biases(i), mlp.layers().biases(i));
            }
        }
    }

    #[test]
    fn alphas_are_learned_per_layer() {
        let data = gaussian_blobs(256, 4, 16, 0.35, 44);
        let mut qat = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 3);
        let before = qat.alphas();
        let _ = train_qat(&mut qat, &data, &QatConfig { epochs: 10, ..Default::default() });
        let after = qat.alphas();
        assert_eq!(before.len(), 1);
        assert_ne!(before, after, "alpha must move during training");
        assert!(after[0] > 0.0);
    }
}
