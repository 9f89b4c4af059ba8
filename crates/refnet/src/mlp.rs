//! A small multilayer perceptron with backpropagation, generic over the
//! numeric backend. Master weights are FP32 (as in the HFP8 recipe: the
//! optimizer keeps full-precision copies, the GEMMs see low precision).

use crate::backend::{Backend, OperandRole};
use crate::data::Dataset;
use crate::dense::{argmax_accuracy, relu, DenseStack, Trace};
use rapid_numerics::{NumericsError, Tensor};

/// A ReLU MLP classifier: a [`DenseStack`] plus the forward caches its
/// backward pass reads.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: DenseStack,
    trace: Trace,
}

/// SGD learning rate of [`train`] (and of `rapid_recover`'s resilient
/// MLP loop, which must take the same steps).
pub const LR: f32 = 0.1;

/// Mini-batch size of [`train`] and of `rapid_recover`'s resilient MLP
/// loop.
pub const BATCH: usize = 32;

/// Training hyper-parameters: the pass count. The learning rate and the
/// batch size are the fixed [`LR`] and [`BATCH`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 40 }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[16, 32, 4]` for a
    /// 16-feature input, one 32-unit hidden layer and 4 classes.
    /// He-initialized from the seed (`DenseStack::new`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        Self { layers: DenseStack::new(widths, seed), trace: Vec::new() }
    }

    /// The FP32 master weights and biases.
    pub fn layers(&self) -> &DenseStack {
        &self.layers
    }

    /// Mutable access to the master weights and biases (checkpoint
    /// restore, parameter averaging).
    pub fn layers_mut(&mut self) -> &mut DenseStack {
        &mut self.layers
    }

    /// Forward pass producing logits `[n, classes]`; caches activations
    /// for a subsequent backward pass.
    ///
    /// # Panics
    ///
    /// Panics if a backend GEMM fails; use [`Mlp::try_forward`] to surface
    /// numerics errors (guard trips, shape mismatches) instead.
    pub(crate) fn forward(&mut self, backend: &dyn Backend, x: &Tensor) -> Tensor {
        #[allow(clippy::expect_used)]
        self.try_forward(backend, x).expect("forward GEMM failed")
    }

    /// The forward pass to logits, surfacing backend GEMM failures — a guarded
    /// backend under fault injection returns
    /// [`NumericsError::NonFinite`](rapid_numerics::NumericsError) here
    /// instead of panicking, which is what the recovery layer's
    /// skip/backoff loop catches. A failed forward leaves the parameters
    /// untouched (only the activation caches may be partially updated).
    ///
    /// # Errors
    ///
    /// Propagates the first failing GEMM's [`NumericsError`].
    pub fn try_forward(
        &mut self,
        backend: &dyn Backend,
        x: &Tensor,
    ) -> Result<Tensor, NumericsError> {
        self.trace.clear();
        run(&self.layers, backend, x, Some(&mut self.trace))
    }

    /// Forward pass without caching (inference).
    ///
    /// # Panics
    ///
    /// Panics if a backend GEMM fails.
    pub(crate) fn infer(&self, backend: &dyn Backend, x: &Tensor) -> Tensor {
        #[allow(clippy::expect_used)]
        run(&self.layers, backend, x, None).expect("forward GEMM failed")
    }

    /// Backward pass from the loss gradient w.r.t. the logits; applies SGD
    /// immediately (FP32 master weights).
    ///
    /// # Panics
    ///
    /// Panics if a backend GEMM fails; use [`Mlp::try_backward_sgd`] to
    /// surface numerics errors instead.
    pub(crate) fn backward_sgd(&mut self, backend: &dyn Backend, grad_logits: &Tensor, lr: f32) {
        #[allow(clippy::expect_used)]
        self.try_backward_sgd(backend, grad_logits, lr).expect("backward GEMM failed")
    }

    /// Backpropagation with an SGD update, surfacing backend GEMM failures.
    ///
    /// Updates are applied layer by layer as the error propagates, so a
    /// mid-backward failure leaves the model **partially updated** —
    /// callers that need step atomicity (the recovery layer) snapshot the
    /// parameters before the step and restore on `Err`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing GEMM's [`NumericsError`].
    pub fn try_backward_sgd(
        &mut self,
        backend: &dyn Backend,
        grad_logits: &Tensor,
        lr: f32,
    ) -> Result<(), NumericsError> {
        let mut grad = grad_logits.clone();
        let depth = self.layers.depth();
        for i in (0..depth).rev() {
            let (input, pre) = &self.trace[i];
            if i + 1 < depth {
                // ReLU backward through the cached pre-activation.
                grad = Tensor::from_fn(grad.shape().to_vec(), |j| {
                    if pre.as_slice()[j] > 0.0 {
                        grad.as_slice()[j]
                    } else {
                        0.0
                    }
                });
            }
            // dW = Xᵀ (Data) × dY (Error); dX = dY (Error) × Wᵀ (Data).
            let dw = backend.try_matmul(
                &input.transposed(),
                &grad,
                (OperandRole::Data, OperandRole::Error),
            )?;
            let dx = backend.try_matmul(
                &grad,
                &self.layers.w[i].transposed(),
                (OperandRole::Error, OperandRole::Data),
            )?;
            // SGD on the batch-mean gradient, in FP32.
            let n = grad.shape()[0] as f32;
            self.layers.sgd(i, &dw, &grad, |g| lr * g / n);
            grad = dx;
        }
        Ok(())
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, backend: &dyn Backend, data: &Dataset) -> f64 {
        argmax_accuracy(&self.infer(backend, &data.x), data.classes, &data.y)
    }
}

/// The MLP's forward body: the stack's GEMMs through `backend`, ReLU
/// between layers.
fn run(
    layers: &DenseStack,
    backend: &dyn Backend,
    x: &Tensor,
    trace: Option<&mut Trace>,
) -> Result<Tensor, NumericsError> {
    let roles = (OperandRole::Data, OperandRole::Data);
    layers.forward(x, |_, a, w| backend.try_matmul(a, w, roles), relu, trace)
}

/// Softmax cross-entropy: returns `(mean loss, gradient w.r.t. logits)`.
/// The loss math runs in FP32, mirroring the SFU's higher-precision
/// auxiliary path.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
    let n = logits.shape()[0];
    let c = logits.shape()[1];
    assert_eq!(n, labels.len(), "label count must match batch");
    let mut grad = Tensor::zeros(vec![n, c]);
    let mut loss = 0.0f64;
    for i in 0..n {
        let row: Vec<f32> = (0..c).map(|j| logits.get(&[i, j])).collect();
        let max = row.iter().cloned().fold(f32::MIN, f32::max);
        let exps: Vec<f64> = row.iter().map(|&v| f64::from(v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        loss -= (exps[labels[i]] / sum).ln();
        #[allow(clippy::needless_range_loop)]
        for j in 0..c {
            let p = (exps[j] / sum) as f32;
            let t = if j == labels[i] { 1.0 } else { 0.0 };
            grad.set(&[i, j], p - t);
        }
    }
    (loss / n as f64, grad)
}

/// Trains an MLP on a dataset with plain SGD; returns the final training
/// accuracy.
pub fn train(mlp: &mut Mlp, backend: &dyn Backend, data: &Dataset, cfg: &TrainConfig) -> f64 {
    for _ in 0..cfg.epochs {
        let mut start = 0;
        while start < data.len() {
            let end = (start + BATCH).min(data.len());
            let (bx, by) = data.batch(start, end);
            let logits = mlp.forward(backend, &bx);
            let (_, grad) = softmax_cross_entropy(&logits, by);
            mlp.backward_sgd(backend, &grad, LR);
            start = end;
        }
    }
    mlp.accuracy(backend, data)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::backend::{Fp16Backend, Fp32Backend, Hfp8Backend};
    use crate::data::gaussian_blobs;

    fn blobs() -> Dataset {
        gaussian_blobs(512, 4, 16, 0.35, 42)
    }

    #[test]
    fn fp32_training_converges() {
        let data = blobs();
        let mut mlp = Mlp::new(&[16, 32, 4], 1);
        let acc = train(&mut mlp, &Fp32Backend, &data, &TrainConfig::default());
        assert!(acc > 0.95, "fp32 accuracy {acc}");
    }

    /// E10: the HFP8 parity claim — 8-bit training reaches accuracy
    /// equivalent to FP32 (paper §II-B, refs [44, 45]).
    #[test]
    fn hfp8_training_matches_fp32() {
        let data = blobs();
        let mut fp32 = Mlp::new(&[16, 32, 4], 1);
        let a32 = train(&mut fp32, &Fp32Backend, &data, &TrainConfig::default());
        let mut hfp8 = Mlp::new(&[16, 32, 4], 1);
        let a8 = train(&mut hfp8, &Hfp8Backend::default(), &data, &TrainConfig::default());
        assert!(a8 > a32 - 0.03, "hfp8 {a8} vs fp32 {a32}");
    }

    #[test]
    fn fp16_training_matches_fp32() {
        let data = blobs();
        let mut fp16 = Mlp::new(&[16, 32, 4], 1);
        let a16 = train(&mut fp16, &Fp16Backend::default(), &data, &TrainConfig::default());
        assert!(a16 > 0.93, "fp16 accuracy {a16}");
    }

    /// The caching and the inference forward are one body: same logits,
    /// bit for bit, with trained (nonzero) biases.
    #[test]
    fn forward_and_infer_give_bit_equal_logits() {
        let data = gaussian_blobs(64, 4, 16, 0.35, 5);
        let mut mlp = Mlp::new(&[16, 32, 8, 4], 3);
        let cfg = TrainConfig { epochs: 2 };
        let _ = train(&mut mlp, &Fp32Backend, &data, &cfg);
        assert!(mlp.layers().biases(2).iter().any(|&b| b != 0.0));
        for be in [&Fp32Backend as &dyn Backend, &Hfp8Backend::default()] {
            let cached = mlp.forward(be, &data.x);
            let inferred = mlp.infer(be, &data.x);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cached), bits(&inferred), "{}", be.name());
        }
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 0.5, -1.0, 0.0, 1.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[1, 2]);
        assert!(loss > 0.0);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| grad.get(&[i, j])).sum();
            assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Verify backprop on a tiny FP32 model via central differences.
        let data = gaussian_blobs(8, 2, 3, 0.3, 9);
        let mut mlp = Mlp::new(&[3, 4, 2], 2);
        let eps = 1e-3f32;
        // Analytic gradient of W0[0,0]: replicate backward_sgd's dW but
        // without the update, via a unit learning rate trick on a clone.
        let loss_at = |m: &mut Mlp, delta: f32| {
            let mut w = m.layers().weights(0).clone();
            let orig = w.as_slice()[0];
            w.as_mut_slice()[0] = orig + delta;
            m.layers_mut().set_weights(0, w);
            let logits = m.forward(&Fp32Backend, &data.x);
            let (l, _) = softmax_cross_entropy(&logits, &data.y);
            let mut w = m.layers().weights(0).clone();
            w.as_mut_slice()[0] = orig;
            m.layers_mut().set_weights(0, w);
            l
        };
        let lp = loss_at(&mut mlp, eps);
        let lm = loss_at(&mut mlp, -eps);
        let numeric = ((lp - lm) / (2.0 * f64::from(eps))) as f32;
        // Analytic: run one backward with lr so that Δw = -lr·g, recover g.
        let mut probe = mlp.clone();
        let logits = probe.forward(&Fp32Backend, &data.x);
        let (_, grad) = softmax_cross_entropy(&logits, &data.y);
        let before = probe.layers().weights(0).as_slice()[0];
        probe.backward_sgd(&Fp32Backend, &grad, 1.0);
        let analytic = before - probe.layers().weights(0).as_slice()[0];
        assert!(
            (numeric - analytic).abs() < 2e-3,
            "numeric {numeric} vs analytic {analytic}"
        );
    }
}
