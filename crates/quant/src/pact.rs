//! PACT: PArameterized Clipping acTivation (Choi et al. \[42\]).
//!
//! PACT replaces ReLU with `y = clip(x, 0, α)` where the clipping level α
//! is *learned per layer* during training: bounding the activation range
//! lets an ultra-low-bit uniform quantizer cover it with small steps. The
//! gradient w.r.t. α flows through the clipped region
//! (`∂y/∂α = 1` where `x ≥ α`), and the straight-through estimator passes
//! gradients to `x` inside the clip window.

use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::Tensor;

/// A PACT activation with a learnable clipping level.
#[derive(Debug, Clone, PartialEq)]
pub struct Pact {
    alpha: f32,
    format: IntFormat,
}

impl Pact {
    /// Creates a PACT activation with initial clipping level `alpha`
    /// quantizing to `format` (unsigned levels).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn new(alpha: f32, format: IntFormat) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Self { alpha, format }
    }

    /// Current clipping level.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Replaces the clipping level (used by checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn set_alpha(&mut self, alpha: f32) {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
    }

    /// Quantization parameters implied by the current clipping level.
    pub(crate) fn quant_params(&self) -> QuantParams {
        QuantParams::from_abs_max(self.format, Signedness::Unsigned, self.alpha)
    }

    /// Forward: clip to `[0, α]` and fake-quantize to the unsigned grid.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let q = self.quant_params();
        x.map(|v| q.fake_quantize(v.clamp(0.0, self.alpha)))
    }

    /// Backward: returns `(dx, dalpha)` given the upstream gradient and the
    /// forward input. STE inside the window; the clipped region's gradient
    /// accumulates into α.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn backward(&self, x: &Tensor, grad_out: &Tensor) -> (Tensor, f32) {
        assert_eq!(x.shape(), grad_out.shape(), "shape mismatch in PACT backward");
        let mut dalpha = 0.0f64;
        let mut dx = Tensor::zeros(x.shape().to_vec());
        for i in 0..x.len() {
            let xi = x.as_slice()[i];
            let g = grad_out.as_slice()[i];
            if xi >= self.alpha {
                dalpha += f64::from(g);
            } else if xi > 0.0 {
                dx.as_mut_slice()[i] = g;
            }
        }
        (dx, dalpha as f32)
    }

    /// Applies one SGD step to α with learning rate `lr` and weight decay
    /// `decay` (PACT regularizes α toward smaller ranges).
    pub fn update_alpha(&mut self, dalpha: f32, lr: f32, decay: f32) {
        self.alpha -= lr * (dalpha + decay * self.alpha);
        self.alpha = self.alpha.max(1e-3); // keep the range valid
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn forward_clips_and_quantizes() {
        let p = Pact::new(6.0, IntFormat::Int4);
        let x = Tensor::from_vec(vec![5], vec![-1.0, 0.0, 3.0, 6.0, 9.0]);
        let y = p.forward(&x);
        assert_eq!(y.as_slice()[0], 0.0); // negative clipped
        assert_eq!(y.as_slice()[3], 6.0); // at alpha
        assert_eq!(y.as_slice()[4], 6.0); // above alpha clipped
        // 3.0 lands on the 15-level grid: scale 0.4 -> nearest 2.8 or 3.2.
        let q = p.quant_params();
        assert_eq!(y.as_slice()[2], q.fake_quantize(3.0));
    }

    #[test]
    fn backward_routes_gradients() {
        let p = Pact::new(1.0, IntFormat::Int4);
        let x = Tensor::from_vec(vec![4], vec![-0.5, 0.5, 1.5, 2.0]);
        let g = Tensor::from_vec(vec![4], vec![1.0, 1.0, 1.0, 1.0]);
        let (dx, dalpha) = p.backward(&x, &g);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(dalpha, 2.0); // two clipped elements
    }

    #[test]
    fn alpha_learns_to_cover_distribution() {
        // Train α on data in [0, 2): with only upstream gradients pushing
        // α up when activations clip, α should grow from a too-small init.
        let mut p = Pact::new(0.25, IntFormat::Int4);
        let x = Tensor::random_uniform(vec![256], 0.0, 2.0, 3);
        for _ in 0..200 {
            // Pretend the loss wants un-clipped activations: gradient +1
            // on clipped elements (they would have contributed more).
            let g = Tensor::from_fn(vec![256], |_| -0.01);
            let (_, dalpha) = p.backward(&x, &g);
            p.update_alpha(dalpha, 0.1, 0.0);
        }
        assert!(p.alpha() > 1.0, "alpha {} did not grow", p.alpha());
    }

    #[test]
    fn quantization_error_shrinks_with_learned_alpha() {
        // A well-chosen α gives lower MSE than clipping at the max value
        // for a long-tailed distribution.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::from_fn(vec![4096], |_| {
            let u: f32 = rng.gen_range(0.0f32..1.0);
            -(1.0 - u).ln() // Exp(1): long tail
        });
        let max = x.max_abs();
        let mse = |alpha: f32| {
            let p = Pact::new(alpha, IntFormat::Int2);
            let y = p.forward(&x);
            x.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(&a, &b)| f64::from((a - b) * (a - b)))
                .sum::<f64>()
                / x.len() as f64
        };
        // At 2 bits (4 levels) a learned clip near 2.0 beats clipping at
        // the max observed value, which wastes the coarse grid on the tail.
        assert!(mse(2.0) < mse(max), "mse(2)={} mse(max)={}", mse(2.0), mse(max));
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn invalid_alpha_panics() {
        let _ = Pact::new(0.0, IntFormat::Int4);
    }
}
