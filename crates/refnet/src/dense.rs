//! The one stack of dense layers behind every MLP in this crate: FP32
//! master weights and biases, their He initializer and accessors, and the
//! forward walk. [`Mlp`](crate::mlp::Mlp) adds its activation caches on
//! top, [`QatMlp`](crate::qat::QatMlp) its PACT levels and fake-quantized
//! GEMMs, [`QuantizedMlp`](crate::quantized::QuantizedMlp) its integer
//! GEMMs; none of them stores parameters of its own.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rapid_numerics::{NumericsError, Tensor};

/// Each layer's `(input, pre-activation)`, recorded by a forward pass for
/// the backward pass.
pub(crate) type Trace = Vec<(Tensor, Tensor)>;

/// A stack of dense layers' FP32 master weights `[in, out]` and biases.
#[derive(Debug, Clone)]
pub struct DenseStack {
    pub(crate) w: Vec<Tensor>,
    pub(crate) b: Vec<Vec<f32>>,
}

impl DenseStack {
    /// He-initialized weights and zero biases for the given layer widths,
    /// e.g. `[16, 32, 4]` for a 16-feature input, one 32-unit hidden
    /// layer and 4 outputs.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub(crate) fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, b) = widths
            .windows(2)
            .map(|win| (he_normal(vec![win[0], win[1]], win[0], &mut rng), vec![0.0; win[1]]))
            .unzip();
        Self { w, b }
    }

    /// Number of dense layers.
    pub fn depth(&self) -> usize {
        self.w.len()
    }

    /// A layer's weight matrix `[in, out]`.
    pub fn weights(&self, layer: usize) -> &Tensor {
        &self.w[layer]
    }

    /// Replaces a layer's weights.
    ///
    /// # Panics
    ///
    /// Panics if the shape differs.
    pub fn set_weights(&mut self, layer: usize, w: Tensor) {
        assert_eq!(self.w[layer].shape(), w.shape(), "weight shape mismatch");
        self.w[layer] = w;
    }

    /// A layer's bias vector.
    pub fn biases(&self, layer: usize) -> &[f32] {
        &self.b[layer]
    }

    /// Replaces a layer's biases.
    ///
    /// # Panics
    ///
    /// Panics if the length differs.
    pub fn set_biases(&mut self, layer: usize, b: Vec<f32>) {
        assert_eq!(self.b[layer].len(), b.len(), "bias length mismatch");
        self.b[layer] = b;
    }

    /// Every parameter in one vector, layer by layer, each layer's
    /// weights then its biases: the unit a data-parallel collective
    /// reduces.
    pub fn flatten(&self) -> Vec<f32> {
        let layers = self.w.iter().zip(&self.b);
        layers.flat_map(|(w, b)| w.as_slice().iter().chain(b)).copied().collect()
    }

    /// Writes a vector in the [`flatten`](Self::flatten) layout back into
    /// the stack.
    ///
    /// # Panics
    ///
    /// Panics if `flat`'s length is not the stack's parameter count.
    pub fn load(&mut self, flat: &[f32]) {
        let mut rest = flat;
        for (w, b) in self.w.iter_mut().zip(&mut self.b) {
            for dst in [w.as_mut_slice(), b.as_mut_slice()] {
                let (head, tail) = rest.split_at(dst.len());
                dst.copy_from_slice(head);
                rest = tail;
            }
        }
        assert!(rest.is_empty(), "parameter count mismatch");
    }

    /// Runs `x` through the stack: `gemm(layer, input, weights)` is each
    /// layer's product, the bias is added in FP32, and `act(layer, z)`
    /// activates every layer but the last. With `trace`, each layer's
    /// input and pre-activation are appended to it.
    pub(crate) fn forward(
        &self,
        x: &Tensor,
        mut gemm: impl FnMut(usize, &Tensor, &Tensor) -> Result<Tensor, NumericsError>,
        act: impl Fn(usize, &Tensor) -> Tensor,
        mut trace: Option<&mut Trace>,
    ) -> Result<Tensor, NumericsError> {
        let mut cur = x.clone();
        for (i, (w, b)) in self.w.iter().zip(&self.b).enumerate() {
            let mut z = gemm(i, &cur, w)?;
            add_bias(&mut z, b);
            let next = if i + 1 < self.depth() { act(i, &z) } else { z.clone() };
            let input = std::mem::replace(&mut cur, next);
            if let Some(t) = trace.as_deref_mut() {
                t.push((input, z));
            }
        }
        Ok(cur)
    }

    /// SGD on `layer` from its weight gradient `dw` and output gradient
    /// `grad` (the bias gradient is `grad`'s column sums): each parameter
    /// moves by `-step(its gradient)`.
    pub(crate) fn sgd(
        &mut self,
        layer: usize,
        dw: &Tensor,
        grad: &Tensor,
        step: impl Fn(f32) -> f32,
    ) {
        for (c, bv) in self.b[layer].iter_mut().enumerate() {
            let db: f32 = (0..grad.shape()[0]).map(|r| grad.get(&[r, c])).sum();
            *bv -= step(db);
        }
        for (wv, &g) in self.w[layer].as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *wv -= step(g);
        }
    }
}

/// He-normal weights of the given shape for fan-in `fan_in`: Box–Muller
/// draws from `rng`, scaled by `√(2 / fan_in)`.
pub(crate) fn he_normal(shape: Vec<usize>, fan_in: usize, rng: &mut StdRng) -> Tensor {
    let scale = (2.0 / fan_in as f32).sqrt();
    Tensor::from_fn(shape, |_| {
        let u1: f32 = rng.gen_range(1e-6f32..1.0);
        let u2: f32 = rng.gen_range(0.0f32..1.0);
        scale * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    })
}

/// Adds `b` to every row of an `[n, b.len()]` GEMM output, in FP32.
pub(crate) fn add_bias(z: &mut Tensor, b: &[f32]) {
    for row in z.as_mut_slice().chunks_exact_mut(b.len().max(1)) {
        for (v, &bias) in row.iter_mut().zip(b) {
            *v += bias;
        }
    }
}

/// ReLU, as the hidden-layer `act` of [`DenseStack::forward`].
pub(crate) fn relu(_layer: usize, z: &Tensor) -> Tensor {
    z.map(|v| v.max(0.0))
}

/// Classification accuracy of `logits` `[n, ≥ classes]` against `labels`:
/// each row predicts its first maximal column among the first `classes`.
pub(crate) fn argmax_accuracy(logits: &Tensor, classes: usize, labels: &[usize]) -> f64 {
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(i, &label)| {
            let row = |c| logits.get(&[i, c]);
            let best = (1..classes).fold(0, |best, c| if row(c) > row(best) { c } else { best });
            best == label
        })
        .count();
    correct as f64 / labels.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ties go to the first maximal column, as `l1 > l0` does for two
    /// classes; columns past `classes` are ignored.
    #[test]
    fn argmax_breaks_ties_to_the_first_maximum() {
        let logits = Tensor::from_vec(
            vec![4, 3],
            vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 3.0, 3.0, 3.0, 0.0, 1.0, 9.0],
        );
        assert_eq!(argmax_accuracy(&logits, 3, &[0, 1, 0, 2]), 1.0);
        assert_eq!(argmax_accuracy(&logits, 3, &[1, 2, 2, 1]), 0.0);
        assert_eq!(argmax_accuracy(&logits, 2, &[0, 1, 0, 1]), 1.0);
        assert_eq!(argmax_accuracy(&logits, 3, &[]), 0.0);
    }

    /// The flat layout is each layer's weights then its biases, and
    /// `load` inverts `flatten`.
    #[test]
    fn flatten_orders_weights_then_biases_and_load_inverts_it() {
        let mut src = DenseStack::new(&[3, 2, 2], 5);
        src.set_biases(0, vec![0.5, -0.5]);
        src.set_biases(1, vec![1.5, -1.5]);
        let flat = src.flatten();
        let w0 = src.weights(0).as_slice();
        let w1 = src.weights(1).as_slice();
        let expected: Vec<f32> =
            [w0, src.biases(0), w1, src.biases(1)].into_iter().flatten().copied().collect();
        assert_eq!(flat, expected);

        let mut dst = DenseStack::new(&[3, 2, 2], 6);
        dst.load(&flat);
        assert_eq!(dst.flatten(), flat);
        assert_eq!(dst.biases(1), src.biases(1));
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn load_rejects_a_longer_vector() {
        let mut s = DenseStack::new(&[2, 2], 1);
        let mut flat = s.flatten();
        flat.push(0.0);
        s.load(&flat);
    }
}
