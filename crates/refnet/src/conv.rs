//! A small convolutional network with backpropagation (im2col-based),
//! generic over the numeric backend — exercises the same Conv → GEMM
//! lowering the accelerator's dataflow performs (Fig 5).

use crate::backend::{Backend, OperandRole};
use crate::dense::{add_bias, argmax_accuracy, he_normal};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rapid_numerics::gemm::{im2col_into, ConvSpec};
use rapid_numerics::Tensor;

/// One convolution layer `[ci, h, w] → [co, ho, wo]` with cached forward
/// state for backprop.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Weights `[co, ci, k, k]` (FP32 master copy).
    w: Tensor,
    bias: Vec<f32>,
    spec: ConvSpec,
    k: usize,
    // Cached forward state.
    cols: Tensor,     // [n*ho*wo, ci*k*k]
    in_shape: Vec<usize>,
    out_hw: (usize, usize),
}

impl Conv2d {
    /// He-initialized convolution.
    pub(crate) fn new(ci: usize, co: usize, k: usize, spec: ConvSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            w: he_normal(vec![co, ci, k, k], ci * k * k, &mut rng),
            bias: vec![0.0; co],
            spec,
            k,
            cols: Tensor::default(),
            in_shape: Vec::new(),
            out_hw: (0, 0),
        }
    }

    /// Forward: `x [n, ci, h, w] → [n, co, ho, wo]`, caching the im2col
    /// matrix for backward.
    pub(crate) fn forward(&mut self, backend: &dyn Backend, x: &Tensor) -> Tensor {
        let (n, _ci, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let ho = self.spec.out_dim(h, self.k);
        let wo = self.spec.out_dim(w, self.k);
        self.in_shape = x.shape().to_vec();
        self.out_hw = (ho, wo);
        // Lower into the cached scratch so per-step training passes reuse
        // the im2col allocation instead of reallocating it.
        im2col_into(x, self.k, self.k, self.spec, &mut self.cols);
        let co = self.w.shape()[0];
        let wmat = self
            .w
            .clone()
            .reshape(vec![co, self.cols.shape()[1]])
            .unwrap_or_else(|_| unreachable!("weight reshape is size-preserving"))
            .transposed(); // [ci*k*k, co]
        let flat = backend.matmul(&self.cols, &wmat, (OperandRole::Data, OperandRole::Data));
        // [n*ho*wo, co] → [n, co, ho, wo] with bias.
        let mut out = Tensor::zeros(vec![n, co, ho, wo]);
        for ni in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let row = (ni * ho + oy) * wo + ox;
                    for c in 0..co {
                        out.set(&[ni, c, oy, ox], flat.get(&[row, c]) + self.bias[c]);
                    }
                }
            }
        }
        out
    }

    /// Backward from `grad_out [n, co, ho, wo]`; applies SGD at `lr` and
    /// returns the input gradient.
    pub(crate) fn backward_sgd(&mut self, backend: &dyn Backend, grad_out: &Tensor, lr: f32) -> Tensor {
        let (n, co) = (grad_out.shape()[0], grad_out.shape()[1]);
        let (ho, wo) = self.out_hw;
        let rows = n * ho * wo;
        // Flatten grad to [rows, co].
        let mut gflat = Tensor::zeros(vec![rows, co]);
        for ni in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let row = (ni * ho + oy) * wo + ox;
                    for c in 0..co {
                        gflat.set(&[row, c], grad_out.get(&[ni, c, oy, ox]));
                    }
                }
            }
        }
        // dW = colsᵀ × dY, shaped [ci*k*k, co].
        let dw = backend.matmul(
            &self.cols.transposed(),
            &gflat,
            (OperandRole::Data, OperandRole::Error),
        );
        // dCols = dY × Wᵀ  ([rows, ci*k*k]).
        let colsw = self.w.shape()[1] * self.k * self.k;
        let wmat = self
            .w
            .clone()
            .reshape(vec![co, colsw])
            .unwrap_or_else(|_| unreachable!("weight reshape is size-preserving"));
        let dcols = backend.matmul(&gflat, &wmat, (OperandRole::Error, OperandRole::Data));
        // Fold dCols back to the input (col2im).
        let (ci, h, w) = (self.in_shape[1], self.in_shape[2], self.in_shape[3]);
        let mut dx = Tensor::zeros(self.in_shape.clone());
        for ni in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let row = (ni * ho + oy) * wo + ox;
                    for c in 0..ci {
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = (oy * self.spec.stride + ky) as isize
                                    - self.spec.pad as isize;
                                let ix = (ox * self.spec.stride + kx) as isize
                                    - self.spec.pad as isize;
                                if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                    continue;
                                }
                                let col = (c * self.k + ky) * self.k + kx;
                                let v = dx.get(&[ni, c, iy as usize, ix as usize])
                                    + dcols.get(&[row, col]);
                                dx.set(&[ni, c, iy as usize, ix as usize], v);
                            }
                        }
                    }
                }
            }
        }
        // SGD on FP32 master weights (dW is [ci*k*k, co]; W is [co, ci,
        // k, k]). The caller pre-normalizes the upstream gradient, so the
        // raw sums are applied directly.
        for c in 0..co {
            let db: f32 = (0..rows).map(|r| gflat.get(&[r, c])).sum();
            self.bias[c] -= lr * db;
        }
        let wslice = self.w.as_mut_slice();
        for c in 0..co {
            for j in 0..colsw {
                wslice[c * colsw + j] -= lr * dw.get(&[j, c]);
            }
        }
        dx
    }
}

/// A tiny CNN classifier: Conv → ReLU → Conv → ReLU → global-avg-pool →
/// dense, trained with the provided backend.
#[derive(Debug, Clone)]
pub struct TinyCnn {
    conv1: Conv2d,
    conv2: Conv2d,
    head_w: Tensor, // [c2, classes]
    head_b: Vec<f32>,
    // Cached state.
    a1: Tensor,
    a2: Tensor,
    pooled: Tensor,
}

impl TinyCnn {
    /// Builds the CNN for `ci`-channel inputs and `classes` outputs.
    pub fn new(ci: usize, c1: usize, c2: usize, classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let scale = (2.0 / c2 as f32).sqrt();
        Self {
            conv1: Conv2d::new(ci, c1, 3, ConvSpec { stride: 1, pad: 1 }, seed),
            conv2: Conv2d::new(c1, c2, 3, ConvSpec { stride: 1, pad: 1 }, seed + 1),
            head_w: Tensor::from_fn(vec![c2, classes], |_| {
                scale * (rng.gen_range(-0.5f32..0.5))
            }),
            head_b: vec![0.0; classes],
            a1: Tensor::default(),
            a2: Tensor::default(),
            pooled: Tensor::default(),
        }
    }

    /// Forward to logits `[n, classes]`.
    pub fn forward(&mut self, backend: &dyn Backend, x: &Tensor) -> Tensor {
        let z1 = self.conv1.forward(backend, x);
        self.a1 = z1.map(|v| v.max(0.0));
        let z2 = self.conv2.forward(backend, &self.a1);
        self.a2 = z2.map(|v| v.max(0.0));
        // Global average pool to [n, c2].
        let (n, c2, h, w) = (
            self.a2.shape()[0],
            self.a2.shape()[1],
            self.a2.shape()[2],
            self.a2.shape()[3],
        );
        let mut pooled = Tensor::zeros(vec![n, c2]);
        for ni in 0..n {
            for c in 0..c2 {
                let mut s = 0.0;
                for y in 0..h {
                    for x2 in 0..w {
                        s += self.a2.get(&[ni, c, y, x2]);
                    }
                }
                pooled.set(&[ni, c], s / (h * w) as f32);
            }
        }
        self.pooled = pooled.clone();
        let mut logits =
            backend.matmul(&pooled, &self.head_w, (OperandRole::Data, OperandRole::Data));
        add_bias(&mut logits, &self.head_b);
        logits
    }

    /// Backward + SGD from the loss gradient on the logits (the gradient
    /// of the *total* loss; it is normalized to the mean here once).
    pub fn backward_sgd(&mut self, backend: &dyn Backend, grad_logits: &Tensor, lr: f32) {
        let n = grad_logits.shape()[0];
        let classes = self.head_b.len();
        let g = grad_logits.map(|v| v / n as f32);
        // Head gradients.
        let dw = backend.matmul(
            &self.pooled.transposed(),
            &g,
            (OperandRole::Data, OperandRole::Error),
        );
        let dpooled = backend.matmul(
            &g,
            &self.head_w.transposed(),
            (OperandRole::Error, OperandRole::Data),
        );
        for c in 0..classes {
            let db: f32 = (0..n).map(|r| g.get(&[r, c])).sum();
            self.head_b[c] -= lr * db;
        }
        for (wv, gr) in self.head_w.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *wv -= lr * gr;
        }
        // Spread the pooled gradient back over the feature map + ReLU mask.
        let (c2, h, w) = (self.a2.shape()[1], self.a2.shape()[2], self.a2.shape()[3]);
        let mut da2 = Tensor::zeros(self.a2.shape().to_vec());
        let inv_hw = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for c in 0..c2 {
                let g = dpooled.get(&[ni, c]) * inv_hw;
                for y in 0..h {
                    for x2 in 0..w {
                        if self.a2.get(&[ni, c, y, x2]) > 0.0 {
                            da2.set(&[ni, c, y, x2], g);
                        }
                    }
                }
            }
        }
        let da1_pre = self.conv2.backward_sgd(backend, &da2, lr);
        let da1 = Tensor::from_fn(da1_pre.shape().to_vec(), |i| {
            if self.a1.as_slice()[i] > 0.0 {
                da1_pre.as_slice()[i]
            } else {
                0.0
            }
        });
        let _ = self.conv1.backward_sgd(backend, &da1, lr);
    }

    /// Classification accuracy on image data `[n, ci, h, w]` with labels.
    pub fn accuracy(&mut self, backend: &dyn Backend, x: &Tensor, y: &[usize]) -> f64 {
        let logits = self.forward(backend, x);
        argmax_accuracy(&logits, self.head_b.len(), y)
    }
}

/// Synthetic image-classification task: each class is a distinct *texture*
/// (horizontal stripes, vertical stripes, checkerboard, diagonal bands)
/// plus noise, `[n, 1, 8, 8]` — textures are locally detectable by small
/// convolution kernels and survive global average pooling.
pub fn pattern_images(n: usize, classes: usize, noise: f32, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Tensor::zeros(vec![n, 1, 8, 8]);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        let phase = rng.gen_range(0usize..2); // random shift: position is no cue
        for yy in 0..8 {
            for xx in 0..8 {
                let base = match c % 4 {
                    0 => ((yy + phase) % 2) as f32,                    // horizontal stripes
                    1 => ((xx + phase) % 2) as f32,                    // vertical stripes
                    2 => ((yy + xx + phase) % 2) as f32,               // checkerboard
                    _ => f32::from(u8::from((yy + 2 * xx + phase) % 4 < 2)), // diagonal bands
                };
                let v = base + noise * rng.gen_range(-1.0f32..1.0);
                x.set(&[i, 0, yy, xx], v);
            }
        }
        y.push(c);
    }
    (x, y)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::backend::{Fp32Backend, Hfp8Backend};

    fn train_cnn(backend: &dyn Backend, epochs: usize) -> f64 {
        let (x, y) = pattern_images(128, 4, 0.15, 9);
        let mut cnn = TinyCnn::new(1, 4, 8, 4, 3);
        for _ in 0..epochs {
            let logits = cnn.forward(backend, &x);
            let (_, grad) = crate::mlp::softmax_cross_entropy(&logits, &y);
            cnn.backward_sgd(backend, &grad, 0.5);
        }
        cnn.accuracy(backend, &x, &y)
    }

    #[test]
    fn fp32_cnn_learns_patterns() {
        let acc = train_cnn(&Fp32Backend, 60);
        assert!(acc > 0.9, "fp32 cnn accuracy {acc}");
    }

    #[test]
    fn hfp8_cnn_matches_fp32() {
        let a32 = train_cnn(&Fp32Backend, 60);
        let a8 = train_cnn(&Hfp8Backend::default(), 60);
        assert!(a8 > a32 - 0.06, "hfp8 {a8} vs fp32 {a32}");
        assert!(a8 > 0.85, "hfp8 cnn accuracy {a8}");
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let (x, y) = pattern_images(8, 4, 0.1, 11);
        let mut cnn = TinyCnn::new(1, 2, 3, 4, 5);
        // Numeric gradient of one conv1 weight.
        let eps = 1e-3f32;
        let loss = |cnn: &mut TinyCnn, delta: f32| {
            let orig = cnn.conv1.w.as_slice()[0];
            cnn.conv1.w.as_mut_slice()[0] = orig + delta;
            let logits = cnn.forward(&Fp32Backend, &x);
            let (l, _) = crate::mlp::softmax_cross_entropy(&logits, &y);
            cnn.conv1.w.as_mut_slice()[0] = orig;
            l
        };
        let num = ((loss(&mut cnn, eps) - loss(&mut cnn, -eps)) / (2.0 * f64::from(eps)))
            as f32;
        // Analytic via a unit-lr probe.
        let mut probe = cnn.clone();
        let logits = probe.forward(&Fp32Backend, &x);
        let (_, grad) = crate::mlp::softmax_cross_entropy(&logits, &y);
        let before = probe.conv1.w.as_slice()[0];
        probe.backward_sgd(&Fp32Backend, &grad, 1.0);
        let analytic = before - probe.conv1.w.as_slice()[0];
        assert!(
            (num - analytic).abs() < 3e-3,
            "numeric {num} vs analytic {analytic}"
        );
    }

    #[test]
    fn pattern_images_are_deterministic_and_labeled() {
        let (x1, y1) = pattern_images(16, 4, 0.1, 3);
        let (x2, y2) = pattern_images(16, 4, 0.1, 3);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
        assert!(y1.iter().all(|&c| c < 4));
    }
}
