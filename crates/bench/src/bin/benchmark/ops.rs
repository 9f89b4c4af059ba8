//! The layer calls the workloads make, each inside a span named after the
//! library layer it times.
//!
//! Compute layers call the `numerics` kernels: the default fast entry points
//! for timed work and the `*_scalar` references for the correctness gate.
//! Auxiliary layers (BN, ReLU, pooling, residual adds, softmax, LayerNorm,
//! GELU, LSTM gates) are the SFU's work on the chip: they use
//! `numerics::sfu` for the non-linear functions and round every result onto
//! the FP16 lattice the SFU writes.

use crate::trace::Recorder;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::format::fp16_round;
use rapid_numerics::gemm::{self, ConvSpec};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::sfu::{self, SfuAccuracy};
use rapid_numerics::Tensor;

/// MPE accumulation chunk (the dataflow's LRF reload interval).
pub const CHUNK: usize = 64;

const SFU: SfuAccuracy = SfuAccuracy::Fast;

/// Which implementation of the compute kernels runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernels {
    /// The library's default (tiled / SIMD, multithreaded) entry points.
    Fast,
    /// The `*_scalar` references the fast paths must match bit for bit.
    Scalar,
}

/// Columns `[c0, c0 + width)` of a `[rows, cols]` tensor.
pub fn cols(t: &Tensor, c0: usize, width: usize) -> Tensor {
    let n = t.shape()[1];
    let rows = t.shape()[0];
    Tensor::from_fn(vec![rows, width], |i| t.as_slice()[(i / width) * n + c0 + i % width])
}

/// Writes `src` into columns `[c0, ..)` of `dst`.
pub fn put_cols(dst: &mut Tensor, c0: usize, src: &Tensor) {
    let (n, width) = (dst.shape()[1], src.shape()[1]);
    for (r, row) in src.as_slice().chunks(width).enumerate() {
        dst.as_mut_slice()[r * n + c0..r * n + c0 + width].copy_from_slice(row);
    }
}

/// INT4 convolution.
#[allow(clippy::too_many_arguments)]
pub fn conv_int(
    k: Kernels,
    rec: &mut Recorder,
    x: &Tensor,
    w: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
) -> Tensor {
    rec.span("numerics.conv", |r| {
        let (y, st) = match k {
            Kernels::Fast => gemm::conv2d_int(x, w, spec, qa, qw, CHUNK),
            Kernels::Scalar => gemm::conv2d_int_scalar(x, w, spec, qa, qw, CHUNK),
        };
        r.work(st.macs);
        y
    })
}

/// FP16 / HFP8 convolution.
pub fn conv_float(
    k: Kernels,
    rec: &mut Recorder,
    x: &Tensor,
    w: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
) -> Tensor {
    rec.span("numerics.conv", |r| {
        let (y, st) = match k {
            Kernels::Fast => gemm::conv2d_emulated(x, w, spec, mode, CHUNK),
            Kernels::Scalar => gemm::conv2d_emulated_scalar(x, w, spec, mode, CHUNK),
        };
        r.work(st.macs);
        y
    })
}

/// FP16 / HFP8 matrix multiply, timed as `numerics.gemv` when `a` has one
/// row and as `numerics.gemm` otherwise.
pub fn matmul(k: Kernels, rec: &mut Recorder, mode: FmaMode, a: &Tensor, b: &Tensor) -> Tensor {
    let name = if a.shape()[0] == 1 { "numerics.gemv" } else { "numerics.gemm" };
    rec.span(name, |r| {
        let (y, st) = match k {
            Kernels::Fast => gemm::matmul_emulated(mode, a, b, CHUNK),
            Kernels::Scalar => gemm::matmul_emulated_scalar(mode, a, b, CHUNK),
        };
        r.work(st.macs);
        y
    })
}

/// Quantisation parameters for an INT4 layer's input activations: the
/// unsigned PACT range up to the tensor's largest value.
pub fn act_quant(rec: &mut Recorder, x: &Tensor) -> QuantParams {
    rec.span("numerics.quant", |r| {
        r.work(x.len() as u64);
        QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, x.max_abs())
    })
}

/// Runs an SFU layer over `elems` elements.
pub fn sfu<R>(rec: &mut Recorder, elems: usize, f: impl FnOnce() -> R) -> R {
    rec.span("numerics.sfu", |r| {
        r.work(elems as u64);
        f()
    })
}

/// Inference batch norm, in place on `[n, c, h, w]`: per-channel scale and
/// shift.
pub fn batch_norm(rec: &mut Recorder, x: &mut Tensor, scale: &[f32], shift: &[f32]) {
    let plane: usize = x.shape()[2..].iter().product();
    sfu(rec, x.len(), || {
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            let c = (i / plane) % scale.len();
            *v = fp16_round(*v * scale[c] + shift[c]);
        }
    });
}

/// ReLU in place.
pub fn relu(rec: &mut Recorder, x: &mut Tensor) {
    sfu(rec, x.len(), || x.map_inplace(|v| v.max(0.0)));
}

/// `x += y` element-wise.
pub fn add(rec: &mut Recorder, x: &mut Tensor, y: &Tensor) {
    sfu(rec, x.len(), || {
        for (a, &b) in x.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *a = fp16_round(*a + b);
        }
    });
}

/// Max pooling of `[n, c, h, w]` with a square window.
pub fn max_pool(rec: &mut Recorder, x: &Tensor, k: usize, spec: ConvSpec) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (ho, wo) = (spec.out_dim(h, k), spec.out_dim(w, k));
    let mut out = Tensor::zeros(vec![n, c, ho, wo]);
    sfu(rec, out.len() * k * k, || {
        let (src, dst) = (x.as_slice(), out.as_mut_slice());
        for p in 0..n * c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut m = f32::NEG_INFINITY;
                    for ky in 0..k {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        for kx in 0..k {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                m = m.max(src[(p * h + iy as usize) * w + ix as usize]);
                            }
                        }
                    }
                    dst[(p * ho + oy) * wo + ox] = m;
                }
            }
        }
    });
    out
}

/// Global average pooling `[n, c, h, w] → [n, c]`.
pub fn global_avg_pool(rec: &mut Recorder, x: &Tensor) -> Tensor {
    let (n, c) = (x.shape()[0], x.shape()[1]);
    let plane: usize = x.shape()[2..].iter().product();
    sfu(rec, x.len(), || {
        let inv = sfu::reciprocal(plane as f32, SFU);
        Tensor::from_fn(vec![n, c], |p| {
            let sum: f32 = x.as_slice()[p * plane..(p + 1) * plane].iter().sum();
            fp16_round(sum * inv)
        })
    })
}

/// Row-wise softmax of `scale · x`, in place on a `[rows, cols]` tensor.
pub fn softmax_rows(rec: &mut Recorder, x: &mut Tensor, scale: f32) {
    let cols = x.shape()[1];
    sfu(rec, x.len(), || {
        for row in x.as_mut_slice().chunks_mut(cols) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = sfu::exp((*v - max) * scale, SFU);
                sum += *v;
            }
            let inv = sfu::reciprocal(sum, SFU);
            for v in row.iter_mut() {
                *v = fp16_round(*v * inv);
            }
        }
    });
}

/// Softmax backward: `ds = scale · p ⊙ (dp − rowsum(dp ⊙ p))`.
pub fn softmax_bwd(rec: &mut Recorder, dp: &Tensor, p: &Tensor, scale: f32) -> Tensor {
    let cols = p.shape()[1];
    let mut ds = dp.clone();
    sfu(rec, p.len(), || {
        for (drow, prow) in ds.as_mut_slice().chunks_mut(cols).zip(p.as_slice().chunks(cols)) {
            let dot: f32 = drow.iter().zip(prow).map(|(a, b)| a * b).sum();
            for (d, &pv) in drow.iter_mut().zip(prow) {
                *d = fp16_round(scale * pv * (*d - dot));
            }
        }
    });
    ds
}

/// Row-wise LayerNorm (unit gain, zero bias) of `[rows, cols]`; returns the
/// output and each row's reciprocal standard deviation for the backward pass.
pub fn layer_norm(rec: &mut Recorder, x: &Tensor) -> (Tensor, Vec<f32>) {
    let cols = x.shape()[1];
    let mut y = x.clone();
    let mut rstd = Vec::with_capacity(x.shape()[0]);
    sfu(rec, x.len(), || {
        let inv_n = sfu::reciprocal(cols as f32, SFU);
        for row in y.as_mut_slice().chunks_mut(cols) {
            let mean = row.iter().sum::<f32>() * inv_n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() * inv_n;
            let r = sfu::reciprocal(sfu::sqrt(var + 1e-5, SFU), SFU);
            for v in row.iter_mut() {
                *v = fp16_round((*v - mean) * r);
            }
            rstd.push(r);
        }
    });
    (y, rstd)
}

/// LayerNorm backward for unit gain: `dx = rstd · (dy − mean(dy) − y · mean(dy ⊙ y))`.
pub fn layer_norm_bwd(rec: &mut Recorder, dy: &Tensor, y: &Tensor, rstd: &[f32]) -> Tensor {
    let cols = y.shape()[1];
    let mut dx = dy.clone();
    sfu(rec, y.len(), || {
        let inv_n = sfu::reciprocal(cols as f32, SFU);
        let rows = dx.as_mut_slice().chunks_mut(cols).zip(y.as_slice().chunks(cols));
        for ((drow, yrow), &r) in rows.zip(rstd) {
            let mean_d = drow.iter().sum::<f32>() * inv_n;
            let mean_dy = drow.iter().zip(yrow).map(|(d, v)| d * v).sum::<f32>() * inv_n;
            for (d, &v) in drow.iter_mut().zip(yrow) {
                *d = fp16_round(r * (*d - mean_d - v * mean_dy));
            }
        }
    });
    dx
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2 / pi)
const GELU_A: f32 = 0.044_715;

/// GELU, tanh approximation.
pub fn gelu(rec: &mut Recorder, x: &Tensor) -> Tensor {
    sfu(rec, x.len(), || {
        x.map(|v| fp16_round(0.5 * v * (1.0 + sfu::tanh(GELU_C * (v + GELU_A * v * v * v), SFU))))
    })
}

/// GELU backward: `dx = dy · gelu'(x)`.
pub fn gelu_bwd(rec: &mut Recorder, dy: &Tensor, x: &Tensor) -> Tensor {
    let mut dx = dy.clone();
    sfu(rec, x.len(), || {
        for (d, &v) in dx.as_mut_slice().iter_mut().zip(x.as_slice()) {
            let t = sfu::tanh(GELU_C * (v + GELU_A * v * v * v), SFU);
            let dt = (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * v * v);
            *d = fp16_round(*d * (0.5 * (1.0 + t) + 0.5 * v * dt));
        }
    });
    dx
}

/// One LSTM cell update, in place on the cell and hidden state. The gate
/// pre-activations `[i | f | g | o]` (each `c.len()` wide) are the sum of
/// the three `terms`: input projection, recurrent projection and bias.
pub fn lstm_cell(rec: &mut Recorder, terms: [&[f32]; 3], c: &mut [f32], h: &mut [f32]) {
    let n = c.len();
    sfu(rec, 4 * n, || {
        let gate = |j: usize| terms[0][j] + terms[1][j] + terms[2][j];
        for j in 0..n {
            let i = sfu::sigmoid(gate(j), SFU);
            let f = sfu::sigmoid(gate(n + j), SFU);
            let g = sfu::tanh(gate(2 * n + j), SFU);
            let o = sfu::sigmoid(gate(3 * n + j), SFU);
            c[j] = fp16_round(f * c[j] + i * g);
            h[j] = fp16_round(o * sfu::tanh(c[j], SFU));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one_and_layer_norm_centres() {
        let mut rec = Recorder::off();
        let mut x = Tensor::random_uniform(vec![3, 16], -2.0, 2.0, 5);
        let (y, rstd) = layer_norm(&mut rec, &x);
        for row in y.as_slice().chunks(16) {
            assert!(row.iter().sum::<f32>().abs() < 0.05);
        }
        assert_eq!(rstd.len(), 3);
        softmax_rows(&mut rec, &mut x, 1.0);
        for row in x.as_slice().chunks(16) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 0.02);
        }
    }

    #[test]
    fn pooling_shapes() {
        let mut rec = Recorder::off();
        let x = Tensor::random_uniform(vec![1, 2, 8, 8], 0.0, 1.0, 6);
        let p = max_pool(&mut rec, &x, 3, ConvSpec { stride: 2, pad: 1 });
        assert_eq!(p.shape(), &[1, 2, 4, 4]);
        assert!(p.as_slice().iter().all(|&v| v <= x.max_abs()));
        let g = global_avg_pool(&mut rec, &x);
        assert_eq!(g.shape(), &[1, 2]);
    }
}
