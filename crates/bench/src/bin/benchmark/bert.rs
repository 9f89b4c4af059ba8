//! HFP8 training of one BERT encoder layer (paper Fig 3 dataflow).
//!
//! Every GEMM runs three times per step through `refnet`'s HFP8 backend:
//! forward `(Data, Data)`, backward-data `(Error, Data)` and weight-gradient
//! `(Data, Error)`, so error operands take the FP8 (1,5,2) path. Softmax,
//! LayerNorm and GELU and their derivatives run on the SFU; the step ends
//! with an SGD write to every weight.

use crate::ops::{self, cols, put_cols, Kernels, CHUNK};
use crate::trace::Recorder;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::matmul_emulated_scalar;
use rapid_numerics::Tensor;
use rapid_refnet::{Backend, Hfp8Backend, OperandRole};
use rapid_workloads::graph::{Network, Op};

use OperandRole::{Data, Error};

/// Encoder-layer dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    pub seq: usize,
    pub hidden: usize,
    pub heads: usize,
    pub ffn: usize,
}

impl Dims {
    /// Hidden size, head count and FFN width of `net`'s first encoder layer
    /// (`l0_qkv`, `l0_scores`, `l0_ffn1`), at sequence length `seq`.
    pub fn from_network(net: &Network, seq: usize) -> Result<Self, String> {
        let find = |name: &str| {
            net.layers
                .iter()
                .find(|l| l.name == name)
                .ok_or_else(|| format!("{}: no layer {name}", net.name))
        };
        let (Op::Gemm { k: hidden, .. }, Op::Gemm { k: head_dim, .. }, Op::Gemm { n: ffn, .. }) =
            (find("l0_qkv")?.op, find("l0_scores")?.op, find("l0_ffn1")?.op)
        else {
            return Err(format!("{}: encoder layers are not GEMMs", net.name));
        };
        let heads = (hidden / head_dim.max(1)) as usize;
        Ok(Self { seq, hidden: hidden as usize, heads, ffn: ffn as usize })
    }

    /// The same layer scaled down by `f` in every dimension but the head count.
    pub fn scaled_down(self, f: usize) -> Self {
        Self { seq: self.seq / f, hidden: self.hidden / f, heads: self.heads, ffn: self.ffn / f }
    }

    fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// How a GEMM operand is read: as stored, or transposed first (the
/// transpose is operand preparation and is timed with the GEMM).
#[derive(Debug, Clone, Copy)]
enum Layout {
    N,
    T,
}

fn prepared(t: &Tensor, l: Layout) -> std::borrow::Cow<'_, Tensor> {
    match l {
        Layout::N => std::borrow::Cow::Borrowed(t),
        Layout::T => std::borrow::Cow::Owned(t.transposed()),
    }
}

/// Runs each GEMM through the fast HFP8 backend or the scalar reference
/// with the same operand-role mapping.
fn hfp8(
    k: Kernels,
    rec: &mut Recorder,
    roles: (OperandRole, OperandRole),
    (a, la): (&Tensor, Layout),
    (b, lb): (&Tensor, Layout),
) -> Result<Tensor, String> {
    let name = match roles {
        (Data, Data) => "refnet.backend.fwd",
        (Error, _) => "refnet.backend.bwd",
        (Data, Error) => "refnet.backend.wgrad",
    };
    rec.span(name, |r| {
        let (a, b) = (prepared(a, la), prepared(b, lb));
        let (a, b) = (a.as_ref(), b.as_ref());
        r.work((a.shape()[0] * a.shape()[1] * b.shape()[1]) as u64);
        match k {
            Kernels::Fast => Hfp8Backend { chunk_len: CHUNK }
                .try_matmul(a, b, roles)
                .map_err(|e| format!("hfp8 {roles:?}: {e}")),
            Kernels::Scalar => Ok(scalar_hfp8(a, b, roles)),
        }
    })
}

/// The HFP8 role mapping on the scalar reference kernel: (1,5,2) error
/// operands always sit on port B, so `(Error, Data)` runs transposed.
fn scalar_hfp8(a: &Tensor, b: &Tensor, roles: (OperandRole, OperandRole)) -> Tensor {
    let fwd = FmaMode::hfp8_fwd_default();
    let bwd = FmaMode::hfp8_bwd_default();
    match roles {
        (Data, Data) => matmul_emulated_scalar(fwd, a, b, CHUNK).0,
        (Error, Data) => {
            matmul_emulated_scalar(bwd, &b.transposed(), &a.transposed(), CHUNK).0.transposed()
        }
        (_, Error) => matmul_emulated_scalar(bwd, a, b, CHUNK).0,
    }
}

/// One encoder layer under training.
#[derive(Debug, Clone)]
pub struct Bert {
    d: Dims,
    /// `[wqkv [h, 3h], wo [h, h], w1 [h, f], w2 [f, h]]`.
    weights: [Tensor; 4],
    initial: [Tensor; 4],
    /// `(input, target)` sequences.
    batches: Vec<(Tensor, Tensor)>,
}

const LR: f32 = 1e-3;

impl Bert {
    /// Weights and `n_inputs` training sequences drawn from `seed`.
    pub fn new(d: Dims, n_inputs: usize, seed: u64) -> Self {
        let (h, f) = (d.hidden, d.ffn);
        let init = |shape: Vec<usize>, fan_in: usize, s: u64| {
            let bound = (3.0 / fan_in as f32).sqrt();
            Tensor::random_uniform(shape, -bound, bound, seed ^ s)
        };
        let weights = [
            init(vec![h, 3 * h], h, 1),
            init(vec![h, h], h, 2),
            init(vec![h, f], h, 3),
            init(vec![f, h], f, 4),
        ];
        let batches = (0..n_inputs as u64)
            .map(|i| {
                let s = seed.wrapping_add(1000 + 2 * i);
                (
                    Tensor::random_uniform(vec![d.seq, h], -1.0, 1.0, s),
                    Tensor::random_uniform(vec![d.seq, h], -1.0, 1.0, s + 1),
                )
            })
            .collect();
        Self { d, initial: weights.clone(), weights, batches }
    }

    /// Puts every weight back to its initial value.
    pub fn reset(&mut self) {
        self.weights = self.initial.clone();
    }

    /// One training step on sequence `i`; returns the layer output and the
    /// input gradient.
    pub fn step(
        &mut self,
        k: Kernels,
        rec: &mut Recorder,
        i: usize,
    ) -> Result<Vec<Tensor>, String> {
        let Dims { seq, hidden, heads, .. } = self.d;
        let hd = self.d.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let (x, target) = &self.batches[i % self.batches.len()];
        let [wqkv, wo, w1, w2] = &self.weights;

        let fwd = (Data, Data);
        let (bwd, wgrad) = ((Error, Data), (Data, Error));
        use Layout::{N, T};

        // Forward.
        let qkv = hfp8(k, rec, fwd, (x, N), (wqkv, N))?;
        let mut ctx = Tensor::zeros(vec![seq, hidden]);
        let mut saved = Vec::with_capacity(heads);
        for hi in 0..heads {
            let q = cols(&qkv, hi * hd, hd);
            let key = cols(&qkv, hidden + hi * hd, hd);
            let v = cols(&qkv, 2 * hidden + hi * hd, hd);
            let mut p = hfp8(k, rec, fwd, (&q, N), (&key, T))?;
            ops::softmax_rows(rec, &mut p, scale);
            let c = hfp8(k, rec, fwd, (&p, N), (&v, N))?;
            put_cols(&mut ctx, hi * hd, &c);
            saved.push((q, key, v, p));
        }
        let mut r1 = hfp8(k, rec, fwd, (&ctx, N), (wo, N))?;
        ops::add(rec, &mut r1, x);
        let (a1, rstd1) = ops::layer_norm(rec, &r1);
        let f1 = hfp8(k, rec, fwd, (&a1, N), (w1, N))?;
        let g = ops::gelu(rec, &f1);
        let mut r2 = hfp8(k, rec, fwd, (&g, N), (w2, N))?;
        ops::add(rec, &mut r2, &a1);
        let (y, rstd2) = ops::layer_norm(rec, &r2);

        // Backward from the squared-error loss against the target.
        let mut dy = y.clone();
        ops::sfu(rec, dy.len(), || {
            for (d, &t) in dy.as_mut_slice().iter_mut().zip(target.as_slice()) {
                *d -= t;
            }
        });
        let dr2 = ops::layer_norm_bwd(rec, &dy, &y, &rstd2);
        let dw2 = hfp8(k, rec, wgrad, (&g, T), (&dr2, N))?;
        let dg = hfp8(k, rec, bwd, (&dr2, N), (w2, T))?;
        let df1 = ops::gelu_bwd(rec, &dg, &f1);
        let dw1 = hfp8(k, rec, wgrad, (&a1, T), (&df1, N))?;
        let mut da1 = hfp8(k, rec, bwd, (&df1, N), (w1, T))?;
        ops::add(rec, &mut da1, &dr2);
        let dr1 = ops::layer_norm_bwd(rec, &da1, &a1, &rstd1);
        let dwo = hfp8(k, rec, wgrad, (&ctx, T), (&dr1, N))?;
        let dctx = hfp8(k, rec, bwd, (&dr1, N), (wo, T))?;
        let mut dqkv = Tensor::zeros(vec![seq, 3 * hidden]);
        for (hi, (q, key, v, p)) in saved.iter().enumerate() {
            let dc = cols(&dctx, hi * hd, hd);
            let dp = hfp8(k, rec, bwd, (&dc, N), (v, T))?;
            let dv = hfp8(k, rec, wgrad, (p, T), (&dc, N))?;
            let ds = ops::softmax_bwd(rec, &dp, p, scale);
            let dq = hfp8(k, rec, bwd, (&ds, N), (key, N))?;
            let dk = hfp8(k, rec, bwd, (&ds, T), (q, N))?;
            put_cols(&mut dqkv, hi * hd, &dq);
            put_cols(&mut dqkv, hidden + hi * hd, &dk);
            put_cols(&mut dqkv, 2 * hidden + hi * hd, &dv);
        }
        let dwqkv = hfp8(k, rec, wgrad, (x, T), (&dqkv, N))?;
        let dx = hfp8(k, rec, bwd, (&dqkv, N), (wqkv, T))?;

        rec.span("bench.sgd", |r| {
            for (w, dw) in self.weights.iter_mut().zip([&dwqkv, &dwo, &dw1, &dw2]) {
                r.work(w.len() as u64);
                for (v, &g) in w.as_mut_slice().iter_mut().zip(dw.as_slice()) {
                    *v -= LR * g;
                }
            }
        });
        Ok(vec![y, dx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_workloads::nlp::bert_base_384;

    #[test]
    fn dims_come_from_the_network() {
        let d = Dims::from_network(&bert_base_384(), 128).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(d, Dims { seq: 128, hidden: 768, heads: 12, ffn: 3072 });
        assert_eq!(d.scaled_down(8), Dims { seq: 16, hidden: 96, heads: 12, ffn: 384 });
    }

    #[test]
    fn fast_and_scalar_steps_agree_and_weights_move() {
        let d = Dims { seq: 8, hidden: 32, heads: 2, ffn: 64 };
        let mut fast = Bert::new(d, 2, 9);
        let mut scalar = fast.clone();
        let mut rec = Recorder::off();
        for i in 0..2 {
            let a = fast.step(Kernels::Fast, &mut rec, i).unwrap_or_else(|e| panic!("{e}"));
            let b = scalar.step(Kernels::Scalar, &mut rec, i).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a, b, "step {i}");
            assert!(a.iter().all(|t| t.as_slice().iter().all(|v| v.is_finite())));
        }
        assert_ne!(fast.weights[0], fast.initial[0]);
        fast.reset();
        assert_eq!(fast.weights, fast.initial);
    }
}
