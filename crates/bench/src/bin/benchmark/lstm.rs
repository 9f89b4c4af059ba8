//! FP16 inference of the PTB LSTM language model.
//!
//! Per layer the input projection runs once over all timesteps (an m = seq
//! GEMM) and the recurrent projection once per timestep (an m = 1 GEMV);
//! the gates run on the SFU. The vocabulary projection and softmax close
//! the network.

use crate::ops::{self, Kernels};
use crate::trace::Recorder;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::Tensor;
use rapid_workloads::graph::{Network, Op};

/// Model dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    pub seq: usize,
    pub hidden: usize,
    pub vocab: usize,
    pub layers: usize,
}

impl Dims {
    /// Sequence length, vocabulary and layer count of `net` (`*_xproj` and
    /// `vocab_proj` layers), with the hidden size replaced by `hidden`.
    pub fn from_network(net: &Network, hidden: usize) -> Result<Self, String> {
        let xproj: Vec<_> = net.layers.iter().filter(|l| l.name.ends_with("_xproj")).collect();
        let vocab = net.layers.iter().find(|l| l.name == "vocab_proj");
        match (xproj.first().map(|l| l.op), vocab.map(|l| l.op)) {
            (Some(Op::Gemm { m: seq, .. }), Some(Op::Gemm { n: vocab, .. })) => {
                Ok(Self { seq: seq as usize, hidden, vocab: vocab as usize, layers: xproj.len() })
            }
            _ => Err(format!("{}: no *_xproj / vocab_proj GEMMs", net.name)),
        }
    }
}

/// Weights of one LSTM layer.
#[derive(Debug, Clone)]
struct Layer {
    /// `[h, 4h]` input projection.
    wx: Tensor,
    /// `[h, 4h]` recurrent projection.
    wh: Tensor,
    /// `[4h]` gate bias.
    bias: Vec<f32>,
}

/// The language model with its weights and token sequences.
#[derive(Debug, Clone)]
pub struct Lstm {
    d: Dims,
    /// `[vocab, h]`.
    embedding: Tensor,
    layers: Vec<Layer>,
    /// `[h, vocab]`.
    proj: Tensor,
    sequences: Vec<Vec<usize>>,
}

impl Lstm {
    /// Weights and `n_inputs` token sequences drawn from `seed`.
    pub fn new(d: Dims, n_inputs: usize, seed: u64) -> Self {
        let h = d.hidden;
        let bound = (1.0 / h as f32).sqrt();
        let w = |shape: Vec<usize>, s: u64| Tensor::random_uniform(shape, -bound, bound, seed ^ s);
        let layers = (0..d.layers as u64)
            .map(|l| Layer {
                wx: w(vec![h, 4 * h], 3 * l + 1),
                wh: w(vec![h, 4 * h], 3 * l + 2),
                bias: w(vec![4 * h], 3 * l + 3).into_vec(),
            })
            .collect();
        let sequences = (0..n_inputs as u64)
            .map(|i| {
                let draws =
                    Tensor::random_uniform(vec![d.seq], 0.0, 1.0, seed.wrapping_add(100 + i));
                draws
                    .as_slice()
                    .iter()
                    .map(|&u| ((u * d.vocab as f32) as usize).min(d.vocab - 1))
                    .collect()
            })
            .collect();
        Self {
            d,
            embedding: Tensor::random_uniform(vec![d.vocab, h], -0.5, 0.5, seed ^ 0xe),
            layers,
            proj: w(vec![h, d.vocab], 0xf),
            sequences,
        }
    }

    /// Next-token probabilities `[seq, vocab]` for token sequence `i`.
    pub fn infer(&self, k: Kernels, rec: &mut Recorder, i: usize) -> Tensor {
        let Dims { seq, hidden: h, .. } = self.d;
        let tokens = &self.sequences[i % self.sequences.len()];
        let mut x = ops::sfu(rec, seq * h, || {
            let e = self.embedding.as_slice();
            Tensor::from_fn(vec![seq, h], |j| e[tokens[j / h] * h + j % h])
        });
        for layer in &self.layers {
            let xp = ops::matmul(k, rec, FmaMode::Fp16, &x, &layer.wx);
            let mut state = Tensor::zeros(vec![1, h]);
            let mut cell = vec![0.0f32; h];
            for t in 0..seq {
                let hp = ops::matmul(k, rec, FmaMode::Fp16, &state, &layer.wh);
                let xt = &xp.as_slice()[t * 4 * h..(t + 1) * 4 * h];
                ops::lstm_cell(
                    rec,
                    [xt, hp.as_slice(), &layer.bias],
                    &mut cell,
                    state.as_mut_slice(),
                );
                x.as_mut_slice()[t * h..(t + 1) * h].copy_from_slice(state.as_slice());
            }
        }
        let mut logits = ops::matmul(k, rec, FmaMode::Fp16, &x, &self.proj);
        ops::softmax_rows(rec, &mut logits, 1.0);
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_workloads::nlp::lstm_ptb;

    #[test]
    fn dims_come_from_the_network() {
        let d = Dims::from_network(&lstm_ptb(), 256).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(d, Dims { seq: 35, hidden: 256, vocab: 10_000, layers: 2 });
    }

    #[test]
    fn fast_matches_scalar() {
        let m = Lstm::new(Dims { seq: 4, hidden: 16, vocab: 50, layers: 2 }, 1, 3);
        let mut rec = Recorder::off();
        let fast = m.infer(Kernels::Fast, &mut rec, 0);
        assert_eq!(fast, m.infer(Kernels::Scalar, &mut rec, 0));
        assert_eq!(fast.shape(), &[4, 50]);
    }
}
