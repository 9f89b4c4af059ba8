//! A small LSTM trained over the emulated numerics, with the gate
//! non-linearities computed by the SFU's *approximated* sigmoid/tanh
//! (paper §III-B) — demonstrating that the fast approximations suffice
//! for recurrent training, the workload class the suite's LSTM/BiLSTM
//! benchmarks represent.

use crate::backend::{Backend, OperandRole};
use crate::dense::{add_bias, argmax_accuracy};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rapid_numerics::sfu::{self, SfuAccuracy};
use rapid_numerics::Tensor;

/// Which non-linearity implementation the cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMath {
    /// Exact `f32` sigmoid/tanh (reference).
    Exact,
    /// The SFU's fast approximations.
    SfuFast,
    /// The SFU's accurate (refined) approximations.
    SfuAccurate,
}

impl GateMath {
    fn sigmoid(&self, x: f32) -> f32 {
        match self {
            GateMath::Exact => 1.0 / (1.0 + (-x).exp()),
            GateMath::SfuFast => sfu::sigmoid(x, SfuAccuracy::Fast),
            GateMath::SfuAccurate => sfu::sigmoid(x, SfuAccuracy::Accurate),
        }
    }

    fn tanh(&self, x: f32) -> f32 {
        match self {
            GateMath::Exact => x.tanh(),
            GateMath::SfuFast => sfu::tanh(x, SfuAccuracy::Fast),
            GateMath::SfuAccurate => sfu::tanh(x, SfuAccuracy::Accurate),
        }
    }
}

/// A single-layer LSTM classifier over binary sequences: the task is
/// sequence parity (count of ones mod 2) — impossible without state, so a
/// converging model proves the recurrence works.
#[derive(Debug, Clone)]
pub struct LstmNet {
    hidden: usize,
    // Gate weights [input+hidden, 4*hidden] and bias (i, f, g, o order).
    w: Tensor,
    b: Vec<f32>,
    // Classifier head [hidden, 2].
    head: Tensor,
    gates: GateMath,
}

impl LstmNet {
    /// Builds a 1-in, `hidden`-state LSTM with a 2-class head.
    pub fn new(hidden: usize, gates: GateMath, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = 1 + hidden;
        let scale = (1.0 / fan_in as f32).sqrt();
        let w = Tensor::from_fn(vec![fan_in, 4 * hidden], |_| {
            scale * rng.gen_range(-1.0f32..1.0)
        });
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate bias starts at 1.0, the standard trick.
        for f in b.iter_mut().skip(hidden).take(hidden) {
            *f = 1.0;
        }
        let head = Tensor::from_fn(vec![hidden, 2], |_| 0.5 * rng.gen_range(-1.0f32..1.0));
        Self { hidden, w, b, head, gates }
    }

    /// Runs the LSTM over a batch of sequences `[n][t]` of ±1 inputs and
    /// returns logits `[n, 2]` plus the cached per-step state needed for
    /// BPTT: `(logits, xs, hs, cs, gate_acts)`.
    #[allow(clippy::type_complexity)]
    fn forward(
        &self,
        backend: &dyn Backend,
        seqs: &[Vec<f32>],
    ) -> (Tensor, Vec<Tensor>, Vec<Tensor>, Vec<Tensor>, Vec<Tensor>) {
        let n = seqs.len();
        let t_len = seqs[0].len();
        let h = self.hidden;
        let mut hs = vec![Tensor::zeros(vec![n, h])];
        let mut cs = vec![Tensor::zeros(vec![n, h])];
        let mut xs = Vec::new();
        let mut gate_acts = Vec::new();
        for t in 0..t_len {
            // Concatenate [x_t, h_{t-1}] as [n, 1+h].
            let mut xin = Tensor::zeros(vec![n, 1 + h]);
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                xin.set(&[i, 0], seqs[i][t]);
                for j in 0..h {
                    xin.set(&[i, 1 + j], hs[t].get(&[i, j]));
                }
            }
            let mut z = backend.matmul(&xin, &self.w, (OperandRole::Data, OperandRole::Data));
            add_bias(&mut z, &self.b);
            // Gates.
            let mut ht = Tensor::zeros(vec![n, h]);
            let mut ct = Tensor::zeros(vec![n, h]);
            let mut acts = Tensor::zeros(vec![n, 4 * h]);
            for r in 0..n {
                for j in 0..h {
                    let i_g = self.gates.sigmoid(z.get(&[r, j]));
                    let f_g = self.gates.sigmoid(z.get(&[r, h + j]));
                    let g_g = self.gates.tanh(z.get(&[r, 2 * h + j]));
                    let o_g = self.gates.sigmoid(z.get(&[r, 3 * h + j]));
                    let c_new = f_g * cs[t].get(&[r, j]) + i_g * g_g;
                    ct.set(&[r, j], c_new);
                    ht.set(&[r, j], o_g * self.gates.tanh(c_new));
                    acts.set(&[r, j], i_g);
                    acts.set(&[r, h + j], f_g);
                    acts.set(&[r, 2 * h + j], g_g);
                    acts.set(&[r, 3 * h + j], o_g);
                }
            }
            xs.push(xin);
            gate_acts.push(acts);
            hs.push(ht);
            cs.push(ct);
        }
        let logits = backend.matmul(
            &hs[t_len],
            &self.head,
            (OperandRole::Data, OperandRole::Data),
        );
        (logits, xs, hs, cs, gate_acts)
    }

    /// Classification accuracy on sequences with parity labels.
    pub fn accuracy(&self, backend: &dyn Backend, seqs: &[Vec<f32>], labels: &[usize]) -> f64 {
        let (logits, ..) = self.forward(backend, seqs);
        argmax_accuracy(&logits, 2, labels)
    }

    /// One BPTT + SGD step over a batch. Gate derivatives use the exact
    /// forms evaluated at the (approximated) forward activations — the
    /// standard practice when the forward path runs on approximate
    /// hardware.
    pub fn train_step(
        &mut self,
        backend: &dyn Backend,
        seqs: &[Vec<f32>],
        labels: &[usize],
        lr: f32,
    ) -> f64 {
        let n = seqs.len();
        let t_len = seqs[0].len();
        let h = self.hidden;
        let (logits, xs, hs, cs, gate_acts) = self.forward(backend, seqs);
        let (loss, grad0) = crate::mlp::softmax_cross_entropy(&logits, labels);
        let grad_logits = grad0.map(|v| v / n as f32);

        // Head gradients.
        let dhead = backend.matmul(
            &hs[t_len].transposed(),
            &grad_logits,
            (OperandRole::Data, OperandRole::Error),
        );
        let mut dh = backend.matmul(
            &grad_logits,
            &self.head.transposed(),
            (OperandRole::Error, OperandRole::Data),
        );
        for (wv, g) in self.head.as_mut_slice().iter_mut().zip(dhead.as_slice()) {
            *wv -= lr * g;
        }

        // BPTT.
        let mut dc = Tensor::zeros(vec![n, h]);
        let mut dw = Tensor::zeros(vec![1 + h, 4 * h]);
        let mut db = vec![0.0f32; 4 * h];
        for t in (0..t_len).rev() {
            let acts = &gate_acts[t];
            let mut dz = Tensor::zeros(vec![n, 4 * h]);
            let mut dh_next = Tensor::zeros(vec![n, h]);
            for r in 0..n {
                for j in 0..h {
                    let i_g = acts.get(&[r, j]);
                    let f_g = acts.get(&[r, h + j]);
                    let g_g = acts.get(&[r, 2 * h + j]);
                    let o_g = acts.get(&[r, 3 * h + j]);
                    let c_new = cs[t + 1].get(&[r, j]);
                    let tanh_c = self.gates.tanh(c_new);
                    let dht = dh.get(&[r, j]);
                    let dct = dc.get(&[r, j]) + dht * o_g * (1.0 - tanh_c * tanh_c);
                    // Gate pre-activation gradients.
                    dz.set(&[r, j], dct * g_g * i_g * (1.0 - i_g));
                    dz.set(&[r, h + j], dct * cs[t].get(&[r, j]) * f_g * (1.0 - f_g));
                    dz.set(&[r, 2 * h + j], dct * i_g * (1.0 - g_g * g_g));
                    dz.set(&[r, 3 * h + j], dht * tanh_c * o_g * (1.0 - o_g));
                    dc.set(&[r, j], dct * f_g);
                }
            }
            // Accumulate weight gradients and propagate into h_{t-1}.
            let dwt = backend.matmul(
                &xs[t].transposed(),
                &dz,
                (OperandRole::Data, OperandRole::Error),
            );
            for (acc, g) in dw.as_mut_slice().iter_mut().zip(dwt.as_slice()) {
                *acc += g;
            }
            for r in 0..n {
                #[allow(clippy::needless_range_loop)]
                for c2 in 0..4 * h {
                    db[c2] += dz.get(&[r, c2]);
                }
            }
            let dxin = backend.matmul(
                &dz,
                &self.w.transposed(),
                (OperandRole::Error, OperandRole::Data),
            );
            for r in 0..n {
                for j in 0..h {
                    dh_next.set(&[r, j], dxin.get(&[r, 1 + j]));
                }
            }
            dh = dh_next;
        }
        for (wv, g) in self.w.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *wv -= lr * g;
        }
        for (bv, g) in self.b.iter_mut().zip(&db) {
            *bv -= lr * g;
        }
        loss
    }
}

/// Generates `n` random ±1 sequences of length `t` with parity labels.
pub fn parity_sequences(n: usize, t: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let bits: Vec<bool> = (0..t).map(|_| rng.gen_bool(0.5)).collect();
        labels.push(bits.iter().filter(|&&b| b).count() % 2);
        seqs.push(bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect());
    }
    (seqs, labels)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::backend::{Fp32Backend, Hfp8Backend};

    fn train(gates: GateMath, backend: &dyn Backend, epochs: usize) -> f64 {
        let (seqs, labels) = parity_sequences(96, 5, 17);
        let mut net = LstmNet::new(12, gates, 4);
        for _ in 0..epochs {
            net.train_step(backend, &seqs, &labels, 1.2);
        }
        net.accuracy(backend, &seqs, &labels)
    }

    #[test]
    fn exact_lstm_learns_parity() {
        let acc = train(GateMath::Exact, &Fp32Backend, 500);
        assert!(acc > 0.95, "exact lstm accuracy {acc}");
    }

    /// §III-B: the SFU's fast approximations of sigmoid/tanh are accurate
    /// enough to train recurrent models.
    #[test]
    fn sfu_fast_gates_match_exact() {
        let exact = train(GateMath::Exact, &Fp32Backend, 500);
        let fast = train(GateMath::SfuFast, &Fp32Backend, 500);
        assert!(fast > exact - 0.05, "sfu-fast {fast} vs exact {exact}");
    }

    /// HFP8 GEMMs + SFU-approximated gates: the full RaPiD recurrent path.
    #[test]
    fn hfp8_lstm_with_sfu_gates_learns() {
        let acc = train(GateMath::SfuAccurate, &Hfp8Backend::default(), 500);
        assert!(acc > 0.9, "hfp8+sfu lstm accuracy {acc}");
    }

    #[test]
    fn parity_task_needs_state() {
        // Sanity: a 0-step "memoryless" readout cannot beat chance — check
        // the label distribution is balanced so accuracy 0.95 is earned.
        let (_, labels) = parity_sequences(512, 6, 21);
        let ones = labels.iter().sum::<usize>() as f64 / labels.len() as f64;
        assert!((ones - 0.5).abs() < 0.1, "parity labels imbalanced: {ones}");
    }
}
