//! Executes a residual CNN from `workloads` (ResNet50) through the emulated
//! kernels.
//!
//! `Network` is a flat layer list with branches flattened in execution
//! order, so [`CnnPlan::build`] recovers the dataflow from the declared
//! shapes: a convolution whose declared input is not the running feature
//! map reads the block input instead (a projection shortcut), and a residual
//! add sums the running map with that projection, or with the block input
//! when there was none. Shapes are re-derived from the actual input size, so
//! the same layer list runs at any input resolution.

use crate::ops::{self, Kernels};
use crate::trace::Recorder;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::ConvSpec;
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::Tensor;
use rapid_workloads::graph::{AuxKind, Network, Op, PrecisionClass};

/// Precision of the quantizable layers; high-precision layers (first and
/// last) always run in FP16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prec {
    Int4,
    Hfp8,
    Fp16,
}

/// A convolution with its weights and its actual input geometry.
#[derive(Debug, Clone)]
pub struct Conv {
    /// `[co, ci, kh, kw]`.
    pub w: Tensor,
    pub qw: QuantParams,
    pub spec: ConvSpec,
    pub high_precision: bool,
    /// Reads the block input instead of the running feature map.
    pub from_block: bool,
    /// Actual per-sample input `[ci, h, w]`.
    pub input: [usize; 3],
}

#[derive(Debug, Clone)]
enum Step {
    Conv(Conv),
    BatchNorm {
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    Relu,
    MaxPool {
        k: usize,
        spec: ConvSpec,
    },
    GlobalPool,
    Add,
    /// `[k, n]` weights.
    Fc {
        w: Tensor,
        high_precision: bool,
    },
    Softmax,
}

/// A network lowered to executable steps with generated weights.
#[derive(Debug, Clone)]
pub struct CnnPlan {
    steps: Vec<Step>,
    /// Per-sample input `[c, h, w]`.
    pub input: [usize; 3],
    /// MACs of one inference.
    pub macs: u64,
}

/// Feature-map shape as the layer list declares it and as it actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    declared: [u64; 3],
    actual: [usize; 3],
}

fn out_dim(h: usize, k: usize, stride: usize, pad: usize) -> usize {
    (h + 2 * pad).saturating_sub(k) / stride + 1
}

impl CnnPlan {
    /// Lowers `net` for a square input of `hw × hw` pixels with every
    /// feature map `width_div` times narrower, drawing weights from `seed`.
    pub fn build(net: &Network, hw: usize, width_div: u64, seed: u64) -> Result<Self, String> {
        let first = net.layers.iter().find_map(|l| match l.op {
            Op::Conv { ci, h, w, .. } => Some([ci, h, w]),
            _ => None,
        });
        let Some(declared) = first else {
            return Err(format!("{}: no convolution to start from", net.name));
        };
        let mut cur = Shape { declared, actual: [declared[0] as usize, hw, hw] };
        let mut block = cur;
        let mut main: Option<Shape> = None;
        let mut steps = Vec::new();
        let mut macs = 0u64;
        let mut seeds = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next_seed = || {
            seeds = seeds.wrapping_add(0x9e37_79b9_7f4a_7c15);
            seeds
        };
        for layer in &net.layers {
            let high_precision = layer.class == PrecisionClass::HighPrecision;
            let unsupported =
                || format!("{}: unsupported layer {} ({:?})", net.name, layer.name, layer.op);
            match layer.op {
                Op::Conv { ci, co, h, w, kh, kw, stride, pad_h, pad_w } => {
                    if kh != kw || pad_h != pad_w {
                        return Err(unsupported());
                    }
                    let from_block = [ci, h, w] != cur.declared;
                    if from_block {
                        if [ci, h, w] != block.declared || main.is_some() {
                            return Err(unsupported());
                        }
                        main = Some(cur);
                    }
                    let src = if from_block { block } else { cur };
                    let (k, s, p) = (kh as usize, stride as usize, pad_h as usize);
                    let [ci_a, h_a, w_a] = src.actual;
                    let (ho, wo) = (out_dim(h_a, k, s, p), out_dim(w_a, k, s, p));
                    if ho == 0 || wo == 0 || h_a + 2 * p < k {
                        return Err(format!("{}: input too small at {}", net.name, layer.name));
                    }
                    let fan_in = ci_a * k * k;
                    // He-uniform weights keep activation variance steady through ReLU.
                    let bound = (6.0 / fan_in as f32).sqrt();
                    let co_a = (co / width_div).max(1) as usize;
                    let weights =
                        Tensor::random_uniform(vec![co_a, ci_a, k, k], -bound, bound, next_seed());
                    let qw = QuantParams::from_abs_max(
                        IntFormat::Int4,
                        Signedness::Signed,
                        weights.max_abs(),
                    );
                    macs += (co_a * ho * wo * fan_in) as u64;
                    let dh = (h + 2 * pad_h).saturating_sub(kh) / stride + 1;
                    let dw = (w + 2 * pad_w).saturating_sub(kw) / stride + 1;
                    cur = Shape { declared: [co, dh, dw], actual: [co_a, ho, wo] };
                    steps.push(Step::Conv(Conv {
                        w: weights,
                        qw,
                        spec: ConvSpec { stride: s, pad: p },
                        high_precision,
                        from_block,
                        input: src.actual,
                    }));
                }
                Op::Aux { kind: AuxKind::BatchNorm, .. } => {
                    let c = cur.actual[0];
                    // Scales below one damp the residual sum's growth with depth.
                    let scale = Tensor::random_uniform(vec![c], 0.5, 0.8, next_seed()).into_vec();
                    let shift =
                        Tensor::random_uniform(vec![c], -0.05, 0.05, next_seed()).into_vec();
                    steps.push(Step::BatchNorm { scale, shift });
                }
                Op::Aux { kind: AuxKind::Relu, .. } => steps.push(Step::Relu),
                Op::Aux { kind: AuxKind::Pool, elems, ops_per_elem } => {
                    let [c, h, w] = cur.declared;
                    if elems == c && ops_per_elem == h * w {
                        cur = Shape { declared: [c, 1, 1], actual: [cur.actual[0], 1, 1] };
                        steps.push(Step::GlobalPool);
                    } else {
                        let k = (ops_per_elem as f64).sqrt().round() as u64;
                        let ho = ((elems / c) as f64).sqrt().round() as u64;
                        if k * k != ops_per_elem || ho == 0 || ho * ho * c != elems {
                            return Err(unsupported());
                        }
                        let stride = (h as f64 / ho as f64).round() as u64;
                        let pad = k / 2;
                        if out_dim(h as usize, k as usize, stride as usize, pad as usize)
                            != ho as usize
                        {
                            return Err(unsupported());
                        }
                        let spec = ConvSpec { stride: stride as usize, pad: pad as usize };
                        let [ca, ha, wa] = cur.actual;
                        let (k, s, p) = (k as usize, spec.stride, spec.pad);
                        cur = Shape {
                            declared: [c, ho, ho],
                            actual: [ca, out_dim(ha, k, s, p), out_dim(wa, k, s, p)],
                        };
                        steps.push(Step::MaxPool { k, spec });
                    }
                    block = cur;
                }
                Op::Aux { kind: AuxKind::EltwiseAdd, .. } => {
                    let other = main.take().unwrap_or(block);
                    if other.declared != cur.declared {
                        return Err(unsupported());
                    }
                    block = cur;
                    steps.push(Step::Add);
                }
                Op::Gemm { m: 1, k, n, weighted: true } => {
                    let [c, h, w] = cur.declared;
                    if k != c * h * w {
                        return Err(unsupported());
                    }
                    let k_a: usize = cur.actual.iter().product();
                    let bound = (6.0 / k_a as f32).sqrt();
                    let w =
                        Tensor::random_uniform(vec![k_a, n as usize], -bound, bound, next_seed());
                    macs += (k_a * n as usize) as u64;
                    cur = Shape { declared: [n, 1, 1], actual: [n as usize, 1, 1] };
                    steps.push(Step::Fc { w, high_precision });
                }
                Op::Aux { kind: AuxKind::Softmax, .. } => steps.push(Step::Softmax),
                _ => return Err(unsupported()),
            }
        }
        Ok(Self { steps, input: [declared[0] as usize, hw, hw], macs })
    }

    /// The convolutions in execution order.
    pub fn convs(&self) -> impl Iterator<Item = &Conv> {
        self.steps.iter().filter_map(|s| match s {
            Step::Conv(c) => Some(c),
            _ => None,
        })
    }

    /// The fully-connected layers as `([k, n] weights, high precision)`.
    pub fn fcs(&self) -> impl Iterator<Item = (&Tensor, bool)> {
        self.steps.iter().filter_map(|s| match s {
            Step::Fc { w, high_precision } => Some((w, *high_precision)),
            _ => None,
        })
    }

    /// One inference of a batch `x: [n, c, h, w]`; returns class
    /// probabilities `[n, classes]`.
    pub fn infer(&self, k: Kernels, prec: Prec, rec: &mut Recorder, x: Tensor) -> Tensor {
        let mut cur = x;
        let mut block = cur.clone();
        let mut main: Option<Tensor> = None;
        for step in &self.steps {
            match step {
                Step::Conv(c) => {
                    let input = if c.from_block {
                        main = Some(cur);
                        &block
                    } else {
                        &cur
                    };
                    let mode = match (c.high_precision, prec) {
                        (true, _) | (false, Prec::Fp16) => Some(FmaMode::Fp16),
                        (false, Prec::Hfp8) => Some(FmaMode::hfp8_fwd_default()),
                        (false, Prec::Int4) => None,
                    };
                    cur = match mode {
                        Some(mode) => ops::conv_float(k, rec, input, &c.w, c.spec, mode),
                        None => {
                            let qa = ops::act_quant(rec, input);
                            ops::conv_int(k, rec, input, &c.w, c.spec, qa, c.qw)
                        }
                    };
                }
                Step::BatchNorm { scale, shift } => ops::batch_norm(rec, &mut cur, scale, shift),
                Step::Relu => ops::relu(rec, &mut cur),
                Step::MaxPool { k: win, spec } => {
                    cur = ops::max_pool(rec, &cur, *win, *spec);
                    block = cur.clone();
                }
                Step::GlobalPool => {
                    cur = ops::global_avg_pool(rec, &cur);
                    block = cur.clone();
                }
                Step::Add => {
                    let other = main.take();
                    ops::add(rec, &mut cur, other.as_ref().unwrap_or(&block));
                    block = cur.clone();
                }
                Step::Fc { w, high_precision } => {
                    let n = cur.shape()[0];
                    let flat = cur.len() / n.max(1);
                    let a = Tensor::from_vec(vec![n, flat], cur.into_vec());
                    let mode = match (high_precision, prec) {
                        (false, Prec::Hfp8) => FmaMode::hfp8_fwd_default(),
                        _ => FmaMode::Fp16,
                    };
                    cur = ops::matmul(k, rec, mode, &a, w);
                }
                Step::Softmax => ops::softmax_rows(rec, &mut cur, 1.0),
            }
        }
        cur
    }
}

/// A seeded one-image batch `[1, c, h, w]` drawn in `[0, 1)`.
pub fn image(plan: &CnnPlan, seed: u64) -> Tensor {
    let [c, h, w] = plan.input;
    Tensor::random_uniform(vec![1, c, h, w], 0.0, 1.0, seed)
}

/// Stacks `n` copies of a one-image batch along N.
pub fn stack(img: &Tensor, n: usize) -> Tensor {
    let mut shape = img.shape().to_vec();
    shape[0] = n;
    Tensor::from_vec(shape, img.as_slice().repeat(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_workloads::cnn::resnet50;

    #[test]
    fn resnet50_lowers_with_its_projection_shortcuts() {
        let plan = CnnPlan::build(&resnet50(), 32, 1, 1).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(plan.convs().count(), 53);
        assert_eq!(plan.convs().filter(|c| c.from_block).count(), 4);
        assert_eq!(plan.fcs().count(), 1);
        // Full-size MACs match the network's own count.
        let full = CnnPlan::build(&resnet50(), 224, 1, 1).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(full.macs, resnet50().total_macs());
    }

    #[test]
    fn batch_members_match_the_single_image_result() {
        let plan = CnnPlan::build(&resnet50(), 16, 4, 2).unwrap_or_else(|e| panic!("{e}"));
        let img = image(&plan, 3);
        let mut rec = Recorder::off();
        for prec in [Prec::Int4, Prec::Hfp8] {
            let one = plan.infer(Kernels::Fast, prec, &mut rec, img.clone());
            let three = plan.infer(Kernels::Fast, prec, &mut rec, stack(&img, 3));
            assert_eq!(three.shape(), &[3, 1000]);
            for row in three.as_slice().chunks(1000) {
                assert_eq!(row, one.as_slice());
            }
            let sum: f32 = one.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 0.05, "{prec:?} probabilities sum to {sum}");
        }
    }
}
