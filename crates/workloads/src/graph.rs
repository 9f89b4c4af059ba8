//! Operator taxonomy and network graphs.
//!
//! A [`Network`] is the unit the compiler and performance model consume: an
//! ordered list of [`Layer`]s, each wrapping one [`Op`] with a precision
//! class and a repeat count (used for recurrent timesteps and per-head
//! attention GEMMs). Costs are *per input sample*; batching is applied by
//! the performance model.

/// Auxiliary (SFU-executed) operation kinds with their per-element cost in
/// FP16 SFU lane-cycles (fast approximations, paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuxKind {
    /// ReLU / ReLU backward.
    Relu,
    /// Batch normalization (inference: fused scale + shift).
    BatchNorm,
    /// Max or average pooling; cost carries the window size.
    Pool,
    /// Element-wise residual addition.
    EltwiseAdd,
    /// Softmax (exp + reduce + divide).
    Softmax,
    /// Layer normalization (mean/var + scale/shift).
    LayerNorm,
    /// GELU (fast tanh approximation).
    Gelu,
    /// Sigmoid gate (LSTM).
    Sigmoid,
    /// Tanh gate (LSTM).
    Tanh,
    /// Element-wise multiply (LSTM gates, attention masks).
    EltwiseMul,
    /// Data shuffle / concat / permute.
    Shuffle,
}

impl AuxKind {
    /// SFU lane-cycles consumed per element (window-dependent kinds take
    /// the multiplier through [`Op::Aux`]'s `ops_per_elem`). Costs count
    /// the full read–compute–write traversal of the SFU datapath, so even
    /// a ReLU takes two lane-cycles per element.
    pub(crate) fn lane_cycles_per_elem(&self) -> f64 {
        match self {
            AuxKind::Relu => 2.0,
            AuxKind::BatchNorm => 4.0,
            AuxKind::Pool => 2.0, // per window element
            AuxKind::EltwiseAdd => 2.0,
            AuxKind::Softmax => 12.0,
            AuxKind::LayerNorm => 12.0,
            AuxKind::Gelu => 8.0,
            AuxKind::Sigmoid => 4.0,
            AuxKind::Tanh => 4.0,
            AuxKind::EltwiseMul => 2.0,
            AuxKind::Shuffle => 2.0,
        }
    }
}

/// One operator. Dimensions are per input sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Dense convolution `[ci, h, w] → [co, ho, wo]`.
    Conv {
        /// Input channels.
        ci: u64,
        /// Output channels.
        co: u64,
        /// Input height.
        h: u64,
        /// Input width.
        w: u64,
        /// Kernel height.
        kh: u64,
        /// Kernel width.
        kw: u64,
        /// Stride (both dims).
        stride: u64,
        /// Padding along the height axis.
        pad_h: u64,
        /// Padding along the width axis.
        pad_w: u64,
    },
    /// Depthwise convolution: one filter per channel, no cross-channel
    /// reduction (maps poorly to the Ci-reduction rows of the MPE array).
    DepthwiseConv {
        /// Channels.
        c: u64,
        /// Input height.
        h: u64,
        /// Input width.
        w: u64,
        /// Kernel size (square).
        k: u64,
        /// Stride.
        stride: u64,
        /// Padding.
        pad: u64,
    },
    /// General matrix multiply `[m, k] × [k, n]`.
    Gemm {
        /// Rows of the activation operand (1 for batch-1 FC / GEMV).
        m: u64,
        /// Reduction dimension.
        k: u64,
        /// Output columns.
        n: u64,
        /// Whether the `[k, n]` operand is a weight tensor (false for
        /// activation × activation products such as attention scores).
        weighted: bool,
    },
    /// Auxiliary SFU operation over `elems` elements.
    Aux {
        /// Operation kind.
        kind: AuxKind,
        /// Elements processed.
        elems: u64,
        /// Cost multiplier per element (e.g. pooling window size).
        ops_per_elem: u64,
    },
}

impl Op {
    /// Convolution output size along one spatial axis of extent `h`, for
    /// a kernel of extent `k` at `stride` with `pad` on each side.
    pub fn conv_out(h: u64, k: u64, stride: u64, pad: u64) -> u64 {
        (h + 2 * pad).saturating_sub(k) / stride + 1
    }

    /// Multiply-accumulate count (0 for auxiliary ops).
    pub fn macs(&self) -> u64 {
        match *self {
            Op::Conv { ci, co, h, w, kh, kw, stride, pad_h, pad_w } => {
                let ho = Self::conv_out(h, kh, stride, pad_h);
                let wo = Self::conv_out(w, kw, stride, pad_w);
                co * ho * wo * ci * kh * kw
            }
            Op::DepthwiseConv { c, h, w, k, stride, pad } => {
                let ho = Self::conv_out(h, k, stride, pad);
                let wo = Self::conv_out(w, k, stride, pad);
                c * ho * wo * k * k
            }
            Op::Gemm { m, k, n, .. } => m * k * n,
            Op::Aux { .. } => 0,
        }
    }

    /// Weight elements that must be resident/fetched for this op.
    pub fn weight_elems(&self) -> u64 {
        match *self {
            Op::Conv { ci, co, kh, kw, .. } => co * ci * kh * kw,
            Op::DepthwiseConv { c, k, .. } => c * k * k,
            Op::Gemm { k, n, weighted, .. } => {
                if weighted {
                    k * n
                } else {
                    0
                }
            }
            Op::Aux { .. } => 0,
        }
    }

    /// Input activation elements.
    pub fn input_elems(&self) -> u64 {
        match *self {
            Op::Conv { ci, h, w, .. } => ci * h * w,
            Op::DepthwiseConv { c, h, w, .. } => c * h * w,
            Op::Gemm { m, k, n, weighted } => {
                if weighted {
                    m * k
                } else {
                    m * k + k * n
                }
            }
            Op::Aux { elems, .. } => elems,
        }
    }

    /// Output activation elements.
    pub fn output_elems(&self) -> u64 {
        match *self {
            Op::Conv { co, h, w, kh, kw, stride, pad_h, pad_w, .. } => {
                co * Self::conv_out(h, kh, stride, pad_h) * Self::conv_out(w, kw, stride, pad_w)
            }
            Op::DepthwiseConv { c, h, w, k, stride, pad } => {
                c * Self::conv_out(h, k, stride, pad) * Self::conv_out(w, k, stride, pad)
            }
            Op::Gemm { m, n, .. } => m * n,
            Op::Aux { elems, .. } => elems,
        }
    }

    /// SFU lane-cycles for auxiliary ops (0 for compute ops).
    pub(crate) fn aux_lane_cycles(&self) -> f64 {
        match *self {
            Op::Aux { kind, elems, ops_per_elem } => {
                kind.lane_cycles_per_elem() * elems as f64 * ops_per_elem as f64
            }
            _ => 0.0,
        }
    }

    /// Whether this op executes on the MPE array.
    pub fn is_compute(&self) -> bool {
        !matches!(self, Op::Aux { .. })
    }
}

/// Precision assignment class (paper §I feature 1: most layers quantize,
/// but first/last layers and shortcut paths must stay high precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionClass {
    /// May execute at the network's quantized precision.
    Quantizable,
    /// Must remain at FP16 to preserve accuracy (first/last layers).
    HighPrecision,
}

/// One layer of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name for reports.
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Precision class.
    pub class: PrecisionClass,
    /// Sequential repeat count (recurrent timesteps, attention heads).
    pub repeat: u64,
    /// Weight sparsity of the *pruned* variant of this layer (0.0 for the
    /// dense model; set by the pruning profile, Fig 16).
    pub pruned_sparsity: f64,
}

impl Layer {
    /// Creates a quantizable layer with repeat 1 and no pruning.
    pub(crate) fn new(name: impl Into<String>, op: Op) -> Self {
        Self {
            name: name.into(),
            op,
            class: PrecisionClass::Quantizable,
            repeat: 1,
            pruned_sparsity: 0.0,
        }
    }

    /// Sets the repeat count.
    pub(crate) fn repeated(mut self, n: u64) -> Self {
        self.repeat = n.max(1);
        self
    }

    /// Total MACs including repeats.
    pub fn macs(&self) -> u64 {
        self.op.macs() * self.repeat
    }

    /// Total SFU lane-cycles including repeats.
    pub fn aux_lane_cycles(&self) -> f64 {
        self.op.aux_lane_cycles() * self.repeat as f64
    }
}

/// Application domain (Table in §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// ImageNet classification.
    ImageClassification,
    /// COCO object detection.
    ObjectDetection,
    /// Natural-language processing.
    NaturalLanguage,
    /// Speech recognition.
    Speech,
}

/// A benchmark network.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Benchmark name (paper's label, e.g. "resnet50").
    pub name: String,
    /// Application domain.
    pub domain: Domain,
    /// Ordered layers (branches flattened in execution order).
    pub layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network.
    pub(crate) fn new(name: impl Into<String>, domain: Domain) -> Self {
        Self { name: name.into(), domain, layers: Vec::new() }
    }

    /// Total MACs per input sample.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total weight elements (parameters in compute layers).
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.op.weight_elems()).sum()
    }

    /// Fraction of MACs residing in high-precision layers (the suite's
    /// tests bound it per network).
    #[cfg(test)]
    pub(crate) fn high_precision_mac_fraction(&self) -> f64 {
        let total = self.total_macs();
        if total == 0 {
            return 0.0;
        }
        let hp: u64 = self
            .layers
            .iter()
            .filter(|l| l.class == PrecisionClass::HighPrecision)
            .map(Layer::macs)
            .sum();
        hp as f64 / total as f64
    }

    /// Average weight sparsity of the pruned variant, weighted by MACs.
    pub fn average_pruned_sparsity(&self) -> f64 {
        let total = self.total_macs();
        if total == 0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.pruned_sparsity * l.macs() as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn conv_mac_count() {
        // 3x3 conv, 64->128 channels on 56x56, stride 1 pad 1.
        let op = Op::Conv { ci: 64, co: 128, h: 56, w: 56, kh: 3, kw: 3, stride: 1, pad_h: 1, pad_w: 1 };
        assert_eq!(op.macs(), 128 * 56 * 56 * 64 * 9);
        assert_eq!(op.weight_elems(), 128 * 64 * 9);
        assert_eq!(op.output_elems(), 128 * 56 * 56);
    }

    #[test]
    fn strided_conv_output_dims() {
        let op = Op::Conv { ci: 3, co: 64, h: 224, w: 224, kh: 7, kw: 7, stride: 2, pad_h: 3, pad_w: 3 };
        assert_eq!(op.output_elems(), 64 * 112 * 112);
    }

    #[test]
    fn depthwise_has_no_channel_reduction() {
        let op = Op::DepthwiseConv { c: 256, h: 14, w: 14, k: 3, stride: 1, pad: 1 };
        assert_eq!(op.macs(), 256 * 14 * 14 * 9);
        assert_eq!(op.weight_elems(), 256 * 9);
    }

    #[test]
    fn unweighted_gemm_has_no_weights() {
        let attn = Op::Gemm { m: 384, k: 64, n: 384, weighted: false };
        assert_eq!(attn.weight_elems(), 0);
        assert_eq!(attn.macs(), 384 * 64 * 384);
        // Both operands are activations.
        assert_eq!(attn.input_elems(), 384 * 64 + 64 * 384);
    }

    #[test]
    fn aux_cost_scales_with_kind() {
        let relu = Op::Aux { kind: AuxKind::Relu, elems: 1000, ops_per_elem: 1 };
        let softmax = Op::Aux { kind: AuxKind::Softmax, elems: 1000, ops_per_elem: 1 };
        assert_eq!(relu.aux_lane_cycles(), 2000.0);
        assert_eq!(softmax.aux_lane_cycles(), 12000.0);
        assert_eq!(relu.macs(), 0);
    }

    #[test]
    fn layer_repeat_multiplies_costs() {
        let l = Layer::new("attn", Op::Gemm { m: 384, k: 64, n: 384, weighted: false })
            .repeated(12);
        assert_eq!(l.macs(), 12 * 384 * 64 * 384);
    }

    #[test]
    fn network_aggregates() {
        let mut net = Network::new("toy", Domain::ImageClassification);
        let mut conv1 = Layer::new(
            "conv1",
            Op::Conv { ci: 3, co: 8, h: 8, w: 8, kh: 3, kw: 3, stride: 1, pad_h: 1, pad_w: 1 },
        );
        conv1.class = PrecisionClass::HighPrecision;
        net.layers.push(conv1);
        net.layers.push(Layer::new(
            "conv2",
            Op::Conv { ci: 8, co: 8, h: 8, w: 8, kh: 3, kw: 3, stride: 1, pad_h: 1, pad_w: 1 },
        ));
        let hp = net.high_precision_mac_fraction();
        assert!(hp > 0.2 && hp < 0.35, "hp fraction {hp}");
    }
}
