//! Fluent builder for CNN benchmark graphs.
//!
//! Tracks the running feature-map shape so network definitions read like
//! the original model tables, and automatically attaches the auxiliary
//! (BN/ReLU/pool) SFU work each block implies.

use crate::graph::{AuxKind, Domain, Layer, Network, Op, PrecisionClass};

/// Snapshot of the builder's running feature-map shape, used to describe
/// branching modules (Inception, residual blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeSnapshot {
    /// Channels.
    pub c: u64,
    /// Height.
    pub h: u64,
    /// Width.
    pub w: u64,
}

/// Builder for convolutional networks.
#[derive(Debug)]
pub struct CnnBuilder {
    net: Network,
    c: u64,
    h: u64,
    w: u64,
    idx: u32,
}

impl CnnBuilder {
    /// Starts a network with input shape `[c, h, w]`.
    pub(crate) fn new(name: impl Into<String>, domain: Domain, c: u64, h: u64, w: u64) -> Self {
        Self { net: Network::new(name, domain), c, h, w, idx: 0 }
    }

    /// Current feature-map shape.
    pub(crate) fn shape(&self) -> ShapeSnapshot {
        ShapeSnapshot { c: self.c, h: self.h, w: self.w }
    }

    /// Restores a previously saved shape (start of a parallel branch).
    pub(crate) fn restore(&mut self, s: ShapeSnapshot) -> &mut Self {
        self.c = s.c;
        self.h = s.h;
        self.w = s.w;
        self
    }

    /// Overrides the channel count (after concatenating branches).
    pub(crate) fn set_channels(&mut self, c: u64) -> &mut Self {
        self.c = c;
        self
    }

    fn next_name(&mut self, kind: &str) -> String {
        self.idx += 1;
        format!("{kind}{}", self.idx)
    }

    fn push(&mut self, layer: Layer) {
        self.net.layers.push(layer);
    }

    /// Adds a convolution with an asymmetric kernel and padding, updating
    /// the running shape. Returns the builder for chaining.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv_asym(
        &mut self,
        co: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        pad_h: u64,
        pad_w: u64,
        class: PrecisionClass,
    ) -> &mut Self {
        let name = self.next_name("conv");
        let op = Op::Conv { ci: self.c, co, h: self.h, w: self.w, kh, kw, stride, pad_h, pad_w };
        let mut layer = Layer::new(name, op);
        layer.class = class;
        self.push(layer);
        self.h = Op::conv_out(self.h, kh, stride, pad_h);
        self.w = Op::conv_out(self.w, kw, stride, pad_w);
        self.c = co;
        self
    }

    /// Square-kernel convolution with "same"-style explicit padding.
    pub(crate) fn conv(&mut self, co: u64, k: u64, stride: u64, pad: u64) -> &mut Self {
        self.conv_asym(co, k, k, stride, pad, pad, PrecisionClass::Quantizable)
    }

    /// Convolution followed by fused BatchNorm + ReLU.
    pub(crate) fn conv_bn_relu(&mut self, co: u64, k: u64, stride: u64, pad: u64) -> &mut Self {
        self.conv(co, k, stride, pad);
        self.bn_relu()
    }

    /// Asymmetric-kernel convolution followed by BN + ReLU.
    pub(crate) fn conv_asym_bn_relu(
        &mut self,
        co: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        pad_h: u64,
        pad_w: u64,
    ) -> &mut Self {
        self.conv_asym(co, kh, kw, stride, pad_h, pad_w, PrecisionClass::Quantizable);
        self.bn_relu()
    }

    /// First layer: convolution pinned at high precision + BN + ReLU
    /// (paper: first layers stay FP16 to preserve accuracy).
    pub(crate) fn first_conv_bn_relu(&mut self, co: u64, k: u64, stride: u64, pad: u64) -> &mut Self {
        self.conv_asym(co, k, k, stride, pad, pad, PrecisionClass::HighPrecision);
        self.bn_relu()
    }

    /// Depthwise 3×3-style convolution (+BN+ReLU), updating the shape.
    pub(crate) fn dwconv_bn_relu(&mut self, k: u64, stride: u64, pad: u64) -> &mut Self {
        let name = self.next_name("dwconv");
        let op = Op::DepthwiseConv { c: self.c, h: self.h, w: self.w, k, stride, pad };
        self.push(Layer::new(name, op));
        self.h = Op::conv_out(self.h, k, stride, pad);
        self.w = Op::conv_out(self.w, k, stride, pad);
        self.bn_relu()
    }

    /// BatchNorm + ReLU over the current feature map.
    pub(crate) fn bn_relu(&mut self) -> &mut Self {
        let elems = self.c * self.h * self.w;
        let bn = self.next_name("bn");
        self.push(Layer::new(bn, Op::Aux { kind: AuxKind::BatchNorm, elems, ops_per_elem: 1 }));
        let relu = self.next_name("relu");
        self.push(Layer::new(relu, Op::Aux { kind: AuxKind::Relu, elems, ops_per_elem: 1 }));
        self
    }

    /// ReLU only.
    pub(crate) fn relu(&mut self) -> &mut Self {
        let elems = self.c * self.h * self.w;
        let name = self.next_name("relu");
        self.push(Layer::new(name, Op::Aux { kind: AuxKind::Relu, elems, ops_per_elem: 1 }));
        self
    }

    /// Max/avg pooling with a square window, updating the shape.
    pub(crate) fn pool(&mut self, k: u64, stride: u64, pad: u64) -> &mut Self {
        let ho = Op::conv_out(self.h, k, stride, pad);
        let wo = Op::conv_out(self.w, k, stride, pad);
        let name = self.next_name("pool");
        self.push(Layer::new(
            name,
            Op::Aux { kind: AuxKind::Pool, elems: self.c * ho * wo, ops_per_elem: k * k },
        ));
        self.h = ho;
        self.w = wo;
        self
    }

    /// Global average pooling to 1×1.
    pub(crate) fn global_pool(&mut self) -> &mut Self {
        let name = self.next_name("gap");
        self.push(Layer::new(
            name,
            Op::Aux { kind: AuxKind::Pool, elems: self.c, ops_per_elem: self.h * self.w },
        ));
        self.h = 1;
        self.w = 1;
        self
    }

    /// Residual element-wise addition over the current feature map.
    pub(crate) fn eltwise_add(&mut self) -> &mut Self {
        let elems = self.c * self.h * self.w;
        let name = self.next_name("add");
        self.push(Layer::new(name, Op::Aux { kind: AuxKind::EltwiseAdd, elems, ops_per_elem: 1 }));
        self
    }

    /// Concat/shuffle bookkeeping cost over `elems` elements.
    pub(crate) fn shuffle(&mut self, elems: u64) -> &mut Self {
        let name = self.next_name("shuffle");
        self.push(Layer::new(name, Op::Aux { kind: AuxKind::Shuffle, elems, ops_per_elem: 1 }));
        self
    }

    /// Fully-connected layer `[1, in] × [in, n]`; flattens the current map.
    pub(crate) fn fc(&mut self, n: u64, class: PrecisionClass) -> &mut Self {
        let k = self.c * self.h * self.w;
        let name = self.next_name("fc");
        let mut layer = Layer::new(name, Op::Gemm { m: 1, k, n, weighted: true });
        layer.class = class;
        self.push(layer);
        self.c = n;
        self.h = 1;
        self.w = 1;
        self
    }

    /// Softmax over the current (flattened) output.
    pub(crate) fn softmax(&mut self) -> &mut Self {
        let elems = self.c * self.h * self.w;
        let name = self.next_name("softmax");
        self.push(Layer::new(name, Op::Aux { kind: AuxKind::Softmax, elems, ops_per_elem: 1 }));
        self
    }

    /// Appends a raw layer (escape hatch for heads and custom blocks).
    pub(crate) fn raw(&mut self, layer: Layer) -> &mut Self {
        self.push(layer);
        self
    }

    /// Finishes the network.
    pub(crate) fn build(self) -> Network {
        self.net
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn shape_tracking_through_conv_and_pool() {
        let mut b = CnnBuilder::new("t", Domain::ImageClassification, 3, 224, 224);
        b.first_conv_bn_relu(64, 7, 2, 3);
        assert_eq!(b.shape(), ShapeSnapshot { c: 64, h: 112, w: 112 });
        b.pool(3, 2, 1);
        assert_eq!(b.shape(), ShapeSnapshot { c: 64, h: 56, w: 56 });
    }

    #[test]
    fn asymmetric_conv_keeps_dims_with_matching_pad() {
        let mut b = CnnBuilder::new("t", Domain::ImageClassification, 768, 17, 17);
        b.conv_asym_bn_relu(192, 1, 7, 1, 0, 3);
        assert_eq!(b.shape(), ShapeSnapshot { c: 192, h: 17, w: 17 });
        b.conv_asym_bn_relu(192, 7, 1, 1, 3, 0);
        assert_eq!(b.shape(), ShapeSnapshot { c: 192, h: 17, w: 17 });
    }

    #[test]
    fn branch_save_restore() {
        let mut b = CnnBuilder::new("t", Domain::ImageClassification, 256, 35, 35);
        let fork = b.shape();
        b.conv_bn_relu(64, 1, 1, 0);
        assert_eq!(b.shape().c, 64);
        b.restore(fork);
        assert_eq!(b.shape().c, 256);
        b.set_channels(288);
        assert_eq!(b.shape().c, 288);
    }

    #[test]
    fn first_conv_is_high_precision() {
        let mut b = CnnBuilder::new("t", Domain::ImageClassification, 3, 32, 32);
        b.first_conv_bn_relu(16, 3, 1, 1);
        b.conv_bn_relu(16, 3, 1, 1);
        let net = b.build();
        assert_eq!(net.layers[0].class, PrecisionClass::HighPrecision);
        assert_eq!(net.layers[3].class, PrecisionClass::Quantizable);
    }

    #[test]
    fn fc_flattens() {
        let mut b = CnnBuilder::new("t", Domain::ImageClassification, 512, 7, 7);
        b.fc(4096, PrecisionClass::Quantizable);
        let net = b.build();
        assert_eq!(net.total_macs(), 512 * 7 * 7 * 4096);
    }
}
