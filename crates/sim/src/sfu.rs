//! The SFU array as a simulator stage: applies activation / quantization
//! functions to an output stream at the array's lane throughput, using the
//! bit-accurate approximations from `rapid-numerics::sfu`.

use rapid_arch::isa::SfuOpKind;
use rapid_numerics::format::FpFormat;
use rapid_numerics::int::QuantParams;
use rapid_numerics::sfu as fns;
use rapid_numerics::sfu::SfuAccuracy;
use rapid_numerics::Tensor;

/// A fused SFU stage over an output stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SfuStage {
    /// ReLU.
    Relu,
    /// Sigmoid (fast approximation).
    Sigmoid,
    /// Tanh (fast approximation).
    Tanh,
    /// Quantize to an integer grid with per-tensor parameters (the
    /// FP16 → INT4 conversion of the paper's third cycle category).
    Quantize(QuantParams),
}

impl SfuStage {
    /// The ISA op kind this stage lowers to.
    pub(crate) fn op_kind(&self) -> SfuOpKind {
        match self {
            SfuStage::Relu => SfuOpKind::Relu,
            SfuStage::Sigmoid => SfuOpKind::Sigmoid,
            SfuStage::Tanh => SfuOpKind::Tanh,
            SfuStage::Quantize(_) => SfuOpKind::Quantize,
        }
    }
}

/// One corelet group's SFU array (a number of FP16 lanes).
#[derive(Debug, Clone, Copy)]
pub struct SfuUnit {
    lanes: u32,
}

impl SfuUnit {
    /// Creates an SFU pool with `lanes` FP16 lanes.
    pub fn new(lanes: u32) -> Self {
        Self { lanes: lanes.max(1) }
    }

    /// Applies a stage to a tensor, returning the result and the lane-time
    /// in cycles (elements / throughput-per-lane / lanes).
    pub fn apply(&self, stage: &SfuStage, x: &Tensor) -> (Tensor, u64) {
        let fp16 = FpFormat::fp16();
        let out = match stage {
            SfuStage::Relu => x.map(|v| fp16.quantize(v.max(0.0))),
            SfuStage::Sigmoid => x.map(|v| fns::sigmoid(v, SfuAccuracy::Fast)),
            SfuStage::Tanh => x.map(|v| fns::tanh(v, SfuAccuracy::Fast)),
            SfuStage::Quantize(q) => x.map(|v| q.fake_quantize(v)),
        };
        let per_lane = self.op_kind_rate(stage);
        let cycles = (x.len() as f64 / (f64::from(self.lanes) * per_lane)).ceil() as u64;
        (out, cycles)
    }

    fn op_kind_rate(&self, stage: &SfuStage) -> f64 {
        stage.op_kind().elems_per_lane_cycle(false)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_numerics::int::{IntFormat, Signedness};

    #[test]
    fn relu_throughput_one_per_lane_cycle() {
        let u = SfuUnit::new(128);
        let x = Tensor::random_uniform(vec![1280], -1.0, 1.0, 80);
        let (y, cycles) = u.apply(&SfuStage::Relu, &x);
        assert_eq!(cycles, 10);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn sigmoid_costs_two_slots() {
        let u = SfuUnit::new(128);
        let x = Tensor::random_uniform(vec![1280], -4.0, 4.0, 81);
        let (y, cycles) = u.apply(&SfuStage::Sigmoid, &x);
        assert_eq!(cycles, 20);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn quantize_stage_lands_on_grid() {
        let u = SfuUnit::new(64);
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let x = Tensor::random_uniform(vec![64], -1.0, 1.0, 82);
        let (y, cycles) = u.apply(&SfuStage::Quantize(q), &x);
        assert_eq!(cycles, 1);
        for &v in y.as_slice() {
            let code = (v / q.scale()).round();
            assert!((v - code * q.scale()).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_lane_pool_is_clamped() {
        let u = SfuUnit::new(0);
        let x = Tensor::zeros(vec![4]);
        let (_, cycles) = u.apply(&SfuStage::Relu, &x);
        assert!(cycles >= 4);
    }
}
