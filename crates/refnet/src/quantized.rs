//! Post-training quantization of a trained MLP to INT4/INT2 using SaWB
//! (weights) and PACT-style calibrated clipping (activations), running
//! inference through the FXU's integer pipeline.

use crate::backend::{Backend, Fp32Backend, OperandRole};
use crate::data::Dataset;
use crate::dense::{argmax_accuracy, relu, DenseStack};
use crate::mlp::Mlp;
use rapid_numerics::gemm::{matmul_int_with, Exec};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{NumericsError, Tensor};
use rapid_quant::sawb::sawb_params;

/// A quantized model: the trained [`DenseStack`], per-layer SaWB weight
/// parameters and calibrated activation clipping levels.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    layers: DenseStack,
    weight_params: Vec<QuantParams>,
    act_params: Vec<QuantParams>,
    chunk_len: usize,
}

impl QuantizedMlp {
    /// Quantizes a trained model, calibrating activation ranges on
    /// `calib` (a representative data sample), as PTQ flows do.
    ///
    /// # Panics
    ///
    /// Panics if `calib`'s feature width differs from the model's input.
    pub fn quantize(model: &Mlp, format: IntFormat, calib: &Dataset) -> Self {
        let layers = model.layers().clone();
        let weight_params = layers.w.iter().map(|w| sawb_params(w, format)).collect();
        // Calibrate per-layer input ranges with an FP32 pass, biases
        // included, tracking the 99.7th-percentile magnitude as the
        // PACT-style clip.
        let mut act_params = Vec::with_capacity(layers.depth());
        let calibrate = |i, x: &Tensor, w: &Tensor| {
            let clip = percentile_abs(x, 0.997).max(1e-6);
            // First-layer features are signed; hidden activations are
            // post-ReLU and use the unsigned grid.
            let signed = if i == 0 { Signedness::Signed } else { Signedness::Unsigned };
            act_params.push(QuantParams::from_abs_max(format, signed, clip));
            Fp32Backend.try_matmul(x, w, (OperandRole::Data, OperandRole::Data))
        };
        #[allow(clippy::expect_used)] // documented panic on a mismatched calibration set
        layers.forward(&calib.x, calibrate, relu, None).expect("calibration data width mismatch");
        Self {
            layers,
            weight_params,
            act_params,
            chunk_len: 64,
        }
    }

    /// Integer-pipeline inference: every GEMM executes as quantized codes
    /// with INT16-chunk/INT32 accumulation, exactly like the FXU, and each
    /// layer's bias is added to the dequantized product in FP32.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, features]` for the model's input width.
    #[allow(clippy::expect_used)] // documented panic; try_infer is the fallible path
    pub(crate) fn infer(&self, x: &Tensor) -> Tensor {
        self.try_infer(x).expect("input shape incompatible with the model")
    }

    /// [`QuantizedMlp::infer`], surfacing malformed inputs as an error.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] when `x` does not conform
    /// with the first layer's weights.
    pub(crate) fn try_infer(&self, x: &Tensor) -> Result<Tensor, NumericsError> {
        let gemm = |i, a: &Tensor, w: &Tensor| {
            let (qa, qw) = (self.act_params[i], self.weight_params[i]);
            matmul_int_with(a, w, qa, qw, self.chunk_len, Exec::default()).map(|(z, _)| z)
        };
        self.layers.forward(x, gemm, relu, None)
    }

    /// Classification accuracy of the quantized model.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        argmax_accuracy(&self.infer(&data.x), data.classes, &data.y)
    }
}

/// Approximate `q`-quantile of |x|.
fn percentile_abs(x: &Tensor, q: f64) -> f32 {
    if x.is_empty() {
        return 0.0;
    }
    let mut mags: Vec<f32> = x.as_slice().iter().map(|v| v.abs()).collect();
    mags.sort_by(f32::total_cmp);
    let idx = ((mags.len() as f64 - 1.0) * q).round() as usize;
    mags[idx]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::data::gaussian_blobs;
    use crate::mlp::{train, TrainConfig};

    fn trained() -> (Mlp, Dataset) {
        let data = gaussian_blobs(512, 4, 16, 0.35, 42);
        let mut mlp = Mlp::new(&[16, 32, 4], 1);
        let acc = train(&mut mlp, &Fp32Backend, &data, &TrainConfig::default());
        assert!(acc > 0.95);
        (mlp, data)
    }

    /// E10: INT4 inference with PACT+SaWB loses negligible accuracy
    /// (paper §II-C: "4-bit inference with negligible loss in accuracy").
    #[test]
    fn int4_ptq_has_negligible_loss() {
        let (mlp, data) = trained();
        let fp = mlp.accuracy(&Fp32Backend, &data);
        let q = QuantizedMlp::quantize(&mlp, IntFormat::Int4, &data);
        let qa = q.accuracy(&data);
        assert!(qa > fp - 0.02, "int4 {qa} vs fp32 {fp}");
    }

    /// E10: INT2 shows a small but visible loss (paper: "2-bit inference
    /// with minimal accuracy loss (≈2%)").
    #[test]
    fn int2_ptq_loses_a_little_more() {
        let (mlp, data) = trained();
        let fp = mlp.accuracy(&Fp32Backend, &data);
        let q2 = QuantizedMlp::quantize(&mlp, IntFormat::Int2, &data);
        let a2 = q2.accuracy(&data);
        // Still far above the 25% chance level, but below INT4.
        assert!(a2 > 0.5, "int2 collapsed to {a2}");
        assert!(a2 <= fp + 1e-9, "int2 {a2} should not beat fp32 {fp}");
        let q4 = QuantizedMlp::quantize(&mlp, IntFormat::Int4, &data);
        assert!(q4.accuracy(&data) >= a2, "int4 should be at least as good as int2");
    }

    /// PTQ keeps the trained biases: shifting the output biases by
    /// (5, −5, 0, 2) shifts the INT4 logits by the same amounts, and the
    /// INT4 logits stay close to the FP32 ones.
    #[test]
    fn ptq_keeps_the_biases() {
        let (mut mlp, data) = trained();
        let base = QuantizedMlp::quantize(&mlp, IntFormat::Int4, &data).infer(&data.x);
        let shift = [5.0, -5.0, 0.0, 2.0];
        let b = mlp.layers().biases(1).iter().zip(shift).map(|(b, s)| b + s).collect();
        mlp.layers_mut().set_biases(1, b);
        let shifted = QuantizedMlp::quantize(&mlp, IntFormat::Int4, &data).infer(&data.x);
        for (i, (s, b)) in shifted.as_slice().iter().zip(base.as_slice()).enumerate() {
            assert!((s - b - shift[i % 4]).abs() < 1e-4, "logit {i}: {s} vs {b}");
        }
        let fp = mlp.infer(&Fp32Backend, &data.x);
        let gap = fp.as_slice().iter().zip(shifted.as_slice()).map(|(a, q)| (a - q).abs());
        let gap = gap.fold(0.0f32, f32::max);
        assert!(gap < 2.0, "max |fp32 - int4| logit gap {gap}");
    }

    #[test]
    fn try_infer_rejects_bad_input_width() {
        let (mlp, data) = trained();
        let q = QuantizedMlp::quantize(&mlp, IntFormat::Int4, &data);
        let bad = Tensor::zeros(vec![3, 7]);
        assert!(matches!(q.try_infer(&bad), Err(NumericsError::ShapeMismatch { .. })));
    }

    #[test]
    fn calibration_clip_ignores_outliers() {
        let x = Tensor::from_fn(vec![1000], |i| if i == 0 { 100.0 } else { 1.0 });
        let p = percentile_abs(&x, 0.997);
        assert_eq!(p, 1.0);
    }
}
