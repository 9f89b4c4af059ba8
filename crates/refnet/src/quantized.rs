//! Post-training quantization of a trained MLP to INT4/INT2 using SaWB
//! (weights) and PACT-style calibrated clipping (activations), running
//! inference through the FXU's integer pipeline.

use crate::backend::{Backend, Fp32Backend};
use crate::data::Dataset;
use crate::mlp::Mlp;
use rapid_numerics::gemm::{matmul_int_with, Exec};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{NumericsError, Tensor};
use rapid_quant::sawb::sawb_params;

/// A quantized model: per-layer SaWB weight parameters and calibrated
/// activation clipping levels.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    model: Mlp,
    format: IntFormat,
    weight_params: Vec<QuantParams>,
    act_params: Vec<QuantParams>,
    chunk_len: usize,
}

impl QuantizedMlp {
    /// Quantizes a trained model, calibrating activation ranges on
    /// `calib` (a representative data sample), as PTQ flows do.
    pub fn quantize(model: &Mlp, format: IntFormat, calib: &Dataset) -> Self {
        let depth = model.depth();
        let mut weight_params = Vec::with_capacity(depth);
        for i in 0..depth {
            weight_params.push(sawb_params(model.weights(i), format));
        }
        // Calibrate per-layer input ranges with an FP32 pass, tracking the
        // 99.7th-percentile magnitude as the PACT-style clip.
        let mut act_params = Vec::with_capacity(depth);
        let mut cur = calib.x.clone();
        for i in 0..depth {
            let clip = percentile_abs(&cur, 0.997).max(1e-6);
            // First-layer features are signed; hidden activations are
            // post-ReLU and use the unsigned grid.
            let signed = if i == 0 { Signedness::Signed } else { Signedness::Unsigned };
            act_params.push(QuantParams::from_abs_max(format, signed, clip));
            let z = Fp32Backend.matmul(
                &cur,
                model.weights(i),
                (crate::backend::OperandRole::Data, crate::backend::OperandRole::Data),
            );
            cur = if i + 1 < depth { z.map(|v| v.max(0.0)) } else { z };
        }
        Self {
            model: model.clone(),
            format,
            weight_params,
            act_params,
            chunk_len: 64,
        }
    }

    /// The integer format in use.
    pub fn format(&self) -> IntFormat {
        self.format
    }

    /// Integer-pipeline inference: every GEMM executes as quantized codes
    /// with INT16-chunk/INT32 accumulation, exactly like the FXU.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, features]` for the model's input width;
    /// use [`QuantizedMlp::try_infer`] to get an error instead.
    #[allow(clippy::expect_used)] // documented panic; try_infer is the fallible path
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.try_infer(x).expect("input shape incompatible with the model")
    }

    /// [`QuantizedMlp::infer`], surfacing malformed inputs as an error.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] when `x` does not conform
    /// with the first layer's weights.
    pub fn try_infer(&self, x: &Tensor) -> Result<Tensor, NumericsError> {
        let depth = self.model.depth();
        let mut cur = x.clone();
        for i in 0..depth {
            let (z, _stats) = matmul_int_with(
                &cur,
                self.model.weights(i),
                self.act_params[i],
                self.weight_params[i],
                self.chunk_len,
                Exec::default(),
            )?;
            cur = if i + 1 < depth { z.map(|v| v.max(0.0)) } else { z };
        }
        Ok(cur)
    }

    /// Classification accuracy of the quantized model.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let logits = self.infer(&data.x);
        let mut correct = 0usize;
        for (i, &label) in data.y.iter().enumerate() {
            let mut best = 0usize;
            for c in 1..data.classes {
                if logits.get(&[i, c]) > logits.get(&[i, best]) {
                    best = c;
                }
            }
            if best == label {
                correct += 1;
            }
        }
        correct as f64 / data.len().max(1) as f64
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
