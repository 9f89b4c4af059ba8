//! SaWB: Statistics-aware Weight Binning (Choi et al. \[46\]).
//!
//! SaWB picks the weight-quantization scale from the first and second
//! moments of the weight distribution — `α* = c1·√E[w²] − c2·E[|w|]` —
//! with coefficients fit offline so the scale minimizes quantization MSE
//! for the bell-shaped distributions trained weights exhibit, "retaining
//! the shape of the weight distribution" instead of chasing outliers the
//! way max-abs scaling does. This module provides the closed-form
//! coefficients; its tests validate them against an exact golden-section
//! MSE search.

use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::Tensor;

/// Closed-form SaWB coefficients `(c1, c2)` for a bit-width, fit for
/// Gaussian-like weights (from the SAWB paper's offline regression).
pub(crate) fn coefficients(format: IntFormat) -> (f32, f32) {
    match format {
        // 2-bit (ternary-like 3 levels + sign): strong clipping.
        IntFormat::Int2 => (3.19, 2.14),
        // 4-bit (15 symmetric levels).
        IntFormat::Int4 => (12.04, 12.07),
    }
}

/// Computes the SaWB clipping scale for a weight tensor.
pub(crate) fn sawb_alpha(w: &Tensor, format: IntFormat) -> f32 {
    let (c1, c2) = coefficients(format);
    let sum_sq: f64 = w.as_slice().iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    let sum_abs: f64 = w.as_slice().iter().map(|&x| f64::from(x).abs()).sum();
    let n = w.len().max(1) as f64;
    let e2 = (sum_sq / n).sqrt() as f32;
    let e1 = (sum_abs / n) as f32;
    (c1 * e2 - c2 * e1).max(1e-6)
}

/// Quantization parameters for a weight tensor under SaWB.
pub fn sawb_params(w: &Tensor, format: IntFormat) -> QuantParams {
    QuantParams::from_abs_max(format, Signedness::Signed, sawb_alpha(w, format))
}

/// Fake-quantizes a weight tensor with SaWB (values clip at ±α).
pub fn sawb_quantize(w: &Tensor, format: IntFormat) -> Tensor {
    let q = sawb_params(w, format);
    w.map(|x| q.fake_quantize(x))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Mean-squared quantization error of clipping scale `alpha` on `w`.
    fn quant_mse(w: &Tensor, format: IntFormat, alpha: f32) -> f64 {
        let q = QuantParams::from_abs_max(format, Signedness::Signed, alpha);
        w.as_slice()
            .iter()
            .map(|&x| {
                let d = f64::from(x - q.fake_quantize(x));
                d * d
            })
            .sum::<f64>()
            / w.len().max(1) as f64
    }

    /// Golden-section search for the MSE-optimal clipping scale in
    /// `(0, max|w|]` — the oracle SaWB approximates in closed form.
    fn mse_optimal_alpha(w: &Tensor, format: IntFormat) -> f32 {
        let hi0 = w.max_abs().max(1e-6);
        let (mut lo, mut hi) = (hi0 * 0.05, hi0);
        let phi = 0.618_034_f32;
        for _ in 0..60 {
            let a = hi - phi * (hi - lo);
            let b = lo + phi * (hi - lo);
            if quant_mse(w, format, a) < quant_mse(w, format, b) {
                hi = b;
            } else {
                lo = a;
            }
        }
        0.5 * (lo + hi)
    }

    fn gaussian_weights(n: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        // Box-Muller.
        Tensor::from_fn(vec![n], |_| {
            let u1: f32 = rng.gen_range(1e-6f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            0.05 * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        })
    }

    #[test]
    fn sawb_close_to_mse_optimal_for_gaussian() {
        let w = gaussian_weights(8192, 5);
        for fmt in [IntFormat::Int4, IntFormat::Int2] {
            let sawb = sawb_alpha(&w, fmt);
            let opt = mse_optimal_alpha(&w, fmt);
            let mse_sawb = quant_mse(&w, fmt, sawb);
            let mse_opt = quant_mse(&w, fmt, opt);
            assert!(
                mse_sawb < mse_opt * 1.3,
                "{fmt}: sawb α={sawb} mse={mse_sawb} vs optimal α={opt} mse={mse_opt}"
            );
        }
    }

    #[test]
    fn sawb_beats_max_abs_scaling() {
        // A few outliers wreck max-abs scaling; SaWB's moments shrug them
        // off ("retaining the shape of the weight distribution").
        let mut w = gaussian_weights(8192, 6);
        w.as_mut_slice()[0] = 1.0;
        w.as_mut_slice()[1] = -1.2;
        for fmt in [IntFormat::Int4, IntFormat::Int2] {
            let mse_sawb = quant_mse(&w, fmt, sawb_alpha(&w, fmt));
            let mse_max = quant_mse(&w, fmt, w.max_abs());
            assert!(
                mse_sawb < mse_max * 0.5,
                "{fmt}: sawb {mse_sawb} vs max-abs {mse_max}"
            );
        }
    }

    #[test]
    fn quantized_weights_land_on_grid() {
        let w = gaussian_weights(512, 7);
        let q = sawb_quantize(&w, IntFormat::Int4);
        let p = sawb_params(&w, IntFormat::Int4);
        for &v in q.as_slice() {
            let code = (v / p.scale()).round();
            assert!((v - code * p.scale()).abs() < 1e-6);
            assert!((-7.0..=7.0).contains(&code), "code {code}");
        }
    }

    #[test]
    fn int2_uses_three_magnitude_levels() {
        let w = gaussian_weights(512, 8);
        let q = sawb_quantize(&w, IntFormat::Int2);
        let mut levels: Vec<i32> = q
            .as_slice()
            .iter()
            .map(|&v| (v / sawb_params(&w, IntFormat::Int2).scale()).round() as i32)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 3, "levels {levels:?}");
    }

    #[test]
    fn empty_tensor_is_safe() {
        let w = Tensor::zeros(vec![0]);
        assert!(sawb_alpha(&w, IntFormat::Int4) > 0.0);
    }
}
