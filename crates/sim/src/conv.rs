//! Convolution on the core simulator: the driver performs the im2col
//! lowering the dataflow realizes implicitly (streaming H×W innermost,
//! Fig 5) and runs the resulting GEMM through the cycle-tick machinery,
//! optionally fusing the SFU activation stage on the output stream.

use crate::error::SimError;
use crate::gemm::{CoreSim, GemmJob, SimResult};
use crate::sfu::{SfuStage, SfuUnit};
use rapid_arch::precision::Precision;
use rapid_numerics::gemm::{im2col, ConvSpec};
use rapid_numerics::{NumericsError, Tensor};

/// A convolution job for the core simulator.
#[derive(Debug, Clone)]
pub struct ConvJob {
    /// Input `[n, ci, h, w]`.
    pub input: Tensor,
    /// Weights `[co, ci, kh, kw]`.
    pub weight: Tensor,
    /// Convolution geometry.
    pub spec: ConvSpec,
    /// Execution precision.
    pub precision: Precision,
    /// Optional fused SFU stage applied to the output stream.
    pub sfu: Option<SfuStage>,
}

/// Result of a simulated convolution.
#[derive(Debug, Clone)]
pub struct ConvSimResult {
    /// Output `[n, co, ho, wo]`.
    pub output: Tensor,
    /// MPE-array cycles (from the GEMM engine).
    pub array_cycles: u64,
    /// SFU cycles for the fused stage (overlapped with the array up to the
    /// SFU's throughput; the exposed extra is `sfu_exposed_cycles`).
    pub sfu_cycles: u64,
    /// SFU cycles not hidden under the array stream.
    pub sfu_exposed_cycles: u64,
    /// The underlying GEMM result (per-corelet reports, stats).
    pub gemm: SimResult,
}

impl ConvSimResult {
    /// End-to-end cycles including the exposed SFU tail.
    pub fn total_cycles(&self) -> u64 {
        self.array_cycles + self.sfu_exposed_cycles
    }
}

/// Runs a convolution on the core: im2col → systolic GEMM → (optional)
/// fused SFU stage → fold to `[n, co, ho, wo]`.
///
/// # Errors
///
/// Returns [`SimError::Numerics`] wrapping
/// [`NumericsError::ShapeMismatch`] for inconsistent operand ranks or
/// channel counts and [`NumericsError::InvalidFormat`] for FP32, and
/// propagates any error of the underlying GEMM simulation.
pub fn try_run_conv(core: &CoreSim, job: &ConvJob) -> Result<ConvSimResult, SimError> {
    if job.input.shape().len() != 4 || job.weight.shape().len() != 4 {
        return Err(SimError::Numerics(NumericsError::ShapeMismatch {
            expected: "input [n, ci, h, w] and weight [co, ci, kh, kw]".to_string(),
            actual: format!("input {:?}, weight {:?}", job.input.shape(), job.weight.shape()),
        }));
    }
    if job.input.shape()[1] != job.weight.shape()[1] {
        return Err(SimError::Numerics(NumericsError::ShapeMismatch {
            expected: format!("input channels = {}", job.weight.shape()[1]),
            actual: format!("input channels = {}", job.input.shape()[1]),
        }));
    }
    let (n, _ci, h, w) = (
        job.input.shape()[0],
        job.input.shape()[1],
        job.input.shape()[2],
        job.input.shape()[3],
    );
    let (co, ci, kh, kw) = (
        job.weight.shape()[0],
        job.weight.shape()[1],
        job.weight.shape()[2],
        job.weight.shape()[3],
    );
    let ho = job.spec.out_dim(h, kh);
    let wo = job.spec.out_dim(w, kw);

    let cols = im2col(&job.input, kh, kw, job.spec);
    let wmat = job
        .weight
        .clone()
        .reshape(vec![co, ci * kh * kw])
        .map_err(SimError::Numerics)?
        .transposed();
    let gjob = GemmJob { a: cols, b: wmat, precision: job.precision };
    let gemm = core.try_run_gemm(&gjob, None, None)?;

    // Fused SFU stage over the flat output stream.
    let (flat, sfu_cycles, sfu_exposed) = match &job.sfu {
        Some(stage) => {
            let unit = SfuUnit::new(core.config().corelets * core.config().corelet.sfu_lanes);
            let (out, cycles) = unit.apply(stage, &gemm.c);
            // The SFU drains the output stream while the array computes;
            // only the portion beyond the array time is exposed.
            let exposed = cycles.saturating_sub(gemm.cycles);
            (out, cycles, exposed)
        }
        None => (gemm.c.clone(), 0, 0),
    };

    // Fold [n*ho*wo, co] → [n, co, ho, wo] with flat indexing.
    let mut output = Tensor::zeros(vec![n, co, ho, wo]);
    let hw = ho * wo;
    let fd = flat.as_slice();
    let od = output.as_mut_slice();
    for ni in 0..n {
        for s in 0..hw {
            let frow = (ni * hw + s) * co;
            for c in 0..co {
                od[(ni * co + c) * hw + s] = fd[frow + c];
            }
        }
    }
    Ok(ConvSimResult {
        output,
        array_cycles: gemm.cycles,
        sfu_cycles,
        sfu_exposed_cycles: sfu_exposed,
        gemm,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_numerics::fma::FmaMode;
    use rapid_numerics::gemm::conv2d_emulated;

    #[test]
    fn simulated_conv_matches_emulated_conv() {
        let core = CoreSim::rapid();
        let job = ConvJob {
            input: Tensor::random_uniform(vec![1, 8, 6, 6], -1.0, 1.0, 70),
            weight: Tensor::random_uniform(vec![16, 8, 3, 3], -0.5, 0.5, 71),
            spec: ConvSpec { stride: 1, pad: 1 },
            precision: Precision::Fp16,
            sfu: None,
        };
        let r = try_run_conv(&core, &job).unwrap();
        assert_eq!(r.output.shape(), &[1, 16, 6, 6]);
        let ci_lrf = core.config().corelet.ci_lrf_max(Precision::Fp16) as usize;
        let (expect, _) =
            conv2d_emulated(&job.input, &job.weight, job.spec, FmaMode::Fp16, ci_lrf);
        assert_eq!(r.output, expect, "simulated conv must be bit-exact");
    }

    #[test]
    fn fused_relu_clamps_negatives() {
        let core = CoreSim::rapid();
        let job = ConvJob {
            input: Tensor::random_uniform(vec![1, 4, 4, 4], -1.0, 1.0, 72),
            weight: Tensor::random_uniform(vec![8, 4, 3, 3], -0.5, 0.5, 73),
            spec: ConvSpec { stride: 1, pad: 1 },
            precision: Precision::Fp16,
            sfu: Some(SfuStage::Relu),
        };
        let r = try_run_conv(&core, &job).unwrap();
        assert!(r.output.as_slice().iter().all(|&v| v >= 0.0));
        assert!(r.sfu_cycles > 0);
    }

    #[test]
    fn sfu_mostly_hides_under_the_array() {
        let core = CoreSim::rapid();
        let job = ConvJob {
            input: Tensor::random_uniform(vec![1, 16, 8, 8], -1.0, 1.0, 74),
            weight: Tensor::random_uniform(vec![32, 16, 3, 3], -0.5, 0.5, 75),
            spec: ConvSpec { stride: 1, pad: 1 },
            precision: Precision::Fp16,
            sfu: Some(SfuStage::Relu),
        };
        let r = try_run_conv(&core, &job).unwrap();
        // 2048 outputs over 256 SFU lanes ≈ 16 cycles — trivially hidden
        // under thousands of array cycles.
        assert_eq!(r.sfu_exposed_cycles, 0, "relu should hide: {r:?}");
        assert_eq!(r.total_cycles(), r.array_cycles);
    }

    #[test]
    fn repeat_runs_are_bit_exact_and_errors_surface() {
        let core = CoreSim::rapid();
        let job = ConvJob {
            input: Tensor::random_uniform(vec![1, 4, 5, 5], -1.0, 1.0, 80),
            weight: Tensor::random_uniform(vec![6, 4, 3, 3], -0.5, 0.5, 81),
            spec: ConvSpec { stride: 1, pad: 1 },
            precision: Precision::Hfp8,
            sfu: None,
        };
        let fresh = try_run_conv(&core, &job).unwrap();
        // No state carries from one run into the next.
        let again = try_run_conv(&core, &job).unwrap();
        assert_eq!(again.output, fresh.output);
        assert_eq!(again.total_cycles(), fresh.total_cycles());

        let bad = ConvJob { weight: Tensor::zeros(vec![6, 3, 3, 3]), ..job.clone() };
        assert!(matches!(
            try_run_conv(&core, &bad),
            Err(SimError::Numerics(NumericsError::ShapeMismatch { .. }))
        ));
        let fp32 = ConvJob { precision: Precision::Fp32, ..job };
        assert!(matches!(
            try_run_conv(&core, &fp32),
            Err(SimError::Numerics(NumericsError::InvalidFormat(_)))
        ));
    }

    #[test]
    fn strided_conv_shapes() {
        let core = CoreSim::rapid();
        let job = ConvJob {
            input: Tensor::random_uniform(vec![2, 3, 8, 8], -1.0, 1.0, 76),
            weight: Tensor::random_uniform(vec![4, 3, 3, 3], -0.5, 0.5, 77),
            spec: ConvSpec { stride: 2, pad: 1 },
            precision: Precision::Int4,
            sfu: None,
        };
        let r = try_run_conv(&core, &job).unwrap();
        assert_eq!(r.output.shape(), &[2, 4, 4, 4]);
    }
}
