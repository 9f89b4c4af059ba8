//! Numeric execution backends: which arithmetic the GEMMs run through.
//!
//! The HFP8 training scheme (paper §II-B, Fig 3) assigns formats per
//! *operand role*: data tensors (weights, activations) use FP8 (1,4,3);
//! error tensors use FP8 (1,5,2). The backend maps each GEMM's operand
//! roles onto the right emulated pipeline, with chunk-based FP16
//! accumulation throughout.

use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{matmul_emulated_with, matmul_f32_checked, Exec};
use rapid_numerics::{NumericsError, Tensor};

/// Role of a GEMM operand in the training dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandRole {
    /// Weights or activations: FP8 (1,4,3) in HFP8 mode.
    Data,
    /// Back-propagated errors: FP8 (1,5,2) in HFP8 mode.
    Error,
}

/// A numeric backend for the reference trainer.
pub trait Backend {
    /// `a [m,k] × b [k,n]` with the given operand roles.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] when the operands are not
    /// conformable matrices.
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError>;

    /// [`Backend::try_matmul`] that panics on incompatible shapes —
    /// convenient inside training loops whose shapes are static.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes are incompatible.
    #[allow(clippy::expect_used)] // documented panic on bad shapes
    fn matmul(&self, a: &Tensor, b: &Tensor, roles: (OperandRole, OperandRole)) -> Tensor {
        self.try_matmul(a, b, roles).expect("incompatible matmul shapes")
    }

    /// Backend label for reports.
    fn name(&self) -> &'static str;
}

/// Exact FP32 reference backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp32Backend;

impl Backend for Fp32Backend {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        _roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        matmul_f32_checked(a, b)
    }

    fn name(&self) -> &'static str {
        "fp32"
    }
}

/// DLFloat16 backend with chunked accumulation (the RaPiD FP16 baseline).
#[derive(Debug, Clone, Copy)]
pub struct Fp16Backend {
    /// MPE accumulation chunk length.
    pub chunk_len: usize,
}

impl Default for Fp16Backend {
    fn default() -> Self {
        Self { chunk_len: 64 }
    }
}

impl Backend for Fp16Backend {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        _roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        matmul_emulated_with(FmaMode::Fp16, a, b, self.chunk_len, Exec::default()).map(|(c, _)| c)
    }

    fn name(&self) -> &'static str {
        "fp16"
    }
}

/// Hybrid-FP8 backend: (1,4,3) for data operands, (1,5,2) for error
/// operands, merged at the FP16 adder with chunked accumulation — exactly
/// the MPE's FPU pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Hfp8Backend {
    /// MPE accumulation chunk length.
    pub chunk_len: usize,
}

impl Default for Hfp8Backend {
    fn default() -> Self {
        Self { chunk_len: 64 }
    }
}

impl Backend for Hfp8Backend {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        use OperandRole::{Data, Error};
        let mm = |mode, a: &Tensor, b: &Tensor| {
            matmul_emulated_with(mode, a, b, self.chunk_len, Exec::default()).map(|(c, _)| c)
        };
        match roles {
            (Data, Data) => mm(FmaMode::hfp8_fwd_default(), a, b),
            // Error × error products do not occur in the HFP8 dataflow;
            // they fall back to the wider-range format on both ports.
            (Data, Error) | (Error, Error) => mm(FmaMode::hfp8_bwd_default(), a, b),
            // The pipeline takes (1,4,3) on port A; compute the transpose
            // to present the error operand on port B: C = A×B = (BᵀAᵀ)ᵀ.
            (Error, Data) => {
                if a.shape().len() != 2 || b.shape().len() != 2 {
                    return Err(NumericsError::ShapeMismatch {
                        expected: "rank-2 operands".to_string(),
                        actual: format!("a {:?} × b {:?}", a.shape(), b.shape()),
                    });
                }
                Ok(mm(FmaMode::hfp8_bwd_default(), &b.transposed(), &a.transposed())?.transposed())
            }
        }
    }

    fn name(&self) -> &'static str {
        "hfp8"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_numerics::gemm::matmul_f32;

    fn mats() -> (Tensor, Tensor) {
        (
            Tensor::random_uniform(vec![4, 8], -1.0, 1.0, 31),
            Tensor::random_uniform(vec![8, 4], -1.0, 1.0, 32),
        )
    }

    #[test]
    fn fp32_backend_is_exact() {
        let (a, b) = mats();
        let r = Fp32Backend.matmul(&a, &b, (OperandRole::Data, OperandRole::Data));
        assert_eq!(r, matmul_f32(&a, &b));
    }

    #[test]
    fn hfp8_backend_tracks_reference() {
        let (a, b) = mats();
        let exact = matmul_f32(&a, &b);
        for roles in [
            (OperandRole::Data, OperandRole::Data),
            (OperandRole::Data, OperandRole::Error),
            (OperandRole::Error, OperandRole::Data),
        ] {
            let r = Hfp8Backend::default().matmul(&a, &b, roles);
            assert!(r.max_rel_diff(&exact) < 0.15, "{roles:?}: {}", r.max_rel_diff(&exact));
        }
    }

    #[test]
    fn try_matmul_surfaces_shape_errors() {
        use rapid_numerics::NumericsError;
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let backends: [&dyn Backend; 3] =
            [&Fp32Backend, &Fp16Backend::default(), &Hfp8Backend::default()];
        for be in backends {
            for roles in [
                (OperandRole::Data, OperandRole::Data),
                (OperandRole::Error, OperandRole::Data),
            ] {
                assert!(
                    matches!(
                        be.try_matmul(&a, &b, roles),
                        Err(NumericsError::ShapeMismatch { .. })
                    ),
                    "{} {roles:?}",
                    be.name()
                );
            }
        }
    }

    #[test]
    fn error_data_equals_transposed_data_error() {
        // (Error, Data) is computed via the transpose identity; verify it
        // against a direct construction.
        let (a, b) = mats();
        let be = Hfp8Backend::default();
        let r1 = be.matmul(&a, &b, (OperandRole::Error, OperandRole::Data));
        let r2 = be
            .matmul(&b.transposed(), &a.transposed(), (OperandRole::Data, OperandRole::Error))
            .transposed();
        assert_eq!(r1, r2);
    }
}
