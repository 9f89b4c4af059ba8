//! Numeric execution backends: which arithmetic the GEMMs run through.
//!
//! The HFP8 training scheme (paper §II-B, Fig 3) assigns formats per
//! *operand role*: data tensors (weights, activations) use FP8 (1,4,3);
//! error tensors use FP8 (1,5,2). The backend maps each GEMM's operand
//! roles onto the right emulated pipeline, with chunk-based FP16
//! accumulation throughout.

use rapid_numerics::fma::{FmaMode, Fp8};
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

/// The HFP8 FMA mode for a GEMM's operand roles: each port takes its own
/// operand's format — FP8 (1,4,3) with bias 7 for data, FP8 (1,5,2) for
/// errors. Every HFP8 backend maps roles through this one function.
pub fn hfp8_mode((ra, rb): (OperandRole, OperandRole)) -> FmaMode {
    let port = |role| match role {
        OperandRole::Data => Fp8::E4m3 { bias: 7 },
        OperandRole::Error => Fp8::E5m2,
    };
    FmaMode::Hfp8 { a: port(ra), b: port(rb) }
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
/// the MPE's FPU pipeline. Each operand's role picks its port's format,
/// so every role pair is one GEMM in its own orientation.
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
        matmul_emulated_with(hfp8_mode(roles), a, b, self.chunk_len, Exec::default())
            .map(|(c, _)| c)
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

    /// Naive index-formula transpose, independent of `Tensor::transposed`.
    fn transpose_by_index(t: &Tensor) -> Tensor {
        let (r, c) = (t.shape()[0], t.shape()[1]);
        Tensor::from_fn(vec![c, r], |x| t.as_slice()[(x % r) * c + x / r])
    }

    /// The fast backend is bit-equal to the HFP8 role mapping on the scalar
    /// reference kernel for every role pair, on shapes spanning several
    /// transpose tiles and staging groups. The reference runs
    /// `(Error, Data)` with (1,5,2) on port B, through both transposes, and
    /// `(Error, Error)` with (1,5,2) on both ports.
    #[test]
    fn try_matmul_is_bit_equal_to_the_scalar_role_mapping() {
        use rapid_numerics::gemm::matmul_emulated_scalar;
        use OperandRole::{Data, Error};
        let be = Hfp8Backend::default();
        let (fwd, bwd) = (FmaMode::hfp8_fwd_default(), FmaMode::hfp8_bwd_default());
        let errors = FmaMode::Hfp8 { a: Fp8::E5m2, b: Fp8::E5m2 };
        for (m, k, n) in [(37, 70, 45), (1, 300, 17)] {
            let mut a = Tensor::random_uniform(vec![m, k], -2.0, 2.0, (m * k) as u64);
            let b = Tensor::random_uniform(vec![k, n], -2.0, 2.0, (k * n) as u64);
            a.as_mut_slice().iter_mut().step_by(7).for_each(|x| *x = 0.0);
            for roles in [(Data, Data), (Data, Error), (Error, Data), (Error, Error)] {
                let want = match roles {
                    (Data, Data) => matmul_emulated_scalar(fwd, &a, &b, be.chunk_len).0,
                    (Error, Data) => {
                        let (bt, at) = (transpose_by_index(&b), transpose_by_index(&a));
                        transpose_by_index(&matmul_emulated_scalar(bwd, &bt, &at, be.chunk_len).0)
                    }
                    (Error, Error) => matmul_emulated_scalar(errors, &a, &b, be.chunk_len).0,
                    (Data, Error) => matmul_emulated_scalar(bwd, &a, &b, be.chunk_len).0,
                };
                let got = be.try_matmul(&a, &b, roles).unwrap();
                assert_eq!(got.shape(), want.shape(), "{m}x{k}x{n} {roles:?}");
                let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect();
                let (got, want): (Vec<u32>, Vec<u32>) = (bits(&got), bits(&want));
                assert_eq!(got, want, "{m}x{k}x{n} {roles:?}");
            }
        }
    }

    #[test]
    fn error_data_equals_transposed_data_error() {
        // (Error, Data) runs in its own orientation with (1,5,2) on port A;
        // it must equal the transposed (Data, Error) product.
        let (a, b) = mats();
        let be = Hfp8Backend::default();
        let r1 = be.matmul(&a, &b, (OperandRole::Error, OperandRole::Data));
        let r2 = be
            .matmul(&b.transposed(), &a.transposed(), (OperandRole::Data, OperandRole::Error))
            .transposed();
        assert_eq!(r1, r2);
    }
}
