//! # rapid-numerics
//!
//! Ultra-low-precision numerics substrate for the RaPiD accelerator
//! reproduction (ISCA 2021).
//!
//! RaPiD supports five data formats: FP16 (1,6,9 — IBM "DLFloat16"), two
//! 8-bit floats FP8 (1,4,3) with *programmable exponent bias* and
//! FP8 (1,5,2) (together "Hybrid-FP8"), plus INT4 and INT2 fixed point.
//! This crate provides bit-exact software emulation of those formats and of
//! the arithmetic pipelines the chip implements:
//!
//! * [`format::FpFormat`] — a runtime description of a (sign, exponent,
//!   mantissa) float format with round-to-nearest-even quantization,
//!   saturation, and raw-bit encode/decode.
//! * [`types`] — newtypes for the concrete formats ([`Fp16`], [`Fp8E4M3`],
//!   [`Fp8E5M2`], [`Fp9`]) storing raw bits.
//! * [`fma`] — the MPE's FPU pipeline: on-the-fly conversion of both HFP8
//!   operand formats to the internal FP9 (1,5,3) representation, fused
//!   multiply-add with an FP16 accumulator, and zero-gating semantics.
//! * [`accumulate`] — chunk-based hierarchical accumulation (Sakr et al.,
//!   ICLR'19), which RaPiD uses to preserve fidelity of partial sums.
//! * [`int`] — INT4/INT2 quantized types with INT16-per-chunk/INT32
//!   accumulation, and per-tensor scale quantization parameters.
//! * [`lut`] — exhaustive decode and FP8×FP8 product lookup tables that
//!   collapse the per-FMA format conversions of the HFP8 pipeline into a
//!   single table load (fast GEMM path).
//! * [`qtensor`] — quantize-once tensor representation carrying lattice
//!   values and (for 8-bit formats) raw operand codes.
//! * [`sfu`] — the Special Function Unit's fast/accurate approximations
//!   of `sqrt`, `exp`, `ln`, `sigmoid`, `tanh` and `reciprocal`
//!   (paper §III-B).
//! * [`tensor`] — a minimal row-major `f32` tensor used across the
//!   workspace.
//! * [`gemm`] — emulated GEMM and convolution kernels for every supported
//!   precision, returning both numeric results and datapath statistics
//!   (MAC counts, zero-gated MACs) consumed by the power model.
//! * [`dispatch`] — runtime kernel-backend selection (`RAPID_SIMD`
//!   knob + CPU capability detection) between the portable tiled fast
//!   paths, the AVX2 vector kernels and the bit-sliced INT2 kernel, plus
//!   the [`kernel_matrix`] telemetry report.
//! * [`guard`] — numeric guard policies ([`GuardPolicy`]) applied by the
//!   single fallible GEMM entry points ([`gemm::matmul_emulated_with`],
//!   [`gemm::matmul_int_with`], configured by [`gemm::Exec`]) when an
//!   accumulator goes non-finite or an INT16 chunk register overflows.
//!
//! # Example
//!
//! ```
//! use rapid_numerics::{fma::FmaMode, format::FpFormat, gemm, tensor::Tensor};
//!
//! // Quantize a value to FP8 (1,4,3) with the default bias.
//! let f = FpFormat::fp8_e4m3();
//! assert_eq!(f.quantize(1.06), 1.0); // rounds to nearest representable
//!
//! // Run a small GEMM through the HFP8 forward pipeline.
//! let a = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.5]);
//! let b = Tensor::from_vec(vec![3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
//! let (c, stats) = gemm::matmul_emulated(FmaMode::hfp8_fwd_default(), &a, &b, 64);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(stats.macs, 12);
//! ```

pub mod abft;
pub mod accumulate;
pub(crate) mod bitslice;
pub mod dispatch;
pub mod error;
pub mod fma;
pub mod format;
pub mod gemm;
pub mod guard;
pub mod int;
pub mod lut;
pub mod qtensor;
pub mod sfu;
pub(crate) mod simd;
pub mod tensor;
pub mod types;

pub use abft::{abft_matmul_emulated, abft_matmul_int, AbftReport};
pub use dispatch::{kernel_matrix, kernel_matrix_at, KernelBackend, KernelChoice, SimdMode};
pub use error::NumericsError;
pub use format::FpFormat;
pub use guard::GuardPolicy;
pub use int::{IntFormat, QuantParams};
pub use qtensor::QTensor;
pub use tensor::Tensor;
pub use types::{Fp16, Fp8E4M3, Fp8E5M2, Fp9};
