//! # rapid-quant
//!
//! The quantization algorithms the RaPiD paper builds on (§II-C): **PACT**
//! learned activation clipping \[42\] and **SaWB** statistics-aware weight
//! binning \[46\]. The pruned-model sparsity that sparsity-aware throttling
//! (§V-D) reads comes from `rapid-workloads`' per-benchmark profiles.
//!
//! These operate on `rapid-numerics` tensors and produce the per-tensor
//! [`rapid_numerics::int::QuantParams`] that the INT4/INT2 GEMM kernels and
//! the reference trainer (`rapid-refnet`) consume.
//!
//! # Example
//!
//! ```
//! use rapid_numerics::{int::IntFormat, Tensor};
//! use rapid_quant::{pact::Pact, sawb::sawb_quantize};
//!
//! let acts = Tensor::from_vec(vec![3], vec![-0.5, 1.2, 9.0]);
//! let pact = Pact::new(2.0, IntFormat::Int4);
//! let clipped = pact.forward(&acts);
//! assert_eq!(clipped.as_slice()[2], 2.0); // clipped at alpha
//!
//! let w = Tensor::random_uniform(vec![128], -0.1, 0.1, 1);
//! let qw = sawb_quantize(&w, IntFormat::Int4);
//! assert_eq!(qw.len(), w.len());
//! ```

pub mod pact;
pub mod sawb;

pub use pact::Pact;
pub use sawb::{sawb_params, sawb_quantize};
