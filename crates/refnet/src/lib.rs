//! # rapid-refnet
//!
//! A minimal reference training framework over the emulated RaPiD
//! numerics, used to demonstrate end-to-end that the chip's arithmetic
//! recipes work (experiment E10):
//!
//! * **HFP8 training parity** — an MLP trained with the Hybrid-FP8 GEMM
//!   pipeline (FP8 (1,4,3) data / (1,5,2) errors, FP16 chunked
//!   accumulation, FP32 master weights) reaches the same accuracy as FP32
//!   training (paper §II-B, refs [44, 45]).
//! * **INT4/INT2 post-training quantization** — SaWB-binned weights and
//!   PACT-style calibrated activations running on the emulated FXU integer
//!   pipeline lose negligible accuracy at 4 bits and a small amount at
//!   2 bits (paper §II-C, refs [42, 46]).
//!
//! The datasets are synthetic (the paper's training corpora are not
//! redistributable); the arithmetic paths exercised are identical.
//!
//! # Example
//!
//! ```
//! use rapid_refnet::backend::{Fp32Backend, Hfp8Backend};
//! use rapid_refnet::data::gaussian_blobs;
//! use rapid_refnet::mlp::{train, Mlp, TrainConfig};
//!
//! let data = gaussian_blobs(256, 3, 8, 0.3, 7);
//! let mut model = Mlp::new(&[8, 16, 3], 0);
//! let cfg = TrainConfig { epochs: 10 };
//! let acc = train(&mut model, &Hfp8Backend::default(), &data, &cfg);
//! assert!(acc > 0.5); // learns well past chance in a few epochs
//! ```

pub mod backend;
pub mod conv;
pub mod data;
pub mod dense;
pub mod lstm;
pub mod mlp;
pub mod qat;
pub mod quantized;

pub use backend::{Backend, Fp16Backend, Fp32Backend, Hfp8Backend, OperandRole};
pub use data::{gaussian_blobs, Dataset};
pub use dense::DenseStack;
pub use mlp::{softmax_cross_entropy, train, Mlp, TrainConfig};
pub use conv::{pattern_images, Conv2d, TinyCnn};
pub use lstm::{parity_sequences, GateMath, LstmNet};
pub use qat::{train_qat, QatConfig, QatMlp};
pub use quantized::QuantizedMlp;
