//! # rapid-model
//!
//! Analytical performance and power model of the RaPiD chip and its scaled
//! systems — the reproduction counterpart of the paper's "detailed
//! performance model calibrated to within 1% of the measurement results"
//! (§V-A). Component utilization comes from the compiler's dataflow
//! mapping; silicon characterization comes from `rapid-arch::power`; this
//! crate composes them into end-to-end results:
//!
//! * [`inference::evaluate_inference`] — batch-1 inference latency,
//!   sustained TOPS and TOPS/W, and the four-way compute-cycle breakdown
//!   (Figs 13, 14, 17).
//! * [`training::evaluate_training`] — distributed data-parallel training
//!   step time, inputs/s and sustained TFLOPS (Fig 15).
//! * [`throttle::throttling_study`] — sparsity-aware frequency throttling
//!   vs the dense-budget baseline (Fig 16).
//! * [`scaling::core_sweep`] and [`scaling::chip_sweep`] — core-count and
//!   chip-count sweeps (Fig 18), which also price the degraded-core and
//!   elastic-ring curves.
//! * [`report::layer_reports`] — the per-layer view of the same pricing
//!   [`inference::evaluate_inference`] folds (one cost per layer).
//!
//! Calibration against the cycle-approximate simulator (`rapid-sim`) is
//! exercised in the workspace integration tests and the `calibration`
//! bench binary.
//!
//! # Example
//!
//! ```
//! use rapid_arch::geometry::ChipConfig;
//! use rapid_arch::precision::Precision;
//! use rapid_compiler::passes::compile;
//! use rapid_model::inference::evaluate_inference;
//! use rapid_workloads::suite::benchmark;
//!
//! let net = benchmark("resnet50").unwrap();
//! let chip = ChipConfig::rapid_4core();
//! let plan = compile(&net, &chip, Precision::Int4);
//! let r = evaluate_inference(&net, &plan, &chip, 1);
//! assert!(r.latency_s > 0.0 && r.tops_per_w > 1.0);
//! ```

pub mod cost;
pub mod inference;
pub mod latency;
pub mod protection;
pub mod report;
pub mod scaling;
pub mod throttle;
pub mod training;

pub use cost::{CycleBreakdown, EnergyLedger};
pub use inference::{evaluate_inference, InferenceResult};
pub use latency::{LatencyEntry, LatencyTable, SERVING_PRECISIONS};
pub use protection::{protection_tax, ProtectionTax};
pub use report::{layer_reports, LayerReport};
pub use scaling::{chip_sweep, core_sweep, quarantine_retention, ScalePoint};
pub use throttle::{throttling_study, ThrottleStudy};
pub use training::{evaluate_training, TrainingResult};
