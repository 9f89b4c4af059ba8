//! # rapid-compiler
//!
//! The graph compiler of the RaPiD software stack (paper §IV-B, Fig 12):
//! given a DNN graph and a chip configuration it decides *how* the network
//! executes —
//!
//! * **Precision assignment** ([`passes::compile`]): quantizable layers
//!   take the target precision (INT4/INT2/HFP8); first/last layers and
//!   other accuracy-critical layers stay FP16 (§I feature 1).
//! * **Dataflow mapping** ([`mapping::map_layer`]): the weight-stationary
//!   dataflow of Fig 5, including spatial-residue, block-load and pipeline
//!   costs — the compiler's "bandwidth-centric analytical model" that
//!   guides design-space exploration and that the performance model builds
//!   on.
//! * **Scratchpad management**: spill analysis for inter-layer activations
//!   against the 2 MB/core L1.
//!
//! Every compiled layer runs at the chip's nominal clock. The Fig 6
//! sparsity-aware throttling schedule, per-layer clocks derived from the
//! pruned model's weight sparsity and the silicon characterization, is
//! set on the compiled plan by `rapid_model::throttle`.
//!
//! # Example
//!
//! ```
//! use rapid_arch::geometry::ChipConfig;
//! use rapid_arch::precision::Precision;
//! use rapid_compiler::passes::compile;
//! use rapid_workloads::suite::benchmark;
//!
//! let net = benchmark("resnet50").unwrap();
//! let chip = ChipConfig::rapid_4core();
//! let plan = compile(&net, &chip, Precision::Int4);
//! assert_eq!(plan.layers.len(), net.layers.len());
//! ```

pub mod dse;
pub mod mapping;
pub mod passes;
pub mod plan;

pub use dse::{mixed_precision_frontier, FrontierPoint};
pub use mapping::{map_layer, MappingCost, Split};
pub use passes::compile;
pub use plan::{LayerPlan, NetworkPlan, QuantCost};
