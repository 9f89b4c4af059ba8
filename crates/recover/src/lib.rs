//! # rapid-recover
//!
//! The recovery layer: everything `rapid-fault` can inject and the guards
//! can *detect*, this crate makes *survivable*.
//!
//! PR 2 left the stack fail-stop: a tripped [`GuardPolicy::Error`] aborts
//! the training run, and nothing restores state afterwards. Long-running
//! ultra-low-precision training — the paper's 4-chip × 32-core HFP8
//! configuration (§IV-A) — needs the opposite: detected corruption should
//! cost a skipped step, a reduced loss scale, or at worst a rollback to
//! the last good checkpoint, never the run.
//!
//! The pieces:
//!
//! * [`scaler::DynamicLossScaler`] — grow-on-success / back-off-on-overflow
//!   loss scaling for the FP8 (1,5,2) error tensors;
//! * [`checkpoint`] — versioned, CRC32-checksummed, atomically-written
//!   training checkpoints with generation retention; a corrupted or
//!   truncated file is detected and the previous generation restored;
//! * [`backend::GuardedHfp8Backend`] — the HFP8 training backend with a
//!   seeded fault plan spliced into every GEMM, a datapath [`Protection`]
//!   mode and a configurable guard policy, accumulating [`GemmStats`]
//!   (including `guard_clamps`) across the run. Recovery runs on
//!   [`Protection::Abft`]: checksummed GEMMs repair faulty elements in
//!   the kernel, so faults rarely reach the loop at all;
//! * [`train`] — resilient variants of the refnet training loops, the
//!   backstop for what gets through: a failed step is rolled back to its
//!   pre-step snapshot and skipped, the scale backs off, and `K`
//!   consecutive failures restore the last good checkpoint instead of
//!   aborting.
//!
//! Ring-side recovery (ack/retransmit all-reduce) lives in
//! `rapid_ring::reliable`; degraded-core remapping lives in
//! `rapid_sim::chip` and `rapid_model::scaling`. This crate is the
//! training-state half of the story.
//!
//! # Example
//!
//! ```
//! use rapid_fault::FaultConfig;
//! use rapid_numerics::GuardPolicy;
//! use rapid_recover::backend::{GuardedHfp8Backend, Protection};
//! use rapid_recover::train::{train_mlp_resilient, ResilientConfig};
//! use rapid_refnet::data::gaussian_blobs;
//! use rapid_refnet::mlp::{Mlp, TrainConfig};
//!
//! let data = gaussian_blobs(128, 3, 8, 0.3, 7);
//! let mut model = Mlp::new(&[8, 16, 3], 0);
//! let backend = GuardedHfp8Backend::new(
//!     FaultConfig { seed: 1, mac_acc_rate: 1e-4, ..FaultConfig::default() },
//!     GuardPolicy::Error,
//!     Protection::Abft,
//! );
//! let cfg = TrainConfig { epochs: 4 };
//! let (acc, report) = train_mlp_resilient(
//!     &mut model, &backend, &data, &cfg, &ResilientConfig::default(), None,
//! ).unwrap();
//! assert!(acc > 0.4);
//! assert_eq!(report.steps_run, report.steps_applied + report.steps_skipped);
//! ```
//!
//! [`GuardPolicy::Error`]: rapid_numerics::GuardPolicy
//! [`GemmStats`]: rapid_numerics::gemm::GemmStats

// unwrap/expect denial comes from [workspace.lints] in the root manifest.

pub mod backend;
pub mod checkpoint;
pub mod crc;
pub mod elastic;
pub mod scaler;
pub mod train;

pub use backend::{GuardedHfp8Backend, Protection, ABFT_METRIC_PREFIX, BACKEND_METRIC_PREFIX};
pub use checkpoint::{CheckpointError, CheckpointStore, LayerState, TrainState};
pub use crc::crc32;
pub use elastic::{train_elastic, ElasticReport, ElasticTrainConfig, ElasticTrainError};
pub use scaler::DynamicLossScaler;
pub use train::{
    train_mlp_resilient, train_qat_resilient, RecoverError, RecoveryReport, ResilientConfig,
};
