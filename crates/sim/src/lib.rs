//! # rapid-sim
//!
//! A cycle-approximate, *functionally executing* simulator of the RaPiD
//! core (paper §II-A, §III): decoupled data-sequencing programs with
//! token-based synchronization feed a systolic MPE array that computes
//! through the bit-exact `rapid-numerics` pipelines.
//!
//! Structure (one corelet):
//!
//! ```text
//!  L1 scratchpad ──(128 B/cyc port)──┬── weight sequencer ─→ weight link ─┐
//!                                    └── input sequencer  ─→ input link ──┤
//!                                                                         ▼
//!            token: BLOCK_FREE  ◀───────────────  8×8 MPE array (FMMA, zero-gating,
//!                                                 chunk accumulation) ─→ outputs
//! ```
//!
//! The array executes the weight-stationary dataflow of Fig 5; block-loads
//! are exposed (the weight sequencer waits on the array's block-free
//! token), so the cycle counts line up with the compiler's analytical
//! mapping — experiment E9 verifies the calibration within a few percent,
//! our analog of the paper's "calibrated to within 1% of the measurement
//! results".
//!
//! # Example
//!
//! ```
//! use rapid_arch::precision::Precision;
//! use rapid_numerics::Tensor;
//! use rapid_sim::gemm::{CoreSim, GemmJob};
//!
//! let core = CoreSim::rapid();
//! let job = GemmJob {
//!     a: Tensor::random_uniform(vec![4, 32], -1.0, 1.0, 1),
//!     b: Tensor::random_uniform(vec![32, 64], -1.0, 1.0, 2),
//!     precision: Precision::Fp16,
//! };
//! let r = core.run_gemm(&job);
//! assert_eq!(r.c.shape(), &[4, 64]);
//! assert!(r.cycles > 0);
//! ```

// unwrap/expect denial comes from [workspace.lints] in the root manifest.

pub mod array;
pub mod chip;
pub mod conv;
pub mod ecc;
pub mod error;
pub mod gemm;
pub mod seq;
pub mod sfu;
pub mod token;
pub mod watchdog;

pub use array::{ArrayJob, Datapath, MpeArray, TOKEN_BLOCK_FREE};
pub use chip::{
    try_run_chip_gemm, try_run_chip_gemm_with, ChipGemmJob, ChipSimResult, SFU_TRACE_PID,
};
pub use conv::{try_run_conv, ConvJob, ConvSimResult};
pub use error::{SeqSnapshot, SimError};
pub use gemm::{precision_label, CoreSim, CoreletReport, GemmJob, SimResult};
pub use sfu::{SfuStage, SfuUnit};
pub use seq::{Link, Scratchpad, Sequencer};
pub use token::TokenFile;
pub use watchdog::{run_token_programs, Watchdog, DEFAULT_WATCHDOG_WINDOW};
