//! # rapid-arch
//!
//! Architecture description of the RaPiD chip (ISCA 2021): machine
//! organization, precision taxonomy, instruction formats, and the silicon
//! characterization (power/area) model.
//!
//! The RaPiD chip is organized hierarchically (paper §III–IV):
//!
//! ```text
//! System ─ chips ─ 4 cores/chip ─ 2 corelets/core ─ 8×8 MPE array + SFU arrays
//!                   │                │
//!                   │                └ L0 scratchpad, 128 B/cyc from L1
//!                   └ 2 MB L1/core, MNI + bidirectional ring (128 B/cyc/dir)
//! ```
//!
//! * [`precision::Precision`] — the five supported data formats and their
//!   per-element storage/throughput properties.
//! * [`geometry`] — [`geometry::MpeConfig`] through
//!   [`geometry::SystemConfig`], with peak-throughput
//!   calculators that reproduce Fig 10's 8–12.8 / 16–25.6 / 64–102.4
//!   T(FL)OPS envelopes.
//! * [`isa`] — the MPE/SFU/MNI instruction formats of Fig 4(b), shared by
//!   the compiler (`rapid-compiler`) and the cycle simulator (`rapid-sim`).
//! * [`power`] — the silicon characterization as constants stated once
//!   (the [`power::F_MIN_GHZ`]–[`power::F_MAX_GHZ`] clock range, per-op
//!   energies, static power, the throttle budget) and the free functions
//!   that derive the V(f) curve, peak TOPS/W (Fig 10), zero-gating
//!   savings and the clock-edge-skipping throttle rate (Fig 16a).
//! * [`area`] — the Fig 4(c) area/power accounting for the decoupled
//!   FPU/FXU pipelines and the Fig 10 floorplan, as constants.
//!
//! # Example
//!
//! ```
//! use rapid_arch::geometry::ChipConfig;
//! use rapid_arch::power::{F_MAX_GHZ, F_MIN_GHZ};
//! use rapid_arch::precision::Precision;
//!
//! let chip = ChipConfig::rapid_4core();
//! // Fig 10: "64 – 102.4 TOPS" INT4 over 1.0–1.6 GHz (the paper rounds
//! // 65.536 down to 64).
//! assert_eq!(chip.peak_tops(Precision::Int4, F_MIN_GHZ), 65.536);
//! assert!(chip.peak_tops(Precision::Int4, F_MAX_GHZ) > 102.4);
//! ```

pub mod area;
pub mod geometry;
pub mod isa;
pub mod power;
pub mod precision;
pub mod protection;

pub use geometry::{ChipConfig, CoreConfig, CoreletConfig, MpeConfig, SystemConfig};
pub use precision::Precision;
