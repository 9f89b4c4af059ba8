//! # rapid
//!
//! A comprehensive reproduction of **RaPiD: AI Accelerator for Ultra-low
//! Precision Training and Inference** (Venkataramani et al., ISCA 2021) —
//! the IBM 7 nm 4-core chip supporting FP16 / Hybrid-FP8 / INT4 / INT2
//! execution.
//!
//! This facade re-exports every subsystem of the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`numerics`] | `rapid-numerics` | bit-exact FP16/HFP8/FP9/INT4/INT2 emulation, chunked accumulation, GEMM/conv kernels |
//! | [`arch`] | `rapid-arch` | machine organization, ISA, silicon power/area characterization |
//! | [`workloads`] | `rapid-workloads` | the 11-benchmark DNN suite with pruning profiles |
//! | [`compiler`] | `rapid-compiler` | precision assignment, weight-stationary dataflow mapping, throttling schedules |
//! | [`model`] | `rapid-model` | calibrated analytical performance/power model (inference, training, scaling) |
//! | [`sim`] | `rapid-sim` | cycle-approximate, functionally-executing core simulator with deadlock watchdogs |
//! | [`fault`] | `rapid-fault` | deterministic seeded fault injection (MAC bit-flips, ring drops/delays, sequencer stalls) |
//! | [`ring`] | `rapid-ring` | bidirectional ring + MNI multicast simulator |
//! | [`quant`] | `rapid-quant` | PACT, SaWB |
//! | [`refnet`] | `rapid-refnet` | reference trainer demonstrating HFP8 parity and INT4/INT2 PTQ |
//! | [`recover`] | `rapid-recover` | end-to-end recovery: checksummed checkpoints, loss-scale rollback, ABFT-protected resilient training |
//! | [`serve`] | `rapid-serve` | overload-hardened serving runtime: admission control, deadline propagation, precision-tiered shedding, circuit breaking |
//! | [`telemetry`] | `rapid-telemetry` | unified metrics registry, Chrome-trace cycle tracer, bench JSON schemas |
//! | [`health`] | `rapid-health` | online core health: known-answer self-test probes, decaying scores, mercurial-core quarantine |
//!
//! # Quickstart
//!
//! ```
//! use rapid::arch::geometry::ChipConfig;
//! use rapid::arch::precision::Precision;
//! use rapid::compiler::passes::compile;
//! use rapid::model::inference::evaluate_inference;
//! use rapid::workloads::suite::benchmark;
//!
//! let net = benchmark("resnet50").unwrap();
//! let chip = ChipConfig::rapid_4core();
//! let plan = compile(&net, &chip, Precision::Int4);
//! let result = evaluate_inference(&net, &plan, &chip, 1);
//! println!("ResNet50 INT4 batch-1: {:.0} inf/s at {:.1} TOPS/W",
//!          result.throughput_per_s, result.tops_per_w);
//! ```

pub use rapid_arch as arch;
pub use rapid_compiler as compiler;
pub use rapid_fault as fault;
pub use rapid_health as health;
pub use rapid_model as model;
pub use rapid_numerics as numerics;
pub use rapid_quant as quant;
pub use rapid_recover as recover;
pub use rapid_refnet as refnet;
pub use rapid_ring as ring;
pub use rapid_serve as serve;
pub use rapid_sim as sim;
pub use rapid_telemetry as telemetry;
pub use rapid_workloads as workloads;

/// The Rust examples in the repository README, compiled and run as
/// doctests so a stale call there fails the test suite.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
