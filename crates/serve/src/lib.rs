//! Overload-hardened model-serving runtime over the emulated RaPiD
//! accelerator stack.
//!
//! The paper's ultra-low-precision tiers are not just a training trick:
//! at serving time they form a *quality ladder* the runtime can walk
//! down under overload — FP16 → HFP8 → INT4 — trading accuracy for
//! throughput before it ever has to drop a request. This crate builds
//! the serving pipeline around that idea:
//!
//! ```text
//! submit ─▶ breaker gate ─▶ bounded queue ─▶ admission control
//!                 │                               │
//!                 ▼                               ▼
//!          continuous batcher ◀─ shed controller (tier downgrades)
//!                 │
//!                 ▼
//!          worker pool ─▶ guarded emulated kernels ─▶ retry/breaker
//! ```
//!
//! - [`engine::ServeEngine`] — the clock-explicit deterministic state
//!   machine every front-end shares.
//! - [`server::Server`] — the real threaded runtime (`std::thread::scope`
//!   workers, no async runtime).
//! - [`sweep`] — virtual-time open-loop load generator for
//!   bit-reproducible chaos tests and overload curves (EXPERIMENTS.md
//!   E21).
//! - [`session::InferenceSession`] — the seam to the emulated backend;
//!   [`session::EmulatedSession`] routes each tier to the corresponding
//!   guarded kernel with fault injection.
//!
//! Two invariants hold by construction and are chaos-tested: every
//! submitted request gets exactly one terminal outcome (conservation),
//! and no completion is ever delivered past its deadline.
//!
//! Observability rides the same state machine: with
//! [`engine::ServeConfig::record_spans`] the engine records a
//! deterministic span per request stage (admission → queue → exec →
//! retry) feeding the critical-path extractor, and
//! [`engine::ServeConfig::slo`] attaches multi-window burn-rate SLO
//! monitors to the terminal-outcome path. Both are observers only —
//! results stay bit-identical with them on or off (proptested).

// unwrap/expect denial comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub mod breaker;
pub mod engine;
pub mod request;
pub mod server;
pub mod session;
pub mod shed;
pub mod sweep;

pub use breaker::{Admit, BreakerConfig, BreakerState, CircuitBreaker};
pub use engine::{BatchLogEntry, ServeConfig, ServeEngine, SloPolicy};
pub use request::{
    Batch, Outcome, QosClass, RejectReason, Request, RequestId, Response, Tier, TimeoutStage,
};
pub use server::{Server, ServerHandle, ServerReport};
pub use session::{EmulatedSession, InferenceSession, OkSession, SessionError, SessionReport};
pub use shed::{ShedConfig, ShedController};
pub use sweep::{run_open_loop, synthetic_table, OfferedLoad, SweepResult};
