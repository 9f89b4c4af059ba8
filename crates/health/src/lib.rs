//! # rapid-health
//!
//! Online core-health monitoring for the RaPiD reproduction: known-answer
//! self-test probes, decaying per-core health scores, and the
//! mercurial-core quarantine state machine.
//!
//! The chip-level layers already survive *declared* failures (the static
//! degraded-core remap, the elastic ring's node-loss healing). What they
//! cannot see is a **mercurial core**: a unit that is intermittently
//! wrong and never announces itself — silently corrupting results that
//! ABFT only catches one GEMM at a time. This crate closes the loop:
//!
//! * [`probe`] — deterministic known-answer self-tests: small bit-exact
//!   GEMMs per arithmetic format, checked against the `*_scalar`
//!   references. A probe routed through a defective core's fault stream
//!   fails loudly; on a clean core it is bit-exact by construction.
//! * [`score`] — a per-core health score in `[0, 1]` with exponentially
//!   decaying evidence: probe failures plus the in-band signals the
//!   stack already emits (ABFT repairs, guard trips, ECC SEC/DED counts,
//!   CRC retransmits).
//! * [`quarantine`] — the Healthy → Suspect → Quarantined → Probation →
//!   Healthy state machine with hysteresis: entering quarantine takes a
//!   consecutive-failure streak or a score collapse, and *leaving* takes
//!   a cooldown plus N consecutive probation probe passes, so a flapping
//!   core cannot oscillate in and out of service.
//! * [`map`] — the dynamic [`CoreMap`]: the live exclusion mask the
//!   chip simulator and the serving layer consult per batch (the dynamic
//!   generalization of the static failed-core mask
//!   `rapid_sim::chip::try_run_chip_gemm_with` takes).
//! * [`monitor`] — [`ChipHealthMonitor`] ties it together: one probe
//!   cycle runs one kernel on every core, updates scores and states,
//!   maintains the map, feeds a quarantine SLO burn-rate rule, and
//!   emits `health.*` counters and probe-cycle spans.
//!
//! Everything follows the workspace's zero-cost hook pattern: monitors
//! are passed as `Option<&mut ChipHealthMonitor>`; a `None` (or a run
//! with `RAPID_HEALTH=off`) executes bit-identically to a build without
//! this crate.

// unwrap/expect denial comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub mod map;
pub mod monitor;
pub mod probe;
pub mod quarantine;
pub mod score;

pub use map::CoreMap;
pub use monitor::{ChipHealthMonitor, ProbeCycleReport};
pub use probe::{ProbeOutcome, ProbeSuite};
pub use quarantine::{CoreState, CoreTracker, HealthEvent};
pub use score::{Evidence, HealthScore};

/// Environment variable gating health monitoring in the benches:
/// `RAPID_HEALTH=off` (or `0` / `false`) disables probe scheduling and
/// quarantine entirely, leaving runs bit-identical to pre-health builds.
pub const HEALTH_ENV: &str = "RAPID_HEALTH";

/// Whether health monitoring is enabled per [`HEALTH_ENV`] (default on).
pub fn enabled_from_env() -> bool {
    match std::env::var(HEALTH_ENV) {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false"),
        Err(_) => true,
    }
}

/// Tuning knobs for probing, scoring, and quarantine hysteresis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Seed for the deterministic probe operand generation.
    pub probe_seed: u64,
    /// Probe GEMM dimension (m = n = `probe_dim`, k = 2·`probe_dim`) —
    /// small enough that a probe cycle is cheap, big enough that a
    /// burst-mode core is near-certain to corrupt at least one output.
    pub probe_dim: usize,
    /// Chunk length of the probe GEMMs (matches the datapath default).
    pub chunk_len: usize,
    /// Score below which a Healthy core becomes Suspect.
    pub suspect_enter: f64,
    /// Score a Suspect core must recover to before returning to Healthy
    /// (above `suspect_enter` — the anti-flap hysteresis band).
    pub resume_score: f64,
    /// Score below which a core is quarantined outright.
    pub quarantine_enter: f64,
    /// Consecutive probe failures that quarantine a core regardless of
    /// its score.
    pub fail_streak: u32,
    /// Fraction of the remaining headroom a clean probe restores
    /// (exponential recovery toward 1.0).
    pub recovery: f64,
    /// Probe cycles a quarantined core sits out before probation begins.
    pub min_quarantine_probes: u32,
    /// Consecutive probation probe passes required to reinstate a core.
    pub probation_probes: u32,
    /// Virtual microseconds one probe cycle occupies (the time base for
    /// the quarantine SLO rule and probe spans).
    pub probe_period_us: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            probe_seed: 0x4845_4C54, // "HELT"
            probe_dim: 4,
            chunk_len: 64,
            suspect_enter: 0.75,
            resume_score: 0.90,
            quarantine_enter: 0.45,
            fail_streak: 2,
            recovery: 0.2,
            min_quarantine_probes: 4,
            probation_probes: 5,
            probe_period_us: 500,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_config_thresholds_are_ordered() {
        let cfg = HealthConfig::default();
        assert!(cfg.quarantine_enter < cfg.suspect_enter);
        assert!(cfg.suspect_enter < cfg.resume_score);
        assert!(cfg.resume_score <= 1.0);
        assert!(cfg.fail_streak >= 1 && cfg.probation_probes >= 1);
    }
}
