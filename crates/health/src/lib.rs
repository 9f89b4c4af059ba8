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
//! are passed as `Option<&mut ChipHealthMonitor>`; a `None` executes
//! bit-identically to a build without this crate.

// unwrap/expect denial comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub mod map;
pub mod monitor;
pub mod probe;
pub mod quarantine;
pub mod score;

pub use map::CoreMap;
pub use monitor::{ChipHealthMonitor, ProbeCycleReport, PROBE_PERIOD_US};
pub use probe::{ProbeOutcome, ProbeSuite};
pub use quarantine::{
    CoreState, CoreTracker, HealthEvent, MIN_QUARANTINE_PROBES, PROBATION_PROBES,
};
pub use score::{Evidence, HealthScore};

#[cfg(test)]
mod tests {
    use crate::quarantine::{QUARANTINE_ENTER, RESUME_SCORE, SUSPECT_ENTER};

    #[test]
    fn default_config_thresholds_are_ordered() {
        // The hysteresis band, checked when the tests compile.
        const {
            assert!(QUARANTINE_ENTER < SUSPECT_ENTER);
            assert!(SUSPECT_ENTER < RESUME_SCORE);
            assert!(RESUME_SCORE <= 1.0);
        }
    }
}
