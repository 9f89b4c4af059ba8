//! The per-core quarantine state machine with hysteresis.
//!
//! ```text
//!            score < SUSPECT_ENTER
//!   Healthy ───────────────────────▶ Suspect
//!      ▲                               │
//!      │ score ≥ RESUME_SCORE          │ FAIL_STREAK consecutive probe
//!      │ (hysteresis band)             │ failures, or score <
//!      │                               │ QUARANTINE_ENTER
//!      │                               ▼
//!   Probation ◀──────────────── Quarantined
//!      │        MIN_QUARANTINE_PROBES cycles served
//!      │
//!      ├─ PROBATION_PROBES consecutive passes → Healthy (reinstated)
//!      └─ any probation failure → Quarantined (cooldown restarts)
//! ```
//!
//! Two hysteresis mechanisms stop a mercurial core from flapping in and
//! out of service: the `SUSPECT_ENTER < RESUME_SCORE` band (a Suspect
//! core must climb *above* where it fell in), and the probation gauntlet
//! (one failed probe during probation sends the core back to the start
//! of its quarantine cooldown).

use crate::score::{Evidence, HealthScore};

/// Score below which a Healthy core becomes Suspect.
pub(crate) const SUSPECT_ENTER: f64 = 0.75;

/// Score a Suspect core must recover to before returning to Healthy
/// (above [`SUSPECT_ENTER`]: the anti-flap hysteresis band).
pub(crate) const RESUME_SCORE: f64 = 0.90;

/// Score below which a core is quarantined outright.
pub(crate) const QUARANTINE_ENTER: f64 = 0.45;

/// Consecutive probe failures that quarantine a core regardless of its
/// score.
const FAIL_STREAK: u32 = 2;

/// Fraction of the remaining headroom a clean probe restores
/// (exponential recovery toward 1.0).
const RECOVERY: f64 = 0.2;

/// Probe cycles a quarantined core sits out before probation begins.
pub const MIN_QUARANTINE_PROBES: u32 = 4;

/// Consecutive probation probe passes required to reinstate a core.
pub const PROBATION_PROBES: u32 = 5;

/// Where a core sits in the quarantine lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreState {
    /// In service, no recent cause for doubt.
    #[default]
    Healthy,
    /// In service, but accumulating evidence; watched closely.
    Suspect,
    /// Out of service; work is remapped around it.
    Quarantined,
    /// Out of service, passing probes; must pass [`PROBATION_PROBES`]
    /// consecutively to be reinstated.
    Probation,
}

impl CoreState {
    /// Whether a core in this state receives production work.
    pub fn in_service(self) -> bool {
        matches!(self, CoreState::Healthy | CoreState::Suspect)
    }
}

/// One state transition, recorded for the deterministic event trace.
///
/// Scores are carried in integer milli-units so traces compare with `==`
/// across reruns — no float-tolerance ambiguity in the replay contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// Probe cycle at which the transition fired.
    pub cycle: u64,
    /// Core that transitioned.
    pub core: u32,
    /// State before the transition.
    pub from: CoreState,
    /// State after the transition.
    pub to: CoreState,
    /// Health score after the transition, in milli-units (0..=1000).
    pub score_milli: u32,
}

/// Tracks one core's score, state, and hysteresis counters.
#[derive(Debug, Clone)]
pub struct CoreTracker {
    core: u32,
    score: HealthScore,
    state: CoreState,
    fail_streak: u32,
    quarantine_cycles: u32,
    probation_passes: u32,
}

impl CoreTracker {
    /// A fresh, healthy tracker for core `core`.
    pub fn new(core: u32) -> Self {
        Self {
            core,
            score: HealthScore::new(),
            state: CoreState::Healthy,
            fail_streak: 0,
            quarantine_cycles: 0,
            probation_passes: 0,
        }
    }

    /// The core index this tracker watches.
    pub(crate) fn core(&self) -> u32 {
        self.core
    }

    /// The current state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// The current health score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score.value()
    }

    /// Folds in-band evidence (ABFT repairs, guard trips, ECC, CRC) into
    /// the score. Evidence alone never *enters* quarantine — that
    /// decision is made at probe time, where the state machine can pair
    /// the score with a definitive known-answer result — but it drags the
    /// score down so the next probe cycle sees it.
    pub fn note_evidence(&mut self, ev: Evidence, n: u64) {
        self.score.apply(ev, n);
    }

    /// Feeds one probe outcome through the state machine. Returns the
    /// transition if the state changed.
    pub fn observe_probe(&mut self, cycle: u64, passed: bool) -> Option<HealthEvent> {
        if passed {
            self.fail_streak = 0;
            self.score.recover(RECOVERY);
        } else {
            self.fail_streak += 1;
            self.score.apply(Evidence::ProbeFail, 1);
        }
        let from = self.state;
        let to = match self.state {
            CoreState::Healthy | CoreState::Suspect => {
                if self.fail_streak >= FAIL_STREAK
                    || self.score.value() < QUARANTINE_ENTER
                {
                    CoreState::Quarantined
                } else if self.score.value() < SUSPECT_ENTER {
                    CoreState::Suspect
                } else if from == CoreState::Suspect && self.score.value() >= RESUME_SCORE {
                    CoreState::Healthy
                } else {
                    from
                }
            }
            CoreState::Quarantined => {
                self.quarantine_cycles += 1;
                if !passed {
                    // A failing quarantined core restarts its cooldown:
                    // probation only begins after a clean stretch.
                    self.quarantine_cycles = 0;
                    CoreState::Quarantined
                } else if self.quarantine_cycles >= MIN_QUARANTINE_PROBES {
                    CoreState::Probation
                } else {
                    CoreState::Quarantined
                }
            }
            CoreState::Probation => {
                if !passed {
                    CoreState::Quarantined
                } else {
                    self.probation_passes += 1;
                    if self.probation_passes >= PROBATION_PROBES {
                        CoreState::Healthy
                    } else {
                        CoreState::Probation
                    }
                }
            }
        };
        if to == from {
            return None;
        }
        match to {
            CoreState::Quarantined => {
                self.quarantine_cycles = 0;
                self.probation_passes = 0;
            }
            CoreState::Probation => self.probation_passes = 0,
            CoreState::Healthy if from == CoreState::Probation => {
                // Reinstated: lift the score into the hysteresis-safe
                // band so one routine SEC event cannot re-demote it.
                self.score.raise_to(RESUME_SCORE);
                self.fail_streak = 0;
            }
            _ => {}
        }
        self.state = to;
        Some(HealthEvent {
            cycle,
            core: self.core,
            from,
            to,
            score_milli: self.score.milli(),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fail_streak_quarantines_and_probation_reinstates() {
        let mut t = CoreTracker::new(3);
        let mut cycle = 0u64;
        // Two consecutive failures hit the streak threshold.
        assert!(t.observe_probe(cycle, false).is_none() || t.state() == CoreState::Suspect);
        cycle += 1;
        let ev = t.observe_probe(cycle, false).expect("transition");
        assert_eq!(ev.to, CoreState::Quarantined);
        // Cooldown: MIN_QUARANTINE_PROBES clean cycles before probation.
        let mut state = t.state();
        for _ in 0..MIN_QUARANTINE_PROBES {
            cycle += 1;
            if let Some(e) = t.observe_probe(cycle, true) {
                state = e.to;
            }
        }
        assert_eq!(state, CoreState::Probation);
        // Probation: N consecutive passes reinstate.
        for _ in 0..PROBATION_PROBES {
            cycle += 1;
            if let Some(e) = t.observe_probe(cycle, true) {
                state = e.to;
            }
        }
        assert_eq!(state, CoreState::Healthy);
        assert!(t.score() >= RESUME_SCORE);
    }

    #[test]
    fn probation_failure_restarts_cooldown() {
        let mut t = CoreTracker::new(0);
        let mut cycle = 0;
        for _ in 0..FAIL_STREAK {
            t.observe_probe(cycle, false);
            cycle += 1;
        }
        for _ in 0..MIN_QUARANTINE_PROBES {
            t.observe_probe(cycle, true);
            cycle += 1;
        }
        assert_eq!(t.state(), CoreState::Probation);
        let ev = t.observe_probe(cycle, false).expect("demote");
        assert_eq!(ev.to, CoreState::Quarantined);
        cycle += 1;
        // One clean cycle is not enough to re-enter probation.
        assert!(t.observe_probe(cycle, true).is_none());
        assert_eq!(t.state(), CoreState::Quarantined);
    }

    #[test]
    fn evidence_alone_marks_suspect_only_at_probe_time() {
        let mut t = CoreTracker::new(1);
        t.note_evidence(Evidence::EccDed, 3);
        assert_eq!(t.state(), CoreState::Healthy, "evidence defers to probes");
        let ev = t.observe_probe(0, true).expect("suspect");
        assert_eq!(ev.to, CoreState::Suspect);
        // Clean probes climb back above RESUME_SCORE eventually.
        let mut last = CoreState::Suspect;
        for cycle in 1..=60 {
            if let Some(e) = t.observe_probe(cycle, true) {
                last = e.to;
            }
        }
        assert_eq!(last, CoreState::Healthy);
    }
}
