//! Per-model circuit breaker.
//!
//! Opens after a run of consecutive execution failures (numerics errors
//! or injected transients), rejects new work while open, then half-opens
//! after a cooldown and lets a single probe batch through. A successful
//! probe closes the breaker; a failed probe re-opens it and restarts the
//! cooldown. The state machine is deterministic in the engine clock.

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub open_after: u32,
    /// Microseconds the breaker stays open before half-opening.
    pub cooldown_us: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { open_after: 4, cooldown_us: 50_000 }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Rejecting all work until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe may be in flight.
    HalfOpen,
}

/// Dispatch decision from the breaker's admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Breaker closed — dispatch normally.
    Allow,
    /// Breaker half-open — dispatch this batch as the single probe.
    Probe,
    /// Breaker open (or probe already in flight) — do not dispatch.
    Reject,
}

/// One breaker instance; the engine keeps one per model.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_us: u64,
    probe_in_flight: bool,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_us: 0,
            probe_in_flight: false,
        }
    }

    /// Current state, advancing Open → HalfOpen if the cooldown elapsed.
    pub(crate) fn state(&mut self, now_us: u64) -> BreakerState {
        if self.state == BreakerState::Open
            && now_us >= self.opened_at_us.saturating_add(self.cfg.cooldown_us)
        {
            self.state = BreakerState::HalfOpen;
            self.probe_in_flight = false;
        }
        self.state
    }

    /// Whether submissions should be refused outright right now.
    pub(crate) fn rejects_submissions(&mut self, now_us: u64) -> bool {
        self.state(now_us) == BreakerState::Open
    }

    /// Dispatch-time gate. `Probe` marks the caller's batch as the single
    /// half-open probe; the caller must report its result via
    /// [`Self::on_success`] / [`Self::on_failure`].
    pub(crate) fn admit(&mut self, now_us: u64) -> Admit {
        match self.state(now_us) {
            BreakerState::Closed => Admit::Allow,
            BreakerState::Open => Admit::Reject,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    Admit::Reject
                } else {
                    self.probe_in_flight = true;
                    Admit::Probe
                }
            }
        }
    }

    /// Reports a successful batch. Returns true when this closed a
    /// half-open breaker (the caller counts it as a `breaker.closes`).
    pub(crate) fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.probe_in_flight = false;
            true
        } else {
            false
        }
    }

    /// Reports a failed batch attempt. Returns true when this transition
    /// opened the breaker (the caller counts it as a `breaker.opens`).
    pub(crate) fn on_failure(&mut self, now_us: u64) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // Probe failed: straight back to Open, restart cooldown.
                self.state = BreakerState::Open;
                self.opened_at_us = now_us;
                self.probe_in_flight = false;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.open_after {
                    self.state = BreakerState::Open;
                    self.opened_at_us = now_us;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig { open_after: 3, cooldown_us: 1_000 })
    }

    #[test]
    fn opens_after_consecutive_failures_only() {
        let mut b = breaker();
        assert!(!b.on_failure(0));
        assert!(!b.on_failure(1));
        b.on_success(); // resets the run
        assert!(!b.on_failure(2));
        assert!(!b.on_failure(3));
        assert!(b.on_failure(4)); // third consecutive → opens
        assert_eq!(b.state(5), BreakerState::Open);
        assert_eq!(b.admit(5), Admit::Reject);
        assert!(b.rejects_submissions(5));
    }

    #[test]
    fn half_open_probe_cycle_closes_on_success() {
        let mut b = breaker();
        for t in 0..3 {
            b.on_failure(t);
        }
        assert_eq!(b.admit(500), Admit::Reject); // still cooling down
        assert_eq!(b.admit(1_002), Admit::Probe); // cooldown elapsed
        assert_eq!(b.admit(1_003), Admit::Reject); // one probe at a time
        assert!(b.on_success());
        assert_eq!(b.state(1_004), BreakerState::Closed);
        assert_eq!(b.admit(1_005), Admit::Allow);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = breaker();
        for t in 0..3 {
            b.on_failure(t);
        }
        assert_eq!(b.admit(1_500), Admit::Probe);
        assert!(b.on_failure(1_500)); // probe failed → re-open counts
        assert_eq!(b.admit(2_000), Admit::Reject); // new cooldown from 1500
        assert_eq!(b.admit(2_600), Admit::Probe);
        assert!(b.on_success());
    }
}
