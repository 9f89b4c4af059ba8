//! Streaming SLO monitoring with multi-window burn-rate rules.
//!
//! An SLO says "at most `objective` of events may be bad" (miss a
//! deadline, get shed). The *burn rate* over a window is the observed
//! bad fraction divided by the objective: burn 1.0 consumes the error
//! budget exactly at the allowed pace, burn 10.0 consumes it ten times
//! too fast. Following the classic multi-window rule, an alert fires
//! only when **both** a fast window (catches the spike quickly) and a
//! slow window (confirms it is sustained, not a blip) exceed their
//! thresholds — this keeps time-to-detect low without paging on noise.
//!
//! Everything runs on the caller's virtual clock (microseconds in the
//! serving engine): feed [`SloMonitor::observe`] one terminal event at a
//! time with a nondecreasing timestamp and it evaluates the rule
//! streaming, in O(fast-window events) per observation, with no wall
//! clock anywhere — the same seed always produces the same alerts at
//! the same virtual times.

/// One burn-rate rule: objective, window pair, and firing thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Allowed bad-event fraction (the error budget), e.g. `0.01`.
    pub objective: f64,
    /// Fast window length (virtual µs) — catches spikes.
    pub fast_window_us: u64,
    /// Slow window length (virtual µs) — confirms the burn is sustained.
    pub slow_window_us: u64,
    /// Fast-window burn-rate threshold.
    pub fast_burn: f64,
    /// Slow-window burn-rate threshold.
    pub slow_burn: f64,
    /// Minimum events in the fast window before the rule may fire
    /// (suppresses startup noise when one bad event is a huge fraction).
    pub min_events: u64,
}

impl SloConfig {
    /// Deadline-violation rule: 2% budget, 10 ms / 50 ms windows, fires
    /// at 8× fast and 4× slow burn (≥16% bad sustained).
    pub fn deadline_default() -> Self {
        Self {
            objective: 0.02,
            fast_window_us: 10_000,
            slow_window_us: 50_000,
            fast_burn: 8.0,
            slow_burn: 4.0,
            min_events: 32,
        }
    }

    /// Quarantine rule: one event per core per probe cycle, bad while the
    /// core is out of service. 5% budget over probe-cycle-scale windows
    /// (25 / 125 cycles at the 500 µs default period); fires at 4× fast
    /// and 2× slow burn — i.e. ≥10–20% of core-cycles quarantined,
    /// sustained — which a single mercurial core on a 4-core chip (25%)
    /// trips promptly while transient Suspect dips do not.
    pub fn quarantine_default() -> Self {
        Self {
            objective: 0.05,
            fast_window_us: 12_500,
            slow_window_us: 62_500,
            fast_burn: 4.0,
            slow_burn: 2.0,
            min_events: 16,
        }
    }

    /// Shed-rate rule: 5% budget, same windows, fires at 8× fast and 4×
    /// slow burn (≥40% of traffic rejected or shed, sustained).
    pub fn shed_default() -> Self {
        Self {
            objective: 0.05,
            fast_window_us: 10_000,
            slow_window_us: 50_000,
            fast_burn: 8.0,
            slow_burn: 4.0,
            min_events: 32,
        }
    }
}

/// One firing of a burn-rate rule (recorded on the inactive→active
/// transition; the rule re-arms after the fast burn halves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnAlert {
    /// Virtual time the rule fired.
    pub at_us: u64,
    /// Fast-window burn rate at firing time.
    pub fast_burn: f64,
    /// Slow-window burn rate at firing time.
    pub slow_burn: f64,
}

/// A streaming multi-window burn-rate monitor for one SLO rule.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    name: &'static str,
    cfg: SloConfig,
    /// (timestamp, bad) events inside the slow window, oldest first.
    events: std::collections::VecDeque<(u64, bool)>,
    slow_bad: u64,
    alerts: Vec<BurnAlert>,
    active: bool,
    observed: u64,
    bad: u64,
}

impl SloMonitor {
    /// A monitor for one named rule.
    pub fn new(name: &'static str, cfg: SloConfig) -> Self {
        Self {
            name,
            cfg,
            events: std::collections::VecDeque::new(),
            slow_bad: 0,
            alerts: Vec::new(),
            active: false,
            observed: 0,
            bad: 0,
        }
    }

    /// The rule's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Alerts fired so far.
    pub fn alerts(&self) -> &[BurnAlert] {
        &self.alerts
    }

    /// Feeds one terminal event at virtual time `now_us` and evaluates
    /// the rule. Timestamps must be nondecreasing (the engine's clock
    /// is); a late event is treated as arriving now.
    pub fn observe(&mut self, now_us: u64, is_bad: bool) {
        self.observed += 1;
        if is_bad {
            self.bad += 1;
            self.slow_bad += 1;
        }
        self.events.push_back((now_us, is_bad));
        let slow_cut = now_us.saturating_sub(self.cfg.slow_window_us);
        while let Some(&(t, bad)) = self.events.front() {
            if t >= slow_cut {
                break;
            }
            if bad {
                self.slow_bad -= 1;
            }
            self.events.pop_front();
        }

        let slow_total = self.events.len() as u64;
        let fast_cut = now_us.saturating_sub(self.cfg.fast_window_us);
        let mut fast_total = 0u64;
        let mut fast_bad = 0u64;
        for &(t, bad) in self.events.iter().rev() {
            if t < fast_cut {
                break;
            }
            fast_total += 1;
            fast_bad += u64::from(bad);
        }

        let burn = |bad: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / self.cfg.objective
            }
        };
        let fast = burn(fast_bad, fast_total);
        let slow = burn(self.slow_bad, slow_total);

        if !self.active {
            if fast_total >= self.cfg.min_events
                && fast >= self.cfg.fast_burn
                && slow >= self.cfg.slow_burn
            {
                self.active = true;
                self.alerts.push(BurnAlert { at_us: now_us, fast_burn: fast, slow_burn: slow });
            }
        } else if fast < self.cfg.fast_burn / 2.0 {
            // Hysteresis: re-arm only after the fast burn halves, so a
            // sustained burn is one alert, not one per event.
            self.active = false;
        }
    }

    /// Freezes the monitor into a report row.
    pub fn report(&self) -> SloRuleReport {
        SloRuleReport {
            name: self.name,
            config: self.cfg,
            alerts: self.alerts.clone(),
            observed: self.observed,
            bad: self.bad,
        }
    }
}

/// The outcome of one rule over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRuleReport {
    /// Rule name (`"deadline"`, `"shed"`).
    pub name: &'static str,
    /// The rule that produced this report.
    pub config: SloConfig,
    /// Every firing, in virtual-time order.
    pub alerts: Vec<BurnAlert>,
    /// Total events the rule saw.
    pub observed: u64,
    /// Total bad events.
    pub bad: u64,
}

/// All rules' outcomes for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// One row per rule.
    pub rules: Vec<SloRuleReport>,
}

impl SloReport {
    /// Total alerts across every rule.
    pub fn total_alerts(&self) -> usize {
        self.rules.iter().map(|r| r.alerts.len()).sum()
    }

    /// The named rule's report, when present.
    pub fn rule(&self, name: &str) -> Option<&SloRuleReport> {
        self.rules.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tight() -> SloConfig {
        SloConfig {
            objective: 0.01,
            fast_window_us: 1_000,
            slow_window_us: 5_000,
            fast_burn: 8.0,
            slow_burn: 4.0,
            min_events: 10,
        }
    }

    #[test]
    fn healthy_stream_never_fires() {
        let mut m = SloMonitor::new("deadline", tight());
        for i in 0..10_000u64 {
            // 0.5% bad — half the objective.
            m.observe(i, i % 200 == 199);
        }
        assert!(m.alerts().is_empty());
        assert_eq!((m.observed, m.bad), (10_000, 50));
    }

    #[test]
    fn sustained_burn_fires_once_and_rearms_after_recovery() {
        let mut m = SloMonitor::new("deadline", tight());
        for i in 0..2_000u64 {
            m.observe(i, false);
        }
        // 50% bad: burn 50× objective — far past 8×/4×.
        for i in 2_000..4_000u64 {
            m.observe(i, i % 2 == 0);
        }
        assert_eq!(m.alerts().len(), 1, "sustained burn must fire exactly once");
        let alert = m.alerts()[0];
        assert!(alert.fast_burn >= 8.0 && alert.slow_burn >= 4.0);
        // Recover fully, then burn again: a second alert.
        for i in 4_000..12_000u64 {
            m.observe(i, false);
        }
        for i in 12_000..14_000u64 {
            m.observe(i, i % 2 == 0);
        }
        assert_eq!(m.alerts().len(), 2);
        assert!(m.alerts()[1].at_us > alert.at_us);
    }

    #[test]
    fn short_spike_does_not_fire_multiwindow_rule() {
        let mut m = SloMonitor::new("deadline", tight());
        for i in 0..5_000u64 {
            m.observe(i, false);
        }
        // 100% bad, but only for 200 µs — the slow window stays calm
        // (200/5200 ≈ 3.8% bad → slow burn ≈ 3.8 < 4.0).
        for i in 5_000..5_200u64 {
            m.observe(i, true);
        }
        for i in 5_200..10_000u64 {
            m.observe(i, false);
        }
        assert!(m.alerts().is_empty(), "blip must not page: {:?}", m.alerts());
    }

    #[test]
    fn min_events_suppresses_startup_noise() {
        let mut m = SloMonitor::new("deadline", tight());
        // First events are all bad, but fewer than min_events.
        for i in 0..5u64 {
            m.observe(i, true);
        }
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn alerts_are_deterministic() {
        let run = || {
            let mut m = SloMonitor::new("shed", tight());
            for i in 0..20_000u64 {
                m.observe(i, (i / 3_000) % 2 == 1 && i % 3 != 0);
            }
            m.alerts().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
