//! Canonical core-health counters and their snapshot view.
//!
//! The health monitor (`rapid-health`) records probe cycles, quarantine
//! transitions, and evidence tallies under these registry names; benches,
//! the `--health` gate, and `telemetry_report` all read the same keys.

use crate::registry::MetricsRegistry;

/// Probe cycles executed (one cycle probes every core once).
pub const PROBE_CYCLES: &str = "health.probe.cycles";
/// Individual probes run (cycles × cores × formats).
pub const PROBE_RUNS: &str = "health.probe.runs";
/// Probes whose output mismatched the known-answer golden.
pub const PROBE_FAILURES: &str = "health.probe.failures";
/// Cores demoted into quarantine (transitions, not a population).
pub const QUARANTINES: &str = "health.quarantines";
/// Cores reinstated to service after passing probation.
pub const REINSTATEMENTS: &str = "health.reinstatements";
/// Healthy/Suspect → Suspect transitions (early-warning demotions).
pub const SUSPECTS: &str = "health.suspects";
/// Gauge: cores currently in service.
pub const ACTIVE_CORES: &str = "health.active_cores";
/// Gauge: cores currently excluded (quarantined or on probation).
pub const EXCLUDED_CORES: &str = "health.excluded_cores";
/// Gauge: mean health score across all cores, in milli-units.
pub const CHIP_HEALTH_MILLI: &str = "health.chip_health_milli";
/// Histogram: virtual µs from first failed probe to quarantine entry.
pub const DETECT_LATENCY_US: &str = "health.detect_latency_us";
/// Quarantine SLO burn-rate alerts fired.
pub const SLO_ALERTS: &str = "health.slo.quarantine.alerts";
/// Prefix for per-kind evidence tallies (`health.evidence.<kind>`).
pub const EVIDENCE_PREFIX: &str = "health.evidence.";

/// Snapshot of the health counters — a thin view over a
/// [`MetricsRegistry`], mirroring [`crate::serve::ServeCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthCounters {
    /// Probe cycles executed.
    pub probe_cycles: u64,
    /// Individual probes run.
    pub probe_runs: u64,
    /// Probes that failed their known-answer check.
    pub probe_failures: u64,
    /// Quarantine entries.
    pub quarantines: u64,
    /// Probation-passed reinstatements.
    pub reinstatements: u64,
    /// Suspect demotions.
    pub suspects: u64,
    /// Cores in service at snapshot time.
    pub active_cores: f64,
    /// Cores excluded at snapshot time.
    pub excluded_cores: f64,
    /// Mean health score in milli-units at snapshot time.
    pub chip_health_milli: f64,
    /// Mean detection latency (first failed probe → quarantine), µs.
    pub mean_detect_latency_us: f64,
    /// Quarantine SLO alerts fired.
    pub slo_alerts: u64,
}

impl HealthCounters {
    /// Reads the snapshot back from a registry.
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        Self {
            probe_cycles: reg.counter(PROBE_CYCLES),
            probe_runs: reg.counter(PROBE_RUNS),
            probe_failures: reg.counter(PROBE_FAILURES),
            quarantines: reg.counter(QUARANTINES),
            reinstatements: reg.counter(REINSTATEMENTS),
            suspects: reg.counter(SUSPECTS),
            active_cores: reg.gauge(ACTIVE_CORES).unwrap_or(0.0),
            excluded_cores: reg.gauge(EXCLUDED_CORES).unwrap_or(0.0),
            chip_health_milli: reg.gauge(CHIP_HEALTH_MILLI).unwrap_or(0.0),
            mean_detect_latency_us: reg
                .histogram(DETECT_LATENCY_US)
                .map(|h| h.mean())
                .unwrap_or(0.0),
            slo_alerts: reg.counter(SLO_ALERTS),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.add(PROBE_CYCLES, 12);
        reg.add(PROBE_RUNS, 12 * 4 * 4);
        reg.add(PROBE_FAILURES, 3);
        reg.add(QUARANTINES, 1);
        reg.set_gauge(ACTIVE_CORES, 3.0);
        reg.set_gauge(EXCLUDED_CORES, 1.0);
        reg.observe(DETECT_LATENCY_US, 1000);
        reg.observe(DETECT_LATENCY_US, 3000);
        let c = HealthCounters::from_registry(&reg);
        assert_eq!(c.probe_cycles, 12);
        assert_eq!(c.probe_failures, 3);
        assert_eq!(c.quarantines, 1);
        assert!((c.active_cores - 3.0).abs() < 1e-12);
        assert!(c.mean_detect_latency_us >= 1000.0);
        assert_eq!(c.slo_alerts, 0);
    }

    #[test]
    fn empty_registry_reads_clean() {
        let c = HealthCounters::from_registry(&MetricsRegistry::new());
        assert_eq!((c.probe_failures, c.quarantines), (0, 0));
        assert_eq!(c.mean_detect_latency_us, 0.0);
    }
}
