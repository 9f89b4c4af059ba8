//! [`ChipHealthMonitor`]: one probe cycle end to end.
//!
//! A cycle probes every core of one chip (each core's kernels routed
//! through that core's own fault stream), feeds the outcomes through the
//! per-core quarantine machines, synchronizes the dynamic [`CoreMap`],
//! observes the quarantine SLO burn-rate rule, and — when telemetry is
//! attached — emits `health.*` counters plus a `probe_cycle` span with
//! `probe` and `remap` child stages on the virtual-time axis.
//!
//! Determinism contract: given the same per-core fault
//! plans, and the same cycle sequence, the full [`HealthEvent`] trace is
//! identical (`==`) across reruns — the replay assertion `health_sweep`
//! enforces per seed.

use rapid_fault::FaultPlan;
use rapid_telemetry::{health as names, derive_trace_id, SloConfig, SloMonitor, Telemetry};

use crate::map::CoreMap;
use crate::probe::{ProbeOutcome, ProbeSuite, PROBE_SEED};
use crate::quarantine::{CoreState, CoreTracker, HealthEvent};
use crate::score::Evidence;

/// Virtual microseconds one probe cycle occupies (the time base for the
/// quarantine SLO rule and probe spans).
pub const PROBE_PERIOD_US: u64 = 500;

/// What one probe cycle found, for the caller's control flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeCycleReport {
    /// The cycle index just executed.
    pub cycle: u64,
    /// Probes run this cycle (cores × formats).
    pub probes: u32,
    /// Probes that failed this cycle.
    pub failures: u32,
    /// State transitions this cycle, in core order.
    pub events: Vec<HealthEvent>,
    /// Cores in service after the cycle.
    pub active: u32,
    /// Map epoch after the cycle (changed ⇒ consumers must re-derive).
    pub epoch: u64,
}

/// Online health monitor for one chip's cores.
pub struct ChipHealthMonitor {
    suite: ProbeSuite,
    trackers: Vec<CoreTracker>,
    map: CoreMap,
    slo: SloMonitor,
    cycle: u64,
    events: Vec<HealthEvent>,
    first_fail: Vec<Option<u64>>,
    detect_latencies_us: Vec<u64>,
    probes_run: u64,
    probe_failures: u64,
    quarantines: u64,
    reinstatements: u64,
    suspects: u64,
    evidence: [u64; Evidence::ALL.len()],
}

impl ChipHealthMonitor {
    /// A monitor over `cores` cores.
    pub fn new(cores: u32) -> Self {
        Self {
            suite: ProbeSuite::new(),
            trackers: (0..cores).map(CoreTracker::new).collect(),
            map: CoreMap::new(cores),
            slo: SloMonitor::new("quarantine", SloConfig::quarantine_default()),
            cycle: 0,
            events: Vec::new(),
            first_fail: vec![None; cores as usize],
            detect_latencies_us: Vec::new(),
            probes_run: 0,
            probe_failures: 0,
            quarantines: 0,
            reinstatements: 0,
            suspects: 0,
            evidence: [0; Evidence::ALL.len()],
        }
    }

    /// The live exclusion map consumers read between batches.
    pub fn map(&self) -> &CoreMap {
        &self.map
    }

    /// Every state transition so far, in (cycle, core) order — the
    /// deterministic replay trace.
    pub fn events(&self) -> &[HealthEvent] {
        self.events.as_slice()
    }

    /// Mean health score across all cores, in `[0, 1]`.
    pub fn chip_health(&self) -> f64 {
        if self.trackers.is_empty() {
            return 1.0;
        }
        self.trackers.iter().map(CoreTracker::score).sum::<f64>() / self.trackers.len() as f64
    }

    /// Detection latencies (first failed probe → quarantine entry), µs.
    pub fn detect_latencies_us(&self) -> &[u64] {
        self.detect_latencies_us.as_slice()
    }

    /// Folds an in-band signal (ABFT repair, guard trip, ECC, CRC)
    /// attributed to `core` into its score. Cheap; callable per batch.
    pub fn note_evidence(&mut self, core: u32, ev: Evidence, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(t) = self.trackers.get_mut(core as usize) {
            t.note_evidence(ev, n);
            if let Some(slot) = Evidence::ALL.iter().position(|&e| e == ev) {
                self.evidence[slot] += n;
            }
        }
    }

    /// Runs one probe cycle. `faults[i]` is core `i`'s fault stream
    /// (`faults.len()` must equal the core count); pass the plans the
    /// production GEMMs use so probes sample the same defect process.
    ///
    /// # Panics
    ///
    /// Panics if `faults.len()` differs from the monitored core count.
    pub fn probe_cycle(
        &mut self,
        faults: &mut [FaultPlan],
        tele: Option<&mut Telemetry>,
    ) -> ProbeCycleReport {
        assert_eq!(
            faults.len(),
            self.trackers.len(),
            "one fault plan per monitored core"
        );
        let cycle = self.cycle;
        self.cycle += 1;
        let start_us = cycle * PROBE_PERIOD_US;
        let end_us = start_us + PROBE_PERIOD_US;
        // The cycle splits into a probe stage (kernel time) and a remap
        // stage (state machine + map sync) on the virtual-time axis.
        let remap_us = start_us + (PROBE_PERIOD_US * 9) / 10;

        let mut failures = 0u32;
        let mut probes = 0u32;
        let mut cycle_events = Vec::new();
        for (i, plan) in faults.iter_mut().enumerate() {
            let outcomes: Vec<ProbeOutcome> = self.suite.run(Some(plan));
            probes += outcomes.len() as u32;
            let failed = outcomes.iter().filter(|o| !o.passed).count() as u32;
            failures += failed;
            if failed > 0 && self.first_fail[i].is_none() {
                self.first_fail[i] = Some(cycle);
            }
            let tracker = &mut self.trackers[i];
            if let Some(ev) = tracker.observe_probe(cycle, failed == 0) {
                match ev.to {
                    CoreState::Quarantined if ev.from.in_service() => {
                        self.quarantines += 1;
                        let first = self.first_fail[i].take().unwrap_or(cycle);
                        let latency = (cycle - first + 1) * PROBE_PERIOD_US;
                        self.detect_latencies_us.push(latency);
                    }
                    CoreState::Suspect => self.suspects += 1,
                    CoreState::Healthy if ev.from == CoreState::Probation => {
                        self.reinstatements += 1;
                        self.first_fail[i] = None;
                    }
                    _ => {}
                }
                cycle_events.push(ev);
            }
        }
        self.probes_run += u64::from(probes);
        self.probe_failures += u64::from(failures);

        // Remap stage: synchronize the exclusion map with tracker states
        // and feed the SLO rule one event per core.
        for t in &self.trackers {
            if t.state().in_service() {
                self.map.restore(t.core());
            } else {
                self.map.exclude(t.core());
            }
            self.slo.observe(end_us, !t.state().in_service());
        }
        self.events.extend_from_slice(&cycle_events);

        if let Some(tele) = tele {
            self.record_cycle(tele, probes, failures, start_us, remap_us, end_us, cycle);
        }
        ProbeCycleReport {
            cycle,
            probes,
            failures,
            events: cycle_events,
            active: self.map.active(),
            epoch: self.map.epoch(),
        }
    }

    #[allow(clippy::too_many_arguments)] // internal span bookkeeping
    fn record_cycle(
        &self,
        tele: &mut Telemetry,
        probes: u32,
        failures: u32,
        start_us: u64,
        remap_us: u64,
        end_us: u64,
        cycle: u64,
    ) {
        let reg = &mut tele.registry;
        reg.incr(names::PROBE_CYCLES);
        reg.add(names::PROBE_RUNS, u64::from(probes));
        reg.add(names::PROBE_FAILURES, u64::from(failures));
        reg.set_gauge(names::ACTIVE_CORES, f64::from(self.map.active()));
        reg.set_gauge(names::EXCLUDED_CORES, f64::from(self.map.excluded()));
        reg.set_gauge(names::CHIP_HEALTH_MILLI, (self.chip_health() * 1000.0).round());
        if let Some(sink) = tele.spans.as_mut() {
            let root = sink.open_root(derive_trace_id(PROBE_SEED, cycle));
            sink.child(root, "probe", start_us, remap_us);
            sink.child(root, "remap", remap_us, end_us);
            sink.close_root(root, "probe_cycle", "health", start_us, end_us);
        }
    }

    /// Writes lifetime totals into a registry (call once at end of run;
    /// gauges and the latency histogram land here too).
    pub fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry) {
        reg.add(names::PROBE_CYCLES, 0); // materialize keys even when idle
        reg.counter_max(names::PROBE_CYCLES, self.cycle);
        reg.counter_max(names::PROBE_RUNS, self.probes_run);
        reg.counter_max(names::PROBE_FAILURES, self.probe_failures);
        reg.counter_max(names::QUARANTINES, self.quarantines);
        reg.counter_max(names::REINSTATEMENTS, self.reinstatements);
        reg.counter_max(names::SUSPECTS, self.suspects);
        reg.counter_max(names::SLO_ALERTS, self.slo.alerts().len() as u64);
        reg.set_gauge(names::ACTIVE_CORES, f64::from(self.map.active()));
        reg.set_gauge(names::EXCLUDED_CORES, f64::from(self.map.excluded()));
        reg.set_gauge(names::CHIP_HEALTH_MILLI, (self.chip_health() * 1000.0).round());
        for &lat in &self.detect_latencies_us {
            reg.observe(names::DETECT_LATENCY_US, lat);
        }
        for (slot, ev) in Evidence::ALL.iter().enumerate() {
            if self.evidence[slot] > 0 {
                let key = format!("{}{}", names::EVIDENCE_PREFIX, ev.label());
                reg.counter_max(&key, self.evidence[slot]);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_fault::FaultConfig;
    use rapid_telemetry::HealthCounters;

    fn plans(cores: u32, bad: &[u32]) -> Vec<FaultPlan> {
        (0..cores)
            .map(|c| {
                let mut cfg = FaultConfig { seed: 1000 + u64::from(c), ..FaultConfig::default() };
                if bad.contains(&c) {
                    cfg.mac_burst_rate = 1e-2;
                    cfg.mac_burst_len = 128;
                    cfg.mac_burst_flip_rate = 0.5;
                }
                FaultPlan::new(cfg)
            })
            .collect()
    }

    #[test]
    fn mercurial_core_is_quarantined_and_clean_cores_stay_in_service() {
        let mut mon = ChipHealthMonitor::new(4);
        let mut plans = plans(4, &[2]);
        let mut tele = Telemetry::with_spans();
        let mut detected_at = None;
        for _ in 0..40 {
            let rep = mon.probe_cycle(&mut plans, Some(&mut tele));
            if detected_at.is_none() && !mon.map().in_service(2) {
                detected_at = Some(rep.cycle);
            }
        }
        let at = detected_at.expect("mercurial core detected");
        assert!(at < 20, "detection took too long: cycle {at}");
        assert!(mon.map().in_service(0) && mon.map().in_service(1) && mon.map().in_service(3));
        assert!(!mon.detect_latencies_us().is_empty());
        let mut reg = rapid_telemetry::MetricsRegistry::new();
        mon.record_into(&mut reg);
        let c = HealthCounters::from_registry(&reg);
        assert!(c.quarantines >= 1);
        assert!(c.probe_failures >= 1);
        assert!(c.mean_detect_latency_us > 0.0);
        // Spans were emitted and form a valid forest.
        let spans = tele.spans.expect("span sink");
        assert!(rapid_telemetry::validate_forest(spans.spans()).is_ok());
    }

    #[test]
    fn same_seed_reruns_produce_identical_event_traces() {
        let run = || {
            let mut mon = ChipHealthMonitor::new(4);
            let mut plans = plans(4, &[1, 3]);
            for _ in 0..60 {
                mon.probe_cycle(&mut plans, None);
            }
            mon.events().to_vec()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "replay must be bit-identical");
    }

    #[test]
    fn all_clean_chip_never_transitions() {
        let mut mon = ChipHealthMonitor::new(8);
        let mut plans = plans(8, &[]);
        for _ in 0..30 {
            let rep = mon.probe_cycle(&mut plans, None);
            assert_eq!(rep.failures, 0);
            assert!(rep.events.is_empty());
        }
        assert_eq!(mon.map().active(), 8);
        assert_eq!(mon.map().epoch(), 0);
        assert!((mon.chip_health() - 1.0).abs() < 1e-12);
        assert!(mon.slo.alerts().is_empty());
    }

    #[test]
    fn in_band_evidence_feeds_the_score() {
        let mut mon = ChipHealthMonitor::new(2);
        mon.note_evidence(1, Evidence::EccDed, 2);
        mon.note_evidence(1, Evidence::AbftCorrection, 1);
        assert!(mon.trackers[1].score() < mon.trackers[0].score());
        let mut reg = rapid_telemetry::MetricsRegistry::new();
        mon.record_into(&mut reg);
        assert_eq!(reg.counter("health.evidence.ecc_ded"), 2);
        assert_eq!(reg.counter("health.evidence.abft"), 1);
    }
}
