//! End-to-end core-health suite: the mercurial-core quarantine stories of
//! DESIGN.md §13 exercised together through the `rapid` facade.
//!
//! - **No flapping at the hysteresis boundary.** Under *any* random
//!   sequence of probe outcomes, a core's service status changes at a
//!   bounded rate: every return to service costs at least
//!   `min_quarantine_probes + probation_probes` consecutive passes, so
//!   the number of reinstatements is bounded by the run length divided by
//!   that cost — never one-per-outcome oscillation.
//! - **Health off = bit-identical.** A chip GEMM consulting an
//!   all-healthy `CoreMap` produces byte-for-byte the result of the
//!   pre-health code path, and a disabled fault plan stays bit-invisible
//!   to probes.
//! - **Same seed, same trace.** Replaying the monitor against
//!   identically-seeded fault plans reproduces the full quarantine event
//!   trace with `==`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::arch::geometry::CoreConfig;
use rapid::arch::precision::Precision;
use rapid::fault::{FaultConfig, FaultPlan};
use rapid::health::{
    ChipHealthMonitor, CoreMap, CoreState, CoreTracker, Evidence, HealthConfig,
};
use rapid::numerics::Tensor;
use rapid::sim::{try_run_chip_gemm, try_run_chip_gemm_with, ChipGemmJob, ChipSimResult, SimError};

/// Runs a chip GEMM on the cores `map` keeps in service.
fn run_mapped(job: &ChipGemmJob, map: &CoreMap) -> Result<ChipSimResult, SimError> {
    let (cores, mask) = (map.cores() as usize, map.failed_mask());
    try_run_chip_gemm_with(job, CoreConfig::default(), cores, mask, None, None)
}

fn burst_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed,
        mac_burst_rate: rate,
        mac_burst_len: 128,
        mac_burst_flip_rate: 0.5,
        ..FaultConfig::default()
    })
}

fn chip_plans(cores: u32, bad: &[u32], seed: u64) -> Vec<FaultPlan> {
    (0..cores)
        .map(|c| {
            if bad.contains(&c) {
                burst_plan(seed + u64::from(c), 5e-3)
            } else {
                FaultPlan::new(FaultConfig { seed: seed + u64::from(c), ..FaultConfig::default() })
            }
        })
        .collect()
}

/// A mercurial core is quarantined within a bounded probe budget and the
/// rest of the chip keeps serving; the detection-latency histogram and
/// quarantine SLO both see it.
#[test]
fn mercurial_core_is_detected_within_budget_end_to_end() {
    let cfg = HealthConfig::default();
    let mut mon = ChipHealthMonitor::new(4, cfg);
    let mut plans = chip_plans(4, &[1], 7_700);
    let budget = 32u64;
    let mut detected = None;
    for _ in 0..budget {
        let rep = mon.probe_cycle(&mut plans, None);
        if detected.is_none() && !mon.map().in_service(1) {
            detected = Some(rep.cycle);
        }
    }
    let at = detected.expect("mercurial core must be quarantined within the budget");
    assert!(at < budget);
    assert_eq!(mon.map().active(), 3);
    assert!(!mon.detect_latencies_us().is_empty());
    // The chip GEMM consulted per batch now remaps around the bad core
    // and still produces the healthy chip's exact values.
    let job = ChipGemmJob {
        a: Tensor::random_uniform(vec![8, 64], -1.0, 1.0, 70),
        b: Tensor::random_uniform(vec![64, 32], -1.0, 1.0, 71),
        precision: Precision::Fp16,
    };
    let healthy = try_run_chip_gemm(&job, CoreConfig::default(), 4).unwrap();
    let mapped = run_mapped(&job, mon.map()).unwrap();
    assert_eq!(mapped.c, healthy.c, "quarantine remap must not change values");
    assert_eq!(mapped.cores.len(), 3);
}

/// An all-healthy map runs the chip GEMM byte-for-byte like the plain
/// path — health disabled is bit-invisible end to end.
#[test]
fn health_disabled_is_bit_identical_to_pre_health_path() {
    let job = ChipGemmJob {
        a: Tensor::random_uniform(vec![16, 128], -1.0, 1.0, 80),
        b: Tensor::random_uniform(vec![128, 64], -1.0, 1.0, 81),
        precision: Precision::Fp16,
    };
    let plain = try_run_chip_gemm(&job, CoreConfig::default(), 4).unwrap();
    let mapped = run_mapped(&job, &CoreMap::new(4)).unwrap();
    assert_eq!(mapped.c, plain.c);
    assert_eq!(mapped.compute_cycles, plain.compute_cycles);
    assert_eq!(mapped.distribution_cycles, plain.distribution_cycles);
    // A monitor over clean cores never perturbs the map.
    let mut mon = ChipHealthMonitor::new(4, HealthConfig::default());
    let mut plans = chip_plans(4, &[], 4_242);
    for _ in 0..20 {
        mon.probe_cycle(&mut plans, None);
    }
    assert_eq!(mon.map().epoch(), 0, "clean chip must see zero map churn");
    assert!(mon.events().is_empty());
}

/// The chip GEMM follows a live map between batches: quarantine remaps
/// work exactly like the static failed-core mask, reinstatement restores
/// full strength on the next call, and an empty map is an error.
#[test]
fn mapped_chip_follows_quarantine_and_reinstatement() {
    let j = ChipGemmJob {
        a: Tensor::random_uniform(vec![8, 128], -1.0, 1.0, 90),
        b: Tensor::random_uniform(vec![128, 256], -1.0, 1.0, 91),
        precision: Precision::Fp16,
    };
    let healthy = try_run_chip_gemm(&j, CoreConfig::default(), 4).unwrap();
    let mut map = CoreMap::new(4);
    // Full-strength map is identical to the plain path.
    let r = run_mapped(&j, &map).unwrap();
    assert_eq!(r.c, healthy.c);
    assert_eq!(r.cores.len(), 4);
    // Quarantining core 2 matches the static-degraded result exactly.
    map.exclude(2);
    let q = run_mapped(&j, &map).unwrap();
    let s = try_run_chip_gemm_with(&j, CoreConfig::default(), 4, 0b0100, None, None).unwrap();
    assert_eq!(q.c, healthy.c, "remap must not change values");
    assert_eq!(q.compute_cycles, s.compute_cycles);
    assert_eq!(q.cores.len(), 3);
    // Reinstatement restores full strength on the next batch.
    map.restore(2);
    let back = run_mapped(&j, &map).unwrap();
    assert_eq!(back.compute_cycles, healthy.compute_cycles);
    // An empty map is a configuration error, not a panic.
    for c in 0..4 {
        map.exclude(c);
    }
    assert!(matches!(run_mapped(&j, &map), Err(SimError::InvalidConfig(_))));
}

proptest! {
    /// No flapping: under arbitrary probe outcomes, each reinstatement
    /// requires `min_quarantine_probes + probation_probes` consecutive
    /// passes, so service transitions are bounded well below the
    /// outcome count — the hysteresis band cannot oscillate per probe.
    #[test]
    fn quarantine_state_machine_never_flaps(
        outcomes in proptest::collection::vec(0u8..2, 50..300),
    ) {
        let cfg = HealthConfig::default();
        let mut t = CoreTracker::new(0);
        let mut service_flips = 0u32;
        let mut was_in_service = true;
        for (cycle, &bit) in outcomes.iter().enumerate() {
            let pass = bit == 1;
            t.observe_probe(cycle as u64, pass, &cfg);
            let now = t.state().in_service();
            if now != was_in_service {
                service_flips += 1;
                was_in_service = now;
            }
        }
        // A demote+reinstate round-trip costs ≥ 2 + cooldown + probation
        // outcomes, so flips are bounded by the run length over that.
        let round_trip = 2 + cfg.min_quarantine_probes + cfg.probation_probes;
        let bound = 2 * (outcomes.len() as u32 / round_trip + 1);
        prop_assert!(
            service_flips <= bound,
            "{} service flips exceeds hysteresis bound {}",
            service_flips,
            bound
        );
    }

    /// Same seed ⇒ identical quarantine event traces, for any burst
    /// intensity and any subset of bad cores.
    #[test]
    fn same_seed_runs_produce_identical_event_traces(
        seed in 0u64..1_000_000,
        bad_mask in 0u32..15,
        cycles in 10u64..60,
    ) {
        let bad: Vec<u32> = (0..4).filter(|c| bad_mask & (1 << c) != 0).collect();
        let run = || {
            let mut mon = ChipHealthMonitor::new(4, HealthConfig::default());
            let mut plans = chip_plans(4, &bad, seed);
            for _ in 0..cycles {
                mon.probe_cycle(&mut plans, None);
            }
            mon.events().to_vec()
        };
        prop_assert_eq!(run(), run());
    }

    /// A disabled fault plan is bit-invisible to probes: every probe
    /// passes and the monitor's map never changes, whatever the seed.
    #[test]
    fn disabled_plans_never_fail_probes(seed in 0u64..u64::MAX) {
        let mut mon = ChipHealthMonitor::new(2, HealthConfig::default());
        let mut plans = vec![
            FaultPlan::new(FaultConfig { seed, ..FaultConfig::default() }),
            FaultPlan::new(FaultConfig { seed: seed ^ 0xABCD, ..FaultConfig::default() }),
        ];
        for _ in 0..5 {
            let rep = mon.probe_cycle(&mut plans, None);
            prop_assert_eq!(rep.failures, 0);
        }
        prop_assert_eq!(mon.map().epoch(), 0);
    }

    /// In-band evidence lowers scores monotonically with count and never
    /// lifts a core out of service by itself.
    #[test]
    fn evidence_is_monotone_and_never_promotes(
        n_ded in 0u64..6,
        n_sec in 0u64..50,
        n_abft in 0u64..8,
    ) {
        let mut a = CoreTracker::new(0);
        let mut b = CoreTracker::new(1);
        a.note_evidence(Evidence::EccDed, n_ded);
        a.note_evidence(Evidence::EccSec, n_sec);
        a.note_evidence(Evidence::AbftCorrection, n_abft);
        b.note_evidence(Evidence::EccDed, n_ded + 1);
        b.note_evidence(Evidence::EccSec, n_sec);
        b.note_evidence(Evidence::AbftCorrection, n_abft);
        prop_assert!(b.score() <= a.score());
        prop_assert_eq!(a.state(), CoreState::Healthy, "evidence defers to probes");
    }
}
