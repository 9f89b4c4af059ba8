//! The HFP8 training backend with fault injection, a datapath
//! [`Protection`] mode and a configurable guard policy — the backend the
//! resilient training loops drive.
//!
//! Under [`Protection::Abft`] every GEMM is checksummed and faulty
//! elements are repaired inside the call, so the guards never see them.
//! Under [`Protection::None`] the guard policy decides: with
//! [`GuardPolicy::Saturate`] every corrupted accumulator is clamped and
//! counted (the run continues, `guard_clamps` reports the damage); with
//! [`GuardPolicy::Error`] the first corruption surfaces as a
//! [`NumericsError`] for the recovery loop to catch — skip the step, back
//! off the loss scale, roll back if it keeps happening.
//!
//! Operand roles map to ports exactly as in the clean
//! [`Hfp8Backend`](rapid_refnet::backend::Hfp8Backend), through the shared
//! [`hfp8_mode`]: every role pair is one GEMM in its own orientation, so
//! the two backends agree bit for bit on a fault-free plan.

use rapid_fault::{FaultConfig, FaultCounts, FaultPlan};
use rapid_numerics::abft::{abft_matmul_emulated, AbftReport};
use rapid_numerics::gemm::{matmul_emulated_with, Exec, GemmStats};
use rapid_numerics::{GuardPolicy, NumericsError, Tensor};
use rapid_refnet::backend::{hfp8_mode, Backend, OperandRole};
use rapid_telemetry::MetricsRegistry;
use std::cell::RefCell;

/// The registry prefix this backend's GEMM statistics accumulate under.
pub const BACKEND_METRIC_PREFIX: &str = "recover.gemm";

/// The registry prefix ABFT reports accumulate under when
/// [`Protection::Abft`] is active.
pub const ABFT_METRIC_PREFIX: &str = "recover.abft";

/// The MPE accumulation chunk length every GEMM runs with.
const CHUNK_LEN: usize = 64;

/// How a backend protects its datapath against injected faults.
///
/// `Abft` is what training recovery runs on: every GEMM goes through the
/// Huang–Abraham checksum scheme, which detects and repairs faulty
/// elements at O(m+n) extra work per product. `None` leaves only the
/// guards, skip and rollback — the setting for studying bare faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// No datapath protection beyond the numeric guards.
    None,
    /// Checksum-protected GEMMs: detect + correct in the kernel itself.
    Abft,
}

/// HFP8 backend with a seeded fault plan spliced into every GEMM and a
/// configurable guard policy. The `Backend` trait takes `&self`, so the
/// plan (which must mutate its RNG and trace) and the metrics registry
/// live in `RefCell`s; training is single-threaded per backend instance.
///
/// Statistics accumulate into a [`MetricsRegistry`] (the unified telemetry
/// store); [`GuardedHfp8Backend::stats`] reconstructs the legacy
/// [`GemmStats`] as a thin view over its counters.
#[derive(Debug)]
pub struct GuardedHfp8Backend {
    policy: GuardPolicy,
    protection: Protection,
    plan: RefCell<FaultPlan>,
    metrics: RefCell<MetricsRegistry>,
}

impl GuardedHfp8Backend {
    /// Creates a backend injecting per `cfg`, guarding per `policy` and
    /// protecting per `protection`, with the MPE chunk length of 64.
    /// Under [`Protection::Abft`] every GEMM runs the
    /// checksum-protected kernel: faults are repaired inside the call and
    /// the guard policy only sees what ABFT could not express (shape
    /// errors).
    pub fn new(cfg: FaultConfig, policy: GuardPolicy, protection: Protection) -> Self {
        Self {
            policy,
            protection,
            plan: RefCell::new(FaultPlan::new(cfg)),
            metrics: RefCell::new(MetricsRegistry::new()),
        }
    }

    /// Injection totals so far.
    pub fn counts(&self) -> FaultCounts {
        self.plan.borrow().counts()
    }

    /// GEMM statistics accumulated across every call — `guard_clamps`
    /// counts the accumulators [`GuardPolicy::Saturate`] clamped. A thin
    /// view reconstructed from the backing metrics registry.
    pub fn stats(&self) -> GemmStats {
        GemmStats::from_registry(&self.metrics.borrow(), BACKEND_METRIC_PREFIX)
    }

    /// Snapshot of the backing metrics registry (GEMM counters under
    /// [`BACKEND_METRIC_PREFIX`], plus `recover.gemm.calls`).
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.borrow().clone()
    }

    /// Accumulated ABFT observations (zero unless [`Protection::Abft`]).
    pub fn abft_report(&self) -> AbftReport {
        AbftReport::from_registry(&self.metrics.borrow(), ABFT_METRIC_PREFIX)
    }
}

impl Backend for GuardedHfp8Backend {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        let mode = hfp8_mode(roles);
        let mut plan = self.plan.borrow_mut();
        let (c, stats) = if self.protection == Protection::Abft {
            let (c, stats, report) =
                abft_matmul_emulated(mode, a, b, CHUNK_LEN, Some(&mut plan))?;
            let mut reg = self.metrics.borrow_mut();
            report.record_into(&mut reg, ABFT_METRIC_PREFIX);
            (c, stats)
        } else {
            let exec = Exec { guard: self.policy, faults: Some(&mut plan), ..Exec::default() };
            matmul_emulated_with(mode, a, b, CHUNK_LEN, exec)?
        };
        let mut reg = self.metrics.borrow_mut();
        stats.record_into(&mut reg, BACKEND_METRIC_PREFIX);
        reg.incr("recover.gemm.calls");
        Ok(c)
    }

    fn name(&self) -> &'static str {
        "hfp8+guarded"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_numerics::gemm::matmul_f32;
    use rapid_refnet::backend::Hfp8Backend;
    use OperandRole::{Data, Error};

    const ROLE_PAIRS: [(OperandRole, OperandRole); 4] =
        [(Data, Data), (Data, Error), (Error, Data), (Error, Error)];

    fn mats() -> (Tensor, Tensor) {
        (
            Tensor::random_uniform(vec![4, 8], -1.0, 1.0, 31),
            Tensor::random_uniform(vec![8, 4], -1.0, 1.0, 32),
        )
    }

    #[test]
    fn clean_plan_tracks_reference() {
        let (a, b) = mats();
        let be =
            GuardedHfp8Backend::new(FaultConfig::default(), GuardPolicy::Error, Protection::None);
        let exact = matmul_f32(&a, &b);
        for roles in ROLE_PAIRS {
            let r = be.try_matmul(&a, &b, roles).unwrap();
            assert!(r.max_rel_diff(&exact) < 0.15, "{roles:?}");
        }
        assert!(be.stats().macs > 0);
        assert_eq!(be.stats().guard_clamps, 0);
    }

    /// On a fault-free plan the guarded backend is the clean HFP8 backend:
    /// same per-port formats, same orientation, bit for bit — under both
    /// protections (ABFT repairs nothing when nothing is wrong).
    #[test]
    fn fault_free_plan_is_bit_equal_to_the_clean_backend() {
        let a = Tensor::random_uniform(vec![9, 70], -2.0, 2.0, 41);
        let b = Tensor::random_uniform(vec![70, 13], -2.0, 2.0, 42);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for protection in [Protection::None, Protection::Abft] {
            let be =
                GuardedHfp8Backend::new(FaultConfig::default(), GuardPolicy::Error, protection);
            for roles in ROLE_PAIRS {
                let want = Hfp8Backend::default().try_matmul(&a, &b, roles).unwrap();
                let got = be.try_matmul(&a, &b, roles).unwrap();
                assert_eq!(got.shape(), want.shape(), "{protection:?} {roles:?}");
                assert_eq!(bits(&got), bits(&want), "{protection:?} {roles:?}");
            }
        }
    }

    #[test]
    fn error_policy_eventually_trips_and_saturate_counts() {
        let (a, b) = mats();
        let cfg = FaultConfig { seed: 9, mac_acc_rate: 0.05, ..FaultConfig::default() };
        let error_be = GuardedHfp8Backend::new(cfg, GuardPolicy::Error, Protection::None);
        let sat_be = GuardedHfp8Backend::new(cfg, GuardPolicy::Saturate, Protection::None);
        let mut tripped = false;
        for _ in 0..32 {
            let r = error_be.try_matmul(&a, &b, (Data, Data));
            let _ = sat_be.try_matmul(&a, &b, (Data, Data)).unwrap();
            if matches!(r, Err(NumericsError::NonFinite { .. })) {
                tripped = true;
            }
        }
        assert!(tripped, "5% accumulator flips should trip the Error guard");
        assert!(
            sat_be.stats().guard_clamps > 0,
            "Saturate must count what it clamps: {:?}",
            sat_be.stats()
        );
        assert!(sat_be.counts().mac_acc_flips > 0);
    }

    #[test]
    fn abft_protection_absorbs_faults_the_error_guard_would_trip_on() {
        use rapid_numerics::abft::fp_tolerance_factor;
        use rapid_numerics::gemm::matmul_emulated;

        let (a, b) = mats();
        let cfg = FaultConfig { seed: 9, mac_acc_rate: 0.05, ..FaultConfig::default() };
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let tol = fp_tolerance_factor(k, CHUNK_LEN);
        // Every role pair, so each port format and the (Error, Data) wgrad
        // orientation are covered.
        for roles in ROLE_PAIRS {
            let be = GuardedHfp8Backend::new(cfg, GuardPolicy::Error, Protection::Abft);
            let mode = hfp8_mode(roles);
            let (clean, _) = matmul_emulated(mode, &a, &b, CHUNK_LEN);
            // The FP contract: after ABFT every element is bit-exact clean or
            // within the checksum detector's rounding envelope of it —
            // anything larger was flagged and repaired. Non-finites and
            // exponent upsets can never survive.
            let (fa, fb) = mode.operand_formats();
            let qa: Vec<f64> =
                a.as_slice().iter().map(|&x| f64::from(fa.quantize(x).abs())).collect();
            let qb: Vec<f64> =
                b.as_slice().iter().map(|&x| f64::from(fb.quantize(x).abs())).collect();
            for _ in 0..32 {
                let r = be.try_matmul(&a, &b, roles).expect("ABFT must repair instead of trip");
                for (i, (row_got, row_clean)) in
                    r.as_slice().chunks(n).zip(clean.as_slice().chunks(n)).enumerate()
                {
                    let envelope: f64 = (0..k)
                        .map(|p| qa[i * k + p] * (0..n).map(|j| qb[p * n + j]).sum::<f64>())
                        .sum();
                    for (&got, &want) in row_got.iter().zip(row_clean) {
                        assert!(got.is_finite(), "{roles:?}");
                        // 2× the detector tolerance: a surviving fault can
                        // hide behind up to one tolerance of legitimate
                        // rounding residual on top of its own
                        // sub-tolerance magnitude.
                        assert!(
                            got.to_bits() == want.to_bits()
                                || f64::from((got - want).abs()) <= 2.0 * tol * envelope,
                            "{roles:?} row {i}: got {got}, clean {want}, envelope {envelope}"
                        );
                    }
                }
            }
            let rep = be.abft_report();
            assert!(rep.corrections > 0, "{roles:?}: 5% flip rate must exercise repair: {rep:?}");
            // Analytical cap: checksums cost 2(mk+kn+mn) MACs per call and
            // the union repair recomputes at most every output cell (one
            // extra base). The 4×8×4 test matrices are tiny, so the checksum
            // share dominates; real layer shapes amortise to ~1.0x (see the
            // protection sweep).
            let cap = 2.0 + 2.0 * ((m * k + k * n + m * n) as f64) / ((m * k * n) as f64);
            assert!(rep.overhead_ratio() <= cap, "{roles:?}: {} > {cap}", rep.overhead_ratio());
            assert!(be.metrics().counter("recover.abft.corrections") > 0, "{roles:?}");
        }
    }
}
