//! The HFP8 training backend with fault injection and a configurable
//! guard policy — the backend the resilient training loops drive.
//!
//! Under [`GuardPolicy::Saturate`] every corrupted accumulator is clamped
//! and counted (the run continues, `guard_clamps` reports the damage);
//! under [`GuardPolicy::Error`] the first corruption surfaces as a
//! [`NumericsError`] for the recovery loop to catch — skip the step, back
//! off the loss scale, roll back if it keeps happening.

use rapid_fault::{FaultConfig, FaultCounts, FaultPlan};
use rapid_numerics::abft::{abft_matmul_emulated, AbftReport};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{matmul_emulated_with, Exec, GemmStats};
use rapid_numerics::{GuardPolicy, NumericsError, Tensor};
use rapid_refnet::backend::{Backend, OperandRole};
use rapid_telemetry::MetricsRegistry;
use std::cell::RefCell;

/// The registry prefix this backend's GEMM statistics accumulate under.
pub const BACKEND_METRIC_PREFIX: &str = "recover.gemm";

/// The registry prefix ABFT reports accumulate under when
/// [`Protection::Abft`] is active.
pub const ABFT_METRIC_PREFIX: &str = "recover.abft";

/// How a backend protects its datapath against injected faults.
///
/// The resilient training loop composes with both: `None` relies purely
/// on guards + skip/rollback, and `Abft` runs every GEMM through the
/// Huang–Abraham checksum scheme which detects and repairs faulty
/// elements at O(m+n) extra work per product. Modular redundancy is not
/// a backend mode: the loop votes over
/// [`ResilientConfig::redundancy`](crate::ResilientConfig::redundancy)
/// executions of any backend.
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
    chunk_len: usize,
    policy: GuardPolicy,
    protection: Protection,
    plan: RefCell<FaultPlan>,
    metrics: RefCell<MetricsRegistry>,
}

impl GuardedHfp8Backend {
    /// Creates a backend injecting per `cfg` and guarding per `policy`,
    /// with the default MPE chunk length of 64.
    pub fn new(cfg: FaultConfig, policy: GuardPolicy) -> Self {
        Self {
            chunk_len: 64,
            policy,
            protection: Protection::None,
            plan: RefCell::new(FaultPlan::new(cfg)),
            metrics: RefCell::new(MetricsRegistry::new()),
        }
    }

    /// Selects the datapath protection mode (default [`Protection::None`]).
    /// Under [`Protection::Abft`] every GEMM runs the checksum-protected
    /// kernel: faults are repaired inside the call and the guard policy
    /// only sees what ABFT could not express (shape errors).
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// The datapath protection mode in force.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// Overrides the accumulation chunk length.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn with_chunk_len(mut self, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        self.chunk_len = chunk_len;
        self
    }

    /// The guard policy in force.
    pub fn policy(&self) -> GuardPolicy {
        self.policy
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

    /// Drains this backend's metrics into an external registry (e.g. a
    /// bench harness `Telemetry` bundle) and resets the local one.
    pub fn drain_metrics_into(&self, reg: &mut MetricsRegistry) {
        let mut mine = self.metrics.borrow_mut();
        reg.merge(&mine);
        *mine = MetricsRegistry::new();
    }

    /// Accumulated ABFT observations (zero unless [`Protection::Abft`]).
    pub fn abft_report(&self) -> AbftReport {
        AbftReport::from_registry(&self.metrics.borrow(), ABFT_METRIC_PREFIX)
    }

    fn guarded(&self, mode: FmaMode, a: &Tensor, b: &Tensor) -> Result<Tensor, NumericsError> {
        let mut plan = self.plan.borrow_mut();
        let (c, stats) = if self.protection == Protection::Abft {
            let (c, stats, report) =
                abft_matmul_emulated(mode, a, b, self.chunk_len, Some(&mut plan))?;
            let mut reg = self.metrics.borrow_mut();
            report.record_into(&mut reg, ABFT_METRIC_PREFIX);
            (c, stats)
        } else {
            let exec = Exec { guard: self.policy, faults: Some(&mut plan), ..Exec::default() };
            matmul_emulated_with(mode, a, b, self.chunk_len, exec)?
        };
        let mut reg = self.metrics.borrow_mut();
        stats.record_into(&mut reg, BACKEND_METRIC_PREFIX);
        reg.incr("recover.gemm.calls");
        Ok(c)
    }
}

impl Backend for GuardedHfp8Backend {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        use OperandRole::{Data, Error};
        match roles {
            (Data, Data) => self.guarded(FmaMode::hfp8_fwd_default(), a, b),
            (Data, Error) | (Error, Error) => self.guarded(FmaMode::hfp8_bwd_default(), a, b),
            // (1,5,2) on port B through the transpose identity
            // C = A×B = (BᵀAᵀ)ᵀ. The clean Hfp8Backend puts it on port A
            // instead; this path keeps the transposed orientation because
            // seeded fault plans walk MACs in output order, so reorienting
            // it would move seeded fault-injection results.
            (Error, Data) => {
                if a.shape().len() != 2 || b.shape().len() != 2 {
                    return Err(NumericsError::ShapeMismatch {
                        expected: "rank-2 operands".to_string(),
                        actual: format!("a {:?} × b {:?}", a.shape(), b.shape()),
                    });
                }
                self.guarded(FmaMode::hfp8_bwd_default(), &b.transposed(), &a.transposed())
                    .map(|c| c.transposed())
            }
        }
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

    fn mats() -> (Tensor, Tensor) {
        (
            Tensor::random_uniform(vec![4, 8], -1.0, 1.0, 31),
            Tensor::random_uniform(vec![8, 4], -1.0, 1.0, 32),
        )
    }

    #[test]
    fn clean_plan_tracks_reference() {
        let (a, b) = mats();
        let be = GuardedHfp8Backend::new(FaultConfig::default(), GuardPolicy::Error);
        let exact = matmul_f32(&a, &b);
        for roles in [
            (OperandRole::Data, OperandRole::Data),
            (OperandRole::Data, OperandRole::Error),
            (OperandRole::Error, OperandRole::Data),
        ] {
            let r = be.try_matmul(&a, &b, roles).unwrap();
            assert!(r.max_rel_diff(&exact) < 0.15, "{roles:?}");
        }
        assert!(be.stats().macs > 0);
        assert_eq!(be.stats().guard_clamps, 0);
    }

    #[test]
    fn error_policy_eventually_trips_and_saturate_counts() {
        let (a, b) = mats();
        let cfg = FaultConfig { seed: 9, mac_acc_rate: 0.05, ..FaultConfig::default() };
        let error_be = GuardedHfp8Backend::new(cfg, GuardPolicy::Error);
        let sat_be = GuardedHfp8Backend::new(cfg, GuardPolicy::Saturate);
        let mut tripped = false;
        for _ in 0..32 {
            let r = error_be.try_matmul(&a, &b, (OperandRole::Data, OperandRole::Data));
            let _ = sat_be.try_matmul(&a, &b, (OperandRole::Data, OperandRole::Data)).unwrap();
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
        let be = GuardedHfp8Backend::new(cfg, GuardPolicy::Error)
            .with_protection(Protection::Abft);
        let mode = FmaMode::hfp8_fwd_default();
        let (clean, _) = matmul_emulated(mode, &a, &b, 64);
        // The FP contract: after ABFT every element is bit-exact clean or
        // within the checksum detector's rounding envelope of it —
        // anything larger was flagged and repaired. Non-finites and
        // exponent upsets can never survive.
        let (fa, fb) = mode.operand_formats();
        let (k, n) = (a.shape()[1], b.shape()[1]);
        let qa: Vec<f64> =
            a.as_slice().iter().map(|&x| f64::from(fa.quantize(x).abs())).collect();
        let qb: Vec<f64> =
            b.as_slice().iter().map(|&x| f64::from(fb.quantize(x).abs())).collect();
        let tol = fp_tolerance_factor(k, 64);
        for _ in 0..32 {
            let r = be
                .try_matmul(&a, &b, (OperandRole::Data, OperandRole::Data))
                .expect("ABFT must repair instead of trip");
            for (i, (row_got, row_clean)) in
                r.as_slice().chunks(n).zip(clean.as_slice().chunks(n)).enumerate()
            {
                let envelope: f64 =
                    (0..k).map(|p| qa[i * k + p] * (0..n).map(|j| qb[p * n + j]).sum::<f64>()).sum();
                for (&got, &want) in row_got.iter().zip(row_clean) {
                    assert!(got.is_finite());
                    // 2× the detector tolerance: a surviving fault can hide
                    // behind up to one tolerance of legitimate rounding
                    // residual on top of its own sub-tolerance magnitude.
                    assert!(
                        got.to_bits() == want.to_bits()
                            || f64::from((got - want).abs()) <= 2.0 * tol * envelope,
                        "row {i}: got {got}, clean {want}, envelope {envelope}"
                    );
                }
            }
        }
        let rep = be.abft_report();
        assert!(rep.corrections > 0, "5% flip rate must exercise repair: {rep:?}");
        // Analytical cap: checksums cost 2(mk+kn+mn) MACs per call and the
        // union repair recomputes at most every output cell (one extra base).
        // The 4×8×4 test matrices are tiny, so the checksum share dominates;
        // real layer shapes amortise to ~1.0x (see the protection sweep).
        let m = a.shape()[0];
        let cap = 2.0 + 2.0 * ((m * k + k * n + m * n) as f64) / ((m * k * n) as f64);
        assert!(rep.overhead_ratio() <= cap, "{} > {cap}", rep.overhead_ratio());
        assert!(be.metrics().counter("recover.abft.corrections") > 0);
    }

    #[test]
    fn protection_modes_report_their_cost_shape() {
        let be = GuardedHfp8Backend::new(FaultConfig::default(), GuardPolicy::Error);
        assert_eq!(be.protection(), Protection::None);
        let be = be.with_protection(Protection::Abft);
        assert_eq!(be.protection(), Protection::Abft);
    }
}
