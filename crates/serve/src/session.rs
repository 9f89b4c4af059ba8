//! The inference seam between the serving runtime and the emulated
//! accelerator stack.
//!
//! [`InferenceSession`] is the one trait the engine, the threaded server
//! and the chaos sweeps all execute through. [`EmulatedSession`] is the
//! production implementation: it routes each precision tier to the
//! corresponding guarded emulated kernel (FP16 and INT4 directly, HFP8
//! through the [`GuardedHfp8Backend`] so ABFT protection applies), with a shared [`FaultPlan`] injecting both MAC-level upsets
//! and serving-level transients. [`OkSession`] is the zero-work stand-in
//! for virtual-time sweeps and unit tests.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use rapid_fault::{FaultConfig, FaultCounts, FaultPlan};
use rapid_numerics::gemm::{matmul_emulated_with, matmul_int_with, Exec, GemmStats};
use rapid_numerics::guard::GuardPolicy;
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::tensor::Tensor;
use rapid_numerics::NumericsError;
use rapid_recover::backend::{GuardedHfp8Backend, Protection};
use rapid_refnet::backend::{Backend, OperandRole};

use crate::request::Tier;

/// Why a batch execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Injected or environmental transient — retry is expected to help.
    Transient,
    /// The guarded kernel surfaced a numerics error (corrupted
    /// accumulator, overflow, bad operand). Retries help when the cause
    /// was an injected fault; repeated failures trip the breaker.
    Numerics(NumericsError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Transient => write!(f, "transient execution failure"),
            SessionError::Numerics(e) => write!(f, "numerics error: {e}"),
        }
    }
}

/// What a successful batch execution reports back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Multiply-accumulates issued for the batch.
    pub macs: u64,
    /// Accumulators the guard stage clamped (bounded absorbed damage).
    pub guard_clamps: u64,
}

/// One executable model endpoint the runtime dispatches batches to.
///
/// Implementations must be `Sync`: the threaded server calls `infer`
/// from multiple workers (interior mutability goes behind a lock).
pub trait InferenceSession: Sync {
    /// Label for reports and bench records.
    fn name(&self) -> &'static str;

    /// Executes one batch of `batch` requests for `model` at `tier`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Transient`] for retryable environmental failures,
    /// [`SessionError::Numerics`] when the guarded kernel aborts.
    fn infer(&self, model: &str, tier: Tier, batch: usize) -> Result<SessionReport, SessionError>;
}

/// Always succeeds with zero work — the virtual-time sweep baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct OkSession;

impl InferenceSession for OkSession {
    fn name(&self) -> &'static str {
        "ok"
    }

    fn infer(&self, _: &str, _: Tier, _: usize) -> Result<SessionReport, SessionError> {
        Ok(SessionReport::default())
    }
}

/// Interior state of [`EmulatedSession`], behind one lock.
struct EmState {
    /// Serving-transient + FP16/INT4 MAC fault stream.
    plan: FaultPlan,
    /// HFP8 tier goes through the full guarded/protected backend (which
    /// derives its own decoupled fault streams from the same config).
    backend: GuardedHfp8Backend,
    /// Per-model representative operand pair, generated on first use.
    mats: BTreeMap<String, (Tensor, Tensor)>,
}

/// Production session: real emulated GEMMs per tier, chaos-injectable.
///
/// Each model executes one representative small GEMM whose shape is
/// derived deterministically from the model name — enough arithmetic to
/// exercise the real guarded kernels without making chaos sweeps slow.
pub struct EmulatedSession {
    policy: GuardPolicy,
    state: Mutex<EmState>,
}

impl fmt::Debug for EmulatedSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmulatedSession").field("policy", &self.policy).finish_non_exhaustive()
    }
}

/// FNV-1a over the model name: seeds operand generation and shape pick.
fn model_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl EmulatedSession {
    /// Builds a session with the given fault/guard/protection settings.
    /// `GuardPolicy::Error` is the serving-correct choice: corrupted
    /// results surface as errors (→ retry → breaker) instead of being
    /// silently returned to clients.
    pub fn new(cfg: FaultConfig, policy: GuardPolicy, protection: Protection) -> Self {
        Self {
            policy,
            state: Mutex::new(EmState {
                plan: FaultPlan::new(cfg),
                backend: GuardedHfp8Backend::new(cfg, policy, protection),
                mats: BTreeMap::new(),
            }),
        }
    }

    /// A clean session: no fault injection, abort-on-corruption guards,
    /// no datapath protection.
    pub fn clean() -> Self {
        Self::new(FaultConfig::default(), GuardPolicy::Error, Protection::None)
    }

    /// Injected-fault counts observed so far (serving transients come
    /// from the session plan; MAC upsets on the HFP8 tier from the
    /// backend's own plan and are not included here).
    pub fn fault_counts(&self) -> FaultCounts {
        self.lock().plan.counts()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EmState> {
        // Poisoning cannot corrupt EmState invariants (every mutation is
        // a complete RNG draw or map insert), so recover the guard.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Representative operand shapes for a model: small enough to keep
    /// sweeps fast, distinct per model so latencies differ.
    fn shapes(name: &str) -> (usize, usize, usize) {
        let h = model_hash(name);
        let m = 4 + (h % 5) as usize; // 4..=8
        let k = 16 + ((h >> 8) % 17) as usize; // 16..=32
        let n = 8 + ((h >> 16) % 9) as usize; // 8..=16
        (m, k, n)
    }
}

impl InferenceSession for EmulatedSession {
    fn name(&self) -> &'static str {
        "emulated"
    }

    fn infer(&self, model: &str, tier: Tier, batch: usize) -> Result<SessionReport, SessionError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        if st.plan.serve_transient() {
            return Err(SessionError::Transient);
        }
        let (a, b) = st
            .mats
            .entry(model.to_string())
            .or_insert_with(|| {
                let (m, k, n) = Self::shapes(model);
                let seed = model_hash(model) | 1;
                (
                    Tensor::random_uniform(vec![m, k], -1.0, 1.0, seed),
                    Tensor::random_uniform(vec![k, n], -1.0, 1.0, seed.rotate_left(17)),
                )
            })
            .clone();
        // One GEMM per member keeps work proportional to batch size, like
        // the real runtime; operands are reused across members.
        let mut report = SessionReport::default();
        for _ in 0..batch.max(1) {
            let exec = Exec { guard: self.policy, faults: Some(&mut st.plan), ..Exec::default() };
            let stats = match tier {
                Tier::Fp16 => matmul_emulated_with(FmaMode::Fp16, &a, &b, 64, exec)
                    .map(|(_, s)| s)
                    .map_err(SessionError::Numerics)?,
                Tier::Hfp8 => {
                    // The backend keeps cumulative statistics; this
                    // member's work is the delta across its call.
                    let before = st.backend.stats();
                    st.backend
                        .try_matmul(&a, &b, (OperandRole::Data, OperandRole::Data))
                        .map_err(SessionError::Numerics)?;
                    let after = st.backend.stats();
                    GemmStats {
                        macs: after.macs - before.macs,
                        guard_clamps: after.guard_clamps - before.guard_clamps,
                        ..GemmStats::default()
                    }
                }
                Tier::Int4 => {
                    let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
                    matmul_int_with(&a, &b, q, q, 64, exec)
                        .map(|(_, s)| s)
                        .map_err(SessionError::Numerics)?
                }
            };
            report.macs += stats.macs;
            report.guard_clamps += stats.guard_clamps;
        }
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn clean_session_serves_every_tier() {
        let s = EmulatedSession::clean();
        for tier in Tier::ALL {
            let rep = s.infer("resnet50", tier, 2).unwrap();
            assert!(rep.macs > 0, "{tier:?} reported no work");
        }
    }

    #[test]
    fn serve_transients_surface_as_retryable_errors() {
        let s = EmulatedSession::new(
            FaultConfig { serve_transient_rate: 1.0, seed: 7, ..FaultConfig::default() },
            GuardPolicy::Error,
            Protection::None,
        );
        assert_eq!(s.infer("bert", Tier::Fp16, 1), Err(SessionError::Transient));
        assert_eq!(s.fault_counts().serve_transients, 1);
    }

    #[test]
    fn shapes_are_deterministic_and_distinct_enough() {
        assert_eq!(EmulatedSession::shapes("bert"), EmulatedSession::shapes("bert"));
        assert_ne!(EmulatedSession::shapes("bert"), EmulatedSession::shapes("lstm"));
    }

    #[test]
    fn mac_faults_on_direct_tiers_abort_under_error_policy() {
        // Saturating rate: every FP16 chunk draw fires, so the guarded
        // kernel must abort rather than return corrupted data.
        let s = EmulatedSession::new(
            FaultConfig {
                mac_acc_rate: 1.0,
                exponent_share: 1.0,
                seed: 11,
                ..FaultConfig::default()
            },
            GuardPolicy::Error,
            Protection::None,
        );
        match s.infer("vgg16", Tier::Fp16, 1) {
            Err(SessionError::Numerics(_)) => {}
            other => panic!("expected numerics abort, got {other:?}"),
        }
    }
}
