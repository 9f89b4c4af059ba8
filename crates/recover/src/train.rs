//! Resilient training loops: skip / back-off / roll-back instead of abort.
//!
//! The state machine each step runs through:
//!
//! ```text
//!                 ┌─────────────────────────────────────────────────┐
//!                 ▼                                                 │
//!           ┌────────────┐  ok   ┌────────────┐ pass ┌──────────┐   │
//!    batch ─▶ snapshot,  ├───────▶ anomaly +  ├──────▶ apply,   ├───┤
//!           │ attempt    │       │ clip gate  │      │ scaler   │   │
//!           └─────┬──────┘       └─────┬──────┘      │ .grow?,  │   │
//!                 │ guard              │ fail        │ every    │   │
//!                 │ tripped            │             │ Nth ckpt │   │
//!                 ▼                    ▼             └──────────┘   │
//!           ┌──────────────┐   < K consecutive                      │
//!           │ restore      ├──── skip batch ────────────────────────┤
//!           │ snapshot,    │                                        │
//!           │ scale backs  │   ≥ K consecutive guard trips          │
//!           │ off          ├──── roll back to last good ────────────┘
//!           └──────────────┘     checkpoint
//! ```
//!
//! Every attempt snapshots the parameters first because the backward pass
//! applies SGD inline per layer — a mid-backward guard trip leaves the
//! model partially updated, and the snapshot undoes that. Datapath faults
//! are meant to be repaired before they reach the loop: a backend under
//! [`Protection::Abft`](crate::Protection::Abft) corrects faulty GEMM
//! elements inside each call, so a protected step neither trips nor
//! skips. The loop is the backstop for what gets through. The guards
//! only see *non-finite* accumulators, so each applied update is also
//! defended against silent (finite) corruption: the update-anomaly check
//! rejects steps whose magnitude no honest step reaches
//! (`ANOMALY_FACTOR`), and the per-element clip bound caps whatever
//! slips through (`CLIP_FACTOR`). `K` consecutive guard trips mean
//! skipping isn't working (the fault burst outlasts single batches), so
//! the run restores the last good checkpoint
//! — from the persistent [`CheckpointStore`] when one is attached
//! (corrupted newest generations fall back automatically), else from the
//! in-memory copy — and continues the schedule from the current batch.
//!
//! Final accuracy is evaluated on the clean FP32 reference path: the
//! faulty backend is a training-time hazard model, not an eval harness.

use crate::checkpoint::{
    capture_layers, restore_layers, CheckpointError, CheckpointStore, LayerState, TrainState,
};
use crate::scaler::DynamicLossScaler;
use rapid_numerics::{NumericsError, Tensor};
use rapid_refnet::backend::{Backend, Fp32Backend};
use rapid_refnet::data::Dataset;
use rapid_refnet::mlp::{softmax_cross_entropy, Mlp, TrainConfig, BATCH, LR};
use rapid_refnet::qat::{QatConfig, QatMlp};

/// Recovery-loop policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// Consecutive failed steps before rolling back to the last good
    /// checkpoint.
    pub rollback_after: u32,
    /// Successful steps between checkpoints (in-memory always; persisted
    /// too when a store is attached).
    pub checkpoint_every: u64,
    /// Total skipped-step budget before the run gives up — the guard
    /// against a fault rate above what skip/rollback can absorb.
    pub max_skipped_steps: u64,
}

/// Initial dynamic loss scale.
const INITIAL_SCALE: f32 = 256.0;

/// Update-anomaly rejection threshold: an applied step whose largest
/// parameter change exceeds this factor times the running average is
/// rejected as silently corrupted. Bit flips that saturate an accumulator
/// to a huge *finite* value pass the non-finite guard but land updates
/// orders of magnitude above honest SGD steps; this is the end-to-end
/// check that catches them. The factor is deliberately loose — sparse
/// flips that only nudge an accumulator are ordinary SGD noise (the
/// saturating fault sweeps converge through them) and rejecting those
/// starves training.
const ANOMALY_FACTOR: f64 = 64.0;

/// Per-element update clamp: every parameter delta in an applied step is
/// clipped to this factor times the running honest magnitude. Guards only
/// see *non-finite* accumulators; a flip that saturates a chunk to a
/// large finite value sails through and, applied raw, compounds — the
/// damaged weights enlarge the next step's activations and gradients,
/// which saturate more chunks (measured: unclipped saturating runs drift
/// to per-step deltas of ~1e7 and their clean-path accuracy *decays* with
/// more epochs). Clipping keeps the honest components of a corrupted
/// update while bounding each damaged element to SGD-noise scale.
const CLIP_FACTOR: f64 = 8.0;

/// Applied steps observed before the anomaly check engages — the running
/// average needs a few honest magnitudes before its threshold means
/// anything.
const ANOMALY_WARMUP_STEPS: u64 = 4;

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            rollback_after: 4,
            checkpoint_every: 8,
            max_skipped_steps: 100_000,
        }
    }
}

/// What the recovery loop did, alongside the trained model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Steps attempted (applied + skipped).
    pub steps_run: u64,
    /// Steps whose update was applied.
    pub steps_applied: u64,
    /// Steps skipped after a guard trip or anomaly rejection.
    pub steps_skipped: u64,
    /// Of the skipped steps, how many were rejected by the update-anomaly
    /// check (silent corruption) rather than a guard trip.
    pub anomaly_rejections: u64,
    /// Parameter elements whose per-step delta was clamped to the clip
    /// bound in otherwise-applied steps.
    pub updates_clipped: u64,
    /// Rollbacks to the last good checkpoint.
    pub rollbacks: u64,
    /// Applied steps re-lost by rollbacks (progress between the restored
    /// checkpoint and the failure).
    pub steps_lost_to_rollback: u64,
    /// Checkpoints written to the attached store.
    pub checkpoints_written: u64,
    /// Corrupt/truncated checkpoint generations skipped during loads.
    pub corrupt_checkpoints_skipped: u64,
    /// Loss scale at the end of the run.
    pub final_scale: f32,
}

/// Why a resilient run could not finish.
#[derive(Debug)]
pub enum RecoverError {
    /// The checkpoint store failed (I/O, not corruption — corruption is
    /// absorbed by generation fallback), or a rollback loaded a generation
    /// written by a model of another shape.
    Checkpoint(CheckpointError),
    /// More steps were skipped than
    /// [`ResilientConfig::max_skipped_steps`] allows: the fault rate is
    /// beyond what skip/backoff/rollback can absorb.
    FaultRateTooHigh {
        /// Steps skipped when the budget ran out.
        skipped: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "checkpoint store failure: {e}"),
            Self::FaultRateTooHigh { skipped } => {
                write!(f, "skipped-step budget exhausted after {skipped} skips")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<CheckpointError> for RecoverError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

// ---- generic driver ----------------------------------------------------

/// Captured parameters: per-layer weights/biases plus the PACT alphas
/// (empty for models without learned clipping).
type Params = (Vec<LayerState>, Vec<f32>);

/// Measures and bounds a candidate update in one pass: returns the largest
/// absolute parameter change between a snapshot and freshly captured
/// parameters — the signal the anomaly check thresholds — and clamps
/// every delta to `±bound` in place, counting the clamped elements.
fn measure_and_clip(before: &TrainState, after: &mut Params, bound: f64) -> (f64, u64) {
    let layers = before.layers.iter().zip(&mut after.0).flat_map(|(old, new)| {
        old.w.iter().zip(&mut new.w).chain(old.b.iter().zip(&mut new.b))
    });
    let (mut mag, mut clamped) = (0.0f64, 0u64);
    for (&old, new) in layers.chain(before.alphas.iter().zip(&mut after.1)) {
        let delta = f64::from(*new) - f64::from(old);
        mag = mag.max(f64::from((old - *new).abs()));
        if delta.abs() > bound {
            *new = (f64::from(old) + delta.signum() * bound) as f32;
            clamped += 1;
        }
    }
    (mag, clamped)
}

/// How one attempted step resolved.
enum Verdict {
    /// Update accepted; the freshly captured parameters ride along so the
    /// checkpoint path need not re-capture.
    Applied(Params),
    /// Update rejected. `guard_trip` distinguishes a numerics-guard error
    /// from an anomaly rejection, and both consequences follow from it:
    /// only guard trips back the loss scale off (they are range evidence;
    /// anomaly rejections are magnitude evidence, and shrinking the scale
    /// would shrink its protective headroom) and only guard trips count
    /// toward the consecutive-failure rollback trigger (an anomaly
    /// rejection already restored a pristine snapshot, so rolling further
    /// back would discard good progress to fix nothing).
    Rejected { guard_trip: bool },
}

/// Runs the epochs × batches schedule with snapshot/skip/rollback around
/// a fallible step. `capture`/`restore` move parameters in and out of
/// [`TrainState`]s (`restore` refuses a state that does not fit the
/// model); `attempt` runs one training step at the given loss scale.
#[allow(clippy::too_many_arguments)] // private driver: the three hooks are the API
fn run_resilient<M>(
    model: &mut M,
    data: &Dataset,
    epochs: usize,
    batch: usize,
    rcfg: &ResilientConfig,
    mut store: Option<&mut CheckpointStore>,
    mut capture: impl FnMut(&M) -> Params,
    mut restore: impl FnMut(&mut M, &TrainState) -> Result<(), CheckpointError>,
    mut attempt: impl FnMut(&mut M, &Tensor, &[usize], f32) -> Result<(), NumericsError>,
) -> Result<RecoveryReport, RecoverError> {
    let mut scaler = DynamicLossScaler::new(INITIAL_SCALE);
    let make_state = |(layers, alphas): Params, scaler: &DynamicLossScaler, step: u64| {
        let (scale, scaler_good_steps) = scaler.state();
        TrainState { step, rng_state: 0, scale, scaler_good_steps, layers, alphas }
    };
    let mut report = RecoveryReport::default();
    let mut last_good = make_state(capture(model), &scaler, 0);
    let mut consecutive = 0u32;
    let mut applied_since_ckpt = 0u64;
    let mut gstep = 0u64;
    // Running average of honest update magnitudes for the anomaly check.
    let mut ema_update: Option<f64> = None;
    for _epoch in 0..epochs {
        let mut start = 0;
        while start < data.len() {
            let end = (start + batch).min(data.len());
            let (bx, by) = data.batch(start, end);
            let snapshot = make_state(capture(model), &scaler, gstep);
            report.steps_run += 1;
            gstep += 1;
            // Stage 1: attempt the step. Stage 2: gate the candidate
            // update through the anomaly check and the clip bound — the
            // magnitude backstops for silent corruption the guards miss.
            let verdict = match attempt(model, &bx, by, scaler.scale()) {
                Err(_) => Verdict::Rejected { guard_trip: true },
                Ok(()) => {
                    let mut new_params = capture(model);
                    let armed = report.steps_applied >= ANOMALY_WARMUP_STEPS
                        && ema_update.is_some_and(|e| e > 0.0);
                    let bound = match ema_update {
                        Some(ema) if armed => CLIP_FACTOR * ema,
                        _ => f64::INFINITY,
                    };
                    let (mag, clamped) = measure_and_clip(&snapshot, &mut new_params, bound);
                    let ema = ema_update.unwrap_or(mag);
                    if armed && mag > ANOMALY_FACTOR * ema {
                        // Too corrupted to salvage even element-wise.
                        report.anomaly_rejections += 1;
                        Verdict::Rejected { guard_trip: false }
                    } else {
                        let mut applied_mag = mag;
                        if clamped > 0 {
                            report.updates_clipped += clamped;
                            applied_mag = mag.min(bound);
                            restore(model, &make_state(new_params.clone(), &scaler, gstep))?;
                        }
                        ema_update = Some(
                            ema_update.map_or(applied_mag, |e| 0.9 * e + 0.1 * applied_mag),
                        );
                        Verdict::Applied(new_params)
                    }
                }
            };
            match verdict {
                Verdict::Applied(new_params) => {
                    scaler.on_success();
                    consecutive = 0;
                    report.steps_applied += 1;
                    applied_since_ckpt += 1;
                    if applied_since_ckpt >= rcfg.checkpoint_every {
                        last_good = make_state(new_params, &scaler, gstep);
                        if let Some(st) = store.as_deref_mut() {
                            st.save(&last_good)?;
                            report.checkpoints_written += 1;
                        }
                        applied_since_ckpt = 0;
                    }
                }
                Verdict::Rejected { guard_trip } => {
                    // Undo any partial update and skip the batch.
                    restore(model, &snapshot)?;
                    if guard_trip {
                        scaler.on_overflow();
                        consecutive += 1;
                    }
                    report.steps_skipped += 1;
                    if report.steps_skipped > rcfg.max_skipped_steps {
                        return Err(RecoverError::FaultRateTooHigh {
                            skipped: report.steps_skipped,
                        });
                    }
                    if consecutive >= rcfg.rollback_after {
                        let target = match store.as_deref_mut() {
                            Some(st) => st
                                .load_latest()?
                                .map(|(_, s)| s)
                                .unwrap_or_else(|| last_good.clone()),
                            None => last_good.clone(),
                        };
                        report.steps_lost_to_rollback +=
                            gstep.saturating_sub(target.step);
                        restore(model, &target)?;
                        scaler.restore(target.scale, target.scaler_good_steps);
                        report.rollbacks += 1;
                        consecutive = 0;
                        applied_since_ckpt = 0;
                    }
                }
            }
            start = end;
        }
    }
    report.final_scale = scaler.scale();
    if let Some(st) = store {
        report.corrupt_checkpoints_skipped = st.corrupt_skipped();
    }
    Ok(report)
}

// ---- MLP ---------------------------------------------------------------

/// [`rapid_refnet::mlp::train`] with the recovery loop wrapped around
/// every step. Returns the final training accuracy — evaluated on the
/// clean FP32 path — and the [`RecoveryReport`].
///
/// # Errors
///
/// [`RecoverError::Checkpoint`] on store I/O failure or when a rollback
/// loads a generation written by a model of another shape,
/// [`RecoverError::FaultRateTooHigh`] when the skip budget runs out.
pub fn train_mlp_resilient(
    mlp: &mut Mlp,
    backend: &dyn Backend,
    data: &Dataset,
    cfg: &TrainConfig,
    rcfg: &ResilientConfig,
    store: Option<&mut CheckpointStore>,
) -> Result<(f64, RecoveryReport), RecoverError> {
    let report = run_resilient(
        mlp,
        data,
        cfg.epochs,
        BATCH,
        rcfg,
        store,
        |m| (capture_layers(m.layers()), Vec::new()),
        |m, s| restore_layers(m.layers_mut(), s, 0),
        |m, bx, by, scale| {
            let logits = m.try_forward(backend, bx)?;
            let (_, grad) = softmax_cross_entropy(&logits, by);
            // Scale the loss gradient so the FP8 (1,5,2) error tensors
            // stay representable; the update divides the scale back out.
            let scaled = grad.map(|v| v * scale);
            m.try_backward_sgd(backend, &scaled, LR / scale)
        },
    )?;
    Ok((mlp.accuracy(&Fp32Backend, data), report))
}

// ---- QAT ---------------------------------------------------------------

/// [`rapid_refnet::qat::train_qat`] through an arbitrary (typically
/// guarded HFP8) backend with the recovery loop wrapped around every
/// step: checkpoints cover master weights, biases, the learned PACT
/// clipping levels and the loss scaler. Returns the final quantized
/// training accuracy (clean eval path) and the [`RecoveryReport`].
///
/// # Errors
///
/// Same contract as [`train_mlp_resilient`].
pub fn train_qat_resilient(
    qat: &mut QatMlp,
    backend: &dyn Backend,
    data: &Dataset,
    cfg: &QatConfig,
    rcfg: &ResilientConfig,
    store: Option<&mut CheckpointStore>,
) -> Result<(f64, RecoveryReport), RecoverError> {
    let report = run_resilient(
        qat,
        data,
        cfg.epochs,
        cfg.batch,
        rcfg,
        store,
        |m| (capture_layers(m.layers()), m.alphas()),
        |m, s| {
            let alphas = m.alphas().len();
            restore_layers(m.layers_mut(), s, alphas)?;
            m.set_alphas(&s.alphas);
            Ok(())
        },
        |m, bx, by, scale| m.try_step_with(backend, bx, by, scale),
    )?;
    Ok((qat.accuracy(data), report))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::backend::{GuardedHfp8Backend, Protection};
    use rapid_fault::FaultConfig;
    use rapid_numerics::int::IntFormat;
    use rapid_numerics::GuardPolicy;
    use rapid_refnet::data::gaussian_blobs;
    use rapid_refnet::mlp::train;

    fn faulty_backend(seed: u64, rate: f64, protection: Protection) -> GuardedHfp8Backend {
        GuardedHfp8Backend::new(
            FaultConfig {
                seed,
                mac_acc_rate: rate,
                mac_operand_rate: rate / 4.0,
                ..FaultConfig::default()
            },
            GuardPolicy::Error,
            protection,
        )
    }

    #[test]
    fn fault_free_resilient_matches_plain_training() {
        let data = gaussian_blobs(256, 4, 16, 0.35, 42);
        let cfg = TrainConfig { epochs: 10 };
        let mut plain = Mlp::new(&[16, 32, 4], 1);
        let acc_plain = train(&mut plain, &Fp32Backend, &data, &cfg);
        let mut res = Mlp::new(&[16, 32, 4], 1);
        let (acc_res, report) = train_mlp_resilient(
            &mut res,
            &Fp32Backend,
            &data,
            &cfg,
            &ResilientConfig::default(),
            None,
        )
        .unwrap();
        // Loss scaling is exactly compensated in FP32, so the runs agree.
        assert!((acc_res - acc_plain).abs() < 0.02, "plain {acc_plain} vs resilient {acc_res}");
        assert_eq!(report.steps_skipped, 0);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.steps_run, report.steps_applied);
    }

    #[test]
    fn skips_and_recovers_under_flips() {
        let data = gaussian_blobs(256, 4, 16, 0.35, 42);
        let cfg = TrainConfig { epochs: 12 };
        let mut clean = Mlp::new(&[16, 32, 4], 1);
        let acc_clean =
            train(&mut clean, &rapid_refnet::backend::Hfp8Backend::default(), &data, &cfg);
        let run = |protection| {
            let backend = faulty_backend(7, 1e-3, protection);
            let mut model = Mlp::new(&[16, 32, 4], 1);
            let rcfg = ResilientConfig::default();
            train_mlp_resilient(&mut model, &backend, &data, &cfg, &rcfg, None).unwrap()
        };
        // Unprotected, the flips trip the guards and the loop skips.
        let (_, report) = run(Protection::None);
        assert!(report.steps_skipped > 0, "1e-3 flips must trip guards: {report:?}");
        // Under ABFT the same flips are repaired and accuracy holds.
        let (acc, report) = run(Protection::Abft);
        assert!(
            acc > acc_clean - 0.02,
            "resilient {acc} must stay within 2% of fault-free {acc_clean}: {report:?}"
        );
    }

    #[test]
    fn rollback_restores_checkpointed_state() {
        let data = gaussian_blobs(128, 4, 16, 0.35, 43);
        let cfg = TrainConfig { epochs: 6 };
        // A rate high enough that rollback_after consecutive failures
        // happen; small rollback_after makes them certain.
        let backend = faulty_backend(11, 2e-2, Protection::None);
        let mut model = Mlp::new(&[16, 32, 4], 2);
        let rcfg =
            ResilientConfig { rollback_after: 2, checkpoint_every: 4, ..Default::default() };
        let (_, report) =
            train_mlp_resilient(&mut model, &backend, &data, &cfg, &rcfg, None).unwrap();
        assert!(report.rollbacks > 0, "2% flips should force rollbacks: {report:?}");
        assert!(report.final_scale <= INITIAL_SCALE);
    }

    #[test]
    fn impossible_fault_rate_exhausts_the_skip_budget() {
        let data = gaussian_blobs(64, 4, 16, 0.35, 44);
        let cfg = TrainConfig { epochs: 50 };
        let backend = faulty_backend(13, 0.5, Protection::None);
        let mut model = Mlp::new(&[16, 32, 4], 3);
        let rcfg = ResilientConfig { max_skipped_steps: 10, ..Default::default() };
        let err =
            train_mlp_resilient(&mut model, &backend, &data, &cfg, &rcfg, None).unwrap_err();
        assert!(matches!(err, RecoverError::FaultRateTooHigh { .. }), "{err}");
    }

    #[test]
    fn qat_resilient_writes_and_reloads_checkpoints() {
        let dir = std::env::temp_dir()
            .join(format!("rapid-recover-train-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = gaussian_blobs(128, 4, 16, 0.35, 45);
        let cfg = QatConfig { epochs: 4, ..QatConfig::default() };
        let mut store = CheckpointStore::open(&dir, "qat", 3).unwrap();
        let mut model = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 5);
        let rcfg = ResilientConfig { checkpoint_every: 4, ..Default::default() };
        let (acc, report) = train_qat_resilient(
            &mut model,
            &Fp32Backend,
            &data,
            &cfg,
            &rcfg,
            Some(&mut store),
        )
        .unwrap();
        assert!(acc > 0.5);
        assert!(report.checkpoints_written > 0);
        let (_, state) = store.load_latest().unwrap().unwrap();
        assert_eq!(state.layers.len(), 2);
        assert_eq!(state.alphas.len(), 1);
        // The checkpointed parameters are the live ones.
        assert_eq!(state.layers[0].w, model.layers().weights(0).as_slice().to_vec());
        assert_eq!(state.alphas, model.alphas());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
