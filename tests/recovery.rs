//! End-to-end recovery suite: the four survivability stories of
//! DESIGN.md §7 exercised together through the `rapid` facade.
//!
//! - **Training rides out datapath faults.** Under a seeded 1e-3 MAC
//!   bit-flip rate, HFP8 QAT on ABFT-protected GEMMs through the recovery
//!   loop (skip / back-off / rollback) finishes within 2% of the
//!   fault-free run — while the same faults without protection or the
//!   recovery layer surface a guard error and abort.
//! - **Checkpoints survive corruption.** A flipped byte in the newest
//!   generation fails its CRC32 and the previous generation loads.
//! - **The reliable allreduce is exact.** Under drop + duplicate + delay
//!   faults the ack/retransmit protocol delivers values bit-identical to
//!   the fault-free reduction; only cycles pay.
//! - **A dead core degrades, never corrupts.** A 4-core chip with one
//!   core failed computes bit-identical GEMM results on the 3 survivors,
//!   and the analytical model prices the slowdown above 1×.
//! - **A checkpoint that does not fit is refused.** Rolling back or
//!   resuming from a generation another model shape wrote is a
//!   structured error that writes nothing; one that fits resumes,
//!   whatever loss-scaler state it carries.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::fault::{derive_seed, FaultConfig, FaultPlan};
use rapid::model::core_sweep;
use rapid::numerics::int::IntFormat;
use rapid::numerics::{GuardPolicy, NumericsError};
use rapid::recover::{
    train_elastic, train_qat_resilient, CheckpointError, CheckpointStore, ElasticTrainConfig,
    ElasticTrainError, GuardedHfp8Backend, LayerState, Protection, RecoverError,
    ResilientConfig, TrainState,
};
use rapid::refnet::backend::{Backend, Fp32Backend, OperandRole};
use rapid::refnet::data::gaussian_blobs;
use rapid::refnet::mlp::Mlp;
use rapid::refnet::qat::{train_qat, QatConfig, QatMlp};
use rapid::refnet::DenseStack;
use rapid::ring::Membership;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use rapid::arch::geometry::CoreConfig;
use rapid::arch::precision::Precision;
use rapid::numerics::Tensor;
use rapid::ring::{reliable_allreduce, ReliableConfig};
use rapid::sim::{try_run_chip_gemm_with, ChipGemmJob};
use rapid::workloads::suite::benchmark;

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

/// (a) ABFT-protected recovery completes QAT within 2% of fault-free
/// under a 1e-3 MAC flip rate, repairing faults as it goes; the same
/// faults without protection or the recovery loop abort on the first
/// unguarded trip.
#[test]
fn qat_under_flips_recovers_while_unprotected_run_aborts() {
    let data = gaussian_blobs(256, 4, 16, 0.35, 42);
    let cfg = QatConfig { epochs: 12, ..QatConfig::default() };
    let mut clean = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
    let acc_clean = train_qat(&mut clean, &data, &cfg);

    let seed = derive_seed(7, "recovery/qat");
    // Without the recovery layer the same schedule surfaces a guard
    // error: the caller has nothing to do but abort.
    let unprotected = faulty_backend(seed, 1e-3, Protection::None);
    let mut doomed = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
    let mut aborted = false;
    'outer: for _ in 0..cfg.epochs {
        let mut start = 0;
        while start < data.len() {
            let end = (start + cfg.batch).min(data.len());
            let (bx, by) = data.batch(start, end);
            if doomed.try_step_with(&unprotected, &bx, by, 1.0).is_err() {
                aborted = true;
                break 'outer;
            }
            start = end;
        }
    }
    assert!(aborted, "1e-3 flips must trip the Error guard without recovery");

    let backend = faulty_backend(seed, 1e-3, Protection::Abft);
    let mut model = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
    let (acc, report) = train_qat_resilient(
        &mut model,
        &backend,
        &data,
        &cfg,
        &ResilientConfig::default(),
        None,
    )
    .expect("recovery absorbs a 1e-3 flip rate");
    let abft = backend.abft_report();
    assert!(abft.corrections > 0, "ABFT must repair the injected faults: {abft:?}");
    assert!(
        acc > acc_clean - 0.02,
        "resilient {acc} within 2% of fault-free {acc_clean}: {report:?}"
    );
}

/// (b) A flipped byte in the newest checkpoint generation fails its
/// checksum; the store falls back to the previous generation.
#[test]
fn corrupted_checkpoint_is_rejected_and_previous_generation_loads() {
    let dir = std::env::temp_dir()
        .join(format!("rapid-recovery-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir, "train", 4).expect("store opens");
    let state_at = |step: u64| TrainState {
        step,
        rng_state: 0,
        scale: 256.0,
        scaler_good_steps: 0,
        layers: vec![LayerState {
            rows: 2,
            cols: 2,
            w: vec![step as f32; 4],
            b: vec![0.5; 2],
        }],
        alphas: vec![1.0],
    };
    store.save(&state_at(10)).expect("gen 0 saves");
    store.save(&state_at(20)).expect("gen 1 saves");

    // Flip one payload byte in the newest generation.
    let newest = dir.join("train.1.ckpt");
    let mut bytes = std::fs::read(&newest).expect("read newest");
    let mid = bytes.len() - 3;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("write corrupted");

    let (_, loaded) = store
        .load_latest()
        .expect("load scans generations")
        .expect("previous generation survives");
    assert_eq!(loaded.step, 10, "fallback must be the older checkpoint");
    assert_eq!(store.corrupt_skipped(), 1, "the flipped byte must be counted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A backend whose first `.0` GEMMs trip a guard and whose later ones
/// compute in FP32: under [`rollback_at_once`] the first step rolls back
/// to the store's newest generation, then training goes on.
struct FailFirst(Cell<u32>);

impl Backend for FailFirst {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        let left = self.0.get();
        if left > 0 {
            self.0.set(left - 1);
            return Err(NumericsError::NonFinite { row: 0, col: 0, bits: f32::NAN.to_bits() });
        }
        Fp32Backend.try_matmul(a, b, roles)
    }

    fn name(&self) -> &'static str {
        "fail-first"
    }
}

/// Recovery that rolls back on the first failed step and never writes a
/// generation of its own, so the rollback loads what the test stored.
fn rollback_at_once() -> ResilientConfig {
    ResilientConfig { rollback_after: 1, checkpoint_every: u64::MAX, ..ResilientConfig::default() }
}

/// A layer stack's parameters as checkpoint layers.
fn layer_states(layers: &DenseStack) -> Vec<LayerState> {
    (0..layers.depth())
        .map(|i| {
            let w = layers.weights(i);
            LayerState {
                rows: w.shape()[0] as u64,
                cols: w.shape()[1] as u64,
                w: w.as_slice().to_vec(),
                b: layers.biases(i).to_vec(),
            }
        })
        .collect()
}

/// A fresh store directory per call (proptest cases run in one process).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rapid-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (e) A rollback that loads a generation written by a model of another
/// shape — wider layers, or another PACT level count — fails with a
/// structured checkpoint error instead of panicking mid-restore, and
/// leaves the model as the failed step's snapshot left it.
#[test]
fn rollback_into_another_models_checkpoint_is_a_structured_error() {
    let data = gaussian_blobs(64, 4, 16, 0.35, 47);
    let cfg = QatConfig { epochs: 1, batch: 16 };
    let wider = QatMlp::new(&[16, 24, 4], IntFormat::Int4, 2);
    let same = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 2);
    let foreign = [
        ("wider", layer_states(wider.layers()), wider.alphas()),
        ("two alphas", layer_states(same.layers()), vec![4.0; 2]),
    ];
    for (name, layers, alphas) in foreign {
        let dir = scratch_dir("recovery-foreign");
        let mut store = CheckpointStore::open(&dir, "qat", 2).unwrap();
        store.save(&TrainState { scale: 256.0, layers, alphas, ..TrainState::default() }).unwrap();
        let mut model = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
        let before = (model.layers().flatten(), model.alphas());
        let err = train_qat_resilient(
            &mut model,
            &FailFirst(Cell::new(1)),
            &data,
            &cfg,
            &rollback_at_once(),
            Some(&mut store),
        )
        .expect_err("a foreign generation must not restore");
        assert!(
            matches!(err, RecoverError::Checkpoint(CheckpointError::ModelMismatch(_))),
            "{name}: {err}"
        );
        assert_eq!((model.layers().flatten(), model.alphas()), before, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `base` with one edit: 0 none, 1 a layer dropped, 2 a layer repeated,
/// 3 a layer's rows or 4 its columns grown by `by` (weights and biases
/// resized to match, so the file stays self-consistent), 5 a layer's bias
/// grown alone, 6 one PACT level more, 7 the first PACT level set to
/// `alpha`.
fn edited(base: &TrainState, kind: u8, at: usize, by: u64, alpha: f32) -> TrainState {
    let mut s = base.clone();
    let i = at % s.layers.len();
    match kind {
        1 => {
            s.layers.remove(i);
        }
        2 => s.layers.push(s.layers[i].clone()),
        3 | 4 => {
            let l = &mut s.layers[i];
            if kind == 3 {
                l.rows += by;
            } else {
                l.cols += by;
                l.b.resize(l.cols as usize, 0.25);
            }
            l.w.resize((l.rows * l.cols) as usize, -0.5);
        }
        5 => s.layers[i].b.extend(std::iter::repeat_n(0.25, by as usize)),
        6 => s.alphas.push(4.0),
        7 => match s.alphas.first_mut() {
            Some(a) => *a = alpha,
            None => s.alphas.push(alpha),
        },
        _ => {}
    }
    s
}

proptest! {
    /// (f) CRC-valid checkpoints with arbitrary layer counts and shapes, PACT
    /// level counts and values, loss scales and clean-step counts resume a
    /// fixed model through both resume paths — the resilient loop's
    /// rollback (QAT) and the elastic loop's start-up (MLP). Each ends in
    /// a trained model when the checkpoint fits and in a structured
    /// mismatch error when it does not; neither panics.
    #[test]
    fn any_checkpoint_resumes_or_is_refused(
        kind in 0u8..8,
        at in 0usize..4,
        by in 1u64..3,
        steps in (0u8..4, 0u32..=u32::MAX),
        scale in -1.0e9f32..1.0e9,
        alpha in -1.0f32..8.0,
    ) {
        let data = gaussian_blobs(16, 3, 4, 0.3, 9);
        // Half the cases carry a clean-step count at the top of the u32
        // range, where an unclamped restore overflows the next step.
        let good_steps = if steps.0 < 2 { u32::MAX - u32::from(steps.0) } else { steps.1 };

        let qat = QatMlp::new(&[4, 6, 3], IntFormat::Int4, 1);
        let base = TrainState {
            step: 3,
            scale,
            scaler_good_steps: good_steps,
            layers: layer_states(qat.layers()),
            alphas: qat.alphas(),
            ..TrainState::default()
        };
        let state = edited(&base, kind, at, by, alpha);
        let fits = kind == 0 || (kind == 7 && alpha > 0.0);
        let dir = scratch_dir("recovery-any");
        let mut store = CheckpointStore::open(&dir, "qat", 2).unwrap();
        store.save(&state).unwrap();
        let mut model = QatMlp::new(&[4, 6, 3], IntFormat::Int4, 1);
        let cfg = QatConfig { epochs: 1, batch: 8 };
        match train_qat_resilient(
            &mut model,
            &FailFirst(Cell::new(1)),
            &data,
            &cfg,
            &rollback_at_once(),
            Some(&mut store),
        ) {
            Ok((acc, report)) => {
                prop_assert!(fits, "kind {} must not restore", kind);
                prop_assert_eq!(report.rollbacks, 1);
                prop_assert!((0.0..=1.0).contains(&acc));
            }
            Err(RecoverError::Checkpoint(CheckpointError::ModelMismatch(_))) => {
                prop_assert!(!fits, "kind {} fits and must restore", kind);
            }
            Err(other) => prop_assert!(false, "unexpected failure: {}", other),
        }

        let mlp = Mlp::new(&[4, 6, 3], 1);
        let base = TrainState { alphas: Vec::new(), layers: layer_states(mlp.layers()), ..base };
        let state = edited(&base, kind, at, by, alpha);
        let mut store = CheckpointStore::open(dir.join("elastic"), "el", 2).unwrap();
        store.save(&state).unwrap();
        let mut model = Mlp::new(&[4, 6, 3], 1);
        let mut mem = Membership::new(2).unwrap();
        let cfg =
            ElasticTrainConfig { epochs: 2, batch: 8, ..ElasticTrainConfig::rapid_training() };
        let store = Some(&mut store);
        match train_elastic(&mut model, &Fp32Backend, &data, &cfg, &mut mem, None, store, None) {
            Ok((acc, report)) => {
                prop_assert_eq!(kind, 0, "only the unedited state fits the MLP");
                prop_assert_eq!(report.epochs_resumed, 1);
                prop_assert!((0.0..=1.0).contains(&acc));
            }
            Err(ElasticTrainError::Checkpoint(CheckpointError::ModelMismatch(_))) => {
                prop_assert!(kind != 0, "the unedited state fits and must resume");
                prop_assert_eq!(model.layers().flatten(), mlp.layers().flatten());
            }
            Err(other) => prop_assert!(false, "unexpected failure: {}", other),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// (c) The ack/retransmit allreduce delivers bit-identical values under
/// drop + duplicate + delay faults; the health report prices the cost.
#[test]
fn reliable_allreduce_is_bit_identical_under_faults() {
    let chips = 4usize;
    let elems = 32_768usize;
    let inputs: Vec<Vec<f32>> = (0..chips)
        .map(|c| {
            (0..elems)
                .map(|i| ((i * 31 + c * 7919) % 997) as f32 * 0.25 - 120.0)
                .collect()
        })
        .collect();
    let cfg = ReliableConfig::rapid_training();
    let (clean, clean_health) =
        reliable_allreduce(&inputs, &cfg, None, None).expect("fault-free allreduce");

    let seed = derive_seed(7, "recovery/allreduce");
    let mut plan = FaultPlan::new(FaultConfig {
        seed,
        ring_drop_rate: 0.04,
        ring_dup_rate: 0.02,
        ring_delay_rate: 0.02,
        ..FaultConfig::default()
    });
    let (faulty, health) =
        reliable_allreduce(&inputs, &cfg, Some(&mut plan), None).expect("protocol absorbs faults");

    assert_eq!(clean, faulty, "reduced values must be bit-identical");
    assert!(health.retransmits > 0, "4% drops must force retransmits: {health:?}");
    assert!(health.cycles > clean_health.cycles, "faults must cost cycles");
    assert!(
        health.bandwidth_retention() < 1.0,
        "retention must reflect the overhead: {health:?}"
    );
}

/// (d) Killing one of four cores leaves GEMM results bit-identical on
/// the survivors, and the model prices the 4→3 inference slowdown in
/// (1.0, 4/3 + ε].
#[test]
fn degraded_chip_matches_healthy_values_and_pays_slowdown() {
    let job = ChipGemmJob {
        a: Tensor::random_uniform(vec![24, 48], -1.0, 1.0, 99),
        b: Tensor::random_uniform(vec![48, 32], -1.0, 1.0, 100),
        precision: Precision::Fp16,
    };
    let core = CoreConfig::default();
    let healthy = try_run_chip_gemm_with(&job, core, 4, 0, None, None).expect("healthy chip runs");
    let degraded =
        try_run_chip_gemm_with(&job, core, 4, 0b0010, None, None).expect("3 cores survive");
    assert_eq!(degraded.cores.len(), 3, "one core is gone");
    assert_eq!(healthy.c, degraded.c, "remapped columns must be bit-identical");
    assert!(
        degraded.compute_cycles > healthy.compute_cycles,
        "3 survivors pay more cycles: {} vs {}",
        degraded.compute_cycles,
        healthy.compute_cycles
    );

    let net = benchmark("resnet50").expect("suite has resnet50");
    let points = core_sweep(&net, [4, 3], Precision::Int4);
    assert_eq!(points.len(), 2);
    let slowdowns: Vec<f64> = points.iter().map(|p| p.latency_s / points[0].latency_s).collect();
    assert_eq!(points[0].count, 4);
    assert!((slowdowns[0] - 1.0).abs() < 1e-9, "4/4 survivors is the baseline");
    assert_eq!(points[1].count, 3);
    let slowdown = slowdowns[1];
    assert!(
        slowdown > 1.0 && slowdown < 4.0 / 3.0 + 0.05,
        "3-core slowdown should sit in (1, 4/3+ε]: {slowdown}"
    );
}
