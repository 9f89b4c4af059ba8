//! End-to-end recovery suite: the four survivability stories of
//! DESIGN.md §7 exercised together through the `rapid` facade.
//!
//! - **Training rides out datapath faults.** Under a seeded 1e-3 MAC
//!   bit-flip rate, HFP8 QAT through the recovery loop (skip / back-off /
//!   redundant-execution voting / rollback) finishes within 2% of the
//!   fault-free run — while the same configuration without the recovery
//!   layer surfaces a guard error and aborts.
//! - **Checkpoints survive corruption.** A flipped byte in the newest
//!   generation fails its CRC32 and the previous generation loads.
//! - **The reliable allreduce is exact.** Under drop + duplicate + delay
//!   faults the ack/retransmit protocol delivers values bit-identical to
//!   the fault-free reduction; only cycles pay.
//! - **A dead core degrades, never corrupts.** A 4-core chip with one
//!   core failed computes bit-identical GEMM results on the 3 survivors,
//!   and the analytical model prices the slowdown above 1×.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use rapid::fault::{derive_seed, FaultConfig, FaultPlan};
use rapid::model::{degraded_throughput, ModelConfig};
use rapid::numerics::int::IntFormat;
use rapid::numerics::GuardPolicy;
use rapid::recover::{
    train_qat_resilient, CheckpointStore, GuardedHfp8Backend, LayerState, ResilientConfig,
    TrainState,
};
use rapid::refnet::data::gaussian_blobs;
use rapid::refnet::qat::{train_qat, QatConfig, QatMlp};
use rapid::arch::geometry::CoreConfig;
use rapid::arch::precision::Precision;
use rapid::numerics::Tensor;
use rapid::ring::{reliable_allreduce, ReliableConfig};
use rapid::sim::{try_run_chip_gemm_with, ChipGemmJob};
use rapid::workloads::suite::benchmark;

fn faulty_backend(seed: u64, rate: f64) -> GuardedHfp8Backend {
    GuardedHfp8Backend::new(
        FaultConfig {
            seed,
            mac_acc_rate: rate,
            mac_operand_rate: rate / 4.0,
            ..FaultConfig::default()
        },
        GuardPolicy::Error,
    )
}

/// (a) Recovery completes QAT within 2% of fault-free under a 1e-3 MAC
/// flip rate; the identical configuration without the recovery loop
/// aborts on the first unguarded trip.
#[test]
fn qat_under_flips_recovers_while_unprotected_run_aborts() {
    let data = gaussian_blobs(256, 4, 16, 0.35, 42);
    let cfg = QatConfig { epochs: 12, ..QatConfig::default() };
    let mut clean = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
    let acc_clean = train_qat(&mut clean, &data, &cfg);

    let seed = derive_seed(7, "recovery/qat");
    // Without the recovery layer the same schedule surfaces a guard
    // error: the caller has nothing to do but abort.
    let unprotected = faulty_backend(seed, 1e-3);
    let mut doomed = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
    let mut aborted = false;
    'outer: for _ in 0..cfg.epochs {
        let mut start = 0;
        while start < data.len() {
            let end = (start + cfg.batch).min(data.len());
            let (bx, by) = data.batch(start, end);
            if doomed.try_step_with(&unprotected, &bx, by, &cfg, 1.0).is_err() {
                aborted = true;
                break 'outer;
            }
            start = end;
        }
    }
    assert!(aborted, "1e-3 flips must trip the Error guard without recovery");

    let backend = faulty_backend(seed, 1e-3);
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
    assert!(report.steps_skipped > 0, "faults must force skips: {report:?}");
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
    let cfg = ReliableConfig::rapid_training(chips as u32, true);
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
    let points =
        degraded_throughput(&net, 4, 3, Precision::Int4, &ModelConfig::default());
    assert_eq!(points.len(), 2);
    assert!((points[0].slowdown - 1.0).abs() < 1e-9, "4/4 survivors is the baseline");
    let three = &points[1];
    assert_eq!(three.survivors, 3);
    assert!(
        three.slowdown > 1.0 && three.slowdown < 4.0 / 3.0 + 0.05,
        "3-core slowdown should sit in (1, 4/3+ε]: {}",
        three.slowdown
    );
}
