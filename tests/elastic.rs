//! End-to-end elastic-training suite: the node-loss survival stories of
//! DESIGN.md §11 exercised together through the `rapid` facade.
//!
//! - **A crash heals, training finishes.** A seeded node crash is
//!   detected, the dead rank is spliced out under a bumped membership
//!   epoch, in-flight chunks are re-reduced, and the run lands within 2
//!   accuracy points of the fault-free baseline.
//! - **Catch-up is bit-identical.** A node restored from checkpoint
//!   generation N−1 replays the missing epoch and matches the
//!   uninterrupted run's weights bit for bit at the next barrier.
//! - **Stragglers cost time, never membership.** A slowdown inside the
//!   deadline is waited out; beyond it the laggard is dropped from that
//!   exchange only.
//! - **Nothing hangs.** Whatever the seeded mix of crashes, hangs, and
//!   slowdowns, the elastic allreduce either returns a reduced vector or
//!   a structured error — in bounded modeled time.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::fault::{FaultConfig, FaultPlan};
use rapid::recover::{train_elastic, CheckpointStore, ElasticTrainConfig};
use rapid::refnet::backend::{Fp32Backend, Hfp8Backend};
use rapid::refnet::data::gaussian_blobs;
use rapid::refnet::mlp::Mlp;
use rapid::ring::{elastic_allreduce, ElasticConfig, ElasticError, Membership};

/// The model's parameters in reduction order — the unit the bit-identity
/// assertions compare.
fn weights_of(mlp: &Mlp) -> Vec<f32> {
    let mut out = Vec::new();
    for i in 0..mlp.depth() {
        out.extend_from_slice(mlp.weights(i).as_slice());
        out.extend_from_slice(mlp.biases(i));
    }
    out
}

fn train_cfg(world: u32, epochs: usize) -> ElasticTrainConfig {
    ElasticTrainConfig { epochs, ..ElasticTrainConfig::rapid_training(world) }
}

/// One seeded crash mid-run: the ring heals to 3 survivors under a new
/// membership epoch and accuracy stays within 2 points of fault-free.
#[test]
fn crashed_node_is_spliced_and_training_lands_within_two_points() {
    let data = gaussian_blobs(256, 4, 16, 0.35, 42);
    let mut clean = Mlp::new(&[16, 32, 4], 1);
    let mut mem = Membership::new(4).unwrap();
    let (acc_clean, _) = train_elastic(
        &mut clean,
        &Hfp8Backend::default(),
        &data,
        &train_cfg(4, 10),
        &mut mem,
        None,
        None,
        None,
    )
    .unwrap();
    let mut mlp = Mlp::new(&[16, 32, 4], 1);
    let mut mem = Membership::new(4).unwrap();
    let mut plan = FaultPlan::new(FaultConfig {
        seed: 7,
        node_crash_rate: 0.02,
        node_fault_budget: 1,
        ..FaultConfig::default()
    });
    let (acc, report) = train_elastic(
        &mut mlp,
        &Hfp8Backend::default(),
        &data,
        &train_cfg(4, 10),
        &mut mem,
        Some(&mut plan),
        None,
        None,
    )
    .unwrap();
    assert_eq!(report.crashes_survived, 1, "{report:?}");
    assert!(report.splices >= 1);
    assert_eq!(report.final_world, 3);
    assert_eq!(mem.epoch(), report.final_epoch);
    assert!(report.goodput() < 1.0, "healing must cost cycles");
    assert!(acc >= acc_clean - 0.02, "one crash cost too much: {acc} vs {acc_clean}");
}

/// Satellite contract: a node restored from checkpoint generation N−1
/// catches up bit-identically by the next barrier. The interrupted store
/// holds generations 0..N−1; a fresh node resuming over it replays epoch
/// N with the same data order and ring order, landing on the
/// uninterrupted run's weights exactly.
#[test]
fn node_restored_from_generation_n_minus_1_catches_up_bit_identical() {
    let dir = std::env::temp_dir().join(format!("rapid-elastic-it-catchup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = gaussian_blobs(128, 4, 16, 0.35, 44);
    let cfg = train_cfg(4, 6);

    // Uninterrupted run: 6 epochs, one checkpoint generation per barrier.
    let mut full = Mlp::new(&[16, 24, 4], 3);
    let mut mem = Membership::new(4).unwrap();
    let mut store = CheckpointStore::open(dir.join("full"), "el", 8).unwrap();
    train_elastic(&mut full, &Fp32Backend, &data, &cfg, &mut mem, None, Some(&mut store), None)
        .unwrap();

    // Interrupted run: the same schedule stops after 5 epochs, leaving
    // generation N−1 as the newest checkpoint.
    let mut part = Mlp::new(&[16, 24, 4], 3);
    let mut mem = Membership::new(4).unwrap();
    let mut store = CheckpointStore::open(dir.join("part"), "el", 8).unwrap();
    train_elastic(
        &mut part,
        &Fp32Backend,
        &data,
        &ElasticTrainConfig { epochs: 5, ..cfg },
        &mut mem,
        None,
        Some(&mut store),
        None,
    )
    .unwrap();

    // The restored node: fresh weights, resumes over the interrupted
    // store, replays only the missing epoch.
    let mut restored = Mlp::new(&[16, 24, 4], 99);
    let mut mem = Membership::new(4).unwrap();
    let mut store = CheckpointStore::open(dir.join("part"), "el", 8).unwrap();
    let (_, report) = train_elastic(
        &mut restored,
        &Fp32Backend,
        &data,
        &cfg,
        &mut mem,
        None,
        Some(&mut store),
        None,
    )
    .unwrap();
    assert_eq!(report.epochs_resumed, 5, "{report:?}");
    assert_eq!(report.steps_run, (data.len().div_ceil(cfg.batch)) as u64, "one epoch replayed");
    assert_eq!(
        weights_of(&restored),
        weights_of(&full),
        "generation N-1 catch-up must be bit-identical at the next barrier"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stragglers pay in exchange time only: within the deadline the ring
/// waits; beyond it the laggard's contribution is dropped — membership
/// and epoch are untouched either way.
#[test]
fn stragglers_never_cost_membership() {
    let inputs: Vec<Vec<f32>> = (0..4).map(|c| vec![c as f32 + 1.0; 64]).collect();
    let cfg = ElasticConfig::rapid_training(4, true);
    // Scan seeds for a run where some but not all members straggle past
    // the deadline (all-dropped legitimately errors instead).
    let dropped_case = (0..64u64).find_map(|seed| {
        let mut mem = Membership::new(4).unwrap();
        let mut plan = FaultPlan::new(FaultConfig {
            seed,
            node_slow_rate: 0.5,
            node_slow_factor: 4.0,
            ..FaultConfig::default()
        });
        let out = elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None).ok()?;
        (out.health.stragglers_dropped > 0).then_some((out, mem))
    });
    let (out, mem) = dropped_case.expect("some seed must drop 1–3 stragglers");
    assert!(out.contributors.len() < 4, "dropped laggards cannot contribute");
    assert_eq!(mem.members().len(), 4, "dropping is per-exchange, membership intact");
    assert_eq!(mem.epoch(), 0, "no splice, no epoch bump");
}

proptest! {
    /// The elastic allreduce is hang-free by construction: any seeded mix
    /// of crashes, hangs, and slowdowns either reduces over the survivors
    /// or returns a structured error — with modeled cycles bounded and
    /// membership never below the configured floor.
    #[test]
    fn elastic_allreduce_never_hangs_under_node_faults(
        seed in 0u64..u64::MAX,
        crash in 0.0f64..0.3,
        hang in 0.0f64..0.3,
        slow in 0.0f64..0.3,
    ) {
        let inputs: Vec<Vec<f32>> = (0..4).map(|c| vec![c as f32; 32]).collect();
        let cfg = ElasticConfig::rapid_training(4, true);
        let mut mem = Membership::new(4).unwrap();
        let mut plan = FaultPlan::new(FaultConfig {
            seed,
            node_crash_rate: crash,
            node_hang_rate: hang,
            node_slow_rate: slow,
            ..FaultConfig::default()
        });
        match elastic_allreduce(&inputs, &mut mem, &cfg, Some(&mut plan), None) {
            Ok(out) => {
                prop_assert!(!out.contributors.is_empty());
                prop_assert!(out.health.cycles >= out.health.ideal_cycles);
                prop_assert_eq!(out.reduced.len(), 32);
                for &v in &out.reduced {
                    prop_assert!(v.is_finite());
                }
            }
            Err(ElasticError::WorldTooSmall { survivors, min }) => {
                prop_assert!(survivors < min, "structured floor violation: {} < {}", survivors, min);
            }
            Err(other) => prop_assert!(false, "unexpected elastic failure: {}", other),
        }
    }
}
