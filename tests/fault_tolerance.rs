//! Fault-tolerance suite: seeded injectors, numeric guards, and the
//! deadlock watchdog working together across crates, through the `rapid`
//! facade.
//!
//! The invariants, mirroring DESIGN.md §6:
//!
//! - the ring protocol *drains* under any drop/duplicate/delay plan —
//!   faults cost cycles, never bytes;
//! - a genuine cyclic token dependency is reported as a structured
//!   [`SimError::Deadlock`] in bounded time, never a hang;
//! - [`GuardPolicy::Error`] localizes injected corruption in every RaPiD
//!   format (FP16, FP8 e4m3, FP8 e5m2, INT4, INT2);
//! - a plan with all injectors disabled is invisible: the guarded kernels
//!   are bit-exact against the fast paths;
//! - the same seed reproduces the same fault trace, event for event.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::arch::isa::SeqInstr;
use rapid::fault::{FaultConfig, FaultPlan};
use rapid::numerics::fma::FmaMode;
use rapid::numerics::gemm::{
    matmul_emulated, matmul_emulated_with, matmul_int, matmul_int_with, Exec,
};
use rapid::numerics::int::{IntFormat, QuantParams, Signedness};
use rapid::numerics::{GuardPolicy, NumericsError, Tensor};
use rapid::ring::sim::{multicast, unicast, RingSim};
use rapid::ring::{reliable_allreduce, ReliableConfig, ReliableError};
use rapid::sim::{run_token_programs, SimError};

fn mats(seed: u64) -> (Tensor, Tensor) {
    (
        Tensor::random_uniform(vec![8, 16], -1.0, 1.0, seed),
        Tensor::random_uniform(vec![16, 8], -1.0, 1.0, seed + 1),
    )
}

/// 256 deterministic fault plans spanning the drop/dup/delay grid: every
/// one must drain with full delivery (the acceptance floor for the ring
/// property tests).
#[test]
fn ring_drains_under_256_random_fault_plans() {
    let bytes = 4096u32;
    for seed in 0..256u64 {
        let cfg = FaultConfig {
            seed,
            ring_drop_rate: (seed % 8) as f64 * 0.015,
            ring_dup_rate: ((seed / 8) % 4) as f64 * 0.01,
            ring_delay_rate: ((seed / 32) % 8) as f64 * 0.015,
            ..FaultConfig::default()
        };
        let mut sim = RingSim::try_new(4, 20).expect("valid ring config");
        sim.set_fault_plan(FaultPlan::new(cfg));
        multicast(&mut sim, 9, 0, &[1, 2, 3], bytes);
        let t = sim
            .run_until_idle(10_000_000)
            .unwrap_or_else(|e| panic!("plan {seed} wedged the ring: {e}"));
        assert!(t > 0);
        for node in 1..4 {
            assert_eq!(
                sim.received_bytes(node),
                u64::from(bytes),
                "plan {seed}: node {node} lost bytes"
            );
        }
    }
}

#[test]
fn token_cycle_deadlock_is_reported_not_hung() {
    // A waits for B's token before signalling; B waits for A's: a circular
    // wait no amount of simulation will resolve.
    let a = vec![
        SeqInstr::WaitToken { token: 1, count: 1 },
        SeqInstr::SignalToken { token: 0 },
    ];
    let b = vec![
        SeqInstr::WaitToken { token: 0, count: 1 },
        SeqInstr::SignalToken { token: 1 },
    ];
    let err = run_token_programs(&[a, b], 2, 200).expect_err("circular wait must deadlock");
    let rendered = format!("{err}");
    assert!(rendered.contains("deadlocked"), "report should say so: {rendered}");
    match err {
        SimError::Deadlock { cycle, sequencer_states, waiting_tokens } => {
            assert!((200..1_000).contains(&cycle), "bounded detection, got {cycle}");
            assert_eq!(sequencer_states.len(), 2);
            assert_eq!(sequencer_states[0].waiting_on, Some((1, 1)));
            assert_eq!(sequencer_states[1].waiting_on, Some((0, 1)));
            assert_eq!(waiting_tokens, vec![(0, 0), (1, 0)]);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn same_seed_reproduces_identical_fault_trace() {
    let (a, b) = mats(77);
    let cfg = FaultConfig {
        seed: 1234,
        mac_operand_rate: 0.02,
        mac_acc_rate: 0.02,
        ..FaultConfig::default()
    };
    let run = |cfg: FaultConfig| {
        let mut plan = FaultPlan::new(cfg);
        let (c, _) = matmul_emulated_with(
            FmaMode::hfp8_fwd_default(),
            &a,
            &b,
            64,
            Exec { guard: GuardPolicy::Saturate, faults: Some(&mut plan), ..Exec::default() },
        )
        .expect("saturating guards never error");
        (c, plan.trace().to_vec(), plan.counts())
    };
    let (c1, trace1, counts1) = run(cfg);
    let (c2, trace2, counts2) = run(cfg);
    assert!(!trace1.is_empty(), "rates this high must fire");
    assert_eq!(trace1, trace2, "same seed, same trace");
    assert_eq!(counts1, counts2);
    assert_eq!(c1, c2, "same trace, same corrupted output");
    let (_, trace3, _) = run(FaultConfig { seed: 4321, ..cfg });
    assert_ne!(trace1, trace3, "different seed, different trace");
}

/// GuardPolicy::Error pinpoints injected non-finite accumulators in each
/// float format's pipeline. Exponent-targeted flips (share 1.0) push a
/// chunk accumulator to Inf/NaN quickly; not every seed lands one on a
/// vulnerable exponent, so each format scans a small seed range.
#[test]
fn guard_error_catches_float_injection_in_all_three_float_formats() {
    let a = Tensor::random_uniform(vec![8, 64], 0.5, 1.5, 3);
    let b = Tensor::random_uniform(vec![64, 8], 0.5, 1.5, 4);
    for (name, mode) in [
        ("fp16", FmaMode::Fp16),
        ("fp8 e4m3", FmaMode::hfp8_fwd_default()),
        ("fp8 e5m2", FmaMode::hfp8_bwd_default()),
    ] {
        let mut caught = false;
        for seed in 0..64 {
            let mut plan = FaultPlan::new(FaultConfig {
                seed,
                mac_acc_rate: 0.25,
                exponent_share: 1.0,
                ..FaultConfig::default()
            });
            let exec =
                Exec { guard: GuardPolicy::Error, faults: Some(&mut plan), ..Exec::default() };
            match matmul_emulated_with(mode, &a, &b, 64, exec) {
                Err(NumericsError::NonFinite { row, col, bits }) => {
                    assert!(row < 8 && col < 8, "{name}: coordinates in range");
                    assert!(!f32::from_bits(bits).is_finite());
                    caught = true;
                    break;
                }
                Ok(_) => {}
                Err(other) => panic!("{name}: unexpected error {other:?}"),
            }
        }
        assert!(caught, "{name}: no injected NaN/Inf caught across 64 seeds");
    }
}

/// GuardPolicy::Error pinpoints chunk-register corruption in the integer
/// pipeline for both INT4 and INT2: a high bit flipped into the INT16
/// chunk register breaches the legal worst-case bound.
#[test]
fn guard_error_catches_chunk_injection_in_int4_and_int2() {
    let a = Tensor::random_uniform(vec![4, 32], -0.7, 0.7, 5);
    let b = Tensor::random_uniform(vec![32, 4], -0.7, 0.7, 6);
    for fmt in [IntFormat::Int4, IntFormat::Int2] {
        let q = QuantParams::with_scale(fmt, Signedness::Signed, 0.1).expect("valid scale");
        let mut caught = false;
        for seed in 0..64 {
            let mut plan = FaultPlan::new(FaultConfig {
                seed,
                mac_acc_rate: 0.25,
                ..FaultConfig::default()
            });
            let exec =
                Exec { guard: GuardPolicy::Error, faults: Some(&mut plan), ..Exec::default() };
            match matmul_int_with(&a, &b, q, q, 32, exec) {
                Err(NumericsError::Overflow { row, col, .. }) => {
                    assert!(row < 4 && col < 4, "{fmt:?}: coordinates in range");
                    caught = true;
                    break;
                }
                Ok(_) => {}
                Err(other) => panic!("{fmt:?}: unexpected error {other:?}"),
            }
        }
        assert!(caught, "{fmt:?}: no injected overflow caught across 64 seeds");
    }
}

/// A fully disabled plan must be invisible: the guarded kernels take the
/// same fast paths PR 1's bit-exactness suite certifies, and the trace
/// stays empty.
#[test]
fn disabled_injectors_leave_every_fast_path_bit_exact() {
    let (a, b) = mats(9);
    for mode in [FmaMode::Fp16, FmaMode::hfp8_fwd_default(), FmaMode::hfp8_bwd_default()] {
        let (clean, _) = matmul_emulated(mode, &a, &b, 64);
        let mut plan = FaultPlan::disabled();
        let exec = Exec { guard: GuardPolicy::Error, faults: Some(&mut plan), ..Exec::default() };
        let (guarded, _) =
            matmul_emulated_with(mode, &a, &b, 64, exec).expect("clean run cannot trip the guard");
        assert_eq!(clean, guarded);
        assert!(plan.trace().is_empty());
        assert_eq!(plan.counts(), rapid::fault::FaultCounts::default());
    }
    for fmt in [IntFormat::Int4, IntFormat::Int2] {
        let q = QuantParams::with_scale(fmt, Signedness::Signed, 0.05).expect("valid scale");
        let (clean, _) = matmul_int(&a, &b, q, q, 64);
        let (guarded, _) = matmul_int_with(&a, &b, q, q, 64, Exec::default()).expect("clean run");
        assert_eq!(clean, guarded);
    }
}

proptest! {
    /// The ring drains under arbitrary random drop/dup/delay plans with a
    /// mixed multicast + reverse-unicast load: delivered bytes are
    /// invariant, only latency pays.
    #[test]
    fn ring_never_deadlocks_under_random_fault_plans(
        seed in 0u64..u64::MAX,
        drop in 0.0f64..0.10,
        dup in 0.0f64..0.05,
        delay in 0.0f64..0.10,
    ) {
        let mut sim = RingSim::try_new(4, 20).expect("valid ring config");
        sim.set_fault_plan(FaultPlan::new(FaultConfig {
            seed,
            ring_drop_rate: drop,
            ring_dup_rate: dup,
            ring_delay_rate: delay,
            ..FaultConfig::default()
        }));
        multicast(&mut sim, 3, 0, &[1, 2, 3], 2048);
        unicast(&mut sim, 4, 2, 0, 1024);
        let t = sim.run_until_idle(5_000_000);
        prop_assert!(t.is_ok(), "seed {} wedged the ring: {:?}", seed, t);
        for node in 1..4 {
            prop_assert_eq!(sim.received_bytes(node), 2048u64, "node {} lost bytes", node);
        }
        prop_assert_eq!(sim.received_bytes(0), 1024u64);
    }

    /// A permanently dead link (drop rate 1.0) can never deliver: the
    /// reliable allreduce must come back with the structured
    /// retries-exhausted error in bounded time — never a hang, never a
    /// partial sum — whatever the seed, world size, or payload.
    #[test]
    fn dead_link_yields_a_structured_timeout_never_a_hang(
        seed in 0u64..u64::MAX,
        chips in 2u32..6,
        elems in 1usize..512,
    ) {
        let inputs: Vec<Vec<f32>> = (0..chips)
            .map(|c| (0..elems).map(|i| (i + c as usize) as f32).collect())
            .collect();
        let cfg = ReliableConfig::rapid_training(chips, true);
        let mut plan = FaultPlan::new(FaultConfig {
            seed,
            ring_drop_rate: 1.0,
            ..FaultConfig::default()
        });
        match reliable_allreduce(&inputs, &cfg, Some(&mut plan), None) {
            Err(ReliableError::RetriesExhausted { seq: _, retries }) => {
                // The reported count is the attempt that broke the budget.
                prop_assert_eq!(retries, cfg.max_retries + 1, "budget must be fully spent");
            }
            other => prop_assert!(false, "dead link must exhaust retries, got {:?}", other),
        }
    }

    /// Saturating guards keep every faulted float GEMM finite, whatever
    /// the seed and rate — the property that lets training ride out hits.
    #[test]
    fn saturating_guards_keep_faulted_gemms_finite(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.2,
    ) {
        let (a, b) = mats(11);
        let mut plan = FaultPlan::new(FaultConfig {
            seed,
            mac_operand_rate: rate / 4.0,
            mac_acc_rate: rate,
            exponent_share: 1.0,
            ..FaultConfig::default()
        });
        let (c, _) = matmul_emulated_with(
            FmaMode::hfp8_fwd_default(),
            &a,
            &b,
            64,
            Exec { guard: GuardPolicy::Saturate, faults: Some(&mut plan), ..Exec::default() },
        ).expect("saturating guards never error");
        for &v in c.as_slice() {
            prop_assert!(v.is_finite(), "saturated output must stay finite, got {}", v);
        }
    }
}
