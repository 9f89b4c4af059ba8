//! Fault-injection sweep (robustness experiment): how much seeded datapath
//! corruption the HFP8 training recipe absorbs, and how much delivered ring
//! bandwidth survives drop/delay faults. Two sweeps:
//!
//! 1. **MAC bit-flips vs convergence** — a [`GuardedHfp8Backend`] (the
//!    same backend the recovery loop drives, here with
//!    `Protection::None`) splices a seeded fault plan into every
//!    training GEMM; injected non-finite accumulators are
//!    saturated (`GuardPolicy::Saturate`) so the run continues through
//!    the hit, `guard_clamps` counts the damage, and final accuracy tells
//!    us whether SGD rode it out.
//! 2. **Ring faults vs bandwidth** — the same multicast used by E11, with
//!    flits dropped (source retransmits) and slots held; delivered
//!    B/cycle degrades but every byte still arrives.
//!
//! Usage: `fault_sweep [--smoke] [--seed N] [--json PATH]`. The seed also
//! honours `RAPID_FAULT_SEED` (`--seed` wins); each cell derives its own
//! child stream, so adding a rate never perturbs the other cells. A row
//! whose worker crashed twice is marked `FAILED` and fails the run.

use rapid_bench::{compare, run, section, try_par_map};
use rapid_fault::{derive_seed, FaultConfig, FaultPlan};
use rapid_numerics::GuardPolicy;
use rapid_recover::{GuardedHfp8Backend, Protection};
use rapid_refnet::backend::Fp32Backend;
use rapid_refnet::data::gaussian_blobs;
use rapid_refnet::mlp::{train, Mlp, TrainConfig};
use rapid_ring::sim::{multicast, RingSim};

fn main() -> std::process::ExitCode {
    run("fault_sweep", |ctx| {
        let seed = ctx.seed(7);
        let smoke = ctx.smoke();

        section(&format!(
            "fault sweep — seeded injection (seed {seed}; override with --seed or RAPID_FAULT_SEED)"
        ));

        // ---- sweep 1: MAC bit-flip rate vs HFP8 training convergence --------
        let epochs = if smoke { 4 } else { 25 };
        let data = gaussian_blobs(if smoke { 256 } else { 768 }, 4, 16, 0.35, 42);
        let cfg = TrainConfig { epochs };
        let mut fp32 = Mlp::new(&[16, 32, 4], 1);
        let acc32 = train(&mut fp32, &Fp32Backend, &data, &cfg);

        let rates: &[f64] =
            if smoke { &[0.0, 1e-3] } else { &[0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2] };
        section("sweep 1 — MAC accumulator/operand bit-flip rate vs HFP8 convergence");
        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "flip rate", "accuracy", "acc flips", "opd flips", "clamps", "vs FP32"
        );
        // Independent training runs: fan out over the worker pool. Each cell
        // gets its own derived seed so its fault stream is self-contained.
        let rows = try_par_map(rates, |&rate| {
            let backend = GuardedHfp8Backend::new(
                FaultConfig {
                    seed: derive_seed(seed, &format!("fault_sweep/rate-{rate:e}")),
                    mac_acc_rate: rate,
                    mac_operand_rate: rate / 4.0,
                    ..FaultConfig::default()
                },
                GuardPolicy::Saturate,
                Protection::None,
            );
            let mut mlp = Mlp::new(&[16, 32, 4], 1);
            let acc = train(&mut mlp, &backend, &data, &cfg);
            (acc, backend.counts(), backend.stats().guard_clamps)
        });
        for (&rate, row) in rates.iter().zip(rows) {
            match row {
                Ok((acc, counts, clamps)) => {
                    ctx.rec.metric(&format!("train.rate{rate:e}.accuracy"), acc);
                    ctx.rec.metric(&format!("train.rate{rate:e}.clamps"), clamps as f64);
                    println!(
                    "{:<12} {:>9.1}% {:>12} {:>12} {:>12} {:>11.1}%",
                    format!("{rate:.0e}"),
                    acc * 100.0,
                    counts.mac_acc_flips,
                    counts.mac_operand_flips,
                    clamps,
                    (acc - acc32) * 100.0
                );
                }
                Err(reason) => {
                    println!("{:<12}     FAILED: {reason}", format!("{rate:.0e}"));
                    ctx.fail(format!("flip rate {rate:e}: worker crashed twice: {reason}"));
                }
            }
        }
        println!("\nsaturating guards turn injected NaN/Inf into clamped FP16 values, so SGD");
        println!("absorbs sparse hits; convergence only collapses once flips become dense");
        println!("enough to corrupt most accumulation chunks.");

        // ---- sweep 2: ring drop/delay rate vs delivered bandwidth -----------
        section("sweep 2 — ring drop/delay fault rate vs delivered multicast bandwidth");
        let bytes: u32 = if smoke { 16 * 1024 } else { 128 * 1024 };
        println!(
            "{:<10} {:<10} {:>10} {:>10} {:>10} {:>12}",
            "drop", "delay", "cycles", "drops", "holds", "B/cycle"
        );
        let mut clean_bw = None;
        for &(drop, delay) in &[(0.0, 0.0), (0.01, 0.0), (0.0, 0.05), (0.02, 0.02), (0.05, 0.05)] {
            let mut sim = RingSim::try_new(4, 20)?;
            sim.set_fault_plan(FaultPlan::new(FaultConfig {
                seed: derive_seed(seed, &format!("fault_sweep/ring-{drop}-{delay}")),
                ring_drop_rate: drop,
                ring_delay_rate: delay,
                ..FaultConfig::default()
            }));
            multicast(&mut sim, 9, 0, &[1, 2, 3], bytes);
            let t = sim.run_until_idle(100_000_000)?;
            let delivered: u64 = (1..4).map(|n| sim.received_bytes(n)).sum();
            let bw = delivered as f64 / t as f64;
            let c = sim.take_fault_plan().map(|p| p.counts()).unwrap_or_default();
            clean_bw.get_or_insert(bw);
            ctx.rec.metric(&format!("ring.drop{drop}.delay{delay}.bw"), bw);
            ctx.rec.metric(&format!("ring.drop{drop}.delay{delay}.drops"), c.ring_drops as f64);
            println!(
                "{:<10} {:<10} {:>10} {:>10} {:>10} {:>12.2}",
                format!("{:.0}%", drop * 100.0),
                format!("{:.0}%", delay * 100.0),
                t,
                c.ring_drops,
                c.ring_holds,
                bw
            );
            assert_eq!(delivered, 3 * u64::from(bytes), "every byte must still arrive");
        }
        if let Some(base) = clean_bw {
            compare(
                "bandwidth under faults",
                format!("{base:.2} B/cycle fault-free baseline"),
                "drops cost a retransmit round-trip; holds cost their stall window",
            );
        }
        println!("\nthe protocol degrades gracefully: lost flits are retransmitted from the");
        println!("source node and held slots drain late, so delivered bytes are invariant —");
        println!("only the completion time (and thus bandwidth) pays for the fault rate.");
        ctx.rec.metric("train.clean_fp32_accuracy", acc32);
        Ok(())
    })
}
