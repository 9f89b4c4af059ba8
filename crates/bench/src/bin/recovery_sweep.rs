//! Recovery-layer sweep (E17): what surviving faults *costs*. Where
//! `fault_sweep` asks whether bare SGD rides out corruption, this sweep
//! drives the recovery machinery of DESIGN.md §7 and prices it:
//!
//! 1. **MAC flip rate vs recovery effort** — HFP8 QAT through the
//!    resilient loop (anomaly/clip gates, skip + loss-scale backoff,
//!    rollback), once on ABFT-protected GEMMs (the recovery default) and
//!    once unprotected. Reported per rate and protection: steps
//!    applied/skipped, rollbacks and the steps they cost, the final loss
//!    scale, ABFT repairs, and accuracy vs the fault-free run. ABFT must
//!    hold accuracy within 2% of fault-free at every rate; the
//!    unprotected accuracy is reported, not asserted.
//! 2. **Ring fault rate vs retransmit overhead** — the ack/retransmit
//!    allreduce delivers bit-identical sums under drops/dups/delays; the
//!    overhead is retransmissions and cycles over the fault-free ideal.
//! 3. **Degraded-core slowdown** — the 4-core chip losing cores one at a
//!    time: batch-1 inference latency on the survivors vs healthy.
//!
//! Usage: `recovery_sweep [--smoke] [--seed N] [--json PATH]`. The seed
//! also honours `RAPID_FAULT_SEED` (`--seed` wins); every cell derives its
//! own child stream. Unsurvivable unprotected rates are expected outcomes;
//! a row whose worker crashed twice is marked `FAILED` and fails the run.

use rapid_arch::precision::Precision;
use rapid_bench::{run, section, try_par_map};
use rapid_fault::{derive_seed, FaultConfig, FaultPlan};
use rapid_model::core_sweep;
use rapid_numerics::int::IntFormat;
use rapid_numerics::GuardPolicy;
use rapid_recover::{train_qat_resilient, GuardedHfp8Backend, Protection, ResilientConfig};
use rapid_refnet::data::gaussian_blobs;
use rapid_refnet::qat::{train_qat, QatConfig, QatMlp};
use rapid_ring::{reliable_allreduce, ReliableConfig};
use rapid_telemetry::Telemetry;
use rapid_workloads::suite::benchmark;

fn main() -> std::process::ExitCode {
    run("recovery_sweep", |ctx| {
        let seed = ctx.seed(7);
        let smoke = ctx.smoke();
        section(&format!(
            "recovery sweep — cost of surviving faults (seed {seed}; override with --seed or RAPID_FAULT_SEED)"
        ));

        // ---- sweep 1: MAC flip rate vs resilient-training effort ------------
        let epochs = if smoke { 4 } else { 12 };
        let data = gaussian_blobs(if smoke { 256 } else { 512 }, 4, 16, 0.35, 42);
        let cfg = QatConfig { epochs, ..QatConfig::default() };
        let mut clean = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
        let acc_clean = train_qat(&mut clean, &data, &cfg);

        let rates: &[f64] = if smoke { &[0.0, 1e-3] } else { &[0.0, 1e-5, 1e-4, 1e-3] };
        section("sweep 1 — MAC flip rate vs resilient HFP8 QAT (ABFT / skip / backoff / rollback)");
        println!(
            "{:<10} {:<5} {:>8} {:>8} {:>8} {:>6} {:>7} {:>8} {:>9} {:>9}",
            "flip rate", "mode", "applied", "skipped", "rollbks", "lost", "scale", "repairs",
            "accuracy", "vs clean"
        );
        // (rate, label, protection) cells: independent runs fanned out over
        // the worker pool. Both protections of a rate share one fault seed.
        let cells: Vec<(f64, &str, Protection)> = rates
            .iter()
            .flat_map(|&r| [(r, "abft", Protection::Abft), (r, "none", Protection::None)])
            .collect();
        let rows = try_par_map(&cells, |&(rate, _, protection)| {
            let backend = GuardedHfp8Backend::new(
                FaultConfig {
                    seed: derive_seed(seed, &format!("recovery_sweep/train-{rate:e}")),
                    mac_acc_rate: rate,
                    mac_operand_rate: rate / 4.0,
                    ..FaultConfig::default()
                },
                GuardPolicy::Error,
                protection,
            );
            let mut model = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
            let rcfg = ResilientConfig::default();
            train_qat_resilient(&mut model, &backend, &data, &cfg, &rcfg, None)
                .map(|(acc, r)| (acc, r, backend.abft_report().corrections))
                .map_err(|e| e.to_string())
        });
        for (&(rate, label, protection), row) in cells.iter().zip(rows) {
            let rate_s = format!("{rate:.0e}");
            match row {
                Ok(Ok((acc, r, repairs))) => {
                    ctx.rec.metric(&format!("train.rate{rate:e}.{label}.accuracy"), acc);
                    ctx.rec.metric(
                        &format!("train.rate{rate:e}.{label}.rollbacks"),
                        r.rollbacks as f64,
                    );
                    println!(
                        "{:<10} {:<5} {:>8} {:>8} {:>8} {:>6} {:>7.0} {:>8} {:>8.1}% {:>8.1}%",
                        rate_s,
                        label,
                        r.steps_applied,
                        r.steps_skipped,
                        r.rollbacks,
                        r.steps_lost_to_rollback,
                        r.final_scale,
                        repairs,
                        acc * 100.0,
                        (acc - acc_clean) * 100.0
                    );
                    if protection == Protection::Abft && acc < acc_clean - 0.02 {
                        ctx.fail(format!(
                            "ABFT at {rate:e}: accuracy {acc:.3} is more than 2% below \
                             fault-free {acc_clean:.3}"
                        ));
                    }
                }
                Ok(Err(reason)) => {
                    println!("{rate_s:<10} {label:<5}   unsurvivable: {reason}");
                    if protection == Protection::Abft {
                        ctx.fail(format!("ABFT at {rate:e} did not survive: {reason}"));
                    }
                }
                Err(reason) => {
                    println!("{rate_s:<10} {label:<5}   FAILED: {reason}");
                    ctx.fail(format!("{label} at {rate:e}: worker crashed twice: {reason}"));
                }
            }
        }
        println!("\nABFT repairs faulty GEMM elements inside the kernel, so protected runs");
        println!("rarely trip; unprotected, every detected trip costs a skipped step and a");
        println!("loss-scale backoff, and bursts cost a rollback to the last good checkpoint.");

        // ---- sweep 2: ring fault rate vs retransmit overhead ----------------
        section("sweep 2 — ring fault rate vs ack/retransmit allreduce overhead");
        let chips = 4usize;
        let elems = if smoke { 16_384 } else { 65_536 };
        let inputs: Vec<Vec<f32>> = (0..chips)
            .map(|c| (0..elems).map(|i| ((i * 31 + c * 7919) % 997) as f32 * 0.25 - 120.0).collect())
            .collect();
        let rcfg = ReliableConfig::rapid_training();
        // Accumulate RingHealth counters for every exchange into one telemetry
        // bundle; they land in the JSON record as ring.reliable.* metrics.
        let mut tele = Telemetry::new();
        let (clean_sum, clean_health) = reliable_allreduce(&inputs, &rcfg, None, Some(&mut tele))?;
        println!(
            "{:<8} {:<8} {:<8} {:>8} {:>10} {:>8} {:>12} {:>10}",
            "drop", "dup", "delay", "chunks", "retrans", "dups", "cycles", "retention"
        );
        for &(drop, dup, delay) in
            &[(0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.02, 0.01, 0.01), (0.05, 0.02, 0.02)]
        {
            let mut plan = FaultPlan::new(FaultConfig {
                seed: derive_seed(seed, &format!("recovery_sweep/ring-{drop}-{dup}-{delay}")),
                ring_drop_rate: drop,
                ring_dup_rate: dup,
                ring_delay_rate: delay,
                ..FaultConfig::default()
            });
            let (sum, health) = reliable_allreduce(&inputs, &rcfg, Some(&mut plan), Some(&mut tele))?;
            assert_eq!(sum, clean_sum, "reduced values must be bit-identical under faults");
            println!(
                "{:<8} {:<8} {:<8} {:>8} {:>10} {:>8} {:>12} {:>9.1}%",
                format!("{:.0}%", drop * 100.0),
                format!("{:.0}%", dup * 100.0),
                format!("{:.0}%", delay * 100.0),
                health.chunks,
                health.retransmits,
                health.duplicates_discarded,
                health.cycles,
                health.bandwidth_retention() * 100.0
            );
            ctx.rec.metric(&format!("ring.drop{drop}.retention"), health.bandwidth_retention());
        }
        println!(
            "\nfault-free exchange: {} cycles; every faulty exchange reduced bit-identically",
            clean_health.cycles
        );
        println!("(asserted above) — the fault rate only buys retransmissions and cycles.");

        // ---- sweep 3: degraded-core inference slowdown ----------------------
        section("sweep 3 — degraded-core operation: 4-core chip losing cores");
        let floor = if smoke { 3 } else { 1 };
        println!(
            "{:<12} {:>10} {:>12} {:>10} {:>14}",
            "workload", "survivors", "latency ms", "slowdown", "inf/s"
        );
        let nets = if smoke { vec!["resnet50"] } else { vec!["resnet50", "bert"] };
        for name in nets {
            let net = benchmark(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
            let pts = core_sweep(&net, (floor..=4).rev(), Precision::Int4);
            for p in &pts {
                let slowdown = p.latency_s / pts[0].latency_s;
                ctx.rec.metric(&format!("{name}.survivors{}.slowdown", p.count), slowdown);
                println!(
                    "{:<12} {:>10} {:>12.3} {:>9.2}x {:>14.0}",
                    name,
                    p.count,
                    p.latency_s * 1e3,
                    slowdown,
                    p.throughput
                );
            }
        }
        println!("\na dead core never corrupts results: its column partition is remapped across");
        println!("the survivors, so the chip answers bit-identically and only latency pays.");
        ctx.rec.metric("train.clean_accuracy", acc_clean);
        ctx.rec.merge_registry(&tele.registry);
        Ok(())
    })
}
