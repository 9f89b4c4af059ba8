//! End-to-end data-protection sweep (E19): what each protection layer
//! catches and what it costs.
//!
//! 1. **ABFT under MAC faults** — resilient HFP8 QAT under per-MAC fault
//!    injection on ABFT checksummed GEMMs (detect + repair inside the
//!    kernel, O(m+n) extra work). At 1e-3 it must hold accuracy within 2%
//!    of the fault-free run, and its measured extra compute must be at
//!    most a quarter of redundancy-3's analytic 2× tax (sweep 3's row).
//! 2. **SECDED scratchpads + CRC ring flits** — a 256-plan sweep of
//!    scratchpad bit flips (through the cycle simulator) and corrupted
//!    ring flits (through the reliable allreduce). Every flip is either
//!    corrected, or detected-and-escalated/retransmitted; **zero** silent
//!    deliveries are tolerated.
//! 3. **The protection tax** — the analytical overhead ledger from
//!    `rapid-arch`/`rapid-model`: storage, bandwidth, and compute taxes
//!    for a full network.
//!
//! Usage: `protection_sweep [--smoke] [--seed N] [--json PATH]`. The seed
//! honours `RAPID_FAULT_SEED` (`--seed` wins); every cell derives its own
//! child stream. A silent delivery, no ABFT repairs, or a missing 1e-3
//! cell fails the run.

use rapid_arch::precision::Precision;
use rapid_arch::protection::{
    crc_bandwidth_factor, REDUNDANCY3_OVERHEAD_RATIO, SECDED_ENERGY_UPLIFT,
    SECDED_STORAGE_OVERHEAD,
};
use rapid_bench::{run, section, try_par_map};
use rapid_fault::{derive_seed, FaultConfig, FaultPlan};
use rapid_model::protection::protection_tax;
use rapid_numerics::int::IntFormat;
use rapid_numerics::{GuardPolicy, Tensor};
use rapid_recover::{train_qat_resilient, GuardedHfp8Backend, Protection, ResilientConfig};
use rapid_refnet::data::gaussian_blobs;
use rapid_refnet::qat::{train_qat, QatConfig, QatMlp};
use rapid_ring::{reliable_allreduce, ReliableConfig};
use rapid_sim::gemm::{CoreSim, GemmJob};
use rapid_sim::SimError;
use rapid_telemetry::{MetricsRegistry, Telemetry};
use rapid_workloads::suite::benchmark;

/// One ABFT-protected training cell: accuracy, recovery report, ABFT's
/// measured extra compute, and the backend's metric registry (ABFT
/// counters ride along).
struct TrainCell {
    accuracy: f64,
    applied: u64,
    skipped: u64,
    rollbacks: u64,
    extra_compute: f64,
    corrections: u64,
    metrics: MetricsRegistry,
}

fn run_abft(
    data: &rapid_refnet::data::Dataset,
    cfg: &QatConfig,
    seed: u64,
    rate: f64,
) -> Result<TrainCell, String> {
    let backend = GuardedHfp8Backend::new(
        FaultConfig {
            seed: derive_seed(seed, &format!("protection_sweep/abft-{rate:e}")),
            mac_acc_rate: rate,
            mac_operand_rate: rate / 4.0,
            ..FaultConfig::default()
        },
        GuardPolicy::Error,
        Protection::Abft,
    );
    let mut model = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
    let (accuracy, report) =
        train_qat_resilient(&mut model, &backend, data, cfg, &ResilientConfig::default(), None)
            .map_err(|e| e.to_string())?;
    let abft = backend.abft_report();
    Ok(TrainCell {
        accuracy,
        applied: report.steps_applied,
        skipped: report.steps_skipped,
        rollbacks: report.rollbacks,
        extra_compute: abft.overhead_ratio() - 1.0,
        corrections: abft.corrections,
        metrics: backend.metrics(),
    })
}

fn main() -> std::process::ExitCode {
    run("protection_sweep", |ctx| {
        let seed = ctx.seed(11);
        let smoke = ctx.smoke();
        section(&format!(
            "protection sweep — end-to-end data protection (seed {seed}; override with --seed or RAPID_FAULT_SEED)"
        ));
        let mut tele = Telemetry::new();

        // ---- sweep 1: ABFT under MAC faults ---------------------------------
        section("sweep 1 — ABFT checksummed GEMM under MAC faults (resilient HFP8 QAT)");
        let epochs = if smoke { 4 } else { 12 };
        let data = gaussian_blobs(if smoke { 256 } else { 512 }, 4, 16, 0.35, 42);
        let cfg = QatConfig { epochs, ..QatConfig::default() };
        let mut clean = QatMlp::new(&[16, 32, 4], IntFormat::Int4, 1);
        let acc_clean = train_qat(&mut clean, &data, &cfg);
        ctx.rec.metric("train.clean_accuracy", acc_clean);
        // Redundancy-3's compute tax, the analytic row sweep 3 prints for
        // every workload: two extra executions of every MAC.
        let red3_tax = REDUNDANCY3_OVERHEAD_RATIO;

        let rates: &[f64] = if smoke { &[1e-3] } else { &[1e-4, 1e-3] };
        let rows = try_par_map(rates, |&rate| run_abft(&data, &cfg, seed, rate));
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>10}",
            "flip rate", "applied", "skipped", "rollbks", "accuracy", "vs clean", "overhead",
            "repairs"
        );
        let mut headline = None;
        for (&rate, row) in rates.iter().zip(rows) {
            match row {
                Ok(Ok(cell)) => {
                    let delta = cell.accuracy - acc_clean;
                    println!(
                        "{:<10} {:>8} {:>8} {:>8} {:>9.1}% {:>8.1}% {:>8.2}x {:>10}",
                        format!("{rate:.0e}"),
                        cell.applied,
                        cell.skipped,
                        cell.rollbacks,
                        cell.accuracy * 100.0,
                        delta * 100.0,
                        cell.extra_compute,
                        cell.corrections
                    );
                    ctx.rec.metric(&format!("train.rate{rate:e}.abft.accuracy"), cell.accuracy);
                    let key = format!("train.rate{rate:e}.abft.overhead");
                    ctx.rec.metric(&key, cell.extra_compute);
                    tele.registry.merge(&cell.metrics);
                    if rate == 1e-3 {
                        headline = Some((cell.extra_compute, delta));
                    }
                }
                Ok(Err(reason)) => {
                    println!("{:<10}   unsurvivable: {reason}", format!("{rate:.0e}"))
                }
                Err(reason) => {
                    println!("{:<10}   FAILED: {reason}", format!("{rate:.0e}"));
                    ctx.fail(format!("abft at {rate:e}: worker crashed twice: {reason}"));
                }
            }
        }
        // The headline contract at the documented 1e-3 ceiling: ABFT holds
        // accuracy within 2% of fault-free, and its measured extra compute
        // is at most a quarter of redundancy-3's analytic tax.
        if let Some((oh_abft, d_abft)) = headline {
            assert!(d_abft.abs() <= 0.02, "ABFT accuracy drifted {d_abft:.3} from fault-free");
            assert!(
                oh_abft <= red3_tax / 4.0,
                "ABFT overhead {oh_abft:.2}x must be at most a quarter of \
                 redundancy-3's {red3_tax:.2}x"
            );
            ctx.rec.metric("train.abft_advantage", red3_tax / oh_abft.max(1e-9));
            println!(
                "\nat 1e-3 per-MAC faults ABFT holds accuracy within 2% of fault-free at\n\
                 {:.2}x extra compute, where redundancy-3 voting would cost {:.2}x — \
                 a {:.1}× advantage.",
                oh_abft,
                red3_tax,
                red3_tax / oh_abft.max(1e-9)
            );
        } else {
            ctx.fail("the 1e-3 headline contract needs the abft cell");
        }

        // ---- sweep 2: SECDED scratchpads + CRC ring flits, 256 plans --------
        section("sweep 2 — SECDED scratchpads + CRC ring flits (zero silent deliveries)");
        let plans_per_side = if smoke { 16 } else { 128 };

        // Scratchpad side: GEMMs through the cycle simulator with particle
        // strikes on the L1 words. Every plan must end bit-exact (SEC) or in
        // a structured uncorrectable error (DED) — never silently wrong.
        let core = CoreSim::rapid();
        let job = GemmJob {
            a: Tensor::random_uniform(vec![8, 64], -1.0, 1.0, 1),
            b: Tensor::random_uniform(vec![64, 32], -1.0, 1.0, 2),
            precision: Precision::Fp16,
        };
        let clean_c = core.run_gemm(&job).c;
        let spad_rates = [2e-3, 1e-2, 5e-2];
        let spad_cells: Vec<u64> = (0..plans_per_side as u64).collect();
        let spad_rows = try_par_map(&spad_cells, |&i| {
            let mut plan = FaultPlan::new(FaultConfig {
                seed: derive_seed(seed, &format!("protection_sweep/spad-{i}")),
                spad_flip_rate: spad_rates[i as usize % spad_rates.len()],
                ..FaultConfig::default()
            });
            let mut t = Telemetry::new();
            let outcome = core.try_run_gemm(&job, Some(&mut plan), Some(&mut t));
            let flips = plan.counts().spad_flips;
            match outcome {
                Ok(r) => Ok((r.c == clean_c, false, flips, t.registry)),
                Err(SimError::EccUncorrectable { .. }) => Ok((true, true, flips, t.registry)),
                Err(e) => Err(e.to_string()),
            }
        });
        let (mut spad_exact, mut spad_escalated, mut spad_silent, mut spad_flips) = (0u64, 0u64, 0u64, 0u64);
        for row in spad_rows {
            let (bit_exact, escalated, flips, reg) =
                row.map_err(|p| format!("spad cell panicked: {p}"))??;
            spad_flips += flips;
            tele.registry.merge(&reg);
            if escalated {
                spad_escalated += 1;
            } else if bit_exact {
                spad_exact += 1;
            } else {
                spad_silent += 1;
            }
        }
        let sec = tele.registry.counter("sim.ecc.sec");
        let ded = tele.registry.counter("sim.ecc.ded");
        println!(
            "scratchpad: {} plans, {} flips injected — {} bit-exact (SEC corrected {}), \
             {} escalated (DED {}), {} silent",
            plans_per_side, spad_flips, spad_exact, sec, spad_escalated, ded, spad_silent
        );
        assert_eq!(spad_silent, 0, "a scratchpad flip was silently delivered");
        assert!(sec > 0, "the sweep must exercise single-bit correction");
        ctx.rec.metric("spad.plans", plans_per_side as f64);
        ctx.rec.metric("spad.sec", sec as f64);
        ctx.rec.metric("spad.ded", ded as f64);
        ctx.rec.metric("spad.silent", spad_silent as f64);

        // Ring side: reliable allreduce with corrupted flits. CRC must turn
        // every corruption into a retransmission and a bit-identical result.
        let chips = 4usize;
        let elems = if smoke { 4096 } else { 16_384 };
        let inputs: Vec<Vec<f32>> = (0..chips)
            .map(|c| (0..elems).map(|i| ((i * 31 + c * 7919) % 997) as f32 * 0.25 - 120.0).collect())
            .collect();
        let rcfg = ReliableConfig::rapid_training();
        let (clean_sum, _) = reliable_allreduce(&inputs, &rcfg, None, None)?;
        let ring_rates = [1e-3, 5e-3, 2e-2];
        let ring_cells: Vec<u64> = (0..plans_per_side as u64).collect();
        let ring_rows = try_par_map(&ring_cells, |&i| {
            let mut plan = FaultPlan::new(FaultConfig {
                seed: derive_seed(seed, &format!("protection_sweep/ring-{i}")),
                ring_corrupt_rate: ring_rates[i as usize % ring_rates.len()],
                ring_drop_rate: if i % 2 == 0 { 5e-3 } else { 0.0 },
                ..FaultConfig::default()
            });
            let mut t = Telemetry::new();
            reliable_allreduce(&inputs, &rcfg, Some(&mut plan), Some(&mut t))
                .map(|(sum, health)| (sum == clean_sum, health, t.registry))
                .map_err(|e| e.to_string())
        });
        let (mut ring_exact, mut ring_retrans, mut ring_silent) = (0u64, 0u64, 0u64);
        for row in ring_rows {
            let (bit_identical, health, reg) =
                row.map_err(|p| format!("ring cell panicked: {p}"))??;
            tele.registry.merge(&reg);
            ring_retrans += health.crc_retransmits;
            ring_silent += health.silent_corruptions;
            if bit_identical {
                ring_exact += 1;
            }
        }
        println!(
            "ring:       {} plans — {} bit-identical, {} CRC retransmits, {} silent",
            plans_per_side, ring_exact, ring_retrans, ring_silent
        );
        assert_eq!(ring_exact, plans_per_side as u64, "a corrupted flit damaged a reduction");
        assert_eq!(ring_silent, 0, "a corrupted flit was silently delivered");
        assert!(ring_retrans > 0, "the sweep must exercise CRC retransmission");
        ctx.rec.metric("ring.plans", plans_per_side as f64);
        ctx.rec.metric("ring.crc_retransmits", ring_retrans as f64);
        ctx.rec.metric("ring.silent", ring_silent as f64);
        println!(
            "\nall {} plans delivered protected data: corrected, retransmitted, or escalated —",
            2 * plans_per_side
        );
        println!("never silently wrong.");

        // ---- sweep 3: the analytical protection tax -------------------------
        section("sweep 3 — the protection tax (storage / bandwidth / compute)");
        let nets = if smoke { vec!["mobilenetv1"] } else { vec!["resnet50", "bert"] };
        println!(
            "{:<14} {:>12} {:>12} {:>10} {:>10} {:>12}",
            "workload", "abft tax", "red3 tax", "advantage", "l1 factor", "link factor"
        );
        for name in nets {
            let net = benchmark(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
            let tax = protection_tax(&net, 1);
            println!(
                "{:<14} {:>11.2}% {:>11.0}% {:>9.1}x {:>10.3} {:>12.4}",
                name,
                tax.abft_overhead_ratio * 100.0,
                tax.redundancy3_overhead_ratio * 100.0,
                tax.abft_advantage(),
                tax.l1_storage_factor,
                tax.link_bandwidth_factor
            );
            ctx.rec.metric(&format!("{name}.abft_tax"), tax.abft_overhead_ratio);
            ctx.rec.metric(&format!("{name}.abft_advantage"), tax.abft_advantage());
        }
        println!(
            "\nSECDED charges {:.1}% scratchpad capacity and {:.0}% access energy; CRC-8",
            SECDED_STORAGE_OVERHEAD * 100.0,
            SECDED_ENERGY_UPLIFT * 100.0
        );
        println!("shaves {:.2}% of link bandwidth; ABFT's checksum work amortizes to noise on", (1.0 - crc_bandwidth_factor()) * 100.0);
        println!("real layer shapes — protection is cheap everywhere except brute-force voting.");

        ctx.rec.merge_registry(&tele.registry);
        // ABFT must actually have repaired something under the 1e-3 faults.
        ctx.require_positive("recover.abft.corrections");
        Ok(())
    })
}
