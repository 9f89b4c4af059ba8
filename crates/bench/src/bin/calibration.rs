//! Experiment E9: calibrate the analytical performance model against the
//! cycle-approximate core simulator over a GEMM sweep — our analog of the
//! paper's "performance model ... calibrated to within 1% of the
//! measurement results" (§V-A).

use rapid_arch::geometry::CoreletConfig;
use rapid_arch::precision::Precision;
use rapid_bench::{compare, mean, run, section, try_par_map};
use rapid_compiler::mapping::map_layer;
use rapid_numerics::Tensor;
use rapid_sim::chip::{try_run_chip_gemm_with, ChipGemmJob};
use rapid_arch::geometry::CoreConfig;
use rapid_sim::gemm::{CoreSim, GemmJob};
use rapid_telemetry::{trace_path_from_env, Telemetry};
use rapid_workloads::graph::Op;

fn main() -> std::process::ExitCode {
    run("calibration", |ctx| {
        section("E9 — analytical model vs cycle simulator (GEMM sweep, 1 core / 2 corelets)");
        println!(
            "{:<6} {:>5} {:>5} {:>5} {:>10} {:>10} {:>8}",
            "prec", "M", "K", "N", "sim cyc", "model cyc", "error"
        );
        let core = CoreSim::rapid();
        let corelet = CoreletConfig::default();
        let shapes = [
            (16usize, 128usize, 128usize),
            (32, 256, 128),
            (64, 256, 256),
            (8, 512, 128),
            (128, 64, 128),
            (7, 100, 70),
            (33, 130, 65),
        ];
        // One job per (shape, precision); the simulations are independent, so
        // fan them out over the worker pool and print in sweep order after.
        let jobs: Vec<(usize, usize, usize, usize, Precision)> = shapes
            .iter()
            .enumerate()
            .flat_map(|(i, &(m, k, n))| {
                [Precision::Fp16, Precision::Hfp8, Precision::Int4]
                    .into_iter()
                    .map(move |p| (i, m, k, n, p))
            })
            .collect();
        // try_par_map keeps the sweep alive if a single simulation dies: the
        // table completes with the failed row marked and the exit code flags it.
        let rows = try_par_map(&jobs, |&(i, m, k, n, p)| {
            let job = GemmJob {
                a: Tensor::random_uniform(vec![m, k], -1.0, 1.0, 400 + i as u64),
                b: Tensor::random_uniform(vec![k, n], -1.0, 1.0, 500 + i as u64),
                precision: p,
            };
            let r = core.run_gemm(&job);
            let op = Op::Gemm { m: m as u64, k: k as u64, n: n as u64, weighted: true };
            let predicted = map_layer(&op, p, 1, &corelet, 2).total_cycles();
            let err = (predicted - r.cycles as f64).abs() / r.cycles as f64;
            (m, k, n, p, r.cycles, predicted, err)
        });
        let mut errors = Vec::new();
        for (job, row) in jobs.iter().zip(rows) {
            match row {
                Ok((m, k, n, p, cycles, predicted, err)) => {
                    errors.push(err);
                    println!(
                        "{:<6} {:>5} {:>5} {:>5} {:>10} {:>10.0} {:>7.2}%",
                        p.to_string(),
                        m,
                        k,
                        n,
                        cycles,
                        predicted,
                        err * 100.0
                    );
                }
                Err(reason) => {
                    let (_, m, k, n, p) = *job;
                    println!("{:<6} {m:>5} {k:>5} {n:>5}     FAILED: {reason}", p.to_string());
                    ctx.fail(format!("{p} {m}x{k}x{n}: simulation crashed twice: {reason}"));
                }
            }
        }
        println!();
        compare(
            "mean calibration error",
            format!("{:.2}%", mean(&errors) * 100.0),
            "the paper's model is within 1% of silicon",
        );
        let max = errors.iter().cloned().fold(0.0f64, f64::max);
        compare("worst-case calibration error", format!("{:.2}%", max * 100.0), "n/a");
        ctx.rec.metric("calibration_error.mean", mean(&errors));
        ctx.rec.metric("calibration_error.max", max);

        // With RAPID_TRACE set, rerun one GEMM on the full 4-core chip with
        // telemetry on and export the cycle-level Chrome trace for Perfetto
        // (per-core sequencer/array tracks + ring + SFU).
        if trace_path_from_env().is_some() {
            section("telemetry — traced 4-core chip GEMM (RAPID_TRACE)");
            let job = ChipGemmJob {
                a: Tensor::random_uniform(vec![32, 256], -1.0, 1.0, 900),
                b: Tensor::random_uniform(vec![256, 256], -1.0, 1.0, 901),
                precision: Precision::Int4,
            };
            let mut tele = Telemetry::with_trace();
            let r =
                try_run_chip_gemm_with(&job, CoreConfig::default(), 4, 0, None, Some(&mut tele))
                    .map_err(|e| format!("traced chip GEMM failed: {e}"))?;
            println!(
                "chip GEMM 32x256x256 int4: {} cycles ({} distribution, {} compute)",
                r.total_cycles, r.distribution_cycles, r.compute_cycles
            );
            ctx.rec.metric("traced_chip_gemm.total_cycles", r.total_cycles as f64);
            ctx.rec.merge_registry(&tele.registry);
            ctx.write_trace(&tele.trace.take().unwrap_or_default())?;
        }
        Ok(())
    })
}
