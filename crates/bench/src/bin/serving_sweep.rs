//! Serving overload chaos sweep (EXPERIMENTS.md E21): offered QPS vs
//! goodput/p50/p99 for three runtime configurations, with and without an
//! active fault plan.
//!
//! The latency table is calibrated from the analytical model over the
//! full 11-workload suite; the load generator then drives the serving
//! engine in virtual time (seeded Poisson arrivals), so every cell is
//! bit-reproducible and the whole sweep runs in seconds of wall clock.
//!
//! Configurations:
//!
//! - `hardened` — admission control + deadline propagation +
//!   precision-tiered shedding + breaker (the full stack)
//! - `admission` — admission control and deadline propagation only
//! - `naive` — none of it: workers execute stale work (collapse
//!   baseline; late results still convert to timeouts, never delivered)
//!
//! Hard assertions, enforced on every cell: zero lost requests
//! (conservation) and zero deadline-violating completions. The overload
//! acceptance bar: hardened goodput at 2× saturation stays within 80% of
//! its 1× value while naive collapses below half of hardened.
//!
//! Usage: `serving_sweep [--smoke] [--seed N] [--json PATH]`;
//! any broken invariant or bar fails the run.

use rapid_bench::{run, section};
use rapid_fault::{derive_seed, FaultConfig};
use rapid_model::LatencyTable;
use rapid_numerics::GuardPolicy;
use rapid_recover::backend::Protection;
use rapid_serve::{
    run_open_loop, EmulatedSession, OfferedLoad, OkSession, ServeConfig, SweepResult, Tier,
};
use rapid_telemetry::{spans_to_trace, trace_path_from_env, TraceSink};
use rapid_workloads::graph::Network;
use rapid_workloads::suite::benchmark_suite;

use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;

struct Cell {
    config: &'static str,
    mult_label: &'static str,
    result: SweepResult,
}

fn main() -> std::process::ExitCode {
    run("serving_sweep", |ctx| {
        let seed = ctx.seed(7);
        let smoke = ctx.smoke();

        // ---- calibrate the admission surrogate over the full suite ---------
        let suite: Vec<Network> = benchmark_suite();
        let chip = ChipConfig::rapid_4core();
        let table = LatencyTable::build(&suite, &chip, 8);
        ctx.rec.config_num("models_calibrated", table.models().len() as f64);
        section(&format!(
            "serving sweep — {} models calibrated, seed {seed} (override with --seed or RAPID_FAULT_SEED)",
            table.models().len()
        ));

        // Load mix: a latency spread of CNNs plus a transformer. Saturation
        // is the mixed-capacity of the default worker pool at FP16.
        let models: Vec<String> = if smoke {
            vec!["resnet50".to_string()]
        } else {
            vec!["resnet50".to_string(), "mobilenetv1".to_string(), "bert".to_string()]
        };
        let base_cfg = ServeConfig::hardened();
        let mean_per_req_us = models
            .iter()
            .filter_map(|m| {
                let e = table.entry(m, Precision::Fp16)?;
                Some(e.per_item_us + e.base_us / base_cfg.batch_max as f64)
            })
            .sum::<f64>()
            / models.len() as f64;
        let sat_qps = base_cfg.workers as f64 * 1e6 / mean_per_req_us;
        // Deadline budget: a handful of full-batch service times, so queueing
        // headroom exists at saturation but stale work is clearly late.
        let worst_batch_us = models
            .iter()
            .filter_map(|m| table.estimate_us(m, Precision::Fp16, base_cfg.batch_max))
            .fold(0.0f64, f64::max);
        let deadline_budget_us = (4.0 * worst_batch_us) as u64 + 4 * base_cfg.batch_window_us;
        ctx.rec.metric("sweep.saturation_qps", sat_qps);
        ctx.rec.config_num("deadline_budget_us", deadline_budget_us as f64);
        println!(
            "mixed saturation ≈ {sat_qps:.0} qps, deadline budget {deadline_budget_us} us, \
             models: {models:?}"
        );

        // Keep virtual-event counts bounded: enough arrivals at 2× for stable
        // percentiles (and, in the full run, a window long enough that the
        // naive runtime's fill-the-queue transient stops dominating its
        // steady-state goodput), small enough that the sweep stays fast.
        let target_arrivals = if smoke { 2_000.0 } else { 25_000.0 };
        let duration_us = ((target_arrivals / (2.0 * sat_qps)) * 1e6) as u64;

        // The queue must be able to hold clearly *more* than one deadline
        // budget worth of work, or queue-full backpressure alone keeps even
        // the naive runtime's backlog fresh and hides the collapse the
        // experiment measures. Size it to 3× the admission-limited depth
        // (the number of requests a full deadline budget can drain), same
        // geometry at every calibrated workload mix.
        let admit_requests = deadline_budget_us as f64 * base_cfg.workers as f64 / mean_per_req_us;
        let queue_cap = base_cfg.queue_cap.max((3.0 * admit_requests).ceil() as usize);
        ctx.rec.config_num("queue_cap", queue_cap as f64);
        // Shedding watermarks must sit *below* the admission-limited depth,
        // or the shedder never engages before admission starts rejecting.
        // Anchor them to it: downgrades begin at half that occupancy.
        let admit_depth = admit_requests.min(queue_cap as f64) / queue_cap as f64;
        let shed = rapid_serve::ShedConfig {
            hi: (admit_depth * 0.5).clamp(0.05, 0.9),
            lo: (admit_depth * 0.2).clamp(0.02, 0.5),
            ..rapid_serve::ShedConfig::default()
        };
        let hardened = ServeConfig { shed: Some(shed), queue_cap, ..ServeConfig::hardened() };
        ctx.rec.config_num("shed_hi", shed.hi);
        let configs: [(&str, ServeConfig); 3] = [
            ("hardened", hardened.clone()),
            ("admission", ServeConfig { queue_cap, ..ServeConfig::admission_only() }),
            ("naive", ServeConfig { queue_cap, ..ServeConfig::naive() }),
        ];
        let mults: [(f64, &str); 4] = [(0.5, "0.5x"), (1.0, "1x"), (1.5, "1.5x"), (2.0, "2x")];

        // ---- sweep 1: overload curves, clean execution ---------------------
        section("sweep 1 — offered load vs goodput (clean execution)");
        println!(
            "{:<10} {:>6} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
            "config", "mult", "offered", "goodput", "p50 ms", "p99 ms", "shed", "downgr", "reject",
            "timeout"
        );
        let mut cells: Vec<Cell> = Vec::new();
        for (cname, cfg) in &configs {
            for &(mult, mlabel) in &mults {
                let load = OfferedLoad {
                    qps: sat_qps * mult,
                    duration_us,
                    seed: derive_seed(seed, &format!("serving_sweep/{cname}/{mlabel}")),
                    deadline_budget_us,
                    critical_fraction: 0.1,
                    models: models.clone(),
                    tier: Tier::Fp16,
                };
                let r = run_open_loop(cfg, &table, &load, &OkSession);
                println!(
                    "{:<10} {:>6} {:>10.0} {:>10.0} {:>9.2} {:>9.2} {:>8} {:>8} {:>8} {:>8}",
                    cname,
                    mlabel,
                    r.offered_qps,
                    r.goodput_qps,
                    r.p50_ms,
                    r.p99_ms,
                    r.counters.shed,
                    r.counters.downgraded,
                    r.counters.rejected,
                    r.counters.timed_out
                );
                cells.push(Cell { config: cname, mult_label: mlabel, result: r });
            }
        }

        let mut lost_total: i64 = 0;
        let mut violations_total: u64 = 0;
        for cell in &cells {
            let c = &cell.result.counters;
            lost_total += c.lost();
            violations_total += c.deadline_violations;
            let prefix = format!("{}.{}", cell.config, cell.mult_label);
            ctx.rec.metric(&format!("{prefix}.offered_qps"), cell.result.offered_qps);
            ctx.rec.metric(&format!("{prefix}.goodput_qps"), cell.result.goodput_qps);
            ctx.rec.metric(&format!("{prefix}.p50_ms"), cell.result.p50_ms);
            ctx.rec.metric(&format!("{prefix}.p99_ms"), cell.result.p99_ms);
            ctx.rec.metric(&format!("{prefix}.submitted"), c.submitted as f64);
            ctx.rec.metric(&format!("{prefix}.completed"), c.completed as f64);
            ctx.rec.metric(&format!("{prefix}.shed"), c.shed as f64);
            ctx.rec.metric(&format!("{prefix}.downgraded"), c.downgraded as f64);
            ctx.rec.metric(&format!("{prefix}.rejected"), c.rejected as f64);
            ctx.rec.metric(&format!("{prefix}.timed_out"), c.timed_out as f64);
            ctx.rec.metric(&format!("{prefix}.slo_alerts"), cell.result.slo.total_alerts() as f64);
        }

        let goodput = |cfg: &str, mult: &str| {
            cells
                .iter()
                .find(|c| c.config == cfg && c.mult_label == mult)
                .map(|c| c.result.goodput_qps)
                .unwrap_or(0.0)
        };

        // ---- sweep 2: chaos cells — same 1× load, faults on vs off ---------
        section("sweep 2 — fault plan active (serving transients + MAC upsets at 1× saturation)");
        let chaos_load = OfferedLoad {
            qps: sat_qps,
            duration_us: duration_us.min(if smoke { 200_000 } else { 500_000 }),
            seed: derive_seed(seed, "serving_sweep/chaos"),
            deadline_budget_us,
            critical_fraction: 0.1,
            models: models.clone(),
            tier: Tier::Hfp8,
        };
        let faulty_cfg = FaultConfig {
            seed: derive_seed(seed, "serving_sweep/chaos-faults"),
            serve_transient_rate: 0.05,
            mac_acc_rate: 1e-5,
            exponent_share: 0.7,
            ..FaultConfig::default()
        };
        let chaos_serve = hardened.clone();
        let clean_session = EmulatedSession::clean();
        let faulty_session =
            EmulatedSession::new(faulty_cfg, GuardPolicy::Error, Protection::Abft);
        let clean = run_open_loop(&chaos_serve, &table, &chaos_load, &clean_session);
        let faulty = run_open_loop(&chaos_serve, &table, &chaos_load, &faulty_session);
        let injected = faulty_session.fault_counts();
        println!(
            "{:<8} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8}",
            "plan", "goodput", "completed", "retries", "breaker", "reject", "timeout", "lost"
        );
        for (label, r) in [("clean", &clean), ("faulty", &faulty)] {
            let c = &r.counters;
            println!(
                "{:<8} {:>10.0} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8}",
                label,
                r.goodput_qps,
                c.completed,
                c.retries,
                c.breaker_opens,
                c.rejected,
                c.timed_out,
                c.lost()
            );
            ctx.rec.metric(&format!("chaos.{label}.goodput_qps"), r.goodput_qps);
            ctx.rec.metric(&format!("chaos.{label}.completed"), c.completed as f64);
            ctx.rec.metric(&format!("chaos.{label}.retries"), c.retries as f64);
            ctx.rec.metric(&format!("chaos.{label}.breaker_opens"), c.breaker_opens as f64);
            ctx.rec.metric(&format!("chaos.{label}.slo_alerts"), r.slo.total_alerts() as f64);
            lost_total += c.lost();
            violations_total += c.deadline_violations;
        }
        println!(
            "injected: {} serving transients over {} dispatch sites",
            injected.serve_transients, faulty.counters.batches
        );
        ctx.rec.metric("chaos.injected_transients", injected.serve_transients as f64);

        // ---- hard invariants and the overload acceptance bar ---------------
        section("invariants");
        ctx.rec.metric("sweep.lost_total", lost_total as f64);
        ctx.rec.metric("sweep.deadline_violations_total", violations_total as f64);
        // The burn-rate monitors ride every cell; the fault-free underloaded
        // one must never page.
        let alerts_05 = cells
            .iter()
            .find(|c| c.config == "hardened" && c.mult_label == "0.5x")
            .map_or(0, |c| c.result.slo.total_alerts());
        let h1 = goodput("hardened", "1x");
        let h2 = goodput("hardened", "2x");
        let n2 = goodput("naive", "2x");
        let retention = if h1 > 0.0 { h2 / h1 } else { 0.0 };
        let collapse = if h2 > 0.0 { n2 / h2 } else { 1.0 };
        ctx.rec.metric("sweep.hardened_2x_retention", retention);
        ctx.rec.metric("sweep.naive_2x_vs_hardened", collapse);
        println!("lost requests (all cells):            {lost_total}");
        println!("deadline-violating completions:       {violations_total}");
        println!("SLO alerts in hardened 0.5x (clean):  {alerts_05}");
        println!("hardened goodput retention 1x → 2x:   {:.1}%", retention * 100.0);
        println!("naive/hardened goodput ratio at 2x:   {:.2}", collapse);

        if lost_total != 0 {
            ctx.fail(format!("conservation violated: {lost_total} requests unaccounted"));
        }
        if violations_total != 0 {
            ctx.fail(format!("{violations_total} completions delivered past deadline"));
        }
        if retention < 0.8 {
            ctx.fail(format!(
                "hardened goodput at 2x fell to {:.0}% of its 1x value (floor: 80%)",
                retention * 100.0
            ));
        }
        if collapse >= 0.5 {
            ctx.fail(format!(
                "naive runtime did not collapse at 2x (got {:.2} of hardened goodput; expected < 0.5)",
                collapse
            ));
        }
        if alerts_05 != 0 {
            ctx.fail(format!(
                "burn-rate rules fired {alerts_05} alerts in the fault-free hardened 0.5x cell"
            ));
        }

        // With RAPID_TRACE set, rerun the hardened 1x clean cell with request
        // spans on and export them as a Chrome trace for Perfetto; the record
        // stamps where the trace went.
        if trace_path_from_env().is_some() {
            section("telemetry — request spans from the hardened 1x cell (RAPID_TRACE)");
            let span_cfg = ServeConfig { record_spans: true, span_seed: seed, ..hardened.clone() };
            let span_load = OfferedLoad {
                qps: sat_qps,
                duration_us: duration_us.min(200_000),
                seed: derive_seed(seed, "serving_sweep/trace"),
                deadline_budget_us,
                critical_fraction: 0.1,
                models: models.clone(),
                tier: Tier::Fp16,
            };
            let r = run_open_loop(&span_cfg, &table, &span_load, &OkSession);
            let mut trace = TraceSink::new();
            spans_to_trace(&r.spans, &mut trace, 1000, "serve", "serve requests");
            println!("{} request spans traced", r.spans.len());
            ctx.write_trace(&trace)?;
        }
        Ok(())
    })
}
