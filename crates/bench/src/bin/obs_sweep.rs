//! Observability sweep (E23): the tracing + SLO + exposition contracts,
//! exercised end to end and hard-asserted.
//!
//! Three serving cells over the virtual-time chaos harness, all with
//! request spans and burn-rate SLO monitoring on:
//!
//! 1. **clean** — fault-free 0.8× saturation. The monitors must stay
//!    silent, and per-class critical-path attribution must sum to total
//!    request latency within 1%.
//! 2. **chaos** — a seeded serving-transient storm (60% of dispatches
//!    fail at the session). The deadline burn-rate rule must fire, and
//!    running the cell twice from the same seed must reproduce the alert
//!    list bit for bit.
//! 3. **overload** — fault-free 2.5× saturation. The shed-rate rule
//!    pages while conservation and the no-late-delivery invariant hold.
//!
//! After the cells the sweep merges the serve-level request spans with a
//! cycle-level 4-core chip-GEMM trace into **one** Chrome-trace sink —
//! written under `RAPID_TRACE` — so request spans and sim tracks render
//! in a single Perfetto timeline. Every cell registry is rendered as
//! OpenMetrics text and round-tripped through
//! `telemetry::openmetrics::validate`; `RAPID_METRICS=<path>` dumps the
//! merged snapshot.
//!
//! Usage: `obs_sweep [--smoke] [--seed N] [--json PATH]`.

use rapid_arch::geometry::CoreConfig;
use rapid_arch::precision::Precision;
use rapid_bench::{run, section, BenchRecord};
use rapid_fault::{derive_seed, FaultConfig};
use rapid_numerics::{GuardPolicy, Tensor};
use rapid_recover::backend::Protection;
use rapid_serve::{
    run_open_loop, synthetic_table, EmulatedSession, OfferedLoad, OkSession, ServeConfig,
    SweepResult, Tier,
};
use rapid_sim::chip::{try_run_chip_gemm_with, ChipGemmJob};
use rapid_telemetry::span::{critical_path, spans_to_trace, validate_forest};
use rapid_telemetry::{metrics_path_from_env, openmetrics, MetricsRegistry, Telemetry, TraceSink};

/// Validates the per-cell observability contracts shared by every cell:
/// conservation, no late deliveries, a well-nested span forest, and
/// critical-path attribution within 1% of total request latency.
fn check_cell(label: &str, r: &SweepResult, rec: &mut BenchRecord) -> Result<(), String> {
    let c = &r.counters;
    if c.lost() != 0 {
        return Err(format!("{label}: conservation violated: {} requests unaccounted", c.lost()));
    }
    if c.deadline_violations != 0 {
        return Err(format!(
            "{label}: {} completions delivered past deadline",
            c.deadline_violations
        ));
    }
    if r.spans.is_empty() {
        return Err(format!("{label}: span recording was on but no spans were captured"));
    }
    validate_forest(&r.spans).map_err(|e| format!("{label}: span forest invalid: {e}"))?;
    for cp in critical_path(&r.spans) {
        let gap = cp.total.abs_diff(cp.attributed());
        // The E23 attribution bar: per class, stage spans must account
        // for total request latency within 1%.
        if gap * 100 > cp.total {
            return Err(format!(
                "{label}: class {} attribution off by more than 1%: {} of {} unattributed",
                cp.class, gap, cp.total
            ));
        }
        let (stage, dur) = cp.dominant().unwrap_or(("none", 0));
        println!(
            "  {label:<9} {:<16} {:>6} reqs  dominant {stage:<10} {:>5.1}% of {:>9} us",
            cp.class,
            cp.requests,
            if cp.total > 0 { dur as f64 / cp.total as f64 * 100.0 } else { 0.0 },
            cp.total
        );
    }
    rec.metric(&format!("{label}.goodput_qps"), r.goodput_qps);
    rec.metric(&format!("{label}.p50_ms"), r.p50_ms);
    rec.metric(&format!("{label}.p99_ms"), r.p99_ms);
    rec.metric(&format!("{label}.spans"), r.spans.len() as f64);
    for rule in &r.slo.rules {
        rec.metric(&format!("{label}.slo.{}.alerts", rule.name), rule.alerts.len() as f64);
        rec.metric(&format!("{label}.slo.{}.bad", rule.name), rule.bad as f64);
    }
    Ok(())
}

/// Renders a cell's registry as OpenMetrics text and feeds it back
/// through the strict parser — every emitted snapshot must validate.
fn roundtrip_snapshot(label: &str, reg: &MetricsRegistry) -> Result<String, String> {
    let text = openmetrics::render_labeled(reg, &[("experiment", "obs_sweep"), ("cell", label)]);
    openmetrics::validate(&text)
        .map_err(|e| format!("{label}: emitted OpenMetrics snapshot rejected: {e}"))?;
    Ok(text)
}

#[allow(clippy::too_many_lines)] // one linear experiment script, like its siblings
fn main() -> std::process::ExitCode {
    run("obs_sweep", |ctx| {
        let seed = ctx.seed(7);
        let smoke = ctx.smoke();
        section(&format!(
            "observability sweep — spans, burn-rate SLOs, OpenMetrics (E23; seed {seed})"
        ));

        // Synthetic latency table: capacity is analytically known, so cell
        // load multipliers are exact and the sweep needs no calibration pass.
        let models = vec!["resnet50".to_string(), "bert".to_string()];
        let table = synthetic_table(&["resnet50", "bert"], 150.0, 60.0);
        let cfg = ServeConfig { record_spans: true, span_seed: seed, ..ServeConfig::hardened() };
        let mean_per_req_us = 60.0 + 150.0 / cfg.batch_max as f64;
        let sat_qps = cfg.workers as f64 * 1e6 / mean_per_req_us;
        let worst_batch_us = 150.0 + cfg.batch_max as f64 * 60.0;
        let deadline_budget_us = (4.0 * worst_batch_us) as u64 + 4 * cfg.batch_window_us;
        ctx.rec.metric("sweep.saturation_qps", sat_qps);
        ctx.rec.config_num("deadline_budget_us", deadline_budget_us as f64);
        println!("saturation ≈ {sat_qps:.0} qps, deadline budget {deadline_budget_us} us");

        let load = |label: &str, mult: f64, duration_us: u64| OfferedLoad {
            qps: sat_qps * mult,
            duration_us,
            seed: derive_seed(seed, &format!("obs_sweep/{label}")),
            deadline_budget_us,
            critical_fraction: 0.1,
            models: models.clone(),
            tier: Tier::Fp16,
        };
        let scale = if smoke { 1 } else { 3 };

        // ---- cell 1: clean — silent monitors, exact attribution ------------
        section("cell 1 — clean 0.8x: monitors stay silent, attribution within 1%");
        let clean = run_open_loop(&cfg, &table, &load("clean", 0.8, 100_000 * scale), &OkSession);
        check_cell("clean", &clean, &mut ctx.rec)?;
        if clean.slo.total_alerts() != 0 {
            return Err(format!(
                "clean: burn-rate rules fired {} alerts in the fault-free underload cell",
                clean.slo.total_alerts()
            )
            .into());
        }
        println!("  clean cell: 0 alerts across {} rules (required)", clean.slo.rules.len());

        // ---- cell 2: chaos — deadline burns fire, deterministically --------
        section("cell 2 — transient storm at 1x: deadline burns fire, bit-reproducibly");
        let chaos_load = load("chaos", 1.0, 80_000 * scale);
        let session_cfg = FaultConfig {
            seed: derive_seed(seed, "obs_sweep/chaos-faults"),
            serve_transient_rate: 0.6,
            ..FaultConfig::default()
        };
        let run_chaos = || {
            let session = EmulatedSession::new(session_cfg, GuardPolicy::Error, Protection::None);
            run_open_loop(&cfg, &table, &chaos_load, &session)
        };
        let chaos = run_chaos();
        check_cell("chaos", &chaos, &mut ctx.rec)?;
        let deadline_alerts = chaos.slo.rule("deadline").map_or(0, |r| r.alerts.len());
        if deadline_alerts == 0 {
            return Err("chaos: 60% transient storm did not fire the deadline burn rule".into());
        }
        let replay = run_chaos();
        if replay.slo != chaos.slo || replay.counters != chaos.counters {
            return Err("chaos: same seed must reproduce identical alerts and counters".into());
        }
        if let Some(rule) = chaos.slo.rule("deadline") {
            for a in &rule.alerts {
                println!(
                    "  deadline alert at {:>7} us: fast burn {:.1}x, slow burn {:.1}x",
                    a.at_us, a.fast_burn, a.slow_burn
                );
            }
        }
        println!("  replay with the same seed: identical alert list (asserted)");

        // ---- cell 3: overload — the shed rule pages ------------------------
        section("cell 3 — fault-free 2.5x overload: the shed rule pages");
        let overload = run_open_loop(&cfg, &table, &load("overload", 2.5, 60_000 * scale), &OkSession);
        check_cell("overload", &overload, &mut ctx.rec)?;
        let shed_alerts = overload.slo.rule("shed").map_or(0, |r| r.alerts.len());
        if shed_alerts == 0 {
            return Err("overload: 2.5x offered load did not fire the shed burn rule".into());
        }
        println!("  shed rule fired {shed_alerts} alert(s) under 2.5x offered load");

        // ---- one Perfetto timeline: request spans + sim cycle tracks -------
        section("merged trace — serve request spans + 4-core chip GEMM cycle tracks");
        let mut trace = TraceSink::new();
        spans_to_trace(&clean.spans, &mut trace, 1000, "serve", "serve requests");
        let job = ChipGemmJob {
            a: Tensor::random_uniform(vec![16, 64], -1.0, 1.0, 900),
            b: Tensor::random_uniform(vec![64, 64], -1.0, 1.0, 901),
            precision: Precision::Int4,
        };
        let mut gemm_tele = Telemetry::with_trace();
        let gemm =
            try_run_chip_gemm_with(&job, CoreConfig::default(), 4, 0, None, Some(&mut gemm_tele))
                .map_err(|e| format!("traced chip GEMM failed: {e}"))?;
        if let Some(t) = gemm_tele.trace.take() {
            trace.merge(t);
        }
        let serve_events = trace.events().iter().filter(|e| e.cat == "serve").count();
        let sim_events =
            trace.events().iter().filter(|e| !matches!(e.cat, "serve" | "__metadata")).count();
        println!(
            "  {} serve span events + {} sim cycle events in one trace (chip GEMM: {} cycles)",
            serve_events, sim_events, gemm.total_cycles
        );
        if serve_events == 0 || sim_events == 0 {
            return Err(format!(
                "merged trace must carry both layers: {serve_events} serve events, {sim_events} sim events"
            )
            .into());
        }
        ctx.rec.metric("trace.serve_events", serve_events as f64);
        ctx.rec.metric("trace.sim_events", sim_events as f64);
        ctx.write_trace(&trace)?;

        // ---- OpenMetrics: every emitted snapshot must validate -------------
        section("OpenMetrics exposition — render → validate round trip on every snapshot");
        let mut merged = MetricsRegistry::new();
        for (label, r) in [("clean", &clean), ("chaos", &chaos), ("overload", &overload)] {
            let text = roundtrip_snapshot(label, &r.registry)?;
            println!("  {label:<9} snapshot: {} bytes, validated", text.len());
            merged.merge(&r.registry);
        }
        merged.merge(&gemm_tele.registry);
        let text = openmetrics::render_labeled(&merged, &[("experiment", "obs_sweep")]);
        let doc = openmetrics::validate(&text).map_err(|e| format!("merged snapshot rejected: {e}"))?;
        ctx.rec.metric("openmetrics.families", doc.families.len() as f64);
        println!("  merged snapshot: {} families, validated", doc.families.len());
        if let Some(path) = metrics_path_from_env() {
            // The harness writes the validated record snapshot there.
            ctx.rec.config_str("metrics_path", &path.display().to_string());
        }

        ctx.rec.merge_registry(&merged);
        Ok(())
    })
}
