//! Core-health sweep (E24): mercurial-core detection, quarantine, and
//! fleet remap, hard-asserted end to end.
//!
//! Seeded Gilbert–Elliott fault bursts turn chosen cores *intermittently*
//! wrong — the failure mode a static manufacturing-test mask can never
//! catch — and the sweep asserts the four contracts of the health layer:
//!
//! 1. **Bounded detection.** Every injected mercurial core is quarantined
//!    within a fixed probe-cycle budget, on every seed swept.
//! 2. **Zero silent-wrong completions.** A serving cell executes
//!    known-answer batches on the live `CoreMap` with ABFT plus a
//!    response-integrity gate (output bits checked against the model's
//!    golden before delivery; mismatches re-execute on the next
//!    in-service core). No response whose bits differ from the golden is
//!    ever delivered — `silent_wrong=0` is a hard assert at 1e-3
//!    intermittent burst rates.
//! 3. **Goodput retention ≥ the analytic floor.** After quarantine the
//!    cell's completion rate stays at or above
//!    `model::scaling::quarantine_retention(world, k)` of the clean
//!    baseline — the health layer may cost the capacity of the cores it
//!    removed, never more (pre-detection integrity retries are the
//!    transient it must end).
//! 4. **Bit-identical replay.** Rerunning any cell from the same seed
//!    reproduces the quarantine event trace, the serving counters, and
//!    the integrity tallies exactly.
//!
//! A final fleet phase demotes the sick chip from the elastic training
//! ring at a barrier (`ring::elastic::demote_unhealthy`) and completes an
//! allreduce over the survivors. Registries render as OpenMetrics and
//! must validate; probe-cycle spans must form a valid forest.
//!
//! Usage: `health_sweep [--smoke] [--seed N] [--json PATH]`. A broken
//! contract, or no `health.quarantines` in the record, fails the run.

use rapid_bench::{run, section};
use rapid_fault::{derive_seed, FaultConfig, FaultPlan};
use rapid_health::{ChipHealthMonitor, Evidence, HealthConfig};
use rapid_model::scaling::quarantine_retention;
use rapid_numerics::abft::abft_matmul_emulated;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::matmul_emulated_scalar;
use rapid_numerics::Tensor;
use rapid_ring::elastic::{demote_unhealthy, elastic_allreduce, ElasticConfig, ElasticEvent};
use rapid_ring::Membership;
use rapid_serve::{synthetic_table, QosClass, Request, ServeConfig, ServeEngine, Tier};
use rapid_telemetry::{
    openmetrics, validate_forest, MetricsRegistry, ServeCounters, Telemetry,
};

const CORES: u32 = 4;
const BAD_CORE: u32 = 2;
/// Probe cycles within which every injected mercurial core must be
/// quarantined (contract 1).
const DETECT_BUDGET: u64 = 32;

/// The Gilbert–Elliott burst process of one mercurial core: 1e-3 per-site
/// burst entry (the "intermittent flip rate" of the E24 contract), long
/// bursts, coin-flip corruption inside one.
fn mercurial(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        mac_burst_rate: 1e-3,
        mac_burst_len: 256,
        mac_burst_flip_rate: 0.5,
        ..FaultConfig::default()
    }
}

fn chip_plans(seed: u64, bad: &[u32]) -> Vec<FaultPlan> {
    (0..CORES)
        .map(|c| {
            let core_seed = derive_seed(seed, &format!("health/core{c}"));
            if bad.contains(&c) {
                FaultPlan::new(mercurial(core_seed))
            } else {
                FaultPlan::new(FaultConfig { seed: core_seed, ..FaultConfig::default() })
            }
        })
        .collect()
}

/// The serving cell's known-answer workload: one FP16 GEMM per request
/// with a precomputed bit-golden, so response integrity is checkable
/// before delivery (the model's outputs on its test vector are fixed).
struct KnownAnswerModel {
    a: Tensor,
    b: Tensor,
    chunk_len: usize,
    golden_bits: Vec<u32>,
}

impl KnownAnswerModel {
    fn new(seed: u64) -> Self {
        let a = Tensor::random_uniform(vec![8, 48], -1.0, 1.0, seed ^ 0x0005_EEDA);
        let b = Tensor::random_uniform(vec![48, 16], -1.0, 1.0, seed ^ 0x0005_EEDB);
        let chunk_len = 64;
        let (g, _) = matmul_emulated_scalar(FmaMode::Fp16, &a, &b, chunk_len);
        let golden_bits = g.as_slice().iter().map(|v| v.to_bits()).collect();
        Self { a, b, chunk_len, golden_bits }
    }
}

/// What one serving cell produced (every field enters the replay
/// equality check).
#[derive(Debug, PartialEq)]
struct CellResult {
    counters: ServeCounters,
    events: Vec<rapid_health::HealthEvent>,
    silent_wrong: u64,
    integrity_retries: u64,
    delivered: u64,
    quarantine_cycle: Option<u64>,
    /// Completions in the steady-state measurement window (the last
    /// third of the run, after quarantine has settled).
    window_completed: u64,
}

/// Runs the serving cell: virtual-time loop interleaving request
/// submission, batch execution on the live `CoreMap` (ABFT + integrity
/// gate), probe cycles, and capacity derate on quarantine.
#[allow(clippy::too_many_lines)] // one linear cell script
fn run_serving_cell(
    seed: u64,
    bad: &[u32],
    ticks: u64,
    tele: Option<&mut Telemetry>,
) -> Result<CellResult, String> {
    let model = KnownAnswerModel::new(derive_seed(seed, "health/model"));
    let hcfg = HealthConfig::default();
    let tick_us = hcfg.probe_period_us;
    let mut mon = ChipHealthMonitor::new(CORES, hcfg);
    let mut plans = chip_plans(seed, bad);

    let table = synthetic_table(&["kam"], 150.0, 60.0);
    let cfg = ServeConfig { batch_window_us: tick_us, ..ServeConfig::hardened() };
    let mut engine = ServeEngine::new(cfg, table);

    let mut tele = tele;
    let mut silent_wrong = 0u64;
    let mut integrity_retries = 0u64;
    let mut delivered = 0u64;
    let mut quarantine_cycle = None;
    let mut rr = 0u32;
    let window_start = ticks - ticks / 3;
    let mut completed_at_window = 0u64;

    for tick in 0..ticks {
        let now = tick * tick_us;
        // Two requests per tick, generous deadline: completion is
        // capacity-bound, not deadline-bound.
        for _ in 0..2 {
            let id = engine.allocate_id();
            engine.submit(
                Request {
                    id,
                    model: "kam".to_string(),
                    tier: Tier::Fp16,
                    qos: QosClass::Standard,
                    submit_us: now,
                    deadline_us: now + 40 * tick_us,
                },
                now,
            );
        }
        engine.tick(now);
        if let Some(batch) = engine.next_batch(now) {
            // Execute every member on the next in-service core; verify
            // output bits against the golden before delivery, retrying
            // on the other in-service cores on mismatch.
            let mut attempts_total = 0u64;
            for _ in &batch.requests {
                let in_service: Vec<u32> = mon.map().in_service_cores().collect();
                let mut ok = false;
                for attempt in 0..in_service.len() {
                    let core = in_service[(rr as usize + attempt) % in_service.len()];
                    attempts_total += 1;
                    let (out, _, abft) = abft_matmul_emulated(
                        FmaMode::Fp16,
                        &model.a,
                        &model.b,
                        model.chunk_len,
                        Some(&mut plans[core as usize]),
                    )
                    .map_err(|e| format!("serving GEMM failed: {e}"))?;
                    // ABFT repairs feed the health score in-band.
                    if abft.corrections > 0 {
                        mon.note_evidence(core, Evidence::AbftCorrection, abft.corrections);
                    }
                    let bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
                    if bits == model.golden_bits {
                        ok = true;
                        break;
                    }
                    // Integrity gate: a wrong response is never
                    // delivered; it re-executes elsewhere.
                    integrity_retries += 1;
                    mon.note_evidence(core, Evidence::CrcRetransmit, 1);
                }
                if ok {
                    delivered += 1;
                } else {
                    silent_wrong += 1; // all cores corrupted it — unreachable
                }
                rr = rr.wrapping_add(1);
            }
            // Service time scales with attempts over in-service cores.
            let exec_us = 100 * attempts_total / u64::from(mon.map().active().max(1));
            engine.complete_batch(batch, Ok(()), now + exec_us.min(tick_us));
        }
        // One probe cycle per tick; derate serving capacity when the map
        // changes.
        let before = mon.map().epoch();
        let rep = mon.probe_cycle(&mut plans, tele.as_deref_mut());
        if rep.epoch != before {
            engine.set_capacity_derate(mon.map().capacity_factor());
        }
        if quarantine_cycle.is_none() && bad.iter().all(|&b| !mon.map().in_service(b)) {
            quarantine_cycle = Some(rep.cycle);
        }
        if tick + 1 == window_start {
            completed_at_window = engine.counters().completed;
        }
    }
    let window_completed = engine.counters().completed - completed_at_window;
    if let Some(t) = tele {
        mon.record_into(&mut t.registry);
        t.registry.merge(engine.registry());
    }
    Ok(CellResult {
        counters: engine.counters(),
        events: mon.events().to_vec(),
        silent_wrong,
        integrity_retries,
        delivered,
        quarantine_cycle,
        window_completed,
    })
}

#[allow(clippy::too_many_lines)] // one linear experiment script, like its siblings
fn main() -> std::process::ExitCode {
    run("health_sweep", |ctx| {
        let seed = ctx.seed(24);
        let smoke = ctx.smoke();
        if !rapid_health::enabled_from_env() {
            // The RAPID_HEALTH knob gates the whole subsystem; E24 *is* the
            // subsystem, so an off run records the fact and exits cleanly.
            println!("RAPID_HEALTH=off: core-health probing disabled; skipping E24");
            ctx.rec.config_str("health", "disabled");
            return Ok(());
        }
        section(&format!(
            "core-health sweep — probes, quarantine, fleet remap (E24; seed {seed})"
        ));

        // ---- phase 1: bounded detection across seeds -----------------------
        section("phase 1 — detection: every mercurial core quarantined within the probe budget");
        let sweep_seeds = if smoke { 2u64 } else { 6 };
        let mut latencies = Vec::new();
        for i in 0..sweep_seeds {
            let s = derive_seed(seed, &format!("health/detect{i}"));
            let bad: Vec<u32> = if i % 2 == 0 { vec![BAD_CORE] } else { vec![1, 3] };
            let mut mon = ChipHealthMonitor::new(CORES, HealthConfig::default());
            let mut plans = chip_plans(s, &bad);
            let mut detected_at = None;
            for _ in 0..DETECT_BUDGET {
                let rep = mon.probe_cycle(&mut plans, None);
                if detected_at.is_none() && bad.iter().all(|&b| !mon.map().in_service(b)) {
                    detected_at = Some(rep.cycle);
                }
            }
            let at = detected_at.ok_or(format!(
                "seed {s}: cores {bad:?} not quarantined within {DETECT_BUDGET} probe cycles"
            ))?;
            for &c in &bad {
                if mon.map().in_service(c) {
                    return Err(format!("seed {s}: core {c} still in service").into());
                }
            }
            for c in (0..CORES).filter(|c| !bad.contains(c)) {
                if !mon.map().in_service(c) {
                    return Err(format!("seed {s}: clean core {c} was falsely quarantined").into());
                }
            }
            latencies.extend_from_slice(mon.detect_latencies_us());
            println!(
                "  seed {i}: cores {bad:?} quarantined at cycle {at} (budget {DETECT_BUDGET}), \
                 clean cores untouched"
            );
        }
        let mean_latency =
            latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
        ctx.rec.metric("detect.mean_latency_us", mean_latency);
        ctx.rec.metric("detect.budget_cycles", DETECT_BUDGET as f64);
        println!("  mean detection latency {mean_latency:.0} us over {} quarantines", latencies.len());

        // ---- phase 2: serving — zero silent wrongs, goodput floor ----------
        section("phase 2 — serving cell: integrity gate + quarantine, goodput vs analytic floor");
        let ticks = if smoke { 120 } else { 300 };
        let mut tele = Telemetry::with_spans();
        let cell = run_serving_cell(seed, &[BAD_CORE], ticks, Some(&mut tele))?;
        let clean = run_serving_cell(seed, &[], ticks, None)?;

        if cell.counters.lost() != 0 {
            return Err(format!("conservation violated: {} lost", cell.counters.lost()).into());
        }
        if cell.silent_wrong != 0 {
            return Err(format!(
                "{} silent-wrong responses delivered (must be 0)",
                cell.silent_wrong
            )
            .into());
        }
        let qc = cell
            .quarantine_cycle
            .ok_or("serving cell never quarantined the mercurial core")?;
        if qc >= DETECT_BUDGET {
            return Err(format!("serving-cell quarantine at cycle {qc} exceeds budget").into());
        }
        // Injection liveness is proven by the quarantine above; whether the
        // integrity gate also tripped depends on whether a burst landed in a
        // production GEMM before the probes caught the core — both are valid.
        let floor = quarantine_retention(CORES, 1);
        let retention = cell.window_completed as f64 / clean.window_completed.max(1) as f64;
        if retention < floor {
            return Err(format!(
                "post-quarantine goodput retention {retention:.3} below analytic floor {floor:.3}"
            )
            .into());
        }
        println!("  silent_wrong=0 (hard-asserted, {} delivered)", cell.delivered);
        println!(
            "  quarantine at probe cycle {qc}; {} integrity retries absorbed pre-detection",
            cell.integrity_retries
        );
        println!(
            "  goodput retention {retention:.3} >= analytic world-k floor {floor:.3} \
             ({} vs {} window completions)",
            cell.window_completed, clean.window_completed
        );
        ctx.rec.metric("serve.silent_wrong", cell.silent_wrong as f64);
        ctx.rec.metric("serve.integrity_retries", cell.integrity_retries as f64);
        ctx.rec.metric("serve.goodput_retention", retention);
        ctx.rec.metric("serve.retention_floor", floor);
        ctx.rec.metric("serve.quarantine_cycle", qc as f64);

        // ---- phase 3: bit-identical replay ---------------------------------
        section("phase 3 — replay: same seed, same trace, same counters");
        let replay = run_serving_cell(seed, &[BAD_CORE], ticks, None)?;
        if replay != cell {
            return Err("replay diverged: same seed must reproduce the cell exactly".into());
        }
        if replay.events.is_empty() {
            return Err("replay contract is vacuous: no quarantine events recorded".into());
        }
        println!(
            "  replay reproduced {} health events and all counters bit-for-bit (asserted)",
            replay.events.len()
        );
        ctx.rec.metric("replay.events", replay.events.len() as f64);

        // ---- phase 4: fleet — barrier demotion of the sick chip ------------
        section("phase 4 — elastic fleet: sick chip demoted at the barrier, ring continues");
        let world = 4u32;
        let mut chip_health = Vec::new();
        for chip in 0..world {
            let s = derive_seed(seed, &format!("health/chip{chip}"));
            let bad: Vec<u32> = if chip == 2 { vec![0, 1, 2] } else { vec![] };
            let mut mon = ChipHealthMonitor::new(CORES, HealthConfig::default());
            let mut plans = chip_plans(s, &bad);
            for _ in 0..DETECT_BUDGET {
                mon.probe_cycle(&mut plans, None);
            }
            chip_health.push((chip, mon.chip_health()));
        }
        let mut mem = Membership::new(world)?;
        let events = demote_unhealthy(&mut mem, &chip_health, 0.8);
        let demoted: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ElasticEvent::HealthDemoted { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        if demoted != vec![2] {
            return Err(format!("expected chip 2 demoted, got {demoted:?}").into());
        }
        let inputs: Vec<Vec<f32>> =
            (0..world).map(|c| vec![c as f32 * 0.25 + 0.5; 512]).collect();
        let cfg = ElasticConfig::rapid_training(world, true);
        let out = elastic_allreduce(&inputs, &mut mem, &cfg, None, None)
            .map_err(|e| format!("post-demotion allreduce failed: {e}"))?;
        if out.contributors != vec![0, 1, 3] {
            return Err(format!("survivors wrong: {:?}", out.contributors).into());
        }
        for (chip, h) in &chip_health {
            println!(
                "  chip {chip}: health {h:.3}{}",
                if demoted.contains(chip) { "  -> demoted at barrier" } else { "" }
            );
        }
        println!("  allreduce over {:?} at epoch {} (asserted)", out.contributors, out.epoch);
        ctx.rec.metric("fleet.demoted", demoted.len() as f64);
        ctx.rec.metric("fleet.survivors", out.contributors.len() as f64);

        // ---- exposition: spans + OpenMetrics must validate ------------------
        section("exposition — probe-cycle spans + OpenMetrics round trip");
        let spans = tele.spans.take().ok_or("span sink missing")?;
        if spans.is_empty() {
            return Err("probe cycles recorded no spans".into());
        }
        validate_forest(spans.spans()).map_err(|e| format!("probe span forest invalid: {e}"))?;
        let mut merged = MetricsRegistry::new();
        merged.merge(&tele.registry);
        let text = openmetrics::render_labeled(&merged, &[("experiment", "health_sweep")]);
        let doc = openmetrics::validate(&text).map_err(|e| format!("snapshot rejected: {e}"))?;
        println!(
            "  {} spans validated, {} metric families validated",
            spans.len(),
            doc.families.len()
        );
        ctx.rec.metric("spans.count", spans.len() as f64);
        ctx.rec.metric("openmetrics.families", doc.families.len() as f64);

        ctx.rec.merge_registry(&merged);
        // The quarantine the phases assert must also reach the record.
        ctx.require_positive("health.quarantines");
        Ok(())
    })
}
