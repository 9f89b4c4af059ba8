//! Elastic-training sweep (E22): what node loss *costs*. Where
//! `recovery_sweep` prices surviving corrupted arithmetic on one chip,
//! this sweep drives the elastic multi-chip layer of DESIGN.md §11 —
//! crash detection, ring healing, heartbeat hang detection, straggler
//! deadlines, and barrier-checkpoint resume — and prices it:
//!
//! 1. **Crash-rate × world-size grid** — HFP8 data-parallel training with
//!    exactly one seeded node crash per run (`node_fault_budget = 1`).
//!    Hard contract per cell: every exchange completes (zero hangs), the
//!    ring heals to `world − 1`, and accuracy lands within 2 points of
//!    the fault-free run on the same world.
//! 2. **Hang detection and straggler deadline** — a hung node is spliced
//!    out via heartbeat silence; a straggler inside the deadline is
//!    waited out, one beyond it is dropped from the exchange without
//!    losing membership.
//! 3. **Determinism, steps-to-converge, and barrier resume** — the same
//!    seed replays an identical event trace and bit-identical weights;
//!    epoch-at-a-time resume over the checkpoint store reproduces the
//!    uninterrupted run bit for bit (with and without a crash) while
//!    measuring steps to a target accuracy.
//! 4. **Modeled N-chip elastic curve** — the analytic post-heal steady
//!    state: training throughput retained as the ring shrinks.
//!
//! Usage: `elastic_sweep [--smoke] [--seed N] [--json PATH]`. The seed
//! also honours `RAPID_FAULT_SEED` (`--seed` wins); every cell derives its
//! own child stream. A broken contract, or no heal counters, fails the run.

use rapid_bench::{run, section, try_par_map};
use rapid_fault::{derive_seed, FaultConfig, FaultPlan};
use rapid_model::chip_sweep;
use rapid_recover::{train_elastic, CheckpointStore, ElasticReport, ElasticTrainConfig};
use rapid_refnet::backend::Hfp8Backend;
use rapid_refnet::data::{gaussian_blobs, Dataset};
use rapid_refnet::mlp::Mlp;
use rapid_ring::Membership;
use rapid_telemetry::{trace_path_from_env, Telemetry, TraceSink};
use rapid_workloads::suite::benchmark;

const LAYERS: &[usize] = &[16, 32, 4];
const MODEL_SEED: u64 = 1;
/// Seeded child streams probed per faulty cell until the fault fires —
/// with the rates below the first try succeeds almost always; 32 bounds
/// the worst case deterministically.
const SCAN_TRIES: u64 = 32;

/// One finished training run of a sweep cell.
struct RunOut {
    acc: f64,
    report: ElasticReport,
    weights: Vec<f32>,
    tele: Telemetry,
}

/// One elastic HFP8 training run from the shared initialization.
fn run_once(
    data: &Dataset,
    world: u32,
    epochs: usize,
    mut plan: Option<FaultPlan>,
    spans: bool,
) -> Result<RunOut, String> {
    let cfg = ElasticTrainConfig { epochs, ..ElasticTrainConfig::rapid_training() };
    let mut mlp = Mlp::new(LAYERS, MODEL_SEED);
    let mut mem = Membership::new(world).map_err(|e| e.to_string())?;
    let mut tele = if spans { Telemetry::with_spans() } else { Telemetry::new() };
    let (acc, report) = train_elastic(
        &mut mlp,
        &Hfp8Backend::default(),
        data,
        &cfg,
        &mut mem,
        plan.as_mut(),
        None,
        Some(&mut tele),
    )
    .map_err(|e| e.to_string())?;
    Ok(RunOut { acc, report, weights: mlp.layers().flatten(), tele })
}

/// Runs a faulty cell, probing derived child seeds until `fired` accepts
/// the run (e.g. the budgeted crash actually landed inside the run).
/// Returns `(tries, child_seed, run)`; errors when no probe fires.
fn run_faulted(
    data: &Dataset,
    world: u32,
    epochs: usize,
    base_seed: u64,
    label: &str,
    make: impl Fn(u64) -> FaultConfig,
    fired: impl Fn(&ElasticReport) -> bool,
) -> Result<(u64, u64, RunOut), String> {
    for t in 0..SCAN_TRIES {
        let child = derive_seed(base_seed, &format!("{label}/try{t}"));
        // A probe can legitimately fail (every member straggling past the
        // deadline empties the exchange) — skip it and keep scanning.
        let Ok(out) = run_once(data, world, epochs, Some(FaultPlan::new(make(child))), false) else {
            continue;
        };
        if fired(&out.report) {
            return Ok((t, child, out));
        }
    }
    Err(format!("{label}: fault never fired in {SCAN_TRIES} seeded tries"))
}

#[allow(clippy::too_many_lines)] // one linear experiment script, like its siblings
fn main() -> std::process::ExitCode {
    run("elastic_sweep", |ctx| {
        let seed = ctx.seed(7);
        let smoke = ctx.smoke();
        section(&format!(
            "elastic sweep — node loss, healing, stragglers (E22; seed {seed}; override with --seed or RAPID_FAULT_SEED)"
        ));

        let epochs = if smoke { 6 } else { 10 };
        let data = gaussian_blobs(if smoke { 192 } else { 256 }, 4, 16, 0.35, 42);
        let batch = ElasticTrainConfig::rapid_training().batch;
        let expected_steps = (epochs * data.len().div_ceil(batch)) as u64;
        let mut tele = Telemetry::new();

        // ---- sweep 1: crash-rate × world-size grid --------------------------
        section("sweep 1 — crash-rate × world-size: heal cost and accuracy parity");
        let worlds: &[u32] = if smoke { &[2, 4] } else { &[2, 4, 8] };
        let rates: &[f64] = if smoke { &[0.02] } else { &[0.01, 0.05] };

        struct Row {
            rate: f64,
            tries: u64,
            splices: u64,
            final_world: usize,
            goodput: f64,
            acc: f64,
        }

        // Worlds are independent: fan out over the worker pool. Each world
        // runs its fault-free baseline first so the crash cells can hard-check
        // accuracy parity in place.
        let per_world = try_par_map(worlds, |&world| -> Result<(f64, Vec<Row>, Telemetry), String> {
            let mut wtele = Telemetry::new();
            let clean = run_once(&data, world, epochs, None, false)?;
            if clean.report.steps_run != expected_steps {
                return Err(format!(
                    "world {world}: fault-free run took {} of {expected_steps} steps",
                    clean.report.steps_run
                ));
            }
            wtele.merge(clean.tele);
            let mut rows = Vec::new();
            for &rate in rates {
                let (tries, _, out) = run_faulted(
                    &data,
                    world,
                    epochs,
                    derive_seed(seed, &format!("elastic_sweep/w{world}-r{rate}")),
                    &format!("w{world}-crash{rate}"),
                    |s| FaultConfig {
                        seed: s,
                        node_crash_rate: rate,
                        node_fault_budget: 1,
                        ..FaultConfig::default()
                    },
                    |r| r.crashes_survived >= 1,
                )?;
                let r = &out.report;
                // E22 hard contract: zero hangs (every exchange completed),
                // the ring healed, and one crash costs ≤ 2 accuracy points.
                if r.steps_run != expected_steps {
                    return Err(format!(
                        "world {world} rate {rate}: crashed run hung at step {} of {expected_steps}",
                        r.steps_run
                    ));
                }
                if r.crashes_survived != 1 || r.splices < 1 || r.final_world != world as usize - 1 {
                    return Err(format!(
                        "world {world} rate {rate}: ring did not heal to {} survivors: {r:?}",
                        world - 1
                    ));
                }
                if out.acc < clean.acc - 0.02 {
                    return Err(format!(
                        "world {world} rate {rate}: one crash cost more than 2 accuracy points: \
                         {:.4} vs fault-free {:.4}",
                        out.acc, clean.acc
                    ));
                }
                rows.push(Row {
                    rate,
                    tries,
                    splices: r.splices,
                    final_world: r.final_world,
                    goodput: r.goodput(),
                    acc: out.acc,
                });
                wtele.merge(out.tele);
            }
            Ok((clean.acc, rows, wtele))
        });
        println!(
            "{:<7} {:<10} {:>6} {:>8} {:>10} {:>9} {:>11} {:>9}",
            "world", "crash", "tries", "splices", "survivors", "goodput", "accuracy", "vs clean"
        );
        for (&world, res) in worlds.iter().zip(per_world) {
            match res {
                Ok(Ok((acc_clean, rows, wtele))) => {
                    tele.merge(wtele);
                    ctx.rec.metric(&format!("w{world}.clean.accuracy"), acc_clean);
                    println!(
                        "{world:<7} {:<10} {:>6} {:>8} {:>10} {:>9} {:>10.1}% {:>9}",
                        "none", "-", 0, world, "1.000", acc_clean * 100.0, "-"
                    );
                    for row in rows {
                        ctx.rec.metric(&format!("w{world}.rate{:e}.accuracy", row.rate), row.acc);
                        ctx.rec.metric(&format!("w{world}.rate{:e}.goodput", row.rate), row.goodput);
                        println!(
                            "{world:<7} {:<10} {:>6} {:>8} {:>10} {:>9.3} {:>10.1}% {:>8.1}%",
                            format!("{:.0e}", row.rate),
                            row.tries,
                            row.splices,
                            row.final_world,
                            row.goodput,
                            row.acc * 100.0,
                            (row.acc - acc_clean) * 100.0
                        );
                    }
                }
                Ok(Err(reason)) => {
                    println!("{world:<7} ASSERTION FAILED: {reason}");
                    ctx.fail(format!("world {world}: {reason}"));
                }
                Err(reason) => {
                    println!("{world:<7} FAILED: {reason}");
                    ctx.fail(format!("world {world}: worker crashed twice: {reason}"));
                }
            }
        }
        println!("\nevery crashed cell healed to world − 1 and finished all {expected_steps} steps;");
        println!("goodput < 1 is the detection + re-reduction + shorter-ring price of the heal.");

        // ---- sweep 2: hang detection and straggler deadline -----------------
        section("sweep 2 — hang detection (heartbeat) and straggler deadline (world 4)");
        let (tries_h, _, hang) = run_faulted(
            &data,
            4,
            epochs,
            derive_seed(seed, "elastic_sweep/hang"),
            "hang",
            |s| FaultConfig {
                seed: s,
                node_hang_rate: 0.05,
                node_fault_budget: 1,
                ..FaultConfig::default()
            },
            |r| r.hangs_survived >= 1,
        )?;
        let hr = &hang.report;
        if hr.steps_run != expected_steps || hr.hangs_survived != 1 || hr.final_world != 3 {
            return Err(format!("hang cell: heartbeat splice did not heal the ring: {hr:?}").into());
        }
        if hr.goodput() >= 1.0 {
            return Err("hang cell: heartbeat detection must cost cycles".into());
        }
        println!(
            "hang       tries {tries_h}: 1 hang spliced by heartbeat silence, {} survivors, goodput {:.3}",
            hr.final_world,
            hr.goodput()
        );
        ctx.rec.metric("hang.goodput", hr.goodput());
        tele.merge(hang.tele);

        let (tries_s, _, slow) = run_faulted(
            &data,
            4,
            epochs,
            derive_seed(seed, "elastic_sweep/straggler-wait"),
            "straggler-wait",
            |s| FaultConfig {
                seed: s,
                node_slow_rate: 0.1,
                node_slow_factor: 1.5,
                ..FaultConfig::default()
            },
            |r| r.stragglers_retained >= 1,
        )?;
        let (tries_d, _, drop) = run_faulted(
            &data,
            4,
            epochs,
            derive_seed(seed, "elastic_sweep/straggler-drop"),
            "straggler-drop",
            |s| FaultConfig {
                seed: s,
                node_slow_rate: 0.1,
                node_slow_factor: 4.0,
                ..FaultConfig::default()
            },
            |r| r.stragglers_dropped >= 1,
        )?;
        for (name, tries, out) in
            [("straggler-wait", tries_s, &slow), ("straggler-drop", tries_d, &drop)]
        {
            let r = &out.report;
            if r.steps_run != expected_steps {
                return Err(format!("{name}: run hung at step {} of {expected_steps}", r.steps_run).into());
            }
            // Stragglers never cost membership — only exchange time (waited
            // out inside the deadline, or cut off at it).
            if r.final_world != 4 || r.goodput() >= 1.0 {
                return Err(format!("{name}: deadline handling wrong: {r:?}").into());
            }
            println!(
                "{name:<14} tries {tries}: retained {}, dropped {}, world intact, goodput {:.3}",
                r.stragglers_retained,
                r.stragglers_dropped,
                r.goodput()
            );
            ctx.rec.metric(&format!("{name}.goodput"), r.goodput());
        }
        tele.merge(slow.tele);
        tele.merge(drop.tele);

        // ---- sweep 3: determinism, steps-to-converge, barrier resume --------
        section("sweep 3 — determinism, steps-to-converge, and barrier resume (world 4)");
        let crash_cfg = |s: u64| FaultConfig {
            seed: s,
            node_crash_rate: 0.05,
            node_fault_budget: 1,
            ..FaultConfig::default()
        };
        let (_, chosen, first) = run_faulted(
            &data,
            4,
            epochs,
            derive_seed(seed, "elastic_sweep/determinism"),
            "determinism",
            crash_cfg,
            |r| r.crashes_survived >= 1,
        )?;
        let second = run_once(&data, 4, epochs, Some(FaultPlan::new(crash_cfg(chosen))), false)?;
        if first.report.events != second.report.events || first.weights != second.weights {
            return Err("same seed must replay an identical event trace and weights".into());
        }
        println!(
            "same seed ⇒ identical {}-event trace and bit-identical weights (asserted)",
            first.report.events.len()
        );

        // Epoch-at-a-time resume: each pass restores the newest barrier
        // generation and runs exactly one more epoch — steps-to-converge falls
        // out of evaluating at every barrier, and the final weights must match
        // the uninterrupted run bit for bit.
        let target = if smoke { 0.6 } else { 0.8 };
        let dir = std::env::temp_dir().join(format!("rapid-elastic-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut resume_cell = |name: &str,
                               plan_seed: Option<u64>|
         -> Result<(Option<u64>, f64, Vec<f32>), String> {
            let mut plan = plan_seed.map(|s| FaultPlan::new(crash_cfg(s)));
            let mut mem = Membership::new(4).map_err(|e| e.to_string())?;
            let mut store = CheckpointStore::open(dir.join(name), "el", epochs.max(8))
                .map_err(|e| e.to_string())?;
            let mut mlp = Mlp::new(LAYERS, MODEL_SEED);
            let mut cell_tele = Telemetry::new();
            let (mut steps, mut steps_to, mut acc) = (0u64, None, 0.0f64);
            for e in 1..=epochs {
                let cfg = ElasticTrainConfig { epochs: e, ..ElasticTrainConfig::rapid_training() };
                let (a, rep) = train_elastic(
                    &mut mlp,
                    &Hfp8Backend::default(),
                    &data,
                    &cfg,
                    &mut mem,
                    plan.as_mut(),
                    Some(&mut store),
                    Some(&mut cell_tele),
                )
                .map_err(|e| e.to_string())?;
                if rep.epochs_resumed != (e - 1) as u64 {
                    return Err(format!(
                        "{name}: pass {e} resumed {} epochs, expected {}",
                        rep.epochs_resumed,
                        e - 1
                    ));
                }
                steps += rep.steps_run;
                if steps_to.is_none() && a >= target {
                    steps_to = Some(steps);
                }
                acc = a;
            }
            tele.merge(cell_tele);
            Ok((steps_to, acc, mlp.layers().flatten()))
        };
        let (st_clean, acc_resumed_clean, w_resumed_clean) = resume_cell("clean", None)?;
        let (st_crash, acc_resumed_crash, w_resumed_crash) = resume_cell("crash1", Some(chosen))?;
        let _ = std::fs::remove_dir_all(&dir);
        let clean4 = run_once(&data, 4, epochs, None, false)?;
        if w_resumed_clean != clean4.weights {
            return Err("barrier resume must replay the uninterrupted run bit for bit".into());
        }
        if w_resumed_crash != first.weights {
            return Err("barrier resume under a healed ring must stay bit-identical".into());
        }
        println!("barrier resume replays the uninterrupted run bit for bit, crash or not (asserted)");
        let show = |st: Option<u64>| st.map_or_else(|| "not reached".to_string(), |s| s.to_string());
        println!(
            "{:<10} {:>8} {:>22} {:>11}",
            "cell", "steps", &format!("steps-to-acc {target}"), "final acc"
        );
        for (name, st, acc) in [
            ("clean", st_clean, acc_resumed_clean),
            ("1-crash", st_crash, acc_resumed_crash),
        ] {
            println!("{name:<10} {expected_steps:>8} {:>22} {:>10.1}%", show(st), acc * 100.0);
            if let Some(s) = st {
                ctx.rec.metric(&format!("resume.{name}.steps_to_converge"), s as f64);
            }
        }

        // ---- sweep 4: modeled N-chip elastic curve --------------------------
        section("sweep 4 — modeled elastic curve: throughput retained as the ring shrinks");
        let net = benchmark("resnet50").ok_or("unknown benchmark 'resnet50'")?;
        let (world_m, floor) = if smoke { (4, 2) } else { (8, 4) };
        println!(
            "{:<10} {:>10} {:>14} {:>11}",
            "world", "survivors", "inputs/s", "retention"
        );
        let pts = chip_sweep(&net, (floor..=world_m).rev(), 512);
        for p in &pts {
            let retention = p.throughput / pts[0].throughput;
            ctx.rec.metric(&format!("model.survivors{}.retention", p.count), retention);
            println!(
                "{:<10} {:>10} {:>14.0} {:>10.1}%",
                world_m,
                p.count,
                p.throughput,
                retention * 100.0
            );
        }
        println!("\nthe post-heal steady state: survivors carry the full minibatch over a");
        println!("shorter ring, so retention degrades by roughly the lost compute share.");

        // With RAPID_TRACE set, rerun a small clean world-2 cell with
        // exchange spans on (cumulative-cycle time base) and export them as
        // a Chrome trace for Perfetto; the record stamps where it went.
        if trace_path_from_env().is_some() {
            section("telemetry — elastic exchange spans (RAPID_TRACE)");
            let traced = run_once(&data, 2, epochs.min(2), None, true)?;
            let mut sink = TraceSink::new();
            if let Some(spans) = &traced.tele.spans {
                spans.to_trace(&mut sink, 2000, "elastic", "elastic allreduce");
                println!("{} exchange spans traced", spans.len());
            }
            ctx.write_trace(&sink)?;
        }

        ctx.rec.merge_registry(&tele.registry);
        // Both layers' heal counters must reach the record: the ring spliced
        // and the trainer survived the crashes.
        ctx.require_positive("ring.elastic.splices");
        ctx.require_positive("recover.elastic.crashes_survived");
        Ok(())
    })
}
