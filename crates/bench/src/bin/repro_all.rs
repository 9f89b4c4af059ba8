//! Runs every experiment binary's logic — the single command that
//! regenerates the whole evaluation (the source of EXPERIMENTS.md).
//!
//! `cargo run -p rapid-bench --bin repro_all --release`
//!
//! The experiments are independent processes, so they fan out over the
//! harness worker pool (`RAPID_THREADS` caps it); each binary's output is
//! captured and printed in the canonical order once it completes. Each
//! experiment runs with `RAPID_FAULT_SEED` set to a child seed derived
//! from the master seed and the experiment name, so fault streams are
//! reproducible yet independent across experiments.
//!
//! Failures degrade gracefully: a crashing experiment (including one
//! forced down with `RAPID_FORCE_FAIL=<bin>`) is marked FAILED in the
//! summary table, every other experiment still runs and prints, and the
//! process exits non-zero.
//!
//! The aggregate also carries a kernel-speed regression gate: every
//! `*.speedup_vs_scalar` metric in the previous `BENCH_repro.json` is
//! compared against the fresh run, and any ratio that fell more than 20%
//! below its recorded value fails the run loudly. Each ratio is the
//! median over rounds that time a kernel and its scalar reference back
//! to back, so a change in machine load lands on both sides of it.

use rapid_bench::{json_path_from_args, num_threads, try_par_map};
use rapid_fault::{derive_seed, FaultConfig};
use rapid_telemetry::{validate_bench_record, Json, AGGREGATE_SCHEMA};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    let start = Instant::now();
    let Some(dir) = std::env::current_exe().ok().and_then(|e| e.parent().map(|p| p.to_path_buf()))
    else {
        eprintln!("error: cannot locate the experiment binaries next to repro_all");
        return ExitCode::FAILURE;
    };
    // Each child writes its machine-readable record here; the validated
    // aggregate lands in BENCH_repro.json (or this binary's own --json).
    let json_dir = dir.join("bench-json");
    let aggregate_path =
        json_path_from_args().unwrap_or_else(|| PathBuf::from("BENCH_repro.json"));
    let bins = [
        "fig10_chip_table",
        "fig4c_area_power",
        "fig13_inference",
        "fig14_efficiency",
        "fig15_training",
        "fig16_throttling",
        "fig17_breakdown",
        "fig18_scaling",
        "calibration",
        "numerics_validation",
        "kernel_speed",
        "ring_multicast",
        "int2_future",
        "ablations",
        "batch_sweep",
        "energy_breakdown",
        "fault_sweep",
        "recovery_sweep",
        "protection_sweep",
        "serving_sweep",
        "elastic_sweep",
        "obs_sweep",
        "health_sweep",
    ];
    // Snapshot the previous run's kernel speedups before the aggregate
    // is overwritten; they are the regression-gate baseline.
    let prior_speedups = read_speedups(&aggregate_path);
    // Each experiment gets its own child fault seed derived from the
    // master, so adding an experiment never perturbs another's streams.
    let master = FaultConfig::seed_from_env(7);
    // Clear stale records from a previous run so a crashing child can
    // never smuggle its old (successful) record into the aggregate.
    let _ = std::fs::remove_dir_all(&json_dir);
    if let Err(e) = std::fs::create_dir_all(&json_dir) {
        eprintln!("error: cannot create {}: {e}", json_dir.display());
        return ExitCode::FAILURE;
    }
    let outputs = try_par_map(&bins, |bin| {
        let path = dir.join(bin);
        match Command::new(&path)
            .env("RAPID_FAULT_SEED", derive_seed(master, bin).to_string())
            .arg("--json")
            .arg(json_dir.join(format!("{bin}.json")))
            .output()
        {
            Ok(out) => (out.status.success(), out.stdout, out.stderr),
            Err(e) => (false, Vec::new(), format!("failed to launch {}: {e}\n", path.display()).into_bytes()),
        }
    });
    let mut failed: Vec<&str> = Vec::new();
    for (bin, result) in bins.iter().zip(outputs) {
        println!("\n############ {bin} ############");
        match result {
            Ok((ok, stdout, stderr)) => {
                print!("{}", String::from_utf8_lossy(&stdout));
                if !stderr.is_empty() {
                    eprint!("{}", String::from_utf8_lossy(&stderr));
                }
                if !ok {
                    println!("*** {bin} FAILED (non-zero exit) ***");
                    failed.push(bin);
                }
            }
            Err(reason) => {
                println!("*** {bin} FAILED (harness worker: {reason}) ***");
                failed.push(bin);
            }
        }
    }
    // Aggregate the per-experiment JSON records. A missing or invalid
    // record marks its experiment failed but never aborts the aggregate.
    let mut records = Vec::new();
    for bin in &bins {
        let path = json_dir.join(format!("{bin}.json"));
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|j| validate_bench_record(&j).map(|()| j));
        match parsed {
            Ok(j) => records.push(j),
            Err(e) => {
                println!("*** {bin}: no valid JSON record ({e}) ***");
                if !failed.contains(bin) {
                    failed.push(bin);
                }
            }
        }
    }
    // Kernel-speed regression gate, computed BEFORE the aggregate is
    // written so its verdict rides along inside it. A speedup-vs-scalar
    // ratio more than 20% below the previous aggregate fails the run
    // loudly, so a SIMD kernel regression cannot hide behind a green
    // repro. A kernel group with *no* baseline (first run, renamed
    // metric, or a fresh checkout without BENCH_repro.json) is a
    // structured warning — never a failure — and is recorded under
    // `kernel_gate.baseline_missing` for the schema gate to see.
    const SPEEDUP_FLOOR: f64 = 0.8;
    let fresh_records = Json::Obj(vec![("records".to_string(), Json::Arr(records.clone()))]);
    let fresh_speedups = speedups_of(&fresh_records);
    let mut regressions: Vec<String> = Vec::new();
    let mut baseline_missing: Vec<String> = Vec::new();
    for (key, new) in &fresh_speedups {
        match prior_speedups.iter().find(|(k, _)| k == key) {
            Some((_, old)) if *new < old * SPEEDUP_FLOOR => {
                println!(
                    "*** kernel speed regression: {key} fell {old:.1}x -> {new:.1}x \
                     (more than 20% below the recorded baseline) ***"
                );
                regressions.push(key.clone());
                if !failed.contains(&"kernel-speed-gate") {
                    failed.push("kernel-speed-gate");
                }
            }
            Some(_) => {}
            None => {
                println!(
                    "warning: kernel-speed gate: no baseline for {key} \
                     (first run for this kernel group); gate skipped for it"
                );
                baseline_missing.push(key.clone());
            }
        }
    }
    let kernel_gate = Json::Obj(vec![
        ("floor".to_string(), Json::num(SPEEDUP_FLOOR)),
        ("checked".to_string(), Json::num(fresh_speedups.len() as f64)),
        (
            "regressions".to_string(),
            Json::Arr(regressions.iter().map(|k| Json::str(k.as_str())).collect()),
        ),
        (
            "baseline_missing".to_string(),
            Json::Arr(baseline_missing.iter().map(|k| Json::str(k.as_str())).collect()),
        ),
    ]);

    let aggregate = Json::Obj(vec![
        ("schema".to_string(), Json::str(AGGREGATE_SCHEMA)),
        ("records".to_string(), Json::Arr(records)),
        ("kernel_gate".to_string(), kernel_gate),
    ]);
    // Rotate the outgoing aggregate to `BENCH_repro.prev.json` so
    // `telemetry_report` can diff the perf trajectory across runs.
    let prev_path = aggregate_path.with_extension("prev.json");
    if aggregate_path.exists() {
        if let Err(e) = std::fs::copy(&aggregate_path, &prev_path) {
            eprintln!(
                "warning: cannot rotate previous aggregate to {}: {e}",
                prev_path.display()
            );
        }
    }
    // Atomic publish (same idiom as the checkpoint store): write a .tmp
    // sibling, flush it, rename into place — a crash or a concurrent
    // reader can never observe a truncated BENCH_repro.json, and the
    // prior baseline survives any failure before the rename.
    if let Err(e) = write_atomic(&aggregate_path, &aggregate.render()) {
        eprintln!("error: cannot write {}: {e}", aggregate_path.display());
        return ExitCode::FAILURE;
    }

    println!("\n############ summary ############");
    for bin in &bins {
        let status = if failed.contains(bin) { "FAILED" } else { "ok" };
        println!("{bin:<24} {status}");
    }
    println!("\naggregated bench records: {}", aggregate_path.display());
    println!(
        "\n{}/{} experiments regenerated in {:.2}s wall-clock ({} worker threads)",
        bins.len() - failed.len(),
        bins.len(),
        start.elapsed().as_secs_f64(),
        num_threads().min(bins.len())
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed experiments: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Every `experiment:metric` pair whose metric name ends in
/// `.speedup_vs_scalar`, from an aggregate JSON value.
fn speedups_of(aggregate: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(records) = aggregate.get("records").and_then(Json::as_arr) else { return out };
    for r in records {
        let exp = r.get("experiment").and_then(Json::as_str).unwrap_or("");
        let Some(metrics) = r.get("metrics").and_then(Json::as_obj) else { continue };
        for (k, v) in metrics {
            if k.ends_with(".speedup_vs_scalar") {
                if let Some(x) = v.as_f64() {
                    out.push((format!("{exp}:{k}"), x));
                }
            }
        }
    }
    out
}

/// The speedup baseline from a previous aggregate file; empty (gate
/// disabled) when no prior aggregate exists or it does not parse.
fn read_speedups(path: &std::path::Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    let Ok(json) = Json::parse(&text) else { return Vec::new() };
    speedups_of(&json)
}

/// Write-then-rename: the destination only ever points at a complete
/// file (the checkpoint store's publish idiom).
fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}
