//! Cross-experiment telemetry summary: reads the aggregate record file
//! `repro_all` writes (`BENCH_repro.json` by default) and renders one
//! table over every experiment — wall-clock, config header, and metric
//! counts — plus the headline metric of each record and a perf-trajectory
//! diff against the rotated previous aggregate
//! (`BENCH_repro.prev.json`), with structured `warning:` lines (never
//! failures) on >20% latency or goodput regressions.
//!
//! Usage: `telemetry_report [PATH] [--validate] [--validate-openmetrics OM_PATH]`
//!
//! With `--validate` the binary only checks the file against the
//! `rapid-bench-aggregate-v1` schema and exits non-zero on any violation
//! (the `scripts/check.sh --telemetry` gate). With
//! `--validate-openmetrics` it instead runs the strict OpenMetrics
//! parser over the given text snapshot (the `check.sh --obs` gate).

use rapid_telemetry::{validate_aggregate, validate_openmetrics, Json};
use std::process::ExitCode;

const USAGE: &str = "usage: telemetry_report [PATH] [--validate] [--validate-openmetrics OM_PATH]";

/// Validates one OpenMetrics text snapshot with the strict parser.
fn check_openmetrics(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_openmetrics(&text) {
        Ok(doc) => {
            println!("{path}: valid OpenMetrics ({} families)", doc.families.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path} fails OpenMetrics validation: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether a bigger value of this metric means the system got slower.
fn lower_is_better(name: &str) -> bool {
    name.ends_with("p50_ms") || name.ends_with("p99_ms") || name.contains("latency")
}

/// Whether a smaller value of this metric means the system got slower.
fn higher_is_better(name: &str) -> bool {
    name.contains("goodput") || name.contains("speedup") || name.contains("throughput")
        || name.contains("retention")
}

/// The perf-trajectory section: per-metric deltas against the previous
/// aggregate. Regressions beyond 20% print as structured `warning:`
/// lines but never fail the report — the kernel-speed *gate* (which does
/// fail) lives in `repro_all`.
fn print_trajectory(records: &[Json], prev: &Json) {
    const REGRESSION: f64 = 1.2;
    let empty: &[Json] = &[];
    let prev_records = prev.get("records").and_then(Json::as_arr).unwrap_or(empty);
    let mut compared = 0usize;
    let mut warnings: Vec<String> = Vec::new();
    for r in records {
        let name = r.get("experiment").and_then(Json::as_str).unwrap_or("?");
        let Some(p) = prev_records
            .iter()
            .find(|p| p.get("experiment").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let (Some(cur), Some(old)) = (
            r.get("metrics").and_then(Json::as_obj),
            p.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (k, v) in cur {
            let new = v.as_f64();
            let was = old.iter().find(|(ok, _)| ok == k).and_then(|(_, ov)| ov.as_f64());
            let (Some(new), Some(was)) = (new, was) else { continue };
            compared += 1;
            if was <= 0.0 {
                continue;
            }
            let ratio = new / was;
            if lower_is_better(k) && ratio > REGRESSION {
                warnings.push(format!(
                    "latency regression: {name}:{k} rose {was:.3} -> {new:.3} (+{:.0}%)",
                    (ratio - 1.0) * 100.0
                ));
            } else if higher_is_better(k) && ratio < 1.0 / REGRESSION {
                warnings.push(format!(
                    "throughput regression: {name}:{k} fell {was:.3} -> {new:.3} (-{:.0}%)",
                    (1.0 - ratio) * 100.0
                ));
            }
        }
    }
    println!(
        "\nperf trajectory vs previous aggregate ({} experiments, {} shared metrics):",
        prev_records.len(),
        compared
    );
    if warnings.is_empty() {
        println!("  no metric moved more than 20% in the slower direction");
    }
    for w in &warnings {
        println!("  warning: {w}");
    }
}

fn main() -> ExitCode {
    let mut path = String::from("BENCH_repro.json");
    let mut validate_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--validate" => validate_only = true,
            "--validate-openmetrics" => {
                let Some(p) = args.next() else {
                    eprintln!("--validate-openmetrics requires a path ({USAGE})");
                    return ExitCode::FAILURE;
                };
                return check_openmetrics(&p);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}' ({USAGE})");
                return ExitCode::FAILURE;
            }
            other => path = other.to_string(),
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_aggregate(&doc) {
        eprintln!("error: {path} fails schema validation: {e}");
        return ExitCode::FAILURE;
    }
    let records: &[Json] = doc.get("records").and_then(Json::as_arr).unwrap_or(&[]);
    if validate_only {
        println!("{path}: valid ({} records)", records.len());
        return ExitCode::SUCCESS;
    }

    println!("telemetry report — {path} ({} experiments)\n", records.len());
    println!(
        "{:<24} {:>10} {:>8} {:>20} {:>8}",
        "experiment", "wall ms", "threads", "fault seed", "metrics"
    );
    let mut total_ms = 0.0;
    for r in records {
        let name = r.get("experiment").and_then(Json::as_str).unwrap_or("?");
        let wall = r.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        total_ms += wall;
        let config = r.get("config");
        let threads = config
            .and_then(|c| c.get("threads"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        // Verbatim: a decimal string (exact) or an older record's number.
        let seed = match config.and_then(|c| c.get("fault_seed")) {
            Some(Json::Str(s)) => s.clone(),
            Some(v) => v.render(),
            None => "?".to_string(),
        };
        let n_metrics = r.get("metrics").and_then(Json::as_obj).map_or(0, <[_]>::len);
        println!("{name:<24} {wall:>10.1} {threads:>8.0} {seed:>20} {n_metrics:>8}");
    }
    println!("\ncumulative experiment wall-clock: {:.2}s", total_ms / 1e3);

    println!("\nheadline metrics:");
    for r in records {
        let name = r.get("experiment").and_then(Json::as_str).unwrap_or("?");
        let Some(metrics) = r.get("metrics").and_then(Json::as_obj) else { continue };
        // Prefer a summary metric (means first); fall back to the first.
        let pick = metrics
            .iter()
            .find(|(k, _)| k.ends_with(".mean"))
            .or_else(|| metrics.first());
        if let Some((k, v)) = pick {
            if let Some(x) = v.as_f64() {
                println!("  {name:<24} {k} = {x:.4}");
            }
        }
    }

    // Elastic-training health: any record carrying the ring.elastic.* /
    // recover.elastic.* counters gets its survival story summarized.
    let elastic: Vec<&Json> = records
        .iter()
        .filter(|r| {
            r.get("metrics")
                .and_then(Json::as_obj)
                .is_some_and(|m| m.iter().any(|(k, _)| k.starts_with("ring.elastic.")))
        })
        .collect();
    if !elastic.is_empty() {
        println!("\nelastic training health:");
        let counters = [
            ("recover.elastic.crashes_survived", "crashes survived"),
            ("recover.elastic.hangs_survived", "hangs survived"),
            ("ring.elastic.splices", "ring splices"),
            ("recover.elastic.stragglers_retained", "stragglers waited out"),
            ("recover.elastic.stragglers_dropped", "stragglers dropped"),
            ("recover.elastic.barriers", "checkpoint barriers"),
            ("recover.elastic.epochs_resumed", "epochs resumed"),
        ];
        for r in elastic {
            let name = r.get("experiment").and_then(Json::as_str).unwrap_or("?");
            let metric = |k: &str| {
                r.get("metrics").and_then(|m| m.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
            };
            println!("  {name}:");
            for (key, label) in counters {
                println!("    {label:<24} {:>10.0}", metric(key));
            }
            let cycles = metric("recover.elastic.cycles");
            let ideal = metric("recover.elastic.ideal_cycles");
            if cycles > 0.0 {
                println!("    {:<24} {:>9.1}%", "goodput", ideal / cycles * 100.0);
            }
        }
    }

    // Core health: any record carrying the health.* probe/quarantine
    // counters gets its mercurial-core story summarized.
    let health: Vec<&Json> = records
        .iter()
        .filter(|r| {
            r.get("metrics")
                .and_then(Json::as_obj)
                .is_some_and(|m| m.iter().any(|(k, _)| k.starts_with("health.probe.")))
        })
        .collect();
    if !health.is_empty() {
        println!("\ncore health (probes & quarantine):");
        let counters = [
            ("health.probe.cycles", "probe cycles"),
            ("health.probe.runs", "probes run"),
            ("health.probe.failures", "probe failures"),
            ("health.quarantines", "cores quarantined"),
            ("health.reinstatements", "cores reinstated"),
            ("health.slo.quarantine.alerts", "quarantine SLO alerts"),
            ("serve.integrity_retries", "integrity retries"),
            ("serve.silent_wrong", "silent-wrong responses"),
        ];
        for r in health {
            let name = r.get("experiment").and_then(Json::as_str).unwrap_or("?");
            let metric = |k: &str| {
                r.get("metrics").and_then(|m| m.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
            };
            println!("  {name}:");
            for (key, label) in counters {
                println!("    {label:<24} {:>10.0}", metric(key));
            }
            let latency = metric("detect.mean_latency_us");
            if latency > 0.0 {
                println!("    {:<24} {latency:>8.0}us", "mean detection latency");
            }
            let retention = metric("serve.goodput_retention");
            if retention > 0.0 {
                println!(
                    "    {:<24} {:>9.1}% (floor {:.1}%)",
                    "goodput retention",
                    retention * 100.0,
                    metric("serve.retention_floor") * 100.0
                );
            }
        }
    }

    // Perf trajectory against the rotated previous aggregate, when the
    // rotation (repro_all) has left one next to this file.
    let prev_path = std::path::Path::new(&path).with_extension("prev.json");
    match std::fs::read_to_string(&prev_path) {
        Ok(prev_text) => match Json::parse(&prev_text) {
            Ok(prev) => print_trajectory(records, &prev),
            Err(e) => println!(
                "\nperf trajectory: previous aggregate {} is not valid JSON: {e}",
                prev_path.display()
            ),
        },
        Err(_) => println!(
            "\nperf trajectory: no previous aggregate at {} (first recorded run)",
            prev_path.display()
        ),
    }
    ExitCode::SUCCESS
}
