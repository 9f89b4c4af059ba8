//! Machine-readable experiment records: every bench binary accepts
//! `--json <path>` and, when given, writes one validated
//! `rapid-bench-v1` JSON record alongside its human-readable table.
//! `repro_all` passes the flag to each child and aggregates the records
//! into `BENCH_repro.json`; `telemetry_report` renders and validates the
//! aggregate.
//!
//! The record shape (see [`rapid_telemetry::schema`]):
//!
//! ```json
//! {
//!   "schema": "rapid-bench-v1",
//!   "experiment": "fig13_inference",
//!   "config": { "threads": 8, "fault_seed": 7, ... },
//!   "metrics": { "resnet50.int4.speedup_vs_fp16": 5.1, ... },
//!   "wall_ms": 412.6
//! }
//! ```

use rapid_fault::FaultConfig;
use rapid_telemetry::registry::Metric;
use rapid_telemetry::{
    metrics_path_from_env, openmetrics, validate_bench_record, Json, MetricsRegistry, BENCH_SCHEMA,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Returns the path following a `--json` flag in this process's argument
/// list, if any (`--json out.json` or `--json=out.json`).
pub fn json_path_from_args() -> Option<PathBuf> {
    json_path_from(std::env::args().skip(1))
}

fn json_path_from(mut args: impl Iterator<Item = String>) -> Option<PathBuf> {
    while let Some(a) = args.next() {
        if let Some(path) = json_flag(&a, &mut args) {
            return path.ok();
        }
    }
    None
}

/// Parses one `--json` flag: `None` when `arg` is not one, else its path
/// (`--json PATH` takes the next argument, `--json=PATH` the suffix) or
/// an error when the path is missing.
pub(crate) fn json_flag(
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<Result<PathBuf, String>> {
    let path = match arg.strip_prefix("--json")? {
        "" => rest.next(),
        tail => Some(tail.strip_prefix('=')?.to_string()),
    };
    Some(
        path.filter(|p| !p.is_empty() && !p.starts_with("--"))
            .map(PathBuf::from)
            .ok_or_else(|| "--json requires a path".to_string()),
    )
}

/// Builder for one experiment's machine-readable record.
///
/// Construction stamps the wall-clock start and the common config header
/// (worker `threads` from `RAPID_THREADS`, `fault_seed` from
/// `RAPID_FAULT_SEED`); the binary adds its own config knobs and metrics
/// as it runs, then calls [`BenchRecord::finish`] at exit.
#[derive(Debug)]
pub struct BenchRecord {
    experiment: String,
    start: Instant,
    config: Vec<(String, Json)>,
    metrics: Vec<(String, f64)>,
    /// Accumulated native telemetry (counters/gauges/histograms) from
    /// every [`BenchRecord::merge_registry`] call — the OpenMetrics
    /// snapshot source.
    registry: MetricsRegistry,
    /// Where [`BenchRecord::finish`] writes the record (the `--json` path).
    json: Option<PathBuf>,
}

impl BenchRecord {
    /// Starts a record for `experiment` (the binary name by convention)
    /// with the standard config header; [`BenchRecord::finish`] writes it
    /// to the path following this process's `--json` flag, if any.
    pub fn new(experiment: &str) -> Self {
        Self::with_json(experiment, json_path_from_args())
    }

    /// [`BenchRecord::new`] with an explicit record path.
    pub(crate) fn with_json(experiment: &str, json: Option<PathBuf>) -> Self {
        let mut r = Self {
            experiment: experiment.to_string(),
            start: Instant::now(),
            config: Vec::new(),
            metrics: Vec::new(),
            registry: MetricsRegistry::new(),
            json,
        };
        r.config_num("threads", crate::num_threads() as f64);
        r.config_num("fault_seed", FaultConfig::seed_from_env(0) as f64);
        // Kernel-dispatch provenance: the resolved RAPID_SIMD knob and
        // what the CPU actually offers, so records from different hosts
        // or env settings are distinguishable after the fact.
        r.config_str("simd_mode", rapid_numerics::SimdMode::from_env().as_str());
        r.put_config("simd_detected", Json::Bool(rapid_numerics::dispatch::simd_available()));
        r
    }

    /// Adds (or overwrites) a numeric config entry.
    pub fn config_num(&mut self, key: &str, value: f64) {
        self.put_config(key, Json::num(value));
    }

    /// Adds (or overwrites) a string config entry.
    pub fn config_str(&mut self, key: &str, value: &str) {
        self.put_config(key, Json::str(value));
    }

    fn put_config(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.config.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.config.push((key.to_string(), value));
        }
    }

    /// Adds (or overwrites) one metric. Non-finite values are skipped so
    /// the record always validates.
    pub fn metric(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.metrics.push((name.to_string(), value));
        }
    }

    /// The value of metric `name`, if recorded.
    pub(crate) fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Folds every counter/gauge/histogram of a telemetry registry into
    /// the metrics map (histograms expand to `.count`/`.sum`/… as in
    /// [`MetricsRegistry::to_json`]).
    pub fn merge_registry(&mut self, reg: &MetricsRegistry) {
        if let Some(entries) = reg.to_json().as_obj() {
            for (k, v) in entries {
                if let Some(x) = v.as_f64() {
                    self.metric(k, x);
                }
            }
        }
        self.registry.merge(reg);
    }

    /// Renders the record as an OpenMetrics text snapshot: every merged
    /// registry metric natively (histograms keep their buckets), plus the
    /// record's scalar metrics as gauges, all labeled with the experiment
    /// name. Scalar metrics shadowed by a native registry entry — or by a
    /// histogram's `.count`/`.sum`/... expansion keys — are skipped so no
    /// family is emitted twice.
    fn to_openmetrics(&self) -> String {
        let mut reg = self.registry.clone();
        for (k, v) in &self.metrics {
            if reg.get(k).is_some() {
                continue;
            }
            if let Some((base, _)) = k.rsplit_once('.') {
                if matches!(reg.get(base), Some(Metric::Histogram(_))) {
                    continue;
                }
            }
            reg.set_gauge(k, *v);
        }
        openmetrics::render_labeled(&reg, &[("experiment", &self.experiment)])
    }

    /// Elapsed wall-clock since construction, in milliseconds.
    fn wall_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Renders the full `rapid-bench-v1` record.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<(String, Json)> =
            self.metrics.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::str(BENCH_SCHEMA)),
            ("experiment".to_string(), Json::str(&self.experiment)),
            ("config".to_string(), Json::Obj(self.config.clone())),
            ("metrics".to_string(), Json::Obj(metrics)),
            ("wall_ms".to_string(), Json::num(self.wall_ms())),
        ])
    }

    /// The standard epilogue every bench binary calls last: prints the
    /// uniform wall-clock/threads/seed line, writes the JSON record when
    /// `--json` was passed, and dumps a validated OpenMetrics snapshot
    /// when `RAPID_METRICS=<path>` is set. Exits non-zero if a requested
    /// artifact is invalid or cannot be written, so it is never silently
    /// missing.
    pub fn finish(&self) {
        if let Err(e) = self.try_finish() {
            eprintln!("[{}] error: {e}", self.experiment);
            std::process::exit(1);
        }
    }

    /// [`BenchRecord::finish`] returning the failure instead of exiting.
    pub(crate) fn try_finish(&self) -> Result<(), String> {
        println!(
            "\n[{}] wall-clock {:.2}s, {} worker threads, fault seed {}",
            self.experiment,
            self.wall_ms() / 1e3,
            crate::num_threads(),
            FaultConfig::seed_from_env(0),
        );
        if let Some(path) = self.write_json()? {
            println!("[{}] wrote {}", self.experiment, path.display());
        }
        if let Some(path) = metrics_path_from_env() {
            let text = self.to_openmetrics();
            openmetrics::validate(&text)
                .map_err(|e| format!("OpenMetrics snapshot invalid: {e}"))?;
            std::fs::write(&path, &text).map_err(|e| {
                format!("cannot write RAPID_METRICS snapshot {}: {e}", path.display())
            })?;
            println!("[{}] wrote OpenMetrics snapshot {}", self.experiment, path.display());
        }
        Ok(())
    }

    /// Validates the record against the schema and writes it to the
    /// `--json` path; a no-op without one. Returns the path written to.
    fn write_json(&self) -> Result<Option<&Path>, String> {
        let Some(path) = self.json.as_deref() else { return Ok(None) };
        let record = self.to_json();
        validate_bench_record(&record).map_err(|e| format!("record fails its schema: {e}"))?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        dir.map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, record.render()))
            .map_err(|e| format!("cannot write --json record {}: {e}", path.display()))?;
        Ok(Some(path))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn record_validates_against_the_schema() {
        let mut r = BenchRecord::new("unit_test");
        r.config_str("suite", "resnet50");
        r.config_num("batch", 1.0);
        r.metric("speedup", 5.25);
        r.metric("dropped", f64::NAN); // skipped, never invalidates
        let j = r.to_json();
        validate_bench_record(&j).expect("record must validate");
        assert_eq!(j.get("experiment").and_then(Json::as_str), Some("unit_test"));
        let metrics = j.get("metrics").and_then(Json::as_obj).expect("metrics obj");
        assert_eq!(metrics.len(), 1, "non-finite metric must be dropped");
    }

    #[test]
    fn registry_counters_become_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.add("sim.macs.int4", 640);
        reg.set_gauge("util", 0.5);
        let mut r = BenchRecord::new("unit_test");
        r.merge_registry(&reg);
        let j = r.to_json();
        let metrics = j.get("metrics").and_then(Json::as_obj).expect("metrics obj");
        assert!(metrics.iter().any(|(k, v)| k == "sim.macs.int4" && v.as_f64() == Some(640.0)));
        assert!(metrics.iter().any(|(k, _)| k == "util"));
    }

    #[test]
    fn metric_and_config_overwrite_in_place() {
        let mut r = BenchRecord::new("unit_test");
        r.metric("x", 1.0);
        r.metric("x", 2.0);
        r.config_num("batch", 1.0);
        r.config_num("batch", 8.0);
        let j = r.to_json();
        let metrics = j.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].1.as_f64(), Some(2.0));
        let config = j.get("config").and_then(Json::as_obj).expect("config");
        let batch = config.iter().find(|(k, _)| k == "batch").expect("batch");
        assert_eq!(batch.1.as_f64(), Some(8.0));
    }

    #[test]
    fn simd_provenance_is_stamped_into_every_record() {
        let r = BenchRecord::new("unit_test");
        let j = r.to_json();
        let config = j.get("config").and_then(Json::as_obj).expect("config obj");
        let mode = config.iter().find(|(k, _)| k == "simd_mode").expect("simd_mode present");
        assert!(matches!(mode.1.as_str(), Some("auto" | "force" | "off")));
        let detected =
            config.iter().find(|(k, _)| k == "simd_detected").expect("simd_detected present");
        assert!(matches!(detected.1, Json::Bool(_)));
        validate_bench_record(&j).expect("record with simd stamp must validate");
    }

    #[test]
    fn openmetrics_snapshot_validates_and_keeps_histograms_native() {
        let mut reg = MetricsRegistry::new();
        reg.add("serve.submitted", 10);
        reg.observe("serve.latency_us", 900);
        reg.observe("serve.latency_us", 1_800);
        let mut r = BenchRecord::new("unit_test");
        r.merge_registry(&reg);
        r.metric("sweep.goodput_qps", 123.5);
        let text = r.to_openmetrics();
        let doc = rapid_telemetry::validate_openmetrics(&text).expect("snapshot validates");
        assert_eq!(doc.counter("serve_submitted"), Some(10.0));
        assert_eq!(doc.gauge("sweep_goodput_qps"), Some(123.5));
        // The histogram stays native; its fold-derived scalar metrics
        // (`serve.latency_us.count`, ...) must not shadow it as gauges.
        assert_eq!(doc.histogram("serve_latency_us"), Some((2.0, 2700.0)));
        assert!(doc.gauge("serve_latency_us_count").is_none());
    }

    #[test]
    fn json_flag_parses_both_spellings() {
        let argv = |v: &[&str]| json_path_from(v.iter().map(|s| (*s).to_string()));
        assert_eq!(argv(&["--json", "out.json"]), Some(PathBuf::from("out.json")));
        assert_eq!(argv(&["--json=x/y.json"]), Some(PathBuf::from("x/y.json")));
        assert_eq!(argv(&["--other"]), None);
        assert_eq!(argv(&[]), None);
    }
}
