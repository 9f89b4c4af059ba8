//! The machine-readable bench record schema and its validator.
//!
//! Every bench binary's `--json <path>` output is one *bench record*:
//!
//! ```json
//! {
//!   "schema": "rapid-bench-v1",
//!   "experiment": "fig13_inference",
//!   "config": { "threads": 8, "fault_seed": "3735928559", ... },
//!   "metrics": { "sim.core0.macs": 123456, ... },
//!   "wall_ms": 41.7
//! }
//! ```
//!
//! `repro_all --json` aggregates per-binary records into an *aggregate*:
//!
//! ```json
//! { "schema": "rapid-bench-aggregate-v1", "records": [ ...bench records... ] }
//! ```
//!
//! `fault_seed` is a u64, so it is written as a decimal string: a JSON
//! number is an f64 here and would drop the low bits of any seed above
//! 2^53. Records that carry it as a number still validate.
//!
//! [`validate_bench_record`] / [`validate_aggregate`] are the tiny no-deps
//! validators the `scripts/check.sh --telemetry` gate runs against emitted
//! files; they return a human-readable description of the first violation.

use crate::json::Json;

/// Schema tag carried by every single-experiment bench record.
pub const BENCH_SCHEMA: &str = "rapid-bench-v1";

/// Schema tag carried by the `repro_all` aggregate.
pub const AGGREGATE_SCHEMA: &str = "rapid-bench-aggregate-v1";

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("{ctx}: missing required field '{key}'"))
}

fn expect_number(v: &Json, ctx: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{ctx}: expected a number"))
}

/// Checks that `record` is a well-formed `rapid-bench-v1` record.
///
/// # Errors
///
/// Describes the first schema violation found.
pub fn validate_bench_record(record: &Json) -> Result<(), String> {
    if record.as_obj().is_none() {
        return Err("bench record: expected a JSON object".to_string());
    }
    let schema = field(record, "schema", "bench record")?
        .as_str()
        .ok_or_else(|| "bench record: 'schema' must be a string".to_string())?;
    if schema != BENCH_SCHEMA {
        return Err(format!("bench record: schema '{schema}' != '{BENCH_SCHEMA}'"));
    }
    let experiment = field(record, "experiment", "bench record")?
        .as_str()
        .ok_or_else(|| "bench record: 'experiment' must be a string".to_string())?;
    if experiment.is_empty() {
        return Err("bench record: 'experiment' must be non-empty".to_string());
    }
    let ctx = format!("record '{experiment}'");

    let config = field(record, "config", &ctx)?;
    let config_fields =
        config.as_obj().ok_or_else(|| format!("{ctx}: 'config' must be an object"))?;
    expect_number(field(config, "threads", &ctx)?, &format!("{ctx}: config.threads"))?;
    let seed = field(config, "fault_seed", &ctx)?;
    if seed.as_f64().is_none() && seed.as_str().and_then(|s| s.parse::<u64>().ok()).is_none() {
        return Err(format!("{ctx}: config.fault_seed must be a number or a decimal u64 string"));
    }
    for (k, v) in config_fields {
        if v.as_f64().is_none() && v.as_str().is_none() && !matches!(v, Json::Bool(_)) {
            return Err(format!("{ctx}: config.{k} must be a number, string or bool"));
        }
    }

    let metrics = field(record, "metrics", &ctx)?;
    let metric_fields =
        metrics.as_obj().ok_or_else(|| format!("{ctx}: 'metrics' must be an object"))?;
    for (k, v) in metric_fields {
        expect_number(v, &format!("{ctx}: metrics.{k}"))?;
    }

    let wall = expect_number(field(record, "wall_ms", &ctx)?, &format!("{ctx}: wall_ms"))?;
    if !wall.is_finite() || wall < 0.0 {
        return Err(format!("{ctx}: wall_ms must be finite and non-negative, got {wall}"));
    }
    Ok(())
}

/// Checks that `doc` is a well-formed `rapid-bench-aggregate-v1` document
/// and that every contained record validates.
///
/// # Errors
///
/// Describes the first schema violation found.
pub fn validate_aggregate(doc: &Json) -> Result<(), String> {
    if doc.as_obj().is_none() {
        return Err("aggregate: expected a JSON object".to_string());
    }
    let schema = field(doc, "schema", "aggregate")?
        .as_str()
        .ok_or_else(|| "aggregate: 'schema' must be a string".to_string())?;
    if schema != AGGREGATE_SCHEMA {
        return Err(format!("aggregate: schema '{schema}' != '{AGGREGATE_SCHEMA}'"));
    }
    let records = field(doc, "records", "aggregate")?
        .as_arr()
        .ok_or_else(|| "aggregate: 'records' must be an array".to_string())?;
    if records.is_empty() {
        return Err("aggregate: 'records' must be non-empty".to_string());
    }
    for (i, r) in records.iter().enumerate() {
        validate_bench_record(r).map_err(|e| format!("aggregate record #{i}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn good_record() -> Json {
        Json::parse(
            r#"{
              "schema": "rapid-bench-v1",
              "experiment": "demo",
              "config": {"threads": 4, "fault_seed": 99, "mode": "smoke"},
              "metrics": {"cycles": 100, "util": 0.5},
              "wall_ms": 12.5
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn valid_record_passes() {
        assert_eq!(validate_bench_record(&good_record()), Ok(()));
    }

    #[test]
    fn missing_fields_are_named() {
        for key in ["schema", "experiment", "config", "metrics", "wall_ms"] {
            let r = good_record();
            let fields: Vec<(String, Json)> = r
                .as_obj()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != key)
                .cloned()
                .collect();
            let err = validate_bench_record(&Json::Obj(fields)).unwrap_err();
            assert!(err.contains(key), "error '{err}' should mention '{key}'");
        }
    }

    #[test]
    fn config_requires_threads_and_seed() {
        let r = Json::parse(
            r#"{"schema":"rapid-bench-v1","experiment":"x",
                "config":{"threads":1},"metrics":{},"wall_ms":0}"#,
        )
        .unwrap();
        let err = validate_bench_record(&r).unwrap_err();
        assert!(err.contains("fault_seed"));
    }

    #[test]
    fn fault_seed_is_a_number_or_a_decimal_u64_string() {
        let with_seed = |seed: &str| {
            Json::parse(&format!(
                r#"{{"schema":"rapid-bench-v1","experiment":"x",
                    "config":{{"threads":1,"fault_seed":{seed}}},"metrics":{{}},"wall_ms":0}}"#
            ))
            .unwrap()
        };
        for good in ["7", r#""5388115659948436559""#, r#""18446744073709551615""#] {
            assert_eq!(validate_bench_record(&with_seed(good)), Ok(()), "{good}");
        }
        for bad in [r#""""#, r#""-1""#, r#""0x10""#, r#""18446744073709551616""#, "true"] {
            let err = validate_bench_record(&with_seed(bad)).unwrap_err();
            assert!(err.contains("fault_seed"), "{bad}: {err}");
        }
    }

    #[test]
    fn non_numeric_metric_rejected() {
        let r = Json::parse(
            r#"{"schema":"rapid-bench-v1","experiment":"x",
                "config":{"threads":1,"fault_seed":0},
                "metrics":{"bad":"oops"},"wall_ms":0}"#,
        )
        .unwrap();
        let err = validate_bench_record(&r).unwrap_err();
        assert!(err.contains("metrics.bad"));
    }

    #[test]
    fn aggregate_validates_members() {
        let agg = Json::Obj(vec![
            ("schema".to_string(), Json::str(AGGREGATE_SCHEMA)),
            ("records".to_string(), Json::Arr(vec![good_record()])),
        ]);
        assert_eq!(validate_aggregate(&agg), Ok(()));

        let bad = Json::Obj(vec![
            ("schema".to_string(), Json::str(AGGREGATE_SCHEMA)),
            ("records".to_string(), Json::Arr(vec![Json::Null])),
        ]);
        let err = validate_aggregate(&bad).unwrap_err();
        assert!(err.contains("record #0"));
    }
}
