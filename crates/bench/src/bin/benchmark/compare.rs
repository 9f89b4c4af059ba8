//! `--compare <dirA> <dirB>`: compares two sets of runs.
//!
//! Each directory holds the `rapid-bench-v1` records the runs wrote with
//! `--json`. For every (workload, metric) pair both sets measured, the
//! report gives each set's median and quartiles and a verdict: an
//! end-to-end metric agrees when B's median is not worse than A's by more
//! than the metric's bound, and a modelled-chip metric agrees only when
//! every run of both sets reads the same value.

use crate::metrics::{self, Better};
use crate::stats;
use rapid_telemetry::{validate_bench_record, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Values per workload and metric.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<RunSet, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut set = RunSet::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        validate_bench_record(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("config")
            .and_then(|c| c.get("workload"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no config.workload", path.display()))?;
        for (name, v) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = v.as_f64() {
                set.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no benchmark records", dir.display()));
    }
    Ok(set)
}

/// A's and B's values of one metric: the verdict, or `None` when the metric
/// has neither a bound nor an exactness rule.
pub fn verdict(name: &str, a: &[f64], b: &[f64]) -> Option<bool> {
    let m = metrics::find(name)?;
    if m.exact {
        let first = a.first().or(b.first())?;
        return Some(a.iter().chain(b).all(|v| v.to_bits() == first.to_bits()));
    }
    let bound = m.bound?;
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let worse = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    Some(worse <= bound)
}

fn describe(v: &[f64]) -> String {
    match (stats::quartiles(v), stats::median(v)) {
        (Some([q1, med, q3]), _) => format!("{med:>12.4} [{q1:.4}, {q3:.4}]"),
        (None, Some(med)) => format!("{med:>12.4}"),
        _ => "-".to_string(),
    }
}

/// Prints the comparison; true when every verdict agrees.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    println!(
        "{:<16} {:<34} {:>4} {:>34} {:>4} {:>34}  verdict",
        "workload", "metric", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]"
    );
    let mut all_agree = true;
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else { continue };
        let v = verdict(name, va, vb);
        all_agree &= v != Some(false);
        let label = match (v, metrics::find(name)) {
            (Some(true), Some(m)) if m.exact => "identical".to_string(),
            (Some(false), Some(m)) if m.exact => "DIFFERS".to_string(),
            (Some(true), Some(m)) => format!("within {:.0}%", m.bound.unwrap_or(0.0) * 100.0),
            (Some(false), Some(m)) => format!("WORSE by > {:.0}%", m.bound.unwrap_or(0.0) * 100.0),
            _ => "-".to_string(),
        };
        println!(
            "{workload:<16} {name:<34} {:>4} {:>34} {:>4} {:>34}  {label}",
            va.len(),
            describe(va),
            vb.len(),
            describe(vb)
        );
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_exactness() {
        // op_ms_p50: lower is better, bound 20%.
        assert_eq!(verdict("op_ms_p50", &[10.0, 10.2], &[12.1, 12.1]), Some(true));
        assert_eq!(verdict("op_ms_p50", &[10.0, 10.0], &[12.1, 12.1]), Some(false));
        // work_per_s: higher is better, bound 20%.
        assert_eq!(verdict("work_per_s", &[100.0], &[81.0]), Some(true));
        assert_eq!(verdict("work_per_s", &[100.0], &[79.0]), Some(false));
        // Modelled cycles must repeat exactly.
        assert_eq!(verdict("sim.chip.total_kcycles", &[5.0, 5.0], &[5.0]), Some(true));
        assert_eq!(verdict("sim.chip.total_kcycles", &[5.0], &[5.000001]), Some(false));
        assert_eq!(verdict("numerics.conv.share", &[1.0], &[9.0]), None);
    }
}
