//! The benchmark's metrics: names, units, direction and regression bounds
//! (the same table `BENCHMARK.json` holds), and how each is computed from a
//! run.

use crate::stats;
use crate::trace::Profile;
use crate::Measured;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A modelled-chip quantity that must repeat bit for bit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound), exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None, exact: true }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, measured with tracing off. Times
/// are CPU time, except the open-loop request latency, and are scaled to
/// the reference host (see [`crate::clock::HostSpeed`]), except in serving.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("work_per_s", "1/s", Higher, 0.20),
    e2e("op_ms_p50", "ms", Lower, 0.20),
];

/// Metrics of single layers, from the traced run. `<layer>.<stat>` names
/// whose stat is one of `calls_per_op`, `gmac_per_op`, `melems_per_op`,
/// `share` and `gmac_per_s` come from the layer's spans; the rest are
/// reported by the workloads.
pub const PER_LAYER: [Metric; 50] = [
    layer("numerics.conv.calls_per_op", "count", Lower),
    layer("numerics.conv.gmac_per_op", "GMAC", Lower),
    layer("numerics.conv.share", "%", Lower),
    layer("numerics.conv.gmac_per_s", "GMAC/s", Higher),
    layer("numerics.gemm.calls_per_op", "count", Lower),
    layer("numerics.gemm.gmac_per_op", "GMAC", Lower),
    layer("numerics.gemm.share", "%", Lower),
    layer("numerics.gemm.gmac_per_s", "GMAC/s", Higher),
    layer("numerics.gemv.calls_per_op", "count", Lower),
    layer("numerics.gemv.share", "%", Lower),
    layer("numerics.gemv.gmac_per_s", "GMAC/s", Higher),
    layer("numerics.quant.calls_per_op", "count", Lower),
    layer("numerics.quant.share", "%", Lower),
    layer("numerics.sfu.melems_per_op", "Melem", Lower),
    layer("numerics.sfu.share", "%", Lower),
    layer("numerics.im2col.share", "%", Lower),
    layer("refnet.backend.fwd.calls_per_op", "count", Lower),
    layer("refnet.backend.fwd.share", "%", Lower),
    layer("refnet.backend.fwd.gmac_per_s", "GMAC/s", Higher),
    layer("refnet.backend.bwd.calls_per_op", "count", Lower),
    layer("refnet.backend.bwd.share", "%", Lower),
    layer("refnet.backend.bwd.gmac_per_s", "GMAC/s", Higher),
    layer("refnet.backend.wgrad.calls_per_op", "count", Lower),
    layer("refnet.backend.wgrad.share", "%", Lower),
    layer("refnet.backend.wgrad.gmac_per_s", "GMAC/s", Higher),
    layer("bench.sgd.share", "%", Lower),
    layer("sim.chip.calls_per_op", "count", Lower),
    layer("sim.chip.share", "%", Lower),
    layer("sim.chip.kcycles_per_s", "kcycle/s", Higher),
    exact("sim.chip.total_kcycles", "kcycle"),
    exact("sim.chip.compute_kcycles", "kcycle"),
    exact("ring.distribution_kcycles", "kcycle"),
    layer("compiler.map_layer.share", "%", Lower),
    exact("model.err_pct", "%"),
    exact("model.max_layer_err_pct", "%"),
    layer("serve.exec.share", "%", Higher),
    layer("serve.queue.share", "%", Lower),
    layer("serve.submit.share", "%", Lower),
    layer("serve.batch_mean", "count", Higher),
    layer("serve.downgraded_pct", "%", Lower),
    layer("serve.shed_pct", "%", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.timed_out", "count", Lower),
    layer("serve.batches", "count", Lower),
    layer("serve.goodput_per_s", "1/s", Higher),
    layer("bench.samples", "count", Higher),
    layer("bench.gen.lag_p90_pct", "%", Lower),
    layer("bench.gen.lag_max_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.attributed_pct", "%", Higher),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// End-to-end values in [`END_TO_END`] order.
pub fn end_to_end(setup_s: &[f64], m: &Measured) -> Result<[f64; 4], String> {
    let setup = stats::median(setup_s).ok_or("no set-up time")?;
    if m.busy_s <= 0.0 || m.work <= 0.0 {
        return Err("the run completed no work".to_string());
    }
    let p50 = stats::percentile(&m.latencies_ms, 50.0).map_err(|e| format!("op_ms_p50: {e}"))?;
    if !p50.is_finite() {
        return Err("more than half the operations failed".to_string());
    }
    Ok([setup, peak_rss_mb()?, m.work / m.busy_s, p50])
}

/// A stat derived from one layer's spans, for `<layer>.<stat>` names.
fn layer_stat(profile: &Profile, ops: f64, name: &str) -> Option<f64> {
    let (layer, stat) = name.rsplit_once('.')?;
    let l = profile.layers.get(layer).copied().unwrap_or_default();
    let per_op = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
    Some(match stat {
        "calls_per_op" => per_op(l.calls as f64),
        "gmac_per_op" => per_op(l.work as f64 / 1e9),
        "melems_per_op" => per_op(l.work as f64 / 1e6),
        "share" => profile.share_pct(layer),
        "gmac_per_s" if l.self_ns > 0 => l.work as f64 / l.self_ns as f64,
        "gmac_per_s" => 0.0,
        _ => return None,
    })
}

/// Per-layer values in [`PER_LAYER`] order, from a traced run and the
/// tracing overhead measured against the untraced run before it. Metrics
/// of layers a workload does not have read 0.
pub fn per_layer(m: &Measured, overhead_pct: f64) -> Result<Vec<f64>, String> {
    let ops = m.profile.roots as f64;
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "bench.samples" => m.latencies_ms.len() as f64,
                "bench.trace_overhead_pct" => overhead_pct,
                "bench.attributed_pct" => m.profile.attributed_pct(),
                name => m
                    .extras
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .or_else(|| layer_stat(&m.profile, ops, name))
                    .unwrap_or(0.0),
            };
            if value.is_finite() {
                Ok(value)
            } else {
                Err(format!("{} is not finite", metric.name))
            }
        })
        .collect()
}
