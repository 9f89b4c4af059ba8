//! Fast analytical latency surrogate for serving admission control.
//!
//! The serving runtime must decide *before* enqueueing a request whether
//! its deadline is feasible — running the cycle simulator (or even the
//! full analytical model) per request is far too slow for that. Following
//! the NeuroScalar approach, this module fits a tiny closed-form surrogate
//! over the calibrated analytical model: for each `(model, precision)`
//! pair, [`evaluate_inference`] is sampled at two batch sizes and reduced
//! to a linear `base + per_item × batch` service-time law. Lookups are
//! then a couple of map probes plus a multiply — cheap enough to sit on
//! the admission hot path of every request.
//!
//! The linear law is exact for the throughput-dominated regime the model
//! already describes (per-layer cost is affine in batch for the mapped
//! compute and quantization terms) and conservative at the batch sizes in
//! between the two calibration points.

use crate::inference::evaluate_inference;
use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_compiler::passes::compile;
use rapid_workloads::graph::Network;
use std::collections::BTreeMap;

/// Serving-relevant precisions, in quality order (highest first). These
/// are the tiers the load shedder walks down under pressure.
pub const SERVING_PRECISIONS: [Precision; 3] =
    [Precision::Fp16, Precision::Hfp8, Precision::Int4];

/// Linear service-time law for one `(model, precision)` pair:
/// `service(batch) = base_us + per_item_us × batch`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyEntry {
    /// Fixed per-batch cost in microseconds (pipeline fill, per-layer
    /// overheads, weight streaming).
    pub base_us: f64,
    /// Marginal cost of one more input in the batch, microseconds.
    pub per_item_us: f64,
}

impl LatencyEntry {
    /// Estimated service time for a batch, microseconds.
    pub(crate) fn estimate_us(&self, batch: usize) -> f64 {
        self.base_us + self.per_item_us * batch as f64
    }
}

/// The surrogate table: closed-form service-time estimates for every
/// calibrated `(model, precision)` pair.
#[derive(Debug, Clone, Default)]
pub struct LatencyTable {
    entries: BTreeMap<(String, Precision), LatencyEntry>,
}

impl LatencyTable {
    /// Builds the table for `models` over the serving precisions on
    /// `chip`, sampling each pair at batch 1 and `calib_batch` (≥ 2) and
    /// fitting the linear law through the two points.
    pub fn build(
        models: &[Network],
        chip: &ChipConfig,
        calib_batch: u64,
    ) -> Self {
        let calib_batch = calib_batch.max(2);
        let mut entries = BTreeMap::new();
        for net in models {
            for p in SERVING_PRECISIONS {
                let plan = compile(net, chip, p);
                let lat1 = evaluate_inference(net, &plan, chip, 1).latency_s * 1e6;
                let latb =
                    evaluate_inference(net, &plan, chip, calib_batch).latency_s * 1e6;
                let per_item = ((latb - lat1) / (calib_batch - 1) as f64).max(0.0);
                let base = (lat1 - per_item).max(0.0);
                entries.insert(
                    (net.name.clone(), p),
                    LatencyEntry { base_us: base, per_item_us: per_item },
                );
            }
        }
        Self { entries }
    }

    /// Builds a table directly from fitted entries — synthetic tables
    /// for unit tests and virtual-time serving sweeps.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = ((String, Precision), LatencyEntry)>,
    {
        Self { entries: entries.into_iter().collect() }
    }

    /// The fitted law for one pair, if calibrated.
    pub fn entry(&self, model: &str, precision: Precision) -> Option<LatencyEntry> {
        self.entries.get(&(model.to_string(), precision)).copied()
    }

    /// Estimated service time of a `batch`-sized request group,
    /// microseconds. `None` when the pair was not calibrated.
    pub fn estimate_us(&self, model: &str, precision: Precision, batch: usize) -> Option<f64> {
        self.entry(model, precision).map(|e| e.estimate_us(batch))
    }

    /// Steady-state capacity of `workers` parallel executors serving
    /// `model` at `precision` with batches of `batch`, in requests/s.
    pub fn capacity_qps(
        &self,
        model: &str,
        precision: Precision,
        batch: usize,
        workers: usize,
    ) -> Option<f64> {
        let batch = batch.max(1);
        let e = self.entry(model, precision)?;
        let per_req_us = e.per_item_us + e.base_us / batch as f64;
        if per_req_us <= 0.0 {
            return None;
        }
        Some(workers as f64 * 1e6 / per_req_us)
    }

    /// Calibrated model names (each present for all serving precisions).
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.entries.keys().map(|(m, _)| m.clone()).collect();
        names.dedup();
        names
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::suite::benchmark;

    fn table_for(names: &[&str]) -> LatencyTable {
        let models: Vec<Network> = names.iter().map(|n| benchmark(n).unwrap()).collect();
        LatencyTable::build(&models, &ChipConfig::rapid_4core(), 32)
    }

    #[test]
    fn estimates_are_positive_and_monotone_in_batch() {
        let t = table_for(&["resnet50", "mobilenetv1"]);
        assert_eq!(t.entries.len(), 6);
        for model in ["resnet50", "mobilenetv1"] {
            for p in SERVING_PRECISIONS {
                let b1 = t.estimate_us(model, p, 1).unwrap();
                let b8 = t.estimate_us(model, p, 8).unwrap();
                assert!(b1 > 0.0, "{model} {p:?}: {b1}");
                assert!(b8 >= b1, "{model} {p:?}: batch-8 {b8} < batch-1 {b1}");
            }
        }
    }

    #[test]
    fn lower_precision_is_faster() {
        // The shedding premise: walking FP16 → HFP8 → INT4 buys capacity.
        let t = table_for(&["resnet50"]);
        let fp16 = t.estimate_us("resnet50", Precision::Fp16, 8).unwrap();
        let hfp8 = t.estimate_us("resnet50", Precision::Hfp8, 8).unwrap();
        let int4 = t.estimate_us("resnet50", Precision::Int4, 8).unwrap();
        assert!(hfp8 < fp16, "hfp8 {hfp8} vs fp16 {fp16}");
        assert!(int4 < hfp8, "int4 {int4} vs hfp8 {hfp8}");
    }

    #[test]
    fn surrogate_tracks_the_full_model_between_calibration_points() {
        // The linear law sampled at batch {1, 32} must stay within 25% of
        // the full analytical model at an intermediate batch size.
        let net = benchmark("resnet50").unwrap();
        let chip = ChipConfig::rapid_4core();
        let t = LatencyTable::build(std::slice::from_ref(&net), &chip, 32);
        let plan = compile(&net, &chip, Precision::Int4);
        let exact = evaluate_inference(&net, &plan, &chip, 8).latency_s * 1e6;
        let est = t.estimate_us("resnet50", Precision::Int4, 8).unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.25, "surrogate off by {:.0}% ({est} vs {exact})", rel * 100.0);
    }

    #[test]
    fn capacity_scales_with_workers_and_uncalibrated_lookups_are_none() {
        let t = table_for(&["lstm"]);
        let one = t.capacity_qps("lstm", Precision::Fp16, 8, 1).unwrap();
        let four = t.capacity_qps("lstm", Precision::Fp16, 8, 4).unwrap();
        assert!((four / one - 4.0).abs() < 1e-9);
        assert!(t.estimate_us("resnet50", Precision::Fp16, 1).is_none());
        assert!(t.entry("lstm", Precision::Int2).is_none());
        assert_eq!(t.models(), vec!["lstm".to_string()]);
    }
}
