//! Per-layer inference reports: the layer-resolution view behind the
//! aggregate numbers (what the compiler's design-space exploration and the
//! Fig 17 analysis look at).

use crate::cost::price_layer;
use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_compiler::plan::NetworkPlan;
use rapid_workloads::graph::Network;

/// Roofline placement of one layer: where it sits relative to the
/// machine's compute roof and memory-bandwidth slope, plus how its
/// on-chip cycles split across the pipeline components.
///
/// Ops are counted as 2 × MACs (multiply and add separately), matching
/// [`ChipConfig::peak_ops_per_cycle`]. Intensities are ops per DRAM
/// byte; a layer whose working set stays on chip has infinite intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak throughput at the layer's precision and effective frequency.
    pub peak_tops: f64,
    /// Achieved throughput: ops over the layer's wall time (the larger
    /// of its on-chip and memory-transfer times).
    pub achieved_tops: f64,
    /// Arithmetic intensity in ops/byte ([`f64::INFINITY`] when the
    /// layer moves no DRAM bytes).
    pub intensity: f64,
    /// Ridge-point intensity: peak ops/s over memory bandwidth. Layers
    /// left of this are bandwidth-limited on the classic roofline.
    pub ridge_intensity: f64,
    /// Share of on-chip cycles in ideal MPE compute.
    pub ideal_share: f64,
    /// Share of on-chip cycles in MPE overhead.
    pub overhead_share: f64,
    /// Share of on-chip cycles in SFU quantization.
    pub quant_share: f64,
    /// Share of on-chip cycles in SFU auxiliary work.
    pub aux_share: f64,
}

impl Roofline {
    fn zero() -> Self {
        Self {
            peak_tops: 0.0,
            achieved_tops: 0.0,
            intensity: 0.0,
            ridge_intensity: 0.0,
            ideal_share: 0.0,
            overhead_share: 0.0,
            quant_share: 0.0,
            aux_share: 0.0,
        }
    }
}

/// Cost report for one layer of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Execution precision.
    pub precision: Precision,
    /// MACs (×batch ×repeat).
    pub macs: u64,
    /// MPE cycles at the MAC-rate bound.
    pub ideal_cycles: f64,
    /// MPE overhead cycles (residue + exposed block-loads/fills + fixed).
    pub overhead_cycles: f64,
    /// Quantization cycles on the SFU.
    pub quant_cycles: f64,
    /// Auxiliary cycles on the SFU (for aux layers).
    pub aux_cycles: f64,
    /// External-memory bytes moved for this layer.
    pub dram_bytes: f64,
    /// Whether the layer is memory-bound at this configuration.
    pub memory_bound: bool,
    /// MPE-array utilization for compute layers (0 for aux layers).
    pub utilization: f64,
    /// Roofline placement and component cycle shares.
    pub roofline: Roofline,
}

impl LayerReport {
    /// Total on-chip cycles attributed to the layer.
    pub fn total_cycles(&self) -> f64 {
        self.ideal_cycles + self.overhead_cycles + self.quant_cycles + self.aux_cycles
    }

    /// One CSV row (matches [`csv_header`]).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.0},{:.0},{:.0},{:.0},{:.0},{},{:.3},{:.3},{:.3},{:.2},{:.2},{:.3},{:.3},{:.3},{:.3}",
            self.name,
            self.precision,
            self.macs,
            self.ideal_cycles,
            self.overhead_cycles,
            self.quant_cycles,
            self.aux_cycles,
            self.dram_bytes,
            self.memory_bound,
            self.utilization,
            self.roofline.achieved_tops,
            self.roofline.peak_tops,
            self.roofline.intensity,
            self.roofline.ridge_intensity,
            self.roofline.ideal_share,
            self.roofline.overhead_share,
            self.roofline.quant_share,
            self.roofline.aux_share
        )
    }
}

/// Header for [`LayerReport::csv_row`].
pub fn csv_header() -> &'static str {
    "layer,precision,macs,ideal_cycles,overhead_cycles,quant_cycles,aux_cycles,dram_bytes,memory_bound,utilization,\
     achieved_tops,peak_tops,intensity,ridge_intensity,ideal_share,overhead_share,quant_share,aux_share"
}

/// Produces per-layer reports for a compiled plan at a batch size.
///
/// # Panics
///
/// Panics if the plan does not match the network.
pub fn layer_reports(
    net: &Network,
    plan: &NetworkPlan,
    chip: &ChipConfig,
    batch: u64,
) -> Vec<LayerReport> {
    assert_eq!(net.layers.len(), plan.layers.len(), "plan/network mismatch");
    let mem_bw = chip.mem_bw_gbps * 1e9;
    net.layers
        .iter()
        .zip(&plan.layers)
        .map(|(layer, lp)| {
            let c = price_layer(layer, lp, chip, batch);
            let macs = layer.macs() * batch;
            let (precision, roofline) = if layer.op.is_compute() {
                let ops = 2.0 * macs as f64;
                let wall_s = c.wall_s();
                let peak_ops_per_s =
                    chip.peak_ops_per_cycle(lp.precision) as f64 * lp.effective_ghz * 1e9;
                let total = c.ideal + c.overhead + c.quant;
                let dram = c.dram_bytes();
                let share = |x: f64| if total > 0.0 { x / total } else { 0.0 };
                let roofline = Roofline {
                    peak_tops: peak_ops_per_s / 1e12,
                    achieved_tops: if wall_s > 0.0 { ops / wall_s / 1e12 } else { 0.0 },
                    intensity: if dram > 0.0 { ops / dram } else { f64::INFINITY },
                    ridge_intensity: peak_ops_per_s / mem_bw,
                    ideal_share: share(c.ideal),
                    overhead_share: share(c.overhead),
                    quant_share: share(c.quant),
                    aux_share: 0.0,
                };
                (lp.precision, roofline)
            } else {
                let aux_share = if c.aux > 0.0 { 1.0 } else { 0.0 };
                (Precision::Fp16, Roofline { aux_share, ..Roofline::zero() })
            };
            LayerReport {
                name: layer.name.clone(),
                precision,
                macs,
                ideal_cycles: c.ideal,
                overhead_cycles: c.overhead,
                quant_cycles: c.quant,
                aux_cycles: c.aux,
                dram_bytes: c.dram_bytes(),
                memory_bound: c.mem_s > c.onchip_s,
                utilization: c.utilization,
                roofline,
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_compiler::passes::compile;
    use rapid_workloads::suite::benchmark;

    fn reports(name: &str, p: Precision) -> Vec<LayerReport> {
        let net = benchmark(name).unwrap();
        let chip = ChipConfig::rapid_4core();
        let plan = compile(&net, &chip, p);
        layer_reports(&net, &plan, &chip, 1)
    }

    #[test]
    fn reports_cover_every_layer() {
        let net = benchmark("resnet50").unwrap();
        let r = reports("resnet50", Precision::Int4);
        assert_eq!(r.len(), net.layers.len());
    }

    #[test]
    fn layer_reports_sum_to_network_breakdown() {
        // Both views fold the same per-layer pricing in layer order, so
        // every breakdown component is exactly its per-layer sum.
        use crate::inference::evaluate_inference;
        use crate::latency::SERVING_PRECISIONS;
        use rapid_workloads::suite::benchmark_suite;
        let chip = ChipConfig::rapid_4core();
        for net in benchmark_suite() {
            for p in SERVING_PRECISIONS {
                let plan = compile(&net, &chip, p);
                for batch in [1, 8] {
                    let agg = evaluate_inference(&net, &plan, &chip, batch).breakdown;
                    let per = layer_reports(&net, &plan, &chip, batch);
                    let sum = |f: fn(&LayerReport) -> f64| per.iter().fold(0.0, |a, l| a + f(l));
                    let what = format!("{} {p} batch {batch}", net.name);
                    assert_eq!(sum(|l| l.ideal_cycles), agg.conv_ideal, "{what}: ideal");
                    assert_eq!(sum(|l| l.overhead_cycles), agg.conv_overhead, "{what}: overhead");
                    assert_eq!(sum(|l| l.quant_cycles), agg.quant, "{what}: quant");
                    assert_eq!(sum(|l| l.aux_cycles), agg.aux, "{what}: aux");
                }
            }
        }
    }

    #[test]
    fn first_layer_is_fp16_and_underutilized() {
        let r = reports("resnet50", Precision::Int4);
        let first = r.iter().find(|l| l.macs > 0).expect("has compute");
        assert_eq!(first.precision, Precision::Fp16);
        assert!(first.utilization < 0.5, "conv1 utilization {}", first.utilization);
    }

    #[test]
    fn roofline_is_consistent() {
        let r = reports("resnet50", Precision::Int4);
        for l in &r {
            let rf = &l.roofline;
            let shares = rf.ideal_share + rf.overhead_share + rf.quant_share + rf.aux_share;
            if l.total_cycles() > 0.0 {
                assert!((shares - 1.0).abs() < 1e-9, "{}: shares sum {shares}", l.name);
            }
            if l.macs == 0 {
                assert_eq!(rf.achieved_tops, 0.0, "{}", l.name);
                continue;
            }
            assert!(rf.peak_tops > 0.0 && rf.achieved_tops > 0.0, "{}", l.name);
            assert!(
                rf.achieved_tops <= rf.peak_tops * 1.01,
                "{}: achieved {} > peak {}",
                l.name,
                rf.achieved_tops,
                rf.peak_tops
            );
            assert!(rf.intensity > 0.0 && rf.ridge_intensity > 0.0, "{}", l.name);
            // A layer that the time model calls memory-bound must sit left
            // of the ridge point on the classic roofline too.
            if l.memory_bound {
                let left_of_ridge = rf.intensity < rf.ridge_intensity;
                assert!(left_of_ridge, "{}: memory-bound right of ridge", l.name);
            }
        }
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let r = reports("mobilenetv1", Precision::Int4);
        let cols = csv_header().split(',').count();
        for row in r.iter().take(5) {
            assert_eq!(row.csv_row().split(',').count(), cols);
        }
    }
}
