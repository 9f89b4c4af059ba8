//! The weight-stationary dataflow mapping and its cycle cost (Fig 5).
//!
//! Dataflow recap (paper §III-A-4): output channels map spatially along
//! columns × SIMD (64 per corelet), input channels along rows × LRF depth;
//! inputs stream along rows, outputs along columns; weights are stationary
//! in the LRF and reloaded between (kh, kw, ci-block, co-tile) tiles;
//! `H×W` and the batch are the innermost streaming loops.
//!
//! This module is the compiler's *bandwidth-centric analytical model*
//! (paper §IV-B): it returns the cycle breakdown the design-space
//! exploration and the downstream performance model both consume.

use rapid_arch::geometry::CoreletConfig;
use rapid_arch::precision::Precision;
use rapid_workloads::graph::Op;

/// How a compute layer's work is split across corelets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Each corelet owns a share of the output-channel tiles.
    OutputChannels,
    /// Corelets replicate the weights and split the streaming (H×W×N)
    /// dimension — used when there are fewer Co tiles than corelets.
    Spatial,
}

/// Cycle cost of one compute layer mapped onto `n_corelets` corelets.
/// All counts are cycles *of the slowest corelet* (imbalance included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingCost {
    /// The split that was selected.
    pub split: Split,
    /// Lower-bound cycles: exact MACs / peak MAC rate of the corelets.
    pub ideal_cycles: f64,
    /// Streaming compute cycles actually spent (includes spatial residue
    /// padding and imbalance).
    pub compute_cycles: f64,
    /// Cycles stalled block-loading LRF weights between tiles.
    pub blockload_cycles: f64,
    /// Systolic pipeline fill/drain cycles.
    pub fill_cycles: f64,
}

impl MappingCost {
    /// Total cycles on the critical corelet.
    pub fn total_cycles(&self) -> f64 {
        self.compute_cycles + self.blockload_cycles + self.fill_cycles
    }

    /// Conv/GEMM *overhead* cycles (Fig 17's second category): everything
    /// above the ideal-MAC lower bound.
    pub fn overhead_cycles(&self) -> f64 {
        (self.total_cycles() - self.ideal_cycles).max(0.0)
    }

    /// MPE array utilization (ideal / total).
    pub fn utilization(&self) -> f64 {
        if self.total_cycles() <= 0.0 {
            return 0.0;
        }
        (self.ideal_cycles / self.total_cycles()).min(1.0)
    }
}

/// Canonical GEMM-like view of a compute op: `stream` positions ×
/// `reduction` (ci) × `outputs` (co) with a `kh×kw` stationary-reuse loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GemmView {
    stream: u64,
    reduction: u64,
    outputs: u64,
    kernel: u64,
}

fn view_of(op: &Op, batch: u64) -> Option<GemmView> {
    match *op {
        Op::Conv { ci, co, h, w, kh, kw, stride, pad_h, pad_w } => {
            let ho = Op::conv_out(h, kh, stride, pad_h);
            let wo = Op::conv_out(w, kw, stride, pad_w);
            Some(GemmView { stream: batch * ho * wo, reduction: ci, outputs: co, kernel: kh * kw })
        }
        Op::DepthwiseConv { c, h, w, k, stride, pad } => {
            let ho = Op::conv_out(h, k, stride, pad);
            let wo = Op::conv_out(w, k, stride, pad);
            // No cross-channel reduction: channels map to the output axis
            // and the k×k window is the only reduction available to the
            // rows — the structural reason depthwise layers underuse the
            // array.
            Some(GemmView { stream: batch * ho * wo, reduction: k * k, outputs: c, kernel: 1 })
        }
        Op::Gemm { m, k, n, .. } => {
            Some(GemmView { stream: batch * m, reduction: k, outputs: n, kernel: 1 })
        }
        Op::Aux { .. } => None,
    }
}

/// Streaming cycles per position for a reduction of `ci` channels: the LRF
/// holds up to `ci_lrf` channels per block; each cycle consumes `ci_cyc`
/// of them.
fn cycles_per_position(ci_block: u64, ci_cyc: u64) -> u64 {
    ci_block.div_ceil(ci_cyc)
}

/// Maps one compute op at a precision onto `n_corelets` corelets and
/// returns the cycle cost of the critical corelet, choosing the better of
/// the output-channel and spatial splits.
///
/// `batch` multiplies the streaming dimension (mini-batch mapped to the
/// innermost loops, Fig 5).
///
/// # Panics
///
/// Panics if called with an [`Op::Aux`] (auxiliary ops run on the SFU, not
/// the MPE array) or `n_corelets == 0`.
pub fn map_layer(
    op: &Op,
    precision: Precision,
    batch: u64,
    corelet: &CoreletConfig,
    n_corelets: u32,
) -> MappingCost {
    assert!(n_corelets > 0, "need at least one corelet");
    #[allow(clippy::expect_used)] // caller filters to compute ops (documented)
    let v = view_of(op, batch).expect("auxiliary ops do not map to the MPE array");
    let co_split = map_with_split(&v, op, precision, batch, corelet, n_corelets, Split::OutputChannels);
    let sp_split = map_with_split(&v, op, precision, batch, corelet, n_corelets, Split::Spatial);
    if co_split.total_cycles() <= sp_split.total_cycles() {
        co_split
    } else {
        sp_split
    }
}

fn map_with_split(
    v: &GemmView,
    op: &Op,
    precision: Precision,
    batch: u64,
    corelet: &CoreletConfig,
    n_corelets: u32,
    split: Split,
) -> MappingCost {
    let n_corelets = u64::from(n_corelets);
    let co_tile = u64::from(corelet.co_tile());
    let ci_cyc = u64::from(corelet.ci_tile(precision));
    let ci_lrf = u64::from(corelet.ci_lrf_max(precision));

    let co_tiles = v.outputs.div_ceil(co_tile).max(1);
    // Tile widths: full 64-wide tiles plus one possibly-partial last tile
    // (a narrow tile streams positions at the same rate but loads fewer
    // weight bytes).
    let tile_width = |t: u64| {
        if t + 1 == co_tiles {
            v.outputs - t * co_tile
        } else {
            co_tile
        }
    };

    // Exact per-corelet share accounting: the reported cost is the
    // critical (slowest) corelet's.
    let (tiles_per_corelet, width_per_corelet, stream_per_corelet) = match split {
        Split::OutputChannels => {
            // Round-robin tile assignment; find the heaviest corelet.
            let mut counts = vec![0u64; n_corelets as usize];
            let mut widths = vec![0u64; n_corelets as usize];
            for t in 0..co_tiles {
                let c = (t % n_corelets) as usize;
                counts[c] += 1;
                widths[c] += tile_width(t);
            }
            let worst = (0..n_corelets as usize)
                .max_by_key(|&c| (counts[c], widths[c]))
                .unwrap_or(0);
            (counts[worst], widths[worst], v.stream)
        }
        Split::Spatial => {
            // Replicate weights; each tile's stream is split across the
            // corelets that share it.
            let group = (n_corelets / co_tiles).max(1);
            let tiles = co_tiles.div_ceil(n_corelets / group.max(1)).max(1);
            (tiles, tiles * co_tile.min(v.outputs), v.stream.div_ceil(group))
        }
    };

    // Reduction blocking through the LRF.
    let full_blocks = v.reduction / ci_lrf;
    let rem = v.reduction % ci_lrf;
    let cyc_per_pos = full_blocks * cycles_per_position(ci_lrf, ci_cyc)
        + if rem > 0 { cycles_per_position(rem, ci_cyc) } else { 0 };
    let ci_blocks = full_blocks + u64::from(rem > 0);

    let compute_cycles =
        (tiles_per_corelet * v.kernel * stream_per_corelet * cyc_per_pos) as f64;

    // Block-load cost: the actual weight bytes of this corelet's share
    // pushed through its L1 port: width × reduction × kernel elements.
    let elem_bytes = precision.bytes();
    let blocks = tiles_per_corelet * ci_blocks * v.kernel;
    let bw = f64::from(corelet.l1_bw_bytes_per_cycle);
    let blockload_cycles =
        (width_per_corelet * v.reduction * v.kernel) as f64 * elem_bytes / bw;

    let fill_cycles = blocks as f64 * corelet.pipeline_fill_cycles() as f64;

    let macs = op.macs() as f64 * batch as f64;
    let peak = corelet.macs_per_cycle(precision) as f64 * n_corelets as f64;
    let ideal_cycles = macs / peak;

    MappingCost {
        split,
        ideal_cycles,
        compute_cycles,
        blockload_cycles,
        fill_cycles,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn corelet() -> CoreletConfig {
        CoreletConfig::default()
    }

    fn conv(ci: u64, co: u64, h: u64, k: u64, stride: u64, pad: u64) -> Op {
        Op::Conv { ci, co, h, w: h, kh: k, kw: k, stride, pad_h: pad, pad_w: pad }
    }

    #[test]
    fn perfectly_tiled_conv_has_high_utilization() {
        // Ci=128, Co=512 at FP16: multiples of every tile granularity.
        let op = conv(128, 512, 28, 3, 1, 1);
        let cost = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
        assert!(cost.utilization() > 0.85, "util {}", cost.utilization());
    }

    #[test]
    fn int4_needs_wider_channels_for_utilization() {
        // Ci=64 saturates INT4's 64-channel/cycle row granularity exactly;
        // Ci=32 wastes half the rows.
        let wide = map_layer(&conv(64, 512, 28, 3, 1, 1), Precision::Int4, 1, &corelet(), 8);
        let narrow = map_layer(&conv(32, 512, 28, 3, 1, 1), Precision::Int4, 1, &corelet(), 8);
        assert!(wide.utilization() > 1.9 * narrow.utilization());
    }

    #[test]
    fn first_layer_ci3_underuses_the_array() {
        // Paper: the dataflow "yields high utilization for almost all
        // convolution layers other than the first layer whose Ci is small."
        let op = conv(3, 64, 224, 7, 2, 3);
        let cost = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
        assert!(cost.utilization() < 0.5, "util {}", cost.utilization());
    }

    #[test]
    fn batch1_gemv_is_blockload_bound() {
        // FC layers "require frequent block-loads for small batch sizes".
        let op = Op::Gemm { m: 1, k: 1500, n: 6000, weighted: true };
        let cost = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
        assert!(
            cost.blockload_cycles > 3.0 * cost.compute_cycles,
            "blockload {} vs compute {}",
            cost.blockload_cycles,
            cost.compute_cycles
        );
        assert!(cost.utilization() < 0.2);
    }

    #[test]
    fn batching_amortizes_blockloads() {
        let op = Op::Gemm { m: 1, k: 1500, n: 6000, weighted: true };
        let b1 = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
        let b512 = map_layer(&op, Precision::Fp16, 512, &corelet(), 8);
        assert!(b512.utilization() > 4.0 * b1.utilization());
        assert!(b512.utilization() > 0.7, "util {}", b512.utilization());
    }

    #[test]
    fn depthwise_conv_utilization_collapses() {
        let op = Op::DepthwiseConv { c: 512, h: 14, w: 14, k: 3, stride: 1, pad: 1 };
        let int4 = map_layer(&op, Precision::Int4, 1, &corelet(), 8);
        // Only a 9-deep reduction against a 64-channel/cycle row axis.
        assert!(int4.utilization() < 0.2, "util {}", int4.utilization());
    }

    #[test]
    fn spatial_split_wins_when_co_tiles_are_few() {
        // Co=64 is a single tile: the Co split leaves 7 of 8 corelets idle,
        // the spatial split shares the stream.
        let op = conv(256, 64, 56, 3, 1, 1);
        let cost = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
        assert_eq!(cost.split, Split::Spatial);
        assert!(cost.utilization() > 0.5, "util {}", cost.utilization());
    }

    #[test]
    fn co_split_wins_for_many_tiles() {
        let op = conv(256, 2048, 7, 1, 1, 0);
        let cost = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
        assert_eq!(cost.split, Split::OutputChannels);
    }

    #[test]
    fn more_corelets_reduce_cycles() {
        let op = conv(256, 512, 28, 3, 1, 1);
        let c8 = map_layer(&op, Precision::Int4, 1, &corelet(), 8);
        let c64 = map_layer(&op, Precision::Int4, 1, &corelet(), 64);
        assert!(c64.total_cycles() < c8.total_cycles());
        // But not perfectly: residue/imbalance grows.
        assert!(c64.total_cycles() > c8.total_cycles() / 10.0);
    }

    #[test]
    fn overhead_plus_ideal_equals_total() {
        let op = conv(96, 208, 17, 3, 1, 1);
        let cost = map_layer(&op, Precision::Int4, 1, &corelet(), 8);
        let sum = cost.ideal_cycles + cost.overhead_cycles();
        assert!((sum - cost.total_cycles()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "auxiliary ops do not map")]
    fn aux_op_panics() {
        let op = Op::Aux {
            kind: rapid_workloads::graph::AuxKind::Relu,
            elems: 10,
            ops_per_elem: 1,
        };
        let _ = map_layer(&op, Precision::Fp16, 1, &corelet(), 8);
    }
}
