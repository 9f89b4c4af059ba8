//! Machine organization: MPE → corelet → core → chip → system.
//!
//! Defaults reproduce the fabricated 4-core chip (Fig 9/10) and the scaled
//! 32-core training chip (Fig 11). All capacities and bandwidths come from
//! the paper: 2 MB L1 per core, 128 B/cycle L1→corelet, 128 B/cycle/direction
//! ring, 200 GBps DDR for the inference chip, 400 GBps HBM + 128 GBps
//! chip-to-chip links for the training system.

use crate::precision::Precision;

/// One Mixed-Precision Processing Element (Fig 4a): an 8-way SIMD FPU plus
/// an 8-way (double-pumped) FXU and a local register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpeConfig {
    /// SIMD lanes per pipeline (8 in RaPiD).
    pub simd_lanes: u32,
    /// Local register file bytes available for stationary weights.
    pub lrf_bytes: u32,
}

impl Default for MpeConfig {
    fn default() -> Self {
        // 256 B of weight LRF: 8 Co lanes × 16 FP16 / 32 HFP8 / 64 INT4 /
        // 128 INT2 stationary input channels.
        Self { simd_lanes: 8, lrf_bytes: 256 }
    }
}

impl MpeConfig {
    /// MACs this MPE executes per cycle at a precision.
    pub fn macs_per_cycle(&self, p: Precision) -> u32 {
        self.simd_lanes * p.mpe_throughput_multiplier()
    }

    /// Number of stationary weights the LRF holds at a precision
    /// (`lrf_bytes / bytes_per_element`).
    pub(crate) fn lrf_weights(&self, p: Precision) -> u32 {
        (f64::from(self.lrf_bytes) / p.bytes()) as u32
    }

    /// Stationary input channels per LRF block (weights / Co lanes).
    pub fn lrf_ci_depth(&self, p: Precision) -> u32 {
        self.lrf_weights(p) / self.simd_lanes
    }
}

/// One corelet: an 8×8 systolic MPE array, the (doubled) SFU arrays and an
/// L0 scratchpad (Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreletConfig {
    /// MPE array rows (input channels map here).
    pub rows: u32,
    /// MPE array columns (output channels map here, together with SIMD).
    pub cols: u32,
    /// Per-MPE configuration.
    pub mpe: MpeConfig,
    /// FP16 SFU lanes. The ultra-low-precision core doubles the baseline
    /// SFU array (paper §III-B): 2 arrays × 8 SFUs × 8-way SIMD = 128.
    pub sfu_lanes: u32,
    /// L0 scratchpad capacity in bytes.
    pub l0_bytes: u64,
    /// L1→corelet bandwidth in bytes/cycle (each direction).
    pub l1_bw_bytes_per_cycle: u32,
}

impl Default for CoreletConfig {
    fn default() -> Self {
        Self {
            rows: 8,
            cols: 8,
            mpe: MpeConfig::default(),
            sfu_lanes: 128,
            l0_bytes: 64 * 1024,
            l1_bw_bytes_per_cycle: 128,
        }
    }
}

impl CoreletConfig {
    /// Total MPEs in the array.
    pub(crate) fn mpe_count(&self) -> u32 {
        self.rows * self.cols
    }

    /// MACs per cycle across the whole MPE array at a precision.
    pub fn macs_per_cycle(&self, p: Precision) -> u64 {
        u64::from(self.mpe_count()) * u64::from(self.mpe.macs_per_cycle(p))
    }

    /// Spatial output-channel tile: columns × SIMD lanes (Co granularity of
    /// the weight-stationary dataflow, Fig 5).
    pub fn co_tile(&self) -> u32 {
        self.cols * self.mpe.simd_lanes
    }

    /// Spatial input-channel granularity per cycle: rows × per-lane packing
    /// (1/2/8/16 for FP16/HFP8/INT4/INT2).
    pub fn ci_tile(&self, p: Precision) -> u32 {
        self.rows * p.mpe_throughput_multiplier()
    }

    /// Maximum stationary input channels per LRF block-load.
    pub fn ci_lrf_max(&self, p: Precision) -> u32 {
        self.rows * self.mpe.lrf_ci_depth(p)
    }

    /// Pipeline fill/drain cycles for one pass through the systolic array
    /// (operands ripple across rows and partial sums down columns).
    pub fn pipeline_fill_cycles(&self) -> u64 {
        u64::from(self.rows + self.cols)
    }
}

/// One AI core: two corelets sharing a 2 MB L1 scratchpad, with an MNI to
/// the ring (Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Corelets per core (2 in RaPiD).
    pub corelets: u32,
    /// Per-corelet configuration.
    pub corelet: CoreletConfig,
    /// Shared L1 scratchpad bytes (2 MB).
    pub l1_bytes: u64,
    /// MNI↔ring bandwidth in bytes/cycle per direction.
    pub ring_bw_bytes_per_cycle: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            corelets: 2,
            corelet: CoreletConfig::default(),
            l1_bytes: 2 * 1024 * 1024,
            ring_bw_bytes_per_cycle: 128,
        }
    }
}

impl CoreConfig {
    /// MACs per cycle for the whole core.
    pub(crate) fn macs_per_cycle(&self, p: Precision) -> u64 {
        u64::from(self.corelets) * self.corelet.macs_per_cycle(p)
    }

    /// FP16 SFU ops per cycle for the whole core.
    pub fn sfu_ops_per_cycle(&self) -> u64 {
        u64::from(self.corelets) * u64::from(self.corelet.sfu_lanes)
    }
}

/// A RaPiD chip: cores on a bidirectional ring, a chip-management unit and
/// an external memory interface (Fig 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Number of cores (4 fabricated; 32 in the scaled training chip).
    pub cores: u32,
    /// Per-core configuration.
    pub core: CoreConfig,
    /// Nominal clock frequency in GHz.
    pub freq_ghz: f64,
    /// External memory bandwidth in GB/s (DDR 200 for the 4-core chip,
    /// HBM 400 for the scaled training chip).
    pub mem_bw_gbps: f64,
}

impl ChipConfig {
    /// The fabricated 4-core 36 mm² chip, 1.5 GHz nominal, DDR 200 GBps.
    pub fn rapid_4core() -> Self {
        Self {
            cores: 4,
            core: CoreConfig::default(),
            freq_ghz: 1.5,
            mem_bw_gbps: 200.0,
        }
    }

    /// The scaled-up 32-core training chip with HBM at 400 GBps (§IV-A).
    pub(crate) fn rapid_32core() -> Self {
        Self {
            cores: 32,
            core: CoreConfig::default(),
            freq_ghz: 1.5,
            mem_bw_gbps: 400.0,
        }
    }

    /// A copy with a different core count (scaling studies, Fig 18a).
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// MACs per cycle for the whole chip.
    pub fn macs_per_cycle(&self, p: Precision) -> u64 {
        u64::from(self.cores) * self.core.macs_per_cycle(p)
    }

    /// Ops per cycle for the whole chip (2 × MACs).
    pub fn peak_ops_per_cycle(&self, p: Precision) -> u64 {
        2 * self.macs_per_cycle(p)
    }

    /// Peak throughput in T(FL)OPS at a frequency in GHz.
    pub fn peak_tops(&self, p: Precision, freq_ghz: f64) -> f64 {
        self.peak_ops_per_cycle(p) as f64 * freq_ghz * 1e9 / 1e12
    }
}

/// A multi-chip system (Fig 11: 4 × 32-core chips for training).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of chips.
    pub chips: u32,
    /// Per-chip configuration.
    pub chip: ChipConfig,
    /// Chip-to-chip interconnect bandwidth in GB/s (128 in the paper).
    pub link_bw_gbps: f64,
}

impl SystemConfig {
    /// The paper's 768-T(FL)OPS training system: 4 chips × 32 cores at
    /// 1.5 GHz with 128 GBps links.
    pub fn training_4x32() -> Self {
        Self { chips: 4, chip: ChipConfig::rapid_32core(), link_bw_gbps: 128.0 }
    }

    /// A copy with a different chip count (scaling studies, Fig 18b).
    pub fn with_chips(mut self, chips: u32) -> Self {
        self.chips = chips;
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fig10_peak_throughput_envelopes() {
        let chip = ChipConfig::rapid_4core();
        // 8 – 12.8 TFLOPS fp16
        assert_eq!(chip.peak_tops(Precision::Fp16, 1.0), 8.192);
        assert!((chip.peak_tops(Precision::Fp16, 1.6) - 13.1072).abs() < 1e-9);
        // 16 – 25.6 TFLOPS hfp8
        assert_eq!(chip.peak_tops(Precision::Hfp8, 1.0), 16.384);
        assert!((chip.peak_tops(Precision::Hfp8, 1.6) - 26.2144).abs() < 1e-9);
        // 64 – 102.4 TOPS int4
        assert_eq!(chip.peak_tops(Precision::Int4, 1.0), 65.536);
        assert!((chip.peak_tops(Precision::Int4, 1.6) - 104.8576).abs() < 1e-9);
    }

    #[test]
    fn abstract_numbers_at_nominal() {
        // "12/24/96 T(FL)OPS peak" for the 4-core chip at 1.5 GHz.
        let chip = ChipConfig::rapid_4core();
        assert!((chip.peak_tops(Precision::Fp16, chip.freq_ghz) - 12.288).abs() < 1e-9);
        assert!((chip.peak_tops(Precision::Hfp8, chip.freq_ghz) - 24.576).abs() < 1e-9);
        assert!((chip.peak_tops(Precision::Int4, chip.freq_ghz) - 98.304).abs() < 1e-9);
    }

    #[test]
    fn training_system_reaches_768_tops() {
        // "768 TFLOPs AI system comprising 4 32-core RAPID chips" (HFP8).
        let sys = SystemConfig::training_4x32();
        let peak = f64::from(sys.chips) * sys.chip.peak_tops(Precision::Hfp8, sys.chip.freq_ghz);
        assert!((peak - 786.432).abs() < 1e-6);
    }

    #[test]
    fn lrf_depths_scale_with_precision() {
        let mpe = MpeConfig::default();
        assert_eq!(mpe.lrf_ci_depth(Precision::Fp16), 16);
        assert_eq!(mpe.lrf_ci_depth(Precision::Hfp8), 32);
        assert_eq!(mpe.lrf_ci_depth(Precision::Int4), 64);
        assert_eq!(mpe.lrf_ci_depth(Precision::Int2), 128);
    }

    #[test]
    fn spatial_tiles() {
        let c = CoreletConfig::default();
        assert_eq!(c.co_tile(), 64);
        assert_eq!(c.ci_tile(Precision::Fp16), 8);
        assert_eq!(c.ci_tile(Precision::Hfp8), 16);
        assert_eq!(c.ci_tile(Precision::Int4), 64);
        assert_eq!(c.ci_tile(Precision::Int2), 128);
    }

    #[test]
    fn int4_consumes_5_8ths_of_l1_bandwidth() {
        // Paper §III-D: "the INT4 computations of the MPE still consume
        // only 5/8th of the available L1 bandwidth of 128 bytes/cycle."
        // Inputs: 64 ci/cycle × 0.5 B = 32 B; outputs: 64 co partial sums
        // FP16 every ~16 cycles ≈ 8 B/cyc + weights ~ the remaining margin.
        let c = CoreletConfig::default();
        let in_bytes = f64::from(c.ci_tile(Precision::Int4)) * Precision::Int4.bytes();
        assert_eq!(in_bytes, 32.0);
        assert!(in_bytes < f64::from(c.l1_bw_bytes_per_cycle));
    }

    #[test]
    fn builders() {
        let chip = ChipConfig::rapid_4core().with_cores(16);
        assert_eq!(chip.cores, 16);
        let sys = SystemConfig::training_4x32().with_chips(8);
        assert_eq!(sys.chips, 8);
    }
}
