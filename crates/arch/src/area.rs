//! Area and power accounting for the decoupled FPU/FXU pipelines
//! (Fig 4c) and the chip floorplan (Fig 10).
//!
//! The paper's silicon analysis: adding the separate INT pipeline costs
//! ~16% MPE area, but the INT4 pipeline consumes only 0.3× the power of
//! the FP16 pipeline — which is what made *doubling* the INT4/INT2 engines
//! inside the FXU affordable (the "double pumping" of §III-A).

/// Relative area/power accounting for one MPE (FP16 pipeline ≡ 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpeAreaModel {
    /// FPU (FP16 + HFP8) pipeline area, the reference.
    pub fpu_area: f64,
    /// FXU pipeline area relative to the FPU (Fig 4c: ~16% overhead on the
    /// MPE, attributed to the added INT pipeline).
    pub fxu_area: f64,
    /// Single INT4 engine power relative to the FP16 pipeline (Fig 4c: 0.3×).
    pub int4_engine_power: f64,
    /// LRF + control area relative to the FPU.
    pub lrf_area: f64,
}

impl MpeAreaModel {
    /// Fig 4(c) accounting.
    pub fn rapid() -> Self {
        Self { fpu_area: 1.0, fxu_area: 0.16, int4_engine_power: 0.3, lrf_area: 0.25 }
    }

    /// Total MPE area relative to an FPU-only MPE.
    pub fn total_relative_area(&self) -> f64 {
        (self.fpu_area + self.fxu_area + self.lrf_area) / (self.fpu_area + self.lrf_area)
    }

    /// Power of the doubled INT4 engines relative to the FP16 pipeline:
    /// 2 engines × 0.3 — still well below 1.0, which is why doubling fits
    /// the power budget.
    pub fn doubled_int4_power(&self) -> f64 {
        2.0 * self.int4_engine_power
    }
}

/// Chip floorplan facts (Fig 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipFloorplan {
    /// Die edge in millimetres (6 × 6).
    pub edge_mm: f64,
    /// Technology node label.
    pub node_nm: u32,
}

impl ChipFloorplan {
    /// The fabricated 36 mm² 7 nm EUV chip.
    pub fn rapid_7nm() -> Self {
        Self { edge_mm: 6.0, node_nm: 7 }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fig4c_relationships() {
        let m = MpeAreaModel::rapid();
        // ~16% area overhead for the INT pipeline on top of FPU+LRF.
        let overhead = m.total_relative_area() - 1.0;
        assert!((overhead - 0.128).abs() < 0.01, "overhead {overhead}");
        // Doubled INT4 engines draw 0.6× the FP16 pipeline power.
        assert!((m.doubled_int4_power() - 0.6).abs() < 1e-12);
        assert!(m.doubled_int4_power() < 1.0);
    }
}
