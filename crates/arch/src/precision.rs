//! The five RaPiD data formats at the architecture level.
//!
//! `Precision` describes what the *machine* needs to know about a format:
//! storage width, which MPE pipeline executes it, and the throughput
//! multiplier relative to FP16. The value-level semantics live in
//! `rapid-numerics`.

/// Which MPE pipeline a precision executes on (paper §III-A separates the
/// FPU and FXU pipelines to decouple their circuit optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Floating-point pipeline (FP16 and HFP8 share the 128-bit datapath).
    Fpu,
    /// Fixed-point pipeline (INT4/INT2, double-pumped).
    Fxu,
    /// FP32 runs only on the SFU array (selected auxiliary operations).
    Sfu,
}

/// A compute precision supported by the RaPiD core.
///
/// The declaration order doubles as the serving quality order: variants
/// compare from highest precision (`Fp32`) down to lowest (`Int2`), so
/// `a < b` means `a` is the higher-quality tier — the ordering the
/// precision-tiered load shedder walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// 32-bit IEEE floating point (SFU only; selected ops).
    Fp32,
    /// 16-bit DLFloat (1,6,9) — the baseline precision.
    Fp16,
    /// Hybrid FP8: (1,4,3) with programmable bias forward, (1,5,2) backward.
    Hfp8,
    /// 4-bit fixed point (inference).
    Int4,
    /// 2-bit fixed point (inference).
    Int2,
}

impl Precision {
    /// All precisions the MPE array can execute (excludes FP32, which is
    /// SFU-only).
    pub const MPE_PRECISIONS: [Precision; 4] =
        [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2];

    /// Storage bits per element.
    pub(crate) fn bits(&self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Fp16 => 16,
            Precision::Hfp8 => 8,
            Precision::Int4 => 4,
            Precision::Int2 => 2,
        }
    }

    /// Storage bytes per element (fractional for sub-byte formats).
    pub fn bytes(&self) -> f64 {
        f64::from(self.bits()) / 8.0
    }

    /// MAC throughput multiplier relative to FP16 on the MPE
    /// (paper: HFP8 2× via sub-SIMD; INT4 8× via the double-pumped FXU
    /// with 8 MAC engines per lane; INT2 16×).
    ///
    /// # Panics
    ///
    /// Panics for [`Precision::Fp32`], which the MPE array does not execute.
    pub(crate) fn mpe_throughput_multiplier(&self) -> u32 {
        match self {
            Precision::Fp32 => panic!("FP32 does not execute on the MPE array"),
            Precision::Fp16 => 1,
            Precision::Hfp8 => 2,
            Precision::Int4 => 8,
            Precision::Int2 => 16,
        }
    }

    /// The pipeline that executes this precision.
    pub fn pipeline(&self) -> Pipeline {
        match self {
            Precision::Fp32 => Pipeline::Sfu,
            Precision::Fp16 | Precision::Hfp8 => Pipeline::Fpu,
            Precision::Int4 | Precision::Int2 => Pipeline::Fxu,
        }
    }

    /// Whether this is a floating-point format.
    pub(crate) fn is_float(&self) -> bool {
        matches!(self, Precision::Fp32 | Precision::Fp16 | Precision::Hfp8)
    }

    /// Human-readable unit for throughput in this precision
    /// ("TFLOPS" for float formats, "TOPS" for fixed point).
    pub fn throughput_unit(&self) -> &'static str {
        if self.is_float() {
            "TFLOPS"
        } else {
            "TOPS"
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
            Precision::Hfp8 => "hfp8",
            Precision::Int4 => "int4",
            Precision::Int2 => "int2",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn storage_widths() {
        assert_eq!(Precision::Fp16.bytes(), 2.0);
        assert_eq!(Precision::Hfp8.bytes(), 1.0);
        assert_eq!(Precision::Int4.bytes(), 0.5);
        assert_eq!(Precision::Int2.bytes(), 0.25);
    }

    #[test]
    fn throughput_multipliers_match_paper() {
        assert_eq!(Precision::Fp16.mpe_throughput_multiplier(), 1);
        assert_eq!(Precision::Hfp8.mpe_throughput_multiplier(), 2);
        assert_eq!(Precision::Int4.mpe_throughput_multiplier(), 8);
        assert_eq!(Precision::Int2.mpe_throughput_multiplier(), 16);
    }

    #[test]
    #[should_panic(expected = "FP32 does not execute on the MPE array")]
    fn fp32_has_no_mpe_multiplier() {
        let _ = Precision::Fp32.mpe_throughput_multiplier();
    }

    #[test]
    fn pipelines() {
        assert_eq!(Precision::Fp16.pipeline(), Pipeline::Fpu);
        assert_eq!(Precision::Hfp8.pipeline(), Pipeline::Fpu);
        assert_eq!(Precision::Int4.pipeline(), Pipeline::Fxu);
        assert_eq!(Precision::Fp32.pipeline(), Pipeline::Sfu);
    }

    #[test]
    fn units() {
        assert_eq!(Precision::Hfp8.throughput_unit(), "TFLOPS");
        assert_eq!(Precision::Int4.throughput_unit(), "TOPS");
    }
}
