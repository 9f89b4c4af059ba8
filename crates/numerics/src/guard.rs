//! Numeric guard policies for the emulated kernels.
//!
//! A transient upset in the datapath (see `rapid-fault`) can push a chunk
//! accumulator to a non-finite value or an INT16 chunk register past its
//! legal bound. The guard policy decides what a kernel does when it
//! detects such a state — mirroring the choices a real accelerator runtime
//! has: let the corruption flow downstream, clamp it at the write-back
//! stage, or abort the kernel with a located diagnostic.

/// What a guarded kernel does when it detects a corrupted accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GuardPolicy {
    /// No checking: corrupted values propagate into the output, exactly as
    /// unprotected hardware would behave. This is the only policy with zero
    /// overhead and the default.
    #[default]
    Propagate,
    /// Clamp at detection: a non-finite float accumulator is replaced by
    /// the FP16 saturation value of its sign (0 for NaN); an integer chunk
    /// register past the legal bound is clamped to it. Training keeps
    /// running with bounded damage.
    Saturate,
    /// Abort: surface [`NumericsError::NonFinite`] /
    /// [`NumericsError::Overflow`] with the output coordinates of the
    /// first corrupted accumulator.
    ///
    /// [`NumericsError::NonFinite`]: crate::NumericsError::NonFinite
    /// [`NumericsError::Overflow`]: crate::NumericsError::Overflow
    Error,
}

impl GuardPolicy {
    /// Whether this policy requires inspecting accumulator state at all.
    pub(crate) fn checks(&self) -> bool {
        !matches!(self, GuardPolicy::Propagate)
    }
}

/// The FP16 saturation replacement for a non-finite float value: largest
/// finite FP16 (1,6,9) magnitude with the sign preserved, or `0.0` for NaN.
pub(crate) fn saturate_f32(v: f32) -> f32 {
    const FP16_MAX: f32 = 4_290_772_992.0; // (2 - 2^-9) * 2^31 = 2^32 - 2^22
    if v.is_nan() {
        0.0
    } else if v.is_infinite() {
        FP16_MAX.copysign(v)
    } else {
        v
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_is_propagate_and_check_free() {
        assert_eq!(GuardPolicy::default(), GuardPolicy::Propagate);
        assert!(!GuardPolicy::Propagate.checks());
        assert!(GuardPolicy::Saturate.checks());
        assert!(GuardPolicy::Error.checks());
    }

    #[test]
    fn saturate_clamps_nonfinite_only() {
        assert_eq!(saturate_f32(f32::NAN), 0.0);
        assert!(saturate_f32(f32::INFINITY) > 4.0e9);
        assert!(saturate_f32(f32::NEG_INFINITY) < -4.0e9);
        assert_eq!(saturate_f32(1.5), 1.5);
        assert_eq!(saturate_f32(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn saturation_value_is_on_the_fp16_lattice() {
        use crate::format::FpFormat;
        let v = saturate_f32(f32::INFINITY);
        assert_eq!(FpFormat::fp16().quantize(v), v);
    }
}
